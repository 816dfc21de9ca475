//! Trace demo driver: run leanmd with full tracing *streamed* — Chrome-trace
//! JSON + CSV flow through file sinks to `results/` while the run executes —
//! and recorded, print the projections-lite report and the exact critical
//! path of the recorded DAG (`charm_replay::critical_path`), and self-check
//! the core accounting invariants:
//!
//! * traced per-entry busy time must equal the scheduler's per-PE busy time,
//! * the streamed files must be byte-identical to the in-memory
//!   arrival-order exporters (the rings retained every record),
//! * the critical path telescopes (`Σ dur + Σ wait` is its length to the
//!   nanosecond), ends no later than the makespan plus the longest entry,
//!   and has more than one segment.
//!
//! Open `results/trace_leanmd.json` at <https://ui.perfetto.dev> — one track
//! per PE plus an RTS track with LB/FT/DVFS instants.

use charm_apps::leanmd::{run_with_runtime, LeanMdConfig};
use charm_bench::{fmt_s, results_path};
use charm_core::{ChromeStreamSink, CsvStreamSink, ReplayConfig, SimTime, TraceConfig};
use charm_lb::GreedyLb;
use std::collections::BTreeMap;

fn main() {
    let stream_json = results_path("trace_leanmd_stream.json").expect("results dir");
    let stream_csv = results_path("trace_leanmd_stream.csv").expect("results dir");
    let (run, mut rt) = run_with_runtime(LeanMdConfig {
        cells_per_dim: 3,
        atoms_per_cell: 40,
        steps: 6,
        lb_every: 3,
        strategy: Some(Box::new(GreedyLb)),
        ckpt_at: Some(4),
        trace: Some(TraceConfig::default()),
        trace_sinks: vec![
            Box::new(ChromeStreamSink::create(&stream_json).expect("stream sink")),
            Box::new(CsvStreamSink::create(&stream_csv).expect("stream sink")),
        ],
        record: Some(ReplayConfig::default()),
        ..LeanMdConfig::default()
    });
    assert!(run.unrecoverable.is_none(), "demo run must complete");
    let sink_stats = rt.finish_trace();

    // Projections "summary mode": always-on aggregates, printed as a report
    // (includes per-sink delivery stats).
    let report = rt.projections_report(8).expect("tracing was enabled");
    print!("{report}");

    // The exact critical path of the recorded DAG, attributed to entry
    // methods and, folded from its segments, to PEs.
    let log = rt.take_replay_log().expect("recording was enabled");
    let cp = charm_replay::critical_path(&log).expect("entries executed");
    let dur_ns: u64 = cp.segments.iter().map(|s| s.dur_ns).sum();
    let wait_ns: u64 = cp.segments.iter().map(|s| s.wait_ns).sum();
    let secs = |ns: u64| fmt_s(ns as f64 / 1e9);
    let pct = 100.0 * cp.len_ns as f64 / log.end_ns.max(1) as f64;
    println!(
        "-- critical path (recorded DAG): {} ({pct:.1}% of makespan), {} segment(s), {} msg wait",
        secs(cp.len_ns),
        cp.segments.len(),
        secs(wait_ns)
    );
    println!(
        "  {} ns = {dur_ns} ns compute + {wait_ns} ns msg wait; makespan {} ns",
        cp.len_ns, log.end_ns
    );
    for (entry, ns) in cp.by_entry.iter().take(8) {
        let execs = cp.segments.iter().filter(|s| &s.entry == entry).count();
        println!("  {entry:<36} {:>10} {execs:>8} exec(s) on path", secs(*ns));
    }
    let mut by_pe: BTreeMap<u32, u64> = BTreeMap::new();
    for s in &cp.segments {
        *by_pe.entry(s.pe).or_default() += s.dur_ns;
    }
    let mut by_pe: Vec<(u32, u64)> = by_pe.into_iter().collect();
    by_pe.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (pe, ns) in by_pe.iter().take(8) {
        println!("  pe {pe:>3} {:>10} busy on path", secs(*ns));
    }

    // Projections "log mode": full event logs, exported for external tools.
    let json = rt.trace_chrome_json().expect("tracing was enabled");
    let csv = rt.trace_csv().expect("tracing was enabled");
    for (name, data) in [("trace_leanmd.json", &json), ("trace_leanmd.csv", &csv)] {
        match results_path(name).and_then(|p| std::fs::write(&p, data).map(|()| p)) {
            Ok(p) => println!("  -> {}", p.display()),
            Err(e) => {
                eprintln!("failed to write {name}: {e}");
                std::process::exit(1);
            }
        }
    }
    for p in [&stream_json, &stream_csv] {
        println!("  -> {} (streamed)", p.display());
    }

    // Acceptance self-check: the profile totals must agree with the
    // scheduler's busy-time accounting to within float rounding.
    let busy: SimTime = (0..rt.num_pes()).map(|pe| rt.pe_busy_time(pe)).sum();
    let traced = rt.tracer().expect("tracing was enabled").total_entry_time();
    if traced != busy {
        eprintln!("BUSY-TIME MISMATCH: traced {traced} vs scheduler {busy}");
        std::process::exit(1);
    }
    let profile_s: f64 = rt.trace_profiles().iter().map(|p| p.total_s).sum();
    let rel = (profile_s - busy.as_secs_f64()).abs() / busy.as_secs_f64().max(f64::MIN_POSITIVE);
    if rel > 1e-9 {
        eprintln!("PROFILE MISMATCH: {profile_s} vs {} (rel {rel:e})", busy.as_secs_f64());
        std::process::exit(1);
    }

    // Streaming self-check: nothing shed, every record delivered to both
    // sinks, and the files on disk match the in-memory arrival-order
    // exporters byte for byte.
    let tr = rt.tracer().expect("tracing was enabled");
    if tr.dropped_events() != 0 {
        eprintln!("RING SHED on a demo-sized run: {} records", tr.dropped_events());
        std::process::exit(1);
    }
    if sink_stats.len() != 2 || sink_stats.iter().any(|s| s.dropped != 0 || s.records == 0) {
        eprintln!("SINK STATS unexpected: {sink_stats:?}");
        std::process::exit(1);
    }
    let streamed = std::fs::read_to_string(&stream_json).expect("streamed json");
    if streamed != rt.trace_chrome_json_arrival().expect("tracing was enabled") {
        eprintln!("STREAMED JSON != in-memory arrival exporter");
        std::process::exit(1);
    }
    let streamed = std::fs::read_to_string(&stream_csv).expect("streamed csv");
    if streamed != rt.trace_csv_arrival().expect("tracing was enabled") {
        eprintln!("STREAMED CSV != in-memory arrival exporter");
        std::process::exit(1);
    }

    // Critical-path self-check. The driver exits from the final reduction,
    // so entries already under way when the clock stopped may overhang the
    // makespan by at most one entry duration.
    if dur_ns + wait_ns != cp.len_ns {
        eprintln!(
            "CRITICAL PATH does not telescope: {dur_ns} + {wait_ns} != {}",
            cp.len_ns
        );
        std::process::exit(1);
    }
    let max_entry_ns = log.execs.iter().map(|(e, _)| e.dur_ns).max().unwrap_or(0);
    if cp.len_ns > log.end_ns + max_entry_ns {
        eprintln!(
            "CRITICAL PATH {} ns past makespan {} ns + longest entry {max_entry_ns} ns",
            cp.len_ns, log.end_ns
        );
        std::process::exit(1);
    }
    if cp.segments.len() < 2 {
        eprintln!("CRITICAL PATH degenerate: {} segment(s)", cp.segments.len());
        std::process::exit(1);
    }

    println!(
        "  self-check ok: traced busy time {traced} == scheduler busy time ({} entries); \
         streamed files byte-equal; critical path telescopes, {} segments, {pct:.1}% of makespan",
        run.entries,
        cp.segments.len()
    );
}
