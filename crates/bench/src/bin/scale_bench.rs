//! scale_bench — streaming observability at 128K–1M simulated PEs.
//!
//! Proves the ISSUE 7 claim: the tracer survives runs far past what the
//! in-memory rings could hold, because records *stream* to sinks instead
//! of accumulating. Two arms, Task-Bench style:
//!
//! * **scale** — the cloud stencil at 128K / 256K / 512K / 1M simulated
//!   PEs (one chare per PE, one step) with `log_capacity: 0` — the rings
//!   retain nothing, every record flows through Chrome-JSON *and* CSV
//!   file sinks — measuring simulator events/sec and peak RSS per PE
//!   count. RSS must grow at most linearly in PEs (the O(PE) runtime
//!   state: PE queues, RNGs, location caches), never with event count.
//! * **overhead** — a fixed 4K-PE stencil under tracer off vs
//!   `summary_only` vs full streaming, quantifying the observability tax
//!   on simulator throughput.
//!
//! Peak RSS (`VmHWM`) is process-lifetime-monotonic, so every point runs
//! in a fresh subprocess (the hidden `--one` mode) and reports back over
//! stdout as a `RESULT key=value ...` line.
//!
//! The full matrix writes `BENCH_scale.json` at the repo root; `--smoke`
//! runs a reduced matrix (128K-PE point, hard RSS ceiling) and does not
//! rewrite the JSON.

use charm_apps::stencil::{self, StencilConfig};
use charm_bench::Figure;
use charm_core::{ChromeStreamSink, CsvStreamSink, TraceConfig};
use charm_machine::presets;
use std::fmt::Write as _;

/// Hard ceiling for the 128K-PE streaming point, enforced in smoke mode
/// (and on the same point in full mode). Generous vs the ~0.2 GiB
/// measured, tight vs the multi-GiB an O(events) tracer would need.
const SMOKE_RSS_CEILING: u64 = 1 << 30; // 1 GiB

/// Ceiling for the 1M-PE point: 8× the 128K ceiling (linear-in-PE
/// headroom), still far under what retaining ~13M trace records would
/// cost.
const FULL_RSS_CEILING: u64 = 8 << 30; // 8 GiB

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Off,
    Summary,
    Stream,
}

impl Mode {
    fn tag(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Summary => "summary_only",
            Mode::Stream => "stream",
        }
    }

    fn parse(s: &str) -> Option<Mode> {
        match s {
            "off" => Some(Mode::Off),
            "summary_only" => Some(Mode::Summary),
            "stream" => Some(Mode::Stream),
            _ => None,
        }
    }
}

/// One measured subprocess run.
#[derive(Debug, Clone)]
struct Point {
    pes: usize,
    mode: Mode,
    steps: u64,
    events: u64,
    entries: u64,
    messages: u64,
    wall_s: f64,
    events_per_sec: f64,
    trace_dropped: u64,
    sink_records: u64,
    sink_bytes: u64,
    peak_rss_bytes: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--one") {
        run_one(&args[1..]);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");

    println!(
        "== scale_bench — streaming observability at scale ({})",
        if smoke { "smoke" } else { "full" }
    );

    // -- scale arm: full streaming at growing PE counts -------------------
    let pe_counts: &[usize] = if smoke {
        &[131_072]
    } else {
        &[131_072, 262_144, 524_288, 1_048_576]
    };
    let mut fig = Figure::new(
        "scale_obs",
        "stencil, 1 step, full streaming (Chrome+CSV sinks, rings at capacity 0)",
        &["pes", "events", "ev/sec", "wall_s", "streamed_MB", "peak_rss_MB", "rss_B/pe"],
    );
    let mut scale_points = Vec::new();
    for &pes in pe_counts {
        let p = spawn_point(pes, Mode::Stream, 1, 1);
        assert!(p.sink_records > 0, "sinks saw nothing at {pes} PEs");
        assert!(
            p.trace_dropped > 0,
            "capacity-0 rings must report shedding at {pes} PEs"
        );
        assert!(p.peak_rss_bytes > 0, "VmHWM unavailable");
        fig.row(vec![
            p.pes.to_string(),
            p.events.to_string(),
            format!("{:.0}", p.events_per_sec),
            format!("{:.2}", p.wall_s),
            format!("{:.1}", p.sink_bytes as f64 / 1e6),
            format!("{:.1}", p.peak_rss_bytes as f64 / 1e6),
            (p.peak_rss_bytes / p.pes as u64).to_string(),
        ]);
        scale_points.push(p);
    }
    // Bounded-memory check: the 128K point stays under a hard ceiling, and
    // RSS-per-PE must not *grow* with PE count (at-most-linear growth; the
    // event stream is ~13 records/PE/step, so an O(events) tracer would
    // blow this immediately).
    let first = &scale_points[0];
    assert!(
        first.peak_rss_bytes < SMOKE_RSS_CEILING,
        "128K-PE streaming run used {} bytes (ceiling {})",
        first.peak_rss_bytes,
        SMOKE_RSS_CEILING
    );
    let last = scale_points.last().unwrap();
    assert!(
        last.peak_rss_bytes < FULL_RSS_CEILING,
        "{}-PE streaming run used {} bytes (ceiling {})",
        last.pes,
        last.peak_rss_bytes,
        FULL_RSS_CEILING
    );
    let rpp_first = first.peak_rss_bytes as f64 / first.pes as f64;
    let rpp_last = last.peak_rss_bytes as f64 / last.pes as f64;
    assert!(
        rpp_last <= rpp_first * 1.5,
        "RSS/PE grew {rpp_first:.0} -> {rpp_last:.0} B: super-linear memory"
    );
    fig.note(format!(
        "RSS/PE {:.0} B at {}K PEs vs {:.0} B at {}K PEs: at-most-linear growth",
        rpp_first,
        first.pes / 1024,
        rpp_last,
        last.pes / 1024
    ));
    emit(&fig, smoke);

    // -- overhead arm: off vs summary_only vs stream ----------------------
    let (opes, osteps, ocpp) = if smoke { (1024, 2, 2) } else { (4096, 3, 2) };
    let modes: &[Mode] = if smoke {
        &[Mode::Off, Mode::Stream]
    } else {
        &[Mode::Off, Mode::Summary, Mode::Stream]
    };
    let mut ofig = Figure::new(
        "scale_overhead",
        "tracer overhead, stencil (Task-Bench style: same work, tracer arms)",
        &["arm", "events", "ev/sec", "wall_s", "slowdown"],
    );
    let mut overhead_points = Vec::new();
    let mut off_eps = 0.0f64;
    for &m in modes {
        let p = spawn_point(opes, m, osteps, ocpp);
        if m == Mode::Off {
            off_eps = p.events_per_sec;
        }
        let slow = if p.events_per_sec > 0.0 { off_eps / p.events_per_sec } else { 0.0 };
        ofig.row(vec![
            m.tag().to_string(),
            p.events.to_string(),
            format!("{:.0}", p.events_per_sec),
            format!("{:.3}", p.wall_s),
            format!("{slow:.2}x"),
        ]);
        overhead_points.push((p, slow));
    }
    // Identical virtual work in every arm.
    for (p, _) in &overhead_points {
        assert_eq!(p.events, overhead_points[0].0.events, "arms diverged");
        assert_eq!(p.entries, overhead_points[0].0.entries, "arms diverged");
    }
    emit(&ofig, smoke);

    if smoke {
        println!("  (smoke mode: BENCH_scale.json not rewritten)");
        println!("scale_bench smoke OK");
        return;
    }
    match write_json(&scale_points, &overhead_points) {
        Ok(p) => println!("  -> {}", p.display()),
        Err(e) => {
            eprintln!("failed to write BENCH_scale.json: {e}");
            std::process::exit(1);
        }
    }
}

/// Print a figure; only the full matrix overwrites the committed
/// `results/*.csv` (smoke runs a reduced matrix and must not clobber it).
fn emit(fig: &Figure, smoke: bool) {
    if smoke {
        print!("{}", fig.render());
    } else {
        fig.emit();
    }
}

/// Child mode: run one point in this process (so VmHWM belongs to it
/// alone) and print a single `RESULT key=value ...` line.
fn run_one(rest: &[String]) {
    assert_eq!(rest.len(), 4, "--one <pes> <mode> <steps> <chares_per_pe>");
    let pes: usize = rest[0].parse().expect("pes");
    let mode = Mode::parse(&rest[1]).expect("mode: off|summary_only|stream");
    let steps: u64 = rest[2].parse().expect("steps");
    let cpp: usize = rest[3].parse().expect("chares_per_pe");

    let mut cfg = StencilConfig::cloud_4k(presets::cloud(pes), cpp);
    cfg.steps = steps;
    let tmp = std::env::temp_dir();
    let jpath = tmp.join(format!("charm_scale_{}_{pes}.trace.json", std::process::id()));
    let cpath = tmp.join(format!("charm_scale_{}_{pes}.trace.csv", std::process::id()));
    match mode {
        Mode::Off => {}
        Mode::Summary => cfg.trace = Some(TraceConfig::summary_only()),
        Mode::Stream => {
            // Rings keep nothing; the sinks are the only consumers of the
            // full record stream. Fan-out cap 8 keeps the sparse comm
            // matrix at O(PE) even at 1M sources.
            cfg.trace = Some(TraceConfig {
                log_capacity: 0,
                comm_fanout_cap: 8,
            });
            cfg.trace_sinks = vec![
                Box::new(ChromeStreamSink::create(&jpath).expect("chrome sink")),
                Box::new(CsvStreamSink::create(&cpath).expect("csv sink")),
            ];
        }
    }

    let (_run, mut rt) = stencil::run_with_runtime(cfg);
    let summary = rt.summary();
    let stats = rt.finish_trace();
    let sink_records: u64 = stats.iter().map(|s| s.records).sum();
    let sink_bytes: u64 = stats.iter().map(|s| s.bytes_written).sum();
    let _ = std::fs::remove_file(&jpath);
    let _ = std::fs::remove_file(&cpath);
    let rss = charm_machine::peak_rss_bytes().unwrap_or(0);

    println!(
        "RESULT pes={pes} mode={} steps={steps} events={} entries={} messages={} \
         wall_s={:.6} events_per_sec={:.1} trace_dropped={} sink_records={sink_records} \
         sink_bytes={sink_bytes} peak_rss_bytes={rss}",
        mode.tag(),
        summary.events,
        summary.entries,
        summary.messages,
        summary.wall_time_s,
        summary.events_per_sec,
        summary.trace_dropped,
    );
}

/// Run one point in a fresh subprocess and parse its RESULT line.
fn spawn_point(pes: usize, mode: Mode, steps: u64, cpp: usize) -> Point {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .args([
            "--one",
            &pes.to_string(),
            mode.tag(),
            &steps.to_string(),
            &cpp.to_string(),
        ])
        .output()
        .expect("spawn scale point");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "point pes={pes} mode={} failed:\n{stdout}\n{}",
        mode.tag(),
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("RESULT "))
        .unwrap_or_else(|| panic!("no RESULT line from pes={pes}:\n{stdout}"));
    let mut kv = std::collections::HashMap::new();
    for tok in line.trim_start_matches("RESULT ").split_whitespace() {
        if let Some((k, v)) = tok.split_once('=') {
            kv.insert(k.to_string(), v.to_string());
        }
    }
    let get = |k: &str| -> &str { kv.get(k).map(String::as_str).unwrap_or("0") };
    Point {
        pes: get("pes").parse().unwrap(),
        mode: Mode::parse(get("mode")).unwrap(),
        steps: get("steps").parse().unwrap(),
        events: get("events").parse().unwrap(),
        entries: get("entries").parse().unwrap(),
        messages: get("messages").parse().unwrap(),
        wall_s: get("wall_s").parse().unwrap(),
        events_per_sec: get("events_per_sec").parse().unwrap(),
        trace_dropped: get("trace_dropped").parse().unwrap(),
        sink_records: get("sink_records").parse().unwrap(),
        sink_bytes: get("sink_bytes").parse().unwrap(),
        peak_rss_bytes: get("peak_rss_bytes").parse().unwrap(),
    }
}

fn write_json(scale: &[Point], overhead: &[(Point, f64)]) -> std::io::Result<std::path::PathBuf> {
    // CARGO_MANIFEST_DIR = crates/bench → ../../BENCH_scale.json
    let root = match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => std::path::PathBuf::from(m).join("../.."),
        Err(_) => std::path::PathBuf::from("."),
    };
    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let path = root.join("BENCH_scale.json");
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"bench\": \"scale\",");
    let _ = writeln!(j, "  \"mode\": \"full\",");
    let _ = writeln!(
        j,
        "  \"note\": \"streaming observability: stencil (cloud preset, 1 chare/PE, 1 step) with log_capacity 0 and Chrome+CSV file sinks — rings retain nothing, sinks see every record; peak RSS is the subprocess VmHWM; overhead arm compares tracer off vs summary_only vs full streaming on a fixed 4K-PE stencil\","
    );
    let _ = writeln!(j, "  \"host_cores\": {host_cores},");
    let _ = writeln!(j, "  \"scale\": [");
    for (i, p) in scale.iter().enumerate() {
        let comma = if i + 1 < scale.len() { "," } else { "" };
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"pes\": {},", p.pes);
        let _ = writeln!(j, "      \"steps\": {},", p.steps);
        let _ = writeln!(j, "      \"events\": {},", p.events);
        let _ = writeln!(j, "      \"entries\": {},", p.entries);
        let _ = writeln!(j, "      \"messages\": {},", p.messages);
        let _ = writeln!(j, "      \"wall_s\": {:.3},", p.wall_s);
        let _ = writeln!(j, "      \"events_per_sec\": {:.1},", p.events_per_sec);
        let _ = writeln!(j, "      \"ring_dropped\": {},", p.trace_dropped);
        let _ = writeln!(j, "      \"sink_records\": {},", p.sink_records);
        let _ = writeln!(j, "      \"sink_bytes\": {},", p.sink_bytes);
        let _ = writeln!(j, "      \"peak_rss_bytes\": {},", p.peak_rss_bytes);
        let _ = writeln!(j, "      \"rss_bytes_per_pe\": {}", p.peak_rss_bytes / p.pes as u64);
        let _ = writeln!(j, "    }}{comma}");
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"overhead\": [");
    for (i, (p, slow)) in overhead.iter().enumerate() {
        let comma = if i + 1 < overhead.len() { "," } else { "" };
        let _ = writeln!(j, "    {{");
        let _ = writeln!(j, "      \"arm\": \"{}\",", p.mode.tag());
        let _ = writeln!(j, "      \"pes\": {},", p.pes);
        let _ = writeln!(j, "      \"steps\": {},", p.steps);
        let _ = writeln!(j, "      \"events\": {},", p.events);
        let _ = writeln!(j, "      \"wall_s\": {:.3},", p.wall_s);
        let _ = writeln!(j, "      \"events_per_sec\": {:.1},", p.events_per_sec);
        let _ = writeln!(j, "      \"slowdown_vs_off\": {slow:.3}");
        let _ = writeln!(j, "    }}{comma}");
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    std::fs::write(&path, j)?;
    Ok(path)
}
