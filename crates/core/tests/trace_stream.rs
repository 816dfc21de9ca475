//! Streaming-observability guarantees (ISSUE 7):
//!
//! * **Streamed == in-memory** — the Chrome-JSON / CSV files a streaming
//!   sink writes are byte-identical to the in-memory arrival-order
//!   exporters whenever the rings retained every record.
//! * **Quantile accuracy** — online log-bucketed histograms place every
//!   quantile estimate in the same bucket as the exact order statistic
//!   (property-tested over arbitrary sample sets).
//! * **Visible loss** — `RunSummary` carries ring-drop counts and per-sink
//!   delivery stats; the report footer prints them. A file sink whose
//!   writes fail counts every record it lost, and one that is dropped
//!   unfinished still leaves a complete file.

use charm_core::{
    ArrayProxy, Chare, ChromeStreamSink, CsvStreamSink, CountingSink, Ctx, Ix, LogHist,
    MachineConfig, Runtime, SysEvent, TraceConfig,
};
use charm_pup::{Pup, Puper};
use proptest::prelude::*;

/// A chare ring with enough fan-out to exercise every trace record kind.
#[derive(Default)]
struct Hopper {
    hops: u64,
    limit: u64,
    n: i64,
    arr: ArrayProxy<Hopper>,
}

impl Pup for Hopper {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.hops, self.limit, self.n, self.arr);
    }
}

impl Chare for Hopper {
    type Msg = i64;
    fn on_message(&mut self, me: i64, ctx: &mut Ctx<'_>) {
        self.hops += 1;
        ctx.work(5_000.0 * (1.0 + (me % 3) as f64));
        if self.hops >= self.limit {
            return;
        }
        ctx.send(self.arr, Ix::i1((me + 1) % self.n), me);
    }
    fn on_event(&mut self, _ev: SysEvent, _ctx: &mut Ctx<'_>) {}
}

fn hopper_runtime(
    seed: u64,
    cfg: TraceConfig,
    sinks: Vec<Box<dyn charm_core::TraceSink>>,
) -> Runtime {
    let mut rt = Runtime::builder(MachineConfig::homogeneous(4))
        .seed(seed)
        .tracing(cfg)
        .build();
    for s in sinks {
        rt.add_trace_sink(s);
    }
    let arr = rt.create_array::<Hopper>("hopper");
    let n = 6i64;
    for i in 0..n {
        rt.insert(arr, Ix::i1(i), Hopper { hops: 0, limit: 40, n, arr }, Some(i as usize % 4));
    }
    for i in 0..n {
        rt.send(arr, Ix::i1(i), i);
    }
    rt
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("charm_{}_{name}", std::process::id()))
}

#[test]
fn streamed_files_byte_equal_in_memory_arrival_exporters() {
    for seed in [7u64, 11, 42] {
        let jpath = tmp(&format!("{seed}.trace.json"));
        let cpath = tmp(&format!("{seed}.trace.csv"));
        // Rings big enough to retain everything, so the in-memory
        // arrival-order exporters see the full stream too.
        let mut rt = hopper_runtime(
            seed,
            TraceConfig {
                log_capacity: 1 << 20,
                ..TraceConfig::default()
            },
            vec![
                Box::new(ChromeStreamSink::create(&jpath).unwrap()),
                Box::new(CsvStreamSink::create(&cpath).unwrap()),
            ],
        );
        rt.run();
        let stats = rt.finish_trace();
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.dropped == 0 && s.records > 0));

        let tr = rt.tracer().unwrap();
        assert_eq!(tr.dropped_events(), 0, "rings must have retained all");
        let streamed_json = std::fs::read_to_string(&jpath).unwrap();
        let streamed_csv = std::fs::read_to_string(&cpath).unwrap();
        assert_eq!(streamed_json, rt.trace_chrome_json_arrival().unwrap());
        assert_eq!(streamed_csv, rt.trace_csv_arrival().unwrap());
        // Streamed byte counts match what landed on disk.
        assert_eq!(
            stats.iter().map(|s| s.bytes_written).sum::<u64>() as usize,
            streamed_json.len() + streamed_csv.len()
        );
        let _ = std::fs::remove_file(&jpath);
        let _ = std::fs::remove_file(&cpath);
    }
}

#[test]
fn failed_writes_count_every_lost_record() {
    // `/dev/full` opens fine and fails every write with ENOSPC — a full
    // disk. This run fits in the sinks' buffers, so nothing is written (or
    // fails) until the final flush: the one `finish` used to ignore.
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let mut rt = hopper_runtime(
        7,
        TraceConfig::default(),
        vec![
            Box::new(ChromeStreamSink::create(full).unwrap()),
            Box::new(CsvStreamSink::create(full).unwrap()),
        ],
    );
    rt.run();
    let stats = rt.finish_trace();
    assert_eq!(stats.len(), 2);
    for s in &stats {
        assert!(s.records > 0);
        assert_eq!(s.dropped, s.records, "{}: every record was lost, and counted", s.name);
        assert_eq!(s.bytes_written, 0, "{}: nothing reached the file", s.name);
    }
    let report = rt.projections_report(5).unwrap();
    assert!(report.contains(&format!("{} write error(s)", stats[0].dropped)), "{report}");
    // A path that cannot be opened is an error at creation, not a latch.
    assert!(ChromeStreamSink::create("/nonexistent-dir/t.json").is_err());
    assert!(CsvStreamSink::create("/nonexistent-dir/t.csv").is_err());
}

#[test]
fn dropping_an_unfinished_runtime_completes_the_files() {
    let run = |tag: &str, finish: bool| {
        let jpath = tmp(&format!("drop_{tag}.trace.json"));
        let cpath = tmp(&format!("drop_{tag}.trace.csv"));
        let mut rt = hopper_runtime(
            11,
            TraceConfig::default(),
            vec![
                Box::new(ChromeStreamSink::create(&jpath).unwrap()),
                Box::new(CsvStreamSink::create(&cpath).unwrap()),
            ],
        );
        rt.run();
        if finish {
            rt.finish_trace();
            rt.finish_trace(); // idempotent: one tail, not two
        }
        drop(rt);
        let files = (
            std::fs::read_to_string(&jpath).unwrap(),
            std::fs::read_to_string(&cpath).unwrap(),
        );
        let _ = std::fs::remove_file(&jpath);
        let _ = std::fs::remove_file(&cpath);
        files
    };
    let finished = run("finished", true);
    let dropped = run("dropped", false);
    assert!(finished.0.ends_with("}}\n]}\n"), "one JSON tail after the last event");
    assert_eq!(dropped, finished, "drop writes what finish_trace would have");
}

#[test]
fn summary_carries_drop_counts_and_sink_stats() {
    let mut rt = hopper_runtime(
        3,
        TraceConfig {
            log_capacity: 16, // force ring shedding
            ..TraceConfig::default()
        },
        vec![Box::new(CountingSink::new())],
    );
    let summary = rt.run();
    assert!(summary.trace_dropped > 0, "16-record rings must shed");
    assert_eq!(summary.trace_dropped, rt.tracer().unwrap().dropped_events());
    assert_eq!(summary.trace_sinks.len(), 1);
    let s = &summary.trace_sinks[0];
    assert_eq!(s.name, "counting");
    assert!(s.records > 0);
    // Sinks see the full stream even though the rings shed.
    assert!(s.records > summary.trace_dropped);
    let report = rt.projections_report(5).unwrap();
    assert!(report.contains("dropped from rings"), "{report}");
    assert!(report.contains("sink counting:"), "{report}");
}

proptest! {
    /// The histogram's quantile estimate always lands in the same
    /// log-bucket as the exact order statistic — i.e. within one bucket
    /// (≤ 12.5% relative error) of the true quantile.
    #[test]
    fn hist_quantile_within_one_bucket_of_exact(
        mut samples in proptest::collection::vec(0u64..1_000_000_000_000, 1..300),
        qs in proptest::collection::vec(0.001f64..1.0, 1..6),
    ) {
        let mut h = LogHist::new();
        for &s in &samples {
            h.add(s);
        }
        samples.sort_unstable();
        for q in qs {
            let rank = ((q * samples.len() as f64).ceil() as usize)
                .clamp(1, samples.len());
            let exact = samples[rank - 1];
            let est = h.quantile(q);
            prop_assert_eq!(
                LogHist::bucket_of(est),
                LogHist::bucket_of(exact),
                "q={} exact={} est={}", q, exact, est
            );
            prop_assert!(est <= exact);
        }
    }
}
