//! Parallel-engine determinism property: for every mini-app, seed and
//! worker-thread count, the sharded engine must produce results
//! **byte-identical** to the sequential scheduler — same final PUP state
//! digests, same Chrome-trace JSON, same step timings, and (separately) the
//! same PUP-packed replay log bytes.
//!
//! The thread counts >1 additionally assert `last_run_parallel()`, so a
//! silent fallback to the sequential path cannot make this test vacuous.
//! Nothing here records periodic state digests, so every sharded run is on
//! the adaptive core; the lockstep (digest-cut) core is pinned against the
//! committed goldens by `charm-replay`'s `parallel_golden`.

use charm_core::machine::{presets, MachineConfig};
use charm_core::{Runtime, TraceConfig};

const SEEDS: [u64; 2] = [42, 9001];
const THREADS: [usize; 3] = [1, 2, 4];

/// Everything we demand be identical across thread counts.
struct Fingerprint {
    digests: Vec<(charm_core::ObjId, u64)>,
    trace_json: String,
    step_times: Vec<f64>,
    went_parallel: bool,
}

fn fingerprint(mut rt: Runtime, step_times: Vec<f64>) -> Fingerprint {
    Fingerprint {
        digests: rt.state_digest(),
        trace_json: rt
            .trace_chrome_json()
            .expect("tracing was enabled for this run"),
        step_times,
        went_parallel: rt.last_run_parallel(),
    }
}

fn check_matrix(app: &str, run: impl Fn(u64, usize) -> Fingerprint) {
    for seed in SEEDS {
        let base = run(seed, 1);
        assert!(
            !base.went_parallel,
            "{app} seed {seed}: threads=1 must use the sequential engine"
        );
        assert!(
            !base.digests.is_empty(),
            "{app} seed {seed}: no live chares to digest — test is vacuous"
        );
        for threads in THREADS.iter().copied().filter(|&t| t > 1) {
            let par = run(seed, threads);
            assert!(
                par.went_parallel,
                "{app} seed {seed} threads {threads}: engine silently fell back to sequential"
            );
            assert_eq!(
                base.digests, par.digests,
                "{app} seed {seed} threads {threads}: final PUP digests diverged"
            );
            assert_eq!(
                base.step_times, par.step_times,
                "{app} seed {seed} threads {threads}: step timings diverged"
            );
            if base.trace_json != par.trace_json {
                // Locate the first differing line for a readable failure.
                let (a, b) = (&base.trace_json, &par.trace_json);
                let diff = a
                    .lines()
                    .zip(b.lines())
                    .enumerate()
                    .find(|(_, (x, y))| x != y);
                panic!(
                    "{app} seed {seed} threads {threads}: Chrome traces diverged at {:?}",
                    diff.map(|(i, (x, y))| format!("line {i}: {x} vs {y}"))
                );
            }
        }
    }
}

#[test]
fn stencil_parallel_matches_sequential() {
    check_matrix("stencil", |seed, threads| {
        let mut cfg =
            charm_apps::stencil::StencilConfig::cloud_4k(presets::cloud(8), 2);
        cfg.grid = 512;
        cfg.steps = 6;
        cfg.seed = seed;
        cfg.threads = threads;
        cfg.trace = Some(TraceConfig::default());
        let (run, rt) = charm_apps::stencil::run_with_runtime(cfg);
        fingerprint(rt, run.step_times)
    });
}

#[test]
fn leanmd_parallel_matches_sequential() {
    check_matrix("leanmd", |seed, threads| {
        let cfg = charm_apps::leanmd::LeanMdConfig {
            machine: MachineConfig::homogeneous(8),
            cells_per_dim: 3,
            atoms_per_cell: 40,
            steps: 4,
            seed,
            threads,
            trace: Some(TraceConfig::default()),
            ..Default::default()
        };
        let (run, rt) = charm_apps::leanmd::run_with_runtime(cfg);
        fingerprint(rt, run.step_times)
    });
}

/// Satellite: the tracer's per-entry profile must account for *exactly* the
/// busy time the scheduler billed, even when four shard tracers were merged.
#[test]
fn parallel_tracer_accounts_for_all_busy_time() {
    let cfg = charm_apps::leanmd::LeanMdConfig {
        machine: MachineConfig::homogeneous(8),
        cells_per_dim: 3,
        atoms_per_cell: 40,
        steps: 4,
        threads: 4,
        trace: Some(TraceConfig::default()),
        ..Default::default()
    };
    let (_run, rt) = charm_apps::leanmd::run_with_runtime(cfg);
    assert!(rt.last_run_parallel(), "run did not take the parallel path");
    let tr = rt.tracer().expect("tracing was enabled");
    let busy: charm_core::SimTime = (0..rt.num_pes()).map(|pe| rt.pe_busy_time(pe)).sum();
    assert!(busy > charm_core::SimTime::ZERO);
    assert_eq!(
        tr.total_entry_time(),
        busy,
        "merged shard profiles must bill every busy nanosecond exactly once"
    );
}

/// Satellite: ring-overflow drop counts survive the shard merge — a tiny
/// per-track ring must report the same per-track drops whether one scheduler
/// or four shard workers produced the records.
#[test]
fn parallel_tracer_merges_ring_drops() {
    let run = |threads: usize| {
        let cfg = charm_apps::leanmd::LeanMdConfig {
            machine: MachineConfig::homogeneous(8),
            cells_per_dim: 3,
            atoms_per_cell: 40,
            steps: 4,
            threads,
            trace: Some(TraceConfig {
                log_capacity: 8,
                ..Default::default()
            }),
            ..Default::default()
        };
        let (_run, rt) = charm_apps::leanmd::run_with_runtime(cfg);
        assert_eq!(rt.last_run_parallel(), threads > 1);
        let tr = rt.tracer().expect("tracing was enabled");
        (tr.dropped_events(), tr.dropped_by_track())
    };
    let (seq_dropped, seq_by_track) = run(1);
    let (par_dropped, par_by_track) = run(4);
    assert!(seq_dropped > 0, "rings never overflowed — drop test is vacuous");
    assert_eq!(seq_dropped, par_dropped);
    assert_eq!(seq_by_track, par_by_track);
}

#[test]
fn pdes_parallel_matches_sequential() {
    check_matrix("pdes", |seed, threads| {
        let cfg = charm_apps::pdes::PdesConfig {
            machine: MachineConfig::homogeneous(8),
            lps_per_pe: 16,
            initial_events_per_lp: 8,
            windows: 6,
            seed,
            threads,
            trace: Some(TraceConfig::default()),
            ..Default::default()
        };
        let (run, rt) = charm_apps::pdes::run_with_runtime(cfg);
        // PDES reports rates, not per-step times; fold the scalar results in.
        fingerprint(rt, vec![run.time_s, run.events_executed as f64, run.repolls as f64])
    });
}

/// Satellite: the PUP-packed replay log — executed entries in order, with
/// timings, digests, and message routing — must be byte-identical whether
/// it was recorded by the sequential scheduler or the adaptive sharded
/// engine. Recording here uses no periodic digest points
/// (`ReplayConfig::default()`), which is exactly the input the adaptive
/// core takes.
#[test]
fn replay_log_bytes_identical_across_engines() {
    let record = |threads: usize| -> Vec<u8> {
        let cfg = charm_apps::leanmd::LeanMdConfig {
            machine: MachineConfig::homogeneous(8),
            cells_per_dim: 3,
            atoms_per_cell: 40,
            steps: 4,
            threads,
            record: Some(charm_core::ReplayConfig::default()),
            ..Default::default()
        };
        let (_run, mut rt) = charm_apps::leanmd::run_with_runtime(cfg);
        assert_eq!(
            rt.last_run_parallel(),
            threads > 1,
            "threads {threads}: unexpected engine selection"
        );
        let mut log = rt.take_replay_log().expect("recording was enabled");
        charm_pup::to_bytes(&mut log)
    };
    let seq = record(1);
    assert!(!seq.is_empty());
    for threads in [2usize, 4] {
        assert_eq!(
            seq,
            record(threads),
            "threads {threads}: .rlog bytes diverged from sequential"
        );
    }
}
