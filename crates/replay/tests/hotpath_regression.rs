//! Hot-path regression net: same-seed stencil / LeanMD / PDES (direct and
//! through TRAM) / charm-kv (periodic load balancing) runs must
//! reproduce the committed golden replay logs *byte for byte* — every
//! executed entry, every consumed-message digest, every periodic state
//! point, the final chare-state digests, and the virtual end time.
//!
//! The golden logs under `tests/golden/` were recorded **before** the PR 4
//! scheduler optimizations (SipHash maps, no dense-index store, per-event
//! heap pops, binary-heap event queue, plain boxing). Today's engine —
//! calendar queue, arena-recycled payloads, envelopes in a slab — replays
//! them exactly, which is the proof that the perf work changed nothing
//! observable: the recording made on the old hot path is the oracle, so no
//! second hot path is kept to compare against.
//!
//! To re-bless after an *intentional* semantic change (new message, changed
//! cost model, …):
//!
//! ```text
//! CHARM_BLESS_GOLDEN=1 cargo test -p charm-replay --test hotpath_regression
//! ```

use charm_apps::kv::{self, KvConfig};
use charm_apps::{leanmd, pdes, stencil, strategy_by_name};
use charm_core::{ReplayConfig, SimTime};
use charm_machine::presets;
use charm_replay::{load, verify, ReplayLog};
use std::path::PathBuf;

#[path = "support/v1.rs"]
mod v1;

fn golden_path(app: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{app}.rlog"))
}

fn blessing() -> bool {
    std::env::var("CHARM_BLESS_GOLDEN").is_ok()
}

/// Compare a fresh recording against the committed golden log: first
/// digest-for-digest (good diagnostics on divergence), then byte-for-byte:
/// the fresh log's v1 encoding against the committed v1 file (catches
/// anything verify() doesn't model).
fn check_against_golden(app: &str, mut log: ReplayLog) {
    log.app = app.to_string();
    let path = golden_path(app);
    if blessing() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, v1::v1_file(&log)).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = load(&path).unwrap_or_else(|e| {
        panic!(
            "missing/corrupt golden log {} ({e:?}); run with CHARM_BLESS_GOLDEN=1 to create",
            path.display()
        )
    });
    let report = verify(&golden, &log);
    assert!(
        report.ok(),
        "{app}: engine behavior diverged from the pre-optimization recording:\n{report}"
    );
    assert!(report.execs_recorded > 0, "{app}: golden log is empty");
    assert!(
        !log.final_state.digests.is_empty(),
        "{app}: no final state digests"
    );
    assert!(
        v1::v1_file(&log) == std::fs::read(&path).unwrap(),
        "{app}: the replay log's v1 encoding is not byte-identical to the golden log"
    );
}

#[test]
fn stencil_matches_pre_optimization_golden() {
    let mut cfg = stencil::StencilConfig::cloud_4k(presets::cloud(8), 2);
    cfg.steps = 5;
    cfg.record = Some(ReplayConfig::with_digest_every(64));
    let (_run, mut rt) = stencil::run_with_runtime(cfg);
    check_against_golden("stencil", rt.take_replay_log().expect("recording on"));
}

#[test]
fn leanmd_matches_pre_optimization_golden() {
    let cfg = leanmd::LeanMdConfig {
        cells_per_dim: 3,
        atoms_per_cell: 20,
        steps: 3,
        record: Some(ReplayConfig::with_digest_every(128)),
        ..Default::default()
    };
    let (_run, mut rt) = leanmd::run_with_runtime(cfg);
    check_against_golden("leanmd", rt.take_replay_log().expect("recording on"));
}

#[test]
fn pdes_matches_pre_optimization_golden() {
    let cfg = pdes::PdesConfig {
        machine: charm_core::MachineConfig::homogeneous(8),
        lps_per_pe: 8,
        initial_events_per_lp: 8,
        windows: 4,
        record: Some(ReplayConfig::with_digest_every(256)),
        ..Default::default()
    };
    let (_run, mut rt) = pdes::run_with_runtime(cfg);
    check_against_golden("pdes", rt.take_replay_log().expect("recording on"));
}

/// PDES with its events routed and aggregated by TRAM: every batch's
/// packed size and payload digest is in the log, so this pins TRAM's wire
/// bytes as well as its schedule.
#[test]
fn pdes_tram_matches_pre_optimization_golden() {
    let mut cfg = pdes::PdesConfig {
        machine: charm_core::MachineConfig::homogeneous(8),
        lps_per_pe: 4,
        initial_events_per_lp: 8,
        windows: 3,
        tram: Some(Default::default()),
        record: Some(ReplayConfig::with_digest_every(256)),
        ..Default::default()
    };
    // Flush often, or the protocol's re-polls wait out each 500 µs tick.
    cfg.tram.as_mut().expect("set above").flush_interval = Some(SimTime::from_micros(30));
    let (_run, mut rt) = pdes::run_with_runtime(cfg);
    check_against_golden("pdes_tram", rt.take_replay_log().expect("recording on"));
}

/// The charm-kv service under RTS-triggered periodic load balancing
/// (`kv_replay.rs`'s service config): every periodic tick's `(time, key)`
/// and every balancer decision and element move sit in this log, so it pins
/// the tick chain and the LB enactment path.
#[test]
fn kv_lb_matches_pre_optimization_golden() {
    let mut cfg = KvConfig::service(presets::cloud(4), 80);
    cfg.clients = 4;
    cfg.offered_load = 0.7;
    cfg.zipf_s = 1.1;
    cfg.strategy = strategy_by_name("greedy");
    cfg.lb_period = Some(SimTime::from_millis(10));
    cfg.seed = 13;
    cfg.record = Some(ReplayConfig::with_digest_every(200));
    let (_run, mut rt) = kv::run_with_runtime(cfg);
    check_against_golden("kv_lb", rt.take_replay_log().expect("recording on"));
}

/// The recorder derives each consumed message's sender from its own
/// per-message bookkeeping rather than from the envelope, so switching it
/// on must leave the run itself untouched: same final chare states, same
/// event count, same virtual end time.
#[test]
fn recording_on_and_off_reach_identical_states() {
    fn observe(mut rt: charm_core::Runtime) -> (Vec<(charm_core::ObjId, u64)>, u64, u64) {
        let s = rt.summary();
        (rt.state_digest(), s.events, s.end_time.as_nanos())
    }
    let stencil = |record| {
        let mut cfg = stencil::StencilConfig::cloud_4k(presets::cloud(8), 2);
        cfg.steps = 5;
        cfg.record = record;
        observe(stencil::run_with_runtime(cfg).1)
    };
    let leanmd = |record| {
        let cfg = leanmd::LeanMdConfig {
            cells_per_dim: 3,
            atoms_per_cell: 20,
            steps: 3,
            record,
            ..Default::default()
        };
        observe(leanmd::run_with_runtime(cfg).1)
    };
    let pdes = |record| {
        let cfg = pdes::PdesConfig {
            machine: charm_core::MachineConfig::homogeneous(8),
            lps_per_pe: 8,
            initial_events_per_lp: 8,
            windows: 4,
            record,
            ..Default::default()
        };
        observe(pdes::run_with_runtime(cfg).1)
    };
    let on = || Some(ReplayConfig::with_digest_every(64));
    assert_eq!(stencil(None), stencil(on()), "stencil");
    assert_eq!(leanmd(None), leanmd(on()), "leanmd");
    assert_eq!(pdes(None), pdes(on()), "pdes");
}
