//! Record→replay acceptance for the mini-apps: a same-seed re-run under the
//! recorder reproduces the recording digest-for-digest — every executed
//! entry, every periodic state-digest point, and the final chare states —
//! including across an injected node failure and restart.

use charm_apps::{leanmd, pdes, stencil};
use charm_core::{ReplayConfig, SimTime};
use charm_machine::presets;
use charm_replay::{load, save, verify, ReplayLog};

fn record_stencil() -> ReplayLog {
    let mut cfg = stencil::StencilConfig::cloud_4k(presets::cloud(8), 2);
    cfg.steps = 6;
    cfg.record = Some(ReplayConfig::with_digest_every(100));
    let (_run, mut rt) = stencil::run_with_runtime(cfg);
    let mut log = rt.take_replay_log().expect("recording was on");
    log.app = "stencil".into();
    log
}

fn record_leanmd(fail: bool) -> (ReplayLog, bool) {
    let mut cfg = leanmd::LeanMdConfig {
        steps: 6,
        ckpt_at: fail.then_some(2),
        record: Some(ReplayConfig::with_digest_every(200)),
        ..Default::default()
    };
    if fail {
        // Probe once to place the failure strictly between the checkpoint
        // and the end of the run.
        let (_p, probe_rt) = leanmd::run_with_runtime(leanmd::LeanMdConfig {
            steps: 6,
            ckpt_at: Some(2),
            ..Default::default()
        });
        let ckpt_t = probe_rt.metric("ckpt_time_s")[0].0;
        let end_t = probe_rt.metric("leanmd_step").last().unwrap().0;
        cfg.failures = vec![(SimTime::from_secs_f64((ckpt_t + end_t) / 2.0), 5)];
    }
    let (_run, mut rt) = leanmd::run_with_runtime(cfg);
    let restarted = !rt.metric("restart_time_s").is_empty();
    let mut log = rt.take_replay_log().expect("recording was on");
    log.app = "leanmd".into();
    (log, restarted)
}

fn record_pdes() -> ReplayLog {
    let cfg = pdes::PdesConfig {
        windows: 8,
        record: Some(ReplayConfig::with_digest_every(500)),
        ..Default::default()
    };
    let (_run, mut rt) = pdes::run_with_runtime(cfg);
    let mut log = rt.take_replay_log().expect("recording was on");
    log.app = "pdes".into();
    log
}

fn assert_replay_exact(a: &ReplayLog, b: &ReplayLog) {
    let rep = verify(a, b);
    assert!(rep.ok(), "{rep}");
    assert!(rep.execs_recorded > 0, "recording captured no executions");
    assert!(
        !a.final_state.digests.is_empty(),
        "final state digest is empty"
    );
}

#[test]
fn stencil_record_replay_is_exact() {
    let a = record_stencil();
    let b = record_stencil();
    assert_replay_exact(&a, &b);
    assert!(a.state_points.len() > 1, "periodic digest points were taken");
}

#[test]
fn leanmd_record_replay_is_exact() {
    let (a, _) = record_leanmd(false);
    let (b, _) = record_leanmd(false);
    assert_replay_exact(&a, &b);
}

#[test]
fn leanmd_record_replay_survives_failure_and_restart() {
    let (a, restarted_a) = record_leanmd(true);
    let (b, restarted_b) = record_leanmd(true);
    assert!(restarted_a && restarted_b, "failure was injected and recovered");
    assert_replay_exact(&a, &b);
    // The restart itself must be in the log (Restarted sys events execute).
    assert!(
        a.entry_names.iter().any(|n| n.contains("Restarted")),
        "log records the restart delivery: {:?}",
        a.entry_names
    );
}

#[test]
fn pdes_record_replay_is_exact() {
    let a = record_pdes();
    let b = record_pdes();
    assert_replay_exact(&a, &b);
}

#[test]
fn log_survives_disk_roundtrip() {
    let a = record_stencil();
    let dir = std::env::temp_dir().join("charm_replay_apps_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stencil.rlog");
    save(&a, &path).unwrap();
    let back = load(&path).unwrap();
    assert_replay_exact(&a, &back);
    assert_eq!(back.app, "stencil");
}
