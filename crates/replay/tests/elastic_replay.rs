//! Record→replay acceptance for elastic runs: a leanmd job driven by the
//! closed-loop controller through a spot preemption reproduces its recording
//! digest-for-digest.

use charm_apps::leanmd::{run_with_runtime, LeanMdConfig};
use charm_core::{ElasticConfig, HysteresisPolicy, ReplayConfig, SimTime};
use charm_replay::{verify, ReplayLog};

/// Probe the failure-free run once for its makespan (seconds).
fn probe_makespan() -> f64 {
    let (run, _rt) = run_with_runtime(LeanMdConfig { steps: 6, ..Default::default() });
    run.total_s
}

fn elastic_cfg(t: f64) -> LeanMdConfig {
    let cadence = SimTime::from_secs_f64(t / 4.0);
    LeanMdConfig {
        steps: 6,
        elastic: Some(ElasticConfig::new(
            cadence,
            Box::new(HysteresisPolicy::new(0.95, 0.5, 2, cadence, 2, 8)),
        )),
        // One spot preemption with ample warning: the controller's world
        // shrinks under it mid-flight, proactively (no rollback).
        preemptions: vec![(
            SimTime::from_secs_f64(0.5 * t),
            5,
            SimTime::from_secs_f64(0.25 * t),
        )],
        record: Some(ReplayConfig::with_digest_every(200)),
        ..Default::default()
    }
}

fn record_elastic(t: f64) -> ReplayLog {
    let (_run, mut rt) = run_with_runtime(elastic_cfg(t));
    assert_eq!(
        rt.metric("evacuations").len(),
        1,
        "the preemption must be survived proactively"
    );
    assert!(rt.metric("restart_time_s").is_empty(), "ample warning: no rollback");
    assert!(!rt.metric("elastic_util").is_empty(), "the controller must have sampled");
    let mut log = rt.take_replay_log().expect("recording was on");
    log.app = "leanmd-elastic".into();
    log
}

#[test]
fn elastic_preemption_record_replay_is_exact() {
    let t = probe_makespan();
    let a = record_elastic(t);
    let b = record_elastic(t);
    let rep = verify(&a, &b);
    assert!(rep.ok(), "{rep}");
    assert!(rep.execs_recorded > 0, "recording captured no executions");
    assert!(!a.final_state.digests.is_empty(), "final state digest is empty");
}
