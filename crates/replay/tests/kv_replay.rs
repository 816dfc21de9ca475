//! Record→replay acceptance for the charm-kv service: same seed → the
//! recorded `.rlog` is byte-identical across runs (and so is the trace
//! export), and a capped recording is an exact prefix of the uncapped one
//! with the shed visible in the run summary.

use charm_apps::kv::{self, KvConfig};
use charm_apps::strategy_by_name;
use charm_core::{ReplayConfig, Runtime, SimTime, TraceConfig};
use charm_machine::presets;
use charm_replay::{verify, ReplayLog};

fn service_config() -> KvConfig {
    let mut c = KvConfig::service(presets::cloud(4), 80);
    c.clients = 4;
    c.offered_load = 0.7;
    c.zipf_s = 1.1;
    c.strategy = strategy_by_name("greedy");
    c.lb_period = Some(SimTime::from_millis(10));
    c.seed = 13;
    c
}

fn record(cfg_record: ReplayConfig, trace: bool) -> (ReplayLog, kv::KvRun, Runtime) {
    let mut cfg = service_config();
    cfg.record = Some(cfg_record);
    if trace {
        cfg.trace = Some(TraceConfig::default());
    }
    let (run, mut rt) = kv::run_with_runtime(cfg);
    let mut log = rt.take_replay_log().expect("recording was on");
    log.app = "kv".into();
    (log, run, rt)
}

#[test]
fn kv_recording_is_byte_identical_across_runs() {
    let (a, run_a, rt_a) = record(ReplayConfig::with_digest_every(200), true);
    let (b, run_b, rt_b) = record(ReplayConfig::with_digest_every(200), true);

    // Semantic equality first (better diagnostics on failure)...
    let rep = verify(&a, &b);
    assert!(rep.ok(), "{rep}");
    assert!(rep.execs_recorded > 0);
    assert!(a.state_points.len() > 1, "periodic digest points were taken");

    // ...then the hard pin: the wire bytes themselves.
    let v2 = |log: &ReplayLog| {
        let mut out = Vec::new();
        log.write_v2(&mut out).unwrap();
        out
    };
    assert_eq!(
        v2(&a),
        v2(&b),
        "same seed must produce a byte-identical .rlog"
    );
    assert_eq!(run_a.store_digest, run_b.store_digest);
    assert_eq!(run_a.state_digest, run_b.state_digest);

    // The trace stream is deterministic too.
    let ta = rt_a.trace_chrome_json().expect("tracing was on");
    let tb = rt_b.trace_chrome_json().expect("tracing was on");
    assert_eq!(ta.into_bytes(), tb.into_bytes(), "trace bytes must match");
}

#[test]
fn capped_kv_recording_is_a_prefix_with_visible_shed() {
    let (full, _, _) = record(ReplayConfig::with_digest_every(200), false);
    assert!(
        full.execs.len() > 500,
        "need a long enough run to cap ({} execs)",
        full.execs.len()
    );

    let cap = 400u64;
    let mut cfg = service_config();
    cfg.record = Some(ReplayConfig {
        digest_every: Some(200),
        max_execs: Some(cap),
    });
    let (run, mut rt) = kv::run_with_runtime(cfg);
    let summary = rt.summary();
    let capped = rt.take_replay_log().expect("recording was on");

    // The cap bounds the in-memory log and the shed is visible.
    assert_eq!(capped.execs.len() as u64, cap);
    assert_eq!(
        summary.replay_shed_execs,
        full.execs.len() as u64 - cap,
        "every exec past the cap is counted as shed"
    );
    assert!(summary.replay_shed_sends > 0, "root sends past the cap shed too");
    assert_eq!(run.unrecoverable, None);

    // What was kept is exactly the prefix of the unbounded recording: the
    // same records, chares and sends.
    let pairs = capped.execs.iter().zip(full.execs.iter());
    for (i, ((c, c_sends), (f, f_sends))) in pairs.enumerate() {
        assert_eq!(c, f, "exec {i} diverges between capped and full logs");
        assert_eq!(capped.chare(c.dst), full.chare(f.dst), "exec {i} ran elsewhere");
        assert_eq!(capped.msg_src(&c), full.msg_src(&f), "exec {i} consumed another send");
        assert!(c_sends.eq(f_sends), "exec {i} sent otherwise");
    }
}

#[test]
fn uncapped_kv_summary_reports_no_shed() {
    let mut cfg = service_config();
    cfg.requests_per_client = 30;
    cfg.record = Some(ReplayConfig::with_digest_every(500));
    let (_, rt) = kv::run_with_runtime(cfg);
    let summary = rt.summary();
    assert_eq!(summary.replay_shed_execs, 0);
    assert_eq!(summary.replay_shed_sends, 0);
}
