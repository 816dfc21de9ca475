//! Seeded regression tests for the charm-kv service under a drifting
//! hotspot: load balancing must improve tail latency at every offered
//! load, an observe-only elastic controller must be free, TRAM must serve
//! the same traffic over different messages, an autoscaler that mistakes
//! imbalance for idleness must cost more, and a mid-traffic
//! checkpoint/restart must lose no acknowledged PUT.

use charm_apps::kv::{self, KvConfig, KvRun};
use charm_apps::strategy_by_name;
use charm_core::{ElasticConfig, HysteresisPolicy, Runtime, SimTime};
use charm_machine::presets;
use charm_tram::TramConfig;

/// A drifting-hotspot scenario: blocked placement concentrates the
/// Zipf-hot shard region on two of eight PEs, and the region moves every
/// few drift periods, so only periodic measurement-based LB keeps the tail
/// down. `offered_load` is the fraction of aggregate service capacity.
fn hotspot_config(offered_load: f64, requests_per_client: u64) -> KvConfig {
    let mut c = KvConfig::service(presets::cloud(8), requests_per_client);
    c.offered_load = offered_load;
    c.zipf_s = 1.2;
    c.seed = 7;
    c
}

/// Periodic greedy LB rounds every 10 ms, chasing the hotspot.
fn balanced(mut c: KvConfig) -> KvConfig {
    c.strategy = strategy_by_name("greedy");
    c.lb_period = Some(SimTime::from_millis(10));
    c
}

/// Runs the service and checks what every run owes: all traffic served,
/// percentiles in order, no acknowledged PUT lost.
fn serve(c: KvConfig) -> (KvRun, Runtime) {
    let requests = c.clients as u64 * c.requests_per_client;
    let (run, rt) = kv::run_with_runtime(c);
    assert!(run.unrecoverable.is_none(), "{:?}", run.unrecoverable);
    assert_eq!(run.acked, requests, "every request must be acked");
    assert!(run.p50_s <= run.p99_s && run.p99_s <= run.p999_s, "percentiles unordered");
    kv::verify_acked_puts(&rt).expect("no acknowledged PUT may be lost");
    (run, rt)
}

#[test]
fn lb_improves_tail_latency_under_moving_hotspot() {
    for load in [0.45, 0.65, 0.75, 0.85] {
        let base = serve(hotspot_config(load, 300)).0;
        let lb = serve(balanced(hotspot_config(load, 300))).0;
        assert!(lb.lb_rounds > 0 && lb.migrations > 0, "load {load}: LB moved nothing");
        // The median barely moves (most requests hit cold shards); the win
        // is in the tail, which is the SLO story this service exists to
        // tell.
        assert!(
            lb.p99_s < base.p99_s && lb.p999_s < base.p999_s,
            "load {load}: LB should cut p99 and p999: lb-on {:.6}/{:.6} s vs lb-off {:.6}/{:.6} s",
            lb.p99_s,
            lb.p999_s,
            base.p99_s,
            base.p999_s
        );
    }
}

/// A controller in the loop that samples every 25 ms but never acts must
/// leave the service's timeline and latency histogram untouched, at every
/// load, with LB off and on.
#[test]
fn observe_only_control_is_free() {
    for (load, lb) in [0.45, 0.65, 0.75, 0.85].map(|l| [(l, false), (l, true)]).concat() {
        let cfg = || match lb {
            true => balanced(hotspot_config(load, 120)),
            false => hotspot_config(load, 120),
        };
        let plain = serve(cfg()).0;
        let mut observed = cfg();
        observed.elastic = Some(ElasticConfig::observe_only(SimTime::from_millis(25)));
        let observed = serve(observed).0;
        assert_eq!(
            (observed.reconfigures, observed.duration_s, observed.latency.counts()),
            (0, plain.duration_s, plain.latency.counts()),
            "load {load} lb {lb}: observing changed the service"
        );
    }
}

/// TRAM aggregation routes every request over the mesh: the same traffic
/// is acked over a different message count (batches save payload
/// messages, intermediate hops add deliveries; no direction is pinned).
#[test]
fn tram_serves_everything_over_different_messages() {
    let direct = serve(balanced(hotspot_config(0.75, 120))).0;
    let mut c = balanced(hotspot_config(0.75, 120));
    c.tram = Some(TramConfig {
        ndims: 2,
        flush_threshold: 8,
        flush_interval: Some(SimTime::from_micros(200)),
    });
    let tram = serve(c).0;
    assert_eq!(tram.acked, direct.acked);
    assert_ne!(tram.messages, direct.messages, "TRAM routed nothing differently");
}

/// Pins today's mis-scaling: under imbalance an acting autoscaler (shrink
/// threshold above the imbalance-induced idle level, cooldown shorter than
/// the reconfigure blackout) mistakes imbalance for idleness, shrinks into
/// the hotspot and pays twice, on p99 and on rented PE-seconds. Balance
/// first, then autoscale: ROADMAP item 10(b), a policy that sees
/// imbalance, is the change that should flip this test.
#[test]
fn autoscaling_an_unbalanced_service_costs_more() {
    let (base, base_rt) = serve(hotspot_config(0.75, 120));
    let mut c = hotspot_config(0.75, 120);
    let policy = HysteresisPolicy::new(0.85, 0.45, 2, SimTime::from_millis(200), 4, 8);
    c.elastic = Some(ElasticConfig::new(SimTime::from_millis(25), Box::new(policy)));
    let (thrash, rt) = serve(c);
    assert!(thrash.reconfigures > 0, "the autoscaler never acted");
    let (pe_s, base_pe_s) = (rt.pe_seconds(thrash.duration_s), base_rt.pe_seconds(base.duration_s));
    assert!(
        thrash.p99_s > base.p99_s && pe_s > base_pe_s,
        "mis-scaling costs on both axes: p99 {:.6} vs {:.6} s, {pe_s:.3} vs {base_pe_s:.3} PE-s",
        thrash.p99_s,
        base.p99_s
    );
}

#[test]
fn checkpoint_restart_loses_no_acked_put() {
    // Probe run: how long does undisturbed traffic take?
    let probe = kv::run(hotspot_config(0.75, 200));
    assert!(probe.acked > 0);
    let makespan = probe.duration_s;

    // Now checkpoint periodically and kill a hot PE mid-traffic.
    let mut cfg = hotspot_config(0.75, 200);
    cfg.put_fraction = 0.4; // more PUTs → more durability surface
    cfg.auto_ckpt = Some(SimTime::from_secs_f64(makespan * 0.15));
    cfg.failures = vec![(SimTime::from_secs_f64(makespan * 0.45), 1)];
    let (run, rt) = serve(cfg);
    assert!(run.rollbacks >= 1, "failure never triggered a rollback");
    // Retries are how purged in-flight requests survive the rollback; a
    // failure mid-traffic should exercise that path.
    assert!(run.retries > 0, "restart should have re-driven some requests");
    let checked = kv::verify_acked_puts(&rt).expect("no acknowledged PUT may be lost");
    assert!(checked > 0, "invariant vacuous: no acked PUTs recorded");
}

#[test]
fn survives_preemption_with_elastic_controller() {
    let probe = kv::run(hotspot_config(0.75, 150));
    let makespan = probe.duration_s;

    let mut cfg = hotspot_config(0.75, 150);
    cfg.auto_ckpt = Some(SimTime::from_secs_f64(makespan * 0.2));
    cfg.elastic = Some(ElasticConfig::new(
        SimTime::from_secs_f64(makespan * 0.25),
        Box::new(HysteresisPolicy::new(0.9, 0.3, 2, SimTime::ZERO, 4, 8)),
    ));
    cfg.preemptions = vec![(
        SimTime::from_secs_f64(makespan * 0.5),
        6,
        SimTime::from_millis(2),
    )];
    // Survived: every request acked, no acknowledged PUT lost.
    serve(cfg);
}

#[test]
fn same_seed_same_service() {
    let mk = || {
        let mut c = hotspot_config(0.75, 120);
        c.strategy = strategy_by_name("greedy");
        c.lb_period = Some(SimTime::from_millis(10));
        c
    };
    let a = kv::run(mk());
    let b = kv::run(mk());
    assert_eq!(a.store_digest, b.store_digest);
    assert_eq!(a.state_digest, b.state_digest);
    assert_eq!(a.acked, b.acked);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.latency.counts(), b.latency.counts());
    assert_eq!(a.p99_series, b.p99_series);

    // A different seed is a different universe.
    let mut c = hotspot_config(0.75, 120);
    c.seed = 8;
    let other = kv::run(c);
    assert_ne!(a.store_digest, other.store_digest);
}
