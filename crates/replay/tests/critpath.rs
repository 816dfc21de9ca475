//! The exact critical path of a recorded run — the one critical-path
//! implementation — on a real app and on two micro-apps:
//!
//! * the decomposition telescopes — `Σ dur + Σ wait` over the chain equals
//!   the latest execution's end time to the nanosecond,
//! * the path never exceeds the recorded makespan, and equals it on a
//!   serial chain, where every execution and every hop lies on the path.

use charm_apps::stencil;
use charm_core::{
    ArrayProxy, Chare, Ctx, Ix, MachineConfig, ReplayConfig, ReplayLog, Runtime, SysEvent,
};
use charm_machine::presets;
use charm_pup::{Pup, Puper};
use charm_replay::{critical_path, CritPath};

/// The exact path of `log`, checked to telescope.
fn exact(log: &ReplayLog) -> CritPath {
    let cp = critical_path(log).expect("executions recorded");
    let dur: u64 = cp.segments.iter().map(|s| s.dur_ns).sum();
    let wait: u64 = cp.segments.iter().map(|s| s.wait_ns).sum();
    assert_eq!(wait, cp.wait_ns);
    assert_eq!(
        dur + wait,
        cp.len_ns,
        "the chain accounts for the whole path"
    );
    cp
}

#[test]
fn exact_path_telescopes_within_makespan() {
    let mut cfg = stencil::StencilConfig::cloud_4k(presets::cloud(8), 2);
    cfg.steps = 4;
    cfg.record = Some(ReplayConfig::default());
    let (_run, mut rt) = stencil::run_with_runtime(cfg);
    let log = rt.take_replay_log().expect("recording was on");
    let cp = exact(&log);
    assert!(cp.segments.len() > 1);
    assert!(!cp.by_entry.is_empty());
    assert!(
        cp.len_ns <= log.end_ns,
        "path {} > makespan {}",
        cp.len_ns,
        log.end_ns
    );
    assert!(
        cp.len_ns * 10 >= log.end_ns * 5,
        "path under half the makespan"
    );
}

/// A strict pipeline: element i runs once, then messages element i+1.
/// Exactly one message is ever in flight, so *every* execution and every
/// message latency lies on the critical path.
#[derive(Default)]
struct Chain {
    n: i64,
    arr: ArrayProxy<Chain>,
}

impl Pup for Chain {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.n, self.arr);
    }
}

impl Chare for Chain {
    type Msg = i64;
    fn on_message(&mut self, me: i64, ctx: &mut Ctx<'_>) {
        ctx.work(20_000.0 * (1.0 + (me % 5) as f64));
        if me + 1 < self.n {
            ctx.send(self.arr, Ix::i1(me + 1), me + 1);
        }
    }
    fn on_event(&mut self, _ev: SysEvent, _ctx: &mut Ctx<'_>) {}
}

#[test]
fn serial_chain_path_is_the_makespan() {
    let mut rt = Runtime::builder(MachineConfig::homogeneous(4))
        .seed(9)
        .record(ReplayConfig::default())
        .build();
    let arr = rt.create_array::<Chain>("chain");
    let n = 24i64;
    for i in 0..n {
        rt.insert(arr, Ix::i1(i), Chain { n, arr }, Some(i as usize % 4));
    }
    rt.send(arr, Ix::i1(0), 0);
    let summary = rt.run();
    let cp = exact(&rt.take_replay_log().expect("recording was on"));
    assert_eq!(cp.segments.len(), n as usize, "every hop is on the path");
    assert_eq!(
        cp.len_ns,
        summary.end_time.as_nanos(),
        "a serial chain's critical path IS the makespan"
    );
    assert!(cp.wait_ns > 0, "hop latency must be attributed");
}

/// A ring with several messages in flight: six elements on four PEs, each
/// hop forwarding to the next element until it has run `limit` times.
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
        if self.hops < self.limit {
            ctx.send(self.arr, Ix::i1((me + 1) % self.n), me);
        }
    }
    fn on_event(&mut self, _ev: SysEvent, _ctx: &mut Ctx<'_>) {}
}

#[test]
fn exact_path_never_exceeds_makespan() {
    for seed in [1u64, 5, 23] {
        let mut rt = Runtime::builder(MachineConfig::homogeneous(4))
            .seed(seed)
            .record(ReplayConfig::default())
            .build();
        let arr = rt.create_array::<Hopper>("hopper");
        let n = 6i64;
        for i in 0..n {
            rt.insert(
                arr,
                Ix::i1(i),
                Hopper {
                    hops: 0,
                    limit: 40,
                    n,
                    arr,
                },
                Some(i as usize % 4),
            );
        }
        for i in 0..n {
            rt.send(arr, Ix::i1(i), i);
        }
        let summary = rt.run();
        let cp = exact(&rt.take_replay_log().expect("recording was on"));
        assert!(
            cp.len_ns <= summary.end_time.as_nanos(),
            "seed {seed}: path {} > makespan {}",
            cp.len_ns,
            summary.end_time.as_nanos()
        );
        assert!(cp.len_ns > 0);
    }
}
