//! The balancer's measurement window: the loads and the communication a
//! strategy sees in one round come from the same span of the run. Every
//! path that starts a new load window (an LB round, a round the adaptive
//! trigger skips, a failure rollback) must start a new communication
//! window with it, or a comm-aware strategy weighs one window's load
//! against several windows' traffic.

use charm_core::{
    ArrayId, ArrayProxy, Callback, Chare, Ctx, Ix, LbStats, LbTrigger, MachineConfig, RedOp,
    RedValue, Runtime, SimTime, Strategy, SysEvent,
};
use charm_pup::{Pup, Puper};
use std::sync::{Arc, Mutex};

const WORKERS: i64 = 16;
const STEPS: u64 = 10;
const WORK: f64 = 1e5;

/// A step kick from the main chare, or a worker's ring message.
#[derive(Default, Clone)]
struct Tick {
    step: u64,
    ring: bool,
}

impl Pup for Tick {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.ring);
    }
}

/// Each step: compute, send one message to the next worker on the ring,
/// then wait at the sync point; after it, contribute to the step's
/// reduction. Worker 0 does 20x the work from step `heavy_from` on.
#[derive(Default)]
struct Worker {
    step: u64,
    heavy_from: u64,
}

impl Pup for Worker {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.heavy_from);
    }
}

impl Chare for Worker {
    type Msg = Tick;
    fn on_message(&mut self, m: Tick, ctx: &mut Ctx<'_>) {
        if m.ring {
            return;
        }
        self.step = m.step;
        let me = ctx.my_index();
        let heavy = me == Ix::i1(0) && m.step >= self.heavy_from;
        ctx.work(if heavy { 20.0 * WORK } else { WORK });
        let Ix::I1(i) = me else { unreachable!() };
        let workers = ArrayProxy::<Worker>::from_id(ctx.my_id().array);
        let next = Tick {
            step: m.step,
            ring: true,
        };
        ctx.send(workers, Ix::i1((i + 1) % WORKERS), next);
        ctx.at_sync();
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if matches!(ev, SysEvent::ResumeFromSync) {
            let workers = ArrayProxy::<Worker>::from_id(ctx.my_id().array);
            ctx.contribute(
                workers,
                self.step as u32,
                RedValue::I64(1),
                RedOp::Sum,
                Callback::ToChare {
                    array: ArrayId(1),
                    ix: Ix::i1(0),
                },
            );
        }
    }
}

/// Kicks each step, checkpoints after step 3 when asked, and re-kicks the
/// checkpointed step after a restart.
#[derive(Default)]
struct Main {
    step: u64,
    ckpt: bool,
}

impl Pup for Main {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.ckpt);
    }
}

impl Chare for Main {
    type Msg = Tick;
    fn on_message(&mut self, _m: Tick, _ctx: &mut Ctx<'_>) {}

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        let workers = ArrayProxy::<Worker>::from_id(ArrayId(0));
        let kick = |s: &Self| Tick {
            step: s.step,
            ring: false,
        };
        match ev {
            SysEvent::Reduction { .. } => {
                self.step += 1;
                if self.ckpt && self.step == 3 {
                    ctx.start_mem_checkpoint(ctx.cb_self());
                } else if self.step < STEPS {
                    ctx.broadcast(workers, kick(self));
                } else {
                    ctx.exit();
                }
            }
            SysEvent::CheckpointDone | SysEvent::Restarted { .. } => {
                ctx.broadcast(workers, kick(self));
            }
            _ => {}
        }
    }
}

/// A comm-aware strategy that moves nothing and logs, per round, the bytes
/// of traffic it was shown.
struct Spy {
    rounds: Arc<Mutex<Vec<u64>>>,
}

impl Strategy for Spy {
    fn name(&self) -> &'static str {
        "Spy"
    }
    fn wants_comm(&self) -> bool {
        true
    }
    fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
        let bytes = stats.comm.iter().map(|&(_, _, b)| b).sum();
        self.rounds.lock().unwrap().push(bytes);
        vec![None; stats.objs.len()]
    }
}

/// Run the ring on 8 PEs; returns the runtime and the spy's per-round
/// traffic totals.
fn ring_run(
    trigger: LbTrigger,
    heavy_from: u64,
    ckpt: bool,
    fail_at: Option<SimTime>,
) -> (Runtime, Vec<u64>) {
    let rounds = Arc::new(Mutex::new(Vec::new()));
    let mut rt = Runtime::builder(MachineConfig::homogeneous(8))
        .strategy(Box::new(Spy {
            rounds: Arc::clone(&rounds),
        }))
        .lb_trigger(trigger)
        .build();
    let workers = rt.create_array::<Worker>("workers");
    let main = rt.create_array::<Main>("main");
    rt.set_at_sync(workers, true);
    for i in 0..WORKERS {
        let w = Worker {
            step: 0,
            heavy_from,
        };
        rt.insert(workers, Ix::i1(i), w, None);
    }
    rt.insert(main, Ix::i1(0), Main { step: 0, ckpt }, Some(0));
    rt.broadcast(workers, Tick::default());
    if let Some(at) = fail_at {
        rt.schedule_failure(at, 5);
    }
    rt.run();
    let rounds = rounds.lock().unwrap().clone();
    (rt, rounds)
}

/// The traffic of one step, as every round of a failure-free run sees it.
fn one_step_bytes() -> u64 {
    let (_, rounds) = ring_run(LbTrigger::AtSync, u64::MAX, true, None);
    assert_eq!(rounds.len(), STEPS as usize, "a round per step");
    assert!(rounds[0] > 0, "the ring's traffic reaches the strategy");
    assert!(rounds.iter().all(|&b| b == rounds[0]), "{rounds:?}");
    rounds[0]
}

/// A rollback restores every chare with zero load, so the traffic sent
/// before the failure must not reach the first round after the restart.
/// The failure lands at 60 evenly spaced times between the checkpoint's
/// commit and the end of the run.
#[test]
fn rollback_starts_a_fresh_comm_window() {
    let one = one_step_bytes();
    let (probe, _) = ring_run(LbTrigger::AtSync, u64::MAX, true, None);
    let committed = (probe.metric("ckpt_committed")[0].0 * 1e9) as u64;
    let end = probe.now().as_nanos();
    let mut restarted = 0;
    for k in 1..=60u64 {
        let at = committed + (end - committed) * k / 61;
        let (rt, rounds) = ring_run(LbTrigger::AtSync, u64::MAX, true, Some(SimTime::from_nanos(at)));
        restarted += rt.metric("restart_time_s").len();
        assert!(
            rounds.iter().all(|&b| b == one),
            "failure at {at} ns: rounds saw {rounds:?} bytes, one step is {one}"
        );
    }
    assert_eq!(restarted, 60, "every failure was recovered");
}

/// A round the adaptive trigger skips resets the loads, so it must drop
/// the traffic too: the first round that runs (worker 0 turns heavy at
/// step 5) sees one step of traffic, not six.
#[test]
fn skipped_round_starts_a_fresh_comm_window() {
    let one = one_step_bytes();
    let adaptive = LbTrigger::Adaptive { min_imbalance: 2.0 };
    let (_, rounds) = ring_run(adaptive, 5, false, None);
    assert_eq!(rounds.len(), (STEPS - 5) as usize, "rounds run from step 5 on: {rounds:?}");
    assert!(
        rounds.iter().all(|&b| b == one),
        "rounds saw {rounds:?} bytes, one step is {one}"
    );
}
