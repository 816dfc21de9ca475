//! End-to-end: an imbalanced iterative application on the runtime, balanced
//! through the AtSync protocol — total time must drop vs. the NoLB run
//! (the shape behind Figs. 8, 9, 12).

use charm_core::{
    Callback, Chare, Ctx, Ix, LbTrigger, RedOp, RedValue, Runtime, Strategy, SysEvent,
};
use charm_lb::{DistributedLb, GreedyCommLb, GreedyLb, HybridLb, RefineLb};
use charm_pup::{Pup, Puper, SyntheticBlob};

const STEPS: u64 = 12;
const LB_EVERY: u64 = 3;
const NUM_OBJS: i64 = 64;

/// Worker with intrinsically skewed per-step cost; every LB_EVERY steps it
/// goes to AtSync instead of contributing directly.
#[derive(Default)]
struct Skew {
    step: u64,
    weight: f64,
}

impl Pup for Skew {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.step);
        p.p(&mut self.weight);
    }
}

#[derive(Default, Clone)]
struct Go;
impl Pup for Go {
    fn pup(&mut self, _p: &mut Puper) {}
}

impl Chare for Skew {
    type Msg = Go;
    fn on_message(&mut self, _m: Go, ctx: &mut Ctx<'_>) {
        self.step += 1;
        ctx.work(self.weight * 1e6);
        if self.step.is_multiple_of(LB_EVERY) {
            ctx.at_sync();
        } else {
            self.finish_step(ctx);
        }
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if matches!(ev, SysEvent::ResumeFromSync) {
            self.finish_step(ctx);
        }
    }
}

impl Skew {
    fn finish_step(&mut self, ctx: &mut Ctx<'_>) {
        let me = charm_core::ArrayProxy::<Skew>::from_id(ctx.my_id().array);
        ctx.contribute(
            me,
            self.step as u32,
            RedValue::I64(1),
            RedOp::Sum,
            Callback::ToChare {
                array: charm_core::ArrayId(1),
                ix: Ix::i1(0),
            },
        );
    }
}

#[derive(Default)]
struct Driver {
    step: u64,
}
impl Pup for Driver {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.step);
    }
}
impl Chare for Driver {
    type Msg = Go;
    fn on_message(&mut self, _m: Go, _ctx: &mut Ctx<'_>) {}
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Reduction { .. } = ev {
            self.step += 1;
            ctx.log_metric("step_t", ctx.now().as_secs_f64());
            let workers = charm_core::ArrayProxy::<Skew>::from_id(charm_core::ArrayId(0));
            if self.step < STEPS {
                ctx.broadcast(workers, Go);
            } else {
                ctx.exit();
            }
        }
    }
}

fn run_with(strategy: Option<Box<dyn Strategy>>) -> (f64, usize) {
    let mut b = Runtime::builder(charm_core::MachineConfig::homogeneous(8));
    if let Some(s) = strategy {
        b = b.strategy(s).lb_trigger(LbTrigger::AtSync);
    }
    let mut rt = b.build();
    let workers = rt.create_array::<Skew>("workers");
    let driver = rt.create_array::<Driver>("driver");
    rt.set_at_sync(workers, true);
    for i in 0..NUM_OBJS {
        // Badly skewed: clustered placement of heavy objects.
        let weight = if i < 8 { 20.0 } else { 1.0 };
        rt.insert(workers, Ix::i1(i), Skew { step: 0, weight }, Some((i % 2) as usize));
    }
    rt.insert(driver, Ix::i1(0), Driver::default(), Some(0));
    rt.broadcast(workers, Go);
    rt.run();
    let t = rt
        .metric("step_t")
        .last()
        .expect("driver finished all steps")
        .0;
    (t, rt.lb_rounds().len())
}

#[test]
fn greedy_lb_speeds_up_imbalanced_app() {
    let (t_nolb, rounds_nolb) = run_with(None);
    assert_eq!(rounds_nolb, 0);
    let (t_lb, rounds_lb) = run_with(Some(Box::new(GreedyLb)));
    assert!(rounds_lb >= 1, "LB rounds must have run");
    assert!(
        t_lb < t_nolb * 0.55,
        "LB should cut total time substantially: NoLB={t_nolb:.4}s LB={t_lb:.4}s"
    );
}

#[test]
fn all_real_strategies_beat_nolb() {
    let (t_nolb, _) = run_with(None);
    for (name, s) in [
        ("greedy", Box::new(GreedyLb) as Box<dyn Strategy>),
        ("refine", Box::new(RefineLb::default())),
        ("hybrid", Box::new(HybridLb::default())),
        ("distributed", Box::new(DistributedLb::default())),
    ] {
        let (t, rounds) = run_with(Some(s));
        assert!(rounds >= 1, "{name}: no LB rounds ran");
        assert!(
            t < t_nolb,
            "{name} should beat NoLB: {t:.4}s vs {t_nolb:.4}s"
        );
    }
}

#[test]
fn lb_round_bookkeeping_is_recorded() {
    let mut b = Runtime::builder(charm_core::MachineConfig::homogeneous(4));
    b = b.strategy(Box::new(GreedyLb));
    let mut rt = b.build();
    let workers = rt.create_array::<Skew>("workers");
    let driver = rt.create_array::<Driver>("driver");
    rt.set_at_sync(workers, true);
    for i in 0..16 {
        rt.insert(workers, Ix::i1(i), Skew { step: 0, weight: (i % 5) as f64 + 1.0 }, Some(0));
    }
    rt.insert(driver, Ix::i1(0), Driver::default(), Some(0));
    rt.broadcast(workers, Go);
    rt.run();
    let rounds = rt.lb_rounds();
    assert!(!rounds.is_empty());
    for r in rounds {
        assert_eq!(r.strategy, "GreedyLB");
        assert!(r.cost_s > 0.0, "LB rounds cost time");
        assert!(r.imbalance_after <= r.imbalance_before * 1.01 + 0.05);
    }
}

#[test]
fn adaptive_trigger_skips_balanced_phases() {
    // With MetaLB-style triggering and an already balanced app, the
    // balancer should not run at all.
    let mut b = Runtime::builder(charm_core::MachineConfig::homogeneous(4));
    b = b
        .strategy(Box::new(GreedyLb))
        .lb_trigger(LbTrigger::Adaptive { min_imbalance: 1.5 });
    let mut rt = b.build();
    let workers = rt.create_array::<Skew>("workers");
    let driver = rt.create_array::<Driver>("driver");
    rt.set_at_sync(workers, true);
    for i in 0..16 {
        rt.insert(workers, Ix::i1(i), Skew { step: 0, weight: 1.0 }, Some((i % 4) as usize));
    }
    rt.insert(driver, Ix::i1(0), Driver::default(), Some(0));
    rt.broadcast(workers, Go);
    rt.run();
    assert_eq!(rt.lb_rounds().len(), 0, "balanced app must skip LB");
}

/// One of a pair that trades a heavy message and then waits at AtSync.
#[derive(Default)]
struct Chatter {
    peer: i64,
}

impl Pup for Chatter {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.peer);
    }
}

impl Chare for Chatter {
    /// Empty: the kick that starts the exchange; otherwise the peer's data.
    type Msg = SyntheticBlob;
    fn on_message(&mut self, m: SyntheticBlob, ctx: &mut Ctx<'_>) {
        ctx.work(1e3);
        if m.is_empty() {
            let me = charm_core::ArrayProxy::<Chatter>::from_id(ctx.my_id().array);
            ctx.send(me, Ix::i1(self.peer), SyntheticBlob::new(1 << 16));
            ctx.at_sync();
        }
    }
}

/// Installing `GreedyCommLb` is the whole setup: the runtime records the
/// pair's traffic because the strategy asks for it, and the balancer puts
/// the two equally loaded chares on one PE after one round.
#[test]
fn greedy_comm_lb_colocates_a_chatty_pair() {
    let mut rt = Runtime::builder(charm_core::MachineConfig::homogeneous(2))
        .strategy(Box::new(GreedyCommLb::default()))
        .build();
    let pair = rt.create_array::<Chatter>("pair");
    rt.set_at_sync(pair, true);
    for i in 0..2 {
        rt.insert(pair, Ix::i1(i), Chatter { peer: 1 - i }, Some(i as usize));
    }
    rt.broadcast(pair, SyntheticBlob::new(0));
    rt.run();
    assert_eq!(rt.lb_rounds().len(), 1, "one AtSync round ran");
    let pes: Vec<_> = (0..2).map(|i| rt.element_pe(pair.id(), &Ix::i1(i))).collect();
    assert_eq!(pes[0], pes[1], "the chatty pair shares a PE: {pes:?}");
}
