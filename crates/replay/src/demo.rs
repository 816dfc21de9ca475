//! Deliberately order-sensitive demo chares for race-hunt tests and the
//! `race_hunt` bench driver.
//!
//! `Racy` folds a stream of `Add`/`Mul` messages into one integer — a
//! non-commutative reduction, so its final value depends on delivery order.
//! The two same-shape messages whose order flips under perturbation are
//! exactly the minimized witness [`diff_runs`](crate::diff_runs) reports.
//! `Commute` is the control: identical traffic shape, adds only, so no
//! perturbation can change its final state.

use crate::{ReplayConfig, ReplayLog};
use charm_core::{Chare, Ctx, Ix, Runtime};
use charm_machine::MachineConfig;
use charm_pup::{Pup, Puper};

/// Alternating `Add`/`Mul` pairs injected by the demo drivers.
pub(crate) const DEMO_OPS: usize = 16;

/// Operations accepted by [`Racy`] and [`Commute`].
#[derive(Clone)]
pub(crate) enum OpMsg {
    /// `value += k`.
    Add(i64),
    /// `value *= k` (the non-commuting half).
    Mul(i64),
}

impl Default for OpMsg {
    fn default() -> Self {
        OpMsg::Add(0)
    }
}

impl Pup for OpMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut tag: u8 = match self {
            OpMsg::Add(_) => 0,
            OpMsg::Mul(_) => 1,
        };
        p.p(&mut tag);
        let mut k = match self {
            OpMsg::Add(k) | OpMsg::Mul(k) => *k,
        };
        p.p(&mut k);
        if p.is_unpacking() {
            *self = if tag == 0 { OpMsg::Add(k) } else { OpMsg::Mul(k) };
        }
    }
}

/// A chare whose state is a *non-commutative* fold of its message stream:
/// `Add` then `Mul` gives `(v + a) × m`, the swapped order gives
/// `v × m + a`. Any delivery reordering of an adjacent Add/Mul pair changes
/// the final state — the seeded order-sensitivity bug the hunt must catch.
#[derive(Default)]
pub(crate) struct Racy {
    /// The folded value.
    pub(crate) value: i64,
}

impl Pup for Racy {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.value);
    }
}

impl Chare for Racy {
    type Msg = OpMsg;
    fn on_message(&mut self, msg: OpMsg, ctx: &mut Ctx<'_>) {
        match msg {
            OpMsg::Add(k) => self.value += k,
            OpMsg::Mul(k) => self.value *= k,
        }
        ctx.work(1e3);
    }
}

/// The commutative control: same message type and traffic shape as
/// [`Racy`], but every operation is an addition — no reordering can change
/// the final state, so a correct hunter must *not* flag it.
#[derive(Default)]
pub(crate) struct Commute {
    /// The folded value.
    pub(crate) value: i64,
}

impl Pup for Commute {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.value);
    }
}

impl Chare for Commute {
    type Msg = OpMsg;
    fn on_message(&mut self, msg: OpMsg, ctx: &mut Ctx<'_>) {
        match msg {
            OpMsg::Add(k) | OpMsg::Mul(k) => self.value += k,
        }
        ctx.work(1e3);
    }
}

fn run<C: Chare<Msg = OpMsg>>(
    app: &str,
    init: C,
    ops: impl Iterator<Item = OpMsg>,
    seed: u64,
    perturb: Option<u64>,
) -> ReplayLog {
    let mut b = Runtime::builder(MachineConfig::homogeneous(4))
        .seed(seed)
        .record(ReplayConfig::with_digest_every(4));
    if let Some(p) = perturb {
        b = b.perturb(p);
    }
    let mut rt = b.build();
    let proxy = rt.create_array::<C>(app);
    // Element on a remote PE so every op crosses the network (and is
    // therefore perturbable).
    rt.insert(proxy, Ix::I1(0), init, Some(2));
    for op in ops {
        rt.send(proxy, Ix::I1(0), op);
    }
    rt.run();
    let mut log = rt.take_replay_log().expect("recording was enabled");
    log.app = app.into();
    log
}

fn demo_ops() -> impl Iterator<Item = OpMsg> {
    (0..DEMO_OPS).map(|i| if i % 2 == 0 { OpMsg::Add(3) } else { OpMsg::Mul(2) })
}

/// Record a `Racy` run (optionally perturbed) and return its log.
pub fn run_racy(seed: u64, perturb: Option<u64>) -> ReplayLog {
    run("racy-demo", Racy { value: 1 }, demo_ops(), seed, perturb)
}

/// Record a `Commute` run (optionally perturbed) and return its log.
pub fn run_commute(seed: u64, perturb: Option<u64>) -> ReplayLog {
    run("commute-demo", Commute { value: 1 }, demo_ops(), seed, perturb)
}
