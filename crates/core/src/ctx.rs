//! `Ctx` — the interface an entry method uses to interact with the runtime.
//!
//! All effects (sends, broadcasts, reductions, migration, insertion…) are
//! *buffered* while the entry method runs and applied by the runtime when it
//! returns. This mirrors the asynchronous semantics of Charm++ (nothing an
//! entry method does takes effect synchronously) and keeps the borrow
//! structure simple: the chare is borrowed from its store, the `Ctx` from
//! the runtime's scratch state, and never both from the same place.

use crate::arena::UserMsg;
use crate::array::{ArrayId, ArrayProxy, ObjId};
use crate::chare::{Callback, Chare, RedOp, RedValue};
use crate::ctrl::ControlValues;
use crate::index::Ix;
use charm_machine::SimTime;
use rand::rngs::StdRng;
use std::any::Any;

/// Buffered effects of one entry-method execution.
pub(crate) enum Action {
    Send {
        dst: ObjId,
        payload: UserMsg,
        bytes: usize,
        prio: i64,
        delay: SimTime,
    },
    Broadcast {
        array: ArrayId,
        make: Box<dyn Fn() -> UserMsg + Send>,
        bytes: usize,
        prio: i64,
    },
    Contribute {
        array: ArrayId,
        tag: u32,
        value: RedValue,
        op: RedOp,
        cb: Callback,
    },
    AtSync,
    MigrateMe {
        to: usize,
    },
    Insert {
        array: ArrayId,
        ix: Ix,
        chare: Box<dyn Any + Send>,
        pe: Option<usize>,
    },
    DestroyMe,
    Exit,
    Metric {
        name: String,
        value: f64,
    },
    RequestQuiescence {
        cb: Callback,
    },
    CtrlFeedback {
        /// Observed value of the objective the tuner minimizes (e.g. the
        /// last step time in seconds).
        objective: f64,
    },
    MemCheckpoint {
        cb: Callback,
    },
    RequestLb,
}

/// Execution context passed to [`Chare::on_message`] / [`Chare::on_event`].
pub struct Ctx<'rt> {
    pub(crate) now: SimTime,
    pub(crate) pe: usize,
    pub(crate) num_pes: usize,
    pub(crate) self_id: ObjId,
    pub(crate) work_units: f64,
    pub(crate) actions: Vec<Action>,
    pub(crate) rng: &'rt mut StdRng,
    pub(crate) ctrl: &'rt ControlValues,
}

impl<'rt> Ctx<'rt> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The PE this entry method is executing on.
    pub fn my_pe(&self) -> usize {
        self.pe
    }

    /// Number of live PEs in the runtime.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// This chare's own index.
    pub fn my_index(&self) -> Ix {
        self.self_id.ix
    }

    /// This chare's identity (array + index).
    pub fn my_id(&self) -> ObjId {
        self.self_id
    }

    /// Charge `units` work-units (flops) of computation to this entry
    /// method. The scheduler converts this to virtual time at the PE's
    /// current effective speed. Calls accumulate.
    pub fn work(&mut self, units: f64) {
        debug_assert!(units >= 0.0, "negative work");
        self.work_units += units;
    }

    /// A deterministic per-PE random generator (seeded from the run seed).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// Asynchronously invoke the entry method of `ix` in `array` with `msg`
    /// (default priority 0; smaller priorities run first).
    pub fn send<C: Chare>(&mut self, array: ArrayProxy<C>, ix: Ix, msg: C::Msg) {
        self.send_prio(array, ix, msg, 0);
    }

    /// [`Ctx::send`] with an explicit priority: smaller values are scheduled
    /// ahead of larger ones on the destination PE (§IV-C uses this to favor
    /// remote data requests).
    pub fn send_prio<C: Chare>(&mut self, array: ArrayProxy<C>, ix: Ix, mut msg: C::Msg, prio: i64) {
        let bytes = charm_pup::packed_size(&mut msg) + crate::ENVELOPE_BYTES;
        let payload = UserMsg::new(msg);
        self.actions.push(Action::Send {
            dst: ObjId {
                array: array.id,
                ix,
            },
            payload,
            bytes,
            prio,
            delay: SimTime::ZERO,
        });
    }

    /// Deliver `msg` to `ix` after an additional virtual delay — the
    /// idiomatic way to implement periodic chare-driven behaviour.
    pub fn send_after<C: Chare>(&mut self, delay: SimTime, array: ArrayProxy<C>, ix: Ix, mut msg: C::Msg) {
        let bytes = charm_pup::packed_size(&mut msg) + crate::ENVELOPE_BYTES;
        let payload = UserMsg::new(msg);
        self.actions.push(Action::Send {
            dst: ObjId {
                array: array.id,
                ix,
            },
            payload,
            bytes,
            prio: 0,
            delay,
        });
    }

    /// Broadcast `msg` to every element of `array` (spanning-tree cost).
    pub fn broadcast<C: Chare>(&mut self, array: ArrayProxy<C>, msg: C::Msg)
    where
        C::Msg: Clone,
    {
        let mut probe = msg.clone();
        let bytes = charm_pup::packed_size(&mut probe) + crate::ENVELOPE_BYTES;
        self.actions.push(Action::Broadcast {
            array: array.id,
            make: Box::new(move || UserMsg::new(msg.clone())),
            bytes,
            prio: 0,
        });
    }

    /// Contribute to reduction `tag` over `array`. When every current
    /// element of the array has contributed with the same tag, `op`-combined
    /// `value` is delivered to `cb` as [`SysEvent::Reduction`].
    ///
    /// [`SysEvent::Reduction`]: crate::SysEvent::Reduction
    pub fn contribute<C: Chare>(
        &mut self,
        array: ArrayProxy<C>,
        tag: u32,
        value: RedValue,
        op: RedOp,
        cb: Callback,
    ) {
        self.actions.push(Action::Contribute {
            array: array.id,
            tag,
            value,
            op,
            cb,
        });
    }

    /// Signal that this chare is at its load-balancing point (Charm++'s
    /// `AtSync()`). When every element of every AtSync array has called
    /// this, the runtime runs the balancer, migrates chares, and delivers
    /// `ResumeFromSync` to all of them.
    pub fn at_sync(&mut self) {
        self.actions.push(Action::AtSync);
    }

    /// Migrate this chare to `pe` after this entry method returns.
    pub fn migrate_me(&mut self, pe: usize) {
        self.actions.push(Action::MigrateMe { to: pe });
    }

    /// Dynamically insert a new element (AMR refinement creates children
    /// this way). Placement defaults to the array's home map when `pe` is
    /// `None`.
    pub fn insert<C: Chare>(&mut self, array: ArrayProxy<C>, ix: Ix, chare: C, pe: Option<usize>) {
        self.actions.push(Action::Insert {
            array: array.id,
            ix,
            chare: Box::new(chare),
            pe,
        });
    }

    /// Remove this chare from its array after this entry method returns
    /// (AMR coarsening destroys children this way).
    pub fn destroy_me(&mut self) {
        self.actions.push(Action::DestroyMe);
    }

    /// Ask the runtime to detect quiescence: when no messages are in flight
    /// and all PEs are idle, deliver [`SysEvent::QuiescenceDetected`] to
    /// `cb`. Used by AMR3D's mesh restructuring (§IV-A: O(1) collective).
    ///
    /// [`SysEvent::QuiescenceDetected`]: crate::SysEvent::QuiescenceDetected
    pub fn request_quiescence(&mut self, cb: Callback) {
        self.actions.push(Action::RequestQuiescence { cb });
    }

    /// Terminate the simulation once buffered actions are applied (like
    /// `CkExit()`).
    pub fn exit(&mut self) {
        self.actions.push(Action::Exit);
    }

    /// Record a named time-series sample into the run journal — the bench
    /// harness reads these to regenerate the paper's figures.
    pub fn log_metric(&mut self, name: &str, value: f64) {
        self.actions.push(Action::Metric {
            name: name.to_string(),
            value,
        });
    }

    /// Current value of a registered control point (§III-E), or `default`
    /// if no such control point exists.
    pub fn control(&self, name: &str, default: i64) -> i64 {
        self.ctrl.get(name).unwrap_or(default)
    }

    /// Report the objective value (e.g. step time) the introspective tuner
    /// is minimizing; the tuner adjusts registered control points between
    /// observations.
    pub fn report_objective(&mut self, objective: f64) {
        self.actions.push(Action::CtrlFeedback { objective });
    }

    /// Take a double in-memory checkpoint of the entire application
    /// (Charm++'s `CkStartMemCheckpoint`, §III-B): every chare is packed,
    /// stored locally and on a buddy PE, and `cb` receives
    /// [`SysEvent::CheckpointDone`] when the protocol completes.
    ///
    /// [`SysEvent::CheckpointDone`]: crate::SysEvent::CheckpointDone
    pub fn start_mem_checkpoint(&mut self, cb: Callback) {
        self.actions.push(Action::MemCheckpoint { cb });
    }

    /// Ask the RTS to run a load-balancing round now (without the AtSync
    /// barrier): what the runtime does on its own under the thermal and
    /// cloud schemes, exposed for application-driven moments like AMR
    /// post-restructure balancing.
    pub fn request_lb(&mut self) {
        self.actions.push(Action::RequestLb);
    }

    /// A callback handle naming this chare (convenience for `contribute`).
    pub fn cb_self(&self) -> Callback {
        Callback::ToChare {
            array: self.self_id.array,
            ix: self.self_id.ix,
        }
    }
}
