//! The engine: one event heap drained in `(time, key)` order, event
//! dispatch, the per-PE scheduler, entry-method execution and the
//! application of the actions an entry method buffered, plus the key slots
//! the deterministic tie-break is made of and the host-side API. Everything
//! else extends [`Runtime`] from a sibling module: `routing` (location
//! management), `collectives`, `placement` (moves, drains, AtSync, the LB
//! round), and the services over them — [`crate::ft`], [`crate::power`],
//! `malleable`, [`crate::elastic`]. Messages in flight live in the runtime's
//! envelope slab (`slab`), addressed by handle, and name their destination
//! by its location record's handle ([`ElemRef`]).

mod builder;
mod slab;

pub use builder::RuntimeBuilder;
pub(crate) use slab::{EnvId, EnvSlab};

use crate::arena::UserMsg;
use crate::array::{AnyArray, ArrayId, ArrayProxy, ArrayStore, ElemId, ElemRef, ObjId, Payload};
use crate::chare::{Callback, Chare, SysEvent};
use crate::collectives::RedState;
use crate::ctrl::{ControlRegistry, ControlValues};
use crate::ctx::{Action, Ctx};
use crate::elastic::Verdict;
use crate::ft::Ft;
use crate::placement::Lb;
use crate::power::Power;
use crate::replay::{sys_event_digest, Recorder, ReplayLog};
use crate::routing::HomeMap;
use crate::trace::{EntryKind, TraceEventKind, Tracer};
use charm_machine::{EventQueue, MachineConfig, NetworkModel, PrioQueue, SimTime};
use fxhash::FxHashMap;
use rand::rngs::StdRng;
use std::num::NonZeroU32;

/// Fixed per-message envelope overhead added to every payload's wire size.
pub(crate) const ENVELOPE_BYTES: usize = 40;

/// Event keys are `(slot << KEY_SLOT_SHIFT) | counter`: the producer slot
/// in the high bits, a per-slot monotonic counter in the low 40. A key thus
/// depends only on who produced the event and how many it produced before —
/// the same-timestamp tie-break the goldens are made of.
pub(crate) const KEY_SLOT_SHIFT: u32 = 40;
/// Key-slot offset (past `num_pes`) for host-side sends before/between runs.
pub(crate) const SLOT_HOST: usize = 0;
/// Key-slot offset for reduction callbacks.
pub(crate) const SLOT_RED: usize = 1;
/// Key-slot offset for runtime-system events (failures, DVFS, checkpoints…).
pub(crate) const SLOT_RTS: usize = 2;

/// Per-entry scheduling overhead. One value has ever been in use; the
/// `.rlog` header carries it for what-if replay.
const SCHED_OVERHEAD: SimTime = SimTime::from_nanos(250);

/// Events the reused dispatch buffer keeps between batches.
const BATCH_RETAIN: usize = 1 << 12;

/// Jitter-token salts distinguishing the several delay draws one event can
/// make (location-query round trips, tree hops, forwards). Same convention
/// as the DAG re-simulator's edge tokens.
pub(crate) const TOKEN_RTT_REQ: u64 = 1 << 62;
pub(crate) const TOKEN_RTT_RESP: u64 = 2 << 62;
pub(crate) const TOKEN_AUX: u64 = 3 << 62;

/// Simulator events, 16 bytes each: a message travels as its slab handle
/// (minted once, kept through every re-route, forward, limbo park and
/// queue hop) and migration data is boxed.
pub(crate) enum Ev {
    /// A message arrives at a PE's scheduler queue.
    Deliver { pe: u32, env: EnvId },
    /// The PE finishes its current entry method, which ran for `dur`.
    PeFree { pe: u32, dur: SimTime },
    /// A PE blocked by a global operation re-checks its queue.
    PeRetry { pe: u32 },
    /// A migrating chare's data arrives at its new PE.
    MigrateArrive(Box<MigrateArrive>),
    /// Periodic temperature sampling / DVFS control.
    DvfsTick,
    /// A node crashes, killing every PE in its range (the `pe` names any PE
    /// on the failing node).
    NodeFail { pe: u32 },
    /// The in-flight double in-memory checkpoint finishes replicating and
    /// becomes the recovery point.
    CkptCommit,
    /// Automatic periodic checkpoint tick.
    AutoCkpt,
    /// Malleable reconfiguration to a new PE count (§III-D).
    Reconfigure { to: u32 },
    /// An RTS-scheduled load-balancing round (cloud/thermal triggers): the
    /// head of a periodic chain that re-arms itself `period` later, under
    /// the next reserved key, while `left` ticks remain.
    RtsLb { left: u32, period: SimTime },
    /// Elastic-controller sampling/decision tick.
    ElasticTick,
    /// A spot preemption was announced: the node containing `pe` will be
    /// reclaimed at `deadline` (the matching [`Ev::NodeFail`] is already
    /// scheduled there).
    PreemptWarn { pe: u32, deadline: SimTime },
}

const _: () = assert!(
    std::mem::size_of::<Ev>() <= 16,
    "an event must stay 16 bytes"
);
const _: () = assert!(
    std::mem::size_of::<Payload>() == 24,
    "a payload is a type table and two words of message"
);
const _: () = assert!(
    std::mem::size_of::<Envelope>() == 56,
    "an envelope must stay 56 bytes"
);
const _: () = assert!(
    std::mem::size_of::<PeState>() <= 80,
    "a PE's scheduler state must stay within 80 bytes"
);
const _: () = assert!(
    EventQueue::<Ev>::ENTRY_BYTES == 24 && EventQueue::<Ev>::SLOT_BYTES == 24,
    "a pending event must stay a 24-byte entry, and a timestamp's slot one entry wide"
);

/// A migrating chare's serialized state en route to its new PE.
pub(crate) struct MigrateArrive {
    pub(crate) dst: ObjId,
    pub(crate) to_pe: usize,
    pub(crate) from_pe: usize,
    pub(crate) bytes: Vec<u8>,
}

/// A message (or system event) in flight or queued: 56 bytes, everything
/// the engine reads per hop, a user message of up to 16 bytes included.
/// Its destination is a location-record handle; the index behind it is read
/// from the record only while the tracer or the recorder needs an
/// [`ObjId`]. Who sent it lives with the recorder (derived from the
/// message's origin), and only while recording is on.
pub(crate) struct Envelope {
    pub(crate) dst: ElemRef,
    pub(crate) payload: Payload,
    pub(crate) prio: i64,
    /// Runtime-wide message key, assigned at creation. Always allocated
    /// (recording on or off) so enabling the recorder cannot shift any
    /// other deterministic state. Doubles as the event-heap tie-break for
    /// the delivery event.
    pub(crate) rec_id: u64,
    /// Wire size, envelope included — so never zero, which is the niche
    /// the slab's free link hides in.
    pub(crate) bytes: NonZeroU32,
    pub(crate) src_pe: u32,
}

/// Per-PE scheduler state.
///
/// `pending` orders envelopes by `(prio, arrival)`: the pushes into any one
/// PE's queue carry globally monotone sequence numbers (the `messages`
/// counter), so the FIFO-within-priority [`PrioQueue`] reproduces the old
/// `BinaryHeap<(prio, seq)>` pop order exactly, in O(1) per operation.
/// One per simulated PE (DESIGN §4.4, "Per-PE memory"): the running entry
/// names its chare by handle, and only the tracer resolves its [`ObjId`].
pub(crate) struct PeState {
    pub(crate) pending: PrioQueue<EnvId>,
    pub(crate) busy: bool,
    pub(crate) alive: bool,
    /// Permanently reclaimed by the platform (a spot preemption): never
    /// revived by restart or expand.
    pub(crate) retired: bool,
    /// PEs blocked by a global operation (LB, checkpoint, reconfigure)
    /// may not start new work before this time.
    pub(crate) blocked_until: SimTime,
    pub(crate) busy_time: SimTime,
    pub(crate) current: Option<(ElemRef, EntryKind)>,
}

impl PeState {
    pub(crate) fn new() -> Self {
        PeState {
            pending: PrioQueue::new(),
            busy: false,
            alive: true,
            retired: false,
            blocked_until: SimTime::ZERO,
            busy_time: SimTime::ZERO,
            current: None,
        }
    }
}

/// Summary of a completed run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Final virtual time.
    pub end_time: SimTime,
    /// Events the simulator processed.
    pub events: u64,
    /// Entry methods executed.
    pub entries: u64,
    /// Messages delivered (including forwards).
    pub messages: u64,
    /// Total bytes moved over the network.
    pub bytes: u64,
    /// Mean PE utilization (busy / elapsed) over live PEs.
    pub avg_utilization: f64,
    /// Real (wall-clock) seconds spent inside `run*` calls so far.
    pub wall_time_s: f64,
    /// Simulator throughput: events processed per wall-clock second
    /// (0 when no wall time has accumulated yet).
    pub events_per_sec: f64,
    /// Trace log records shed from ring buffers (0 when tracing is off).
    /// Streamed sinks and summary aggregates never drop.
    pub trace_dropped: u64,
    /// Delivery stats for every installed streaming trace sink.
    pub trace_sinks: Vec<crate::trace::SinkStats>,
    /// Entry executions shed from a capped replay recording
    /// ([`ReplayConfig::max_execs`](crate::ReplayConfig)); 0 when recording
    /// is off or unbounded.
    pub replay_shed_execs: u64,
    /// Message sends shed from a capped replay recording.
    pub replay_shed_sends: u64,
    /// Event-queue and PE-scheduler-queue operations (pushes + pops)
    /// performed so far. Together with `events_per_sec` this separates
    /// "fewer/cheaper queue ops" wins from everything else.
    pub queue_ops: u64,
    /// Bytes served from the envelope/payload arena instead of the global
    /// allocator (this thread, since the runtime was built).
    pub arena_bytes: u64,
    /// Global-allocator calls the arena absorbed (pool hits on allocation
    /// plus recycled frees).
    pub alloc_bypass: u64,
    /// α-windows committed by the engine: every time the drain horizon
    /// advanced to the window containing the next event.
    pub windows_executed: u64,
    #[doc(hidden)] // always 0: kept for `benchmark/`'s 2-thread pass
    pub barriers_waited: u64,
    #[doc(hidden)] // always 0: kept for `benchmark/`'s 2-thread pass
    pub barriers_elided: u64,
}

/// A failure (or cascade) destroyed state that no surviving checkpoint
/// copy covers: the run cannot be rolled back to a consistent snapshot.
///
/// Reported by [`Runtime::run_outcome`] as
/// [`RunOutcome::Unrecoverable`](crate::elastic::RunOutcome::Unrecoverable);
/// surviving PEs keep draining their work, but lost chares are gone and the
/// result is not trustworthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unrecoverable {
    /// Virtual time of the fatal failure.
    pub(crate) at: SimTime,
    /// PEs that died in the fatal event (the whole node range).
    pub failed_pes: Vec<usize>,
    /// Chares whose state was lost outright.
    pub lost_chares: usize,
    /// Why recovery was impossible.
    pub reason: String,
}

impl std::fmt::Display for Unrecoverable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecoverable failure at {:.6}s (PEs {:?}, {} chare(s) lost): {}",
            self.at.as_secs_f64(),
            self.failed_pes,
            self.lost_chares,
            self.reason
        )
    }
}

impl std::error::Error for Unrecoverable {}

/// The engine's counters, read together by [`Runtime::summary`].
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) entries: u64,
    pub(crate) messages: u64,
    pub(crate) bytes_moved: u64,
    pub(crate) events_processed: u64,
    /// Pushes onto and pops off the PEs' scheduler queues.
    pub(crate) pe_queue_ops: u64,
    /// α-windows committed: see [`RunSummary::windows_executed`].
    pub(crate) windows_executed: u64,
    /// Wall-clock time accumulated inside `run*` calls (not virtual time).
    pub(crate) wall_run: std::time::Duration,
    /// This thread's arena counters when the runtime was built; `summary()`
    /// reports the delta.
    pub(crate) arena_base: crate::arena::ArenaStats,
}

/// The work in the system, read together by [`Runtime::work_outstanding`].
#[derive(Default)]
pub(crate) struct Work {
    /// Deliver/MigrateArrive events in flight.
    pub(crate) inflight: u64,
    /// The MigrateArrive share of `inflight`.
    pub(crate) migrating: u64,
    /// Envelopes sitting in PE queues.
    pub(crate) queued: u64,
    /// PEs running an entry.
    pub(crate) busy_pes: usize,
}

/// The charm-rs runtime: one instance simulates one parallel job.
///
/// Each runtime service keeps its state in one struct whose fields only its
/// own module touches (DESIGN §4.3): `Lb` in `placement`, `Ft` in `ft`,
/// `Power` in `power` and the elastic controller in `elastic`.
pub struct Runtime {
    pub(crate) machine: MachineConfig,
    pub(crate) net: NetworkModel,
    pub(crate) now: SimTime,
    pub(crate) events: EventQueue<Ev>,
    pub(crate) pes: Vec<PeState>,
    /// PEs currently participating (≤ machine.num_pes under shrink).
    pub(crate) live_pes: usize,
    pub(crate) stores: Vec<Box<dyn AnyArray>>,
    pub(crate) rngs: Vec<StdRng>,
    pub(crate) ctrl: ControlRegistry,
    pub(crate) ctrl_snapshot: ControlValues,
    /// Every PE's location cache: (source PE, handle) → PE. Looked up once
    /// per remote send on the routing hot path, without hashing an index
    /// (see [`crate::array::LocCache`]).
    pub(crate) loc_cache: crate::array::LocCache,
    /// Every envelope in flight, queued or parked.
    pub(crate) slab: EnvSlab,
    /// Messages for not-yet-existing elements (dynamic insertion races,
    /// in-transit migrations).
    pub(crate) limbo: FxHashMap<ElemRef, Vec<EnvId>>,
    pub(crate) reductions: FxHashMap<(ArrayId, u32), RedState>,
    pub(crate) qd: Option<Callback>,
    pub(crate) work: Work,
    /// The load balancer: strategy, trigger, AtSync barrier, rounds, comm.
    pub(crate) lb: Lb,
    /// Fault tolerance: checkpoints and the restart protocol's windows.
    pub(crate) ft: Ft,
    /// The run's sticky verdict, once a failure or a capacity breach set it.
    pub(crate) verdict: Option<Verdict>,
    /// The elastic controller, when installed ([`RuntimeBuilder::elastic`]).
    pub(crate) elastic: Option<crate::elastic::ElasticCtl>,
    /// Temperature and DVFS control, when the machine has a thermal model.
    pub(crate) power: Option<Power>,
    /// The metric journal; written only through [`Runtime::journal`].
    metrics: FxHashMap<String, Vec<(f64, f64)>>,
    pub(crate) stats: Counters,
    /// Reusable buffer for the actions a `Ctx` collects during one entry
    /// method — saves a heap allocation per executed message.
    pub(crate) action_scratch: Vec<Action>,
    /// Reusable buffer for the handles `execute` interns for one entry
    /// method's sends, consumed in order by `apply_actions`.
    pub(crate) send_scratch: Vec<ElemId>,
    /// Reusable buffer for one timestamp's event batch — `run_until`
    /// allocates nothing per call.
    pub(crate) batch_scratch: Vec<(u64, Ev)>,
    pub(crate) exit_requested: bool,
    pub(crate) seed: u64,
    /// Location caching enabled? (ablation toggle; default true)
    pub(crate) location_cache: bool,
    /// Spanning-tree branching factor for collectives.
    pub(crate) collective_arity: u64,
    /// Projections-lite tracing, when enabled ([`RuntimeBuilder::tracing`]).
    pub(crate) tracer: Option<Tracer>,
    /// Replay recording, when enabled ([`RuntimeBuilder::record`]).
    pub(crate) recorder: Option<Recorder>,
    /// Schedule perturbation, when enabled ([`RuntimeBuilder::perturb`]).
    pub(crate) perturb: Option<StdRng>,
    /// Slot-partitioned event-key counters: index `pe` for events produced
    /// while dispatching on that PE, then [`SLOT_HOST`]/[`SLOT_RED`]/
    /// [`SLOT_RTS`] offsets past `num_pes` (see [`Runtime::fresh_key`]).
    pub(crate) keys: Vec<u64>,
    /// Which key slot new events are charged to right now; maintained by
    /// [`Runtime::dispatch`], the host APIs, and a completing reduction.
    pub(crate) cur_slot: usize,
    /// `(time_ns, key)` of the event currently being dispatched — the
    /// global total order; its key salts the jitter draws of the
    /// collectives the event starts.
    pub(crate) cur_dispatch: (u64, u64),
    /// End of the α-window currently executing.
    pub(crate) cur_win_end: SimTime,
    /// Window quantum: the minimum cross-PE network latency (α) in ns.
    pub(crate) win_ns: u64,
    /// Modeled process tear-down/reconnect cost on shrink (paper: 2.7 s).
    pub reconfig_overhead_shrink: SimTime,
    /// Modeled process start-up/reconnect cost on expand (paper: 7.2 s).
    pub reconfig_overhead_expand: SimTime,
}

impl Runtime {
    /// Shorthand: a runtime on a homogeneous machine with default settings.
    pub fn homogeneous(num_pes: usize) -> Runtime {
        Runtime::builder(MachineConfig::homogeneous(num_pes)).build()
    }

    // ----- array management -------------------------------------------------

    /// Create (register) a chare array. The name is the stable identity used
    /// by disk checkpoints.
    pub fn create_array<C: Chare>(&mut self, name: &str) -> ArrayProxy<C> {
        assert!(self.array_id(name).is_none(), "array '{name}' already exists");
        let id = ArrayId(self.stores.len() as u32);
        self.stores.push(Box::new(ArrayStore::<C>::new(id, name)));
        if let Some(tr) = self.tracer.as_mut() {
            tr.register_array(id, name);
        }
        ArrayProxy::new(id)
    }

    /// Install a home-mapping scheme for an array (before inserting
    /// elements). The default is [`HomeMap::Hash`].
    pub fn set_home_map<C: Chare>(&mut self, proxy: ArrayProxy<C>, map: HomeMap) {
        self.stores[proxy.id.0 as usize].set_home_map(map);
    }

    /// Opt an array into AtSync load balancing (its elements both call
    /// `at_sync` and are migratable by the balancer).
    pub fn set_at_sync<C: Chare>(&mut self, proxy: ArrayProxy<C>, enabled: bool) {
        self.stores[proxy.id.0 as usize].set_uses_at_sync(enabled);
    }

    /// Insert an element at an explicit PE, or at its hashed home PE when
    /// `pe` is `None`.
    pub fn insert<C: Chare>(&mut self, proxy: ArrayProxy<C>, ix: crate::Ix, chare: C, pe: Option<usize>) {
        let pe = pe.unwrap_or_else(|| self.home_pe(proxy.id, &ix));
        assert!(pe < self.live_pes, "insert at dead/absent PE {pe}");
        self.stores[proxy.id.0 as usize].insert_boxed(ix, pe, Box::new(chare));
    }

    /// Number of elements in an array.
    pub fn array_len(&self, id: ArrayId) -> usize {
        self.stores[id.0 as usize].len()
    }

    /// Sorted indices of an array's current elements.
    pub fn array_indices(&self, id: ArrayId) -> Vec<crate::Ix> {
        self.stores[id.0 as usize].indices()
    }

    /// PE currently hosting an element.
    pub fn element_pe(&self, id: ArrayId, ix: &crate::Ix) -> Option<usize> {
        self.stores[id.0 as usize].element_pe(ix)
    }

    /// Look up an array id by name (for checkpoint restore paths).
    pub fn array_id(&self, name: &str) -> Option<ArrayId> {
        self.stores.iter().find(|s| s.name() == name).map(|s| s.id())
    }

    /// Host-side inspection of a chare's state (read-only). Returns `None`
    /// if the element doesn't exist. Useful for extracting results after a
    /// run and for tests; entry methods cannot use this (they only see
    /// their own chare), so it does not break the isolation model.
    pub fn inspect<C: Chare, R>(
        &self,
        proxy: ArrayProxy<C>,
        ix: &crate::Ix,
        f: impl FnOnce(&C) -> R,
    ) -> Option<R> {
        let store = self.stores[proxy.id.0 as usize]
            .as_any()
            .downcast_ref::<ArrayStore<C>>()
            .expect("proxy type matches store type");
        store.peek(ix).map(f)
    }

    // ----- host-side sends --------------------------------------------------

    /// Send a message into the system from the host program (arrives after
    /// one network latency). This is how a `main` kicks off execution.
    pub fn send<C: Chare>(&mut self, proxy: ArrayProxy<C>, ix: crate::Ix, mut msg: C::Msg) {
        let bytes = charm_pup::packed_size(&mut msg) + ENVELOPE_BYTES;
        self.cur_slot = self.host_slot();
        let elem = self.stores[proxy.id.0 as usize].intern(&ix);
        let dst = ElemRef { array: proxy.id, elem };
        let env = self.mint(dst, Payload::User(UserMsg::new(msg)), bytes, 0, 0, false);
        self.route_and_schedule(env, self.now);
    }

    /// Broadcast a message to every element of an array from the host.
    ///
    /// The wire size is computed once (the clones are PUP-identical), not
    /// once per element — on a large array the sizing pass used to dominate
    /// the host-side cost. Each element still receives its own point-to-
    /// point delivery; see [`broadcast_tree`](Self::broadcast_tree) for the
    /// spanning-tree collective.
    pub fn broadcast<C: Chare>(&mut self, proxy: ArrayProxy<C>, mut msg: C::Msg)
    where
        C::Msg: Clone,
    {
        let bytes = charm_pup::packed_size(&mut msg) + ENVELOPE_BYTES;
        self.cur_slot = self.host_slot();
        let array = proxy.id;
        for k in 0..self.stores[array.0 as usize].sorted_len() {
            let (elem, Some(_)) = self.stores[array.0 as usize].sorted_nth(k) else {
                continue;
            };
            let dst = ElemRef { array, elem };
            let payload = Payload::User(UserMsg::new(msg.clone()));
            let env = self.mint(dst, payload, bytes, 0, 0, false);
            self.route_and_schedule(env, self.now);
        }
    }

    /// Broadcast through the `collective_arity`-ary spanning tree, matching
    /// the Charm++ collective: every element receives the message exactly
    /// once, after `tree_depth()` small-message hops rather than after one
    /// independent point-to-point delivery per element. Opt-in because the
    /// tree adds latency for tiny arrays; throughput-bound fan-outs should
    /// prefer it.
    pub fn broadcast_tree<C: Chare>(&mut self, proxy: ArrayProxy<C>, mut msg: C::Msg)
    where
        C::Msg: Clone,
    {
        let bytes = charm_pup::packed_size(&mut msg) + ENVELOPE_BYTES;
        self.cur_slot = self.host_slot();
        let make = || UserMsg::new(msg.clone());
        let token = (proxy.id.0 as u64) ^ TOKEN_AUX;
        self.spanning_broadcast(proxy.id, &make, bytes, 0, false, 0, self.now, token);
    }

    // ----- clock & introspection ---------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of live PEs.
    pub fn num_pes(&self) -> usize {
        self.live_pes
    }

    /// PUP digest of every chare's state, sorted by `(array, ix)` — the
    /// `StateDigest` walk record/replay compares run-to-run. Deterministic:
    /// stores are visited in `ArrayId` order and elements in sorted index
    /// order.
    pub fn state_digest(&mut self) -> Vec<(ObjId, u64)> {
        let mut out = Vec::with_capacity(self.stores.iter().map(|s| s.len()).sum());
        for s in self.stores.iter_mut() {
            let array = s.id();
            s.visit_sorted(&mut |ix, _pe, chare| {
                out.push((ObjId { array, ix }, charm_pup::digest_of(chare)));
            });
        }
        out
    }

    /// Finish recording and take the replay log (once; `None` when
    /// recording was never enabled). Appends the final state digest.
    pub fn take_replay_log(&mut self) -> Option<ReplayLog> {
        self.recorder.as_ref()?;
        let final_digests = self.state_digest();
        let rec = self.recorder.take()?;
        Some(rec.into_log(
            self.machine.name.clone(),
            self.machine.num_pes,
            self.seed,
            SCHED_OVERHEAD,
            self.collective_arity,
            self.machine.flops_per_sec,
            self.now,
            final_digests,
        ))
    }

    /// A recorded metric series (`ctx.log_metric`): (seconds, value) pairs.
    pub fn metric(&self, name: &str) -> &[(f64, f64)] {
        self.metrics.get(name).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Append `(at, v)` to the named metric series — the only way into the
    /// journal, for `ctx.log_metric` and every runtime service alike.
    pub(crate) fn journal(&mut self, name: &str, at: SimTime, v: f64) {
        let sample = (at.as_secs_f64(), v);
        match self.metrics.get_mut(name) {
            Some(series) => series.push(sample),
            None => {
                self.metrics.insert(name.to_string(), vec![sample]);
            }
        }
    }

    /// Trace an RTS-level event at `t`: how every runtime service reports.
    pub(crate) fn trace_rts(&mut self, t: SimTime, kind: TraceEventKind) {
        if let Some(tr) = &mut self.tracer {
            tr.rts(t, kind);
        }
    }

    /// Messages parked for not-yet-existing elements (diagnostic). A
    /// steady-state nonzero value usually means a send to a wrong index.
    pub fn limbo_messages(&self) -> Vec<(ObjId, usize)> {
        let mut v: Vec<(ObjId, usize)> = self
            .limbo
            .iter()
            .map(|(k, q)| (k.obj(&self.stores), q.len()))
            .collect();
        v.sort_unstable();
        v
    }

    /// Busy time of a PE so far.
    pub fn pe_busy_time(&self, pe: usize) -> SimTime {
        self.pes[pe].busy_time
    }

    /// Control-point registry (register knobs here before running).
    pub fn control_registry(&mut self) -> &mut ControlRegistry {
        &mut self.ctrl
    }

    #[doc(hidden)] // always false: kept for `benchmark/`'s 2-thread pass
    pub fn last_run_parallel(&self) -> bool { false }

    /// Schedule a malleable reconfiguration (shrink or expand) at `at`.
    pub fn schedule_reconfigure(&mut self, at: SimTime, to_pes: usize) {
        assert!(to_pes >= 1 && to_pes <= self.machine.num_pes);
        let k = self.fresh_key(self.host_slot());
        self.events
            .push_keyed(at, k, Ev::Reconfigure { to: to_pes as u32 });
    }

    // ----- the event loop ----------------------------------------------------

    /// Run until the event queue drains or a chare calls `exit`. Returns a
    /// summary.
    pub fn run(&mut self) -> RunSummary {
        self.run_until(SimTime::MAX)
    }

    /// Run until virtual time `deadline` (events after it stay queued) or a
    /// chare calls `exit`.
    ///
    /// The engine: one event heap drained in (time, key) order. Time is
    /// cut into α-windows of width `win_ns` (the minimum cross-PE latency)
    /// only where a run can see them: `exit` stops at the first window edge
    /// after it, and state-digest points are taken at window edges.
    pub fn run_until(&mut self, deadline: SimTime) -> RunSummary {
        self.ctrl_snapshot = self.ctrl.snapshot();
        let wall_start = std::time::Instant::now();
        let mut batch = std::mem::take(&mut self.batch_scratch);
        while let Some(t) = self.events.peek_time() {
            if t > deadline {
                break;
            }
            if t >= self.cur_win_end {
                // `exit` drains the current window, then stops.
                if self.exit_requested {
                    break;
                }
                self.take_due_digest_point();
                // Jump the window straight to the one containing `t`.
                self.stats.windows_executed += 1;
                self.cur_win_end = self.win_end_after(t);
            }
            self.drain_batch_at(t, &mut batch);
        }
        self.batch_scratch = batch;
        if self.events.is_empty() {
            // A finished run lets go of its high-water queue storage.
            self.events.clear();
        }
        debug_assert_eq!(
            self.slab.live(),
            self.envelopes_accounted(),
            "envelope slab: live slots != in flight + queued + parked"
        );
        if deadline != SimTime::MAX && !self.exit_requested {
            self.now = self.now.max(deadline);
        }
        self.stats.wall_run += wall_start.elapsed();
        self.summary()
    }

    /// Pop and dispatch the whole event batch at timestamp `t`. All events
    /// sharing the head timestamp are popped in one batch (one buffer,
    /// reused across timesteps) instead of a peek+pop pair per event, in
    /// ascending key order — the total `(time, key)` dispatch order.
    fn drain_batch_at(&mut self, t: SimTime, batch: &mut Vec<(u64, Ev)>) {
        debug_assert!(t >= self.now, "time went backwards");
        self.now = t;
        self.events.pop_batch_at_seq_into(t, batch);
        for (key, ev) in batch.drain(..) {
            self.stats.events_processed += 1;
            self.cur_dispatch = (t.0, key);
            self.dispatch(ev);
            self.maybe_detect_quiescence();
        }
        // A batch far above the usual (a lockstep step delivers one event
        // per PE at one timestamp) is not kept for the rest of the run; the
        // queue let go of its block when the batch left it.
        if batch.capacity() > BATCH_RETAIN {
            *batch = Vec::new();
        }
    }

    /// At a window edge: emit a state-digest point when one is due.
    fn take_due_digest_point(&mut self) {
        if self.recorder.as_mut().is_some_and(Recorder::take_digest_due) {
            let digests = self.state_digest();
            if let Some(r) = &mut self.recorder {
                r.push_state_point(self.cur_win_end, digests);
            }
        }
    }

    /// End of the α-window containing `t`: the next multiple of `win_ns`
    /// strictly after it.
    fn win_end_after(&self, t: SimTime) -> SimTime {
        let w = self.win_ns;
        SimTime((t.0 / w).saturating_add(1).saturating_mul(w))
    }

    /// Run for `span` more virtual time.
    pub fn run_for(&mut self, span: SimTime) -> RunSummary {
        let deadline = self.now + span;
        self.run_until(deadline)
    }

    /// Summary of progress so far.
    pub fn summary(&self) -> RunSummary {
        let elapsed = self.now.as_secs_f64();
        let live = self.live_pes.max(1);
        let util = if elapsed > 0.0 {
            self.pes[..self.live_pes]
                .iter()
                .map(|p| p.busy_time.as_secs_f64() / elapsed)
                .sum::<f64>()
                / live as f64
        } else {
            0.0
        };
        let c = &self.stats;
        let wall = c.wall_run.as_secs_f64();
        let arena = crate::arena::stats();
        RunSummary {
            end_time: self.now,
            events: c.events_processed,
            entries: c.entries,
            messages: c.messages,
            bytes: c.bytes_moved,
            avg_utilization: util,
            wall_time_s: wall,
            events_per_sec: if wall > 0.0 {
                c.events_processed as f64 / wall
            } else {
                0.0
            },
            trace_dropped: self.tracer.as_ref().map_or(0, |t| t.dropped_events()),
            trace_sinks: self
                .tracer
                .as_ref()
                .map_or_else(Vec::new, |t| t.sink_stats()),
            replay_shed_execs: self.recorder.as_ref().map_or(0, |r| r.shed_execs()),
            replay_shed_sends: self.recorder.as_ref().map_or(0, |r| r.shed_sends()),
            queue_ops: self.events.ops() + c.pe_queue_ops,
            arena_bytes: arena.bytes_served.saturating_sub(c.arena_base.bytes_served),
            alloc_bypass: arena.bypass.saturating_sub(c.arena_base.bypass),
            windows_executed: c.windows_executed,
            barriers_waited: 0,
            barriers_elided: 0,
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        // Events produced while handling this one are charged to the
        // handling PE's key slot (RTS slot for runtime-system events).
        self.cur_slot = match &ev {
            Ev::Deliver { pe, .. } | Ev::PeFree { pe, .. } | Ev::PeRetry { pe } => *pe as usize,
            Ev::MigrateArrive(m) => m.to_pe,
            _ => self.rts_slot(),
        };
        match ev {
            Ev::Deliver { pe, env } => {
                let pe = pe as usize;
                self.work.inflight -= 1;
                if !self.pes[pe].alive {
                    // The process is gone. If its chares were evacuated
                    // (graceful shrink) the envelope chases them; if the
                    // element died with the process (crash without
                    // checkpoint), `route_and_schedule` drops it.
                    self.route_and_schedule(env, self.now);
                    return;
                }
                // Idle-PE fast path: nothing queued and nothing running, so
                // the envelope would be heap-pushed and immediately popped.
                // Its `seq` (= pre-increment `messages`) is assigned then
                // discarded on the slow path too, so skipping the priority
                // heap is unobservable — counters, tracing, and execution
                // order are identical.
                let p = &self.pes[pe];
                if !p.busy && p.pending.is_empty() && self.now >= p.blocked_until {
                    self.stats.messages += 1;
                    if let Some(tr) = &mut self.tracer {
                        let e = &self.slab[env];
                        let dst = e.dst.obj(&self.stores);
                        tr.on_recv(self.now, pe, e.src_pe as usize, dst, e.bytes.get() as usize);
                    }
                    // A false return means parked/forwarded; with an empty
                    // queue there is nothing further to start either way.
                    self.execute(pe, env);
                    return;
                }
                self.enqueue_local(pe, env);
                self.try_start(pe);
            }
            Ev::PeFree { pe, dur } => {
                let pe = pe as usize;
                if !self.pes[pe].alive {
                    // The PE died mid-entry; the completion never happens.
                    return;
                }
                let (dst, entry) = self.pes[pe]
                    .current
                    .take()
                    .expect("PeFree without a running entry");
                self.pes[pe].busy = false;
                self.work.busy_pes -= 1;
                self.pes[pe].busy_time += dur;
                if let Some(power) = &mut self.power {
                    power.note_busy(self.machine.chip_of(pe), dur);
                }
                // Entry spans are traced here, at completion — the same
                // place `busy_time` accrues — so traced per-entry totals
                // agree exactly with `pe_busy_time` even when failures or
                // rollbacks cancel in-flight completions.
                if let Some(tr) = &mut self.tracer {
                    let obj = dst.obj(&self.stores);
                    tr.on_entry(pe, obj, entry, self.now.saturating_sub(dur), dur);
                }
                self.try_start(pe);
                if let Some(tr) = &mut self.tracer {
                    tr.pe_transition(self.now, pe, self.pes[pe].busy);
                }
            }
            Ev::PeRetry { pe } => self.try_start(pe as usize),
            Ev::MigrateArrive(m) => self.on_migrate_arrive(*m),
            Ev::DvfsTick => self.on_dvfs_tick(),
            Ev::NodeFail { pe } => self.on_node_failure(pe as usize),
            Ev::CkptCommit => self.on_ckpt_commit(),
            Ev::AutoCkpt => self.on_auto_ckpt(),
            Ev::Reconfigure { to } => self.on_reconfigure(to as usize),
            Ev::RtsLb { left, period } => self.on_rts_lb_tick(left, period),
            Ev::ElasticTick => self.on_elastic_tick(),
            Ev::PreemptWarn { pe, deadline } => self.on_preempt_warn(pe as usize, deadline),
        }
    }

    fn enqueue_local(&mut self, pe: usize, env: EnvId) {
        // Arrival order within a priority lane is the old `seq` tiebreak:
        // `messages` is bumped once per enqueue, so FIFO-per-lane in the
        // [`PrioQueue`] reproduces the former `(prio, seq)` heap order.
        self.stats.messages += 1;
        self.work.queued += 1;
        let e = &self.slab[env];
        if let Some(tr) = &mut self.tracer {
            let dst = e.dst.obj(&self.stores);
            tr.on_recv(self.now, pe, e.src_pe as usize, dst, e.bytes.get() as usize);
        }
        self.pes[pe].pending.push(e.prio, env);
        self.stats.pe_queue_ops += 1;
    }

    /// Begin executing the next queued message on `pe` if it is idle.
    /// Loops (rather than recursing) past messages that only need
    /// re-routing, so deep queues of stale envelopes can't blow the stack.
    fn try_start(&mut self, pe: usize) {
        loop {
            let p = &mut self.pes[pe];
            if p.busy || !p.alive || p.pending.is_empty() {
                return;
            }
            if self.now < p.blocked_until {
                let when = p.blocked_until;
                self.push_ev(when, Ev::PeRetry { pe: pe as u32 });
                return;
            }
            let env = p.pending.pop().expect("non-empty");
            self.stats.pe_queue_ops += 1;
            self.work.queued -= 1;
            if self.execute(pe, env) {
                return;
            }
        }
    }

    /// Is work outstanding: a message or migration in flight, a message
    /// queued, or an entry running? A reduction still waiting on
    /// contributions is not work by itself: only a message can bring the
    /// contributions it lacks. Quiescence detection, the auto-checkpoint
    /// tick and the elastic tick ask this.
    pub(crate) fn work_outstanding(&self) -> bool {
        self.work.inflight > 0 || self.work.queued > 0 || self.work.busy_pes > 0
    }

    /// Key-slot index for host-side sends.
    pub(crate) fn host_slot(&self) -> usize {
        self.machine.num_pes + SLOT_HOST
    }

    /// Key-slot index for reduction-callback deliveries.
    pub(crate) fn red_slot(&self) -> usize {
        self.machine.num_pes + SLOT_RED
    }

    /// Key-slot index for runtime-system events.
    pub(crate) fn rts_slot(&self) -> usize {
        self.machine.num_pes + SLOT_RTS
    }

    /// Allocate the next event key in `slot`.
    pub(crate) fn fresh_key(&mut self, slot: usize) -> u64 {
        self.reserve_keys(slot, 1)
    }

    /// Allocate `n` consecutive event keys in `slot` and return the first.
    pub(crate) fn reserve_keys(&mut self, slot: usize, n: u64) -> u64 {
        let k = ((slot as u64) << KEY_SLOT_SHIFT) | self.keys[slot];
        self.keys[slot] += n;
        debug_assert!(self.keys[slot] < 1 << KEY_SLOT_SHIFT, "key slot overflow");
        k
    }

    /// Allocate a runtime-wide message id (always, so recording is inert),
    /// charged to the current producer slot.
    pub(crate) fn fresh_rec_id(&mut self) -> u64 {
        let slot = self.cur_slot;
        self.fresh_key(slot)
    }

    /// Push a non-delivery event under a fresh key from the current slot.
    pub(crate) fn push_ev(&mut self, t: SimTime, ev: Ev) {
        debug_assert!(!matches!(ev, Ev::Deliver { .. }), "deliveries go through sched_deliver");
        let k = self.fresh_rec_id();
        self.events.push_keyed(t, k, ev);
    }

    /// Schedule a message delivery under its envelope key.
    pub(crate) fn sched_deliver(&mut self, t: SimTime, pe: usize, env: EnvId) {
        self.work.inflight += 1;
        let k = self.slab[env].rec_id;
        self.events
            .push_keyed(t, k, Ev::Deliver { pe: pe as u32, env });
    }

    /// Mint an envelope into the slab under a fresh key from the current
    /// producer slot (its `rec_id`), telling the recorder who produced it:
    /// `from_chare` marks a send by the executing chare itself.
    #[inline]
    pub(crate) fn mint(
        &mut self,
        dst: ElemRef,
        payload: Payload,
        bytes: usize,
        prio: i64,
        src_pe: usize,
        from_chare: bool,
    ) -> EnvId {
        let rec_id = self.fresh_rec_id();
        if let Some(r) = &mut self.recorder {
            r.note_origin(rec_id, from_chare);
        }
        let bytes = u32::try_from(bytes)
            .ok()
            .and_then(NonZeroU32::new)
            .expect("message wire size is nonzero and fits in u32");
        let src_pe = u32::try_from(src_pe).expect("PE index fits in u32");
        self.slab.insert(Envelope {
            dst,
            payload,
            prio,
            rec_id,
            bytes,
            src_pe,
        })
    }

    /// Execute one envelope on `pe` at `self.now`. Returns false when the
    /// envelope was parked or forwarded instead of executed.
    fn execute(&mut self, pe: usize, env: EnvId) -> bool {
        let e = &self.slab[env];
        let dst = e.dst;
        let aid = dst.array;
        let store = &mut self.stores[aid.0 as usize];

        // The element may have moved (stale cache delivered here) or may not
        // exist yet (dynamic insertion / migration in transit).
        match store.locate(dst.elem) {
            None => {
                self.limbo.entry(dst).or_default().push(env);
                return false;
            }
            Some(actual) if actual != pe => {
                // Forward along and update the original sender's cache.
                let (bytes, rec_id, src_pe) = (e.bytes.get() as usize, e.rec_id, e.src_pe as usize);
                let delay = self.net.delay(pe, actual, bytes, rec_id ^ TOKEN_AUX);
                self.loc_cache.insert(src_pe, dst, actual);
                self.stats.bytes_moved += bytes as u64;
                self.sched_deliver(self.now + delay, actual, env);
                return false;
            }
            Some(_) => {}
        }

        // The envelope is definitely consumed here: take it out of the slab
        // by value, freeing its slot for the next mint.
        let Envelope {
            mut payload,
            bytes,
            rec_id,
            ..
        } = self.slab.take(env);
        let bytes = bytes.get() as usize;
        let obj = ObjId { array: aid, ix: store.ix(dst.elem) };

        let entry_kind = match &payload {
            Payload::User(_) => EntryKind::Message,
            Payload::Sys(ev) => EntryKind::Event(ev.kind_name()),
        };
        // Digest the consumed payload *before* execution moves it into the
        // chare. Only pay the cost when recording. The recorder interns
        // the entry name (`array::kind`) once per pair.
        let rec_consumed = if self.recorder.is_some() {
            Some(match &mut payload {
                Payload::User(msg) => (store.user_msg_digest(msg), "on_message"),
                Payload::Sys(ev) => (sys_event_digest(ev), ev.kind_name()),
            })
        } else {
            None
        };
        let mut ctx = Ctx {
            now: self.now,
            pe,
            num_pes: self.live_pes,
            self_id: obj,
            work_units: 0.0,
            // Reuse one buffer across entry executions (allocation-free
            // steady state); returned to the scratch slot below.
            actions: std::mem::take(&mut self.action_scratch),
            rng: &mut self.rngs[pe],
            ctrl: &self.ctrl_snapshot,
        };
        // Runs the chare and charges its load in the one record borrow.
        let ok = store.execute(dst.elem, payload, &mut ctx, self.machine.flops_per_sec);
        debug_assert!(ok, "element existed a moment ago");
        self.stats.entries += 1;

        let work_units = ctx.work_units;
        let actions = std::mem::take(&mut ctx.actions);
        drop(ctx);

        // Entry duration: declared work at the PE's effective speed, plus
        // scheduling overhead, plus send-side software overhead per message.
        let speed = self.effective_speed(pe);
        let work_time = SimTime::from_secs_f64(work_units / (self.machine.flops_per_sec * speed));
        // Send-side software overhead: a remote send costs the full
        // injection overhead; a same-PE send is a queue push (~an order of
        // magnitude cheaper) — the asymmetry TRAM exploits (§III-F). Each
        // destination index is hashed here, once: `apply_actions` mints
        // with the handles.
        let mut send_cost = SimTime::ZERO;
        let (mut n_remote, mut n_local) = (0u32, 0u32);
        let mut sends = std::mem::take(&mut self.send_scratch);
        for a in &actions {
            match a {
                Action::Send { dst, .. } => {
                    let store = &mut self.stores[dst.array.0 as usize];
                    let elem = store.intern(&dst.ix);
                    sends.push(elem);
                    let local = store.locate(elem) == Some(pe);
                    send_cost += if local {
                        n_local += 1;
                        self.net.params().local_delivery
                    } else {
                        n_remote += 1;
                        self.net.send_overhead()
                    };
                }
                Action::Broadcast { .. } => {
                    n_remote += 1;
                    send_cost += self.net.send_overhead();
                }
                _ => {}
            }
        }
        let duration = work_time + SCHED_OVERHEAD + send_cost;

        let end = self.now + duration;
        self.pes[pe].busy = true;
        self.work.busy_pes += 1;
        self.pes[pe].current = Some((dst, entry_kind));
        if let Some(tr) = &mut self.tracer {
            tr.pe_transition(self.now, pe, true);
        }
        self.push_ev(end, Ev::PeFree { pe: pe as u32, dur: duration });

        if let (Some((digest, kind)), Some(r)) = (rec_consumed, self.recorder.as_mut()) {
            r.begin_exec(
                pe,
                self.now,
                duration,
                dst,
                obj,
                self.stores[aid.0 as usize].name(),
                kind,
                rec_id,
                digest,
                bytes,
                work_units,
                n_remote,
                n_local,
            );
        }
        let mut actions = actions;
        self.apply_actions(obj, dst, pe, end, &mut actions, &sends);
        self.action_scratch = actions;
        sends.clear();
        self.send_scratch = sends;
        if let Some(r) = &mut self.recorder {
            r.end_exec();
        }
        // State-digest points are taken at window edges (see
        // `take_due_digest_point`), not here.
        true
    }

    /// Apply one entry method's buffered actions; `src` and `src_ref` name
    /// the chare that ran, and `sends` holds the handles `execute` interned
    /// for its `Send`s, in order.
    fn apply_actions(
        &mut self,
        src: ObjId,
        src_ref: ElemRef,
        src_pe: usize,
        at: SimTime,
        actions: &mut Vec<Action>,
        sends: &[ElemId],
    ) {
        let mut sends = sends.iter();
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    dst,
                    payload,
                    bytes,
                    prio,
                    delay,
                } => {
                    self.lb.note_comm(src, dst, bytes);
                    let elem = *sends.next().expect("a handle per send");
                    let dst = ElemRef { array: dst.array, elem };
                    let env = self.mint(dst, Payload::User(payload), bytes, prio, src_pe, true);
                    self.route_and_schedule(env, at + delay);
                }
                Action::Broadcast {
                    array,
                    make,
                    bytes,
                    prio,
                } => {
                    let token = self.cur_dispatch.1 ^ TOKEN_AUX;
                    self.spanning_broadcast(array, &*make, bytes, prio, true, src_pe, at, token);
                }
                Action::Contribute {
                    array,
                    tag,
                    value,
                    op,
                    cb,
                } => self.contribute(array, tag, value, op, cb, at),
                Action::AtSync => self.on_at_sync(src_ref, at),
                Action::MigrateMe { to } => self.start_migration(src, to, at),
                Action::Insert {
                    array,
                    ix,
                    chare,
                    pe,
                } => {
                    let pe = pe.unwrap_or_else(|| self.home_pe(array, &ix));
                    let pe = pe.min(self.live_pes - 1);
                    let elem = self.stores[array.0 as usize].insert_boxed(ix, pe, chare);
                    let dst = ElemRef { array, elem };
                    self.deliver_sys(dst, SysEvent::Inserted, at, 0);
                    self.flush_limbo(dst);
                }
                Action::DestroyMe => {
                    self.stores[src.array.0 as usize].remove_element(&src.ix);
                }
                Action::Exit => self.exit_requested = true,
                Action::Metric { name, value } => self.journal(&name, at, value),
                Action::RequestQuiescence { cb } => {
                    assert!(self.qd.is_none(), "concurrent quiescence detections");
                    self.qd = Some(cb);
                }
                Action::CtrlFeedback { objective } => {
                    self.ctrl.observe(objective);
                    self.ctrl_snapshot = self.ctrl.snapshot();
                }
                Action::MemCheckpoint { cb } => self.start_mem_checkpoint(cb, at),
                Action::RequestLb => self.rts_triggered_lb(),
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Ix;
    use charm_pup::Puper;

    /// A chare that counts pings and replies with pongs.
    #[derive(Default)]
    pub(crate) struct Ping {
        pub(crate) count: u64,
        pub(crate) peer: Option<i64>,
        pub(crate) limit: u64,
    }
    impl charm_pup::Pup for Ping {
        fn pup(&mut self, p: &mut Puper) {
            p.p(&mut self.count);
            p.p(&mut self.peer);
            p.p(&mut self.limit);
        }
    }
    #[derive(Default, Clone)]
    pub(crate) struct PingMsg;
    impl charm_pup::Pup for PingMsg {
        fn pup(&mut self, _p: &mut Puper) {}
    }
    impl Chare for Ping {
        type Msg = PingMsg;
        fn on_message(&mut self, _m: PingMsg, ctx: &mut Ctx<'_>) {
            self.count += 1;
            ctx.work(1000.0);
            if self.count < self.limit {
                if let Some(peer) = self.peer {
                    let proxy = ArrayProxy::<Ping>::new(ctx.my_id().array);
                    ctx.send(proxy, Ix::i1(peer), PingMsg);
                }
            } else {
                ctx.exit();
            }
        }
    }

    pub(crate) fn ping_setup(pes: usize) -> (Runtime, ArrayProxy<Ping>) {
        let mut rt = Runtime::homogeneous(pes);
        let arr = rt.create_array::<Ping>("ping");
        rt.insert(
            arr,
            Ix::i1(0),
            Ping {
                count: 0,
                peer: Some(1),
                limit: 10,
            },
            Some(0),
        );
        rt.insert(
            arr,
            Ix::i1(1),
            Ping {
                count: 0,
                peer: Some(0),
                limit: 10,
            },
            Some(pes - 1),
        );
        (rt, arr)
    }

    #[test]
    fn ping_pong_advances_time_and_terminates() {
        let (mut rt, arr) = ping_setup(4);
        rt.send(arr, Ix::i1(0), PingMsg);
        let sum = rt.run();
        assert!(sum.end_time > SimTime::ZERO);
        assert!(sum.entries >= 10, "entries={}", sum.entries);
        assert!(sum.messages >= 10);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut rt, arr) = ping_setup(4);
            rt.send(arr, Ix::i1(0), PingMsg);
            let s = rt.run();
            (s.end_time, s.entries, s.messages, s.bytes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn priorities_order_execution() {
        // Two messages delivered at the same instant to a busy PE: the
        // lower-priority-value one must run first.
        #[derive(Default)]
        struct Order {
            seen: Vec<i64>,
        }
        impl charm_pup::Pup for Order {
            fn pup(&mut self, p: &mut Puper) {
                p.p(&mut self.seen);
            }
        }
        impl Chare for Order {
            type Msg = i64;
            fn on_message(&mut self, m: i64, ctx: &mut Ctx<'_>) {
                if m == 100 {
                    // filler: keeps the PE busy while the others queue up
                    ctx.work(1e6);
                    return;
                }
                self.seen.push(m);
                ctx.log_metric("seen", m as f64);
            }
        }
        let mut rt = Runtime::homogeneous(1);
        let arr = rt.create_array::<Order>("order");
        rt.insert(arr, Ix::i1(0), Order::default(), Some(0));
        // Three sends from the host land together; prios 5, -1, 2.
        // Host sends don't let us set prio, so drive via a first message.
        #[derive(Default)]
        struct Driver;
        impl charm_pup::Pup for Driver {
            fn pup(&mut self, _p: &mut Puper) {}
        }
        impl Chare for Driver {
            type Msg = u8;
            fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
                let arr = ArrayProxy::<Order>::new(ArrayId(0));
                // A long filler keeps the PE busy so the prioritized
                // messages are *queued* together before any executes.
                ctx.send_prio(arr, Ix::i1(0), 100, 0);
                ctx.send_prio(arr, Ix::i1(0), 5, 5);
                ctx.send_prio(arr, Ix::i1(0), -1, -1);
                ctx.send_prio(arr, Ix::i1(0), 2, 2);
            }
        }
        let drv = rt.create_array::<Driver>("driver");
        rt.insert(drv, Ix::i1(0), Driver, Some(0));
        rt.send(drv, Ix::i1(0), 0u8);
        rt.run();
        let seen: Vec<f64> = rt.metric("seen").iter().map(|x| x.1).collect();
        assert_eq!(seen, vec![-1.0, 2.0, 5.0]);
    }

    #[test]
    fn work_scales_execution_time() {
        #[derive(Default)]
        struct W;
        impl charm_pup::Pup for W {
            fn pup(&mut self, _p: &mut Puper) {}
        }
        impl Chare for W {
            type Msg = f64;
            fn on_message(&mut self, units: f64, ctx: &mut Ctx<'_>) {
                ctx.work(units);
            }
        }
        let time_for = |units: f64| {
            let mut rt = Runtime::homogeneous(1);
            let arr = rt.create_array::<W>("w");
            rt.insert(arr, Ix::i1(0), W, Some(0));
            rt.send(arr, Ix::i1(0), units);
            rt.run().end_time
        };
        let t1 = time_for(1e6);
        let t2 = time_for(2e6);
        // 1e6 units at 1e9 flops = 1 ms; doubling work adds ~1 ms.
        let delta = (t2 - t1).as_secs_f64();
        assert!((delta - 1e-3).abs() < 1e-4, "delta={delta}");
    }
}
