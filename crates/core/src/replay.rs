//! Record/replay hooks — the runtime half of the `charm-replay` subsystem
//! (paper §V: Projections/BigSim-style tooling).
//!
//! Recording captures the *causal* structure of a run at the same dispatch
//! points the tracer instruments: one [`ExecRec`] per executed entry method
//! (which message it consumed, its PUP payload digest, how much work it
//! declared, what it sent), plus periodic PUP-based chare-state digests and
//! a final state digest. The log is complete enough to
//!
//! * **verify** a re-run digest-for-digest (`charm-replay`'s `verify`),
//! * **diff** a perturbed run's delivery order per chare (race hunting), and
//! * **re-simulate** the communication/computation DAG under a different
//!   [`MachineConfig`](charm_machine::MachineConfig) (what-if prediction).
//!
//! Everything here is inert unless [`RuntimeBuilder::record`] /
//! [`RuntimeBuilder::perturb`](crate::RuntimeBuilder::perturb) was called:
//! the per-message hooks reduce to a branch on `None`, exactly like tracing.
//!
//! In memory a log is flat arrays addressed by small indices, the way the
//! engine holds envelopes and elements (DESIGN §4.4): an exec names its chare
//! by an index into [`ReplayLog::chares`] and its sends by an offset into
//! [`ReplayLog::sends`]. Execs and sends sit in [`ChunkVec`]s, which grow by
//! fixed-size chunks and never copy. The `.rlog` wire layout is the nested
//! one — an `ObjId` per exec and a send list per exec — written and read by
//! a hand-written [`Pup`] for [`ReplayLog`].

use crate::array::{ElemRef, ObjId};
use crate::chare::{RedValue, SysEvent};
use crate::chunked::{self, ChunkVec};
use crate::runtime::KEY_SLOT_SHIFT;
use charm_machine::SimTime;
use charm_pup::{Pup, Puper};
use fxhash::FxHashMap;

/// Configuration for [`RuntimeBuilder::record`](crate::RuntimeBuilder::record).
#[derive(Debug, Clone, Default)]
pub struct ReplayConfig {
    /// Take a full chare-state digest point every this many executed entries
    /// (`None` = only the final state is digested). Periodic points make
    /// divergence *localization* possible, not just detection.
    pub digest_every: Option<u64>,
    /// Stop recording after this many executed entries (`None` = unbounded).
    /// Service-style workloads execute indefinitely, so an uncapped log
    /// grows without bound; a cap keeps the in-memory buffer fixed while
    /// [`RunSummary`](crate::RunSummary)'s `replay_shed_execs` /
    /// `replay_shed_sends` make the truncation visible. The recorded prefix
    /// is byte-identical to the same prefix of an uncapped recording; state
    /// points past the cap are suppressed (the final-state digest still
    /// reflects the true end of the run, so end-to-end `verify` only makes
    /// sense for uncapped logs).
    pub max_execs: Option<u64>,
}

impl ReplayConfig {
    /// Record with a state-digest point every `n` executed entries.
    pub fn with_digest_every(n: u64) -> Self {
        assert!(n > 0, "digest interval must be positive");
        ReplayConfig {
            digest_every: Some(n),
            ..Default::default()
        }
    }
}

/// [`ExecRec::msg_src`] of a message no chare sent: a host send or an
/// RTS-origin event.
pub const NO_CHARE: u32 = u32::MAX;

/// One recorded message send, held in [`ReplayLog::sends`] under the
/// execution that produced it (or in [`ReplayLog::roots`] for host/RTS-injected
/// messages).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SendRec {
    /// Runtime-wide message id (`Envelope::rec_id`).
    pub msg_id: u64,
    /// Wire size including the envelope (checked to fit `u32` when the
    /// message was minted).
    pub bytes: u32,
    /// PE the send was issued from.
    pub src_pe: u32,
    /// PE the delivery was scheduled to (post location-resolution).
    pub dst_pe: u32,
    /// Spanning-tree depth charged for collective deliveries (0 = plain
    /// point-to-point).
    pub tree_depth: u32,
    /// Control-message size of the home-PE location query round trip that
    /// preceded this send (0 = cache hit / local).
    pub rtt_bytes: u32,
}

/// `bytes` and `rtt_bytes` travel as `u64`: the `.rlog` v1 layout.
impl Pup for SendRec {
    fn pup(&mut self, p: &mut Puper) {
        let (mut bytes, mut rtt_bytes) = (self.bytes as u64, self.rtt_bytes as u64);
        p.p(&mut self.msg_id);
        p.p(&mut bytes);
        p.p(&mut self.src_pe);
        p.p(&mut self.dst_pe);
        p.p(&mut self.tree_depth);
        p.p(&mut rtt_bytes);
        if p.is_unpacking() {
            self.bytes = narrow(bytes, "send bytes");
            self.rtt_bytes = narrow(rtt_bytes, "send rtt_bytes");
        }
    }
}

/// One executed entry method: the unit of the recorded DAG. Its index in
/// [`ReplayLog::execs`] is its place in the global execution order (the
/// total order the deterministic scheduler produced); `msg_id` and the sends
/// stitch executions into a causal graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecRec {
    /// PE it ran on.
    pub pe: u32,
    /// Virtual start time (ns).
    pub start_ns: u64,
    /// Modeled duration (ns): work + scheduling overhead + send costs.
    pub dur_ns: u64,
    /// The chare that ran: an index into [`ReplayLog::chares`].
    pub dst: u32,
    /// Index into [`ReplayLog::entry_names`].
    pub entry: u32,
    /// Id of the consumed message.
    pub msg_id: u64,
    /// The chare whose execution produced the consumed message, as an index
    /// into [`ReplayLog::chares`]; [`NO_CHARE`] for host sends and RTS-origin
    /// events. [`ReplayLog::msg_src`] resolves it.
    pub msg_src: u32,
    /// PUP digest of the consumed payload.
    pub msg_digest: u64,
    /// Wire size of the consumed message.
    pub msg_bytes: u32,
    /// Declared work in FLOP (speed-independent, so what-if can re-cost it).
    pub work: f64,
    /// Sends charged at remote-injection cost.
    pub n_remote: u32,
    /// Sends charged at local-delivery cost.
    pub n_local: u32,
    /// Offset of this execution's first send in [`ReplayLog::sends`]; its
    /// sends run up to the next execution's ([`ReplayLog::sends_of`]).
    pub first_send: u32,
}

impl Default for ExecRec {
    fn default() -> Self {
        ExecRec {
            pe: 0,
            start_ns: 0,
            dur_ns: 0,
            dst: 0,
            entry: 0,
            msg_id: 0,
            msg_src: NO_CHARE,
            msg_digest: 0,
            msg_bytes: 0,
            work: 0.0,
            n_remote: 0,
            n_local: 0,
            first_send: 0,
        }
    }
}

/// A full chare-state digest at one point of the execution order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DigestPoint {
    /// Number of entries executed when the point was taken.
    pub seq: u64,
    /// Virtual time (ns).
    pub t_ns: u64,
    /// `(chare, PUP state digest)`, sorted by chare id.
    pub digests: Vec<(ObjId, u64)>,
}

charm_pup::impl_pup_struct!(DigestPoint { seq, t_ns, digests });

/// The complete record of one run. Produced by
/// [`Runtime::take_replay_log`](crate::Runtime::take_replay_log); persisted
/// and consumed by the `charm-replay` crate.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplayLog {
    /// Free-form application label (set by the recording driver).
    pub app: String,
    /// Machine preset name the run executed on.
    pub machine: String,
    /// PE count of the recording run.
    pub num_pes: u64,
    /// Run seed.
    pub seed: u64,
    /// Per-entry scheduling overhead (ns) of the recording run.
    pub sched_overhead_ns: u64,
    /// Spanning-tree arity of the recording run's collectives.
    pub collective_arity: u64,
    /// Reference FLOP/s of the recording machine.
    pub flops_per_sec: f64,
    /// Interned entry-method names (`ExecRec::entry` indexes this).
    pub entry_names: Vec<String>,
    /// Every chare that executed, in the order it first executed
    /// (`ExecRec::dst` and `ExecRec::msg_src` index this).
    pub chares: Vec<ObjId>,
    /// Every executed entry, in execution order.
    pub execs: ChunkVec<ExecRec>,
    /// Every message an execution produced, grouped by execution in
    /// execution order; within one execution, routed sends in routing
    /// order, then reduction-fold sends in fold order.
    pub sends: ChunkVec<SendRec>,
    /// Messages injected from outside any execution (host sends, RTS).
    pub roots: Vec<SendRec>,
    /// Periodic state-digest points (when configured).
    pub state_points: Vec<DigestPoint>,
    /// Digest of every chare's state at the end of the run.
    pub final_state: DigestPoint,
    /// Final virtual time (ns).
    pub end_ns: u64,
}

impl ReplayLog {
    /// The chare behind an [`ExecRec::dst`] / [`ExecRec::msg_src`] index.
    pub fn chare(&self, i: u32) -> ObjId {
        self.chares[i as usize]
    }

    /// The chare that sent the message `e` consumed (`None` for host sends
    /// and RTS-origin events).
    pub fn msg_src(&self, e: &ExecRec) -> Option<ObjId> {
        (e.msg_src != NO_CHARE).then(|| self.chare(e.msg_src))
    }

    /// The messages execution `i` produced, in recorded order (they may
    /// straddle two chunks of [`ReplayLog::sends`]).
    pub fn sends_of(&self, i: usize) -> chunked::Iter<'_, SendRec> {
        let end = self
            .execs
            .get(i + 1)
            .map_or(self.sends.len(), |e| e.first_send as usize);
        self.sends.range(self.execs[i].first_send as usize..end)
    }

    /// The packed `.rlog` body, from a shared borrow (no copy of the log).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut sizer = Puper::sizer();
        self.pack(&mut sizer);
        let mut p = Puper::packer(sizer.size());
        self.pack(&mut p);
        p.into_bytes()
    }

    /// Drive a sizing, packing or digesting puper through the v1 layout:
    /// each exec carries its index as `seq`, its chares as `ObjId`s and its
    /// sends as a nested list.
    fn pack(&self, p: &mut Puper) {
        p.p(&mut self.app.clone());
        p.p(&mut self.machine.clone());
        for mut v in [
            self.num_pes,
            self.seed,
            self.sched_overhead_ns,
            self.collective_arity,
        ] {
            p.p(&mut v);
        }
        p.p(&mut { self.flops_per_sec });
        p.p(&mut self.entry_names.clone());
        p.p(&mut (self.execs.len() as u64));
        for (i, e) in self.execs.iter().enumerate() {
            p.p(&mut (i as u64));
            p.p(&mut { e.pe });
            p.p(&mut { e.start_ns });
            p.p(&mut { e.dur_ns });
            p.p(&mut self.chare(e.dst));
            p.p(&mut { e.entry });
            p.p(&mut { e.msg_id });
            p.p(&mut self.msg_src(e));
            p.p(&mut { e.msg_digest });
            p.p(&mut (e.msg_bytes as u64));
            p.p(&mut { e.work });
            p.p(&mut { e.n_remote });
            p.p(&mut { e.n_local });
            pack_sends(p, self.sends_of(i));
        }
        pack_sends(p, self.roots.iter());
        p.p(&mut (self.state_points.len() as u64));
        for d in &self.state_points {
            pack_point(p, d);
        }
        pack_point(p, &self.final_state);
        p.p(&mut { self.end_ns });
    }

    /// Read the v1 layout back into the flat form: chares are interned in
    /// first-appearance order, which is the recorder's first-exec order.
    fn unpack(&mut self, p: &mut Puper) {
        *self = ReplayLog::default();
        p.p(&mut self.app);
        p.p(&mut self.machine);
        p.p(&mut self.num_pes);
        p.p(&mut self.seed);
        p.p(&mut self.sched_overhead_ns);
        p.p(&mut self.collective_arity);
        p.p(&mut self.flops_per_sec);
        p.p(&mut self.entry_names);
        let n = unpack_len(p);
        let mut ids: FxHashMap<ObjId, u32> = FxHashMap::default();
        let chares = &mut self.chares;
        let mut intern = |o: ObjId| {
            *ids.entry(o).or_insert_with(|| {
                chares.push(o);
                narrow(chares.len() as u64 - 1, "chare index")
            })
        };
        for i in 0..n {
            let mut seq = 0u64;
            p.p(&mut seq);
            assert_eq!(seq, i as u64, "exec {i} carries seq {seq} while unpacking");
            let mut e = ExecRec::default();
            let (mut dst, mut msg_src, mut msg_bytes) = (ObjId::default(), None, 0u64);
            p.p(&mut e.pe);
            p.p(&mut e.start_ns);
            p.p(&mut e.dur_ns);
            p.p(&mut dst);
            p.p(&mut e.entry);
            p.p(&mut e.msg_id);
            p.p(&mut msg_src);
            p.p(&mut e.msg_digest);
            p.p(&mut msg_bytes);
            p.p(&mut e.work);
            p.p(&mut e.n_remote);
            p.p(&mut e.n_local);
            e.dst = intern(dst);
            e.msg_src = msg_src.map_or(NO_CHARE, &mut intern);
            e.msg_bytes = narrow(msg_bytes, "exec msg_bytes");
            e.first_send = narrow(self.sends.len() as u64, "send offset");
            for _ in 0..unpack_len(p) {
                let mut s = SendRec::default();
                p.p(&mut s);
                self.sends.push(s);
            }
            self.execs.push(e);
        }
        p.p(&mut self.roots);
        p.p(&mut self.state_points);
        p.p(&mut self.final_state);
        p.p(&mut self.end_ns);
    }
}

/// The `.rlog` body: packing, sizing and digesting read the log through
/// [`ReplayLog::to_bytes`]'s shared-borrow traversal; unpacking rebuilds
/// the flat form.
impl Pup for ReplayLog {
    fn pup(&mut self, p: &mut Puper) {
        if p.is_unpacking() {
            self.unpack(p);
        } else {
            self.pack(p);
        }
    }
}

/// A `u64` from the wire that the flat form keeps as `u32`.
fn narrow(v: u64, what: &str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("{what} {v} overflows u32 while unpacking"))
}

fn unpack_len(p: &mut Puper) -> usize {
    let mut n = 0u64;
    p.p(&mut n);
    usize::try_from(n).expect("length overflows usize while unpacking")
}

fn pack_sends<'a>(p: &mut Puper, sends: impl ExactSizeIterator<Item = &'a SendRec>) {
    p.p(&mut (sends.len() as u64));
    for s in sends {
        p.p(&mut { *s });
    }
}

fn pack_point(p: &mut Puper, d: &DigestPoint) {
    p.p(&mut { d.seq });
    p.p(&mut { d.t_ns });
    p.p(&mut (d.digests.len() as u64));
    for &pair in &d.digests {
        p.p(&mut { pair });
    }
}

/// Digest a system event the way user payloads are digested — manually,
/// since `SysEvent` deliberately has no wire `Pup` (it never crosses a
/// checkpoint boundary). Folds the kind name plus every field.
pub(crate) fn sys_event_digest(ev: &SysEvent) -> u64 {
    let mut p = charm_pup::Puper::digester();
    let mut name = ev.kind_name().to_string();
    p.p(&mut name);
    match ev {
        SysEvent::Reduction { tag, value } => {
            p.p(&mut { *tag });
            red_value_digest(&mut p, value);
        }
        SysEvent::Migrated { from_pe } => p.p(&mut { *from_pe }),
        SysEvent::Restarted { failed_pe } => p.p(&mut { *failed_pe }),
        SysEvent::ResumeFromSync
        | SysEvent::QuiescenceDetected
        | SysEvent::CheckpointDone
        | SysEvent::Inserted => {}
    }
    p.digest()
}

fn red_value_digest(p: &mut charm_pup::Puper, v: &RedValue) {
    match v {
        RedValue::F64(x) => p.p(&mut { *x }),
        RedValue::I64(x) => p.p(&mut { *x }),
        RedValue::VecF64(xs) => p.p(&mut xs.clone()),
        RedValue::VecI64(xs) => p.p(&mut xs.clone()),
        RedValue::Bytes(xs) => p.p(&mut xs.clone()),
    }
}

/// What the recorder knows about one message id: nothing yet, which exec
/// produced it (remembered from creation until its first routing), or that
/// its routing is on the record — and, for a message a chare sent itself,
/// which exec sent it, kept past routing: the consuming exec's
/// [`ExecRec::msg_src`] is that exec's `dst`. Packed into a `u32` lane cell.
#[derive(Clone, Copy, Debug, PartialEq)]
enum MsgState {
    /// No origin noted.
    Unknown,
    /// Routing already recorded (no sending chare): later forwards and
    /// limbo re-flushes are extra hops of the same send.
    Routed,
    /// Host send or RTS-origin event: becomes a [`ReplayLog::roots`] entry.
    External,
    /// Sent by a reduction fold whose contributor is not on the record
    /// (shed past the cap): a root, listed after every other root.
    Orphan,
    /// Produced by the exec at this local index without being sent by its
    /// chare (a system event the exec's actions triggered).
    Exec(u32),
    /// Produced by the window-boundary reduction fold, which runs outside
    /// any exec, on behalf of the contributing exec at this local index.
    Fold(u32),
    /// Sent by the chare of the exec at this local index.
    Sent(u32),
    /// [`MsgState::Sent`] after its routing was recorded.
    RoutedFrom(u32),
}

impl MsgState {
    const UNKNOWN: u32 = 0;
    const ROUTED: u32 = 1;
    const EXTERNAL: u32 = 2;
    const ORPHAN: u32 = 3;
    /// First cell value that carries an index: `BASE + 4 * i + t`, with
    /// `t` = 0 `Exec`, 1 `Fold`, 2 `Sent`, 3 `RoutedFrom`.
    const BASE: u32 = 4;
    /// Largest index a cell can carry.
    const MAX_INDEX: usize = ((u32::MAX - Self::BASE - 3) / 4) as usize;

    fn pack(self) -> u32 {
        match self {
            MsgState::Unknown => Self::UNKNOWN,
            MsgState::Routed => Self::ROUTED,
            MsgState::External => Self::EXTERNAL,
            MsgState::Orphan => Self::ORPHAN,
            MsgState::Exec(i) => Self::BASE + 4 * i,
            MsgState::Fold(i) => Self::BASE + 4 * i + 1,
            MsgState::Sent(i) => Self::BASE + 4 * i + 2,
            MsgState::RoutedFrom(i) => Self::BASE + 4 * i + 3,
        }
    }

    fn unpack(cell: u32) -> Self {
        match cell {
            Self::UNKNOWN => MsgState::Unknown,
            Self::ROUTED => MsgState::Routed,
            Self::EXTERNAL => MsgState::External,
            Self::ORPHAN => MsgState::Orphan,
            c => {
                let i = (c - Self::BASE) / 4;
                match (c - Self::BASE) % 4 {
                    0 => MsgState::Exec(i),
                    1 => MsgState::Fold(i),
                    2 => MsgState::Sent(i),
                    _ => MsgState::RoutedFrom(i),
                }
            }
        }
    }
}

/// Per-message state in dense lanes: message ids are
/// `slot << KEY_SLOT_SHIFT | counter` with one monotone counter per
/// producer slot, so `lanes[slot][counter]` reaches a message's cell with
/// two indexed loads and no hashing, and a lane grows by appending. One
/// `u32` per id the slot ever allocated.
#[derive(Default)]
struct MsgLanes {
    lanes: Vec<ChunkVec<u32>>,
}

impl MsgLanes {
    #[inline]
    fn cell(&mut self, msg_id: u64) -> &mut u32 {
        let slot = (msg_id >> KEY_SLOT_SHIFT) as usize;
        let ctr = (msg_id & ((1 << KEY_SLOT_SHIFT) - 1)) as usize;
        if slot >= self.lanes.len() {
            self.lanes.resize_with(slot + 1, ChunkVec::new);
        }
        let lane = &mut self.lanes[slot];
        while lane.len() <= ctr {
            lane.push(MsgState::UNKNOWN);
        }
        &mut lane[ctr]
    }
}

/// The in-flight recording state. Lives inside the [`Runtime`](crate::Runtime)
/// behind an `Option`, tracer-style. It fills the log's own arrays as the
/// run goes, so building the log moves them.
pub(crate) struct Recorder {
    pub(crate) cfg: ReplayConfig,
    entry_names: Vec<String>,
    /// Interned [`ExecRec::entry`] per `(array, entry kind)`, so an exec
    /// neither formats nor compares its `array::kind` name: indexed by
    /// array id, then scanned by kind (an array sees a handful).
    entry_memo: Vec<Vec<(&'static str, u32)>>,
    /// [`ReplayLog::chares`] so far.
    chares: Vec<ObjId>,
    /// `chare index + 1` per element handle, one lane per array (0 = not
    /// executed yet): a handle names one index for the whole run, so an
    /// exec finds its chare with two indexed loads and no hashing.
    chare_lanes: Vec<Vec<u32>>,
    /// Every exec so far. `first_send` counts the sends in `sends` before
    /// it; building the log adds those that routed late.
    execs: ChunkVec<ExecRec>,
    /// Sends routed while their exec was current — in exec order, so
    /// already grouped by exec.
    sends: ChunkVec<SendRec>,
    /// Sends routed after their exec ended, in routing order, keyed
    /// `2 × exec` (a limbo flush) or `2 × exec + 1` (a reduction-fold
    /// send): building the log merges them in behind the exec's own.
    late: ChunkVec<(u32, SendRec)>,
    roots: Vec<SendRec>,
    /// Fold sends whose contributor is not on the record; they follow
    /// `roots`.
    orphans: Vec<SendRec>,
    state_points: Vec<DigestPoint>,
    /// msg id → origin until routed, then the routed mark (re-routes after
    /// limbo flushes and stale-cache forwards must not duplicate the send).
    msgs: MsgLanes,
    /// Index of the exec currently applying its actions.
    current: Option<u32>,
    /// `(scheduler dispatch key, exec index)` of every exec that
    /// contributed to a reduction, ascending in both: how a fold finds the
    /// exec it sends for.
    contribs: ChunkVec<((u64, u64), u32)>,
    /// While set, new messages are attributed to this fold origin instead
    /// of `current` (reduction-fold callbacks).
    fold: Option<MsgState>,
    /// Entry executions dropped past [`ReplayConfig::max_execs`].
    shed_execs: u64,
    /// Sends dropped because their producing exec was shed.
    shed_sends: u64,
}

impl Recorder {
    pub(crate) fn new(cfg: ReplayConfig) -> Self {
        Recorder {
            cfg,
            entry_names: Vec::new(),
            entry_memo: Vec::new(),
            chares: Vec::new(),
            chare_lanes: Vec::new(),
            execs: ChunkVec::new(),
            sends: ChunkVec::new(),
            late: ChunkVec::new(),
            roots: Vec::new(),
            orphans: Vec::new(),
            state_points: Vec::new(),
            msgs: MsgLanes::default(),
            current: None,
            contribs: ChunkVec::new(),
            fold: None,
            shed_execs: 0,
            shed_sends: 0,
        }
    }

    /// Has the exec cap been reached?
    fn capped(&self) -> bool {
        self.cfg
            .max_execs
            .is_some_and(|m| self.execs.len() as u64 >= m)
    }

    /// Entry executions shed past the cap.
    pub(crate) fn shed_execs(&self) -> u64 {
        self.shed_execs
    }

    /// Sends shed because their producing exec was shed.
    pub(crate) fn shed_sends(&self) -> u64 {
        self.shed_sends
    }

    /// Index of `name` in `entry_names`, appended on first sight. Only
    /// reached once per `(array, kind)`, so a scan over the handful of
    /// names beats any hash table.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(i) = self.entry_names.iter().position(|n| n == name) {
            return i as u32;
        }
        self.entry_names.push(name.to_string());
        self.entry_names.len() as u32 - 1
    }

    /// [`ExecRec::entry`] for `kind` of `array`; `array_name` is only read
    /// the first time the pair executes.
    fn entry_index(&mut self, array: usize, array_name: &str, kind: &'static str) -> u32 {
        if array >= self.entry_memo.len() {
            self.entry_memo.resize_with(array + 1, Vec::new);
        }
        if let Some(&(_, i)) = self.entry_memo[array].iter().find(|(k, _)| *k == kind) {
            return i;
        }
        let i = self.intern(&format!("{array_name}::{kind}"));
        self.entry_memo[array].push((kind, i));
        i
    }

    /// [`ExecRec::dst`] of the element behind `dst`, whose identity is
    /// `obj`: appended to `chares` the first time it executes.
    fn chare_index(&mut self, dst: ElemRef, obj: ObjId) -> u32 {
        let array = dst.array.0 as usize;
        if array >= self.chare_lanes.len() {
            self.chare_lanes.resize_with(array + 1, Vec::new);
        }
        let lane = &mut self.chare_lanes[array];
        let elem = dst.elem.0 as usize;
        if elem >= lane.len() {
            lane.resize(elem + 1, 0);
        }
        if lane[elem] == 0 {
            self.chares.push(obj);
            lane[elem] = self.chares.len() as u32;
        }
        lane[elem] - 1
    }

    /// Number of entries executed so far.
    pub(crate) fn execs_len(&self) -> u64 {
        self.execs.len() as u64
    }

    /// The current exec contributed to a reduction under scheduler
    /// dispatch key `dispatch`. Execs run in key order, so the list stays
    /// sorted; an exec that contributes twice is listed once.
    pub(crate) fn on_contribute(&mut self, dispatch: (u64, u64)) {
        let Some(i) = self.current else {
            return; // shed past the cap
        };
        match self.contribs.last() {
            Some(&(_, j)) if j == i => {}
            last => {
                debug_assert!(
                    last.is_none_or(|&(k, _)| k < dispatch),
                    "execs run in key order"
                );
                self.contribs.push((dispatch, i));
            }
        }
    }

    /// A reduction fold is about to send on behalf of the contribution made
    /// under `dispatch`: until [`Recorder::end_fold`], new messages belong
    /// to that contributor's exec.
    pub(crate) fn begin_fold(&mut self, dispatch: (u64, u64)) {
        let k = self.contribs.partition_point(|&(key, _)| key < dispatch);
        self.fold = Some(match self.contribs.get(k) {
            Some(&(key, i)) if key == dispatch => MsgState::Fold(i),
            _ => MsgState::Orphan,
        });
    }

    pub(crate) fn end_fold(&mut self) {
        self.fold = None;
    }

    /// A new message was created; remember which exec (if any) produced it
    /// and whether that exec's chare sent it (`from_chare`).
    pub(crate) fn note_origin(&mut self, msg_id: u64, from_chare: bool) {
        let origin = match (self.fold, self.current) {
            (Some(fold), _) => {
                debug_assert!(!from_chare, "a reduction fold sends nothing for a chare");
                fold
            }
            (None, Some(i)) if from_chare => MsgState::Sent(i),
            (None, Some(i)) => MsgState::Exec(i),
            // Past the exec cap nothing executes on the record, so a
            // message without a current exec has no recordable producer:
            // leave its cell unknown and count the send when it routes.
            (None, None) if self.capped() => return,
            (None, None) => MsgState::External,
        };
        *self.msgs.cell(msg_id) = origin.pack();
    }

    /// A message's delivery was scheduled (first routing only; later
    /// forwards and limbo re-flushes are extra hops of the same send).
    /// `bytes` and `rtt_bytes` are envelope sizes, `u32`-checked at mint.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn on_routed(
        &mut self,
        msg_id: u64,
        bytes: usize,
        src_pe: usize,
        dst_pe: usize,
        tree_depth: u64,
        rtt_bytes: usize,
    ) {
        let cell = self.msgs.cell(msg_id);
        let state = MsgState::unpack(*cell);
        *cell = match state {
            MsgState::Routed | MsgState::RoutedFrom(_) => return,
            MsgState::Sent(i) => MsgState::RoutedFrom(i),
            _ => MsgState::Routed,
        }
        .pack();
        let rec = SendRec {
            msg_id,
            bytes: bytes as u32,
            src_pe: src_pe as u32,
            dst_pe: dst_pe as u32,
            tree_depth: tree_depth as u32,
            rtt_bytes: rtt_bytes as u32,
        };
        match state {
            MsgState::Routed | MsgState::RoutedFrom(_) => unreachable!("returned above"),
            MsgState::Exec(i) | MsgState::Sent(i) if self.current == Some(i) => {
                self.sends.push(rec)
            }
            MsgState::Exec(i) | MsgState::Sent(i) => self.late.push((2 * i, rec)),
            MsgState::Fold(i) => self.late.push((2 * i + 1, rec)),
            MsgState::Orphan => self.orphans.push(rec),
            // An untracked message under a capped recording was produced
            // past the cap: shed it (visibly) instead of growing `roots`.
            MsgState::Unknown if self.capped() => self.shed_sends += 1,
            MsgState::External | MsgState::Unknown => self.roots.push(rec),
        }
    }

    /// An entry method is about to apply its actions; every send recorded
    /// until [`Recorder::end_exec`] belongs to it. `dst` is the executing
    /// element's handle and `obj` its identity; `array_name` and `kind`
    /// name the entry (`<array>::<kind>`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn begin_exec(
        &mut self,
        pe: usize,
        start: SimTime,
        dur: SimTime,
        dst: ElemRef,
        obj: ObjId,
        array_name: &str,
        kind: &'static str,
        msg_id: u64,
        msg_digest: u64,
        msg_bytes: usize,
        work: f64,
        n_remote: u32,
        n_local: u32,
    ) {
        if self.capped() {
            self.shed_execs += 1;
            self.current = None;
            return;
        }
        assert!(self.execs.len() < MsgState::MAX_INDEX, "exec index overflow");
        let entry = self.entry_index(dst.array.0 as usize, array_name, kind);
        let msg_src = match MsgState::unpack(*self.msgs.cell(msg_id)) {
            MsgState::Sent(i) | MsgState::RoutedFrom(i) => self.execs[i as usize].dst,
            _ => NO_CHARE,
        };
        let dst = self.chare_index(dst, obj);
        self.current = Some(self.execs.len() as u32);
        self.execs.push(ExecRec {
            pe: pe as u32,
            start_ns: start.0,
            dur_ns: dur.0,
            dst,
            entry,
            msg_id,
            msg_src,
            msg_digest,
            msg_bytes: msg_bytes as u32,
            work,
            n_remote,
            n_local,
            first_send: self.sends.len() as u32,
        });
    }

    pub(crate) fn end_exec(&mut self) {
        self.current = None;
    }

    pub(crate) fn push_state_point(&mut self, t: SimTime, digests: Vec<(ObjId, u64)>) {
        // Past the cap the digest would describe state the log's exec
        // prefix cannot reproduce; keep the truncated log self-consistent.
        if self.capped() {
            return;
        }
        self.state_points.push(DigestPoint {
            seq: self.execs.len() as u64,
            t_ns: t.0,
            digests,
        });
    }

    /// Consume the recorder into a finished log. When nothing routed late
    /// the arrays move into it as they are.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn into_log(
        mut self,
        machine: String,
        num_pes: usize,
        seed: u64,
        sched_overhead: SimTime,
        collective_arity: u64,
        flops_per_sec: f64,
        end: SimTime,
        final_digests: Vec<(ObjId, u64)>,
    ) -> ReplayLog {
        let sends = if self.late.is_empty() {
            self.sends
        } else if self.late.iter().map(|&(k, _)| k).is_sorted() {
            merge_late(&mut self.execs, self.sends, self.late)
        } else {
            let mut late: Vec<_> = self.late.into_iter().collect();
            late.sort_by_key(|&(k, _)| k);
            merge_late(&mut self.execs, self.sends, late)
        };
        u32::try_from(sends.len()).expect("send offsets fit in u32");
        self.roots.append(&mut self.orphans);
        let final_state = DigestPoint {
            seq: self.execs.len() as u64,
            t_ns: end.0,
            digests: final_digests,
        };
        ReplayLog {
            app: String::new(),
            machine,
            num_pes: num_pes as u64,
            seed,
            sched_overhead_ns: sched_overhead.0,
            collective_arity,
            flops_per_sec,
            entry_names: self.entry_names,
            chares: self.chares,
            execs: self.execs,
            sends,
            roots: self.roots,
            state_points: self.state_points,
            final_state,
            end_ns: end.0,
        }
    }
}

/// One streaming pass that puts each exec's late sends (sorted by key)
/// behind the sends it routed while it ran — limbo flushes in routing
/// order, then fold sends in fold order — and moves every exec's
/// `first_send` to match. Each input chunk is freed once it is read, so the
/// sends are never held twice.
fn merge_late(
    execs: &mut ChunkVec<ExecRec>,
    sends: ChunkVec<SendRec>,
    late: impl IntoIterator<Item = (u32, SendRec)>,
) -> ChunkVec<SendRec> {
    let total = sends.len();
    let mut sends = sends.into_iter();
    let mut late = late.into_iter().peekable();
    let mut out = ChunkVec::new();
    for i in 0..execs.len() {
        let end = execs.get(i + 1).map_or(total, |e| e.first_send as usize);
        let e = &mut execs[i];
        let own = end - e.first_send as usize;
        e.first_send = out.len() as u32;
        out.extend(sends.by_ref().take(own));
        while let Some((_, s)) = late.next_if(|&(k, _)| (k >> 1) as usize == i) {
            out.push(s);
        }
    }
    debug_assert!(late.next().is_none(), "every late send has a recorded exec");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ElemId;
    use crate::{ArrayId, Ix};
    use std::collections::{HashMap, HashSet};

    fn obj(array: u32, ix: Ix) -> ObjId {
        ObjId {
            array: ArrayId(array),
            ix,
        }
    }

    fn elem(array: u32, handle: u32) -> ElemRef {
        ElemRef {
            array: ArrayId(array),
            elem: ElemId(handle),
        }
    }

    #[test]
    fn log_roundtrips_through_pup() {
        let chare = obj(0, Ix::I1(3));
        let mut log = ReplayLog {
            app: "t".into(),
            machine: "homog".into(),
            num_pes: 4,
            seed: 7,
            sched_overhead_ns: 250,
            collective_arity: 2,
            flops_per_sec: 1e9,
            entry_names: vec!["A::on_message".into()],
            chares: vec![chare],
            execs: [ExecRec {
                pe: 1,
                start_ns: 10,
                dur_ns: 20,
                msg_id: 1,
                msg_digest: 0xdead,
                msg_bytes: 48,
                work: 1000.0,
                n_remote: 1,
                ..Default::default()
            }]
            .into_iter()
            .collect(),
            sends: [SendRec {
                msg_id: 2,
                bytes: 48,
                src_pe: 1,
                dst_pe: 2,
                tree_depth: 0,
                rtt_bytes: 40,
            }]
            .into_iter()
            .collect(),
            roots: vec![SendRec::default()],
            state_points: vec![],
            final_state: DigestPoint {
                seq: 1,
                t_ns: 30,
                digests: vec![(chare, 9)],
            },
            end_ns: 30,
        };
        let bytes = charm_pup::to_bytes(&mut log);
        assert_eq!(bytes, log.to_bytes(), "the shared-borrow packer is the Pup");
        let back: ReplayLog = charm_pup::from_bytes_exact(&bytes).unwrap();
        assert_eq!(back, log);
        assert!(back.sends_of(0).eq(log.sends.iter()));
        assert_eq!(back.msg_src(&back.execs[0]), None);
    }

    #[test]
    fn msg_state_cells_roundtrip() {
        let top = MsgState::MAX_INDEX as u32;
        for s in [
            MsgState::Unknown,
            MsgState::Routed,
            MsgState::External,
            MsgState::Orphan,
            MsgState::Exec(0),
            MsgState::Exec(7),
            MsgState::Exec(top),
            MsgState::Fold(0),
            MsgState::Fold(top),
            MsgState::Sent(3),
            MsgState::Sent(top),
            MsgState::RoutedFrom(0),
            MsgState::RoutedFrom(top),
        ] {
            assert_eq!(MsgState::unpack(s.pack()), s);
        }
        assert_eq!(MsgState::Unknown.pack(), 0, "fresh lane cells read as unknown");
    }

    /// The recorder's bookkeeping end to end: origins survive until the
    /// first routing (however late), re-routes are not recorded twice, fold
    /// callbacks find the exec that contributed under their dispatch key,
    /// and every exec's sends come out in routing order.
    #[test]
    fn sends_attach_to_their_producing_exec_in_routing_order() {
        let id = |slot: u64, ctr: u64| (slot << KEY_SLOT_SHIFT) | ctr;
        let mut r = Recorder::new(ReplayConfig::default());
        let begin = |r: &mut Recorder| {
            let (start, dur, o) = (SimTime(0), SimTime(1), obj(0, Ix::I1(0)));
            r.begin_exec(0, start, dur, elem(0, 0), o, "a", "on_message", 0, 0, 8, 0.0, 0, 0)
        };
        let route = |r: &mut Recorder, msg_id| r.on_routed(msg_id, 8, 0, 1, 0, 0);

        r.note_origin(id(9, 0), false); // host send
        route(&mut r, id(9, 0));

        begin(&mut r);
        r.on_contribute((10, 1));
        r.on_contribute((10, 1)); // a second contribution lists the exec once
        r.note_origin(id(0, 0), true);
        r.note_origin(id(0, 1), true); // destination missing: parked unrouted
        route(&mut r, id(0, 0));
        r.end_exec();

        begin(&mut r);
        r.on_contribute((20, 2));
        r.note_origin(id(1, 0), false); // a system event the exec triggered
        route(&mut r, id(1, 0));
        route(&mut r, id(0, 0)); // limbo re-flush of a routed message
        r.end_exec();

        // A fold for the second exec, then the first exec's parked send,
        // then a fold for the first exec and one whose contributor is not
        // on the record — all outside any exec.
        let fold = |r: &mut Recorder, key, msg_id| {
            r.begin_fold(key);
            r.note_origin(msg_id, false);
            route(r, msg_id);
            r.end_fold();
        };
        fold(&mut r, (20, 2), id(5, 0));
        route(&mut r, id(0, 1));
        fold(&mut r, (10, 1), id(5, 1));
        fold(&mut r, (99, 9), id(5, 2));

        let log = r.into_log("m".into(), 2, 0, SimTime(0), 2, 1e9, SimTime(30), vec![]);
        let ids = |sends: &mut dyn Iterator<Item = &SendRec>| sends.map(|s| s.msg_id).collect::<Vec<_>>();
        assert_eq!(log.entry_names, vec!["a::on_message".to_string()]);
        assert_eq!(ids(&mut log.sends_of(0)), vec![id(0, 0), id(0, 1), id(5, 1)]);
        assert_eq!(ids(&mut log.sends_of(1)), vec![id(1, 0), id(5, 0)]);
        assert_eq!(log.sends.len(), 5, "the sends are one array");
        // The key no contributor has falls back to the roots, after them.
        assert_eq!(ids(&mut log.roots.iter()), vec![id(9, 0), id(5, 2)]);
    }

    /// A consumed message's sender is the chare of the exec that sent it —
    /// through routing, re-routing and limbo — and nobody for host sends
    /// and for system events an exec's actions triggered. Chares are
    /// interned once, in first-exec order.
    #[test]
    fn msg_src_is_the_sending_execs_chare() {
        let id = |ctr: u64| (3 << KEY_SLOT_SHIFT) | ctr;
        let o = |i: i64| obj(0, Ix::I1(i));
        let mut r = Recorder::new(ReplayConfig::default());
        let begin = |r: &mut Recorder, i: i64, msg_id, seq: u64| {
            let (start, dur, dst) = (SimTime(seq), SimTime(1), elem(0, i as u32));
            r.begin_exec(0, start, dur, dst, o(i), "a", "on_message", msg_id, 0, 8, 0.0, 0, 0)
        };
        r.note_origin(id(0), false); // host send
        r.on_routed(id(0), 8, 0, 0, 0, 0);
        begin(&mut r, 7, id(0), 0);
        r.note_origin(id(1), true); // obj(7) sends
        r.note_origin(id(2), false); // obj(7)'s insert triggers a system event
        r.on_routed(id(1), 8, 0, 1, 0, 0);
        r.on_routed(id(1), 8, 1, 2, 0, 0); // a re-route keeps the sender
        r.on_routed(id(2), 8, 0, 0, 0, 0);
        r.end_exec();
        begin(&mut r, 8, id(1), 1);
        r.end_exec();
        begin(&mut r, 9, id(2), 2);
        r.end_exec();
        begin(&mut r, 7, id(3), 3);
        r.end_exec();
        let log = r.into_log("m".into(), 2, 0, SimTime(0), 2, 1e9, SimTime(3), vec![]);
        let srcs: Vec<_> = log.execs.iter().map(|e| log.msg_src(e)).collect();
        assert_eq!(srcs, vec![None, Some(o(7)), None, None]);
        assert_eq!(log.chares, vec![o(7), o(8), o(9)]);
        let dsts: Vec<_> = log.execs.iter().map(|e| e.dst).collect();
        assert_eq!(dsts, vec![0, 1, 2, 0]);
    }

    #[test]
    fn sys_digests_distinguish_events() {
        let a = sys_event_digest(&SysEvent::Reduction {
            tag: 1,
            value: RedValue::F64(1.0),
        });
        let b = sys_event_digest(&SysEvent::Reduction {
            tag: 1,
            value: RedValue::F64(2.0),
        });
        let c = sys_event_digest(&SysEvent::Inserted);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(
            a,
            sys_event_digest(&SysEvent::Reduction {
                tag: 1,
                value: RedValue::F64(1.0),
            })
        );
    }

    /// The log as it was stored before it went flat — an `ObjId` per exec
    /// and a nested send list — with the derived `Pup` that defined the
    /// `.rlog` v1 layout, and a recorder that builds it the obvious way
    /// (hash maps keyed by message id). The reference model of the
    /// property test below.
    mod v1 {
        use super::*;

        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct SendRec {
            pub msg_id: u64,
            pub bytes: u64,
            pub src_pe: u32,
            pub dst_pe: u32,
            pub tree_depth: u32,
            pub rtt_bytes: u64,
        }

        charm_pup::impl_pup_struct!(SendRec {
            msg_id,
            bytes,
            src_pe,
            dst_pe,
            tree_depth,
            rtt_bytes
        });

        #[derive(Debug, Clone, Default)]
        pub struct ExecRec {
            pub seq: u64,
            pub pe: u32,
            pub start_ns: u64,
            pub dur_ns: u64,
            pub dst: ObjId,
            pub entry: u32,
            pub msg_id: u64,
            pub msg_src: Option<ObjId>,
            pub msg_digest: u64,
            pub msg_bytes: u64,
            pub work: f64,
            pub n_remote: u32,
            pub n_local: u32,
            pub sends: Vec<SendRec>,
        }

        charm_pup::impl_pup_struct!(ExecRec {
            seq,
            pe,
            start_ns,
            dur_ns,
            dst,
            entry,
            msg_id,
            msg_src,
            msg_digest,
            msg_bytes,
            work,
            n_remote,
            n_local,
            sends
        });

        #[derive(Debug, Clone, Default)]
        pub struct ReplayLog {
            pub app: String,
            pub machine: String,
            pub num_pes: u64,
            pub seed: u64,
            pub sched_overhead_ns: u64,
            pub collective_arity: u64,
            pub flops_per_sec: f64,
            pub entry_names: Vec<String>,
            pub execs: Vec<ExecRec>,
            pub roots: Vec<SendRec>,
            pub state_points: Vec<DigestPoint>,
            pub final_state: DigestPoint,
            pub end_ns: u64,
        }

        charm_pup::impl_pup_struct!(ReplayLog {
            app,
            machine,
            num_pes,
            seed,
            sched_overhead_ns,
            collective_arity,
            flops_per_sec,
            entry_names,
            execs,
            roots,
            state_points,
            final_state,
            end_ns
        });

        /// Who produced a message, as the reference recorder sees it.
        #[derive(Clone, Copy)]
        enum Origin {
            Exec { exec: usize, sent: bool },
            Dispatch((u64, u64)),
            External,
        }

        /// The recording semantics, restated over hash maps.
        #[derive(Default)]
        pub struct Recorder {
            pub cap: Option<u64>,
            pub log: ReplayLog,
            keys: Vec<(u64, u64)>,
            origin: HashMap<u64, Origin>,
            routed: HashSet<u64>,
            current: Option<usize>,
            pub dispatch: Option<(u64, u64)>,
            deferred: Vec<((u64, u64), SendRec)>,
        }

        impl Recorder {
            pub fn new(cap: Option<u64>) -> Self {
                Recorder {
                    cap,
                    ..Default::default()
                }
            }

            fn capped(&self) -> bool {
                self.cap.is_some_and(|m| self.log.execs.len() as u64 >= m)
            }

            pub fn note_origin(&mut self, msg_id: u64, from_chare: bool) {
                let origin = match (self.dispatch, self.current) {
                    (Some(dk), _) => Origin::Dispatch(dk),
                    (None, Some(exec)) => Origin::Exec { exec, sent: from_chare },
                    (None, None) if self.capped() => return,
                    (None, None) => Origin::External,
                };
                self.origin.insert(msg_id, origin);
            }

            pub fn on_routed(&mut self, msg_id: u64, bytes: u64, src_pe: u32, dst_pe: u32) {
                if !self.routed.insert(msg_id) {
                    return;
                }
                let rec = SendRec {
                    msg_id,
                    bytes,
                    src_pe,
                    dst_pe,
                    tree_depth: src_pe % 3,
                    rtt_bytes: (dst_pe % 2) as u64 * 40,
                };
                match self.origin.get(&msg_id) {
                    Some(Origin::Exec { exec, .. }) => self.log.execs[*exec].sends.push(rec),
                    Some(Origin::Dispatch(dk)) => self.deferred.push((*dk, rec)),
                    None if self.capped() => {}
                    Some(Origin::External) | None => self.log.roots.push(rec),
                }
            }

            pub fn begin_exec(&mut self, pe: u32, dst: ObjId, name: String, msg_id: u64, key: (u64, u64)) {
                if self.capped() {
                    self.current = None;
                    return;
                }
                let names = &mut self.log.entry_names;
                let entry = names.iter().position(|n| *n == name).unwrap_or_else(|| {
                    names.push(name);
                    names.len() - 1
                }) as u32;
                let msg_src = match self.origin.get(&msg_id) {
                    Some(Origin::Exec { exec, sent: true }) => Some(self.log.execs[*exec].dst),
                    _ => None,
                };
                let seq = self.log.execs.len() as u64;
                self.current = Some(seq as usize);
                self.keys.push(key);
                self.log.execs.push(ExecRec {
                    seq,
                    pe,
                    start_ns: key.0,
                    dur_ns: seq % 5,
                    dst,
                    entry,
                    msg_id,
                    msg_src,
                    msg_digest: msg_id.rotate_left(7),
                    msg_bytes: 40 + seq % 9,
                    work: seq as f64 * 0.5,
                    n_remote: pe % 2,
                    n_local: pe % 3,
                    sends: Vec::new(),
                });
            }

            pub fn end_exec(&mut self) {
                self.current = None;
            }

            pub fn state_point(&mut self, t_ns: u64, digests: Vec<(ObjId, u64)>) {
                if !self.capped() {
                    let seq = self.log.execs.len() as u64;
                    self.log.state_points.push(DigestPoint { seq, t_ns, digests });
                }
            }

            pub fn finish(mut self, end_ns: u64, digests: Vec<(ObjId, u64)>) -> ReplayLog {
                for (dk, rec) in std::mem::take(&mut self.deferred) {
                    match self.keys.iter().position(|k| *k == dk) {
                        Some(i) => self.log.execs[i].sends.push(rec),
                        None => self.log.roots.push(rec),
                    }
                }
                let seq = self.log.execs.len() as u64;
                self.log.final_state = DigestPoint { seq, t_ns: end_ns, digests };
                self.log.end_ns = end_ns;
                self.log
            }
        }
    }

    /// The index shapes the property test draws chares from.
    fn universe(k: u8) -> Ix {
        match k % 12 {
            0..=3 => Ix::i1(k as i64),
            4 => Ix::i1(-1),
            5 => Ix::i1(1 << 20),
            6 => Ix::i2(0, 4),
            7 => Ix::i2(300, 1),
            8 => Ix::i3(1, 2, 3),
            9 => Ix::i6([0, 0, 1], [1, 0, 0]),
            10 => Ix::ROOT.tree_child(5, 3),
            _ => Ix::Named(0xCE11),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        // Random recordings — host sends, chare sends and the system events
        // an exec triggers, routed at once, re-routed or late out of limbo,
        // execs contributing to reductions none, one or two times,
        // reduction-fold sends keyed to a contributor or to no exec, state
        // points, chares of every index shape in two arrays, capped or not —
        // fed to the recorder and to the reference one: the flat log packs
        // to the reference's bytes and unpacks to itself.
        #[test]
        fn flat_log_packs_to_the_nested_reference(
            ops in proptest::collection::vec((0u8..8, proptest::prelude::any::<u8>()), 0..160),
            cap in proptest::option::of(0u64..24)
        ) {
            let entries = ["on_message", "Reduction", "Inserted"];
            let mut r = Recorder::new(ReplayConfig { digest_every: None, max_execs: cap });
            let mut m = v1::Recorder::new(cap);
            let mut msgs: Vec<u64> = Vec::new();
            let mut ctr = [0u64; 4];
            // Dispatch keys of the execs that contributed to a reduction.
            let mut keys: Vec<(u64, u64)> = Vec::new();
            let mut t = 0u64;
            let mut in_exec = false;
            for (op, a) in ops {
                match op {
                    // Begin an exec consuming a known (or never-seen) message.
                    0 | 1 => {
                        if in_exec {
                            r.end_exec();
                            m.end_exec();
                        }
                        t += 1 + a as u64 % 3;
                        let key = (t, a as u64);
                        let unseen = 5 << KEY_SLOT_SHIFT;
                        let msg_id = msgs.get(a as usize % (msgs.len() + 1)).copied().unwrap_or(unseen);
                        let (array, k) = (a as u32 % 2, a / 2 % 12);
                        let dst = obj(array, universe(k));
                        let pe = a as u32 % 5;
                        let kind = entries[a as usize % 3];
                        r.begin_exec(
                            pe as usize,
                            SimTime(key.0),
                            SimTime(m.log.execs.len() as u64 % 5),
                            elem(array, k as u32),
                            dst,
                            &format!("arr{array}"),
                            kind,
                            msg_id,
                            msg_id.rotate_left(7),
                            40 + m.log.execs.len() % 9,
                            m.log.execs.len() as f64 * 0.5,
                            pe % 2,
                            pe % 3,
                        );
                        m.begin_exec(pe, dst, format!("arr{array}::{kind}"), msg_id, key);
                        in_exec = true;
                        let contributions = a / 24 % 3;
                        for _ in 0..contributions {
                            r.on_contribute(key);
                        }
                        if contributions > 0 {
                            keys.push(key);
                        }
                    }
                    // Create a message: from the current exec's chare, from
                    // its actions, or from the host when no exec runs.
                    2 | 3 => {
                        let slot = a as u64 % 4;
                        let id = (slot << KEY_SLOT_SHIFT) | ctr[slot as usize];
                        ctr[slot as usize] += 1;
                        let from_chare = in_exec && op == 2;
                        r.note_origin(id, from_chare);
                        m.note_origin(id, from_chare);
                        msgs.push(id);
                    }
                    // Route (or re-route) a message, in an exec or after it.
                    4 | 5 if !msgs.is_empty() => {
                        let id = msgs[a as usize % msgs.len()];
                        let (src, dst) = (a as u32 % 3, a as u32 % 7);
                        r.on_routed(id, 40 + a as usize, src as usize, dst as usize, (src % 3) as u64, (dst % 2) as usize * 40);
                        m.on_routed(id, 40 + a as u64, src, dst);
                    }
                    // End the exec: what it parked routes later.
                    6 => {
                        r.end_exec();
                        m.end_exec();
                        in_exec = false;
                    }
                    // A reduction fold outside any exec, keyed to an exec
                    // or to a key no exec has; or a state point.
                    _ => {
                        if in_exec {
                            r.end_exec();
                            m.end_exec();
                            in_exec = false;
                        }
                        if a % 4 == 0 {
                            let digests = vec![(obj(0, universe(a)), a as u64)];
                            r.push_state_point(SimTime(t), digests.clone());
                            m.state_point(t, digests);
                            continue;
                        }
                        let key = keys.get(a as usize % (keys.len() + 1)).copied().unwrap_or((t, 999));
                        let slot = a as u64 % 4;
                        let id = (slot << KEY_SLOT_SHIFT) | ctr[slot as usize];
                        ctr[slot as usize] += 1;
                        r.begin_fold(key);
                        m.dispatch = Some(key);
                        r.note_origin(id, false);
                        m.note_origin(id, false);
                        r.on_routed(id, 40, 0, 1, 0, 40);
                        m.on_routed(id, 40, 0, 1);
                        r.end_fold();
                        m.dispatch = None;
                    }
                }
            }
            let fin = vec![(obj(1, Ix::i2(3, 4)), 77)];
            let mut log = r.into_log(String::new(), 0, 0, SimTime(0), 0, 0.0, SimTime(t), fin.clone());
            let mut reference = m.finish(t, fin);
            let bytes = log.to_bytes();
            proptest::prop_assert_eq!(&bytes, &charm_pup::to_bytes(&mut reference));
            proptest::prop_assert_eq!(&bytes, &charm_pup::to_bytes(&mut log));
            let back: ReplayLog = charm_pup::from_bytes_exact(&bytes).unwrap();
            proptest::prop_assert_eq!(&back, &log);
            if let Some(cap) = cap {
                proptest::prop_assert!(log.execs.len() as u64 <= cap);
            }
        }
    }
}
