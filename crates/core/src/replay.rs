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

use crate::array::ObjId;
use crate::chare::{RedValue, SysEvent};
use crate::runtime::KEY_SLOT_SHIFT;
use charm_machine::SimTime;

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

/// Configuration for [`RuntimeBuilder::perturb`](crate::RuntimeBuilder::perturb):
/// seeded, causally-valid schedule perturbation. Only *extra delays* are
/// injected (never early deliveries), so every perturbed schedule is one the
/// real network could have produced; same-destination messages whose delays
/// overlap get reordered, which is exactly the race surface.
#[derive(Debug, Clone)]
pub struct PerturbConfig {
    /// Seed of the perturbation RNG (independent of the run seed).
    pub seed: u64,
    /// Probability that any one user-message delivery is delayed.
    pub prob: f64,
    /// Upper bound on the injected extra delay.
    pub max_extra: SimTime,
}

impl Default for PerturbConfig {
    fn default() -> Self {
        PerturbConfig {
            seed: 1,
            prob: 0.25,
            max_extra: SimTime::from_micros(100),
        }
    }
}

impl PerturbConfig {
    /// A perturbation with the default intensity and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        PerturbConfig {
            seed,
            ..Default::default()
        }
    }
}

/// One recorded message send, attached to the execution that produced it
/// (or to [`ReplayLog::roots`] for host/RTS-injected messages).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SendRec {
    /// Runtime-wide message id (`Envelope::rec_id`).
    pub msg_id: u64,
    /// Wire size including the envelope.
    pub bytes: u64,
    /// PE the send was issued from.
    pub src_pe: u32,
    /// PE the delivery was scheduled to (post location-resolution).
    pub dst_pe: u32,
    /// Spanning-tree depth charged for collective deliveries (0 = plain
    /// point-to-point).
    pub tree_depth: u32,
    /// Control-message size of the home-PE location query round trip that
    /// preceded this send (0 = cache hit / local).
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

/// One executed entry method: the unit of the recorded DAG. `seq` is the
/// global execution order (the total order the deterministic scheduler
/// produced); `msg_id`/`sends` stitch executions into a causal graph.
#[derive(Debug, Clone, Default)]
pub struct ExecRec {
    /// Global execution index (0-based).
    pub seq: u64,
    /// PE it ran on.
    pub pe: u32,
    /// Virtual start time (ns).
    pub start_ns: u64,
    /// Modeled duration (ns): work + scheduling overhead + send costs.
    pub dur_ns: u64,
    /// The chare that ran.
    pub dst: ObjId,
    /// Index into [`ReplayLog::entry_names`].
    pub entry: u32,
    /// Id of the consumed message.
    pub msg_id: u64,
    /// The chare whose execution produced the consumed message (`None` for
    /// host sends and RTS-origin events).
    pub msg_src: Option<ObjId>,
    /// PUP digest of the consumed payload.
    pub msg_digest: u64,
    /// Wire size of the consumed message.
    pub msg_bytes: u64,
    /// Declared work in FLOP (speed-independent, so what-if can re-cost it).
    pub work: f64,
    /// Sends charged at remote-injection cost.
    pub n_remote: u32,
    /// Sends charged at local-delivery cost.
    pub n_local: u32,
    /// Messages this execution produced.
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
#[derive(Debug, Clone, Default)]
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
    /// Every executed entry, in execution order.
    pub execs: Vec<ExecRec>,
    /// Messages injected from outside any execution (host sends, RTS).
    pub roots: Vec<SendRec>,
    /// Periodic state-digest points (when configured).
    pub state_points: Vec<DigestPoint>,
    /// Digest of every chare's state at the end of the run.
    pub final_state: DigestPoint,
    /// Final virtual time (ns).
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
    /// Produced by the exec at this local index without being sent by its
    /// chare (a system event the exec's actions triggered).
    Exec(u32),
    /// Produced on behalf of the exec whose scheduler dispatch key sits at
    /// this index of [`Recorder::fold_keys`] — used by the window-boundary
    /// reduction fold, which runs outside any exec. Resolved to an exec
    /// index when the log is built.
    Dispatch(u32),
    /// Sent by the chare of the exec at this local index.
    Sent(u32),
    /// [`MsgState::Sent`] after its routing was recorded.
    RoutedFrom(u32),
}

impl MsgState {
    const UNKNOWN: u32 = 0;
    const ROUTED: u32 = 1;
    const EXTERNAL: u32 = 2;
    /// First cell value that carries an index: `BASE + 4 * i + t`, with
    /// `t` = 0 `Exec`, 1 `Dispatch`, 2 `Sent`, 3 `RoutedFrom`.
    const BASE: u32 = 3;
    /// Largest index a cell can carry.
    const MAX_INDEX: usize = ((u32::MAX - Self::BASE - 3) / 4) as usize;

    fn pack(self) -> u32 {
        match self {
            MsgState::Unknown => Self::UNKNOWN,
            MsgState::Routed => Self::ROUTED,
            MsgState::External => Self::EXTERNAL,
            MsgState::Exec(i) => Self::BASE + 4 * i,
            MsgState::Dispatch(i) => Self::BASE + 4 * i + 1,
            MsgState::Sent(i) => Self::BASE + 4 * i + 2,
            MsgState::RoutedFrom(i) => Self::BASE + 4 * i + 3,
        }
    }

    fn unpack(cell: u32) -> Self {
        match cell {
            Self::UNKNOWN => MsgState::Unknown,
            Self::ROUTED => MsgState::Routed,
            Self::EXTERNAL => MsgState::External,
            c => {
                let i = (c - Self::BASE) / 4;
                match (c - Self::BASE) % 4 {
                    0 => MsgState::Exec(i),
                    1 => MsgState::Dispatch(i),
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
    lanes: Vec<Vec<u32>>,
}

impl MsgLanes {
    #[inline]
    fn cell(&mut self, msg_id: u64) -> &mut u32 {
        let slot = (msg_id >> KEY_SLOT_SHIFT) as usize;
        let ctr = (msg_id & ((1 << KEY_SLOT_SHIFT) - 1)) as usize;
        if slot >= self.lanes.len() {
            self.lanes.resize_with(slot + 1, Vec::new);
        }
        let lane = &mut self.lanes[slot];
        if ctr >= lane.len() {
            lane.resize(ctr + 1, MsgState::UNKNOWN);
        }
        &mut lane[ctr]
    }
}

/// The in-flight recording state. Lives inside the [`Runtime`](crate::Runtime)
/// behind an `Option`, tracer-style.
pub(crate) struct Recorder {
    pub(crate) cfg: ReplayConfig,
    entry_names: Vec<String>,
    /// Interned [`ExecRec::entry`] per `(array, entry kind)`, so an exec
    /// neither formats nor compares its `array::kind` name: indexed by
    /// array id, then scanned by kind (an array sees a handful).
    entry_memo: Vec<Vec<(&'static str, u32)>>,
    /// Every exec so far, `sends` still empty: those accumulate in
    /// `sends` below and are dealt out when the log is built.
    execs: Vec<ExecRec>,
    /// Scheduler dispatch key `(t_ns, heap_key)` of each exec, parallel to
    /// `execs`, ascending: the total order the engine executes in.
    dispatch_keys: Vec<(u64, u64)>,
    /// Recorded sends in routing order, and (parallel to it) the exec
    /// that produced each.
    sends: Vec<SendRec>,
    send_exec: Vec<u32>,
    roots: Vec<SendRec>,
    state_points: Vec<DigestPoint>,
    /// msg id → origin until routed, then the routed mark (re-routes after
    /// limbo flushes and stale-cache forwards must not duplicate the send).
    msgs: MsgLanes,
    /// Index of the exec currently applying its actions.
    current: Option<u32>,
    /// While set, new messages are attributed to the exec with this
    /// dispatch key instead of `current` (reduction-fold callbacks).
    pub(crate) origin_dispatch: Option<(u64, u64)>,
    /// Dispatch keys that [`MsgState::Dispatch`] cells index.
    fold_keys: Vec<(u64, u64)>,
    /// Sends whose producing exec is identified by dispatch key; attached
    /// to that exec when the log is finalized.
    deferred: Vec<((u64, u64), SendRec)>,
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
            execs: Vec::new(),
            dispatch_keys: Vec::new(),
            sends: Vec::new(),
            send_exec: Vec::new(),
            roots: Vec::new(),
            state_points: Vec::new(),
            msgs: MsgLanes::default(),
            current: None,
            origin_dispatch: None,
            fold_keys: Vec::new(),
            deferred: Vec::new(),
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

    /// Number of entries executed so far.
    pub(crate) fn execs_len(&self) -> u64 {
        self.execs.len() as u64
    }

    /// A new message was created; remember which exec (if any) produced it
    /// and whether that exec's chare sent it (`from_chare`).
    pub(crate) fn note_origin(&mut self, msg_id: u64, from_chare: bool) {
        let origin = match (self.origin_dispatch, self.current) {
            (Some(dk), _) => {
                debug_assert!(!from_chare, "a reduction fold sends nothing for a chare");
                if self.fold_keys.last() != Some(&dk) {
                    assert!(self.fold_keys.len() < MsgState::MAX_INDEX, "fold-key index overflow");
                    self.fold_keys.push(dk);
                }
                MsgState::Dispatch(self.fold_keys.len() as u32 - 1)
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
            bytes: bytes as u64,
            src_pe: src_pe as u32,
            dst_pe: dst_pe as u32,
            tree_depth: tree_depth as u32,
            rtt_bytes: rtt_bytes as u64,
        };
        match state {
            MsgState::Routed | MsgState::RoutedFrom(_) => unreachable!("returned above"),
            MsgState::Exec(i) | MsgState::Sent(i) => {
                self.sends.push(rec);
                self.send_exec.push(i);
            }
            MsgState::Dispatch(k) => self.deferred.push((self.fold_keys[k as usize], rec)),
            // An untracked message under a capped recording was produced
            // past the cap: shed it (visibly) instead of growing `roots`.
            MsgState::Unknown if self.capped() => self.shed_sends += 1,
            MsgState::External | MsgState::Unknown => self.roots.push(rec),
        }
    }

    /// An entry method is about to apply its actions; every send recorded
    /// until [`Recorder::end_exec`] belongs to it. `array_name` and `kind`
    /// name the entry (`<array>::<kind>`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn begin_exec(
        &mut self,
        pe: usize,
        start: SimTime,
        dur: SimTime,
        dst: ObjId,
        array_name: &str,
        kind: &'static str,
        msg_id: u64,
        msg_digest: u64,
        msg_bytes: usize,
        work: f64,
        n_remote: u32,
        n_local: u32,
        dispatch: (u64, u64),
    ) {
        if self.capped() {
            self.shed_execs += 1;
            self.current = None;
            return;
        }
        assert!(self.execs.len() < MsgState::MAX_INDEX, "exec index overflow");
        let entry = self.entry_index(dst.array.0 as usize, array_name, kind);
        let msg_src = match MsgState::unpack(*self.msgs.cell(msg_id)) {
            MsgState::Sent(i) | MsgState::RoutedFrom(i) => Some(self.execs[i as usize].dst),
            _ => None,
        };
        let seq = self.execs.len() as u64;
        self.dispatch_keys.push(dispatch);
        self.execs.push(ExecRec {
            seq,
            pe: pe as u32,
            start_ns: start.0,
            dur_ns: dur.0,
            dst,
            entry,
            msg_id,
            msg_src,
            msg_digest,
            msg_bytes: msg_bytes as u64,
            work,
            n_remote,
            n_local,
            sends: Vec::new(),
        });
        self.current = Some(seq as u32);
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

    /// Consume the recorder into a finished log.
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
        // Deal the flat send list out to the execs. An exec routes its
        // sends back to back, so the list is runs of one exec index: each
        // run becomes that exec's `sends` in one exact-size copy (a send
        // that routed late — parked in limbo — is a run of its own and
        // appends, keeping routing order).
        let mut run_start = 0;
        while run_start < self.sends.len() {
            let exec = self.send_exec[run_start];
            let run_len = self.send_exec[run_start..]
                .iter()
                .take_while(|&&i| i == exec)
                .count();
            let into = &mut self.execs[exec as usize].sends;
            into.reserve_exact(run_len);
            into.extend_from_slice(&self.sends[run_start..run_start + run_len]);
            run_start += run_len;
        }
        // Dispatch-keyed sends (reduction-fold callbacks) come after, in
        // fold order. They find their producing exec by its key; execs run
        // in key order, so the keys are already sorted.
        debug_assert!(self.dispatch_keys.is_sorted());
        for (dk, rec) in self.deferred {
            match self.dispatch_keys.binary_search(&dk) {
                Ok(i) => self.execs[i].sends.push(rec),
                Err(_) => self.roots.push(rec),
            }
        }
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
            execs: self.execs,
            roots: self.roots,
            state_points: self.state_points,
            final_state,
            end_ns: end.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ix;

    #[test]
    fn log_roundtrips_through_pup() {
        let mut log = ReplayLog {
            app: "t".into(),
            machine: "homog".into(),
            num_pes: 4,
            seed: 7,
            sched_overhead_ns: 250,
            collective_arity: 2,
            flops_per_sec: 1e9,
            entry_names: vec!["A::on_message".into()],
            execs: vec![ExecRec {
                seq: 0,
                pe: 1,
                start_ns: 10,
                dur_ns: 20,
                dst: ObjId {
                    array: crate::ArrayId(0),
                    ix: Ix::I1(3),
                },
                entry: 0,
                msg_id: 1,
                msg_src: None,
                msg_digest: 0xdead,
                msg_bytes: 48,
                work: 1000.0,
                n_remote: 1,
                n_local: 0,
                sends: vec![SendRec {
                    msg_id: 2,
                    bytes: 48,
                    src_pe: 1,
                    dst_pe: 2,
                    tree_depth: 0,
                    rtt_bytes: 40,
                }],
            }],
            roots: vec![SendRec::default()],
            state_points: vec![],
            final_state: DigestPoint {
                seq: 1,
                t_ns: 30,
                digests: vec![(
                    ObjId {
                        array: crate::ArrayId(0),
                        ix: Ix::I1(3),
                    },
                    9,
                )],
            },
            end_ns: 30,
        };
        let bytes = charm_pup::to_bytes(&mut log);
        let back: ReplayLog = charm_pup::from_bytes_exact(&bytes).unwrap();
        assert_eq!(back.execs.len(), 1);
        assert_eq!(back.execs[0].sends, log.execs[0].sends);
        assert_eq!(back.final_state, log.final_state);
        assert_eq!(back.entry_names, log.entry_names);
        assert_eq!(back.machine, "homog");
    }

    #[test]
    fn msg_state_cells_roundtrip() {
        let top = MsgState::MAX_INDEX as u32;
        for s in [
            MsgState::Unknown,
            MsgState::Routed,
            MsgState::External,
            MsgState::Exec(0),
            MsgState::Exec(7),
            MsgState::Exec(top),
            MsgState::Dispatch(0),
            MsgState::Dispatch(top),
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
    /// callbacks find their exec by dispatch key, and every exec's sends
    /// come out in routing order.
    #[test]
    fn sends_attach_to_their_producing_exec_in_routing_order() {
        let id = |slot: u64, ctr: u64| (slot << KEY_SLOT_SHIFT) | ctr;
        let dst = ObjId {
            array: crate::ArrayId(0),
            ix: Ix::I1(0),
        };
        let mut r = Recorder::new(ReplayConfig::default());
        let begin = |r: &mut Recorder, dispatch| {
            let (start, dur) = (SimTime(0), SimTime(1));
            r.begin_exec(0, start, dur, dst, "a", "on_message", 0, 0, 8, 0.0, 0, 0, dispatch)
        };
        let route = |r: &mut Recorder, msg_id| r.on_routed(msg_id, 8, 0, 1, 0, 0);

        r.note_origin(id(9, 0), false); // host send
        route(&mut r, id(9, 0));

        begin(&mut r, (10, 1));
        r.note_origin(id(0, 0), true);
        r.note_origin(id(0, 1), true); // destination missing: parked unrouted
        route(&mut r, id(0, 0));
        r.end_exec();

        begin(&mut r, (20, 2));
        r.note_origin(id(1, 0), false); // a system event the exec triggered
        route(&mut r, id(1, 0));
        route(&mut r, id(0, 0)); // limbo re-flush of a routed message
        r.end_exec();

        route(&mut r, id(0, 1)); // the parked one, outside any exec
        for (key, msg_id) in [((10, 1), id(5, 0)), ((99, 9), id(5, 1))] {
            r.origin_dispatch = Some(key);
            r.note_origin(msg_id, false);
            route(&mut r, msg_id);
            r.origin_dispatch = None;
        }

        let log = r.into_log("m".into(), 2, 0, SimTime(0), 2, 1e9, SimTime(30), vec![]);
        let ids = |sends: &[SendRec]| sends.iter().map(|s| s.msg_id).collect::<Vec<_>>();
        assert_eq!(log.entry_names, vec!["a::on_message".to_string()]);
        assert_eq!(ids(&log.execs[0].sends), vec![id(0, 0), id(0, 1), id(5, 0)]);
        assert_eq!(ids(&log.execs[1].sends), vec![id(1, 0)]);
        // The key no exec has falls back to the roots.
        assert_eq!(ids(&log.roots), vec![id(9, 0), id(5, 1)]);
    }

    /// A consumed message's sender is the chare of the exec that sent it —
    /// through routing, re-routing and limbo — and nobody for host sends
    /// and for system events an exec's actions triggered.
    #[test]
    fn msg_src_is_the_sending_execs_chare() {
        let id = |ctr: u64| (3 << KEY_SLOT_SHIFT) | ctr;
        let obj = |i: i64| ObjId {
            array: crate::ArrayId(0),
            ix: Ix::I1(i),
        };
        let mut r = Recorder::new(ReplayConfig::default());
        let begin = |r: &mut Recorder, dst, msg_id, seq: u64| {
            let (start, dur, dispatch) = (SimTime(seq), SimTime(1), (seq, seq));
            r.begin_exec(0, start, dur, dst, "a", "on_message", msg_id, 0, 8, 0.0, 0, 0, dispatch)
        };
        r.note_origin(id(0), false); // host send
        r.on_routed(id(0), 8, 0, 0, 0, 0);
        begin(&mut r, obj(7), id(0), 0);
        r.note_origin(id(1), true); // obj(7) sends
        r.note_origin(id(2), false); // obj(7)'s insert triggers a system event
        r.on_routed(id(1), 8, 0, 1, 0, 0);
        r.on_routed(id(1), 8, 1, 2, 0, 0); // a re-route keeps the sender
        r.on_routed(id(2), 8, 0, 0, 0, 0);
        r.end_exec();
        begin(&mut r, obj(8), id(1), 1);
        r.end_exec();
        begin(&mut r, obj(9), id(2), 2);
        r.end_exec();
        let log = r.into_log("m".into(), 2, 0, SimTime(0), 2, 1e9, SimTime(3), vec![]);
        let srcs: Vec<_> = log.execs.iter().map(|e| e.msg_src).collect();
        assert_eq!(srcs, vec![None, Some(obj(7)), None]);
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
}
