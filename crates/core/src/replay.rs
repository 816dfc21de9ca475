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
//! A log is held the way `.rlog` v2 stores it (DESIGN §4.4, "Recording
//! memory"). The recorder encodes each exec, with the sends routed while it
//! was current, into fixed-capacity byte chunks as the run goes, and seals
//! each chunk with its own CRC. Sends that route after their exec ended —
//! limbo flushes — follow in late chunks, sorted by exec. The tables
//! (entry names, chares, roots, state points, final state) grow with the
//! chares, not with the run, and are held decoded.
//! [`ExecLog::iter`] decodes the execs in order, each with its sends; an
//! exec names its chare by an index into [`ReplayLog::chares`]. `.rlog` v1,
//! the nested layout (an `ObjId` per exec, a send list per exec), is still
//! read by [`ReplayLog::read_v1`].

use crate::array::{ElemRef, ObjId};
use crate::chare::{RedValue, SysEvent};
use crate::chunked::ChunkVec;
use crate::ft::crc32;
use crate::runtime::KEY_SLOT_SHIFT;
use charm_machine::SimTime;
use charm_pup::{Pup, Puper};
use fxhash::FxHashMap;
use std::io::Write;

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

/// One recorded message send, as [`ExecLog::iter`] yields it under the
/// execution that produced it (or as held in [`ReplayLog::roots`] for
/// host/RTS-injected messages).
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

/// `bytes` and `rtt_bytes` travel as `u64`: the `.rlog` v1 layout, which
/// the tables section of v2 keeps for the roots.
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

/// One executed entry method: the unit of the recorded DAG. Its position in
/// [`ExecLog::iter`] is its place in the global execution order (the total
/// order the deterministic scheduler produced); `msg_id` and the sends
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
/// and consumed by the `charm-replay` crate. Equality is equality of the
/// encoded chunks and of the decoded header and tables.
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
    /// Every executed entry, in execution order, with the messages it
    /// produced: encoded chunks, read through [`ExecLog::iter`].
    pub execs: ExecLog,
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

    /// Write the `.rlog` v2 body: a header frame, the exec chunks and the
    /// late chunks as they are held (their CRCs were taken when they were
    /// sealed), then the tables frame. A frame is `u32` record count ·
    /// `u32` byte length · `u32` CRC32 of the bytes · the bytes.
    pub fn write_v2(&self, w: &mut dyn Write) -> std::io::Result<()> {
        let mut p = Puper::packer(0);
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
        for mut v in [
            self.end_ns,
            self.execs.len as u64,
            self.execs.chunks.len() as u64,
            self.execs.late.len() as u64,
        ] {
            p.p(&mut v);
        }
        write_frame(w, 0, &p.into_bytes(), None)?;
        for c in self.execs.chunks.iter().chain(&self.execs.late) {
            write_frame(w, c.records, &c.bytes, Some(c.crc))?;
        }
        let mut p = Puper::packer(0);
        p.p(&mut self.entry_names.clone());
        p.p(&mut self.chares.clone());
        p.p(&mut self.roots.clone());
        p.p(&mut self.state_points.clone());
        p.p(&mut self.final_state.clone());
        write_frame(w, 0, &p.into_bytes(), None)
    }

    /// Read a `.rlog` v2 body written by [`ReplayLog::write_v2`]. Every
    /// frame's CRC is checked and every chunk decoded once; the chunks are
    /// then kept as they are. The error names the frame that is corrupt or
    /// where the body ends early. A header or tables frame with a valid CRC
    /// that does not unpack panics (the caller turns that into an error).
    pub fn read_v2(body: &[u8]) -> Result<ReplayLog, String> {
        let mut at = 0;
        let header = read_frame(body, &mut at, || "header".into())?;
        let mut log = ReplayLog::default();
        let mut p = Puper::unpacker(header.bytes);
        p.p(&mut log.app);
        p.p(&mut log.machine);
        p.p(&mut log.num_pes);
        p.p(&mut log.seed);
        p.p(&mut log.sched_overhead_ns);
        p.p(&mut log.collective_arity);
        p.p(&mut log.flops_per_sec);
        p.p(&mut log.end_ns);
        let [len, n_chunks, n_late] = [0; 3].map(|_| unpack_len(&mut p));
        if p.remaining() != 0 {
            return Err("header: trailing bytes".into());
        }
        // Every frame takes at least its 12-byte head.
        if n_chunks.saturating_add(n_late) > (body.len() - at) / 12 {
            return Err("header: more chunks than the body has room for".into());
        }
        let mut chunks = |n: usize, kind: &str| {
            (0..n)
                .map(|k| {
                    read_frame(body, &mut at, || format!("{kind} chunk {k} of {n}")).map(|f| {
                        Chunk {
                            bytes: f.bytes.to_vec(),
                            records: f.records,
                            crc: f.crc,
                        }
                    })
                })
                .collect::<Result<Vec<_>, _>>()
        };
        log.execs = ExecLog {
            chunks: chunks(n_chunks, "exec")?,
            late: chunks(n_late, "late")?,
            len,
        };
        let tables = read_frame(body, &mut at, || "tables".into())?;
        if at != body.len() {
            return Err(format!("{} bytes after the tables", body.len() - at));
        }
        let mut p = Puper::unpacker(tables.bytes);
        p.p(&mut log.entry_names);
        p.p(&mut log.chares);
        p.p(&mut log.roots);
        p.p(&mut log.state_points);
        p.p(&mut log.final_state);
        if p.remaining() != 0 {
            return Err("tables: trailing bytes".into());
        }
        log.execs.check(log.chares.len())?;
        Ok(log)
    }

    /// Read a `.rlog` v1 body — an exec with its index as `seq`, its chares
    /// as `ObjId`s and its sends as a nested list — into the v2 form.
    /// Chares are interned in first-appearance order, which is the
    /// recorder's first-exec order; every send is the exec's own (v1 does
    /// not say which routed late). A body that does not unpack panics.
    pub fn read_v1(body: &[u8]) -> Result<ReplayLog, String> {
        let mut log = ReplayLog::default();
        let mut p = Puper::unpacker(body);
        p.p(&mut log.app);
        p.p(&mut log.machine);
        p.p(&mut log.num_pes);
        p.p(&mut log.seed);
        p.p(&mut log.sched_overhead_ns);
        p.p(&mut log.collective_arity);
        p.p(&mut log.flops_per_sec);
        p.p(&mut log.entry_names);
        let n = unpack_len(&mut p);
        let mut ids: FxHashMap<ObjId, u32> = FxHashMap::default();
        let chares = &mut log.chares;
        let mut intern = |o: ObjId| {
            *ids.entry(o).or_insert_with(|| {
                chares.push(o);
                narrow(chares.len() as u64 - 1, "chare index")
            })
        };
        let mut w = LogWriter::default();
        let mut sends = Vec::new();
        for i in 0..n {
            let mut seq = 0u64;
            p.p(&mut seq);
            if seq != i as u64 {
                return Err(format!("exec {i} carries seq {seq}"));
            }
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
            sends.clear();
            for _ in 0..unpack_len(&mut p) {
                let mut s = SendRec::default();
                p.p(&mut s);
                sends.push(s);
            }
            w.push_exec(&e, &sends);
        }
        log.execs = w.finish();
        p.p(&mut log.roots);
        p.p(&mut log.state_points);
        p.p(&mut log.final_state);
        p.p(&mut log.end_ns);
        if p.remaining() != 0 {
            return Err(format!("{} trailing bytes", p.remaining()));
        }
        Ok(log)
    }
}

/// A `u64` from the wire that the log keeps as `u32`.
fn narrow(v: u64, what: &str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("{what} {v} overflows u32 while unpacking"))
}

fn unpack_len(p: &mut Puper) -> usize {
    let mut n = 0u64;
    p.p(&mut n);
    usize::try_from(n).expect("length overflows usize while unpacking")
}

// ---------------------------------------------------------------------------
// `.rlog` v2: chunks of varint-coded records.

/// Capacity of one chunk. A chunk holds whole records; a record larger
/// than this (an exec with thousands of sends) gets a chunk of its own.
pub const CHUNK_BYTES: usize = 1 << 16;

/// Most bytes an exec record takes before its sends (a tag, thirteen
/// varints of at most ten bytes and a raw digest), one send (its slot, its
/// counter and five `u32` varints) and one late send (its key and a send).
const EXEC_BOUND: usize = 1 + 13 * 10 + 8;
const SEND_BOUND: usize = 2 * 10 + 5 * 5;
const LATE_BOUND: usize = 10 + SEND_BOUND;

/// A sealed run of whole records that decodes on its own: the coding state
/// starts afresh in every chunk.
#[derive(Clone, PartialEq)]
struct Chunk {
    bytes: Vec<u8>,
    records: u32,
    /// CRC32 of `bytes`, taken when the chunk was sealed.
    crc: u32,
}

/// The execs of a [`ReplayLog`] with the sends each produced, in `.rlog` v2
/// form: exec chunks, then late chunks of the sends that routed after
/// their exec ended, sorted by exec. [`ExecLog::iter`] is the one way in.
#[derive(Clone, Default, PartialEq)]
pub struct ExecLog {
    chunks: Vec<Chunk>,
    late: Vec<Chunk>,
    len: usize,
}

impl std::fmt::Debug for ExecLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ExecLog {{ {} execs in {} chunks, {} late chunks, {} bytes }}",
            self.len,
            self.chunks.len(),
            self.late.len(),
            self.encoded_bytes()
        )
    }
}

/// What an exec chunk that does not decode panics with: only
/// [`ExecLog::check`]ed chunks are ever iterated.
const VALID: &str = "a recorded or checked chunk decodes";

impl ExecLog {
    /// Number of executions recorded.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes of encoded records, exec and late chunks together: what the
    /// `.rlog` v2 file holds besides its frame headers and tables.
    pub fn encoded_bytes(&self) -> usize {
        self.chunks
            .iter()
            .chain(&self.late)
            .map(|c| c.bytes.len())
            .sum()
    }

    /// Every execution in execution order, each with its sends in recorded
    /// order: those routed while it ran, in routing order, then its limbo
    /// flushes in routing order. (A log written before reductions folded in
    /// their last contributor's exec lists that exec's reduction-fold sends
    /// last.)
    pub fn iter(&self) -> Execs<'_> {
        Execs {
            chunks: self.chunks.iter(),
            r: Reader::new(&[]),
            left: 0,
            st: Deltas::default(),
            late: Late::new(&self.late),
            index: 0,
            remaining: self.len,
        }
    }

    /// Decode every chunk once, without panicking: each holds exactly its
    /// records, they add up to the length, chare indices are below
    /// `chares`, and late sends name recorded execs in ascending order.
    fn check(&self, chares: usize) -> Result<(), String> {
        let chare =
            |c: u32, missing_ok: bool| (c as usize) < chares || (missing_ok && c == NO_CHARE);
        let mut n = 0usize;
        for (k, c) in self.chunks.iter().enumerate() {
            let bad = |why: &str| format!("exec chunk {k} of {}: {why}", self.chunks.len());
            let mut r = Reader::new(&c.bytes);
            let mut st = Deltas::default();
            for _ in 0..c.records {
                let (e, sends) = r
                    .exec(&mut st)
                    .ok_or_else(|| bad("an exec does not decode"))?;
                if !chare(e.dst, false) || !chare(e.msg_src, true) {
                    return Err(bad("an exec names a chare the tables lack"));
                }
                for _ in 0..sends {
                    r.send(&mut st.send_ctr)
                        .ok_or_else(|| bad("a send does not decode"))?;
                }
            }
            if !r.done() {
                return Err(bad("bytes past its last record"));
            }
            n += c.records as usize;
        }
        if n != self.len {
            return Err(format!(
                "the chunks hold {n} execs, the header says {}",
                self.len
            ));
        }
        let mut last = 0u64;
        for (k, c) in self.late.iter().enumerate() {
            let bad = |why: &str| format!("late chunk {k} of {}: {why}", self.late.len());
            let mut r = Reader::new(&c.bytes);
            let mut st = LateDeltas::default();
            for _ in 0..c.records {
                let (key, _) = r
                    .late(&mut st)
                    .ok_or_else(|| bad("a send does not decode"))?;
                if key < last || (key >> 1) as usize >= self.len {
                    return Err(bad("a send names no exec, or is out of order"));
                }
                last = key;
            }
            if !r.done() {
                return Err(bad("bytes past its last record"));
            }
        }
        Ok(())
    }
}

/// A log of execs in order, each with the sends it routed while it ran.
impl FromIterator<(ExecRec, Vec<SendRec>)> for ExecLog {
    fn from_iter<I: IntoIterator<Item = (ExecRec, Vec<SendRec>)>>(iter: I) -> Self {
        let mut w = LogWriter::default();
        for (e, sends) in iter {
            w.push_exec(&e, &sends);
        }
        w.finish()
    }
}

/// Iterator of [`ExecLog::iter`]: decodes one exec at a time.
pub struct Execs<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    r: Reader<'a>,
    /// Records left in the current chunk.
    left: u32,
    st: Deltas,
    late: Late<'a>,
    index: u64,
    remaining: usize,
}

impl<'a> Iterator for Execs<'a> {
    type Item = (ExecRec, Sends<'a>);

    #[inline]
    fn next(&mut self) -> Option<(ExecRec, Sends<'a>)> {
        while self.left == 0 {
            let c = self.chunks.next()?;
            (self.r, self.left, self.st) = (Reader::new(&c.bytes), c.records, Deltas::default());
        }
        self.left -= 1;
        self.remaining -= 1;
        let (e, n) = self.r.exec(&mut self.st).expect(VALID);
        let (own, own_prev) = (self.r.clone(), self.st.send_ctr);
        for _ in 0..n {
            self.r.send(&mut self.st.send_ctr).expect(VALID);
        }
        let mut late = None;
        let mut late_left = 0;
        while self.late.peek_exec() == Some(self.index) {
            late.get_or_insert_with(|| self.late.clone());
            self.late.pop();
            late_left += 1;
        }
        self.index += 1;
        let sends = Sends {
            own,
            own_prev,
            own_left: n,
            late,
            late_left,
        };
        Some((e, sends))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Execs<'_> {}

/// The sends of one exec, decoded as they are read.
#[derive(Clone)]
pub struct Sends<'a> {
    own: Reader<'a>,
    own_prev: u64,
    own_left: u32,
    /// The late chunks from this exec's first late send, if it has any.
    late: Option<Late<'a>>,
    late_left: u32,
}

impl Iterator for Sends<'_> {
    type Item = SendRec;

    #[inline]
    fn next(&mut self) -> Option<SendRec> {
        if self.own_left > 0 {
            self.own_left -= 1;
            return Some(self.own.send(&mut self.own_prev).expect(VALID));
        }
        if self.late_left > 0 {
            self.late_left -= 1;
            return self.late.as_mut()?.pop().map(|(_, s)| s);
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.own_left + self.late_left) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Sends<'_> {}

/// A cursor over the late chunks, one decoded entry ahead.
#[derive(Clone)]
struct Late<'a> {
    chunks: std::slice::Iter<'a, Chunk>,
    r: Reader<'a>,
    left: u32,
    st: LateDeltas,
    /// The next `(key, send)`: key `2 × exec` for a limbo flush. Logs
    /// written before reductions folded in their last contributor's exec
    /// also hold `2 × exec + 1`, a reduction-fold send.
    next: Option<(u64, SendRec)>,
}

impl<'a> Late<'a> {
    fn new(chunks: &'a [Chunk]) -> Self {
        let mut l = Late {
            chunks: chunks.iter(),
            r: Reader::new(&[]),
            left: 0,
            st: LateDeltas::default(),
            next: None,
        };
        l.pop();
        l
    }

    fn peek_exec(&self) -> Option<u64> {
        self.next.map(|(key, _)| key >> 1)
    }

    /// The next entry, decoding the one after it.
    fn pop(&mut self) -> Option<(u64, SendRec)> {
        let out = self.next.take();
        while self.left == 0 {
            let Some(c) = self.chunks.next() else {
                return out;
            };
            (self.r, self.left, self.st) =
                (Reader::new(&c.bytes), c.records, LateDeltas::default());
        }
        self.left -= 1;
        self.next = Some(self.r.late(&mut self.st).expect(VALID));
        out
    }
}

/// The coding state of an exec chunk: start times and message-id counters
/// travel as deltas, and a payload digest that repeats one of the last four
/// as that one's position.
#[derive(Clone, Copy, Default)]
struct Deltas {
    start_ns: u64,
    msg_ctr: u64,
    send_ctr: u64,
    /// Most recent first.
    digests: [u64; 4],
}

impl Deltas {
    /// Move `d`, coded as `code` (0 = new, `k` = the `k`-th most recent),
    /// to the front of the recent digests.
    #[inline]
    fn note_digest(&mut self, code: u8, d: u64) {
        let last = if code == 0 { 3 } else { code as usize - 1 };
        for j in (1..=last).rev() {
            self.digests[j] = self.digests[j - 1];
        }
        self.digests[0] = d;
    }
}

/// The coding state of a late chunk.
#[derive(Clone, Copy, Default)]
struct LateDeltas {
    key: u64,
    send_ctr: u64,
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// `v - prev` as a zigzag varint: small either way.
fn put_delta(out: &mut Vec<u8>, prev: &mut u64, v: u64) {
    let d = v.wrapping_sub(*prev) as i64;
    put_varint(out, ((d << 1) ^ (d >> 63)) as u64);
    *prev = v;
}

/// A message id, `slot << KEY_SLOT_SHIFT | counter`: the producer slot as
/// a varint, then the counter as a delta from the last one in the chunk.
/// Every slot counts at about the rate of the others, so the delta stays
/// small across slots.
fn put_msg_id(out: &mut Vec<u8>, prev_ctr: &mut u64, id: u64) {
    put_varint(out, id >> KEY_SLOT_SHIFT);
    put_delta(out, prev_ctr, id & ((1 << KEY_SLOT_SHIFT) - 1));
}

/// How an exec's `work` travels: `0` is `+0.0`, `1` an integral value as a
/// varint, `2` the raw bits.
fn work_code(w: f64) -> u8 {
    if w.to_bits() == 0 {
        0
    } else if (w as u64 as f64).to_bits() == w.to_bits() {
        1
    } else {
        2
    }
}

/// One exec record: a tag byte (digest code in bits 0–2, work code in bits
/// 3–4), then varints — the PE, the start time as a delta, the duration,
/// the chare, the entry, the message id, `msg_src + 1` — the
/// digest (8 raw bytes unless it repeats), the message size, the work, the
/// send counts, and the sends routed while it ran.
fn put_exec(out: &mut Vec<u8>, st: &mut Deltas, e: &ExecRec, sends: &[SendRec]) {
    let digest = match st.digests.iter().position(|&d| d == e.msg_digest) {
        Some(k) => k as u8 + 1,
        None => 0,
    };
    st.note_digest(digest, e.msg_digest);
    let work = work_code(e.work);
    out.push(digest | work << 3);
    put_varint(out, e.pe as u64);
    put_delta(out, &mut st.start_ns, e.start_ns);
    put_varint(out, e.dur_ns);
    put_varint(out, e.dst as u64);
    put_varint(out, e.entry as u64);
    put_msg_id(out, &mut st.msg_ctr, e.msg_id);
    put_varint(out, e.msg_src.wrapping_add(1) as u64);
    if digest == 0 {
        out.extend_from_slice(&e.msg_digest.to_le_bytes());
    }
    put_varint(out, e.msg_bytes as u64);
    match work {
        0 => {}
        1 => put_varint(out, e.work as u64),
        _ => out.extend_from_slice(&e.work.to_bits().to_le_bytes()),
    }
    put_varint(out, e.n_remote as u64);
    put_varint(out, e.n_local as u64);
    put_varint(out, sends.len() as u64);
    for s in sends {
        put_send(out, &mut st.send_ctr, s);
    }
}

/// One send: its message id, with the counter a delta from the chunk's
/// previous send's, then five varints.
fn put_send(out: &mut Vec<u8>, prev_ctr: &mut u64, s: &SendRec) {
    put_msg_id(out, prev_ctr, s.msg_id);
    for v in [s.bytes, s.src_pe, s.dst_pe, s.tree_depth, s.rtt_bytes] {
        put_varint(out, v as u64);
    }
}

/// One late send: its key as a delta, then the send.
fn put_late(out: &mut Vec<u8>, st: &mut LateDeltas, key: u64, s: &SendRec) {
    put_delta(out, &mut st.key, key);
    put_send(out, &mut st.send_ctr, s);
}

/// Decodes records; `None` where the bytes end early or hold no record.
#[derive(Clone)]
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8]) -> Self {
        Reader { b, pos: 0 }
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }

    #[inline]
    fn byte(&mut self) -> Option<u8> {
        let v = *self.b.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn raw64(&mut self) -> Option<u64> {
        let s = self.b.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().expect("eight bytes")))
    }

    /// Most varints here are one byte: that case is one load and one test.
    #[inline]
    fn varint(&mut self) -> Option<u64> {
        let b = self.byte()?;
        if b < 0x80 {
            return Some(b as u64);
        }
        let mut v = u64::from(b & 0x7f);
        let mut shift = 7;
        loop {
            let b = self.byte()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return (shift < 63 || b <= 1).then_some(v);
            }
            shift += 7;
            if shift > 63 {
                return None;
            }
        }
    }

    #[inline]
    fn u32(&mut self) -> Option<u32> {
        u32::try_from(self.varint()?).ok()
    }

    #[inline]
    fn delta(&mut self, prev: &mut u64) -> Option<u64> {
        let z = self.varint()?;
        *prev = prev.wrapping_add(((z >> 1) as i64 ^ -((z & 1) as i64)) as u64);
        Some(*prev)
    }

    #[inline]
    fn msg_id(&mut self, prev_ctr: &mut u64) -> Option<u64> {
        let slot = self.varint()?;
        let ctr = self.delta(prev_ctr)?;
        (slot >> (64 - KEY_SLOT_SHIFT) == 0 && ctr >> KEY_SLOT_SHIFT == 0)
            .then_some(slot << KEY_SLOT_SHIFT | ctr)
    }

    /// An exec record up to its sends, and how many sends follow.
    #[inline]
    fn exec(&mut self, st: &mut Deltas) -> Option<(ExecRec, u32)> {
        let tag = self.byte()?;
        let (digest, work) = (tag & 7, tag >> 3);
        if digest > 4 || work > 2 {
            return None;
        }
        let pe = self.u32()?;
        let start_ns = self.delta(&mut st.start_ns)?;
        let dur_ns = self.varint()?;
        let dst = self.u32()?;
        let entry = self.u32()?;
        let msg_id = self.msg_id(&mut st.msg_ctr)?;
        let msg_src = self.u32()?.wrapping_sub(1);
        let msg_digest = match digest {
            0 => self.raw64()?,
            k => st.digests[k as usize - 1],
        };
        st.note_digest(digest, msg_digest);
        let msg_bytes = self.u32()?;
        let work = match work {
            0 => 0.0,
            1 => self.varint()? as f64,
            _ => f64::from_bits(self.raw64()?),
        };
        let rec = ExecRec {
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
            n_remote: self.u32()?,
            n_local: self.u32()?,
        };
        Some((rec, self.u32()?))
    }

    #[inline]
    fn send(&mut self, prev_ctr: &mut u64) -> Option<SendRec> {
        Some(SendRec {
            msg_id: self.msg_id(prev_ctr)?,
            bytes: self.u32()?,
            src_pe: self.u32()?,
            dst_pe: self.u32()?,
            tree_depth: self.u32()?,
            rtt_bytes: self.u32()?,
        })
    }

    fn late(&mut self, st: &mut LateDeltas) -> Option<(u64, SendRec)> {
        let key = self.delta(&mut st.key)?;
        Some((key, self.send(&mut st.send_ctr)?))
    }
}

/// Fills fixed-capacity chunks with whole records and seals each with its
/// CRC. `S` is the chunk's coding state, reset at every chunk.
struct ChunkWriter<S> {
    sealed: Vec<Chunk>,
    cur: Vec<u8>,
    records: u32,
    st: S,
    /// One record, encoded before it is known to fit.
    scratch: Vec<u8>,
}

impl<S: Copy + Default> Default for ChunkWriter<S> {
    fn default() -> Self {
        ChunkWriter {
            sealed: Vec::new(),
            cur: Vec::new(),
            records: 0,
            st: S::default(),
            scratch: Vec::new(),
        }
    }
}

impl<S: Copy + Default> ChunkWriter<S> {
    /// Append the record `put` encodes in at most `bound` bytes. A record
    /// is written in place while `bound` more bytes fit; near the end of
    /// the chunk it is encoded aside first, and when it does not fit the
    /// chunk is sealed and the record starts the next one from a fresh
    /// state.
    fn push(&mut self, bound: usize, put: impl Fn(&mut Vec<u8>, &mut S)) {
        if self.records > 0 && self.cur.len() + bound > CHUNK_BYTES {
            let mut st = self.st;
            self.scratch.clear();
            put(&mut self.scratch, &mut st);
            if self.cur.len() + self.scratch.len() <= CHUNK_BYTES {
                self.cur.extend_from_slice(&self.scratch);
                self.records += 1;
                self.st = st;
                return;
            }
            self.seal();
        }
        if self.records == 0 {
            self.cur = Vec::with_capacity(CHUNK_BYTES.max(bound));
        }
        let at = self.cur.len();
        put(&mut self.cur, &mut self.st);
        debug_assert!(self.cur.len() - at <= bound, "a record overran its bound");
        self.records += 1;
    }

    fn seal(&mut self) {
        let bytes = std::mem::take(&mut self.cur);
        let crc = crc32(&bytes);
        self.sealed.push(Chunk {
            bytes,
            records: self.records,
            crc,
        });
        self.records = 0;
        self.st = S::default();
    }

    fn finish(mut self) -> Vec<Chunk> {
        if self.records > 0 {
            self.seal();
        }
        self.sealed
    }
}

/// Builds an [`ExecLog`]: execs as they end, late sends as they route.
#[derive(Default)]
struct LogWriter {
    execs: ChunkWriter<Deltas>,
    late: ChunkWriter<LateDeltas>,
    len: usize,
    /// Key of the last late send, and whether they have all come in key
    /// order so far.
    late_key: u64,
    late_unsorted: bool,
}

impl LogWriter {
    fn push_exec(&mut self, e: &ExecRec, sends: &[SendRec]) {
        let bound = EXEC_BOUND + SEND_BOUND * sends.len();
        self.execs
            .push(bound, |out, st| put_exec(out, st, e, sends));
        self.len += 1;
    }

    /// A send of exec `exec` that routed after it ended: a limbo flush.
    fn push_late(&mut self, exec: u32, s: &SendRec) {
        let key = 2 * exec as u64;
        self.late_unsorted |= key < self.late_key;
        self.late_key = key;
        self.late
            .push(LATE_BOUND, |out, st| put_late(out, st, key, s));
    }

    /// Seal the last chunks. Late sends that did not route in exec order
    /// are sorted — stably, so each exec keeps its limbo flushes in routing
    /// order — and encoded again.
    fn finish(self) -> ExecLog {
        let mut late = self.late.finish();
        if self.late_unsorted {
            let mut sends: Vec<(u64, SendRec)> = Vec::new();
            let mut l = Late::new(&late);
            while let Some(entry) = l.pop() {
                sends.push(entry);
            }
            late.clear();
            sends.sort_by_key(|&(key, _)| key);
            let mut w = ChunkWriter::<LateDeltas>::default();
            for (key, s) in sends {
                w.push(LATE_BOUND, |out, st| put_late(out, st, key, &s));
            }
            late = w.finish();
        }
        ExecLog {
            chunks: self.execs.finish(),
            late,
            len: self.len,
        }
    }
}

/// One frame of a v2 body, borrowed from it.
struct Frame<'a> {
    records: u32,
    crc: u32,
    bytes: &'a [u8],
}

fn write_frame(
    w: &mut dyn Write,
    records: u32,
    bytes: &[u8],
    crc: Option<u32>,
) -> std::io::Result<()> {
    let len = u32::try_from(bytes.len()).expect("a frame fits in u32 bytes");
    let crc = crc.unwrap_or_else(|| crc32(bytes));
    let mut head = [0u8; 12];
    for (i, v) in [records, len, crc].into_iter().enumerate() {
        head[4 * i..4 * i + 4].copy_from_slice(&v.to_le_bytes());
    }
    w.write_all(&head)?;
    w.write_all(bytes)
}

/// The frame at `*at`, its CRC checked; `name` says which one it is.
fn read_frame<'a>(
    body: &'a [u8],
    at: &mut usize,
    name: impl Fn() -> String,
) -> Result<Frame<'a>, String> {
    let truncated = || format!("{}: truncated (the file ends inside it)", name());
    let word = |i: usize| -> Result<u32, String> {
        let b = body
            .get(*at + 4 * i..*at + 4 * i + 4)
            .ok_or_else(truncated)?;
        Ok(u32::from_le_bytes(b.try_into().expect("four bytes")))
    };
    let (records, len, crc) = (word(0)?, word(1)? as usize, word(2)?);
    let bytes = body.get(*at + 12..*at + 12 + len).ok_or_else(truncated)?;
    if crc32(bytes) != crc {
        return Err(format!("{}: CRC mismatch", name()));
    }
    *at += 12 + len;
    Ok(Frame {
        records,
        crc,
        bytes,
    })
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
    /// Produced by the exec at this local index without being sent by its
    /// chare (a system event the exec's actions triggered, a reduction
    /// callback its contribution completed).
    Exec(u32),
    /// Sent by the chare of the exec at this local index.
    Sent(u32),
    /// [`MsgState::Sent`] after its routing was recorded.
    RoutedFrom(u32),
}

impl MsgState {
    const UNKNOWN: u32 = 0;
    const ROUTED: u32 = 1;
    const EXTERNAL: u32 = 2;
    /// First cell value that carries an index: `BASE + 3 * i + t`, with
    /// `t` = 0 `Exec`, 1 `Sent`, 2 `RoutedFrom`.
    const BASE: u32 = 3;
    /// Largest index a cell can carry.
    const MAX_INDEX: usize = ((u32::MAX - Self::BASE - 2) / 3) as usize;

    fn pack(self) -> u32 {
        match self {
            MsgState::Unknown => Self::UNKNOWN,
            MsgState::Routed => Self::ROUTED,
            MsgState::External => Self::EXTERNAL,
            MsgState::Exec(i) => Self::BASE + 3 * i,
            MsgState::Sent(i) => Self::BASE + 3 * i + 1,
            MsgState::RoutedFrom(i) => Self::BASE + 3 * i + 2,
        }
    }

    fn unpack(cell: u32) -> Self {
        match cell {
            Self::UNKNOWN => MsgState::Unknown,
            Self::ROUTED => MsgState::Routed,
            Self::EXTERNAL => MsgState::External,
            c => {
                let i = (c - Self::BASE) / 3;
                match (c - Self::BASE) % 3 {
                    0 => MsgState::Exec(i),
                    1 => MsgState::Sent(i),
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
/// behind an `Option`, tracer-style. It encodes the log's chunks as the run
/// goes, so building the log moves them.
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
    /// Every exec that has ended, encoded, and the late sends.
    log: LogWriter,
    /// [`ExecRec::dst`] of every exec so far: how the consumer of a
    /// chare's send names its sender.
    exec_chare: ChunkVec<u32>,
    /// The exec applying its actions and the sends it has routed so far:
    /// encoded together when it ends.
    pending: Option<ExecRec>,
    pending_sends: Vec<SendRec>,
    roots: Vec<SendRec>,
    state_points: Vec<DigestPoint>,
    /// msg id → origin until routed, then the routed mark (re-routes after
    /// limbo flushes and stale-cache forwards must not duplicate the send).
    msgs: MsgLanes,
    /// Index of the exec currently applying its actions.
    current: Option<u32>,
    /// Entry executions dropped past [`ReplayConfig::max_execs`].
    shed_execs: u64,
    /// Sends dropped because their producing exec was shed.
    shed_sends: u64,
    /// Exec count at the last state-digest point.
    last_digest_seq: u64,
}

impl Recorder {
    pub(crate) fn new(cfg: ReplayConfig) -> Self {
        Recorder {
            cfg,
            entry_names: Vec::new(),
            entry_memo: Vec::new(),
            chares: Vec::new(),
            chare_lanes: Vec::new(),
            log: LogWriter::default(),
            exec_chare: ChunkVec::new(),
            pending: None,
            pending_sends: Vec::new(),
            roots: Vec::new(),
            state_points: Vec::new(),
            msgs: MsgLanes::default(),
            current: None,
            shed_execs: 0,
            shed_sends: 0,
            last_digest_seq: 0,
        }
    }

    /// Is a state-digest point due (`digest_every` execs since the last
    /// one)? If so it counts as taken from here.
    pub(crate) fn take_digest_due(&mut self) -> bool {
        let execs = self.execs_len();
        let due = self.cfg.digest_every.is_some_and(|n| execs - self.last_digest_seq >= n);
        if due {
            self.last_digest_seq = execs;
        }
        due
    }

    /// Has the exec cap been reached?
    fn capped(&self) -> bool {
        self.cfg.max_execs.is_some_and(|m| self.execs_len() >= m)
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
        self.exec_chare.len() as u64
    }

    /// A new message was created; remember which exec (if any) produced it
    /// and whether that exec's chare sent it (`from_chare`).
    pub(crate) fn note_origin(&mut self, msg_id: u64, from_chare: bool) {
        let origin = match self.current {
            Some(i) if from_chare => MsgState::Sent(i),
            Some(i) => MsgState::Exec(i),
            // Past the exec cap nothing executes on the record, so a
            // message without a current exec has no recordable producer:
            // leave its cell unknown and count the send when it routes.
            None if self.capped() => return,
            None => MsgState::External,
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
                self.pending_sends.push(rec)
            }
            MsgState::Exec(i) | MsgState::Sent(i) => self.log.push_late(i, &rec),
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
        self.end_exec();
        if self.capped() {
            self.shed_execs += 1;
            return;
        }
        assert!(
            self.exec_chare.len() < MsgState::MAX_INDEX,
            "exec index overflow"
        );
        let entry = self.entry_index(dst.array.0 as usize, array_name, kind);
        let msg_src = match MsgState::unpack(*self.msgs.cell(msg_id)) {
            MsgState::Sent(i) | MsgState::RoutedFrom(i) => self.exec_chare[i as usize],
            _ => NO_CHARE,
        };
        let dst = self.chare_index(dst, obj);
        self.current = Some(self.exec_chare.len() as u32);
        self.exec_chare.push(dst);
        self.pending = Some(ExecRec {
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
        });
    }

    /// The current exec is done: encode it with the sends it routed.
    pub(crate) fn end_exec(&mut self) {
        self.current = None;
        if let Some(e) = self.pending.take() {
            self.log.push_exec(&e, &self.pending_sends);
            self.pending_sends.clear();
        }
    }

    pub(crate) fn push_state_point(&mut self, t: SimTime, digests: Vec<(ObjId, u64)>) {
        // Past the cap the digest would describe state the log's exec
        // prefix cannot reproduce; keep the truncated log self-consistent.
        if self.capped() {
            return;
        }
        self.state_points.push(DigestPoint {
            seq: self.execs_len(),
            t_ns: t.0,
            digests,
        });
    }

    /// Consume the recorder into a finished log: the chunks move into it.
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
        self.end_exec();
        let execs = self.log.finish();
        let final_state = DigestPoint {
            seq: execs.len() as u64,
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
            execs,
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

    /// Every exec with its sends, decoded.
    fn decoded(log: &ReplayLog) -> Vec<(ExecRec, Vec<SendRec>)> {
        log.execs.iter().map(|(e, s)| (e, s.collect())).collect()
    }

    fn v2(log: &ReplayLog) -> Vec<u8> {
        let mut out = Vec::new();
        log.write_v2(&mut out).unwrap();
        out
    }

    /// A log of `n` execs on one chare through [`LogWriter`]: exec `i` sends
    /// `sends(i)` messages, and every third one also gets a late send.
    fn written(n: u32, sends: impl Fn(u32) -> u32) -> ReplayLog {
        let mut w = LogWriter::default();
        let mut out = Vec::new();
        for i in 0..n {
            let e = ExecRec {
                pe: i % 7,
                start_ns: 1_000 * i as u64 + (i as u64 % 3) * 17,
                dur_ns: 250 + i as u64 % 11,
                msg_id: ((i as u64 % 5) << KEY_SLOT_SHIFT) | i as u64,
                msg_src: if i.is_multiple_of(4) { NO_CHARE } else { 0 },
                msg_digest: [0xfeed, 0xbeef, u64::MAX, i as u64][i as usize % 4],
                msg_bytes: 48 + i % 9,
                work: [0.0, 1e3, 0.5, -0.0, f64::NAN, 1e30][i as usize % 6],
                n_remote: i % 2,
                n_local: i % 3,
                ..Default::default()
            };
            out.clear();
            out.extend((0..sends(i)).map(|k| SendRec {
                msg_id: ((i as u64 % 3) << KEY_SLOT_SHIFT) | (i + k) as u64,
                bytes: 48 + k,
                src_pe: i % 7,
                dst_pe: k % 7,
                tree_depth: k % 2,
                rtt_bytes: 40 * (k % 2),
            }));
            w.push_exec(&e, &out);
        }
        // Late sends out of exec order: two rounds of limbo flushes.
        for _ in 0..2 {
            for i in (0..n).step_by(3) {
                w.push_late(
                    i,
                    &SendRec {
                        msg_id: u64::MAX - i as u64,
                        ..Default::default()
                    },
                );
            }
        }
        ReplayLog {
            app: "written".into(),
            chares: vec![obj(0, Ix::i1(1))],
            execs: w.finish(),
            end_ns: 1_000 * n as u64,
            ..Default::default()
        }
    }

    /// Chunks seal at their capacity, a record larger than one gets a chunk
    /// of its own, every field survives its coding (NaN and −0.0 work by
    /// their bits), and unsorted late sends come out behind their exec's
    /// own.
    #[test]
    fn chunks_decode_what_was_written() {
        let big = CHUNK_BYTES as u32 / 4;
        let n = 40_000;
        let log = written(n, |i| if i == 7 { big } else { i % 3 });
        assert!(log.execs.chunks.len() > 2, "many chunks");
        for c in &log.execs.chunks {
            assert!(
                c.bytes.len() <= CHUNK_BYTES || c.records == 1,
                "only a lone record overflows"
            );
            assert_eq!(c.crc, crc32(&c.bytes));
        }
        let execs = decoded(&log);
        assert_eq!(execs.len(), n as usize);
        assert_eq!(log.execs.iter().len(), n as usize);
        for (i, (e, sends)) in execs.iter().enumerate() {
            let i = i as u32;
            assert_eq!(e.start_ns, 1_000 * i as u64 + (i as u64 % 3) * 17);
            assert_eq!(
                e.msg_digest,
                [0xfeed, 0xbeef, u64::MAX, i as u64][i as usize % 4]
            );
            let w = [0.0, 1e3, 0.5, -0.0, f64::NAN, 1e30][i as usize % 6];
            assert_eq!(e.work.to_bits(), w.to_bits());
            assert_eq!(e.msg_src, if i.is_multiple_of(4) { NO_CHARE } else { 0 });
            let own = if i == 7 { big } else { i % 3 };
            let late = if i.is_multiple_of(3) { 2 } else { 0 };
            assert_eq!(sends.len() as u32, own + late, "exec {i}");
            assert!(sends[..own as usize]
                .iter()
                .enumerate()
                .all(|(k, s)| s.bytes == 48 + k as u32));
            assert!(sends[own as usize..]
                .iter()
                .all(|s| s.msg_id == u64::MAX - i as u64));
        }
        let back = ReplayLog::read_v2(&v2(&log)).unwrap();
        assert_eq!(back, log, "v2 keeps the chunks as they are");
    }

    /// A flipped byte is named by the frame it sits in, a cut file by the
    /// frame it ends in, and a chunk whose CRC holds but whose records do
    /// not decode is refused.
    #[test]
    fn corrupt_v2_bodies_name_the_frame() {
        let log = written(20_000, |i| i % 3);
        let body = v2(&log);
        let header = 12 + u32::from_le_bytes(body[4..8].try_into().unwrap()) as usize;
        let second = header + 12 + log.execs.chunks[0].bytes.len();
        let mut flipped = body.clone();
        flipped[second + 12 + 5] ^= 0x40;
        let err = ReplayLog::read_v2(&flipped).unwrap_err();
        assert!(err.starts_with("exec chunk 1 of"), "{err}");
        assert!(err.ends_with("CRC mismatch"), "{err}");
        let err = ReplayLog::read_v2(&body[..second + 100]).unwrap_err();
        assert!(
            err.starts_with("exec chunk 1 of") && err.contains("truncated"),
            "{err}"
        );
        let err = ReplayLog::read_v2(&body[..body.len() - 1]).unwrap_err();
        assert!(err.starts_with("tables"), "{err}");

        // Re-seal the first chunk with one record fewer than it holds.
        let mut short = log.clone();
        short.execs.chunks[0].records -= 1;
        let err = ReplayLog::read_v2(&v2(&short)).unwrap_err();
        assert!(err.starts_with("exec chunk 0 of"), "{err}");

        // A header whose CRC holds but which claims more chunks than the
        // body could frame is refused before anything is allocated for them.
        let mut p = Puper::packer(0);
        p.p(&mut String::new());
        p.p(&mut String::new());
        for mut v in [0u64, 0, 0, 0] {
            p.p(&mut v);
        }
        p.p(&mut 0f64);
        for mut v in [0u64, 1, u64::MAX / 2, 0] {
            p.p(&mut v);
        }
        let mut huge = Vec::new();
        write_frame(&mut huge, 0, &p.into_bytes(), None).unwrap();
        let err = ReplayLog::read_v2(&huge).unwrap_err();
        assert!(err.starts_with("header: more chunks"), "{err}");
    }

    #[test]
    fn varints_and_deltas_roundtrip_at_the_edges() {
        let vals = [
            0,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            1 << 40,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut out = Vec::new();
        let mut prev = 0;
        for v in vals {
            put_varint(&mut out, v);
            put_delta(&mut out, &mut prev, v);
        }
        let mut r = Reader::new(&out);
        let mut prev = 0;
        for v in vals {
            assert_eq!(r.varint(), Some(v));
            assert_eq!(r.delta(&mut prev), Some(v));
        }
        assert!(r.done());
        assert_eq!(
            Reader::new(&[0xff; 11]).varint(),
            None,
            "no varint runs past ten bytes"
        );
        assert_eq!(Reader::new(&[0x80]).varint(), None, "a cut varint");
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
            MsgState::Sent(3),
            MsgState::Sent(top),
            MsgState::RoutedFrom(0),
            MsgState::RoutedFrom(top),
        ] {
            assert_eq!(MsgState::unpack(s.pack()), s);
        }
        assert_eq!(
            MsgState::Unknown.pack(),
            0,
            "fresh lane cells read as unknown"
        );
    }

    /// The recorder's bookkeeping end to end: origins survive until the
    /// first routing (however late), re-routes are not recorded twice, a
    /// reduction callback is a send of the exec whose contribution completed
    /// it, and every exec's sends come out in routing order.
    #[test]
    fn sends_attach_to_their_producing_exec_in_routing_order() {
        let id = |slot: u64, ctr: u64| (slot << KEY_SLOT_SHIFT) | ctr;
        let mut r = Recorder::new(ReplayConfig::default());
        let begin = |r: &mut Recorder| {
            let (start, dur, o) = (SimTime(0), SimTime(1), obj(0, Ix::I1(0)));
            r.begin_exec(
                0,
                start,
                dur,
                elem(0, 0),
                o,
                "a",
                "on_message",
                0,
                0,
                8,
                0.0,
                0,
                0,
            )
        };
        let route = |r: &mut Recorder, msg_id| r.on_routed(msg_id, 8, 0, 1, 0, 0);

        r.note_origin(id(9, 0), false); // host send
        route(&mut r, id(9, 0));

        begin(&mut r);
        r.note_origin(id(0, 0), true);
        r.note_origin(id(0, 1), true); // destination missing: parked unrouted
        route(&mut r, id(0, 0));
        r.note_origin(id(5, 0), false); // the reduction callback it completed
        route(&mut r, id(5, 0));
        r.end_exec();

        begin(&mut r);
        r.note_origin(id(1, 0), false); // a system event the exec triggered
        r.note_origin(id(1, 1), true); // parked too
        route(&mut r, id(1, 0));
        route(&mut r, id(0, 0)); // limbo re-flush of a routed message
        r.end_exec();

        // The parked sends route after both execs ended, the second exec's
        // first.
        route(&mut r, id(1, 1));
        route(&mut r, id(0, 1));

        let log = r.into_log("m".into(), 2, 0, SimTime(0), 2, 1e9, SimTime(30), vec![]);
        let ids = |sends: &[SendRec]| sends.iter().map(|s| s.msg_id).collect::<Vec<_>>();
        assert_eq!(log.entry_names, vec!["a::on_message".to_string()]);
        let execs = decoded(&log);
        assert_eq!(ids(&execs[0].1), vec![id(0, 0), id(5, 0), id(0, 1)]);
        assert_eq!(ids(&execs[1].1), vec![id(1, 0), id(1, 1)]);
        assert_eq!(
            log.execs.late.iter().map(|c| c.records).sum::<u32>(),
            2,
            "two routed late"
        );
        assert_eq!(ids(&log.roots), vec![id(9, 0)]);
    }

    /// A late chunk of a log that still holds reduction-fold sends (key
    /// `2 × exec + 1`) checks and decodes: each fold send comes after its
    /// exec's own sends and limbo flushes.
    #[test]
    fn late_fold_sends_of_older_logs_still_decode() {
        let send = |msg_id| SendRec {
            msg_id,
            ..Default::default()
        };
        let mut w = LogWriter::default();
        for i in 0..3 {
            w.push_exec(&ExecRec::default(), &[send(i)]);
        }
        let mut execs = w.finish();
        let mut late = ChunkWriter::<LateDeltas>::default();
        // Exec 1's limbo flush and fold send, then exec 2's fold send.
        for (key, msg_id) in [(2, 10), (3, 11), (5, 12)] {
            late.push(LATE_BOUND, |out, st| put_late(out, st, key, &send(msg_id)));
        }
        execs.late = late.finish();
        execs.check(1).unwrap();
        let ids: Vec<Vec<u64>> = execs
            .iter()
            .map(|(_, s)| s.map(|s| s.msg_id).collect())
            .collect();
        assert_eq!(ids, vec![vec![0], vec![1, 10, 11], vec![2, 12]]);
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
            r.begin_exec(
                0,
                start,
                dur,
                dst,
                o(i),
                "a",
                "on_message",
                msg_id,
                0,
                8,
                0.0,
                0,
                0,
            )
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
        let srcs: Vec<_> = log.execs.iter().map(|(e, _)| log.msg_src(&e)).collect();
        assert_eq!(srcs, vec![None, Some(o(7)), None, None]);
        assert_eq!(log.chares, vec![o(7), o(8), o(9)]);
        let dsts: Vec<_> = log.execs.iter().map(|(e, _)| e.dst).collect();
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

    /// The log as `.rlog` v1 stored it — an `ObjId` per exec and a nested
    /// send list — with the derived `Pup` that defined the v1 layout, and a
    /// recorder that builds it the obvious way (hash maps keyed by message
    /// id). The reference model of the property test below.
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
            External,
        }

        /// The recording semantics, restated over hash maps.
        #[derive(Default)]
        pub struct Recorder {
            pub cap: Option<u64>,
            pub log: ReplayLog,
            origin: HashMap<u64, Origin>,
            routed: HashSet<u64>,
            current: Option<usize>,
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
                let origin = match self.current {
                    Some(exec) => Origin::Exec { exec, sent: from_chare },
                    None if self.capped() => return,
                    None => Origin::External,
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
                    None if self.capped() => {}
                    Some(Origin::External) | None => self.log.roots.push(rec),
                }
            }

            pub fn begin_exec(&mut self, pe: u32, dst: ObjId, name: String, msg_id: u64, start_ns: u64) {
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
                self.log.execs.push(ExecRec {
                    seq,
                    pe,
                    start_ns,
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
        // state points, chares of every index shape in two arrays, capped
        // or not —
        // fed to the recorder and to the reference one: the recorder's log
        // decodes to what the reference's v1 bytes read back as, and goes
        // through v2 unchanged.
        #[test]
        fn recorded_log_decodes_to_the_nested_reference(
            ops in proptest::collection::vec((0u8..8, proptest::prelude::any::<u8>()), 0..160),
            cap in proptest::option::of(0u64..24)
        ) {
            let entries = ["on_message", "Reduction", "Inserted"];
            let mut r = Recorder::new(ReplayConfig { digest_every: None, max_execs: cap });
            let mut m = v1::Recorder::new(cap);
            let mut msgs: Vec<u64> = Vec::new();
            let mut ctr = [0u64; 4];
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
                        let unseen = 5 << KEY_SLOT_SHIFT;
                        let msg_id = msgs.get(a as usize % (msgs.len() + 1)).copied().unwrap_or(unseen);
                        let (array, k) = (a as u32 % 2, a / 2 % 12);
                        let dst = obj(array, universe(k));
                        let pe = a as u32 % 5;
                        let kind = entries[a as usize % 3];
                        r.begin_exec(
                            pe as usize,
                            SimTime(t),
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
                        m.begin_exec(pe, dst, format!("arr{array}::{kind}"), msg_id, t);
                        in_exec = true;
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
                    // A state point, between execs.
                    _ => {
                        if in_exec {
                            r.end_exec();
                            m.end_exec();
                            in_exec = false;
                        }
                        let digests = vec![(obj(0, universe(a)), a as u64)];
                        r.push_state_point(SimTime(t), digests.clone());
                        m.state_point(t, digests);
                    }
                }
            }
            let fin = vec![(obj(1, Ix::i2(3, 4)), 77)];
            let log = r.into_log(String::new(), 0, 0, SimTime(0), 0, 0.0, SimTime(t), fin.clone());
            let reference = ReplayLog::read_v1(&charm_pup::to_bytes(&mut m.finish(t, fin))).unwrap();
            proptest::prop_assert_eq!(decoded(&log), decoded(&reference));
            proptest::prop_assert_eq!(&log.chares, &reference.chares);
            proptest::prop_assert_eq!(&log.entry_names, &reference.entry_names);
            proptest::prop_assert_eq!(&log.roots, &reference.roots);
            proptest::prop_assert_eq!(&log.state_points, &reference.state_points);
            proptest::prop_assert_eq!(&log.final_state, &reference.final_state);
            proptest::prop_assert_eq!(log.end_ns, reference.end_ns);
            let back = ReplayLog::read_v2(&v2(&log)).unwrap();
            proptest::prop_assert_eq!(&back, &log);
            if let Some(cap) = cap {
                proptest::prop_assert!(log.execs.len() as u64 <= cap);
            }
        }
    }
}
