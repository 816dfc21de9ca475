//! `charm-trace` — Projections-lite runtime tracing & metrics (the paper's
//! observability surface: every adaptive-RTS feature in §II/§III rests on
//! the runtime *observing itself*; in real Charm++ that surface is the
//! Projections framework).
//!
//! Three consumption modes mirror Projections' log vs. summary split, plus
//! the streaming mode that survives 128 K–1 M simulated PEs:
//!
//! * **Full log** — every runtime event (entry execution, message send/recv,
//!   PE idle/busy transitions, LB rounds with migration lists, checkpoint /
//!   rollback / failure, DVFS frequency changes, shrink/expand) is recorded
//!   into a *bounded* per-PE ring buffer. Overflow drops the oldest records
//!   and counts them ([`Tracer::dropped_events`]) — memory stays bounded no
//!   matter how long the run. The log exports to Chrome trace-event JSON
//!   ([`Runtime::trace_chrome_json`], loadable in Perfetto or
//!   `chrome://tracing`, one track per PE plus an RTS track) and to CSV.
//! * **Streaming sinks** — every record also fans out, at record time, to
//!   any [`TraceSink`]s installed via
//!   [`RuntimeBuilder::trace_sink`](crate::RuntimeBuilder::trace_sink):
//!   the built-in [`ChromeStreamSink`] / [`CsvStreamSink`] write the exact
//!   bytes of the in-memory exporters incrementally to disk, so the full
//!   event log survives runs far larger than any ring budget. Sinks report
//!   [`SinkStats`] (records, bytes, write errors) surfaced in
//!   [`RunSummary`](crate::RunSummary) and the report footer.
//! * **Summary** — always-cheap streaming aggregates that never depend on
//!   ring capacity: per-entry-method time profiles (total/min/max and an
//!   HDR-style sub-bucketed [`LogHist`] giving the count, p50/p99/p999 and
//!   a log₂ duration histogram without storing samples), a modeled
//!   message-latency histogram, a binned per-PE utilization timeline that
//!   coarsens itself to stay within 1024 bins of initially 1 ms (and
//!   collapses to one aggregate row above 4096 PEs), a *sparse* top-K
//!   communication matrix (per-source fanout capped by
//!   [`TraceConfig::comm_fanout_cap`] — no dense PE×PE array), and an
//!   LB/FT ledger holding its newest 4096 lines.
//!   [`Runtime::projections_report`] renders them as a text report.
//!
//! The tracer keeps no dependency edges: a run's critical path is
//! extracted exactly from its recording
//! ([`RuntimeBuilder::record`](crate::RuntimeBuilder::record)) by
//! `charm_replay::critical_path`.
//!
//! Tracing is off unless [`RuntimeBuilder::tracing`](crate::RuntimeBuilder::tracing)
//! installs a [`TraceConfig`]; when off, every hook is a skipped `if let`
//! — zero events, zero per-message allocation.
//!
//! Determinism: records are produced in simulator dispatch order and carry
//! only virtual times, so two runs with the same seed and machine profile
//! emit byte-identical exports (tested in `tests/trace.rs`); streamed files
//! are byte-identical to the arrival-order in-memory exporters
//! ([`Runtime::trace_chrome_json_arrival`]) whenever nothing was dropped.

use crate::array::{ArrayId, ObjId};
use crate::chunked::{ChunkVec, HandleIndex, ROW_CHUNK_BITS};
use crate::runtime::Runtime;
use crate::tracefmt::{
    into_string, push_json_escaped, write_chrome_event, write_chrome_track, write_csv_row,
    CHROME_OPEN, CHROME_TAIL, CSV_HEADER,
};
use charm_machine::SimTime;
use fxhash::FxHashMap;
use std::fmt::Write as _;

/// Configures the tracing subsystem (see module docs).
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Ring capacity per track (one track per PE plus one RTS track).
    /// `0` keeps only the summary aggregates; every log record then counts
    /// as dropped (streaming sinks still see everything).
    pub log_capacity: usize,
    /// Per-source cap on tracked communication partners (sparse top-K comm
    /// matrix); traffic to further destinations is counted as shed.
    /// `0` = unlimited.
    pub comm_fanout_cap: usize,
}

/// Initial utilization-timeline bin width.
const UTIL_BIN: SimTime = SimTime::from_millis(1);
/// Bin budget for the utilization timeline; when the run outgrows it the
/// bin width doubles and adjacent bins fold together.
const MAX_UTIL_BINS: usize = 1024;
/// Above this many PEs the utilization timeline keeps a single machine-wide
/// row instead of one per PE (O(PE × bins) → O(bins)).
const UTIL_PE_CAP: usize = 4096;
/// Ledger lines retained (newest kept); older lines are shed and counted,
/// like ring records.
const LEDGER_CAPACITY: usize = 4096;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            log_capacity: 1 << 16,
            comm_fanout_cap: 64,
        }
    }
}

impl TraceConfig {
    /// Summary-only preset: no event log, just the cheap aggregates.
    pub fn summary_only() -> Self {
        TraceConfig {
            log_capacity: 0,
            ..TraceConfig::default()
        }
    }
}

/// Which entry method of a chare array ran: its user message handler or a
/// runtime [`SysEvent`](crate::SysEvent) handler (named by variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EntryKind {
    /// `Chare::on_message` (the array's user entry method).
    Message,
    /// `Chare::on_event` with the named system event.
    Event(&'static str),
}

impl EntryKind {
    /// Short label used in exports ("entry" or the event name).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            EntryKind::Message => "entry",
            EntryKind::Event(name) => name,
        }
    }
}

/// One traced runtime event. `Entry` spans carry a duration; everything
/// else is an instant.
#[derive(Debug, Clone)]
pub enum TraceEventKind {
    /// An entry method completed on this track's PE (start time = record
    /// time; completion was at `t + dur`). Recorded at completion so traced
    /// busy time agrees exactly with [`Runtime::pe_busy_time`].
    Entry {
        /// The chare that ran.
        obj: ObjId,
        /// Which of its entry methods.
        entry: EntryKind,
        /// Modeled execution duration.
        dur: SimTime,
    },
    /// A message left this track's PE toward `dst_pe`.
    MsgSend {
        /// Destination chare.
        dst: ObjId,
        /// PE the message was routed to.
        dst_pe: usize,
        /// Wire size, envelope included.
        bytes: usize,
    },
    /// A message was enqueued on this track's PE scheduler queue.
    MsgRecv {
        /// Sending PE.
        src_pe: usize,
        /// Destination chare.
        dst: ObjId,
        /// Wire size, envelope included.
        bytes: usize,
    },
    /// The PE went from idle to executing.
    PeBusy,
    /// The PE drained its queue and went idle.
    PeIdle,
    /// A load-balancing round started (RTS track).
    LbBegin {
        /// Strategy about to run.
        strategy: &'static str,
        /// Objects whose stats were collected.
        objs: usize,
    },
    /// One object migrated during an LB round or by `migrate_me` (RTS
    /// track; the records between `LbBegin` and `LbEnd` are the round's
    /// migration list).
    Migration {
        /// The object that moved.
        obj: ObjId,
        /// Source PE.
        from_pe: usize,
        /// Destination PE.
        to_pe: usize,
    },
    /// A load-balancing round finished (RTS track).
    LbEnd {
        /// Strategy that ran.
        strategy: &'static str,
        /// Objects that moved.
        migrations: usize,
        /// Modeled cost of the whole round.
        cost: SimTime,
    },
    /// A double in-memory checkpoint started replicating (RTS track).
    CkptBegin {
        /// Chares captured.
        chares: usize,
        /// Total snapshot bytes.
        bytes: usize,
    },
    /// The in-flight checkpoint committed and became the recovery point.
    CkptCommit,
    /// A failure aborted the in-flight checkpoint before it committed.
    CkptAbort,
    /// A node failure killed a contiguous PE range (RTS track).
    NodeFail {
        /// First PE of the failed node.
        first_pe: usize,
        /// PEs killed.
        num_pes: usize,
    },
    /// The application rolled back to the last committed checkpoint.
    Rollback {
        /// Virtual time the restored checkpoint was taken.
        to: SimTime,
        /// Chares restored.
        chares: usize,
    },
    /// A failure destroyed state beyond recovery.
    Unrecoverable {
        /// Chares lost outright.
        lost: usize,
    },
    /// DVFS changed a chip's frequency (RTS track).
    DvfsFreq {
        /// The chip.
        chip: usize,
        /// New frequency as a fraction of nominal.
        freq_factor: f64,
    },
    /// Malleable shrink/expand retargeted the live-PE count (RTS track).
    Reconfigure {
        /// PE count before.
        from: usize,
        /// PE count after.
        to: usize,
    },
    /// A spot preemption was announced for a node (RTS track).
    PreemptWarning {
        /// First PE of the doomed node.
        first_pe: usize,
        /// PEs the platform will reclaim.
        num_pes: usize,
        /// When the kill lands.
        deadline: SimTime,
        /// Did the warning horizon cover the modeled evacuation cost?
        proactive: bool,
    },
    /// Chares were proactively drained off doomed PEs before a preemption
    /// deadline — no rollback needed (RTS track).
    Evacuation {
        /// Chares moved to surviving PEs.
        chares: usize,
        /// First evacuated PE.
        first_pe: usize,
        /// PEs evacuated.
        num_pes: usize,
    },
    /// The elastic controller issued a shrink/expand decision (RTS track).
    ElasticDecision {
        /// Live-PE target before.
        from: usize,
        /// Live-PE target after.
        to: usize,
        /// Utilization sample that drove the decision.
        util: f64,
    },
    /// Capacity fell below the configured floor; the run continues in
    /// degraded mode (RTS track).
    DegradedCapacity {
        /// Alive PEs remaining.
        have: usize,
        /// The floor that was violated.
        floor: usize,
    },
}

/// A timestamped record on one track (`track < num_pes` = that PE;
/// `track == num_pes` = the RTS track).
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Virtual time of the event (for `Entry`, the span's start).
    pub(crate) t: SimTime,
    /// Owning track.
    pub(crate) track: usize,
    /// Arrival order: position in the tracer's global record stream (the
    /// order streaming sinks observed).
    pub(crate) seq: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

// ---------------------------------------------------------------------------
// Streaming sinks.

/// Per-sink delivery counters, surfaced in [`RunSummary`](crate::RunSummary)
/// and the `projections_report` footer so trace loss is never silent.
#[derive(Debug, Clone, Default)]
pub struct SinkStats {
    /// Sink name (e.g. `chrome_stream`).
    pub name: String,
    /// Records delivered to the sink.
    pub records: u64,
    /// Records the sink failed to persist (e.g. write errors).
    pub dropped: u64,
    /// Payload bytes the sink has written out.
    pub bytes_written: u64,
}

/// Maps array ids to names so sinks and exporters can format events
/// without a `Runtime` in hand. Populated by `Runtime::create_array`, which
/// also escapes each name for JSON once, so no formatter ever escapes (or
/// allocates) per record.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    arrays: Vec<ArrayNames>,
}

#[derive(Debug, Clone)]
struct ArrayNames {
    plain: String,
    /// `plain` with `\` and `"` backslash-escaped.
    json: String,
}

impl ArrayNames {
    fn new(name: &str) -> Self {
        let name = if name.is_empty() { "?" } else { name };
        let mut json = Vec::with_capacity(name.len());
        push_json_escaped(&mut json, name);
        ArrayNames {
            plain: name.to_string(),
            json: into_string(json),
        }
    }
}

impl NameTable {
    pub(crate) fn register(&mut self, id: ArrayId, name: &str) {
        let i = id.0 as usize;
        if self.arrays.len() <= i {
            self.arrays.resize_with(i + 1, || ArrayNames::new("?"));
        }
        self.arrays[i] = ArrayNames::new(name);
    }

    /// The array's registered name (`"?"` if unknown).
    pub(crate) fn array_name(&self, id: ArrayId) -> &str {
        self.arrays.get(id.0 as usize).map_or("?", |a| &a.plain)
    }

    /// [`array_name`](Self::array_name), JSON-escaped.
    pub(crate) fn array_json(&self, id: ArrayId) -> &str {
        self.arrays.get(id.0 as usize).map_or("?", |a| &a.json)
    }

    /// `<array>::<entry>`: the name profiles, SLO rows, the report and
    /// every export give an entry method.
    pub(crate) fn entry_name(&self, array: ArrayId, entry: EntryKind) -> String {
        format!("{}::{}", self.array_name(array), entry.label())
    }
}

/// A consumer of the live record stream. Events arrive incrementally, in
/// dispatch order, as they are traced — a sink never needs the run to fit
/// in memory. Installed via
/// [`RuntimeBuilder::trace_sink`](crate::RuntimeBuilder::trace_sink).
///
/// The per-PE rings remain the built-in retention sink (their drops are
/// counted separately by `Tracer::dropped_events`); external sinks see
/// every record regardless of ring capacity.
pub trait TraceSink: Send {
    /// Short stable identifier used in stats and reports.
    fn name(&self) -> &'static str;
    /// Called once before the first record.
    fn begin(&mut self, num_tracks: usize, names: &NameTable) {
        let _ = (num_tracks, names);
    }
    /// One traced record, in arrival order.
    fn record(&mut self, rec: &TraceRecord, names: &NameTable);
    /// Flush and finalize output. Idempotent; called by
    /// [`Runtime::finish_trace`].
    fn finish(&mut self, names: &NameTable) {
        let _ = names;
    }
    /// Delivery counters so far.
    fn stats(&self) -> SinkStats;
}

/// Bounded ring: keeps the newest `cap` (≥ 1) records, counts what it
/// sheds.
struct Ring {
    cap: usize,
    buf: Vec<TraceRecord>,
    /// Index of the oldest record once the ring has wrapped.
    next: usize,
    dropped: u64,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            cap,
            buf: Vec::new(),
            next: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, r: TraceRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(r);
        } else {
            self.buf[self.next] = r;
            self.next = (self.next + 1) % self.cap;
            self.dropped += 1;
        }
    }

    fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf[self.next..].iter().chain(self.buf[..self.next].iter())
    }
}

// ---------------------------------------------------------------------------
// Online histograms.

const QH_EXACT: usize = 8; // values 0..8 get exact buckets
const QH_SUB: usize = 8; // sub-buckets per octave (log₂ major bucket)
const QH_BUCKETS: usize = QH_EXACT + 61 * QH_SUB;

/// HDR-style log-bucketed histogram: 8 exact buckets below 8, then 8
/// sub-buckets per power of two. Relative quantile error ≤ 1/8 — the
/// estimate always lands in the same sub-bucket as the exact order
/// statistic (property-tested) — in ~4 KB regardless of sample count.
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LogHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHist {
            counts: vec![0; QH_BUCKETS],
            total: 0,
        }
    }

    /// Bucket index for a value.
    pub fn bucket_of(v: u64) -> usize {
        if v < QH_EXACT as u64 {
            v as usize
        } else {
            let m = 63 - v.leading_zeros() as usize;
            QH_EXACT + (m - 3) * QH_SUB + ((v >> (m - 3)) & 7) as usize
        }
    }

    /// Smallest value mapping to bucket `i` (the quantile estimate).
    pub(crate) fn bucket_lo(i: usize) -> u64 {
        if i < QH_EXACT {
            i as u64
        } else {
            let m = 3 + (i - QH_EXACT) / QH_SUB;
            let s = ((i - QH_EXACT) % QH_SUB) as u64;
            (1u64 << m) + (s << (m - 3))
        }
    }

    /// Record one sample.
    pub fn add(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub(crate) fn count(&self) -> u64 {
        self.total
    }

    /// The q-quantile estimate (lower bound of the bucket holding the
    /// ⌈q·n⌉-th order statistic). `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_lo(i);
            }
        }
        Self::bucket_lo(QH_BUCKETS - 1)
    }

    /// Fold another histogram in.
    pub fn merge(&mut self, o: &LogHist) {
        for (a, b) in self.counts.iter_mut().zip(o.counts.iter()) {
            *a += b;
        }
        self.total += o.total;
    }

    /// Raw bucket counts (length [`LogHist::num_buckets`]). Pairs with
    /// [`LogHist::from_counts`] so chares can ship histograms through
    /// `RedOp::Sum` reductions: bucket-wise summation of counts *is* the
    /// histogram merge.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of buckets in every histogram.
    pub const fn num_buckets() -> usize {
        QH_BUCKETS
    }

    /// Rebuild a histogram from raw bucket counts (e.g. the value of a
    /// summed reduction over per-chare [`LogHist::counts`] vectors). Extra
    /// trailing entries are ignored; missing ones count as empty buckets.
    pub fn from_counts(counts: &[u64]) -> Self {
        let mut h = LogHist::new();
        for (a, &b) in h.counts.iter_mut().zip(counts) {
            *a = b;
        }
        h.total = h.counts.iter().sum();
        h
    }
}

// Serializable so latency histograms can live inside chare state and
// survive migration / checkpoint like any other field.
impl charm_pup::Pup for LogHist {
    fn pup(&mut self, p: &mut charm_pup::Puper) {
        p.p(&mut self.counts);
        p.p(&mut self.total);
    }
}

impl std::fmt::Debug for LogHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "LogHist({} samples, p50={} p99={})",
            self.total,
            self.quantile(0.5),
            self.quantile(0.99)
        )
    }
}

/// Streaming per-entry-method aggregate.
#[derive(Debug, Clone)]
struct EntryAgg {
    total: SimTime,
    min: SimTime,
    max: SimTime,
    /// Durations in ns: the count, p50/p99/p999 and the log₂ histogram.
    qhist: LogHist,
}

impl EntryAgg {
    fn new() -> Self {
        EntryAgg {
            total: SimTime::ZERO,
            min: SimTime::MAX,
            max: SimTime::ZERO,
            qhist: LogHist::new(),
        }
    }

    fn add(&mut self, dur: SimTime) {
        self.total += dur;
        self.min = self.min.min(dur);
        self.max = self.max.max(dur);
        self.qhist.add(dur.as_nanos());
    }
}

/// Resolved per-entry-method profile, ready for reports and tuners.
#[derive(Debug, Clone)]
pub struct TraceProfile {
    /// `<array>::<entry>` (e.g. `leanmd_cells::entry`,
    /// `leanmd_cells::ResumeFromSync`).
    pub name: String,
    /// Executions.
    pub count: u64,
    /// Total busy seconds across executions.
    pub total_s: f64,
    /// Shortest execution, seconds.
    pub(crate) min_s: f64,
    /// Longest execution, seconds.
    pub(crate) max_s: f64,
    /// Median execution time, seconds (log-bucket estimate).
    pub(crate) p50_s: f64,
    /// 99th-percentile execution time, seconds (log-bucket estimate).
    pub(crate) p99_s: f64,
    /// 99.9th-percentile execution time, seconds (log-bucket estimate).
    pub(crate) p999_s: f64,
}

impl TraceProfile {
    /// Mean execution time, seconds.
    pub(crate) fn avg_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s / self.count as f64
        }
    }
}

// ---------------------------------------------------------------------------
// Sparse communication matrix.

#[derive(Debug, Clone)]
struct CommCell {
    /// `src << 32 | dst`.
    key: u64,
    bytes: u64,
    msgs: u64,
}

/// Sparse top-K comm matrix: tracks up to `cap` destinations per source
/// (first-come, like a flow cache) and sheds the rest into counters. It
/// holds a 24-byte cell per tracked (src, dst) pair, at scale under three
/// 4-byte index slots per cell, and a 4-byte degree per PE — never the
/// dense O(PE²) array.
struct CommMatrix {
    cap: usize,
    /// Tracked pairs, first-come; a cell's handle is its position.
    cells: ChunkVec<CommCell, ROW_CHUNK_BITS>,
    idx: HandleIndex,
    /// Tracked destinations per source PE.
    deg: Vec<u32>,
    shed_msgs: u64,
    shed_bytes: u64,
}

impl CommMatrix {
    fn new(num_pes: usize, cap: usize) -> Self {
        CommMatrix {
            cap,
            cells: ChunkVec::new(),
            idx: HandleIndex::default(),
            deg: vec![0; num_pes],
            shed_msgs: 0,
            shed_bytes: 0,
        }
    }

    fn hash(key: u64) -> u64 {
        std::hash::BuildHasher::hash_one(&fxhash::FxBuildHasher::default(), key)
    }

    fn add(&mut self, src: usize, dst: usize, bytes: u64) {
        let key = ((src as u64) << 32) | dst as u64;
        let cells = &self.cells;
        match self.idx.probe(Self::hash(key), |h| cells[h as usize].key == key) {
            Ok(h) => {
                let c = &mut self.cells[h as usize];
                c.bytes += bytes;
                c.msgs += 1;
            }
            Err(at) if self.cap == 0 || (self.deg[src] as usize) < self.cap => {
                self.deg[src] += 1;
                let h = self.cells.len() as u32;
                self.cells.push(CommCell { key, bytes, msgs: 1 });
                let cells = &self.cells;
                self.idx.insert(at, h, |h| Self::hash(cells[h as usize].key));
            }
            Err(_) => {
                self.shed_msgs += 1;
                self.shed_bytes += bytes;
            }
        }
    }

    /// All tracked remote pairs, hottest first (bytes desc, then
    /// (src, dst) asc — insertion-order independent).
    fn top(&self) -> Vec<(usize, usize, u64, u64)> {
        let mut pairs: Vec<(usize, usize, u64, u64)> = (0..self.cells.len())
            .map(|i| &self.cells[i])
            .map(|c| ((c.key >> 32) as usize, c.key as u32 as usize, c.bytes, c.msgs))
            .filter(|&(src, dst, bytes, _)| bytes > 0 && src != dst)
            .collect();
        pairs.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));
        pairs
    }
}

/// Self-coarsening binned busy-time timeline (bounded memory). Above
/// `pe_cap` PEs it keeps a single machine-wide row (`agg_over` > 0)
/// instead of one per PE.
struct UtilTimeline {
    bin_ns: u64,
    max_bins: usize,
    /// When > 0, `per_pe` has one row aggregating this many PEs.
    agg_over: usize,
    /// Busy nanoseconds per bin, per PE (or aggregated).
    per_pe: Vec<Vec<u64>>,
}

impl UtilTimeline {
    fn new(bin: SimTime, max_bins: usize, num_pes: usize, pe_cap: usize) -> Self {
        let agg = num_pes > pe_cap.max(1);
        UtilTimeline {
            bin_ns: bin.as_nanos().max(1),
            max_bins: max_bins.max(2),
            agg_over: if agg { num_pes } else { 0 },
            per_pe: vec![Vec::new(); if agg { 1 } else { num_pes }],
        }
    }

    fn add(&mut self, pe: usize, start: SimTime, end: SimTime) {
        let pe = if self.agg_over > 0 { 0 } else { pe };
        if pe >= self.per_pe.len() || end <= start {
            return;
        }
        let (start, end) = (start.as_nanos(), end.as_nanos());
        while (end / self.bin_ns) as usize >= self.max_bins {
            self.fold();
        }
        let mut s = start;
        while s < end {
            let b = (s / self.bin_ns) as usize;
            let e = end.min((b as u64 + 1) * self.bin_ns);
            let v = &mut self.per_pe[pe];
            if v.len() <= b {
                v.resize(b + 1, 0);
            }
            v[b] += e - s;
            s = e;
        }
    }

    /// Double the bin width, folding adjacent bins together.
    fn fold(&mut self) {
        self.bin_ns *= 2;
        for v in &mut self.per_pe {
            let half = v.len().div_ceil(2);
            for i in 0..half {
                let a = v[2 * i];
                let b = v.get(2 * i + 1).copied().unwrap_or(0);
                v[i] = a + b;
            }
            v.truncate(half);
        }
    }
}

// ---------------------------------------------------------------------------
// The tracer.

/// The tracing subsystem: bounded per-PE event logs, streaming sinks, and
/// online summary aggregates. Owned by the [`Runtime`]; construct via
/// [`RuntimeBuilder::tracing`](crate::RuntimeBuilder::tracing).
pub struct Tracer {
    cfg: TraceConfig,
    num_pes: usize,
    /// One ring per track; none when `log_capacity == 0`, which keeps no
    /// record and only counts them in `unretained`.
    rings: Vec<Ring>,
    unretained: u64,
    sinks: Vec<Box<dyn TraceSink>>,
    sinks_begun: bool,
    sinks_finished: bool,
    names: NameTable,
    /// Global arrival counter stamped onto every record.
    seq: u64,
    /// Fx-hashed: bumped once per traced entry completion on the hot path.
    profiles: FxHashMap<(ArrayId, EntryKind), EntryAgg>,
    util: UtilTimeline,
    comm: CommMatrix,
    /// Modeled end-to-end message latency (send → delivery), nanoseconds.
    msg_latency: LogHist,
    busy_state: Vec<bool>,
    /// Human-readable LB/FT/DVFS/malleability ledger (newest
    /// [`LEDGER_CAPACITY`] lines; compacted at 2× cap).
    ledger: Vec<(SimTime, String)>,
    ledger_total: u64,
}

impl Tracer {
    pub(crate) fn new(cfg: TraceConfig, num_pes: usize) -> Self {
        let rings = match cfg.log_capacity {
            0 => Vec::new(),
            cap => (0..=num_pes).map(|_| Ring::new(cap)).collect(),
        };
        Tracer {
            util: UtilTimeline::new(UTIL_BIN, MAX_UTIL_BINS, num_pes, UTIL_PE_CAP),
            comm: CommMatrix::new(num_pes, cfg.comm_fanout_cap),
            cfg,
            num_pes,
            rings,
            unretained: 0,
            sinks: Vec::new(),
            sinks_begun: false,
            sinks_finished: false,
            names: NameTable::default(),
            seq: 0,
            profiles: FxHashMap::default(),
            msg_latency: LogHist::new(),
            busy_state: vec![false; num_pes],
            ledger: Vec::new(),
            ledger_total: 0,
        }
    }

    /// The configuration this tracer was built with.
    pub(crate) fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Number of tracks (PEs + the RTS track).
    pub fn num_tracks(&self) -> usize {
        self.num_pes + 1
    }

    /// The RTS track index (`num_pes`).
    pub fn rts_track(&self) -> usize {
        self.num_pes
    }

    /// Records currently retained on a track, oldest first.
    pub fn track(&self, track: usize) -> impl Iterator<Item = &TraceRecord> {
        assert!(track < self.num_tracks(), "track {track} out of range");
        self.rings.get(track).into_iter().flat_map(Ring::iter)
    }

    /// Records retained on a track.
    pub fn track_len(&self, track: usize) -> usize {
        assert!(track < self.num_tracks(), "track {track} out of range");
        self.rings.get(track).map_or(0, |r| r.buf.len())
    }

    /// Log records shed across all tracks (ring overflow, or everything
    /// when `log_capacity == 0`). Summary aggregates and streaming sinks
    /// never drop.
    pub fn dropped_events(&self) -> u64 {
        self.unretained + self.rings.iter().map(|r| r.dropped).sum::<u64>()
    }

    /// Tracked remote comm pairs `(src, dst, bytes, msgs)`, hottest first.
    pub(crate) fn comm_top(&self) -> Vec<(usize, usize, u64, u64)> {
        self.comm.top()
    }

    /// Traffic shed beyond the per-source fanout cap: `(messages, bytes)`.
    pub(crate) fn comm_shed(&self) -> (u64, u64) {
        (self.comm.shed_msgs, self.comm.shed_bytes)
    }

    /// Modeled message-latency histogram (send → delivery, nanoseconds).
    pub(crate) fn msg_latency(&self) -> &LogHist {
        &self.msg_latency
    }

    /// Utilization timeline: bin width in seconds and, per PE, the busy
    /// fraction of each bin. Above 4096 PEs there is a single machine-wide
    /// row (see [`Tracer::util_aggregated`]).
    pub(crate) fn util_timeline(&self) -> (f64, Vec<Vec<f64>>) {
        let bin_s = self.util.bin_ns as f64 / 1e9;
        let denom = self.util.bin_ns as f64 * self.util.agg_over.max(1) as f64;
        let rows = self
            .util
            .per_pe
            .iter()
            .map(|v| v.iter().map(|&ns| ns as f64 / denom).collect())
            .collect();
        (bin_s, rows)
    }

    /// `Some(num_pes)` when the utilization timeline is one machine-wide
    /// aggregate row instead of per-PE rows.
    pub(crate) fn util_aggregated(&self) -> Option<usize> {
        (self.util.agg_over > 0).then_some(self.util.agg_over)
    }

    /// Total traced busy time summed over every entry-method profile —
    /// equals `Σ pe_busy_time` when tracing covered the whole run.
    pub fn total_entry_time(&self) -> SimTime {
        self.profiles.values().map(|a| a.total).sum()
    }

    /// LB/FT/DVFS/malleability ledger lines (time, text), oldest first —
    /// the newest 4096 survive.
    pub fn ledger(&self) -> &[(SimTime, String)] {
        let n = self.ledger.len();
        &self.ledger[n - n.min(LEDGER_CAPACITY)..]
    }

    /// Ledger lines shed beyond the retention cap.
    pub(crate) fn ledger_shed(&self) -> u64 {
        self.ledger_total - self.ledger().len() as u64
    }

    /// Delivery counters for every installed streaming sink.
    pub(crate) fn sink_stats(&self) -> Vec<SinkStats> {
        self.sinks.iter().map(|s| s.stats()).collect()
    }

    /// Flush and finalize all streaming sinks; returns their final stats.
    /// Idempotent.
    pub(crate) fn finish_sinks(&mut self) -> Vec<SinkStats> {
        if !self.sinks_finished {
            self.sinks_finished = true;
            for s in &mut self.sinks {
                s.finish(&self.names);
            }
        }
        self.sink_stats()
    }

    pub(crate) fn add_sink(&mut self, sink: Box<dyn TraceSink>) {
        // A sink added mid-stream would silently miss everything already
        // pushed, so require a completely untouched tracer.
        assert!(
            !self.sinks_begun && self.seq == 0,
            "trace sinks must be installed before the first traced event"
        );
        self.sinks.push(sink);
    }

    pub(crate) fn register_array(&mut self, id: ArrayId, name: &str) {
        self.names.register(id, name);
    }

    // ----- recording hooks (crate-internal) --------------------------------

    fn push(&mut self, track: usize, t: SimTime, kind: TraceEventKind) {
        let rec = TraceRecord {
            t,
            track,
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        if !self.sinks.is_empty() {
            if !self.sinks_begun {
                self.sinks_begun = true;
                let n = self.num_tracks();
                for s in &mut self.sinks {
                    s.begin(n, &self.names);
                }
            }
            for s in &mut self.sinks {
                s.record(&rec, &self.names);
            }
        }
        match self.rings.get_mut(track) {
            Some(ring) => ring.push(rec),
            None => self.unretained += 1,
        }
    }

    fn ledger_line(&mut self, t: SimTime, line: String) {
        self.ledger_total += 1;
        self.ledger.push((t, line));
        if self.ledger.len() >= 2 * LEDGER_CAPACITY {
            let n = self.ledger.len() - LEDGER_CAPACITY;
            self.ledger.drain(..n);
        }
    }

    /// An entry method completed: `dur` ending at `start + dur` on `pe`.
    pub(crate) fn on_entry(&mut self, pe: usize, obj: ObjId, entry: EntryKind, start: SimTime, dur: SimTime) {
        self.profiles
            .entry((obj.array, entry))
            .or_insert_with(EntryAgg::new)
            .add(dur);
        self.util.add(pe, start, start + dur);
        self.push(pe, start, TraceEventKind::Entry { obj, entry, dur });
    }

    /// A message sent at `t` that arrives `lat` later.
    pub(crate) fn on_send(
        &mut self,
        t: SimTime,
        src_pe: usize,
        dst_pe: usize,
        dst: ObjId,
        bytes: usize,
        lat: SimTime,
    ) {
        if src_pe < self.num_pes && dst_pe < self.num_pes {
            self.comm.add(src_pe, dst_pe, bytes as u64);
        }
        self.push(
            src_pe.min(self.num_pes),
            t,
            TraceEventKind::MsgSend { dst, dst_pe, bytes },
        );
        self.on_msg_latency(lat);
    }

    pub(crate) fn on_recv(&mut self, t: SimTime, pe: usize, src_pe: usize, dst: ObjId, bytes: usize) {
        self.push(pe, t, TraceEventKind::MsgRecv { src_pe, dst, bytes });
    }

    /// Modeled end-to-end latency of one delivered message that has no
    /// [`on_send`](Self::on_send) record (a local system event).
    pub(crate) fn on_msg_latency(&mut self, lat: SimTime) {
        self.msg_latency.add(lat.as_nanos());
    }

    /// Record a busy/idle transition if the PE's state actually changed.
    pub(crate) fn pe_transition(&mut self, t: SimTime, pe: usize, busy: bool) {
        if pe >= self.busy_state.len() || self.busy_state[pe] == busy {
            return;
        }
        self.busy_state[pe] = busy;
        let kind = if busy { TraceEventKind::PeBusy } else { TraceEventKind::PeIdle };
        self.push(pe, t, kind);
    }

    /// Record an RTS-level event (LB, FT, DVFS, malleability) and mirror it
    /// into the ledger.
    pub(crate) fn rts(&mut self, t: SimTime, kind: TraceEventKind) {
        let line = match &kind {
            TraceEventKind::LbBegin { strategy, objs } => {
                Some(format!("LB {strategy} begin ({objs} objs)"))
            }
            TraceEventKind::LbEnd { strategy, migrations, cost } => Some(format!(
                "LB {strategy} end: {migrations} migration(s), cost {cost}"
            )),
            TraceEventKind::CkptBegin { chares, bytes } => {
                Some(format!("ckpt begin ({chares} chares, {bytes} B)"))
            }
            TraceEventKind::CkptCommit => Some("ckpt committed".to_string()),
            TraceEventKind::CkptAbort => Some("ckpt aborted by failure".to_string()),
            TraceEventKind::NodeFail { first_pe, num_pes } => {
                Some(format!("node failure: {num_pes} PE(s) from PE {first_pe}"))
            }
            TraceEventKind::Rollback { to, chares } => Some(format!(
                "rollback to checkpoint @{:.6}s ({chares} chares)",
                to.as_secs_f64()
            )),
            TraceEventKind::Unrecoverable { lost } => {
                Some(format!("UNRECOVERABLE: {lost} chare(s) lost"))
            }
            TraceEventKind::DvfsFreq { chip, freq_factor } => {
                Some(format!("DVFS chip {chip} -> {freq_factor:.3}x"))
            }
            TraceEventKind::Reconfigure { from, to } => {
                Some(format!("reconfigure {from} -> {to} PEs"))
            }
            TraceEventKind::PreemptWarning { first_pe, num_pes, deadline, proactive } => {
                Some(format!(
                    "preemption warning: {num_pes} PE(s) from PE {first_pe}, reclaim @{:.6}s ({})",
                    deadline.as_secs_f64(),
                    if *proactive { "evacuating" } else { "too short, will restart" }
                ))
            }
            TraceEventKind::Evacuation { chares, first_pe, num_pes } => Some(format!(
                "evacuated {chares} chare(s) off {num_pes} PE(s) from PE {first_pe}"
            )),
            TraceEventKind::ElasticDecision { from, to, util } => {
                Some(format!("elastic: {from} -> {to} PEs (util {util:.3})"))
            }
            TraceEventKind::DegradedCapacity { have, floor } => {
                Some(format!("DEGRADED: {have} alive PE(s) below floor {floor}"))
            }
            _ => None,
        };
        if let Some(line) = line {
            self.ledger_line(t, line);
        }
        let track = self.num_pes;
        self.push(track, t, kind);
    }
}

// ---------------------------------------------------------------------------
// Export & report (on Runtime, which can resolve array names).

impl Runtime {
    /// The tracer, when tracing was enabled at build time.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Install a streaming [`TraceSink`] after construction (tracing must
    /// be enabled, and no record may have been streamed yet — install
    /// sinks before the first `run*` call).
    ///
    /// # Panics
    /// If tracing is off or the sinks already began streaming.
    pub fn add_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        let tr = self
            .tracer
            .as_mut()
            .expect("add_trace_sink requires tracing to be enabled");
        tr.add_sink(sink);
    }

    /// Flush and finalize every streaming sink (writing the Chrome-JSON
    /// tail, flushing buffers) and return their delivery stats. Idempotent;
    /// call after the last `run*` so streamed files are well-formed.
    pub fn finish_trace(&mut self) -> Vec<SinkStats> {
        match &mut self.tracer {
            Some(tr) => tr.finish_sinks(),
            None => Vec::new(),
        }
    }

    /// Per-entry-method profiles under their export names, sorted by total
    /// time (descending, then name, then id). Empty when tracing is off.
    pub fn trace_profiles(&self) -> Vec<TraceProfile> {
        let Some(tr) = &self.tracer else {
            return Vec::new();
        };
        let mut rows: Vec<_> = tr
            .profiles
            .iter()
            .map(|(&(array, entry), a)| (tr.names.entry_name(array, entry), array, entry, a))
            .collect();
        rows.sort_by(|a, b| {
            b.3.total
                .cmp(&a.3.total)
                .then_with(|| (&a.0, a.1, a.2).cmp(&(&b.0, b.1, b.2)))
        });
        rows.into_iter()
            .map(|(name, _, _, a)| TraceProfile {
                name,
                count: a.qhist.count(),
                total_s: a.total.as_secs_f64(),
                min_s: a.min.min(a.max).as_secs_f64(),
                max_s: a.max.as_secs_f64(),
                p50_s: a.qhist.quantile(0.5) as f64 / 1e9,
                p99_s: a.qhist.quantile(0.99) as f64 / 1e9,
                p999_s: a.qhist.quantile(0.999) as f64 / 1e9,
            })
            .collect()
    }

    /// Export the retained event log as Chrome trace-event JSON (open in
    /// Perfetto / `chrome://tracing`; one track per PE plus an RTS track),
    /// grouped track-by-track. `None` when tracing is off.
    pub fn trace_chrome_json(&self) -> Option<String> {
        let tr = self.tracer.as_ref()?;
        Some(chrome_json(tr, (0..tr.num_tracks()).flat_map(|t| tr.track(t))))
    }

    /// Export the retained event log as Chrome trace-event JSON in
    /// *arrival order* — byte-identical to what a [`ChromeStreamSink`]
    /// wrote, provided the rings retained every record. `None` when
    /// tracing is off.
    pub fn trace_chrome_json_arrival(&self) -> Option<String> {
        let tr = self.tracer.as_ref()?;
        Some(chrome_json(tr, arrival_records(tr)))
    }

    /// Export the retained event log as CSV
    /// (`t_ns,track,kind,name,dur_ns,bytes,a,b`), grouped track-by-track.
    /// `None` when tracing is off.
    pub fn trace_csv(&self) -> Option<String> {
        let tr = self.tracer.as_ref()?;
        Some(csv(tr, (0..tr.num_tracks()).flat_map(|t| tr.track(t))))
    }

    /// CSV export in *arrival order* — byte-identical to a
    /// [`CsvStreamSink`]'s file when nothing was dropped from the rings.
    pub fn trace_csv_arrival(&self) -> Option<String> {
        let tr = self.tracer.as_ref()?;
        Some(csv(tr, arrival_records(tr)))
    }

    /// Render the projections-lite text report: top-`top_k` entry methods
    /// by total busy time (with p50/p99/p999 grainsize), the per-PE
    /// utilization profile, communication hotspots, message-latency
    /// percentiles, network-model totals, the LB/FT event ledger, and the trace/sink footer. `None`
    /// when tracing is off.
    pub fn projections_report(&self, top_k: usize) -> Option<String> {
        let tr = self.tracer.as_ref()?;
        let mut out = String::new();
        let profiles = self.trace_profiles();
        let total_busy: f64 = profiles.iter().map(|p| p.total_s).sum();
        let _ = writeln!(
            out,
            "== projections-lite @ {:.6}s — {} PEs, {} entry methods, {} dropped log record(s)",
            self.now().as_secs_f64(),
            tr.num_pes,
            profiles.len(),
            tr.dropped_events()
        );

        let _ = writeln!(out, "-- top entry methods by total busy time");
        let _ = writeln!(
            out,
            "  {:<36} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>6}",
            "entry", "count", "total", "avg", "min", "max", "p50", "p99", "p999", "%busy"
        );
        for p in profiles.iter().take(top_k) {
            let pct = if total_busy > 0.0 { 100.0 * p.total_s / total_busy } else { 0.0 };
            let _ = writeln!(
                out,
                "  {:<36} {:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>5.1}%",
                p.name,
                p.count,
                fmt_secs(p.total_s),
                fmt_secs(p.avg_s()),
                fmt_secs(p.min_s),
                fmt_secs(p.max_s),
                fmt_secs(p.p50_s),
                fmt_secs(p.p99_s),
                fmt_secs(p.p999_s),
                pct
            );
        }

        let (bin_s, rows) = tr.util_timeline();
        let nbins = rows.iter().map(|r| r.len()).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "-- PE utilization ({} bins of {}; sparkline digits = busy tenths)",
            nbins,
            fmt_secs(bin_s)
        );
        for (pe, row) in rows.iter().enumerate() {
            let mean = if row.is_empty() { 0.0 } else { row.iter().sum::<f64>() / nbins.max(1) as f64 };
            let spark: String = (0..nbins)
                .map(|i| {
                    let u = row.get(i).copied().unwrap_or(0.0).clamp(0.0, 1.0);
                    char::from_digit((u * 9.0).round() as u32, 10).unwrap_or('9')
                })
                .collect();
            match tr.util_aggregated() {
                Some(n) => {
                    let _ = writeln!(out, "  mean of {n} PEs {:>5.1}% |{spark}|", mean * 100.0);
                }
                None => {
                    let _ = writeln!(out, "  pe {pe:>3} {:>5.1}% |{spark}|", mean * 100.0);
                }
            }
        }

        let pairs = tr.comm_top();
        let _ = writeln!(out, "-- comm hotspots (PE -> PE, remote only)");
        for (src, dst, b, m) in pairs.iter().take(top_k) {
            let _ = writeln!(out, "  pe {src:>3} -> pe {dst:>3}  {b:>12} B  {m:>8} msg(s)");
        }
        let (shed_msgs, shed_bytes) = tr.comm_shed();
        if shed_msgs > 0 {
            let _ = writeln!(
                out,
                "  ... {shed_msgs} msg(s) / {shed_bytes} B shed beyond fanout cap {}",
                tr.config().comm_fanout_cap
            );
        }
        let lat = tr.msg_latency();
        let _ = writeln!(
            out,
            "-- msg latency (modeled): p50 {} p99 {} p999 {} over {} msg(s)",
            fmt_secs(lat.quantile(0.5) as f64 / 1e9),
            fmt_secs(lat.quantile(0.99) as f64 / 1e9),
            fmt_secs(lat.quantile(0.999) as f64 / 1e9),
            lat.count()
        );
        let c = self.net.counters();
        let _ = writeln!(
            out,
            "-- network model: {} remote msg(s), {} B remote, {} local hop(s)",
            c.remote_msgs, c.remote_bytes, c.local_msgs
        );

        let _ = writeln!(out, "-- LB/FT event ledger ({} entries)", tr.ledger().len());
        for (t, line) in tr.ledger() {
            let _ = writeln!(out, "  {:>12.6}s  {line}", t.as_secs_f64());
        }
        if tr.ledger_shed() > 0 {
            let _ = writeln!(out, "  ... {} older ledger entries shed", tr.ledger_shed());
        }

        // Trace-loss footer: ring drops and per-sink delivery stats, so a
        // truncated log is never mistaken for a complete one.
        let _ = writeln!(
            out,
            "-- trace: {} record(s) seen, {} dropped from rings, {} sink(s)",
            tr.seq,
            tr.dropped_events(),
            tr.sinks.len()
        );
        for s in tr.sink_stats() {
            let _ = writeln!(
                out,
                "  sink {}: {} record(s), {} B written, {} write error(s)",
                s.name, s.records, s.bytes_written, s.dropped
            );
        }

        // Engine-throughput footer: real time spent simulating and the
        // resulting events/sec, so every report doubles as a perf sample.
        let s = self.summary();
        let _ = writeln!(
            out,
            "-- engine: {} event(s) in {:.3}s wall ({:.0} events/s)",
            s.events, s.wall_time_s, s.events_per_sec
        );
        let _ = writeln!(
            out,
            "-- queues: {} op(s); arena: {} B recycled, {} allocator call(s) bypassed",
            s.queue_ops, s.arena_bytes, s.alloc_bypass
        );
        let _ = writeln!(out, "-- windows: {} executed", s.windows_executed);
        Some(out)
    }
}

/// Retained records across all rings, sorted back into arrival order.
fn arrival_records(tr: &Tracer) -> Vec<&TraceRecord> {
    let mut recs: Vec<&TraceRecord> = (0..tr.num_tracks()).flat_map(|t| tr.track(t)).collect();
    recs.sort_by_key(|r| r.seq);
    recs
}

/// A whole Chrome trace-event document over `recs`, through the same
/// writers the streaming sink uses.
fn chrome_json<'a>(tr: &Tracer, recs: impl IntoIterator<Item = &'a TraceRecord>) -> String {
    let mut out = CHROME_OPEN.as_bytes().to_vec();
    for track in 0..tr.num_tracks() {
        write_chrome_track(&mut out, track, tr.rts_track());
    }
    for (i, rec) in recs.into_iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b",\n");
        }
        write_chrome_event(&mut out, rec, &tr.names);
    }
    out.extend_from_slice(CHROME_TAIL.as_bytes());
    into_string(out)
}

/// A whole CSV document over `recs`.
fn csv<'a>(tr: &Tracer, recs: impl IntoIterator<Item = &'a TraceRecord>) -> String {
    let mut out = CSV_HEADER.as_bytes().to_vec();
    for rec in recs {
        write_csv_row(&mut out, rec, &tr.names);
    }
    into_string(out)
}

fn fmt_secs(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.3}s")
    } else if v >= 1e-3 {
        format!("{:.3}ms", v * 1e3)
    } else {
        format!("{:.1}us", v * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_bounds_memory_and_counts_drops() {
        let mut r = Ring::new(4);
        for i in 0..10u64 {
            r.push(TraceRecord {
                t: SimTime(i),
                track: 0,
                seq: i,
                kind: TraceEventKind::PeBusy,
            });
        }
        assert_eq!(r.buf.len(), 4);
        assert_eq!(r.dropped, 6);
        let kept: Vec<u64> = r.iter().map(|x| x.t.0).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "newest records are retained, in order");
    }

    /// Capacity 0 keeps no ring at all, yet still reports its tracks and
    /// counts every record it shed.
    #[test]
    fn zero_capacity_tracer_holds_no_rings_and_counts_drops() {
        let cfg = TraceConfig {
            log_capacity: 0,
            ..TraceConfig::default()
        };
        let mut tr = Tracer::new(cfg, 3);
        for i in 0..5u64 {
            tr.push(i as usize % 4, SimTime(i), TraceEventKind::PeIdle);
        }
        assert!(tr.rings.is_empty());
        assert_eq!(tr.num_tracks(), 4);
        assert_eq!(tr.rts_track(), 3);
        assert_eq!(tr.dropped_events(), 5);
        assert_eq!(tr.track_len(3), 0);
        assert_eq!(tr.track(0).count(), 0);
    }

    #[test]
    fn util_timeline_folds_to_stay_bounded() {
        let mut u = UtilTimeline::new(SimTime::from_nanos(10), 4, 1, 4096);
        // Fill [0, 200) ns busy: needs 20 ten-ns bins, budget is 4 → folds.
        u.add(0, SimTime(0), SimTime(200));
        assert!(u.per_pe[0].len() <= 4, "bins={}", u.per_pe[0].len());
        assert_eq!(u.per_pe[0].iter().sum::<u64>(), 200, "busy ns conserved");
        assert!(u.bin_ns >= 50, "bin widened: {}", u.bin_ns);
    }

    #[test]
    fn util_timeline_splits_across_bins() {
        let mut u = UtilTimeline::new(SimTime::from_nanos(100), 64, 2, 4096);
        u.add(1, SimTime(50), SimTime(250));
        assert_eq!(u.per_pe[1], vec![50, 100, 50]);
        assert!(u.per_pe[0].is_empty());
    }

    #[test]
    fn util_timeline_aggregates_above_pe_cap() {
        // 8 PEs with a cap of 4 → one machine-wide row.
        let mut u = UtilTimeline::new(SimTime::from_nanos(100), 64, 8, 4);
        assert_eq!(u.per_pe.len(), 1);
        assert_eq!(u.agg_over, 8);
        u.add(3, SimTime(0), SimTime(100));
        u.add(7, SimTime(0), SimTime(100));
        // Both PEs' busy ns land in the single aggregate row.
        assert_eq!(u.per_pe[0], vec![200]);
    }

    #[test]
    fn entry_agg_tracks_extremes_and_histogram() {
        let mut a = EntryAgg::new();
        a.add(SimTime(100));
        a.add(SimTime(1000));
        a.add(SimTime(1));
        assert_eq!(a.total, SimTime(1101));
        assert_eq!(a.min, SimTime(1));
        assert_eq!(a.max, SimTime(1000));
        assert_eq!(a.qhist.count(), 3);
        assert_eq!(a.qhist.quantile(0.5), LogHist::bucket_lo(LogHist::bucket_of(100)));
    }

    #[test]
    fn loghist_buckets_roundtrip_and_bound_error() {
        for v in [0u64, 1, 7, 8, 9, 100, 1023, 1024, 1 << 20, u64::MAX / 2] {
            let b = LogHist::bucket_of(v);
            let lo = LogHist::bucket_lo(b);
            assert_eq!(LogHist::bucket_of(lo), b, "bucket_lo lands in its own bucket (v={v})");
            assert!(lo <= v, "lower bound holds (v={v})");
            if v >= 8 {
                // Next bucket's lower bound is ≤ v·9/8 → relative error ≤ 1/8.
                let hi = LogHist::bucket_lo(b + 1);
                assert!(hi > v, "v={v} below next bucket");
                assert!(hi - lo <= lo / 8 + 1, "sub-bucket width bounded (v={v})");
            }
        }
    }

    #[test]
    fn loghist_quantiles_track_exact_order_statistics() {
        let mut h = LogHist::new();
        let mut samples: Vec<u64> = Vec::new();
        // Deterministic skewed stream: mostly small, a heavy tail.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = if x % 100 < 90 { x % 5_000 } else { x % 5_000_000 };
            h.add(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let est = h.quantile(q);
            assert_eq!(
                LogHist::bucket_of(est),
                LogHist::bucket_of(exact),
                "q={q}: estimate {est} shares the exact sample's bucket ({exact})"
            );
        }
    }

    #[test]
    fn comm_matrix_caps_fanout_and_sheds() {
        let mut m = CommMatrix::new(8, 2);
        m.add(0, 1, 100);
        m.add(0, 2, 50);
        m.add(0, 3, 999); // beyond cap → shed
        m.add(0, 1, 25); // existing pair still accumulates
        m.add(1, 3, 10); // different source has its own budget
        assert_eq!((m.shed_msgs, m.shed_bytes), (1, 999));
        assert_eq!(m.top(), vec![(0, 1, 125, 2), (0, 2, 50, 1), (1, 3, 10, 1)]);
    }

    /// Past the fanout cap, with every pair carrying equal bytes and the
    /// pairs arriving in shuffled order, the tracer reports what a naive
    /// first-come model in a `BTreeMap` does — over enough cells that the
    /// index doubles several times.
    #[test]
    fn comm_matrix_matches_a_first_come_model() {
        let (pes, cap) = (64usize, 6usize);
        let mut tr = Tracer::new(TraceConfig { log_capacity: 0, comm_fanout_cap: cap }, pes);
        let obj = ObjId { array: ArrayId(0), ix: crate::Ix::I1(0) };
        // Every source sends to itself and to ten partners, three times
        // over, in an order shuffled by a fixed LCG.
        let mut sends: Vec<(usize, usize)> = (0..pes)
            .flat_map(|s| (0..=10).map(move |k| (s, (s + 7 * k) % pes)))
            .flat_map(|p| [p; 3])
            .collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..sends.len()).rev() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            sends.swap(i, (x >> 33) as usize % (i + 1));
        }
        let mut model = std::collections::BTreeMap::<(usize, usize), (u64, u64)>::new();
        let mut deg = vec![0usize; pes];
        let mut shed = (0u64, 0u64);
        for &(s, d) in &sends {
            tr.on_send(SimTime::ZERO, s, d, obj, 100, SimTime::ZERO);
            if let Some(c) = model.get_mut(&(s, d)) {
                *c = (c.0 + 100, c.1 + 1);
            } else if deg[s] < cap {
                deg[s] += 1;
                model.insert((s, d), (100, 1));
            } else {
                shed = (shed.0 + 1, shed.1 + 100);
            }
        }
        let mut top: Vec<_> = model
            .into_iter()
            .filter(|&((s, d), _)| s != d)
            .map(|((s, d), (bytes, msgs))| (s, d, bytes, msgs))
            .collect();
        top.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));
        assert!(shed.0 > 0 && top.len() > 256, "the cap sheds and the index grows");
        assert_eq!(tr.comm_top(), top);
        assert_eq!(tr.comm_shed(), shed);
    }

    #[test]
    fn ledger_compaction_keeps_newest_and_counts_shed() {
        let mut tr = Tracer::new(TraceConfig::default(), 1);
        let (cap, n) = (LEDGER_CAPACITY, 5 * LEDGER_CAPACITY as u64);
        for i in 0..n {
            tr.ledger_line(SimTime(i), format!("line {i}"));
        }
        let kept = tr.ledger();
        assert_eq!(kept.len(), cap);
        assert_eq!(kept[0].1, format!("line {}", n - cap as u64));
        assert_eq!(kept[cap - 1].1, format!("line {}", n - 1));
        assert_eq!(tr.ledger_shed(), n - cap as u64);
        assert!(tr.ledger.len() < 2 * cap, "buffer stays within 2x cap");
    }
}
