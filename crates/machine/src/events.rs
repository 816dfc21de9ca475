//! The discrete-event queue: a total order over (time, insertion sequence).
//!
//! [`EventQueue`] is a calendar queue — a bucket-per-timestamp structure
//! tuned for the distributions simulations actually generate: near-monotone
//! inserts and heavy same-timestamp ties. A binary heap orders only the
//! *distinct* timestamps; all events sharing a timestamp live in one bucket
//! that is appended in O(1) and key-sorted lazily (at most once per drain,
//! and only when out-of-order keys actually arrived). Popping a whole
//! timestep — the engine's batch-dispatch hot path — hands back the bucket in
//! one `extend` instead of N heap pops, so the per-event cost does not pay
//! O(log n) against the full event population.
//!
//! A bucket is one map slot: the timestamp's event inline while it is alone,
//! else the handle of a run of entries in one arena shared by every bucket
//! (power-of-two blocks in chunks, a free list per size), so a pending event
//! costs its 24-byte entry and a timestamp its key, its slot and its heap
//! word. No bucket owns an allocation, and a block too large for a chunk is
//! returned to the allocator as soon as its timestamp drains.
//!
//! The ordering contract is `(time, key)`, exactly what a `BinaryHeap` over
//! that pair pops; `tests/properties.rs` checks the queue against such a
//! model, and the committed replay logs (recorded on a plain heap) pin it
//! byte for byte.

use crate::SimTime;
use fxhash::FxHashMap;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One pending event: its tie-break key and its payload.
type Entry<T> = (u64, T);

/// A deterministic event queue.
///
/// Events with equal timestamps pop in key order — insertion order, or the
/// caller's keys under [`push_keyed`](Self::push_keyed) — which, together
/// with seeded RNGs everywhere else, makes whole simulations replayable.
pub struct EventQueue<T> {
    seq: u64,
    ops: u64,
    /// Distinct pending timestamps (min-heap). Invariant: `t` is in this
    /// heap exactly once iff `slots[t]` exists.
    times: BinaryHeap<Reverse<u64>>,
    slots: FxHashMap<u64, Slot<T>>,
    arena: Arena<T>,
    len: usize,
}

/// One timestamp's events. Jittered-delay workloads (PDES, random
/// networks) produce mostly-distinct timestamps, so the common population
/// is one event, held inline; a second event moves both into a run.
enum Slot<T> {
    One(u64, T),
    Run(Run),
}

/// A timestamp's events in an arena block of `1 << class` entries: `len`
/// pending from offset `head`, appended in arrival order.
#[derive(Clone, Copy)]
struct Run {
    block: u32,
    head: u32,
    len: u32,
    class: u8,
    /// The pending entries ascend by key. Maintained on push by comparing
    /// against the back (pushes from a monotone sequence counter never
    /// unsort a run); repaired lazily when a pop needs the order.
    sorted: bool,
}

/// Blocks of a smaller class are carved from shared chunks of
/// `1 << CHUNK_BITS` entries; a block of this class or larger is a chunk of
/// its own, released when its run drains.
const CHUNK_BITS: u32 = 12;
const CHUNK: u32 = 1 << CHUNK_BITS;

/// The entries of every run. A block is addressed by the handle
/// `chunk << CHUNK_BITS | offset`.
struct Arena<T> {
    chunks: Vec<Vec<Option<Entry<T>>>>,
    /// Freed blocks, one list per class below `CHUNK_BITS`.
    free: [Vec<u32>; CHUNK_BITS as usize],
    /// The chunk being carved (a handle at offset 0) and its next offset.
    cur: u32,
    bump: u32,
    /// Chunk ids whose storage was released.
    vacant: Vec<u32>,
}

impl<T> Arena<T> {
    fn new() -> Self {
        Arena { chunks: Vec::new(), free: Default::default(), cur: 0, bump: CHUNK, vacant: Vec::new() }
    }

    fn entries(&mut self, block: u32, from: u32, len: u32) -> &mut [Option<Entry<T>>] {
        let at = ((block & (CHUNK - 1)) + from) as usize;
        &mut self.chunks[(block >> CHUNK_BITS) as usize][at..at + len as usize]
    }

    fn at(&mut self, block: u32, i: u32) -> &mut Option<Entry<T>> {
        &mut self.entries(block, i, 1)[0]
    }

    fn new_chunk(&mut self, entries: usize) -> u32 {
        let storage = Vec::with_capacity(entries);
        let id = match self.vacant.pop() {
            Some(id) => {
                self.chunks[id as usize] = storage;
                id
            }
            None => {
                self.chunks.push(storage);
                (self.chunks.len() - 1) as u32
            }
        };
        id << CHUNK_BITS
    }

    /// A block of `1 << class` empty entries: from the class's free list,
    /// split off a larger free block, or carved from the current chunk.
    /// Every block on a free list already has its entries.
    #[inline]
    fn alloc(&mut self, class: u8) -> u32 {
        match self.free.get_mut(usize::from(class)).and_then(Vec::pop) {
            Some(b) => b,
            None => self.alloc_new(class),
        }
    }

    #[inline(never)]
    fn alloc_new(&mut self, class: u8) -> u32 {
        let c = usize::from(class);
        let block = if c >= CHUNK_BITS as usize {
            self.new_chunk(1 << c)
        } else if let Some(k) = (c + 1..CHUNK_BITS as usize).find(|&k| !self.free[k].is_empty()) {
            let b = self.free[k].pop().expect("a free block");
            for j in c..k {
                self.free[j].push(b + (1 << j));
            }
            return b;
        } else {
            if self.bump + (1 << c) > CHUNK {
                // The current chunk's tail goes to the free lists whole.
                if let Some(chunk) = self.chunks.get_mut((self.cur >> CHUNK_BITS) as usize) {
                    chunk.resize_with(CHUNK as usize, || None);
                }
                while self.bump < CHUNK {
                    let j = (CHUNK - self.bump).ilog2();
                    self.free[j as usize].push(self.cur + self.bump);
                    self.bump += 1 << j;
                }
                self.cur = self.new_chunk(CHUNK as usize);
                self.bump = 0;
            }
            self.bump += 1 << c;
            self.cur + self.bump - (1 << c)
        };
        let end = (block & (CHUNK - 1)) as usize + (1 << c);
        self.chunks[(block >> CHUNK_BITS) as usize].resize_with(end, || None);
        block
    }

    #[inline]
    fn free(&mut self, block: u32, class: u8) {
        if u32::from(class) >= CHUNK_BITS {
            self.chunks[(block >> CHUNK_BITS) as usize] = Vec::new();
            self.vacant.push(block >> CHUNK_BITS);
        } else {
            self.free[usize::from(class)].push(block);
        }
    }

    /// Append to `run`. A full block moves to a fresh one: the next class
    /// up, or the same class when at least half of it lies before `head`.
    #[inline]
    fn push(&mut self, run: &mut Run, key: u64, payload: T) {
        if run.head + run.len == 1 << run.class {
            let class = if run.head >= run.len { run.class } else { run.class + 1 };
            let to = self.alloc(class);
            self.move_entries(run.block + run.head, to, run.len as usize);
            self.free(run.block, run.class);
            *run = Run { block: to, head: 0, class, ..*run };
        }
        let at = ((run.block & (CHUNK - 1)) + run.head + run.len) as usize;
        let chunk = &mut self.chunks[(run.block >> CHUNK_BITS) as usize];
        run.sorted &= chunk[at - 1].as_ref().is_some_and(|e| e.0 < key);
        chunk[at] = Some((key, payload));
        run.len += 1;
    }

    /// Move `n` entries from handle `from` to handle `to`, leaving `None`.
    fn move_entries(&mut self, from: u32, to: u32, n: usize) {
        let (src, dst) = (((from >> CHUNK_BITS) as usize), ((to >> CHUNK_BITS) as usize));
        let (from, to) = ((from & (CHUNK - 1)) as usize, (to & (CHUNK - 1)) as usize);
        match self.chunks.get_disjoint_mut([src, dst]) {
            Ok([a, b]) => a[from..from + n].swap_with_slice(&mut b[to..to + n]),
            Err(_) => {
                let (lo, hi) = self.chunks[src].split_at_mut(from.max(to));
                let low = from.min(to);
                lo[low..low + n].swap_with_slice(&mut hi[..n]);
            }
        }
    }

    /// The run's pending entries, in key order.
    fn sorted(&mut self, run: &mut Run) -> &mut [Option<Entry<T>>] {
        let entries = self.entries(run.block, run.head, run.len);
        if !run.sorted {
            entries.sort_unstable_by_key(|e| e.as_ref().map(|e| e.0));
            run.sorted = true;
        }
        entries
    }
}

impl<T> EventQueue<T> {
    /// Bytes of one pending entry in a run.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Option<Entry<T>>>();
    /// Bytes of a timestamp's map value: its one event, or its run's handle.
    pub const SLOT_BYTES: usize = std::mem::size_of::<Slot<T>>();

    /// An empty queue; it allocates nothing until the first push. The heap
    /// grows with the distinct timestamps pending, which do not scale with
    /// the PE count.
    pub fn new() -> Self {
        EventQueue {
            seq: 0,
            ops: 0,
            times: BinaryHeap::new(),
            slots: FxHashMap::default(),
            arena: Arena::new(),
            len: 0,
        }
    }

    /// Queue operations performed so far (one per push, one per popped
    /// event). Feeds the engine's `queue_ops` throughput counter.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    fn insert(&mut self, time: SimTime, key: u64, payload: T) {
        use std::collections::hash_map::Entry as MapEntry;
        self.ops += 1;
        self.len += 1;
        match self.slots.entry(time.0) {
            MapEntry::Occupied(mut e) => match e.get_mut() {
                Slot::Run(run) => self.arena.push(run, key, payload),
                slot => {
                    // A second event on this timestamp: both move to a run,
                    // in key order.
                    let block = self.arena.alloc(1);
                    let run = Run { block, head: 0, len: 2, class: 1, sorted: true };
                    let Slot::One(k0, p0) = std::mem::replace(slot, Slot::Run(run)) else {
                        unreachable!()
                    };
                    let (a, b) = if k0 < key { ((k0, p0), (key, payload)) } else { ((key, payload), (k0, p0)) };
                    *self.arena.at(block, 0) = Some(a);
                    *self.arena.at(block, 1) = Some(b);
                }
            },
            MapEntry::Vacant(e) => {
                e.insert(Slot::One(key, payload));
                self.times.push(Reverse(time.0));
            }
        }
    }

    /// Remove the earliest entry with its `(time, key)` coordinates. Does
    /// not count the op; callers do.
    fn pop_entry(&mut self) -> Option<(u64, u64, T)> {
        let &Reverse(t) = self.times.peek()?;
        self.len -= 1;
        if let Some(Slot::Run(run)) = self.slots.get_mut(&t) {
            if run.len > 1 {
                let (key, payload) = self.arena.sorted(run)[0].take().expect("pending entry");
                run.head += 1;
                run.len -= 1;
                return Some((t, key, payload));
            }
        }
        // The timestamp's last event: its slot goes with it.
        self.times.pop();
        let (key, payload) = match self.slots.remove(&t).expect("slot for scheduled time") {
            Slot::One(key, payload) => (key, payload),
            Slot::Run(run) => {
                let e = self.arena.at(run.block, run.head).take();
                self.arena.free(run.block, run.class);
                e.expect("pending entry")
            }
        };
        Some((t, key, payload))
    }

    /// Pop every event at the head timestamp `t` into `out` (cleared
    /// first) through `f`, in key order. Nothing happens unless `t` is the
    /// head.
    fn pop_batch_with<U>(&mut self, t: SimTime, out: &mut Vec<U>, f: impl Fn(Entry<T>) -> U) {
        out.clear();
        if self.peek_time() != Some(t) {
            return;
        }
        self.times.pop();
        let n = match self.slots.remove(&t.0).expect("head slot") {
            Slot::One(k, p) => {
                out.push(f((k, p)));
                1
            }
            Slot::Run(mut run) => {
                let entries = self.arena.sorted(&mut run).iter_mut();
                out.extend(entries.map(|e| f(e.take().expect("pending entry"))));
                self.arena.free(run.block, run.class);
                run.len as usize
            }
        };
        self.len -= n;
        self.ops += n as u64;
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(time, seq, payload);
    }

    /// Schedule `payload` at `time` under a caller-supplied tie-break key.
    ///
    /// Same-time events pop in ascending `key` order. The runtime allocates
    /// keys from per-producer counters, so `(time, key)` depends only on who
    /// produced an event, where the implicit insertion sequence depends on
    /// everything pushed before it. Keys must be unique among
    /// live entries; mixing `push` and `push_keyed` in one queue is allowed
    /// only if the caller keeps the two key spaces disjoint.
    pub fn push_keyed(&mut self, time: SimTime, key: u64, payload: T) {
        self.insert(time, key, payload);
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (t, _, p) = self.pop_entry()?;
        self.ops += 1;
        Some((SimTime(t), p))
    }

    /// Timestamp of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.times.peek().map(|&Reverse(t)| SimTime(t))
    }

    /// Pop every event scheduled exactly at `t` into `out`, in key order:
    /// insertion order for [`push`](Self::push), the caller's keys for
    /// [`push_keyed`](Self::push_keyed). Clears `out` first.
    ///
    /// Equivalent to (and ordered identically to) repeated `pop` while the
    /// head's timestamp equals `t` — callers batch a whole timestep in one
    /// pass instead of re-peeking the heap per event, and reuse one buffer
    /// across timesteps. Events pushed at `t` *after* this call surface in
    /// the next batch.
    pub fn pop_batch_at_into(&mut self, t: SimTime, out: &mut Vec<T>) {
        self.pop_batch_with(t, out, |(_, p)| p);
    }

    /// [`pop_batch_at_into`](Self::pop_batch_at_into), but each payload is
    /// paired with its tie-break key (the dispatch order the runtime tags
    /// contributions and replay records with).
    pub fn pop_batch_at_seq_into(&mut self, t: SimTime, out: &mut Vec<(u64, T)>) {
        self.pop_batch_with(t, out, |e| e);
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current allocated capacity, in slots, summed over every allocation
    /// the queue owns: the timestamp heap, the slot map, the arena's chunks
    /// and its chunk and free lists.
    pub fn capacity(&self) -> usize {
        let a = &self.arena;
        self.times.capacity()
            + self.slots.capacity()
            + a.chunks.capacity()
            + a.chunks.iter().map(Vec::capacity).sum::<usize>()
            + a.free.iter().map(Vec::capacity).sum::<usize>()
            + a.vacant.capacity()
    }

    /// Remove every pending entry with its `(time, key)` coordinates, in
    /// pop order (a failure rollback filters the queue this way);
    /// re-inserting the entries with [`push_keyed`](Self::push_keyed)
    /// preserves the total order.
    pub fn drain_entries(&mut self) -> Vec<(SimTime, u64, T)> {
        let mut out = Vec::with_capacity(self.len);
        while let Some((t, k, p)) = self.pop_entry() {
            out.push((SimTime(t), k, p));
        }
        self.ops += out.len() as u64;
        out
    }

    /// Capacity retained across [`clear`](Self::clear). Queues grow to the
    /// high-water mark of a run; anything beyond this cap is returned to
    /// the allocator on clear so long campaigns of many simulations don't
    /// pin peak memory forever.
    pub const CLEAR_RETAIN_CAP: usize = 1 << 12;

    /// Drop all pending events (used when a simulation is aborted) and
    /// reset the tie-break sequence, so a cleared queue is indistinguishable
    /// from a fresh one — reruns after an abort stay deterministic.
    ///
    /// The arena is released; the heap and the slot map keep at most a
    /// quarter of [`CLEAR_RETAIN_CAP`](Self::CLEAR_RETAIN_CAP) each, so
    /// clear-then-refill cycles don't pay reallocation from zero.
    pub fn clear(&mut self) {
        self.seq = 0;
        self.len = 0;
        self.times.clear();
        self.slots.clear();
        self.arena = Arena::new();
        let keep = Self::CLEAR_RETAIN_CAP / 4;
        if self.times.capacity() > keep {
            self.times.shrink_to(keep);
        }
        if self.slots.capacity() > keep {
            self.slots.shrink_to(keep);
        }
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A deterministic priority queue with FIFO order inside each priority
/// class — the PE scheduler queue.
///
/// The engine's per-PE pending queues used to be `BinaryHeap<(prio, seq)>`;
/// but the sequence numbers pushed into any one queue come from a globally
/// monotone message counter, so FIFO-within-priority *is* `(prio, seq)`
/// order. This structure exploits that: a short sorted list of the distinct
/// active priorities (almost always 1–2: system and default), each with its
/// `VecDeque` lane, makes push and pop O(1) instead of O(log queue-depth).
/// The engine holds one per simulated PE, so it is one `Vec` and keeps no
/// counters: the length is the lanes' and the engine counts its own ops.
pub struct PrioQueue<T> {
    /// The active classes and their FIFO lanes, sorted descending by
    /// priority — the minimum (highest urgency, pops first) sits at the
    /// back. A sorted `Vec` beats a hash map here: almost every push hits
    /// the class already at the back, so the common path is a single
    /// integer compare with no hashing at all. Every lane holds items but
    /// one: an empty lane at the front is the spare, a drained class's
    /// storage kept for the next new class, so push/pop cycles allocate
    /// nothing.
    lanes: Vec<(i64, VecDeque<T>)>,
}

impl<T> PrioQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        PrioQueue { lanes: Vec::new() }
    }

    /// Append `v` to the `prio` class. Smaller `prio` values pop first;
    /// equal priorities pop in insertion order.
    pub fn push(&mut self, prio: i64, v: T) {
        // Fast path: the class already active at the back (the common
        // single-priority case), or the spare of an empty queue.
        if let Some((p, lane)) = self.lanes.last_mut() {
            if *p == prio || lane.is_empty() {
                *p = prio;
                lane.push_back(v);
                return;
            }
        }
        let spare = usize::from(self.lanes.first().is_some_and(|(_, l)| l.is_empty()));
        let pos = spare + self.lanes[spare..].partition_point(|&(p, _)| p > prio);
        match self.lanes.get_mut(pos) {
            Some((p, lane)) if *p == prio => lane.push_back(v),
            _ => {
                let mut lane = if spare == 1 { self.lanes.remove(0).1 } else { VecDeque::new() };
                lane.push_back(v);
                self.lanes.insert(pos - spare, (prio, lane));
            }
        }
    }

    /// Remove and return the front of the lowest-priority-value class.
    pub fn pop(&mut self) -> Option<T> {
        let (_, lane) = self.lanes.last_mut()?;
        let v = lane.pop_front()?;
        if lane.is_empty() && self.lanes.len() > 1 {
            let (_, lane) = self.lanes.pop().expect("lane just read");
            if self.lanes[0].1.is_empty() {
                self.keep(lane);
            } else {
                self.lanes.insert(0, (0, lane));
            }
        }
        Some(v)
    }

    /// Keep `lane`'s storage as the spare's if it is the larger.
    fn keep(&mut self, lane: VecDeque<T>) {
        if lane.capacity() > self.lanes[0].1.capacity() {
            self.lanes[0].1 = lane;
        }
    }

    /// Queued item count.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(|(_, lane)| lane.len()).sum()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.lanes.last().is_none_or(|(_, lane)| lane.is_empty())
    }

    /// Drop everything, handing each item to `f` on the way out — for
    /// items that own something elsewhere — class by class from the
    /// largest priority value, each in FIFO order. The largest lane stays
    /// as the spare.
    pub fn clear_with(&mut self, mut f: impl FnMut(T)) {
        for (_, lane) in &mut self.lanes {
            lane.drain(..).for_each(&mut f);
        }
        while self.lanes.len() > 1 {
            let (_, lane) = self.lanes.pop().expect("two lanes");
            self.keep(lane);
        }
    }
}

impl<T> Default for PrioQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), "c");
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(2), ());
        q.push(SimTime::from_millis(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(1));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_resets_sequence() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(SimTime::from_nanos(1), i);
        }
        q.clear();
        // After clear, tie-breaking restarts from seq 0: a fresh queue and a
        // cleared queue order identical pushes identically.
        let t = SimTime::from_nanos(2);
        q.push(t, 10);
        q.push(t, 11);
        q.push(t, 12);
        assert_eq!(q.pop().unwrap().1, 10);
        assert_eq!(q.pop().unwrap().1, 11);
        assert_eq!(q.pop().unwrap().1, 12);
    }

    #[test]
    fn batch_pop_matches_repeated_pop_on_ties() {
        let t1 = SimTime::from_nanos(10);
        let t2 = SimTime::from_nanos(20);
        let mut q = EventQueue::new();
        let mut q2 = EventQueue::new();
        // Interleave pushes at two timestamps; ties must come out in
        // insertion order from both APIs.
        for i in 0..50 {
            let t = if i % 3 == 0 { t2 } else { t1 };
            q.push(t, i);
            q2.push(t, i);
        }
        let head = q.peek_time().unwrap();
        assert_eq!(head, t1);
        let mut batch = Vec::new();
        q.pop_batch_at_into(head, &mut batch);
        let mut expected = Vec::new();
        while q2.peek_time() == Some(head) {
            expected.push(q2.pop().unwrap().1);
        }
        assert_eq!(batch, expected);
        assert!(batch.windows(2).all(|w| w[0] < w[1]), "insertion order");
        // The later timestamp's events are untouched.
        assert_eq!(q.peek_time(), Some(t2));
        assert_eq!(q.len(), q2.len());
    }

    #[test]
    fn batch_pop_into_reuses_buffer_and_clears_it() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        q.push(t, 1);
        q.push(t, 2);
        q.push(SimTime::from_nanos(8), 3);
        let mut buf = vec![99, 98, 97];
        q.pop_batch_at_into(t, &mut buf);
        assert_eq!(buf, vec![1, 2]);
        // A batch at a timestamp with no events leaves an empty buffer.
        q.pop_batch_at_into(SimTime::from_nanos(9), &mut buf);
        assert!(buf.is_empty());
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn keyed_pushes_order_ties_by_key_not_arrival() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        q.push_keyed(t, 30, "c");
        q.push_keyed(t, 10, "a");
        q.push_keyed(SimTime::from_nanos(4), 99, "first");
        q.push_keyed(t, 20, "b");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn drain_entries_roundtrips_through_push_keyed() {
        let mut q = EventQueue::new();
        q.push_keyed(SimTime::from_nanos(2), 7, "b");
        q.push_keyed(SimTime::from_nanos(1), 9, "a");
        q.push_keyed(SimTime::from_nanos(2), 3, "c");
        let entries = q.drain_entries();
        assert!(q.is_empty());
        let mut q2 = EventQueue::new();
        for (t, k, p) in entries {
            q2.push_keyed(t, k, p);
        }
        assert_eq!(q2.pop().unwrap().1, "a");
        assert_eq!(q2.pop().unwrap().1, "c");
        assert_eq!(q2.pop().unwrap().1, "b");
    }

    #[test]
    fn clear_releases_high_water_capacity() {
        let mut q = EventQueue::new();
        let n = EventQueue::<u64>::CLEAR_RETAIN_CAP * 4;
        for i in 0..n as u64 {
            q.push(SimTime::from_nanos(i), i);
        }
        assert!(q.capacity() >= n, "grew to the high-water mark");
        q.clear();
        assert!(q.is_empty());
        assert!(
            q.capacity() <= EventQueue::<u64>::CLEAR_RETAIN_CAP,
            "clear retained {} entries of capacity (cap {})",
            q.capacity(),
            EventQueue::<u64>::CLEAR_RETAIN_CAP,
        );
        // Still fully usable after the shrink.
        q.push(SimTime::from_nanos(1), 42);
        assert_eq!(q.pop().unwrap().1, 42);
    }

    #[test]
    fn freed_blocks_split_for_smaller_runs() {
        // Runs of 20 drain and leave 32-entry blocks free; pairs then take
        // them split in halves, and no two live runs may share an entry.
        let mut q = EventQueue::new();
        for t in 0..64u64 {
            for i in 0..20 {
                q.push(SimTime(t), t * 100 + i);
            }
        }
        let mut out = Vec::new();
        for t in 0..64u64 {
            q.pop_batch_at_into(SimTime(t), &mut out);
            assert_eq!(out, (t * 100..t * 100 + 20).collect::<Vec<_>>());
        }
        for t in 100..400u64 {
            q.push(SimTime(t), 2 * t);
            q.push(SimTime(t), 2 * t + 1);
        }
        for t in 100..400u64 {
            assert_eq!(q.pop(), Some((SimTime(t), 2 * t)));
            assert_eq!(q.pop(), Some((SimTime(t), 2 * t + 1)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn a_large_run_is_released_when_it_drains() {
        let mut q = EventQueue::new();
        let n = 3 * CHUNK as u64;
        for k in (0..n).rev() {
            q.push_keyed(SimTime(5), k, k);
        }
        q.push(SimTime(6), n);
        let before = q.capacity();
        // Single pops from the head, then a push behind it, then the rest.
        assert_eq!(q.pop(), Some((SimTime(5), 0)));
        q.push_keyed(SimTime(5), n + 1, n + 1);
        let mut out = Vec::new();
        q.pop_batch_at_into(SimTime(5), &mut out);
        assert_eq!(out, (1..n).chain([n + 1]).collect::<Vec<_>>());
        assert!(q.capacity() + (4 * CHUNK as usize) <= before, "the run's own block is freed");
        assert_eq!(q.pop(), Some((SimTime(6), n)));
    }

    #[test]
    fn interleaved_pops_and_same_time_pushes_order_by_key() {
        // Partial single-pop drain of a bucket, then more keyed pushes at
        // the same timestamp, including one that must pop *before* the
        // bucket's remaining entries.
        let t = SimTime::from_nanos(9);
        let mut q = EventQueue::new();
        q.push_keyed(t, 10, "k10");
        q.push_keyed(t, 30, "k30");
        q.push_keyed(t, 50, "k50");
        assert_eq!(q.pop().unwrap().1, "k10");
        q.push_keyed(t, 20, "k20"); // out of order vs. remaining {30, 50}
        q.push_keyed(t, 40, "k40");
        assert_eq!(q.pop().unwrap().1, "k20");
        assert_eq!(q.pop().unwrap().1, "k30");
        assert_eq!(q.pop().unwrap().1, "k40");
        assert_eq!(q.pop().unwrap().1, "k50");
        assert!(q.is_empty());
    }

    #[test]
    fn ops_counts_pushes_and_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1), 1);
        q.push(SimTime::from_nanos(1), 2);
        q.pop_batch_at_into(SimTime::from_nanos(1), &mut Vec::new());
        assert_eq!(q.ops(), 4);
    }

    #[test]
    fn prio_queue_orders_by_prio_then_fifo() {
        let mut q = PrioQueue::new();
        q.push(0, "u1");
        q.push(i64::MIN + 1, "sys1");
        q.push(0, "u2");
        q.push(5, "low");
        q.push(i64::MIN + 1, "sys2");
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop(), Some("sys1"));
        assert_eq!(q.pop(), Some("sys2"));
        assert_eq!(q.pop(), Some("u1"));
        assert_eq!(q.pop(), Some("u2"));
        assert_eq!(q.pop(), Some("low"));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn prio_queue_clear_then_reuse() {
        let mut q = PrioQueue::new();
        q.push(3, 1);
        q.push(-1, 2);
        q.clear_with(drop);
        assert!(q.is_empty());
        q.push(7, 9);
        q.push(2, 8);
        assert_eq!(q.pop(), Some(8));
        assert_eq!(q.pop(), Some(9));
    }

    #[test]
    fn prio_queue_clear_with_hands_over_every_item() {
        let mut q = PrioQueue::new();
        for (prio, v) in [(3, 1), (-1, 2), (3, 3)] {
            q.push(prio, v);
        }
        let mut out = Vec::new();
        q.clear_with(|v| out.push(v));
        assert_eq!(out, vec![1, 3, 2], "largest priority value first, FIFO within");
        assert!(q.is_empty());
    }
}
