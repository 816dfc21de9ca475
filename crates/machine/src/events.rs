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
//! The ordering contract is `(time, key)`, exactly what a `BinaryHeap` over
//! that pair pops; `tests/properties.rs` checks the queue against such a
//! model, and the committed replay logs (recorded on a plain heap) pin it
//! byte for byte.

use crate::SimTime;
use fxhash::FxHashMap;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A deterministic event queue.
///
/// Events with equal timestamps pop in key order — insertion order, or the
/// caller's keys under [`push_keyed`](Self::push_keyed) — which, together
/// with seeded RNGs everywhere else, makes whole simulations replayable.
pub struct EventQueue<T> {
    seq: u64,
    ops: u64,
    /// Distinct pending timestamps (min-heap). Invariant: `t` is in this
    /// heap exactly once iff `buckets[t]` exists and is non-empty.
    times: BinaryHeap<Reverse<u64>>,
    buckets: FxHashMap<u64, Bucket<T>>,
    /// Emptied bucket storage, recycled so steady-state push/drain cycles
    /// allocate nothing.
    pool: Vec<VecDeque<(u64, T)>>,
    len: usize,
}

/// One timestamp's events: appended in arrival order, sorted by key only
/// when a drain needs the order and an out-of-order key actually arrived.
///
/// Jittered-delay workloads (PDES, random networks) produce mostly-distinct
/// timestamps, so the overwhelmingly common population is exactly one event.
/// That case is stored inline — no deque allocation, no pool round trip —
/// and upgraded to a real deque only when a second event lands on the same
/// timestamp.
enum Bucket<T> {
    One(u64, T),
    Many {
        items: VecDeque<(u64, T)>,
        /// `items` is ascending by key. Maintained on push by comparing
        /// against the current back (cheap: pushes from a monotone sequence
        /// counter never unsort the bucket); repaired lazily on drain
        /// otherwise.
        sorted: bool,
    },
}

impl<T> Bucket<T> {
    fn ensure_sorted(&mut self) {
        if let Bucket::Many { items, sorted } = self {
            if !*sorted {
                items.make_contiguous().sort_unstable_by_key(|e| e.0);
                *sorted = true;
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            Bucket::One(..) => 1,
            Bucket::Many { items, .. } => items.len(),
        }
    }
}

/// Buckets kept for reuse after they drain. A handful suffices: only a few
/// distinct timestamps are live at once in practice.
const BUCKET_POOL_MAX: usize = 32;

impl<T> EventQueue<T> {
    /// An empty queue; it allocates nothing until the first push. The heap
    /// grows with the distinct timestamps pending, which do not scale with
    /// the PE count.
    pub fn new() -> Self {
        EventQueue {
            seq: 0,
            ops: 0,
            times: BinaryHeap::new(),
            buckets: FxHashMap::default(),
            pool: Vec::new(),
            len: 0,
        }
    }

    /// Queue operations performed so far (one per push, one per popped
    /// event). Feeds the engine's `queue_ops` throughput counter.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    fn insert(&mut self, time: SimTime, key: u64, payload: T) {
        use std::collections::hash_map::Entry;
        self.ops += 1;
        self.len += 1;
        match self.buckets.entry(time.0) {
            Entry::Occupied(mut e) => match e.get_mut() {
                b @ Bucket::One(..) => {
                    // Second event on this timestamp: upgrade to a deque.
                    // `VecDeque::new()` is allocation-free, so the interim
                    // placeholder costs nothing.
                    let placeholder = Bucket::Many { items: VecDeque::new(), sorted: true };
                    let Bucket::One(k0, p0) = std::mem::replace(b, placeholder) else {
                        unreachable!()
                    };
                    let mut items = self.pool.pop().unwrap_or_default();
                    let sorted = k0 <= key;
                    items.push_back((k0, p0));
                    items.push_back((key, payload));
                    *b = Bucket::Many { items, sorted };
                }
                Bucket::Many { items, sorted } => {
                    if *sorted {
                        if let Some(&(back, _)) = items.back() {
                            if key < back {
                                *sorted = false;
                            }
                        }
                    }
                    items.push_back((key, payload));
                }
            },
            Entry::Vacant(e) => {
                e.insert(Bucket::One(key, payload));
                self.times.push(Reverse(time.0));
            }
        }
    }

    fn recycle(&mut self, mut items: VecDeque<(u64, T)>) {
        if self.pool.len() < BUCKET_POOL_MAX {
            items.clear();
            self.pool.push(items);
        }
    }

    /// Remove the earliest entry with its `(time, key)` coordinates. Does
    /// not count the op; callers do.
    fn pop_entry(&mut self) -> Option<(u64, u64, T)> {
        let &Reverse(t) = self.times.peek()?;
        self.len -= 1;
        match self.buckets.get_mut(&t).expect("bucket for scheduled time") {
            Bucket::One(..) => {
                let Bucket::One(key, payload) = self.buckets.remove(&t).expect("just accessed")
                else {
                    unreachable!()
                };
                self.times.pop();
                Some((t, key, payload))
            }
            b @ Bucket::Many { .. } => {
                b.ensure_sorted();
                let Bucket::Many { items, .. } = b else { unreachable!() };
                let (key, payload) = items.pop_front().expect("non-empty bucket");
                if items.is_empty() {
                    let Bucket::Many { items, .. } =
                        self.buckets.remove(&t).expect("just accessed")
                    else {
                        unreachable!()
                    };
                    self.recycle(items);
                    self.times.pop();
                }
                Some((t, key, payload))
            }
        }
    }

    /// Remove and return the whole bucket at the head timestamp `t`, key-
    /// sorted. Caller guarantees `t` is the head.
    fn take_head_bucket(&mut self, t: u64) -> Bucket<T> {
        let mut b = self.buckets.remove(&t).expect("head bucket");
        b.ensure_sorted();
        self.times.pop();
        self.len -= b.len();
        self.ops += b.len() as u64;
        b
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
        out.clear();
        if self.peek_time() != Some(t) {
            return;
        }
        match self.take_head_bucket(t.0) {
            Bucket::One(_, p) => out.push(p),
            Bucket::Many { mut items, .. } => {
                out.extend(items.drain(..).map(|(_, p)| p));
                self.recycle(items);
            }
        }
    }

    /// [`pop_batch_at_into`](Self::pop_batch_at_into), but each payload is
    /// paired with its tie-break key (the dispatch order the runtime tags
    /// contributions and replay records with).
    pub fn pop_batch_at_seq_into(&mut self, t: SimTime, out: &mut Vec<(u64, T)>) {
        out.clear();
        if self.peek_time() != Some(t) {
            return;
        }
        match self.take_head_bucket(t.0) {
            Bucket::One(k, p) => out.push((k, p)),
            Bucket::Many { mut items, .. } => {
                out.extend(items.drain(..));
                self.recycle(items);
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current allocated capacity, in entries, across the queue's internal
    /// storage (timestamp index, live buckets, and the recycled-bucket
    /// pool).
    pub fn capacity(&self) -> usize {
        self.times.capacity()
            + self
                .buckets
                .values()
                .map(|b| match b {
                    Bucket::One(..) => 1,
                    Bucket::Many { items, .. } => items.capacity(),
                })
                .sum::<usize>()
            + self.pool.iter().map(|v| v.capacity()).sum::<usize>()
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
    /// Capacity above [`CLEAR_RETAIN_CAP`](Self::CLEAR_RETAIN_CAP) is
    /// released; a modest working buffer is kept so clear-then-refill
    /// cycles don't pay reallocation from zero.
    pub fn clear(&mut self) {
        self.seq = 0;
        let retain = Self::CLEAR_RETAIN_CAP / 2;
        for (_, b) in self.buckets.drain() {
            if let Bucket::Many { mut items, .. } = b {
                if self.pool.len() < BUCKET_POOL_MAX {
                    items.clear();
                    self.pool.push(items);
                }
            }
        }
        self.times.clear();
        self.len = 0;
        if self.times.capacity() > retain {
            self.times.shrink_to(retain);
        }
        // Bound the recycled-bucket pool the same way.
        while self.pool.iter().map(|v| v.capacity()).sum::<usize>() > retain {
            self.pool.pop();
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
