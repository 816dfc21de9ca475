//! Property tests for the machine models: torus geometry, network cost
//! monotonicity, thermal stability, and event- and scheduler-queue
//! ordering.

use charm_machine::{EventQueue, NetworkModel, NetworkParams, PrioQueue, SimTime, Torus};
use proptest::collection::vec;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The event queue's ordering contract, stated as the simplest structure
/// that has it: a binary heap over `(time, key, payload)`. Keys are unique
/// among live entries, so the payload never decides an order.
#[derive(Default)]
struct HeapModel {
    seq: u64,
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
}

impl HeapModel {
    fn push(&mut self, t: SimTime, payload: u64) {
        self.push_keyed(t, self.seq, payload);
        self.seq += 1;
    }

    fn push_keyed(&mut self, t: SimTime, key: u64, payload: u64) {
        self.heap.push(Reverse((t, key, payload)));
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse((t, _, p))| (t, p))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse((t, _, _))| t)
    }

    /// Every entry at `t` (the head timestamp) as `(key, payload)`.
    fn pop_batch_at_seq(&mut self, t: SimTime) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while self.peek_time() == Some(t) {
            let Reverse((_, k, p)) = self.heap.pop().expect("peeked");
            out.push((k, p));
        }
        out
    }

    fn clear(&mut self) {
        self.seq = 0;
        self.heap.clear();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rank → coords → rank is the identity on any torus.
    #[test]
    fn torus_coords_bijective(dims in vec(1usize..7, 1..4)) {
        let t = Torus::new(dims);
        for r in 0..t.size() {
            prop_assert_eq!(t.rank(&t.coords(r)), r);
        }
    }

    /// Hop distance is a metric: symmetric, zero iff equal, triangle
    /// inequality.
    #[test]
    fn torus_hops_is_a_metric(dims in vec(1usize..6, 1..4)) {
        let t = Torus::new(dims);
        let n = t.size();
        for a in 0..n.min(12) {
            for b in 0..n.min(12) {
                prop_assert_eq!(t.hops(a, b), t.hops(b, a));
                prop_assert_eq!(t.hops(a, b) == 0, a == b);
                for c in 0..n.min(8) {
                    prop_assert!(t.hops(a, c) <= t.hops(a, b) + t.hops(b, c));
                }
            }
        }
    }

    /// Dimension-order routing always terminates at the destination within
    /// `ndims` steps, and every intermediate is a valid rank.
    #[test]
    fn torus_routing_terminates(dims in vec(1usize..6, 1..4), seed in any::<u64>()) {
        let t = Torus::new(dims);
        let n = t.size();
        let from = (seed % n as u64) as usize;
        let to = ((seed >> 17) % n as u64) as usize;
        let mut cur = from;
        let mut steps = 0;
        while let Some(next) = t.route_next(cur, to) {
            prop_assert!(next < n);
            cur = next;
            steps += 1;
            prop_assert!(steps <= t.ndims());
        }
        prop_assert_eq!(cur, to);
    }

    /// Exact factorization really is exact, for any n.
    #[test]
    fn torus_factored_exact(n in 1usize..10_000, ndims in 1usize..4) {
        let t = Torus::factored(n, ndims);
        prop_assert_eq!(t.size(), n);
        prop_assert_eq!(t.ndims(), ndims);
    }

    /// Without jitter, network delay is monotone in message size and
    /// invariant under (src, dst) swap on symmetric fabrics.
    #[test]
    fn network_delay_monotone(bytes_a in 0usize..1_000_000, bytes_b in 0usize..1_000_000) {
        let mut net = NetworkModel::new(NetworkParams::infiniband(), 1);
        let (small, large) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        prop_assert!(net.delay(0, 1, small, 0) <= net.delay(0, 1, large, 0));
        prop_assert_eq!(net.delay(2, 5, small, 0), net.delay(5, 2, small, 0));
    }

    /// The event queue pops in nondecreasing time order for arbitrary
    /// insertion sequences.
    #[test]
    fn event_queue_total_order(times in vec(0u64..1_000_000, 0..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// The calendar queue is observationally identical to a binary heap
    /// over `(time, key)` — same pop order, same peeks, same lengths —
    /// under arbitrary interleavings of pushes (heavy same-timestamp ties),
    /// caller-keyed pushes (out-of-order keys), single pops, whole-timestep
    /// batch pops, and clears (which reset the tie-break sequence on both).
    #[test]
    fn calendar_matches_heap_reference(ops in vec(queue_op(), 0..120)) {
        let mut cal = EventQueue::new();
        let mut heap = HeapModel::default();
        // Payload counter; doubles as the caller-key counter for
        // `push_keyed` (offset far above any internal sequence number, so
        // the two key spaces stay disjoint as the contract requires).
        let mut n = 0u64;
        for op in ops {
            match op {
                QueueOp::Push(dt) => {
                    // A tiny time range forces heavy ties (deep buckets).
                    let t = SimTime::from_nanos(dt as u64 % 8);
                    cal.push(t, n);
                    heap.push(t, n);
                    n += 1;
                }
                QueueOp::PushKeyed(dt) => {
                    let t = SimTime::from_nanos(dt as u64 % 8);
                    let key = (1u64 << 40) + n;
                    cal.push_keyed(t, key, n);
                    heap.push_keyed(t, key, n);
                    n += 1;
                }
                QueueOp::Pop => {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
                QueueOp::Batch => {
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                    if let Some(t) = cal.peek_time() {
                        let mut a = Vec::new();
                        cal.pop_batch_at_seq_into(t, &mut a);
                        prop_assert_eq!(&a, &heap.pop_batch_at_seq(t));
                    }
                }
                QueueOp::Clear => {
                    cal.clear();
                    heap.clear();
                }
            }
            prop_assert_eq!(cal.len(), heap.heap.len());
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
        }
        // Full drain pops the exact same (time, payload) sequence.
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The PE scheduler queue against its contract, stated as a binary heap
    /// over `(prio, seq)`: random interleavings of pushes over 1–8
    /// priority classes, pops and `clear_with`, with the length, emptiness
    /// and every item handed out compared after each step.
    #[test]
    fn prio_queue_matches_heap_reference(classes in 1usize..9, ops in vec(prio_op(), 0..200)) {
        const PRIOS: [i64; 8] = [0, i64::MIN + 1, 5, -3, 1 << 40, 1, i64::MAX, -1];
        let mut q = PrioQueue::new();
        let mut heap = BinaryHeap::new();
        for (n, (which, class)) in ops.into_iter().enumerate() {
            let seq = n as u64;
            match which {
                0..=5 => {
                    let prio = PRIOS[class as usize % classes];
                    q.push(prio, seq);
                    heap.push(Reverse((prio, seq)));
                }
                6..=8 => prop_assert_eq!(q.pop(), heap.pop().map(|Reverse((_, s))| s)),
                _ => {
                    // Class by class from the largest priority value, FIFO
                    // within a class.
                    let mut model: Vec<(i64, u64)> = heap.drain().map(|Reverse(e)| e).collect();
                    model.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                    let mut out = Vec::new();
                    q.clear_with(|s| out.push(s));
                    prop_assert_eq!(out, model.into_iter().map(|(_, s)| s).collect::<Vec<_>>());
                }
            }
            prop_assert_eq!(q.len(), heap.len());
            prop_assert_eq!(q.is_empty(), heap.is_empty());
        }
        while let Some(Reverse((_, s))) = heap.pop() {
            prop_assert_eq!(q.pop(), Some(s));
        }
        prop_assert_eq!(q.pop(), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The calendar against the same heap model on the shape a large run
    /// gives it: thousands of distinct timestamps within about 2¹⁶ ns of a
    /// head that moves as events pop, so lone events keep upgrading to runs,
    /// plus "hot" pushes that either join the head's own, partly popped
    /// timestamp or pile onto the next multiple of 4 096 ns, whose runs grow
    /// through several block sizes before the head reaches them. Keyed
    /// pushes arrive out of key order; pops and batch pops interleave.
    #[test]
    fn calendar_matches_heap_reference_wide(ops in vec((0u8..20, any::<u16>()), 1_000..4_000)) {
        let mut cal = EventQueue::new();
        let mut heap = HeapModel::default();
        let mut now = 0u64;
        for (n, (which, dt)) in ops.into_iter().enumerate() {
            let (n, dt) = (n as u64, u64::from(dt));
            let t = match which {
                0..=4 => now + dt,
                5..=8 => now + (dt % 2) * (4_096 - now % 4_096),
                _ => 0,
            };
            match which {
                0..=2 | 5..=6 => {
                    cal.push(SimTime(t), n);
                    heap.push(SimTime(t), n);
                }
                3..=4 | 7..=8 => {
                    // Unique, out of order, and disjoint from the sequence.
                    let key = (1u64 << 40) + (n.wrapping_mul(0x9e37_79b9) & 0xffff_ffff);
                    cal.push_keyed(SimTime(t), key, n);
                    heap.push_keyed(SimTime(t), key, n);
                }
                9..=16 => {
                    let popped = cal.pop();
                    prop_assert_eq!(popped, heap.pop());
                    if let Some((t, _)) = popped {
                        now = t.0;
                    }
                }
                _ => {
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
                    if let Some(t) = cal.peek_time() {
                        let mut a = Vec::new();
                        cal.pop_batch_at_seq_into(t, &mut a);
                        prop_assert_eq!(&a, &heap.pop_batch_at_seq(t));
                        now = t.0;
                    }
                }
            }
            prop_assert_eq!(cal.len(), heap.heap.len());
            prop_assert_eq!(cal.peek_time(), heap.peek_time());
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}

/// `(operation, priority class)`: a push, a pop or, rarely, a `clear_with`.
fn prio_op() -> impl Strategy<Value = (u8, u8)> {
    (0u8..10, any::<u8>())
}

/// One scripted operation against the event queue and its model at once.
#[derive(Debug, Clone)]
enum QueueOp {
    Push(u8),
    PushKeyed(u8),
    Pop,
    Batch,
    Clear,
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    (0u8..12, any::<u8>()).prop_map(|(which, dt)| match which {
        0..=3 => QueueOp::Push(dt),
        4..=5 => QueueOp::PushKeyed(dt),
        6..=8 => QueueOp::Pop,
        9..=10 => QueueOp::Batch,
        _ => QueueOp::Clear,
    })
}

/// `clear` bounds retained capacity, so long campaigns of many simulations
/// don't pin the high-water mark forever.
#[test]
fn event_queue_clear_caps_capacity() {
    let mut q = EventQueue::new();
    // A wide spread of distinct timestamps plus one very deep bucket.
    for i in 0..50_000u64 {
        q.push(SimTime::from_nanos(i), i);
        q.push(SimTime::from_nanos(7), i);
    }
    q.clear();
    assert!(q.is_empty());
    assert!(
        q.capacity() <= EventQueue::<u64>::CLEAR_RETAIN_CAP,
        "retained {} entries of capacity after clear",
        q.capacity()
    );
    // And the sequence counter reset: a cleared queue orders same-time
    // pushes exactly like a fresh one.
    let t = SimTime::from_nanos(3);
    for i in 0..10u64 {
        q.push(t, i);
    }
    for i in 0..10u64 {
        assert_eq!(q.pop().expect("pushed").1, i);
    }
}

#[test]
fn thermal_never_diverges() {
    use charm_machine::thermal::{ThermalConfig, ThermalModel};
    // Bounded input ⇒ bounded temperature: at full utilization forever, a
    // chip approaches (and never wildly overshoots) its steady state.
    let mut m = ThermalModel::new(ThermalConfig::fig4(), 8);
    for chip in 0..8 {
        let ss = m.steady_state_temp(chip, 1.0);
        for _ in 0..5_000 {
            let t = m.advance(chip, 0.5, 1.0);
            assert!(t.is_finite());
            assert!(t < ss + 1.0, "chip {chip}: {t} overshoots steady {ss}");
        }
        assert!((m.temp(chip) - ss).abs() < 0.5);
    }
}
