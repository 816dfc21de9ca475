//! Tests for the runtime's ablation toggles: location caching, collective
//! arity, and communication tracking for comm-aware balancing.

use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, MachineConfig, RedOp, RedValue, Runtime, SysEvent,
};
use charm_pup::{Pup, Puper};

/// A pair of chares exchanging many messages (persistent communication).
#[derive(Default)]
struct Chatty {
    peer: i64,
    remaining: u64,
}
impl Pup for Chatty {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.peer);
        p.p(&mut self.remaining);
    }
}
impl Chare for Chatty {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        // No compute: keep the chain latency-bound, so the lookup cost is
        // on the critical path. (With enough over-decomposition the cost
        // would hide behind other chares' work — which is the paper's own
        // point — so the ablation isolates a single dependent chain.)
        if self.remaining > 0 {
            self.remaining -= 1;
            let me = ArrayProxy::<Chatty>::from_id(ctx.my_id().array);
            ctx.send(me, Ix::i1(self.peer), 0u8);
        }
    }
}

fn chatty_run(cache: bool) -> f64 {
    let mut rt = Runtime::builder(MachineConfig::homogeneous(8))
        .location_cache(cache)
        .build();
    let arr = rt.create_array::<Chatty>("chatty");
    // A single dependent ping-pong chain across two PEs.
    for i in 0..2i64 {
        rt.insert(
            arr,
            Ix::i1(i),
            Chatty {
                peer: i ^ 1,
                remaining: 200,
            },
            Some(i as usize),
        );
    }
    rt.send(arr, Ix::i1(0), 0u8);
    rt.run().end_time.as_secs_f64()
}

#[test]
fn location_cache_pays_off_for_persistent_communication() {
    // "This scheme works well if there is persistence in the interaction
    // pattern of the application" (§II-D) — with the cache off, every send
    // pays the home-query round trip.
    let with = chatty_run(true);
    let without = chatty_run(false);
    assert!(
        with < without * 0.8,
        "cache must cut repeated-lookup cost: with={with:.6}s without={without:.6}s"
    );
}

#[derive(Default)]
struct Reducer {
    rounds: u64,
}
impl Pup for Reducer {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.rounds);
    }
}
impl Chare for Reducer {
    type Msg = u32;
    fn on_message(&mut self, round: u32, ctx: &mut Ctx<'_>) {
        let me = ArrayProxy::<Reducer>::from_id(ctx.my_id().array);
        ctx.contribute(
            me,
            round,
            RedValue::I64(1),
            RedOp::Sum,
            Callback::ToChare {
                array: ctx.my_id().array,
                ix: Ix::i1(0),
            },
        );
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Reduction { tag, .. } = ev {
            self.rounds += 1;
            if self.rounds < 50 {
                let me = ArrayProxy::<Reducer>::from_id(ctx.my_id().array);
                ctx.broadcast(me, tag + 1);
            } else {
                ctx.exit();
            }
        }
    }
}

fn reduction_run(arity: u64, pes: usize) -> f64 {
    let mut rt = Runtime::builder(MachineConfig::homogeneous(pes))
        .collective_arity(arity)
        .build();
    let arr = rt.create_array::<Reducer>("red");
    for i in 0..(pes as i64) {
        rt.insert(arr, Ix::i1(i), Reducer::default(), Some(i as usize));
    }
    rt.broadcast(arr, 1u32);
    rt.run().end_time.as_secs_f64()
}

#[test]
fn collective_arity_flattens_the_tree() {
    // Higher arity → shallower spanning trees → cheaper barriers on a
    // latency-bound reduction ladder.
    let k2 = reduction_run(2, 64);
    let k8 = reduction_run(8, 64);
    assert!(
        k8 < k2,
        "arity-8 tree should beat binary: k2={k2:.6}s k8={k8:.6}s"
    );
}

/// Comm tracking feeds real volumes to the balancer.
#[derive(Default)]
struct Pairy {
    peer: i64,
    steps: u64,
    waiting: bool,
}
impl Pup for Pairy {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.peer, self.steps, self.waiting);
    }
}
impl Chare for Pairy {
    type Msg = Vec<u8>;
    fn on_message(&mut self, _m: Vec<u8>, ctx: &mut Ctx<'_>) {
        ctx.work(1e5);
        if self.steps > 0 {
            self.steps -= 1;
            let me = ArrayProxy::<Pairy>::from_id(ctx.my_id().array);
            ctx.send(me, Ix::i1(self.peer), vec![0u8; 4096]);
            if self.steps.is_multiple_of(10) {
                self.waiting = true;
                ctx.at_sync();
            }
        }
    }
    fn on_event(&mut self, ev: SysEvent, _ctx: &mut Ctx<'_>) {
        if matches!(ev, SysEvent::ResumeFromSync) {
            self.waiting = false;
        }
    }
}

#[test]
fn tracked_comm_reaches_the_strategy() {
    use charm_core::{LbStats, Strategy};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    struct Spy {
        saw_comm: Arc<AtomicUsize>,
    }
    impl Strategy for Spy {
        fn name(&self) -> &'static str {
            "Spy"
        }
        fn wants_comm(&self) -> bool {
            true
        }
        fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
            self.saw_comm.store(stats.comm.len(), Ordering::SeqCst);
            assert!(
                stats.objs.iter().any(|o| o.bytes_sent > 0),
                "per-object send totals populated"
            );
            vec![None; stats.objs.len()]
        }
    }
    let saw = Arc::new(AtomicUsize::new(0));
    let mut rt = Runtime::builder(MachineConfig::homogeneous(4))
        .strategy(Box::new(Spy {
            saw_comm: Arc::clone(&saw),
        }))
        .build();
    let arr = rt.create_array::<Pairy>("pairy");
    rt.set_at_sync(arr, true);
    for i in 0..8i64 {
        rt.insert(
            arr,
            Ix::i1(i),
            Pairy {
                peer: i ^ 1,
                steps: 30,
                waiting: false,
            },
            Some((i % 4) as usize),
        );
    }
    for i in 0..8 {
        rt.send(arr, Ix::i1(i), vec![0u8; 64]);
    }
    rt.run();
    assert!(
        saw.load(Ordering::SeqCst) > 0,
        "strategy must have seen comm edges"
    );
    assert!(!rt.lb_rounds().is_empty());
}

#[test]
fn untracked_comm_stays_empty() {
    use charm_core::NullLb;
    let mut rt = Runtime::builder(MachineConfig::homogeneous(4))
        .strategy(Box::new(NullLb))
        .build();
    let arr = rt.create_array::<Pairy>("pairy");
    rt.set_at_sync(arr, true);
    for i in 0..4i64 {
        rt.insert(
            arr,
            Ix::i1(i),
            Pairy {
                peer: i ^ 1,
                steps: 12,
                waiting: false,
            },
            None,
        );
    }
    for i in 0..4 {
        rt.send(arr, Ix::i1(i), vec![0u8; 64]);
    }
    rt.run();
    // With tracking off the run completes identically (no panic, LB ran);
    // there is no public accessor for comm, so completion is the check.
    assert!(!rt.lb_rounds().is_empty());
}

#[test]
fn home_maps_control_default_placement() {
    use charm_core::HomeMap;

    // Blocked: 1-D indices land in contiguous PE ranges.
    let mut rt = Runtime::homogeneous(4);
    let arr = rt.create_array::<Chatty>("blocked");
    rt.set_home_map(arr, HomeMap::Blocked { total: 16 });
    for i in 0..16 {
        rt.insert(arr, Ix::i1(i), Chatty::default(), None);
    }
    for i in 0..16i64 {
        let pe = rt.element_pe(arr.id(), &Ix::i1(i)).unwrap();
        assert_eq!(pe, (i as usize) * 4 / 16, "blocked placement for {i}");
    }

    // Custom: everything on the last PE.
    fn last_pe(_ix: &Ix, pes: usize) -> usize {
        pes - 1
    }
    let custom = rt.create_array::<Chatty>("custom");
    rt.set_home_map(custom, HomeMap::Custom(last_pe));
    for i in 0..5 {
        rt.insert(custom, Ix::i1(i), Chatty::default(), None);
    }
    for i in 0..5i64 {
        assert_eq!(rt.element_pe(custom.id(), &Ix::i1(i)), Some(3));
    }
}

#[test]
fn blocked_home_map_falls_back_to_hash_outside_range() {
    use charm_core::HomeMap;
    let mut rt = Runtime::homogeneous(4);
    let arr = rt.create_array::<Chatty>("blocked");
    rt.set_home_map(arr, HomeMap::Blocked { total: 4 });
    // Index 100 is outside 0..4: placement must still be a valid PE.
    rt.insert(arr, Ix::i1(100), Chatty::default(), None);
    let pe = rt.element_pe(arr.id(), &Ix::i1(100)).unwrap();
    assert!(pe < 4);
}
