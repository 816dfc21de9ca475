//! The envelope slab: every message in flight, queued on a PE or parked in
//! limbo lives in one slab per [`Runtime`], addressed by a 4-byte
//! [`EnvId`]. Freed slots form a LIFO list, so the next mint reuses the
//! slot (and likely the cache line) the last consumed envelope left.
//!
//! Nothing here goes back to the allocator mid-run: a boxed envelope per
//! message meant hundreds of thousands of small heap blocks whose eventual
//! frees glibc batches into one long consolidation stall (DESIGN §4.4).
//! The slots sit in a [`ChunkVec`] of small fixed-size chunks rather than
//! one growing `Vec`: growth never copies, and a 3 KB chunk fits the holes
//! that consumed messages leave in the heap, where a big buffer takes fresh
//! pages. On the `apps` benchmark one `Vec` peaked at 62.8 MB, 320 KB
//! chunks at 57.5 MB and 5 KB chunks at 45.2 MB (DESIGN §4.4).

use super::{Envelope, Runtime};
use crate::chunked::ChunkVec;

/// Handle of an envelope in its runtime's [`EnvSlab`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct EnvId(u32);

enum Slot {
    Live(Envelope),
    /// Free; links to the next free slot (`NIL` ends the list).
    Free(u32),
}

const NIL: u32 = u32::MAX;

/// Slots per chunk: 64 × 56 B = 3.5 KB.
const CHUNK_BITS: u32 = 6;

const _: () = assert!(
    std::mem::size_of::<Slot>() == std::mem::size_of::<Envelope>(),
    "a free-list link must cost a slot nothing"
);

pub(crate) struct EnvSlab {
    slots: ChunkVec<Slot, CHUNK_BITS>,
    /// Head of the free list.
    free: u32,
    live: usize,
}

impl EnvSlab {
    pub(crate) fn new() -> Self {
        EnvSlab {
            slots: ChunkVec::new(),
            free: NIL,
            live: 0,
        }
    }

    /// Store `env` in the most recently freed slot, or a new one.
    pub(crate) fn insert(&mut self, env: Envelope) -> EnvId {
        self.live += 1;
        if self.free != NIL {
            let id = self.free;
            let slot = &mut self.slots[id as usize];
            let Slot::Free(next) = *slot else {
                unreachable!("the free list names a live slot")
            };
            *slot = Slot::Live(env);
            self.free = next;
            return EnvId(id);
        }
        let id = u32::try_from(self.slots.len())
            .ok()
            .filter(|&i| i != NIL)
            .expect("envelope slab overflow");
        self.slots.push(Slot::Live(env));
        EnvId(id)
    }

    /// Move the envelope out and free its slot.
    pub(crate) fn take(&mut self, id: EnvId) -> Envelope {
        let next = self.free;
        let slot = std::mem::replace(&mut self.slots[id.0 as usize], Slot::Free(next));
        let Slot::Live(env) = slot else {
            panic!("envelope {id:?} taken twice")
        };
        self.free = id.0;
        self.live -= 1;
        env
    }

    /// Drop an envelope that will never execute.
    pub(crate) fn discard(&mut self, id: EnvId) {
        self.take(id);
    }

    /// Occupied slots.
    pub(crate) fn live(&self) -> usize {
        self.live
    }
}

impl std::ops::Index<EnvId> for EnvSlab {
    type Output = Envelope;

    #[inline]
    fn index(&self, id: EnvId) -> &Envelope {
        match &self.slots[id.0 as usize] {
            Slot::Live(env) => env,
            Slot::Free(_) => panic!("envelope {id:?} used after free"),
        }
    }
}

impl Runtime {
    /// Envelopes the engine's counters account for: deliveries in flight,
    /// envelopes queued on a PE, and those parked in limbo. Between events
    /// this equals the slab's live count; a mismatch is a leaked or
    /// double-freed slot.
    pub(crate) fn envelopes_accounted(&self) -> usize {
        let parked: usize = self.limbo.values().map(Vec::len).sum();
        (self.work.inflight - self.work.migrating + self.work.queued) as usize + parked
    }

    /// Drop everything queued on `pe`.
    pub(crate) fn discard_queue(&mut self, pe: usize) {
        self.pes[pe]
            .pending
            .clear_with(|id| self.slab.discard(id));
    }

    /// Drop every message parked in limbo.
    pub(crate) fn discard_limbo(&mut self) {
        for (_, ids) in self.limbo.drain() {
            for id in ids {
                self.slab.discard(id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::UserMsg;
    use crate::array::{ArrayId, ElemId, ElemRef, Payload};
    use crate::{ArrayProxy, Chare, Ctx, Ix, MachineConfig, SimTime};
    use charm_pup::Puper;

    fn env(rec_id: u64) -> Envelope {
        Envelope {
            dst: ElemRef {
                array: ArrayId(0),
                elem: ElemId(0),
            },
            payload: Payload::User(UserMsg::new(())),
            prio: 0,
            rec_id,
            bytes: std::num::NonZeroU32::new(40).unwrap(),
            src_pe: 0,
        }
    }

    #[test]
    fn freed_slots_are_reused_last_in_first_out() {
        let mut slab = EnvSlab::new();
        let (a, b, c) = (
            slab.insert(env(1)),
            slab.insert(env(2)),
            slab.insert(env(3)),
        );
        assert_eq!(slab.live(), 3);
        assert_eq!(slab.take(a).rec_id, 1);
        assert_eq!(slab.take(c).rec_id, 3);
        assert_eq!(slab.insert(env(4)), c, "last freed, first reused");
        assert_eq!(slab.insert(env(5)), a);
        assert_eq!(slab.slots.len(), 3, "no growth while slots are free");
        assert_eq!((slab[b].rec_id, slab[c].rec_id, slab[a].rec_id), (2, 4, 5));
        assert_eq!(slab.live(), 3);
    }

    #[test]
    fn ids_span_chunks() {
        let mut slab = EnvSlab::new();
        let chunk = ChunkVec::<Slot, CHUNK_BITS>::CHUNK;
        let ids: Vec<EnvId> = (0..chunk as u64 + 3).map(|i| slab.insert(env(i))).collect();
        assert_eq!(slab.slots.len(), chunk + 3);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(slab[id].rec_id, i as u64);
        }
        assert_eq!(slab.take(ids[chunk + 1]).rec_id, chunk as u64 + 1);
        assert_eq!(slab.insert(env(7)), ids[chunk + 1]);
    }

    #[test]
    #[should_panic(expected = "used after free")]
    fn a_freed_handle_does_not_read() {
        let mut slab = EnvSlab::new();
        let a = slab.insert(env(1));
        slab.take(a);
        let _ = slab[a].rec_id;
    }

    // ----- conservation: every path that drops an envelope frees its slot

    /// Works 1 ms per message; message 1 also exits, message 2 fans out.
    #[derive(Default)]
    struct Spinner;
    impl charm_pup::Pup for Spinner {
        fn pup(&mut self, _p: &mut Puper) {}
    }
    impl Chare for Spinner {
        type Msg = u8;
        fn on_message(&mut self, m: u8, ctx: &mut Ctx<'_>) {
            ctx.work(1e6);
            let me = ArrayProxy::<Spinner>::from_id(ctx.my_id().array);
            match m {
                1 => ctx.exit(),
                2 => (0..8).for_each(|i| ctx.send(me, Ix::i1(i), 0)),
                _ => {}
            }
        }
    }

    /// 32 spinners over `pes` PEs with three messages queued for each.
    fn spinners(rt: &mut Runtime, pes: usize) -> ArrayProxy<Spinner> {
        let arr = rt.create_array::<Spinner>("spinners");
        for i in 0..32 {
            rt.insert(arr, Ix::i1(i), Spinner, Some(i as usize % pes));
        }
        for _ in 0..3 {
            rt.broadcast(arr, 0);
        }
        arr
    }

    fn conserved(rt: &Runtime) -> usize {
        assert_eq!(
            rt.slab.live(),
            rt.envelopes_accounted(),
            "slab slots leaked"
        );
        rt.slab.live()
    }

    #[test]
    fn failure_rollback_frees_queued_inflight_and_parked_envelopes() {
        let mut rt = Runtime::builder(MachineConfig::homogeneous(8))
            .auto_checkpoint(SimTime::from_micros(200))
            .build();
        let arr = spinners(&mut rt, 8);
        rt.send(arr, Ix::i1(99), 0); // parked: no element 99
        let fail = SimTime::from_millis(3);
        rt.schedule_failure(fail, 5);
        rt.run_until(fail.saturating_sub(SimTime(100)));
        rt.send(arr, Ix::i1(1), 0); // still on the wire at the failure
        assert!(
            rt.work.queued > 0 && !rt.limbo.is_empty(),
            "caught with work queued and parked"
        );
        let before = conserved(&rt);
        rt.run_until(fail);
        assert_eq!(rt.metric("failures_recovered").len(), 1, "the rollback ran");
        assert!(conserved(&rt) < before && rt.limbo.is_empty());
        rt.run();
        assert_eq!(conserved(&rt), 0);
    }

    #[test]
    fn shrink_evacuation_reroutes_every_stranded_envelope() {
        let half_ms = SimTime::from_micros(500);
        let mut rt = Runtime::homogeneous(8);
        rt.reconfig_overhead_shrink = SimTime::from_micros(100);
        spinners(&mut rt, 8);
        rt.schedule_reconfigure(half_ms, 4);
        rt.run_until(half_ms);
        assert!(rt.work.queued > 0 && conserved(&rt) > 0, "caught mid-flight");
        let s = rt.run();
        assert_eq!(s.entries, 96, "every stranded envelope still executes");
        assert_eq!(conserved(&rt), 0);
    }

    #[test]
    fn limbo_park_then_insert_flushes_the_slot() {
        #[derive(Default)]
        struct Node;
        impl charm_pup::Pup for Node {
            fn pup(&mut self, _p: &mut Puper) {}
        }
        impl Chare for Node {
            type Msg = i64;
            fn on_message(&mut self, m: i64, ctx: &mut Ctx<'_>) {
                if m == 0 {
                    let me = ArrayProxy::<Node>::from_id(ctx.my_id().array);
                    ctx.insert(me, Ix::i1(99), Node, Some(1));
                } else {
                    ctx.log_metric("child", m as f64);
                }
            }
        }
        let mut rt = Runtime::homogeneous(2);
        let arr = rt.create_array::<Node>("nodes");
        rt.insert(arr, Ix::i1(0), Node, Some(0));
        rt.send(arr, Ix::i1(99), 7);
        rt.run();
        assert_eq!(
            (conserved(&rt), rt.limbo_messages().len()),
            (1, 1),
            "parked, not lost"
        );
        rt.send(arr, Ix::i1(0), 0);
        rt.run();
        assert_eq!(rt.metric("child").len(), 1, "the parked message ran");
        assert_eq!(conserved(&rt), 0);
    }

    #[test]
    fn delivery_to_a_dead_pe_frees_the_slot() {
        let fail = SimTime::from_millis(2);
        let mut rt = Runtime::homogeneous(4);
        let arr = spinners(&mut rt, 4);
        rt.schedule_failure(fail, 1); // no checkpoint: PE 1 and its chares are lost
        rt.run_until(fail.saturating_sub(SimTime(100)));
        rt.send(arr, Ix::i1(1), 0); // lands on PE 1 after it died
        rt.run_until(fail);
        assert!(rt.unrecoverable().is_some() && rt.work.inflight > 0);
        conserved(&rt);
        rt.run();
        assert_eq!(conserved(&rt), 0);
    }

    #[test]
    fn exit_mid_window_leaves_the_rest_accounted() {
        let mut rt = Runtime::homogeneous(4);
        let arr = spinners(&mut rt, 4);
        rt.send(arr, Ix::i1(3), 2);
        rt.send(arr, Ix::i1(5), 1);
        rt.run();
        assert!(conserved(&rt) > 0, "exit left messages behind");
        drop(rt); // the slab frees them with the runtime
    }
}
