//! Collectives over the `collective_arity`-ary spanning tree: how a tree
//! hop is priced, the spanning broadcast, reductions (each contribution
//! folds as it is made; the last one sends the callback), callback and
//! system-event delivery, and quiescence detection.

use crate::arena::UserMsg;
use crate::array::{ArrayId, ElemRef, Payload};
use crate::chare::{Callback, RedOp, RedValue, SysEvent};
use crate::runtime::{Runtime, ENVELOPE_BYTES, TOKEN_AUX};
use charm_machine::SimTime;

pub(crate) struct RedState {
    expected: usize,
    count: usize,
    acc: Option<RedValue>,
    op: RedOp,
    cb: Callback,
    bytes: usize,
}

impl Runtime {
    /// Depth of a `collective_arity`-ary spanning tree over the live PEs.
    pub(crate) fn tree_depth(&self) -> u64 {
        let p = self.live_pes.max(2) as f64;
        p.log(self.collective_arity.max(2) as f64).ceil().max(1.0) as u64
    }

    /// Price of one spanning-tree hop carrying `bytes`: a neighbour-to-
    /// neighbour message (a same-PE hop on a one-PE machine).
    pub(crate) fn tree_hop(&mut self, bytes: usize, token: u64) -> SimTime {
        self.net.delay(0, 1.min(self.live_pes - 1), bytes, token)
    }

    /// Cost of one spanning-tree barrier over the live PEs.
    pub(crate) fn barrier_cost(&mut self) -> SimTime {
        let hop = self.tree_hop(ENVELOPE_BYTES, self.cur_dispatch.1 ^ TOKEN_AUX);
        SimTime(hop.0 * self.tree_depth())
    }

    /// Spanning-tree broadcast: each level adds one message latency and
    /// all leaves receive after `tree_depth()` hops (idealized balanced
    /// tree). `from_chare` marks a broadcast by the executing chare (not
    /// the host) and `token` names the jitter draw of the hop. Elements are
    /// reached in index order by walking the array's records: no index is
    /// hashed and no list is built.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn spanning_broadcast(
        &mut self,
        array: ArrayId,
        make: &dyn Fn() -> UserMsg,
        bytes: usize,
        prio: i64,
        from_chare: bool,
        src_pe: usize,
        at: SimTime,
        token: u64,
    ) {
        let depth = self.tree_depth();
        let tree_delay = SimTime(self.tree_hop(bytes, token).0 * depth);
        for k in 0..self.stores[array.0 as usize].sorted_len() {
            let (elem, Some(pe)) = self.stores[array.0 as usize].sorted_nth(k) else {
                continue;
            };
            let dst = ElemRef { array, elem };
            let env = self.mint(dst, Payload::User(make()), bytes, prio, src_pe, from_chare);
            let rec_id = self.slab[env].rec_id;
            if let Some(r) = &mut self.recorder {
                r.on_routed(rec_id, bytes, src_pe, pe, depth, 0);
            }
            self.stats.bytes_moved += bytes as u64;
            if let Some(tr) = &mut self.tracer {
                tr.on_send(at, src_pe, pe, dst.obj(&self.stores), bytes, tree_delay);
            }
            self.sched_deliver(at + tree_delay, pe, env);
        }
    }

    /// Fold a contribution into its reduction. The contribution that
    /// completes it sends the callback up the spanning tree from `at`, the
    /// contributing entry's end, under keys from the reduction slot.
    pub(crate) fn contribute(
        &mut self,
        array: ArrayId,
        tag: u32,
        value: RedValue,
        op: RedOp,
        cb: Callback,
        at: SimTime,
    ) {
        let expected = self.stores[array.0 as usize].len();
        let entry = self
            .reductions
            .entry((array, tag))
            .or_insert_with(|| RedState {
                expected,
                count: 0,
                acc: None,
                op,
                cb,
                bytes: value.wire_size(),
            });
        assert_eq!(entry.op, op, "mixed reduction ops for tag {tag}");
        entry.count += 1;
        entry.acc = Some(match entry.acc.take() {
            None => value,
            Some(acc) => entry.op.combine(acc, &value),
        });
        if entry.count < entry.expected {
            return;
        }
        let st = self.reductions.remove(&(array, tag)).expect("just there");
        let value = st.acc.expect("at least one contribution");
        // k-ary spanning tree: log_k(P) combine hops of the value size.
        let depth = self.tree_depth();
        let hop = self.tree_hop(st.bytes + ENVELOPE_BYTES, self.cur_dispatch.1 ^ TOKEN_AUX);
        let done = at + SimTime(hop.0 * depth);
        let saved_slot = self.cur_slot;
        self.cur_slot = self.red_slot();
        self.deliver_callback(st.cb, SysEvent::Reduction { tag, value }, done, depth);
        self.cur_slot = saved_slot;
    }

    /// Deliver `ev` to `cb` at `at`, tagged with the spanning-tree depth
    /// whose latency the caller folded into `at` (0 for none), so a recorded
    /// what-if replay can re-price the collective on a different network.
    pub(crate) fn deliver_callback(&mut self, cb: Callback, ev: SysEvent, at: SimTime, depth: u64) {
        match cb {
            Callback::ToChare { array, ix } => {
                let elem = self.stores[array.0 as usize].intern(&ix);
                self.deliver_sys(ElemRef { array, elem }, ev, at, depth);
            }
            Callback::BroadcastTo { array } => self.deliver_sys_to_all(array, &ev, at, depth),
            Callback::Ignore => {}
        }
    }

    /// Deliver `ev` to every current element of `array`, in index order
    /// (the record walk `spanning_broadcast` uses).
    pub(crate) fn deliver_sys_to_all(
        &mut self,
        array: ArrayId,
        ev: &SysEvent,
        at: SimTime,
        depth: u64,
    ) {
        for k in 0..self.stores[array.0 as usize].sorted_len() {
            if let (elem, Some(_)) = self.stores[array.0 as usize].sorted_nth(k) {
                self.deliver_sys(ElemRef { array, elem }, ev.clone(), at, depth);
            }
        }
    }

    /// Deliver a system event to one chare at `at` (local-queue cost only;
    /// collective costs are charged by callers, and tagged by `depth`).
    pub(crate) fn deliver_sys(&mut self, dst: ElemRef, ev: SysEvent, at: SimTime, depth: u64) {
        let Some(pe) = self.stores[dst.array.0 as usize].locate(dst.elem) else {
            return;
        };
        // `i64::MIN + 1`: system events run promptly.
        let payload = Payload::Sys(Box::new(ev));
        let env = self.mint(dst, payload, ENVELOPE_BYTES, i64::MIN + 1, pe, false);
        let rec_id = self.slab[env].rec_id;
        if let Some(r) = &mut self.recorder {
            r.on_routed(rec_id, ENVELOPE_BYTES, pe, pe, depth, 0);
        }
        let local = self.net.params().local_delivery;
        if let Some(tr) = &mut self.tracer {
            tr.on_msg_latency(local);
        }
        self.sched_deliver(at + local, pe, env);
    }

    // ----- quiescence ---------------------------------------------------------

    pub(crate) fn maybe_detect_quiescence(&mut self) {
        if self.qd.is_none() {
            return;
        }
        if !self.work_outstanding() {
            let cb = self.qd.take().expect("checked");
            // Two waves of a spanning-tree counting algorithm.
            let depth = self.tree_depth() * 2;
            let done = self.now + SimTime(self.barrier_cost().0 * 2);
            self.deliver_callback(cb, SysEvent::QuiescenceDetected, done, depth);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ArrayProxy, Callback, Chare, Ctx, Ix, RedOp, RedValue, Runtime, SysEvent};
    use charm_pup::Puper;

    /// Reduction test: N contributors sum their indices to a root chare.
    #[derive(Default)]
    struct Summer {
        n: i64,
        is_root: bool,
        got: Option<f64>,
    }
    impl charm_pup::Pup for Summer {
        fn pup(&mut self, p: &mut Puper) {
            p.p(&mut self.n);
            p.p(&mut self.is_root);
        }
    }
    impl Chare for Summer {
        type Msg = u8;
        fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
            let proxy = ArrayProxy::<Summer>::new(ctx.my_id().array);
            ctx.contribute(
                proxy,
                1,
                RedValue::F64(self.n as f64),
                RedOp::Sum,
                Callback::ToChare {
                    array: ctx.my_id().array,
                    ix: Ix::i1(0),
                },
            );
        }
        fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
            if let SysEvent::Reduction { tag, value } = ev {
                assert_eq!(tag, 1);
                assert!(self.is_root);
                self.got = Some(value.as_f64());
                ctx.log_metric("sum", value.as_f64());
                ctx.exit();
            }
        }
    }

    #[test]
    fn reduction_sums_all_contributions() {
        let mut rt = Runtime::homogeneous(4);
        let arr = rt.create_array::<Summer>("sum");
        for i in 0..10 {
            rt.insert(
                arr,
                Ix::i1(i),
                Summer {
                    n: i,
                    is_root: i == 0,
                    got: None,
                },
                None,
            );
        }
        rt.broadcast(arr, 0u8);
        rt.run();
        let m = rt.metric("sum");
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].1, 45.0);
    }

    #[test]
    fn quiescence_detected_after_messages_drain() {
        #[derive(Default)]
        struct Q {
            waiting: bool,
        }
        impl charm_pup::Pup for Q {
            fn pup(&mut self, p: &mut Puper) {
                p.p(&mut self.waiting);
            }
        }
        impl Chare for Q {
            type Msg = u8;
            fn on_message(&mut self, m: u8, ctx: &mut Ctx<'_>) {
                if m == 1 {
                    // fan out some work, then request QD
                    let proxy = ArrayProxy::<Q>::new(ctx.my_id().array);
                    for i in 1..5 {
                        ctx.send(proxy, Ix::i1(i), 0u8);
                    }
                    self.waiting = true;
                    ctx.request_quiescence(ctx.cb_self());
                } else {
                    ctx.work(10_000.0);
                }
            }
            fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
                if matches!(ev, SysEvent::QuiescenceDetected) {
                    assert!(self.waiting);
                    ctx.log_metric("qd", 1.0);
                    ctx.exit();
                }
            }
        }
        let mut rt = Runtime::homogeneous(2);
        let arr = rt.create_array::<Q>("q");
        for i in 0..5 {
            rt.insert(arr, Ix::i1(i), Q::default(), None);
        }
        rt.send(arr, Ix::i1(0), 1u8);
        rt.run();
        assert_eq!(rt.metric("qd").len(), 1);
    }
}
