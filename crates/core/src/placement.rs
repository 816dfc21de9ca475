//! Placement: how a chare changes PE, and everything built on it — the
//! one move and its one price (`move_chare`, `MoveCost`) behind the
//! load-balancing round, the draining of a PE set for shrink and
//! preemption, and `MigrateMe` (a real PUP round trip split across a
//! network delay); the global pause, the AtSync protocol, and the load
//! balancer's state ([`Lb`]).

use crate::array::{ArrayId, ElemRef, ObjId};
use crate::chare::SysEvent;
use crate::lbframework::{LbRound, LbStats, LbTrigger, ObjStat, Strategy};
use crate::runtime::{Ev, MigrateArrive, Runtime, ENVELOPE_BYTES, TOKEN_AUX};
use crate::trace::TraceEventKind;
use charm_machine::{NetworkModel, SimTime};
use fxhash::{FxHashMap, FxHashSet};
use std::collections::HashMap;

/// The load balancer's state: what balances, when, who is waiting at the
/// AtSync barrier, what it has done, and the traffic it weighs.
pub(crate) struct Lb {
    strategy: Option<Box<dyn Strategy>>,
    trigger: LbTrigger,
    /// Elements waiting at the AtSync barrier; a repeat call is a no-op.
    waiting: FxHashSet<ElemRef>,
    rounds: Vec<LbRound>,
    /// Aggregated obj→obj bytes since the last LB window started: `Some`
    /// iff the strategy [`wants_comm`](Strategy::wants_comm).
    comm: Option<FxHashMap<(ObjId, ObjId), u64>>,
}

impl Lb {
    pub(crate) fn new(strategy: Option<Box<dyn Strategy>>, trigger: LbTrigger) -> Self {
        let comm = strategy.as_ref().is_some_and(|s| s.wants_comm()).then(FxHashMap::default);
        Lb { strategy, trigger, waiting: FxHashSet::default(), rounds: Vec::new(), comm }
    }

    /// Journal `bytes` sent from `src` to `dst` if the strategy weighs them.
    #[inline]
    pub(crate) fn note_comm(&mut self, src: ObjId, dst: ObjId, bytes: usize) {
        if let Some(comm) = &mut self.comm {
            *comm.entry((src, dst)).or_default() += bytes as u64;
        }
    }

    /// A rollback discarded the run: nobody waits at the barrier any more.
    pub(crate) fn forget_waiting(&mut self) {
        self.waiting.clear();
    }
}

/// One chare changing PE, and the size of its PUP image.
#[derive(Clone, Copy)]
pub(crate) struct Move {
    obj: ObjId,
    from: usize,
    to: usize,
    image: usize,
}

/// The price of a batch of chare moves, whoever makes them (DESIGN §7):
/// each image plus an envelope goes point to point, a source PE sends its
/// chares one after another and the sources send at once. Built move by
/// move, so no batch is held as a list.
pub(crate) struct MoveCost {
    token: u64,
    per_source: HashMap<usize, SimTime>,
    /// The busiest source's total so far: the batch's transfer time.
    pub(crate) total: SimTime,
}

impl MoveCost {
    /// Price `m` into the batch; move `i` draws its jitter from token + `i`.
    pub(crate) fn add(&mut self, net: &mut NetworkModel, m: &Move) -> &mut Self {
        let sent = self.per_source.entry(m.from).or_default();
        *sent += net.delay(m.from, m.to, m.image + ENVELOPE_BYTES, self.token);
        self.total = self.total.max(*sent);
        self.token = self.token.wrapping_add(1);
        self
    }
}

impl Runtime {
    // ----- moving chares: one move, one price ---------------------------------

    /// The move of `obj` from `from` onto `to`, if there is one: none when
    /// the chare is there already or `to` is dead (a hole that a preemption
    /// or crash left inside the live boundary, where the chare would be lost).
    fn plan_move(&self, obj: ObjId, from: usize, to: usize) -> Option<Move> {
        (to != from && self.pes[to].alive).then_some(Move { obj, from, to, image: 0 })
    }

    /// An empty batch. Its first move draws the dispatch's auxiliary jitter
    /// token, so a lone `MigrateMe` is priced as the one message it is.
    pub(crate) fn move_batch(&self) -> MoveCost {
        let token = self.cur_dispatch.1 ^ TOKEN_AUX;
        MoveCost { token, per_source: HashMap::new(), total: SimTime::ZERO }
    }

    /// Account one move made at `at`: its image and an envelope are added
    /// to `bytes_moved`, and it leaves one `Migration` record.
    fn account_move(&mut self, m: &Move, at: SimTime) {
        self.stats.bytes_moved += (m.image + ENVELOPE_BYTES) as u64;
        self.trace_rts(at, TraceEventKind::Migration { obj: m.obj, from_pe: m.from, to_pe: m.to });
    }

    /// Make `m` now, in process (`AnyArray::move_element`: the record
    /// changes PE, the image is sized but never built), and account it.
    pub(crate) fn move_chare(&mut self, m: &mut Move, at: SimTime) {
        m.image = self.stores[m.obj.array.0 as usize].move_element(&m.obj.ix, m.to);
        self.account_move(m, at);
    }

    /// `MigrateMe`: the chare is packed and leaves now, and arrives one
    /// move's price later; messages that chase it meanwhile wait in limbo.
    /// Its record, and so its handle, stays.
    pub(crate) fn start_migration(&mut self, src: ObjId, to: usize, at: SimTime) {
        let Some(from) = self.stores[src.array.0 as usize].element_pe(&src.ix) else {
            return;
        };
        let Some(mut m) = self.plan_move(src, from, to.min(self.live_pes - 1)) else {
            return;
        };
        let store = &mut self.stores[src.array.0 as usize];
        let bytes = store.pack_element(&src.ix).expect("migrating an existing element");
        store.remove_element(&src.ix);
        m.image = bytes.len();
        self.account_move(&m, at);
        let delay = self.move_batch().add(&mut self.net, &m).total;
        self.work.inflight += 1;
        self.work.migrating += 1;
        let arrive = MigrateArrive { dst: src, to_pe: m.to, from_pe: from, bytes };
        self.push_ev(at + delay, Ev::MigrateArrive(Box::new(arrive)));
    }

    /// The arrival half of `MigrateMe`: unpack, tell the chare it moved,
    /// then flush any messages parked while it was in transit.
    pub(crate) fn on_migrate_arrive(&mut self, m: MigrateArrive) {
        let MigrateArrive { dst, to_pe, from_pe, bytes } = m;
        self.work.inflight -= 1;
        self.work.migrating -= 1;
        let elem = self.stores[dst.array.0 as usize].unpack_insert(dst.ix, to_pe, &bytes);
        let dst = ElemRef { array: dst.array, elem };
        self.deliver_sys(dst, SysEvent::Migrated { from_pe }, self.now, 0);
        self.flush_limbo(dst);
    }

    // ----- draining a PE set ---------------------------------------------------

    /// The moves that drain every PE satisfying `on`: its chares in
    /// evacuation order (per array, per PE ascending, per index), dealt
    /// round-robin over the alive PEs `onto` (the counter runs across
    /// arrays; none if `onto` is empty), each sized as
    /// [`move_chare`](Self::move_chare) will size it.
    pub(crate) fn drain_plan(&mut self, on: impl Fn(usize) -> bool, onto: &[usize]) -> Vec<Move> {
        let mut out = Vec::new();
        for s in self.stores.iter_mut() {
            let array = s.id();
            let first = out.len();
            s.visit_sorted(&mut |ix, pe, chare| {
                if on(pe) {
                    let image = charm_pup::packed_size(chare);
                    out.push(Move { obj: ObjId { array, ix }, from: pe, to: pe, image });
                }
            });
            out[first..].sort_by_key(|m| m.from);
        }
        out.into_iter()
            .enumerate()
            .filter_map(|(rr, m)| {
                let to = *onto.get(rr % onto.len().max(1))?;
                Some(Move { image: m.image, ..self.plan_move(m.obj, m.from, to)? })
            })
            .collect()
    }

    /// Take `pes` down: their queues stop counting as queued work, the
    /// entry a PE was running is abandoned (its `PeFree` still fires but
    /// finds the PE dead, so the busy accounting is released here or
    /// `work.busy_pes` leaks and periodic ticks re-arm forever), the PEs are
    /// marked dead and each leaves a PE-idle trace record. The queued
    /// envelopes stay where they are for the caller to re-route or drop.
    pub(crate) fn take_down(&mut self, pes: &[usize]) {
        for &pe in pes {
            let p = &mut self.pes[pe];
            self.work.queued -= p.pending.len() as u64;
            if p.busy {
                p.busy = false;
                p.current = None;
                self.work.busy_pes -= 1;
            }
            p.alive = false;
            if let Some(tr) = &mut self.tracer {
                tr.pe_transition(self.now, pe, false);
            }
        }
    }

    /// Send the envelopes stranded on dead `pes` after their destinations:
    /// the chares were moved first, so with the location caches flushed
    /// routing finds each one's new home.
    pub(crate) fn reroute_stranded(&mut self, pes: &[usize]) {
        let mut stranded = Vec::new();
        for &pe in pes {
            while let Some(env) = self.pes[pe].pending.pop() {
                self.stats.pe_queue_ops += 1;
                stranded.push(env);
            }
        }
        self.flush_loc_caches();
        for env in stranded {
            self.route_and_schedule(env, self.now);
        }
    }

    /// Block every live PE from starting new work until `until`, and make
    /// sure idle PEs with queued work wake up then.
    pub(crate) fn block_all_pes(&mut self, until: SimTime) {
        for pe in 0..self.live_pes {
            self.pes[pe].blocked_until = self.pes[pe].blocked_until.max(until);
            self.push_ev(until, Ev::PeRetry { pe: pe as u32 });
        }
    }

    // ----- AtSync load balancing ----------------------------------------------

    /// Chare `from` reached its sync point (a repeat call before the round
    /// is a no-op); when every element of every AtSync array has, balance
    /// (or skip) and resume them.
    pub(crate) fn on_at_sync(&mut self, from: ElemRef, at: SimTime) {
        let store = &self.stores[from.array.0 as usize];
        assert!(
            store.uses_at_sync(),
            "at_sync called by an element of array '{}', which does not use AtSync \
             (enable it with Runtime::set_at_sync)",
            store.name()
        );
        self.lb.waiting.insert(from);
        let expected: usize = self
            .stores
            .iter()
            .filter(|s| s.uses_at_sync())
            .map(|s| s.len())
            .sum();
        if self.lb.waiting.len() < expected {
            return;
        }
        self.lb.waiting.clear();
        let skip = match self.lb.trigger {
            LbTrigger::AtSync => false,
            LbTrigger::Adaptive { min_imbalance } => {
                self.collect_lb_stats().imbalance() < min_imbalance
            }
        };
        if skip || self.lb.strategy.is_none() {
            // Resume immediately: a barrier's worth of cost only.
            let resume = at + self.barrier_cost();
            self.start_lb_window();
            self.resume_from_sync(resume);
            return;
        }
        self.run_lb_round(at, true);
    }

    /// The single stats-collection path: the LB-trigger peeks and the
    /// collection at the head of an LB round both go through here, so
    /// instrumentation and load-accounting rules can't drift apart. It
    /// reads the current window and leaves it intact; see
    /// [`Runtime::start_lb_window`].
    pub(crate) fn collect_lb_stats(&mut self) -> LbStats {
        // The communication journal (if tracked) in a deterministic order,
        // and per-sender totals.
        let mut comm: Vec<(ObjId, ObjId, u64)> =
            self.lb.comm.iter().flatten().map(|(&(a, b), &v)| (a, b, v)).collect();
        comm.sort_unstable_by(|x, y| {
            (x.0.array, x.0.ix, x.1.array, x.1.ix).cmp(&(y.0.array, y.0.ix, y.1.array, y.1.ix))
        });
        let mut sent_by: HashMap<ObjId, u64> = HashMap::new();
        for (a, _, v) in &comm {
            *sent_by.entry(*a).or_default() += v;
        }

        let mut objs = Vec::new();
        for s in self.stores.iter_mut() {
            if !s.uses_at_sync() {
                continue;
            }
            let id = s.id();
            for (ix, pe, load, hint) in &s.loads() {
                let obj = ObjId { array: id, ix: *ix };
                objs.push(ObjStat {
                    id: obj,
                    pe: *pe,
                    load: if *load > 0.0 { *load } else { *hint * 1e-6 },
                    bytes_sent: sent_by.get(&obj).copied().unwrap_or(0),
                });
            }
        }
        LbStats {
            num_pes: self.live_pes,
            pe_speed: (0..self.live_pes).map(|p| self.effective_speed(p)).collect(),
            objs,
            comm,
        }
    }

    /// Start a fresh LB measurement window: zero every AtSync chare's
    /// measured load and empty the communication journal together, so a
    /// strategy never weighs one window's load against several windows'
    /// traffic. An LB round, a round the trigger skips and a failure
    /// rollback each start their window here.
    pub(crate) fn start_lb_window(&mut self) {
        for s in self.stores.iter_mut() {
            if s.uses_at_sync() {
                s.reset_loads();
            }
        }
        if let Some(comm) = &mut self.lb.comm {
            comm.clear();
        }
    }

    /// Completed load-balancing rounds.
    pub fn lb_rounds(&self) -> &[LbRound] {
        &self.lb.rounds
    }

    /// An RTS-triggered LB round (no AtSync barrier involved): used by the
    /// thermal schemes and by cloud interference handling (§IV-F: "instead
    /// of application-triggered periodic load balancing, we switch to an
    /// RTS-triggered approach").
    pub(crate) fn rts_triggered_lb(&mut self) {
        if self.lb.strategy.is_some() {
            self.run_lb_round(self.now, false);
        }
    }

    /// Collect stats, start a fresh window, run the strategy, enact
    /// migrations, and (optionally) deliver ResumeFromSync. Charges the
    /// modeled cost of the whole round. Used by AtSync, RTS-triggered
    /// (thermal/cloud) LB, and reconfiguration.
    pub(crate) fn run_lb_round(&mut self, at: SimTime, resume: bool) {
        let stats = self.collect_lb_stats();
        self.start_lb_window();
        let imbalance_before = stats.imbalance();

        // Both callers, AtSync and `rts_triggered_lb`, skip the round when
        // no strategy is installed.
        let lb = self.lb.strategy.as_mut().expect("an LB round needs a strategy");
        let assignment = lb.assign(&stats);
        assert_eq!(assignment.len(), stats.objs.len());
        let strategy_name = lb.name();
        let distributed = lb.is_distributed();
        let decision_work = lb.decision_cost(stats.objs.len(), self.live_pes);
        self.trace_rts(
            at,
            TraceEventKind::LbBegin { strategy: strategy_name, objs: stats.objs.len() },
        );

        // --- modeled cost of the LB round -----------------------------------
        // One jitter draw prices the small hop; the gossip/scatter waves and
        // the closing barrier all reuse it.
        let depth = self.tree_depth();
        let token = self.cur_dispatch.1 ^ TOKEN_AUX;
        let small_hop = self.tree_hop(ENVELOPE_BYTES, token);
        let collect_cost = if distributed {
            // Gossip rounds exchange O(1)-size summaries.
            SimTime(small_hop.0 * depth * 2)
        } else {
            // Centralized gather of all stats, then a scatter of decisions.
            let gather = self.tree_hop(stats.objs.len() * 32, token);
            SimTime(gather.0 + small_hop.0 * depth * 2)
        };
        let decision_cost = SimTime::from_secs_f64(decision_work / self.machine.flops_per_sec);

        // --- enact migrations -------------------------------------------------
        let mut cost = self.move_batch();
        let mut migrations = 0usize;
        let mut new_assignment: Vec<usize> = Vec::with_capacity(stats.objs.len());
        for (obj, new_pe) in stats.objs.iter().zip(&assignment) {
            let planned = new_pe.and_then(|pe| {
                assert!(pe < self.live_pes, "{strategy_name} assigned dead PE {pe}");
                self.plan_move(obj.id, obj.pe, pe)
            });
            new_assignment.push(planned.map_or(obj.pe, |m| m.to));
            if let Some(mut m) = planned {
                self.move_chare(&mut m, at);
                cost.add(&mut self.net, &m);
                migrations += 1;
            }
        }
        let barrier = SimTime(small_hop.0 * depth);
        let total = collect_cost + decision_cost + cost.total + barrier;

        // All PEs pause for the round.
        let resume_at = at + total;
        self.block_all_pes(resume_at);

        let imbalance_after = crate::lbframework::imbalance_of(
            &new_assignment,
            &stats.objs.iter().map(|o| o.load).collect::<Vec<_>>(),
            &stats.pe_speed,
            self.live_pes,
        );
        self.trace_rts(
            resume_at,
            TraceEventKind::LbEnd { strategy: strategy_name, migrations, cost: total },
        );
        self.lb.rounds.push(LbRound {
            strategy: strategy_name,
            migrations,
            imbalance_before,
            imbalance_after,
            cost_s: total.as_secs_f64(),
        });

        if resume {
            self.resume_from_sync(resume_at);
        }
    }

    fn resume_from_sync(&mut self, at: SimTime) {
        let arrays: Vec<ArrayId> =
            self.stores.iter().filter(|s| s.uses_at_sync()).map(|s| s.id()).collect();
        for array in arrays {
            self.deliver_sys_to_all(array, &SysEvent::ResumeFromSync, at, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{Ev, ENVELOPE_BYTES};
    use crate::{Chare, Ctx, Ix, Runtime, SimTime, SysEvent};
    use charm_pup::Puper;

    #[derive(Default)]
    struct Spinner;
    impl charm_pup::Pup for Spinner {
        fn pup(&mut self, _p: &mut Puper) {}
    }
    impl Chare for Spinner {
        type Msg = u8;
        fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
            ctx.work(1e6);
        }
    }

    /// What the `Work` counters claim to track, counted
    /// afresh from the PE queues and the event heap.
    fn recount(rt: &mut Runtime) -> (u64, usize, u64) {
        let queued = rt.pes.iter().map(|p| p.pending.len() as u64).sum();
        let busy = rt.pes.iter().filter(|p| p.busy).count();
        let entries = rt.events.drain_entries();
        let inflight = entries
            .iter()
            .filter(|(_, _, ev)| matches!(ev, Ev::Deliver { .. } | Ev::MigrateArrive(_)))
            .count() as u64;
        for (t, k, ev) in entries {
            rt.events.push_keyed(t, k, ev);
        }
        (queued, busy, inflight)
    }

    /// Shrink and evacuation share one take-down. Run through either, with
    /// every PE mid-entry and holding queued envelopes, the three work
    /// counters must still equal a fresh count — a leak in any of them
    /// keeps periodic ticks re-arming and quiescence from ever firing.
    #[test]
    fn take_down_leaves_the_work_counters_exact() {
        let half_ms = SimTime::from_micros(500);
        for (name, alive_after) in [("shrink", 4), ("evacuation", 7)] {
            let mut rt = Runtime::homogeneous(8);
            rt.reconfig_overhead_shrink = SimTime::from_micros(100);
            let arr = rt.create_array::<Spinner>("spinners");
            for i in 0..32 {
                rt.insert(arr, Ix::i1(i), Spinner, Some(i as usize % 8));
            }
            for _ in 0..3 {
                rt.broadcast(arr, 0u8);
            }
            if name == "shrink" {
                rt.schedule_reconfigure(half_ms, 4);
            } else {
                // Announced at 0.5 ms, 1.5 ms ahead: ample for the drain.
                rt.schedule_preemption(SimTime::from_millis(2), 6, SimTime::from_micros(1_500));
            }
            rt.run_until(half_ms);
            assert_eq!(rt.alive_pes(), alive_after, "{name}: the take-down ran");
            assert!(rt.work.queued > 0 && rt.work.busy_pes > 0, "{name}: caught mid-flight");
            assert_eq!((rt.work.queued, rt.work.busy_pes, rt.work.inflight), recount(&mut rt), "{name}");
            let s = rt.run();
            assert_eq!(s.entries, 96, "{name}: every stranded envelope still executes");
            assert_eq!((rt.work.queued, rt.work.busy_pes, rt.work.inflight), (0, 0, 0), "{name}: drained");
        }
    }

    /// Calls `at_sync` as many times as its message says, and counts the
    /// resumes it gets.
    #[derive(Default)]
    struct Waiter {
        asked: bool,
        resumes: u32,
    }
    impl charm_pup::Pup for Waiter {
        fn pup(&mut self, p: &mut Puper) {
            p.p(&mut self.asked);
            p.p(&mut self.resumes);
        }
    }
    impl Chare for Waiter {
        type Msg = u8;
        fn on_message(&mut self, calls: u8, ctx: &mut Ctx<'_>) {
            for _ in 0..calls {
                ctx.at_sync();
            }
            self.asked = true;
        }
        fn on_event(&mut self, ev: SysEvent, _ctx: &mut Ctx<'_>) {
            if matches!(ev, SysEvent::ResumeFromSync) {
                assert!(self.asked, "resumed without having called at_sync");
                self.resumes += 1;
            }
        }
    }

    /// The barrier counts elements, not calls: one element calling twice
    /// does not stand in for another that has not arrived.
    #[test]
    fn repeated_at_sync_does_not_start_the_round_early() {
        let mut rt = Runtime::builder(charm_machine::MachineConfig::homogeneous(2))
            .strategy(Box::new(crate::NullLb))
            .build();
        let arr = rt.create_array::<Waiter>("waiters");
        rt.set_at_sync(arr, true);
        for i in 0..2 {
            rt.insert(arr, Ix::i1(i), Waiter::default(), Some(i as usize));
        }
        rt.send(arr, Ix::i1(0), 2u8);
        rt.run();
        assert!(rt.lb_rounds().is_empty(), "element 1 has not arrived yet");
        rt.send(arr, Ix::i1(1), 1u8);
        rt.run();
        assert_eq!(rt.lb_rounds().len(), 1);
        for i in 0..2 {
            assert_eq!(rt.inspect(arr, &Ix::i1(i), |w| w.resumes), Some(1), "element {i}");
        }
    }

    #[test]
    #[should_panic(expected = "Runtime::set_at_sync")]
    fn at_sync_from_an_array_without_at_sync_panics() {
        let mut rt = Runtime::homogeneous(2);
        let arr = rt.create_array::<Waiter>("plain");
        rt.insert(arr, Ix::i1(0), Waiter::default(), Some(0));
        rt.send(arr, Ix::i1(0), 1u8);
        rt.run();
    }

    thread_local! {
        /// `Counted` images unpacked on this thread.
        static UNPACKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// A chare that counts how often it is unpacked.
    #[derive(Default)]
    struct Counted {
        data: Vec<u64>,
    }
    impl charm_pup::Pup for Counted {
        fn pup(&mut self, p: &mut Puper) {
            if p.is_unpacking() {
                UNPACKS.with(|u| u.set(u.get() + 1));
            }
            p.p(&mut self.data);
        }
    }
    impl Chare for Counted {
        type Msg = u8;
        fn on_message(&mut self, _m: u8, _ctx: &mut Ctx<'_>) {}
    }

    /// Moves everything on PE 0 to PE 1.
    struct EmptyPe0;
    impl crate::Strategy for EmptyPe0 {
        fn name(&self) -> &'static str {
            "EmptyPe0"
        }
        fn assign(&mut self, stats: &crate::LbStats) -> Vec<Option<usize>> {
            stats.objs.iter().map(|o| (o.pe == 0).then_some(1)).collect()
        }
        fn decision_cost(&self, _num_objs: usize, _num_pes: usize) -> f64 {
            0.0
        }
    }

    /// An LB round and an evacuation move chares in process: nothing is
    /// unpacked, state stays, and the bytes moved and the round's cost are
    /// the ones the chares' PUP sizes give.
    #[test]
    fn lb_and_evacuation_moves_unpack_nothing() {
        let mut machine = charm_machine::MachineConfig::homogeneous(4);
        machine.network.jitter = 0.0;
        let mut rt = Runtime::builder(machine).strategy(Box::new(EmptyPe0)).build();
        let arr = rt.create_array::<Counted>("counted");
        rt.set_at_sync(arr, true);
        let (on_pe0, objs) = (6, 8);
        let mut images = Vec::new();
        for i in 0..objs {
            let mut c = Counted { data: (0..=i as u64).collect() };
            if i < on_pe0 {
                images.push(charm_pup::packed_size(&mut c));
            }
            rt.insert(arr, Ix::i1(i), c, Some(if i < on_pe0 { 0 } else { 1 }));
        }
        let bytes_before = rt.stats.bytes_moved;
        UNPACKS.with(|u| u.set(0));
        rt.run_lb_round(SimTime::ZERO, false);

        let round = rt.lb_rounds()[0].clone();
        assert_eq!(round.migrations, on_pe0 as usize);
        assert_eq!(UNPACKS.with(|u| u.get()), 0, "an LB move unpacks nothing");
        let wire: Vec<usize> = images.iter().map(|image| image + ENVELOPE_BYTES).collect();
        assert_eq!(rt.stats.bytes_moved - bytes_before, wire.iter().sum::<usize>() as u64);
        // The round's model (`run_lb_round`): gather the stats, scatter the
        // decisions, send PE 0's chares to PE 1 one after another, close
        // with a barrier.
        let (depth, small) = (rt.tree_depth(), rt.tree_hop(ENVELOPE_BYTES, 0));
        let gather = rt.tree_hop(objs as usize * 32, 0);
        let migrate = wire.iter().fold(SimTime::ZERO, |t, &w| t + rt.net.delay(0, 1, w, 0));
        let cost = SimTime(gather.0 + small.0 * depth * 2) + migrate + SimTime(small.0 * depth);
        assert_eq!(round.cost_s, cost.as_secs_f64());
        for i in 0..objs {
            let want: Vec<u64> = (0..=i as u64).collect();
            assert_eq!(rt.element_pe(arr.id(), &Ix::i1(i)), Some(1));
            assert_eq!(rt.inspect(arr, &Ix::i1(i), |c| c.data.clone()), Some(want));
        }

        let moves = rt.drain_plan(|pe| pe == 1, &[2, 3]);
        assert_eq!(moves.len(), objs as usize);
        moves.into_iter().for_each(|mut m| rt.move_chare(&mut m, SimTime::ZERO));
        assert_eq!(UNPACKS.with(|u| u.get()), 0, "an evacuation unpacks nothing");
        for i in 0..objs {
            assert_eq!(rt.element_pe(arr.id(), &Ix::i1(i)), Some(2 + i as usize % 2));
        }
    }

    /// Chare that migrates itself to PE 1 on first message and checks state
    /// survives, then exits.
    #[derive(Default)]
    struct Mover {
        payload: Vec<u64>,
        moved: bool,
    }
    impl charm_pup::Pup for Mover {
        fn pup(&mut self, p: &mut Puper) {
            p.p(&mut self.payload);
            p.p(&mut self.moved);
        }
    }
    impl Chare for Mover {
        type Msg = u8;
        fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
            assert!(!self.moved);
            ctx.migrate_me(1);
        }
        fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
            if let SysEvent::Migrated { from_pe } = ev {
                assert_eq!(from_pe, 0);
                assert_eq!(ctx.my_pe(), 1);
                assert_eq!(self.payload, vec![7, 8, 9], "state survives migration");
                self.moved = true;
                ctx.exit();
            }
        }
    }

    #[test]
    fn migration_moves_state() {
        let mut rt = Runtime::homogeneous(2);
        let arr = rt.create_array::<Mover>("mover");
        rt.insert(
            arr,
            Ix::i1(0),
            Mover {
                payload: vec![7, 8, 9],
                moved: false,
            },
            Some(0),
        );
        rt.send(arr, Ix::i1(0), 0u8);
        rt.run();
        assert_eq!(rt.element_pe(arr.id(), &Ix::i1(0)), Some(1));
    }
}
