//! The four service paths built on migratability — LB enactment,
//! shrink/expand, preemption evacuation, rollback restore — plus
//! `MigrateMe`, each pinned to a committed fingerprint: simulated end time,
//! event/message/byte counts, folded state digest, LB rounds, the
//! journalled service costs, the `NetCounters`, and an FNV of the Chrome
//! trace, so any drift in a `NetworkModel` call, a key allocation or a
//! relocation order shows up here. `MIGRATE_ME_PIN` was measured before
//! the services were moved onto shared mechanisms; the other four were
//! re-pinned when LB, shrink and evacuation took `MigrateMe`'s price for a
//! chare move (DESIGN §7), which a lone `MigrateMe` keeps exactly.

mod campaign;

use campaign::{
    ballast_build, fingerprint, lockstep_build, lockstep_verify, shrink_expand_run, SHRINK_EXPAND_PIN,
};
use charm_core::machine::presets;
use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, RedOp, RedValue, Runtime, SimTime, SysEvent,
    TraceConfig,
};
use charm_pup::{Pup, Puper};

fn greedy() -> Box<dyn charm_core::Strategy> {
    charm_apps::strategy_by_name("greedy").expect("GreedyLb is registered")
}

fn ledger_has(rt: &Runtime, needle: &str) -> bool {
    rt.tracer()
        .expect("tracing is on")
        .ledger()
        .iter()
        .any(|(_, line)| line.contains(needle))
}

// ---------------------------------------------------------------------------
// (i) AtSync rounds: uneven workers packed onto half the machine.
// ---------------------------------------------------------------------------

const SYNC_WORKERS: i64 = 16;
const SYNC_STEPS: u64 = 3;

#[derive(Default)]
struct SyncWorker {
    step: u64,
    weight: f64,
    ballast: Vec<u64>,
    me: ArrayProxy<SyncWorker>,
}

impl Pup for SyncWorker {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.weight, self.ballast, self.me);
    }
}

impl Chare for SyncWorker {
    type Msg = u8;
    fn on_message(&mut self, _go: u8, ctx: &mut Ctx<'_>) {
        ctx.work(self.weight);
        ctx.at_sync();
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        match ev {
            SysEvent::ResumeFromSync => {
                self.step += 1;
                if self.step < SYNC_STEPS {
                    ctx.send(self.me, ctx.my_index(), 0u8);
                } else {
                    ctx.contribute(
                        self.me,
                        1,
                        RedValue::I64(1),
                        RedOp::Sum,
                        Callback::BroadcastTo { array: self.me.id() },
                    );
                }
            }
            SysEvent::Reduction { value, .. } => {
                assert_eq!(value.as_i64(), SYNC_WORKERS);
                if ctx.my_index() == Ix::i1(0) {
                    ctx.log_metric("sync_done", self.step as f64);
                    ctx.exit();
                }
            }
            _ => {}
        }
    }
}

const AT_SYNC_PIN: &str = "\
end_ns=4534517 events=248 entries=112 messages=112 bytes=6432\n\
state=0x0aeb9924c7f1ac6b\n\
placement=[Some(5), Some(7), Some(6), Some(3), Some(0), Some(0), Some(3), Some(7), Some(4), Some(1), Some(1), Some(4), Some(6), Some(5), Some(2), Some(2)]\n\
pes=8 alive=8\n\
lb=[(12, 0.000613101), (0, 0.000560655), (0, 0.000559677)]\n\
ckpt_time_s=[]\n\
evacuation_cost_s=[]\n\
reconfigure_cost_s=[]\n\
restart_time_s=[]\n\
capacity=[]\n\
network model: 20 remote msg(s), 6209 B remote, 32 local hop(s)\n\
trace=0xb11c059ef12ea5b9\n\
";

#[test]
fn at_sync_greedy_rounds_migrate() {
    let mut rt = Runtime::builder(presets::cloud(8))
        .seed(7)
        .strategy(greedy())
        .tracing(TraceConfig::default())
        .build();
    let arr = rt.create_array::<SyncWorker>("sync_workers");
    rt.set_at_sync(arr, true);
    for i in 0..SYNC_WORKERS {
        let w = SyncWorker {
            step: 0,
            weight: 2e5 * (1 + i % 5) as f64,
            ballast: vec![i as u64; 8 + 4 * i as usize],
            me: arr,
        };
        rt.insert(arr, Ix::i1(i), w, Some(i as usize % 4));
    }
    rt.broadcast_tree(arr, 0u8);
    let s = rt.run();
    assert_eq!(rt.metric("sync_done").len(), 1);
    assert!(rt.lb_rounds().iter().any(|r| r.migrations > 0), "a round must migrate");
    assert_eq!(fingerprint(&mut rt, &s), AT_SYNC_PIN);
}

// ---------------------------------------------------------------------------
// (ii) shrink 8 → 4, then expand → 8 (shared with tests/integration.rs).
// ---------------------------------------------------------------------------

#[test]
fn shrink_then_expand() {
    assert_eq!(shrink_expand_run(greedy()), SHRINK_EXPAND_PIN);
}

// ---------------------------------------------------------------------------
// (iii) a long-warning preemption evacuates a two-PE node; a zero-warning
// one on another node rolls back.
// ---------------------------------------------------------------------------

const PREEMPT_PIN: &str = "\
end_ns=23844436 events=907 entries=325 messages=337 bytes=15712\n\
state=0xd293f564383040aa\n\
placement=[Some(0), Some(7), Some(6), Some(7), Some(0), Some(1), Some(6), Some(7), Some(1), Some(6), Some(6), Some(7), Some(0), Some(1), Some(6), Some(7), Some(6), Some(7), Some(6), Some(7), Some(0), Some(1), Some(6), Some(7), Some(0), Some(0), Some(7), Some(6), Some(1), Some(0), Some(7), Some(6), Some(1), Some(0), Some(7), Some(6), Some(1)]\n\
pes=8 alive=4\n\
lb=[]\n\
ckpt_time_s=[(0.0015, 0.000226892), (0.003, 0.000211426), (0.0045, 0.000190832), (0.006, 0.000211548), (0.0075, 0.000223857), (0.009, 0.00019267), (0.0105, 0.000219952), (0.012, 0.000205122), (0.0135, 0.00021309), (0.015, 0.000217977), (0.0165, 0.000190848), (0.018, 0.000202371), (0.0195, 0.000206372), (0.021, 0.000189053), (0.0225, 0.000212146)]\n\
evacuation_cost_s=[(0.0018, 0.000350719)]\n\
reconfigure_cost_s=[]\n\
restart_time_s=[(0.0055, 0.00094155)]\n\
capacity=[(0.0018, 6.0), (0.0055, 4.0)]\n\
network model: 77 remote msg(s), 35144 B remote, 1 local hop(s)\n\
trace=0xa04425ef0ef15574\n\
";

#[test]
fn long_warning_evacuates_and_zero_warning_rolls_back() {
    let mut rt = Runtime::builder(presets::cloud(8).with_pes_per_node(2))
        .seed(7)
        .auto_checkpoint(SimTime::from_micros(1_500))
        .tracing(TraceConfig::default())
        .build();
    lockstep_build(&mut rt);
    ballast_build(&mut rt);
    rt.schedule_preemption(SimTime::from_micros(3_000), 5, SimTime::from_micros(1_200));
    rt.schedule_preemption(SimTime::from_micros(5_500), 2, SimTime::ZERO);
    let outcome = rt.run_outcome();
    let s = outcome.summary().expect("both preemptions are survivable");
    lockstep_verify(&rt).expect("answer survives evacuation + rollback");
    assert_eq!(rt.metric("evacuations").len(), 1, "the long warning evacuates");
    assert_eq!(rt.metric("preempt_short").len(), 1, "the zero warning cannot");
    assert_eq!(rt.metric("restart_time_s").len(), 1, "and rolls back instead");
    assert_eq!(fingerprint(&mut rt, s), PREEMPT_PIN);
}

// ---------------------------------------------------------------------------
// (iv) a node failure after a preemption and a shrink: the checkpoint's
// homes include retired and out-of-range PEs, so restore diverts chares to
// the buddy copy's PE or round-robin over the alive ones.
// ---------------------------------------------------------------------------

const DIVERSION_PIN: &str = "\
end_ns=24551758 events=802 entries=331 messages=343 bytes=19656\n\
state=0xd293f564383040aa\n\
placement=[Some(0), Some(0), Some(2), Some(3), Some(0), Some(2), Some(2), Some(3), Some(0), Some(3), Some(2), Some(3), Some(0), Some(0), Some(2), Some(3), Some(0), Some(2), Some(2), Some(3), Some(0), Some(3), Some(2), Some(3), Some(0), Some(0), Some(3), Some(2), Some(0), Some(0), Some(3), Some(2), Some(2), Some(0), Some(3), Some(2), Some(3)]\n\
pes=4 alive=3\n\
lb=[]\n\
ckpt_time_s=[(0.002, 0.000226892), (0.004, 0.000169642), (0.006, 0.00019407), (0.008, 0.000159671), (0.01, 0.000150858), (0.012, 0.000194408), (0.014, 0.00017967), (0.016, 0.000160787), (0.018, 0.000159054), (0.02, 0.000151884), (0.022, 0.000159234), (0.024, 0.000164557)]\n\
evacuation_cost_s=[(0.0026, 0.000377845)]\n\
reconfigure_cost_s=[(0.003, 0.000358385)]\n\
restart_time_s=[(0.0036, 0.000639619)]\n\
capacity=[(0.0026, 7.0), (0.003, 3.0), (0.0036, 3.0)]\n\
network model: 90 remote msg(s), 38756 B remote, 3 local hop(s)\n\
trace=0xcc12604ad2f2cfd5\n\
";

#[test]
fn rollback_diverts_chares_homed_on_retired_pes() {
    let mut rt = Runtime::builder(presets::cloud(8))
        .seed(7)
        .auto_checkpoint(SimTime::from_micros(2_000))
        .tracing(TraceConfig::default())
        .build();
    rt.reconfig_overhead_shrink = SimTime::from_micros(100);
    lockstep_build(&mut rt);
    ballast_build(&mut rt);
    // Checkpoint commits shortly after 2.0 ms on 8 PEs; PE 1 is evacuated
    // at 2.6 ms, PEs 4–7 retire at 3.0 ms, PE 2 crashes at 3.6 ms — before
    // the 4.0 ms checkpoint tick could replace the 8-PE snapshot.
    rt.schedule_preemption(SimTime::from_micros(3_300), 1, SimTime::from_micros(700));
    rt.schedule_reconfigure(SimTime::from_micros(3_000), 4);
    rt.schedule_failure(SimTime::from_micros(3_600), 2);
    let outcome = rt.run_outcome();
    let s = outcome.summary().expect("one copy of every chare survives");
    lockstep_verify(&rt).expect("answer survives the diverted restore");
    assert_eq!(rt.metric("ckpt_committed").first().map(|c| c.0 < 2.6e-3), Some(true));
    assert_eq!(rt.metric("evacuations").len(), 1);
    assert_eq!(rt.metric("restart_time_s").len(), 1);
    assert!(ledger_has(&rt, "rollback to checkpoint"));
    assert_eq!(fingerprint(&mut rt, s), DIVERSION_PIN);
}

// ---------------------------------------------------------------------------
// (v) MigrateMe: the chare is in transit while a message chases it.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Hopper {
    hops: u64,
    cargo: Vec<u8>,
    me: ArrayProxy<Hopper>,
}

impl Pup for Hopper {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.hops, self.cargo, self.me);
    }
}

impl Chare for Hopper {
    type Msg = i64;
    fn on_message(&mut self, m: i64, ctx: &mut Ctx<'_>) {
        match m {
            // Tell the neighbour to write back, then leave: its reply finds
            // this chare gone and waits in limbo for the arrival.
            0 => {
                ctx.send(self.me, Ix::i1(1), 1);
                ctx.migrate_me(6);
            }
            1 => ctx.send(self.me, Ix::i1(0), 2),
            _ => {
                ctx.log_metric("hopper_pe", ctx.my_pe() as f64);
                ctx.exit();
            }
        }
    }
    fn on_event(&mut self, ev: SysEvent, _ctx: &mut Ctx<'_>) {
        if let SysEvent::Migrated { from_pe } = ev {
            assert_eq!(from_pe, 0);
            self.hops += 1;
        }
    }
}

const MIGRATE_ME_PIN: &str = "\
end_ns=324721 events=9 entries=4 messages=4 bytes=4300\n\
state=0x204a2397f11e034e\n\
placement=[Some(6), Some(1)]\n\
pes=8 alive=8\n\
lb=[]\n\
ckpt_time_s=[]\n\
evacuation_cost_s=[]\n\
reconfigure_cost_s=[]\n\
restart_time_s=[]\n\
capacity=[]\n\
network model: 7 remote msg(s), 4412 B remote, 1 local hop(s)\n\
trace=0x7728839f6de35bd1\n\
";

#[test]
fn migrate_me_in_transit_with_a_parked_message() {
    let mut rt = Runtime::builder(presets::cloud(8))
        .seed(7)
        .tracing(TraceConfig::default())
        .build();
    let arr = rt.create_array::<Hopper>("hoppers");
    for i in 0..2 {
        let h = Hopper { hops: 0, cargo: vec![i as u8; 4096], me: arr };
        rt.insert(arr, Ix::i1(i), h, Some(i as usize));
    }
    rt.send(arr, Ix::i1(0), 0);
    let s = rt.run();
    assert_eq!(rt.metric("hopper_pe").last().map(|m| m.1), Some(6.0));
    assert_eq!(rt.element_pe(arr.id(), &Ix::i1(0)), Some(6));
    assert_eq!(fingerprint(&mut rt, &s), MIGRATE_ME_PIN);
}
