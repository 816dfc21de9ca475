//! Moving a chare is one operation with one price, whoever moves it: the
//! load-balancing round, a shrink, a proactive evacuation and `MigrateMe`
//! each charge a move its PUP image plus one envelope and leave one
//! `Migration` trace record, and none of them moves a chare onto a dead PE.

use charm_core::machine::presets;
use charm_core::{
    ArrayProxy, Chare, Ctx, Ix, LbStats, Runtime, SimTime, Strategy, TraceConfig,
    TraceEventKind,
};
use charm_pup::{Pup, Puper};

/// The runtime's envelope header, charged once per message and per move.
const ENVELOPE_BYTES: u64 = 40;

/// A chare with some state. A message names the PE to `MigrateMe` to;
/// [`PING`] instead logs the PE the chare runs on.
#[derive(Default)]
struct Cargo {
    data: Vec<u64>,
}

const PING: u8 = u8::MAX;

impl Pup for Cargo {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.data);
    }
}

impl Chare for Cargo {
    type Msg = u8;
    fn on_message(&mut self, m: u8, ctx: &mut Ctx<'_>) {
        if m == PING {
            ctx.log_metric("ping", ctx.my_pe() as f64);
        } else {
            ctx.migrate_me(m as usize);
        }
    }
}

/// Moves every chare onto PE 0.
struct ToPe0;
impl Strategy for ToPe0 {
    fn name(&self) -> &'static str {
        "ToPe0"
    }
    fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
        vec![Some(0); stats.objs.len()]
    }
}

/// A traced 2-PE cloud (one PE per node) holding one `Cargo` on PE 1;
/// returns it with the chare's image size.
fn one_chare(lb: bool) -> (Runtime, ArrayProxy<Cargo>, u64) {
    let mut b = Runtime::builder(presets::cloud(2)).seed(3).tracing(TraceConfig::default());
    if lb {
        b = b.strategy(Box::new(ToPe0));
    }
    let mut rt = b.build();
    let arr = rt.create_array::<Cargo>("cargo");
    rt.set_at_sync(arr, lb);
    let mut c = Cargo { data: (0..100).collect() };
    let image = charm_pup::packed_size(&mut c) as u64;
    rt.insert(arr, Ix::i1(0), c, Some(1));
    (rt, arr, image)
}

fn migration_records(rt: &Runtime) -> Vec<(usize, usize)> {
    let tr = rt.tracer().expect("tracing is on");
    tr.track(tr.rts_track())
        .filter_map(|r| match r.kind {
            TraceEventKind::Migration { from_pe, to_pe, .. } => Some((from_pe, to_pe)),
            _ => None,
        })
        .collect()
}

#[test]
fn every_path_charges_a_move_its_image_plus_an_envelope() {
    for path in ["lb", "shrink", "evacuation", "migrate_me"] {
        let (mut rt, arr, image) = one_chare(path == "lb");
        match path {
            "lb" => rt.schedule_periodic_lb(SimTime::from_millis(1), 1),
            "shrink" => rt.schedule_reconfigure(SimTime::from_millis(1), 1),
            "evacuation" => {
                rt.schedule_preemption(SimTime::from_millis(2), 1, SimTime::from_millis(1))
            }
            _ => rt.send(arr, Ix::i1(0), 0),
        }
        // The host's `MigrateMe` request is charged when it is sent.
        let before = rt.summary().bytes;
        rt.run();
        assert_eq!(rt.element_pe(arr.id(), &Ix::i1(0)), Some(0), "{path}: the chare moved");
        assert_eq!(rt.summary().bytes - before, image + ENVELOPE_BYTES, "{path}: bytes");
        assert_eq!(migration_records(&rt), [(1, 0)], "{path}: one Migration record");
        match path {
            "lb" => assert_eq!(rt.lb_rounds()[0].migrations, 1),
            "evacuation" => assert_eq!(rt.metric("evacuations").len(), 1, "proactive"),
            _ => {}
        }
    }
}

/// A preempted PE inside the live boundary is a hole: `MigrateMe` onto it
/// keeps the chare where it is, and later messages still reach it.
#[test]
fn migrate_me_onto_a_preempted_pe_keeps_the_chare() {
    let mut rt = Runtime::builder(presets::cloud(8)).seed(3).build();
    let arr = rt.create_array::<Cargo>("cargo");
    rt.insert(arr, Ix::i1(0), Cargo::default(), Some(0));
    rt.insert(arr, Ix::i1(1), Cargo::default(), Some(6));
    // PE 6 is reclaimed at 1 ms, announced 500 µs ahead: evacuated.
    rt.schedule_preemption(SimTime::from_millis(1), 6, SimTime::from_micros(500));
    rt.run_until(SimTime::from_millis(2));
    assert_eq!(rt.metric("evacuations").len(), 1);
    rt.send(arr, Ix::i1(0), 6);
    rt.run_until(SimTime::from_millis(3));
    assert_eq!(rt.element_pe(arr.id(), &Ix::i1(0)), Some(0), "PE 6 is dead");
    rt.send(arr, Ix::i1(0), PING);
    rt.run();
    let pings: Vec<f64> = rt.metric("ping").iter().map(|&(_, pe)| pe).collect();
    assert_eq!(pings, [0.0], "the ping ran, on PE 0");
}
