//! Load-balancing moves under the default test gate: the charm-kv service
//! and a small stencil, both balanced by RTS-triggered periodic LB ticks,
//! must reach the exact counters, end times and digests pinned here. The
//! pins cover the periodic tick schedule (every round's time and key feed
//! the network jitter draws), every balancer decision and the bytes each
//! move is charged. A legitimate model change re-pins them; a refactor of
//! the tick schedule or of the element move must not.

use charm_rs::apps::kv::{self, KvConfig};
use charm_rs::apps::stencil::{self, StencilConfig};
use charm_rs::apps::strategy_by_name;
use charm_rs::machine::{presets, InterferenceWindow};
use charm_rs::{Runtime, SimTime};

/// What a balanced run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    events: u64,
    end_ns: u64,
    state_digest: u64,
    lb_rounds: usize,
    migrations: usize,
    bytes: u64,
}

fn pin_of(rt: &mut Runtime) -> Pin {
    let s = rt.summary();
    let state_digest = rt
        .state_digest()
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, (_, d)| {
            (h ^ d).wrapping_mul(0x0100_0000_01b3)
        });
    Pin {
        events: s.events,
        end_ns: s.end_time.as_nanos(),
        state_digest,
        lb_rounds: rt.lb_rounds().len(),
        migrations: rt.lb_rounds().iter().map(|r| r.migrations).sum(),
        bytes: s.bytes,
    }
}

/// The charm-kv service config of `charm-replay`'s `kv_replay.rs`: 4 cloud
/// PEs, greedy balancing every 10 ms, seed 13.
#[test]
fn kv_service_lb_matches_its_pins() {
    let mut c = KvConfig::service(presets::cloud(4), 80);
    c.clients = 4;
    c.offered_load = 0.7;
    c.zipf_s = 1.1;
    c.strategy = strategy_by_name("greedy");
    c.lb_period = Some(SimTime::from_millis(10));
    c.seed = 13;
    let (run, mut rt) = kv::run_with_runtime(c);
    let got = pin_of(&mut rt);
    assert_eq!(got, Pin {
        events: 1_764,
        end_ns: 25_849_548,
        state_digest: 14_336_536_107_895_030_805,
        lb_rounds: 2,
        migrations: 41,
        bytes: 54_926,
    });
    assert_eq!(run.store_digest, 0xcf03_1bd1_3766_5043);
}

/// A 16-block stencil on 8 cloud PEs, one of them slowed from 40 ms on,
/// refined every 20 ms.
#[test]
fn stencil_periodic_lb_matches_its_pins() {
    let mut machine = presets::cloud(8);
    machine.speed = machine.speed.clone().with_interference(InterferenceWindow {
        first_pe: 0,
        num_pes: 1,
        start: SimTime::from_millis(40),
        end: SimTime::MAX,
        speed_factor: 0.4,
    });
    let mut c = StencilConfig::cloud_4k(machine, 2);
    c.steps = 30;
    c.strategy = strategy_by_name("refine");
    c.lb_period = Some(SimTime::from_millis(20));
    let (run, mut rt) = stencil::run_with_runtime(c);
    assert_eq!(run.step_times.len(), 30);
    let got = pin_of(&mut rt);
    assert_eq!(got, Pin {
        events: 5_102,
        end_ns: 483_740_352,
        state_digest: 530_485_756_114_341_960,
        lb_rounds: 24,
        migrations: 3,
        bytes: 25_284_056,
    });
}
