//! Property test: under arbitrary random communication patterns (fan-outs,
//! self-sends, random priorities, random placements, migrations), the
//! runtime never loses or duplicates a message — every send is eventually
//! executed exactly once — and runs remain deterministic.
//!
//! Under debug assertions (the default test profile) every `run` also
//! checks that the runtime's envelope slab holds exactly the envelopes in
//! flight, queued and parked, so a leaked or double-freed slot fails here
//! too — migrations included.

use charm_core::{ArrayProxy, Chare, Ctx, Ix, MachineConfig, Runtime, SysEvent};
use charm_pup::{Pup, Puper};
use proptest::collection::vec;
use proptest::prelude::*;

/// A chare that relays a scripted number of messages.
#[derive(Default)]
struct Relay {
    /// Messages this chare still gets to originate (from its script).
    script: Vec<(i64, i64, u8)>, // (dst, prio, hops)
    received: u64,
    migrate_on: u8,
}

impl Pup for Relay {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.script, self.received, self.migrate_on);
    }
}

#[derive(Default)]
enum RelayMsg {
    /// Start executing the local script.
    #[default]
    Kick,
    /// A relayed message with `hops` forwards remaining.
    Hop { dst_next: i64, hops: u8 },
}

impl Pup for RelayMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            RelayMsg::Kick => 0,
            RelayMsg::Hop { .. } => 1,
        };
        p.p(&mut t);
        if p.is_unpacking() {
            *self = match t {
                0 => RelayMsg::Kick,
                _ => RelayMsg::Hop {
                    dst_next: 0,
                    hops: 0,
                },
            };
        }
        if let RelayMsg::Hop { dst_next, hops } = self {
            p.p(dst_next);
            p.p(hops);
        }
    }
}


impl Chare for Relay {
    type Msg = RelayMsg;

    fn on_message(&mut self, msg: RelayMsg, ctx: &mut Ctx<'_>) {
        let me = ArrayProxy::<Relay>::from_id(ctx.my_id().array);
        match msg {
            RelayMsg::Kick => {
                for (dst, prio, hops) in std::mem::take(&mut self.script) {
                    ctx.send_prio(
                        me,
                        Ix::i1(dst),
                        RelayMsg::Hop {
                            dst_next: (dst * 7 + 3) % 16,
                            hops,
                        },
                        prio,
                    );
                }
            }
            RelayMsg::Hop { dst_next, hops } => {
                self.received += 1;
                if self.received as u8 % 16 == self.migrate_on {
                    // Sporadic migration in the middle of the storm.
                    ctx.migrate_me((self.received as usize) % ctx.num_pes());
                }
                if hops > 0 {
                    ctx.send(
                        me,
                        Ix::i1(dst_next),
                        RelayMsg::Hop {
                            dst_next: (dst_next * 5 + 1) % 16,
                            hops: hops - 1,
                        },
                    );
                }
            }
        }
    }

    fn on_event(&mut self, _ev: SysEvent, _ctx: &mut Ctx<'_>) {}
}

fn run_storm(scripts: &[Vec<(i64, i64, u8)>], pes: usize) -> (u64, u64, u64) {
    let mut rt = Runtime::builder(MachineConfig::homogeneous(pes)).build();
    let arr = rt.create_array::<Relay>("relay");
    for (i, script) in scripts.iter().enumerate() {
        rt.insert(
            arr,
            Ix::i1(i as i64),
            Relay {
                script: script.clone(),
                received: 0,
                migrate_on: (i % 16) as u8,
            },
            Some(i % pes),
        );
    }
    for i in 0..scripts.len() {
        rt.send(arr, Ix::i1(i as i64), RelayMsg::Kick);
    }
    let summary = rt.run();
    // Expected executions: each scripted send spawns a chain of (hops + 1)
    // Hop executions.
    let expected: u64 = scripts
        .iter()
        .flatten()
        .map(|&(_, _, hops)| hops as u64 + 1)
        .sum();
    let mut received = 0u64;
    for i in 0..scripts.len() {
        received += rt
            .inspect(arr, &Ix::i1(i as i64), |r: &Relay| r.received)
            .expect("chare alive");
    }
    (expected, received, summary.events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn no_message_is_lost_or_duplicated(
        scripts in vec(
            vec((0i64..16, -5i64..5, 0u8..6), 0..12),
            16..17
        ),
        pes in 1usize..9,
    ) {
        let (expected, received, _) = run_storm(&scripts, pes);
        prop_assert_eq!(received, expected, "every hop executes exactly once");
    }

    #[test]
    fn storms_are_deterministic(
        scripts in vec(
            vec((0i64..16, -5i64..5, 0u8..5), 0..10),
            16..17
        ),
    ) {
        let a = run_storm(&scripts, 4);
        let b = run_storm(&scripts, 4);
        prop_assert_eq!(a, b);
    }
}
