//! Property-based invariants over all load-balancing strategies.

use charm_core::lbframework::{LbStats, ObjStat};
use charm_core::{ArrayId, Ix, ObjId, Strategy as LbStrategy};
use charm_lb::{
    validate_assignment, DistributedLb, GreedyCommLb, GreedyLb, HybridLb, OrbLb,
    RefineLb, RotateLb,
};
use proptest::collection::vec;
use proptest::prelude::*;

fn stats_strategy() -> impl proptest::strategy::Strategy<Value = LbStats> {
    (2usize..24, vec(0.01f64..5.0, 1..300), vec(0.25f64..2.0, 24)).prop_map(
        |(num_pes, loads, speeds)| {
            let objs = loads
                .iter()
                .enumerate()
                .map(|(i, &load)| ObjStat {
                    id: ObjId {
                        array: ArrayId(0),
                        ix: Ix::i1(i as i64),
                    },
                    pe: (i * 7 + 3) % num_pes,
                    load,
                    bytes_sent: 0,
                })
                .collect();
            LbStats {
                num_pes,
                pe_speed: speeds[..num_pes].to_vec(),
                objs,
                comm: Vec::new(),
            }
        },
    )
}

fn all_strategies() -> Vec<Box<dyn LbStrategy>> {
    vec![
        Box::new(GreedyLb),
        Box::new(GreedyCommLb::default()),
        Box::new(RefineLb::default()),
        Box::new(HybridLb::default()),
        Box::new(DistributedLb::default()),
        Box::new(OrbLb),
        Box::new(RotateLb),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No strategy may lose objects, duplicate them, or assign out of range.
    #[test]
    fn assignments_always_valid(stats in stats_strategy()) {
        for mut s in all_strategies() {
            let a = s.assign(&stats);
            validate_assignment(&stats, &a);
        }
    }

    /// Strategies are pure over their input: same stats, same answer.
    #[test]
    fn assignments_deterministic(stats in stats_strategy()) {
        for mut s in all_strategies() {
            let a = s.assign(&stats);
            let b = s.assign(&stats);
            prop_assert_eq!(a, b, "strategy {} not deterministic", s.name());
        }
    }

    /// The balancing strategies never leave the makespan (time of the
    /// slowest PE — what actually gates an iteration) meaningfully worse
    /// than BOTH the original placement and a constant factor of optimal.
    #[test]
    fn balancers_never_hurt_makespan(stats in stats_strategy()) {
        let before = charm_lb::current_makespan(&stats);
        let lower = charm_lb::makespan_lower_bound(&stats);
        for (factor, additive, mut s) in [
            (2.5, false, Box::new(GreedyLb) as Box<dyn LbStrategy>),
            (1.05, false, Box::new(RefineLb::default())),
            (6.0, true, Box::new(HybridLb::default())),
            (6.0, true, Box::new(DistributedLb::default())),
        ] {
            let a = s.assign(&stats);
            let after = charm_lb::post_makespan(&stats, &a);
            // The heuristic strategies (hierarchical/gossip) trade balance
            // quality for scalability; they get an additive allowance.
            let bound = if additive {
                before * 1.05 + lower * factor + 1e-9
            } else {
                (before * 1.05).max(lower * factor) + 1e-9
            };
            prop_assert!(
                after <= bound,
                "{}: before={} after={} lower={}",
                s.name(), before, after, lower
            );
        }
    }

    /// Greedy lands within 2.5× of the makespan lower bound outright.
    #[test]
    fn greedy_quality_bound(stats in stats_strategy()) {
        let mut g = GreedyLb;
        let a = g.assign(&stats);
        let after = charm_lb::post_makespan(&stats, &a);
        let lower = charm_lb::makespan_lower_bound(&stats);
        prop_assert!(after <= lower * 2.5 + 1e-9, "after={after} lower={lower}");
    }
}
