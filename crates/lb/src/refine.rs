//! RefineLB: incremental rebalancing with few migrations.

use crate::{current_pe_loads, scaled};
use charm_core::{LbStats, Strategy};

/// Moves objects *off overloaded PEs only*, one at a time, until every PE is
/// within `threshold` of the average — the strategy of choice when the
/// imbalance is mild and migration volume matters (Charm++ RefineLB).
#[derive(Debug, Clone, Copy)]
pub struct RefineLb {
    /// Target ceiling as a multiple of the average load (default 1.05).
    pub(crate) threshold: f64,
    /// Safety cap on moves per invocation.
    pub(crate) max_moves: usize,
}

impl Default for RefineLb {
    fn default() -> Self {
        RefineLb {
            threshold: 1.05,
            max_moves: usize::MAX,
        }
    }
}

impl Strategy for RefineLb {
    fn name(&self) -> &'static str {
        "RefineLB"
    }

    fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
        let n = stats.objs.len();
        let mut out = vec![None; n];
        if stats.num_pes < 2 || n == 0 {
            return out;
        }
        let mut pe_load = current_pe_loads(stats);
        let avg: f64 = pe_load.iter().sum::<f64>() / stats.num_pes as f64;
        let ceiling = avg * self.threshold;

        // Objects grouped by current PE, heaviest first.
        let mut by_pe: Vec<Vec<usize>> = vec![Vec::new(); stats.num_pes];
        for (i, o) in stats.objs.iter().enumerate() {
            by_pe[o.pe].push(i);
        }
        for v in &mut by_pe {
            v.sort_by(|&a, &b| {
                stats.objs[b]
                    .load
                    .total_cmp(&stats.objs[a].load)
                    .then_with(|| a.cmp(&b))
            });
        }

        let mut moves = 0usize;
        // Donors scanned from most overloaded; recipients chosen lightest.
        loop {
            if moves >= self.max_moves {
                break;
            }
            let donor = (0..stats.num_pes)
                .max_by(|&a, &b| pe_load[a].total_cmp(&pe_load[b]).then_with(|| b.cmp(&a)))
                .expect("at least one PE");
            if pe_load[donor] <= ceiling {
                break; // everyone within threshold
            }
            // Pick the largest object on the donor that fits under the
            // ceiling on the lightest recipient without overshooting it.
            let recipient = (0..stats.num_pes)
                .min_by(|&a, &b| pe_load[a].total_cmp(&pe_load[b]).then_with(|| a.cmp(&b)))
                .expect("at least one PE");
            let overshoot = pe_load[donor] - avg;
            let mut chosen: Option<usize> = None;
            for &i in &by_pe[donor] {
                if out[i].is_some() {
                    continue;
                }
                let l = scaled(stats.objs[i].load, stats.pe_speed[recipient]);
                if l <= overshoot || chosen.is_none() {
                    // Prefer the largest object not exceeding the overshoot;
                    // fall back to the largest remaining.
                    if l <= overshoot {
                        chosen = Some(i);
                        break;
                    }
                    if chosen.is_none() {
                        chosen = Some(i);
                    }
                }
            }
            let Some(i) = chosen else { break };
            let src_scaled = scaled(stats.objs[i].load, stats.pe_speed[donor]);
            let dst_scaled = scaled(stats.objs[i].load, stats.pe_speed[recipient]);
            // Give up if the move would make things worse.
            if pe_load[recipient] + dst_scaled >= pe_load[donor] {
                break;
            }
            pe_load[donor] -= src_scaled;
            pe_load[recipient] += dst_scaled;
            out[i] = Some(recipient);
            // Remove from donor's candidate list lazily (skipped via out[i]).
            moves += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check, skewed_stats};
    use charm_core::lbframework::synthetic_stats;

    #[test]
    fn refine_reduces_imbalance() {
        let stats = skewed_stats(8, 200);
        let (before, after) = check(&mut RefineLb::default(), &stats);
        assert!(after <= before + 1e-9, "never worse: {before} -> {after}");
        assert!(after < 1.25, "meaningfully balanced: {after}");
    }

    #[test]
    fn refine_moves_less_than_greedy() {
        let stats = skewed_stats(8, 200);
        let refine_moves = RefineLb::default()
            .assign(&stats)
            .iter()
            .flatten()
            .count();
        let greedy_moves = crate::GreedyLb.assign(&stats).iter().flatten().count();
        assert!(
            refine_moves < greedy_moves,
            "refine={refine_moves} greedy={greedy_moves}"
        );
    }

    #[test]
    fn refine_noop_when_balanced() {
        let stats = synthetic_stats(4, &[1.0; 16]); // perfectly balanced round robin
        let a = RefineLb::default().assign(&stats);
        assert_eq!(a.iter().flatten().count(), 0);
    }

    #[test]
    fn refine_respects_move_cap() {
        let stats = skewed_stats(8, 200);
        let a = RefineLb {
            threshold: 1.0,
            max_moves: 3,
        }
        .assign(&stats);
        assert!(a.iter().flatten().count() <= 3);
    }

    #[test]
    fn refine_handles_single_pe() {
        let stats = skewed_stats(1, 10);
        let a = RefineLb::default().assign(&stats);
        assert!(a.iter().all(|x| x.is_none()));
    }
}
