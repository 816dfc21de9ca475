//! GreedyLB and its communication-aware variant.

use crate::scaled;
use charm_core::{LbStats, ObjId, Strategy};
use std::collections::{BinaryHeap, HashMap};

/// Centralized greedy balancer: objects descending by load, each placed on
/// the PE that will finish soonest (classic LPT / Charm++ GreedyLB).
///
/// Ignores current placement entirely, so it produces near-perfect balance
/// at the price of many migrations.
#[derive(Debug, Default, Clone, Copy)]
pub struct GreedyLb;

#[derive(PartialEq)]
struct PeEntry {
    load: f64,
    pe: usize,
}
impl Eq for PeEntry {}
impl PartialOrd for PeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (load, pe); total order despite f64 via total_cmp.
        other
            .load
            .total_cmp(&self.load)
            .then_with(|| other.pe.cmp(&self.pe))
    }
}

impl Strategy for GreedyLb {
    fn name(&self) -> &'static str {
        "GreedyLB"
    }

    fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
        // Objects by descending load; index order breaks ties for determinism.
        let mut order: Vec<usize> = (0..stats.objs.len()).collect();
        order.sort_by(|&a, &b| {
            stats.objs[b]
                .load
                .total_cmp(&stats.objs[a].load)
                .then_with(|| a.cmp(&b))
        });
        let mut out = vec![None; stats.objs.len()];

        let uniform_speed = stats
            .pe_speed
            .windows(2)
            .all(|w| (w[0] - w[1]).abs() < 1e-12);

        if uniform_speed {
            // Homogeneous: min-heap on accumulated load, O(n log P).
            let mut heap: BinaryHeap<PeEntry> =
                (0..stats.num_pes).map(|pe| PeEntry { load: 0.0, pe }).collect();
            for i in order {
                let mut top = heap.pop().expect("num_pes >= 1");
                let obj = &stats.objs[i];
                top.load += scaled(obj.load, stats.pe_speed[top.pe]);
                if top.pe != obj.pe {
                    out[i] = Some(top.pe);
                }
                heap.push(top);
            }
        } else {
            // Heterogeneous: the PE finishing soonest depends on its speed,
            // so minimize load-after-placement exactly (O(n·P); the paper's
            // heterogeneous scenarios are all small machines).
            let mut pe_load = vec![0.0; stats.num_pes];
            for i in order {
                let obj = &stats.objs[i];
                let best = (0..stats.num_pes)
                    .min_by(|&a, &b| {
                        let la = pe_load[a] + scaled(obj.load, stats.pe_speed[a]);
                        let lb = pe_load[b] + scaled(obj.load, stats.pe_speed[b]);
                        la.total_cmp(&lb).then_with(|| a.cmp(&b))
                    })
                    .expect("num_pes >= 1");
                pe_load[best] += scaled(obj.load, stats.pe_speed[best]);
                if best != obj.pe {
                    out[i] = Some(best);
                }
            }
        }
        out
    }
}

/// Greedy balancing with a communication bonus: placing an object on a PE
/// that already hosts its heaviest communication partners discounts its
/// perceived cost, trading some compute balance for locality.
#[derive(Debug, Clone, Copy)]
pub struct GreedyCommLb {
    /// Seconds of load discounted per byte of co-located communication.
    pub(crate) affinity_per_byte: f64,
}

impl Default for GreedyCommLb {
    fn default() -> Self {
        GreedyCommLb {
            // Roughly a gigabit of comm ≈ one second of saved effective load.
            affinity_per_byte: 1.0 / 125e6,
        }
    }
}

impl Strategy for GreedyCommLb {
    fn name(&self) -> &'static str {
        "GreedyCommLB"
    }

    fn wants_comm(&self) -> bool {
        true
    }

    fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
        // Build the per-object neighbor lists once.
        let index_of: HashMap<ObjId, usize> = stats
            .objs
            .iter()
            .enumerate()
            .map(|(i, o)| (o.id, i))
            .collect();
        let mut neighbors: Vec<Vec<(usize, u64)>> = vec![Vec::new(); stats.objs.len()];
        for (a, b, bytes) in &stats.comm {
            if let (Some(&ia), Some(&ib)) = (index_of.get(a), index_of.get(b)) {
                neighbors[ia].push((ib, *bytes));
                neighbors[ib].push((ia, *bytes));
            }
        }

        let mut pe_load = vec![0.0; stats.num_pes];
        let mut placement: Vec<Option<usize>> = vec![None; stats.objs.len()];

        let mut order: Vec<usize> = (0..stats.objs.len()).collect();
        order.sort_by(|&a, &b| {
            stats.objs[b]
                .load
                .total_cmp(&stats.objs[a].load)
                .then_with(|| a.cmp(&b))
        });

        let mut out = vec![None; stats.objs.len()];
        for i in order {
            let obj = &stats.objs[i];
            // Affinity credit per PE from already-placed neighbors.
            let mut credit: HashMap<usize, f64> = HashMap::new();
            for &(nb, bytes) in &neighbors[i] {
                if let Some(pe) = placement[nb] {
                    *credit.entry(pe).or_default() += bytes as f64 * self.affinity_per_byte;
                }
            }
            let mut best_pe = 0usize;
            let mut best_cost = f64::INFINITY;
            for (pe, load) in pe_load.iter().enumerate() {
                let cost = load + scaled(obj.load, stats.pe_speed[pe])
                    - credit.get(&pe).copied().unwrap_or(0.0);
                if cost < best_cost {
                    best_cost = cost;
                    best_pe = pe;
                }
            }
            pe_load[best_pe] += scaled(obj.load, stats.pe_speed[best_pe]);
            placement[i] = Some(best_pe);
            if best_pe != obj.pe {
                out[i] = Some(best_pe);
            }
        }
        out
    }

    fn decision_cost(&self, num_objs: usize, num_pes: usize) -> f64 {
        // O(n·P) scan per object.
        20.0 * num_objs as f64 * num_pes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check, skewed_stats};
    use charm_core::lbframework::synthetic_stats;

    #[test]
    fn greedy_balances_skewed_load() {
        let stats = skewed_stats(8, 256);
        let (before, after) = check(&mut GreedyLb, &stats);
        assert!(before > 1.05, "fixture must start imbalanced: {before}");
        assert!(after < 1.05, "greedy should nearly equalize: {after}");
    }

    #[test]
    fn greedy_respects_pe_speeds() {
        let mut stats = synthetic_stats(2, &[1.0; 10]);
        stats.pe_speed = vec![1.0, 3.0];
        let mut lb = GreedyLb;
        let a = lb.assign(&stats);
        let placement: Vec<usize> = stats
            .objs
            .iter()
            .zip(&a)
            .map(|(o, x)| x.unwrap_or(o.pe))
            .collect();
        let fast = placement.iter().filter(|&&p| p == 1).count();
        let slow = placement.len() - fast;
        assert!(
            fast > 2 * slow,
            "fast PE should take ~3x the objects: fast={fast} slow={slow}"
        );
    }

    #[test]
    fn greedy_on_single_pe_is_noop() {
        let stats = skewed_stats(1, 16);
        let a = GreedyLb.assign(&stats);
        assert!(a.iter().all(|x| x.is_none()));
    }

    #[test]
    fn greedy_deterministic() {
        let stats = skewed_stats(16, 500);
        assert_eq!(GreedyLb.assign(&stats), GreedyLb.assign(&stats));
    }

    #[test]
    fn comm_aware_colocates_heavy_pairs() {
        // Two chatty objects and two loners, two PEs; everything equal load.
        let mut stats = synthetic_stats(2, &[1.0, 1.0, 1.0, 1.0]);
        stats.comm = vec![(stats.objs[0].id, stats.objs[2].id, 1_000_000_000)];
        let mut lb = GreedyCommLb::default();
        let a = lb.assign(&stats);
        let placement: Vec<usize> = stats
            .objs
            .iter()
            .zip(&a)
            .map(|(o, x)| x.unwrap_or(o.pe))
            .collect();
        assert_eq!(
            placement[0], placement[2],
            "heavily communicating pair should share a PE: {placement:?}"
        );
    }

    #[test]
    fn comm_aware_still_balances_without_comm() {
        let stats = skewed_stats(8, 128);
        let (before, after) = check(&mut GreedyCommLb::default(), &stats);
        assert!(after < before);
        assert!(after < 1.1);
    }
}
