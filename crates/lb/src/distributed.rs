//! DistributedLB: gossip-style probabilistic transfer (paper ref. [30],
//! Menon & Kalé, "A distributed dynamic load balancer for iterative
//! applications", SC13 — the GrapevineLB family).

use charm_core::{LbStats, Strategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fully distributed balancer: each overloaded PE independently offloads
/// objects to randomly probed underloaded PEs, repeated for a few rounds.
/// No PE ever sees global state larger than O(probes) — which is what lets
/// AMR3D balance 128K PEs (Fig. 8) where centralized collection would choke.
///
/// The simulation *executes* the strategy centrally but restricts each
/// decision to the information a gossiping PE would hold: its own load, the
/// global average (propagated by gossip in the real protocol), and a random
/// sample of target PEs.
#[derive(Debug, Clone)]
pub struct DistributedLb {
    /// Random probes an overloaded PE sends per round.
    pub(crate) probes: usize,
    /// Transfer rounds.
    pub(crate) rounds: usize,
    /// PEs above `trigger` × average participate as donors.
    pub(crate) trigger: f64,
    /// Deterministic seed.
    pub(crate) seed: u64,
}

impl Default for DistributedLb {
    fn default() -> Self {
        DistributedLb {
            probes: 8,
            rounds: 4,
            trigger: 1.05,
            seed: 0x9e3779b9,
        }
    }
}

impl Strategy for DistributedLb {
    fn name(&self) -> &'static str {
        "DistributedLB"
    }

    fn is_distributed(&self) -> bool {
        true
    }

    fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
        let n = stats.objs.len();
        let mut out = vec![None; n];
        if stats.num_pes < 2 || n == 0 {
            return out;
        }
        let mut rng = StdRng::seed_from_u64(self.seed);

        let mut pe_load = stats.pe_loads();
        let avg: f64 = pe_load.iter().sum::<f64>() / stats.num_pes as f64;
        if avg <= 0.0 {
            return out;
        }

        // Objects currently on each PE (indices), heaviest first.
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

        for _round in 0..self.rounds {
            for donor in 0..stats.num_pes {
                while pe_load[donor] > avg * self.trigger {
                    // Probe a random sample; pick the least loaded target.
                    let mut best: Option<usize> = None;
                    for _ in 0..self.probes {
                        let t = rng.gen_range(0..stats.num_pes);
                        if t == donor {
                            continue;
                        }
                        if best.map(|b| pe_load[t] < pe_load[b]).unwrap_or(true) {
                            best = Some(t);
                        }
                    }
                    let Some(target) = best else { break };
                    if pe_load[target] >= avg {
                        break; // probes found nobody underloaded
                    }
                    // Offload the biggest object that doesn't overshoot.
                    let room = avg - pe_load[target];
                    let pick = by_pe[donor]
                        .iter()
                        .position(|&i| stats.objs[i].load <= room.max(0.0) * 1.25)
                        .or_else(|| {
                            if by_pe[donor].is_empty() {
                                None
                            } else {
                                Some(by_pe[donor].len() - 1)
                            }
                        });
                    let Some(pos) = pick else { break };
                    let i = by_pe[donor].remove(pos);
                    let l = stats.objs[i].load;
                    pe_load[donor] -= l / stats.pe_speed[donor].max(1e-12);
                    pe_load[target] += l / stats.pe_speed[target].max(1e-12);
                    by_pe[target].push(i);
                    out[i] = if target == stats.objs[i].pe {
                        None
                    } else {
                        Some(target)
                    };
                }
            }
        }
        out
    }

    fn decision_cost(&self, _num_objs: usize, num_pes: usize) -> f64 {
        // O(probes × rounds) small messages per PE — constant work per PE.
        50.0 * (self.probes * self.rounds) as f64 * (num_pes as f64).log2().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{check, skewed_stats};
    use charm_core::lbframework::synthetic_stats;

    #[test]
    fn distributed_reduces_imbalance() {
        let stats = skewed_stats(32, 1024);
        let (before, after) = check(&mut DistributedLb::default(), &stats);
        assert!(before > 1.05);
        assert!(after < before, "must improve: {before} -> {after}");
        assert!(after < 1.3, "should get close to balanced: {after}");
    }

    #[test]
    fn distributed_is_deterministic_per_seed() {
        let stats = skewed_stats(16, 256);
        let a = DistributedLb::default().assign(&stats);
        let b = DistributedLb::default().assign(&stats);
        assert_eq!(a, b);
        let c = DistributedLb {
            seed: 1234,
            ..Default::default()
        }
        .assign(&stats);
        // Different seeds are allowed to differ (not asserted equal).
        let _ = c;
    }

    #[test]
    fn distributed_flag_set() {
        assert!(DistributedLb::default().is_distributed());
        assert!(!crate::GreedyLb.is_distributed());
    }

    #[test]
    fn balanced_input_untouched() {
        let stats = synthetic_stats(4, &[1.0; 16]);
        let moves = DistributedLb::default()
            .assign(&stats)
            .iter()
            .flatten()
            .count();
        assert_eq!(moves, 0);
    }

    #[test]
    fn hotspot_is_dissolved() {
        // All load on PE 0.
        let mut stats = synthetic_stats(8, &[1.0; 64]);
        for o in &mut stats.objs {
            o.pe = 0;
        }
        let (before, after) = check(&mut DistributedLb::default(), &stats);
        assert!(before > 7.9);
        assert!(after < 2.0, "hotspot dissolved: {after}");
    }
}
