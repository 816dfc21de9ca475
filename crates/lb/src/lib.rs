//! # charm-lb — load-balancing strategies (paper §III-A)
//!
//! "C HARM ++ provides a mature load balancing framework with a suite of
//! load balancing strategies comprising of various centralized, distributed
//! and hierarchical schemes." This crate is that suite:
//!
//! | strategy | kind | paper use |
//! |---|---|---|
//! | [`GreedyLb`] | centralized | general-purpose rebalance |
//! | [`RefineLb`] | centralized, incremental | low-migration touch-ups |
//! | [`HybridLb`] | hierarchical | LeanMD at scale (Fig. 9: "use of scalable hierarchical load balancer, HybridLB, improves the performance by at least 40%") |
//! | [`DistributedLb`] | fully distributed, gossip-style (paper ref 30) | AMR3D (Fig. 8: 40% at 128K PEs) |
//! | [`OrbLb`] | geometric (orthogonal recursive bisection) | Barnes-Hut (Fig. 12) |
//! | [`GreedyCommLb`] | centralized, communication-aware | comm-heavy workloads |
//! | [`RotateLb`] | test strategy | migration stress tests |
//!
//! Every strategy receives PE *speeds* along with loads, which is how the
//! temperature scheme's frequency-scaled balancing (§III-C) and the cloud
//! scenarios' heterogeneity awareness (§IV-F) fall out for free.

mod distributed;
mod greedy;
mod hybrid;
mod orb;
mod refine;
mod rotate;

pub use distributed::DistributedLb;
pub use greedy::{GreedyCommLb, GreedyLb};
pub use hybrid::HybridLb;
pub use orb::OrbLb;
pub use refine::RefineLb;
pub use rotate::RotateLb;

use charm_core::LbStats;

/// Scaled load of one object on a given PE: seconds it will take there.
#[inline]
pub(crate) fn scaled(load: f64, speed: f64) -> f64 {
    load / speed.max(1e-12)
}

/// Current per-PE scaled loads under `stats`' present placement.
pub(crate) fn current_pe_loads(stats: &LbStats) -> Vec<f64> {
    stats.pe_loads()
}

/// Verify an assignment vector is sane for the given stats (used by tests
/// and debug assertions): in-range PEs, one entry per object.
pub fn validate_assignment(stats: &LbStats, assignment: &[Option<usize>]) {
    assert_eq!(assignment.len(), stats.objs.len(), "length mismatch");
    for a in assignment.iter().flatten() {
        assert!(*a < stats.num_pes, "PE {a} out of range");
    }
}

/// Makespan (max scaled PE load, seconds) after applying `assignment`.
pub fn post_makespan(stats: &LbStats, assignment: &[Option<usize>]) -> f64 {
    let mut pe_load = vec![0.0; stats.num_pes];
    for (o, a) in stats.objs.iter().zip(assignment) {
        let pe = a.unwrap_or(o.pe);
        pe_load[pe] += scaled(o.load, stats.pe_speed[pe]);
    }
    pe_load.iter().cloned().fold(0.0, f64::max)
}

/// Makespan of the current placement.
pub fn current_makespan(stats: &LbStats) -> f64 {
    stats.pe_loads().iter().cloned().fold(0.0, f64::max)
}

/// A lower bound on any placement's makespan: total work over total speed,
/// or the single largest object on the fastest PE.
pub fn makespan_lower_bound(stats: &LbStats) -> f64 {
    let total: f64 = stats.objs.iter().map(|o| o.load).sum();
    let speed_sum: f64 = stats.pe_speed.iter().sum();
    let max_speed = stats.pe_speed.iter().cloned().fold(1e-12, f64::max);
    let max_obj = stats.objs.iter().map(|o| o.load).fold(0.0, f64::max);
    (total / speed_sum.max(1e-12)).max(max_obj / max_speed)
}

/// Max/avg imbalance after applying `assignment` to `stats`.
pub fn post_imbalance(stats: &LbStats, assignment: &[Option<usize>]) -> f64 {
    let placement: Vec<usize> = stats
        .objs
        .iter()
        .zip(assignment)
        .map(|(o, a)| a.unwrap_or(o.pe))
        .collect();
    let loads: Vec<f64> = stats.objs.iter().map(|o| o.load).collect();
    charm_core::lbframework::imbalance_of(&placement, &loads, &stats.pe_speed, stats.num_pes)
}

#[cfg(test)]
pub(crate) mod testutil {
    use charm_core::lbframework::synthetic_stats;
    use charm_core::{LbStats, Strategy};

    /// Deterministic pseudo-random loads (no rand dependency needed here).
    pub fn skewed_stats(num_pes: usize, num_objs: usize) -> LbStats {
        let loads: Vec<f64> = (0..num_objs)
            .map(|i| {
                let x = ((i * 2654435761) % 1000) as f64 / 1000.0;
                0.1 + x * x * 3.0
            })
            .collect();
        synthetic_stats(num_pes, &loads)
    }

    /// Run a strategy and check the universal post-conditions.
    pub fn check(strategy: &mut dyn Strategy, stats: &LbStats) -> (f64, f64) {
        let before = stats.imbalance();
        let assignment = strategy.assign(stats);
        super::validate_assignment(stats, &assignment);
        let after = super::post_imbalance(stats, &assignment);
        (before, after)
    }
}
