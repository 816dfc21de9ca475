//! The measurement-based load-balancing framework (§III-A).
//!
//! The runtime instruments every chare's execution time automatically (the
//! "recent past predicts the near future" principle). At an AtSync point the
//! framework snapshots those measurements into [`LbStats`], hands them to a
//! pluggable [`Strategy`], and enacts the returned migrations. Strategies
//! themselves live in the `charm-lb` crate.

use crate::array::{ArrayId, ObjId};
use crate::index::Ix;

/// Load statistics for one migratable object.
#[derive(Debug, Clone)]
pub struct ObjStat {
    /// The object's identity.
    pub id: ObjId,
    /// PE the object currently lives on.
    pub pe: usize,
    /// Measured work (seconds of reference-speed compute) since the last
    /// collection; falls back to the chare's `load_hint` scaled into the
    /// average when nothing was measured yet.
    pub load: f64,
    /// Bytes sent by this object since the last collection (0 unless the
    /// installed strategy [`wants_comm`](Strategy::wants_comm)).
    pub bytes_sent: u64,
}

/// Aggregate statistics handed to a [`Strategy`].
#[derive(Debug, Clone)]
pub struct LbStats {
    /// Number of PEs available for placement.
    pub num_pes: usize,
    /// Effective speed of each PE (static heterogeneity × DVFS frequency ×
    /// current interference). The paper's thermal scheme scales loads by
    /// frequency exactly this way (§III-C).
    pub pe_speed: Vec<f64>,
    /// Per-object measurements, in a deterministic order.
    pub objs: Vec<ObjStat>,
    /// Object-to-object communication volumes (bytes); recorded only when
    /// the installed strategy [`wants_comm`](Strategy::wants_comm).
    pub comm: Vec<(ObjId, ObjId, u64)>,
}

impl LbStats {
    /// Current load per PE implied by the object placement (obj loads ÷ PE
    /// speed).
    pub fn pe_loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0; self.num_pes];
        for o in &self.objs {
            if o.pe < self.num_pes {
                loads[o.pe] += o.load / self.pe_speed[o.pe].max(1e-12);
            }
        }
        loads
    }

    /// Max/avg PE load ratio — 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        let loads = self.pe_loads();
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let avg = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
        if avg <= 0.0 {
            1.0
        } else {
            max / avg
        }
    }
}

/// A load-balancing strategy: given stats, produce a new PE for each object
/// (`None` = stay put). Implementations must not return PEs ≥
/// `stats.num_pes`.
pub trait Strategy: Send {
    /// Human-readable name for logs and reports.
    fn name(&self) -> &'static str;

    /// Compute the new assignment. `out[i]` corresponds to `stats.objs[i]`.
    fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>>;

    /// Does this strategy read [`LbStats::comm`]? The runtime records
    /// object-to-object traffic on every send only when the installed
    /// strategy says yes; otherwise `comm` is empty and `bytes_sent` is 0.
    fn wants_comm(&self) -> bool {
        false
    }

    /// Is this a fully distributed strategy (affects the modeled cost of
    /// stats collection: centralized strategies pay a gather/scatter,
    /// distributed ones pay gossip rounds)?
    fn is_distributed(&self) -> bool {
        false
    }

    /// Estimated decision cost in work-units, charged to the virtual clock.
    fn decision_cost(&self, num_objs: usize, num_pes: usize) -> f64 {
        // n log n comparisons at ~10 flops each, by default.
        let n = num_objs.max(2) as f64;
        let _ = num_pes;
        10.0 * n * n.log2()
    }
}

/// A strategy that never moves anything — the "NoLB" baseline in the
/// paper's figures.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullLb;

impl Strategy for NullLb {
    fn name(&self) -> &'static str {
        "NullLB"
    }
    fn assign(&mut self, stats: &LbStats) -> Vec<Option<usize>> {
        vec![None; stats.objs.len()]
    }
    fn decision_cost(&self, _num_objs: usize, _num_pes: usize) -> f64 {
        0.0
    }
}

/// The result of enacting one LB round (reported in the journal).
#[derive(Debug, Clone)]
pub struct LbRound {
    /// Strategy that ran.
    pub strategy: &'static str,
    /// Number of objects that migrated.
    pub migrations: usize,
    /// Imbalance (max/avg) measured before the round.
    pub imbalance_before: f64,
    /// Imbalance (max/avg) of the assignment the round enacted.
    pub imbalance_after: f64,
    /// Virtual seconds the round consumed (the "spike" in Figs. 5/16).
    pub cost_s: f64,
}

/// How LB stats collection is triggered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LbTrigger {
    /// Only when every AtSync element calls `at_sync` (application driven).
    AtSync,
    /// MetaLB (§III-A, paper ref 48): at AtSync points, balance only when the
    /// predicted benefit of rebalancing exceeds its cost.
    Adaptive {
        /// Minimum imbalance (max/avg) before balancing is considered.
        min_imbalance: f64,
    },
}

/// Helper shared by tests and strategies: greatest PE load divided by
/// average under a hypothetical assignment.
pub fn imbalance_of(assignment: &[usize], loads: &[f64], speeds: &[f64], num_pes: usize) -> f64 {
    let mut pe_load = vec![0.0; num_pes];
    for (&pe, &l) in assignment.iter().zip(loads) {
        pe_load[pe] += l / speeds[pe].max(1e-12);
    }
    let max = pe_load.iter().cloned().fold(0.0, f64::max);
    let avg = pe_load.iter().sum::<f64>() / num_pes.max(1) as f64;
    if avg <= 0.0 {
        1.0
    } else {
        max / avg
    }
}

/// Build a deterministic `LbStats` fixture (used by unit tests here and in
/// `charm-lb`).
pub fn synthetic_stats(num_pes: usize, loads: &[f64]) -> LbStats {
    let objs = loads
        .iter()
        .enumerate()
        .map(|(i, &load)| ObjStat {
            id: ObjId {
                array: ArrayId(0),
                ix: Ix::i1(i as i64),
            },
            pe: i % num_pes,
            load,
            bytes_sent: 0,
        })
        .collect();
    LbStats {
        num_pes,
        pe_speed: vec![1.0; num_pes],
        objs,
        comm: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pe_loads_and_imbalance() {
        let stats = synthetic_stats(2, &[1.0, 1.0, 2.0, 0.0]);
        // pe0: objs 0,2 → 3.0 ; pe1: objs 1,3 → 1.0
        let loads = stats.pe_loads();
        assert_eq!(loads, vec![3.0, 1.0]);
        assert!((stats.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn speeds_scale_loads() {
        let mut stats = synthetic_stats(2, &[1.0, 1.0]);
        stats.pe_speed = vec![0.5, 1.0];
        let loads = stats.pe_loads();
        assert_eq!(loads, vec![2.0, 1.0]); // slow PE takes twice as long
    }

    #[test]
    fn null_lb_moves_nothing() {
        let stats = synthetic_stats(4, &[1.0; 8]);
        let mut lb = NullLb;
        let out = lb.assign(&stats);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|o| o.is_none()));
        assert_eq!(lb.decision_cost(8, 4), 0.0);
    }

    #[test]
    fn imbalance_of_helper() {
        let v = imbalance_of(&[0, 0, 1, 1], &[1.0, 1.0, 1.0, 1.0], &[1.0, 1.0], 2);
        assert!((v - 1.0).abs() < 1e-12);
        let v = imbalance_of(&[0, 0, 0, 1], &[1.0, 1.0, 1.0, 1.0], &[1.0, 1.0], 2);
        assert!((v - 1.5).abs() < 1e-12);
    }
}
