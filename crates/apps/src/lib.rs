//! # charm-apps — the paper's mini-applications (§IV)
//!
//! Each module is one of the benchmarks the evaluation section uses,
//! implemented on the charm-rs runtime with the same decomposition and the
//! same runtime-feature reliance the paper describes:
//!
//! | module | paper | decomposition | features exercised |
//! |---|---|---|---|
//! | [`leanmd`] | §IV-B, Figs 5/9/10/11/17 | 3-D `Cells` + 6-D pairwise `Computes` | over-decomposition, HybridLB, in-memory ckpt/restart, shrink/expand, heterogeneity awareness |
//! | [`amr3d`] | §IV-A, Fig 8 | oct-tree blocks with bit-vector indices | dynamic insertion, quiescence-based restructure, DistributedLB, ckpt/restart |
//! | [`barneshut`] | §IV-C, Figs 12/13 | spatial `TreePieces` | prioritized messages, OrbLB |
//! | [`pdes`] | §IV-E, Fig 15 | logical processes, YAWNS windows | over-decomposition, TRAM |
//! | [`lulesh`] | §IV-D, Fig 14 | AMPI virtual ranks over a hex mesh | virtualization, cache model, rank migration LB |
//! | [`stencil`] | §IV-F, Figs 4/16 | 2-D Jacobi blocks | overlap via over-decomposition, RTS-triggered LB, DVFS schemes |
//! | [`pingpipe`] | §III-E, Fig 6 | two endpoints, pipelined transfers | control points + introspective tuner |
//! | [`changa`] | §IV-C, Fig 13 | phase-structured N-body step | interop-grade composition of phases |

pub mod amr3d;
pub mod barneshut;
pub mod changa;
pub mod kv;
pub mod leanmd;
pub mod lulesh;
pub mod pdes;
pub mod pingpipe;
pub mod stencil;
pub mod util;

/// Result shape shared by all the iterative mini-apps.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Per-step completion times, seconds of virtual time (cumulative
    /// timestamps, one per completed step).
    pub step_times: Vec<f64>,
    /// Total virtual time of the measured region.
    pub total_s: f64,
    /// Entry methods executed.
    pub entries: u64,
    /// Messages delivered.
    pub messages: u64,
    /// Mean PE utilization over the run.
    pub avg_utilization: f64,
    /// Number of LB rounds that ran.
    pub lb_rounds: usize,
    /// Set when the run hit an unrecoverable failure (§III-B: both
    /// checkpoint copies of some chare destroyed); the surviving PEs still
    /// drained, but the result is incomplete.
    pub unrecoverable: Option<String>,
}

impl AppRun {
    /// Average time per step over the steady-state (skips the first step,
    /// which carries start-up costs).
    pub fn avg_step_s(&self) -> f64 {
        if self.step_times.len() < 2 {
            return self.total_s / self.step_times.len().max(1) as f64;
        }
        let first = self.step_times[0];
        let last = *self.step_times.last().expect("non-empty");
        (last - first) / (self.step_times.len() - 1) as f64
    }

    /// Per-step durations (differences of the cumulative timestamps).
    pub fn step_durations(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.step_times.len());
        let mut prev = 0.0;
        for &t in &self.step_times {
            out.push(t - prev);
            prev = t;
        }
        out
    }
}

pub(crate) fn collect_app_run(
    rt: &charm_core::Runtime,
    summary: &charm_core::RunSummary,
    step_metric: &str,
) -> AppRun {
    AppRun {
        step_times: rt.metric(step_metric).iter().map(|&(t, _)| t).collect(),
        total_s: summary.end_time.as_secs_f64(),
        entries: summary.entries,
        messages: summary.messages,
        avg_utilization: summary.avg_utilization,
        lb_rounds: rt.lb_rounds().len(),
        unrecoverable: rt.unrecoverable().map(|u| u.to_string()),
    }
}

/// Resolve a strategy by name — the switchboard bench binaries use.
pub fn strategy_by_name(name: &str) -> Option<Box<dyn charm_core::Strategy>> {
    Some(match name {
        "greedy" => Box::new(charm_lb::GreedyLb),
        "refine" => Box::new(charm_lb::RefineLb::default()),
        "hybrid" => Box::new(charm_lb::HybridLb::default()),
        "distributed" => Box::new(charm_lb::DistributedLb::default()),
        "orb" => Box::new(charm_lb::OrbLb),
        "greedycomm" => Box::new(charm_lb::GreedyCommLb::default()),
        "rotate" => Box::new(charm_lb::RotateLb),
        "null" | "none" => Box::new(charm_core::NullLb),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_run_statistics() {
        let r = AppRun {
            step_times: vec![1.0, 1.5, 2.0, 2.5],
            total_s: 2.5,
            entries: 0,
            messages: 0,
            avg_utilization: 0.0,
            lb_rounds: 0,
            unrecoverable: None,
        };
        assert!((r.avg_step_s() - 0.5).abs() < 1e-12);
        assert_eq!(r.step_durations(), vec![1.0, 0.5, 0.5, 0.5]);
    }

    #[test]
    fn strategies_resolve() {
        for n in [
            "greedy",
            "refine",
            "hybrid",
            "distributed",
            "orb",
            "greedycomm",
            "rotate",
            "null",
        ] {
            assert!(strategy_by_name(n).is_some(), "{n}");
        }
        assert!(strategy_by_name("bogus").is_none());
    }
}
