//! What-if machine re-simulation (BigSim-lite, paper §V-B): replay a
//! recorded run's computation/communication DAG on a *different*
//! [`MachineConfig`] and predict makespan + per-PE utilization.

use crate::{ReplayLog, SendRec};
use charm_machine::{simulate_dag, DagEdge, DagNode, MachineConfig, SimTime};
use std::collections::HashMap;

/// Prediction from replaying a log on another machine.
#[derive(Debug, Clone)]
pub struct WhatIfReport {
    /// Preset name of the what-if machine.
    pub machine: String,
    /// PE count of the what-if machine.
    pub(crate) num_pes: usize,
    /// Predicted end-to-end time on the what-if machine (seconds).
    pub predicted_makespan_s: f64,
    /// Actual end-to-end time of the recording run (seconds).
    pub recorded_makespan_s: f64,
    /// Predicted mean PE utilization on the what-if machine.
    pub utilization: f64,
    /// DAG nodes replayed (= entries recorded).
    pub nodes: usize,
}

impl WhatIfReport {
    /// Relative difference of a prediction against a reference makespan
    /// (e.g. an actual run on the what-if machine): `|pred - actual| / actual`.
    pub fn error_vs(&self, actual_makespan_s: f64) -> f64 {
        (self.predicted_makespan_s - actual_makespan_s).abs() / actual_makespan_s.max(1e-12)
    }
}

impl std::fmt::Display for WhatIfReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "what-if on {} ({} PEs): predicted makespan {:.6} s (recorded {:.6} s), predicted utilization {:.1}%",
            self.machine,
            self.num_pes,
            self.predicted_makespan_s,
            self.recorded_makespan_s,
            self.utilization * 100.0
        )
    }
}

/// Levels of a balanced `arity`-way spanning tree over `p` nodes — the same
/// shape the runtime charges for broadcasts and reductions.
fn tree_levels(p: usize, arity: u64) -> u32 {
    let arity = arity.max(2) as usize;
    let mut levels = 0u32;
    let mut reach = 1usize;
    while reach < p {
        reach = reach.saturating_mul(arity);
        levels += 1;
    }
    levels
}

/// Replay `log`'s DAG on `machine`. PEs are mapped proportionally
/// (`pe × P_new / P_old`) so placement structure survives a PE-count change;
/// collective tree depths are re-derived for the what-if PE count.
pub fn whatif(log: &ReplayLog, machine: &MachineConfig) -> WhatIfReport {
    let p_old = (log.num_pes as usize).max(1);
    let p_new = machine.num_pes.max(1);
    let map_pe = |pe: u32| -> usize { ((pe as usize) * p_new / p_old).min(p_new - 1) };

    // msg_id → (producing node, how it was sent), and one DAG node per
    // exec, in one pass over the log.
    let mut producers: HashMap<u64, (Option<usize>, SendRec)> =
        HashMap::with_capacity(log.roots.len() + log.execs.len());
    for s in &log.roots {
        producers.insert(s.msg_id, (None, *s));
    }
    let mut nodes = Vec::with_capacity(log.execs.len());
    for (i, (e, sends)) in log.execs.iter().enumerate() {
        producers.extend(sends.map(|s| (s.msg_id, (Some(i), s))));
        nodes.push(DagNode {
            pe: map_pe(e.pe),
            work: e.work,
            n_remote: e.n_remote,
            n_local: e.n_local,
        });
    }

    // Collective depths were recorded for the old machine's tree; rescale
    // multiples of the old base depth (QD records 2× depth) to the new one.
    let base_old = tree_levels(p_old, log.collective_arity).max(1);
    let base_new = tree_levels(p_new, log.collective_arity);
    let rescale_depth = |d: u32| -> u32 {
        if d == 0 {
            0
        } else {
            (((d as u64) * (base_new as u64) + (base_old as u64) / 2) / base_old as u64).max(1)
                as u32
        }
    };

    let edges: Vec<DagEdge> = log
        .execs
        .iter()
        .enumerate()
        .map(|(i, (e, _))| match producers.get(&e.msg_id) {
            Some(&(src, s)) => DagEdge {
                src,
                dst: i,
                bytes: s.bytes as usize,
                tree_depth: rescale_depth(s.tree_depth),
                rtt_bytes: s.rtt_bytes as usize,
                // The runtime prices delays with the message's rec_id;
                // reusing it replays the same seeded jitter stream.
                token: s.msg_id,
            },
            // Defensive: a consumed message we never saw routed becomes an
            // externally injected point-to-point edge of its recorded size.
            None => DagEdge {
                src: None,
                dst: i,
                bytes: e.msg_bytes as usize,
                tree_depth: 0,
                rtt_bytes: 0,
                token: e.msg_id,
            },
        })
        .collect();

    let r = simulate_dag(
        machine,
        SimTime(log.sched_overhead_ns),
        &nodes,
        &edges,
        log.seed,
    );

    WhatIfReport {
        machine: machine.name.clone(),
        num_pes: p_new,
        predicted_makespan_s: r.makespan.as_secs_f64(),
        recorded_makespan_s: SimTime(log.end_ns).as_secs_f64(),
        utilization: r.utilization,
        nodes: r.executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_levels_match_runtime_shape() {
        assert_eq!(tree_levels(1, 2), 0);
        assert_eq!(tree_levels(2, 2), 1);
        assert_eq!(tree_levels(8, 2), 3);
        assert_eq!(tree_levels(9, 2), 4);
        assert_eq!(tree_levels(64, 4), 3);
    }
}
