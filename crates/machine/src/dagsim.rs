//! DAG re-simulation — the machine half of the `charm-replay` what-if mode
//! (BigSim-lite, paper §V-B).
//!
//! A recorded run is reduced to a dependency DAG: one node per executed
//! entry method (its declared FLOP count and send-side overhead counts),
//! one edge per consumed message (its wire size and how it was delivered —
//! point-to-point, collective tree, with or without a location-query round
//! trip). [`simulate_dag`] replays that DAG on an arbitrary
//! [`MachineConfig`], re-pricing computation at the new machine's FLOP rate
//! and per-PE speeds and communication through a fresh [`NetworkModel`] —
//! predicting makespan and per-PE utilization without re-running any
//! application logic.
//!
//! The cost model deliberately mirrors the runtime scheduler:
//!
//! * node duration = `work / (flops_per_sec × static_speed(pe))`
//!   + scheduling overhead + `n_remote` × injection overhead
//!   + `n_local` × local-delivery cost;
//! * point-to-point edge delay = `net.delay(src_pe, dst_pe, bytes)`, plus a
//!   2× envelope-sized round trip when the original send paid a location
//!   query;
//! * collective edge delay = `net.delay(0, 1, bytes)` × `tree_depth`
//!   (idealized balanced spanning tree, like broadcasts/reductions);
//! * each PE executes its arrivals FIFO (ties broken by submission order),
//!   exactly one node at a time.
//!
//! What it cannot see (frozen from the recording): which contributor
//! completes a reduction last, adaptive decisions the RTS would have made
//! differently (LB, DVFS), and interference/thermal transients — the
//! standard trace-driven-simulation caveats.

use crate::events::EventQueue;
use crate::network::NetworkModel;
use crate::{MachineConfig, SimTime};

/// One executed entry method of the recorded DAG.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// PE the node runs on (already mapped to the what-if machine).
    pub pe: usize,
    /// Declared work in FLOP.
    pub work: f64,
    /// Sends charged at remote-injection cost.
    pub n_remote: u32,
    /// Sends charged at local-delivery cost.
    pub n_local: u32,
}

/// The message that triggers a node (each node has exactly one in-edge).
#[derive(Debug, Clone)]
pub struct DagEdge {
    /// Producing node, or `None` for externally injected messages (those
    /// are available at time zero plus their network delay).
    pub src: Option<usize>,
    /// Consuming node.
    pub dst: usize,
    /// Wire size including the envelope.
    pub bytes: usize,
    /// Spanning-tree depth for collective deliveries (0 = point-to-point).
    pub tree_depth: u32,
    /// Control-message size of a preceding location-query round trip
    /// (0 = none); charged as two extra small-message delays.
    pub rtt_bytes: usize,
    /// Jitter token the delay is priced with. The runtime prices every
    /// message with its `rec_id`, so passing the recorded message id here
    /// makes the what-if replay draw the *same* seeded jitter samples an
    /// actual run on the target machine would.
    pub token: u64,
}

/// Outcome of a what-if DAG replay.
#[derive(Debug, Clone)]
pub struct DagSimResult {
    /// Predicted end-to-end virtual time.
    pub makespan: SimTime,
    /// Mean busy/makespan over the machine's PEs.
    pub utilization: f64,
    /// Nodes actually executed (always the full DAG — exposed for sanity
    /// checks).
    pub executed: usize,
}

/// Replay `nodes`/`edges` on `machine`. `sched_overhead` is the per-entry
/// scheduling cost (use the recording run's value); `seed` seeds the
/// network jitter RNG.
pub fn simulate_dag(
    machine: &MachineConfig,
    sched_overhead: SimTime,
    nodes: &[DagNode],
    edges: &[DagEdge],
    seed: u64,
) -> DagSimResult {
    let p = machine.num_pes;
    let mut net = NetworkModel::new(machine.network.clone(), seed);

    // Exactly one in-edge per node; out-edges adjacency from src.
    let mut in_edge: Vec<Option<usize>> = vec![None; nodes.len()];
    let mut out_edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut root_edges: Vec<usize> = Vec::new();
    for (ei, e) in edges.iter().enumerate() {
        assert!(e.dst < nodes.len(), "edge to unknown node {}", e.dst);
        assert!(
            in_edge[e.dst].replace(ei).is_none(),
            "node {} has more than one trigger edge",
            e.dst
        );
        match e.src {
            Some(s) => {
                assert!(s < nodes.len(), "edge from unknown node {s}");
                out_edges[s].push(ei);
            }
            None => root_edges.push(ei),
        }
    }

    // Event-driven replay: Arrival(node) enqueues on its PE; PeFree pops
    // the next queued node FIFO. The event queue's internal insertion
    // sequence keeps the (time, seq) order total, exactly as the explicit
    // counter alongside the old binary heap did.
    enum Ev {
        Free { pe: usize },
        Arrive { node: usize },
    }
    let mut events: EventQueue<Ev> = EventQueue::new();
    let mut queues: Vec<std::collections::VecDeque<usize>> = vec![Default::default(); p];
    let mut pe_busy_until: Vec<u64> = vec![0; p];
    let mut pe_idle: Vec<bool> = vec![true; p];
    let mut pe_busy: Vec<u64> = vec![0; p];
    let mut executed = 0usize;
    let mut makespan = 0u64;

    fn edge_delay(
        net: &mut NetworkModel,
        p: usize,
        e: &DagEdge,
        src_pe: usize,
        dst_pe: usize,
    ) -> SimTime {
        let token = e.token;
        let mut d = if e.tree_depth > 0 {
            let level = net.delay(0, 1.min(p.saturating_sub(1)), e.bytes, token);
            SimTime(level.0 * e.tree_depth as u64)
        } else {
            net.delay(src_pe, dst_pe, e.bytes, token)
        };
        if e.rtt_bytes > 0 {
            // Home-PE location query: request + response, envelope-sized.
            d = d
                + net.delay(src_pe, dst_pe, e.rtt_bytes, token ^ (1 << 62))
                + net.delay(dst_pe, src_pe, e.rtt_bytes, token ^ (2 << 62));
        }
        d
    }

    for &ei in &root_edges {
        let e = &edges[ei];
        let dst_pe = nodes[e.dst].pe % p;
        let d = edge_delay(&mut net, p, e, 0, dst_pe);
        events.push(d, Ev::Arrive { node: e.dst });
    }

    while let Some((t, ev)) = events.pop() {
        let t = t.0;
        makespan = makespan.max(t);
        match ev {
            Ev::Arrive { node } => {
                let pe = nodes[node].pe % p;
                queues[pe].push_back(node);
                if pe_idle[pe] {
                    pe_idle[pe] = false;
                    events.push(SimTime(t.max(pe_busy_until[pe])), Ev::Free { pe });
                }
            }
            Ev::Free { pe } => {
                let Some(node) = queues[pe].pop_front() else {
                    pe_idle[pe] = true;
                    continue;
                };
                let n = &nodes[node];
                let speed = machine.flops_per_sec * machine.speed.static_speed(pe).max(1e-12);
                let work = SimTime::from_secs_f64(n.work / speed);
                let send_cost = SimTime(
                    net.send_overhead().0 * n.n_remote as u64
                        + net.params().local_delivery.0 * n.n_local as u64,
                );
                let dur = work + sched_overhead + send_cost;
                let end = t + dur.0;
                pe_busy[pe] += dur.0;
                pe_busy_until[pe] = end;
                executed += 1;
                makespan = makespan.max(end);
                // Emit this node's out-edges at completion.
                for &ei in &out_edges[node] {
                    let e = &edges[ei];
                    let dst_pe = nodes[e.dst].pe % p;
                    let d = edge_delay(&mut net, p, e, pe, dst_pe);
                    events.push(SimTime(end + d.0), Ev::Arrive { node: e.dst });
                }
                // PE picks up its next queued node when this one ends.
                events.push(SimTime(end), Ev::Free { pe });
            }
        }
    }

    let util = if makespan > 0 {
        pe_busy.iter().map(|&b| b as f64 / makespan as f64).sum::<f64>() / p as f64
    } else {
        0.0
    };
    DagSimResult {
        makespan: SimTime(makespan),
        utilization: util,
        executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize, pe: usize) -> (Vec<DagNode>, Vec<DagEdge>) {
        let nodes = (0..n)
            .map(|_| DagNode {
                pe,
                work: 1e6,
                n_remote: 1,
                n_local: 0,
            })
            .collect();
        let edges = (0..n)
            .map(|i| DagEdge {
                src: if i == 0 { None } else { Some(i - 1) },
                dst: i,
                bytes: 128,
                tree_depth: 0,
                rtt_bytes: 0,
                token: i as u64,
            })
            .collect();
        (nodes, edges)
    }

    #[test]
    fn chain_is_sequential() {
        let m = MachineConfig::homogeneous(4);
        let (nodes, edges) = chain(10, 0);
        let r = simulate_dag(&m, SimTime::from_nanos(250), &nodes, &edges, 1);
        assert_eq!(r.executed, 10);
        // 10 × (1e6 FLOP at 1e9 FLOP/s = 1 ms each) ⇒ ≥ 10 ms.
        assert!(r.makespan.as_secs_f64() >= 0.01, "{:?}", r.makespan);
        // Only PE 0 of the 4 is ever busy.
        let u = r.utilization;
        assert!(u > 0.0 && u <= 0.25, "utilization {u}");
    }

    #[test]
    fn parallel_fan_out_overlaps() {
        let m = MachineConfig::homogeneous(4);
        // A root node on PE 0 fans out to one heavy node per PE.
        let mut nodes = vec![DagNode {
            pe: 0,
            work: 0.0,
            n_remote: 4,
            n_local: 0,
        }];
        let mut edges = vec![DagEdge {
            src: None,
            dst: 0,
            bytes: 64,
            tree_depth: 0,
            rtt_bytes: 0,
            token: 0,
        }];
        for pe in 0..4 {
            nodes.push(DagNode {
                pe,
                work: 1e7,
                n_remote: 0,
                n_local: 0,
            });
            edges.push(DagEdge {
                src: Some(0),
                dst: nodes.len() - 1,
                bytes: 1024,
                tree_depth: 0,
                rtt_bytes: 0,
                token: pe as u64 + 1,
            });
        }
        let r = simulate_dag(&m, SimTime::from_nanos(250), &nodes, &edges, 1);
        assert_eq!(r.executed, 5);
        // Parallel: makespan ≈ one 10-ms node + latency, far below 4 × 10 ms.
        assert!(r.makespan.as_secs_f64() < 0.02, "{:?}", r.makespan);
        assert!(r.utilization > 0.3, "{}", r.utilization);
    }

    #[test]
    fn faster_machine_shrinks_makespan() {
        let slow = MachineConfig::homogeneous(2);
        let mut fast = MachineConfig::homogeneous(2);
        fast.flops_per_sec *= 4.0;
        let (nodes, edges) = chain(20, 1);
        let so = SimTime::from_nanos(250);
        let r_slow = simulate_dag(&slow, so, &nodes, &edges, 1);
        let r_fast = simulate_dag(&fast, so, &nodes, &edges, 1);
        assert!(r_fast.makespan < r_slow.makespan);
    }

    #[test]
    #[should_panic(expected = "more than one trigger edge")]
    fn rejects_double_trigger() {
        let m = MachineConfig::homogeneous(2);
        let (nodes, mut edges) = chain(2, 0);
        edges.push(DagEdge {
            src: Some(0),
            dst: 1,
            bytes: 1,
            tree_depth: 0,
            rtt_bytes: 0,
            token: 99,
        });
        simulate_dag(&m, SimTime::ZERO, &nodes, &edges, 1);
    }
}
