//! The MPI-style multiway-merge sample sort baseline.
//!
//! This is the sort the paper's CHARM cosmology code used before the
//! interop offload: a *bulk-synchronous* sample sort. Every phase is a
//! barrier; the splitter phase funnels samples through a root; the
//! all-to-all is synchronous. It is executed for real (so correctness is
//! testable) and costed phase-by-phase on the same machine model the
//! runtime uses, which is what makes it a fair baseline for Fig. 7.
//!
//! Why it stops scaling (visible in the cost model):
//! * the root gathers `P × s` samples and sorts them — O(P) work and
//!   O(P·s) bytes into one endpoint,
//! * the synchronous all-to-all pays `(P−1)·α` per PE with no overlap,
//! * every phase barrier adds `log P` latencies that asynchronous
//!   message-driven execution would hide.

use charm_machine::{MachineConfig, NetworkModel, SimTime};

/// Result of an [`mpi_multiway`] run.
#[derive(Debug)]
pub struct MultiwayResult {
    /// Sorted keys, one bucket per rank.
    pub buckets: Vec<Vec<u64>>,
    /// Modeled time of the bulk-synchronous execution.
    pub time: SimTime,
}

/// Samples taken per rank for the splitter phase.
const SAMPLES_PER_RANK: usize = 16;
const SORT_FLOPS: f64 = 6.0;
const SCAN_FLOPS: f64 = 8.0;
const MERGE_FLOPS: f64 = 4.0;

/// Execute and cost an MPI-style multiway-merge sample sort of `keys`
/// (one vector per rank) on `machine`.
pub fn mpi_multiway(machine: &MachineConfig, keys: Vec<Vec<u64>>) -> MultiwayResult {
    let p = keys.len();
    assert!(p >= 1);
    let mut net = NetworkModel::new(machine.network.clone(), 1);
    let flops = machine.flops_per_sec;
    let secs = |work: f64| SimTime::from_secs_f64(work / flops);
    let barrier = {
        let depth = (p.max(2) as f64).log2().ceil() as u64;
        let hop = net.delay(0, 1.min(p - 1), 64, 0);
        SimTime(hop.0 * depth)
    };

    let mut time = SimTime::ZERO;

    // Phase 1: local sort (all ranks in parallel → max cost).
    let mut sorted: Vec<Vec<u64>> = keys;
    let mut max_local = SimTime::ZERO;
    for k in sorted.iter_mut() {
        let n = k.len() as f64;
        k.sort_unstable();
        max_local = max_local.max(secs(n * SORT_FLOPS * n.max(2.0).log2()));
    }
    time += max_local + barrier;

    // Phase 2: sample gather at root; root sorts P·s samples and picks
    // P−1 splitters; broadcast.
    let mut samples: Vec<u64> = Vec::with_capacity(p * SAMPLES_PER_RANK);
    for k in &sorted {
        if k.is_empty() {
            continue;
        }
        for j in 0..SAMPLES_PER_RANK {
            samples.push(k[(j * k.len()) / SAMPLES_PER_RANK]);
        }
    }
    samples.sort_unstable();
    let splitters: Vec<u64> = (1..p)
        .map(|i| {
            if samples.is_empty() {
                u64::MAX / p as u64 * i as u64
            } else {
                samples[(i * samples.len()) / p]
            }
        })
        .collect();
    // Gather: P messages of s·8 bytes converge on the root (serialized at
    // its NIC), then the root's sort, then a broadcast.
    let gather_bytes = SAMPLES_PER_RANK * 8;
    let mut gather = SimTime::ZERO;
    for src in 1..p {
        gather += net.delay(src, 0, gather_bytes, src as u64);
    }
    let ns = (p * SAMPLES_PER_RANK) as f64;
    let root_sort = secs(ns * SORT_FLOPS * ns.max(2.0).log2());
    let bcast = {
        let depth = (p.max(2) as f64).log2().ceil() as u64;
        let hop = net.delay(0, 1.min(p - 1), (p - 1) * 8, 1);
        SimTime(hop.0 * depth)
    };
    time += gather + root_sort + bcast + barrier;

    // Phase 3: synchronous all-to-all — every rank serializes P−1 sends.
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut max_rank_a2a = SimTime::ZERO;
    for k in sorted.iter() {
        let mut cost = secs(k.len() as f64 * SCAN_FLOPS);
        let mut b = 0usize;
        let mut part_sizes = vec![0usize; p];
        for &key in k {
            while b < splitters.len() && key >= splitters[b] {
                b += 1;
            }
            part_sizes[b] += 1;
        }
        for (dst, &sz) in part_sizes.iter().enumerate() {
            if sz > 0 {
                // Synchronous pairwise exchange: sender pays the full
                // round-trip-ish cost per partner (no overlap).
                cost += net.delay(0, dst.max(1).min(p - 1), sz * 8, dst as u64);
            }
        }
        max_rank_a2a = max_rank_a2a.max(cost);
    }
    // Actually move the data.
    for k in &sorted {
        let mut b = 0usize;
        for &key in k {
            while b < splitters.len() && key >= splitters[b] {
                b += 1;
            }
            buckets[b].push(key);
        }
        // b resets per source rank
    }
    time += max_rank_a2a + barrier;

    // Phase 4: P-way merge of received runs.
    let mut max_merge = SimTime::ZERO;
    for bkt in buckets.iter_mut() {
        let n = bkt.len() as f64;
        bkt.sort_unstable();
        max_merge = max_merge.max(secs(n * MERGE_FLOPS * (p.max(2) as f64).log2()));
    }
    time += max_merge + barrier;

    MultiwayResult { buckets, time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{skewed_keys, verify_sorted};
    use charm_machine::MachineConfig;

    #[test]
    fn multiway_sorts_correctly() {
        let m = MachineConfig::homogeneous(8);
        let keys = skewed_keys(8, 400, 3);
        let orig = keys.clone();
        let r = mpi_multiway(&m, keys);
        verify_sorted(&orig, &r.buckets).expect("valid sort");
    }

    #[test]
    fn multiway_handles_empty_and_single() {
        let m = MachineConfig::homogeneous(4);
        let r = mpi_multiway(&m, vec![vec![], vec![3], vec![], vec![1]]);
        let flat: Vec<u64> = r.buckets.iter().flatten().copied().collect();
        assert_eq!(flat, vec![1, 3]);
    }

    #[test]
    fn per_source_bucket_pointer_bug_guard() {
        // Keys from *different* ranks must each restart the splitter scan.
        let m = MachineConfig::homogeneous(2);
        let keys = vec![vec![10u64, 20], vec![1u64, 2]];
        let orig = keys.clone();
        let r = mpi_multiway(&m, keys);
        verify_sorted(&orig, &r.buckets).expect("low keys from rank 1 kept");
    }

    #[test]
    fn cost_grows_superlinearly_with_ranks() {
        // Fixed total problem size: the root bottleneck + sync all-to-all
        // make the *sort phase* more expensive at higher P — the Fig. 7
        // effect (23% of step time at 4096 cores).
        let total = 1 << 14;
        let time_at = |p: usize| {
            let m = MachineConfig::homogeneous(p);
            let keys = skewed_keys(p, total / p, 5);
            mpi_multiway(&m, keys).time
        };
        let t64 = time_at(64);
        let t512 = time_at(512);
        assert!(
            t512 > t64,
            "strong scaling must *invert* for the MPI sort: t64={t64} t512={t512}"
        );
    }
}
