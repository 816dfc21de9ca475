//! # charm-sort — scalable parallel sorting (§III-G, paper refs 26/27)
//!
//! The paper's interoperation study offloads the global particle sort of an
//! MPI cosmology code (CHARM) to Charm++'s *histogram sort* library,
//! removing a scalability bottleneck: 23 % of total time spent sorting at
//! 4096 cores drops to 2 % (Fig. 7). This crate provides both sides of that
//! comparison:
//!
//! * [`hist_sort`] — HistSort (Solomonik & Kalé, IPDPS'10) running on the
//!   charm-rs runtime: iterative splitter refinement via histogram
//!   reductions, then fully asynchronous all-to-all key exchange. Sorting
//!   needs "asynchronous and unexpected messages", which is why it "suits
//!   Charm++ more".
//! * [`mpi_multiway`] — the MPI-style multiway-merge sort baseline: a
//!   bulk-synchronous sample sort with a root-driven splitter phase and a
//!   synchronous all-to-all, costed on the same machine model (and executed
//!   for real to verify correctness).

mod histsort;
mod multiway;

pub use histsort::hist_sort;
pub use multiway::mpi_multiway;

/// Check that `buckets` form a globally sorted, complete permutation of
/// `original` (each bucket sorted; bucket boundaries ordered).
pub fn verify_sorted(original: &[Vec<u64>], buckets: &[Vec<u64>]) -> Result<(), String> {
    let mut input: Vec<u64> = original.iter().flatten().copied().collect();
    let mut output: Vec<u64> = buckets.iter().flatten().copied().collect();
    if input.len() != output.len() {
        return Err(format!(
            "key count changed: {} in, {} out",
            input.len(),
            output.len()
        ));
    }
    for (b, bucket) in buckets.iter().enumerate() {
        if bucket.windows(2).any(|w| w[0] > w[1]) {
            return Err(format!("bucket {b} not internally sorted"));
        }
    }
    for w in buckets.windows(2) {
        if let (Some(&hi), Some(&lo)) = (w[0].last(), w[1].first()) {
            if hi > lo {
                return Err("bucket boundaries out of order".into());
            }
        }
    }
    input.sort_unstable();
    output.sort_unstable();
    if input != output {
        return Err("output is not a permutation of the input".into());
    }
    Ok(())
}

/// Generate a skewed key distribution (clustered particles): `frac_hot` of
/// keys land in the bottom 1/16 of the key space — the non-uniform particle
/// distribution that forces CHARM to re-sort every step.
pub fn skewed_keys(num_pes: usize, keys_per_pe: usize, seed: u64) -> Vec<Vec<u64>> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    (0..num_pes)
        .map(|pe| {
            let mut rng = StdRng::seed_from_u64(seed ^ (pe as u64).wrapping_mul(0x9E3779B9));
            (0..keys_per_pe)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        rng.gen_range(0..u64::MAX / 16)
                    } else {
                        rng.gen::<u64>()
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verify_accepts_correct_output() {
        let input = vec![vec![5, 1], vec![9, 3]];
        let buckets = vec![vec![1, 3], vec![5, 9]];
        assert!(verify_sorted(&input, &buckets).is_ok());
    }

    #[test]
    fn verify_rejects_lost_keys() {
        let input = vec![vec![5, 1], vec![9, 3]];
        let buckets = vec![vec![1, 3], vec![5]];
        assert!(verify_sorted(&input, &buckets).is_err());
    }

    #[test]
    fn verify_rejects_unsorted_bucket() {
        let input = vec![vec![5, 1]];
        let buckets = vec![vec![5, 1]];
        assert!(verify_sorted(&input, &buckets).is_err());
    }

    #[test]
    fn verify_rejects_boundary_violation() {
        let input = vec![vec![5, 1], vec![9, 3]];
        let buckets = vec![vec![3, 5], vec![1, 9]];
        assert!(verify_sorted(&input, &buckets).is_err());
    }

    #[test]
    fn skewed_keys_are_skewed_and_deterministic() {
        let a = skewed_keys(4, 1000, 7);
        let b = skewed_keys(4, 1000, 7);
        assert_eq!(a, b);
        let low = a
            .iter()
            .flatten()
            .filter(|&&k| k < u64::MAX / 16)
            .count();
        let total = 4 * 1000;
        assert!(
            low > total / 3,
            "bottom sliver should be crowded: {low}/{total}"
        );
    }
}
