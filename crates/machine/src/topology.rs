//! N-dimensional torus coordinate math, shared by the network hop model and
//! by TRAM's virtual routing topology.

/// An N-dimensional torus over a linear rank space.
///
/// Ranks map to coordinates in row-major order (first dimension varies
/// fastest), matching the virtual topologies TRAM constructs (§III-F).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Torus {
    dims: Vec<usize>,
}

impl Torus {
    /// Build a torus with the given per-dimension extents.
    ///
    /// # Panics
    /// Panics if any extent is zero or the dimension list is empty.
    pub fn new(dims: Vec<usize>) -> Self {
        assert!(!dims.is_empty(), "torus needs at least one dimension");
        assert!(
            dims.iter().all(|&d| d > 0),
            "torus dimensions must be positive: {dims:?}"
        );
        Torus { dims }
    }

    /// Factor `n` ranks into a roughly balanced `ndims`-dimensional grid.
    ///
    /// The product of the returned extents is ≥ `n` (the grid may have
    /// unused slots when `n` has awkward factors); extents differ by at
    /// most one multiplicative rounding step.
    pub(crate) fn balanced(n: usize, ndims: usize) -> Self {
        assert!(n > 0 && ndims > 0);
        let mut dims = vec![1usize; ndims];
        // Repeatedly multiply the smallest extent until the grid covers n.
        let target = n as f64;
        let per_dim = target.powf(1.0 / ndims as f64).ceil() as usize;
        for d in dims.iter_mut() {
            *d = per_dim.max(1);
        }
        // Shrink greedily while staying ≥ n, for a tighter fit.
        loop {
            let mut shrunk = false;
            for i in 0..ndims {
                if dims[i] > 1 {
                    let product: usize = dims
                        .iter()
                        .enumerate()
                        .map(|(j, &d)| if j == i { d - 1 } else { d })
                        .product();
                    if product >= n {
                        dims[i] -= 1;
                        shrunk = true;
                    }
                }
            }
            if !shrunk {
                break;
            }
        }
        Torus::new(dims)
    }

    /// Factor `n` into exactly `ndims` extents whose product is **exactly**
    /// `n` (prime factors distributed to the currently-smallest extent).
    /// Needed when every grid slot must be a real rank — e.g. TRAM's
    /// routing topology, where an intermediate hop through a phantom slot
    /// would address a PE that does not exist.
    pub fn factored(n: usize, ndims: usize) -> Self {
        assert!(n > 0 && ndims > 0);
        let mut factors = Vec::new();
        let mut m = n;
        let mut d = 2usize;
        while d * d <= m {
            while m.is_multiple_of(d) {
                factors.push(d);
                m /= d;
            }
            d += 1;
        }
        if m > 1 {
            factors.push(m);
        }
        factors.sort_unstable_by(|a, b| b.cmp(a));
        let mut dims = vec![1usize; ndims];
        for f in factors {
            let smallest = (0..ndims)
                .min_by_key(|&i| dims[i])
                .expect("ndims >= 1");
            dims[smallest] *= f;
        }
        dims.sort_unstable_by(|a, b| b.cmp(a));
        Torus::new(dims)
    }

    /// Extents of each dimension.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of slots in the torus.
    pub fn size(&self) -> usize {
        self.dims.iter().product()
    }

    /// Linear rank → coordinates (row-major, dim 0 fastest).
    pub fn coords(&self, rank: usize) -> Vec<usize> {
        debug_assert!(rank < self.size(), "rank {rank} outside torus");
        let mut c = Vec::with_capacity(self.dims.len());
        let mut r = rank;
        for &d in &self.dims {
            c.push(r % d);
            r /= d;
        }
        c
    }

    /// Coordinates → linear rank.
    pub fn rank(&self, coords: &[usize]) -> usize {
        debug_assert_eq!(coords.len(), self.dims.len());
        let mut r = 0usize;
        let mut stride = 1usize;
        for (c, d) in coords.iter().zip(&self.dims) {
            debug_assert!(c < d);
            r += c * stride;
            stride *= d;
        }
        r
    }

    /// Shortest per-dimension distance with wraparound.
    fn axis_dist(extent: usize, a: usize, b: usize) -> usize {
        let d = a.abs_diff(b);
        d.min(extent - d)
    }

    /// Minimal hop count between two ranks (sum of per-axis wrap distances).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        // Peel coordinates off both ranks axis by axis; nothing is allocated.
        let (mut ra, mut rb, mut hops) = (a, b, 0usize);
        for &d in &self.dims {
            hops += Self::axis_dist(d, ra % d, rb % d);
            ra /= d;
            rb /= d;
        }
        hops
    }

    /// The next rank on a dimension-order route from `from` toward `to`:
    /// correct the lowest-numbered dimension that differs, moving one full
    /// axis at a time (TRAM routes whole axes per intermediate hop, so this
    /// returns the peer that matches `to` in that dimension).
    ///
    /// Returns `None` when `from == to`.
    pub fn route_next(&self, from: usize, to: usize) -> Option<usize> {
        // Peel coordinates off both ranks axis by axis; nothing is allocated.
        let (mut rf, mut rt, mut stride) = (from, to, 1usize);
        for &d in &self.dims {
            let (cf, ct) = (rf % d, rt % d);
            if cf != ct {
                return Some(from - cf * stride + ct * stride);
            }
            rf /= d;
            rt /= d;
            stride *= d;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_rank_inverse() {
        let t = Torus::new(vec![4, 3, 2]);
        for r in 0..t.size() {
            assert_eq!(t.rank(&t.coords(r)), r);
        }
    }

    #[test]
    fn hops_with_wraparound() {
        let t = Torus::new(vec![8]);
        assert_eq!(t.hops(0, 1), 1);
        assert_eq!(t.hops(0, 7), 1); // wraps
        assert_eq!(t.hops(0, 4), 4);
        assert_eq!(t.hops(2, 2), 0);
    }

    #[test]
    fn hops_multi_dim() {
        let t = Torus::new(vec![4, 4]);
        // (0,0) to (2,3): 2 + 1(wrap) = 3
        let a = t.rank(&[0, 0]);
        let b = t.rank(&[2, 3]);
        assert_eq!(t.hops(a, b), 3);
        // The peeled walk agrees with the coordinate form on every pair.
        let t = Torus::new(vec![4, 3, 2]);
        for (a, b) in (0..t.size()).flat_map(|a| (0..t.size()).map(move |b| (a, b))) {
            let (ca, cb) = (t.coords(a), t.coords(b));
            let by_coords: usize = (0..3).map(|i| Torus::axis_dist(t.dims[i], ca[i], cb[i])).sum();
            assert_eq!(t.hops(a, b), by_coords, "{a} -> {b}");
        }
    }

    #[test]
    fn balanced_covers_n() {
        for n in [1, 2, 7, 16, 100, 1024, 4097] {
            for nd in 1..=3 {
                let t = Torus::balanced(n, nd);
                assert!(t.size() >= n, "n={n} nd={nd} dims={:?}", t.dims());
                assert_eq!(t.ndims(), nd);
            }
        }
    }

    #[test]
    fn balanced_is_tight_for_perfect_powers() {
        assert_eq!(Torus::balanced(64, 2).size(), 64);
        assert_eq!(Torus::balanced(64, 3).size(), 64);
    }

    #[test]
    fn route_reaches_destination_in_at_most_ndims_steps() {
        let t = Torus::new(vec![5, 4, 3]);
        for from in 0..t.size() {
            for to in [0, 17, t.size() - 1] {
                let mut cur = from;
                let mut steps = 0;
                while let Some(next) = t.route_next(cur, to) {
                    cur = next;
                    steps += 1;
                    assert!(steps <= t.ndims(), "route too long");
                }
                assert_eq!(cur, to);
            }
        }
    }

    #[test]
    fn route_next_fixes_the_lowest_differing_axis() {
        // Reference: explicit coordinate vectors.
        let t = Torus::new(vec![5, 4, 3]);
        for from in 0..t.size() {
            for to in 0..t.size() {
                let (mut c, ct) = (t.coords(from), t.coords(to));
                let want = (0..c.len()).find(|&i| c[i] != ct[i]).map(|i| {
                    c[i] = ct[i];
                    t.rank(&c)
                });
                assert_eq!(t.route_next(from, to), want, "{from} -> {to}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_extent_rejected() {
        Torus::new(vec![4, 0]);
    }

    #[test]
    fn factored_is_exact() {
        for n in [1, 2, 7, 8, 12, 16, 27, 97, 100, 1024, 4096] {
            for nd in 1..=3 {
                let t = Torus::factored(n, nd);
                assert_eq!(t.size(), n, "n={n} nd={nd} dims={:?}", t.dims());
            }
        }
    }

    #[test]
    fn factored_routes_stay_in_bounds() {
        let t = Torus::factored(8, 2);
        for from in 0..8 {
            for to in 0..8 {
                let mut cur = from;
                while let Some(next) = t.route_next(cur, to) {
                    assert!(next < 8, "route through phantom slot {next}");
                    cur = next;
                }
            }
        }
    }

    #[test]
    fn factored_prime_degenerates_to_1d_ish() {
        let t = Torus::factored(7, 2);
        assert_eq!(t.size(), 7);
        assert!(t.dims().contains(&7));
    }
}
