//! Shared helpers for the mini-apps.

use charm_pup::{Pup, Puper};

pub use charm_pup::SyntheticBlob;

/// Deterministic spatial density: a Gaussian blob centered at `center`
/// (fractions of the domain), producing per-cell multipliers in
/// `[floor, floor + peak]`. Drives the load imbalance in LeanMD/Barnes-Hut.
pub(crate) fn gaussian_density(
    pos: [f64; 3],
    center: [f64; 3],
    sigma: f64,
    floor: f64,
    peak: f64,
) -> f64 {
    let d2: f64 = pos
        .iter()
        .zip(center.iter())
        .map(|(a, b)| {
            // periodic distance in unit cube
            let d = (a - b).abs();
            let d = d.min(1.0 - d);
            d * d
        })
        .sum();
    floor + peak * (-d2 / (2.0 * sigma * sigma)).exp()
}

/// Bit-vector tree index → lattice coordinates at depth `d` (level 0 is
/// the most significant split; child bit k of level i maps to axis k).
pub fn oct_coords(bits: u64, d: u8) -> [u32; 3] {
    let mut c = [0u32; 3];
    for level in 0..d {
        let oct = (bits >> (3 * level)) & 0b111;
        let shift = (d - 1 - level) as u32;
        for (axis, cc) in c.iter_mut().enumerate() {
            if oct & (1 << axis) != 0 {
                *cc |= 1 << shift;
            }
        }
    }
    c
}

/// Lattice coordinates at depth `d` → bit-vector tree index bits.
pub(crate) fn oct_bits(c: [u32; 3], d: u8) -> u64 {
    let mut bits = 0u64;
    for level in 0..d {
        let shift = (d - 1 - level) as u32;
        let mut oct = 0u64;
        for (axis, cc) in c.iter().enumerate() {
            if cc & (1 << shift) != 0 {
                oct |= 1 << axis;
            }
        }
        bits |= oct << (3 * level);
    }
    bits
}

/// SplitMix64 — a tiny seedable PRNG for the traffic generators. Chares
/// that carry one serialize 8 bytes of state, so a checkpoint rollback
/// resumes the *exact same* stream (the KV service's replay-after-restart
/// correctness leans on this).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed` (every seed is a valid stream).
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniform bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform double in `[0, 1)` (53-bit mantissa).
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Pup for SplitMix64 {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.state);
    }
}

/// Open-loop Poisson arrival stream: exponential inter-arrival times with
/// the given mean, in integer nanoseconds of virtual time. Arrival times
/// are a function of (seed, draw count) only — client completions never
/// push back, which is what makes the offered load "open loop".
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct PoissonArrivals {
    rng: SplitMix64,
    mean_ns: f64,
    /// Virtual time of the last arrival produced (ns).
    t_ns: u64,
}

impl PoissonArrivals {
    /// A stream with mean inter-arrival `mean_ns` nanoseconds.
    pub(crate) fn new(seed: u64, mean_ns: f64) -> Self {
        assert!(mean_ns > 0.0);
        PoissonArrivals {
            rng: SplitMix64::new(seed),
            mean_ns,
            t_ns: 0,
        }
    }

    /// Virtual time (ns) of the next arrival. Monotone non-decreasing.
    pub(crate) fn next_arrival_ns(&mut self) -> u64 {
        // Inverse-CDF: −ln(1−u)·mean, u ∈ [0,1). Clamp to ≥1 ns so two
        // arrivals never collapse onto the same instant.
        let u = self.rng.next_f64();
        let dt = (-(1.0 - u).ln() * self.mean_ns).max(1.0);
        self.t_ns = self.t_ns.saturating_add(dt as u64);
        self.t_ns
    }
}

impl Pup for PoissonArrivals {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.rng, self.mean_ns, self.t_ns);
    }
}

/// Bounded Zipf(s) sampler over ranks `1..=n` by rejection inversion of
/// the integral of the unnormalized density (the standard
/// rejection-inversion scheme for power laws): O(1) per sample with no
/// tables, any exponent `s > 0`, and fully deterministic given the caller's
/// [`SplitMix64`].
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct ZipfSampler {
    n: u64,
    s: f64,
    h_x1: f64,
    h_n: f64,
    threshold: f64,
}

impl ZipfSampler {
    /// A sampler over ranks `1..=n` with exponent `s` (P(rank=k) ∝ k^−s).
    pub(crate) fn new(n: u64, s: f64) -> Self {
        assert!(n >= 1 && s > 0.0);
        let mut z = ZipfSampler {
            n,
            s,
            h_x1: 0.0,
            h_n: 0.0,
            threshold: 0.0,
        };
        z.h_x1 = z.h_integral(1.5) - 1.0;
        z.h_n = z.h_integral(n as f64 + 0.5);
        z.threshold = 2.0 - z.h_integral_inverse(z.h_integral(2.5) - z.h(2.0));
        z
    }

    fn h(&self, x: f64) -> f64 {
        x.powf(-self.s)
    }

    /// ∫ x^−s dx, shifted so s = 1 is continuous (log form).
    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        helper1((1.0 - self.s) * log_x) * log_x
    }

    fn h_integral_inverse(&self, x: f64) -> f64 {
        let mut t = x * (1.0 - self.s);
        if t < -1.0 {
            t = -1.0;
        }
        (helper2(t) * x).exp()
    }

    /// Draw one rank in `1..=n`.
    pub(crate) fn sample(&self, rng: &mut SplitMix64) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inverse(u);
            let k64 = (x + 0.5) as u64;
            let k = k64.clamp(1, self.n);
            let kf = k as f64;
            if kf - x <= self.threshold
                || u >= self.h_integral(kf + 0.5) - self.h(kf)
            {
                return k;
            }
        }
    }
}

impl Pup for ZipfSampler {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.n, self.s, self.h_x1, self.h_n, self.threshold);
    }
}

/// (exp(x) − 1) / x, stable near 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// ln(1 + x) / x, stable near 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * 0.5 * (1.0 - x / 3.0 * (1.0 - 0.25 * x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charm_pup::roundtrip;

    #[test]
    fn density_peaks_at_center() {
        let c = [0.5, 0.5, 0.5];
        let at_center = gaussian_density(c, c, 0.2, 1.0, 9.0);
        let far = gaussian_density([0.0, 0.0, 0.0], c, 0.2, 1.0, 9.0);
        assert!((at_center - 10.0).abs() < 1e-9);
        assert!(far < at_center);
        assert!(far >= 1.0);
    }

    #[test]
    fn oct_roundtrip() {
        for d in 1..=4u8 {
            let side = 1u32 << d;
            for x in (0..side).step_by(3) {
                for y in (0..side).step_by(2) {
                    for z in 0..side.min(4) {
                        assert_eq!(oct_coords(oct_bits([x, y, z], d), d), [x, y, z]);
                    }
                }
            }
        }
    }

    #[test]
    fn density_is_periodic() {
        let c = [0.0, 0.5, 0.5];
        let a = gaussian_density([0.95, 0.5, 0.5], c, 0.2, 1.0, 5.0);
        let b = gaussian_density([0.05, 0.5, 0.5], c, 0.2, 1.0, 5.0);
        assert!((a - b).abs() < 1e-9, "wraparound symmetric");
    }

    #[test]
    fn splitmix_deterministic_and_seed_sensitive() {
        let take = |seed: u64| {
            let mut r = SplitMix64::new(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(take(7), take(7), "same seed, same stream");
        assert_ne!(take(7), take(8), "different seed, different stream");
        // pup roundtrip resumes mid-stream.
        let mut r = SplitMix64::new(99);
        for _ in 0..10 {
            r.next_u64();
        }
        let mut copy = roundtrip(&mut r.clone());
        assert_eq!(copy.next_u64(), r.clone().next_u64());
    }

    #[test]
    fn splitmix_uniform_f64_in_range() {
        let mut r = SplitMix64::new(3);
        let mut sum = 0.0;
        let n = 100_000;
        for _ in 0..n {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn poisson_stream_deterministic() {
        let take = |seed: u64| {
            let mut p = PoissonArrivals::new(seed, 1_000.0);
            (0..1000).map(|_| p.next_arrival_ns()).collect::<Vec<_>>()
        };
        assert_eq!(take(11), take(11));
        assert_ne!(take(11), take(12));
        // Checkpoint mid-stream and resume: identical continuation.
        let mut p = PoissonArrivals::new(5, 500.0);
        for _ in 0..100 {
            p.next_arrival_ns();
        }
        let mut restored = roundtrip(&mut p.clone());
        for _ in 0..100 {
            assert_eq!(restored.next_arrival_ns(), p.next_arrival_ns());
        }
    }

    #[test]
    fn poisson_interarrivals_match_exponential() {
        let mean = 10_000.0;
        let mut p = PoissonArrivals::new(17, mean);
        let n = 200_000usize;
        let mut prev = 0u64;
        let mut sum = 0.0;
        let mut over_mean = 0usize;
        for _ in 0..n {
            let t = p.next_arrival_ns();
            assert!(t > prev, "arrivals strictly increase");
            let dt = (t - prev) as f64;
            sum += dt;
            if dt > mean {
                over_mean += 1;
            }
            prev = t;
        }
        let emp_mean = sum / n as f64;
        assert!(
            (emp_mean / mean - 1.0).abs() < 0.02,
            "empirical mean {emp_mean} vs {mean}"
        );
        // P(dt > mean) = e^-1 for an exponential.
        let frac = over_mean as f64 / n as f64;
        assert!(
            (frac - (-1.0f64).exp()).abs() < 0.01,
            "P(dt>mean) = {frac}, want {}",
            (-1.0f64).exp()
        );
    }

    #[test]
    fn zipf_deterministic() {
        let take = |seed: u64| {
            let z = ZipfSampler::new(1000, 1.1);
            let mut r = SplitMix64::new(seed);
            (0..2000).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(take(21), take(21));
        assert_ne!(take(21), take(22));
    }

    /// Exact probability of rank `k` under Zipf(`n`, `s`): k^-s / H_n.
    fn zipf_prob(n: u64, s: f64, k: u64) -> f64 {
        let h: f64 = (1..=n).map(|i| (i as f64).powf(-s)).sum();
        (k as f64).powf(-s) / h
    }

    #[test]
    fn zipf_matches_analytic_distribution() {
        // Property: empirical rank frequencies track k^-s / H_n within
        // tolerance, across exponents on both sides of s = 1 (the log
        // branch of the integral).
        for &s in &[0.7, 1.0, 1.3] {
            let n = 50u64;
            let z = ZipfSampler::new(n, s);
            let mut r = SplitMix64::new(1234);
            let draws = 400_000usize;
            let mut counts = vec![0u64; n as usize + 1];
            for _ in 0..draws {
                let k = z.sample(&mut r);
                assert!((1..=n).contains(&k));
                counts[k as usize] += 1;
            }
            for k in [1u64, 2, 3, 5, 10, 25, 50] {
                let expect = zipf_prob(n, s, k);
                let got = counts[k as usize] as f64 / draws as f64;
                assert!(
                    (got - expect).abs() < 0.01 && (got / expect - 1.0).abs() < 0.08,
                    "s={s} rank {k}: empirical {got:.5} vs analytic {expect:.5}"
                );
            }
        }
    }
}
