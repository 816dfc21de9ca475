//! Order statistics for repeated timings.
//!
//! The tables print a timing as its median, its quartiles, the highest
//! percentile that still has ten samples beyond it, and the sample count.
//! The *metric* computed from the same samples is their [`floor`]: see
//! there for why.

/// Summary of a set of samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(p, value)`: the highest percentile `p` (0–100) with at least ten
    /// samples strictly beyond it, or `None` with fewer than eleven samples.
    pub tail: Option<(f64, f64)>,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; 0 for an empty slice (callers count that as a failed check).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The fastest sample: the metric value of a repeated host timing.
///
/// The simulator is deterministic, so every repetition does identical
/// work and whatever makes one slower than another is the host. On the
/// 2-core sandbox this was written on that is mostly neighbours on the
/// memory system: a pointer chase that takes 0.20 s when the host is quiet
/// takes 0.25–0.43 s most of the time, in phases seconds to minutes long,
/// so the median of a 20 s run moves 20–50 % from run to run while the
/// fastest of its repetitions moves a few percent. Interference only ever
/// adds time, so the minimum is the estimate of the cost of the code alone,
/// and the median and quartiles printed next to it say how far the host
/// was from quiet.
pub fn floor(values: &[f64]) -> f64 {
    values.iter().copied().min_by(f64::total_cmp).unwrap_or(0.0)
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive), so a spread
/// computed here matches the one the driver computes over whole runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        1 => (v[0], v[0]),
        _ => {
            let at = |k: usize| {
                // 1-based position k*(n+1)/4; with j clamped the fraction can
                // leave [0, 1], which extrapolates exactly as CPython does
                let pos = k * (n + 1);
                let j = (pos / 4).clamp(1, n - 1);
                let frac = pos as f64 / 4.0 - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * frac
            };
            (at(1), at(3))
        }
    }
}

/// The highest percentile with ten samples beyond it: with `n` samples
/// sorted ascending that is the value at index `n - 11`, the
/// `100 * (n - 10) / n`-th percentile.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 11 {
        return None;
    }
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

pub fn summarize(values: &[f64]) -> Summary {
    let (q1, q3) = quartiles(values);
    Summary {
        n: values.len(),
        median: median(values),
        q1,
        q3,
        tail: tail_percentile(values),
    }
}

/// Geometric mean of positive values; 0 if any value is not positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v.is_nan() || v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.6} [q1 {:.6}, q3 {:.6}]",
            self.median, self.q1, self.q3
        )?;
        if let Some((p, v)) = self.tail {
            write!(f, " p{p:.1} {v:.6}")?;
        }
        write!(f, " n={}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_is_the_fastest_sample() {
        assert_eq!(floor(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(floor(&[]), 0.0);
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` = [2.75, 5.5, 8.25]
    /// `statistics.quantiles([1,2,3,4,5], n=4)` = [1.5, 3.0, 4.5]
    /// `statistics.quantiles([10, 20], n=4)` = [7.5, 15.0, 22.5]
    #[test]
    fn quartiles_match_python_exclusive() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), (1.5, 4.5));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0));
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // ten samples (91..=100) lie beyond the value 90
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (p, x) = tail_percentile(&v).unwrap();
        assert!((p - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(x, 1.0);
    }

    #[test]
    fn geomean_of_rates() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn summary_prints_every_part() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = summarize(&v).to_string();
        assert!(s.contains("median 10.5"), "{s}");
        assert!(s.contains("p50.0 10.0"), "{s}");
        assert!(s.ends_with("n=20"), "{s}");
    }
}
