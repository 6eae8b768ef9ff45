//! The one percentile helper every timing in the benchmark goes through.
//!
//! A tail percentile is only reported when the sample supports it: at
//! least [`MIN_BEYOND`] samples must lie beyond it. The median is always
//! defined for a non-empty sample.

/// Samples that must lie strictly beyond a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried from the highest down by [`Quantiles::tail`].
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Whether `n` samples support tail percentile `p`.
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= MIN_BEYOND
}

/// Nearest rank (1-based) of percentile `p` among `n > 0` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in p·n from bumping an exact rank
    // (e.g. 99.9% of 10 000) up by one.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// A sorted sample of measurements.
#[derive(Debug, Clone)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Sorts `samples`; non-finite values are a bug in the caller.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "timings must be finite"
        );
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    /// The median (nearest rank), or `None` for an empty sample.
    pub fn median(&self) -> Option<f64> {
        let n = self.sorted.len();
        (n > 0).then(|| self.sorted[rank(n, 50.0) - 1])
    }

    /// The value at tail percentile `p`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn at(&self, p: f64) -> Option<f64> {
        let n = self.sorted.len();
        supports(n, p).then(|| self.sorted[rank(n, p) - 1])
    }

    /// The highest percentile of the ladder the sample supports, as
    /// `(percentile, value)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        LADDER.iter().find_map(|&p| self.at(p).map(|v| (p, v)))
    }

    /// One-line rendering: count, median and the supported tail.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let median = self
            .median()
            .map_or_else(|| "-".to_string(), |m| format!("{:.3}", m * scale));
        let tail = self.tail().map_or_else(
            || "no tail".to_string(),
            |(p, v)| format!("p{p} {:.3}", v * scale),
        );
        format!("n={} p50 {median} {unit}, {tail} {unit}", self.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize) -> Quantiles {
        Quantiles::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn uniform_ranks() {
        let q = uniform(1000);
        assert_eq!(q.count(), 1000);
        assert_eq!(q.median(), Some(500.0));
        assert_eq!(q.at(90.0), Some(900.0));
        // 10 samples (991..=1000) lie beyond p99: just supported.
        assert_eq!(q.at(99.0), Some(990.0));
        assert_eq!(q.at(99.9), None);
        assert_eq!(q.tail(), Some((99.0, 990.0)));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 999 samples leave only 9 beyond the p99 rank.
        let q = uniform(999);
        assert_eq!(q.at(99.0), None);
        assert_eq!(q.tail(), Some((95.0, 950.0)));
        let q = uniform(10_000);
        assert_eq!(q.tail(), Some((99.9, 9990.0)));
    }

    #[test]
    fn small_samples_have_a_median_but_no_tail() {
        let q = Quantiles::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(q.median(), Some(2.0));
        assert_eq!(q.tail(), None);
        assert_eq!(q.at(75.0), None);
        // 40 samples support p75 (10 beyond) but not p90.
        let q = uniform(40);
        assert_eq!(q.tail(), Some((75.0, 30.0)));
    }

    #[test]
    fn empty_sample_has_nothing() {
        let q = Quantiles::new(Vec::new());
        assert_eq!(q.median(), None);
        assert_eq!(q.tail(), None);
    }

    #[test]
    fn exponential_quantiles_match_the_closed_form() {
        // Midpoint quantiles of Exp(1): the p-th percentile is -ln(1 - p).
        let n = 100_000;
        let q = Quantiles::new(
            (0..n)
                .map(|i| -(1.0 - (i as f64 + 0.5) / n as f64).ln())
                .collect(),
        );
        let close = |a: f64, b: f64| (a - b).abs() < 1e-3 * b.max(1.0);
        assert!(close(q.median().unwrap(), 2f64.ln()));
        assert!(close(q.at(99.0).unwrap(), 100f64.ln()));
        assert!(close(q.at(99.9).unwrap(), 1000f64.ln()));
    }

    #[test]
    fn constant_sample() {
        let q = Quantiles::new(vec![7.0; 50]);
        assert_eq!(q.median(), Some(7.0));
        assert_eq!(q.tail(), Some((75.0, 7.0)));
    }
}
