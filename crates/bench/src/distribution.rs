//! Empirical distributions: CDF (Fig 7's round-trip latencies) and CCDF
//! (Fig 1's fake-query similarity).

/// An empirical distribution over `f64` samples.
///
/// # Example
///
/// ```
/// use xsearch_bench::distribution::Empirical;
///
/// let d = Empirical::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(d.cdf(2.0), 0.5);
/// assert_eq!(d.ccdf(2.0), 0.5);
/// assert_eq!(d.quantile(0.5), 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Empirical {
    sorted: Vec<f64>,
}

impl Empirical {
    /// Builds a distribution from samples; NaNs are dropped.
    #[must_use]
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaNs removed"));
        Empirical { sorted: samples }
    }

    /// P(X ≤ x); 0.0 for an empty distribution.
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // Index of the first element strictly greater than x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// P(X > x) = 1 − CDF(x).
    #[must_use]
    pub fn ccdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        1.0 - self.cdf(x)
    }

    /// The q-quantile (nearest-rank); `q` clamped to [0, 1].
    ///
    /// # Panics
    ///
    /// Panics when the distribution is empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty distribution");
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        self.sorted[rank - 1]
    }

    /// Median shorthand.
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cdf_at_extremes() {
        let d = Empirical::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(d.cdf(0.5), 0.0);
        assert_eq!(d.cdf(3.0), 1.0);
        assert_eq!(d.ccdf(3.0), 0.0);
    }

    #[test]
    fn cdf_counts_ties() {
        let d = Empirical::from_samples(vec![2.0, 2.0, 2.0, 5.0]);
        assert_eq!(d.cdf(2.0), 0.75);
    }

    #[test]
    fn quantile_nearest_rank() {
        let d = Empirical::from_samples(vec![10.0, 20.0, 30.0, 40.0]);
        assert_eq!(d.quantile(0.25), 10.0);
        assert_eq!(d.quantile(0.5), 20.0);
        assert_eq!(d.quantile(1.0), 40.0);
        assert_eq!(d.quantile(0.0), 10.0);
    }

    #[test]
    fn nan_samples_dropped() {
        let d = Empirical::from_samples(vec![1.0, f64::NAN, 2.0]);
        assert_eq!(d.cdf(1.0), 0.5, "two samples remain");
        assert_eq!(d.quantile(1.0), 2.0);
    }

    #[test]
    fn empty_distribution_behaviour() {
        let d = Empirical::default();
        assert_eq!(d.cdf(1.0), 0.0);
        assert_eq!(d.ccdf(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "quantile of empty")]
    fn quantile_of_empty_panics() {
        let _ = Empirical::default().quantile(0.5);
    }

    proptest! {
        #[test]
        fn cdf_is_monotone(samples in proptest::collection::vec(-1e6f64..1e6, 1..100), xs in proptest::collection::vec(-1e6f64..1e6, 2..20)) {
            let d = Empirical::from_samples(samples);
            let mut xs = xs;
            xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
            let mut last = 0.0;
            for &x in &xs {
                let c = d.cdf(x);
                prop_assert!(c >= last - 1e-12);
                last = c;
            }
        }

        #[test]
        fn cdf_plus_ccdf_is_one(samples in proptest::collection::vec(-100f64..100.0, 1..50), x in -200f64..200.0) {
            let d = Empirical::from_samples(samples);
            prop_assert!((d.cdf(x) + d.ccdf(x) - 1.0).abs() < 1e-12);
        }

        #[test]
        fn quantile_is_a_sample(samples in proptest::collection::vec(-100f64..100.0, 1..50), q in 0.0f64..=1.0) {
            let d = Empirical::from_samples(samples.clone());
            let v = d.quantile(q);
            prop_assert!(samples.contains(&v));
        }
    }
}
