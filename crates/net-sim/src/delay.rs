//! Latency distributions, and [`busy_wait`] for service time that must
//! occupy a core.
//!
//! DESIGN.md §6 calibrates the WAN model with these distributions:
//! client↔proxy and proxy↔engine links use log-normal one-way delays
//! (heavy right tail, like real WAN paths), relay processing uses
//! constants.

use rand::Rng;
use std::time::Duration;

/// A sampleable delay distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum DelayModel {
    /// Always exactly this long.
    Constant(Duration),
    /// Log-normal parameterized by its *median* and the σ of the
    /// underlying normal — the natural way to quote WAN latency
    /// ("median 40 ms, long tail").
    LogNormal {
        /// Median delay.
        median: Duration,
        /// Shape: σ of ln(X). 0.3–0.6 matches observed WAN jitter.
        sigma: f64,
    },
}

impl DelayModel {
    /// Convenience constructor from milliseconds.
    #[must_use]
    pub fn constant_ms(ms: u64) -> Self {
        DelayModel::Constant(Duration::from_millis(ms))
    }

    /// Log-normal with median in milliseconds.
    #[must_use]
    pub fn lognormal_ms(median_ms: u64, sigma: f64) -> Self {
        DelayModel::LogNormal {
            median: Duration::from_millis(median_ms),
            sigma,
        }
    }

    /// Log-normal with median in microseconds — intra-data-center hops
    /// (e.g. a fleet router to its replicas) live at this scale.
    #[must_use]
    pub fn lognormal_us(median_us: u64, sigma: f64) -> Self {
        DelayModel::LogNormal {
            median: Duration::from_micros(median_us),
            sigma,
        }
    }

    /// Draws one delay.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        match self {
            DelayModel::Constant(d) => *d,
            DelayModel::LogNormal { median, sigma } => {
                let z = standard_normal(rng);
                let ln_median = (median.as_nanos() as f64).max(1.0).ln();
                let nanos = (ln_median + sigma * z).exp();
                Duration::from_nanos(nanos.clamp(0.0, 1e18) as u64)
            }
        }
    }

    /// Draws a round trip over a link with this one-way delay: two
    /// independent one-way draws, outbound first.
    ///
    /// # Example
    ///
    /// ```
    /// use xsearch_net_sim::DelayModel;
    /// use rand::SeedableRng;
    ///
    /// let link = DelayModel::constant_ms(20);
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    /// assert_eq!(link.rtt(&mut rng).as_millis(), 40);
    /// ```
    pub fn rtt<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        self.sample(rng) + self.sample(rng)
    }

    /// The distribution's median (exact for all variants).
    #[must_use]
    pub fn median(&self) -> Duration {
        match self {
            DelayModel::Constant(d) => *d,
            DelayModel::LogNormal { median, .. } => *median,
        }
    }
}

/// Busy-spins for `d` — models CPU-bound service time without yielding the
/// core (as a relay's crypto would).
pub fn busy_wait(d: Duration) {
    let start = std::time::Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// One draw from N(0, 1) via Box-Muller.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn busy_wait_lasts_at_least_requested() {
        let start = std::time::Instant::now();
        busy_wait(Duration::from_millis(5));
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn constant_is_constant() {
        let m = DelayModel::constant_ms(25);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), Duration::from_millis(25));
        }
    }

    #[test]
    fn lognormal_median_is_close() {
        let m = DelayModel::lognormal_ms(100, 0.5);
        let mut rng = StdRng::seed_from_u64(4);
        let mut samples: Vec<u128> = (0..4001).map(|_| m.sample(&mut rng).as_nanos()).collect();
        samples.sort_unstable();
        let median = samples[samples.len() / 2] as f64 / 1e6;
        assert!((median - 100.0).abs() < 8.0, "median {median} ms");
    }

    #[test]
    fn lognormal_has_right_tail() {
        let m = DelayModel::lognormal_ms(100, 0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..4000)
            .map(|_| m.sample(&mut rng).as_secs_f64() * 1e3)
            .collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        // Log-normal mean exceeds median: e^{σ²/2} ≈ 1.13.
        assert!(mean > 105.0, "mean {mean}");
    }

    #[test]
    fn median_accessor_matches_variants() {
        assert_eq!(
            DelayModel::constant_ms(7).median(),
            Duration::from_millis(7)
        );
        assert_eq!(
            DelayModel::lognormal_ms(40, 0.4).median(),
            Duration::from_millis(40)
        );
    }

    proptest! {
        #[test]
        fn samples_never_negative_or_huge(median_ms in 1u64..10_000, sigma in 0.0f64..2.0, seed: u64) {
            let m = DelayModel::lognormal_ms(median_ms, sigma);
            let mut rng = StdRng::seed_from_u64(seed);
            let d = m.sample(&mut rng);
            prop_assert!(d <= Duration::from_secs(3600), "sample {d:?}");
        }
    }
}
