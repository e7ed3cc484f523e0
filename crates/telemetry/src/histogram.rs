//! A log-bucketed histogram for latency values, in the spirit of
//! HdrHistogram: constant-time recording, bounded relative error on
//! percentile queries, mergeable across threads.
//!
//! Values are dimensionless `u64`s; the load generator and the registry's
//! histograms record microseconds.

/// Sub-bucket resolution: each power-of-two range is split into this many
/// linear sub-buckets, bounding relative quantile error to 1/64 ≈ 1.6%.
const SUB_BUCKETS: usize = 64;
const SUB_BITS: u32 = 6; // log2(SUB_BUCKETS)

/// Number of major (power-of-two) buckets needed to cover u64.
const MAJOR_BUCKETS: usize = 64;

/// A mergeable log-bucketed histogram.
///
/// # Example
///
/// ```
/// use xsearch_telemetry::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [100, 200, 300, 400, 1000] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.quantile(0.5) >= 200 && h.quantile(0.5) <= 310);
/// assert!(h.max() >= 1000);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; MAJOR_BUCKETS * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Maps a value to its bucket index.
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        // Position of the highest set bit.
        let msb = 63 - value.leading_zeros();
        // Major bucket: how many doublings above the linear range.
        let major = (msb - SUB_BITS + 1) as usize;
        // Sub-bucket: the SUB_BITS bits below the msb.
        let sub = ((value >> (msb - SUB_BITS)) & (SUB_BUCKETS as u64 - 1)) as usize;
        // Major 0 is the linear range (values < SUB_BUCKETS, one slot
        // each); every later major splits [2^msb, 2^(msb+1)) into
        // SUB_BUCKETS equal slots, so all SUB_BUCKETS slots of a major are
        // used.
        major * SUB_BUCKETS + sub
    }

    /// The lower edge of a bucket: the smallest value `index_of` maps to
    /// `index` (its inverse up to bucket granularity).
    fn value_of(index: usize) -> u64 {
        let major = index / SUB_BUCKETS;
        let sub = (index % SUB_BUCKETS) as u64;
        if major == 0 {
            return sub;
        }
        let msb = major as u32 + SUB_BITS - 1;
        ((1u64 << SUB_BITS) | sub) << (msb - SUB_BITS)
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        let idx = Self::index_of(value).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Value at quantile `q` in [0, 1]: the lower edge of the bucket that
    /// holds the `q`-th recorded value, clamped to [`Self::min`,
    /// `Self::max`]. It therefore reads up to 1/64 of the value below the
    /// true quantile and never above it.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside [0, 1].
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(idx).min(self.max).max(self.min());
            }
        }
        self.max
    }

    /// Merges another histogram into this one (for per-thread recorders).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Convenience percentile summary: (p50, p90, p99, p999).
    #[must_use]
    pub fn summary(&self) -> (u64, u64, u64, u64) {
        (
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(0.99),
            self.quantile(0.999),
        )
    }
}

use std::sync::atomic::{AtomicU64, Ordering};

/// A lock-free log-bucketed histogram for concurrent recorders: the
/// storage behind the registry's [`Histogram`](crate::Histogram) handle.
///
/// Shares the exact bucket layout of [`LatencyHistogram`], so a
/// snapshot merges into one losslessly: recording values through any
/// number of threads and snapshotting is observably identical (count,
/// sum, min, max, every quantile) to recording the same values into a
/// single `LatencyHistogram`.
///
/// `record` is two relaxed `fetch_add`s on the hot path (bucket slot and
/// count) plus sum/min/max maintenance — no locks, no allocation — so it
/// is safe to call from latency-critical request paths.
#[derive(Debug)]
pub(crate) struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub(crate) fn new() -> Self {
        AtomicHistogram {
            counts: (0..MAJOR_BUCKETS * SUB_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation. Lock-free; callable from any thread
    /// through a shared reference.
    pub(crate) fn record(&self, value: u64) {
        let idx = LatencyHistogram::index_of(value).min(self.counts.len() - 1);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets every bucket and aggregate back to the empty state.
    ///
    /// Not atomic with respect to concurrent recorders: values recorded
    /// during the reset may be partially dropped. Intended for bench
    /// phase boundaries where recorders are quiescent.
    pub(crate) fn reset(&self) {
        for slot in &self.counts {
            slot.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// Materializes a mergeable [`LatencyHistogram`] snapshot.
    ///
    /// The snapshot is not a point-in-time cut under concurrent writes
    /// (relaxed loads per bucket), but every recorded value lands in
    /// exactly one future snapshot's bucket, so quiescent snapshots are
    /// exact. The sum wraps above `u64::MAX`; microsecond latencies stay
    /// far below it.
    pub(crate) fn snapshot(&self) -> LatencyHistogram {
        let mut count = 0u64;
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|slot| {
                let c = slot.load(Ordering::Relaxed);
                count += c;
                c
            })
            .collect();
        let min = self.min.load(Ordering::Relaxed);
        LatencyHistogram {
            counts,
            count,
            sum: u128::from(self.sum.load(Ordering::Relaxed)),
            min,
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_BUCKETS as u64 - 1);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            h.record(rng.gen_range(1..1_000_000));
        }
        let mut last = 0;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0);
            assert!(q >= last, "quantile regressed at {i}");
            last = q;
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        // A single value: every quantile must be within ~3.2% of it
        // (one sub-bucket of width 2^(msb-6)).
        for value in [100u64, 1_000, 10_000, 1_000_000, 123_456_789] {
            let mut h2 = LatencyHistogram::new();
            h2.record(value);
            let got = h2.quantile(0.5) as f64;
            let err = (got - value as f64).abs() / value as f64;
            assert!(err < 0.033, "value {value} got {got} err {err}");
            h.record(value);
        }
    }

    #[test]
    fn mean_is_exact() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut combined = LatencyHistogram::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(1..100_000);
            if rng.gen_bool(0.5) {
                a.record(v);
            } else {
                b.record(v);
            }
            combined.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert_eq!(a.max(), combined.max());
        assert_eq!(a.quantile(0.99), combined.quantile(0.99));
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn quantile_rejects_out_of_range() {
        let _ = LatencyHistogram::new().quantile(1.5);
    }

    #[test]
    fn quantile_edges_bracket_the_extremes() {
        let mut h = LatencyHistogram::new();
        for v in [1u64, 5, 64, 1_000, 123_456] {
            h.record(v);
        }
        // q = 0 lands in the minimum's bucket, clamped up to the exact min.
        assert_eq!(h.quantile(0.0), h.min());
        // q = 1 lands in the maximum's bucket: within one sub-bucket of max.
        let top = h.quantile(1.0);
        assert!(top <= h.max());
        assert!(top as f64 >= h.max() as f64 * (1.0 - 1.0 / 32.0) - 1.0);
    }

    #[test]
    fn empty_histogram_edge_quantiles_and_merge() {
        let empty = LatencyHistogram::new();
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(1.0), 0);

        // empty ∪ empty is still empty...
        let mut a = LatencyHistogram::new();
        a.merge(&LatencyHistogram::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), 0);

        // ...merging empty into data changes nothing observable...
        let mut b = LatencyHistogram::new();
        b.record(42);
        b.merge(&LatencyHistogram::new());
        assert_eq!((b.count(), b.min(), b.max()), (1, 42, 42));
        assert_eq!(b.quantile(0.5), 42);

        // ...and merging data into empty adopts it (the empty side's
        // u64::MAX min sentinel must not leak).
        let mut c = LatencyHistogram::new();
        c.merge(&b);
        assert_eq!((c.count(), c.min(), c.max()), (1, 42, 42));
        assert!((c.mean() - 42.0).abs() < 1e-9);
    }

    proptest! {
        /// Merging per-thread histograms must be observably identical to
        /// having recorded every value into a single histogram: same
        /// count/min/max/mean and the same value at *every* quantile.
        #[test]
        fn merge_of_two_recorders_equals_one_recorder(
            left in proptest::collection::vec(0u64..10_000_000, 0..200),
            right in proptest::collection::vec(0u64..10_000_000, 0..200),
        ) {
            let mut a = LatencyHistogram::new();
            let mut b = LatencyHistogram::new();
            let mut one = LatencyHistogram::new();
            for &v in &left {
                a.record(v);
                one.record(v);
            }
            for &v in &right {
                b.record(v);
                one.record(v);
            }
            a.merge(&b);
            prop_assert_eq!(a.count(), one.count());
            prop_assert_eq!(a.min(), one.min());
            prop_assert_eq!(a.max(), one.max());
            prop_assert!((a.mean() - one.mean()).abs() < 1e-9);
            for i in 0..=20 {
                let q = f64::from(i) / 20.0;
                prop_assert_eq!(a.quantile(q), one.quantile(q), "q = {}", q);
            }
        }
    }

    #[test]
    fn atomic_histogram_starts_empty() {
        let h = AtomicHistogram::new();
        assert_eq!(h.count(), 0);
        let snap = h.snapshot();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.min(), 0);
        assert_eq!(snap.max(), 0);
        assert_eq!(snap.quantile(0.99), 0);
    }

    #[test]
    fn atomic_snapshot_merges_into_latency_histogram() {
        let atomic = AtomicHistogram::new();
        let mut plain = LatencyHistogram::new();
        plain.record(10);
        atomic.record(500_000);
        plain.merge(&atomic.snapshot());
        assert_eq!(plain.count(), 2);
        assert_eq!(plain.min(), 10);
        assert_eq!(plain.max(), 500_000);
    }

    #[test]
    fn atomic_reset_returns_to_empty() {
        let h = AtomicHistogram::new();
        for v in [1u64, 100, 10_000] {
            h.record(v);
        }
        h.reset();
        assert_eq!(h.count(), 0);
        let snap = h.snapshot();
        assert_eq!((snap.count(), snap.min(), snap.max()), (0, 0, 0));
        // And it keeps recording correctly after the reset.
        h.record(7);
        assert_eq!(h.snapshot().min(), 7);
    }

    /// Eight concurrent recorders into one `AtomicHistogram` must be
    /// observably identical — count, mean, p50/p99, min, max — to
    /// recording the same values single-threaded and merging.
    #[test]
    fn eight_thread_atomic_recorder_equals_single_thread_merge() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 5_000;
        // Deterministic per-thread value streams.
        let streams: Vec<Vec<u64>> = (0..THREADS)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(0xA70_0000 + t as u64);
                (0..PER_THREAD)
                    .map(|_| rng.gen_range(1..50_000_000))
                    .collect()
            })
            .collect();

        let atomic = AtomicHistogram::new();
        std::thread::scope(|scope| {
            for stream in &streams {
                let atomic = &atomic;
                scope.spawn(move || {
                    for &v in stream {
                        atomic.record(v);
                    }
                });
            }
        });

        // Reference: one single-threaded recorder per stream, merged.
        let mut reference = LatencyHistogram::new();
        for stream in &streams {
            let mut per_thread = LatencyHistogram::new();
            for &v in stream {
                per_thread.record(v);
            }
            reference.merge(&per_thread);
        }

        let snap = atomic.snapshot();
        assert_eq!(snap.count(), reference.count());
        assert_eq!(snap.min(), reference.min());
        assert_eq!(snap.max(), reference.max());
        assert!((snap.mean() - reference.mean()).abs() < 1e-9);
        for i in 0..=100 {
            let q = f64::from(i) / 100.0;
            assert_eq!(snap.quantile(q), reference.quantile(q), "q = {q}");
        }
    }

    proptest! {
        /// Bucket-layout equivalence: for any value set, an
        /// `AtomicHistogram` snapshot and a `LatencyHistogram` agree on
        /// every observable.
        #[test]
        fn atomic_and_plain_histograms_agree(
            values in proptest::collection::vec(0u64..10_000_000, 0..300),
        ) {
            let atomic = AtomicHistogram::new();
            let mut plain = LatencyHistogram::new();
            for &v in &values {
                atomic.record(v);
                plain.record(v);
            }
            let snap = atomic.snapshot();
            prop_assert_eq!(snap.count(), plain.count());
            prop_assert_eq!(snap.min(), plain.min());
            prop_assert_eq!(snap.max(), plain.max());
            prop_assert!((snap.mean() - plain.mean()).abs() < 1e-9);
            for i in 0..=20 {
                let q = f64::from(i) / 20.0;
                prop_assert_eq!(snap.quantile(q), plain.quantile(q), "q = {}", q);
            }
        }
    }

    #[test]
    fn index_value_roundtrip_is_within_bucket() {
        for value in [0u64, 1, 63, 64, 65, 127, 128, 1000, 65_535, 1 << 40] {
            let idx = LatencyHistogram::index_of(value);
            let rep = LatencyHistogram::value_of(idx);
            // The representative is the bucket's lower bound: within
            // one sub-bucket width of the value.
            assert!(rep <= value, "rep {rep} > value {value}");
            let next = LatencyHistogram::value_of(idx + 1);
            assert!(next > value, "next {next} <= value {value}");
        }
    }

    proptest! {
        #[test]
        fn quantile_brackets_true_percentile(values in proptest::collection::vec(1u64..10_000_000, 1..500), q in 0.0f64..=1.0) {
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1] as f64;
            let got = h.quantile(q) as f64;
            // Bucket granularity bounds relative error by 1/64.
            prop_assert!(got <= truth * 1.0 + truth / 32.0 + 1.0, "got {got} truth {truth}");
            prop_assert!(got >= truth - truth / 32.0 - 1.0, "got {got} truth {truth}");
        }

        #[test]
        fn count_and_extremes_track(values in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = LatencyHistogram::new();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.min(), *values.iter().min().unwrap());
            prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        }
    }
}
