//! wrk2-style open-loop load generation, and the Fig 5 reading of its
//! reports.
//!
//! The paper's Fig 5 uses wrk2 to drive each proxy at a fixed request rate
//! and record latency until the proxy saturates. wrk2's defining features
//! are reproduced here:
//!
//! * **open loop** — requests are issued on a fixed schedule regardless of
//!   how slowly the service responds, unlike closed-loop benchmarks that
//!   only send when the previous response returned;
//! * **coordinated-omission correction** — latency is measured from the
//!   *scheduled* send time, so queueing delay during overload is charged
//!   to the service rather than silently dropped.
//!
//! # Example
//!
//! ```
//! use xsearch_bench::load::{run_open_loop, LoadSpec};
//! use std::time::Duration;
//!
//! let spec = LoadSpec { rate_per_sec: 2_000.0, duration: Duration::from_millis(200), threads: 2 };
//! let report = run_open_loop(&spec, &|| true);
//! assert!(report.completed > 0);
//! ```

use crate::summary::{fixed, Json, Obj};
use std::time::{Duration, Instant};
use xsearch_telemetry::LatencyHistogram;

/// The send schedule for a constant-rate open loop: request `i` is due at
/// `i / rate` after the start.
#[derive(Debug, Clone, Copy)]
struct Schedule {
    nanos_per_request: f64,
}

impl Schedule {
    /// A schedule for `rate_per_sec` requests per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive and finite.
    fn new(rate_per_sec: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "rate must be positive, got {rate_per_sec}"
        );
        Schedule {
            nanos_per_request: 1e9 / rate_per_sec,
        }
    }

    /// When request `index` is due, relative to the start of the run.
    fn due_at(&self, index: u64) -> Duration {
        Duration::from_nanos((self.nanos_per_request * index as f64) as u64)
    }

    /// How many requests are due within `window`: the count of indices
    /// `i` with `due_at(i) <= window`. Request 0 is due at t = 0, so any
    /// window contains at least one request — at 100 req/s a 95 ms
    /// window holds the 10 requests due at 0, 10, …, 90 ms.
    fn requests_within(&self, window: Duration) -> u64 {
        (window.as_nanos() as f64 / self.nanos_per_request).floor() as u64 + 1
    }
}

/// The outcome of one constant-rate run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The offered rate (requests per second the schedule aimed for).
    pub offered_rate: f64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests that failed (e.g. shed by a saturated station).
    pub failed: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_secs: f64,
    /// Latency histogram in **microseconds**, measured from the scheduled
    /// send time (coordinated-omission corrected).
    pub latency_us: LatencyHistogram,
}

impl RunReport {
    /// Achieved throughput in completed requests per second.
    #[must_use]
    pub fn achieved_rate(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / self.elapsed_secs
        }
    }

    /// Error fraction in [0, 1].
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        let total = self.completed + self.failed;
        if total == 0 {
            0.0
        } else {
            self.failed as f64 / total as f64
        }
    }

    /// Median latency in milliseconds.
    #[must_use]
    pub fn median_latency_ms(&self) -> f64 {
        self.latency_us.quantile(0.5) as f64 / 1e3
    }

    /// 99th-percentile latency in milliseconds.
    #[must_use]
    pub fn p99_latency_ms(&self) -> f64 {
        self.latency_us.quantile(0.99) as f64 / 1e3
    }

    /// Whether the service kept up: achieved ≥ 95% of offered and errors
    /// under 1% — the Fig 5 saturation criterion.
    #[must_use]
    pub fn kept_up(&self) -> bool {
        self.achieved_rate() >= 0.95 * self.offered_rate && self.error_rate() < 0.01
    }
}

/// Parameters of one constant-rate run.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec {
    /// Offered request rate (requests/second across all threads).
    pub rate_per_sec: f64,
    /// How long to keep offering load.
    pub duration: Duration,
    /// Generator threads; each sends every `threads`-th request.
    pub threads: usize,
}

/// Drives `service` at the spec'd rate and returns the report.
///
/// `service` is called once per request on a generator thread and returns
/// `true` on success, `false` when the request was rejected/failed.
/// Latency is measured from each request's **scheduled** time, so when the
/// service cannot keep up, the growing backlog appears as latency — wrk2's
/// coordinated-omission correction.
///
/// # Panics
///
/// Panics if `threads` is 0 or the rate is not positive.
pub fn run_open_loop<S>(spec: &LoadSpec, service: &S) -> RunReport
where
    S: Fn() -> bool + Sync,
{
    assert!(spec.threads > 0, "need at least one generator thread");
    let schedule = Schedule::new(spec.rate_per_sec);
    let total = schedule.requests_within(spec.duration);
    let start = Instant::now();

    let results: Vec<(LatencyHistogram, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.threads)
            .map(|thread_idx| {
                scope.spawn(move || {
                    let mut hist = LatencyHistogram::new();
                    let mut completed = 0u64;
                    let mut failed = 0u64;
                    let mut index = thread_idx as u64;
                    while index < total {
                        let due = schedule.due_at(index);
                        // Wait for the scheduled instant (sleep coarse,
                        // spin fine).
                        loop {
                            let now = start.elapsed();
                            if now >= due {
                                break;
                            }
                            let remaining = due - now;
                            if remaining > Duration::from_micros(200) {
                                std::thread::sleep(remaining - Duration::from_micros(100));
                            } else {
                                std::hint::spin_loop();
                            }
                        }
                        let ok = service();
                        let latency = start.elapsed().saturating_sub(due);
                        hist.record(latency.as_micros() as u64);
                        if ok {
                            completed += 1;
                        } else {
                            failed += 1;
                        }
                        index += spec.threads as u64;
                    }
                    (hist, completed, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });

    let elapsed = start.elapsed().as_secs_f64();
    let mut latency = LatencyHistogram::new();
    let mut completed = 0;
    let mut failed = 0;
    for (h, c, f) in results {
        latency.merge(&h);
        completed += c;
        failed += f;
    }
    RunReport {
        offered_rate: spec.rate_per_sec,
        completed,
        failed,
        elapsed_secs: elapsed,
        latency_us: latency,
    }
}

/// Sweeps rates until the service stops keeping up, returning one report
/// per rate — the series Fig 5 plots. The sweep stops one step after the
/// first saturated point so the curve shows the collapse.
pub fn sweep_rates<S>(
    rates: &[f64],
    duration: Duration,
    threads: usize,
    service: &S,
) -> Vec<RunReport>
where
    S: Fn() -> bool + Sync,
{
    let mut reports = Vec::new();
    let mut saturated_points = 0;
    for &rate in rates {
        let report = run_open_loop(
            &LoadSpec {
                rate_per_sec: rate,
                duration,
                threads,
            },
            service,
        );
        let kept_up = report.kept_up();
        reports.push(report);
        if !kept_up {
            saturated_points += 1;
            if saturated_points >= 2 {
                break;
            }
        }
    }
    reports
}

/// The kept-up point with the best achieved rate.
fn best(reports: &[RunReport]) -> Option<&RunReport> {
    let kept_up = reports.iter().filter(|r| r.kept_up());
    kept_up.max_by(|a, b| a.achieved_rate().total_cmp(&b.achieved_rate()))
}

/// Max sustained rate: the best achieved rate among kept-up points.
#[must_use]
pub fn capacity(reports: &[RunReport]) -> f64 {
    best(reports).map_or(0.0, RunReport::achieved_rate)
}

/// p99 latency (ms) at that point; NaN when no point kept up.
#[must_use]
pub fn p99_at_capacity(reports: &[RunReport]) -> f64 {
    best(reports).map_or(f64::NAN, RunReport::p99_latency_ms)
}

/// The sweep's points as an array of
/// `{offered_rps, achieved_rps, median_ms, p99_ms, kept_up}` objects.
#[must_use]
pub fn json_points(reports: &[RunReport]) -> Json {
    let point = |r: &RunReport| {
        Obj::new()
            .field("offered_rps", fixed(r.offered_rate, 1))
            .field("achieved_rps", fixed(r.achieved_rate(), 1))
            .field("median_ms", fixed(r.median_latency_ms(), 3))
            .field("p99_ms", fixed(r.p99_latency_ms(), 3))
            .field("kept_up", r.kept_up())
    };
    reports.iter().map(point).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn due_times_are_evenly_spaced() {
        let s = Schedule::new(1000.0); // 1 ms apart
        assert_eq!(s.due_at(0), Duration::ZERO);
        assert_eq!(s.due_at(1), Duration::from_millis(1));
        assert_eq!(s.due_at(10), Duration::from_millis(10));
    }

    #[test]
    fn requests_within_window() {
        let s = Schedule::new(100.0);
        // Due at 0, 10, …, 1000 ms inclusive: 101 requests.
        assert_eq!(s.requests_within(Duration::from_secs(1)), 101);
        // Due at 0, 10, …, 90 ms: request 0 counts, so 10 — not 9.
        assert_eq!(s.requests_within(Duration::from_millis(95)), 10);
        // The degenerate window still holds request 0.
        assert_eq!(s.requests_within(Duration::ZERO), 1);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_panics() {
        let _ = Schedule::new(0.0);
    }

    proptest! {
        #[test]
        fn due_at_is_monotone(rate in 1.0f64..1e6, i in 0u64..10_000) {
            let s = Schedule::new(rate);
            prop_assert!(s.due_at(i + 1) >= s.due_at(i));
        }

        #[test]
        fn count_and_due_agree(rate in 1.0f64..1e5, secs in 1u64..10) {
            let s = Schedule::new(rate);
            let window = Duration::from_secs(secs);
            let n = s.requests_within(window);
            prop_assert!(s.due_at(n) >= window || n > 0 && s.due_at(n) <= window + Duration::from_millis(1));
        }

        /// `requests_within` counts exactly the indices `due_at` places
        /// inside the window: the last counted request is due within it
        /// (modulo float rounding) and the first uncounted one is not.
        #[test]
        fn requests_within_matches_due_at(rate in 1.0f64..1e5, window_ms in 0u64..20_000) {
            let s = Schedule::new(rate);
            let window = Duration::from_millis(window_ms);
            let n = s.requests_within(window);
            prop_assert!(n >= 1, "request 0 is always due");
            let slack = Duration::from_micros(1);
            prop_assert!(
                s.due_at(n - 1) <= window + slack,
                "request {} due {:?} is outside the {window:?} window",
                n - 1,
                s.due_at(n - 1),
            );
            prop_assert!(
                s.due_at(n) + slack > window,
                "request {n} due {:?} should be past the {window:?} window",
                s.due_at(n),
            );
        }
    }

    fn report(completed: u64, failed: u64, secs: f64, offered: f64) -> RunReport {
        let mut h = LatencyHistogram::new();
        for i in 1..=100 {
            h.record(i * 100);
        }
        RunReport {
            offered_rate: offered,
            completed,
            failed,
            elapsed_secs: secs,
            latency_us: h,
        }
    }

    #[test]
    fn achieved_rate_divides_by_elapsed() {
        let r = report(1000, 0, 2.0, 500.0);
        assert_eq!(r.achieved_rate(), 500.0);
        assert!(r.kept_up());
    }

    #[test]
    fn error_rate_fraction() {
        let r = report(90, 10, 1.0, 100.0);
        assert!((r.error_rate() - 0.1).abs() < 1e-12);
        assert!(!r.kept_up());
    }

    #[test]
    fn latency_percentiles_convert_to_ms() {
        let r = report(100, 0, 1.0, 100.0);
        assert!(r.median_latency_ms() > 0.0);
        assert!(r.p99_latency_ms() >= r.median_latency_ms());
    }

    #[test]
    fn empty_run_is_safe() {
        let r = RunReport {
            offered_rate: 10.0,
            completed: 0,
            failed: 0,
            elapsed_secs: 0.0,
            latency_us: LatencyHistogram::new(),
        };
        assert_eq!(r.achieved_rate(), 0.0);
        assert_eq!(r.error_rate(), 0.0);
    }

    #[test]
    fn capacity_takes_best_kept_up_point() {
        let reports = vec![
            report(100, 0, 1.0, 100.0), // kept up at 100
            report(200, 0, 1.0, 200.0), // kept up at 200
            report(250, 0, 1.0, 400.0), // collapsed
        ];
        assert!((capacity(&reports) - 200.0).abs() < 1e-9);
        assert!((p99_at_capacity(&reports) - reports[1].p99_latency_ms()).abs() < 1e-9);
        assert_eq!(capacity(&[]), 0.0);
        assert!(p99_at_capacity(&reports[2..]).is_nan());
    }

    #[test]
    fn json_points_is_valid_shape() {
        let mut summary = crate::summary::Summary::new("points");
        summary.row("points", json_points(&[report(100, 0, 1.0, 100.0)]));
        let line = &summary.lines()[1];
        assert!(
            line.starts_with("points: offered_rps=100 achieved_rps=100 median_ms="),
            "{line}"
        );
        assert!(
            line.contains(" p99_ms=") && line.ends_with(" kept_up=true"),
            "{line}"
        );
    }

    #[test]
    fn fast_service_keeps_up() {
        let spec = LoadSpec {
            rate_per_sec: 5_000.0,
            duration: Duration::from_millis(300),
            threads: 2,
        };
        let calls = AtomicU64::new(0);
        let report = run_open_loop(&spec, &|| {
            calls.fetch_add(1, Ordering::Relaxed);
            true
        });
        // Request 0 is due at t = 0, so the run sends rate × duration
        // requests *plus one* (the schedule's fencepost).
        let expected = (spec.rate_per_sec * spec.duration.as_secs_f64()) as u64 + 1;
        assert_eq!(report.completed, expected);
        assert_eq!(calls.load(Ordering::Relaxed), expected);
        assert!(report.kept_up(), "achieved {}", report.achieved_rate());
        assert!(
            report.median_latency_ms() < 5.0,
            "median {}",
            report.median_latency_ms()
        );
    }

    #[test]
    fn slow_service_shows_coordinated_omission_latency() {
        // Service takes 2 ms but we offer 2,000/s on one thread: backlog
        // grows, and CO-corrected latency must blow past the service time.
        let spec = LoadSpec {
            rate_per_sec: 2_000.0,
            duration: Duration::from_millis(300),
            threads: 1,
        };
        let report = run_open_loop(&spec, &|| {
            std::thread::sleep(Duration::from_millis(2));
            true
        });
        assert!(
            report.p99_latency_ms() > 20.0,
            "p99 {} ms should reflect queueing, not just 2 ms service",
            report.p99_latency_ms()
        );
        assert!(report.achieved_rate() < 1_000.0);
    }

    #[test]
    fn failures_are_counted() {
        let spec = LoadSpec {
            rate_per_sec: 1_000.0,
            duration: Duration::from_millis(100),
            threads: 2,
        };
        let toggle = AtomicU64::new(0);
        let report = run_open_loop(&spec, &|| {
            toggle.fetch_add(1, Ordering::Relaxed).is_multiple_of(2)
        });
        assert!(report.failed > 0);
        assert!(
            (report.error_rate() - 0.5).abs() < 0.1,
            "error rate {}",
            report.error_rate()
        );
    }

    #[test]
    fn sweep_stops_after_collapse() {
        let rates = [100.0, 200.0, 400.0, 800.0, 1_600.0, 3_200.0];
        let reports = sweep_rates(&rates, Duration::from_millis(150), 1, &|| {
            std::thread::sleep(Duration::from_millis(3)); // caps at ~330/s
            true
        });
        assert!(
            reports.len() < rates.len(),
            "sweep should stop early, got {}",
            reports.len()
        );
        assert!(!reports.last().unwrap().kept_up());
    }
}
