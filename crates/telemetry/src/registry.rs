//! The lock-free metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`
//! clones; recording through them never takes a lock. The registry's own
//! mutexes guard only *registration* and *snapshotting* — control-plane
//! operations far off the request path.
//!
//! # Leak-freedom by construction
//!
//! Metric names, help strings and label keys are `&'static str`; label
//! values are the closed [`LabelValue`] enum (a static string or an
//! integer). There is no API through which a runtime `String` — a query,
//! a history entry, a user identifier — can become part of an exported
//! name, label or value. The cluster leakage-guard test additionally
//! scans every rendered exposition against injected canary queries.

use crate::histogram::{AtomicHistogram, LatencyHistogram};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Stripes per counter. Eight cache-padded slots keep concurrent
/// incrementers from bouncing one line between cores.
const STRIPES: usize = 8;

/// A cache-line-padded atomic, so adjacent stripes never share a line.
#[repr(align(64))]
#[derive(Debug, Default)]
struct PaddedU64(AtomicU64);

/// Distributes threads round-robin over counter stripes.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe, assigned once on first use.
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
}

fn stripe_id() -> usize {
    STRIPE.with(|s| *s)
}

/// A label value: a compile-time string or an integer. The closed enum
/// is what keeps runtime strings out of the exposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelValue {
    /// A static string chosen at compile time (e.g. a policy name).
    Static(&'static str),
    /// A small integer (e.g. a replica id).
    Int(u64),
}

impl std::fmt::Display for LabelValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabelValue::Static(s) => f.write_str(s),
            LabelValue::Int(v) => write!(f, "{v}"),
        }
    }
}

/// A metric label: static key, typed value.
pub type Label = (&'static str, LabelValue);

fn check_name(name: &'static str) {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
        "metric names must be non-empty snake_case: {name:?}"
    );
}

#[derive(Debug)]
struct CounterInner {
    name: &'static str,
    help: &'static str,
    labels: Vec<Label>,
    stripes: [PaddedU64; STRIPES],
}

/// A monotonically increasing striped counter.
///
/// `inc`/`add` are one relaxed load (the global kill switch) plus one
/// relaxed `fetch_add` on this thread's stripe.
#[derive(Clone, Debug)]
pub struct Counter(Arc<CounterInner>);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.0.stripes[stripe_id()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value: the sum over all stripes.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
            .stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

#[derive(Debug)]
struct GaugeInner {
    name: &'static str,
    help: &'static str,
    labels: Vec<Label>,
    value: AtomicI64,
}

/// A settable instantaneous value.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<GaugeInner>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        if !crate::enabled() {
            return;
        }
        self.0.value.store(v, Ordering::Relaxed);
    }

    /// Adds to the gauge (negative to subtract).
    pub fn add(&self, delta: i64) {
        if !crate::enabled() {
            return;
        }
        self.0.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    name: &'static str,
    help: &'static str,
    labels: Vec<Label>,
    histogram: AtomicHistogram,
}

/// A lock-free log-bucketed histogram handle; recording is a few relaxed
/// atomic operations, and [`Histogram::snapshot`] reads it back as a
/// mergeable [`LatencyHistogram`].
///
/// # Example
///
/// ```
/// use xsearch_telemetry::Registry;
///
/// let h = Registry::new().histogram("demo_latency_us", "Latency", &[]);
/// h.record(250);
/// h.record(4_000);
/// let snap = h.snapshot();
/// assert_eq!(snap.count(), 2);
/// assert_eq!(snap.min(), 250);
/// assert_eq!(snap.max(), 4_000);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Records one observation (dimensionless; convention here is
    /// microseconds).
    pub fn record(&self, value: u64) {
        if !crate::enabled() {
            return;
        }
        self.0.histogram.record(value);
    }

    /// Snapshots into a mergeable [`LatencyHistogram`].
    #[must_use]
    pub fn snapshot(&self) -> LatencyHistogram {
        self.0.histogram.snapshot()
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.histogram.count()
    }

    /// Resets the histogram (bench phase boundaries only; not atomic
    /// with respect to concurrent recorders).
    pub fn reset(&self) {
        self.0.histogram.reset();
    }
}

/// A pull-style gauge: evaluated at snapshot time by reading existing
/// hot-path atomics, so instrumented code pays nothing at record time.
struct Poll {
    name: &'static str,
    help: &'static str,
    labels: Vec<Label>,
    read: Box<dyn Fn() -> f64 + Send + Sync>,
}

impl std::fmt::Debug for Poll {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poll").field("name", &self.name).finish()
    }
}

/// The metrics registry: the single place every tier registers its
/// counters, gauges, histograms and poll collectors, and the single
/// place a snapshot reads them all back out.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<Vec<Arc<CounterInner>>>,
    gauges: Mutex<Vec<Arc<GaugeInner>>>,
    histograms: Mutex<Vec<Arc<HistogramInner>>>,
    polls: Mutex<Vec<Poll>>,
}

impl Registry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a striped counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not snake_case ASCII.
    pub fn counter(&self, name: &'static str, help: &'static str, labels: &[Label]) -> Counter {
        check_name(name);
        let inner = Arc::new(CounterInner {
            name,
            help,
            labels: labels.to_vec(),
            stripes: Default::default(),
        });
        self.counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&inner));
        Counter(inner)
    }

    /// Registers a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not snake_case ASCII.
    pub fn gauge(&self, name: &'static str, help: &'static str, labels: &[Label]) -> Gauge {
        check_name(name);
        let inner = Arc::new(GaugeInner {
            name,
            help,
            labels: labels.to_vec(),
            value: AtomicI64::new(0),
        });
        self.gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&inner));
        Gauge(inner)
    }

    /// Registers a lock-free histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not snake_case ASCII.
    pub fn histogram(&self, name: &'static str, help: &'static str, labels: &[Label]) -> Histogram {
        check_name(name);
        let inner = Arc::new(HistogramInner {
            name,
            help,
            labels: labels.to_vec(),
            histogram: AtomicHistogram::new(),
        });
        self.histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&inner));
        Histogram(inner)
    }

    /// Registers a poll collector: `read` runs at snapshot time (never
    /// on the request path) and typically loads an existing atomic.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not snake_case ASCII.
    pub fn poll(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[Label],
        read: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        check_name(name);
        self.polls
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Poll {
                name,
                help,
                labels: labels.to_vec(),
                read: Box::new(read),
            });
    }

    /// Reads every registered metric into an owned [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|c| Sample {
                name: c.name,
                help: c.help,
                labels: c.labels.clone(),
                value: c
                    .stripes
                    .iter()
                    .map(|s| s.0.load(Ordering::Relaxed) as f64)
                    .sum(),
            })
            .collect();
        let mut gauges: Vec<Sample> = self
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|g| Sample {
                name: g.name,
                help: g.help,
                labels: g.labels.clone(),
                value: g.value.load(Ordering::Relaxed) as f64,
            })
            .collect();
        gauges.extend(
            self.polls
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .map(|p| Sample {
                    name: p.name,
                    help: p.help,
                    labels: p.labels.clone(),
                    value: (p.read)(),
                }),
        );
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|h| HistogramSample {
                name: h.name,
                help: h.help,
                labels: h.labels.clone(),
                histogram: h.histogram.snapshot(),
            })
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One exported counter or gauge value.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Pre-registered static metric name.
    pub name: &'static str,
    /// Pre-registered static help text.
    pub help: &'static str,
    /// Typed labels.
    pub labels: Vec<Label>,
    /// The value at snapshot time.
    pub value: f64,
}

/// One exported histogram.
#[derive(Debug, Clone)]
pub struct HistogramSample {
    /// Pre-registered static metric name.
    pub name: &'static str,
    /// Pre-registered static help text.
    pub help: &'static str,
    /// Typed labels.
    pub labels: Vec<Label>,
    /// The merged bucket snapshot.
    pub histogram: LatencyHistogram,
}

/// An owned point-in-time read of the whole registry, renderable as
/// Prometheus text or JSON.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All counters.
    pub counters: Vec<Sample>,
    /// All gauges, settable and polled.
    pub gauges: Vec<Sample>,
    /// All histograms.
    pub histograms: Vec<HistogramSample>,
}

fn write_labels(out: &mut String, labels: &[Label], extra: Option<(&str, &str)>) {
    use std::fmt::Write;
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{key}=\"{value}\"");
    }
    if let Some((key, value)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{key}=\"{value}\"");
    }
    out.push('}');
}

/// `items` reordered so each name's series are contiguous: a stable sort
/// on the position of the name's first registration.
fn by_name<T>(items: &[T], name: impl Fn(&T) -> &'static str) -> Vec<&T> {
    let mut sorted: Vec<&T> = items.iter().collect();
    sorted.sort_by_key(|item| items.iter().position(|first| name(first) == name(item)));
    sorted
}

/// Writes a name's `# HELP` and `# TYPE` lines when `name` opens a new
/// group.
fn write_header(
    out: &mut String,
    group: &mut Option<&'static str>,
    name: &'static str,
    help: &str,
    kind: &str,
) {
    use std::fmt::Write;
    if *group != Some(name) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        *group = Some(name);
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Snapshot {
    /// The counter or gauge registered as `name` with exactly `labels`
    /// (`None` when no such series exists) — how tests and benches read
    /// one series back out of a snapshot.
    #[must_use]
    pub fn value(&self, name: &str, labels: &[Label]) -> Option<f64> {
        self.counters
            .iter()
            .chain(&self.gauges)
            .find(|s| s.name == name && s.labels == labels)
            .map(|s| s.value)
    }

    /// Renders Prometheus-style text exposition: counters and gauges as
    /// single samples, histograms as summaries (`quantile` labels plus
    /// `_count`/`_sum`/`_min`/`_max`). Each metric name is one group —
    /// `# HELP` and `# TYPE` once, then every labelled series of that
    /// name — with groups in the order their names were first registered.
    #[must_use]
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (kind, samples) in [("counter", &self.counters), ("gauge", &self.gauges)] {
            let mut group = None;
            for s in by_name(samples, |s| s.name) {
                write_header(&mut out, &mut group, s.name, s.help, kind);
                out.push_str(s.name);
                write_labels(&mut out, &s.labels, None);
                let _ = writeln!(out, " {}", fmt_value(s.value));
            }
        }
        let mut group = None;
        for h in by_name(&self.histograms, |h| h.name) {
            write_header(&mut out, &mut group, h.name, h.help, "summary");
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                out.push_str(h.name);
                write_labels(&mut out, &h.labels, Some(("quantile", label)));
                let _ = writeln!(out, " {}", h.histogram.quantile(q));
            }
            for (suffix, value) in [
                ("_count", u128::from(h.histogram.count())),
                ("_sum", h.histogram.sum()),
                ("_min", u128::from(h.histogram.min())),
                ("_max", u128::from(h.histogram.max())),
            ] {
                out.push_str(h.name);
                out.push_str(suffix);
                write_labels(&mut out, &h.labels, None);
                let _ = writeln!(out, " {value}");
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object:
    /// `{"counters": [...], "gauges": [...], "histograms": [...]}`.
    #[must_use]
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\n  \"counters\": [");
        let mut first = true;
        for s in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            json_sample(&mut out, s);
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        first = true;
        for s in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str("\n    ");
            json_sample(&mut out, s);
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        first = true;
        for h in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let (p50, p90, p99, p999) = h.histogram.summary();
            out.push_str("\n    ");
            let _ = write!(out, "{{\"name\":\"{}\"", h.name);
            json_labels(&mut out, &h.labels);
            let _ = write!(
                out,
                ",\"count\":{},\"mean\":{:.3},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{}}}",
                h.histogram.count(),
                h.histogram.mean(),
                h.histogram.min(),
                h.histogram.max(),
                p50,
                p90,
                p99,
                p999,
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_labels(out: &mut String, labels: &[Label]) {
    use std::fmt::Write;
    if labels.is_empty() {
        return;
    }
    out.push_str(",\"labels\":{");
    for (i, (key, value)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{key}\":\"{value}\"");
    }
    out.push('}');
}

fn json_sample(out: &mut String, s: &Sample) {
    use std::fmt::Write;
    let _ = write!(out, "{{\"name\":\"{}\"", s.name);
    json_labels(out, &s.labels);
    let _ = write!(out, ",\"value\":{}}}", fmt_value(s.value));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads_and_stripes() {
        let registry = Registry::new();
        let counter = registry.counter("test_ops_total", "ops", &[]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let counter = counter.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                });
            }
        });
        assert_eq!(counter.value(), 8000);
        let snap = registry.snapshot();
        assert_eq!(snap.counters[0].value, 8000.0);
    }

    #[test]
    fn gauge_set_add_and_poll_read_back() {
        let registry = Registry::new();
        let gauge = registry.gauge("test_depth", "depth", &[("replica", LabelValue::Int(2))]);
        gauge.set(5);
        gauge.add(-2);
        assert_eq!(gauge.value(), 3);
        let source = Arc::new(AtomicU64::new(17));
        let polled = Arc::clone(&source);
        registry.poll("test_polled", "polled", &[], move || {
            polled.load(Ordering::Relaxed) as f64
        });
        let snap = registry.snapshot();
        assert_eq!(snap.gauges.len(), 2);
        assert_eq!(snap.gauges[0].value, 3.0);
        assert_eq!(snap.gauges[1].value, 17.0);
    }

    #[test]
    fn value_finds_one_series_by_name_and_exact_label_set() {
        let registry = Registry::new();
        for replica in 0..2 {
            registry
                .counter(
                    "test_shed",
                    "shed",
                    &[("replica", LabelValue::Int(replica))],
                )
                .add(replica + 5);
        }
        registry.poll("test_polled", "polled", &[], || 17.0);
        registry.histogram("test_us", "span", &[]).record(9);
        let snap = registry.snapshot();
        let replica_1 = [("replica", LabelValue::Int(1))];
        assert_eq!(snap.value("test_shed", &replica_1), Some(6.0));
        assert_eq!(snap.value("test_polled", &[]), Some(17.0));
        assert_eq!(snap.value("test_shed", &[]), None, "labels must match");
        assert_eq!(snap.value("test_missing", &[]), None);
        assert_eq!(snap.value("test_us", &[]), None, "histograms have no value");
    }

    #[test]
    fn histogram_snapshot_round_trips() {
        let registry = Registry::new();
        let hist = registry.histogram("test_latency_us", "latency", &[]);
        for v in [100u64, 200, 400] {
            hist.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 3);
        assert_eq!(snap.min(), 100);
        assert_eq!(snap.max(), 400);
    }

    #[test]
    fn prometheus_rendering_has_types_help_and_labels() {
        let registry = Registry::new();
        registry
            .counter(
                "demo_total",
                "A demo counter",
                &[("policy", LabelValue::Static("hedged"))],
            )
            .add(3);
        registry
            .histogram("demo_us", "A demo histogram", &[])
            .record(64);
        let text = registry.snapshot().render_prometheus();
        assert!(text.contains("# TYPE demo_total counter"));
        assert!(text.contains("# HELP demo_total A demo counter"));
        assert!(text.contains("demo_total{policy=\"hedged\"} 3"));
        assert!(text.contains("# TYPE demo_us summary"));
        assert!(text.contains("demo_us{quantile=\"0.99\"}"));
        assert!(text.contains("demo_us_count 1"));
    }

    #[test]
    fn prometheus_groups_each_name_under_one_type_line() {
        let registry = Registry::new();
        for replica in 0..2 {
            let labels = [("replica", LabelValue::Int(replica))];
            registry.poll("demo_inflight", "In flight", &labels, || 1.0);
            registry.poll("demo_queued", "Queued", &labels, || 2.0);
        }
        let text = registry.snapshot().render_prometheus();
        let names: Vec<&str> = text
            .lines()
            .filter(|line| !line.starts_with('#'))
            .map(|line| line.split(['{', ' ']).next().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "demo_inflight",
                "demo_inflight",
                "demo_queued",
                "demo_queued"
            ],
            "each name's samples must be contiguous:\n{text}"
        );
        for name in ["demo_inflight", "demo_queued"] {
            let type_lines = format!("# TYPE {name} gauge");
            let help_lines = format!("# HELP {name} ");
            assert_eq!(text.matches(&type_lines).count(), 1, "{text}");
            assert_eq!(text.matches(&help_lines).count(), 1, "{text}");
        }
    }

    #[test]
    fn json_rendering_is_structured() {
        let registry = Registry::new();
        registry.counter("a_total", "a", &[]).inc();
        registry
            .gauge("b_now", "b", &[("id", LabelValue::Int(7))])
            .set(2);
        registry.histogram("c_us", "c", &[]).record(10);
        let json = registry.snapshot().render_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("{\"name\":\"a_total\",\"value\":1}"));
        assert!(json.contains("\"labels\":{\"id\":\"7\"}"));
        assert!(json.contains("\"p99\":"));
    }

    #[test]
    #[should_panic(expected = "snake_case")]
    fn uppercase_names_are_rejected() {
        Registry::new().counter("BadName", "nope", &[]);
    }

    #[test]
    fn many_threads_one_stripe_set_still_sums_exactly() {
        // More threads than stripes: assignment wraps, sums stay exact.
        let registry = Registry::new();
        let counter = registry.counter("wrap_total", "wrap", &[]);
        std::thread::scope(|scope| {
            for _ in 0..32 {
                let counter = counter.clone();
                scope.spawn(move || counter.add(3));
            }
        });
        assert_eq!(counter.value(), 96);
    }
}
