//! **Privacy-partitioned runtime observability** for the X-Search stack.
//!
//! Every prior tier reported through bespoke one-off structs (per-client
//! stat structs, per-queue accessors, bench summaries) — there was no way
//! to see inside a *running* system, and nothing said what telemetry may
//! legally cross the enclave boundary. This crate is that layer:
//!
//! * [`registry`] — a lock-free metrics [`Registry`]: striped atomic
//!   [`Counter`]s, [`Gauge`]s, lock-free log-bucketed [`Histogram`]s
//!   (snapshots are this crate's mergeable [`LatencyHistogram`], the
//!   same type the bench load generator records into), and
//!   pull-style poll gauges that read existing hot-path atomics at
//!   snapshot time. Recording a counter is one relaxed load (the global
//!   kill switch) plus one relaxed `fetch_add` on a cache-padded stripe
//!   — zero locks, safe on a 400k req/s path.
//! * [`scope`] — the enclave telemetry privacy partition:
//!   [`EnclaveScope`] is the *only* API through which in-enclave code
//!   emits telemetry, and it is numeric by construction — every method
//!   takes integers, every metric name is a pre-registered
//!   `&'static str`. Query strings, history entries and per-user
//!   identifiers cannot reach an exported name, label or value because
//!   no method accepts one.
//! * [`flight`] — a fixed-size [`FlightRecorder`] ring of structured
//!   resilience events (breaker trips, hedges, failovers, injected
//!   faults, sheds) so a failed chaos scenario can dump the last *N*
//!   control-plane decisions instead of exiting bare.
//!
//! # The disable switch
//!
//! [`set_enabled(false)`](set_enabled) turns every recorder into a
//! single relaxed load-and-return; `perf_ledger` measures the enabled
//! path against this baseline (`telemetry.request_overhead_ns`), and
//! `tests/kill_switch.rs` pins that the switch really drops records.
//!
//! # Example
//!
//! ```
//! use xsearch_telemetry::{Registry, LabelValue};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("demo_requests_total", "Requests served", &[]);
//! let depth = registry.gauge(
//!     "demo_queue_depth",
//!     "Queue depth",
//!     &[("replica", LabelValue::Int(0))],
//! );
//! requests.inc();
//! depth.set(3);
//! let snap = registry.snapshot();
//! assert!(snap.render_prometheus().contains("demo_requests_total 1"));
//! assert!(snap.render_json().contains("\"demo_queue_depth\""));
//! ```

#![deny(missing_docs)]

pub mod flight;
mod histogram;
pub mod registry;
pub mod scope;

pub use flight::{FlightEvent, FlightRecorder};
pub use histogram::LatencyHistogram;
pub use registry::{
    Counter, Gauge, Histogram, HistogramSample, LabelValue, Registry, Sample, Snapshot,
};
pub use scope::EnclaveScope;

use std::sync::atomic::{AtomicBool, Ordering};

/// Global telemetry kill switch, checked with one relaxed load on every
/// record. Defaults to enabled.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turns all telemetry recording on or off at runtime.
///
/// Disabling reduces every counter/gauge/histogram/flight record to a
/// single relaxed load — the baseline `perf_ledger`'s
/// `telemetry.request_overhead_ns` compares against. Registration and snapshotting still work while
/// disabled; only new observations are dropped.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether telemetry recording is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
