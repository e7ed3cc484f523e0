//! Fleet-side instruments on the shared metrics registry — the fleet's
//! only stats surface.
//!
//! Every instrument here is pre-registered once at
//! [`crate::fleet::Cluster::launch`], so the data plane records with the
//! registry's two-relaxed-atomics fast path and never takes a
//! registration lock mid-request. Slow-moving state (queue depths,
//! breaker trips, accounted delays) is exposed through
//! poll collectors that read the *existing* hot-path atomics at snapshot
//! time. Per-replica queue counters, sweep coalescing, the client policy
//! stack's counters and the front tier's all surface in the one
//! snapshot; callers read a series with
//! [`xsearch_telemetry::Snapshot::value`].

use std::time::Duration;
use xsearch_telemetry::{Counter, Histogram, Registry};

/// The fleet's pre-registered counters and span histograms.
pub(crate) struct FleetMetrics {
    /// Successful data-plane forwards.
    pub forwards: Counter,
    /// Forwards dropped by injected link loss or a partition window.
    pub link_loss: Counter,
    /// Failovers performed by health sweeps.
    pub failovers: Counter,
    /// Queries migrated to a successor's window during failover.
    pub migrated: Counter,
    /// Client retries beyond each search's first attempt, fleet-wide.
    pub client_retries: Counter,
    /// Client re-attestation handshakes after the initial attach.
    pub client_reattaches: Counter,
    /// Searches that missed their deadline budget, or whose answer
    /// landed past it.
    pub client_deadline_misses: Counter,
    /// Forward attempts dropped on the link, retried on-session.
    pub client_link_losses: Counter,
    /// Span: modeled charge of one data-plane forward (accounted hop +
    /// injected fault), in microseconds.
    pub span_forward: Histogram,
    /// Span: backoff charged against deadline budgets, in microseconds.
    pub span_backoff: Histogram,
    /// Span: end-to-end cost of a search answered within its deadline,
    /// on the modeled clock (forwards + backoff), microseconds.
    pub span_request: Histogram,
}

impl FleetMetrics {
    /// Registers every fleet instrument on `registry`.
    pub fn register(registry: &Registry) -> Self {
        FleetMetrics {
            forwards: registry.counter(
                "xsearch_fleet_forwards_total",
                "Successful data-plane forwards",
                &[],
            ),
            link_loss: registry.counter(
                "xsearch_fleet_link_loss_total",
                "Forwards dropped by injected link loss or partitions",
                &[],
            ),
            failovers: registry.counter(
                "xsearch_fleet_failovers_total",
                "Failovers performed by health sweeps",
                &[],
            ),
            migrated: registry.counter(
                "xsearch_fleet_migrated_queries_total",
                "Queries migrated to successors during failover",
                &[],
            ),
            client_retries: registry.counter(
                "xsearch_client_retries_total",
                "Forward attempts beyond each search's first",
                &[],
            ),
            client_reattaches: registry.counter(
                "xsearch_client_reattaches_total",
                "Re-attestation handshakes after the initial attach",
                &[],
            ),
            client_deadline_misses: registry.counter(
                "xsearch_client_deadline_misses_total",
                "Searches that missed their deadline budget",
                &[],
            ),
            client_link_losses: registry.counter(
                "xsearch_client_link_losses_total",
                "Forward attempts dropped on the link and retried",
                &[],
            ),
            span_forward: registry.histogram(
                "xsearch_span_forward_us",
                "Modeled charge of one data-plane forward, microseconds",
                &[],
            ),
            span_backoff: registry.histogram(
                "xsearch_span_backoff_us",
                "Backoff charged against deadline budgets, microseconds",
                &[],
            ),
            span_request: registry.histogram(
                "xsearch_span_request_us",
                "Effective end-to-end request cost, microseconds",
                &[],
            ),
        }
    }

    /// A modeled charge as whole microseconds, saturating into `u64`.
    pub fn us(d: Duration) -> u64 {
        d.as_micros().min(u128::from(u64::MAX)) as u64
    }
}
