//! The enclave telemetry privacy partition.
//!
//! # Threat model
//!
//! The X-Search proxy operator is **untrusted**: anything the enclave
//! exports — metric names, labels, values, log lines — is visible to the
//! adversary the system defends against. A single careless
//! `counter!("slow_query", query)` would leak exactly what the enclave
//! exists to hide. The defense is structural, not disciplinary:
//!
//! * in-enclave code never touches the [`Registry`]
//!   directly — it receives an [`EnclaveScope`], built *outside* the
//!   enclave at launch, holding only pre-registered handles;
//! * every `EnclaveScope` method takes integers. There is no parameter
//!   of type `&str` or `String` anywhere in the API, so query strings,
//!   history entries and user identifiers cannot flow into an exported
//!   name, label or value — the type system rejects the leak at compile
//!   time;
//! * exported *values* are aggregates (totals, lengths), never
//!   per-request or per-user series, so the counters themselves don't
//!   become a side channel for individual queries.
//!
//! The cluster's leakage-guard test closes the loop at runtime: it seals
//! canary queries through a fully instrumented fleet under faults and
//! scans every rendered exposition and flight-recorder line for canary
//! substrings.

use crate::registry::{Counter, Gauge, Registry};

/// The only telemetry surface available inside the enclave: a fixed set
/// of pre-registered, numeric-only aggregate metrics.
#[derive(Clone, Debug)]
pub struct EnclaveScope {
    requests: Counter,
    errors: Counter,
    history_len: Gauge,
}

impl EnclaveScope {
    /// Registers the enclave's aggregate metrics on `registry` and
    /// returns the scope to hand across the boundary at launch.
    #[must_use]
    pub fn register(registry: &Registry) -> Self {
        EnclaveScope {
            requests: registry.counter(
                "xsearch_enclave_requests_total",
                "Requests served inside the enclave",
                &[],
            ),
            errors: registry.counter(
                "xsearch_enclave_errors_total",
                "Requests the enclave rejected or failed",
                &[],
            ),
            history_len: registry.gauge(
                "xsearch_enclave_history_len",
                "Entries currently in the query-history window",
                &[],
            ),
        }
    }

    /// Counts one served request.
    pub fn request_served(&self) {
        self.requests.inc();
    }

    /// Counts one rejected or failed request.
    pub fn error(&self) {
        self.errors.inc();
    }

    /// Publishes the current history-window length.
    pub fn set_history_len(&self, len: u64) {
        self.history_len.set(len as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_exports_only_preregistered_aggregates() {
        let registry = Registry::new();
        let scope = EnclaveScope::register(&registry);
        scope.request_served();
        scope.error();
        scope.set_history_len(1000);

        let snap = registry.snapshot();
        let text = snap.render_prometheus();
        assert!(text.contains("xsearch_enclave_requests_total 1"));
        assert!(text.contains("xsearch_enclave_errors_total 1"));
        assert!(text.contains("xsearch_enclave_history_len 1000"));
        // Every exported enclave name is a static from this module: the
        // exposition contains no sample that didn't come from the three
        // handles above.
        assert_eq!(snap.counters.len(), 2);
        assert_eq!(snap.gauges.len(), 1);
    }
}
