//! Ecall/ocall boundary accounting.
//!
//! The paper limits its enclave interface to two ecalls (`init`,
//! `request`) and four ocalls (`sock_connect`, `send`, `recv`, `close`)
//! precisely because transitions are expensive (§5.3.3). This module
//! counts every crossing and accumulates the modeled transition cost so
//! benchmarks can report both real and accounted overhead. What crosses
//! is always bytes, metered by length: an ecall's input and output, an
//! ocall's request and response.

use crate::cost::crossing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Shared counters for one enclave's boundary.
#[derive(Debug, Default)]
pub struct BoundaryStats {
    ecalls: AtomicU64,
    ocalls: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    overhead_ns: AtomicU64,
}

impl BoundaryStats {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Number of ecalls so far.
    #[must_use]
    pub fn ecalls(&self) -> u64 {
        self.ecalls.load(Ordering::Relaxed)
    }

    /// Number of ocalls so far.
    #[must_use]
    pub fn ocalls(&self) -> u64 {
        self.ocalls.load(Ordering::Relaxed)
    }

    /// Bytes copied into the enclave.
    #[must_use]
    pub fn bytes_in(&self) -> u64 {
        self.bytes_in.load(Ordering::Relaxed)
    }

    /// Bytes copied out of the enclave.
    #[must_use]
    pub fn bytes_out(&self) -> u64 {
        self.bytes_out.load(Ordering::Relaxed)
    }

    /// Total modeled transition overhead.
    #[must_use]
    pub fn modeled_overhead(&self) -> Duration {
        Duration::from_nanos(self.overhead_ns.load(Ordering::Relaxed))
    }

    pub(crate) fn record_ecall(&self, bytes_in: usize, bytes_out: usize) {
        self.ecalls.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes_in as u64, Ordering::Relaxed);
        self.bytes_out
            .fetch_add(bytes_out as u64, Ordering::Relaxed);
        // An ecall is two crossings: enter with input, exit with output.
        self.charge_round_trip();
    }

    pub(crate) fn record_ocall(&self, bytes_out: usize, bytes_in: usize) {
        self.ocalls.fetch_add(1, Ordering::Relaxed);
        self.bytes_out
            .fetch_add(bytes_out as u64, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes_in as u64, Ordering::Relaxed);
        self.charge_round_trip();
    }

    /// Two crossings: one out of the calling side, one back into it.
    fn charge_round_trip(&self) {
        let d = crossing() * 2;
        self.overhead_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Handle given to in-enclave code for making ocalls.
///
/// Mirrors the paper's untrusted-services interface: the enclave calls out
/// for socket operations; each call is counted and costed.
#[derive(Debug, Clone)]
pub struct OcallPort {
    stats: Arc<BoundaryStats>,
}

impl OcallPort {
    /// Creates a port that records to `stats`.
    #[must_use]
    pub fn new(stats: Arc<BoundaryStats>) -> Self {
        OcallPort { stats }
    }

    /// Performs an ocall: `request` bytes leave the enclave, the untrusted
    /// function `f` runs outside, and its response bytes re-enter. Both
    /// directions are metered by their real length: every ocall answers
    /// in bytes, the engine's result list (`recv`) included.
    pub fn ocall<F>(&self, request: &[u8], f: F) -> Vec<u8>
    where
        F: FnOnce(&[u8]) -> Vec<u8>,
    {
        let response = f(request);
        self.stats.record_ocall(request.len(), response.len());
        response
    }

    /// The shared counters.
    #[must_use]
    pub fn stats(&self) -> &Arc<BoundaryStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecall_recording_counts_both_directions() {
        let stats = BoundaryStats::new();
        stats.record_ecall(100, 50);
        assert_eq!(stats.ecalls(), 1);
        assert_eq!(stats.bytes_in(), 100);
        assert_eq!(stats.bytes_out(), 50);
        assert_eq!(stats.modeled_overhead(), crossing() * 2);
    }

    #[test]
    fn ocall_port_runs_untrusted_function() {
        let stats = BoundaryStats::new();
        let port = OcallPort::new(stats.clone());
        let reply = port.ocall(b"dns lookup", |req| {
            assert_eq!(req, b"dns lookup");
            b"1.2.3.4".to_vec()
        });
        assert_eq!(reply, b"1.2.3.4");
        assert_eq!(stats.ocalls(), 1);
        assert_eq!(stats.bytes_out(), 10);
        assert_eq!(stats.bytes_in(), 7);
    }

    #[test]
    fn overhead_accumulates_across_calls() {
        let stats = BoundaryStats::new();
        stats.record_ecall(0, 0);
        stats.record_ecall(0, 0);
        assert_eq!(stats.modeled_overhead(), crossing() * 4);
    }
}
