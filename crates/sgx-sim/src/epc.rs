//! The Enclave Page Cache model.
//!
//! SGX v1 reserves ~128 MiB of physical memory for the EPC of which about
//! 90 MiB is usable by enclave data (§2.3 of the paper). An enclave may
//! allocate beyond it — the OS then swaps encrypted pages — but every page
//! crossing the boundary pays a cryptographic cost. Fig 6's question is
//! whether 1M stored queries stay inside the budget; this model answers it
//! with exact byte accounting and charges the paging cost when exceeded.

use crate::cost::paging;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// EPC page size.
pub const PAGE_SIZE: usize = 4096;
/// Usable EPC per enclave, as the paper quotes it ("approximately 90MB").
pub const USABLE_EPC_BYTES: usize = 90 * 1024 * 1024;

/// Shared, thread-safe EPC usage gauge for one enclave.
///
/// In-enclave data structures charge and release bytes as they grow and
/// shrink; usage beyond the usable EPC is tracked as paged-out pages with
/// their modeled crypto cost.
#[derive(Debug, Default)]
pub struct EpcGauge {
    used: AtomicUsize,
    peak: AtomicUsize,
    limit: usize,
    paged_pages: AtomicU64,
    paging_ns: AtomicU64,
}

impl EpcGauge {
    /// Creates a gauge with the standard usable-EPC limit.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Self::with_limit(USABLE_EPC_BYTES)
    }

    /// Creates a gauge with a custom limit (tests, ablations).
    #[must_use]
    pub fn with_limit(limit: usize) -> Arc<Self> {
        Arc::new(EpcGauge {
            limit,
            ..Default::default()
        })
    }

    /// Records an allocation of `bytes`. Returns the modeled paging cost
    /// incurred *by this allocation* (zero while under the limit).
    pub fn charge(&self, bytes: usize) -> Duration {
        let old = self.used.fetch_add(bytes, Ordering::Relaxed);
        let new = old + bytes;
        self.peak.fetch_max(new, Ordering::Relaxed);
        if new <= self.limit {
            return Duration::ZERO;
        }
        // Pages newly pushed past the limit must be evicted (encrypted).
        let over_old = old.saturating_sub(self.limit);
        let over_new = new - self.limit;
        let new_pages = pages(over_new).saturating_sub(pages(over_old));
        if new_pages == 0 {
            return Duration::ZERO;
        }
        self.paged_pages
            .fetch_add(new_pages as u64, Ordering::Relaxed);
        let d = paging(new_pages);
        self.paging_ns
            .fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
        d
    }

    /// Records a release of `bytes`.
    pub fn release(&self, bytes: usize) {
        self.used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Current usage in bytes.
    #[must_use]
    pub fn used(&self) -> usize {
        self.used.load(Ordering::Relaxed)
    }

    /// High-water mark in bytes.
    #[must_use]
    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// The usable-EPC limit in bytes.
    #[must_use]
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Whether current usage fits the usable EPC.
    #[must_use]
    pub fn within_limit(&self) -> bool {
        self.used() <= self.limit
    }

    /// Number of page evictions charged so far.
    #[must_use]
    pub fn paged_pages(&self) -> u64 {
        self.paged_pages.load(Ordering::Relaxed)
    }

    /// Total modeled paging cost.
    #[must_use]
    pub fn paging_cost(&self) -> Duration {
        Duration::from_nanos(self.paging_ns.load(Ordering::Relaxed))
    }
}

fn pages(bytes: usize) -> usize {
    bytes.div_ceil(PAGE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn usage_tracks_charge_release() {
        let g = EpcGauge::with_limit(1 << 20);
        assert_eq!(g.charge(1000), Duration::ZERO);
        g.charge(500);
        assert_eq!(g.used(), 1500);
        g.release(1000);
        assert_eq!(g.used(), 500);
        assert_eq!(g.peak(), 1500);
    }

    #[test]
    fn within_limit_flips_at_boundary() {
        let g = EpcGauge::with_limit(1000);
        g.charge(1000);
        assert!(g.within_limit());
        g.charge(1);
        assert!(!g.within_limit());
    }

    #[test]
    fn paging_charged_only_beyond_limit() {
        let g = EpcGauge::with_limit(2 * PAGE_SIZE);
        assert_eq!(g.charge(2 * PAGE_SIZE), Duration::ZERO);
        let d = g.charge(PAGE_SIZE);
        assert_eq!(d, paging(1));
        assert_eq!(g.paged_pages(), 1);
        assert!(g.paging_cost() > Duration::ZERO);
    }

    #[test]
    fn partial_page_overflow_rounds_up() {
        let g = EpcGauge::with_limit(0);
        g.charge(1);
        assert_eq!(g.paged_pages(), 1, "1 byte beyond the limit costs a page");
    }

    #[test]
    fn default_limit_is_ninety_mib() {
        let g = EpcGauge::new();
        assert_eq!(g.limit(), 90 * 1024 * 1024);
    }

    proptest! {
        #[test]
        fn used_never_negative_and_peak_dominates(ops in proptest::collection::vec((any::<bool>(), 1usize..10_000), 1..50)) {
            let g = EpcGauge::with_limit(1 << 30);
                let mut shadow: i64 = 0;
            for (is_charge, bytes) in ops {
                if is_charge {
                    g.charge(bytes);
                    shadow += bytes as i64;
                } else if shadow >= bytes as i64 {
                    g.release(bytes);
                    shadow -= bytes as i64;
                }
            }
            prop_assert_eq!(g.used() as i64, shadow);
            prop_assert!(g.peak() >= g.used());
        }
    }
}
