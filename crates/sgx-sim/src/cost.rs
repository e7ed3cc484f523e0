//! The enclave cost model: two constants and the two charges built on
//! them.
//!
//! §5.3.3 of the paper names the two SGX performance effects that shape
//! its design: (i) trusted/untrusted mode transitions and (ii) memory
//! pressure — cache-line crypto when spilling past the LLC and full page
//! encryption + OS swaps when exceeding the EPC. The constants here are
//! taken from the published SGX literature for the paper's Skylake-era
//! hardware (an i7-6700) and drive the *accounted* overhead figures in the
//! benchmarks; real wall-clock costs of the computation come on top. A
//! crossing costs the same whatever it carries: marshalling is a copy the
//! measured compute already contains.

use std::time::Duration;

/// One ecall or ocall transition, in nanoseconds (≈8,000–12,000 cycles
/// on Skylake; ~2.7 µs at 3.4 GHz).
pub const TRANSITION_NS: u64 = 2_700;

/// Encrypting/decrypting one 4 KiB page on EPC eviction/reload, in
/// nanoseconds.
pub const PAGE_CRYPT_NS: u64 = 3_900;

/// Modeled cost of one boundary crossing.
#[must_use]
pub const fn crossing() -> Duration {
    Duration::from_nanos(TRANSITION_NS)
}

/// Modeled cost of paging `pages` 4 KiB pages in or out of the EPC.
#[must_use]
pub const fn paging(pages: usize) -> Duration {
    Duration::from_nanos(PAGE_CRYPT_NS * pages as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_transition_is_microseconds_scale() {
        let d = crossing();
        assert!(d >= Duration::from_nanos(1_000) && d <= Duration::from_micros(20));
    }

    #[test]
    fn paging_scales_with_pages() {
        assert_eq!(paging(2), Duration::from_nanos(2 * PAGE_CRYPT_NS));
        assert_eq!(paging(0), Duration::ZERO);
    }
}
