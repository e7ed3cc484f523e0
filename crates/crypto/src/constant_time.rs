//! Constant-time comparison.
//!
//! Tag verification must not leak, through timing, the position of the first
//! mismatching byte; [`ct_eq`] accumulates differences without branching on
//! secret data.

/// Compares two byte slices in constant time.
///
/// Returns `true` iff the slices have equal length and equal content. The
/// running time depends only on the length of the inputs, never on where
/// they differ.
///
/// # Example
///
/// ```
/// use xsearch_crypto::constant_time::ct_eq;
/// assert!(ct_eq(b"tag", b"tag"));
/// assert!(!ct_eq(b"tag", b"taG"));
/// assert!(!ct_eq(b"tag", b"tag-longer"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    // Collapse to 0/1 without a data-dependent branch.
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_slices_compare_equal() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
    }

    #[test]
    fn different_lengths_are_unequal() {
        assert!(!ct_eq(&[1, 2], &[1, 2, 3]));
    }

    #[test]
    fn single_bit_flip_is_detected() {
        let a = [0b1010_1010u8; 16];
        for byte in 0..16 {
            for bit in 0..8 {
                let mut b = a;
                b[byte] ^= 1 << bit;
                assert!(!ct_eq(&a, &b), "flip at byte {byte} bit {bit} missed");
            }
        }
    }

    proptest! {
        #[test]
        fn ct_eq_matches_plain_eq(a: Vec<u8>, b: Vec<u8>) {
            prop_assert_eq!(ct_eq(&a, &b), a == b);
        }

        #[test]
        fn ct_eq_is_reflexive(a: Vec<u8>) {
            prop_assert!(ct_eq(&a, &a));
        }
    }
}
