//! HMAC-SHA-256 (RFC 2104), validated against the RFC 4231 test vectors.
//!
//! Used for simulated attestation quotes (the EPID group signature is
//! replaced by a MAC under a key shared with the simulated attestation
//! service — see the sgx-sim crate) and as the PRF inside HKDF.

use crate::constant_time::ct_eq;
use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Incremental HMAC-SHA-256.
///
/// # Example
///
/// ```
/// use xsearch_crypto::hmac::HmacSha256;
///
/// let tag = HmacSha256::mac(b"key", b"message");
/// assert!(HmacSha256::verify(b"key", b"message", &tag));
/// assert!(!HmacSha256::verify(b"key", b"tampered", &tag));
/// ```
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    /// Both hash states with their key pad already absorbed: cloning a
    /// keyed context costs no compression (what HKDF-Expand does per
    /// output block).
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC context keyed with `key` (any length; long keys are
    /// hashed first, per RFC 2104).
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut state = Sha256::new();
            state.update(&k.map(|byte| byte ^ pad));
            state
        };
        HmacSha256 {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC and returns the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }

    /// One-shot MAC.
    #[must_use]
    pub fn mac(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = HmacSha256::new(key);
        h.update(message);
        h.finalize()
    }

    /// Verifies a tag in constant time.
    #[must_use]
    pub fn verify(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
        ct_eq(&HmacSha256::mac(key, message), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    fn check(key_hex: &str, data: &[u8], want_hex: &str) {
        let key = hex::decode_expect(key_hex);
        assert_eq!(hex::encode(&HmacSha256::mac(&key, data)), want_hex);
    }

    #[test]
    fn rfc4231_case_1() {
        check(
            "0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        check(
            "4a656665", // "Jefe"
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = hex::decode_expect("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");
        let data = [0xddu8; 50];
        assert_eq!(
            hex::encode(&HmacSha256::mac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key = hex::decode_expect("0102030405060708090a0b0c0d0e0f10111213141516171819");
        let data = [0xcdu8; 50];
        assert_eq!(
            hex::encode(&HmacSha256::mac(&key, &data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex::encode(&HmacSha256::mac(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_long_data() {
        let key = [0xaau8; 131];
        let data: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            hex::encode(&HmacSha256::mac(&key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn verify_rejects_truncated_tag() {
        let tag = HmacSha256::mac(b"k", b"m");
        assert!(!HmacSha256::verify(b"k", b"m", &tag[..16]));
    }

    proptest! {
        #[test]
        fn incremental_equals_one_shot(key: Vec<u8>, a: Vec<u8>, b: Vec<u8>) {
            let mut h = HmacSha256::new(&key);
            h.update(&a);
            h.update(&b);
            let mut joined = a.clone();
            joined.extend_from_slice(&b);
            prop_assert_eq!(h.finalize(), HmacSha256::mac(&key, &joined));
        }

        #[test]
        fn different_keys_give_different_tags(k1: Vec<u8>, k2: Vec<u8>, msg: Vec<u8>) {
            prop_assume!(k1 != k2);
            // Keys differing only by zero-padding collide by construction
            // (RFC 2104 pads short keys with zeros); exclude that case.
            let max = k1.len().max(k2.len()).max(1);
            let mut p1 = k1.clone();
            p1.resize(max, 0);
            let mut p2 = k2.clone();
            p2.resize(max, 0);
            prop_assume!(p1 != p2);
            prop_assert_ne!(HmacSha256::mac(&k1, &msg), HmacSha256::mac(&k2, &msg));
        }
    }
}
