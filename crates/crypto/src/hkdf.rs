//! HKDF-SHA-256 (RFC 5869): extract-then-expand key derivation.
//!
//! The attested channel derives its per-direction ChaCha20-Poly1305 keys
//! from the X25519 shared secret with this function.

use crate::hmac::HmacSha256;
use crate::sha256::DIGEST_LEN;

/// Maximum output length of a single [`expand`] call: `255 * HashLen`.
pub const MAX_OUTPUT_LEN: usize = 255 * DIGEST_LEN;

/// HKDF-Extract: compresses input keying material into a pseudorandom key.
///
/// An empty `salt` behaves like a string of `HashLen` zero bytes, per the
/// RFC.
#[must_use]
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    let zeros = [0u8; DIGEST_LEN];
    let salt = if salt.is_empty() { &zeros[..] } else { salt };
    HmacSha256::mac(salt, ikm)
}

/// HKDF-Expand: stretches a pseudorandom key into `len` output bytes bound
/// to `info`.
///
/// # Panics
///
/// Panics if `len > MAX_OUTPUT_LEN` (an RFC limit, and always a programming
/// error in this codebase).
#[must_use]
pub fn expand(prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    expand_into(prk, info, &mut out);
    out
}

/// [`expand`] into a caller-provided buffer: fills all of `out`, and
/// allocates nothing.
///
/// # Panics
///
/// Panics if `out.len() > MAX_OUTPUT_LEN`.
pub fn expand_into(prk: &[u8; DIGEST_LEN], info: &[u8], out: &mut [u8]) {
    assert!(
        out.len() <= MAX_OUTPUT_LEN,
        "hkdf output too long: {}",
        out.len()
    );
    // Keyed once; each block clones the keyed state.
    let keyed = HmacSha256::new(prk);
    let mut previous = [0u8; DIGEST_LEN];
    for (chunk, counter) in out.chunks_mut(DIGEST_LEN).zip(1u8..=255) {
        let mut h = keyed.clone();
        if counter > 1 {
            h.update(&previous);
        }
        h.update(info);
        h.update(&[counter]);
        previous = h.finalize();
        chunk.copy_from_slice(&previous[..chunk.len()]);
    }
}

/// Convenience: extract-then-expand in one call.
///
/// # Example
///
/// ```
/// let okm = xsearch_crypto::hkdf::derive(b"salt", b"shared-secret", b"xsearch-c2s", 32);
/// assert_eq!(okm.len(), 32);
/// ```
#[must_use]
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    expand(&extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    #[test]
    fn rfc5869_case_1() {
        let ikm = hex::decode_expect("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
        let salt = hex::decode_expect("000102030405060708090a0b0c");
        let info = hex::decode_expect("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex::encode(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = expand(&prk, &info, 42);
        assert_eq!(
            hex::encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn rfc5869_case_2_long_inputs() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let okm = derive(&salt, &ikm, &info, 82);
        assert_eq!(
            hex::encode(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    #[test]
    fn rfc5869_case_3_empty_salt_and_info() {
        let ikm = hex::decode_expect("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
        let okm = derive(&[], &ikm, &[], 42);
        assert_eq!(
            hex::encode(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn expand_exact_multiple_of_hash_len() {
        let prk = extract(b"s", b"k");
        assert_eq!(expand(&prk, b"i", 64).len(), 64);
    }

    #[test]
    fn expand_fills_the_rfc_maximum() {
        // 255 blocks: the block counter's last value, and no 256th.
        let prk = extract(b"s", b"k");
        let okm = expand(&prk, b"i", MAX_OUTPUT_LEN);
        assert_eq!(okm.len(), MAX_OUTPUT_LEN);
        assert_eq!(okm[..64], expand(&prk, b"i", 64)[..]);
        assert_ne!(okm[MAX_OUTPUT_LEN - DIGEST_LEN..], [0u8; DIGEST_LEN]);
    }

    #[test]
    #[should_panic(expected = "hkdf output too long")]
    fn expand_rejects_oversize() {
        let prk = extract(b"s", b"k");
        let _ = expand(&prk, b"i", MAX_OUTPUT_LEN + 1);
    }

    proptest! {
        #[test]
        fn prefix_consistency(len_a in 1usize..100, len_b in 1usize..100) {
            // HKDF output for a shorter length is a prefix of a longer one.
            let prk = extract(b"salt", b"ikm");
            let (short, long) = (len_a.min(len_b), len_a.max(len_b));
            let a = expand(&prk, b"info", short);
            let b = expand(&prk, b"info", long);
            prop_assert_eq!(&a[..], &b[..short]);
        }

        #[test]
        fn info_separates_outputs(info_a: Vec<u8>, info_b: Vec<u8>) {
            prop_assume!(info_a != info_b);
            let prk = extract(b"salt", b"ikm");
            prop_assert_ne!(expand(&prk, &info_a, 32), expand(&prk, &info_b, 32));
        }
    }
}
