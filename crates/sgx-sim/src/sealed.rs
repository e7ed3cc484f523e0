//! Sealed storage: encryption keyed by platform and measurement.
//!
//! Real SGX derives sealing keys from a fused platform secret and the
//! enclave identity; data sealed by one enclave version on one platform
//! only opens there. The model has one sealing format: a caller derives
//! the [`SealingKey`] of (platform, measurement) once, seals a buffer's
//! tail in place with [`SealingKey::seal_tail`] and opens it with
//! [`SealingKey::open`] under the same version and bound data. The
//! X-Search proxy's sealed history log (`xsearch_core::persistence`) is
//! built on exactly that pair.

use crate::error::SgxError;
use crate::measurement::Measurement;
use rand::RngCore;
use xsearch_crypto::aead::ChaCha20Poly1305;
use xsearch_crypto::hkdf;

/// A platform holding a sealing master secret (fuse-derived in real SGX).
#[derive(Clone)]
pub struct SealingPlatform {
    master: [u8; 32],
}

impl std::fmt::Debug for SealingPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealingPlatform")
            .field("master", &"<secret>")
            .finish()
    }
}

/// What [`SealingPlatform::seal_versioned`] returns: the fresh nonce and
/// `ciphertext ‖ tag`, which [`SealingKey::open`] opens under the same
/// version and an empty bound.
#[derive(Debug, Clone)]
pub struct SealedBlob {
    /// The nonce the seal drew.
    pub nonce: [u8; 12],
    /// `ciphertext ‖ tag`.
    pub sealed: Vec<u8>,
}

/// The sealing key of one (platform, measurement) pair, derived once.
///
/// The HKDF behind [`SealingPlatform::key_for`] costs more than sealing
/// a small payload does, so a holder that seals repeatedly to one
/// identity (a history vault) keeps the key instead of the platform.
#[derive(Debug, Clone)]
pub struct SealingKey {
    aead: ChaCha20Poly1305,
    measurement: Measurement,
}

impl SealingKey {
    /// Associated data: `measurement ‖ version ‖ bound`. `bound` is
    /// whatever else the caller wants authenticated with the payload.
    fn aad(&self, version: u64, bound: &[u8]) -> Vec<u8> {
        let mut aad = Vec::with_capacity(40 + bound.len());
        aad.extend_from_slice(&self.measurement.0);
        aad.extend_from_slice(&version.to_le_bytes());
        aad.extend_from_slice(bound);
        aad
    }

    /// Seals the plaintext held in `buf[from..]` where it lies — the
    /// tail becomes `ciphertext ‖ tag`, `buf[..from]` (a caller's clear
    /// header) is untouched — binding `version` and `bound` into the
    /// associated data. Returns the fresh nonce the caller must store.
    pub fn seal_tail<R: RngCore>(
        &self,
        version: u64,
        bound: &[u8],
        buf: &mut Vec<u8>,
        from: usize,
        rng: &mut R,
    ) -> [u8; 12] {
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut nonce);
        let tag = self
            .aead
            .seal_in_place(&nonce, &self.aad(version, bound), &mut buf[from..]);
        buf.extend_from_slice(&tag);
        nonce
    }

    /// Opens `sealed` (`ciphertext ‖ tag`) produced by
    /// [`SealingKey::seal_tail`] under the same `version` and `bound`.
    ///
    /// # Errors
    ///
    /// [`SgxError::UnsealFailed`] for a different platform, measurement,
    /// version or `bound`, or tampered data.
    pub fn open(
        &self,
        nonce: &[u8; 12],
        version: u64,
        bound: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, SgxError> {
        self.aead
            .open(nonce, &self.aad(version, bound), sealed)
            .map_err(|_| SgxError::UnsealFailed)
    }
}

impl SealingPlatform {
    /// Deterministic platform for reproducible tests.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut buf = [0u8; 32];
        buf[..8].copy_from_slice(&seed.to_le_bytes());
        SealingPlatform {
            master: xsearch_crypto::sha256::Sha256::digest(&buf),
        }
    }

    /// Derives the sealing key for `measurement` on this platform.
    #[must_use]
    pub fn key_for(&self, measurement: &Measurement) -> SealingKey {
        let key: [u8; 32] = hkdf::derive(&measurement.0, &self.master, b"xsearch-sealing-v1", 32)
            .try_into()
            .expect("exactly 32 bytes requested");
        SealingKey {
            aead: ChaCha20Poly1305::new(&key),
            measurement: *measurement,
        }
    }

    /// Seals `plaintext` to (this platform, `measurement`) at `version`:
    /// one key derivation and one [`SealingKey::seal_tail`] over a copy.
    pub fn seal_versioned<R: RngCore>(
        &self,
        measurement: &Measurement,
        version: u64,
        plaintext: &[u8],
        rng: &mut R,
    ) -> SealedBlob {
        let mut sealed = Vec::with_capacity(plaintext.len() + 16);
        sealed.extend_from_slice(plaintext);
        let nonce = self
            .key_for(measurement)
            .seal_tail(version, &[], &mut sealed, 0, rng);
        SealedBlob { nonce, sealed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn m(tag: &[u8]) -> Measurement {
        let mut b = crate::measurement::MeasurementBuilder::new();
        b.add_region(tag);
        b.finalize()
    }

    #[test]
    fn sealed_tail_leaves_the_header_clear_and_binds_the_extra_data() {
        let key = SealingPlatform::from_seed(1).key_for(&m(b"proxy"));
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = b"HEADERpayload".to_vec();
        let nonce = key.seal_tail(5, b"link", &mut buf, 6, &mut rng);
        assert_eq!(&buf[..6], b"HEADER");
        assert_eq!(buf.len(), 13 + 16, "the tail grows by exactly one tag");
        assert_eq!(key.open(&nonce, 5, b"link", &buf[6..]).unwrap(), b"payload");
        for (version, bound) in [(5, &b"knil"[..]), (5, b""), (6, b"link")] {
            assert_eq!(
                key.open(&nonce, version, bound, &buf[6..]),
                Err(SgxError::UnsealFailed)
            );
        }
    }

    #[test]
    fn derived_key_and_platform_seal_interchangeably() {
        let platform = SealingPlatform::from_seed(1);
        let mut rng = StdRng::seed_from_u64(2);
        let blob = platform.seal_versioned(&m(b"proxy"), 3, b"window", &mut rng);
        let key = platform.key_for(&m(b"proxy"));
        assert_eq!(
            key.open(&blob.nonce, 3, &[], &blob.sealed).unwrap(),
            b"window"
        );
    }
}
