//! Sealed storage: encryption keyed by platform and measurement.
//!
//! Real SGX derives sealing keys from a fused platform secret and the
//! enclave identity; data sealed by one enclave version on one platform
//! only opens there. The X-Search proxy could seal its query history
//! across restarts; the model exists so that behaviour (and its failure
//! modes) can be exercised.

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

/// A sealed blob: nonce, monotonic version, and AEAD ciphertext.
///
/// The version rides in the clear (untrusted storage must be able to
/// keep only the newest blob) but is authenticated: it is bound into the
/// AEAD's associated data, so tampering with it fails the open. Blobs
/// sealed through the legacy [`SealingPlatform::seal`] carry version 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlob {
    nonce: [u8; 12],
    version: u64,
    ciphertext: Vec<u8>,
}

impl SealedBlob {
    /// The monotonic version bound into this blob.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Serializes the blob for untrusted storage or migration transport
    /// (`nonce ‖ version ‖ ciphertext`; nothing here is secret).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 8 + self.ciphertext.len());
        out.extend_from_slice(&self.nonce);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.ciphertext);
        out
    }

    /// Parses a serialized blob.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::UnsealFailed`] for structurally invalid bytes.
    /// (Authenticity is only established by a later unseal: the encoding
    /// itself is untrusted.)
    pub fn decode(bytes: &[u8]) -> Result<Self, SgxError> {
        if bytes.len() < 12 + 8 {
            return Err(SgxError::UnsealFailed);
        }
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&bytes[..12]);
        let version = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        Ok(SealedBlob {
            nonce,
            version,
            ciphertext: bytes[20..].to_vec(),
        })
    }
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
    /// whatever else the caller wants authenticated with the payload
    /// (empty for a plain [`SealedBlob`]).
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
    /// A platform with a random master secret.
    pub fn new<R: RngCore>(rng: &mut R) -> Self {
        let mut master = [0u8; 32];
        rng.fill_bytes(&mut master);
        SealingPlatform { master }
    }

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

    /// Seals `plaintext` to (this platform, `measurement`) at version 0
    /// (no rollback protection; see [`SealingPlatform::seal_versioned`]).
    pub fn seal<R: RngCore>(
        &self,
        measurement: &Measurement,
        plaintext: &[u8],
        rng: &mut R,
    ) -> SealedBlob {
        self.seal_versioned(measurement, 0, plaintext, rng)
    }

    /// Seals `plaintext` to (this platform, `measurement`) and binds the
    /// caller-supplied monotonic `version` into the AEAD's associated
    /// data. In real SGX the version would come from a hardware monotonic
    /// counter; callers are expected to hand out strictly increasing
    /// versions and check them on unseal
    /// ([`SealingPlatform::unseal_monotonic`]).
    pub fn seal_versioned<R: RngCore>(
        &self,
        measurement: &Measurement,
        version: u64,
        plaintext: &[u8],
        rng: &mut R,
    ) -> SealedBlob {
        let mut ciphertext = Vec::with_capacity(plaintext.len() + 16);
        ciphertext.extend_from_slice(plaintext);
        let nonce = self
            .key_for(measurement)
            .seal_tail(version, &[], &mut ciphertext, 0, rng);
        SealedBlob {
            nonce,
            version,
            ciphertext,
        }
    }

    /// Opens a blob sealed by the same platform and measurement.
    ///
    /// # Errors
    ///
    /// Returns [`SgxError::UnsealFailed`] for a different platform, a
    /// different enclave measurement, or tampered data (including a
    /// tampered version field).
    pub fn unseal(
        &self,
        measurement: &Measurement,
        blob: &SealedBlob,
    ) -> Result<Vec<u8>, SgxError> {
        self.key_for(measurement)
            .open(&blob.nonce, blob.version, &[], &blob.ciphertext)
    }

    /// Opens a blob only if its authenticated version is at least
    /// `floor` — the anti-rollback check: an operator re-offering an old
    /// (authentic) snapshot is detected, not silently accepted.
    ///
    /// # Errors
    ///
    /// [`SgxError::RolledBack`] when `blob.version() < floor`;
    /// [`SgxError::UnsealFailed`] as for [`SealingPlatform::unseal`].
    pub fn unseal_monotonic(
        &self,
        measurement: &Measurement,
        blob: &SealedBlob,
        floor: u64,
    ) -> Result<Vec<u8>, SgxError> {
        if blob.version < floor {
            return Err(SgxError::RolledBack {
                sealed: blob.version,
                floor,
            });
        }
        self.unseal(measurement, blob)
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
    fn seal_unseal_roundtrip() {
        let platform = SealingPlatform::from_seed(1);
        let mut rng = StdRng::seed_from_u64(2);
        let blob = platform.seal(&m(b"proxy"), b"query history", &mut rng);
        assert_eq!(
            platform.unseal(&m(b"proxy"), &blob).unwrap(),
            b"query history"
        );
    }

    #[test]
    fn different_measurement_cannot_unseal() {
        let platform = SealingPlatform::from_seed(1);
        let mut rng = StdRng::seed_from_u64(2);
        let blob = platform.seal(&m(b"proxy-v1"), b"secret", &mut rng);
        assert_eq!(
            platform.unseal(&m(b"proxy-v2"), &blob),
            Err(SgxError::UnsealFailed)
        );
    }

    #[test]
    fn different_platform_cannot_unseal() {
        let p1 = SealingPlatform::from_seed(1);
        let p2 = SealingPlatform::from_seed(2);
        let mut rng = StdRng::seed_from_u64(3);
        let blob = p1.seal(&m(b"proxy"), b"secret", &mut rng);
        assert_eq!(p2.unseal(&m(b"proxy"), &blob), Err(SgxError::UnsealFailed));
    }

    #[test]
    fn tampered_blob_fails() {
        let platform = SealingPlatform::from_seed(1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut blob = platform.seal(&m(b"proxy"), b"secret", &mut rng);
        blob.ciphertext[0] ^= 1;
        assert_eq!(
            platform.unseal(&m(b"proxy"), &blob),
            Err(SgxError::UnsealFailed)
        );
    }

    #[test]
    fn sealing_is_randomized() {
        let platform = SealingPlatform::from_seed(1);
        let mut rng = StdRng::seed_from_u64(2);
        let a = platform.seal(&m(b"proxy"), b"same", &mut rng);
        let b = platform.seal(&m(b"proxy"), b"same", &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn versioned_seal_roundtrips_and_reports_version() {
        let platform = SealingPlatform::from_seed(1);
        let mut rng = StdRng::seed_from_u64(2);
        let blob = platform.seal_versioned(&m(b"proxy"), 7, b"history", &mut rng);
        assert_eq!(blob.version(), 7);
        assert_eq!(platform.unseal(&m(b"proxy"), &blob).unwrap(), b"history");
        assert_eq!(
            platform.unseal_monotonic(&m(b"proxy"), &blob, 7).unwrap(),
            b"history"
        );
    }

    #[test]
    fn stale_version_is_rejected_below_floor() {
        let platform = SealingPlatform::from_seed(1);
        let mut rng = StdRng::seed_from_u64(2);
        let blob = platform.seal_versioned(&m(b"proxy"), 3, b"old window", &mut rng);
        assert_eq!(
            platform.unseal_monotonic(&m(b"proxy"), &blob, 4),
            Err(SgxError::RolledBack {
                sealed: 3,
                floor: 4
            })
        );
    }

    #[test]
    fn tampered_version_fails_authentication() {
        let platform = SealingPlatform::from_seed(1);
        let mut rng = StdRng::seed_from_u64(2);
        let blob = platform.seal_versioned(&m(b"proxy"), 3, b"window", &mut rng);
        // An operator rewriting the cleartext version field (to sneak a
        // stale blob past the floor) must break the AEAD.
        let mut bytes = blob.encode();
        bytes[12..20].copy_from_slice(&9u64.to_le_bytes());
        let forged = SealedBlob::decode(&bytes).unwrap();
        assert_eq!(forged.version(), 9);
        assert_eq!(
            platform.unseal_monotonic(&m(b"proxy"), &forged, 4),
            Err(SgxError::UnsealFailed)
        );
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
            key.open(&blob.nonce, 3, &[], &blob.ciphertext).unwrap(),
            b"window"
        );
    }

    #[test]
    fn blob_encoding_roundtrips() {
        let platform = SealingPlatform::from_seed(1);
        let mut rng = StdRng::seed_from_u64(2);
        let blob = platform.seal_versioned(&m(b"proxy"), 42, b"payload", &mut rng);
        let decoded = SealedBlob::decode(&blob.encode()).unwrap();
        assert_eq!(decoded, blob);
        assert_eq!(platform.unseal(&m(b"proxy"), &decoded).unwrap(), b"payload");
        assert_eq!(SealedBlob::decode(&[0u8; 5]), Err(SgxError::UnsealFailed));
    }
}
