//! X25519 Diffie-Hellman (RFC 7748) over GF(2^255 − 19), using five 51-bit
//! limbs with 128-bit intermediate products.
//!
//! Two scalar multiplications, one per kind of point, both constant-time
//! in the scalar:
//!
//! * [`x25519`] — the Montgomery ladder, for a point only known at run
//!   time: both Diffie-Hellmans of a handshake go through it;
//! * [`StaticSecret::public_key`] — k·B for the fixed base point, a walk
//!   over a precomputed table on the birationally equivalent Edwards
//!   curve (the `edwards` module), about a quarter of a ladder's cost.
//!   It has no ladder fallback: `x25519(k, &basepoint())` is its oracle
//!   in the tests, not a second path.
//!
//! This primitive anchors the attested channel key exchange and the
//! ECIES-style hybrid encryption that models PEAS's public-key cost.

mod edwards;
mod field;

use crate::error::CryptoError;
use field::Fe;
use rand::RngCore;

/// Length of scalars, field elements and public keys.
pub const KEY_LEN: usize = 32;

/// Clamps a 32-byte scalar per RFC 7748 §5.
fn clamp(scalar: &mut [u8; 32]) {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
}

/// The raw X25519 function: scalar multiplication on the Montgomery curve.
///
/// `scalar` is clamped internally; `u` is a 32-byte u-coordinate.
#[must_use]
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let mut k = *scalar;
    clamp(&mut k);
    let x1 = Fe::from_bytes(u);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = u64::from((k[t / 8] >> (t % 8)) & 1);
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121_665)));
    }

    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);

    x2.mul(&z2.invert()).to_bytes()
}

/// The X25519 base point (u = 9).
#[must_use]
pub fn basepoint() -> [u8; 32] {
    let mut bp = [0u8; 32];
    bp[0] = 9;
    bp
}

/// A long-lived X25519 private key.
#[derive(Clone)]
pub struct StaticSecret {
    scalar: [u8; 32],
}

impl std::fmt::Debug for StaticSecret {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticSecret")
            .field("scalar", &"<secret>")
            .finish()
    }
}

impl StaticSecret {
    /// Generates a fresh random secret from the given RNG.
    pub fn random<R: RngCore>(rng: &mut R) -> Self {
        let mut scalar = [0u8; 32];
        rng.fill_bytes(&mut scalar);
        clamp(&mut scalar);
        StaticSecret { scalar }
    }

    /// Builds a secret from raw bytes (clamped internally).
    #[must_use]
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        let mut scalar = bytes;
        clamp(&mut scalar);
        StaticSecret { scalar }
    }

    /// Derives the corresponding public key: the fixed-base table walk,
    /// byte for byte what `x25519(scalar, &basepoint())` returns.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        PublicKey(edwards::mul_base(&self.scalar))
    }

    /// Runs the Diffie-Hellman exchange with a peer public key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::WeakPublicKey`] when the exchange yields the
    /// all-zero shared secret (the peer supplied a low-order point).
    pub fn diffie_hellman(&self, peer: &PublicKey) -> Result<[u8; 32], CryptoError> {
        let shared = x25519(&self.scalar, &peer.0);
        if shared == [0u8; 32] {
            return Err(CryptoError::WeakPublicKey);
        }
        Ok(shared)
    }
}

/// An X25519 public key (a Montgomery u-coordinate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub [u8; 32]);

impl PublicKey {
    /// Returns the raw 32 bytes.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// The u-coordinates [`StaticSecret::diffie_hellman`] refuses: the seven
/// encodings below 2^255 of a point of order 1, 2, 4 or 8 on the curve or
/// its twist (0, 1, the two of order 8, p − 1, p, p + 1), each also with
/// bit 255 set — X25519 masks that bit, so the alias is the same point.
/// Test material for every layer a hostile key can enter through.
#[must_use]
pub fn low_order_points() -> [[u8; 32]; 14] {
    const ORDER_8: [[u8; 32]; 2] = [
        [
            0xe0, 0xeb, 0x7a, 0x7c, 0x3b, 0x41, 0xb8, 0xae, 0x16, 0x56, 0xe3, 0xfa, 0xf1, 0x9f,
            0xc4, 0x6a, 0xda, 0x09, 0x8d, 0xeb, 0x9c, 0x32, 0xb1, 0xfd, 0x86, 0x62, 0x05, 0x16,
            0x5f, 0x49, 0xb8, 0x00,
        ],
        [
            0x5f, 0x9c, 0x95, 0xbc, 0xa3, 0x50, 0x8c, 0x24, 0xb1, 0xd0, 0xb1, 0x55, 0x9c, 0x83,
            0xef, 0x5b, 0x04, 0x44, 0x5c, 0xc4, 0x58, 0x1c, 0x8e, 0x86, 0xd8, 0x22, 0x4e, 0xdd,
            0xd0, 0x9f, 0x11, 0x57,
        ],
    ];
    // p − 1, p, p + 1 differ in the low byte only: p = 2^255 − 19.
    let near_p = |low: u8| {
        let mut bytes = [0xff; 32];
        bytes[0] = low;
        bytes[31] = 0x7f;
        bytes
    };
    let mut one = [0u8; 32];
    one[0] = 1;
    let canonical = [
        [0u8; 32],
        one,
        ORDER_8[0],
        ORDER_8[1],
        near_p(0xec),
        near_p(0xed),
        near_p(0xee),
    ];
    std::array::from_fn(|i| {
        let mut point = canonical[i % 7];
        point[31] |= (i as u8 / 7) << 7;
        point
    })
}

impl From<[u8; 32]> for PublicKey {
    fn from(bytes: [u8; 32]) -> Self {
        PublicKey(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arr(s: &str) -> [u8; 32] {
        hex::decode_expect(s).try_into().unwrap()
    }

    #[test]
    fn rfc7748_vector_1() {
        let scalar = arr("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = arr("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        assert_eq!(
            hex::encode(&x25519(&scalar, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    #[test]
    fn rfc7748_vector_2() {
        let scalar = arr("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = arr("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        assert_eq!(
            hex::encode(&x25519(&scalar, &u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    #[test]
    fn rfc7748_diffie_hellman() {
        let alice = StaticSecret::from_bytes(arr(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        ));
        let bob = StaticSecret::from_bytes(arr(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        ));
        assert_eq!(
            hex::encode(alice.public_key().as_bytes()),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex::encode(bob.public_key().as_bytes()),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let s1 = alice.diffie_hellman(&bob.public_key()).unwrap();
        let s2 = bob.diffie_hellman(&alice.public_key()).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(
            hex::encode(&s1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn rfc7748_iterated_once() {
        // RFC 7748 §5.2: after 1 iteration of k = X25519(k, u); u = old k.
        let mut k = basepoint();
        let mut u = basepoint();
        let result = x25519(&k, &u);
        u = k;
        k = result;
        let _ = u;
        assert_eq!(
            hex::encode(&k),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    #[test]
    fn rfc7748_iterated_1000() {
        // RFC 7748 §5.2, the second checkpoint.
        let mut k = basepoint();
        let mut u = basepoint();
        for _ in 0..1000 {
            let result = x25519(&k, &u);
            u = k;
            k = result;
        }
        assert_eq!(
            hex::encode(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn low_order_point_is_rejected() {
        let secret = StaticSecret::from_bytes([7u8; 32]);
        let zero_point = PublicKey([0u8; 32]);
        assert_eq!(
            secret.diffie_hellman(&zero_point),
            Err(CryptoError::WeakPublicKey)
        );
    }

    #[test]
    fn every_low_order_point_and_alias_is_rejected() {
        for secret in [[7u8; 32], [0xa5; 32]].map(StaticSecret::from_bytes) {
            for point in low_order_points() {
                assert_eq!(
                    secret.diffie_hellman(&PublicKey(point)),
                    Err(CryptoError::WeakPublicKey),
                    "{}",
                    hex::encode(&point)
                );
            }
        }
    }

    #[test]
    fn public_key_is_the_ladder_on_the_base_point_for_edge_scalars() {
        // All-zero and all-one bits, and every nibble 0x8 / 0x7 (with
        // their mixes) so the signed recoding carries, or does not, from
        // the first digit to the last.
        for fill in [0x00u8, 0xff, 0x88, 0x77, 0x87, 0x78, 0x8f, 0xf8, 0x01] {
            let secret = StaticSecret::from_bytes([fill; 32]);
            assert_eq!(
                secret.public_key().0,
                x25519(&[fill; 32], &basepoint()),
                "fill {fill:#04x}"
            );
        }
    }

    #[test]
    fn field_roundtrip_under_p() {
        // Any value with the top bit clear and below p round-trips.
        let mut bytes = [0u8; 32];
        bytes[0] = 42;
        bytes[20] = 9;
        assert_eq!(Fe::from_bytes(&bytes).to_bytes(), bytes);
    }

    #[test]
    fn invert_one_is_one() {
        assert_eq!(Fe::ONE.invert(), Fe::ONE);
    }

    #[test]
    fn invert_is_inverse() {
        let mut bytes = [0u8; 32];
        bytes[0] = 5;
        let x = Fe::from_bytes(&bytes);
        let prod = x.mul(&x.invert());
        assert_eq!(prod.to_bytes(), Fe::ONE.to_bytes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn public_key_is_the_ladder_on_the_base_point(scalar: [u8; 32]) {
            prop_assert_eq!(
                StaticSecret::from_bytes(scalar).public_key().0,
                x25519(&scalar, &basepoint())
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn dh_commutes(seed_a: u64, seed_b: u64) {
            let mut rng_a = StdRng::seed_from_u64(seed_a);
            let mut rng_b = StdRng::seed_from_u64(seed_b ^ 0x5a5a);
            let a = StaticSecret::random(&mut rng_a);
            let b = StaticSecret::random(&mut rng_b);
            let s1 = a.diffie_hellman(&b.public_key()).unwrap();
            let s2 = b.diffie_hellman(&a.public_key()).unwrap();
            prop_assert_eq!(s1, s2);
        }

        #[test]
        fn fe_mul_commutes(a_bytes: [u8; 32], b_bytes: [u8; 32]) {
            let a = Fe::from_bytes(&a_bytes);
            let b = Fe::from_bytes(&b_bytes);
            prop_assert_eq!(a.mul(&b).to_bytes(), b.mul(&a).to_bytes());
        }

        #[test]
        fn fe_add_sub_cancels(a_bytes: [u8; 32], b_bytes: [u8; 32]) {
            let a = Fe::from_bytes(&a_bytes);
            let b = Fe::from_bytes(&b_bytes);
            prop_assert_eq!(a.add(&b).sub(&b).to_bytes(), a.to_bytes());
        }
    }
}
