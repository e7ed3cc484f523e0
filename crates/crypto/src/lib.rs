//! From-scratch cryptographic substrate for the X-Search reproduction.
//!
//! The offline build environment provides no cryptography crates, so every
//! primitive the system needs is implemented here and validated against the
//! relevant RFC/FIPS test vectors:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4),
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104, vectors from RFC 4231),
//! * [`hkdf`] — HKDF-SHA-256 (RFC 5869),
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439),
//! * [`poly1305`] — the Poly1305 one-time authenticator (RFC 8439),
//! * [`aead`] — the ChaCha20-Poly1305 AEAD construction (RFC 8439),
//! * [`x25519`] — Diffie-Hellman over Curve25519 (RFC 7748),
//! * [`hybrid`] — an ECIES-style hybrid public-key encryption built from
//!   X25519 + HKDF + ChaCha20-Poly1305 (used by the PEAS baseline and by the
//!   X-Search attested channel),
//! * [`mod@reference`] — the pre-optimization scalar AEAD, kept only as a
//!   differential-testing and benchmarking baseline for the wide
//!   multi-block hot path.
//!
//! These are *reproduction-grade* implementations: correct, constant-time
//! where it matters for realistic cost measurement, but not hardened against
//! every side channel a production library would consider.
//!
//! # Example
//!
//! ```
//! use xsearch_crypto::aead::ChaCha20Poly1305;
//!
//! let key = [7u8; 32];
//! let aead = ChaCha20Poly1305::new(&key);
//! let nonce = [0u8; 12];
//! let sealed = aead.seal(&nonce, b"header", b"secret query");
//! let opened = aead.open(&nonce, b"header", &sealed).expect("authentic");
//! assert_eq!(opened, b"secret query");
//! ```

#![deny(missing_docs)]

pub mod aead;
pub mod chacha20;
pub mod constant_time;
pub mod error;
pub mod hex;
pub mod hkdf;
pub mod hmac;
pub mod hybrid;
pub mod poly1305;
pub mod reference;
pub mod sha256;
pub mod x25519;

pub use aead::ChaCha20Poly1305;
pub use error::CryptoError;
pub use sha256::Sha256;
pub use x25519::{PublicKey, StaticSecret};
