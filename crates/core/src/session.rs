//! The attested encrypted channel between broker and enclave.
//!
//! §4.2: "the user sends her query to the proxy node through an encrypted
//! tunnel with an end point inside the SGX enclave". The tunnel here is
//! X25519 ECDH (the enclave's key bound into its attestation quote) →
//! HKDF-SHA-256 → per-direction ChaCha20-Poly1305 with counter nonces.

use crate::error::XSearchError;
use xsearch_crypto::aead::{counter_nonce, ChaCha20Poly1305, TAG_LEN};
use xsearch_crypto::hkdf;
use xsearch_crypto::sha256::Sha256;
use xsearch_crypto::x25519::PublicKey;

const CHANNEL_INFO: &[u8] = b"xsearch-channel-v1";
const CLIENT_DOMAIN: [u8; 4] = *b"c2s:";
const SERVER_DOMAIN: [u8; 4] = *b"s2c:";

/// Which side of the channel we are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The broker (client daemon).
    Client,
    /// The enclave.
    Server,
}

/// One direction's cipher state.
struct Directed {
    aead: ChaCha20Poly1305,
    domain: [u8; 4],
    counter: u64,
}

/// An established secure channel.
pub struct SecureChannel {
    send: Directed,
    recv: Directed,
}

impl std::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureChannel")
            .field("sent", &self.send.counter)
            .field("received", &self.recv.counter)
            .finish()
    }
}

impl SecureChannel {
    /// Derives the channel from the DH shared secret and both public keys
    /// (which salt the KDF, binding the channel to this key pair).
    #[must_use]
    pub fn establish(
        side: Side,
        shared: &[u8; 32],
        client_pub: &PublicKey,
        server_pub: &PublicKey,
    ) -> Self {
        let mut salt = [0u8; 64];
        salt[..32].copy_from_slice(client_pub.as_bytes());
        salt[32..].copy_from_slice(server_pub.as_bytes());
        let mut okm = [0u8; 64];
        hkdf::expand_into(&hkdf::extract(&salt, shared), CHANNEL_INFO, &mut okm);
        let c2s: [u8; 32] = okm[..32].try_into().expect("64-byte okm");
        let s2c: [u8; 32] = okm[32..].try_into().expect("64-byte okm");
        let (send_key, recv_key, send_domain, recv_domain) = match side {
            Side::Client => (c2s, s2c, CLIENT_DOMAIN, SERVER_DOMAIN),
            Side::Server => (s2c, c2s, SERVER_DOMAIN, CLIENT_DOMAIN),
        };
        SecureChannel {
            send: Directed {
                aead: ChaCha20Poly1305::new(&send_key),
                domain: send_domain,
                counter: 0,
            },
            recv: Directed {
                aead: ChaCha20Poly1305::new(&recv_key),
                domain: recv_domain,
                counter: 0,
            },
        }
    }

    /// Encrypts `buf` in place — plaintext in, `ciphertext ‖ tag` out —
    /// with this session's next outbound nonce. The zero-copy half of
    /// the hot path: the enclave serializes a response straight into a
    /// buffer with tag headroom and seals it where it lies.
    pub fn seal_in_place(&mut self, aad: &[u8], buf: &mut Vec<u8>) {
        let nonce = counter_nonce(self.send.domain, self.send.counter);
        self.send.counter += 1;
        self.send.aead.seal_vec(&nonce, aad, buf);
    }

    /// Encrypts `plaintext` into `out` (cleared first), reusing `out`'s
    /// capacity — a steady-state caller allocates nothing.
    pub fn seal_into(&mut self, aad: &[u8], plaintext: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.reserve(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.seal_in_place(aad, out);
    }

    /// Encrypts the next outbound message.
    ///
    /// Allocating wrapper over [`SecureChannel::seal_in_place`]; the hot
    /// paths use the buffer-reuse variants.
    pub fn seal(&mut self, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(aad, plaintext, &mut out);
        out
    }

    /// Decrypts the next inbound message into `out` (cleared first),
    /// reusing `out`'s capacity.
    ///
    /// # Errors
    ///
    /// [`XSearchError::Crypto`] when authentication fails (tampering,
    /// reordering or a desynchronized counter); the receive counter does
    /// not advance, and `out` holds no plaintext, in that case.
    pub fn open_into(
        &mut self,
        aad: &[u8],
        sealed: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), XSearchError> {
        let nonce = counter_nonce(self.recv.domain, self.recv.counter);
        out.clear();
        out.extend_from_slice(sealed);
        self.recv.aead.open_vec(&nonce, aad, out)?;
        self.recv.counter += 1;
        Ok(())
    }

    /// Decrypts the next inbound message.
    ///
    /// Allocating wrapper over [`SecureChannel::open_into`].
    ///
    /// # Errors
    ///
    /// See [`SecureChannel::open_into`].
    pub fn open(&mut self, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, XSearchError> {
        let mut out = Vec::new();
        self.open_into(aad, sealed, &mut out)?;
        Ok(out)
    }

    /// Messages sent so far.
    #[must_use]
    pub fn sent(&self) -> u64 {
        self.send.counter
    }
}

/// The report data bound into the enclave's attestation quote: a hash of
/// both channel public keys, preventing key substitution by the untrusted
/// host.
#[must_use]
pub fn channel_binding(server_pub: &PublicKey, client_pub: &PublicKey) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"xsearch-channel-binding-v1");
    h.update(server_pub.as_bytes());
    h.update(client_pub.as_bytes());
    h.finalize()
}

/// The report data bound into a replica's *registry enrollment* quote: a
/// hash of the enclave's channel identity key and the registry's
/// challenge nonce. The nonce makes every enrollment quote fresh, so a
/// quote captured while a replica was registered cannot be replayed to
/// re-enroll it after deregistration.
#[must_use]
pub fn registration_binding(enclave_pub: &PublicKey, nonce: &[u8; 32]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"xsearch-registry-binding-v1");
    h.update(enclave_pub.as_bytes());
    h.update(nonce);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xsearch_crypto::x25519::StaticSecret;

    fn pair() -> (SecureChannel, SecureChannel) {
        let mut rng = StdRng::seed_from_u64(1);
        let client = StaticSecret::random(&mut rng);
        let server = StaticSecret::random(&mut rng);
        let shared = client.diffie_hellman(&server.public_key()).unwrap();
        let c = SecureChannel::establish(
            Side::Client,
            &shared,
            &client.public_key(),
            &server.public_key(),
        );
        let s = SecureChannel::establish(
            Side::Server,
            &shared,
            &client.public_key(),
            &server.public_key(),
        );
        (c, s)
    }

    #[test]
    fn bidirectional_traffic_roundtrips() {
        let (mut c, mut s) = pair();
        let ct = c.seal(b"req", b"cheap flights");
        assert_eq!(s.open(b"req", &ct).unwrap(), b"cheap flights");
        let ct = s.seal(b"resp", b"result list");
        assert_eq!(c.open(b"resp", &ct).unwrap(), b"result list");
    }

    #[test]
    fn multiple_messages_use_fresh_nonces() {
        let (mut c, mut s) = pair();
        let ct1 = c.seal(b"", b"same payload");
        let ct2 = c.seal(b"", b"same payload");
        assert_ne!(ct1, ct2, "counter nonce must change the ciphertext");
        assert_eq!(s.open(b"", &ct1).unwrap(), b"same payload");
        assert_eq!(s.open(b"", &ct2).unwrap(), b"same payload");
    }

    #[test]
    fn replay_is_rejected() {
        let (mut c, mut s) = pair();
        let ct = c.seal(b"", b"msg");
        assert!(s.open(b"", &ct).is_ok());
        // Replaying the same ciphertext: receiver counter advanced.
        assert!(s.open(b"", &ct).is_err());
    }

    #[test]
    fn reordering_is_rejected() {
        let (mut c, mut s) = pair();
        let ct1 = c.seal(b"", b"first");
        let ct2 = c.seal(b"", b"second");
        assert!(s.open(b"", &ct2).is_err(), "out-of-order delivery fails");
        // ct1 still opens (failed opens do not advance the counter).
        assert_eq!(s.open(b"", &ct1).unwrap(), b"first");
    }

    #[test]
    fn directions_are_separated() {
        let (mut c, mut s) = pair();
        let ct = c.seal(b"", b"to server");
        // The client must not accept its own direction's traffic back.
        let mut c2 = {
            let (c2, _) = pair();
            c2
        };
        assert!(c2.open(b"", &ct).is_err());
        assert!(s.open(b"", &ct).is_ok());
    }

    #[test]
    fn wrong_aad_rejected() {
        let (mut c, mut s) = pair();
        let ct = c.seal(b"query", b"text");
        assert!(s.open(b"other", &ct).is_err());
    }

    #[test]
    fn buffer_reuse_variants_match_the_allocating_ones() {
        // Two identically-seeded channel pairs: one driven through the
        // allocating API, one through the scratch-buffer API — every
        // ciphertext must match byte for byte.
        let (mut c_alloc, mut s_alloc) = pair();
        let (mut c_reuse, mut s_reuse) = pair();
        let mut ct = Vec::new();
        let mut pt = Vec::new();
        for (i, msg) in [&b"hello world"[..], b"", b"third message"]
            .iter()
            .enumerate()
        {
            c_reuse.seal_into(b"q", msg, &mut ct);
            assert_eq!(ct, c_alloc.seal(b"q", msg), "message {i}");
            s_reuse.open_into(b"q", &ct, &mut pt).unwrap();
            assert_eq!(&pt, msg);
            assert_eq!(s_alloc.open(b"q", &ct).unwrap(), *msg);
        }
        // seal_in_place: the plaintext already lives in the buffer.
        let mut buf = b"in-place payload".to_vec();
        c_reuse.seal_in_place(b"q", &mut buf);
        assert_eq!(buf, c_alloc.seal(b"q", b"in-place payload"));
    }

    #[test]
    fn open_into_rejects_short_input_without_advancing() {
        let (mut c, mut s) = pair();
        let mut out = Vec::new();
        assert!(s.open_into(b"", &[0u8; 8], &mut out).is_err());
        // The counter did not advance: the next real message still opens.
        let ct = c.seal(b"", b"still in sync");
        s.open_into(b"", &ct, &mut out).unwrap();
        assert_eq!(out, b"still in sync");
    }

    #[test]
    fn registration_binding_depends_on_key_and_nonce() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = StaticSecret::random(&mut rng).public_key();
        let b = StaticSecret::random(&mut rng).public_key();
        assert_ne!(
            registration_binding(&a, &[1u8; 32]),
            registration_binding(&b, &[1u8; 32])
        );
        assert_ne!(
            registration_binding(&a, &[1u8; 32]),
            registration_binding(&a, &[2u8; 32]),
            "a fresh nonce must produce a fresh binding"
        );
    }

    #[test]
    fn binding_depends_on_both_keys() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = StaticSecret::random(&mut rng).public_key();
        let b = StaticSecret::random(&mut rng).public_key();
        let c = StaticSecret::random(&mut rng).public_key();
        assert_ne!(channel_binding(&a, &b), channel_binding(&a, &c));
        assert_ne!(channel_binding(&a, &b), channel_binding(&b, &a));
    }
}
