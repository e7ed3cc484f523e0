//! A Tor relay: holds an identity key and per-circuit hop state.

use rand::RngCore;
use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};
use xsearch_crypto::aead::{counter_nonce, ChaCha20Poly1305, TAG_LEN};
use xsearch_crypto::hkdf;
use xsearch_crypto::x25519::{PublicKey, StaticSecret};

/// Errors from relay-side processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayError {
    /// The circuit id is unknown at this relay.
    UnknownCircuit,
    /// A layer failed to authenticate (tampered or mis-routed onion).
    BadOnion,
}

impl std::fmt::Display for RelayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelayError::UnknownCircuit => write!(f, "unknown circuit"),
            RelayError::BadOnion => write!(f, "onion layer failed to authenticate"),
        }
    }
}

impl std::error::Error for RelayError {}

struct HopState {
    aead: ChaCha20Poly1305,
    forward: u64,
    backward: u64,
}

/// One onion router.
pub struct Relay {
    id: usize,
    secret: StaticSecret,
    circuits: Mutex<HashMap<u64, HopState>>,
}

impl std::fmt::Debug for Relay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Relay").field("id", &self.id).finish()
    }
}

/// Derives the per-hop AEAD key from a DH shared secret (the ntor-style
/// key schedule, simplified).
pub(crate) fn hop_key(
    shared: &[u8; 32],
    client_eph: &PublicKey,
    relay_pub: &PublicKey,
) -> [u8; 32] {
    let mut salt = Vec::with_capacity(64);
    salt.extend_from_slice(client_eph.as_bytes());
    salt.extend_from_slice(relay_pub.as_bytes());
    hkdf::derive(&salt, shared, b"tor-sim-hop-v1", 32)
        .try_into()
        .expect("32 bytes requested")
}

impl Relay {
    /// Creates a relay with a fresh identity key.
    pub fn new<R: RngCore>(id: usize, rng: &mut R) -> Self {
        Relay {
            id,
            secret: StaticSecret::random(rng),
            circuits: Mutex::new(HashMap::new()),
        }
    }

    /// Relay index in the directory.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// The relay's public identity key (published in the directory).
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.secret.public_key()
    }

    /// Handles a CREATE/EXTEND: derives the hop key for `circuit` from
    /// the client's ephemeral public key.
    pub fn extend(&self, circuit: u64, client_eph: &PublicKey) {
        let shared = self
            .secret
            .diffie_hellman(client_eph)
            .expect("client ephemeral keys are well-formed in this simulation");
        let key = hop_key(&shared, client_eph, &self.public_key());
        self.circuits
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                circuit,
                HopState {
                    aead: ChaCha20Poly1305::new(&key),
                    forward: 0,
                    backward: 0,
                },
            );
    }

    /// Peels one forward layer (client → exit direction): one result
    /// allocation, verified and decrypted in place.
    ///
    /// # Errors
    ///
    /// [`RelayError::UnknownCircuit`] / [`RelayError::BadOnion`].
    pub fn peel_forward(&self, circuit: u64, onion: &[u8]) -> Result<Vec<u8>, RelayError> {
        let mut circuits = self.circuits.lock().unwrap_or_else(PoisonError::into_inner);
        let state = circuits
            .get_mut(&circuit)
            .ok_or(RelayError::UnknownCircuit)?;
        let nonce = counter_nonce(*b"torF", state.forward);
        let mut inner = onion.to_vec();
        state
            .aead
            .open_vec(&nonce, &[], &mut inner)
            .map_err(|_| RelayError::BadOnion)?;
        state.forward += 1;
        Ok(inner)
    }

    /// Wraps one backward layer (engine → client direction): the layer
    /// is sealed in place in a buffer with tag headroom.
    ///
    /// # Errors
    ///
    /// [`RelayError::UnknownCircuit`].
    pub fn wrap_backward(&self, circuit: u64, payload: &[u8]) -> Result<Vec<u8>, RelayError> {
        let mut circuits = self.circuits.lock().unwrap_or_else(PoisonError::into_inner);
        let state = circuits
            .get_mut(&circuit)
            .ok_or(RelayError::UnknownCircuit)?;
        let nonce = counter_nonce(*b"torB", state.backward);
        state.backward += 1;
        let mut out = Vec::with_capacity(payload.len() + TAG_LEN);
        out.extend_from_slice(payload);
        state.aead.seal_vec(&nonce, &[], &mut out);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn extend_then_peel_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let relay = Relay::new(0, &mut rng);
        let client_eph = StaticSecret::random(&mut rng);
        relay.extend(42, &client_eph.public_key());

        // The client derives the same key and seals a layer.
        let shared = client_eph.diffie_hellman(&relay.public_key()).unwrap();
        let key = hop_key(&shared, &client_eph.public_key(), &relay.public_key());
        let aead = ChaCha20Poly1305::new(&key);
        let onion = aead.seal(&counter_nonce(*b"torF", 0), &[], b"inner payload");

        assert_eq!(relay.peel_forward(42, &onion).unwrap(), b"inner payload");
    }

    #[test]
    fn unknown_circuit_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let relay = Relay::new(0, &mut rng);
        assert_eq!(relay.peel_forward(9, b"x"), Err(RelayError::UnknownCircuit));
        assert_eq!(
            relay.wrap_backward(9, b"x"),
            Err(RelayError::UnknownCircuit)
        );
    }

    #[test]
    fn tampered_onion_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let relay = Relay::new(0, &mut rng);
        let client_eph = StaticSecret::random(&mut rng);
        relay.extend(1, &client_eph.public_key());
        assert_eq!(relay.peel_forward(1, &[0u8; 64]), Err(RelayError::BadOnion));
    }

    #[test]
    fn circuits_are_isolated() {
        let mut rng = StdRng::seed_from_u64(4);
        let relay = Relay::new(0, &mut rng);
        let a = StaticSecret::random(&mut rng);
        let b = StaticSecret::random(&mut rng);
        relay.extend(1, &a.public_key());
        relay.extend(2, &b.public_key());

        let onion_for = |eph: &StaticSecret, payload: &[u8]| {
            let shared = eph.diffie_hellman(&relay.public_key()).unwrap();
            let key = hop_key(&shared, &eph.public_key(), &relay.public_key());
            ChaCha20Poly1305::new(&key).seal(&counter_nonce(*b"torF", 0), &[], payload)
        };
        let onion = onion_for(&a, b"p");
        // Both circuits are live, and circuit 2 cannot decrypt circuit 1's
        // traffic.
        assert_eq!(relay.peel_forward(2, &onion), Err(RelayError::BadOnion));
        assert_eq!(relay.peel_forward(1, &onion).unwrap(), b"p");
        assert_eq!(relay.peel_forward(2, &onion_for(&b, b"q")).unwrap(), b"q");
    }
}
