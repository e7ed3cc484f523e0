//! The client side of a 3-hop circuit.

use super::relay::hop_key;
use rand::RngCore;
use xsearch_crypto::aead::{counter_nonce, ChaCha20Poly1305, TAG_LEN};
use xsearch_crypto::x25519::{PublicKey, StaticSecret};

/// Errors from client-side onion processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitError {
    /// A response layer failed to authenticate.
    BadLayer,
}

impl std::fmt::Display for CircuitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "response onion layer failed to authenticate")
    }
}

impl std::error::Error for CircuitError {}

struct ClientHop {
    aead: ChaCha20Poly1305,
    forward: u64,
    backward: u64,
}

/// Client-side key material for one circuit (guard first, exit last).
pub struct ClientCircuit {
    id: u64,
    hops: Vec<ClientHop>,
}

impl std::fmt::Debug for ClientCircuit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientCircuit")
            .field("id", &self.id)
            .field("hops", &self.hops.len())
            .finish()
    }
}

impl ClientCircuit {
    /// Establishes client-side hop keys toward the given relay public
    /// keys, returning the circuit and the ephemeral public keys the
    /// relays need for their side of the handshake (in hop order).
    pub fn establish<R: RngCore>(
        id: u64,
        relay_keys: &[PublicKey],
        rng: &mut R,
    ) -> (Self, Vec<PublicKey>) {
        let mut hops = Vec::with_capacity(relay_keys.len());
        let mut ephemerals = Vec::with_capacity(relay_keys.len());
        for relay_pub in relay_keys {
            let eph = StaticSecret::random(rng);
            let shared = eph
                .diffie_hellman(relay_pub)
                .expect("directory keys are well-formed");
            let key = hop_key(&shared, &eph.public_key(), relay_pub);
            hops.push(ClientHop {
                aead: ChaCha20Poly1305::new(&key),
                forward: 0,
                backward: 0,
            });
            ephemerals.push(eph.public_key());
        }
        (ClientCircuit { id, hops }, ephemerals)
    }

    /// The circuit id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Builds the forward onion: innermost layer for the exit, outermost
    /// for the guard.
    ///
    /// All layers are applied in one buffer sized for the payload plus
    /// every hop's tag up front: each layer encrypts the accumulated
    /// onion in place and appends its detached tag, instead of the old
    /// allocate-and-copy per layer.
    pub fn wrap_forward(&mut self, payload: &[u8]) -> Vec<u8> {
        let mut onion = Vec::with_capacity(payload.len() + self.hops.len() * TAG_LEN);
        onion.extend_from_slice(payload);
        for hop in self.hops.iter_mut().rev() {
            let nonce = counter_nonce(*b"torF", hop.forward);
            hop.forward += 1;
            hop.aead.seal_vec(&nonce, &[], &mut onion);
        }
        onion
    }

    /// Peels a response onion (guard's layer outermost) — one buffer,
    /// each layer verified and decrypted in place, then truncated by
    /// its tag.
    ///
    /// # Errors
    ///
    /// [`CircuitError::BadLayer`] on tampering or desynchronization.
    pub fn unwrap_backward(&mut self, onion: &[u8]) -> Result<Vec<u8>, CircuitError> {
        let mut data = onion.to_vec();
        for hop in &mut self.hops {
            let nonce = counter_nonce(*b"torB", hop.backward);
            hop.aead
                .open_vec(&nonce, &[], &mut data)
                .map_err(|_| CircuitError::BadLayer)?;
            hop.backward += 1;
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn relay_secrets(n: usize, rng: &mut StdRng) -> Vec<StaticSecret> {
        (0..n).map(|_| StaticSecret::random(rng)).collect()
    }

    #[test]
    fn onion_has_three_layers() {
        let mut rng = StdRng::seed_from_u64(1);
        let relays = relay_secrets(3, &mut rng);
        let keys: Vec<PublicKey> = relays.iter().map(StaticSecret::public_key).collect();
        let (mut circuit, ephs) = ClientCircuit::establish(1, &keys, &mut rng);
        assert_eq!(ephs.len(), 3);

        let onion = circuit.wrap_forward(b"query");
        // Each AEAD layer adds a 16-byte tag.
        assert_eq!(onion.len(), 5 + 3 * 16);
    }

    #[test]
    fn relays_peel_in_order() {
        let mut rng = StdRng::seed_from_u64(2);
        let relays = relay_secrets(3, &mut rng);
        let keys: Vec<PublicKey> = relays.iter().map(StaticSecret::public_key).collect();
        let (mut circuit, ephs) = ClientCircuit::establish(7, &keys, &mut rng);
        let onion = circuit.wrap_forward(b"to the exit");

        // Manually peel layer by layer with each relay's derived key.
        let mut data = onion;
        for (relay_secret, eph) in relays.iter().zip(&ephs) {
            let shared = relay_secret.diffie_hellman(eph).unwrap();
            let key = hop_key(&shared, eph, &relay_secret.public_key());
            let aead = ChaCha20Poly1305::new(&key);
            data = aead.open(&counter_nonce(*b"torF", 0), &[], &data).unwrap();
        }
        assert_eq!(data, b"to the exit");
    }

    #[test]
    fn backward_wrapping_unwraps_at_client() {
        let mut rng = StdRng::seed_from_u64(3);
        let relays = relay_secrets(3, &mut rng);
        let keys: Vec<PublicKey> = relays.iter().map(StaticSecret::public_key).collect();
        let (mut circuit, ephs) = ClientCircuit::establish(9, &keys, &mut rng);

        // Response wrapped by exit, middle, guard (reverse path).
        let mut data = b"response".to_vec();
        for (relay_secret, eph) in relays.iter().zip(&ephs).rev() {
            let shared = relay_secret.diffie_hellman(eph).unwrap();
            let key = hop_key(&shared, eph, &relay_secret.public_key());
            let aead = ChaCha20Poly1305::new(&key);
            data = aead.seal(&counter_nonce(*b"torB", 0), &[], &data);
        }
        assert_eq!(circuit.unwrap_backward(&data).unwrap(), b"response");
    }

    #[test]
    fn tampered_response_fails() {
        let mut rng = StdRng::seed_from_u64(4);
        let relays = relay_secrets(3, &mut rng);
        let keys: Vec<PublicKey> = relays.iter().map(StaticSecret::public_key).collect();
        let (mut circuit, _) = ClientCircuit::establish(1, &keys, &mut rng);
        assert_eq!(
            circuit.unwrap_backward(&[0u8; 80]),
            Err(CircuitError::BadLayer)
        );
    }
}
