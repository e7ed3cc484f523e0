//! The simulated Tor network: directory, circuit construction and full
//! round trips.

use super::cell::{from_cells, to_cells};
use super::circuit::ClientCircuit;
use super::relay::{Relay, RelayError};
use rand::seq::SliceRandom;
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xsearch_net_sim::delay::busy_wait;

/// Errors from a Tor round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TorError {
    /// A relay rejected the onion.
    Relay(RelayError),
    /// The client could not open the response.
    BadResponse,
    /// Cell framing was violated.
    BadFraming,
}

impl std::fmt::Display for TorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TorError::Relay(e) => write!(f, "relay error: {e}"),
            TorError::BadResponse => write!(f, "client could not open response onion"),
            TorError::BadFraming => write!(f, "cell framing violated"),
        }
    }
}

impl std::error::Error for TorError {}

impl From<RelayError> for TorError {
    fn from(e: RelayError) -> Self {
        TorError::Relay(e)
    }
}

/// The directory plus the relays themselves.
pub struct TorNetwork {
    relays: Vec<Arc<Relay>>,
    next_circuit: AtomicU64,
    /// CPU-bound service time modeled per relay per message — the
    /// capacity term that makes Tor saturate near the paper's ~100 req/s
    /// (relays are shared, bandwidth-limited machines; see DESIGN.md).
    relay_service: Duration,
}

impl std::fmt::Debug for TorNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TorNetwork")
            .field("relays", &self.relays.len())
            .finish()
    }
}

/// A circuit bound to its path through the network.
#[derive(Debug)]
pub struct BoundCircuit {
    circuit: ClientCircuit,
    path: Vec<Arc<Relay>>,
}

impl TorNetwork {
    /// Spins up `n` relays with the given per-relay service time.
    pub fn new<R: RngCore>(n: usize, relay_service: Duration, rng: &mut R) -> Self {
        assert!(n >= 3, "need at least 3 relays for a circuit");
        let relays = (0..n).map(|i| Arc::new(Relay::new(i, rng))).collect();
        TorNetwork {
            relays,
            next_circuit: AtomicU64::new(1),
            relay_service,
        }
    }

    /// Builds a fresh 3-hop circuit over distinct relays.
    pub fn build_circuit<R: RngCore>(&self, rng: &mut R) -> BoundCircuit {
        let mut indices: Vec<usize> = (0..self.relays.len()).collect();
        indices.shuffle(rng);
        let path: Vec<Arc<Relay>> = indices
            .into_iter()
            .take(3)
            .map(|i| self.relays[i].clone())
            .collect();
        let keys: Vec<_> = path.iter().map(|r| r.public_key()).collect();
        let id = self.next_circuit.fetch_add(1, Ordering::Relaxed);
        let (circuit, ephemerals) = ClientCircuit::establish(id, &keys, rng);
        for (relay, eph) in path.iter().zip(&ephemerals) {
            relay.extend(id, eph);
        }
        BoundCircuit { circuit, path }
    }

    /// One full round trip: the request traverses guard → middle → exit
    /// (one layer peeled and one service time paid per relay), the exit
    /// hands the plaintext to `exit_fn` (the search engine), and the
    /// response is wrapped back hop by hop.
    ///
    /// # Errors
    ///
    /// Any [`TorError`] variant on authentication or framing failure.
    pub fn round_trip<F>(
        &self,
        bound: &mut BoundCircuit,
        request: &[u8],
        exit_fn: F,
    ) -> Result<Vec<u8>, TorError>
    where
        F: FnOnce(&[u8]) -> Vec<u8>,
    {
        // Client: frame into cells, then wrap the whole cell train.
        let cells = to_cells(request);
        let framed: Vec<u8> = cells.iter().flat_map(|c| c.iter().copied()).collect();
        let mut onion = bound.circuit.wrap_forward(&framed);

        for relay in &bound.path {
            busy_wait(self.relay_service);
            onion = relay.peel_forward(bound.circuit.id(), &onion)?;
        }
        // Exit: reassemble the request and query the engine.
        let cell_vec: Vec<[u8; super::cell::CELL_LEN]> = onion
            .chunks(super::cell::CELL_LEN)
            .map(|c| {
                let mut cell = [0u8; super::cell::CELL_LEN];
                cell[..c.len()].copy_from_slice(c);
                cell
            })
            .collect();
        let plain_request = from_cells(&cell_vec).ok_or(TorError::BadFraming)?;
        let response = exit_fn(&plain_request);

        // Backward: each relay wraps one layer, exit first.
        let resp_cells = to_cells(&response);
        let mut data: Vec<u8> = resp_cells.iter().flat_map(|c| c.iter().copied()).collect();
        for relay in bound.path.iter().rev() {
            busy_wait(self.relay_service);
            data = relay.wrap_backward(bound.circuit.id(), &data)?;
        }

        let framed_resp = bound
            .circuit
            .unwrap_backward(&data)
            .map_err(|_| TorError::BadResponse)?;
        let resp_cell_vec: Vec<[u8; super::cell::CELL_LEN]> = framed_resp
            .chunks(super::cell::CELL_LEN)
            .map(|c| {
                let mut cell = [0u8; super::cell::CELL_LEN];
                cell[..c.len()].copy_from_slice(c);
                cell
            })
            .collect();
        from_cells(&resp_cell_vec).ok_or(TorError::BadFraming)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network(rng: &mut StdRng) -> TorNetwork {
        TorNetwork::new(9, Duration::ZERO, rng)
    }

    #[test]
    fn round_trip_delivers_query_and_response() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = network(&mut rng);
        let mut circuit = net.build_circuit(&mut rng);
        let response = net
            .round_trip(&mut circuit, b"cheap flights", |req| {
                assert_eq!(req, b"cheap flights");
                b"ten blue links".to_vec()
            })
            .unwrap();
        assert_eq!(response, b"ten blue links");
    }

    #[test]
    fn circuit_survives_multiple_round_trips() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = network(&mut rng);
        let mut circuit = net.build_circuit(&mut rng);
        for i in 0..5 {
            let req = format!("query {i}");
            let resp = net
                .round_trip(&mut circuit, req.as_bytes(), |r| r.to_vec())
                .unwrap();
            assert_eq!(resp, req.as_bytes());
        }
    }

    #[test]
    fn paths_use_three_distinct_relays() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = network(&mut rng);
        let bound = net.build_circuit(&mut rng);
        let ids: std::collections::HashSet<usize> = bound.path.iter().map(|r| r.id()).collect();
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn exit_sees_plaintext_but_guard_does_not() {
        // Structural check: what the guard peels is still ciphertext
        // (two layers remain), so it cannot read the query.
        let mut rng = StdRng::seed_from_u64(4);
        let net = network(&mut rng);
        let mut bound = net.build_circuit(&mut rng);
        let cells = to_cells(b"the secret query");
        let framed: Vec<u8> = cells.iter().flat_map(|c| c.iter().copied()).collect();
        let onion = bound.circuit.wrap_forward(&framed);
        let after_guard = bound.path[0]
            .peel_forward(bound.circuit.id(), &onion)
            .unwrap();
        let needle = b"the secret query";
        let visible = after_guard.windows(needle.len()).any(|w| w == needle);
        assert!(!visible, "guard must not see the plaintext");
    }

    #[test]
    fn large_responses_roundtrip() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = network(&mut rng);
        let mut circuit = net.build_circuit(&mut rng);
        let big = vec![0x5au8; 10_000];
        let response = net.round_trip(&mut circuit, b"q", |_| big.clone()).unwrap();
        assert_eq!(response, big);
    }
}
