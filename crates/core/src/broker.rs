//! The client-side broker.
//!
//! §4.2: "this broker runs within the client's domain, such as a local
//! daemon process executing alongside the client's Web browser. The
//! broker is in charge of the SGX attestation step." It pins the expected
//! enclave measurement, verifies the proxy's quote with the attestation
//! service, checks that the quote binds exactly the channel keys in use,
//! and only then tunnels queries.

use crate::error::XSearchError;
use crate::proxy::{HandshakeResponse, XSearchProxy};
use crate::session::{channel_binding, SecureChannel, Side};
use crate::wire::{decode_results, WireResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use xsearch_crypto::x25519::{PublicKey, StaticSecret};
use xsearch_sgx_sim::attestation::AttestationService;
use xsearch_sgx_sim::measurement::Measurement;

/// An attested client session with one proxy.
pub struct Broker {
    client_pub: PublicKey,
    channel: SecureChannel,
    /// Reused for outbound ciphertexts and decrypted responses: a
    /// steady-state `search` performs no transient allocations on the
    /// sealed path (the decoded results are the deliverable).
    scratch: Vec<u8>,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("client_pub", &self.client_pub)
            .finish()
    }
}

impl Broker {
    /// Attests `proxy` and establishes the encrypted tunnel.
    ///
    /// `expected` is the pinned measurement of the canonical X-Search
    /// enclave code; a proxy running anything else is rejected before any
    /// query bytes leave the client.
    ///
    /// # Errors
    ///
    /// [`XSearchError::Sgx`] when the quote fails verification or the
    /// measurement mismatches; [`XSearchError::Protocol`] when the quote
    /// does not bind the session's channel keys.
    pub fn attach(
        proxy: &XSearchProxy,
        ias: &AttestationService,
        expected: Measurement,
        seed: u64,
    ) -> Result<Broker, XSearchError> {
        Broker::attach_keypair(proxy, ias, expected, ClientKeypair::for_seed(seed))
    }

    /// [`Broker::attach`] for a keypair that is already derived — what a
    /// routing layer holds after placing the session by
    /// [`ClientKeypair::public`]. Taking the pair by value is what makes
    /// pre-attach routing sound: the key that was routed is the key that
    /// is presented, and it costs one derivation, not two.
    ///
    /// # Errors
    ///
    /// As [`Broker::attach`].
    pub fn attach_keypair(
        proxy: &XSearchProxy,
        ias: &AttestationService,
        expected: Measurement,
        keypair: ClientKeypair,
    ) -> Result<Broker, XSearchError> {
        let resp = proxy.handshake(keypair.public)?;
        Broker::verify_and_derive(ias, expected, keypair, &resp)
    }

    /// The broker's half of the handshake: nothing of `resp` is trusted
    /// until the quote verifies and binds both keys, and no channel exists
    /// (so nothing can be sealed) unless the enclave's key is a sound
    /// Diffie-Hellman peer.
    fn verify_and_derive(
        ias: &AttestationService,
        expected: Measurement,
        keypair: ClientKeypair,
        resp: &HandshakeResponse,
    ) -> Result<Broker, XSearchError> {
        let ClientKeypair { secret, public } = keypair;
        ias.verify_expecting(&resp.quote, expected)?;
        let binding = channel_binding(&resp.enclave_pub, &public);
        if resp.quote.report_data != binding {
            return Err(XSearchError::Protocol(
                "quote does not bind the negotiated channel keys".into(),
            ));
        }

        let shared = secret.diffie_hellman(&resp.enclave_pub)?;
        let channel = SecureChannel::establish(Side::Client, &shared, &public, &resp.enclave_pub);
        Ok(Broker {
            client_pub: public,
            channel,
            scratch: Vec::new(),
        })
    }

    /// Re-establishes the session against a (possibly different) proxy —
    /// the failover path: when a fleet replica dies, the broker attests
    /// the successor replica from scratch and swaps its tunnel state in
    /// place.
    ///
    /// `seed` **must be fresh** (never passed to a previous
    /// `attach`/`reattach` of this broker): re-deriving the same client
    /// keypair against the same enclave identity would re-derive the same
    /// channel keys with reset nonce counters — nonce reuse. A fresh seed
    /// gives a fresh keypair and therefore fresh keys, at the cost of a
    /// new proxy-side session entry.
    ///
    /// # Errors
    ///
    /// See [`Broker::attach`]; on error `self` is left unchanged.
    pub fn reattach(
        &mut self,
        proxy: &XSearchProxy,
        ias: &AttestationService,
        expected: Measurement,
        seed: u64,
    ) -> Result<(), XSearchError> {
        *self = Broker::attach(proxy, ias, expected, seed)?;
        Ok(())
    }

    /// Sends one query through the tunnel and returns the filtered
    /// results.
    ///
    /// # Errors
    ///
    /// Tunnel crypto failures and protocol violations; see
    /// [`XSearchError`].
    pub fn search(
        &mut self,
        proxy: &XSearchProxy,
        query: &str,
    ) -> Result<Vec<WireResult>, XSearchError> {
        self.channel
            .seal_into(b"query", query.as_bytes(), &mut self.scratch);
        let response = proxy.request(self.client_pub.as_bytes(), &self.scratch)?;
        self.channel
            .open_into(b"results", &response, &mut self.scratch)?;
        decode_results(&self.scratch)
    }

    /// Seals one query for the tunnel without sending it — a caller that
    /// hands the ciphertext to another door (the fleet's
    /// `Cluster::forward`, a framed connection) seals with this. Sealing
    /// advances this session's
    /// nonce counter, so the responses must be opened in the same order
    /// the queries were sealed.
    #[must_use]
    pub fn seal_query(&mut self, query: &str) -> Vec<u8> {
        self.channel.seal(b"query", query.as_bytes())
    }

    /// The buffer-reuse form of [`Broker::seal_query`]: seals into `out`
    /// (cleared first), so a caller pumping many queries through one
    /// session allocates nothing per query.
    pub fn seal_query_into(&mut self, query: &str, out: &mut Vec<u8>) {
        self.channel.seal_into(b"query", query.as_bytes(), out);
    }

    /// Opens one encrypted response produced for this session (the
    /// receiving half of [`Broker::seal_query`]).
    ///
    /// # Errors
    ///
    /// Tunnel crypto failures and protocol violations; see
    /// [`XSearchError`].
    pub fn open_results(&mut self, response: &[u8]) -> Result<Vec<WireResult>, XSearchError> {
        self.channel
            .open_into(b"results", response, &mut self.scratch)?;
        decode_results(&self.scratch)
    }

    /// Like [`Broker::search`] but against the proxy's echo mode
    /// (no engine round trip) — used by the throughput experiments.
    ///
    /// # Errors
    ///
    /// See [`Broker::search`].
    pub fn search_echo(
        &mut self,
        proxy: &XSearchProxy,
        query: &str,
    ) -> Result<Vec<WireResult>, XSearchError> {
        self.channel
            .seal_into(b"query", query.as_bytes(), &mut self.scratch);
        let response = proxy.request_echo(self.client_pub.as_bytes(), &self.scratch)?;
        self.channel
            .open_into(b"results", &response, &mut self.scratch)?;
        decode_results(&self.scratch)
    }

    /// The broker's channel public key (the proxy-side session id).
    #[must_use]
    pub fn client_pub(&self) -> PublicKey {
        self.client_pub
    }

    /// The channel public key [`Broker::attach`] will present for
    /// `seed`. A caller that goes on to attach should derive a
    /// [`ClientKeypair`] once and hand it to [`Broker::attach_keypair`]
    /// instead of paying for the derivation twice.
    #[must_use]
    pub fn client_pub_for_seed(seed: u64) -> PublicKey {
        ClientKeypair::for_seed(seed).public
    }
}

/// A client channel keypair, derived but not yet attached: what exists
/// between "which replica does this session belong to" and the handshake
/// with that replica.
#[derive(Debug)]
pub struct ClientKeypair {
    secret: StaticSecret,
    public: PublicKey,
}

impl ClientKeypair {
    /// The deterministic seed → keypair derivation: the one place it
    /// happens, so every way of naming a seed's session agrees on its key.
    #[must_use]
    pub fn for_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = StaticSecret::random(&mut rng);
        let public = secret.public_key();
        ClientKeypair { secret, public }
    }

    /// The public half — the proxy-side session id and the routing key.
    #[must_use]
    pub fn public(&self) -> PublicKey {
        self.public
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XSearchConfig;
    use std::sync::Arc;
    use xsearch_engine::corpus::CorpusConfig;
    use xsearch_engine::engine::SearchEngine;
    use xsearch_query_log::topics::TOPICS;

    fn setup(k: usize) -> (XSearchProxy, AttestationService) {
        let ias = AttestationService::from_seed(5);
        let engine = Arc::new(SearchEngine::build(&CorpusConfig {
            docs_per_topic: 40,
            ..Default::default()
        }));
        let proxy = XSearchProxy::launch(
            XSearchConfig {
                k,
                history_capacity: 10_000,
                ..Default::default()
            },
            engine,
            &ias,
        );
        (proxy, ias)
    }

    #[test]
    fn attested_search_returns_relevant_results() {
        let (proxy, ias) = setup(2);
        proxy.seed_history(["stomach pain doctor", "mortgage rates", "nfl schedule"]);
        let mut broker = Broker::attach(&proxy, &ias, proxy.expected_measurement(), 1).unwrap();
        let travel = TOPICS.iter().position(|t| t.name == "travel").unwrap();
        let query = format!("{} {}", TOPICS[travel].terms[0], TOPICS[travel].terms[1]);
        let results = broker.search(&proxy, &query).unwrap();
        assert!(!results.is_empty());
        // Results must relate to the original query, not only to fakes.
        let engine = proxy.engine();
        let direct: std::collections::HashSet<String> = engine
            .search(&query, 20)
            .into_iter()
            .map(|r| r.title)
            .collect();
        let overlap = results.iter().filter(|r| direct.contains(&r.title)).count();
        assert!(
            overlap > 0,
            "filtered results should overlap the direct results"
        );
    }

    #[test]
    fn attach_rejects_wrong_measurement() {
        let (proxy, ias) = setup(1);
        let mut wrong = proxy.expected_measurement();
        wrong.0[0] ^= 1;
        let err = Broker::attach(&proxy, &ias, wrong, 1).unwrap_err();
        assert_eq!(
            err,
            XSearchError::Sgx(xsearch_sgx_sim::SgxError::MeasurementMismatch)
        );
    }

    #[test]
    fn attach_rejects_foreign_attestation_service() {
        let (proxy, _) = setup(1);
        let other_ias = AttestationService::from_seed(999);
        let err = Broker::attach(&proxy, &other_ias, proxy.expected_measurement(), 1).unwrap_err();
        assert_eq!(
            err,
            XSearchError::Sgx(xsearch_sgx_sim::SgxError::QuoteRejected)
        );
    }

    #[test]
    fn client_keys_for_a_seed_are_pinned() {
        // The bytes the ladder-based derivation produced before the
        // fixed-base table: routing, the benchmark's reply digests and
        // every replay transcript hang off them.
        for (seed, public) in [
            (
                0,
                "f393a413279939d85c5ba7b62a0b5c17917d020d6c7d44f3da0af7a4b1f7964e",
            ),
            (
                2017,
                "2c52afe92f2ecaaa883d5a0baa6c6f6a8fcbb8ba83ce6b384acc3449146ae232",
            ),
            (
                u64::MAX,
                "d42bbe7d465f958df58475fbb9c43d606500f5c88d4a71b75eb5afb494c3aa4b",
            ),
        ] {
            let key = Broker::client_pub_for_seed(seed);
            assert_eq!(xsearch_crypto::hex::encode(key.as_bytes()), public);
            assert_eq!(ClientKeypair::for_seed(seed).public(), key);
        }
    }

    #[test]
    fn a_low_order_enclave_key_is_refused_before_any_channel_exists() {
        // An enclave (or a quoting platform) that presents a small-order
        // identity key with an otherwise perfect quote: the measurement is
        // right and the report data binds exactly the two keys in use.
        let (proxy, ias) = setup(1);
        let expected = proxy.expected_measurement();
        for point in xsearch_crypto::x25519::low_order_points() {
            let keypair = ClientKeypair::for_seed(22);
            let enclave_pub = PublicKey(point);
            let binding = channel_binding(&enclave_pub, &keypair.public());
            // A quote on the wire is the MACed message followed by its MAC.
            let mut quote = [&expected.0[..], &32u64.to_le_bytes(), &binding].concat();
            let mac = xsearch_crypto::hmac::HmacSha256::mac(&ias.provisioning_key(), &quote);
            quote.extend_from_slice(&mac);
            let resp = HandshakeResponse {
                enclave_pub,
                quote: xsearch_sgx_sim::attestation::Quote::decode(&quote).unwrap(),
            };
            assert!(ias.verify_expecting(&resp.quote, expected).is_ok());
            assert_eq!(
                Broker::verify_and_derive(&ias, expected, keypair, &resp).unwrap_err(),
                XSearchError::Crypto(xsearch_crypto::CryptoError::WeakPublicKey),
            );
        }
    }

    #[test]
    fn consecutive_searches_share_the_session() {
        let (proxy, ias) = setup(1);
        proxy.seed_history(["warmup query"]);
        let mut broker = Broker::attach(&proxy, &ias, proxy.expected_measurement(), 2).unwrap();
        for q in ["flights paris", "hotel rome", "cruise caribbean"] {
            let _ = broker.search(&proxy, q).unwrap();
        }
    }

    #[test]
    fn reattach_moves_the_session_to_a_successor_proxy() {
        let (a, ias) = setup(1);
        let (b, _) = setup(1); // same IAS seed ⇒ same provisioning key
        a.seed_history(["warm a"]);
        b.seed_history(["warm b"]);
        let mut broker = Broker::attach(&a, &ias, a.expected_measurement(), 10).unwrap();
        let _ = broker.search(&a, "flights paris").unwrap();
        let old_pub = broker.client_pub();

        // Replica `a` dies; the broker re-attests against `b` with a
        // fresh seed and keeps searching.
        broker
            .reattach(&b, &ias, b.expected_measurement(), 11)
            .unwrap();
        assert_ne!(broker.client_pub(), old_pub, "fresh seed ⇒ fresh keys");
        let _ = broker.search(&b, "hotel rome").unwrap();
    }

    #[test]
    fn failed_reattach_leaves_the_broker_usable() {
        let (a, ias) = setup(1);
        a.seed_history(["warm"]);
        let mut broker = Broker::attach(&a, &ias, a.expected_measurement(), 12).unwrap();
        let mut wrong = a.expected_measurement();
        wrong.0[0] ^= 1;
        assert!(broker.reattach(&a, &ias, wrong, 13).is_err());
        // The original session still works.
        let _ = broker.search(&a, "cruise caribbean").unwrap();
    }

    #[test]
    fn echo_mode_returns_empty_results() {
        let (proxy, ias) = setup(3);
        proxy.seed_history(["a", "b", "c", "d"]);
        let mut broker = Broker::attach(&proxy, &ias, proxy.expected_measurement(), 3).unwrap();
        let results = broker.search_echo(&proxy, "anything").unwrap();
        assert!(results.is_empty());
    }

    #[test]
    fn untrusted_host_sees_only_obfuscated_queries() {
        // The engine-side fetch receives sub-queries; with a warm history
        // and k=3 the original is hidden among three real past queries.
        let (proxy, ias) = setup(3);
        proxy.seed_history(["decoy one", "decoy two", "decoy three", "decoy four"]);
        let mut broker = Broker::attach(&proxy, &ias, proxy.expected_measurement(), 4).unwrap();
        let _ = broker.search(&proxy, "sensitive medical query").unwrap();
        // Four requests crossed the boundary: connect/send/recv/close.
        assert_eq!(proxy.boundary().ocalls(), 4);
        // And three ecalls: init, one handshake, one request.
        assert_eq!(proxy.boundary().ecalls(), 3);
    }
}
