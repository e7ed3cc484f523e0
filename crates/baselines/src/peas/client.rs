//! The PEAS client: wraps queries for the issuer, unwraps responses.

use super::issuer::{IssuerError, PeasIssuer};
use super::receiver::PeasReceiver;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use xsearch_core::wire::{decode_results, WireResult};
use xsearch_crypto::aead::ChaCha20Poly1305;
use xsearch_crypto::hybrid;
use xsearch_crypto::x25519::PublicKey;
use xsearch_query_log::record::UserId;

/// Errors from the client's side of a PEAS exchange.
#[derive(Debug, Clone, PartialEq)]
pub enum PeasError {
    /// The issuer rejected the request.
    Issuer(IssuerError),
    /// The response did not decrypt or parse.
    BadResponse,
}

impl std::fmt::Display for PeasError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeasError::Issuer(e) => write!(f, "issuer error: {e}"),
            PeasError::BadResponse => write!(f, "response failed to decrypt or parse"),
        }
    }
}

impl std::error::Error for PeasError {}

/// A PEAS end user.
#[derive(Debug)]
pub struct PeasClient {
    user: UserId,
    issuer_pub: PublicKey,
    rng: StdRng,
}

impl PeasClient {
    /// Creates a client that trusts `issuer_pub`.
    #[must_use]
    pub fn new(user: UserId, issuer_pub: PublicKey, seed: u64) -> Self {
        PeasClient {
            user,
            issuer_pub,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// One full PEAS exchange: hybrid-encrypt the query + one-time
    /// response key for the issuer, relay through the receiver, have the
    /// issuer run its obfuscate-fetch-filter pipeline, and decrypt the
    /// response. `fetch` is the engine: it answers the sub-queries in the
    /// result framing (see [`PeasIssuer::handle`]).
    ///
    /// # Errors
    ///
    /// [`PeasError`] on any crypto or protocol failure.
    pub fn search<F>(
        &mut self,
        receiver: &PeasReceiver,
        issuer: &PeasIssuer,
        query: &str,
        fetch: F,
    ) -> Result<Vec<WireResult>, PeasError>
    where
        F: FnOnce(&[String], usize) -> Vec<u8>,
    {
        let mut response_key = [0u8; 32];
        self.rng.fill_bytes(&mut response_key);
        let mut payload = response_key.to_vec();
        payload.extend_from_slice(query.as_bytes());
        let ciphertext = hybrid::seal(&mut self.rng, &self.issuer_pub, &payload);

        // Receiver hop: identity replaced by an exchange id.
        let (_view, forwarded) = receiver.relay(self.user, &ciphertext);

        let sealed_response = issuer
            .handle(&forwarded, fetch)
            .map_err(PeasError::Issuer)?;

        // The response buffer is already owned: verify and decrypt it
        // where it lies instead of allocating a plaintext copy.
        let aead = ChaCha20Poly1305::new(&response_key);
        let mut body = sealed_response;
        aead.open_vec(&[0u8; 12], b"peas-response", &mut body)
            .map_err(|_| PeasError::BadResponse)?;
        decode_results(&body).map_err(|_| PeasError::BadResponse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peas::cooccurrence::CooccurrenceMatrix;
    use crate::peas::fakegen::PeasFakeGenerator;
    use std::sync::Arc;
    use xsearch_engine::corpus::CorpusConfig;
    use xsearch_engine::engine::SearchEngine;

    fn setup() -> (PeasReceiver, PeasIssuer, Arc<SearchEngine>) {
        let engine = Arc::new(SearchEngine::build(&CorpusConfig {
            docs_per_topic: 20,
            ..Default::default()
        }));
        let matrix = CooccurrenceMatrix::build(&[
            "cheap flights paris".to_owned(),
            "hotel rome deals".to_owned(),
            "nfl scores".to_owned(),
        ]);
        let issuer = PeasIssuer::new(PeasFakeGenerator::new(matrix, 2), 3);
        (PeasReceiver::new(), issuer, engine)
    }

    #[test]
    fn end_to_end_search_returns_results() {
        let (receiver, issuer, engine) = setup();
        let mut client = PeasClient::new(UserId(1), issuer.public_key(), 4);
        let results = client
            .search(&receiver, &issuer, "flights hotel vacation", |subs, k| {
                xsearch_core::wire::encode_results(&engine.search_merged(subs, k))
            })
            .unwrap();
        assert!(!results.is_empty());
        assert_eq!(receiver.relayed(), 1);
    }

    #[test]
    fn receiver_never_sees_plaintext() {
        let (receiver, issuer, _) = setup();
        let mut client = PeasClient::new(UserId(1), issuer.public_key(), 5);
        let query = "very identifying query text";
        // Capture what crosses the receiver by relaying manually.
        let mut response_key = [0u8; 32];
        let mut rng = StdRng::seed_from_u64(5);
        rng.fill_bytes(&mut response_key);
        let mut payload = response_key.to_vec();
        payload.extend_from_slice(query.as_bytes());
        let ct = hybrid::seal(&mut rng, &issuer.public_key(), &payload);
        let needle = query.as_bytes();
        assert!(
            !ct.windows(needle.len()).any(|w| w == needle),
            "ciphertext must not contain the query"
        );
        // And the normal path still works.
        let _ = client
            .search(&receiver, &issuer, query, |_, _| Vec::new())
            .unwrap();
    }

    #[test]
    fn wrong_issuer_key_fails() {
        let (receiver, issuer, _) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let other = xsearch_crypto::x25519::StaticSecret::random(&mut rng);
        let mut client = PeasClient::new(UserId(1), other.public_key(), 7);
        let err = client
            .search(&receiver, &issuer, "q", |_, _| Vec::new())
            .unwrap_err();
        assert!(matches!(
            err,
            PeasError::Issuer(IssuerError::BadCiphertext(_))
        ));
    }
}
