//! The PEAS issuer proxy: decrypts queries (one asymmetric operation per
//! request — the Fig 5 cost), hides them among co-occurrence fakes,
//! queries the engine, filters, and encrypts the response.

use super::fakegen::PeasFakeGenerator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, PoisonError};
use xsearch_core::wire::{encode_results_into, encoded_len, parse_results};
use xsearch_crypto::aead::ChaCha20Poly1305;
use xsearch_crypto::hybrid;
use xsearch_crypto::x25519::{PublicKey, StaticSecret};
use xsearch_crypto::CryptoError;

/// The issuer's half of the PEAS proxy pair.
pub struct PeasIssuer {
    secret: StaticSecret,
    fakegen: Mutex<PeasFakeGenerator>,
    rng: Mutex<StdRng>,
    k: usize,
}

impl std::fmt::Debug for PeasIssuer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeasIssuer").field("k", &self.k).finish()
    }
}

/// Errors from issuer processing.
#[derive(Debug, Clone, PartialEq)]
pub enum IssuerError {
    /// The hybrid ciphertext did not decrypt.
    BadCiphertext(CryptoError),
    /// The decrypted payload was malformed.
    BadPayload,
    /// The engine's answer was not a well-formed result list.
    BadResults,
}

impl std::fmt::Display for IssuerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IssuerError::BadCiphertext(e) => write!(f, "undecryptable request: {e}"),
            IssuerError::BadPayload => write!(f, "malformed request payload"),
            IssuerError::BadResults => write!(f, "malformed engine results"),
        }
    }
}

impl std::error::Error for IssuerError {}

impl PeasIssuer {
    /// Creates an issuer with a fresh key pair and a trained fake-query
    /// generator.
    #[must_use]
    pub fn new(fakegen: PeasFakeGenerator, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        PeasIssuer {
            secret: StaticSecret::random(&mut rng),
            fakegen: Mutex::new(fakegen),
            rng: Mutex::new(rng),
            k: 3,
        }
    }

    /// Sets the number of fake queries per request.
    pub fn set_k(&mut self, k: usize) {
        self.k = k;
    }

    /// The issuer's public key, published to clients.
    #[must_use]
    pub fn public_key(&self) -> PublicKey {
        self.secret.public_key()
    }

    /// Handles one relayed request: decrypt, obfuscate, fetch, filter,
    /// encrypt back.
    ///
    /// The payload format (built by [`super::client::PeasClient`]) is
    /// `response_key (32 bytes) ‖ query (utf-8)`. `fetch` answers the
    /// sub-queries in the result framing
    /// ([`xsearch_core::wire::encode_results`]), as the engine answers
    /// the X-Search enclave.
    ///
    /// # Errors
    ///
    /// [`IssuerError`] on undecryptable or malformed requests and on a
    /// malformed engine answer.
    pub fn handle<F>(&self, ciphertext: &[u8], fetch: F) -> Result<Vec<u8>, IssuerError>
    where
        F: FnOnce(&[String], usize) -> Vec<u8>,
    {
        // The asymmetric operation Fig 5 charges per request.
        let payload = hybrid::open(&self.secret, ciphertext).map_err(IssuerError::BadCiphertext)?;
        if payload.len() < 33 {
            return Err(IssuerError::BadPayload);
        }
        let (key_bytes, query_bytes) = payload.split_at(32);
        let response_key: [u8; 32] = key_bytes.try_into().expect("split at 32");
        let query = std::str::from_utf8(query_bytes)
            .map_err(|_| IssuerError::BadPayload)?
            .to_owned();

        // Obfuscate with co-occurrence fakes at a random position.
        let mut subqueries = self
            .fakegen
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .generate(self.k);
        let position = self
            .rng
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .gen_range(0..=subqueries.len());
        subqueries.insert(position, query.clone());

        let answer = fetch(&subqueries, 20);
        let results = parse_results(&answer).map_err(|_| IssuerError::BadResults)?;

        // Filter results for the original query (same word-overlap rule
        // X-Search uses; PEAS filters fake results before replying).
        let fakes: Vec<String> = subqueries
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != position)
            .map(|(_, q)| q.clone())
            .collect();
        let kept = xsearch_core::filter::filter_results(&query, &fakes, results);

        // Encrypt the response under the client's one-time key: the kept
        // views serialize into one exactly-sized buffer (tag headroom
        // included) and are sealed in place — the same parse, filter,
        // encode and zero-copy cipher path the X-Search enclave runs, so
        // the Fig 5 comparison measures protocol differences, not codec
        // ones.
        let aead = ChaCha20Poly1305::new(&response_key);
        let mut body = Vec::with_capacity(encoded_len(&kept) + xsearch_crypto::aead::TAG_LEN);
        encode_results_into(&kept, &mut body);
        aead.seal_vec(&[0u8; 12], b"peas-response", &mut body);
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peas::cooccurrence::CooccurrenceMatrix;
    use rand::RngCore;

    fn issuer() -> PeasIssuer {
        let matrix = CooccurrenceMatrix::build(&[
            "cheap flights paris".to_owned(),
            "hotel paris deals".to_owned(),
            "diabetes symptoms".to_owned(),
        ]);
        PeasIssuer::new(PeasFakeGenerator::new(matrix, 1), 2)
    }

    fn sealed_request(issuer: &PeasIssuer, query: &str) -> ([u8; 32], Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(9);
        let mut response_key = [0u8; 32];
        rng.fill_bytes(&mut response_key);
        let mut payload = response_key.to_vec();
        payload.extend_from_slice(query.as_bytes());
        (
            response_key,
            hybrid::seal(&mut rng, &issuer.public_key(), &payload),
        )
    }

    #[test]
    fn handle_decrypts_obfuscates_and_replies() {
        let issuer = issuer();
        let (response_key, ct) = sealed_request(&issuer, "my query");
        let mut seen = Vec::new();
        let resp = issuer
            .handle(&ct, |subqueries, _| {
                seen = subqueries.to_vec();
                Vec::new()
            })
            .unwrap();
        assert_eq!(seen.len(), 4, "k=3 fakes + original");
        assert!(seen.contains(&"my query".to_owned()));
        // The response decrypts under the one-time key.
        let aead = ChaCha20Poly1305::new(&response_key);
        let body = aead.open(&[0u8; 12], b"peas-response", &resp).unwrap();
        assert!(body.is_empty());
    }

    #[test]
    fn garbage_request_rejected() {
        let issuer = issuer();
        assert!(matches!(
            issuer.handle(&[0u8; 64], |_, _| Vec::new()),
            Err(IssuerError::BadCiphertext(_))
        ));
    }

    #[test]
    fn malformed_engine_answer_is_refused() {
        let issuer = issuer();
        let (_, ct) = sealed_request(&issuer, "my query");
        // A header announcing a 255-byte URL, and no URL.
        assert_eq!(
            issuer.handle(&ct, |_, _| [255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0].to_vec()),
            Err(IssuerError::BadResults)
        );
    }

    #[test]
    fn short_payload_rejected() {
        let issuer = issuer();
        let mut rng = StdRng::seed_from_u64(2);
        let ct = hybrid::seal(&mut rng, &issuer.public_key(), b"too short");
        assert_eq!(
            issuer.handle(&ct, |_, _| Vec::new()),
            Err(IssuerError::BadPayload)
        );
    }
}
