//! X-Search as a [`PrivateSearchSystem`]: a launched [`XSearchProxy`]
//! and one attested [`Broker`] behind the shared interface. Each query
//! crosses the real tunnel and the enclave's `request` ecall; the host
//! answers the `send`/`recv` ocalls by recording the sub-queries the
//! enclave hands the engine — exactly what the adversary of Fig 3 sees —
//! and returning no results.

use crate::system::{Exposure, PrivateSearchSystem};
use std::sync::Arc;
use xsearch_core::broker::Broker;
use xsearch_core::config::XSearchConfig;
use xsearch_core::proxy::XSearchProxy;
use xsearch_engine::engine::SearchEngine;
use xsearch_query_log::record::UserId;
use xsearch_sgx_sim::attestation::AttestationService;

/// The X-Search enclave, driven through its ecall boundary.
#[derive(Debug)]
pub struct XSearchSystem {
    proxy: XSearchProxy,
    broker: Broker,
}

impl XSearchSystem {
    /// Launches a proxy with obfuscation level `k` and window size
    /// `history_capacity`, its enclave seeded with `seed`, and attaches
    /// one broker to it.
    ///
    /// # Panics
    ///
    /// Panics when the broker cannot attest the freshly launched proxy.
    #[must_use]
    pub fn new(k: usize, history_capacity: usize, seed: u64) -> Self {
        let config = XSearchConfig {
            k,
            history_capacity,
            seed,
            ..Default::default()
        };
        // The host answers every fetch itself, so the engine stays empty.
        let engine = Arc::new(SearchEngine::from_documents(Vec::new()));
        let ias = AttestationService::from_seed(seed);
        let proxy = XSearchProxy::launch(config, engine, &ias);
        let broker = Broker::attach(&proxy, &ias, proxy.expected_measurement(), seed)
            .expect("a genuine proxy attests");
        XSearchSystem { proxy, broker }
    }

    /// Pre-fills the history (the warm state the paper assumes).
    pub fn warm<'a, I: IntoIterator<Item = &'a str>>(&self, queries: I) {
        self.proxy.seed_history(queries);
    }

    /// Current history size.
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.proxy.history_len()
    }
}

impl PrivateSearchSystem for XSearchSystem {
    fn name(&self) -> &str {
        "X-Search"
    }

    fn protect(&mut self, _user: UserId, query: &str) -> Exposure {
        let ciphertext = self.broker.seal_query(query);
        let mut subqueries = Vec::new();
        let reply = self
            .proxy
            .request_with(
                self.broker.client_pub().as_bytes(),
                &ciphertext,
                |sent, _| {
                    subqueries = sent.iter().map(|&q| q.to_owned()).collect();
                    Vec::new()
                },
            )
            .expect("the attested session serves its request");
        self.broker
            .open_results(&reply)
            .expect("the enclave's reply opens");
        Exposure {
            subqueries,
            identity: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposure_hides_identity_among_history_queries() {
        let mut xs = XSearchSystem::new(2, 1000, 1);
        xs.warm(["past one", "past two", "past three"]);
        let e = xs.protect(UserId(9), "fresh query");
        assert_eq!(e.identity, None);
        assert_eq!(e.subqueries.len(), 3);
        assert!(e.subqueries.contains(&"fresh query".to_owned()));
    }

    #[test]
    fn protected_queries_feed_the_history() {
        let mut xs = XSearchSystem::new(1, 1000, 2);
        assert_eq!(xs.history_len(), 0);
        let _ = xs.protect(UserId(1), "first");
        assert_eq!(xs.history_len(), 1);
        let e = xs.protect(UserId(2), "second");
        // The only possible fake is the first user's query: X-Search's
        // fakes are real queries from *other users*.
        assert!(e.subqueries.contains(&"first".to_owned()));
    }

    #[test]
    fn cold_start_exposes_query_alone() {
        let mut xs = XSearchSystem::new(3, 1000, 3);
        let e = xs.protect(UserId(1), "cold");
        assert_eq!(e.subqueries, vec!["cold"]);
    }
}
