//! X-Search as a [`PrivateSearchSystem`] — the lightweight obfuscation
//! view the privacy experiments (Fig 3) drive, without the crypto tunnel
//! (the adversary there sits at the search engine and only ever sees the
//! obfuscated sub-queries, so the tunnel is irrelevant to the attack).

use crate::system::{Exposure, PrivateSearchSystem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use xsearch_core::history::QueryHistory;
use xsearch_core::obfuscate::obfuscate;
use xsearch_query_log::record::UserId;
use xsearch_sgx_sim::epc::EpcGauge;

/// The obfuscation pipeline of the X-Search enclave, standalone.
#[derive(Debug)]
pub struct XSearchSystem {
    history: Arc<QueryHistory>,
    k: usize,
    rng: StdRng,
}

impl XSearchSystem {
    /// Creates the system with window size `history_capacity`.
    #[must_use]
    pub fn new(k: usize, history_capacity: usize, seed: u64) -> Self {
        XSearchSystem {
            history: Arc::new(QueryHistory::new(history_capacity, EpcGauge::new())),
            k,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Pre-fills the history (the warm state the paper assumes).
    pub fn warm<'a, I: IntoIterator<Item = &'a str>>(&self, queries: I) {
        for q in queries {
            self.history.push(q);
        }
    }

    /// Current history size.
    #[must_use]
    pub fn history_len(&self) -> usize {
        self.history.len()
    }
}

impl PrivateSearchSystem for XSearchSystem {
    fn name(&self) -> &str {
        "X-Search"
    }

    fn protect(&mut self, _user: UserId, query: &str) -> Exposure {
        let obfuscated = obfuscate(query, &self.history, self.k, &mut self.rng);
        Exposure {
            // The privacy experiments consume owned strings; this is the
            // cold evaluation path, so the sub-queries are copied out of
            // the obfuscated query here.
            subqueries: obfuscated
                .subqueries()
                .into_iter()
                .map(str::to_owned)
                .collect(),
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
