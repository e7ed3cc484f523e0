//! Algorithm 1: generation of an obfuscated query.
//!
//! The original query is placed at a uniformly random position among `k`
//! fake queries drawn from the past-query table, all joined by logical OR.
//! Using *real past queries* as fakes is the paper's key
//! indistinguishability idea: every sub-query maps onto some genuine user
//! profile, so a re-identification adversary cannot single out the fake
//! ones the way it can with PEAS's synthetic co-occurrence queries.
//!
//! All of Algorithm 1's history work is one critical section: the `k`
//! draws, the original's position, copying the fakes out of the table's
//! pages into the OR-joined wire string, and the push of the original.
//! The result is that one exactly-sized string plus the sub-queries'
//! spans in it — this is the request hot path.

use crate::history::QueryHistory;
use rand::Rng;
use std::ops::Range;

/// What joins the sub-queries on the wire.
const OR: &str = " OR ";

/// An obfuscated query: `k + 1` sub-queries with the original at a known
/// (enclave-private) position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObfuscatedQuery {
    /// The OR-joined query the engine receives.
    text: String,
    /// Each sub-query's bytes in `text`, in send order.
    spans: Vec<Range<usize>>,
    /// Index of the original query within the sub-queries — known only
    /// inside the enclave; never serialized toward the engine.
    original_index: usize,
}

impl ObfuscatedQuery {
    /// The sub-queries in the order they are sent to the engine.
    #[must_use]
    pub fn subqueries(&self) -> Vec<&str> {
        self.spans
            .iter()
            .map(|span| &self.text[span.clone()])
            .collect()
    }

    /// The original query text.
    #[must_use]
    pub fn original(&self) -> &str {
        &self.text[self.spans[self.original_index].clone()]
    }

    /// Position of the original among [`ObfuscatedQuery::subqueries`].
    #[must_use]
    pub fn original_index(&self) -> usize {
        self.original_index
    }

    /// The fake sub-queries, in send order.
    #[must_use]
    pub fn fakes(&self) -> Vec<&str> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.original_index)
            .map(|(_, span)| &self.text[span.clone()])
            .collect()
    }

    /// The single OR-joined query string the engine would receive
    /// (`Qp0 OR ... OR Qu OR ... OR Qpk`).
    #[must_use]
    pub fn to_or_string(&self) -> &str {
        &self.text
    }

    /// Number of fake queries (k).
    #[must_use]
    pub fn k(&self) -> usize {
        self.spans.len() - 1
    }
}

/// Runs Algorithm 1: aggregates `query` with `k` random past queries from
/// `history` at a random position, then stores `query` in the history
/// (line 9) — under one acquisition of the history's lock.
///
/// Cold start: with an empty history there is nothing plausible to hide
/// behind, so the query is sent alone (k effectively 0) — the paper's
/// table is assumed warm; we make the degradation explicit.
///
/// The RNG is called `k` times for the draws (`0..len`) and then once for
/// the position (`0..=k`), and not at all when the table is empty or
/// `k = 0`.
pub fn obfuscate<R: Rng + ?Sized>(
    query: &str,
    history: &QueryHistory,
    k: usize,
    rng: &mut R,
) -> ObfuscatedQuery {
    let mut window = history.lock();
    let len = window.len();
    let k = if len == 0 { 0 } else { k };
    let mut subqueries: Vec<&str> = (0..k).map(|_| window.draw(rng.gen_range(0..len))).collect();
    let original_index = if k == 0 { 0 } else { rng.gen_range(0..=k) };
    subqueries.insert(original_index, query);
    let bytes = subqueries.iter().map(|q| q.len()).sum::<usize>() + k * OR.len();
    let mut text = String::with_capacity(bytes);
    let mut spans = Vec::with_capacity(k + 1);
    for (i, q) in subqueries.into_iter().enumerate() {
        if i > 0 {
            text.push_str(OR);
        }
        spans.push(text.len()..text.len() + q.len());
        text.push_str(q);
    }
    window.push(query);
    ObfuscatedQuery {
        text,
        spans,
        original_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use xsearch_sgx_sim::epc::EpcGauge;

    fn warm_history(n: usize) -> Arc<QueryHistory> {
        let h = Arc::new(QueryHistory::new(10_000, EpcGauge::with_limit(1 << 30)));
        for i in 0..n {
            h.push(&format!("past query {i}"));
        }
        h
    }

    #[test]
    fn obfuscated_query_has_k_plus_one_subqueries() {
        let h = warm_history(50);
        let mut rng = StdRng::seed_from_u64(1);
        for k in 0..=7 {
            let o = obfuscate("the real one", &h, k, &mut rng);
            assert_eq!(o.subqueries().len(), k + 1, "k={k}");
            assert_eq!(o.k(), k);
            assert_eq!(o.original(), "the real one");
        }
    }

    #[test]
    fn fakes_come_from_history() {
        let h = warm_history(20);
        let mut rng = StdRng::seed_from_u64(2);
        let o = obfuscate("real", &h, 5, &mut rng);
        for f in o.fakes() {
            assert!(
                f.starts_with("past query") || f == "real",
                "fake {f:?} not from history"
            );
        }
    }

    #[test]
    fn original_position_is_uniformish() {
        let h = warm_history(100);
        let mut rng = StdRng::seed_from_u64(3);
        let k = 3;
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            let o = obfuscate("real", &h, k, &mut rng);
            counts[o.original_index()] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "position {i} count {c}");
        }
    }

    #[test]
    fn query_is_stored_in_history() {
        let h = warm_history(0);
        let mut rng = StdRng::seed_from_u64(4);
        let _ = obfuscate("first ever", &h, 3, &mut rng);
        assert_eq!(h.len(), 1);
        // The next query can now use it as a fake.
        let o = obfuscate("second", &h, 1, &mut rng);
        assert_eq!(o.subqueries().len(), 2);
        assert!(o.fakes().contains(&"first ever"));
    }

    #[test]
    fn cold_start_sends_query_alone() {
        let h = warm_history(0);
        let mut rng = StdRng::seed_from_u64(5);
        let o = obfuscate("lonely", &h, 5, &mut rng);
        assert_eq!(o.subqueries(), ["lonely"]);
        assert_eq!(o.original_index(), 0);
    }

    #[test]
    fn or_string_joins_in_order() {
        let h = warm_history(10);
        let mut rng = StdRng::seed_from_u64(6);
        let o = obfuscate("real", &h, 2, &mut rng);
        let s = o.to_or_string();
        assert_eq!(s.matches(" OR ").count(), 2);
        assert!(s.contains("real"));
    }

    #[test]
    fn or_string_is_the_join_at_its_exact_size() {
        let h = warm_history(0);
        for q in ["", "naïve café", "a OR b"] {
            h.push(q);
        }
        let mut rng = StdRng::seed_from_u64(9);
        let o = obfuscate("π day", &h, 5, &mut rng);
        assert_eq!(o.to_or_string(), o.subqueries().join(" OR "));
        assert_eq!(o.text.capacity(), o.text.len());
        assert_eq!(o.subqueries().len(), 6);
    }

    #[test]
    fn k_zero_with_warm_history_is_just_the_query() {
        let h = warm_history(10);
        let mut rng = StdRng::seed_from_u64(7);
        let o = obfuscate("real", &h, 0, &mut rng);
        assert_eq!(o.subqueries(), ["real"]);
    }

    proptest! {
        #[test]
        fn invariants_hold(k in 0usize..8, n_hist in 0usize..30, seed: u64) {
            let h = warm_history(n_hist);
            let mut rng = StdRng::seed_from_u64(seed);
            let o = obfuscate("needle", &h, k, &mut rng);
            // Exactly one sub-query at original_index equals the original.
            prop_assert_eq!(o.original(), "needle");
            let expected_len = if n_hist == 0 { 1 } else { k + 1 };
            prop_assert_eq!(o.subqueries().len(), expected_len);
            prop_assert!(o.original_index() < o.subqueries().len());
            prop_assert_eq!(o.fakes().len(), expected_len - 1);
        }
    }
}
