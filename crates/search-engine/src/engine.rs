//! The search-engine front-end.
//!
//! Supports both plain keyword search and the paper's obfuscated-query
//! execution mode: because Bing's `OR` operator only works reliably with
//! single-word operands, §5.3.2 simulates `Q₀ OR … OR Qₖ` by submitting
//! each sub-query independently and merging the result sets —
//! [`SearchEngine::search_merged`] reproduces exactly that.
//!
//! The merge runs on document ids (`merge_ids`): each sub-query's
//! ranking is `(doc, score)` pairs, and no result is built until a
//! caller asks for one. The owned [`SearchResult`]s of
//! [`SearchEngine::search`] and [`SearchEngine::search_merged`] serve the
//! cold callers — the direct-search reference, the baselines and tests;
//! the proxy's hop takes the merged corpus documents from
//! [`crate::service::EngineService::search_merged`] and writes their text
//! once, into the bytes it hands the enclave.

use crate::bm25::rank;
use crate::corpus::{generate, CorpusConfig};
use crate::document::{DocId, Document};
use crate::index::InvertedIndex;

/// One search result as returned to clients.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Stable document id.
    pub doc: DocId,
    /// Result URL (possibly analytics-wrapped; the proxy strips those).
    pub url: String,
    /// Result title.
    pub title: String,
    /// Result snippet.
    pub description: String,
    /// Ranking score (BM25).
    pub score: f64,
}

/// The engine: a corpus plus its index.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    docs: Vec<Document>,
    index: InvertedIndex,
}

impl SearchEngine {
    /// Generates a corpus from `config` and indexes it.
    #[must_use]
    pub fn build(config: &CorpusConfig) -> Self {
        Self::from_documents(generate(config))
    }

    /// Indexes an existing document collection.
    #[must_use]
    pub fn from_documents(docs: Vec<Document>) -> Self {
        let index = InvertedIndex::build(&docs);
        SearchEngine { docs, index }
    }

    /// Number of indexed documents.
    #[must_use]
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Access to a document by id.
    #[must_use]
    pub fn document(&self, id: DocId) -> Option<&Document> {
        self.docs.get(id.0 as usize)
    }

    /// Plain keyword search: BM25 over the query's tokens, top `k` results.
    #[must_use]
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchResult> {
        rank(&self.index, query, k)
            .into_iter()
            .map(|(doc, score)| self.to_result(doc, score))
            .collect()
    }

    /// The paper's obfuscated-query execution: submit each sub-query
    /// independently (top `k_each` results each) and merge the rankings
    /// with `merge_ids`, one sub-query after another on the caller's
    /// thread. [`crate::service::EngineService::search_merged`] runs the
    /// same loop with each evaluation timed and charged to one of the
    /// modeled engine's lanes and returns the merged documents; tests
    /// hold the two equal.
    ///
    /// Generic over the sub-query representation so the enclave's
    /// sub-queries, borrowed from its one OR-joined wire string, cross
    /// without re-owning each string.
    #[must_use]
    pub fn search_merged<S: AsRef<str>>(
        &self,
        subqueries: &[S],
        k_each: usize,
    ) -> Vec<SearchResult> {
        let per_query: Vec<Vec<(DocId, f64)>> = subqueries
            .iter()
            .map(|q| self.ranked(q.as_ref(), k_each))
            .collect();
        merge_ids(&per_query, k_each)
            .into_iter()
            .map(|(doc, score)| self.to_result(doc, score))
            .collect()
    }

    /// The top `k` of one sub-query as `(doc, score)`, best first.
    pub(crate) fn ranked(&self, query: &str, k: usize) -> Vec<(DocId, f64)> {
        rank(&self.index, query, k)
    }

    fn to_result(&self, doc: DocId, score: f64) -> SearchResult {
        let d = &self.docs[doc.0 as usize];
        SearchResult {
            doc,
            url: d.url.clone(),
            title: d.title.clone(),
            description: d.description.clone(),
            score,
        }
    }
}

/// Merges per-sub-query rankings into one, deduplicating by document and
/// keeping each document's first-seen (best-ranked) entry. Merge order
/// interleaves the rankings (rank 1 of each sub-query, then rank 2, …)
/// so no sub-query is privileged — the search engine does not know which
/// one is real.
///
/// The merge is on ids alone: a document is a duplicate when its id is
/// already in the merged list, found by a scan of at most `(k+1) × k_each`
/// ids. Shared by [`SearchEngine::search_merged`] and the lane-accounted
/// [`crate::service::EngineService::search_merged`], so both merge
/// identically.
pub(crate) fn merge_ids(per_query: &[Vec<(DocId, f64)>], k_each: usize) -> Vec<(DocId, f64)> {
    let mut merged: Vec<(DocId, f64)> = Vec::with_capacity(per_query.iter().map(Vec::len).sum());
    for rank in 0..k_each {
        for &(doc, score) in per_query.iter().filter_map(|ranking| ranking.get(rank)) {
            if !merged.iter().any(|&(seen, _)| seen == doc) {
                merged.push((doc, score));
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};
    use xsearch_query_log::topics::TOPICS;
    use xsearch_text::tokenize::tokenize;

    /// BM25 the slow way: a map from document to score filled in
    /// query-term order, then every match sorted (score desc, id asc).
    fn full_ranking(e: &SearchEngine, query: &str) -> Vec<(DocId, f64)> {
        let (n, avgdl) = (e.index.doc_count() as f64, e.index.avg_doc_len().max(1.0));
        let (k1, b) = (crate::bm25::K1, crate::bm25::B);
        let mut scores: HashMap<DocId, f64> = HashMap::new();
        for term in tokenize(query) {
            let postings = e.index.postings(&term);
            let df = postings.len() as f64;
            let idf = (((n - df + 0.5) / (df + 0.5)) + 1.0).ln();
            for p in postings {
                let tf = f64::from(p.tf);
                let dl = f64::from(e.index.doc_len(p.doc));
                *scores.entry(p.doc).or_insert(0.0) +=
                    idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl));
            }
        }
        let mut ranked: Vec<(DocId, f64)> = scores.into_iter().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked
    }

    proptest! {
        #[test]
        fn search_is_the_head_of_the_full_ranking(
            // A two-letter alphabet, mostly spaces: a handful of distinct
            // words, so equal documents (exact score ties) and repeated
            // query terms are common; `z` is in no document.
            docs in proptest::collection::vec(("[ab   ]{0,6}", "[ab   ]{0,12}"), 1..12),
            query in "[abz   ]{0,10}",
            k in 0usize..16,
        ) {
            let docs: Vec<Document> = docs
                .into_iter()
                .enumerate()
                .map(|(i, (title, description))| Document {
                    id: DocId(i as u32),
                    url: format!("u{i}"),
                    title,
                    description,
                    topic: 0,
                })
                .collect();
            let e = SearchEngine::from_documents(docs);
            let full = full_ranking(&e, &query);
            let got = e.search(&query, k);
            prop_assert_eq!(got.len(), k.min(full.len()));
            for (r, (doc, score)) in got.iter().zip(&full) {
                prop_assert_eq!(r.doc, *doc);
                prop_assert_eq!(r.score.to_bits(), score.to_bits());
                prop_assert_eq!(&r.title, &e.document(*doc).unwrap().title);
            }
        }
    }

    fn engine() -> SearchEngine {
        SearchEngine::build(&CorpusConfig {
            docs_per_topic: 40,
            ..Default::default()
        })
    }

    #[test]
    fn search_returns_at_most_k() {
        let e = engine();
        assert!(e.search("flights hotel", 5).len() <= 5);
    }

    #[test]
    fn results_are_sorted_by_score() {
        let e = engine();
        let rs = e.search("flights hotel cruise", 20);
        for pair in rs.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }

    #[test]
    fn topical_query_returns_topical_docs() {
        let e = engine();
        // Use three terms from the travel topic.
        let travel = TOPICS.iter().position(|t| t.name == "travel").unwrap();
        let q = format!("{} {}", TOPICS[travel].terms[0], TOPICS[travel].terms[1]);
        let rs = e.search(&q, 20);
        assert!(!rs.is_empty());
        let travel_hits = rs
            .iter()
            .filter(|r| e.document(r.doc).unwrap().topic == travel)
            .count();
        assert!(
            travel_hits * 2 > rs.len(),
            "{travel_hits}/{} travel hits",
            rs.len()
        );
    }

    #[test]
    fn unknown_vocabulary_returns_empty() {
        let e = engine();
        assert!(e.search("zzzz qqqq", 10).is_empty());
    }

    #[test]
    fn merged_search_dedupes_documents() {
        let e = engine();
        let subs = vec!["flights hotel".to_owned(), "flights cruise".to_owned()];
        let merged = e.search_merged(&subs, 10);
        let ids: HashSet<_> = merged.iter().map(|r| r.doc).collect();
        assert_eq!(ids.len(), merged.len());
    }

    #[test]
    fn merged_search_covers_each_subquery() {
        let e = engine();
        let travel = TOPICS.iter().position(|t| t.name == "travel").unwrap();
        let health = TOPICS.iter().position(|t| t.name == "health").unwrap();
        let subs = vec![
            format!("{} {}", TOPICS[travel].terms[0], TOPICS[travel].terms[1]),
            format!("{} {}", TOPICS[health].terms[0], TOPICS[health].terms[1]),
        ];
        let merged = e.search_merged(&subs, 10);
        let topics: HashSet<usize> = merged
            .iter()
            .map(|r| e.document(r.doc).unwrap().topic)
            .collect();
        assert!(topics.contains(&travel) && topics.contains(&health));
    }

    #[test]
    fn merged_interleaves_rankings() {
        let e = engine();
        let a = "flights hotel vacation".to_owned();
        let b = "symptoms cancer doctor".to_owned();
        let ra = e.search(&a, 3);
        let merged = e.search_merged(&[a, b], 3);
        // First merged result is sub-query a's top hit.
        assert_eq!(merged[0].doc, ra[0].doc);
    }

    #[test]
    fn merged_of_single_query_equals_search() {
        let e = engine();
        let q = "flights hotel".to_owned();
        let direct: Vec<_> = e.search(&q, 10).into_iter().map(|r| r.doc).collect();
        let merged: Vec<_> = e
            .search_merged(&[q], 10)
            .into_iter()
            .map(|r| r.doc)
            .collect();
        assert_eq!(direct, merged);
    }
}
