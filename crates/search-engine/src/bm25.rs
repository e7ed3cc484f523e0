//! Okapi BM25 ranking.
//!
//! A posting's contribution to its document's score depends only on the
//! term, the document and corpus statistics that are fixed once the
//! index is built, so [`crate::index::InvertedIndex::build`] stores it
//! (see [`impact`]) and [`rank`] only adds stored impacts.

use crate::document::DocId;
use crate::index::InvertedIndex;
use std::cell::RefCell;

/// BM25's term-frequency saturation k₁ (the standard 1.2).
pub const K1: f64 = 1.2;

/// BM25's length normalization strength b (the standard 0.75).
pub const B: f64 = 0.75;

/// One posting's BM25 contribution: a term occurring `tf` times in a
/// document of length `doc_len`, in `df` of `doc_count` documents whose
/// average length is `avgdl`.
///
/// The idf uses the standard BM25 form with a +1 inside the log so scores
/// stay positive for common terms.
#[must_use]
pub fn impact(tf: u32, doc_len: u32, df: usize, doc_count: usize, avgdl: f64) -> f64 {
    let (n, df) = (doc_count as f64, df as f64);
    let idf = (((n - df + 0.5) / (df + 0.5)) + 1.0).ln();
    let tf = f64::from(tf);
    let dl = f64::from(doc_len);
    let denom = tf + K1 * (1.0 - B + B * dl / avgdl);
    idf * (tf * (K1 + 1.0)) / denom
}

/// Per-thread accumulator, reused from query to query: one score slot
/// per document id and the list of slots the current query has written.
/// A slot holds NaN while no query term has reached its document, so a
/// query costs its postings, not the corpus.
#[derive(Default)]
struct Scratch {
    scores: Vec<f64>,
    touched: Vec<u32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Scores all documents matching any query term ("OR" semantics, like a
/// web engine) and returns the best `k` as `(doc, score)` pairs, score
/// descending, ties by ascending document id. A term repeated in the
/// query counts each time. A document's score is the sum of its stored
/// impacts in query-term order.
#[must_use]
pub fn rank(index: &InvertedIndex, query_terms: &[String], k: usize) -> Vec<(DocId, f64)> {
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch { scores, touched } = scratch;
        if scores.len() < index.doc_slots() {
            scores.resize(index.doc_slots(), f64::NAN);
        }
        for term in query_terms {
            for p in index.postings(term) {
                let score = &mut scores[p.doc.0 as usize];
                if score.is_nan() {
                    touched.push(p.doc.0);
                    *score = 0.0;
                }
                *score += p.impact;
            }
        }
        // Deterministic order: score desc, then doc id asc. Only the best
        // `k` are put in order; the rest are never compared to each other.
        let by_rank = |a: &u32, b: &u32| {
            scores[*b as usize]
                .total_cmp(&scores[*a as usize])
                .then(a.cmp(b))
        };
        let k = k.min(touched.len());
        if k < touched.len() {
            touched.select_nth_unstable_by(k, by_rank);
        }
        let top = &mut touched[..k];
        top.sort_unstable_by(by_rank);
        let ranked = top
            .iter()
            .map(|&doc| (DocId(doc), scores[doc as usize]))
            .collect();
        for doc in touched.drain(..) {
            scores[doc as usize] = f64::NAN;
        }
        ranked
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;

    fn build() -> InvertedIndex {
        let docs = vec![
            doc(0, "paris hotel", "cheap hotel in paris center"),
            doc(1, "paris flights", "cheap flights to paris"),
            doc(2, "gardening tips", "roses and mulch for your garden"),
            doc(3, "paris paris paris", "paris guide paris map paris tours"),
        ];
        InvertedIndex::build(&docs)
    }

    fn doc(id: u32, title: &str, body: &str) -> Document {
        Document {
            id: DocId(id),
            url: format!("u{id}"),
            title: title.into(),
            description: body.into(),
            topic: 0,
        }
    }

    #[test]
    fn matching_docs_only() {
        let idx = build();
        let ranked = rank(&idx, &["garden".into()], usize::MAX);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].0, DocId(2));
    }

    #[test]
    fn or_semantics_unions_matches() {
        let idx = build();
        let ranked = rank(&idx, &["hotel".into(), "garden".into()], usize::MAX);
        let ids: Vec<u32> = ranked.iter().map(|(d, _)| d.0).collect();
        assert!(ids.contains(&0) && ids.contains(&2));
    }

    #[test]
    fn higher_tf_ranks_higher_for_single_term() {
        let idx = build();
        let ranked = rank(&idx, &["paris".into()], usize::MAX);
        assert_eq!(ranked[0].0, DocId(3), "the paris-heavy doc wins");
    }

    #[test]
    fn scores_are_positive_and_sorted() {
        let idx = build();
        let ranked = rank(&idx, &["paris".into(), "cheap".into()], usize::MAX);
        for pair in ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert!(ranked.iter().all(|(_, s)| *s > 0.0));
    }

    #[test]
    fn unknown_terms_produce_empty() {
        let idx = build();
        assert!(rank(&idx, &["zzzz".into()], usize::MAX).is_empty());
    }

    #[test]
    fn empty_index_is_empty() {
        let idx = InvertedIndex::build(&[]);
        assert!(rank(&idx, &["paris".into()], usize::MAX).is_empty());
    }
}
