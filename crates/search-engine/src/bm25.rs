//! Okapi BM25 ranking.

use crate::document::DocId;
use crate::index::InvertedIndex;
use std::cell::RefCell;

/// BM25 parameters; defaults are the standard k₁ = 1.2, b = 0.75.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bm25Params {
    /// Term-frequency saturation.
    pub k1: f64,
    /// Length normalization strength.
    pub b: f64,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
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
/// query counts each time.
///
/// The idf uses the standard BM25 form with a +1 inside the log so scores
/// stay positive for common terms.
#[must_use]
pub fn rank(
    index: &InvertedIndex,
    query_terms: &[String],
    params: Bm25Params,
    k: usize,
) -> Vec<(DocId, f64)> {
    let n = index.doc_count() as f64;
    if n == 0.0 {
        return Vec::new();
    }
    let avgdl = index.avg_doc_len().max(1.0);
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch { scores, touched } = scratch;
        if scores.len() < index.doc_slots() {
            scores.resize(index.doc_slots(), f64::NAN);
        }
        for term in query_terms {
            let postings = index.postings(term);
            if postings.is_empty() {
                continue;
            }
            let df = postings.len() as f64;
            let idf = (((n - df + 0.5) / (df + 0.5)) + 1.0).ln();
            for p in postings {
                let tf = f64::from(p.tf);
                let dl = f64::from(index.doc_len(p.doc));
                let denom = tf + params.k1 * (1.0 - params.b + params.b * dl / avgdl);
                let score = &mut scores[p.doc.0 as usize];
                if score.is_nan() {
                    touched.push(p.doc.0);
                    *score = 0.0;
                }
                *score += idf * (tf * (params.k1 + 1.0)) / denom;
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
        let ranked = rank(&idx, &["garden".into()], Bm25Params::default(), usize::MAX);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].0, DocId(2));
    }

    #[test]
    fn or_semantics_unions_matches() {
        let idx = build();
        let ranked = rank(
            &idx,
            &["hotel".into(), "garden".into()],
            Bm25Params::default(),
            usize::MAX,
        );
        let ids: Vec<u32> = ranked.iter().map(|(d, _)| d.0).collect();
        assert!(ids.contains(&0) && ids.contains(&2));
    }

    #[test]
    fn higher_tf_ranks_higher_for_single_term() {
        let idx = build();
        let ranked = rank(&idx, &["paris".into()], Bm25Params::default(), usize::MAX);
        assert_eq!(ranked[0].0, DocId(3), "the paris-heavy doc wins");
    }

    #[test]
    fn scores_are_positive_and_sorted() {
        let idx = build();
        let ranked = rank(
            &idx,
            &["paris".into(), "cheap".into()],
            Bm25Params::default(),
            usize::MAX,
        );
        for pair in ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert!(ranked.iter().all(|(_, s)| *s > 0.0));
    }

    #[test]
    fn unknown_terms_produce_empty() {
        let idx = build();
        assert!(rank(&idx, &["zzzz".into()], Bm25Params::default(), usize::MAX).is_empty());
    }

    #[test]
    fn empty_index_is_empty() {
        let idx = InvertedIndex::build(&[]);
        assert!(rank(&idx, &["paris".into()], Bm25Params::default(), usize::MAX).is_empty());
    }
}
