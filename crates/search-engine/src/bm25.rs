//! Okapi BM25 ranking.
//!
//! A posting's contribution to its document's score depends only on the
//! term, the document and corpus statistics that are fixed once the
//! index is built, so [`crate::index::InvertedIndex::build`] stores it
//! (see [`impact`]) and [`rank`] only adds stored impacts. The best `k`
//! are then selected on packed integer keys, `(score ‖ !doc)` in one
//! `u128`, not through a comparator that reads two scores by their ids.

use crate::document::DocId;
use crate::index::InvertedIndex;
use std::cell::RefCell;
use xsearch_text::tokenize::for_each_token;

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
/// per document id, the list of slots the current query has written, the
/// rank keys of those slots, and the fold buffer the tokenizer lends
/// upper-case or non-ASCII terms from. A slot holds NaN while no query
/// term has reached its document, so a query costs its postings, not the
/// corpus.
#[derive(Default)]
struct Scratch {
    scores: Vec<f64>,
    touched: Vec<u32>,
    keys: Vec<u128>,
    fold: String,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// A document's rank key, `(score ‖ !doc)`: the score's bits mapped so
/// that unsigned order is [`f64::total_cmp`]'s, above the complement of
/// the id. The larger key ranks first — higher score, then lower id — so
/// selecting the best `k` compares plain integers, not two scores read
/// through their ids.
fn rank_key(score: f64, doc: u32) -> u128 {
    let bits = score.to_bits();
    // Positive: set the sign bit; negative: flip every bit.
    let ordered = bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63);
    u128::from(ordered) << 32 | u128::from(!doc)
}

/// The document and the exact score bits of a [`rank_key`].
fn from_rank_key(key: u128) -> (DocId, f64) {
    let ordered = (key >> 32) as u64;
    // A set sign bit was a positive score.
    let bits = if ordered >> 63 == 1 {
        ordered ^ 1 << 63
    } else {
        !ordered
    };
    (DocId(!(key as u32)), f64::from_bits(bits))
}

/// Scores all documents matching any term of `query` ("OR" semantics,
/// like a web engine) and returns the best `k` as `(doc, score)` pairs,
/// score descending, ties by ascending document id. The query is split
/// with [`for_each_token`], without allocating per term; a term repeated
/// in the query counts each time. A document's score is the sum of its
/// stored impacts in query-term order.
#[must_use]
pub fn rank(index: &InvertedIndex, query: &str, k: usize) -> Vec<(DocId, f64)> {
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch {
            scores,
            touched,
            keys,
            fold,
        } = scratch;
        if scores.len() < index.doc_slots() {
            scores.resize(index.doc_slots(), f64::NAN);
        }
        for_each_token(query, fold, |term| {
            for p in index.postings(term) {
                let score = &mut scores[p.doc.0 as usize];
                if score.is_nan() {
                    touched.push(p.doc.0);
                    *score = 0.0;
                }
                *score += p.impact;
            }
        });
        // Only the best `k` keys are put in order; the rest are never
        // compared to each other.
        keys.extend(
            touched
                .drain(..)
                .map(|doc| rank_key(std::mem::replace(&mut scores[doc as usize], f64::NAN), doc)),
        );
        let k = k.min(keys.len());
        let cut = keys.len() - k;
        if k > 0 && cut > 0 {
            keys.select_nth_unstable(cut);
        }
        let top = &mut keys[cut..];
        top.sort_unstable_by(|a, b| b.cmp(a));
        let ranked = top.iter().map(|&key| from_rank_key(key)).collect();
        keys.clear();
        ranked
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::Document;
    use proptest::prelude::*;

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
        let ranked = rank(&idx, "garden", usize::MAX);
        assert_eq!(ranked.len(), 1);
        assert_eq!(ranked[0].0, DocId(2));
    }

    #[test]
    fn or_semantics_unions_matches() {
        let idx = build();
        let ranked = rank(&idx, "hotel garden", usize::MAX);
        let ids: Vec<u32> = ranked.iter().map(|(d, _)| d.0).collect();
        assert!(ids.contains(&0) && ids.contains(&2));
    }

    #[test]
    fn higher_tf_ranks_higher_for_single_term() {
        let idx = build();
        let ranked = rank(&idx, "paris", usize::MAX);
        assert_eq!(ranked[0].0, DocId(3), "the paris-heavy doc wins");
    }

    #[test]
    fn scores_are_positive_and_sorted() {
        let idx = build();
        let ranked = rank(&idx, "paris cheap", usize::MAX);
        for pair in ranked.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
        assert!(ranked.iter().all(|(_, s)| *s > 0.0));
    }

    #[test]
    fn unknown_terms_produce_empty() {
        let idx = build();
        assert!(rank(&idx, "zzzz", usize::MAX).is_empty());
    }

    proptest! {
        /// Any two scores (negative, zero, infinite and NaN bit patterns
        /// included) and ids: the keys order as `total_cmp` descending,
        /// then id ascending, and give back the exact bits.
        #[test]
        fn rank_keys_order_as_total_cmp_and_round_trip(
            a in any::<u64>(),
            b in any::<u64>(),
            doc_a in any::<u32>(),
            doc_b in any::<u32>(),
        ) {
            let (a, b) = (f64::from_bits(a), f64::from_bits(b));
            let expected = b.total_cmp(&a).then(doc_a.cmp(&doc_b));
            prop_assert_eq!(rank_key(b, doc_b).cmp(&rank_key(a, doc_a)), expected);
            let (doc, score) = from_rank_key(rank_key(a, doc_a));
            prop_assert_eq!((doc, score.to_bits()), (DocId(doc_a), a.to_bits()));
        }
    }

    #[test]
    fn empty_index_is_empty() {
        let idx = InvertedIndex::build(&[]);
        assert!(rank(&idx, "paris", usize::MAX).is_empty());
    }
}
