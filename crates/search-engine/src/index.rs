//! Inverted index over the corpus.

use crate::bm25;
use crate::document::{DocId, Document};
use std::collections::HashMap;
use xsearch_text::tokenize::for_each_token;
use xsearch_text::vector::TermInterner;

/// One posting: a document, the term's frequency in it, and the BM25
/// contribution that frequency makes to the document's score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Posting {
    /// The document containing the term.
    pub doc: DocId,
    /// Term frequency (title terms counted double — title matches matter
    /// more, as in real engines).
    pub tf: u32,
    /// [`bm25::impact`] of this posting, fixed at build.
    pub impact: f64,
}

/// An inverted index with the statistics BM25 needs.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    interner: TermInterner,
    postings: Vec<Vec<Posting>>,
    /// Indexed by document id (ids are dense in a corpus).
    doc_lengths: Vec<u32>,
    total_len: u64,
    doc_count: usize,
}

impl InvertedIndex {
    /// Builds the index from documents, storing every posting's BM25
    /// impact.
    #[must_use]
    pub fn build(docs: &[Document]) -> Self {
        let mut interner = TermInterner::new();
        let mut postings: Vec<Vec<Posting>> = Vec::new();
        let mut doc_lengths = vec![0u32; docs.len()];
        let mut total_len = 0u64;
        // Reused across documents: the fold buffer the tokenizer lends
        // non-ASCII or upper-case tokens from, and the per-document
        // counts.
        let mut scratch = String::new();
        let mut counts: HashMap<u32, u32> = HashMap::new();
        for doc in docs {
            let mut len = 0u32;
            // Title terms weighted ×2.
            for (text, weight) in [(&doc.title, 2), (&doc.description, 1)] {
                for_each_token(text, &mut scratch, |tok| {
                    *counts.entry(interner.intern(tok)).or_insert(0) += weight;
                    len += weight;
                });
            }
            for (term, tf) in counts.drain() {
                let slot = term as usize;
                if slot >= postings.len() {
                    postings.resize_with(slot + 1, Vec::new);
                }
                postings[slot].push(Posting {
                    doc: doc.id,
                    tf,
                    impact: 0.0,
                });
            }
            let slot = doc.id.0 as usize;
            if slot >= doc_lengths.len() {
                doc_lengths.resize(slot + 1, 0);
            }
            doc_lengths[slot] = len;
            total_len += u64::from(len);
        }
        let mut index = InvertedIndex {
            interner,
            postings,
            doc_lengths,
            total_len,
            doc_count: docs.len(),
        };
        // Impacts need the whole corpus's statistics, so they are a
        // second pass.
        let avgdl = index.avg_doc_len().max(1.0);
        for list in &mut index.postings {
            let df = list.len();
            for p in list.iter_mut() {
                let dl = index.doc_lengths[p.doc.0 as usize];
                p.impact = bm25::impact(p.tf, dl, df, index.doc_count, avgdl);
            }
        }
        index
    }

    /// Number of indexed documents.
    #[must_use]
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Average document length (BM25's `avgdl`).
    #[must_use]
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_count == 0 {
            0.0
        } else {
            self.total_len as f64 / self.doc_count as f64
        }
    }

    /// Length of one document, 0 if unknown.
    #[must_use]
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_lengths.get(doc.0 as usize).copied().unwrap_or(0)
    }

    /// One more than the largest indexed document id: the size of a table
    /// indexed by document id.
    #[must_use]
    pub fn doc_slots(&self) -> usize {
        self.doc_lengths.len()
    }

    /// The postings list for a term, empty when the term is unknown.
    #[must_use]
    pub fn postings(&self, term: &str) -> &[Posting] {
        self.interner
            .get(term)
            .and_then(|id| self.postings.get(id as usize))
            .map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<Document> {
        vec![
            Document {
                id: DocId(0),
                url: "u0".into(),
                title: "cheap flights".into(),
                description: "paris flights deals".into(),
                topic: 0,
            },
            Document {
                id: DocId(1),
                url: "u1".into(),
                title: "hotel paris".into(),
                description: "cheap hotel rooms in paris".into(),
                topic: 0,
            },
        ]
    }

    #[test]
    fn postings_cover_both_fields() {
        let idx = InvertedIndex::build(&docs());
        assert_eq!(idx.postings("paris").len(), 2);
        assert_eq!(idx.postings("flights").len(), 1);
        assert_eq!(idx.postings("unknownword").len(), 0);
    }

    #[test]
    fn title_terms_weighted_double() {
        let idx = InvertedIndex::build(&docs());
        // doc0: "flights" appears once in title (×2) and once in body (+1).
        let p = idx.postings("flights");
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].tf, 3);
    }

    #[test]
    fn doc_lengths_accumulate() {
        let idx = InvertedIndex::build(&docs());
        // doc0: title 2 words ×2 + body 3 words = 7.
        assert_eq!(idx.doc_len(DocId(0)), 7);
        assert!(idx.avg_doc_len() > 0.0);
    }

    #[test]
    fn stored_impacts_are_the_bm25_formula() {
        let idx = InvertedIndex::build(&docs());
        let (n, avgdl) = (2.0, idx.avg_doc_len());
        let mut checked = 0;
        for term in ["cheap", "flights", "paris", "deals", "hotel", "rooms", "in"] {
            let postings = idx.postings(term);
            let df = postings.len() as f64;
            let idf = (((n - df + 0.5) / (df + 0.5)) + 1.0).ln();
            for p in postings {
                let tf = f64::from(p.tf);
                let dl = f64::from(idx.doc_len(p.doc));
                let expected =
                    idf * (tf * (1.2 + 1.0)) / (tf + 1.2 * (1.0 - 0.75 + 0.75 * dl / avgdl));
                assert_eq!(
                    p.impact.to_bits(),
                    expected.to_bits(),
                    "{term} in {:?}",
                    p.doc
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 9, "every posting of the corpus");
    }

    #[test]
    fn empty_corpus_is_empty() {
        let idx = InvertedIndex::build(&[]);
        assert_eq!(idx.doc_count(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
        assert!(idx.postings("x").is_empty());
    }

    /// The build against a count made with the allocating `tokenize`
    /// on the standard corpus: every term's postings carry the same
    /// documents, term frequencies and impact bits.
    #[test]
    fn postings_match_a_tokenize_count_on_the_standard_corpus() {
        use xsearch_text::tokenize::tokenize;
        let docs = crate::corpus::generate(&crate::corpus::CorpusConfig::default());
        let idx = InvertedIndex::build(&docs);
        // term → (doc, tf) in document order, and each document's length.
        let mut expected: HashMap<String, Vec<(DocId, u32)>> = HashMap::new();
        let mut lengths: HashMap<DocId, u32> = HashMap::new();
        for doc in &docs {
            let mut counts: HashMap<String, u32> = HashMap::new();
            let weighted = tokenize(&doc.title)
                .into_iter()
                .map(|t| (t, 2))
                .chain(tokenize(&doc.description).into_iter().map(|t| (t, 1)));
            for (term, weight) in weighted {
                *counts.entry(term).or_insert(0) += weight;
                *lengths.entry(doc.id).or_insert(0) += weight;
            }
            for (term, tf) in counts {
                expected.entry(term).or_default().push((doc.id, tf));
            }
        }
        let n = docs.len();
        let total: u64 = lengths.values().map(|&l| u64::from(l)).sum();
        let avgdl = (total as f64 / n as f64).max(1.0);
        assert_eq!(idx.interner.len(), expected.len());
        for (term, list) in &expected {
            let got = idx.postings(term);
            assert_eq!(got.len(), list.len(), "{term}");
            for (p, &(doc, tf)) in got.iter().zip(list) {
                let impact = bm25::impact(tf, lengths[&doc], list.len(), n, avgdl);
                assert_eq!(
                    (p.doc, p.tf, p.impact.to_bits()),
                    (doc, tf, impact.to_bits()),
                    "{term}"
                );
            }
        }
    }

    #[test]
    fn vocabulary_counts_distinct_terms() {
        let idx = InvertedIndex::build(&docs());
        // cheap flights paris deals hotel rooms in = 7 distinct terms.
        assert_eq!(idx.interner.len(), 7);
    }
}
