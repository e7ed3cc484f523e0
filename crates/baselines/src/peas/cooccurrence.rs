//! The term co-occurrence matrix PEAS builds from past queries.
//!
//! Two terms co-occur when they appear in the same query; fake queries
//! are random walks over this graph. The weakness Fig 1 exposes: the
//! walks produce term *combinations* that no real user ever issued, so
//! the fakes sit far from real queries in similarity space.

use std::collections::HashMap;
use xsearch_text::tokenize::content_words;

/// A sparse symmetric co-occurrence matrix with term frequencies.
#[derive(Debug, Clone, Default)]
pub struct CooccurrenceMatrix {
    /// term → total occurrences across queries.
    frequencies: HashMap<String, u64>,
    /// term → (co-term → co-occurrence count).
    pairs: HashMap<String, HashMap<String, u64>>,
    /// Observed query lengths (in content words), for realistic fakes.
    length_counts: Vec<u64>,
    /// Sorted term multisets of observed queries. In a real-scale corpus
    /// a random term recombination virtually never equals an issued
    /// query; the fake generator uses this set to preserve that property
    /// in the small synthetic world (see DESIGN.md).
    observed: std::collections::HashSet<Vec<String>>,
}

impl CooccurrenceMatrix {
    /// Builds the matrix from a corpus of past queries.
    #[must_use]
    pub fn build(queries: &[String]) -> Self {
        let mut m = CooccurrenceMatrix::default();
        for q in queries {
            let words = content_words(q);
            if words.is_empty() {
                continue;
            }
            let len = words.len().min(7);
            if m.length_counts.len() <= len {
                m.length_counts.resize(len + 1, 0);
            }
            m.length_counts[len] += 1;
            for w in &words {
                *m.frequencies.entry(w.clone()).or_insert(0) += 1;
            }
            let mut sorted = words.clone();
            sorted.sort_unstable();
            m.observed.insert(sorted);
            for i in 0..words.len() {
                for j in 0..words.len() {
                    if i != j {
                        *m.pairs
                            .entry(words[i].clone())
                            .or_default()
                            .entry(words[j].clone())
                            .or_insert(0) += 1;
                    }
                }
            }
        }
        m
    }

    /// Total occurrences of `term`.
    #[must_use]
    pub fn frequency(&self, term: &str) -> u64 {
        self.frequencies.get(term).copied().unwrap_or(0)
    }

    /// Co-occurrence count of an ordered pair.
    #[must_use]
    pub fn cooccurrence(&self, a: &str, b: &str) -> u64 {
        self.pairs
            .get(a)
            .and_then(|m| m.get(b))
            .copied()
            .unwrap_or(0)
    }

    /// Terms co-occurring with `term`, with counts, in deterministic
    /// (lexicographic) order so sampling over them is reproducible.
    #[must_use]
    pub fn neighbors(&self, term: &str) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self
            .pairs
            .get(term)
            .map(|m| m.iter().map(|(t, &c)| (t.as_str(), c)).collect())
            .unwrap_or_default();
        v.sort_unstable();
        v
    }

    /// All terms with their frequencies (deterministic order).
    #[must_use]
    pub fn terms(&self) -> Vec<(&str, u64)> {
        let mut v: Vec<(&str, u64)> = self
            .frequencies
            .iter()
            .map(|(t, &c)| (t.as_str(), c))
            .collect();
        v.sort_unstable();
        v
    }

    /// Histogram of observed query lengths (index = words).
    #[must_use]
    pub fn length_counts(&self) -> &[u64] {
        &self.length_counts
    }

    /// Whether some observed query consists of exactly these terms
    /// (order-insensitive, like cosine similarity).
    #[must_use]
    pub fn is_observed_combination(&self, terms: &[String]) -> bool {
        let mut sorted = terms.to_vec();
        sorted.sort_unstable();
        self.observed.contains(&sorted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CooccurrenceMatrix {
        CooccurrenceMatrix::build(&[
            "cheap flights".to_owned(),
            "cheap hotel".to_owned(),
            "cheap flights paris".to_owned(),
            "the flights".to_owned(), // "the" is a stopword
        ])
    }

    #[test]
    fn frequencies_count_occurrences() {
        let m = matrix();
        assert_eq!(m.frequency("cheap"), 3);
        assert_eq!(m.frequency("flights"), 3);
        assert_eq!(m.frequency("paris"), 1);
        assert_eq!(m.frequency("unknown"), 0);
    }

    #[test]
    fn stopwords_are_excluded() {
        let m = matrix();
        assert_eq!(m.frequency("the"), 0);
    }

    #[test]
    fn cooccurrence_is_symmetric() {
        let m = matrix();
        assert_eq!(
            m.cooccurrence("cheap", "flights"),
            m.cooccurrence("flights", "cheap")
        );
        assert_eq!(m.cooccurrence("cheap", "flights"), 2);
        assert_eq!(m.cooccurrence("hotel", "paris"), 0);
    }

    #[test]
    fn neighbors_reflect_pairs() {
        let m = matrix();
        let n: std::collections::HashMap<&str, u64> = m.neighbors("cheap").into_iter().collect();
        assert_eq!(n.get("flights"), Some(&2));
        assert_eq!(n.get("hotel"), Some(&1));
        assert_eq!(n.get("paris"), Some(&1));
    }

    #[test]
    fn length_histogram_counts_queries() {
        let m = matrix();
        // lengths: 2, 2, 3, 1 → counts[1]=1, counts[2]=2, counts[3]=1.
        assert_eq!(m.length_counts()[1], 1);
        assert_eq!(m.length_counts()[2], 2);
        assert_eq!(m.length_counts()[3], 1);
    }

    #[test]
    fn empty_corpus_is_empty() {
        let m = CooccurrenceMatrix::build(&[]);
        assert!(m.terms().is_empty());
        assert!(m.neighbors("x").is_empty());
    }
}
