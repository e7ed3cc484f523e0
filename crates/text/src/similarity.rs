//! Similarity metrics over short texts.
//!
//! Two metrics matter to the reproduction:
//!
//! * **cosine over normalized terms** — SimAttack's query↔profile metric
//!   (§5.3.1 of the paper) and the Fig 1 fake-query similarity measure;
//! * **`nbCommonWords`** — the word-overlap score of the result filter
//!   (Algorithm 2).

use crate::tokenize::{normalized_terms, tokenize};
use std::collections::HashSet;

/// Cosine similarity between two raw query strings after tokenization,
/// stopword removal and stemming (SimAttack's normalization).
///
/// Returns 0.0 when either query has no content terms.
///
/// # Example
///
/// ```
/// use xsearch_text::similarity::cosine_queries;
/// assert!(cosine_queries("cheap flights", "cheap flight") > 0.999);
/// assert_eq!(cosine_queries("cheap flights", "stomach pain"), 0.0);
/// ```
#[must_use]
pub fn cosine_queries(a: &str, b: &str) -> f64 {
    cosine_terms(&normalized_terms(a), &normalized_terms(b))
}

/// Cosine similarity between two pre-normalized term lists (term-frequency
/// weighted).
#[must_use]
pub fn cosine_terms(a: &[String], b: &[String]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    fn count(terms: &[String]) -> std::collections::HashMap<&str, f64> {
        let mut m = std::collections::HashMap::new();
        for t in terms {
            *m.entry(t.as_str()).or_insert(0.0) += 1.0;
        }
        m
    }
    let ca = count(a);
    let cb = count(b);
    let dot: f64 = ca
        .iter()
        .filter_map(|(t, wa)| cb.get(t).map(|wb| wa * wb))
        .sum();
    let na: f64 = ca.values().map(|w| w * w).sum::<f64>().sqrt();
    let nb: f64 = cb.values().map(|w| w * w).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// The distinct case-folded words of a text, as one pre-tokenized set.
/// Callers that score one text against many tokenize each side once with
/// this and then count overlaps with [`common_words`], instead of
/// re-tokenizing per pair through [`nb_common_words`]. (The enclave's
/// Algorithm 2 goes further and builds no sets at all — see
/// [`crate::tokenize::for_each_token`].)
///
/// # Example
///
/// ```
/// use xsearch_text::similarity::{common_words, word_set};
/// let q = word_set("hotel cheap paris");
/// let e = word_set("Cheap Paris hotels");
/// assert_eq!(common_words(&q, &e), 2);
/// ```
#[must_use]
pub fn word_set(text: &str) -> HashSet<String> {
    tokenize(text).into_iter().collect()
}

/// Number of shared words between two pre-tokenized sets — the
/// tokenize-once form of [`nb_common_words`]. Iterates the smaller set.
#[must_use]
pub fn common_words(a: &HashSet<String>, b: &HashSet<String>) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().filter(|w| large.contains(*w)).count()
}

/// The paper's `nbCommonWords(q, e)`: the number of distinct words shared
/// by query `q` and element `e` (title or description), after case-folding
/// tokenization — no stemming, matching Algorithm 2's plain word overlap.
///
/// # Example
///
/// ```
/// use xsearch_text::similarity::nb_common_words;
/// assert_eq!(nb_common_words("hotel cheap paris", "Cheap Paris hotels"), 2);
/// ```
#[must_use]
pub fn nb_common_words(q: &str, e: &str) -> usize {
    common_words(&word_set(q), &word_set(e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_queries_have_cosine_one() {
        assert!((cosine_queries("paris hotel", "paris hotel") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stemming_unifies_inflections() {
        assert!((cosine_queries("running shoes", "run shoe") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stopwords_do_not_contribute() {
        assert!((cosine_queries("the paris hotel", "paris hotel") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_overlap_is_between_zero_and_one() {
        let c = cosine_queries("cheap paris flight", "cheap rome flight");
        assert!(c > 0.0 && c < 1.0, "cosine {c}");
    }

    #[test]
    fn stopword_only_query_is_zero() {
        assert_eq!(cosine_queries("to be or not to be", "hamlet quote"), 0.0);
    }

    #[test]
    fn nb_common_words_counts_distinct() {
        // Repeated "tie" counts once; only {tie} is shared.
        assert_eq!(nb_common_words("tie a tie", "how to tie"), 1);
        // {paris, hotel} shared, repetition irrelevant.
        assert_eq!(nb_common_words("paris paris hotel", "hotel paris"), 2);
    }

    #[test]
    fn nb_common_words_case_insensitive() {
        assert_eq!(nb_common_words("PARIS hotel", "paris HOTEL guide"), 2);
    }

    #[test]
    fn nb_common_words_disjoint_is_zero() {
        assert_eq!(nb_common_words("alpha beta", "gamma delta"), 0);
    }

    proptest! {
        #[test]
        fn cosine_is_symmetric(a in "[a-z ]{0,40}", b in "[a-z ]{0,40}") {
            prop_assert!((cosine_queries(&a, &b) - cosine_queries(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn cosine_in_unit_interval(a in "[a-z ]{0,40}", b in "[a-z ]{0,40}") {
            let c = cosine_queries(&a, &b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
        }

        #[test]
        fn common_words_bounded_by_smaller_set(a in "[a-z ]{0,40}", b in "[a-z ]{0,40}") {
            let n = nb_common_words(&a, &b);
            let qa: std::collections::HashSet<_> = tokenize(&a).into_iter().collect();
            let qb: std::collections::HashSet<_> = tokenize(&b).into_iter().collect();
            prop_assert!(n <= qa.len().min(qb.len()));
        }

        #[test]
        fn pretokenized_overlap_matches_per_pair_form(a in "[a-zA-Z ]{0,40}", b in "[a-zA-Z ]{0,40}") {
            prop_assert_eq!(common_words(&word_set(&a), &word_set(&b)), nb_common_words(&a, &b));
        }
    }
}
