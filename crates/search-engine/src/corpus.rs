//! Synthetic web corpus generation.
//!
//! Documents are generated per topic from the same term bank as the query
//! log, so a topical query's relevant documents exist and rank well — the
//! property Fig 4's precision/recall measurement needs.

use crate::document::{DocId, Document};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::ops::RangeInclusive;
use xsearch_query_log::topics::{MODIFIERS, TOPICS};

/// Words per title.
const TITLE_WORDS: RangeInclusive<usize> = 3..=6;
/// Words per description.
const DESCRIPTION_WORDS: RangeInclusive<usize> = 12..=28;
/// Probability a description word is borrowed from a random *other*
/// topic (cross-topic noise, which keeps filtering non-trivial).
const NOISE_PROBABILITY: f64 = 0.12;

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Documents generated per topic.
    pub docs_per_topic: usize,
    /// RNG seed (same seed → identical corpus).
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            docs_per_topic: 250,
            seed: 7,
        }
    }
}

/// Generates the corpus: `docs_per_topic * TOPICS.len()` documents.
#[must_use]
pub fn generate(config: &CorpusConfig) -> Vec<Document> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut docs = Vec::with_capacity(config.docs_per_topic * TOPICS.len());
    for (topic_idx, topic) in TOPICS.iter().enumerate() {
        for _ in 0..config.docs_per_topic {
            let id = DocId(docs.len() as u32);
            docs.push(generate_doc(id, topic_idx, topic.terms, &mut rng));
        }
    }
    docs
}

fn generate_doc(id: DocId, topic_idx: usize, terms: &[&str], rng: &mut StdRng) -> Document {
    let title_len = rng.gen_range(TITLE_WORDS);
    let mut title_words: Vec<&str> = terms
        .choose_multiple(rng, title_len.min(terms.len()))
        .copied()
        .collect();
    if rng.gen_bool(0.4) {
        title_words.insert(0, MODIFIERS[rng.gen_range(0..MODIFIERS.len())]);
    }
    let title = title_words.join(" ");

    let desc_len = rng.gen_range(DESCRIPTION_WORDS);
    let mut desc_words = Vec::with_capacity(desc_len);
    for _ in 0..desc_len {
        if rng.gen_bool(NOISE_PROBABILITY) {
            let other = &TOPICS[rng.gen_range(0..TOPICS.len())];
            desc_words.push(other.terms[rng.gen_range(0..other.terms.len())]);
        } else if rng.gen_bool(0.15) {
            desc_words.push(MODIFIERS[rng.gen_range(0..MODIFIERS.len())]);
        } else {
            desc_words.push(terms[rng.gen_range(0..terms.len())]);
        }
    }
    let description = desc_words.join(" ");

    let host = format!(
        "www.{}{}.com",
        terms[rng.gen_range(0..terms.len())],
        rng.gen_range(0..100)
    );
    let path = terms[rng.gen_range(0..terms.len())];
    // A fraction of URLs carry an analytics redirection wrapper, which the
    // X-Search proxy must strip before returning results (§4.1).
    let url = if rng.gen_bool(0.25) {
        format!(
            "http://redirect.tracker.com/click?u=http%3A%2F%2F{host}%2F{path}&session={}",
            rng.gen_range(100_000..999_999)
        )
    } else {
        format!("http://{host}/{path}")
    };

    Document {
        id,
        url,
        title,
        description,
        topic: topic_idx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn small() -> CorpusConfig {
        CorpusConfig {
            docs_per_topic: 20,
            ..Default::default()
        }
    }

    #[test]
    fn corpus_size_is_topics_times_docs() {
        let docs = generate(&small());
        assert_eq!(docs.len(), 20 * TOPICS.len());
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(&small()), generate(&small()));
    }

    #[test]
    fn doc_ids_are_dense_and_unique() {
        let docs = generate(&small());
        for (i, d) in docs.iter().enumerate() {
            assert_eq!(d.id, DocId(i as u32));
        }
    }

    #[test]
    fn titles_mostly_use_topic_vocabulary() {
        let docs = generate(&small());
        for d in docs.iter().take(200) {
            let topic_terms: HashSet<&str> = TOPICS[d.topic].terms.iter().copied().collect();
            let in_topic = d
                .title
                .split_whitespace()
                .filter(|w| topic_terms.contains(w))
                .count();
            assert!(in_topic >= 2, "title {:?} for topic {}", d.title, d.topic);
        }
    }

    #[test]
    fn some_urls_are_tracker_wrapped() {
        let docs = generate(&small());
        let wrapped = docs
            .iter()
            .filter(|d| d.url.contains("redirect.tracker.com"))
            .count();
        assert!(
            wrapped > docs.len() / 10,
            "{wrapped} wrapped of {}",
            docs.len()
        );
        assert!(wrapped < docs.len() / 2);
    }

    #[test]
    fn every_topic_is_covered() {
        let docs = generate(&small());
        let topics: HashSet<usize> = docs.iter().map(|d| d.topic).collect();
        assert_eq!(topics.len(), TOPICS.len());
    }
}
