//! Algorithm 2: results filtering.
//!
//! The engine's response to an obfuscated query mixes results for the
//! original query with results for the fakes. For each result the enclave
//! scores every sub-query by word overlap with the result's title and
//! description (`nbCommonWords`) and forwards the result iff the
//! *original* query attains the maximum score (ties included — the
//! algorithm's condition is `score[Qu] = max`, so a draw goes to the
//! user).
//!
//! Hot-path shape: this runs inside the enclave on every real request,
//! over ≈ 75 results and ≈ 1 800 result words, so it is sized to the
//! data it touches and allocates nothing per result or per word. The
//! k+1 sub-queries are tokenized once into a `WordTable`: their
//! distinct words, sorted, and per sub-query a bitmask over that table
//! (as many `u64`s as the table needs — k = 15 with long queries passes
//! 64 distinct words). A result field is then streamed through
//! [`for_each_token`], which lends each word from the text (or from one
//! reused fold buffer) instead of building a `String`; a word that is in
//! the table sets its bit in the field's `seen` mask, and a sub-query's
//! `nbCommonWords` with the field is `popcount(seen & mask)`. Most result
//! words are in no sub-query; a one-byte `sketch` turns them away
//! before the table is searched, and the search is a binary search of a
//! sorted slice — bounded per word whatever the engine sends back, which
//! a cheap-hash map would not be. Title and description are scored
//! separately and summed, as [`result_score`] — the naive form, kept as
//! the oracle the tests compare against — does. The result list is
//! consumed and filtered in place.

use xsearch_engine::engine::SearchResult;
use xsearch_text::similarity::nb_common_words;
use xsearch_text::tokenize::for_each_token;

/// Scores one (query, result) pair per Algorithm 2 lines 5–6.
#[must_use]
pub fn result_score(query: &str, result: &SearchResult) -> usize {
    nb_common_words(query, &result.title) + nb_common_words(query, &result.description)
}

/// The distinct words of the k+1 sub-queries and, per sub-query, which of
/// them it contains.
struct WordTable {
    /// Distinct words, sorted by [`word_order`]; a word's position is its
    /// bit index.
    words: Vec<String>,
    /// `width` mask words per sub-query, sub-query 0 (the original) first.
    masks: Vec<u64>,
    /// `u64`s per mask.
    width: usize,
    /// Bit [`sketch`]`(word)` is set for every word in the table: most
    /// result words are turned away here, before any comparison.
    sketches: [u64; 4],
}

/// Table order: by length first, so most probes of the binary search
/// compare two integers and never touch the bytes.
fn word_order(a: &str, b: &str) -> std::cmp::Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// One byte mixed from a word's length (its low byte) and its first and
/// last bytes — enough to tell most words that are not in a small table
/// from those that are. Words are never empty.
fn sketch(word: &str) -> u8 {
    let bytes = word.as_bytes();
    (bytes.len() as u8)
        .wrapping_mul(29)
        .wrapping_add(bytes[0].wrapping_mul(7))
        .wrapping_add(bytes[bytes.len() - 1])
}

fn set_bit(bits: &mut [u64], bit: usize) {
    bits[bit / 64] |= 1 << (bit % 64);
}

fn has_bit(bits: &[u64], bit: usize) -> bool {
    bits[bit / 64] & 1 << (bit % 64) != 0
}

impl WordTable {
    fn build<S: AsRef<str>>(original: &str, fakes: &[S], scratch: &mut String) -> Self {
        let mut tagged: Vec<(String, usize)> = Vec::new();
        let subqueries = std::iter::once(original).chain(fakes.iter().map(AsRef::as_ref));
        for (q, text) in subqueries.enumerate() {
            for_each_token(text, scratch, |word| tagged.push((word.to_owned(), q)));
        }
        tagged.sort_unstable_by(|a, b| word_order(&a.0, &b.0));
        // At most one bit per tagged word, fewer once duplicates merge.
        let width = tagged.len().div_ceil(64).max(1);
        let mut table = WordTable {
            words: Vec::with_capacity(tagged.len()),
            masks: vec![0; (fakes.len() + 1) * width],
            width,
            sketches: [0; 4],
        };
        for (word, q) in tagged {
            if table.words.last() != Some(&word) {
                set_bit(&mut table.sketches, usize::from(sketch(&word)));
                table.words.push(word);
            }
            set_bit(&mut table.masks[q * width..], table.words.len() - 1);
        }
        table
    }

    /// Marks in `seen` every table word that occurs in `text`.
    fn mark(&self, text: &str, scratch: &mut String, seen: &mut [u64]) {
        seen.fill(0);
        for_each_token(text, scratch, |word| {
            if !has_bit(&self.sketches, usize::from(sketch(word))) {
                return;
            }
            if let Ok(bit) = self.words.binary_search_by(|w| word_order(w, word)) {
                set_bit(seen, bit);
            }
        });
    }

    /// `nbCommonWords(sub-query q, field)` for a field marked into `seen`.
    fn common(&self, q: usize, seen: &[u64]) -> u32 {
        #[cfg(test)]
        tests::COMMON_CALLS.with(|calls| calls.set(calls.get() + 1));
        let mask = &self.masks[q * self.width..(q + 1) * self.width];
        mask.iter()
            .zip(seen)
            .map(|(m, s)| (m & s).count_ones())
            .sum()
    }
}

/// Runs Algorithm 2: keeps the results whose best-matching sub-query is
/// the original one. Consumes the result list and retains in place.
#[must_use]
pub fn filter_results<S: AsRef<str>>(
    original: &str,
    fakes: &[S],
    mut results: Vec<SearchResult>,
) -> Vec<SearchResult> {
    if fakes.is_empty() || results.is_empty() {
        // No fakes ⇒ the original trivially attains the max score; no
        // results ⇒ nothing to tokenize against (echo-mode hot path).
        return results;
    }
    let mut scratch = String::new();
    let table = WordTable::build(original, fakes, &mut scratch);
    let mut title = vec![0u64; table.width];
    let mut desc = vec![0u64; table.width];
    results.retain(|r| {
        table.mark(&r.title, &mut scratch, &mut title);
        table.mark(&r.description, &mut scratch, &mut desc);
        let score = |q| table.common(q, &title) + table.common(q, &desc);
        // Every sub-query is scored, whatever the scores: the work does
        // not stop at the first fake that beats the original, so it does
        // not depend on where the original sits among the sub-queries.
        let own = score(0);
        let best = (1..=fakes.len()).map(score).fold(own, u32::max);
        // `own == max` (ties to the user).
        own == best
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;
    use xsearch_engine::document::DocId;

    thread_local! {
        /// `WordTable::common` evaluations on this thread.
        pub(super) static COMMON_CALLS: Cell<usize> = const { Cell::new(0) };
    }

    fn result(id: u32, title: &str, desc: &str) -> SearchResult {
        SearchResult {
            doc: DocId(id),
            url: format!("http://example.com/{id}"),
            title: title.to_owned(),
            description: desc.to_owned(),
            score: 1.0,
        }
    }

    #[test]
    fn keeps_results_matching_original() {
        let results = vec![
            result(0, "cheap flights to paris", "book paris flights today"),
            result(
                1,
                "diabetes symptoms guide",
                "common diabetes symptoms explained",
            ),
        ];
        let kept = filter_results(
            "cheap paris flights",
            &["diabetes symptoms".to_owned()],
            results,
        );
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].doc, DocId(0));
    }

    #[test]
    fn drops_results_matching_fakes_better() {
        let results = vec![result(0, "diabetes symptoms", "diabetes care")];
        let kept = filter_results("paris flights", &["diabetes symptoms".to_owned()], results);
        assert!(kept.is_empty());
    }

    #[test]
    fn ties_go_to_the_user() {
        // Result overlaps both queries equally (scores tie) → forwarded.
        let results = vec![result(0, "travel guide", "general travel advice")];
        let kept = filter_results("travel paris", &["travel rome".to_owned()], results);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn no_fakes_keeps_everything() {
        let results = vec![
            result(0, "anything", "at all"),
            result(1, "even this", "unrelated"),
        ];
        let kept = filter_results("some query", &[] as &[&str], results);
        assert_eq!(kept.len(), 2, "k=0 means no filtering is possible");
    }

    #[test]
    fn empty_results_stay_empty() {
        assert!(filter_results("q", &["f".to_owned()], Vec::new()).is_empty());
    }

    #[test]
    fn score_counts_title_and_description_separately() {
        let r = result(0, "paris hotel", "paris hotel booking");
        // "paris" and "hotel" appear in both fields: 2 + 2.
        assert_eq!(result_score("paris hotel", &r), 4);
    }

    #[test]
    fn scoring_is_word_level_not_substring() {
        let r = result(0, "parisian nights", "parisian cafe");
        assert_eq!(result_score("paris", &r), 0);
    }

    #[test]
    fn more_than_64_distinct_subquery_words_all_count() {
        // 16 sub-queries × 12 distinct words = 192 table entries, three
        // mask words: a hit on the last fake's last word must still count.
        let sub = |q: usize| {
            let words: Vec<String> = (0..12).map(|w| format!("q{q}w{w}")).collect();
            words.join(" ")
        };
        let fakes: Vec<String> = (1..16).map(sub).collect();
        let results = vec![
            result(0, "q0w0 q0w11", "q15w11"),
            result(1, "q0w0", "q15w10 Q15W11"),
            result(2, "q7w3 q0w5", "q7w4 q0w6 q7w5"),
        ];
        let kept = filter_results(&sub(0), &fakes, results);
        let ids: Vec<u32> = kept.iter().map(|r| r.doc.0).collect();
        assert_eq!(ids, [0], "1 loses to fake 15, 2 loses to fake 7");
    }

    /// Words that collide only after folding, near-misses that must not,
    /// and enough plain ones that k = 15 passes 64 distinct table words.
    fn vocabulary() -> Vec<String> {
        let special = [
            "paris",
            "Paris",
            "PARIS",
            "parisian",
            "İstanbul",
            "istanbul",
            "i",
            "İ",
            "straße",
            "STRASSE",
            "Straße",
            "ß",
            "ǅungla",
            "ǆungla",
            "649",
            "a",
            "A",
            "é",
            "É",
            "中",
        ];
        let plain = (0..90).map(|n| format!("w{n}"));
        special
            .iter()
            .map(|w| (*w).to_owned())
            .chain(plain)
            .collect()
    }

    /// Joins vocabulary picks with separator picks; an empty pick list is
    /// an empty field.
    fn text(vocab: &[String], picks: &[(usize, usize)]) -> String {
        const SEPARATORS: [&str; 6] = [" ", ", ", "--", " ... ", "\t", "!? "];
        let mut out = String::new();
        for (word, sep) in picks {
            out.push_str(&vocab[word % vocab.len()]);
            out.push_str(SEPARATORS[sep % SEPARATORS.len()]);
        }
        out
    }

    proptest! {
        #[test]
        fn keeps_exactly_what_the_naive_scores_keep(
            k_pick in 0usize..3,
            subqueries in proptest::collection::vec(
                proptest::collection::vec((0usize..110, 0usize..6), 0..12), 16),
            fields in proptest::collection::vec(
                proptest::collection::vec((0usize..110, 0usize..6), 0..16), 0..24),
        ) {
            let vocab = vocabulary();
            let k = [1, 3, 15][k_pick];
            let original = text(&vocab, &subqueries[0]);
            let fakes: Vec<String> = subqueries[1..=k].iter().map(|s| text(&vocab, s)).collect();
            let results: Vec<SearchResult> = fields
                .chunks(2)
                .enumerate()
                .map(|(i, f)| result(i as u32, &text(&vocab, &f[0]), &text(&vocab, f.last().unwrap())))
                .collect();
            let expected: Vec<SearchResult> = results
                .iter()
                .filter(|r| {
                    let own = result_score(&original, r);
                    fakes.iter().all(|f| own >= result_score(f, r))
                })
                .cloned()
                .collect();
            prop_assert_eq!(filter_results(&original, &fakes, results), expected);
        }

        /// The scoring work is k+1 `nbCommonWords` per field per result,
        /// whichever sub-query wins each result.
        #[test]
        fn every_subquery_is_scored_for_every_result(
            k_pick in 0usize..3,
            subqueries in proptest::collection::vec(
                proptest::collection::vec((0usize..110, 0usize..6), 0..12), 16),
            fields in proptest::collection::vec(
                proptest::collection::vec((0usize..110, 0usize..6), 0..16), 0..24),
        ) {
            let vocab = vocabulary();
            let k = [1, 3, 15][k_pick];
            let original = text(&vocab, &subqueries[0]);
            let fakes: Vec<String> = subqueries[1..=k].iter().map(|s| text(&vocab, s)).collect();
            let results: Vec<SearchResult> = fields
                .chunks(2)
                .enumerate()
                .map(|(i, f)| result(i as u32, &text(&vocab, &f[0]), &text(&vocab, f.last().unwrap())))
                .collect();
            let n = results.len();
            let before = COMMON_CALLS.with(Cell::get);
            let _ = filter_results(&original, &fakes, results);
            prop_assert_eq!(COMMON_CALLS.with(Cell::get) - before, n * 2 * (k + 1));
        }

        #[test]
        fn filtered_is_subset(
            original in "[a-z]{2,8} [a-z]{2,8}",
            fake in "[a-z]{2,8} [a-z]{2,8}",
            titles in proptest::collection::vec("[a-z]{2,8}( [a-z]{2,8}){0,3}", 0..10),
        ) {
            let results: Vec<SearchResult> = titles
                .iter()
                .enumerate()
                .map(|(i, t)| result(i as u32, t, ""))
                .collect();
            let kept = filter_results(&original, std::slice::from_ref(&fake), results.clone());
            prop_assert!(kept.len() <= results.len());
            // Everything kept satisfies the score rule.
            for r in &kept {
                prop_assert!(result_score(&original, r) >= result_score(&fake, r));
            }
            // Everything dropped violates it.
            let kept_ids: std::collections::HashSet<_> = kept.iter().map(|r| r.doc).collect();
            for r in results.iter().filter(|r| !kept_ids.contains(&r.doc)) {
                prop_assert!(result_score(&original, r) < result_score(&fake, r));
            }
        }
    }
}
