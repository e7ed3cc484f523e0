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
//! distinct words, and per sub-query a bitmask over that table (as many
//! `u64`s as the table needs — k = 15 with long queries passes 64
//! distinct words). A result field is then streamed through
//! [`for_each_token`], which splits a field with no upper-case or
//! non-ASCII byte a 64-byte block at a time and lends each word from the
//! text (a field with such a byte takes its exact, folding path); a word
//! that is in the table sets its bit in the field's `seen` mask, and a
//! sub-query's `nbCommonWords` with the field is `popcount(seen & mask)`.
//!
//! The lookup is a bounded scan, not a search. A table word of at most 8
//! bytes is one zero-padded `u64` key; a result word of that size is
//! compared with every key at once (the comparisons vectorize) and the
//! hits are OR-ed into the mask. A longer word is compared exactly with
//! every longer table word. So a word costs the same whatever it is and
//! whatever the engine sent back — no probe sequence a hostile engine
//! could lengthen, as it could a cheap hash's — and the table is sorted
//! and deduplicated, so neither its layout nor the work depends on where
//! the original sits among the sub-queries. Title and description are
//! scored separately and summed, as [`result_score`] — the naive form,
//! kept as the oracle the tests compare against — does. The result list
//! is consumed and filtered in place; in the enclave it is a list of
//! views into the `recv` payload, so a dropped result frees nothing.

use crate::wire::ResultFields;
use xsearch_text::similarity::nb_common_words;
use xsearch_text::tokenize::for_each_token;

/// Scores one (query, result) pair per Algorithm 2 lines 5–6.
#[must_use]
pub fn result_score<R: ResultFields>(query: &str, result: &R) -> usize {
    nb_common_words(query, result.title()) + nb_common_words(query, result.description())
}

/// Bytes in a short key: a word this long or shorter is one `u64`.
const KEY_BYTES: usize = 8;

/// A word of 1 to [`KEY_BYTES`] bytes as a zero-padded little-endian
/// key. Words are never empty and hold no NUL, so no word's key is 0.
///
/// Two loads that may overlap, not a copy into a padded buffer (a
/// `memcpy` call of variable length): 4 to 8 bytes are the first four
/// and the last four, and 1 to 3 bytes the first, middle and last; an
/// overlapping byte lands on the same bits from both sides.
fn key(word: &[u8]) -> u64 {
    let n = word.len();
    if n >= 4 {
        let head = u32::from_le_bytes(word[..4].try_into().expect("4 bytes"));
        let tail = u32::from_le_bytes(word[n - 4..].try_into().expect("4 bytes"));
        u64::from(head) | u64::from(tail) << (8 * (n - 4))
    } else {
        let byte = |i: usize| u64::from(word[i]) << (8 * i);
        byte(0) | byte(n / 2) | byte(n - 1)
    }
}

/// The distinct words of the k+1 sub-queries and, per sub-query, which of
/// them it contains.
struct WordTable {
    /// The short words' keys, ascending, padded with 0 keys (which match
    /// no word) to a whole number of 8; key `i` is bit `i`.
    short: Vec<u64>,
    /// The words longer than [`KEY_BYTES`], sorted; word `i` is bit
    /// `short.len() + i`.
    long: Vec<String>,
    /// `width` mask words per sub-query, sub-query 0 (the original) first.
    masks: Vec<u64>,
    /// `u64`s per mask.
    width: usize,
}

/// Bit `i` set where `keys[i]` is `word` (at most 64 keys). Every key is
/// compared; the comparisons vectorize.
fn matches(keys: &[u64], word: u64) -> u64 {
    keys.iter()
        .enumerate()
        .fold(0, |hits, (i, &k)| hits | u64::from(k == word) << i)
}

/// The hits of a short key among the short keys past the first 64 (a
/// table that large is k = 15 with long queries), one mask word per 64.
#[inline(never)]
fn mark_rest(rest: &[u64], word: u64, seen: &mut [u64]) {
    for (keys, seen) in rest.chunks(64).zip(seen) {
        *seen |= matches(keys, word);
    }
}

fn set_bit(bits: &mut [u64], bit: usize) {
    bits[bit / 64] |= 1 << (bit % 64);
}

impl WordTable {
    fn build<S: AsRef<str>>(original: &str, fakes: &[S], scratch: &mut String) -> Self {
        // Each sub-query's words, tagged with the sub-query: short ones
        // as their keys, longer ones as text.
        let mut short_words: Vec<(u64, usize)> = Vec::new();
        let mut long_words: Vec<(String, usize)> = Vec::new();
        let subqueries = std::iter::once(original).chain(fakes.iter().map(AsRef::as_ref));
        for (q, text) in subqueries.enumerate() {
            for_each_token(text, scratch, |word| {
                if word.len() <= KEY_BYTES {
                    short_words.push((key(word.as_bytes()), q));
                } else {
                    long_words.push((word.to_owned(), q));
                }
            });
        }
        let mut short: Vec<u64> = short_words.iter().map(|&(key, _)| key).collect();
        short.sort_unstable();
        short.dedup();
        // Whole groups of 8 keys, so the comparisons run in full vectors.
        let padded = short.len().next_multiple_of(8);
        let mut long: Vec<String> = long_words.iter().map(|(word, _)| word.clone()).collect();
        long.sort_unstable();
        long.dedup();
        let width = (padded + long.len()).div_ceil(64).max(1);
        let mut masks = vec![0; (fakes.len() + 1) * width];
        let found = "every sub-query word is in the table";
        for (key, q) in short_words {
            set_bit(
                &mut masks[q * width..],
                short.binary_search(&key).expect(found),
            );
        }
        for (word, q) in long_words {
            let bit = padded + long.binary_search(&word).expect(found);
            set_bit(&mut masks[q * width..], bit);
        }
        short.resize(padded, 0);
        WordTable {
            short,
            long,
            masks,
            width,
        }
    }

    /// Marks in `seen` every table word that occurs in `text`. Each word
    /// is compared with every key of its length class, whatever it
    /// matches; the hits among the first 64 short keys gather in a
    /// register and reach `seen` once per field.
    fn mark(&self, text: &str, scratch: &mut String, seen: &mut [u64]) {
        seen.fill(0);
        let (first, rest) = self.short.split_at(self.short.len().min(64));
        let mut hits = 0;
        for_each_token(text, scratch, |word| {
            if word.len() <= KEY_BYTES {
                #[cfg(test)]
                tests::KEYS_COMPARED.with(|n| n.set(n.get() + self.short.len()));
                let word = key(word.as_bytes());
                hits |= matches(first, word);
                if !rest.is_empty() {
                    mark_rest(rest, word, &mut seen[1..]);
                }
            } else if !self.long.is_empty() {
                self.mark_long(word, seen);
            }
        });
        seen[0] |= hits;
    }

    /// The exact compare of a word longer than [`KEY_BYTES`] with every
    /// longer table word. Out of line, so that the short-word path stays
    /// small enough to inline into the tokenizer's loop.
    #[inline(never)]
    fn mark_long(&self, word: &str, seen: &mut [u64]) {
        #[cfg(test)]
        tests::KEYS_COMPARED.with(|n| n.set(n.get() + self.long.len()));
        for (i, long) in self.long.iter().enumerate() {
            if long == word {
                set_bit(seen, self.short.len() + i);
            }
        }
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
///
/// Generic over what holds a result's title and description: the
/// enclave filters [`crate::wire::ResultView`]s borrowed from its `recv`
/// payload, the reference paths owned [`SearchResult`]s.
///
/// [`SearchResult`]: xsearch_engine::engine::SearchResult
#[must_use]
pub fn filter_results<S: AsRef<str>, R: ResultFields>(
    original: &str,
    fakes: &[S],
    mut results: Vec<R>,
) -> Vec<R> {
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
        table.mark(r.title(), &mut scratch, &mut title);
        table.mark(r.description(), &mut scratch, &mut desc);
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
    use xsearch_engine::engine::SearchResult;

    thread_local! {
        /// `WordTable::common` evaluations on this thread.
        pub(super) static COMMON_CALLS: Cell<usize> = const { Cell::new(0) };
        /// Table keys `WordTable::mark` compared on this thread.
        pub(super) static KEYS_COMPARED: Cell<usize> = const { Cell::new(0) };
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
        assert!(filter_results("q", &["f".to_owned()], Vec::<SearchResult>::new()).is_empty());
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

    /// Words of 1, 8, 9 and more than 64 bytes, each also with an
    /// upper-case or non-ASCII spelling that folds onto it (or nearly).
    const EDGE_WORDS: [&str; 16] = [
        "a",
        "A",
        "0",
        "hotels12",
        "HOTELS12",
        "hotels123",
        "Hotels123",
        "straße",
        "STRASSE",
        "é",
        "É",
        "naïve",
        "abcdefghabcdefghabcdefghabcdefghabcdefghabcdefghabcdefghabcdefghz",
        "abcdefghabcdefghabcdefghabcdefghabcdefghabcdefghabcdefghabcdefghZ",
        "abcdefghabcdefghabcdefghabcdefghabcdefghabcdefghabcdefghabcdefgh",
        "中",
    ];

    /// A field from `units`: words, separators (NUL and other control
    /// bytes among them), and runs of spaces up to — or one or two bytes
    /// short of — the next 8- or 64-byte block edge, so that words, and
    /// upper-case and non-ASCII bytes, start and end on the edges the
    /// tokenizer's block path splits at. `repeat` copies make fields
    /// longer than 512 bytes, and a field may end on a word's last byte.
    fn edge_field(units: &[(usize, usize)], repeat: usize) -> String {
        const SEPARATORS: [&str; 7] = [" ", "\0", "\x01", "\x1f", "\x7f", ", ", "\t"];
        let mut out = String::new();
        for _ in 0..repeat {
            for &(unit, n) in units {
                match unit {
                    0..=5 => out.push_str(EDGE_WORDS[n % EDGE_WORDS.len()]),
                    6 | 7 => out.push_str(SEPARATORS[n % SEPARATORS.len()]),
                    _ => {
                        let edge = if n % 2 == 0 { 8 } else { 64 };
                        while !(out.len() + n % 3).is_multiple_of(edge) {
                            out.push(' ');
                        }
                    }
                }
            }
        }
        out
    }

    fn edge_units() -> impl Strategy<Value = Vec<(usize, usize)>> {
        proptest::collection::vec((0usize..9, 0usize..48), 0..24)
    }

    proptest! {
        /// The block path, its hand-over to the exact path and the
        /// bounded lookup against the naive scorer: every sub-query's
        /// `nbCommonWords` with every field, and the kept list, match
        /// [`result_score`] over [`nb_common_words`].
        #[test]
        fn fast_path_scores_match_result_score(
            subqueries in proptest::collection::vec(edge_units(), 4),
            fields in proptest::collection::vec((edge_units(), 1usize..4), 0..8),
        ) {
            let subs: Vec<String> = subqueries.iter().map(|u| edge_field(u, 1)).collect();
            let results: Vec<SearchResult> = fields
                .chunks(2)
                .enumerate()
                .map(|(i, f)| {
                    let (title, desc) = (&f[0], f.last().unwrap());
                    result(i as u32, &edge_field(&title.0, title.1), &edge_field(&desc.0, desc.1))
                })
                .collect();
            let mut scratch = String::new();
            let table = WordTable::build(&subs[0], &subs[1..], &mut scratch);
            let mut seen = vec![0u64; table.width];
            for r in &results {
                for field in [&r.title, &r.description] {
                    table.mark(field, &mut scratch, &mut seen);
                    for (q, sub) in subs.iter().enumerate() {
                        prop_assert_eq!(
                            table.common(q, &seen) as usize,
                            nb_common_words(sub, field),
                            "sub-query {:?}, field {:?}", sub, field
                        );
                    }
                }
            }
            let expected: Vec<SearchResult> = results
                .iter()
                .filter(|r| subs[1..].iter().all(|f| result_score(&subs[0], r) >= result_score(f, r)))
                .cloned()
                .collect();
            prop_assert_eq!(filter_results(&subs[0], &subs[1..], results), expected);
        }

        /// ROADMAP 2(c) for Algorithm 2: the original at each of the k+1
        /// positions of one sub-query multiset, over the same results,
        /// costs the same table lookups (keys compared) and the same
        /// `nbCommonWords` evaluations.
        #[test]
        fn work_does_not_depend_on_the_original_position(
            k_pick in 0usize..3,
            subqueries in proptest::collection::vec(
                proptest::collection::vec((0usize..110, 0usize..6), 0..12), 8),
            fields in proptest::collection::vec(
                proptest::collection::vec((0usize..110, 0usize..6), 0..16), 0..24),
        ) {
            let vocab = vocabulary();
            let k = [1, 3, 7][k_pick];
            let subs: Vec<String> = subqueries[..=k].iter().map(|s| text(&vocab, s)).collect();
            let results: Vec<SearchResult> = fields
                .chunks(2)
                .enumerate()
                .map(|(i, f)| result(i as u32, &text(&vocab, &f[0]), &text(&vocab, f.last().unwrap())))
                .collect();
            let mut work = Vec::new();
            for position in 0..=k {
                let fakes: Vec<&String> = (0..=k).filter(|&q| q != position).map(|q| &subs[q]).collect();
                let (keys, common) = (KEYS_COMPARED.with(Cell::get), COMMON_CALLS.with(Cell::get));
                let _ = filter_results(&subs[position], &fakes, results.clone());
                work.push((
                    KEYS_COMPARED.with(Cell::get) - keys,
                    COMMON_CALLS.with(Cell::get) - common,
                ));
            }
            prop_assert!(work.iter().all(|w| *w == work[0]), "work per position: {:?}", work);
        }

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
