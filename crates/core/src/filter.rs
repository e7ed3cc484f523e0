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
//! distinct words). A field's `seen` mask gets the bit of every table
//! word the field contains, and a sub-query's `nbCommonWords` with the
//! field is `popcount(seen & mask)`. The table, the masks and the `seen`
//! buffers live in per-thread scratch that keeps its allocations from one
//! request to the next, so a warm request allocates nothing here.
//!
//! **The walk.** A field is walked a 64-byte block at a time by byte
//! offset. [`token_bits`] classifies a block into a token bitmap; a token
//! starts on a set bit after a clear one and ends on the clear bit after
//! it, both found with `trailing_zeros`, and no token is lent out as a
//! `&str`. The block is read through a window that also holds the 8 bytes
//! after it — the field itself where the field is that long, else a
//! zero-padded copy of its last bytes — so a token's first 8 bytes are
//! one load at its start offset, whatever block it ends in. A block with
//! an upper-case or non-ASCII byte hands the rest of the field, from the
//! start of the token that block is in, to [`for_each_folded_token`],
//! the exact folding path, whose words take the same lookup.
//!
//! **The lookup.** A token's key is its first `min(len, 8)` bytes,
//! zero-padded, with the top bit set if it is longer than 8 bytes (a
//! token is never empty and holds no NUL, so no key is 0). Short table
//! words and the first 8 bytes of the long ones share one fixed-width
//! array of 16 keys, short words first, each sorted. Every token is
//! compared with all 16 at once (the comparisons vectorize); a short key
//! can only equal a short word's and a long key a long word's. A long
//! token whose key hits a long word's is then compared exactly with that
//! word — the only compare whose cost depends on the bytes. Tables past
//! 16 words (k ≥ 7, mostly) compare each token with the rest 16 keys at a
//! time, out of line. The table is sorted and deduplicated, so neither
//! its layout nor the work depends on where the original sits among the
//! sub-queries.
//!
//! **The work is bounded by the bytes.** A field of `n` bytes holds at
//! most `⌈n / 2⌉` tokens and at most `n / 10 + 1` tokens longer than 8
//! bytes. Each token costs one key load and `16 · ⌈E / 16⌉` key compares
//! for a table of `E` words, and a long token at most `L` exact compares
//! of at most its own length, `L` being the table's long words. So
//! whatever the engine sends, a field costs at most
//! `⌈n / 2⌉ · 16 · ⌈E / 16⌉` key compares and `(n / 10 + 1) · L` exact
//! compares touching at most `n · L` bytes: no probe sequence or
//! candidate list a hostile engine could lengthen, as it could a cheap
//! hash's. A two-byte-prefix prefilter that skips the compare for tokens
//! no table word starts with was measured and left out: as a branch per
//! token it mispredicts on ≈ 23 % of the tokens, and as a vectorized pass
//! over each block it costs more than the compares it saves.
//!
//! Title and description are scored separately and summed, as
//! [`result_score`] — the naive form, kept as the oracle the tests
//! compare against — does. The result list is consumed and filtered in
//! place; in the enclave it is a list of views into the `recv` payload,
//! so a dropped result frees nothing.

use crate::wire::ResultFields;
use std::cell::RefCell;
use std::ops::Range;
use xsearch_text::similarity::nb_common_words;
use xsearch_text::tokenize::{for_each_folded_token, for_each_token, token_bits, BLOCK};

/// Scores one (query, result) pair per Algorithm 2 lines 5–6.
#[must_use]
pub fn result_score<R: ResultFields>(query: &str, result: &R) -> usize {
    nb_common_words(query, result.title()) + nb_common_words(query, result.description())
}

/// Bytes in a key: a word this long or shorter is short, and its key is
/// the whole word.
const KEY_BYTES: usize = 8;

/// Keys a token is compared with at once: the width of the key array.
const LANES: usize = 16;

/// A block and the [`KEY_BYTES`] after it, so that the key load at any
/// offset in the block stays inside.
type Window = [u8; BLOCK + KEY_BYTES];

/// The [`KEY_BYTES`] bytes at offset `at` of the window's block.
fn load(window: &Window, at: usize) -> u64 {
    u64::from_le_bytes(
        window[at % BLOCK..][..KEY_BYTES]
            .try_into()
            .expect("8 bytes"),
    )
}

/// Set in the key of a long word.
const LONG: u64 = 1 << 63;

/// The key of a `len`-byte token whose first bytes are `head`: its first
/// `min(len, 8)` bytes, zero-padded, with [`LONG`] set if it is longer
/// than 8 bytes. A word is long if its key has [`LONG`]: every word
/// longer than 8 bytes, and an 8-byte one whose last byte is not ASCII
/// (only the exact path makes those). So a short word's key is the word,
/// and two long words share a key only if they share their first 8 bytes.
fn key(head: u64, len: usize) -> u64 {
    /// The bytes of the key a token of `len.min(9)` bytes keeps.
    const MASKS: [u64; KEY_BYTES + 2] = {
        let mut masks = [u64::MAX; KEY_BYTES + 2];
        let mut len = 0;
        while len < KEY_BYTES {
            masks[len] = (1 << (8 * len)) - 1;
            len += 1;
        }
        masks
    };
    head & MASKS[len.min(KEY_BYTES + 1)] | u64::from(len > KEY_BYTES) << 63
}

/// [`key`] of a word given as bytes.
fn word_key(word: &[u8]) -> u64 {
    let mut head = [0; KEY_BYTES];
    let n = word.len().min(KEY_BYTES);
    head[..n].copy_from_slice(&word[..n]);
    key(u64::from_le_bytes(head), word.len())
}

/// Bit `i` set where `keys[i]` is `key`. Every key is compared; the
/// comparisons vectorize.
fn matches(keys: &[u64; LANES], key: u64) -> u64 {
    keys.iter()
        .enumerate()
        .fold(0, |hits, (i, &k)| hits | u64::from(k == key) << i)
}

fn set_bit(bits: &mut [u64], bit: usize) {
    bits[bit / 64] |= 1 << (bit % 64);
}

/// The distinct words of the k+1 sub-queries and, per sub-query, which of
/// them it contains. Word `e` (bit `e`) is short for `e < short`, sorted
/// by key, and long (see [`key`]) after that, sorted by text.
#[derive(Default)]
struct WordTable {
    /// The keys of words 0 to 15, 0 past the last word.
    keys: [u64; LANES],
    /// The keys of words 16 on, 16 to an array, 0 past the last word.
    rest: Vec<[u64; LANES]>,
    /// Short words in the table.
    short: usize,
    /// The bits of `keys` that are long words.
    long_lanes: u64,
    /// The long words, as ranges of `text`.
    long: Vec<Range<usize>>,
    /// `width` mask words per sub-query, sub-query 0 (the original) first.
    masks: Vec<u64>,
    /// `u64`s per mask.
    width: usize,
    /// What the build collects: the bytes of every long sub-query word,
    /// each word's key or range tagged with its sub-query, and the short
    /// keys sorted.
    text: String,
    short_words: Vec<(u64, usize)>,
    long_words: Vec<(Range<usize>, usize)>,
    sorted: Vec<u64>,
}

impl WordTable {
    /// Rebuilds the table for these sub-queries in the space the last
    /// build left.
    fn build<S: AsRef<str>>(&mut self, original: &str, fakes: &[S], fold: &mut String) {
        let WordTable {
            text,
            short_words,
            long_words,
            sorted,
            long,
            ..
        } = self;
        text.clear();
        short_words.clear();
        long_words.clear();
        let subqueries = std::iter::once(original).chain(fakes.iter().map(AsRef::as_ref));
        for (q, sub) in subqueries.enumerate() {
            for_each_token(sub, fold, |word| {
                let key = word_key(word.as_bytes());
                if key & LONG == 0 {
                    short_words.push((key, q));
                } else {
                    text.push_str(word);
                    long_words.push((text.len() - word.len()..text.len(), q));
                }
            });
        }
        sorted.clear();
        sorted.extend(short_words.iter().map(|&(key, _)| key));
        sorted.sort_unstable();
        sorted.dedup();
        let word = |r: &Range<usize>| &text[r.clone()];
        long.clear();
        long.extend(long_words.iter().map(|(r, _)| r.clone()));
        long.sort_unstable_by(|a, b| word(a).cmp(word(b)));
        long.dedup_by(|a, b| word(a) == word(b));

        let short = sorted.len();
        let words = short + long.len();
        let width = words.div_ceil(64).max(1);
        self.masks.clear();
        self.masks.resize((fakes.len() + 1) * width, 0);
        let found = "every sub-query word is in the table";
        for &(key, q) in &self.short_words {
            let bit = self.sorted.binary_search(&key).expect(found);
            set_bit(&mut self.masks[q * width..], bit);
        }
        for (r, q) in &self.long_words {
            let bit = short
                + self
                    .long
                    .binary_search_by(|l| word(l).cmp(word(r)))
                    .expect(found);
            set_bit(&mut self.masks[q * width..], bit);
        }

        let mut keys = self.sorted.iter().copied().chain(
            self.long
                .iter()
                .map(|r| word_key(self.text[r.clone()].as_bytes())),
        );
        self.keys = std::array::from_fn(|_| keys.next().unwrap_or(0));
        self.rest.clear();
        for _ in 1..words.div_ceil(LANES) {
            self.rest
                .push(std::array::from_fn(|_| keys.next().unwrap_or(0)));
        }
        let below = |n: usize| if n >= 64 { u64::MAX } else { (1 << n) - 1 };
        self.long_lanes = below(words.min(LANES)) & !below(short);
        self.short = short;
        self.width = width;
    }

    /// Long word `i`.
    fn long_word(&self, i: usize) -> &[u8] {
        self.text[self.long[i].clone()].as_bytes()
    }

    /// Marks in `seen` every table word that occurs in `text`.
    fn mark(&self, text: &str, fold: &mut String, seen: &mut [u64]) {
        if self.rest.is_empty() {
            self.mark_with::<false>(text, fold, seen);
        } else {
            self.mark_with::<true>(text, fold, seen);
        }
    }

    /// [`WordTable::mark`] for a table with (`REST`) or without words past
    /// the first 16.
    fn mark_with<const REST: bool>(&self, text: &str, fold: &mut String, seen: &mut [u64]) {
        seen.fill(0);
        let bytes = text.as_bytes();
        // The hits among the first 16 words gather in a register and
        // reach `seen` once per field.
        let mut hits = 0;
        let mut padded: Window;
        // A token still open at the end of a block: its start and head.
        let (mut carry, mut start, mut head) = (0, 0, 0);
        for n in 0..=bytes.len() / BLOCK {
            let base = n * BLOCK;
            let window: &Window = match bytes.get(base..base + BLOCK + KEY_BYTES) {
                Some(window) => window.try_into().expect("a window"),
                None => {
                    let rest = &bytes[base..];
                    padded = [0; BLOCK + KEY_BYTES];
                    padded[..rest.len()].copy_from_slice(rest);
                    &padded
                }
            };
            let Some(bits) = token_bits(window[..BLOCK].try_into().expect("a block")) else {
                // Every byte before this block is ASCII, and the byte
                // before `from` is a separator (or there is none), so the
                // exact path picks up at a token boundary.
                seen[0] |= hits;
                let from = if carry == 1 { start } else { base };
                for_each_folded_token(&text[from..], fold, &mut |word| {
                    let word = word.as_bytes();
                    let hits = self.look_up::<REST>(word_key(word), word, 0..word.len(), seen);
                    seen[0] |= hits;
                });
                return;
            };
            // As in `for_each_token`: starts and ends pair up in order,
            // after the end of a token still open from the block before.
            let before = bits << 1 | carry;
            let mut starts = bits & !before;
            let mut ends = !bits & before;
            if carry == 1 && ends != 0 {
                let end = base + ends.trailing_zeros() as usize;
                hits |= self.look_up::<REST>(head, bytes, start..end, seen);
                ends &= ends - 1;
            }
            while ends != 0 {
                let (from, to) = (
                    starts.trailing_zeros() as usize,
                    ends.trailing_zeros() as usize,
                );
                starts &= starts - 1;
                ends &= ends - 1;
                hits |=
                    self.look_up::<REST>(load(window, from), bytes, base + from..base + to, seen);
            }
            if starts != 0 {
                let from = starts.trailing_zeros() as usize;
                start = base + from;
                head = load(window, from);
            }
            carry = bits >> (BLOCK - 1);
        }
        seen[0] |= hits;
    }

    /// The bits of the first 16 table words that the token
    /// `text[token]`, whose first bytes are `head`, is; a word past the
    /// first 16 is marked in `seen`. The token is sliced only for an
    /// exact compare.
    #[inline(always)]
    fn look_up<const REST: bool>(
        &self,
        head: u64,
        text: &[u8],
        token: Range<usize>,
        seen: &mut [u64],
    ) -> u64 {
        let key = key(head, token.end - token.start);
        #[cfg(test)]
        tests::count(&tests::TOKENS_LOOKED_UP, 1);
        #[cfg(test)]
        tests::count(&tests::KEYS_COMPARED, LANES * (1 + self.rest.len()));
        if REST {
            self.look_up_rest(key, &text[token.clone()], seen);
        }
        // A short key can only be a short word's and a long key a long
        // word's, and a long word's is only its first 8 bytes.
        let hits = matches(&self.keys, key);
        if hits & self.long_lanes == 0 {
            hits
        } else {
            self.confirm(hits, &text[token])
        }
    }

    /// `hits`, all long words whose first 8 bytes `token`'s are, less
    /// those it is not.
    #[inline(never)]
    fn confirm(&self, hits: u64, token: &[u8]) -> u64 {
        let mut confirmed = 0;
        let mut left = hits;
        while left != 0 {
            let bit = left.trailing_zeros() as usize;
            left &= left - 1;
            #[cfg(test)]
            tests::count(&tests::LONG_CONFIRMS, 1);
            if self.long_word(bit - self.short) == token {
                confirmed |= 1 << bit;
            }
        }
        confirmed
    }

    /// The lookup among the words past the first 16 (a table that large
    /// is k ≥ 7, mostly), 16 keys at a time, hits marked in `seen`.
    #[inline(never)]
    fn look_up_rest(&self, key: u64, token: &[u8], seen: &mut [u64]) {
        for (i, keys) in self.rest.iter().enumerate() {
            let mut hits = matches(keys, key);
            while hits != 0 {
                let word = LANES * (i + 1) + hits.trailing_zeros() as usize;
                hits &= hits - 1;
                if word >= self.short {
                    #[cfg(test)]
                    tests::count(&tests::LONG_CONFIRMS, 1);
                    if self.long_word(word - self.short) != token {
                        continue;
                    }
                }
                set_bit(seen, word);
            }
        }
    }

    /// `nbCommonWords(sub-query q, field)` for a field marked into `seen`.
    fn common(&self, q: usize, seen: &[u64]) -> u32 {
        #[cfg(test)]
        tests::count(&tests::COMMON_CALLS, 1);
        let mask = &self.masks[q * self.width..(q + 1) * self.width];
        mask.iter()
            .zip(seen)
            .map(|(m, s)| (m & s).count_ones())
            .sum()
    }
}

/// What Algorithm 2 builds per request, kept per thread so that its
/// allocations outlive the request: the word table, the buffer the exact
/// path folds a word into, and the title's and description's `seen`
/// masks.
#[derive(Default)]
struct Scratch {
    table: WordTable,
    fold: String,
    title: Vec<u64>,
    desc: Vec<u64>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
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
    SCRATCH.with_borrow_mut(|scratch| {
        let Scratch {
            table,
            fold,
            title,
            desc,
        } = scratch;
        table.build(original, fakes, fold);
        title.resize(table.width, 0);
        desc.resize(table.width, 0);
        results.retain(|r| {
            table.mark(r.title(), fold, title);
            table.mark(r.description(), fold, desc);
            let score = |q| table.common(q, title) + table.common(q, desc);
            // Every sub-query is scored, whatever the scores: the work
            // does not stop at the first fake that beats the original, so
            // it does not depend on where the original sits among the
            // sub-queries.
            let own = score(0);
            let best = (1..=fakes.len()).map(score).fold(own, u32::max);
            // `own == max` (ties to the user).
            own == best
        });
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
        /// Result tokens `WordTable::mark` looked up in the table on this
        /// thread.
        pub(super) static TOKENS_LOOKED_UP: Cell<usize> = const { Cell::new(0) };
        /// Exact compares of a long token with a long table word that
        /// shares its first 8 bytes, on this thread.
        pub(super) static LONG_CONFIRMS: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn count(counter: &'static std::thread::LocalKey<Cell<usize>>, n: usize) {
        counter.with(|c| c.set(c.get() + n));
    }

    /// Algorithm 2's work on this thread: `[tokens looked up, table keys
    /// compared, long-word confirmations, nbCommonWords evaluations]`.
    fn work() -> [usize; 4] {
        [
            TOKENS_LOOKED_UP.with(Cell::get),
            KEYS_COMPARED.with(Cell::get),
            LONG_CONFIRMS.with(Cell::get),
            COMMON_CALLS.with(Cell::get),
        ]
    }

    /// Algorithm 2's exact work over 100 seeded `proxy_search`-shaped
    /// requests: the seed-2017 synthetic log (60 users) warms a history,
    /// Algorithm 1 draws k = 3 fakes for each of the log's last 100
    /// queries, and the standard corpus answers the four sub-queries with
    /// 20 results each, merged. The pins move only where the lookup
    /// changes how many tokens it looks up or how many keys it compares;
    /// the `nbCommonWords` count and the results kept never move. Every
    /// token is looked up (no prefilter skips any), against the 16 keys
    /// of the fixed-width array (every table here has at most 16 words),
    /// and 6 043 long tokens shared a long table word's first 8 bytes.
    #[test]
    fn seeded_requests_pin_the_work() {
        use crate::history::QueryHistory;
        use crate::obfuscate::obfuscate;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use xsearch_engine::corpus::CorpusConfig;
        use xsearch_engine::engine::SearchEngine;
        use xsearch_query_log::synthetic::{generate, SyntheticConfig};
        use xsearch_sgx_sim::epc::EpcGauge;

        const REQUESTS: usize = 100;
        let engine = SearchEngine::build(&CorpusConfig::default());
        let log: Vec<String> = generate(&SyntheticConfig {
            num_users: 60,
            seed: 2017,
            ..Default::default()
        })
        .into_iter()
        .map(|r| r.query)
        .collect();
        let (warm, requests) = log.split_at(log.len() - REQUESTS);
        let history = QueryHistory::new(log.len(), EpcGauge::with_limit(1 << 30));
        history.push_all(warm.iter().map(String::as_str));
        let mut rng = StdRng::seed_from_u64(2017);
        let before = work();
        let (mut results, mut kept) = (0, 0);
        for query in requests {
            let obfuscated = obfuscate(query, &history, 3, &mut rng);
            let merged = engine.search_merged(&obfuscated.subqueries(), 20);
            results += merged.len();
            kept += filter_results(query, &obfuscated.fakes(), merged).len();
        }
        let after = work();
        let delta: Vec<usize> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(results, 7_484, "results fetched");
        assert_eq!(
            delta,
            [184_957, 2_959_312, 6_043, 59_872],
            "tokens looked up, keys compared, long-word confirmations, nbCommonWords"
        );
        assert_eq!(kept, 1_902, "results kept");
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

    /// A hostile engine: every token of every field is a one-byte word
    /// (the most tokens a field can hold) or a long word that shares its
    /// first 8 bytes with every long table word and fails every exact
    /// compare. The scores still equal [`result_score`]'s, and the work
    /// per field stays within the bound the module docs state, with the
    /// table within the fixed-width array (k = 3) and past it (k = 15).
    #[test]
    fn hostile_fields_stay_within_the_work_bound() {
        let long_words = ["international", "internationally", "internationalism"];
        for k in [3, 15] {
            let subs: Vec<String> = (0..=k)
                .map(|q| format!("{} w{q} v{q} {q}", long_words[q % long_words.len()]))
                .collect();
            let mut fold = String::new();
            let mut table = WordTable::default();
            table.build(&subs[0], &subs[1..], &mut fold);
            let words = table.short + table.long.len();
            assert_eq!(table.long.len(), long_words.len());
            assert_eq!(words > LANES, k == 15, "{words} table words");
            let near_misses = [
                "internatx",
                "internationa",
                "internationalx",
                "internationallyy",
            ];
            let fields = [
                near_misses.repeat(40).join(" "),
                near_misses.repeat(40).join(",").to_uppercase(),
                "a b c d e f ".repeat(60),
                format!("{}  {}", "x".repeat(63), near_misses.join("\t").repeat(9)),
            ];
            let mut seen = vec![0u64; table.width];
            for (i, field) in fields.iter().enumerate() {
                let before = work();
                table.mark(field, &mut fold, &mut seen);
                let [tokens, keys, confirms, _] = work();
                let (tokens, keys, confirms) =
                    (tokens - before[0], keys - before[1], confirms - before[2]);
                let n = field.len();
                assert!(tokens <= n.div_ceil(2), "{tokens} tokens in {n} bytes");
                assert!(keys <= n.div_ceil(2) * LANES * words.div_ceil(LANES));
                assert!(confirms <= (n / 10 + 1) * table.long.len());
                if i < 2 {
                    // Every near miss, on either path, against every long word.
                    assert_eq!(confirms, 160 * long_words.len());
                }
                for (q, sub) in subs.iter().enumerate() {
                    assert_eq!(table.common(q, &seen) as usize, nb_common_words(sub, field));
                }
            }
        }
    }

    /// Words that collide only after folding, near-misses that must not,
    /// long words that share their first 8 bytes, and enough plain ones
    /// that k = 15 passes 64 distinct table words.
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
            "hotels123",
            "hotels124",
            "Hotels123",
            "international",
            "internationally",
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
            let mut fold = String::new();
            let mut table = WordTable::default();
            table.build(&subs[0], &subs[1..], &mut fold);
            let mut seen = vec![0u64; table.width];
            for r in &results {
                for field in [&r.title, &r.description] {
                    table.mark(field, &mut fold, &mut seen);
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
        /// costs the same work: tokens looked up, keys compared, long-word
        /// confirmations and `nbCommonWords` evaluations.
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
            let mut spent = Vec::new();
            for position in 0..=k {
                let fakes: Vec<&String> = (0..=k).filter(|&q| q != position).map(|q| &subs[q]).collect();
                let before = work();
                let _ = filter_results(&subs[position], &fakes, results.clone());
                spent.push(work().iter().zip(before).map(|(a, b)| a - b).collect::<Vec<_>>());
            }
            let work = spent;
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
