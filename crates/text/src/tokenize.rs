//! Tokenization: lower-cased maximal runs of alphanumeric characters.
//!
//! This is deliberately the simplest credible web-search tokenizer — the
//! AOL log contains raw user keystrokes ("new york lottery", "myspace.com")
//! and both the paper's filter and SimAttack operate on word overlap, so
//! punctuation splitting plus case folding is the right granularity.
//!
//! [`tokenize`] is the plain definition, a character at a time.
//! [`for_each_token`] visits the same tokens without allocating and is
//! what the engine's index build and query parse use: a text with no
//! upper-case ASCII and no non-ASCII byte is split a 64-byte block at a
//! time with one token bitmap per block ([`token_bits`]), and anything
//! else falls back to the exact, folding path
//! ([`for_each_folded_token`]) — a proptest pins the two against
//! [`tokenize`] with the awkward bytes on block edges. The enclave's
//! Algorithm 2 walks the same bitmaps itself, by byte offset.

/// Splits `text` into lower-cased alphanumeric tokens.
///
/// Unicode letters are kept (case-folded); everything else separates
/// tokens. Empty inputs produce an empty vector.
///
/// # Example
///
/// ```
/// use xsearch_text::tokenize::tokenize;
/// assert_eq!(tokenize("Cheap FLIGHTS, to-Paris!"), vec!["cheap", "flights", "to", "paris"]);
/// ```
#[must_use]
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            // Case folding can expand to sequences containing combining
            // marks (e.g. 'İ' → "i\u{307}"); keep only alphanumerics so
            // tokens stay within the token alphabet.
            current.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Visits the tokens of `text` — exactly the sequence [`tokenize`]
/// returns — without allocating per token.
///
/// Text with no upper-case ASCII letter and no non-ASCII byte (every
/// engine result field, almost every query) is its own folded form: its
/// tokens are the maximal runs of ASCII lower-case letters and digits,
/// lent straight from `text`. Such text is split a 64-byte block at a
/// time: one pass over the block sets a bit per token byte, and each
/// token is visited from its first set bit to the clear bit after it,
/// both found with `trailing_zeros` — a few instructions per block and
/// per token, whatever the bytes. The same pass notices an upper-case or
/// non-ASCII byte, and the rest of the text then goes down the exact
/// path, from the start of the token that block is in: it lends a run of
/// lower-case letters and digits from `text` and folds a token that needs
/// it into `scratch` (whose allocation is reused from token to token and
/// call to call) with the same rule as [`tokenize`]: lower-case each
/// character and keep only the alphanumerics of the expansion
/// (`'İ'` → `"i"`).
///
/// # Example
///
/// ```
/// use xsearch_text::tokenize::for_each_token;
/// let mut scratch = String::new();
/// let mut seen = Vec::new();
/// for_each_token("Cheap FLIGHTS, to-Paris!", &mut scratch, |t| seen.push(t.to_owned()));
/// assert_eq!(seen, ["cheap", "flights", "to", "paris"]);
/// ```
pub fn for_each_token(text: &str, scratch: &mut String, mut visit: impl FnMut(&str)) {
    // A token starts on a set bit after a clear one and ends on a clear
    // bit after a set one (the bit before the text is clear, and a
    // block's first bit follows the last bit of the block before), so a
    // block's starts and ends pair up in order, after the end of a token
    // still open from the block before. The last block is short (empty
    // when the length is a multiple of 64) and zero-padded, and a pad
    // byte is a separator, so every token ends in some block; `visit`
    // has its call sites here, where the compiler inlines it.
    let bytes = text.as_bytes();
    let mut start = 0;
    let mut carry = 0;
    let mut tail = [0; BLOCK];
    for n in 0..=bytes.len() / BLOCK {
        let base = n * BLOCK;
        let chunk = &bytes[base..bytes.len().min(base + BLOCK)];
        let block = chunk.try_into().unwrap_or_else(|_| {
            tail[..chunk.len()].copy_from_slice(chunk);
            &tail
        });
        let Some(bits) = token_bits(block) else {
            // Every byte before this block is ASCII, and the byte before
            // `from` is a separator (or there is none), so the exact path
            // picks up at a token boundary.
            let from = if carry == 1 { start } else { base };
            for_each_folded_token(&text[from..], scratch, &mut visit);
            return;
        };
        let before = bits << 1 | carry;
        let mut starts = bits & !before;
        let mut ends = !bits & before;
        if carry == 1 && ends != 0 {
            visit(&text[start..base + ends.trailing_zeros() as usize]);
            ends &= ends - 1;
        }
        while ends != 0 {
            let (from, to) = (starts.trailing_zeros(), ends.trailing_zeros());
            starts &= starts - 1;
            ends &= ends - 1;
            visit(&text[base + from as usize..base + to as usize]);
        }
        if starts != 0 {
            // A token that runs into the next block.
            start = base + starts.trailing_zeros() as usize;
        }
        carry = bits >> (BLOCK - 1);
    }
}

/// Bytes per block of the block path: one bit each in a `u64`.
pub const BLOCK: usize = 64;

/// One bit per byte of `block`, set where the byte is an ASCII lower-case
/// letter or digit; `None` if the block holds an upper-case ASCII letter
/// or a non-ASCII byte, which only the exact path folds.
///
/// The bytes are classified into a byte array, which vectorizes, and each
/// 8 of those 0/1 bytes are then packed into 8 bits by one
/// multiplication: byte `j`'s bit lands on bit `56 + j` of the product,
/// and no two partial products meet there. A fold that shifts each byte's
/// bit into the `u64` directly vectorizes worse (≈ 1.6× slower with
/// AVX-512, ≈ 10× with SSE4.2 only).
#[inline]
#[must_use]
pub fn token_bits(block: &[u8; BLOCK]) -> Option<u64> {
    const GATHER: u64 = 0x0102_0408_1020_4080;
    let mut flags = [0u8; BLOCK];
    let mut folds = 0u8;
    for (flag, &b) in flags.iter_mut().zip(block) {
        *flag = u8::from(b.is_ascii_lowercase() | b.is_ascii_digit());
        folds |= u8::from((b >= 0x80) | b.is_ascii_uppercase());
    }
    if folds != 0 {
        return None;
    }
    let bits = flags
        .chunks_exact(8)
        .enumerate()
        .fold(0, |bits, (i, eight)| {
            let eight = u64::from_le_bytes(eight.try_into().expect("8 bytes"));
            bits | (eight.wrapping_mul(GATHER) >> 56) << (8 * i)
        });
    Some(bits)
}

/// [`for_each_token`]'s exact path, for text with an upper-case or
/// non-ASCII byte: a byte at a time, folding the tokens that need it.
/// `visit` is a trait object so that the block path keeps the one inlined
/// copy of the caller's visitor. `text` must start at a token boundary
/// (its start, or just after a separator) for the tokens to be
/// [`tokenize`]'s.
pub fn for_each_folded_token(text: &str, scratch: &mut String, visit: &mut dyn FnMut(&str)) {
    let bytes = text.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() {
        let start = pos;
        while pos < bytes.len() && (bytes[pos].is_ascii_lowercase() || bytes[pos].is_ascii_digit())
        {
            pos += 1;
        }
        if pos == bytes.len() || (bytes[pos].is_ascii() && !bytes[pos].is_ascii_uppercase()) {
            // The run ended at an ASCII separator or the end of the text.
            if pos > start {
                visit(&text[start..pos]);
            }
            pos += 1;
            continue;
        }
        // An upper-case or non-ASCII character: it continues the token
        // (folded) or, not being alphanumeric, separates like any other.
        scratch.clear();
        scratch.push_str(&text[start..pos]);
        for ch in text[pos..].chars() {
            pos += ch.len_utf8();
            if !ch.is_alphanumeric() {
                break;
            }
            scratch.extend(ch.to_lowercase().filter(|c| c.is_alphanumeric()));
        }
        if !scratch.is_empty() {
            visit(scratch);
        }
    }
}

/// Tokenizes and removes stopwords in one pass.
///
/// # Example
///
/// ```
/// use xsearch_text::tokenize::content_words;
/// assert_eq!(content_words("the best of the best"), vec!["best", "best"]);
/// ```
#[must_use]
pub fn content_words(text: &str) -> Vec<String> {
    tokenize(text)
        .into_iter()
        .filter(|t| !crate::stopwords::is_stopword(t))
        .collect()
}

/// Tokenizes, removes stopwords and Porter-stems — the normalization
/// SimAttack applies before computing cosine similarity.
#[must_use]
pub fn normalized_terms(text: &str) -> Vec<String> {
    content_words(text)
        .into_iter()
        .map(|t| crate::porter::stem(&t))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("  \t ... ").is_empty());
    }

    #[test]
    fn case_folding() {
        assert_eq!(tokenize("HeLLo WoRLD"), vec!["hello", "world"]);
    }

    #[test]
    fn digits_are_tokens() {
        assert_eq!(
            tokenize("lottery 649 results"),
            vec!["lottery", "649", "results"]
        );
    }

    #[test]
    fn urls_split_into_words() {
        assert_eq!(tokenize("www.myspace.com"), vec!["www", "myspace", "com"]);
    }

    #[test]
    fn apostrophes_split() {
        assert_eq!(tokenize("o'reilly's"), vec!["o", "reilly", "s"]);
    }

    fn visited(text: &str) -> Vec<String> {
        let mut out = Vec::new();
        for_each_token(text, &mut String::new(), |t| out.push(t.to_owned()));
        out
    }

    #[test]
    fn visitor_borrows_folds_and_splits_like_tokenize() {
        let word = |n: usize| "w".repeat(n);
        let texts = [
            "",
            "  \t ... ",
            "cheap flights 649",
            "HeLLo WoRLD",
            "www.MySpace.com",
            "İstanbul straße ǅungla",
            "naïve—café…x",
            "a\u{307}b İ",
            "trailingUPPER",
        ]
        .map(str::to_owned);
        let block_edges = [
            // A token ending on the last byte of a whole block, and of
            // the text.
            word(64),
            format!("{} {}", word(63), word(64)),
            // Tokens across one and two block edges.
            format!("{} {}", word(10), word(60)),
            format!("{} {}", word(1), word(130)),
            // A separator on each side of an edge.
            format!("{} {}", word(63), word(2)),
            format!("{}\0{}", word(64), word(1)),
            // The exact path taking over mid-text: an upper-case or
            // non-ASCII byte on, just before and just after an edge.
            format!("{} {}Ab", word(60), word(2)),
            format!("{} {}É", word(62), word(1)),
            format!("{}É {}", word(64), word(3)),
            format!("{} x{}", word(100), "Ü".repeat(3)),
        ];
        for text in texts.iter().chain(&block_edges) {
            assert_eq!(visited(text), tokenize(text), "{text:?}");
        }
        assert_eq!(visited("İ"), ["i"]);
    }

    #[test]
    fn content_words_drop_stopwords() {
        assert_eq!(content_words("how to tie a tie"), vec!["tie", "tie"]);
    }

    #[test]
    fn normalized_terms_stem() {
        assert_eq!(normalized_terms("running shoes"), vec!["run", "shoe"]);
    }

    proptest! {
        #[test]
        fn tokens_are_lowercase_alphanumeric(text: String) {
            for tok in tokenize(&text) {
                prop_assert!(!tok.is_empty());
                prop_assert!(tok.chars().all(|c| c.is_alphanumeric()));
                // Case folding is a fixpoint: some uppercase letters (e.g.
                // '𝒥') have no lowercase mapping and pass through.
                prop_assert_eq!(tok.to_lowercase(), tok.clone());
            }
        }

        #[test]
        fn visitor_yields_exactly_tokenize(text: String, tail in "[a-dA-D0-2 .,İßǅ\u{307}]{0,24}") {
            // One scratch across both calls: a stale fold must not leak.
            let mut scratch = String::new();
            for t in [text.clone() + &tail, tail + &text] {
                let mut visited = Vec::new();
                for_each_token(&t, &mut scratch, |tok| visited.push(tok.to_owned()));
                prop_assert_eq!(visited, tokenize(&t));
            }
        }

        /// Mostly-ASCII text built to put token edges, separators, NULs
        /// and control bytes, upper-case letters and multi-byte
        /// characters on and beside the 8- and 64-byte block edges, in
        /// texts up to a few hundred bytes: the block path and its
        /// hand-over to the exact path visit exactly [`tokenize`]'s
        /// tokens.
        #[test]
        fn block_path_yields_exactly_tokenize(
            units in proptest::collection::vec((0usize..12, 0usize..70), 0..40),
        ) {
            let mut text = String::new();
            for (unit, n) in units {
                match unit {
                    0..=4 => text.push_str(&"abz09"[..1 + n % 5].repeat(1 + n / 5)),
                    5 => text.push_str([" ", "\0", "\x01", "\x1f", "\x7f", ",", "\t"][n % 7]),
                    // Pad with separators up to (or one short of) the next
                    // 8- or 64-byte edge.
                    6 => {
                        let edge = if n % 2 == 0 { 8 } else { 64 };
                        while !(text.len() + n % 3).is_multiple_of(edge) {
                            text.push(' ');
                        }
                    }
                    7 => text.push_str(["A", "Z", "É", "ß", "İ", "中", "😀"][n % 7]),
                    _ => text.push_str(&"q".repeat(n)),
                }
            }
            let mut scratch = String::new();
            let mut visited = Vec::new();
            for_each_token(&text, &mut scratch, |tok| visited.push(tok.to_owned()));
            prop_assert_eq!(visited, tokenize(&text));
        }

        #[test]
        fn tokenize_is_idempotent_on_joined(text: String) {
            let once = tokenize(&text);
            let rejoined = once.join(" ");
            prop_assert_eq!(tokenize(&rejoined), once);
        }
    }
}
