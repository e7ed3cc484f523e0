//! Tokenization: lower-cased maximal runs of alphanumeric characters.
//!
//! This is deliberately the simplest credible web-search tokenizer — the
//! AOL log contains raw user keystrokes ("new york lottery", "myspace.com")
//! and both the paper's filter and SimAttack operate on word overlap, so
//! punctuation splitting plus case folding is the right granularity.

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
/// A token made only of ASCII lower-case letters and digits is its own
/// folded form and is lent straight from `text`. Anything else (an
/// upper-case or non-ASCII character) is folded into `scratch`, whose
/// allocation is reused from token to token and call to call, with the
/// same rule as [`tokenize`]: lower-case each character and keep only the
/// alphanumerics of the expansion (`'İ'` → `"i"`).
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
        for text in [
            "",
            "  \t ... ",
            "cheap flights 649",
            "HeLLo WoRLD",
            "www.MySpace.com",
            "İstanbul straße ǅungla",
            "naïve—café…x",
            "a\u{307}b İ",
            "trailingUPPER",
        ] {
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

        #[test]
        fn tokenize_is_idempotent_on_joined(text: String) {
            let once = tokenize(&text);
            let rejoined = once.join(" ");
            prop_assert_eq!(tokenize(&rejoined), once);
        }
    }
}
