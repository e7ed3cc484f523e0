//! Analytics-redirection stripping.
//!
//! §4.1: results "are tampered by the proxy to remove any URL redirection
//! used for analytics". Engines wrap result URLs in click-tracking
//! redirectors (`http://tracker/click?u=<real-url>&session=...`); the
//! proxy unwraps them so the search engine cannot correlate clicks either.

use crate::wire::{ResultFields, ResultView};
use std::borrow::Cow;
use xsearch_engine::engine::SearchResult;

/// Query-string keys that commonly carry the redirection target
/// (matched case-insensitively: trackers emit `u=` and `U=` alike).
const TARGET_KEYS: &[&str] = &["u", "url", "q", "target", "dest"];

/// Path segments that mark a URL as a click-tracking redirector. A
/// target-shaped parameter alone is **not** enough to unwrap: a
/// legitimate result like `https://site.com/share?url=https%3A%2F%2F…`
/// carries a URL-valued parameter without being a redirection, and
/// rewriting it would hand the client a different page than the engine
/// ranked.
const REDIRECT_PATH_SEGMENTS: &[&str] = &[
    "click", "aclick", "clck", "redirect", "redir", "r", "rd", "go", "out", "track",
];

/// Whether `url` looks like a redirector endpoint: either its final
/// non-empty path segment (`/r?u=`, `/v2/click?u=`, `/click/?u=`) or its
/// leading host label (`out.reddit.com/?url=`) is a known redirect
/// handler name. Only the *endpoint* segment is considered — a short
/// segment inside a path is routinely a content namespace (`/r/rust?q=…`,
/// `/go/tutorial?dest=…`) whose query parameters must not be unwrapped.
fn has_redirector_path(url: &str) -> bool {
    let is_redirector = |segment: &str| {
        REDIRECT_PATH_SEGMENTS
            .iter()
            .any(|s| segment.eq_ignore_ascii_case(s))
    };
    let after_scheme = url.split_once("://").map_or(url, |(_, rest)| rest);
    let before_query = after_scheme.split('?').next().unwrap_or(after_scheme);
    let (host, path) = before_query
        .split_once('/')
        .map_or((before_query, ""), |(h, p)| (h, p));
    match path.split('/').rev().find(|segment| !segment.is_empty()) {
        // A URL with a real path is judged by its endpoint alone — a
        // content page on a redirector-labelled host (go.dev/blog/why)
        // must not be rewritten.
        Some(endpoint) => is_redirector(endpoint),
        // Path-less trackers live on a dedicated redirector subdomain:
        // out.example.com/?url=…, r.example.net/?u=….
        None => host.split('.').next().is_some_and(is_redirector),
    }
}

/// If `url` is an analytics redirector, returns the inner target URL;
/// otherwise returns the input unchanged. Unwrapping requires **both** a
/// redirector-shaped path (`/click`, `/redirect`, `/r`, …) and a
/// target-keyed parameter decoding to an http(s) URL — see
/// `REDIRECT_PATH_SEGMENTS` for why the parameter alone is not enough.
///
/// # Example
///
/// ```
/// use xsearch_core::redirect::strip_redirect;
/// let wrapped = "http://redirect.tracker.com/click?u=http%3A%2F%2Freal.com%2Fpage&session=1";
/// assert_eq!(strip_redirect(wrapped), "http://real.com/page");
/// assert_eq!(strip_redirect("http://plain.com/x"), "http://plain.com/x");
/// // A URL-valued parameter on a non-redirector page is left alone.
/// let share = "https://site.com/share?url=https%3A%2F%2Fother.com";
/// assert_eq!(strip_redirect(share), share);
/// ```
#[must_use]
pub fn strip_redirect(url: &str) -> String {
    redirect_target(url).unwrap_or_else(|| url.to_owned())
}

/// The innermost target of a redirector URL, `None` when `url` is not a
/// redirection.
fn redirect_target(url: &str) -> Option<String> {
    let (_, query) = url.split_once('?')?;
    if !has_redirector_path(url) {
        return None;
    }
    for pair in query.split('&') {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if TARGET_KEYS.iter().any(|k| key.eq_ignore_ascii_case(k)) {
            let decoded = percent_decode(value);
            if decoded.starts_with("http://") || decoded.starts_with("https://") {
                // Recurse: trackers sometimes nest.
                return Some(redirect_target(&decoded).unwrap_or(decoded));
            }
        }
    }
    None
}

/// Percent-decodes a URL query component (`+` → space, `%xx` → byte).
///
/// An escape is only an escape when **both** of the two following bytes
/// are ASCII hex digits; anything else (truncated `%4`, or `%+5` — which
/// a `u8::from_str_radix`-based parser would accept because the parser
/// tolerates a leading `+` sign) passes the `%` through literally and
/// keeps decoding from the next byte.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' if i + 3 <= bytes.len()
                && bytes[i + 1].is_ascii_hexdigit()
                && bytes[i + 2].is_ascii_hexdigit() =>
            {
                let hi = (bytes[i + 1] as char).to_digit(16).expect("checked hex");
                let lo = (bytes[i + 2] as char).to_digit(16).expect("checked hex");
                out.push((hi as u8) << 4 | lo as u8);
                i += 3;
                continue;
            }
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8(out)
        .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned())
}

/// Percent-encodes a string for use in a query component: what a
/// tracker does to the target it wraps, so only the tests need it.
#[cfg(test)]
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char);
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// A result whose URL [`strip_all`] may replace.
pub trait RewriteUrl: ResultFields {
    /// Replaces the URL with `url`.
    fn set_url(&mut self, url: String);
}

impl RewriteUrl for SearchResult {
    fn set_url(&mut self, url: String) {
        self.url = url;
    }
}

impl RewriteUrl for ResultView<'_> {
    fn set_url(&mut self, url: String) {
        self.url = Cow::Owned(url);
    }
}

/// Strips redirections from every result in place. Only a redirection's
/// target is allocated; any other URL is left as it is — in the
/// enclave, a slice of the `recv` payload.
pub fn strip_all<R: RewriteUrl>(results: &mut [R]) {
    for r in results {
        if let Some(target) = redirect_target(r.url()) {
            r.set_url(target);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xsearch_engine::document::DocId;

    #[test]
    fn plain_urls_pass_through() {
        for u in [
            "http://a.com",
            "https://b.org/path",
            "http://c.net/p?page=2",
        ] {
            assert_eq!(strip_redirect(u), u);
        }
    }

    #[test]
    fn unwraps_single_level() {
        let w = "http://t.co/r?url=https%3A%2F%2Fnews.site%2Farticle";
        assert_eq!(strip_redirect(w), "https://news.site/article");
    }

    #[test]
    fn unwraps_nested_redirects() {
        let inner = "http://final.com/x";
        let level1 = format!("http://mid.com/r?u={}", percent_encode(inner));
        let level2 = format!("http://outer.com/r?u={}", percent_encode(&level1));
        assert_eq!(strip_redirect(&level2), inner);
    }

    #[test]
    fn non_url_params_do_not_trigger() {
        let u = "http://search.com/results?q=paris+hotels";
        assert_eq!(strip_redirect(u), u, "q is a search term, not a URL");
    }

    #[test]
    fn url_valued_params_on_non_redirector_pages_pass_through() {
        // Regression: these are legitimate result URLs that *carry* a
        // URL-valued parameter; rewriting them serves the wrong page.
        for u in [
            "https://site.com/share?url=https%3A%2F%2Fother.com",
            "https://news.org/article?q=https%3A%2F%2Fquoted.example",
            "http://wiki.net/page?target=http%3A%2F%2Fcited.example&rev=7",
        ] {
            assert_eq!(strip_redirect(u), u);
        }
    }

    #[test]
    fn uppercase_target_keys_are_unwrapped() {
        // Regression: `U=` trackers used to slip through the
        // case-sensitive key match.
        let w = "http://t.co/r?U=https%3A%2F%2Fnews.site%2Farticle";
        assert_eq!(strip_redirect(w), "https://news.site/article");
        let w2 = "http://ads.example/Click?URL=http%3A%2F%2Freal.com";
        assert_eq!(strip_redirect(w2), "http://real.com");
    }

    #[test]
    fn redirector_path_is_required_even_for_u_keys() {
        let u = "https://profile.example/user?u=https%3A%2F%2Fhomepage.example";
        assert_eq!(strip_redirect(u), u);
    }

    #[test]
    fn nested_redirector_endpoints_still_match() {
        let w = "http://tracker.com/v2/click?u=http%3A%2F%2Freal.com";
        assert_eq!(strip_redirect(w), "http://real.com");
    }

    #[test]
    fn trailing_slash_and_host_label_redirectors_still_unwrap() {
        // Regressions from the endpoint gate's first draft: a handler
        // with a trailing slash, and path-less redirector subdomains.
        for (wrapped, inner) in [
            (
                "http://ads.example/click/?u=http%3A%2F%2Freal.com",
                "http://real.com",
            ),
            (
                "https://out.reddit.example/?url=https%3A%2F%2Freal.com",
                "https://real.com",
            ),
            (
                "https://r.example.net/?u=https%3A%2F%2Freal.com",
                "https://real.com",
            ),
        ] {
            assert_eq!(strip_redirect(wrapped), inner);
        }
        // A content page on a redirector-labelled host is judged by its
        // path endpoint, not the host: it must stay put.
        for u in [
            "https://go.example/blog/why?dest=https%3A%2F%2Fspec.example",
            "https://r.example.net/articles/1?u=https%3A%2F%2Fcited.example",
        ] {
            assert_eq!(strip_redirect(u), u);
        }
        // ...while an ordinary host with a root-path URL param stays put.
        let share = "https://site.example/?url=https%3A%2F%2Fother.com";
        assert_eq!(strip_redirect(share), share);
    }

    #[test]
    fn redirector_named_namespaces_are_not_endpoints() {
        // `r`/`go` as an *interior* segment is a content namespace, not
        // a redirect handler — its URL-valued parameters stay put.
        for u in [
            "https://reddit.example/r/rust?q=https%3A%2F%2Fdocs.example",
            "https://lang.example/go/tutorial?dest=https%3A%2F%2Fspec.example",
        ] {
            assert_eq!(strip_redirect(u), u);
        }
    }

    #[test]
    fn strip_all_rewrites_results() {
        let mut results = vec![SearchResult {
            doc: DocId(0),
            url: "http://redirect.tracker.com/click?u=http%3A%2F%2Freal.com&session=42".into(),
            title: String::new(),
            description: String::new(),
            score: 0.0,
        }];
        strip_all(&mut results);
        assert_eq!(results[0].url, "http://real.com");
    }

    #[test]
    fn percent_roundtrip_on_query_text() {
        for s in ["cheap flights", "c++ tutorial", "100% cotton", "a&b=c"] {
            assert_eq!(percent_decode(&percent_encode(s)), s, "{s}");
        }
    }

    #[test]
    fn signed_hex_is_not_an_escape() {
        // Regression: `u8::from_str_radix("+5", 16)` parses to 5, so a
        // lenient decoder turned `%+5` into the control byte 0x05. The
        // `%` must pass through; the `+` still decodes to a space by the
        // normal query rules.
        assert_eq!(percent_decode("%+5"), "% 5");
        assert_eq!(percent_decode("% 5"), "% 5");
        assert_eq!(percent_decode("%-5"), "%-5");
    }

    #[test]
    fn truncated_escapes_pass_through() {
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%4"), "%4");
        assert_eq!(percent_decode("abc%"), "abc%");
    }

    #[test]
    fn non_hex_escapes_pass_through() {
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%4g"), "%4g");
        // ...and decoding resumes immediately after the literal `%`:
        // the next byte may itself start a valid escape.
        assert_eq!(percent_decode("%%41"), "%A");
    }

    #[test]
    fn hex_case_is_accepted_both_ways() {
        assert_eq!(percent_decode("%2b%2B"), "++");
    }

    proptest! {
        #[test]
        fn stripping_never_panics(url in "[ -~]{0,80}") {
            let _ = strip_redirect(&url);
        }

        #[test]
        fn stripping_is_idempotent(host in "[a-z]{3,10}", path in "[a-z]{0,10}") {
            let inner = format!("http://{host}.com/{path}");
            let wrapped = format!("http://t.com/r?u={}", percent_encode(&inner));
            let once = strip_redirect(&wrapped);
            prop_assert_eq!(strip_redirect(&once), once.clone());
        }

        #[test]
        fn percent_encode_decode_roundtrip(s in "[ -~]{0,50}") {
            prop_assert_eq!(percent_decode(&percent_encode(&s)), s);
        }
    }
}
