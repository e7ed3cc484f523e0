//! Wire encoding of result lists for the encrypted tunnel.
//!
//! A simple escaped line format: one result per line,
//! `url \t title \t description`. Chosen over a binary format so that a
//! captured (encrypted) payload decrypts to something a human can audit —
//! and because result text dominates the payload anyway.

use crate::error::XSearchError;
use xsearch_engine::engine::SearchResult;

/// A result as the client receives it (no engine-internal fields).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResult {
    /// Result URL (redirections already stripped by the proxy).
    pub url: String,
    /// Result title.
    pub title: String,
    /// Result snippet.
    pub description: String,
}

impl From<&SearchResult> for WireResult {
    fn from(r: &SearchResult) -> Self {
        WireResult {
            url: r.url.clone(),
            title: r.title.clone(),
            description: r.description.clone(),
        }
    }
}

/// Whether the format escapes byte `b`: the field and line separators,
/// `\r`, and the escape character itself. The writer
/// ([`encode_results_into`]) and the size accounting ([`encoded_len`])
/// both ask this one predicate, so they cannot drift apart. A comparison,
/// not a table lookup, so a pass over a field vectorizes.
const fn needs_escape(b: u8) -> bool {
    matches!(b, b'\\' | b'\t' | b'\n' | b'\r')
}

/// Bytes escaping adds to `s` (one backslash per escaped character).
/// The `recv` ocall's byte meter calls this on every merged result.
/// Counted per 255-byte chunk, whose count fits a `u8`, so the compiler
/// keeps the comparisons and the running sum in byte lanes (a `usize`
/// count is ≈ 2.7× slower).
fn escape_overhead(s: &str) -> usize {
    s.as_bytes()
        .chunks(usize::from(u8::MAX))
        .map(|chunk| {
            let escaped = chunk
                .iter()
                .fold(0u8, |n, &b| n + u8::from(needs_escape(b)));
            usize::from(escaped)
        })
        .sum()
}

/// Appends the escaped form of `s` to `out`: whole when nothing in it
/// needs escaping (almost every field), otherwise copying the runs
/// between escapes whole. Escapes only ASCII bytes, so the output remains
/// valid UTF-8.
fn escape_into(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    if escape_overhead(s) == 0 {
        out.extend_from_slice(bytes);
        return;
    }
    let mut run_start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if needs_escape(b) {
            let letter = match b {
                b'\t' => b't',
                b'\n' => b'n',
                b'\r' => b'r',
                other => other,
            };
            out.extend_from_slice(&bytes[run_start..i]);
            out.extend_from_slice(&[b'\\', letter]);
            run_start = i + 1;
        }
    }
    out.extend_from_slice(&bytes[run_start..]);
}

/// Inverts [`escape_into`]: a field without a backslash is copied whole;
/// otherwise the runs between escapes are. An unknown escape, or a
/// trailing backslash, stays as written.
fn unescape(s: &str) -> String {
    if !s.contains('\\') {
        return s.to_owned();
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        let mut after = rest[at + 1..].chars();
        match after.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
        rest = after.as_str();
    }
    out.push_str(rest);
    out
}

/// Serializes results for the tunnel, appending to `out` — the
/// zero-alloc hot path: the enclave encodes into a buffer sized by
/// [`encoded_len`] (plus tag room) and seals it in place, so a response
/// costs one exact allocation instead of a `String` per escaped field.
pub fn encode_results_into(results: &[SearchResult], out: &mut Vec<u8>) {
    for r in results {
        escape_into(&r.url, out);
        out.push(b'\t');
        escape_into(&r.title, out);
        out.push(b'\t');
        escape_into(&r.description, out);
        out.push(b'\n');
    }
}

/// Serializes results for the tunnel.
///
/// Allocating wrapper over [`encode_results_into`] (byte-identical,
/// proptest-enforced); kept for cold paths and tests.
#[must_use]
pub fn encode_results(results: &[SearchResult]) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(results));
    encode_results_into(results, &mut out);
    out
}

/// Exact length of [`encode_results`]'s output without building it —
/// the enclave uses this to account the bytes a `recv` ocall carries
/// across the boundary without serializing a payload nobody reads.
#[must_use]
pub fn encoded_len(results: &[SearchResult]) -> usize {
    results
        .iter()
        .map(|r| {
            r.url.len()
                + r.title.len()
                + r.description.len()
                + escape_overhead(&r.url)
                + escape_overhead(&r.title)
                + escape_overhead(&r.description)
                + 3 // two field tabs + newline
        })
        .sum()
}

/// Serializes a query batch as `count ‖ (len ‖ bytes)*` (u32 LE
/// prefixes) — the payload of the proxy's `seed` ecalls and the
/// plaintext of a sealed history segment.
#[must_use]
pub fn encode_query_batch<'a, I: IntoIterator<Item = &'a str>>(queries: I) -> Vec<u8> {
    let mut out = Vec::new();
    encode_query_batch_into(&mut out, queries);
    out
}

/// Appends the [`encode_query_batch`] framing of `queries` to `out` —
/// the form a caller uses when the batch is the tail of a larger buffer
/// (a sealed history segment writes its header first, then encrypts the
/// batch where it lies) or when it reuses one buffer across batches.
pub fn encode_query_batch_into<'a, I: IntoIterator<Item = &'a str>>(out: &mut Vec<u8>, queries: I) {
    let count_at = out.len();
    out.extend_from_slice(&[0; 4]);
    let mut count: u32 = 0;
    for q in queries {
        out.extend_from_slice(&(q.len() as u32).to_le_bytes());
        out.extend_from_slice(q.as_bytes());
        count += 1;
    }
    out[count_at..count_at + 4].copy_from_slice(&count.to_le_bytes());
}

/// A validated view of an encoded query batch (see
/// [`encode_query_batch`]): [`QueryBatch::parse`] checks every length
/// prefix and every entry's UTF-8 in one pass, and the view then hands
/// out the entries as `&str` borrowed from the payload, without
/// collecting them — a warm-up batch or a restored segment is pushed
/// straight from the bytes it arrived in.
#[derive(Debug, Clone, Copy)]
pub struct QueryBatch<'a> {
    /// The entries, `(len ‖ bytes)*`, count prefix stripped.
    entries: &'a [u8],
    len: usize,
}

impl<'a> QueryBatch<'a> {
    /// Validates `bytes` as a query batch. Bytes after the last entry
    /// are ignored.
    ///
    /// # Errors
    ///
    /// [`XSearchError::Protocol`] on truncation or non-UTF-8 queries.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, XSearchError> {
        let truncated = || XSearchError::Protocol("truncated query batch".into());
        let count_bytes: [u8; 4] = bytes.get(..4).ok_or_else(truncated)?.try_into().expect("4");
        let len = u32::from_le_bytes(count_bytes) as usize;
        let mut rest = &bytes[4..];
        for _ in 0..len {
            let (raw, tail) = split_entry(rest).ok_or_else(truncated)?;
            std::str::from_utf8(raw)
                .map_err(|_| XSearchError::Protocol("query batch entry is not utf-8".into()))?;
            rest = tail;
        }
        Ok(QueryBatch {
            entries: &bytes[4..bytes.len() - rest.len()],
            len,
        })
    }

    /// Number of queries in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the batch holds no query.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The queries, in batch order.
    #[must_use]
    pub fn iter(&self) -> QueryBatchIter<'a> {
        QueryBatchIter {
            rest: self.entries,
            left: self.len,
        }
    }
}

impl<'a> IntoIterator for QueryBatch<'a> {
    type Item = &'a str;
    type IntoIter = QueryBatchIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Splits one `len ‖ bytes` entry off the front of `bytes`.
fn split_entry(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().expect("4")) as usize;
    let rest = &bytes[4..];
    (rest.len() >= len).then(|| rest.split_at(len))
}

/// The entries of a [`QueryBatch`], oldest first.
#[derive(Debug, Clone)]
pub struct QueryBatchIter<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for QueryBatchIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.left = self.left.checked_sub(1)?;
        let (raw, rest) = split_entry(self.rest).expect("validated by QueryBatch::parse");
        self.rest = rest;
        Some(std::str::from_utf8(raw).expect("validated by QueryBatch::parse"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for QueryBatchIter<'_> {}

/// Parses a result list from tunnel bytes.
///
/// # Errors
///
/// [`XSearchError::Protocol`] when the payload is not UTF-8 or a line
/// does not have three fields.
pub fn decode_results(bytes: &[u8]) -> Result<Vec<WireResult>, XSearchError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| XSearchError::Protocol("result payload is not utf-8".into()))?;
    let mut results = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        let (url, title, description) =
            match (fields.next(), fields.next(), fields.next(), fields.next()) {
                (Some(u), Some(t), Some(d), None) => (u, t, d),
                _ => {
                    return Err(XSearchError::Protocol(format!(
                        "result line has wrong field count: {line:?}"
                    )))
                }
            };
        results.push(WireResult {
            url: unescape(url),
            title: unescape(title),
            description: unescape(description),
        });
    }
    Ok(results)
}

/// Echo-mode flag bit of a framed connection request: when set, the
/// enclave echoes the sealed query back instead of searching — the
/// calibration mode the overhead benches use.
const CONN_FLAG_ECHO: u8 = 0b1;

/// Outcome classes of a framed connection reply. They report *that* and
/// coarsely *why* a request failed — never secret-dependent detail
/// (mirrors [`xsearch_crypto::CryptoError`]'s policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnStatus {
    /// The request was served; the payload is the sealed response.
    Ok,
    /// The session is unknown or expired at the proxy; re-attest.
    UnknownSession,
    /// The sealed query failed to authenticate.
    Crypto,
    /// The request was structurally invalid.
    Protocol,
    /// Bounded admission shed the request — backpressure, retry later.
    Overloaded,
    /// No verified live replica could take the request (replica down,
    /// retries exhausted, deadline passed).
    Unavailable,
}

impl ConnStatus {
    fn code(self) -> u8 {
        match self {
            ConnStatus::Ok => 0,
            ConnStatus::UnknownSession => 1,
            ConnStatus::Crypto => 2,
            ConnStatus::Protocol => 3,
            ConnStatus::Overloaded => 4,
            ConnStatus::Unavailable => 5,
        }
    }

    fn from_code(code: u8) -> Result<Self, XSearchError> {
        Ok(match code {
            0 => ConnStatus::Ok,
            1 => ConnStatus::UnknownSession,
            2 => ConnStatus::Crypto,
            3 => ConnStatus::Protocol,
            4 => ConnStatus::Overloaded,
            5 => ConnStatus::Unavailable,
            other => {
                return Err(XSearchError::Protocol(format!(
                    "unknown conn status {other}"
                )))
            }
        })
    }
}

/// One parsed connection-frame request: the client's session key, its
/// borrowed query ciphertext, and whether echo mode was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnRequest<'a> {
    /// The client's ephemeral session public key.
    pub client_pub: [u8; 32],
    /// The sealed query, borrowed from the frame payload.
    pub ciphertext: &'a [u8],
    /// Echo mode (calibration) instead of a real search.
    pub echo: bool,
}

/// Serializes a framed connection request
/// (`flags ‖ client_pub ‖ ciphertext`) into `out`. The frame layer adds
/// the length prefix; this payload is what travels inside one frame.
pub fn encode_conn_request_into(
    client_pub: &[u8; 32],
    ciphertext: &[u8],
    echo: bool,
    out: &mut Vec<u8>,
) {
    out.reserve(1 + 32 + ciphertext.len());
    out.push(if echo { CONN_FLAG_ECHO } else { 0 });
    out.extend_from_slice(client_pub);
    out.extend_from_slice(ciphertext);
}

/// Parses a framed connection request, borrowing the ciphertext.
///
/// # Errors
///
/// [`XSearchError::Protocol`] on truncation or unknown flag bits.
pub fn decode_conn_request(payload: &[u8]) -> Result<ConnRequest<'_>, XSearchError> {
    if payload.len() < 1 + 32 {
        return Err(XSearchError::Protocol("truncated conn request".into()));
    }
    let flags = payload[0];
    if flags & !CONN_FLAG_ECHO != 0 {
        return Err(XSearchError::Protocol(format!(
            "unknown conn request flags {flags:#04x}"
        )));
    }
    let client_pub: [u8; 32] = payload[1..33].try_into().expect("32");
    Ok(ConnRequest {
        client_pub,
        ciphertext: &payload[33..],
        echo: flags & CONN_FLAG_ECHO != 0,
    })
}

/// Serializes a framed connection reply (`status ‖ payload`) into `out`:
/// the payload is the sealed response for [`ConnStatus::Ok`] and empty
/// (or a diagnostic string) otherwise.
pub fn encode_conn_reply_into(status: ConnStatus, payload: &[u8], out: &mut Vec<u8>) {
    out.reserve(1 + payload.len());
    out.push(status.code());
    out.extend_from_slice(payload);
}

/// Parses a framed connection reply, borrowing the payload.
///
/// # Errors
///
/// [`XSearchError::Protocol`] on an empty frame or unknown status code.
pub fn decode_conn_reply(payload: &[u8]) -> Result<(ConnStatus, &[u8]), XSearchError> {
    let (&code, rest) = payload
        .split_first()
        .ok_or_else(|| XSearchError::Protocol("empty conn reply".into()))?;
    Ok((ConnStatus::from_code(code)?, rest))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xsearch_engine::document::DocId;

    fn result(url: &str, title: &str, desc: &str) -> SearchResult {
        SearchResult {
            doc: DocId(0),
            url: url.into(),
            title: title.into(),
            description: desc.into(),
            score: 1.0,
        }
    }

    /// A result field, at even odds plain ASCII without a backslash (the
    /// codec's copy-whole paths) or dense in escaped bytes, escape
    /// letters and multi-byte characters (its run-by-run paths).
    fn field() -> impl Strategy<Value = String> {
        (0u8..2, "[ -[^-~]{0,30}", "[\t\n\r\\tné€x]{0,30}").prop_map(|(pick, plain, heavy)| {
            if pick == 0 {
                plain
            } else {
                heavy
            }
        })
    }

    #[test]
    fn roundtrip_simple() {
        let rs = vec![
            result("http://a.com", "title a", "desc a"),
            result("http://b.com", "title b", "desc b"),
        ];
        let decoded = decode_results(&encode_results(&rs)).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].url, "http://a.com");
        assert_eq!(decoded[1].title, "title b");
    }

    #[test]
    fn roundtrip_with_separator_characters() {
        let rs = vec![result("http://a.com", "tab\there", "line\nbreak \\ slash")];
        let decoded = decode_results(&encode_results(&rs)).unwrap();
        assert_eq!(decoded[0].title, "tab\there");
        assert_eq!(decoded[0].description, "line\nbreak \\ slash");
    }

    #[test]
    fn empty_list_roundtrips() {
        assert!(decode_results(&encode_results(&[])).unwrap().is_empty());
    }

    #[test]
    fn malformed_line_rejected() {
        assert!(matches!(
            decode_results(b"only-two\tfields\n"),
            Err(XSearchError::Protocol(_))
        ));
        assert!(matches!(
            decode_results(b"a\tb\tc\td\n"),
            Err(XSearchError::Protocol(_))
        ));
    }

    #[test]
    fn non_utf8_rejected() {
        assert!(matches!(
            decode_results(&[0xff, 0xfe]),
            Err(XSearchError::Protocol(_))
        ));
    }

    #[test]
    fn query_batch_roundtrips() {
        let queries = ["alpha", "beta gamma", "", "δelta"];
        let encoded = encode_query_batch(queries);
        let batch = QueryBatch::parse(&encoded).unwrap();
        assert_eq!(batch.len(), 4);
        assert!(batch.iter().eq(queries));
    }

    #[test]
    fn query_batch_rejects_truncation() {
        let mut encoded = encode_query_batch(["alpha", "beta"]);
        encoded.truncate(encoded.len() - 1);
        assert!(matches!(
            QueryBatch::parse(&encoded),
            Err(XSearchError::Protocol(_))
        ));
        assert!(matches!(
            QueryBatch::parse(&[1, 0]),
            Err(XSearchError::Protocol(_))
        ));
    }

    #[test]
    fn query_batch_rejects_non_utf8() {
        let mut encoded = 1u32.to_le_bytes().to_vec();
        encoded.extend_from_slice(&2u32.to_le_bytes());
        encoded.extend_from_slice(&[0xff, 0xfe]);
        assert!(matches!(
            QueryBatch::parse(&encoded),
            Err(XSearchError::Protocol(_))
        ));
    }

    proptest! {
        #[test]
        fn roundtrip_any_text(url in field(), title in field(), desc in field()) {
            let rs = vec![result(&url, &title, &desc)];
            let decoded = decode_results(&encode_results(&rs)).unwrap();
            prop_assert_eq!(&decoded[0].url, &url);
            prop_assert_eq!(&decoded[0].title, &title);
            prop_assert_eq!(&decoded[0].description, &desc);
        }

        #[test]
        fn encoded_len_matches_encode_results(
            url in "[ -~]{0,30}", title in ".{0,30}", desc in ".{0,30}",
        ) {
            let rs = vec![
                result(&url, &title, &desc),
                result("http://b.com", "tab\there", "line\nbreak \\ slash"),
            ];
            prop_assert_eq!(encoded_len(&rs), encode_results(&rs).len());
        }

        /// Escape-heavy inputs: every field drawn mostly from the four
        /// escaped characters, so the shared table's overhead accounting
        /// is exercised on dense, not incidental, escaping.
        #[test]
        fn encoded_len_matches_on_escape_heavy_inputs(
            fields in proptest::collection::vec("[\t\n\r\\\\x]{0,40}", 3..9),
        ) {
            let rs: Vec<SearchResult> = fields
                .chunks(3)
                .filter(|c| c.len() == 3)
                .map(|c| result(&c[0], &c[1], &c[2]))
                .collect();
            let encoded = encode_results(&rs);
            prop_assert_eq!(encoded_len(&rs), encoded.len());
            let decoded = decode_results(&encoded).unwrap();
            for (d, r) in decoded.iter().zip(&rs) {
                prop_assert_eq!(&d.url, &r.url);
                prop_assert_eq!(&d.title, &r.title);
                prop_assert_eq!(&d.description, &r.description);
            }
        }

        /// `encode_results` ≡ `encode_results_into`, including when the
        /// writer appends after existing bytes (the scratch-reuse shape).
        #[test]
        fn encode_results_into_matches_allocating(
            url in ".{0,30}", title in "[\t\n\r\\\\ -~]{0,30}", desc in ".{0,30}",
            prefix in proptest::collection::vec(any::<u8>(), 0..24),
        ) {
            let rs = vec![result(&url, &title, &desc), result("u", "t", "d")];
            let mut out = prefix.clone();
            encode_results_into(&rs, &mut out);
            prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
            prop_assert_eq!(&out[prefix.len()..], &encode_results(&rs)[..]);
        }

        #[test]
        fn query_batch_roundtrips_any_text(queries in proptest::collection::vec(".{0,20}", 0..8)) {
            let encoded = encode_query_batch(queries.iter().map(String::as_str));
            let decoded: Vec<&str> = QueryBatch::parse(&encoded).unwrap().iter().collect();
            prop_assert_eq!(decoded, queries);
        }

        #[test]
        fn conn_request_roundtrips(
            ciphertext in proptest::collection::vec(any::<u8>(), 0..96),
            key_byte: u8,
            echo: bool
        ) {
            let client_pub = [key_byte; 32];
            let mut frame = Vec::new();
            encode_conn_request_into(&client_pub, &ciphertext, echo, &mut frame);
            let req = decode_conn_request(&frame).unwrap();
            prop_assert_eq!(req.client_pub, client_pub);
            prop_assert_eq!(req.ciphertext, &ciphertext[..]);
            prop_assert_eq!(req.echo, echo);
        }

        #[test]
        fn conn_reply_roundtrips(payload in proptest::collection::vec(any::<u8>(), 0..96)) {
            for status in [
                ConnStatus::Ok,
                ConnStatus::UnknownSession,
                ConnStatus::Crypto,
                ConnStatus::Protocol,
                ConnStatus::Overloaded,
                ConnStatus::Unavailable,
            ] {
                let mut frame = Vec::new();
                encode_conn_reply_into(status, &payload, &mut frame);
                let (got_status, got_payload) = decode_conn_reply(&frame).unwrap();
                prop_assert_eq!(got_status, status);
                prop_assert_eq!(got_payload, &payload[..]);
            }
        }
    }

    #[test]
    fn conn_request_rejects_truncation_and_unknown_flags() {
        assert!(decode_conn_request(&[0u8; 16]).is_err());
        let mut frame = Vec::new();
        encode_conn_request_into(&[7u8; 32], b"ct", false, &mut frame);
        frame[0] = 0x80;
        assert!(decode_conn_request(&frame).is_err());
    }

    #[test]
    fn conn_reply_rejects_empty_and_unknown_status() {
        assert!(decode_conn_reply(&[]).is_err());
        assert!(decode_conn_reply(&[200, 1, 2]).is_err());
    }
}
