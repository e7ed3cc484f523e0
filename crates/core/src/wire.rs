//! Wire encodings: result lists for the engine hop and the encrypted
//! tunnel, query batches for the past-query window, and the framed
//! connection messages.
//!
//! A result list is length-framed: each result is
//! `len(url) ‖ len(title) ‖ len(description)`, three u32 LE lengths,
//! followed by the three fields' bytes. Nothing is escaped, so encoding
//! is three copies per result into a buffer sized exactly by
//! [`encoded_len`], and parsing is three slices. The list carries no
//! count: it ends where the bytes do, so the empty list is zero bytes and
//! an echo reply seals to a bare tag.
//!
//! The framing carries results twice per request. The host writes the
//! engine's merged documents in it once, and those bytes are what the
//! `recv` ocall returns, metered by their length. The enclave
//! parses them with [`parse_results`] into borrowed [`ResultView`]s,
//! filters the views and encodes its reply from them with the same
//! encoder; the broker's [`decode_results`] is the same parse plus one
//! copy per field. Either way a record is validated once: UTF-8 over the
//! record, then a character boundary at each of its two inner edges.
//! [`ResultFields`] is what the encoder and Algorithm 2 read from a
//! result, whichever type holds it.
//!
//! A query batch is columnar: `count ‖ len* ‖ text`, a u32 LE count, one
//! u32 LE length per query, then all the query text as one contiguous
//! region. It is the one framing every fill of the window goes through —
//! the `seed` ecall's payload, and the plaintext of a sealed history
//! segment that a restart or a failover restores. [`QueryBatch::parse`]
//! validates the text region as UTF-8 once, not entry by entry, and
//! checks that every entry edge is a character boundary; the entries are
//! then plain slices of that region.

use crate::error::XSearchError;
use std::borrow::Cow;
use xsearch_engine::document::Document;
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

/// A result borrowed from the bytes it arrived in — what the enclave
/// filters. The URL is a [`Cow`] so that the redirect strip can replace
/// a tracker-wrapped one with its owned target; every other field stays
/// a slice of the `recv` payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultView<'a> {
    /// Result URL.
    pub url: Cow<'a, str>,
    /// Result title.
    pub title: &'a str,
    /// Result snippet.
    pub description: &'a str,
}

/// A result's three text fields, borrowed: what [`encode_results_into`]
/// writes and what Algorithm 2 reads, whatever holds the result — an
/// engine [`Document`], an owned [`SearchResult`] or [`WireResult`], or
/// a [`ResultView`] of received bytes.
pub trait ResultFields {
    /// The result URL.
    fn url(&self) -> &str;
    /// The result title.
    fn title(&self) -> &str;
    /// The result snippet.
    fn description(&self) -> &str;
}

/// One [`ResultFields`] impl per result type, each a field read.
macro_rules! result_fields {
    ($($ty:ty),*) => {$(
        impl ResultFields for $ty {
            fn url(&self) -> &str {
                &self.url
            }
            fn title(&self) -> &str {
                &self.title
            }
            fn description(&self) -> &str {
                &self.description
            }
        }
    )*};
}

result_fields!(Document, SearchResult, WireResult, ResultView<'_>);

impl<T: ResultFields + ?Sized> ResultFields for &T {
    fn url(&self) -> &str {
        (**self).url()
    }
    fn title(&self) -> &str {
        (**self).title()
    }
    fn description(&self) -> &str {
        (**self).description()
    }
}

/// Bytes of a result's header: three u32 LE field lengths.
const RESULT_HEADER: usize = 12;

/// A field's length as its u32 LE header word.
fn field_len(field: &str) -> [u8; 4] {
    u32::try_from(field.len())
        .expect("a result field is under 4 GiB")
        .to_le_bytes()
}

/// Serializes results in the result framing, appending to `out`. With
/// [`encoded_len`] bytes reserved (plus tag room, for a reply sealed in
/// place) nothing grows: the host's `recv` payload and the enclave's
/// reply are each one exact allocation.
pub fn encode_results_into<R: ResultFields>(results: &[R], out: &mut Vec<u8>) {
    for r in results {
        let fields = [r.url(), r.title(), r.description()];
        for field in fields {
            out.extend_from_slice(&field_len(field));
        }
        for field in fields {
            out.extend_from_slice(field.as_bytes());
        }
    }
}

/// Serializes results in the result framing, into one buffer of exactly
/// [`encoded_len`] bytes — the host's `recv` payload.
#[must_use]
pub fn encode_results<R: ResultFields>(results: &[R]) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(results));
    encode_results_into(results, &mut out);
    out
}

/// Exact length of [`encode_results`]'s output without building it: the
/// header plus the field lengths, per result; no byte of text is read.
#[must_use]
pub fn encoded_len<R: ResultFields>(results: &[R]) -> usize {
    results
        .iter()
        .map(|r| RESULT_HEADER + r.url().len() + r.title().len() + r.description().len())
        .sum()
}

/// Serializes a query batch as `count ‖ len* ‖ text`: the u32 LE count,
/// then one u32 LE length per query, then every query's bytes back to
/// back in batch order as one text region — the payload of the proxy's
/// `seed` ecalls and the plaintext of a sealed history segment. A batch
/// of `n` queries is `4 + 4n + Σ len` bytes.
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
///
/// One pass over `queries`: the text goes straight into `out` and the
/// lengths into a table beside it, which then goes in front of the text
/// with one move of it. The table is the only other buffer (4 bytes per
/// query), and with room reserved for the whole batch `out` does not
/// grow again.
pub fn encode_query_batch_into<'a, I: IntoIterator<Item = &'a str>>(out: &mut Vec<u8>, queries: I) {
    let at = out.len();
    let mut lengths = Vec::new();
    for q in queries {
        lengths.extend_from_slice(&(q.len() as u32).to_le_bytes());
        out.extend_from_slice(q.as_bytes());
    }
    let (text_end, head) = (out.len(), 4 + lengths.len());
    out.resize(text_end + head, 0);
    out.copy_within(at..text_end, at + head);
    let count = (lengths.len() / 4) as u32;
    out[at..at + 4].copy_from_slice(&count.to_le_bytes());
    out[at + 4..at + head].copy_from_slice(&lengths);
}

/// Reads one u32 LE length (a 4-byte slice).
fn length_at(bytes: &[u8]) -> usize {
    u32::from_le_bytes(bytes.try_into().expect("4")) as usize
}

/// A validated view of an encoded query batch (see
/// [`encode_query_batch`]). [`QueryBatch::parse`] validates the whole
/// text region as UTF-8 once and checks that every entry edge falls on a
/// character boundary; the view then hands out the entries as `&str`
/// slices of that region, without validating again or collecting them —
/// a warm-up batch or a restored segment is pushed straight from the
/// bytes it arrived in.
#[derive(Debug, Clone, Copy)]
pub struct QueryBatch<'a> {
    /// The length table, 4 bytes per entry.
    lengths: &'a [u8],
    /// Every entry's text, back to back.
    text: &'a str,
}

impl<'a> QueryBatch<'a> {
    /// Validates `bytes` as a query batch: the length table must be
    /// whole, its checked sum must fit the bytes after it, that text
    /// region must be UTF-8 and every entry must start and end on a
    /// character boundary. Bytes after the text region are ignored.
    ///
    /// # Errors
    ///
    /// [`XSearchError::Protocol`] on truncation or non-UTF-8 queries.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, XSearchError> {
        let truncated = || XSearchError::Protocol("truncated query batch".into());
        let not_utf8 = || XSearchError::Protocol("query batch entry is not utf-8".into());
        let count = length_at(bytes.get(..4).ok_or_else(truncated)?);
        let table_end = count
            .checked_mul(4)
            .and_then(|table| table.checked_add(4))
            .ok_or_else(truncated)?;
        let lengths = bytes.get(4..table_end).ok_or_else(truncated)?;
        let rest = &bytes[table_end..];
        let text_len = lengths
            .chunks_exact(4)
            .try_fold(0usize, |sum, len| sum.checked_add(length_at(len)))
            .filter(|&sum| sum <= rest.len())
            .ok_or_else(truncated)?;
        let text = std::str::from_utf8(&rest[..text_len]).map_err(|_| not_utf8())?;
        let mut edge = 0;
        for len in lengths.chunks_exact(4) {
            edge += length_at(len);
            if !text.is_char_boundary(edge) {
                return Err(not_utf8());
            }
        }
        Ok(QueryBatch { lengths, text })
    }

    /// Number of queries in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lengths.len() / 4
    }

    /// Whether the batch holds no query.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lengths.is_empty()
    }

    /// The queries, in batch order.
    #[must_use]
    pub fn iter(&self) -> QueryBatchIter<'a> {
        QueryBatchIter {
            lengths: self.lengths.chunks_exact(4),
            text: self.text,
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

/// The entries of a [`QueryBatch`], oldest first: slices of its
/// validated text region.
#[derive(Debug, Clone)]
pub struct QueryBatchIter<'a> {
    lengths: std::slice::ChunksExact<'a, u8>,
    /// The text of the entries not yet handed out.
    text: &'a str,
}

impl<'a> Iterator for QueryBatchIter<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        let (query, rest) = self.text.split_at(length_at(self.lengths.next()?));
        self.text = rest;
        Some(query)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.lengths.size_hint()
    }
}

impl ExactSizeIterator for QueryBatchIter<'_> {}

/// A `count ‖ len* ‖ text` batch with the lengths as given — one the
/// encoder would never write.
#[cfg(test)]
pub(crate) fn raw_query_batch(count: u32, lengths: &[u32], text: &[u8]) -> Vec<u8> {
    let mut out = count.to_le_bytes().to_vec();
    for len in lengths {
        out.extend_from_slice(&len.to_le_bytes());
    }
    out.extend_from_slice(text);
    out
}

/// Batches [`QueryBatch::parse`] must refuse, each named by its fault.
#[cfg(test)]
pub(crate) fn refused_query_batches() -> Vec<(&'static str, Vec<u8>)> {
    let mut short_text = encode_query_batch(["alpha", "beta"]);
    short_text.pop();
    vec![
        ("truncated count", vec![1, 0]),
        ("truncated length table", raw_query_batch(3, &[1, 1], b"ab")),
        (
            "length sum past u32",
            raw_query_batch(3, &[u32::MAX, u32::MAX, 2], b"ab"),
        ),
        ("text shorter than its lengths", short_text),
        ("non-utf-8 entry", raw_query_batch(1, &[2], &[0xff, 0xfe])),
        (
            "character split across two entries",
            raw_query_batch(2, &[1, 1], "é".as_bytes()),
        ),
    ]
}

/// Splits the first record off `bytes`: its three fields and the bytes
/// after it. The record is validated once — UTF-8 over its three fields
/// together, then a character boundary at each of the two edges inside.
fn split_record(bytes: &[u8]) -> Result<([&str; 3], &[u8]), XSearchError> {
    let not_utf8 = || XSearchError::Protocol("result field is not utf-8".into());
    let (header, body) = bytes
        .split_at_checked(RESULT_HEADER)
        .ok_or_else(|| XSearchError::Protocol("truncated result header".into()))?;
    let [url, title, description] = [0, 4, 8].map(|at| length_at(&header[at..at + 4]));
    let record = url
        .checked_add(title)
        .and_then(|sum| sum.checked_add(description))
        .filter(|&record| record <= body.len())
        .ok_or_else(|| XSearchError::Protocol("result fields past the payload".into()))?;
    let (fields, tail) = body.split_at(record);
    let fields = std::str::from_utf8(fields).map_err(|_| not_utf8())?;
    let (url, fields) = fields.split_at_checked(url).ok_or_else(not_utf8)?;
    let (title, description) = fields.split_at_checked(title).ok_or_else(not_utf8)?;
    Ok(([url, title, description], tail))
}

/// The records of a result payload, each split and validated by
/// [`split_record`] and handed to `record`, in order; the first malformed
/// record fails the whole payload.
fn parse_records<'a, T>(
    bytes: &'a [u8],
    mut record: impl FnMut([&'a str; 3]) -> T,
) -> Result<Vec<T>, XSearchError> {
    let mut records = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let (fields, tail) = split_record(rest)?;
        records.push(record(fields));
        rest = tail;
    }
    Ok(records)
}

/// Parses a result list (see [`encode_results`]) into views of `bytes`:
/// records until the bytes run out, each a whole header and the three
/// whole fields it announces. Nothing is copied; the enclave filters and
/// re-encodes the views straight from its `recv` payload.
///
/// # Errors
///
/// [`XSearchError::Protocol`] when a header is cut short, the lengths
/// announce more bytes than are left (or more than `usize` holds), or a
/// field is not UTF-8 on its own — a character split across two fields
/// included.
pub fn parse_results(bytes: &[u8]) -> Result<Vec<ResultView<'_>>, XSearchError> {
    parse_records(bytes, |[url, title, description]| ResultView {
        url: Cow::Borrowed(url),
        title,
        description,
    })
}

/// Parses a result list into owned results: [`parse_results`]'s parse
/// and validation, plus one copy per field.
///
/// # Errors
///
/// As [`parse_results`].
pub fn decode_results(bytes: &[u8]) -> Result<Vec<WireResult>, XSearchError> {
    parse_records(bytes, |[url, title, description]| WireResult {
        url: url.to_owned(),
        title: title.to_owned(),
        description: description.to_owned(),
    })
}

/// One result record with the three lengths as given — one the encoder
/// would never write.
#[cfg(test)]
pub(crate) fn raw_record(lengths: [u32; 3], fields: &[u8]) -> Vec<u8> {
    let mut out: Vec<u8> = lengths.iter().flat_map(|len| len.to_le_bytes()).collect();
    out.extend_from_slice(fields);
    out
}

/// Result payloads [`parse_results`] and [`decode_results`] must refuse,
/// each named by its fault.
#[cfg(test)]
pub(crate) fn refused_result_payloads() -> Vec<(&'static str, Vec<u8>)> {
    let whole = raw_record([12, 5, 4], b"http://a.comtitledesc");
    let mut trailing = whole.clone();
    trailing.extend_from_slice(&whole[..RESULT_HEADER + 3]);
    vec![
        (
            "truncated length header",
            whole[..RESULT_HEADER - 1].to_vec(),
        ),
        (
            "a length past the payload",
            whole[..whole.len() - 1].to_vec(),
        ),
        (
            "lengths whose sum overflows",
            raw_record([u32::MAX, u32::MAX, u32::MAX], b"abc"),
        ),
        (
            "non-utf-8 field",
            raw_record([1, 2, 0], &[b'u', 0xff, 0xfe]),
        ),
        (
            "character split across two fields",
            raw_record([0, 1, 1], "é".as_bytes()),
        ),
        ("trailing partial record", trailing),
        ("header of a second record cut short", {
            let mut two = whole.clone();
            two.extend_from_slice(&[0, 0, 0]);
            two
        }),
    ]
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

    /// A result field, at even odds plain ASCII or dense in tabs,
    /// newlines, carriage returns, backslashes and multi-byte characters
    /// (the bytes a separator-based format would have to escape).
    fn field() -> impl Strategy<Value = String> {
        (0u8..2, "[ -[^-~]{0,30}", "[\t\n\r\\\\tné€😀x]{0,30}").prop_map(|(pick, plain, heavy)| {
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
        assert!(
            encode_results::<SearchResult>(&[]).is_empty(),
            "the empty list is zero bytes, so an echo reply is a bare tag"
        );
        assert!(decode_results(&[]).unwrap().is_empty());
        assert!(parse_results(&[]).unwrap().is_empty());
        assert_eq!(encoded_len::<SearchResult>(&[]), 0);
    }

    #[test]
    fn results_are_length_framed() {
        let rs = vec![result("u", "ti", ""), result("", "", "d\n")];
        let mut expected = raw_record([1, 2, 0], b"uti");
        expected.extend_from_slice(&raw_record([0, 0, 2], b"d\n"));
        assert_eq!(encode_results(&rs), expected);
    }

    #[test]
    fn malformed_records_are_refused() {
        for (fault, bytes) in refused_result_payloads() {
            assert!(
                matches!(decode_results(&bytes), Err(XSearchError::Protocol(_))),
                "{fault}"
            );
            assert!(
                matches!(parse_results(&bytes), Err(XSearchError::Protocol(_))),
                "{fault}"
            );
        }
        // The split character is valid text as a whole; only the field
        // edge inside it is wrong.
        assert!(decode_results(&raw_record([0, 2, 0], "é".as_bytes())).is_ok());
    }

    #[test]
    fn non_utf8_rejected() {
        assert!(matches!(
            decode_results(&raw_record([0, 0, 2], &[0xff, 0xfe])),
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

    #[test]
    fn query_batch_is_columnar() {
        assert_eq!(
            encode_query_batch(["ab", "", "cde"]),
            raw_query_batch(3, &[2, 0, 3], b"abcde"),
            "count, then the length table, then the text as one region"
        );
    }

    #[test]
    fn query_batch_refuses_every_malformed_batch() {
        for (fault, bytes) in refused_query_batches() {
            assert!(
                matches!(QueryBatch::parse(&bytes), Err(XSearchError::Protocol(_))),
                "{fault}"
            );
            assert_eq!(
                naive_query_batch(&bytes),
                None,
                "the oracle agrees: {fault}"
            );
        }
        // The split character is valid text as a whole; only its edge
        // is wrong.
        assert!(std::str::from_utf8("é".as_bytes()).is_ok());
    }

    #[test]
    fn query_batch_ignores_bytes_after_the_text() {
        let mut encoded = encode_query_batch(["alpha", "é"]);
        encoded.extend_from_slice(&[0xff, 7]);
        let batch = QueryBatch::parse(&encoded).unwrap();
        assert!(batch.iter().eq(["alpha", "é"]));
    }

    /// The oracle [`QueryBatch::parse`] is checked against: the count,
    /// the length table, then each entry cut from the text and validated
    /// on its own.
    fn naive_query_batch(bytes: &[u8]) -> Option<Vec<String>> {
        let word = |at: usize| -> Option<u64> {
            Some(u64::from(u32::from_le_bytes(
                bytes.get(at..at + 4)?.try_into().ok()?,
            )))
        };
        let count = word(0)?;
        if (bytes.len() as u64) < 4 + 4 * count {
            return None;
        }
        let lengths: Vec<u64> = (0..count as usize)
            .map(|i| word(4 + 4 * i))
            .collect::<Option<_>>()?;
        let mut at = 4 + 4 * count;
        let mut entries = Vec::new();
        for len in lengths {
            let raw = bytes.get(at as usize..(at + len).try_into().ok()?)?;
            entries.push(std::str::from_utf8(raw).ok()?.to_owned());
            at += len;
        }
        Some(entries)
    }

    /// Bytes that are mostly almost-batches: a small count, a length
    /// table and text made of ASCII, multi-byte characters and lone
    /// pieces of them, then one mutation (an entry edge moved by one
    /// byte, which keeps the text but can put the edge inside a
    /// character; a truncation; a patched byte; a trailing byte) — or,
    /// one time in six, arbitrary bytes.
    fn batch_bytes() -> impl Strategy<Value = Vec<u8>> {
        const UNITS: [&[u8]; 9] = [
            b"a",
            b" ",
            "é".as_bytes(),
            "€".as_bytes(),
            "😀".as_bytes(),
            &[0xc3],
            &[0xa9],
            &[0x82, 0xac],
            &[0xff],
        ];
        let entries =
            proptest::collection::vec(proptest::collection::vec(0..UNITS.len(), 0..5), 0..6);
        let arbitrary = proptest::collection::vec(any::<u8>(), 0..40);
        (entries, 0u8..6, (any::<usize>(), any::<u8>()), arbitrary).prop_map(
            |(entries, mutation, (at, byte), arbitrary)| {
                let entries: Vec<Vec<u8>> = entries
                    .iter()
                    .map(|e| e.iter().flat_map(|&i| UNITS[i]).copied().collect())
                    .collect();
                let mut lengths: Vec<u32> = entries.iter().map(|e| e.len() as u32).collect();
                if mutation == 1 && lengths.len() >= 2 {
                    let i = at % (lengths.len() - 1);
                    if lengths[i + 1] > 0 {
                        lengths[i] += 1;
                        lengths[i + 1] -= 1;
                    }
                }
                let mut bytes = raw_query_batch(lengths.len() as u32, &lengths, &entries.concat());
                match mutation {
                    0 | 1 => {}
                    2 => bytes.truncate(at % (bytes.len() + 1)),
                    3 => {
                        let at = at % bytes.len();
                        bytes[at] = byte;
                    }
                    4 => bytes.push(byte),
                    _ => return arbitrary,
                }
                bytes
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The one-validation parse against the per-entry oracle: the
        /// same accept or refuse decision, and the same entries.
        #[test]
        fn query_batch_parse_matches_the_naive_oracle(bytes in batch_bytes()) {
            let parsed = QueryBatch::parse(&bytes)
                .ok()
                .map(|batch| batch.iter().map(str::to_owned).collect::<Vec<_>>());
            prop_assert_eq!(parsed, naive_query_batch(&bytes));
        }
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

        /// Lists of 0 to 5 results whose fields are dense in tabs,
        /// newlines, backslashes and multi-byte characters, empty fields
        /// included: the arithmetic size matches the bytes, and every
        /// field comes back whole.
        #[test]
        fn encoded_len_matches_on_separator_heavy_inputs(
            fields in proptest::collection::vec(field(), 0..16),
        ) {
            let rs: Vec<SearchResult> = fields
                .chunks_exact(3)
                .map(|c| result(&c[0], &c[1], &c[2]))
                .collect();
            let encoded = encode_results(&rs);
            prop_assert_eq!(encoded_len(&rs), encoded.len());
            let decoded = decode_results(&encoded).unwrap();
            prop_assert_eq!(decoded.len(), rs.len());
            for (d, r) in decoded.iter().zip(&rs) {
                prop_assert_eq!(&d.url, &r.url);
                prop_assert_eq!(&d.title, &r.title);
                prop_assert_eq!(&d.description, &r.description);
            }
        }

        /// Any bytes — a valid list with one byte patched, cut short or
        /// extended, or arbitrary — decode to a list or to a `Protocol`
        /// error, never to a panic; and what decodes re-encodes to the
        /// same bytes, so no two payloads mean one list.
        #[test]
        fn decode_never_panics_and_is_canonical(
            fields in proptest::collection::vec(field(), 0..10),
            mutation in 0u8..5,
            at in any::<usize>(),
            byte in any::<u8>(),
            arbitrary in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            let rs: Vec<SearchResult> = fields
                .chunks_exact(3)
                .map(|c| result(&c[0], &c[1], &c[2]))
                .collect();
            let mut bytes = encode_results(&rs);
            match mutation {
                0 => {}
                1 if !bytes.is_empty() => {
                    let at = at % bytes.len();
                    bytes[at] = byte;
                }
                2 => bytes.truncate(at % (bytes.len() + 1)),
                3 => bytes.push(byte),
                _ => bytes = arbitrary,
            }
            match decode_results(&bytes) {
                Ok(decoded) => {
                    let again: Vec<SearchResult> = decoded
                        .iter()
                        .map(|d| result(&d.url, &d.title, &d.description))
                        .collect();
                    prop_assert_eq!(encode_results(&again), bytes);
                }
                Err(e) => prop_assert!(matches!(e, XSearchError::Protocol(_))),
            }
        }

        /// The borrowed parse on the same bytes: it never panics, and it
        /// accepts exactly what [`decode_results`] accepts, with the same
        /// fields — and the same error.
        #[test]
        fn parse_never_panics_and_agrees_with_decode(
            fields in proptest::collection::vec(field(), 0..10),
            mutation in 0u8..5,
            at in any::<usize>(),
            byte in any::<u8>(),
            arbitrary in proptest::collection::vec(any::<u8>(), 0..48),
        ) {
            let rs: Vec<SearchResult> = fields
                .chunks_exact(3)
                .map(|c| result(&c[0], &c[1], &c[2]))
                .collect();
            let mut bytes = encode_results(&rs);
            match mutation {
                0 => {}
                1 if !bytes.is_empty() => {
                    let at = at % bytes.len();
                    bytes[at] = byte;
                }
                2 => bytes.truncate(at % (bytes.len() + 1)),
                3 => bytes.push(byte),
                _ => bytes = arbitrary,
            }
            let parsed = parse_results(&bytes).map(|views| {
                views
                    .iter()
                    .map(|v| WireResult {
                        url: v.url.to_string(),
                        title: v.title.to_owned(),
                        description: v.description.to_owned(),
                    })
                    .collect::<Vec<_>>()
            });
            prop_assert_eq!(parsed, decode_results(&bytes));
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
