//! Incremental length-prefixed framing over byte streams.
//!
//! The framed front tier speaks `len(u32 LE) ‖ payload` on top of
//! [`ByteStream`]s, with the payload bytes produced by the zero-copy
//! wire codec in `xsearch-core`. Both directions are incremental and
//! copy-free at the framing layer:
//!
//! * [`FrameDecoder`] reassembles frames split across arbitrary read
//!   boundaries (1-byte reads, split length prefixes, coalesced frames)
//!   and yields each payload as a **borrowed slice** into its buffer —
//!   the one unavoidable copy is stream → buffer; the payload is never
//!   copied again to be returned.
//! * [`FrameEncoder`] writes the 4-byte header and then the payload
//!   **directly from the caller's slice**, surviving partial writes, so
//!   an outbound frame is never staged in an intermediate buffer.

use crate::stream::{ByteStream, StreamError};
use std::fmt;

/// Frame header size: a little-endian `u32` payload length.
pub const HEADER_LEN: usize = 4;

/// Default ceiling on a single frame's payload, matching the proxy's
/// largest sealed response well within an order of magnitude.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Errors from the framing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The peer announced a frame larger than the configured ceiling —
    /// either corruption or an attempted memory-exhaustion attack.
    TooLarge {
        /// Announced payload length.
        len: usize,
        /// Configured ceiling.
        max: usize,
    },
    /// The connection ended mid-frame: a typed error, never a partial
    /// payload.
    Torn {
        /// Bytes of the unfinished frame that did arrive.
        buffered: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds ceiling of {max}")
            }
            FrameError::Torn { buffered } => {
                write!(f, "connection torn mid-frame ({buffered} bytes buffered)")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends `len ‖ payload` to `out` — the one-shot path for callers
/// that already own an output buffer (tests, blocking clients).
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes.
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("frame fits in u32");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Incremental frame reassembly with zero-copy payload hand-off.
///
/// A decoder that has reported [`FrameError::TooLarge`] is **poisoned**:
/// the stream position is inside a frame that will never be buffered, so
/// no later byte can be framed. Every subsequent call keeps failing the
/// same way ([`next_frame`](Self::next_frame) and
/// [`finish`](Self::finish) return the original error, reads report EOF)
/// — the connection must be closed, and the terminal state is
/// deterministic rather than dependent on what the caller does next.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily.
    start: usize,
    max_frame: usize,
    /// Set on the first `TooLarge`; makes the failure sticky.
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A decoder with the [`DEFAULT_MAX_FRAME`] payload ceiling.
    #[must_use]
    pub fn new() -> Self {
        Self::with_max_frame(DEFAULT_MAX_FRAME)
    }

    /// A decoder rejecting payloads larger than `max_frame`.
    #[must_use]
    pub fn with_max_frame(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
            poisoned: None,
        }
    }

    /// Reclaims the consumed prefix. Cheap when fully drained (the
    /// common case: `clear`); otherwise only compacts once the dead
    /// prefix dominates, keeping push cost amortized O(1).
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start * 2 > self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Feeds a chunk of stream bytes into the decoder. A poisoned
    /// decoder drops the bytes: they belong to a frame that was already
    /// rejected as oversized.
    pub fn push(&mut self, chunk: &[u8]) {
        if self.poisoned.is_some() {
            return;
        }
        self.compact();
        self.buf.extend_from_slice(chunk);
    }

    /// Reads up to `budget` bytes from `stream` straight into the
    /// decoder's buffer (no intermediate copy). Returns the byte count;
    /// `Ok(0)` means EOF.
    ///
    /// # Errors
    ///
    /// Propagates [`StreamError`] from the read (`WouldBlock` when
    /// nothing is buffered).
    pub fn read_from(&mut self, stream: &ByteStream, budget: usize) -> Result<usize, StreamError> {
        if self.poisoned.is_some() {
            // The stream is unframeable; report EOF so the caller tears
            // the connection down instead of buffering attacker bytes.
            return Ok(0);
        }
        self.compact();
        stream.read_into(&mut self.buf, budget)
    }

    /// Yields the next complete payload as a slice borrowed from the
    /// internal buffer, or `None` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`FrameError::TooLarge`] when the announced length exceeds the
    /// ceiling — the decoder is poisoned (every later call fails the
    /// same way), the connection must be torn down, and the stream can
    /// no longer be framed.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        let avail = self.buf.len() - self.start;
        if avail < HEADER_LEN {
            return Ok(None);
        }
        let header: [u8; HEADER_LEN] = self.buf[self.start..self.start + HEADER_LEN]
            .try_into()
            .expect("header length checked");
        let len = u32::from_le_bytes(header) as usize;
        if len > self.max_frame {
            let err = FrameError::TooLarge {
                len,
                max: self.max_frame,
            };
            self.poisoned = Some(err);
            // Release what was buffered: none of it will ever be framed.
            self.buf = Vec::new();
            self.start = 0;
            return Err(err);
        }
        if avail - HEADER_LEN < len {
            return Ok(None);
        }
        let begin = self.start + HEADER_LEN;
        self.start = begin + len;
        Ok(Some(&self.buf[begin..begin + len]))
    }

    /// True when a frame has started arriving but is not yet complete.
    #[must_use]
    pub fn is_mid_frame(&self) -> bool {
        self.buf.len() > self.start
    }

    /// Declares end-of-stream: returns the typed [`FrameError::Torn`]
    /// when the peer disconnected mid-frame, never a partial payload.
    ///
    /// # Errors
    ///
    /// [`FrameError::Torn`] if buffered bytes form an unfinished frame;
    /// the original [`FrameError::TooLarge`] if the decoder is poisoned.
    pub fn finish(&self) -> Result<(), FrameError> {
        if let Some(err) = self.poisoned {
            return Err(err);
        }
        let buffered = self.buf.len() - self.start;
        if buffered == 0 {
            Ok(())
        } else {
            Err(FrameError::Torn { buffered })
        }
    }

    /// Releases buffer capacity when the decoder is drained — idle
    /// sessions call this so a burst does not pin its high-water mark.
    pub fn shrink(&mut self) {
        if self.start == self.buf.len() {
            self.buf = Vec::new();
            self.start = 0;
        }
    }

    /// Accounted heap footprint of the reassembly buffer.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        self.buf.capacity()
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

/// Incremental, copy-free frame writer: survives partial writes by
/// tracking how far through `header ‖ payload` the stream has accepted.
#[derive(Debug)]
pub struct FrameEncoder {
    header: [u8; HEADER_LEN],
    sent: usize,
    total: usize,
}

impl FrameEncoder {
    /// Starts a frame for a payload of `payload_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `payload_len` exceeds `u32::MAX`.
    #[must_use]
    pub fn new(payload_len: usize) -> Self {
        let len = u32::try_from(payload_len).expect("frame fits in u32");
        FrameEncoder {
            header: len.to_le_bytes(),
            sent: 0,
            total: HEADER_LEN + payload_len,
        }
    }

    /// Pushes as much of the frame as the stream will take, writing the
    /// payload portion directly from `payload` (which must be the same
    /// slice on every call for this frame). Returns `Ok(true)` once the
    /// frame is fully written; `Ok(false)` means backpressure — retry on
    /// writability.
    ///
    /// # Errors
    ///
    /// [`StreamError::Closed`] if the connection died; `WouldBlock` is
    /// absorbed into `Ok(false)`.
    pub fn write_to(&mut self, stream: &ByteStream, payload: &[u8]) -> Result<bool, StreamError> {
        debug_assert_eq!(payload.len() + HEADER_LEN, self.total, "same payload");
        while self.sent < self.total {
            let chunk = if self.sent < HEADER_LEN {
                &self.header[self.sent..]
            } else {
                &payload[self.sent - HEADER_LEN..]
            };
            match stream.write(chunk) {
                Ok(n) => self.sent += n,
                Err(StreamError::WouldBlock) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Bytes still unwritten (header + payload remainder).
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.total - self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::stream_pair;
    use proptest::prelude::*;

    fn decode_all(decoder: &mut FrameDecoder) -> Vec<Vec<u8>> {
        let mut frames = Vec::new();
        while let Some(frame) = decoder.next_frame().expect("valid frames") {
            frames.push(frame.to_vec());
        }
        frames
    }

    #[test]
    fn single_frame_roundtrip() {
        let mut wire = Vec::new();
        encode_frame_into(b"hello", &mut wire);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(decode_all(&mut dec), vec![b"hello".to_vec()]);
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn empty_payload_is_a_frame() {
        let mut wire = Vec::new();
        encode_frame_into(b"", &mut wire);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(decode_all(&mut dec), vec![Vec::<u8>::new()]);
    }

    #[test]
    fn one_byte_reads_reassemble() {
        let mut wire = Vec::new();
        encode_frame_into(b"split across reads", &mut wire);
        let mut dec = FrameDecoder::new();
        for byte in &wire {
            dec.push(std::slice::from_ref(byte));
        }
        assert_eq!(decode_all(&mut dec), vec![b"split across reads".to_vec()]);
    }

    #[test]
    fn coalesced_frames_all_emerge() {
        let mut wire = Vec::new();
        for payload in [&b"one"[..], b"two", b"three"] {
            encode_frame_into(payload, &mut wire);
        }
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(
            decode_all(&mut dec),
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut dec = FrameDecoder::with_max_frame(8);
        dec.push(&9u32.to_le_bytes());
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::TooLarge { len: 9, max: 8 })
        );
    }

    #[test]
    fn oversized_frame_poisons_the_decoder() {
        // Regression: the decoder used to leave the rejected header in
        // the buffer, so the post-`TooLarge` state depended on what the
        // caller did next (re-polling could loop on the same error while
        // new reads kept buffering attacker bytes). The failure must be
        // terminal and sticky.
        let mut dec = FrameDecoder::with_max_frame(8);
        dec.push(&100u32.to_le_bytes());
        let err = FrameError::TooLarge { len: 100, max: 8 };
        assert_eq!(dec.next_frame(), Err(err));
        assert_eq!(dec.next_frame(), Err(err), "the next frame errors too");
        assert_eq!(dec.mem_bytes(), 0, "rejected bytes are released");

        // A perfectly valid frame pushed afterwards changes nothing.
        let mut wire = Vec::new();
        encode_frame_into(b"ok", &mut wire);
        dec.push(&wire);
        assert_eq!(dec.next_frame(), Err(err));
        assert_eq!(dec.finish(), Err(err));
        assert!(!dec.is_mid_frame());

        // Stream reads report EOF so the connection tears down instead
        // of draining the peer forever.
        let (a, b) = stream_pair(64);
        a.write(&wire).unwrap();
        assert_eq!(dec.read_from(&b, 64), Ok(0));
    }

    #[test]
    fn torn_mid_payload_is_typed() {
        let mut wire = Vec::new();
        encode_frame_into(b"abcdef", &mut wire);
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..7]); // header + 3 of 6 payload bytes
        assert_eq!(dec.next_frame(), Ok(None));
        assert!(dec.is_mid_frame());
        assert_eq!(dec.finish(), Err(FrameError::Torn { buffered: 7 }));
    }

    #[test]
    fn torn_mid_header_is_typed() {
        let mut dec = FrameDecoder::new();
        dec.push(&[3, 0]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.finish(), Err(FrameError::Torn { buffered: 2 }));
    }

    #[test]
    fn encoder_survives_tiny_peer_buffer() {
        let (a, b) = stream_pair(3);
        let payload = b"a payload well beyond three bytes";
        let mut enc = FrameEncoder::new(payload.len());
        let mut dec = FrameDecoder::new();
        loop {
            let done = enc.write_to(&a, payload).unwrap();
            while dec.read_from(&b, 64).unwrap_or(0) > 0 {}
            if done {
                break;
            }
        }
        assert_eq!(decode_all(&mut dec), vec![payload.to_vec()]);
    }

    #[test]
    fn encoder_reports_closed_peer() {
        let (a, b) = stream_pair(4);
        drop(b);
        let mut enc = FrameEncoder::new(10);
        assert_eq!(enc.write_to(&a, &[0u8; 10]), Err(StreamError::Closed));
    }

    #[test]
    fn shrink_releases_drained_buffer() {
        let mut wire = Vec::new();
        encode_frame_into(&[0u8; 4096], &mut wire);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let _ = decode_all(&mut dec);
        assert!(dec.mem_bytes() >= 4096);
        dec.shrink();
        assert_eq!(dec.mem_bytes(), 0);
    }

    proptest! {
        /// Any chunking of any frame sequence decodes byte-identically
        /// to the whole-buffer decode.
        #[test]
        fn arbitrary_chunking_matches_whole_decode(
            payloads in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..64), 0..8),
            cuts in proptest::collection::vec(1usize..16, 0..64),
        ) {
            let mut wire = Vec::new();
            for p in &payloads {
                encode_frame_into(p, &mut wire);
            }

            let mut whole = FrameDecoder::new();
            whole.push(&wire);
            let expected = decode_all(&mut whole);
            prop_assert_eq!(&expected, &payloads);

            let mut chunked = FrameDecoder::new();
            let mut got = Vec::new();
            let mut pos = 0;
            for cut in &cuts {
                let end = (pos + cut).min(wire.len());
                chunked.push(&wire[pos..end]);
                got.extend(decode_all(&mut chunked));
                pos = end;
            }
            chunked.push(&wire[pos..]);
            got.extend(decode_all(&mut chunked));
            prop_assert_eq!(got, expected);
            prop_assert!(chunked.finish().is_ok());
        }

        /// Truncating the wire anywhere inside a frame yields a typed
        /// torn error at EOF — never a partial payload.
        #[test]
        fn truncation_never_yields_partial_frames(
            payload in proptest::collection::vec(any::<u8>(), 1..128),
            frac in 0.0f64..1.0,
        ) {
            let mut wire = Vec::new();
            encode_frame_into(&payload, &mut wire);
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let cut = ((wire.len() - 1) as f64 * frac) as usize + 1; // 1..len
            let torn = &wire[..cut.min(wire.len() - 1)];

            let mut dec = FrameDecoder::new();
            dec.push(torn);
            prop_assert_eq!(dec.next_frame(), Ok(None));
            prop_assert!(matches!(dec.finish(), Err(FrameError::Torn { .. })));
        }

        /// Arbitrary hostile bytes never panic the decoder, and once any
        /// chunking of them produces `TooLarge` the decoder stays in that
        /// terminal state no matter what arrives afterwards.
        #[test]
        fn hostile_bytes_never_panic_and_toolarge_is_sticky(
            chunks in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..32), 0..16),
            max_frame in 1usize..64,
        ) {
            let mut dec = FrameDecoder::with_max_frame(max_frame);
            let mut poison: Option<FrameError> = None;
            for chunk in &chunks {
                dec.push(chunk);
                loop {
                    match dec.next_frame() {
                        Ok(Some(frame)) => {
                            prop_assert!(poison.is_none());
                            prop_assert!(frame.len() <= max_frame);
                        }
                        Ok(None) => break,
                        Err(e) => {
                            match poison {
                                None => poison = Some(e),
                                // The first error is the error forever.
                                Some(first) => prop_assert_eq!(e, first),
                            }
                            prop_assert_eq!(dec.next_frame(), Err(e));
                            break;
                        }
                    }
                }
            }
            if let Some(first) = poison {
                prop_assert_eq!(dec.finish(), Err(first));
            }
        }
    }
}
