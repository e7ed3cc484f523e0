//! Simulated duplex byte streams with readiness semantics.
//!
//! A real front tier sees *bytes*, not whole frames — partial reads,
//! short writes, and backpressure when the peer stops draining.
//! [`stream_pair`] models one TCP connection as two bounded byte rings.
//! Every operation is non-blocking: when it cannot make progress it
//! returns [`StreamError::WouldBlock`] and the caller is expected to wait
//! for readiness through a [`Reactor`](crate::reactor::Reactor).
//!
//! Determinism: streams never touch the wall clock or any RNG. Readiness
//! notifications fire synchronously, in operation order, from the thread
//! that made the state change — so a single-threaded driver observes a
//! fully reproducible event sequence.
//!
//! # Socket-level fault injection
//!
//! A [`SocketFault`] drawn from a
//! [`FaultPlan`](crate::fault::FaultPlan) can be installed on one
//! endpoint with [`ByteStream::sabotage`]: seeded resets, torn mid-frame
//! writes, single-byte corruption, stuck peers (write-never-read) and
//! half-open vanishing peers then play out *inside* the stream
//! operations, so the victim end — typically the front tier — observes
//! them exactly as it would from a real broken TCP peer. The clean path
//! costs one relaxed atomic load.

use crate::fault::SocketFault;
use crate::reactor::{RegInner, READABLE, WRITABLE};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Errors from non-blocking stream operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamError {
    /// The operation cannot make progress right now (nothing buffered to
    /// read, or no free space to write). Wait for readiness and retry.
    WouldBlock,
    /// The connection is closed in this direction; writes can never
    /// succeed. (Reads drain buffered bytes first, then report EOF as
    /// `Ok(0)` instead of an error.)
    Closed,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::WouldBlock => write!(f, "operation would block"),
            StreamError::Closed => write!(f, "stream closed"),
        }
    }
}

impl std::error::Error for StreamError {}

/// One direction of the duplex pair: a bounded byte ring plus the
/// registrations watching each side of it.
struct DirState {
    buf: VecDeque<u8>,
    closed: bool,
    /// Registration of the end that *reads* from this direction.
    reader: Option<Arc<RegInner>>,
    /// Registration of the end that *writes* into this direction.
    writer: Option<Arc<RegInner>>,
}

impl DirState {
    fn new() -> Self {
        DirState {
            // Capacity 0 until first use: an idle session must cost
            // bytes, not kilobytes (the conn_scaling bench gates this).
            buf: VecDeque::new(),
            closed: false,
            reader: None,
            writer: None,
        }
    }

    /// Recomputes and publishes both readiness bits for this direction.
    fn sync_readiness(&self, capacity: usize) {
        if let Some(reader) = &self.reader {
            let readable = !self.buf.is_empty() || self.closed;
            reader.update_ready(READABLE, readable);
        }
        if let Some(writer) = &self.writer {
            let writable = self.buf.len() < capacity || self.closed;
            writer.update_ready(WRITABLE, writable);
        }
    }
}

/// Live state of one endpoint's installed socket affliction.
#[derive(Default)]
struct FaultState {
    fault: Option<SocketFault>,
    /// Write calls this endpoint has issued since the fault was armed.
    writes: u64,
}

struct StreamCore {
    capacity: usize,
    /// Bytes flowing from end A to end B.
    ab: Mutex<DirState>,
    /// Bytes flowing from end B to end A.
    ba: Mutex<DirState>,
    /// Fast-path guard: true once any endpoint was sabotaged.
    any_faults: AtomicBool,
    /// Per-endpoint affliction state, indexed by [`Side::idx`].
    faults: [Mutex<FaultState>; 2],
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    A,
    B,
}

impl Side {
    fn idx(self) -> usize {
        match self {
            Side::A => 0,
            Side::B => 1,
        }
    }
}

/// What a sabotaged `write` call must do, decided under the fault lock
/// and executed after it is released (close takes both direction locks).
enum WriteAction {
    Normal,
    CorruptFirstByte(u8),
    Discard,
    TearThenClose(usize),
    ResetNow,
}

/// One end of a simulated duplex byte stream.
///
/// Created in pairs by [`stream_pair`]; dropping an end closes the
/// connection (the peer drains buffered bytes, then sees EOF).
pub struct ByteStream {
    side: Side,
    core: Arc<StreamCore>,
}

/// Creates a connected pair of byte streams, each direction buffering at
/// most `capacity` bytes before writes return
/// [`StreamError::WouldBlock`].
///
/// # Example
///
/// ```
/// use xsearch_net_sim::stream::stream_pair;
/// let (a, b) = stream_pair(8);
/// assert_eq!(a.write(b"hello").unwrap(), 5);
/// let mut buf = [0u8; 8];
/// assert_eq!(b.read(&mut buf).unwrap(), 5);
/// assert_eq!(&buf[..5], b"hello");
/// ```
#[must_use]
pub fn stream_pair(capacity: usize) -> (ByteStream, ByteStream) {
    let core = Arc::new(StreamCore {
        capacity: capacity.max(1),
        ab: Mutex::new(DirState::new()),
        ba: Mutex::new(DirState::new()),
        any_faults: AtomicBool::new(false),
        faults: [
            Mutex::new(FaultState::default()),
            Mutex::new(FaultState::default()),
        ],
    });
    (
        ByteStream {
            side: Side::A,
            core: Arc::clone(&core),
        },
        ByteStream {
            side: Side::B,
            core,
        },
    )
}

impl ByteStream {
    /// The direction this end reads from.
    fn incoming(&self) -> &Mutex<DirState> {
        match self.side {
            Side::A => &self.core.ba,
            Side::B => &self.core.ab,
        }
    }

    /// The direction this end writes into.
    fn outgoing(&self) -> &Mutex<DirState> {
        match self.side {
            Side::A => &self.core.ab,
            Side::B => &self.core.ba,
        }
    }

    /// Reads up to `out.len()` buffered bytes.
    ///
    /// Returns `Ok(0)` **only** at EOF (peer closed and the buffer is
    /// drained) or when `out` is empty.
    ///
    /// # Errors
    ///
    /// [`StreamError::WouldBlock`] when nothing is buffered and the peer
    /// is still connected.
    pub fn read(&self, out: &mut [u8]) -> Result<usize, StreamError> {
        self.read_with(out.len(), |head, tail| {
            out[..head.len()].copy_from_slice(head);
            out[head.len()..head.len() + tail.len()].copy_from_slice(tail);
        })
    }

    /// [`ByteStream::read`] onto the end of `out`: appends up to `budget`
    /// buffered bytes, so a reassembly buffer grows by what arrived, not
    /// by a zero-filled budget.
    ///
    /// # Errors
    ///
    /// As [`ByteStream::read`].
    pub fn read_into(&self, out: &mut Vec<u8>, budget: usize) -> Result<usize, StreamError> {
        self.read_with(budget, |head, tail| {
            out.extend_from_slice(head);
            out.extend_from_slice(tail);
        })
    }

    /// Takes up to `max` buffered bytes off the incoming ring and hands
    /// them to `sink` as the ring's two contiguous runs.
    fn read_with(&self, max: usize, sink: impl FnOnce(&[u8], &[u8])) -> Result<usize, StreamError> {
        if max == 0 {
            return Ok(0);
        }
        if self.core.any_faults.load(Ordering::Relaxed) {
            let state = self.core.faults[self.side.idx()]
                .lock()
                .expect("fault lock");
            if matches!(
                state.fault,
                Some(SocketFault::Stuck | SocketFault::HalfOpen)
            ) {
                // This endpoint never drains its ring again: the peer's
                // writes back up until its write-stall defenses fire.
                return Err(StreamError::WouldBlock);
            }
        }
        let mut dir = self.incoming().lock().expect("stream lock");
        if dir.buf.is_empty() {
            return if dir.closed {
                Ok(0)
            } else {
                Err(StreamError::WouldBlock)
            };
        }
        let n = dir.buf.len().min(max);
        let (head, tail) = dir.buf.as_slices();
        let from_head = n.min(head.len());
        sink(&head[..from_head], &tail[..n - from_head]);
        dir.buf.drain(..n);
        dir.sync_readiness(self.core.capacity);
        Ok(n)
    }

    /// Writes up to `data.len()` bytes, bounded by the peer buffer's free
    /// space. Returns how many bytes were accepted (possibly fewer than
    /// `data.len()` — the caller must retry the remainder on writability).
    ///
    /// # Errors
    ///
    /// [`StreamError::WouldBlock`] when the peer buffer is full;
    /// [`StreamError::Closed`] when the connection is closed.
    pub fn write(&self, data: &[u8]) -> Result<usize, StreamError> {
        if data.is_empty() {
            return Ok(0);
        }
        let action = if self.core.any_faults.load(Ordering::Relaxed) {
            self.fault_write_action()
        } else {
            WriteAction::Normal
        };
        match action {
            WriteAction::Normal => self.write_clean(data),
            WriteAction::Discard => {
                // Half-open peer: the bytes go nowhere, successfully.
                Ok(data.len())
            }
            WriteAction::CorruptFirstByte(xor) => {
                let mut copy = data.to_vec();
                copy[0] ^= xor;
                self.write_clean(&copy)
            }
            WriteAction::TearThenClose(keep) => {
                let kept = if keep > 0 {
                    self.write_clean(&data[..keep.min(data.len())]).unwrap_or(0)
                } else {
                    0
                };
                self.close();
                if kept > 0 {
                    Ok(kept)
                } else {
                    Err(StreamError::Closed)
                }
            }
            WriteAction::ResetNow => {
                self.close();
                Err(StreamError::Closed)
            }
        }
    }

    /// The un-sabotaged write path.
    fn write_clean(&self, data: &[u8]) -> Result<usize, StreamError> {
        let mut dir = self.outgoing().lock().expect("stream lock");
        if dir.closed {
            return Err(StreamError::Closed);
        }
        let free = self.core.capacity - dir.buf.len();
        if free == 0 {
            return Err(StreamError::WouldBlock);
        }
        let n = free.min(data.len());
        dir.buf.extend(&data[..n]);
        dir.sync_readiness(self.core.capacity);
        Ok(n)
    }

    /// Consults (and advances) this endpoint's affliction for one write
    /// call. Runs under the fault lock only — the chosen action is
    /// executed afterwards, since closing takes both direction locks.
    fn fault_write_action(&self) -> WriteAction {
        let mut state = self.core.faults[self.side.idx()]
            .lock()
            .expect("fault lock");
        let Some(fault) = state.fault else {
            return WriteAction::Normal;
        };
        let n = state.writes;
        state.writes += 1;
        match fault {
            SocketFault::Reset { after_writes } if n >= after_writes => WriteAction::ResetNow,
            SocketFault::Torn { after_writes, keep } if n >= after_writes => {
                WriteAction::TearThenClose(keep)
            }
            SocketFault::Corrupt { after_writes, xor } if n == after_writes => {
                WriteAction::CorruptFirstByte(xor)
            }
            SocketFault::HalfOpen => WriteAction::Discard,
            _ => WriteAction::Normal,
        }
    }

    /// Installs a seeded socket affliction on **this** endpoint — see
    /// [`SocketFault`] for the shapes. The peer end observes the effects
    /// through the normal stream API, exactly as it would from a real
    /// broken TCP peer. Installing replaces any previous affliction and
    /// restarts its write counter.
    pub fn sabotage(&self, fault: SocketFault) {
        {
            let mut state = self.core.faults[self.side.idx()]
                .lock()
                .expect("fault lock");
            state.fault = Some(fault);
            state.writes = 0;
        }
        self.core.any_faults.store(true, Ordering::Relaxed);
    }

    /// Closes the connection in both directions. Buffered bytes remain
    /// readable; once drained the peer sees EOF. Idempotent.
    ///
    /// A half-open-sabotaged endpoint cannot close: it vanished without
    /// a FIN, so the peer never observes EOF — only deadlines save it.
    pub fn close(&self) {
        if self.core.any_faults.load(Ordering::Relaxed) {
            let state = self.core.faults[self.side.idx()]
                .lock()
                .expect("fault lock");
            if matches!(state.fault, Some(SocketFault::HalfOpen)) {
                return;
            }
        }
        for dir in [&self.core.ab, &self.core.ba] {
            let mut dir = dir.lock().expect("stream lock");
            if !dir.closed {
                dir.closed = true;
                dir.sync_readiness(self.core.capacity);
            }
        }
    }

    /// True once either end has closed (or been dropped).
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.incoming().lock().expect("stream lock").closed
    }

    /// Bytes currently buffered and readable by this end.
    #[must_use]
    pub fn readable_bytes(&self) -> usize {
        self.incoming().lock().expect("stream lock").buf.len()
    }

    /// Releases ring capacity held by *empty* buffers. Idle sessions call
    /// this to fall back to their floor cost.
    pub fn shrink(&self) {
        for dir in [&self.core.ab, &self.core.ba] {
            let mut dir = dir.lock().expect("stream lock");
            if dir.buf.is_empty() {
                dir.buf = VecDeque::new();
            }
        }
    }

    /// Accounted heap footprint of the whole pair (core struct plus both
    /// ring allocations). Deterministic — this is the figure the
    /// conn_scaling bench gates, not an RSS sample.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        let ab = self.core.ab.lock().expect("stream lock").buf.capacity();
        let ba = self.core.ba.lock().expect("stream lock").buf.capacity();
        std::mem::size_of::<StreamCore>() + ab + ba
    }

    /// Installs (or clears, with `None`) the readiness registration for
    /// this end: it reads from the incoming direction and writes to the
    /// outgoing one. Current readiness is published immediately.
    pub(crate) fn set_registration(&self, reg: Option<Arc<RegInner>>) {
        {
            let mut dir = self.incoming().lock().expect("stream lock");
            dir.reader = reg.clone();
            dir.sync_readiness(self.core.capacity);
        }
        let mut dir = self.outgoing().lock().expect("stream lock");
        dir.writer = reg;
        dir.sync_readiness(self.core.capacity);
    }
}

impl Drop for ByteStream {
    fn drop(&mut self) {
        self.close();
        // Detach this end's registration so the peer's state can't keep
        // publishing readiness to a dead connection slot.
        self.set_registration(None);
    }
}

impl fmt::Debug for ByteStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ByteStream")
            .field(
                "side",
                match self.side {
                    Side::A => &"A",
                    Side::B => &"B",
                },
            )
            .field("readable", &self.readable_bytes())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_both_directions() {
        let (a, b) = stream_pair(64);
        assert_eq!(a.write(b"ping").unwrap(), 4);
        let mut buf = [0u8; 16];
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"ping");
        assert_eq!(b.write(b"pong").unwrap(), 4);
        assert_eq!(a.read(&mut buf).unwrap(), 4);
        assert_eq!(&buf[..4], b"pong");
    }

    #[test]
    fn empty_read_would_block() {
        let (a, _b) = stream_pair(64);
        let mut buf = [0u8; 4];
        assert_eq!(a.read(&mut buf), Err(StreamError::WouldBlock));
    }

    #[test]
    fn write_is_partial_when_nearly_full() {
        let (a, _b) = stream_pair(4);
        assert_eq!(a.write(b"abcdef").unwrap(), 4);
        assert_eq!(a.write(b"gh"), Err(StreamError::WouldBlock));
    }

    #[test]
    fn backpressure_releases_as_peer_drains() {
        let (a, b) = stream_pair(4);
        assert_eq!(a.write(b"abcd").unwrap(), 4);
        assert_eq!(a.write(b"e"), Err(StreamError::WouldBlock));
        let mut buf = [0u8; 2];
        assert_eq!(b.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf, b"ab");
        assert_eq!(a.write(b"ef").unwrap(), 2);
        let mut rest = [0u8; 8];
        assert_eq!(b.read(&mut rest).unwrap(), 4);
        assert_eq!(&rest[..4], b"cdef");
    }

    #[test]
    fn close_drains_then_eof() {
        let (a, b) = stream_pair(64);
        a.write(b"tail").unwrap();
        a.close();
        assert_eq!(a.write(b"x"), Err(StreamError::Closed));
        let mut buf = [0u8; 16];
        assert_eq!(b.read(&mut buf).unwrap(), 4);
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF after drain");
        assert_eq!(b.write(b"y"), Err(StreamError::Closed));
    }

    #[test]
    fn drop_closes_the_peer() {
        let (a, b) = stream_pair(64);
        a.write(b"zz").unwrap();
        drop(a);
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap(), 2);
        assert_eq!(b.read(&mut buf).unwrap(), 0);
        assert!(b.is_closed());
    }

    #[test]
    fn shrink_releases_idle_buffers() {
        let (a, b) = stream_pair(4096);
        a.write(&[0u8; 1024]).unwrap();
        let mut buf = [0u8; 2048];
        b.read(&mut buf).unwrap();
        let before = a.mem_bytes();
        a.shrink();
        let after = a.mem_bytes();
        assert!(
            after < before,
            "shrink freed ring memory: {before} -> {after}"
        );
        assert_eq!(after, std::mem::size_of::<StreamCore>());
    }

    #[test]
    fn reset_fault_closes_after_the_drawn_write() {
        let (a, b) = stream_pair(64);
        a.sabotage(SocketFault::Reset { after_writes: 2 });
        assert_eq!(a.write(b"one").unwrap(), 3);
        assert_eq!(a.write(b"two").unwrap(), 3);
        assert_eq!(a.write(b"three"), Err(StreamError::Closed));
        let mut buf = [0u8; 16];
        assert_eq!(b.read(&mut buf).unwrap(), 6, "pre-reset bytes arrive");
        assert_eq!(b.read(&mut buf).unwrap(), 0, "then EOF");
        assert_eq!(b.write(b"x"), Err(StreamError::Closed));
    }

    #[test]
    fn torn_fault_delivers_a_prefix_then_closes() {
        let (a, b) = stream_pair(64);
        a.sabotage(SocketFault::Torn {
            after_writes: 0,
            keep: 2,
        });
        assert_eq!(a.write(b"abcdef"), Ok(2), "only the torn prefix lands");
        let mut buf = [0u8; 16];
        assert_eq!(b.read(&mut buf).unwrap(), 2);
        assert_eq!(&buf[..2], b"ab");
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF mid-frame");
    }

    #[test]
    fn corrupt_fault_flips_exactly_one_byte_once() {
        let (a, b) = stream_pair(64);
        a.sabotage(SocketFault::Corrupt {
            after_writes: 1,
            xor: 0x40,
        });
        a.write(b"clean").unwrap();
        a.write(b"dirty").unwrap();
        a.write(b"clean").unwrap();
        let mut buf = [0u8; 32];
        let n = b.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"clean\x24irtyclean");
    }

    #[test]
    fn stuck_fault_never_drains_so_the_peer_backs_up() {
        let (a, b) = stream_pair(4);
        a.sabotage(SocketFault::Stuck);
        // The stuck peer can still write...
        assert_eq!(a.write(b"hi").unwrap(), 2);
        // ...but never reads, so the victim's ring fills and stays full.
        assert_eq!(b.write(b"abcd").unwrap(), 4);
        assert_eq!(b.write(b"e"), Err(StreamError::WouldBlock));
        let mut buf = [0u8; 8];
        assert_eq!(a.read(&mut buf), Err(StreamError::WouldBlock));
        assert_eq!(b.write(b"e"), Err(StreamError::WouldBlock));
    }

    #[test]
    fn half_open_fault_discards_writes_and_suppresses_eof() {
        let (a, b) = stream_pair(64);
        a.sabotage(SocketFault::HalfOpen);
        assert_eq!(a.write(b"ghost").unwrap(), 5, "writes pretend to land");
        let mut buf = [0u8; 8];
        assert_eq!(
            b.read(&mut buf),
            Err(StreamError::WouldBlock),
            "nothing actually arrived"
        );
        a.close();
        drop(a);
        // The peer never learns: no EOF, no Closed — just silence.
        assert_eq!(b.read(&mut buf), Err(StreamError::WouldBlock));
        assert!(!b.is_closed());
        assert_eq!(b.write(b"hello?").unwrap(), 6);
    }

    #[test]
    fn partial_reads_reassemble() {
        let (a, b) = stream_pair(1024);
        a.write(b"the quick brown fox").unwrap();
        let mut got = Vec::new();
        let mut one = [0u8; 1];
        while let Ok(n) = b.read(&mut one) {
            if n == 0 {
                break;
            }
            got.extend_from_slice(&one[..n]);
            if got.len() == 19 {
                break;
            }
        }
        assert_eq!(got, b"the quick brown fox");
    }

    #[test]
    fn read_into_appends_what_arrived_across_the_ring_seam() {
        let (a, b) = stream_pair(8);
        let mut got = b"kept:".to_vec();
        assert_eq!(b.read_into(&mut got, 64), Err(StreamError::WouldBlock));
        assert_eq!(b.read_into(&mut got, 0), Ok(0));
        // Fill, drain most, refill: the ring's contents now wrap.
        a.write(b"01234567").unwrap();
        let mut head = [0u8; 6];
        assert_eq!(b.read(&mut head).unwrap(), 6);
        a.write(b"89abcd").unwrap();
        // The budget caps the read; the rest stays buffered, in order.
        assert_eq!(b.read_into(&mut got, 5).unwrap(), 5);
        assert_eq!(got, b"kept:6789a");
        assert_eq!(b.readable_bytes(), 3);
        assert_eq!(b.read_into(&mut got, 64).unwrap(), 3);
        assert_eq!(got, b"kept:6789abcd");
        // Drained and the peer gone: EOF, nothing appended.
        a.close();
        assert_eq!(b.read_into(&mut got, 64), Ok(0));
        assert_eq!(got.len(), 13);
    }
}
