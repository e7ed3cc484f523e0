//! An epoll-style readiness reactor for simulated byte streams.
//!
//! The front tier multiplexes hundreds of thousands of mostly-idle
//! sessions onto whichever threads step it: each connection registers its
//! [`ByteStream`] with a token and an interest set, and
//! [`Reactor::poll`] reports which registered streams are ready. The
//! model is **level-triggered**: a stream that stays readable keeps
//! being reported until the condition clears, so a handler that reads
//! less than everything is woken again on the next poll.
//!
//! Determinism: the reactor holds no clock and no RNG. Readiness events
//! enter a FIFO queue in the order the state changes happened, and
//! [`Reactor::poll`] drains that queue in order — a single-threaded
//! driver (stream ops and polls interleaved on one thread) produces an
//! exactly reproducible event sequence, which is what keeps the chaos
//! replay gate byte-identical over the framed front.

use crate::stream::ByteStream;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, Weak};

/// Readable readiness / interest bit.
pub(crate) const READABLE: u8 = 0b01;
/// Writable readiness / interest bit.
pub(crate) const WRITABLE: u8 = 0b10;

/// A caller-chosen identifier for one registration, echoed back in
/// every [`Event`] — typically an index into a connection slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Which readiness kinds a registration wants to be woken for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest(u8);

impl Interest {
    /// Wake when the stream has bytes to read (or has hit EOF).
    pub const READABLE: Interest = Interest(READABLE);
    /// Wake when the stream can accept more bytes (or is closed, so the
    /// write error can be observed promptly).
    pub const WRITABLE: Interest = Interest(WRITABLE);
    /// No wakeups — parks the registration without tearing it down
    /// ([`Reactor::deregister`] parks before it detaches).
    pub const NONE: Interest = Interest(0);

    /// Combines two interest sets.
    #[must_use]
    pub fn and(self, other: Interest) -> Interest {
        Interest(self.0 | other.0)
    }
}

/// One readiness report from [`Reactor::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the stream was registered with.
    pub token: Token,
    /// The stream has buffered bytes (or EOF) to read.
    pub readable: bool,
    /// The stream can accept writes (or is closed).
    pub writable: bool,
}

/// Shared state between a registration and its reactor's ready queue.
#[derive(Debug)]
pub(crate) struct RegInner {
    token: u64,
    interest: AtomicU8,
    ready: AtomicU8,
    queued: AtomicBool,
    queue: Weak<ReadyQueue>,
}

impl RegInner {
    /// Sets or clears one readiness bit, enqueueing a wakeup when a bit
    /// of current interest turns on. Called by the stream under its
    /// direction lock; only atomics and the (separate) queue lock are
    /// touched here, so lock order is always stream → queue.
    pub(crate) fn update_ready(self: &Arc<Self>, bit: u8, on: bool) {
        if on {
            self.ready.fetch_or(bit, Ordering::Release);
            if self.interest.load(Ordering::Acquire) & bit != 0 {
                self.enqueue();
            }
        } else {
            self.ready.fetch_and(!bit, Ordering::Release);
        }
    }

    fn enqueue(self: &Arc<Self>) {
        if self.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        if let Some(queue) = self.queue.upgrade() {
            queue
                .lock()
                .expect("reactor lock")
                .push_back(Arc::clone(self));
        } else {
            self.queued.store(false, Ordering::Release);
        }
    }
}

/// Registrations with readiness to report, in the order it arose.
type ReadyQueue = Mutex<VecDeque<Arc<RegInner>>>;

/// A live registration handle returned by [`Reactor::register`].
///
/// The connection owner keeps this alongside its stream; dropping it
/// does **not** deregister — call [`Reactor::deregister`] so the stream
/// stops publishing readiness into a dead slot.
#[derive(Debug)]
pub struct Registration {
    inner: Arc<RegInner>,
}

impl Registration {
    /// Replaces the interest set. Newly-interesting readiness that is
    /// already pending is reported on the next poll (level-triggered).
    pub fn set_interest(&self, interest: Interest) {
        self.inner.interest.store(interest.0, Ordering::Release);
        if self.inner.ready.load(Ordering::Acquire) & interest.0 != 0 {
            self.inner.enqueue();
        }
    }

    /// Accounted heap footprint of this registration.
    #[must_use]
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<RegInner>()
    }
}

/// An epoll-style readiness poller over [`ByteStream`]s.
pub struct Reactor {
    queue: Arc<ReadyQueue>,
}

impl Default for Reactor {
    fn default() -> Self {
        Self::new()
    }
}

impl Reactor {
    /// Creates an empty reactor.
    #[must_use]
    pub fn new() -> Self {
        Reactor {
            queue: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    /// Registers a stream end. Readiness already present (buffered
    /// bytes, EOF, free write space) is reported on the first poll.
    #[must_use]
    pub fn register(&self, stream: &ByteStream, token: Token, interest: Interest) -> Registration {
        let inner = Arc::new(RegInner {
            token: token.0,
            interest: AtomicU8::new(interest.0),
            ready: AtomicU8::new(0),
            queued: AtomicBool::new(false),
            queue: Arc::downgrade(&self.queue),
        });
        stream.set_registration(Some(Arc::clone(&inner)));
        Registration { inner }
    }

    /// Detaches a registration from its stream. Stale queue entries are
    /// skipped lazily by later polls.
    pub fn deregister(&self, stream: &ByteStream, reg: &Registration) {
        reg.set_interest(Interest::NONE);
        stream.set_registration(None);
    }

    /// Drains currently-pending readiness into `events` (cleared first)
    /// without blocking. Returns the number of events delivered.
    ///
    /// Level-triggered: a registration whose readiness still intersects
    /// its interest after being reported is re-queued for the next poll.
    /// Each registration is examined at most once per call, so a handler
    /// that never drains its stream cannot livelock a single poll.
    pub fn poll(&self, events: &mut Vec<Event>) -> usize {
        events.clear();
        let budget = self.queue.lock().expect("reactor lock").len();
        for _ in 0..budget {
            let Some(reg) = self.queue.lock().expect("reactor lock").pop_front() else {
                break;
            };
            reg.queued.store(false, Ordering::Release);
            let interest = reg.interest.load(Ordering::Acquire);
            let ready = reg.ready.load(Ordering::Acquire) & interest;
            if ready == 0 {
                continue; // stale: interest dropped or condition cleared
            }
            events.push(Event {
                token: Token(reg.token),
                readable: ready & READABLE != 0,
                writable: ready & WRITABLE != 0,
            });
            // Level-triggered re-arm: if the handler leaves the
            // condition standing, the next poll reports it again.
            reg.enqueue();
        }
        events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::stream_pair;

    fn poll_tokens(reactor: &Reactor) -> Vec<(Token, bool, bool)> {
        let mut events = Vec::new();
        reactor.poll(&mut events);
        events
            .iter()
            .map(|e| (e.token, e.readable, e.writable))
            .collect()
    }

    #[test]
    fn fresh_stream_is_writable_not_readable() {
        let reactor = Reactor::new();
        let (a, _b) = stream_pair(64);
        let _reg = reactor.register(&a, Token(7), Interest::READABLE.and(Interest::WRITABLE));
        assert_eq!(poll_tokens(&reactor), vec![(Token(7), false, true)]);
    }

    #[test]
    fn write_wakes_reader() {
        let reactor = Reactor::new();
        let (a, b) = stream_pair(64);
        let _reg = reactor.register(&b, Token(1), Interest::READABLE);
        let mut events = Vec::new();
        assert_eq!(reactor.poll(&mut events), 0);
        a.write(b"hi").unwrap();
        assert_eq!(poll_tokens(&reactor), vec![(Token(1), true, false)]);
    }

    #[test]
    fn level_triggered_until_drained() {
        let reactor = Reactor::new();
        let (a, b) = stream_pair(64);
        let _reg = reactor.register(&b, Token(2), Interest::READABLE);
        a.write(b"abcd").unwrap();
        // Not draining: reported again on every poll.
        assert_eq!(poll_tokens(&reactor).len(), 1);
        assert_eq!(poll_tokens(&reactor).len(), 1);
        let mut buf = [0u8; 16];
        b.read(&mut buf).unwrap();
        assert_eq!(poll_tokens(&reactor).len(), 0);
    }

    #[test]
    fn interest_none_parks_the_connection() {
        let reactor = Reactor::new();
        let (a, b) = stream_pair(64);
        let reg = reactor.register(&b, Token(3), Interest::READABLE);
        reg.set_interest(Interest::NONE);
        a.write(b"backpressure").unwrap();
        assert_eq!(poll_tokens(&reactor).len(), 0, "parked: no wakeups");
        // Re-arming reports the still-pending readiness (level semantics).
        reg.set_interest(Interest::READABLE);
        assert_eq!(poll_tokens(&reactor), vec![(Token(3), true, false)]);
    }

    #[test]
    fn full_peer_buffer_clears_writable_until_drained() {
        let reactor = Reactor::new();
        let (a, b) = stream_pair(4);
        let _reg = reactor.register(&a, Token(4), Interest::WRITABLE);
        a.write(b"abcd").unwrap();
        assert_eq!(poll_tokens(&reactor).len(), 0, "peer full: not writable");
        let mut buf = [0u8; 2];
        b.read(&mut buf).unwrap();
        assert_eq!(poll_tokens(&reactor), vec![(Token(4), false, true)]);
    }

    #[test]
    fn eof_is_readable() {
        let reactor = Reactor::new();
        let (a, b) = stream_pair(64);
        let _reg = reactor.register(&b, Token(5), Interest::READABLE);
        drop(a);
        assert_eq!(poll_tokens(&reactor), vec![(Token(5), true, false)]);
        let mut buf = [0u8; 4];
        assert_eq!(b.read(&mut buf).unwrap(), 0, "EOF");
    }

    #[test]
    fn deregister_stops_wakeups() {
        let reactor = Reactor::new();
        let (a, b) = stream_pair(64);
        let reg = reactor.register(&b, Token(6), Interest::READABLE);
        reactor.deregister(&b, &reg);
        a.write(b"late").unwrap();
        assert_eq!(poll_tokens(&reactor).len(), 0);
    }

    #[test]
    fn events_arrive_in_operation_order() {
        let reactor = Reactor::new();
        let streams: Vec<_> = (0..8).map(|_| stream_pair(64)).collect();
        let _regs: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, (_, b))| reactor.register(b, Token(i as u64), Interest::READABLE))
            .collect();
        // Writes in reverse token order arrive in reverse token order.
        for (i, (a, _)) in streams.iter().enumerate().rev() {
            a.write(&[i as u8]).unwrap();
        }
        let tokens: Vec<u64> = poll_tokens(&reactor).iter().map(|(t, _, _)| t.0).collect();
        assert_eq!(tokens, vec![7, 6, 5, 4, 3, 2, 1, 0]);
    }
}
