//! Network substrate for the X-Search reproduction.
//!
//! The paper's measurements involve two kinds of network behaviour —
//! WAN latency between client, proxies and search engine (Fig 7) and
//! relay service time (Tor's Fig 5 saturation) — and the front tier
//! needs sockets to multiplex. This crate models each one:
//!
//! * [`delay`] — latency distributions (constant, log-normal) with
//!   deterministic one-way and round-trip sampling, and a busy-wait for
//!   CPU-bound service time;
//! * [`link`] — the calibrated WAN paths and a fleet's per-replica hops,
//!   each a one-way delay model whose draws are *accounted* rather than
//!   slept, so end-to-end latency experiments run in microseconds of
//!   wall time;
//! * [`stream`] — simulated duplex *byte* streams with partial
//!   reads/writes, bounded buffers and backpressure;
//! * [`reactor`] — an epoll-style readiness poller over byte streams,
//!   deterministic under the modeled clock;
//! * [`frame`] — incremental length-prefixed framing (zero-copy payload
//!   hand-off, tolerant of arbitrary read boundaries);
//! * [`fault`] — seeded, deterministic, replayable fault decisions for
//!   the link, the ecall boundary and sockets (loss, spikes, stalls, gray
//!   failures, corruption, partitions, crash schedules, and
//!   per-connection socket afflictions: resets, torn writes, stream
//!   corruption, stuck and half-open peers). The plan only decides; the
//!   caller applies it — the cluster's forward for link and ecall
//!   faults, a sabotaged stream for socket ones.

#![deny(missing_docs)]

pub mod delay;
pub mod fault;
pub mod frame;
pub mod link;
pub mod reactor;
pub mod stream;

pub use delay::DelayModel;
pub use fault::{EcallFault, FaultPlan, FaultSpec, LinkFault, SocketFault, SocketSpec};
pub use frame::{encode_frame_into, FrameDecoder, FrameEncoder, FrameError};
pub use reactor::{Event, Interest, Reactor, Registration, Token};
pub use stream::{stream_pair, ByteStream, StreamError};
