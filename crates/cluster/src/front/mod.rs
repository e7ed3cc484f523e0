//! The event-driven front tier: framed, non-blocking client sessions
//! multiplexed onto the fleet by one reactor shard that whoever waits on
//! a reply steps.
//!
//! The thread-per-request harnesses drive one synchronous
//! [`crate::client::ClusterClient`] per OS thread — fine for a dozen
//! clients, hopeless for the paper's "many thousands of users per
//! proxy" regime. This module is the C10K-style rewrite of the
//! untrusted front: every client session is a **per-connection state
//! machine** driven by readiness events from a
//! [`xsearch_net_sim::Reactor`], so one shard carries tens of thousands
//! of mostly-idle sessions. A request crosses the enclave boundary
//! through the same door as the synchronous path: the step that decodes
//! its frame calls [`Cluster::forward`] — one `request` ecall — and
//! queues the reply on the connection before it pumps the next one.
//!
//! # Driving
//!
//! One rule: **whoever waits on a framed reply steps the front.** [`FrontTier::step`] is the only driver and
//! may be called from any thread; it locks the shard, adopts the
//! connections [`FrontTier::accept`] left in the mailbox, and runs one
//! iteration. [`FramedClient::search`] steps while it waits, so the
//! concurrency is that of the callers' threads. A single thread
//! stepping with the same inputs replays byte-identically (the
//! determinism the replay gates use).
//!
//! # Layout
//!
//! Split by what each part may know: `survival` (the policy, pure
//! functions over integers, `std` only) ← `conn` (one connection's state
//! machine) ← `shard` (slab, reactor, sweeps) ← this file ([`FrontTier`]
//! and its instruments); `client` is the other end of the wire.
//! `docs/ARCHITECTURE.md` has the import rules.
//!
//! # Backpressure
//!
//! The tiers compose into one end-to-end backpressure chain:
//!
//! * while a connection's reply is flushing its interest is
//!   [`xsearch_net_sim::Interest::WRITABLE`] only — the front stops
//!   *reading from the socket*, so a flooding client fills its own send
//!   ring and blocks in its own write loop (TCP-style), not in
//!   front-tier memory;
//! * when the target replica's bounded admission queue is full,
//!   [`Cluster::forward`] sheds with
//!   [`crate::ClusterError::Overloaded`] and the front answers
//!   immediately with a framed
//!   [`Overloaded`](xsearch_core::wire::ConnStatus::Overloaded) error
//!   instead of queueing.
//!
//! # Memory discipline
//!
//! An idle session must cost a bounded, *accounted* number of bytes:
//! ring buffers and reassembly buffers are allocated lazily and shrunk
//! on return to `Idle`, and [`FrontTier::account_idle`] sweeps the
//! exact figure the `conn_scaling` bench gates against
//! [`IDLE_SESSION_BYTE_BUDGET`].
//!
//! # Survival
//!
//! The front is the first thing a hostile client touches. Under
//! [`SurvivalConfig::hardened`] every connection lives under limits on
//! the shard's logical tick clock: handshake/read-stall/write-stall/idle
//! deadlines, an anti-slowloris minimum-progress rate, lifetime
//! frame/byte quotas, and a protocol-error strike counter that
//! **quarantines the channel key** (across connections) once it crosses
//! the limit. The policy is on or off as a whole; off (the default), the
//! front still counts strikes but enforces nothing. A frame only
//! *claims* its channel key, which is visible on the wire: the front
//! routes by it and checks it for a ban, but strikes it and closes its
//! session only once a request under it was answered `Ok` on this
//! connection — the AEAD opened inside the enclave, so the peer owns it.
//! Above the per-shard connection high-water mark the shard sheds by class —
//! misbehaving first, then unattested, then oldest-idle established —
//! so an attack population pays before well-behaved sessions do. When a
//! connection dies for any reason, the front best-effort closes the
//! enclave session behind the channel key it proved
//! ([`Cluster::close_session`]); sessions no connection ever proved fall
//! to the fleet's TTL reaper ([`Cluster::reap_sessions`]).
//!
//! # Telemetry
//!
//! Every event the front counts is an [`xsearch_telemetry::Counter`]
//! registered once on the cluster's registry (`xsearch_front_*`) — the
//! only stats surface. Per-state connection counts stay plain atomics:
//! [`FrontTier::connections`] and [`FrontTier::state_count`] are
//! behaviour callers branch on, not telemetry.
//!
//! # Trust model
//!
//! Unchanged: the front only ever sees the framing header, an opaque
//! routing key (the session's channel public key) and sealed
//! ciphertext. Privacy still rests on attestation + end-to-end AEAD.

mod client;
mod conn;
mod shard;
mod survival;

pub use client::FramedClient;
pub use survival::{ConnClass, ConnState, SurvivalConfig};

use crate::fleet::Cluster;
use shard::Shard;
use std::mem;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use xsearch_net_sim::{stream_pair, ByteStream};
use xsearch_telemetry::{Counter, LabelValue, Registry};

/// Accounted heap bytes one idle framed session may pin on the front
/// tier (connection slab slot + stream core + shrunk buffers +
/// registration). The `conn_scaling` bench and the CI smoke gate the
/// measured figure against this.
pub const IDLE_SESSION_BYTE_BUDGET: usize = 1024;

/// Per-direction ring capacity of each accepted connection.
const STREAM_CAPACITY: usize = 4096;

/// Tuning for the front tier.
#[derive(Debug, Clone, Default)]
pub struct FrontConfig {
    /// The connection-lifecycle defenses (off by default).
    pub survival: SurvivalConfig,
}

/// The front tier's instruments. Event counts are registry [`Counter`]s
/// (`xsearch_front_*`), registered once by [`FrontStats::register`]; the
/// per-state connection counts and the last idle sweep are plain atomics
/// the tier itself reads, exported through poll gauges.
#[derive(Debug)]
struct FrontStats {
    states: [AtomicUsize; ConnState::COUNT],
    /// Last [`FrontTier::account_idle`] sweep.
    idle_sessions: AtomicUsize,
    idle_bytes: AtomicUsize,
    frames_in: Counter,
    frames_out: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    overloaded: Counter,
    protocol_errors: Counter,
    torn: Counter,
    /// One per `TimeoutKind`, indexed by discriminant.
    timeouts: [Counter; 5],
    quota_closed: Counter,
    strikes: Counter,
    quarantined_keys: Counter,
    quarantine_rejects: Counter,
    /// One per [`ConnClass`], indexed by discriminant.
    sheds: [Counter; 3],
    sessions_closed: Counter,
}

impl FrontStats {
    /// Registers every front instrument on `telemetry`.
    fn register(telemetry: &Registry) -> Arc<Self> {
        let plain = |name, help| telemetry.counter(name, help, &[]);
        let labelled = |name, help, key, value| {
            telemetry.counter(name, help, &[(key, LabelValue::Static(value))])
        };
        let [frames_in, frames_out] = ["in", "out"].map(|dir| {
            let help = "Frames crossing the front tier";
            labelled("xsearch_front_frames_total", help, "direction", dir)
        });
        let [bytes_in, bytes_out] = ["in", "out"].map(|dir| {
            let help = "Payload bytes crossing the front tier";
            labelled("xsearch_front_bytes_total", help, "direction", dir)
        });
        // Label arrays follow the declaration order of `TimeoutKind` and
        // `ConnClass`: the counters are indexed by discriminant.
        let timeouts = [
            "handshake",
            "read_stall",
            "write_stall",
            "idle",
            "slowloris",
        ]
        .map(|kind| {
            let help = "Connections reaped by a lifecycle deadline, by kind";
            labelled("xsearch_front_timeouts_total", help, "kind", kind)
        });
        let sheds = ["unattested", "established", "misbehaving"].map(|class| {
            let help = "Connections shed over the high-water mark, by class";
            labelled("xsearch_front_sheds_total", help, "class", class)
        });
        let stats = Arc::new(FrontStats {
            states: Default::default(),
            idle_sessions: AtomicUsize::new(0),
            idle_bytes: AtomicUsize::new(0),
            frames_in,
            frames_out,
            bytes_in,
            bytes_out,
            overloaded: plain(
                "xsearch_front_overloaded_replies",
                "Framed Overloaded errors returned (admission backpressure)",
            ),
            protocol_errors: plain(
                "xsearch_front_protocol_errors",
                "Malformed or unframeable inputs answered with a Protocol error",
            ),
            torn: plain(
                "xsearch_front_torn_connections",
                "Connections whose peer vanished mid-frame",
            ),
            timeouts,
            quota_closed: plain(
                "xsearch_front_quota_closes",
                "Connections closed for exceeding a frame or byte quota",
            ),
            strikes: plain(
                "xsearch_front_strikes_total",
                "Protocol-error strikes recorded against channel keys",
            ),
            quarantined_keys: plain(
                "xsearch_front_quarantined_keys_total",
                "Channel keys moved into quarantine",
            ),
            quarantine_rejects: plain(
                "xsearch_front_quarantine_rejects",
                "Requests refused because their channel key was quarantined",
            ),
            sheds,
            sessions_closed: plain(
                "xsearch_front_sessions_closed",
                "Enclave sessions closed because their connection went away",
            ),
        });
        for (name, state) in [
            ("idle", ConnState::Idle),
            ("reading", ConnState::Reading),
            ("writing", ConnState::Writing),
        ] {
            let polled = Arc::clone(&stats);
            telemetry.poll(
                "xsearch_front_connections",
                "Live framed connections by state-machine state",
                &[("state", LabelValue::Static(name))],
                move || polled.count(state) as f64,
            );
        }
        let polled = Arc::clone(&stats);
        telemetry.poll(
            "xsearch_front_idle_session_bytes",
            "Mean accounted bytes per idle session at the last sweep",
            &[],
            move || {
                let sessions = polled.idle_sessions.load(Ordering::Relaxed);
                if sessions == 0 {
                    0.0
                } else {
                    polled.idle_bytes.load(Ordering::Relaxed) as f64 / sessions as f64
                }
            },
        );
        stats
    }

    fn enter(&self, state: ConnState) {
        self.states[state as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn exit(&self, state: ConnState) {
        self.states[state as usize].fetch_sub(1, Ordering::Relaxed);
    }

    fn count(&self, state: ConnState) -> usize {
        self.states[state as usize].load(Ordering::Relaxed)
    }

    fn total(&self) -> usize {
        self.states.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// The event-driven front tier (see the module docs).
pub struct FrontTier {
    shard: Mutex<Shard>,
    /// Server ends [`FrontTier::accept`] opened since the last step.
    accepts: Mutex<Vec<ByteStream>>,
    stats: Arc<FrontStats>,
}

impl FrontTier {
    /// Builds the tier and registers its `xsearch_front_*` instruments
    /// on the cluster's registry. Build at most one per cluster (metric
    /// names would collide).
    #[must_use]
    pub fn new(cluster: &Arc<Cluster>, config: FrontConfig) -> FrontTier {
        let stats = FrontStats::register(cluster.telemetry());
        FrontTier {
            shard: Mutex::new(Shard::new(
                Arc::clone(cluster),
                config.survival,
                Arc::clone(&stats),
            )),
            accepts: Mutex::new(Vec::new()),
            stats,
        }
    }

    /// Opens a framed connection: the returned stream is the client
    /// end; the server end waits in the mailbox for the next step.
    #[must_use]
    pub fn accept(&self) -> ByteStream {
        let (client, server) = stream_pair(STREAM_CAPACITY);
        self.accepts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(server);
        client
    }

    /// Steps the front once: adopts the mailbox, then pumps ready
    /// connections, each serving its decoded request inline. Callable
    /// from any thread; concurrent callers take turns on the shard.
    /// Returns the number of progress events.
    pub fn step(&self) -> usize {
        let mut shard = self.shard();
        let accepted = mem::take(&mut *self.accepts.lock().unwrap_or_else(PoisonError::into_inner));
        shard.step(accepted)
    }

    fn shard(&self) -> MutexGuard<'_, Shard> {
        self.shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Live connection count.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.stats.total()
    }

    /// Live connections currently in `state`.
    #[must_use]
    pub fn state_count(&self, state: ConnState) -> usize {
        self.stats.count(state)
    }

    /// Sweeps the shard and returns `(idle_sessions, accounted bytes)`;
    /// also refreshes the `xsearch_front_idle_session_bytes` poll gauge.
    /// The scaling bench gates `bytes / sessions` against
    /// [`IDLE_SESSION_BYTE_BUDGET`].
    pub fn account_idle(&self) -> (usize, usize) {
        let (sessions, bytes) = self.shard().idle_footprint();
        self.stats.idle_sessions.store(sessions, Ordering::Relaxed);
        self.stats.idle_bytes.store(bytes, Ordering::Relaxed);
        (sessions, bytes)
    }
}

#[cfg(test)]
mod tests;
