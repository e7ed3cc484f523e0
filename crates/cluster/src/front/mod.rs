//! The event-driven front tier: framed, non-blocking client sessions
//! multiplexed onto the fleet's per-replica lanes by a small pool of
//! reactor shards.
//!
//! The thread-per-request harnesses drive one synchronous
//! [`crate::client::ClusterClient`] per OS thread — fine for a dozen
//! clients, hopeless for the paper's "many thousands of users per
//! proxy" regime. This module is the C10K-style rewrite of the
//! untrusted front: every client session is a **per-connection state
//! machine** driven by readiness events from a
//! [`xsearch_net_sim::Reactor`], so one shard thread carries tens of
//! thousands of mostly-idle sessions. Requests crossing the enclave
//! boundary ride the same [`crate::router`] lanes as the synchronous
//! path: a shard submits every request one step made ready, then drives
//! each lane it touched — if the lane's turn is free it carries *every*
//! queued entry over in batched ecalls, and a connection still awaiting
//! after that gets its lane driven again on the next step.
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
//! * while a connection has a request in flight its read interest is
//!   dropped to [`xsearch_net_sim::Interest::NONE`] — the front stops
//!   *reading from the socket*, so a flooding client fills its own send
//!   ring and blocks in its own write loop (TCP-style), not in
//!   front-tier memory;
//! * when the target replica's bounded admission queue is full, the
//!   cluster's `submit` — the same door the blocking
//!   [`Cluster::forward`] goes through — sheds with
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
//! The front is the first thing a hostile client touches, so every
//! connection lives under a [`SurvivalConfig`] on the shard's logical
//! tick clock: handshake/read-stall/write-stall/idle deadlines, an
//! anti-slowloris minimum-progress rate, lifetime frame/byte quotas,
//! and a protocol-error strike counter that **quarantines the channel
//! key** (across connections) once it crosses the limit. A frame only
//! *claims* its channel key, which is visible on the wire: the front
//! routes by it and checks it for a ban, but strikes it and closes its
//! session only once a request under it was answered `Ok` on this
//! connection — the AEAD opened inside the enclave, so the peer owns it.
//! Above the per-shard connection high-water mark the shard sheds by class —
//! misbehaving first, then unattested, then oldest-idle established —
//! so an attack population pays before well-behaved sessions do. A
//! shard can also be **drained** gracefully: accepts are held (and
//! re-adopted on resume), in-flight requests finish, and new requests
//! are answered
//! [`Unavailable`](xsearch_core::wire::ConnStatus::Unavailable). When a
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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;
use xsearch_net_sim::{stream_pair, ByteStream};
use xsearch_telemetry::{Counter, LabelValue, Registry};

/// Accounted heap bytes one idle framed session may pin on the front
/// tier (connection slab slot + stream core + shrunk buffers +
/// registration). The `conn_scaling` bench and the CI smoke gate the
/// measured figure against this.
pub const IDLE_SESSION_BYTE_BUDGET: usize = 1024;

/// Park horizon for a shard with nothing in flight: new work arrives
/// via the notify stream (which wakes the reactor's condvar), so this
/// only bounds shutdown latency.
const PARK_IDLE: Duration = Duration::from_millis(5);

/// Tuning for the front tier.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Reactor shards (threads in [`FrontTier::spawn`] mode).
    pub shards: usize,
    /// Per-direction ring capacity of each accepted connection.
    pub stream_capacity: usize,
    /// The connection-lifecycle defenses (all off by default).
    pub survival: SurvivalConfig,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            shards: 1,
            stream_capacity: 4096,
            survival: SurvivalConfig::default(),
        }
    }
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
    drain_rejects: Counter,
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
            drain_rejects: plain(
                "xsearch_front_drain_rejects",
                "Requests answered Unavailable by a draining shard",
            ),
        });
        for (name, state) in [
            ("idle", ConnState::Idle),
            ("reading", ConnState::Reading),
            ("awaiting_enclave", ConnState::AwaitingEnclave),
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

/// One shard's cross-thread handles: the shard itself, its accept
/// mailbox, and the wake stream.
struct ShardHandle {
    shard: Mutex<Shard>,
    accepts: Arc<Mutex<Vec<ByteStream>>>,
    notify_tx: ByteStream,
    draining: Arc<AtomicBool>,
}

impl ShardHandle {
    fn new(cluster: &Arc<Cluster>, survival: &SurvivalConfig, stats: &Arc<FrontStats>) -> Self {
        let (notify_tx, notify_rx) = stream_pair(64);
        let accepts = Arc::new(Mutex::new(Vec::new()));
        let draining = Arc::new(AtomicBool::new(false));
        ShardHandle {
            shard: Mutex::new(Shard::new(
                Arc::clone(cluster),
                survival.clone(),
                Arc::clone(stats),
                Arc::clone(&accepts),
                notify_rx,
                Arc::clone(&draining),
            )),
            accepts,
            notify_tx,
            draining,
        }
    }

    fn wake(&self) {
        // Best effort: a full wake ring means a wakeup is already
        // pending.
        let _ = self.notify_tx.write(&[1]);
    }

    fn shard(&self) -> MutexGuard<'_, Shard> {
        self.shard.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct FrontInner {
    config: FrontConfig,
    shards: Vec<ShardHandle>,
    stats: Arc<FrontStats>,
    next_shard: AtomicUsize,
    running: AtomicBool,
}

/// The event-driven front tier (see the module docs).
///
/// Two driving modes:
///
/// * **manual** — call [`FrontTier::step`] yourself; with one shard the
///   whole tier is single-threaded and every run with the same inputs
///   replays byte-identically (the determinism mode the replay gate
///   uses);
/// * **threaded** — [`FrontTier::spawn`] starts one reactor thread per
///   shard; they park on their readiness queues and are woken by
///   accepts and traffic.
pub struct FrontTier {
    inner: Arc<FrontInner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl FrontTier {
    /// Builds the tier and registers its `xsearch_front_*` instruments
    /// on the cluster's registry. Build at most one per cluster (metric
    /// names would collide).
    #[must_use]
    pub fn new(cluster: &Arc<Cluster>, config: FrontConfig) -> FrontTier {
        let stats = FrontStats::register(cluster.telemetry());
        let shards = (0..config.shards.max(1))
            .map(|_| ShardHandle::new(cluster, &config.survival, &stats))
            .collect();
        let inner = Arc::new(FrontInner {
            config,
            shards,
            stats,
            next_shard: AtomicUsize::new(0),
            running: AtomicBool::new(false),
        });
        FrontTier {
            inner,
            threads: Mutex::new(Vec::new()),
        }
    }

    /// Opens a framed connection: the returned stream is the client
    /// end; the server end lands on a shard round-robin.
    #[must_use]
    pub fn accept(&self) -> ByteStream {
        let inner = &self.inner;
        let i = inner.next_shard.fetch_add(1, Ordering::Relaxed) % inner.shards.len();
        let (client, server) = stream_pair(inner.config.stream_capacity);
        let handle = &inner.shards[i];
        handle
            .accepts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(server);
        handle.wake();
        client
    }

    /// Manually steps every shard once (single-threaded driving mode).
    /// Returns the number of progress events across shards.
    pub fn step(&self) -> usize {
        self.inner.shards.iter().map(|h| h.shard().step(None)).sum()
    }

    /// Starts one reactor thread per shard. Threads park on their
    /// readiness queues between bursts; [`FrontTier::shutdown`] (or
    /// drop) stops them.
    pub fn spawn(&self) {
        let mut threads = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        if !threads.is_empty() {
            return;
        }
        self.inner.running.store(true, Ordering::Release);
        for i in 0..self.inner.shards.len() {
            let inner = Arc::clone(&self.inner);
            threads.push(std::thread::spawn(move || {
                while inner.running.load(Ordering::Acquire) {
                    inner.shards[i].shard().step(Some(PARK_IDLE));
                }
            }));
        }
    }

    /// Stops and joins the reactor threads (idempotent).
    pub fn shutdown(&self) {
        self.inner.running.store(false, Ordering::Release);
        for handle in &self.inner.shards {
            handle.wake();
        }
        for thread in self
            .threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            let _ = thread.join();
        }
    }

    /// Live connection count across shards.
    #[must_use]
    pub fn connections(&self) -> usize {
        self.inner.stats.total()
    }

    /// Live connections currently in `state`.
    #[must_use]
    pub fn state_count(&self, state: ConnState) -> usize {
        self.inner.stats.count(state)
    }

    /// Puts shard `shard` into graceful drain: it stops adopting new
    /// connections (accepts queue in the mailbox), finishes requests
    /// already in flight, and answers any *new* request with
    /// [`Unavailable`](xsearch_core::wire::ConnStatus::Unavailable) before
    /// closing that connection.
    /// No-op for an out-of-range index.
    pub fn drain_shard(&self, shard: usize) {
        if let Some(handle) = self.inner.shards.get(shard) {
            handle.draining.store(true, Ordering::Release);
            handle.wake();
        }
    }

    /// Ends a graceful drain: connections accepted while draining are
    /// re-adopted on the shard's next step and served normally.
    /// No-op for an out-of-range index.
    pub fn resume_shard(&self, shard: usize) {
        if let Some(handle) = self.inner.shards.get(shard) {
            handle.draining.store(false, Ordering::Release);
            handle.wake();
        }
    }

    /// Whether shard `shard` is currently draining.
    #[must_use]
    pub fn shard_draining(&self, shard: usize) -> bool {
        self.inner
            .shards
            .get(shard)
            .is_some_and(|h| h.draining.load(Ordering::Acquire))
    }

    /// Sweeps every shard and returns `(idle_sessions, accounted
    /// bytes)`; also refreshes the `xsearch_front_idle_session_bytes`
    /// poll gauge. The scaling bench gates `bytes / sessions` against
    /// [`IDLE_SESSION_BYTE_BUDGET`].
    pub fn account_idle(&self) -> (usize, usize) {
        let mut sessions = 0;
        let mut bytes = 0;
        for handle in &self.inner.shards {
            let (s, b) = handle.shard().idle_footprint();
            sessions += s;
            bytes += b;
        }
        let stats = &self.inner.stats;
        stats.idle_sessions.store(sessions, Ordering::Relaxed);
        stats.idle_bytes.store(bytes, Ordering::Relaxed);
        (sessions, bytes)
    }
}

impl Drop for FrontTier {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests;
