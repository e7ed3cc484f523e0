//! The event-driven front tier: framed, non-blocking client sessions
//! multiplexed onto the fleet's flat-combining lanes by a small pool of
//! reactor shards.
//!
//! The thread-per-request harnesses drive one synchronous
//! [`crate::client::ClusterClient`] per OS thread — fine for a dozen
//! clients, hopeless for the paper's "many thousands of users per
//! proxy" regime. This module is the C10K-style rewrite of the
//! untrusted front: every client session is a **per-connection state
//! machine**
//!
//! ```text
//! Idle ──bytes──▶ Reading ──frame──▶ AwaitingEnclave ──reply──▶ Writing ──flushed──▶ Idle
//! ```
//!
//! driven by readiness events from a [`Reactor`], so one shard thread
//! carries tens of thousands of mostly-idle sessions. Requests crossing
//! the enclave boundary ride the same [`crate::router`] lanes as the
//! synchronous path: a shard that just submitted a burst becomes the
//! flat-combining leader and carries *every* queued entry over in
//! batched ecalls ([`Cluster::drive_lane`]).
//!
//! # Backpressure
//!
//! The tiers compose into one end-to-end backpressure chain:
//!
//! * while a connection has a request in flight its read interest is
//!   dropped to [`Interest::NONE`] — the front stops *reading from the
//!   socket*, so a flooding client fills its own send ring and blocks
//!   in its own write loop (TCP-style), not in front-tier memory;
//! * when the target replica's bounded admission queue is full,
//!   [`Cluster::submit`] — the same door the blocking
//!   [`Cluster::forward`] goes through — sheds with
//!   [`ClusterError::Overloaded`] and the front answers immediately with
//!   a framed [`ConnStatus::Overloaded`] error instead of queueing.
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
//! key** (across connections) once it crosses the limit. Above the
//! per-shard connection high-water mark the shard sheds by class —
//! misbehaving first, then unattested, then oldest-idle established —
//! so an attack population pays before well-behaved sessions do. A
//! shard can also be **drained** gracefully: accepts are held (and
//! re-adopted on resume), in-flight requests finish, and new requests
//! are answered [`ConnStatus::Unavailable`]. When a connection dies
//! for any reason, the front best-effort closes the enclave session
//! behind its channel key ([`Cluster::close_session`]); sessions the
//! front never learned a key for fall to the fleet's TTL reaper
//! ([`Cluster::reap_sessions`]).
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

use crate::client::handshake_seed;
use crate::error::ClusterError;
use crate::fleet::Cluster;
use crate::placement::key_coord;
use crate::registry::ReplicaId;
use crate::router::RequestSlot;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::mem;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use xsearch_core::wire::{
    decode_conn_reply, decode_conn_request, encode_conn_reply_into, encode_conn_request_into,
    ConnStatus, WireResult,
};
use xsearch_core::{Broker, XSearchError};
use xsearch_crypto::CryptoError;
use xsearch_net_sim::{
    stream_pair, ByteStream, Event, FrameDecoder, FrameEncoder, Interest, Reactor, Registration,
    StreamError, Token,
};
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

/// Park horizon while deliveries are outstanding: a foreign lane leader
/// may complete our slots without waking this shard, so poll soon.
const PARK_AWAITING: Duration = Duration::from_micros(200);

/// Most bytes one readable event may pull off a connection before the
/// shard yields back to the reactor (level-triggered re-poll resumes).
const READ_BURST: usize = 4;

/// Bytes pulled from a connection per `read` call; one readable event
/// reads at most [`READ_BURST`] times this.
const READ_BUDGET: usize = 4096;

/// Frame size ceiling; an announced length beyond it tears the
/// connection down ([`xsearch_net_sim::FrameError::TooLarge`]).
const MAX_FRAME: usize = 1 << 20;

/// Token 0 is each shard's notify stream; connections start at 1.
const NOTIFY_TOKEN: u64 = 0;

/// Live connection slots a shard examines for expired deadlines per
/// step — the sweep is incremental so a million-connection shard never
/// stalls its event loop on lifecycle bookkeeping.
const SWEEP_CHUNK: usize = 1024;

/// Connection-lifecycle defense knobs, all expressed on the front's
/// **logical tick clock**: one tick per shard step, which makes every
/// deadline deterministic in manual-stepping mode (the replay gate
/// runs there) and park-rate-coarse in threaded mode.
///
/// `0` disables a knob. The default profile disables everything: the
/// million-idle-session scaling bench measures the undefended cost,
/// and existing callers see no behavior change. The `front_chaos`
/// bench defends with [`SurvivalConfig::hardened`].
#[derive(Debug, Clone, Default)]
pub struct SurvivalConfig {
    /// Ticks a connection may live without ever completing a
    /// well-formed request (covers accept-and-say-nothing peers and
    /// half-open victims whose EOF never arrives).
    pub handshake_deadline: u64,
    /// Ticks a mid-frame read may go without a single new byte.
    pub read_deadline: u64,
    /// Ticks a reply flush may go without draining a single byte
    /// (a stuck peer that writes but never reads).
    pub write_deadline: u64,
    /// Ticks an established connection may sit idle between requests.
    pub idle_deadline: u64,
    /// Anti-slowloris minimum progress: a mid-frame connection must
    /// deliver at least this many bytes every
    /// [`SurvivalConfig::progress_window`] ticks — a one-byte dribble
    /// that beats the read-stall deadline still dies here.
    pub min_progress_bytes: usize,
    /// The window (ticks) over which minimum progress is measured.
    pub progress_window: u64,
    /// Lifetime request-frame quota per connection.
    pub max_frames: u64,
    /// Lifetime inbound-byte quota per connection.
    pub max_bytes: u64,
    /// Protocol-error strikes — accumulated per **channel key**, across
    /// connections — before the key is quarantined.
    pub strike_limit: u32,
    /// Ticks a quarantined channel key stays banned (requests under it
    /// are answered [`ConnStatus::Unavailable`] and the connection is
    /// closed).
    pub quarantine_ticks: u64,
    /// Per-shard live-connection high-water mark; above it the shard
    /// sheds by class: misbehaving, then unattested, then oldest-idle
    /// established.
    pub max_conns_per_shard: usize,
}

impl SurvivalConfig {
    /// The defended profile the `front_chaos` bench runs under:
    /// deadlines tight enough to reap a hostile population within a few
    /// hundred ticks, quotas far above anything a legitimate session
    /// does, three strikes to quarantine.
    #[must_use]
    pub fn hardened() -> Self {
        SurvivalConfig {
            handshake_deadline: 400,
            read_deadline: 200,
            write_deadline: 400,
            idle_deadline: 100_000,
            min_progress_bytes: 8,
            progress_window: 50,
            max_frames: 10_000,
            max_bytes: 16 << 20,
            strike_limit: 3,
            quarantine_ticks: 1_000,
            max_conns_per_shard: 4_096,
        }
    }
}

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

/// Where a connection's state machine currently is. Exposed for the
/// per-state telemetry gauges and the scaling bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// No buffered input, no request in flight, nothing to write.
    Idle,
    /// A frame has started arriving but is not yet complete.
    Reading,
    /// A request was submitted to a lane; its delivery is pending.
    AwaitingEnclave,
    /// A framed reply is being flushed against ring backpressure.
    Writing,
}

impl ConnState {
    const COUNT: usize = 4;
}

/// How the shed ladder ranks a connection when its shard is over the
/// high-water mark: misbehaving peers go first, then peers that never
/// completed a request, and only then the oldest-idle established
/// sessions — an attack population pays before legitimate users do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnClass {
    /// No well-formed request submitted yet.
    Unattested,
    /// At least one well-formed request accepted onto a lane.
    Established,
    /// Struck for a protocol, quota, or minimum-progress violation.
    Misbehaving,
}

/// Which lifecycle deadline reaped a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TimeoutKind {
    Handshake,
    ReadStall,
    WriteStall,
    Idle,
    Slowloris,
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
    /// One per [`TimeoutKind`], indexed by discriminant.
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

/// A reply frame mid-flush: the encoder survives partial writes, the
/// payload is owned here (status byte + sealed response).
#[derive(Debug)]
struct Reply {
    encoder: FrameEncoder,
    payload: Vec<u8>,
}

/// One framed connection's state machine.
#[derive(Debug)]
struct Conn {
    stream: ByteStream,
    reg: Registration,
    decoder: FrameDecoder,
    /// Created on first request, kept for the connection's lifetime
    /// (connection reuse — one outstanding request at a time).
    slot: Option<Arc<RequestSlot>>,
    /// Which replica the in-flight request was admitted on and its
    /// modeled charge; the admission slot it holds is released by
    /// [`Cluster::finish`] when the delivery is collected.
    inflight: Option<(ReplicaId, Duration)>,
    reply: Option<Reply>,
    state: ConnState,
    /// Peer reached end-of-stream (or the ring closed under us).
    eof: bool,
    /// Tear the connection down once the pending reply flushes.
    close_after_flush: bool,
    /// Already on the shard's awaiting list (dedup guard).
    in_awaiting: bool,
    /// Shed-ladder class (see [`ConnClass`]).
    class: ConnClass,
    /// Channel key of the most recent well-formed request: session
    /// attribution for close-on-disconnect and quarantine strikes.
    channel_key: Option<[u8; 32]>,
    /// Ring coordinate of `channel_key`: every frame is routed, the key
    /// is hashed only when it changes.
    ring_coord: u64,
    /// Shard tick at adoption (handshake deadline, shed-age ordering).
    opened_tick: u64,
    /// Shard tick of the last inbound byte.
    last_read_tick: u64,
    /// Shard tick of the last outbound byte the peer drained.
    last_write_tick: u64,
    /// Start of the current minimum-progress window.
    window_start_tick: u64,
    /// Inbound bytes since the window started.
    window_bytes: usize,
    /// Lifetime inbound frames (quota accounting).
    frames: u64,
    /// Lifetime inbound bytes (quota accounting).
    bytes: u64,
}

impl Conn {
    fn new(stream: ByteStream, reg: Registration, tick: u64) -> Self {
        Conn {
            stream,
            reg,
            decoder: FrameDecoder::with_max_frame(MAX_FRAME),
            slot: None,
            inflight: None,
            reply: None,
            state: ConnState::Idle,
            eof: false,
            close_after_flush: false,
            in_awaiting: false,
            class: ConnClass::Unattested,
            channel_key: None,
            ring_coord: 0,
            opened_tick: tick,
            last_read_tick: tick,
            last_write_tick: tick,
            window_start_tick: tick,
            window_bytes: 0,
            frames: 0,
            bytes: 0,
        }
    }

    /// Attributes the connection to `key`, the channel key of the request
    /// just parsed.
    fn set_channel_key(&mut self, key: [u8; 32]) {
        if self.channel_key != Some(key) {
            self.channel_key = Some(key);
            self.ring_coord = key_coord(&key);
        }
    }

    /// The last tick any byte moved in either direction.
    fn last_activity(&self) -> u64 {
        self.last_read_tick.max(self.last_write_tick)
    }

    /// Whether a lifetime frame/byte quota is exhausted.
    fn over_quota(&self, s: &SurvivalConfig) -> bool {
        (s.max_frames != 0 && self.frames > s.max_frames)
            || (s.max_bytes != 0 && self.bytes > s.max_bytes)
    }

    /// Accounted heap footprint of this session (slab slot + stream
    /// core + buffers + registration + per-session slot).
    fn mem_bytes(&self) -> usize {
        let mut bytes = mem::size_of::<Option<Conn>>();
        bytes += self.stream.mem_bytes();
        bytes += self.decoder.mem_bytes();
        bytes += self.reg.mem_bytes();
        if let Some(reply) = &self.reply {
            bytes += reply.payload.capacity();
        }
        if self.slot.is_some() {
            bytes += mem::size_of::<RequestSlot>();
        }
        bytes
    }
}

/// What one frame parsed into (borrow-free so state can change after).
enum Parsed {
    /// Not enough buffered bytes yet.
    NeedMore,
    /// The framing layer itself gave up (oversized announcement).
    Unframeable,
    /// A complete frame that was not a valid request.
    Malformed,
    /// A well-formed request, copied out for lane ownership transfer.
    Request {
        client_pub: [u8; 32],
        echo: bool,
        ciphertext: Vec<u8>,
    },
}

/// Whether a pumped connection stays in the slab.
#[derive(PartialEq)]
enum Disposition {
    Keep,
    Close,
}

/// One reactor shard: a slab of connections, their readiness queue, and
/// the bookkeeping to drive lanes and collect deliveries.
struct Shard {
    reactor: Reactor,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Connection indices with a delivery outstanding.
    awaiting: Vec<usize>,
    /// Replicas submitted to since the last lane drive.
    dirty: Vec<ReplicaId>,
    /// Server end of the wake pair; readable ⇒ re-check `accepts`.
    notify_rx: ByteStream,
    /// Keeps the notify registration (and its readiness edge) alive.
    _notify_reg: Registration,
    /// Handed to us by [`FrontTier::accept`] under its own lock.
    accepts: Arc<Mutex<Vec<ByteStream>>>,
    /// Scratch event buffer, reused across steps.
    events: Vec<Event>,
    /// Logical clock: one tick per [`Shard::step`]. Every survival
    /// deadline is expressed in these.
    tick: u64,
    /// Incremental deadline sweep position (at most [`SWEEP_CHUNK`]
    /// slots are examined per step).
    sweep_cursor: usize,
    /// Protocol-error strikes per channel key, accumulated across
    /// connections until the key is quarantined or behaves.
    strikes: HashMap<[u8; 32], u32>,
    /// Quarantined channel keys → the tick their ban expires.
    quarantine: HashMap<[u8; 32], u64>,
    /// Graceful drain: shared with the [`ShardHandle`] so
    /// [`FrontTier::drain_shard`] can flip it from any thread.
    draining: Arc<AtomicBool>,
}

impl Shard {
    fn new(
        accepts: Arc<Mutex<Vec<ByteStream>>>,
        notify_rx: ByteStream,
        draining: Arc<AtomicBool>,
    ) -> Self {
        let reactor = Reactor::new();
        let notify_reg = reactor.register(&notify_rx, Token(NOTIFY_TOKEN), Interest::READABLE);
        Shard {
            reactor,
            conns: Vec::new(),
            free: Vec::new(),
            awaiting: Vec::new(),
            dirty: Vec::new(),
            notify_rx,
            _notify_reg: notify_reg,
            accepts,
            events: Vec::new(),
            tick: 0,
            sweep_cursor: 0,
            strikes: HashMap::new(),
            quarantine: HashMap::new(),
            draining,
        }
    }

    fn adopt_accepts(&mut self, stats: &FrontStats) -> usize {
        let newly = mem::take(&mut *self.accepts.lock());
        let adopted = newly.len();
        for stream in newly {
            let idx = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let token = Token(idx as u64 + 1);
            let reg = self.reactor.register(&stream, token, Interest::READABLE);
            debug_assert!(self.conns[idx].is_none());
            self.conns[idx] = Some(Conn::new(stream, reg, self.tick));
            stats.enter(ConnState::Idle);
        }
        adopted
    }

    /// Tears one connection down: deregisters, closes the stream, and
    /// best-effort closes the enclave session behind its channel key so
    /// a disconnect does not leak session state until the TTL reaper.
    fn retire(&mut self, idx: usize, mut conn: Conn, cluster: &Cluster, stats: &FrontStats) {
        self.reactor.deregister(&conn.stream, &conn.reg);
        conn.stream.close();
        stats.exit(conn.state);
        if let Some(key) = conn.channel_key.take() {
            if cluster.close_session(&key) {
                stats.sessions_closed.inc();
            }
        }
        self.free.push(idx);
    }

    /// Records a protocol-error strike against `key`; at the configured
    /// limit the key moves into quarantine.
    fn strike(&mut self, key: [u8; 32], cfg: &FrontConfig, stats: &FrontStats) {
        stats.strikes.inc();
        let limit = cfg.survival.strike_limit;
        if limit == 0 {
            return;
        }
        let count = self.strikes.entry(key).or_insert(0);
        *count += 1;
        if *count >= limit {
            self.strikes.remove(&key);
            self.quarantine
                .insert(key, self.tick + cfg.survival.quarantine_ticks);
            stats.quarantined_keys.inc();
        }
    }

    /// Marks `conn` misbehaving and strikes its channel key if known.
    fn punish(&mut self, conn: &mut Conn, cfg: &FrontConfig, stats: &FrontStats) {
        conn.class = ConnClass::Misbehaving;
        if let Some(key) = conn.channel_key {
            self.strike(key, cfg, stats);
        }
    }

    /// One iteration of the shard loop: adopt accepts, poll readiness,
    /// pump ready connections, drive dirty lanes, collect deliveries.
    /// Returns the number of externally visible progress events.
    fn step(
        &mut self,
        park: Option<Duration>,
        cluster: &Cluster,
        cfg: &FrontConfig,
        stats: &FrontStats,
    ) -> usize {
        self.tick += 1;
        // A draining shard holds accepts in the mailbox instead of
        // adopting them; they are re-adopted wholesale on resume.
        let draining = self.draining.load(Ordering::Relaxed);
        let mut progress = if draining {
            0
        } else {
            self.adopt_accepts(stats)
        };

        let mut events = mem::take(&mut self.events);
        let timeout = match park {
            Some(t) if self.awaiting.is_empty() => Some(t),
            Some(_) => Some(PARK_AWAITING),
            None => None,
        };
        match timeout {
            Some(t) => self.reactor.poll_wait(&mut events, t),
            None => self.reactor.poll(&mut events),
        };
        for ev in &events {
            if ev.token.0 == NOTIFY_TOKEN {
                let mut junk = [0u8; 64];
                while matches!(self.notify_rx.read(&mut junk), Ok(n) if n > 0) {}
                if !self.draining.load(Ordering::Relaxed) {
                    progress += self.adopt_accepts(stats);
                }
                continue;
            }
            progress += 1;
            let idx = ev.token.0 as usize - 1;
            self.pump(idx, cluster, cfg, stats);
        }
        events.clear();
        self.events = events;

        for id in mem::take(&mut self.dirty) {
            cluster.drive_lane(id);
        }

        let pending = mem::take(&mut self.awaiting);
        for idx in pending {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.in_awaiting = false;
            }
            self.pump(idx, cluster, cfg, stats);
        }

        self.enforce_deadlines(cluster, cfg, stats);
        self.shed_over_watermark(cluster, cfg, stats);
        progress
    }

    /// Examines up to [`SWEEP_CHUNK`] live slots for expired lifecycle
    /// deadlines and minimum-progress violations. Connections with a
    /// request in flight are exempt (the enclave path has its own
    /// deadline machinery; the admission slot must drain first).
    fn enforce_deadlines(&mut self, cluster: &Cluster, cfg: &FrontConfig, stats: &FrontStats) {
        let s = &cfg.survival;
        let progress_armed = s.min_progress_bytes != 0 && s.progress_window != 0;
        if s.handshake_deadline == 0
            && s.read_deadline == 0
            && s.write_deadline == 0
            && s.idle_deadline == 0
            && !progress_armed
        {
            return;
        }
        let len = self.conns.len();
        if len == 0 {
            return;
        }
        let now = self.tick;
        let span = len.min(SWEEP_CHUNK);
        let start = self.sweep_cursor % len;
        self.sweep_cursor = (start + span) % len;
        for off in 0..span {
            let idx = (start + off) % len;
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            if conn.inflight.is_some() {
                continue;
            }
            let kill = match conn.state {
                ConnState::Writing => (s.write_deadline != 0
                    && now.saturating_sub(conn.last_write_tick) > s.write_deadline)
                    .then_some(TimeoutKind::WriteStall),
                ConnState::Reading => {
                    if s.read_deadline != 0
                        && now.saturating_sub(conn.last_read_tick) > s.read_deadline
                    {
                        Some(TimeoutKind::ReadStall)
                    } else if progress_armed
                        && now.saturating_sub(conn.window_start_tick) >= s.progress_window
                    {
                        if conn.window_bytes < s.min_progress_bytes {
                            Some(TimeoutKind::Slowloris)
                        } else {
                            conn.window_start_tick = now;
                            conn.window_bytes = 0;
                            None
                        }
                    } else {
                        None
                    }
                }
                ConnState::Idle => match conn.class {
                    ConnClass::Established => (s.idle_deadline != 0
                        && now.saturating_sub(conn.last_activity()) > s.idle_deadline)
                        .then_some(TimeoutKind::Idle),
                    ConnClass::Unattested | ConnClass::Misbehaving => (s.handshake_deadline != 0
                        && now.saturating_sub(conn.opened_tick) > s.handshake_deadline)
                        .then_some(TimeoutKind::Handshake),
                },
                ConnState::AwaitingEnclave => None,
            };
            let Some(kind) = kill else {
                continue;
            };
            stats.timeouts[kind as usize].inc();
            let conn = self.conns[idx].take().expect("slot checked above");
            // A slowloris dribble is deliberate misbehavior: strike the
            // key (if any) so repeat offenders reach quarantine. The
            // other deadlines are treated as benign peer failures.
            if kind == TimeoutKind::Slowloris {
                if let Some(key) = conn.channel_key {
                    self.strike(key, cfg, stats);
                }
            }
            self.retire(idx, conn, cluster, stats);
        }
        // Expired quarantines are also purged lazily on access; this
        // sweep bounds the map when a banned key never comes back.
        let tick = self.tick;
        self.quarantine.retain(|_, &mut until| until > tick);
    }

    /// When the shard holds more live connections than the configured
    /// high-water mark, sheds the excess down the class ladder:
    /// misbehaving first, then unattested (oldest first), then the
    /// oldest-idle established sessions. In-flight connections are
    /// never shed (their admission slot must drain).
    fn shed_over_watermark(&mut self, cluster: &Cluster, cfg: &FrontConfig, stats: &FrontStats) {
        let max = cfg.survival.max_conns_per_shard;
        if max == 0 {
            return;
        }
        let live = self.conns.len() - self.free.len();
        if live <= max {
            return;
        }
        let mut excess = live - max;
        let mut candidates: Vec<(u8, u64, usize)> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| slot.as_ref().map(|c| (idx, c)))
            .filter(|(_, c)| c.inflight.is_none())
            .map(|(idx, c)| {
                let (rank, age) = match c.class {
                    ConnClass::Misbehaving => (0u8, c.opened_tick),
                    ConnClass::Unattested => (1, c.opened_tick),
                    ConnClass::Established => (2, c.last_activity()),
                };
                (rank, age, idx)
            })
            .collect();
        candidates.sort_unstable();
        for (_, _, idx) in candidates {
            if excess == 0 {
                break;
            }
            let Some(conn) = self.conns[idx].take() else {
                continue;
            };
            stats.sheds[conn.class as usize].inc();
            self.retire(idx, conn, cluster, stats);
            excess -= 1;
        }
    }

    /// Runs `idx`'s state machine until it blocks (on bytes, on ring
    /// space, or on an enclave delivery) or closes.
    fn pump(&mut self, idx: usize, cluster: &Cluster, cfg: &FrontConfig, stats: &FrontStats) {
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        let disposition = self.run_conn(idx, &mut conn, cluster, cfg, stats);
        if disposition == Disposition::Keep {
            self.conns[idx] = Some(conn);
        } else {
            self.retire(idx, conn, cluster, stats);
        }
    }

    fn set_state(conn: &mut Conn, stats: &FrontStats, next: ConnState) {
        if conn.state != next {
            stats.exit(conn.state);
            stats.enter(next);
            conn.state = next;
        }
    }

    fn queue_reply(conn: &mut Conn, stats: &FrontStats, status: ConnStatus, payload: &[u8]) {
        let mut framed = Vec::new();
        encode_conn_reply_into(status, payload, &mut framed);
        conn.reply = Some(Reply {
            encoder: FrameEncoder::new(framed.len()),
            payload: framed,
        });
        Self::set_state(conn, stats, ConnState::Writing);
        conn.reg.set_interest(Interest::WRITABLE);
    }

    /// Answers a refused submission or a failed delivery with its framed
    /// error status — one mapping, whichever side of the lane said no.
    fn queue_refusal(conn: &mut Conn, stats: &FrontStats, err: &ClusterError) {
        let status = err.conn_status();
        if status == ConnStatus::Overloaded {
            stats.overloaded.inc();
        }
        Self::queue_reply(conn, stats, status, &[]);
    }

    #[allow(clippy::too_many_lines)]
    fn run_conn(
        &mut self,
        idx: usize,
        conn: &mut Conn,
        cluster: &Cluster,
        cfg: &FrontConfig,
        stats: &FrontStats,
    ) -> Disposition {
        loop {
            match conn.state {
                ConnState::Writing => {
                    let reply = conn.reply.as_mut().expect("Writing implies a reply");
                    if conn.eof {
                        // Peer gone: the reply is undeliverable.
                        conn.reply = None;
                        return Disposition::Close;
                    }
                    let before = reply.encoder.remaining();
                    match reply.encoder.write_to(&conn.stream, &reply.payload) {
                        Ok(done) => {
                            let wrote = before - reply.encoder.remaining();
                            stats.bytes_out.add(wrote as u64);
                            if wrote > 0 {
                                conn.last_write_tick = self.tick;
                            }
                            if !done {
                                // Ring full: wait for the peer to drain.
                                conn.reg.set_interest(Interest::WRITABLE);
                                return Disposition::Keep;
                            }
                            stats.frames_out.inc();
                            conn.reply = None;
                            if conn.close_after_flush {
                                return Disposition::Close;
                            }
                            // Back to reading; buffered pipelined
                            // frames are handled on the next loop turn.
                            Self::set_state(conn, stats, ConnState::Idle);
                            conn.reg.set_interest(Interest::READABLE);
                        }
                        Err(_) => {
                            conn.eof = true;
                            conn.reply = None;
                            return Disposition::Close;
                        }
                    }
                }
                ConnState::AwaitingEnclave => {
                    let (replica, charge) =
                        conn.inflight.expect("AwaitingEnclave implies inflight");
                    let slot = conn.slot.as_ref().expect("AwaitingEnclave implies a slot");
                    let Some(result) = slot.take_if_done() else {
                        if !conn.in_awaiting {
                            conn.in_awaiting = true;
                            self.awaiting.push(idx);
                        }
                        return Disposition::Keep;
                    };
                    cluster.finish(replica, result.is_ok(), charge);
                    conn.inflight = None;
                    if conn.eof {
                        // Zombie: we only stayed alive to release the
                        // admission slot.
                        return Disposition::Close;
                    }
                    match result {
                        Ok(payload) => {
                            Self::queue_reply(conn, stats, ConnStatus::Ok, &payload);
                        }
                        Err(err) => Self::queue_refusal(conn, stats, &err),
                    }
                }
                ConnState::Idle | ConnState::Reading => {
                    if !conn.eof {
                        for _ in 0..READ_BURST {
                            match conn.decoder.read_from(&conn.stream, READ_BUDGET) {
                                Ok(0) => {
                                    conn.eof = true;
                                    break;
                                }
                                Ok(n) => {
                                    stats.bytes_in.add(n as u64);
                                    conn.last_read_tick = self.tick;
                                    conn.window_bytes += n;
                                    conn.bytes += n as u64;
                                }
                                Err(StreamError::WouldBlock) => break,
                                Err(StreamError::Closed) => {
                                    conn.eof = true;
                                    break;
                                }
                            }
                        }
                    }
                    let parsed = match conn.decoder.next_frame() {
                        Ok(None) => Parsed::NeedMore,
                        Ok(Some(frame)) => {
                            stats.frames_in.inc();
                            conn.frames += 1;
                            match decode_conn_request(frame) {
                                Ok(req) => Parsed::Request {
                                    client_pub: req.client_pub,
                                    echo: req.echo,
                                    ciphertext: req.ciphertext.to_vec(),
                                },
                                Err(_) => Parsed::Malformed,
                            }
                        }
                        Err(_) => Parsed::Unframeable,
                    };
                    // Lifetime quotas: a peer past its frame or byte
                    // budget is closed with a typed Protocol answer
                    // (mid-frame floods close immediately — there is
                    // nothing well-formed to answer).
                    if conn.over_quota(&cfg.survival) {
                        stats.quota_closed.inc();
                        if let Parsed::Request { client_pub, .. } = &parsed {
                            conn.set_channel_key(*client_pub);
                        }
                        self.punish(conn, cfg, stats);
                        if matches!(parsed, Parsed::NeedMore) {
                            return Disposition::Close;
                        }
                        conn.close_after_flush = true;
                        Self::queue_reply(conn, stats, ConnStatus::Protocol, &[]);
                        continue;
                    }
                    match parsed {
                        Parsed::Request {
                            client_pub,
                            echo,
                            ciphertext,
                        } => {
                            conn.set_channel_key(client_pub);
                            // Quarantined keys are refused before any
                            // routing or admission work happens.
                            if let Some(&until) = self.quarantine.get(&client_pub) {
                                if self.tick < until {
                                    stats.quarantine_rejects.inc();
                                    conn.class = ConnClass::Misbehaving;
                                    conn.close_after_flush = true;
                                    Self::queue_reply(conn, stats, ConnStatus::Unavailable, &[]);
                                    continue;
                                }
                                self.quarantine.remove(&client_pub);
                            }
                            // A draining shard finishes in-flight work
                            // but refuses new requests.
                            if self.draining.load(Ordering::Relaxed) {
                                stats.drain_rejects.inc();
                                conn.close_after_flush = true;
                                Self::queue_reply(conn, stats, ConnStatus::Unavailable, &[]);
                                continue;
                            }
                            let slot = conn.slot.get_or_insert_with(RequestSlot::new);
                            // The client sealed before its bytes got
                            // here; `seal` only hands the frame over.
                            let submitted = cluster.route_at(conn.ring_coord).and_then(|id| {
                                cluster
                                    .submit(id, echo, slot, None, || (client_pub, ciphertext))
                                    .map(|charge| (id, charge))
                            });
                            match submitted {
                                Ok((id, charge)) => {
                                    conn.inflight = Some((id, charge));
                                    if conn.class == ConnClass::Unattested {
                                        conn.class = ConnClass::Established;
                                    }
                                    // Backpressure: stop reading while
                                    // the request is in flight.
                                    conn.reg.set_interest(Interest::NONE);
                                    Self::set_state(conn, stats, ConnState::AwaitingEnclave);
                                    if !self.dirty.contains(&id) {
                                        self.dirty.push(id);
                                    }
                                }
                                Err(err) => Self::queue_refusal(conn, stats, &err),
                            }
                        }
                        Parsed::Malformed | Parsed::Unframeable => {
                            stats.protocol_errors.inc();
                            self.punish(conn, cfg, stats);
                            conn.close_after_flush = true;
                            Self::queue_reply(conn, stats, ConnStatus::Protocol, &[]);
                        }
                        Parsed::NeedMore => {
                            if conn.eof {
                                if conn.decoder.finish().is_err() {
                                    stats.torn.inc();
                                }
                                return Disposition::Close;
                            }
                            if conn.decoder.is_mid_frame() {
                                // Each mid-frame stint gets a fresh
                                // minimum-progress window.
                                if conn.state != ConnState::Reading {
                                    conn.window_start_tick = self.tick;
                                    conn.window_bytes = 0;
                                }
                                Self::set_state(conn, stats, ConnState::Reading);
                            } else {
                                Self::set_state(conn, stats, ConnState::Idle);
                                // Idle sessions must not pin a burst's
                                // high-water mark.
                                conn.decoder.shrink();
                                conn.stream.shrink();
                            }
                            conn.reg.set_interest(Interest::READABLE);
                            return Disposition::Keep;
                        }
                    }
                }
            }
        }
    }

    /// Sums accounted bytes over currently-idle sessions.
    fn idle_footprint(&self) -> (usize, usize) {
        let mut sessions = 0;
        let mut bytes = 0;
        for conn in self.conns.iter().flatten() {
            if conn.state == ConnState::Idle {
                sessions += 1;
                bytes += conn.mem_bytes();
            }
        }
        (sessions, bytes)
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
    fn new() -> Self {
        let (notify_tx, notify_rx) = stream_pair(64);
        let accepts = Arc::new(Mutex::new(Vec::new()));
        let draining = Arc::new(AtomicBool::new(false));
        let shard = Shard::new(Arc::clone(&accepts), notify_rx, Arc::clone(&draining));
        ShardHandle {
            shard: Mutex::new(shard),
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
}

struct FrontInner {
    cluster: Arc<Cluster>,
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
        let shards = (0..config.shards.max(1))
            .map(|_| ShardHandle::new())
            .collect();
        let stats = FrontStats::register(cluster.telemetry());
        let inner = Arc::new(FrontInner {
            cluster: Arc::clone(cluster),
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
        handle.accepts.lock().push(server);
        handle.wake();
        client
    }

    /// Manually steps every shard once (single-threaded driving mode).
    /// Returns the number of progress events across shards.
    pub fn step(&self) -> usize {
        let inner = &self.inner;
        inner
            .shards
            .iter()
            .map(|h| {
                h.shard
                    .lock()
                    .step(None, &inner.cluster, &inner.config, &inner.stats)
            })
            .sum()
    }

    /// Starts one reactor thread per shard. Threads park on their
    /// readiness queues between bursts; [`FrontTier::shutdown`] (or
    /// drop) stops them.
    pub fn spawn(&self) {
        let mut threads = self.threads.lock();
        if !threads.is_empty() {
            return;
        }
        self.inner.running.store(true, Ordering::Release);
        for i in 0..self.inner.shards.len() {
            let inner = Arc::clone(&self.inner);
            threads.push(std::thread::spawn(move || {
                while inner.running.load(Ordering::Acquire) {
                    let handle = &inner.shards[i];
                    let mut shard = handle.shard.lock();
                    shard.step(Some(PARK_IDLE), &inner.cluster, &inner.config, &inner.stats);
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
        for thread in self.threads.lock().drain(..) {
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
    /// [`ConnStatus::Unavailable`] before closing that connection.
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
            let (s, b) = handle.shard.lock().idle_footprint();
            sessions += s;
            bytes += b;
        }
        self.inner
            .stats
            .idle_sessions
            .store(sessions, Ordering::Relaxed);
        self.inner.stats.idle_bytes.store(bytes, Ordering::Relaxed);
        (sessions, bytes)
    }
}

impl Drop for FrontTier {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Maps a framed error status back to the cluster error a synchronous
/// caller would have seen.
fn error_for(status: ConnStatus, replica: ReplicaId) -> ClusterError {
    match status {
        ConnStatus::Overloaded => ClusterError::Overloaded(replica),
        ConnStatus::UnknownSession => ClusterError::Proxy(XSearchError::UnknownSession),
        ConnStatus::Crypto => {
            ClusterError::Proxy(XSearchError::Crypto(CryptoError::AuthenticationFailed))
        }
        ConnStatus::Protocol => ClusterError::Proxy(XSearchError::Protocol(
            "front reported a protocol violation".into(),
        )),
        ConnStatus::Unavailable => ClusterError::NoReplicasAvailable,
        ConnStatus::Ok => unreachable!("Ok is not an error status"),
    }
}

/// Most pump iterations [`FramedClient`] waits for a reply before
/// concluding the front is wedged.
const CLIENT_PUMP_LIMIT: usize = 1_000_000;

/// A non-blocking framed client: seals queries end-to-end exactly like
/// [`crate::client::ClusterClient`], but speaks the length-prefixed
/// wire protocol over a [`ByteStream`] to a [`FrontTier`] instead of
/// calling into the cluster synchronously.
///
/// Routing is by the session's channel public key: the client derives
/// it from its seed *before* attaching ([`Broker::client_pub_for_seed`]),
/// routes, and attests exactly the replica the front will forward to.
pub struct FramedClient {
    broker: Broker,
    stream: ByteStream,
    decoder: FrameDecoder,
    send: Option<(FrameEncoder, Vec<u8>)>,
    replica: ReplicaId,
    seed: u64,
    handshakes: u64,
}

impl FramedClient {
    /// Routes the seed's channel key, attests that replica, and opens a
    /// framed connection to the front.
    ///
    /// # Errors
    ///
    /// Routing/attestation failures as for
    /// [`crate::client::ClusterClient::attach`].
    pub fn connect(cluster: &Cluster, front: &FrontTier, seed: u64) -> Result<Self, ClusterError> {
        let (broker, replica) = Self::attach_broker(cluster, seed, 0)?;
        Ok(FramedClient {
            broker,
            stream: front.accept(),
            decoder: FrameDecoder::new(),
            send: None,
            replica,
            seed,
            handshakes: 1,
        })
    }

    fn attach_broker(
        cluster: &Cluster,
        seed: u64,
        handshakes: u64,
    ) -> Result<(Broker, ReplicaId), ClusterError> {
        let hs = handshake_seed(seed, handshakes);
        let client_pub = Broker::client_pub_for_seed(hs);
        let replica = cluster.route(client_pub.as_bytes())?;
        let broker = cluster
            .with_replica(replica, |proxy| {
                Broker::attach(proxy, cluster.ias(), cluster.expected_measurement(), hs)
            })?
            .map_err(ClusterError::Proxy)?;
        Ok((broker, replica))
    }

    /// The replica this session is attested to (and routed to by the
    /// front, membership permitting).
    #[must_use]
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Re-attests after a shed request or a failover: fresh handshake
    /// seed (never reuse a session keypair — nonce safety), fresh
    /// routing. The framed connection itself is reused; the front
    /// routes per-request by the new channel key.
    ///
    /// # Errors
    ///
    /// As [`FramedClient::connect`].
    pub fn reattach(&mut self, cluster: &Cluster) -> Result<(), ClusterError> {
        let (broker, replica) = Self::attach_broker(cluster, self.seed, self.handshakes)?;
        self.handshakes += 1;
        self.broker = broker;
        self.replica = replica;
        Ok(())
    }

    /// Seals `query` and begins writing the request frame. At most one
    /// request may be outstanding per connection.
    ///
    /// # Panics
    ///
    /// If a request is already in flight on this connection.
    pub fn begin(&mut self, query: &str, echo: bool) {
        assert!(self.send.is_none(), "one request in flight per connection");
        let ciphertext = self.broker.seal_query(query);
        let mut payload = Vec::new();
        encode_conn_request_into(
            self.broker.client_pub().as_bytes(),
            &ciphertext,
            echo,
            &mut payload,
        );
        self.send = Some((FrameEncoder::new(payload.len()), payload));
    }

    /// Advances the in-progress request write. `Ok(true)` once the
    /// frame is fully handed to the stream.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Proxy`] when the front closed the connection.
    pub fn poll_send(&mut self) -> Result<bool, ClusterError> {
        let Some((encoder, payload)) = self.send.as_mut() else {
            return Ok(true);
        };
        match encoder.write_to(&self.stream, payload) {
            Ok(true) => {
                self.send = None;
                Ok(true)
            }
            Ok(false) => Ok(false),
            Err(_) => Err(ClusterError::Proxy(XSearchError::Protocol(
                "front connection closed".into(),
            ))),
        }
    }

    /// Tries to collect and open the pending reply. `Ok(None)` while it
    /// has not arrived.
    ///
    /// # Errors
    ///
    /// The framed error statuses mapped back to [`ClusterError`]; after
    /// [`ClusterError::Overloaded`] the session's send counter is
    /// desynchronized (the request was sealed, then shed) and the
    /// caller must [`FramedClient::reattach`] before the next query.
    pub fn poll_reply(&mut self) -> Result<Option<Vec<WireResult>>, ClusterError> {
        let eof = matches!(
            self.decoder.read_from(&self.stream, 4096),
            Ok(0) | Err(StreamError::Closed)
        );
        let Some(frame) = self.decoder.next_frame().map_err(|_| {
            ClusterError::Proxy(XSearchError::Protocol("oversized reply frame".into()))
        })?
        else {
            if eof {
                return Err(ClusterError::Proxy(XSearchError::Protocol(
                    "front connection closed".into(),
                )));
            }
            return Ok(None);
        };
        let (status, payload) = decode_conn_reply(frame).map_err(ClusterError::Proxy)?;
        if status != ConnStatus::Ok {
            return Err(error_for(status, self.replica));
        }
        let opened = self
            .broker
            .open_results(payload)
            .map_err(ClusterError::Proxy)?;
        self.decoder.shrink();
        Ok(Some(opened))
    }

    /// Runs one request to completion, calling `pump` whenever the
    /// session would block (manual mode: `|| { front.step(); }`;
    /// threaded mode: `std::thread::yield_now`).
    ///
    /// # Errors
    ///
    /// As [`FramedClient::poll_send`] / [`FramedClient::poll_reply`];
    /// [`ClusterError::DeadlineExceeded`] if the reply never arrives
    /// within the pump limit.
    pub fn search_with(
        &mut self,
        query: &str,
        echo: bool,
        mut pump: impl FnMut(),
    ) -> Result<Vec<WireResult>, ClusterError> {
        self.begin(query, echo);
        for _ in 0..CLIENT_PUMP_LIMIT {
            if self.poll_send()? {
                break;
            }
            pump();
        }
        for _ in 0..CLIENT_PUMP_LIMIT {
            if let Some(results) = self.poll_reply()? {
                return Ok(results);
            }
            pump();
        }
        Err(ClusterError::DeadlineExceeded)
    }

    /// Closes the framed connection (the front observes EOF).
    pub fn close(&self) {
        self.stream.close();
    }
}

impl std::fmt::Debug for FramedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramedClient")
            .field("seed", &self.seed)
            .field("replica", &self.replica)
            .field("handshakes", &self.handshakes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ClusterConfig;
    use xsearch_core::config::XSearchConfig;
    use xsearch_engine::corpus::CorpusConfig;
    use xsearch_engine::engine::SearchEngine;
    use xsearch_net_sim::encode_frame_into;

    fn fleet(queue_limit: usize) -> Arc<Cluster> {
        let engine = Arc::new(SearchEngine::build(&CorpusConfig {
            docs_per_topic: 5,
            ..Default::default()
        }));
        Arc::new(Cluster::launch(
            engine,
            ClusterConfig {
                replicas: 4,
                queue_limit,
                proxy: XSearchConfig {
                    k: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        ))
    }

    /// `xsearch_front_<what>` (with its one label, if it has one) read
    /// back out of the registry.
    fn metric(cluster: &Cluster, what: &str, label: Option<(&'static str, &'static str)>) -> f64 {
        let labels: Vec<_> = label
            .iter()
            .map(|&(k, v)| (k, LabelValue::Static(v)))
            .collect();
        let snap = cluster.telemetry().snapshot();
        snap.value(&format!("xsearch_front_{what}"), &labels)
            .expect("a registered front series")
    }

    fn timeouts(cluster: &Cluster, kind: &'static str) -> f64 {
        metric(cluster, "timeouts_total", Some(("kind", kind)))
    }

    fn sheds(cluster: &Cluster, class: &'static str) -> f64 {
        metric(cluster, "sheds_total", Some(("class", class)))
    }

    fn step_pump(front: &FrontTier) -> impl FnMut() + '_ {
        move || {
            front.step();
        }
    }

    /// Seals `query` and wraps it in a complete request frame.
    fn raw_request(broker: &mut Broker, query: &str, echo: bool) -> Vec<u8> {
        let ciphertext = broker.seal_query(query);
        let mut payload = Vec::new();
        encode_conn_request_into(
            broker.client_pub().as_bytes(),
            &ciphertext,
            echo,
            &mut payload,
        );
        let mut framed = Vec::new();
        encode_frame_into(&payload, &mut framed);
        framed
    }

    #[test]
    fn framed_echo_roundtrips_and_reuses_the_connection() {
        let cluster = fleet(256);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let mut client = FramedClient::connect(&cluster, &front, 7).unwrap();
        // Echo replies carry an empty result list by design; opening
        // them at all proves the end-to-end AEAD path.
        client
            .search_with("cheap flights", true, step_pump(&front))
            .unwrap();
        // Same connection, second request (state machine returned to Idle).
        client
            .search_with("hotel rome", true, step_pump(&front))
            .unwrap();
        assert_eq!(front.connections(), 1);
        assert_eq!(front.state_count(ConnState::Idle), 1);
    }

    #[test]
    fn framed_search_runs_the_real_engine_path() {
        let cluster = fleet(256);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let mut client = FramedClient::connect(&cluster, &front, 11).unwrap();
        let results = client
            .search_with("topic0 doc", false, step_pump(&front))
            .unwrap();
        // k-obfuscated search returns the filtered result set; it may be
        // empty for an off-corpus query but must decrypt — exercised by
        // reaching here without a Crypto error.
        drop(results);
    }

    #[test]
    fn overload_returns_a_framed_error_and_reattach_recovers() {
        let cluster = fleet(1);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let mut client = FramedClient::connect(&cluster, &front, 21).unwrap();
        let replica = client.replica();
        // Occupy the single admission slot out-of-band: the next framed
        // request must be shed, not queued.
        let node = Arc::clone(cluster.node(replica).unwrap());
        assert!(node.try_enter(1));
        let err = client
            .search_with("shed me", true, step_pump(&front))
            .unwrap_err();
        assert!(matches!(err, ClusterError::Overloaded(_)), "got {err:?}");
        assert_eq!(metric(&cluster, "overloaded_replies", None), 1.0);
        node.exit();
        // The shed request advanced the session's send counter past what
        // the enclave saw: re-attest, then the path works again.
        client.reattach(&cluster).unwrap();
        client
            .search_with("after shed", true, step_pump(&front))
            .unwrap();
    }

    #[test]
    fn peer_vanishing_mid_frame_counts_torn_and_frees_the_slot() {
        let cluster = fleet(256);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let stream = front.accept();
        front.step();
        assert_eq!(front.connections(), 1);
        // Half a header, then gone.
        stream.write(&[0xAB, 0xCD]).unwrap();
        front.step();
        stream.close();
        front.step();
        assert_eq!(metric(&cluster, "torn_connections", None), 1.0);
        assert_eq!(front.connections(), 0);
    }

    #[test]
    fn malformed_request_gets_a_protocol_error_then_the_connection_closes() {
        let cluster = fleet(256);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let stream = front.accept();
        // A complete frame that is not a valid request (too short).
        let mut framed = Vec::new();
        encode_frame_into(b"junk", &mut framed);
        stream.write(&framed).unwrap();
        for _ in 0..4 {
            front.step();
        }
        let mut decoder = FrameDecoder::new();
        decoder.read_from(&stream, 4096).unwrap();
        let frame = decoder.next_frame().unwrap().expect("an error reply");
        let (status, payload) = decode_conn_reply(frame).unwrap();
        assert_eq!(status, ConnStatus::Protocol);
        assert!(payload.is_empty());
        front.step();
        assert_eq!(front.connections(), 0, "close_after_flush tears down");
    }

    #[test]
    fn pipelined_requests_are_answered_in_order_with_reads_paused_inflight() {
        let cluster = fleet(256);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        // Hand-rolled raw session so two requests can be written
        // back-to-back (FramedClient enforces one in flight).
        let seed = 33;
        let client_pub = Broker::client_pub_for_seed(seed);
        let replica = cluster.route(client_pub.as_bytes()).unwrap();
        let mut broker = cluster
            .with_replica(replica, |proxy| {
                Broker::attach(proxy, cluster.ias(), cluster.expected_measurement(), seed)
            })
            .unwrap()
            .unwrap();
        let stream = front.accept();
        let mut burst = raw_request(&mut broker, "first", true);
        burst.extend_from_slice(&raw_request(&mut broker, "second", true));
        let mut written = 0;
        while written < burst.len() {
            match stream.write(&burst[written..]) {
                Ok(n) => written += n,
                Err(StreamError::WouldBlock) => {
                    front.step();
                }
                Err(StreamError::Closed) => panic!("front closed the connection"),
            }
        }
        let mut decoder = FrameDecoder::new();
        let mut replies = Vec::new();
        for _ in 0..1000 {
            front.step();
            decoder.read_from(&stream, 4096).ok();
            while let Some(frame) = decoder.next_frame().unwrap() {
                replies.push(frame.to_vec());
            }
            if replies.len() == 2 {
                break;
            }
        }
        assert_eq!(replies.len(), 2, "both pipelined requests answered");
        for (i, reply) in replies.iter().enumerate() {
            let (status, payload) = decode_conn_reply(reply).unwrap();
            assert_eq!(status, ConnStatus::Ok, "reply {i}");
            // In-order: opening with the session's receive counter only
            // works if replies came back in request order.
            broker.open_results(payload).unwrap();
        }
    }

    /// Attaches a broker session out-of-band (the way [`FramedClient`]
    /// does) so tests can drive raw framed connections.
    fn attach(cluster: &Cluster, seed: u64) -> Broker {
        let client_pub = Broker::client_pub_for_seed(seed);
        let replica = cluster.route(client_pub.as_bytes()).unwrap();
        cluster
            .with_replica(replica, |proxy| {
                Broker::attach(proxy, cluster.ias(), cluster.expected_measurement(), seed)
            })
            .unwrap()
            .unwrap()
    }

    fn write_all(front: &FrontTier, stream: &ByteStream, bytes: &[u8]) {
        let mut written = 0;
        while written < bytes.len() {
            match stream.write(&bytes[written..]) {
                Ok(n) => written += n,
                Err(StreamError::WouldBlock) => {
                    front.step();
                }
                Err(StreamError::Closed) => panic!("front closed the connection"),
            }
        }
    }

    fn read_reply(front: &FrontTier, stream: &ByteStream) -> (ConnStatus, Vec<u8>) {
        let mut decoder = FrameDecoder::new();
        for _ in 0..1000 {
            front.step();
            let _ = decoder.read_from(stream, 4096);
            if let Some(frame) = decoder.next_frame().unwrap() {
                let (status, payload) = decode_conn_reply(frame).unwrap();
                return (status, payload.to_vec());
            }
        }
        panic!("no reply within the step budget");
    }

    #[test]
    fn a_connection_that_changes_channel_key_is_routed_by_each_frames_key() {
        let cluster = fleet(256);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let home = |seed| {
            cluster
                .route(Broker::client_pub_for_seed(seed).as_bytes())
                .unwrap()
        };
        let other = (2..64)
            .find(|&seed| home(seed) != home(1))
            .expect("four replicas share 63 keys");
        // The ring coordinate is kept per connection: a frame under
        // another key must not ride the previous key's coordinate to a
        // replica that holds no such session (→ `UnknownSession`).
        let mut brokers = [attach(&cluster, 1), attach(&cluster, other)];
        let stream = front.accept();
        for turn in [0, 1, 0, 0, 1] {
            let request = raw_request(&mut brokers[turn], "switch", true);
            write_all(&front, &stream, &request);
            let (status, payload) = read_reply(&front, &stream);
            assert_eq!(status, ConnStatus::Ok, "turn under key {turn}");
            brokers[turn].open_results(&payload).unwrap();
        }
    }

    fn survival(cfg: SurvivalConfig) -> FrontConfig {
        FrontConfig {
            survival: cfg,
            ..FrontConfig::default()
        }
    }

    #[test]
    fn handshake_deadline_reaps_a_silent_connection() {
        let cluster = fleet(256);
        let front = FrontTier::new(
            &cluster,
            survival(SurvivalConfig {
                handshake_deadline: 5,
                ..Default::default()
            }),
        );
        let stream = front.accept();
        front.step();
        assert_eq!(front.connections(), 1);
        for _ in 0..8 {
            front.step();
        }
        assert_eq!(front.connections(), 0);
        assert_eq!(timeouts(&cluster, "handshake"), 1.0);
        let mut buf = [0u8; 8];
        assert!(
            matches!(stream.read(&mut buf), Ok(0) | Err(StreamError::Closed)),
            "the reaped peer observes EOF"
        );
    }

    #[test]
    fn read_stall_deadline_reaps_a_mid_frame_peer() {
        let cluster = fleet(256);
        let front = FrontTier::new(
            &cluster,
            survival(SurvivalConfig {
                read_deadline: 4,
                ..Default::default()
            }),
        );
        let stream = front.accept();
        stream.write(&[0xAB, 0xCD]).unwrap();
        for _ in 0..10 {
            front.step();
        }
        assert_eq!(front.connections(), 0);
        assert!(timeouts(&cluster, "read_stall") >= 1.0);
    }

    #[test]
    fn slowloris_dribble_below_minimum_progress_is_closed() {
        let cluster = fleet(256);
        let front = FrontTier::new(
            &cluster,
            survival(SurvivalConfig {
                min_progress_bytes: 4,
                progress_window: 3,
                ..Default::default()
            }),
        );
        let stream = front.accept();
        front.step();
        // One byte per four ticks: mid-frame forever, always below the
        // 4-bytes-per-3-ticks floor, but never hitting a read deadline.
        let mut closed = false;
        for _ in 0..20 {
            if stream.write(&[0x01]).is_err() {
                closed = true;
                break;
            }
            for _ in 0..4 {
                front.step();
            }
            if front.connections() == 0 {
                closed = true;
                break;
            }
        }
        assert!(closed, "the dribbler was never reaped");
        assert!(timeouts(&cluster, "slowloris") >= 1.0);
    }

    #[test]
    fn write_stall_deadline_reaps_a_peer_that_never_drains_and_closes_its_session() {
        let cluster = fleet(256);
        let front = FrontTier::new(
            &cluster,
            FrontConfig {
                stream_capacity: 16,
                survival: SurvivalConfig {
                    write_deadline: 5,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut broker = attach(&cluster, 41);
        assert_eq!(cluster.session_count(), 1);
        let stream = front.accept();
        write_all(&front, &stream, &raw_request(&mut broker, "stall me", true));
        // Never read the reply: the 16-byte ring fills and the flush
        // stalls until the write deadline reaps the connection — which
        // also closes the enclave session behind the channel key.
        for _ in 0..200 {
            front.step();
        }
        assert_eq!(front.connections(), 0);
        assert!(timeouts(&cluster, "write_stall") >= 1.0);
        assert_eq!(metric(&cluster, "sessions_closed", None), 1.0);
        assert_eq!(cluster.session_count(), 0);
    }

    #[test]
    fn protocol_strikes_quarantine_the_channel_key() {
        let cluster = fleet(256);
        let front = FrontTier::new(
            &cluster,
            survival(SurvivalConfig {
                strike_limit: 2,
                quarantine_ticks: 10_000,
                ..Default::default()
            }),
        );
        // Two connections, each: one valid request (so the front learns
        // the channel key), then a junk frame (one strike each). The
        // teardown closes the enclave session, so the hostile client
        // re-attests per connection — but the *channel key* (and its
        // strike count) is the same every time.
        for round in 0..2 {
            let mut broker = attach(&cluster, 77);
            let stream = front.accept();
            write_all(
                &front,
                &stream,
                &raw_request(&mut broker, &format!("warm {round}"), true),
            );
            let (status, _) = read_reply(&front, &stream);
            assert_eq!(status, ConnStatus::Ok);
            let mut framed = Vec::new();
            encode_frame_into(b"junk", &mut framed);
            stream.write(&framed).unwrap();
            for _ in 0..6 {
                front.step();
            }
        }
        assert_eq!(metric(&cluster, "strikes_total", None), 2.0);
        assert_eq!(metric(&cluster, "quarantined_keys_total", None), 1.0);
        // The quarantined key's next request is refused before routing —
        // even with a fresh attestation behind it.
        let mut broker = attach(&cluster, 77);
        let stream = front.accept();
        write_all(&front, &stream, &raw_request(&mut broker, "again", true));
        let (status, _) = read_reply(&front, &stream);
        assert_eq!(status, ConnStatus::Unavailable);
        assert_eq!(metric(&cluster, "quarantine_rejects", None), 1.0);
        front.step();
        assert_eq!(front.connections(), 0, "quarantined conns are closed");
    }

    #[test]
    fn frame_quota_closes_a_request_flooder() {
        let cluster = fleet(256);
        let front = FrontTier::new(
            &cluster,
            survival(SurvivalConfig {
                max_frames: 2,
                ..Default::default()
            }),
        );
        let mut broker = attach(&cluster, 88);
        let stream = front.accept();
        for i in 0..2 {
            write_all(&front, &stream, &raw_request(&mut broker, "q", true));
            let (status, _) = read_reply(&front, &stream);
            assert_eq!(status, ConnStatus::Ok, "request {i} within quota");
        }
        write_all(&front, &stream, &raw_request(&mut broker, "q", true));
        let (status, _) = read_reply(&front, &stream);
        assert_eq!(status, ConnStatus::Protocol, "over-quota answer");
        assert_eq!(metric(&cluster, "quota_closes", None), 1.0);
        front.step();
        assert_eq!(front.connections(), 0);
    }

    #[test]
    fn byte_quota_closes_a_mid_frame_flooder() {
        let cluster = fleet(256);
        let front = FrontTier::new(
            &cluster,
            survival(SurvivalConfig {
                max_bytes: 512,
                ..Default::default()
            }),
        );
        let stream = front.accept();
        // A huge announced frame keeps everything mid-frame; the byte
        // quota, not the frame parser, must stop the flood.
        stream.write(&(1u32 << 19).to_le_bytes()).unwrap();
        let junk = [0xEE; 256];
        let mut flooded = 0usize;
        while flooded < 4096 {
            match stream.write(&junk) {
                Ok(n) => flooded += n,
                Err(StreamError::WouldBlock) => {
                    front.step();
                }
                Err(StreamError::Closed) => break,
            }
            front.step();
        }
        for _ in 0..4 {
            front.step();
        }
        assert_eq!(front.connections(), 0);
        assert_eq!(metric(&cluster, "quota_closes", None), 1.0);
    }

    #[test]
    fn overwatermark_shedding_follows_the_class_ladder() {
        let cluster = fleet(256);
        let front = FrontTier::new(
            &cluster,
            survival(SurvivalConfig {
                max_conns_per_shard: 2,
                ..Default::default()
            }),
        );
        let mut broker = attach(&cluster, 99);
        let stream = front.accept();
        write_all(&front, &stream, &raw_request(&mut broker, "warm", true));
        let (status, _) = read_reply(&front, &stream);
        assert_eq!(status, ConnStatus::Ok);
        // Two silent newcomers push the shard over the watermark; the
        // unattested ones are shed, the established session survives.
        let _b = front.accept();
        let _c = front.accept();
        for _ in 0..3 {
            front.step();
        }
        assert_eq!(front.connections(), 2);
        assert_eq!(sheds(&cluster, "unattested"), 1.0);
        assert_eq!(sheds(&cluster, "established"), 0.0);
        write_all(
            &front,
            &stream,
            &raw_request(&mut broker, "still here", true),
        );
        let (status, _) = read_reply(&front, &stream);
        assert_eq!(
            status,
            ConnStatus::Ok,
            "the established session still works"
        );
    }

    #[test]
    fn drain_rejects_new_requests_and_resume_readopts_held_accepts() {
        let cluster = fleet(256);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let mut broker = attach(&cluster, 111);
        let stream = front.accept();
        write_all(&front, &stream, &raw_request(&mut broker, "before", true));
        let (status, _) = read_reply(&front, &stream);
        assert_eq!(status, ConnStatus::Ok);
        front.drain_shard(0);
        assert!(front.shard_draining(0));
        // Accepts while draining are held in the mailbox, not adopted.
        let held = front.accept();
        for _ in 0..3 {
            front.step();
        }
        assert_eq!(front.connections(), 1);
        // A new request on a live conn is answered Unavailable.
        write_all(&front, &stream, &raw_request(&mut broker, "during", true));
        let (status, _) = read_reply(&front, &stream);
        assert_eq!(status, ConnStatus::Unavailable);
        assert_eq!(metric(&cluster, "drain_rejects", None), 1.0);
        for _ in 0..2 {
            front.step();
        }
        assert_eq!(front.connections(), 0, "drained conns close after flush");
        // Resume re-adopts the held accept.
        front.resume_shard(0);
        assert!(!front.shard_draining(0));
        front.step();
        assert_eq!(front.connections(), 1, "held accept re-adopted");
        drop(held);
    }

    #[test]
    fn disconnects_and_the_reaper_bound_enclave_sessions() {
        let cluster = fleet(256);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let mut client = FramedClient::connect(&cluster, &front, 301).unwrap();
        client
            .search_with("hello", true, step_pump(&front))
            .unwrap();
        // A handshake-and-vanish session: attested out-of-band, never
        // sends a framed request, so no disconnect will ever name it.
        let _leaker = attach(&cluster, 302);
        assert_eq!(cluster.session_count(), 2);
        client.close();
        for _ in 0..4 {
            front.step();
        }
        assert_eq!(
            cluster.session_count(),
            1,
            "disconnect closed the framed session"
        );
        assert_eq!(metric(&cluster, "sessions_closed", None), 1.0);
        // The TTL reaper clears the leaker: first sweep ages it within
        // the TTL, the second puts it past.
        assert_eq!(cluster.reap_sessions(1), 0);
        assert_eq!(cluster.reap_sessions(1), 1);
        assert_eq!(cluster.session_count(), 0);
    }

    mod adversarial {
        use super::*;
        use proptest::prelude::*;
        use xsearch_net_sim::fault::{FaultPlan, FaultSpec};

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]

            /// Arbitrary hostile bytes never panic the front; every
            /// reply it produces is a typed error status, and the
            /// connection always ends in a clean teardown.
            #[test]
            fn hostile_bytes_never_panic_and_end_in_a_typed_close(
                chunks in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..64usize),
                    1..10usize,
                )
            ) {
                let cluster = fleet(64);
                let front = FrontTier::new(
                    &cluster,
                    FrontConfig {
                        survival: SurvivalConfig::hardened(),
                        ..FrontConfig::default()
                    },
                );
                let stream = front.accept();
                front.step();
                for chunk in &chunks {
                    let _ = stream.write(chunk);
                    front.step();
                    front.step();
                }
                let mut decoder = FrameDecoder::new();
                let _ = decoder.read_from(&stream, 1 << 16);
                while let Ok(Some(frame)) = decoder.next_frame() {
                    let (status, _) = decode_conn_reply(frame).unwrap();
                    prop_assert_ne!(status, ConnStatus::Ok);
                }
                stream.close();
                for _ in 0..4 {
                    front.step();
                }
                prop_assert_eq!(front.connections(), 0);
            }

            /// After a shed (or fault-dropped) request, re-attesting and
            /// retrying always recovers — even while the fleet runs
            /// under an active loss + stalled-replica fault plan.
            #[test]
            fn reattach_after_shed_recovers_under_loss_and_stall(seed in 0u64..64) {
                let plan = Arc::new(FaultPlan::new(
                    FaultSpec {
                        loss: 0.1,
                        stalled: vec![1],
                        stall: Duration::from_millis(1),
                        ..Default::default()
                    },
                    11,
                    4,
                ));
                let engine = Arc::new(SearchEngine::build(&CorpusConfig {
                    docs_per_topic: 5,
                    ..Default::default()
                }));
                let cluster = Arc::new(Cluster::launch(
                    engine,
                    ClusterConfig {
                        replicas: 4,
                        queue_limit: 1,
                        proxy: XSearchConfig {
                            k: 2,
                            ..Default::default()
                        },
                        faults: Some(plan),
                        ..Default::default()
                    },
                ));
                let front = FrontTier::new(&cluster, FrontConfig::default());
                let mut client = FramedClient::connect(&cluster, &front, 7_000 + seed).unwrap();
                // Occupy the single admission slot: the framed request
                // is shed (or dropped by injected loss first) — either
                // way the client sees a typed error.
                let node = Arc::clone(cluster.node(client.replica()).unwrap());
                prop_assert!(node.try_enter(1));
                let err = client
                    .search_with("shed me", true, step_pump(&front))
                    .unwrap_err();
                prop_assert!(
                    matches!(
                        err,
                        ClusterError::Overloaded(_) | ClusterError::NoReplicasAvailable
                    ),
                    "got {err:?}"
                );
                node.exit();
                // Recovery must land within a bounded number of
                // re-attest + retry rounds despite 10% injected loss.
                let mut recovered = false;
                for _ in 0..50 {
                    if client.reattach(&cluster).is_err() {
                        continue;
                    }
                    if client
                        .search_with("after shed", true, step_pump(&front))
                        .is_ok()
                    {
                        recovered = true;
                        break;
                    }
                }
                prop_assert!(recovered, "never recovered under the fault plan");
            }
        }
    }

    #[test]
    fn idle_sessions_stay_within_the_accounted_byte_budget() {
        let cluster = fleet(256);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let mut clients: Vec<FramedClient> = (0..32)
            .map(|i| FramedClient::connect(&cluster, &front, 100 + i).unwrap())
            .collect();
        for client in &mut clients {
            client.search_with("warm", true, step_pump(&front)).unwrap();
        }
        let (sessions, bytes) = front.account_idle();
        assert_eq!(sessions, 32);
        let per_session = bytes / sessions;
        assert!(
            per_session <= IDLE_SESSION_BYTE_BUDGET,
            "idle session costs {per_session} B, budget {IDLE_SESSION_BYTE_BUDGET} B"
        );
    }

    #[test]
    fn threaded_front_serves_clients_without_manual_stepping() {
        let cluster = fleet(256);
        let front = FrontTier::new(
            &cluster,
            FrontConfig {
                shards: 2,
                ..Default::default()
            },
        );
        front.spawn();
        let mut clients: Vec<FramedClient> = (0..8)
            .map(|i| FramedClient::connect(&cluster, &front, 500 + i).unwrap())
            .collect();
        for (i, client) in clients.iter_mut().enumerate() {
            client
                .search_with(&format!("threaded {i}"), true, std::thread::yield_now)
                .unwrap();
        }
        front.shutdown();
    }
}
