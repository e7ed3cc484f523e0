//! One framed connection's state machine: bytes ↔ frames ↔ enclave.
//!
//! ```text
//! Idle ──bytes──▶ Reading ──frame + Cluster::forward──▶ Writing ──flushed──▶ Idle
//! ```
//!
//! A decoded request goes through [`Cluster::forward`] inline, one
//! `request` ecall, and its reply (or refusal) is queued at once. A
//! [`Conn`] runs until it blocks — on bytes or on ring space — or
//! closes. What it may touch of the shard that owns it is exactly the
//! [`ShardCore`].

use super::survival::{ConnClass, ConnState, Defense, Facts};
use super::FrontStats;
use crate::error::ClusterError;
use crate::fleet::Cluster;
use crate::placement::key_coord;
use std::mem;
use std::sync::Arc;
use xsearch_core::wire::{decode_conn_request, encode_conn_reply_into, ConnStatus};
use xsearch_net_sim::{
    ByteStream, FrameDecoder, FrameEncoder, Interest, Registration, StreamError,
};

/// Most bytes one readable event may pull off a connection before the
/// shard yields back to the reactor (level-triggered re-poll resumes).
const READ_BURST: usize = 4;

/// Bytes pulled from a connection per `read` call; one readable event
/// reads at most [`READ_BURST`] times this.
const READ_BUDGET: usize = 4096;

/// Frame size ceiling; an announced length beyond it tears the
/// connection down ([`xsearch_net_sim::FrameError::TooLarge`]).
const MAX_FRAME: usize = 1 << 20;

/// A reply frame mid-flush: the encoder survives partial writes, the
/// payload is owned here (status byte + sealed response).
#[derive(Debug)]
struct Reply {
    encoder: FrameEncoder,
    payload: Vec<u8>,
}

/// One framed connection's state machine.
#[derive(Debug)]
pub(super) struct Conn {
    pub(super) stream: ByteStream,
    pub(super) reg: Registration,
    decoder: FrameDecoder,
    reply: Option<Reply>,
    pub(super) state: ConnState,
    /// Peer reached end-of-stream (or the ring closed under us).
    eof: bool,
    /// Tear the connection down once the pending reply flushes.
    close_after_flush: bool,
    /// Shed-ladder class (see [`ConnClass`]).
    pub(super) class: ConnClass,
    /// Channel key the most recent well-formed request *claimed* —
    /// visible on the wire, so anyone can name anyone's.
    channel_key: Option<[u8; 32]>,
    /// A request under `channel_key` was answered [`ConnStatus::Ok`] on
    /// this connection: its AEAD opened inside the enclave, so the peer
    /// holds the session's keys (see [`Conn::proven_key`]).
    key_proven: bool,
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

/// What one frame parsed into (borrow-free so state can change after).
enum Parsed {
    /// Not enough buffered bytes yet.
    NeedMore,
    /// The framing layer itself gave up (oversized announcement).
    Unframeable,
    /// A complete frame that was not a valid request.
    Malformed,
    /// A well-formed request, copied out of the decoder's buffer.
    Request {
        client_pub: [u8; 32],
        echo: bool,
        ciphertext: Vec<u8>,
    },
}

/// Whether a pumped connection stays in the slab.
#[derive(PartialEq)]
pub(super) enum Disposition {
    Keep,
    Close,
}

/// The part of a shard a running connection may touch: the fleet, the
/// clock, the survival policy, and the instruments. The slab and the
/// reactor stay with the shard.
pub(super) struct ShardCore {
    pub cluster: Arc<Cluster>,
    pub stats: Arc<FrontStats>,
    /// Logical clock: one tick per shard step. Every survival deadline
    /// is expressed in these.
    pub tick: u64,
    /// The survival policy's limits and strike book; `None` when the
    /// policy is off.
    pub defense: Option<Defense>,
}

impl ShardCore {
    /// Counts a protocol-error strike against `key`; a defended shard
    /// also records it, and at the limit the key moves into quarantine.
    pub(super) fn strike(&mut self, key: [u8; 32]) {
        self.stats.strikes.inc();
        if let Some(defense) = &mut self.defense {
            if defense.book.strike(key, self.tick) {
                self.stats.quarantined_keys.inc();
            }
        }
    }
}

impl Conn {
    pub(super) fn new(stream: ByteStream, reg: Registration, tick: u64) -> Self {
        Conn {
            stream,
            reg,
            decoder: FrameDecoder::with_max_frame(MAX_FRAME),
            reply: None,
            state: ConnState::Idle,
            eof: false,
            close_after_flush: false,
            class: ConnClass::Unattested,
            channel_key: None,
            key_proven: false,
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

    /// What the survival policy may know about this connection.
    #[inline]
    pub(super) fn facts(&self) -> Facts {
        Facts {
            state: self.state,
            class: self.class,
            opened_tick: self.opened_tick,
            last_read_tick: self.last_read_tick,
            last_write_tick: self.last_write_tick,
            window_start_tick: self.window_start_tick,
            window_bytes: self.window_bytes,
        }
    }

    /// Starts a fresh minimum-progress window at `tick`.
    #[inline]
    pub(super) fn reset_window(&mut self, tick: u64) {
        self.window_start_tick = tick;
        self.window_bytes = 0;
    }

    /// Routes the connection by `key`, the channel key the request just
    /// parsed claims. A changed key has everything to prove again.
    fn set_channel_key(&mut self, key: [u8; 32]) {
        if self.channel_key != Some(key) {
            self.channel_key = Some(key);
            self.key_proven = false;
            self.ring_coord = key_coord(&key);
        }
    }

    /// The channel key this connection has shown to be its own: the only
    /// one its misbehavior may strike or its teardown close the session of.
    pub(super) fn proven_key(&self) -> Option<[u8; 32]> {
        self.channel_key.filter(|_| self.key_proven)
    }

    /// Accounted heap footprint of this session (slab slot + stream
    /// core + buffers + registration).
    pub(super) fn mem_bytes(&self) -> usize {
        let mut bytes = mem::size_of::<Option<Conn>>();
        bytes += self.stream.mem_bytes();
        bytes += self.decoder.mem_bytes();
        bytes += self.reg.mem_bytes();
        if let Some(reply) = &self.reply {
            bytes += reply.payload.capacity();
        }
        bytes
    }

    fn set_state(&mut self, stats: &FrontStats, next: ConnState) {
        if self.state != next {
            stats.exit(self.state);
            stats.enter(next);
            self.state = next;
        }
    }

    fn queue_reply(&mut self, stats: &FrontStats, status: ConnStatus, payload: &[u8]) {
        let mut framed = Vec::new();
        encode_conn_reply_into(status, payload, &mut framed);
        self.reply = Some(Reply {
            encoder: FrameEncoder::new(framed.len()),
            payload: framed,
        });
        self.set_state(stats, ConnState::Writing);
        self.reg.set_interest(Interest::WRITABLE);
    }

    /// Answers a refused or failed request with its framed error status —
    /// one mapping, whichever tier said no.
    fn queue_refusal(&mut self, stats: &FrontStats, err: &ClusterError) {
        let status = err.conn_status();
        if status == ConnStatus::Overloaded {
            stats.overloaded.inc();
        }
        self.queue_reply(stats, status, &[]);
    }

    /// Marks the connection misbehaving and strikes its channel key, if
    /// it has proven one.
    fn punish(&mut self, core: &mut ShardCore) {
        self.class = ConnClass::Misbehaving;
        if let Some(key) = self.proven_key() {
            core.strike(key);
        }
    }

    /// Queues `status` as this connection's last word.
    fn refuse(&mut self, stats: &FrontStats, status: ConnStatus) {
        self.close_after_flush = true;
        self.queue_reply(stats, status, &[]);
    }

    /// Runs the state machine until it blocks or closes.
    #[inline]
    #[allow(clippy::too_many_lines)]
    pub(super) fn run(&mut self, core: &mut ShardCore) -> Disposition {
        loop {
            match self.state {
                ConnState::Writing => {
                    let reply = self.reply.as_mut().expect("Writing implies a reply");
                    if self.eof {
                        // Peer gone: the reply is undeliverable.
                        return Disposition::Close;
                    }
                    let before = reply.encoder.remaining();
                    match reply.encoder.write_to(&self.stream, &reply.payload) {
                        Ok(done) => {
                            let wrote = before - reply.encoder.remaining();
                            core.stats.bytes_out.add(wrote as u64);
                            if wrote > 0 {
                                self.last_write_tick = core.tick;
                            }
                            if !done {
                                // Ring full: wait for the peer to drain.
                                self.reg.set_interest(Interest::WRITABLE);
                                return Disposition::Keep;
                            }
                            core.stats.frames_out.inc();
                            self.reply = None;
                            if self.close_after_flush {
                                return Disposition::Close;
                            }
                            // Back to reading; buffered pipelined
                            // frames are handled on the next loop turn.
                            self.set_state(&core.stats, ConnState::Idle);
                            self.reg.set_interest(Interest::READABLE);
                        }
                        Err(_) => return Disposition::Close,
                    }
                }
                ConnState::Idle | ConnState::Reading => {
                    if !self.eof {
                        for _ in 0..READ_BURST {
                            match self.decoder.read_from(&self.stream, READ_BUDGET) {
                                Ok(0) => {
                                    self.eof = true;
                                    break;
                                }
                                Ok(n) => {
                                    core.stats.bytes_in.add(n as u64);
                                    self.last_read_tick = core.tick;
                                    self.window_bytes += n;
                                    self.bytes += n as u64;
                                }
                                Err(StreamError::WouldBlock) => break,
                                Err(StreamError::Closed) => {
                                    self.eof = true;
                                    break;
                                }
                            }
                        }
                    }
                    let parsed = match self.decoder.next_frame() {
                        Ok(None) => Parsed::NeedMore,
                        Ok(Some(frame)) => {
                            core.stats.frames_in.inc();
                            self.frames += 1;
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
                    let defense = core.defense.as_ref();
                    if defense.is_some_and(|d| d.limits.over_quota(self.frames, self.bytes)) {
                        core.stats.quota_closed.inc();
                        if let Parsed::Request { client_pub, .. } = &parsed {
                            self.set_channel_key(*client_pub);
                        }
                        self.punish(core);
                        if matches!(parsed, Parsed::NeedMore) {
                            return Disposition::Close;
                        }
                        self.refuse(&core.stats, ConnStatus::Protocol);
                        continue;
                    }
                    match parsed {
                        Parsed::Request {
                            client_pub,
                            echo,
                            ciphertext,
                        } => {
                            self.set_channel_key(client_pub);
                            // Quarantined keys are refused before any
                            // routing or admission work happens.
                            let defense = core.defense.as_ref();
                            if defense.is_some_and(|d| d.book.banned(&client_pub, core.tick)) {
                                core.stats.quarantine_rejects.inc();
                                self.class = ConnClass::Misbehaving;
                                self.refuse(&core.stats, ConnStatus::Unavailable);
                                continue;
                            }
                            let cluster = &core.cluster;
                            // The client sealed before its bytes got
                            // here; `seal` only hands the frame over.
                            let forwarded = cluster.route_at(self.ring_coord).and_then(|id| {
                                cluster.forward(id, echo, || (client_pub, ciphertext))
                            });
                            // Admitted to a replica: served, or refused
                            // by the enclave itself.
                            let admitted = matches!(forwarded, Ok(_) | Err(ClusterError::Proxy(_)));
                            if admitted && self.class == ConnClass::Unattested {
                                self.class = ConnClass::Established;
                            }
                            match forwarded {
                                // Peer gone: the answer is undeliverable
                                // and proves nothing.
                                Ok(_) if self.eof => return Disposition::Close,
                                Ok((payload, _charge)) => {
                                    self.key_proven = true;
                                    self.queue_reply(&core.stats, ConnStatus::Ok, &payload);
                                }
                                Err(err) => self.queue_refusal(&core.stats, &err),
                            }
                        }
                        Parsed::Malformed | Parsed::Unframeable => {
                            core.stats.protocol_errors.inc();
                            self.punish(core);
                            self.refuse(&core.stats, ConnStatus::Protocol);
                        }
                        Parsed::NeedMore => {
                            if self.eof {
                                if self.decoder.finish().is_err() {
                                    core.stats.torn.inc();
                                }
                                return Disposition::Close;
                            }
                            if self.decoder.is_mid_frame() {
                                // Each mid-frame stint gets a fresh
                                // minimum-progress window.
                                if self.state != ConnState::Reading {
                                    self.reset_window(core.tick);
                                }
                                self.set_state(&core.stats, ConnState::Reading);
                            } else {
                                self.set_state(&core.stats, ConnState::Idle);
                                // Idle sessions must not pin a burst's
                                // high-water mark.
                                self.decoder.shrink();
                                self.stream.shrink();
                            }
                            self.reg.set_interest(Interest::READABLE);
                            return Disposition::Keep;
                        }
                    }
                }
            }
        }
    }
}
