//! One reactor shard: a slab of connections, their readiness queue, the
//! bookkeeping to drive lanes and collect deliveries, and the sweeps
//! that *ask* [`super::survival`] what to do with a connection and *act*
//! on the answer.

use super::conn::{Conn, Disposition, ShardCore};
use super::survival::{ConnState, StrikeBook, SurvivalConfig, TimeoutKind, Verdict};
use super::FrontStats;
use crate::fleet::Cluster;
use std::mem;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use xsearch_net_sim::{ByteStream, Event, Interest, Reactor, Registration, Token};

/// Park horizon while deliveries are outstanding, and the bound on how
/// long one can wait: a foreign turn-holder may complete our slots
/// without waking this shard, or leave our entries queued for the
/// re-drive every step gives a still-awaiting connection's replica —
/// either way the next step must come soon.
const PARK_AWAITING: Duration = Duration::from_micros(200);

/// Token 0 is each shard's notify stream; connections start at 1.
const NOTIFY_TOKEN: u64 = 0;

/// Live connection slots a shard examines for expired deadlines per
/// step — the sweep is incremental so a million-connection shard never
/// stalls its event loop on lifecycle bookkeeping.
const SWEEP_CHUNK: usize = 1024;

pub(super) struct Shard {
    pub(super) core: ShardCore,
    reactor: Reactor,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Server end of the wake pair; readable ⇒ re-check `accepts`.
    notify_rx: ByteStream,
    /// Keeps the notify registration (and its readiness edge) alive.
    _notify_reg: Registration,
    /// Handed to us by [`super::FrontTier::accept`] under its own lock.
    accepts: Arc<Mutex<Vec<ByteStream>>>,
    /// Scratch event buffer, reused across steps.
    events: Vec<Event>,
    /// Incremental deadline sweep position (at most [`SWEEP_CHUNK`]
    /// slots are examined per step).
    sweep_cursor: usize,
}

impl Shard {
    pub(super) fn new(
        cluster: Arc<Cluster>,
        survival: SurvivalConfig,
        stats: Arc<FrontStats>,
        accepts: Arc<Mutex<Vec<ByteStream>>>,
        notify_rx: ByteStream,
        draining: Arc<AtomicBool>,
    ) -> Self {
        let reactor = Reactor::new();
        let notify_reg = reactor.register(&notify_rx, Token(NOTIFY_TOKEN), Interest::READABLE);
        Shard {
            core: ShardCore {
                book: StrikeBook::new(&survival),
                cluster,
                survival,
                stats,
                tick: 0,
                draining,
                awaiting: Vec::new(),
                dirty: Vec::new(),
            },
            reactor,
            conns: Vec::new(),
            free: Vec::new(),
            notify_rx,
            _notify_reg: notify_reg,
            accepts,
            events: Vec::new(),
            sweep_cursor: 0,
        }
    }

    fn adopt_accepts(&mut self) -> usize {
        let newly = mem::take(&mut *self.accepts.lock().unwrap_or_else(PoisonError::into_inner));
        let adopted = newly.len();
        for stream in newly {
            let idx = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let token = Token(idx as u64 + 1);
            let reg = self.reactor.register(&stream, token, Interest::READABLE);
            debug_assert!(self.conns[idx].is_none());
            self.conns[idx] = Some(Conn::new(stream, reg, self.core.tick));
            self.core.stats.enter(ConnState::Idle);
        }
        adopted
    }

    /// Tears one connection down: deregisters, closes the stream, and
    /// best-effort closes the enclave session behind the channel key it
    /// proved, so a disconnect does not leak session state until the TTL
    /// reaper (which stays the backstop for sessions never proven here).
    fn retire(&mut self, idx: usize, conn: Conn) {
        self.reactor.deregister(&conn.stream, &conn.reg);
        conn.stream.close();
        self.core.stats.exit(conn.state);
        if let Some(key) = conn.proven_key() {
            if self.core.cluster.close_session(&key) {
                self.core.stats.sessions_closed.inc();
            }
        }
        self.free.push(idx);
    }

    /// One iteration of the shard loop: adopt accepts, poll readiness,
    /// pump ready connections, drive dirty lanes, collect deliveries.
    /// Returns the number of externally visible progress events.
    pub(super) fn step(&mut self, park: Option<Duration>) -> usize {
        self.core.tick += 1;
        // A draining shard holds accepts in the mailbox instead of
        // adopting them; they are re-adopted wholesale on resume.
        let draining = self.core.draining.load(Ordering::Relaxed);
        let mut progress = if draining { 0 } else { self.adopt_accepts() };

        let mut events = mem::take(&mut self.events);
        match park {
            None => self.reactor.poll(&mut events),
            Some(t) if self.core.awaiting.is_empty() => self.reactor.poll_wait(&mut events, t),
            Some(_) => self.reactor.poll_wait(&mut events, PARK_AWAITING),
        };
        for ev in &events {
            if ev.token.0 == NOTIFY_TOKEN {
                let mut junk = [0u8; 64];
                while matches!(self.notify_rx.read(&mut junk), Ok(n) if n > 0) {}
                if !self.core.draining.load(Ordering::Relaxed) {
                    progress += self.adopt_accepts();
                }
                continue;
            }
            progress += 1;
            let idx = ev.token.0 as usize - 1;
            self.pump(idx);
        }
        events.clear();
        self.events = events;

        for id in mem::take(&mut self.core.dirty) {
            self.core.cluster.drive_lane(id);
        }

        let pending = mem::take(&mut self.core.awaiting);
        for idx in pending {
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.in_awaiting = false;
            }
            self.pump(idx);
        }

        if self.core.survival.any_deadline() {
            self.enforce_deadlines();
        }
        self.core.book.sweep(self.core.tick);
        self.shed_over_watermark();
        progress
    }

    /// Examines up to [`SWEEP_CHUNK`] live slots for expired lifecycle
    /// deadlines and minimum-progress violations.
    fn enforce_deadlines(&mut self) {
        let len = self.conns.len();
        if len == 0 {
            return;
        }
        let now = self.core.tick;
        let span = len.min(SWEEP_CHUNK);
        let start = self.sweep_cursor % len;
        self.sweep_cursor = (start + span) % len;
        for off in 0..span {
            let idx = (start + off) % len;
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            let kind = match self.core.survival.verdict(&conn.facts(), now) {
                Verdict::Keep => continue,
                Verdict::ResetWindow => {
                    conn.reset_window(now);
                    continue;
                }
                Verdict::Reap(kind) => kind,
            };
            self.core.stats.timeouts[kind as usize].inc();
            let conn = self.conns[idx].take().expect("slot checked above");
            // A slowloris dribble is deliberate misbehavior: strike the
            // key (if proven) so repeat offenders reach quarantine. The
            // other deadlines are treated as benign peer failures.
            if kind == TimeoutKind::Slowloris {
                if let Some(key) = conn.proven_key() {
                    self.core.strike(key);
                }
            }
            self.retire(idx, conn);
        }
    }

    /// Sheds the connections above the high-water mark, if any, down the
    /// class ladder ([`super::survival::Facts::shed_rank`]).
    fn shed_over_watermark(&mut self) {
        let live = self.conns.len() - self.free.len();
        let excess = self.core.survival.excess(live);
        if excess == 0 {
            return;
        }
        let mut candidates: Vec<((u8, u64), usize)> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| Some((slot.as_ref()?.facts().shed_rank()?, idx)))
            .collect();
        candidates.sort_unstable();
        for (_, idx) in candidates.into_iter().take(excess) {
            let conn = self.conns[idx].take().expect("candidates are live slots");
            self.core.stats.sheds[conn.class as usize].inc();
            self.retire(idx, conn);
        }
    }

    /// Runs `idx`'s state machine until it blocks (on bytes, on ring
    /// space, or on an enclave delivery) or closes.
    fn pump(&mut self, idx: usize) {
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        if conn.run(idx, &mut self.core) == Disposition::Keep {
            self.conns[idx] = Some(conn);
        } else {
            self.retire(idx, conn);
        }
    }

    /// Sums accounted bytes over currently-idle sessions.
    pub(super) fn idle_footprint(&self) -> (usize, usize) {
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
