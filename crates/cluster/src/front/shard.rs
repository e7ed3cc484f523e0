//! The front's one shard: a slab of connections, their readiness queue,
//! and the sweeps that *ask* [`super::survival`] what to do with a
//! connection and *act* on the answer.

use super::conn::{Conn, Disposition, ShardCore};
use super::survival::{ConnState, Defense, Limits, SurvivalConfig, TimeoutKind, Verdict};
use super::FrontStats;
use crate::fleet::Cluster;
use std::mem;
use std::sync::Arc;
use xsearch_net_sim::{ByteStream, Event, Interest, Reactor, Token};

/// Live connection slots a shard examines for expired deadlines per
/// step — the sweep is incremental so a million-connection shard never
/// stalls its event loop on lifecycle bookkeeping.
const SWEEP_CHUNK: usize = 1024;

pub(super) struct Shard {
    pub(super) core: ShardCore,
    reactor: Reactor,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
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
    ) -> Self {
        Shard {
            core: ShardCore {
                cluster,
                stats,
                tick: 0,
                defense: survival.0.map(Defense::new),
            },
            reactor: Reactor::new(),
            conns: Vec::new(),
            free: Vec::new(),
            events: Vec::new(),
            sweep_cursor: 0,
        }
    }

    fn adopt(&mut self, accepted: Vec<ByteStream>) -> usize {
        let adopted = accepted.len();
        for stream in accepted {
            let idx = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            let reg = self
                .reactor
                .register(&stream, Token(idx as u64), Interest::READABLE);
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

    /// One iteration of the shard loop: adopt `accepted`, poll readiness,
    /// pump ready connections (each serving its decoded request inline),
    /// then, if the survival policy is on, enforce deadlines and the
    /// high-water mark.
    /// Returns the number of externally visible progress events.
    pub(super) fn step(&mut self, accepted: Vec<ByteStream>) -> usize {
        self.core.tick += 1;
        let mut progress = self.adopt(accepted);

        let mut events = mem::take(&mut self.events);
        self.reactor.poll(&mut events);
        for ev in &events {
            progress += 1;
            self.pump(ev.token.0 as usize);
        }
        events.clear();
        self.events = events;

        if let Some(defense) = &mut self.core.defense {
            defense.book.sweep(self.core.tick);
            let limits = defense.limits;
            self.enforce_deadlines(&limits);
            self.shed_over_watermark(&limits);
        }
        progress
    }

    /// Examines up to [`SWEEP_CHUNK`] live slots for expired lifecycle
    /// deadlines and minimum-progress violations.
    fn enforce_deadlines(&mut self, limits: &Limits) {
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
            let kind = match limits.verdict(&conn.facts(), now) {
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
    fn shed_over_watermark(&mut self, limits: &Limits) {
        let live = self.conns.len() - self.free.len();
        let excess = limits.excess(live);
        if excess == 0 {
            return;
        }
        let mut candidates: Vec<((u8, u64), usize)> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(idx, slot)| Some((slot.as_ref()?.facts().shed_rank(), idx)))
            .collect();
        candidates.sort_unstable();
        for (_, idx) in candidates.into_iter().take(excess) {
            let conn = self.conns[idx].take().expect("candidates are live slots");
            self.core.stats.sheds[conn.class as usize].inc();
            self.retire(idx, conn);
        }
    }

    /// Runs `idx`'s state machine until it blocks (on bytes or on ring
    /// space) or closes.
    fn pump(&mut self, idx: usize) {
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        if conn.run(&mut self.core) == Disposition::Keep {
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
