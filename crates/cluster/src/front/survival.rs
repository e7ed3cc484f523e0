//! The front's survival policy as a decision table: plain integers in,
//! a verdict out.
//!
//! Nothing here touches a socket, a counter or the fleet. The shard
//! gathers a connection's [`Facts`], asks, and acts on the answer
//! (`shard.rs`); a test asks with the integers it likes. The policy is
//! on or off as a whole: off, the shard asks nothing; on, every defense
//! runs at the limits in `HARDENED`.

use std::collections::HashMap;

/// Whether the front defends its connections. The default profile is
/// off: the million-idle-session scaling bench measures the undefended
/// cost, and existing callers see no behavior change. The `front_chaos`
/// bench defends with [`SurvivalConfig::hardened`].
#[derive(Debug, Clone, Default)]
pub struct SurvivalConfig(pub(super) Option<Limits>);

impl SurvivalConfig {
    /// The defended profile: every lifecycle deadline, the minimum
    /// progress rate, the lifetime quotas, channel-key quarantine and
    /// classed shedding, at the limits of `HARDENED`.
    #[must_use]
    pub fn hardened() -> Self {
        SurvivalConfig(Some(HARDENED))
    }
}

/// The limits of the defended profile, all expressed on the front's
/// **logical tick clock**: one tick per front step, which makes every
/// deadline deterministic when one thread steps (the replay gate runs
/// there) and as fine as its callers' step rate when many do.
#[derive(Debug, Clone, Copy)]
pub(super) struct Limits {
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
    /// deliver at least this many bytes every `progress_window` ticks —
    /// a one-byte dribble that beats the read-stall deadline still dies
    /// here.
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
    /// are answered `Unavailable` and the connection is closed); also
    /// how long a strike is remembered without another one following.
    pub quarantine_ticks: u64,
    /// Per-shard live-connection high-water mark; above it the shard
    /// sheds by class: misbehaving, then unattested, then oldest-idle
    /// established.
    pub max_conns_per_shard: usize,
}

/// The defended profile's limits: deadlines tight enough to reap a
/// hostile population within a few hundred ticks, quotas far above
/// anything a legitimate session does, three strikes to quarantine.
pub(super) const HARDENED: Limits = Limits {
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
};

impl Limits {
    /// What the deadline sweep does with a connection at tick `now`.
    /// A deadline of `d` ticks tolerates exactly `d` quiet ticks.
    pub(super) fn verdict(&self, c: &Facts, now: u64) -> Verdict {
        let overdue = |deadline: u64, since: u64| now.saturating_sub(since) > deadline;
        let reap = match c.state {
            ConnState::Writing => {
                overdue(self.write_deadline, c.last_write_tick).then_some(TimeoutKind::WriteStall)
            }
            ConnState::Reading if overdue(self.read_deadline, c.last_read_tick) => {
                Some(TimeoutKind::ReadStall)
            }
            ConnState::Reading
                if now.saturating_sub(c.window_start_tick) >= self.progress_window =>
            {
                if c.window_bytes >= self.min_progress_bytes {
                    return Verdict::ResetWindow;
                }
                Some(TimeoutKind::Slowloris)
            }
            ConnState::Reading => None,
            ConnState::Idle => match c.class {
                ConnClass::Established => {
                    overdue(self.idle_deadline, c.last_activity()).then_some(TimeoutKind::Idle)
                }
                ConnClass::Unattested | ConnClass::Misbehaving => {
                    overdue(self.handshake_deadline, c.opened_tick)
                        .then_some(TimeoutKind::Handshake)
                }
            },
        };
        reap.map_or(Verdict::Keep, Verdict::Reap)
    }

    /// Whether a lifetime frame or byte quota is exhausted.
    #[inline]
    pub(super) fn over_quota(&self, frames: u64, bytes: u64) -> bool {
        frames > self.max_frames || bytes > self.max_bytes
    }

    /// How many of a shard's `live` connections stand above the
    /// high-water mark and must be shed.
    #[inline]
    pub(super) fn excess(&self, live: usize) -> usize {
        live.saturating_sub(self.max_conns_per_shard)
    }
}

/// Where a connection's state machine currently is. Exposed for the
/// per-state telemetry gauges and the scaling bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// No buffered input, nothing to write.
    Idle,
    /// A frame has started arriving but is not yet complete.
    Reading,
    /// A framed reply is being flushed against ring backpressure.
    Writing,
}

impl ConnState {
    pub(super) const COUNT: usize = 3;
}

/// How the shed ladder ranks a connection when its shard is over the
/// high-water mark: misbehaving peers go first, then peers that never
/// completed a request, and only then the oldest-idle established
/// sessions — an attack population pays before legitimate users do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnClass {
    /// No well-formed request submitted yet.
    Unattested,
    /// At least one well-formed request admitted to a replica.
    Established,
    /// Struck for a protocol, quota, or minimum-progress violation.
    Misbehaving,
}

/// Which lifecycle deadline reaped a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TimeoutKind {
    Handshake,
    ReadStall,
    WriteStall,
    Idle,
    Slowloris,
}

/// Everything the policy may know about one connection, all on the
/// shard's tick clock.
#[derive(Debug, Clone, Copy)]
pub(super) struct Facts {
    pub state: ConnState,
    pub class: ConnClass,
    /// Tick at adoption.
    pub opened_tick: u64,
    /// Tick of the last inbound byte.
    pub last_read_tick: u64,
    /// Tick of the last outbound byte the peer drained.
    pub last_write_tick: u64,
    /// Start of the current minimum-progress window.
    pub window_start_tick: u64,
    /// Inbound bytes since the window started.
    pub window_bytes: usize,
}

impl Facts {
    /// The last tick any byte moved in either direction.
    fn last_activity(&self) -> u64 {
        self.last_read_tick.max(self.last_write_tick)
    }

    /// Where the connection stands on the shed ladder — lowest goes
    /// first: misbehaving, then unattested oldest-opened, then
    /// established coldest.
    pub(super) fn shed_rank(&self) -> (u8, u64) {
        match self.class {
            ConnClass::Misbehaving => (0, self.opened_tick),
            ConnClass::Unattested => (1, self.opened_tick),
            ConnClass::Established => (2, self.last_activity()),
        }
    }
}

/// The deadline sweep's answer for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Verdict {
    Keep,
    /// The progress window is full and the peer met it: start the next.
    ResetWindow,
    Reap(TimeoutKind),
}

/// The policy at work on one shard: the limits it enforces and the
/// strikes and bans they have led to. A shard whose policy is off has
/// none.
#[derive(Debug)]
pub(super) struct Defense {
    pub limits: Limits,
    pub book: StrikeBook,
}

impl Defense {
    pub(super) fn new(limits: Limits) -> Self {
        Defense {
            limits,
            book: StrikeBook::new(&limits),
        }
    }
}

/// Protocol-error strikes per channel key, accumulated across
/// connections, and the keys they have put in quarantine. Both maps are
/// keyed by bytes an unauthenticated peer chooses, so both forget: a ban
/// when it expires, a strike once `quarantine_ticks` pass without
/// another.
#[derive(Debug)]
pub(super) struct StrikeBook {
    limit: u32,
    horizon: u64,
    /// Channel key → (strikes so far, tick of the latest).
    strikes: HashMap<[u8; 32], (u32, u64)>,
    /// Quarantined channel key → the tick its ban expires.
    quarantine: HashMap<[u8; 32], u64>,
}

impl StrikeBook {
    pub(super) fn new(limits: &Limits) -> Self {
        StrikeBook {
            limit: limits.strike_limit,
            horizon: limits.quarantine_ticks,
            strikes: HashMap::new(),
            quarantine: HashMap::new(),
        }
    }

    /// Records one strike against `key`; `true` when it is the one that
    /// moves the key into quarantine.
    pub(super) fn strike(&mut self, key: [u8; 32], now: u64) -> bool {
        let horizon = self.horizon;
        let (count, last) = self.strikes.entry(key).or_insert((0, now));
        if now.saturating_sub(*last) > horizon {
            *count = 0;
        }
        *count += 1;
        *last = now;
        if *count < self.limit {
            return false;
        }
        self.strikes.remove(&key);
        self.quarantine.insert(key, now + horizon);
        true
    }

    /// Whether `key` is serving a ban at tick `now`.
    #[inline]
    pub(super) fn banned(&self, key: &[u8; 32], now: u64) -> bool {
        self.quarantine.get(key).is_some_and(|&until| now < until)
    }

    /// Forgets expired bans and lapsed strikes, so a peer that never
    /// comes back costs no memory past the horizon.
    #[inline]
    pub(super) fn sweep(&mut self, now: u64) {
        let horizon = self.horizon;
        self.quarantine.retain(|_, until| *until > now);
        self.strikes
            .retain(|_, (_, last)| now.saturating_sub(*last) <= horizon);
    }

    #[cfg(test)]
    pub(super) fn len(&self) -> usize {
        self.strikes.len() + self.quarantine.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ConnClass::{Established, Misbehaving, Unattested};
    use ConnState::{Idle, Reading, Writing};

    const NOW: u64 = 1_000;

    /// A connection adopted, last heard from and last drained at `NOW`.
    fn conn(state: ConnState, class: ConnClass) -> Facts {
        Facts {
            state,
            class,
            opened_tick: NOW,
            last_read_tick: NOW,
            last_write_tick: NOW,
            window_start_tick: NOW,
            window_bytes: 0,
        }
    }

    /// A deadline, limits that set it to 7 ticks, and a connection it
    /// applies to.
    #[rustfmt::skip]
    const DEADLINES: [(TimeoutKind, Limits, ConnState, ConnClass); 4] = [
        (TimeoutKind::Handshake, Limits { handshake_deadline: 7, ..HARDENED }, Idle, Unattested),
        (TimeoutKind::ReadStall, Limits { read_deadline: 7, ..HARDENED }, Reading, Unattested),
        (TimeoutKind::WriteStall, Limits { write_deadline: 7, ..HARDENED }, Writing, Established),
        (TimeoutKind::Idle, Limits { idle_deadline: 7, ..HARDENED }, Idle, Established),
    ];

    #[test]
    fn each_deadline_keeps_at_the_boundary_and_reaps_one_tick_past_it() {
        for (kind, limits, state, class) in DEADLINES {
            let c = conn(state, class);
            assert_eq!(limits.verdict(&c, NOW + 7), Verdict::Keep, "{kind:?}");
            assert_eq!(limits.verdict(&c, NOW + 8), Verdict::Reap(kind), "{kind:?}");
        }
    }

    #[test]
    fn slowloris_fires_only_on_a_full_window_short_of_the_minimum() {
        let cfg = Limits {
            min_progress_bytes: 8,
            progress_window: 5,
            ..HARDENED
        };
        let reading = |window_bytes| Facts {
            window_bytes,
            ..conn(Reading, Unattested)
        };
        let slow = Verdict::Reap(TimeoutKind::Slowloris);
        // Window not yet full: no judgement, however little arrived.
        assert_eq!(cfg.verdict(&reading(0), NOW + 4), Verdict::Keep);
        // Full window: judged on the bytes it saw.
        assert_eq!(cfg.verdict(&reading(7), NOW + 5), slow);
        assert_eq!(cfg.verdict(&reading(8), NOW + 5), Verdict::ResetWindow);
        // Only a mid-frame connection owes progress.
        assert_eq!(
            cfg.verdict(&conn(Idle, Established), NOW + 5),
            Verdict::Keep
        );
        // A read stall outranks the progress rule.
        let both = Limits {
            read_deadline: 3,
            ..cfg
        };
        let stall = Verdict::Reap(TimeoutKind::ReadStall);
        assert_eq!(both.verdict(&reading(0), NOW + 5), stall);
    }

    #[test]
    fn an_idle_connection_is_judged_by_its_class() {
        let cfg = Limits {
            handshake_deadline: 5,
            idle_deadline: 50,
            ..HARDENED
        };
        let at = |class, now| cfg.verdict(&conn(Idle, class), now);
        let handshake = Verdict::Reap(TimeoutKind::Handshake);
        assert_eq!(at(Unattested, NOW + 6), handshake);
        assert_eq!(at(Misbehaving, NOW + 6), handshake);
        assert_eq!(at(Established, NOW + 6), Verdict::Keep);
        let idle = Verdict::Reap(TimeoutKind::Idle);
        assert_eq!(at(Established, NOW + 51), idle);
        // Idle time runs from the later of the last read and last write.
        let drained_late = Facts {
            last_write_tick: NOW + 10,
            ..conn(Idle, Established)
        };
        assert_eq!(cfg.verdict(&drained_late, NOW + 60), Verdict::Keep);
        assert_eq!(cfg.verdict(&drained_late, NOW + 61), idle);
    }

    #[test]
    fn quotas_are_strict() {
        let cfg = Limits {
            max_frames: 10,
            max_bytes: 100,
            ..HARDENED
        };
        assert!(!cfg.over_quota(10, 100));
        assert!(cfg.over_quota(11, 0));
        assert!(cfg.over_quota(0, 101));
    }

    #[test]
    fn shedding_takes_misbehaving_then_unattested_oldest_then_established_coldest() {
        let cfg = Limits {
            max_conns_per_shard: 2,
            ..HARDENED
        };
        assert_eq!(cfg.excess(2), 0);
        assert_eq!(cfg.excess(5), 3);
        let rank = |class, opened_tick, last_read_tick| {
            let c = Facts {
                opened_tick,
                last_read_tick,
                last_write_tick: 0,
                ..conn(Idle, class)
            };
            c.shed_rank()
        };
        let ladder = [
            rank(Misbehaving, 90, 95),
            rank(Unattested, 10, 99),
            rank(Unattested, 20, 20),
            rank(Established, 5, 30),
            rank(Established, 1, 40),
        ];
        assert!(ladder.windows(2).all(|w| w[0] < w[1]), "{ladder:?}");
    }

    /// Three strikes, a 100-tick ban and memory.
    fn book() -> StrikeBook {
        StrikeBook::new(&Limits {
            strike_limit: 3,
            quarantine_ticks: 100,
            ..HARDENED
        })
    }

    #[test]
    fn strikes_quarantine_a_key_at_the_limit_and_the_ban_expires() {
        let (mut book, key) = (book(), [7; 32]);
        assert!(!book.strike(key, NOW));
        assert!(!book.strike(key, NOW + 1));
        assert!(!book.banned(&key, NOW + 1));
        assert!(book.strike(key, NOW + 2), "the third strike quarantines");
        assert!(book.banned(&key, NOW + 101));
        assert!(!book.banned(&key, NOW + 102));
        assert!(!book.banned(&[8; 32], NOW + 2), "bans are per key");
        // A ban nobody asks about again is still dropped once it is over.
        book.sweep(NOW + 101);
        assert_eq!(book.len(), 1);
        book.sweep(NOW + 102);
        assert_eq!(book.len(), 0);
    }

    #[test]
    fn strikes_lapse_and_the_book_stays_bounded() {
        let mut book = book();
        // One strike each under 10 000 throwaway keys.
        for i in 0u32..10_000 {
            let mut key = [0; 32];
            key[..4].copy_from_slice(&i.to_le_bytes());
            assert!(!book.strike(key, NOW));
        }
        book.sweep(NOW + 100);
        assert_eq!(book.len(), 10_000, "remembered up to the horizon");
        book.sweep(NOW + 101);
        assert_eq!(book.len(), 0, "forgotten past it");
        // Lapsing is not an artefact of the sweep: two old strikes do
        // not count toward a quarantine whether or not it ran.
        let key = [9; 32];
        assert!(!book.strike(key, NOW));
        assert!(!book.strike(key, NOW + 100));
        assert!(!book.strike(key, NOW + 201), "the count starts over");
        assert!(!book.strike(key, NOW + 202));
        assert!(book.strike(key, NOW + 203));
    }
}
