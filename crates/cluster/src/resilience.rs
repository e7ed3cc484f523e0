//! The resilience policy stack: deadlines, backoff and circuit
//! breakers — and the **ladder**, the decision table that says what a
//! search does next.
//!
//! Nothing here touches a fleet, a tunnel or a counter; the file imports
//! only `std`. [`crate::client::ClusterClient`] forwards, opens,
//! re-attaches and sweeps; *whether* to is decided by [`Progress::budget`],
//! [`Progress::react`] and the deadline / breaker predicates below, over
//! plain integers a test can write down.
//!
//! The ladder keeps one rule above all: **a request reaches one enclave,
//! once.** X-Search's guarantee is per OR-query — the engine cannot tell
//! the original among its `k` fakes — but two OR-queries for the same
//! request, each with independent fakes, intersect to the original. So
//! a reaction re-sends only when no enclave can have run Algorithm 1 on
//! the request: it was dropped on the link or shed before sealing, its
//! replica's enclave is gone, or the enclave refused the entry unopened.
//! An answer the enclave may have served — one that would not open, or
//! was lost at the ecall boundary, or arrived past the deadline — ends
//! the search with a typed error instead.
//!
//! Every mechanism runs on **deterministic clocks** so chaos scenarios
//! replay byte-identically:
//!
//! * request **deadline budgets** and **backoff** are charged on the
//!   *accounted* (modeled) clock, the same one the per-hop link delays
//!   use — never on wall time. The budget is checked before each
//!   attempt; an attempt that starts inside it runs to its answer, and
//!   an answer that lands past the deadline is opened (the tunnel stays
//!   in step), discarded and failed as `DeadlineExceeded`, charged
//!   exactly the deadline;
//! * **circuit-breaker cooldowns** are measured on the fleet's logical
//!   operation clock (one tick per data-plane forward), not on
//!   `Instant`s;
//! * backoff **jitter** is drawn from a per-client seeded generator,
//!   not a global RNG.
//!
//! The stack layers in a fixed order. A request first gets a *deadline
//! budget*; transient failures are retried under *capped exponential
//! backoff with decorrelated jitter* (charged against the budget, never
//! slept); repeated failures — late answers included — trip the
//! replica's *circuit breaker*, shifting routing away from a stalled or
//! browning-out replica before the health sweep declares it dead. Under
//! queue pressure the replica sheds with `Overloaded`, which the client
//! sees; it never serves a request with fewer fakes than the `k` its
//! enclave was attested with.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

/// Consecutive failures that trip a replica's breaker open.
pub(crate) const BREAKER_THRESHOLD: u32 = 3;

/// How long an open breaker refuses traffic, in data-plane operations on
/// the fleet's logical op clock (deterministic, unlike wall time). After
/// the cooldown the breaker goes half-open and admits probe traffic.
pub(crate) const BREAKER_COOLDOWN_OPS: u64 = 512;

/// Failovers a single request rides out before the client gives up with
/// the last error it saw: survives the kill → sweep →
/// successor-also-dies sequence churn testing produces without letting a
/// broken fleet spin forever.
pub const MAX_FAILOVERS: usize = 3;

/// Tunables for the per-request resilience stack. Carried by
/// `ClusterConfig`; the documented defaults (a generous deadline) keep
/// healthy traffic untouched while making deadlines, backoff and
/// breakers active out of the box.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Per-request deadline budget on the accounted clock. A request
    /// that cannot complete within this budget — an answer that lands
    /// past it included — fails with `ClusterError::DeadlineExceeded`.
    /// Default 2 s — far above any healthy request, so it only fires
    /// under real faults.
    pub deadline: Duration,
    /// First backoff step after a transient failure. Default 500 µs.
    pub backoff_base: Duration,
    /// Backoff ceiling (decorrelated jitter never exceeds it).
    /// Default 50 ms.
    pub backoff_cap: Duration,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            deadline: Duration::from_secs(2),
            backoff_base: Duration::from_micros(500),
            backoff_cap: Duration::from_millis(50),
        }
    }
}

/// How one forward attempt (or one re-attach) ended, as the ladder sees
/// it. The client maps `ClusterError`s onto these; the table never sees
/// an error value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The replica answered and the reply opened under our tunnel.
    Opened,
    /// Served, answer lost: the enclave may have run Algorithm 1 on the
    /// request, but its answer never opened here — AEAD refused the
    /// reply (a corrupted ciphertext, or not our session), or the
    /// forward failed with a proxy error other than an unknown session
    /// (a gray failure lost it at the ecall boundary). The session may
    /// be desynchronized, and the request must not be sent again.
    AnswerLost,
    /// Dropped on the link **before sealing** — the tunnel never moved.
    LinkLoss,
    /// Refused by bounded admission, also before sealing: deliberate
    /// backpressure from a healthy replica.
    Shed,
    /// The enclave refused our entry unopened (`UnknownSession`) —
    /// typically a replica that crashed and restarted, since sessions
    /// die with the enclave — or, for a re-attach, it refused the
    /// handshake.
    EntryFailed,
    /// The replica is down or no longer routable.
    ReplicaGone,
    /// Anything else: not the client's to ride out.
    Other,
}

/// Which step follows an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The answer is in hand: settle the deadline and the breaker.
    Finish,
    /// Forward again on the session in hand. Spends no failover.
    Retry,
    /// Spend one failover: re-route, re-attest, forward again.
    Reattach,
    /// Re-route and re-attest so the client's next search has a good
    /// session, then return the attempt's own error: the request may
    /// have been served, so it is never sent again.
    Abandon,
    /// Return the attempt's own error.
    GiveUp,
}

/// What the client does about one attempt, in this order: strike, sweep,
/// pause, then the step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reaction {
    /// Record a failure on the target replica's circuit breaker.
    pub strike: bool,
    /// Run a health sweep (drain the dead replica, migrate its window)
    /// so the re-route sees the new membership.
    pub sweep: bool,
    /// Charge one backoff pause against the deadline budget.
    pub pause: bool,
    /// What follows.
    pub step: Step,
}

/// Where one search stands on the ladder: three plain counters the
/// client keeps and the table reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Progress {
    /// Modeled time charged so far: hops and injected delays of every
    /// answer, plus every backoff pause.
    pub spent: Duration,
    /// Forwards made so far (each one past the first is a retry).
    pub attempts: u32,
    /// Failovers spent so far, out of [`MAX_FAILOVERS`].
    pub failovers: usize,
}

impl Progress {
    /// Whether the deadline leaves budget for another forward. `false`
    /// once it is used up (exactly used up counts): the search fails
    /// typed, `DeadlineExceeded`, *before* another attempt.
    #[must_use]
    pub fn budget(&self, deadline: Duration) -> bool {
        self.spent < deadline
    }

    /// What to do about an attempt that ended in `outcome`. Only an
    /// outcome no enclave can have served is sent again. Time is bounded
    /// by [`Progress::budget`], recovery by the failover count: an
    /// outcome that wants a re-attach once the last failover is spent
    /// still strikes, sweeps and pauses, then gives up.
    #[must_use]
    pub fn react(&self, outcome: Outcome) -> Reaction {
        let recover = if self.failovers < MAX_FAILOVERS {
            Step::Reattach
        } else {
            Step::GiveUp
        };
        let (strike, sweep, pause, step) = match outcome {
            Outcome::Opened => (false, false, false, Step::Finish),
            // Possibly served: strike, re-attest for the next search,
            // never re-send this one.
            Outcome::AnswerLost => (true, false, false, Step::Abandon),
            // Refused unopened: nothing ran, so a fresh session may
            // carry the request.
            Outcome::EntryFailed => (true, false, true, recover),
            // Never sealed: the same session retries after a pause.
            Outcome::LinkLoss => (true, false, true, Step::Retry),
            // Shed: the replica is alive, just busy — no strike, no
            // sweep, and no immediate retry to hammer it with.
            Outcome::Shed | Outcome::Other => (false, false, false, Step::GiveUp),
            Outcome::ReplicaGone => (true, true, true, recover),
        };
        Reaction {
            strike,
            sweep,
            pause,
            step,
        }
    }
}

/// Whether the search goes on (after a sweep) when a **re-attach** failed
/// in class `failure`. A successor that died between routing and attach:
/// always. A refused handshake: only while the session in hand is still
/// good — the re-attach was a breaker deflection, not a recovery — since
/// then the next forward can still use it.
#[must_use]
pub fn survives_failed_reattach(failure: Outcome, session_intact: bool) -> bool {
    match failure {
        Outcome::ReplicaGone => true,
        Outcome::EntryFailed => session_intact,
        _ => false,
    }
}

/// Whether an answer that took `took` blew the deadline: over it is a
/// failure, exactly on it a success. The breaker judges an attempt's own
/// charge with it, the client a search's cumulative cost.
#[must_use]
pub fn blew_deadline(took: Duration, deadline: Duration) -> bool {
    took > deadline
}

/// Capped exponential backoff with decorrelated jitter
/// ("sleep = min(cap, uniform(base, prev * 3))"), charged on the
/// accounted clock rather than slept. Deterministic: the jitter stream
/// is derived from the seed, so a replayed request order replays its
/// backoff charges exactly.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    prev: Duration,
    state: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Backoff {
    /// A fresh backoff sequence. `base` is clamped to at least 1 ns so
    /// the charged budget always advances (a zero-cost retry loop could
    /// otherwise spin forever inside a deadline).
    #[must_use]
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        let base = base.max(Duration::from_nanos(1));
        Backoff {
            base,
            cap: cap.max(base),
            prev: base,
            state: seed,
        }
    }

    /// The next backoff charge.
    pub fn next_delay(&mut self) -> Duration {
        self.state = splitmix64(self.state);
        let lo = self.base.as_nanos() as u64;
        let hi = (self.prev.as_nanos() as u64).saturating_mul(3).max(lo + 1);
        let span = hi - lo;
        let draw = lo + self.state % span;
        let next = Duration::from_nanos(draw).min(self.cap);
        self.prev = next;
        next
    }
}

/// Circuit-breaker states (the classic three-state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, consecutive failures are counted.
    Closed,
    /// Tripped: the router refuses this replica until the cooldown (in
    /// data-plane ops) elapses.
    Open,
    /// Cooldown elapsed: probe traffic is admitted; one success closes
    /// the breaker, one failure re-opens it.
    HalfOpen,
}

const STATE_CLOSED: u8 = 0;
const STATE_OPEN: u8 = 1;
const STATE_HALF_OPEN: u8 = 2;

/// One replica's circuit breaker. All-atomic — consulted on every
/// route — and clocked on the fleet's logical op counter so that trips
/// and cooldowns replay deterministically.
#[derive(Debug, Default)]
pub struct CircuitBreaker {
    state: AtomicU8,
    consecutive_failures: AtomicU32,
    opened_at_op: AtomicU64,
    /// Times this breaker transitioned closed/half-open → open.
    trips: AtomicU64,
}

impl CircuitBreaker {
    /// Whether the router may send traffic to this replica at op-clock
    /// time `now`. An open breaker whose cooldown has elapsed moves to
    /// half-open here (probe admission).
    pub fn allows(&self, now: u64, cooldown_ops: u64) -> bool {
        match self.state.load(Ordering::Acquire) {
            STATE_OPEN => {
                let since = now.saturating_sub(self.opened_at_op.load(Ordering::Relaxed));
                if since >= cooldown_ops {
                    let _ = self.state.compare_exchange(
                        STATE_OPEN,
                        STATE_HALF_OPEN,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    true
                } else {
                    false
                }
            }
            _ => true,
        }
    }

    /// Records a successful request: resets the failure streak and
    /// closes a half-open breaker (the probe succeeded). Returns `true`
    /// when this call performed the half-open → closed transition, so
    /// the fleet can log the recovery exactly once.
    pub fn record_success(&self) -> bool {
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.state
            .compare_exchange(
                STATE_HALF_OPEN,
                STATE_CLOSED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Records a failed (or deadline-blowing) request at op-clock time
    /// `now`. A half-open probe failure re-opens immediately; a closed
    /// breaker opens once the streak reaches `threshold`. Returns `true`
    /// when this call tripped the breaker open, so the fleet can log the
    /// transition exactly once.
    pub fn record_failure(&self, now: u64, threshold: u32) -> bool {
        let streak = self.consecutive_failures.fetch_add(1, Ordering::AcqRel) + 1;
        match self.state.load(Ordering::Acquire) {
            STATE_HALF_OPEN => {
                self.trip(now);
                true
            }
            STATE_CLOSED if streak >= threshold.max(1) => {
                self.trip(now);
                true
            }
            // Already open: refresh the trip time so a straggler failure
            // restarts the cooldown.
            STATE_OPEN => {
                self.opened_at_op.store(now, Ordering::Relaxed);
                false
            }
            _ => false,
        }
    }

    fn trip(&self, now: u64) {
        self.opened_at_op.store(now, Ordering::Relaxed);
        self.state.store(STATE_OPEN, Ordering::Release);
        self.consecutive_failures.store(0, Ordering::Relaxed);
        self.trips.fetch_add(1, Ordering::Relaxed);
    }

    /// The breaker's current state.
    #[must_use]
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            STATE_OPEN => BreakerState::Open,
            STATE_HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// How many times this breaker has tripped open.
    #[must_use]
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let mut a = Backoff::new(Duration::from_micros(500), Duration::from_millis(10), 7);
        let mut b = Backoff::new(Duration::from_micros(500), Duration::from_millis(10), 7);
        let seq_a: Vec<Duration> = (0..32).map(|_| a.next_delay()).collect();
        let seq_b: Vec<Duration> = (0..32).map(|_| b.next_delay()).collect();
        assert_eq!(seq_a, seq_b, "same seed must charge identically");
        assert!(seq_a.iter().all(|&d| d >= Duration::from_micros(500)));
        assert!(seq_a.iter().all(|&d| d <= Duration::from_millis(10)));
        assert!(
            seq_a.iter().any(|&d| d == Duration::from_millis(10)),
            "the cap should be reached under repeated failures"
        );
        let mut c = Backoff::new(Duration::from_micros(500), Duration::from_millis(10), 8);
        let seq_c: Vec<Duration> = (0..32).map(|_| c.next_delay()).collect();
        assert_ne!(seq_a, seq_c, "different seeds must jitter differently");
    }

    #[test]
    fn zero_base_backoff_still_advances_the_budget() {
        let mut b = Backoff::new(Duration::ZERO, Duration::ZERO, 1);
        assert!(b.next_delay() > Duration::ZERO);
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_through_half_open() {
        let b = CircuitBreaker::default();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(10, 3);
        b.record_failure(11, 3);
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        assert!(b.allows(11, 100));
        b.record_failure(12, 3);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allows(50, 100), "cooldown not elapsed");
        assert!(b.allows(112, 100), "cooldown elapsed: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn half_open_probe_failure_reopens_immediately() {
        let b = CircuitBreaker::default();
        for op in 0..3 {
            b.record_failure(op, 3);
        }
        assert!(b.allows(600, 512));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_failure(601, 3);
        assert_eq!(b.state(), BreakerState::Open, "one probe failure re-opens");
        assert!(!b.allows(700, 512), "cooldown restarts from the re-open");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::default();
        b.record_failure(1, 3);
        b.record_failure(2, 3);
        b.record_success();
        b.record_failure(3, 3);
        b.record_failure(4, 3);
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "interleaved successes must prevent a trip"
        );
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn each_outcome_class_maps_to_its_reaction() {
        use Outcome::*;
        let own = Step::GiveUp;
        // (class, strike, sweep, pause, step with failovers left, without)
        for (outcome, strike, sweep, pause, fresh, exhausted) in [
            (Opened, false, false, false, Step::Finish, Step::Finish),
            (AnswerLost, true, false, false, Step::Abandon, Step::Abandon),
            (LinkLoss, true, false, true, Step::Retry, Step::Retry),
            (Shed, false, false, false, own, own),
            (EntryFailed, true, false, true, Step::Reattach, own),
            (ReplicaGone, true, true, true, Step::Reattach, own),
            (Other, false, false, false, own, own),
        ] {
            for (failovers, step) in [
                (0, fresh),
                (MAX_FAILOVERS - 1, fresh),
                (MAX_FAILOVERS, exhausted),
            ] {
                let at = Progress {
                    failovers,
                    ..Default::default()
                };
                let want = Reaction {
                    strike,
                    sweep,
                    pause,
                    step,
                };
                assert_eq!(at.react(outcome), want, "{outcome:?} at {failovers}");
            }
        }
    }

    #[test]
    fn the_budget_is_gone_exactly_at_the_deadline() {
        let spent = |spent| Progress {
            spent,
            ..Default::default()
        };
        assert!(spent(Duration::ZERO).budget(20 * MS));
        assert!(spent(19 * MS).budget(20 * MS));
        assert!(!spent(20 * MS).budget(20 * MS), "spent == deadline");
        assert!(!spent(21 * MS).budget(20 * MS));
        assert!(!spent(Duration::ZERO).budget(Duration::ZERO));
    }

    #[test]
    fn a_failed_reattach_is_survivable_only_with_something_left_to_try() {
        for intact in [false, true] {
            assert!(survives_failed_reattach(Outcome::ReplicaGone, intact));
            assert!(!survives_failed_reattach(Outcome::Shed, intact));
            assert!(!survives_failed_reattach(Outcome::Other, intact));
            assert_eq!(
                survives_failed_reattach(Outcome::EntryFailed, intact),
                intact
            );
        }
    }

    #[test]
    fn an_answer_blows_the_deadline_only_past_it() {
        let ns = Duration::from_nanos(1);
        assert!(!blew_deadline(50 * MS, 50 * MS), "charge == deadline");
        assert!(blew_deadline(50 * MS + ns, 50 * MS));
    }
}
