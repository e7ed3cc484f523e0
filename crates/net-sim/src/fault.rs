//! Deterministic fault injection for the simulated network and the
//! enclave call boundary.
//!
//! A [`FaultPlan`] is a seeded, replayable schedule of failures: given
//! the same seed, the same fault specification, and the same order of
//! decision points, it produces exactly the same faults. Each decision
//! is a pure function of `(seed, site, replica, sequence-number)` where
//! the sequence number comes from a per-site atomic counter — no wall
//! clock, no global RNG, no thread identity. That is what makes chaos
//! scenarios replayable: the `chaos_drill` bench runs the same plan
//! twice and asserts byte-identical transcripts.
//!
//! Two boundaries are covered:
//!
//! * **Link faults** ([`FaultPlan::link_fault`]) — decided by the
//!   cluster router *before* a request is sealed: packet loss (the
//!   request never reaches the replica, and crucially was never
//!   encrypted, so the AEAD channel stays in sync), delay spikes, and
//!   whole-replica stalls (the answer arrives, arbitrarily late).
//! * **Ecall faults** ([`FaultPlan::ecall_fault`]) — decided by the
//!   same router once the `request` ecall has returned, i.e. *after*
//!   execution: gray failures (the enclave did the work but the
//!   response is lost — the client must assume the worst and re-attest)
//!   and ciphertext corruption on the wire (the client's AEAD open fails
//!   authentication).
//!
//! Fleet-wide events live on a logical *operation clock* the cluster
//! advances once per data-plane request: partition windows
//! ([`FaultPlan::in_partition`]) and crash/restart schedules
//! ([`FaultPlan::events_due`]) trigger at fixed op indices, not at wall
//! times, so they replay exactly.
//!
//! Everything here compiles to nothing when no plan is installed: the
//! cluster holds an `Option<Arc<FaultPlan>>` and the fault path is a
//! single branch on `None`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What goes wrong, and how often. All probabilities are in `[0, 1]`;
/// the default spec injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Per-request probability that the request is dropped on the link
    /// before reaching the replica (never sealed, safely retryable).
    pub loss: f64,
    /// Per-request probability of a latency spike on the link.
    pub spike_prob: f64,
    /// Extra round-trip delay charged when a spike fires.
    pub spike: Duration,
    /// Replicas (by index) whose link is stalled: every request to them
    /// completes, but only after [`FaultSpec::stall`] extra delay. This
    /// models a browning-out enclave — alive, attested, and useless.
    pub stalled: Vec<usize>,
    /// Extra round-trip delay for requests to a stalled replica.
    pub stall: Duration,
    /// Gray failure rates: `(replica index, per-request probability)`
    /// that the enclave executes the request but the response is lost
    /// at the ecall boundary.
    pub gray: Vec<(usize, f64)>,
    /// Per-request probability that the sealed response is corrupted in
    /// flight (one flipped byte; the client's AEAD open rejects it).
    pub corrupt: f64,
    /// Fleet-wide partition windows `[start_op, end_op)` on the logical
    /// operation clock: every data-plane request inside a window is
    /// dropped at the link.
    pub partitions: Vec<(u64, u64)>,
    /// Scheduled crash (and optional restart) events on the op clock.
    pub crashes: Vec<CrashEvent>,
    /// Socket-layer connection afflictions (resets, torn writes, byte
    /// corruption, stuck and half-open peers), decided per connection.
    pub socket: SocketSpec,
}

/// How often connections misbehave at the socket layer, and how. Each
/// probability selects one *affliction per connection* — decided once,
/// deterministically, from the connection id (see
/// [`FaultPlan::socket_fault`]) — mirroring reality, where a given peer
/// is broken in one particular way. Probabilities are cumulative; their
/// sum must stay ≤ 1.
#[derive(Debug, Clone, Default)]
pub struct SocketSpec {
    /// Probability the connection is hard-reset: after a drawn number of
    /// writes, both directions close abruptly (mid-frame or not).
    pub reset: f64,
    /// Probability of a torn write: one drawn write delivers only a
    /// byte-prefix and then the connection closes — the classic
    /// mid-frame tear.
    pub torn: f64,
    /// Probability of stream corruption: one byte of a drawn write is
    /// XOR-flipped in flight (framing survives or dies on its own).
    pub corrupt: f64,
    /// Probability the peer wedges *stuck*: it keeps writing but never
    /// reads again, so the reverse ring fills and the victim's writes
    /// stall forever (write-stall deadline material).
    pub stuck: f64,
    /// Probability the peer goes *half-open*: it vanishes without ever
    /// closing — writes disappear, reads never complete, EOF never
    /// arrives (idle-deadline material).
    pub half_open: f64,
    /// The afflicted write index is drawn uniformly from
    /// `[0, write_window)`; `0` is treated as `1`.
    pub write_window: u64,
}

impl SocketSpec {
    /// True when no socket affliction can ever fire.
    fn is_quiet(&self) -> bool {
        self.reset <= 0.0
            && self.torn <= 0.0
            && self.corrupt <= 0.0
            && self.stuck <= 0.0
            && self.half_open <= 0.0
    }
}

/// One connection's socket-layer affliction, decided at accept time.
/// Installed on a [`crate::stream::ByteStream`] endpoint via
/// [`crate::stream::ByteStream::sabotage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFault {
    /// Close both directions abruptly after `after_writes` successful
    /// write calls from the afflicted endpoint.
    Reset {
        /// Write calls that complete normally before the reset.
        after_writes: u64,
    },
    /// On write call `after_writes`, deliver only `keep` bytes of the
    /// chunk and then close both directions.
    Torn {
        /// Write calls that complete normally before the tear.
        after_writes: u64,
        /// Prefix bytes of the final chunk that still arrive.
        keep: usize,
    },
    /// On write call `after_writes`, XOR the first byte of the chunk
    /// with `xor` (never zero, so the byte genuinely flips).
    Corrupt {
        /// Write calls that complete normally before the flip.
        after_writes: u64,
        /// The non-zero XOR mask applied to one byte.
        xor: u8,
    },
    /// The endpoint never reads again: buffered bytes stay buffered,
    /// the reverse ring fills, and the peer's writes stall.
    Stuck,
    /// The endpoint vanishes without closing: its writes are silently
    /// discarded, its reads never complete, and dropping it does *not*
    /// close the stream — the peer never sees EOF.
    HalfOpen,
}

/// A scheduled replica crash, with an optional later restart.
#[derive(Debug, Clone, Copy)]
pub struct CrashEvent {
    /// Operation index at which the replica is hard-killed.
    pub at_op: u64,
    /// Replica index to kill.
    pub replica: usize,
    /// Operation index at which the replica is relaunched, if any.
    pub restart_at: Option<u64>,
}

/// The outcome of a link-boundary fault decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkFault {
    /// The request is dropped before reaching the replica.
    pub drop: bool,
    /// Extra round-trip delay charged to the request (stall or spike).
    pub delay: Duration,
}

/// The outcome of an ecall-boundary fault decision for one response;
/// the default is a clean one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EcallFault {
    /// The enclave executed the request but the response is lost
    /// (gray failure): the caller sees an error after the work was done.
    pub fail: bool,
    /// One byte of the sealed response is flipped in flight.
    pub corrupt: bool,
}

/// A fleet-wide fault event that became due on the operation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Hard-kill the replica with this index.
    Crash(usize),
    /// Relaunch the replica with this index.
    Restart(usize),
}

/// One scheduled event with a claim flag so concurrent observers apply
/// it exactly once.
#[derive(Debug)]
struct Scheduled {
    at: u64,
    event: FaultEvent,
    claimed: AtomicBool,
}

/// A seeded, deterministic, replayable fault schedule. See the module
/// docs for the determinism contract.
pub struct FaultPlan {
    seed: u64,
    spec: FaultSpec,
    /// Per-replica link decision counters.
    link_seq: Vec<AtomicU64>,
    /// Per-replica ecall decision counters.
    ecall_seq: Vec<AtomicU64>,
    events: Vec<Scheduled>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("spec", &self.spec)
            .field("events", &self.events.len())
            .finish()
    }
}

/// Domain separators for the per-site hash streams.
const SITE_LOSS: u64 = 1;
const SITE_SPIKE: u64 = 2;
const SITE_GRAY: u64 = 3;
const SITE_CORRUPT: u64 = 4;
const SITE_SOCKET_KIND: u64 = 5;
const SITE_SOCKET_OP: u64 = 6;
const SITE_SOCKET_BYTE: u64 = 7;

/// `splitmix64` finalizer: a fast, well-mixed 64-bit permutation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform `[0, 1)` draw from the hash of one decision point.
fn draw(seed: u64, site: u64, replica: u64, n: u64) -> f64 {
    let h = splitmix64(
        seed ^ site.wrapping_mul(0xA076_1D64_78BD_642F)
            ^ replica.wrapping_mul(0xE703_7ED1_A0B4_28DB)
            ^ n.wrapping_mul(0x8EBC_6AF0_9C88_C6E3),
    );
    // 53 high bits -> an exactly representable f64 in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// Build a plan for a fleet of `replicas` replicas.
    pub fn new(spec: FaultSpec, seed: u64, replicas: usize) -> Self {
        let n = replicas.max(1);
        let mut events = Vec::new();
        for c in &spec.crashes {
            events.push(Scheduled {
                at: c.at_op,
                event: FaultEvent::Crash(c.replica),
                claimed: AtomicBool::new(false),
            });
            if let Some(at) = c.restart_at {
                events.push(Scheduled {
                    at,
                    event: FaultEvent::Restart(c.replica),
                    claimed: AtomicBool::new(false),
                });
            }
        }
        FaultPlan {
            seed,
            spec,
            link_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            ecall_seq: (0..n).map(|_| AtomicU64::new(0)).collect(),
            events,
        }
    }

    /// The spec this plan was built from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Decide the link-boundary fate of the next request to `replica`.
    /// Consumes one per-replica sequence number; deterministic for a
    /// fixed decision order.
    pub fn link_fault(&self, replica: usize) -> LinkFault {
        let idx = replica % self.link_seq.len();
        let n = self.link_seq[idx].fetch_add(1, Ordering::Relaxed);
        let r = replica as u64;
        let drop = draw(self.seed, SITE_LOSS, r, n) < self.spec.loss;
        let delay = if self.spec.stalled.contains(&replica) {
            self.spec.stall
        } else if draw(self.seed, SITE_SPIKE, r, n) < self.spec.spike_prob {
            self.spec.spike
        } else {
            Duration::ZERO
        };
        LinkFault { drop, delay }
    }

    /// Decide the ecall-boundary fate of the next response from
    /// `replica`. Consumes one per-replica sequence number.
    pub fn ecall_fault(&self, replica: usize) -> EcallFault {
        let idx = replica % self.ecall_seq.len();
        let n = self.ecall_seq[idx].fetch_add(1, Ordering::Relaxed);
        self.ecall_fault_at(replica, n)
    }

    /// The decision [`FaultPlan::ecall_fault`] will return next for
    /// `replica`, without consuming it. A test can close a fault phase
    /// with it: draw decisions until the next one is clean.
    #[must_use]
    pub fn peek_ecall_fault(&self, replica: usize) -> EcallFault {
        let idx = replica % self.ecall_seq.len();
        self.ecall_fault_at(replica, self.ecall_seq[idx].load(Ordering::Relaxed))
    }

    /// Decision `n` of `replica`'s ecall boundary.
    fn ecall_fault_at(&self, replica: usize, n: u64) -> EcallFault {
        let r = replica as u64;
        let gray_p = self
            .spec
            .gray
            .iter()
            .find(|&&(who, _)| who == replica)
            .map_or(0.0, |&(_, p)| p);
        EcallFault {
            fail: draw(self.seed, SITE_GRAY, r, n) < gray_p,
            corrupt: draw(self.seed, SITE_CORRUPT, r, n) < self.spec.corrupt,
        }
    }

    /// Decide connection `conn`'s socket-layer affliction, if any.
    ///
    /// Unlike the link/ecall sites this consumes **no** sequence
    /// counter: the decision is a pure function of `(seed, conn)`, so it
    /// does not depend on accept order or thread timing — a replay that
    /// reuses connection ids reproduces the same afflictions exactly.
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn socket_fault(&self, conn: u64) -> Option<SocketFault> {
        let s = &self.spec.socket;
        if s.is_quiet() {
            return None;
        }
        let kind = draw(self.seed, SITE_SOCKET_KIND, conn, 0);
        let window = s.write_window.max(1);
        let after_writes = (draw(self.seed, SITE_SOCKET_OP, conn, 0) * window as f64) as u64;
        let byte_draw = draw(self.seed, SITE_SOCKET_BYTE, conn, 0);
        let mut acc = s.reset;
        if kind < acc {
            return Some(SocketFault::Reset { after_writes });
        }
        acc += s.torn;
        if kind < acc {
            // Keep 0–2 bytes of the final chunk: enough to tear inside
            // a frame header, never enough to complete one.
            return Some(SocketFault::Torn {
                after_writes,
                keep: (byte_draw * 3.0) as usize,
            });
        }
        acc += s.corrupt;
        if kind < acc {
            // 1..=255: the mask is never zero, so one byte truly flips.
            return Some(SocketFault::Corrupt {
                after_writes,
                xor: ((byte_draw * 255.0) as u8).wrapping_add(1),
            });
        }
        acc += s.stuck;
        if kind < acc {
            return Some(SocketFault::Stuck);
        }
        acc += s.half_open;
        if kind < acc {
            return Some(SocketFault::HalfOpen);
        }
        None
    }

    /// Is the fleet partitioned at operation index `op`?
    pub fn in_partition(&self, op: u64) -> bool {
        self.spec
            .partitions
            .iter()
            .any(|&(start, end)| op >= start && op < end)
    }

    /// Crash/restart events due at or before `op` that no caller has
    /// claimed yet. Each event is returned exactly once across all
    /// threads.
    pub fn events_due(&self, op: u64) -> Vec<FaultEvent> {
        self.events
            .iter()
            .filter(|e| {
                op >= e.at
                    && e.claimed
                        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
            })
            .map(|e| e.event)
            .collect()
    }

    /// True if any event schedule or partition window exists — lets the
    /// hot path skip the event scan entirely for pure link-noise plans.
    pub fn has_timeline(&self) -> bool {
        !self.events.is_empty() || !self.spec.partitions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lossy(loss: f64) -> FaultSpec {
        FaultSpec {
            loss,
            ..Default::default()
        }
    }

    #[test]
    fn same_seed_same_decisions() {
        let spec = FaultSpec {
            loss: 0.2,
            spike_prob: 0.3,
            spike: Duration::from_millis(5),
            gray: vec![(1, 0.4)],
            corrupt: 0.1,
            ..Default::default()
        };
        let a = FaultPlan::new(spec.clone(), 42, 4);
        let b = FaultPlan::new(spec, 42, 4);
        for i in 0..500 {
            let r = i % 4;
            assert_eq!(a.link_fault(r), b.link_fault(r));
            assert_eq!(a.ecall_fault(r), b.ecall_fault(r));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(lossy(0.5), 1, 1);
        let b = FaultPlan::new(lossy(0.5), 2, 1);
        let diverged = (0..64).any(|_| a.link_fault(0).drop != b.link_fault(0).drop);
        assert!(diverged, "two seeds should not produce identical streams");
    }

    #[test]
    fn loss_rate_is_approximately_honoured() {
        let plan = FaultPlan::new(lossy(0.1), 7, 1);
        let n = 20_000;
        let drops = (0..n).filter(|_| plan.link_fault(0).drop).count();
        let rate = drops as f64 / f64::from(n);
        assert!(
            (0.08..0.12).contains(&rate),
            "observed loss {rate} should be near 0.1"
        );
    }

    #[test]
    fn stalled_replica_always_delays_and_others_do_not() {
        let spec = FaultSpec {
            stalled: vec![2],
            stall: Duration::from_secs(5),
            ..Default::default()
        };
        let plan = FaultPlan::new(spec, 9, 4);
        for _ in 0..100 {
            assert_eq!(plan.link_fault(2).delay, Duration::from_secs(5));
            assert_eq!(plan.link_fault(0).delay, Duration::ZERO);
        }
    }

    #[test]
    fn gray_failure_targets_only_the_configured_replica() {
        let spec = FaultSpec {
            gray: vec![(1, 1.0)],
            ..Default::default()
        };
        let plan = FaultPlan::new(spec, 3, 2);
        for _ in 0..50 {
            assert!(plan.ecall_fault(1).fail);
            assert!(!plan.ecall_fault(0).fail);
        }
    }

    #[test]
    fn partition_windows_are_half_open() {
        let spec = FaultSpec {
            partitions: vec![(10, 20), (30, 31)],
            ..Default::default()
        };
        let plan = FaultPlan::new(spec, 0, 1);
        assert!(!plan.in_partition(9));
        assert!(plan.in_partition(10));
        assert!(plan.in_partition(19));
        assert!(!plan.in_partition(20));
        assert!(plan.in_partition(30));
        assert!(!plan.in_partition(31));
    }

    #[test]
    fn crash_events_fire_exactly_once() {
        let spec = FaultSpec {
            crashes: vec![CrashEvent {
                at_op: 5,
                replica: 1,
                restart_at: Some(10),
            }],
            ..Default::default()
        };
        let plan = FaultPlan::new(spec, 0, 2);
        assert!(plan.events_due(4).is_empty());
        assert_eq!(plan.events_due(5), vec![FaultEvent::Crash(1)]);
        assert!(plan.events_due(6).is_empty(), "crash must not repeat");
        assert_eq!(plan.events_due(12), vec![FaultEvent::Restart(1)]);
        assert!(plan.events_due(13).is_empty());
    }

    #[test]
    fn socket_faults_are_pure_in_the_conn_id() {
        let spec = FaultSpec {
            socket: SocketSpec {
                reset: 0.2,
                torn: 0.2,
                corrupt: 0.2,
                stuck: 0.2,
                half_open: 0.2,
                write_window: 8,
            },
            ..Default::default()
        };
        let a = FaultPlan::new(spec.clone(), 77, 1);
        let b = FaultPlan::new(spec, 77, 1);
        for conn in 0..512 {
            // No sequence counter: re-asking is idempotent, and a fresh
            // plan with the same seed agrees on every conn id.
            assert_eq!(a.socket_fault(conn), a.socket_fault(conn));
            assert_eq!(a.socket_fault(conn), b.socket_fault(conn));
        }
    }

    #[test]
    fn socket_fault_mix_covers_every_shape() {
        let spec = FaultSpec {
            socket: SocketSpec {
                reset: 0.15,
                torn: 0.15,
                corrupt: 0.15,
                stuck: 0.15,
                half_open: 0.15,
                write_window: 16,
            },
            ..Default::default()
        };
        let plan = FaultPlan::new(spec, 5, 1);
        let (mut reset, mut torn, mut corrupt, mut stuck, mut half, mut clean) = (0, 0, 0, 0, 0, 0);
        for conn in 0..2000 {
            match plan.socket_fault(conn) {
                Some(SocketFault::Reset { after_writes }) => {
                    assert!(after_writes < 16);
                    reset += 1;
                }
                Some(SocketFault::Torn { keep, .. }) => {
                    assert!(keep < 3);
                    torn += 1;
                }
                Some(SocketFault::Corrupt { xor, .. }) => {
                    assert_ne!(xor, 0);
                    corrupt += 1;
                }
                Some(SocketFault::Stuck) => stuck += 1,
                Some(SocketFault::HalfOpen) => half += 1,
                None => clean += 1,
            }
        }
        for (name, count) in [
            ("reset", reset),
            ("torn", torn),
            ("corrupt", corrupt),
            ("stuck", stuck),
            ("half_open", half),
        ] {
            assert!(
                (150..=450).contains(&count),
                "{name} drawn {count} times out of 2000 at p=0.15"
            );
        }
        assert!(
            (350..=650).contains(&clean),
            "clean drawn {clean} times out of 2000 at p=0.25"
        );
    }

    #[test]
    fn quiet_socket_spec_never_afflicts() {
        let plan = FaultPlan::new(FaultSpec::default(), 1, 1);
        assert!((0..100).all(|c| plan.socket_fault(c).is_none()));
    }

    #[test]
    fn ecall_faults_draw_from_each_replicas_own_stream() {
        // Replica 0's decisions are the same whether or not draws for
        // replica 1 interleave with them: each replica has its own
        // sequence, so one replica's traffic cannot shift another's
        // faults.
        let spec = FaultSpec {
            gray: vec![(0, 0.5)],
            corrupt: 0.5,
            ..Default::default()
        };
        let alone = FaultPlan::new(spec.clone(), 11, 2);
        let mixed = FaultPlan::new(spec, 11, 2);
        for _ in 0..64 {
            let _ = mixed.ecall_fault(1);
            assert_eq!(alone.ecall_fault(0), mixed.ecall_fault(0));
        }
    }
}
