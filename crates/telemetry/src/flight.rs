//! The flight recorder: a fixed-size ring of structured resilience
//! events.
//!
//! When a chaos scenario fails, "exit 1" tells you nothing. The flight
//! recorder keeps the last *N* control-plane decisions — breaker
//! transitions, failovers, injected faults, crashes, restarts,
//! deadline misses, sheds — so the failure dump shows *what the cluster
//! was doing* when the invariant broke.
//!
//! Events are all-numeric by construction (replica ids, op counters,
//! microsecond charges); the only strings involved are static templates
//! applied at dump time, so the recorder sits on the exported side of
//! the privacy partition without widening it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// One structured resilience event. Every field is numeric — no event
/// can carry a query string, history entry or user identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// A circuit breaker opened after consecutive failures.
    BreakerTrip {
        /// Replica whose breaker tripped.
        replica: u64,
        /// Cluster op-clock at the trip.
        op: u64,
    },
    /// A circuit breaker closed again after a half-open probe succeeded.
    BreakerClose {
        /// Replica whose breaker closed.
        replica: u64,
    },
    /// A health sweep drained a replica and migrated its window.
    Failover {
        /// The drained replica.
        failed: u64,
        /// Ring successor that adopted the window, or `u64::MAX` when
        /// no live successor remained.
        successor: u64,
        /// Queries migrated with the sealed window.
        migrated: u64,
    },
    /// A deterministic fault charged delay against a replica link.
    FaultInjected {
        /// Replica whose link was faulted.
        replica: u64,
        /// Delay charged, in microseconds.
        delay_us: u64,
    },
    /// A fault-plan crash killed a replica.
    Crash {
        /// The killed replica.
        replica: u64,
        /// Cluster op-clock at the crash.
        op: u64,
    },
    /// A fault-plan restart revived a replica.
    Restart {
        /// The revived replica.
        replica: u64,
        /// Cluster op-clock at the restart.
        op: u64,
    },
    /// A request ran out of deadline budget inside the cluster, or its
    /// answer landed past the deadline.
    DeadlineMiss {
        /// Replica the expired request was queued on.
        replica: u64,
    },
    /// Bounded admission shed a request.
    Shed {
        /// Replica that refused admission.
        replica: u64,
    },
}

impl std::fmt::Display for FlightEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            FlightEvent::BreakerTrip { replica, op } => {
                write!(f, "breaker_trip replica={replica} op={op}")
            }
            FlightEvent::BreakerClose { replica } => {
                write!(f, "breaker_close replica={replica}")
            }
            FlightEvent::Failover {
                failed,
                successor,
                migrated,
            } => {
                if successor == u64::MAX {
                    write!(
                        f,
                        "failover failed={failed} successor=none migrated={migrated}"
                    )
                } else {
                    write!(
                        f,
                        "failover failed={failed} successor={successor} migrated={migrated}"
                    )
                }
            }
            FlightEvent::FaultInjected { replica, delay_us } => {
                write!(f, "fault_injected replica={replica} delay_us={delay_us}")
            }
            FlightEvent::Crash { replica, op } => write!(f, "crash replica={replica} op={op}"),
            FlightEvent::Restart { replica, op } => {
                write!(f, "restart replica={replica} op={op}")
            }
            FlightEvent::DeadlineMiss { replica } => {
                write!(f, "deadline_miss replica={replica}")
            }
            FlightEvent::Shed { replica } => write!(f, "shed replica={replica}"),
        }
    }
}

/// A fixed-size, overwrite-oldest ring of [`FlightEvent`]s.
///
/// `record` claims a sequence number with one relaxed `fetch_add`, then
/// writes the slot under its own (uncontended in the common case) mutex
/// — recorders never block each other on a shared lock, and the ring
/// never allocates after construction. Events are control-plane rare
/// (trips, failovers), so this is far off the request hot path.
#[derive(Debug)]
pub struct FlightRecorder {
    head: AtomicU64,
    slots: Vec<Mutex<Option<(u64, FlightEvent)>>>,
}

impl FlightRecorder {
    /// Creates a recorder keeping the most recent `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder needs at least one slot");
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Records one event, overwriting the oldest once the ring is full.
    /// A no-op while telemetry is disabled.
    pub fn record(&self, event: FlightEvent) {
        if !crate::enabled() {
            return;
        }
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        *self.slots[(seq % self.slots.len() as u64) as usize]
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some((seq, event));
    }

    /// Total events ever recorded (including overwritten ones).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// The retained events, oldest first, with their sequence numbers.
    #[must_use]
    pub fn events(&self) -> Vec<(u64, FlightEvent)> {
        let mut out: Vec<(u64, FlightEvent)> = self
            .slots
            .iter()
            .filter_map(|s| *s.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        out.sort_unstable_by_key(|(seq, _)| *seq);
        out
    }

    /// Renders the retained events as `#seq event` lines, oldest first —
    /// what `chaos_drill` prints when a scenario fails.
    #[must_use]
    pub fn dump(&self) -> Vec<String> {
        self.events()
            .into_iter()
            .map(|(seq, event)| format!("#{seq} {event}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_dumps() {
        let rec = FlightRecorder::with_capacity(8);
        rec.record(FlightEvent::Crash { replica: 1, op: 10 });
        rec.record(FlightEvent::Failover {
            failed: 1,
            successor: 2,
            migrated: 5,
        });
        let dump = rec.dump();
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0], "#0 crash replica=1 op=10");
        assert_eq!(dump[1], "#1 failover failed=1 successor=2 migrated=5");
    }

    #[test]
    fn ring_overwrites_oldest() {
        let rec = FlightRecorder::with_capacity(4);
        for op in 0..10 {
            rec.record(FlightEvent::Crash { replica: 0, op });
        }
        let events = rec.events();
        assert_eq!(events.len(), 4);
        assert_eq!(rec.total(), 10);
        // The four newest survive, in order.
        let seqs: Vec<u64> = events.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn concurrent_recorders_lose_nothing_within_capacity() {
        let rec = FlightRecorder::with_capacity(1024);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let rec = &rec;
                scope.spawn(move || {
                    for op in 0..100 {
                        rec.record(FlightEvent::Restart { replica: t, op });
                    }
                });
            }
        });
        assert_eq!(rec.total(), 800);
        assert_eq!(rec.events().len(), 800);
    }

    #[test]
    fn successorless_failover_renders_none() {
        let rec = FlightRecorder::with_capacity(2);
        rec.record(FlightEvent::Failover {
            failed: 3,
            successor: u64::MAX,
            migrated: 0,
        });
        assert!(rec.dump()[0].contains("successor=none"));
    }
}
