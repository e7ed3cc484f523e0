//! The load generator: one thread, two loops. The closed loop keeps a
//! fixed number of operations in flight and measures what the system
//! sustains; the open loop starts operations on a fixed schedule and
//! times each **from the instant it was due**, so a stall is charged to
//! every operation queued behind it. Both report per slice, so a slow
//! spell of the host spoils the slices it covers and nothing else.

use crate::clock::Clock;
use crate::stats::{over_slices, percentile, sorted, OverSlices};
use std::collections::VecDeque;

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Good,
    /// Shed by admission control.
    Refused,
    Failed,
}

/// What the generator drives. A lane is one session; it carries at most
/// one operation at a time.
pub trait Target {
    fn lanes(&self) -> usize;
    /// Starts operation number `op` on the free lane `lane`. Synchronous
    /// targets run it to completion here.
    fn start(&mut self, lane: usize, op: u64);
    /// Makes progress and appends `(lane, outcome)` for every operation
    /// that finished since the last call.
    fn pump(&mut self, finished: &mut Vec<(usize, Outcome)>);
}

/// Operation totals of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub attempted: u64,
    pub good: u64,
    pub refused: u64,
    pub failed: u64,
}

impl Totals {
    fn count(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Good => self.good += 1,
            Outcome::Refused => self.refused += 1,
            Outcome::Failed => self.failed += 1,
        }
    }

    pub fn add(&mut self, other: Totals) {
        self.attempted += other.attempted;
        self.good += other.good;
        self.refused += other.refused;
        self.failed += other.failed;
    }

    /// Failed or refused.
    pub fn bad(&self) -> u64 {
        self.refused + self.failed
    }
}

/// Free lanes in round-robin order plus the in-flight bound.
struct Lanes {
    free: VecDeque<usize>,
    outstanding: usize,
    in_flight: usize,
}

impl Lanes {
    fn new(lanes: usize, in_flight: usize) -> Lanes {
        assert!(lanes > 0 && in_flight > 0, "a phase needs a lane");
        Lanes {
            free: (0..lanes).collect(),
            outstanding: 0,
            in_flight: in_flight.min(lanes),
        }
    }

    fn take(&mut self) -> Option<usize> {
        if self.outstanding == self.in_flight {
            return None;
        }
        let lane = self.free.pop_front()?;
        self.outstanding += 1;
        Some(lane)
    }

    fn give_back(&mut self, lane: usize) {
        self.free.push_back(lane);
        self.outstanding -= 1;
    }
}

/// One slice of the closed-loop phase.
#[derive(Debug, Clone, Copy, Default)]
struct SaturationSlice {
    good: u64,
    wall_ns: u64,
    cpu_ns: u64,
}

/// Result of the closed-loop phase.
#[derive(Debug, Clone, Default)]
pub struct Saturation {
    pub totals: Totals,
    slices: Vec<SaturationSlice>,
}

impl Saturation {
    /// Good operations per second, one value per slice.
    pub fn slice_rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| s.good as f64 * 1e9 / s.wall_ns as f64)
            .collect()
    }

    pub fn throughput(&self) -> OverSlices {
        over_slices(&self.slice_rates())
    }

    /// Process CPU time per good operation, µs, over the slices that
    /// completed one.
    pub fn cpu_us_per_op(&self) -> OverSlices {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.good > 0)
            .map(|s| s.cpu_ns as f64 / 1e3 / s.good as f64)
            .collect();
        over_slices(&per_slice)
    }
}

/// Closed loop: `in_flight` operations outstanding at all times, for
/// `slices` slices of `slice_ns`. `next_op` numbers operations across
/// phases.
pub fn saturate<T: Target + ?Sized, C: Clock>(
    target: &mut T,
    clock: &C,
    in_flight: usize,
    slices: usize,
    slice_ns: u64,
    next_op: &mut u64,
) -> Saturation {
    let mut lanes = Lanes::new(target.lanes(), in_flight);
    let mut out = Saturation::default();
    let mut finished = Vec::new();
    let mut slice_start = clock.now_ns();
    let mut cpu_start = clock.cpu_ns();
    let mut good_in_slice = 0u64;
    while out.slices.len() < slices {
        while let Some(lane) = lanes.take() {
            target.start(lane, *next_op);
            *next_op += 1;
            out.totals.attempted += 1;
        }
        target.pump(&mut finished);
        for (lane, outcome) in finished.drain(..) {
            lanes.give_back(lane);
            out.totals.count(outcome);
            good_in_slice += u64::from(outcome == Outcome::Good);
        }
        let now = clock.now_ns();
        if now - slice_start >= slice_ns {
            let cpu = clock.cpu_ns();
            out.slices.push(SaturationSlice {
                good: good_in_slice,
                wall_ns: now - slice_start,
                cpu_ns: cpu.saturating_sub(cpu_start),
            });
            good_in_slice = 0;
            cpu_start = cpu;
            // Reading the CPU clock is not part of the next slice.
            slice_start = clock.now_ns();
        }
    }
    // Operations still in flight finish outside the measured slices but
    // count as attempted work whose failure would matter.
    while lanes.outstanding > 0 {
        target.pump(&mut finished);
        for (lane, outcome) in finished.drain(..) {
            lanes.give_back(lane);
            out.totals.count(outcome);
        }
    }
    out
}

/// Closed loop by count: exactly `count` operations, `in_flight` at a
/// time. Returns the totals and the wall time — the fixed-work form the
/// traced run and the ledger rungs use so their counters repeat exactly.
pub fn run_fixed<T: Target + ?Sized, C: Clock>(
    target: &mut T,
    clock: &C,
    in_flight: usize,
    count: u64,
    next_op: &mut u64,
) -> (Totals, u64) {
    let mut lanes = Lanes::new(target.lanes(), in_flight);
    let mut totals = Totals::default();
    let mut finished = Vec::new();
    let started = clock.now_ns();
    while totals.attempted < count || lanes.outstanding > 0 {
        while totals.attempted < count {
            let Some(lane) = lanes.take() else { break };
            target.start(lane, *next_op);
            *next_op += 1;
            totals.attempted += 1;
        }
        target.pump(&mut finished);
        for (lane, outcome) in finished.drain(..) {
            lanes.give_back(lane);
            totals.count(outcome);
        }
    }
    (totals, clock.now_ns() - started)
}

/// One slice of the paced phase.
#[derive(Debug, Clone, Default)]
struct PacedSlice {
    /// Latency from due time of every good operation, ns.
    latencies_ns: Vec<f64>,
    attempted: u64,
    /// Failed, refused, or later than the limit.
    missed: u64,
}

/// Result of the open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct Paced {
    pub totals: Totals,
    slices: Vec<PacedSlice>,
    /// How late each operation started relative to its due time, ns.
    gen_lag_ns: Vec<f64>,
}

impl Paced {
    fn per_slice(&self, f: impl Fn(&PacedSlice) -> f64) -> OverSlices {
        let values: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| s.attempted > 0)
            .map(f)
            .collect();
        over_slices(&values)
    }

    /// The slice's `p`-th latency percentile, µs, across slices.
    pub fn latency_us(&self, p: f64) -> OverSlices {
        self.per_slice(|s| percentile(&sorted(s.latencies_ns.clone()), p) / 1e3)
    }

    /// (Failed + refused + over the limit) ÷ attempted, across slices.
    pub fn miss_share(&self) -> OverSlices {
        self.per_slice(|s| s.missed as f64 / s.attempted as f64)
    }

    /// 99th percentile of how late the generator started operations, µs.
    pub fn gen_lag_p99_us(&self) -> f64 {
        percentile(&sorted(self.gen_lag_ns.clone()), 99.0) / 1e3
    }
}

/// The fixed schedule of the open loop.
#[derive(Debug, Clone, Copy)]
pub struct Pace {
    pub rate_per_s: f64,
    /// An operation later than this from its due time misses the limit.
    pub limit_ns: u64,
    pub slices: usize,
    pub slice_ns: u64,
}

/// Open loop: operation `i` is due at `start + i / rate`; a due
/// operation that finds no free lane waits in a FIFO, and the wait is
/// part of its latency. Nothing is ever dropped.
pub fn pace<T: Target + ?Sized, C: Clock>(
    target: &mut T,
    clock: &C,
    in_flight: usize,
    pace: Pace,
    next_op: &mut u64,
) -> Paced {
    let mut lanes = Lanes::new(target.lanes(), in_flight);
    let total_ns = pace.slice_ns * pace.slices as u64;
    let planned = (total_ns as f64 * pace.rate_per_s / 1e9).floor() as u64;
    let due_of = |i: u64| (i as f64 * 1e9 / pace.rate_per_s) as u64;
    let mut out = Paced {
        slices: vec![PacedSlice::default(); pace.slices],
        gen_lag_ns: Vec::with_capacity(planned as usize),
        ..Paced::default()
    };
    let per_slice = (planned as usize / pace.slices.max(1)) + 1;
    for slice in &mut out.slices {
        slice.latencies_ns.reserve(per_slice);
    }
    let mut waiting: VecDeque<u64> = VecDeque::new();
    let mut due_in_lane = vec![0u64; target.lanes()];
    let mut finished = Vec::new();
    let mut released = 0u64;
    let started = clock.now_ns();
    while released < planned || !waiting.is_empty() || lanes.outstanding > 0 {
        let now = clock.now_ns() - started;
        while released < planned && due_of(released) <= now {
            waiting.push_back(due_of(released));
            released += 1;
        }
        while !waiting.is_empty() {
            let Some(lane) = lanes.take() else { break };
            let due = waiting.pop_front().expect("checked non-empty");
            let begun = clock.now_ns() - started;
            out.gen_lag_ns.push(begun.saturating_sub(due) as f64);
            due_in_lane[lane] = due;
            target.start(lane, *next_op);
            *next_op += 1;
            out.totals.attempted += 1;
        }
        target.pump(&mut finished);
        for (lane, outcome) in finished.drain(..) {
            lanes.give_back(lane);
            out.totals.count(outcome);
            let due = due_in_lane[lane];
            let latency = (clock.now_ns() - started).saturating_sub(due);
            let slice_index = ((due / pace.slice_ns) as usize).min(pace.slices - 1);
            let slice = &mut out.slices[slice_index];
            slice.attempted += 1;
            if outcome == Outcome::Good {
                slice.latencies_ns.push(latency as f64);
            }
            if outcome != Outcome::Good || latency > pace.limit_ns {
                slice.missed += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// A clock that moves only when told to, plus a tick per reading so
    /// a generator spinning on it always makes progress.
    struct FakeClock {
        now: Cell<u64>,
        tick: u64,
    }

    impl Clock for Rc<FakeClock> {
        fn now_ns(&self) -> u64 {
            self.now.set(self.now.get() + self.tick);
            self.now.get()
        }
        /// Half of all fake time is CPU time.
        fn cpu_ns(&self) -> u64 {
            self.now.get() / 2
        }
    }

    /// Synchronous target: operation `op` takes `cost(op)` ns of fake
    /// time and ends as `outcome(op)`.
    struct FakeTarget {
        clock: Rc<FakeClock>,
        lanes: usize,
        cost: fn(u64) -> u64,
        outcome: fn(u64) -> Outcome,
        done: Vec<(usize, Outcome)>,
        started: Vec<u64>,
    }

    impl Target for FakeTarget {
        fn lanes(&self) -> usize {
            self.lanes
        }
        fn start(&mut self, lane: usize, op: u64) {
            self.started.push(op);
            self.clock.now.set(self.clock.now.get() + (self.cost)(op));
            self.done.push((lane, (self.outcome)(op)));
        }
        fn pump(&mut self, finished: &mut Vec<(usize, Outcome)>) {
            finished.append(&mut self.done);
        }
    }

    fn fake(lanes: usize, cost: fn(u64) -> u64, outcome: fn(u64) -> Outcome) -> FakeTarget {
        FakeTarget {
            clock: Rc::new(FakeClock {
                now: Cell::new(0),
                tick: 10,
            }),
            lanes,
            cost,
            outcome,
            done: Vec::new(),
            started: Vec::new(),
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn a_stalled_operation_delays_but_never_drops_the_ones_due_behind_it() {
        // 1 000/s for 20 ms = 20 operations of 100 µs; number 3 stalls
        // for 5 ms, so 4..=8 come due while it runs.
        let mut target = fake(
            1,
            |op| if op == 3 { 5 * MS } else { MS / 10 },
            |_| Outcome::Good,
        );
        let clock = Rc::clone(&target.clock);
        let mut next_op = 0;
        let report = pace(
            &mut target,
            &clock,
            1,
            Pace {
                rate_per_s: 1_000.0,
                limit_ns: MS,
                slices: 2,
                slice_ns: 10 * MS,
            },
            &mut next_op,
        );
        assert_eq!(report.totals.attempted, 20, "nothing dropped");
        assert_eq!(report.totals.good, 20);
        assert_eq!(target.started, (0..20).collect::<Vec<u64>>(), "FIFO order");
        // The stalled operation and 4..=7 queued behind it miss the 1 ms
        // limit (8 starts 0.4 ms late and still makes it); all were due
        // in the first 10 ms slice.
        assert_eq!(report.slices[0].attempted, 10);
        assert_eq!(report.slices[0].missed, 5);
        assert_eq!(report.slices[1].missed, 0);
        // Operation 4 was due at 4 ms and could start only at ≈8.1 ms.
        let worst_lag = report.gen_lag_ns.iter().cloned().fold(0.0, f64::max);
        assert!((4.0e6..4.3e6).contains(&worst_lag), "gen lag {worst_lag}");
        assert!(report.gen_lag_p99_us() > 4_000.0);
        // Latency is from due time: the stalled operation took 5 ms, the
        // one right behind it waited ≈4 ms and then ran 0.1 ms.
        let worst = report.slices[0]
            .latencies_ns
            .iter()
            .cloned()
            .fold(0.0, f64::max);
        assert!((5.0e6..5.1e6).contains(&worst), "worst latency {worst}");
        let queued = report.slices[0].latencies_ns[4];
        assert!((4.1e6..4.2e6).contains(&queued), "queued latency {queued}");
        // The untouched slice reports the service time.
        let p50 = percentile(&sorted(report.slices[1].latencies_ns.clone()), 50.0);
        assert!((1.0e5..1.2e5).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn failures_and_refusals_count_as_misses_and_not_as_latencies() {
        let mut target = fake(
            2,
            |_| 1_000,
            |op| match op % 4 {
                0 => Outcome::Failed,
                1 => Outcome::Refused,
                _ => Outcome::Good,
            },
        );
        let clock = Rc::clone(&target.clock);
        let mut next_op = 0;
        let report = pace(
            &mut target,
            &clock,
            2,
            Pace {
                rate_per_s: 10_000.0,
                limit_ns: MS,
                slices: 1,
                slice_ns: 4 * MS,
            },
            &mut next_op,
        );
        assert_eq!(report.totals.attempted, 40);
        assert_eq!((report.totals.failed, report.totals.refused), (10, 10));
        assert_eq!(report.totals.bad(), 20);
        assert_eq!(report.slices[0].latencies_ns.len(), 20);
        assert_eq!(report.miss_share().median, 0.5);
        assert_eq!(next_op, 40);
    }

    #[test]
    fn closed_loop_reports_rate_per_slice_and_round_robins_lanes() {
        // 8 lanes, 1 in flight, 1 µs per operation (+ clock ticks).
        let mut target = fake(8, |_| 1_000, |_| Outcome::Good);
        let clock = Rc::clone(&target.clock);
        let mut next_op = 100;
        let report = saturate(&mut target, &clock, 1, 4, MS, &mut next_op);
        assert_eq!(report.slice_rates().len(), 4);
        let t = report.throughput();
        // 1 000 ns of work + one 10 ns clock reading per operation.
        assert!((9.8e5..9.95e5).contains(&t.median), "rate {}", t.median);
        assert!(t.iqr / t.median < 0.01);
        // Half the fake time is CPU time: ≈0.505 µs per operation.
        let cpu = report.cpu_us_per_op().median;
        assert!((0.50..0.51).contains(&cpu), "cpu {cpu}");
        assert_eq!(report.totals.good, report.totals.attempted);
        assert_eq!(next_op, 100 + report.totals.attempted);
        assert_eq!(target.started[0], 100);
    }

    #[test]
    fn fixed_count_runs_exactly_that_many() {
        let mut target = fake(3, |_| 500, |_| Outcome::Good);
        let clock = Rc::clone(&target.clock);
        let mut next_op = 7;
        let (totals, wall) = run_fixed(&mut target, &clock, 2, 25, &mut next_op);
        assert_eq!((totals.attempted, totals.good), (25, 25));
        assert_eq!(next_op, 32);
        assert!(wall >= 25 * 500);
    }

    #[test]
    fn closed_loop_keeps_the_requested_number_in_flight() {
        struct Slow {
            pending: Vec<(usize, u32)>,
            peak: usize,
        }
        impl Target for Slow {
            fn lanes(&self) -> usize {
                8
            }
            fn start(&mut self, lane: usize, _op: u64) {
                self.pending.push((lane, 3));
                self.peak = self.peak.max(self.pending.len());
            }
            fn pump(&mut self, finished: &mut Vec<(usize, Outcome)>) {
                for p in &mut self.pending {
                    p.1 -= 1;
                }
                self.pending.retain(|&(lane, left)| {
                    if left == 0 {
                        finished.push((lane, Outcome::Good));
                    }
                    left > 0
                });
            }
        }
        let clock = Rc::new(FakeClock {
            now: Cell::new(0),
            tick: 100,
        });
        let mut target = Slow {
            pending: Vec::new(),
            peak: 0,
        };
        let mut next_op = 0;
        let report = saturate(&mut target, &clock, 5, 2, 10_000, &mut next_op);
        assert_eq!(target.peak, 5);
        assert!(target.pending.is_empty(), "drained at the end");
        assert_eq!(report.totals.good, report.totals.attempted);
    }
}
