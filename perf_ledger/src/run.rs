//! One run of one workload: set-up, verification, warm-up, the closed
//! and the open loop, and — in a traced run — the fixed-count traced
//! pass, the ledger with its rungs, and the probes. Produces the metrics
//! and the verdict the result line carries.

use crate::adapter::{
    Edge, Meters, BOUNDARY_BYTES, BOUNDARY_OVERHEAD_US, HEADROOM, OCALLS_PER_REQUEST,
};
use crate::clock::{peak_rss_mib, Clock, WallClock};
use crate::inputs::Inputs;
use crate::loadgen::{pace, run_fixed, saturate, Pace, Paced, Saturation, Totals};
use crate::probes::Probes;
use crate::stats::{mean, median};
use crate::trace::{chrome_trace, ledger, Ledger};
use crate::workloads::{build, Path, Scale, Spec, Workload, SPECS};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;

/// Name → (value, unit), ordered by name.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Slices per phase. The split of `--seconds`: 1/12 warm-up, then 100
/// closed-loop and 90 open-loop slices of equal length (≈0.1 s at the
/// 20 s `BENCHMARK.json` asks for) — many and short, so that a slow spell
/// of the host spoils the slices it covers and the decile across slices
/// still has ten quiet ones to stand on.
const SATURATION_SLICES: usize = 100;
const PACED_SLICES: usize = 90;
/// Set-ups timed per untraced run — `setup_s` is their median: at least
/// `MIN_SETUPS`, then more while they are cheap, because a millisecond
/// set-up timed three times is mostly noise.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.5;
/// Queries the `proxy_search` correctness gate compares with a direct
/// search; other workloads verify on a handful of operations.
const SEARCH_VERIFY_OPS: u64 = 200;
const ECHO_VERIFY_OPS: u64 = 32;
const MIN_NONEMPTY_SHARE: f64 = 0.95;
const MIN_MEAN_RECALL: f64 = 0.6;
/// The ledger must explain end to end to within this share.
const MAX_RESIDUAL_SHARE: f64 = 0.15;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub spec: &'static Spec,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// Where to write the Chrome trace of a traced run, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Pinned reply digest for (workload, seed), when one is known.
    pub pinned_digest: Option<String>,
}

#[derive(Debug, Clone)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// The human-readable report (printed to stderr by `main`); every
    /// violated check is a `PROBLEM:` line in it.
    pub report: String,
    /// SHA-256 over the traced run's replies (traced runs only).
    pub digest: Option<String>,
}

/// Phase lengths for one run.
struct Plan {
    scale: Scale,
    warm_ns: u64,
    saturation_slice_ns: u64,
    paced_slice_ns: u64,
    paced_rate: f64,
    /// Fewest and most set-ups to time.
    setups: (usize, usize),
    trace_ops: u64,
    rung_ops: u64,
}

impl Plan {
    fn of(args: &RunArgs) -> Plan {
        let spec = args.spec;
        if args.smoke {
            // ≈50 operations in the open loop, a few milliseconds of
            // everything else, sizes cut down; nothing here is a timing.
            let phase_ns = 30_000_000;
            return Plan {
                scale: Scale::SMOKE,
                warm_ns: 5_000_000,
                saturation_slice_ns: phase_ns / SATURATION_SLICES as u64,
                paced_slice_ns: phase_ns / PACED_SLICES as u64,
                paced_rate: 50.0 * 1e9 / phase_ns as f64,
                setups: (1, 1),
                trace_ops: 50,
                rung_ops: 50,
            };
        }
        let total_ns = args.seconds * 1e9;
        // A traced run spends most of its time on the traced pass, rungs
        // and probes; its loops only feed the `loadgen.*` diagnostics.
        let loops_ns = if args.trace { total_ns / 3.0 } else { total_ns };
        let slice_ns = (loops_ns * 11.0 / 12.0 / (SATURATION_SLICES + PACED_SLICES) as f64) as u64;
        Plan {
            scale: Scale::FULL,
            warm_ns: (loops_ns / 12.0) as u64,
            saturation_slice_ns: slice_ns,
            paced_slice_ns: slice_ns,
            paced_rate: spec.paced_rate,
            setups: if args.trace {
                (1, 1)
            } else {
                (MIN_SETUPS, MAX_SETUPS)
            },
            trace_ops: spec.trace_ops,
            rung_ops: spec.trace_ops,
        }
    }
}

/// Charged-never-slept delay per good operation over an interval, ms:
/// engine service time (net of the evaluation wall that also elapsed for
/// real), fleet hop and fault delay, and the boundary's modeled
/// transition overhead.
fn modeled_ms_per_op(delta: &Meters, good: u64) -> f64 {
    if good == 0 {
        return 0.0;
    }
    let us = delta.get("xsearch_engine_accounted_delay_us")
        - delta.get("xsearch_engine_fetch_wall_us")
        + delta.get("xsearch_fleet_hop_delay_us")
        + delta.get("xsearch_fleet_fault_delay_us")
        + delta.get(BOUNDARY_OVERHEAD_US);
    us / 1e3 / good as f64
}

/// `part ÷ whole`, `0.0` when there is no whole.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// The correctness gate that runs before any timing: a fixed handful of
/// operations whose replies and counter movements are checked exactly.
fn verify(
    workload: &mut dyn Workload,
    spec: &Spec,
    clock: &WallClock,
    next_op: &mut u64,
    problems: &mut Vec<String>,
) -> Totals {
    let ops = if spec.path == Path::ProxySearch {
        SEARCH_VERIFY_OPS
    } else {
        ECHO_VERIFY_OPS
    }
    .min(HEADROOM as u64 / spec.requests_per_op);
    let first_op = *next_op;
    let history_before = workload.rig().history_len();
    let before = workload.rig().meters(Edge::Open);
    workload.common().kept = Some(Vec::new());
    let (totals, _) = run_fixed(workload, clock, 1, ops, next_op);
    let after = workload.rig().meters(Edge::Close);
    let history_after = workload.rig().history_len();
    let kept = workload.common().kept.take().unwrap_or_default();
    let requests = ops * spec.requests_per_op;

    if totals.good != ops {
        problems.push(format!(
            "verify: {} of {ops} operations failed or were refused ({})",
            ops - totals.good,
            workload.common().first_error.clone().unwrap_or_default()
        ));
    }
    if kept.len() as u64 != requests {
        problems.push(format!(
            "verify: {} replies opened, expected {requests}",
            kept.len()
        ));
    }
    let ocalls = after.since(&before).get("xsearch_boundary_ocalls");
    if ocalls != requests as f64 * OCALLS_PER_REQUEST {
        problems.push(format!(
            "verify: {ocalls} ocalls for {requests} requests, expected {} each",
            OCALLS_PER_REQUEST
        ));
    }
    let expected_len = (history_before + requests as usize).min(workload.rig().capacity());
    if history_after != expected_len {
        problems.push(format!(
            "verify: history went {history_before} → {history_after}, expected {expected_len} \
             (one push per request)"
        ));
    }
    if spec.path == Path::ProxySearch {
        // Judged on the queries a direct search answers at all: share of
        // them answered through the proxy, and how much of the direct
        // top 20 survives obfuscation and filtering.
        let inputs = Rc::clone(&workload.common().inputs);
        let recalls: Vec<f64> = kept
            .iter()
            .enumerate()
            .filter_map(|(i, reply)| {
                let direct = workload.reference_titles(inputs.query(first_op + i as u64))?;
                if direct.is_empty() {
                    return None;
                }
                let hit = direct
                    .iter()
                    .filter(|t| reply.iter().any(|r| &r.title == *t))
                    .count();
                Some(hit as f64 / direct.len() as f64)
            })
            .collect();
        let answered = recalls.iter().filter(|&&r| r > 0.0).count();
        if (answered as f64) < MIN_NONEMPTY_SHARE * recalls.len() as f64 || recalls.is_empty() {
            problems.push(format!(
                "verify: {answered} of the {} queries a direct search answers got an \
                 overlapping reply through the proxy",
                recalls.len()
            ));
        }
        let mean_recall = mean(&recalls);
        if mean_recall < MIN_MEAN_RECALL {
            problems.push(format!(
                "verify: mean recall {mean_recall:.3} against a direct search is below \
                 {MIN_MEAN_RECALL}"
            ));
        }
    } else if kept.iter().any(|r| !r.is_empty()) {
        problems.push("verify: an echo reply carried results".into());
    }
    totals
}

/// The untraced loops every run performs.
struct Loops {
    saturation: Saturation,
    paced: Paced,
    /// Counter movement over the closed loop.
    saturation_delta: Meters,
    steps_in_saturation: (u64, u64),
}

fn run_loops(
    workload: &mut dyn Workload,
    spec: &Spec,
    plan: &Plan,
    clock: &WallClock,
    next_op: &mut u64,
) -> (Loops, Totals) {
    let warm = saturate(workload, clock, spec.in_flight, 1, plan.warm_ns, next_op);
    let open = workload.rig().meters(Edge::Open);
    let steps_before = workload.front_steps();
    let saturation = saturate(
        workload,
        clock,
        spec.in_flight,
        SATURATION_SLICES,
        plan.saturation_slice_ns,
        next_op,
    );
    let steps_after = workload.front_steps();
    let closed = workload.rig().meters(Edge::Close);
    let paced = pace(
        workload,
        clock,
        spec.in_flight,
        Pace {
            rate_per_s: plan.paced_rate,
            limit_ns: spec.limit_us * 1_000,
            slices: PACED_SLICES,
            slice_ns: plan.paced_slice_ns,
        },
        next_op,
    );
    (
        Loops {
            saturation_delta: closed.since(&open),
            steps_in_saturation: (
                steps_after.0 - steps_before.0,
                steps_after.1 - steps_before.1,
            ),
            saturation,
            paced,
        },
        warm.totals,
    )
}

/// Adds `(name, value, unit)` rows to `metrics`.
fn put_all(metrics: &mut Metrics, rows: &[(&str, f64, &'static str)]) {
    for &(name, value, unit) in rows {
        metrics.insert(name.to_owned(), (value, unit));
    }
}

/// The end-to-end metrics of an untraced run: each timing is the
/// good-side decile across its phase's slices (see [`OverSlices`]).
fn end_to_end_metrics(loops: &Loops, setup_s: f64, peak_rss: f64) -> Metrics {
    let sat = &loops.saturation;
    let paced = &loops.paced;
    let mut m = Metrics::new();
    put_all(
        &mut m,
        &[
            ("throughput_ops_s", sat.throughput().p90, "ops/s"),
            ("cpu_us_per_op", sat.cpu_us_per_op().p10, "us"),
            ("paced_p50_us", paced.latency_us(50.0).p10, "us"),
            ("slo_ok_share", 1.0 - paced.miss_share().p10, "share"),
            ("peak_rss_mib", peak_rss, "MiB"),
            ("setup_s", setup_s, "s"),
        ],
    );
    m
}

/// `loadgen.*` and the phase-derived layer metrics of a traced run.
fn loop_diagnostics(m: &mut Metrics, loops: &Loops, totals: &Totals) {
    let sat = &loops.saturation;
    let paced = &loops.paced;
    let t = sat.throughput();
    let delta = &loops.saturation_delta;
    let (steps, events) = loops.steps_in_saturation;
    put_all(
        m,
        &[
            ("loadgen.gen_lag_p99_us", paced.gen_lag_p99_us(), "us"),
            ("loadgen.paced_p99_us", paced.latency_us(99.0).median, "us"),
            ("loadgen.slice_iqr_share", ratio(t.iqr, t.median), "share"),
            ("loadgen.slo_miss_share", paced.miss_share().p10, "share"),
            (
                "loadgen.failed_share",
                ratio(totals.bad() as f64, totals.attempted as f64),
                "share",
            ),
            (
                "cluster.lane_mean_batch",
                ratio(
                    delta.get("xsearch_lane_entries"),
                    delta.get("xsearch_lane_batches"),
                ),
                "count",
            ),
            (
                "front.steps_per_op",
                ratio(steps as f64, sat.totals.good as f64),
                "count",
            ),
            (
                "front.events_per_step",
                ratio(events as f64, steps as f64),
                "count",
            ),
        ],
    );
}

/// What the traced pass measured.
struct Traced {
    ledger: Ledger,
    /// Counter movement over exactly `ops` operations.
    delta: Meters,
    ops: u64,
    results: u64,
    /// Wall time per operation, traced and untraced.
    traced_ns_per_op: f64,
    untraced_ns_per_op: f64,
    digest: String,
    totals: Totals,
}

fn traced_pass(
    workload: &mut dyn Workload,
    plan: &Plan,
    args: &RunArgs,
    clock: &WallClock,
    next_op: &mut u64,
    problems: &mut Vec<String>,
) -> Traced {
    let ops = plan.trace_ops;
    // A fifth of the count to warm caches, then the same operation count
    // first untraced, then traced: the ratio is what tracing costs.
    let (mut totals, _) = run_fixed(workload, clock, 1, ops / 5, next_op);
    let (plain, plain_ns) = run_fixed(workload, clock, 1, ops, next_op);
    totals.add(plain);
    let results_before = workload.common().results;
    workload.common().tracer.restart(true);
    workload.common().digest = Some(crate::adapter::ReplyDigest::new());
    let before = workload.rig().meters(Edge::Open);
    let (traced, traced_ns) = run_fixed(workload, clock, 1, ops, next_op);
    let after = workload.rig().meters(Edge::Close);
    totals.add(traced);
    let common = workload.common();
    let digest = common
        .digest
        .take()
        .map(crate::adapter::ReplyDigest::finish_hex)
        .unwrap_or_default();
    let results = common.results - results_before;
    let ledger = ledger(common.tracer.spans());
    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, chrome_trace(common.tracer.spans()).render()) {
            problems.push(format!("could not write {}: {e}", path.display()));
        }
    }
    common.tracer.restart(false);

    let delta = after.since(&before);
    let requests = (ops * args.spec.requests_per_op) as f64;
    if traced.good == ops && delta.get("xsearch_boundary_ocalls") != requests * OCALLS_PER_REQUEST {
        problems.push(format!(
            "traced: {} ocalls for {requests} requests",
            delta.get("xsearch_boundary_ocalls")
        ));
    }
    if ledger.ops != ops {
        problems.push(format!(
            "traced: ledger saw {} of {ops} operations",
            ledger.ops
        ));
    }
    if let Some(pinned) = &args.pinned_digest {
        if *pinned != digest {
            problems.push(format!(
                "traced: reply digest {digest} differs from the pinned {pinned}"
            ));
        }
    }
    Traced {
        ledger,
        delta,
        ops,
        results,
        traced_ns_per_op: traced_ns as f64 / ops.max(1) as f64,
        untraced_ns_per_op: plain_ns as f64 / ops.max(1) as f64,
        digest,
        totals,
    }
}

/// Rounds the ledger's rungs are measured in. Each round times one block
/// on every rung, so a slow spell of the host lands on all of them and
/// cancels in their differences; a rung's cost is its median block.
const RUNG_ROUNDS: u64 = 10;

/// Performs `n` operations and returns their wall time in ns.
type Block<'a> = Box<dyn FnMut(u64) -> u64 + 'a>;

/// Median ns per operation of each block runner over interleaved rounds,
/// after one discarded round that warms caches.
fn interleaved_ns_per_op(runners: &mut [Block], ops: u64) -> Vec<f64> {
    let per_block = (ops / RUNG_ROUNDS).max(1);
    let mut blocks = vec![Vec::new(); runners.len()];
    for round in 0..=RUNG_ROUNDS {
        for (run_block, out) in runners.iter_mut().zip(&mut blocks) {
            let ns = run_block(per_block);
            if round > 0 {
                out.push(ns as f64 / per_block as f64);
            }
        }
    }
    blocks.iter().map(|b| median(b)).collect()
}

/// A block runner replaying the request stream on `workload` from
/// operation `next_op`, untraced, one operation in flight. What it
/// attempts is added to `totals`.
fn replay<'a, W>(
    mut workload: W,
    mut next_op: u64,
    clock: &'a WallClock,
    totals: &'a Cell<Totals>,
) -> Block<'a>
where
    W: std::ops::DerefMut + 'a,
    W::Target: Workload,
{
    Box::new(move |n| {
        let (done, ns) = run_fixed(&mut *workload, clock, 1, n, &mut next_op);
        let mut sum = totals.get();
        sum.add(done);
        totals.set(sum);
        ns
    })
}

/// The ledger's layer rows: self time per operation, each measured apart
/// from the traced pass. Where a callee is opaque from outside, the same
/// request stream is replayed on fresh rigs through each successive
/// boundary — AEAD alone → bare proxy → fleet client → framed front, up
/// to the workload's own — and a layer's self time is its rung minus the
/// rung below. `e2e` is the traced workload itself, untraced, timed in
/// the same interleaved rounds; `e2e − Σ self` is the residual.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Layers {
    e2e: f64,
    crypto: f64,
    engine: f64,
    core: f64,
    cluster: f64,
    front: f64,
}

impl Layers {
    fn rows(&self) -> [(&'static str, f64); 5] {
        [
            ("crypto", self.crypto),
            ("search-engine", self.engine),
            ("core + sgx-sim", self.core),
            ("cluster", self.cluster),
            ("front + net-sim", self.front),
        ]
    }

    fn residual(&self) -> f64 {
        self.e2e - self.rows().iter().map(|r| r.1).sum::<f64>()
    }

    fn residual_share(&self) -> f64 {
        ratio(self.residual(), self.e2e)
    }

    /// Each string is one violated condition of the ledger.
    fn problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.residual_share().abs() > MAX_RESIDUAL_SHARE {
            problems.push(format!(
                "ledger: residual e2e − Σ self is {:.1} % of end to end (limit {:.0} %)",
                self.residual_share() * 100.0,
                MAX_RESIDUAL_SHARE * 100.0
            ));
        }
        for (name, self_ns) in self.rows() {
            if self_ns < 0.0 {
                problems.push(format!(
                    "ledger: {name} has negative self time {self_ns:.0} ns"
                ));
            }
        }
        problems
    }
}

/// What the interleaved rounds measured, ns, ready to be split into
/// layer rows.
#[derive(Debug, Clone, Default)]
struct Costs {
    /// The traced workload itself, untraced, per operation.
    e2e: f64,
    requests_per_op: f64,
    /// The AEAD work of one request.
    crypto: f64,
    /// The k+1 fan-out of one request (`proxy_search` only).
    engine: f64,
    /// One request at each boundary up to the workload's own, innermost
    /// first: the bare proxy, then the fleet client, then the framed
    /// front.
    rungs: Vec<f64>,
    /// A whole `front_churn` connection; what it costs beyond its
    /// requests is session set-up (core) and `teardown` (front).
    lifetime: Option<f64>,
    teardown: f64,
}

impl Costs {
    fn split(&self) -> Layers {
        let rung = |i: usize| self.rungs.get(i).copied();
        let n = self.requests_per_op;
        let top = self.rungs[self.rungs.len() - 1];
        let session = self
            .lifetime
            .map_or(0.0, |whole| whole - n * top - self.teardown);
        Layers {
            e2e: self.e2e,
            crypto: n * self.crypto,
            engine: n * self.engine,
            core: n * (self.rungs[0] - self.engine - self.crypto) + session,
            cluster: rung(1).map_or(0.0, |fleet| n * (fleet - self.rungs[0])),
            front: rung(2).map_or(0.0, |front| n * (front - self.rungs[1])) + self.teardown,
        }
    }
}

/// Measures the rungs of `spec`'s path and the workload's own cost in
/// interleaved rounds and splits them into layers. Returns the rows and
/// the operations the measurement performed.
#[allow(clippy::too_many_arguments)]
fn layers(
    spec: &Spec,
    plan: &Plan,
    traced: &Traced,
    probes: &Probes,
    crypto_per_request: f64,
    workload: &mut dyn Workload,
    next_op: u64,
    clock: &WallClock,
) -> (Layers, Totals) {
    let inputs = Rc::clone(&workload.common().inputs);
    let churn = spec.path == Path::FrontChurn;
    // The rungs under a fleet or a front replay against the window that
    // fleet holds; a churned connection meets no ballast.
    let scale = match spec.path {
        Path::ProxyEcho | Path::ProxySearch => plan.scale,
        _ => {
            let window = plan.scale.fleet_shape(spec.path).window;
            Scale {
                proxy_history: window,
                fleet_window: window,
                ballast: if churn { 0 } else { plan.scale.ballast },
                ..plan.scale
            }
        }
    };
    // Per request, innermost first; then, for `front_churn`, a fresh rig
    // of the whole connection lifetime.
    let below: &[Path] = match spec.path {
        Path::ProxyEcho => &[Path::ProxyEcho],
        Path::ProxySearch => &[Path::ProxySearch],
        Path::FleetEcho => &[Path::ProxyEcho, Path::FleetEcho],
        Path::FrontEcho => &[Path::ProxyEcho, Path::FleetEcho, Path::FrontEcho],
        Path::FrontChurn => &[
            Path::ProxyEcho,
            Path::FleetEcho,
            Path::FrontEcho,
            Path::FrontChurn,
        ],
    };
    let totals = Cell::new(Totals::default());
    let fresh = |path: Path| {
        let spec = SPECS
            .iter()
            .find(|s| s.path == path)
            .expect("every path has a spec");
        build(spec, &scale, &inputs)
    };
    let mut runners: Vec<Block> = vec![replay(workload, next_op, clock, &totals)];
    runners.extend(below.iter().map(|&p| replay(fresh(p), 0, clock, &totals)));
    if spec.path == Path::ProxySearch {
        runners.push(Box::new(probes.fanout_block()));
    }
    let cost = interleaved_ns_per_op(&mut runners, plan.rung_ops);
    drop(runners);
    let spans = &traced.ledger;
    let costs = Costs {
        e2e: cost[0],
        requests_per_op: spec.requests_per_op as f64,
        crypto: crypto_per_request,
        ..Costs::default()
    };
    let layers = match spec.path {
        Path::ProxySearch => Costs {
            engine: cost[2],
            rungs: vec![cost[1]],
            ..costs
        },
        Path::FrontChurn => Costs {
            rungs: cost[1..4].to_vec(),
            lifetime: Some(cost[4]),
            teardown: spans.self_ns("close") + spans.self_ns("front.teardown"),
            ..costs
        },
        _ => Costs {
            rungs: cost[1..].to_vec(),
            ..costs
        },
    }
    .split();
    (layers, totals.get())
}

fn render_ledger(out: &mut String, spec: &Spec, traced: &Traced, layers: &Layers) {
    let ledger = &traced.ledger;
    let _ = writeln!(
        out,
        "\nledger: {} — {} traced operations, in flight 1, {:.0} ns/op traced ({:.0} untraced)",
        spec.name, ledger.ops, ledger.e2e_ns, traced.untraced_ns_per_op
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>9} {:>12} {:>12} {:>7}",
        "span", "calls/op", "ns/op", "self ns/op", "share"
    );
    for row in &ledger.rows {
        let _ = writeln!(
            out,
            "  {:<22} {:>9.2} {:>12.0} {:>12.0} {:>6.1}%",
            row.name,
            row.calls_per_op,
            row.ns_per_op,
            row.self_ns_per_op,
            row.share * 100.0
        );
    }
    let _ = writeln!(
        out,
        "  {:<22} {:>9} {:>12} {:>12.0} {:>6.1}%   (covered by no span)",
        "op",
        "",
        "",
        ledger.residual_ns,
        ledger.residual_share() * 100.0
    );
    let ops = traced.ops.max(1) as f64;
    let d = &traced.delta;
    let _ = writeln!(
        out,
        "  {:<22} {:>14} {:>7} {:>16}   (e2e {:.0} ns/op untraced, same rounds)",
        "layer", "CPU self ns/op", "share", "modeled us/op", layers.e2e
    );
    let engine_modeled =
        (d.get("xsearch_engine_accounted_delay_us") - d.get("xsearch_engine_fetch_wall_us")) / ops;
    let modeled = [
        0.0,
        engine_modeled,
        d.get(BOUNDARY_OVERHEAD_US) / ops,
        (d.get("xsearch_fleet_hop_delay_us") + d.get("xsearch_fleet_fault_delay_us")) / ops,
        0.0,
    ];
    for ((name, cpu), modeled) in layers.rows().into_iter().zip(modeled) {
        let _ = writeln!(
            out,
            "  {name:<22} {cpu:>14.0} {:>6.1}% {modeled:>16.3}",
            ratio(cpu, layers.e2e) * 100.0
        );
    }
    let _ = writeln!(
        out,
        "  {:<22} {:>14.0} {:>6.1}%   (e2e − Σ self)",
        "residual",
        layers.residual(),
        layers.residual_share() * 100.0
    );
}

/// The counter- and ledger-derived layer metrics of a traced run.
fn traced_metrics(m: &mut Metrics, workload: &dyn Workload, traced: &Traced, layers: &Layers) {
    let ops = traced.ops.max(1) as f64;
    let d = &traced.delta;
    // Levels at the end of the run.
    let end = workload.rig().meters(Edge::Close);
    let step = traced.ledger.row("front.step");
    let engine_us =
        d.get("xsearch_engine_accounted_delay_us") - d.get("xsearch_engine_fetch_wall_us");
    put_all(
        m,
        &[
            (
                "sgx.ecalls_per_op",
                d.get("xsearch_boundary_ecalls") / ops,
                "count",
            ),
            (
                "sgx.ocalls_per_op",
                d.get("xsearch_boundary_ocalls") / ops,
                "count",
            ),
            (
                "sgx.boundary_bytes_per_op",
                d.get(BOUNDARY_BYTES) / ops,
                "bytes",
            ),
            (
                "sgx.modeled_overhead_us_per_op",
                d.get(BOUNDARY_OVERHEAD_US) / ops,
                "us",
            ),
            ("engine.modeled_ms_per_op", engine_us / 1e3 / ops, "ms"),
            (
                "engine.results_per_op",
                traced.results as f64 / ops,
                "count",
            ),
            (
                "cluster.hop_us_per_op",
                d.get("xsearch_fleet_hop_delay_us") / ops,
                "us",
            ),
            (
                "sgx.epc_used_bytes",
                end.get("xsearch_epc_used_bytes"),
                "bytes",
            ),
            (
                "core.history_len",
                workload.rig().history_len() as f64,
                "count",
            ),
            (
                "core.history_bytes",
                workload.rig().history_bytes() as f64,
                "bytes",
            ),
            (
                "cluster.shed_total",
                end.get("xsearch_replica_shed"),
                "count",
            ),
            (
                "cluster.queue_high_water",
                end.get("xsearch_replica_queue_high_water"),
                "count",
            ),
            (
                "front.overloaded_replies",
                end.get("xsearch_front_overloaded_replies"),
                "count",
            ),
            (
                "front.torn_connections",
                end.get("xsearch_front_torn_connections"),
                "count",
            ),
            (
                "front.sessions_closed",
                end.get("xsearch_front_sessions_closed"),
                "count",
            ),
            (
                "front.idle_session_bytes",
                workload.idle_session_bytes(),
                "bytes",
            ),
            (
                "front.step_ns",
                step.map_or(0.0, |r| ratio(r.ns_per_op, r.calls_per_op)),
                "ns",
            ),
            (
                "loadgen.modeled_ms_per_op",
                modeled_ms_per_op(d, traced.ops),
                "ms",
            ),
            ("ledger.e2e_ns", layers.e2e, "ns"),
            ("ledger.residual_share", layers.residual_share(), "share"),
            ("ledger.crypto_self_ns", layers.crypto, "ns"),
            ("ledger.engine_self_ns", layers.engine, "ns"),
            ("ledger.core_self_ns", layers.core, "ns"),
            ("ledger.cluster_self_ns", layers.cluster, "ns"),
            ("ledger.front_self_ns", layers.front, "ns"),
            (
                "loadgen.trace_overhead_share",
                1.0 - ratio(traced.untraced_ns_per_op, traced.traced_ns_per_op),
                "share",
            ),
        ],
    );
}

/// Runs one workload once.
pub fn run(args: &RunArgs) -> RunOutput {
    let plan = Plan::of(args);
    let spec = args.spec;
    let clock = WallClock::start();
    let mut problems = Vec::new();
    let mut report = String::new();

    // Set-up, timed: generate the inputs from the seed and build the rig.
    // Several times in an untraced run so `setup_s` is a median; each
    // earlier rig is dropped before the next is built.
    let mut setup_times: Vec<f64> = Vec::new();
    let mut built = None;
    let (fewest, most) = plan.setups;
    while setup_times.len() < fewest
        || (setup_times.len() < most && setup_times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(built.take());
        let start = clock.now_ns();
        let inputs = Rc::new(Inputs::generate(args.seed));
        let workload = build(spec, &plan.scale, &inputs);
        setup_times.push((clock.now_ns() - start) as f64 / 1e9);
        built = Some((inputs, workload));
    }
    let (inputs, mut workload) = built.expect("at least one set-up");
    let setup_s = median(&setup_times);
    let mean_len = |v: &[String]| mean(&v.iter().map(|q| q.len() as f64).collect::<Vec<f64>>());
    let _ = writeln!(
        report,
        "inputs for seed {}: {} warm queries (mean {:.1} B), {} request queries (mean {:.1} B)",
        args.seed,
        inputs.warm.len(),
        mean_len(&inputs.warm),
        inputs.stream.len(),
        mean_len(&inputs.stream),
    );

    let mut next_op = 0u64;
    let mut totals = verify(&mut *workload, spec, &clock, &mut next_op, &mut problems);
    // The traced pass comes before the timed loops: everything ahead of
    // it is a fixed operation count, so it meets the same history, the
    // same RNG tickets and the same queries on every run and its reply
    // digest and counters repeat exactly.
    let traced = args.trace.then(|| {
        traced_pass(
            &mut *workload,
            &plan,
            args,
            &clock,
            &mut next_op,
            &mut problems,
        )
    });
    // Peak memory is read after a fixed amount of work — set-up, the
    // gate and a settle pass of fixed length — so it repeats. What the
    // timed loops add depends on how many operations the box got through.
    if traced.is_none() {
        let (settle, _) = run_fixed(
            &mut *workload,
            &clock,
            spec.in_flight,
            plan.trace_ops / 2,
            &mut next_op,
        );
        totals.add(settle);
    }
    let peak_rss = peak_rss_mib();
    let (loops, warm_totals) = run_loops(&mut *workload, spec, &plan, &clock, &mut next_op);
    totals.add(warm_totals);
    totals.add(loops.saturation.totals);
    totals.add(loops.paced.totals);

    let mut digest = None;
    let mut metrics;
    if let Some(traced) = &traced {
        metrics = Metrics::new();
        totals.add(traced.totals);
        let engine = crate::adapter::search_engine(plan.scale.docs_per_topic);
        let probes = Probes::new(
            Rc::clone(&inputs),
            args.smoke,
            plan.scale.fleet_window,
            plan.scale.ballast,
            engine,
        );
        let readings = probes.all();
        for &(name, unit, value) in &readings {
            put_all(&mut metrics, &[(name, value, unit)]);
        }
        let probe = |name: &str| readings.iter().find(|r| r.0 == name).map_or(0.0, |r| r.2);
        // Four AEAD operations per request: seal and open, query and reply.
        let crypto = 2.0 * (probe("crypto.seal_small_ns") + probe("crypto.open_small_ns"));
        let (layers, rung_totals) = layers(
            spec,
            &plan,
            traced,
            &probes,
            crypto,
            &mut *workload,
            next_op,
            &clock,
        );
        totals.add(rung_totals);
        // A smoke run's handful of operations times nothing.
        if !args.smoke {
            problems.extend(layers.problems());
        }
        loop_diagnostics(&mut metrics, &loops, &totals);
        traced_metrics(&mut metrics, &*workload, traced, &layers);
        render_ledger(&mut report, spec, traced, &layers);
        digest = Some(traced.digest.clone());
    } else {
        metrics = end_to_end_metrics(&loops, setup_s, peak_rss);
    }

    problems.extend(workload.end_state_problems());
    if totals.bad() > 0 {
        problems.push(format!(
            "{} operations failed and {} were refused of {} attempted ({})",
            totals.failed,
            totals.refused,
            totals.attempted,
            workload.common().first_error.clone().unwrap_or_default()
        ));
    }
    let correct = problems.is_empty();
    if args.trace {
        let ok = f64::from(u8::from(correct));
        put_all(&mut metrics, &[("loadgen.reply_digest_ok", ok, "count")]);
    }

    let t = loops.saturation.throughput();
    let cpu = loops.saturation.cpu_us_per_op();
    let p50 = loops.paced.latency_us(50.0);
    let _ = writeln!(
        report,
        "\n{}: seed {}, set-up {:.3} s (median of {}), {} attempted, {} failed, {} refused",
        spec.name,
        args.seed,
        setup_s,
        setup_times.len(),
        totals.attempted,
        totals.failed,
        totals.refused
    );
    let _ = writeln!(
        report,
        "  closed loop, {} slices: {:.0} ops/s good decile (median {:.0}, IQR {:.0}), \
         {:.3} us CPU/op good decile (median {:.3})",
        loops.saturation.slice_rates().len(),
        t.p90,
        t.median,
        t.iqr,
        cpu.p10,
        cpu.median,
    );
    let _ = writeln!(
        report,
        "  open loop at {:.0}/s: p50 {:.2} us good decile (median {:.2}), p99 {:.2} us median, \
         generator lag p99 {:.2} us, missed {:.4} good decile (median {:.4})",
        plan.paced_rate,
        p50.p10,
        p50.median,
        loops.paced.latency_us(99.0).median,
        loops.paced.gen_lag_p99_us(),
        loops.paced.miss_share().p10,
        loops.paced.miss_share().median,
    );
    for (name, (value, unit)) in &metrics {
        let _ = writeln!(report, "  {name:<34} {value:>16.4} {unit}");
    }
    for problem in &problems {
        let _ = writeln!(report, "  PROBLEM: {problem}");
    }

    RunOutput {
        correct,
        attempted: totals.attempted.max(1),
        failed: totals.bad(),
        metrics,
        report,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_self_times_are_rung_differences_and_the_residual_is_what_is_left() {
        // front_echo: AEAD 1 000 of a 2 500 ns proxy rung, fleet 3 500,
        // front 7 000; the workload itself measured at 7 700.
        let staircase = Costs {
            e2e: 7_700.0,
            requests_per_op: 1.0,
            crypto: 1_000.0,
            rungs: vec![2_500.0, 3_500.0, 7_000.0],
            ..Costs::default()
        };
        let l = staircase.split();
        assert_eq!(
            (l.crypto, l.engine, l.core, l.cluster, l.front),
            (1_000.0, 0.0, 1_500.0, 1_000.0, 3_500.0)
        );
        assert_eq!(l.residual(), 700.0);
        assert!((l.residual_share() - 700.0 / 7_700.0).abs() < 1e-12);
        assert!(l.problems().is_empty());

        // proxy_search: the fan-out comes off the one rung there is.
        let l = Costs {
            e2e: 1_000.0,
            requests_per_op: 1.0,
            crypto: 1.0,
            engine: 450.0,
            rungs: vec![990.0],
            ..Costs::default()
        }
        .split();
        assert_eq!(
            (l.engine, l.core, l.cluster, l.front),
            (450.0, 539.0, 0.0, 0.0)
        );
        assert_eq!(l.residual(), 10.0);

        // front_churn: four requests of the staircase above inside a
        // 300 000 ns connection of which 2 000 is teardown.
        let l = Costs {
            e2e: 310_000.0,
            requests_per_op: 4.0,
            lifetime: Some(300_000.0),
            teardown: 2_000.0,
            ..staircase
        }
        .split();
        assert_eq!(l.crypto, 4_000.0);
        assert_eq!(l.core, 6_000.0 + 300_000.0 - 28_000.0 - 2_000.0);
        assert_eq!((l.cluster, l.front), (4_000.0, 14_000.0 + 2_000.0));
        assert_eq!(l.residual(), 10_000.0);

        // A rung cheaper than the one below it, and a replay far from the
        // workload, are both reported.
        let l = Costs {
            e2e: 10_000.0,
            requests_per_op: 1.0,
            crypto: 1_000.0,
            rungs: vec![2_500.0, 2_000.0],
            ..Costs::default()
        }
        .split();
        let problems = l.problems();
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("residual") && problems[1].contains("cluster"));
    }
}
