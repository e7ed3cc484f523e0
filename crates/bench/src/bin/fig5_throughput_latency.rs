//! **Figure 5**: latency vs offered throughput for the X-Search proxy,
//! PEAS and Tor (log-log in the paper).
//!
//! Paper claims to reproduce in shape: X-Search sustains ~25,000 req/s
//! with sub-second latency; PEAS collapses around 1,000 req/s; Tor
//! handles on the order of 100 req/s — order-of-magnitude gaps between
//! the three systems.
//!
//! Method (§6.3): a wrk2-style open-loop generator drives each system at
//! increasing rates *without hitting the web search engine* ("to better
//! understand the saturation point of the proxy"): X-Search and PEAS run
//! in echo mode (full crypto + obfuscation + filtering, no engine);
//! Tor performs full 3-hop onion round trips with a modeled per-relay
//! service time (see DESIGN.md on the relay-capacity substitution).
//!
//! On top of the paper's three-system comparison this harness runs a
//! **threads-scaling sweep** (1/2/4/8 generator threads against one
//! shared proxy) — the paper's claim that the proxy "uses multiple
//! threads" over shared enclave state is only meaningful if added
//! threads buy throughput, so the sweep tracks exactly that from PR to
//! PR. The summary is written to `BENCH_fig5.json`. Set `FIG5_POINT_MS`
//! to shorten each measured point (CI smoke uses this).
//!
//! Run: `cargo run -p xsearch-bench --release --bin fig5_throughput_latency`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use xsearch_baselines::peas::{
    CooccurrenceMatrix, PeasClient, PeasFakeGenerator, PeasIssuer, PeasReceiver,
};
use xsearch_baselines::tor::network::TorNetwork;
use xsearch_bench::load::{capacity, json_points, p99_at_capacity, sweep_rates, RunReport};
use xsearch_bench::series::Table;
use xsearch_bench::sessions::BrokerPool;
use xsearch_bench::summary::{env_or, fixed, Json, Obj, Summary};
use xsearch_bench::{Dataset, EXPERIMENT_SEED};
use xsearch_query_log::record::UserId;

const K: usize = 3;
const SESSIONS: usize = 32;
/// Generator threads for the paper's three-system comparison.
const THREADS: usize = 2;
/// Thread counts for the scaling sweep over one shared proxy.
const SCALING_THREADS: &[usize] = &[1, 2, 4, 8];
/// Modeled CPU service per relay per message: the capacity term standing
/// in for shared, bandwidth-limited Tor relays.
const TOR_RELAY_SERVICE: Duration = Duration::from_millis(2);

/// The SGX boundary cost paid in wall time per request: the paper's
/// request path crosses the boundary 10 times (1 ecall + 4 ocalls, two
/// crossings each) at ≈2.7 µs per crossing on Skylake. The simulator
/// *accounts* this cost; here the proxy must also *pay* it so the
/// saturation point reflects enclave hardware, not just raw crypto.
const SGX_TRANSITION_PAY: Duration = Duration::from_micros(27);

const QUERY: &str = "cheap flights paris";

const XSEARCH_RATES: &[f64] = &[
    1_000.0, 2_500.0, 5_000.0, 10_000.0, 17_500.0, 25_000.0, 40_000.0, 60_000.0, 90_000.0,
    130_000.0, 200_000.0,
];

/// Rate ladder for the scaling sweep. Denser than the Fig 5 ladder and
/// extended upward: without the per-request transition pay the software
/// hot path saturates much later.
const SCALING_RATES: &[f64] = &[
    5_000.0, 10_000.0, 17_500.0, 25_000.0, 32_500.0, 40_000.0, 50_000.0, 65_000.0, 80_000.0,
    100_000.0, 130_000.0, 170_000.0, 220_000.0, 300_000.0, 400_000.0, 550_000.0, 700_000.0,
];

fn round_robin<T>(pool: &[Mutex<T>], counter: &AtomicUsize) -> usize {
    counter.fetch_add(1, Ordering::Relaxed) % pool.len()
}

fn xsearch_reports(warm: &[String], point: Duration) -> Vec<RunReport> {
    let pool = BrokerPool::warmed(K, SESSIONS, warm);
    sweep_rates(XSEARCH_RATES, point, THREADS, &|| {
        let ok = pool.echo(QUERY);
        xsearch_net_sim::delay::busy_wait(SGX_TRANSITION_PAY);
        ok
    })
}

/// The threads-scaling sweep: same proxy, same session pool, increasing
/// generator-thread counts. The per-thread-count capacity is the series
/// `BENCH_fig5.json` tracks across PRs.
///
/// Unlike the Fig 5 comparison above, the scaling sweep does **not** pay
/// the wall-clock SGX transition cost per request: that cost is constant
/// per request and paid in parallel on real multi-core enclave hardware,
/// but on a small CI box a 27 µs serial busy-wait saturates the machine
/// at ~37 k req/s and would mask exactly the lock-contention signal this
/// sweep exists to expose. Transition costs remain *accounted* in the
/// proxy's [`xsearch_sgx_sim::boundary::BoundaryStats`] either way.
fn scaling_reports(warm: &[String], point: Duration) -> Vec<(usize, Vec<RunReport>)> {
    let pool = BrokerPool::warmed(K, SESSIONS, warm);
    SCALING_THREADS
        .iter()
        .map(|&threads| {
            eprintln!("  scaling: {threads} generator thread(s)...");
            let reports = sweep_rates(SCALING_RATES, point, threads, &|| pool.echo(QUERY));
            (threads, reports)
        })
        .collect()
}

fn peas_reports(warm: &[String], point: Duration) -> Vec<RunReport> {
    let matrix = CooccurrenceMatrix::build(warm);
    let mut issuer = PeasIssuer::new(
        PeasFakeGenerator::new(matrix, EXPERIMENT_SEED),
        EXPERIMENT_SEED,
    );
    issuer.set_k(K);
    let issuer = Arc::new(issuer);
    let receiver = Arc::new(PeasReceiver::new());
    let clients: Vec<Mutex<PeasClient>> = (0..SESSIONS)
        .map(|i| {
            Mutex::new(PeasClient::new(
                UserId(i as u32),
                issuer.public_key(),
                i as u64,
            ))
        })
        .collect();
    let counter = AtomicUsize::new(0);
    let rates = [
        100.0, 250.0, 500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0,
    ];
    sweep_rates(&rates, point, THREADS, &|| {
        let idx = round_robin(&clients, &counter);
        clients[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .search(&receiver, &issuer, QUERY, |_, _| Vec::new())
            .is_ok()
    })
}

fn tor_reports(point: Duration) -> Vec<RunReport> {
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);
    let network = Arc::new(TorNetwork::new(12, TOR_RELAY_SERVICE, &mut rng));
    let circuits: Vec<Mutex<_>> = (0..SESSIONS)
        .map(|_| Mutex::new(network.build_circuit(&mut rng)))
        .collect();
    let counter = AtomicUsize::new(0);
    let rates = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1_600.0];
    sweep_rates(&rates, point, THREADS, &|| {
        let idx = round_robin(&circuits, &counter);
        let mut circuit = circuits[idx].lock().unwrap_or_else(PoisonError::into_inner);
        network
            .round_trip(&mut circuit, QUERY.as_bytes(), |req| req.to_vec())
            .is_ok()
    })
}

fn emit(table: &mut Table, system: f64, reports: &[RunReport]) {
    for r in reports {
        table.row(&[
            system,
            r.offered_rate,
            r.achieved_rate(),
            r.median_latency_ms(),
            r.p99_latency_ms(),
            r.error_rate(),
            f64::from(u8::from(r.kept_up())),
        ]);
    }
}

fn main() {
    let dataset = Dataset::with_users(60);
    let warm = dataset.train_queries();
    let point_ms = env_or("FIG5_POINT_MS", 1_500, 10);
    let point = Duration::from_millis(point_ms);

    let mut table = Table::new(
        "fig5: latency vs offered throughput (system: 0=xsearch 1=peas 2=tor)",
        &[
            "system",
            "offered_rps",
            "achieved_rps",
            "median_ms",
            "p99_ms",
            "error_rate",
            "kept_up",
        ],
    );
    table.note(&format!(
        "open loop, {THREADS} generator threads, {SESSIONS} sessions, {point:?} per point, k={K}"
    ));
    table.note("paper shape: xsearch ~25k req/s, peas ~1k, tor ~100 (orders of magnitude apart)");

    eprintln!("running x-search sweep...");
    let xs = xsearch_reports(&warm, point);
    emit(&mut table, 0.0, &xs);
    eprintln!("running peas sweep...");
    let peas = peas_reports(&warm, point);
    emit(&mut table, 1.0, &peas);
    eprintln!("running tor sweep...");
    let tor = tor_reports(point);
    emit(&mut table, 2.0, &tor);
    table.print();

    eprintln!("running x-search threads-scaling sweep...");
    let scaling = scaling_reports(&warm, point);
    let mut summary = Summary::new("fig5");
    summary.row("point_ms", point_ms);
    let threads_sweep = scaling.iter().map(|(threads, reports)| {
        Obj::new()
            .field("threads", *threads)
            .field("max_sustained_rps", fixed(capacity(reports), 1))
            .field("p99_ms_at_capacity", fixed(p99_at_capacity(reports), 3))
            .field("points", json_points(reports))
    });
    summary.row("threads_sweep", threads_sweep.collect::<Json>());
    let xsearch_key = format!("xsearch_{THREADS}threads_rps");
    let systems = Obj::new()
        .field(&xsearch_key, fixed(capacity(&xs), 1))
        .field("peas_rps", fixed(capacity(&peas), 1))
        .field("tor_rps", fixed(capacity(&tor), 1));
    summary.row("systems", systems);
    summary.finish(|| ());
}
