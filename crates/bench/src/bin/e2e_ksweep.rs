//! **End-to-end k-sweep**: user-perceived X-Search latency vs the
//! obfuscation degree k, with the engine's fan-out modeled per
//! sub-query.
//!
//! Both modes run the full attested pipeline (broker → enclave → engine
//! uplink) and evaluate the k+1 sub-queries on the proxy's request
//! thread, each evaluation timed; they differ only in how many service
//! slots (lanes) the modeled remote engine has:
//!
//! * **serial** — the seed's engine, one lane: engine leg = Σ (service
//!   draw + compute). Latency grows linearly in k.
//! * **parallel** — [`MAX_LANES`] lanes, every sub-query on its own:
//!   engine leg = the per-lane makespan. Latency is dominated by one
//!   service time regardless of k.
//!
//! The sweep's gate: the parallel modeled median may grow at most 1.5×
//! from the first k to the last.
//!
//! The same run writes **Figure 7**, the `fig7` table: the round-trip
//! time of 100 queries (always 100, whatever the knob) searched Direct,
//! through X-Search (k = 3, the parallel uplink) and through Tor, as
//! median and p99 per system. Each time is the *measured* compute of the
//! system's whole protocol stack (attested tunnel, obfuscation, onion
//! layers, ...) plus the *accounted* WAN and engine-service delays of the
//! calibrated model in `xsearch-net-sim` — the authors measured a live
//! WAN; this models one, deterministically. Tor hops get a heavier tail
//! (σ = 0.95) to match the paper's live-network medians (≈ 1.06 s) and
//! p99 (≈ 3 s) of May 2017. The paper's shape is gated: the medians
//! order Direct < X-Search < Tor, and X-Search's is at most 1.5 × Direct's
//! (paper: X-Search median 0.577 s, p99 0.873 s).
//!
//! Env knob: `E2E_QUERIES` (default 60) bounds the sweep's per-point
//! query count.
//!
//! Run: `cargo run -p xsearch-bench --release --bin e2e_ksweep`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsearch_baselines::tor::network::TorNetwork;
use xsearch_bench::distribution::Empirical;
use xsearch_bench::summary::{env_or, fixed, Gate, Json, Obj, Summary};
use xsearch_bench::{standard_engine, timed_attested_search, Dataset, EXPERIMENT_SEED};
use xsearch_core::broker::Broker;
use xsearch_core::config::XSearchConfig;
use xsearch_core::proxy::XSearchProxy;
use xsearch_engine::engine::SearchEngine;
use xsearch_engine::service::{EngineService, MAX_LANES};
use xsearch_net_sim::link::WanModel;
use xsearch_net_sim::DelayModel;
use xsearch_query_log::record::QueryRecord;

/// Obfuscation degrees swept (k + 1 sub-queries hit the engine).
const K_SWEEP: &[usize] = &[1, 3, 7, 15];

/// Queries in Fig 7's CDF, as in the paper.
const FIG7_QUERIES: usize = 100;

/// Fig 7's obfuscation degree.
const FIG7_K: usize = 3;

/// One mode's per-query end-to-end samples at a fixed k.
struct ModePoint {
    total_s: Empirical,
    engine_s: Empirical,
    compute_s: Empirical,
}

/// Drives `queries` through a freshly launched proxy whose engine uplink
/// is `service`, measuring each request's wall compute and reading its
/// modeled engine leg from the pipeline's own accounting (no external
/// draws — the delay comes from the executions that ran).
fn run_mode(
    k: usize,
    service: EngineService,
    warm: &[String],
    queries: &[QueryRecord],
    wan: &WanModel,
    rng: &mut StdRng,
) -> ModePoint {
    let ias = xsearch_sgx_sim::attestation::AttestationService::from_seed(EXPERIMENT_SEED);
    let proxy = XSearchProxy::launch_with_service(
        XSearchConfig {
            k,
            history_capacity: 1 << 20,
            ..Default::default()
        },
        service,
        &ias,
    );
    proxy.seed_history(warm.iter().map(String::as_str));
    let mut broker = Broker::attach(&proxy, &ias, proxy.expected_measurement(), 1).unwrap();

    let mut total = Vec::with_capacity(queries.len());
    let mut engine = Vec::with_capacity(queries.len());
    let mut compute = Vec::with_capacity(queries.len());
    for record in queries {
        let (engine_leg, proxy_compute) = timed_attested_search(&proxy, &mut broker, &record.query);
        let e2e =
            wan.client_proxy.rtt(rng) + wan.proxy_engine.rtt(rng) + engine_leg + proxy_compute;
        total.push(e2e.as_secs_f64());
        engine.push(engine_leg.as_secs_f64());
        compute.push(proxy_compute.as_secs_f64());
    }
    ModePoint {
        total_s: Empirical::from_samples(total),
        engine_s: Empirical::from_samples(engine),
        compute_s: Empirical::from_samples(compute),
    }
}

/// Fig 7: per-query round-trip seconds of Direct, X-Search (k = 3) and
/// Tor over `queries`, on its own seeded delay draws.
fn fig7(
    engine: &Arc<SearchEngine>,
    warm: &[String],
    queries: &[QueryRecord],
) -> [(&'static str, Empirical); 3] {
    let wan = WanModel {
        tor_hop: DelayModel::lognormal_ms(88, 0.95),
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);

    let mut direct = Vec::with_capacity(queries.len());
    for record in queries {
        let start = Instant::now();
        let _ = engine.search(&record.query, 20);
        let compute = start.elapsed();
        let total = wan.client_engine.rtt(&mut rng) + wan.engine_service.sample(&mut rng) + compute;
        direct.push(total.as_secs_f64());
    }

    let xsearch = run_mode(
        FIG7_K,
        EngineService::new(engine.clone(), wan.engine_service.clone(), EXPERIMENT_SEED),
        warm,
        queries,
        &wan,
        &mut rng,
    );

    let network = TorNetwork::new(9, Duration::ZERO, &mut rng);
    let mut circuit = network.build_circuit(&mut rng);
    let mut tor = Vec::with_capacity(queries.len());
    for record in queries {
        let start = Instant::now();
        let reply = network
            .round_trip(&mut circuit, record.query.as_bytes(), |req| {
                let q = String::from_utf8_lossy(req);
                xsearch_core::wire::encode_results(&engine.search(&q, 20))
            })
            .expect("tor round trip");
        // The client reads the length-framed reply, as X-Search's broker
        // reads its own.
        xsearch_core::wire::decode_results(&reply).expect("tor reply decodes");
        let compute = start.elapsed();
        // 3 onion hops each way + exit↔engine + engine service.
        let mut wan_time = Duration::ZERO;
        for _ in 0..3 {
            wan_time += wan.tor_hop.rtt(&mut rng);
        }
        wan_time += wan.proxy_engine.rtt(&mut rng) + wan.engine_service.sample(&mut rng);
        tor.push((wan_time + compute).as_secs_f64());
    }

    [
        ("direct", Empirical::from_samples(direct)),
        ("xsearch_k3", xsearch.total_s),
        ("tor", Empirical::from_samples(tor)),
    ]
}

fn json_mode(point: &ModePoint) -> Obj {
    Obj::new()
        .field("median_s", fixed(point.total_s.median(), 4))
        .field("p99_s", fixed(point.total_s.quantile(0.99), 4))
        .field("engine_median_s", fixed(point.engine_s.median(), 4))
        .field("compute_median_s", fixed(point.compute_s.median(), 6))
}

fn main() {
    let queries = env_or("E2E_QUERIES", 60, 1) as usize;
    let dataset = Dataset::with_users(60);
    let warm = dataset.train_queries();
    let test = dataset.sample_test(queries, 7);
    let engine: Arc<SearchEngine> = Arc::new(standard_engine());
    let wan = WanModel::default();
    let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED);

    let mut sweep = Vec::new();
    for &k in K_SWEEP {
        eprintln!("running k = {k} ({} sub-queries)...", k + 1);
        let serial = run_mode(
            k,
            EngineService::serial(engine.clone(), wan.engine_service.clone(), EXPERIMENT_SEED),
            &warm,
            &test,
            &wan,
            &mut rng,
        );
        let parallel = run_mode(
            k,
            EngineService::new(engine.clone(), wan.engine_service.clone(), EXPERIMENT_SEED),
            &warm,
            &test,
            &wan,
            &mut rng,
        );
        sweep.push((k, serial, parallel));
    }
    // Growth from k = first to k = last of the sweep: the serial column
    // reproduces the linear-in-k seed behavior; the parallel column must
    // stay sublinear (the whole point of the real fan-out).
    let (first, last) = (&sweep[0], &sweep[sweep.len() - 1]);
    let serial_growth = last.1.total_s.median() / first.1.total_s.median();
    let parallel_growth = last.2.total_s.median() / first.2.total_s.median();
    let k_growth = (last.0 + 1) as f64 / (first.0 + 1) as f64;

    let mut summary = Summary::new("e2e");
    summary.row("queries", queries);
    let service = format!("{:?}", wan.engine_service);
    summary.row("engine_service", service.as_str());
    summary.row("lanes", MAX_LANES);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    summary.row("cores", cores);
    let k_sweep = sweep.iter().map(|(k, serial, parallel)| {
        let speedup = serial.total_s.median() / parallel.total_s.median();
        Obj::new()
            .field("k", *k)
            .field("subqueries", k + 1)
            .field("serial", json_mode(serial))
            .field("parallel", json_mode(parallel))
            .field("speedup_median", fixed(speedup, 2))
    });
    summary.row("k_sweep", k_sweep.collect::<Json>());
    let growth = Obj::new()
        .field("subquery_factor", fixed(k_growth, 2))
        .field("serial_median_factor", fixed(serial_growth, 2))
        .field("parallel_median_factor", fixed(parallel_growth, 2));
    summary.row(&format!("growth_k{}_to_k{}", first.0, last.0), growth);
    // The modeled latency must stay flat in k.
    summary.gate(Gate::at_most(
        "parallel_median_growth",
        parallel_growth,
        1.5,
    ));

    eprintln!("running fig 7 ({FIG7_QUERIES} queries)...");
    let fig7_test = dataset.sample_test(FIG7_QUERIES, 7);
    let systems = fig7(&engine, &warm, &fig7_test);
    let mut table = Obj::new().field("queries", fig7_test.len());
    for (name, times) in &systems {
        let row = Obj::new()
            .field("median_s", fixed(times.median(), 4))
            .field("p99_s", fixed(times.quantile(0.99), 4));
        table = table.field(name, row);
    }
    summary.row("fig7", table);
    let medians = systems.each_ref().map(|(_, times)| times.median());
    let order_breaks = medians.windows(2).filter(|w| w[0] >= w[1]).count();
    summary.gate(Gate::at_most(
        "fig7_median_order_breaks",
        order_breaks as f64,
        0.0,
    ));
    summary.gate(Gate::at_most(
        "fig7_xsearch_over_direct_median",
        medians[1] / medians[0],
        1.5,
    ));
    summary.finish(|| ());
}
