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
//! One gate: the parallel modeled median may grow at most 1.5× from the
//! first k to the last.
//!
//! Env knob: `E2E_QUERIES` (default 60) bounds the per-point query
//! count.
//!
//! Run: `cargo run -p xsearch-bench --release --bin e2e_ksweep`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use xsearch_bench::distribution::Empirical;
use xsearch_bench::summary::{env_or, fixed, Gate, Json, Obj, Summary};
use xsearch_bench::{standard_engine, timed_attested_search, Dataset, EXPERIMENT_SEED};
use xsearch_core::broker::Broker;
use xsearch_core::config::XSearchConfig;
use xsearch_core::proxy::XSearchProxy;
use xsearch_engine::engine::SearchEngine;
use xsearch_engine::pool::MAX_LANES;
use xsearch_engine::service::EngineService;
use xsearch_net_sim::link::WanModel;
use xsearch_query_log::record::QueryRecord;

/// Obfuscation degrees swept (k + 1 sub-queries hit the engine).
const K_SWEEP: &[usize] = &[1, 3, 7, 15];

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
    summary.finish(|| ());
}
