//! **Cluster scaling**: echo-mode capacity of the attested enclave fleet
//! vs replica count, under the open-loop `workload` runner.
//!
//! The paper evaluates one SGX proxy; the ROADMAP north-star is serving
//! millions of users, which means scaling *across enclaves*. This
//! harness sweeps a 1/2/4/8-replica fleet (consistent-hash session
//! affinity, untrusted router forwarding already-encrypted frames,
//! per-replica data-center links accounted) and records the
//! max-sustained-rate series in `BENCH_cluster.json` — the fleet-level
//! counterpart of `BENCH_fig5.json`'s threads sweep.
//!
//! The fleet serves one fixed user population whose last-x history
//! (`FLEET_WINDOW` queries fleet-wide) is **split** across replicas:
//! each holds its consistent-hash share as a bounded window at steady
//! state. Sealing does not scale with that share: every `SEAL_EVERY`
//! requests a replica seals the ≤ `SEAL_EVERY` entries that landed since
//! its last segment, whatever its window holds, so what a bigger fleet
//! distributes is the request path itself.
//!
//! A **churn drill** rides along: a 4-replica fleet under open-loop load
//! has one replica hard-killed and later restarted mid-run; the summary
//! records how many requests failed (target: zero — clients drain the
//! dead replica, the sealed window migrates to the ring successor, and
//! in-flight requests retry) and how many history entries the migration
//! carried.
//!
//! Env knob: `CLUSTER_POINT_MS` shortens each measured point (CI smoke).
//!
//! Run: `cargo run -p xsearch-bench --release --bin cluster_scaling`

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;
use xsearch_bench::load::{capacity, json_points, run_open_loop, sweep_rates, LoadSpec, RunReport};
use xsearch_bench::summary::{env_or, fixed, Json, Obj, Summary};
use xsearch_bench::{echo_engine, Dataset, EXPERIMENT_SEED};
use xsearch_cluster::{Cluster, ClusterClient, ClusterConfig, LaneStats};
use xsearch_core::config::XSearchConfig;

const K: usize = 3;
/// Attested client sessions spread over the fleet.
const SESSIONS: usize = 32;
/// Open-loop generator threads.
const THREADS: usize = 4;
/// Replica counts swept.
const REPLICAS: &[usize] = &[1, 2, 4, 8];
/// Fleet-total last-x window, in queries. The window is a property of
/// the **user population** — their recent history — not of the fleet
/// size, so N replicas split it (consistent-hash affinity: each holds
/// its own clients' share). Per-replica history capacity is set to the
/// share, which keeps the window at steady state during the sweep
/// (bounded last-x, oldest evicted) instead of growing without bound —
/// measured capacity no longer depends on how many rate points ran
/// before.
const FLEET_WINDOW: usize = 32_768;
/// Seal cadence during the sweep: snapshot each replica's window every
/// N requests — the recovery-point/throughput trade (the churn tests use
/// 1; a fleet at full throttle amortizes).
const SEAL_EVERY: usize = 64;

const QUERY: &str = "cheap flights paris";

const RATES: &[f64] = &[
    5_000.0, 10_000.0, 17_500.0, 25_000.0, 32_500.0, 40_000.0, 50_000.0, 65_000.0, 80_000.0,
    100_000.0, 130_000.0, 170_000.0, 220_000.0, 300_000.0, 400_000.0,
];

fn launch_fleet(
    replicas: usize,
    seal_every: usize,
    history_capacity: usize,
    warm_per_replica: usize,
    warm: &[String],
) -> Cluster {
    let cluster = Cluster::launch(
        echo_engine(),
        ClusterConfig {
            replicas,
            seal_every,
            proxy: XSearchConfig {
                k: K,
                history_capacity,
                ..Default::default()
            },
            seed: EXPERIMENT_SEED,
            ..Default::default()
        },
    );
    for (i, id) in cluster.replica_ids().into_iter().enumerate() {
        // Each replica warms with its own distinct slice of the
        // population's history (wrapping when the trace is shorter).
        cluster
            .with_replica(id, |proxy| {
                proxy.seed_history(
                    warm.iter()
                        .cycle()
                        .skip(i * warm_per_replica)
                        .take(warm_per_replica)
                        .map(String::as_str),
                );
            })
            .expect("fresh fleet must accept warm-up");
    }
    cluster
}

fn attach_clients(cluster: &Cluster) -> Vec<Mutex<ClusterClient>> {
    (0..SESSIONS)
        .map(|i| Mutex::new(ClusterClient::attach(cluster, i as u64).expect("attach")))
        .collect()
}

/// One replica-count point of the sweep.
fn fleet_reports(
    replicas: usize,
    warm: &[String],
    point: Duration,
) -> (Vec<RunReport>, f64, LaneStats) {
    let share = FLEET_WINDOW / replicas;
    let cluster = launch_fleet(replicas, SEAL_EVERY, share, share, warm);
    let clients = attach_clients(&cluster);
    let counter = AtomicUsize::new(0);
    let served = AtomicU64::new(0);
    let reports = sweep_rates(RATES, point, THREADS, &|| {
        let idx = counter.fetch_add(1, Ordering::Relaxed) % clients.len();
        let ok = clients[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .search_echo(&cluster, QUERY)
            .is_ok();
        served.fetch_add(1, Ordering::Relaxed);
        ok
    });
    let served = served.load(Ordering::Relaxed).max(1);
    let snap = cluster.telemetry().snapshot();
    let hop_us = snap.value("xsearch_fleet_hop_delay_us", &[]).unwrap_or(0.0);
    let hop_us_mean = hop_us / served as f64;
    (reports, hop_us_mean, cluster.batch_stats())
}

/// The churn drill: open-loop load on a 4-replica fleet with one
/// kill/restart mid-run. Returns (completed, failed, surviving
/// fleet-wide window size).
fn churn_drill(warm: &[String]) -> (u64, u64, usize) {
    // Ample capacity: the drill checks that nothing is *lost*, so
    // nothing may be evicted either.
    let cluster = Arc::new(launch_fleet(4, 1, 1 << 20, 2_000, warm));
    let clients = attach_clients(&cluster);
    let victim = clients[0]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .replica();
    let total: u64 = 2_000;
    let rate = 4_000.0;
    let ticket = AtomicU64::new(0);
    let report = run_open_loop(
        &LoadSpec {
            rate_per_sec: rate,
            duration: Duration::from_secs_f64(total as f64 / rate),
            threads: THREADS,
        },
        &|| {
            let n = ticket.fetch_add(1, Ordering::Relaxed);
            if n == total / 3 {
                cluster.kill(victim).expect("victim exists");
            }
            if n == 2 * total / 3 {
                cluster.restart(victim).expect("restart");
            }
            let idx = n as usize % clients.len();
            clients[idx]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .search_echo(&cluster, QUERY)
                .is_ok()
        },
    );
    // What survived: the failover's sweep runs inside client retries, so
    // read the surviving fleet windows rather than a side channel.
    let fleet_window: usize = cluster
        .replica_ids()
        .into_iter()
        .filter_map(|id| {
            cluster
                .with_replica(id, xsearch_core::proxy::XSearchProxy::history_len)
                .ok()
        })
        .sum();
    (report.completed, report.failed, fleet_window)
}

fn main() {
    let dataset = Dataset::with_users(60);
    let warm = dataset.train_queries();
    let point_ms = env_or("CLUSTER_POINT_MS", 1_000, 10);
    let point = Duration::from_millis(point_ms);

    eprintln!(
        "open loop, {THREADS} generator threads, {SESSIONS} attested sessions, {point:?} per point, k={K}"
    );
    let mut sweep = Vec::new();
    for &replicas in REPLICAS {
        eprintln!("running fleet sweep: {replicas} replica(s)...");
        let (reports, hop_us, lanes) = fleet_reports(replicas, &warm, point);
        sweep.push(
            Obj::new()
                .field("replicas", replicas)
                .field("max_sustained_rps", fixed(capacity(&reports), 1))
                .field("hop_us_mean", fixed(hop_us, 1))
                .field("ecall_batches", lanes.batches)
                .field("mean_batch", fixed(lanes.mean_batch(), 2))
                .field("max_batch", lanes.max_batch)
                .field("points", json_points(&reports)),
        );
    }
    eprintln!("running churn drill (kill + restart under load)...");
    let (completed, failed, fleet_window) = churn_drill(&warm);

    let mut summary = Summary::new("cluster");
    summary.row("point_ms", point_ms);
    summary.row("placement", "consistent_hash");
    summary.row("sessions", SESSIONS);
    summary.row("threads", THREADS);
    summary.row("seal_every", SEAL_EVERY);
    summary.row("fleet_window", FLEET_WINDOW);
    summary.row("replica_sweep", sweep.into_iter().collect::<Json>());
    let churn = Obj::new()
        .field("replicas", 4usize)
        .field("completed", completed)
        .field("failed", failed)
        .field("fleet_window_after", fleet_window);
    summary.row("churn_drill", churn);
    summary.finish(|| ());
}
