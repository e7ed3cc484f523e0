//! **Cluster churn drill**: the attested enclave fleet keeps serving
//! while one replica is hard-killed and later restarted under load.
//!
//! A 4-replica fleet (consistent-hash session affinity, untrusted router
//! forwarding already-encrypted frames, one seal per request) serves an
//! open-loop load; a third of the way in one replica is killed, two
//! thirds of the way in it restarts. Clients drain the dead replica, its
//! sealed window migrates to the ring successor, and in-flight requests
//! retry. The summary (`BENCH_cluster.json`) records how many requests
//! completed and failed and how large the fleet-wide window is after the
//! drill, and gates `failed == 0`.
//!
//! Run: `cargo run -p xsearch-bench --release --bin cluster_scaling`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;
use xsearch_bench::load::{run_open_loop, LoadSpec};
use xsearch_bench::summary::{Gate, Obj, Summary};
use xsearch_bench::{echo_engine, Dataset, EXPERIMENT_SEED};
use xsearch_cluster::{Cluster, ClusterClient, ClusterConfig};
use xsearch_core::config::XSearchConfig;

const K: usize = 3;
/// Attested client sessions spread over the fleet.
const SESSIONS: usize = 32;
/// Open-loop generator threads.
const THREADS: usize = 4;
/// Replicas in the fleet.
const REPLICAS: usize = 4;
/// Queries each replica warms its window with.
const WARM_PER_REPLICA: usize = 2_000;

const QUERY: &str = "cheap flights paris";

/// The drill: open-loop load on the fleet with one kill/restart mid-run.
/// Returns (completed, failed, surviving fleet-wide window size).
fn churn_drill(warm: &[String]) -> (u64, u64, usize) {
    let cluster = Cluster::launch(
        echo_engine(),
        ClusterConfig {
            replicas: REPLICAS,
            seal_every: 1,
            proxy: XSearchConfig {
                k: K,
                // Ample capacity: the drill checks that nothing is
                // *lost*, so nothing may be evicted either.
                history_capacity: 1 << 20,
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
                        .skip(i * WARM_PER_REPLICA)
                        .take(WARM_PER_REPLICA)
                        .map(String::as_str),
                );
            })
            .expect("fresh fleet must accept warm-up");
    }
    let clients: Vec<Mutex<ClusterClient>> = (0..SESSIONS)
        .map(|i| Mutex::new(ClusterClient::attach(&cluster, i as u64).expect("attach")))
        .collect();
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
    eprintln!(
        "open loop, {THREADS} generator threads, {SESSIONS} attested sessions, k={K}: \
         churn drill (kill + restart under load)..."
    );
    let (completed, failed, fleet_window) = churn_drill(&warm);

    let mut summary = Summary::new("cluster");
    summary.row("placement", "consistent_hash");
    summary.row("sessions", SESSIONS);
    summary.row("threads", THREADS);
    let churn = Obj::new()
        .field("replicas", REPLICAS)
        .field("seal_every", 1usize)
        .field("completed", completed)
        .field("failed", failed)
        .field("fleet_window_after", fleet_window);
    summary.row("churn_drill", churn);
    summary.gate(Gate::at_most("churn_failed", failed as f64, 0.0));
    summary.finish(|| ());
}
