//! The acceptance scenario for the fleet tier: under concurrent load
//! against a 4-replica fleet, killing and restarting one replica must
//! lose no client's last-x history window (sealed migration) and every
//! surviving response must still decrypt.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use xsearch_cluster::{Cluster, ClusterClient, ClusterConfig};
use xsearch_core::config::XSearchConfig;
use xsearch_core::proxy::XSearchProxy;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;

use std::sync::{Arc, Mutex, PoisonError};

const CLIENTS: usize = 16;
/// Tagged queries each client sends before the churn phase.
const TAGGED_PER_CLIENT: usize = 4;

fn fleet() -> Cluster {
    let engine = Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 5,
        ..Default::default()
    }));
    Cluster::launch(
        engine,
        ClusterConfig {
            replicas: 4,
            // Seal after every request: a crash loses nothing.
            seal_every: 1,
            proxy: XSearchConfig {
                k: 2,
                // Large enough that nothing is evicted during the test,
                // so "the window survived" is checkable by containment.
                history_capacity: 1 << 20,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

#[test]
fn churn_under_open_loop_load_preserves_windows_and_decryption() {
    let cluster = Arc::new(fleet());
    let clients: Vec<Mutex<ClusterClient>> = (0..CLIENTS)
        .map(|i| Mutex::new(ClusterClient::attach(&cluster, 1000 + i as u64).unwrap()))
        .collect();

    // Phase A — tagged traffic, so every replica's window has known,
    // per-client content.
    for (i, client) in clients.iter().enumerate() {
        let mut client = client.lock().unwrap_or_else(PoisonError::into_inner);
        for j in 0..TAGGED_PER_CLIENT {
            client
                .search_echo(&cluster, &format!("tagged client{i} q{j}"))
                .unwrap();
        }
    }
    let victim = clients[0]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .replica();
    let victim_window = cluster
        .with_replica(victim, XSearchProxy::history_snapshot)
        .unwrap();
    assert!(
        !victim_window.is_empty(),
        "client 0's replica must hold its tagged window"
    );

    // Phase B — four threads take tickets until every request has been
    // issued; the victim replica is hard-killed a third of the way in and
    // restarted at two thirds. Every request must succeed: clients ride
    // out the crash by draining the victim (health sweep), re-attesting
    // whichever replica inherits their affinity key, and retrying; the
    // victim's sealed window migrates to its designated ring successor.
    let total_requests = 1_200u64;
    let kill_at = total_requests / 3;
    let restart_at = 2 * total_requests / 3;
    let ticket = AtomicU64::new(0);
    let (completed, failed) = (AtomicU64::new(0), AtomicU64::new(0));
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| loop {
                let n = ticket.fetch_add(1, Ordering::Relaxed);
                if n >= total_requests {
                    break;
                }
                if n == kill_at {
                    cluster.kill(victim).unwrap();
                }
                if n == restart_at {
                    cluster.restart(victim).unwrap();
                }
                let mut client = clients[n as usize % CLIENTS]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let query = format!("load query {n}");
                let outcome = match client.search_echo(&cluster, &query) {
                    Ok(_) => &completed,
                    Err(_) => &failed,
                };
                outcome.fetch_add(1, Ordering::Relaxed);
            });
        }
    });

    assert_eq!(
        failed.into_inner(),
        0,
        "every request must survive the churn (decrypted response or \
         successful retry against the successor)"
    );
    assert_eq!(completed.into_inner(), total_requests);

    // The victim's pre-kill window survived somewhere in the fleet: the
    // ring successor adopted the sealed migration, and nothing evicted
    // it (capacity is ample).
    let mut fleet_union: HashSet<String> = HashSet::new();
    for id in cluster.replica_ids() {
        if let Ok(snapshot) = cluster.with_replica(id, XSearchProxy::history_snapshot) {
            fleet_union.extend(snapshot);
        }
    }
    for q in &victim_window {
        assert!(
            fleet_union.contains(q),
            "window entry {q:?} was lost in the failover"
        );
    }

    // The restarted victim is verified and serving again.
    assert!(cluster.registry().is_routable(victim));
    let mut probe = ClusterClient::attach(&cluster, 99_999).unwrap();
    probe.search_echo(&cluster, "post churn probe").unwrap();
}

/// A seeded kill/restart schedule interleaved with client traffic,
/// replayed twice from scratch: both runs must produce an identical
/// transcript (same per-request results, same churn events), lose zero
/// requests, and end with every query intact in the fleet-union window.
/// Any nondeterminism smuggled into the data plane by the lock-free
/// refactor — snapshot races, lane coalescing leaking into results,
/// hop-table accounting feeding back into routing — would break the
/// byte-for-byte transcript equality.
#[test]
fn seeded_churn_replay_is_deterministic_and_lossless() {
    const REQUESTS: usize = 240;
    const REPLAY_CLIENTS: usize = 6;

    fn run_once() -> (Vec<String>, Vec<String>) {
        let cluster = fleet();
        let mut clients: Vec<ClusterClient> = (0..REPLAY_CLIENTS)
            .map(|i| ClusterClient::attach(&cluster, 3000 + i as u64).unwrap())
            .collect();

        // A fixed-seed LCG drives every schedule decision, so the whole
        // kill/restart/traffic interleaving replays exactly.
        let mut state = 0x5EED_CAFEu64;
        let mut draw = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };

        let mut transcript: Vec<String> = Vec::with_capacity(REQUESTS + 16);
        let mut downed: Option<xsearch_cluster::ReplicaId> = None;
        for n in 0..REQUESTS {
            if n % 48 == 0 && n > 0 {
                let victim = xsearch_cluster::ReplicaId(draw() as usize % 4);
                cluster.kill(victim).unwrap();
                transcript.push(format!("kill {victim}"));
                downed = Some(victim);
            }
            if n % 48 == 24 {
                if let Some(victim) = downed.take() {
                    let restored = cluster.restart(victim).unwrap();
                    transcript.push(format!("restart {victim} restored {restored}"));
                }
            }
            let c = draw() as usize % REPLAY_CLIENTS;
            let echo = draw() % 2 == 0;
            let query = format!("replay {n}");
            let results = if echo {
                clients[c].search_echo(&cluster, &query)
            } else {
                clients[c].search(&cluster, &query)
            }
            .unwrap_or_else(|e| panic!("request {n} lost: {e}"));
            transcript.push(format!("n={n} client={c} results={results:?}"));
        }

        let mut union: Vec<String> = Vec::new();
        for rid in cluster.replica_ids() {
            if let Ok(snap) = cluster.with_replica(rid, XSearchProxy::history_snapshot) {
                union.extend(snap);
            }
        }
        union.sort_unstable();
        union.dedup();
        (transcript, union)
    }

    let (transcript_a, window_a) = run_once();
    let (transcript_b, window_b) = run_once();
    assert_eq!(
        transcript_a, transcript_b,
        "replaying the same seeded schedule must be deterministic"
    );
    assert_eq!(window_a, window_b, "fleet-union windows diverged");
    for n in 0..REQUESTS {
        let q = format!("replay {n}");
        assert!(
            window_a.contains(&q),
            "query {q:?} lost from the fleet window despite seal_every=1"
        );
    }
}

#[test]
fn every_tagged_window_survives_killing_each_replica_once() {
    // Sequential churn across the whole fleet: kill+sweep+restart each
    // replica in turn; no tagged query may ever disappear.
    let cluster = fleet();
    let mut clients: Vec<ClusterClient> = (0..8)
        .map(|i| ClusterClient::attach(&cluster, 2000 + i as u64).unwrap())
        .collect();
    let mut all_tags: Vec<String> = Vec::new();
    for (i, client) in clients.iter_mut().enumerate() {
        for j in 0..3 {
            let q = format!("sweep-tag c{i} q{j}");
            client.search_echo(&cluster, &q).unwrap();
            all_tags.push(q);
        }
    }
    for id in cluster.replica_ids() {
        cluster.kill(id).unwrap();
        cluster.health_sweep();
        cluster.restart(id).unwrap();

        let mut union: HashSet<String> = HashSet::new();
        for rid in cluster.replica_ids() {
            if let Ok(snap) = cluster.with_replica(rid, XSearchProxy::history_snapshot) {
                union.extend(snap);
            }
        }
        for tag in &all_tags {
            assert!(union.contains(tag), "tag {tag:?} lost after churning {id}");
        }
    }
}
