//! Membership changes under concurrent traffic: once `deregister`
//! returns, no route computed afterwards lands on the deregistered
//! replica; every snapshot loaded under churn carries a ring of exactly
//! its members; and enrolls racing each other leave every verified
//! replica on the ring.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xsearch_cluster::{Cluster, ClusterConfig, ClusterError, RegistrySnapshot, ReplicaId};
use xsearch_core::config::XSearchConfig;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;

fn fleet(replicas: usize) -> Cluster {
    let engine = Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 3,
        ..Default::default()
    }));
    Cluster::launch(
        engine,
        ClusterConfig {
            replicas,
            proxy: XSearchConfig {
                k: 2,
                history_capacity: 1 << 12,
                ..Default::default()
            },
            ..Default::default()
        },
    )
}

/// Whether `snapshot`'s ring holds exactly its members: each member has
/// a point on it and no other replica does.
fn ring_is_its_members(snapshot: &RegistrySnapshot) -> bool {
    let mut on_ring: Vec<ReplicaId> = snapshot.ring().walk_from_coord(0).collect();
    on_ring.sort_unstable();
    on_ring.into_iter().eq(snapshot.ids())
}

/// Once `deregister(id)` returns, every subsequently started route
/// reads a snapshot at or past the deregistration epoch — so the victim
/// must never be routed to again, even while unrelated writers keep
/// churning other replicas.
#[test]
fn no_request_routes_to_a_deregistered_replica_after_its_epoch() {
    let cluster = Arc::new(fleet(4));
    let victim = ReplicaId(2);
    let deregistered = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        // Router threads: sample the flag *before* routing; if the
        // deregister had already returned by then, the routed replica
        // must not be the victim.
        for t in 0..4u64 {
            let cluster = Arc::clone(&cluster);
            let deregistered = Arc::clone(&deregistered);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let flagged = deregistered.load(Ordering::SeqCst);
                    let key = (t << 32 | i).to_le_bytes();
                    let routed = cluster.route(&key).expect("three replicas remain");
                    if flagged {
                        assert_ne!(
                            routed, victim,
                            "routed to a replica after its deregister epoch"
                        );
                    }
                    i += 1;
                }
            });
        }
        // Noise writer: keeps publishing fresh snapshots by flapping an
        // unrelated replica, so the victim's exclusion must survive an
        // ever-advancing epoch, not just a frozen one.
        {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let noise = ReplicaId(3);
                while !stop.load(Ordering::SeqCst) {
                    cluster.registry().deregister(noise);
                    cluster.enroll(noise).expect("noise replica re-enrolls");
                }
            });
        }

        // Let the routers warm up on the full fleet, then pull the plug.
        std::thread::sleep(std::time::Duration::from_millis(30));
        cluster.registry().deregister(victim);
        deregistered.store(true, Ordering::SeqCst);
        let dereg_epoch = cluster
            .registry()
            .deregister_epoch(victim)
            .expect("deregistration recorded its epoch");

        // Every snapshot loaded from now on is at or past the epoch,
        // excludes the victim and routes over a ring of exactly its
        // members, whatever the noise writer is doing; the forward path
        // refuses the victim outright.
        for _ in 0..2000 {
            let snap = cluster.registry().snapshot();
            assert!(ring_is_its_members(&snap));
            assert!(snap.epoch() >= dereg_epoch);
            assert!(!snap.is_routable(victim));
        }
        assert!(matches!(
            cluster.with_replica(victim, |_| ()),
            Err(ClusterError::NotRoutable(_))
        ));

        std::thread::sleep(std::time::Duration::from_millis(30));
        stop.store(true, Ordering::SeqCst);
    });

    // The victim can come back — with a fresh epoch past its exile.
    cluster.enroll(victim).expect("victim re-enrolls");
    let snap = cluster.registry().snapshot();
    assert!(snap.is_routable(victim));
    assert!(snap.epoch() > cluster.registry().deregister_epoch(victim).unwrap());
}

/// Concurrent enrolls must leave every routable replica on the ring.
/// Each round deregisters replicas 1–3 and re-enrolls them from three
/// threads at once, then routes one probe key per replica — a key that
/// lands on that replica when the ring holds the whole fleet. A ring
/// that an out-of-order publication left without a verified replica
/// sends that replica's probe elsewhere, and the replica gets no traffic
/// until the next membership change. The race needs the three enrolls
/// to interleave, so the test runs many rounds under a time budget.
#[test]
fn concurrent_enrolls_leave_every_routable_replica_on_the_ring() {
    const ROUNDS: usize = 2000;
    const BUDGET: std::time::Duration = std::time::Duration::from_secs(4);
    let cluster = fleet(4);
    let probes: Vec<[u8; 8]> = (0..4)
        .map(|r| {
            (0u64..)
                .map(u64::to_le_bytes)
                .find(|key| cluster.route(key) == Ok(ReplicaId(r)))
                .expect("every replica owns some key")
        })
        .collect();
    let started = std::time::Instant::now();
    let mut rounds = 0;
    while rounds < ROUNDS && started.elapsed() < BUDGET {
        for r in 1..4 {
            assert!(cluster.registry().deregister(ReplicaId(r)));
        }
        std::thread::scope(|scope| {
            for r in 1..4 {
                let cluster = &cluster;
                scope.spawn(move || cluster.enroll(ReplicaId(r)).expect("replica is up"));
            }
        });
        assert_eq!(cluster.registry().len(), 4);
        for (r, key) in probes.iter().enumerate() {
            assert_eq!(
                cluster.route(key),
                Ok(ReplicaId(r)),
                "round {rounds}: a verified replica is missing from the ring"
            );
        }
        rounds += 1;
    }
}
