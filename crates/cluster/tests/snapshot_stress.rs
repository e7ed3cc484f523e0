//! Adversarial concurrency stress for the published control-plane
//! snapshots: membership writers (enroll / deregister / kill /
//! health-sweep / restart) hammer the registry and ring while reader
//! threads spin on snapshot loads. The invariants under fire:
//!
//! * no torn reads — every loaded [`RegistrySnapshot`] passes its
//!   digest check and its membership list is internally consistent;
//! * epochs are monotone from any single reader's point of view;
//! * once `deregister` has returned, no route computed afterwards ever
//!   lands on the deregistered replica, and no snapshot at or past its
//!   recorded deregistration epoch contains it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use xsearch_cluster::{Cluster, ClusterConfig, ClusterError, ReplicaId};
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

/// 8 threads of mixed churn and reads: three writers flap membership of
/// replicas 1–3, one kills/sweeps/restarts replica 4, four readers spin
/// on snapshots checking digests, epoch monotonicity, and that routing
/// only ever lands on members of a coherent snapshot.
#[test]
fn concurrent_membership_churn_never_tears_snapshots() {
    const WRITER_CYCLES: usize = 150;
    let cluster = Arc::new(fleet(6));
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut writers = Vec::new();
        // Three flapping writers: deregister + immediate re-enroll.
        for r in 1..=3usize {
            let cluster = Arc::clone(&cluster);
            writers.push(scope.spawn(move || {
                let id = ReplicaId(r);
                for _ in 0..WRITER_CYCLES {
                    cluster.registry().deregister(id);
                    cluster.enroll(id).expect("replica is up; re-enroll works");
                }
            }));
        }
        // One failure-path writer: kill → health sweep (deregisters and
        // migrates) → restart (re-enrolls).
        {
            let cluster = Arc::clone(&cluster);
            writers.push(scope.spawn(move || {
                let id = ReplicaId(4);
                for _ in 0..WRITER_CYCLES / 5 {
                    cluster.kill(id).expect("replica was up");
                    cluster.health_sweep();
                    cluster.restart(id).expect("restart re-enrolls");
                }
            }));
        }
        // Four readers spinning on the published snapshots.
        for reader in 0..4u64 {
            let cluster = Arc::clone(&cluster);
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut loads = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let snap = cluster.registry().snapshot();
                    assert!(snap.digest_ok(), "torn registry snapshot");
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epoch went backwards: {} after {}",
                        snap.epoch(),
                        last_epoch
                    );
                    last_epoch = snap.epoch();
                    // Replicas 0 and 5 are never churned: every coherent
                    // snapshot contains them and routing always works.
                    assert!(snap.is_routable(ReplicaId(0)));
                    assert!(snap.is_routable(ReplicaId(5)));
                    let key = (reader ^ loads).to_le_bytes();
                    let routed = cluster.route(&key).expect("fleet is never empty");
                    assert!(routed.0 < 6);
                    loads += 1;
                }
                assert!(loads > 0, "reader never got to run");
            });
        }
        for w in writers {
            w.join().expect("writer panicked");
        }
        stop.store(true, Ordering::SeqCst);
    });

    // Quiesced: every replica churns back in, epochs counted every flap.
    let snap = cluster.registry().snapshot();
    assert!(snap.digest_ok());
    assert_eq!(snap.len(), 6);
    // 6 enrolls at launch + 2 mutations per flap cycle.
    assert!(snap.epoch() >= 6 + 2 * (WRITER_CYCLES as u64) * 3);
}

/// Once `deregister(id)` returns, the publication protocol guarantees
/// every subsequently started route load sees a snapshot at or past the
/// deregistration epoch — so the victim must never be routed to again,
/// even while unrelated writers keep churning other replicas.
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

        // Every snapshot loaded from now on is at or past the epoch and
        // excludes the victim; the forward path refuses it outright.
        for _ in 0..2000 {
            let snap = cluster.registry().snapshot();
            assert!(snap.digest_ok());
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
