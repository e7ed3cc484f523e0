//! **The cluster tier**: a fleet of attested X-Search enclave replicas
//! behind an untrusted routing front tier.
//!
//! The paper evaluates one SGX proxy; serving heavy traffic needs many.
//! This crate scales the system *across enclaves* the way `xsearch-core`
//! scales it across threads, without changing the adversary model:
//!
//! * **membership is attested** — a replica joins only after the
//!   [`registry::ReplicaRegistry`] verifies its enrollment quote
//!   (authentic, pinned measurement, bound to a fresh challenge nonce),
//!   and the router refuses traffic to anything unverified;
//! * **the router is untrusted** — it forwards already-encrypted tunnel
//!   frames keyed by an opaque affinity string; placement is
//!   consistent-hash session affinity ([`placement::HashRing`]), so a
//!   client's session and last-x history stay coherent on one replica;
//! * **failure is survivable** — a replica that stops answering is
//!   drained by [`fleet::Cluster::health_sweep`], its sealed history
//!   log (chained, monotonic-versioned, rollback-protected) migrates to
//!   its ring successor, and clients re-attest the successor and retry
//!   in-flight requests ([`client::ClusterClient`]);
//! * **the data plane locks per replica** — routing clones the current
//!   membership snapshot, which carries its ring, out of one
//!   `RwLock<Arc<_>>` (a read guard held for one `Arc` clone) and walks
//!   that ring; admission is one atomic on
//!   the target replica, and each request then enters that replica's
//!   enclave on its caller's thread in one `request` ecall
//!   ([`fleet::Cluster::forward`]) — the paper's shape, several threads
//!   inside one enclave.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use xsearch_cluster::{Cluster, ClusterClient, ClusterConfig};
//! use xsearch_core::config::XSearchConfig;
//! use xsearch_engine::{corpus::CorpusConfig, engine::SearchEngine};
//!
//! let engine = Arc::new(SearchEngine::build(&CorpusConfig {
//!     docs_per_topic: 5,
//!     ..Default::default()
//! }));
//! let cluster = Cluster::launch(
//!     engine,
//!     ClusterConfig {
//!         replicas: 4,
//!         proxy: XSearchConfig { k: 2, history_capacity: 1000, ..Default::default() },
//!         ..Default::default()
//!     },
//! );
//!
//! let mut client = ClusterClient::attach(&cluster, 7).unwrap();
//! let first = client.replica();
//! client.search_echo(&cluster, "cheap flights").unwrap();
//!
//! // Kill the client's replica mid-session: the next request drains it,
//! // migrates its sealed window to the ring successor, re-attests, and
//! // succeeds anyway.
//! cluster.kill(first).unwrap();
//! client.search_echo(&cluster, "hotel rome").unwrap();
//! assert_ne!(client.replica(), first);
//! ```

#![deny(missing_docs)]

pub mod client;
pub mod error;
pub mod fleet;
pub mod front;
pub mod node;
mod obs;
pub mod placement;
pub mod registry;
pub mod resilience;

pub use client::{ClusterClient, SearchOutcome};
pub use error::ClusterError;
pub use fleet::{Cluster, ClusterConfig, FailoverReport};
pub use front::{
    ConnClass, ConnState, FramedClient, FrontConfig, FrontTier, SurvivalConfig,
    IDLE_SESSION_BYTE_BUDGET,
};
pub use registry::{RegistrySnapshot, ReplicaId, ReplicaRegistry};
pub use resilience::{BreakerState, CircuitBreaker, ResilienceConfig};
// Re-exported so chaos harnesses can build fault plans without a direct
// net-sim dependency.
pub use xsearch_net_sim::fault::{CrashEvent, FaultPlan, FaultSpec, SocketFault, SocketSpec};
pub use xsearch_telemetry::{FlightEvent, FlightRecorder, Registry as MetricsRegistry};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xsearch_core::config::XSearchConfig;
    use xsearch_core::error::XSearchError;
    use xsearch_engine::corpus::CorpusConfig;
    use xsearch_engine::engine::SearchEngine;
    use xsearch_telemetry::LabelValue;

    fn engine() -> Arc<SearchEngine> {
        Arc::new(SearchEngine::build(&CorpusConfig {
            docs_per_topic: 5,
            ..Default::default()
        }))
    }

    fn small_cluster(replicas: usize) -> Cluster {
        Cluster::launch(
            engine(),
            ClusterConfig {
                replicas,
                proxy: XSearchConfig {
                    k: 2,
                    history_capacity: 10_000,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn launch_enrolls_every_replica() {
        let cluster = small_cluster(4);
        assert_eq!(cluster.registry().len(), 4);
        for id in cluster.replica_ids() {
            assert!(cluster.registry().is_routable(id));
            assert!(cluster.node(id).unwrap().is_up());
        }
    }

    #[test]
    fn replicas_share_one_measurement_but_not_identity_keys() {
        let cluster = small_cluster(3);
        let keys: Vec<_> = cluster
            .replica_ids()
            .into_iter()
            .map(|id| cluster.registry().verified_key(id).unwrap())
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn consistent_hash_affinity_is_sticky() {
        let cluster = small_cluster(4);
        let mut client = ClusterClient::attach(&cluster, 42).unwrap();
        let home = client.replica();
        for i in 0..10 {
            client.search_echo(&cluster, &format!("query {i}")).unwrap();
            assert_eq!(client.replica(), home, "affinity must be sticky");
        }
        // All ten queries (plus their fakes' pushes) landed on one
        // replica's window.
        let len = cluster
            .with_replica(home, xsearch_core::proxy::XSearchProxy::history_len)
            .unwrap();
        assert_eq!(len, 10);
    }

    #[test]
    fn attach_routed_attests_the_replica_its_own_key_routes_to() {
        let cluster = small_cluster(4);
        let sessions = |id| {
            let node = cluster.node(id).unwrap();
            let proxy = node.proxy();
            proxy.as_ref().unwrap().session_count()
        };
        for seed in 0..16u64 {
            let key = xsearch_core::Broker::client_pub_for_seed(seed);
            let home = cluster.route(key.as_bytes()).unwrap();
            let before: Vec<usize> = cluster.replica_ids().into_iter().map(sessions).collect();
            let (broker, id) = cluster.attach_routed(seed).unwrap();
            assert_eq!((broker.client_pub(), id), (key, home));
            // One session, on that replica and no other.
            for (other, before) in cluster.replica_ids().into_iter().zip(before) {
                assert_eq!(sessions(other) - before, usize::from(other == home));
            }
        }
        assert_eq!(cluster.session_count(), 16);
    }

    #[test]
    fn router_refuses_unverified_and_deregistered_replicas() {
        let cluster = small_cluster(3);
        let id = ReplicaId(1);
        assert!(cluster.registry().deregister(id));
        // Direct forwarding is refused...
        assert_eq!(
            cluster.with_replica(id, |_| ()).unwrap_err(),
            ClusterError::NotRoutable(id)
        );
        // ...and no route resolves to it: the snapshot that dropped it
        // carries a ring without it.
        for i in 0..200u64 {
            assert_ne!(cluster.route(&i.to_le_bytes()).unwrap(), id);
        }
    }

    #[test]
    fn health_sweep_drains_and_migrates_to_successor() {
        let cluster = small_cluster(4);
        let mut client = ClusterClient::attach(&cluster, 9).unwrap();
        let victim = client.replica();
        for q in ["alpha one", "beta two", "gamma three"] {
            client.search_echo(&cluster, q).unwrap();
        }
        let window = cluster
            .with_replica(victim, xsearch_core::proxy::XSearchProxy::history_snapshot)
            .unwrap();
        assert_eq!(window.len(), 3);

        cluster.kill(victim).unwrap();
        let reports = cluster.health_sweep();
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.failed, victim);
        let successor = report.successor.expect("three live replicas remain");
        assert_eq!(report.migrated_queries, 3);
        assert!(!cluster.registry().is_routable(victim));

        // The successor's window now contains the victim's.
        let merged = cluster
            .with_replica(
                successor,
                xsearch_core::proxy::XSearchProxy::history_snapshot,
            )
            .unwrap();
        for q in &window {
            assert!(merged.contains(q), "migrated window must contain {q:?}");
        }

        // A second sweep is a no-op (idempotent drain).
        assert!(cluster.health_sweep().is_empty());
    }

    #[test]
    fn client_rides_out_kill_and_restart() {
        let cluster = small_cluster(4);
        let mut client = ClusterClient::attach(&cluster, 5).unwrap();
        let home = client.replica();
        client.search_echo(&cluster, "before the crash").unwrap();

        cluster.kill(home).unwrap();
        // The very next request drains the dead replica, re-routes,
        // re-attests, and succeeds.
        client.search_echo(&cluster, "during failover").unwrap();
        assert_ne!(client.replica(), home);

        // Restart: the replica re-enrolls (fresh challenge quote) and
        // serves again. The existing client's session stays sticky on
        // the successor (sessions only move on failure), but a freshly
        // attached client with the same affinity routes home again.
        cluster.restart(home).unwrap();
        assert!(cluster.registry().is_routable(home));
        let on_successor = client.replica();
        client.search_echo(&cluster, "after restart").unwrap();
        assert_eq!(client.replica(), on_successor);
        assert_eq!(cluster.route(client.affinity()).unwrap(), home);
    }

    #[test]
    fn reattaching_clients_do_not_accumulate_sessions() {
        // Every replica gray-fails half its answers, so healthy clients
        // re-attach all day. Each must close what it replaces: one
        // session per client, not one per handshake.
        let spec = FaultSpec {
            gray: (0..4).map(|replica| (replica, 0.5)).collect(),
            ..Default::default()
        };
        let config = ClusterConfig {
            faults: Some(Arc::new(FaultPlan::new(spec, 23, 4))),
            ..Default::default()
        };
        let cluster = Cluster::launch(engine(), config);
        let mut clients: Vec<ClusterClient> = (0..8)
            .map(|seed| ClusterClient::attach(&cluster, seed).unwrap())
            .collect();
        for i in 0..400 {
            let _ = clients[i % 8].search_echo(&cluster, &format!("q{i}"));
        }
        let snap = cluster.telemetry().snapshot();
        assert!(snap.value("xsearch_client_reattaches_total", &[]) > Some(100.0));
        assert!(cluster.session_count() <= 8, "{}", cluster.session_count());
    }

    #[test]
    fn ecall_faults_are_drawn_by_forward_after_the_enclave_served() {
        // Replica 0 gray-fails every reply. The fault door is the data
        // plane's forward: the control plane's `with_replica` draws
        // nothing, so attach and re-attach go through; a forward to
        // replica 0 runs the request (its window grows) and then fails
        // typed; replica 1 serves normally.
        let spec = FaultSpec {
            gray: vec![(0, 1.0)],
            ..Default::default()
        };
        let cluster = Cluster::launch(
            engine(),
            ClusterConfig {
                replicas: 2,
                proxy: XSearchConfig {
                    k: 2,
                    history_capacity: 10_000,
                    ..Default::default()
                },
                faults: Some(Arc::new(FaultPlan::new(spec, 31, 2))),
                ..Default::default()
            },
        );
        let gray = ReplicaId(0);
        let mut broker = cluster.attach(gray, 1).unwrap();
        cluster
            .with_replica(gray, |proxy| {
                broker.reattach(proxy, cluster.ias(), cluster.expected_measurement(), 2)
            })
            .unwrap()
            .unwrap();
        let history_len = |id| {
            cluster
                .with_replica(id, xsearch_core::proxy::XSearchProxy::history_len)
                .unwrap()
        };
        let served_before = history_len(gray);
        let lost = cluster.forward(gray, true, || {
            (*broker.client_pub().as_bytes(), broker.seal_query("lost"))
        });
        assert!(
            matches!(lost, Err(ClusterError::Proxy(XSearchError::Protocol(_)))),
            "{lost:?}"
        );
        assert_eq!(
            history_len(gray),
            served_before + 1,
            "the enclave served it"
        );

        let mut healthy = cluster.attach(ReplicaId(1), 3).unwrap();
        let (reply, _) = cluster
            .forward(ReplicaId(1), true, || {
                (*healthy.client_pub().as_bytes(), healthy.seal_query("kept"))
            })
            .unwrap();
        assert!(healthy.open_results(&reply).unwrap().is_empty());
    }

    #[test]
    fn restart_without_migration_recovers_own_window() {
        // Killed and restarted before any sweep ran: the replica's own
        // sealed snapshot is still current, so the window survives
        // locally.
        let cluster = small_cluster(4);
        let mut client = ClusterClient::attach(&cluster, 5).unwrap();
        let home = client.replica();
        for q in ["w1", "w2", "w3", "w4"] {
            client.search_echo(&cluster, q).unwrap();
        }
        cluster.kill(home).unwrap();
        let restored = cluster.restart(home).unwrap();
        assert_eq!(restored, 4, "own sealed snapshot restores on restart");
        let window = cluster
            .with_replica(home, xsearch_core::proxy::XSearchProxy::history_snapshot)
            .unwrap();
        assert_eq!(window, vec!["w1", "w2", "w3", "w4"]);
    }

    #[test]
    fn migrated_window_cannot_be_restored_at_the_source() {
        // Kill → sweep (migrates) → restart: the source's stale snapshot
        // must NOT resurrect — the window lives at the successor now.
        let cluster = small_cluster(4);
        let mut client = ClusterClient::attach(&cluster, 9).unwrap();
        let victim = client.replica();
        client.search_echo(&cluster, "the one window").unwrap();

        cluster.kill(victim).unwrap();
        let reports = cluster.health_sweep();
        assert_eq!(reports[0].migrated_queries, 1);

        let restored = cluster.restart(victim).unwrap();
        assert_eq!(
            restored, 0,
            "the migrated-away window must not come back (rollback protection)"
        );
        let window = cluster
            .with_replica(victim, xsearch_core::proxy::XSearchProxy::history_snapshot)
            .unwrap();
        assert!(window.is_empty());
    }

    #[test]
    fn single_replica_failure_leaves_no_successor() {
        let cluster = small_cluster(1);
        let mut client = ClusterClient::attach(&cluster, 1).unwrap();
        client.search_echo(&cluster, "the only window").unwrap();

        cluster.kill(ReplicaId(0)).unwrap();
        let reports = cluster.health_sweep();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].successor, None);
        assert_eq!(
            cluster.route(b"anyone").unwrap_err(),
            ClusterError::NoReplicasAvailable
        );
        // Restart brings the fleet back — and because no successor ever
        // adopted the window, the sealed snapshot must still be there to
        // restore (a successor-less sweep must not consume it).
        assert_eq!(cluster.restart(ReplicaId(0)).unwrap(), 1);
        assert!(cluster.route(b"anyone").is_ok());
        let window = cluster
            .with_replica(
                ReplicaId(0),
                xsearch_core::proxy::XSearchProxy::history_snapshot,
            )
            .unwrap();
        assert_eq!(window, vec!["the only window"]);
    }

    /// `xsearch_replica_<what>` for `id`, read back out of the registry.
    fn queue(cluster: &Cluster, id: ReplicaId, what: &str) -> f64 {
        let labels = [("replica", LabelValue::Int(id.0 as u64))];
        let snap = cluster.telemetry().snapshot();
        snap.value(&format!("xsearch_replica_{what}"), &labels)
            .expect("a registered per-replica series")
    }

    fn bounded_cluster(replicas: usize, queue_limit: usize) -> Cluster {
        Cluster::launch(
            engine(),
            ClusterConfig {
                replicas,
                queue_limit,
                proxy: XSearchConfig {
                    k: 2,
                    history_capacity: 10_000,
                    ..Default::default()
                },
                ..Default::default()
            },
        )
    }

    #[test]
    fn full_admission_queue_sheds_with_backpressure() {
        let cluster = bounded_cluster(1, 1);
        let id = ReplicaId(0);
        // One request in flight fills the queue: a concurrent arrival is
        // shed, and the queue-depth metrics record both facts.
        let inner = cluster
            .with_replica(id, |_| cluster.with_replica(id, |_| ()))
            .unwrap();
        assert_eq!(inner.unwrap_err(), ClusterError::Overloaded(id));
        let drained = queue(&cluster, id, "inflight");
        assert_eq!(drained, 0.0, "both requests have drained");
        assert_eq!(queue(&cluster, id, "queue_high_water"), 1.0);
        assert_eq!(queue(&cluster, id, "shed"), 1.0);
    }

    #[test]
    fn shedding_recovers_once_load_drains() {
        let cluster = bounded_cluster(1, 1);
        let id = ReplicaId(0);
        let _ = cluster
            .with_replica(id, |_| cluster.with_replica(id, |_| ()))
            .unwrap();
        // The queue drained with the outer request: the next one is
        // admitted normally — shedding is backpressure, not a trip wire.
        assert!(cluster.with_replica(id, |_| ()).is_ok());
        assert_eq!(queue(&cluster, id, "shed"), 1.0);
    }

    #[test]
    fn overload_propagates_to_the_client_without_a_sweep() {
        let cluster = bounded_cluster(1, 1);
        let mut client = ClusterClient::attach(&cluster, 3).unwrap();
        let id = client.replica();
        let err = cluster
            .with_replica(id, |_| client.search_echo(&cluster, "busy"))
            .unwrap();
        assert_eq!(err.unwrap_err(), ClusterError::Overloaded(id));
        // The replica is healthy: it must still be enrolled and serving.
        assert!(cluster.registry().is_routable(id));
        assert!(client.search_echo(&cluster, "after the burst").is_ok());
    }

    #[test]
    fn panicking_forward_does_not_leak_admission_capacity() {
        let cluster = bounded_cluster(1, 1);
        let id = ReplicaId(0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cluster.with_replica(id, |_| panic!("caller bug"));
        }));
        assert!(unwound.is_err());
        // The admitted slot drained during the unwind: the replica still
        // has its full bounded capacity.
        assert_eq!(queue(&cluster, id, "inflight"), 0.0);
        assert!(cluster.with_replica(id, |_| ()).is_ok());
    }

    #[test]
    fn queue_at_its_limit_admits_without_shedding() {
        let cluster = bounded_cluster(1, 3);
        let id = ReplicaId(0);
        let inner = cluster
            .with_replica(id, |_| {
                cluster.with_replica(id, |_| cluster.with_replica(id, |_| ()))
            })
            .unwrap();
        assert!(inner.unwrap().is_ok());
        assert_eq!(queue(&cluster, id, "shed"), 0.0);
        assert_eq!(queue(&cluster, id, "queue_high_water"), 3.0);
    }

    #[test]
    fn concurrent_burst_sheds_excess_but_serves_admitted() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cluster = std::sync::Arc::new(bounded_cluster(1, 2));
        let served = AtomicU64::new(0);
        let shed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cluster = &cluster;
                let served = &served;
                let shed = &shed;
                scope.spawn(move || {
                    let mut client = match ClusterClient::attach(cluster, 100 + t) {
                        Ok(c) => c,
                        // Even the attach handshake can be shed under
                        // the burst — that is the point.
                        Err(ClusterError::Overloaded(_)) => {
                            shed.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        Err(e) => panic!("unexpected attach failure: {e}"),
                    };
                    for i in 0..20 {
                        match client.search_echo(cluster, &format!("q{i}")) {
                            Ok(_) => {
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(ClusterError::Overloaded(_)) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => panic!("overload must shed, not fail: {e}"),
                        }
                    }
                });
            }
        });
        assert!(
            served.load(Ordering::Relaxed) > 0,
            "admitted work completes"
        );
        let high_water = queue(&cluster, ReplicaId(0), "queue_high_water");
        assert!(high_water <= 2.0, "the bound held: {high_water}");
        assert_eq!(
            queue(&cluster, ReplicaId(0), "shed"),
            shed.load(Ordering::Relaxed) as f64,
            "every refusal was reported as backpressure"
        );
    }

    #[test]
    fn panicking_seal_closure_drains_admission() {
        // The seal closure runs between admission and the ecall; if it
        // unwinds, the admitted slot must drain (AdmitGuard) or the
        // bounded queue would shrink forever.
        let cluster = bounded_cluster(1, 1);
        let id = ReplicaId(0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cluster.forward(id, true, || panic!("seal bug"));
        }));
        assert!(unwound.is_err());
        assert_eq!(queue(&cluster, id, "inflight"), 0.0);
        assert!(cluster.with_replica(id, |_| ()).is_ok());
    }

    /// The refusal order of [`Cluster::forward`]: not routable, enclave
    /// down, the fault timeline and the link, then admission — each
    /// refusal comes back typed, with `seal` never invoked, no admission
    /// left claimed and only the expected flight events.
    #[test]
    fn every_refusal_comes_before_the_seal() {
        use ClusterError::{LinkLoss, NotRoutable, Overloaded, ReplicaDown};
        const ID: ReplicaId = ReplicaId(0);
        let faulted = |spec: FaultSpec| {
            let faults = Some(Arc::new(FaultPlan::new(spec, 7, 1)));
            let config = ClusterConfig {
                replicas: 1,
                faults,
                ..Default::default()
            };
            Cluster::launch(engine(), config)
        };
        let deregistered = bounded_cluster(1, 1);
        assert!(deregistered.registry().deregister(ID));
        let killed = bounded_cluster(1, 1);
        killed.kill(ID).unwrap();
        let lossy = faulted(FaultSpec {
            loss: 1.0,
            ..Default::default()
        });
        let partitioned = faulted(FaultSpec {
            partitions: vec![(0, 1_000)],
            ..Default::default()
        });
        // The full fleet's one queue slot is held while forward runs.
        let full = bounded_cluster(1, 1);
        let shed = [FlightEvent::Shed { replica: 0 }];
        let cases: [(&str, Cluster, ClusterError, &[FlightEvent]); 5] = [
            ("deregistered", deregistered, NotRoutable(ID), &[]),
            ("killed", killed, ReplicaDown(ID), &[]),
            ("total loss", lossy, LinkLoss(ID), &[]),
            ("partition window", partitioned, LinkLoss(ID), &[]),
            ("queue full", full, Overloaded(ID), &shed),
        ];
        for (case, cluster, refusal, events) in cases {
            let node = Arc::clone(cluster.node(ID).unwrap());
            let occupy = refusal == Overloaded(ID);
            if occupy {
                assert!(node.try_enter(1));
            }
            let recorded = cluster.flight().total();
            let mut sealed = false;
            let result = cluster.forward(ID, true, || {
                sealed = true;
                ([0x42; 32], vec![1, 2, 3])
            });
            assert_eq!(result.map(|_| ()), Err(refusal.clone()), "{case}");
            assert!(!sealed, "{case}: a refusal must never seal");
            let new_events: Vec<FlightEvent> = cluster
                .flight()
                .events()
                .into_iter()
                .filter(|&(seq, _)| seq >= recorded)
                .map(|(_, event)| event)
                .collect();
            assert_eq!(new_events, events, "{case}");
            if occupy {
                node.exit();
            }
            assert_eq!(queue(&cluster, ID, "inflight"), 0.0, "{case} leaked");
        }
    }

    #[test]
    fn a_failed_delivery_releases_admission_without_counting_a_forward() {
        // A request the enclave rejects (no session behind the key)
        // comes back as its error. The admission it held is released,
        // and neither the forwards counter nor the forward span moves.
        let cluster = bounded_cluster(1, 1);
        let id = ReplicaId(0);
        let refused = cluster.forward(id, false, || ([0x42u8; 32], vec![1, 2, 3]));
        assert!(matches!(refused, Err(ClusterError::Proxy(_))));
        assert_eq!(queue(&cluster, id, "inflight"), 0.0);
        assert_eq!(cluster.metrics.forwards.value(), 0);
        assert_eq!(cluster.metrics.span_forward.count(), 0);
    }

    #[test]
    fn concurrent_requests_enter_one_enclave_and_none_are_lost() {
        let cluster = Arc::new(small_cluster(1));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cluster = Arc::clone(&cluster);
                scope.spawn(move || {
                    let mut client = ClusterClient::attach(&cluster, 500 + t).unwrap();
                    for i in 0..25 {
                        client.search_echo(&cluster, &format!("q{i}")).unwrap();
                    }
                });
            }
        });
        // Conservation: every request was served exactly once, and each
        // one landed in the replica's window.
        assert_eq!(cluster.metrics.forwards.value(), 100);
        let len =
            cluster.with_replica(ReplicaId(0), xsearch_core::proxy::XSearchProxy::history_len);
        assert_eq!(len.unwrap(), 100);
    }

    #[test]
    fn accounted_network_delay_grows_with_traffic() {
        let cluster = small_cluster(2);
        let mut client = ClusterClient::attach(&cluster, 3).unwrap();
        let hop_us = || {
            let snap = cluster.telemetry().snapshot();
            snap.value("xsearch_fleet_hop_delay_us", &[]).unwrap()
        };
        let before = hop_us();
        for i in 0..5 {
            client.search_echo(&cluster, &format!("q{i}")).unwrap();
        }
        assert!(hop_us() > before);
    }
}
