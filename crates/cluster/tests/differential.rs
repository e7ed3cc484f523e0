//! Differential harness: the cluster data plane must be **byte-identical**
//! to a direct single-proxy deployment.
//!
//! Replica 0 of a 1-replica fleet runs the proxy with an unperturbed
//! seed, and the fleet's attestation service comes from the same
//! `ClusterConfig::seed` — so launching a second, *direct* `XSearchProxy`
//! from the same `XSearchConfig` and an identically seeded attestation
//! service produces a twin enclave with the same identity key and the
//! same deterministic state. Driving both with the same broker seeds and
//! the same request sequence must then produce identical bytes on the
//! wire at every step: sealed queries, responses, and per-entry errors.
//! Any divergence means the cluster tier (snapshots, admission, the
//! sealing cadence) changed what the enclave sees — exactly the
//! regression this harness exists to catch.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};
use xsearch_cluster::{Cluster, ClusterConfig, ClusterError, ReplicaId};
use xsearch_core::broker::Broker;
use xsearch_core::config::XSearchConfig;
use xsearch_core::persistence::HistoryVault;
use xsearch_core::proxy::XSearchProxy;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;
use xsearch_sgx_sim::attestation::AttestationService;
use xsearch_sgx_sim::sealed::SealingPlatform;

const FLEET_SEED: u64 = 0xD1FF;
const R0: ReplicaId = ReplicaId(0);

fn engine() -> Arc<SearchEngine> {
    static ENGINE: OnceLock<Arc<SearchEngine>> = OnceLock::new();
    ENGINE
        .get_or_init(|| {
            Arc::new(SearchEngine::build(&CorpusConfig {
                docs_per_topic: 5,
                ..Default::default()
            }))
        })
        .clone()
}

/// A 1-replica cluster plus its identically-seeded direct twin.
struct Twins {
    cluster: Cluster,
    direct: XSearchProxy,
    direct_ias: AttestationService,
}

fn twins() -> Twins {
    let proxy = XSearchConfig {
        k: 2,
        history_capacity: 1 << 16,
        ..Default::default()
    };
    let cluster = Cluster::launch(
        engine(),
        ClusterConfig {
            replicas: 1,
            proxy: proxy.clone(),
            seed: FLEET_SEED,
            ..Default::default()
        },
    );
    let direct_ias = AttestationService::from_seed(FLEET_SEED);
    let direct = XSearchProxy::launch(proxy, engine(), &direct_ias);
    Twins {
        cluster,
        direct,
        direct_ias,
    }
}

/// One logical client attached to both sides with the same seed: every
/// operation runs against the cluster and the twin, asserting bytes
/// match at each step.
struct BrokerPair {
    cluster_side: Broker,
    direct_side: Broker,
    seed: u64,
    handshakes: u64,
}

impl BrokerPair {
    fn attach(t: &Twins, seed: u64) -> BrokerPair {
        let cluster_side = t.cluster.attach(R0, seed).unwrap();
        let direct_side = Broker::attach(
            &t.direct,
            &t.direct_ias,
            t.direct.expected_measurement(),
            seed,
        )
        .unwrap();
        assert_eq!(
            cluster_side.client_pub(),
            direct_side.client_pub(),
            "same seed must derive the same channel keypair on both sides"
        );
        BrokerPair {
            cluster_side,
            direct_side,
            seed,
            handshakes: 1,
        }
    }

    /// Re-attests both sides with the same fresh seed (after an injected
    /// failure desynchronized the tunnel on both sides equally).
    fn reattach(&mut self, t: &Twins) {
        let seed = self.seed ^ self.handshakes.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.handshakes += 1;
        let broker = &mut self.cluster_side;
        t.cluster
            .with_replica(R0, |proxy| {
                broker.reattach(
                    proxy,
                    t.cluster.ias(),
                    t.cluster.expected_measurement(),
                    seed,
                )
            })
            .unwrap()
            .unwrap();
        self.direct_side
            .reattach(
                &t.direct,
                &t.direct_ias,
                t.direct.expected_measurement(),
                seed,
            )
            .unwrap();
    }

    /// One healthy request through both sides; asserts byte identity of
    /// the sealed query, the raw response, and the opened results.
    fn roundtrip(&mut self, t: &Twins, query: &str, echo: bool) {
        let ct_cluster = self.cluster_side.seal_query(query);
        let ct_direct = self.direct_side.seal_query(query);
        assert_eq!(ct_cluster, ct_direct, "sealed queries diverged");
        let pk = *self.cluster_side.client_pub().as_bytes();
        let (resp_cluster, _charge) = t
            .cluster
            .forward(R0, echo, move || (pk, ct_cluster))
            .expect("healthy cluster forward");
        let resp_direct = if echo {
            t.direct.request_echo(&pk, &ct_direct)
        } else {
            t.direct.request(&pk, &ct_direct)
        }
        .expect("healthy direct request");
        assert_eq!(resp_cluster, resp_direct, "response bytes diverged");
        let opened_cluster = self.cluster_side.open_results(&resp_cluster).unwrap();
        let opened_direct = self.direct_side.open_results(&resp_direct).unwrap();
        assert_eq!(
            format!("{opened_cluster:?}"),
            format!("{opened_direct:?}"),
            "opened results diverged"
        );
    }

    /// One tampered request through both sides: the per-entry failure
    /// must be identical, and afterwards both tunnels are equally
    /// desynchronized — the caller re-attaches the pair.
    fn tampered_roundtrip(&mut self, t: &Twins, query: &str, echo: bool) {
        let mut ct_cluster = self.cluster_side.seal_query(query);
        let mut ct_direct = self.direct_side.seal_query(query);
        assert_eq!(ct_cluster, ct_direct);
        let flip = ct_cluster.len() / 2;
        ct_cluster[flip] ^= 0x40;
        ct_direct[flip] ^= 0x40;
        let pk = *self.cluster_side.client_pub().as_bytes();
        let err_cluster = t
            .cluster
            .forward(R0, echo, move || (pk, ct_cluster))
            .expect_err("tampered entry must fail");
        let err_direct = if echo {
            t.direct.request_echo(&pk, &ct_direct)
        } else {
            t.direct.request(&pk, &ct_direct)
        }
        .expect_err("tampered entry must fail directly too");
        assert_eq!(
            err_cluster,
            ClusterError::Proxy(err_direct),
            "failure modes diverged"
        );
        self.reattach(t);
    }
}

#[test]
fn unknown_session_fails_identically_on_both_paths() {
    let t = twins();
    let bogus_pk = [0x42u8; 32];
    let junk = vec![1u8, 2, 3, 4];
    let err_cluster = t
        .cluster
        .forward(R0, false, || (bogus_pk, junk.clone()))
        .expect_err("no session for a bogus key");
    let err_direct = t
        .direct
        .request(&bogus_pk, &junk)
        .expect_err("no session directly either");
    assert_eq!(err_cluster, ClusterError::Proxy(err_direct));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Arbitrary sequential interleavings of requests from several
    /// clients — mixed echo/engine modes with tamper injections mixed
    /// in — stay byte-identical between the cluster path and the direct
    /// proxy, per-entry failures included.
    #[test]
    fn arbitrary_interleavings_are_byte_identical(
        ops in proptest::collection::vec(
            (0usize..3, 0u64..50, proptest::any::<bool>(), 0u8..8),
            1..=24,
        ),
    ) {
        let t = twins();
        let mut pairs = [
            BrokerPair::attach(&t, 0xAA01),
            BrokerPair::attach(&t, 0xAA02),
            BrokerPair::attach(&t, 0xAA03),
        ];
        for (client, qidx, echo, kind) in ops {
            let query = format!("differential query {qidx}");
            if kind == 0 {
                // One in eight operations injects a tampered entry.
                pairs[client].tampered_roundtrip(&t, &query, echo);
            } else {
                pairs[client].roundtrip(&t, &query, echo);
            }
        }
        // The enclaves end the run in identical externally visible
        // state: the same history window on both sides.
        let cluster_window = t.cluster.with_replica(R0, sealed_window).unwrap();
        prop_assert_eq!(cluster_window, sealed_window(&t.direct));
    }
}

/// A window as production ecalls show it: `history_len`, and the whole
/// window sealed by `seal_history` as a chain start under a fresh vault
/// (one fixed platform, this enclave code) with a fixed nonce stream. A
/// fresh vault's counter matches no earlier seal of either twin, so the
/// segment carries every entry oldest first: two windows give equal
/// bytes exactly when they hold the same queries in the same order.
fn sealed_window(proxy: &XSearchProxy) -> (usize, Option<Vec<u8>>) {
    let vault = HistoryVault::new(
        SealingPlatform::from_seed(FLEET_SEED),
        proxy.expected_measurement(),
    );
    let segment = proxy.seal_history_snapshot(&vault, &mut StdRng::seed_from_u64(FLEET_SEED));
    (
        proxy.history_len(),
        segment.map(|segment| segment.as_bytes().to_vec()),
    )
}

#[test]
fn concurrent_requests_match_direct_bytes_per_entry() {
    // Echo-mode response bytes depend only on the per-session channel
    // (keys + strict counters), never on what else is inside the enclave
    // at the same time — so even when six threads enter it in
    // nondeterministic order, every single response must equal the twin
    // proxy's. One thread injects tampered entries to prove per-request
    // failure isolation: its neighbours' bytes still match.
    let t = Arc::new(twins());
    std::thread::scope(|scope| {
        for w in 0..6u64 {
            let t = Arc::clone(&t);
            scope.spawn(move || {
                let mut pair = BrokerPair::attach(&t, 0xBB00 + w);
                for i in 0..30 {
                    if w == 0 && i % 5 == 0 {
                        pair.tampered_roundtrip(&t, &format!("w{w} q{i}"), true);
                    } else {
                        pair.roundtrip(&t, &format!("w{w} q{i}"), true);
                    }
                }
            });
        }
    });
    // Every request crossed the data plane, the six tampered ones
    // refused, and both windows hold the 174 served queries.
    let snap = t.cluster.telemetry().snapshot();
    assert_eq!(snap.value("xsearch_fleet_forwards_total", &[]), Some(174.0));
    let cluster_len = t.cluster.with_replica(R0, XSearchProxy::history_len);
    assert_eq!(cluster_len.unwrap(), 174);
    assert_eq!(t.direct.history_len(), 174);
}
