//! Exact pins of the modeled costs: the enclave boundary's transition
//! overhead and byte counters, the EPC's paging charge, the WAN model's
//! seeded delay draws and the fleet's router↔replica hop accounting.
//! These are functions of constants and seeded draws only, so a change
//! to how they are computed must leave every value here bit-identical.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use xsearch::cluster::{Cluster, ClusterClient, ClusterConfig};
use xsearch::core::broker::Broker;
use xsearch::core::config::XSearchConfig;
use xsearch::core::history::QueryHistory;
use xsearch::core::proxy::XSearchProxy;
use xsearch::engine::corpus::CorpusConfig;
use xsearch::engine::engine::SearchEngine;
use xsearch::net_sim::link::WanModel;
use xsearch::sgx::attestation::AttestationService;
use xsearch::sgx::epc::{EpcGauge, PAGE_SIZE};

const SEED: u64 = 2017;

fn engine() -> Arc<SearchEngine> {
    Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 10,
        ..Default::default()
    }))
}

#[test]
fn boundary_overhead_and_bytes_are_pinned() {
    let ias = AttestationService::from_seed(SEED);
    let proxy = XSearchProxy::launch(
        XSearchConfig {
            k: 3,
            history_capacity: 1000,
            seed: SEED,
            ..Default::default()
        },
        engine(),
        &ias,
    );
    proxy.seed_history([
        "cheap flights",
        "flu symptoms",
        "mortgage rates",
        "nfl scores",
    ]);
    let mut broker = Broker::attach(&proxy, &ias, proxy.expected_measurement(), 7).unwrap();
    for query in ["hotel paris", "doctor near me", "weather"] {
        broker.search(&proxy, query).unwrap();
    }
    broker.search_echo(&proxy, "echo only").unwrap();
    let boundary = proxy.boundary();
    assert_eq!(
        (boundary.ecalls(), boundary.ocalls()),
        (6, 16),
        "ecalls and ocalls"
    );
    assert_eq!(
        (boundary.bytes_in(), boundary.bytes_out()),
        (23704, 5822),
        "bytes in and out"
    );
    assert_eq!(boundary.modeled_overhead(), Duration::from_nanos(118_800));
}

#[test]
fn epc_paging_of_a_history_is_pinned() {
    let history = QueryHistory::new(10_000, EpcGauge::with_limit(3 * PAGE_SIZE));
    for i in 0..2_000 {
        history.push(&format!("query number {i} about some topic"));
    }
    assert_eq!(history.epc().paged_pages(), 18);
    assert_eq!(history.epc().paging_cost(), Duration::from_nanos(70_200));
}

#[test]
fn wan_draws_are_pinned() {
    let wan = WanModel::default();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut sums = [0u128; 5];
    for _ in 0..1_000 {
        sums[0] += wan.client_proxy.rtt(&mut rng).as_nanos();
        sums[1] += wan.proxy_engine.rtt(&mut rng).as_nanos();
        sums[2] += wan.client_engine.rtt(&mut rng).as_nanos();
        sums[3] += wan.tor_hop.rtt(&mut rng).as_nanos();
        sums[4] += wan.engine_service.sample(&mut rng).as_nanos();
    }
    assert_eq!(
        sums,
        [
            42_411_573_620,
            31_845_997_464,
            38_144_932_545,
            256_991_765_513,
            392_594_988_215
        ]
    );
}

#[test]
fn fleet_hop_delay_is_pinned() {
    let cluster = Cluster::launch(
        engine(),
        ClusterConfig {
            replicas: 4,
            proxy: XSearchConfig {
                k: 2,
                history_capacity: 1000,
                ..Default::default()
            },
            seed: SEED,
            ..Default::default()
        },
    );
    for client_seed in 0..8 {
        let mut client = ClusterClient::attach(&cluster, client_seed).unwrap();
        for i in 0..5 {
            client
                .search_echo(&cluster, &format!("query {client_seed} {i}"))
                .unwrap();
        }
    }
    let hop_us = cluster
        .telemetry()
        .snapshot()
        .value("xsearch_fleet_hop_delay_us", &[])
        .expect("the fleet-wide hop series");
    assert_eq!(hop_us, 29170.392);
}
