//! Cross-crate integration: the baseline systems' full protocol paths
//! against the shared engine, and the knowledge split each one promises.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;
use xsearch::baselines::peas::{
    CooccurrenceMatrix, PeasClient, PeasFakeGenerator, PeasIssuer, PeasReceiver,
};
use xsearch::baselines::system::PrivateSearchSystem;
use xsearch::baselines::tor::network::TorNetwork;
use xsearch::engine::{corpus::CorpusConfig, engine::SearchEngine};
use xsearch::query_log::record::UserId;
use xsearch::query_log::synthetic::{generate, SyntheticConfig};

fn engine() -> Arc<SearchEngine> {
    Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 40,
        ..Default::default()
    }))
}

fn training() -> Vec<String> {
    generate(&SyntheticConfig {
        num_users: 40,
        seed: 8,
        ..Default::default()
    })
    .into_iter()
    .map(|r| r.query)
    .collect()
}

#[test]
fn tor_carries_real_searches_end_to_end() {
    let engine = engine();
    let mut rng = StdRng::seed_from_u64(1);
    let network = TorNetwork::new(6, Duration::ZERO, &mut rng);
    let mut circuit = network.build_circuit(&mut rng);
    let response = network
        .round_trip(&mut circuit, b"flights hotel vacation", |req| {
            let query = String::from_utf8_lossy(req);
            xsearch::core::wire::encode_results(&engine.search(&query, 10))
        })
        .unwrap();
    // The length-framed reply crosses the circuit's cells whole: every
    // field of every result comes back byte for byte.
    let results = xsearch::core::wire::decode_results(&response).unwrap();
    let expected = engine.search("flights hotel vacation", 10);
    assert!(!results.is_empty());
    assert_eq!(response.len(), xsearch::core::wire::encoded_len(&expected));
    assert_eq!(results.len(), expected.len());
    for (got, want) in results.iter().zip(&expected) {
        assert_eq!(
            (&got.url, &got.title, &got.description),
            (&want.url, &want.title, &want.description)
        );
    }
}

#[test]
fn peas_full_crypto_path_returns_filtered_results() {
    let engine = engine();
    let train = training();
    let mut issuer = PeasIssuer::new(
        PeasFakeGenerator::new(CooccurrenceMatrix::build(&train), 2),
        2,
    );
    issuer.set_k(3);
    let receiver = PeasReceiver::new();
    let mut client = PeasClient::new(UserId(1), issuer.public_key(), 3);
    let results = client
        .search(&receiver, &issuer, "flights hotel vacation", |subs, k| {
            assert_eq!(subs.len(), 4, "k=3 fakes plus the original");
            xsearch::core::wire::encode_results(&engine.search_merged(subs, k))
        })
        .unwrap();
    assert!(!results.is_empty());
    assert_eq!(receiver.relayed(), 1);
}

#[test]
fn every_obfuscating_system_contains_the_original_exactly_once() {
    let train = training();
    let user = UserId(3);
    let query = "paris hotel cheap";

    let mut systems: Vec<Box<dyn PrivateSearchSystem>> = vec![
        Box::new(xsearch::baselines::direct::Direct::new()),
        Box::new(xsearch::baselines::tor::TorSystem::new()),
        Box::new(xsearch::baselines::tmn::TrackMeNot::new(4)),
        Box::new(xsearch::baselines::goopir::GooPir::new(3, 4)),
        Box::new(xsearch::baselines::peas::PeasSystem::new(&train, 3, 4)),
        {
            let xs = xsearch::baselines::xsearch_system::XSearchSystem::new(3, 100_000, 4);
            xs.warm(train.iter().map(String::as_str));
            Box::new(xs)
        },
    ];
    for system in &mut systems {
        let exposure = system.protect(user, query);
        let count = exposure.subqueries.iter().filter(|q| *q == query).count();
        assert_eq!(
            count,
            1,
            "{}: original must appear exactly once",
            system.name()
        );
        assert!(!exposure.subqueries.is_empty());
    }
}

#[test]
fn identity_exposure_matches_the_paper_taxonomy() {
    let train = training();
    let user = UserId(9);
    // (system, hides identity?)
    let expectations: Vec<(Box<dyn PrivateSearchSystem>, bool)> = vec![
        (Box::new(xsearch::baselines::direct::Direct::new()), false),
        (Box::new(xsearch::baselines::tor::TorSystem::new()), true),
        (Box::new(xsearch::baselines::tmn::TrackMeNot::new(1)), false),
        (
            Box::new(xsearch::baselines::goopir::GooPir::new(2, 1)),
            false,
        ),
        (
            Box::new(xsearch::baselines::peas::PeasSystem::new(&train, 2, 1)),
            true,
        ),
        (
            Box::new(xsearch::baselines::xsearch_system::XSearchSystem::new(
                2, 1_000, 1,
            )),
            true,
        ),
    ];
    for (mut system, hides) in expectations {
        let exposure = system.protect(user, "a query");
        assert_eq!(
            exposure.identity.is_none(),
            hides,
            "{}: identity exposure mismatch",
            system.name()
        );
    }
}
