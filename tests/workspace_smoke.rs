//! Workspace smoke test: the facade re-exports resolve and the
//! documented quickstart path runs end to end.
//!
//! This is the test a newcomer's first `cargo test` exercises; it fails
//! loudly if a facade re-export is renamed or the README quickstart
//! drifts from the real API.

use std::sync::Arc;

/// Every facade module documented in `src/lib.rs` resolves to the crate
/// it claims to re-export (checked by *using* one type from each).
#[test]
fn facade_reexports_resolve() {
    // xsearch::core
    let config = xsearch::core::config::XSearchConfig::default();
    assert!(config.k >= 1, "default obfuscation degree must be usable");
    // xsearch::baselines
    let _: &dyn Fn(u64) -> xsearch::baselines::tmn::TrackMeNot =
        &xsearch::baselines::tmn::TrackMeNot::new;
    // xsearch::attack
    let _ = xsearch::attack::simattack::SimAttack::new(0.5);
    // xsearch::sgx
    let ias = xsearch::sgx::attestation::AttestationService::from_seed(1);
    let _ = &ias;
    // xsearch::engine
    let corpus = xsearch::engine::corpus::CorpusConfig::default();
    assert!(corpus.docs_per_topic > 0);
    // xsearch::query_log
    let log =
        xsearch::query_log::synthetic::generate(&xsearch::query_log::synthetic::SyntheticConfig {
            num_users: 4,
            ..Default::default()
        });
    assert!(!log.is_empty());
    // xsearch::crypto
    let digest = xsearch::crypto::sha256::Sha256::digest(b"smoke");
    assert_eq!(digest.len(), 32);
    // xsearch::text
    assert_eq!(xsearch::text::nb_common_words("a b c", "b c d"), 2);
    // xsearch::telemetry
    let mut hist = xsearch::telemetry::LatencyHistogram::new();
    hist.record(250);
    assert_eq!(hist.count(), 1);
    // xsearch::net_sim
    let delay = xsearch::net_sim::DelayModel::constant_ms(1);
    let _ = &delay;
}

/// The quickstart from the README / `src/lib.rs` rustdoc, as a plain
/// integration test: launch proxy, attest, search, get results.
#[test]
fn quickstart_path_runs_end_to_end() {
    use xsearch::core::{broker::Broker, config::XSearchConfig, proxy::XSearchProxy};
    use xsearch::engine::{corpus::CorpusConfig, engine::SearchEngine};
    use xsearch::sgx::attestation::AttestationService;

    let engine = Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 25,
        ..Default::default()
    }));
    let ias = AttestationService::from_seed(1);
    let proxy = XSearchProxy::launch(
        XSearchConfig {
            k: 2,
            ..Default::default()
        },
        engine,
        &ias,
    );
    proxy.seed_history(["warm query one", "warm query two"]);

    let mut broker = Broker::attach(&proxy, &ias, proxy.expected_measurement(), 42)
        .expect("attestation against the proxy's own measurement must succeed");
    let results = broker
        .search(&proxy, "cheap flights")
        .expect("attested search");
    assert!(!results.is_empty(), "quickstart search returned no results");
}
