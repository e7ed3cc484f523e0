//! Cross-crate integration: the sealed history log across proxy
//! restarts (docs/ARCHITECTURE.md, "The sealed log"). A window leaves an
//! enclave only as segments of the `seal_history` ecall and gets into the
//! next one only through `adopt_migrated_history` (the `migrate_in`
//! ecall).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use xsearch::core::broker::Broker;
use xsearch::core::config::XSearchConfig;
use xsearch::core::error::XSearchError;
use xsearch::core::persistence::{HistoryVault, SealedLog};
use xsearch::core::proxy::XSearchProxy;
use xsearch::engine::{corpus::CorpusConfig, engine::SearchEngine};
use xsearch::sgx::attestation::AttestationService;
use xsearch::sgx::error::SgxError;
use xsearch::sgx::measurement::MeasurementBuilder;
use xsearch::sgx::sealed::SealingPlatform;

const K: usize = 3;

fn ias() -> AttestationService {
    AttestationService::from_seed(1)
}

/// One proxy lifetime: the same enclave code every time.
fn launch(history_capacity: usize) -> XSearchProxy {
    let engine = Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 5,
        ..Default::default()
    }));
    XSearchProxy::launch(
        XSearchConfig {
            k: K,
            history_capacity,
            ..Default::default()
        },
        engine,
        &ias(),
    )
}

/// A first lifetime seeds `queries` and seals its window under a vault
/// on `platform`; the host keeps the vault and the log, then the enclave
/// dies.
fn first_lifetime(platform: u64, queries: &[String]) -> (HistoryVault, SealedLog) {
    let first = launch(10_000);
    first.seed_history(queries.iter().map(String::as_str));
    let vault = HistoryVault::new(
        SealingPlatform::from_seed(platform),
        first.expected_measurement(),
    );
    let mut log = SealedLog::default();
    let mut rng = StdRng::seed_from_u64(platform);
    log.append(
        first
            .seal_history_snapshot(&vault, &mut rng)
            .expect("a window"),
    );
    (vault, log)
}

fn queries(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("user query number {i}")).collect()
}

#[test]
fn restart_preserves_decoy_pool() {
    let window = queries(500);
    let (vault, log) = first_lifetime(2017, &window);

    let second = launch(10_000);
    assert_eq!(second.adopt_migrated_history(&vault, &log), Ok(500));
    assert_eq!(second.history_snapshot(), window);

    // The next request hides behind k fakes from the adopted window.
    let mut broker = Broker::attach(&second, &ias(), second.expected_measurement(), 9).unwrap();
    let ciphertext = broker.seal_query("fresh query");
    let mut sent = Vec::new();
    second
        .request_with(
            broker.client_pub().as_bytes(),
            &ciphertext,
            |subqueries, _| {
                sent = subqueries.iter().map(|q| q.to_string()).collect();
                Vec::new()
            },
        )
        .unwrap();
    assert_eq!(sent.len(), K + 1, "{sent:?}");
    let adopted: HashSet<&String> = window.iter().collect();
    let fakes: Vec<&String> = sent.iter().filter(|q| *q != "fresh query").collect();
    assert_eq!(fakes.len(), K);
    assert!(fakes.iter().all(|q| adopted.contains(q)), "{fakes:?}");
}

#[test]
fn modified_proxy_code_cannot_read_the_pool() {
    let (_, log) = first_lifetime(2017, &["identifying medical query".to_owned()]);
    let other_code = HistoryVault::new(
        SealingPlatform::from_seed(2017),
        MeasurementBuilder::new().finalize(),
    );
    let second = launch(100);
    assert!(matches!(
        second.adopt_migrated_history(&other_code, &log),
        Err(XSearchError::Protocol(_))
    ));
    assert_eq!(second.history_len(), 0);
}

#[test]
fn another_platform_cannot_read_the_pool() {
    let (vault, log) = first_lifetime(1, &queries(3));
    let second = launch(100);
    let other_platform = HistoryVault::new(SealingPlatform::from_seed(2), vault.measurement());
    assert_eq!(
        second.adopt_migrated_history(&other_platform, &log),
        Err(XSearchError::Sgx(SgxError::UnsealFailed))
    );
    assert_eq!(second.history_len(), 0);
    // The refusal claimed nothing: the sealing platform still restores.
    assert_eq!(second.adopt_migrated_history(&vault, &log), Ok(3));
}

#[test]
fn restored_window_respects_capacity_accounting() {
    let window: Vec<String> = (0..1_000).map(|i| format!("q{i}")).collect();
    let (vault, log) = first_lifetime(5, &window);

    let small = launch(100);
    assert_eq!(small.adopt_migrated_history(&vault, &log), Ok(100));
    assert_eq!(small.history_len(), 100);
    assert_eq!(
        small.history_memory_bytes(),
        small.epc().used(),
        "accounting survives restore"
    );
    // The newest entries won.
    assert_eq!(small.history_snapshot(), window[900..]);
}
