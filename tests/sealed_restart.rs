//! Cross-crate integration: sealed history persistence across proxy
//! restarts (the extension documented in DESIGN.md §8).

use rand::rngs::StdRng;
use rand::SeedableRng;
use xsearch::core::history::QueryHistory;
use xsearch::core::persistence::{restore_history, seal_history};
use xsearch::sgx::epc::EpcGauge;
use xsearch::sgx::error::SgxError;
use xsearch::sgx::measurement::MeasurementBuilder;
use xsearch::sgx::sealed::SealingPlatform;

fn proxy_measurement(code: &[u8]) -> xsearch::sgx::measurement::Measurement {
    let mut b = MeasurementBuilder::new();
    b.add_region(code);
    b.finalize()
}

#[test]
fn restart_preserves_decoy_pool() {
    let platform = SealingPlatform::from_seed(2017);
    let m = proxy_measurement(b"xsearch-proxy-v1");
    let mut rng = StdRng::seed_from_u64(1);

    // First proxy lifetime: traffic accumulates.
    let first = QueryHistory::new(10_000, EpcGauge::new());
    for i in 0..500 {
        first.push(&format!("user query number {i}"));
    }
    let blob = seal_history(&first, &platform, &m, &mut rng);
    drop(first); // "crash"

    // Second lifetime, same code + platform: the pool survives.
    let second = QueryHistory::new(10_000, EpcGauge::new());
    let restored = restore_history(&second, &platform, &m, &blob).unwrap();
    assert_eq!(restored, 500);
    assert_eq!(second.len(), 500);

    // And it is immediately usable for obfuscation.
    let mut rng = StdRng::seed_from_u64(2);
    let obfuscated = xsearch::core::obfuscate::obfuscate("fresh query", &second, 3, &mut rng);
    assert_eq!(obfuscated.subqueries().len(), 4);
}

#[test]
fn modified_proxy_code_cannot_read_the_pool() {
    let platform = SealingPlatform::from_seed(2017);
    let mut rng = StdRng::seed_from_u64(3);
    let honest = proxy_measurement(b"xsearch-proxy-v1");
    let evil = proxy_measurement(b"xsearch-proxy-evil");

    let history = QueryHistory::new(100, EpcGauge::new());
    history.push("identifying medical query");
    let blob = seal_history(&history, &platform, &honest, &mut rng);

    let stolen = QueryHistory::new(100, EpcGauge::new());
    assert_eq!(
        restore_history(&stolen, &platform, &evil, &blob),
        Err(SgxError::UnsealFailed),
        "a different enclave must not decrypt the query pool"
    );
}

#[test]
fn another_platform_cannot_read_the_pool() {
    let mut rng = StdRng::seed_from_u64(4);
    let m = proxy_measurement(b"xsearch-proxy-v1");
    let history = QueryHistory::new(100, EpcGauge::new());
    history.push("query");
    let blob = seal_history(&history, &SealingPlatform::from_seed(1), &m, &mut rng);
    let other = SealingPlatform::from_seed(2);
    let target = QueryHistory::new(100, EpcGauge::new());
    assert_eq!(
        restore_history(&target, &other, &m, &blob),
        Err(SgxError::UnsealFailed)
    );
}

#[test]
fn restored_window_respects_capacity_accounting() {
    let platform = SealingPlatform::from_seed(5);
    let m = proxy_measurement(b"proxy");
    let mut rng = StdRng::seed_from_u64(6);

    let big = QueryHistory::new(1_000, EpcGauge::new());
    for i in 0..1_000 {
        big.push(&format!("q{i}"));
    }
    let blob = seal_history(&big, &platform, &m, &mut rng);

    let gauge = EpcGauge::new();
    let small = QueryHistory::new(100, gauge.clone());
    restore_history(&small, &platform, &m, &blob).unwrap();
    assert_eq!(small.len(), 100);
    assert_eq!(
        small.memory_bytes(),
        gauge.used(),
        "accounting survives restore"
    );
    // The newest entries won.
    assert_eq!(small.snapshot().last().map(String::as_str), Some("q999"));
}
