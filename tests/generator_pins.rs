//! Byte-for-byte pins of the two generators every figure and the benchmark
//! draw their inputs from: the calibrated synthetic query log and the
//! synthetic web corpus. A change to a generator's calibration, draw order
//! or RNG moves a digest here before it moves a figure.

use xsearch::crypto::{hex, sha256::Sha256};
use xsearch::engine::corpus::{self, CorpusConfig};
use xsearch::query_log::synthetic::{generate, SyntheticConfig};

/// Appends `text` length-prefixed, so field boundaries are part of the digest.
fn update_str(digest: &mut Sha256, text: &str) {
    digest.update(&(text.len() as u32).to_le_bytes());
    digest.update(text.as_bytes());
}

#[test]
fn the_default_synthetic_log_is_pinned() {
    let log = generate(&SyntheticConfig {
        num_users: 60,
        seed: 2017,
        ..Default::default()
    });
    let mut digest = Sha256::new();
    for record in &log {
        digest.update(&record.user.0.to_le_bytes());
        digest.update(&record.time.to_le_bytes());
        update_str(&mut digest, &record.query);
    }
    assert_eq!(log.len(), 8397);
    assert_eq!(
        hex::encode(&digest.finalize()),
        "77173490cbfe023b2854af3b2080a824661cb364a00bb0dc6a77bd28f21216d5"
    );
}

#[test]
fn the_default_corpus_is_pinned() {
    let docs = corpus::generate(&CorpusConfig::default());
    let mut digest = Sha256::new();
    for doc in &docs {
        digest.update(&doc.id.0.to_le_bytes());
        digest.update(&(doc.topic as u32).to_le_bytes());
        update_str(&mut digest, &doc.url);
        update_str(&mut digest, &doc.title);
        update_str(&mut digest, &doc.description);
    }
    assert_eq!(docs.len(), 10_000);
    assert_eq!(
        hex::encode(&digest.finalize()),
        "e7ed79b99dec270c648cc7d763f6778aef1e2b4b520781845cff9c02f628c960"
    );
}
