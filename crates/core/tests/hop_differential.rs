//! The engine hop against the owned reference it replaced: over seeded
//! requests from the synthetic log, on the standard corpus, at k ∈
//! {0, 1, 3, 7},
//!
//! * the bytes the host's `recv` returns are the owned merge encoded —
//!   `wire::encode_results(&engine.search_merged(subs, k_each))` — byte
//!   for byte;
//! * the enclave's reply plaintext is owned `filter_results` +
//!   `strip_all` + encode over those same sub-queries.
//!
//! Together they pin the id merge, the packed-key top-k, the borrowed
//! parse, Algorithm 2 on views and the redirect strip on views.

use std::sync::Arc;
use xsearch_core::broker::Broker;
use xsearch_core::config::XSearchConfig;
use xsearch_core::filter::filter_results;
use xsearch_core::proxy::XSearchProxy;
use xsearch_core::redirect::strip_all;
use xsearch_core::wire::encode_results;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;
use xsearch_query_log::synthetic::{generate, SyntheticConfig};
use xsearch_sgx_sim::attestation::AttestationService;

/// Requests per k.
const REQUESTS: usize = 1_000;
const RESULTS_PER_QUERY: usize = 20;

#[test]
fn the_hop_carries_the_owned_merge_and_the_reply_is_the_owned_filter() {
    let engine = Arc::new(SearchEngine::build(&CorpusConfig::default()));
    let log: Vec<String> = generate(&SyntheticConfig {
        num_users: 60,
        seed: 2017,
        ..Default::default()
    })
    .into_iter()
    .map(|r| r.query)
    .collect();
    let (warm, requests) = log.split_at(log.len() - REQUESTS);
    let ias = AttestationService::from_seed(2017);
    let mut redirected = 0;
    for k in [0, 1, 3, 7] {
        let proxy = XSearchProxy::launch(
            XSearchConfig {
                k,
                history_capacity: warm.len() + REQUESTS,
                results_per_query: RESULTS_PER_QUERY,
                seed: 2017 + k as u64,
            },
            Arc::clone(&engine),
            &ias,
        );
        proxy.seed_history(warm.iter().map(String::as_str));
        let mut broker =
            Broker::attach(&proxy, &ias, proxy.expected_measurement(), k as u64).unwrap();
        for query in requests {
            let ciphertext = broker.seal_query(query);
            let mut subs: Vec<String> = Vec::new();
            let reply = proxy
                .request_with(
                    broker.client_pub().as_bytes(),
                    &ciphertext,
                    |sent, k_each| {
                        assert_eq!(k_each, RESULTS_PER_QUERY);
                        subs = sent.iter().map(|&q| q.to_owned()).collect();
                        let recv = proxy.fetch(sent, k_each);
                        assert_eq!(
                            recv,
                            encode_results(&engine.search_merged(sent, k_each)),
                            "k = {k}, sub-queries {sent:?}"
                        );
                        recv
                    },
                )
                .unwrap();
            let plaintext = encode_results(&broker.open_results(&reply).unwrap());

            assert_eq!(subs.len(), k + 1, "the window is warm");
            let original = subs
                .iter()
                .position(|q| q == query)
                .expect("the query is sent");
            let mut fakes = subs.clone();
            fakes.remove(original);
            let mut kept = filter_results(
                query,
                &fakes,
                engine.search_merged(&subs, RESULTS_PER_QUERY),
            );
            redirected += kept
                .iter()
                .filter(|r| r.url.contains("redirect.tracker.com"))
                .count();
            strip_all(&mut kept);
            assert_eq!(plaintext, encode_results(&kept), "k = {k}, query {query:?}");
        }
    }
    assert!(
        redirected > 1_000,
        "the strip is exercised: {redirected} tracker URLs kept"
    );
}
