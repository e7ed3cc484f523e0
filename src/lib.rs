//! # X-Search — private web search using (simulated) Intel SGX
//!
//! A full Rust reproduction of *"X-Search: Revisiting Private Web Search
//! using Intel SGX"* (Ben Mokhtar et al., ACM Middleware 2017). This
//! facade crate re-exports every subsystem and hosts the runnable
//! examples and cross-crate integration tests.
//!
//! The interesting entry points:
//!
//! * [`core`] — the X-Search proxy itself: obfuscation (Algorithm 1),
//!   filtering (Algorithm 2), the in-enclave application, broker and
//!   attested channel;
//! * [`cluster`] — the fleet tier: attested replica registry, routing
//!   policies, health checking and failover with sealed-history
//!   migration;
//! * [`baselines`] — Tor, PEAS, TrackMeNot, GooPIR and Direct;
//! * [`attack`] — the SimAttack re-identification adversary;
//! * [`sgx`] — the SGX model (EPC, measurement, attestation, sealing);
//! * [`engine`] — the simulated search engine;
//! * [`query_log`] — AOL-schema logs (parser + calibrated synthesizer);
//! * [`telemetry`] — the lock-free observability layer: sharded metrics
//!   registry, trust-boundary-aware [`telemetry::EnclaveScope`], and the
//!   flight recorder the chaos harness dumps on failure.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use xsearch::core::{broker::Broker, config::XSearchConfig, proxy::XSearchProxy};
//! use xsearch::engine::{corpus::CorpusConfig, engine::SearchEngine};
//! use xsearch::sgx::attestation::AttestationService;
//!
//! let engine = Arc::new(SearchEngine::build(&CorpusConfig { docs_per_topic: 25, ..Default::default() }));
//! let ias = AttestationService::from_seed(1);
//! let proxy = XSearchProxy::launch(XSearchConfig { k: 2, ..Default::default() }, engine, &ias);
//! proxy.seed_history(["warm query one", "warm query two"]);
//!
//! let mut broker = Broker::attach(&proxy, &ias, proxy.expected_measurement(), 42).unwrap();
//! let results = broker.search(&proxy, "cheap flights").unwrap();
//! assert!(!results.is_empty());
//! ```

#![deny(missing_docs)]

// Compile and run every fenced Rust block in README.md as a doctest, so
// the README can never drift from the real API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use xsearch_attack as attack;
pub use xsearch_baselines as baselines;
pub use xsearch_cluster as cluster;
pub use xsearch_core as core;
pub use xsearch_crypto as crypto;
pub use xsearch_engine as engine;
pub use xsearch_net_sim as net_sim;
pub use xsearch_query_log as query_log;
pub use xsearch_sgx_sim as sgx;
pub use xsearch_telemetry as telemetry;
pub use xsearch_text as text;
