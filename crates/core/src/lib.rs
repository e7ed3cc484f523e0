//! **X-Search**: the private web search proxy of Ben Mokhtar et al.
//! (Middleware 2017), reproduced in Rust.
//!
//! A user never contacts the search engine directly. Her local
//! [`broker`] attests an SGX [`enclave_app`] running on an untrusted cloud
//! node and tunnels queries to it over an encrypted [`session`]; inside
//! the enclave the proxy obfuscates each query by OR-ing it with `k`
//! random *real past queries* from a bounded [`history`] table
//! (Algorithm 1 → [`obfuscate`]), forwards the obfuscated query to the
//! engine, then [`filter`]s the response (Algorithm 2) down to the results
//! that belong to the original query — after stripping analytics
//! [`redirect`]ions — and returns them encrypted.
//!
//! # Quickstart
//!
//! ```
//! use xsearch_core::config::XSearchConfig;
//! use xsearch_core::proxy::XSearchProxy;
//! use xsearch_core::broker::Broker;
//! use xsearch_engine::{corpus::CorpusConfig, engine::SearchEngine};
//! use xsearch_sgx_sim::attestation::AttestationService;
//! use std::sync::Arc;
//!
//! // Cloud side: an attested proxy in front of the engine.
//! let engine = Arc::new(SearchEngine::build(&CorpusConfig { docs_per_topic: 20, ..Default::default() }));
//! let ias = AttestationService::from_seed(7);
//! let proxy = XSearchProxy::launch(XSearchConfig { k: 2, ..Default::default() }, engine, &ias);
//!
//! // Client side: broker attests the proxy, then searches privately.
//! let mut broker = Broker::attach(&proxy, &ias, proxy.expected_measurement(), 99).unwrap();
//! proxy.seed_history(["cheap flights paris", "diabetes symptoms"]);
//! let results = broker.search(&proxy, "cheap flights").unwrap();
//! assert!(!results.is_empty());
//! ```

#![deny(missing_docs)]

pub mod broker;
pub mod config;
pub mod enclave_app;
pub mod error;
pub mod filter;
pub mod history;
pub mod obfuscate;
pub mod persistence;
pub mod proxy;
pub mod redirect;
pub mod session;
pub mod wire;

pub use broker::{Broker, ClientKeypair};
pub use config::XSearchConfig;
pub use error::XSearchError;
pub use history::QueryHistory;
pub use obfuscate::ObfuscatedQuery;
pub use proxy::XSearchProxy;
