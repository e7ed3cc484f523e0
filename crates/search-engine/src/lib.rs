//! Simulated web search engine — the reproduction's stand-in for Bing.
//!
//! The paper's accuracy experiment (Fig 4) compares result sets for an
//! original query against result sets for its obfuscated `q₀ OR q₁ OR …`
//! form; all it requires from the engine is that result overlap behaves
//! like a real keyword engine's. This crate provides that:
//!
//! * [`corpus`] — a synthetic web corpus aligned to the same topic bank as
//!   the query log, so topical queries have topical results;
//! * [`index`] — an inverted index with document statistics;
//! * [`bm25`] — Okapi BM25 ranking;
//! * [`engine`] — the query front-end, including the paper's §5.3.2
//!   workaround for Bing's single-word-OR limitation (submit each
//!   sub-query independently and merge the result sets);
//! * [`service`] — a latency-modeled wrapper for end-to-end experiments:
//!   it evaluates the sub-queries on the request's own thread and charges
//!   one service-time draw per sub-query as a makespan over the modeled
//!   engine's service slots (lanes), sub-query `i` on lane `i % lanes`.
//!
//! # Example
//!
//! ```
//! use xsearch_engine::corpus::CorpusConfig;
//! use xsearch_engine::engine::SearchEngine;
//!
//! let engine = SearchEngine::build(&CorpusConfig { docs_per_topic: 30, ..Default::default() });
//! let results = engine.search("hotel flights paris", 10);
//! assert!(!results.is_empty());
//! assert!(results.len() <= 10);
//! ```

#![deny(missing_docs)]

pub mod bm25;
pub mod corpus;
pub mod document;
pub mod engine;
pub mod index;
pub mod service;

pub use document::{DocId, Document};
pub use engine::{SearchEngine, SearchResult};
