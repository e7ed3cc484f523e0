//! Shared setup for the experiment harnesses.
//!
//! Every `fig*` binary uses the same dataset methodology as the paper's
//! §5.1: a query log (synthetic, AOL-calibrated — see DESIGN.md), the 100
//! most active users, and a ⅔/⅓ train/test split per user. Centralizing
//! the setup keeps the figures comparable with each other.
//!
//! The perf and chaos binaries are scenario descriptions over the same
//! small library: the rig here ([`echo_engine`], [`echo_fleet`]), the
//! session pools and the raw framed client in [`sessions`], the wrk2-style
//! open-loop generator and its Fig 5 reading in [`load`], and the one
//! summary / gate / scale-knob stack in [`summary`]. The figure binaries
//! add three small helpers: precision/recall in [`accuracy`] (Fig 4),
//! empirical CDF/CCDF in [`distribution`] (Figs 1 and 7), and the TSV
//! tables in [`series`].

#![deny(missing_docs)]

pub mod accuracy;
pub mod distribution;
pub mod load;
pub mod series;
pub mod sessions;
pub mod summary;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use xsearch_cluster::{Cluster, ClusterConfig, FaultPlan};
use xsearch_core::config::XSearchConfig;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;
use xsearch_query_log::record::QueryRecord;
use xsearch_query_log::split::{top_active_users, train_test_split, TrainTestSplit};
use xsearch_query_log::synthetic::{generate, SyntheticConfig};

/// The shared RNG seed: every harness is reproducible end to end.
pub const EXPERIMENT_SEED: u64 = 2017;

/// Number of most-active users the paper evaluates (§5.1).
pub const TOP_USERS: usize = 100;

/// The standard experiment dataset: log, split, training-query list.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The full synthetic log.
    pub log: Vec<QueryRecord>,
    /// Train/test partition of the 100 most active users.
    pub split: TrainTestSplit,
}

impl Dataset {
    /// Generates the standard dataset (≈200 users, top-100 selected).
    #[must_use]
    pub fn standard() -> Self {
        Self::with_users(220)
    }

    /// Smaller variant for quick runs.
    #[must_use]
    pub fn with_users(num_users: usize) -> Self {
        let log = generate(&SyntheticConfig {
            num_users,
            seed: EXPERIMENT_SEED,
            ..Default::default()
        });
        let top = top_active_users(&log, TOP_USERS.min(num_users));
        let split = train_test_split(&log, &top, 2.0 / 3.0);
        Dataset { log, split }
    }

    /// The training queries (adversary knowledge / proxy history warm-up).
    #[must_use]
    pub fn train_queries(&self) -> Vec<String> {
        self.split.train.iter().map(|r| r.query.clone()).collect()
    }

    /// A deterministic sample of `n` test records.
    #[must_use]
    pub fn sample_test(&self, n: usize, salt: u64) -> Vec<QueryRecord> {
        let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED ^ salt);
        let mut test = self.split.test.clone();
        test.shuffle(&mut rng);
        test.truncate(n);
        test
    }
}

/// The standard simulated engine (40 topics × 250 documents).
#[must_use]
pub fn standard_engine() -> SearchEngine {
    SearchEngine::build(&CorpusConfig {
        docs_per_topic: 250,
        seed: EXPERIMENT_SEED,
        ..Default::default()
    })
}

/// The tiny engine behind every echo-mode rig: echo keeps the engine out
/// of the measured path, so it only needs to exist.
#[must_use]
pub fn echo_engine() -> Arc<SearchEngine> {
    Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 5,
        ..Default::default()
    }))
}

/// A small echo fleet for the harnesses whose subject is the front tier:
/// the enclave tier behind it runs k = 2 over an ample window, optionally
/// under a deterministic fault plan.
#[must_use]
pub fn echo_fleet(replicas: usize, faults: Option<Arc<FaultPlan>>) -> Arc<Cluster> {
    Arc::new(Cluster::launch(
        echo_engine(),
        ClusterConfig {
            replicas,
            proxy: XSearchConfig {
                k: 2,
                history_capacity: 1_000_000,
                ..Default::default()
            },
            faults,
            ..Default::default()
        },
    ))
}

/// Runs one attested search and splits its latency into
/// `(modeled engine leg, proxy-side compute)` without double counting.
///
/// The engine leg is read from the pipeline's own accounting
/// ([`xsearch_core::proxy::XSearchProxy::accounted_engine_delay`]) and
/// already includes each evaluation's measured compute, so the wall time
/// the caller physically spent inside those evaluations
/// ([`xsearch_core::proxy::XSearchProxy::accounted_engine_fetch_wall`])
/// is subtracted from the request wall: crypto/obfuscation/filtering is
/// counted once, and the in-process engine evaluation exactly once.
///
/// # Panics
///
/// Panics when the attested search itself fails — bench harnesses treat
/// that as a broken setup, not a data point.
pub fn timed_attested_search(
    proxy: &xsearch_core::proxy::XSearchProxy,
    broker: &mut xsearch_core::broker::Broker,
    query: &str,
) -> (std::time::Duration, std::time::Duration) {
    let engine_before = proxy.accounted_engine_delay();
    let fetch_before = proxy.accounted_engine_fetch_wall();
    let start = std::time::Instant::now();
    let _ = broker.search(proxy, query).expect("attested search");
    let wall = start.elapsed();
    let engine_leg = proxy.accounted_engine_delay() - engine_before;
    let fetch_wall = proxy.accounted_engine_fetch_wall() - fetch_before;
    (engine_leg, wall.saturating_sub(fetch_wall))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_dataset_has_top_users_split() {
        let d = Dataset::with_users(30);
        assert!(!d.split.train.is_empty());
        assert!(!d.split.test.is_empty());
        let users: std::collections::HashSet<_> = d.split.test.iter().map(|r| r.user).collect();
        assert!(users.len() <= TOP_USERS);
    }

    #[test]
    fn sample_test_is_deterministic() {
        let d = Dataset::with_users(30);
        assert_eq!(d.sample_test(10, 1), d.sample_test(10, 1));
        assert_ne!(d.sample_test(10, 1), d.sample_test(10, 2));
    }
}
