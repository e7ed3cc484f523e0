//! **Figure 4**: precision and recall of X-Search's filtered results vs k.
//!
//! Paper claims to reproduce in shape: precision and recall start at 1.0
//! for k = 0 and degrade slowly; at k = 2 both remain above 0.8.
//!
//! Method (§5.3.2): for each test query, compare the engine's first 20
//! results for the query alone against what X-Search returns after
//! obfuscating, executing each sub-query independently (the Bing
//! single-word-OR workaround), merging, and filtering with Algorithm 2.
//!
//! Run: `cargo run -p xsearch-bench --release --bin fig4_accuracy`

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use xsearch_bench::accuracy::PrecisionRecall;
use xsearch_bench::series::Table;
use xsearch_bench::{standard_engine, Dataset, EXPERIMENT_SEED};
use xsearch_core::filter::filter_results;
use xsearch_core::history::QueryHistory;
use xsearch_core::obfuscate::obfuscate;
use xsearch_engine::document::DocId;
use xsearch_sgx_sim::epc::EpcGauge;

/// Queries evaluated per k (the paper uses 100 due to Bing rate limits).
const QUERIES_PER_K: usize = 100;
/// Results considered per query (paper: "the first 20 results").
const TOP_K_RESULTS: usize = 20;

fn main() {
    let dataset = Dataset::standard();
    let train = dataset.train_queries();
    let engine = Arc::new(standard_engine());

    let mut table = Table::new(
        "fig4: precision/recall of filtered results vs k",
        &["k", "precision", "recall"],
    );
    table.note(&format!(
        "queries per k = {QUERIES_PER_K}; top {TOP_K_RESULTS} results; merged sub-query execution"
    ));
    table.note("paper: both ≈1.0 at k=0, recall > 0.8 at k=2");

    for k in 0..=7 {
        let mut rng = StdRng::seed_from_u64(EXPERIMENT_SEED ^ (k as u64) << 16);
        // A warm proxy history, fresh per k.
        let history = QueryHistory::new(1_000_000, EpcGauge::new());
        for q in &train {
            history.push(q);
        }
        let test = dataset.sample_test(QUERIES_PER_K, 4 + k as u64);
        let mut measurements = Vec::with_capacity(test.len());
        for record in &test {
            let reference: Vec<DocId> = engine
                .search(&record.query, TOP_K_RESULTS)
                .into_iter()
                .map(|r| r.doc)
                .collect();
            let obfuscated = obfuscate(&record.query, &history, k, &mut rng);
            let merged = engine.search_merged(&obfuscated.subqueries, TOP_K_RESULTS);
            let returned: Vec<DocId> = filter_results(&record.query, &obfuscated.fakes(), merged)
                .into_iter()
                .map(|r| r.doc)
                .collect();
            // Queries with no reference results tell us nothing.
            if reference.is_empty() {
                continue;
            }
            measurements.push(PrecisionRecall::of(&reference, &returned));
        }
        let mean = PrecisionRecall::mean(measurements);
        table.row(&[k as f64, mean.precision, mean.recall]);
    }
    table.print();
}
