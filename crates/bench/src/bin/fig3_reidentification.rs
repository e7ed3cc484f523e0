//! **Figure 3**: re-identification rate vs number of fake queries k.
//!
//! Paper claims to reproduce in shape:
//! * k = 0 (unlinkability only, e.g. Tor): ≈ 40% of queries re-identified;
//! * one fake query drops the rate to ≈ 16% (X-Search) vs ≈ 20% (PEAS);
//! * the rate keeps decreasing with k and X-Search stays below PEAS by
//!   roughly 23–35%.
//!
//! Reports through `Summary` into `BENCH_privacy.json`. Seeds are fixed,
//! so the figure is gated twice: *exactly* (k = 0, 1, 7 pinned to four
//! decimals — any drift fails) and *in the paper's shape* (both series
//! non-increasing in k, X-Search below PEAS at every k ≥ 1).
//!
//! Run: `cargo run -p xsearch-bench --release --bin fig3_reidentification`

use xsearch_attack::eval::reidentification_rate;
use xsearch_attack::profile::ProfileSet;
use xsearch_attack::simattack::SimAttack;
use xsearch_baselines::peas::PeasSystem;
use xsearch_baselines::system::PrivateSearchSystem;
use xsearch_baselines::xsearch_system::XSearchSystem;
use xsearch_bench::summary::{fixed, Gate, Json, Obj, Summary};
use xsearch_bench::{Dataset, EXPERIMENT_SEED};

/// Test queries attacked per k (subsampled for runtime; deterministic).
const TEST_QUERIES: usize = 1_200;

/// The seeded rates this tree produces: `(k, xsearch, peas)`. At k = 0
/// neither system adds a fake, so the two agree (paper: ≈ 0.40; k = 1
/// ≈ 0.16 vs ≈ 0.20).
const PINS: [(usize, f64, f64); 3] = [
    (0, 0.4533, 0.4533),
    (1, 0.1483, 0.2983),
    (7, 0.0392, 0.2158),
];

fn main() {
    let dataset = Dataset::standard();
    let train = dataset.train_queries();
    let profiles = ProfileSet::build(&dataset.split.train);
    let attack = SimAttack::default();
    let test = dataset.sample_test(TEST_QUERIES, 3);

    let (xsearch, peas): (Vec<f64>, Vec<f64>) = (0..=7)
        .map(|k| {
            // Fresh systems per k, warmed with the same training traffic.
            let mut xsearch = XSearchSystem::new(k, 1_000_000, EXPERIMENT_SEED ^ k as u64);
            xsearch.warm(train.iter().map(String::as_str));
            let mut peas = PeasSystem::new(&train, k, EXPERIMENT_SEED ^ (k as u64) << 8);
            let xs_rate = reidentification_rate(&profiles, &attack, &test, |r| {
                xsearch.protect(r.user, &r.query).subqueries
            });
            let peas_rate = reidentification_rate(&profiles, &attack, &test, |r| {
                peas.protect(r.user, &r.query).subqueries
            });
            (xs_rate, peas_rate)
        })
        .unzip();

    let mut summary = Summary::new("privacy");
    summary.row("users", profiles.user_count());
    summary.row("train_queries", profiles.query_count());
    summary.row("attacked_queries", test.len());
    let rows = xsearch
        .iter()
        .zip(&peas)
        .enumerate()
        .map(|(k, (&xs, &peas))| {
            Obj::new()
                .field("k", k)
                .field("xsearch", fixed(xs, 4))
                .field("peas", fixed(peas, 4))
        });
    summary.row("fig3", rows.collect::<Json>());
    for (k, xs_pin, peas_pin) in PINS {
        summary.gate(Gate::pinned(
            &format!("fig3_k{k}_xsearch"),
            xsearch[k],
            xs_pin,
        ));
        summary.gate(Gate::pinned(&format!("fig3_k{k}_peas"), peas[k], peas_pin));
    }
    let rises = |series: &[f64]| series.windows(2).filter(|w| w[1] > w[0]).count() as f64;
    summary.gate(Gate::at_most(
        "fig3_xsearch_rises_in_k",
        rises(&xsearch),
        0.0,
    ));
    summary.gate(Gate::at_most("fig3_peas_rises_in_k", rises(&peas), 0.0));
    let not_below = (1..=7).filter(|&k| xsearch[k] >= peas[k]).count();
    summary.gate(Gate::at_most(
        "fig3_xsearch_not_below_peas",
        not_below as f64,
        0.0,
    ));
    summary.finish(|| {});
}
