//! **Figure 1**: CCDF of the maximum similarity between generated fake
//! queries and real past queries.
//!
//! Paper claim: "almost all fake queries built by TrackMeNot and PEAS are
//! original, i.e. never appear in the AOL log" — their similarity to
//! any real past query is low, which is what lets a re-identification
//! adversary discard them. X-Search's fakes, being verbatim past queries,
//! sit at similarity 1.0 (extra series for contrast).
//!
//! Run: `cargo run -p xsearch-bench --release --bin fig1_fake_query_similarity`

use xsearch_attack::profile::ProfileSet;
use xsearch_baselines::peas::{CooccurrenceMatrix, PeasFakeGenerator};
use xsearch_baselines::tmn::TrackMeNot;
use xsearch_bench::distribution::Empirical;
use xsearch_bench::series::Table;
use xsearch_bench::{Dataset, EXPERIMENT_SEED};

const FAKES: usize = 1_000;

fn max_similarity(profiles: &ProfileSet, fake: &str) -> f64 {
    profiles
        .nonzero_cosines(fake)
        .values()
        .flat_map(|sims| sims.iter().copied())
        .fold(0.0, f64::max)
}

fn main() {
    let dataset = Dataset::standard();
    let train = dataset.train_queries();
    // Index all past queries for fast max-cosine lookup.
    let profiles = ProfileSet::build(&dataset.split.train);

    let mut peas = PeasFakeGenerator::new(CooccurrenceMatrix::build(&train), EXPERIMENT_SEED);
    let peas_sims: Vec<f64> = (0..FAKES)
        .map(|_| max_similarity(&profiles, &peas.one_fake()))
        .collect();

    let mut tmn = TrackMeNot::new(EXPERIMENT_SEED);
    let tmn_sims: Vec<f64> = (0..FAKES)
        .map(|_| max_similarity(&profiles, &tmn.fake_query()))
        .collect();

    // X-Search fakes are past queries themselves: similarity 1 by
    // construction (sampled here for completeness).
    let xsearch_sims = vec![1.0; FAKES];

    let peas_dist = Empirical::from_samples(peas_sims);
    let tmn_dist = Empirical::from_samples(tmn_sims);
    let xs_dist = Empirical::from_samples(xsearch_sims);

    let mut table = Table::new(
        "fig1: CCDF of max(similarity(fakeQuery, pastQuery))",
        &["similarity", "ccdf_peas", "ccdf_tmn", "ccdf_xsearch"],
    );
    table.note(&format!(
        "fakes per system = {FAKES}; past queries = {}",
        dataset.split.train.len()
    ));
    table.note("paper shape: PEAS and TMN mass concentrated at low similarity; X-Search at 1.0");
    for i in 0..=20 {
        let x = i as f64 / 20.0;
        table.row(&[x, peas_dist.ccdf(x), tmn_dist.ccdf(x), xs_dist.ccdf(x)]);
    }
    table.print();

    println!();
    println!("# summary");
    println!(
        "median max-similarity: peas={:.3} tmn={:.3} xsearch={:.3}",
        peas_dist.median(),
        tmn_dist.median(),
        xs_dist.median()
    );
    println!(
        "fraction of fakes with max-similarity >= 0.99: peas={:.3} tmn={:.3} xsearch={:.3}",
        peas_dist.ccdf(0.99),
        tmn_dist.ccdf(0.99),
        xs_dist.ccdf(0.99)
    );
}
