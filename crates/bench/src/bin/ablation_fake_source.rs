//! **Ablation**: where should fake queries come from?
//!
//! The paper's central design choice (§4.3) is to draw fakes from the
//! table of *real past queries* instead of synthesizing them. This
//! ablation isolates that choice: same adversary, same test traffic,
//! same k — only the fake source varies:
//!
//! * `history`      — X-Search: verbatim past queries;
//! * `cooccurrence` — PEAS-style: random walks over the term graph;
//! * `dictionary`   — GooPIR-style: uniform keyword picks;
//! * `rss`          — TrackMeNot-style: headline-flavoured phrases.
//!
//! Run: `cargo run -p xsearch-bench --release --bin ablation_fake_source`

use xsearch_attack::eval::reidentification_rate;
use xsearch_attack::profile::ProfileSet;
use xsearch_attack::simattack::SimAttack;
use xsearch_baselines::goopir::GooPir;
use xsearch_baselines::peas::PeasSystem;
use xsearch_baselines::system::PrivateSearchSystem;
use xsearch_baselines::tmn::TrackMeNot;
use xsearch_baselines::xsearch_system::XSearchSystem;
use xsearch_bench::series::Table;
use xsearch_bench::{Dataset, EXPERIMENT_SEED};
use xsearch_query_log::record::QueryRecord;

const TEST_QUERIES: usize = 800;
const K: usize = 3;

fn rate_for<S, F>(profiles: &ProfileSet, test: &[QueryRecord], mut system: S, extract: F) -> f64
where
    S: PrivateSearchSystem,
    F: Fn(&mut S, &QueryRecord) -> Vec<String>,
{
    let attack = SimAttack::default();
    reidentification_rate(profiles, &attack, test, |r| extract(&mut system, r))
}

fn main() {
    let dataset = Dataset::standard();
    let train = dataset.train_queries();
    let profiles = ProfileSet::build(&dataset.split.train);
    let test = dataset.sample_test(TEST_QUERIES, 13);

    let mut table = Table::new(
        "ablation: fake-query source vs re-identification rate (k=3)",
        &["source", "reid_rate"],
    );
    table.note("source ids: 0=history(x-search) 1=cooccurrence(peas) 2=dictionary(goopir) 3=rss(tmn) 4=none");
    table.note(&format!(
        "users={} attacked={}",
        profiles.user_count(),
        test.len()
    ));

    // 0: history (the paper's choice).
    let xsearch = {
        let s = XSearchSystem::new(K, 1_000_000, EXPERIMENT_SEED);
        s.warm(train.iter().map(String::as_str));
        s
    };
    let r_history = rate_for(&profiles, &test, xsearch, |s, r| {
        s.protect(r.user, &r.query).subqueries
    });
    table.row(&[0.0, r_history]);

    // 1: co-occurrence walks.
    let peas = PeasSystem::new(&train, K, EXPERIMENT_SEED);
    let r_cooc = rate_for(&profiles, &test, peas, |s, r| {
        s.protect(r.user, &r.query).subqueries
    });
    table.row(&[1.0, r_cooc]);

    // 2: dictionary picks (GooPIR exposes identity; for a fair fake-source
    // comparison only the sub-queries are used).
    let goopir = GooPir::new(K, EXPERIMENT_SEED);
    let r_dict = rate_for(&profiles, &test, goopir, |s, r| {
        s.protect(r.user, &r.query).subqueries
    });
    table.row(&[2.0, r_dict]);

    // 3: RSS phrases (TMN interleaves rather than ORs; same treatment).
    let tmn = TrackMeNot::new(EXPERIMENT_SEED);
    let r_rss = rate_for(&profiles, &test, tmn, |s, r| {
        let mut subs = vec![r.query.clone()];
        for _ in 0..K {
            subs.push(s.fake_query());
        }
        subs
    });
    table.row(&[3.0, r_rss]);

    // 4: no fakes at all (the k=0 anchor).
    let r_none = {
        let attack = SimAttack::default();
        reidentification_rate(&profiles, &attack, &test, |r| vec![r.query.clone()])
    };
    table.row(&[4.0, r_none]);

    table.print();

    println!();
    println!("# summary");
    println!("history(x-search)={r_history:.3} cooccurrence={r_cooc:.3} dictionary={r_dict:.3} rss={r_rss:.3} none={r_none:.3}");
    println!(
        "claim check: history fakes give the lowest re-identification → {}",
        if r_history <= r_cooc && r_history <= r_dict && r_history <= r_rss {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
}
