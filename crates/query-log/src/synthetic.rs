//! Calibrated synthetic query-log generator.
//!
//! The generator reproduces the statistical properties of the AOL log that
//! the paper's experiments depend on (DESIGN.md §6):
//!
//! * **topical user profiles** — each user is a mixture over 2–4 topics
//!   from the embedded [`crate::topics`] bank, so users are distinguishable
//!   (what SimAttack exploits) yet overlapping (what makes X-Search's
//!   history-based fakes plausible);
//! * **Zipfian query popularity** — per-topic shared query pools sampled
//!   with a Zipf law, so some queries recur across many users;
//! * **repetition** — users re-issue their own past queries, giving the
//!   adversary's training profiles real predictive power over test queries;
//! * **personal long-tail queries** — rare place/name terms concentrated on
//!   one user each, the strongest re-identification signal;
//! * **heavy-tailed activity** — a log-normal activity level creates the
//!   "100 most active users" the paper's §5.1 methodology selects.

use crate::record::{QueryRecord, UserId};
use crate::topics::{MODIFIERS, PERSONAL, TOPICS};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::ops::RangeInclusive;

/// First timestamp of the synthetic window: 2006-03-01 00:00:00 UTC,
/// matching the AOL collection start.
pub const DATASET_START: u64 = 1_141_171_200;
/// Length of the collection window: three months, as in the AOL log.
pub const DATASET_SPAN: u64 = 92 * 86_400;

/// Minimum queries per user.
const MIN_QUERIES_PER_USER: usize = 20;
/// Cap on queries per user.
const MAX_QUERIES_PER_USER: usize = 2_000;
/// Median of the log-normal activity distribution.
const MEDIAN_QUERIES_PER_USER: f64 = 90.0;
/// σ of the log-normal activity distribution (tail heaviness).
const ACTIVITY_SIGMA: f64 = 0.9;
/// Topics mixed into one user profile.
const TOPICS_PER_USER: RangeInclusive<usize> = 2..=4;
/// Probability that a fresh topical query comes from the shared
/// per-topic pool (vs. a freshly composed term combination).
const SHARED_POOL_PROBABILITY: f64 = 0.65;
/// Probability of attaching a modifier word ("free", "best", ...).
const MODIFIER_PROBABILITY: f64 = 0.30;
/// Size of each topic's shared query pool.
const POOL_PER_TOPIC: usize = 150;
/// Zipf exponent over pool queries.
const POOL_ZIPF_EXPONENT: f64 = 1.05;

/// Generator parameters. `Default` matches the calibration used by the
/// experiment harnesses; the rest of the calibration is fixed.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Number of users in the log.
    pub num_users: usize,
    /// RNG seed; equal seeds give byte-identical logs.
    pub seed: u64,
    /// Probability that a query re-issues one of the user's past queries.
    pub repeat_probability: f64,
    /// Probability that a fresh query is a personal (identifying) query.
    pub personal_probability: f64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            num_users: 200,
            seed: 42,
            repeat_probability: 0.22,
            personal_probability: 0.28,
        }
    }
}

/// A user's generation-time profile (exposed for tests and calibration).
#[derive(Debug, Clone)]
pub struct UserProfile {
    /// The user this profile belongs to.
    pub user: UserId,
    /// Topic indices into [`TOPICS`], most-weighted first.
    pub topic_indices: Vec<usize>,
    /// Mixture weights aligned with `topic_indices` (sum 1.0).
    pub topic_weights: Vec<f64>,
    /// This user's personal identifying terms.
    pub personal_terms: Vec<&'static str>,
    /// Target query count.
    pub activity: usize,
}

/// Generates a synthetic log; records are sorted by timestamp.
#[must_use]
pub fn generate(config: &SyntheticConfig) -> Vec<QueryRecord> {
    generate_with_profiles(config).0
}

/// Generates a log together with the ground-truth user profiles
/// (useful for calibration tests).
#[must_use]
pub fn generate_with_profiles(config: &SyntheticConfig) -> (Vec<QueryRecord>, Vec<UserProfile>) {
    assert!(config.num_users > 0, "need at least one user");
    let mut rng = StdRng::seed_from_u64(config.seed);

    let pools = build_topic_pools(&mut rng);
    let pool_zipf = Zipf::new(POOL_PER_TOPIC, POOL_ZIPF_EXPONENT);

    let mut records = Vec::new();
    let mut profiles = Vec::with_capacity(config.num_users);
    for uid in 0..config.num_users {
        let user = UserId(uid as u32);
        let profile = sample_profile(user, &mut rng);
        let mut own_queries: Vec<String> = Vec::new();
        let mut times: Vec<u64> = (0..profile.activity)
            .map(|_| DATASET_START + rng.gen_range(0..DATASET_SPAN))
            .collect();
        times.sort_unstable();
        for t in times {
            let query = next_query(&profile, &own_queries, &pools, &pool_zipf, config, &mut rng);
            own_queries.push(query.clone());
            records.push(QueryRecord::new(user, query, t));
        }
        profiles.push(profile);
    }
    records.sort_by_key(|r| (r.time, r.user));
    (records, profiles)
}

/// Shared per-topic query pools: `POOL_PER_TOPIC` queries of 1–3 terms.
fn build_topic_pools(rng: &mut StdRng) -> Vec<Vec<String>> {
    TOPICS
        .iter()
        .map(|topic| {
            let mut pool = Vec::with_capacity(POOL_PER_TOPIC);
            let mut seen = HashSet::new();
            while pool.len() < POOL_PER_TOPIC {
                let q = compose_topical(topic.terms, rng);
                if seen.insert(q.clone()) {
                    pool.push(q);
                }
            }
            pool
        })
        .collect()
}

fn sample_profile(user: UserId, rng: &mut StdRng) -> UserProfile {
    let n_topics = rng.gen_range(TOPICS_PER_USER);
    let mut indices: Vec<usize> = (0..TOPICS.len()).collect();
    indices.shuffle(rng);
    indices.truncate(n_topics);
    // Geometric-ish mixture: first topic dominates.
    let mut weights: Vec<f64> = (0..n_topics).map(|i| 0.5f64.powi(i as i32)).collect();
    let total: f64 = weights.iter().sum();
    for w in &mut weights {
        *w /= total;
    }
    let n_personal = rng.gen_range(2..=4);
    let personal_terms: Vec<&'static str> =
        PERSONAL.choose_multiple(rng, n_personal).copied().collect();

    // Log-normal activity via Box-Muller.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let count = (MEDIAN_QUERIES_PER_USER.ln() + ACTIVITY_SIGMA * z).exp();
    let activity = (count as usize).clamp(MIN_QUERIES_PER_USER, MAX_QUERIES_PER_USER);

    UserProfile {
        user,
        topic_indices: indices,
        topic_weights: weights,
        personal_terms,
        activity,
    }
}

fn next_query(
    profile: &UserProfile,
    own_queries: &[String],
    pools: &[Vec<String>],
    pool_zipf: &Zipf,
    config: &SyntheticConfig,
    rng: &mut StdRng,
) -> String {
    if !own_queries.is_empty() && rng.gen_bool(config.repeat_probability) {
        return own_queries[rng.gen_range(0..own_queries.len())].clone();
    }
    let topic_idx = sample_weighted(&profile.topic_indices, &profile.topic_weights, rng);
    let topic_terms = TOPICS[topic_idx].terms;

    let mut query = if rng.gen_bool(config.personal_probability) {
        // Personal query: identifying term, usually with topical context.
        let p = profile.personal_terms[rng.gen_range(0..profile.personal_terms.len())];
        if rng.gen_bool(0.7) {
            let t = topic_terms[rng.gen_range(0..topic_terms.len())];
            format!("{p} {t}")
        } else {
            (*p).to_owned()
        }
    } else if rng.gen_bool(SHARED_POOL_PROBABILITY) {
        pools[topic_idx][pool_zipf.sample(rng)].clone()
    } else {
        compose_topical(topic_terms, rng)
    };

    if rng.gen_bool(MODIFIER_PROBABILITY) {
        let m = MODIFIERS[rng.gen_range(0..MODIFIERS.len())];
        query = if rng.gen_bool(0.5) {
            format!("{m} {query}")
        } else {
            format!("{query} {m}")
        };
    }
    query
}

/// Composes a 1–3 term query from a topic vocabulary (distinct terms).
fn compose_topical(terms: &[&str], rng: &mut StdRng) -> String {
    let n = [1usize, 2, 2, 2, 3][rng.gen_range(0..5usize)];
    let picked: Vec<&str> = terms
        .choose_multiple(rng, n.min(terms.len()))
        .copied()
        .collect();
    picked.join(" ")
}

fn sample_weighted(indices: &[usize], weights: &[f64], rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (&idx, &w) in indices.iter().zip(weights) {
        acc += w;
        if u <= acc {
            return idx;
        }
    }
    *indices.last().expect("profile has at least one topic")
}

/// Generates `n` *distinct* query strings with an AOL-like length
/// distribution — the workload for the Fig 6 memory experiment, which
/// populates the enclave history with millions of unique queries.
#[must_use]
pub fn unique_queries(n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(n);
    let mut seen: HashSet<String> = HashSet::with_capacity(n);
    while out.len() < n {
        let topic = &TOPICS[rng.gen_range(0..TOPICS.len())];
        let mut q = compose_topical(topic.terms, &mut rng);
        if rng.gen_bool(0.3) {
            q.push(' ');
            q.push_str(PERSONAL[rng.gen_range(0..PERSONAL.len())]);
        }
        if rng.gen_bool(0.2) {
            q = format!("{q} {}", rng.gen_range(1..10_000));
        }
        if !seen.insert(q.clone()) {
            // Salt collisions with a number; numbers appear in real queries.
            q = format!("{q} {}", out.len());
            if !seen.insert(q.clone()) {
                continue;
            }
        }
        out.push(q);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_config() -> SyntheticConfig {
        SyntheticConfig {
            num_users: 15,
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_config());
        let b = generate(&SyntheticConfig {
            seed: 43,
            ..small_config()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn records_sorted_by_time() {
        let log = generate(&small_config());
        assert!(log.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn timestamps_within_window() {
        let log = generate(&small_config());
        for r in &log {
            assert!(r.time >= DATASET_START && r.time < DATASET_START + DATASET_SPAN);
        }
    }

    #[test]
    fn every_user_meets_minimum_activity() {
        let cfg = small_config();
        let log = generate(&cfg);
        let mut counts = std::collections::HashMap::new();
        for r in &log {
            *counts.entry(r.user).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), cfg.num_users);
        for (&u, &c) in &counts {
            assert!(c >= MIN_QUERIES_PER_USER, "user {u} has {c}");
        }
    }

    #[test]
    fn activity_is_heavy_tailed() {
        let cfg = SyntheticConfig {
            num_users: 300,
            ..Default::default()
        };
        let (_, profiles) = generate_with_profiles(&cfg);
        let mut acts: Vec<usize> = profiles.iter().map(|p| p.activity).collect();
        acts.sort_unstable();
        let median = acts[acts.len() / 2];
        let p95 = acts[acts.len() * 95 / 100];
        assert!(
            p95 as f64 > 2.5 * median as f64,
            "median {median} p95 {p95}"
        );
    }

    #[test]
    fn users_repeat_their_own_queries() {
        let log = generate(&small_config());
        let mut per_user: std::collections::HashMap<UserId, Vec<&str>> = Default::default();
        for r in &log {
            per_user.entry(r.user).or_default().push(&r.query);
        }
        // At least half the users should have at least one exact repeat.
        let with_repeat = per_user
            .values()
            .filter(|qs| {
                let set: HashSet<_> = qs.iter().collect();
                set.len() < qs.len()
            })
            .count();
        assert!(
            with_repeat * 2 >= per_user.len(),
            "{with_repeat}/{}",
            per_user.len()
        );
    }

    #[test]
    fn queries_are_shared_across_users() {
        let log = generate(&SyntheticConfig {
            num_users: 100,
            ..Default::default()
        });
        let mut owners: std::collections::HashMap<&str, HashSet<UserId>> = Default::default();
        for r in &log {
            owners.entry(&r.query).or_default().insert(r.user);
        }
        let shared = owners.values().filter(|s| s.len() >= 2).count();
        assert!(shared > 100, "only {shared} queries shared by ≥2 users");
    }

    #[test]
    fn profiles_use_distinct_topics() {
        let (_, profiles) = generate_with_profiles(&small_config());
        for p in &profiles {
            let set: HashSet<_> = p.topic_indices.iter().collect();
            assert_eq!(set.len(), p.topic_indices.len());
            let total: f64 = p.topic_weights.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn unique_queries_are_unique() {
        let qs = unique_queries(50_000, 7);
        let set: HashSet<_> = qs.iter().collect();
        assert_eq!(set.len(), qs.len());
    }

    #[test]
    fn unique_queries_have_realistic_lengths() {
        let qs = unique_queries(10_000, 9);
        let mean_len: f64 = qs.iter().map(|q| q.len() as f64).sum::<f64>() / qs.len() as f64;
        assert!(
            (10.0..40.0).contains(&mean_len),
            "mean query length {mean_len}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn generate_respects_user_count(users in 1usize..12, seed: u64) {
            let cfg = SyntheticConfig {
                num_users: users,
                seed,
                ..Default::default()
            };
            let log = generate(&cfg);
            let distinct: HashSet<_> = log.iter().map(|r| r.user).collect();
            prop_assert_eq!(distinct.len(), users);
        }
    }
}
