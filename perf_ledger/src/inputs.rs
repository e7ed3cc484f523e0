//! Seed → inputs. The product only ever sees the generated strings: a
//! warm set that fills the proxies' history windows and a fixed stream
//! of request queries that every phase cycles through.

use xsearch_query_log::split::{top_active_users, train_test_split};
use xsearch_query_log::synthetic::{generate, SyntheticConfig};

/// Users in the synthetic log. Sixty gives ≈4 000 distinct-ish warm
/// queries and a few thousand test queries in well under 100 ms.
const USERS: usize = 60;
/// Request queries sampled from the test split and cycled.
pub const STREAM_LEN: usize = 2_000;

#[derive(Debug, Clone)]
pub struct Inputs {
    /// History warm-up queries (the train split, in time order).
    pub warm: Vec<String>,
    /// The request stream (a seeded sample of the test split).
    pub stream: Vec<String>,
}

/// SplitMix64: the benchmark's own generator for sampling and pacing
/// decisions, so the vendored `rand` subset can be trimmed freely.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// the sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

impl Inputs {
    /// The same seed gives the same inputs, byte for byte.
    pub fn generate(seed: u64) -> Inputs {
        let log = generate(&SyntheticConfig {
            num_users: USERS,
            seed,
            ..Default::default()
        });
        let users = top_active_users(&log, USERS);
        let split = train_test_split(&log, &users, 2.0 / 3.0);
        // The split groups by user through a `HashMap`, whose order
        // differs between runs; sorting restores a canonical order.
        let canonical = |records: Vec<xsearch_query_log::QueryRecord>| {
            let mut keyed: Vec<(u64, u32, String)> = records
                .into_iter()
                .map(|r| (r.time, r.user.0, r.query))
                .collect();
            keyed.sort();
            keyed.into_iter().map(|(_, _, q)| q).collect::<Vec<_>>()
        };
        let warm = canonical(split.train);
        let mut test = canonical(split.test);
        assert!(
            !warm.is_empty() && !test.is_empty(),
            "synthetic log produced an empty split"
        );
        // Seeded partial Fisher–Yates, then cycle if the split is short.
        let mut rng = SplitMix64(seed ^ 0x5EED_1ED6_E400_0001);
        let take = test.len().min(STREAM_LEN);
        for i in 0..take {
            let j = i + rng.below(test.len() - i);
            test.swap(i, j);
        }
        test.truncate(take);
        let stream = (0..STREAM_LEN)
            .map(|i| test[i % test.len()].clone())
            .collect();
        Inputs { warm, stream }
    }

    /// The `i`-th request of the endless cycled stream.
    pub fn query(&self, i: u64) -> &str {
        &self.stream[(i % self.stream.len() as u64) as usize]
    }

    /// `n` warm-up queries, cycling the warm set.
    pub fn warm_cycle(&self, n: usize) -> impl Iterator<Item = &str> {
        self.warm.iter().map(String::as_str).cycle().take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = Inputs::generate(11);
        let b = Inputs::generate(11);
        let c = Inputs::generate(12);
        assert_eq!(a.warm, b.warm);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.stream, c.stream);
        assert_eq!(a.stream.len(), STREAM_LEN);
        assert!(a.stream.iter().all(|q| !q.is_empty()));
        assert_eq!(a.query(STREAM_LEN as u64 + 3), a.query(3));
        assert_eq!(a.warm_cycle(a.warm.len() + 2).count(), a.warm.len() + 2);
    }

    #[test]
    fn splitmix_is_uniform_enough_and_in_range() {
        let mut rng = SplitMix64(1);
        let mut buckets = [0u32; 8];
        for _ in 0..8_000 {
            buckets[rng.below(8)] += 1;
        }
        assert!(
            buckets.iter().all(|&b| (800..1200).contains(&b)),
            "{buckets:?}"
        );
    }
}
