//! The paper's §5.1 evaluation methodology: select the most active users
//! and split each user's queries into training (adversary knowledge) and
//! testing (protected traffic) sets.

use crate::record::{QueryRecord, UserId};
use std::collections::HashMap;

/// A train/test partition of a query log.
#[derive(Debug, Clone, Default)]
pub struct TrainTestSplit {
    /// Adversary's preliminary knowledge: the first `train_fraction` of
    /// each selected user's queries, in time order.
    pub train: Vec<QueryRecord>,
    /// Queries to protect and attack, in time order.
    pub test: Vec<QueryRecord>,
}

/// Returns the `n` most active users, most active first (ties broken by
/// user id for determinism).
///
/// # Example
///
/// ```
/// use xsearch_query_log::record::{QueryRecord, UserId};
/// use xsearch_query_log::split::top_active_users;
///
/// let log = vec![
///     QueryRecord::new(UserId(1), "a", 0),
///     QueryRecord::new(UserId(2), "b", 1),
///     QueryRecord::new(UserId(2), "c", 2),
/// ];
/// assert_eq!(top_active_users(&log, 1), vec![UserId(2)]);
/// ```
#[must_use]
pub fn top_active_users(log: &[QueryRecord], n: usize) -> Vec<UserId> {
    let mut counts: HashMap<UserId, usize> = HashMap::new();
    for r in log {
        *counts.entry(r.user).or_insert(0) += 1;
    }
    let mut users: Vec<(UserId, usize)> = counts.into_iter().collect();
    users.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    users.into_iter().take(n).map(|(u, _)| u).collect()
}

/// Splits the queries of `users` into train/test by time: the first
/// `train_fraction` of each user's queries (the paper uses ⅔) become
/// training data, the rest testing data.
///
/// Users not listed are dropped entirely, mirroring the paper's focus on
/// the 100 most active users.
///
/// # Panics
///
/// Panics if `train_fraction` is outside (0, 1).
#[must_use]
pub fn train_test_split(
    log: &[QueryRecord],
    users: &[UserId],
    train_fraction: f64,
) -> TrainTestSplit {
    assert!(
        train_fraction > 0.0 && train_fraction < 1.0,
        "train_fraction must be in (0,1), got {train_fraction}"
    );
    let selected: std::collections::HashSet<UserId> = users.iter().copied().collect();
    let mut per_user: HashMap<UserId, Vec<QueryRecord>> = HashMap::new();
    for r in log {
        if selected.contains(&r.user) {
            per_user.entry(r.user).or_default().push(r.clone());
        }
    }
    let mut split = TrainTestSplit::default();
    for (_, mut records) in per_user {
        records.sort_by_key(|r| r.time);
        let cut = ((records.len() as f64) * train_fraction).floor() as usize;
        let cut = cut.clamp(1, records.len().saturating_sub(1).max(1));
        for (i, r) in records.into_iter().enumerate() {
            if i < cut {
                split.train.push(r);
            } else {
                split.test.push(r);
            }
        }
    }
    split.train.sort_by_key(|r| (r.time, r.user));
    split.test.sort_by_key(|r| (r.time, r.user));
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{generate, SyntheticConfig};

    fn sample_log() -> Vec<QueryRecord> {
        generate(&SyntheticConfig {
            num_users: 15,
            ..Default::default()
        })
    }

    #[test]
    fn top_users_ordered_by_activity() {
        let log = sample_log();
        let top = top_active_users(&log, 10);
        assert_eq!(top.len(), 10);
        let count = |u: UserId| log.iter().filter(|r| r.user == u).count();
        for pair in top.windows(2) {
            assert!(count(pair[0]) >= count(pair[1]));
        }
    }

    #[test]
    fn top_users_handles_n_larger_than_population() {
        let log = vec![QueryRecord::new(UserId(1), "q", 0)];
        assert_eq!(top_active_users(&log, 100).len(), 1);
    }

    #[test]
    fn split_keeps_only_selected_users() {
        let log = sample_log();
        let top = top_active_users(&log, 5);
        let split = train_test_split(&log, &top, 2.0 / 3.0);
        let sel: std::collections::HashSet<_> = top.iter().copied().collect();
        assert!(split.train.iter().all(|r| sel.contains(&r.user)));
        assert!(split.test.iter().all(|r| sel.contains(&r.user)));
    }

    #[test]
    fn split_ratio_is_two_thirds_per_user() {
        let log = sample_log();
        let top = top_active_users(&log, 8);
        let split = train_test_split(&log, &top, 2.0 / 3.0);
        for &u in &top {
            let tr = split.train.iter().filter(|r| r.user == u).count() as f64;
            let te = split.test.iter().filter(|r| r.user == u).count() as f64;
            let frac = tr / (tr + te);
            assert!((frac - 2.0 / 3.0).abs() < 0.08, "user {u}: {frac}");
        }
    }

    #[test]
    fn split_respects_time_order() {
        let log = sample_log();
        let top = top_active_users(&log, 5);
        let split = train_test_split(&log, &top, 0.5);
        for &u in &top {
            let max_train = split
                .train
                .iter()
                .filter(|r| r.user == u)
                .map(|r| r.time)
                .max()
                .unwrap();
            let min_test = split
                .test
                .iter()
                .filter(|r| r.user == u)
                .map(|r| r.time)
                .min()
                .unwrap();
            assert!(max_train <= min_test, "user {u}: train leaks past test");
        }
    }

    #[test]
    fn every_selected_user_has_test_queries() {
        let log = sample_log();
        let top = top_active_users(&log, 10);
        let split = train_test_split(&log, &top, 2.0 / 3.0);
        for &u in &top {
            assert!(
                split.test.iter().any(|r| r.user == u),
                "user {u} lost all test queries"
            );
        }
    }

    #[test]
    #[should_panic(expected = "train_fraction")]
    fn invalid_fraction_panics() {
        let _ = train_test_split(&[], &[], 1.5);
    }
}
