//! Precision and recall over result sets — the accuracy metrics of the
//! paper's §5.4.2 (Fig 4).
//!
//! `precision = |R_or ∩ R_xs| / |R_xs|` and `recall = |R_or ∩ R_xs| / |R_or|`,
//! where `R_or` is the result set for the original query and `R_xs` the set
//! X-Search returned after obfuscation and filtering.

use std::collections::HashSet;
use std::hash::Hash;

/// A precision/recall measurement, possibly averaged over many queries.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PrecisionRecall {
    /// Correctness: fraction of returned results that are relevant.
    pub precision: f64,
    /// Completeness: fraction of relevant results that were returned.
    pub recall: f64,
}

impl PrecisionRecall {
    /// Computes precision/recall of `returned` against `reference`.
    ///
    /// Edge cases follow the usual conventions: an empty `returned` set has
    /// precision 1.0 (nothing wrong was returned) and an empty `reference`
    /// set has recall 1.0 (nothing was missed).
    ///
    /// # Example
    ///
    /// ```
    /// use xsearch_bench::accuracy::PrecisionRecall;
    ///
    /// let pr = PrecisionRecall::of(&["a", "b", "c"], &["b", "c", "d"]);
    /// assert!((pr.precision - 2.0 / 3.0).abs() < 1e-12);
    /// assert!((pr.recall - 2.0 / 3.0).abs() < 1e-12);
    /// ```
    #[must_use]
    pub fn of<T: Eq + Hash>(reference: &[T], returned: &[T]) -> Self {
        let ref_set: HashSet<&T> = reference.iter().collect();
        let ret_set: HashSet<&T> = returned.iter().collect();
        let inter = ref_set.intersection(&ret_set).count() as f64;
        let precision = if ret_set.is_empty() {
            1.0
        } else {
            inter / ret_set.len() as f64
        };
        let recall = if ref_set.is_empty() {
            1.0
        } else {
            inter / ref_set.len() as f64
        };
        PrecisionRecall { precision, recall }
    }

    /// Averages a collection of measurements (macro-average over queries,
    /// as the paper reports).
    #[must_use]
    pub fn mean<I: IntoIterator<Item = PrecisionRecall>>(items: I) -> Self {
        let mut n = 0usize;
        let mut acc = PrecisionRecall::default();
        for pr in items {
            acc.precision += pr.precision;
            acc.recall += pr.recall;
            n += 1;
        }
        if n > 0 {
            acc.precision /= n as f64;
            acc.recall /= n as f64;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_sets_are_perfect() {
        let pr = PrecisionRecall::of(&[1, 2, 3], &[3, 2, 1]);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
    }

    #[test]
    fn disjoint_sets_are_zero() {
        let pr = PrecisionRecall::of(&[1, 2], &[3, 4]);
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.recall, 0.0);
    }

    #[test]
    fn empty_returned_has_full_precision() {
        let pr = PrecisionRecall::of(&[1, 2], &[]);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.0);
    }

    #[test]
    fn empty_reference_has_full_recall() {
        let pr = PrecisionRecall::of::<i32>(&[], &[1]);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(pr.precision, 0.0);
    }

    #[test]
    fn subset_returned_has_full_precision() {
        let pr = PrecisionRecall::of(&[1, 2, 3, 4], &[1, 2]);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.5);
    }

    #[test]
    fn duplicates_count_once() {
        let pr = PrecisionRecall::of(&[1, 1, 2], &[1, 1, 1]);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 0.5);
    }

    #[test]
    fn mean_averages_componentwise() {
        let a = PrecisionRecall {
            precision: 1.0,
            recall: 0.0,
        };
        let b = PrecisionRecall {
            precision: 0.0,
            recall: 1.0,
        };
        let m = PrecisionRecall::mean([a, b]);
        assert_eq!(m.precision, 0.5);
        assert_eq!(m.recall, 0.5);
    }

    #[test]
    fn mean_of_empty_is_default() {
        assert_eq!(PrecisionRecall::mean([]), PrecisionRecall::default());
    }

    proptest! {
        #[test]
        fn components_in_unit_interval(reference: Vec<u8>, returned: Vec<u8>) {
            let pr = PrecisionRecall::of(&reference, &returned);
            prop_assert!((0.0..=1.0).contains(&pr.precision));
            prop_assert!((0.0..=1.0).contains(&pr.recall));
        }

        #[test]
        fn swapping_sets_swaps_components(reference: Vec<u8>, returned: Vec<u8>) {
            let ab = PrecisionRecall::of(&reference, &returned);
            let ba = PrecisionRecall::of(&returned, &reference);
            // Only when neither set is empty is the duality exact.
            prop_assume!(!reference.is_empty() && !returned.is_empty());
            prop_assert!((ab.precision - ba.recall).abs() < 1e-12);
            prop_assert!((ab.recall - ba.precision).abs() < 1e-12);
        }
    }
}
