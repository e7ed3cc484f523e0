//! Interned sparse term vectors.
//!
//! User profiles (SimAttack) and TF-IDF document vectors (the search
//! engine) are bags of terms over a shared vocabulary; interning terms to
//! dense `u32` ids keeps those vectors cheap to store inside the simulated
//! enclave and fast to compare.

use std::collections::HashMap;

/// Maps terms to dense ids, shared across a corpus or a profile set.
///
/// # Example
///
/// ```
/// use xsearch_text::vector::TermInterner;
///
/// let mut interner = TermInterner::new();
/// let id = interner.intern("paris");
/// assert_eq!(interner.intern("paris"), id);
/// assert_eq!(interner.term(id), Some("paris"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermInterner {
    ids: HashMap<String, u32>,
    terms: Vec<String>,
}

impl TermInterner {
    /// Creates an empty interner.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the id for `term`, allocating one if needed.
    pub fn intern(&mut self, term: &str) -> u32 {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = u32::try_from(self.terms.len()).expect("vocabulary exceeds u32");
        self.ids.insert(term.to_owned(), id);
        self.terms.push(term.to_owned());
        id
    }

    /// Looks up an existing id without allocating.
    #[must_use]
    pub fn get(&self, term: &str) -> Option<u32> {
        self.ids.get(term).copied()
    }

    /// Reverse lookup.
    #[must_use]
    pub fn term(&self, id: u32) -> Option<&str> {
        self.terms.get(id as usize).map(String::as_str)
    }

    /// Number of distinct interned terms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no term has been interned yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// A sparse vector over interned term ids, kept sorted by id.
///
/// # Example
///
/// ```
/// use xsearch_text::vector::SparseVector;
///
/// let a = SparseVector::from_pairs(vec![(1, 1.0), (2, 1.0)]);
/// let b = SparseVector::from_pairs(vec![(2, 1.0), (3, 1.0)]);
/// assert!((a.cosine(&b) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    /// (term id, weight), strictly increasing by id.
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    /// Creates an empty vector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a vector from arbitrary (id, weight) pairs; duplicate ids are
    /// summed, zero weights dropped.
    #[must_use]
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match entries.last_mut() {
                Some(last) if last.0 == id => last.1 += w,
                _ => entries.push((id, w)),
            }
        }
        entries.retain(|&(_, w)| w != 0.0);
        SparseVector { entries }
    }

    /// Adds `weight` to the entry for `id`.
    pub fn add(&mut self, id: u32, weight: f64) {
        match self.entries.binary_search_by_key(&id, |&(i, _)| i) {
            Ok(pos) => self.entries[pos].1 += weight,
            Err(pos) => self.entries.insert(pos, (id, weight)),
        }
    }

    /// The weight for `id` (0.0 when absent).
    #[must_use]
    pub fn weight(&self, id: u32) -> f64 {
        self.entries
            .binary_search_by_key(&id, |&(i, _)| i)
            .map(|pos| self.entries[pos].1)
            .unwrap_or(0.0)
    }

    /// Whether the vector has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over (id, weight) pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Dot product with another sparse vector (linear merge).
    #[must_use]
    pub fn dot(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut acc = 0.0;
        while i < self.entries.len() && j < other.entries.len() {
            let (ida, wa) = self.entries[i];
            let (idb, wb) = other.entries[j];
            match ida.cmp(&idb) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += wa * wb;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Euclidean norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f64>().sqrt()
    }

    /// Cosine similarity in [0, 1] for non-negative weights; 0.0 when
    /// either vector is empty.
    #[must_use]
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        self.dot(other) / denom
    }

    /// Accumulates `other` into `self` (profile building).
    pub fn merge(&mut self, other: &SparseVector) {
        for (id, w) in other.iter() {
            self.add(id, w);
        }
    }
}

impl FromIterator<(u32, f64)> for SparseVector {
    fn from_iter<T: IntoIterator<Item = (u32, f64)>>(iter: T) -> Self {
        SparseVector::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn interner_is_stable() {
        let mut i = TermInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
        assert_eq!(i.intern("a"), a);
        assert_eq!(i.len(), 2);
        assert_eq!(i.get("c"), None);
    }

    #[test]
    fn from_pairs_sums_duplicates() {
        let v = SparseVector::from_pairs(vec![(3, 1.0), (1, 2.0), (3, 4.0)]);
        assert_eq!(v.weight(3), 5.0);
        assert_eq!(v.weight(1), 2.0);
        assert_eq!(v.iter().count(), 2);
    }

    #[test]
    fn zero_weights_are_dropped() {
        let v = SparseVector::from_pairs(vec![(1, 0.0), (2, 1.0)]);
        assert_eq!(v.iter().collect::<Vec<_>>(), [(2, 1.0)]);
    }

    #[test]
    fn dot_of_disjoint_is_zero() {
        let a = SparseVector::from_pairs(vec![(1, 1.0)]);
        let b = SparseVector::from_pairs(vec![(2, 1.0)]);
        assert_eq!(a.dot(&b), 0.0);
    }

    #[test]
    fn cosine_identical_is_one() {
        let a = SparseVector::from_pairs(vec![(1, 2.0), (5, 3.0)]);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cosine_empty_is_zero() {
        let a = SparseVector::new();
        let b = SparseVector::from_pairs(vec![(1, 1.0)]);
        assert_eq!(a.cosine(&b), 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = SparseVector::from_pairs(vec![(1, 1.0)]);
        a.merge(&SparseVector::from_pairs(vec![(1, 1.0), (2, 3.0)]));
        assert_eq!(a.weight(1), 2.0);
        assert_eq!(a.weight(2), 3.0);
    }

    fn arb_vec() -> impl Strategy<Value = SparseVector> {
        proptest::collection::vec((0u32..64, 0.01f64..10.0), 0..16)
            .prop_map(SparseVector::from_pairs)
    }

    proptest! {
        #[test]
        fn dot_commutes(a in arb_vec(), b in arb_vec()) {
            prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-9);
        }

        #[test]
        fn cosine_bounded(a in arb_vec(), b in arb_vec()) {
            let c = a.cosine(&b);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c), "cosine {c}");
        }

        #[test]
        fn cauchy_schwarz(a in arb_vec(), b in arb_vec()) {
            prop_assert!(a.dot(&b) <= a.norm() * b.norm() + 1e-9);
        }

        #[test]
        fn entries_remain_sorted_after_add(a in arb_vec(), id: u32, w in 0.1f64..5.0) {
            let mut v = a;
            v.add(id, w);
            let ids: Vec<u32> = v.iter().map(|(i, _)| i).collect();
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(ids, sorted);
        }
    }
}
