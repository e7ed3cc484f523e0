//! The in-enclave table of past queries.
//!
//! The proxy keeps the last `x` queries from *all* users, with no
//! association to who sent them (§4.1: "the X-Search proxy node does not
//! maintain individual profile structures ... it only updates a table
//! containing the last x past queries"). The table lives in EPC-protected
//! memory, so its size is byte-accounted against the enclave's
//! [`EpcGauge`] — that accounting *is* the Fig 6 measurement.
//!
//! # Lock striping
//!
//! The paper's proxy "uses multiple threads" over this shared table, so
//! the table must not serialize them. Entries are spread over
//! [`MAX_STRIPES`] independent stripes, each its own mutex-protected
//! ring: a push routes to stripe `seq % stripes` via an atomic sequence
//! counter (so stripes fill at equal rates and eviction stays globally
//! FIFO up to stripe interleaving), and a sample locks exactly one
//! stripe. Aggregates that used to require a global lock — length and
//! the Fig 6 byte count — are maintained as running atomic counters, so
//! reading them is O(1) and lock-free.
//!
//! Entries are `Arc<str>`: sampling hands out refcount bumps instead of
//! deep string copies, which is what makes Algorithm 1's `k` draws per
//! request cheap.

use rand::Rng;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use xsearch_sgx_sim::cost::CostModel;
use xsearch_sgx_sim::epc::EpcGauge;

/// Upper bound on the number of stripes; the actual count is the largest
/// **power-of-two divisor** of the capacity, capped at this, so routing
/// is a mask and the striped union is exactly the paper's last-x window
/// (see [`QueryHistory::new`]). Odd capacities get a single stripe.
pub const MAX_STRIPES: usize = 8;

/// One stored entry: the query text plus the global push sequence number
/// that lets [`QueryHistory::snapshot`] reconstruct chronological order
/// across stripes.
type Entry = (u64, Arc<str>);

/// Heap bytes attributed to one stored query: the string bytes plus the
/// per-entry bookkeeping in the stripe slot (16-byte `Arc<str>` fat
/// pointer + 8-byte sequence tag — the same 24 bytes the pre-striping
/// `String` header occupied, so Fig 6 is directly comparable across
/// versions).
fn entry_bytes(query: &str) -> usize {
    query.len() + std::mem::size_of::<Entry>()
}

/// One lock stripe: a bounded FIFO ring plus a mirror of its length that
/// samplers can read without taking the lock.
#[derive(Debug)]
struct Stripe {
    entries: Mutex<VecDeque<Entry>>,
    len: AtomicUsize,
    capacity: usize,
}

/// A bounded sliding window of past queries, thread-safe (lock-striped)
/// and EPC-accounted.
///
/// # Example
///
/// ```
/// use xsearch_core::history::QueryHistory;
/// use xsearch_sgx_sim::epc::EpcGauge;
/// use rand::SeedableRng;
///
/// let history = QueryHistory::new(3, EpcGauge::new());
/// for q in ["a", "b", "c", "d"] {
///     history.push(q);
/// }
/// assert_eq!(history.len(), 3); // "a" was evicted
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert!(history.sample(&mut rng).is_some());
/// ```
#[derive(Debug)]
pub struct QueryHistory {
    stripes: Vec<Stripe>,
    capacity: usize,
    /// Global push counter: routes pushes round-robin across stripes and
    /// tags entries for chronological snapshots.
    push_seq: AtomicU64,
    /// Running byte counter (lock-free O(1)
    /// [`QueryHistory::memory_bytes`], replacing the old O(n) scan).
    total_bytes: AtomicUsize,
    epc: Arc<EpcGauge>,
    cost: CostModel,
}

impl QueryHistory {
    /// Creates an empty history with window size `capacity`, charging its
    /// memory to `epc`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, epc: Arc<EpcGauge>) -> Self {
        assert!(capacity > 0, "history window must be positive");
        // The stripe count must divide the capacity: with equal stripe
        // capacities and round-robin routing, the union of the stripes
        // is provably *exactly* the last-`capacity` pushes (each stripe
        // holds the newest `capacity / n` of its residue class), so
        // striping does not change the paper's window semantics. It is
        // also kept a power of two so routing is a mask, not a division.
        // Odd capacities fall back to fewer stripes — realistic window
        // sizes are round (even) numbers and get the full fan-out.
        let stripe_count = 1usize << capacity.trailing_zeros().min(MAX_STRIPES.trailing_zeros());
        let stripes = (0..stripe_count)
            .map(|_| Stripe {
                entries: Mutex::new(VecDeque::new()),
                len: AtomicUsize::new(0),
                capacity: capacity / stripe_count,
            })
            .collect();
        QueryHistory {
            stripes,
            capacity,
            push_seq: AtomicU64::new(0),
            total_bytes: AtomicUsize::new(0),
            epc,
            cost: CostModel::default(),
        }
    }

    /// Appends a query, evicting the oldest in its stripe when the window
    /// is full (Algorithm 1 line 9: `H ← Q`).
    pub fn push(&self, query: &str) {
        self.push_arc(Arc::from(query));
    }

    /// Appends an already-shared query without re-allocating its text —
    /// the obfuscation path stores the same `Arc` it sends to the engine.
    pub fn push_arc(&self, query: Arc<str>) {
        let seq = self.push_seq.fetch_add(1, Ordering::Relaxed);
        // Power-of-two stripe count: routing is a mask, not a division.
        let stripe = &self.stripes[(seq as usize) & (self.stripes.len() - 1)];
        let added = entry_bytes(&query);
        let mut entries = stripe
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if entries.len() == stripe.capacity {
            // Steady state: pop + push under one lock leaves the length
            // unchanged, so only the byte delta needs publishing.
            let (_, evicted) = entries.pop_front().expect("capacity > 0");
            let freed = entry_bytes(&evicted);
            self.epc.release(freed);
            self.epc.charge(added, &self.cost);
            if added >= freed {
                self.total_bytes.fetch_add(added - freed, Ordering::Relaxed);
            } else {
                self.total_bytes.fetch_sub(freed - added, Ordering::Relaxed);
            }
        } else {
            self.epc.charge(added, &self.cost);
            self.total_bytes.fetch_add(added, Ordering::Relaxed);
            stripe.len.fetch_add(1, Ordering::Release);
        }
        entries.push_back((seq, query));
    }

    /// Fetches the entry at global index `r` (stripe-major order),
    /// clamping against concurrent eviction so a raced draw still
    /// returns *some* stored query rather than failing.
    fn entry_at(&self, mut r: usize) -> Option<Arc<str>> {
        for stripe in &self.stripes {
            let len = stripe.len.load(Ordering::Acquire);
            if r >= len {
                r -= len;
                continue;
            }
            let entries = stripe
                .entries
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if let Some((_, q)) = entries.get(r.min(entries.len().wrapping_sub(1))) {
                return Some(Arc::clone(q));
            }
            break;
        }
        // Raced with eviction past the end of the walk: take the newest
        // entry of any non-empty stripe (sampling stays uniform in the
        // quiescent case; this branch is unreachable single-threaded).
        self.stripes.iter().find_map(|s| {
            s.entries
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .back()
                .map(|(_, q)| Arc::clone(q))
        })
    }

    /// Samples one past query uniformly (Algorithm 1 line 7:
    /// `H[random(m)]`), `None` when the table is empty. Locks exactly one
    /// stripe.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Arc<str>> {
        let len = self.len();
        if len == 0 {
            return None;
        }
        self.entry_at(rng.gen_range(0..len))
    }

    /// Samples `k` past queries with replacement; empty if the table is.
    /// Each draw bumps a refcount instead of deep-cloning the string, and
    /// locks only the one stripe it lands on.
    pub fn sample_many<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<Arc<str>> {
        let len = self.len();
        if len == 0 {
            return Vec::new();
        }
        (0..k)
            .filter_map(|_| self.entry_at(rng.gen_range(0..len)))
            .collect()
    }

    /// Number of stored queries (lock-free: sums the per-stripe length
    /// mirrors, at most [`MAX_STRIPES`] plain loads).
    #[must_use]
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.len.load(Ordering::Acquire))
            .sum()
    }

    /// Whether the table is empty (cold start).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured window size.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently attributed to this table (string bytes plus
    /// per-entry bookkeeping), i.e. the Fig 6 y-axis. O(1): a running
    /// counter maintained by push/evict, not a scan.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// The EPC gauge this table charges.
    #[must_use]
    pub fn epc(&self) -> &Arc<EpcGauge> {
        &self.epc
    }

    /// An ordered snapshot (oldest first); only callable from in-enclave
    /// code in the real system. Cold path: locks every stripe and merges
    /// the whole window by push sequence number.
    #[must_use]
    pub fn snapshot(&self) -> Vec<String> {
        self.snapshot_arcs()
            .into_iter()
            .map(|q| String::from(&*q))
            .collect()
    }

    /// The zero-copy spine of [`QueryHistory::snapshot`]: the ordered
    /// window as shared `Arc<str>` handles — refcount bumps, no text
    /// copies. It is [`QueryHistory::read_since`] from a cursor that has
    /// read nothing.
    #[must_use]
    pub fn snapshot_arcs(&self) -> Vec<Arc<str>> {
        self.read_since(&mut HistoryCursor::default())
    }

    /// The delta read behind sealed persistence: every entry that landed
    /// since `cursor` last read this table and is still in the window,
    /// oldest first, and advances `cursor` past them. Costs the entries
    /// returned plus one lock per stripe, whatever the window size.
    ///
    /// The cursor is a *position* in each stripe (the sequence tag of
    /// the newest entry it has seen there), not one global sequence
    /// number. [`QueryHistory::push_arc`] claims its number before it
    /// takes the stripe lock, so entries land out of sequence order
    /// across stripes and within one; "everything at or above sequence
    /// *n*" can skip a push that had claimed a number but not landed,
    /// and a walk that stops at the first tag below *n* can stop short
    /// of a higher tag that landed before it. A stripe is a FIFO in
    /// landing order, so "everything behind the mark" is exactly what
    /// landed since — an entry is returned by the first read after it
    /// lands, once, under any interleaving. A mark that has been evicted
    /// means the whole stripe is new.
    pub fn read_since(&self, cursor: &mut HistoryCursor) -> Vec<Arc<str>> {
        cursor.marks.resize(self.stripes.len(), None);
        let mut tagged: Vec<Entry> = Vec::new();
        for (stripe, mark) in self.stripes.iter().zip(&mut cursor.marks) {
            let entries = stripe
                .entries
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let fresh = match *mark {
                Some(seen) => entries
                    .iter()
                    .rev()
                    .take_while(|(seq, _)| *seq != seen)
                    .count(),
                None => entries.len(),
            };
            tagged.extend(entries.range(entries.len() - fresh..).cloned());
            if let Some((seq, _)) = entries.back() {
                *mark = Some(*seq);
            }
        }
        tagged.sort_unstable_by_key(|(seq, _)| *seq);
        tagged.into_iter().map(|(_, q)| q).collect()
    }
}

/// How far a reader has got through a [`QueryHistory`]: per stripe, the
/// sequence tag of the newest entry already read (see
/// [`QueryHistory::read_since`]). The default has read nothing.
#[derive(Debug, Default)]
pub struct HistoryCursor {
    marks: Vec<Option<u64>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn history(cap: usize) -> QueryHistory {
        QueryHistory::new(cap, EpcGauge::with_limit(1 << 30))
    }

    #[test]
    fn window_never_exceeds_capacity() {
        let h = history(5);
        for i in 0..20 {
            h.push(&format!("query {i}"));
            assert!(h.len() <= 5);
        }
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn eviction_is_fifo() {
        let h = history(2);
        h.push("first");
        h.push("second");
        h.push("third");
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let s = h.sample(&mut rng).unwrap();
            assert_ne!(&*s, "first", "oldest entry must be gone");
        }
    }

    #[test]
    fn sample_from_empty_is_none() {
        let h = history(3);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(h.sample(&mut rng), None);
        assert!(h.sample_many(3, &mut rng).is_empty());
    }

    #[test]
    fn sample_many_draws_with_replacement() {
        let h = history(10);
        h.push("only");
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(
            h.sample_many(4, &mut rng),
            vec![Arc::<str>::from("only"); 4]
        );
    }

    #[test]
    fn sampling_shares_the_stored_allocation() {
        let h = history(10);
        h.push("shared text");
        let mut rng = StdRng::seed_from_u64(1);
        let a = h.sample(&mut rng).unwrap();
        let b = h.sample(&mut rng).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "samples must be refcount bumps, not copies"
        );
    }

    #[test]
    fn epc_accounting_tracks_usage() {
        let gauge = EpcGauge::with_limit(1 << 30);
        let h = QueryHistory::new(100, gauge.clone());
        assert_eq!(gauge.used(), 0);
        h.push("hello world");
        let one = gauge.used();
        // 11 string bytes + 24 bytes of slot bookkeeping (fat pointer +
        // sequence tag) — identical to the pre-striping String header.
        assert_eq!(one, 11 + std::mem::size_of::<String>());
        h.push("second query");
        assert!(gauge.used() > one);
    }

    #[test]
    fn eviction_releases_epc() {
        let gauge = EpcGauge::with_limit(1 << 30);
        let h = QueryHistory::new(1, gauge.clone());
        h.push("aaaa");
        let after_first = gauge.used();
        h.push("bbbb"); // evicts "aaaa" of equal size
        assert_eq!(gauge.used(), after_first);
    }

    #[test]
    fn memory_bytes_matches_gauge() {
        let gauge = EpcGauge::with_limit(1 << 30);
        let h = QueryHistory::new(50, gauge.clone());
        for i in 0..30 {
            h.push(&format!("query number {i}"));
        }
        assert_eq!(h.memory_bytes(), gauge.used());
    }

    #[test]
    fn snapshot_is_chronological_across_stripes() {
        let h = history(100);
        let queries: Vec<String> = (0..25).map(|i| format!("q{i}")).collect();
        for q in &queries {
            h.push(q);
        }
        assert_eq!(h.snapshot(), queries);
    }

    #[test]
    fn snapshot_after_eviction_keeps_newest_in_order() {
        let h = history(4);
        for i in 0..10 {
            h.push(&format!("q{i}"));
        }
        assert_eq!(h.snapshot(), vec!["q6", "q7", "q8", "q9"]);
    }

    fn texts(entries: Vec<Arc<str>>) -> Vec<String> {
        entries.iter().map(|q| String::from(&**q)).collect()
    }

    #[test]
    fn read_since_returns_each_entry_once_oldest_first() {
        let h = history(16);
        let mut cursor = HistoryCursor::default();
        assert!(h.read_since(&mut cursor).is_empty());
        for i in 0..5 {
            h.push(&format!("q{i}"));
        }
        assert_eq!(
            texts(h.read_since(&mut cursor)),
            ["q0", "q1", "q2", "q3", "q4"]
        );
        assert!(h.read_since(&mut cursor).is_empty());
        for i in 5..12 {
            h.push(&format!("q{i}"));
        }
        assert_eq!(
            texts(h.read_since(&mut cursor)),
            ["q5", "q6", "q7", "q8", "q9", "q10", "q11"]
        );
    }

    #[test]
    fn read_since_past_an_evicted_mark_returns_what_is_left() {
        // 8 stripes of 2. After 16 more pushes per stripe position the
        // marks are gone and the whole window is new; after 17, stripe 0
        // has also lost an entry nobody read — it is outside the window.
        let h = history(16);
        let mut cursor = HistoryCursor::default();
        for i in 0..16 {
            h.push(&format!("q{i}"));
        }
        assert_eq!(h.read_since(&mut cursor).len(), 16);
        for i in 16..33 {
            h.push(&format!("q{i}"));
        }
        let expected: Vec<String> = (17..33).map(|i| format!("q{i}")).collect();
        assert_eq!(texts(h.read_since(&mut cursor)), expected);
        assert_eq!(h.snapshot(), expected);
    }

    #[test]
    fn read_since_keeps_a_late_lander_behind_a_higher_tag() {
        // Two pushers of one stripe landing against their claim order —
        // built by hand, since `push_arc` claims and lands in one call.
        // A reader that had already seen tag 16 must still get tag 8.
        let h = history(24);
        let q = |s: &str| Arc::<str>::from(s);
        h.stripes[0]
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back((16, q("claimed second")));
        let mut cursor = HistoryCursor::default();
        assert_eq!(texts(h.read_since(&mut cursor)), ["claimed second"]);
        h.stripes[0]
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back((8, q("claimed first")));
        assert_eq!(texts(h.read_since(&mut cursor)), ["claimed first"]);
        assert!(h.read_since(&mut cursor).is_empty());
    }

    #[test]
    #[should_panic(expected = "history window must be positive")]
    fn zero_capacity_panics() {
        let _ = history(0);
    }

    #[test]
    fn concurrent_pushes_are_safe() {
        let h = Arc::new(history(1000));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..250 {
                        h.push(&format!("t{t} q{i}"));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.len(), 1000);
    }

    #[test]
    fn concurrent_push_and_sample_never_drifts() {
        let h = Arc::new(history(64));
        for i in 0..64 {
            h.push(&format!("warm {i}"));
        }
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    for i in 0..500 {
                        if i % 3 == 0 {
                            h.push(&format!("t{t} q{i}"));
                        } else {
                            assert!(h.sample(&mut rng).is_some());
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.len(), 64);
        assert_eq!(h.memory_bytes(), h.epc().used());
    }

    proptest! {
        #[test]
        fn accounting_never_drifts(queries in proptest::collection::vec("[a-z ]{1,30}", 1..60), cap in 1usize..20) {
            let gauge = EpcGauge::with_limit(1 << 30);
            let h = QueryHistory::new(cap, gauge.clone());
            for q in &queries {
                h.push(q);
            }
            prop_assert_eq!(h.memory_bytes(), gauge.used());
            prop_assert!(h.len() <= cap);
        }

        /// The striped table must sample from the same distribution the
        /// old single-lock table did: uniform over the entries the
        /// sliding window currently holds, nothing outside it.
        #[test]
        fn striped_sampling_matches_single_lock_distribution(
            n_entries in 1usize..40,
            cap in 1usize..40,
            seed: u64
        ) {
            let h = history(cap);
            // Reference model: the old implementation's single VecDeque.
            let mut reference: VecDeque<String> = VecDeque::new();
            for i in 0..n_entries {
                let q = format!("entry {i}");
                h.push(&q);
                if reference.len() == cap {
                    reference.pop_front();
                }
                reference.push_back(q);
            }
            let window: Vec<&String> = reference.iter().collect();
            prop_assert_eq!(h.len(), window.len());

            let draws = 200 * window.len();
            let expected = draws / window.len();
            let mut counts = std::collections::HashMap::new();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..draws {
                let s = h.sample(&mut rng).unwrap();
                *counts.entry(String::from(&*s)).or_insert(0usize) += 1;
            }
            // Every draw must come from the live window...
            for q in counts.keys() {
                prop_assert!(reference.contains(q), "sampled evicted entry {q:?}");
            }
            // ...and cover it uniformly (±60% of the expected count is
            // ≈6σ at 200 draws per entry — tight enough to catch any
            // stripe bias, loose enough to never flake).
            for w in &window {
                let c = counts.get(*w).copied().unwrap_or(0);
                let lo = expected * 2 / 5;
                let hi = expected * 8 / 5;
                prop_assert!(
                    (lo..=hi).contains(&c),
                    "entry {w:?} drawn {c} times, expected ≈{expected}"
                );
            }
        }
    }
}
