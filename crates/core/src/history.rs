//! The in-enclave table of past queries.
//!
//! The proxy keeps the last `x` queries from *all* users, with no
//! association to who sent them (§4.1: "the X-Search proxy node does not
//! maintain individual profile structures ... it only updates a table
//! containing the last x past queries"). The table lives in EPC-protected
//! memory, so its size is byte-accounted against the enclave's
//! [`EpcGauge`] — that accounting *is* the Fig 6 measurement.
//!
//! # Locking
//!
//! One mutex guards the ring of entries, the next sequence number and
//! the Fig 6 byte count. A request takes it once to draw its `k` fakes
//! and once to push its own query; both hold it for microseconds. A
//! sequence number is claimed under the same lock the entry lands
//! under, so sequence order is landing order, and a reader's position
//! ([`HistoryCursor`]) is one number.
//!
//! # Draw order
//!
//! Draw `r` of `0..len` does not name the `r`-th oldest entry. The
//! window's entries are grouped by `seq mod n`, where `n` is the largest
//! power of two dividing the capacity, at most 8; class 0 comes first,
//! oldest first within each class, and draw `r` is the `r`-th entry in
//! that order. This is the order an earlier lock-striped table (`n`
//! stripes, filled round-robin) drew in. The distribution is the same
//! uniform one either way, but which entry a seeded draw names is not:
//! the reply digests in `perf_ledger/digests.json` and Fig 3's pins were
//! recorded with this order, so it stays until those are re-pinned.
//!
//! Entries are `Arc<str>`: sampling hands out refcount bumps instead of
//! deep string copies, which is what makes Algorithm 1's `k` draws per
//! request cheap.

use rand::Rng;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use xsearch_sgx_sim::cost::CostModel;
use xsearch_sgx_sim::epc::EpcGauge;

/// One stored entry: the query text plus its push sequence number.
type Entry = (u64, Arc<str>);

/// Heap bytes attributed to one stored query: the string bytes plus the
/// per-entry bookkeeping in the ring slot (16-byte `Arc<str>` fat
/// pointer + 8-byte sequence number — the same 24 bytes a `String`
/// header occupies, so Fig 6 is directly comparable across versions).
fn entry_bytes(query: &str) -> usize {
    query.len() + std::mem::size_of::<Entry>()
}

/// The residue classes of the draw order (see the module docs): the
/// largest power of two dividing `capacity`, at most 8.
fn draw_classes(capacity: usize) -> u64 {
    1 << capacity.trailing_zeros().min(3)
}

/// The ring position draw `r` names, for a window of `len` entries whose
/// oldest has sequence number `oldest`: the `r`-th entry when the window
/// is grouped by `seq mod classes`, class 0 first, oldest first within a
/// class. A bijection on `0..len`.
fn draw_position(classes: u64, oldest: u64, len: usize, mut r: usize) -> usize {
    let end = oldest + len as u64;
    for class in 0..classes {
        // The class's oldest sequence number in the window.
        let first = oldest + (class + classes - oldest % classes) % classes;
        let count = end.saturating_sub(first).div_ceil(classes) as usize;
        if r < count {
            return (first - oldest) as usize + r * classes as usize;
        }
        r -= count;
    }
    unreachable!("draw index outside the window")
}

/// Everything behind the table's one lock.
#[derive(Debug, Default)]
struct Ring {
    /// The window, oldest first; sequence numbers are consecutive.
    entries: VecDeque<Entry>,
    /// Sequence number of the next push.
    next_seq: u64,
    /// Bytes attributed to `entries` (see `entry_bytes`).
    bytes: usize,
}

impl Ring {
    /// Sequence number of the oldest entry still in the window.
    fn oldest(&self) -> u64 {
        self.entries.front().map_or(self.next_seq, |(seq, _)| *seq)
    }
}

/// A bounded sliding window of past queries, thread-safe (one mutex) and
/// EPC-accounted.
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
    ring: Mutex<Ring>,
    capacity: usize,
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
        QueryHistory {
            ring: Mutex::new(Ring::default()),
            capacity,
            epc,
            cost: CostModel::default(),
        }
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends a query, evicting the oldest when the window is full
    /// (Algorithm 1 line 9: `H ← Q`).
    pub fn push(&self, query: &str) {
        self.push_arc(Arc::from(query));
    }

    /// Appends an already-shared query without re-allocating its text —
    /// the obfuscation path stores the same `Arc` it sends to the engine.
    pub fn push_arc(&self, query: Arc<str>) {
        let added = entry_bytes(&query);
        let mut ring = self.ring();
        if ring.entries.len() == self.capacity {
            let (_, evicted) = ring.entries.pop_front().expect("capacity > 0");
            let freed = entry_bytes(&evicted);
            self.epc.release(freed);
            ring.bytes -= freed;
        }
        self.epc.charge(added, &self.cost);
        ring.bytes += added;
        let seq = ring.next_seq;
        ring.next_seq += 1;
        ring.entries.push_back((seq, query));
    }

    /// Draw `r` of the window (see the module docs for the order).
    fn draw(&self, ring: &Ring, r: usize) -> Arc<str> {
        let classes = draw_classes(self.capacity);
        let at = draw_position(classes, ring.oldest(), ring.entries.len(), r);
        Arc::clone(&ring.entries[at].1)
    }

    /// Samples one past query uniformly (Algorithm 1 line 7:
    /// `H[random(m)]`), `None` when the table is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Arc<str>> {
        let ring = self.ring();
        let len = ring.entries.len();
        (len > 0).then(|| self.draw(&ring, rng.gen_range(0..len)))
    }

    /// Samples `k` past queries with replacement; empty if the table is.
    /// Each draw bumps a refcount instead of deep-cloning the string; all
    /// `k` draws take the lock once.
    pub fn sample_many<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> Vec<Arc<str>> {
        let ring = self.ring();
        let len = ring.entries.len();
        if len == 0 {
            return Vec::new();
        }
        (0..k)
            .map(|_| self.draw(&ring, rng.gen_range(0..len)))
            .collect()
    }

    /// Number of stored queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring().entries.len()
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
    /// count kept by push/evict, not a scan.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.ring().bytes
    }

    /// The EPC gauge this table charges.
    #[must_use]
    pub fn epc(&self) -> &Arc<EpcGauge> {
        &self.epc
    }

    /// An ordered snapshot (oldest first); only callable from in-enclave
    /// code in the real system.
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
    /// returned, whatever the window size. Entries land in sequence
    /// order, so "since" is "at or above the cursor's sequence number";
    /// entries evicted unread are outside the window and skipped.
    pub fn read_since(&self, cursor: &mut HistoryCursor) -> Vec<Arc<str>> {
        let ring = self.ring();
        let skip = (cursor.next.saturating_sub(ring.oldest()) as usize).min(ring.entries.len());
        cursor.next = ring.next_seq;
        ring.entries
            .range(skip..)
            .map(|(_, q)| Arc::clone(q))
            .collect()
    }
}

/// How far a reader has got through a [`QueryHistory`]: the sequence
/// number of the next entry it has not read (see
/// [`QueryHistory::read_since`]). The default has read nothing.
#[derive(Debug, Default)]
pub struct HistoryCursor {
    next: u64,
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
        // After 16 more pushes the whole window is new; after 17, the
        // ring has also lost an entry nobody read — it is outside the
        // window.
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

    /// Seeded draws name the entries the lock-striped table named: for
    /// each capacity, a window before and after the ring wraps, sixteen
    /// draws by entry number (`q` is the `q`-th push). Recorded from the
    /// striped implementation; the reply digests depend on them.
    #[test]
    fn seeded_draws_keep_the_striped_order() {
        #[rustfmt::skip]
        const RECORDED: [(usize, usize, [usize; 16]); 10] = [
            (1, 1, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
            (1, 3, [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]),
            (3, 2, [0, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 0]),
            (3, 8, [5, 6, 7, 5, 6, 5, 7, 5, 7, 6, 7, 6, 6, 7, 7, 7]),
            (8, 6, [3, 0, 0, 4, 4, 5, 4, 0, 5, 0, 1, 4, 4, 4, 4, 1]),
            (8, 19, [13, 13, 11, 11, 16, 13, 17, 15, 11, 11, 14, 13, 12, 12, 15, 13]),
            (24, 16, [0, 3, 7, 2, 15, 12, 0, 11, 2, 3, 7, 11, 13, 1, 15, 1]),
            (24, 57, [39, 55, 35, 49, 55, 38, 52, 48, 34, 56, 53, 43, 56, 50, 38, 40]),
            (64, 43, [40, 36, 3, 1, 40, 39, 23, 35, 4, 11, 10, 23, 4, 38, 28, 8]),
            (64, 150, [122, 101, 108, 102, 89, 103, 122, 116, 89, 100, 122, 134, 98, 130, 96, 135]),
        ];
        for (cap, pushes, expected) in RECORDED {
            let h = history(cap);
            for i in 0..pushes {
                h.push(&i.to_string());
            }
            let mut rng = StdRng::seed_from_u64(cap as u64 * 1000 + pushes as u64);
            let drawn: Vec<usize> = h
                .sample_many(16, &mut rng)
                .iter()
                .map(|q| q.parse().unwrap())
                .collect();
            assert_eq!(drawn, expected, "capacity {cap} after {pushes} pushes");
        }
    }

    /// Every ring position is named by exactly one draw index, at every
    /// capacity in `1..=64` and every fill level. The map depends on the
    /// oldest sequence number only modulo the class count (at most 8),
    /// so `cap + 8` pushes reach every wrap phase: the check is
    /// exhaustive, not sampled.
    #[test]
    fn draw_positions_are_a_bijection() {
        for cap in 1usize..=64 {
            for pushes in 0..=cap + 8 {
                let oldest = pushes.saturating_sub(cap) as u64;
                let len = pushes.min(cap);
                let mut positions: Vec<usize> = (0..len)
                    .map(|r| draw_position(draw_classes(cap), oldest, len, r))
                    .collect();
                positions.sort_unstable();
                assert!(
                    positions.iter().copied().eq(0..len),
                    "capacity {cap} after {pushes} pushes"
                );
            }
        }
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

        /// The residue-class draw order must sample from the same
        /// distribution a plain `entries[r]` draw does: uniform over the
        /// entries the sliding window currently holds, nothing outside it.
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
            // class bias, loose enough to never flake).
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
