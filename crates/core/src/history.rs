//! The in-enclave table of past queries.
//!
//! The proxy keeps the last `x` queries from *all* users, with no
//! association to who sent them (§4.1: "the X-Search proxy node does not
//! maintain individual profile structures ... it only updates a table
//! containing the last x past queries"). The table lives in EPC-protected
//! memory, so its size is byte-accounted against the enclave's
//! [`EpcGauge`] — that accounting *is* the Fig 6 measurement.
//!
//! # Layout
//!
//! Query text lives in pages of [`PAGE_SIZE`] bytes, oldest first, and
//! each entry has one `u64` slot: its page number × [`PAGE_SIZE`] plus
//! its offset in that page. An entry ends where the next slot in the
//! same page starts, or else at the page's fill, so the table stores no
//! lengths and no per-entry headers. An entry never straddles two pages;
//! one longer than a page gets a page of its own size. Offsets stay
//! below [`PAGE_SIZE`] (an empty entry that meets a full page takes a
//! new one), so a slot never names the next page by accident.
//!
//! A push copies the text into the newest page and appends a slot; it
//! allocates only when it takes a page. Evicting the oldest entry drops
//! its slot without reading its text, and frees its page once no live
//! entry lies in it. The table is charged what it holds: every page's
//! capacity from the moment it is taken until it is freed, plus
//! `SLOT_BYTES` per live entry.
//!
//! Slot bytes are not charged push by push. They add up under the lock
//! and reach the gauge in one charge: together with the next page taken,
//! before an eviction releases a page, or when the lock drops. Every
//! charge so held back falls inside a run of charges with no release
//! between them, and the gauge's usage, peak and paged-page count only
//! depend on where such a run starts and ends, so they read exactly what
//! a charge per push leaves; a whole warm-up batch or restored segment
//! costs one gauge update per page instead of one per entry.
//!
//! # Locking
//!
//! One mutex guards the pages, the slots, the next sequence number and
//! the Fig 6 byte count. Algorithm 1 takes it once per request to draw
//! its `k` fakes, copy them out and push its own query; a sealer takes
//! it once to append what landed since its last read. Sequence numbers
//! are implicit — the oldest entry's is the next push's minus the
//! window length — so sequence order is landing order, and a reader's
//! position ([`HistoryCursor`]) is one number.
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

use crate::wire::encode_query_batch_into;
use rand::Rng;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use xsearch_sgx_sim::epc::{EpcGauge, PAGE_SIZE};

/// Bytes charged per stored entry besides its text: its slot word.
const SLOT_BYTES: usize = std::mem::size_of::<u64>();

/// [`PAGE_SIZE`] in slot arithmetic.
const PAGE: u64 = PAGE_SIZE as u64;

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
struct Window {
    /// Text pages, oldest first: `pages[i]` is page number
    /// `first_page + i`. The newest is the one pushes append to.
    pages: VecDeque<String>,
    first_page: u64,
    /// One word per entry, oldest first: page number × [`PAGE_SIZE`] +
    /// offset, the offset below [`PAGE_SIZE`].
    slots: VecDeque<u64>,
    /// Sequence number of the next push.
    next_seq: u64,
    /// Bytes charged to the gauge: page capacities plus `SLOT_BYTES`
    /// per slot.
    bytes: usize,
}

impl Window {
    /// Sequence number of the oldest entry still in the window.
    fn oldest(&self) -> u64 {
        self.next_seq - self.slots.len() as u64
    }

    /// The text of ring position `at` (0 = oldest).
    fn text(&self, at: usize) -> &str {
        let slot = self.slots[at];
        let (page, start) = (slot / PAGE, (slot % PAGE) as usize);
        let text = &self.pages[(page - self.first_page) as usize];
        let end = match self.slots.get(at + 1) {
            Some(&next) if next / PAGE == page => (next % PAGE) as usize,
            _ => text.len(),
        };
        &text[start..end]
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
    window: Mutex<Window>,
    capacity: usize,
    epc: Arc<EpcGauge>,
}

/// The window under its lock: what Algorithm 1 does in its one critical
/// section (see [`crate::obfuscate::obfuscate`]).
pub(crate) struct Locked<'a> {
    history: &'a QueryHistory,
    window: MutexGuard<'a, Window>,
    /// Slot bytes pushed under this lock and not yet charged to the
    /// gauge (see the module docs).
    uncharged: usize,
}

impl Drop for Locked<'_> {
    fn drop(&mut self) {
        self.history.charge_held(&mut self.uncharged, 0);
    }
}

impl Locked<'_> {
    /// Number of stored queries.
    pub(crate) fn len(&self) -> usize {
        self.window.slots.len()
    }

    /// Draw `r` of the window (see the module docs for the order).
    pub(crate) fn draw(&self, r: usize) -> &str {
        let classes = draw_classes(self.history.capacity);
        let w = &*self.window;
        w.text(draw_position(classes, w.oldest(), w.slots.len(), r))
    }

    /// Appends a query, evicting the oldest when the window is full
    /// (Algorithm 1 line 9: `H ← Q`).
    pub(crate) fn push(&mut self, query: &str) {
        let QueryHistory { capacity, epc, .. } = self.history;
        let w = &mut *self.window;
        // A full window trades the oldest slot for the new one, so its
        // slot bytes stay charged.
        let full = w.slots.len() == *capacity;
        if full {
            w.slots.pop_front();
            // Free the pages no live entry lies in; the newest stays to
            // take this push.
            let live_from = w.slots.front().map_or(u64::MAX, |slot| slot / PAGE);
            while w.pages.len() > 1 && w.first_page < live_from {
                // Before the release, so the peak is the one per-entry
                // charging reaches.
                self.history.charge_held(&mut self.uncharged, 0);
                let freed = w.pages.pop_front().expect("more than one page").capacity();
                w.first_page += 1;
                epc.release(freed);
                w.bytes -= freed;
            }
        }
        // `max(1)`: an empty entry needs an offset inside the page too.
        if w.pages
            .back()
            .is_none_or(|page| page.len() + query.len().max(1) > PAGE_SIZE)
        {
            let page = String::with_capacity(query.len().max(PAGE_SIZE));
            self.history
                .charge_held(&mut self.uncharged, page.capacity());
            w.bytes += page.capacity();
            w.pages.push_back(page);
        }
        let number = w.first_page + w.pages.len() as u64 - 1;
        let page = w.pages.back_mut().expect("a page was just ensured");
        let slot = number * PAGE + page.len() as u64;
        page.push_str(query);
        // Grow the ring by doubling only while that stays inside the
        // window; the last step takes exactly what is left.
        if w.slots.len() == w.slots.capacity() && (w.slots.capacity() * 2).max(4) > *capacity {
            w.slots.reserve_exact(*capacity - w.slots.len());
        }
        w.slots.push_back(slot);
        if !full {
            self.uncharged += SLOT_BYTES;
            w.bytes += SLOT_BYTES;
        }
        w.next_seq += 1;
    }
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
            window: Mutex::new(Window::default()),
            capacity,
            epc,
        }
    }

    /// Charges `extra` bytes plus the slot bytes `held` back under the
    /// lock, and clears `held`; charges nothing when both are zero.
    fn charge_held(&self, held: &mut usize, extra: usize) {
        let bytes = std::mem::take(held) + extra;
        if bytes > 0 {
            self.epc.charge(bytes);
        }
    }

    /// Takes the table's lock.
    pub(crate) fn lock(&self) -> Locked<'_> {
        Locked {
            history: self,
            window: self.window.lock().unwrap_or_else(PoisonError::into_inner),
            uncharged: 0,
        }
    }

    /// Appends a query, evicting the oldest when the window is full
    /// (Algorithm 1 line 9: `H ← Q`).
    pub fn push(&self, query: &str) {
        self.lock().push(query);
    }

    /// Appends `queries` in order under one acquisition of the lock — the
    /// form a warm-up batch or a restore uses.
    pub fn push_all<'a>(&self, queries: impl IntoIterator<Item = &'a str>) {
        let mut window = self.lock();
        for query in queries {
            window.push(query);
        }
    }

    /// Samples one past query uniformly (Algorithm 1 line 7:
    /// `H[random(m)]`), `None` when the table is empty.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<String> {
        let window = self.lock();
        let len = window.len();
        (len > 0).then(|| window.draw(rng.gen_range(0..len)).to_owned())
    }

    /// Number of stored queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
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

    /// Bytes this table holds — its pages' capacities plus one slot word
    /// per entry — i.e. the Fig 6 y-axis. A running count kept by
    /// push/evict, read under the lock.
    #[must_use]
    pub fn memory_bytes(&self) -> usize {
        self.lock().window.bytes
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
        let window = self.lock();
        let w = &*window.window;
        (0..w.slots.len()).map(|at| w.text(at).to_owned()).collect()
    }

    /// The delta read behind sealed persistence: appends every entry
    /// that landed since `cursor` last read this table and is still in
    /// the window to `out`, oldest first, as one columnar query batch
    /// (the [`crate::wire::encode_query_batch`] framing: their lengths,
    /// then their text as one region); advances `cursor` past them and
    /// returns how many there were. `out` grows once, by the batch plus
    /// `spare` bytes (a sealer's tag), under the lock.
    /// Costs the entries read, whatever the window size. Entries land in
    /// sequence order, so "since" is "at or above the cursor's sequence
    /// number"; entries evicted unread are outside the window and
    /// skipped. From [`HistoryCursor::default`] it reads the whole
    /// window.
    pub fn read_since(&self, cursor: &mut HistoryCursor, out: &mut Vec<u8>, spare: usize) -> usize {
        let window = self.lock();
        let w = &*window.window;
        let len = w.slots.len();
        let delta = (cursor.next.saturating_sub(w.oldest()) as usize).min(len)..len;
        cursor.next = w.next_seq;
        let batch: usize = 4 + delta.clone().map(|at| 4 + w.text(at).len()).sum::<usize>();
        out.reserve_exact(batch + spare);
        encode_query_batch_into(out, delta.clone().map(|at| w.text(at)));
        delta.len()
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
    use crate::wire::QueryBatch;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn history(cap: usize) -> QueryHistory {
        QueryHistory::new(cap, EpcGauge::with_limit(1 << 30))
    }

    /// The texts [`QueryHistory::read_since`] hands out, decoded.
    fn read(h: &QueryHistory, cursor: &mut HistoryCursor) -> Vec<String> {
        let mut out = Vec::new();
        let n = h.read_since(cursor, &mut out, 0);
        let texts: Vec<String> = QueryBatch::parse(&out)
            .unwrap()
            .iter()
            .map(str::to_owned)
            .collect();
        assert_eq!(texts.len(), n);
        texts
    }

    /// Pages the table holds, and pages its live entries span.
    fn pages(h: &QueryHistory) -> (usize, usize) {
        let window = h.lock();
        let w = &*window.window;
        let span = match (w.slots.front(), w.slots.back()) {
            (Some(first), Some(last)) => (last / PAGE - first / PAGE + 1) as usize,
            _ => 0,
        };
        (w.pages.len(), span)
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
            assert_ne!(s, "first", "oldest entry must be gone");
        }
    }

    #[test]
    fn sample_from_empty_is_none() {
        let h = history(3);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(h.sample(&mut rng), None);
    }

    #[test]
    fn epc_accounting_tracks_usage() {
        let gauge = EpcGauge::with_limit(1 << 30);
        let h = QueryHistory::new(100, gauge.clone());
        assert_eq!(gauge.used(), 0);
        h.push("hello world");
        // The first push takes a page; every entry adds its slot word.
        assert_eq!(gauge.used(), PAGE_SIZE + 8);
        h.push("second query");
        assert_eq!(gauge.used(), PAGE_SIZE + 2 * 8);
        // An entry longer than a page gets a page of its own size.
        h.push(&"x".repeat(PAGE_SIZE + 1));
        assert_eq!(gauge.used(), 2 * PAGE_SIZE + 1 + 3 * 8);
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
    fn a_page_is_freed_with_its_last_live_entry() {
        let gauge = EpcGauge::with_limit(1 << 30);
        let h = QueryHistory::new(2, gauge.clone());
        let half = "h".repeat(PAGE_SIZE / 2);
        h.push(&half);
        h.push(&half); // fills page 0
        h.push("next"); // page 1; page 0 still holds the second half
        assert_eq!(pages(&h), (2, 2));
        assert_eq!(gauge.used(), 2 * PAGE_SIZE + 2 * 8);
        h.push("last"); // evicts page 0's last entry
        assert_eq!(pages(&h), (1, 1));
        assert_eq!(gauge.used(), PAGE_SIZE + 2 * 8);
        assert_eq!(h.snapshot(), ["next", "last"]);
    }

    #[test]
    fn the_slot_ring_stops_at_the_window() {
        let h = history(1000);
        for i in 0..3000 {
            h.push(&i.to_string());
        }
        assert_eq!(h.lock().window.slots.capacity(), 1000);
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

    #[test]
    fn read_since_returns_each_entry_once_oldest_first() {
        let h = history(16);
        let mut cursor = HistoryCursor::default();
        assert!(read(&h, &mut cursor).is_empty());
        for i in 0..5 {
            h.push(&format!("q{i}"));
        }
        assert_eq!(read(&h, &mut cursor), ["q0", "q1", "q2", "q3", "q4"]);
        assert!(read(&h, &mut cursor).is_empty());
        for i in 5..12 {
            h.push(&format!("q{i}"));
        }
        assert_eq!(
            read(&h, &mut cursor),
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
        assert_eq!(read(&h, &mut cursor).len(), 16);
        for i in 16..33 {
            h.push(&format!("q{i}"));
        }
        let expected: Vec<String> = (17..33).map(|i| format!("q{i}")).collect();
        assert_eq!(read(&h, &mut cursor), expected);
        assert_eq!(h.snapshot(), expected);
    }

    #[test]
    fn read_since_grows_the_buffer_once() {
        let h = history(64);
        for i in 0..40 {
            h.push(&format!("query {i}"));
        }
        let mut out = vec![0; 10];
        let n = h.read_since(&mut HistoryCursor::default(), &mut out, 16);
        assert_eq!(n, 40);
        assert_eq!(out.capacity(), out.len() + 16);
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
            let drawn: Vec<usize> = (0..16)
                .map(|_| h.sample(&mut rng).unwrap().parse().unwrap())
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

    /// One step of the paged-window model test.
    #[derive(Debug, Clone)]
    enum Op {
        Push(String),
        /// An entry that exactly fills the rest of the newest page.
        FillPage,
        /// [`Op::FillPage`], then an empty entry into the full page.
        FillThenEmpty,
        /// An entry of `n` two-byte characters, longer than a page.
        Long(usize),
        Sample(u64),
        ReadSince,
        Snapshot,
    }

    fn op() -> impl Strategy<Value = Op> {
        let parts = (
            0u8..11,
            "[a-zé€😀 ]{0,40}",
            any::<u64>(),
            PAGE_SIZE / 2 + 1..PAGE_SIZE,
        );
        parts.prop_map(|(kind, text, seed, n)| match kind {
            0..=3 => Op::Push(text),
            4 => Op::FillPage,
            5 => Op::FillThenEmpty,
            6 => Op::Long(n),
            7 | 8 => Op::Sample(seed),
            9 => Op::ReadSince,
            _ => Op::Snapshot,
        })
    }

    /// One entry of the batched-charge test: plain text, an empty entry,
    /// or one longer than a page.
    fn entry() -> impl Strategy<Value = String> {
        (0u8..6, "[a-zé ]{0,300}", PAGE_SIZE + 1..2 * PAGE_SIZE).prop_map(|(kind, text, long)| {
            match kind {
                0 => String::new(),
                1 => "l".repeat(long),
                _ => text,
            }
        })
    }

    /// What the gauge has recorded, in full.
    fn gauge_state(g: &EpcGauge) -> (usize, usize, u64, std::time::Duration) {
        (g.used(), g.peak(), g.paged_pages(), g.paging_cost())
    }

    proptest! {
        /// Slot bytes held back under the lock and charged per page or at
        /// unlock leave the gauge exactly where a charge per push does:
        /// the same usage, peak, paged pages and paging cost, and the same
        /// accounted bytes. The limit is a few pages, so paging happens;
        /// the window fills to full and keeps evicting.
        #[test]
        fn batched_pushes_charge_what_single_pushes_charge(
            cap in 1usize..48,
            limit_pages in 0usize..6,
            batches in proptest::collection::vec(proptest::collection::vec(entry(), 0..40), 1..6),
        ) {
            let limit = limit_pages * PAGE_SIZE + 100;
            let batched = QueryHistory::new(cap, EpcGauge::with_limit(limit));
            let single = QueryHistory::new(cap, EpcGauge::with_limit(limit));
            for batch in &batches {
                batched.push_all(batch.iter().map(String::as_str));
                for q in batch {
                    single.push(q);
                }
                prop_assert_eq!(batched.memory_bytes(), single.memory_bytes());
                prop_assert_eq!(batched.memory_bytes(), batched.epc().used());
                prop_assert_eq!(gauge_state(batched.epc()), gauge_state(single.epc()));
            }
            prop_assert_eq!(batched.snapshot(), single.snapshot());
        }

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

        /// The paged window against a `VecDeque<String>` model: the same
        /// texts for pushes, seeded samples (through `draw_position`),
        /// delta reads and snapshots; accounting equal to the gauge after
        /// every step; and never more than one page beyond what the live
        /// entries span.
        #[test]
        fn paged_window_matches_a_string_model(
            cap in 1usize..=64,
            ops in proptest::collection::vec(op(), 1..120),
        ) {
            let gauge = EpcGauge::with_limit(1 << 30);
            let h = QueryHistory::new(cap, gauge.clone());
            let mut model: VecDeque<String> = VecDeque::new();
            let mut next_seq = 0u64;
            let mut cursor = HistoryCursor::default();
            let mut model_cursor = 0u64;
            for op in ops {
                let mut pushes = Vec::new();
                match op {
                    Op::Push(q) => pushes.push(q),
                    Op::FillPage | Op::FillThenEmpty => {
                        let fill = h.lock().window.pages.back().map_or(PAGE_SIZE, String::len);
                        pushes.push("f".repeat(PAGE_SIZE.saturating_sub(fill)));
                        if matches!(op, Op::FillThenEmpty) {
                            pushes.push(String::new());
                        }
                    }
                    Op::Long(n) => pushes.push("ü".repeat(n)),
                    Op::Sample(seed) => {
                        let expected = (!model.is_empty()).then(|| {
                            let mut rng = StdRng::seed_from_u64(seed);
                            let r = rng.gen_range(0..model.len());
                            let oldest = next_seq - model.len() as u64;
                            let at = draw_position(draw_classes(cap), oldest, model.len(), r);
                            model[at].clone()
                        });
                        prop_assert_eq!(h.sample(&mut StdRng::seed_from_u64(seed)), expected);
                    }
                    Op::ReadSince => {
                        let oldest = next_seq - model.len() as u64;
                        let skip = model_cursor.saturating_sub(oldest) as usize;
                        let expected: Vec<String> = model.iter().skip(skip).cloned().collect();
                        prop_assert_eq!(read(&h, &mut cursor), expected);
                        model_cursor = next_seq;
                    }
                    Op::Snapshot => {
                        prop_assert_eq!(h.snapshot(), Vec::from(model.clone()));
                    }
                }
                for q in pushes {
                    h.push(&q);
                    if model.len() == cap {
                        model.pop_front();
                    }
                    model.push_back(q);
                    next_seq += 1;
                }
                prop_assert_eq!(h.len(), model.len());
                prop_assert_eq!(h.memory_bytes(), gauge.used());
                let (held, span) = pages(&h);
                prop_assert!(held <= span + 1, "{} pages held for a span of {}", held, span);
            }
            prop_assert_eq!(h.snapshot(), Vec::from(model));
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
                *counts.entry(s).or_insert(0usize) += 1;
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
