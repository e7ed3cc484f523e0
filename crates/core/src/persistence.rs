//! Sealed history persistence.
//!
//! The paper's proxy loses its past-query table on restart (it lives only
//! in enclave memory). SGX sealing makes a privacy-preserving restart
//! possible: the enclave serializes the table and seals it to its own
//! measurement, so only the *same proxy code* on the *same platform* can
//! restore it — the operator gets bytes it cannot read. This module
//! implements that extension (listed as such in DESIGN.md: the paper
//! mentions sealing as an SGX capability in §2.3 but does not use it).
//!
//! The window is sealed as an append-only **log of segments**, not as one
//! blob: each `HistoryVault::seal` covers only the entries that landed
//! since the previous one, so its cost follows the request rate and not
//! the window size. A segment carries, in the clear but authenticated,
//!
//! * its **version** — the vault's next monotonic counter value
//!   (modeling SGX's hardware counters);
//! * its **predecessor's tag**, chaining it to the segment before;
//! * its **floor** — the version of the oldest segment still needed to
//!   rebuild the window. The window is exactly the last `capacity`
//!   pushes, so a segment is dead once the segments after it hold at
//!   least `capacity` entries; untrusted storage ([`SealedLog`]) drops
//!   what lies below the newest floor and never holds `2 × capacity`
//!   entries. There is no compaction pass. A segment that names itself
//!   as floor is a **chain start** and carries the whole live window.
//!
//! Segments are sealed with [`SealingKey::seal_tail`], the one sealing
//! format of `sgx-sim`, only inside the `seal_history` ecall.
//! `restore_migrated` is the one way back in, and only the `migrate_in`
//! ecall reaches it: it verifies the whole chain floor‥head, claims the
//! head's version at the source vault (exactly one consumer ever wins;
//! anything older is a rollback) and only then replays the entries.
//!
//! A segment's plaintext is the shared columnar query batch from
//! [`crate::wire`] — `count ‖ len* ‖ text`, the same framing the `seed`
//! ecall uses, so there is exactly one serializer to fuzz. The history
//! writes it under its lock straight into the buffer the segment is
//! sealed in ([`QueryHistory::read_since`]): the length table, then the
//! text as one region. A restore validates each opened plaintext whole
//! through [`crate::wire::QueryBatch`] (one UTF-8 pass over its text
//! region) before anything is claimed, then pushes the entries straight
//! from it, one segment per lock acquisition.

use crate::history::{HistoryCursor, QueryHistory};
use crate::wire::QueryBatch;
use rand::RngCore;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use xsearch_sgx_sim::error::SgxError;
use xsearch_sgx_sim::measurement::Measurement;
use xsearch_sgx_sim::sealed::{SealingKey, SealingPlatform};

/// Segment layout: `nonce ‖ version ‖ floor ‖ prev_tag ‖ ciphertext ‖ tag`.
/// `floor ‖ prev_tag` is the link the AEAD binds beside measurement and
/// version.
const NONCE: usize = 12;
const LINK: usize = NONCE + 8;
const HEADER: usize = LINK + 8 + TAG;
const TAG: usize = 16;

/// A borrowed, length-checked view of one encoded segment.
struct Segment<'a>(&'a [u8]);

impl<'a> Segment<'a> {
    fn parse(bytes: &'a [u8]) -> Result<Self, SgxError> {
        if bytes.len() < HEADER + TAG {
            return Err(SgxError::UnsealFailed);
        }
        Ok(Segment(bytes))
    }

    fn word(&self, at: usize) -> u64 {
        u64::from_le_bytes(self.0[at..at + 8].try_into().expect("8 bytes"))
    }

    fn nonce(&self) -> &'a [u8; NONCE] {
        self.0[..NONCE].try_into().expect("12 bytes")
    }

    fn version(&self) -> u64 {
        self.word(NONCE)
    }

    fn floor(&self) -> u64 {
        self.word(LINK)
    }

    fn link(&self) -> &'a [u8] {
        &self.0[LINK..HEADER]
    }

    fn prev_tag(&self) -> &'a [u8] {
        &self.0[LINK + 8..HEADER]
    }

    fn sealed(&self) -> &'a [u8] {
        &self.0[HEADER..]
    }

    fn tag(&self) -> &'a [u8] {
        &self.0[self.0.len() - TAG..]
    }
}

/// One sealed segment of the history log in its storage encoding — what
/// the `seal_history` ecall hands out and untrusted storage keeps. It
/// reveals its version, its floor and its length, nothing else.
#[derive(Clone)]
pub struct SealedSegment(Vec<u8>);

impl std::fmt::Debug for SealedSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealedSegment")
            .field("version", &self.version())
            .field("floor", &self.floor())
            .field("len", &self.0.len())
            .finish()
    }
}

impl SealedSegment {
    /// Wraps encoded bytes.
    ///
    /// # Errors
    ///
    /// [`SgxError::UnsealFailed`] when they are too short to hold a
    /// header. (Authenticity is only established by a restore.)
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SgxError> {
        Segment::parse(&bytes)?;
        Ok(SealedSegment(bytes))
    }

    fn view(&self) -> Segment<'_> {
        Segment(&self.0)
    }

    /// The monotonic version bound into this segment.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.view().version()
    }

    /// The oldest version a restore from this segment needs; its own
    /// version for a chain start.
    #[must_use]
    pub fn floor(&self) -> u64 {
        self.view().floor()
    }

    /// The encoded bytes (nothing here is secret).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Unwraps the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Untrusted storage for one vault's sealed log: the segments from the
/// newest floor to the head, oldest first.
#[derive(Debug, Default)]
pub struct SealedLog {
    segments: VecDeque<SealedSegment>,
}

impl SealedLog {
    /// Appends the next segment and drops every stored segment below its
    /// floor — all of them when it is a chain start.
    pub fn append(&mut self, segment: SealedSegment) {
        while self
            .segments
            .front()
            .is_some_and(|oldest| oldest.version() < segment.floor())
        {
            self.segments.pop_front();
        }
        self.segments.push_back(segment);
    }

    /// Whether the log holds no segment.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Version of the newest stored segment.
    #[must_use]
    pub fn head_version(&self) -> Option<u64> {
        self.segments.back().map(SealedSegment::version)
    }

    /// Serializes the log for the `migrate_in` ecall
    /// (`count ‖ (len ‖ segment)*`, u32 LE prefixes).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = (self.segments.len() as u32).to_le_bytes().to_vec();
        for segment in &self.segments {
            out.extend_from_slice(&(segment.0.len() as u32).to_le_bytes());
            out.extend_from_slice(&segment.0);
        }
        out
    }
}

fn decode_log(bytes: &[u8]) -> Result<Vec<Segment<'_>>, SgxError> {
    let word = |at: usize| -> Result<usize, SgxError> {
        let raw = bytes.get(at..at + 4).ok_or(SgxError::UnsealFailed)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")) as usize)
    };
    let count = word(0)?;
    let mut segments = Vec::with_capacity(count.min(bytes.len() / (HEADER + TAG)));
    let mut at = 4;
    for _ in 0..count {
        let len = word(at)?;
        let raw = bytes
            .get(at + 4..at + 4 + len)
            .ok_or(SgxError::UnsealFailed)?;
        segments.push(Segment::parse(raw)?);
        at += 4 + len;
    }
    if at != bytes.len() {
        return Err(SgxError::UnsealFailed);
    }
    Ok(segments)
}

/// Where an enclave has got to in sealing its window: the read position
/// in the history, the predecessor to chain to, and how many entries
/// each still-needed segment holds (the enclave's own mirror of the log,
/// from which it derives the floor — the host cannot be trusted to say
/// what may be forgotten). Lives with the enclave state and dies with
/// it; the vault outlives it.
#[derive(Debug, Default)]
pub(crate) struct SealCursor {
    read: HistoryCursor,
    /// Version and tag of the segment sealed last.
    prev: Option<(u64, [u8; TAG])>,
    /// Entry counts of the segments floor‥head, oldest first.
    live: VecDeque<usize>,
    live_entries: usize,
}

/// The enclave's sealing facility with rollback protection: the sealing
/// key of (platform, measurement) — derived once, it is the larger half
/// of sealing a small segment — and a monotonic counter standing in for
/// SGX's hardware monotonic counters.
///
/// Every seal stamps its segment with the next counter value; a restore
/// (the `migrate_in` ecall) refuses any log whose head is older than
/// the newest version sealed or claimed, so an operator (or a failover
/// orchestrator) cannot roll the decoy window back to a superseded log.
/// The vault object models state that survives enclave restarts on the
/// same host — in real SGX the counter lives in platform hardware, not
/// enclave memory.
#[derive(Debug)]
pub struct HistoryVault {
    key: SealingKey,
    measurement: Measurement,
    /// Version of the newest segment sealed by this vault — also the
    /// floor below which restores are rejected as rollbacks.
    last_sealed: AtomicU64,
}

impl HistoryVault {
    /// Creates a vault for (platform, measurement) with a fresh counter.
    #[must_use]
    pub fn new(platform: SealingPlatform, measurement: Measurement) -> Self {
        HistoryVault {
            key: platform.key_for(&measurement),
            measurement,
            last_sealed: AtomicU64::new(0),
        }
    }

    /// The measurement segments from this vault are sealed to.
    #[must_use]
    pub fn measurement(&self) -> Measurement {
        self.measurement
    }

    /// Version of the newest segment this vault sealed (0 if none yet).
    #[must_use]
    pub(crate) fn last_sealed(&self) -> u64 {
        self.last_sealed.load(Ordering::Acquire)
    }

    /// Seals what landed in `history` since `cursor`'s previous seal as
    /// the next segment of its chain; `None` (and no version consumed)
    /// when nothing did. The chain continues only while this vault's
    /// counter is where the cursor left it — a fresh cursor, or a counter
    /// moved by a claim, makes this a chain start that carries the whole
    /// live window. Callers serialize seals on one vault; the storage
    /// side must [`SealedLog::append`] segments in the order sealed.
    pub(crate) fn seal<R: RngCore>(
        &self,
        history: &QueryHistory,
        cursor: &mut SealCursor,
        rng: &mut R,
    ) -> Option<SealedSegment> {
        if cursor.prev.is_none_or(|(v, _)| v != self.last_sealed()) {
            *cursor = SealCursor::default();
        }
        // The delta goes after room for the header, into a buffer that
        // also has room for the tag; an empty one fits this allocation.
        let mut bytes = Vec::with_capacity(HEADER + 4 + TAG);
        bytes.resize(HEADER, 0);
        let entries = history.read_since(&mut cursor.read, &mut bytes, TAG);
        (entries > 0).then(|| self.seal_segment(bytes, entries, history.capacity(), cursor, rng))
    }

    /// Seals `bytes` — a header's room followed by the query batch of
    /// `entries` entries — in place as the next segment of `cursor`'s
    /// chain.
    fn seal_segment<R: RngCore>(
        &self,
        mut bytes: Vec<u8>,
        entries: usize,
        capacity: usize,
        cursor: &mut SealCursor,
        rng: &mut R,
    ) -> SealedSegment {
        let version = self.last_sealed.fetch_add(1, Ordering::AcqRel) + 1;
        cursor.live.push_back(entries);
        cursor.live_entries += entries;
        while cursor.live_entries - cursor.live[0] >= capacity {
            cursor.live_entries -= cursor.live.pop_front().expect("non-empty");
        }
        assert!(
            cursor.live_entries < 2 * capacity,
            "the floor segment holds at most a window, the rest less than one"
        );
        let floor = version + 1 - cursor.live.len() as u64;
        bytes[NONCE..LINK].copy_from_slice(&version.to_le_bytes());
        bytes[LINK..LINK + 8].copy_from_slice(&floor.to_le_bytes());
        bytes[LINK + 8..HEADER].copy_from_slice(&cursor.prev.map_or([0; TAG], |(_, tag)| tag));
        let link: [u8; HEADER - LINK] = bytes[LINK..HEADER].try_into().expect("link");
        let nonce = self.key.seal_tail(version, &link, &mut bytes, HEADER, rng);
        bytes[..NONCE].copy_from_slice(&nonce);
        let segment = SealedSegment(bytes);
        cursor.prev = Some((version, segment.view().tag().try_into().expect("tag")));
        segment
    }
}

/// The one restore path (restart and failover alike), run only inside
/// the `migrate_in` ecall: verifies the encoded `log` under the
/// **source** vault as one chain — versions contiguous from the head's
/// floor to the head, every predecessor tag matching, every segment
/// opening under (platform, measurement) — then
/// atomically *claims* the head's version against the source's monotonic
/// counter — exactly one consumer can ever win, even when a failover
/// sweep and a source restart race for the same log, and a log whose
/// newest segments were withheld presents a head already superseded —
/// and only then replays the entries oldest-first into `history` (the
/// adopting enclave's live table; they arrive through `push`, so its own
/// next seal picks them up as an ordinary delta). Returns the number of
/// queries pushed: entries the window would evict again at once are
/// skipped.
///
/// # Errors
///
/// [`SgxError::RolledBack`] when the head's version was already claimed
/// or superseded at the source; [`SgxError::UnsealFailed`] for wrong
/// platform/measurement, tampering, or a chain that is not exactly
/// floor‥head. On error nothing is restored or claimed.
pub(crate) fn restore_migrated(
    history: &QueryHistory,
    log: &[u8],
    src: &HistoryVault,
) -> Result<usize, SgxError> {
    let segments = decode_log(log)?;
    let Some(head) = segments.last() else {
        return Ok(0);
    };
    let mut plaintexts = Vec::with_capacity(segments.len());
    for (i, segment) in segments.iter().enumerate() {
        let in_sequence = head.floor().checked_add(i as u64) == Some(segment.version());
        let chained = i == 0 || segments[i - 1].tag() == segment.prev_tag();
        if !in_sequence || !chained {
            return Err(SgxError::UnsealFailed);
        }
        plaintexts.push(src.key.open(
            segment.nonce(),
            segment.version(),
            segment.link(),
            segment.sealed(),
        )?);
    }
    let batches = plaintexts
        .iter()
        .map(|batch| QueryBatch::parse(batch).map_err(|_| SgxError::UnsealFailed))
        .collect::<Result<Vec<_>, _>>()?;
    // Claim-then-restore: raise the floor past the head in one atomic
    // step. The winner observes a previous floor at or below the head's
    // version; every racing consumer observes the raised floor and
    // reports a rollback instead of duplicating the window.
    let claimed = src
        .last_sealed
        .fetch_max(head.version() + 1, Ordering::AcqRel);
    if claimed > head.version() {
        return Err(SgxError::RolledBack {
            sealed: head.version(),
            floor: claimed,
        });
    }
    let total: usize = batches.iter().map(QueryBatch::len).sum();
    let surplus = total.saturating_sub(history.capacity());
    let mut skip = surplus;
    for batch in batches {
        let skipped = skip.min(batch.len());
        history.push_all(batch.iter().skip(skipped));
        skip -= skipped;
    }
    Ok(total - surplus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_query_batch;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xsearch_sgx_sim::epc::EpcGauge;
    use xsearch_sgx_sim::measurement::MeasurementBuilder;

    fn measurement(tag: &[u8]) -> Measurement {
        let mut b = MeasurementBuilder::new();
        b.add_region(tag);
        b.finalize()
    }

    fn vault(seed: u64) -> HistoryVault {
        HistoryVault::new(SealingPlatform::from_seed(seed), measurement(b"proxy"))
    }

    /// One enclave lifetime sealing into one storage slot.
    struct Sealer {
        history: QueryHistory,
        cursor: SealCursor,
        log: SealedLog,
        rng: StdRng,
    }

    impl Sealer {
        fn new(capacity: usize) -> Self {
            Sealer {
                history: QueryHistory::new(capacity, EpcGauge::new()),
                cursor: SealCursor::default(),
                log: SealedLog::default(),
                rng: StdRng::seed_from_u64(capacity as u64),
            }
        }

        /// Pushes `queries`, then seals them as one segment.
        fn seal(&mut self, vault: &HistoryVault, queries: &[&str]) {
            for q in queries {
                self.history.push(q);
            }
            if let Some(segment) = vault.seal(&self.history, &mut self.cursor, &mut self.rng) {
                self.log.append(segment);
            }
        }
    }

    /// A three-segment chain (versions 1‥3, floor 1) from `vault`.
    fn three_segments(vault: &HistoryVault) -> Sealer {
        let mut sealer = Sealer::new(1000);
        sealer.seal(vault, &["a1", "a2"]);
        sealer.seal(vault, &["b1"]);
        sealer.seal(vault, &["c1", "c2"]);
        assert_eq!(sealer.log.segments.len(), 3);
        sealer
    }

    /// Offers `log` to `vault` and asserts it is refused with `expected`,
    /// nothing restored and nothing claimed.
    fn assert_refused(what: &str, log: &SealedLog, vault: &HistoryVault, expected: &SgxError) {
        let claimed_before = vault.last_sealed();
        let target = QueryHistory::new(1000, EpcGauge::new());
        assert_eq!(
            restore_migrated(&target, &log.encode(), vault).as_ref(),
            Err(expected),
            "{what}"
        );
        assert_eq!(target.len(), 0, "{what}: nothing restored");
        assert_eq!(
            vault.last_sealed(),
            claimed_before,
            "{what}: nothing claimed"
        );
    }

    fn plaintext(segment: &SealedSegment, vault: &HistoryVault) -> Vec<u8> {
        let s = segment.view();
        vault
            .key
            .open(s.nonce(), s.version(), s.link(), s.sealed())
            .expect("the vault's own segment opens")
    }

    fn entries_in(log: &SealedLog, vault: &HistoryVault) -> usize {
        log.segments
            .iter()
            .map(|s| QueryBatch::parse(&plaintext(s, vault)).unwrap().len())
            .sum()
    }

    #[test]
    fn a_query_longer_than_a_page_survives_sample_seal_and_restore() {
        let long = "ö".repeat(2_560); // 5 KiB, more than an EPC page
        let v = vault(5);
        let mut sealer = Sealer::new(8);
        sealer.history.push(&long);
        assert_eq!(
            sealer.history.sample(&mut sealer.rng).as_deref(),
            Some(long.as_str())
        );
        sealer.seal(&v, &["short"]);
        let restored = QueryHistory::new(8, EpcGauge::new());
        assert_eq!(restore_migrated(&restored, &sealer.log.encode(), &v), Ok(2));
        assert_eq!(restored.snapshot(), [long.as_str(), "short"]);
    }

    #[test]
    fn seal_restore_roundtrip_preserves_window() {
        let v = vault(1);
        let mut sealer = Sealer::new(1000);
        sealer.seal(&v, &["first", "second", "third"]);
        let restored = QueryHistory::new(1000, EpcGauge::new());
        assert_eq!(restore_migrated(&restored, &sealer.log.encode(), &v), Ok(3));
        assert_eq!(restored.snapshot(), ["first", "second", "third"]);
    }

    #[test]
    fn empty_window_seals_and_restores_as_nothing() {
        let v = vault(1);
        let mut sealer = Sealer::new(10);
        sealer.seal(&v, &[]);
        assert!(sealer.log.is_empty(), "an empty window seals no segment");
        let restored = QueryHistory::new(10, EpcGauge::new());
        assert_eq!(
            restore_migrated(&restored, &sealer.log.encode(), &v),
            Ok(0),
            "an empty log restores nothing and claims nothing"
        );
        assert_eq!((restored.len(), v.last_sealed()), (0, 0));
    }

    #[test]
    fn different_code_cannot_restore() {
        let honest = vault(1);
        let mut sealer = Sealer::new(10);
        sealer.seal(&honest, &["secret query"]);
        let log = sealer.log.encode();
        // Another enclave build on the same platform derives another key.
        let other = HistoryVault::new(SealingPlatform::from_seed(1), measurement(b"proxy-v2"));
        let restored = QueryHistory::new(10, EpcGauge::new());
        assert_eq!(
            restore_migrated(&restored, &log, &other),
            Err(SgxError::UnsealFailed)
        );
        assert_eq!(restored.len(), 0);
        // The refusal claimed nothing: the honest code still restores it.
        assert_eq!(restore_migrated(&restored, &log, &honest), Ok(1));
    }

    #[test]
    fn oversized_snapshot_keeps_most_recent() {
        let log = three_segments(&vault(1)).log.encode();
        let window = ["a1", "a2", "b1", "c1", "c2"];
        // Each capacity skips a different run of the three segments:
        // part of the first, all of it, all of the first two, ...
        for capacity in 1..=5 {
            let small = QueryHistory::new(capacity, EpcGauge::new());
            // Same key, own counter: each restore claims afresh.
            assert_eq!(restore_migrated(&small, &log, &vault(1)), Ok(capacity));
            assert_eq!(
                small.snapshot(),
                window[5 - capacity..],
                "capacity {capacity}: the window keeps the newest"
            );
            assert_eq!(
                small.memory_bytes(),
                small.epc().used(),
                "capacity {capacity}: accounting survives the restore"
            );
        }
    }

    #[test]
    fn blob_reveals_nothing_but_length() {
        let mut sealer = Sealer::new(10);
        sealer.seal(&vault(1), &["very identifying query"]);
        let segment = &sealer.log.segments[0];
        let debug = format!("{segment:?}");
        assert!(
            !debug.contains("identifying"),
            "sealed segment must be opaque"
        );
        assert!(
            !segment
                .as_bytes()
                .windows(11)
                .any(|window| window == b"identifying"),
            "plaintext never leaves the seal"
        );
        // Sealing is randomized: the same delta sealed again, at the same
        // version under the same key, keeps its header and changes every
        // other byte class.
        let again = vault(1)
            .seal(&sealer.history, &mut SealCursor::default(), &mut sealer.rng)
            .expect("the same delta");
        let (a, b) = (segment.as_bytes(), again.as_bytes());
        assert_eq!(a[NONCE..HEADER], b[NONCE..HEADER]);
        assert_ne!(a[..NONCE], b[..NONCE], "a fresh nonce");
        assert_ne!(a[HEADER..], b[HEADER..], "other ciphertext and tag");
    }

    #[test]
    fn deserialize_rejects_garbage() {
        let v = vault(1);
        let target = QueryHistory::new(10, EpcGauge::new());
        let refused = |bytes: &[u8]| {
            assert_eq!(
                restore_migrated(&target, bytes, &v),
                Err(SgxError::UnsealFailed)
            );
            assert_eq!((target.len(), v.last_sealed()), (0, 0));
        };
        refused(&[1, 2, 3]);
        // Count says 1 but no segment follows.
        let mut bytes = 1u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&100u32.to_le_bytes());
        refused(&bytes);
        // A segment too short to hold a header.
        bytes[4..].copy_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&[0; 8]);
        refused(&bytes);
        assert!(SealedSegment::from_bytes(vec![0; HEADER + TAG - 1]).is_err());
        // Well-framed, but bytes trail the last segment.
        let mut sealer = Sealer::new(10);
        sealer.seal(&v, &["q"]);
        let mut trailing = sealer.log.encode();
        trailing.push(0);
        let sealed_at = v.last_sealed();
        assert_eq!(
            restore_migrated(&target, &trailing, &v),
            Err(SgxError::UnsealFailed)
        );
        assert_eq!((target.len(), v.last_sealed()), (0, sealed_at));
    }

    /// A segment whose plaintext is a malformed batch authenticates, is
    /// refused whole at parse, and leaves the adopting window, its
    /// accounting and the source's counter as they were.
    #[test]
    fn a_sealed_malformed_batch_restores_nothing() {
        let seal = |v: &HistoryVault, batch: &[u8]| {
            let mut bytes = vec![0; HEADER];
            bytes.extend_from_slice(batch);
            bytes.reserve_exact(TAG);
            let mut rng = StdRng::seed_from_u64(1);
            let segment = v.seal_segment(bytes, 1, 10, &mut SealCursor::default(), &mut rng);
            let mut log = SealedLog::default();
            log.append(segment);
            log.encode()
        };
        let target = QueryHistory::new(10, EpcGauge::new());
        let v = vault(1);
        let well_formed = seal(&v, &encode_query_batch(["already here"]));
        assert_eq!(restore_migrated(&target, &well_formed, &v), Ok(1));
        for (fault, batch) in crate::wire::refused_query_batches() {
            let v = vault(1);
            let log = seal(&v, &batch);
            let before = (target.len(), target.memory_bytes(), target.epc().used());
            let claimed = v.last_sealed();
            assert_eq!(
                restore_migrated(&target, &log, &v),
                Err(SgxError::UnsealFailed),
                "{fault}"
            );
            assert_eq!(
                (target.len(), target.memory_bytes(), target.epc().used()),
                before,
                "{fault}: nothing restored"
            );
            assert_eq!(v.last_sealed(), claimed, "{fault}: nothing claimed");
        }
    }

    #[test]
    fn serializer_is_the_shared_wire_framing() {
        let v = vault(1);
        let mut sealer = Sealer::new(1000);
        sealer.seal(&v, &["alpha", "beta gamma"]);
        sealer.seal(&v, &["delta"]);
        assert_eq!(
            plaintext(&sealer.log.segments[0], &v),
            encode_query_batch(["alpha", "beta gamma"]),
            "persistence and the seed ecall must share one framing"
        );
        assert_eq!(
            plaintext(&sealer.log.segments[1], &v),
            encode_query_batch(["delta"]),
            "a delta segment is framed like a chain start"
        );
    }

    #[test]
    fn vault_versions_are_monotonic() {
        let v = vault(1);
        let mut sealer = Sealer::new(1000);
        sealer.seal(&v, &["a"]);
        sealer.seal(&v, &["b"]);
        let versions: Vec<u64> = sealer.log.segments.iter().map(|s| s.version()).collect();
        assert_eq!(versions, [1, 2]);
        assert_eq!(v.last_sealed(), 2);
        // An empty delta seals nothing and consumes no version.
        sealer.seal(&v, &[]);
        assert_eq!((sealer.log.segments.len(), v.last_sealed()), (2, 2));
    }

    #[test]
    fn segments_chain_and_name_their_floor() {
        let v = vault(1);
        let sealer = three_segments(&v);
        let segments = &sealer.log.segments;
        assert_eq!(segments[0].view().prev_tag(), [0; TAG], "a chain start");
        assert_eq!(segments[0].floor(), segments[0].version());
        for pair in [(0, 1), (1, 2)] {
            assert_eq!(
                segments[pair.1].view().prev_tag(),
                segments[pair.0].view().tag()
            );
            assert_eq!(segments[pair.1].floor(), 1);
        }
    }

    #[test]
    fn vault_rejects_stale_snapshot() {
        let v = vault(1);
        let mut sealer = Sealer::new(100);
        sealer.seal(&v, &["old window"]);
        // The operator keeps the log as it was and withholds the head.
        let mut stale = SealedLog::default();
        stale.append(sealer.log.segments[0].clone());
        sealer.seal(&v, &["new window"]);

        assert_refused(
            "the head withheld",
            &stale,
            &v,
            &SgxError::RolledBack {
                sealed: 1,
                floor: 2,
            },
        );
        let target = QueryHistory::new(100, EpcGauge::new());
        assert_eq!(restore_migrated(&target, &sealer.log.encode(), &v), Ok(2));
        assert_eq!(target.snapshot(), vec!["old window", "new window"]);
    }

    #[test]
    fn migration_moves_the_window_and_retires_the_source() {
        let src = vault(1);
        let mut sealer = Sealer::new(100);
        sealer.seal(&src, &["decoy one", "decoy two"]);

        // The successor adopts the log under the source's vault.
        let successor = QueryHistory::new(100, EpcGauge::new());
        assert_eq!(
            restore_migrated(&successor, &sealer.log.encode(), &src),
            Ok(2)
        );
        assert_eq!(successor.snapshot(), vec!["decoy one", "decoy two"]);

        // The source cannot restore the migrated-away log: that would
        // duplicate the window and roll back the successor's growth.
        assert_refused(
            "re-adoption at the source",
            &sealer.log,
            &src,
            &SgxError::RolledBack {
                sealed: 1,
                floor: 2,
            },
        );
    }

    #[test]
    fn restore_migrated_adopts_atomically_and_retires_source() {
        let src = vault(1);
        let mut sealer = Sealer::new(100);
        sealer.seal(&src, &["w1", "w2"]);
        sealer.seal(&src, &["w3"]);

        let live = QueryHistory::new(100, EpcGauge::new());
        live.push("own entry");
        assert_eq!(restore_migrated(&live, &sealer.log.encode(), &src), Ok(3));
        assert_eq!(live.snapshot(), vec!["own entry", "w1", "w2", "w3"]);

        // Retired at the source: adopting the same log again is a
        // rollback.
        assert!(matches!(
            restore_migrated(&live, &sealer.log.encode(), &src),
            Err(SgxError::RolledBack { .. })
        ));
        assert_eq!(live.len(), 4);
    }

    #[test]
    fn adopted_entries_are_the_successors_next_delta() {
        let src = vault(1);
        let mut failed = Sealer::new(100);
        failed.seal(&src, &["f1", "f2"]);

        let dst = vault(2);
        let mut successor = Sealer::new(100);
        successor.seal(&dst, &["s1"]);
        restore_migrated(&successor.history, &failed.log.encode(), &src).unwrap();
        successor.seal(&dst, &[]);
        assert_eq!(
            successor.log.segments.len(),
            2,
            "the chain continues: no chain start"
        );
        assert_eq!(
            plaintext(&successor.log.segments[1], &dst),
            encode_query_batch(["f1", "f2"])
        );
    }

    #[test]
    fn exactly_one_of_two_racing_adopters_wins() {
        for round in 0..50 {
            let src = vault(round);
            let log = three_segments(&src).log.encode();
            let barrier = std::sync::Barrier::new(2);
            let outcomes: Vec<_> = std::thread::scope(|scope| {
                let adopters: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            let target = QueryHistory::new(100, EpcGauge::new());
                            barrier.wait();
                            (restore_migrated(&target, &log, &src), target.len())
                        })
                    })
                    .collect();
                adopters.into_iter().map(|a| a.join().unwrap()).collect()
            });
            let winners = outcomes.iter().filter(|(r, _)| r.is_ok()).count();
            assert_eq!(winners, 1, "round {round}: {outcomes:?}");
            for (result, restored) in outcomes {
                match result {
                    Ok(n) => assert_eq!((n, restored), (5, 5)),
                    Err(e) => {
                        assert!(matches!(e, SgxError::RolledBack { .. }));
                        assert_eq!(restored, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn migration_requires_matching_measurement() {
        let src = HistoryVault::new(SealingPlatform::from_seed(1), measurement(b"proxy-v1"));
        let other = HistoryVault::new(SealingPlatform::from_seed(1), measurement(b"proxy-v2"));
        let mut sealer = Sealer::new(100);
        sealer.seal(&src, &["w"]);
        assert_refused(
            "another measurement",
            &sealer.log,
            &other,
            &SgxError::UnsealFailed,
        );
    }

    #[test]
    fn foreign_platform_cannot_restore_vault_blob() {
        let mut sealer = Sealer::new(100);
        sealer.seal(&vault(1), &["w"]);
        // Blobs are bound to their sealing platform.
        assert_refused(
            "another platform",
            &sealer.log,
            &vault(2),
            &SgxError::UnsealFailed,
        );
    }

    #[test]
    fn a_broken_chain_is_refused_whole() {
        let v = vault(1);
        let intact = three_segments(&v).log;
        let tampered = |edit: &dyn Fn(&mut VecDeque<SealedSegment>)| {
            let mut log = SealedLog {
                segments: intact.segments.clone(),
            };
            edit(&mut log.segments);
            log
        };
        let refused =
            |what: &str, log: SealedLog| assert_refused(what, &log, &v, &SgxError::UnsealFailed);

        refused(
            "a middle segment dropped",
            tampered(&|s| {
                s.remove(1);
            }),
        );
        refused("two segments swapped", tampered(&|s| s.swap(0, 1)));
        refused("the head swapped down", tampered(&|s| s.swap(1, 2)));
        refused(
            "one segment duplicated",
            tampered(&|s| s.insert(1, s[1].clone())),
        );
        refused(
            "the floor segment withheld",
            tampered(&|s| {
                s.pop_front();
            }),
        );

        // Same measurement, same version numbers, another platform's key.
        let foreign = three_segments(&vault(2)).log;
        refused(
            "a segment from another vault spliced in",
            tampered(&|s| s[1] = foreign.segments[1].clone()),
        );

        // Every byte is authenticated: each clear header field, the
        // ciphertext and the tag, on each segment.
        for i in 0..3 {
            let last = intact.segments[i].0.len() - 1;
            for at in [0, NONCE, LINK, LINK + 8, HEADER - 1, HEADER, last] {
                refused(
                    &format!("byte {at} of segment {i} altered"),
                    tampered(&|s| s[i].0[at] ^= 1),
                );
            }
        }
        // A floor rewritten so that the remaining segments look complete.
        refused(
            "the head's floor raised past a withheld segment",
            tampered(&|s| {
                s.pop_front();
                s[1].0[LINK..LINK + 8].copy_from_slice(&2u64.to_le_bytes());
            }),
        );

        // The head withheld is a rollback, not a broken chain.
        assert_refused(
            "the head withheld",
            &tampered(&|s| {
                s.pop_back();
            }),
            &v,
            &SgxError::RolledBack {
                sealed: 2,
                floor: 3,
            },
        );
        // After all that, the intact log still restores.
        let target = QueryHistory::new(1000, EpcGauge::new());
        assert_eq!(restore_migrated(&target, &intact.encode(), &v), Ok(5));
    }

    #[test]
    fn a_superseded_chain_cannot_come_back_after_a_chain_start() {
        let v = vault(1);
        let mut sealer = three_segments(&v);
        let superseded = SealedLog {
            segments: sealer.log.segments.clone(),
        };
        // A new enclave lifetime: the next seal is a chain start, and it
        // replaces what the slot held.
        sealer.cursor = SealCursor::default();
        sealer.seal(&v, &["d1"]);
        assert_eq!(sealer.log.segments.len(), 1);
        assert_eq!(sealer.log.segments[0].floor(), 4);

        assert_refused(
            "a superseded chain",
            &superseded,
            &v,
            &SgxError::RolledBack {
                sealed: 3,
                floor: 4,
            },
        );
        // Nor can it be glued in front of its successor.
        let mut glued = superseded;
        glued.segments.push_back(sealer.log.segments[0].clone());
        assert_refused(
            "a superseded chain glued before its successor",
            &glued,
            &v,
            &SgxError::UnsealFailed,
        );

        let target = QueryHistory::new(1000, EpcGauge::new());
        assert_eq!(restore_migrated(&target, &sealer.log.encode(), &v), Ok(6));
    }

    #[test]
    fn a_claim_on_the_vault_forces_a_chain_start() {
        let v = vault(1);
        let mut sealer = Sealer::new(100);
        sealer.seal(&v, &["a"]);
        // Someone adopts the log (a failover racing this enclave).
        let adopter = QueryHistory::new(100, EpcGauge::new());
        restore_migrated(&adopter, &sealer.log.encode(), &v).unwrap();
        // The chain cannot continue from a claimed head.
        sealer.seal(&v, &["b"]);
        assert_eq!(sealer.log.segments.len(), 1);
        let head = &sealer.log.segments[0];
        assert_eq!((head.version(), head.floor()), (3, 3));
        assert_eq!(plaintext(head, &v), encode_query_batch(["a", "b"]));
    }

    #[test]
    fn seal_cost_is_independent_of_window_size() {
        let delta: Vec<String> = (0..64).map(|i| format!("fresh query {i:02}")).collect();
        let delta: Vec<&str> = delta.iter().map(String::as_str).collect();
        let mut lengths = Vec::new();
        for capacity in [1_024, 65_536] {
            let v = vault(1);
            let mut sealer = Sealer::new(capacity);
            let warm: Vec<String> = (0..capacity).map(|i| format!("warm {i}")).collect();
            let warm: Vec<&str> = warm.iter().map(String::as_str).collect();
            sealer.seal(&v, &warm);
            let mut reader = HistoryCursor::default();
            let mut read = |h: &QueryHistory| h.read_since(&mut reader, &mut Vec::new(), 0);
            assert_eq!(read(&sealer.history), capacity);

            sealer.seal(&v, &delta);
            assert_eq!(
                read(&sealer.history),
                64,
                "the delta read touches the new entries only"
            );
            lengths.push(sealer.log.segments.back().unwrap().as_bytes().len());
        }
        assert_eq!(lengths[0], lengths[1]);
        assert_eq!(
            lengths[0],
            HEADER + encode_query_batch(delta).len() + TAG,
            "a segment is its delta, a header and a tag"
        );
    }

    /// 4 threads push distinct queries and seal after every push (a
    /// `seal_every = 1` cadence) against one history and vault. Returns
    /// the live history and what the log restores to.
    fn race_pushes_against_seals(capacity: usize, per_thread: usize) -> (Vec<String>, Vec<String>) {
        let v = vault(7);
        let history = QueryHistory::new(capacity, EpcGauge::new());
        let slot = std::sync::Mutex::new((
            SealCursor::default(),
            SealedLog::default(),
            StdRng::seed_from_u64(1),
        ));
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (v, history, slot, barrier) = (&v, &history, &slot, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for i in 0..per_thread {
                        history.push(&format!("t{t} q{i}"));
                        let mut guard = slot.lock().unwrap();
                        let (cursor, log, rng) = &mut *guard;
                        if let Some(segment) = v.seal(history, cursor, rng) {
                            log.append(segment);
                        }
                    }
                });
            }
        });
        let (_, log, _) = slot.into_inner().unwrap();
        assert!(entries_in(&log, &v) < 2 * capacity);
        let restored = QueryHistory::new(capacity, EpcGauge::new());
        restore_migrated(&restored, &log.encode(), &vault(7)).expect("an intact chain");
        (history.snapshot(), restored.snapshot())
    }

    #[test]
    fn pushes_racing_seals_lose_nothing() {
        for _ in 0..20 {
            // Nothing is evicted: every push must be in the log, once.
            let (mut live, mut restored) = race_pushes_against_seals(4096, 500);
            assert_eq!(live.len(), 2000);
            live.sort_unstable();
            restored.sort_unstable();
            assert_eq!(live, restored);
        }
    }

    #[test]
    fn pushes_racing_seals_keep_the_window_while_the_ring_wraps() {
        for _ in 0..5 {
            // The ring wraps ~30 times and the log trims as it goes.
            // Replay re-sequences what raced, so which entries sit at
            // the window's old edge may differ by the few pushes that
            // were in flight; the newer half may not.
            let (live, restored) = race_pushes_against_seals(256, 2000);
            assert_eq!((live.len(), restored.len()), (256, 256));
            for q in &live[128..] {
                assert!(restored.contains(q), "{q:?} acked, sealed, and lost");
            }
        }
    }

    proptest! {
        /// `restore(log)` into a fresh history is `snapshot()` of the
        /// live one after every seal, and the log stays under two
        /// windows — for odd / single-stripe / one-entry windows, any
        /// cadence, rings that wrap several times, and a chain start
        /// forced mid-run.
        #[test]
        fn restored_log_equals_live_window(
            capacity in (0usize..7).prop_map(|i| [1, 2, 3, 7, 8, 24, 64][i]),
            cadence in 1usize..200,
            pushes in 1usize..400,
            restart_at in 0usize..400,
        ) {
            let v = vault(3);
            let mut sealer = Sealer::new(capacity);
            for i in 0..pushes {
                if i == restart_at {
                    sealer.cursor = SealCursor::default();
                }
                sealer.history.push(&format!("q{i}"));
                if (i + 1) % cadence != 0 && i + 1 != pushes {
                    continue;
                }
                sealer.seal(&v, &[]);
                prop_assert!(entries_in(&sealer.log, &v) < 2 * capacity);
                let restored = QueryHistory::new(capacity, EpcGauge::new());
                // Same key, own counter: checking must not claim the head.
                restore_migrated(&restored, &sealer.log.encode(), &vault(3)).unwrap();
                prop_assert_eq!(restored.snapshot(), sealer.history.snapshot());
            }
        }
    }
}
