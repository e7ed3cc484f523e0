//! Request-coalescing primitives for the lock-free data plane.
//!
//! Every replica owns a **lane**: a short queue of sealed requests plus
//! a flat-combining leader flag. A client thread seals its query,
//! enqueues a `Pending` on the target replica's lane, and then either
//! becomes the lane leader (if the flag is free) or parks on its own
//! [`RequestSlot`]. The leader drains the queue and pushes the whole
//! batch across the enclave boundary in **one** `proxy_batch` ecall —
//! the PR-3 batching hook — then delivers each result to its slot and
//! wakes the owner. Under load this turns `n` contending threads into
//! one ecall of `n` entries; at low load the submitting thread is its
//! own leader and the path degenerates to the direct single-request
//! call, so idle latency is unchanged.
//!
//! The lane mutex is **per replica** and held only to push/drain a
//! `VecDeque` — never across an ecall — so it is not control-plane
//! state: the writer-lock-held acceptance test keeps requests flowing
//! while registry and ring writers are blocked.

use crate::error::ClusterError;
use crate::registry::ReplicaId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A per-client completion cell. The client keeps one slot for its whole
/// session (connection reuse): `begin` re-arms it, the lane leader
/// `deliver`s into it, and the client blocks on the condvar until done.
///
/// Built on `std::sync::Mutex` + [`Condvar`] (the vendored `parking_lot`
/// has no condvar); the mutex only guards the tiny state enum and is
/// never held while waiting for I/O, so it cannot convoy.
#[derive(Debug)]
pub struct RequestSlot {
    state: Mutex<SlotState>,
    done: Condvar,
}

#[derive(Debug)]
enum SlotState {
    /// No request outstanding.
    Idle,
    /// Enqueued on a lane, result not yet delivered.
    Waiting,
    /// Result delivered, owner has not collected it yet.
    Done(Result<Vec<u8>, ClusterError>),
}

impl Default for RequestSlot {
    fn default() -> Self {
        RequestSlot {
            state: Mutex::new(SlotState::Idle),
            done: Condvar::new(),
        }
    }
}

impl RequestSlot {
    /// A fresh, idle slot.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Arms the slot for a new request. Any stale result from an
    /// abandoned earlier request is discarded.
    pub(crate) fn begin(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = SlotState::Waiting;
    }

    /// Delivers the result and wakes the owner. Called by whichever
    /// thread led the batch this request rode in.
    pub(crate) fn deliver(&self, result: Result<Vec<u8>, ClusterError>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *state = SlotState::Done(result);
        self.done.notify_all();
    }

    /// Collects the result if it has been delivered, resetting the slot
    /// to idle. `None` while still waiting.
    pub(crate) fn take_if_done(&self) -> Option<Result<Vec<u8>, ClusterError>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if matches!(*state, SlotState::Done(_)) {
            match std::mem::replace(&mut *state, SlotState::Idle) {
                SlotState::Done(result) => Some(result),
                _ => unreachable!(),
            }
        } else {
            None
        }
    }

    /// Blocks until the result arrives or `timeout` elapses, whichever
    /// first; collects it if delivered. The timeout is a lost-wakeup
    /// backstop — the caller re-checks lane leadership after it fires.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> Option<Result<Vec<u8>, ClusterError>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if !matches!(*state, SlotState::Done(_)) {
            let (next, _timed_out) = self
                .done
                .wait_timeout(state, timeout)
                .unwrap_or_else(|e| e.into_inner());
            state = next;
        }
        if matches!(*state, SlotState::Done(_)) {
            match std::mem::replace(&mut *state, SlotState::Idle) {
                SlotState::Done(result) => Some(result),
                _ => unreachable!(),
            }
        } else {
            None
        }
    }
}

/// One sealed request waiting on a lane: everything the leader needs to
/// put it on the wire plus the slot to deliver into.
#[derive(Debug)]
pub(crate) struct Pending {
    /// The client's channel public key (wire envelope routing key).
    pub client_pub: [u8; 32],
    /// The sealed query ciphertext.
    pub ciphertext: Vec<u8>,
    /// Echo mode: cross the boundary but skip the search engine.
    pub echo: bool,
    /// Where the result goes.
    pub slot: Arc<RequestSlot>,
    /// Wall-clock backstop from the caller's deadline budget: a lane
    /// leader that drains this entry after the instant has passed
    /// delivers `DeadlineExceeded` instead of executing it — a request
    /// whose owner has already given up must not consume enclave work.
    /// `None` (no budget) never expires.
    pub expires_at: Option<std::time::Instant>,
}

impl Pending {
    /// Whether this entry's deadline backstop has already passed.
    pub fn expired(&self) -> bool {
        self.expires_at
            .is_some_and(|at| std::time::Instant::now() >= at)
    }
}

/// Coalescing statistics for one lane (and, summed, for the fleet).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneStats {
    /// Batches pushed across the enclave boundary.
    pub batches: u64,
    /// Total entries those batches carried.
    pub entries: u64,
    /// Largest single batch.
    pub max_batch: u64,
}

impl LaneStats {
    /// Mean entries per ecall — the coalescing factor the bench reports.
    #[must_use]
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.entries as f64 / self.batches as f64
        }
    }

    /// Element-wise sum, for fleet-level aggregation.
    #[must_use]
    pub fn merged(self, other: LaneStats) -> LaneStats {
        LaneStats {
            batches: self.batches + other.batches,
            entries: self.entries + other.entries,
            max_batch: self.max_batch.max(other.max_batch),
        }
    }
}

/// A per-replica request lane: the queue plus the flat-combining leader
/// flag. The fleet owns one per replica slot.
#[derive(Debug, Default)]
pub(crate) struct Lane {
    queue: Mutex<VecDeque<Pending>>,
    /// Exactly one thread at a time drains this lane into ecalls.
    leader: AtomicBool,
    batches: AtomicU64,
    entries: AtomicU64,
    max_batch: AtomicU64,
}

impl Lane {
    /// Enqueues a request (FIFO).
    pub fn push(&self, pending: Pending) {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(pending);
    }

    /// Drains up to `max` queued requests in FIFO order.
    pub fn drain(&self, max: usize) -> Vec<Pending> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let n = queue.len().min(max);
        queue.drain(..n).collect()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }

    /// Attempts to become the lane leader. On success the caller must
    /// hold a [`LeaderGuard`] so a panic cannot orphan the lane.
    pub fn try_lead(&self) -> bool {
        self.leader
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Records one executed batch in the coalescing stats.
    pub fn record_batch(&self, batch_entries: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.entries
            .fetch_add(batch_entries as u64, Ordering::Relaxed);
        self.max_batch
            .fetch_max(batch_entries as u64, Ordering::Relaxed);
    }

    /// This lane's coalescing stats so far.
    pub fn stats(&self) -> LaneStats {
        LaneStats {
            batches: self.batches.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
        }
    }
}

/// Clears the lane's leader flag on drop — leadership survives neither
/// normal return nor unwind, so a panicking leader cannot wedge every
/// later submitter into timed-wait fallbacks forever.
pub(crate) struct LeaderGuard<'a> {
    lane: &'a Lane,
}

impl<'a> LeaderGuard<'a> {
    /// Wraps freshly acquired leadership (caller just won `try_lead`).
    pub fn new(lane: &'a Lane) -> Self {
        LeaderGuard { lane }
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        self.lane.leader.store(false, Ordering::Release);
    }
}

/// Owns a drained batch until every entry's fate is decided. If the
/// leader unwinds mid-ecall (the replica's enclave panicked), the fence
/// delivers `ReplicaDown` to every still-undelivered slot on drop — an
/// admitted request is **never** silently dropped; its owner always
/// wakes with a result or an error.
pub(crate) struct DeliveryFence {
    entries: Vec<Pending>,
    id: ReplicaId,
    armed: bool,
}

impl DeliveryFence {
    /// Arms the fence around `entries` drained from `id`'s lane.
    pub fn new(id: ReplicaId, entries: Vec<Pending>) -> Self {
        DeliveryFence {
            entries,
            id,
            armed: true,
        }
    }

    /// The guarded batch, for building the wire payload.
    pub fn entries(&self) -> &[Pending] {
        &self.entries
    }

    /// Disarms and returns the batch for normal per-entry delivery.
    pub fn disarm(mut self) -> Vec<Pending> {
        self.armed = false;
        std::mem::take(&mut self.entries)
    }
}

impl Drop for DeliveryFence {
    fn drop(&mut self) {
        if self.armed {
            for pending in self.entries.drain(..) {
                pending
                    .slot
                    .deliver(Err(ClusterError::ReplicaDown(self.id)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(slot: &Arc<RequestSlot>, tag: u8) -> Pending {
        Pending {
            client_pub: [tag; 32],
            ciphertext: vec![tag],
            echo: true,
            slot: Arc::clone(slot),
            expires_at: None,
        }
    }

    #[test]
    fn slot_roundtrip_deliver_then_take() {
        let slot = RequestSlot::new();
        slot.begin();
        assert!(slot.take_if_done().is_none(), "not delivered yet");
        slot.deliver(Ok(vec![1, 2, 3]));
        assert_eq!(slot.take_if_done(), Some(Ok(vec![1, 2, 3])));
        assert!(slot.take_if_done().is_none(), "take resets to idle");
    }

    #[test]
    fn slot_wait_timeout_returns_delivered_result() {
        let slot = RequestSlot::new();
        slot.begin();
        let waiter = Arc::clone(&slot);
        let handle = std::thread::spawn(move || {
            let mut spins = 0u32;
            loop {
                if let Some(result) = waiter.wait_timeout(Duration::from_millis(1)) {
                    return (result, spins);
                }
                spins += 1;
                assert!(spins < 60_000, "delivery never arrived");
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        slot.deliver(Err(ClusterError::ReplicaDown(ReplicaId(3))));
        let (result, _) = handle.join().unwrap();
        assert_eq!(result, Err(ClusterError::ReplicaDown(ReplicaId(3))));
    }

    #[test]
    fn begin_discards_a_stale_result() {
        let slot = RequestSlot::new();
        slot.begin();
        slot.deliver(Ok(vec![9]));
        // Owner abandoned that request (e.g. failover); re-arm.
        slot.begin();
        assert!(slot.take_if_done().is_none(), "stale result discarded");
        slot.deliver(Ok(vec![7]));
        assert_eq!(slot.take_if_done(), Some(Ok(vec![7])));
    }

    #[test]
    fn lane_drains_fifo_and_bounded() {
        let lane = Lane::default();
        let slot = RequestSlot::new();
        for tag in 0..5u8 {
            lane.push(pending(&slot, tag));
        }
        let first = lane.drain(3);
        assert_eq!(
            first.iter().map(|p| p.ciphertext[0]).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        let rest = lane.drain(64);
        assert_eq!(
            rest.iter().map(|p| p.ciphertext[0]).collect::<Vec<_>>(),
            vec![3, 4]
        );
        assert!(lane.is_empty());
    }

    #[test]
    fn leadership_is_exclusive_and_guard_releases_on_drop() {
        let lane = Lane::default();
        assert!(lane.try_lead());
        {
            let _guard = LeaderGuard::new(&lane);
            assert!(!lane.try_lead(), "second leader excluded");
        }
        assert!(lane.try_lead(), "guard drop released leadership");
        let _guard = LeaderGuard::new(&lane);
    }

    #[test]
    fn lane_stats_track_batches() {
        let lane = Lane::default();
        lane.record_batch(4);
        lane.record_batch(10);
        lane.record_batch(2);
        let stats = lane.stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.entries, 16);
        assert_eq!(stats.max_batch, 10);
        assert!((stats.mean_batch() - 16.0 / 3.0).abs() < 1e-12);
        let merged = stats.merged(LaneStats {
            batches: 1,
            entries: 64,
            max_batch: 64,
        });
        assert_eq!(merged.max_batch, 64);
        assert_eq!(merged.entries, 80);
    }

    #[test]
    fn pending_expiry_tracks_the_backstop_instant() {
        let slot = RequestSlot::new();
        let mut p = pending(&slot, 1);
        assert!(!p.expired(), "no deadline never expires");
        p.expires_at = Some(std::time::Instant::now());
        assert!(p.expired(), "a passed instant has expired");
        p.expires_at = Some(std::time::Instant::now() + Duration::from_secs(600));
        assert!(!p.expired());
    }

    #[test]
    fn dropped_fence_fails_every_undelivered_slot() {
        let slots: Vec<_> = (0..3).map(|_| RequestSlot::new()).collect();
        for slot in &slots {
            slot.begin();
        }
        let batch: Vec<_> = slots
            .iter()
            .enumerate()
            .map(|(i, s)| pending(s, i as u8))
            .collect();
        let fence = DeliveryFence::new(ReplicaId(1), batch);
        assert_eq!(fence.entries().len(), 3);
        drop(fence); // leader "panicked"
        for slot in &slots {
            assert_eq!(
                slot.take_if_done(),
                Some(Err(ClusterError::ReplicaDown(ReplicaId(1))))
            );
        }
    }

    #[test]
    fn disarmed_fence_hands_the_batch_back_untouched() {
        let slot = RequestSlot::new();
        slot.begin();
        let fence = DeliveryFence::new(ReplicaId(0), vec![pending(&slot, 5)]);
        let batch = fence.disarm();
        assert_eq!(batch.len(), 1);
        assert!(
            slot.take_if_done().is_none(),
            "disarm must not deliver anything"
        );
    }
}
