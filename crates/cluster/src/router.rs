//! The per-replica request lane: a queue, a turn, and one rule.
//!
//! Every replica owns a **lane**: a FIFO of sealed requests plus one
//! mutex, the **turn**. Whoever holds the turn drains at most
//! `MAX_BATCH` entries, carries them across the enclave boundary in one
//! `proxy_batch` ecall per request mode and delivers every result to
//! its [`RequestSlot`] before releasing the turn. The one rule: **every
//! submitter drives its own replica's lane until its own entry is
//! delivered.** A blocking caller takes the turn and runs batches until
//! its slot fills (or finds that the previous holder filled it); a front
//! step only tries the turn, and the next step — whoever waits on the
//! reply takes it — re-drives while a connection's entry is undelivered.
//!
//! Batching comes from one front step: it submits every connection the
//! step made ready before it drives. Blocking threads rarely meet in
//! the queue (1.02–1.06 entries per ecall with four generator threads).
//! Neither mutex is control-plane state: both belong to this replica.

use crate::error::ClusterError;
use crate::registry::ReplicaId;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

/// Most entries one coalesced `proxy_batch` ecall will carry. Bounds
/// tail latency for the first request in a long queue; a turn-holder
/// that must empty the lane runs batches until it is.
pub(crate) const MAX_BATCH: usize = 64;

/// What a delivered request came back as.
type Delivery = Result<Vec<u8>, ClusterError>;

/// A per-client completion cell. The client keeps one slot for its whole
/// session (connection reuse): submitting clears it, the turn-holder
/// `deliver`s into it, and the owner `take`s the result — after driving
/// the lane itself if it has to. Nobody ever waits on the slot.
#[derive(Debug, Default)]
pub struct RequestSlot {
    result: Mutex<Option<Delivery>>,
}

impl RequestSlot {
    /// A fresh, empty slot.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn cell(&self) -> MutexGuard<'_, Option<Delivery>> {
        self.result.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Empties the slot for a new request: a stale result from an
    /// abandoned earlier request is discarded.
    pub(crate) fn clear(&self) {
        *self.cell() = None;
    }

    /// Stores the result. Called by whichever thread held the turn for
    /// the batch this request rode in.
    pub(crate) fn deliver(&self, result: Delivery) {
        *self.cell() = Some(result);
    }

    /// Collects the result if it has been delivered, leaving the slot
    /// empty. `None` while the entry is still queued or in its batch.
    pub(crate) fn take(&self) -> Option<Delivery> {
        self.cell().take()
    }
}

/// One sealed request waiting on a lane: everything the turn-holder
/// needs to put it on the wire plus the slot to deliver into.
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

/// A per-replica request lane: the queue, the turn, and the coalescing
/// stats. The fleet owns one per replica slot and supplies the batch
/// executor (`execute`) every drive runs drained entries through; the
/// executor must deliver to every entry it is handed, unwinding
/// included (the fleet's `DeliveryFence`).
#[derive(Debug, Default)]
pub(crate) struct Lane {
    queue: Mutex<VecDeque<Pending>>,
    /// Held for the whole of drain → ecall → delivery: at most one batch
    /// of this replica is in flight, and whoever takes the turn next sees
    /// every earlier batch delivered.
    turn: Mutex<()>,
    batches: AtomicU64,
    entries: AtomicU64,
    max_batch: AtomicU64,
}

impl Lane {
    /// Enqueues a request (FIFO).
    pub fn push(&self, pending: Pending) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(pending);
    }

    /// Drains up to `max` queued requests in FIFO order.
    fn drain(&self, max: usize) -> Vec<Pending> {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let n = queue.len().min(max);
        queue.drain(..n).collect()
    }

    /// Runs one batch of at most [`MAX_BATCH`] entries through `execute`
    /// and counts it. The caller holds the turn. `false` when the queue
    /// was empty.
    pub(crate) fn run_batch(&self, execute: &mut impl FnMut(Vec<Pending>)) -> bool {
        let batch = self.drain(MAX_BATCH);
        if batch.is_empty() {
            return false;
        }
        self.record_batch(batch.len());
        execute(batch);
        true
    }

    /// The blocking rule: drives this lane until `slot` — whose entry
    /// the caller has pushed — holds its result, and returns it. Each
    /// round checks the slot, takes the turn, checks again (the previous
    /// holder may have carried the entry) and otherwise runs one batch.
    /// The entry is queued or delivered whenever the turn is free, so a
    /// round under the turn either finds it delivered or drains it.
    pub fn drive_until_delivered(
        &self,
        slot: &RequestSlot,
        mut execute: impl FnMut(Vec<Pending>),
    ) -> Delivery {
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            let _turn = self.turn.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(result) = slot.take() {
                return result;
            }
            self.run_batch(&mut execute);
        }
    }

    /// The non-blocking drive: if the turn is free, runs batches until
    /// the queue is empty; if another thread holds it, returns at once.
    /// The emptiness check is repeated after the turn is released, so an
    /// entry pushed by a submitter whose `try_lock` lost to this thread
    /// is carried here. A submitter whose entry a blocking holder leaves
    /// behind drives again later (the front re-drives every connection
    /// still awaiting).
    pub fn drive(&self, mut execute: impl FnMut(Vec<Pending>)) {
        while self.queued() > 0 {
            let _turn = match self.turn.try_lock() {
                Ok(turn) => turn,
                Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
                Err(TryLockError::WouldBlock) => return,
            };
            while self.run_batch(&mut execute) {}
        }
    }

    /// Records one executed batch in the coalescing stats.
    fn record_batch(&self, batch_entries: usize) {
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

    /// Queued entries not yet drained.
    pub(crate) fn queued(&self) -> usize {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Takes the turn without driving, standing in for a foreign
    /// turn-holder mid-batch (tests only).
    #[cfg(test)]
    pub(crate) fn hold_turn(&self) -> MutexGuard<'_, ()> {
        self.turn.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Owns a drained batch until every entry's fate is decided. If the
/// turn-holder unwinds mid-ecall (the replica's enclave panicked), the
/// fence delivers `ReplicaDown` to every still-undelivered slot on drop
/// — before the unwind releases the turn — so an admitted request is
/// **never** silently dropped; its owner always finds a result or an
/// error.
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
        }
    }

    /// A stand-in executor: answers every entry with its own ciphertext.
    fn echo_all(batch: Vec<Pending>) {
        for p in batch {
            p.slot.deliver(Ok(p.ciphertext.clone()));
        }
    }

    #[test]
    fn slot_roundtrip_deliver_then_take() {
        let slot = RequestSlot::new();
        slot.clear();
        assert!(slot.take().is_none(), "not delivered yet");
        slot.deliver(Ok(vec![1, 2, 3]));
        assert_eq!(slot.take(), Some(Ok(vec![1, 2, 3])));
        assert!(slot.take().is_none(), "take empties the slot");
    }

    #[test]
    fn begin_discards_a_stale_result() {
        let slot = RequestSlot::new();
        slot.clear();
        slot.deliver(Ok(vec![9]));
        // Owner abandoned that request (e.g. failover); the next submit
        // clears the slot.
        slot.clear();
        assert!(slot.take().is_none(), "stale result discarded");
        slot.deliver(Ok(vec![7]));
        assert_eq!(slot.take(), Some(Ok(vec![7])));
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
        assert_eq!(lane.queued(), 0);
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
    fn a_free_drive_empties_the_queue_in_bounded_batches() {
        let lane = Lane::default();
        let slots: Vec<_> = (0..MAX_BATCH + 3).map(|_| RequestSlot::new()).collect();
        for (i, slot) in slots.iter().enumerate() {
            lane.push(pending(slot, i as u8));
        }
        lane.drive(echo_all);
        assert_eq!(lane.queued(), 0);
        let stats = lane.stats();
        assert_eq!((stats.batches, stats.max_batch), (2, MAX_BATCH as u64));
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.take(), Some(Ok(vec![i as u8])));
        }
    }

    #[test]
    fn an_entry_pushed_while_another_thread_holds_the_turn_is_run_by_its_owner() {
        let lane = Lane::default();
        let slot = RequestSlot::new();
        let turn = lane.hold_turn();
        std::thread::scope(|scope| {
            let owner = scope.spawn(|| {
                lane.push(pending(&slot, 7));
                lane.drive_until_delivered(&slot, echo_all)
            });
            while lane.queued() == 0 {
                std::thread::yield_now();
            }
            // The holder leaves without running the entry.
            drop(turn);
            assert_eq!(owner.join().unwrap(), Ok(vec![7]));
        });
        assert_eq!(lane.stats().batches, 1, "the owner ran its own batch");
        assert_eq!(lane.queued(), 0);
    }

    #[test]
    fn dropped_fence_fails_every_undelivered_slot() {
        let slots: Vec<_> = (0..3).map(|_| RequestSlot::new()).collect();
        let batch: Vec<_> = slots
            .iter()
            .enumerate()
            .map(|(i, s)| pending(s, i as u8))
            .collect();
        let fence = DeliveryFence::new(ReplicaId(1), batch);
        assert_eq!(fence.entries().len(), 3);
        drop(fence); // the turn-holder "panicked"
        for slot in &slots {
            assert_eq!(
                slot.take(),
                Some(Err(ClusterError::ReplicaDown(ReplicaId(1))))
            );
        }
    }

    #[test]
    fn disarmed_fence_hands_the_batch_back_untouched() {
        let slot = RequestSlot::new();
        let fence = DeliveryFence::new(ReplicaId(0), vec![pending(&slot, 5)]);
        let batch = fence.disarm();
        assert_eq!(batch.len(), 1);
        assert!(slot.take().is_none(), "disarm must not deliver anything");
    }
}
