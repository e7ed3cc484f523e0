//! Lock-free snapshot publication for control-plane state.
//!
//! The request path must never block on the mutexes that membership
//! writers (enroll, deregister, health sweeps) hold. [`Published`] gives
//! it that guarantee with a two-slot left/right cell: writers build a
//! fresh immutable snapshot off to the side (copy-on-write) and flip one
//! atomic index; readers load the index, pin the slot with a reader
//! count, re-check the index, and clone the `Arc` out. A reader whose
//! re-check fails backs off **without ever dereferencing** the slot, so
//! the writer's only obligation is to wait for the *non-current* slot's
//! pin count to drain before overwriting it.
//!
//! Why not a plain `Mutex<Arc<T>>`? Under a saturating open-loop load
//! every request would serialize on that mutex — exactly the convoy the
//! cluster data plane is being rebuilt to avoid. Why not `RwLock`?
//! `std::sync::RwLock` readers still take a futex in the contended
//! case. The two-slot cell costs two
//! uncontended atomic RMWs per read and never parks a reader.
//!
//! # Protocol safety sketch
//!
//! A reader dereferences slot `i` only after (1) incrementing
//! `readers[i]` and (2) observing `current == i` *afterwards*. A writer
//! mutates slot `j` only after observing `current != j` **and**
//! `readers[j] == 0`, and flips `current` to `j` only after the write
//! completes. Suppose a writer is mutating slot `j` while a reader
//! dereferences it: the reader's step (2) saw `current == j`, which
//! either happened before the previous flip away from `j` — but then its
//! increment (1) was visible before the writer's zero-check, so the
//! writer would still be waiting — or after the writer's flip *to* `j`,
//! which happens only after the mutation finished. Both contradict the
//! assumption, so no torn read is possible. All operations use `SeqCst`,
//! making the visibility arguments single-total-order arguments.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One slot of the two-slot cell: the value plus its reader pin count.
struct Slot<T> {
    value: UnsafeCell<Option<Arc<T>>>,
    readers: AtomicUsize,
}

/// A lock-free published snapshot: writers copy-on-write + flip, readers
/// pin + clone. See the module docs for the protocol.
pub struct Published<T> {
    slots: [Slot<T>; 2],
    /// Index of the slot readers should use (0 or 1).
    current: AtomicUsize,
    /// Serializes writers. Readers never touch it.
    writer: Mutex<()>,
}

// SAFETY: the cell hands out `Arc<T>` clones across threads (requires
// `T: Send + Sync`) and the slot protocol above guarantees exclusive
// mutation, so sharing `Published<T>` itself is sound.
unsafe impl<T: Send + Sync> Send for Published<T> {}
unsafe impl<T: Send + Sync> Sync for Published<T> {}

impl<T: std::fmt::Debug + Send + Sync> std::fmt::Debug for Published<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Published")
            .field("value", &self.load())
            .finish()
    }
}

/// Holds the writer lock of a [`Published`] cell without publishing —
/// the harness for proving the request path never blocks on it. While
/// the hold exists, `publish` blocks but `load` proceeds untouched.
pub struct WriterHold<'a, T> {
    _guard: MutexGuard<'a, ()>,
    _cell: PhantomData<&'a Published<T>>,
}

impl<T: Send + Sync> Published<T> {
    /// Creates the cell with `initial` as the first published snapshot.
    #[must_use]
    pub fn new(initial: T) -> Self {
        Published {
            slots: [
                Slot {
                    value: UnsafeCell::new(Some(Arc::new(initial))),
                    readers: AtomicUsize::new(0),
                },
                Slot {
                    value: UnsafeCell::new(None),
                    readers: AtomicUsize::new(0),
                },
            ],
            current: AtomicUsize::new(0),
            writer: Mutex::new(()),
        }
    }

    /// Loads the current snapshot. Never blocks: no mutex, no futex —
    /// two atomic RMWs and an `Arc` clone on the happy path, a bounded
    /// retry when a flip races the load.
    #[must_use]
    pub fn load(&self) -> Arc<T> {
        loop {
            let i = self.current.load(Ordering::SeqCst);
            let slot = &self.slots[i];
            slot.readers.fetch_add(1, Ordering::SeqCst);
            if self.current.load(Ordering::SeqCst) == i {
                // SAFETY: `readers[i] > 0` and `current == i` was
                // observed after the increment — per the module-level
                // argument no writer can be mutating this slot, and a
                // current slot always holds a published value.
                let value = unsafe { (*slot.value.get()).clone() };
                slot.readers.fetch_sub(1, Ordering::SeqCst);
                return value.expect("current slot always holds a snapshot");
            }
            // A writer flipped between our two loads: unpin without
            // having dereferenced anything and retry on the new slot.
            slot.readers.fetch_sub(1, Ordering::SeqCst);
            std::hint::spin_loop();
        }
    }

    /// Publishes a fresh snapshot: readers that start after this call
    /// returns observe `value`.
    pub fn publish(&self, value: T) {
        let guard = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        self.publish_locked(value);
        drop(guard);
    }

    /// The flip itself, assuming the writer lock is held.
    fn publish_locked(&self, value: T) {
        let target = 1 - self.current.load(Ordering::SeqCst);
        let slot = &self.slots[target];
        // Wait out readers still pinning the retired slot. They only
        // hold the pin across one `Arc` clone, so this drains in
        // nanoseconds; yield rather than burn the core if we are
        // preempted mid-drain on a small machine.
        while slot.readers.load(Ordering::SeqCst) != 0 {
            std::thread::yield_now();
        }
        // SAFETY: the slot is not current and has no pinned readers; the
        // writer lock excludes other writers. Exclusive access.
        unsafe {
            *slot.value.get() = Some(Arc::new(value));
        }
        self.current.store(target, Ordering::SeqCst);
    }

    /// Takes the writer lock **without publishing** and holds it until
    /// the returned hold drops. Concurrent `publish` calls block for the
    /// duration; concurrent `load`s must not — that is the property the
    /// lock-free data-plane tests pin down with this hook.
    #[must_use]
    pub fn hold_writer(&self) -> WriterHold<'_, T> {
        WriterHold {
            _guard: self.writer.lock().unwrap_or_else(PoisonError::into_inner),
            _cell: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn load_returns_the_latest_publish() {
        let cell = Published::new(1u64);
        assert_eq!(*cell.load(), 1);
        cell.publish(2);
        assert_eq!(*cell.load(), 2);
        cell.publish(3);
        cell.publish(4);
        assert_eq!(*cell.load(), 4);
    }

    #[test]
    fn loads_proceed_while_the_writer_lock_is_held() {
        let cell = Published::new(7u64);
        let hold = cell.hold_writer();
        for _ in 0..1000 {
            assert_eq!(*cell.load(), 7);
        }
        drop(hold);
        cell.publish(8);
        assert_eq!(*cell.load(), 8);
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_pair() {
        // The snapshot is a pair that is only ever published with both
        // halves equal; any torn read would surface as a mismatch.
        let cell = Arc::new(Published::new((0u64, 0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let pair = cell.load();
                        assert_eq!(pair.0, pair.1, "torn snapshot observed");
                    }
                });
            }
            for i in 1..=10_000u64 {
                cell.publish((i, i));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(*cell.load(), (10_000, 10_000));
    }

    #[test]
    fn publishers_serialize_but_converge() {
        let cell = Arc::new(Published::new(0usize));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    for i in 0..500 {
                        cell.publish(t * 1_000_000 + i);
                    }
                });
            }
        });
        // Whatever won the last flip, the cell still loads cleanly.
        let _ = cell.load();
        cell.publish(42);
        assert_eq!(*cell.load(), 42);
    }
}
