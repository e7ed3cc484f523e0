//! A persistent, sharded worker pool that evaluates the k+1 sub-queries
//! of a merged request **concurrently** — the real fan-out the paper's
//! proxy performs against Bing (§5.3.2 submits each sub-query as its own
//! engine request, in flight at the same time).
//!
//! # Lanes
//!
//! A lane is one of the engine's service slots: each has a private job
//! queue and a worker parked on it, and a merged request claims a run of
//! consecutive lanes with one atomic `fetch_add`, so its sub-queries are
//! assigned distinct lanes whenever the pool is at least k+1 wide. Index
//! reads are `&self` (the BM25 index is immutable after build), so every
//! thread shares one [`SearchEngine`] without locking.
//!
//! # Help-first join
//!
//! Which thread *executes* a sub-query is decided by a claim, not by the
//! assignment. A request is one shared `Batch`: the queries, and per
//! sub-query a claim flag and a result slot. The dispatching thread keeps
//! the first sub-query, posts the others to their lanes, and then — before
//! it waits for anything — walks the batch and runs every sub-query whose
//! flag it wins. A worker that dequeues a job does the same for that one
//! sub-query and drops the job if the flag is already taken. Whoever
//! finishes the batch's last sub-query wakes the dispatcher. On an idle,
//! wide machine the workers win their flags and the request takes one
//! evaluation; on a narrow or busy one the dispatcher wins them and the
//! request degrades to the serial loop plus the cost of posting, never to
//! a sleep behind workers that have no core to run on. Either way each
//! sub-query is evaluated exactly once.
//!
//! # Accounting
//!
//! [`SearchPool::search_merged_accounted`] reports, per sub-query, the
//! lane it was **assigned** and its measured compute time wherever it
//! ran. Latency models (see [`crate::service::EngineService`]) attach
//! per-sub-query service-time draws to these executions and charge the
//! resulting per-lane makespan: the modeled engine is as wide as the
//! pool, whichever of this process's threads did the arithmetic.

use crate::engine::{merge_ranked, SearchEngine, SearchResult};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Upper bound on pool width: the e2e experiments sweep k ≤ 15, i.e. at
/// most 16 concurrent sub-queries per request.
pub const MAX_WORKERS: usize = 16;

/// A sub-query representation the pool can dispatch. A batch carries
/// `Arc<str>`, so `Arc<str>` inputs — the enclave's hot path — bump a
/// refcount instead of copying the string; owned and borrowed strings
/// are copied into a shared allocation once at dispatch.
pub trait SubQuery {
    /// Borrows the query text.
    fn as_str(&self) -> &str;
    /// The shared form a batch carries.
    fn to_shared(&self) -> Arc<str>;
}

impl SubQuery for Arc<str> {
    fn as_str(&self) -> &str {
        self
    }
    fn to_shared(&self) -> Arc<str> {
        Arc::clone(self)
    }
}

impl SubQuery for String {
    fn as_str(&self) -> &str {
        self
    }
    fn to_shared(&self) -> Arc<str> {
        Arc::from(self.as_str())
    }
}

impl SubQuery for &str {
    fn as_str(&self) -> &str {
        self
    }
    fn to_shared(&self) -> Arc<str> {
        Arc::from(*self)
    }
}

/// How one sub-query of a merged request actually executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubQueryRun {
    /// The lane the sub-query was assigned.
    pub lane: usize,
    /// Measured evaluation time, on whichever thread claimed it.
    pub compute: Duration,
}

/// One merged request, shared between its dispatcher and the lanes.
struct Batch {
    k_each: usize,
    slots: Vec<Slot>,
    /// Sub-queries not yet finished; whoever finishes the last one wakes
    /// the dispatcher.
    pending: AtomicUsize,
    dispatcher: Thread,
}

/// One sub-query of a batch.
struct Slot {
    query: Arc<str>,
    /// Set by the one thread that evaluates the sub-query. It guards
    /// nothing but that exclusivity; the result is published by `outcome`.
    claimed: AtomicBool,
    outcome: Mutex<Option<(Duration, Vec<SearchResult>)>>,
}

/// A lane's job: sub-query `.1` of batch `.0`, if nobody has claimed it
/// by the time the worker gets there.
type Job = (Arc<Batch>, usize);

impl Batch {
    /// A batch whose dispatcher is the calling thread.
    fn new(queries: impl Iterator<Item = Arc<str>>, k_each: usize) -> Arc<Batch> {
        let slots: Vec<Slot> = queries
            .map(|query| Slot {
                query,
                claimed: AtomicBool::new(false),
                outcome: Mutex::new(None),
            })
            .collect();
        Arc::new(Batch {
            k_each,
            pending: AtomicUsize::new(slots.len()),
            slots,
            dispatcher: std::thread::current(),
        })
    }

    /// Evaluates sub-query `slot` on the calling thread unless another
    /// thread has claimed it.
    fn run_if_unclaimed(&self, engine: &SearchEngine, slot: usize) {
        let slot = &self.slots[slot];
        if slot.claimed.swap(true, Ordering::Relaxed) {
            return;
        }
        // Counts the sub-query finished even if the evaluation unwinds,
        // so the dispatcher finds the empty slot instead of parking for
        // ever. The Release half of this decrement pairs with the
        // dispatcher's Acquire load of `pending`.
        struct Finish<'a>(&'a Batch);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                if self.0.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    self.0.dispatcher.unpark();
                }
            }
        }
        let _finish = Finish(self);
        let start = Instant::now();
        let results = engine.search(&slot.query, self.k_each);
        *slot.outcome.lock() = Some((start.elapsed(), results));
    }
}

/// A sharded pool of engine-evaluation workers.
pub struct SearchPool {
    engine: Arc<SearchEngine>,
    lanes: Vec<Sender<Job>>,
    next: AtomicUsize,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SearchPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchPool")
            .field("workers", &self.lanes.len())
            .finish()
    }
}

impl SearchPool {
    /// Spawns `workers` evaluation threads over `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn new(engine: Arc<SearchEngine>, workers: usize) -> Self {
        assert!(workers > 0, "a search pool needs at least one worker");
        let mut lanes = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for lane in 0..workers {
            let (tx, rx) = unbounded::<Job>();
            let engine = engine.clone();
            lanes.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("xsearch-pool-{lane}"))
                    .spawn(move || worker_loop(&engine, &rx))
                    .expect("spawn pool worker"),
            );
        }
        SearchPool {
            engine,
            lanes,
            next: AtomicUsize::new(0),
            workers: handles,
        }
    }

    /// Pool width.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.lanes.len()
    }

    /// The engine the workers evaluate against.
    #[must_use]
    pub fn engine(&self) -> &Arc<SearchEngine> {
        &self.engine
    }

    /// The parallel counterpart of [`SearchEngine::search_merged`]:
    /// assigns every sub-query a lane, evaluates them on the workers and
    /// the calling thread (see the module docs), and merges the rankings.
    /// Produces exactly the serial form's output (same [`merge_ranked`]
    /// over the same per-sub-query rankings).
    #[must_use]
    pub fn search_merged<S: SubQuery>(&self, subqueries: &[S], k_each: usize) -> Vec<SearchResult> {
        self.search_merged_accounted(subqueries, k_each).0
    }

    /// [`SearchPool::search_merged`] plus per-sub-query execution
    /// accounting (lane and measured compute time, in sub-query order).
    #[must_use]
    pub fn search_merged_accounted<S: SubQuery>(
        &self,
        subqueries: &[S],
        k_each: usize,
    ) -> (Vec<SearchResult>, Vec<SubQueryRun>) {
        let n = subqueries.len();
        if n == 0 {
            return (Vec::new(), Vec::new());
        }
        // One fetch_add claims n consecutive lanes: the sub-queries of
        // one request never share a lane while n <= pool width.
        let first_lane = self.next.fetch_add(n, Ordering::Relaxed);
        let lane = |slot: usize| (first_lane + slot) % self.lanes.len();
        let batch = Batch::new(subqueries.iter().map(SubQuery::to_shared), k_each);
        for slot in 1..n {
            let sent = self.lanes[lane(slot)].send((Arc::clone(&batch), slot));
            assert!(sent.is_ok(), "pool worker is alive while the pool exists");
        }
        // Help first: run what no worker has started, then wait for what
        // one has.
        for slot in 0..n {
            batch.run_if_unclaimed(&self.engine, slot);
        }
        while batch.pending.load(Ordering::Acquire) != 0 {
            std::thread::park();
        }
        let mut runs = Vec::with_capacity(n);
        let mut per_query = Vec::with_capacity(n);
        for (slot, state) in batch.slots.iter().enumerate() {
            let (compute, results) = state
                .outcome
                .lock()
                .take()
                .expect("a sub-query evaluation panicked");
            runs.push(SubQueryRun {
                lane: lane(slot),
                compute,
            });
            per_query.push(results);
        }
        (merge_ranked(per_query, k_each), runs)
    }
}

impl Drop for SearchPool {
    fn drop(&mut self) {
        // Dropping every job sender disconnects the per-lane channels;
        // workers drain outstanding jobs and exit.
        self.lanes.clear();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(engine: &SearchEngine, jobs: &Receiver<Job>) {
    while let Ok((batch, slot)) = jobs.recv() {
        batch.run_if_unclaimed(engine, slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use std::collections::HashSet;

    fn engine() -> Arc<SearchEngine> {
        Arc::new(SearchEngine::build(&CorpusConfig {
            docs_per_topic: 30,
            ..Default::default()
        }))
    }

    #[test]
    fn parallel_merge_equals_serial_merge() {
        let engine = engine();
        let pool = SearchPool::new(engine.clone(), 4);
        for subs in [
            vec!["flights hotel".to_owned()],
            vec!["flights hotel".to_owned(), "symptoms doctor".to_owned()],
            vec![
                "flights hotel".to_owned(),
                "symptoms doctor".to_owned(),
                "mortgage rates".to_owned(),
                "nfl scores".to_owned(),
                "cheap cruise".to_owned(),
            ],
        ] {
            let serial = engine.search_merged(&subs, 10);
            let parallel = pool.search_merged(&subs, 10);
            assert_eq!(serial, parallel);
        }
    }

    #[test]
    fn one_request_spreads_over_distinct_lanes() {
        let pool = SearchPool::new(engine(), 8);
        let subs: Vec<String> = (0..8).map(|i| format!("query number {i}")).collect();
        let (_, runs) = pool.search_merged_accounted(&subs, 5);
        let lanes: HashSet<usize> = runs.iter().map(|r| r.lane).collect();
        assert_eq!(
            lanes.len(),
            8,
            "8 sub-queries on an 8-wide pool: all distinct lanes"
        );
    }

    #[test]
    fn narrow_pool_wraps_lanes_and_stays_correct() {
        let engine = engine();
        let pool = SearchPool::new(engine.clone(), 2);
        let subs = vec![
            "flights hotel".to_owned(),
            "symptoms doctor".to_owned(),
            "mortgage rates".to_owned(),
        ];
        let (merged, runs) = pool.search_merged_accounted(&subs, 10);
        assert_eq!(merged, engine.search_merged(&subs, 10));
        assert!(runs.iter().all(|r| r.lane < 2));
        assert_eq!(runs.len(), 3);
    }

    #[test]
    fn request_completes_while_every_worker_is_stuck() {
        // Occupy both workers with another caller's batch whose result
        // slots this test holds locked: each worker claims its sub-query,
        // evaluates it and then blocks storing the outcome.
        let engine = engine();
        let pool = SearchPool::new(engine.clone(), 2);
        let stall = Batch::new(["flights", "hotel"].into_iter().map(Arc::from), 1);
        let held: Vec<_> = stall.slots.iter().map(|s| s.outcome.lock()).collect();
        for (lane, tx) in pool.lanes.iter().enumerate() {
            assert!(tx.send((Arc::clone(&stall), lane)).is_ok());
        }
        while !stall
            .slots
            .iter()
            .all(|s| s.claimed.load(Ordering::Acquire))
        {
            std::thread::yield_now();
        }
        let subs = ["flights hotel", "symptoms doctor", "mortgage rates"];
        let (merged, runs) = pool.search_merged_accounted(&subs, 10);
        assert_eq!(merged, engine.search_merged(&subs, 10));
        assert_eq!(runs.len(), 3, "the caller ran all three itself");
        assert_eq!(
            stall.pending.load(Ordering::Acquire),
            2,
            "workers still stuck"
        );
        drop(held);
    }

    #[test]
    fn empty_request_is_empty() {
        let pool = SearchPool::new(engine(), 2);
        let (merged, runs) = pool.search_merged_accounted(&Vec::<String>::new(), 10);
        assert!(merged.is_empty() && runs.is_empty());
    }

    #[test]
    fn pool_survives_concurrent_callers() {
        let engine = engine();
        let pool = SearchPool::new(engine.clone(), 4);
        let expected = engine.search_merged(&["flights hotel", "symptoms doctor"], 10);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let merged = pool.search_merged(&["flights hotel", "symptoms doctor"], 10);
                        assert_eq!(merged, expected);
                    }
                });
            }
        });
    }

    #[test]
    fn drop_joins_workers() {
        // Dropping the pool must not hang or leak panicking threads.
        let pool = SearchPool::new(engine(), 3);
        let _ = pool.search_merged(&["flights".to_owned()], 5);
        drop(pool);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = SearchPool::new(engine(), 0);
    }
}
