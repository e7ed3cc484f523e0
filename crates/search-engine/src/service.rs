//! Latency-modeled engine service for end-to-end experiments.
//!
//! Wraps a [`SearchEngine`] with the WAN model's engine service time so
//! the end-to-end harnesses can account a realistic per-query delay
//! without sleeping.
//!
//! Merged mode models the paper's concurrent fan-out (§5.3.2): the proxy
//! submits the k+1 sub-queries to the engine as separate requests in
//! flight at the same time, and that concurrency happens on the engine's
//! servers, so what the proxy pays for it is latency. The modeled
//! engine has a fixed number of service slots (lanes); sub-query `i` of
//! a request runs on lane `i % lanes` with one service-time draw
//! attached, and the request is charged the makespan over its lanes —
//! `max` over lanes of `Σ (draw + measured compute)` of the sub-queries
//! **assigned** to that lane. At least k+1 lanes charge a
//! max-of-draws-shaped delay; fewer charge the queueing their width
//! imposes; one lane ([`EngineService::serial`], the seed's baseline)
//! charges the **sum**.
//!
//! Lanes are bookkeeping, not threads: the sub-queries are evaluated on
//! the calling thread, one after another, each evaluation timed. The
//! in-process BM25 stands in for Bing's datacenter; evaluating it on a
//! worker pool on the proxy's own cores modeled nothing the draws do not
//! already model and only measured the host's wake-up cost: on a 2-vCPU
//! box the pooled fan-out ran at 0.69–0.87× the serial loop's speed
//! (`engine.fanout_speedup`, traced `proxy_search`) and spent 40–55 µs
//! of CPU per request waking workers.
//!
//! What a merged request returns is the corpus's own documents, merged
//! on ids in [`SearchEngine::search_merged`]'s order: nothing is cloned
//! out of the corpus here, so the caller (the proxy host) writes each
//! document's text exactly once, into the `recv` payload.

use crate::document::Document;
use crate::engine::{merge_ids, SearchEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};
use xsearch_net_sim::DelayModel;

/// Upper bound on the width proxies give their engine uplink: the e2e
/// experiments sweep k ≤ 15, i.e. at most 16 concurrent sub-queries per
/// request.
pub const MAX_LANES: usize = 16;

/// A search engine with a modeled service-time distribution.
pub struct EngineService {
    engine: Arc<SearchEngine>,
    service_time: DelayModel,
    rng: Mutex<StdRng>,
    lanes: usize,
    /// Total modeled service time charged so far (ns) — harnesses read
    /// per-request deltas instead of re-deriving the model outside the
    /// pipeline. `Arc`-shared so a metrics registry can poll it without
    /// borrowing the service.
    accounted_ns: Arc<AtomicU64>,
    /// Total caller wall time spent inside evaluations (ns) — see
    /// [`EngineService::accounted_fetch_wall`].
    fetch_wall_ns: Arc<AtomicU64>,
}

impl std::fmt::Debug for EngineService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineService")
            .field("service_time", &self.service_time)
            .field("lanes", &self.lanes)
            .finish()
    }
}

impl EngineService {
    /// Wraps `engine` with a service-time model and a full-width
    /// ([`MAX_LANES`]) modeled engine.
    #[must_use]
    pub fn new(engine: Arc<SearchEngine>, service_time: DelayModel, seed: u64) -> Self {
        Self::with_workers(engine, service_time, seed, MAX_LANES)
    }

    /// Wraps `engine` with a service-time model and a modeled engine of
    /// `workers` service slots (lanes). No thread is spawned: `workers`
    /// sets how the per-sub-query draws combine, not where the in-process
    /// evaluation runs.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    #[must_use]
    pub fn with_workers(
        engine: Arc<SearchEngine>,
        service_time: DelayModel,
        seed: u64,
        workers: usize,
    ) -> Self {
        assert!(workers > 0, "a modeled engine needs at least one lane");
        EngineService {
            engine,
            service_time,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            lanes: workers,
            accounted_ns: Arc::new(AtomicU64::new(0)),
            fetch_wall_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The seed's serial engine, kept as the honest baseline: one lane,
    /// so the charged delay is the **sum** of the per-sub-query draws
    /// plus the measured compute.
    #[must_use]
    pub fn serial(engine: Arc<SearchEngine>, service_time: DelayModel, seed: u64) -> Self {
        Self::with_workers(engine, service_time, seed, 1)
    }

    /// Executes an obfuscated query in the paper's merged mode and
    /// returns the merged documents plus the modeled end-to-end engine
    /// delay of this request's sub-queries (see the module docs for how
    /// it is charged). The documents are the corpus's own, in
    /// [`SearchEngine::search_merged`]'s order: the merge runs on ids and
    /// no result is built, so a caller writes each document's text once,
    /// wherever it is going.
    pub fn search_merged<S: AsRef<str>>(
        &self,
        subqueries: &[S],
        k_each: usize,
    ) -> (Vec<&Document>, Duration) {
        let n = subqueries.len();
        // Draw the per-sub-query service times up front, under one lock:
        // the draw sequence depends only on call order, so a fixed seed
        // replays identically.
        let draws: Vec<Duration> = {
            let mut rng = self.rng.lock().unwrap_or_else(PoisonError::into_inner);
            (0..n)
                .map(|_| self.service_time.sample(&mut *rng))
                .collect()
        };
        let start = Instant::now();
        let mut lane_busy = vec![Duration::ZERO; self.lanes];
        let mut per_query = Vec::with_capacity(n);
        for (i, (query, draw)) in subqueries.iter().zip(draws).enumerate() {
            let evaluation = Instant::now();
            per_query.push(self.engine.ranked(query.as_ref(), k_each));
            lane_busy[i % self.lanes] += draw + evaluation.elapsed();
        }
        let docs = merge_ids(&per_query, k_each)
            .into_iter()
            .map(|(doc, _)| self.engine.document(doc).expect("a ranked id is indexed"))
            .collect();
        self.charge_wall(start.elapsed());
        // Makespan: each lane serves its sub-queries back to back, lanes
        // run concurrently.
        let delay = lane_busy.into_iter().max().unwrap_or_default();
        self.charge(delay);
        (docs, delay)
    }

    /// The wrapped engine.
    #[must_use]
    pub fn engine(&self) -> &Arc<SearchEngine> {
        &self.engine
    }

    /// Total modeled engine service time charged so far. End-to-end
    /// harnesses read the delta around a request to attribute the engine
    /// leg of that request's latency.
    #[must_use]
    pub fn accounted_delay(&self) -> Duration {
        Duration::from_nanos(self.accounted_ns.load(Ordering::Relaxed))
    }

    /// Total **wall time the caller actually spent** inside this
    /// service's evaluations. The modeled delay above already contains
    /// the measured compute of each execution, and that same time also
    /// elapses for real on the caller's clock — a harness that adds
    /// `accounted_delay()` to a measured request wall time must subtract
    /// this to avoid counting the in-process evaluation twice.
    #[must_use]
    pub fn accounted_fetch_wall(&self) -> Duration {
        Duration::from_nanos(self.fetch_wall_ns.load(Ordering::Relaxed))
    }

    /// Shared handles to the accounting atomics
    /// `(accounted_ns, fetch_wall_ns)`, so a metrics registry can poll
    /// the service's charge counters at snapshot time without borrowing the
    /// service.
    #[must_use]
    pub fn accounting_handles(&self) -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        (
            Arc::clone(&self.accounted_ns),
            Arc::clone(&self.fetch_wall_ns),
        )
    }

    fn charge(&self, delay: Duration) {
        self.accounted_ns
            .fetch_add(delay.as_nanos() as u64, Ordering::Relaxed);
    }

    fn charge_wall(&self, wall: Duration) {
        self.fetch_wall_ns
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::document::DocId;

    const SERVICE_MS: u64 = 350;

    fn engine() -> Arc<SearchEngine> {
        Arc::new(SearchEngine::build(&CorpusConfig {
            docs_per_topic: 10,
            ..Default::default()
        }))
    }

    fn service(workers: usize) -> EngineService {
        EngineService::with_workers(engine(), DelayModel::constant_ms(SERVICE_MS), 1, workers)
    }

    fn ids(docs: &[&Document]) -> Vec<DocId> {
        docs.iter().map(|d| d.id).collect()
    }

    /// The ids of the owned merge the service's document merge must equal.
    fn result_ids<S: AsRef<str>>(engine: &SearchEngine, subs: &[S]) -> Vec<DocId> {
        engine
            .search_merged(subs, 10)
            .iter()
            .map(|r| r.doc)
            .collect()
    }

    #[test]
    fn search_reports_modeled_delay() {
        // One sub-query: one constant draw plus its measured compute.
        let s = service(2);
        let (_, d) = s.search_merged(&["flights"], 10);
        assert!(d >= Duration::from_millis(SERVICE_MS), "got {d:?}");
        assert!(d < Duration::from_millis(SERVICE_MS + 100), "got {d:?}");
    }

    #[test]
    fn merged_delay_is_one_service_time_when_fanout_is_real() {
        // 2 sub-queries on 2 lanes: both draws overlap, so the
        // charged delay is one constant draw plus that lane's (small)
        // measured compute — far below the 700 ms a serial engine pays.
        let s = service(2);
        let (_, d) = s.search_merged(&["flights".to_owned(), "hotel".to_owned()], 10);
        assert!(d >= Duration::from_millis(SERVICE_MS), "got {d:?}");
        assert!(d < Duration::from_millis(2 * SERVICE_MS), "got {d:?}");
    }

    #[test]
    fn narrow_pool_charges_its_queueing() {
        // 4 sub-queries over 2 lanes: each lane serves 2 draws back to
        // back, so the makespan is at least two service times.
        let s = service(2);
        let subs: Vec<String> = (0..4).map(|i| format!("query {i}")).collect();
        let (_, d) = s.search_merged(&subs, 10);
        assert!(d >= Duration::from_millis(2 * SERVICE_MS), "got {d:?}");
        assert!(d < Duration::from_millis(4 * SERVICE_MS), "got {d:?}");
    }

    #[test]
    fn wide_pool_charges_the_max_draw_and_a_one_wide_pool_the_sum() {
        // The charge is a function of the seed's draws and the assigned
        // lanes, plus the little the evaluations measured.
        const SEED: u64 = 41;
        let model = DelayModel::lognormal_ms(SERVICE_MS, 0.5);
        let draws: Vec<Duration> = {
            let mut rng = StdRng::seed_from_u64(SEED);
            (0..4).map(|_| model.sample(&mut rng)).collect()
        };
        let (max, sum) = (*draws.iter().max().unwrap(), draws.iter().sum::<Duration>());
        assert!(sum > max + Duration::from_millis(SERVICE_MS));
        // Far above four evaluations of a 400-document index, far below
        // the gap between the two charges.
        let compute = Duration::from_millis(100);
        let subs: Vec<String> = (0..4).map(|i| format!("flights hotel {i}")).collect();
        let engine = engine();
        for (workers, draws_part) in [(4, max), (1, sum)] {
            let s = EngineService::with_workers(engine.clone(), model.clone(), SEED, workers);
            let (_, d) = s.search_merged(&subs, 10);
            assert!(
                d > draws_part && d < draws_part + compute,
                "{workers} lanes: charged {d:?}, draws give {draws_part:?}"
            );
        }
    }

    #[test]
    fn serial_baseline_charges_the_sum() {
        let s = EngineService::serial(engine(), DelayModel::constant_ms(SERVICE_MS), 1);
        let subs: Vec<String> = (0..4).map(|i| format!("query {i}")).collect();
        let (_, d) = s.search_merged(&subs, 10);
        assert!(d >= Duration::from_millis(4 * SERVICE_MS), "got {d:?}");
    }

    #[test]
    fn parallel_and_serial_agree_on_results() {
        let wide = service(3);
        let serial = EngineService::serial(
            wide.engine().clone(),
            DelayModel::constant_ms(SERVICE_MS),
            1,
        );
        let subs = vec!["flights hotel".to_owned(), "symptoms doctor".to_owned()];
        assert_eq!(
            wide.search_merged(&subs, 10).0,
            serial.search_merged(&subs, 10).0
        );
    }

    #[test]
    fn accounted_delay_accumulates_per_request() {
        let s = service(2);
        let before = s.accounted_delay();
        let (_, d) = s.search_merged(&["flights".to_owned(), "hotel".to_owned()], 10);
        assert_eq!(s.accounted_delay() - before, d);
        let (_, d2) = s.search_merged(&["flights"], 10);
        assert_eq!(s.accounted_delay() - before, d + d2);
    }

    #[test]
    fn results_flow_through() {
        let s = service(2);
        let (docs, _) = s.search_merged(&["flights hotel"], 10);
        assert!(!docs.is_empty());
        let ids: Vec<_> = docs.iter().map(|d| d.id).collect();
        let direct: Vec<_> = s
            .engine()
            .search("flights hotel", 10)
            .iter()
            .map(|r| r.doc)
            .collect();
        assert_eq!(ids, direct, "the corpus's own documents, in rank order");
    }

    #[test]
    fn parallel_merge_equals_serial_merge() {
        let engine = engine();
        let service = EngineService::with_workers(engine.clone(), DelayModel::constant_ms(1), 7, 4);
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
            let (merged, _) = service.search_merged(&subs, 10);
            assert_eq!(ids(&merged), result_ids(&engine, &subs));
        }
    }

    #[test]
    fn empty_request_is_empty() {
        let service = service(2);
        let (merged, charged) = service.search_merged(&Vec::<String>::new(), 10);
        assert!(merged.is_empty());
        assert_eq!(charged, Duration::ZERO);
    }

    #[test]
    fn pool_survives_concurrent_callers() {
        // Eight threads share one service. Each request takes its `n`
        // draws consecutively under the one RNG lock, so the charges are,
        // as a multiset, the seed's draws cut into runs of `n` — each run
        // charged its largest draw (the lanes are at least `n` wide) plus
        // a little measured compute. Which run a thread got depends on
        // scheduling; the k-th smallest charge does not: it is the k-th
        // smallest run maximum plus that little.
        const SEED: u64 = 5;
        const PER_THREAD: usize = 20;
        let model = DelayModel::lognormal_ms(350, 0.5);
        let engine = engine();
        let service = EngineService::with_workers(engine.clone(), model.clone(), SEED, MAX_LANES);
        let subs = ["flights hotel", "symptoms doctor", "mortgage rates"];
        let expected = result_ids(&engine, &subs);
        let mut charged: Vec<Duration> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        (0..PER_THREAD)
                            .map(|_| {
                                let (merged, charge) = service.search_merged(&subs, 10);
                                assert_eq!(ids(&merged), expected);
                                charge
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("caller thread panicked"))
                .collect()
        });
        assert_eq!(service.accounted_delay(), charged.iter().sum());
        let mut rng = StdRng::seed_from_u64(SEED);
        let mut formula: Vec<Duration> = (0..charged.len())
            .map(|_| {
                (0..subs.len())
                    .map(|_| model.sample(&mut rng))
                    .max()
                    .expect("three draws")
            })
            .collect();
        charged.sort();
        formula.sort();
        // Far above three evaluations of this small index.
        let compute = Duration::from_millis(50);
        for (got, draws) in charged.iter().zip(&formula) {
            assert!(
                got >= draws && *got < *draws + compute,
                "charged {got:?}, draws give {draws:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_workers_panics() {
        let _ = service(0);
    }
}
