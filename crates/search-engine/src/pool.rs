//! The modeled engine's service slots ("lanes").
//!
//! The paper's proxy (§5.3.2) submits the k+1 sub-queries to Bing as
//! separate requests in flight at the same time. That concurrency
//! happens on the engine's servers: what the proxy pays for it is
//! latency, and [`crate::service::EngineService`] charges exactly that —
//! one service-time draw per sub-query, combined as a makespan over the
//! lanes the sub-queries were assigned. A merged request claims a run of
//! consecutive lanes with one atomic `fetch_add`, so its sub-queries get
//! distinct lanes whenever the modeled engine is at least k+1 wide and
//! queue behind each other when it is narrower.
//!
//! Lanes are bookkeeping, not threads. The in-process BM25 stands in for
//! Bing's datacenter; evaluating it on a worker pool on the proxy's own
//! cores (PRs 4–24) modeled nothing the draws do not already model and
//! only measured this box's wake-up cost: on the 2-vCPU benchmark box
//! the pooled fan-out ran at 0.69–0.87× the serial loop's speed
//! (`engine.fanout_speedup`, traced `proxy_search`) and spent 40–55 µs
//! of CPU per request waking workers. So the sub-queries run on the
//! request's own thread.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the width proxies give their engine uplink: the e2e
/// experiments sweep k ≤ 15, i.e. at most 16 concurrent sub-queries per
/// request.
pub const MAX_LANES: usize = 16;

/// A fixed number of lanes, handed out in consecutive runs.
#[derive(Debug)]
pub(crate) struct Lanes {
    width: usize,
    next: AtomicUsize,
}

impl Lanes {
    /// `width` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub(crate) fn new(width: usize) -> Self {
        assert!(width > 0, "a modeled engine needs at least one lane");
        Lanes {
            width,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of lanes.
    #[must_use]
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Claims the lanes of an `n`-sub-query request: the next `n`
    /// consecutive lanes, wrapping at the width, in sub-query order.
    pub(crate) fn claim(&self, n: usize) -> impl Iterator<Item = usize> {
        // A counter, not a lock: it publishes nothing but itself.
        let first = self.next.fetch_add(n, Ordering::Relaxed);
        let width = self.width;
        (0..n).map(move |i| (first + i) % width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::document::{DocId, Document};
    use crate::engine::SearchEngine;
    use crate::service::EngineService;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;
    use std::sync::Arc;
    use std::time::Duration;
    use xsearch_net_sim::DelayModel;

    fn engine() -> Arc<SearchEngine> {
        Arc::new(SearchEngine::build(&CorpusConfig {
            docs_per_topic: 30,
            ..Default::default()
        }))
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

    fn service(engine: &Arc<SearchEngine>, lanes: usize) -> EngineService {
        EngineService::with_workers(engine.clone(), DelayModel::constant_ms(1), 7, lanes)
    }

    #[test]
    fn parallel_merge_equals_serial_merge() {
        let engine = engine();
        let service = service(&engine, 4);
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
    fn one_request_spreads_over_distinct_lanes() {
        let lanes = Lanes::new(8);
        // Another request first, so this one's run starts mid-width.
        let _ = lanes.claim(3);
        let claimed: HashSet<usize> = lanes.claim(8).collect();
        assert_eq!(
            claimed.len(),
            8,
            "8 sub-queries on 8 lanes: all distinct, wherever the run starts"
        );
    }

    #[test]
    fn narrow_pool_wraps_lanes_and_stays_correct() {
        let lanes = Lanes::new(2);
        assert_eq!(lanes.claim(3).collect::<Vec<_>>(), [0, 1, 0]);
        assert_eq!(lanes.claim(3).collect::<Vec<_>>(), [1, 0, 1]);
        let engine = engine();
        let subs = vec![
            "flights hotel".to_owned(),
            "symptoms doctor".to_owned(),
            "mortgage rates".to_owned(),
        ];
        let service = service(&engine, 2);
        let (merged, charged) = service.search_merged(&subs, 10);
        assert_eq!(ids(&merged), result_ids(&engine, &subs));
        assert!(
            charged >= Duration::from_millis(2),
            "two sub-queries queue on one lane: {charged:?}"
        );
    }

    #[test]
    fn empty_request_is_empty() {
        assert_eq!(Lanes::new(2).claim(0).count(), 0);
        let service = service(&engine(), 2);
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
        let _ = Lanes::new(0);
    }
}
