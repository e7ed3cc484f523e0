//! Integration and property tests for the fault-injection layer and the
//! resilience policy stack.
//!
//! The two load-bearing properties:
//!
//! * a **gray-failing replica never nonce-desyncs** the client tunnel —
//!   whatever mix of injected ecall failures and corruptions a search
//!   hits, the first search after the fault plan's gray phase is closed
//!   must succeed and decrypt — and never makes the client re-send a
//!   request an enclave already served;
//! * a **shed or link-dropped request was never sealed** — the seal
//!   closure must not have run, because a sealed-but-unsent request
//!   would advance the tunnel's strict-sequence send counter and poison
//!   the session.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use xsearch_cluster::resilience::{BreakerState, ResilienceConfig};
use xsearch_cluster::{
    Cluster, ClusterClient, ClusterConfig, ClusterError, FaultPlan, FaultSpec, ReplicaId,
};
use xsearch_core::config::XSearchConfig;
use xsearch_core::proxy::XSearchProxy;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;
use xsearch_net_sim::fault::EcallFault;

fn engine() -> Arc<SearchEngine> {
    Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 5,
        ..Default::default()
    }))
}

/// One unlabelled series read back out of the fleet registry.
fn metric(cluster: &Cluster, name: &str) -> f64 {
    cluster
        .telemetry()
        .snapshot()
        .value(name, &[])
        .expect("a registered fleet series")
}

fn fleet_with(
    replicas: usize,
    spec: FaultSpec,
    fault_seed: u64,
    rcfg: ResilienceConfig,
) -> Cluster {
    let plan = Arc::new(FaultPlan::new(spec, fault_seed, replicas));
    fleet_under(replicas, plan, rcfg)
}

/// A fleet drawing its faults from `plan`, which the caller keeps.
fn fleet_under(replicas: usize, plan: Arc<FaultPlan>, rcfg: ResilienceConfig) -> Cluster {
    Cluster::launch(
        engine(),
        ClusterConfig {
            replicas,
            seal_every: 1,
            proxy: XSearchConfig {
                k: 2,
                history_capacity: 1 << 20,
                ..Default::default()
            },
            resilience: rcfg,
            faults: Some(plan),
            ..Default::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Gray failures (dropped/corrupted responses at the ecall boundary,
    /// after execution) may fail individual searches, but can never
    /// desynchronize the tunnel: once the fault plan's gray phase is
    /// closed, the very next search succeeds and decrypts.
    #[test]
    fn gray_failures_never_desync_the_tunnel(
        gray_rate in 0.1f64..0.9,
        corrupt in 0.0f64..0.5,
        fault_seed in 0u64..1_000,
    ) {
        let spec = FaultSpec {
            gray: vec![(0, gray_rate), (1, gray_rate)],
            corrupt,
            ..Default::default()
        };
        let plan = Arc::new(FaultPlan::new(spec, fault_seed, 2));
        let cluster = fleet_under(
            2,
            Arc::clone(&plan),
            ResilienceConfig {
                // Generous budget: only gray failures end searches here.
                deadline: Duration::from_secs(30),
                ..Default::default()
            },
        );
        let mut client = ClusterClient::attach(&cluster, 0xC11E).unwrap();
        for i in 0..20 {
            // Whatever this search hit (every replica gray-fails), the
            // client recovered or reported a typed error...
            let _ = client.search_echo(&cluster, &format!("gray q{i}"));
        }
        // ...and the session is still (or again) usable. Close the gray
        // phase: draw each replica's ecall decisions until its next one
        // is clean, so that the next search meets no fault. Retrying
        // until a search happened to draw a clean decision would test
        // luck, not the tunnel: at a gray rate near 0.9 and a corruption
        // rate near 0.5, one attempt in 15 gets through, and 50 faulty
        // draws in a row come up a few times in 2048 cases.
        for replica in 0..2 {
            while plan.peek_ecall_fault(replica) != EcallFault::default() {
                let _ = plan.ecall_fault(replica);
            }
        }
        let clean = client.search_echo(&cluster, "clean q");
        prop_assert!(clean.is_ok(), "client tunnel desynced after gray failures: {clean:?}");
        // A gray failure or a corrupted reply came back after Algorithm 1
        // ran: re-sending it would obfuscate the request a second time.
        // Echo mode sends nothing to the engine, so each window entry is
        // one run — no query may sit in two windows.
        let mut windows: Vec<String> = Vec::new();
        for id in cluster.replica_ids() {
            windows.extend(cluster.with_replica(id, XSearchProxy::history_snapshot).unwrap());
        }
        windows.sort_unstable();
        let repeated = windows.windows(2).find(|pair| pair[0] == pair[1]);
        prop_assert!(repeated.is_none(), "obfuscated twice: {repeated:?}");
    }

    /// A request refused by admission (`Overloaded`) or dropped on the
    /// link (`LinkLoss`) was **never sealed**: the seal closure did not
    /// run, so the tunnel's send counter did not advance.
    #[test]
    fn shed_and_dropped_requests_are_never_sealed(
        loss in 0.2f64..1.0,
        fault_seed in 0u64..1_000,
    ) {
        let cluster = fleet_with(
            1,
            FaultSpec { loss, ..Default::default() },
            fault_seed,
            ResilienceConfig::default(),
        );
        let mut sealed = 0u32;
        let mut dropped = 0u32;
        let mut delivered = 0u32;
        for _ in 0..40 {
            let result = cluster.forward(ReplicaId(0), true, || {
                sealed += 1;
                // A bogus frame: enough to cross the wire; the proxy
                // rejects it, which still counts as "was sealed & sent".
                ([0x42u8; 32], vec![1, 2, 3])
            });
            match result {
                Err(ClusterError::LinkLoss(_)) => dropped += 1,
                _ => delivered += 1,
            }
        }
        prop_assert!(dropped > 0, "loss {loss} must drop something in 40 tries");
        prop_assert_eq!(sealed, delivered, "dropped requests must never invoke seal");
    }
}

#[test]
fn overloaded_request_is_never_sealed() {
    let cluster = Cluster::launch(
        engine(),
        ClusterConfig {
            replicas: 1,
            queue_limit: 1,
            ..Default::default()
        },
    );
    let id = ReplicaId(0);
    let mut sealed = false;
    // Fill the only admission slot, then forward: the shed request's
    // seal closure must never run.
    let result = cluster
        .with_replica(id, |_| {
            cluster.forward(id, true, || {
                sealed = true;
                ([0x42u8; 32], vec![1, 2, 3])
            })
        })
        .unwrap();
    assert_eq!(result.unwrap_err(), ClusterError::Overloaded(id));
    assert!(!sealed, "a shed request must never be sealed");
}

#[test]
fn breaker_browns_out_a_gray_replica_before_any_sweep() {
    // Replica 0 always gray-fails; the breaker must trip and deflect
    // routing to a healthy replica while 0 is still registered and "up"
    // — brown-out handling, not crash handling.
    let spec = FaultSpec {
        gray: vec![(0, 1.0)],
        ..Default::default()
    };
    let cluster = fleet_with(4, spec, 7, ResilienceConfig::default());
    // Find a client whose affinity lands on the gray replica.
    let mut client = (0..64)
        .map(|s| ClusterClient::attach(&cluster, 0xB00 + s).unwrap())
        .find(|c| c.replica() == ReplicaId(0))
        .expect("some affinity key lands on replica 0");
    let mut successes = 0;
    for i in 0..10 {
        if client
            .search_echo(&cluster, &format!("brownout q{i}"))
            .is_ok()
        {
            successes += 1;
        }
    }
    assert!(successes > 0, "retries + breaker must get answers through");
    assert_eq!(
        cluster.breaker(ReplicaId(0)).unwrap().state(),
        BreakerState::Open,
        "the gray replica's breaker must be open"
    );
    assert!(metric(&cluster, "xsearch_breaker_trips") >= 1.0);
    assert_ne!(client.replica(), ReplicaId(0), "routing deflected away");
    // No sweep ever drained it: still enrolled, still up.
    assert!(cluster.registry().is_routable(ReplicaId(0)));
    assert!(cluster.node(ReplicaId(0)).unwrap().is_up());
    // Healthy searches keep succeeding from here.
    assert!(client.search_echo(&cluster, "after brownout").is_ok());
}

#[test]
fn total_loss_yields_typed_deadline_exceeded() {
    // 100% link loss: every attempt is dropped before sealing, backoff
    // charges accrue, and the search must fail with the *typed*
    // DeadlineExceeded — it was time, not the failover count, that ran
    // out (LinkLoss retries are same-session and don't count failovers).
    let cluster = fleet_with(
        2,
        FaultSpec {
            loss: 1.0,
            ..Default::default()
        },
        11,
        ResilienceConfig {
            deadline: Duration::from_millis(20),
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
        },
    );
    let mut client = ClusterClient::attach(&cluster, 0xDEAD).unwrap();
    let err = client.search_echo(&cluster, "will never land").unwrap_err();
    assert_eq!(err, ClusterError::DeadlineExceeded);
    assert!(
        metric(&cluster, "xsearch_client_link_losses_total") > 0.0,
        "attempts were dropped on the link"
    );
    assert!(metric(&cluster, "xsearch_client_deadline_misses_total") >= 1.0);
    assert!(
        client.last_cost() >= Duration::from_millis(20),
        "backoff charges must have consumed the whole budget"
    );
}

#[test]
fn a_late_answer_fails_typed_at_its_deadline_whatever_the_wall_clock() {
    // The deadline lives on the modeled clock and is checked before each
    // attempt: with nothing spent, a 1 ns budget still admits the first
    // forward, and that forward runs to its answer however long the host
    // takes. The answer's own charge blows the deadline, so the search
    // fails typed, charged exactly the budget — one miss, no retry and
    // no re-attach, whatever the wall clock said.
    let deadline = Duration::from_nanos(1);
    let cluster = fleet_with(
        1,
        FaultSpec::default(),
        9,
        ResilienceConfig {
            deadline,
            ..Default::default()
        },
    );
    let mut client = ClusterClient::attach(&cluster, 0x1A5).unwrap();
    let err = client.search_echo(&cluster, "one nanosecond").unwrap_err();
    assert_eq!(err, ClusterError::DeadlineExceeded);
    assert_eq!(client.last_cost(), deadline);
    assert_eq!(metric(&cluster, "xsearch_client_reattaches_total"), 0.0);
    assert_eq!(metric(&cluster, "xsearch_client_retries_total"), 0.0);
    assert_eq!(
        metric(&cluster, "xsearch_client_deadline_misses_total"),
        1.0
    );
}

#[test]
fn a_failover_counts_its_retry_and_reattach_on_the_fleet_registry() {
    // What the policy stack did is counted once, fleet-wide: riding out
    // a killed replica is exactly one extra attempt and one
    // re-attestation, and a clean search adds neither.
    let cluster = fleet_with(4, FaultSpec::default(), 3, ResilienceConfig::default());
    let mut client = ClusterClient::attach(&cluster, 0xFA11).unwrap();
    client.search_echo(&cluster, "before").unwrap();
    assert_eq!(metric(&cluster, "xsearch_client_retries_total"), 0.0);
    assert_eq!(metric(&cluster, "xsearch_client_reattaches_total"), 0.0);
    cluster.kill(client.replica()).unwrap();
    let outcome = client.search_outcome(&cluster, "during", true).unwrap();
    assert_eq!(outcome.attempts, 2);
    assert_eq!(metric(&cluster, "xsearch_client_retries_total"), 1.0);
    assert_eq!(metric(&cluster, "xsearch_client_reattaches_total"), 1.0);
}

#[test]
fn a_stalled_replica_fails_typed_at_the_deadline_and_is_routed_around() {
    // Find where a known client seed lands, then stall that replica.
    let probe = fleet_with(4, FaultSpec::default(), 5, ResilienceConfig::default());
    let home = ClusterClient::attach(&probe, 0x4ED6E).unwrap().replica();
    drop(probe);

    let stall = Duration::from_secs(5);
    let deadline = Duration::from_secs(1);
    let cluster = fleet_with(
        4,
        FaultSpec {
            stalled: vec![home.0],
            stall,
            ..Default::default()
        },
        5,
        ResilienceConfig {
            deadline,
            ..Default::default()
        },
    );
    let mut client = ClusterClient::attach(&cluster, 0x4ED6E).unwrap();
    assert_eq!(
        client.replica(),
        home,
        "same seed, same affinity, same home"
    );
    // The stalled answer lands past the deadline: it is opened and
    // discarded, and the search fails typed, charged exactly the
    // deadline — never sent to a second enclave.
    let err = client
        .search_outcome(&cluster, "slow primary", true)
        .unwrap_err();
    assert_eq!(err, ClusterError::DeadlineExceeded);
    assert_eq!(client.last_cost(), deadline);
    assert_eq!(metric(&cluster, "xsearch_client_retries_total"), 0.0);
    assert_eq!(
        metric(&cluster, "xsearch_client_deadline_misses_total"),
        1.0
    );
    let holders: Vec<ReplicaId> = cluster
        .replica_ids()
        .into_iter()
        .filter(|&id| {
            cluster
                .with_replica(id, XSearchProxy::history_snapshot)
                .unwrap()
                .iter()
                .any(|q| q == "slow primary")
        })
        .collect();
    assert_eq!(holders, [home], "one enclave obfuscated the request");
    // Each late answer struck the stalled replica's breaker: enough of
    // them brown it out of routing entirely.
    for i in 0..4 {
        let _ = client.search_echo(&cluster, &format!("more q{i}"));
    }
    assert!(
        !cluster.breaker_allows(home),
        "repeated over-deadline answers must trip the stalled replica's breaker"
    );
    // With the breaker open the client re-homed: searches no longer pay
    // the stall at all.
    let rerouted = client
        .search_outcome(&cluster, "after reroute", true)
        .unwrap();
    assert!(rerouted.cost < deadline);
    assert_ne!(client.replica(), home);
}

#[test]
fn concurrent_sweeps_coalesce_to_one_scan() {
    let cluster = Arc::new(Cluster::launch(
        engine(),
        ClusterConfig {
            replicas: 4,
            ..Default::default()
        },
    ));
    let mut client = ClusterClient::attach(&cluster, 3).unwrap();
    client.search_echo(&cluster, "pre-kill window").unwrap();
    let victim = client.replica();
    cluster.kill(victim).unwrap();

    // A stampede of concurrent sweeps: every client notices the death
    // at once. Exactly one failover must be performed, and the fleet
    // must record that latecomers coalesced instead of rescanning.
    let total_reports: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cluster = Arc::clone(&cluster);
                scope.spawn(move || cluster.health_sweep().len())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(total_reports, 1, "exactly one sweeper migrates the window");
    let run = metric(&cluster, "xsearch_fleet_sweeps_run_total");
    let coalesced = metric(&cluster, "xsearch_fleet_sweeps_coalesced_total");
    assert_eq!(
        run + coalesced,
        8.0,
        "every call either scanned or coalesced"
    );
    assert!(run >= 1.0);
    // The drain is idempotent afterwards either way.
    assert!(cluster.health_sweep().is_empty());
}

#[test]
fn queue_pressure_never_changes_what_a_request_carries() {
    // Two identically seeded one-replica fleets with a warm window. One
    // serves a search while three of its four admission slots are held;
    // its twin serves the same search idle. k is what the enclave was
    // attested with, so the replies and every byte that crossed the
    // boundary (the `send` ocall carries the k+1 OR-joined sub-queries)
    // must match — a full queue sheds, it never thins the fakes.
    let id = ReplicaId(0);
    let fleet = || {
        let cluster = Cluster::launch(
            engine(),
            ClusterConfig {
                replicas: 1,
                queue_limit: 4,
                proxy: XSearchConfig {
                    k: 3,
                    history_capacity: 1 << 20,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        cluster
            .with_replica(id, |proxy| {
                proxy.seed_history(["hotel rome", "cruise deals", "diabetes symptoms", "jobs"]);
            })
            .unwrap();
        let client = ClusterClient::attach(&cluster, 77).unwrap();
        (cluster, client)
    };
    let boundary_bytes = |cluster: &Cluster| {
        cluster
            .with_replica(id, |proxy| {
                let stats = proxy.boundary();
                (stats.bytes_in(), stats.bytes_out())
            })
            .unwrap()
    };

    let (pressed, mut pressed_client) = fleet();
    let under_pressure = pressed
        .with_replica(id, |_| {
            pressed.with_replica(id, |_| {
                pressed.with_replica(id, |_| pressed_client.search(&pressed, "cheap flights"))
            })
        })
        .unwrap()
        .unwrap()
        .unwrap()
        .unwrap();

    let (idle, mut idle_client) = fleet();
    let unpressed = idle_client.search(&idle, "cheap flights").unwrap();

    assert!(
        !unpressed.is_empty(),
        "the probe query must match documents"
    );
    assert_eq!(
        boundary_bytes(&pressed),
        boundary_bytes(&idle),
        "pressure changed the bytes that crossed the enclave boundary"
    );
    assert_eq!(under_pressure, unpressed, "pressure changed the reply");
}

#[test]
fn same_fault_seed_replays_identically() {
    // The deterministic-replay property the CI gate enforces at bench
    // scale, in miniature: two fresh fleets, same fault seed, same
    // client seeds ⇒ identical per-search transcripts (outcome code,
    // modeled cost, attempt count).
    let transcript = |fault_seed: u64| -> Vec<String> {
        let cluster = fleet_with(
            3,
            FaultSpec {
                loss: 0.2,
                gray: vec![(1, 0.3)],
                spike_prob: 0.1,
                spike: Duration::from_millis(2),
                ..Default::default()
            },
            fault_seed,
            ResilienceConfig {
                deadline: Duration::from_millis(250),
                ..Default::default()
            },
        );
        let mut lines = Vec::new();
        for c in 0..3u64 {
            let mut client = ClusterClient::attach(&cluster, 0x7AB + c).unwrap();
            for i in 0..12 {
                let line = match client.search_outcome(&cluster, &format!("q{i}"), true) {
                    Ok(o) => format!(
                        "c{c} q{i} ok cost={}us attempts={}",
                        o.cost.as_micros(),
                        o.attempts
                    ),
                    Err(e) => format!("c{c} q{i} err={e}"),
                };
                lines.push(line);
            }
        }
        lines
    };
    let a = transcript(42);
    let b = transcript(42);
    assert_eq!(
        a, b,
        "same fault seed must replay to an identical transcript"
    );
    let c = transcript(43);
    assert_ne!(a, c, "a different fault seed must actually change the run");
}
