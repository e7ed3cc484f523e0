//! **Chaos drill**: availability of the enclave fleet under seeded,
//! deterministic fault scenarios.
//!
//! Every scenario drives the same closed-loop workload — `SESSIONS`
//! attested clients, one driver thread, unique tagged queries — against
//! an 8-replica fleet wired to a [`FaultPlan`]. All delays (hops,
//! stalls, backoff) are **accounted on the modeled clock, never
//! slept**, so a scenario with 5-second stalls finishes in wall-clock
//! seconds and, because every fault decision hashes a seed instead of
//! sampling wall-clock randomness, the same seed replays to an
//! identical per-request transcript — which this binary verifies and
//! CI gates on.
//!
//! Scenarios: baseline, 10% link loss, one stalled replica, the
//! acceptance scenario (one stalled replica + 10% loss), rolling
//! crash/restarts, and a fleet-wide partition window.
//!
//! Per scenario the summary records **goodput** (in-deadline completions
//! per modeled second, sessions progressing in parallel),
//! **availability** (fraction of requests answered within the deadline
//! budget), p99 modeled cost, policy counters, the enclave sessions
//! left alive (re-attaches must not accumulate them), the **zero-lost
//! check** — every acknowledged query must be present in the fleet's
//! merged history windows, so an answer the client decrypted can never
//! belong to a request the fleet later dropped — and the **exposure
//! check**: no query may sit in more than one replica window. The drill
//! runs echo mode, which sends nothing to the engine, so a window entry
//! is the record of one run of Algorithm 1; a request obfuscated twice,
//! with independent fakes, would hand the engine two OR-queries whose
//! intersection is the original. A stalled replica's late answer fails
//! the search at its deadline instead of being sent elsewhere again.
//!
//! Run: `cargo run -p xsearch-bench --release --bin chaos_drill`

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;
use xsearch_bench::summary::{fixed, replay_gate, Gate, Json, Obj, Summary};
use xsearch_bench::{echo_engine, EXPERIMENT_SEED};
use xsearch_cluster::resilience::ResilienceConfig;
use xsearch_cluster::{Cluster, ClusterClient, ClusterConfig, CrashEvent, FaultPlan, FaultSpec};
use xsearch_core::config::XSearchConfig;
use xsearch_engine::engine::SearchEngine;
use xsearch_telemetry::LabelValue;
use xsearch_telemetry::LatencyHistogram;

const REPLICAS: usize = 8;
/// Requests per scenario.
const REQUESTS: u64 = 2_000;
const SESSIONS: usize = 32;
const K: usize = 3;
/// The per-request deadline budget on the modeled clock. Hops are
/// ~0.5–1 ms, so a healthy request fits with two orders of margin while
/// a 5 s stall misses unambiguously.
const DEADLINE: Duration = Duration::from_millis(50);
const STALL: Duration = Duration::from_secs(5);

/// Goodput the stalled + lossy fleet must keep, as a share of baseline.
const GOODPUT_FLOOR: f64 = 0.7;

fn launch(engine: &Arc<SearchEngine>, spec: FaultSpec) -> Cluster {
    Cluster::launch(
        Arc::clone(engine),
        ClusterConfig {
            replicas: REPLICAS,
            // Seal after every request: an acknowledged answer is always
            // covered by a snapshot, which is what the zero-lost check
            // leans on across crashes.
            seal_every: 1,
            proxy: XSearchConfig {
                k: K,
                history_capacity: 1 << 20,
                ..Default::default()
            },
            seed: EXPERIMENT_SEED,
            resilience: ResilienceConfig {
                deadline: DEADLINE,
                backoff_base: Duration::from_micros(500),
                backoff_cap: Duration::from_millis(10),
            },
            faults: Some(Arc::new(FaultPlan::new(
                spec,
                EXPERIMENT_SEED ^ 0xC4A0,
                REPLICAS,
            ))),
            ..Default::default()
        },
    )
}

/// Per-scenario results.
struct ScenarioResult {
    name: &'static str,
    /// In-deadline completions per modeled second, with `SESSIONS`
    /// sessions progressing in parallel: the mean session spends
    /// `total_cost / SESSIONS` modeled seconds on its share.
    goodput_rps: f64,
    /// Acknowledged queries missing from the fleet's merged windows.
    lost: usize,
    /// The most replica windows any one query sits in.
    max_exposures: usize,
    /// Enclave sessions alive once the last request was answered.
    live_sessions: usize,
    /// The scenario's row in the summary.
    row: Obj,
    transcript: Vec<String>,
    /// The fleet's flight-recorder dump (breaker transitions,
    /// failovers, injected faults, deadline misses, sheds), kept past the
    /// cluster's teardown so failures can print the run's last events.
    flight: Vec<String>,
    /// The fleet's telemetry registry snapshot as JSON, embedded in the
    /// summary for the acceptance scenario.
    telemetry: String,
}

/// The fleet-wide counters each scenario reports, by summary key. This
/// scenario's clients are the fleet's only ones, so the registry's
/// counters are the scenario's totals.
const COUNTERS: &[(&str, &str)] = &[
    ("retries", "xsearch_client_retries_total"),
    ("reattaches", "xsearch_client_reattaches_total"),
    ("deadline_misses", "xsearch_client_deadline_misses_total"),
    ("link_losses", "xsearch_client_link_losses_total"),
    ("breaker_trips", "xsearch_breaker_trips"),
    ("sweeps_run", "xsearch_fleet_sweeps_run_total"),
    ("sweeps_coalesced", "xsearch_fleet_sweeps_coalesced_total"),
];

fn run_scenario(name: &'static str, engine: &Arc<SearchEngine>, spec: FaultSpec) -> ScenarioResult {
    let cluster = launch(engine, spec);
    let mut clients: Vec<ClusterClient> = (0..SESSIONS)
        .map(|i| ClusterClient::attach(&cluster, i as u64).expect("attach"))
        .collect();
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut available = 0u64;
    let mut total_cost = Duration::ZERO;
    let mut hist = LatencyHistogram::new();
    let mut acked: HashSet<String> = HashSet::new();
    let mut transcript = Vec::with_capacity(REQUESTS as usize);
    for i in 0..REQUESTS {
        let s = (i as usize) % SESSIONS;
        let query = format!("s{s} q{i}");
        let client = &mut clients[s];
        match client.search_outcome(&cluster, &query, true) {
            Ok(outcome) => {
                ok += 1;
                if outcome.cost <= DEADLINE {
                    available += 1;
                }
                total_cost += outcome.cost;
                hist.record(outcome.cost.as_micros() as u64);
                acked.insert(query);
                transcript.push(format!(
                    "{i}:ok:{}:{}",
                    outcome.cost.as_micros(),
                    outcome.attempts
                ));
            }
            Err(e) => {
                failed += 1;
                let cost = client.last_cost();
                total_cost += cost;
                hist.record(cost.as_micros() as u64);
                transcript.push(format!("{i}:err={e}:{}", cost.as_micros()));
            }
        }
    }
    let live_sessions = cluster.session_count();
    // Zero-lost check: drain anything dead, resurrect what is down, and
    // verify every acknowledged query survives in some replica's window
    // (migrated, restored, or still live). The windows count as a
    // multiset: how many of them hold a query is how many enclaves
    // obfuscated it.
    cluster.health_sweep();
    let mut merged: HashMap<String, usize> = HashMap::new();
    for id in cluster.replica_ids() {
        if !cluster.node(id).expect("known replica").is_up() {
            let _ = cluster.restart(id);
        }
        if let Ok(window) =
            cluster.with_replica(id, xsearch_core::proxy::XSearchProxy::history_snapshot)
        {
            for query in window {
                *merged.entry(query).or_default() += 1;
            }
        }
    }
    let lost = acked.iter().filter(|q| !merged.contains_key(*q)).count();
    let max_exposures = merged.values().copied().max().unwrap_or(0);
    let snap = cluster.telemetry().snapshot();
    let sheds: u64 = (0..REPLICAS as u64)
        .map(|r| {
            snap.value("xsearch_replica_shed", &[("replica", LabelValue::Int(r))])
                .unwrap_or(0.0) as u64
        })
        .sum();
    let span = total_cost.as_secs_f64() / SESSIONS as f64;
    let goodput_rps = available as f64 / span.max(1e-9);
    let availability = available as f64 / (ok + failed).max(1) as f64;
    let mut row = Obj::new()
        .field("name", name)
        .field("ok", ok)
        .field("failed", failed)
        .field("available", available)
        .field("availability", fixed(availability, 4))
        .field("goodput_rps", fixed(goodput_rps, 1))
        .field("p99_us", hist.quantile(0.99))
        .field("mean_cost_us", fixed(hist.mean(), 1));
    for &(key, metric) in COUNTERS {
        row = row.field(key, snap.value(metric, &[]).unwrap_or(0.0) as u64);
    }
    let row = row
        .field("sheds", sheds)
        .field("acked", acked.len())
        .field("lost", lost)
        .field("max_exposures", max_exposures)
        .field("live_sessions", live_sessions);
    ScenarioResult {
        name,
        goodput_rps,
        lost,
        max_exposures,
        live_sessions,
        row,
        transcript,
        flight: cluster.flight().dump(),
        telemetry: snap.render_json(),
    }
}

/// Prints a scenario's flight-recorder dump to stderr — the forensic
/// trail a failing gate leaves behind instead of a bare exit code.
fn dump_flight(label: &str, events: &[String]) {
    eprintln!("flight recorder ({label}): {} event(s)", events.len());
    for line in events {
        eprintln!("  {line}");
    }
}

/// Which replica session 0 homes on — the stall/crash victim, found on
/// a probe fleet so the faulted fleets can name it in their specs.
fn probe_victim(engine: &Arc<SearchEngine>) -> usize {
    let cluster = launch(engine, FaultSpec::default());
    ClusterClient::attach(&cluster, 0)
        .expect("probe attach")
        .replica()
        .0
}

fn main() {
    let engine = echo_engine();
    let victim = probe_victim(&engine);
    eprintln!("chaos drill: {REQUESTS} requests/scenario, victim replica {victim}");

    let stall_spec = |loss: f64| FaultSpec {
        loss,
        stalled: vec![victim],
        stall: STALL,
        ..Default::default()
    };
    // Rolling restarts: three replicas (skipping the probe victim so
    // scenario effects stay separable) crash and come back on a
    // staggered op schedule.
    let rolling = FaultSpec {
        crashes: (1..=3u64)
            .map(|n| CrashEvent {
                at_op: REQUESTS * n / 4,
                replica: (victim + n as usize) % REPLICAS,
                restart_at: Some(REQUESTS * n / 4 + REQUESTS / 10),
            })
            .collect(),
        ..Default::default()
    };
    let partition = FaultSpec {
        partitions: vec![(2 * REQUESTS / 5, 2 * REQUESTS / 5 + REQUESTS / 5)],
        ..Default::default()
    };

    let mut results = Vec::new();
    for (name, spec) in [
        ("baseline", FaultSpec::default()),
        (
            "loss10",
            FaultSpec {
                loss: 0.10,
                ..Default::default()
            },
        ),
        ("stall_one", stall_spec(0.0)),
        ("stall_one_loss10", stall_spec(0.10)),
        ("rolling_restart", rolling),
        ("partition", partition),
    ] {
        eprintln!("scenario {name}...");
        results.push(run_scenario(name, &engine, spec));
    }
    let by_name = |name: &str| results.iter().find(|r| r.name == name);
    let find = |name: &str| by_name(name).expect("scenario ran");
    let baseline = find("baseline");
    let degraded = find("stall_one_loss10");
    let ratio = degraded.goodput_rps / baseline.goodput_rps.max(1e-9);

    let mut summary = Summary::new("chaos");
    summary.row("requests", REQUESTS);
    summary.row("sessions", SESSIONS);
    summary.row("replicas", REPLICAS);
    summary.row("deadline_ms", DEADLINE.as_millis() as u64);
    summary.row("stall_ms", STALL.as_millis() as u64);
    let rows = results.iter().map(|r| r.row.clone());
    summary.row("scenarios", rows.collect::<Json>());
    // Acceptance: the stalled + lossy fleet keeps most of its baseline
    // goodput, every acknowledged query is still in a fleet window, its
    // re-attaches left one session per client behind, and no scenario
    // put any query in two replica windows.
    let sustained = summary.gate(Gate::at_least("goodput_ratio", ratio, GOODPUT_FLOOR));
    let kept = summary.gate(Gate::at_most("acked_lost", degraded.lost as f64, 0.0));
    summary.gate(Gate::at_most(
        "live_sessions",
        degraded.live_sessions as f64,
        SESSIONS as f64,
    ));
    let exposures = results.iter().map(|r| r.max_exposures).max().unwrap_or(0);
    summary.gate(Gate::at_most("max_exposures", exposures as f64, 1.0));
    let acceptance = Obj::new()
        .field("baseline_goodput_rps", fixed(baseline.goodput_rps, 1))
        .field("degraded_goodput_rps", fixed(degraded.goodput_rps, 1))
        .field("ratio", fixed(ratio, 4))
        .field("threshold", GOODPUT_FLOOR)
        .field("pass", sustained && kept)
        .field("acked_lost", degraded.lost);
    summary.row("acceptance", acceptance);
    summary.row("acceptance_flight_events", degraded.flight.len());
    let telemetry = Json::Raw(degraded.telemetry.clone());
    summary.row("acceptance_telemetry", telemetry);

    // Deterministic-replay gate: the acceptance scenario, re-run on
    // fresh fleets with the same fault seed, must produce a
    // byte-identical per-request transcript.
    eprintln!("replaying stall_one_loss10 for the determinism gate...");
    let mut replay_flights = Vec::new();
    let replay = replay_gate("replay_deterministic", || {
        let run = run_scenario(degraded.name, &engine, stall_spec(0.10));
        replay_flights.push(run.flight);
        run.transcript
    });
    summary.row("replay", Obj::new().field("deterministic", replay.pass));
    summary.gate(replay);
    summary.finish(|| {
        dump_flight(degraded.name, &degraded.flight);
        for flight in &replay_flights {
            dump_flight("replay run", flight);
        }
    });
}
