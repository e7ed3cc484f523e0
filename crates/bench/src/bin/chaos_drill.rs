//! **Chaos drill**: availability of the enclave fleet under seeded,
//! deterministic fault scenarios, with and without the resilience
//! policy stack.
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
//! acceptance pair (one stalled replica + 10% loss, policies ON and
//! OFF), rolling crash/restarts, and a fleet-wide partition window.
//!
//! Per scenario the summary records **goodput** (in-deadline completions
//! per modeled second, sessions progressing in parallel),
//! **availability** (fraction of requests answered within the deadline
//! budget), p99 modeled cost, policy counters, and the **zero-lost
//! check**: every acknowledged query must be present in the fleet's
//! merged history windows — an answer the client decrypted can never
//! belong to a request the fleet later dropped.
//!
//! Env knobs: `CHAOS_REQUESTS` scales the per-scenario request count
//! (CI smoke uses a few hundred); `BENCH_CHAOS_JSON` overrides the
//! summary path.
//!
//! Run: `cargo run -p xsearch-bench --release --bin chaos_drill`

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;
use xsearch_bench::summary::write_summary;
use xsearch_bench::EXPERIMENT_SEED;
use xsearch_cluster::resilience::ResilienceConfig;
use xsearch_cluster::{
    Cluster, ClusterClient, ClusterConfig, CrashEvent, FaultPlan, FaultSpec, PlacementPolicy,
};
use xsearch_core::config::XSearchConfig;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;
use xsearch_metrics::LatencyHistogram;
use xsearch_telemetry::LabelValue;

const REPLICAS: usize = 8;
const SESSIONS: usize = 32;
const K: usize = 3;
/// The per-request deadline budget on the modeled clock. Hops are
/// ~0.5–1 ms, so a healthy request fits with two orders of margin while
/// a 5 s stall misses unambiguously.
const DEADLINE: Duration = Duration::from_millis(50);
const STALL: Duration = Duration::from_secs(5);

fn requests() -> u64 {
    std::env::var("CHAOS_REQUESTS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(2_000)
}

fn engine() -> Arc<SearchEngine> {
    Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 5,
        ..Default::default()
    }))
}

fn policies_on() -> ResilienceConfig {
    ResilienceConfig {
        enabled: true,
        deadline: DEADLINE,
        backoff_base: Duration::from_micros(500),
        backoff_cap: Duration::from_millis(10),
        breaker_threshold: 3,
        breaker_cooldown_ops: 512,
        hedge: true,
        hedge_after: None,
        degrade: true,
    }
}

fn launch(engine: &Arc<SearchEngine>, spec: FaultSpec, rcfg: ResilienceConfig) -> Cluster {
    Cluster::launch(
        Arc::clone(engine),
        ClusterConfig {
            replicas: REPLICAS,
            placement: PlacementPolicy::ConsistentHash,
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
            resilience: rcfg,
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
    policies: bool,
    ok: u64,
    failed: u64,
    available: u64,
    total_cost: Duration,
    p99_us: u64,
    mean_cost_us: f64,
    retries: u64,
    reattaches: u64,
    hedges_fired: u64,
    hedges_won: u64,
    deadline_misses: u64,
    link_losses: u64,
    breaker_trips: u64,
    sweeps_run: u64,
    sweeps_coalesced: u64,
    degraded_served: u64,
    sheds: u64,
    acked: usize,
    lost: usize,
    transcript: Vec<String>,
    /// The fleet's flight-recorder dump (breaker transitions, hedges,
    /// failovers, injected faults, degrade steps), kept past the
    /// cluster's teardown so failures can print the run's last events.
    flight: Vec<String>,
    /// The fleet's telemetry registry snapshot as JSON, embedded in the
    /// summary for the acceptance scenario.
    telemetry: String,
}

impl ScenarioResult {
    fn availability(&self) -> f64 {
        self.available as f64 / (self.ok + self.failed).max(1) as f64
    }

    /// In-deadline completions per modeled second, with `SESSIONS`
    /// sessions progressing in parallel: the mean session spends
    /// `total_cost / SESSIONS` modeled seconds on its share.
    fn goodput_rps(&self) -> f64 {
        let span = self.total_cost.as_secs_f64() / SESSIONS as f64;
        self.available as f64 / span.max(1e-9)
    }
}

fn run_scenario(
    name: &'static str,
    engine: &Arc<SearchEngine>,
    spec: FaultSpec,
    policies: bool,
) -> ScenarioResult {
    let rcfg = if policies {
        policies_on()
    } else {
        ResilienceConfig::disabled()
    };
    let cluster = launch(engine, spec, rcfg);
    let mut clients: Vec<ClusterClient> = (0..SESSIONS)
        .map(|i| ClusterClient::attach(&cluster, i as u64).expect("attach"))
        .collect();
    let total = requests();
    let mut ok = 0u64;
    let mut failed = 0u64;
    let mut available = 0u64;
    let mut total_cost = Duration::ZERO;
    let mut hist = LatencyHistogram::new();
    let mut acked: HashSet<String> = HashSet::new();
    let mut transcript = Vec::with_capacity(total as usize);
    for i in 0..total {
        let s = (i as usize) % SESSIONS;
        let query = format!("s{s} q{i}");
        let client = &mut clients[s];
        match client.search_echo_outcome(&cluster, &query) {
            Ok(outcome) => {
                ok += 1;
                if outcome.cost <= DEADLINE {
                    available += 1;
                }
                total_cost += outcome.cost;
                hist.record(outcome.cost.as_micros() as u64);
                acked.insert(query);
                transcript.push(format!(
                    "{i}:ok:{}:{}:{}",
                    outcome.cost.as_micros(),
                    outcome.attempts,
                    u8::from(outcome.hedged)
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
    // Zero-lost check: drain anything dead, resurrect what is down, and
    // verify every acknowledged query survives in some replica's window
    // (migrated, restored, or still live).
    cluster.health_sweep();
    let mut merged: HashSet<String> = HashSet::new();
    for id in cluster.replica_ids() {
        if !cluster.node(id).expect("known replica").is_up() {
            let _ = cluster.restart(id);
        }
        if let Ok(window) =
            cluster.with_replica(id, xsearch_core::proxy::XSearchProxy::history_snapshot)
        {
            merged.extend(window);
        }
    }
    let lost = acked.iter().filter(|q| !merged.contains(*q)).count();
    // This scenario's clients are the fleet's only ones, so the
    // registry's fleet-wide counters are the scenario's totals.
    let snap = cluster.telemetry().snapshot();
    let counter = |name: &str| snap.value(name, &[]).unwrap_or(0.0) as u64;
    ScenarioResult {
        name,
        policies,
        ok,
        failed,
        available,
        total_cost,
        p99_us: hist.quantile(0.99),
        mean_cost_us: hist.mean(),
        retries: counter("xsearch_client_retries_total"),
        reattaches: counter("xsearch_client_reattaches_total"),
        hedges_fired: counter("xsearch_client_hedges_fired_total"),
        hedges_won: counter("xsearch_client_hedges_won_total"),
        deadline_misses: counter("xsearch_client_deadline_misses_total"),
        link_losses: counter("xsearch_client_link_losses_total"),
        breaker_trips: counter("xsearch_breaker_trips"),
        sweeps_run: counter("xsearch_fleet_sweeps_run_total"),
        sweeps_coalesced: counter("xsearch_fleet_sweeps_coalesced_total"),
        degraded_served: counter("xsearch_fleet_degraded_served"),
        sheds: (0..REPLICAS as u64)
            .map(|r| {
                snap.value("xsearch_replica_shed", &[("replica", LabelValue::Int(r))])
                    .unwrap_or(0.0) as u64
            })
            .sum(),
        acked: acked.len(),
        lost,
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
    let cluster = launch(engine, FaultSpec::default(), policies_on());
    ClusterClient::attach(&cluster, 0)
        .expect("probe attach")
        .replica()
        .0
}

fn render_summary(results: &[ScenarioResult], replayed: bool) -> String {
    let baseline = results
        .iter()
        .find(|r| r.name == "baseline")
        .expect("baseline ran");
    let degraded = results
        .iter()
        .find(|r| r.name == "stall_one_loss10")
        .expect("acceptance scenario ran");
    let nopolicy = results
        .iter()
        .find(|r| r.name == "stall_one_loss10_nopolicy")
        .expect("collapse scenario ran");
    let ratio = degraded.goodput_rps() / baseline.goodput_rps().max(1e-9);
    let collapse = nopolicy.goodput_rps() / baseline.goodput_rps().max(1e-9);
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"requests\": {}, \"sessions\": {SESSIONS}, \"replicas\": {REPLICAS}, \"deadline_ms\": {}, \"stall_ms\": {},",
        requests(),
        DEADLINE.as_millis(),
        STALL.as_millis()
    );
    out.push_str("  \"scenarios\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"policies\": {}, \"ok\": {}, \"failed\": {}, \"available\": {}, \"availability\": {:.4}, \"goodput_rps\": {:.1}, \"p99_us\": {}, \"mean_cost_us\": {:.1}, \"retries\": {}, \"reattaches\": {}, \"hedges_fired\": {}, \"hedges_won\": {}, \"deadline_misses\": {}, \"link_losses\": {}, \"breaker_trips\": {}, \"sweeps_run\": {}, \"sweeps_coalesced\": {}, \"degraded_served\": {}, \"sheds\": {}, \"acked\": {}, \"lost\": {}}}",
            r.name,
            r.policies,
            r.ok,
            r.failed,
            r.available,
            r.availability(),
            r.goodput_rps(),
            r.p99_us,
            r.mean_cost_us,
            r.retries,
            r.reattaches,
            r.hedges_fired,
            r.hedges_won,
            r.deadline_misses,
            r.link_losses,
            r.breaker_trips,
            r.sweeps_run,
            r.sweeps_coalesced,
            r.degraded_served,
            r.sheds,
            r.acked,
            r.lost
        );
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"acceptance\": {{\"baseline_goodput_rps\": {:.1}, \"degraded_goodput_rps\": {:.1}, \"ratio\": {:.4}, \"threshold\": 0.7, \"pass\": {}, \"degraded_lost\": {}, \"nopolicy_goodput_rps\": {:.1}, \"collapse_ratio\": {:.6}}},",
        baseline.goodput_rps(),
        degraded.goodput_rps(),
        ratio,
        ratio >= 0.7 && degraded.lost == 0,
        degraded.lost,
        nopolicy.goodput_rps(),
        collapse
    );
    let _ = writeln!(
        out,
        "  \"acceptance_flight_events\": {},",
        degraded.flight.len()
    );
    let _ = writeln!(
        out,
        "  \"acceptance_telemetry\": {},",
        degraded.telemetry.trim_end()
    );
    let _ = writeln!(out, "  \"replay\": {{\"deterministic\": {replayed}}}");
    out.push_str("}\n");
    out
}

fn main() {
    let engine = engine();
    let victim = probe_victim(&engine);
    let total = requests();
    eprintln!("chaos drill: {total} requests/scenario, victim replica {victim}");

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
                at_op: total * n / 4,
                replica: (victim + n as usize) % REPLICAS,
                restart_at: Some(total * n / 4 + total / 10),
            })
            .collect(),
        ..Default::default()
    };
    let partition = FaultSpec {
        partitions: vec![(2 * total / 5, 2 * total / 5 + total / 5)],
        ..Default::default()
    };

    let mut results = Vec::new();
    for (name, spec, policies) in [
        ("baseline", FaultSpec::default(), true),
        (
            "loss10",
            FaultSpec {
                loss: 0.10,
                ..Default::default()
            },
            true,
        ),
        ("stall_one", stall_spec(0.0), true),
        ("stall_one_loss10", stall_spec(0.10), true),
        ("stall_one_loss10_nopolicy", stall_spec(0.10), false),
        ("rolling_restart", rolling, true),
        ("partition", partition, true),
    ] {
        eprintln!(
            "scenario {name} (policies {})...",
            if policies { "on" } else { "off" }
        );
        results.push(run_scenario(name, &engine, spec, policies));
    }

    // Deterministic-replay gate: the acceptance scenario, re-run on a
    // fresh fleet with the same fault seed, must produce a byte-identical
    // per-request transcript.
    eprintln!("replaying stall_one_loss10 for the determinism gate...");
    let replay = run_scenario("stall_one_loss10", &engine, stall_spec(0.10), true);
    let original = &results
        .iter()
        .find(|r| r.name == "stall_one_loss10")
        .expect("ran")
        .transcript;
    if *original != replay.transcript {
        let first_diff = original
            .iter()
            .zip(&replay.transcript)
            .position(|(a, b)| a != b);
        eprintln!(
            "FAIL: chaos transcript diverged between identical seeds (first diff at {first_diff:?})"
        );
        let first = results
            .iter()
            .find(|r| r.name == "stall_one_loss10")
            .expect("ran");
        dump_flight("original run", &first.flight);
        dump_flight("replay run", &replay.flight);
        std::process::exit(1);
    }

    let summary = render_summary(&results, true);
    write_summary("BENCH_CHAOS_JSON", "BENCH_chaos.json", &summary);

    println!();
    println!("# chaos drill (availability = completed within {DEADLINE:?} on the modeled clock)");
    for r in &results {
        println!(
            "{:<28} policies={} goodput={:>10.1} rps availability={:.3} p99={:>9}us lost={} hedges={}/{} trips={}",
            r.name,
            u8::from(r.policies),
            r.goodput_rps(),
            r.availability(),
            r.p99_us,
            r.lost,
            r.hedges_won,
            r.hedges_fired,
            r.breaker_trips
        );
    }
    let baseline = results.iter().find(|r| r.name == "baseline").unwrap();
    let degraded = results
        .iter()
        .find(|r| r.name == "stall_one_loss10")
        .unwrap();
    let nopolicy = results
        .iter()
        .find(|r| r.name == "stall_one_loss10_nopolicy")
        .unwrap();
    let ratio = degraded.goodput_rps() / baseline.goodput_rps().max(1e-9);
    println!();
    println!(
        "acceptance: stalled+lossy fleet sustains {:.1}% of baseline goodput with {} lost requests (threshold: >=70%, zero lost)",
        ratio * 100.0,
        degraded.lost
    );
    println!(
        "collapse:   the same scenario without policies reaches {:.2}% of baseline goodput",
        (nopolicy.goodput_rps() / baseline.goodput_rps().max(1e-9)) * 100.0
    );
    if degraded.lost > 0 {
        eprintln!(
            "FAIL: {} acknowledged requests missing from the fleet windows",
            degraded.lost
        );
        dump_flight(degraded.name, &degraded.flight);
        std::process::exit(1);
    }
}
