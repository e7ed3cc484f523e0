//! **Leakage guard**: the telemetry privacy partition, enforced by
//! canary injection.
//!
//! The enclave side of the trust boundary may export only
//! pre-registered aggregate series — never query strings, history
//! entries, or per-user identifiers. The typed
//! [`xsearch_telemetry::EnclaveScope`] API makes that true by
//! construction (`&'static str` names, numeric-only label values); this
//! suite makes it true by *observation*: canary query strings with
//! enough entropy to never occur by accident are sealed through a fully
//! instrumented fleet under injected faults, and every exported surface
//! — the fleet registry (Prometheus text and JSON), each replica's
//! enclave-side registry, and the flight-recorder dump — is scanned for
//! any canary substring.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use xsearch_cluster::resilience::ResilienceConfig;
use xsearch_cluster::{Cluster, ClusterClient, ClusterConfig, FaultPlan, FaultSpec};
use xsearch_core::config::XSearchConfig;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;

fn engine() -> Arc<SearchEngine> {
    Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 5,
        ..Default::default()
    }))
}

fn fleet_with(replicas: usize, spec: FaultSpec, fault_seed: u64) -> Cluster {
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
            resilience: ResilienceConfig {
                deadline: Duration::from_millis(250),
                ..Default::default()
            },
            faults: Some(Arc::new(FaultPlan::new(spec, fault_seed, replicas))),
            ..Default::default()
        },
    )
}

/// Every text a metrics consumer could ever read from this fleet:
/// `(surface name, rendered content)` pairs.
fn exported_surfaces(cluster: &Cluster) -> Vec<(String, String)> {
    let mut surfaces = Vec::new();
    let snap = cluster.telemetry().snapshot();
    surfaces.push(("fleet prometheus text".to_owned(), snap.render_prometheus()));
    surfaces.push(("fleet json snapshot".to_owned(), snap.render_json()));
    surfaces.push((
        "flight recorder dump".to_owned(),
        cluster.flight().dump().join("\n"),
    ));
    for id in cluster.replica_ids() {
        if let Ok(text) = cluster.with_replica(id, |proxy| {
            let snap = proxy.registry().snapshot();
            format!("{}\n{}", snap.render_prometheus(), snap.render_json())
        }) {
            surfaces.push((format!("replica {} enclave registry", id.0), text));
        }
    }
    surfaces
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Canary queries sealed through an instrumented fleet under faults
    /// never surface — as substring of any metric name, label, value,
    /// or flight-recorder event — while the instrumentation itself
    /// demonstrably ran (the aggregate request counter grew).
    #[test]
    fn canaries_never_reach_any_exported_surface(
        suffixes in proptest::collection::vec("[a-z]{10,16}", 4..8),
        loss in 0.0f64..0.35,
        fault_seed in 0u64..1_000,
    ) {
        let cluster = fleet_with(
            4,
            FaultSpec {
                loss,
                stalled: vec![0],
                stall: Duration::from_millis(200),
                ..Default::default()
            },
            fault_seed,
        );
        let canaries: Vec<String> = suffixes
            .iter()
            .enumerate()
            .map(|(i, s)| format!("canary{i}{s}"))
            .collect();
        for (i, canary) in canaries.iter().enumerate() {
            let mut client = ClusterClient::attach(&cluster, 0x5E7 + i as u64).unwrap();
            for round in 0..3 {
                // Failures are fine — a faulted attempt exercises the
                // retry, re-attach and deadline paths, which also must
                // not leak.
                let _ = client.search_echo(&cluster, &format!("{canary} round{round}"));
            }
        }
        cluster.health_sweep();

        let surfaces = exported_surfaces(&cluster);
        for (surface, text) in &surfaces {
            for canary in &canaries {
                prop_assert!(
                    !text.contains(canary.as_str()),
                    "canary {canary:?} leaked into the {surface}"
                );
            }
        }
        // Guard the guard: the scan must have covered a *live* export,
        // not a dark registry.
        prop_assert!(
            surfaces
                .iter()
                .any(|(_, text)| text.contains("xsearch_enclave_requests_total")),
            "enclave-side aggregate counters must be exported"
        );
        prop_assert!(
            surfaces
                .iter()
                .any(|(_, text)| text.contains("xsearch_fleet_forwards_total")),
            "fleet-side counters must be exported"
        );
    }
}

/// The enclave exports only its pre-registered aggregate series: every
/// name on the enclave-side surface is a known static, and running
/// queries changes values, never the name set.
#[test]
fn enclave_surface_is_the_preregistered_name_set() {
    let cluster = fleet_with(1, FaultSpec::default(), 3);
    let names_of = |cluster: &Cluster| -> Vec<&'static str> {
        cluster
            .with_replica(xsearch_cluster::ReplicaId(0), |proxy| {
                let snap = proxy.registry().snapshot();
                let mut names: Vec<&'static str> = snap
                    .counters
                    .iter()
                    .chain(&snap.gauges)
                    .map(|s| s.name)
                    .chain(snap.histograms.iter().map(|h| h.name))
                    .collect();
                names.sort_unstable();
                names
            })
            .expect("replica up")
    };
    let before = names_of(&cluster);
    let mut client = ClusterClient::attach(&cluster, 9).unwrap();
    for i in 0..5 {
        client
            .search_echo(&cluster, &format!("aggregate only q{i}"))
            .unwrap();
    }
    let after = names_of(&cluster);
    assert_eq!(
        before, after,
        "serving queries must never mint new enclave-side series"
    );
    for name in &after {
        assert!(
            name.starts_with("xsearch_"),
            "foreign series {name:?} on the enclave surface"
        );
    }
}

/// The flight recorder captures the fleet's resilience decisions
/// (crash, restart, failover) as structured numeric events.
#[test]
fn flight_recorder_captures_churn_events() {
    let cluster = fleet_with(4, FaultSpec::default(), 17);
    let mut client = ClusterClient::attach(&cluster, 21).unwrap();
    client.search_echo(&cluster, "pre-kill window").unwrap();
    let victim = client.replica();
    cluster.kill(victim).unwrap();
    cluster.health_sweep();
    cluster.restart(victim).unwrap();

    let dump = cluster.flight().dump().join("\n");
    assert!(dump.contains("crash"), "kill must be recorded: {dump}");
    assert!(dump.contains("failover"), "sweep must be recorded: {dump}");
    assert!(dump.contains("restart"), "restart must be recorded: {dump}");
}
