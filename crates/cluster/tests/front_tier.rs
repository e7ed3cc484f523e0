//! Acceptance tests for the event-driven front tier: deterministic
//! byte-identical replay in single-shard manual mode, and survival
//! under connect/disconnect churn.

use std::sync::Arc;
use std::time::Duration;
use xsearch_cluster::{
    Cluster, ClusterClient, ClusterConfig, ConnState, FaultPlan, FaultSpec, FramedClient,
    FrontConfig, FrontTier, ReplicaId,
};
use xsearch_core::config::XSearchConfig;
use xsearch_core::wire::{decode_conn_reply, encode_conn_request_into, ConnStatus};
use xsearch_core::Broker;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;
use xsearch_net_sim::{encode_frame_into, ByteStream, FrameDecoder, StreamError};
use xsearch_telemetry::{LabelValue, Snapshot};

fn fleet() -> Arc<Cluster> {
    let engine = Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 5,
        ..Default::default()
    }));
    Arc::new(Cluster::launch(
        engine,
        ClusterConfig {
            replicas: 4,
            proxy: XSearchConfig {
                k: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    ))
}

/// A hand-rolled raw framed session: broker + stream + reassembly, with
/// every reply's exact bytes exposed (what the replay gate compares).
struct RawSession {
    broker: Broker,
    stream: ByteStream,
    decoder: FrameDecoder,
}

impl RawSession {
    fn open(cluster: &Cluster, front: &FrontTier, seed: u64) -> RawSession {
        let (broker, _) = cluster.attach_routed(seed).unwrap();
        RawSession {
            broker,
            stream: front.accept(),
            decoder: FrameDecoder::new(),
        }
    }

    fn send(&mut self, front: &FrontTier, query: &str) {
        let ciphertext = self.broker.seal_query(query);
        let mut payload = Vec::new();
        encode_conn_request_into(
            self.broker.client_pub().as_bytes(),
            &ciphertext,
            true,
            &mut payload,
        );
        let mut framed = Vec::new();
        encode_frame_into(&payload, &mut framed);
        let mut written = 0;
        while written < framed.len() {
            match self.stream.write(&framed[written..]) {
                Ok(n) => written += n,
                Err(StreamError::WouldBlock) => {
                    front.step();
                }
                Err(StreamError::Closed) => panic!("front closed the connection"),
            }
        }
    }

    fn recv(&mut self, front: &FrontTier) -> Vec<u8> {
        for _ in 0..10_000 {
            front.step();
            self.decoder.read_from(&self.stream, 4096).ok();
            if let Some(frame) = self.decoder.next_frame().unwrap() {
                return frame.to_vec();
            }
        }
        panic!("no reply within the step budget");
    }
}

/// Runs a fixed interleaved workload against a fresh single-shard front
/// and returns every reply frame's raw bytes in arrival order.
fn transcript() -> Vec<Vec<u8>> {
    let cluster = fleet();
    let front = FrontTier::new(&cluster, FrontConfig::default());
    let mut sessions: Vec<RawSession> = (0..4)
        .map(|i| RawSession::open(&cluster, &front, 1000 + i))
        .collect();
    let mut replies = Vec::new();
    for round in 0..3 {
        for (i, session) in sessions.iter_mut().enumerate() {
            session.send(&front, &format!("client{i} round{round}"));
        }
        for session in &mut sessions {
            replies.push(session.recv(&front));
        }
    }
    replies
}

/// The determinism gate: one shard, manual stepping, fixed seeds — two
/// runs must produce byte-identical reply frames (sealed ciphertext and
/// all). This is what makes front-tier bugs replayable.
#[test]
fn single_shard_replay_is_byte_identical() {
    let first = transcript();
    let second = transcript();
    assert_eq!(first.len(), 12);
    assert_eq!(first, second, "replay diverged");
    for reply in &first {
        let (status, _) = decode_conn_reply(reply).unwrap();
        assert_eq!(status, ConnStatus::Ok);
    }
}

/// The paper's shape (§5.3.3): every served request is exactly one
/// `request` ecall, whatever the door — a blocking [`ClusterClient`], or
/// the front serving four framed sessions in flight in one step.
#[test]
fn every_served_request_is_one_request_ecall_whatever_the_door() {
    let engine = Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 5,
        ..Default::default()
    }));
    // No sealing cadence: the requests are the only ecalls left.
    let cluster = Arc::new(Cluster::launch(
        engine,
        ClusterConfig {
            replicas: 1,
            seal_every: usize::MAX,
            proxy: XSearchConfig {
                k: 2,
                ..Default::default()
            },
            ..Default::default()
        },
    ));
    let ecalls = || {
        cluster
            .with_replica(ReplicaId(0), |proxy| proxy.boundary().ecalls())
            .unwrap()
    };

    let mut client = ClusterClient::attach(&cluster, 1).unwrap();
    let before = ecalls();
    for i in 0..8 {
        client
            .search_echo(&cluster, &format!("blocking {i}"))
            .unwrap();
    }
    assert_eq!(ecalls() - before, 8, "blocking door");

    let front = FrontTier::new(&cluster, FrontConfig::default());
    let mut sessions: Vec<RawSession> = (0..4)
        .map(|i| RawSession::open(&cluster, &front, 100 + i))
        .collect();
    front.step();
    assert_eq!(front.connections(), 4);
    let before = ecalls();
    for (i, session) in sessions.iter_mut().enumerate() {
        session.send(&front, &format!("framed {i}"));
    }
    // One step decodes all four frames and answers every one of them.
    front.step();
    for session in &mut sessions {
        session.decoder.read_from(&session.stream, 4096).unwrap();
        let frame = session.decoder.next_frame().unwrap().expect("answered");
        let (status, payload) = decode_conn_reply(frame).unwrap();
        assert_eq!(status, ConnStatus::Ok);
        session.broker.open_results(payload).unwrap();
    }
    assert_eq!(ecalls() - before, 4, "framed door");
}

/// Connect/disconnect churn: waves of short-lived framed clients beside
/// a long-lived one; every session must be reclaimed and the survivor
/// must keep working.
#[test]
fn connection_churn_reclaims_sessions_and_keeps_survivors_working() {
    let cluster = fleet();
    let front = FrontTier::new(&cluster, FrontConfig::default());
    let mut survivor = FramedClient::connect(&cluster, &front, 9000).unwrap();
    survivor.search(&front, "warm", true).unwrap();
    for wave in 0..8u64 {
        let mut ephemeral: Vec<FramedClient> = (0..6)
            .map(|i| FramedClient::connect(&cluster, &front, 10_000 + wave * 10 + i).unwrap())
            .collect();
        for client in &mut ephemeral {
            client
                .search(&front, &format!("wave {wave}"), true)
                .unwrap();
        }
        // Half disconnect cleanly, half vanish mid-frame.
        for (i, client) in ephemeral.iter().enumerate() {
            if i % 2 == 0 {
                client.close();
            }
        }
        drop(ephemeral);
        for _ in 0..8 {
            front.step();
        }
        assert_eq!(front.connections(), 1, "wave {wave} leaked sessions");
        survivor
            .search(&front, &format!("still alive {wave}"), true)
            .unwrap();
    }
    assert_eq!(front.state_count(ConnState::Idle), 1);
    let (sessions, bytes) = front.account_idle();
    assert_eq!(sessions, 1);
    assert!(bytes <= xsearch_cluster::IDLE_SESSION_BYTE_BUDGET);
}

/// `(samples, minimum)` of the forward span in `snap`.
fn forward_span(snap: &Snapshot) -> (u64, u64) {
    let span = snap
        .histograms
        .iter()
        .find(|h| h.name == "xsearch_span_forward_us")
        .expect("the forward span is registered");
    (span.histogram.count(), span.histogram.min())
}

/// The fork this pins: the non-blocking ingress used to skip the forward
/// span, so framed requests never reached `xsearch_span_forward_us`.
/// Every served request — whichever driver carried it — is one forward
/// and one span sample.
#[test]
fn framed_echoes_record_the_forward_span_and_counter() {
    const N: u64 = 5;
    let cluster = fleet();
    let front = FrontTier::new(&cluster, FrontConfig::default());
    let mut client = FramedClient::connect(&cluster, &front, 4242).unwrap();
    let before = cluster.telemetry().snapshot();
    for i in 0..N {
        client
            .search(&front, &format!("framed echo {i}"), true)
            .unwrap();
    }
    let after = cluster.telemetry().snapshot();
    assert_eq!(
        forward_span(&after).0 - forward_span(&before).0,
        N,
        "one span sample per echo"
    );
    let forwards = |snap: &Snapshot| snap.value("xsearch_fleet_forwards_total", &[]).unwrap();
    assert_eq!(forwards(&after) - forwards(&before), N as f64);
}

/// The charge a framed request's span sample carries is the same
/// modeled one the blocking driver reports: injected stall plus hop.
#[test]
fn both_drivers_record_the_injected_stall_on_the_forward_span() {
    let stall = Duration::from_millis(3);
    let engine = Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 5,
        ..Default::default()
    }));
    let spec = FaultSpec {
        stalled: vec![0],
        stall,
        ..Default::default()
    };
    let cluster = Arc::new(Cluster::launch(
        engine,
        ClusterConfig {
            replicas: 1,
            faults: Some(Arc::new(FaultPlan::new(spec, 5, 1))),
            ..Default::default()
        },
    ));
    let front = FrontTier::new(&cluster, FrontConfig::default());
    let mut blocking = ClusterClient::attach(&cluster, 1).unwrap();
    let outcome = blocking.search_outcome(&cluster, "blocking", true).unwrap();
    assert!(outcome.cost >= stall);
    let mut framed = FramedClient::connect(&cluster, &front, 2).unwrap();
    framed.search(&front, "framed", true).unwrap();
    let (samples, min_us) = forward_span(&cluster.telemetry().snapshot());
    assert_eq!(samples, 2);
    assert!(
        u128::from(min_us) >= stall.as_micros(),
        "both samples carry the stall, min was {min_us} us"
    );
}

/// The front's event counts live on the registry: a served round trip
/// is one frame each way and its bytes.
#[test]
fn a_roundtrip_counts_frames_and_bytes_in_both_directions() {
    let cluster = fleet();
    let front = FrontTier::new(&cluster, FrontConfig::default());
    let mut client = FramedClient::connect(&cluster, &front, 8).unwrap();
    for query in ["one", "two", "three"] {
        client.search(&front, query, true).unwrap();
    }
    let snap = cluster.telemetry().snapshot();
    let direction = |name, dir| {
        snap.value(name, &[("direction", LabelValue::Static(dir))])
            .unwrap()
    };
    assert_eq!(direction("xsearch_front_frames_total", "in"), 3.0);
    assert_eq!(direction("xsearch_front_frames_total", "out"), 3.0);
    // Each request carries at least the 32-byte channel key, each reply
    // at least its status byte, both behind a length prefix.
    assert!(direction("xsearch_front_bytes_total", "in") > 3.0 * 32.0);
    assert!(direction("xsearch_front_bytes_total", "out") > 3.0);
}

/// The frame ceiling is a constant of the tier (1 MiB): one byte past
/// it is refused from the length prefix alone, before any payload is
/// buffered, with a typed answer and a close.
#[test]
fn an_oversized_frame_announcement_is_a_protocol_error_and_closes() {
    let cluster = fleet();
    let front = FrontTier::new(&cluster, FrontConfig::default());
    let stream = front.accept();
    stream.write(&((1u32 << 20) + 1).to_le_bytes()).unwrap();
    let mut decoder = FrameDecoder::new();
    for _ in 0..4 {
        front.step();
    }
    decoder.read_from(&stream, 4096).unwrap();
    let frame = decoder.next_frame().unwrap().expect("an error reply");
    let (status, payload) = decode_conn_reply(frame).unwrap();
    assert_eq!(status, ConnStatus::Protocol);
    assert!(payload.is_empty());
    front.step();
    assert_eq!(front.connections(), 0);
    let snap = cluster.telemetry().snapshot();
    assert_eq!(snap.value("xsearch_front_protocol_errors", &[]), Some(1.0));
}

/// Every series the fleet and the front exported before the stats
/// surfaces were folded into the registry is still exported, under the
/// same name and label set (`perf_ledger` and dashboards read them by
/// name).
#[test]
fn exported_series_names_and_labels_are_stable() {
    let cluster = fleet();
    let _front = FrontTier::new(&cluster, FrontConfig::default());
    let snap = cluster.telemetry().snapshot();
    let render = |name: &str, labels: &[(&'static str, LabelValue)]| {
        let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!("{name}{{{}}}", labels.join(","))
    };
    let exported: std::collections::HashSet<String> = snap
        .counters
        .iter()
        .chain(&snap.gauges)
        .map(|s| render(s.name, &s.labels))
        .chain(snap.histograms.iter().map(|h| render(h.name, &h.labels)))
        .collect();
    let expected = [
        "xsearch_fleet_forwards_total{}",
        "xsearch_fleet_link_loss_total{}",
        "xsearch_fleet_failovers_total{}",
        "xsearch_fleet_migrated_queries_total{}",
        "xsearch_client_retries_total{}",
        "xsearch_client_reattaches_total{}",
        "xsearch_client_deadline_misses_total{}",
        "xsearch_client_link_losses_total{}",
        "xsearch_fleet_sweeps_run_total{}",
        "xsearch_fleet_sweeps_coalesced_total{}",
        "xsearch_replica_inflight{replica=0}",
        "xsearch_replica_queue_high_water{replica=0}",
        "xsearch_replica_shed{replica=0}",
        "xsearch_replica_served{replica=0}",
        "xsearch_fleet_hop_delay_us{}",
        "xsearch_fleet_fault_delay_us{}",
        "xsearch_fleet_engine_delay_us{}",
        "xsearch_breaker_trips{}",
        "xsearch_front_connections{state=idle}",
        "xsearch_front_connections{state=reading}",
        "xsearch_front_connections{state=writing}",
        "xsearch_front_frames_total{direction=in}",
        "xsearch_front_frames_total{direction=out}",
        "xsearch_front_bytes_total{direction=in}",
        "xsearch_front_bytes_total{direction=out}",
        "xsearch_front_overloaded_replies{}",
        "xsearch_front_protocol_errors{}",
        "xsearch_front_torn_connections{}",
        "xsearch_front_timeouts_total{kind=handshake}",
        "xsearch_front_timeouts_total{kind=read_stall}",
        "xsearch_front_timeouts_total{kind=write_stall}",
        "xsearch_front_timeouts_total{kind=idle}",
        "xsearch_front_timeouts_total{kind=slowloris}",
        "xsearch_front_sheds_total{class=misbehaving}",
        "xsearch_front_sheds_total{class=unattested}",
        "xsearch_front_sheds_total{class=established}",
        "xsearch_front_quota_closes{}",
        "xsearch_front_strikes_total{}",
        "xsearch_front_quarantined_keys_total{}",
        "xsearch_front_quarantine_rejects{}",
        "xsearch_front_sessions_closed{}",
        "xsearch_front_idle_session_bytes{}",
        "xsearch_span_forward_us{}",
        "xsearch_span_backoff_us{}",
        "xsearch_span_request_us{}",
    ];
    for series in expected {
        assert!(exported.contains(series), "series {series} disappeared");
    }
}
