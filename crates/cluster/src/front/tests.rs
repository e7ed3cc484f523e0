//! Socket-level tests of the front tier: the wiring the policy table in
//! `survival.rs` cannot check.

use super::survival::{Limits, HARDENED};
use super::*;
use crate::error::ClusterError;
use crate::fleet::ClusterConfig;
use std::time::Duration;
use xsearch_core::config::XSearchConfig;
use xsearch_core::wire::{decode_conn_reply, encode_conn_request_into, ConnStatus};
use xsearch_core::Broker;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;
use xsearch_net_sim::fault::FaultPlan;
use xsearch_net_sim::{encode_frame_into, FrameDecoder, StreamError};

/// A fleet with room in its queues behind a front under `survival`.
fn rig(survival: SurvivalConfig) -> (Arc<Cluster>, FrontTier) {
    let cluster = fleet_under(256, None);
    let front = FrontTier::new(&cluster, FrontConfig { survival });
    (cluster, front)
}

/// The same behind the hardened profile with `tune` lowering a limit or
/// two, so a test reaches its defense in a few ticks.
fn defended(tune: impl FnOnce(&mut Limits)) -> (Arc<Cluster>, FrontTier) {
    let mut limits = HARDENED;
    tune(&mut limits);
    rig(SurvivalConfig(Some(limits)))
}

fn fleet_under(queue_limit: usize, faults: Option<Arc<FaultPlan>>) -> Arc<Cluster> {
    let engine = Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 5,
        ..Default::default()
    }));
    Arc::new(Cluster::launch(
        engine,
        ClusterConfig {
            replicas: 4,
            queue_limit,
            proxy: XSearchConfig {
                k: 2,
                ..Default::default()
            },
            faults,
            ..Default::default()
        },
    ))
}

/// `xsearch_front_<what>` (with its one label, if it has one) read
/// back out of the registry.
fn metric(cluster: &Cluster, what: &str, label: Option<(&'static str, &'static str)>) -> f64 {
    let labels: Vec<_> = label
        .iter()
        .map(|&(k, v)| (k, LabelValue::Static(v)))
        .collect();
    let snap = cluster.telemetry().snapshot();
    snap.value(&format!("xsearch_front_{what}"), &labels)
        .expect("a registered front series")
}

fn timeouts(cluster: &Cluster, kind: &'static str) -> f64 {
    metric(cluster, "timeouts_total", Some(("kind", kind)))
}

fn sheds(cluster: &Cluster, class: &'static str) -> f64 {
    metric(cluster, "sheds_total", Some(("class", class)))
}

fn steps(front: &FrontTier, n: usize) {
    for _ in 0..n {
        front.step();
    }
}

/// Seals `query` and wraps it in a complete request frame.
fn raw_request(broker: &mut Broker, query: &str, echo: bool) -> Vec<u8> {
    let ciphertext = broker.seal_query(query);
    let mut payload = Vec::new();
    encode_conn_request_into(
        broker.client_pub().as_bytes(),
        &ciphertext,
        echo,
        &mut payload,
    );
    let mut framed = Vec::new();
    encode_frame_into(&payload, &mut framed);
    framed
}

#[test]
fn framed_echo_roundtrips_and_reuses_the_connection() {
    let (cluster, front) = rig(SurvivalConfig::default());
    let mut client = FramedClient::connect(&cluster, &front, 7).unwrap();
    // Echo replies carry an empty result list by design; opening
    // them at all proves the end-to-end AEAD path.
    client.search(&front, "cheap flights", true).unwrap();
    // Same connection, second request (state machine returned to Idle).
    client.search(&front, "hotel rome", true).unwrap();
    assert_eq!(front.connections(), 1);
    assert_eq!(front.state_count(ConnState::Idle), 1);
}

#[test]
fn framed_search_runs_the_real_engine_path() {
    let (cluster, front) = rig(SurvivalConfig::default());
    let mut client = FramedClient::connect(&cluster, &front, 11).unwrap();
    // k-obfuscated search returns the filtered result set; it may be
    // empty for an off-corpus query but must decrypt — exercised by
    // getting past the `unwrap` without a Crypto error.
    client.search(&front, "topic0 doc", false).unwrap();
}

#[test]
fn overload_returns_a_framed_error_and_reattach_recovers() {
    let cluster = fleet_under(1, None);
    let front = FrontTier::new(&cluster, FrontConfig::default());
    let mut client = FramedClient::connect(&cluster, &front, 21).unwrap();
    let replica = client.replica();
    // Occupy the single admission slot out-of-band: the next framed
    // request must be shed, not queued.
    let node = Arc::clone(cluster.node(replica).unwrap());
    assert!(node.try_enter(1));
    let err = client.search(&front, "shed me", true).unwrap_err();
    assert!(matches!(err, ClusterError::Overloaded(_)), "got {err:?}");
    assert_eq!(metric(&cluster, "overloaded_replies", None), 1.0);
    node.exit();
    // The shed request advanced the session's send counter past what
    // the enclave saw: re-attest, then the path works again.
    client.reattach(&cluster).unwrap();
    client.search(&front, "after shed", true).unwrap();
}

#[test]
fn peer_vanishing_mid_frame_counts_torn_and_frees_the_slot() {
    let (cluster, front) = rig(SurvivalConfig::default());
    let stream = front.accept();
    front.step();
    assert_eq!(front.connections(), 1);
    // Half a header, then gone.
    stream.write(&[0xAB, 0xCD]).unwrap();
    front.step();
    stream.close();
    front.step();
    assert_eq!(metric(&cluster, "torn_connections", None), 1.0);
    assert_eq!(front.connections(), 0);
}

#[test]
fn malformed_request_gets_a_protocol_error_then_the_connection_closes() {
    let (_cluster, front) = rig(SurvivalConfig::default());
    let stream = front.accept();
    // A complete frame that is not a valid request (too short).
    let mut framed = Vec::new();
    encode_frame_into(b"junk", &mut framed);
    stream.write(&framed).unwrap();
    let (status, payload) = read_reply(&front, &stream);
    assert_eq!(status, ConnStatus::Protocol);
    assert!(payload.is_empty());
    front.step();
    assert_eq!(front.connections(), 0, "close_after_flush tears down");
}

#[test]
fn pipelined_requests_are_answered_in_order_with_reads_paused_inflight() {
    let (cluster, front) = rig(SurvivalConfig::default());
    // Hand-rolled raw session so two requests can be written
    // back-to-back (FramedClient enforces one in flight).
    let mut broker = attach(&cluster, 33);
    let stream = front.accept();
    let mut burst = raw_request(&mut broker, "first", true);
    burst.extend_from_slice(&raw_request(&mut broker, "second", true));
    write_all(&front, &stream, &burst);
    let mut decoder = FrameDecoder::new();
    let mut replies = Vec::new();
    for _ in 0..1000 {
        front.step();
        decoder.read_from(&stream, 4096).ok();
        while let Some(frame) = decoder.next_frame().unwrap() {
            replies.push(frame.to_vec());
        }
        if replies.len() == 2 {
            break;
        }
    }
    assert_eq!(replies.len(), 2, "both pipelined requests answered");
    for (i, reply) in replies.iter().enumerate() {
        let (status, payload) = decode_conn_reply(reply).unwrap();
        assert_eq!(status, ConnStatus::Ok, "reply {i}");
        // In-order: opening with the session's receive counter only
        // works if replies came back in request order.
        broker.open_results(payload).unwrap();
    }
}

/// Attaches a broker session out-of-band (the way [`FramedClient`]
/// does) so tests can drive raw framed connections.
fn attach(cluster: &Cluster, seed: u64) -> Broker {
    cluster.attach_routed(seed).unwrap().0
}

fn write_all(front: &FrontTier, stream: &ByteStream, bytes: &[u8]) {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(n) => written += n,
            Err(StreamError::WouldBlock) => {
                front.step();
            }
            Err(StreamError::Closed) => panic!("front closed the connection"),
        }
    }
}

/// Sends one sealed echo request down `stream` and waits for the answer.
fn ask(
    front: &FrontTier,
    stream: &ByteStream,
    broker: &mut Broker,
    query: &str,
) -> (ConnStatus, Vec<u8>) {
    write_all(front, stream, &raw_request(broker, query, true));
    read_reply(front, stream)
}

fn read_reply(front: &FrontTier, stream: &ByteStream) -> (ConnStatus, Vec<u8>) {
    let mut decoder = FrameDecoder::new();
    for _ in 0..1000 {
        front.step();
        let _ = decoder.read_from(stream, 4096);
        if let Some(frame) = decoder.next_frame().unwrap() {
            let (status, payload) = decode_conn_reply(frame).unwrap();
            return (status, payload.to_vec());
        }
    }
    panic!("no reply within the step budget");
}

#[test]
fn a_connection_that_changes_channel_key_is_routed_by_each_frames_key() {
    let (cluster, front) = rig(SurvivalConfig::default());
    let home = |seed| {
        cluster
            .route(Broker::client_pub_for_seed(seed).as_bytes())
            .unwrap()
    };
    let other = (2..64)
        .find(|&seed| home(seed) != home(1))
        .expect("four replicas share 63 keys");
    // The ring coordinate is kept per connection: a frame under
    // another key must not ride the previous key's coordinate to a
    // replica that holds no such session (→ `UnknownSession`).
    let mut brokers = [attach(&cluster, 1), attach(&cluster, other)];
    let stream = front.accept();
    for turn in [0, 1, 0, 0, 1] {
        let (status, payload) = ask(&front, &stream, &mut brokers[turn], "switch");
        assert_eq!(status, ConnStatus::Ok, "turn under key {turn}");
        brokers[turn].open_results(&payload).unwrap();
    }
}

#[test]
fn handshake_deadline_reaps_a_silent_connection() {
    let (cluster, front) = defended(|l| l.handshake_deadline = 5);
    let stream = front.accept();
    front.step();
    assert_eq!(front.connections(), 1);
    steps(&front, 8);
    assert_eq!(front.connections(), 0);
    assert_eq!(timeouts(&cluster, "handshake"), 1.0);
    let mut buf = [0u8; 8];
    assert!(
        matches!(stream.read(&mut buf), Ok(0) | Err(StreamError::Closed)),
        "the reaped peer observes EOF"
    );
}

#[test]
fn read_stall_deadline_reaps_a_mid_frame_peer() {
    let (cluster, front) = defended(|l| l.read_deadline = 4);
    let stream = front.accept();
    stream.write(&[0xAB, 0xCD]).unwrap();
    steps(&front, 10);
    assert_eq!(front.connections(), 0);
    assert!(timeouts(&cluster, "read_stall") >= 1.0);
}

#[test]
fn slowloris_dribble_below_minimum_progress_is_closed() {
    let (cluster, front) = defended(|l| (l.min_progress_bytes, l.progress_window) = (4, 3));
    // A key proven first makes the reap a strike against it.
    let mut broker = attach(&cluster, 45);
    let stream = front.accept();
    let (status, _) = ask(&front, &stream, &mut broker, "then a dribble");
    assert_eq!(status, ConnStatus::Ok);
    // One byte per four ticks: mid-frame forever, always below the
    // 4-bytes-per-3-ticks floor, but never hitting a read deadline.
    let mut closed = false;
    for _ in 0..20 {
        if stream.write(&[0x01]).is_err() {
            closed = true;
            break;
        }
        steps(&front, 4);
        if front.connections() == 0 {
            closed = true;
            break;
        }
    }
    assert!(closed, "the dribbler was never reaped");
    assert!(timeouts(&cluster, "slowloris") >= 1.0);
    assert_eq!(metric(&cluster, "strikes_total", None), 1.0);
}

#[test]
fn write_stall_deadline_reaps_a_peer_that_never_drains_and_closes_its_session() {
    let (cluster, front) = defended(|l| l.write_deadline = 5);
    let mut broker = attach(&cluster, 41);
    assert_eq!(cluster.session_count(), 1);
    let stream = front.accept();
    // Pipeline echoes and never read a reply: once the replies fill the
    // ring toward the peer, a flush stalls until the write deadline
    // reaps the connection — which also closes the enclave session
    // behind the channel key.
    while front.state_count(ConnState::Writing) == 0 {
        write_all(&front, &stream, &raw_request(&mut broker, "stall me", true));
        front.step();
    }
    steps(&front, 8);
    assert_eq!(front.connections(), 0);
    assert!(timeouts(&cluster, "write_stall") >= 1.0);
    assert_eq!(metric(&cluster, "sessions_closed", None), 1.0);
    assert_eq!(cluster.session_count(), 0);
}

#[test]
fn protocol_strikes_quarantine_the_channel_key() {
    let (cluster, front) = defended(|l| (l.strike_limit, l.quarantine_ticks) = (2, 10_000));
    earn_strikes(&cluster, &front, 77, 2);
    assert_eq!(metric(&cluster, "strikes_total", None), 2.0);
    assert_eq!(metric(&cluster, "quarantined_keys_total", None), 1.0);
    // The quarantined key's next request is refused before routing —
    // even with a fresh attestation behind it.
    let mut broker = attach(&cluster, 77);
    let stream = front.accept();
    let (status, _) = ask(&front, &stream, &mut broker, "again");
    assert_eq!(status, ConnStatus::Unavailable);
    assert_eq!(metric(&cluster, "quarantine_rejects", None), 1.0);
    front.step();
    assert_eq!(front.connections(), 0, "quarantined conns are closed");
    // The key never comes back: the shard's own sweep must drop the ban
    // once it is over.
    let remembered = || front.shard().core.defense.as_ref().unwrap().book.len();
    assert_eq!(remembered(), 1);
    steps(&front, 10_000);
    assert_eq!(remembered(), 0);
}

/// Opens `rounds` connections under `seed`'s channel key; on each, one
/// valid request proves the key and a junk frame strikes it. The
/// teardown closes the enclave session, so the hostile client re-attests
/// per connection — but the *channel key* (and its strike count) is the
/// same every time.
fn earn_strikes(cluster: &Cluster, front: &FrontTier, seed: u64, rounds: usize) {
    for round in 0..rounds {
        let mut broker = attach(cluster, seed);
        let stream = front.accept();
        let (status, _) = ask(front, &stream, &mut broker, &format!("warm {round}"));
        assert_eq!(status, ConnStatus::Ok);
        let mut framed = Vec::new();
        encode_frame_into(b"junk", &mut framed);
        stream.write(&framed).unwrap();
        steps(front, 6);
    }
}

/// With the policy off nothing is reaped or quarantined, however long a
/// peer stalls or however often its key is struck; the strikes are still
/// counted.
#[test]
fn the_off_profile_reaps_nothing_and_strikes_without_quarantine() {
    let (cluster, front) = rig(SurvivalConfig::default());
    let _silent = front.accept();
    let mid_frame = front.accept();
    mid_frame.write(&[0xAB, 0xCD]).unwrap();
    earn_strikes(&cluster, &front, 71, HARDENED.strike_limit as usize + 1);
    // Past every hardened deadline.
    steps(&front, 1_000);
    assert_eq!(front.connections(), 2);
    assert_eq!(metric(&cluster, "strikes_total", None), 4.0);
    assert_eq!(metric(&cluster, "quarantined_keys_total", None), 0.0);
    let mut broker = attach(&cluster, 71);
    let stream = front.accept();
    assert_eq!(
        ask(&front, &stream, &mut broker, "still served").0,
        ConnStatus::Ok
    );
}

#[test]
fn idle_deadline_reaps_an_established_session_and_closes_it() {
    let (cluster, front) = defended(|l| l.idle_deadline = 5);
    let mut client = FramedClient::connect(&cluster, &front, 61).unwrap();
    client.search(&front, "then nothing", true).unwrap();
    assert_eq!(cluster.session_count(), 1);
    steps(&front, 8);
    assert_eq!(front.connections(), 0);
    assert_eq!(timeouts(&cluster, "idle"), 1.0);
    assert_eq!(metric(&cluster, "sessions_closed", None), 1.0);
    assert_eq!(cluster.session_count(), 0);
}

#[test]
fn a_claimed_key_cannot_close_or_strike_its_owner() {
    let (cluster, front) = defended(|l| (l.strike_limit, l.quarantine_ticks) = (1, 10_000));
    let mut victim = attach(&cluster, 51);
    let stream = front.accept();
    let (status, payload) = ask(&front, &stream, &mut victim, "mine");
    assert_eq!(status, ConnStatus::Ok);
    victim.open_results(&payload).unwrap();
    // A stranger who read the victim's public key off the wire: one
    // frame naming it over ciphertext it cannot produce, one junk frame
    // (a strike, at a limit of one), then gone.
    let stranger = front.accept();
    let mut forged = Vec::new();
    encode_conn_request_into(victim.client_pub().as_bytes(), &[0; 40], true, &mut forged);
    let mut framed = Vec::new();
    encode_frame_into(&forged, &mut framed);
    write_all(&front, &stranger, &framed);
    assert_ne!(read_reply(&front, &stranger).0, ConnStatus::Ok);
    framed.clear();
    encode_frame_into(b"junk", &mut framed);
    write_all(&front, &stranger, &framed);
    assert_eq!(read_reply(&front, &stranger).0, ConnStatus::Protocol);
    stranger.close();
    steps(&front, 4);
    assert_eq!(front.connections(), 1, "only the stranger is gone");
    // Neither the strike nor the teardown reached the key's owner.
    assert_eq!(metric(&cluster, "strikes_total", None), 0.0);
    assert_eq!(metric(&cluster, "sessions_closed", None), 0.0);
    assert_eq!(cluster.session_count(), 1);
    let (status, payload) = ask(&front, &stream, &mut victim, "still mine");
    assert_eq!(status, ConnStatus::Ok);
    victim.open_results(&payload).unwrap();
}

#[test]
fn frame_quota_closes_a_request_flooder() {
    let (cluster, front) = defended(|l| l.max_frames = 2);
    let mut broker = attach(&cluster, 88);
    let stream = front.accept();
    for i in 0..2 {
        let (status, _) = ask(&front, &stream, &mut broker, "q");
        assert_eq!(status, ConnStatus::Ok, "request {i} within quota");
    }
    let (status, _) = ask(&front, &stream, &mut broker, "q");
    assert_eq!(status, ConnStatus::Protocol, "over-quota answer");
    assert_eq!(metric(&cluster, "quota_closes", None), 1.0);
    front.step();
    assert_eq!(front.connections(), 0);
}

#[test]
fn byte_quota_closes_a_mid_frame_flooder() {
    let (cluster, front) = defended(|l| l.max_bytes = 512);
    let stream = front.accept();
    // A huge announced frame keeps everything mid-frame; the byte
    // quota, not the frame parser, must stop the flood.
    stream.write(&(1u32 << 19).to_le_bytes()).unwrap();
    let junk = [0xEE; 256];
    let mut flooded = 0usize;
    while flooded < 4096 {
        match stream.write(&junk) {
            Ok(n) => flooded += n,
            Err(StreamError::WouldBlock) => {
                front.step();
            }
            Err(StreamError::Closed) => break,
        }
        front.step();
    }
    steps(&front, 4);
    assert_eq!(front.connections(), 0);
    assert_eq!(metric(&cluster, "quota_closes", None), 1.0);
}

#[test]
fn overwatermark_shedding_follows_the_class_ladder() {
    let (cluster, front) = defended(|l| l.max_conns_per_shard = 2);
    let mut broker = attach(&cluster, 99);
    let stream = front.accept();
    let (status, _) = ask(&front, &stream, &mut broker, "warm");
    assert_eq!(status, ConnStatus::Ok);
    // Two silent newcomers push the shard over the watermark; the
    // unattested ones are shed, the established session survives.
    let _b = front.accept();
    let _c = front.accept();
    steps(&front, 3);
    assert_eq!(front.connections(), 2);
    assert_eq!(sheds(&cluster, "unattested"), 1.0);
    assert_eq!(sheds(&cluster, "established"), 0.0);
    let (status, _) = ask(&front, &stream, &mut broker, "still here");
    assert_eq!(status, ConnStatus::Ok, "the established session survives");
}

#[test]
fn disconnects_and_the_reaper_bound_enclave_sessions() {
    let (cluster, front) = rig(SurvivalConfig::default());
    let mut client = FramedClient::connect(&cluster, &front, 301).unwrap();
    client.search(&front, "hello", true).unwrap();
    // A handshake-and-vanish session: attested out-of-band, never
    // sends a framed request, so no disconnect will ever name it.
    let _leaker = attach(&cluster, 302);
    assert_eq!(cluster.session_count(), 2);
    client.close();
    steps(&front, 4);
    assert_eq!(
        cluster.session_count(),
        1,
        "disconnect closed the framed session"
    );
    assert_eq!(metric(&cluster, "sessions_closed", None), 1.0);
    // The TTL reaper clears the leaker: first sweep ages it within
    // the TTL, the second puts it past.
    assert_eq!(cluster.reap_sessions(1), 0);
    assert_eq!(cluster.reap_sessions(1), 1);
    assert_eq!(cluster.session_count(), 0);
}

mod adversarial {
    use super::*;
    use proptest::prelude::*;
    use xsearch_net_sim::fault::FaultSpec;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Arbitrary hostile bytes never panic the front; every
        /// reply it produces is a typed error status, and the
        /// connection always ends in a clean teardown.
        #[test]
        fn hostile_bytes_never_panic_and_end_in_a_typed_close(
            chunks in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..64usize),
                1..10usize,
            )
        ) {
            let (_cluster, front) = rig(SurvivalConfig::hardened());
            let stream = front.accept();
            front.step();
            for chunk in &chunks {
                let _ = stream.write(chunk);
                steps(&front, 2);
            }
            let mut decoder = FrameDecoder::new();
            let _ = decoder.read_from(&stream, 1 << 16);
            while let Ok(Some(frame)) = decoder.next_frame() {
                let (status, _) = decode_conn_reply(frame).unwrap();
                prop_assert_ne!(status, ConnStatus::Ok);
            }
            stream.close();
            steps(&front, 4);
            prop_assert_eq!(front.connections(), 0);
        }

        /// After a shed (or fault-dropped) request, re-attesting and
        /// retrying always recovers — even while the fleet runs
        /// under an active loss + stalled-replica fault plan.
        #[test]
        fn reattach_after_shed_recovers_under_loss_and_stall(seed in 0u64..64) {
            let plan = Arc::new(FaultPlan::new(
                FaultSpec {
                    loss: 0.1,
                    stalled: vec![1],
                    stall: Duration::from_millis(1),
                    ..Default::default()
                },
                11,
                4,
            ));
            let cluster = fleet_under(1, Some(plan));
            let front = FrontTier::new(&cluster, FrontConfig::default());
            let mut client = FramedClient::connect(&cluster, &front, 7_000 + seed).unwrap();
            // Occupy the single admission slot: the framed request
            // is shed (or dropped by injected loss first) — either
            // way the client sees a typed error.
            let node = Arc::clone(cluster.node(client.replica()).unwrap());
            prop_assert!(node.try_enter(1));
            let err = client
                .search(&front, "shed me", true)
                .unwrap_err();
            prop_assert!(
                matches!(
                    err,
                    ClusterError::Overloaded(_) | ClusterError::NoReplicasAvailable
                ),
                "got {err:?}"
            );
            node.exit();
            // Recovery must land within a bounded number of
            // re-attest + retry rounds despite 10% injected loss.
            let mut recovered = false;
            for _ in 0..50 {
                if client.reattach(&cluster).is_err() {
                    continue;
                }
                if client
                    .search(&front, "after shed", true)
                    .is_ok()
                {
                    recovered = true;
                    break;
                }
            }
            prop_assert!(recovered, "never recovered under the fault plan");
        }
    }
}

#[test]
fn idle_sessions_stay_within_the_accounted_byte_budget() {
    let (cluster, front) = rig(SurvivalConfig::default());
    let mut clients: Vec<FramedClient> = (0..32)
        .map(|i| FramedClient::connect(&cluster, &front, 100 + i).unwrap())
        .collect();
    for client in &mut clients {
        client.search(&front, "warm", true).unwrap();
    }
    let (sessions, bytes) = front.account_idle();
    assert_eq!(sessions, 32);
    let per_session = bytes / sessions;
    assert!(
        per_session <= IDLE_SESSION_BYTE_BUDGET,
        "idle session costs {per_session} B, budget {IDLE_SESSION_BYTE_BUDGET} B"
    );
}

/// The driving rule under contention: eight threads each wait on their
/// own framed echoes and step the one front while they do, a ninth
/// accepts beside them, and every request is served.
#[test]
fn concurrent_callers_step_one_front() {
    const CALLERS: u64 = 8;
    const ROUNDS: usize = 16;
    let (cluster, front) = rig(SurvivalConfig::default());
    let baseline = front.connections();
    std::thread::scope(|scope| {
        let (cluster, front) = (&cluster, &front);
        for caller in 0..CALLERS {
            scope.spawn(move || {
                let mut client = FramedClient::connect(cluster, front, 500 + caller).unwrap();
                for round in 0..ROUNDS {
                    // Echo replies are empty; opening them is the check.
                    client
                        .search(front, &format!("caller {caller} round {round}"), true)
                        .unwrap();
                }
                client.close();
            });
        }
        scope.spawn(move || {
            // Accept once a caller's step has adopted its connection (a
            // closed one stays counted until the next step, which only
            // this thread can still take): the mailbox hands it to a
            // later step, which serves it.
            while front.connections() == baseline {
                std::thread::yield_now();
            }
            let mut broker = attach(cluster, 600);
            let stream = front.accept();
            let (status, payload) = ask(front, &stream, &mut broker, "accepted mid-run");
            assert_eq!(status, ConnStatus::Ok);
            broker.open_results(&payload).unwrap();
            stream.close();
        });
    });
    for _ in 0..4 {
        front.step();
    }
    assert_eq!(front.connections(), baseline);
}
