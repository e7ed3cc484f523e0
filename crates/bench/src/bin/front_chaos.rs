//! **Front-tier survival under a hostile population**: does a defended
//! front keep serving its good clients while slowloris dribblers,
//! garbage flooders, strike-earning fuzzers, and socket-level chaos
//! (resets, torn writes, corruption, stuck and half-open peers) share
//! the same shard?
//!
//! Four phases, all on a manually-stepped single-shard front running the
//! [`SurvivalConfig::hardened`] profile:
//!
//! 1. **Baseline** — good clients only, no adversaries, no faults:
//!    their availability (acked requests / attempts) anchors the gate.
//! 2. **Chaos** — the same good population interleaved with the hostile
//!    one, plus modest link chaos (loss + a stalled replica). Gates:
//!    good-client availability ≥ 90 % of baseline, **zero** lost acked
//!    requests (a reply framed `Ok` must always open), and the defense
//!    counters actually engaged (timeouts *and* strikes fired — a bench
//!    where the adversaries never tripped a defense proves nothing).
//! 3. **Session bound** — after the population disconnects and the TTL
//!    reaper sweeps, the enclave session count must return to zero:
//!    the disconnect-close plus reaper backstop leaks nothing.
//! 4. **Replay** — a fixed transcript run twice clean and twice under a
//!    deterministic socket [`FaultPlan`] (every connection afflicted);
//!    both pairs must be byte-identical, closed conns included.
//!
//! Env knobs: `FRONTCHAOS_ROUNDS` (default 30) and `FRONTCHAOS_GOOD`
//! (default 8) shrink the population for CI smoke;
//! `BENCH_FRONTCHAOS_JSON` overrides the summary path.
//!
//! Run: `cargo run -p xsearch-bench --release --bin front_chaos`

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;
use xsearch_bench::summary::write_summary;
use xsearch_cluster::{
    Cluster, ClusterConfig, FaultPlan, FaultSpec, FrontConfig, FrontTier, SocketSpec,
    SurvivalConfig,
};
use xsearch_core::config::XSearchConfig;
use xsearch_core::wire::{decode_conn_reply, encode_conn_request_into, ConnStatus};
use xsearch_core::Broker;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;
use xsearch_net_sim::{encode_frame_into, ByteStream, FrameDecoder, StreamError};
use xsearch_telemetry::LabelValue;

/// Slowloris dribblers kept alive (respawned when reaped).
const SLOWLORIS: usize = 4;
/// Garbage flooders kept alive (respawned when closed).
const FLOODERS: usize = 4;
/// Strike-earning fuzzer identities (valid request, then junk).
const FUZZERS: usize = 2;
/// Socket-chaos churn connections alive at a time.
const CHURN: usize = 8;
/// Handshake-and-vanish sessions the TTL reaper must clear.
const LEAKERS: usize = 4;
/// Step budget for one reply.
const RECV_STEPS: usize = 2_000;

fn rounds() -> usize {
    std::env::var("FRONTCHAOS_ROUNDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(30, |n| n.max(6))
}

fn good_clients() -> usize {
    std::env::var("FRONTCHAOS_GOOD")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(8, |n| n.max(2))
}

fn fleet(faults: Option<Arc<FaultPlan>>) -> Arc<Cluster> {
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
                history_capacity: 1_000_000,
                ..Default::default()
            },
            faults,
            ..Default::default()
        },
    ))
}

fn hardened_front(cluster: &Arc<Cluster>) -> FrontTier {
    FrontTier::new(
        cluster,
        FrontConfig {
            survival: SurvivalConfig::hardened(),
            ..FrontConfig::default()
        },
    )
}

/// Modest link chaos for the population phase: enough loss and stall to
/// exercise the error statuses without drowning the availability signal.
fn link_chaos() -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(
        FaultSpec {
            loss: 0.05,
            stalled: vec![1],
            stall: Duration::from_millis(1),
            ..Default::default()
        },
        13,
        4,
    ))
}

/// Every replay connection afflicted somehow: the transcript must still
/// be byte-identical across runs.
fn socket_chaos() -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(
        FaultSpec {
            socket: SocketSpec {
                reset: 0.25,
                torn: 0.25,
                corrupt: 0.2,
                stuck: 0.15,
                half_open: 0.15,
                write_window: 4,
            },
            ..Default::default()
        },
        21,
        4,
    ))
}

/// What one bounded receive attempt produced.
enum Recv {
    Frame(Vec<u8>),
    Closed,
    Timeout,
}

/// A raw framed session that tolerates the front (or a socket fault)
/// killing the connection mid-exchange.
struct ChaosSession {
    broker: Broker,
    stream: ByteStream,
    decoder: FrameDecoder,
}

impl ChaosSession {
    fn open(cluster: &Cluster, front: &FrontTier, seed: u64) -> ChaosSession {
        let client_pub = Broker::client_pub_for_seed(seed);
        let replica = cluster.route(client_pub.as_bytes()).unwrap();
        let broker = cluster
            .with_replica(replica, |proxy| {
                Broker::attach(proxy, cluster.ias(), cluster.expected_measurement(), seed)
            })
            .unwrap()
            .unwrap();
        ChaosSession {
            broker,
            stream: front.accept(),
            decoder: FrameDecoder::new(),
        }
    }

    /// Write one sealed request; `false` if the connection died first.
    fn send(&mut self, front: &FrontTier, query: &str) -> bool {
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
        let mut stalls = 0usize;
        while written < framed.len() {
            match self.stream.write(&framed[written..]) {
                Ok(n) => written += n,
                Err(StreamError::WouldBlock) => {
                    front.step();
                    stalls += 1;
                    if stalls > RECV_STEPS {
                        return false;
                    }
                }
                Err(StreamError::Closed) => return false,
            }
        }
        true
    }

    fn recv(&mut self, front: &FrontTier, steps: usize) -> Recv {
        for _ in 0..steps {
            front.step();
            match self.decoder.read_from(&self.stream, 4096) {
                Ok(_) => {}
                Err(StreamError::WouldBlock) => {}
                Err(StreamError::Closed) => return Recv::Closed,
            }
            match self.decoder.next_frame() {
                Ok(Some(frame)) => return Recv::Frame(frame.to_vec()),
                Ok(None) => {}
                Err(_) => return Recv::Closed,
            }
        }
        Recv::Timeout
    }
}

/// One well-behaved client: sealed echo searches, re-attest + reconnect
/// after any typed error or dead connection.
struct GoodClient {
    id: u64,
    session: Option<ChaosSession>,
    next_seed: u64,
    attempts: u64,
    acks: u64,
    lost_acked: u64,
    reattaches: u64,
}

impl GoodClient {
    fn new(id: u64) -> GoodClient {
        GoodClient {
            id,
            session: None,
            next_seed: 10_000 + id * 1_000,
            attempts: 0,
            acks: 0,
            lost_acked: 0,
            reattaches: 0,
        }
    }

    fn round(&mut self, cluster: &Cluster, front: &FrontTier, round: usize) {
        if self.session.is_none() {
            self.next_seed += 1;
            self.session = Some(ChaosSession::open(cluster, front, self.next_seed));
            self.reattaches += 1;
        }
        let session = self.session.as_mut().expect("just opened");
        self.attempts += 1;
        let query = format!("good client {} round {round}", self.id);
        if !session.send(front, &query) {
            self.session = None;
            return;
        }
        match session.recv(front, RECV_STEPS) {
            Recv::Frame(frame) => match decode_conn_reply(&frame) {
                Ok((ConnStatus::Ok, payload)) => {
                    // An acked reply that does not open is a *lost* ack:
                    // the wire said success but the answer is gone.
                    if session.broker.open_results(payload).is_ok() {
                        self.acks += 1;
                    } else {
                        self.lost_acked += 1;
                        self.session = None;
                    }
                }
                // Any typed error: conservatively re-attest.
                Ok((_, _)) | Err(_) => self.session = None,
            },
            Recv::Closed | Recv::Timeout => self.session = None,
        }
    }
}

/// Aggregate outcome of one population phase.
struct PhaseOutcome {
    attempts: u64,
    acks: u64,
    lost_acked: u64,
    reattaches: u64,
}

impl PhaseOutcome {
    fn availability(&self) -> f64 {
        self.acks as f64 / self.attempts.max(1) as f64
    }
}

fn tally(goods: &[GoodClient]) -> PhaseOutcome {
    PhaseOutcome {
        attempts: goods.iter().map(|g| g.attempts).sum(),
        acks: goods.iter().map(|g| g.acks).sum(),
        lost_acked: goods.iter().map(|g| g.lost_acked).sum(),
        reattaches: goods.iter().map(|g| g.reattaches).sum(),
    }
}

/// Phase 1: good clients alone on a clean fleet.
fn baseline(rounds: usize, good: usize) -> PhaseOutcome {
    let cluster = fleet(None);
    let front = hardened_front(&cluster);
    let mut goods: Vec<GoodClient> = (0..good as u64).map(GoodClient::new).collect();
    for round in 0..rounds {
        for client in &mut goods {
            client.round(&cluster, &front, round);
        }
    }
    tally(&goods)
}

/// The hostile population sharing the shard with the good clients.
struct Adversaries {
    dribblers: Vec<ByteStream>,
    flooders: Vec<ByteStream>,
    fuzzers: Vec<u64>,
    fuzzer_rejects: u64,
    churn: Vec<ChaosSession>,
    churn_seed: u64,
    spawned: u64,
}

impl Adversaries {
    fn new(cluster: &Cluster, front: &FrontTier, plan: &FaultPlan) -> Adversaries {
        let mut adv = Adversaries {
            dribblers: Vec::new(),
            flooders: Vec::new(),
            fuzzers: (0..FUZZERS as u64).map(|i| 90_000 + i).collect(),
            fuzzer_rejects: 0,
            churn: Vec::new(),
            churn_seed: 80_000,
            spawned: 0,
        };
        adv.replenish(cluster, front, plan);
        adv
    }

    /// Keep the hostile population at strength; the front keeps killing
    /// it, the attacker keeps coming back.
    fn replenish(&mut self, cluster: &Cluster, front: &FrontTier, plan: &FaultPlan) {
        while self.dribblers.len() < SLOWLORIS {
            self.dribblers.push(front.accept());
            self.spawned += 1;
        }
        while self.flooders.len() < FLOODERS {
            self.flooders.push(front.accept());
            self.spawned += 1;
        }
        while self.churn.len() < CHURN {
            self.churn_seed += 1;
            let session = ChaosSession::open(cluster, front, self.churn_seed);
            // The attacker's socket is broken in one drawn way; the
            // draw is a pure function of (seed, conn id), so the same
            // population is afflicted identically every run.
            if let Some(fault) = plan.socket_fault(self.churn_seed) {
                session.stream.sabotage(fault);
            }
            self.churn.push(session);
            self.spawned += 1;
        }
    }

    fn round(&mut self, cluster: &Cluster, front: &FrontTier, plan: &FaultPlan, round: usize) {
        // Slowloris: one byte per round — mid-frame forever, always
        // under the minimum-progress floor.
        self.dribblers.retain(|s| s.write(&[0x7F]).is_ok());
        // Flooders: a junk frame per round; the front answers Protocol
        // and closes.
        self.flooders.retain(|s| {
            let mut framed = Vec::new();
            encode_frame_into(&[0xAA; 48], &mut framed);
            s.write(&framed).is_ok()
        });
        // Fuzzers: a valid request (teaching the front their channel
        // key), then junk on the same connection — a strike each time,
        // until the key is quarantined and requests bounce.
        for &seed in &self.fuzzers {
            let mut session = ChaosSession::open(cluster, front, seed);
            self.spawned += 1;
            if !session.send(front, &format!("fuzz {round}")) {
                continue;
            }
            match session.recv(front, RECV_STEPS) {
                Recv::Frame(frame) => {
                    if matches!(decode_conn_reply(&frame), Ok((ConnStatus::Unavailable, _))) {
                        self.fuzzer_rejects += 1;
                        continue;
                    }
                }
                Recv::Closed | Recv::Timeout => continue,
            }
            let mut framed = Vec::new();
            encode_frame_into(b"not a request", &mut framed);
            let _ = session.stream.write(&framed);
            for _ in 0..4 {
                front.step();
            }
        }
        // Churn: afflicted sockets pushing real traffic; each one dies
        // the way its fault dictates (reset, tear, corruption strike,
        // stuck write-stall, half-open handshake timeout).
        self.churn.retain_mut(|session| {
            if !session.send(front, &format!("churn {round}")) {
                return false;
            }
            !matches!(session.recv(front, 50), Recv::Closed)
        });
        for _ in 0..4 {
            front.step();
        }
        self.replenish(cluster, front, plan);
    }
}

/// Phase 2 + 3: the mixed population, then the session-bound check.
struct ChaosOutcome {
    good: PhaseOutcome,
    adversaries_spawned: u64,
    fuzzer_rejects: u64,
    timeouts: u64,
    slowloris_closed: u64,
    strikes: u64,
    quarantined_keys: u64,
    quota_closed: u64,
    sheds: u64,
    sessions_closed: u64,
    sessions_before_reap: usize,
    sessions_reaped: usize,
    sessions_after_reap: usize,
}

fn chaos(rounds: usize, good: usize) -> ChaosOutcome {
    let plan = link_chaos();
    let socket_plan = socket_chaos();
    let cluster = fleet(Some(Arc::clone(&plan)));
    let front = hardened_front(&cluster);
    // Handshake-and-vanish leakers: sessions the front never learns a
    // key for — only the TTL reaper can clear them.
    let leakers: Vec<Broker> = (0..LEAKERS as u64)
        .map(|i| {
            let seed = 70_000 + i;
            let client_pub = Broker::client_pub_for_seed(seed);
            let replica = cluster.route(client_pub.as_bytes()).unwrap();
            cluster
                .with_replica(replica, |proxy| {
                    Broker::attach(proxy, cluster.ias(), cluster.expected_measurement(), seed)
                })
                .unwrap()
                .unwrap()
        })
        .collect();
    let mut goods: Vec<GoodClient> = (0..good as u64).map(GoodClient::new).collect();
    let mut adversaries = Adversaries::new(&cluster, &front, &socket_plan);
    for round in 0..rounds {
        adversaries.round(&cluster, &front, &socket_plan, round);
        for client in &mut goods {
            client.round(&cluster, &front, round);
        }
    }
    let adversaries_spawned = adversaries.spawned;
    let fuzzer_rejects = adversaries.fuzzer_rejects;
    // Phase 3: everyone hangs up; the reaper clears what disconnects
    // could not attribute.
    drop(adversaries);
    for client in &mut goods {
        client.session = None;
    }
    for _ in 0..600 {
        front.step();
    }
    drop(leakers);
    let sessions_before_reap = cluster.session_count();
    let mut sessions_reaped = 0;
    for _ in 0..3 {
        sessions_reaped += cluster.reap_sessions(0);
    }
    let sessions_after_reap = cluster.session_count();
    let snap = cluster.telemetry().snapshot();
    let labelled = |name: &str, key: &'static str, values: &[&'static str]| -> u64 {
        values
            .iter()
            .map(|v| {
                snap.value(name, &[(key, LabelValue::Static(v))])
                    .unwrap_or(0.0) as u64
            })
            .sum()
    };
    let plain = |name: &str| snap.value(name, &[]).unwrap_or(0.0) as u64;
    ChaosOutcome {
        good: tally(&goods),
        adversaries_spawned,
        fuzzer_rejects,
        timeouts: labelled(
            "xsearch_front_timeouts_total",
            "kind",
            &["handshake", "read_stall", "write_stall", "idle"],
        ),
        slowloris_closed: labelled("xsearch_front_timeouts_total", "kind", &["slowloris"]),
        strikes: plain("xsearch_front_strikes_total"),
        quarantined_keys: plain("xsearch_front_quarantined_keys_total"),
        quota_closed: plain("xsearch_front_quota_closes"),
        sheds: labelled(
            "xsearch_front_sheds_total",
            "class",
            &["misbehaving", "unattested", "established"],
        ),
        sessions_closed: plain("xsearch_front_sessions_closed"),
        sessions_before_reap,
        sessions_reaped,
        sessions_after_reap,
    }
}

/// Phase 4: fixed transcript, closed conns recorded as markers so a
/// fault-killed connection must die identically every run.
fn transcript(faults: Option<Arc<FaultPlan>>, sabotage: bool) -> Vec<Vec<u8>> {
    let plan = faults.clone().unwrap_or_else(socket_chaos);
    let cluster = fleet(faults);
    let front = hardened_front(&cluster);
    let mut sessions: Vec<ChaosSession> = (0..6u64)
        .map(|i| {
            let session = ChaosSession::open(&cluster, &front, 2_000 + i);
            if sabotage {
                if let Some(fault) = plan.socket_fault(i) {
                    session.stream.sabotage(fault);
                }
            }
            session
        })
        .collect();
    let mut replies = Vec::new();
    for round in 0..3 {
        for (i, session) in sessions.iter_mut().enumerate() {
            if !session.send(&front, &format!("replay client {i} round {round}")) {
                replies.push(b"[send-closed]".to_vec());
                continue;
            }
            match session.recv(&front, 300) {
                Recv::Frame(frame) => replies.push(frame),
                Recv::Closed => replies.push(b"[closed]".to_vec()),
                Recv::Timeout => replies.push(b"[timeout]".to_vec()),
            }
        }
    }
    replies
}

fn main() {
    let rounds = rounds();
    let good = good_clients();

    eprintln!("baseline: {good} good clients x {rounds} rounds, no adversaries...");
    let base = baseline(rounds, good);
    eprintln!(
        "  availability {:.4} ({} / {} attempts)",
        base.availability(),
        base.acks,
        base.attempts
    );

    eprintln!("chaos: same good population + hostile shardmates...");
    let chaos = chaos(rounds, good);
    eprintln!(
        "  availability {:.4} ({} / {}), reattaches {}, lost acked {}",
        chaos.good.availability(),
        chaos.good.acks,
        chaos.good.attempts,
        chaos.good.reattaches,
        chaos.good.lost_acked,
    );
    eprintln!(
        "  defenses: timeouts {} (slowloris {}), strikes {} (quarantined {}), quota {}, sheds {}, sessions closed {}",
        chaos.timeouts,
        chaos.slowloris_closed,
        chaos.strikes,
        chaos.quarantined_keys,
        chaos.quota_closed,
        chaos.sheds,
        chaos.sessions_closed,
    );
    eprintln!(
        "  sessions: {} before reap, {} reaped, {} after",
        chaos.sessions_before_reap, chaos.sessions_reaped, chaos.sessions_after_reap
    );

    eprintln!("replay gate: clean...");
    let clean_identical = transcript(None, false) == transcript(None, false);
    eprintln!("replay gate: socket chaos...");
    let chaos_a = transcript(Some(socket_chaos()), true);
    let chaos_b = transcript(Some(socket_chaos()), true);
    let socket_identical = chaos_a == chaos_b;
    eprintln!("  clean identical={clean_identical}, socket identical={socket_identical}");

    let availability_floor = 0.9 * base.availability();
    let pass_availability = chaos.good.availability() >= availability_floor;
    let pass_lost = chaos.good.lost_acked == 0;
    let pass_sessions = chaos.sessions_after_reap == 0;
    let defenses_engaged = chaos.timeouts >= 1 && chaos.strikes >= 1 && chaos.quarantined_keys >= 1;
    let pass = pass_availability
        && pass_lost
        && pass_sessions
        && defenses_engaged
        && clean_identical
        && socket_identical;

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"rounds\": {rounds}, \"good_clients\": {good},");
    let _ = writeln!(
        out,
        "  \"baseline\": {{\"attempts\": {}, \"acks\": {}, \"availability\": {:.4}}},",
        base.attempts,
        base.acks,
        base.availability()
    );
    let _ = writeln!(
        out,
        "  \"chaos\": {{\"attempts\": {}, \"acks\": {}, \"availability\": {:.4}, \"reattaches\": {}, \"lost_acked\": {},",
        chaos.good.attempts,
        chaos.good.acks,
        chaos.good.availability(),
        chaos.good.reattaches,
        chaos.good.lost_acked
    );
    let _ = writeln!(
        out,
        "    \"timeouts\": {}, \"slowloris_closed\": {}, \"strikes\": {}, \"quarantined_keys\": {}, \"quota_closed\": {}, \"sheds\": {}, \"sessions_closed\": {},",
        chaos.timeouts,
        chaos.slowloris_closed,
        chaos.strikes,
        chaos.quarantined_keys,
        chaos.quota_closed,
        chaos.sheds,
        chaos.sessions_closed
    );
    let _ = writeln!(
        out,
        "    \"adversaries_spawned\": {}, \"fuzzer_quarantine_rejects\": {},",
        chaos.adversaries_spawned, chaos.fuzzer_rejects
    );
    let _ = writeln!(
        out,
        "    \"sessions_before_reap\": {}, \"sessions_reaped\": {}, \"sessions_after_reap\": {}}},",
        chaos.sessions_before_reap, chaos.sessions_reaped, chaos.sessions_after_reap
    );
    let _ = writeln!(
        out,
        "  \"replay\": {{\"clean_identical\": {clean_identical}, \"socket_identical\": {socket_identical}}},"
    );
    let _ = writeln!(
        out,
        "  \"gates\": {{\"availability_floor\": {availability_floor:.4}, \"availability\": {pass_availability}, \"lost_acked_zero\": {pass_lost}, \"sessions_bounded\": {pass_sessions}, \"defenses_engaged\": {defenses_engaged}}},"
    );
    let _ = writeln!(out, "  \"pass\": {pass}");
    out.push_str("}\n");
    write_summary("BENCH_FRONTCHAOS_JSON", "BENCH_frontchaos.json", &out);

    println!();
    println!("# front chaos");
    println!(
        "availability baseline={:.4} chaos={:.4} floor={availability_floor:.4} ok={pass_availability}",
        base.availability(),
        chaos.good.availability()
    );
    println!(
        "lost_acked={} sessions_after_reap={} defenses_engaged={defenses_engaged}",
        chaos.good.lost_acked, chaos.sessions_after_reap
    );
    println!("replay clean={clean_identical} socket={socket_identical}");
    if !pass {
        eprintln!("FAIL: a survival gate was violated");
        std::process::exit(1);
    }
}
