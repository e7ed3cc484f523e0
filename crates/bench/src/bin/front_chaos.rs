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
//! Run: `cargo run -p xsearch-bench --release --bin front_chaos`

use std::sync::Arc;
use std::time::Duration;
use xsearch_bench::echo_fleet;
use xsearch_bench::sessions::{attach_by_seed, RawFramed, Recv};
use xsearch_bench::summary::{fixed, replay_gate, Gate, Obj, Summary};
use xsearch_cluster::{
    Cluster, FaultPlan, FaultSpec, FrontConfig, FrontTier, SocketSpec, SurvivalConfig,
};
use xsearch_core::wire::{decode_conn_reply, ConnStatus};
use xsearch_core::Broker;
use xsearch_net_sim::{encode_frame_into, ByteStream};
use xsearch_telemetry::LabelValue;

/// Replicas behind the front.
const REPLICAS: usize = 4;
/// Rounds of the baseline and of the chaos phase.
const ROUNDS: usize = 30;
/// Well-behaved clients whose availability is gated.
const GOOD_CLIENTS: usize = 8;
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

fn hardened_front(cluster: &Arc<Cluster>) -> FrontTier {
    FrontTier::new(
        cluster,
        FrontConfig {
            survival: SurvivalConfig::hardened(),
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
        REPLICAS,
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
        REPLICAS,
    ))
}

/// One well-behaved client: sealed echo searches, re-attest + reconnect
/// after any typed error or dead connection.
struct GoodClient {
    id: u64,
    session: Option<RawFramed>,
    next_seed: u64,
}

impl GoodClient {
    fn new(id: u64) -> GoodClient {
        GoodClient {
            id,
            session: None,
            next_seed: 10_000 + id * 1_000,
        }
    }

    /// One request, counted into the population's `tally`.
    fn round(&mut self, cluster: &Cluster, front: &FrontTier, round: usize, tally: &mut Tally) {
        if self.session.is_none() {
            self.next_seed += 1;
            self.session = Some(RawFramed::open(cluster, front, self.next_seed));
            tally.reattaches += 1;
        }
        let session = self.session.as_mut().expect("just opened");
        tally.attempts += 1;
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
                        tally.acks += 1;
                    } else {
                        tally.lost_acked += 1;
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
#[derive(Default)]
struct Tally {
    attempts: u64,
    acks: u64,
    lost_acked: u64,
    reattaches: u64,
}

impl Tally {
    fn availability(&self) -> f64 {
        self.acks as f64 / self.attempts.max(1) as f64
    }

    /// The fields every phase reports.
    fn obj(&self) -> Obj {
        Obj::new()
            .field("attempts", self.attempts)
            .field("acks", self.acks)
            .field("availability", fixed(self.availability(), 4))
    }
}

/// Phase 1: good clients alone on a clean fleet.
fn baseline() -> Tally {
    let cluster = echo_fleet(REPLICAS, None);
    let front = hardened_front(&cluster);
    let mut goods: Vec<GoodClient> = (0..GOOD_CLIENTS as u64).map(GoodClient::new).collect();
    let mut tally = Tally::default();
    for round in 0..ROUNDS {
        for client in &mut goods {
            client.round(&cluster, &front, round, &mut tally);
        }
    }
    tally
}

/// The hostile population sharing the shard with the good clients.
struct Adversaries {
    dribblers: Vec<ByteStream>,
    flooders: Vec<ByteStream>,
    fuzzers: Vec<u64>,
    fuzzer_rejects: u64,
    churn: Vec<RawFramed>,
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
            let session = RawFramed::open(cluster, front, self.churn_seed);
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
            let mut session = RawFramed::open(cluster, front, seed);
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
/// Adds the `chaos` row and the survival gates against `base`.
fn chaos(base: &Tally, summary: &mut Summary) {
    let socket_plan = socket_chaos();
    let cluster = echo_fleet(REPLICAS, Some(link_chaos()));
    let front = hardened_front(&cluster);
    // Handshake-and-vanish leakers: sessions the front never learns a
    // key for — only the TTL reaper can clear them.
    let leakers: Vec<Broker> = (0..LEAKERS as u64)
        .map(|i| attach_by_seed(&cluster, 70_000 + i))
        .collect();
    let mut goods: Vec<GoodClient> = (0..GOOD_CLIENTS as u64).map(GoodClient::new).collect();
    let mut adversaries = Adversaries::new(&cluster, &front, &socket_plan);
    let mut good = Tally::default();
    for round in 0..ROUNDS {
        adversaries.round(&cluster, &front, &socket_plan, round);
        for client in &mut goods {
            client.round(&cluster, &front, round, &mut good);
        }
    }
    let (spawned, fuzzer_rejects) = (adversaries.spawned, adversaries.fuzzer_rejects);
    // Phase 3: everyone hangs up; the reaper clears what disconnects
    // could not attribute.
    drop(adversaries);
    drop(goods);
    for _ in 0..600 {
        front.step();
    }
    drop(leakers);
    let sessions_before_reap = cluster.session_count();
    let sessions_reaped: usize = (0..3).map(|_| cluster.reap_sessions(0)).sum();
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
    let timeouts = labelled(
        "xsearch_front_timeouts_total",
        "kind",
        &["handshake", "read_stall", "write_stall", "idle"],
    );
    let slowloris_closed = labelled("xsearch_front_timeouts_total", "kind", &["slowloris"]);
    let strikes = plain("xsearch_front_strikes_total");
    let quarantined_keys = plain("xsearch_front_quarantined_keys_total");
    let sheds = labelled(
        "xsearch_front_sheds_total",
        "class",
        &["misbehaving", "unattested", "established"],
    );
    let row = good
        .obj()
        .field("reattaches", good.reattaches)
        .field("lost_acked", good.lost_acked)
        .field("timeouts", timeouts)
        .field("slowloris_closed", slowloris_closed)
        .field("strikes", strikes)
        .field("quarantined_keys", quarantined_keys)
        .field("quota_closed", plain("xsearch_front_quota_closes"))
        .field("sheds", sheds)
        .field("sessions_closed", plain("xsearch_front_sessions_closed"))
        .field("adversaries_spawned", spawned)
        .field("fuzzer_quarantine_rejects", fuzzer_rejects)
        .field("sessions_before_reap", sessions_before_reap)
        .field("sessions_reaped", sessions_reaped)
        .field("sessions_after_reap", sessions_after_reap);
    summary.row("chaos", row);
    summary.gate(Gate::at_least(
        "availability",
        good.availability(),
        0.9 * base.availability(),
    ));
    summary.gate(Gate::at_most(
        "lost_acked_zero",
        good.lost_acked as f64,
        0.0,
    ));
    summary.gate(Gate::at_most(
        "sessions_bounded",
        sessions_after_reap as f64,
        0.0,
    ));
    // A bench where the adversaries never tripped a defense proves
    // nothing: timeouts, strikes and quarantine must each have fired.
    let engaged = timeouts.min(strikes).min(quarantined_keys);
    summary.gate(Gate::at_least("defenses_engaged", engaged as f64, 1.0));
}

/// Phase 4: fixed transcript, closed conns recorded as markers so a
/// fault-killed connection must die identically every run. Under a
/// plan, every connection is also sabotaged the way the plan draws.
fn transcript(faults: Option<Arc<FaultPlan>>) -> Vec<Vec<u8>> {
    let cluster = echo_fleet(REPLICAS, faults.clone());
    let front = hardened_front(&cluster);
    let mut sessions: Vec<RawFramed> = (0..6u64)
        .map(|i| {
            let session = RawFramed::open(&cluster, &front, 2_000 + i);
            if let Some(fault) = faults.as_ref().and_then(|plan| plan.socket_fault(i)) {
                session.stream.sabotage(fault);
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
    let mut summary = Summary::new("frontchaos");
    summary.row("rounds", ROUNDS);
    summary.row("good_clients", GOOD_CLIENTS);

    eprintln!("baseline: {GOOD_CLIENTS} good clients x {ROUNDS} rounds, no adversaries...");
    let base = baseline();
    summary.row("baseline", base.obj());
    eprintln!("chaos: same good population + hostile shardmates...");
    chaos(&base, &mut summary);

    eprintln!("replay gate: clean, then socket chaos...");
    let clean = replay_gate("replay_clean", || transcript(None));
    let socket = replay_gate("replay_socket", || transcript(Some(socket_chaos())));
    let row = Obj::new()
        .field("clean_identical", clean.pass)
        .field("socket_identical", socket.pass);
    summary.row("replay", row);
    summary.gate(clean);
    summary.gate(socket);
    summary.row("pass", summary.passed());
    summary.finish(|| ());
}
