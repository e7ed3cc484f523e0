//! **Connection scaling**: how many simulated sessions the event-driven
//! front tier holds, and what each idle one costs.
//!
//! The thread-per-request harnesses measure the enclave hot path; this
//! harness measures the *front*: the readiness reactor, the framed
//! per-connection state machines, and the idle-memory discipline that
//! makes a six-figure connection count affordable. Three phases:
//!
//! 1. **Idle sweep** — 10 k → 1 M accepted sessions (mostly idle, as a
//!    search front's population is), single shard, manual stepping. The
//!    gate is the *accounted* per-session footprint
//!    ([`ByteStream::mem_bytes`] and friends, not an RSS sample — the
//!    figure is deterministic) against the documented
//!    [`IDLE_SESSION_BYTE_BUDGET`].
//! 2. **Active subset under churn** — one front carrying idle ballast
//!    plus a small active session pool driven by the open-loop generator
//!    (a fixed-rate approximation of the Poisson-active subset), while a
//!    churn thread connects, attests, echoes, and disconnects ephemeral
//!    framed clients the whole time. Nothing else drives the front: each
//!    caller steps it while waiting on its own reply, so the generator
//!    and churn threads are the front's threads. Reported: sustained
//!    req/s and p99 under that churn, and the box's core count.
//! 3. **Replay gate** — a fixed interleaved transcript on one shard,
//!    run twice clean and twice under a deterministic
//!    [`FaultPlan`]; both pairs must be byte-identical (raw reply
//!    frames compared directly — no hashing).
//!
//! Env knobs: `CONN_MAX_SESSIONS` caps the idle tiers (CI smoke uses
//! 10 000); `CONN_POINT_MS` shortens each active measured point.
//!
//! Run: `cargo run -p xsearch-bench --release --bin conn_scaling`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsearch_bench::echo_fleet;
use xsearch_bench::load::{capacity, json_points, p99_at_capacity, sweep_rates};
use xsearch_bench::sessions::{FrontSessions, RawFramed};
use xsearch_bench::summary::{env_or, fixed, replay_gate, Gate, Json, Obj, Summary};
use xsearch_cluster::{
    FaultPlan, FaultSpec, FramedClient, FrontConfig, FrontTier, IDLE_SESSION_BYTE_BUDGET,
};
use xsearch_net_sim::ByteStream;

/// Idle-sweep tiers; `CONN_MAX_SESSIONS` drops the ones above the cap.
const IDLE_TIERS: &[usize] = &[10_000, 100_000, 1_000_000];
/// Idle ballast carried through the active phase.
const BALLAST: usize = 2_000;
/// Attested framed sessions in the active pool.
const ACTIVE_SESSIONS: usize = 32;
/// Generator threads for the active sweep.
const THREADS: usize = 4;
/// Offered-rate ladder for the active subset.
const ACTIVE_RATES: &[f64] = &[
    500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0, 32_000.0, 64_000.0,
];

const QUERY: &str = "cheap flights paris";

/// Replicas behind the front: the front is the subject; the enclave
/// tier behind it only needs to exist.
const REPLICAS: usize = 4;

/// Phase 1: accept `n` sessions that never send a byte, adopt them onto
/// one manually-stepped shard, and account their footprint. Returns the
/// tier's row and its accounted bytes per session.
fn idle_tier(n: usize) -> (Obj, f64) {
    let cluster = echo_fleet(REPLICAS, None);
    let front = FrontTier::new(&cluster, FrontConfig::default());
    let start = Instant::now();
    // Client ends must stay alive: dropping one closes the pair and the
    // front reaps the session.
    let mut held: Vec<ByteStream> = Vec::with_capacity(n);
    for _ in 0..n {
        held.push(front.accept());
    }
    // One step adopts everything queued on the shard's accept list.
    front.step();
    let accept_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(front.connections(), n, "adoption lost sessions");
    let start = Instant::now();
    let (sessions, accounted_bytes) = front.account_idle();
    let account_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sessions, n, "idle accounting missed sessions");
    drop(held);
    let bytes_per_session = accounted_bytes as f64 / n.max(1) as f64;
    let within_budget = bytes_per_session <= IDLE_SESSION_BYTE_BUDGET as f64;
    let row = Obj::new()
        .field("sessions", n)
        .field("accounted_bytes", accounted_bytes)
        .field("bytes_per_session", fixed(bytes_per_session, 1))
        .field("accept_ms", fixed(accept_ms, 1))
        .field("account_ms", fixed(account_ms, 1))
        .field("within_budget", within_budget);
    (row, bytes_per_session)
}

/// Phase 2: a caller-stepped front, idle ballast, open-loop load over
/// the active pool, ephemeral connect/attest/echo/disconnect churn
/// throughout. Returns the `active` row.
fn active_run(point: Duration) -> Obj {
    let cluster = echo_fleet(REPLICAS, None);
    let front = Arc::new(FrontTier::new(&cluster, FrontConfig::default()));
    let _ballast: Vec<ByteStream> = (0..BALLAST).map(|_| front.accept()).collect();
    let active = FrontSessions::attach(&cluster, &front, ACTIVE_SESSIONS, 500_000);

    let stop = Arc::new(AtomicBool::new(false));
    let cycles = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let churn = {
        let cluster = Arc::clone(&cluster);
        let front = Arc::clone(&front);
        let stop = Arc::clone(&stop);
        let cycles = Arc::clone(&cycles);
        let failures = Arc::clone(&failures);
        std::thread::spawn(move || {
            let mut seed = 900_000u64;
            while !stop.load(Ordering::Relaxed) {
                seed += 1;
                let ok = FramedClient::connect(&cluster, &front, seed).is_ok_and(|mut client| {
                    let ok = client.search(&front, QUERY, true).is_ok();
                    client.close();
                    ok
                });
                cycles.fetch_add(1, Ordering::Relaxed);
                if !ok {
                    failures.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let reports = sweep_rates(ACTIVE_RATES, point, THREADS, &|| {
        active.echo(&cluster, &front, QUERY)
    });

    stop.store(true, Ordering::Relaxed);
    churn.join().expect("churn thread");
    // Post-load idle hygiene: the ballast must have fallen back to its
    // floor cost even after the front carried real traffic. A few steps
    // first retire the churn connections closed since the last caller
    // stepped.
    for _ in 0..4 {
        front.step();
    }
    let (sessions, bytes) = front.account_idle();
    let idle_after = bytes as f64 / sessions.max(1) as f64;
    Obj::new()
        .field("idle_ballast", BALLAST)
        .field("sessions", ACTIVE_SESSIONS)
        .field("threads", THREADS)
        .field(
            "cores",
            std::thread::available_parallelism().map_or(1, usize::from),
        )
        .field("max_sustained_rps", fixed(capacity(&reports), 1))
        .field("p99_ms_at_capacity", fixed(p99_at_capacity(&reports), 3))
        .field("churn_cycles", cycles.load(Ordering::Relaxed))
        .field("churn_failures", failures.load(Ordering::Relaxed))
        .field("idle_bytes_per_session_after", fixed(idle_after, 1))
        .field("points", json_points(&reports))
}

/// The deterministic chaos plan the replay gate runs under: link loss,
/// latency spikes, one stalled replica — enough to exercise the error
/// paths without making the transcript all noise.
fn chaos_plan() -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(
        FaultSpec {
            loss: 0.1,
            spike_prob: 0.2,
            spike: Duration::from_millis(5),
            stalled: vec![1],
            stall: Duration::from_millis(2),
            ..Default::default()
        },
        7,
        REPLICAS,
    ))
}

/// Phase 3: a fixed interleaved workload on one manually-stepped shard.
/// Returns every reply frame's raw bytes in arrival order.
fn transcript(faults: Option<Arc<FaultPlan>>) -> Vec<Vec<u8>> {
    let cluster = echo_fleet(REPLICAS, faults);
    let front = FrontTier::new(&cluster, FrontConfig::default());
    let mut sessions: Vec<RawFramed> = (0..4)
        .map(|i| RawFramed::open(&cluster, &front, 1000 + i))
        .collect();
    let mut replies = Vec::new();
    for round in 0..3 {
        for (i, session) in sessions.iter_mut().enumerate() {
            let sent = session.send(&front, &format!("client{i} round{round}"));
            assert!(sent, "front closed the connection");
        }
        for session in &mut sessions {
            let reply = session.recv(&front, 10_000).frame();
            replies.push(reply.expect("a reply within the step budget"));
        }
    }
    replies
}

fn main() {
    let cap = env_or("CONN_MAX_SESSIONS", 1_000_000, 1_000) as usize;
    let point_ms = env_or("CONN_POINT_MS", 800, 10);
    let mut summary = Summary::new("conn");
    summary.row("point_ms", point_ms);
    summary.row("max_sessions", cap);
    summary.row("idle_budget_bytes", IDLE_SESSION_BYTE_BUDGET);

    // Phase 1: idle sweep.
    let mut tiers = Vec::new();
    for &n in IDLE_TIERS.iter().filter(|&&n| n <= cap) {
        eprintln!("idle tier: {n} sessions...");
        let (row, bytes_per_session) = idle_tier(n);
        summary.gate(Gate::at_most(
            &format!("idle_bytes_per_session_{n}"),
            bytes_per_session,
            IDLE_SESSION_BYTE_BUDGET as f64,
        ));
        tiers.push(row);
    }
    summary.row("idle", tiers.into_iter().collect::<Json>());

    // Phase 2: active subset under churn.
    eprintln!("active subset: {ACTIVE_SESSIONS} sessions over {BALLAST} idle, churn alongside...");
    summary.row("active", active_run(Duration::from_millis(point_ms)));

    // Phase 3: replay gates.
    eprintln!("replay gate: clean, then chaos...");
    let clean = replay_gate("replay_clean", || transcript(None));
    let chaos = replay_gate("replay_chaos", || transcript(Some(chaos_plan())));
    let row = Obj::new()
        .field("frames", clean.bound)
        .field("clean_identical", clean.pass)
        .field("chaos_frames", chaos.bound)
        .field("chaos_identical", chaos.pass);
    summary.row("replay", row);
    summary.gate(clean);
    summary.gate(chaos);
    summary.row("pass", summary.passed());
    summary.finish(|| ());
}
