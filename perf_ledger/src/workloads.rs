//! The five workloads: what each drives, why it exists, and the
//! [`Target`] that runs one operation of it through the adapter.
//!
//! Paced rates and latency limits are constants of the benchmark. They
//! are never retuned in a change that claims a gain: a moved rate moves
//! every paced number with it.

use crate::adapter::{
    self, FleetRig, FleetShape, FramedSession, FrontRig, OpError, OpResult, ProxyRig, Reply,
    ReplyDigest, Rig,
};
use crate::inputs::Inputs;
use crate::loadgen::{Outcome, Target};
use crate::trace::{SpanId, Tracer, ROOT};
use std::rc::Rc;

/// Sessions every steady-state workload attaches.
pub const SESSIONS: usize = 8;
/// Echo requests one `front_churn` connection carries before closing.
pub const CHURN_REQUESTS: u64 = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    ProxyEcho,
    ProxySearch,
    FleetEcho,
    FrontEcho,
    FrontChurn,
}

/// One workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub path: Path,
    /// Operations outstanding in the closed loop and allowed at once in
    /// the open loop.
    pub in_flight: usize,
    /// Open-loop rate, ≈40 % of what the seed commit saturates at.
    pub paced_rate: f64,
    /// Latency limit from due time.
    pub limit_us: u64,
    /// Operations in the traced run.
    pub trace_ops: u64,
    /// Enclave requests one operation performs.
    pub requests_per_op: u64,
}

pub const SPECS: [Spec; 5] = [
    Spec {
        name: "proxy_echo",
        // Fig 5's set-up: crypto, the sgx-sim boundary and core (session,
        // obfuscate, history) do all the work; engine, cluster and front do
        // none.
        path: Path::ProxyEcho,
        in_flight: 1,
        paced_rate: 150_000.0,
        limit_us: 250,
        trace_ops: 20_000,
        requests_per_op: 1,
    },
    Spec {
        name: "proxy_search",
        // Fig 7's path: the engine fan-out and core::filter are ~99 % of the
        // CPU and crypto under 1 %; the only workload with a large modeled
        // delay.
        path: Path::ProxySearch,
        in_flight: 1,
        paced_rate: 400.0,
        limit_us: 5_000,
        trace_ops: 2_000,
        requests_per_op: 1,
    },
    Spec {
        name: "fleet_echo",
        // The synchronous ingress with a realistic recovery point: every
        // 64th request reseals a 16 k-entry window, so core::persistence and
        // bulk AEAD dominate and sealing stalls surface as missed limits.
        path: Path::FleetEcho,
        in_flight: 1,
        // A reseal blocks the single generator for ≈1.3 ms, so at rate r
        // a share r/64 × 1.3 ms of all requests queue behind one. The
        // rate keeps that share near a fifth, well clear of the half at
        // which the median itself would start to measure reseals, and
        // the limit sits at twice a healthy reseal: a healthy fleet meets
        // it, one whose reseal doubles does not.
        paced_rate: 10_000.0,
        limit_us: 2_500,
        trace_ops: 20_000,
        requests_per_op: 1,
    },
    Spec {
        name: "front_echo",
        // The framed path with sealing made small: cluster::front, net-sim
        // frames/streams/reactor and the lanes are the largest share, 8 in
        // flight give batching something to batch, 100 k idle connections
        // expose per-step costs.
        path: Path::FrontEcho,
        in_flight: SESSIONS,
        paced_rate: 50_000.0,
        limit_us: 250,
        trace_ops: 20_000,
        requests_per_op: 1,
    },
    Spec {
        name: "front_churn",
        // The same layers the other way round: connect, attest, 4 requests,
        // close — session-table churn, X25519 and quote verification instead
        // of steady-state lookups (the CYCLOSA regime).
        path: Path::FrontChurn,
        in_flight: 1,
        paced_rate: 1_200.0,
        limit_us: 2_000,
        trace_ops: 2_000,
        requests_per_op: CHURN_REQUESTS,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Sizes that differ between a real run and `--smoke`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// History capacity of the bare proxy (2²⁰ in a real run).
    pub proxy_history: usize,
    /// Engine documents per topic for `proxy_search`.
    pub docs_per_topic: usize,
    /// Per-replica window of `fleet_echo`.
    pub fleet_window: usize,
    /// Per-replica window behind the front workloads (seal-light).
    pub front_window: usize,
    /// Idle connections under `front_echo`.
    pub ballast: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        proxy_history: 1 << 20,
        docs_per_topic: 250,
        fleet_window: 16_384,
        front_window: 1_024,
        ballast: 100_000,
    };
    pub const SMOKE: Scale = Scale {
        proxy_history: 4_096,
        docs_per_topic: 10,
        fleet_window: 2_048,
        front_window: 1_024,
        ballast: 500,
    };

    pub fn fleet_shape(&self, path: Path) -> FleetShape {
        FleetShape {
            replicas: 2,
            window: if path == Path::FleetEcho {
                self.fleet_window
            } else {
                self.front_window
            },
            seal_every: 64,
        }
    }
}

/// What every target keeps beside its rig: inputs, the tracer, finished
/// operations waiting for `pump`, and what was learned from replies.
pub struct Common {
    pub inputs: Rc<Inputs>,
    pub tracer: Tracer,
    done: Vec<(usize, Outcome)>,
    /// Results in the replies received.
    pub results: u64,
    /// Hashes every reply while `Some` (the traced run).
    pub digest: Option<ReplyDigest>,
    /// Keeps every reply while `Some` (the verification step).
    pub kept: Option<Vec<Reply>>,
    pub first_error: Option<String>,
}

impl Common {
    fn new(inputs: Rc<Inputs>) -> Common {
        Common {
            inputs,
            tracer: Tracer::new(false),
            done: Vec::new(),
            results: 0,
            digest: None,
            kept: None,
            first_error: None,
        }
    }

    fn note_reply(&mut self, reply: Reply) {
        self.results += reply.len() as u64;
        if let Some(digest) = &mut self.digest {
            digest.absorb(&reply);
        }
        if let Some(kept) = &mut self.kept {
            kept.push(reply);
        }
    }

    fn note_error(&mut self, error: &OpError) -> Outcome {
        match error {
            OpError::Refused => Outcome::Refused,
            OpError::Failed(why) => {
                self.first_error.get_or_insert_with(|| why.clone());
                Outcome::Failed
            }
        }
    }

    /// Records a finished single-request operation.
    fn settle(&mut self, lane: usize, result: OpResult) {
        let outcome = match result {
            Ok(reply) => {
                self.note_reply(reply);
                Outcome::Good
            }
            Err(e) => self.note_error(&e),
        };
        self.done.push((lane, outcome));
    }
}

/// A [`Target`] plus what the runner reads around the phases.
pub trait Workload: Target {
    fn common(&mut self) -> &mut Common;
    /// Counters and history gauges of the rig underneath.
    fn rig(&self) -> &dyn Rig;
    /// Workload-specific end-state checks; each string is one violation.
    fn end_state_problems(&self) -> Vec<String> {
        Vec::new()
    }
    /// Accounted bytes per idle front session (0 without a front).
    fn idle_session_bytes(&self) -> f64 {
        0.0
    }
    /// `(front steps, progress events)` so far.
    fn front_steps(&self) -> (u64, u64) {
        (0, 0)
    }
    /// The engine direct searches run against (`proxy_search` only).
    fn reference_titles(&self, _query: &str) -> Option<Vec<String>> {
        None
    }
}

/// Builds the workload — this is what `setup_s` times.
pub fn build(spec: &Spec, scale: &Scale, inputs: &Rc<Inputs>) -> Box<dyn Workload> {
    let common = Common::new(Rc::clone(inputs));
    match spec.path {
        Path::ProxyEcho => Box::new(ProxyTarget {
            rig: ProxyRig::launch_echo(scale.proxy_history, SESSIONS, inputs),
            echo: true,
            common,
        }),
        Path::ProxySearch => Box::new(ProxyTarget {
            rig: ProxyRig::launch_search(
                adapter::search_engine(scale.docs_per_topic),
                scale.proxy_history,
                SESSIONS,
                inputs,
            ),
            echo: false,
            common,
        }),
        Path::FleetEcho => Box::new(FleetTarget {
            rig: FleetRig::launch(scale.fleet_shape(spec.path), SESSIONS, inputs),
            common,
        }),
        Path::FrontEcho => {
            let mut rig =
                FrontRig::launch(scale.fleet_shape(spec.path), false, scale.ballast, inputs);
            let sessions: Vec<FramedSession> = (0..SESSIONS as u64)
                .map(|i| rig.connect(i).expect("a freshly launched front attests"))
                .collect();
            rig.step();
            rig.rebase();
            Box::new(FrontTarget {
                lanes: sessions.iter().map(|_| Lane::Idle).collect(),
                sessions,
                rig,
                steps: 0,
                events: 0,
                common,
            })
        }
        Path::FrontChurn => Box::new(ChurnTarget {
            rig: FrontRig::launch(scale.fleet_shape(spec.path), true, 0, inputs),
            connections: 0,
            steps: 0,
            events: 0,
            common,
        }),
    }
}

/// `proxy_echo` and `proxy_search`: broker sessions round-robin against
/// one proxy.
struct ProxyTarget {
    rig: ProxyRig,
    echo: bool,
    common: Common,
}

impl Target for ProxyTarget {
    fn lanes(&self) -> usize {
        self.rig.sessions()
    }

    fn start(&mut self, lane: usize, op: u64) {
        let inputs = Rc::clone(&self.common.inputs);
        let query = inputs.query(op);
        let result = if self.common.tracer.on {
            // The same three steps `Broker::search*` performs, one span
            // each.
            let (rig, echo, t) = (&mut self.rig, self.echo, &mut self.common.tracer);
            let root = t.open(ROOT, op, None);
            t.within("client.seal", op, root, || rig.seal(lane, query));
            let result = t
                .within("core.request", op, root, || rig.request(lane, echo))
                .and_then(|sealed| t.within("client.open", op, root, || rig.open(lane, &sealed)));
            t.close(root);
            result
        } else if self.echo {
            self.rig.echo(lane, query)
        } else {
            self.rig.search(lane, query)
        };
        self.common.settle(lane, result);
    }

    fn pump(&mut self, finished: &mut Vec<(usize, Outcome)>) {
        finished.append(&mut self.common.done);
    }
}

impl Workload for ProxyTarget {
    fn common(&mut self) -> &mut Common {
        &mut self.common
    }
    fn rig(&self) -> &dyn Rig {
        &self.rig
    }
    fn reference_titles(&self, query: &str) -> Option<Vec<String>> {
        (!self.echo).then(|| adapter::direct_titles(self.rig.engine(), query))
    }
}

/// `fleet_echo`: `ClusterClient` sessions against the fleet. The client
/// call is opaque from outside, so the traced run records one span and
/// the ledger's rungs split it.
struct FleetTarget {
    rig: FleetRig,
    common: Common,
}

impl Target for FleetTarget {
    fn lanes(&self) -> usize {
        self.rig.sessions()
    }

    fn start(&mut self, lane: usize, op: u64) {
        let inputs = Rc::clone(&self.common.inputs);
        let query = inputs.query(op);
        let result = if self.common.tracer.on {
            let (rig, t) = (&mut self.rig, &mut self.common.tracer);
            let root = t.open(ROOT, op, None);
            let result = t.within("cluster.client_echo", op, root, || rig.echo(lane, query));
            t.close(root);
            result
        } else {
            self.rig.echo(lane, query)
        };
        self.common.settle(lane, result);
    }

    fn pump(&mut self, finished: &mut Vec<(usize, Outcome)>) {
        finished.append(&mut self.common.done);
    }
}

impl Workload for FleetTarget {
    fn common(&mut self) -> &mut Common {
        &mut self.common
    }
    fn rig(&self) -> &dyn Rig {
        &self.rig
    }
}

/// Where one framed lane is in its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Idle,
    /// The request frame is not fully written yet.
    Sending {
        root: Option<SpanId>,
        op: u64,
    },
    Awaiting {
        root: Option<SpanId>,
        op: u64,
    },
}

/// Steps a framed exchange is allowed before it counts as wedged.
const STEP_LIMIT: u32 = 100_000;

/// `front_echo`: framed sessions over the manually stepped front; a lane
/// begins its next request as soon as the generator hands it one.
struct FrontTarget {
    rig: FrontRig,
    sessions: Vec<FramedSession>,
    lanes: Vec<Lane>,
    steps: u64,
    events: u64,
    common: Common,
}

impl FrontTarget {
    fn write(&mut self, lane: usize, root: Option<SpanId>, op: u64) {
        let session = &mut self.sessions[lane];
        let sent = self
            .common
            .tracer
            .under("client.frame_write", op, root, || session.poll_send());
        match sent {
            Ok(true) => self.lanes[lane] = Lane::Awaiting { root, op },
            Ok(false) => self.lanes[lane] = Lane::Sending { root, op },
            Err(e) => self.finish(lane, root, Err(e)),
        }
    }

    fn finish(&mut self, lane: usize, root: Option<SpanId>, result: OpResult) {
        self.lanes[lane] = Lane::Idle;
        if let Some(root) = root {
            self.common.tracer.close(root);
        }
        self.common.settle(lane, result);
    }
}

impl Target for FrontTarget {
    fn lanes(&self) -> usize {
        self.sessions.len()
    }

    fn start(&mut self, lane: usize, op: u64) {
        let inputs = Rc::clone(&self.common.inputs);
        let query = inputs.query(op);
        let session = &mut self.sessions[lane];
        let t = &mut self.common.tracer;
        let root = t.on.then(|| t.open(ROOT, op, None));
        t.under("client.seal", op, root, || session.begin(query));
        self.write(lane, root, op);
    }

    fn pump(&mut self, finished: &mut Vec<(usize, Outcome)>) {
        let mut busy = false;
        for lane in 0..self.lanes.len() {
            if let Lane::Sending { root, op } = self.lanes[lane] {
                self.write(lane, root, op);
            }
            busy |= self.lanes[lane] != Lane::Idle;
        }
        if busy {
            // With one operation in flight (the traced run) the step
            // belongs to it; with several it is shared work and the
            // untraced phases do not record it.
            let traced = self.lanes.iter().find_map(|l| match *l {
                Lane::Awaiting { root: Some(r), op } | Lane::Sending { root: Some(r), op } => {
                    Some((r, op))
                }
                _ => None,
            });
            let rig = &self.rig;
            let (root, op) = traced.map_or((None, 0), |(root, op)| (Some(root), op));
            let events = self
                .common
                .tracer
                .under("front.step", op, root, || rig.step());
            self.steps += 1;
            self.events += events as u64;
            for lane in 0..self.lanes.len() {
                let Lane::Awaiting { root, op } = self.lanes[lane] else {
                    continue;
                };
                let (session, rig) = (&mut self.sessions[lane], &self.rig);
                let polled = self
                    .common
                    .tracer
                    .under("client.frame_read", op, root, || session.poll_reply(rig));
                if let Some(result) = polled {
                    self.finish(lane, root, result);
                }
            }
        }
        finished.append(&mut self.common.done);
    }
}

impl Workload for FrontTarget {
    fn common(&mut self) -> &mut Common {
        &mut self.common
    }
    fn rig(&self) -> &dyn Rig {
        self.rig.fleet()
    }
    fn end_state_problems(&self) -> Vec<String> {
        let expected = self.rig.ballast() + self.sessions.len();
        if self.rig.connections() == expected {
            Vec::new()
        } else {
            vec![format!(
                "front holds {} connections, expected {expected} (ballast + sessions)",
                self.rig.connections()
            )]
        }
    }
    fn idle_session_bytes(&self) -> f64 {
        self.rig.idle_session_bytes()
    }
    fn front_steps(&self) -> (u64, u64) {
        (self.steps, self.events)
    }
}

/// `front_churn`: one operation is a whole connection lifetime —
/// connect (route + attest), four echo requests, close, then stepping
/// until the front and the enclaves are back at baseline.
struct ChurnTarget {
    rig: FrontRig,
    connections: u64,
    steps: u64,
    events: u64,
    common: Common,
}

impl ChurnTarget {
    /// One front step under the span `name`: `front.step` while requests
    /// are in flight, `front.teardown` once the connection is closed.
    fn step(&mut self, name: &'static str, root: Option<SpanId>, op: u64) {
        let rig = &self.rig;
        let events = self.common.tracer.under(name, op, root, || rig.step());
        self.steps += 1;
        self.events += events as u64;
    }

    /// One framed echo request run to completion.
    fn exchange(
        &mut self,
        session: &mut FramedSession,
        query: &str,
        root: Option<SpanId>,
        op: u64,
    ) -> OpResult {
        let t = &mut self.common.tracer;
        t.under("client.seal", op, root, || session.begin(query));
        for _ in 0..STEP_LIMIT {
            let sent = self
                .common
                .tracer
                .under("client.frame_write", op, root, || session.poll_send())?;
            if sent {
                break;
            }
            self.step("front.step", root, op);
        }
        for _ in 0..STEP_LIMIT {
            self.step("front.step", root, op);
            let rig = &self.rig;
            let polled = self
                .common
                .tracer
                .under("client.frame_read", op, root, || session.poll_reply(rig));
            if let Some(result) = polled {
                return result;
            }
        }
        Err(OpError::Failed("no reply within the step limit".into()))
    }

    fn lifetime(&mut self, op: u64, root: Option<SpanId>) -> Outcome {
        let inputs = Rc::clone(&self.common.inputs);
        let salt = self.connections;
        self.connections += 1;
        let rig = &self.rig;
        let connected = self
            .common
            .tracer
            .under("attach", op, root, || rig.connect(salt));
        let mut session = match connected {
            Ok(session) => session,
            Err(e) => return self.common.note_error(&e),
        };
        let mut outcome = Outcome::Good;
        for i in 0..CHURN_REQUESTS {
            let query = inputs.query(op * CHURN_REQUESTS + i);
            match self.exchange(&mut session, query, root, op) {
                Ok(reply) => self.common.note_reply(reply),
                Err(e) => {
                    outcome = self.common.note_error(&e);
                    break;
                }
            }
        }
        self.common
            .tracer
            .under("close", op, root, || session.close());
        for _ in 0..STEP_LIMIT {
            self.step("front.teardown", root, op);
            if self.rig.at_baseline() {
                return outcome;
            }
        }
        self.common
            .note_error(&OpError::Failed("teardown never reached baseline".into()))
    }
}

impl Target for ChurnTarget {
    fn lanes(&self) -> usize {
        1
    }

    fn start(&mut self, lane: usize, op: u64) {
        let root = self
            .common
            .tracer
            .on
            .then(|| self.common.tracer.open(ROOT, op, None));
        let outcome = self.lifetime(op, root);
        if let Some(root) = root {
            self.common.tracer.close(root);
        }
        self.common.done.push((lane, outcome));
    }

    fn pump(&mut self, finished: &mut Vec<(usize, Outcome)>) {
        finished.append(&mut self.common.done);
    }
}

impl Workload for ChurnTarget {
    fn common(&mut self) -> &mut Common {
        &mut self.common
    }
    fn rig(&self) -> &dyn Rig {
        self.rig.fleet()
    }
    fn end_state_problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.rig.connections() != 0 {
            problems.push(format!(
                "{} connections left after churn",
                self.rig.connections()
            ));
        }
        if self.rig.fleet().session_count() != 0 {
            problems.push(format!(
                "{} enclave sessions left after churn",
                self.rig.fleet().session_count()
            ));
        }
        problems
    }
    fn idle_session_bytes(&self) -> f64 {
        self.rig.idle_session_bytes()
    }
    fn front_steps(&self) -> (u64, u64) {
        (self.steps, self.events)
    }
}
