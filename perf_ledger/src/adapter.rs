//! Every product call the workloads make sits in this file, behind the
//! narrow surface the roadmap keeps: `Broker`, a handful of
//! `XSearchProxy`/`Cluster`/`ClusterClient`/`FrontTier`/`FramedClient`
//! methods, and counts read from `Registry` snapshots by metric name.
//! A reshaped product API is absorbed here; workloads and the load
//! generator see only rigs, lanes and [`OpError`].

use std::collections::BTreeMap;
use std::sync::Arc;
use xsearch_cluster::{
    Cluster, ClusterClient, ClusterConfig, ClusterError, FramedClient, FrontConfig, FrontTier,
    ReplicaId, SurvivalConfig,
};
use xsearch_core::config::XSearchConfig;
use xsearch_core::proxy::XSearchProxy;
use xsearch_core::wire::WireResult;
use xsearch_core::Broker;
use xsearch_engine::corpus::CorpusConfig;
use xsearch_engine::engine::SearchEngine;
use xsearch_engine::service::EngineService;
use xsearch_net_sim::link::WanModel;
use xsearch_net_sim::ByteStream;
use xsearch_sgx_sim::attestation::AttestationService;
use xsearch_sgx_sim::boundary::BoundaryStats;
use xsearch_telemetry::Registry;

/// Fake queries per request (the paper's k) and results per sub-query.
pub const K: usize = 3;
pub const RESULTS_PER_QUERY: usize = 20;
/// History slots warm-up leaves empty, so the first requests' pushes
/// are visible as a length change before the window saturates.
pub const HEADROOM: usize = 256;
/// Seed of everything that is the system's rather than the workload's:
/// key material, enclave RNG streams, the engine corpus, service-time
/// draws, session routing. Fixed, so `--seed` changes the generated query
/// strings and nothing else — a run with another seed meets the same
/// fleet with the same sessions on the same replicas.
pub const RIG_SEED: u64 = 2017;
/// Ocalls one request performs: connect, send, recv, close.
pub const OCALLS_PER_REQUEST: f64 = 4.0;

/// One decoded reply.
pub type Reply = Vec<WireResult>;

/// Why an operation did not produce a reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpError {
    /// Shed by admission control (`Overloaded`); the session has been
    /// re-attached as the protocol requires.
    Refused,
    /// Anything else: the reply did not open, the session was unknown,
    /// the connection closed.
    Failed(String),
}

pub type OpResult = Result<Reply, OpError>;

fn cluster_err(e: ClusterError) -> OpError {
    match e {
        ClusterError::Overloaded(_) => OpError::Refused,
        other => OpError::Failed(other.to_string()),
    }
}

fn failed(e: impl std::fmt::Display) -> OpError {
    OpError::Failed(e.to_string())
}

/// The engine echo workloads launch with: they never query it, so it is
/// as small as the corpus generator allows.
pub fn tiny_engine() -> Arc<SearchEngine> {
    Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic: 1,
        ..Default::default()
    }))
}

/// The engine `proxy_search` queries: `docs_per_topic` documents for each
/// of the 40 topics (250 is the standard experiment corpus).
pub fn search_engine(docs_per_topic: usize) -> Arc<SearchEngine> {
    Arc::new(SearchEngine::build(&CorpusConfig {
        docs_per_topic,
        seed: RIG_SEED,
        ..Default::default()
    }))
}

/// Titles a direct, unprotected search returns — the recall reference
/// (titles, because the proxy rewrites analytics-wrapped URLs).
pub fn direct_titles(engine: &SearchEngine, query: &str) -> Vec<String> {
    engine
        .search(query, RESULTS_PER_QUERY)
        .into_iter()
        .map(|r| r.title)
        .collect()
}

fn proxy_config(history_capacity: usize) -> XSearchConfig {
    XSearchConfig {
        k: K,
        history_capacity,
        results_per_query: RESULTS_PER_QUERY,
        seed: RIG_SEED,
    }
}

/// Seeds `proxy`'s history with `entries` warm queries in one ecall.
fn warm(proxy: &XSearchProxy, warm_set: &crate::inputs::Inputs, entries: usize) {
    proxy.seed_history(warm_set.warm_cycle(entries));
}

/// Cumulative counter readings, summed by metric name over every
/// registry a rig owns, plus the boundary byte and modeled-overhead
/// totals `BoundaryStats` keeps outside the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Meters(BTreeMap<&'static str, f64>);

pub const BOUNDARY_BYTES: &str = "boundary_bytes";
pub const BOUNDARY_OVERHEAD_US: &str = "boundary_overhead_us";

impl Meters {
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `self − earlier`, name by name. High-water marks are levels, not
    /// totals: they keep the later reading.
    pub fn since(&self, earlier: &Meters) -> Meters {
        Meters(
            self.0
                .iter()
                .map(|(&name, &v)| {
                    let base = if name.ends_with("_high_water") {
                        0.0
                    } else {
                        earlier.get(name)
                    };
                    (name, v - base)
                })
                .collect(),
        )
    }

    fn absorb(&mut self, registry: &Registry) {
        let snapshot = registry.snapshot();
        for sample in snapshot.counters.iter().chain(&snapshot.gauges) {
            let slot = self.0.entry(sample.name).or_insert(0.0);
            if sample.name.ends_with("_high_water") {
                *slot = slot.max(sample.value);
            } else {
                *slot += sample.value;
            }
        }
    }

    fn absorb_boundary(&mut self, boundary: &BoundaryStats) {
        *self.0.entry(BOUNDARY_BYTES).or_insert(0.0) +=
            (boundary.bytes_in() + boundary.bytes_out()) as f64;
        *self.0.entry(BOUNDARY_OVERHEAD_US).or_insert(0.0) +=
            boundary.modeled_overhead().as_nanos() as f64 / 1e3;
    }
}

/// Which end of a measured interval a reading opens or closes. Taking a
/// fleet snapshot itself enters each enclave once (a poll collector
/// asks for its degrade counters), so the enclave-side counters are read
/// on the inner side of the fleet snapshot at both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    Open,
    Close,
}

/// The enclave-side taps of one proxy, taken once at set-up.
struct Taps {
    registry: Arc<Registry>,
    boundary: Arc<BoundaryStats>,
}

impl Taps {
    fn of(proxy: &XSearchProxy) -> Taps {
        Taps {
            registry: Arc::clone(proxy.registry()),
            boundary: proxy.boundary(),
        }
    }
}

fn read_meters(fleet: Option<&Registry>, taps: &[Taps], edge: Edge) -> Meters {
    let mut m = Meters::default();
    let inner = |m: &mut Meters| {
        for tap in taps {
            m.absorb(&tap.registry);
            m.absorb_boundary(&tap.boundary);
        }
    };
    let outer = |m: &mut Meters| {
        if let Some(registry) = fleet {
            m.absorb(registry);
        }
    };
    match edge {
        Edge::Open => {
            outer(&mut m);
            inner(&mut m);
        }
        Edge::Close => {
            inner(&mut m);
            outer(&mut m);
        }
    }
    m
}

/// What the runner reads from any rig around the phases.
pub trait Rig {
    fn meters(&self, edge: Edge) -> Meters;
    /// History length, capacity and bytes, summed over the proxies.
    fn history_len(&self) -> usize;
    fn capacity(&self) -> usize;
    fn history_bytes(&self) -> usize;
}

/// One attested proxy with broker sessions against it — the bare-proxy
/// workloads and the `core` rung of the ledger.
pub struct ProxyRig {
    proxy: XSearchProxy,
    brokers: Vec<Broker>,
    taps: [Taps; 1],
    sealed: Vec<u8>,
    capacity: usize,
}

impl ProxyRig {
    /// Echo mode: no engine behind the proxy.
    pub fn launch_echo(
        capacity: usize,
        sessions: usize,
        inputs: &crate::inputs::Inputs,
    ) -> ProxyRig {
        let ias = AttestationService::from_seed(RIG_SEED);
        let proxy = XSearchProxy::launch(proxy_config(capacity), tiny_engine(), &ias);
        Self::finish(proxy, &ias, capacity, sessions, inputs)
    }

    /// Search mode: `engine` behind a k+1-wide worker pool carrying the
    /// WAN engine service-time model.
    pub fn launch_search(
        engine: Arc<SearchEngine>,
        capacity: usize,
        sessions: usize,
        inputs: &crate::inputs::Inputs,
    ) -> ProxyRig {
        let ias = AttestationService::from_seed(RIG_SEED);
        let service = EngineService::with_workers(
            engine,
            WanModel::default().engine_service,
            RIG_SEED,
            K + 1,
        );
        let proxy = XSearchProxy::launch_with_service(proxy_config(capacity), service, &ias);
        Self::finish(proxy, &ias, capacity, sessions, inputs)
    }

    fn finish(
        proxy: XSearchProxy,
        ias: &AttestationService,
        capacity: usize,
        sessions: usize,
        inputs: &crate::inputs::Inputs,
    ) -> ProxyRig {
        warm(&proxy, inputs, capacity.saturating_sub(HEADROOM));
        let brokers = (0..sessions as u64)
            .map(|i| {
                Broker::attach(
                    &proxy,
                    ias,
                    proxy.expected_measurement(),
                    RIG_SEED ^ (0xB0_0000 + i),
                )
                .expect("a freshly launched proxy attests")
            })
            .collect();
        ProxyRig {
            taps: [Taps::of(&proxy)],
            proxy,
            brokers,
            sealed: Vec::new(),
            capacity,
        }
    }

    pub fn echo(&mut self, lane: usize, query: &str) -> OpResult {
        self.brokers[lane]
            .search_echo(&self.proxy, query)
            .map_err(failed)
    }

    pub fn search(&mut self, lane: usize, query: &str) -> OpResult {
        self.brokers[lane]
            .search(&self.proxy, query)
            .map_err(failed)
    }

    /// The three steps `echo`/`search` perform, separately callable so
    /// the traced run can put a span around each.
    pub fn seal(&mut self, lane: usize, query: &str) {
        self.brokers[lane].seal_query_into(query, &mut self.sealed);
    }

    pub fn request(&mut self, lane: usize, echo: bool) -> Result<Vec<u8>, OpError> {
        let client_pub = self.brokers[lane].client_pub();
        if echo {
            self.proxy.request_echo(client_pub.as_bytes(), &self.sealed)
        } else {
            self.proxy.request(client_pub.as_bytes(), &self.sealed)
        }
        .map_err(failed)
    }

    pub fn open(&mut self, lane: usize, reply: &[u8]) -> OpResult {
        self.brokers[lane].open_results(reply).map_err(failed)
    }

    pub fn sessions(&self) -> usize {
        self.brokers.len()
    }

    pub fn engine(&self) -> &SearchEngine {
        self.proxy.engine()
    }
}

impl Rig for ProxyRig {
    fn meters(&self, edge: Edge) -> Meters {
        read_meters(None, &self.taps, edge)
    }

    fn history_len(&self) -> usize {
        self.proxy.history_len()
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn history_bytes(&self) -> usize {
        self.proxy.history_memory_bytes()
    }
}

/// Shape of the fleet behind the cluster and front workloads.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    pub replicas: usize,
    /// History window per replica.
    pub window: usize,
    /// Requests between reseals of a replica's whole window.
    pub seal_every: usize,
}

/// A consistent-hash fleet with synchronous `ClusterClient` sessions.
pub struct FleetRig {
    cluster: Arc<Cluster>,
    clients: Vec<ClusterClient>,
    taps: Vec<Taps>,
    shape: FleetShape,
}

impl FleetRig {
    pub fn launch(shape: FleetShape, sessions: usize, inputs: &crate::inputs::Inputs) -> FleetRig {
        let cluster = Arc::new(Cluster::launch(
            tiny_engine(),
            ClusterConfig {
                replicas: shape.replicas,
                proxy: proxy_config(shape.window),
                seal_every: shape.seal_every,
                seed: RIG_SEED,
                ..Default::default()
            },
        ));
        let taps = (0..shape.replicas)
            .map(|i| {
                cluster
                    .with_replica(ReplicaId(i), |proxy| {
                        warm(proxy, inputs, shape.window.saturating_sub(HEADROOM));
                        Taps::of(proxy)
                    })
                    .expect("a freshly launched replica is routable")
            })
            .collect();
        let clients = (0..sessions as u64)
            .map(|i| {
                ClusterClient::attach(&cluster, RIG_SEED ^ (0xC1_0000 + i))
                    .expect("a freshly launched fleet attests")
            })
            .collect();
        FleetRig {
            cluster,
            clients,
            taps,
            shape,
        }
    }

    pub fn echo(&mut self, lane: usize, query: &str) -> OpResult {
        self.clients[lane]
            .search_echo(&self.cluster, query)
            .map_err(cluster_err)
    }

    pub fn sessions(&self) -> usize {
        self.clients.len()
    }

    /// Live enclave sessions fleet-wide.
    pub fn session_count(&self) -> usize {
        self.cluster.session_count()
    }

    fn on_each_replica(&self, f: impl Fn(&XSearchProxy) -> usize) -> usize {
        (0..self.shape.replicas)
            .map(|i| {
                self.cluster
                    .with_replica(ReplicaId(i), &f)
                    .expect("replicas stay routable: nothing kills them")
            })
            .sum()
    }

    /// Routes an affinity key — the `cluster.route_ns` probe.
    pub fn route(&self, affinity: &[u8]) -> usize {
        self.cluster.route(affinity).expect("a live fleet routes").0
    }

    /// Snapshots the fleet registry — the `telemetry.snapshot_us` probe.
    pub fn snapshot_samples(&self) -> usize {
        let s = self.cluster.telemetry().snapshot();
        s.counters.len() + s.gauges.len() + s.histograms.len()
    }
}

impl Rig for FleetRig {
    fn meters(&self, edge: Edge) -> Meters {
        read_meters(Some(self.cluster.telemetry()), &self.taps, edge)
    }

    fn history_len(&self) -> usize {
        self.on_each_replica(XSearchProxy::history_len)
    }

    fn capacity(&self) -> usize {
        self.shape.window * self.shape.replicas
    }

    fn history_bytes(&self) -> usize {
        self.on_each_replica(XSearchProxy::history_memory_bytes)
    }
}

/// One framed session over the front.
pub struct FramedSession(FramedClient);

impl FramedSession {
    pub fn begin(&mut self, query: &str) {
        self.0.begin(query, true);
    }

    /// `Ok(true)` once the request frame is fully written.
    pub fn poll_send(&mut self) -> Result<bool, OpError> {
        self.0.poll_send().map_err(cluster_err)
    }

    /// `None` while the reply has not arrived. A refusal re-attaches the
    /// session before it is reported.
    pub fn poll_reply(&mut self, rig: &FrontRig) -> Option<OpResult> {
        match self.0.poll_reply() {
            Ok(None) => None,
            Ok(Some(reply)) => Some(Ok(reply)),
            Err(ClusterError::Overloaded(_)) => {
                Some(Err(match self.0.reattach(&rig.fleet.cluster) {
                    Ok(()) => OpError::Refused,
                    Err(e) => failed(e),
                }))
            }
            Err(e) => Some(Err(cluster_err(e))),
        }
    }

    pub fn close(&self) {
        self.0.close();
    }
}

/// The fleet behind a one-shard, manually stepped front tier.
pub struct FrontRig {
    fleet: FleetRig,
    front: FrontTier,
    /// Client ends of the idle ballast; dropping one would close it.
    ballast: Vec<ByteStream>,
    baseline_connections: usize,
    baseline_sessions: usize,
}

impl FrontRig {
    /// `hardened` selects `SurvivalConfig::hardened()` over the default
    /// (everything off); `ballast` idle connections are accepted and
    /// adopted before any session attaches.
    pub fn launch(
        shape: FleetShape,
        hardened: bool,
        ballast: usize,
        inputs: &crate::inputs::Inputs,
    ) -> FrontRig {
        let fleet = FleetRig::launch(shape, 0, inputs);
        let front = FrontTier::new(
            &fleet.cluster,
            FrontConfig {
                survival: if hardened {
                    SurvivalConfig::hardened()
                } else {
                    SurvivalConfig::default()
                },
                ..FrontConfig::default()
            },
        );
        let ballast: Vec<ByteStream> = (0..ballast).map(|_| front.accept()).collect();
        front.step();
        assert_eq!(front.connections(), ballast.len(), "ballast not adopted");
        let mut rig = FrontRig {
            fleet,
            front,
            ballast,
            baseline_connections: 0,
            baseline_sessions: 0,
        };
        rig.rebase();
        rig
    }

    /// Takes the current connection and session counts as the baseline
    /// `at_baseline` compares against (call after attaching the
    /// long-lived sessions).
    pub fn rebase(&mut self) {
        self.baseline_connections = self.front.connections();
        self.baseline_sessions = self.fleet.cluster.session_count();
    }

    /// Routes, attests and opens one framed connection. `salt` must be
    /// fresh per connection: a reused channel key would reuse nonces.
    pub fn connect(&self, salt: u64) -> Result<FramedSession, OpError> {
        FramedClient::connect(
            &self.fleet.cluster,
            &self.front,
            RIG_SEED ^ (0xF0_0000 + salt),
        )
        .map(FramedSession)
        .map_err(cluster_err)
    }

    /// One manual step of the front's single shard; returns its progress
    /// events.
    pub fn step(&self) -> usize {
        self.front.step()
    }

    pub fn connections(&self) -> usize {
        self.front.connections()
    }

    /// Whether connections and enclave sessions are back to where
    /// `rebase` found them.
    pub fn at_baseline(&self) -> bool {
        self.front.connections() == self.baseline_connections
            && self.fleet.cluster.session_count() == self.baseline_sessions
    }

    pub fn ballast(&self) -> usize {
        self.ballast.len()
    }

    /// Accounted bytes per idle session, from the front's own sweep.
    pub fn idle_session_bytes(&self) -> f64 {
        let (sessions, bytes) = self.front.account_idle();
        bytes as f64 / sessions.max(1) as f64
    }

    pub fn fleet(&self) -> &FleetRig {
        &self.fleet
    }
}

/// SHA-256 over every opened reply, in operation order: result count,
/// then each field length-prefixed — no two reply sequences collide by
/// concatenation.
pub struct ReplyDigest(xsearch_crypto::Sha256);

impl ReplyDigest {
    pub fn new() -> ReplyDigest {
        ReplyDigest(xsearch_crypto::Sha256::new())
    }

    pub fn absorb(&mut self, reply: &Reply) {
        self.0.update(&(reply.len() as u64).to_le_bytes());
        for result in reply {
            for field in [&result.url, &result.title, &result.description] {
                self.0.update(&(field.len() as u64).to_le_bytes());
                self.0.update(field.as_bytes());
            }
        }
    }

    pub fn finish_hex(self) -> String {
        xsearch_crypto::hex::encode(&self.0.finalize())
    }
}
