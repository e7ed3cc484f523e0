//! The fleet: N enclave replicas behind an untrusted routing front tier.
//!
//! # Trust model
//!
//! The router extends the paper's adversary model unchanged: like the
//! proxy *host*, the front tier is untrusted. It only ever handles
//! (a) opaque routing keys, (b) already-encrypted tunnel frames, and
//! (c) sealed history blobs during failover. Privacy rests on the same
//! two pillars as the single-proxy system — attestation before traffic
//! (here: the registry verifies every replica's enrollment quote, and
//! every broker still attests its own replica end-to-end) and
//! end-to-end encryption into the enclave.
//!
//! # Data plane locks
//!
//! The request path ([`Cluster::route`] + [`Cluster::forward`], whether
//! a [`crate::client::ClusterClient`] or a front step calls it) takes
//! these:
//!
//! * membership is one immutable snapshot — the verified members and
//!   the consistent-hash ring built from them — behind one
//!   `RwLock<Arc<_>>`: a request clones the `Arc` under a read guard and
//!   drops the guard. A membership writer builds the next snapshot, ring
//!   included, then swaps the pointer, so a request waits at most for
//!   one pointer swap;
//! * admission is an atomic compare-exchange on the target node;
//! * the request then enters the replica's enclave on its own thread,
//!   in one `request` ecall, under the read side of the replica's proxy
//!   `RwLock` (writers are kill/restart only). Concurrent requests to
//!   one replica are concurrent threads inside one enclave, as in the
//!   paper (§4.1); nothing queues a request for another thread to run.
//!
//! Past the two read locks (membership, then the proxy), every lock a
//! forwarded request touches is per replica or inside the enclave (its
//! session's mutex, the history window's mutex for Algorithm 1, the
//! sealed log's mutex when the cadence seals).
//!
//! # Failover
//!
//! A replica that stops answering is **drained** (deregistered, removed
//! from the ring), its sealed history log is **migrated** to
//! a designated successor — the next distinct live replica clockwise
//! from the failed replica's primary ring point (the orchestrator only
//! holds ciphertext end to end) — and in-flight requests are **retried**
//! by their [`crate::client::ClusterClient`] against whichever replica
//! now owns their affinity key, after a fresh attestation. (With virtual
//! nodes a failed replica's key ranges scatter over several inheritors,
//! so a client does not necessarily land on the replica that adopted the
//! window; the guarantee is that the window survives *in the fleet*.)
//! Monotonic versions make the migration rollback-safe: the source can
//! never restore the migrated-away window, and nobody can re-offer a
//! superseded log (see `xsearch_core::persistence`).

use crate::error::ClusterError;
use crate::node::ReplicaNode;
use crate::obs::FleetMetrics;
use crate::placement::key_coord;
use crate::registry::{ReplicaId, ReplicaRegistry};
use crate::resilience::{
    CircuitBreaker, ResilienceConfig, BREAKER_COOLDOWN_OPS, BREAKER_THRESHOLD,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};
use std::time::Duration;
use xsearch_core::config::XSearchConfig;
use xsearch_core::error::XSearchError;
use xsearch_core::proxy::XSearchProxy;
use xsearch_core::{Broker, ClientKeypair};
use xsearch_engine::engine::SearchEngine;
use xsearch_net_sim::fault::{FaultEvent, FaultPlan};
use xsearch_net_sim::link::fleet_hop;
use xsearch_sgx_sim::attestation::AttestationService;
use xsearch_sgx_sim::measurement::Measurement;
use xsearch_telemetry::{Counter, FlightEvent, FlightRecorder, Registry};

/// Flight-recorder depth: enough to hold every control-plane decision of
/// a failing chaos scenario's last phase without growing unbounded.
const FLIGHT_CAPACITY: usize = 256;

/// Fleet-level configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of replica slots.
    pub replicas: usize,
    /// Per-replica proxy configuration (each replica gets a distinct
    /// derived `seed`, so channel identity keys differ).
    pub proxy: XSearchConfig,
    /// Seal the history after this many served requests per replica —
    /// the recovery point: 1 means a crash loses nothing (every request
    /// is sealed before the next). A seal covers only what landed since
    /// the last one, so larger values buy little.
    pub seal_every: usize,
    /// Bounded admission: the most requests one replica may hold
    /// (in service or waiting on its locks) before the router sheds new
    /// arrivals with [`ClusterError::Overloaded`]; at least 1. Shedding is
    /// the backpressure signal that keeps an overloaded replica answering
    /// instead of collapsing under an unbounded backlog. Queue depth never
    /// reaches the enclave: a full queue sheds, it never thins an admitted
    /// request's `proxy.k` fakes.
    pub queue_limit: usize,
    /// Base seed for attestation service, challenges and host RNGs.
    pub seed: u64,
    /// The per-request resilience policy stack (deadline, backoff,
    /// breakers). See [`ResilienceConfig`].
    pub resilience: ResilienceConfig,
    /// Deterministic fault plan for chaos testing; `None` (the default)
    /// injects nothing and costs one branch on the forward path.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            replicas: 4,
            proxy: XSearchConfig::default(),
            seal_every: 1,
            queue_limit: 256,
            seed: 0xF1EE7,
            resilience: ResilienceConfig::default(),
            faults: None,
        }
    }
}

/// What one failover did (returned by [`Cluster::health_sweep`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverReport {
    /// The drained replica.
    pub failed: ReplicaId,
    /// Where its sealed window went (`None` when no live successor).
    pub successor: Option<ReplicaId>,
    /// Queries restored into the successor's window.
    pub migrated_queries: usize,
}

/// Drains an admitted queue slot on drop, so a panicking forwarded
/// closure cannot leak admission capacity.
struct AdmitGuard<'a> {
    node: &'a ReplicaNode,
}

impl Drop for AdmitGuard<'_> {
    fn drop(&mut self) {
        self.node.exit();
    }
}

/// A fleet of attested enclave proxy replicas behind a routing tier.
pub struct Cluster {
    config: ClusterConfig,
    ias: AttestationService,
    expected: Measurement,
    registry: ReplicaRegistry,
    nodes: Vec<Arc<ReplicaNode>>,
    /// Logical operation clock: one tick per data-plane forward. Fault
    /// timelines (partitions, crash schedules) and breaker cooldowns are
    /// expressed in these ticks so chaos runs replay deterministically.
    ops: AtomicU64,
    /// Held by the one health sweep that scans; latecomers wait on it.
    sweep: Mutex<()>,
    /// Sweep accounting (`xsearch_fleet_sweeps_{run,coalesced}_total`).
    sweeps_run: Counter,
    sweeps_coalesced: Counter,
    /// The fleet's metrics registry (one snapshot for queues, breakers,
    /// spans and client resilience counters).
    telemetry: Arc<Registry>,
    /// Pre-registered fleet counters and span histograms (clients count
    /// their retries, re-attaches and misses through these).
    pub(crate) metrics: FleetMetrics,
    /// Structured event ring dumped on chaos-scenario failures.
    flight: Arc<FlightRecorder>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("replicas", &self.nodes.len())
            .field("routable", &self.registry.len())
            .finish()
    }
}

impl Cluster {
    /// Launches `config.replicas` replicas, enrolls each in the registry
    /// through the challenge/quote protocol, and builds the routing ring.
    ///
    /// # Panics
    ///
    /// Panics if `config.replicas` is zero, or if a freshly launched
    /// replica fails its own enrollment (impossible unless the model is
    /// broken — every replica runs the canonical code on a provisioned
    /// platform).
    #[must_use]
    pub fn launch(engine: Arc<SearchEngine>, config: ClusterConfig) -> Self {
        assert!(config.replicas > 0, "a fleet needs at least one replica");
        let ias = AttestationService::from_seed(config.seed);
        let nodes: Vec<Arc<ReplicaNode>> = (0..config.replicas)
            .map(|i| {
                let mut proxy_config = config.proxy.clone();
                // Distinct enclave seed per replica: distinct identity
                // keys and RNG streams.
                proxy_config.seed = config
                    .proxy
                    .seed
                    .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                Arc::new(ReplicaNode::launch(
                    ReplicaId(i),
                    proxy_config,
                    engine.clone(),
                    &ias,
                    fleet_hop(i),
                    config.seed ^ (0xB0B0 + i as u64),
                ))
            })
            .collect();
        let expected = nodes[0]
            .proxy()
            .as_ref()
            .expect("just launched")
            .expected_measurement();
        let registry = ReplicaRegistry::new(ias.clone(), expected, config.seed);
        let telemetry = Arc::new(Registry::new());
        let metrics = FleetMetrics::register(&telemetry);
        ReplicaNode::register_polls(&nodes, &telemetry);
        let sweeps_run = telemetry.counter(
            "xsearch_fleet_sweeps_run_total",
            "Health sweeps that actually scanned the fleet",
            &[],
        );
        let sweeps_coalesced = telemetry.counter(
            "xsearch_fleet_sweeps_coalesced_total",
            "Health sweeps coalesced into one already in progress",
            &[],
        );
        let cluster = Cluster {
            config,
            ias,
            expected,
            registry,
            nodes,
            ops: AtomicU64::new(0),
            sweep: Mutex::new(()),
            sweeps_run,
            sweeps_coalesced,
            telemetry,
            metrics,
            flight: Arc::new(FlightRecorder::with_capacity(FLIGHT_CAPACITY)),
        };
        for node in &cluster.nodes {
            cluster
                .enroll(node.id())
                .expect("fresh replica must enroll");
        }
        cluster
    }

    /// The fleet's attestation service (brokers verify quotes with it).
    #[must_use]
    pub fn ias(&self) -> &AttestationService {
        &self.ias
    }

    /// The configuration this fleet was launched with.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The pinned proxy measurement every replica must present.
    #[must_use]
    pub fn expected_measurement(&self) -> Measurement {
        self.expected
    }

    /// The membership registry.
    #[must_use]
    pub fn registry(&self) -> &ReplicaRegistry {
        &self.registry
    }

    /// All replica slots (up or down, routable or not).
    #[must_use]
    pub fn replica_ids(&self) -> Vec<ReplicaId> {
        self.nodes.iter().map(|n| n.id()).collect()
    }

    /// The node for `id`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownReplica`] for an out-of-range id.
    pub fn node(&self, id: ReplicaId) -> Result<&Arc<ReplicaNode>, ClusterError> {
        self.nodes.get(id.0).ok_or(ClusterError::UnknownReplica(id))
    }

    /// Closes the enclave session keyed by `client_pub` on the replica
    /// the key routes to (the replica the client attested, membership
    /// permitting). Returns whether a session was actually removed.
    ///
    /// Best-effort: the front tier calls this when a framed connection
    /// disconnects so an abandoned session does not linger until the
    /// TTL reaper. It deliberately bypasses admission — closing must
    /// work precisely when the fleet is too busy to admit new work.
    pub fn close_session(&self, client_pub: &[u8; 32]) -> bool {
        self.route(client_pub)
            .is_ok_and(|id| self.close_session_at(id, client_pub))
    }

    /// [`Cluster::close_session`] for a caller that knows which replica
    /// holds the session (a [`crate::client::ClusterClient`] routes by
    /// affinity key, not channel key). Same rules: no admission, no
    /// accounted hop — closing moves no modeled number — and `false` when
    /// the replica is down (its sessions died with the enclave).
    pub(crate) fn close_session_at(&self, id: ReplicaId, client_pub: &[u8; 32]) -> bool {
        self.node(id).is_ok_and(|node| {
            node.proxy()
                .as_ref()
                .is_some_and(|proxy| proxy.close_session(client_pub))
        })
    }

    /// Live enclave sessions across every running replica. Crashed
    /// replicas contribute zero (their sessions died with the enclave).
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|node| node.proxy().as_ref().map_or(0, |p| p.session_count()))
            .sum()
    }

    /// One reaper sweep across the fleet: advances every running
    /// replica's session epoch and removes sessions that have been idle
    /// for more than `ttl` sweeps (`0` clears everything). Returns the
    /// number of sessions reaped fleet-wide.
    ///
    /// This is the backstop for sessions the front cannot attribute to
    /// a connection: the handshake happens out-of-band (in-process
    /// attach), so a client that attests and then never sends a framed
    /// request leaves a session no disconnect will ever name.
    pub fn reap_sessions(&self, ttl: u64) -> usize {
        self.nodes
            .iter()
            .map(|node| node.proxy().as_ref().map_or(0, |p| p.reap_sessions(ttl)))
            .sum()
    }

    /// The fleet's metrics registry: one snapshot covering per-replica
    /// queue depth/high-water/shed, breaker trips, sweep coalescing,
    /// accounted hop/fault/engine delays, the client resilience counters
    /// and (once a
    /// [`crate::front::FrontTier`] is built) the front's — the only stats
    /// surface; read one series with `snapshot().value(name, labels)`.
    #[must_use]
    pub fn telemetry(&self) -> &Arc<Registry> {
        &self.telemetry
    }

    /// The fleet's flight recorder: a fixed ring holding the most recent
    /// structured resilience events (breaker transitions, failovers,
    /// injected faults, deadline misses). Chaos harnesses dump
    /// it when a scenario fails.
    #[must_use]
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Enrolls (or re-enrolls) `id` through the challenge/quote protocol;
    /// the registry publishes the new membership with its ring.
    ///
    /// # Errors
    ///
    /// Registry verification errors; [`ClusterError::ReplicaDown`] when
    /// the enclave is not running.
    pub fn enroll(&self, id: ReplicaId) -> Result<(), ClusterError> {
        let node = self.node(id)?;
        let nonce = self.registry.challenge(id);
        let guard = node.proxy();
        let proxy = guard.as_ref().ok_or(ClusterError::ReplicaDown(id))?;
        let (key, quote) = proxy.enrollment_quote(&nonce)?;
        self.registry.register(id, key, &quote)?;
        Ok(())
    }

    /// Picks a replica for `affinity` by consistent-hash session affinity:
    /// a client's requests keep landing on the replica that holds its
    /// session and its share of the last-x window. Only verified
    /// (routable) replicas are candidates; the affinity key is an opaque,
    /// stable per-client byte string — the router never sees client
    /// channel keys or plaintext. Reads one registry snapshot (an `Arc`
    /// clone under a read guard) and walks its ring.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoReplicasAvailable`] when nothing is routable.
    pub fn route(&self, affinity: &[u8]) -> Result<ReplicaId, ClusterError> {
        self.route_at(key_coord(affinity))
    }

    /// [`Cluster::route`] for an affinity key whose ring coordinate
    /// ([`key_coord`]) the caller kept: the front routes every frame of a
    /// connection, and the coordinate is one SHA-256 it need not repeat.
    pub(crate) fn route_at(&self, coord: u64) -> Result<ReplicaId, ClusterError> {
        let members = self.registry.snapshot();
        // The ring holds exactly the snapshot's members. An open circuit
        // breaker deflects the walk — but only as a preference: when
        // every routable replica is browning out we still route
        // somewhere rather than inventing an outage.
        let ring = members.ring();
        let choice = ring
            .walk_from_coord(coord)
            .find(|&id| self.breaker_allows(id))
            .or_else(|| ring.walk_from_coord(coord).next());
        choice.ok_or(ClusterError::NoReplicasAvailable)
    }

    /// Whether `id`'s circuit breaker currently admits traffic (closed,
    /// or open-long-enough to probe half-open). Consults the op clock.
    #[must_use]
    pub fn breaker_allows(&self, id: ReplicaId) -> bool {
        self.breaker(id)
            .is_none_or(|b| b.allows(self.ops.load(Ordering::Relaxed), BREAKER_COOLDOWN_OPS))
    }

    /// `id`'s breaker, for observability (`None` out of range).
    #[must_use]
    pub fn breaker(&self, id: ReplicaId) -> Option<&CircuitBreaker> {
        self.nodes.get(id.0).map(|node| &node.breaker)
    }

    /// Records a successful answer from `id` (closes a half-open
    /// breaker, resets the failure streak).
    pub fn record_success(&self, id: ReplicaId) {
        if let Some(b) = self.breaker(id) {
            if b.record_success() {
                self.flight.record(FlightEvent::BreakerClose {
                    replica: id.0 as u64,
                });
            }
        }
    }

    /// Records a failed/too-slow answer from `id` (may trip the
    /// breaker once the streak reaches the configured threshold).
    pub fn record_failure(&self, id: ReplicaId) {
        if let Some(b) = self.breaker(id) {
            let op = self.ops.load(Ordering::Relaxed);
            if b.record_failure(op, BREAKER_THRESHOLD) {
                self.flight.record(FlightEvent::BreakerTrip {
                    replica: id.0 as u64,
                    op,
                });
            }
        }
    }

    /// Whether `id` is worth sending a request to right now: verified in
    /// the registry *and* not deflected by an open breaker. (Does not
    /// check liveness — a crashed replica surfaces as `ReplicaDown` on
    /// forward, which is the signal the sweep needs.)
    #[must_use]
    pub fn replica_accepting(&self, id: ReplicaId) -> bool {
        self.registry.is_routable(id) && self.breaker_allows(id)
    }

    /// Advances the logical op clock by one forward and applies any
    /// fault-plan timeline entries that came due: scheduled crashes and
    /// restarts fire here, and an active partition window turns the
    /// forward into link loss. Returns `Err(LinkLoss)` when the fleet is
    /// partitioned from the caller at this tick.
    fn tick_faults(&self, id: ReplicaId) -> Result<(), ClusterError> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let Some(plan) = self.config.faults.as_deref() else {
            return Ok(());
        };
        if plan.has_timeline() {
            for event in plan.events_due(op) {
                match event {
                    FaultEvent::Crash(r) => {
                        let _ = self.kill(ReplicaId(r));
                    }
                    FaultEvent::Restart(r) => {
                        let _ = self.restart(ReplicaId(r));
                    }
                }
            }
            if plan.in_partition(op) {
                return Err(ClusterError::LinkLoss(id));
            }
        }
        Ok(())
    }

    /// Runs `f` against the live proxy of `id`: the control-plane
    /// forwarding primitive (attach, re-attach, migration drills). The
    /// frames `f` moves are already encrypted end-to-end; this tier adds
    /// only the accounted data-center hop, in-flight accounting, and the
    /// sealing cadence — the same steps, in the same order, as the data
    /// plane's [`Cluster::forward`].
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotRoutable`] for unverified/deregistered
    /// replicas, [`ClusterError::ReplicaDown`] when the enclave is not
    /// running, [`ClusterError::Overloaded`] when the replica's bounded
    /// admission queue is full (backpressure — the request is shed, not
    /// queued).
    pub fn with_replica<T>(
        &self,
        id: ReplicaId,
        f: impl FnOnce(&XSearchProxy) -> T,
    ) -> Result<T, ClusterError> {
        let node = self.node(id)?;
        if !self.registry.is_routable(id) {
            return Err(ClusterError::NotRoutable(id));
        }
        let guard = node.proxy();
        let proxy = guard.as_ref().ok_or(ClusterError::ReplicaDown(id))?;
        self.admitted(node, proxy, || (), |()| f(proxy))
            .map(|(out, _hop)| out)
    }

    /// The steps every request inside a replica takes, once for both
    /// doors: claim a slot of `node`'s bounded admission queue, `prepare`
    /// (a forward seals its request here, so nothing refused was ever
    /// sealed), account the data-center hop, run `serve` against the
    /// live `proxy` the caller holds the read guard of, tick the sealing
    /// cadence and seal `proxy` when due, and release the slot — on
    /// unwind too, so a panicking `prepare` or `serve` cannot leak
    /// admission capacity. Returns `serve`'s output and the hop's
    /// modeled RTT.
    ///
    /// The caller's proxy guard spans `serve` and the seal, so a
    /// concurrent [`Cluster::kill`] lands before or after both: it can
    /// never fall between a request entering the window and the seal
    /// that covers it, which keeps `seal_every == 1` lossless under
    /// churn.
    fn admitted<A, T>(
        &self,
        node: &ReplicaNode,
        proxy: &XSearchProxy,
        prepare: impl FnOnce() -> A,
        serve: impl FnOnce(A) -> T,
    ) -> Result<(T, Duration), ClusterError> {
        if !node.try_enter(self.config.queue_limit) {
            self.flight.record(FlightEvent::Shed {
                replica: node.id().0 as u64,
            });
            return Err(ClusterError::Overloaded(node.id()));
        }
        let _admitted = AdmitGuard { node };
        let input = prepare();
        let hop = node.account_hop();
        let out = serve(input);
        if node.seal_due(self.config.seal_every) {
            node.seal_snapshot(proxy);
        }
        Ok((out, hop))
    }

    /// Attests replica `id` and opens a tunnel to it under `seed`: the
    /// control-plane half of every client, whichever way its requests
    /// then travel.
    ///
    /// # Errors
    ///
    /// As [`Cluster::with_replica`], plus the attestation and handshake
    /// failures of [`Broker::attach`] as [`ClusterError::Proxy`].
    pub fn attach(&self, id: ReplicaId, seed: u64) -> Result<Broker, ClusterError> {
        self.attach_keypair(id, ClientKeypair::for_seed(seed))
    }

    fn attach_keypair(
        &self,
        id: ReplicaId,
        keypair: ClientKeypair,
    ) -> Result<Broker, ClusterError> {
        self.with_replica(id, |proxy| {
            Broker::attach_keypair(proxy, &self.ias, self.expected, keypair)
        })?
        .map_err(ClusterError::Proxy)
    }

    /// Derive → route → attach for a session placed by its own channel
    /// key (every framed client): derives `seed`'s keypair **once**,
    /// routes its public half, and attests the chosen replica with that
    /// same pair — so the replica attested is by construction the one the
    /// front will forward the session's requests to.
    ///
    /// # Errors
    ///
    /// Routing errors as [`Cluster::route`], then as [`Cluster::attach`].
    pub fn attach_routed(&self, seed: u64) -> Result<(Broker, ReplicaId), ClusterError> {
        let keypair = ClientKeypair::for_seed(seed);
        let id = self.route(keypair.public().as_bytes())?;
        Ok((self.attach_keypair(id, keypair)?, id))
    }

    /// The one door into a replica's data plane: serves one request on
    /// `id` with a direct `request` ecall (`request_echo` when `echo`)
    /// and returns the sealed reply with the forward's **modeled
    /// charge** — accounted hop RTT plus injected fault delay,
    /// deterministic under a fixed fault seed (nothing sleeps). The
    /// blocking [`crate::client::ClusterClient`] and a front step both
    /// come through here, so the refusal path cannot differ by ingress.
    ///
    /// With a fault plan installed, the forward is also the plan's one
    /// door: link faults are drawn before the request is sealed, and one
    /// ecall fault is drawn right after the ecall returns, whatever it
    /// returned (see `ecall_fault`).
    ///
    /// Nonce safety: the fault timeline (scheduled crashes/restarts,
    /// partition windows), injected link loss, a crashed enclave and
    /// bounded admission all refuse *before* `seal` runs. A request
    /// refused with `LinkLoss`, `Overloaded`, `NotRoutable` or
    /// `ReplicaDown` was never sealed, so a local caller's
    /// strict-sequence counter is intact and the same session may retry.
    /// (A framed client sealed remotely; its `seal` only hands the
    /// ciphertext over and the framed error reply tells it to
    /// re-attest.)
    ///
    /// # Errors
    ///
    /// [`ClusterError::NotRoutable`] / [`ClusterError::ReplicaDown`] /
    /// [`ClusterError::Overloaded`] as for [`Cluster::with_replica`];
    /// [`ClusterError::LinkLoss`] for injected loss or a partition;
    /// [`ClusterError::Proxy`] for the enclave's own refusal.
    pub fn forward(
        &self,
        id: ReplicaId,
        echo: bool,
        seal: impl FnOnce() -> ([u8; 32], Vec<u8>),
    ) -> Result<(Vec<u8>, Duration), ClusterError> {
        let node = self.node(id)?;
        if !self.registry.is_routable(id) {
            return Err(ClusterError::NotRoutable(id));
        }
        if !node.is_up() {
            return Err(ClusterError::ReplicaDown(id));
        }
        // Fault timeline first: scheduled crashes/restarts apply, then a
        // partition or a lossy link drops the request *before* it is
        // sealed — the tunnel's nonce counters never moved.
        self.tick_faults(id)?;
        let mut charge = Duration::ZERO;
        if let Some(plan) = self.config.faults.as_deref() {
            let fault = plan.link_fault(id.0);
            if fault.drop {
                self.metrics.link_loss.inc();
                return Err(ClusterError::LinkLoss(id));
            }
            if !fault.delay.is_zero() {
                node.account_fault(fault.delay);
                charge += fault.delay;
                self.flight.record(FlightEvent::FaultInjected {
                    replica: id.0 as u64,
                    delay_us: FleetMetrics::us(fault.delay),
                });
            }
        }
        // The timeline may just have crashed this replica: take the
        // guard only now, and refuse a dead enclave before sealing.
        let guard = node.proxy();
        let proxy = guard.as_ref().ok_or(ClusterError::ReplicaDown(id))?;
        let (reply, hop) = self.admitted(node, proxy, seal, |(client_pub, ciphertext)| {
            let reply = if echo {
                proxy.request_echo(&client_pub, &ciphertext)
            } else {
                proxy.request(&client_pub, &ciphertext)
            };
            self.ecall_fault(id, reply)
        })?;
        let reply = reply.map_err(ClusterError::Proxy)?;
        charge += hop;
        self.metrics.forwards.inc();
        self.metrics.span_forward.record(FleetMetrics::us(charge));
        Ok((reply, charge))
    }

    /// Applies the fault plan's ecall-boundary decision for `id` to the
    /// reply of an ecall that has run (no plan: the reply as is). Gray
    /// failure: the enclave did the work (the session's counters
    /// advanced) but the caller sees an error — exactly the ambiguity a
    /// real timeout produces, which is why the client must re-attest.
    /// Corruption: one flipped ciphertext byte, so the client's AEAD open
    /// fails authentication. An enclave error passes through unchanged,
    /// but still consumes its decision.
    fn ecall_fault(
        &self,
        id: ReplicaId,
        reply: Result<Vec<u8>, XSearchError>,
    ) -> Result<Vec<u8>, XSearchError> {
        let Some(plan) = self.config.faults.as_deref() else {
            return reply;
        };
        let fault = plan.ecall_fault(id.0);
        let mut payload = reply?;
        if fault.fail {
            return Err(XSearchError::Protocol(
                "injected gray failure: response lost at the ecall boundary".into(),
            ));
        }
        if fault.corrupt {
            if let Some(byte) = payload.last_mut() {
                *byte ^= 0x40;
            }
        }
        Ok(payload)
    }

    /// Hard-crashes `id`'s enclave (churn injection): sessions and the
    /// in-EPC window vanish; the platform vault and the sealed log
    /// survive. The replica stays registered until a
    /// [`Cluster::health_sweep`] drains it — exactly the window in which
    /// clients see [`ClusterError::ReplicaDown`] and retry.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownReplica`] for an out-of-range id.
    pub fn kill(&self, id: ReplicaId) -> Result<(), ClusterError> {
        self.node(id)?.kill();
        self.flight.record(FlightEvent::Crash {
            replica: id.0 as u64,
            op: self.ops.load(Ordering::Relaxed),
        });
        Ok(())
    }

    /// Restarts a crashed replica: relaunches the enclave, restores the
    /// locally sealed log if it is still current (the vault
    /// rejects anything already migrated away), and re-enrolls through a
    /// fresh challenge quote. Returns the number of restored queries.
    ///
    /// # Errors
    ///
    /// Registry verification errors; [`ClusterError::UnknownReplica`]
    /// for an out-of-range id.
    pub fn restart(&self, id: ReplicaId) -> Result<usize, ClusterError> {
        let node = self.node(id)?;
        let restored = node.relaunch(&self.ias);
        self.enroll(id)?;
        self.flight.record(FlightEvent::Restart {
            replica: id.0 as u64,
            op: self.ops.load(Ordering::Relaxed),
        });
        Ok(restored)
    }

    /// One health pass: every replica that is registered but whose
    /// enclave no longer answers is drained and failed over. Returns a
    /// report per failover performed (empty when this call coalesced
    /// into a sweep already in progress).
    ///
    /// Concurrent calls **coalesce**: when a replica dies, every
    /// in-flight client notices at once and stampedes here. The caller
    /// that takes the sweep lock scans; the rest wait for the lock and
    /// return empty — by then the failed replica is drained, so their
    /// re-route sees the new membership without N-1 redundant scans. A
    /// sweep that panicked leaves the lock poisoned, not held: the next
    /// caller takes it anyway. Within the winning scan, the
    /// registry's deregister remains the single decision point, so even
    /// sweeps from *different* entry points migrate each failed replica
    /// exactly once.
    pub fn health_sweep(&self) -> Vec<FailoverReport> {
        let _sweeping = match self.sweep.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.sweeps_coalesced.inc();
                drop(self.sweep.lock().unwrap_or_else(PoisonError::into_inner));
                return Vec::new();
            }
        };
        self.sweeps_run.inc();
        let mut reports = Vec::new();
        for node in &self.nodes {
            let id = node.id();
            if node.is_up() || !self.registry.is_routable(id) {
                continue;
            }
            // Down but still registered: drain. Only the sweeper that
            // wins the deregistration race performs the migration.
            if !self.registry.deregister(id) {
                continue;
            }
            reports.push(self.failover(id));
        }
        reports
    }

    /// Migrates the failed replica's sealed window to its designated
    /// successor. The log is only taken out of the failed node's storage
    /// once a live successor proxy is in hand, and is put back on
    /// adoption failure — a fleet with no successor (or a failed
    /// adoption) keeps the log so a later restart can still recover the
    /// window.
    fn failover(&self, failed: ReplicaId) -> FailoverReport {
        let successor = self.pick_successor(failed);
        let mut migrated_queries = 0;
        if let Some(succ_id) = successor {
            let failed_node = &self.nodes[failed.0];
            let succ_node = &self.nodes[succ_id.0];
            let guard = succ_node.proxy();
            if let Some(succ_proxy) = guard.as_ref() {
                let log = failed_node.take_sealed();
                // Atomic adoption inside the successor enclave: the
                // front tier only ever relays the opaque log, the
                // source vault retires it (no rollback at a restarted
                // `failed`), and there is no destination-version window
                // to race with the successor's sealing cadence.
                match succ_proxy.adopt_migrated_history(failed_node.vault(), &log) {
                    Ok(0) => {}
                    Ok(n) => {
                        migrated_queries = n;
                        // Seal the merged window right away so even a
                        // prompt crash of the successor cannot lose it:
                        // the adopted entries arrived through `push`, so
                        // they are the successor's next delta.
                        succ_node.seal_snapshot(succ_proxy);
                    }
                    Err(_) => failed_node.adopt_sealed(log),
                }
            }
        }
        self.metrics.failovers.inc();
        self.metrics.migrated.add(migrated_queries as u64);
        self.flight.record(FlightEvent::Failover {
            failed: failed.0 as u64,
            successor: successor.map_or(u64::MAX, |s| s.0 as u64),
            migrated: migrated_queries as u64,
        });
        FailoverReport {
            failed,
            successor,
            migrated_queries,
        }
    }

    /// The designated migration target for `failed`'s sealed window: the
    /// next distinct live replica clockwise from the failed replica's
    /// primary point on the current membership's ring.
    fn pick_successor(&self, failed: ReplicaId) -> Option<ReplicaId> {
        self.registry
            .snapshot()
            .ring()
            .walk_from_replica(failed)
            .find(|&id| id != failed && self.nodes.get(id.0).is_some_and(|n| n.is_up()))
    }
}
