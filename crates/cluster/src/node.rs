//! One fleet slot: an enclave proxy replica plus the host-side state
//! that outlives enclave crashes.
//!
//! The node models a physical machine: the **enclave** (and everything
//! in EPC — sessions, the decoy window) dies with `ReplicaNode::kill`,
//! while the **platform** state survives — the sealing identity and
//! monotonic counter ([`HistoryVault`]), the untrusted storage slot
//! holding the sealed history log, and the data-center link to the
//! router.

use crate::registry::ReplicaId;
use crate::resilience::CircuitBreaker;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::time::Duration;
use xsearch_core::config::XSearchConfig;
use xsearch_core::persistence::{HistoryVault, SealedLog};
use xsearch_core::proxy::XSearchProxy;
use xsearch_engine::engine::SearchEngine;
use xsearch_net_sim::DelayModel;
use xsearch_sgx_sim::attestation::AttestationService;
use xsearch_sgx_sim::sealed::SealingPlatform;
use xsearch_telemetry::{LabelValue, Registry};

/// A replica slot in the fleet.
pub struct ReplicaNode {
    id: ReplicaId,
    config: XSearchConfig,
    engine: Arc<SearchEngine>,
    /// The enclave proxy; `None` models a crashed/killed enclave.
    proxy: RwLock<Option<XSearchProxy>>,
    /// Sealing identity + monotonic counter (survives enclave death).
    vault: HistoryVault,
    /// Untrusted storage: the sealed history log, floor‥head. Its mutex
    /// is held across the `seal_history` ecall, so cursor read, version
    /// assignment and append are one step and segments are stored in
    /// version order whichever ingress came due.
    sealed: Mutex<SealedLog>,
    /// Routing shifts away from a replica whose breaker is open before
    /// the health sweep declares it dead (brown-out, not crash, handling).
    pub(crate) breaker: CircuitBreaker,
    /// Host-side randomness for sealing nonces.
    rng: Mutex<StdRng>,
    /// Precomputed link RTT draws (ns). Sampling a per-request delay
    /// from a mutex-guarded RNG would put a lock on the request path;
    /// instead we draw a table at launch and walk it with an atomic
    /// cursor — same distribution, zero locks.
    hop_table: Vec<u64>,
    /// Next hop-table index (wraps).
    hop_cursor: AtomicUsize,
    /// Total accounted router↔replica delay in nanoseconds.
    hop_ns: AtomicU64,
    /// Requests currently inside this replica (the admission queue
    /// depth — everything admitted but not finished).
    inflight: AtomicUsize,
    /// Deepest the admission queue has ever been.
    queue_high_water: AtomicUsize,
    /// Requests the bounded admission queue refused (backpressure).
    shed: AtomicU64,
    /// Requests served since launch (across enclave restarts).
    served: AtomicU64,
    /// Monotonic request tick for the sealing cadence (every
    /// `seal_every`-th tick seals; never reset).
    seal_ticks: AtomicUsize,
    /// Total accounted fault delay (stalls, spikes) in nanoseconds —
    /// charged, never slept, like the hop delays.
    fault_ns: AtomicU64,
}

impl std::fmt::Debug for ReplicaNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaNode")
            .field("id", &self.id)
            .field("up", &self.is_up())
            .field("inflight", &self.inflight.load(Ordering::Relaxed))
            .finish()
    }
}

impl ReplicaNode {
    /// Launches a replica: fresh enclave, fresh platform sealing
    /// identity, per-replica link. `config.seed` should differ per
    /// replica so channel identity keys differ.
    #[must_use]
    pub(crate) fn launch(
        id: ReplicaId,
        config: XSearchConfig,
        engine: Arc<SearchEngine>,
        ias: &AttestationService,
        link: DelayModel,
        host_seed: u64,
    ) -> Self {
        let proxy = XSearchProxy::launch(config.clone(), engine.clone(), ias);
        let platform = SealingPlatform::from_seed(host_seed);
        let vault = HistoryVault::new(platform, proxy.expected_measurement());
        let mut hop_rng = StdRng::seed_from_u64(host_seed ^ 0x1A2B_3C4D);
        let hop_table: Vec<u64> = (0..1024)
            .map(|_| link.rtt(&mut hop_rng).as_nanos() as u64)
            .collect();
        ReplicaNode {
            id,
            config,
            engine,
            proxy: RwLock::new(Some(proxy)),
            vault,
            sealed: Mutex::new(SealedLog::default()),
            breaker: CircuitBreaker::default(),
            rng: Mutex::new(StdRng::seed_from_u64(host_seed ^ 0xA5A5_5A5A)),
            hop_table,
            hop_cursor: AtomicUsize::new(0),
            hop_ns: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            queue_high_water: AtomicUsize::new(0),
            shed: AtomicU64::new(0),
            served: AtomicU64::new(0),
            seal_ticks: AtomicUsize::new(0),
            fault_ns: AtomicU64::new(0),
        }
    }

    /// Registers the snapshot-time poll collectors: every pre-existing
    /// hot-path atomic (queue depths, shed counts, hop/fault accounting,
    /// breaker trips) is read at snapshot time through a
    /// cloned `Arc` — the instrumented request path pays nothing for any
    /// of these, and none enters an enclave (the engine-delay reading is
    /// the proxy's host-side uplink accounting).
    pub(crate) fn register_polls(nodes: &[Arc<ReplicaNode>], telemetry: &Registry) {
        type Read = fn(&ReplicaNode) -> u64;
        let per_replica: [(&str, &str, Read); 4] = [
            (
                "xsearch_replica_inflight",
                "Requests currently admitted on this replica",
                |n| n.inflight() as u64,
            ),
            (
                "xsearch_replica_queue_high_water",
                "Deepest this replica's admission queue has been",
                |n| n.queue_high_water.load(Ordering::Relaxed) as u64,
            ),
            (
                "xsearch_replica_shed",
                "Requests this replica's bounded queue refused",
                |n| n.shed.load(Ordering::Relaxed),
            ),
            (
                "xsearch_replica_served",
                "Requests served by this replica since launch",
                |n| n.served.load(Ordering::Relaxed),
            ),
        ];
        for node in nodes {
            let label = [("replica", LabelValue::Int(node.id().0 as u64))];
            for (name, help, read) in per_replica {
                let n = Arc::clone(node);
                telemetry.poll(name, help, &label, move || read(&n) as f64);
            }
        }
        // Fleet-wide: the per-node readings summed, then scaled.
        let fleet_wide: [(&str, &str, Read, f64); 4] = [
            (
                "xsearch_fleet_hop_delay_us",
                "Accounted router-replica hop delay, microseconds",
                |n| n.hop_ns.load(Ordering::Relaxed),
                1e3,
            ),
            (
                "xsearch_fleet_fault_delay_us",
                "Accounted injected fault delay, microseconds",
                |n| n.fault_ns.load(Ordering::Relaxed),
                1e3,
            ),
            (
                "xsearch_fleet_engine_delay_us",
                "Modeled engine service time charged fleet-wide, microseconds",
                |n| {
                    n.proxy().as_ref().map_or(0, |p| {
                        let us = p.engine_service().accounted_delay().as_micros();
                        us.min(u128::from(u64::MAX)) as u64
                    })
                },
                1.0,
            ),
            (
                "xsearch_breaker_trips",
                "Circuit-breaker trips across the fleet",
                |n| n.breaker.trips(),
                1.0,
            ),
        ];
        for (name, help, read, per_unit) in fleet_wide {
            let all = nodes.to_vec();
            telemetry.poll(name, help, &[], move || {
                all.iter().map(|n| read(n)).sum::<u64>() as f64 / per_unit
            });
        }
    }

    /// This node's fleet slot.
    #[must_use]
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Whether the enclave is running.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.proxy().is_some()
    }

    /// Read access to the live proxy (`None` while down).
    pub(crate) fn proxy(&self) -> RwLockReadGuard<'_, Option<XSearchProxy>> {
        self.proxy.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The node's sealing vault (the source a failover adopts from).
    pub(crate) fn vault(&self) -> &HistoryVault {
        &self.vault
    }

    /// Requests currently in flight on this replica.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Relaxed)
    }

    /// Bounded admission: atomically claims a queue slot unless the node
    /// already holds `limit` requests.
    /// Returns `false` — and counts the shed — when the request must be
    /// refused; the caller surfaces that as backpressure instead of
    /// queueing without bound and collapsing.
    pub(crate) fn try_enter(&self, limit: usize) -> bool {
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            if current >= limit {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.queue_high_water
                        .fetch_max(current + 1, Ordering::Relaxed);
                    return true;
                }
                Err(observed) => current = observed,
            }
        }
    }

    pub(crate) fn exit(&self) {
        self.inflight.fetch_sub(1, Ordering::Relaxed);
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts one router→replica→router hop: takes the next
    /// precomputed RTT draw (atomic cursor, no locks) and adds it to
    /// this node's accounted-delay total.
    pub(crate) fn account_hop(&self) -> Duration {
        let i = self.hop_cursor.fetch_add(1, Ordering::Relaxed) % self.hop_table.len();
        let ns = self.hop_table[i];
        self.hop_ns.fetch_add(ns, Ordering::Relaxed);
        Duration::from_nanos(ns)
    }

    /// Accounts injected fault delay (a stall or spike) against this
    /// node — charged on the modeled clock, never slept.
    pub(crate) fn account_fault(&self, delay: Duration) {
        if !delay.is_zero() {
            self.fault_ns.fetch_add(
                delay.as_nanos().min(u128::from(u64::MAX)) as u64,
                Ordering::Relaxed,
            );
        }
    }

    /// Ticks the sealing cadence; returns `true` when a seal is due
    /// (every `every` served requests). The counter is never reset —
    /// each tick takes a unique value and exactly every `every`-th one
    /// fires, so concurrent requests cannot lose cadence ticks.
    pub(crate) fn seal_due(&self, every: usize) -> bool {
        let every = every.max(1);
        let n = self.seal_ticks.fetch_add(1, Ordering::AcqRel) + 1;
        n.is_multiple_of(every)
    }

    /// Seals what reached the live window since the last seal and appends
    /// the segment to this node's untrusted storage slot (nothing when no
    /// request landed in between).
    pub(crate) fn seal_snapshot(&self, proxy: &XSearchProxy) {
        let mut log = self.sealed.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(segment) = proxy.seal_history_snapshot(
            &self.vault,
            &mut *self.rng.lock().unwrap_or_else(PoisonError::into_inner),
        ) {
            log.append(segment);
        }
    }

    /// Puts a log a failed adoption could not use back into the storage
    /// slot, unless the slot has moved on since.
    pub(crate) fn adopt_sealed(&self, log: SealedLog) {
        let mut slot = self.sealed.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.head_version() < log.head_version() {
            *slot = log;
        }
    }

    /// Takes the sealed log out of untrusted storage (the failover
    /// migration consumes it).
    pub(crate) fn take_sealed(&self) -> SealedLog {
        std::mem::take(&mut *self.sealed.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Hard-crashes the enclave: sessions and the in-EPC window are
    /// gone; only the sealed log (and the platform vault) survives.
    pub(crate) fn kill(&self) {
        *self.proxy.write().unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// Relaunches the enclave after a crash. If the untrusted storage
    /// slot still holds a log, the fresh enclave adopts it through
    /// the same atomic version-claiming path failover migration uses —
    /// so even a restart racing a concurrent health sweep cannot restore
    /// a window that a successor adopted (or is adopting): exactly one
    /// consumer wins each sealed version. Returns the number of restored
    /// queries.
    pub(crate) fn relaunch(&self, ias: &AttestationService) -> usize {
        let proxy = XSearchProxy::launch(self.config.clone(), self.engine.clone(), ias);
        // On error the log was already claimed (migrated to a successor)
        // or is foreign: start empty rather than resurrect a superseded
        // window.
        let restored = proxy
            .adopt_migrated_history(
                &self.vault,
                &self.sealed.lock().unwrap_or_else(PoisonError::into_inner),
            )
            .unwrap_or(0);
        // Re-seal immediately — a chain start, this being a new enclave
        // lifetime — so the slot reflects the restored state at a fresh
        // monotonic version.
        if restored > 0 {
            self.seal_snapshot(&proxy);
        }
        *self.proxy.write().unwrap_or_else(PoisonError::into_inner) = Some(proxy);
        restored
    }
}
