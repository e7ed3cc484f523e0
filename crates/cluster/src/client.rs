//! A fleet-aware broker: routes by a stable affinity key, attests its
//! replica end-to-end, and on failure triggers a health sweep, re-routes,
//! re-attests the successor, and retries the request.
//!
//! Searches ride the cluster's coalescing data plane through its one
//! blocking door, [`Cluster::forward`]: the client's seal closure runs
//! only once the request is admitted, the ciphertext goes onto its
//! replica's lane, and the client blocks on its own reusable
//! [`RequestSlot`] until the (possibly batched) response comes back. The
//! tunnel is established once at attach and reused for every request —
//! no per-request channel setup; re-attestation happens only on
//! failover. What the policy stack did (retries, re-attestations, hedges,
//! deadline misses, link losses) is counted once, on the fleet registry
//! (`xsearch_client_*_total`).
//!
//! # The resilience policy stack
//!
//! When [`crate::ResilienceConfig::enabled`] is set (the default), every search
//! runs under a **deadline budget** on the modeled clock and walks a
//! ladder of policies, cheapest first:
//!
//! 1. **deadline** — accounted charges (hops, injected faults, backoff)
//!    accrue against [`crate::ResilienceConfig::deadline`]; when the budget is
//!    gone the search fails *typed* ([`ClusterError::DeadlineExceeded`],
//!    not [`ClusterError::RetriesExhausted`]);
//! 2. **backoff** — retries charge capped exponential backoff with
//!    decorrelated jitter instead of hammering the fleet immediately;
//! 3. **breakers** — repeated failures or over-deadline answers trip the
//!    replica's circuit breaker, deflecting affinity routing *before*
//!    the health sweep declares the replica dead;
//! 4. **hedging** (opt-in) — an answer slower than the p99-derived hedge
//!    delay is raced against the ring successor on a fresh sub-session;
//!    the first answer (on the modeled clock) wins;
//! 5. **degradation** — under queue pressure the fleet shrinks the decoy
//!    count `k` before it sheds real queries (driven fleet-side from
//!    each replica's queue depth).
//!
//! Every decision consumes only deterministic inputs (seeded jitter,
//! accounted charges, the fleet's op clock), so a chaos run with a fixed
//! fault seed replays to an identical transcript.

use crate::error::ClusterError;
use crate::fleet::{Cluster, MAX_FAILOVERS};
use crate::obs::FleetMetrics;
use crate::registry::ReplicaId;
use crate::resilience::{Backoff, LatencyEstimator};
use crate::router::RequestSlot;
use std::sync::Arc;
use std::time::Duration;
use xsearch_core::broker::Broker;
use xsearch_core::wire::WireResult;
use xsearch_crypto::sha256::Sha256;
use xsearch_telemetry::FlightEvent;

/// What one resolved search cost (returned by
/// [`ClusterClient::search_outcome`]).
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The decrypted results.
    pub results: Vec<WireResult>,
    /// Total modeled cost: accounted hops + injected fault delay +
    /// backoff charges across every attempt (deterministic under a
    /// fixed fault seed — nothing here is wall-clock).
    pub cost: Duration,
    /// Forward attempts this search made (1 = first try answered).
    pub attempts: u32,
    /// Whether a hedge request was fired.
    pub hedged: bool,
    /// The replica whose answer was used.
    pub replica: ReplicaId,
}

/// One client of the fleet: a [`Broker`] plus routing state.
///
/// Routing uses a stable per-client **affinity key** (a hash of the
/// client seed) rather than the channel public key: re-attaching after a
/// failover rotates the channel keypair (fresh keys ⇒ no nonce reuse)
/// without changing where consistent hashing places the client. The
/// router learns nothing from the key — it is an opaque byte string.
pub struct ClusterClient {
    seed: u64,
    /// Count of handshakes performed; salts each reattach seed so a
    /// fresh keypair (and thus fresh channel keys) is derived every time.
    handshakes: u64,
    /// Searches started — salts the per-search backoff jitter stream.
    searches: u64,
    affinity: [u8; 32],
    replica: ReplicaId,
    broker: Broker,
    /// The client's completion cell on the data plane, reused across
    /// requests (one outstanding request at a time — guaranteed by
    /// `&mut self` on the search methods).
    slot: Arc<RequestSlot>,
    /// Effective answer-cost samples, for the p99-derived hedge delay.
    latencies: LatencyEstimator,
    last_cost: Duration,
}

impl std::fmt::Debug for ClusterClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterClient")
            .field("replica", &self.replica)
            .field("handshakes", &self.handshakes)
            .finish()
    }
}

fn affinity_key(seed: u64) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(b"xsearch-client-affinity-v1");
    h.update(&seed.to_le_bytes());
    h.finalize()
}

pub(crate) fn handshake_seed(seed: u64, handshakes: u64) -> u64 {
    seed ^ handshakes.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The seal closure every forward hands to [`Cluster::forward`]: the
/// wire envelope key plus `query` sealed under the tunnel's next nonce.
fn seal(broker: &mut Broker, query: &str) -> ([u8; 32], Vec<u8>) {
    (*broker.client_pub().as_bytes(), broker.seal_query(query))
}

impl ClusterClient {
    /// Routes `seed`'s affinity key through the cluster, attests the
    /// chosen replica, and establishes the tunnel.
    ///
    /// # Errors
    ///
    /// Routing errors and attestation/tunnel failures.
    pub fn attach(cluster: &Cluster, seed: u64) -> Result<Self, ClusterError> {
        let affinity = affinity_key(seed);
        let replica = cluster.route(&affinity)?;
        let broker = cluster.attach(replica, handshake_seed(seed, 0))?;
        Ok(ClusterClient {
            seed,
            handshakes: 1,
            searches: 0,
            affinity,
            replica,
            broker,
            slot: RequestSlot::new(),
            latencies: LatencyEstimator::default(),
            last_cost: Duration::ZERO,
        })
    }

    /// The replica this client is currently pinned to.
    #[must_use]
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// The client's stable routing key.
    #[must_use]
    pub fn affinity(&self) -> &[u8; 32] {
        &self.affinity
    }

    /// The modeled cost of the most recent search, successful or not
    /// (for a failed search: everything charged before it gave up).
    #[must_use]
    pub fn last_cost(&self) -> Duration {
        self.last_cost
    }

    /// One private search through the fleet (full engine round trip).
    ///
    /// # Errors
    ///
    /// [`ClusterError::RetriesExhausted`] (or a routing error) after the
    /// configured failover budget, [`ClusterError::DeadlineExceeded`]
    /// when the deadline budget ran out first.
    pub fn search(
        &mut self,
        cluster: &Cluster,
        query: &str,
    ) -> Result<Vec<WireResult>, ClusterError> {
        self.search_outcome(cluster, query).map(|o| o.results)
    }

    /// One request in echo mode (no engine round trip) — the saturation
    /// benchmarks' path.
    ///
    /// # Errors
    ///
    /// See [`ClusterClient::search`].
    pub fn search_echo(
        &mut self,
        cluster: &Cluster,
        query: &str,
    ) -> Result<Vec<WireResult>, ClusterError> {
        self.search_echo_outcome(cluster, query).map(|o| o.results)
    }

    /// [`ClusterClient::search`] with the full [`SearchOutcome`]
    /// (modeled cost, attempts, hedging).
    ///
    /// # Errors
    ///
    /// See [`ClusterClient::search`].
    pub fn search_outcome(
        &mut self,
        cluster: &Cluster,
        query: &str,
    ) -> Result<SearchOutcome, ClusterError> {
        self.search_inner(cluster, query, false)
    }

    /// [`ClusterClient::search_echo`] with the full [`SearchOutcome`].
    ///
    /// # Errors
    ///
    /// See [`ClusterClient::search`].
    pub fn search_echo_outcome(
        &mut self,
        cluster: &Cluster,
        query: &str,
    ) -> Result<SearchOutcome, ClusterError> {
        self.search_inner(cluster, query, true)
    }

    fn search_inner(
        &mut self,
        cluster: &Cluster,
        query: &str,
        echo: bool,
    ) -> Result<SearchOutcome, ClusterError> {
        self.searches = self.searches.wrapping_add(1);
        if cluster.config().resilience.enabled {
            self.search_with_policies(cluster, query, echo)
        } else {
            self.search_bare(cluster, query, echo)
        }
    }

    /// The policy-stack search loop. All costs are modeled charges, so
    /// the loop's decisions replay deterministically under a fixed fault
    /// seed.
    fn search_with_policies(
        &mut self,
        cluster: &Cluster,
        query: &str,
        echo: bool,
    ) -> Result<SearchOutcome, ClusterError> {
        let rcfg = cluster.config().resilience.clone();
        let deadline = rcfg.deadline;
        let mut backoff = Backoff::new(
            rcfg.backoff_base,
            rcfg.backoff_cap,
            self.seed ^ self.searches.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        let mut spent = Duration::ZERO;
        let mut attempts: u32 = 0;
        let mut failovers = 0usize;
        loop {
            if spent >= deadline {
                cluster.metrics.client_deadline_misses.inc();
                cluster.flight().record(FlightEvent::DeadlineMiss {
                    replica: self.replica.0 as u64,
                });
                self.last_cost = spent;
                return Err(ClusterError::DeadlineExceeded);
            }
            // Breaker pre-check: if our replica is browning out, prefer
            // somewhere healthier — but if routing has nowhere better
            // (fleet-wide brown-out) we carry on with what we have
            // rather than inventing an outage.
            if !cluster.replica_accepting(self.replica) {
                match self.reroute(cluster) {
                    Ok(()) => {}
                    Err(
                        ClusterError::ReplicaDown(_)
                        | ClusterError::NotRoutable(_)
                        | ClusterError::Proxy(_),
                    ) => {
                        // The forward below will fail on the stale
                        // replica and take the normal recovery path.
                        cluster.health_sweep();
                    }
                    Err(e) => return Err(e),
                }
            }
            attempts += 1;
            if attempts > 1 {
                cluster.metrics.client_retries.inc();
            }
            let target = self.replica;
            let broker = &mut self.broker;
            // The seal closure runs only after the request is admitted
            // (and after injected link loss): a request shed with
            // `Overloaded` or dropped with `LinkLoss` was never sealed,
            // so the tunnel's strict-sequence nonce counter stays in
            // sync and retrying on the same session is safe.
            let outcome = cluster.forward(
                target,
                echo,
                &self.slot,
                Some(deadline.saturating_sub(spent)),
                || seal(broker, query),
            );
            let last = match outcome {
                Ok((response, charge)) => match self.broker.open_results(&response) {
                    Ok(results) => {
                        return Ok(self.resolve_answer(
                            cluster, query, echo, &rcfg, spent, charge, attempts, target, results,
                        ));
                    }
                    // The replica answered but not on our session, or the
                    // response was corrupted in flight (gray failure):
                    // AEAD caught it, the session may be desynchronized
                    // either way — re-attest below.
                    Err(e) => {
                        cluster.record_failure(target);
                        let pause = backoff.next_delay();
                        cluster.metrics.span_backoff.record(FleetMetrics::us(pause));
                        spent += charge + pause;
                        ClusterError::Proxy(e)
                    }
                },
                // Dropped before sealing: same-session retry after a
                // backoff charge. No reattach, no failover — the tunnel
                // never moved.
                Err(ClusterError::LinkLoss(id)) => {
                    cluster.metrics.client_link_losses.inc();
                    cluster.record_failure(id);
                    let pause = backoff.next_delay();
                    cluster.metrics.span_backoff.record(FleetMetrics::us(pause));
                    spent += pause;
                    continue;
                }
                // Overloaded is deliberate backpressure from a *healthy*
                // replica: propagate it instead of hammering the fleet
                // with an immediate retry (and never health-sweep for
                // it — the replica is alive, just busy).
                Err(e @ ClusterError::Overloaded(_)) => {
                    self.last_cost = spent;
                    return Err(e);
                }
                // The lane leader found our entry past its budget and
                // refused to execute it. The request *was* sealed, so
                // the session is desynchronized: re-attest before
                // handing the typed miss to the caller.
                Err(ClusterError::DeadlineExceeded) => {
                    cluster.metrics.client_deadline_misses.inc();
                    cluster.flight().record(FlightEvent::DeadlineMiss {
                        replica: target.0 as u64,
                    });
                    self.last_cost = spent;
                    let _ = self.reroute(cluster);
                    return Err(ClusterError::DeadlineExceeded);
                }
                Err(ClusterError::Proxy(e)) => {
                    // Our entry failed inside a coalesced batch —
                    // typically a replica that crashed and restarted
                    // (sessions die with the enclave). Re-attest below.
                    cluster.record_failure(target);
                    let pause = backoff.next_delay();
                    cluster.metrics.span_backoff.record(FleetMetrics::us(pause));
                    spent += pause;
                    ClusterError::Proxy(e)
                }
                Err(e @ (ClusterError::ReplicaDown(_) | ClusterError::NotRoutable(_))) => {
                    // The replica stopped answering: drain it and
                    // migrate its window before re-routing.
                    cluster.record_failure(target);
                    cluster.health_sweep();
                    let pause = backoff.next_delay();
                    cluster.metrics.span_backoff.record(FleetMetrics::us(pause));
                    spent += pause;
                    e
                }
                Err(e) => {
                    self.last_cost = spent;
                    return Err(e);
                }
            };
            // Recovery tail: re-route + re-attest, bounded by the
            // failover budget (time is bounded by the deadline check).
            if failovers >= MAX_FAILOVERS {
                self.last_cost = spent;
                return Err(last);
            }
            failovers += 1;
            match self.reroute(cluster) {
                Ok(()) => {}
                // The successor can itself die between routing and
                // attach — sweep and let the next attempt re-route.
                Err(ClusterError::ReplicaDown(_) | ClusterError::NotRoutable(_)) => {
                    cluster.health_sweep();
                }
                Err(e) => {
                    self.last_cost = spent;
                    return Err(e);
                }
            }
        }
    }

    /// Resolves a successful answer: hedge if it was slow, settle the
    /// breaker, record the effective latency sample, and assemble the
    /// outcome.
    #[allow(clippy::too_many_arguments)]
    fn resolve_answer(
        &mut self,
        cluster: &Cluster,
        query: &str,
        echo: bool,
        rcfg: &crate::resilience::ResilienceConfig,
        spent: Duration,
        charge: Duration,
        attempts: u32,
        target: ReplicaId,
        results: Vec<WireResult>,
    ) -> SearchOutcome {
        let deadline = rcfg.deadline;
        let mut cost = spent + charge;
        let mut winner = target;
        let mut winning_results = results;
        let mut hedged = false;
        if rcfg.hedge {
            let hedge_delay = self.latencies.hedge_delay();
            if charge > hedge_delay {
                // The primary's answer was slower than the hedge
                // trigger: race the ring successor on a fresh
                // sub-session and take whichever answer lands first on
                // the modeled clock. (The primary's answer is already in
                // hand, so this rewrites cost, not correctness — and the
                // sub-session's fresh keypair means the race can never
                // touch the primary tunnel's nonce sequence.)
                cluster.metrics.client_hedges_fired.inc();
                hedged = true;
                if let Some((h_results, h_charge, h_replica)) = self.try_hedge(cluster, query, echo)
                {
                    let hedge_cost = spent + hedge_delay + h_charge;
                    if hedge_cost < cost {
                        cluster.metrics.client_hedges_won.inc();
                        cluster.flight().record(FlightEvent::HedgeWon {
                            replica: h_replica.0 as u64,
                        });
                        cost = hedge_cost;
                        winner = h_replica;
                        winning_results = h_results;
                    }
                }
            }
        }
        // The breaker judges the *primary's raw* answer time: a stalled
        // replica must brown out of routing even when hedges keep
        // rescuing its requests.
        if charge > deadline {
            cluster.record_failure(target);
        } else {
            cluster.record_success(target);
        }
        // The estimator records the *effective* cost of this attempt —
        // hedged answers keep the p99 honest; recording a stall's raw
        // charge would inflate the trigger until hedging disabled
        // itself.
        self.latencies.record(cost.saturating_sub(spent));
        cluster.metrics.span_request.record(FleetMetrics::us(cost));
        if cost > deadline {
            cluster.metrics.client_deadline_misses.inc();
        }
        self.last_cost = cost;
        SearchOutcome {
            results: winning_results,
            cost,
            attempts,
            hedged,
            replica: winner,
        }
    }

    /// Fires one hedge request at the ring successor on a fresh
    /// sub-session. Returns the results, the modeled charge of the
    /// hedge's own forward, and the answering replica — or `None` when
    /// there is no eligible successor or the hedge itself failed (the
    /// primary's answer is already in hand, so a failed hedge costs
    /// nothing).
    fn try_hedge(
        &mut self,
        cluster: &Cluster,
        query: &str,
        echo: bool,
    ) -> Option<(Vec<WireResult>, Duration, ReplicaId)> {
        let successor = cluster.ring_successor(self.replica)?;
        cluster.flight().record(FlightEvent::HedgeFired {
            primary: self.replica.0 as u64,
            hedge: successor.0 as u64,
        });
        let seed = handshake_seed(self.seed, self.handshakes);
        self.handshakes += 1;
        cluster.metrics.client_reattaches.inc();
        let mut hedge_broker = cluster.attach(successor, seed).ok()?;
        let slot = RequestSlot::new();
        let (response, charge) = cluster
            .forward(successor, echo, &slot, None, || {
                seal(&mut hedge_broker, query)
            })
            .ok()?;
        let results = hedge_broker.open_results(&response).ok()?;
        Some((results, charge, successor))
    }

    /// The pre-policy search loop, kept for `resilience.enabled ==
    /// false`: immediate retries, no deadline, no breakers — and a
    /// request dropped on the link is simply a failed request. This is
    /// the baseline the chaos bench demonstrates collapsing.
    fn search_bare(
        &mut self,
        cluster: &Cluster,
        query: &str,
        echo: bool,
    ) -> Result<SearchOutcome, ClusterError> {
        let mut last = ClusterError::RetriesExhausted;
        let mut spent = Duration::ZERO;
        let rounds = MAX_FAILOVERS as u32 + 1;
        for attempts in 1..=rounds {
            let target = self.replica;
            let broker = &mut self.broker;
            let outcome = cluster.forward(target, echo, &self.slot, None, || seal(broker, query));
            match outcome {
                Ok((response, charge)) => {
                    spent += charge;
                    match self.broker.open_results(&response) {
                        Ok(results) => {
                            self.last_cost = spent;
                            return Ok(SearchOutcome {
                                results,
                                cost: spent,
                                attempts,
                                hedged: false,
                                replica: target,
                            });
                        }
                        Err(e) => last = ClusterError::Proxy(e),
                    }
                }
                Err(ClusterError::Proxy(e)) => {
                    last = ClusterError::Proxy(e);
                }
                Err(e @ (ClusterError::ReplicaDown(_) | ClusterError::NotRoutable(_))) => {
                    cluster.health_sweep();
                    last = e;
                }
                // Overloaded, LinkLoss, everything else: without the
                // policy stack there is no same-session retry discipline
                // — the failure is the caller's problem.
                Err(e) => {
                    self.last_cost = spent;
                    return Err(e);
                }
            }
            match self.reroute(cluster) {
                Ok(()) => {}
                Err(e @ (ClusterError::ReplicaDown(_) | ClusterError::NotRoutable(_))) => {
                    cluster.health_sweep();
                    last = e;
                }
                Err(e) => {
                    self.last_cost = spent;
                    return Err(e);
                }
            }
        }
        self.last_cost = spent;
        Err(last)
    }

    /// Re-routes on the affinity key and re-attests whatever replica now
    /// owns it, with a fresh handshake seed (fresh channel keys).
    fn reroute(&mut self, cluster: &Cluster) -> Result<(), ClusterError> {
        let replica = cluster.route(&self.affinity)?;
        let seed = handshake_seed(self.seed, self.handshakes);
        self.handshakes += 1;
        cluster.metrics.client_reattaches.inc();
        let broker = &mut self.broker;
        cluster.with_replica(replica, |proxy| {
            broker.reattach(proxy, cluster.ias(), cluster.expected_measurement(), seed)
        })??;
        self.replica = replica;
        Ok(())
    }
}
