//! A fleet-aware broker: routes by a stable affinity key, attests its
//! replica end-to-end, and rides out failures by interpreting the
//! resilience ladder.
//!
//! Searches go through the cluster's one data-plane door,
//! [`Cluster::forward`]: the client's seal closure runs only once the
//! request is admitted, and the client's own thread carries the
//! ciphertext into its replica's enclave in one `request` ecall. The
//! tunnel is established once at attach and reused for every request —
//! no per-request channel setup; re-attestation happens only on
//! failover.
//!
//! # One loop, one table
//!
//! *What to do next* is not decided here: [`crate::resilience`] holds
//! the ladder as a pure table over plain integers (deadline budget,
//! outcome class → reaction, deadline and breaker judgement).
//! [`ClusterClient::search_outcome`] interprets it in one loop: check
//! the deadline budget, forward, classify how the attempt ended, ask the
//! table, then strike / sweep / pause as the
//! [`Reaction`](crate::resilience::Reaction) says and finish, retry on
//! the same session, re-attach, or abandon or give up. A request reaches
//! one enclave, once: only an attempt no enclave can have served is
//! sent again, and an answer that lands past the deadline is opened,
//! discarded and failed typed. What the loop did is counted
//! once, on the fleet registry (`xsearch_client_*_total`). Every
//! decision consumes only deterministic inputs (seeded jitter, accounted
//! charges, the fleet's op clock), so a chaos run with a fixed fault
//! seed replays to an identical transcript.
//!
//! # Sessions
//!
//! A client holds **one** enclave session at a time. A re-attach derives
//! a fresh keypair (fresh channel keys ⇒ no nonce reuse) and so opens a
//! new session inside the enclave; the client closes the one it
//! replaces. (A session on a crashed replica died with the enclave.)

use crate::error::ClusterError;
use crate::fleet::Cluster;
use crate::obs::FleetMetrics;
use crate::registry::ReplicaId;
use crate::resilience::{
    blew_deadline, survives_failed_reattach, Backoff, Outcome, Progress, Step,
};
use std::time::Duration;
use xsearch_core::broker::Broker;
use xsearch_core::error::XSearchError;
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

/// The ladder's class for an error a forward returned. Only an unknown
/// session says the enclave refused the entry unopened; any other proxy
/// error may follow Algorithm 1's run, so its answer counts as lost.
fn class_of(err: &ClusterError) -> Outcome {
    match err {
        ClusterError::LinkLoss(_) => Outcome::LinkLoss,
        ClusterError::Overloaded(_) => Outcome::Shed,
        ClusterError::Proxy(XSearchError::UnknownSession) => Outcome::EntryFailed,
        ClusterError::Proxy(_) => Outcome::AnswerLost,
        ClusterError::ReplicaDown(_) | ClusterError::NotRoutable(_) => Outcome::ReplicaGone,
        _ => Outcome::Other,
    }
}

/// The ladder's class for an error a re-attach returned: a handshake
/// carries no request, so every proxy error is a refused entry.
fn reattach_class_of(err: &ClusterError) -> Outcome {
    match class_of(err) {
        Outcome::AnswerLost => Outcome::EntryFailed,
        class => class,
    }
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
    /// See [`ClusterClient::search_outcome`].
    pub fn search(
        &mut self,
        cluster: &Cluster,
        query: &str,
    ) -> Result<Vec<WireResult>, ClusterError> {
        self.search_outcome(cluster, query, false)
            .map(|o| o.results)
    }

    /// One request in echo mode (no engine round trip) — the saturation
    /// benchmarks' path.
    ///
    /// # Errors
    ///
    /// See [`ClusterClient::search_outcome`].
    pub fn search_echo(
        &mut self,
        cluster: &Cluster,
        query: &str,
    ) -> Result<Vec<WireResult>, ClusterError> {
        self.search_outcome(cluster, query, true).map(|o| o.results)
    }

    /// One search — `echo` skips the engine round trip — with the full
    /// [`SearchOutcome`] (modeled cost, attempts).
    ///
    /// # Errors
    ///
    /// [`ClusterError::DeadlineExceeded`] when the deadline budget ran
    /// out, or when the answer landed past the deadline (then
    /// [`ClusterClient::last_cost`] is exactly the deadline); otherwise
    /// the error of the attempt the ladder gave up on — one the enclave
    /// may have served (a reply that would not open, a proxy failure),
    /// the last one once [`crate::resilience::MAX_FAILOVERS`] failovers
    /// are spent, or the first that is not the client's to ride out
    /// ([`ClusterError::Overloaded`], a routing error).
    pub fn search_outcome(
        &mut self,
        cluster: &Cluster,
        query: &str,
        echo: bool,
    ) -> Result<SearchOutcome, ClusterError> {
        self.searches = self.searches.wrapping_add(1);
        let mut at = Progress::default();
        let result = self.climb(cluster, query, echo, &mut at);
        self.last_cost = at.spent;
        result
    }

    /// The ladder's interpreter. All costs are modeled charges, so the
    /// loop's decisions replay deterministically under a fixed fault
    /// seed.
    fn climb(
        &mut self,
        cluster: &Cluster,
        query: &str,
        echo: bool,
        at: &mut Progress,
    ) -> Result<SearchOutcome, ClusterError> {
        let rcfg = &cluster.config().resilience;
        let mut backoff = Backoff::new(
            rcfg.backoff_base,
            rcfg.backoff_cap,
            self.seed ^ self.searches.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        loop {
            if !at.budget(rcfg.deadline) {
                self.deadline_miss(cluster);
                return Err(ClusterError::DeadlineExceeded);
            }
            // Breaker pre-check: if our replica is browning out, prefer
            // somewhere healthier — but if routing has nowhere better
            // (fleet-wide brown-out) we carry on with what we have
            // rather than inventing an outage.
            if !cluster.replica_accepting(self.replica) {
                self.reattach_or_sweep(cluster, true)?;
            }
            at.attempts += 1;
            if at.attempts > 1 {
                cluster.metrics.client_retries.inc();
            }
            let target = self.replica;
            let broker = &mut self.broker;
            // `seal` runs only once the request is admitted: one shed or
            // dropped on the link never moved the tunnel's nonce counter,
            // which is what makes a same-session retry safe.
            let forwarded = cluster.forward(target, echo, || seal(broker, query));
            let (outcome, charge, answer) = match forwarded {
                Ok((response, charge)) => match self.broker.open_results(&response) {
                    Ok(results) => (Outcome::Opened, charge, Ok(results)),
                    Err(e) => (Outcome::AnswerLost, charge, Err(ClusterError::Proxy(e))),
                },
                Err(e) => (class_of(&e), Duration::ZERO, Err(e)),
            };
            // Every answer took its time, whether it opened or not.
            at.spent += charge;
            let reaction = at.react(outcome);
            if outcome == Outcome::LinkLoss {
                cluster.metrics.client_link_losses.inc();
            }
            if reaction.strike {
                cluster.record_failure(target);
            }
            if reaction.sweep {
                cluster.health_sweep();
            }
            if reaction.pause {
                let pause = backoff.next_delay();
                cluster.metrics.span_backoff.record(FleetMetrics::us(pause));
                at.spent += pause;
            }
            match (reaction.step, answer) {
                (Step::Finish, Ok(results)) => {
                    return self.settle(cluster, at, charge, target, results);
                }
                (Step::Finish, Err(_)) | (_, Ok(_)) => {
                    unreachable!("the ladder finishes the opened outcome and no other")
                }
                (Step::Retry, Err(_)) => {}
                (Step::Reattach, Err(_)) => {
                    at.failovers += 1;
                    self.reattach_or_sweep(cluster, false)?;
                }
                (Step::Abandon, Err(e)) => {
                    // The re-attach serves the next search; this one
                    // returns its own error whatever the re-attach met.
                    let _ = self.reattach_or_sweep(cluster, false);
                    return Err(e);
                }
                (Step::GiveUp, Err(e)) => return Err(e),
            }
        }
    }

    /// Counts a deadline miss against the replica in hand.
    fn deadline_miss(&self, cluster: &Cluster) {
        cluster.metrics.client_deadline_misses.inc();
        cluster.flight().record(FlightEvent::DeadlineMiss {
            replica: self.replica.0 as u64,
        });
    }

    /// Settles an opened answer. The breaker judges the attempt's own
    /// `charge`; the search, its cumulative cost `at.spent` (which
    /// includes `charge`). An answer past the deadline is discarded —
    /// it was opened, so the tunnel stays in step — and the search fails
    /// typed, charged exactly the deadline. It is never sent again.
    fn settle(
        &self,
        cluster: &Cluster,
        at: &mut Progress,
        charge: Duration,
        target: ReplicaId,
        results: Vec<WireResult>,
    ) -> Result<SearchOutcome, ClusterError> {
        let deadline = cluster.config().resilience.deadline;
        if blew_deadline(charge, deadline) {
            cluster.record_failure(target);
        } else {
            cluster.record_success(target);
        }
        if blew_deadline(at.spent, deadline) {
            at.spent = deadline;
            self.deadline_miss(cluster);
            return Err(ClusterError::DeadlineExceeded);
        }
        cluster
            .metrics
            .span_request
            .record(FleetMetrics::us(at.spent));
        Ok(SearchOutcome {
            results,
            cost: at.spent,
            attempts: at.attempts,
        })
    }

    /// [`ClusterClient::reattach`], answering a failure the search
    /// survives (`resilience::survives_failed_reattach`) with a health
    /// sweep: the next attempt fails over, or re-routes, from there.
    fn reattach_or_sweep(
        &mut self,
        cluster: &Cluster,
        session_intact: bool,
    ) -> Result<(), ClusterError> {
        match self.reattach(cluster) {
            Err(e) if survives_failed_reattach(reattach_class_of(&e), session_intact) => {
                cluster.health_sweep();
                Ok(())
            }
            other => other,
        }
    }

    /// Re-routes on the affinity key and re-attests whatever replica now
    /// owns it, with a fresh handshake seed (fresh channel keys), then
    /// closes the session this replaces — nothing else would ever name
    /// it again.
    fn reattach(&mut self, cluster: &Cluster) -> Result<(), ClusterError> {
        let replica = cluster.route(&self.affinity)?;
        let seed = handshake_seed(self.seed, self.handshakes);
        self.handshakes += 1;
        cluster.metrics.client_reattaches.inc();
        let replaced = self.broker.client_pub();
        let broker = &mut self.broker;
        cluster.with_replica(replica, |proxy| {
            broker.reattach(proxy, cluster.ias(), cluster.expected_measurement(), seed)
        })??;
        cluster.close_session_at(self.replica, replaced.as_bytes());
        self.replica = replica;
        Ok(())
    }
}
