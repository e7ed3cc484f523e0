//! The attestation-verified replica registry.
//!
//! A replica joins the fleet only after presenting an enrollment quote
//! that (a) is authentic under the fleet's attestation service, (b)
//! carries the pinned proxy measurement, and (c) binds the replica's
//! channel identity key to a **fresh challenge nonce** issued by the
//! registry. The nonce makes enrollment quotes single-use: a quote
//! captured while a replica was registered cannot be replayed to
//! re-enroll it after deregistration, and a quote minted for one channel
//! key cannot vouch for another.
//!
//! The router consults the registry before every forward, so unverified
//! or deregistered replicas never see traffic — the same trust decision
//! the paper's broker makes per session (§4.2), lifted to fleet
//! membership.
//!
//! # Snapshot publication
//!
//! Membership reads sit on the request hot path, so they never take the
//! registry's writer mutex. Every mutation (register/deregister) bumps a
//! monotonically increasing **epoch**, builds an immutable
//! [`RegistrySnapshot`] — the members *and* the consistent-hash ring
//! over them — and stores it in an `RwLock<Arc<_>>`, all under the
//! writer mutex; [`ReplicaRegistry::is_routable`], the router and
//! friends clone the current `Arc` under a read guard and drop the
//! guard. A route therefore takes one read lock, may wait out a swap of
//! one pointer, and walks a ring that holds exactly the members it was
//! published with.

use crate::error::ClusterError;
use crate::placement::{HashRing, VNODES};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};
use xsearch_core::session::registration_binding;
use xsearch_crypto::sha256::Sha256;
use xsearch_crypto::x25519::PublicKey;
use xsearch_sgx_sim::attestation::{AttestationService, Quote};
use xsearch_sgx_sim::measurement::Measurement;

/// Identifies one replica slot in the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReplicaId(pub usize);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replica-{}", self.0)
    }
}

/// An immutable view of the verified membership at one epoch, with the
/// consistent-hash ring built from exactly those members. The request
/// path routes against exactly one of these, so a request either sees
/// the fleet before a membership change or after it, never halfway
/// through.
#[derive(Debug, Clone)]
pub struct RegistrySnapshot {
    epoch: u64,
    /// Verified members, ascending by id (binary-searchable).
    members: Vec<(ReplicaId, PublicKey)>,
    ring: HashRing,
}

impl RegistrySnapshot {
    fn build(epoch: u64, verified: &BTreeMap<ReplicaId, PublicKey>) -> Self {
        let members: Vec<(ReplicaId, PublicKey)> =
            verified.iter().map(|(&id, &key)| (id, key)).collect();
        let ids: Vec<ReplicaId> = verified.keys().copied().collect();
        RegistrySnapshot {
            epoch,
            members,
            ring: HashRing::build(&ids, VNODES),
        }
    }

    /// The membership epoch this snapshot was published at. Bumped by
    /// every register/deregister; strictly monotonic.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether `id` is verified in this snapshot.
    #[must_use]
    pub fn is_routable(&self, id: ReplicaId) -> bool {
        self.members.binary_search_by_key(&id, |&(m, _)| m).is_ok()
    }

    /// The channel identity key `id`'s enrollment bound, if verified.
    #[must_use]
    pub fn verified_key(&self, id: ReplicaId) -> Option<PublicKey> {
        self.members
            .binary_search_by_key(&id, |&(m, _)| m)
            .ok()
            .map(|i| self.members[i].1)
    }

    /// Verified members, ascending by id.
    #[must_use]
    pub fn members(&self) -> &[(ReplicaId, PublicKey)] {
        &self.members
    }

    /// Verified replica ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        self.members.iter().map(|&(id, _)| id)
    }

    /// Number of verified members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether no replica is verified.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The consistent-hash ring over this snapshot's members (and no
    /// other replica).
    #[must_use]
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }
}

/// Everything only writers touch, behind the writer lock.
#[derive(Debug, Default)]
struct WriterState {
    /// Verified members: replica id → the channel identity key its
    /// enrollment quote bound. The canonical copy snapshots are built
    /// from.
    verified: BTreeMap<ReplicaId, PublicKey>,
    /// Outstanding enrollment challenges (consumed on use).
    challenges: HashMap<ReplicaId, [u8; 32]>,
    /// Counter feeding nonce derivation — every challenge is fresh.
    issued: u64,
    /// Membership epoch: bumped by every register/deregister.
    epoch: u64,
    /// Per replica, the epoch at which it was last deregistered.
    dereg_epoch: HashMap<ReplicaId, u64>,
}

/// The fleet's membership authority.
pub struct ReplicaRegistry {
    ias: AttestationService,
    expected: Measurement,
    seed: u64,
    writer: Mutex<WriterState>,
    /// The current snapshot; replaced only under `writer`.
    published: RwLock<Arc<RegistrySnapshot>>,
}

impl fmt::Debug for ReplicaRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snapshot = self.snapshot();
        f.debug_struct("ReplicaRegistry")
            .field("epoch", &snapshot.epoch())
            .field("members", &snapshot.len())
            .finish()
    }
}

impl ReplicaRegistry {
    /// Creates a registry pinning `expected` as the only admissible
    /// proxy measurement. `seed` makes challenge nonces reproducible in
    /// experiments (they remain unpredictable to replicas, which is all
    /// replay protection needs).
    #[must_use]
    pub fn new(ias: AttestationService, expected: Measurement, seed: u64) -> Self {
        ReplicaRegistry {
            ias,
            expected,
            seed,
            writer: Mutex::new(WriterState::default()),
            published: RwLock::new(Arc::new(RegistrySnapshot::build(0, &BTreeMap::new()))),
        }
    }

    /// The pinned proxy measurement.
    #[must_use]
    pub fn expected_measurement(&self) -> Measurement {
        self.expected
    }

    /// The current membership snapshot — an `Arc` clone under a read
    /// guard; hold the `Arc` to route any number of requests against a
    /// consistent view.
    #[must_use]
    pub fn snapshot(&self) -> Arc<RegistrySnapshot> {
        Arc::clone(
            &self
                .published
                .read()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Rebuilds the snapshot — members and ring — from the writer state
    /// and publishes it. Callers must hold the writer lock (they pass its
    /// guard), so snapshots are stored in the order their memberships
    /// were written.
    fn publish_from(&self, state: &WriterState) {
        let snapshot = Arc::new(RegistrySnapshot::build(state.epoch, &state.verified));
        *self
            .published
            .write()
            .unwrap_or_else(PoisonError::into_inner) = snapshot;
    }

    fn writer(&self) -> MutexGuard<'_, WriterState> {
        self.writer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Issues a fresh enrollment challenge for `id`, replacing any
    /// outstanding one. The replica must bind this nonce (together with
    /// its channel identity key) into its enrollment quote.
    pub fn challenge(&self, id: ReplicaId) -> [u8; 32] {
        let mut state = self.writer();
        state.issued += 1;
        let mut h = Sha256::new();
        h.update(b"xsearch-registry-challenge-v1");
        h.update(&self.seed.to_le_bytes());
        h.update(&(id.0 as u64).to_le_bytes());
        h.update(&state.issued.to_le_bytes());
        let nonce = h.finalize();
        state.challenges.insert(id, nonce);
        nonce
    }

    /// Enrolls `id`: verifies the quote against the attestation service
    /// and the pinned measurement, and checks it binds exactly
    /// (`enclave_pub`, the outstanding challenge). The challenge is
    /// consumed whether or not verification succeeds — each attempt
    /// needs a fresh one.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoChallenge`] without an outstanding challenge;
    /// [`ClusterError::Sgx`] for an inauthentic quote or wrong
    /// measurement; [`ClusterError::QuoteBindingMismatch`] when the
    /// quote binds a different key or a stale nonce (replay).
    pub fn register(
        &self,
        id: ReplicaId,
        enclave_pub: PublicKey,
        quote: &Quote,
    ) -> Result<(), ClusterError> {
        let nonce = self
            .writer()
            .challenges
            .remove(&id)
            .ok_or(ClusterError::NoChallenge(id))?;
        // Quote verification runs outside the writer lock: it is pure
        // crypto over caller-owned data.
        self.ias.verify_expecting(quote, self.expected)?;
        if quote.report_data != registration_binding(&enclave_pub, &nonce) {
            return Err(ClusterError::QuoteBindingMismatch);
        }
        let mut state = self.writer();
        state.verified.insert(id, enclave_pub);
        state.epoch += 1;
        self.publish_from(&state);
        Ok(())
    }

    /// Removes `id` from the verified set (drain) and publishes the new
    /// membership epoch. Returns whether it was registered — the caller
    /// that actually flips the membership owns the follow-up failover,
    /// so concurrent sweeps stay idempotent.
    pub fn deregister(&self, id: ReplicaId) -> bool {
        let mut state = self.writer();
        if state.verified.remove(&id).is_none() {
            return false;
        }
        state.epoch += 1;
        let epoch = state.epoch;
        state.dereg_epoch.insert(id, epoch);
        self.publish_from(&state);
        true
    }

    /// The epoch at which `id` was last deregistered, if ever. After
    /// `deregister(id)` returns, every snapshot at `epoch >=`
    /// `deregister_epoch(id)` excludes `id` (until a re-enrollment bumps
    /// past it) — the property `tests/membership.rs` asserts.
    #[must_use]
    pub fn deregister_epoch(&self, id: ReplicaId) -> Option<u64> {
        self.writer().dereg_epoch.get(&id).copied()
    }

    /// Whether the router may send traffic to `id`.
    #[must_use]
    pub fn is_routable(&self, id: ReplicaId) -> bool {
        self.snapshot().is_routable(id)
    }

    /// The channel identity key `id`'s enrollment quote bound, if
    /// verified.
    #[must_use]
    pub fn verified_key(&self, id: ReplicaId) -> Option<PublicKey> {
        self.snapshot().verified_key(id)
    }

    /// Number of verified replicas.
    #[must_use]
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Whether no replica is verified.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use xsearch_core::config::XSearchConfig;
    use xsearch_core::proxy::XSearchProxy;
    use xsearch_engine::corpus::CorpusConfig;
    use xsearch_engine::engine::SearchEngine;
    use xsearch_sgx_sim::enclave::EnclaveBuilder;
    use xsearch_sgx_sim::error::SgxError;

    fn fleet_pieces() -> (AttestationService, XSearchProxy, ReplicaRegistry) {
        let ias = AttestationService::from_seed(21);
        let engine = Arc::new(SearchEngine::build(&CorpusConfig {
            docs_per_topic: 5,
            ..Default::default()
        }));
        let proxy = XSearchProxy::launch(
            XSearchConfig {
                k: 1,
                history_capacity: 100,
                ..Default::default()
            },
            engine,
            &ias,
        );
        let registry = ReplicaRegistry::new(ias.clone(), proxy.expected_measurement(), 9);
        (ias, proxy, registry)
    }

    fn enroll(
        registry: &ReplicaRegistry,
        id: ReplicaId,
        proxy: &XSearchProxy,
    ) -> (PublicKey, Quote) {
        let nonce = registry.challenge(id);
        let (key, quote) = proxy.enrollment_quote(&nonce).unwrap();
        registry.register(id, key, &quote).unwrap();
        (key, quote)
    }

    #[test]
    fn genuine_replica_enrolls_and_routes() {
        let (_, proxy, registry) = fleet_pieces();
        let id = ReplicaId(0);
        assert!(!registry.is_routable(id), "unverified ⇒ unroutable");
        let (key, _) = enroll(&registry, id, &proxy);
        assert!(registry.is_routable(id));
        assert_eq!(registry.verified_key(id), Some(key));
        assert_eq!(registry.snapshot().ids().collect::<Vec<_>>(), vec![id]);
    }

    #[test]
    fn registration_without_challenge_is_rejected() {
        let (_, proxy, registry) = fleet_pieces();
        let nonce = [1u8; 32];
        let (key, quote) = proxy.enrollment_quote(&nonce).unwrap();
        assert_eq!(
            registry.register(ReplicaId(0), key, &quote),
            Err(ClusterError::NoChallenge(ReplicaId(0)))
        );
    }

    #[test]
    fn quote_bound_to_wrong_channel_key_is_rejected() {
        // A malicious host enrolls with replica A's quote but substitutes
        // its own channel key B — traffic would then terminate outside
        // the attested enclave. The binding check catches it.
        let (ias, proxy_a, registry) = fleet_pieces();
        let engine = proxy_a.engine().clone();
        let proxy_b = XSearchProxy::launch(
            XSearchConfig {
                k: 1,
                history_capacity: 100,
                seed: 999, // different identity key
                ..Default::default()
            },
            engine,
            &ias,
        );
        let id = ReplicaId(0);
        let nonce = registry.challenge(id);
        let (_key_a, quote_a) = proxy_a.enrollment_quote(&nonce).unwrap();
        let (key_b, _) = proxy_b.enrollment_quote(&nonce).unwrap();
        assert_ne!(_key_a, key_b);
        assert_eq!(
            registry.register(id, key_b, &quote_a),
            Err(ClusterError::QuoteBindingMismatch)
        );
        assert!(!registry.is_routable(id));
    }

    #[test]
    fn replayed_quote_from_deregistered_replica_is_rejected() {
        let (_, proxy, registry) = fleet_pieces();
        let id = ReplicaId(2);
        let (key, old_quote) = enroll(&registry, id, &proxy);
        assert!(registry.deregister(id));
        assert!(!registry.is_routable(id));

        // The operator replays the quote that once admitted the replica.
        // A fresh challenge is outstanding, so the old binding no longer
        // matches and re-enrollment fails.
        let _fresh = registry.challenge(id);
        assert_eq!(
            registry.register(id, key, &old_quote),
            Err(ClusterError::QuoteBindingMismatch)
        );
        assert!(!registry.is_routable(id));

        // A genuinely fresh quote re-enrolls fine.
        enroll(&registry, id, &proxy);
        assert!(registry.is_routable(id));
    }

    #[test]
    fn tampered_measurement_is_rejected() {
        let (_, proxy, registry) = fleet_pieces();
        let id = ReplicaId(1);
        let nonce = registry.challenge(id);
        let (key, mut quote) = proxy.enrollment_quote(&nonce).unwrap();
        quote.measurement.0[0] ^= 1;
        assert_eq!(
            registry.register(id, key, &quote),
            Err(ClusterError::Sgx(SgxError::QuoteRejected)),
            "the quote MAC covers the measurement"
        );
    }

    #[test]
    fn authentic_quote_from_wrong_code_is_rejected() {
        // A provisioned platform running *different* enclave code
        // produces an authentic quote with the wrong measurement.
        let (ias, _proxy, registry) = fleet_pieces();
        let evil = EnclaveBuilder::new("evil")
            .with_code(b"not-the-xsearch-proxy")
            .with_provisioning_key(ias.provisioning_key())
            .build(());
        let id = ReplicaId(3);
        let nonce = registry.challenge(id);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let fake_key = xsearch_crypto::x25519::StaticSecret::random(&mut rng).public_key();
        let quote = evil
            .quote(&registration_binding(&fake_key, &nonce))
            .unwrap();
        assert_eq!(
            registry.register(id, fake_key, &quote),
            Err(ClusterError::Sgx(SgxError::MeasurementMismatch))
        );
    }

    #[test]
    fn each_challenge_is_fresh() {
        let (_, _, registry) = fleet_pieces();
        let a = registry.challenge(ReplicaId(0));
        let b = registry.challenge(ReplicaId(0));
        let c = registry.challenge(ReplicaId(1));
        assert_ne!(a, b);
        assert_ne!(b, c);
    }

    #[test]
    fn epochs_advance_on_every_membership_mutation() {
        let (_, proxy, registry) = fleet_pieces();
        let id = ReplicaId(0);
        let e0 = registry.snapshot().epoch();
        enroll(&registry, id, &proxy);
        let e1 = registry.snapshot().epoch();
        assert!(e1 > e0, "register bumps the epoch");
        assert!(registry.deregister(id));
        let e2 = registry.snapshot().epoch();
        assert!(e2 > e1, "deregister bumps the epoch");
        assert_eq!(registry.deregister_epoch(id), Some(e2));
        // Challenges are not membership mutations.
        let _ = registry.challenge(id);
        assert_eq!(registry.snapshot().epoch(), e2);
    }

    /// The distinct replicas on `snapshot`'s ring, ascending.
    fn ring_replicas(snapshot: &RegistrySnapshot) -> Vec<ReplicaId> {
        let mut on_ring: Vec<ReplicaId> = snapshot.ring().walk_from_coord(0).collect();
        on_ring.sort_unstable();
        on_ring
    }

    #[test]
    fn snapshots_carry_their_members_ring_and_are_immutable() {
        let (_, proxy, registry) = fleet_pieces();
        let before = registry.snapshot();
        assert!(before.is_empty());
        assert!(ring_replicas(&before).is_empty());
        enroll(&registry, ReplicaId(0), &proxy);
        enroll(&registry, ReplicaId(2), &proxy);
        let after = registry.snapshot();
        assert_eq!(ring_replicas(&after), vec![ReplicaId(0), ReplicaId(2)]);
        assert!(registry.deregister(ReplicaId(0)));
        assert_eq!(ring_replicas(&registry.snapshot()), vec![ReplicaId(2)]);
        // Previously loaded snapshots are immutable: each still shows
        // its own membership on its own ring.
        assert!(ring_replicas(&before).is_empty());
        assert_eq!(ring_replicas(&after), vec![ReplicaId(0), ReplicaId(2)]);
    }

    use rand::SeedableRng;
}
