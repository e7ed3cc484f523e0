//! The in-enclave application: what runs behind the paper's ecall
//! interface (§5.3.3: ecalls `init`, `request`; ocalls `sock_connect`,
//! `send`, `recv`, `close`).
//!
//! Everything in [`EnclaveState`] lives in EPC-protected memory: the
//! enclave's channel identity key, the per-client session keys, and the
//! table of past queries. Untrusted code only ever sees ciphertext and
//! the obfuscated queries that are, by construction, safe to reveal.
//!
//! # Concurrency
//!
//! The paper's proxy "uses multiple threads" inside one enclave (§4.1).
//! A `request` takes two short-held locks on shared state:
//!
//! * the session table, one mutex-guarded map keyed by the client's
//!   public-key bytes, for the lookup only — after it the request holds
//!   nothing but its own session's mutex;
//! * the history table's one mutex (see [`crate::history`]), once for
//!   all of Algorithm 1 — the draws, the wire string and the push (and
//!   once more to read the window length when telemetry is attached).
//!
//! Randomness takes none: an atomic ticket counter plus the enclave seed
//! derive an independent `StdRng` per request. The serialization that
//! remains across a request is *per session* (channel nonce counters
//! require ordered seal/open), which is inherent to the protocol.

use crate::config::XSearchConfig;
use crate::error::XSearchError;
use crate::filter::filter_results;
use crate::history::QueryHistory;
use crate::obfuscate::{obfuscate, ObfuscatedQuery};
use crate::persistence::{HistoryVault, SealCursor, SealedSegment};
use crate::redirect::strip_all;
use crate::session::{channel_binding, SecureChannel, Side};
use crate::wire::{encode_results_into, encoded_len, parse_results, QueryBatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use xsearch_crypto::x25519::{PublicKey, StaticSecret};
use xsearch_sgx_sim::boundary::OcallPort;
use xsearch_sgx_sim::epc::EpcGauge;
use xsearch_telemetry::EnclaveScope;

/// The canonical enclave code region. Its bytes stand in for the measured
/// binary: brokers expect the measurement of exactly this "code", so a
/// modified proxy produces a different measurement and fails attestation.
pub const ENCLAVE_CODE_V1: &[u8] =
    b"xsearch-enclave-app v1: channel=x25519+hkdf+chacha20poly1305; \
      obfuscation=algorithm1(history-sampling); filtering=algorithm2(nbCommonWords); \
      ocalls=sock_connect,send,recv,close";

/// Hasher for the session table: reads the first eight bytes of the
/// 32-byte client key. x25519 public keys are already uniformly
/// distributed, so a keyed SipHash over all 32 bytes only adds cost on
/// every request. (A client grinding keys toward one bucket skews only
/// that bucket's chain, and the same key-generation budget would let
/// it open that many real sessions anyway.)
#[derive(Default)]
struct KeyBytesHasher(u64);

impl std::hash::Hasher for KeyBytesHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut prefix = [0u8; 8];
        let n = bytes.len().min(8);
        prefix[..n].copy_from_slice(&bytes[..n]);
        self.0 = u64::from_le_bytes(prefix);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One client's in-enclave session: its channel plus the scratch
/// buffer decrypted queries land in. The scratch lives with the
/// session (and under its mutex, which the request path holds anyway
/// for the channel's nonce counters), so a steady-state request reuses
/// the same capacity instead of allocating a plaintext `Vec` per
/// query.
struct Session {
    channel: SecureChannel,
    query_buf: Vec<u8>,
    /// Reaper epoch at which this session was opened or last served a
    /// request. Sessions idle for more than the sweep's TTL (measured in
    /// epochs, i.e. reap sweeps) are removed — the backstop for clients
    /// that handshook and then vanished without a disconnect the front
    /// tier could attribute.
    last_used: u64,
}

type SessionMap =
    HashMap<[u8; 32], Arc<Mutex<Session>>, std::hash::BuildHasherDefault<KeyBytesHasher>>;

/// Protected application state.
pub struct EnclaveState {
    identity: StaticSecret,
    identity_pub: PublicKey,
    history: QueryHistory,
    /// How far this enclave lifetime has sealed `history` (the mutex also
    /// serializes seals, so segments leave in version order).
    seal_cursor: Mutex<SealCursor>,
    config: XSearchConfig,
    /// Base seed for per-request RNGs, derived from the config seed at
    /// `init` (after the identity draw, preserving the seed schedule).
    rng_seed: u64,
    /// Ticket counter: each request takes one and derives a private RNG
    /// stream from it — no shared RNG lock on the hot path. For a fixed
    /// arrival order the streams (and thus Algorithm 1's positions) are
    /// exactly reproducible from the config seed.
    rng_ticket: AtomicU64,
    sessions: Mutex<SessionMap>,
    /// The reaper's logical clock: advanced once per
    /// [`EnclaveState::reap_sessions`] sweep; requests stamp their
    /// session with the current value.
    session_epoch: AtomicU64,
    /// The enclave's telemetry partition: pre-registered, numeric-only
    /// aggregate handles (see [`EnclaveScope`]). This is the *only*
    /// telemetry surface in-enclave code may touch — query strings and
    /// session identifiers cannot cross it by construction.
    scope: Option<EnclaveScope>,
}

impl std::fmt::Debug for EnclaveState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnclaveState")
            .field("history_len", &self.history.len())
            .field("k", &self.config.k)
            .finish()
    }
}

impl EnclaveState {
    /// The `init` ecall: generates the channel identity and sizes the
    /// history table against the enclave's EPC gauge. `config.k` is fixed
    /// from here on: every request carries exactly that many fakes (fewer
    /// only while the window itself holds fewer), whatever the host's load.
    ///
    /// The telemetry [`EnclaveScope`], if any, is built *outside* the
    /// enclave at launch, from handles pre-registered on the host
    /// registry; handing it in here is the one and only point telemetry
    /// crosses the trust boundary.
    #[must_use]
    pub fn init_instrumented(
        config: XSearchConfig,
        epc: &Arc<EpcGauge>,
        scope: Option<EnclaveScope>,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let identity = StaticSecret::random(&mut rng);
        let identity_pub = identity.public_key();
        let rng_seed = rng.gen();
        EnclaveState {
            identity,
            identity_pub,
            history: QueryHistory::new(config.history_capacity, epc.clone()),
            seal_cursor: Mutex::new(SealCursor::default()),
            config,
            rng_seed,
            rng_ticket: AtomicU64::new(0),
            sessions: Mutex::new(SessionMap::default()),
            session_epoch: AtomicU64::new(0),
            scope,
        }
    }

    /// The enclave's channel public key (bound into attestation quotes).
    #[must_use]
    pub fn identity_pub(&self) -> PublicKey {
        self.identity_pub
    }

    /// The past-query table (exposed for memory experiments).
    #[must_use]
    pub fn history(&self) -> &QueryHistory {
        &self.history
    }

    /// The `seal_history` ecall: seals what landed in the window since
    /// this enclave's previous seal as the next segment of `vault`'s log
    /// (`None` when nothing did). Only ciphertext leaves.
    pub fn seal_history<R: rand::RngCore>(
        &self,
        vault: &HistoryVault,
        rng: &mut R,
    ) -> Option<SealedSegment> {
        vault.seal(
            &self.history,
            &mut self
                .seal_cursor
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
            rng,
        )
    }

    fn sessions(&self) -> MutexGuard<'_, SessionMap> {
        self.sessions.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The private RNG for one request ticket: SplitMix64-spaced streams
    /// off the enclave seed, so concurrent requests never share (or lock)
    /// generator state yet a fixed request order replays byte-identically.
    fn request_rng(&self, ticket: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.rng_seed
                .wrapping_add(ticket.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        )
    }

    /// Establishes a session for `client_pub`: DH + per-direction keys.
    /// Returns the binding hash the quote must carry.
    ///
    /// # Errors
    ///
    /// [`XSearchError::Crypto`] when the client key is a low-order point.
    pub fn open_session(&self, client_pub: PublicKey) -> Result<[u8; 32], XSearchError> {
        let shared = self.identity.diffie_hellman(&client_pub)?;
        let channel =
            SecureChannel::establish(Side::Server, &shared, &client_pub, &self.identity_pub);
        self.sessions().insert(
            *client_pub.as_bytes(),
            Arc::new(Mutex::new(Session {
                channel,
                query_buf: Vec::new(),
                last_used: self.session_epoch.load(Ordering::Relaxed),
            })),
        );
        Ok(channel_binding(&self.identity_pub, &client_pub))
    }

    /// The `close_session` ecall: removes `client_pub`'s session (the
    /// front tier calls this when the client's connection dies, so a
    /// torn peer cannot strand its enclave state). Returns whether a
    /// session existed. The channel keys drop with the entry.
    pub fn close_session(&self, client_pub: &[u8; 32]) -> bool {
        self.sessions().remove(client_pub).is_some()
    }

    /// The `session_count` ecall: live sessions — an aggregate (no keys
    /// leave the enclave), safe to export.
    #[must_use]
    pub fn session_count(&self) -> usize {
        self.sessions().len()
    }

    /// The `reap_sessions` ecall: advances the session epoch and removes
    /// every session idle for more than `ttl` sweeps — the TTL backstop
    /// for sessions whose client vanished without a front-attributable
    /// disconnect (handshake-then-silence, half-open peers). Returns how
    /// many sessions were removed.
    ///
    /// With `ttl = n`, a session survives while it served a request
    /// within the last `n` sweeps; `ttl = 0` clears everything idle
    /// since the sweep began.
    pub fn reap_sessions(&self, ttl: u64) -> usize {
        let now = self.session_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let mut sessions = self.sessions();
        let before = sessions.len();
        // Sessions lock only briefly here; the request path never holds
        // a session lock while waiting on the table lock, so the order
        // table → session cannot invert.
        sessions.retain(|_, s| {
            now.saturating_sub(s.lock().unwrap_or_else(PoisonError::into_inner).last_used) <= ttl
        });
        before - sessions.len()
    }

    /// Seeds the history directly (warm-up for experiments; in production
    /// the history fills with real traffic).
    pub fn seed_history(&self, query: &str) {
        self.history.push(query);
    }

    /// The batch form of [`EnclaveState::seed_history`]: validates a
    /// length-prefixed query batch (see [`crate::wire::encode_query_batch`])
    /// whole, then pushes it straight from the payload under one
    /// acquisition of the history's lock, so warming a large history
    /// costs one ecall per batch instead of one per query. Returns the
    /// number of queries seeded.
    ///
    /// # Errors
    ///
    /// [`XSearchError::Protocol`] on a malformed batch; nothing is seeded
    /// in that case.
    pub fn seed_history_batch(&self, payload: &[u8]) -> Result<usize, XSearchError> {
        let batch = QueryBatch::parse(payload)?;
        self.history.push_all(batch);
        if let Some(scope) = &self.scope {
            scope.set_history_len(self.history.len() as u64);
        }
        Ok(batch.len())
    }

    /// The `request` ecall: decrypts one query from the session of
    /// `client_pub`, obfuscates it, fetches results through the ocall
    /// interface, filters them, and returns the encrypted response.
    ///
    /// `fetch` is the untrusted engine transport invoked between the
    /// `send` and `recv` ocalls: it receives the sub-queries and the
    /// per-sub-query result count, and answers the merged results in the
    /// result framing (see [`crate::wire::encode_results`]) — the bytes
    /// `recv` returns. The enclave filters views of those bytes and
    /// encodes its reply from them; no result is copied out of them
    /// except a redirection's target.
    ///
    /// A malformed answer fails the request with no reply. Algorithm 1
    /// ran before the fetch, so the window holds the query either way:
    /// a failed fetch does not take back what the engine has already
    /// seen among the sub-queries.
    ///
    /// # Errors
    ///
    /// [`XSearchError::UnknownSession`] for an unestablished client,
    /// [`XSearchError::Crypto`] for tampered ciphertext,
    /// [`XSearchError::Protocol`] for a non-UTF-8 query or a malformed
    /// `recv` payload.
    pub fn request<F>(
        &self,
        client_pub: &[u8; 32],
        ciphertext: &[u8],
        port: &OcallPort,
        fetch: F,
    ) -> Result<Vec<u8>, XSearchError>
    where
        F: FnOnce(&[&str], usize) -> Vec<u8>,
    {
        let result = self.request_inner(client_pub, ciphertext, port, fetch);
        if let Some(scope) = &self.scope {
            match &result {
                Ok(_) => {
                    scope.request_served();
                    scope.set_history_len(self.history.len() as u64);
                }
                Err(_) => scope.error(),
            }
        }
        result
    }

    fn request_inner<F>(
        &self,
        client_pub: &[u8; 32],
        ciphertext: &[u8],
        port: &OcallPort,
        fetch: F,
    ) -> Result<Vec<u8>, XSearchError>
    where
        F: FnOnce(&[&str], usize) -> Vec<u8>,
    {
        // Decrypt inside the enclave; the table is locked for the lookup
        // only, then only this session for the crypto.
        let session = self
            .sessions()
            .get(client_pub)
            .cloned()
            .ok_or(XSearchError::UnknownSession)?;
        let mut session = session.lock().unwrap_or_else(PoisonError::into_inner);
        session.last_used = self.session_epoch.load(Ordering::Relaxed);
        let Session {
            channel, query_buf, ..
        } = &mut *session;
        // The plaintext query decrypts into this session's scratch
        // buffer — no per-request plaintext allocation.
        channel.open_into(b"query", ciphertext, query_buf)?;
        let query = std::str::from_utf8(query_buf)
            .map_err(|_| XSearchError::Protocol("query is not utf-8".into()))?;

        // Obfuscate (Algorithm 1) and store the query in the history.
        // The RNG is this request's own — nothing to lock.
        let ticket = self.rng_ticket.fetch_add(1, Ordering::Relaxed);
        let mut rng = self.request_rng(ticket);
        let obfuscated = obfuscate(query, &self.history, self.config.k, &mut rng);

        // Fetch results via the paper's four-ocall sequence. The payload
        // crossing the boundary is the obfuscated query — exactly what an
        // untrusted observer is allowed to see.
        let recv = self.fetch_via_ocalls(&obfuscated, port, fetch);

        // The engine's answer is untrusted bytes: parse it into views,
        // each record validated once, or fail the request.
        let results = parse_results(&recv)?;

        // Filter (Algorithm 2) and strip analytics redirections; only a
        // kept redirection's target is allocated.
        let mut kept = filter_results(query, &obfuscated.fakes(), results);
        strip_all(&mut kept);

        // Encrypt the response for the broker: serialize the views into
        // one exactly-sized buffer (tag headroom included) with the
        // encoder that built `recv`, and seal it where it lies. No result
        // leaves an empty reply (the echo path): zero bytes, sealed to a
        // bare tag.
        let mut response = Vec::with_capacity(encoded_len(&kept) + xsearch_crypto::aead::TAG_LEN);
        encode_results_into(&kept, &mut response);
        channel.seal_in_place(b"results", &mut response);
        Ok(response)
    }

    fn fetch_via_ocalls<F>(
        &self,
        obfuscated: &ObfuscatedQuery,
        port: &OcallPort,
        fetch: F,
    ) -> Vec<u8>
    where
        F: FnOnce(&[&str], usize) -> Vec<u8>,
    {
        // sock_connect(host, port)
        port.ocall(b"sock_connect:engine:80", |_| b"sock:0".to_vec());
        // send(sock, buff, len) — the obfuscated query leaves the enclave.
        port.ocall(obfuscated.to_or_string().as_bytes(), |_| Vec::new());
        // recv(sock, buff, len) — the merged results come back in the
        // result framing (the untrusted fetch runs here), metered by
        // their length.
        let k_each = self.config.results_per_query;
        let recv = port.ocall(b"recv", |_| fetch(&obfuscated.subqueries(), k_each));
        // close(sock)
        port.ocall(b"close:sock:0", |_| Vec::new());
        recv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsearch_sgx_sim::boundary::BoundaryStats;
    use xsearch_sgx_sim::epc::EpcGauge;

    fn state(k: usize) -> EnclaveState {
        let epc = EpcGauge::with_limit(1 << 30);
        EnclaveState::init_instrumented(
            XSearchConfig {
                k,
                history_capacity: 100,
                ..Default::default()
            },
            &epc,
            None,
        )
    }

    fn port() -> OcallPort {
        OcallPort::new(BoundaryStats::new())
    }

    fn client_channel(state: &EnclaveState, seed: u64) -> ([u8; 32], SecureChannel) {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret = StaticSecret::random(&mut rng);
        let client_pub = secret.public_key();
        state.open_session(client_pub).unwrap();
        let shared = secret.diffie_hellman(&state.identity_pub()).unwrap();
        let channel =
            SecureChannel::establish(Side::Client, &shared, &client_pub, &state.identity_pub());
        (*client_pub.as_bytes(), channel)
    }

    #[test]
    fn request_roundtrips_through_the_enclave() {
        let state = state(2);
        for q in ["warm one", "warm two", "warm three"] {
            state.seed_history(q);
        }
        let (client_id, mut channel) = client_channel(&state, 1);
        let ct = channel.seal(b"query", b"cheap flights");
        let port = port();
        let resp_ct = state
            .request(&client_id, &ct, &port, |subqueries, _k| {
                assert_eq!(subqueries.len(), 3, "k=2 → 3 sub-queries");
                Vec::new()
            })
            .unwrap();
        let resp = channel.open(b"results", &resp_ct).unwrap();
        assert!(resp.is_empty(), "no results from empty engine");
    }

    #[test]
    fn unknown_session_is_rejected() {
        let state = state(1);
        let port = port();
        let err = state.request(&[9u8; 32], b"junk", &port, |_, _| Vec::new());
        assert_eq!(err.unwrap_err(), XSearchError::UnknownSession);
    }

    #[test]
    fn tampered_ciphertext_is_rejected() {
        let state = state(1);
        let (client_id, mut channel) = client_channel(&state, 2);
        let mut ct = channel.seal(b"query", b"secret");
        ct[0] ^= 1;
        let port = port();
        let err = state.request(&client_id, &ct, &port, |_, _| Vec::new());
        assert!(matches!(err.unwrap_err(), XSearchError::Crypto(_)));
    }

    #[test]
    fn request_performs_four_ocalls() {
        let state = state(0);
        let (client_id, mut channel) = client_channel(&state, 3);
        let stats = BoundaryStats::new();
        let port = OcallPort::new(stats.clone());
        let ct = channel.seal(b"query", b"q");
        state
            .request(&client_id, &ct, &port, |_, _| Vec::new())
            .unwrap();
        assert_eq!(stats.ocalls(), 4, "sock_connect, send, recv, close");
    }

    #[test]
    fn query_lands_in_history() {
        let state = state(1);
        let (client_id, mut channel) = client_channel(&state, 4);
        assert_eq!(state.history().len(), 0);
        let ct = channel.seal(b"query", b"first query");
        let port = port();
        state
            .request(&client_id, &ct, &port, |_, _| Vec::new())
            .unwrap();
        assert_eq!(state.history().len(), 1);
    }

    #[test]
    fn two_clients_have_independent_sessions() {
        let state = state(0);
        let (id_a, mut ch_a) = client_channel(&state, 5);
        let (id_b, mut ch_b) = client_channel(&state, 6);
        let port = port();
        let ct_a = ch_a.seal(b"query", b"from a");
        let ct_b = ch_b.seal(b"query", b"from b");
        assert!(state
            .request(&id_a, &ct_a, &port, |_, _| Vec::new())
            .is_ok());
        assert!(state
            .request(&id_b, &ct_b, &port, |_, _| Vec::new())
            .is_ok());
        // Cross-session ciphertext fails.
        let ct_cross = ch_a.seal(b"query", b"cross");
        assert!(state
            .request(&id_b, &ct_cross, &port, |_, _| Vec::new())
            .is_err());
    }

    #[test]
    fn sessions_work_from_every_shard() {
        // Many clients at once; each must stay reachable — a table bug
        // would orphan some sessions.
        let state = state(0);
        let port = port();
        for seed in 100..164 {
            let (id, mut ch) = client_channel(&state, seed);
            let ct = ch.seal(b"query", b"hello");
            let resp = state.request(&id, &ct, &port, |_, _| Vec::new()).unwrap();
            assert!(ch.open(b"results", &resp).is_ok());
        }
        assert_eq!(state.session_count(), 64);
    }

    #[test]
    fn close_session_removes_exactly_one_entry() {
        let state = state(0);
        let (id_a, mut ch_a) = client_channel(&state, 20);
        let (id_b, mut ch_b) = client_channel(&state, 21);
        assert_eq!(state.session_count(), 2);
        assert!(state.close_session(&id_a));
        assert!(!state.close_session(&id_a), "second close finds nothing");
        assert_eq!(state.session_count(), 1);
        let port = port();
        let ct = ch_a.seal(b"query", b"gone");
        assert_eq!(
            state
                .request(&id_a, &ct, &port, |_, _| Vec::new())
                .unwrap_err(),
            XSearchError::UnknownSession
        );
        // The survivor still works.
        let ct = ch_b.seal(b"query", b"alive");
        assert!(state.request(&id_b, &ct, &port, |_, _| Vec::new()).is_ok());
    }

    #[test]
    fn reaper_removes_idle_sessions_but_spares_active_ones() {
        let state = state(0);
        let (active, mut ch) = client_channel(&state, 30);
        let (_idle_a, _) = client_channel(&state, 31);
        let (_idle_b, _) = client_channel(&state, 32);
        assert_eq!(state.session_count(), 3);
        let port = port();
        // Two sweeps at ttl=1: the active session keeps stamping itself
        // into the current epoch, the idle pair ages out.
        let mut reaped = 0;
        for _ in 0..2 {
            let ct = ch.seal(b"query", b"keepalive");
            state
                .request(&active, &ct, &port, |_, _| Vec::new())
                .unwrap();
            reaped += state.reap_sessions(1);
        }
        assert_eq!(state.session_count(), 1, "idle sessions reaped");
        assert_eq!(reaped, 2);
        let ct = ch.seal(b"query", b"still here");
        assert!(state
            .request(&active, &ct, &port, |_, _| Vec::new())
            .is_ok());
    }

    #[test]
    fn reap_ttl_zero_clears_everything() {
        let state = state(0);
        for seed in 40..48 {
            let _ = client_channel(&state, seed);
        }
        assert_eq!(state.session_count(), 8);
        assert_eq!(state.reap_sessions(0), 8);
        assert_eq!(state.session_count(), 0);
    }

    #[test]
    fn seed_batch_matches_individual_seeding() {
        let a = state(1);
        let b = state(1);
        let queries = ["one", "two", "three", "four"];
        for q in queries {
            a.seed_history(q);
        }
        let payload = crate::wire::encode_query_batch(queries);
        assert_eq!(b.seed_history_batch(&payload).unwrap(), 4);
        assert_eq!(a.history().snapshot(), b.history().snapshot());
        assert_eq!(a.history().memory_bytes(), b.history().memory_bytes());
    }

    #[test]
    fn malformed_seed_batch_is_rejected_whole() {
        let s = state(1);
        s.seed_history_batch(&crate::wire::encode_query_batch(["warm", "window"]))
            .unwrap();
        let h = s.history();
        let before = (h.len(), h.memory_bytes(), h.epc().used());
        for (fault, payload) in crate::wire::refused_query_batches() {
            assert!(s.seed_history_batch(&payload).is_err(), "{fault}");
            assert_eq!(
                (h.len(), h.memory_bytes(), h.epc().used()),
                before,
                "a refused batch seeds nothing: {fault}"
            );
        }
    }

    /// The RNG refactor must not change what a fixed seed produces:
    /// same config seed + same request order ⇒ identical obfuscation
    /// positions and byte-identical filtered responses.
    #[test]
    fn same_seed_replays_identical_obfuscation_and_output() {
        let run = || {
            let state = state(3);
            for q in ["warm a", "warm b", "warm c", "warm d", "warm e"] {
                state.seed_history(q);
            }
            let (id, mut ch) = client_channel(&state, 42);
            let port = port();
            let mut seen: Vec<Vec<String>> = Vec::new();
            let mut responses: Vec<Vec<u8>> = Vec::new();
            for q in ["alpha query", "beta query", "gamma query"] {
                let ct = ch.seal(b"query", q.as_bytes());
                let resp = state
                    .request(&id, &ct, &port, |subqueries, _| {
                        seen.push(subqueries.iter().map(|s| s.to_string()).collect());
                        Vec::new()
                    })
                    .unwrap();
                responses.push(ch.open(b"results", &resp).unwrap());
            }
            (seen, responses)
        };
        let (seen_a, resp_a) = run();
        let (seen_b, resp_b) = run();
        assert_eq!(seen_a, seen_b, "sub-query order must replay exactly");
        assert_eq!(resp_a, resp_b, "filtered output must replay exactly");
    }

    #[test]
    fn concurrent_requests_use_disjoint_rng_streams() {
        let state = state(3);
        for i in 0..50 {
            state.seed_history(&format!("warm {i}"));
        }
        let t0 = state.rng_ticket.load(Ordering::Relaxed);
        let (id, mut ch) = client_channel(&state, 9);
        let port = port();
        for q in ["q1", "q2"] {
            let ct = ch.seal(b"query", q.as_bytes());
            state.request(&id, &ct, &port, |_, _| Vec::new()).unwrap();
        }
        assert_eq!(
            state.rng_ticket.load(Ordering::Relaxed) - t0,
            2,
            "each request takes exactly one ticket"
        );
    }
}
