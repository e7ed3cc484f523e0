//! The untrusted proxy host.
//!
//! Runs on a public cloud node: it owns the enclave, relays ciphertext
//! between brokers and the enclave's ecalls, and provides the untrusted
//! side of the ocall interface (the socket to the search engine). It
//! never sees a plaintext original query — only the obfuscated form the
//! enclave deliberately emits toward the engine.

use crate::config::XSearchConfig;
use crate::enclave_app::{EnclaveState, ENCLAVE_CODE_V1};
use crate::error::XSearchError;
use crate::history::HistoryCursor;
use crate::persistence::{HistoryVault, SealedLog, SealedSegment};
use crate::session::registration_binding;
use crate::wire::QueryBatch;
use rand::RngCore;
use std::sync::Arc;
use std::time::Duration;
use xsearch_crypto::x25519::PublicKey;
use xsearch_engine::engine::SearchEngine;
use xsearch_engine::service::{EngineService, MAX_LANES};
use xsearch_net_sim::DelayModel;
use xsearch_sgx_sim::attestation::{AttestationService, Quote};
use xsearch_sgx_sim::boundary::BoundaryStats;
use xsearch_sgx_sim::enclave::{Enclave, EnclaveBuilder};
use xsearch_sgx_sim::epc::EpcGauge;
use xsearch_sgx_sim::error::SgxError;
use xsearch_sgx_sim::measurement::Measurement;
use xsearch_telemetry::{EnclaveScope, Registry};

/// Largest `seed` ecall payload [`XSearchProxy::seed_history`] sends
/// (a single longer query goes alone).
const SEED_BATCH_BYTES: usize = 1 << 20;

/// The handshake response a broker receives.
#[derive(Debug, Clone)]
pub struct HandshakeResponse {
    /// The enclave's channel public key.
    pub enclave_pub: PublicKey,
    /// Attestation quote binding the key pair to the enclave code.
    pub quote: Quote,
}

/// An X-Search proxy node: enclave + engine uplink.
///
/// The uplink is an [`EngineService`]: it evaluates the k+1 obfuscated
/// sub-queries on the request's own thread and models the paper's
/// concurrent fan-out against Bing as a k+1-lane engine whose optional
/// service-time draws combine per lane.
pub struct XSearchProxy {
    enclave: Enclave<EnclaveState>,
    /// The enclave's channel identity key, as `init` produced it.
    identity_pub: PublicKey,
    service: EngineService,
    /// This node's metrics registry: the enclave's [`EnclaveScope`]
    /// aggregates plus host-side poll collectors over the boundary, EPC
    /// and engine-uplink accounting atomics. It renders Prometheus text
    /// and JSON; serving either is the embedder's job.
    registry: Arc<Registry>,
}

impl std::fmt::Debug for XSearchProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XSearchProxy")
            .field("measurement", &self.enclave.measurement())
            .finish()
    }
}

impl XSearchProxy {
    /// Launches the proxy: builds the enclave from the canonical code,
    /// provisions it for attestation, and runs the `init` ecall. The
    /// engine uplink gets one lane per sub-query of the configured
    /// fan-out (k+1 per request) and no modeled service time — the
    /// in-process engine answers at compute speed.
    #[must_use]
    pub fn launch(
        config: XSearchConfig,
        engine: Arc<SearchEngine>,
        ias: &AttestationService,
    ) -> Self {
        let lanes = (config.k + 1).clamp(1, MAX_LANES);
        let service = EngineService::with_workers(
            engine,
            DelayModel::Constant(Duration::ZERO),
            config.seed,
            lanes,
        );
        Self::launch_with_service(config, service, ias)
    }

    /// Launches the proxy with an explicit engine uplink — the end-to-end
    /// harnesses pass an [`EngineService`] carrying the calibrated WAN
    /// service-time model (or the serial baseline evaluator), so the
    /// modeled engine delay is produced *inside* the request pipeline by
    /// the executions that actually ran.
    #[must_use]
    pub fn launch_with_service(
        config: XSearchConfig,
        service: EngineService,
        ias: &AttestationService,
    ) -> Self {
        let registry = Arc::new(Registry::new());
        // The privacy partition: the enclave never touches the registry —
        // it receives this scope of pre-registered numeric-only handles,
        // built out here before the enclave exists.
        let scope = EnclaveScope::register(&registry);
        // `init` hands the host the one thing it produces for the
        // outside: the identity public key enrollment quotes bind.
        let mut identity_pub = PublicKey([0; 32]);
        let enclave = EnclaveBuilder::new("xsearch-proxy")
            .with_code(ENCLAVE_CODE_V1)
            .with_provisioning_key(ias.provisioning_key())
            .build_with(|epc| {
                let state = EnclaveState::init_instrumented(config, epc, Some(scope));
                identity_pub = state.identity_pub();
                state
            });
        // Host-side collectors: read existing accounting atomics at
        // snapshot time, so the instrumented request path pays nothing.
        let boundary = enclave.boundary();
        registry.poll(
            "xsearch_boundary_ecalls",
            "Enclave transitions (ecalls) performed",
            &[],
            move || boundary.ecalls() as f64,
        );
        let boundary = enclave.boundary();
        registry.poll(
            "xsearch_boundary_ocalls",
            "Ocalls performed across the boundary",
            &[],
            move || boundary.ocalls() as f64,
        );
        let epc = enclave.epc();
        registry.poll(
            "xsearch_epc_used_bytes",
            "EPC-protected memory currently in use",
            &[],
            move || epc.used() as f64,
        );
        let (accounted_ns, fetch_wall_ns) = service.accounting_handles();
        registry.poll(
            "xsearch_engine_accounted_delay_us",
            "Modeled engine service time charged, microseconds",
            &[],
            move || accounted_ns.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1e3,
        );
        registry.poll(
            "xsearch_engine_fetch_wall_us",
            "Caller wall time spent inside engine evaluations, microseconds",
            &[],
            move || fetch_wall_ns.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1e3,
        );
        XSearchProxy {
            enclave,
            identity_pub,
            service,
            registry,
        }
    }

    /// This node's metrics registry (enclave aggregates + host-side
    /// boundary/EPC/engine collectors).
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The measurement a correctly built proxy enclave must present —
    /// what brokers pin.
    #[must_use]
    pub fn expected_measurement(&self) -> Measurement {
        self.enclave.measurement()
    }

    /// Handshake: opens a session for `client_pub` inside the enclave and
    /// returns the enclave key plus a quote over the channel binding.
    ///
    /// One ecall answers `binding ‖ identity key`. The host relays the
    /// key, but the quote's report data binds it: a host that substitutes
    /// another is caught by the broker's binding check.
    ///
    /// # Errors
    ///
    /// Propagates enclave/crypto failures (e.g. a low-order client key).
    pub fn handshake(&self, client_pub: PublicKey) -> Result<HandshakeResponse, XSearchError> {
        let reply = self.enclave.ecall_shared(
            "handshake",
            client_pub.as_bytes(),
            |state, _, _| match state.open_session(client_pub) {
                Ok(binding) => [binding, *state.identity_pub().as_bytes()].concat(),
                Err(_) => Vec::new(),
            },
        )?;
        let Some((binding, enclave_pub)) = reply.split_first_chunk::<32>() else {
            return Err(XSearchError::Crypto(
                xsearch_crypto::CryptoError::WeakPublicKey,
            ));
        };
        let enclave_pub: [u8; 32] = enclave_pub
            .try_into()
            .map_err(|_| XSearchError::Protocol("bad handshake reply length".into()))?;
        let quote = self.enclave.quote(binding)?;
        Ok(HandshakeResponse {
            enclave_pub: PublicKey(enclave_pub),
            quote,
        })
    }

    /// Produces this replica's registry-enrollment credentials: its
    /// channel identity key plus a quote binding that key to the fleet
    /// registry's challenge `nonce`
    /// (see [`crate::session::registration_binding`]). The registry
    /// verifies the quote before any traffic is routed to this replica;
    /// the nonce makes each enrollment quote single-use, so deregistered
    /// replicas cannot rejoin by replaying an old quote.
    ///
    /// # Errors
    ///
    /// [`XSearchError::Sgx`] when the platform holds no quoting key.
    pub fn enrollment_quote(&self, nonce: &[u8; 32]) -> Result<(PublicKey, Quote), XSearchError> {
        let quote = self
            .enclave
            .quote(&registration_binding(&self.identity_pub, nonce))?;
        Ok((self.identity_pub, quote))
    }

    /// Seals what landed in the in-enclave history since the previous
    /// seal as the next segment of `vault`'s log (the `seal_history`
    /// ecall; `None` when nothing did). The delta is serialized and
    /// encrypted *inside* the enclave; the encoded segment is the ecall's
    /// output, so the boundary counters are charged every sealed byte
    /// exactly once and the host stores those same bytes.
    pub fn seal_history_snapshot<R: RngCore>(
        &self,
        vault: &HistoryVault,
        rng: &mut R,
    ) -> Option<SealedSegment> {
        let out = self
            .enclave
            .ecall_shared("seal_history", &[], |state, _, _| {
                state
                    .seal_history(vault, rng)
                    .map(SealedSegment::into_bytes)
                    .unwrap_or_default()
            })
            .expect("ecall cannot fail in this model");
        SealedSegment::from_bytes(out).ok()
    }

    /// Serves one encrypted request end to end (the `request` ecall with
    /// a live engine behind the ocalls, answered by [`XSearchProxy::fetch`]).
    ///
    /// # Errors
    ///
    /// See [`EnclaveState::request`].
    pub fn request(
        &self,
        client_pub: &[u8; 32],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, XSearchError> {
        self.request_with(client_pub, ciphertext, |subqueries, k_each| {
            self.fetch(subqueries, k_each)
        })
    }

    /// The host's side of the engine hop: the engine uplink merges the
    /// sub-queries' rankings on document ids, and each merged document's
    /// url, title and description are written once, into one exactly
    /// sized buffer in the result framing — the bytes the `recv` ocall
    /// returns to the enclave.
    #[must_use]
    pub fn fetch(&self, subqueries: &[&str], k_each: usize) -> Vec<u8> {
        crate::wire::encode_results(&self.service.search_merged(subqueries, k_each).0)
    }

    /// Serves one encrypted request without contacting the engine — the
    /// paper's Fig 5 saturation setup ("configured to reply immediately
    /// to requests"): full decryption, obfuscation, filtering and
    /// re-encryption work, no engine round trip.
    ///
    /// # Errors
    ///
    /// See [`EnclaveState::request`].
    pub fn request_echo(
        &self,
        client_pub: &[u8; 32],
        ciphertext: &[u8],
    ) -> Result<Vec<u8>, XSearchError> {
        self.request_with(client_pub, ciphertext, |_, _| Vec::new())
    }

    /// Serves one encrypted request with the host answering the
    /// enclave's `send`/`recv` ocalls through `fetch`: it receives the
    /// sub-queries the enclave hands the engine and the per-sub-query
    /// result count, and returns what the engine answered, in the result
    /// framing (see [`crate::wire::encode_results`]). The privacy
    /// experiments pass a `fetch` that records those sub-queries — the
    /// engine's view of the request.
    ///
    /// # Errors
    ///
    /// See [`EnclaveState::request`].
    pub fn request_with(
        &self,
        client_pub: &[u8; 32],
        ciphertext: &[u8],
        fetch: impl FnOnce(&[&str], usize) -> Vec<u8>,
    ) -> Result<Vec<u8>, XSearchError> {
        // The reply is the ecall's output, so the boundary counts its
        // bytes; a failure crosses as nothing and travels beside it.
        let mut failure = None;
        let reply = self
            .enclave
            .ecall_shared("request", ciphertext, |state, input, port| {
                state
                    .request(client_pub, input, port, fetch)
                    .unwrap_or_else(|e| {
                        failure = Some(e);
                        Vec::new()
                    })
            })?;
        failure.map_or(Ok(reply), Err)
    }

    /// Pre-populates the past-query table (experiment warm-up). The
    /// queries cross the boundary as columnar wire batches (see
    /// [`crate::wire::encode_query_batch`]) of at most 1 MiB each, one
    /// `seed` ecall per batch: an SGX ecall copies its input into enclave
    /// memory, so one batch of a whole window would be a window-sized EPC
    /// spike on top of the window itself.
    pub fn seed_history<'a, I: IntoIterator<Item = &'a str>>(&self, queries: I) {
        let mut queries = queries.into_iter().peekable();
        // Room for a whole batch, so encoding never grows it mid-batch.
        let mut payload = Vec::with_capacity(SEED_BATCH_BYTES);
        while queries.peek().is_some() {
            payload.clear();
            let mut filled = 4;
            let batch = std::iter::from_fn(|| {
                let query =
                    queries.next_if(|q| filled == 4 || filled + 4 + q.len() <= SEED_BATCH_BYTES)?;
                filled += 4 + query.len();
                Some(query)
            });
            crate::wire::encode_query_batch_into(&mut payload, batch);
            let _ = self
                .enclave
                .ecall_shared("seed", &payload, |state, input, _| {
                    let seeded = state.seed_history_batch(input).unwrap_or(0);
                    (seeded as u64).to_le_bytes().to_vec()
                });
        }
    }

    /// Closes `client_pub`'s enclave session (the `close_session`
    /// ecall). The front tier calls this when the client's connection
    /// dies, so torn churn cannot strand session state; returns whether
    /// a session existed.
    pub fn close_session(&self, client_pub: &[u8; 32]) -> bool {
        let out = self
            .enclave
            .ecall_shared("close_session", client_pub, |state, input, _| {
                let key: [u8; 32] = match input.try_into() {
                    Ok(k) => k,
                    Err(_) => return vec![0],
                };
                vec![u8::from(state.close_session(&key))]
            })
            .expect("ecall cannot fail in this model");
        out == [1]
    }

    /// Live enclave sessions (the `session_count` ecall) — an aggregate
    /// count, no keys cross the boundary.
    #[must_use]
    pub fn session_count(&self) -> usize {
        let out = self
            .enclave
            .ecall_shared("session_count", &[], |state, _, _| {
                (state.session_count() as u64).to_le_bytes().to_vec()
            })
            .expect("ecall cannot fail in this model");
        u64::from_le_bytes(out.try_into().expect("8 bytes")) as usize
    }

    /// Runs one TTL reap sweep over the enclave session table (the
    /// `reap_sessions` ecall): advances the session epoch and removes
    /// sessions idle for more than `ttl` sweeps. Returns how many were
    /// removed. See [`crate::enclave_app::EnclaveState::reap_sessions`].
    pub fn reap_sessions(&self, ttl: u64) -> usize {
        let out = self
            .enclave
            .ecall_shared("reap_sessions", &ttl.to_le_bytes(), |state, input, _| {
                let ttl = input.try_into().map(u64::from_le_bytes).unwrap_or(0);
                (state.reap_sessions(ttl) as u64).to_le_bytes().to_vec()
            })
            .expect("ecall cannot fail in this model");
        u64::from_le_bytes(out.try_into().expect("8 bytes")) as usize
    }

    /// Current size of the in-enclave history.
    #[must_use]
    pub fn history_len(&self) -> usize {
        let out = self
            .enclave
            .ecall_shared("history_len", &[], |state, _, _| {
                (state.history().len() as u64).to_le_bytes().to_vec()
            })
            .expect("ecall cannot fail in this model");
        u64::from_le_bytes(out.try_into().expect("8 bytes")) as usize
    }

    /// History memory in bytes (the Fig 6 measurement).
    #[must_use]
    pub fn history_memory_bytes(&self) -> usize {
        let out = self
            .enclave
            .ecall_shared("history_mem", &[], |state, _, _| {
                (state.history().memory_bytes() as u64)
                    .to_le_bytes()
                    .to_vec()
            })
            .expect("ecall cannot fail in this model");
        u64::from_le_bytes(out.try_into().expect("8 bytes")) as usize
    }

    /// Adopts a sealed log into the live in-enclave table (the
    /// `migrate_in` ecall, one for the whole log): verifies the chain
    /// under the **source** vault — a peer's on failover, this node's own
    /// on restart — atomically claims the head's version there (exactly
    /// one consumer ever wins, so racing adopters cannot duplicate the
    /// window and a restarted peer cannot roll back to it), and merges
    /// the window. Conceptually the unseal happens inside this enclave
    /// after a vault-key transfer over an attested channel; the host only
    /// ever relays ciphertext.
    ///
    /// Returns the number of adopted queries; an empty log is nothing to
    /// adopt and costs no ecall.
    ///
    /// # Errors
    ///
    /// [`XSearchError::Protocol`] when the source vault's measurement is
    /// not this enclave's (history only moves between replicas running
    /// identical code); [`XSearchError::Sgx`] for stale
    /// ([`SgxError::RolledBack`]) or foreign/tampered/incomplete logs.
    pub fn adopt_migrated_history(
        &self,
        src: &HistoryVault,
        log: &SealedLog,
    ) -> Result<usize, XSearchError> {
        if src.measurement() != self.expected_measurement() {
            return Err(XSearchError::Protocol(
                "migrated history comes from a different enclave code".into(),
            ));
        }
        if log.is_empty() {
            return Ok(0);
        }
        let mut outcome: Result<usize, SgxError> = Err(SgxError::UnsealFailed);
        let _ = self
            .enclave
            .ecall_shared("migrate_in", &log.encode(), |state, input, _| {
                outcome = crate::persistence::restore_migrated(state.history(), input, src);
                Vec::new()
            })?;
        outcome.map_err(XSearchError::Sgx)
    }

    /// Plaintext snapshot of the in-enclave window, oldest first.
    ///
    /// **Experiment/test API**: a production enclave never exposes its
    /// window in plaintext — the reproduction uses this to assert window
    /// semantics (Fig 6 contents, and that fleet failover migration
    /// preserves the decoy pool).
    #[must_use]
    pub fn history_snapshot(&self) -> Vec<String> {
        let out = self
            .enclave
            .ecall_shared("history_snapshot", &[], |state, _, _| {
                let mut window = Vec::new();
                state
                    .history()
                    .read_since(&mut HistoryCursor::default(), &mut window, 0);
                window
            })
            .expect("ecall cannot fail in this model");
        QueryBatch::parse(&out)
            .map(|window| window.iter().map(str::to_owned).collect())
            .unwrap_or_default()
    }

    /// The enclave's boundary counters.
    #[must_use]
    pub fn boundary(&self) -> Arc<BoundaryStats> {
        self.enclave.boundary()
    }

    /// The enclave's EPC gauge.
    #[must_use]
    pub fn epc(&self) -> Arc<EpcGauge> {
        self.enclave.epc()
    }

    /// The engine this proxy forwards to.
    #[must_use]
    pub fn engine(&self) -> &Arc<SearchEngine> {
        self.service.engine()
    }

    /// The engine uplink (lanes + service-time model). Its
    /// [`EngineService::accounted_delay`] is the modeled engine time
    /// charged to this proxy's requests; end-to-end harnesses read the
    /// delta around a request to attribute its engine leg.
    #[must_use]
    pub fn engine_service(&self) -> &EngineService {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsearch_engine::corpus::CorpusConfig;

    fn proxy() -> (XSearchProxy, AttestationService) {
        let ias = AttestationService::from_seed(11);
        let engine = Arc::new(SearchEngine::build(&CorpusConfig {
            docs_per_topic: 10,
            ..Default::default()
        }));
        let proxy = XSearchProxy::launch(
            XSearchConfig {
                k: 2,
                history_capacity: 1000,
                ..Default::default()
            },
            engine,
            &ias,
        );
        (proxy, ias)
    }

    #[test]
    fn two_proxies_with_same_code_share_measurement() {
        let (a, _) = proxy();
        let (b, _) = proxy();
        assert_eq!(a.expected_measurement(), b.expected_measurement());
    }

    #[test]
    fn handshake_produces_verifiable_quote() {
        let (p, ias) = proxy();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let client = xsearch_crypto::x25519::StaticSecret::random(&mut rng);
        let resp = p.handshake(client.public_key()).unwrap();
        assert!(ias
            .verify_expecting(&resp.quote, p.expected_measurement())
            .is_ok());
        // The quote binds exactly this key pair.
        let expected_binding =
            crate::session::channel_binding(&resp.enclave_pub, &client.public_key());
        assert_eq!(resp.quote.report_data, expected_binding);
    }

    #[test]
    fn a_handshake_is_one_ecall() {
        let (p, _) = proxy();
        let before = p.boundary().ecalls();
        let resp = p.handshake(PublicKey([9u8; 32])).unwrap();
        assert_eq!(p.boundary().ecalls(), before + 1);
        // ...and the key it relays is the one enrollment presents.
        let (identity, _) = p.enrollment_quote(&[0u8; 32]).unwrap();
        assert_eq!(resp.enclave_pub, identity);
    }

    #[test]
    fn no_low_order_client_key_opens_a_session() {
        let (p, _) = proxy();
        p.handshake(PublicKey([9u8; 32])).unwrap();
        for point in xsearch_crypto::x25519::low_order_points() {
            assert_eq!(
                p.handshake(PublicKey(point)).unwrap_err(),
                XSearchError::Crypto(xsearch_crypto::CryptoError::WeakPublicKey),
            );
            assert_eq!(p.session_count(), 1);
        }
    }

    #[test]
    fn seed_and_len_roundtrip() {
        let (p, _) = proxy();
        p.seed_history(["a", "b", "c"]);
        assert_eq!(p.history_len(), 3);
        assert!(p.history_memory_bytes() > 0);
    }

    #[test]
    fn seeding_crosses_in_batches_of_at_most_a_mebibyte() {
        let (p, _) = proxy();
        // 4 + 4 100 bytes per entry: 255 fit in one 1 MiB batch.
        let queries: Vec<String> = (0..600)
            .map(|i| format!("{i:04}{}", "q".repeat(4_096)))
            .collect();
        let (ecalls, bytes) = (p.boundary().ecalls(), p.boundary().bytes_in());
        p.seed_history(queries.iter().map(String::as_str));
        assert_eq!(p.boundary().ecalls() - ecalls, 3);
        assert_eq!(p.boundary().bytes_in() - bytes, 3 * 4 + 600 * 4_104);
        assert_eq!(p.history_len(), 600);
        assert_eq!(p.history_snapshot(), queries);

        // A query longer than a batch crosses alone.
        let (ecalls, bytes) = (p.boundary().ecalls(), p.boundary().bytes_in());
        let long = "l".repeat(SEED_BATCH_BYTES);
        p.seed_history(["a", &long, "b"]);
        assert_eq!(p.boundary().ecalls() - ecalls, 3);
        assert_eq!(
            p.boundary().bytes_in() - bytes,
            3 * 4 + 2 * 5 + 4 + SEED_BATCH_BYTES as u64
        );
        assert_eq!(p.history_len(), 603);
    }

    #[test]
    fn enrollment_quote_binds_identity_and_nonce() {
        let (p, ias) = proxy();
        let nonce = [7u8; 32];
        let (identity, quote) = p.enrollment_quote(&nonce).unwrap();
        assert!(ias
            .verify_expecting(&quote, p.expected_measurement())
            .is_ok());
        assert_eq!(
            quote.report_data,
            crate::session::registration_binding(&identity, &nonce)
        );
        // A different nonce yields a different (non-replayable) quote.
        let (_, other) = p.enrollment_quote(&[8u8; 32]).unwrap();
        assert_ne!(quote.report_data, other.report_data);
    }

    fn vault_for(p: &XSearchProxy, platform_seed: u64) -> HistoryVault {
        HistoryVault::new(
            xsearch_sgx_sim::sealed::SealingPlatform::from_seed(platform_seed),
            p.expected_measurement(),
        )
    }

    #[test]
    fn sealed_snapshot_roundtrips_through_a_successor() {
        use rand::rngs::StdRng;
        let (a, ias) = proxy();
        let vault_a = vault_for(&a, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let mut log = SealedLog::default();
        a.seed_history(["alpha", "beta"]);
        log.append(a.seal_history_snapshot(&vault_a, &mut rng).unwrap());
        a.seed_history(["gamma"]);
        log.append(a.seal_history_snapshot(&vault_a, &mut rng).unwrap());
        assert_eq!(log.head_version(), Some(2));
        assert!(
            a.seal_history_snapshot(&vault_a, &mut rng).is_none(),
            "nothing landed since: nothing to seal"
        );

        // Successor replica on another platform adopts the log under the
        // source's vault, in one ecall.
        let engine = a.engine().clone();
        let b = XSearchProxy::launch(
            XSearchConfig {
                k: 2,
                history_capacity: 1000,
                ..Default::default()
            },
            engine,
            &ias,
        );
        let ecalls_before = b.boundary().ecalls();
        assert_eq!(b.adopt_migrated_history(&vault_a, &log).unwrap(), 3);
        assert_eq!(b.boundary().ecalls() - ecalls_before, 1);
        assert_eq!(b.history_snapshot(), ["alpha", "beta", "gamma"]);

        // Rollback protection: the migrated-away log is dead at the
        // source.
        assert!(matches!(
            a.adopt_migrated_history(&vault_a, &log),
            Err(XSearchError::Sgx(SgxError::RolledBack { .. }))
        ));
        assert_eq!(a.history_len(), 3);
    }

    #[test]
    fn sealed_bytes_cross_the_boundary_exactly_once() {
        let (p, _) = proxy();
        let vault = vault_for(&p, 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        p.seed_history(["a fairly identifying query"]);
        let before = p.boundary().bytes_out();
        let segment = p.seal_history_snapshot(&vault, &mut rng).unwrap();
        assert_eq!(
            p.boundary().bytes_out() - before,
            segment.as_bytes().len() as u64
        );
        // An empty delta is an ecall that moves nothing.
        let (ecalls, bytes) = (p.boundary().ecalls(), p.boundary().bytes_out());
        assert!(p.seal_history_snapshot(&vault, &mut rng).is_none());
        assert_eq!(p.boundary().ecalls() - ecalls, 1);
        assert_eq!(p.boundary().bytes_out(), bytes);
    }

    #[test]
    fn restore_rejects_garbage_blob_bytes() {
        let (p, _) = proxy();
        let vault = vault_for(&p, 1);
        let mut log = SealedLog::default();
        log.append(SealedSegment::from_bytes(vec![0u8; 80]).unwrap());
        assert_eq!(
            p.adopt_migrated_history(&vault, &log),
            Err(XSearchError::Sgx(SgxError::UnsealFailed))
        );
        assert_eq!((p.history_len(), vault.last_sealed()), (0, 0));
    }

    #[test]
    fn history_from_other_enclave_code_is_refused_before_the_ecall() {
        let (p, _) = proxy();
        let foreign = HistoryVault::new(
            xsearch_sgx_sim::sealed::SealingPlatform::from_seed(1),
            xsearch_sgx_sim::measurement::MeasurementBuilder::new().finalize(),
        );
        assert!(matches!(
            p.adopt_migrated_history(&foreign, &SealedLog::default()),
            Err(XSearchError::Protocol(_))
        ));
    }

    #[test]
    fn a_request_ecall_charges_its_reply_and_a_refused_one_nothing() {
        use crate::broker::Broker;
        let (p, ias) = proxy();
        let mut broker = Broker::attach(&p, &ias, p.expected_measurement(), 70).unwrap();
        let query = "cheap flights";
        let ciphertext = broker.seal_query(query);
        let before = p.boundary().bytes_out();
        let reply = p
            .request(broker.client_pub().as_bytes(), &ciphertext)
            .unwrap();
        // The history is cold, so the `send` ocall carries the query
        // alone; the other three ocalls carry fixed strings.
        let ocalls_out =
            b"sock_connect:engine:80".len() + query.len() + b"recv".len() + b"close:sock:0".len();
        assert_eq!(
            p.boundary().bytes_out() - before,
            (ocalls_out + reply.len()) as u64
        );
        assert!(!broker.open_results(&reply).unwrap().is_empty());

        let (ecalls, bytes_out) = (p.boundary().ecalls(), p.boundary().bytes_out());
        assert_eq!(
            p.request(&[9u8; 32], b"junk"),
            Err(XSearchError::UnknownSession)
        );
        assert_eq!(p.boundary().ecalls(), ecalls + 1);
        assert_eq!(p.boundary().bytes_out(), bytes_out);
    }

    /// A `recv` payload that is not a result list fails the request:
    /// `Protocol`, one enclave error counted, no reply byte out of the
    /// enclave. Algorithm 1 pushed the query before the fetch, so the
    /// window holds it all the same; and the session stays in step, so the
    /// next request is served.
    #[test]
    fn a_malformed_recv_fails_the_request_with_no_reply() {
        use crate::broker::Broker;
        let (p, ias) = proxy();
        let mut broker = Broker::attach(&p, &ias, p.expected_measurement(), 71).unwrap();
        let errors = || {
            p.registry()
                .snapshot()
                .value("xsearch_enclave_errors_total", &[])
                .unwrap()
        };
        for (i, (fault, payload)) in crate::wire::refused_result_payloads()
            .into_iter()
            .enumerate()
        {
            let query = format!("refused query {i}");
            let ciphertext = broker.seal_query(&query);
            let (history, failed, bytes_out) =
                (p.history_len(), errors(), p.boundary().bytes_out());
            let mut sent = 0;
            let outcome = p.request_with(broker.client_pub().as_bytes(), &ciphertext, |subs, _| {
                sent = subs.iter().map(|q| q.len() + 4).sum::<usize>() - 4;
                payload
            });
            assert!(matches!(outcome, Err(XSearchError::Protocol(_))), "{fault}");
            assert_eq!(errors(), failed + 1.0, "{fault}");
            let ocalls_out =
                b"sock_connect:engine:80".len() + sent + b"recv".len() + b"close:sock:0".len();
            assert_eq!(
                p.boundary().bytes_out() - bytes_out,
                ocalls_out as u64,
                "the four ocalls' requests and no reply: {fault}"
            );
            assert_eq!(p.history_len(), history + 1, "{fault}");
            assert_eq!(p.history_snapshot().last(), Some(&query), "{fault}");
        }
        assert!(!broker.search(&p, "cheap flights").unwrap().is_empty());
    }

    #[test]
    fn seeding_is_one_boundary_crossing() {
        let (p, _) = proxy();
        let warm: Vec<String> = (0..500).map(|i| format!("warm query {i}")).collect();
        let before = p.boundary().ecalls();
        p.seed_history(warm.iter().map(String::as_str));
        assert_eq!(
            p.boundary().ecalls() - before,
            1,
            "the whole warm-up batch must cross in a single seed ecall"
        );
        assert_eq!(p.history_len(), 500);
    }

    use rand::SeedableRng;
}
