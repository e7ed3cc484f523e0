//! Per-layer probes: the benchmark timing its own calls into each
//! layer's public functions, from outside, on the payload sizes the
//! workloads produce. One function per metric (or per pair measured
//! together), so a reshaped layer API costs one probe and no workload.
//!
//! Unless a probe says otherwise a figure is the median over
//! [`BLOCKS`] blocks of the mean time per call in the block.

use crate::adapter::{FleetRig, FleetShape, ProxyRig, K, RESULTS_PER_QUERY, RIG_SEED};
use crate::inputs::Inputs;
use crate::stats::{mean, median, percentile, sorted};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use xsearch_cluster::{Cluster, ClusterConfig, FrontConfig, FrontTier};
use xsearch_core::config::XSearchConfig;
use xsearch_core::filter::filter_results;
use xsearch_core::history::QueryHistory;
use xsearch_core::obfuscate::obfuscate;
use xsearch_core::persistence::HistoryVault;
use xsearch_core::proxy::XSearchProxy;
use xsearch_core::Broker;
use xsearch_crypto::aead::{counter_nonce, ChaCha20Poly1305};
use xsearch_crypto::x25519::StaticSecret;
use xsearch_engine::engine::SearchEngine;
use xsearch_engine::service::EngineService;
use xsearch_net_sim::link::WanModel;
use xsearch_net_sim::{
    encode_frame_into, stream_pair, ByteStream, FrameDecoder, Interest, Reactor, Token,
};
use xsearch_sgx_sim::attestation::AttestationService;
use xsearch_sgx_sim::epc::EpcGauge;
use xsearch_sgx_sim::sealed::SealingPlatform;
use xsearch_sgx_sim::EnclaveBuilder;
use xsearch_telemetry::Registry;

const BLOCKS: usize = 20;
const KIB: f64 = 1024.0;
/// Bulk AEAD payload: the size of a sealed 16 k-entry window.
const BULK_BYTES: usize = 256 * 1024;

/// Median over blocks of ns per call; `calls` is rounded up to a whole
/// number of blocks.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let per_block = calls.div_ceil(BLOCKS).max(1);
    let blocks: Vec<f64> = (0..BLOCKS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_block {
                f();
            }
            start.elapsed().as_nanos() as f64 / per_block as f64
        })
        .collect();
    median(&blocks)
}

/// Wall time of one call, for costs well above the clock's own ≈30 ns.
fn time_ns<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_nanos() as f64
}

/// `calls` samples from `one`, which prepares untimed and returns the
/// [`time_ns`] of the part it measures. Sorted.
fn samples_ns(calls: usize, one: impl FnMut() -> f64) -> Vec<f64> {
    sorted(std::iter::repeat_with(one).take(calls.max(1)).collect())
}

/// One probe result: metric name, unit, value.
pub type Reading = (&'static str, &'static str, f64);

/// Shared inputs and sizes for the probes.
pub struct Probes {
    inputs: Rc<Inputs>,
    /// Calls for a cheap (sub-µs) probe; dearer probes divide it.
    calls: usize,
    /// Window the history, sealing and fleet probes use.
    window: usize,
    /// Registrations under the reactor probe.
    registered: usize,
    engine: Arc<SearchEngine>,
}

impl Probes {
    pub fn new(
        inputs: Rc<Inputs>,
        smoke: bool,
        window: usize,
        registered: usize,
        engine: Arc<SearchEngine>,
    ) -> Probes {
        Probes {
            inputs,
            calls: if smoke { 60 } else { 10_000 },
            window,
            registered,
            engine,
        }
    }

    fn query(&self, i: usize) -> &str {
        self.inputs.query(i as u64)
    }

    /// The k+1 sub-queries one obfuscated request fans out: the query
    /// and `K` warm-set entries.
    fn subqueries(&self, i: usize) -> Vec<&str> {
        let warm = &self.inputs.warm;
        let mut subs = vec![self.query(i)];
        subs.extend((0..K).map(|j| warm[(i * K + j) % warm.len()].as_str()));
        subs
    }

    fn warmed_history(&self) -> QueryHistory {
        let history = QueryHistory::new(self.window, EpcGauge::new());
        for q in self.inputs.warm_cycle(self.window) {
            history.push(q);
        }
        history
    }

    fn echo_proxy(&self) -> ProxyRig {
        ProxyRig::launch_echo(self.window, 1, &self.inputs)
    }

    /// Runs every probe.
    pub fn all(&self) -> Vec<Reading> {
        let mut out = vec![
            ("crypto.seal_small_ns", "ns", self.crypto_seal_small_ns()),
            ("crypto.open_small_ns", "ns", self.crypto_open_small_ns()),
            (
                "crypto.seal_bulk_ns_per_kib",
                "ns/KiB",
                self.crypto_seal_bulk_ns_per_kib(),
            ),
            ("crypto.x25519_ns", "ns", self.crypto_x25519_ns()),
            ("sgx.ecall_ns", "ns", self.sgx_ecall_ns()),
            ("sgx.quote_verify_ns", "ns", self.sgx_quote_verify_ns()),
            (
                "sgx.seal_blob_ns_per_kib",
                "ns/KiB",
                self.sgx_seal_blob_ns_per_kib(),
            ),
            ("core.obfuscate_ns", "ns", self.core_obfuscate_ns()),
            ("core.history_push_ns", "ns", self.core_history_push_ns()),
            (
                "core.history_sample_ns",
                "ns",
                self.core_history_sample_ns(),
            ),
            ("core.filter_ns", "ns", self.core_filter_ns()),
            ("core.history_seal_ns", "ns", self.core_history_seal_ns()),
            (
                "core.request_search_ns",
                "ns",
                self.core_request_search_ns(),
            ),
            ("engine.search_ns", "ns", self.engine_search_ns()),
            (
                "netsim.frame_encode_ns",
                "ns",
                self.netsim_frame_encode_ns(),
            ),
            (
                "netsim.frame_decode_ns",
                "ns",
                self.netsim_frame_decode_ns(),
            ),
            ("netsim.stream_rw_ns", "ns", self.netsim_stream_rw_ns()),
            (
                "netsim.reactor_poll_ns",
                "ns",
                self.netsim_reactor_poll_ns(),
            ),
            (
                "netsim.stream_idle_bytes",
                "bytes",
                self.netsim_stream_idle_bytes(),
            ),
            (
                "telemetry.counter_inc_ns",
                "ns",
                self.telemetry_counter_inc_ns(),
            ),
            (
                "telemetry.histogram_record_ns",
                "ns",
                self.telemetry_histogram_record_ns(),
            ),
            (
                "telemetry.request_overhead_ns",
                "ns",
                self.telemetry_request_overhead_ns(),
            ),
        ];
        out.extend(self.core_tunnel_and_request_echo());
        out.extend(self.core_session_lifecycle());
        out.extend(self.engine_fanout());
        out.extend(self.cluster_fleet());
        out.extend(self.front_accept_and_teardown());
        out
    }

    // ---- crypto ------------------------------------------------------

    fn crypto_seal_small_ns(&self) -> f64 {
        let aead = ChaCha20Poly1305::new(&[7; 32]);
        let mut buf = self.query(0).as_bytes().to_vec();
        let mut n = 0u64;
        per_call_ns(self.calls, || {
            n += 1;
            black_box(aead.seal_in_place(&counter_nonce(*b"prbe", n), b"query", &mut buf));
        })
    }

    fn crypto_open_small_ns(&self) -> f64 {
        let aead = ChaCha20Poly1305::new(&[7; 32]);
        let nonce = counter_nonce(*b"prbe", 1);
        let plain = self.query(0).as_bytes().to_vec();
        let mut sealed = plain.clone();
        let tag = aead.seal_in_place(&nonce, b"query", &mut sealed);
        let mut buf = sealed.clone();
        per_call_ns(self.calls, || {
            buf.copy_from_slice(&sealed);
            aead.open_in_place(&nonce, b"query", &mut buf, &tag)
                .expect("the probe's own ciphertext opens");
            black_box(&buf);
        })
    }

    fn crypto_seal_bulk_ns_per_kib(&self) -> f64 {
        let aead = ChaCha20Poly1305::new(&[7; 32]);
        let mut buf = vec![0x5a_u8; BULK_BYTES];
        let mut n = 0u64;
        let per_call = per_call_ns(self.calls / 50, || {
            n += 1;
            black_box(aead.seal_in_place(&counter_nonce(*b"bulk", n), b"", &mut buf));
        });
        per_call / (BULK_BYTES as f64 / KIB)
    }

    fn crypto_x25519_ns(&self) -> f64 {
        let mut rng = StdRng::seed_from_u64(RIG_SEED);
        let secret = StaticSecret::random(&mut rng);
        let peer = StaticSecret::random(&mut rng).public_key();
        per_call_ns(self.calls / 20, || {
            black_box(
                secret
                    .diffie_hellman(black_box(&peer))
                    .expect("a random key is strong"),
            );
        })
    }

    // ---- sgx-sim -----------------------------------------------------

    fn sgx_ecall_ns(&self) -> f64 {
        let enclave = EnclaveBuilder::new("probe").build(());
        per_call_ns(self.calls, || {
            black_box(
                enclave
                    .ecall_shared("noop", &[], |_, _, _| Vec::new())
                    .expect("ecalls do not fail in the model"),
            );
        })
    }

    fn sgx_quote_verify_ns(&self) -> f64 {
        let ias = AttestationService::from_seed(RIG_SEED);
        let enclave = EnclaveBuilder::new("probe")
            .with_provisioning_key(ias.provisioning_key())
            .build(());
        let quote = enclave.quote(&[9; 32]).expect("provisioned enclave quotes");
        let expected = enclave.measurement();
        per_call_ns(self.calls / 4, || {
            ias.verify_expecting(black_box(&quote), expected)
                .expect("the probe's own quote verifies");
        })
    }

    fn sgx_seal_blob_ns_per_kib(&self) -> f64 {
        let platform = SealingPlatform::from_seed(RIG_SEED);
        let measurement = EnclaveBuilder::new("probe").build(()).measurement();
        let plaintext = vec![0x5a_u8; BULK_BYTES];
        let mut rng = StdRng::seed_from_u64(RIG_SEED);
        let mut version = 0;
        let per_call = per_call_ns(self.calls / 50, || {
            version += 1;
            black_box(platform.seal_versioned(&measurement, version, &plaintext, &mut rng));
        });
        per_call / (BULK_BYTES as f64 / KIB)
    }

    // ---- core --------------------------------------------------------

    /// `core.tunnel_seal_ns`, `core.tunnel_open_ns`, and the p50 and mean
    /// of `core.request_echo_ns`, measured on one request loop: seal,
    /// request, open — each timed alone.
    fn core_tunnel_and_request_echo(&self) -> Vec<Reading> {
        let mut rig = self.echo_proxy();
        let calls = self.calls / 2;
        let (mut seal, mut request, mut open) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..calls.max(1) {
            let query = self.query(i);
            let t0 = Instant::now();
            rig.seal(0, query);
            let t1 = Instant::now();
            let reply = rig.request(0, true).expect("echo request");
            let t2 = Instant::now();
            black_box(rig.open(0, &reply).expect("echo reply opens"));
            let t3 = Instant::now();
            seal.push((t1 - t0).as_nanos() as f64);
            request.push((t2 - t1).as_nanos() as f64);
            open.push((t3 - t2).as_nanos() as f64);
        }
        vec![
            ("core.tunnel_seal_ns", "ns", median(&seal)),
            ("core.tunnel_open_ns", "ns", median(&open)),
            ("core.request_echo_p50_ns", "ns", median(&request)),
            ("core.request_echo_mean_ns", "ns", mean(&request)),
        ]
    }

    fn core_request_search_ns(&self) -> f64 {
        let mut rig =
            ProxyRig::launch_search(Arc::clone(&self.engine), self.window, 1, &self.inputs);
        let mut i = 0;
        median(&samples_ns(self.calls / 40, || {
            i += 1;
            rig.seal(0, self.inputs.query(i));
            time_ns(|| rig.request(0, false).expect("search request"))
        }))
    }

    fn core_obfuscate_ns(&self) -> f64 {
        let history = self.warmed_history();
        let mut rng = StdRng::seed_from_u64(RIG_SEED);
        let mut i = 0;
        per_call_ns(self.calls, || {
            i += 1;
            black_box(obfuscate(self.query(i), &history, K, &mut rng));
        })
    }

    fn core_history_push_ns(&self) -> f64 {
        let history = self.warmed_history();
        let mut i = 0;
        per_call_ns(self.calls, || {
            i += 1;
            history.push(self.query(i));
        })
    }

    fn core_history_sample_ns(&self) -> f64 {
        let history = self.warmed_history();
        let mut rng = StdRng::seed_from_u64(RIG_SEED);
        per_call_ns(self.calls, || {
            black_box(history.sample(&mut rng));
        })
    }

    /// Algorithm 2 on the merged results of k+1 sub-queries × 20.
    fn core_filter_ns(&self) -> f64 {
        let mut i = 0;
        median(&samples_ns(self.calls / 20, || {
            i += 1;
            let subs = self.subqueries(i);
            let merged = self.engine.search_merged(&subs, RESULTS_PER_QUERY);
            time_ns(|| filter_results(subs[0], &subs[1..], merged))
        }))
    }

    /// `handshake`, full `Broker::attach`, and `close_session`.
    fn core_session_lifecycle(&self) -> Vec<Reading> {
        let ias = AttestationService::from_seed(RIG_SEED);
        let proxy = XSearchProxy::launch(
            XSearchConfig {
                k: K,
                history_capacity: 64,
                ..Default::default()
            },
            crate::adapter::tiny_engine(),
            &ias,
        );
        let expected = proxy.expected_measurement();
        let calls = self.calls / 20;
        let mut seed = RIG_SEED;
        let mut fresh_key = || {
            seed += 1;
            (seed, Broker::client_pub_for_seed(seed))
        };
        let handshake = samples_ns(calls, || {
            let (_, key) = fresh_key();
            let ns = time_ns(|| proxy.handshake(key).expect("handshake"));
            proxy.close_session(key.as_bytes());
            ns
        });
        let attach = samples_ns(calls, || {
            let (seed, key) = fresh_key();
            let ns = time_ns(|| Broker::attach(&proxy, &ias, expected, seed).expect("attach"));
            proxy.close_session(key.as_bytes());
            ns
        });
        let close = samples_ns(calls, || {
            let (_, key) = fresh_key();
            proxy.handshake(key).expect("handshake");
            time_ns(|| proxy.close_session(key.as_bytes()))
        });
        vec![
            ("core.handshake_ns", "ns", median(&handshake)),
            ("core.attach_ns", "ns", median(&attach)),
            ("core.close_session_ns", "ns", median(&close)),
        ]
    }

    /// Sealing one whole history window inside the enclave.
    fn core_history_seal_ns(&self) -> f64 {
        let ias = AttestationService::from_seed(RIG_SEED);
        let proxy = XSearchProxy::launch(
            XSearchConfig {
                k: K,
                history_capacity: self.window,
                ..Default::default()
            },
            crate::adapter::tiny_engine(),
            &ias,
        );
        proxy.seed_history(self.inputs.warm_cycle(self.window));
        let vault = HistoryVault::new(
            SealingPlatform::from_seed(RIG_SEED),
            proxy.expected_measurement(),
        );
        let mut rng = StdRng::seed_from_u64(RIG_SEED);
        per_call_ns(self.calls / 50, || {
            black_box(proxy.seal_history_snapshot(&vault, &mut rng));
        })
    }

    // ---- search-engine -----------------------------------------------

    fn engine_search_ns(&self) -> f64 {
        let mut i = 0;
        per_call_ns(self.calls / 10, || {
            i += 1;
            black_box(self.engine.search(self.query(i), RESULTS_PER_QUERY));
        })
    }

    /// The k+1-wide pooled evaluator `proxy_search` puts behind its proxy.
    fn pooled_service(&self) -> EngineService {
        EngineService::with_workers(
            Arc::clone(&self.engine),
            WanModel::default().engine_service,
            RIG_SEED,
            K + 1,
        )
    }

    /// The fan-out of one `proxy_search` request as a block the ledger
    /// interleaves with its rungs: `n` merged searches, wall ns.
    pub fn fanout_block(&self) -> impl FnMut(u64) -> u64 + '_ {
        let service = self.pooled_service();
        let mut i = 0;
        move |n| {
            let start = Instant::now();
            for _ in 0..n {
                i += 1;
                black_box(service.search_merged(&self.subqueries(i), RESULTS_PER_QUERY));
            }
            start.elapsed().as_nanos() as u64
        }
    }

    /// k+1 sub-queries through the worker pool and through the serial
    /// evaluator, and their ratio.
    fn engine_fanout(&self) -> Vec<Reading> {
        let pooled = self.pooled_service();
        let serial = EngineService::serial(
            Arc::clone(&self.engine),
            WanModel::default().engine_service,
            RIG_SEED,
        );
        let calls = self.calls / 40;
        let time = |service: &EngineService| {
            let mut i = 0;
            per_call_ns(calls, || {
                i += 1;
                black_box(service.search_merged(&self.subqueries(i), RESULTS_PER_QUERY));
            })
        };
        let (fanout, serial) = (time(&pooled), time(&serial));
        vec![
            ("engine.fanout_ns", "ns", fanout),
            ("engine.fanout_serial_ns", "ns", serial),
            ("engine.fanout_speedup", "ratio", serial / fanout),
        ]
    }

    // ---- net-sim -----------------------------------------------------

    fn framed_request(&self) -> Vec<u8> {
        // A framed echo request: flags, 32-byte channel key, sealed
        // query (query + 16-byte tag).
        vec![0x5a; 1 + 32 + self.query(0).len() + 16]
    }

    fn netsim_frame_encode_ns(&self) -> f64 {
        let payload = self.framed_request();
        let mut out = Vec::with_capacity(payload.len() + 4);
        per_call_ns(self.calls, || {
            out.clear();
            encode_frame_into(black_box(&payload), &mut out);
        })
    }

    fn netsim_frame_decode_ns(&self) -> f64 {
        let mut framed = Vec::new();
        encode_frame_into(&self.framed_request(), &mut framed);
        let mut decoder = FrameDecoder::new();
        per_call_ns(self.calls, || {
            decoder.push(&framed);
            black_box(
                decoder
                    .next_frame()
                    .expect("well-formed frame")
                    .expect("complete frame"),
            );
        })
    }

    fn netsim_stream_rw_ns(&self) -> f64 {
        let (a, b) = stream_pair(4096);
        let data = [0x5a_u8; 128];
        let mut out = [0u8; 128];
        per_call_ns(self.calls, || {
            a.write(&data).expect("ring has room");
            black_box(b.read(&mut out).expect("bytes buffered"));
        })
    }

    /// One ready stream among `registered`: the poll alone is timed.
    fn netsim_reactor_poll_ns(&self) -> f64 {
        let reactor = Reactor::new();
        let pairs: Vec<(ByteStream, ByteStream)> =
            (0..self.registered).map(|_| stream_pair(4096)).collect();
        let _registrations: Vec<_> = pairs
            .iter()
            .enumerate()
            .map(|(i, (_, server))| reactor.register(server, Token(i as u64), Interest::READABLE))
            .collect();
        let mut events = Vec::new();
        reactor.poll(&mut events);
        let mut i = 0;
        let mut byte = [0u8; 1];
        median(&samples_ns(self.calls / 2, || {
            i = (i + 7919) % pairs.len();
            pairs[i].0.write(&[1]).expect("ring has room");
            let ns = time_ns(|| reactor.poll(&mut events));
            // Drain, so the next round again has exactly one stream ready.
            let _ = pairs[i].1.read(&mut byte);
            reactor.poll(&mut events);
            ns
        }))
    }

    fn netsim_stream_idle_bytes(&self) -> f64 {
        let (a, _b) = stream_pair(4096);
        a.mem_bytes() as f64
    }

    // ---- cluster -----------------------------------------------------

    /// `cluster.route_ns`, the p50 and mean of one synchronous
    /// `ClusterClient` echo (mean − p50 is the amortised reseal), and the
    /// cost of one fleet registry snapshot.
    fn cluster_fleet(&self) -> Vec<Reading> {
        let mut fleet = FleetRig::launch(
            FleetShape {
                replicas: 2,
                window: self.window,
                seal_every: 64,
            },
            1,
            &self.inputs,
        );
        let mut i = 0usize;
        let route = per_call_ns(self.calls, || {
            i += 1;
            black_box(fleet.route(&(i as u64).to_le_bytes()));
        });
        let snapshot = per_call_ns(self.calls / 50, || {
            black_box(fleet.snapshot_samples());
        });
        let inputs = Rc::clone(&self.inputs);
        let echo = samples_ns(self.calls, || {
            i += 1;
            time_ns(|| fleet.echo(0, inputs.query(i as u64)).expect("fleet echo"))
        });
        vec![
            ("cluster.route_ns", "ns", route),
            ("cluster.client_echo_p50_ns", "ns", percentile(&echo, 50.0)),
            ("cluster.client_echo_mean_ns", "ns", mean(&echo)),
            ("telemetry.snapshot_us", "us", snapshot / 1e3),
        ]
    }

    /// Accept + adopt, and close + reap, per connection, on an otherwise
    /// empty one-shard front.
    fn front_accept_and_teardown(&self) -> Vec<Reading> {
        let cluster = Arc::new(Cluster::launch(
            crate::adapter::tiny_engine(),
            ClusterConfig {
                replicas: 1,
                proxy: XSearchConfig {
                    k: K,
                    history_capacity: 64,
                    ..Default::default()
                },
                ..Default::default()
            },
        ));
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let batch = (self.calls / 10).max(1);
        let (mut accept, mut teardown) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let start = Instant::now();
            let held: Vec<ByteStream> = (0..batch).map(|_| front.accept()).collect();
            front.step();
            accept.push(start.elapsed().as_nanos() as f64 / batch as f64);
            assert_eq!(front.connections(), batch, "probe connections adopted");
            let start = Instant::now();
            for stream in &held {
                stream.close();
            }
            while front.connections() > 0 {
                front.step();
            }
            teardown.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
        vec![
            ("front.accept_ns", "ns", median(&accept)),
            ("front.teardown_ns", "ns", median(&teardown)),
        ]
    }

    // ---- telemetry ---------------------------------------------------

    fn telemetry_counter_inc_ns(&self) -> f64 {
        let registry = Registry::new();
        let counter = registry.counter("probe_counter_total", "probe", &[]);
        per_call_ns(self.calls, || counter.inc())
    }

    fn telemetry_histogram_record_ns(&self) -> f64 {
        let registry = Registry::new();
        let histogram = registry.histogram("probe_histogram_us", "probe", &[]);
        let mut v = 0;
        per_call_ns(self.calls, || {
            v = (v + 37) % 10_000;
            histogram.record(v);
        })
    }

    /// What recording costs one echo request: blocks of requests with
    /// telemetry on and off alternate, and the figure is the median over
    /// pairs of (on − off) — a paired statistic, so drift between blocks
    /// cancels instead of deciding the sign.
    fn telemetry_request_overhead_ns(&self) -> f64 {
        let mut rig = self.echo_proxy();
        let block = (self.calls / 10).max(1);
        let mut i = 0;
        let mut run_block = |on: bool| {
            xsearch_telemetry::set_enabled(on);
            let start = Instant::now();
            for _ in 0..block {
                i += 1;
                rig.seal(0, self.inputs.query(i));
                black_box(rig.request(0, true).expect("echo request"));
            }
            start.elapsed().as_nanos() as f64 / block as f64
        };
        let pairs: Vec<f64> = (0..10)
            .map(|pair| {
                // Alternate which side runs first.
                if pair % 2 == 0 {
                    let on = run_block(true);
                    on - run_block(false)
                } else {
                    let off = run_block(false);
                    run_block(true) - off
                }
            })
            .collect();
        xsearch_telemetry::set_enabled(true);
        median(&pairs)
    }
}
