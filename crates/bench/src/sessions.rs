//! Shared session machinery for the experiment harnesses.
//!
//! Two front paths exist: the original in-process broker↔proxy calls
//! (what fig5 measures) and the event-driven framed path through
//! [`FrontTier`] (what `conn_scaling` measures). Both pools live here so
//! the harness loops can't drift apart — one warmed-proxy recipe, one
//! attach recipe, one round-robin driver each — next to [`RawFramed`],
//! the one hand-driven framed client the replay and chaos harnesses
//! share.

use crate::{echo_engine, EXPERIMENT_SEED};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use xsearch_cluster::{Cluster, ClusterError, FramedClient, FrontTier};
use xsearch_core::broker::Broker;
use xsearch_core::config::XSearchConfig;
use xsearch_core::proxy::XSearchProxy;
use xsearch_core::wire::encode_conn_request_into;
use xsearch_net_sim::{encode_frame_into, ByteStream, FrameDecoder, StreamError};
use xsearch_sgx_sim::attestation::AttestationService;

/// One warmed single-proxy deployment plus a pool of attested broker
/// sessions, shared round-robin by the generator threads. This is the
/// thread-per-request harness core fig5 drives.
pub struct BrokerPool {
    proxy: XSearchProxy,
    brokers: Vec<Mutex<Broker>>,
    counter: AtomicUsize,
}

impl BrokerPool {
    /// Launches a proxy (tiny corpus — echo mode keeps the engine out
    /// of the measured path), warms its history, and attests
    /// `sessions` brokers.
    ///
    /// # Panics
    ///
    /// Panics when attestation fails — that is broken setup, not data.
    #[must_use]
    pub fn warmed(k: usize, sessions: usize, warm: &[String]) -> Self {
        let ias = AttestationService::from_seed(EXPERIMENT_SEED);
        let proxy = XSearchProxy::launch(
            XSearchConfig {
                k,
                history_capacity: 1_000_000,
                ..Default::default()
            },
            echo_engine(),
            &ias,
        );
        proxy.seed_history(warm.iter().take(10_000).map(String::as_str));
        let brokers = (0..sessions)
            .map(|i| {
                Mutex::new(
                    Broker::attach(&proxy, &ias, proxy.expected_measurement(), i as u64).unwrap(),
                )
            })
            .collect();
        BrokerPool {
            proxy,
            brokers,
            counter: AtomicUsize::new(0),
        }
    }

    /// One echo-mode request on the next session round-robin; `true` on
    /// success. This is the service closure the open-loop runner calls.
    pub fn echo(&self, query: &str) -> bool {
        let idx = self.counter.fetch_add(1, Ordering::Relaxed) % self.brokers.len();
        self.brokers[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .search_echo(&self.proxy, query)
            .is_ok()
    }
}

/// A pool of framed sessions over the event-driven front tier — the
/// reactor-driven counterpart of [`BrokerPool`]. Each echo steps the
/// front while it waits, so the generator threads are the front's
/// threads.
pub struct FrontSessions {
    clients: Vec<Mutex<FramedClient>>,
    counter: AtomicUsize,
}

impl FrontSessions {
    /// Attests `sessions` framed clients (seeds `seed_base..`), each
    /// with its own connection to the front.
    ///
    /// # Panics
    ///
    /// Panics when routing or attestation fails.
    #[must_use]
    pub fn attach(cluster: &Cluster, front: &FrontTier, sessions: usize, seed_base: u64) -> Self {
        let clients = (0..sessions)
            .map(|i| {
                Mutex::new(FramedClient::connect(cluster, front, seed_base + i as u64).unwrap())
            })
            .collect();
        FrontSessions {
            clients,
            counter: AtomicUsize::new(0),
        }
    }

    /// One echo request on the next framed session round-robin; `true`
    /// on success. A shed request ([`ClusterError::Overloaded`])
    /// re-attests the session — its send counter advanced past what the
    /// enclave saw — and counts as a failure, mirroring how the
    /// synchronous harnesses count sheds.
    pub fn echo(&self, cluster: &Cluster, front: &FrontTier, query: &str) -> bool {
        let idx = self.counter.fetch_add(1, Ordering::Relaxed) % self.clients.len();
        let mut client = self.clients[idx]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match client.search(front, query, true) {
            Ok(_) => true,
            Err(ClusterError::Overloaded(_)) => {
                let _ = client.reattach(cluster);
                false
            }
            Err(_) => false,
        }
    }
}

/// Attests a broker for `seed` on the replica its channel key routes to —
/// the handshake half of a framed session, with no connection behind it.
///
/// # Panics
///
/// Panics when routing or attestation fails — broken setup, not data.
#[must_use]
pub fn attach_by_seed(cluster: &Cluster, seed: u64) -> Broker {
    cluster
        .attach_routed(seed)
        .expect("routable, replica up and attested")
        .0
}

/// Write stalls one [`RawFramed::send`] rides out before giving up.
const SEND_STALLS: usize = 2_000;

/// What one bounded receive attempt produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Recv {
    /// One reply frame's exact payload bytes.
    Frame(Vec<u8>),
    /// The front (or a socket fault) closed the connection.
    Closed,
    /// No complete frame within the step budget.
    Timeout,
}

impl Recv {
    /// The frame, or `None` for a closed or silent connection.
    #[must_use]
    pub fn frame(self) -> Option<Vec<u8>> {
        match self {
            Recv::Frame(frame) => Some(frame),
            Recv::Closed | Recv::Timeout => None,
        }
    }
}

/// A hand-driven framed session over a manually-stepped front: exposes
/// the exact reply bytes (what the replay gates compare) and tolerates
/// the front killing the connection mid-exchange (what the chaos
/// populations need).
pub struct RawFramed {
    /// The attested broker sealing this session's queries.
    pub broker: Broker,
    /// The client end of the connection.
    pub stream: ByteStream,
    decoder: FrameDecoder,
}

impl RawFramed {
    /// Attests by `seed` and accepts a fresh connection on `front`.
    #[must_use]
    pub fn open(cluster: &Cluster, front: &FrontTier, seed: u64) -> RawFramed {
        RawFramed {
            broker: attach_by_seed(cluster, seed),
            stream: front.accept(),
            decoder: FrameDecoder::new(),
        }
    }

    /// Writes one sealed echo request, stepping the front while the
    /// socket is full; `false` if the connection died first.
    pub fn send(&mut self, front: &FrontTier, query: &str) -> bool {
        let ciphertext = self.broker.seal_query(query);
        let mut payload = Vec::new();
        encode_conn_request_into(
            self.broker.client_pub().as_bytes(),
            &ciphertext,
            true,
            &mut payload,
        );
        let mut framed = Vec::new();
        encode_frame_into(&payload, &mut framed);
        let mut written = 0;
        let mut stalls = 0;
        while written < framed.len() {
            match self.stream.write(&framed[written..]) {
                Ok(n) => written += n,
                Err(StreamError::WouldBlock) if stalls < SEND_STALLS => {
                    front.step();
                    stalls += 1;
                }
                Err(_) => return false,
            }
        }
        true
    }

    /// Steps the front up to `steps` times until one reply frame arrives.
    pub fn recv(&mut self, front: &FrontTier, steps: usize) -> Recv {
        for _ in 0..steps {
            front.step();
            let eof = self.decoder.read_from(&self.stream, 4096) == Ok(0);
            match self.decoder.next_frame() {
                Ok(Some(frame)) => return Recv::Frame(frame.to_vec()),
                Ok(None) if !eof => {}
                Ok(None) | Err(_) => return Recv::Closed,
            }
        }
        Recv::Timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo_fleet;
    use xsearch_cluster::FrontConfig;
    use xsearch_core::wire::{decode_conn_reply, ConnStatus};

    #[test]
    fn raw_framed_round_trips_an_echo() {
        let cluster = echo_fleet(2, None);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let mut session = RawFramed::open(&cluster, &front, 7);
        assert!(session.send(&front, "cheap flights paris"));
        let frame = session.recv(&front, 1_000).frame().expect("a reply");
        let (status, payload) = decode_conn_reply(&frame).expect("well-formed reply");
        assert_eq!(status, ConnStatus::Ok);
        assert!(session.broker.open_results(payload).is_ok());
    }

    #[test]
    fn raw_framed_reports_teardown_and_silence() {
        let cluster = echo_fleet(2, None);
        let front = FrontTier::new(&cluster, FrontConfig::default());
        let mut session = RawFramed::open(&cluster, &front, 8);
        assert_eq!(session.recv(&front, 8), Recv::Timeout, "nothing was sent");
        // A junk frame: the front answers Protocol, then tears down.
        let mut framed = Vec::new();
        encode_frame_into(b"not a request", &mut framed);
        session.stream.write(&framed).expect("room for one frame");
        let frame = session.recv(&front, 1_000).frame().expect("protocol reply");
        assert_eq!(decode_conn_reply(&frame).unwrap().0, ConnStatus::Protocol);
        assert_eq!(session.recv(&front, 1_000), Recv::Closed);
        assert!(!session.send(&front, "after the close"));
    }
}
