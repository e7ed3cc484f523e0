//! [`FramedClient`]: the client end of the front's wire protocol.

use super::FrontTier;
use crate::client::handshake_seed;
use crate::error::ClusterError;
use crate::fleet::Cluster;
use crate::registry::ReplicaId;
use xsearch_core::wire::{decode_conn_reply, encode_conn_request_into, ConnStatus, WireResult};
use xsearch_core::{Broker, XSearchError};
use xsearch_crypto::CryptoError;
use xsearch_net_sim::{ByteStream, FrameDecoder, FrameEncoder, StreamError};

/// Maps a framed error status back to the cluster error a synchronous
/// caller would have seen.
fn error_for(status: ConnStatus, replica: ReplicaId) -> ClusterError {
    match status {
        ConnStatus::Overloaded => ClusterError::Overloaded(replica),
        ConnStatus::UnknownSession => ClusterError::Proxy(XSearchError::UnknownSession),
        ConnStatus::Crypto => {
            ClusterError::Proxy(XSearchError::Crypto(CryptoError::AuthenticationFailed))
        }
        ConnStatus::Protocol => ClusterError::Proxy(XSearchError::Protocol(
            "front reported a protocol violation".into(),
        )),
        ConnStatus::Unavailable => ClusterError::NoReplicasAvailable,
        ConnStatus::Ok => unreachable!("Ok is not an error status"),
    }
}

/// Most front steps [`FramedClient::search`] takes while waiting for a
/// reply before concluding the front is wedged.
const CLIENT_STEP_LIMIT: usize = 1_000_000;

/// A non-blocking framed client: seals queries end-to-end exactly like
/// [`crate::client::ClusterClient`], but speaks the length-prefixed
/// wire protocol over a [`ByteStream`] to a [`FrontTier`] instead of
/// calling into the cluster synchronously.
///
/// [`FramedClient::search`] is the blocking call: it steps the front
/// while it waits, which is the front's one driving rule.
/// [`begin`](FramedClient::begin), [`poll_send`](FramedClient::poll_send)
/// and [`poll_reply`](FramedClient::poll_reply) are its non-blocking
/// parts, for a caller that steps the front itself.
///
/// Routing is by the session's channel public key: the client derives
/// its keypair from its seed, routes the public half, and attests exactly
/// the replica the front will forward to ([`Cluster::attach_routed`]).
pub struct FramedClient {
    broker: Broker,
    stream: ByteStream,
    decoder: FrameDecoder,
    send: Option<(FrameEncoder, Vec<u8>)>,
    replica: ReplicaId,
    seed: u64,
    handshakes: u64,
}

impl FramedClient {
    /// Routes the seed's channel key, attests that replica, and opens a
    /// framed connection to the front.
    ///
    /// # Errors
    ///
    /// Routing/attestation failures as for
    /// [`crate::client::ClusterClient::attach`].
    pub fn connect(cluster: &Cluster, front: &FrontTier, seed: u64) -> Result<Self, ClusterError> {
        let (broker, replica) = cluster.attach_routed(handshake_seed(seed, 0))?;
        Ok(FramedClient {
            broker,
            stream: front.accept(),
            decoder: FrameDecoder::new(),
            send: None,
            replica,
            seed,
            handshakes: 1,
        })
    }

    /// The replica this session is attested to (and routed to by the
    /// front, membership permitting).
    #[must_use]
    pub fn replica(&self) -> ReplicaId {
        self.replica
    }

    /// Re-attests after a shed request or a failover: fresh handshake
    /// seed (never reuse a session keypair — nonce safety), fresh
    /// routing. The framed connection itself is reused; the front
    /// routes per-request by the new channel key.
    ///
    /// # Errors
    ///
    /// As [`FramedClient::connect`].
    pub fn reattach(&mut self, cluster: &Cluster) -> Result<(), ClusterError> {
        let (broker, replica) =
            cluster.attach_routed(handshake_seed(self.seed, self.handshakes))?;
        self.handshakes += 1;
        self.broker = broker;
        self.replica = replica;
        Ok(())
    }

    /// Seals `query` and begins writing the request frame. At most one
    /// request may be outstanding per connection.
    ///
    /// # Panics
    ///
    /// If a request is already in flight on this connection.
    pub fn begin(&mut self, query: &str, echo: bool) {
        assert!(self.send.is_none(), "one request in flight per connection");
        let ciphertext = self.broker.seal_query(query);
        let mut payload = Vec::new();
        encode_conn_request_into(
            self.broker.client_pub().as_bytes(),
            &ciphertext,
            echo,
            &mut payload,
        );
        self.send = Some((FrameEncoder::new(payload.len()), payload));
    }

    /// Advances the in-progress request write. `Ok(true)` once the
    /// frame is fully handed to the stream.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Proxy`] when the front closed the connection.
    pub fn poll_send(&mut self) -> Result<bool, ClusterError> {
        let Some((encoder, payload)) = self.send.as_mut() else {
            return Ok(true);
        };
        match encoder.write_to(&self.stream, payload) {
            Ok(true) => {
                self.send = None;
                Ok(true)
            }
            Ok(false) => Ok(false),
            Err(_) => Err(ClusterError::Proxy(XSearchError::Protocol(
                "front connection closed".into(),
            ))),
        }
    }

    /// Tries to collect and open the pending reply. `Ok(None)` while it
    /// has not arrived.
    ///
    /// # Errors
    ///
    /// The framed error statuses mapped back to [`ClusterError`]; after
    /// [`ClusterError::Overloaded`] the session's send counter is
    /// desynchronized (the request was sealed, then shed) and the
    /// caller must [`FramedClient::reattach`] before the next query.
    pub fn poll_reply(&mut self) -> Result<Option<Vec<WireResult>>, ClusterError> {
        let eof = matches!(
            self.decoder.read_from(&self.stream, 4096),
            Ok(0) | Err(StreamError::Closed)
        );
        let Some(frame) = self.decoder.next_frame().map_err(|_| {
            ClusterError::Proxy(XSearchError::Protocol("oversized reply frame".into()))
        })?
        else {
            if eof {
                return Err(ClusterError::Proxy(XSearchError::Protocol(
                    "front connection closed".into(),
                )));
            }
            return Ok(None);
        };
        let (status, payload) = decode_conn_reply(frame).map_err(ClusterError::Proxy)?;
        if status != ConnStatus::Ok {
            return Err(error_for(status, self.replica));
        }
        let opened = self
            .broker
            .open_results(payload)
            .map_err(ClusterError::Proxy)?;
        self.decoder.shrink();
        Ok(Some(opened))
    }

    /// Runs one request to completion over `front` (the tier this
    /// client connected to), stepping it whenever the session would
    /// block.
    ///
    /// # Errors
    ///
    /// As [`FramedClient::poll_send`] / [`FramedClient::poll_reply`];
    /// [`ClusterError::DeadlineExceeded`] if the reply never arrives
    /// within the step limit.
    pub fn search(
        &mut self,
        front: &FrontTier,
        query: &str,
        echo: bool,
    ) -> Result<Vec<WireResult>, ClusterError> {
        self.begin(query, echo);
        for _ in 0..CLIENT_STEP_LIMIT {
            if self.poll_send()? {
                break;
            }
            front.step();
        }
        for _ in 0..CLIENT_STEP_LIMIT {
            if let Some(results) = self.poll_reply()? {
                return Ok(results);
            }
            front.step();
        }
        Err(ClusterError::DeadlineExceeded)
    }

    /// Closes the framed connection (the front observes EOF).
    pub fn close(&self) {
        self.stream.close();
    }
}

impl std::fmt::Debug for FramedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FramedClient")
            .field("seed", &self.seed)
            .field("replica", &self.replica)
            .field("handshakes", &self.handshakes)
            .finish_non_exhaustive()
    }
}
