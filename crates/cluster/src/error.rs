//! Cluster-tier error type.

use crate::registry::ReplicaId;
use std::error::Error;
use std::fmt;
use xsearch_core::error::XSearchError;
use xsearch_core::wire::ConnStatus;
use xsearch_sgx_sim::error::SgxError;

/// Errors surfaced by the fleet tier.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The enclave/attestation layer failed (quote rejected, wrong
    /// measurement, sealed-blob failure, rollback attempt, ...).
    Sgx(SgxError),
    /// The proxy stack under a replica failed (tunnel crypto, protocol,
    /// unknown session, ...).
    Proxy(XSearchError),
    /// No replica with this id exists in the fleet.
    UnknownReplica(ReplicaId),
    /// The replica exists but its enclave is not running (crashed or
    /// killed and not yet restarted).
    ReplicaDown(ReplicaId),
    /// The replica is not in the verified registry (never enrolled, or
    /// drained/deregistered) — the router refuses to send traffic to it.
    NotRoutable(ReplicaId),
    /// An enrollment was attempted without (or with a stale) registry
    /// challenge.
    NoChallenge(ReplicaId),
    /// The enrollment quote is authentic but does not bind the channel
    /// key + challenge nonce the registry expected (key substitution or
    /// quote replay).
    QuoteBindingMismatch,
    /// The replica's bounded admission queue is full: the router sheds
    /// the request instead of letting the backlog grow without bound.
    /// Backpressure — callers should slow down or try again later.
    Overloaded(ReplicaId),
    /// No verified, live replica is available to route to.
    NoReplicasAvailable,
    /// The request's deadline budget ran out before an answer arrived:
    /// it was *time*, not the failover count, that was exhausted (a
    /// search that runs out of failovers returns its last attempt's
    /// error).
    DeadlineExceeded,
    /// The request was dropped on the link to this replica (injected
    /// loss or a partition window) **before it was sealed**: the
    /// tunnel's nonce counters never advanced, so the caller may retry
    /// on the same session without re-attesting.
    LinkLoss(ReplicaId),
}

impl ClusterError {
    /// The wire [`ConnStatus`] the framed front answers a client with
    /// when a request fails with this error — THE one mapping, matched
    /// exhaustively inside this crate so a new `ClusterError` variant is
    /// a compile error here rather than a silent degradation to some
    /// catch-all status.
    ///
    /// The client-actionable statuses are specific: [`Overloaded`]
    /// (back off, re-attest — the shed advanced the client's nonce
    /// counter past what the enclave saw), [`UnknownSession`]
    /// (re-handshake), [`Crypto`] (the tunnel is broken),
    /// [`Protocol`] (the request itself was malformed). Everything
    /// else — infrastructure state a client can neither see nor fix
    /// (replica health, enrollment, routing, retry/deadline budgets,
    /// link loss) — is [`Unavailable`]: try again later, learn nothing
    /// about the fleet.
    ///
    /// [`Overloaded`]: ConnStatus::Overloaded
    /// [`UnknownSession`]: ConnStatus::UnknownSession
    /// [`Crypto`]: ConnStatus::Crypto
    /// [`Protocol`]: ConnStatus::Protocol
    /// [`Unavailable`]: ConnStatus::Unavailable
    #[must_use]
    pub fn conn_status(&self) -> ConnStatus {
        match self {
            ClusterError::Overloaded(_) => ConnStatus::Overloaded,
            // `XSearchError` is #[non_exhaustive] in another crate, so
            // its nested match needs the defensive arm; an unknown
            // future proxy failure degrades to the opaque status.
            ClusterError::Proxy(e) => match e {
                XSearchError::UnknownSession => ConnStatus::UnknownSession,
                XSearchError::Crypto(_) => ConnStatus::Crypto,
                XSearchError::Protocol(_) => ConnStatus::Protocol,
                XSearchError::Sgx(_) => ConnStatus::Unavailable,
                _ => ConnStatus::Unavailable,
            },
            ClusterError::Sgx(_)
            | ClusterError::UnknownReplica(_)
            | ClusterError::ReplicaDown(_)
            | ClusterError::NotRoutable(_)
            | ClusterError::NoChallenge(_)
            | ClusterError::QuoteBindingMismatch
            | ClusterError::NoReplicasAvailable
            | ClusterError::DeadlineExceeded
            | ClusterError::LinkLoss(_) => ConnStatus::Unavailable,
        }
    }
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Sgx(e) => write!(f, "enclave failure: {e}"),
            ClusterError::Proxy(e) => write!(f, "replica proxy failure: {e}"),
            ClusterError::UnknownReplica(id) => write!(f, "unknown replica {id}"),
            ClusterError::ReplicaDown(id) => write!(f, "replica {id} is down"),
            ClusterError::NotRoutable(id) => {
                write!(f, "replica {id} is not in the verified registry")
            }
            ClusterError::NoChallenge(id) => {
                write!(f, "no outstanding enrollment challenge for replica {id}")
            }
            ClusterError::QuoteBindingMismatch => {
                write!(
                    f,
                    "enrollment quote does not bind the expected key and nonce"
                )
            }
            ClusterError::Overloaded(id) => {
                write!(f, "replica {id} shed the request: admission queue full")
            }
            ClusterError::NoReplicasAvailable => write!(f, "no live verified replicas"),
            ClusterError::DeadlineExceeded => {
                write!(f, "request deadline budget exhausted before an answer")
            }
            ClusterError::LinkLoss(id) => {
                write!(f, "request to replica {id} lost on the link (never sealed)")
            }
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::Sgx(e) => Some(e),
            ClusterError::Proxy(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SgxError> for ClusterError {
    fn from(e: SgxError) -> Self {
        ClusterError::Sgx(e)
    }
}

impl From<XSearchError> for ClusterError {
    fn from(e: XSearchError) -> Self {
        ClusterError::Proxy(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(ClusterError::ReplicaDown(ReplicaId(3))
            .to_string()
            .contains('3'));
        assert!(ClusterError::QuoteBindingMismatch
            .to_string()
            .contains("quote"));
    }

    #[test]
    fn deadline_and_loss_displays_name_the_cause() {
        assert!(ClusterError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        let loss = ClusterError::LinkLoss(ReplicaId(2)).to_string();
        assert!(loss.contains('2') && loss.contains("never sealed"));
    }

    #[test]
    fn sources_chain() {
        let e = ClusterError::Sgx(SgxError::QuoteRejected);
        assert!(e.source().is_some());
        assert!(ClusterError::NoReplicasAvailable.source().is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ClusterError>();
    }

    #[test]
    fn every_variant_maps_to_its_conn_status() {
        use xsearch_core::error::XSearchError;
        use xsearch_crypto::CryptoError;
        let id = ReplicaId(1);
        let cases: Vec<(ClusterError, ConnStatus)> = vec![
            // The four client-actionable statuses.
            (ClusterError::Overloaded(id), ConnStatus::Overloaded),
            (
                ClusterError::Proxy(XSearchError::UnknownSession),
                ConnStatus::UnknownSession,
            ),
            (
                ClusterError::Proxy(XSearchError::Crypto(CryptoError::AuthenticationFailed)),
                ConnStatus::Crypto,
            ),
            (
                ClusterError::Proxy(XSearchError::Protocol("bad".into())),
                ConnStatus::Protocol,
            ),
            // Infrastructure state: always the opaque Unavailable.
            (
                ClusterError::Proxy(XSearchError::Sgx(SgxError::QuoteRejected)),
                ConnStatus::Unavailable,
            ),
            (
                ClusterError::Sgx(SgxError::QuoteRejected),
                ConnStatus::Unavailable,
            ),
            (ClusterError::UnknownReplica(id), ConnStatus::Unavailable),
            (ClusterError::ReplicaDown(id), ConnStatus::Unavailable),
            (ClusterError::NotRoutable(id), ConnStatus::Unavailable),
            (ClusterError::NoChallenge(id), ConnStatus::Unavailable),
            (ClusterError::QuoteBindingMismatch, ConnStatus::Unavailable),
            (ClusterError::NoReplicasAvailable, ConnStatus::Unavailable),
            (ClusterError::DeadlineExceeded, ConnStatus::Unavailable),
            (ClusterError::LinkLoss(id), ConnStatus::Unavailable),
        ];
        for (err, want) in cases {
            assert_eq!(err.conn_status(), want, "{err}");
        }
    }
}
