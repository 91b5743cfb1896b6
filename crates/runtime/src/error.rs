//! The runtime's error type: everything that can go wrong between a client
//! handing a [`Request`](fourcycle_service::Request) to the executor and
//! receiving its [`Response`](fourcycle_service::Response).

use fourcycle_service::ServiceError;
use fourcycle_store::StoreError;
use std::fmt;

/// Why a runtime call failed.
///
/// The service-level rejections ([`ServiceError`]) pass through unchanged —
/// the runtime adds only the failure modes sharded execution itself
/// introduces (a shard that is no longer reachable, a journal store that
/// cannot open). Like `ServiceError`, every wrapping variant implements
/// [`std::error::Error::source`], so reporters can walk the chain down to
/// the core `UpdateError` verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// The addressed shard's mailbox is closed: the runtime has been shut
    /// down (or the shard worker terminated). The request was not executed.
    ShardUnavailable,
    /// The shard executed the request and the service rejected it; state is
    /// exactly as if the failing command had never been sent.
    Service(ServiceError),
    /// The durable journal store failed while starting a journaled runtime
    /// (unusable directory, manifest topology mismatch, corrupt journal or
    /// checkpoint during recovery). The runtime refuses to start.
    Store(StoreError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::ShardUnavailable => {
                write!(f, "shard unavailable (runtime shut down)")
            }
            RuntimeError::Service(e) => write!(f, "service rejected the command: {e}"),
            RuntimeError::Store(e) => write!(f, "journal store failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    /// Chains to the wrapped [`ServiceError`] or [`StoreError`]; the
    /// service error itself chains further down to `BatchError` /
    /// `UpdateError`, so the full causal path of a rejected batch is
    /// `RuntimeError → ServiceError → BatchError → UpdateError`.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::ShardUnavailable => None,
            RuntimeError::Service(e) => Some(e),
            RuntimeError::Store(e) => Some(e),
        }
    }
}

impl From<ServiceError> for RuntimeError {
    fn from(e: ServiceError) -> Self {
        RuntimeError::Service(e)
    }
}

impl From<StoreError> for RuntimeError {
    fn from(e: StoreError) -> Self {
        RuntimeError::Store(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_core::{BatchError, UpdateError};
    use std::error::Error;

    #[test]
    fn sources_chain_down_to_the_update_verdict() {
        let e = RuntimeError::Service(ServiceError::Batch(BatchError::at(
            2,
            UpdateError::DuplicateEdge,
        )));
        // runtime → service → batch → update: four links, three sources.
        let service = e.source().expect("runtime chains to service");
        let batch = service.source().expect("service chains to batch");
        let update = batch.source().expect("batch chains to update");
        assert_eq!(update.to_string(), UpdateError::DuplicateEdge.to_string());
        assert!(RuntimeError::ShardUnavailable.source().is_none());

        let store = RuntimeError::Store(StoreError::UnknownShard {
            shard: 9,
            shards: 2,
        });
        assert!(store.source().unwrap().to_string().contains("shard 9"));
    }
}
