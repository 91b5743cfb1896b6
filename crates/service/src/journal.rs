//! The journaling interface of the service layer.
//!
//! [`CycleCountService::execute`](crate::CycleCountService::execute) can
//! mirror every *successful mutating* [`Request`] into a [`JournalSink`]
//! before the response is handed back, so a command stream becomes durable
//! without the service knowing anything about files, fsync or recovery.
//! The service owns the *what* (which commands mutate state, what a
//! point-in-time state image looks like); the sink owns the *how*
//! (`fourcycle-store` appends rendered command lines to a per-shard
//! write-ahead journal and persists checkpoints).
//!
//! No sink is attached by default, and the journaling hook in `execute`
//! is a single `Option` check — single-threaded embedding and the benches
//! pay nothing unless they opt in.
//!
//! # Checkpoints
//!
//! A [`CheckpointImage`] is the service's own description of a consistent
//! point in time: for every session, the spec it was built from, its
//! epoch-stamped [`Snapshot`], and a command sequence
//! ([`SessionImage::state`]) that recreates the session's current edge
//! set from scratch. Replaying that sequence into an empty service and
//! then restoring each session's epoch (`CycleCountService::restore_epoch`)
//! reproduces `count`, `total_edges` and `epoch` exactly; the `work` and
//! `slow_path` fields of a snapshot are *path-dependent* costs and
//! legitimately differ after a checkpoint-based recovery (they are exact
//! again under full journal replay).

use crate::{GraphId, Request, SessionSpec};
use fourcycle_core::Snapshot;
use std::io;

/// Where the service mirrors successful mutating commands.
///
/// Implementations must be `Send`: the sharded runtime builds a journaled
/// service on the starting thread and moves it into a shard worker.
///
/// The contract, in call order per command:
/// 1. [`record`](Self::record) — called *after* the request was applied
///    successfully, exactly once per mutating command, in execution order.
///    An `Err` is surfaced to the caller as
///    [`ServiceError::Journal`](crate::ServiceError::Journal); the command's
///    effect stands (the response was already computed), so a failing sink
///    means the journal is missing suffix commands — callers that see a
///    journal error must treat the journal as no longer authoritative.
/// 2. [`checkpoint_due`](Self::checkpoint_due) — polled right after a
///    successful `record`; returning `true` makes the service assemble a
///    [`CheckpointImage`] and call [`write_checkpoint`](Self::write_checkpoint).
/// 3. [`sync`](Self::sync) — explicit durability barrier, called by
///    [`CycleCountService::sync_journal`](crate::CycleCountService::sync_journal)
///    (the shard workers invoke it on graceful shutdown).
pub trait JournalSink: Send {
    /// Appends one successful mutating request to the journal.
    fn record(&mut self, request: &Request) -> io::Result<()>;

    /// `true` if the sink wants a checkpoint now (e.g. N commands have been
    /// recorded since the last one). Default: never.
    fn checkpoint_due(&self) -> bool {
        false
    }

    /// Persists a point-in-time state image. Default: drop it (sinks that
    /// only journal need not checkpoint).
    fn write_checkpoint(&mut self, image: &CheckpointImage) -> io::Result<()> {
        let _ = image;
        Ok(())
    }

    /// Flushes and makes everything recorded so far durable.
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Group-commit durability barrier: makes every command recorded since
    /// the last fsync durable with **one** fsync and returns how many
    /// commands that covered. Drivers that batch concurrent commands (the
    /// sharded runtime's shard dispatcher) call this once per group, after
    /// the group's `record`s and *before* releasing any of the group's
    /// replies — preserving reply ⇒ journaled ⇒ durable at a fraction of
    /// the fsync count. Default: no-op (sinks whose `record` is already
    /// durable have nothing pending).
    fn commit_group(&mut self) -> io::Result<u64> {
        Ok(0)
    }

    /// Number of fsyncs the sink has issued so far (observability: the
    /// benches report commands-per-fsync). Default: 0 for sinks that do not
    /// track it.
    fn fsyncs(&self) -> u64 {
        0
    }
}

/// One session's exportable state at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionImage {
    /// The session's id.
    pub id: GraphId,
    /// The spec the session was built from. Note the text format renders
    /// only mode + engine; a non-default `EngineConfig` is restored from
    /// the recovering service's defaults, not from the journal.
    pub spec: SessionSpec,
    /// The session's consistent snapshot at image time.
    pub snapshot: Snapshot,
    /// Commands that recreate the session in an empty service: one
    /// `CreateGraph` carrying the spec, then batched re-inserts of the
    /// current edge set (relation by relation for layered sessions).
    /// Replaying them yields the snapshot's `count` and `total_edges`;
    /// pair with `restore_epoch` for the `epoch`.
    pub state: Vec<Request>,
}

/// A consistent point-in-time image of a whole service, session by session
/// (ascending id order).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointImage {
    /// One image per live session, ascending by id.
    pub sessions: Vec<SessionImage>,
}
