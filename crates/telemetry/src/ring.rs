//! Bounded structured event ring.
//!
//! Shard workers, the journal, the chaos layer, and the server connection
//! loop all emit small fixed-size [`Event`] records into one shared ring.
//! Two properties matter on the hot path:
//!
//! - **Emitting never blocks.** The buffer is guarded by a mutex, but
//!   writers only ever `try_lock` it: if a drainer (or another writer)
//!   holds the lock, the event is counted as dropped and the worker moves
//!   on. A shard worker can never stall behind an observer.
//! - **The ring is bounded.** When full, the oldest event is overwritten;
//!   memory use is fixed at construction.
//!
//! Sequence numbers come from a dedicated atomic, so gaps in drained
//! output reveal both overwrites and contention drops. Timestamps are
//! nanoseconds of monotonic time since the ring was created — comparable
//! within one process, deliberately not wall-clock.

use crate::clamped_nanos;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `shard` value for events that are not tied to any shard (connection
/// lifecycle on the server's accept loop).
pub const NO_SHARD: u32 = u32::MAX;

/// Payload codes for [`EventKind::RecoveryPhase`] events (the `a` field).
/// `b` carries the number of WAL commands replayed in that phase (for
/// [`TORN_TAIL_TRUNCATED`](recovery_phase::TORN_TAIL_TRUNCATED): the
/// truncated byte count).
pub mod recovery_phase {
    /// A checkpoint image was loaded and the WAL tail replayed on top.
    pub const CHECKPOINT_TAIL: u64 = 0;
    /// No usable checkpoint: the full WAL was replayed from scratch.
    pub const FULL_REPLAY: u64 = 1;
    /// The WAL was behind its checkpoint (a WAL tail lost before an fsync
    /// under `OnShutdown`, then an OS crash; checkpointing never truncates
    /// the WAL); the checkpoint alone is authoritative.
    pub const WAL_BEHIND_CHECKPOINT: u64 = 2;
    /// A torn final WAL line was truncated away before resuming appends.
    pub const TORN_TAIL_TRUNCATED: u64 = 3;
}

/// Payload codes for [`EventKind::ChaosFault`] events (the `a` field):
/// which journal operation the injected fault fired on. `b` is 1 for a
/// torn (partial) write, 0 for a clean error.
pub mod chaos_op {
    /// Fault fired on a WAL append.
    pub const APPEND: u64 = 0;
    /// Fault fired on an fsync point (sync or group commit).
    pub const FSYNC: u64 = 1;
    /// Fault fired on a checkpoint write.
    pub const CHECKPOINT: u64 = 2;
}

/// What happened. Payload field meaning (`a`, `b`) is per-kind and
/// documented on each variant; all payloads are plain integers so events
/// render into the all-integer JSON dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A request's end-to-end latency exceeded the configured threshold.
    /// `a` = total nanoseconds, `b` = threshold nanoseconds.
    SlowRequest,
    /// A journal group commit fsynced. `a` = appends covered by the fsync,
    /// `b` = fsync duration in nanoseconds.
    GroupCommit,
    /// A checkpoint image was written. `a` = sessions imaged, `b` = write
    /// duration in nanoseconds.
    CheckpointWrite,
    /// A recovery phase ran while opening a shard. `a` = phase code (see
    /// [`recovery_phase`]), `b` = WAL commands replayed.
    RecoveryPhase,
    /// An injected chaos fault fired. `a` = operation code (see
    /// [`chaos_op`]), `b` = 1 if the fault was a torn write, else 0.
    ChaosFault,
    /// A server connection was accepted. `a` = connection id.
    ConnOpen,
    /// A server connection finished. `a` = connection id.
    ConnClose,
}

impl EventKind {
    /// All kinds, in declaration order — for exhaustive rendering/tests.
    pub const ALL: [EventKind; 7] = [
        EventKind::SlowRequest,
        EventKind::GroupCommit,
        EventKind::CheckpointWrite,
        EventKind::RecoveryPhase,
        EventKind::ChaosFault,
        EventKind::ConnOpen,
        EventKind::ConnClose,
    ];

    /// Stable snake_case name used in JSON rendering.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SlowRequest => "slow_request",
            EventKind::GroupCommit => "group_commit",
            EventKind::CheckpointWrite => "checkpoint_write",
            EventKind::RecoveryPhase => "recovery_phase",
            EventKind::ChaosFault => "chaos_fault",
            EventKind::ConnOpen => "conn_open",
            EventKind::ConnClose => "conn_close",
        }
    }
}

/// One ring entry: fixed-size, all-integer, self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (1-based, gap-free at emission; gaps in a
    /// drain mean overwritten or dropped events).
    pub seq: u64,
    /// Monotonic nanoseconds since the ring was created.
    pub at_nanos: u64,
    /// Originating shard, or [`NO_SHARD`].
    pub shard: u32,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (per-kind meaning, see [`EventKind`]).
    pub a: u64,
    /// Second payload word (per-kind meaning, see [`EventKind`]).
    pub b: u64,
}

struct RingInner {
    capacity: usize,
    started: Instant,
    seq: AtomicU64,
    dropped: AtomicU64,
    buf: Mutex<VecDeque<Event>>,
}

/// Shared handle to the bounded event ring. Cloning shares the same
/// buffer; equality is identity (two handles are equal iff they are the
/// same ring), matching the `FaultPlan` convention so configs carrying a
/// ring stay `PartialEq`.
#[derive(Clone)]
pub struct EventRing {
    inner: Arc<RingInner>,
}

impl PartialEq for EventRing {
    /// Identity comparison: a config carries *this* ring, not an equal one.
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::fmt::Debug for EventRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventRing")
            .field("capacity", &self.inner.capacity)
            .field("emitted", &self.emitted())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            inner: Arc::new(RingInner {
                capacity,
                started: Instant::now(),
                seq: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                buf: Mutex::new(VecDeque::with_capacity(capacity)),
            }),
        }
    }

    /// Emits an event. Never blocks: if the buffer lock is contended the
    /// event is dropped (and counted); if the ring is full the oldest
    /// event is overwritten. Always assigns a sequence number.
    #[deny(clippy::disallowed_methods)]
    pub fn emit(&self, shard: u32, kind: EventKind, a: u64, b: u64) {
        let next_seq = || self.inner.seq.fetch_add(1, Ordering::Relaxed) + 1;
        match self.inner.buf.try_lock() {
            Ok(mut buf) => {
                // Sequence number and stamp are drawn under the lock, so
                // the buffer holds events in sequence order and a full
                // ring's `pop_front` drops the oldest.
                let event = Event {
                    seq: next_seq(),
                    at_nanos: clamped_nanos(self.inner.started.elapsed()),
                    shard,
                    kind,
                    a,
                    b,
                };
                if buf.len() == self.inner.capacity {
                    buf.pop_front();
                }
                buf.push_back(event);
            }
            Err(_) => {
                // A dropped event still consumes its sequence number: it
                // counts in `emitted()` and shows as a gap in a drain.
                next_seq();
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Removes and returns all buffered events, oldest first. Blocks only
    /// the drainer (writers that race a drain drop their event rather than
    /// wait), so live traffic keeps flowing while an observer drains.
    pub fn drain(&self) -> Vec<Event> {
        match self.inner.buf.lock() {
            Ok(mut buf) => buf.drain(..).collect(),
            Err(poisoned) => poisoned.into_inner().drain(..).collect(),
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        match self.inner.buf.lock() {
            Ok(buf) => buf.len(),
            Err(poisoned) => poisoned.into_inner().len(),
        }
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of buffered events.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Total events ever emitted (including overwritten and dropped ones).
    pub fn emitted(&self) -> u64 {
        self.inner.seq.load(Ordering::Relaxed)
    }

    /// Events dropped because a writer found the buffer lock contended.
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sequence numbers are 1-based and strictly increasing; payloads and
    /// kinds round-trip through the buffer.
    #[test]
    fn events_carry_seq_kind_and_payload() {
        let ring = EventRing::new(8);
        ring.emit(0, EventKind::GroupCommit, 5, 123);
        ring.emit(1, EventKind::SlowRequest, 1_000, 500);
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(
            (
                events[0].seq,
                events[0].shard,
                events[0].kind,
                events[0].a,
                events[0].b
            ),
            (1, 0, EventKind::GroupCommit, 5, 123)
        );
        assert_eq!(events[1].seq, 2);
        assert!(events[1].at_nanos >= events[0].at_nanos, "monotonic stamps");
        assert!(ring.is_empty(), "drain empties the ring");
        assert_eq!(ring.emitted(), 2);
        assert_eq!(ring.dropped(), 0);
    }

    /// A full ring overwrites its oldest entries: the last `capacity`
    /// events survive, with their original sequence numbers.
    #[test]
    fn full_ring_overwrites_oldest() {
        let ring = EventRing::new(4);
        for i in 0..10u64 {
            ring.emit(0, EventKind::ConnOpen, i, 0);
        }
        let events = ring.drain();
        assert_eq!(events.len(), 4);
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9, 10]);
        assert_eq!(ring.emitted(), 10);
    }

    /// Concurrent emitters and a drainer make progress together; every
    /// emission is accounted for as drained, still-buffered, overwritten,
    /// or dropped — and nothing deadlocks. The scenario repeats because a
    /// writer that is overtaken between drawing its sequence number and
    /// pushing its event shows only in a few runs of it.
    #[test]
    fn concurrent_emit_and_drain_never_block_writers() {
        for round in 0..100 {
            let ring = EventRing::new(64);
            let writers = 4;
            let per_writer = 2_000u64;
            let mut drained = Vec::new();
            std::thread::scope(|scope| {
                for w in 0..writers {
                    let ring = &ring;
                    scope.spawn(move || {
                        for i in 0..per_writer {
                            ring.emit(w, EventKind::SlowRequest, i, 0);
                        }
                    });
                }
                for _ in 0..200 {
                    drained.extend(ring.drain());
                    std::thread::yield_now();
                }
            });
            drained.extend(ring.drain());
            let total = writers as u64 * per_writer;
            assert_eq!(ring.emitted(), total);
            assert!(drained.len() as u64 <= total);
            // Drains return events in emission order, sequence numbers and
            // stamps alike, even with overwrites in between.
            for pair in drained.windows(2) {
                assert!(pair[0].seq < pair[1].seq, "round {round}: {pair:?}");
                assert!(
                    pair[0].at_nanos <= pair[1].at_nanos,
                    "round {round}: {pair:?}"
                );
            }
        }
    }

    /// Handles compare by identity, not by content.
    #[test]
    fn equality_is_identity() {
        let a = EventRing::new(4);
        let b = EventRing::new(4);
        let a2 = a.clone();
        assert_eq!(a, a2);
        assert_ne!(a, b);
    }

    /// Every kind has a distinct stable name.
    #[test]
    fn kind_names_are_distinct() {
        let names: std::collections::BTreeSet<_> =
            EventKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), EventKind::ALL.len());
    }
}
