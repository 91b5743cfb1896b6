//! Deterministic fault injection for the journal path.
//!
//! The durability tier documents exact failure semantics —
//! `ServiceError::Journal` means *applied but possibly not durable*,
//! `ServiceError::JournalCheckpoint` means *history safe, checkpoint
//! stale*, group-commit poisoning fails exactly the un-fsynced group —
//! but real disks produce those failures rarely and unreproducibly. This
//! module makes them reproducible: a seeded [`FaultPlan`] arms one-shot
//! or probabilistic faults against the three operation classes the
//! journal performs (append, fsync point, checkpoint write), and
//! [`ChaosJournal`] wraps a live [`ShardJournal`] to fire them.
//!
//! The seam is a **wrapper type**, not a trait object threaded through
//! the production journal: `ShardJournal`'s append/flush/fsync code is
//! byte-identical whether or not this module is in use, and a store
//! opened without [`JournalConfig::chaos`](crate::JournalConfig::chaos)
//! attaches the plain journal with zero extra indirection (see
//! ADR-007). The wrapper honors the same fail-stop contract as the real
//! journal: after the first injected (or real) append/fsync failure,
//! every later operation returns the original [`io::ErrorKind`], so the
//! on-disk WAL stays a clean prefix of history exactly as it would after
//! a genuine device error.
//!
//! Faults are injected at the sink's *driver-visible* operations:
//!
//! * **append** ([`JournalSink::record`]) — clean failure (nothing
//!   written) or a *genuinely torn* append: a prefix of the rendered
//!   command line is pushed to the WAL through a side handle and
//!   fsynced, with no trailing newline, exactly the on-disk state an
//!   interrupted `write(2)` leaves behind;
//! * **fsync point** ([`JournalSink::commit_group`] /
//!   [`JournalSink::sync`]) — the group-commit drain or shutdown fsync
//!   fails after its appends already reached the OS;
//! * **checkpoint** ([`JournalSink::write_checkpoint`]) — the atomic
//!   checkpoint write fails *after* the WAL fsync it is preceded by
//!   (modeling disk-full in the temp-file/rename step), leaving the WAL
//!   authoritative and the journal unpoisoned, exactly like the real
//!   `write_atomic` failure path.
//!
//! The plan's shared [`ChaosStats`] additionally tracks, per shard, the
//! WAL byte length at the last *successful* fsync — the durable prefix
//! an OS crash would keep — so harnesses can truncate to it and assert
//! recovery lands on exactly the acknowledged commands.

use crate::ShardJournal;
use fourcycle_service::{render_request, CheckpointImage, JournalSink, Request};
use fourcycle_telemetry::ring::{chaos_op, EventKind, EventRing};
use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Which journal operation class a fault is armed against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// [`JournalSink::record`] — one counted occurrence per command.
    Append,
    /// A driver fsync point: [`JournalSink::commit_group`] or
    /// [`JournalSink::sync`]. Counted per invocation (including
    /// empty-group commits), so arming "the Nth fsync point" is
    /// deterministic under a dispatcher that commits every group.
    Fsync,
    /// [`JournalSink::write_checkpoint`] — one occurrence per attempt.
    Checkpoint,
}

impl FaultOp {
    /// The telemetry payload code for this operation class — the `a`
    /// field of a [`EventKind::ChaosFault`] ring event (see
    /// [`fourcycle_telemetry::ring::chaos_op`]).
    pub fn code(self) -> u64 {
        match self {
            FaultOp::Append => chaos_op::APPEND,
            FaultOp::Fsync => chaos_op::FSYNC,
            FaultOp::Checkpoint => chaos_op::CHECKPOINT,
        }
    }
}

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Fail cleanly with this kind; nothing reaches the file.
    Error(io::ErrorKind),
    /// Append faults only: write `keep` bytes of the rendered line (no
    /// newline) durably to the WAL, then fail with this kind.
    Torn { kind: io::ErrorKind, keep: usize },
}

/// When an armed fault fires.
#[derive(Debug, Clone, Copy)]
enum Trigger {
    /// On the `n`th occurrence (1-based) of the operation, once.
    Nth(u64),
    /// On every occurrence from arming onward.
    Every,
    /// Independently per occurrence with probability `p`, repeatedly,
    /// driven by the plan's seeded generator.
    Probability(f64),
}

#[derive(Debug)]
struct ArmedFault {
    op: FaultOp,
    trigger: Trigger,
    fault: Fault,
    fired: bool,
}

/// Cumulative observations of a [`FaultPlan`], shared by every clone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// [`JournalSink::record`] calls that consulted the plan.
    pub appends: u64,
    /// Fsync points (`commit_group` / `sync` invocations) consulted.
    pub fsync_points: u64,
    /// Checkpoint attempts consulted.
    pub checkpoints: u64,
    /// Faults that actually fired.
    pub faults_fired: u64,
    /// Per shard: WAL byte length at the last successful fsync — the
    /// prefix an OS crash would preserve.
    pub durable_bytes: BTreeMap<usize, u64>,
}

#[derive(Debug)]
struct PlanState {
    rng: u64,
    only_shard: Option<usize>,
    armed: Vec<ArmedFault>,
    stats: ChaosStats,
}

impl PlanState {
    /// SplitMix64 step — the workspace's standard seeded generator.
    #[expect(
        clippy::as_conversions,
        reason = "u53 -> f64 mantissa mapping is exact"
    )]
    fn next_unit(&mut self) -> f64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn decide(&mut self, op: FaultOp, count: u64) -> Option<Fault> {
        for i in 0..self.armed.len() {
            if self.armed[i].op != op || self.armed[i].fired {
                continue;
            }
            let fires = match self.armed[i].trigger {
                Trigger::Nth(n) => count == n,
                Trigger::Every => true,
                Trigger::Probability(p) => self.next_unit() < p,
            };
            if fires {
                if matches!(self.armed[i].trigger, Trigger::Nth(_)) {
                    self.armed[i].fired = true;
                }
                self.stats.faults_fired += 1;
                return Some(self.armed[i].fault);
            }
        }
        None
    }
}

/// A seeded, cloneable schedule of journal faults.
///
/// Clones share state: a one-shot fault armed on "the 3rd append" fires
/// exactly once across every shard journal the plan is attached to, and
/// [`stats`](FaultPlan::stats) aggregates over all of them. Operation
/// counts are global per plan (not per shard); use
/// [`only_shard`](FaultPlan::only_shard) to scope a plan to one shard.
///
/// Attach a plan with [`JournalConfig::chaos`](crate::JournalConfig::chaos);
/// [`JournalStore::open_shard`](crate::JournalStore::open_shard) then wraps
/// each shard's journal in a [`ChaosJournal`]. Without a plan the store
/// attaches the plain [`ShardJournal`] — the production path carries no
/// fault-injection code.
#[derive(Clone)]
pub struct FaultPlan {
    shared: Arc<Mutex<PlanState>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.shared.lock() {
            Ok(state) => f
                .debug_struct("FaultPlan")
                .field("armed", &state.armed.len())
                .field("stats", &state.stats)
                .finish(),
            Err(_) => f.write_str("FaultPlan(poisoned mutex)"),
        }
    }
}

/// Identity comparison: a config carries *this* plan, not an equal one.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}

impl FaultPlan {
    /// An empty plan (no faults armed) with a seeded generator for any
    /// probabilistic faults armed later.
    pub fn new(seed: u64) -> Self {
        Self {
            shared: Arc::new(Mutex::new(PlanState {
                rng: seed,
                only_shard: None,
                armed: Vec::new(),
                stats: ChaosStats::default(),
            })),
        }
    }

    /// Restricts the plan to one shard; operations on other shards pass
    /// through without counting or firing.
    pub fn only_shard(self, shard: usize) -> Self {
        self.shared
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .only_shard = Some(shard);
        self
    }

    fn arm(self, op: FaultOp, trigger: Trigger, fault: Fault) -> Self {
        self.shared
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .armed
            .push(ArmedFault {
                op,
                trigger,
                fault,
                fired: false,
            });
        self
    }

    /// One-shot: the `nth` (1-based) append fails cleanly with `kind` —
    /// nothing reaches the WAL, the journal fail-stops.
    pub fn fail_append_at(self, nth: u64, kind: io::ErrorKind) -> Self {
        self.arm(FaultOp::Append, Trigger::Nth(nth), Fault::Error(kind))
    }

    /// One-shot: the `nth` append writes only `keep_bytes` of its
    /// rendered line — durably, with no newline — then fails with `kind`
    /// (use [`io::ErrorKind::Interrupted`] or
    /// [`io::ErrorKind::WriteZero`] for realism). The WAL is left with a
    /// genuinely torn final line for recovery to discard.
    pub fn torn_append_at(self, nth: u64, kind: io::ErrorKind, keep_bytes: usize) -> Self {
        self.arm(
            FaultOp::Append,
            Trigger::Nth(nth),
            Fault::Torn {
                kind,
                keep: keep_bytes,
            },
        )
    }

    /// Probabilistic: each append independently fails with probability
    /// `p`, decided by the plan's seeded generator (reproducible).
    pub fn fail_append_with_probability(self, p: f64, kind: io::ErrorKind) -> Self {
        self.arm(
            FaultOp::Append,
            Trigger::Probability(p.clamp(0.0, 1.0)),
            Fault::Error(kind),
        )
    }

    /// One-shot: the `nth` (1-based) fsync point (`commit_group` or
    /// `sync`) fails with `kind` before touching the file.
    pub fn fail_fsync_at(self, nth: u64, kind: io::ErrorKind) -> Self {
        self.arm(FaultOp::Fsync, Trigger::Nth(nth), Fault::Error(kind))
    }

    /// One-shot: the `nth` (1-based) checkpoint attempt fails with
    /// `kind` after its WAL fsync (the disk-full-in-`write_atomic`
    /// model); the journal keeps accepting commands.
    pub fn fail_checkpoint_at(self, nth: u64, kind: io::ErrorKind) -> Self {
        self.arm(FaultOp::Checkpoint, Trigger::Nth(nth), Fault::Error(kind))
    }

    /// Every checkpoint attempt fails with `kind` — the WAL stays
    /// authoritative for the whole run and recovery must full-replay.
    pub fn fail_checkpoints(self, kind: io::ErrorKind) -> Self {
        self.arm(FaultOp::Checkpoint, Trigger::Every, Fault::Error(kind))
    }

    /// A snapshot of the shared observation counters.
    pub fn stats(&self) -> ChaosStats {
        self.shared
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats
            .clone()
    }

    /// The durable WAL length (bytes at last successful fsync) recorded
    /// for `shard`, if any fsync succeeded there yet.
    pub fn durable_bytes(&self, shard: usize) -> Option<u64> {
        self.shared
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats
            .durable_bytes
            .get(&shard)
            .copied()
    }

    fn consult(&self, op: FaultOp, shard: usize) -> Option<Fault> {
        let mut state = self.shared.lock().unwrap_or_else(|e| e.into_inner());
        if state.only_shard.is_some_and(|s| s != shard) {
            return None;
        }
        let count = match op {
            FaultOp::Append => {
                state.stats.appends += 1;
                state.stats.appends
            }
            FaultOp::Fsync => {
                state.stats.fsync_points += 1;
                state.stats.fsync_points
            }
            FaultOp::Checkpoint => {
                state.stats.checkpoints += 1;
                state.stats.checkpoints
            }
        };
        state.decide(op, count)
    }

    fn note_durable(&self, shard: usize, bytes: u64) {
        let mut state = self.shared.lock().unwrap_or_else(|e| e.into_inner());
        state.stats.durable_bytes.insert(shard, bytes);
    }
}

/// A [`JournalSink`] that interposes a [`FaultPlan`] between the service
/// and a real [`ShardJournal`].
///
/// Built by [`JournalStore::open_shard`](crate::JournalStore::open_shard)
/// when the config carries a plan. Mirrors the inner journal's fail-stop
/// contract for injected faults: the first injected append/fsync failure
/// poisons the wrapper, and every later operation returns the original
/// error kind without touching the inner journal (whose buffered state
/// can no longer be trusted to match the `committed` count the service
/// believes in). Injected *checkpoint* failures do not poison — exactly
/// like the real `write_atomic` failure path.
pub struct ChaosJournal {
    inner: ShardJournal,
    wal_path: PathBuf,
    shard: usize,
    plan: FaultPlan,
    /// First injected-or-real failure; set once, never cleared.
    poisoned: Option<io::ErrorKind>,
    /// Telemetry ring: every fired fault becomes a
    /// [`EventKind::ChaosFault`] event (shared with the inner journal).
    events: Option<EventRing>,
}

impl ChaosJournal {
    pub(crate) fn new(inner: ShardJournal, wal_path: PathBuf, plan: FaultPlan) -> Self {
        let shard = inner.shard();
        let events = inner.events_ring().cloned();
        Self {
            inner,
            wal_path,
            shard,
            plan,
            poisoned: None,
            events,
        }
    }

    /// Emits a [`EventKind::ChaosFault`] event for a fault that fired.
    fn emit_fault(&self, op: FaultOp, torn: bool) {
        if let Some(ring) = &self.events {
            ring.emit(
                u32::try_from(self.shard).unwrap_or(u32::MAX),
                EventKind::ChaosFault,
                op.code(),
                u64::from(torn),
            );
        }
    }

    fn guard(&self) -> io::Result<()> {
        match self.poisoned {
            Some(kind) => Err(io::Error::new(
                kind,
                "journal fail-stopped after an earlier write failure",
            )),
            None => Ok(()),
        }
    }

    fn poison(&mut self, kind: io::ErrorKind, message: &'static str) -> io::Error {
        self.poisoned = Some(kind);
        io::Error::new(kind, message)
    }

    /// Propagates an inner-journal result, mirroring its poisoning.
    fn mirror<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            self.poisoned = Some(e.kind());
        }
        result
    }

    /// Records the current WAL length as the durable prefix (called
    /// after a successful fsync; every append is flushed, so file length
    /// equals appended length).
    fn note_durable(&self) {
        if let Ok(meta) = fs::metadata(&self.wal_path) {
            self.plan.note_durable(self.shard, meta.len());
        }
    }

    /// Appends `keep` bytes of the rendered line — no newline — through
    /// a side handle and fsyncs, leaving a genuinely torn tail on disk.
    fn tear(&mut self, request: &Request, keep: usize) -> io::Result<()> {
        let line = render_request(request);
        let keep = keep.min(line.len());
        let mut file = OpenOptions::new().append(true).open(&self.wal_path)?;
        file.write_all(&line.as_bytes()[..keep])?;
        file.sync_data()
    }
}

impl JournalSink for ChaosJournal {
    fn record(&mut self, request: &Request) -> io::Result<()> {
        self.guard()?;
        match self.plan.consult(FaultOp::Append, self.shard) {
            None => {
                let fsyncs_before = self.inner.fsyncs();
                let recorded = self.inner.record(request);
                self.mirror(recorded)?;
                // EveryN / safety-valve fsyncs happen inside the inner
                // journal; detect them to keep the durable mark fresh.
                if self.inner.fsyncs() > fsyncs_before {
                    self.note_durable();
                }
                Ok(())
            }
            Some(Fault::Error(kind)) => {
                self.emit_fault(FaultOp::Append, false);
                Err(self.poison(kind, "injected append failure"))
            }
            Some(Fault::Torn { kind, keep }) => {
                self.emit_fault(FaultOp::Append, true);
                if let Err(e) = self.tear(request, keep) {
                    return Err(self.poison(e.kind(), "torn-append injection failed"));
                }
                Err(self.poison(kind, "injected torn append"))
            }
        }
    }

    fn commit_group(&mut self) -> io::Result<u64> {
        self.guard()?;
        if let Some(Fault::Error(kind) | Fault::Torn { kind, .. }) =
            self.plan.consult(FaultOp::Fsync, self.shard)
        {
            self.emit_fault(FaultOp::Fsync, false);
            return Err(self.poison(kind, "injected group-commit fsync failure"));
        }
        let group = self.inner.commit_group();
        let group = self.mirror(group)?;
        self.note_durable();
        Ok(group)
    }

    fn fsyncs(&self) -> u64 {
        self.inner.fsyncs()
    }

    fn checkpoint_due(&self) -> bool {
        self.inner.checkpoint_due()
    }

    fn write_checkpoint(&mut self, image: &CheckpointImage) -> io::Result<()> {
        self.guard()?;
        if let Some(Fault::Error(kind) | Fault::Torn { kind, .. }) =
            self.plan.consult(FaultOp::Checkpoint, self.shard)
        {
            // The real failure site is `write_atomic`, which runs *after*
            // the WAL fsync — perform that fsync so the on-disk state
            // matches the modeled failure, then fail without poisoning:
            // history is safe, only the checkpoint is stale.
            self.emit_fault(FaultOp::Checkpoint, false);
            let synced = self.inner.sync();
            self.mirror(synced)?;
            self.note_durable();
            return Err(io::Error::new(kind, "injected checkpoint write failure"));
        }
        let written = self.inner.write_checkpoint(image);
        self.mirror(written)?;
        self.note_durable();
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.guard()?;
        if let Some(Fault::Error(kind) | Fault::Torn { kind, .. }) =
            self.plan.consult(FaultOp::Fsync, self.shard)
        {
            self.emit_fault(FaultOp::Fsync, false);
            return Err(self.poison(kind, "injected fsync failure"));
        }
        let synced = self.inner.sync();
        self.mirror(synced)?;
        self.note_durable();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_faults_fire_exactly_once_at_the_armed_index() {
        let plan = FaultPlan::new(1).fail_append_at(3, io::ErrorKind::WriteZero);
        let fired: Vec<bool> = (0..6)
            .map(|_| plan.consult(FaultOp::Append, 0).is_some())
            .collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        assert_eq!(plan.stats().faults_fired, 1);
        assert_eq!(plan.stats().appends, 6);
    }

    #[test]
    fn clones_share_state_so_counts_span_shards() {
        let plan = FaultPlan::new(2).fail_fsync_at(2, io::ErrorKind::Other);
        let clone = plan.clone();
        assert!(plan.consult(FaultOp::Fsync, 0).is_none());
        assert!(
            clone.consult(FaultOp::Fsync, 1).is_some(),
            "2nd fsync fires"
        );
        assert_eq!(plan.stats().fsync_points, 2);
        assert_eq!(plan, clone, "clones compare equal (same shared state)");
        assert_ne!(plan, FaultPlan::new(2), "distinct plans never equal");
    }

    #[test]
    fn shard_filter_passes_other_shards_without_counting() {
        let plan = FaultPlan::new(3)
            .only_shard(1)
            .fail_append_at(1, io::ErrorKind::StorageFull);
        assert!(plan.consult(FaultOp::Append, 0).is_none());
        assert_eq!(plan.stats().appends, 0, "filtered shards do not count");
        assert!(plan.consult(FaultOp::Append, 1).is_some());
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed).fail_append_with_probability(0.3, io::ErrorKind::Other);
            (0..64)
                .map(|_| plan.consult(FaultOp::Append, 0).is_some())
                .collect()
        };
        assert_eq!(run(7), run(7), "same seed, same firing pattern");
        assert_ne!(run(7), run(8), "different seeds diverge");
        let fired = run(7).iter().filter(|&&b| b).count();
        assert!(
            (8..=32).contains(&fired),
            "p=0.3 over 64 draws fired {fired} times"
        );
    }

    #[test]
    fn every_trigger_keeps_firing() {
        let plan = FaultPlan::new(4).fail_checkpoints(io::ErrorKind::StorageFull);
        for _ in 0..3 {
            assert!(plan.consult(FaultOp::Checkpoint, 0).is_some());
        }
        assert_eq!(plan.stats().faults_fired, 3);
    }
}
