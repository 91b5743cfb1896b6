//! Incremental view maintenance (IVM) of join-size views.
//!
//! §1–§2 of the paper frame dynamic 4-cycle counting as a database problem:
//! given four binary relations `A(L1,L2)`, `B(L2,L3)`, `C(L3,L4)`, `D(L4,L1)`
//! under tuple insertions and deletions, maintain `|A ⋈ B ⋈ C ⋈ D|`, the
//! number of tuples in the cyclic join. Each tuple is an edge of a 4-layered
//! graph and each join result is a layered 4-cycle (Fig. 1), so the view is
//! exactly the count maintained by
//! [`fourcycle_core::LayeredCycleCounter`].
//!
//! This crate provides that database-facing API:
//!
//! * [`CyclicJoinCountView`] — the 4-relation cyclic join count
//!   (`COUNT(*) FROM A,B,C,D WHERE A.l2=B.l2 AND B.l3=C.l3 AND C.l4=D.l4 AND
//!   D.l1=A.l1`), maintained by any of the workspace engines.
//! * [`BinaryJoinCountView`] — the two-relation warm-up of Fig. 1
//!   (`|A ⋈ B|`, i.e. the number of 2-paths), maintained directly.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::as_conversions,
        reason = "unit tests may unwrap, panic and cast"
    )
)]

use fourcycle_core::{
    BatchError, EngineConfig, EngineKind, LayeredCycleCounter, Snapshot, UpdateError,
};
use fourcycle_graph::{LayeredGraph, LayeredUpdate, Rel, UpdateOp, VertexId};

/// The four relations of the cyclic join, named as in the paper.
pub type Relation = Rel;

/// An attribute value (vertex id in the layered-graph reading).
pub type Value = VertexId;

/// Incrementally maintained count of the cyclic join
/// `A(L1,L2) ⋈ B(L2,L3) ⋈ C(L3,L4) ⋈ D(L4,L1)`.
pub struct CyclicJoinCountView {
    counter: LayeredCycleCounter,
}

impl CyclicJoinCountView {
    /// Creates an empty view maintained by the given engine.
    pub fn new(kind: EngineKind) -> Self {
        Self {
            counter: LayeredCycleCounter::new(kind),
        }
    }

    /// Creates an empty view with a shared engine configuration (the
    /// `FmmConfig`).
    pub fn with_config(kind: EngineKind, config: &EngineConfig) -> Self {
        Self {
            counter: LayeredCycleCounter::with_config(kind, config),
        }
    }

    /// Creates a view maintained by the paper's main algorithm.
    pub fn with_main_algorithm() -> Self {
        Self::new(EngineKind::Fmm)
    }

    /// Current number of tuples in the cyclic join.
    pub fn count(&self) -> i64 {
        self.counter.count()
    }

    /// Total number of tuples across the four relations.
    pub fn total_tuples(&self) -> usize {
        self.counter.total_edges()
    }

    /// Inserts the tuple `(left, right)` into `rel`. Returns the new join
    /// count, or [`UpdateError::DuplicateEdge`] if the tuple already exists
    /// (nothing changes on rejection).
    pub fn try_insert(
        &mut self,
        rel: Relation,
        left: Value,
        right: Value,
    ) -> Result<i64, UpdateError> {
        self.counter.try_apply(LayeredUpdate {
            op: UpdateOp::Insert,
            rel,
            left,
            right,
        })
    }

    /// Deletes the tuple `(left, right)` from `rel`. Returns the new join
    /// count, or [`UpdateError::MissingEdge`] if the tuple does not exist.
    pub fn try_delete(
        &mut self,
        rel: Relation,
        left: Value,
        right: Value,
    ) -> Result<i64, UpdateError> {
        self.counter.try_apply(LayeredUpdate {
            op: UpdateOp::Delete,
            rel,
            left,
            right,
        })
    }

    /// Applies a pre-built layered update; returns the new join count or the
    /// rejection reason with nothing changed.
    pub fn try_apply(&mut self, update: LayeredUpdate) -> Result<i64, UpdateError> {
        self.counter.try_apply(update)
    }

    /// Infallible wrapper over [`try_insert`](Self::try_insert): returns
    /// `None` if the tuple already exists.
    pub fn insert(&mut self, rel: Relation, left: Value, right: Value) -> Option<i64> {
        self.try_insert(rel, left, right).ok()
    }

    /// Infallible wrapper over [`try_delete`](Self::try_delete): returns
    /// `None` if the tuple does not exist.
    pub fn delete(&mut self, rel: Relation, left: Value, right: Value) -> Option<i64> {
        self.try_delete(rel, left, right).ok()
    }

    /// Applies a pre-built layered update (used when replaying workload
    /// traces).
    pub fn apply(&mut self, update: LayeredUpdate) -> Option<i64> {
        self.counter.apply(update)
    }

    /// Applies a whole batch of tuple updates through the engines' batch
    /// entry points, returning the new join count. The result is identical
    /// to applying the updates one at a time (ill-formed updates are
    /// skipped; use [`try_apply_batch`](Self::try_apply_batch) for atomic
    /// all-or-nothing semantics); the batch path coalesces same-tuple churn
    /// and amortizes engine bookkeeping, which is the natural shape for
    /// transactional ingestion (one batch per transaction / micro-batch).
    ///
    /// This is the canonical batch entry point; it takes the update slice
    /// directly, matching `LayeredCycleCounter::apply_batch`. Pass a
    /// [`UpdateBatch`](fourcycle_graph::UpdateBatch) via its `updates()` slice.
    pub fn apply_batch(&mut self, updates: &[LayeredUpdate]) -> i64 {
        self.counter.apply_batch(updates)
    }

    /// Atomic batch application: validates the whole batch first (against
    /// the current relations plus the batch's own earlier updates) and
    /// applies nothing unless every update is valid; the [`BatchError`]
    /// attributes a rejection to the first offending batch index.
    pub fn try_apply_batch(&mut self, updates: &[LayeredUpdate]) -> Result<i64, BatchError> {
        self.counter.try_apply_batch(updates)
    }

    /// Recomputes the join count from scratch (for validation / tests), by
    /// brute force over a layered graph built from [`edges`](Self::edges).
    pub fn recompute_from_scratch(&self) -> i64 {
        let mut graph = LayeredGraph::new();
        for rel in Rel::ALL {
            for (left, right) in self.edges(rel) {
                graph.insert(rel, left, right);
            }
        }
        graph.count_layered_4cycles_brute_force()
    }

    /// Total work performed by the underlying engines.
    pub fn work(&self) -> u64 {
        self.counter.work()
    }

    /// Aggregated slow-path counters (era rebuilds, phase rollovers, class
    /// transitions) of the underlying engines — the view-level mirror of
    /// [`fourcycle_core::LayeredCycleCounter::slow_path_stats`].
    pub fn slow_path_stats(&self) -> fourcycle_core::SlowPathStats {
        self.counter.slow_path_stats()
    }

    /// Number of tuple updates successfully applied so far.
    pub fn epoch(&self) -> u64 {
        self.counter.epoch()
    }

    /// Overwrites the applied-update count (crash-recovery hook; see
    /// [`LayeredCycleCounter::restore_epoch`]).
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.counter.restore_epoch(epoch);
    }

    /// Every tuple currently in `rel`, as `(left, right)`. Checkpoint
    /// images dump the current relation contents through this accessor.
    pub fn edges(&self, rel: Relation) -> Vec<(Value, Value)> {
        self.counter.edges(rel)
    }

    /// A consistent point-in-time view of the join count, tuple total, cost
    /// counters and the epoch they were taken at.
    pub fn snapshot(&self) -> Snapshot {
        self.counter.snapshot()
    }
}

/// Which relation of the binary join a tuple update targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinarySide {
    /// Relation `A(L1, L2)`.
    A,
    /// Relation `B(L2, L3)`.
    B,
}

/// One tuple update of the binary join view. `shared` is the L2 (join
/// attribute) value; `other` the relation's private attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinaryJoinUpdate {
    /// Which relation changes.
    pub side: BinarySide,
    /// Insert or delete.
    pub op: UpdateOp,
    /// The shared (L2) attribute value.
    pub shared: Value,
    /// The private attribute value (L1 for `A`, L3 for `B`).
    pub other: Value,
}

/// Incrementally maintained count of a binary join `A(L1,L2) ⋈ B(L2,L3)`
/// (Fig. 1: the join size equals the number of 2-paths of the layered graph).
///
/// Maintained directly: `|A ⋈ B| = Σ_x deg_A(x) · deg_B(x)` over the shared
/// attribute values `x`, so an update to one relation changes the count by
/// the degree of its shared-attribute value in the other relation. Tuples
/// are stored in the same indexed adjacency rows as the engines (shared
/// attribute interned, flat sorted rows).
#[derive(Debug, Default)]
pub struct BinaryJoinCountView {
    /// Tuples of A keyed by the shared attribute (L2 value).
    a_by_l2: fourcycle_graph::SignedAdjacency,
    /// Tuples of B keyed by the shared attribute (L2 value).
    b_by_l2: fourcycle_graph::SignedAdjacency,
    count: i64,
    /// Elementary operations performed (one per applied tuple update — the
    /// view is maintained in `O(log)` per update with no inner loops).
    work: u64,
    /// Number of successfully applied tuple updates.
    epoch: u64,
}

impl BinaryJoinCountView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current join size.
    pub fn count(&self) -> i64 {
        self.count
    }

    /// Total tuples across both relations.
    pub fn total_tuples(&self) -> usize {
        self.a_by_l2.len() + self.b_by_l2.len()
    }

    /// Elementary operations performed so far.
    pub fn work(&self) -> u64 {
        self.work
    }

    /// Number of tuple updates successfully applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Amortized slow-path counters — always zero: the binary join view is
    /// maintained directly (no eras, phases or degree classes). Exposed for
    /// API parity with every other entry point, so generic harness code can
    /// treat all views uniformly.
    pub fn slow_path_stats(&self) -> fourcycle_core::SlowPathStats {
        fourcycle_core::SlowPathStats::default()
    }

    /// A consistent point-in-time view of the join size, tuple total, cost
    /// counters and the epoch they were taken at.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            count: self.count,
            total_edges: self.total_tuples(),
            work: self.work,
            slow_path: self.slow_path_stats(),
            epoch: self.epoch,
        }
    }

    /// Inserts the tuple `(l1, l2)` into relation `A`; returns the new
    /// count, or [`UpdateError::DuplicateEdge`] if the tuple already exists.
    pub fn try_insert_a(&mut self, l1: Value, l2: Value) -> Result<i64, UpdateError> {
        if self.a_by_l2.contains(l2, l1) {
            return Err(UpdateError::DuplicateEdge);
        }
        self.a_by_l2.add(l2, l1, 1);
        self.count += i64::try_from(self.b_by_l2.degree(l2)).unwrap_or(i64::MAX);
        self.settle();
        Ok(self.count)
    }

    /// Inserts the tuple `(l2, l3)` into relation `B`.
    pub fn try_insert_b(&mut self, l2: Value, l3: Value) -> Result<i64, UpdateError> {
        if self.b_by_l2.contains(l2, l3) {
            return Err(UpdateError::DuplicateEdge);
        }
        self.b_by_l2.add(l2, l3, 1);
        self.count += i64::try_from(self.a_by_l2.degree(l2)).unwrap_or(i64::MAX);
        self.settle();
        Ok(self.count)
    }

    /// Deletes the tuple `(l1, l2)` from relation `A`; returns the new
    /// count, or [`UpdateError::MissingEdge`] if the tuple is absent.
    pub fn try_delete_a(&mut self, l1: Value, l2: Value) -> Result<i64, UpdateError> {
        if !self.a_by_l2.contains(l2, l1) {
            return Err(UpdateError::MissingEdge);
        }
        self.a_by_l2.add(l2, l1, -1);
        self.count -= i64::try_from(self.b_by_l2.degree(l2)).unwrap_or(i64::MAX);
        self.settle();
        Ok(self.count)
    }

    /// Deletes the tuple `(l2, l3)` from relation `B`.
    pub fn try_delete_b(&mut self, l2: Value, l3: Value) -> Result<i64, UpdateError> {
        if !self.b_by_l2.contains(l2, l3) {
            return Err(UpdateError::MissingEdge);
        }
        self.b_by_l2.add(l2, l3, -1);
        self.count -= i64::try_from(self.a_by_l2.degree(l2)).unwrap_or(i64::MAX);
        self.settle();
        Ok(self.count)
    }

    /// Applies one tuple update; returns the new count or the rejection
    /// reason with nothing changed.
    pub fn try_apply(&mut self, update: BinaryJoinUpdate) -> Result<i64, UpdateError> {
        match (update.side, update.op) {
            (BinarySide::A, UpdateOp::Insert) => self.try_insert_a(update.other, update.shared),
            (BinarySide::A, UpdateOp::Delete) => self.try_delete_a(update.other, update.shared),
            (BinarySide::B, UpdateOp::Insert) => self.try_insert_b(update.shared, update.other),
            (BinarySide::B, UpdateOp::Delete) => self.try_delete_b(update.shared, update.other),
        }
    }

    /// Bumps the per-update cost/epoch counters after a successful update.
    fn settle(&mut self) {
        self.work += 1;
        self.epoch += 1;
    }

    /// Infallible wrapper over [`try_insert_a`](Self::try_insert_a).
    pub fn insert_a(&mut self, l1: Value, l2: Value) -> Option<i64> {
        self.try_insert_a(l1, l2).ok()
    }

    /// Infallible wrapper over [`try_insert_b`](Self::try_insert_b).
    pub fn insert_b(&mut self, l2: Value, l3: Value) -> Option<i64> {
        self.try_insert_b(l2, l3).ok()
    }

    /// Infallible wrapper over [`try_delete_a`](Self::try_delete_a).
    pub fn delete_a(&mut self, l1: Value, l2: Value) -> Option<i64> {
        self.try_delete_a(l1, l2).ok()
    }

    /// Infallible wrapper over [`try_delete_b`](Self::try_delete_b).
    pub fn delete_b(&mut self, l2: Value, l3: Value) -> Option<i64> {
        self.try_delete_b(l2, l3).ok()
    }

    /// Applies a batch of tuple updates, returning the final count.
    /// Ill-formed updates (duplicate inserts, deletes of absent tuples) are
    /// skipped; the result equals sequential application. Use
    /// [`try_apply_batch`](Self::try_apply_batch) for atomic all-or-nothing
    /// semantics.
    pub fn apply_batch(&mut self, updates: &[BinaryJoinUpdate]) -> i64 {
        for u in updates {
            let _ = self.try_apply(*u);
        }
        self.count
    }

    /// Atomic batch application: validates the whole batch first (against
    /// the current relations plus the batch's own earlier updates) and
    /// applies nothing unless every update is valid; the [`BatchError`]
    /// attributes a rejection to the first offending batch index.
    pub fn try_apply_batch(&mut self, updates: &[BinaryJoinUpdate]) -> Result<i64, BatchError> {
        fourcycle_core::error::validate_batch(
            updates,
            |u| Ok(((u.side, u.shared, u.other), u.op)),
            |u| match u.side {
                BinarySide::A => self.a_by_l2.contains(u.shared, u.other),
                BinarySide::B => self.b_by_l2.contains(u.shared, u.other),
            },
        )?;
        Ok(self.apply_batch(updates))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_graph::UpdateBatch;

    /// The Fig. 1 example: A = {(1,1),(1,2),(1,3),(2,2),(3,2)},
    /// B = {(1,1),(2,1),(3,1),(3,3)}; |A ⋈ B| = 6.
    #[test]
    fn figure_1_binary_join() {
        let mut view = BinaryJoinCountView::new();
        for (l1, l2) in [(1, 1), (1, 2), (1, 3), (2, 2), (3, 2)] {
            view.insert_a(l1, l2);
        }
        for (l2, l3) in [(1, 1), (2, 1), (3, 1), (3, 3)] {
            view.insert_b(l2, l3);
        }
        assert_eq!(view.count(), 6);
        // Deleting B(3,·) tuples removes the two joins through l2 = 3.
        view.delete_b(3, 3);
        view.delete_b(3, 1);
        assert_eq!(view.count(), 4);
        // Duplicate operations are rejected.
        assert!(view.insert_a(1, 1).is_none());
        assert!(view.delete_b(3, 3).is_none());
    }

    #[test]
    fn cyclic_join_count_matches_recomputation() {
        let mut view = CyclicJoinCountView::new(EngineKind::Simple);
        // Two attribute values per layer, fully connected: every combination
        // is a join result ⇒ 2^4 = 16 tuples in the cyclic join.
        for rel in [Rel::A, Rel::B, Rel::C, Rel::D] {
            for a in 0..2u32 {
                for b in 0..2u32 {
                    view.insert(rel, a, b).expect("fresh tuple");
                }
            }
        }
        assert_eq!(view.count(), 16);
        assert_eq!(view.count(), view.recompute_from_scratch());
        assert_eq!(view.total_tuples(), 16);

        // Removing one D tuple removes the 4 join results through it.
        view.delete(Rel::D, 0, 0).expect("tuple exists");
        assert_eq!(view.count(), 12);
        assert_eq!(view.count(), view.recompute_from_scratch());
        assert!(view.work() > 0);
    }

    #[test]
    fn batched_tuple_ingestion_matches_sequential() {
        let stream: Vec<LayeredUpdate> = (0..40u32)
            .flat_map(|i| {
                [
                    LayeredUpdate::insert(Rel::A, i % 4, i % 5),
                    LayeredUpdate::insert(Rel::B, i % 5, i % 3),
                    LayeredUpdate::insert(Rel::C, i % 3, i % 4),
                    LayeredUpdate::insert(Rel::D, i % 4, i % 4),
                ]
            })
            .collect();
        let mut sequential = CyclicJoinCountView::new(EngineKind::Simple);
        for u in &stream {
            sequential.apply(*u);
        }
        let mut batched = CyclicJoinCountView::with_config(EngineKind::Simple, &Default::default());
        let batch: UpdateBatch = stream.iter().copied().collect();
        let count = batched.apply_batch(batch.updates());
        assert_eq!(count, sequential.count());
        assert_eq!(batched.recompute_from_scratch(), count);
        assert_eq!(batched.epoch(), sequential.epoch());
    }

    #[test]
    fn binary_join_batch_matches_sequential() {
        use UpdateOp::{Delete, Insert};
        let updates = [
            BinaryJoinUpdate {
                side: BinarySide::A,
                op: Insert,
                shared: 1,
                other: 10,
            },
            BinaryJoinUpdate {
                side: BinarySide::B,
                op: Insert,
                shared: 1,
                other: 20,
            },
            BinaryJoinUpdate {
                side: BinarySide::B,
                op: Insert,
                shared: 1,
                other: 21,
            },
            BinaryJoinUpdate {
                side: BinarySide::A,
                op: Insert,
                shared: 1,
                other: 11,
            },
            BinaryJoinUpdate {
                side: BinarySide::B,
                op: Delete,
                shared: 1,
                other: 20,
            },
            // Ill-formed (duplicate insert / absent delete): skipped.
            BinaryJoinUpdate {
                side: BinarySide::A,
                op: Insert,
                shared: 1,
                other: 10,
            },
            BinaryJoinUpdate {
                side: BinarySide::B,
                op: Delete,
                shared: 9,
                other: 9,
            },
        ];
        let mut batched = BinaryJoinCountView::new();
        let count = batched.apply_batch(&updates);
        let mut sequential = BinaryJoinCountView::new();
        sequential.insert_a(10, 1);
        sequential.insert_b(1, 20);
        sequential.insert_b(1, 21);
        sequential.insert_a(11, 1);
        sequential.delete_b(1, 20);
        assert_eq!(count, sequential.count());
        assert_eq!(count, 2);
    }

    #[test]
    fn cyclic_join_with_main_algorithm_engine() {
        let mut view = CyclicJoinCountView::with_main_algorithm();
        for i in 0..6u32 {
            view.insert(Rel::A, i % 3, i);
            view.insert(Rel::B, i, i % 2);
            view.insert(Rel::C, i % 2, i);
            view.insert(Rel::D, i, i % 3);
        }
        assert_eq!(view.count(), view.recompute_from_scratch());
        for i in 0..3u32 {
            view.delete(Rel::B, i, i % 2);
            assert_eq!(view.count(), view.recompute_from_scratch());
        }
    }
}
