//! Edge-update and update-stream types.
//!
//! Both the general-graph problem (Theorem 1) and the layered problem
//! (Theorem 2) are *fully dynamic*: the graph starts empty and undergoes an
//! arbitrary interleaving of edge insertions and deletions. These types are
//! the common currency between the workload generators
//! (`fourcycle-workloads`), the counters (`fourcycle-core`) and the
//! service (`fourcycle-service`).

use crate::layered::Rel;
use crate::VertexId;

/// Insertion or deletion of a single edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UpdateOp {
    /// The edge is added to the graph.
    Insert,
    /// The edge is removed from the graph.
    Delete,
}

impl UpdateOp {
    /// `+1` for an insertion, `-1` for a deletion — the sign with which the
    /// update enters every (multi)linear data structure.
    pub fn sign(self) -> i64 {
        match self {
            UpdateOp::Insert => 1,
            UpdateOp::Delete => -1,
        }
    }

    /// The opposite operation.
    pub fn inverse(self) -> UpdateOp {
        match self {
            UpdateOp::Insert => UpdateOp::Delete,
            UpdateOp::Delete => UpdateOp::Insert,
        }
    }
}

/// An update to a general (simple, undirected) graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GraphUpdate {
    /// Insert or delete.
    pub op: UpdateOp,
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
}

impl GraphUpdate {
    /// Convenience constructor for an insertion.
    pub fn insert(u: VertexId, v: VertexId) -> Self {
        Self {
            op: UpdateOp::Insert,
            u,
            v,
        }
    }

    /// Convenience constructor for a deletion.
    pub fn delete(u: VertexId, v: VertexId) -> Self {
        Self {
            op: UpdateOp::Delete,
            u,
            v,
        }
    }

    /// The endpoints in canonical (sorted) order; useful for hashing the
    /// undirected edge.
    pub fn canonical(&self) -> (VertexId, VertexId) {
        if self.u <= self.v {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        }
    }
}

/// An update to one relation of a 4-layered graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayeredUpdate {
    /// Insert or delete.
    pub op: UpdateOp,
    /// Which relation (`A`, `B`, `C` or `D`) is updated.
    pub rel: Rel,
    /// Endpoint in the relation's left layer.
    pub left: VertexId,
    /// Endpoint in the relation's right layer.
    pub right: VertexId,
}

impl LayeredUpdate {
    /// Convenience constructor for an insertion.
    pub fn insert(rel: Rel, left: VertexId, right: VertexId) -> Self {
        Self {
            op: UpdateOp::Insert,
            rel,
            left,
            right,
        }
    }

    /// Convenience constructor for a deletion.
    pub fn delete(rel: Rel, left: VertexId, right: VertexId) -> Self {
        Self {
            op: UpdateOp::Delete,
            rel,
            left,
            right,
        }
    }
}

/// A batch of layered updates — the unit of work of the batch-update
/// pipeline.
///
/// The paper's engines are built around *phases* of `m^{1−δ}` updates
/// (§5.1): most maintenance work is naturally amortized over a window of
/// updates rather than paid per edge. `UpdateBatch` is the API-level
/// counterpart: callers group updates (a workload chunk, one trace file
/// block, one ingestion tick) and hand the whole group to
/// `LayeredCycleCounter::apply_batch`, which routes per-relation
/// sub-batches to the engines' `apply_batch` entry points.
///
/// Batch application is *semantics-preserving*: applying a batch leaves
/// every counter and engine in a state equivalent to applying its updates
/// one at a time, in order. What changes is the cost profile — same-pair
/// updates coalesce, and class-transition / rebuild / rollover bookkeeping
/// is settled once per batch.
///
/// ```
/// use fourcycle_graph::{LayeredUpdate, Rel, UpdateBatch};
///
/// // Batches collect from any iterator of updates and preserve order.
/// let batch: UpdateBatch = vec![
///     LayeredUpdate::insert(Rel::A, 1, 2),
///     LayeredUpdate::delete(Rel::A, 1, 2),
///     LayeredUpdate::insert(Rel::C, 3, 4),
/// ]
/// .into();
/// assert_eq!(batch.len(), 3);
/// assert_eq!(batch.updates()[2].rel, Rel::C);
/// // Same-pair churn inside a batch nets out on the engines' batch path:
/// // the A-edge above costs nothing when the batch is coalesced.
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    updates: Vec<LayeredUpdate>,
}

impl UpdateBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `capacity` updates.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            updates: Vec::with_capacity(capacity),
        }
    }

    /// Appends one update.
    pub fn push(&mut self, update: LayeredUpdate) {
        self.updates.push(update);
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// `true` if the batch holds no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// The updates, in application order.
    pub fn updates(&self) -> &[LayeredUpdate] {
        &self.updates
    }

    /// Iterates over the updates in application order.
    pub fn iter(&self) -> impl Iterator<Item = &LayeredUpdate> {
        self.updates.iter()
    }
}

impl From<Vec<LayeredUpdate>> for UpdateBatch {
    fn from(updates: Vec<LayeredUpdate>) -> Self {
        Self { updates }
    }
}

impl FromIterator<LayeredUpdate> for UpdateBatch {
    fn from_iter<I: IntoIterator<Item = LayeredUpdate>>(iter: I) -> Self {
        Self {
            updates: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a UpdateBatch {
    type Item = &'a LayeredUpdate;
    type IntoIter = std::slice::Iter<'a, LayeredUpdate>;
    fn into_iter(self) -> Self::IntoIter {
        self.updates.iter()
    }
}

/// Coalesces a single-relation update slice into net signed deltas, one
/// entry per distinct pair, in first-occurrence order; pairs whose updates
/// cancel (insert + delete of the same edge within the batch) are dropped.
///
/// This is the shared front-end of every engine's `apply_batch`: because
/// all maintained structures are (multi)linear in the signed edge multiset,
/// applying the net delta of a pair once is equivalent to replaying its
/// updates individually. A slice whose updates all have one sign (a single
/// update, an insert-only load) is returned as is, without hashing: in a
/// well-formed stream a pair's updates alternate, so no two of them share
/// a sign and none can cancel.
pub fn coalesce_updates(
    updates: &[(VertexId, VertexId, UpdateOp)],
) -> Vec<(VertexId, VertexId, i64)> {
    use std::collections::HashMap;
    if let Some(&(_, _, first)) = updates.first() {
        if updates.iter().all(|&(_, _, op)| op == first) {
            return updates
                .iter()
                .map(|&(l, r, op)| (l, r, op.sign()))
                .collect();
        }
    }
    let mut slot: HashMap<(VertexId, VertexId), usize> = HashMap::with_capacity(updates.len());
    let mut out: Vec<(VertexId, VertexId, i64)> = Vec::with_capacity(updates.len());
    for &(l, r, op) in updates {
        match slot.entry((l, r)) {
            std::collections::hash_map::Entry::Occupied(e) => out[*e.get()].2 += op.sign(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(out.len());
                out.push((l, r, op.sign()));
            }
        }
    }
    out.retain(|&(_, _, s)| s != 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_sign_and_inverse() {
        assert_eq!(UpdateOp::Insert.sign(), 1);
        assert_eq!(UpdateOp::Delete.sign(), -1);
        assert_eq!(UpdateOp::Insert.inverse(), UpdateOp::Delete);
        assert_eq!(UpdateOp::Delete.inverse(), UpdateOp::Insert);
    }

    #[test]
    fn canonical_orders_endpoints() {
        assert_eq!(GraphUpdate::insert(5, 2).canonical(), (2, 5));
        assert_eq!(GraphUpdate::delete(2, 5).canonical(), (2, 5));
    }

    #[test]
    fn layered_update_constructors() {
        let up = LayeredUpdate::insert(Rel::B, 1, 2);
        assert_eq!(up.op, UpdateOp::Insert);
        assert_eq!(up.rel, Rel::B);
        let down = LayeredUpdate::delete(Rel::B, 1, 2);
        assert_eq!(down.op, UpdateOp::Delete);
    }

    #[test]
    fn batch_collects_and_iterates_in_order() {
        let mut batch = UpdateBatch::with_capacity(2);
        assert!(batch.is_empty());
        batch.push(LayeredUpdate::insert(Rel::A, 1, 2));
        batch.push(LayeredUpdate::delete(Rel::C, 3, 4));
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.updates()[1].rel, Rel::C);
        let from_vec: UpdateBatch = vec![
            LayeredUpdate::insert(Rel::A, 1, 2),
            LayeredUpdate::delete(Rel::C, 3, 4),
        ]
        .into();
        assert_eq!(batch, from_vec);
        let rels: Vec<Rel> = batch.iter().map(|u| u.rel).collect();
        assert_eq!(rels, vec![Rel::A, Rel::C]);
    }

    #[test]
    fn coalesce_nets_same_pair_deltas() {
        use UpdateOp::{Delete, Insert};
        let updates = [
            (1u32, 2u32, Insert),
            (3, 4, Insert),
            (1, 2, Delete), // cancels the first insert
            (3, 4, Delete),
            (3, 4, Insert), // net +1 for (3, 4)
            (5, 6, Delete), // net -1 (deleting an edge present before the batch)
        ];
        assert_eq!(coalesce_updates(&updates), vec![(3, 4, 1), (5, 6, -1)]);
        assert!(coalesce_updates(&[]).is_empty());
        assert_eq!(coalesce_updates(&[(7, 8, Delete)]), vec![(7, 8, -1)]);
        // One sign throughout: every pair kept, in order.
        let loads = [(1u32, 2u32, Insert), (2, 1, Insert), (9, 9, Insert)];
        assert_eq!(
            coalesce_updates(&loads),
            vec![(1, 2, 1), (2, 1, 1), (9, 9, 1)]
        );
        let drops = [(1u32, 2u32, Delete), (3, 4, Delete)];
        assert_eq!(coalesce_updates(&drops), vec![(1, 2, -1), (3, 4, -1)]);
    }
}
