//! Enumeration oracle engine.
//!
//! Maintains nothing beyond the three relations and answers a query by
//! enumerating all 2-hop extensions of the query's `L1` endpoint. A query
//! reads every relation from its left end only, so each is kept once, as
//! rows keyed by its left endpoint.
//! This is the ground truth every other engine is differential-tested
//! against; its update cost is `O(1)` and its query cost is the number of
//! `A–B` 2-path instances out of `u`, which can be `Θ(m)`.

use crate::engine::{QRel, ThreePathEngine};
use fourcycle_graph::{coalesce_updates, SignedAdjacency, UpdateOp, VertexId};

/// The enumeration oracle (no data structures, exhaustive queries).
#[derive(Debug, Default)]
pub struct NaiveEngine {
    /// `A`, `B` and `C`, each as rows keyed by its left endpoint.
    rels: [SignedAdjacency; 3],
    work: u64,
}

impl NaiveEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ThreePathEngine for NaiveEngine {
    fn apply_batch(&mut self, rel: QRel, updates: &[(VertexId, VertexId, UpdateOp)]) {
        // The oracle keeps no derived state, so the whole batch reduces to
        // its net per-pair deltas.
        for (l, r, s) in coalesce_updates(updates) {
            self.work += 1;
            self.rels[rel.index()].add(l, r, s);
        }
    }

    fn has_edge(&self, rel: QRel, left: VertexId, right: VertexId) -> bool {
        self.rels[rel.index()].weight(left, right) != 0
    }

    fn edges(&self, rel: QRel) -> Vec<(VertexId, VertexId)> {
        self.rels[rel.index()]
            .iter()
            .map(|(l, r, _)| (l, r))
            .collect()
    }

    fn query(&mut self, u: VertexId, v: VertexId) -> i64 {
        let a = &self.rels[QRel::A.index()];
        let b = &self.rels[QRel::B.index()];
        let c = &self.rels[QRel::C.index()];
        let mut total = 0i64;
        for (x, wa) in a.neighbors(u) {
            for (y, wb) in b.neighbors(x) {
                self.work += 1;
                total += wa * wb * c.weight(y, v);
            }
        }
        total
    }

    fn work(&self) -> u64 {
        self.work
    }

    fn name(&self) -> &'static str {
        "naive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_paths_exactly() {
        let mut e = NaiveEngine::new();
        e.apply_update(QRel::A, 1, 2, UpdateOp::Insert);
        e.apply_update(QRel::B, 2, 3, UpdateOp::Insert);
        e.apply_update(QRel::C, 3, 4, UpdateOp::Insert);
        assert_eq!(e.query(1, 4), 1);
        // A second parallel wedge through different middles.
        e.apply_update(QRel::A, 1, 5, UpdateOp::Insert);
        e.apply_update(QRel::B, 5, 6, UpdateOp::Insert);
        e.apply_update(QRel::C, 6, 4, UpdateOp::Insert);
        assert_eq!(e.query(1, 4), 2);
        // Deleting the middle edge of one path removes exactly one path.
        e.apply_update(QRel::B, 2, 3, UpdateOp::Delete);
        assert_eq!(e.query(1, 4), 1);
        assert_eq!(e.query(1, 999), 0);
        assert!(e.work() > 0);
    }
}
