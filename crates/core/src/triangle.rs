//! A fully dynamic triangle counter.
//!
//! The paper's narrative leans on the triangle problem as the known
//! reference point: triangles can be maintained in `O(m^{1/2})` worst-case
//! time (Kara et al., TODS 2020) and that bound is OMv-tight, while 4-cycles
//! sat at `O(m^{2/3})` before this work. This module provides the standard
//! exact dynamic triangle counter used by the comparison experiments and the
//! IVM examples: on an update `{u, v}` the number of triangles through the
//! edge equals `|N(u) ∩ N(v)|`, computed by scanning the smaller
//! neighborhood. (This is the `O(h)`-style counter of Eppstein–Spiro; it
//! matches the `O(√m)` bound on graphs with bounded h-index and is exact on
//! all graphs.)

use fourcycle_graph::{GeneralGraph, GraphUpdate, UpdateOp, VertexId};

/// Exact fully dynamic triangle counter.
#[derive(Debug, Default)]
pub struct TriangleCounter {
    graph: GeneralGraph,
    count: i64,
    work: u64,
}

impl TriangleCounter {
    /// Creates a counter over an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current number of triangles.
    pub fn count(&self) -> i64 {
        self.count
    }

    /// The maintained graph, the counter's only structure.
    pub fn graph(&self) -> &GeneralGraph {
        &self.graph
    }

    /// Total elementary operations performed.
    pub fn work(&self) -> u64 {
        self.work
    }

    fn common_neighbors(&mut self, u: VertexId, v: VertexId) -> i64 {
        let (small, big) = if self.graph.degree(u) <= self.graph.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let mut common = 0i64;
        for w in self.graph.neighbors(small).collect::<Vec<_>>() {
            self.work += 1;
            if self.graph.has_edge(w, big) {
                common += 1;
            }
        }
        common
    }

    /// Inserts `{u, v}`; returns the new triangle count, or `None` if the
    /// edge already exists or is a self-loop.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> Option<i64> {
        if u == v || self.graph.has_edge(u, v) {
            return None;
        }
        self.count += self.common_neighbors(u, v);
        self.graph.insert(u, v);
        Some(self.count)
    }

    /// Deletes `{u, v}`; returns the new triangle count, or `None` if the
    /// edge is absent.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> Option<i64> {
        if !self.graph.has_edge(u, v) {
            return None;
        }
        self.graph.delete(u, v);
        self.count -= self.common_neighbors(u, v);
        Some(self.count)
    }

    /// Applies a general-graph update.
    pub fn apply(&mut self, update: GraphUpdate) -> Option<i64> {
        match update.op {
            UpdateOp::Insert => self.insert(update.u, update.v),
            UpdateOp::Delete => self.delete(update.u, update.v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_triangles_in_k5_and_under_deletions() {
        let mut counter = TriangleCounter::new();
        for u in 1..=5u32 {
            for v in (u + 1)..=5 {
                counter.insert(u, v);
                assert_eq!(
                    counter.count(),
                    counter.graph().count_triangles_brute_force()
                );
            }
        }
        assert_eq!(counter.count(), 10); // C(5,3)
        counter.delete(1, 2);
        counter.delete(3, 4);
        assert_eq!(
            counter.count(),
            counter.graph().count_triangles_brute_force()
        );
        assert!(counter.insert(1, 3).is_none());
        assert!(counter.delete(1, 2).is_none());
        assert!(counter.work() > 0);
    }
}
