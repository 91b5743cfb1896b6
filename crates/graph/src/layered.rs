//! 4-layered dynamic graphs (§2.1 of the paper).
//!
//! A 4-layered graph has vertex layers `L1, L2, L3, L4` and four edge
//! relations between consecutive layers:
//!
//! ```text
//!   A : L1 – L2      B : L2 – L3      C : L3 – L4      D : L4 – L1
//! ```
//!
//! A *layered 4-cycle* picks one vertex per layer and one edge per relation.
//! §2.2 reduces maintaining the number of layered 4-cycles to answering, for
//! each edge update, the number of layered 3-paths between the update's
//! endpoints through the other three relations; the engines in
//! `fourcycle-core` implement that query. This module provides the graph
//! itself together with brute-force counters used as oracles.

use crate::adjacency::BipartiteAdjacency;
use crate::update::{LayeredUpdate, UpdateOp};
use crate::VertexId;

/// One of the four relation matrices of a layered graph.
///
/// `Rel::A` connects `L1–L2`, `Rel::B` connects `L2–L3`, `Rel::C` connects
/// `L3–L4` and `Rel::D` connects `L4–L1`. In the database reading (§1, Fig. 1)
/// these are the four binary relations of the cyclic join
/// `A(L1,L2) ⋈ B(L2,L3) ⋈ C(L3,L4) ⋈ D(L4,L1)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rel {
    /// `L1 – L2`.
    A,
    /// `L2 – L3`.
    B,
    /// `L3 – L4`.
    C,
    /// `L4 – L1`.
    D,
}

impl Rel {
    /// All four relations in cyclic order.
    pub const ALL: [Rel; 4] = [Rel::A, Rel::B, Rel::C, Rel::D];

    /// Index 0..=3 of the relation.
    pub fn index(self) -> usize {
        match self {
            Rel::A => 0,
            Rel::B => 1,
            Rel::C => 2,
            Rel::D => 3,
        }
    }

    /// Relation with the given index modulo 4.
    pub fn from_index(i: usize) -> Rel {
        Rel::ALL[i % 4]
    }

    /// The next relation in cyclic order (`D → A`).
    pub fn next(self) -> Rel {
        Rel::from_index(self.index() + 1)
    }
}

/// A fully dynamic 4-layered graph.
///
/// Edges carry no weight here: the graph is simple, and an edge either exists
/// or does not. Signed/phase-tagged views are built on top of this type by
/// the engines.
#[derive(Debug, Clone, Default)]
pub struct LayeredGraph {
    rels: [BipartiteAdjacency; 4],
}

impl LayeredGraph {
    /// Creates an empty layered graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// The adjacency of one relation.
    pub fn rel(&self, rel: Rel) -> &BipartiteAdjacency {
        &self.rels[rel.index()]
    }

    /// Whether the edge `(left, right)` of `rel` currently exists.
    pub fn has_edge(&self, rel: Rel, left: VertexId, right: VertexId) -> bool {
        self.rel(rel).contains(left, right)
    }

    /// Number of edges in one relation.
    pub fn edge_count(&self, rel: Rel) -> usize {
        self.rel(rel).len()
    }

    /// Total number of edges over all four relations (the paper's `m`).
    pub fn total_edges(&self) -> usize {
        Rel::ALL.iter().map(|&r| self.edge_count(r)).sum()
    }

    /// Inserts an edge. Returns `false` (and changes nothing) if it already
    /// exists.
    pub fn insert(&mut self, rel: Rel, left: VertexId, right: VertexId) -> bool {
        if self.has_edge(rel, left, right) {
            return false;
        }
        self.rels[rel.index()].add(left, right, 1);
        true
    }

    /// Deletes an edge. Returns `false` (and changes nothing) if it does not
    /// exist.
    pub fn delete(&mut self, rel: Rel, left: VertexId, right: VertexId) -> bool {
        if !self.has_edge(rel, left, right) {
            return false;
        }
        self.rels[rel.index()].add(left, right, -1);
        true
    }

    /// Applies an update; returns `true` if the graph changed.
    pub fn apply(&mut self, update: &LayeredUpdate) -> bool {
        match update.op {
            UpdateOp::Insert => self.insert(update.rel, update.left, update.right),
            UpdateOp::Delete => self.delete(update.rel, update.left, update.right),
        }
    }

    /// Degree of a vertex of `L1` in `A` (its class-defining degree, §4).
    pub fn degree_l1(&self, v: VertexId) -> usize {
        self.rel(Rel::A).degree_left(v)
    }

    /// Degree of a vertex of `L4` in `C` (its class-defining degree, §4).
    pub fn degree_l4(&self, v: VertexId) -> usize {
        self.rel(Rel::C).degree_right(v)
    }

    /// Combined degree of a vertex of `L2` in `A` and `B` (§4).
    pub fn degree_l2(&self, v: VertexId) -> usize {
        self.rel(Rel::A).degree_right(v) + self.rel(Rel::B).degree_left(v)
    }

    /// Combined degree of a vertex of `L3` in `B` and `C` (§4).
    pub fn degree_l3(&self, v: VertexId) -> usize {
        self.rel(Rel::B).degree_right(v) + self.rel(Rel::C).degree_left(v)
    }

    /// Brute-force count of layered 4-cycles (one vertex per layer, one edge
    /// per relation). Test oracle; cost is the number of layered 3-paths.
    pub fn count_layered_4cycles_brute_force(&self) -> i64 {
        let a = self.rel(Rel::A);
        let b = self.rel(Rel::B);
        let c = self.rel(Rel::C);
        let d = self.rel(Rel::D);
        let mut total = 0i64;
        for (v1, v2, _) in a.iter() {
            for (v3, _) in b.neighbors_of_left(v2) {
                for (v4, _) in c.neighbors_of_left(v3) {
                    if d.contains(v4, v1) {
                        total += 1;
                    }
                }
            }
        }
        total
    }

    /// Brute-force count of layered 3-paths `u –A– x –B– y –C– v` with
    /// `u ∈ L1`, `v ∈ L4`. Test oracle for the engines' query.
    pub fn count_3paths_brute_force(&self, u: VertexId, v: VertexId) -> i64 {
        let a = self.rel(Rel::A);
        let b = self.rel(Rel::B);
        let c = self.rel(Rel::C);
        let mut total = 0i64;
        for (x, _) in a.neighbors_of_left(u) {
            for (y, _) in b.neighbors_of_left(x) {
                if c.contains(y, v) {
                    total += 1;
                }
            }
        }
        total
    }

    /// Brute-force count of layered 2-paths `u –A– x –B– y` between `u ∈ L1`
    /// and `y ∈ L3` (the "wedges" of §2.1 / Fig. 1).
    pub fn count_wedges_ab_brute_force(&self, u: VertexId, y: VertexId) -> i64 {
        let a = self.rel(Rel::A);
        let b = self.rel(Rel::B);
        let paths = a
            .neighbors_of_left(u)
            .filter(|&(x, _)| b.contains(x, y))
            .count();
        i64::try_from(paths).unwrap_or(i64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_cycle() -> LayeredGraph {
        // One layered 4-cycle: 1 ∈ L1, 2 ∈ L2, 3 ∈ L3, 4 ∈ L4.
        let mut g = LayeredGraph::new();
        assert!(g.insert(Rel::A, 1, 2));
        assert!(g.insert(Rel::B, 2, 3));
        assert!(g.insert(Rel::C, 3, 4));
        assert!(g.insert(Rel::D, 4, 1));
        g
    }

    #[test]
    fn rel_layer_geometry() {
        assert_eq!(Rel::A.next(), Rel::B);
        assert_eq!(Rel::D.next(), Rel::A);
        assert_eq!(Rel::from_index(5), Rel::B);
        for rel in Rel::ALL {
            assert_eq!(Rel::from_index(rel.index()), rel);
        }
    }

    #[test]
    fn single_cycle_is_counted() {
        let g = square_cycle();
        assert_eq!(g.count_layered_4cycles_brute_force(), 1);
        assert_eq!(g.count_3paths_brute_force(1, 4), 1);
        assert_eq!(g.total_edges(), 4);
    }

    #[test]
    fn insert_is_idempotent_and_delete_reverses() {
        let mut g = square_cycle();
        assert!(!g.insert(Rel::A, 1, 2));
        assert_eq!(g.total_edges(), 4);
        assert!(g.delete(Rel::B, 2, 3));
        assert!(!g.delete(Rel::B, 2, 3));
        assert_eq!(g.count_layered_4cycles_brute_force(), 0);
    }

    #[test]
    fn degrees_and_combined_degrees() {
        let mut g = square_cycle();
        g.insert(Rel::A, 1, 20);
        g.insert(Rel::B, 20, 3);
        assert_eq!(g.degree_l1(1), 2);
        assert_eq!(g.degree_l2(2), 2); // one A edge + one B edge
        assert_eq!(g.degree_l2(20), 2);
        assert_eq!(g.degree_l3(3), 3); // two B edges + one C edge
        assert_eq!(g.degree_l4(4), 1);
    }

    #[test]
    fn two_parallel_wedges_make_two_cycles() {
        // u ∈ L1 and v ∈ L4 joined by two A–B wedges and one C edge each:
        // cycles are (1,2,3,4) and (1,5,6,4).
        let mut g = LayeredGraph::new();
        g.insert(Rel::A, 1, 2);
        g.insert(Rel::B, 2, 3);
        g.insert(Rel::C, 3, 4);
        g.insert(Rel::A, 1, 5);
        g.insert(Rel::B, 5, 6);
        g.insert(Rel::C, 6, 4);
        g.insert(Rel::D, 4, 1);
        assert_eq!(g.count_3paths_brute_force(1, 4), 2);
        assert_eq!(g.count_layered_4cycles_brute_force(), 2);
        assert_eq!(g.count_wedges_ab_brute_force(1, 3), 1);
        assert_eq!(g.count_wedges_ab_brute_force(1, 6), 1);
    }
}
