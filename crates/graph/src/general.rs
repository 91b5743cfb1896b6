//! General (simple, undirected) dynamic graphs and the §8 reduction.
//!
//! Theorem 1 is stated for general graphs; §8 shows the problem is
//! equivalent to the layered problem by placing a copy of the vertex set in
//! each layer and replicating every edge into all four relations. This module
//! provides the general graph itself, brute-force 4-cycle/3-path oracles, and
//! that layered copy ([`GeneralGraph::to_layered`]), which the tests below use
//! to check Claim 8.1. `fourcycle_core::FourCycleCounter` never builds the
//! copy: its four rotations are identical, so it keeps one engine of it.

use crate::adjacency::SignedAdjacency;
use crate::compact::CompactIndex;
use crate::layered::{LayeredGraph, Rel};
use crate::update::{GraphUpdate, UpdateOp};
use crate::VertexId;

/// A fully dynamic simple undirected graph (no self-loops, no multi-edges).
///
/// Backed by the same indexed adjacency rows as the layered structures
/// (each undirected edge is stored in both orientations with weight 1), so
/// neighbor iteration — the inner loop of the brute-force oracles — is a
/// flat scan.
#[derive(Debug, Clone, Default)]
pub struct GeneralGraph {
    adj: SignedAdjacency,
    edges: usize,
}

impl GeneralGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of edges currently present.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj.degree(v)
    }

    /// Whether the edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.adj.contains(u, v)
    }

    /// Iterates over the neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.adj.neighbors(v).map(|(n, _)| n)
    }

    /// Iterates over all edges, each reported once with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.adj
            .iter()
            .filter(|&(u, v, _)| u < v)
            .map(|(u, v, _)| (u, v))
    }

    /// Inserts `{u, v}`. Returns `false` for self-loops or existing edges.
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.adj.add(u, v, 1);
        self.adj.add(v, u, 1);
        self.edges += 1;
        true
    }

    /// Deletes `{u, v}`. Returns `false` if the edge is absent.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        self.adj.add(u, v, -1);
        self.adj.add(v, u, -1);
        self.edges -= 1;
        true
    }

    /// Applies an update; returns `true` if the graph changed.
    pub fn apply(&mut self, update: &GraphUpdate) -> bool {
        match update.op {
            UpdateOp::Insert => self.insert(update.u, update.v),
            UpdateOp::Delete => self.delete(update.u, update.v),
        }
    }

    /// Brute-force number of (unordered, simple) 4-cycles.
    ///
    /// Uses the classical codegree identity: every 4-cycle contributes
    /// exactly one pair of opposite corners twice, so
    /// `#C4 = ½ · Σ_{u<v} C(codeg(u,v), 2)`. Each vertex `u`'s codegrees
    /// with the vertices after it are counted in one dense counter over its
    /// neighbours' neighbours, so the cost is `Σ_x deg(x)²` array steps and
    /// no hashing.
    pub fn count_4cycles_brute_force(&self) -> i64 {
        let index = CompactIndex::from_vertices(self.adj.left_vertices());
        // The graph in dense ids, one neighbour list per vertex.
        let adjacency: Vec<Vec<usize>> = (0..index.len())
            .map(|i| {
                self.neighbors(index.vertex_at(i))
                    .filter_map(|n| index.index_of(n))
                    .collect()
            })
            .collect();
        let mut codeg = vec![0i64; index.len()];
        let mut touched = Vec::new();
        let mut twice = 0i64;
        for (u, neighbors) in adjacency.iter().enumerate() {
            for &x in neighbors {
                for &w in adjacency[x].iter().filter(|&&w| w > u) {
                    if codeg[w] == 0 {
                        touched.push(w);
                    }
                    codeg[w] += 1;
                }
            }
            for w in touched.drain(..) {
                twice += codeg[w] * (codeg[w] - 1) / 2;
                codeg[w] = 0;
            }
        }
        debug_assert_eq!(twice % 2, 0, "each 4-cycle must be counted twice");
        twice / 2
    }

    /// Brute-force number of simple 3-paths (paths with 3 edges) between `u`
    /// and `v` that avoid the edge `{u, v}` itself. This equals the number of
    /// 4-cycles through `{u, v}` once that edge is present (Appendix A).
    pub fn count_3paths_brute_force(&self, u: VertexId, v: VertexId) -> i64 {
        let mut total = 0i64;
        for x in self.neighbors(u) {
            if x == v {
                continue;
            }
            for y in self.neighbors(x) {
                if y == u || y == v {
                    continue;
                }
                if self.has_edge(y, v) {
                    total += 1;
                }
            }
        }
        total
    }

    /// Builds the 4-layered replication of §8: each layer holds a copy of the
    /// vertex set and every edge `{u, v}` appears in all four relations (in
    /// both orientations, since the relations are bipartite and the original
    /// edge is undirected).
    pub fn to_layered(&self) -> LayeredGraph {
        let mut layered = LayeredGraph::new();
        for (u, v) in self.edges() {
            for rel in Rel::ALL {
                layered.insert(rel, u, v);
                layered.insert(rel, v, u);
            }
        }
        layered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c4() -> GeneralGraph {
        let mut g = GeneralGraph::new();
        g.insert(1, 2);
        g.insert(2, 3);
        g.insert(3, 4);
        g.insert(4, 1);
        g
    }

    #[test]
    fn basic_mutation_rules() {
        let mut g = GeneralGraph::new();
        assert!(g.insert(1, 2));
        assert!(!g.insert(1, 2));
        assert!(!g.insert(2, 1), "undirected duplicate");
        assert!(!g.insert(3, 3), "no self loops");
        assert_eq!(g.edge_count(), 1);
        assert!(g.delete(2, 1));
        assert!(!g.delete(1, 2));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn four_cycle_counting_small_cases() {
        assert_eq!(c4().count_4cycles_brute_force(), 1);

        // K4 has 3 distinct 4-cycles.
        let mut k4 = GeneralGraph::new();
        for u in 1..=4u32 {
            for v in (u + 1)..=4 {
                k4.insert(u, v);
            }
        }
        assert_eq!(k4.count_4cycles_brute_force(), 3);

        // K_{2,3} has C(2,2)*C(3,2) = 3 distinct 4-cycles.
        let mut k23 = GeneralGraph::new();
        for u in [1u32, 2] {
            for v in [10u32, 11, 12] {
                k23.insert(u, v);
            }
        }
        assert_eq!(k23.count_4cycles_brute_force(), 3);

        // A triangle has none.
        let mut tri = GeneralGraph::new();
        tri.insert(1, 2);
        tri.insert(2, 3);
        tri.insert(3, 1);
        assert_eq!(tri.count_4cycles_brute_force(), 0);
    }

    /// The oracle's former form: every wedge's pair of ends hashed into a
    /// map of codegrees.
    fn count_4cycles_by_codegree_map(g: &GeneralGraph) -> i64 {
        use std::collections::HashMap;
        let mut codeg: HashMap<(VertexId, VertexId), i64> = HashMap::new();
        for x in g.adj.left_vertices() {
            let ns: Vec<VertexId> = g.neighbors(x).collect();
            for i in 0..ns.len() {
                for j in (i + 1)..ns.len() {
                    *codeg.entry((ns[i], ns[j])).or_insert(0) += 1;
                }
            }
        }
        codeg.values().map(|&w| w * (w - 1) / 2).sum::<i64>() / 2
    }

    #[test]
    fn dense_codegree_oracle_matches_the_codegree_map() {
        // A small multiplicative generator keeps the test free of crates.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            u32::try_from((state >> 33) % n).unwrap()
        };
        for (vertices, edges) in [(6, 10), (12, 40), (30, 120), (60, 600), (200, 900)] {
            let mut g = GeneralGraph::new();
            for _ in 0..edges {
                // Sparse ids, so the dense counter's interning is exercised.
                g.insert(1_000 + 7 * next(vertices), 1_000 + 7 * next(vertices));
            }
            for _ in 0..edges / 4 {
                let at = next(10) as usize % g.edge_count();
                let (u, v) = g.edges().nth(at).unwrap();
                g.delete(u, v);
            }
            assert_eq!(
                g.count_4cycles_brute_force(),
                count_4cycles_by_codegree_map(&g),
                "{vertices} vertices, {edges} inserts"
            );
        }
        assert_eq!(GeneralGraph::new().count_4cycles_brute_force(), 0);
    }

    #[test]
    fn three_paths_exclude_endpoints_and_direct_edge() {
        let g = c4();
        // Between 1 and 2 (adjacent): the only 3-path is 1-4-3-2.
        assert_eq!(g.count_3paths_brute_force(1, 2), 1);
        // Between opposite corners 1 and 3 there is no 3-path in C4
        // (both paths have length 2).
        assert_eq!(g.count_3paths_brute_force(1, 3), 0);
    }

    #[test]
    fn layered_replication_counts_closed_walks() {
        // The layered replication of §8 turns *closed 4-walks* of the general
        // graph into layered 4-cycles (degenerate walks such as u→v→u→v are
        // legal layered cycles because the copies live in different layers).
        // The classical identity  #C4 = (walks − 2m − 2·Σ deg(deg−1)) / 8
        // therefore relates the two counts; the per-update algorithm of §8
        // instead relies on Claim 8.1, which needs the (u,v) edge to be
        // absent from A, B, C at query time.
        for g in [c4(), {
            let mut k4 = GeneralGraph::new();
            for u in 1..=4u32 {
                for v in (u + 1)..=4 {
                    k4.insert(u, v);
                }
            }
            k4
        }] {
            let layered = g.to_layered();
            let walks = layered.count_layered_4cycles_brute_force();
            let m = g.edge_count() as i64;
            let deg_term: i64 = (1..=4u32)
                .map(|v| {
                    let d = g.degree(v) as i64;
                    d * (d - 1)
                })
                .sum();
            assert_eq!(
                g.count_4cycles_brute_force(),
                (walks - 2 * m - 2 * deg_term) / 8
            );
        }
        assert_eq!(c4().to_layered().total_edges(), 4 * 2 * 4);
    }

    #[test]
    fn layered_replication_three_paths_match_claim_8_1() {
        // Claim 8.1: walks of length 3 in the layered graph from u ∈ L1 to
        // v ∈ L4 equal simple 3-paths in the general graph, provided the edge
        // (u,v) is absent from A, B, C.
        let mut g = GeneralGraph::new();
        g.insert(1, 2);
        g.insert(2, 3);
        g.insert(3, 4);
        // No (1,4) edge yet: counting 3-paths 1⇝4.
        let layered = g.to_layered();
        assert_eq!(
            layered.count_3paths_brute_force(1, 4),
            g.count_3paths_brute_force(1, 4)
        );
        assert_eq!(g.count_3paths_brute_force(1, 4), 1);
    }
}
