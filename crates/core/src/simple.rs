//! The simple `O(n)`-update algorithm of Appendix A, in layered form.
//!
//! Appendix A maintains, for every pair of vertices, the number of wedges
//! (2-paths) between them; an update touches the wedges through its
//! endpoints (`O(n)` of them) and a query walks the neighbors of one query
//! endpoint and sums stored wedge counts (`O(n)`).
//!
//! In the layered frame the only wedge table needed is
//! `W_{BC}[x][v] = #{2-paths x –B– y –C– v}`: updates to `B` or `C` touch at
//! most `deg ≤ n` entries, updates to `A` touch none, and a query sums
//! `W_{BC}[x][v]` over `x ∈ N_A(u)`.
//!
//! So the engine reads `A` only from its `L1` end and `B` and `C` only from
//! their `L3` end, and keeps each relation once, in that orientation: `A`
//! and `C` as rows keyed by their left endpoint, `B` as rows keyed by its
//! right endpoint. `has_edge` and `edges` flip `B`'s pairs back.

use crate::engine::{QRel, ThreePathEngine};
use crate::pair_counts::PairCounts;
use fourcycle_graph::{coalesce_updates, SignedAdjacency, UpdateOp, VertexId};

/// Appendix A: all-pairs wedge counts, `O(n)` worst-case update time.
#[derive(Debug, Default)]
pub struct SimpleEngine {
    /// `A`, row `u ∈ L1` holding `(x, A[u][x])`.
    a_by_l1: SignedAdjacency,
    /// `B`, row `y ∈ L3` holding `(x, B[x][y])`.
    b_by_l3: SignedAdjacency,
    /// `C`, row `y ∈ L3` holding `(v, C[y][v])`.
    c_by_l3: SignedAdjacency,
    /// `W_{BC}[x][v]` — wedges from `x ∈ L2` to `v ∈ L4` through `L3`.
    wedges_bc: PairCounts,
    work: u64,
}

impl SimpleEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Edges held in `A`, `B` and `C` together (the paper's `m`).
    pub(crate) fn total_edges(&self) -> usize {
        self.a_by_l1.len() + self.b_by_l3.len() + self.c_by_l3.len()
    }

    /// Number of stored wedge entries (exposed for the memory experiments).
    pub fn stored_wedges(&self) -> usize {
        self.wedges_bc.len()
    }

    /// One signed edge event: wedge-table maintenance plus adjacency.
    fn apply_signed(&mut self, rel: QRel, left: VertexId, right: VertexId, s: i64) {
        match rel {
            QRel::A => {
                self.a_by_l1.add(left, right, s);
            }
            QRel::B => {
                // New wedge (left, v) for every C-neighbor v of `right`.
                for (v, wc) in self.c_by_l3.neighbors(right) {
                    self.work += 1;
                    self.wedges_bc.add(left, v, s * wc);
                }
                self.b_by_l3.add(right, left, s);
            }
            QRel::C => {
                // New wedge (x, right) for every B-neighbor x of `left`.
                for (x, wb) in self.b_by_l3.neighbors(left) {
                    self.work += 1;
                    self.wedges_bc.add(x, right, s * wb);
                }
                self.c_by_l3.add(left, right, s);
            }
        }
    }
}

impl ThreePathEngine for SimpleEngine {
    fn apply_batch(&mut self, rel: QRel, updates: &[(VertexId, VertexId, UpdateOp)]) {
        // The wedge table is bilinear in (B, C), so net per-pair deltas give
        // the same final table; cancelled pairs skip their O(deg) scans.
        for (l, r, s) in coalesce_updates(updates) {
            self.apply_signed(rel, l, r, s);
        }
    }

    fn has_edge(&self, rel: QRel, left: VertexId, right: VertexId) -> bool {
        match rel {
            QRel::A => self.a_by_l1.contains(left, right),
            QRel::B => self.b_by_l3.contains(right, left),
            QRel::C => self.c_by_l3.contains(left, right),
        }
    }

    fn edges(&self, rel: QRel) -> Vec<(VertexId, VertexId)> {
        match rel {
            QRel::A => self.a_by_l1.iter().map(|(l, r, _)| (l, r)).collect(),
            QRel::B => self.b_by_l3.iter().map(|(r, l, _)| (l, r)).collect(),
            QRel::C => self.c_by_l3.iter().map(|(l, r, _)| (l, r)).collect(),
        }
    }

    fn query(&mut self, u: VertexId, v: VertexId) -> i64 {
        let mut total = 0i64;
        for (x, wa) in self.a_by_l1.neighbors(u) {
            self.work += 1;
            total += wa * self.wedges_bc.get(x, v);
        }
        total
    }

    fn work(&self) -> u64 {
        self.work
    }

    fn name(&self) -> &'static str {
        "simple-appendix-a"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEngine;
    use fourcycle_graph::UpdateOp::{Delete, Insert};

    /// Replays a fixed mixed insert/delete script on both engines and checks
    /// every query agrees (small hand-rolled differential test; the large
    /// randomized ones live in `tests/`).
    #[test]
    fn agrees_with_naive_on_scripted_stream() {
        let script = [
            (QRel::A, 1, 10, Insert),
            (QRel::B, 10, 20, Insert),
            (QRel::C, 20, 30, Insert),
            (QRel::A, 2, 10, Insert),
            (QRel::C, 20, 31, Insert),
            (QRel::B, 10, 21, Insert),
            (QRel::C, 21, 30, Insert),
            (QRel::B, 10, 20, Delete),
            (QRel::A, 1, 11, Insert),
            (QRel::B, 11, 21, Insert),
            (QRel::B, 10, 20, Insert),
        ];
        let mut simple = SimpleEngine::new();
        let mut naive = NaiveEngine::new();
        for (rel, l, r, op) in script {
            simple.apply_update(rel, l, r, op);
            naive.apply_update(rel, l, r, op);
            for u in [1, 2, 3] {
                for v in [30, 31, 32] {
                    assert_eq!(simple.query(u, v), naive.query(u, v), "query ({u},{v})");
                }
            }
        }
        assert!(simple.stored_wedges() > 0);
    }

    /// `B` is stored by its right endpoint: membership and edge lists must
    /// still speak `(left, right)`, as the oracle's left-keyed rows do.
    #[test]
    fn every_relation_reads_back_its_own_pairs() {
        let script = [
            (QRel::A, 1, 10, Insert),
            (QRel::A, 1, 11, Insert),
            (QRel::B, 10, 20, Insert),
            (QRel::B, 11, 20, Insert),
            (QRel::B, 10, 21, Insert),
            (QRel::C, 20, 30, Insert),
            (QRel::C, 21, 30, Insert),
            (QRel::C, 20, 31, Insert),
            (QRel::A, 1, 10, Delete),
            (QRel::B, 10, 20, Delete),
            (QRel::C, 21, 30, Delete),
        ];
        let mut simple = SimpleEngine::new();
        let mut naive = NaiveEngine::new();
        for (rel, l, r, op) in script {
            simple.apply_update(rel, l, r, op);
            naive.apply_update(rel, l, r, op);
            assert_eq!(simple.has_edge(rel, l, r), op == Insert);
        }
        for (rel, l, r, op) in script {
            assert_eq!(
                simple.has_edge(rel, l, r),
                naive.has_edge(rel, l, r),
                "{rel:?} ({l}, {r}) after {op:?}"
            );
            assert!(!simple.has_edge(rel, r, l), "{rel:?} ({r}, {l}) is no pair");
        }
        for rel in QRel::ALL {
            let (mut mine, mut oracle) = (simple.edges(rel), naive.edges(rel));
            mine.sort_unstable();
            oracle.sort_unstable();
            assert_eq!(mine, oracle, "{rel:?}");
        }
        assert_eq!(simple.total_edges(), 5);
    }

    #[test]
    fn update_in_a_is_constant_time() {
        let mut e = SimpleEngine::new();
        e.apply_update(QRel::A, 1, 2, Insert);
        assert_eq!(e.work(), 0, "A-updates touch no wedges");
    }
}
