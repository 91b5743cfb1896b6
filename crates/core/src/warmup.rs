//! The warm-up algorithm of §3: counting 4-cycles when `A` and `C` are fixed.
//!
//! Under Assumption 3 the only edge updates arrive in `B` (and the query
//! matrix `D`). The algorithm:
//!
//! * partitions `L1`/`L4` into High / Medium / Low by their (fixed) degree in
//!   `A` / `C` (thresholds `m^{2/3−ε1}` and `m^{1/3+ε1}`),
//! * splits the stream of `B`-updates into **chunks** of `m^{2/3−ε1}` updates,
//! * classifies `L2`/`L3` vertices per chunk as Dense/Sparse by their degree
//!   *within the chunk* (threshold `m^{1/3−ε2}`),
//! * and maintains the data structures of Table 1 over all completed chunks
//!   (`B_{<i}`), answering the part of a query that goes through the current
//!   (incomplete) chunk by lazy evaluation over its edge list (§3.3).
//!
//! Engineering note: the paper computes a completed chunk's
//! contributions *during* the next chunk (spread over its updates, using fast
//! rectangular matrix multiplication for the `A^{H∗}·B_i·C^{∗H}` and
//! `A^{L∗}·B_{i,DD}` products) so that the update time is worst-case. We fold
//! a chunk's contributions eagerly at the moment it completes — the same
//! total work, amortized — and keep lazy evaluation only for the current
//! incomplete chunk. Of Eq (4)'s six low-degree structures we store the four
//! a query actually reads (`A^{L∗}·B_{DD/SS/SD}` and `B_{DS}·C^{∗L}`).
//!
//! The engine deliberately rejects updates to `A` or `C`: Assumption 3 is
//! what the main algorithm relies on when it uses this engine as a
//! subroutine, and the standalone benchmarks construct it with the fixed
//! relations up front.

use crate::engine::{QRel, ThreePathEngine};
use crate::pair_counts::PairCounts;
use fourcycle_graph::classes::ceil_pow;
use fourcycle_graph::{BipartiteAdjacency, UpdateOp, VertexId};
use std::collections::HashMap;

/// Endpoint classes of the warm-up algorithm (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WClass {
    Low,
    Medium,
    High,
}

/// The §3 engine: `A`, `C` fixed, `B` fully dynamic.
#[derive(Debug)]
pub struct WarmupEngine {
    a: BipartiteAdjacency,
    c: BipartiteAdjacency,
    /// Degree thresholds for L1/L4 classes.
    medium_lo: usize,
    high_lo: usize,
    /// Number of B-updates per chunk (`⌈m^{2/3−ε1}⌉`).
    chunk_len: usize,
    /// Per-chunk Dense/Sparse threshold (`⌈m^{1/3−ε2}⌉`).
    dense_threshold: usize,
    /// Signed B-updates of the current (incomplete) chunk.
    current_chunk: Vec<(VertexId, VertexId, i64)>,
    /// Total (chunk-independent) `B` adjacency, maintained solely to answer
    /// `has_edge` and `edges`.
    b_total: BipartiteAdjacency,
    /// `A^{H∗}·B_{<}` — wedges from High `L1` vertices through `L2`.
    ah_b: PairCounts,
    /// `A^{M∗}·B_{<}`.
    am_b: PairCounts,
    /// `B_{<}·C^{∗H}` — wedges from `L2` to High `L4` vertices.
    b_ch: PairCounts,
    /// `B_{<}·C^{∗M}`.
    b_cm: PairCounts,
    /// `A^{H∗}·B_{<}·C^{∗H}` — 3-paths between High/High endpoint pairs.
    ah_b_ch: PairCounts,
    /// `A^{L∗}·B_{<,DD}`, `A^{L∗}·B_{<,SS}`, `A^{L∗}·B_{<,SD}` (Eq 4).
    al_b_dd: PairCounts,
    al_b_ss: PairCounts,
    al_b_sd: PairCounts,
    /// `B_{<,DS}·C^{∗L}` (Eq 4).
    b_ds_cl: PairCounts,
    work: u64,
    chunks_folded: usize,
}

impl WarmupEngine {
    /// Creates the engine from the fixed relations `A` and `C`.
    ///
    /// `m_hint` is the edge-count scale used for the thresholds (the paper's
    /// `m`; when the engine is used as a subroutine this is the full graph's
    /// edge count). `eps1`/`eps2` are the §3.4 parameters.
    pub fn new(
        a_edges: impl IntoIterator<Item = (VertexId, VertexId)>,
        c_edges: impl IntoIterator<Item = (VertexId, VertexId)>,
        m_hint: usize,
        eps1: f64,
        eps2: f64,
    ) -> Self {
        let mut a = BipartiteAdjacency::new();
        for (u, x) in a_edges {
            a.add(u, x, 1);
        }
        let mut c = BipartiteAdjacency::new();
        for (y, v) in c_edges {
            c.add(y, v, 1);
        }
        let m = m_hint.max(1);
        let medium_lo = ceil_pow(m, 1.0 / 3.0 + eps1).max(1);
        let high_lo = ceil_pow(m, 2.0 / 3.0 - eps1).max(medium_lo + 1);
        let chunk_len = ceil_pow(m, 2.0 / 3.0 - eps1).max(4);
        let dense_threshold = ceil_pow(m, 1.0 / 3.0 - eps2).max(1);
        Self {
            a,
            c,
            medium_lo,
            high_lo,
            chunk_len,
            dense_threshold,
            current_chunk: Vec::new(),
            b_total: BipartiteAdjacency::new(),
            ah_b: PairCounts::new(),
            am_b: PairCounts::new(),
            b_ch: PairCounts::new(),
            b_cm: PairCounts::new(),
            ah_b_ch: PairCounts::new(),
            al_b_dd: PairCounts::new(),
            al_b_ss: PairCounts::new(),
            al_b_sd: PairCounts::new(),
            b_ds_cl: PairCounts::new(),
            work: 0,
            chunks_folded: 0,
        }
    }

    /// Number of completed (folded) chunks so far.
    pub fn chunks_folded(&self) -> usize {
        self.chunks_folded
    }

    /// The chunk length in use.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    fn class_l1(&self, u: VertexId) -> WClass {
        Self::classify(self.a.degree_left(u), self.medium_lo, self.high_lo)
    }

    fn class_l4(&self, v: VertexId) -> WClass {
        Self::classify(self.c.degree_right(v), self.medium_lo, self.high_lo)
    }

    fn classify(deg: usize, medium_lo: usize, high_lo: usize) -> WClass {
        if deg >= high_lo {
            WClass::High
        } else if deg >= medium_lo {
            WClass::Medium
        } else {
            WClass::Low
        }
    }

    /// The current adjacency of `rel` (`B`'s chunk-independent total).
    fn rel(&self, rel: QRel) -> &BipartiteAdjacency {
        match rel {
            QRel::A => &self.a,
            QRel::B => &self.b_total,
            QRel::C => &self.c,
        }
    }

    /// Folds the just-completed chunk into the `B_{<}` structures (§3.2).
    fn fold_chunk(&mut self) {
        // Per-chunk Dense/Sparse classification of L2/L3 vertices by the
        // number of chunk updates incident to them (§3.1).
        let mut deg_l2: HashMap<VertexId, usize> = HashMap::new();
        let mut deg_l3: HashMap<VertexId, usize> = HashMap::new();
        for &(x, y, _) in &self.current_chunk {
            *deg_l2.entry(x).or_insert(0) += 1;
            *deg_l3.entry(y).or_insert(0) += 1;
        }
        let dense_l2 = |x: &VertexId, map: &HashMap<VertexId, usize>| {
            map.get(x).copied().unwrap_or(0) >= self.dense_threshold
        };

        let chunk = std::mem::take(&mut self.current_chunk);
        for (x, y, s) in chunk {
            let x_dense = dense_l2(&x, &deg_l2);
            let y_dense = dense_l2(&y, &deg_l3);

            // Contributions of the wedge (·, x) –B– y.
            let a_nbrs: Vec<(VertexId, i64)> = self.a.neighbors_of_right(x).collect();
            for &(u, wa) in &a_nbrs {
                self.work += 1;
                match self.class_l1(u) {
                    WClass::High => self.ah_b.add(u, y, s * wa),
                    WClass::Medium => self.am_b.add(u, y, s * wa),
                    WClass::Low => {
                        if x_dense && y_dense {
                            self.al_b_dd.add(u, y, s * wa);
                        } else if !x_dense && !y_dense {
                            self.al_b_ss.add(u, y, s * wa);
                        } else if !x_dense && y_dense {
                            self.al_b_sd.add(u, y, s * wa);
                        }
                    }
                }
            }

            // Contributions of the wedge x –B– y, (·).
            let c_nbrs: Vec<(VertexId, i64)> = self.c.neighbors_of_left(y).collect();
            for &(v, wc) in &c_nbrs {
                self.work += 1;
                match self.class_l4(v) {
                    WClass::High => self.b_ch.add(x, v, s * wc),
                    WClass::Medium => self.b_cm.add(x, v, s * wc),
                    WClass::Low => {
                        if x_dense && !y_dense {
                            self.b_ds_cl.add(x, v, s * wc);
                        }
                    }
                }
            }

            // 3-path contributions for High/High endpoint pairs
            // (`A^{H∗}·B_i·C^{∗H}`; the paper computes these with rectangular
            // FMM, we enumerate the High neighbors on both sides).
            for &(u, wa) in &a_nbrs {
                if self.class_l1(u) != WClass::High {
                    continue;
                }
                for &(v, wc) in &c_nbrs {
                    if self.class_l4(v) != WClass::High {
                        continue;
                    }
                    self.work += 1;
                    self.ah_b_ch.add(u, v, s * wa * wc);
                }
            }
        }
        self.chunks_folded += 1;
    }
}

impl ThreePathEngine for WarmupEngine {
    fn accepts_updates_to(&self, rel: QRel) -> bool {
        // Assumption 3 (§3.1): `A` and `C` are fixed for the engine's
        // lifetime; only `B` is dynamic.
        rel == QRel::B
    }

    fn has_edge(&self, rel: QRel, left: VertexId, right: VertexId) -> bool {
        self.rel(rel).weight(left, right) != 0
    }

    fn edges(&self, rel: QRel) -> Vec<(VertexId, VertexId)> {
        self.rel(rel).iter().map(|(l, r, _)| (l, r)).collect()
    }

    fn apply_batch(&mut self, rel: QRel, updates: &[(VertexId, VertexId, UpdateOp)]) {
        assert_eq!(
            rel,
            QRel::B,
            "WarmupEngine assumes A and C are fixed (Assumption 3, §3.1); only B may change"
        );
        // The engine is already chunk-structured (§3.2): a batch extends the
        // current chunk with its net signed events — both the folded
        // structures and the §3.3 lazy query sum are linear in the chunk's
        // events, so cancelled pairs can be dropped — folding whenever a
        // chunk boundary is crossed.
        for (l, r, s) in fourcycle_graph::coalesce_updates(updates) {
            self.b_total.add(l, r, s);
            self.current_chunk.push((l, r, s));
            if self.current_chunk.len() >= self.chunk_len {
                self.fold_chunk();
            }
        }
    }

    fn query(&mut self, u: VertexId, v: VertexId) -> i64 {
        let mut total = 0i64;

        // Lazy evaluation over the current incomplete chunk (§3.3).
        for &(x, y, s) in &self.current_chunk {
            self.work += 1;
            total += s * self.a.weight(u, x) * self.c.weight(y, v);
        }

        // Paths through completed chunks, by endpoint classes.
        match (self.class_l1(u), self.class_l4(v)) {
            (WClass::High, WClass::High) => {
                self.work += 1;
                total += self.ah_b_ch.get(u, v);
            }
            (WClass::High, _) => {
                for (y, wc) in self.c.neighbors_of_right(v) {
                    self.work += 1;
                    total += wc * self.ah_b.get(u, y);
                }
            }
            (WClass::Medium, WClass::High) => {
                for (x, wa) in self.a.neighbors_of_left(u) {
                    self.work += 1;
                    total += wa * self.b_ch.get(x, v);
                }
            }
            (WClass::Medium, _) => {
                for (y, wc) in self.c.neighbors_of_right(v) {
                    self.work += 1;
                    total += wc * self.am_b.get(u, y);
                }
            }
            (WClass::Low, WClass::High) => {
                for (x, wa) in self.a.neighbors_of_left(u) {
                    self.work += 1;
                    total += wa * self.b_ch.get(x, v);
                }
            }
            (WClass::Low, WClass::Medium) => {
                for (x, wa) in self.a.neighbors_of_left(u) {
                    self.work += 1;
                    total += wa * self.b_cm.get(x, v);
                }
            }
            (WClass::Low, WClass::Low) => {
                for (y, wc) in self.c.neighbors_of_right(v) {
                    self.work += 1;
                    total += wc
                        * (self.al_b_dd.get(u, y)
                            + self.al_b_ss.get(u, y)
                            + self.al_b_sd.get(u, y));
                }
                for (x, wa) in self.a.neighbors_of_left(u) {
                    self.work += 1;
                    total += wa * self.b_ds_cl.get(x, v);
                }
            }
        }
        total
    }

    fn work(&self) -> u64 {
        self.work
    }

    fn name(&self) -> &'static str {
        "warmup-fixed-ac"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEngine;
    use fourcycle_graph::UpdateOp::{Delete, Insert};

    /// Builds a fixed A/C bipartite structure with a couple of high-degree
    /// vertices, then streams B updates across several chunk boundaries,
    /// cross-checking every query against the oracle.
    #[test]
    fn agrees_with_naive_across_chunks() {
        let mut a_edges = Vec::new();
        let mut c_edges = Vec::new();
        // Vertex 0 in L1 is high degree, 1 is medium-ish, the rest low.
        for x in 0..30u32 {
            a_edges.push((0u32, x));
        }
        for x in 0..6u32 {
            a_edges.push((1u32, x));
        }
        a_edges.push((2, 0));
        a_edges.push((3, 5));
        // L4 vertex 100 high degree, 101 medium, others low.
        for y in 0..30u32 {
            c_edges.push((y, 100u32));
        }
        for y in 0..6u32 {
            c_edges.push((y, 101u32));
        }
        c_edges.push((0, 102));
        c_edges.push((7, 103));

        let m_hint = a_edges.len() + c_edges.len();
        let mut warmup = WarmupEngine::new(
            a_edges.clone(),
            c_edges.clone(),
            m_hint,
            1.0 / 24.0,
            5.0 / 24.0,
        );
        let mut naive = NaiveEngine::new();
        for &(u, x) in &a_edges {
            naive.apply_update(QRel::A, u, x, Insert);
        }
        for &(y, v) in &c_edges {
            naive.apply_update(QRel::C, y, v, Insert);
        }

        // Stream B updates: inserts with periodic deletions, enough to cross
        // several chunk boundaries. Only well-formed updates are applied
        // (no duplicate inserts, no deletes of absent edges).
        let mut present: std::collections::HashSet<(u32, u32)> = std::collections::HashSet::new();
        let mut step = 0u32;
        for round in 0..4u32 {
            for x in 0..12u32 {
                for y in 0..6u32 {
                    let is_present = present.contains(&(x, y));
                    let op = if is_present && (x + y + round) % 3 == 0 {
                        Delete
                    } else if !is_present {
                        Insert
                    } else {
                        continue;
                    };
                    match op {
                        Insert => {
                            present.insert((x, y));
                        }
                        Delete => {
                            present.remove(&(x, y));
                        }
                    }
                    warmup.apply_update(QRel::B, x, y, op);
                    naive.apply_update(QRel::B, x, y, op);
                    step += 1;
                    if step.is_multiple_of(9) {
                        for u in [0u32, 1, 2, 3, 4] {
                            for v in [100u32, 101, 102, 103, 104] {
                                assert_eq!(
                                    warmup.query(u, v),
                                    naive.query(u, v),
                                    "round {round} step {step} query ({u},{v})"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(
            warmup.chunks_folded() > 0,
            "the stream must cross a chunk boundary"
        );
    }

    #[test]
    #[should_panic(expected = "A and C are fixed")]
    fn rejects_updates_to_a() {
        let mut warmup = WarmupEngine::new([(1, 2)], [(3, 4)], 10, 1.0 / 24.0, 5.0 / 24.0);
        warmup.apply_update(QRel::A, 1, 5, Insert);
    }
}
