//! An `O(m^{2/3})`-update baseline in the style of Hanauer–Henzinger–Hua
//! (SAND 2022), the algorithm the paper improves upon.
//!
//! The original HHH22 algorithm groups vertices into high/low degree classes,
//! stores wedges through low-degree vertices, 3-paths through two low-degree
//! vertices, and wedges through high-degree vertices for high-degree endpoint
//! pairs (§1, "Algorithm of Previous Work"). This module is our
//! reconstruction of that approach for the layered query problem, with a
//! single degree threshold `t = m̂^{2/3}`:
//!
//! * `W_AB^{light}[u][y]` — 2-paths `u–x–y` through *light* `x ∈ L2`,
//! * `W_BC^{light}[x][v]` — 2-paths `x–y–v` through *light* `y ∈ L3`,
//! * `P_LL^{HH}[u][v]` — 3-paths through two light middles, stored only for
//!   pairs of *heavy endpoints* (there are at most `2m/t` of those per side).
//!
//! Every maintenance step and every query case costs `O(m^{2/3})`; classes
//! are kept consistent by rebuilding a vertex's contributions when its degree
//! crosses the threshold, and the whole engine rebuilds when `m` drifts by a
//! factor of two, so the bound is amortized, not worst-case (as in the `fmm`
//! module; see its "Deviations from the paper").

use crate::engine::{QRel, SlowPathStats, ThreePathEngine};
use crate::pair_counts::PairCounts;
use fourcycle_graph::classes::ceil_pow;
use fourcycle_graph::{coalesce_updates, BipartiteAdjacency, UpdateOp, VertexId};
use std::collections::HashSet;

/// Which layer a vertex is being (re)classified in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Role {
    L1,
    L2,
    L3,
    L4,
}

/// The classification roles of a relation's (left, right) endpoints.
fn endpoint_roles(rel: QRel) -> (Role, Role) {
    match rel {
        QRel::A => (Role::L1, Role::L2),
        QRel::B => (Role::L2, Role::L3),
        QRel::C => (Role::L3, Role::L4),
    }
}

/// HHH22-style `O(m^{2/3})` engine.
#[derive(Debug)]
pub struct ThresholdEngine {
    a: BipartiteAdjacency,
    b: BipartiteAdjacency,
    c: BipartiteAdjacency,
    /// Heavy vertex sets per layer (degree ≥ `threshold`).
    heavy_l1: HashSet<VertexId>,
    heavy_l2: HashSet<VertexId>,
    heavy_l3: HashSet<VertexId>,
    heavy_l4: HashSet<VertexId>,
    /// 2-paths `u –A– x –B– y` with `x` light.
    w_ab_light: PairCounts,
    /// 2-paths `x –B– y –C– v` with `y` light.
    w_bc_light: PairCounts,
    /// 3-paths with two light middles, for heavy endpoint pairs only.
    p_ll_hh: PairCounts,
    /// Edge-count scale the threshold was computed for.
    m_hat: usize,
    /// The heavy/light degree threshold `⌈m̂^{2/3}⌉`.
    threshold: usize,
    work: u64,
    era_rebuilds: u64,
    class_transitions: u64,
}

impl Default for ThresholdEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ThresholdEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Self {
            a: BipartiteAdjacency::new(),
            b: BipartiteAdjacency::new(),
            c: BipartiteAdjacency::new(),
            heavy_l1: HashSet::new(),
            heavy_l2: HashSet::new(),
            heavy_l3: HashSet::new(),
            heavy_l4: HashSet::new(),
            w_ab_light: PairCounts::new(),
            w_bc_light: PairCounts::new(),
            p_ll_hh: PairCounts::new(),
            m_hat: 1,
            threshold: 1,
            work: 0,
            era_rebuilds: 0,
            class_transitions: 0,
        }
    }

    /// Current heavy/light threshold (exposed for tests and experiments).
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    fn total_edges(&self) -> usize {
        self.a.len() + self.b.len() + self.c.len()
    }

    fn degree(&self, role: Role, v: VertexId) -> usize {
        match role {
            Role::L1 => self.a.degree_left(v),
            Role::L2 => self.a.degree_right(v) + self.b.degree_left(v),
            Role::L3 => self.b.degree_right(v) + self.c.degree_left(v),
            Role::L4 => self.c.degree_right(v),
        }
    }

    fn heavy_set(&mut self, role: Role) -> &mut HashSet<VertexId> {
        match role {
            Role::L1 => &mut self.heavy_l1,
            Role::L2 => &mut self.heavy_l2,
            Role::L3 => &mut self.heavy_l3,
            Role::L4 => &mut self.heavy_l4,
        }
    }

    fn is_heavy(&self, role: Role, v: VertexId) -> bool {
        match role {
            Role::L1 => self.heavy_l1.contains(&v),
            Role::L2 => self.heavy_l2.contains(&v),
            Role::L3 => self.heavy_l3.contains(&v),
            Role::L4 => self.heavy_l4.contains(&v),
        }
    }

    /// Applies the maintenance rules for one signed edge event. Does not
    /// touch adjacency; callers must follow the insert/delete ordering
    /// convention (rules see the graph *without* the event's edge).
    fn apply_rules(&mut self, rel: QRel, l: VertexId, r: VertexId, s: i64) {
        match rel {
            QRel::A => {
                let (u, x) = (l, r);
                if !self.is_heavy(Role::L2, x) {
                    let updates: Vec<(VertexId, i64)> = self.b.neighbors_of_left(x).collect();
                    for (y, wb) in updates {
                        self.work += 1;
                        self.w_ab_light.add(u, y, s * wb);
                    }
                    if self.is_heavy(Role::L1, u) {
                        let heavies: Vec<VertexId> = self.heavy_l4.iter().copied().collect();
                        for v in heavies {
                            self.work += 1;
                            let w = self.w_bc_light.get(x, v);
                            self.p_ll_hh.add(u, v, s * w);
                        }
                    }
                }
            }
            QRel::B => {
                let (x, y) = (l, r);
                if !self.is_heavy(Role::L2, x) {
                    let updates: Vec<(VertexId, i64)> = self.a.neighbors_of_right(x).collect();
                    for (u, wa) in updates {
                        self.work += 1;
                        self.w_ab_light.add(u, y, s * wa);
                    }
                }
                if !self.is_heavy(Role::L3, y) {
                    let updates: Vec<(VertexId, i64)> = self.c.neighbors_of_left(y).collect();
                    for (v, wc) in updates {
                        self.work += 1;
                        self.w_bc_light.add(x, v, s * wc);
                    }
                }
                if !self.is_heavy(Role::L2, x) && !self.is_heavy(Role::L3, y) {
                    let us: Vec<(VertexId, i64)> = self
                        .heavy_l1
                        .iter()
                        .filter_map(|&u| {
                            let w = self.a.weight(u, x);
                            (w != 0).then_some((u, w))
                        })
                        .collect();
                    let vs: Vec<(VertexId, i64)> = self
                        .heavy_l4
                        .iter()
                        .filter_map(|&v| {
                            let w = self.c.weight(y, v);
                            (w != 0).then_some((v, w))
                        })
                        .collect();
                    let heavy = self.heavy_l1.len() + self.heavy_l4.len();
                    self.work += u64::try_from(heavy).unwrap_or(u64::MAX);
                    for &(u, wa) in &us {
                        for &(v, wc) in &vs {
                            self.work += 1;
                            self.p_ll_hh.add(u, v, s * wa * wc);
                        }
                    }
                }
            }
            QRel::C => {
                let (y, v) = (l, r);
                if !self.is_heavy(Role::L3, y) {
                    let updates: Vec<(VertexId, i64)> = self.b.neighbors_of_right(y).collect();
                    for (x, wb) in updates {
                        self.work += 1;
                        self.w_bc_light.add(x, v, s * wb);
                    }
                    if self.is_heavy(Role::L4, v) {
                        let heavies: Vec<VertexId> = self.heavy_l1.iter().copied().collect();
                        for u in heavies {
                            self.work += 1;
                            let w = self.w_ab_light.get(u, y);
                            self.p_ll_hh.add(u, v, s * w);
                        }
                    }
                }
            }
        }
    }

    /// The adjacency of `rel`.
    fn rel(&self, rel: QRel) -> &BipartiteAdjacency {
        match rel {
            QRel::A => &self.a,
            QRel::B => &self.b,
            QRel::C => &self.c,
        }
    }

    fn adjacency_add(&mut self, rel: QRel, l: VertexId, r: VertexId, s: i64) {
        match rel {
            QRel::A => self.a.add(l, r, s),
            QRel::B => self.b.add(l, r, s),
            QRel::C => self.c.add(l, r, s),
        };
    }

    /// All current edges incident to `v` in layer role `role`, as
    /// `(rel, left, right)` triples.
    fn incident_edges(&self, role: Role, v: VertexId) -> Vec<(QRel, VertexId, VertexId)> {
        let mut edges = Vec::new();
        match role {
            Role::L1 => {
                edges.extend(self.a.neighbors_of_left(v).map(|(x, _)| (QRel::A, v, x)));
            }
            Role::L2 => {
                edges.extend(self.a.neighbors_of_right(v).map(|(u, _)| (QRel::A, u, v)));
                edges.extend(self.b.neighbors_of_left(v).map(|(y, _)| (QRel::B, v, y)));
            }
            Role::L3 => {
                edges.extend(self.b.neighbors_of_right(v).map(|(x, _)| (QRel::B, x, v)));
                edges.extend(self.c.neighbors_of_left(v).map(|(w, _)| (QRel::C, v, w)));
            }
            Role::L4 => {
                edges.extend(self.c.neighbors_of_right(v).map(|(y, _)| (QRel::C, y, v)));
            }
        }
        edges
    }

    /// Moves `v` between the heavy and light class of its layer, rebuilding
    /// its contributions: delete its incident edges (rules see the old
    /// class), flip the class, re-insert them (rules see the new class).
    fn transition(&mut self, role: Role, v: VertexId, make_heavy: bool) {
        self.class_transitions += 1;
        let edges = self.incident_edges(role, v);
        for &(rel, l, r) in &edges {
            self.adjacency_add(rel, l, r, -1);
            self.apply_rules(rel, l, r, -1);
        }
        if make_heavy {
            self.heavy_set(role).insert(v);
        } else {
            self.heavy_set(role).remove(&v);
        }
        for &(rel, l, r) in &edges {
            self.apply_rules(rel, l, r, 1);
            self.adjacency_add(rel, l, r, 1);
        }
    }

    fn check_transition(&mut self, role: Role, v: VertexId) {
        let should_be_heavy = self.degree(role, v) >= self.threshold;
        if should_be_heavy != self.is_heavy(role, v) {
            self.transition(role, v, should_be_heavy);
        }
    }

    /// Full rebuild with fresh thresholds (the era rule).
    fn rebuild(&mut self) {
        self.era_rebuilds += 1;
        let m = self.total_edges().max(1);
        self.m_hat = m;
        self.threshold = ceil_pow(m, 2.0 / 3.0).max(1);

        // Collect every current edge, empty the engine, then re-insert with
        // the final classes pre-computed (no transitions fire during the
        // replay: the classes are already their final values).
        let mut edges: Vec<(QRel, VertexId, VertexId)> = Vec::with_capacity(m);
        edges.extend(self.a.iter().map(|(l, r, _)| (QRel::A, l, r)));
        edges.extend(self.b.iter().map(|(l, r, _)| (QRel::B, l, r)));
        edges.extend(self.c.iter().map(|(l, r, _)| (QRel::C, l, r)));

        // Final classes are determined by the full (current) degrees, which
        // we can read off before clearing adjacency.
        let mut heavy = [
            HashSet::new(),
            HashSet::new(),
            HashSet::new(),
            HashSet::new(),
        ];
        for (role_idx, role) in [Role::L1, Role::L2, Role::L3, Role::L4].iter().enumerate() {
            let candidates: Vec<VertexId> = match role {
                Role::L1 => self.a.left_vertices().collect(),
                Role::L2 => self
                    .a
                    .right_vertices()
                    .chain(self.b.left_vertices())
                    .collect(),
                Role::L3 => self
                    .b
                    .right_vertices()
                    .chain(self.c.left_vertices())
                    .collect(),
                Role::L4 => self.c.right_vertices().collect(),
            };
            for v in candidates {
                if self.degree(*role, v) >= self.threshold {
                    heavy[role_idx].insert(v);
                }
            }
        }
        let [h1, h2, h3, h4] = heavy;
        self.heavy_l1 = h1;
        self.heavy_l2 = h2;
        self.heavy_l3 = h3;
        self.heavy_l4 = h4;

        self.a.clear();
        self.b.clear();
        self.c.clear();
        self.w_ab_light.clear();
        self.w_bc_light.clear();
        self.p_ll_hh.clear();
        for (rel, l, r) in edges {
            self.apply_rules(rel, l, r, 1);
            self.adjacency_add(rel, l, r, 1);
        }
    }

    fn needs_rebuild(&self) -> bool {
        let m = self.total_edges().max(1);
        m > self.m_hat * 2 || m * 2 < self.m_hat
    }
}

impl ThreePathEngine for ThresholdEngine {
    fn apply_batch(&mut self, rel: QRel, updates: &[(VertexId, VertexId, UpdateOp)]) {
        // Apply the coalesced deltas with transitions deferred: the
        // maintained tables stay consistent with the *stored* classes at
        // every step (the rules only ever read stored classes), so
        // reclassifying each touched endpoint once at the end — a full
        // rebuild of that vertex's contributions — restores the
        // class-degree invariant exactly as per-update application would.
        // The era-rebuild check runs once per batch instead of per edge.
        let events = coalesce_updates(updates);
        let (role_l, role_r) = endpoint_roles(rel);
        let mut touched: Vec<(Role, VertexId)> = Vec::with_capacity(events.len() * 2);
        for &(l, r, s) in &events {
            if s > 0 {
                self.apply_rules(rel, l, r, s);
                self.adjacency_add(rel, l, r, s);
            } else {
                self.adjacency_add(rel, l, r, s);
                self.apply_rules(rel, l, r, s);
            }
            touched.push((role_l, l));
            touched.push((role_r, r));
        }
        touched.sort_unstable();
        touched.dedup();
        for (role, v) in touched {
            self.check_transition(role, v);
        }
        if self.needs_rebuild() {
            self.rebuild();
        }
    }

    fn has_edge(&self, rel: QRel, left: VertexId, right: VertexId) -> bool {
        self.rel(rel).weight(left, right) != 0
    }

    fn edges(&self, rel: QRel) -> Vec<(VertexId, VertexId)> {
        self.rel(rel).iter().map(|(l, r, _)| (l, r)).collect()
    }

    fn query(&mut self, u: VertexId, v: VertexId) -> i64 {
        let mut total = 0i64;

        // Middles (light, light).
        let u_heavy = self.is_heavy(Role::L1, u);
        let v_heavy = self.is_heavy(Role::L4, v);
        if u_heavy && v_heavy {
            total += self.p_ll_hh.get(u, v);
            self.work += 1;
        } else if !u_heavy {
            for (x, wa) in self.a.neighbors_of_left(u) {
                self.work += 1;
                if !self.heavy_l2.contains(&x) {
                    total += wa * self.w_bc_light.get(x, v);
                }
            }
        } else {
            for (y, wc) in self.c.neighbors_of_right(v) {
                self.work += 1;
                if !self.heavy_l3.contains(&y) {
                    total += wc * self.w_ab_light.get(u, y);
                }
            }
        }

        // Middles (light, heavy): heavy y ∈ L3, any light x — stored wedge
        // table from the u side.
        for &y in &self.heavy_l3 {
            self.work += 1;
            let wc = self.c.weight(y, v);
            if wc != 0 {
                total += wc * self.w_ab_light.get(u, y);
            }
        }

        // Middles (heavy, light).
        for &x in &self.heavy_l2 {
            self.work += 1;
            let wa = self.a.weight(u, x);
            if wa != 0 {
                total += wa * self.w_bc_light.get(x, v);
            }
        }

        // Middles (heavy, heavy): enumerate the ≤ 2m/t heavy pairs.
        let xs: Vec<(VertexId, i64)> = self
            .heavy_l2
            .iter()
            .filter_map(|&x| {
                let w = self.a.weight(u, x);
                (w != 0).then_some((x, w))
            })
            .collect();
        let ys: Vec<(VertexId, i64)> = self
            .heavy_l3
            .iter()
            .filter_map(|&y| {
                let w = self.c.weight(y, v);
                (w != 0).then_some((y, w))
            })
            .collect();
        let heavy = self.heavy_l2.len() + self.heavy_l3.len();
        self.work += u64::try_from(heavy).unwrap_or(u64::MAX);
        for &(x, wa) in &xs {
            for &(y, wc) in &ys {
                self.work += 1;
                total += wa * wc * self.b.weight(x, y);
            }
        }
        total
    }

    fn work(&self) -> u64 {
        self.work
    }

    fn slow_path_stats(&self) -> SlowPathStats {
        SlowPathStats {
            era_rebuilds: self.era_rebuilds,
            phase_rollovers: 0,
            class_transitions: self.class_transitions,
        }
    }

    fn name(&self) -> &'static str {
        "threshold-m23"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEngine;
    use fourcycle_graph::UpdateOp::{Delete, Insert};

    /// A dense-ish scripted stream with a hub vertex that crosses the
    /// heavy/light threshold repeatedly, exercising transitions and the era
    /// rebuild, cross-checked against the oracle after each update.
    #[test]
    fn agrees_with_naive_on_hub_stream() {
        use std::collections::HashSet;
        let mut engine = ThresholdEngine::new();
        let mut naive = NaiveEngine::new();
        let mut present: HashSet<(QRel, u32, u32)> = HashSet::new();
        // Applies only well-formed updates (the counters enforce the same
        // contract on real streams).
        let apply = |e: &mut ThresholdEngine,
                     n: &mut NaiveEngine,
                     present: &mut HashSet<(QRel, u32, u32)>,
                     rel: QRel,
                     l: u32,
                     r: u32,
                     op| {
            let ok = match op {
                Insert => present.insert((rel, l, r)),
                Delete => present.remove(&(rel, l, r)),
            };
            if ok {
                e.apply_update(rel, l, r, op);
                n.apply_update(rel, l, r, op);
            }
        };

        // Hub 100 in L2 connected to many L1/L3 vertices; a second hub 200 in L3.
        for i in 0..12u32 {
            apply(
                &mut engine,
                &mut naive,
                &mut present,
                QRel::A,
                i,
                100,
                Insert,
            );
            apply(
                &mut engine,
                &mut naive,
                &mut present,
                QRel::B,
                100,
                200 + (i % 4),
                Insert,
            );
            apply(
                &mut engine,
                &mut naive,
                &mut present,
                QRel::C,
                200 + (i % 4),
                300 + (i % 3),
                Insert,
            );
            apply(
                &mut engine,
                &mut naive,
                &mut present,
                QRel::A,
                i,
                101 + (i % 5),
                Insert,
            );
            apply(
                &mut engine,
                &mut naive,
                &mut present,
                QRel::B,
                101 + (i % 5),
                200,
                Insert,
            );
            apply(
                &mut engine,
                &mut naive,
                &mut present,
                QRel::C,
                200,
                300,
                Insert,
            );
            for u in [0u32, 3, 7] {
                for v in [300u32, 301, 302] {
                    assert_eq!(
                        engine.query(u, v),
                        naive.query(u, v),
                        "step {i} query ({u},{v})"
                    );
                }
            }
        }
        // Delete some of the hub's edges so it drops back below the threshold.
        for i in 0..8u32 {
            apply(
                &mut engine,
                &mut naive,
                &mut present,
                QRel::A,
                i,
                100,
                Delete,
            );
            for u in [0u32, 9, 11] {
                for v in [300u32, 301, 302] {
                    assert_eq!(
                        engine.query(u, v),
                        naive.query(u, v),
                        "delete {i} query ({u},{v})"
                    );
                }
            }
        }
        assert!(engine.threshold() >= 1);
        assert!(engine.work() > 0);
    }

    #[test]
    fn empty_engine_answers_zero() {
        let mut engine = ThresholdEngine::new();
        assert_eq!(engine.query(1, 2), 0);
    }
}
