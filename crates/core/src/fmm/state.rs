//! Phase-tagged graph state and stored degree classes for the main engine.
//!
//! Each of the three relations is one [`TaggedAdjacency`]: every pair keeps
//! an *old* weight (edges accounted to phases older than the previous one)
//! and a *new* weight (events of the previous and current phase, §5.1), and
//! its *total* (current-graph) weight is their sum. [`GraphState::adj`]
//! reads any of the three as a [`TaggedView`]. Tagged weights may be
//! negative ("negative edges", §3.3).
//!
//! Vertex classes are *stored* rather than derived on demand: the engine
//! reclassifies a vertex explicitly (§7) by replaying its incident edges, so
//! every data-structure rule sees a single consistent classification. A
//! stored class may lag the degree by up to the factor-2 band of §7
//! ([`GraphState::class_change`]).
//!
//! Every vertex here is a dense id of its layer (see the `fmm` module
//! docs): a layer's stored classes are one `Vec` indexed by id, and its
//! High or Dense members one list of ids.
//!
//! A *symmetric* state (`GraphState<true>`) holds §8's layered copy of a
//! general graph, where `A = B = C` and the four layers are one vertex set:
//! one symmetric adjacency serves all three relations, and one endpoint
//! class (`L1` = `L4`) and one middle class (`L2` = `L3`) per vertex, with
//! one High list and one Dense list, serve all four layers.

use super::tagged::{Delta, TaggedAdjacency, TaggedView};
use super::{dense_id, layers, slot};
use crate::engine::QRel;
use fourcycle_graph::{ClassThresholds, EndpointClass, MiddleClass, VertexId};

/// Factor of the §7 overlap band: a vertex keeps its stored class until its
/// degree falls below `1/CLASS_BAND` of that class's lower threshold.
const CLASS_BAND: usize = 2;

/// Phase tag of an edge event (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    /// Phases older than the previous phase (`P_old`).
    Old,
    /// The previous and current phase (`P_new`).
    New,
}

impl Tag {
    /// Index 0 (old) / 1 (new), used for the phase-split structure arrays.
    pub fn index(self) -> usize {
        match self {
            Tag::Old => 0,
            Tag::New => 1,
        }
    }

    /// Both tags, old first.
    pub const BOTH: [Tag; 2] = [Tag::Old, Tag::New];
}

/// Which classification a vertex is being handled under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Role {
    /// `L1` endpoint (classified by degree in `A`).
    Ep1,
    /// `L2` middle (classified by combined degree in `A`, `B`).
    Mid2,
    /// `L3` middle (classified by combined degree in `B`, `C`).
    Mid3,
    /// `L4` endpoint (classified by degree in `C`).
    Ep4,
}

/// A unified class code so transitions can handle endpoint and middle
/// classes with one type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassCode {
    /// Endpoint class (L1/L4).
    Endpoint(EndpointClass),
    /// Middle class (L2/L3).
    Middle(MiddleClass),
}

/// The layered edges one general edge stands for in a symmetric state: §8
/// puts `{u, v}` in `A`, `B` and `C`, in both orientations.
pub const LAYERED_COPIES: usize = 6;

/// The engine's graph state: tagged adjacency, thresholds and stored classes.
/// `SYMMETRIC` selects a symmetric state (module docs) at compile time.
pub struct GraphState<const SYMMETRIC: bool = false> {
    /// Relations indexed by [`QRel::index`]; a symmetric state uses only
    /// the first, for all three.
    rels: [TaggedAdjacency<SYMMETRIC>; 3],
    /// Degree thresholds of the current era.
    pub thresholds: ClassThresholds,
    /// Stored endpoint classes by id, `[L1, L4]`; ids past the end are
    /// Tiny. Like the other per-side fields, a symmetric state uses only
    /// the first.
    ep: [Vec<EndpointClass>; 2],
    /// Stored middle classes by id, `[L2, L3]`.
    mid: [Vec<MiddleClass>; 2],
    /// High-degree vertices, `[L1, L4]`, each once, in no particular order
    /// (a small set, iterated by rules/queries).
    high: [Vec<VertexId>; 2],
    /// Dense vertices, `[L2, L3]`.
    dense: [Vec<VertexId>; 2],
    /// Vertices with a non-zero degree in their layer, `L1` to `L4`; a
    /// symmetric state counts its one vertex set in the first.
    live: [usize; 4],
}

impl GraphState {
    /// Creates an empty state with the given thresholds.
    pub fn new(thresholds: ClassThresholds) -> Self {
        Self::empty(thresholds)
    }
}

impl<const SYMMETRIC: bool> GraphState<SYMMETRIC> {
    /// An empty state with the given thresholds.
    pub fn empty(thresholds: ClassThresholds) -> Self {
        Self {
            rels: Default::default(),
            thresholds,
            ep: Default::default(),
            mid: Default::default(),
            high: Default::default(),
            dense: Default::default(),
            live: [0; 4],
        }
    }

    /// Index of the `L3`/`L4` side in the per-side fields: 1, or 0 in a
    /// symmetric state.
    const FAR: usize = if SYMMETRIC { 0 } else { 1 };

    fn rel_slot(rel: QRel) -> usize {
        if SYMMETRIC {
            0
        } else {
            rel.index()
        }
    }

    /// The requested weights: `None` → the total (current) graph,
    /// `Some(tag)` → the tagged multiset.
    pub fn adj(&self, rel: QRel, tag: Option<Tag>) -> TaggedView<'_, SYMMETRIC> {
        self.rels[Self::rel_slot(rel)].view(tag)
    }

    /// Adds `delta` to the tagged multiset, and so to the total graph. In a
    /// symmetric state this writes the pair in both orientations, and so in
    /// all three relations.
    pub fn add_edge_weight(&mut self, rel: QRel, tag: Tag, l: VertexId, r: VertexId, delta: i64) {
        let turn = self.rels[Self::rel_slot(rel)].add(tag, l, r, delta);
        if turn != 0 {
            let (l_layer, r_layer) = if SYMMETRIC { (0, 0) } else { layers(rel) };
            self.recount_live(l_layer, l, turn);
            self.recount_live(r_layer, r, turn);
        }
    }

    /// Adds `delta` to the `[old, new]` weights of the pair `{a, b}` of a
    /// symmetric state.
    pub fn add_pair_delta(&mut self, a: VertexId, b: VertexId, delta: Delta) {
        debug_assert!(SYMMETRIC, "pairs are a symmetric state's");
        let turn = self.rels[0].add_delta(a, b, delta);
        if turn != 0 {
            self.recount_live(0, a, turn);
            self.recount_live(0, b, turn);
        }
    }

    /// Keeps [`live`](Self::live) counting after an edge of `w` in `layer`
    /// appeared (`turn` 1) or vanished (−1): `w` came alive if its degree
    /// is now 1, and died if it is now 0.
    fn recount_live(&mut self, layer: usize, w: VertexId, turn: i64) {
        match (turn, self.layer_degree(layer, w)) {
            (1, 1) => self.live[layer] += 1,
            (-1, 0) => self.live[layer] -= 1,
            _ => {}
        }
    }

    /// Vertices of `layer` (`0` = `L1` … `3` = `L4`) with a non-zero degree
    /// there; a symmetric state has one vertex set, `layer` 0.
    pub fn live(&self, layer: usize) -> usize {
        self.live[layer]
    }

    /// The degree of `w` in `layer`: its role's classifying degree.
    fn layer_degree(&self, layer: usize, w: VertexId) -> usize {
        match layer {
            0 => self.deg_l1(w),
            1 => self.deg_l2(w),
            2 => self.deg_l3(w),
            _ => self.deg_l4(w),
        }
    }

    /// Moves weight `s` of the pair from the new multiset to the old one
    /// (rollover); the total is unchanged.
    pub fn retag_new_to_old(&mut self, rel: QRel, l: VertexId, r: VertexId, s: i64) {
        self.rels[Self::rel_slot(rel)].retag_new_to_old(l, r, s);
    }

    /// Total number of edges currently present (the paper's `m`). A
    /// symmetric state counts each general edge as its six layered copies.
    pub fn total_edges(&self) -> usize {
        if SYMMETRIC {
            LAYERED_COPIES * self.rels[0].view(None).len()
        } else {
            self.rels.iter().map(|r| r.view(None).len()).sum()
        }
    }

    /// Every currently present edge as `(rel, left, right)`. A symmetric
    /// state lists each general edge `{a, b}` once, as `(A, a, b)` with
    /// `a < b`.
    pub fn current_edges(&self) -> Vec<(QRel, VertexId, VertexId)> {
        let rels: &[QRel] = if SYMMETRIC { &[QRel::A] } else { &QRel::ALL };
        let mut out = Vec::with_capacity(self.total_edges());
        for &rel in rels {
            for (l, r, w) in self.adj(rel, None).iter() {
                debug_assert!(w == 1, "current graph must be simple");
                if !SYMMETRIC || l < r {
                    out.push((rel, l, r));
                }
            }
        }
        out
    }

    // ---- degrees --------------------------------------------------------

    /// Degree of an `L1` vertex in `A`.
    pub fn deg_l1(&self, u: VertexId) -> usize {
        self.adj(QRel::A, None).degree_left(u)
    }

    /// Combined degree of an `L2` vertex in `A` and `B`.
    pub fn deg_l2(&self, x: VertexId) -> usize {
        self.adj(QRel::A, None).degree_right(x) + self.adj(QRel::B, None).degree_left(x)
    }

    /// Combined degree of an `L3` vertex in `B` and `C`.
    pub fn deg_l3(&self, y: VertexId) -> usize {
        self.adj(QRel::B, None).degree_right(y) + self.adj(QRel::C, None).degree_left(y)
    }

    /// Degree of an `L4` vertex in `C`.
    pub fn deg_l4(&self, v: VertexId) -> usize {
        self.adj(QRel::C, None).degree_right(v)
    }

    /// The degree that classifies `w` in `role`.
    fn degree(&self, role: Role, w: VertexId) -> usize {
        match role {
            Role::Ep1 => self.deg_l1(w),
            Role::Mid2 => self.deg_l2(w),
            Role::Mid3 => self.deg_l3(w),
            Role::Ep4 => self.deg_l4(w),
        }
    }

    // ---- stored classes -------------------------------------------------

    /// Stored class of an `L1` endpoint (Tiny if never classified).
    pub fn ep1(&self, u: VertexId) -> EndpointClass {
        stored(&self.ep[0], u)
    }

    /// Stored class of an `L4` endpoint.
    pub fn ep4(&self, v: VertexId) -> EndpointClass {
        stored(&self.ep[Self::FAR], v)
    }

    /// Stored class of an `L2` middle.
    pub fn mid2(&self, x: VertexId) -> MiddleClass {
        stored(&self.mid[0], x)
    }

    /// Stored class of an `L3` middle.
    pub fn mid3(&self, y: VertexId) -> MiddleClass {
        stored(&self.mid[Self::FAR], y)
    }

    /// High-degree vertices of `L1`.
    pub fn high_l1(&self) -> &[VertexId] {
        &self.high[0]
    }

    /// High-degree vertices of `L4`.
    pub fn high_l4(&self) -> &[VertexId] {
        &self.high[Self::FAR]
    }

    /// Dense vertices of `L2`.
    pub fn dense_l2(&self) -> &[VertexId] {
        &self.dense[0]
    }

    /// Dense vertices of `L3`.
    pub fn dense_l3(&self) -> &[VertexId] {
        &self.dense[Self::FAR]
    }

    /// `true` if `x ∈ L2` is Sparse (not Tiny, not Dense).
    pub fn is_sparse_l2(&self, x: VertexId) -> bool {
        self.mid2(x) == MiddleClass::Sparse
    }

    /// `true` if `y ∈ L3` is Sparse.
    pub fn is_sparse_l3(&self, y: VertexId) -> bool {
        self.mid3(y) == MiddleClass::Sparse
    }

    /// The class a vertex is currently stored under.
    pub fn stored_class(&self, role: Role, w: VertexId) -> ClassCode {
        match role {
            Role::Ep1 => ClassCode::Endpoint(self.ep1(w)),
            Role::Ep4 => ClassCode::Endpoint(self.ep4(w)),
            Role::Mid2 => ClassCode::Middle(self.mid2(w)),
            Role::Mid3 => ClassCode::Middle(self.mid3(w)),
        }
    }

    /// The class `w` must be re-filed under, or `None` while its stored
    /// class `c` lies in the §7 band `class(deg) ≤ c ≤ class(2·deg)`.
    /// Promotion thus fires at the sharp threshold, demotion only once the
    /// degree falls below half the stored class's lower threshold, and
    /// either way the vertex moves to its sharp class `class(deg)`.
    pub fn class_change(&self, role: Role, w: VertexId) -> Option<ClassCode> {
        let deg = self.degree(role, w);
        let t = &self.thresholds;
        match self.stored_class(role, w) {
            ClassCode::Endpoint(c) => {
                outside_band(c, deg, |d| t.endpoint_class(d)).map(ClassCode::Endpoint)
            }
            ClassCode::Middle(c) => {
                outside_band(c, deg, |d| t.middle_class(d)).map(ClassCode::Middle)
            }
        }
    }

    /// Overwrites a vertex's stored class (and the High/Dense member lists).
    /// In a symmetric state `Ep4` is `Ep1` and `Mid3` is `Mid2`.
    pub fn set_stored_class(&mut self, role: Role, w: VertexId, class: ClassCode) {
        let far = Self::FAR;
        match (role, class) {
            (Role::Ep1, ClassCode::Endpoint(c)) => file(&mut self.ep[0], &mut self.high[0], w, c),
            (Role::Ep4, ClassCode::Endpoint(c)) => {
                file(&mut self.ep[far], &mut self.high[far], w, c)
            }
            (Role::Mid2, ClassCode::Middle(c)) => file(&mut self.mid[0], &mut self.dense[0], w, c),
            (Role::Mid3, ClassCode::Middle(c)) => {
                file(&mut self.mid[far], &mut self.dense[far], w, c)
            }
            #[expect(
                clippy::panic,
                reason = "callers pair each Role with its own class code"
            )]
            _ => panic!("class code does not match vertex role"),
        }
    }

    /// All non-zero tagged entries incident to `w` in the relations adjoining
    /// its layer, as `(rel, tag, left, right, weight)` — including entries
    /// whose total weight is zero (an edge inserted in an old phase and
    /// deleted in the new window still contributes to phase-split
    /// structures). In a symmetric state `Role::Ep1` lists each pair of `w`
    /// once, as `(A, tag, w, x, weight)`.
    pub fn incident_tagged_entries(
        &self,
        role: Role,
        w: VertexId,
    ) -> Vec<(QRel, Tag, VertexId, VertexId, i64)> {
        let mut out = Vec::new();
        let push_left = |rel: QRel, out: &mut Vec<_>| {
            for tag in Tag::BOTH {
                for (r, wgt) in self.adj(rel, Some(tag)).neighbors_of_left(w) {
                    out.push((rel, tag, w, r, wgt));
                }
            }
        };
        let push_right = |rel: QRel, out: &mut Vec<_>| {
            for tag in Tag::BOTH {
                for (l, wgt) in self.adj(rel, Some(tag)).neighbors_of_right(w) {
                    out.push((rel, tag, l, w, wgt));
                }
            }
        };
        match role {
            Role::Ep1 => push_left(QRel::A, &mut out),
            Role::Mid2 => {
                push_right(QRel::A, &mut out);
                push_left(QRel::B, &mut out);
            }
            Role::Mid3 => {
                push_right(QRel::B, &mut out);
                push_left(QRel::C, &mut out);
            }
            Role::Ep4 => push_right(QRel::C, &mut out),
        }
        out
    }

    /// Pre-sets every vertex's stored class from the degrees implied by the
    /// given edge list (used by the era rebuild, where the final classes are
    /// known before the edges are replayed).
    ///
    /// A symmetric state takes each general edge once, as
    /// [`current_edges`](Self::current_edges) lists it, and files a vertex
    /// of general degree `d` by its layered copies' degrees: `d` as an
    /// endpoint, `2d` as a middle.
    pub fn preset_classes_from_edges(&mut self, edges: &[(QRel, VertexId, VertexId)]) {
        // Degrees by layer, `L1` to `L4`, each indexed by id.
        let mut degrees: [Vec<usize>; 4] = Default::default();
        let mut count = |layer: usize, w: VertexId| {
            let d = &mut degrees[layer];
            let i = slot(w);
            if i >= d.len() {
                d.resize(i + 1, 0);
            }
            d[i] += 1;
        };
        for &(rel, l, r) in edges {
            let (l_layer, r_layer) = if SYMMETRIC { (0, 0) } else { layers(rel) };
            count(l_layer, l);
            count(r_layer, r);
        }
        let t = self.thresholds;
        if SYMMETRIC {
            for (i, d) in degrees[0].iter().enumerate().filter(|&(_, &d)| d > 0) {
                let w = dense_id(i);
                self.set_stored_class(Role::Ep1, w, ClassCode::Endpoint(t.endpoint_class(*d)));
                self.set_stored_class(Role::Mid2, w, ClassCode::Middle(t.middle_class(2 * d)));
            }
            return;
        }
        let roles = [Role::Ep1, Role::Mid2, Role::Mid3, Role::Ep4];
        for (role, degrees) in roles.into_iter().zip(degrees) {
            for (i, d) in degrees.into_iter().enumerate().filter(|&(_, d)| d > 0) {
                let class = match role {
                    Role::Ep1 | Role::Ep4 => ClassCode::Endpoint(t.endpoint_class(d)),
                    Role::Mid2 | Role::Mid3 => ClassCode::Middle(t.middle_class(d)),
                };
                self.set_stored_class(role, dense_id(i), class);
            }
        }
    }
}

/// `Some(class(deg))` if `stored` lies outside
/// `[class(deg), class(CLASS_BAND·deg)]`.
fn outside_band<C: Ord + Copy>(stored: C, deg: usize, class: impl Fn(usize) -> C) -> Option<C> {
    let sharp = class(deg);
    (stored < sharp || stored > class(deg.saturating_mul(CLASS_BAND))).then_some(sharp)
}

/// A layer's class type.
trait LayerClass: Copy + PartialEq {
    /// The class of a vertex never classified.
    const UNSET: Self;
    /// The class whose members the layer lists (High or Dense).
    const LISTED: Self;
}

impl LayerClass for EndpointClass {
    const UNSET: Self = EndpointClass::Tiny;
    const LISTED: Self = EndpointClass::High;
}

impl LayerClass for MiddleClass {
    const UNSET: Self = MiddleClass::Tiny;
    const LISTED: Self = MiddleClass::Dense;
}

/// The class stored at `w` in `classes`.
fn stored<C: LayerClass>(classes: &[C], w: VertexId) -> C {
    classes.get(slot(w)).copied().unwrap_or(C::UNSET)
}

/// Stores `class` at `w` in `classes`, and keeps `listed` holding exactly
/// the vertices stored as [`LayerClass::LISTED`].
fn file<C: LayerClass>(classes: &mut Vec<C>, listed: &mut Vec<VertexId>, w: VertexId, class: C) {
    let i = slot(w);
    if i >= classes.len() {
        classes.resize(i + 1, C::UNSET);
    }
    let was = std::mem::replace(&mut classes[i], class);
    if was != C::LISTED && class == C::LISTED {
        listed.push(w);
    } else if was == C::LISTED && class != C::LISTED {
        if let Some(pos) = listed.iter().position(|&m| m == w) {
            listed.swap_remove(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_state() -> GraphState {
        GraphState::new(ClassThresholds::with_delta(100, 1.0 / 24.0, 1.0 / 8.0))
    }

    #[test]
    fn tagged_adjacency_and_retagging() {
        let mut st = small_state();
        st.add_edge_weight(QRel::B, Tag::New, 1, 2, 1);
        assert_eq!(st.adj(QRel::B, Some(Tag::New)).weight(1, 2), 1);
        assert_eq!(st.adj(QRel::B, None).weight(1, 2), 1);
        st.retag_new_to_old(QRel::B, 1, 2, 1);
        assert_eq!(st.adj(QRel::B, Some(Tag::New)).weight(1, 2), 0);
        assert_eq!(st.adj(QRel::B, Some(Tag::Old)).weight(1, 2), 1);
        assert_eq!(st.adj(QRel::B, None).weight(1, 2), 1);
        assert_eq!(st.total_edges(), 1);
    }

    #[test]
    fn negative_edges_keep_tagged_entries() {
        let mut st = small_state();
        st.add_edge_weight(QRel::A, Tag::Old, 1, 2, 1);
        st.add_edge_weight(QRel::A, Tag::New, 1, 2, -1);
        assert_eq!(st.adj(QRel::A, None).weight(1, 2), 0);
        assert_eq!(st.total_edges(), 0);
        // The transition machinery must still see both tagged entries.
        let entries = st.incident_tagged_entries(Role::Ep1, 1);
        assert_eq!(entries.len(), 2);
    }

    #[test]
    fn classes_default_to_tiny_and_sets_track_high() {
        let mut st = small_state();
        assert_eq!(st.ep1(7), EndpointClass::Tiny);
        assert_eq!(st.mid3(7), MiddleClass::Tiny);
        st.set_stored_class(Role::Ep1, 7, ClassCode::Endpoint(EndpointClass::High));
        assert!(st.high_l1().contains(&7));
        st.set_stored_class(Role::Ep1, 7, ClassCode::Endpoint(EndpointClass::Low));
        assert!(!st.high_l1().contains(&7));
        st.set_stored_class(Role::Mid2, 9, ClassCode::Middle(MiddleClass::Dense));
        assert!(st.dense_l2().contains(&9));
    }

    #[test]
    fn preset_classes_from_edges_matches_thresholds() {
        let mut st = small_state();
        let mut edges = Vec::new();
        // Vertex 1 in L1 gets a degree above the High threshold.
        for x in 0..(st.thresholds.high_lo as u32 + 1) {
            edges.push((QRel::A, 1u32, 100 + x));
        }
        edges.push((QRel::B, 100, 200));
        st.preset_classes_from_edges(&edges);
        assert_eq!(st.ep1(1), EndpointClass::High);
        assert!(st.high_l1().contains(&1));
        assert_eq!(st.mid2(100), st.thresholds.middle_class(2));
    }

    #[test]
    #[should_panic(expected = "class code does not match")]
    fn mismatched_class_code_panics() {
        let mut st = small_state();
        st.set_stored_class(Role::Ep1, 1, ClassCode::Middle(MiddleClass::Dense));
    }
}
