//! The main algorithm of the paper (§4–§7): worst-case `O(m^{2/3−ε})` update
//! time for fully dynamic layered 4-cycle counting, using fast matrix
//! multiplication.
//!
//! # Architecture
//!
//! The engine keeps its state in four parts, all but the first keyed by
//! *dense ids*:
//!
//! * One vertex interner per layer `L1`–`L4` maps a client id to a dense
//!   id of that layer, `0..n` in order of first sight (§3.2 restricts each
//!   relation to its non-zero-degree vertices to reduce the dimension).
//!   Client ids are translated only at the [`ThreePathEngine`] boundary:
//!   updates intern them, `query` and `has_edge` look them up, answer 0 or
//!   `false` for an id the engine has not seen and intern nothing, and
//!   `edges` translates dense ids back through the interners. An
//!   era rebuild re-interns only the live vertices, and one also runs, at
//!   the era scale already held, once a layer's interner holds more than
//!   twice its live vertices plus a slack, so memory tracks the live graph
//!   even at a steady size under vertex-id churn. Everything below sees
//!   dense ids only, including [`FmmEngine::debug_state`].
//! * [`state::GraphState`] — the three relations `A`, `B`, `C`, each split
//!   into an *old* and a *new* signed edge multiset (§5.1: `P_new` is the
//!   current phase plus the previous one, `P_old` everything older; a
//!   deletion of an old edge is a "negative edge" in the new multiset,
//!   §3.3), plus the stored degree classes of every vertex
//!   (Tiny/Low/Medium/High for `L1`, `L4` and Tiny/Sparse/Dense for `L2`,
//!   `L3`, §4 and §6), one `Vec` per layer indexed by id, and the High and
//!   Dense members as lists of ids. Each relation is one
//!   [`tagged::TaggedAdjacency`] holding a pair once, as `[old, new]`
//!   weights whose sum is the current graph, in rows indexed by id and
//!   read through total, old or new views.
//! * [`rules::Structures`] — every pair-count data structure of Tables 2–3
//!   (Eq 12–18) plus the phase-split auxiliaries needed to maintain them,
//!   each a [`table::PairTable`], one seeded hash map keyed by the pair
//!   of dense ids, all driven by a single uniform rule: *given one signed,
//!   phase-tagged edge event, add the number of pattern completions formed
//!   with the other currently-present edges.*
//! * the phase machinery in this module — event logs for the current and
//!   previous phase, rollover (re-tagging the events that leave the "new"
//!   window as `−1@new, +1@old` through the phase-split tables only, see
//!   [`rules`]), vertex class transitions (§7: remove the vertex's incident
//!   edges, flip its class, re-insert them, once its degree leaves the
//!   factor-2 band of its stored class), and era rebuilds when `m` drifts by
//!   a factor of two.
//!
//! ## General sessions: `A = B = C`, stored once
//!
//! §8 gives a general graph's engine every edge `{u, v}` as `A`, `B` and
//! `C`, each in both orientations. [`SymmetricFmmEngine`] runs the same
//! engine over one copy of that relation. The kind is the `SYMMETRIC`
//! const parameter of [`FmmEngine`], [`state::GraphState`],
//! [`rules::Structures`] and [`tagged::TaggedAdjacency`] (default
//! `false`), so the three-relation engine compiles without any of the
//! symmetric branches. The symmetric kind keeps:
//!
//! * one interner for all four layers, and one symmetric
//!   [`tagged::TaggedAdjacency`] holding `{u, v}` as `(u, v)` and `(v, u)`,
//!   read as `A`, `B` and `C` alike;
//! * one endpoint class (`L1` = `L4`) and one middle class (`L2` = `L3`) per
//!   vertex, one High list and one Dense list ([`state::GraphState`]);
//! * only the A·B-side and self-symmetric tables: each B·C-side table is a
//!   transpose of an A·B-side one and is read as such ([`rules`]).
//!
//! A general update is one [`rules::Structures::pair`] change: the rules of
//! its `A` copies, then of its `B` copies, then of its `C` copies, as a
//! three-relation engine would run them, minus every write to an aliased
//! table. A class transition removes and re-inserts each of the vertex's
//! pairs the same way, an era rebuild inserts every pair, and a rollover
//! re-tags each logged pair. `m`, and so every threshold and the phase
//! length, counts six layered edges per general edge, as three relations
//! would; the phase clock advances six per general update, and the era and
//! phase checks run once, after the whole update. All copies of a pair thus
//! carry one tag, and the transposes hold by construction.
//!
//! # Where fast matrix multiplication enters
//!
//! At a phase rollover the structures that depend *only* on old-phase edges
//! (`A^{∗D}_{old}·B^{DD}_{old}`, `A^{HS}_{old}·B^{SS}_{old}`,
//! `B^{SS}_{old}·C^{SH}_{old}` and
//! `A^{HS}_{old}·B^{SS}_{old}·C^{SH}_{old}`) can either be updated by the
//! uniform replay (combinatorial path) or recomputed from scratch as matrix
//! products over the class-restricted old submatrices
//! ([`FmmConfig::use_fmm`]), which is exactly the product the paper schedules
//! across a phase (Eq 9). Both paths produce identical tables (differential
//! tests enforce this); perfbench's traced `engine.fmm` and `engine.fmm-dense`
//! arms compare their cost.
//!
//! # Deviations from the paper
//!
//! * Work that the paper de-amortizes (spreading matrix products across a
//!   phase, building a transitioning vertex's new structures while it sits
//!   in the overlap band) is performed eagerly at the rollover / transition,
//!   so our bounds are amortized rather than worst-case; total work per
//!   phase is the same. A rollover re-tags only the phase-split tables,
//!   whose contents depend on the old/new split; the other tables would
//!   receive a `−s@new, +s@old` pair that cancels exactly.
//! * §7's factor-2 overlap band is used as hysteresis: a vertex keeps its
//!   stored class `c` while `class(deg) ≤ c ≤ class(2·deg)`. Promotion fires
//!   at the sharp threshold (so a Tiny vertex never exceeds the Tiny
//!   degree); demotion waits until the degree falls below half the class's
//!   lower threshold, so a degree flapping across one threshold costs one
//!   transition, not one per step. Counts stay exact because every rule and
//!   query reads stored classes; only the cost bounds use the degrees, and a
//!   stored class is off by at most a factor of two.
//! * The `A_old·B_new·C_old` combination, which the paper routes through the
//!   §3 warm-up subroutine, is maintained here as the `(old, new, old)`
//!   member of the Eq-15 family (correct, with an extra `m^{3ε}` factor on
//!   `B`-updates). That member is the only implementation of §3 in the
//!   workspace; `core/tests/differential.rs`'s
//!   `fmm_rollover_changes_only_the_phase_split_of_the_tables` checks it
//!   (`hss3[old][new][old]`) against its definition throughout a stream with
//!   frequent rollovers.
//! * Low–low queries resolve dense–dense middles from the `C` side only, so
//!   the symmetric half of Eq 13 (`B^{DD}_{old}·C^{D∗}_{new}`) is not
//!   stored.
//! * A general session's engine keeps one interner, one adjacency and the
//!   A·B-side tables where §8's layered copy has three relations and both
//!   sides; its rollovers and era rebuilds happen only between general
//!   updates, never between the relation copies of one update (module
//!   docs, "General sessions").

pub mod query;
pub mod rules;
pub mod state;
pub mod table;
pub mod tagged;

use crate::engine::{QRel, SlowPathStats, ThreePathEngine};
use fourcycle_graph::{
    ClassThresholds, CompactIndex, EndpointClass, UpdateOp, VertexId, COMPACT_SLACK,
};
use fourcycle_matrix::{MulAlgorithm, SparseMatrix};
use rules::{Rules, Structures};
use state::{GraphState, Role, Tag};
use table::PairTable;

/// Configuration of the main engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmmConfig {
    /// The update-exponent slack `ε` of Theorem 2 (determines every degree
    /// threshold). Defaults to the ideal-`ω` value `1/24`; the current-`ω`
    /// value `0.009811` is equally valid and only changes constants at
    /// implementable scales.
    pub eps: f64,
    /// The phase-length slack `δ` (`m^{1−δ}` updates per phase). Defaults to
    /// `3ε` (Eq 10 tight).
    pub delta: f64,
    /// Use the dense/sparse matrix-product path to rebuild the pure-old
    /// structures at each phase rollover instead of the uniform replay.
    pub use_fmm: bool,
    /// Optional hard override of the phase length (used by tests to force
    /// frequent rollovers).
    pub phase_len_override: Option<usize>,
}

impl Default for FmmConfig {
    fn default() -> Self {
        let eps = 1.0 / 24.0;
        Self {
            eps,
            delta: 3.0 * eps,
            use_fmm: false,
            phase_len_override: None,
        }
    }
}

impl FmmConfig {
    /// The configuration matching the paper's current-`ω` parameters
    /// (`ε = 0.009811`, `δ = 3ε`).
    pub fn current_omega() -> Self {
        let eps = fourcycle_complexity::PAPER_EPS_CURRENT;
        Self {
            eps,
            delta: 3.0 * eps,
            use_fmm: false,
            phase_len_override: None,
        }
    }
}

/// One logged edge event of the current or previous phase. A symmetric
/// engine logs each general pair once, as its `A` copy.
type Event = (QRel, VertexId, VertexId, i64);

/// The position of dense id `id` in a `Vec` indexed by id.
fn slot(id: VertexId) -> usize {
    usize::try_from(id).unwrap_or(usize::MAX)
}

/// The dense id at position `i` of an interner or of a `Vec` indexed by id.
#[expect(
    clippy::expect_used,
    reason = "a layer interns distinct u32 ids, so it holds at most 2^32 of them"
)]
fn dense_id(i: usize) -> VertexId {
    VertexId::try_from(i).expect("a layer holds at most 2^32 vertices")
}

/// The layers (`0` = `L1` … `3` = `L4`) of a relation's left and right
/// endpoints.
fn layers(rel: QRel) -> (usize, usize) {
    (rel.index(), rel.index() + 1)
}

/// The main engine (§4–§7). `SYMMETRIC` selects, at compile time, the
/// engine over one symmetric relation that [`SymmetricFmmEngine`] wraps.
pub struct FmmEngine<const SYMMETRIC: bool = false> {
    cfg: FmmConfig,
    /// Client id → dense id, per layer `L1`–`L4` (module docs).
    ids: [CompactIndex; 4],
    state: GraphState<SYMMETRIC>,
    structs: Structures<SYMMETRIC>,
    /// Events of the previous phase (will leave the "new" window at the next
    /// rollover).
    prev_phase: Vec<Event>,
    /// Events of the current phase.
    cur_phase: Vec<Event>,
    updates_in_phase: usize,
    rollovers: usize,
    era_rebuilds: usize,
    class_transitions: u64,
    query_work: u64,
}

impl FmmEngine {
    /// Creates an empty engine.
    pub fn new(cfg: FmmConfig) -> Self {
        Self::empty(cfg)
    }
}

impl<const SYMMETRIC: bool> FmmEngine<SYMMETRIC> {
    fn empty(cfg: FmmConfig) -> Self {
        let thresholds = ClassThresholds::with_delta(1, cfg.eps, cfg.delta);
        Self {
            cfg,
            ids: Default::default(),
            state: GraphState::empty(thresholds),
            structs: Structures::empty(),
            prev_phase: Vec::new(),
            cur_phase: Vec::new(),
            updates_in_phase: 0,
            rollovers: 0,
            era_rebuilds: 0,
            class_transitions: 0,
            query_work: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &FmmConfig {
        &self.cfg
    }

    /// Number of phase rollovers performed so far.
    pub fn rollovers(&self) -> usize {
        self.rollovers
    }

    /// Number of era rebuilds performed so far.
    pub fn era_rebuilds(&self) -> usize {
        self.era_rebuilds
    }

    /// Access to the internal state, in dense ids (used by white-box tests).
    #[doc(hidden)]
    pub fn debug_state(&self) -> (&GraphState<SYMMETRIC>, &Structures<SYMMETRIC>) {
        (&self.state, &self.structs)
    }

    /// The layer interners, `L1` first: position `i` of layer `k` holds the
    /// client id of dense id `i` (used by white-box tests).
    #[doc(hidden)]
    pub fn layer_ids(&self) -> &[CompactIndex; 4] {
        &self.ids
    }

    /// The interner of `layer`: its own, or in a symmetric engine the one
    /// interner of all four layers (`L1`'s).
    fn layer(&self, layer: usize) -> usize {
        if SYMMETRIC {
            0
        } else {
            layer
        }
    }

    /// The dense ids of `(left, right)` in `rel`, interning unseen ones.
    fn intern(&mut self, rel: QRel, left: VertexId, right: VertexId) -> (VertexId, VertexId) {
        let (l, r) = layers(rel);
        let (l, r) = (self.layer(l), self.layer(r));
        (
            dense_id(self.ids[l].insert(left)),
            dense_id(self.ids[r].insert(right)),
        )
    }

    /// The dense id of client id `v` in `layer`, if the engine has seen it.
    fn lookup(&self, layer: usize, v: VertexId) -> Option<VertexId> {
        self.ids[self.layer(layer)].index_of(v).map(dense_id)
    }

    fn phase_len(&self) -> usize {
        self.cfg
            .phase_len_override
            .unwrap_or(self.state.thresholds.phase_len)
            .max(1)
    }

    /// Reclassifies `role`-vertex `w` once its degree leaves the band of its
    /// stored class ([`GraphState::class_change`], §7): remove its incident
    /// (tagged, signed) edges, flip the class, re-insert them.
    fn maybe_transition(&mut self, role: Role, w: VertexId) {
        let Some(class) = self.state.class_change(role, w) else {
            return;
        };
        self.class_transitions += 1;
        let entries = self.state.incident_tagged_entries(role, w);
        for &(rel, tag, l, r, wgt) in &entries {
            self.state.add_edge_weight(rel, tag, l, r, -wgt);
            self.structs.apply(&self.state, rel, tag, l, r, -wgt);
        }
        self.state.set_stored_class(role, w, class);
        for &(rel, tag, l, r, wgt) in &entries {
            self.structs.apply(&self.state, rel, tag, l, r, wgt);
            self.state.add_edge_weight(rel, tag, l, r, wgt);
        }
    }

    /// [`maybe_transition`](Self::maybe_transition) for a symmetric
    /// engine, whose vertex has one endpoint and one middle class: if
    /// either leaves its band, remove `w`'s pairs, re-file both, re-insert
    /// them, each pair as one [`Structures::pair`] change.
    fn maybe_transition_pair(&mut self, w: VertexId) {
        let changes: Vec<_> = [Role::Ep1, Role::Mid2]
            .into_iter()
            .filter_map(|role| Some((role, self.state.class_change(role, w)?)))
            .collect();
        if changes.is_empty() {
            return;
        }
        self.class_transitions += u64::try_from(changes.len()).unwrap_or(u64::MAX);
        let entries = self.state.incident_tagged_entries(Role::Ep1, w);
        for &(_, tag, l, r, wgt) in &entries {
            let change = [(tag, -wgt)];
            self.structs
                .pair(&mut self.state, [l, r], &change, Rules::All);
        }
        for (role, class) in changes {
            self.state.set_stored_class(role, w, class);
        }
        for &(_, tag, l, r, wgt) in &entries {
            let change = [(tag, wgt)];
            self.structs
                .pair(&mut self.state, [l, r], &change, Rules::All);
        }
    }

    /// §8's update of the general edge `{u, v}` in a symmetric engine: one
    /// [`Structures::pair`] change, one log entry, the class checks of both
    /// endpoints, and the era and phase checks after the whole update, with
    /// the phase clock advancing by the six layered copies.
    fn update_pair(&mut self, u: VertexId, v: VertexId, op: UpdateOp) {
        let (a, b) = self.intern(QRel::A, u, v);
        let d = op.sign();
        self.structs
            .pair(&mut self.state, [a, b], &[(Tag::New, d)], Rules::All);
        self.cur_phase.push((QRel::A, a, b, d));
        self.maybe_transition_pair(a);
        self.maybe_transition_pair(b);
        self.settle_clocks(state::LAYERED_COPIES);
    }

    /// The era and phase checks after `ticks` layered events. An era
    /// rebuild also runs, for the era scale already held, once a layer's
    /// interner holds more dead ids than live ones by more than
    /// [`COMPACT_SLACK`], so that memory tracks the live vertices on a
    /// stream of ever-fresh ids (`SignedAdjacency`'s rule).
    fn settle_clocks(&mut self, ticks: usize) {
        let held = self.state.total_edges();
        if self.state.thresholds.needs_rebuild(held) {
            self.rebuild_era(held);
            return;
        }
        if self.holds_dead_ids() {
            self.rebuild_era(self.state.thresholds.m_hat);
            return;
        }
        self.updates_in_phase += ticks;
        if self.updates_in_phase >= self.phase_len() {
            self.rollover();
        }
    }

    /// Phase rollover (§5.1): the previous phase's events leave the "new"
    /// window and are re-tagged as old, which only the phase-split tables
    /// see ([`Structures::retag`]); the current phase becomes the previous
    /// one.
    fn rollover(&mut self) {
        let rolled = std::mem::take(&mut self.prev_phase);
        self.structs.skip_pure_old = self.cfg.use_fmm;
        for &(rel, l, r, s) in &rolled {
            if SYMMETRIC {
                let retag = [(Tag::New, -s), (Tag::Old, s)];
                self.structs
                    .pair(&mut self.state, [l, r], &retag, Rules::PhaseSplit);
            } else {
                self.structs.retag(&self.state, rel, l, r, s);
                self.state.retag_new_to_old(rel, l, r, s);
            }
        }
        self.structs.skip_pure_old = false;
        if self.cfg.use_fmm {
            self.rebuild_pure_old_structures();
        }
        self.prev_phase = std::mem::take(&mut self.cur_phase);
        self.updates_in_phase = 0;
        self.rollovers += 1;
    }

    /// An engine holding `edges` (client ids; a symmetric engine takes each
    /// general edge once, as `A`), built by one era rebuild for the era
    /// scale `m_hat`, with `work` starting at `work`. An auto engine
    /// switches into the main engine this way ([`crate::AutoEngine`]).
    pub(crate) fn from_edges(
        cfg: FmmConfig,
        edges: Vec<(QRel, VertexId, VertexId)>,
        m_hat: usize,
        work: u64,
    ) -> Self {
        let mut engine = Self::empty(cfg);
        engine.structs.work = work;
        engine.rebuild_from(edges, m_hat);
        engine
    }

    /// Whether some layer's interner holds more than `2·live + COMPACT_SLACK`
    /// ids, `live` counting the layer's vertices with a non-zero degree.
    fn holds_dead_ids(&self) -> bool {
        let layers = if SYMMETRIC { 1 } else { 4 };
        (0..layers).any(|k| self.ids[k].len() > 2 * self.state.live(k) + COMPACT_SLACK)
    }

    /// Era rebuild: thresholds are recomputed for the era scale `m_hat`,
    /// every current edge is re-accounted as old, and the phase clock
    /// restarts. The layers re-intern only the vertices of current edges.
    fn rebuild_era(&mut self, m_hat: usize) {
        let edges = self
            .state
            .current_edges()
            .into_iter()
            .map(|(rel, l, r)| {
                let (ll, rl) = layers(rel);
                let left = self.ids[self.layer(ll)].vertex_at(slot(l));
                (rel, left, self.ids[self.layer(rl)].vertex_at(slot(r)))
            })
            .collect();
        self.rebuild_from(edges, m_hat);
    }

    /// The body of an era rebuild over `edges`, in client ids
    /// ([`GraphState::current_edges`]'s form), with thresholds for the era
    /// scale `m_hat`. The old state, structures and phase logs are freed
    /// before the new ones are built, so a rebuild never holds two engines.
    fn rebuild_from(&mut self, mut edges: Vec<(QRel, VertexId, VertexId)>, m_hat: usize) {
        let thresholds = ClassThresholds::with_delta(m_hat.max(1), self.cfg.eps, self.cfg.delta);
        let work = self.structs.work;
        self.ids = Default::default();
        self.state = GraphState::empty(thresholds);
        self.structs = Structures::empty();
        self.prev_phase = Vec::new();
        self.cur_phase = Vec::new();
        for (rel, l, r) in &mut edges {
            (*l, *r) = self.intern(*rel, *l, *r);
        }
        let (state, structs) = (&mut self.state, &mut self.structs);
        state.preset_classes_from_edges(&edges);
        structs.work = work;
        structs.skip_pure_old = self.cfg.use_fmm;
        for &(rel, l, r) in &edges {
            if SYMMETRIC {
                structs.pair(state, [l, r], &[(Tag::Old, 1)], Rules::All);
            } else {
                structs.apply(state, rel, Tag::Old, l, r, 1);
                state.add_edge_weight(rel, Tag::Old, l, r, 1);
            }
        }
        structs.skip_pure_old = false;
        drop(edges);
        if self.cfg.use_fmm {
            self.rebuild_pure_old_structures();
        }
        self.updates_in_phase = 0;
        self.era_rebuilds += 1;
    }

    /// Recomputes the structures that depend only on old-phase edges (and are
    /// not read by any maintenance rule) as
    /// (class-restricted) matrix products — the paper's use of fast matrix
    /// multiplication during a phase (§5.1). Dense Strassen multiplication is
    /// used while the dimensions are moderate, a sparse product above that.
    fn rebuild_pure_old_structures(&mut self) {
        const DENSE_LIMIT: usize = 1024;
        let st = &self.state;

        // A^{*D}_old · B^{DD}_old  (keys: (u ∈ L1, y ∈ Dense L3)).
        let a_old = st.adj(QRel::A, Some(Tag::Old));
        let b_old = st.adj(QRel::B, Some(Tag::Old));
        let c_old = st.adj(QRel::C, Some(Tag::Old));

        let rows_l1 = CompactIndex::from_vertices(a_old.left_vertices());
        let mid_d2 = CompactIndex::from_vertices(st.dense_l2().iter().copied());
        let cols_d3 = CompactIndex::from_vertices(st.dense_l3().iter().copied());
        let a_mat = build_sparse(&rows_l1, &mid_d2, a_old.iter());
        let b_dd = build_sparse(&mid_d2, &cols_d3, b_old.iter());
        self.structs.abd_oo = product_to_counts(&a_mat, &b_dd, &rows_l1, &cols_d3, DENSE_LIMIT);

        // A^{HS}_old · B^{SS}_old (intermediate for the triple product; the
        // aux table itself stays incrementally maintained because the
        // mixed-phase rules read it during the rollover replay).
        let rows_h1 = CompactIndex::from_vertices(st.high_l1().iter().copied());
        let mid_s2 = CompactIndex::from_vertices(
            a_old
                .iter()
                .filter(|&(u, x, _)| st.ep1(u) == EndpointClass::High && st.is_sparse_l2(x))
                .map(|(_, x, _)| x)
                .chain(
                    b_old
                        .iter()
                        .filter(|&(x, _, _)| st.is_sparse_l2(x))
                        .map(|(x, _, _)| x),
                ),
        );
        let cols_s3 = CompactIndex::from_vertices(
            b_old
                .iter()
                .filter(|&(_, y, _)| st.is_sparse_l3(y))
                .map(|(_, y, _)| y)
                .chain(
                    c_old
                        .iter()
                        .filter(|&(y, _, _)| st.is_sparse_l3(y))
                        .map(|(y, _, _)| y),
                ),
        );
        let a_hs = build_sparse(&rows_h1, &mid_s2, a_old.iter());
        let b_ss = build_sparse(&mid_s2, &cols_s3, b_old.iter());
        let ab_hs_mat = multiply(&a_hs, &b_ss, DENSE_LIMIT);
        let cols_h4 = CompactIndex::from_vertices(st.high_l4().iter().copied());
        let c_sh = build_sparse(&cols_s3, &cols_h4, c_old.iter());

        // A^{HS}_old · B^{SS}_old · C^{SH}_old  (keys: (u ∈ High L1, v ∈ High L4)).
        let hss_mat = multiply(&ab_hs_mat, &c_sh, DENSE_LIMIT);
        self.structs.hss3[0][0][0] = sparse_to_counts(&hss_mat, &rows_h1, &cols_h4);
    }
}

/// Builds a sparse matrix from `(left, right, weight)` triples, keeping only
/// entries whose endpoints appear in the row/column indices.
fn build_sparse(
    rows: &CompactIndex,
    cols: &CompactIndex,
    entries: impl Iterator<Item = (VertexId, VertexId, i64)>,
) -> SparseMatrix {
    SparseMatrix::from_triplets(
        rows.len(),
        cols.len(),
        entries.filter_map(|(l, r, w)| Some((rows.index_of(l)?, cols.index_of(r)?, w))),
    )
}

/// Multiplies two sparse matrices, going through the dense (Strassen-capable)
/// kernel when the dimensions are small enough to afford it.
fn multiply(a: &SparseMatrix, b: &SparseMatrix, dense_limit: usize) -> SparseMatrix {
    let max_dim = a.rows().max(a.cols()).max(b.cols());
    if max_dim > 0 && max_dim <= dense_limit {
        let dense = a.to_dense().multiply(&b.to_dense(), MulAlgorithm::Auto);
        SparseMatrix::from_dense(&dense)
    } else {
        a.multiply_sparse(b)
    }
}

/// Converts a product matrix back into pair counts keyed by dense id.
fn sparse_to_counts(m: &SparseMatrix, rows: &CompactIndex, cols: &CompactIndex) -> PairTable {
    let mut out = PairTable::new();
    for (r, c, v) in m.iter() {
        out.add(rows.vertex_at(r), cols.vertex_at(c), v);
    }
    out
}

/// Convenience: multiplies and converts in one step.
fn product_to_counts(
    a: &SparseMatrix,
    b: &SparseMatrix,
    rows: &CompactIndex,
    cols: &CompactIndex,
    dense_limit: usize,
) -> PairTable {
    sparse_to_counts(&multiply(a, b, dense_limit), rows, cols)
}

/// The classification roles of a relation's (left, right) endpoints (§7).
fn endpoint_roles(rel: QRel) -> (Role, Role) {
    match rel {
        QRel::A => (Role::Ep1, Role::Mid2),
        QRel::B => (Role::Mid2, Role::Mid3),
        QRel::C => (Role::Mid3, Role::Ep4),
    }
}

impl<const SYMMETRIC: bool> ThreePathEngine for FmmEngine<SYMMETRIC> {
    fn has_edge(&self, rel: QRel, left: VertexId, right: VertexId) -> bool {
        // Membership is answered from the total (untagged) adjacency: an
        // edge deleted in a later phase than its insertion nets to weight 0
        // across the old/new split, exactly as in the current graph.
        let (l, r) = layers(rel);
        match (self.lookup(l, left), self.lookup(r, right)) {
            (Some(left), Some(right)) => self.state.adj(rel, None).weight(left, right) != 0,
            _ => false,
        }
    }

    fn edges(&self, rel: QRel) -> Vec<(VertexId, VertexId)> {
        let (l, r) = layers(rel);
        let (l, r) = (&self.ids[self.layer(l)], &self.ids[self.layer(r)]);
        self.state
            .adj(rel, None)
            .iter()
            .map(|(left, right, _)| (l.vertex_at(slot(left)), r.vertex_at(slot(right))))
            .collect()
    }

    fn apply_batch(&mut self, rel: QRel, updates: &[(VertexId, VertexId, UpdateOp)]) {
        // Net per-pair deltas: every maintained structure is multilinear in
        // the tagged signed edge multisets, so applying the net sign once
        // yields the same tables, and cancelled pairs never enter the phase
        // event log (they would otherwise cost rollover replay work later).
        // Class transitions (§7) are settled once per touched vertex at the
        // end of the batch — the rules read *stored* classes, so the tables
        // remain internally consistent mid-batch — and the era/phase clocks
        // tick per batch instead of per update, which is exactly the
        // amortization the paper's phase structure (§5.1) is built around.
        let events = fourcycle_graph::coalesce_updates(updates);
        let (role_l, role_r) = endpoint_roles(rel);
        let mut touched: Vec<(Role, VertexId)> = Vec::with_capacity(events.len() * 2);
        for &(l, r, s) in &events {
            let (l, r) = self.intern(rel, l, r);
            self.structs.apply(&self.state, rel, Tag::New, l, r, s);
            self.state.add_edge_weight(rel, Tag::New, l, r, s);
            self.cur_phase.push((rel, l, r, s));
            touched.push((role_l, l));
            touched.push((role_r, r));
        }
        touched.sort_unstable();
        touched.dedup();
        for (role, w) in touched {
            self.maybe_transition(role, w);
        }
        self.settle_clocks(events.len());
    }

    fn query(&mut self, u: VertexId, v: VertexId) -> i64 {
        match (self.lookup(0, u), self.lookup(3, v)) {
            (Some(u), Some(v)) => self.query_impl(u, v),
            // An unseen endpoint has no edges, so no 3-path.
            _ => 0,
        }
    }

    fn work(&self) -> u64 {
        self.structs.work + self.query_work
    }

    fn slow_path_stats(&self) -> SlowPathStats {
        SlowPathStats {
            era_rebuilds: u64::try_from(self.era_rebuilds).unwrap_or(u64::MAX),
            phase_rollovers: u64::try_from(self.rollovers).unwrap_or(u64::MAX),
            class_transitions: self.class_transitions,
        }
    }

    fn name(&self) -> &'static str {
        if self.cfg.use_fmm {
            "fmm-main-dense"
        } else {
            "fmm-main"
        }
    }
}

/// The main engine over §8's layered copy of a general graph, where
/// `A = B = C`: one interner for all four layers, one symmetric phase-tagged
/// adjacency holding each general edge as `(u, v)` and `(v, u)`, one
/// endpoint and one middle class per vertex, and only the A·B-side tables
/// (module docs, "General sessions"). It takes general updates only, so no
/// caller can hand it a per-relation one; [`crate::GeneralEngine`] runs it
/// for the fmm kinds.
pub struct SymmetricFmmEngine(FmmEngine<true>);

impl SymmetricFmmEngine {
    /// Creates an empty engine.
    pub fn new(cfg: FmmConfig) -> Self {
        Self(FmmEngine::empty(cfg))
    }

    /// An engine holding the general `edges`, each once, built by one era
    /// rebuild for the era scale `m_hat` (in layered edges), with `work`
    /// starting at `work` (the auto kind's switch).
    pub(crate) fn from_edges(
        cfg: FmmConfig,
        edges: &[(VertexId, VertexId)],
        m_hat: usize,
        work: u64,
    ) -> Self {
        let edges = edges.iter().map(|&(u, v)| (QRel::A, u, v)).collect();
        Self(FmmEngine::from_edges(cfg, edges, m_hat, work))
    }

    /// Inserts or deletes the general edge `{u, v}` in `A`, `B` and `C`, in
    /// both orientations. The caller keeps the stream well-formed.
    pub fn update(&mut self, u: VertexId, v: VertexId, op: UpdateOp) {
        self.0.update_pair(u, v, op);
    }

    /// Inserts the general `edges`, each once and none present, by one era
    /// rebuild over the engine's edges and them, handed over hubs first and
    /// built for the era the per-update rule would reach. The old state is
    /// freed before the new one is built; `work` and the slow-path counters
    /// carry on, plus the one era rebuild.
    pub(crate) fn insert_all(&mut self, edges: &[(VertexId, VertexId)]) {
        let held = self.0.state.total_edges();
        let era = crate::auto::era_after(self.0.state.thresholds, held, edges.len());
        let mut all = self.edges();
        all.extend_from_slice(edges);
        let all = crate::auto::hubs_first(all)
            .into_iter()
            .map(|(u, v)| (QRel::A, u, v))
            .collect();
        self.0.rebuild_from(all, era.m_hat);
    }

    /// The number of 3-walks `u – x – y – v` in the current graph, §8's
    /// query.
    pub fn query(&mut self, u: VertexId, v: VertexId) -> i64 {
        self.0.query(u, v)
    }

    /// Whether the current graph holds the edge `{u, v}`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.0.has_edge(QRel::A, u, v)
    }

    /// Every current edge, once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges = self.0.edges(QRel::A);
        edges.retain(|&(u, v)| u < v);
        edges
    }

    /// Elementary operations performed so far.
    pub fn work(&self) -> u64 {
        self.0.work()
    }

    /// The slow paths taken so far; a class transition counts each class
    /// re-filed, endpoint or middle.
    pub fn slow_path_stats(&self) -> SlowPathStats {
        self.0.slow_path_stats()
    }

    /// The engine's name, as [`FmmEngine`]'s.
    pub fn name(&self) -> &'static str {
        self.0.name()
    }

    /// Access to the internal state, in dense ids (used by white-box tests).
    #[doc(hidden)]
    pub fn debug_state(&self) -> (&GraphState<true>, &Structures<true>) {
        self.0.debug_state()
    }

    /// The one interner: position `i` holds the client id of dense id `i`
    /// (used by white-box tests).
    #[doc(hidden)]
    pub fn ids(&self) -> &CompactIndex {
        &self.0.ids[0]
    }
}
