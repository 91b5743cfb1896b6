//! The engine interface shared by every counting algorithm.
//!
//! §2.2 ("Equivalent Queries") reduces maintaining the layered 4-cycle count
//! to the following single-rotation problem, which is what a
//! [`ThreePathEngine`] solves:
//!
//! > A 4-layered graph undergoes edge updates in `A`, `B` and `C`. At any
//! > point a query `(u ∈ L1, v ∈ L4)` asks for the number of 3-paths between
//! > `u` and `v` that go through `A`, `B` and `C`.
//!
//! The paper runs four copies of its algorithm, one per relation playing the
//! role of the query matrix `D`; [`crate::LayeredCycleCounter`] does the same
//! with four rotated engine instances. [`crate::FourCycleCounter`] runs one
//! [`GeneralEngine`]: in §8's layered copy of a general graph all four
//! relations hold the same edges, so the four rotations would be identical.
//! The same symmetry holds inside that engine, where `A = B = C`: the fmm
//! kinds store the relation once ([`crate::SymmetricFmmEngine`]), and the
//! other kinds receive it as three relation copies.

use crate::error::{BatchError, UpdateError};
use fourcycle_graph::{UpdateOp, VertexId};

/// A relation in the *engine's own frame*: the three matrices it maintains
/// data structures over. (The fourth matrix — the query matrix `D` of the
/// paper — is never seen by the engine.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QRel {
    /// The relation between the engine's `L1` and `L2`.
    A,
    /// The relation between the engine's `L2` and `L3`.
    B,
    /// The relation between the engine's `L3` and `L4`.
    C,
}

impl QRel {
    /// All three relations.
    pub const ALL: [QRel; 3] = [QRel::A, QRel::B, QRel::C];

    /// Index 0..=2.
    pub fn index(self) -> usize {
        match self {
            QRel::A => 0,
            QRel::B => 1,
            QRel::C => 2,
        }
    }
}

/// Counters of the amortized "slow paths" an engine has taken so far.
///
/// Every engine in this crate hides occasional expensive maintenance behind
/// its per-update bound: the threshold engine rebuilds from scratch when `m`
/// drifts by a factor of two (its *era* rule) and re-inserts a vertex's
/// incident edges when it crosses the heavy/light boundary; the main engine
/// additionally rolls its phase window every `m^{1−δ}` updates (§5.1). These
/// events dominate worst-case latency, so workload scenarios that claim to
/// stress them must be able to *prove* they fired — that is what this hook
/// is for (see `fourcycle-workloads`' scenario generators and the
/// `ScenarioRunner` in `fourcycle-bench`).
///
/// ```
/// use fourcycle_core::SlowPathStats;
///
/// let mut total = SlowPathStats::default();
/// total.merge(SlowPathStats {
///     era_rebuilds: 1,
///     phase_rollovers: 3,
///     class_transitions: 7,
/// });
/// assert_eq!(total.era_rebuilds, 1);
/// assert_eq!(total.phase_rollovers, 3);
/// assert_eq!(total.class_transitions, 7);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlowPathStats {
    /// Full rebuilds with fresh thresholds (the factor-2 era rule of both
    /// the threshold engine and the main engine).
    pub era_rebuilds: u64,
    /// Phase-window rollovers of the main engine (§5.1); always zero for
    /// engines without a phase clock.
    pub phase_rollovers: u64,
    /// Vertex degree-class transitions (heavy/light for the threshold
    /// engine, the §7 class flips for the main engine).
    pub class_transitions: u64,
}

impl SlowPathStats {
    /// Accumulates another engine's counters into this one (used by
    /// [`crate::LayeredCycleCounter`], which runs four rotated engine
    /// instances).
    pub fn merge(&mut self, other: SlowPathStats) {
        self.era_rebuilds += other.era_rebuilds;
        self.phase_rollovers += other.phase_rollovers;
        self.class_transitions += other.class_transitions;
    }
}

/// A maintenance-and-query engine for the §2.2 problem.
///
/// Implementations must tolerate arbitrary well-formed fully dynamic streams
/// (no duplicate inserts, no deletes of absent edges — enforced by the
/// counters) and must return *exact* path counts.
///
/// `Send` is a supertrait: the sharded runtime (`fourcycle-runtime`) moves
/// whole counters — and with them every boxed engine — onto shard worker
/// threads, so an engine that grows a `!Send` member (an `Rc`, a raw
/// pointer) must fail to compile *here*, at the engine, rather than deep
/// inside a `thread::spawn` bound. The compile-time assertions in
/// `facade/tests/send_assertions.rs` pin the same property for every
/// concrete engine, counter, view and the service.
pub trait ThreePathEngine: Send {
    /// Applies a batch of updates to one relation. `left` is each update's
    /// endpoint in the relation's lower layer (`L1` for `A`, `L2` for `B`,
    /// `L3` for `C`), `right` the endpoint in the higher layer.
    ///
    /// This is the only way an update enters an engine. It must leave the
    /// engine in a state *query-equivalent* to applying the entries one at a
    /// time, in order; engines coalesce same-pair deltas and settle
    /// class-transition / rebuild / rollover bookkeeping once per batch,
    /// matching the phase structure of the paper (§5.1). Queries between the
    /// updates of a batch are not observable — callers needing per-update
    /// query interleaving (e.g. the counters' count maintenance) must split
    /// batches at the query points, which is what
    /// `LayeredCycleCounter::try_apply_batch` does.
    fn apply_batch(&mut self, rel: QRel, updates: &[(VertexId, VertexId, UpdateOp)]);

    /// Applies one edge update: a one-entry [`apply_batch`](Self::apply_batch),
    /// which runs the same rules in the same order as a single update.
    fn apply_update(&mut self, rel: QRel, left: VertexId, right: VertexId, op: UpdateOp) {
        self.apply_batch(rel, &[(left, right, op)]);
    }

    /// Whether the engine's *current* graph contains the edge
    /// `(left, right)` of `rel`, answered from the total (untagged)
    /// adjacency the engine already maintains. The engines are the only
    /// copy of a counter's graph, so this is the membership test behind
    /// every validated entry point, here and in both counters.
    fn has_edge(&self, rel: QRel, left: VertexId, right: VertexId) -> bool;

    /// Every edge currently in `rel`, as `(left, right)` in client ids. The
    /// counters build their edge lists (checkpoint images, recomputation
    /// from scratch) from it.
    fn edges(&self, rel: QRel) -> Vec<(VertexId, VertexId)>;

    /// Validated single-update entry point: rejects duplicate inserts and
    /// deletes of absent edges *without* touching any state; a one-entry
    /// [`try_apply_batch`](Self::try_apply_batch).
    fn try_apply_update(
        &mut self,
        rel: QRel,
        left: VertexId,
        right: VertexId,
        op: UpdateOp,
    ) -> Result<(), UpdateError> {
        self.try_apply_batch(rel, &[(left, right, op)])
            .map_err(|e| e.error)
    }

    /// Validated, *atomic* batch entry point: the whole batch is checked
    /// first (against the current graph plus the batch's own earlier
    /// updates, so insert-then-delete of the same pair within one batch is
    /// well-formed), and nothing is applied unless every update is valid.
    /// On rejection the returned [`BatchError`] names the first offending
    /// batch index. The raw [`apply_batch`](Self::apply_batch) remains the
    /// unchecked fast path.
    fn try_apply_batch(
        &mut self,
        rel: QRel,
        updates: &[(VertexId, VertexId, UpdateOp)],
    ) -> Result<(), BatchError> {
        crate::error::validate_batch(
            updates,
            |&(l, r, op)| Ok(((l, r), op)),
            |&(l, r, _)| self.has_edge(rel, l, r),
        )?;
        self.apply_batch(rel, updates);
        Ok(())
    }

    /// Returns the number of 3-paths `u –A– x –B– y –C– v` in the current
    /// graph, where `u ∈ L1` and `v ∈ L4`.
    fn query(&mut self, u: VertexId, v: VertexId) -> i64;

    /// Total number of elementary operations performed so far (inner-loop
    /// iterations of maintenance and queries). Used by the scaling
    /// experiment (T4) as a machine-independent cost measure.
    fn work(&self) -> u64;

    /// How often the engine's amortized slow paths (era rebuilds, phase
    /// rollovers, class transitions) have fired. Engines without such
    /// machinery report all-zero counters, which is the default.
    fn slow_path_stats(&self) -> SlowPathStats {
        SlowPathStats::default()
    }

    /// Short, stable engine name for reports.
    fn name(&self) -> &'static str;
}

/// Selector for constructing engines generically (used by the counters, the
/// experiment harness and the differential tests).
///
/// ```
/// use fourcycle_core::{EngineKind, QRel};
/// use fourcycle_graph::UpdateOp;
///
/// // Every kind builds a ready-to-use engine behind the same trait.
/// for kind in EngineKind::ALL {
///     let mut engine = kind.build();
///     engine.apply_update(QRel::A, 1, 2, UpdateOp::Insert);
///     engine.apply_update(QRel::B, 2, 3, UpdateOp::Insert);
///     engine.apply_update(QRel::C, 3, 4, UpdateOp::Insert);
///     assert_eq!(engine.query(1, 4), 1, "{}", engine.name());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// [`crate::NaiveEngine`] — enumeration oracle.
    Naive,
    /// [`crate::SimpleEngine`] — Appendix A, `O(n)` updates.
    Simple,
    /// [`crate::ThresholdEngine`] — HHH22-style `O(m^{2/3})` baseline.
    Threshold,
    /// [`crate::FmmEngine`] — the paper's main algorithm (§4–§7) with the
    /// combinatorial rollover path.
    Fmm,
    /// [`crate::FmmEngine`] with the dense (Strassen) rollover path enabled.
    FmmDense,
    /// [`crate::AutoEngine`] — [`Simple`](Self::Simple) while the graph is
    /// small, then one rebuild into [`Fmm`](Self::Fmm) once the engine holds
    /// a measured number of layered edges, never back (ADR-011). The kind a
    /// session gets by default.
    Auto,
}

/// Shared construction options for [`EngineKind::build_with`]: the one
/// place the `FmmConfig` of a counter's, view's or session's engines is
/// chosen.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineConfig {
    /// Configuration of the main (§4–§7) engine. `use_fmm` is forced on for
    /// [`EngineKind::FmmDense`] and off for [`EngineKind::Fmm`] and
    /// [`EngineKind::Auto`].
    pub fmm: crate::FmmConfig,
}

impl EngineKind {
    /// All selectable kinds.
    pub const ALL: [EngineKind; 6] = [
        EngineKind::Naive,
        EngineKind::Simple,
        EngineKind::Threshold,
        EngineKind::Fmm,
        EngineKind::FmmDense,
        EngineKind::Auto,
    ];

    /// Builds a fresh engine of this kind with default configuration.
    pub fn build(self) -> Box<dyn ThreePathEngine> {
        self.build_with(&EngineConfig::default())
    }

    /// Builds a fresh engine of this kind from a shared configuration.
    pub fn build_with(self, config: &EngineConfig) -> Box<dyn ThreePathEngine> {
        match self {
            EngineKind::Naive => Box::new(crate::NaiveEngine::new()),
            EngineKind::Simple => Box::new(crate::SimpleEngine::new()),
            EngineKind::Threshold => Box::new(crate::ThresholdEngine::new()),
            EngineKind::Fmm | EngineKind::FmmDense => {
                Box::new(crate::FmmEngine::new(self.fmm_config(config)))
            }
            EngineKind::Auto => Box::new(crate::AutoEngine::new(self.fmm_config(config))),
        }
    }

    /// The main engine's configuration for this kind: `use_fmm` on for
    /// [`EngineKind::FmmDense`] only.
    fn fmm_config(self, config: &EngineConfig) -> crate::FmmConfig {
        crate::FmmConfig {
            use_fmm: self == EngineKind::FmmDense,
            ..config.fmm
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Naive => "naive",
            EngineKind::Simple => "simple-appendix-a",
            EngineKind::Threshold => "threshold-m23",
            EngineKind::Fmm => "fmm-main",
            EngineKind::FmmDense => "fmm-main-dense",
            EngineKind::Auto => "auto-simple-fmm",
        }
    }
}

/// The engine of a general session (§8): it holds the general graph as
/// `A`, `B` and `C`, each in both orientations, and answers Claim 8.1's
/// 3-path query. It takes general updates only.
///
/// ```
/// use fourcycle_core::{EngineConfig, EngineKind, GeneralEngine};
/// use fourcycle_graph::UpdateOp;
///
/// for kind in EngineKind::ALL {
///     let mut engine = GeneralEngine::build(kind, &EngineConfig::default());
///     for (u, v) in [(1, 2), (2, 3), (3, 4)] {
///         engine.update(u, v, UpdateOp::Insert);
///     }
///     assert_eq!(engine.query(1, 4), 1, "{}", engine.name()); // 1–2–3–4
///     assert_eq!(engine.edges().len(), 3);
///     assert!(engine.has_edge(3, 2));
/// }
/// ```
pub enum GeneralEngine {
    /// A per-relation engine, given each general update as three
    /// two-orientation [`ThreePathEngine::apply_batch`] calls, `A` first.
    Relations(Box<dyn ThreePathEngine>),
    /// The main engine over one symmetric adjacency.
    Symmetric(Box<crate::SymmetricFmmEngine>),
    /// [`EngineKind::Auto`] before its switch: an [`crate::AutoEngine`] on
    /// its simple engine, given updates as [`Relations`](Self::Relations)
    /// gives them. Once it holds the auto kind's switch point in layered
    /// edges (six per general edge), it is rebuilt into
    /// [`Symmetric`](Self::Symmetric) ([`crate::auto`]).
    Auto(Box<crate::AutoEngine>),
}

impl GeneralEngine {
    /// The engine a general session of `kind` runs: the symmetric engine
    /// for the two fmm kinds, the simple engine until its switch for the
    /// auto kind, the kind's own engine otherwise.
    pub fn build(kind: EngineKind, config: &EngineConfig) -> Self {
        match kind {
            EngineKind::Fmm | EngineKind::FmmDense => Self::Symmetric(Box::new(
                crate::SymmetricFmmEngine::new(kind.fmm_config(config)),
            )),
            EngineKind::Auto => {
                Self::Auto(Box::new(crate::AutoEngine::new(kind.fmm_config(config))))
            }
            _ => Self::Relations(kind.build_with(config)),
        }
    }

    /// Inserts or deletes the general edge `{u, v}`. The caller keeps the
    /// stream well-formed.
    pub fn update(&mut self, u: VertexId, v: VertexId, op: UpdateOp) {
        match self {
            Self::Relations(engine) => {
                for rel in QRel::ALL {
                    engine.apply_batch(rel, &[(u, v, op), (v, u, op)]);
                }
            }
            Self::Symmetric(engine) => engine.update(u, v, op),
            Self::Auto(engine) => {
                if let Some(grown) = engine.update_general(u, v, op) {
                    *self = Self::Symmetric(grown);
                }
            }
        }
    }

    /// Inserts the general `edges`, each once and none present, by one era
    /// rebuild of the symmetric engine (the bulk path of
    /// [`crate::FourCycleCounter::try_apply_batch`]), if this engine is the
    /// symmetric one or is the auto kind's and they carry it to its switch
    /// point; otherwise returns `false` and changes nothing.
    pub(crate) fn load(&mut self, edges: &[(VertexId, VertexId)]) -> bool {
        match self {
            Self::Relations(_) => false,
            Self::Symmetric(engine) => {
                engine.insert_all(edges);
                true
            }
            Self::Auto(engine) => {
                let Some(grown) = engine.grow_with(edges) else {
                    return false;
                };
                *self = Self::Symmetric(grown);
                true
            }
        }
    }

    /// The number of layered 3-paths from `u ∈ L1` to `v ∈ L4`: the
    /// general graph's 3-walks from `u` to `v`.
    pub fn query(&mut self, u: VertexId, v: VertexId) -> i64 {
        match self {
            Self::Relations(engine) => engine.query(u, v),
            Self::Symmetric(engine) => engine.query(u, v),
            Self::Auto(engine) => engine.query(u, v),
        }
    }

    /// Whether the current graph holds the edge `{u, v}`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        match self {
            Self::Relations(engine) => engine.has_edge(QRel::A, u, v),
            Self::Symmetric(engine) => engine.has_edge(u, v),
            Self::Auto(engine) => engine.has_edge(QRel::A, u, v),
        }
    }

    /// Every current edge, once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        let mut edges = match self {
            Self::Relations(engine) => engine.edges(QRel::A),
            Self::Symmetric(engine) => return engine.edges(),
            Self::Auto(engine) => engine.edges(QRel::A),
        };
        edges.retain(|&(u, v)| u < v);
        edges
    }

    /// Elementary operations performed so far.
    pub fn work(&self) -> u64 {
        match self {
            Self::Relations(engine) => engine.work(),
            Self::Symmetric(engine) => engine.work(),
            Self::Auto(engine) => engine.work(),
        }
    }

    /// The slow paths taken so far.
    pub fn slow_path_stats(&self) -> SlowPathStats {
        match self {
            Self::Relations(engine) => engine.slow_path_stats(),
            Self::Symmetric(engine) => engine.slow_path_stats(),
            Self::Auto(engine) => engine.slow_path_stats(),
        }
    }

    /// Short, stable engine name for reports: the engine running now, or
    /// the auto kind's name before its switch.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Relations(engine) => engine.name(),
            Self::Symmetric(engine) => engine.name(),
            Self::Auto(..) => EngineKind::Auto.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qrel_indices_are_distinct() {
        let idx: Vec<usize> = QRel::ALL.iter().map(|r| r.index()).collect();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn engine_kind_builds_every_variant() {
        for kind in EngineKind::ALL {
            let engine = kind.build();
            assert_eq!(engine.name(), kind.name());
            assert_eq!(engine.work(), 0);
        }
    }

    #[test]
    fn build_with_respects_config() {
        let config = EngineConfig {
            fmm: crate::FmmConfig {
                phase_len_override: Some(17),
                ..Default::default()
            },
        };
        for kind in EngineKind::ALL {
            let engine = kind.build_with(&config);
            assert_eq!(engine.name(), kind.name(), "use_fmm forced per kind");
        }
    }

    #[test]
    fn default_apply_batch_matches_per_update() {
        use fourcycle_graph::UpdateOp::{Delete, Insert};
        let updates = [
            (1u32, 2u32, Insert),
            (1, 3, Insert),
            (2, 3, Insert),
            (1, 2, Delete),
            (1, 2, Insert),
        ];
        let mut batched = crate::NaiveEngine::new();
        // The trait's provided `apply_update` (one-entry batches) through a
        // dyn object.
        let seq: &mut dyn ThreePathEngine = &mut crate::SimpleEngine::new();
        batched.apply_batch(QRel::A, &updates);
        for &(l, r, op) in &updates {
            seq.apply_update(QRel::A, l, r, op);
        }
        for u in 0..4u32 {
            for v in 0..4u32 {
                assert_eq!(batched.query(u, v), seq.query(u, v));
            }
        }
        let mut edges = seq.edges(QRel::A);
        edges.sort_unstable();
        assert_eq!(edges, vec![(1, 2), (1, 3), (2, 3)]);
        assert_eq!(batched.edges(QRel::A).len(), 3);
    }
}
