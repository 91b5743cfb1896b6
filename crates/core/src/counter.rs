//! The top-level counters: layered 4-cycles (Theorem 2) and general-graph
//! 4-cycles (Theorem 1, via the §8 reduction).
//!
//! * [`LayeredCycleCounter`] runs four rotated [`ThreePathEngine`] instances,
//!   one per relation playing the role of the query matrix `D` (§2.2: "we can
//!   run 4 copies of this algorithm"). Every update is routed to the three
//!   engines that maintain data structures over that relation, and the count
//!   delta is obtained from the fourth engine's query.
//! * [`FourCycleCounter`] implements §8 on one [`GeneralEngine`] (the `D`
//!   rotation; §8 puts the edge in all four relations, so the other three
//!   rotations would be copies). A general edge `{u, v}` stands for itself,
//!   in both orientations, in that engine's `A`, `B` and `C`: the fmm kinds
//!   store it once, in a [`crate::SymmetricFmmEngine`], and the other kinds
//!   receive it as three two-orientation batches. The number of new
//!   4-cycles through the edge equals the number of layered 3-paths from
//!   `u ∈ L1` to `v ∈ L4`, queried while the edge is absent from `A`, `B`,
//!   `C` (Claim 8.1 — that is what makes the walks simple paths).
//!
//! The engines are the only copy of a counter's graph. Membership (the
//! validation of every update) and edge lists come from the engines'
//! `has_edge` and `edges`: a layered counter asks the rotation that holds
//! the relation as its `A`, a general counter its one engine. Each counter
//! has one write path: its `try_apply_batch` validates a batch once and
//! routes it to the engines; `try_apply` is a one-update batch, and the
//! skip-semantics `apply_batch` falls back to per-update `try_apply` only
//! for a batch that holds a rejected update.
//!
//! An insert-only batch at least as large as the graph (a session's set-up,
//! or its replay during recovery) is a bulk load: the engines take it
//! whole, without the per-update query points, and the count is recounted
//! on the final graph. A layered counter sums the `D` rotation's query
//! over the `D` edges; a general counter rebuilds its symmetric engine once
//! and uses the walk identity of `four_cycles_from_walks`. Engine kinds
//! on which that measured slower keep the per-update path.

use crate::engine::{
    EngineConfig, EngineKind, GeneralEngine, QRel, SlowPathStats, ThreePathEngine,
};
use crate::error::{BatchError, UpdateError};
use fourcycle_graph::{GraphUpdate, LayeredUpdate, Rel, UpdateOp, VertexId};

/// A consistent point-in-time view of a counter (or service session): the
/// answer, its cost counters, and the epoch it was taken at.
///
/// `epoch` is the number of updates successfully applied so far — rejected
/// and skipped updates do not advance it — so two snapshots with the same
/// epoch are guaranteed to describe the same graph. Readers (dashboards,
/// the scenario runner, service clients) take one `snapshot()` instead of
/// calling `count()` / `total_edges()` / `work()` separately and risking a
/// writer slipping in between the reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The maintained count (layered 4-cycles, which is the cyclic join
    /// size, or general 4-cycles, depending on the structure snapshotted).
    pub count: i64,
    /// Total number of edges / tuples currently present.
    pub total_edges: usize,
    /// Total elementary operations performed so far. A layered counter
    /// sums its four rotated engines; a general counter reports its one
    /// engine.
    pub work: u64,
    /// Amortized slow-path counters, taken over the same engines as `work`.
    pub slow_path: SlowPathStats,
    /// Number of successfully applied updates.
    pub epoch: u64,
}

/// Maintains the exact number of layered 4-cycles of a fully dynamic
/// 4-layered graph.
pub struct LayeredCycleCounter {
    /// `engines[k]` answers queries for updates in relation `Rel::from_index(k)`
    /// and maintains structures over the other three relations.
    engines: [Box<dyn ThreePathEngine>; 4],
    count: i64,
    /// Number of edges currently present, kept by the apply path.
    edges: usize,
    kind: EngineKind,
    /// Number of successfully applied updates (rejected ones don't count).
    epoch: u64,
}

impl LayeredCycleCounter {
    /// Creates a counter over an empty graph using the given engine kind.
    pub fn new(kind: EngineKind) -> Self {
        Self::with_config(kind, &EngineConfig::default())
    }

    /// Creates a counter whose four engines are built from a shared
    /// configuration (the `FmmConfig`).
    pub fn with_config(kind: EngineKind, config: &EngineConfig) -> Self {
        Self {
            engines: [
                kind.build_with(config),
                kind.build_with(config),
                kind.build_with(config),
                kind.build_with(config),
            ],
            count: 0,
            edges: 0,
            kind,
            epoch: 0,
        }
    }

    /// The engine kind driving this counter.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Current number of layered 4-cycles.
    pub fn count(&self) -> i64 {
        self.count
    }

    /// Every edge currently in `rel`, as `(left, right)`, read from the
    /// rotation that holds `rel` as its `A`.
    pub fn edges(&self, rel: Rel) -> Vec<(VertexId, VertexId)> {
        self.engines[Self::holder(rel)].edges(QRel::A)
    }

    /// Current total number of edges (the paper's `m`).
    pub fn total_edges(&self) -> usize {
        self.edges
    }

    /// Total work performed by the four engines.
    pub fn work(&self) -> u64 {
        self.engines.iter().map(|e| e.work()).sum()
    }

    /// Aggregated slow-path counters (era rebuilds, phase rollovers, class
    /// transitions) of the four engines. Workload scenarios that claim to
    /// stress an amortized slow path assert through this hook that the slow
    /// path actually fired.
    pub fn slow_path_stats(&self) -> SlowPathStats {
        let mut total = SlowPathStats::default();
        for engine in &self.engines {
            total.merge(engine.slow_path_stats());
        }
        total
    }

    /// Number of updates successfully applied so far (skipped / rejected
    /// updates do not advance the epoch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Overwrites the applied-update count. Crash recovery
    /// (`fourcycle-store`) rebuilds a counter's *graph* by re-inserting its
    /// checkpointed edge set, which leaves the epoch at the edge count
    /// rather than the historical number of applied updates; this restores
    /// the recorded value so recovered snapshots are indistinguishable from
    /// uninterrupted replay. Not for general use: the epoch is otherwise an
    /// invariant maintained solely by the apply paths.
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// A consistent point-in-time view: count, edge total, work, slow-path
    /// counters and the epoch they were all taken at.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            count: self.count,
            total_edges: self.edges,
            work: self.work(),
            slow_path: self.slow_path_stats(),
            epoch: self.epoch,
        }
    }

    /// The rotation whose `A` is `rel`: it answers `rel`'s membership tests
    /// and edge list.
    fn holder(rel: Rel) -> usize {
        (rel.index() + 3) % 4
    }

    /// Within engine `rot` (whose query matrix is `Rel::from_index(rot)`),
    /// the role played by relation `rel`, if any.
    fn role_in_rotation(rot: usize, rel: Rel) -> Option<QRel> {
        let offset = (rel.index() + 4 - rot) % 4;
        match offset {
            1 => Some(QRel::A),
            2 => Some(QRel::B),
            3 => Some(QRel::C),
            _ => None,
        }
    }

    /// Number of 3-paths between `u ∈ L1` and `v ∈ L4` through `A`, `B`, `C`
    /// (the query answered by the `D`-rotation engine). This is the query
    /// §8 asks per general update; [`FourCycleCounter`] asks it of its one
    /// engine directly.
    pub fn query_paths_through_abc(&mut self, u: VertexId, v: VertexId) -> i64 {
        self.engines[Rel::D.index()].query(u, v)
    }

    /// Applies one layered edge update and returns the new layered 4-cycle
    /// count, or the reason the update was rejected (nothing changes on
    /// rejection). A one-update [`try_apply_batch`](Self::try_apply_batch).
    ///
    /// ```
    /// use fourcycle_core::{EngineKind, LayeredCycleCounter, UpdateError};
    /// use fourcycle_graph::{LayeredUpdate, Rel};
    ///
    /// let mut counter = LayeredCycleCounter::new(EngineKind::Simple);
    /// for update in [
    ///     LayeredUpdate::insert(Rel::A, 1, 2),
    ///     LayeredUpdate::insert(Rel::B, 2, 3),
    ///     LayeredUpdate::insert(Rel::C, 3, 4),
    /// ] {
    ///     counter.try_apply(update).unwrap();
    /// }
    /// let count = counter.try_apply(LayeredUpdate::insert(Rel::D, 4, 1));
    /// assert_eq!(count, Ok(1)); // A–B–C–D closes one layered 4-cycle
    /// assert_eq!(
    ///     counter.try_apply(LayeredUpdate::insert(Rel::D, 4, 1)),
    ///     Err(UpdateError::DuplicateEdge),
    /// );
    /// assert_eq!(counter.snapshot().epoch, 4);
    /// ```
    pub fn try_apply(&mut self, update: LayeredUpdate) -> Result<i64, UpdateError> {
        self.try_apply_batch(std::slice::from_ref(&update))
            .map_err(|e| e.error)
    }

    /// Infallible wrapper over [`try_apply`](Self::try_apply): returns the
    /// new count, or `None` (and changes nothing) if the update was
    /// rejected.
    ///
    /// ```
    /// use fourcycle_core::{EngineKind, LayeredCycleCounter};
    /// use fourcycle_graph::{LayeredUpdate, Rel};
    ///
    /// let mut counter = LayeredCycleCounter::new(EngineKind::Simple);
    /// assert!(counter.apply(LayeredUpdate::insert(Rel::A, 1, 2)).is_some());
    /// assert!(counter.apply(LayeredUpdate::insert(Rel::A, 1, 2)).is_none());
    /// ```
    pub fn apply(&mut self, update: LayeredUpdate) -> Option<i64> {
        self.try_apply(update).ok()
    }

    /// Applies a batch of updates, returning the final count. Ill-formed
    /// updates are skipped (use [`try_apply_batch`](Self::try_apply_batch)
    /// for atomic all-or-nothing semantics), and the final state and count
    /// are identical to sequential application: a batch that validates goes
    /// through [`try_apply_batch`](Self::try_apply_batch) whole, and one
    /// holding a rejected update is applied one [`try_apply`](Self::try_apply)
    /// at a time.
    ///
    /// ```
    /// use fourcycle_core::{EngineKind, LayeredCycleCounter};
    /// use fourcycle_graph::{LayeredUpdate, Rel};
    ///
    /// let batch = vec![
    ///     LayeredUpdate::insert(Rel::A, 1, 2),
    ///     LayeredUpdate::insert(Rel::B, 2, 3),
    ///     LayeredUpdate::insert(Rel::C, 3, 4),
    ///     LayeredUpdate::insert(Rel::D, 4, 1),
    /// ];
    /// let mut batched = LayeredCycleCounter::new(EngineKind::Threshold);
    /// let mut sequential = LayeredCycleCounter::new(EngineKind::Threshold);
    /// for update in &batch {
    ///     sequential.apply(*update);
    /// }
    /// assert_eq!(batched.apply_batch(&batch), sequential.count());
    /// ```
    pub fn apply_batch(&mut self, updates: &[LayeredUpdate]) -> i64 {
        if self.try_apply_batch(updates).is_err() {
            for update in updates {
                let _ = self.try_apply(*update);
            }
        }
        self.count
    }

    /// Atomic batch application: the whole batch is validated once —
    /// against the current graph *plus the batch's own earlier updates*, so
    /// insert-then-delete of the same edge within one batch is well-formed —
    /// and nothing is applied unless every update is valid. On rejection the
    /// [`BatchError`] attributes the failure to the first offending batch
    /// index.
    ///
    /// Count maintenance needs each update's query answered by the engine
    /// whose query matrix is the update's relation, *after* every earlier
    /// batch update that engine maintains. The counter therefore buffers
    /// per-engine sub-batches and flushes an engine lazily, immediately
    /// before querying it; engines never see an update later than a query
    /// that depends on it, and between queries they digest whole runs of
    /// updates at once (coalescing same-pair churn, settling class
    /// transitions and phase bookkeeping once per run).
    ///
    /// An insert-only batch at least as large as the graph skips the query
    /// points on engine kinds where that measured faster
    /// (`LAYERED_BULK_KINDS`): each engine takes its whole sub-batches,
    /// and the count is recounted on the final graph.
    pub fn try_apply_batch(&mut self, updates: &[LayeredUpdate]) -> Result<i64, BatchError> {
        crate::error::validate_batch(
            updates,
            |u| Ok(((u.rel, u.left, u.right), u.op)),
            |u| self.engines[Self::holder(u.rel)].has_edge(QRel::A, u.left, u.right),
        )?;
        if LAYERED_BULK_KINDS.contains(&self.kind) && loads_in_bulk(self.edges, updates, |u| u.op) {
            self.load(updates);
            return Ok(self.count);
        }

        /// Per-engine buffers of updates not yet applied, one per role
        /// (`QRel`), each in arrival order. Order *across* roles is
        /// immaterial to an engine's final state; see the maintenance-rule
        /// multilinearity note in `fmm::rules`.
        type Pending = [Vec<(VertexId, VertexId, UpdateOp)>; 3];
        let mut pending: [Pending; 4] = Default::default();
        let flush = |engine: &mut Box<dyn ThreePathEngine>, pending: &mut Pending| {
            for rel in QRel::ALL {
                let buf = &mut pending[rel.index()];
                if !buf.is_empty() {
                    engine.apply_batch(rel, buf);
                    buf.clear();
                }
            }
        };

        for update in updates {
            // The engine whose query matrix is `update.rel` counts the
            // cycles through the edge: 3-paths from its right endpoint (its
            // L1 in that rotation) to its left endpoint (its L4). The other
            // three engines see the edge as part of their data.
            let k = update.rel.index();
            flush(&mut self.engines[k], &mut pending[k]);
            let delta = self.engines[k].query(update.right, update.left);
            self.count += update.op.sign() * delta;
            for (rot, engine_pending) in pending.iter_mut().enumerate() {
                if let Some(role) = Self::role_in_rotation(rot, update.rel) {
                    engine_pending[role.index()].push((update.left, update.right, update.op));
                }
            }
            match update.op {
                UpdateOp::Insert => self.edges += 1,
                UpdateOp::Delete => self.edges -= 1,
            }
            self.epoch += 1;
        }
        for (engine, engine_pending) in self.engines.iter_mut().zip(pending.iter_mut()) {
            flush(engine, engine_pending);
        }
        Ok(self.count)
    }

    /// The bulk path of [`try_apply_batch`](Self::try_apply_batch), for a
    /// validated insert-only batch ([`loads_in_bulk`]): each rotation takes
    /// its three roles as three whole batches, and the count is recounted
    /// on the final graph. Every layered 4-cycle holds exactly one `D` edge
    /// `(l, r)` and closes exactly one 3-path from `r ∈ L1` to `l ∈ L4`, so
    /// the count is the `D` rotation's query summed over the `D` edges.
    fn load(&mut self, updates: &[LayeredUpdate]) {
        let mut by_rel: [Vec<(VertexId, VertexId, UpdateOp)>; 4] = Default::default();
        for u in updates {
            by_rel[u.rel.index()].push((u.left, u.right, UpdateOp::Insert));
        }
        for (rot, engine) in self.engines.iter_mut().enumerate() {
            for rel in Rel::ALL {
                let batch = &by_rel[rel.index()];
                match Self::role_in_rotation(rot, rel) {
                    Some(role) if !batch.is_empty() => engine.apply_batch(role, batch),
                    _ => {}
                }
            }
        }
        let d_edges = self.edges(Rel::D);
        let query = &mut self.engines[Rel::D.index()];
        self.count = d_edges.iter().map(|&(l, r)| query.query(r, l)).sum();
        self.edges += updates.len();
        self.epoch += u64::try_from(updates.len()).unwrap_or(u64::MAX);
    }
}

/// Engine kinds whose layered counters load an insert-only batch in bulk:
/// those for which the bulk path beat the per-update one at `b = m` on
/// sessions of 150, 600 and 2,000 edges (ADR-001's 2026-10-19 amendment).
/// Threshold lost at 150 edges and fmm at 600 and 2,000, so both keep the
/// per-update path.
const LAYERED_BULK_KINDS: [EngineKind; 4] = [
    EngineKind::Naive,
    EngineKind::Simple,
    EngineKind::FmmDense,
    EngineKind::Auto,
];

/// Whether a counter holding `held` edges may take the validated batch
/// `updates` by its bulk path: the batch inserts only and holds at least
/// as many updates as the counter holds edges. A whole recount then asks
/// at most about as many queries as the per-update path, each on one final
/// graph, and the engines take whole batches instead of runs split at
/// every query. A one-update batch (every `try_apply`) always runs the
/// per-update rules. Whether the engine kind takes it is the caller's.
fn loads_in_bulk<U>(held: usize, updates: &[U], op: impl Fn(&U) -> UpdateOp) -> bool {
    updates.len() >= held.max(2) && updates.iter().all(|u| op(u) == UpdateOp::Insert)
}

/// The number of 4-cycles of a general graph whose `edges` are given each
/// once, from `walks(u, v)`, its number of 3-walks `u – x – y – v`, asked
/// once per edge. For an edge `{u, v}` those walks are the `c(u, v)`
/// 3-paths that close a 4-cycle through it, the `deg(v)` walks with
/// `x = v`, and the `deg(u)` walks with `y = u`, less the one walk
/// `u – v – u – v` counted in both. Each 4-cycle has four edges and
/// `Σ_{uv} (deg(u) + deg(v)) = Σ_v deg(v)²`, so the count is
/// `(Σ_e walks(e) − Σ_v deg(v)² + m) / 4`.
pub(crate) fn four_cycles_from_walks(
    edges: &[(VertexId, VertexId)],
    mut walks: impl FnMut(VertexId, VertexId) -> i64,
) -> i64 {
    let walk_sum: i64 = edges.iter().map(|&(u, v)| walks(u, v)).sum();
    let mut ends: Vec<VertexId> = edges.iter().flat_map(|&(u, v)| [u, v]).collect();
    ends.sort_unstable();
    let square_degrees: i64 = ends
        .chunk_by(|a, b| a == b)
        .map(|run| {
            let degree = i64::try_from(run.len()).unwrap_or(i64::MAX);
            degree * degree
        })
        .sum();
    let m = i64::try_from(edges.len()).unwrap_or(i64::MAX);
    (walk_sum - square_degrees + m) / 4
}

/// Maintains the exact number of 4-cycles of a fully dynamic *general* simple
/// graph (Theorem 1).
pub struct FourCycleCounter {
    /// The `D`-rotation engine of §8's layered copy: it holds the graph as
    /// `A`, `B` and `C`, each in both orientations, and answers Claim 8.1's
    /// 3-path query.
    engine: GeneralEngine,
    count: i64,
    /// Number of edges currently present, kept by the apply path.
    edges: usize,
    /// Number of successfully applied general updates.
    epoch: u64,
}

impl FourCycleCounter {
    /// Creates a counter over an empty graph using the given engine kind.
    pub fn new(kind: EngineKind) -> Self {
        Self::with_config(kind, &EngineConfig::default())
    }

    /// Creates a counter whose engine is built from the given
    /// configuration.
    pub fn with_config(kind: EngineKind, config: &EngineConfig) -> Self {
        Self {
            engine: GeneralEngine::build(kind, config),
            count: 0,
            edges: 0,
            epoch: 0,
        }
    }

    /// The counter's one engine (for white-box tests).
    #[doc(hidden)]
    pub fn engine(&self) -> &GeneralEngine {
        &self.engine
    }

    /// Current number of 4-cycles.
    pub fn count(&self) -> i64 {
        self.count
    }

    /// Every edge currently present, each once as `(u, v)` with `u < v`,
    /// read from the engine.
    pub fn edges(&self) -> Vec<(VertexId, VertexId)> {
        self.engine.edges()
    }

    /// Total work performed so far by the counter's one engine.
    pub fn work(&self) -> u64 {
        self.engine.work()
    }

    /// Slow-path counters of the counter's one engine.
    pub fn slow_path_stats(&self) -> SlowPathStats {
        self.engine.slow_path_stats()
    }

    /// Current total number of edges.
    pub fn total_edges(&self) -> usize {
        self.edges
    }

    /// Number of general updates successfully applied so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Overwrites the applied-update count (crash-recovery hook; see
    /// [`LayeredCycleCounter::restore_epoch`]).
    pub fn restore_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// A consistent point-in-time view: count, edge total, work, slow-path
    /// counters and the epoch they were all taken at. `work` and
    /// `slow_path` are the one engine's.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            count: self.count,
            total_edges: self.edges,
            work: self.work(),
            slow_path: self.slow_path_stats(),
            epoch: self.epoch,
        }
    }

    /// Inserts the edge `{u, v}` and returns the new 4-cycle count, or the
    /// rejection reason (duplicate edge, self-loop) with nothing changed.
    ///
    /// ```
    /// use fourcycle_core::{EngineKind, FourCycleCounter, UpdateError};
    ///
    /// let mut counter = FourCycleCounter::new(EngineKind::Fmm);
    /// for (u, v) in [(1, 2), (2, 3), (3, 4)] {
    ///     counter.try_insert(u, v).unwrap();
    /// }
    /// assert_eq!(counter.try_insert(4, 1), Ok(1));
    /// assert_eq!(counter.try_insert(4, 1), Err(UpdateError::DuplicateEdge));
    /// assert_eq!(counter.try_insert(5, 5), Err(UpdateError::SelfLoop));
    /// assert_eq!(counter.try_delete(2, 3), Ok(0));
    /// assert_eq!(counter.snapshot().epoch, 5);
    /// ```
    pub fn try_insert(&mut self, u: VertexId, v: VertexId) -> Result<i64, UpdateError> {
        self.try_apply(GraphUpdate::insert(u, v))
    }

    /// Deletes the edge `{u, v}` and returns the new 4-cycle count, or the
    /// rejection reason (missing edge, self-loop) with nothing changed.
    pub fn try_delete(&mut self, u: VertexId, v: VertexId) -> Result<i64, UpdateError> {
        self.try_apply(GraphUpdate::delete(u, v))
    }

    /// Infallible wrapper over [`try_insert`](Self::try_insert): returns
    /// `None` if the edge already exists (or is a self-loop).
    pub fn insert(&mut self, u: VertexId, v: VertexId) -> Option<i64> {
        self.try_insert(u, v).ok()
    }

    /// Infallible wrapper over [`try_delete`](Self::try_delete): returns
    /// `None` if the edge is absent.
    pub fn delete(&mut self, u: VertexId, v: VertexId) -> Option<i64> {
        self.try_delete(u, v).ok()
    }

    /// Applies a general-graph update; returns the new count or the
    /// rejection reason with nothing changed. A one-update
    /// [`try_apply_batch`](Self::try_apply_batch).
    pub fn try_apply(&mut self, update: GraphUpdate) -> Result<i64, UpdateError> {
        self.try_apply_batch(std::slice::from_ref(&update))
            .map_err(|e| e.error)
    }

    /// Infallible wrapper over [`try_apply`](Self::try_apply): returns
    /// `None` if the update was ill-formed.
    pub fn apply(&mut self, update: GraphUpdate) -> Option<i64> {
        self.try_apply(update).ok()
    }

    /// Atomic batch application: the whole batch is validated once (against
    /// the current graph plus the batch's own earlier updates) and nothing
    /// is applied unless every update is valid. On rejection the
    /// [`BatchError`] attributes the failure to the first offending batch
    /// index.
    ///
    /// The §8 reduction is inherently query-interleaved — Claim 8.1 requires
    /// each edge's 3-path query to run while that edge is absent from `A`,
    /// `B`, `C`, so each general update pins a query point next to its own
    /// engine update. The batch is therefore applied in order, one query
    /// and one [`GeneralEngine::update`] per update.
    ///
    /// The exception is a bulk load: an insert-only batch at least as large
    /// as the graph, on a session that runs the symmetric fmm engine or
    /// grows into it with this batch. The engine is rebuilt once from the
    /// old and new edges, and the count is recounted on the final graph
    /// from one query per edge (`four_cycles_from_walks`).
    pub fn try_apply_batch(&mut self, updates: &[GraphUpdate]) -> Result<i64, BatchError> {
        crate::error::validate_batch(
            updates,
            |u| {
                if u.u == u.v {
                    Err(UpdateError::SelfLoop)
                } else {
                    Ok((u.canonical(), u.op))
                }
            },
            |u| self.engine.has_edge(u.u, u.v),
        )?;
        if loads_in_bulk(self.edges, updates, |u| u.op)
            && self
                .engine
                .load(&updates.iter().map(|u| (u.u, u.v)).collect::<Vec<_>>())
        {
            self.edges += updates.len();
            self.epoch += u64::try_from(updates.len()).unwrap_or(u64::MAX);
            let edges = self.engine.edges();
            let engine = &mut self.engine;
            self.count = four_cycles_from_walks(&edges, |u, v| engine.query(u, v));
            return Ok(self.count);
        }
        for &GraphUpdate { op, u, v } in updates {
            match op {
                // Claim 8.1: query while (u, v) is absent from A, B, C, so
                // the layered 3-path count equals the number of simple
                // 3-paths between u and v in the general graph.
                UpdateOp::Insert => {
                    self.count += self.engine.query(u, v);
                    self.engine.update(u, v, op);
                    self.edges += 1;
                }
                // Delete from A, B, C first, so the query counts the cycles
                // through the edge in the graph without it.
                UpdateOp::Delete => {
                    self.engine.update(u, v, op);
                    self.count -= self.engine.query(u, v);
                    self.edges -= 1;
                }
            }
            self.epoch += 1;
        }
        Ok(self.count)
    }

    /// Applies a batch of general-graph updates, returning the final count.
    /// Ill-formed updates are skipped (use
    /// [`try_apply_batch`](Self::try_apply_batch) for atomic all-or-nothing
    /// semantics): a batch that validates goes through
    /// [`try_apply_batch`](Self::try_apply_batch) whole, and one holding a
    /// rejected update is applied one [`try_apply`](Self::try_apply) at a
    /// time.
    pub fn apply_batch(&mut self, updates: &[GraphUpdate]) -> i64 {
        if self.try_apply_batch(updates).is_err() {
            for update in updates {
                let _ = self.try_apply(*update);
            }
        }
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineKind;
    use fourcycle_graph::{GeneralGraph, LayeredGraph, LayeredUpdate};

    #[test]
    fn layered_counter_matches_brute_force_small_stream() {
        let mut counter = LayeredCycleCounter::new(EngineKind::Simple);
        let mut reference = LayeredGraph::new();
        let updates = [
            LayeredUpdate::insert(Rel::A, 1, 2),
            LayeredUpdate::insert(Rel::B, 2, 3),
            LayeredUpdate::insert(Rel::C, 3, 4),
            LayeredUpdate::insert(Rel::D, 4, 1),
            LayeredUpdate::insert(Rel::A, 1, 5),
            LayeredUpdate::insert(Rel::B, 5, 3),
            LayeredUpdate::delete(Rel::B, 2, 3),
            LayeredUpdate::insert(Rel::B, 2, 3),
            LayeredUpdate::insert(Rel::D, 4, 6),
        ];
        for u in updates {
            let count = counter.apply(u).expect("well-formed update");
            assert!(reference.apply(&u));
            assert_eq!(count, reference.count_layered_4cycles_brute_force());
            assert_eq!(counter.total_edges(), reference.total_edges());
        }
        for rel in Rel::ALL {
            let mut edges = counter.edges(rel);
            edges.sort_unstable();
            let mut want: Vec<_> = reference.rel(rel).iter().map(|(l, r, _)| (l, r)).collect();
            want.sort_unstable();
            assert_eq!(edges, want, "{rel:?}");
        }
        assert_eq!(counter.kind(), EngineKind::Simple);
        assert!(counter.total_edges() > 0);
    }

    #[test]
    fn layered_counter_rejects_ill_formed_updates() {
        let mut counter = LayeredCycleCounter::new(EngineKind::Naive);
        assert!(counter.apply(LayeredUpdate::insert(Rel::A, 1, 2)).is_some());
        assert!(counter.apply(LayeredUpdate::insert(Rel::A, 1, 2)).is_none());
        assert!(counter.apply(LayeredUpdate::delete(Rel::B, 9, 9)).is_none());
        assert_eq!(counter.count(), 0);
    }

    #[test]
    fn general_counter_counts_k4_and_deletions() {
        let mut counter = FourCycleCounter::new(EngineKind::Naive);
        let mut reference = GeneralGraph::new();
        // Build K4: 3 four-cycles.
        let vertices = [1u32, 2, 3, 4];
        for i in 0..4 {
            for j in (i + 1)..4 {
                counter.insert(vertices[i], vertices[j]);
                reference.insert(vertices[i], vertices[j]);
                assert_eq!(counter.count(), reference.count_4cycles_brute_force());
            }
        }
        assert_eq!(counter.count(), 3);
        // Remove one edge: a single 4-cycle remains.
        counter.delete(1, 2);
        reference.delete(1, 2);
        assert_eq!(counter.count(), reference.count_4cycles_brute_force());
        assert_eq!(counter.count(), 1);
        // Duplicate operations are rejected without corrupting the count.
        assert!(counter.insert(1, 3).is_none());
        assert!(counter.delete(1, 2).is_none());
        assert!(counter.insert(5, 5).is_none());
        assert_eq!(counter.count(), 1);
        let mut edges = counter.edges();
        edges.sort_unstable();
        let mut want: Vec<_> = reference.edges().collect();
        want.sort_unstable();
        assert_eq!(edges, want);
        assert_eq!(counter.total_edges(), 5);
    }

    /// The 3-walks `u – x – y – v` of `g`, by enumeration.
    fn walks(g: &GeneralGraph, u: VertexId, v: VertexId) -> i64 {
        g.neighbors(u)
            .flat_map(|x| g.neighbors(x))
            .filter(|&y| g.has_edge(y, v))
            .count() as i64
    }

    fn graph(edges: impl IntoIterator<Item = (VertexId, VertexId)>) -> GeneralGraph {
        let mut g = GeneralGraph::new();
        for (u, v) in edges {
            g.insert(u, v);
        }
        g
    }

    #[test]
    fn four_cycles_from_walks_matches_brute_force() {
        let k4 = graph((1..=4).flat_map(|u| (u + 1..=4).map(move |v| (u, v))));
        let k33 = graph((1..=3).flat_map(|u| (10..=12).map(move |v| (u, v))));
        let star = graph((1..=9).map(|v| (0, v)));
        let mut graphs = vec![(k4, 3), (k33, 9), (star, 0)];
        let mut state = 41u64;
        for (vertices, edges) in [(8, 14), (15, 45), (40, 200)] {
            let mut g = GeneralGraph::new();
            for _ in 0..edges {
                let mut next = || {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1);
                    ((state >> 33) % vertices) as VertexId
                };
                let (u, v) = (next(), next());
                g.insert(u, v);
            }
            let want = g.count_4cycles_brute_force();
            graphs.push((g, want));
        }
        for (g, want) in graphs {
            assert_eq!(g.count_4cycles_brute_force(), want);
            let edges: Vec<_> = g.edges().collect();
            // Each edge asked once, in either orientation.
            let got = four_cycles_from_walks(&edges, |u, v| walks(&g, u, v));
            assert_eq!(got, want, "{} edges", edges.len());
            let flipped: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();
            assert_eq!(
                four_cycles_from_walks(&flipped, |u, v| walks(&g, u, v)),
                want
            );
        }
    }

    #[test]
    fn a_general_fmm_bulk_batch_is_one_era_rebuild() {
        let mut counter = FourCycleCounter::new(EngineKind::Fmm);
        let mut reference = GeneralGraph::new();
        let edges: Vec<_> = (0..200u32)
            .map(|i| (i % 13, 13 + (i * 7) % 29))
            .filter(|&(u, v)| reference.insert(u, v))
            .map(|(u, v)| GraphUpdate::insert(u, v))
            .collect();
        let (first, second) = edges.split_at(edges.len() / 2);
        counter.try_apply_batch(first).unwrap();
        assert_eq!(counter.slow_path_stats().era_rebuilds, 1);
        let work = counter.work();
        counter.try_apply_batch(second).unwrap();
        let slow = counter.slow_path_stats();
        assert_eq!((slow.era_rebuilds, slow.phase_rollovers), (2, 0));
        assert!(counter.work() > work, "the rebuild and the queries count");
        assert_eq!(counter.count(), reference.count_4cycles_brute_force());
    }

    #[test]
    fn general_counter_bipartite_complete_graph() {
        // K_{3,3} has C(3,2)^2 = 9 four-cycles.
        let mut counter = FourCycleCounter::new(EngineKind::Simple);
        let mut reference = GeneralGraph::new();
        for u in [1u32, 2, 3] {
            for v in [10u32, 11, 12] {
                counter.insert(u, v);
                reference.insert(u, v);
            }
        }
        assert_eq!(counter.count(), 9);
        assert_eq!(counter.count(), reference.count_4cycles_brute_force());
    }
}
