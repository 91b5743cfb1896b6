//! The size-adaptive engine: Appendix A's simple engine while a graph is
//! small, the paper's main engine (§4–§7) once it is not (ADR-011).
//!
//! The main engine wins only asymptotically. At a few hundred edges its
//! degree cutoffs collapse and its slow paths (era rebuilds, class
//! transitions, rollovers) dominate, while [`SimpleEngine`]'s `O(n)`
//! updates are cheap. An [`AutoEngine`] starts on the simple engine. Once
//! it holds `SWITCH_AT` (1,200) layered edges (`|A| + |B| + |C|`, the
//! paper's `m`) it rebuilds itself, once, into the main engine and stays
//! there:
//!
//! * it collects its edges, drops the simple engine, and builds the main
//!   engine from those edges by one era rebuild, so the switch shows as one
//!   [`SlowPathStats::era_rebuilds`] and `work` carries on from the simple
//!   engine's;
//! * before the switch it runs the main engine's era rule on the simple
//!   engine's size, and the switch builds for the era scale `m̂` that rule
//!   reached, so a grown engine meets the cutoffs and era rebuilds the
//!   main engine would have met on the same stream;
//! * a batch that reaches the switch point is split there, so the simple
//!   engine never holds more than `SWITCH_AT` edges;
//! * it never switches back: the main engine's own era rule follows a
//!   shrinking graph, and a graph flapping across the switch point costs
//!   one switch, not one per crossing.
//!
//! A general session's engine ([`crate::GeneralEngine::Auto`]) switches
//! the same way, into a [`SymmetricFmmEngine`], once it holds `SWITCH_AT`
//! layered edges, six per general edge.

use crate::engine::{QRel, SlowPathStats, ThreePathEngine};
use crate::fmm::state::LAYERED_COPIES;
use crate::{FmmConfig, FmmEngine, SimpleEngine, SymmetricFmmEngine};
use fourcycle_graph::{ClassThresholds, UpdateOp, VertexId};
use std::cmp::Reverse;
use std::collections::HashMap;

/// Layered edges held at which an auto engine switches to the main
/// engine: the crossover of engine-only µs per update, simple against
/// fmm, in ADR-011's sweep of layered hub-skewed and general hub streams.
pub(crate) const SWITCH_AT: usize = 1_200;

/// [`SimpleEngine`] until it holds 1,200 layered edges, then [`FmmEngine`]
/// (module docs).
pub struct AutoEngine {
    /// The main engine's configuration, used at the switch.
    cfg: FmmConfig,
    stage: Stage,
}

#[expect(
    clippy::large_enum_variant,
    reason = "most sessions never switch: the simple stage stays inline, and the \
              whole engine is already boxed behind `dyn ThreePathEngine`"
)]
enum Stage {
    /// Before the switch: the simple engine, and the era the main engine
    /// would be in after the same batches.
    Simple(SimpleEngine, ClassThresholds),
    Fmm(Box<FmmEngine>),
}

impl AutoEngine {
    /// Creates an empty engine, on the simple engine; `cfg` configures the
    /// main engine it switches to.
    pub fn new(cfg: FmmConfig) -> Self {
        let era = ClassThresholds::with_delta(1, cfg.eps, cfg.delta);
        Self {
            cfg,
            stage: Stage::Simple(SimpleEngine::new(), era),
        }
    }

    /// Whether the engine has switched to the main engine.
    pub fn switched(&self) -> bool {
        matches!(self.stage, Stage::Fmm(_))
    }

    fn engine(&self) -> &dyn ThreePathEngine {
        match &self.stage {
            Stage::Simple(engine, _) => engine,
            Stage::Fmm(engine) => engine.as_ref(),
        }
    }

    fn engine_mut(&mut self) -> &mut dyn ThreePathEngine {
        match &mut self.stage {
            Stage::Simple(engine, _) => engine,
            Stage::Fmm(engine) => engine.as_mut(),
        }
    }

    /// Takes the simple engine out, leaving an empty one in its place,
    /// with the era scale `m̂` the switch builds for; `None` after the
    /// switch.
    fn take_simple(&mut self) -> Option<(SimpleEngine, usize)> {
        let Stage::Simple(simple, era) = &mut self.stage else {
            return None;
        };
        Some((std::mem::take(simple), era.m_hat))
    }

    /// Rebuilds the simple engine's graph into the main engine, dropping
    /// the simple engine first.
    fn switch(&mut self) {
        let Some((simple, m_hat)) = self.take_simple() else {
            return;
        };
        let work = simple.work();
        let edges = QRel::ALL
            .into_iter()
            .flat_map(|rel| simple.edges(rel).into_iter().map(move |(l, r)| (rel, l, r)))
            .collect();
        drop(simple);
        let fmm = FmmEngine::from_edges(self.cfg, edges, m_hat, work);
        self.stage = Stage::Fmm(Box::new(fmm));
    }

    /// A general session's update before its switch
    /// ([`crate::GeneralEngine::Auto`]): three two-orientation batches on
    /// the simple engine, then the era check; once the simple engine holds
    /// [`SWITCH_AT`] layered edges, the [`SymmetricFmmEngine`] built from
    /// its graph, the simple engine dropped first.
    pub(crate) fn update_general(
        &mut self,
        u: VertexId,
        v: VertexId,
        op: UpdateOp,
    ) -> Option<Box<SymmetricFmmEngine>> {
        for rel in QRel::ALL {
            self.engine_mut()
                .apply_batch(rel, &[(u, v, op), (v, u, op)]);
        }
        let Stage::Simple(simple, era) = &mut self.stage else {
            return None;
        };
        settle_era(era, simple.total_edges());
        if simple.total_edges() < SWITCH_AT {
            return None;
        }
        self.grow(&[])
    }

    /// A general session's insert-only load before its switch
    /// ([`crate::GeneralEngine::load`]): if the simple engine and `edges`
    /// (each once, none held) reach [`SWITCH_AT`] layered edges, the
    /// [`SymmetricFmmEngine`] built from them at once, for the era the
    /// per-update rule reaches; otherwise `None`, with nothing changed.
    pub(crate) fn grow_with(
        &mut self,
        edges: &[(VertexId, VertexId)],
    ) -> Option<Box<SymmetricFmmEngine>> {
        let Stage::Simple(simple, era) = &mut self.stage else {
            return None;
        };
        let held = simple.total_edges();
        if held + LAYERED_COPIES * edges.len() < SWITCH_AT {
            return None;
        }
        *era = era_after(*era, held, edges.len());
        self.grow(edges)
    }

    /// The [`SymmetricFmmEngine`] holding the simple engine's general graph
    /// and `more` edges, built for the era reached so far; the simple
    /// engine is dropped first. `None` after the switch.
    fn grow(&mut self, more: &[(VertexId, VertexId)]) -> Option<Box<SymmetricFmmEngine>> {
        let (simple, m_hat) = self.take_simple()?;
        let work = simple.work();
        let mut edges = simple.edges(QRel::A);
        drop(simple);
        edges.retain(|&(u, v)| u < v);
        edges.extend_from_slice(more);
        let fmm = SymmetricFmmEngine::from_edges(self.cfg, &hubs_first(edges), m_hat, work);
        Some(Box::new(fmm))
    }
}

/// A general graph's edges, each once, ordered so that the main engine
/// built from them numbers the highest-degree vertices first: by the
/// endpoint of higher degree, then the other (ties by id). The main
/// engine's tables keyed by its few High and Dense vertices then need short
/// row headers: handed over by client id instead, a general-hubs-shaped
/// session of 8,000 edges held 3 % more heap than one grown on the main
/// engine from the start, and 0.7 % less this way (ADR-011).
pub(crate) fn hubs_first(edges: Vec<(VertexId, VertexId)>) -> Vec<(VertexId, VertexId)> {
    let mut degree: HashMap<VertexId, usize> = HashMap::new();
    for &(u, v) in &edges {
        *degree.entry(u).or_insert(0) += 1;
        *degree.entry(v).or_insert(0) += 1;
    }
    let mut by_degree: Vec<_> = degree.into_iter().collect();
    by_degree.sort_unstable_by_key(|&(v, d)| (Reverse(d), v));
    let rank: HashMap<VertexId, usize> = by_degree
        .into_iter()
        .enumerate()
        .map(|(i, (v, _))| (v, i))
        .collect();
    let mut ranked: Vec<_> = edges
        .into_iter()
        .filter_map(|(u, v)| {
            let (ru, rv) = (*rank.get(&u)?, *rank.get(&v)?);
            Some(if ru < rv {
                (ru, rv, u, v)
            } else {
                (rv, ru, v, u)
            })
        })
        .collect();
    ranked.sort_unstable();
    ranked.into_iter().map(|(_, _, u, v)| (u, v)).collect()
}

/// The main engine's era rule on `held` edges: fresh thresholds once `held`
/// leaves `[m̂/2, 2m̂]`.
fn settle_era(era: &mut ClassThresholds, held: usize) {
    if era.needs_rebuild(held) {
        *era = ClassThresholds::with_delta(held.max(1), era.eps, era.delta);
    }
}

/// The era a general session's engine reaches from `era`, holding `held`
/// layered edges, after `inserts` general inserts one at a time: the rule
/// of [`settle_era`] after each, as the per-update path runs it.
pub(crate) fn era_after(mut era: ClassThresholds, held: usize, inserts: usize) -> ClassThresholds {
    for i in 1..=inserts {
        settle_era(&mut era, held + LAYERED_COPIES * i);
    }
    era
}

/// How many of `updates` to apply before switching, if an engine holding
/// `held` layered edges reaches [`SWITCH_AT`] within them.
fn switch_point(mut held: usize, updates: &[(VertexId, VertexId, UpdateOp)]) -> Option<usize> {
    let at = updates.iter().position(|&(_, _, op)| {
        held = match op {
            UpdateOp::Insert => held + 1,
            UpdateOp::Delete => held.saturating_sub(1),
        };
        held >= SWITCH_AT
    })?;
    Some(at + 1)
}

impl ThreePathEngine for AutoEngine {
    fn apply_batch(&mut self, rel: QRel, updates: &[(VertexId, VertexId, UpdateOp)]) {
        let mut rest = updates;
        if let Stage::Simple(simple, era) = &mut self.stage {
            let split = switch_point(simple.total_edges(), updates);
            let (now, later) = updates.split_at(split.unwrap_or(updates.len()));
            simple.apply_batch(rel, now);
            settle_era(era, simple.total_edges());
            if split.is_none() {
                return;
            }
            self.switch();
            rest = later;
        }
        if !rest.is_empty() {
            self.engine_mut().apply_batch(rel, rest);
        }
    }

    fn has_edge(&self, rel: QRel, left: VertexId, right: VertexId) -> bool {
        self.engine().has_edge(rel, left, right)
    }

    fn edges(&self, rel: QRel) -> Vec<(VertexId, VertexId)> {
        self.engine().edges(rel)
    }

    fn query(&mut self, u: VertexId, v: VertexId) -> i64 {
        self.engine_mut().query(u, v)
    }

    fn work(&self) -> u64 {
        self.engine().work()
    }

    fn slow_path_stats(&self) -> SlowPathStats {
        self.engine().slow_path_stats()
    }

    fn name(&self) -> &'static str {
        crate::EngineKind::Auto.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_graph::UpdateOp::{Delete, Insert};

    #[test]
    fn switch_point_counts_net_inserts() {
        let ins = [(1, 2, Insert); 3];
        assert_eq!(switch_point(SWITCH_AT - 3, &ins), Some(3));
        assert_eq!(switch_point(SWITCH_AT - 2, &ins), Some(2));
        assert_eq!(switch_point(SWITCH_AT - 4, &ins), None);
        let mixed = [(1, 2, Insert), (1, 2, Delete), (1, 3, Insert)];
        assert_eq!(switch_point(SWITCH_AT - 1, &mixed), Some(1));
        assert_eq!(switch_point(SWITCH_AT - 2, &mixed), None);
    }

    #[test]
    fn the_switch_is_one_era_rebuild_and_keeps_work() {
        let mut engine = AutoEngine::new(FmmConfig::default());
        let edges: Vec<_> = (0..SWITCH_AT)
            .map(|i| (u32::try_from(i).unwrap(), 0, Insert))
            .collect();
        engine.apply_batch(QRel::A, &edges[..SWITCH_AT - 2]);
        engine.apply_update(QRel::B, 0, 7, Insert);
        let before = engine.work();
        assert!(!engine.switched());
        assert_eq!(engine.slow_path_stats(), SlowPathStats::default());
        engine.apply_update(QRel::C, 7, 9, Insert);
        assert!(engine.switched());
        assert_eq!(engine.slow_path_stats().era_rebuilds, 1);
        assert!(engine.work() >= before);
        assert_eq!(engine.query(5, 9), 1);
        assert_eq!(engine.edges(QRel::A).len(), SWITCH_AT - 2);
    }

    #[test]
    fn a_batch_reaching_the_switch_point_switches_there() {
        let insert = |i: usize| (u32::try_from(i).unwrap(), 0, Insert);
        // A batch that passes the switch point and falls back below it.
        let mut engine = AutoEngine::new(FmmConfig::default());
        let edges: Vec<_> = (0..SWITCH_AT - 1).map(insert).collect();
        engine.apply_batch(QRel::A, &edges);
        engine.apply_batch(QRel::A, &[(7, 7, Insert), (0, 0, Delete)]);
        assert!(engine.switched());
        assert_eq!(engine.edges(QRel::A).len(), SWITCH_AT - 1);
        assert!(engine.has_edge(QRel::A, 7, 7) && !engine.has_edge(QRel::A, 0, 0));

        // Fed one at a time, the engine holds `SWITCH_AT - 1` edges in the
        // main engine's era of 1,023. Of one batch of `2 · SWITCH_AT` more,
        // the simple engine takes only the first, which reaches the switch
        // point; the main engine takes the rest, which pass twice its era,
        // and rebuilds once more. Had the simple engine taken the whole
        // batch, the switch would have been the only rebuild.
        let mut engine = AutoEngine::new(FmmConfig::default());
        for i in 0..SWITCH_AT - 1 {
            engine.apply_batch(QRel::A, &[insert(i)]);
        }
        let batch: Vec<_> = (SWITCH_AT..3 * SWITCH_AT).map(insert).collect();
        engine.apply_batch(QRel::A, &batch);
        assert!(engine.switched());
        assert_eq!(engine.slow_path_stats().era_rebuilds, 2);
        assert_eq!(engine.edges(QRel::A).len(), 3 * SWITCH_AT - 1);
    }

    /// One insert at a time, the main engine rebuilds its era whenever `m`
    /// passes twice its scale: at 3, 7, … 1,023, 2,047. The switch builds
    /// for the scale that rule reached, so the grown engine's next era
    /// rebuild comes where the main engine's does.
    #[test]
    fn the_switch_keeps_the_main_engine_era() {
        let mut auto = AutoEngine::new(FmmConfig::default());
        let mut fmm = FmmEngine::new(FmmConfig::default());
        let (mut auto_rebuilds, mut fmm_rebuilds) = (Vec::new(), Vec::new());
        for held in 1..=3 * SWITCH_AT {
            let left = u32::try_from(held).unwrap();
            auto.apply_update(QRel::A, left, left % 7, Insert);
            fmm.apply_update(QRel::A, left, left % 7, Insert);
            if auto.slow_path_stats().era_rebuilds > auto_rebuilds.len() as u64 {
                auto_rebuilds.push(held);
            }
            if fmm.slow_path_stats().era_rebuilds > fmm_rebuilds.len() as u64 {
                fmm_rebuilds.push(held);
            }
        }
        assert_eq!(auto_rebuilds, [SWITCH_AT, 2_047]);
        assert_eq!(&fmm_rebuilds[fmm_rebuilds.len() - 2..], [1_023, 2_047]);
    }
}
