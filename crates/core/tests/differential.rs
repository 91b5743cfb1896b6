//! Randomized differential tests: every engine against the enumeration
//! oracle, and every counter against the brute-force counters, on fully
//! dynamic streams that exercise degree-class transitions, phase rollovers,
//! era rebuilds and both rollover paths of the main engine.
//!
//! Seeds are fixed so failures are reproducible.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::fmm::rules::Structures;
use fourcycle_core::fmm::state::{GraphState, Tag};
use fourcycle_core::fmm::table::PairTable;
use fourcycle_core::{
    EngineConfig, EngineKind, FmmConfig, FmmEngine, FourCycleCounter, GeneralEngine,
    LayeredCycleCounter, NaiveEngine, QRel, SimpleEngine, SlowPathStats, ThreePathEngine,
    ThresholdEngine,
};
use fourcycle_graph::{
    EndpointClass, GeneralGraph, GraphUpdate, LayeredGraph, LayeredUpdate, MiddleClass, Rel,
    UpdateOp,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A well-formed random layered update stream over a small vertex universe
/// (small so that collisions, hubs and class transitions happen often).
struct LayeredStream {
    rng: SmallRng,
    present: HashSet<(QRel, u32, u32)>,
    n_l1: u32,
    n_l2: u32,
    n_l3: u32,
    n_l4: u32,
    delete_prob: f64,
    /// Probability of picking a designated hub endpoint, to force high-degree
    /// vertices and class transitions.
    hub_prob: f64,
}

impl LayeredStream {
    fn new(seed: u64, sizes: (u32, u32, u32, u32), delete_prob: f64, hub_prob: f64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            present: HashSet::new(),
            n_l1: sizes.0,
            n_l2: sizes.1,
            n_l3: sizes.2,
            n_l4: sizes.3,
            delete_prob,
            hub_prob,
        }
    }

    fn pick(&mut self, n: u32) -> u32 {
        if self.rng.gen_bool(self.hub_prob) {
            // Hubs are the low-numbered vertices.
            self.rng.gen_range(0..n.clamp(1, 2))
        } else {
            self.rng.gen_range(0..n)
        }
    }

    /// Next well-formed update `(rel, left, right, op)`.
    fn next(&mut self) -> (QRel, u32, u32, UpdateOp) {
        loop {
            let rel = match self.rng.gen_range(0..3) {
                0 => QRel::A,
                1 => QRel::B,
                _ => QRel::C,
            };
            let (nl, nr) = match rel {
                QRel::A => (self.n_l1, self.n_l2),
                QRel::B => (self.n_l2, self.n_l3),
                QRel::C => (self.n_l3, self.n_l4),
            };
            let l = self.pick(nl);
            let r = self.pick(nr);
            let key = (rel, l, r);
            let exists = self.present.contains(&key);
            if exists && self.rng.gen_bool(self.delete_prob) {
                self.present.remove(&key);
                return (rel, l, r, UpdateOp::Delete);
            }
            if !exists {
                self.present.insert(key);
                return (rel, l, r, UpdateOp::Insert);
            }
        }
    }
}

/// Runs `steps` updates through the engine and the oracle, checking a grid of
/// queries every `check_every` steps.
fn run_differential(
    mut engine: Box<dyn ThreePathEngine>,
    seed: u64,
    sizes: (u32, u32, u32, u32),
    steps: usize,
    check_every: usize,
    delete_prob: f64,
    hub_prob: f64,
) {
    let mut oracle = NaiveEngine::new();
    let mut stream = LayeredStream::new(seed, sizes, delete_prob, hub_prob);
    let query_us: Vec<u32> = (0..sizes.0.min(5)).collect();
    let query_vs: Vec<u32> = (0..sizes.3.min(5)).collect();
    for step in 0..steps {
        let (rel, l, r, op) = stream.next();
        engine.apply_update(rel, l, r, op);
        oracle.apply_update(rel, l, r, op);
        if step % check_every == 0 || step + 1 == steps {
            for &u in &query_us {
                for &v in &query_vs {
                    assert_eq!(
                        engine.query(u, v),
                        oracle.query(u, v),
                        "engine {} disagrees at step {step}, query ({u},{v}), seed {seed}",
                        engine.name()
                    );
                }
            }
        }
    }
}

#[test]
fn simple_engine_matches_oracle() {
    run_differential(
        Box::new(SimpleEngine::new()),
        11,
        (8, 10, 10, 8),
        600,
        7,
        0.3,
        0.5,
    );
}

#[test]
fn threshold_engine_matches_oracle_dense_universe() {
    run_differential(
        Box::new(ThresholdEngine::new()),
        12,
        (6, 8, 8, 6),
        700,
        9,
        0.3,
        0.5,
    );
}

#[test]
fn threshold_engine_matches_oracle_sparse_universe() {
    run_differential(
        Box::new(ThresholdEngine::new()),
        13,
        (20, 24, 24, 20),
        700,
        11,
        0.2,
        0.2,
    );
}

#[test]
fn fmm_engine_matches_oracle_default_config() {
    run_differential(
        Box::new(FmmEngine::new(FmmConfig::default())),
        14,
        (8, 10, 10, 8),
        700,
        9,
        0.3,
        0.5,
    );
}

#[test]
fn fmm_engine_matches_oracle_with_forced_rollovers() {
    let cfg = FmmConfig {
        phase_len_override: Some(13),
        ..Default::default()
    };
    run_differential(
        Box::new(FmmEngine::new(cfg)),
        15,
        (8, 10, 10, 8),
        800,
        9,
        0.3,
        0.5,
    );
}

#[test]
fn fmm_engine_matches_oracle_with_dense_rollover_path() {
    let cfg = FmmConfig {
        use_fmm: true,
        phase_len_override: Some(17),
        ..Default::default()
    };
    run_differential(
        Box::new(FmmEngine::new(cfg)),
        16,
        (8, 10, 10, 8),
        800,
        9,
        0.3,
        0.5,
    );
}

#[test]
fn fmm_engine_matches_oracle_current_omega_parameters() {
    let cfg = FmmConfig {
        phase_len_override: Some(23),
        ..FmmConfig::current_omega()
    };
    run_differential(
        Box::new(FmmEngine::new(cfg)),
        17,
        (10, 14, 14, 10),
        700,
        11,
        0.25,
        0.4,
    );
}

#[test]
fn fmm_engine_matches_oracle_larger_sparse_universe() {
    run_differential(
        Box::new(FmmEngine::new(FmmConfig::default())),
        18,
        (30, 40, 40, 30),
        900,
        17,
        0.2,
        0.15,
    );
}

#[test]
fn fmm_engine_insert_only_then_delete_everything() {
    // Growing then fully shrinking stream: exercises era rebuilds in both
    // directions and the negative-edge bookkeeping.
    let cfg = FmmConfig {
        phase_len_override: Some(11),
        ..Default::default()
    };
    let mut engine = FmmEngine::new(cfg);
    let mut oracle = NaiveEngine::new();
    let mut edges = Vec::new();
    let mut rng = SmallRng::seed_from_u64(19);
    let mut present = HashSet::new();
    for _ in 0..300 {
        let rel = match rng.gen_range(0..3) {
            0 => QRel::A,
            1 => QRel::B,
            _ => QRel::C,
        };
        let l = rng.gen_range(0..10u32);
        let r = rng.gen_range(0..10u32);
        if present.insert((rel, l, r)) {
            edges.push((rel, l, r));
            engine.apply_update(rel, l, r, UpdateOp::Insert);
            oracle.apply_update(rel, l, r, UpdateOp::Insert);
        }
    }
    for &(rel, l, r) in &edges {
        engine.apply_update(rel, l, r, UpdateOp::Delete);
        oracle.apply_update(rel, l, r, UpdateOp::Delete);
    }
    for u in 0..10u32 {
        for v in 0..10u32 {
            assert_eq!(engine.query(u, v), 0, "graph is empty again");
            assert_eq!(oracle.query(u, v), 0);
        }
    }
    assert!(
        engine.rollovers() > 0,
        "the stream must have crossed phase boundaries"
    );
}

#[test]
fn fmm_dense_and_combinatorial_rollover_paths_agree() {
    let cfg_a = FmmConfig {
        phase_len_override: Some(19),
        ..Default::default()
    };
    let cfg_b = FmmConfig {
        use_fmm: true,
        phase_len_override: Some(19),
        ..Default::default()
    };
    let mut a = FmmEngine::new(cfg_a);
    let mut b = FmmEngine::new(cfg_b);
    let mut stream = LayeredStream::new(20, (8, 10, 10, 8), 0.3, 0.5);
    for step in 0..600 {
        let (rel, l, r, op) = stream.next();
        a.apply_update(rel, l, r, op);
        b.apply_update(rel, l, r, op);
        if step % 13 == 0 {
            for u in 0..5u32 {
                for v in 0..5u32 {
                    assert_eq!(a.query(u, v), b.query(u, v), "step {step}, query ({u},{v})");
                }
            }
        }
    }
    assert!(b.rollovers() > 0);
}

#[test]
fn layered_counter_matches_brute_force_for_all_engines() {
    for kind in [
        EngineKind::Simple,
        EngineKind::Threshold,
        EngineKind::Fmm,
        EngineKind::FmmDense,
    ] {
        let mut counter = LayeredCycleCounter::new(kind);
        let mut reference = LayeredGraph::new();
        let mut rng = SmallRng::seed_from_u64(21);
        let mut present: HashSet<(Rel, u32, u32)> = HashSet::new();
        for step in 0..500 {
            let rel = Rel::ALL[rng.gen_range(0..4)];
            let l = rng.gen_range(0..8u32);
            let r = rng.gen_range(0..8u32);
            let key = (rel, l, r);
            let update = if present.contains(&key) && rng.gen_bool(0.35) {
                present.remove(&key);
                LayeredUpdate::delete(rel, l, r)
            } else if !present.contains(&key) {
                present.insert(key);
                LayeredUpdate::insert(rel, l, r)
            } else {
                continue;
            };
            counter.apply(update).expect("well-formed update");
            reference.apply(&update);
            if step % 25 == 0 {
                assert_eq!(
                    counter.count(),
                    reference.count_layered_4cycles_brute_force(),
                    "engine {} at step {step}",
                    kind.name()
                );
            }
        }
        assert_eq!(
            counter.count(),
            reference.count_layered_4cycles_brute_force()
        );
    }
}

/// 4,000 well-formed general updates on 400 vertices. Each deletes a
/// uniformly random present edge with probability 0.3; otherwise it inserts
/// an absent edge, each endpoint being one of 4 hubs with probability 0.3.
fn hub_skewed_general_stream(seed: u64) -> Vec<GraphUpdate> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut updates = Vec::new();
    while updates.len() < 4_000 {
        if !edges.is_empty() && rng.gen_bool(0.3) {
            let (u, v) = edges.swap_remove(rng.gen_range(0..edges.len()));
            updates.push(GraphUpdate::delete(u, v));
            continue;
        }
        let mut pick = || {
            let n = if rng.gen_bool(0.3) { 4 } else { 400 };
            rng.gen_range(0..n)
        };
        let (u, v) = (pick(), pick());
        let key = (u.min(v), u.max(v));
        if u != v && !edges.contains(&key) {
            edges.push(key);
            updates.push(GraphUpdate::insert(u, v));
        }
    }
    updates
}

/// Runs `updates` through a `FourCycleCounter` and, beside it, a lone
/// general engine given the calls §8 makes: a query before an insert's
/// update, and after a delete's. Every `check_every` updates and at the
/// end, the count must match brute force and the counter's snapshot must
/// describe exactly the lone engine.
fn run_general_differential(
    kind: EngineKind,
    updates: &[GraphUpdate],
    check_every: usize,
) -> SlowPathStats {
    let mut counter = FourCycleCounter::new(kind);
    let (mut twin, mut twin_count) = (GeneralEngine::build(kind, &EngineConfig::default()), 0);
    let mut reference = GeneralGraph::new();
    for (i, &update) in updates.iter().enumerate() {
        counter.apply(update).expect("well-formed update");
        reference.apply(&update);
        let GraphUpdate { op, u, v } = update;
        if op == UpdateOp::Insert {
            twin_count += twin.query(u, v);
        }
        twin.update(u, v, op);
        if op == UpdateOp::Delete {
            twin_count -= twin.query(u, v);
        }
        if (i + 1) % check_every == 0 || i + 1 == updates.len() {
            let s = counter.snapshot();
            assert_eq!(
                (s.count, s.count, s.work, s.slow_path),
                (
                    reference.count_4cycles_brute_force(),
                    twin_count,
                    twin.work(),
                    twin.slow_path_stats()
                ),
                "engine {} after update {i}: counter vs (brute force, lone engine)",
                kind.name()
            );
        }
    }
    counter.slow_path_stats()
}

#[test]
fn general_counter_matches_brute_force_for_all_engines() {
    // 260 draws on 12 vertices, small enough to check after every update.
    let mut rng = SmallRng::seed_from_u64(22);
    let mut present: HashSet<(u32, u32)> = HashSet::new();
    let mut small = Vec::new();
    for _ in 0..260 {
        let (u, v) = (rng.gen_range(0..12u32), rng.gen_range(0..12u32));
        if u == v {
            continue;
        }
        let (u, v) = (u.min(v), u.max(v));
        if present.insert((u, v)) {
            small.push(GraphUpdate::insert(u, v));
        } else if rng.gen_bool(0.35) {
            present.remove(&(u, v));
            small.push(GraphUpdate::delete(u, v));
        }
    }
    // Hubs push vertices across the degree thresholds and deletes swing `m`
    // back down, so the fmm engines cross every slow path.
    let hubs = hub_skewed_general_stream(23);
    for kind in EngineKind::ALL {
        run_general_differential(kind, &small, 1);
        let slow = run_general_differential(kind, &hubs, hubs.len() / 10);
        if matches!(kind, EngineKind::Fmm | EngineKind::FmmDense) {
            assert!(slow.era_rebuilds > 0, "{} {slow:?}", kind.name());
            assert!(slow.phase_rollovers > 0, "{} {slow:?}", kind.name());
            assert!(slow.class_transitions > 0, "{} {slow:?}", kind.name());
        }
    }
}

/// Streams with very few `L1`/`L4` vertices and strong hubs: this is what
/// pushes vertices above the `m^{2/3−ε}` High/Dense thresholds, exercising
/// the Eq 14/15 structures, the old-phase dense products and the High–High /
/// Low–Low query cases. The test asserts that the classes were actually
/// populated, so it cannot silently degrade into a Low/Tiny-only run.
#[test]
fn fmm_engine_matches_oracle_with_high_and_dense_vertices() {
    let cfg = FmmConfig {
        phase_len_override: Some(37),
        ..Default::default()
    };
    let mut engine = FmmEngine::new(cfg);
    let mut oracle = NaiveEngine::new();
    let mut stream = LayeredStream::new(23, (4, 60, 60, 4), 0.25, 0.7);
    for step in 0..1500 {
        let (rel, l, r, op) = stream.next();
        engine.apply_update(rel, l, r, op);
        oracle.apply_update(rel, l, r, op);
        if step % 23 == 0 || step == 1499 {
            for u in 0..4u32 {
                for v in 0..4u32 {
                    assert_eq!(
                        engine.query(u, v),
                        oracle.query(u, v),
                        "step {step} query ({u},{v})"
                    );
                }
            }
            // Also query across a spread of L4 vertices (mixed classes).
            for v in [0u32, 1, 5, 17] {
                assert_eq!(
                    engine.query(0, v),
                    oracle.query(0, v),
                    "step {step} query (0,{v})"
                );
            }
        }
    }
    let (state, _) = engine.debug_state();
    assert!(
        !state.high_l1().is_empty(),
        "stream must create High L1 vertices"
    );
    assert!(
        !state.high_l4().is_empty(),
        "stream must create High L4 vertices"
    );
    assert!(
        !state.dense_l2().is_empty(),
        "stream must create Dense L2 vertices"
    );
    assert!(
        !state.dense_l3().is_empty(),
        "stream must create Dense L3 vertices"
    );
    assert!(engine.rollovers() > 0);
}

/// Same skewed regime with the dense (matrix-product) rollover path.
#[test]
fn fmm_dense_rollover_matches_oracle_with_high_and_dense_vertices() {
    let cfg = FmmConfig {
        use_fmm: true,
        phase_len_override: Some(41),
        ..Default::default()
    };
    let mut engine = FmmEngine::new(cfg);
    let mut oracle = NaiveEngine::new();
    let mut stream = LayeredStream::new(24, (4, 60, 60, 4), 0.25, 0.7);
    for step in 0..1500 {
        let (rel, l, r, op) = stream.next();
        engine.apply_update(rel, l, r, op);
        oracle.apply_update(rel, l, r, op);
        if step % 29 == 0 || step == 1499 {
            for u in 0..4u32 {
                for v in 0..4u32 {
                    assert_eq!(
                        engine.query(u, v),
                        oracle.query(u, v),
                        "step {step} query ({u},{v})"
                    );
                }
            }
        }
    }
    let (state, _) = engine.debug_state();
    assert!(!state.high_l1().is_empty() && !state.dense_l2().is_empty());
    assert!(engine.rollovers() > 0);
}

/// Threshold baseline in the same skewed regime (heavy vertices present).
#[test]
fn threshold_engine_matches_oracle_with_heavy_vertices() {
    run_differential(
        Box::new(ThresholdEngine::new()),
        25,
        (4, 60, 60, 4),
        1200,
        19,
        0.25,
        0.7,
    );
}

/// The 13 tables whose rules read only the total adjacency and stored
/// classes, never a phase tag.
fn tag_free_tables(s: &Structures) -> [(&'static str, &PairTable); 13] {
    [
        ("ab_s", &s.ab_s),
        ("bc_s", &s.bc_s),
        ("ab_t", &s.ab_t),
        ("bc_t", &s.bc_t),
        ("ab_hd", &s.ab_hd),
        ("ab_md", &s.ab_md),
        ("bc_dh", &s.bc_dh),
        ("bc_dm", &s.bc_dm),
        ("t3_hh", &s.t3_hh),
        ("t3_mh", &s.t3_mh),
        ("t3_hm", &s.t3_hm),
        ("ts3", &s.ts3),
        ("st3", &s.st3),
    ]
}

/// The entry-wise sum of a phase-split table over its phase indices.
fn summed<'a>(tables: impl IntoIterator<Item = &'a PairTable>) -> PairTable {
    let mut out = PairTable::new();
    for table in tables {
        for (a, b, c) in table.iter() {
            out.add(a, b, c);
        }
    }
    out
}

/// Recomputes the phase-split tables from their definitions over the
/// engine's tagged adjacency and stored classes, and checks the maintained
/// ones against them. A re-tag must keep this true: summed over phases the
/// tables are the same whether or not events were re-tagged, so only this
/// catches a re-tag that leaves counts under the wrong phase index.
fn assert_phase_split_tables_match_definitions(st: &GraphState, s: &Structures, step: usize) {
    use EndpointClass::High;
    use MiddleClass::{Dense, Sparse};
    let mut abd = [PairTable::new(), PairTable::new()];
    let mut ab_hs: [[PairTable; 2]; 2] = Default::default();
    let mut bc_sh: [[PairTable; 2]; 2] = Default::default();
    let mut hss3: [[[PairTable; 2]; 2]; 2] = Default::default();
    for (p, p_tag) in Tag::BOTH.into_iter().enumerate() {
        for (u, x, wa) in st.adj(QRel::A, Some(p_tag)).iter() {
            for (q, q_tag) in Tag::BOTH.into_iter().enumerate() {
                for (y, wb) in st.adj(QRel::B, Some(q_tag)).neighbors_of_left(x) {
                    let (cx, cy) = (st.mid2(x), st.mid3(y));
                    if q_tag == Tag::Old && cx == Dense && cy == Dense {
                        abd[p].add(u, y, wa * wb);
                    }
                    if st.ep1(u) == High && cx == Sparse && cy == Sparse {
                        ab_hs[p][q].add(u, y, wa * wb);
                    }
                }
            }
        }
    }
    for (r, r_tag) in Tag::BOTH.into_iter().enumerate() {
        let c_r = st.adj(QRel::C, Some(r_tag));
        for (q, q_tag) in Tag::BOTH.into_iter().enumerate() {
            for (x, y, wb) in st.adj(QRel::B, Some(q_tag)).iter() {
                if st.mid2(x) != Sparse || st.mid3(y) != Sparse {
                    continue;
                }
                for (v, wc) in c_r.neighbors_of_left(y) {
                    if st.ep4(v) == High {
                        bc_sh[q][r].add(x, v, wb * wc);
                    }
                }
            }
            for p in 0..2 {
                for (u, y, c) in ab_hs[p][q].iter() {
                    for (v, wc) in c_r.neighbors_of_left(y) {
                        if st.ep4(v) == High {
                            hss3[p][q][r].add(u, v, c * wc);
                        }
                    }
                }
            }
        }
    }
    let mut pairs = vec![
        ("abd_oo", &abd[0], &s.abd_oo),
        ("abd_no", &abd[1], &s.abd_no),
    ];
    let ab_hs_pairs = ab_hs.iter().flatten().zip(s.ab_hs.iter().flatten());
    pairs.extend(ab_hs_pairs.map(|(e, m)| ("ab_hs", e, m)));
    let bc_sh_pairs = bc_sh.iter().flatten().zip(s.bc_sh.iter().flatten());
    pairs.extend(bc_sh_pairs.map(|(e, m)| ("bc_sh", e, m)));
    let hss3_pairs = hss3.iter().flatten().flatten();
    let hss3_pairs = hss3_pairs.zip(s.hss3.iter().flatten().flatten());
    pairs.extend(hss3_pairs.map(|(e, m)| ("hss3", e, m)));
    for (name, expected, maintained) in pairs {
        assert!(
            maintained.same_entries(expected),
            "{name} departs from its definition at step {step}"
        );
    }
}

/// A rollover re-tags events through the phase-split tables only. Twin
/// engines on the hub-skewed stream, one rolling over every 37 updates and
/// one never, must hold the same tag-free tables after every update, and the
/// same phase-split auxiliaries and triples once summed over phases; the
/// rolling engine's phase-split tables must also match their definitions.
#[test]
fn fmm_rollover_changes_only_the_phase_split_of_the_tables() {
    let mut rolling = FmmEngine::new(FmmConfig {
        phase_len_override: Some(37),
        ..Default::default()
    });
    let mut unrolled = FmmEngine::new(FmmConfig {
        phase_len_override: Some(usize::MAX),
        ..Default::default()
    });
    let mut stream = LayeredStream::new(23, (4, 60, 60, 4), 0.25, 0.7);
    for step in 0..1500 {
        let (rel, l, r, op) = stream.next();
        rolling.apply_update(rel, l, r, op);
        unrolled.apply_update(rel, l, r, op);
        let (_, a) = rolling.debug_state();
        let (_, b) = unrolled.debug_state();
        for ((name, ta), (_, tb)) in tag_free_tables(a).into_iter().zip(tag_free_tables(b)) {
            assert!(ta.same_entries(tb), "{name} differs at step {step}");
        }
        for (name, ta, tb) in [
            (
                "ab_hs",
                summed(a.ab_hs.iter().flatten()),
                summed(b.ab_hs.iter().flatten()),
            ),
            (
                "bc_sh",
                summed(a.bc_sh.iter().flatten()),
                summed(b.bc_sh.iter().flatten()),
            ),
            (
                "hss3",
                summed(a.hss3.iter().flatten().flatten()),
                summed(b.hss3.iter().flatten().flatten()),
            ),
        ] {
            assert!(
                ta.same_entries(&tb),
                "{name} summed over phases differs at step {step}"
            );
        }
        if step % 5 == 0 || step == 1499 {
            let (state, structs) = rolling.debug_state();
            assert_phase_split_tables_match_definitions(state, structs, step);
        }
    }
    assert!(rolling.rollovers() > 0);
    assert_eq!(unrolled.rollovers(), 0);
    let (state, _) = rolling.debug_state();
    assert!(!state.high_l1().is_empty() && !state.high_l4().is_empty());
    assert!(!state.dense_l2().is_empty() && !state.dense_l3().is_empty());
}

/// The dense id the engine gave client vertex `v` of `layer` (0 = `L1`).
fn dense_id(engine: &FmmEngine, layer: usize, v: u32) -> u32 {
    engine.layer_ids()[layer].index_of(v).unwrap() as u32
}

/// Applies one update to the engine and the oracle and checks every query
/// from `u`.
fn apply_and_check(
    engine: &mut FmmEngine,
    oracle: &mut NaiveEngine,
    (rel, l, r, op): (QRel, u32, u32, UpdateOp),
    u: u32,
) {
    engine.apply_update(rel, l, r, op);
    oracle.apply_update(rel, l, r, op);
    for v in 0..4u32 {
        assert_eq!(engine.query(u, v), oracle.query(u, v), "query ({u},{v})");
    }
}

/// §7's overlap band as hysteresis: an `L1` vertex whose degree flaps ±1
/// across the High threshold is promoted once, and demoted once only when
/// its degree falls below half that threshold.
#[test]
fn fmm_class_band_absorbs_a_flapping_degree() {
    const HUB: u32 = 0;
    const MIDDLES: u32 = 100;
    let mut engine = FmmEngine::new(FmmConfig::default());
    let mut oracle = NaiveEngine::new();
    // 255 background edges: L2 vertices 100..200 with two B edges each
    // (they stay Tiny when the hub links to them), every L3 vertex 0..8
    // linked to every L4 vertex 0..4, and 23 A edges from another L1 vertex.
    let mut background = Vec::new();
    for x in 100..100 + MIDDLES {
        background.push((QRel::B, x, x % 8));
        background.push((QRel::B, x, (x + 3) % 8));
    }
    for y in 0..8u32 {
        for v in 0..4u32 {
            background.push((QRel::C, y, v));
        }
    }
    for x in 500..523u32 {
        background.push((QRel::A, 1, x));
    }
    for (rel, l, r) in background {
        apply_and_check(&mut engine, &mut oracle, (rel, l, r, UpdateOp::Insert), HUB);
    }
    let rebuilds = engine.slow_path_stats().era_rebuilds;
    let high_lo = engine.debug_state().0.thresholds.high_lo;
    let high_lo = u32::try_from(high_lo).unwrap();
    assert!(high_lo < MIDDLES, "the hub needs {high_lo} fresh middles");
    let transitions = |e: &FmmEngine| e.slow_path_stats().class_transitions;
    let hub_class = |e: &FmmEngine| e.debug_state().0.ep1(dense_id(e, 0, HUB));

    // Raise the hub to one below the High threshold.
    for x in 100..100 + high_lo - 1 {
        apply_and_check(
            &mut engine,
            &mut oracle,
            (QRel::A, HUB, x, UpdateOp::Insert),
            HUB,
        );
    }
    assert_eq!(hub_class(&engine), EndpointClass::Medium);
    let before = transitions(&engine);

    // Flap across the threshold: one promotion, then the band holds.
    let flap = 100 + high_lo - 1;
    for _ in 0..20 {
        for op in [UpdateOp::Insert, UpdateOp::Delete] {
            apply_and_check(&mut engine, &mut oracle, (QRel::A, HUB, flap, op), HUB);
            assert_eq!(hub_class(&engine), EndpointClass::High);
        }
    }
    assert_eq!(transitions(&engine), before + 1, "only the promotion fires");

    // Drain below half the threshold: exactly one demotion, at the end.
    let mut degree = high_lo - 1;
    while 2 * degree >= high_lo {
        degree -= 1;
        let x = 100 + degree;
        apply_and_check(
            &mut engine,
            &mut oracle,
            (QRel::A, HUB, x, UpdateOp::Delete),
            HUB,
        );
    }
    assert_eq!(
        transitions(&engine),
        before + 2,
        "one demotion on the way down"
    );
    assert_ne!(hub_class(&engine), EndpointClass::High);
    assert_eq!(engine.slow_path_stats().era_rebuilds, rebuilds);
}

/// `v ↦ v·ODD ⊕ SALT`: a bijection of `u32` (ODD is odd) mapping 0 to
/// `u32::MAX` and 3 to 0 (3·ODD = `u32::MAX`), and scattering the order of
/// the small ids in between.
fn scramble(v: u32) -> u32 {
    const ODD: u32 = 0x5555_5555;
    const SALT: u32 = u32::MAX;
    v.wrapping_mul(ODD) ^ SALT
}

/// Vertices of each layer `L1`–`L4` per layer interner.
fn interned(engine: &FmmEngine) -> [usize; 4] {
    engine.layer_ids().each_ref().map(|ids| ids.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The fmm engines see client ids only through their layer interners. A
    /// hub-skewed stream, and the same stream with every id scrambled so
    /// that ids 0 and `u32::MAX` occur, give equal queries, `work()` and
    /// slow-path counts. Reads naming ids never inserted answer 0 or false
    /// and intern nothing.
    #[test]
    fn fmm_engines_treat_vertex_ids_as_opaque(seed in 0u64..1_000_000, steps in 300usize..700) {
        const N: u32 = 12;
        for use_fmm in [false, true] {
            let cfg = FmmConfig { use_fmm, phase_len_override: Some(17), ..Default::default() };
            let (mut plain, mut mapped) = (FmmEngine::new(cfg), FmmEngine::new(cfg));
            let mut stream = LayeredStream::new(seed, (6, N, N, 6), 0.3, 0.5);
            let mut extremes = HashSet::new();
            for step in 0..steps {
                let (rel, l, r, op) = stream.next();
                let (ml, mr) = (scramble(l), scramble(r));
                extremes.extend([ml, mr].into_iter().filter(|&w| w == 0 || w == u32::MAX));
                plain.apply_update(rel, l, r, op);
                mapped.apply_update(rel, ml, mr, op);
                if step % 7 == 0 || step + 1 == steps {
                    for u in 0..6 {
                        for v in 0..6 {
                            prop_assert_eq!(
                                plain.query(u, v),
                                mapped.query(scramble(u), scramble(v)),
                                "step {}, query ({}, {})", step, u, v
                            );
                        }
                    }
                    prop_assert_eq!(plain.work(), mapped.work(), "step {}", step);
                    prop_assert_eq!(plain.slow_path_stats(), mapped.slow_path_stats());
                }
            }
            prop_assert_eq!(extremes.len(), 2, "the scrambled stream reaches 0 and u32::MAX");
            let unseen = [N, N + 1, 1_000];
            assert_unseen_reads_intern_nothing(&mut plain, unseen, 0);
            assert_unseen_reads_intern_nothing(&mut mapped, unseen.map(scramble), scramble(0));
        }
    }
}

/// Reads naming an `unseen` id beside the `known` one answer 0 or false,
/// and no layer interner grows.
fn assert_unseen_reads_intern_nothing(engine: &mut FmmEngine, unseen: [u32; 3], known: u32) {
    let before = interned(engine);
    for w in unseen {
        assert_eq!((engine.query(w, known), engine.query(known, w)), (0, 0));
        for rel in QRel::ALL {
            assert!(!engine.has_edge(rel, w, known) && !engine.has_edge(rel, known, w));
        }
    }
    assert_eq!(interned(engine), before, "reads interned an unseen id");
}

/// Applies a batch of updates to `rel` on the engine and the oracle, `live`
/// being the edges present after it. Each time the engine rebuilds its
/// era, every layer interner must hold exactly that layer's live vertices.
/// Returns whether it rebuilt.
fn apply_and_check_interners(
    engine: &mut FmmEngine,
    oracle: &mut NaiveEngine,
    live: &[(QRel, u32, u32)],
    batch: &[(u32, u32, UpdateOp)],
    rel: QRel,
) -> bool {
    let rebuilds = engine.era_rebuilds();
    engine.apply_batch(rel, batch);
    oracle.apply_batch(rel, batch);
    if engine.era_rebuilds() == rebuilds {
        return false;
    }
    for layer in 0..4 {
        let expected: HashSet<u32> = live
            .iter()
            .flat_map(|&(rel, l, r)| [(rel.index(), l), (rel.index() + 1, r)])
            .filter_map(|(k, w)| (k == layer).then_some(w))
            .collect();
        let held: Vec<u32> = engine.layer_ids()[layer].iter().map(|(_, w)| w).collect();
        assert_eq!(held.len(), expected.len(), "layer L{} interner", layer + 1);
        assert_eq!(held.into_iter().collect::<HashSet<_>>(), expected);
    }
    true
}

/// Rounds of grow → drain on fresh ids: each round inserts edges on ids no
/// earlier round used until 150 are live (in batches of 3), then deletes
/// them one at a time until 10 remain, so `m` crosses factors of two both
/// ways and the engine rebuilds its era on the way up and down. After every
/// rebuild each layer interner holds exactly its live vertices (the
/// survivors of earlier rounds included), and counts match the oracle.
#[test]
fn fmm_era_rebuild_reinterns_only_live_vertices() {
    let mut engine = FmmEngine::new(FmmConfig::default());
    let mut oracle = NaiveEngine::new();
    let mut rng = SmallRng::seed_from_u64(27);
    let mut live: Vec<(QRel, u32, u32)> = Vec::new();
    let mut checked = 0;
    let check_counts = |engine: &mut FmmEngine, oracle: &mut NaiveEngine, ids: &[u32]| {
        for &u in ids {
            for &v in ids {
                assert_eq!(engine.query(u, v), oracle.query(u, v), "query ({u}, {v})");
            }
        }
    };
    for round in 0..6u32 {
        // Fresh ids; vertex `base` is a hub drawing a third of the endpoints.
        let base = 1_000 * (round + 1);
        let pick = |rng: &mut SmallRng| {
            base + if rng.gen_bool(0.3) {
                0
            } else {
                rng.gen_range(1..16)
            }
        };
        let queried = [base, base + 1, base + 2, 1_000 * round];
        while live.len() < 150 {
            let rel = QRel::ALL[rng.gen_range(0..3)];
            let mut batch = Vec::new();
            while batch.len() < 3 {
                let (l, r) = (pick(&mut rng), pick(&mut rng));
                if !live.contains(&(rel, l, r)) {
                    live.push((rel, l, r));
                    batch.push((l, r, UpdateOp::Insert));
                }
            }
            checked += usize::from(apply_and_check_interners(
                &mut engine,
                &mut oracle,
                &live,
                &batch,
                rel,
            ));
            check_counts(&mut engine, &mut oracle, &queried);
        }
        while live.len() > 10 {
            let (rel, l, r) = live.swap_remove(rng.gen_range(0..live.len()));
            let batch = [(l, r, UpdateOp::Delete)];
            checked += usize::from(apply_and_check_interners(
                &mut engine,
                &mut oracle,
                &live,
                &batch,
                rel,
            ));
            check_counts(&mut engine, &mut oracle, &queried);
        }
    }
    assert!(checked >= 12, "{checked} era rebuilds, want two per round");
}
