//! The auto kind's one switch from the simple engine to the main engine
//! (ADR-011), on streams that cross it.
//!
//! Every stream grows until each engine holds more than the switch point,
//! shrinks until each holds less than a third of it, and grows past it
//! again:
//!
//! * a rotation's stream over `A`, `B` and `C` drives one `AutoEngine`
//!   beside a `SimpleEngine`, one update at a time, and a twin that takes
//!   the growth phase as one batch per relation;
//! * a layered hub-skewed stream (perfbench's `tenants-wire` shape, scaled
//!   up) drives `LayeredCycleCounter`s, whose four rotations each switch;
//! * a general hub stream (`general-hubs`' shape) drives
//!   `FourCycleCounter`s.
//!
//! Counts are compared with brute force at checkpoints and on every update
//! in a window around each crossing, and with a simple-kind counter, which
//! never switches, after every update. The tests pin that:
//!
//! * count, epoch, edges and the snapshot are unchanged by the switch, and
//!   `work` carries on;
//! * each engine switches exactly once, when it reaches the switch point,
//!   and shows it as one era rebuild;
//! * a batch spanning the crossover equals one-at-a-time application;
//! * shrinking below the crossover does not switch back.
//!
//! The switch point is private; [`switch_at`] reads it off an engine.
//!
//! The slice runs under `cargo test`; the full run adds seeds and CI runs
//! it in release:
//! `cargo test --release -p fourcycle-core --test auto_switch -- --ignored`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::{
    AutoEngine, EngineKind, FmmConfig, FourCycleCounter, GeneralEngine, LayeredCycleCounter, QRel,
    SimpleEngine, Snapshot, ThreePathEngine,
};
use fourcycle_graph::{GeneralGraph, GraphUpdate, LayeredGraph, LayeredUpdate, Rel, UpdateOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Brute-force checkpoints per stream, besides the crossing windows.
const CHECKPOINTS: usize = 10;
/// Updates checked closely on each side of a crossing.
const WINDOW: usize = 30;
/// Updates per batch of the batched counter twins, after their one batch
/// holding the whole growth phase.
const CHUNK: usize = 61;

/// The auto kind's switch point in layered edges held: the size at which a
/// fresh auto engine, fed one insert at a time, switches. Its first era
/// rebuild is the switch.
fn switch_at() -> usize {
    let mut engine = AutoEngine::new(FmmConfig::default());
    for held in 1..=1_000_000u32 {
        engine.apply_update(QRel::A, held, 0, UpdateOp::Insert);
        let rebuilds = engine.slow_path_stats().era_rebuilds;
        if engine.switched() {
            assert_eq!(rebuilds, 1, "the switch is one era rebuild");
            return held as usize;
        }
        assert_eq!(rebuilds, 0, "the simple engine has no slow paths");
    }
    panic!("an auto engine never switched");
}

/// A vertex of a layer of `n`: one of the first `hubs` with probability
/// 0.3, else uniform over the rest.
fn endpoint(rng: &mut SmallRng, n: u32, hubs: u32) -> u32 {
    if rng.gen_bool(0.3) {
        rng.gen_range(0..hubs)
    } else {
        rng.gen_range(hubs..n)
    }
}

/// Which phase of a grow / shrink / regrow stream an update belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Grow,
    Shrink,
    Regrow,
}

/// A grow / shrink / regrow stream over an edge set: `held(edges)` is the
/// smallest and largest engine size, `fresh` draws a new edge. It grows
/// (one delete per four inserts) until the smallest engine holds a tenth
/// more than `switch`, deletes until the largest holds less than 0.3 of
/// it, and grows again until the smallest is past it.
fn phases<E: Copy + Eq + std::hash::Hash>(
    rng: &mut SmallRng,
    switch: usize,
    held: impl Fn(&[E]) -> (usize, usize),
    mut fresh: impl FnMut(&mut SmallRng) -> E,
) -> Vec<(Phase, UpdateOp, E)> {
    let mut edges: Vec<E> = Vec::new();
    let mut present = HashSet::new();
    let mut out = Vec::new();
    let mut phase = Phase::Grow;
    loop {
        let (low, high) = held(&edges);
        phase = match phase {
            Phase::Grow if low > switch + switch / 10 => Phase::Shrink,
            Phase::Shrink if high * 10 < switch * 3 => Phase::Regrow,
            Phase::Regrow if low > switch + switch / 20 => return out,
            phase => phase,
        };
        let delete = match phase {
            Phase::Shrink => true,
            _ => !edges.is_empty() && rng.gen_range(0..5) == 0,
        };
        if delete {
            let e = edges.swap_remove(rng.gen_range(0..edges.len()));
            present.remove(&e);
            out.push((phase, UpdateOp::Delete, e));
        } else {
            let e = loop {
                let e = fresh(rng);
                if present.insert(e) {
                    break e;
                }
            };
            edges.push(e);
            out.push((phase, UpdateOp::Insert, e));
        }
    }
}

/// Each engine's size after every update (and before the first), given
/// each update's size changes.
fn sizes<const K: usize>(steps: impl Iterator<Item = [isize; K]>) -> Vec<[usize; K]> {
    let mut now = [0usize; K];
    std::iter::once(now)
        .chain(steps.map(|step| {
            for (size, d) in now.iter_mut().zip(step) {
                *size = size.checked_add_signed(d).unwrap();
            }
            now
        }))
        .collect()
}

/// Indices of the updates after which some engine's size crosses `switch`
/// (up or down).
fn crossings<const K: usize>(sizes: &[[usize; K]], switch: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, pair) in sizes.windows(2).enumerate() {
        if pair[0]
            .iter()
            .zip(&pair[1])
            .any(|(&a, &b)| (a < switch) != (b < switch))
        {
            out.push(i);
        }
    }
    out
}

/// Whether update `i` of `len` gets a close check: at the checkpoints and
/// within [`WINDOW`] of a crossing.
fn checked(i: usize, len: usize, crossings: &[usize]) -> bool {
    (i + 1).is_multiple_of((len / CHECKPOINTS).max(1))
        || i + 1 == len
        || crossings.iter().any(|&c| c.abs_diff(i) <= WINDOW)
}

/// The snapshot fields a switch must not move.
fn visible(s: Snapshot) -> (i64, usize, u64) {
    (s.count, s.total_edges, s.epoch)
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v
}

fn sign(op: UpdateOp) -> isize {
    match op {
        UpdateOp::Insert => 1,
        UpdateOp::Delete => -1,
    }
}

/// One rotation's stream: hub-skewed edges of `A`, `B` and `C` over layers
/// of `switch / 4` vertices.
fn rotation_stream(seed: u64, switch: usize) -> Vec<(Phase, QRel, VertexPair, UpdateOp)> {
    let n = u32::try_from(switch / 4).unwrap().max(16);
    let mut rng = SmallRng::seed_from_u64(seed);
    let held = |edges: &[(QRel, VertexPair)]| (edges.len(), edges.len());
    let fresh = |rng: &mut SmallRng| {
        let rel = QRel::ALL[rng.gen_range(0..3)];
        (rel, (endpoint(rng, n, 2), endpoint(rng, n, 2)))
    };
    phases(&mut rng, switch, held, fresh)
        .into_iter()
        .map(|(phase, op, (rel, pair))| (phase, rel, pair, op))
        .collect()
}

type VertexPair = (u32, u32);

/// Queries at which the auto and simple engines must agree: hub pairs and
/// a few others.
fn probes(n: u32) -> Vec<VertexPair> {
    let mut out = vec![(0, 0), (0, 1), (1, 0), (1, 1)];
    out.extend((2..n).step_by(37).map(|v| (v, n - v)));
    out
}

fn run_rotation(seed: u64) {
    let switch = switch_at();
    let stream = rotation_stream(seed, switch);
    let sizes = sizes(stream.iter().map(|&(_, _, _, op)| [sign(op)]));
    let crossings = crossings(&sizes, switch);
    assert!(crossings.len() >= 3, "the engine crosses up, down and up");
    let probes = probes(u32::try_from(switch / 4).unwrap());

    let mut auto = AutoEngine::new(FmmConfig::default());
    let mut simple = SimpleEngine::new();
    let mut switched_at = None;
    let mut last_work = 0;
    for (i, &(_, rel, (l, r), op)) in stream.iter().enumerate() {
        auto.apply_update(rel, l, r, op);
        simple.apply_update(rel, l, r, op);
        assert!(auto.work() >= last_work, "work carries on at update {i}");
        last_work = auto.work();
        let held = sizes[i + 1][0];
        if switched_at.is_none() && auto.switched() {
            assert_eq!(held, switch, "switched at {held} edges, update {i}");
            assert_eq!(auto.slow_path_stats().era_rebuilds, 1);
            for rel in QRel::ALL {
                assert_eq!(sorted(auto.edges(rel)), sorted(simple.edges(rel)));
            }
            switched_at = Some(i);
        }
        assert_eq!(
            auto.switched(),
            switched_at.is_some(),
            "the switch is one-way (update {i}, {held} edges)"
        );
        assert!(auto.switched() || held < switch);
        assert!(auto.has_edge(rel, l, r) == (op == UpdateOp::Insert));
        if checked(i, stream.len(), &crossings) {
            for &(u, v) in &probes {
                assert_eq!(auto.query(u, v), simple.query(u, v), "({u}, {v}) at {i}");
            }
        }
    }
    assert!(switched_at.is_some());

    // The growth phase as one batch per relation: the batch that reaches
    // the switch point is split there.
    let grown: Vec<_> = stream
        .iter()
        .take_while(|&&(phase, ..)| phase == Phase::Grow)
        .collect();
    let mut batched = AutoEngine::new(FmmConfig::default());
    let mut sequential = SimpleEngine::new();
    for rel in QRel::ALL {
        let batch: Vec<_> = grown
            .iter()
            .filter(|&&&(_, r, ..)| r == rel)
            .map(|&&(_, _, (l, r), op)| (l, r, op))
            .collect();
        batched.apply_batch(rel, &batch);
    }
    for &&(_, rel, (l, r), op) in &grown {
        sequential.apply_update(rel, l, r, op);
    }
    assert!(batched.switched());
    assert!(batched.slow_path_stats().era_rebuilds >= 1);
    for rel in QRel::ALL {
        assert_eq!(sorted(batched.edges(rel)), sorted(sequential.edges(rel)));
    }
    for &(u, v) in &probes {
        assert_eq!(batched.query(u, v), sequential.query(u, v), "({u}, {v})");
    }
}

/// A layered hub-skewed stream whose four rotations each cross the switch
/// point up, down and up again. Rotation `k` holds every relation but
/// `Rel::from_index(k)`.
fn layered_stream(seed: u64, switch: usize) -> Vec<LayeredUpdate> {
    let n = u32::try_from(switch / 4).unwrap().max(16);
    let mut rng = SmallRng::seed_from_u64(seed);
    let held = |edges: &[(usize, u32, u32)]| {
        let mut per_rel = [0; 4];
        for e in edges {
            per_rel[e.0] += 1;
        }
        let total: usize = per_rel.iter().sum();
        let rotations = per_rel.map(|own| total - own);
        (
            *rotations.iter().min().unwrap(),
            *rotations.iter().max().unwrap(),
        )
    };
    let fresh = |rng: &mut SmallRng| {
        let rel = rng.gen_range(0..4usize);
        (rel, endpoint(rng, n, 2), endpoint(rng, n, 2))
    };
    phases(&mut rng, switch, held, fresh)
        .into_iter()
        .map(|(_, op, (rel, left, right))| {
            let rel = Rel::from_index(rel);
            LayeredUpdate {
                op,
                rel,
                left,
                right,
            }
        })
        .collect()
}

fn run_layered(seed: u64) {
    let switch = switch_at();
    let updates = layered_stream(seed, switch);
    // Rotation `k` gains or loses an edge on every update outside `k`.
    let sizes = sizes(updates.iter().map(|u| {
        let mut step = [sign(u.op); 4];
        step[u.rel.index()] = 0;
        step
    }));
    let crossings = crossings(&sizes, switch);
    assert!(crossings.len() >= 8, "each rotation crosses up and down");
    let grown = {
        let mut reached = [false; 4];
        sizes
            .iter()
            .position(|s| {
                for (r, &size) in reached.iter_mut().zip(s) {
                    *r |= size > switch + switch / 10;
                }
                reached.iter().all(|&r| r)
            })
            .unwrap()
    };

    let mut reference = LayeredGraph::new();
    let mut auto = LayeredCycleCounter::new(EngineKind::Auto);
    let mut simple = LayeredCycleCounter::new(EngineKind::Simple);
    let mut batched = LayeredCycleCounter::new(EngineKind::Auto);
    let mut reached = [false; 4];
    let mut last_work = 0;
    let mut next_batch = 0;
    for (i, update) in updates.iter().enumerate() {
        reference.apply(update);
        let count = auto.try_apply(*update).unwrap();
        assert_eq!(count, simple.try_apply(*update).unwrap(), "update {i}");
        assert_eq!(visible(auto.snapshot()), visible(simple.snapshot()));
        assert!(auto.work() >= last_work, "work carries on at update {i}");
        last_work = auto.work();

        let before = reached;
        for (r, &size) in reached.iter_mut().zip(&sizes[i + 1]) {
            *r |= size >= switch;
        }
        let switched = reached.iter().filter(|&&r| r).count() as u64;
        let rebuilds = auto.slow_path_stats().era_rebuilds;
        assert!(
            rebuilds >= switched && (switched > 0 || rebuilds == 0),
            "{rebuilds} era rebuilds with {switched} rotations past {switch} edges, update {i}"
        );
        if reached != before {
            for rel in Rel::ALL {
                let want: Vec<_> = reference.rel(rel).iter().map(|(l, r, _)| (l, r)).collect();
                assert_eq!(sorted(auto.edges(rel)), sorted(want), "{rel:?}");
            }
        }
        if checked(i, updates.len(), &crossings) {
            let want = reference.count_layered_4cycles_brute_force();
            assert_eq!(auto.count(), want, "brute force after update {i}");
        }

        // The twin takes the growth phase, with every rotation's switch, as
        // one batch, then chunks.
        let end = if next_batch == 0 {
            grown
        } else {
            next_batch + CHUNK
        };
        if i + 1 == end.min(updates.len()) {
            batched.try_apply_batch(&updates[next_batch..=i]).unwrap();
            next_batch = i + 1;
            assert_eq!(visible(batched.snapshot()), visible(auto.snapshot()));
            for rel in Rel::ALL {
                assert_eq!(sorted(batched.edges(rel)), sorted(auto.edges(rel)));
            }
        }
    }
    assert!(reached.iter().all(|&r| r));
}

/// A general hub stream that crosses the switch point (six layered edges
/// per general edge) up, down and up again.
fn general_stream(seed: u64, switch: usize) -> Vec<GraphUpdate> {
    let n = u32::try_from(switch / 8).unwrap().max(16);
    let mut rng = SmallRng::seed_from_u64(seed);
    let held = |edges: &[VertexPair]| (6 * edges.len(), 6 * edges.len());
    let fresh = |rng: &mut SmallRng| loop {
        let (u, v) = (endpoint(rng, n, 4), endpoint(rng, n, 4));
        if u != v {
            return (u.min(v), u.max(v));
        }
    };
    phases(&mut rng, switch, held, fresh)
        .into_iter()
        .map(|(_, op, (u, v))| GraphUpdate { op, u, v })
        .collect()
}

fn run_general(seed: u64) {
    let switch = switch_at();
    let updates = general_stream(seed, switch);
    let sizes = sizes(updates.iter().map(|u| [6 * sign(u.op)]));
    let crossings = crossings(&sizes, switch);
    assert!(crossings.len() >= 3, "the engine crosses up, down and up");
    let grown = crossings[0] + 1;

    let mut reference = GeneralGraph::new();
    let mut auto = FourCycleCounter::new(EngineKind::Auto);
    let mut simple = FourCycleCounter::new(EngineKind::Simple);
    let mut batched = FourCycleCounter::new(EngineKind::Auto);
    let mut reached = false;
    let mut last_work = 0;
    let mut next_batch = 0;
    for (i, update) in updates.iter().enumerate() {
        reference.apply(update);
        let count = auto.try_apply(*update).unwrap();
        assert_eq!(count, simple.try_apply(*update).unwrap(), "update {i}");
        assert_eq!(visible(auto.snapshot()), visible(simple.snapshot()));
        assert!(auto.work() >= last_work, "work carries on at update {i}");
        last_work = auto.work();

        let switching = !reached && sizes[i + 1][0] >= switch;
        reached |= switching;
        match auto.engine() {
            GeneralEngine::Auto(_) => assert!(!reached, "no switch at update {i}"),
            GeneralEngine::Symmetric(_) => assert!(reached, "switched back at update {i}"),
            GeneralEngine::Relations(_) => panic!("an auto session runs no per-relation kind"),
        }
        let rebuilds = auto.slow_path_stats().era_rebuilds;
        assert_eq!(rebuilds > 0, reached, "update {i}");
        if switching {
            assert_eq!(rebuilds, 1, "the switch is one era rebuild");
            assert_eq!(sorted(auto.edges()), sorted(reference.edges().collect()));
        }
        if checked(i, updates.len(), &crossings) {
            let want = reference.count_4cycles_brute_force();
            assert_eq!(auto.count(), want, "brute force after update {i}");
        }

        // The twin takes everything up to and just past the switch as one
        // batch, then chunks.
        let end = if next_batch == 0 {
            grown + 5
        } else {
            next_batch + CHUNK
        };
        if i + 1 == end.min(updates.len()) {
            batched.try_apply_batch(&updates[next_batch..=i]).unwrap();
            next_batch = i + 1;
            assert_eq!(visible(batched.snapshot()), visible(auto.snapshot()));
            assert_eq!(batched.slow_path_stats(), auto.slow_path_stats());
            assert_eq!(sorted(batched.edges()), sorted(auto.edges()));
        }
    }
    assert!(reached);
}

#[test]
fn a_rotation_engine_switches_once_and_stays_exact() {
    run_rotation(11);
}

#[test]
fn layered_rotations_each_switch_and_stay_exact() {
    run_layered(11);
}

#[test]
fn general_sessions_switch_once_and_stay_exact() {
    run_general(11);
}

#[test]
#[ignore = "full size: run in release"]
fn switches_stay_exact_on_more_seeds() {
    for seed in 12..20 {
        run_rotation(seed);
        run_layered(seed);
        run_general(seed);
    }
}
