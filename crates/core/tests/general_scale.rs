//! Exact general counts at benchmark scale.
//!
//! The stream has the shape of perfbench's `general-hubs` session: 8,000
//! edges on 6,000 vertices, 4 hubs drawing 30 % of the endpoints, then
//! churn in which each step deletes a random present edge and inserts a
//! fresh one. One `FourCycleCounter` per engine kind runs it in lockstep,
//! and at 10 checkpoints every count must equal
//! `count_4cycles_brute_force`. The fmm counters must cross every slow path
//! and hold High and Dense vertices at the end, so the run reaches the
//! classes and tables that small streams leave empty. Their era rebuilds
//! must be exactly those of the era rule: ids drawn from 6,000 vertices
//! never leave the dead majority that would make the engine re-intern.
//!
//! The slice runs under `cargo test`; the full run has more churn and adds
//! the threshold engine, and CI runs it in release:
//! `cargo test --release -p fourcycle-core --test general_scale -- --ignored`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::{EngineKind, FmmConfig, FourCycleCounter, GeneralEngine};
use fourcycle_graph::{ClassThresholds, GeneralGraph, GraphUpdate, UpdateOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const VERTICES: u32 = 6_000;
const HUBS: u32 = 4;
const HUB_SHARE: f64 = 0.30;
const EDGES: usize = 8_000;
const CHECKPOINTS: usize = 10;

/// A vertex: one of the hubs with probability `HUB_SHARE`, else uniform
/// over the rest.
fn endpoint(rng: &mut SmallRng) -> u32 {
    if rng.gen_bool(HUB_SHARE) {
        rng.gen_range(0..HUBS)
    } else {
        rng.gen_range(HUBS..VERTICES)
    }
}

/// An edge `(u, v)`, `u < v`, not in `present`.
fn fresh_edge(rng: &mut SmallRng, present: &HashSet<(u32, u32)>) -> (u32, u32) {
    loop {
        let (u, v) = (endpoint(rng), endpoint(rng));
        let e = (u.min(v), u.max(v));
        if u != v && !present.contains(&e) {
            return e;
        }
    }
}

/// The set-up inserts, then `churn` delete/insert pairs.
fn general_hubs_stream(seed: u64, churn: usize) -> Vec<GraphUpdate> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut present = HashSet::new();
    let mut edges = Vec::new();
    let mut stream = Vec::with_capacity(EDGES + 2 * churn);
    while edges.len() < EDGES {
        let e = fresh_edge(&mut rng, &present);
        present.insert(e);
        edges.push(e);
        stream.push(GraphUpdate::insert(e.0, e.1));
    }
    for _ in 0..churn {
        let (u, v) = edges.swap_remove(rng.gen_range(0..edges.len()));
        present.remove(&(u, v));
        stream.push(GraphUpdate::delete(u, v));
        let e = fresh_edge(&mut rng, &present);
        present.insert(e);
        edges.push(e);
        stream.push(GraphUpdate::insert(e.0, e.1));
    }
    stream
}

/// The era rebuilds a symmetric engine's era rule makes on `stream`, one
/// update at a time: fresh thresholds whenever the six layered copies of
/// its edges leave `[m̂/2, 2m̂]`.
fn era_rule_rebuilds(stream: &[GraphUpdate]) -> u64 {
    let FmmConfig { eps, delta, .. } = FmmConfig::default();
    let mut era = ClassThresholds::with_delta(1, eps, delta);
    let (mut edges, mut rebuilds) = (0usize, 0);
    for update in stream {
        edges = match update.op {
            UpdateOp::Insert => edges + 1,
            UpdateOp::Delete => edges - 1,
        };
        if era.needs_rebuild(6 * edges) {
            era = ClassThresholds::with_delta(6 * edges, eps, delta);
            rebuilds += 1;
        }
    }
    rebuilds
}

/// Runs the stream through one counter per kind, checking every count
/// against brute force at the checkpoints, then checks the fmm counters'
/// slow paths and classes.
fn run(kinds: &[EngineKind], churn: usize) {
    let stream = general_hubs_stream(8_117, churn);
    let mut counters: Vec<FourCycleCounter> = kinds
        .iter()
        .map(|&kind| FourCycleCounter::new(kind))
        .collect();
    let mut reference = GeneralGraph::new();
    let every = stream.len() / CHECKPOINTS;
    for (i, update) in stream.iter().enumerate() {
        reference.apply(update);
        for counter in &mut counters {
            counter.try_apply(*update).unwrap();
        }
        if (i + 1) % every == 0 || i + 1 == stream.len() {
            let want = reference.count_4cycles_brute_force();
            for (kind, counter) in kinds.iter().zip(&counters) {
                assert_eq!(counter.count(), want, "{} after update {i}", kind.name());
            }
        }
    }
    for (kind, counter) in kinds.iter().zip(&counters) {
        assert_eq!(counter.total_edges(), EDGES, "{}", kind.name());
        let GeneralEngine::Symmetric(engine) = counter.engine() else {
            continue;
        };
        let slow = counter.slow_path_stats();
        assert_eq!(
            slow.era_rebuilds,
            era_rule_rebuilds(&stream),
            "{}: a rebuild beyond the era rule's",
            kind.name()
        );
        assert!(slow.era_rebuilds > 0, "{} {slow:?}", kind.name());
        assert!(slow.phase_rollovers > 0, "{} {slow:?}", kind.name());
        assert!(slow.class_transitions > 0, "{} {slow:?}", kind.name());
        let (state, _) = engine.debug_state();
        assert!(
            !state.high_l1().is_empty(),
            "{}: no High vertex",
            kind.name()
        );
        assert!(
            !state.dense_l2().is_empty(),
            "{}: no Dense vertex",
            kind.name()
        );
    }
}

#[test]
fn general_hubs_counts_are_exact_on_both_fmm_engines() {
    run(&[EngineKind::Fmm, EngineKind::FmmDense], 2_000);
}

#[test]
#[ignore = "full size: run in release"]
fn general_hubs_counts_are_exact_at_full_size() {
    run(
        &[EngineKind::Fmm, EngineKind::FmmDense, EngineKind::Threshold],
        12_000,
    );
}
