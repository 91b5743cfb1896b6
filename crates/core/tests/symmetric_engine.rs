//! The symmetric fmm engine against the three-relation fmm engine it
//! replaces in general sessions.
//!
//! Both run as a [`GeneralEngine`] under the calls `FourCycleCounter` makes
//! (a query before an insert's update, after a delete's): the symmetric
//! engine stores §8's `A = B = C` once, the other receives each general
//! update as three two-orientation `apply_batch` calls. After every update
//! the two must agree on the count, on `has_edge` and `edges`, and on the
//! 3-path query at sampled vertex pairs. The streams force rollovers
//! (`phase_len_override`), take the dense rollover path, and are skewed
//! towards hubs so that High and Dense classes fill.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::{FmmConfig, FmmEngine, GeneralEngine, SymmetricFmmEngine};
use fourcycle_graph::UpdateOp;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Stream shapes: `(vertices, hubs, hub share, delete probability)`. The
/// last makes two hubs of degree far above the High threshold.
const SHAPES: [(u32, u32, f64, f64); 3] =
    [(12, 0, 0.0, 0.3), (40, 2, 0.5, 0.3), (200, 2, 0.9, 0.15)];

/// Phase lengths: the paper's, and two forced ones.
const PHASES: [Option<usize>; 3] = [None, Some(3), Some(17)];

/// `steps` well-formed general updates on `n` vertices. Each deletes a
/// random present edge with probability `delete`; otherwise it inserts an
/// absent edge, which with probability `share` joins one of `hubs` hubs to
/// a uniform vertex, and else joins two uniform vertices.
fn general_stream(
    seed: u64,
    (n, hubs, share, delete): (u32, u32, f64, f64),
    steps: usize,
) -> Vec<(u32, u32, UpdateOp)> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut stream = Vec::with_capacity(steps);
    while stream.len() < steps {
        if !edges.is_empty() && rng.gen_bool(delete) {
            let (u, v) = edges.swap_remove(rng.gen_range(0..edges.len()));
            stream.push((u, v, UpdateOp::Delete));
            continue;
        }
        let u = if hubs > 0 && rng.gen_bool(share) {
            rng.gen_range(0..hubs)
        } else {
            rng.gen_range(0..n)
        };
        let v = rng.gen_range(0..n);
        let key = (u.min(v), u.max(v));
        if u != v && !edges.contains(&key) {
            edges.push(key);
            stream.push((u, v, UpdateOp::Insert));
        }
    }
    stream
}

/// Applies one update as `FourCycleCounter` does and returns the change
/// of the 4-cycle count.
fn counted_update(engine: &mut GeneralEngine, (u, v, op): (u32, u32, UpdateOp)) -> i64 {
    match op {
        UpdateOp::Insert => {
            let delta = engine.query(u, v);
            engine.update(u, v, op);
            delta
        }
        UpdateOp::Delete => {
            engine.update(u, v, op);
            -engine.query(u, v)
        }
    }
}

fn sorted_edges(engine: &GeneralEngine) -> Vec<(u32, u32)> {
    let mut edges = engine.edges();
    edges.sort_unstable();
    edges
}

/// Runs `stream` through both engines, comparing them after every update;
/// returns whether the symmetric engine ever held a High and a Dense
/// vertex.
fn run_side_by_side(
    cfg: FmmConfig,
    stream: &[(u32, u32, UpdateOp)],
    n: u32,
    seed: u64,
) -> (bool, bool) {
    let mut symmetric = GeneralEngine::Symmetric(Box::new(SymmetricFmmEngine::new(cfg)));
    let mut three_calls = GeneralEngine::Relations(Box::new(FmmEngine::new(cfg)));
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    let (mut count, mut reference) = (0, 0);
    let (mut saw_high, mut saw_dense) = (false, false);
    for (i, &update) in stream.iter().enumerate() {
        count += counted_update(&mut symmetric, update);
        reference += counted_update(&mut three_calls, update);
        assert_eq!(
            count, reference,
            "count after update {i} ({update:?}), seed {seed}"
        );
        let (u, v, op) = update;
        assert_eq!(symmetric.has_edge(u, v), op == UpdateOp::Insert);
        assert_eq!(symmetric.has_edge(v, u), op == UpdateOp::Insert);
        assert_eq!(
            sorted_edges(&symmetric),
            sorted_edges(&three_calls),
            "edges after update {i}"
        );
        for _ in 0..4 {
            let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
            assert_eq!(symmetric.has_edge(a, b), three_calls.has_edge(a, b));
            assert_eq!(
                symmetric.query(a, b),
                three_calls.query(a, b),
                "query ({a},{b}) after update {i}, seed {seed}"
            );
        }
        if let GeneralEngine::Symmetric(engine) = &symmetric {
            let (state, _) = engine.debug_state();
            saw_high |= !state.high_l1().is_empty();
            saw_dense |= !state.dense_l2().is_empty();
        }
    }
    (saw_high, saw_dense)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn symmetric_fmm_matches_the_three_relation_engine(
        seed in 0u64..1_000_000,
        shape in 0usize..3,
        phase in 0usize..3,
        dense in 0u8..2,
        steps in 100usize..400,
    ) {
        let cfg = FmmConfig {
            phase_len_override: PHASES[phase],
            use_fmm: dense == 1,
            ..Default::default()
        };
        let stream = general_stream(seed, SHAPES[shape], steps);
        run_side_by_side(cfg, &stream, SHAPES[shape].0, seed);
    }
}

/// The hub shape fills High and Dense, and the symmetric engine crosses
/// every slow path, on both rollover paths.
#[test]
fn hub_streams_fill_high_and_dense_and_cross_every_slow_path() {
    for use_fmm in [false, true] {
        let cfg = FmmConfig {
            phase_len_override: Some(17),
            use_fmm,
            ..Default::default()
        };
        let stream = general_stream(7, SHAPES[2], 600);
        let (saw_high, saw_dense) = run_side_by_side(cfg, &stream, SHAPES[2].0, 7);
        assert!(
            saw_high && saw_dense,
            "use_fmm {use_fmm}: High {saw_high}, Dense {saw_dense}"
        );
        let mut engine = SymmetricFmmEngine::new(cfg);
        for &(u, v, op) in &stream {
            engine.update(u, v, op);
        }
        let slow = engine.slow_path_stats();
        assert!(slow.era_rebuilds > 0, "{slow:?}");
        assert!(slow.phase_rollovers > 0, "{slow:?}");
        assert!(slow.class_transitions > 0, "{slow:?}");
    }
}
