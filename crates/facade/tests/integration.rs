//! Workspace-level integration tests: exercise the public facade API
//! end-to-end across crates (graphs ← workloads → engines → counters),
//! the way the examples and a downstream user would.

use fourcycle::complexity::{solve_main, OMEGA_CURRENT_BEST, PAPER_EPS_CURRENT};
use fourcycle::core::{EngineKind, FourCycleCounter, LayeredCycleCounter};
use fourcycle::graph::{GeneralGraph, LayeredGraph, LayeredUpdate, Rel};
use fourcycle::workloads::{
    parse_layered_trace, render_layered_trace, GeneralStreamConfig, GeneralStreamKind,
    LayeredStreamConfig, LayeredStreamKind,
};

/// End-to-end Theorem 1 pipeline: workload generator → general-graph counter
/// (main algorithm) → brute-force validation, including deletions.
#[test]
fn general_graph_pipeline_with_main_algorithm() {
    let stream = GeneralStreamConfig {
        vertices: 48,
        updates: 500,
        kind: GeneralStreamKind::UniformChurn,
        delete_prob: 0.3,
        seed: 101,
    }
    .generate();
    let mut counter = FourCycleCounter::new(EngineKind::Fmm);
    let mut reference = GeneralGraph::new();
    for update in &stream {
        if counter.apply(*update).is_some() {
            reference.apply(update);
        }
    }
    assert_eq!(counter.count(), reference.count_4cycles_brute_force());
}

/// End-to-end Theorem 2 pipeline on a skewed layered stream: all engines
/// produce identical counts and match brute force.
#[test]
fn layered_pipeline_all_engines_agree() {
    let stream = LayeredStreamConfig {
        layer_size: 32,
        updates: 900,
        delete_prob: 0.25,
        kind: LayeredStreamKind::HubSkewed {
            hubs: 2,
            hub_prob: 0.45,
        },
        seed: 202,
    }
    .generate();
    // The oracle's own graph: `apply` skips ill-formed updates, as the
    // counters do.
    let mut reference = LayeredGraph::new();
    for update in &stream {
        reference.apply(update);
    }
    let mut counts = Vec::new();
    for kind in [
        EngineKind::Simple,
        EngineKind::Threshold,
        EngineKind::Fmm,
        EngineKind::FmmDense,
    ] {
        let mut counter = LayeredCycleCounter::new(kind);
        counter.apply_batch(&stream);
        assert_eq!(
            counter.count(),
            reference.count_layered_4cycles_brute_force(),
            "{}",
            kind.name()
        );
        counts.push(counter.count());
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "counts: {counts:?}"
    );
}

/// The trace format round-trips a generated workload, and replaying the
/// parsed trace reproduces the same count (replayable experiments).
#[test]
fn trace_roundtrip_reproduces_counts() {
    let stream = LayeredStreamConfig {
        layer_size: 20,
        updates: 400,
        delete_prob: 0.2,
        kind: LayeredStreamKind::Relational,
        seed: 303,
    }
    .generate();
    let text = render_layered_trace(&stream);
    let parsed = parse_layered_trace(&text).expect("valid trace");
    assert_eq!(parsed, stream);

    let mut direct = LayeredCycleCounter::new(EngineKind::Threshold);
    direct.apply_batch(&stream);
    let mut replayed = LayeredCycleCounter::new(EngineKind::Threshold);
    replayed.apply_batch(&parsed);
    assert_eq!(direct.count(), replayed.count());
}

/// The cyclic-join (IVM) reading of §1: a layered counter fed tuple inserts
/// and deletes tracks the join size `|A ⋈ B ⋈ C ⋈ D|`, recomputed from the
/// tuples it accepted, under a generated stream and ad-hoc tuple churn.
#[test]
fn ivm_view_tracks_cyclic_join_count() {
    let stream = LayeredStreamConfig {
        layer_size: 12,
        updates: 500,
        delete_prob: 0.3,
        kind: LayeredStreamKind::Uniform,
        seed: 404,
    }
    .generate();
    let mut view = LayeredCycleCounter::new(EngineKind::Fmm);
    let mut tuples = LayeredGraph::new();
    let mut apply = |updates: &[LayeredUpdate]| {
        for update in updates {
            if view.apply(*update).is_some() {
                tuples.apply(update);
            }
        }
        assert_eq!(view.count(), tuples.count_layered_4cycles_brute_force());
    };
    apply(&stream);
    apply(&Rel::ALL.map(|rel| LayeredUpdate::insert(rel, 0, 0)));
    apply(&[LayeredUpdate::delete(Rel::B, 0, 0)]);
}

/// The headline numbers of the paper are reproducible through the facade.
#[test]
fn facade_exposes_paper_parameters() {
    let current = solve_main(OMEGA_CURRENT_BEST);
    assert!((current.eps - PAPER_EPS_CURRENT).abs() < 1e-6);
    let ideal = solve_main(2.0);
    assert!((ideal.eps - 1.0 / 24.0).abs() < 1e-12);
    assert_eq!(solve_main(2.5).eps, 0.0);
}
