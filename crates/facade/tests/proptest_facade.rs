//! Property-based tests over the facade: engine/oracle agreement on
//! arbitrary small fully dynamic scripts, inverse cancellation, and counter
//! consistency. These complement the seeded differential tests in
//! `crates/core/tests/` with shrinkable counterexamples.

use fourcycle::core::{EngineKind, FourCycleCounter, LayeredCycleCounter};
use fourcycle::graph::{GeneralGraph, GraphUpdate, LayeredGraph, LayeredUpdate, Rel, UpdateOp};
use proptest::prelude::*;

/// Strategy: a script of (relation, left, right) triples over a small
/// universe; the harness turns it into a well-formed insert/delete stream by
/// toggling edge presence.
fn layered_script() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..4, 0u32..5, 0u32..5), 1..120)
}

fn general_script() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..8, 0u32..8), 1..80)
}

/// Toggle semantics: if the edge is present, delete it; otherwise insert it.
/// Also returns the final graph: the brute-force reference, replayed here
/// rather than read from a counter under test.
fn toggle_layered(script: &[(u8, u32, u32)]) -> (Vec<LayeredUpdate>, LayeredGraph) {
    let mut graph = LayeredGraph::new();
    let mut out = Vec::new();
    for &(rel_idx, l, r) in script {
        let rel = Rel::from_index(rel_idx as usize);
        let op = if graph.has_edge(rel, l, r) {
            UpdateOp::Delete
        } else {
            UpdateOp::Insert
        };
        let update = LayeredUpdate {
            op,
            rel,
            left: l,
            right: r,
        };
        graph.apply(&update);
        out.push(update);
    }
    (out, graph)
}

fn toggle_general(script: &[(u32, u32)]) -> (Vec<GraphUpdate>, GeneralGraph) {
    let mut graph = GeneralGraph::new();
    let mut out = Vec::new();
    for &(u, v) in script {
        if u == v {
            continue;
        }
        let op = if graph.has_edge(u, v) {
            UpdateOp::Delete
        } else {
            UpdateOp::Insert
        };
        let update = GraphUpdate { op, u, v };
        graph.apply(&update);
        out.push(update);
    }
    (out, graph)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every engine maintains the exact layered 4-cycle count on arbitrary
    /// toggle scripts (insertions and deletions interleaved arbitrarily).
    #[test]
    fn layered_counters_are_exact(script in layered_script()) {
        let (stream, reference) = toggle_layered(&script);
        for kind in [EngineKind::Simple, EngineKind::Threshold, EngineKind::Fmm] {
            let mut counter = LayeredCycleCounter::new(kind);
            for update in &stream {
                counter.apply(*update);
            }
            prop_assert_eq!(
                counter.count(),
                reference.count_layered_4cycles_brute_force(),
                "engine {}", kind.name()
            );
        }
    }

    /// The general-graph counter (§8 reduction) is exact on arbitrary toggle
    /// scripts.
    #[test]
    fn general_counter_is_exact(script in general_script()) {
        let (stream, reference) = toggle_general(&script);
        let mut counter = FourCycleCounter::new(EngineKind::Fmm);
        for update in &stream {
            counter.apply(*update);
        }
        prop_assert_eq!(counter.count(), reference.count_4cycles_brute_force());
    }

    /// Applying a script and then its exact inverse returns every engine to a
    /// zero count (cancellation / negative-edge bookkeeping).
    #[test]
    fn inverse_scripts_cancel(script in layered_script()) {
        let (stream, _) = toggle_layered(&script);
        let mut counter = LayeredCycleCounter::new(EngineKind::Fmm);
        for update in &stream {
            counter.apply(*update);
        }
        for update in stream.iter().rev() {
            let inverse = LayeredUpdate { op: update.op.inverse(), ..*update };
            counter.apply(inverse);
        }
        prop_assert_eq!(counter.count(), 0);
        prop_assert_eq!(counter.total_edges(), 0);
    }
}
