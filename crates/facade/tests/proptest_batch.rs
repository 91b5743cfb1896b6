//! Differential property tests for the batch-update pipeline: applying a
//! random fully dynamic stream through `apply_batch` — with arbitrary batch
//! partitions — must be indistinguishable from per-update application, for
//! every `EngineKind`, at the engine level (query grids) and the counter
//! level (counts at every batch boundary).

use fourcycle::core::{EngineKind, FourCycleCounter, LayeredCycleCounter, QRel};
use fourcycle::graph::{GraphUpdate, LayeredGraph, LayeredUpdate, Rel, UpdateOp};
use proptest::prelude::*;

/// Script of raw (relation, left, right) triples over a small universe;
/// toggle semantics turn it into a well-formed fully dynamic stream.
fn layered_script() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..4, 0u32..6, 0u32..6), 1..140)
}

/// Engine-frame script: relations A/B/C only.
fn engine_script() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..3, 0u32..6, 0u32..6), 1..140)
}

fn toggle_layered(script: &[(u8, u32, u32)]) -> Vec<LayeredUpdate> {
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
    out
}

/// The script as raw updates, not toggled: every third triple is a delete
/// and the rest are inserts, so the stream holds duplicate inserts and
/// deletes of absent edges.
fn raw_layered(script: &[(u8, u32, u32)]) -> Vec<LayeredUpdate> {
    let update = |(i, &(rel_idx, l, r)): (usize, &(u8, u32, u32))| {
        let rel = Rel::from_index(rel_idx as usize);
        if i % 3 == 2 {
            LayeredUpdate::delete(rel, l, r)
        } else {
            LayeredUpdate::insert(rel, l, r)
        }
    };
    script.iter().enumerate().map(update).collect()
}

/// Engine-frame toggle: tracks presence per (rel, l, r) to keep the stream
/// well-formed for a single engine.
fn toggle_engine(script: &[(u8, u32, u32)]) -> Vec<(QRel, u32, u32, UpdateOp)> {
    let mut present = std::collections::HashSet::new();
    let mut out = Vec::new();
    for &(rel_idx, l, r) in script {
        let rel = [QRel::A, QRel::B, QRel::C][rel_idx as usize];
        let op = if present.remove(&(rel, l, r)) {
            UpdateOp::Delete
        } else {
            present.insert((rel, l, r));
            UpdateOp::Insert
        };
        out.push((rel, l, r, op));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Counter level: for every engine kind, batch application over an
    /// arbitrary partition reproduces the sequential count at every batch
    /// boundary and leaves an identical final state. The toggled stream is
    /// well-formed; the raw one holds rejected updates, so some of its
    /// batches take `apply_batch`'s per-update fallback.
    #[test]
    fn counter_batches_match_sequential_for_every_engine_kind(
        script in layered_script(),
        batch_size in 1usize..48,
    ) {
        for stream in [toggle_layered(&script), raw_layered(&script)] {
            // The oracle's own graph: `apply` skips ill-formed updates, as
            // the counters do.
            let mut reference = LayeredGraph::new();
            for update in &stream {
                reference.apply(update);
            }
            for kind in EngineKind::ALL {
                let mut sequential = LayeredCycleCounter::new(kind);
                let mut batched = LayeredCycleCounter::new(kind);
                for batch in stream.chunks(batch_size) {
                    let mut seq_count = sequential.count();
                    for update in batch {
                        seq_count = sequential.apply(*update).unwrap_or(seq_count);
                    }
                    let batch_count = batched.apply_batch(batch);
                    prop_assert_eq!(
                        batch_count, seq_count,
                        "engine {} diverged at a batch boundary", kind.name()
                    );
                    prop_assert_eq!(batched.epoch(), sequential.epoch());
                }
                prop_assert_eq!(batched.count(), sequential.count(), "{}", kind.name());
                prop_assert_eq!(batched.total_edges(), sequential.total_edges());
                prop_assert_eq!(batched.total_edges(), reference.total_edges());
                prop_assert_eq!(
                    batched.count(),
                    reference.count_layered_4cycles_brute_force(),
                    "batched count must stay exact for {}", kind.name()
                );
            }
        }
    }

    /// Engine level: `apply_batch` (per-relation sub-batches, arbitrary
    /// partition) leaves every engine kind query-equivalent to per-update
    /// application over the full query grid.
    #[test]
    fn engine_batches_are_query_equivalent(
        script in engine_script(),
        batch_size in 1usize..32,
    ) {
        let stream = toggle_engine(&script);
        for kind in EngineKind::ALL {
            let mut sequential = kind.build();
            let mut batched = kind.build();
            for chunk in stream.chunks(batch_size) {
                for &(rel, l, r, op) in chunk {
                    sequential.apply_update(rel, l, r, op);
                }
                // Group the chunk by relation, preserving order within one.
                for rel in QRel::ALL {
                    let sub: Vec<(u32, u32, UpdateOp)> = chunk
                        .iter()
                        .filter(|&&(r0, ..)| r0 == rel)
                        .map(|&(_, l, r, op)| (l, r, op))
                        .collect();
                    if !sub.is_empty() {
                        batched.apply_batch(rel, &sub);
                    }
                }
            }
            for u in 0..6u32 {
                for v in 0..6u32 {
                    prop_assert_eq!(
                        batched.query(u, v),
                        sequential.query(u, v),
                        "engine {} query ({}, {})", kind.name(), u, v
                    );
                }
            }
        }
    }

    /// The general-graph counter's batch entry point reproduces sequential
    /// application (§8 reduction on top of the layered batch pipeline).
    #[test]
    fn general_counter_batches_match_sequential(script in proptest::collection::vec((0u32..8, 0u32..8), 1..80)) {
        let mut graph = fourcycle::graph::GeneralGraph::new();
        let mut stream = Vec::new();
        for &(u, v) in &script {
            if u == v {
                continue;
            }
            let op = if graph.has_edge(u, v) { UpdateOp::Delete } else { UpdateOp::Insert };
            let update = GraphUpdate { op, u, v };
            graph.apply(&update);
            stream.push(update);
        }
        let mut sequential = FourCycleCounter::new(EngineKind::Fmm);
        for update in &stream {
            sequential.apply(*update);
        }
        let mut batched = FourCycleCounter::new(EngineKind::Fmm);
        let count = batched.apply_batch(&stream);
        prop_assert_eq!(count, sequential.count());
        prop_assert_eq!(count, graph.count_4cycles_brute_force());
    }
}
