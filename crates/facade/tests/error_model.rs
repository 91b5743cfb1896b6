//! The error model, pinned across the whole stack: every `EngineKind` must
//! report the *same* [`UpdateError`] for the same ill-formed update, at the
//! engine level (`try_apply_update`) and the counter level (`try_apply` /
//! `try_insert`) — plus a property test that atomic batch rejection
//! attributes the correct batch index, and a seeded replay that checks
//! every kind's verdicts, edge lists and edge totals against a reference
//! graph the test keeps itself.

use fourcycle::core::{EngineKind, FourCycleCounter, LayeredCycleCounter, QRel, UpdateError};
use fourcycle::graph::{GeneralGraph, GraphUpdate, LayeredGraph, LayeredUpdate, Rel, UpdateOp};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Engine level: the same (duplicate, missing) verdicts from every kind.
#[test]
fn engine_errors_identical_across_every_kind() {
    for kind in EngineKind::ALL {
        let mut engine = kind.build();
        let name = engine.name();

        // Fresh edge inserts fine; duplicate insert is a DuplicateEdge.
        assert_eq!(
            engine.try_apply_update(QRel::A, 1, 2, UpdateOp::Insert),
            Ok(()),
            "{name}"
        );
        assert_eq!(
            engine.try_apply_update(QRel::A, 1, 2, UpdateOp::Insert),
            Err(UpdateError::DuplicateEdge),
            "{name}"
        );
        // Deleting an absent edge is a MissingEdge — including an edge that
        // exists in a *different* relation.
        assert_eq!(
            engine.try_apply_update(QRel::B, 1, 2, UpdateOp::Delete),
            Err(UpdateError::MissingEdge),
            "{name}"
        );
        // Valid delete, then the edge is gone again.
        assert_eq!(
            engine.try_apply_update(QRel::A, 1, 2, UpdateOp::Delete),
            Ok(()),
            "{name}"
        );
        assert_eq!(
            engine.try_apply_update(QRel::A, 1, 2, UpdateOp::Delete),
            Err(UpdateError::MissingEdge),
            "{name}"
        );
    }
}

/// Counter level (layered): identical verdicts for every kind, and rejected
/// updates advance neither count nor epoch.
#[test]
fn layered_counter_errors_identical_across_every_kind() {
    for kind in EngineKind::ALL {
        let name = kind.name();
        let mut counter = LayeredCycleCounter::new(kind);
        assert_eq!(
            counter.try_apply(LayeredUpdate::insert(Rel::A, 1, 2)),
            Ok(0),
            "{name}"
        );
        let cases = [
            (
                LayeredUpdate::insert(Rel::A, 1, 2),
                UpdateError::DuplicateEdge,
            ),
            (
                LayeredUpdate::delete(Rel::A, 2, 1),
                UpdateError::MissingEdge,
            ),
            (
                LayeredUpdate::delete(Rel::D, 1, 2),
                UpdateError::MissingEdge,
            ),
        ];
        for (update, expected) in cases {
            assert_eq!(
                counter.try_apply(update),
                Err(expected),
                "{name}: {update:?}"
            );
        }
        assert_eq!(
            counter.epoch(),
            1,
            "{name}: rejections must not advance the epoch"
        );
        assert_eq!(counter.count(), 0, "{name}");
    }
}

/// Counter level (general, §8 reduction): duplicate / missing / self-loop.
#[test]
fn general_counter_errors_identical_across_every_kind() {
    for kind in EngineKind::ALL {
        let name = kind.name();
        let mut counter = FourCycleCounter::new(kind);
        assert_eq!(counter.try_insert(1, 2), Ok(0), "{name}");
        let cases: [(GraphUpdate, UpdateError); 4] = [
            (GraphUpdate::insert(1, 2), UpdateError::DuplicateEdge),
            (GraphUpdate::insert(2, 1), UpdateError::DuplicateEdge), // undirected
            (GraphUpdate::delete(1, 3), UpdateError::MissingEdge),
            (GraphUpdate::insert(4, 4), UpdateError::SelfLoop),
        ];
        for (update, expected) in cases {
            assert_eq!(
                counter.try_apply(update),
                Err(expected),
                "{name}: {update:?}"
            );
        }
        // Self-loop outranks duplicate/missing classification.
        assert_eq!(
            counter.try_delete(4, 4),
            Err(UpdateError::SelfLoop),
            "{name}"
        );
        assert_eq!(counter.epoch(), 1, "{name}");
    }
}

/// The verdict a replay into `present`'s graph gives an update.
fn verdict(present: bool, op: UpdateOp) -> Result<(), UpdateError> {
    match op {
        UpdateOp::Insert if present => Err(UpdateError::DuplicateEdge),
        UpdateOp::Delete if !present => Err(UpdateError::MissingEdge),
        _ => Ok(()),
    }
}

/// The engines are the only copy of a counter's graph, so on every
/// `EngineKind` both counters must give each update the
/// verdict of a replay into a reference graph the test keeps itself, and
/// after every step hold its edge set, edge total and 4-cycle count. Of
/// each stream's 250 seeded updates, 50 to 199 (asserted) are duplicate
/// inserts, deletes of absent edges or self-loops.
#[test]
fn every_kind_matches_a_reference_replay_on_a_noisy_stream() {
    let mut rng = SmallRng::seed_from_u64(20);
    let layered: Vec<LayeredUpdate> = (0..250)
        .map(|_| {
            let rel = Rel::ALL[rng.gen_range(0..4)];
            let (l, r) = (rng.gen_range(0..5u32), rng.gen_range(0..5u32));
            if rng.gen_bool(0.4) {
                LayeredUpdate::delete(rel, l, r)
            } else {
                LayeredUpdate::insert(rel, l, r)
            }
        })
        .collect();
    let general: Vec<GraphUpdate> = (0..250)
        .map(|_| {
            let (u, v) = (rng.gen_range(0..9u32), rng.gen_range(0..9u32));
            if rng.gen_bool(0.4) {
                GraphUpdate::delete(u, v)
            } else {
                GraphUpdate::insert(u, v)
            }
        })
        .collect();
    let set = |edges: Vec<(u32, u32)>| edges.into_iter().collect::<BTreeSet<_>>();

    for kind in EngineKind::ALL {
        let name = kind.name();
        let mut counter = LayeredCycleCounter::new(kind);
        let mut reference = LayeredGraph::new();
        let mut rejected = 0;
        for (step, &update) in layered.iter().enumerate() {
            let LayeredUpdate {
                op,
                rel,
                left,
                right,
            } = update;
            let want = verdict(reference.has_edge(rel, left, right), op);
            rejected += usize::from(want.is_err());
            assert_eq!(
                counter.try_apply(update).map(drop),
                want,
                "{name} step {step}"
            );
            reference.apply(&update);
            for rel in Rel::ALL {
                let edges = set(reference.rel(rel).iter().map(|(l, r, _)| (l, r)).collect());
                assert_eq!(set(counter.edges(rel)), edges, "{name} step {step} {rel:?}");
            }
            assert_eq!(
                counter.total_edges(),
                reference.total_edges(),
                "{name} step {step}"
            );
            assert_eq!(
                counter.count(),
                reference.count_layered_4cycles_brute_force(),
                "{name} step {step}"
            );
        }
        assert!((50..200).contains(&rejected), "{name}: {rejected} rejected");

        let mut counter = FourCycleCounter::new(kind);
        let mut reference = GeneralGraph::new();
        let mut rejected = 0;
        for (step, &update) in general.iter().enumerate() {
            let GraphUpdate { op, u, v } = update;
            let want = if u == v {
                Err(UpdateError::SelfLoop)
            } else {
                verdict(reference.has_edge(u, v), op)
            };
            rejected += usize::from(want.is_err());
            assert_eq!(
                counter.try_apply(update).map(drop),
                want,
                "{name} step {step}"
            );
            reference.apply(&update);
            assert_eq!(
                set(counter.edges()),
                set(reference.edges().collect()),
                "{name} step {step}"
            );
            assert_eq!(
                counter.total_edges(),
                reference.edge_count(),
                "{name} step {step}"
            );
            assert_eq!(
                counter.count(),
                reference.count_4cycles_brute_force(),
                "{name} step {step}"
            );
        }
        assert!((50..200).contains(&rejected), "{name}: {rejected} rejected");
    }
}

/// Script of raw (relation, left, right) triples over a small universe;
/// toggle semantics turn it into a well-formed fully dynamic stream.
fn layered_script() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..4, 0u32..5, 0u32..5), 2..60)
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

/// Replays `prefix ++ [corrupted] ++ suffix` where `corrupted` flips the op
/// of the update at `position`, making it ill-formed at exactly that point.
fn corrupt(stream: &[LayeredUpdate], position: usize) -> Vec<LayeredUpdate> {
    let mut out = stream.to_vec();
    let u = &mut out[position];
    u.op = u.op.inverse();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Atomic batch rejection points at the corrupted index, for every
    /// engine kind, and leaves the counter untouched (count, edges, epoch).
    #[test]
    fn batch_rejection_attributes_the_corrupted_index(
        script in layered_script(),
        kind_idx in 0usize..EngineKind::ALL.len(),
        corrupt_pick in 0usize..10_000,
    ) {
        let stream = toggle_layered(&script);
        let position = corrupt_pick % stream.len();
        let corrupted = corrupt(&stream, position);
        let kind = EngineKind::ALL[kind_idx];

        let mut counter = LayeredCycleCounter::new(kind);
        let err = counter
            .try_apply_batch(&corrupted)
            .expect_err("corrupted batch must be rejected");
        prop_assert_eq!(err.index, position, "{}", kind.name());
        // Flipping insert→insert-of-present gives DuplicateEdge; the flip
        // delete→delete-of-absent gives MissingEdge.
        let expected = match corrupted[position].op {
            UpdateOp::Insert => UpdateError::DuplicateEdge,
            UpdateOp::Delete => UpdateError::MissingEdge,
        };
        prop_assert_eq!(err.error, expected);
        // Atomicity: nothing landed.
        prop_assert_eq!(counter.epoch(), 0);
        prop_assert_eq!(counter.total_edges(), 0);
        prop_assert_eq!(counter.count(), 0);

        // The well-formed stream is accepted whole.
        prop_assert!(counter.try_apply_batch(&stream).is_ok());
    }
}
