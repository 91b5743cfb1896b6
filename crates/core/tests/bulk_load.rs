//! The counters' bulk path for insert-only batches.
//!
//! An atomic batch that only inserts, and holds at least as many updates
//! as the counter holds edges, is loaded in bulk: the engines take whole
//! batches, and the count is recounted on the final graph (ADR-001's
//! 2026-10-19 amendment). Every other batch runs the per-update rules.
//! These tests feed each engine kind, on layered and general sessions,
//! batches on both sides of that rule, and check the batched counter
//! against a twin fed the same updates one at a time and against brute
//! force: count, epoch, edge total, membership and the sorted edge lists.
//!
//! The slice runs under `cargo test`. The full run loads an 8,000-edge
//! general-hubs-shaped session in 500-edge batches and 256 tenants-shaped
//! layered sessions, and CI runs it in release:
//! `cargo test --release -p fourcycle-core --test bulk_load -- --ignored`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::{EngineKind, FourCycleCounter, LayeredCycleCounter, UpdateError};
use fourcycle_graph::{GeneralGraph, GraphUpdate, LayeredGraph, LayeredUpdate, Rel, UpdateOp};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

mod tenants_stream;

/// A vertex of `0..vertices`: one of `hubs` hubs with probability 0.3.
fn endpoint(rng: &mut SmallRng, vertices: u32, hubs: u32) -> u32 {
    if rng.gen_bool(0.3) {
        rng.gen_range(0..hubs)
    } else {
        rng.gen_range(hubs..vertices)
    }
}

/// Layered updates drawn from one generator, so a test can ask for the
/// next batch of fresh inserts or for deletes of held edges.
struct LayeredSource {
    rng: SmallRng,
    vertices: u32,
    held: Vec<(Rel, u32, u32)>,
    present: HashSet<(Rel, u32, u32)>,
}

impl LayeredSource {
    fn new(seed: u64, vertices: u32) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            vertices,
            held: Vec::new(),
            present: HashSet::new(),
        }
    }

    fn inserts(&mut self, n: usize) -> Vec<LayeredUpdate> {
        (0..n)
            .map(|_| loop {
                let rel = Rel::from_index(self.rng.gen_range(0..4));
                let l = endpoint(&mut self.rng, self.vertices, 3);
                let r = endpoint(&mut self.rng, self.vertices, 3);
                if self.present.insert((rel, l, r)) {
                    self.held.push((rel, l, r));
                    break LayeredUpdate::insert(rel, l, r);
                }
            })
            .collect()
    }

    fn delete(&mut self) -> LayeredUpdate {
        let i = self.rng.gen_range(0..self.held.len());
        let (rel, l, r) = self.held.swap_remove(i);
        self.present.remove(&(rel, l, r));
        LayeredUpdate::delete(rel, l, r)
    }
}

/// General updates drawn from one generator, as [`LayeredSource`].
struct GeneralSource {
    rng: SmallRng,
    vertices: u32,
    hubs: u32,
    held: Vec<(u32, u32)>,
    present: HashSet<(u32, u32)>,
}

impl GeneralSource {
    fn new(seed: u64, vertices: u32, hubs: u32) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            vertices,
            hubs,
            held: Vec::new(),
            present: HashSet::new(),
        }
    }

    fn inserts(&mut self, n: usize) -> Vec<GraphUpdate> {
        (0..n)
            .map(|_| loop {
                let u = endpoint(&mut self.rng, self.vertices, self.hubs);
                let v = endpoint(&mut self.rng, self.vertices, self.hubs);
                if u != v && self.present.insert((u.min(v), u.max(v))) {
                    self.held.push((u.min(v), u.max(v)));
                    // Either orientation: the counter takes both.
                    break GraphUpdate::insert(u, v);
                }
            })
            .collect()
    }

    fn delete(&mut self) -> GraphUpdate {
        let i = self.rng.gen_range(0..self.held.len());
        let (u, v) = self.held.swap_remove(i);
        self.present.remove(&(u, v));
        GraphUpdate::delete(v, u)
    }
}

/// Checks a layered counter fed whole batches against a twin fed the same
/// updates one at a time and against brute force, after every batch.
fn check_layered(kind: EngineKind, batches: &[Vec<LayeredUpdate>]) {
    let mut batched = LayeredCycleCounter::new(kind);
    let mut twin = LayeredCycleCounter::new(kind);
    let mut reference = LayeredGraph::new();
    for (i, batch) in batches.iter().enumerate() {
        let what = format!("{} batch {i} of {}", kind.name(), batch.len());
        let count = batched.try_apply_batch(batch).unwrap();
        for update in batch {
            twin.try_apply(*update).unwrap();
            assert!(reference.apply(update));
        }
        assert_eq!(
            count,
            reference.count_layered_4cycles_brute_force(),
            "{what}"
        );
        assert_eq!(count, twin.count(), "{what}");
        assert_eq!(batched.epoch(), twin.epoch(), "{what}");
        assert_eq!(batched.total_edges(), reference.total_edges(), "{what}");
        assert_eq!(twin.total_edges(), reference.total_edges(), "{what}");
        for rel in Rel::ALL {
            let mut want: Vec<_> = reference.rel(rel).iter().map(|(l, r, _)| (l, r)).collect();
            want.sort_unstable();
            for counter in [&batched, &twin] {
                let mut edges = counter.edges(rel);
                edges.sort_unstable();
                assert_eq!(edges, want, "{what}: {rel:?}");
            }
        }
        // Membership, through validation: a present edge refuses a second
        // insert, an absent one a delete, and neither changes anything.
        let last = *batch.last().unwrap();
        let absent = LayeredUpdate::delete(last.rel, u32::MAX, last.right);
        for counter in [&mut batched, &mut twin] {
            if last.op == UpdateOp::Insert {
                let again = counter.try_apply(last);
                assert_eq!(again, Err(UpdateError::DuplicateEdge), "{what}");
            }
            let missing = counter.try_apply(absent);
            assert_eq!(missing, Err(UpdateError::MissingEdge), "{what}");
        }
    }
}

/// Checks a general counter as [`check_layered`] does a layered one.
fn check_general(kind: EngineKind, batches: &[Vec<GraphUpdate>]) {
    let mut batched = FourCycleCounter::new(kind);
    let mut twin = FourCycleCounter::new(kind);
    let mut reference = GeneralGraph::new();
    for (i, batch) in batches.iter().enumerate() {
        let what = format!("{} batch {i} of {}", kind.name(), batch.len());
        let count = batched.try_apply_batch(batch).unwrap();
        for update in batch {
            twin.try_apply(*update).unwrap();
            assert!(reference.apply(update));
        }
        assert_eq!(count, reference.count_4cycles_brute_force(), "{what}");
        assert_eq!(count, twin.count(), "{what}");
        assert_eq!(batched.epoch(), twin.epoch(), "{what}");
        assert_eq!(batched.total_edges(), reference.edge_count(), "{what}");
        assert_eq!(twin.total_edges(), reference.edge_count(), "{what}");
        let mut want: Vec<_> = reference.edges().collect();
        want.sort_unstable();
        for counter in [&batched, &twin] {
            let mut edges = counter.edges();
            edges.sort_unstable();
            assert_eq!(edges, want, "{what}");
            for &(u, v) in want.iter().step_by(7) {
                assert!(counter.engine().has_edge(v, u), "{what}: ({u}, {v})");
            }
            assert!(!counter.engine().has_edge(u32::MAX, want[0].0), "{what}");
        }
    }
}

/// Layered batches on both sides of the bulk rule: an empty session
/// (bulk), `b = m` (bulk), `b > m` (bulk), `b < m`, one delete, and an
/// insert with a delete; then, on a fresh source, batches whose last
/// carries every rotation of an auto session past its switch point.
fn layered_batches(seed: u64) -> Vec<Vec<Vec<LayeredUpdate>>> {
    let mut small = LayeredSource::new(seed, 16);
    let mut batches = vec![small.inserts(40), small.inserts(40), small.inserts(100)];
    batches.push(small.inserts(30));
    batches.push(vec![small.delete()]);
    let mut mixed = small.inserts(1);
    mixed.push(small.delete());
    batches.push(mixed);
    // Each rotation holds three of the four relations: 1,800 layered
    // edges put about 1,350 in each, past the auto switch point of 1,200.
    let mut large = LayeredSource::new(seed + 1, 60);
    let crossing = vec![large.inserts(400), large.inserts(400), large.inserts(1_000)];
    vec![batches, crossing]
}

/// General batches on both sides of the bulk rule, as
/// [`layered_batches`]; the auto kind's switch point of 200 general edges
/// is crossed by a bulk batch, and the grown engine then takes another.
fn general_batches(seed: u64) -> Vec<Vec<GraphUpdate>> {
    let mut source = GeneralSource::new(seed, 90, 3);
    let mut batches = vec![source.inserts(30), source.inserts(30), source.inserts(80)];
    batches.push(source.inserts(20));
    batches.push(vec![source.delete()]);
    let mut mixed = source.inserts(1);
    mixed.push(source.delete());
    batches.push(mixed);
    batches.push(source.inserts(150));
    batches.push(source.inserts(289));
    batches.push(source.inserts(40));
    batches
}

#[test]
fn layered_bulk_loads_match_per_update_twins_on_every_kind() {
    for kind in EngineKind::ALL {
        for batches in layered_batches(4_201) {
            check_layered(kind, &batches);
        }
    }
}

#[test]
fn general_bulk_loads_match_per_update_twins_on_every_kind() {
    for kind in EngineKind::ALL {
        check_general(kind, &general_batches(4_202));
    }
}

#[test]
fn an_empty_batch_changes_nothing() {
    for kind in EngineKind::ALL {
        let mut layered = LayeredCycleCounter::new(kind);
        assert_eq!(layered.try_apply_batch(&[]), Ok(0));
        assert_eq!((layered.epoch(), layered.total_edges()), (0, 0));
        let mut general = FourCycleCounter::new(kind);
        assert_eq!(general.try_apply_batch(&[]), Ok(0));
        assert_eq!((general.epoch(), general.total_edges()), (0, 0));
    }
}

/// An 8,000-edge general-hubs-shaped session (6,000 vertices, 4 hubs)
/// loaded in `batch`-edge batches: the first two take the bulk path, the
/// rest the per-update one. Each batch is checked against brute force.
fn general_hubs_load(kind: EngineKind, edges: usize, batch: usize) {
    let mut source = GeneralSource::new(8_117, 6_000, 4);
    let mut counter = FourCycleCounter::new(kind);
    let mut reference = GeneralGraph::new();
    while reference.edge_count() < edges {
        let updates = source.inserts(batch);
        counter.try_apply_batch(&updates).unwrap();
        for update in &updates {
            reference.apply(update);
        }
        assert_eq!(
            counter.count(),
            reference.count_4cycles_brute_force(),
            "{} at {} edges",
            kind.name(),
            reference.edge_count()
        );
    }
    assert_eq!(counter.total_edges(), edges);
}

/// `sessions` tenants-shaped layered sessions, each set up by one bulk
/// batch and then fed its updates one at a time, checked against brute
/// force after each.
fn tenants_load(sessions: u64) {
    for seed in 0..sessions {
        let (setup, updates) = tenants_stream::stream(7_000 + seed);
        let mut counter = LayeredCycleCounter::new(EngineKind::Auto);
        let mut reference = LayeredGraph::new();
        counter.try_apply_batch(&setup).unwrap();
        assert_eq!(counter.total_edges(), tenants_stream::EDGES);
        for update in &setup {
            reference.apply(update);
        }
        assert_eq!(
            counter.count(),
            reference.count_layered_4cycles_brute_force(),
            "session {seed} after set-up"
        );
        for update in &updates {
            counter.try_apply(*update).unwrap();
            reference.apply(update);
        }
        assert_eq!(
            counter.count(),
            reference.count_layered_4cycles_brute_force(),
            "session {seed} after its updates"
        );
    }
}

#[test]
fn bulk_loaded_sessions_stay_exact() {
    general_hubs_load(EngineKind::Auto, 2_000, 250);
    tenants_load(8);
}

#[test]
#[ignore = "full size: run in release"]
fn bulk_loaded_sessions_stay_exact_at_full_size() {
    for kind in [EngineKind::Auto, EngineKind::Fmm, EngineKind::FmmDense] {
        general_hubs_load(kind, 8_000, 500);
    }
    tenants_load(256);
}
