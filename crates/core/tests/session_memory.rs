//! Pins the live heap of one small layered session on the fmm engine.
//!
//! The stream has the shape of perfbench's `tenants-wire` sessions: 150
//! layered edges over 24 vertices per layer, 2 hubs per layer drawing 30 %
//! of the endpoints, set up as one batch and followed by 250 updates that
//! alternate delete and insert. The file holds a single test so that no
//! other test allocates while it counts.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::{EngineKind, LayeredCycleCounter};
use fourcycle_graph::{LayeredUpdate, Rel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::Ordering;

mod counting_alloc;

use counting_alloc::{CountingAlloc, LIVE_BYTES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const LAYER_VERTICES: u32 = 24;
const HUBS: u32 = 2;
const HUB_SHARE: f64 = 0.30;
const EDGES: usize = 150;
const UPDATES: usize = 250;

/// The bound on the session's live heap, in bytes, halfway between two
/// figures for this stream: 138,464 bytes when the counter kept a mirror
/// `LayeredGraph` beside its four engines, and 115,936 bytes with the
/// engines as the only copy of the graph.
const MAX_SESSION_BYTES: i64 = 127_200;

/// A layer vertex: one of the hubs with probability `HUB_SHARE`, else
/// uniform over the rest.
fn endpoint(rng: &mut SmallRng) -> u32 {
    if rng.gen_bool(HUB_SHARE) {
        rng.gen_range(0..HUBS)
    } else {
        rng.gen_range(HUBS..LAYER_VERTICES)
    }
}

/// A layered edge not in `present`.
fn fresh_edge(rng: &mut SmallRng, present: &HashSet<(Rel, u32, u32)>) -> (Rel, u32, u32) {
    loop {
        let e = (
            Rel::from_index(rng.gen_range(0..4)),
            endpoint(rng),
            endpoint(rng),
        );
        if !present.contains(&e) {
            return e;
        }
    }
}

/// A tenants-shaped stream: the set-up batch, then the updates.
fn stream(seed: u64) -> (Vec<LayeredUpdate>, Vec<LayeredUpdate>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut present = HashSet::new();
    let mut edges = Vec::new();
    let mut setup = Vec::new();
    while edges.len() < EDGES {
        let (rel, l, r) = fresh_edge(&mut rng, &present);
        present.insert((rel, l, r));
        edges.push((rel, l, r));
        setup.push(LayeredUpdate::insert(rel, l, r));
    }
    let mut updates = Vec::with_capacity(UPDATES);
    for i in 0..UPDATES {
        if i % 2 == 0 {
            let (rel, l, r) = edges.swap_remove(rng.gen_range(0..edges.len()));
            present.remove(&(rel, l, r));
            updates.push(LayeredUpdate::delete(rel, l, r));
        } else {
            let (rel, l, r) = fresh_edge(&mut rng, &present);
            present.insert((rel, l, r));
            edges.push((rel, l, r));
            updates.push(LayeredUpdate::insert(rel, l, r));
        }
    }
    (setup, updates)
}

#[test]
fn a_small_fmm_session_stays_below_its_heap_bound() {
    let (setup, updates) = stream(1401);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut counter = LayeredCycleCounter::new(EngineKind::Fmm);
    counter.try_apply_batch(&setup).unwrap();
    for &update in &updates {
        counter.try_apply(update).unwrap();
    }
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(counter.total_edges(), EDGES);
    assert!(
        held < MAX_SESSION_BYTES,
        "one fmm session holds {held} bytes, over the {MAX_SESSION_BYTES}-byte bound"
    );
}
