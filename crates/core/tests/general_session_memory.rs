//! Pins the live heap of one general session on the fmm engine.
//!
//! The stream has the shape of perfbench's `general-hubs` session, scaled
//! down: 2,000 edges on 1,500 vertices, 4 hubs drawing 30 % of the
//! endpoints, set up as one batch and followed by 1,000 updates that
//! alternate delete and insert. The file holds a single test so that no
//! other test allocates while it counts.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::{EngineKind, FourCycleCounter};
use fourcycle_graph::GraphUpdate;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::Ordering;

mod counting_alloc;

use counting_alloc::{CountingAlloc, LIVE_BYTES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const VERTICES: u32 = 1_500;
const HUBS: u32 = 4;
const HUB_SHARE: f64 = 0.30;
const EDGES: usize = 2_000;
const UPDATES: usize = 1_000;

/// The bound on the session's live heap, in bytes, halfway between two
/// figures for this stream: 689,728 bytes when each pair-count table kept
/// a sorted `Vec` per row, and 519,796 bytes with one seeded hash map per
/// table (520,696 in 3 of 150 runs: the hash seeds move when a map grows).
const MAX_SESSION_BYTES: i64 = 604_762;

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

/// A general-hubs-shaped stream: the set-up batch, then the updates.
fn stream(seed: u64) -> (Vec<GraphUpdate>, Vec<GraphUpdate>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut present = HashSet::new();
    let mut edges = Vec::new();
    let mut setup = Vec::new();
    while edges.len() < EDGES {
        let (u, v) = fresh_edge(&mut rng, &present);
        present.insert((u, v));
        edges.push((u, v));
        setup.push(GraphUpdate::insert(u, v));
    }
    let mut updates = Vec::with_capacity(UPDATES);
    for i in 0..UPDATES {
        if i % 2 == 0 {
            let (u, v) = edges.swap_remove(rng.gen_range(0..edges.len()));
            present.remove(&(u, v));
            updates.push(GraphUpdate::delete(u, v));
        } else {
            let (u, v) = fresh_edge(&mut rng, &present);
            present.insert((u, v));
            edges.push((u, v));
            updates.push(GraphUpdate::insert(u, v));
        }
    }
    (setup, updates)
}

#[test]
fn a_general_fmm_session_stays_below_its_heap_bound() {
    let (setup, updates) = stream(2301);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut counter = FourCycleCounter::new(EngineKind::Fmm);
    counter.try_apply_batch(&setup).unwrap();
    for &update in &updates {
        counter.try_apply(update).unwrap();
    }
    let held = LIVE_BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(counter.total_edges(), EDGES);
    assert!(
        held < MAX_SESSION_BYTES,
        "one general fmm session holds {held} bytes, over the {MAX_SESSION_BYTES}-byte bound"
    );
}
