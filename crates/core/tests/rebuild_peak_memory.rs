//! Pins the extra peak heap of one era rebuild of a general fmm session.
//!
//! The session has the shape of perfbench's `general-hubs` session, scaled
//! down like `general_session_memory.rs`: 2,000 edges on 1,500 vertices, 4
//! hubs drawing 30 % of the endpoints, set up as one batch. Fresh edges are
//! then inserted one at a time until one of them crosses the era rule's
//! `m > 2·m̂` and rebuilds the engine. The file holds a single test so that
//! no other test allocates while it counts.

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

use counting_alloc::{reset_peak, CountingAlloc, PEAK_BYTES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const VERTICES: u32 = 1_500;
const HUBS: u32 = 4;
const HUB_SHARE: f64 = 0.30;
const EDGES: usize = 2_000;

/// The bound on the heap the rebuilding insert holds at its peak beyond
/// what the session held before it, in bytes, halfway between two figures
/// for this stream: 620,472 bytes when a rebuild built the new state and
/// structures while the old ones were still alive, and 147,448 bytes when
/// it frees the old ones first.
const MAX_REBUILD_PEAK_BYTES: i64 = 383_960;

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

/// The set-up batch, then `EDGES` more fresh inserts.
fn stream(seed: u64) -> (Vec<GraphUpdate>, Vec<GraphUpdate>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut present = HashSet::new();
    let mut insert = || {
        let (u, v) = fresh_edge(&mut rng, &present);
        present.insert((u, v));
        GraphUpdate::insert(u, v)
    };
    let setup = (0..EDGES).map(|_| insert()).collect();
    let more = (0..EDGES).map(|_| insert()).collect();
    (setup, more)
}

#[test]
fn an_era_rebuild_does_not_hold_two_engines() {
    let (setup, more) = stream(2501);
    let mut counter = FourCycleCounter::new(EngineKind::Fmm);
    counter.try_apply_batch(&setup).unwrap();
    let rebuilds = counter.slow_path_stats().era_rebuilds;
    for update in more {
        let before = reset_peak();
        counter.try_apply(update).unwrap();
        if counter.slow_path_stats().era_rebuilds > rebuilds {
            let extra = PEAK_BYTES.load(Ordering::Relaxed) - before;
            assert!(
                extra < MAX_REBUILD_PEAK_BYTES,
                "an era rebuild at {} edges peaked {extra} bytes above the session's \
                 heap, over the {MAX_REBUILD_PEAK_BYTES}-byte bound",
                counter.total_edges()
            );
            return;
        }
    }
    panic!("no era rebuild within {EDGES} inserts");
}
