//! Pins the live heap of one small layered session on the fmm engine.
//!
//! The stream is `tenants_stream`'s, shaped like one of perfbench's
//! `tenants-wire` sessions. The file holds a single test so that no other
//! test allocates while it counts.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::{EngineKind, LayeredCycleCounter};
use std::sync::atomic::Ordering;

mod counting_alloc;
mod tenants_stream;

use counting_alloc::{CountingAlloc, LIVE_BYTES};
use tenants_stream::{stream, EDGES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The bound on the session's live heap, in bytes, halfway between two
/// figures for this stream: 111,968 bytes when each pair-count table kept
/// a sorted `Vec` per row, and, with one seeded hash map per table, the
/// highest of 1,000 runs, 105,364 bytes. The hash seeds, drawn per map,
/// move when a map grows: the runs read 101,200–105,364 bytes, median
/// 101,744.
const MAX_SESSION_BYTES: i64 = 108_666;

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
