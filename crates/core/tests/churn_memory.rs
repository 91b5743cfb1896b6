//! Bounds a layered session's heap under vertex-id churn.
//!
//! The session holds a steady 120 layered edges. After set-up the stream
//! alternates deleting a random edge and inserting a new one, and every
//! insert brings a vertex id never seen before, as sliding windows over
//! fresh tuple ids do. A session whose interners kept a slot for every
//! vertex ever seen would grow without bound; this test asserts that the
//! naive, simple, auto, threshold and fmm kinds each end within 1.5× of the
//! heap they held after the first 5,000 updates. A general auto session of
//! 400 edges, which runs the symmetric fmm engine after its switch, is held
//! to the same bound.
//!
//! The file's counting allocator sees every allocation of the process, so
//! its two tests take a lock and never count at the same time. The
//! `#[ignore]`d one runs a million updates per kind: `cargo test --release
//! -p fourcycle-core --test churn_memory -- --ignored`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::{EngineKind, FourCycleCounter, LayeredCycleCounter};
use fourcycle_graph::{GraphUpdate, LayeredUpdate, Rel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::Mutex;

mod counting_alloc;

use counting_alloc::{CountingAlloc, LIVE_BYTES};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held by whichever test is counting.
static COUNTING: Mutex<()> = Mutex::new(());

/// Layered edges the session holds.
const HELD: usize = 120;
/// General edges the general session holds: past the auto switch point.
const GENERAL_HELD: usize = 400;
/// Hub vertices per layer, `0..HUBS`; every other id is used once.
const HUBS: u32 = 4;
/// Updates after which the session's heap is the reference.
const FIRST: usize = 5_000;
/// How far past the reference the heap may grow.
const MAX_GROWTH: f64 = 1.5;

const KINDS: [EngineKind; 5] = [
    EngineKind::Naive,
    EngineKind::Simple,
    EngineKind::Auto,
    EngineKind::Threshold,
    EngineKind::Fmm,
];

/// A churn stream whose inserts each bring a never-seen vertex id. It
/// allocates only when built, so the heap it holds is the same at every
/// reading.
struct Churn {
    rng: SmallRng,
    next_id: u32,
    edges: Vec<(Rel, u32, u32)>,
}

impl Churn {
    fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            next_id: HUBS,
            edges: Vec::with_capacity(HELD + 1),
        }
    }

    fn fresh(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// A hub three times in four, else a fresh id.
    fn other(&mut self) -> u32 {
        if self.rng.gen_bool(0.75) {
            self.rng.gen_range(0..HUBS)
        } else {
            self.fresh()
        }
    }

    /// A new edge with a fresh id at one end or both.
    fn insert(&mut self) -> LayeredUpdate {
        let rel = Rel::from_index(self.rng.gen_range(0..4));
        let (l, r) = if self.rng.gen_bool(0.5) {
            (self.fresh(), self.other())
        } else {
            (self.other(), self.fresh())
        };
        self.edges.push((rel, l, r));
        LayeredUpdate::insert(rel, l, r)
    }

    /// A new general edge from a fresh id to a hub or to another fresh id.
    fn insert_general(&mut self) -> GraphUpdate {
        let (u, v) = (self.fresh(), self.other());
        self.edges.push((Rel::A, u, v));
        GraphUpdate::insert(u, v)
    }

    /// General update `i` after set-up, as [`update`](Self::update).
    fn update_general(&mut self, i: usize) -> GraphUpdate {
        if i.is_multiple_of(2) {
            let (_, u, v) = self
                .edges
                .swap_remove(self.rng.gen_range(0..self.edges.len()));
            GraphUpdate::delete(u, v)
        } else {
            self.insert_general()
        }
    }

    /// Update `i` after set-up: a delete of a random held edge when `i` is
    /// even, else an insert.
    fn update(&mut self, i: usize) -> LayeredUpdate {
        if i.is_multiple_of(2) {
            let (rel, l, r) = self
                .edges
                .swap_remove(self.rng.gen_range(0..self.edges.len()));
            LayeredUpdate::delete(rel, l, r)
        } else {
            self.insert()
        }
    }
}

/// The heap one session of `kind` holds after set-up and the first
/// [`FIRST`] updates, and after all `updates`.
fn heap_after(kind: EngineKind, updates: usize, seed: u64) -> (i64, i64) {
    let mut churn = Churn::new(seed);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut counter = LayeredCycleCounter::new(kind);
    for _ in 0..HELD {
        counter.try_apply(churn.insert()).unwrap();
    }
    let mut reference = 0;
    for i in 0..updates {
        counter.try_apply(churn.update(i)).unwrap();
        if i + 1 == FIRST {
            reference = LIVE_BYTES.load(Ordering::Relaxed) - before;
        }
    }
    assert_eq!(counter.total_edges(), HELD);
    (reference, LIVE_BYTES.load(Ordering::Relaxed) - before)
}

/// [`heap_after`] for a general auto session of [`GENERAL_HELD`] edges.
fn general_heap_after(updates: usize, seed: u64) -> (i64, i64) {
    let mut churn = Churn::new(seed);
    churn.edges.reserve(GENERAL_HELD);
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let mut counter = FourCycleCounter::new(EngineKind::Auto);
    for _ in 0..GENERAL_HELD {
        counter.try_apply(churn.insert_general()).unwrap();
    }
    let mut reference = 0;
    for i in 0..updates {
        counter.try_apply(churn.update_general(i)).unwrap();
        if i + 1 == FIRST {
            reference = LIVE_BYTES.load(Ordering::Relaxed) - before;
        }
    }
    assert_eq!(counter.total_edges(), GENERAL_HELD);
    (reference, LIVE_BYTES.load(Ordering::Relaxed) - before)
}

fn check_every_kind(updates: usize) {
    let _counting = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let layered = (2601..).zip(KINDS).map(|(seed, kind)| {
        let name = format!("layered {}", kind.name());
        (name, heap_after(kind, updates, seed))
    });
    let general = (
        "general auto".to_string(),
        general_heap_after(updates, 2611),
    );
    for (session, (reference, end)) in layered.chain([general]) {
        assert!(
            end as f64 <= MAX_GROWTH * reference as f64,
            "a {session} session held {reference} bytes after {FIRST} fresh-id \
             updates and {end} after {updates}",
        );
    }
}

#[test]
fn fresh_vertex_ids_do_not_grow_a_session() {
    check_every_kind(50_000);
}

#[test]
#[ignore = "a million updates per kind; run in release"]
fn fresh_vertex_ids_do_not_grow_a_session_at_length() {
    check_every_kind(1_000_000);
}
