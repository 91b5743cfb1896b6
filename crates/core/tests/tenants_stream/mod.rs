//! A stream shaped like one of perfbench's `tenants-wire` sessions, for the
//! tests that pin a layered session's heap: 150 layered edges over 24
//! vertices per layer, 2 hubs per layer drawing 30 % of the endpoints, set
//! up as one batch and followed by 250 updates that alternate delete and
//! insert.

use fourcycle_graph::{LayeredUpdate, Rel};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const LAYER_VERTICES: u32 = 24;
const HUBS: u32 = 2;
const HUB_SHARE: f64 = 0.30;
/// Layered edges the session holds after set-up and after the updates.
pub const EDGES: usize = 150;
const UPDATES: usize = 250;

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
pub fn stream(seed: u64) -> (Vec<LayeredUpdate>, Vec<LayeredUpdate>) {
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
        if i.is_multiple_of(2) {
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
