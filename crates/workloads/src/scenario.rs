//! Parametric scenario generators — named, seeded stress workloads.
//!
//! The plain stream generators ([`crate::layered`], [`crate::general`])
//! sample one statistical family each. A [`Scenario`] is one level up: a
//! *named, documented, reproducible* workload with a specific engineering
//! intent — each built-in scenario targets one of the engines' amortized
//! slow paths (era rebuilds, phase rollovers, class transitions, wedge-table
//! churn) and produces its stream pre-chunked into [`UpdateBatch`]es for the
//! counters' batch pipeline. The catalog (`docs/SCENARIOS.md`) documents
//! which slow path each scenario stresses; the `ScenarioRunner` in
//! `fourcycle-bench` replays them through every engine and asserts via
//! the `fourcycle_core::SlowPathStats` hook that the slow paths actually
//! fired.
//!
//! Built-in scenarios:
//!
//! * [`ZipfScenario`] — power-law-skewed insert stream (hot attribute
//!   values), populating the High/Dense degree classes.
//! * [`SlidingWindowScenario`] — insert + expire over a FIFO window, the
//!   classic streaming regime (bounded live edges, steady delete pressure).
//! * [`ChurnScenario`] — delete-heavy steady state over a warm graph.
//! * [`ThresholdFlapScenario`] — adversarial grow/shrink waves that swing
//!   the edge count past the factor-2 era boundary and flap hub degrees
//!   across the heavy/light class threshold.
//! * [`BurstyMixScenario`] — alternating bursts of dense bipartite blocks
//!   and §8-style replicated general-graph churn, one batch per burst.
//! * [`ProductionReplayScenario`] — a composite that interleaves all of the
//!   above over disjoint id spaces, approximating production traffic.
//! * [`MeshOfStarsScenario`] — degree-bounded mesh-of-stars: many small
//!   interlinked hubs whose degrees stay *below* the heavy/light boundary,
//!   followed by constant-size churn — the anti-flap control regime.
//! * [`HubCollapseScenario`] — one dominant hub far past the heavy
//!   boundary, drained edge-by-edge to zero across the downward era
//!   boundary.
//!
//! All scenarios are deterministic given their seed: the same configuration
//! generates the identical batch sequence on every call.

use crate::player::chunk_layered_stream;
use fourcycle_graph::{LayeredUpdate, Rel, UpdateBatch, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A named, seeded, reproducible workload producing a batched update stream.
///
/// Implementations must be deterministic: two calls to
/// [`generate`](Scenario::generate) on the same value return identical batch
/// sequences, and every update must be well-formed with respect to the
/// stream prefix before it (no duplicate inserts, no deletes of absent
/// edges), so replays through different engines see the same effective
/// stream.
///
/// ```
/// use fourcycle_graph::{LayeredUpdate, Rel, UpdateBatch};
/// use fourcycle_workloads::Scenario;
///
/// /// A minimal scenario: one 4-cycle, inserted in a single batch.
/// struct OneCycle;
///
/// impl Scenario for OneCycle {
///     fn name(&self) -> &'static str {
///         "one-cycle"
///     }
///     fn describe(&self) -> String {
///         "a single layered 4-cycle".into()
///     }
///     fn seed(&self) -> u64 {
///         0
///     }
///     fn generate(&self) -> Vec<UpdateBatch> {
///         let batch: UpdateBatch = vec![
///             LayeredUpdate::insert(Rel::A, 1, 2),
///             LayeredUpdate::insert(Rel::B, 2, 3),
///             LayeredUpdate::insert(Rel::C, 3, 4),
///             LayeredUpdate::insert(Rel::D, 4, 1),
///         ]
///         .into();
///         vec![batch]
///     }
/// }
///
/// let batches = OneCycle.generate();
/// assert_eq!(batches.len(), 1);
/// assert_eq!(batches[0].len(), 4);
/// assert_eq!(OneCycle.generate(), batches, "scenarios are reproducible");
/// ```
pub trait Scenario {
    /// Short, stable scenario name (used in reports and the catalog).
    fn name(&self) -> &'static str;

    /// One-line human-readable parameter summary for reports.
    fn describe(&self) -> String;

    /// The RNG seed the stream is derived from.
    fn seed(&self) -> u64;

    /// Generates the full batched stream. Deterministic given `self`.
    fn generate(&self) -> Vec<UpdateBatch>;
}

/// Total number of updates across a batched stream.
pub fn total_updates(batches: &[UpdateBatch]) -> usize {
    batches.iter().map(UpdateBatch::len).sum()
}

/// Tracks which (relation, left, right) edges are live so generators only
/// emit well-formed updates.
#[derive(Default)]
struct EdgeTracker {
    present: HashSet<(Rel, VertexId, VertexId)>,
}

impl EdgeTracker {
    /// Emits an insert if the edge is absent; returns whether it was emitted.
    fn insert(&mut self, out: &mut Vec<LayeredUpdate>, rel: Rel, l: VertexId, r: VertexId) -> bool {
        if self.present.insert((rel, l, r)) {
            out.push(LayeredUpdate::insert(rel, l, r));
            true
        } else {
            false
        }
    }

    /// Emits a delete if the edge is present; returns whether it was emitted.
    fn delete(&mut self, out: &mut Vec<LayeredUpdate>, rel: Rel, l: VertexId, r: VertexId) -> bool {
        if self.present.remove(&(rel, l, r)) {
            out.push(LayeredUpdate::delete(rel, l, r));
            true
        } else {
            false
        }
    }
}

/// Fisher–Yates shuffle driven by the scenario RNG (the shim `rand` has no
/// `SliceRandom`).
fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

// ---------------------------------------------------------------------------
// (a) Zipf / power-law skewed inserts
// ---------------------------------------------------------------------------

/// Power-law-skewed insert stream: endpoint `k` is drawn with probability
/// proportional to `1/(k+1)^exponent`, so a handful of hot vertices receive
/// most of the edges — the join-workload regime that populates the High /
/// Dense degree classes (§4, §6) and with them the engines' expensive query
/// cases and class-transition machinery.
#[derive(Debug, Clone, Copy)]
pub struct ZipfScenario {
    /// Vertices per layer.
    pub layer_size: u32,
    /// Number of insertions to generate.
    pub updates: usize,
    /// Skew exponent `s ≥ 0` (`0` = uniform, `1` = classic Zipf).
    pub exponent: f64,
    /// Updates per emitted batch.
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ZipfScenario {
    fn default() -> Self {
        Self {
            layer_size: 192,
            updates: 4_000,
            exponent: 1.2,
            batch_size: 256,
            seed: 0xA1,
        }
    }
}

impl ZipfScenario {
    fn pick(&self, rng: &mut SmallRng) -> VertexId {
        let n = self.layer_size.max(2);
        // Rejection sampling: accept k with probability (k+1)^{-s}; k = 0 is
        // always accepted, so the loop terminates with expected O(n / H_n^{(s)})
        // iterations.
        loop {
            let k = rng.gen_range(0..n);
            let accept = (k as f64 + 1.0).powf(-self.exponent.max(0.0));
            if rng.gen_bool(accept) {
                return k;
            }
        }
    }
}

impl Scenario for ZipfScenario {
    fn name(&self) -> &'static str {
        "zipf-skew"
    }

    fn describe(&self) -> String {
        format!(
            "n={}/layer, {} inserts, s={}, batch={}",
            self.layer_size, self.updates, self.exponent, self.batch_size
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn generate(&self) -> Vec<UpdateBatch> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut tracker = EdgeTracker::default();
        let mut out = Vec::with_capacity(self.updates);
        let mut guard = 0usize;
        // Skewed draws collide often; the guard bounds the retry budget so a
        // saturated hot block cannot loop forever.
        while out.len() < self.updates && guard < self.updates.saturating_mul(400) {
            guard += 1;
            let rel = Rel::ALL[rng.gen_range(0..4)];
            let left = self.pick(&mut rng);
            let right = self.pick(&mut rng);
            tracker.insert(&mut out, rel, left, right);
        }
        chunk_layered_stream(&out, self.batch_size)
    }
}

// ---------------------------------------------------------------------------
// (b) Sliding window: insert + expire
// ---------------------------------------------------------------------------

/// Sliding-window stream: uniformly random inserts, and every inserted edge
/// expires (is deleted) once `window` further updates have been emitted.
/// Live edges stay bounded by the window while delete pressure is constant —
/// the steady-state regime of streaming deployments, and a sustained test of
/// the engines' deletion paths ("negative edges", §3.3).
#[derive(Debug, Clone, Copy)]
pub struct SlidingWindowScenario {
    /// Vertices per layer.
    pub layer_size: u32,
    /// Edge lifetime, counted in emitted updates.
    pub window: usize,
    /// Total number of updates (inserts + expiries) to generate.
    pub updates: usize,
    /// Updates per emitted batch.
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SlidingWindowScenario {
    fn default() -> Self {
        Self {
            layer_size: 128,
            window: 512,
            updates: 4_000,
            batch_size: 256,
            seed: 0xB2,
        }
    }
}

impl Scenario for SlidingWindowScenario {
    fn name(&self) -> &'static str {
        "sliding-window"
    }

    fn describe(&self) -> String {
        format!(
            "n={}/layer, window={}, {} updates, batch={}",
            self.layer_size, self.window, self.updates, self.batch_size
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn generate(&self) -> Vec<UpdateBatch> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n = self.layer_size.max(2);
        let window = self.window.max(1);
        let mut tracker = EdgeTracker::default();
        let mut fifo: std::collections::VecDeque<(Rel, VertexId, VertexId)> =
            std::collections::VecDeque::new();
        let mut out = Vec::with_capacity(self.updates);
        let mut guard = 0usize;
        while out.len() < self.updates && guard < self.updates.saturating_mul(50) {
            guard += 1;
            if fifo.len() >= window {
                let (rel, l, r) = fifo.pop_front().expect("non-empty window");
                tracker.delete(&mut out, rel, l, r);
                continue;
            }
            let rel = Rel::ALL[rng.gen_range(0..4)];
            let left = rng.gen_range(0..n);
            let right = rng.gen_range(0..n);
            if tracker.insert(&mut out, rel, left, right) {
                fifo.push_back((rel, left, right));
            }
        }
        chunk_layered_stream(&out, self.batch_size)
    }
}

// ---------------------------------------------------------------------------
// (c) Delete-heavy churn
// ---------------------------------------------------------------------------

/// Delete-heavy churn: a warm-up prefix builds a uniform random graph, then
/// the steady state deletes a live edge with probability `delete_prob` and
/// inserts a fresh one otherwise. The graph slowly drains, so the stream
/// leans on the engines' deletion rules and (through the shrinking edge
/// count) the downward half of the factor-2 era rule.
#[derive(Debug, Clone, Copy)]
pub struct ChurnScenario {
    /// Vertices per layer.
    pub layer_size: u32,
    /// Total number of updates (warm-up + steady state).
    pub updates: usize,
    /// Fraction of `updates` spent on the insert-only warm-up prefix.
    pub build_frac: f64,
    /// Steady-state probability of deleting a live edge (> 0.5 drains).
    pub delete_prob: f64,
    /// Updates per emitted batch.
    pub batch_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChurnScenario {
    fn default() -> Self {
        Self {
            layer_size: 128,
            updates: 4_000,
            build_frac: 0.3,
            delete_prob: 0.65,
            batch_size: 256,
            seed: 0xC3,
        }
    }
}

impl Scenario for ChurnScenario {
    fn name(&self) -> &'static str {
        "churn-heavy"
    }

    fn describe(&self) -> String {
        format!(
            "n={}/layer, {} updates, build={:.0}%, p_del={:.2}, batch={}",
            self.layer_size,
            self.updates,
            self.build_frac * 100.0,
            self.delete_prob,
            self.batch_size
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn generate(&self) -> Vec<UpdateBatch> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n = self.layer_size.max(2);
        let warmup = ((self.updates as f64) * self.build_frac.clamp(0.0, 1.0)) as usize;
        let mut tracker = EdgeTracker::default();
        // Live edges in insertion order, for O(1) uniform eviction.
        let mut live: Vec<(Rel, VertexId, VertexId)> = Vec::new();
        let mut out = Vec::with_capacity(self.updates);
        let mut guard = 0usize;
        while out.len() < self.updates && guard < self.updates.saturating_mul(50) {
            guard += 1;
            let deleting = out.len() >= warmup
                && !live.is_empty()
                && rng.gen_bool(self.delete_prob.clamp(0.0, 1.0));
            if deleting {
                let idx = rng.gen_range(0..live.len());
                let (rel, l, r) = live.swap_remove(idx);
                tracker.delete(&mut out, rel, l, r);
            } else {
                let rel = Rel::ALL[rng.gen_range(0..4)];
                let left = rng.gen_range(0..n);
                let right = rng.gen_range(0..n);
                if tracker.insert(&mut out, rel, left, right) {
                    live.push((rel, left, right));
                }
            }
        }
        chunk_layered_stream(&out, self.batch_size)
    }
}

// ---------------------------------------------------------------------------
// (d) Adversarial threshold flapping
// ---------------------------------------------------------------------------

/// Adversarial grow/shrink waves engineered to fire the engines' most
/// expensive amortized paths:
///
/// * each wave grows the edge count to several times its trough and then
///   deletes back down to `keep_frac` of the peak, so the factor-2 era rule
///   (threshold engine `m̂` drift, main engine [`ClassThresholds`] drift)
///   fires on both the way up and the way down;
/// * the wave's edges are spokes around a few persistent hub vertices in
///   `L2`/`L3`, whose degrees (≈ `2·spokes`: `A`-side plus `B`-side) are
///   pushed past the heavy/light boundary `m^{2/3} ≈ (4·hubs·spokes)^{2/3}`
///   near the peak and fall back below it in the trough — repeated class
///   transitions in every wave.
///
/// For the hub degrees to actually cross the boundary, `2·spokes` must
/// exceed `(4·hubs·spokes)^{2/3}`, i.e. `spokes > 2·hubs²`; the default
/// (2 hubs, 64 spokes) satisfies this with an 8× margin.
///
/// [`ClassThresholds`]: fourcycle_graph::ClassThresholds
#[derive(Debug, Clone, Copy)]
pub struct ThresholdFlapScenario {
    /// Persistent hub vertices per middle layer.
    pub hubs: u32,
    /// Peak spokes attached per hub and relation in each wave.
    pub spokes: u32,
    /// Number of grow + shrink waves.
    pub waves: usize,
    /// Fraction of a wave's edges kept at the trough.
    pub keep_frac: f64,
    /// Updates per emitted batch.
    pub batch_size: usize,
    /// RNG seed (drives the deletion order within each wave).
    pub seed: u64,
}

impl Default for ThresholdFlapScenario {
    fn default() -> Self {
        Self {
            hubs: 2,
            spokes: 64,
            waves: 3,
            keep_frac: 0.08,
            batch_size: 128,
            seed: 0xD4,
        }
    }
}

impl Scenario for ThresholdFlapScenario {
    fn name(&self) -> &'static str {
        "threshold-flap"
    }

    fn describe(&self) -> String {
        format!(
            "{} hubs × {} spokes, {} waves, keep={:.0}%, batch={}",
            self.hubs,
            self.spokes,
            self.waves,
            self.keep_frac * 100.0,
            self.batch_size
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn generate(&self) -> Vec<UpdateBatch> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let hubs = self.hubs.max(1);
        let spokes = self.spokes.max(4);
        let mut tracker = EdgeTracker::default();
        let mut out = Vec::new();
        for wave in 0..self.waves.max(1) {
            // Fresh spoke ids per wave (hub ids 0..hubs persist) so kept
            // remnants of earlier waves never collide with new spokes.
            let base = hubs + (wave as u32) * spokes;
            let mut wave_edges: Vec<(Rel, VertexId, VertexId)> = Vec::new();
            let mut grow = |tracker: &mut EdgeTracker,
                            out: &mut Vec<LayeredUpdate>,
                            rel: Rel,
                            l: VertexId,
                            r: VertexId| {
                if tracker.insert(out, rel, l, r) {
                    wave_edges.push((rel, l, r));
                }
            };
            for i in 0..spokes {
                for h in 0..hubs {
                    // Spoke i through hub h: L1 → hub(L2) → hub(L3) → L4.
                    grow(&mut tracker, &mut out, Rel::A, base + i, h);
                    grow(&mut tracker, &mut out, Rel::B, h, base + i);
                    grow(&mut tracker, &mut out, Rel::C, h, base + i);
                    grow(&mut tracker, &mut out, Rel::D, base + i, base + (i % 4));
                }
            }
            // Hub-to-hub core so the spokes compose into live 3-paths.
            for h in 0..hubs {
                grow(&mut tracker, &mut out, Rel::B, h, (h + 1) % hubs.max(2));
            }
            // Shrink: delete all but keep_frac of this wave's edges, in
            // seeded random order, dropping the hubs back below the class
            // boundary and the edge count below half the peak.
            let keep = ((wave_edges.len() as f64) * self.keep_frac.clamp(0.0, 1.0)) as usize;
            shuffle(&mut rng, &mut wave_edges);
            for &(rel, l, r) in wave_edges.iter().skip(keep) {
                tracker.delete(&mut out, rel, l, r);
            }
        }
        chunk_layered_stream(&out, self.batch_size)
    }
}

// ---------------------------------------------------------------------------
// (e) Bursty bipartite / general-graph mix
// ---------------------------------------------------------------------------

/// Bursty traffic alternating between two shapes, one [`UpdateBatch`] per
/// burst (batch boundaries are burst boundaries, so batch sizes vary wildly
/// — the anti-uniform case for the batch pipeline):
///
/// * *bipartite bursts* — a dense biclique block inside a single random
///   relation (rows × cols all-pairs inserts), the shape of bipartite /
///   relational bulk loads, which floods the wedge tables of one relation;
/// * *general bursts* — §8-style replicated churn: an undirected edge
///   `{u, v}` enters (or leaves) all four relations in both orientations,
///   the layered copy of a general graph that §8 describes. A layered
///   counter runs all four rotated engines on it;
///   `fourcycle_core::FourCycleCounter` keeps only one of those identical
///   rotations.
///
/// The two shapes use disjoint vertex-id ranges, so their streams stay
/// independently well-formed.
#[derive(Debug, Clone, Copy)]
pub struct BurstyMixScenario {
    /// Vertex ids per layer *per shape* (each shape gets its own id range).
    pub layer_size: u32,
    /// Number of bursts (= number of emitted batches).
    pub bursts: usize,
    /// Upper bound on the nominal burst size, in updates.
    pub burst_max: usize,
    /// Probability that a general burst deletes instead of inserts.
    pub delete_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BurstyMixScenario {
    fn default() -> Self {
        Self {
            layer_size: 96,
            bursts: 24,
            burst_max: 256,
            delete_prob: 0.35,
            seed: 0xE5,
        }
    }
}

impl Scenario for BurstyMixScenario {
    fn name(&self) -> &'static str {
        "bursty-mix"
    }

    fn describe(&self) -> String {
        format!(
            "n={}/shape, {} bursts ≤ {} updates, p_del={:.2}",
            self.layer_size, self.bursts, self.burst_max, self.delete_prob
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn generate(&self) -> Vec<UpdateBatch> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n = self.layer_size.max(8);
        let burst_max = self.burst_max.max(8);
        let mut tracker = EdgeTracker::default();
        // Live symmetric general edges (canonical orientation) for deletion.
        let mut sym_live: Vec<(VertexId, VertexId)> = Vec::new();
        let mut batches = Vec::with_capacity(self.bursts);
        for burst in 0..self.bursts.max(1) {
            let mut out = Vec::new();
            // Squaring a unit draw skews burst sizes: many small, few huge.
            let unit = rng.gen_range(0..burst_max) as f64 / burst_max as f64;
            let size = ((unit * unit) * burst_max as f64) as usize + 4;
            if burst % 2 == 0 {
                // Bipartite burst: an all-pairs block in one relation, ids in
                // [0, n).
                let rel = Rel::ALL[rng.gen_range(0..4)];
                let rows = rng.gen_range(2..=(size as u32).min(n / 2).max(2));
                let cols = ((size as u32) / rows).clamp(1, n / 2);
                let row0 = rng.gen_range(0..n - rows.min(n - 1));
                let col0 = rng.gen_range(0..n - cols.min(n - 1));
                for i in 0..rows {
                    for j in 0..cols {
                        tracker.insert(&mut out, rel, row0 + i, col0 + j);
                    }
                }
            } else {
                // General burst: replicated undirected churn, ids in [n, 2n).
                for _ in 0..size / 8 + 1 {
                    if !sym_live.is_empty() && rng.gen_bool(self.delete_prob.clamp(0.0, 1.0)) {
                        let idx = rng.gen_range(0..sym_live.len());
                        let (u, v) = sym_live.swap_remove(idx);
                        for rel in Rel::ALL {
                            tracker.delete(&mut out, rel, u, v);
                            tracker.delete(&mut out, rel, v, u);
                        }
                    } else {
                        let u = n + rng.gen_range(0..n);
                        let v = n + rng.gen_range(0..n);
                        if u == v || tracker.present.contains(&(Rel::A, u, v)) {
                            continue;
                        }
                        for rel in Rel::ALL {
                            tracker.insert(&mut out, rel, u, v);
                            tracker.insert(&mut out, rel, v, u);
                        }
                        sym_live.push((u, v));
                    }
                }
            }
            if !out.is_empty() {
                batches.push(out.into_iter().collect());
            }
        }
        batches
    }
}

// ---------------------------------------------------------------------------
// (f) Composite production replay
// ---------------------------------------------------------------------------

/// Composite "production replay": every other built-in scenario runs over
/// its own disjoint vertex-id plane (component `i` is offset by
/// `i · id_stride`) and their streams are interleaved in seeded random runs,
/// then re-chunked into uniform batches. The result mixes skew, window
/// expiry, drain churn, era-boundary flapping and bursts in one stream — the
/// closest built-in approximation of sustained production traffic, and the
/// default soak workload for scaling PRs.
#[derive(Debug, Clone, Copy)]
pub struct ProductionReplayScenario {
    /// Scale multiplier applied to every component's update count (1 =
    /// component defaults).
    pub scale: f64,
    /// Id-plane stride between components (must exceed every component's
    /// largest vertex id).
    pub id_stride: u32,
    /// Updates per emitted batch.
    pub batch_size: usize,
    /// Longest run of consecutive updates taken from one component.
    pub max_run: usize,
    /// RNG seed (also derives every component's seed).
    pub seed: u64,
}

impl Default for ProductionReplayScenario {
    fn default() -> Self {
        Self {
            scale: 0.5,
            id_stride: 1 << 16,
            batch_size: 512,
            max_run: 32,
            seed: 0xF6,
        }
    }
}

impl ProductionReplayScenario {
    fn component_streams(&self) -> Vec<Vec<LayeredUpdate>> {
        let scale = |updates: usize| ((updates as f64) * self.scale.max(0.01)) as usize + 16;
        let seed = |k: u64| {
            self.seed
                .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        let components: Vec<Vec<UpdateBatch>> = vec![
            ZipfScenario {
                updates: scale(4_000),
                seed: seed(1),
                ..Default::default()
            }
            .generate(),
            SlidingWindowScenario {
                updates: scale(4_000),
                seed: seed(2),
                ..Default::default()
            }
            .generate(),
            ChurnScenario {
                updates: scale(4_000),
                seed: seed(3),
                ..Default::default()
            }
            .generate(),
            ThresholdFlapScenario {
                waves: 2,
                seed: seed(4),
                ..Default::default()
            }
            .generate(),
            BurstyMixScenario {
                bursts: (24.0 * self.scale.max(0.01)) as usize + 2,
                seed: seed(5),
                ..Default::default()
            }
            .generate(),
        ];
        components
            .into_iter()
            .enumerate()
            .map(|(i, batches)| {
                let offset = (i as u32) * self.id_stride;
                batches
                    .iter()
                    .flat_map(UpdateBatch::iter)
                    .map(|u| LayeredUpdate {
                        left: u.left + offset,
                        right: u.right + offset,
                        ..*u
                    })
                    .collect()
            })
            .collect()
    }
}

impl Scenario for ProductionReplayScenario {
    fn name(&self) -> &'static str {
        "production-replay"
    }

    fn describe(&self) -> String {
        format!(
            "5 components × scale {:.2}, stride {}, runs ≤ {}, batch={}",
            self.scale, self.id_stride, self.max_run, self.batch_size
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn generate(&self) -> Vec<UpdateBatch> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let streams = self.component_streams();
        let total: usize = streams.iter().map(Vec::len).sum();
        let mut cursors = vec![0usize; streams.len()];
        let mut out = Vec::with_capacity(total);
        // Components' id planes are disjoint, so any interleaving of their
        // individually well-formed streams stays well-formed.
        while out.len() < total {
            let live: Vec<usize> = cursors
                .iter()
                .enumerate()
                .filter(|&(i, &c)| c < streams[i].len())
                .map(|(i, _)| i)
                .collect();
            let pick = live[rng.gen_range(0..live.len())];
            let run = rng.gen_range(1..=self.max_run.max(1));
            let end = (cursors[pick] + run).min(streams[pick].len());
            out.extend_from_slice(&streams[pick][cursors[pick]..end]);
            cursors[pick] = end;
        }
        chunk_layered_stream(&out, self.batch_size)
    }
}

// ---------------------------------------------------------------------------
// (g) Topology-realistic regimes: bounded mesh-of-stars & hub collapse
// ---------------------------------------------------------------------------

/// Degree-bounded mesh-of-stars: `stars` small hubs, each with `degree_cap`
/// spokes, where every spoke also links to the *next* star (the "mesh") and
/// closes a private 4-cycle through a leaf — the clustering-coefficient
/// regime of social / co-occurrence graphs, and the **control** workload for
/// the class-transition machinery:
///
/// * every hub's L2 degree is `2·degree_cap + 1` (own spokes + the previous
///   star's mesh links + one mirror edge) while the total edge count is
///   `≈ 4·stars·degree_cap`, so with the defaults the hubs stay *below* the
///   heavy/light boundary `m̂^(2/3)` through every era (`2·cap + 1 <
///   (2·stars·cap)^(2/3)` — worst case is just after an upward rebuild);
/// * a growth phase builds the mesh round-robin (uniform degree growth, era
///   rebuilds fire on the way up), then a churn phase deletes and reinserts
///   mesh / leaf edges at **constant** edge count — no era crossings, no
///   class crossings.
///
/// The expected `SlowPathStats` signature, asserted by the
/// `ScenarioRunner` tests: era rebuilds during growth, then *zero* rebuilds
/// and *zero* class transitions during churn ([`growth_batches`] exposes the
/// phase boundary, which is batch-aligned).
///
/// [`growth_batches`]: MeshOfStarsScenario::growth_batches
#[derive(Debug, Clone, Copy)]
pub struct MeshOfStarsScenario {
    /// Number of hub vertices (stars) in the mesh.
    pub stars: u32,
    /// Spokes per star — the hub degree bound.
    pub degree_cap: u32,
    /// Delete + reinsert rounds in the steady-state churn phase.
    pub churn_rounds: usize,
    /// Updates per emitted batch.
    pub batch_size: usize,
    /// RNG seed (drives only the churn phase; growth is structural).
    pub seed: u64,
}

impl Default for MeshOfStarsScenario {
    fn default() -> Self {
        Self {
            stars: 10,
            degree_cap: 20,
            churn_rounds: 400,
            batch_size: 128,
            seed: 0x3A,
        }
    }
}

impl MeshOfStarsScenario {
    fn spoke(&self, round: u32, star: u32) -> VertexId {
        self.stars.max(1) + round * self.stars.max(1) + star
    }

    fn leaf(&self, round: u32, star: u32) -> VertexId {
        let stars = self.stars.max(1);
        stars + stars * self.degree_cap.max(1) + round * stars + star
    }

    /// The growth-phase and churn-phase update streams, separately.
    fn phases(&self) -> (Vec<LayeredUpdate>, Vec<LayeredUpdate>) {
        let stars = self.stars.max(1);
        let cap = self.degree_cap.max(1);
        let mut tracker = EdgeTracker::default();
        // Growth: round-robin across stars so all hub degrees rise in
        // lockstep (no transient dominant hub).
        let mut growth = Vec::new();
        for round in 0..cap {
            for star in 0..stars {
                let s = self.spoke(round, star);
                let leaf = self.leaf(round, star);
                // Spoke into its own star, plus the mesh link to the next
                // star; the private leaf closes s → star → star(L3) → leaf → s.
                tracker.insert(&mut growth, Rel::A, s, star);
                tracker.insert(&mut growth, Rel::A, s, (star + 1) % stars);
                tracker.insert(&mut growth, Rel::B, star, star);
                tracker.insert(&mut growth, Rel::C, star, leaf);
                tracker.insert(&mut growth, Rel::D, leaf, s);
            }
        }
        // Churn: delete + immediately reinsert a random mesh or leaf edge.
        // Every round is edge-count-neutral, so `m` never drifts and no hub
        // degree moves by more than one transiently.
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut churn = Vec::new();
        for _ in 0..self.churn_rounds {
            let round = rng.gen_range(0..cap);
            let star = rng.gen_range(0..stars);
            let (rel, l, r) = if rng.gen_bool(0.5) {
                (Rel::A, self.spoke(round, star), (star + 1) % stars)
            } else {
                (Rel::C, star, self.leaf(round, star))
            };
            if tracker.delete(&mut churn, rel, l, r) {
                tracker.insert(&mut churn, rel, l, r);
            }
        }
        (growth, churn)
    }

    /// Number of leading batches of [`generate`](Scenario::generate) that
    /// form the growth phase; the remaining batches are steady-state churn.
    /// The phase boundary is batch-aligned, so prefix replays split cleanly.
    pub fn growth_batches(&self) -> usize {
        chunk_layered_stream(&self.phases().0, self.batch_size).len()
    }
}

impl Scenario for MeshOfStarsScenario {
    fn name(&self) -> &'static str {
        "mesh-of-stars"
    }

    fn describe(&self) -> String {
        format!(
            "{} stars × cap {}, {} churn rounds, batch={}",
            self.stars, self.degree_cap, self.churn_rounds, self.batch_size
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn generate(&self) -> Vec<UpdateBatch> {
        let (growth, churn) = self.phases();
        let mut batches = chunk_layered_stream(&growth, self.batch_size);
        batches.extend(chunk_layered_stream(&churn, self.batch_size));
        batches
    }
}

/// Hub collapse: one dominant hub far past the heavy/light boundary
/// (`2·spokes + 1` L2 degree against `m^(2/3)` total boundary), drained
/// edge-by-edge to zero in seeded random order. The drain removes ~3/4 of
/// all edges, so it crosses the downward factor-2 era boundary *and* walks
/// the hub from deep-heavy to isolated — the death-of-a-celebrity regime,
/// and the strongest single-vertex stress of downward class transitions.
///
/// A light background plane (degree-1 edges spread over all four relations)
/// keeps the post-drain graph non-empty so the final era's `m̂` is anchored
/// by real edges rather than zero.
#[derive(Debug, Clone, Copy)]
pub struct HubCollapseScenario {
    /// Spokes attached to the dominant hub (its L2 degree is `2·spokes+1`).
    pub spokes: u32,
    /// Degree-1 background edges that survive the collapse.
    pub background: u32,
    /// Updates per emitted batch.
    pub batch_size: usize,
    /// RNG seed (drives the drain order).
    pub seed: u64,
}

impl Default for HubCollapseScenario {
    fn default() -> Self {
        Self {
            spokes: 96,
            background: 48,
            batch_size: 64,
            seed: 0x4B,
        }
    }
}

impl HubCollapseScenario {
    /// The hub vertex id (L2 via `A`/`B`, L3 via `B`/`C`).
    pub const HUB: VertexId = 0;
}

impl Scenario for HubCollapseScenario {
    fn name(&self) -> &'static str {
        "hub-collapse"
    }

    fn describe(&self) -> String {
        format!(
            "1 hub × {} spokes + {} background, batch={}",
            self.spokes, self.background, self.batch_size
        )
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn generate(&self) -> Vec<UpdateBatch> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let spokes = self.spokes.max(8);
        let mut tracker = EdgeTracker::default();
        let mut out = Vec::new();
        // Background plane: disjoint degree-1 edges rotated across all four
        // relations, in an id range above every hub-star vertex.
        let bg_base = 1 + spokes;
        for j in 0..self.background {
            let rel = Rel::from_index(j as usize % 4);
            tracker.insert(&mut out, rel, bg_base + 2 * j, bg_base + 2 * j + 1);
        }
        // Star build: spoke s runs s → hub(L2) → hub(L3) → s' → D-target,
        // with the hub's self-mirror edge closing live 3-paths, so the star
        // carries real 4-cycles until the drain empties it.
        let mut hub_edges: Vec<(Rel, VertexId, VertexId)> = Vec::new();
        let mut star = |tracker: &mut EdgeTracker,
                        out: &mut Vec<LayeredUpdate>,
                        rel: Rel,
                        l: VertexId,
                        r: VertexId| {
            if tracker.insert(out, rel, l, r) {
                hub_edges.push((rel, l, r));
            }
        };
        star(&mut tracker, &mut out, Rel::B, Self::HUB, Self::HUB);
        for i in 0..spokes {
            let s = 1 + i;
            star(&mut tracker, &mut out, Rel::A, s, Self::HUB);
            star(&mut tracker, &mut out, Rel::B, Self::HUB, s);
            star(&mut tracker, &mut out, Rel::C, Self::HUB, s);
            // D-edges land on the first four spokes-as-L1 and do not touch
            // the hub, so they survive the drain (kept out of `hub_edges`).
            tracker.insert(&mut out, Rel::D, s, 1 + (i % 4));
        }
        // Collapse: every hub-incident edge deleted in seeded random order.
        shuffle(&mut rng, &mut hub_edges);
        for (rel, l, r) in hub_edges {
            tracker.delete(&mut out, rel, l, r);
        }
        chunk_layered_stream(&out, self.batch_size)
    }
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

/// The full built-in scenario catalog at default (moderate) sizes, every
/// component seeded from `seed`. This is what the `scenarios` experiment
/// binary replays; `docs/SCENARIOS.md` documents each entry.
pub fn catalog(seed: u64) -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(ZipfScenario {
            seed,
            ..Default::default()
        }),
        Box::new(SlidingWindowScenario {
            seed,
            ..Default::default()
        }),
        Box::new(ChurnScenario {
            seed,
            ..Default::default()
        }),
        Box::new(ThresholdFlapScenario {
            seed,
            ..Default::default()
        }),
        Box::new(BurstyMixScenario {
            seed,
            ..Default::default()
        }),
        Box::new(ProductionReplayScenario {
            seed,
            ..Default::default()
        }),
        Box::new(MeshOfStarsScenario {
            seed,
            ..Default::default()
        }),
        Box::new(HubCollapseScenario {
            seed,
            ..Default::default()
        }),
    ]
}

/// A scaled-down catalog (hundreds of updates per scenario) small enough to
/// replay through *every* engine kind — including the quadratic reference
/// engines — in tests and examples.
pub fn smoke_catalog(seed: u64) -> Vec<Box<dyn Scenario>> {
    vec![
        Box::new(ZipfScenario {
            layer_size: 48,
            updates: 300,
            batch_size: 64,
            seed,
            ..Default::default()
        }),
        Box::new(SlidingWindowScenario {
            layer_size: 32,
            window: 96,
            updates: 300,
            batch_size: 64,
            seed,
        }),
        Box::new(ChurnScenario {
            layer_size: 32,
            updates: 300,
            batch_size: 64,
            seed,
            ..Default::default()
        }),
        Box::new(ThresholdFlapScenario {
            hubs: 1,
            spokes: 24,
            waves: 2,
            batch_size: 48,
            seed,
            ..Default::default()
        }),
        Box::new(BurstyMixScenario {
            layer_size: 24,
            bursts: 8,
            burst_max: 64,
            seed,
            ..Default::default()
        }),
        Box::new(ProductionReplayScenario {
            scale: 0.05,
            batch_size: 128,
            seed,
            ..Default::default()
        }),
        Box::new(MeshOfStarsScenario {
            stars: 8,
            degree_cap: 6,
            churn_rounds: 60,
            batch_size: 48,
            seed,
        }),
        Box::new(HubCollapseScenario {
            spokes: 24,
            background: 12,
            batch_size: 48,
            seed,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_graph::{LayeredGraph, UpdateOp};

    fn flatten(batches: &[UpdateBatch]) -> Vec<LayeredUpdate> {
        batches.iter().flat_map(|b| b.iter().copied()).collect()
    }

    fn assert_well_formed(name: &str, batches: &[UpdateBatch]) -> LayeredGraph {
        let mut g = LayeredGraph::new();
        for (i, u) in flatten(batches).iter().enumerate() {
            assert!(g.apply(u), "{name}: ill-formed update #{i}: {u:?}");
        }
        g
    }

    #[test]
    fn every_scenario_is_seed_deterministic_and_well_formed() {
        for (a, b) in smoke_catalog(7).iter().zip(smoke_catalog(7).iter()) {
            assert_eq!(a.name(), b.name());
            let batches = a.generate();
            assert_eq!(
                batches,
                b.generate(),
                "{}: same seed must give identical batches",
                a.name()
            );
            assert!(!batches.is_empty(), "{}: empty stream", a.name());
            assert!(total_updates(&batches) > 0);
            assert_well_formed(a.name(), &batches);
            assert!(!a.describe().is_empty());
        }
        for (a, b) in smoke_catalog(7).iter().zip(smoke_catalog(8).iter()) {
            assert_eq!(a.seed(), 7);
            assert_ne!(
                flatten(&a.generate()),
                flatten(&b.generate()),
                "{}: different seeds must diverge",
                a.name()
            );
        }
    }

    #[test]
    fn catalog_defaults_are_deterministic() {
        // The full-size catalog is what the experiment binary replays; keep
        // this cheap by only generating (not replaying) it.
        for (a, b) in catalog(3).iter().zip(catalog(3).iter()) {
            assert_eq!(
                flatten(&a.generate()),
                flatten(&b.generate()),
                "{}",
                a.name()
            );
        }
    }

    #[test]
    fn zipf_stream_is_insert_only_and_skewed() {
        let stream = flatten(
            &ZipfScenario {
                layer_size: 100,
                updates: 3_000,
                ..Default::default()
            }
            .generate(),
        );
        assert!(stream.iter().all(|u| u.op == UpdateOp::Insert));
        let small = stream.iter().filter(|u| u.left < 10).count();
        let large = stream.iter().filter(|u| u.left >= 90).count();
        assert!(
            small > large * 3,
            "hot attribute values must dominate ({small} vs {large})"
        );
    }

    #[test]
    fn sliding_window_bounds_live_edges() {
        let cfg = SlidingWindowScenario {
            layer_size: 32,
            window: 64,
            updates: 1_500,
            batch_size: 100,
            ..Default::default()
        };
        let mut g = LayeredGraph::new();
        let mut deletes = 0usize;
        for u in flatten(&cfg.generate()) {
            assert!(g.apply(&u));
            assert!(g.total_edges() <= 64, "live edges bounded by the window");
            deletes += (u.op == UpdateOp::Delete) as usize;
        }
        assert!(deletes > 300, "sustained expiry pressure ({deletes})");
    }

    #[test]
    fn churn_is_delete_heavy_after_warmup() {
        let cfg = ChurnScenario {
            updates: 2_000,
            ..Default::default()
        };
        let stream = flatten(&cfg.generate());
        let warmup = (2_000.0 * cfg.build_frac) as usize;
        let steady_deletes = stream[warmup..]
            .iter()
            .filter(|u| u.op == UpdateOp::Delete)
            .count();
        assert!(
            steady_deletes * 2 > stream.len() - warmup,
            "steady state must be delete-majority ({steady_deletes})"
        );
    }

    #[test]
    fn threshold_flap_oscillates_edge_count() {
        let cfg = ThresholdFlapScenario::default();
        let batches = cfg.generate();
        let mut g = LayeredGraph::new();
        let mut peak = 0usize;
        for u in flatten(&batches) {
            assert!(g.apply(&u));
            peak = peak.max(g.total_edges());
        }
        let trough = g.total_edges();
        assert!(
            peak >= trough * 4,
            "waves must swing m past the factor-2 era boundary (peak {peak}, trough {trough})"
        );
        // Hub L2-degree (A-side + B-side spokes) crosses the heavy/light
        // boundary m^(2/3) at the peak.
        let m = peak as f64;
        assert!(
            (2.0 * cfg.spokes as f64) > m.powf(2.0 / 3.0),
            "hub degree {} must exceed peak m^(2/3) ≈ {:.1}",
            2 * cfg.spokes,
            m.powf(2.0 / 3.0)
        );
    }

    #[test]
    fn bursty_mix_has_one_batch_per_burst_and_both_shapes() {
        let cfg = BurstyMixScenario::default();
        let batches = cfg.generate();
        assert!(
            batches.len() >= cfg.bursts / 2,
            "one batch per (non-empty) burst"
        );
        let sizes: Vec<usize> = batches.iter().map(UpdateBatch::len).collect();
        let (min, max) = (
            sizes.iter().min().copied().unwrap_or(0),
            sizes.iter().max().copied().unwrap_or(0),
        );
        assert!(max >= min * 4, "burst sizes must vary ({min}..{max})");
        let stream = flatten(&batches);
        let bipartite_ids = stream.iter().any(|u| u.left < cfg.layer_size);
        let general_ids = stream.iter().any(|u| u.left >= cfg.layer_size);
        assert!(bipartite_ids && general_ids, "both burst shapes present");
        assert_well_formed("bursty-mix", &batches);
    }

    #[test]
    fn production_replay_mixes_all_components() {
        let cfg = ProductionReplayScenario {
            scale: 0.1,
            ..Default::default()
        };
        let batches = cfg.generate();
        assert_well_formed("production-replay", &batches);
        let stream = flatten(&batches);
        for component in 0..5u32 {
            let base = component * cfg.id_stride;
            let hits = stream
                .iter()
                .filter(|u| u.left >= base && u.left < base + cfg.id_stride)
                .count();
            assert!(hits > 0, "component {component} missing from the replay");
        }
        // Re-chunked uniformly: every batch but the last is full.
        assert!(batches[..batches.len() - 1]
            .iter()
            .all(|b| b.len() == cfg.batch_size));
    }

    #[test]
    fn mesh_of_stars_bounds_hub_degrees_and_holds_edge_count_in_churn() {
        let cfg = MeshOfStarsScenario::default();
        let batches = cfg.generate();
        let growth = cfg.growth_batches();
        assert!(
            growth > 0 && growth < batches.len(),
            "both phases must be non-empty ({growth} of {})",
            batches.len()
        );
        let mut g = LayeredGraph::new();
        for b in &batches[..growth] {
            for u in b.iter() {
                assert!(g.apply(u));
            }
        }
        let m_grown = g.total_edges();
        for b in &batches[growth..] {
            for u in b.iter() {
                assert!(g.apply(u));
                // Delete + reinsert pairs: the count never dips by more
                // than one, and every churn round restores it.
                assert!(g.total_edges() >= m_grown - 1);
            }
        }
        assert_eq!(g.total_edges(), m_grown, "churn is edge-count-neutral");
        // Hub L2 degree (own spokes + previous star's mesh links + mirror)
        // stays below the heavy/light boundary even at its worst: just
        // after an upward era rebuild, where m̂ can sit as low as m/2.
        let hub_degree = 2 * cfg.degree_cap + 1;
        let worst_threshold = (m_grown as f64 / 2.0).powf(2.0 / 3.0);
        assert!(
            (hub_degree as f64) < worst_threshold,
            "hub degree {hub_degree} must stay below worst-case threshold {worst_threshold:.1}"
        );
    }

    #[test]
    fn hub_collapse_drains_a_heavy_hub_across_the_era_boundary() {
        let cfg = HubCollapseScenario::default();
        let batches = cfg.generate();
        let mut g = LayeredGraph::new();
        let mut peak = 0usize;
        let mut hub_live = 0i64;
        let mut hub_peak = 0i64;
        for u in flatten(&batches) {
            assert!(g.apply(&u));
            peak = peak.max(g.total_edges());
            // L2-side hub degree: A-edges into the hub plus B-edges out.
            let touches_hub = (u.rel == Rel::A && u.right == HubCollapseScenario::HUB)
                || (u.rel == Rel::B && u.left == HubCollapseScenario::HUB);
            if touches_hub {
                hub_live += if u.op == UpdateOp::Insert { 1 } else { -1 };
                hub_peak = hub_peak.max(hub_live);
            }
        }
        assert_eq!(hub_live, 0, "the hub must be drained to zero degree");
        assert_eq!(hub_peak, 2 * cfg.spokes as i64 + 1);
        // Heavy under *any* era estimate: m̂ never exceeds 2m, so crossing
        // (2·peak)^(2/3) guarantees the hub classifies heavy at the peak.
        let heavy_bound = (2.0 * peak as f64).powf(2.0 / 3.0);
        assert!(
            hub_peak as f64 > heavy_bound,
            "hub degree {hub_peak} must exceed (2·peak)^(2/3) ≈ {heavy_bound:.1}"
        );
        // The drain crosses the downward factor-2 era boundary.
        let final_m = g.total_edges();
        assert!(
            2 * final_m <= peak,
            "collapse must halve the edge count (peak {peak}, final {final_m})"
        );
        assert!(final_m > 0, "background plane survives the collapse");
    }
}
