//! Update streams over 4-layered graphs.
//!
//! These are the direct inputs of `fourcycle_core::LayeredCycleCounter`
//! (Theorem 2), whose count is also the cyclic-join size of §1/Fig. 1's
//! view maintenance scenario. Three families:
//!
//! * [`LayeredStreamKind::Uniform`] — endpoints drawn uniformly from each
//!   layer; a configurable fraction of updates deletes a currently present
//!   edge (fully dynamic churn).
//! * [`LayeredStreamKind::HubSkewed`] — a small set of hub vertices per layer
//!   attracts a configurable fraction of the endpoints. This is the regime
//!   that actually populates the High/Dense degree classes of §4 and thereby
//!   exercises the interesting query cases.
//! * [`LayeredStreamKind::Relational`] — models four relations whose
//!   attribute values follow a Zipf-like skew, as in join workloads: the
//!   probability of value `k` is proportional to `1/(k+1)`.

use fourcycle_graph::{LayeredUpdate, Rel, VertexId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Which layered stream family to generate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LayeredStreamKind {
    /// Uniform endpoints.
    Uniform,
    /// A fraction `hub_prob` of endpoint draws picks one of `hubs` hub
    /// vertices.
    HubSkewed {
        /// Number of hub vertices per layer (low vertex ids).
        hubs: u32,
        /// Probability that an endpoint draw picks a hub.
        hub_prob: f64,
    },
    /// Zipf-like attribute skew (probability of value `k` ∝ `1/(k+1)`).
    Relational,
}

/// Configuration of a layered stream.
#[derive(Debug, Clone, Copy)]
pub struct LayeredStreamConfig {
    /// Vertices per layer.
    pub layer_size: u32,
    /// Number of updates to generate.
    pub updates: usize,
    /// Probability that an update deletes a currently present edge (when one
    /// exists at the drawn position).
    pub delete_prob: f64,
    /// Stream family.
    pub kind: LayeredStreamKind,
    /// RNG seed (streams are deterministic given the seed).
    pub seed: u64,
}

impl Default for LayeredStreamConfig {
    fn default() -> Self {
        Self {
            layer_size: 64,
            updates: 1_000,
            delete_prob: 0.2,
            kind: LayeredStreamKind::Uniform,
            seed: 42,
        }
    }
}

impl LayeredStreamConfig {
    /// Generates the stream. Every update is well-formed with respect to the
    /// graph produced by the prefix before it (no duplicate insertions, no
    /// deletions of absent edges).
    pub fn generate(&self) -> Vec<LayeredUpdate> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut present: HashSet<(Rel, VertexId, VertexId)> = HashSet::new();
        let mut out = Vec::with_capacity(self.updates);
        let mut guard = 0usize;
        while out.len() < self.updates && guard < self.updates * 50 {
            guard += 1;
            let rel = Rel::ALL[rng.gen_range(0..4)];
            let left = self.pick(&mut rng);
            let right = self.pick(&mut rng);
            let key = (rel, left, right);
            if present.contains(&key) {
                if rng.gen_bool(self.delete_prob) {
                    present.remove(&key);
                    out.push(LayeredUpdate::delete(rel, left, right));
                }
            } else {
                present.insert(key);
                out.push(LayeredUpdate::insert(rel, left, right));
            }
        }
        out
    }

    fn pick(&self, rng: &mut SmallRng) -> VertexId {
        let n = self.layer_size.max(1);
        match self.kind {
            LayeredStreamKind::Uniform => rng.gen_range(0..n),
            LayeredStreamKind::HubSkewed { hubs, hub_prob } => {
                if rng.gen_bool(hub_prob.clamp(0.0, 1.0)) {
                    rng.gen_range(0..hubs.clamp(1, n))
                } else {
                    rng.gen_range(0..n)
                }
            }
            LayeredStreamKind::Relational => {
                // Inverse-rank (Zipf-like, s = 1) sampling via rejection.
                loop {
                    let k = rng.gen_range(0..n);
                    let accept = 1.0 / (k as f64 + 1.0);
                    if rng.gen_bool(accept) {
                        return k;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_graph::{LayeredGraph, UpdateOp};

    fn well_formed(stream: &[LayeredUpdate]) -> bool {
        let mut g = LayeredGraph::new();
        stream.iter().all(|u| g.apply(u))
    }

    #[test]
    fn uniform_stream_is_well_formed_and_deterministic() {
        let cfg = LayeredStreamConfig {
            updates: 2_000,
            ..Default::default()
        };
        let a = cfg.generate();
        let b = cfg.generate();
        assert_eq!(a.len(), 2_000);
        assert_eq!(a, b, "same seed ⇒ same stream");
        assert!(well_formed(&a));
        assert!(a.iter().any(|u| u.op == UpdateOp::Delete), "fully dynamic");
    }

    #[test]
    fn different_seeds_differ() {
        let a = LayeredStreamConfig {
            seed: 1,
            ..Default::default()
        }
        .generate();
        let b = LayeredStreamConfig {
            seed: 2,
            ..Default::default()
        }
        .generate();
        assert_ne!(a, b);
    }

    #[test]
    fn hub_skewed_stream_creates_high_degree_vertices() {
        let cfg = LayeredStreamConfig {
            layer_size: 200,
            updates: 3_000,
            delete_prob: 0.1,
            kind: LayeredStreamKind::HubSkewed {
                hubs: 2,
                hub_prob: 0.6,
            },
            seed: 7,
        };
        let stream = cfg.generate();
        assert!(well_formed(&stream));
        let mut g = LayeredGraph::new();
        for u in &stream {
            g.apply(u);
        }
        let m = g.total_edges() as f64;
        let threshold = m.powf(2.0 / 3.0);
        let max_deg = (0..2u32).map(|v| g.degree_l2(v)).max().unwrap_or(0);
        assert!(
            (max_deg as f64) >= threshold,
            "hub degree {max_deg} should exceed m^(2/3) ≈ {threshold:.1}"
        );
    }

    #[test]
    fn relational_stream_is_skewed_towards_small_ids() {
        let cfg = LayeredStreamConfig {
            layer_size: 100,
            updates: 4_000,
            delete_prob: 0.0,
            kind: LayeredStreamKind::Relational,
            seed: 11,
        };
        let stream = cfg.generate();
        assert!(well_formed(&stream));
        let small = stream.iter().filter(|u| u.left < 10).count();
        let large = stream.iter().filter(|u| u.left >= 90).count();
        assert!(
            small > large * 3,
            "small attribute values must dominate ({small} vs {large})"
        );
    }
}
