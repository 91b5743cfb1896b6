//! Dynamic graph substrate for the `fourcycle` workspace.
//!
//! This crate provides the graph representations used by every counting
//! algorithm in the workspace:
//!
//! * [`LayeredGraph`] — the 4-layered graphs of Assadi & Shah (PODS 2025),
//!   §2.1: four vertex layers `L1..L4`, edges only between consecutive layers
//!   (`A: L1–L2`, `B: L2–L3`, `C: L3–L4`, `D: L4–L1`).
//! * [`GeneralGraph`] — ordinary simple undirected dynamic graphs, together
//!   with the general ↔ layered reduction of §8.
//! * Update/stream types ([`GraphUpdate`], [`LayeredUpdate`], [`UpdateOp`])
//!   shared by the engines, workload generators and the IVM layer.
//! * Degree-class machinery ([`ClassThresholds`], [`EndpointClass`],
//!   [`MiddleClass`]) implementing the High/Medium/Low/Tiny and
//!   Dense/Sparse/Tiny partitions of §4 and §6.
//! * Brute-force reference counters (`*_brute_force`) used as test oracles
//!   throughout the workspace.
//!
//! The representations here always describe the *current* graph. The
//! phase-tagged, signed edge multisets used internally by the main algorithm
//! (§5.1) live in `fourcycle-core`, layered on top of these types.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::as_conversions,
        reason = "unit tests may unwrap, panic and cast"
    )
)]

pub mod adjacency;
pub mod classes;
pub mod compact;
pub mod general;
pub mod hash;
pub mod layered;
pub mod update;

pub use adjacency::{BipartiteAdjacency, SignedAdjacency, COMPACT_SLACK};
pub use classes::{ClassThresholds, EndpointClass, MiddleClass};
pub use compact::CompactIndex;
pub use general::GeneralGraph;
pub use hash::{SeededHashMap, SeededState};
pub use layered::{LayeredGraph, Rel};
pub use update::{coalesce_updates, GraphUpdate, LayeredUpdate, UpdateBatch, UpdateOp};

/// Vertex identifier. Vertices are dense small integers managed by the
/// caller; layers of a [`LayeredGraph`] have independent id spaces.
pub type VertexId = u32;
