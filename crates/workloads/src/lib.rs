//! Fully dynamic update-stream generators.
//!
//! The paper's algorithms are defined for *arbitrary* fully dynamic streams;
//! the experiments in this workspace (`fourcycle-bench`) evaluate them on the
//! workload families motivated by the paper's introduction:
//!
//! * [`layered`] — streams over 4-layered graphs (the Theorem 2 setting and
//!   the cyclic-join IVM setting): uniform insert/delete mixes, hub-skewed
//!   streams that produce High/Dense vertices, and relation-style workloads
//!   with per-layer domain skew.
//! * [`general`] — streams over general simple graphs (the Theorem 1
//!   setting): Erdős–Rényi-style churn, preferential-attachment growth
//!   (social-network motif counting), and sliding-window streams
//!   (insert + expire) as used in the streaming literature the paper cites.
//! * [`trace`] — a plain-text trace format so experiments are replayable and
//!   streams can be exchanged with other tools.
//! * [`player`] — batched trace playback: groups streams/traces into
//!   `UpdateBatch`es for the counters' batch entry points.
//! * [`scenario`] — named, documented stress scenarios (the [`Scenario`]
//!   trait and the built-in catalog of `docs/SCENARIOS.md`): seeded batched
//!   workloads each engineered to exercise a specific engine slow path
//!   (era rebuilds, phase rollovers, class transitions).
//!
//! All generators are deterministic given their seed.

pub mod general;
pub mod layered;
pub mod player;
pub mod scenario;
pub mod trace;

pub use general::{GeneralStreamConfig, GeneralStreamKind};
pub use layered::{LayeredStreamConfig, LayeredStreamKind};
pub use player::{chunk_layered_stream, parse_layered_trace_batched, TracePlayer};
pub use scenario::{
    catalog, smoke_catalog, total_updates, BurstyMixScenario, ChurnScenario, HubCollapseScenario,
    MeshOfStarsScenario, ProductionReplayScenario, Scenario, SlidingWindowScenario,
    ThresholdFlapScenario, ZipfScenario,
};
pub use trace::{
    parse_general_trace, parse_layered_trace, render_general_trace, render_layered_trace,
};
