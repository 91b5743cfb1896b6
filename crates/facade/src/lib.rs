//! `fourcycle` — fully dynamic 4-cycle counting with fast matrix
//! multiplication.
//!
//! This is the facade crate of the workspace reproducing
//! *"An Improved Fully Dynamic Algorithm for Counting 4-Cycles in General
//! Graphs using Fast Matrix Multiplication"* (Assadi & Shah, PODS 2025).
//! It re-exports the workspace crates under stable module names so that
//! applications (and the runnable examples in `examples/`) only need one
//! dependency.
//!
//! # Quick start
//!
//! The canonical application API is the service layer: multi-tenant
//! sessions, typed errors, epoch-consistent snapshots (see
//! `docs/adr/ADR-003-service-api.md`).
//!
//! ```
//! use fourcycle::core::EngineKind;
//! use fourcycle::service::{CycleCountService, GraphId, WorkloadMode};
//!
//! let mut service = CycleCountService::builder()
//!     .engine(EngineKind::Fmm)
//!     .mode(WorkloadMode::General)
//!     .build();
//! let graph = GraphId(1);
//! service.create_session(graph).unwrap();
//! for (u, v) in [(1, 2), (2, 3), (3, 4), (4, 1)] {
//!     service.try_apply_general(graph, fourcycle::graph::GraphUpdate::insert(u, v)).unwrap();
//! }
//! let snapshot = service.snapshot(graph).unwrap();
//! assert_eq!((snapshot.count, snapshot.epoch), (1, 4));
//! ```
//!
//! The underlying counters remain available for single-graph embedding:
//!
//! ```
//! use fourcycle::core::{EngineKind, FourCycleCounter};
//!
//! // Maintain the number of 4-cycles of a general graph under edge
//! // insertions and deletions, using the paper's main algorithm.
//! let mut counter = FourCycleCounter::new(EngineKind::Fmm);
//! counter.insert(1, 2);
//! counter.insert(2, 3);
//! counter.insert(3, 4);
//! counter.insert(4, 1);
//! assert_eq!(counter.count(), 1);
//! counter.delete(2, 3);
//! assert_eq!(counter.count(), 0);
//! ```
//!
//! # Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`graph`] | dynamic layered / general graphs, update types, degree classes |
//! | [`matrix`] | dense/sparse integer matrices, Strassen, incremental products |
//! | [`complexity`] | ω / ω(a,b,c) models, the paper's parameter solver, Appendix B checks |
//! | [`core`] | the counting engines (Appendix A, HHH22-style, §4–§7 main) and counters |
//! | [`workloads`] | fully dynamic stream generators and the trace format |
//! | [`service`] | multi-tenant `CycleCountService`: sessions, commands, typed errors, snapshots |
//! | [`store`] | durable per-shard write-ahead journal, checkpoints, crash recovery |
//! | [`runtime`] | sharded thread-per-shard executor: concurrent service traffic, backpressure |
//! | [`server`] | TCP front door: the command text format over sockets, blocking wire client |
//! | [`telemetry`] | per-stage latency histograms, shard and server counters, bounded event ring, exposition |

pub use fourcycle_complexity as complexity;
pub use fourcycle_core as core;
pub use fourcycle_graph as graph;
pub use fourcycle_matrix as matrix;
pub use fourcycle_runtime as runtime;
pub use fourcycle_server as server;
pub use fourcycle_service as service;
pub use fourcycle_store as store;
pub use fourcycle_telemetry as telemetry;
pub use fourcycle_workloads as workloads;
