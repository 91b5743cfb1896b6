//! Fully dynamic 4-cycle counting — the algorithms of Assadi & Shah
//! (PODS 2025), *"An Improved Fully Dynamic Algorithm for Counting 4-Cycles
//! in General Graphs using Fast Matrix Multiplication"*, plus every baseline
//! the paper compares against.
//!
//! # Problem
//!
//! Maintain the exact number of (simple) 4-cycles of a graph under an
//! arbitrary stream of edge insertions and deletions, answering after every
//! update. §2.2 of the paper reduces this to the following layered query
//! problem, which all engines in this crate implement ([`ThreePathEngine`]):
//!
//! > Given a 4-layered graph with relations `A (L1–L2)`, `B (L2–L3)`,
//! > `C (L3–L4)` undergoing edge updates, answer queries `(u ∈ L1, v ∈ L4)`
//! > for the number of 3-paths `u –A– x –B– y –C– v`.
//!
//! # Engines
//!
//! | Engine | Paper | Update time | Notes |
//! |---|---|---|---|
//! | [`NaiveEngine`] | — | `O(m)` | enumeration; test oracle |
//! | [`SimpleEngine`] | Appendix A | `O(n)` | all-pairs wedge counts |
//! | [`ThresholdEngine`] | §1 ("previous work", HHH22-style) | `O(m^{2/3})` | one heavy/light threshold |
//! | [`FmmEngine`] | §4–§7 | `O(m^{2/3−ε})` | phases + degree classes + old-phase matrix products |
//! | [`AutoEngine`] | Appendix A, then §4–§7 | as simple, then as fmm | simple until it holds a measured `m`, then one rebuild into fmm (ADR-011); the default |
//!
//! # Counters
//!
//! * [`LayeredCycleCounter`] — maintains the layered 4-cycle count
//!   (Theorem 2) by running four rotated engine instances, one per relation
//!   playing the role of the query matrix `D`.
//! * [`FourCycleCounter`] — maintains the 4-cycle count of a *general* graph
//!   (Theorem 1) through the §8 reduction, on one [`GeneralEngine`]: the `D`
//!   rotation, since in §8's layered copy the other three rotations are
//!   identical. Its fmm kinds run [`SymmetricFmmEngine`], which also stores
//!   that copy's `A = B = C` once.
//!
//! # Cost accounting
//!
//! Every engine counts the elementary operations it performs
//! ([`ThreePathEngine::work`]); the experiment harness fits scaling exponents
//! to these counts (experiment T4) because wall-clock differences of
//! `m^{0.01}` are invisible at laptop scale while operation counts are exact.

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

pub mod auto;
pub mod counter;
pub mod engine;
pub mod error;
pub mod fmm;
pub mod naive;
pub mod pair_counts;
pub mod simple;
pub mod threshold;

pub use auto::AutoEngine;
pub use counter::{FourCycleCounter, LayeredCycleCounter, Snapshot};
pub use engine::{EngineConfig, EngineKind, GeneralEngine, QRel, SlowPathStats, ThreePathEngine};
pub use error::{BatchError, UpdateError};
pub use fmm::{FmmConfig, FmmEngine, SymmetricFmmEngine};
pub use naive::NaiveEngine;
pub use pair_counts::PairCounts;
pub use simple::SimpleEngine;
pub use threshold::ThresholdEngine;
