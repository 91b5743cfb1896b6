//! Matrix-multiplication exponent models and the parameter/constraint solver
//! of Assadi & Shah (PODS 2025).
//!
//! The paper's quantitative content is a small constraint system:
//!
//! * **Main algorithm (§4):** phases of `m^{1−δ}` updates, update time
//!   `O(m^{2/3−ε})`, subject to
//!   - Eq 9: `1 − δ ≥ (2ω + 1)·ε + (ω − 1)·2/3` (a phase is long enough to
//!     multiply two `m^{2/3+2ε}`-dimensional square matrices),
//!   - Eq 10: `3ε ≤ δ` (iterating pairs of high vertices, one restricted to
//!     the new phase, fits in the update time),
//!   - Eq 11: `ε ≤ 1/6` (class thresholds stay ordered).
//! * **Warm-up algorithm (§3.4):** update time `O(m^{2/3−ε1})`, chunk-local
//!   dense/sparse threshold `m^{1/3−ε2}`, subject to Eq 2, 5, 6, 7, 8, two of
//!   which involve *rectangular* multiplication exponents `ω(a, b, c)`.
//!
//! Solving these with the current square exponent `ω = 2.371339` gives
//! `ε = 0.009811`, `δ = 3ε`, and with the ideal `ω = 2` gives `ε = 1/24`,
//! `δ = 1/8` (Theorems 1–2); the warm-up parameters are
//! `ε1 = 0.04201965`, `ε2 = 0.14568075` (current) and `ε1 = 1/24`,
//! `ε2 = 5/24` (ideal). Appendix B verifies the constraints numerically.
//!
//! This crate reproduces all of that: [`model`] provides pluggable
//! `ω` / `ω(a,b,c)` models, [`solver`] maximises `ε` (resp. `ε1`) under the
//! constraint system, and [`verify`] re-runs every Appendix B check.
//! Experiments T1–T3 (the `experiments` binary of `fourcycle-bench`) are
//! generated directly from these functions.

pub mod model;
pub mod params;
pub mod solver;
pub mod verify;

pub use model::{IdealModel, MmExponentModel, SquareReductionModel};
pub use params::{MainParams, WarmupParams};
pub use solver::{solve_main, solve_warmup, update_time_exponent};
pub use verify::{verify_main, verify_warmup, ConstraintCheck};

/// The best known square matrix-multiplication exponent used by the paper
/// (Alman–Duan–Vassilevska Williams–Xu–Xu–Zhou, SODA 2025).
pub const OMEGA_CURRENT_BEST: f64 = 2.371339;

/// Strassen's exponent, `log2(7)`.
pub const OMEGA_STRASSEN: f64 = 2.807354922057604;

/// The schoolbook exponent.
pub const OMEGA_NAIVE: f64 = 3.0;

/// The lowest conceivable exponent.
pub const OMEGA_IDEAL: f64 = 2.0;

/// The ε claimed by Theorem 1/2 for `ω = 2.371339`.
pub const PAPER_EPS_CURRENT: f64 = 0.0098109;

/// The ε claimed by Theorem 1/2 for `ω = 2`.
pub const PAPER_EPS_IDEAL: f64 = 1.0 / 24.0;

/// The warm-up `ε1` claimed in §3.4 for the current rectangular bounds.
pub const PAPER_EPS1_CURRENT: f64 = 0.04201965;

/// The warm-up `ε2` claimed in §3.4 for the current rectangular bounds.
pub const PAPER_EPS2_CURRENT: f64 = 0.14568075;

/// The warm-up `ε1` claimed in §3.4 for ideal rectangular bounds.
pub const PAPER_EPS1_IDEAL: f64 = 1.0 / 24.0;

/// The warm-up `ε2` claimed in §3.4 for ideal rectangular bounds.
pub const PAPER_EPS2_IDEAL: f64 = 5.0 / 24.0;

/// Rectangular exponent value reported in Appendix B for
/// `ω(1/3+ε1, 2/3−ε1, 1/3+ε1)` at the current-ω parameters (via the
/// complexity term balancer of van den Brand that the paper cites).
pub const PAPER_OMEGA_RECT_EQ2: f64 = 1.10495201;

/// Rectangular exponent value reported in Appendix B for
/// `ω(2/3+2ε, 1/3−ε1+ε2, 1/3−ε1+ε2)` at the current-ω parameters.
pub const PAPER_OMEGA_RECT_EQ5: f64 = 1.24039952;
