//! Integer matrix arithmetic for the `fourcycle` workspace.
//!
//! The main algorithm of Assadi & Shah (PODS 2025) relies on *fast matrix
//! multiplication* (FMM): during every phase of `m^{1−δ}` updates it must be
//! able to multiply the (sub)matrices of the old phase so that path counts
//! between all relevant vertex pairs are available by the time the phase
//! rolls over (§5.1, Eq 9). This crate is the substrate that plays the role
//! of the FMM library:
//!
//! * [`DenseMatrix`] — row-major `i64` matrices with naive, blocked and
//!   Strassen multiplication ([`MulAlgorithm`]), including rectangular
//!   products (the paper uses `ω(a,b,c)` rectangular bounds in §3).
//! * [`SparseMatrix`] — row-list sparse matrices with sparse–sparse and
//!   sparse–dense products, used for the combinatorial fallback path and for
//!   building class-restricted submatrices out of adjacency lists.
//! * [`MatMulJob`] — an *incremental* multiplication job that performs a
//!   bounded amount of work per call. The paper spreads each old-phase
//!   product over the updates of the following phase to keep the update time
//!   worst-case rather than amortized; `MatMulJob` is the implementation of
//!   that schedule.
//!
//! Counting semantics: all products are exact integer products. When the
//! operands are (signed) biadjacency matrices, `(A·B)[i][j]` is exactly the
//! signed number of 2-paths from `i` to `j`, which is the quantity every data
//! structure in the paper stores.

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

pub mod dense;
pub mod job;
pub mod sparse;

pub use dense::{DenseMatrix, MulAlgorithm};
pub use job::{JobStatus, MatMulJob};
pub use sparse::SparseMatrix;
