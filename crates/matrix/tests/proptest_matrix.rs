//! Property-based tests for the matrix substrate.
//!
//! These certify the algebraic identities the counting engines rely on: all
//! multiplication algorithms agree, products are associative and distribute
//! over addition (which is what makes the "negative edge" / signed-chunk
//! aggregation of §3.3 sound), and the incremental job computes the same
//! product as the direct call.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_matrix::{DenseMatrix, MatMulJob, MulAlgorithm, SparseMatrix};
use proptest::prelude::*;

/// Strategy producing a small dense matrix with entries in `[-3, 3]`.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = DenseMatrix> {
    proptest::collection::vec(-3i64..=3, rows * cols)
        .prop_map(move |data| DenseMatrix::from_fn(rows, cols, |r, c| data[r * cols + c]))
}

/// Strategy producing compatible dimension triples (kept small: the point is
/// shape coverage, not scale).
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..12, 1usize..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_algorithms_agree((n1, n2, n3) in dims(), seed in 0u64..1000) {
        let a = DenseMatrix::from_fn(n1, n2, |r, c| ((r * 31 + c * 17) as i64 + seed as i64) % 5 - 2);
        let b = DenseMatrix::from_fn(n2, n3, |r, c| ((r * 13 + c * 7) as i64 + seed as i64) % 5 - 2);
        let naive = a.multiply(&b, MulAlgorithm::Naive);
        prop_assert_eq!(&naive, &a.multiply(&b, MulAlgorithm::Blocked));
        prop_assert_eq!(&naive, &a.multiply(&b, MulAlgorithm::Strassen));
        prop_assert_eq!(&naive, &a.multiply(&b, MulAlgorithm::Auto));
    }

    #[test]
    fn product_is_associative(a in matrix(5, 4), b in matrix(4, 6), c in matrix(6, 3)) {
        let left = a.multiply(&b, MulAlgorithm::Naive).multiply(&c, MulAlgorithm::Naive);
        let right = a.multiply(&b.multiply(&c, MulAlgorithm::Naive), MulAlgorithm::Naive);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn product_distributes_over_addition(a in matrix(4, 5), b in matrix(5, 4), c in matrix(5, 4)) {
        // A·(B+C) = A·B + A·C — the identity behind summing per-chunk /
        // per-phase data structures (§3.2: "we add it to the one of B_{<i-1}").
        let lhs = a.multiply(&(b.clone() + c.clone()), MulAlgorithm::Naive);
        let rhs = a.multiply(&b, MulAlgorithm::Naive) + a.multiply(&c, MulAlgorithm::Naive);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn sparse_and_dense_products_agree(a in matrix(6, 7), b in matrix(7, 5)) {
        let sa = SparseMatrix::from_dense(&a);
        let sb = SparseMatrix::from_dense(&b);
        let expected = a.multiply(&b, MulAlgorithm::Naive);
        prop_assert_eq!(sa.multiply_sparse(&sb).to_dense(), expected.clone());
        prop_assert_eq!(sa.multiply_dense(&b), expected);
    }

    #[test]
    fn incremental_job_matches_direct(a in matrix(6, 6), b in matrix(6, 6), budget in 1usize..20) {
        let expected = a.multiply(&b, MulAlgorithm::Naive);
        let mut job = MatMulJob::new(a, b);
        while job.advance(budget) == fourcycle_matrix::JobStatus::InProgress {}
        prop_assert_eq!(job.into_result(), expected);
    }

    #[test]
    fn sparse_roundtrip(a in matrix(7, 9)) {
        prop_assert_eq!(SparseMatrix::from_dense(&a).to_dense(), a);
    }
}
