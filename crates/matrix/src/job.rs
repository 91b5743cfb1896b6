//! Incremental (de-amortized) matrix multiplication.
//!
//! §5.1 of the paper: "A phase should be long enough so that in the time it
//! takes to process all the edge updates in a phase, we are able to multiply
//! two square matrices of dimension `m^{2/3+2ε}`." The algorithm therefore
//! *spreads* the old-phase products over the updates of the next phase — each
//! update performs `O(m^{2/3−ε})` steps of the pending multiplication
//! (Algorithm 2, Step 2). [`MatMulJob`] implements exactly that schedule: it
//! owns the operands, performs a bounded number of scalar
//! multiply–accumulate operations per [`MatMulJob::advance`] call, and hands
//! out the finished product once complete.
//!
//! The production engine (`fourcycle-core::fmm`) computes its old-phase
//! products eagerly at the rollover (amortized accounting) and does not use
//! this job; pumping it per update would give the worst-case accounting.

use crate::dense::DenseMatrix;

/// Progress state of a [`MatMulJob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Work remains; keep calling [`MatMulJob::advance`].
    InProgress,
    /// The product is fully computed and can be taken.
    Done,
}

/// An incrementally evaluated product `A · B`.
#[derive(Debug, Clone)]
pub struct MatMulJob {
    a: DenseMatrix,
    b: DenseMatrix,
    out: DenseMatrix,
    /// Next (row, inner) position to process, in row-major (i, k) order.
    cursor: usize,
    total_steps: usize,
    work_done: u64,
}

impl MatMulJob {
    /// Creates a job computing `a · b`.
    ///
    /// # Panics
    /// Panics if the inner dimensions do not agree.
    pub fn new(a: DenseMatrix, b: DenseMatrix) -> Self {
        assert_eq!(a.cols(), b.rows(), "dimension mismatch");
        let out = DenseMatrix::zeros(a.rows(), b.cols());
        let total_steps = a.rows() * a.cols();
        Self {
            a,
            b,
            out,
            cursor: 0,
            total_steps,
            work_done: 0,
        }
    }

    /// Performs up to `budget` scalar multiply–accumulate "units" of work.
    /// One unit is one `(i, k)` pair, i.e. one row-scaled accumulation of
    /// length `b.cols()` (skipped quickly when `a[i][k] == 0`).
    ///
    /// Returns the status after the work.
    pub fn advance(&mut self, budget: usize) -> JobStatus {
        let mut remaining = budget;
        while remaining > 0 && self.cursor < self.total_steps {
            let i = self.cursor / self.a.cols();
            let k = self.cursor % self.a.cols();
            let coeff = self.a.get(i, k);
            if coeff != 0 {
                for c in 0..self.b.cols() {
                    let v = self.b.get(k, c);
                    if v != 0 {
                        self.out.add_entry(i, c, coeff * v);
                    }
                }
                self.work_done += u64::try_from(self.b.cols()).unwrap_or(u64::MAX);
            } else {
                self.work_done += 1;
            }
            self.cursor += 1;
            remaining -= 1;
        }
        self.status()
    }

    /// Runs the job to completion and returns the product.
    pub fn finish(mut self) -> DenseMatrix {
        while self.status() == JobStatus::InProgress {
            self.advance(usize::MAX / 2);
        }
        self.out
    }

    /// Current status.
    pub fn status(&self) -> JobStatus {
        if self.cursor >= self.total_steps {
            JobStatus::Done
        } else {
            JobStatus::InProgress
        }
    }

    /// Fraction of `(i, k)` pairs processed, in `[0, 1]`.
    #[expect(
        clippy::as_conversions,
        reason = "progress ratio; f64 rounding is fine"
    )]
    pub fn progress(&self) -> f64 {
        if self.total_steps == 0 {
            1.0
        } else {
            self.cursor as f64 / self.total_steps as f64
        }
    }

    /// Total scalar work performed so far (for the work-count experiments).
    pub fn work_done(&self) -> u64 {
        self.work_done
    }

    /// Takes the finished product.
    ///
    /// # Panics
    /// Panics if the job is not [`JobStatus::Done`].
    pub fn into_result(self) -> DenseMatrix {
        assert_eq!(self.status(), JobStatus::Done, "job not finished");
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::MulAlgorithm;

    fn sample(rows: usize, cols: usize, seed: i64) -> DenseMatrix {
        DenseMatrix::from_fn(rows, cols, |r, c| ((r * 7 + c * 3) as i64 + seed) % 4 - 1)
    }

    #[test]
    fn incremental_result_matches_direct_product() {
        let a = sample(23, 17, 1);
        let b = sample(17, 29, 2);
        let expected = a.multiply(&b, MulAlgorithm::Naive);

        let mut job = MatMulJob::new(a, b);
        let mut rounds = 0;
        while job.advance(10) == JobStatus::InProgress {
            rounds += 1;
            assert!(rounds < 1_000, "job must terminate");
        }
        assert!(job.progress() >= 1.0);
        assert_eq!(job.into_result(), expected);
    }

    #[test]
    fn finish_runs_to_completion() {
        let a = sample(9, 9, 3);
        let b = sample(9, 9, 4);
        let expected = a.multiply(&b, MulAlgorithm::Naive);
        assert_eq!(MatMulJob::new(a, b).finish(), expected);
    }

    #[test]
    fn empty_job_is_done_immediately() {
        let job = MatMulJob::new(DenseMatrix::zeros(0, 5), DenseMatrix::zeros(5, 3));
        assert_eq!(job.status(), JobStatus::Done);
        assert_eq!(job.progress(), 1.0);
        assert_eq!(job.into_result(), DenseMatrix::zeros(0, 3));
    }

    #[test]
    #[should_panic(expected = "job not finished")]
    fn taking_unfinished_result_panics() {
        let a = sample(8, 8, 5);
        let b = sample(8, 8, 6);
        let mut job = MatMulJob::new(a, b);
        job.advance(1);
        let _ = job.into_result();
    }

    #[test]
    fn work_counter_increases() {
        let a = sample(6, 6, 7);
        let b = sample(6, 6, 8);
        let mut job = MatMulJob::new(a, b);
        job.advance(3);
        let early = job.work_done();
        job.advance(100);
        assert!(job.work_done() > early);
    }
}
