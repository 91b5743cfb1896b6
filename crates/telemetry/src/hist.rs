//! Fixed-bucket log-linear latency histogram.
//!
//! The layout is the classic log-linear ("HDR-lite") scheme: values below
//! 16 get one exact bucket each; every octave above that is split into 8
//! sub-buckets, bounding the relative error of any recorded value by
//! 1/8 = 12.5% while keeping the bucket count fixed and small. With 64-bit
//! values that is `16 + 60 * 8 = 496` buckets — about 4 KiB of counters per
//! histogram, cheap enough to keep one per shard per pipeline stage.
//!
//! Recording is a single relaxed atomic increment per sample (plus a
//! saturating sum and a `fetch_max`): no locks, no allocation, safe to call
//! from every shard worker concurrently. Reads go through
//! [`Histogram::snapshot`], which copies the counters into a plain
//! [`HistogramSnapshot`] for merging and percentile queries.
//!
//! Percentiles use the nearest-rank rule (see [`nearest_rank`]) — the same
//! rule the bench harness's `LatencySummary` applies to exact samples — and
//! report the *floor* of the bucket holding the ranked sample, so a
//! reported percentile is always a value less than or equal to an actually
//! observed sample, never an interpolated fiction.

use crate::stats::Counter;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets: 16 exact buckets for values `0..16`, then 8
/// sub-buckets for each of the 60 octaves `[16, 2^64)`.
pub const BUCKETS: usize = 496;

/// Sub-buckets per octave above the exact range.
const SUB_BUCKETS: u64 = 8;

/// Maps a value to its bucket index. Values below 16 map exactly
/// (`bucket_index(v) == v`); larger values land in the sub-bucket of their
/// octave given by the 3 bits below the leading bit.
#[expect(
    clippy::as_conversions,
    reason = "results are < BUCKETS = 496, which fits every usize width"
)]
pub fn bucket_index(value: u64) -> usize {
    if value < 16 {
        return value as usize;
    }
    let exp = 63 - u64::from(value.leading_zeros()); // >= 4
    let sub = (value >> (exp - 3)) & (SUB_BUCKETS - 1);
    (16 + (exp - 4) * SUB_BUCKETS + sub) as usize
}

/// Lowest value that maps to bucket `index` — the inverse of
/// [`bucket_index`] on bucket boundaries. Percentile queries report this
/// floor, so results round *down* to an observed magnitude.
pub fn bucket_floor(index: usize) -> u64 {
    debug_assert!(index < BUCKETS);
    if index < 16 {
        return u64::try_from(index).unwrap_or(u64::MAX);
    }
    let index = u64::try_from(index).unwrap_or(u64::MAX);
    let exp = 4 + (index - 16) / SUB_BUCKETS;
    let sub = (index - 16) % SUB_BUCKETS;
    (SUB_BUCKETS + sub) << (exp - 3)
}

/// Largest value that maps to bucket `index` (inclusive upper bound, as a
/// Prometheus `le` label wants it).
pub fn bucket_ceil(index: usize) -> u64 {
    if index + 1 < BUCKETS {
        bucket_floor(index + 1) - 1
    } else {
        u64::MAX
    }
}

/// Nearest-rank selection: the 1-based rank of the `q`-quantile among
/// `count` sorted samples, `⌈q·count⌉` clamped to `[1, count]`. Returns 0
/// when `count` is 0 (no sample to pick).
///
/// This is the single percentile rule in the workspace: the bench
/// harness's `LatencySummary` applies it to exact `f64` samples, and
/// [`HistogramSnapshot::percentile`] applies it to bucket counts, so both
/// report the same observed sample on shared fixtures.
#[expect(
    clippy::as_conversions,
    reason = "f64 rank math; >2^53 counts clamp to [1, count] below"
)]
pub fn nearest_rank(count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = (q * count as f64).ceil() as u64;
    rank.clamp(1, count)
}

/// Concurrent fixed-bucket histogram. `Histogram::default()` is empty;
/// recording never blocks and never allocates.
///
/// The sample count is *derived* from the bucket counters (their sum), so
/// a snapshot's `count()` always equals the sum of its buckets even when
/// taken mid-record; only `sum`/`max` can trail by in-flight samples.
pub struct Histogram {
    buckets: Box<[AtomicU64; BUCKETS]>,
    sum: Counter,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: Counter::default(),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample. One relaxed increment, one saturating add, one
    /// `fetch_max` — no locks.
    #[deny(clippy::disallowed_methods)]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.add(value);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Copies the counters into an immutable snapshot for merging and
    /// percentile queries.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; BUCKETS];
        for (out, cell) in buckets.iter_mut().zip(self.buckets.iter()) {
            *out = cell.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.get(),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count())
            .field("sum", &snap.sum)
            .field("max", &snap.max)
            .finish()
    }
}

/// Immutable copy of a [`Histogram`]'s counters. Cheap to merge and query;
/// all derived statistics are integers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
    /// Saturating sum of all recorded values.
    pub sum: u64,
    /// Largest recorded value (exact, not bucketed). 0 when empty.
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (all counters zero) — the identity for
    /// [`merge`](Self::merge).
    pub fn empty() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            sum: 0,
            max: 0,
        }
    }

    /// Total number of recorded samples: the sum of the bucket counters
    /// (saturating).
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .fold(0u64, |acc, &b| acc.saturating_add(b))
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }

    /// Integer mean (`sum / count`), 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Folds another snapshot into this one: bucket-wise saturating adds,
    /// saturating sum, max of maxes. Merging per-shard snapshots is exactly
    /// equivalent to having recorded all samples into one histogram.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine = mine.saturating_add(*theirs);
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`), reported as the floor of
    /// the bucket holding the ranked sample. Returns 0 when empty. For the
    /// overall maximum prefer [`max`](Self::max), which is exact.
    pub fn percentile(&self, q: f64) -> u64 {
        let rank = nearest_rank(self.count(), q);
        if rank == 0 {
            return 0;
        }
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_floor(index);
            }
        }
        bucket_floor(BUCKETS - 1)
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile shorthand.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket mapping is total, monotone, and exact below 16; floors are
    /// the true inverse on bucket boundaries.
    #[test]
    fn bucket_index_and_floor_agree_on_boundaries() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_floor(v as usize), v);
        }
        for index in 0..BUCKETS {
            let floor = bucket_floor(index);
            assert_eq!(bucket_index(floor), index, "floor of bucket {index}");
            let ceil = bucket_ceil(index);
            assert_eq!(bucket_index(ceil), index, "ceil of bucket {index}");
            if index + 1 < BUCKETS {
                assert!(bucket_floor(index + 1) > floor, "floors monotone");
                assert_eq!(bucket_index(ceil + 1), index + 1, "ceil+1 next bucket");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    /// Any value's bucket floor is within 12.5% below the value.
    #[test]
    fn relative_error_is_bounded() {
        for &v in &[16u64, 17, 100, 1_000, 12_345, 1 << 20, u64::MAX / 3] {
            let floor = bucket_floor(bucket_index(v));
            assert!(floor <= v);
            // floor > v - v/8  <=>  error < 12.5%
            assert!(floor >= v - v / 8, "floor {floor} too far below {v}");
        }
    }

    /// Empty histogram: all statistics are zero, percentiles included.
    #[test]
    fn empty_histogram_reports_zeroes() {
        let snap = Histogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(
            (snap.count(), snap.sum, snap.max, snap.mean()),
            (0, 0, 0, 0)
        );
        assert_eq!((snap.p50(), snap.p90(), snap.p99()), (0, 0, 0));
        assert_eq!(snap, HistogramSnapshot::empty());
    }

    /// A single sample is every percentile (nearest-rank picks it at any
    /// quantile) and the exact max.
    #[test]
    fn single_sample_dominates_every_percentile() {
        let hist = Histogram::new();
        hist.record(700);
        let snap = hist.snapshot();
        assert_eq!((snap.count(), snap.sum, snap.max), (1, 700, 700));
        let floor = bucket_floor(bucket_index(700));
        assert_eq!(snap.percentile(0.0), floor);
        assert_eq!(snap.p50(), floor);
        assert_eq!(snap.p99(), floor);
        assert_eq!(snap.percentile(1.0), floor);
    }

    /// `u64::MAX` lands in the last bucket without overflow; sum saturates
    /// instead of wrapping.
    #[test]
    fn extreme_values_saturate() {
        let hist = Histogram::new();
        hist.record(u64::MAX);
        hist.record(u64::MAX);
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 2);
        assert_eq!(snap.sum, u64::MAX, "sum saturates");
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.buckets[BUCKETS - 1], 2);
        assert_eq!(snap.p99(), bucket_floor(BUCKETS - 1));
    }

    /// Merging snapshots of disjoint ranges equals recording all samples
    /// into one histogram — counts, sums, maxes, and every percentile.
    #[test]
    fn merge_of_disjoint_ranges_matches_combined_recording() {
        let low = Histogram::new();
        let high = Histogram::new();
        let combined = Histogram::new();
        for v in 0..200u64 {
            low.record(v);
            combined.record(v);
        }
        for v in (10_000..10_200u64).map(|v| v * 7) {
            high.record(v);
            combined.record(v);
        }
        let mut merged = low.snapshot();
        merged.merge(&high.snapshot());
        assert_eq!(merged, combined.snapshot());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.percentile(q), combined.snapshot().percentile(q));
        }
    }

    /// Nearest-rank on tiny windows: with two samples the median is the
    /// lower one — pinned to match `LatencySummary`'s rule.
    #[test]
    fn nearest_rank_matches_latency_summary_rule() {
        assert_eq!(nearest_rank(0, 0.5), 0);
        assert_eq!(nearest_rank(1, 0.5), 1);
        assert_eq!(nearest_rank(2, 0.5), 1); // p50 of 2 = lower sample
        assert_eq!(nearest_rank(2, 0.9), 2);
        assert_eq!(nearest_rank(100, 0.99), 99);
        assert_eq!(nearest_rank(100, 1.0), 100);
        assert_eq!(nearest_rank(100, 0.0), 1);
    }

    /// Percentiles walk cumulative bucket counts correctly across a known
    /// distribution.
    #[test]
    fn percentiles_walk_buckets_in_order() {
        let hist = Histogram::new();
        for _ in 0..90 {
            hist.record(10);
        }
        for _ in 0..9 {
            hist.record(1_000);
        }
        hist.record(100_000);
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.p50(), 10);
        assert_eq!(snap.p90(), 10); // rank 90 is the last of the 10s
        assert_eq!(snap.p99(), bucket_floor(bucket_index(1_000)));
        assert_eq!(snap.percentile(1.0), bucket_floor(bucket_index(100_000)));
        assert_eq!(snap.max, 100_000);
    }
}
