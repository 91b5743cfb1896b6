//! Runtime observability: per-shard counters and the aggregated report.
//!
//! Each shard worker owns one `ShardMetrics` cell (shared atomics, so the
//! handle can read a consistent-enough live view without stopping traffic);
//! [`RuntimeStats`] is the plain-value snapshot of one cell, and
//! [`RuntimeReport`] is the runtime-wide aggregation returned by
//! [`ShardedRuntime::report`](crate::ShardedRuntime::report) and by graceful
//! shutdown.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counter cell of one shard. The worker, and callers running a
/// command inline, increment with relaxed atomics on the hot path; readers
/// snapshot into [`RuntimeStats`].
#[derive(Debug, Default)]
pub(crate) struct ShardMetrics {
    /// Commands executed (successful or rejected).
    pub commands: AtomicU64,
    /// Updates successfully applied (batch commands count their length).
    pub updates_applied: AtomicU64,
    /// Commands the service rejected with a `ServiceError`.
    pub rejected: AtomicU64,
    /// Submissions that found the shard's bounded mailbox full (the
    /// backpressure signal; counted on the producer side): a blocking
    /// `submit` that waited, or a `try_submit` handed back as `Busy`.
    pub queue_full_stalls: AtomicU64,
    /// Groups the shard dispatcher drained from its mailbox (each group is
    /// one batch of commands processed — and, under group commit, fsynced —
    /// together). A command run inline joins no group.
    pub groups: AtomicU64,
    /// Fsyncs the shard's journal has issued (gauge, written after each
    /// group and each inline command; 0 for memory-only shards).
    pub journal_fsyncs: AtomicU64,
    /// Nanoseconds spent executing the shard's commands: by the worker per
    /// group, and by callers per inline command.
    pub busy_nanos: AtomicU64,
    /// Nanoseconds the worker spent waiting for its mailbox, which can
    /// overlap busy time spent inline.
    pub idle_nanos: AtomicU64,
}

impl ShardMetrics {
    /// Adds a busy interval, saturating at `u64::MAX` instead of wrapping
    /// (a wrapped nanosecond counter would report a near-idle shard as
    /// saturated or vice versa).
    pub(crate) fn add_busy(&self, nanos: u64) {
        saturating_fetch_add(&self.busy_nanos, nanos);
    }

    /// Adds an idle interval, saturating like [`ShardMetrics::add_busy`].
    pub(crate) fn add_idle(&self, nanos: u64) {
        saturating_fetch_add(&self.idle_nanos, nanos);
    }

    pub(crate) fn snapshot(&self) -> RuntimeStats {
        RuntimeStats {
            commands: self.commands.load(Ordering::Relaxed),
            updates_applied: self.updates_applied.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_full_stalls: self.queue_full_stalls.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            journal_fsyncs: self.journal_fsyncs.load(Ordering::Relaxed),
            busy_nanos: self.busy_nanos.load(Ordering::Relaxed),
            idle_nanos: self.idle_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time statistics of one shard (or, summed, of the whole
/// runtime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Commands executed (successful or rejected).
    pub commands: u64,
    /// Updates applied to service state (batch commands count their
    /// length). Includes commands whose *journal* write failed after the
    /// updates landed (`ServiceError::Journal` — also counted in
    /// `rejected`), so this total always matches the session epochs.
    pub updates_applied: u64,
    /// Commands that returned a `ServiceError`. With the single exception
    /// of journal failures (see `updates_applied`), state is unchanged.
    pub rejected: u64,
    /// Submissions that found the bounded mailbox full: blocking submits
    /// that waited, plus `try_submit` calls handed back as `Busy` (every
    /// server `busy` reply is one).
    pub queue_full_stalls: u64,
    /// Mailbox groups the dispatcher processed (the crate-private
    /// `ShardMetrics::groups` counter). A command that
    /// [`ShardedRuntime::call`](crate::ShardedRuntime::call) ran on its
    /// caller's thread joins no group, so `commands / groups` is the
    /// batching factor only of traffic that took the mailbox.
    pub groups: u64,
    /// Fsyncs the shard's journal has issued so far (0 when not journaled).
    pub journal_fsyncs: u64,
    /// Nanoseconds spent executing the shard's commands, by its worker or
    /// inline on callers' threads.
    pub busy_nanos: u64,
    /// Nanoseconds the shard worker spent idle, waiting for work. A caller
    /// may run a command inline while the worker waits, so idle time can
    /// overlap busy time spent inline, and `busy_nanos + idle_nanos` can
    /// exceed the wall time.
    pub idle_nanos: u64,
}

impl RuntimeStats {
    /// Field-wise sum (used to fold shards into the runtime-wide totals).
    ///
    /// Saturating on every field: a long-lived many-shard runtime can
    /// accumulate nanosecond counters whose *sum* exceeds `u64::MAX` even
    /// though each shard's own counter is fine, and a wrapped total would
    /// silently report nonsense (debug builds would panic mid-report).
    pub fn merge(self, other: RuntimeStats) -> RuntimeStats {
        RuntimeStats {
            commands: self.commands.saturating_add(other.commands),
            updates_applied: self.updates_applied.saturating_add(other.updates_applied),
            rejected: self.rejected.saturating_add(other.rejected),
            queue_full_stalls: self
                .queue_full_stalls
                .saturating_add(other.queue_full_stalls),
            groups: self.groups.saturating_add(other.groups),
            journal_fsyncs: self.journal_fsyncs.saturating_add(other.journal_fsyncs),
            busy_nanos: self.busy_nanos.saturating_add(other.busy_nanos),
            idle_nanos: self.idle_nanos.saturating_add(other.idle_nanos),
        }
    }

    /// Fraction of the worker's accounted time spent executing commands,
    /// in `[0, 1]` (0 when nothing has been accounted yet; saturating at
    /// the top of the `u64` range rather than overflowing).
    #[expect(
        clippy::as_conversions,
        reason = "utilization ratio; f64 rounding is fine"
    )]
    pub fn utilization(&self) -> f64 {
        let total = self.busy_nanos.saturating_add(self.idle_nanos);
        if total == 0 {
            0.0
        } else {
            self.busy_nanos as f64 / total as f64
        }
    }
}

/// `fetch_add` that clamps at `u64::MAX` instead of wrapping.
fn saturating_fetch_add(cell: &AtomicU64, delta: u64) {
    if delta == 0 {
        return;
    }
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
        Some(current.saturating_add(delta))
    });
}

/// Nanoseconds of `duration`, clamped into `u64` (a `u128 as u64` cast
/// would wrap after ~584 years of accumulated interval — implausible, but
/// the truncation is silent; the clamp is free).
pub(crate) fn clamped_nanos(duration: std::time::Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// The runtime-wide statistics report: one entry per shard plus the
/// field-wise totals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeReport {
    /// Per-shard statistics, indexed by shard id.
    pub per_shard: Vec<RuntimeStats>,
    /// Field-wise sum over all shards.
    pub totals: RuntimeStats,
}

impl RuntimeReport {
    /// Builds a report from per-shard snapshots.
    pub fn from_shards(per_shard: Vec<RuntimeStats>) -> Self {
        let totals = per_shard
            .iter()
            .copied()
            .fold(RuntimeStats::default(), RuntimeStats::merge);
        Self { per_shard, totals }
    }
}

impl fmt::Display for RuntimeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>5}  {:>10}  {:>10}  {:>9}  {:>7}  {:>5}",
            "shard", "commands", "updates", "rejected", "stalls", "busy"
        )?;
        let row = |f: &mut fmt::Formatter<'_>, label: &str, s: &RuntimeStats| {
            writeln!(
                f,
                "{:>5}  {:>10}  {:>10}  {:>9}  {:>7}  {:>4.0}%",
                label,
                s.commands,
                s.updates_applied,
                s.rejected,
                s.queue_full_stalls,
                s.utilization() * 100.0
            )
        };
        for (i, shard) in self.per_shard.iter().enumerate() {
            row(f, &i.to_string(), shard)?;
        }
        row(f, "all", &self.totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression (correctness audit): aggregation and accounting must be
    /// overflow-safe — extreme per-shard counters saturate instead of
    /// wrapping (release) or panicking (debug), and utilization stays a
    /// sane fraction.
    #[test]
    fn aggregation_saturates_instead_of_overflowing() {
        let extreme = RuntimeStats {
            commands: u64::MAX,
            updates_applied: u64::MAX - 1,
            rejected: u64::MAX,
            queue_full_stalls: u64::MAX,
            groups: u64::MAX,
            journal_fsyncs: u64::MAX,
            busy_nanos: u64::MAX,
            idle_nanos: u64::MAX,
        };
        let merged = extreme.merge(extreme);
        assert_eq!(merged.commands, u64::MAX);
        assert_eq!(merged.updates_applied, u64::MAX);
        assert_eq!(merged.busy_nanos, u64::MAX);
        // busy + idle would be 2^65; utilization must still be in [0, 1].
        let u = extreme.utilization();
        assert!((0.0..=1.0).contains(&u), "{u}");
        // Report building (merge-fold + Display) survives the extremes.
        let report = RuntimeReport::from_shards(vec![extreme, extreme, extreme]);
        assert_eq!(report.totals.commands, u64::MAX);
        assert!(report.to_string().contains("all"));

        // The shard-side accumulator clamps too (zero-duration intervals
        // are a no-op, not a corruption).
        let cell = ShardMetrics::default();
        cell.add_busy(0);
        cell.add_busy(u64::MAX - 5);
        cell.add_busy(10);
        cell.add_idle(u64::MAX);
        cell.add_idle(1);
        let snap = cell.snapshot();
        assert_eq!((snap.busy_nanos, snap.idle_nanos), (u64::MAX, u64::MAX));
        assert_eq!(
            clamped_nanos(std::time::Duration::from_secs(u64::MAX)),
            u64::MAX
        );
        assert_eq!(clamped_nanos(std::time::Duration::from_nanos(7)), 7);
    }

    #[test]
    fn totals_are_field_wise_sums() {
        let a = RuntimeStats {
            commands: 3,
            updates_applied: 10,
            rejected: 1,
            queue_full_stalls: 2,
            groups: 2,
            journal_fsyncs: 1,
            busy_nanos: 100,
            idle_nanos: 900,
        };
        let b = RuntimeStats {
            commands: 7,
            ..Default::default()
        };
        let report = RuntimeReport::from_shards(vec![a, b]);
        assert_eq!(report.totals.commands, 10);
        assert_eq!(report.totals.updates_applied, 10);
        assert_eq!(report.per_shard.len(), 2);
        assert!((a.utilization() - 0.1).abs() < 1e-12);
        assert_eq!(RuntimeStats::default().utilization(), 0.0);
        let rendered = report.to_string();
        assert!(rendered.contains("shard") && rendered.contains("all"));
    }
}
