//! The counters beside the stage histograms: what each shard executed and
//! what crossed the server's front door (ADR-009's 2026-10-20 amendment).
//!
//! The live cells are [`Counter`]s, relaxed and lock-free like the
//! histograms. [`Telemetry::snapshot`](crate::Telemetry::snapshot) copies
//! them into the plain [`ShardStats`] and [`ServerStats`] values of a
//! [`TelemetrySnapshot`](crate::TelemetrySnapshot).

use std::sync::atomic::{AtomicU64, Ordering};

/// A live `u64` counter: relaxed, lock-free, and saturating at `u64::MAX`
/// instead of wrapping (a wrapped nanosecond total would report a
/// near-idle shard as saturated, or the reverse).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta`, saturating.
    #[deny(clippy::disallowed_methods)]
    pub fn add(&self, delta: u64) {
        if delta != 0 {
            let _ = self
                .0
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_add(delta))
                });
        }
    }

    /// Subtracts `delta`, saturating at 0.
    pub fn sub(&self, delta: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(delta))
            });
    }

    /// Overwrites the value, for a gauge kept elsewhere.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// One shard's live counters; [`ShardStats`] says what each counts. The
/// runtime adds to them as commands finish; `commands` is not kept here
/// but read from the shard's reply-stage sample count. Aligned to two
/// cache lines, so neighbouring shards' counters never share one.
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct ShardCounters {
    pub updates_applied: Counter,
    pub rejected: Counter,
    pub queue_full_stalls: Counter,
    pub groups: Counter,
    pub journal_fsyncs: Counter,
    pub busy_nanos: Counter,
    pub idle_nanos: Counter,
}

impl ShardCounters {
    /// The counters' values, with `commands` supplied by the caller.
    pub fn snapshot(&self, commands: u64) -> ShardStats {
        ShardStats {
            commands,
            updates_applied: self.updates_applied.get(),
            rejected: self.rejected.get(),
            queue_full_stalls: self.queue_full_stalls.get(),
            groups: self.groups.get(),
            journal_fsyncs: self.journal_fsyncs.get(),
            busy_nanos: self.busy_nanos.get(),
            idle_nanos: self.idle_nanos.get(),
        }
    }
}

/// Point-in-time counters of one shard (or, summed, of every shard).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Commands executed, successful or rejected: the reply stage's sample
    /// count, since every finished command records exactly one.
    pub commands: u64,
    /// Updates applied to service state (a batch counts its length),
    /// including those of a command whose journal write failed after they
    /// landed, so the total matches the session epochs.
    pub updates_applied: u64,
    /// Commands the service rejected, journal failures included.
    pub rejected: u64,
    /// Submissions that found the shard's bounded mailbox full: blocking
    /// submits that waited, and `try_submit` calls handed back as `Busy`
    /// (every server `busy` reply is one).
    pub queue_full_stalls: u64,
    /// Mailbox groups the shard worker drained. A command run on its
    /// caller's thread joins no group, so `commands / groups` is the
    /// batching factor only of traffic that took the mailbox.
    pub groups: u64,
    /// Fsyncs the shard's journal has issued (0 without a journal).
    pub journal_fsyncs: u64,
    /// Nanoseconds spent executing the shard's commands, by its worker or
    /// inline on callers' threads.
    pub busy_nanos: u64,
    /// Nanoseconds the shard worker waited for work. A caller may run a
    /// command inline meanwhile, so busy and idle time can overlap.
    pub idle_nanos: u64,
}

impl ShardStats {
    /// Every counter as `(name, value)`: the keys of the JSON objects and
    /// the stems of the Prometheus families.
    pub fn fields(&self) -> [(&'static str, u64); 8] {
        [
            ("commands", self.commands),
            ("updates_applied", self.updates_applied),
            ("rejected", self.rejected),
            ("queue_full_stalls", self.queue_full_stalls),
            ("groups", self.groups),
            ("journal_fsyncs", self.journal_fsyncs),
            ("busy_nanos", self.busy_nanos),
            ("idle_nanos", self.idle_nanos),
        ]
    }

    /// Field-wise sum, saturating: many shards' nanosecond totals can
    /// overflow `u64` together even when each shard's does not.
    pub fn merge(self, other: ShardStats) -> ShardStats {
        ShardStats {
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

    /// Busy time as a share of busy plus idle time, in `[0, 1]` (0 before
    /// anything is accounted).
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

/// The server front door's live counters; [`ServerStats`] says what each
/// counts. All stay 0 on a runtime that no server fronts. Every
/// connection thread writes them, so they are aligned like
/// [`ShardCounters`].
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct FrontDoor {
    pub connections: Counter,
    pub open_connections: Counter,
    pub commands: Counter,
    pub busy_rejections: Counter,
    pub bytes_in: Counter,
    pub bytes_out: Counter,
}

impl FrontDoor {
    /// The counters' values.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.get(),
            open_connections: self.open_connections.get(),
            commands: self.commands.get(),
            busy_rejections: self.busy_rejections.get(),
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
        }
    }
}

/// Point-in-time counters of the server front door.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections open now (the one gauge).
    pub open_connections: u64,
    /// Service commands read off the wire and handed to the runtime. Lines
    /// answered `busy` or rejected by the parser do not count, nor do
    /// `metrics`, `metrics json` and `events`, which the server answers
    /// itself.
    pub commands: u64,
    /// Commands answered `err busy` because their shard's mailbox was full.
    pub busy_rejections: u64,
    /// Bytes read off connections.
    pub bytes_in: u64,
    /// Bytes written back, line terminators included.
    pub bytes_out: u64,
}

impl ServerStats {
    /// Every counter as `(name, value)`.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("connections", self.connections),
            ("open_connections", self.open_connections),
            ("commands", self.commands),
            ("busy_rejections", self.busy_rejections),
            ("bytes_in", self.bytes_in),
            ("bytes_out", self.bytes_out),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Extreme counters saturate instead of wrapping (release) or
    /// panicking (debug), and utilization stays a fraction.
    #[test]
    fn aggregation_saturates_instead_of_overflowing() {
        let extreme = ShardStats {
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
        assert!(merged.fields().iter().all(|&(_, v)| v == u64::MAX));
        // busy + idle would be 2^65; utilization must still be in [0, 1].
        let u = extreme.utilization();
        assert!((0.0..=1.0).contains(&u), "{u}");

        // The live cells clamp too; a zero add is a no-op.
        let cells = ShardCounters::default();
        cells.busy_nanos.add(0);
        cells.busy_nanos.add(u64::MAX - 5);
        cells.busy_nanos.add(10);
        cells.idle_nanos.add(u64::MAX);
        cells.idle_nanos.add(1);
        let snap = cells.snapshot(7);
        assert_eq!((snap.busy_nanos, snap.idle_nanos), (u64::MAX, u64::MAX));
        assert_eq!(snap.commands, 7);
        let open = Counter::default();
        open.add(1);
        open.sub(2);
        assert_eq!(open.get(), 0);

        // Durations clamp into u64 nanoseconds instead of wrapping.
        assert_eq!(
            crate::clamped_nanos(std::time::Duration::from_secs(u64::MAX)),
            u64::MAX
        );
        assert_eq!(crate::clamped_nanos(std::time::Duration::from_nanos(7)), 7);

        // Building a snapshot (the totals fold) and rendering it survive
        // the extremes.
        let tel = crate::Telemetry::new(crate::TelemetryConfig::default(), 3);
        for shard in 0..3 {
            tel.counters(shard).busy_nanos.add(u64::MAX);
            tel.counters(shard).idle_nanos.add(u64::MAX);
        }
        let snapshot = tel.snapshot();
        assert_eq!(snapshot.totals.busy_nanos, u64::MAX);
        assert!((0.0..=1.0).contains(&snapshot.totals.utilization()));
        let max = format!("\"busy_nanos\": {0}, \"idle_nanos\": {0}}}", u64::MAX);
        assert_eq!(snapshot.render_json().matches(&max).count(), 4);
        crate::expose::validate_prometheus(&snapshot.render_prometheus()).unwrap();
    }

    /// Each shard's counters, and the front door's, sit on cache lines of
    /// their own.
    #[test]
    fn counter_groups_do_not_share_cache_lines() {
        assert_eq!(std::mem::align_of::<ShardCounters>(), 128);
        assert_eq!(std::mem::align_of::<FrontDoor>(), 128);
    }

    #[test]
    fn totals_are_field_wise_sums() {
        let a = ShardStats {
            commands: 3,
            updates_applied: 10,
            rejected: 1,
            queue_full_stalls: 2,
            groups: 2,
            journal_fsyncs: 1,
            busy_nanos: 100,
            idle_nanos: 900,
        };
        let b = ShardStats {
            commands: 7,
            ..Default::default()
        };
        let sum = a.merge(b);
        assert_eq!((sum.commands, sum.updates_applied), (10, 10));
        assert!((a.utilization() - 0.1).abs() < 1e-12);
        assert_eq!(ShardStats::default().utilization(), 0.0);
        let (shard, server) = (a.fields(), ServerStats::default().fields());
        let names: std::collections::BTreeSet<_> =
            shard.iter().chain(&server).map(|f| f.0).collect();
        assert_eq!(names.len(), 13, "only `commands` is shared");
    }
}
