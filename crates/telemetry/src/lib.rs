//! Telemetry: per-stage latency histograms and a bounded structured event
//! ring (design rationale in ADR-009).
//!
//! This crate is deliberately dependency-free (std only) and sits below
//! every other `fourcycle` crate so that the store, runtime, server, and
//! bench layers can all report into one [`Telemetry`]:
//!
//! - [`hist::Histogram`] — fixed-bucket log-linear latency histogram,
//!   lock-free on the record path, with nearest-rank percentiles shared
//!   with the bench harness via [`hist::nearest_rank`].
//! - [`Stage`] — the six pipeline stages a request passes through; the
//!   runtime records one sample per stage per delivered command, so every
//!   stage histogram's count equals the `commands` counter exactly.
//! - [`ring::EventRing`] — bounded, overwrite-oldest, never blocks a
//!   writer; captures slow requests, group commits, checkpoint writes,
//!   recovery phases, chaos fault injections, and connection lifecycle.
//! - [`expose`] — Prometheus-style text exposition and the workspace's
//!   all-integer JSON dialect, both rendered from a [`TelemetrySnapshot`].
//!
//! Every runtime collects telemetry; [`TelemetryConfig`] only tunes the
//! slow-request threshold and the ring's capacity.

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

pub mod expose;
pub mod hist;
pub mod ring;

pub use hist::{nearest_rank, Histogram, HistogramSnapshot};
pub use ring::{Event, EventKind, EventRing, NO_SHARD};

use std::time::Duration;

/// The stages a request passes through between arriving at a shard
/// mailbox and its reply being sent. Every delivered command contributes
/// exactly one sample to each stage's histogram (zero-valued where a
/// stage does not apply), so per-stage counts stay equal to the runtime's
/// `commands` counter — a cheap cross-check that no sample is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Time between `submit` enqueueing the job and the shard worker
    /// starting its group (mailbox wait + group-commit hold).
    QueueWait,
    /// Group assembly and partitioning into barrier/segment slots.
    Dispatch,
    /// Engine apply (the service executing the command, journal excluded).
    Apply,
    /// WAL append (record + policy-driven fsync on the append path).
    JournalAppend,
    /// Wait for the group-commit fsync (zero unless group commit holds
    /// replies).
    FsyncWait,
    /// Delivering the response to the caller's ticket.
    Reply,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 6;

    /// All stages in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::QueueWait,
        Stage::Dispatch,
        Stage::Apply,
        Stage::JournalAppend,
        Stage::FsyncWait,
        Stage::Reply,
    ];

    /// Stable snake_case name used in metric labels and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Dispatch => "dispatch",
            Stage::Apply => "apply",
            Stage::JournalAppend => "journal_append",
            Stage::FsyncWait => "fsync_wait",
            Stage::Reply => "reply",
        }
    }

    /// Dense index in `0..Stage::COUNT`, in pipeline order.
    pub fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::Dispatch => 1,
            Stage::Apply => 2,
            Stage::JournalAppend => 3,
            Stage::FsyncWait => 4,
            Stage::Reply => 5,
        }
    }
}

/// How telemetry is tuned. `Default`: a 10 ms slow-request threshold and
/// 1024 ring slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    slow_request_nanos: u64,
    ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            slow_request_nanos: 10_000_000,
            ring_capacity: 1024,
        }
    }
}

impl TelemetryConfig {
    /// Sets the end-to-end latency above which a request emits a
    /// [`EventKind::SlowRequest`] event.
    pub fn slow_request_threshold(mut self, threshold: Duration) -> Self {
        self.slow_request_nanos = u64::try_from(threshold.as_nanos()).unwrap_or(u64::MAX);
        self
    }

    /// Sets the event ring capacity (minimum 1).
    pub fn ring_capacity(mut self, capacity: usize) -> Self {
        self.ring_capacity = capacity.max(1);
        self
    }

    /// The slow-request threshold in nanoseconds.
    pub fn slow_request_nanos(&self) -> u64 {
        self.slow_request_nanos
    }

    /// The event ring capacity.
    pub fn events_capacity(&self) -> usize {
        self.ring_capacity
    }
}

/// The live telemetry of one runtime: per-shard stage histograms and the
/// event ring. Layers share it through an `Arc`.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    /// `stages[shard][stage.index()]`.
    stages: Vec<Vec<Histogram>>,
    ring: EventRing,
}

impl Telemetry {
    /// Creates the telemetry for `shards` shards under `config`.
    pub fn new(config: TelemetryConfig, shards: usize) -> Self {
        let stages = (0..shards)
            .map(|_| (0..Stage::COUNT).map(|_| Histogram::new()).collect())
            .collect();
        Self {
            config,
            stages,
            ring: EventRing::new(config.events_capacity()),
        }
    }

    /// The configuration this telemetry was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Number of shards tracked.
    pub fn shards(&self) -> usize {
        self.stages.len()
    }

    /// The histogram for one stage on one shard.
    pub fn stage(&self, shard: usize, stage: Stage) -> &Histogram {
        &self.stages[shard][stage.index()]
    }

    /// The shared event ring.
    pub fn ring(&self) -> &EventRing {
        &self.ring
    }

    /// Called once per delivered request with its end-to-end latency:
    /// emits a [`EventKind::SlowRequest`] event when over the threshold.
    #[deny(clippy::disallowed_methods)]
    pub fn note_request_done(&self, shard: u32, total_nanos: u64) {
        let threshold = self.config.slow_request_nanos();
        if total_nanos > threshold {
            self.ring
                .emit(shard, EventKind::SlowRequest, total_nanos, threshold);
        }
    }

    /// Copies every histogram and ring statistic into an
    /// immutable [`TelemetrySnapshot`]. Buffered events stay in the ring
    /// (use [`EventRing::drain`] to consume them).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            shards: self
                .stages
                .iter()
                .map(|stages| stages.iter().map(Histogram::snapshot).collect())
                .collect(),
            events_emitted: self.ring.emitted(),
            events_dropped: self.ring.dropped(),
            events_buffered: u64::try_from(self.ring.len()).unwrap_or(u64::MAX),
        }
    }
}

/// Point-in-time copy of a [`Telemetry`], ready for rendering
/// (see [`expose`]) or cross-shard aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// `shards[shard][stage.index()]` — one histogram per stage per shard.
    pub shards: Vec<Vec<HistogramSnapshot>>,
    /// Total events ever emitted into the ring.
    pub events_emitted: u64,
    /// Events dropped due to writer-side lock contention.
    pub events_dropped: u64,
    /// Events buffered in the ring at snapshot time.
    pub events_buffered: u64,
}

impl TelemetrySnapshot {
    /// The histogram for one stage on one shard.
    pub fn stage(&self, shard: usize, stage: Stage) -> &HistogramSnapshot {
        &self.shards[shard][stage.index()]
    }

    /// One stage merged across all shards — equivalent to having recorded
    /// every shard's samples into a single histogram.
    pub fn stage_total(&self, stage: Stage) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::empty();
        for shard in &self.shards {
            total.merge(&shard[stage.index()]);
        }
        total
    }

    /// Prometheus-style text exposition. See [`expose::render_prometheus`].
    pub fn render_prometheus(&self) -> String {
        expose::render_prometheus(self)
    }

    /// All-integer JSON document. See [`expose::render_json`].
    pub fn render_json(&self) -> String {
        expose::render_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stage metadata is dense, ordered, and uniquely named.
    #[test]
    fn stage_index_and_names_are_dense() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
        }
        let names: std::collections::BTreeSet<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), Stage::COUNT);
    }

    /// Config defaults and builders round-trip.
    #[test]
    fn config_builders_round_trip() {
        let config = TelemetryConfig::default()
            .slow_request_threshold(Duration::from_micros(250))
            .ring_capacity(16);
        assert_eq!(config.slow_request_nanos(), 250_000);
        assert_eq!(config.events_capacity(), 16);
        assert_eq!(TelemetryConfig::default().slow_request_nanos(), 10_000_000);
        assert_eq!(TelemetryConfig::default().events_capacity(), 1024);
    }

    /// Per-shard stage recording aggregates correctly in `stage_total`.
    #[test]
    fn stage_total_merges_across_shards() {
        let tel = Telemetry::new(TelemetryConfig::default(), 3);
        tel.stage(0, Stage::Apply).record(100);
        tel.stage(1, Stage::Apply).record(200);
        tel.stage(2, Stage::Apply).record_each(900, 3);
        tel.stage(1, Stage::QueueWait).record(5);
        let snap = tel.snapshot();
        assert_eq!(snap.stage(0, Stage::Apply).count(), 1);
        let total = snap.stage_total(Stage::Apply);
        assert_eq!(total.count(), 5);
        assert_eq!(total.sum, 100 + 200 + 900);
        assert_eq!(snap.stage_total(Stage::QueueWait).count(), 1);
        assert_eq!(snap.stage_total(Stage::Reply).count(), 0);
    }

    /// Slow-request gate: only latencies over the threshold emit events.
    #[test]
    fn slow_requests_emit_only_over_threshold() {
        let config = TelemetryConfig::default().slow_request_threshold(Duration::from_nanos(1_000));
        let tel = Telemetry::new(config, 1);
        tel.note_request_done(0, 999);
        tel.note_request_done(0, 1_000);
        assert!(tel.ring().is_empty());
        tel.note_request_done(0, 1_001);
        let events = tel.ring().drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::SlowRequest);
        assert_eq!((events[0].a, events[0].b), (1_001, 1_000));
    }
}
