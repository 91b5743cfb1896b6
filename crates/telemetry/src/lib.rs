//! Telemetry: per-stage latency histograms, named counters/gauges, and a
//! bounded structured event ring (design rationale in ADR-009).
//!
//! This crate is deliberately dependency-free (std only) and sits below
//! every other `fourcycle` crate so that the store, runtime, server, and
//! bench layers can all contribute to one registry:
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
//! The whole subsystem is gated by [`TelemetryConfig`]: when disabled the
//! runtime holds no `Telemetry` at all and the hot path pays a single
//! branch per request (an `Option` check on submit and one per group in
//! the shard worker).

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

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
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

/// Whether and how to collect telemetry. `Default` is disabled: the
/// runtime then allocates nothing and the hot path pays one branch per
/// request (pinned by the PR 9 bench guard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    enabled: bool,
    slow_request_nanos: u64,
    ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

impl TelemetryConfig {
    /// Telemetry off: no histograms, no ring, one branch per request.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            slow_request_nanos: 10_000_000,
            ring_capacity: 1024,
        }
    }

    /// Telemetry on with defaults: 10 ms slow-request threshold, 1024
    /// ring slots.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::disabled()
        }
    }

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

    /// True when telemetry collection is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
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

/// Handle to a named monotonic counter. Cloneable; adds are relaxed and
/// saturating.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `delta`, saturating at `u64::MAX`.
    pub fn add(&self, delta: u64) {
        if delta == 0 {
            return;
        }
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(delta))
            });
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a named gauge (set-to-current-value semantics).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `value`.
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Named counters and gauges. Registration takes a lock once per name;
/// the returned handles update lock-free thereafter, so hot paths should
/// register up front and keep the handle.
#[derive(Default, Debug)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
}

impl Registry {
    /// Returns the counter registered under `name`, creating it at zero on
    /// first use. The same name always yields the same underlying cell.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Counter(Arc::clone(map.entry(name.to_string()).or_default()))
    }

    /// Returns the gauge registered under `name`, creating it at zero on
    /// first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().unwrap_or_else(|e| e.into_inner());
        Gauge(Arc::clone(map.entry(name.to_string()).or_default()))
    }

    fn snapshot_of(map: &Mutex<BTreeMap<String, Arc<AtomicU64>>>) -> Vec<(String, u64)> {
        let map = map.lock().unwrap_or_else(|e| e.into_inner());
        map.iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect()
    }
}

/// The live telemetry registry: per-shard stage histograms, named
/// counters/gauges, and the event ring. One instance per runtime; layers
/// share it through an `Arc`.
#[derive(Debug)]
pub struct Telemetry {
    config: TelemetryConfig,
    /// `stages[shard][stage.index()]`.
    stages: Vec<Vec<Histogram>>,
    registry: Registry,
    ring: EventRing,
}

impl Telemetry {
    /// Creates a registry for `shards` shards under `config`.
    pub fn new(config: TelemetryConfig, shards: usize) -> Self {
        let stages = (0..shards)
            .map(|_| (0..Stage::COUNT).map(|_| Histogram::new()).collect())
            .collect();
        Self {
            config,
            stages,
            registry: Registry::default(),
            ring: EventRing::new(config.events_capacity()),
        }
    }

    /// The configuration this registry was built with.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Number of shards the registry tracks.
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

    /// The named counter/gauge registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
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

    /// Copies every histogram, counter, and ring statistic into an
    /// immutable [`TelemetrySnapshot`]. Buffered events stay in the ring
    /// (use [`EventRing::drain`] to consume them).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            shards: self
                .stages
                .iter()
                .map(|stages| stages.iter().map(Histogram::snapshot).collect())
                .collect(),
            counters: Registry::snapshot_of(&self.registry.counters),
            gauges: Registry::snapshot_of(&self.registry.gauges),
            events_emitted: self.ring.emitted(),
            events_dropped: self.ring.dropped(),
            events_buffered: u64::try_from(self.ring.len()).unwrap_or(u64::MAX),
        }
    }
}

/// Point-in-time copy of a [`Telemetry`] registry, ready for rendering
/// (see [`expose`]) or cross-shard aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// `shards[shard][stage.index()]` — one histogram per stage per shard.
    pub shards: Vec<Vec<HistogramSnapshot>>,
    /// Named counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Named gauges, sorted by name.
    pub gauges: Vec<(String, u64)>,
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

    /// Value of a named counter, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
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
        assert!(!TelemetryConfig::default().is_enabled());
        let config = TelemetryConfig::enabled()
            .slow_request_threshold(Duration::from_micros(250))
            .ring_capacity(16);
        assert!(config.is_enabled());
        assert_eq!(config.slow_request_nanos(), 250_000);
        assert_eq!(config.events_capacity(), 16);
        assert_eq!(TelemetryConfig::enabled().slow_request_nanos(), 10_000_000);
    }

    /// Counters and gauges: same name, same cell; snapshots sorted.
    #[test]
    fn registry_handles_share_cells() {
        let registry = Registry::default();
        let a = registry.counter("requests");
        let b = registry.counter("requests");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        let gauge = registry.gauge("depth");
        gauge.set(7);
        gauge.set(5);
        assert_eq!(gauge.get(), 5);
        let tel = Telemetry::new(TelemetryConfig::enabled(), 1);
        tel.registry().counter("zzz").inc();
        tel.registry().counter("aaa").add(2);
        let snap = tel.snapshot();
        assert_eq!(
            snap.counters,
            vec![("aaa".to_string(), 2), ("zzz".to_string(), 1)]
        );
        assert_eq!(snap.counter("aaa"), Some(2));
        assert_eq!(snap.counter("missing"), None);
    }

    /// Per-shard stage recording aggregates correctly in `stage_total`.
    #[test]
    fn stage_total_merges_across_shards() {
        let tel = Telemetry::new(TelemetryConfig::enabled(), 3);
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
        let config = TelemetryConfig::enabled().slow_request_threshold(Duration::from_nanos(1_000));
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
