//! Replaying scenario catalogs through the engines — throughput, per-batch
//! latency percentiles, slow-path accounting and report emission.
//!
//! [`ScenarioRunner`] is the bridge between `fourcycle-workloads`'
//! [`Scenario`] generators and the service layer: it replays a scenario's
//! batched stream through a fresh [`CycleCountService`] session of any
//! [`EngineKind`] — each batch one atomic typed service call, the final
//! state one epoch-stamped snapshot command — times every batch, and
//! summarizes the run as a
//! [`ScenarioRun`]: final count (cross-checked between engines by the
//! tests), counted work, throughput, p50/p90/p99/max batch latency, and the
//! engine's [`SlowPathStats`], so a scenario that claims to stress era
//! rebuilds or phase rollovers can be *proven* to have triggered them.
//! Driving the replay through the service exercises the canonical
//! application API end-to-end (commands, atomic batches, snapshots) on
//! every scenario run.
//!
//! Reports render three ways: an aligned text table (via
//! [`crate::format_table`]), JSON ([`render_json`]) and CSV
//! ([`render_csv`]) — the formats the `scenarios` experiment binary writes
//! under `target/scenario-reports/`.

use crate::harness::format_table;
use fourcycle_core::{EngineConfig, EngineKind, SlowPathStats};
use fourcycle_graph::UpdateBatch;
use fourcycle_service::{CycleCountService, GraphId, Request, Response, WorkloadMode};
use fourcycle_workloads::{total_updates, Scenario};
use std::time::Instant;

/// Per-batch latency summary of one replay, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Mean batch latency.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Worst single batch.
    pub max: f64,
}

impl LatencySummary {
    /// Summarizes a set of per-batch latencies (need not be sorted).
    ///
    /// Percentiles use **nearest-rank** selection: `p(q)` is the sample at
    /// 1-based rank `⌈q·n⌉`, always an actual observed sample. The rank
    /// rule is [`fourcycle_telemetry::nearest_rank`] — the workspace's
    /// single percentile definition, shared with the telemetry stage
    /// histograms so a loadgen summary and a `metrics` exposition never
    /// disagree on what "p99" means. This is total for every sample count
    /// — the audit case is small windows: for `n = 0` everything is 0
    /// (and never indexes), for `n = 1` every percentile is the sample,
    /// for `n = 2` the median is the lower sample and p90/p99 the upper,
    /// and for every `n`: `p50 ≤ p90 ≤ p99 ≤ max` with `p99 ≤ max` exact
    /// (rank `⌈0.99·n⌉ ≤ n`). Pinned by `percentiles_use_nearest_rank_*`
    /// and cross-checked against the histogram implementation by
    /// `latency_summary_and_histogram_agree_on_bucket_exact_fixtures`.
    pub fn from_latencies(latencies: &[f64]) -> Self {
        if latencies.is_empty() {
            return Self::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let pct = |q: f64| {
            let rank = fourcycle_telemetry::nearest_rank(sorted.len() as u64, q);
            sorted[rank as usize - 1]
        };
        Self {
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Result of replaying one scenario through one engine.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Scenario name (stable, from [`Scenario::name`]).
    pub scenario: &'static str,
    /// Parameter summary (from [`Scenario::describe`]).
    pub params: String,
    /// The scenario's seed.
    pub seed: u64,
    /// Engine replayed through.
    pub engine: &'static str,
    /// Number of updates applied.
    pub updates: usize,
    /// Number of batches applied.
    pub batches: usize,
    /// Final number of edges.
    pub final_edges: usize,
    /// Final layered 4-cycle count (identical across engines for the same
    /// scenario — asserted by the differential tests).
    pub final_count: i64,
    /// Total counted elementary operations.
    pub total_work: u64,
    /// Wall-clock seconds for the whole replay.
    pub seconds: f64,
    /// Updates per wall-clock second.
    pub updates_per_sec: f64,
    /// Per-batch latency percentiles.
    pub latency: LatencySummary,
    /// Slow-path counters accumulated by the counter's four engines.
    pub slow_path: SlowPathStats,
}

/// Replays scenarios through engines and summarizes the runs.
#[derive(Debug, Clone, Default)]
pub struct ScenarioRunner {
    config: EngineConfig,
}

impl ScenarioRunner {
    /// A runner building engines with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A runner building engines from a shared configuration (capacity
    /// hints, `FmmConfig`).
    pub fn with_config(config: EngineConfig) -> Self {
        Self { config }
    }

    /// Replays one scenario through one engine kind. The stream is generated
    /// once (outside the timed region) and applied batch by batch through
    /// the counter's batch pipeline.
    pub fn run(&self, kind: EngineKind, scenario: &dyn Scenario) -> ScenarioRun {
        let batches = scenario.generate();
        self.run_batches(kind, scenario, &batches)
    }

    /// Replays a pre-generated batched stream (lets callers amortize
    /// generation across engines); `scenario` only provides the labels.
    ///
    /// The stream is driven through the service API: one session per run,
    /// one atomic `try_apply_layered_batch` per scenario batch (the typed
    /// slice entry point, so the timed region contains no copies of the
    /// stream), final state read as one epoch-consistent snapshot command.
    /// Scenario streams are well-formed by construction (asserted by the
    /// workloads tests); a stream that is not — e.g. a hand-edited replay —
    /// aborts the run naming the scenario and the offending batch, because
    /// silently skipping updates would misreport throughput.
    pub fn run_batches(
        &self,
        kind: EngineKind,
        scenario: &dyn Scenario,
        batches: &[UpdateBatch],
    ) -> ScenarioRun {
        let mut service = CycleCountService::builder()
            .engine(kind)
            .config(self.config)
            .mode(WorkloadMode::Layered)
            .build();
        let graph = GraphId(0);
        service
            .create_session(graph)
            .expect("fresh service has no session 0");
        let mut latencies = Vec::with_capacity(batches.len());
        let start = Instant::now();
        for (batch_no, batch) in batches.iter().enumerate() {
            let batch_start = Instant::now();
            if let Err(e) = service.try_apply_layered_batch(graph, batch.updates()) {
                panic!(
                    "scenario {:?} (seed {}) produced an ill-formed stream: batch {batch_no}: {e}",
                    scenario.name(),
                    scenario.seed(),
                );
            }
            latencies.push(batch_start.elapsed().as_secs_f64());
        }
        let seconds = start.elapsed().as_secs_f64();
        let updates = total_updates(batches);
        // Read the final state through the command path (one consistent
        // snapshot), exercising the Request/Response surface as well.
        let snapshot = match service.execute(&Request::GetSnapshot { id: graph }) {
            Ok(Response::Snapshot { snapshot, .. }) => snapshot,
            other => unreachable!("snapshot of a live session: {other:?}"),
        };
        debug_assert_eq!(snapshot.epoch as usize, updates);
        ScenarioRun {
            scenario: scenario.name(),
            params: scenario.describe(),
            seed: scenario.seed(),
            engine: kind.name(),
            updates,
            batches: batches.len(),
            final_edges: snapshot.total_edges,
            final_count: snapshot.count,
            total_work: snapshot.work,
            seconds,
            updates_per_sec: if seconds > 0.0 {
                updates as f64 / seconds
            } else {
                0.0
            },
            latency: LatencySummary::from_latencies(&latencies),
            slow_path: snapshot.slow_path,
        }
    }

    /// Replays every scenario through every engine kind (the full matrix),
    /// generating each scenario's stream once.
    pub fn run_matrix(
        &self,
        kinds: &[EngineKind],
        scenarios: &[Box<dyn Scenario>],
    ) -> Vec<ScenarioRun> {
        let mut runs = Vec::with_capacity(kinds.len() * scenarios.len());
        for scenario in scenarios {
            let batches = scenario.generate();
            for &kind in kinds {
                runs.push(self.run_batches(kind, scenario.as_ref(), &batches));
            }
        }
        runs
    }
}

/// Renders runs as an aligned text table (one row per scenario × engine).
pub fn render_table(runs: &[ScenarioRun]) -> String {
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.scenario.to_string(),
                r.engine.to_string(),
                r.updates.to_string(),
                r.final_edges.to_string(),
                r.final_count.to_string(),
                format!("{:.0}", r.updates_per_sec),
                format!("{:.1}", r.latency.p50 * 1e6),
                format!("{:.1}", r.latency.p99 * 1e6),
                format!("{:.1}", r.latency.max * 1e6),
                r.slow_path.era_rebuilds.to_string(),
                r.slow_path.phase_rollovers.to_string(),
                r.slow_path.class_transitions.to_string(),
            ]
        })
        .collect();
    format_table(
        &[
            "scenario",
            "engine",
            "updates",
            "edges",
            "count",
            "upd/s",
            "p50(µs)",
            "p99(µs)",
            "max(µs)",
            "eras",
            "rollovers",
            "transitions",
        ],
        &rows,
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders runs as a JSON array (hand-rolled: the workspace vendors no
/// serialization crate).
pub fn render_json(runs: &[ScenarioRun]) -> String {
    let entries: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "  {{\"scenario\": \"{}\", \"params\": \"{}\", \"seed\": {}, ",
                    "\"engine\": \"{}\", \"updates\": {}, \"batches\": {}, ",
                    "\"final_edges\": {}, \"final_count\": {}, \"total_work\": {}, ",
                    "\"seconds\": {:.6}, \"updates_per_sec\": {:.1}, ",
                    "\"latency_seconds\": {{\"mean\": {:.9}, \"p50\": {:.9}, ",
                    "\"p90\": {:.9}, \"p99\": {:.9}, \"max\": {:.9}}}, ",
                    "\"slow_path\": {{\"era_rebuilds\": {}, \"phase_rollovers\": {}, ",
                    "\"class_transitions\": {}}}}}"
                ),
                escape_json(r.scenario),
                escape_json(&r.params),
                r.seed,
                escape_json(r.engine),
                r.updates,
                r.batches,
                r.final_edges,
                r.final_count,
                r.total_work,
                r.seconds,
                r.updates_per_sec,
                r.latency.mean,
                r.latency.p50,
                r.latency.p90,
                r.latency.p99,
                r.latency.max,
                r.slow_path.era_rebuilds,
                r.slow_path.phase_rollovers,
                r.slow_path.class_transitions,
            )
        })
        .collect();
    format!("[\n{}\n]\n", entries.join(",\n"))
}

/// The CSV header matching [`render_csv`]'s rows.
pub const CSV_HEADER: &str = "scenario,engine,seed,updates,batches,final_edges,final_count,\
total_work,seconds,updates_per_sec,latency_mean_s,latency_p50_s,latency_p90_s,latency_p99_s,\
latency_max_s,era_rebuilds,phase_rollovers,class_transitions";

/// Renders runs as CSV (header + one row per run).
pub fn render_csv(runs: &[ScenarioRun]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in runs {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.6},{:.1},{:.9},{:.9},{:.9},{:.9},{:.9},{},{},{}\n",
            r.scenario,
            r.engine,
            r.seed,
            r.updates,
            r.batches,
            r.final_edges,
            r.final_count,
            r.total_work,
            r.seconds,
            r.updates_per_sec,
            r.latency.mean,
            r.latency.p50,
            r.latency.p90,
            r.latency.p99,
            r.latency.max,
            r.slow_path.era_rebuilds,
            r.slow_path.phase_rollovers,
            r.slow_path.class_transitions,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_workloads::{
        smoke_catalog, HubCollapseScenario, MeshOfStarsScenario, ThresholdFlapScenario,
    };

    /// Acceptance: every built-in scenario runs green through every
    /// `EngineKind`, and all engines agree on the final state.
    #[test]
    fn every_engine_agrees_on_every_smoke_scenario() {
        let runner = ScenarioRunner::new();
        for scenario in smoke_catalog(11) {
            let runs = runner.run_matrix(&EngineKind::ALL, std::slice::from_ref(&scenario));
            assert_eq!(runs.len(), EngineKind::ALL.len());
            let reference = &runs[0];
            assert!(reference.updates > 0, "{}", scenario.name());
            for run in &runs {
                assert_eq!(
                    run.final_count,
                    reference.final_count,
                    "{}: {} disagrees with {}",
                    scenario.name(),
                    run.engine,
                    reference.engine
                );
                assert_eq!(run.final_edges, reference.final_edges);
                assert_eq!(run.updates, reference.updates);
                assert_eq!(run.batches, reference.batches);
                assert!(run.seconds >= 0.0 && run.updates_per_sec > 0.0);
                assert!(run.latency.max >= run.latency.p50);
            }
        }
    }

    /// Acceptance: the threshold-flapping scenario provably fires the
    /// amortized slow paths, asserted through the new counters.
    #[test]
    fn threshold_flap_triggers_the_slow_paths() {
        let runner = ScenarioRunner::new();
        let scenario = ThresholdFlapScenario::default();
        for kind in [EngineKind::Threshold, EngineKind::Fmm, EngineKind::FmmDense] {
            let run = runner.run(kind, &scenario);
            assert!(
                run.slow_path.era_rebuilds >= 1,
                "{}: flap waves must force at least one era rebuild, got {:?}",
                run.engine,
                run.slow_path
            );
            assert!(
                run.slow_path.class_transitions >= 1,
                "{}: hub flapping must force class transitions",
                run.engine
            );
        }
        // The phase clock is exclusive to the main engine.
        let fmm = runner.run(EngineKind::Fmm, &scenario);
        assert!(fmm.slow_path.phase_rollovers >= 1);
        let threshold = runner.run(EngineKind::Threshold, &scenario);
        assert_eq!(threshold.slow_path.phase_rollovers, 0);
        // Engines without slow-path machinery report all-zero counters.
        let simple = runner.run(EngineKind::Simple, &scenario);
        assert_eq!(simple.slow_path, SlowPathStats::default());
    }

    /// Acceptance: the hub-collapse scenario drags a deep-heavy hub to zero
    /// degree through the downward era boundary — both the rebuild and the
    /// class-transition slow paths must fire on every class-aware engine.
    #[test]
    fn hub_collapse_triggers_the_downward_slow_paths() {
        let runner = ScenarioRunner::new();
        let scenario = HubCollapseScenario::default();
        for kind in [EngineKind::Threshold, EngineKind::Fmm, EngineKind::FmmDense] {
            let run = runner.run(kind, &scenario);
            assert!(
                run.slow_path.era_rebuilds >= 1,
                "{}: the drain must cross the factor-2 era boundary, got {:?}",
                run.engine,
                run.slow_path
            );
            assert!(
                run.slow_path.class_transitions >= 1,
                "{}: draining the hub must cross the heavy/light boundary",
                run.engine
            );
        }
        let simple = runner.run(EngineKind::Simple, &scenario);
        assert_eq!(simple.slow_path, SlowPathStats::default());
    }

    /// Acceptance: mesh-of-stars is the *control* regime — once grown, its
    /// bounded hubs and edge-count-neutral churn must fire **no** era
    /// rebuilds and **no** class transitions. Asserted as a phase delta
    /// (full run minus growth prefix, both deterministic replays), because
    /// the growth phase legitimately rebuilds on the way up and the engines
    /// cold-start with `m̂ = 1` (transient transitions on the first batch).
    #[test]
    fn mesh_of_stars_churn_phase_stays_off_the_slow_paths() {
        let runner = ScenarioRunner::new();
        let scenario = MeshOfStarsScenario::default();
        let batches = scenario.generate();
        let growth = scenario.growth_batches();
        assert!(growth < batches.len(), "churn phase must be non-empty");
        for kind in [EngineKind::Threshold, EngineKind::Fmm, EngineKind::FmmDense] {
            let grown = runner.run_batches(kind, &scenario, &batches[..growth]);
            let full = runner.run_batches(kind, &scenario, &batches);
            assert!(
                grown.slow_path.era_rebuilds >= 1,
                "{}: growth must rebuild on the way up, got {:?}",
                grown.engine,
                grown.slow_path
            );
            assert_eq!(
                full.slow_path.era_rebuilds, grown.slow_path.era_rebuilds,
                "{}: constant-m churn must not rebuild eras",
                full.engine
            );
            assert_eq!(
                full.slow_path.class_transitions, grown.slow_path.class_transitions,
                "{}: bounded hubs must not cross the class boundary in churn",
                full.engine
            );
        }
        let simple = runner.run_batches(EngineKind::Simple, &scenario, &batches);
        assert_eq!(simple.slow_path, SlowPathStats::default());
    }

    #[test]
    fn reports_render_in_all_three_formats() {
        let runner = ScenarioRunner::new();
        let scenario = ThresholdFlapScenario {
            hubs: 1,
            spokes: 16,
            waves: 1,
            ..Default::default()
        };
        let runs = vec![
            runner.run(EngineKind::Simple, &scenario),
            runner.run(EngineKind::Threshold, &scenario),
        ];
        let table = render_table(&runs);
        assert!(table.contains("threshold-flap") && table.contains("rollovers"));
        let json = render_json(&runs);
        assert_eq!(json.matches("\"scenario\"").count(), 2);
        assert!(json.contains("\"era_rebuilds\""));
        let csv = render_csv(&runs);
        assert_eq!(csv.lines().count(), 3, "header + one row per run");
        assert!(csv.starts_with("scenario,engine,"));
    }

    #[test]
    fn latency_summary_orders_percentiles() {
        let lat = LatencySummary::from_latencies(&[0.5, 0.1, 0.2, 0.3, 0.4, 10.0]);
        assert!(lat.p50 <= lat.p90 && lat.p90 <= lat.p99 && lat.p99 <= lat.max);
        assert_eq!(lat.max, 10.0);
        assert_eq!(LatencySummary::from_latencies(&[]).max, 0.0);
    }

    /// Correctness audit: percentile selection on degenerate sample windows
    /// (0, 1, 2 samples) must neither panic nor exceed `max`, and every
    /// reported percentile must be an actually observed sample.
    #[test]
    fn percentiles_use_nearest_rank_on_tiny_windows() {
        // 0 samples: all-zero summary, no indexing.
        let empty = LatencySummary::from_latencies(&[]);
        assert_eq!(
            (empty.mean, empty.p50, empty.p90, empty.p99, empty.max),
            (0.0, 0.0, 0.0, 0.0, 0.0)
        );
        // 1 sample: every percentile is that sample.
        let one = LatencySummary::from_latencies(&[0.7]);
        assert_eq!((one.p50, one.p90, one.p99, one.max), (0.7, 0.7, 0.7, 0.7));
        // 2 samples: nearest-rank median is the LOWER sample (rank ⌈1⌉),
        // the tail percentiles the upper; nothing exceeds max.
        let two = LatencySummary::from_latencies(&[3.0, 1.0]);
        assert_eq!((two.p50, two.p90, two.p99, two.max), (1.0, 3.0, 3.0, 3.0));
        assert_eq!(two.mean, 2.0);
    }

    /// Every percentile is an observed sample, ordered, and `p99 ≤ max`
    /// for a sweep of window sizes (the old interpolation could only
    /// violate "is a sample" on even windows; pin the whole property).
    #[test]
    fn percentiles_are_observed_samples_at_every_window_size() {
        for n in 1..=40usize {
            let samples: Vec<f64> = (0..n).rev().map(|i| i as f64 * 0.25).collect();
            let lat = LatencySummary::from_latencies(&samples);
            for (label, value) in [("p50", lat.p50), ("p90", lat.p90), ("p99", lat.p99)] {
                assert!(
                    samples.contains(&value),
                    "n={n}: {label}={value} is not an observed sample"
                );
            }
            assert!(lat.p50 <= lat.p90 && lat.p90 <= lat.p99, "n={n}");
            assert!(
                lat.p99 <= lat.max,
                "n={n}: p99 {} > max {}",
                lat.p99,
                lat.max
            );
            assert_eq!(lat.max, (n - 1) as f64 * 0.25, "n={n}");
        }
    }

    /// The workspace has exactly one percentile rule: on bucket-exact
    /// fixtures (every value a histogram bucket floor, so bucketing loses
    /// nothing), [`LatencySummary`] and the telemetry [`Histogram`] report
    /// identical p50/p90/p99 — for several window sizes, including
    /// duplicates and a lone straggler in the top bucket.
    #[test]
    fn latency_summary_and_histogram_agree_on_bucket_exact_fixtures() {
        use fourcycle_telemetry::Histogram;
        let fixtures: &[&[u64]] = &[
            &[7],
            &[1, 2],
            &[0, 3, 9, 15],                    // sub-16: buckets are exact
            &[16, 24, 16, 48, 96, 24, 128],    // octave floors, with repeats
            &[20, 20, 20, 20, 20, 20, 20, 22], // heavy mode + one straggler
            &[1, 16, 256, 4096, 65536],        // widely spread floors
        ];
        for samples in fixtures {
            let hist = Histogram::new();
            for &v in *samples {
                hist.record(v);
            }
            let snap = hist.snapshot();
            let seconds: Vec<f64> = samples.iter().map(|&v| v as f64 * 1e-9).collect();
            let summary = LatencySummary::from_latencies(&seconds);
            for (label, s, h) in [
                ("p50", summary.p50, snap.p50()),
                ("p90", summary.p90, snap.p90()),
                ("p99", summary.p99, snap.p99()),
            ] {
                assert_eq!(
                    (s * 1e9).round() as u64,
                    h,
                    "{label} diverged on {samples:?}"
                );
            }
        }
    }
}
