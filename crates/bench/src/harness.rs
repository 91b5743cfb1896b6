//! Measurement helpers shared by the experiment tables and the scenario
//! reports.

use fourcycle_core::{EngineKind, LayeredCycleCounter};
use fourcycle_graph::LayeredUpdate;
use std::time::Instant;

/// Result of replaying one workload through one engine.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Engine used.
    pub engine: &'static str,
    /// Number of updates applied.
    pub updates: usize,
    /// Final number of edges.
    pub final_edges: usize,
    /// Final layered 4-cycle count (sanity value, compared across engines).
    pub final_count: i64,
    /// Total counted elementary operations.
    pub total_work: u64,
    /// Wall-clock seconds for the whole replay.
    pub seconds: f64,
    /// Mean counted operations per update.
    pub work_per_update: f64,
    /// Maximum counted operations over any single update (worst case).
    pub max_work_per_update: u64,
}

/// Replays a layered update stream through a fresh counter of the given
/// engine kind, recording work and time.
pub fn run_layered_workload(kind: EngineKind, stream: &[LayeredUpdate]) -> WorkloadRun {
    let mut counter = LayeredCycleCounter::new(kind);
    let mut max_work_per_update = 0u64;
    let mut last_work = 0u64;
    let start = Instant::now();
    for update in stream {
        counter.apply(*update);
        let w = counter.work();
        max_work_per_update = max_work_per_update.max(w - last_work);
        last_work = w;
    }
    let seconds = start.elapsed().as_secs_f64();
    WorkloadRun {
        engine: kind.name(),
        updates: stream.len(),
        final_edges: counter.total_edges(),
        final_count: counter.count(),
        total_work: counter.work(),
        seconds,
        work_per_update: counter.work() as f64 / stream.len().max(1) as f64,
        max_work_per_update,
    }
}

/// One point of a scaling experiment: stream size vs per-update cost.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Final edge count `m` of the run.
    pub m: f64,
    /// Mean cost per update (counted operations or seconds).
    pub cost: f64,
}

/// Least-squares slope of `log(cost)` against `log(m)` — the empirical
/// exponent reported by experiment T4.
pub fn fit_log_slope(points: &[ScalingPoint]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.m > 0.0 && p.cost > 0.0)
        .map(|p| (p.m.ln(), p.cost.ln()))
        .collect();
    let n = pts.len() as f64;
    if pts.len() < 2 {
        return f64::NAN;
    }
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Renders a simple aligned text table.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&render(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&render(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_workloads::LayeredStreamConfig;

    #[test]
    fn workload_run_reports_consistent_counts_across_engines() {
        let stream = LayeredStreamConfig {
            layer_size: 16,
            updates: 400,
            ..Default::default()
        }
        .generate();
        let simple = run_layered_workload(EngineKind::Simple, &stream);
        let fmm = run_layered_workload(EngineKind::Fmm, &stream);
        assert_eq!(simple.final_count, fmm.final_count);
        assert_eq!(simple.final_edges, fmm.final_edges);
        assert!(fmm.total_work > 0);
        assert!(fmm.max_work_per_update >= fmm.work_per_update as u64);
    }

    #[test]
    fn slope_fit_recovers_known_exponent() {
        let pts: Vec<ScalingPoint> = (1..=6)
            .map(|i| {
                let m = (10.0_f64).powi(i);
                ScalingPoint {
                    m,
                    cost: 3.0 * m.powf(0.66),
                }
            })
            .collect();
        let slope = fit_log_slope(&pts);
        assert!((slope - 0.66).abs() < 1e-9, "slope = {slope}");
        assert!(fit_log_slope(&pts[..1]).is_nan());
    }

    #[test]
    fn table_formatting_aligns_columns() {
        let table = format_table(
            &["a", "bbbb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["longer".into(), "z".into()],
            ],
        );
        assert!(table.contains("longer"));
        assert!(table.lines().count() >= 4);
    }
}
