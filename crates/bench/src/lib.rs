//! Shared harness code for the experiment tables (`experiments` binary) and
//! the Criterion benchmarks in `benches/`.
//!
//! The tables T1–T5 are described in the `experiments` binary's docs, and
//! each benchmark F1–F10 in its own file under `benches/`.

pub mod chaos;
pub mod harness;
pub mod load_runner;
pub mod scenario_runner;

pub use chaos::{render_chaos_table, run_chaos, CaseReport, ChaosOptions};
pub use harness::{
    fit_log_slope, format_table, run_layered_workload, run_layered_workload_batched, scaling_row,
    ScalingPoint, WorkloadRun,
};
pub use load_runner::{
    available_cores, render_load_json, render_load_table, render_stage_table,
    replay_single_threaded, LoadConfig, LoadReport, LoadRunner, SessionOutcome, Transport,
};
pub use scenario_runner::{
    render_csv, render_json, render_table, LatencySummary, ScenarioRun, ScenarioRunner, CSV_HEADER,
};
