//! Shared harness code for the experiment tables (`experiments` binary), the
//! scenario, load, recovery and chaos binaries, and their tests.
//!
//! The tables T1–T5 are described in the `experiments` binary's docs. The
//! steady end-to-end and per-layer benchmark is `perfbench/`, a package of
//! its own outside this workspace.

pub mod chaos;
pub mod harness;
pub mod load_runner;
pub mod scenario_runner;

pub use chaos::{render_chaos_table, run_chaos, CaseReport, ChaosOptions};
pub use harness::{fit_log_slope, format_table, run_layered_workload, ScalingPoint, WorkloadRun};
pub use load_runner::{
    available_cores, render_load_json, render_load_table, render_stage_table,
    replay_single_threaded, LoadConfig, LoadReport, LoadRunner, SessionOutcome, Transport,
};
pub use scenario_runner::{
    render_csv, render_json, render_table, LatencySummary, ScenarioRun, ScenarioRunner, CSV_HEADER,
};
