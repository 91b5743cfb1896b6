//! Closed-loop load generator against the sharded runtime — sweeps shard
//! counts and reports aggregate throughput, latency percentiles and the
//! runtime's per-stage latency breakdown.
//!
//! ```text
//! cargo run -p fourcycle-bench --release --bin loadgen                 # full catalog sweep
//! cargo run -p fourcycle-bench --release --bin loadgen -- --smoke     # tiny, CI-sized
//! cargo run -p fourcycle-bench --release --bin loadgen -- \
//!     --shards 1,2,4 --clients 8 --sessions 2 --engine threshold --seed 7
//! cargo run -p fourcycle-bench --release --bin loadgen -- \
//!     --shards 1 --journal group                                      # group commit
//! cargo run -p fourcycle-bench --release --bin loadgen -- \
//!     --transport tcp --smoke --shards 1,2                            # real sockets via fourcycle-server
//! ```
//!
//! Each sweep point starts a fresh [`ShardedRuntime`] with that many shard
//! workers, spawns `--clients` closed-loop client threads × `--sessions`
//! graph sessions each, and replays the scenario catalog through the
//! runtime's blocking call path (see `fourcycle_bench::load_runner`).
//! `--journal <none|every1|every64|group|shutdown>` runs against a
//! journaled store (throwaway temp directory) with that fsync policy, and
//! `--transport <inproc|tcp>` chooses between direct runtime calls and
//! real TCP connections through an in-process `fourcycle-server` on a
//! loopback port (the tcp path asserts the server's `metrics json`
//! document parses and its front-door command total matches what the
//! clients submitted — the CI `server-smoke` step rides on exactly that
//! assertion).
//!
//! After each sweep point it prints the runtime's per-stage latency
//! breakdown (queue wait → dispatch → apply → journal append → fsync wait
//! → reply) and asserts that every stage histogram holds exactly one
//! sample per delivered command. It then prints an aligned table to
//! stdout and writes a JSON report under the output directory (default
//! `target/scenario-reports/`, created if absent), with each shard's
//! counters and utilization. Full runs write
//! `loadgen.json`; `--smoke` runs write `loadgen-smoke.json`, so a CI
//! smoke pass never silently overwrites a full sweep sitting in the same
//! directory (the file-name scheme is documented in `docs/SCENARIOS.md`).
//!
//! The steady end-to-end and per-layer benchmark is `perfbench/` (see
//! `BENCHMARK.json`); this binary is the multi-shard smoke and sweep tool.
//!
//! [`ShardedRuntime`]: fourcycle_runtime::ShardedRuntime

use fourcycle_bench::{
    available_cores, render_load_json, render_load_table, render_stage_table, LoadConfig,
    LoadRunner, Transport,
};
use fourcycle_core::EngineKind;
use fourcycle_store::FsyncPolicy;
use fourcycle_telemetry::Stage;
use fourcycle_workloads::{catalog, smoke_catalog};

fn parse_journal(token: &str) -> Option<FsyncPolicy> {
    match token {
        "none" => None,
        "every1" => Some(FsyncPolicy::EveryN(1)),
        "every64" => Some(FsyncPolicy::EveryN(64)),
        "group" => Some(FsyncPolicy::group_commit()),
        "shutdown" => Some(FsyncPolicy::OnShutdown),
        other => panic!("unknown --journal {other:?} (none|every1|every64|group|shutdown)"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    let smoke = flag("--smoke");
    let seed: u64 = value("--seed")
        .map(|s| s.parse().expect("--seed takes a u64"))
        .unwrap_or(42);
    let shard_counts: Vec<usize> = value("--shards")
        .unwrap_or_else(|| if smoke { "1,2".into() } else { "1,2,4".into() })
        .split(',')
        .map(|s| s.trim().parse().expect("--shards takes n[,n...]"))
        .collect();
    let journal = parse_journal(&value("--journal").unwrap_or_else(|| "none".into()));
    let clients: usize = value("--clients")
        .map(|s| s.parse().expect("--clients takes a usize"))
        .unwrap_or(if smoke { 4 } else { 8 });
    let sessions_per_client: usize = value("--sessions")
        .map(|s| s.parse().expect("--sessions takes a usize"))
        .unwrap_or(2);
    let mailbox_depth: usize = value("--mailbox")
        .map(|s| s.parse().expect("--mailbox takes a usize"))
        .unwrap_or(64);
    let engine = value("--engine")
        .map(|token| {
            EngineKind::ALL
                .into_iter()
                .find(|k| k.name() == token || format!("{k:?}").to_lowercase() == token)
                .unwrap_or_else(|| panic!("unknown engine {token:?}"))
        })
        .unwrap_or(EngineKind::Threshold);
    let transport = match value("--transport").as_deref() {
        None | Some("inproc") => Transport::InProcess,
        Some("tcp") => Transport::Tcp,
        Some(other) => panic!("unknown --transport {other:?} (inproc|tcp)"),
    };
    let out_dir = value("--out-dir").unwrap_or_else(|| "target/scenario-reports".into());

    let scenarios = if smoke {
        smoke_catalog(seed)
    } else {
        catalog(seed)
    };
    let cores = available_cores();
    eprintln!(
        "loadgen: {} scenarios, {clients} clients × {sessions_per_client} sessions, \
         engine {}, shard sweep {shard_counts:?} \
         (seed {seed}, {cores} cores{})",
        scenarios.len(),
        engine.name(),
        if smoke { ", smoke" } else { "" }
    );
    // Shard workers beyond the hardware can't add throughput — they just
    // time-slice. Warn (don't refuse: oversubscription is a legitimate
    // thing to *measure*).
    let peak_shards = shard_counts.iter().copied().max().unwrap_or(1);
    if cores > 0 && peak_shards > cores {
        eprintln!(
            "loadgen: WARNING: up to {peak_shards} shard workers on {cores} hardware \
             threads — the runtime is oversubscribed and scaling numbers will flatten"
        );
    }

    let reports: Vec<_> = shard_counts
        .iter()
        .map(|&shards| {
            let config = LoadConfig {
                shards,
                clients,
                sessions_per_client,
                mailbox_depth,
                engine,
                journal,
                transport,
            };
            let report = LoadRunner::new(config).run(&scenarios);
            eprintln!(
                "  {shards} shard(s): {:.0} upd/s, p99 {:.1} µs, {} stalls",
                report.updates_per_sec,
                report.latency.p99 * 1e6,
                report.telemetry.totals.queue_full_stalls,
            );
            // The stage-accounting differential: every delivered command
            // contributed exactly one sample to every stage histogram.
            for stage in Stage::ALL {
                assert_eq!(
                    report.telemetry.stage_total(stage).count(),
                    report.telemetry.totals.commands,
                    "stage {} sample count must equal delivered commands",
                    stage.name()
                );
            }
            println!("{shards} shard(s) stage breakdown:");
            println!("{}", render_stage_table(&report.telemetry));
            report
        })
        .collect();

    println!("{}", render_load_table(&reports));
    if let Some(base) = reports.first() {
        for r in &reports[1..] {
            println!(
                "{} shards vs {}: {:.2}x throughput",
                r.config.shards,
                base.config.shards,
                r.updates_per_sec / base.updates_per_sec.max(f64::EPSILON)
            );
        }
    }

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {out_dir}: {e} — skipping report file");
        return;
    }
    // Smoke runs get their own file name: CI writes these on every push,
    // and overwriting a full sweep's report with a smoke-sized one would
    // silently invalidate recorded results.
    let stem = if smoke { "loadgen-smoke" } else { "loadgen" };
    let json_path = format!("{out_dir}/{stem}.json");
    std::fs::write(&json_path, render_load_json(&reports)).expect("write JSON report");
    eprintln!("report: {json_path}");
}
