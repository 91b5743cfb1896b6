//! F10 — durability overhead of the write-ahead journal.
//!
//! Replays a fixed multi-graph command stream through `CycleCountService::
//! execute` five ways: journaling disabled (the baseline every other bench
//! measures — the `Option` check must stay free), journaled with fsync
//! every command, journaled with group commit (the runtime dispatcher's
//! protocol: append per command, one `commit_group` barrier per batch of
//! 16), journaled with fsync every 64 commands, and journaled with fsync
//! only on shutdown. The spread between the variants *is* the documented
//! price list of the fsync-policy knob; the gap between "disabled" and the
//! other benches' service numbers must stay zero.
//!
//! Before the timed runs, each journaled variant is executed once to print
//! its durability economics — fsyncs, commands per fsync, and WAL bytes
//! per fsync — so the bench output doubles as the evidence for the PR 6
//! acceptance: group commit holds fsync-every-1's reply durability while
//! its fsync count tracks *groups*, landing within 2× of `EveryN(64)`
//! throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use fourcycle_bench::ScenarioRunner;
use fourcycle_core::EngineKind;
use fourcycle_service::{CycleCountService, GraphId, Request, WorkloadMode};
use fourcycle_store::{FsyncPolicy, JournalConfig, JournalStore};
use fourcycle_workloads::smoke_catalog;
use std::time::Duration;

/// Commands per `commit_group` barrier in the group-commit arm — the
/// group size a lightly loaded shard dispatcher settles around.
const GROUP_SIZE: usize = 16;

/// The fixed stream: two graphs, one smoke scenario each, batch commands.
fn stream() -> Vec<Request> {
    let scenarios = smoke_catalog(61);
    let mut requests = Vec::new();
    for (i, scenario) in scenarios.iter().take(2).enumerate() {
        let id = GraphId(i as u64 + 1);
        requests.push(Request::CreateGraph { id, spec: None });
        for batch in scenario.generate() {
            requests.push(Request::ApplyLayeredBatch {
                id,
                updates: batch.updates().to_vec(),
            });
        }
    }
    requests
}

fn run_plain(requests: &[Request]) -> i64 {
    let mut service = CycleCountService::builder()
        .engine(EngineKind::Threshold)
        .mode(WorkloadMode::Layered)
        .build();
    for request in requests {
        service.execute(request).unwrap();
    }
    service.count(GraphId(1)).unwrap()
}

/// Replays the stream against a fresh journaled shard. `group_size`
/// `Some(n)`: drive the group-commit protocol — `commit_group` after every
/// `n` commands, exactly like the shard dispatcher does per drained group.
fn run_journaled(
    requests: &[Request],
    dir: &std::path::Path,
    fsync: FsyncPolicy,
    group_size: Option<usize>,
) -> i64 {
    let _ = std::fs::remove_dir_all(dir);
    let store = JournalStore::open(
        JournalConfig::new(dir).fsync(fsync),
        1,
        fourcycle_service::SessionSpec {
            kind: EngineKind::Threshold,
            ..Default::default()
        },
    )
    .unwrap();
    let mut service = store.open_shard(0).unwrap();
    for (i, request) in requests.iter().enumerate() {
        service.execute(request).unwrap();
        if let Some(n) = group_size {
            if (i + 1) % n == 0 {
                service.journal_commit_group().unwrap();
            }
        }
    }
    if group_size.is_some() {
        service.journal_commit_group().unwrap();
    }
    service.sync_journal().unwrap();
    service.count(GraphId(1)).unwrap()
}

/// Total bytes currently in `dir` (the shard's WAL + checkpoint files).
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One untimed pass per journaled variant: prints fsyncs, commands per
/// fsync, and WAL bytes per fsync (the durability economics `loadgen`
/// reports as `journal_fsyncs`).
fn report_fsync_economics(requests: &[Request], arms: &[(&str, FsyncPolicy, Option<usize>)]) {
    eprintln!(
        "journal_overhead: {} commands per pass; durability economics:",
        requests.len()
    );
    for (label, fsync, group_size) in arms {
        let dir = std::env::temp_dir().join(format!("fourcycle-journal-econ-{label}"));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = JournalStore::open(
                JournalConfig::new(&dir).fsync(*fsync),
                1,
                fourcycle_service::SessionSpec {
                    kind: EngineKind::Threshold,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut service = store.open_shard(0).unwrap();
            for (i, request) in requests.iter().enumerate() {
                service.execute(request).unwrap();
                if let Some(n) = group_size {
                    if (i + 1) % n == 0 {
                        service.journal_commit_group().unwrap();
                    }
                }
            }
            if group_size.is_some() {
                service.journal_commit_group().unwrap();
            }
            let fsyncs = service.journal_fsyncs().max(1);
            let bytes = dir_bytes(&dir);
            eprintln!(
                "  {label:>18}: {fsyncs:>4} fsyncs, {:>5.1} commands/fsync, {:>7} bytes/fsync",
                requests.len() as f64 / fsyncs as f64,
                bytes / fsyncs,
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn bench_journal_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("journal_overhead");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));

    let requests = stream();
    // Anchor the baseline against an independent code path so a journaling
    // hook accidentally costing time shows up as a delta between benches.
    let _ = ScenarioRunner::new();

    let arms: [(&str, FsyncPolicy, Option<usize>); 4] = [
        ("fsync-every-1", FsyncPolicy::EveryN(1), None),
        (
            "group-commit-16",
            FsyncPolicy::group_commit(),
            Some(GROUP_SIZE),
        ),
        ("fsync-every-64", FsyncPolicy::EveryN(64), None),
        ("fsync-on-shutdown", FsyncPolicy::OnShutdown, None),
    ];
    report_fsync_economics(&requests, &arms);

    group.bench_function("disabled", |b| b.iter(|| run_plain(&requests)));
    for (label, fsync, group_size) in arms {
        let dir = std::env::temp_dir().join(format!("fourcycle-journal-bench-{label}"));
        group.bench_function(label, |b| {
            b.iter(|| run_journaled(&requests, &dir, fsync, group_size))
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench_journal_overhead);
criterion_main!(benches);
