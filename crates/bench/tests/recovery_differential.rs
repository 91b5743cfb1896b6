//! Acceptance test of the durable journal (ISSUE 5): crash recovery must
//! be *indistinguishable* from never having crashed.
//!
//! For every shard count in 1–4 × every `EngineKind`, a journaled
//! [`ShardedRuntime`] executes a prefix of K commands of a multi-graph
//! scenario stream and is then killed (dropped, plus a torn partial line
//! appended to a WAL to simulate a crash mid-append). Recovery — both the
//! store-level [`JournalStore::recover`] union and a restarted runtime on
//! the same directory — must yield `Snapshot { count, total_edges, epoch }`
//! identical to an uninterrupted single-threaded replay of the same K
//! commands, for every session. The restarted runtime then serves the
//! *rest* of the stream and must land exactly where an uninterrupted full
//! replay lands, proving the recovered state is live, not merely
//! snapshot-equal.
//!
//! K varies per combination (deterministic pseudo-random), pinned to the
//! edge cases K = 0 (recover an empty journal) and K = total (recover a
//! complete run) on two of the combinations. The combinations also
//! alternate (deterministically) between `FsyncPolicy::EveryN(1)` and
//! group commit, so recovery is proven over both journaling protocols the
//! dispatcher runs: reply per command, and reply after the group's fsync.
//!
//! A second test pins the group-commit crash window at the store level:
//! a shard journal is killed *between* group fsyncs (the un-fsynced WAL
//! suffix torn off, exactly what an OS crash loses), and recovery must
//! land on precisely the commands whose groups were committed — the
//! commands whose replies the runtime's dispatcher would have released.

use fourcycle_core::EngineKind;
use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle_service::{CycleCountService, GraphId, Request, Response, SessionSpec, WorkloadMode};
use fourcycle_store::{wal_file, FsyncPolicy, JournalConfig, JournalStore};
use fourcycle_workloads::smoke_catalog;
use std::io::Write as _;
use std::path::PathBuf;

/// Builds the command stream: 6 graphs over 3 smoke scenarios (2 graphs
/// each), sessions created up front, batches interleaved round-robin —
/// the same shape the closed-loop load generator drives.
fn build_stream() -> Vec<Request> {
    let scenarios = smoke_catalog(23);
    let scenarios = &scenarios[..3];
    let graphs: Vec<(GraphId, usize)> = (0..6)
        .map(|i| (GraphId(i as u64 + 1), i % scenarios.len()))
        .collect();
    let mut requests: Vec<Request> = graphs
        .iter()
        .map(|&(id, _)| Request::CreateGraph { id, spec: None })
        .collect();
    let streams: Vec<_> = scenarios.iter().map(|s| s.generate()).collect();
    let rounds = streams.iter().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        for &(id, scenario) in &graphs {
            if let Some(batch) = streams[scenario].get(round) {
                requests.push(Request::ApplyLayeredBatch {
                    id,
                    updates: batch.updates().to_vec(),
                });
            }
        }
    }
    requests
}

/// Uninterrupted single-threaded ground truth over a request prefix.
fn replay_reference(kind: EngineKind, requests: &[Request]) -> CycleCountService {
    let mut service = CycleCountService::builder()
        .engine(kind)
        .mode(WorkloadMode::Layered)
        .build();
    for request in requests {
        service.execute(request).expect("reference replay is clean");
    }
    service
}

fn state_triples(service: &CycleCountService) -> Vec<(GraphId, i64, usize, u64)> {
    service
        .ids()
        .into_iter()
        .map(|id| {
            let s = service.snapshot(id).unwrap();
            (id, s.count, s.total_edges, s.epoch)
        })
        .collect()
}

fn runtime_state_triples(runtime: &ShardedRuntime) -> Vec<(GraphId, i64, usize, u64)> {
    let ids = match runtime.call(Request::ListGraphs).unwrap() {
        Response::Graphs { ids } => ids,
        other => panic!("expected listing, got {other:?}"),
    };
    ids.into_iter()
        .map(
            |id| match runtime.call(Request::GetSnapshot { id }).unwrap() {
                Response::Snapshot { snapshot: s, .. } => (id, s.count, s.total_edges, s.epoch),
                other => panic!("expected snapshot, got {other:?}"),
            },
        )
        .collect()
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn test_dir(shards: usize, kind: EngineKind) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("fourcycle-recovery-diff-{shards}-{}", kind.name()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_after_k_commands_recovers_to_uninterrupted_replay() {
    let requests = build_stream();
    let total = requests.len();
    assert!(total > 10, "stream too small to be interesting");

    for shards in 1usize..=4 {
        for kind in EngineKind::ALL {
            // Deterministic per-combination K, with the two edge cases
            // (empty journal, complete journal) pinned explicitly.
            let k = match (shards, kind) {
                (1, EngineKind::Naive) => 0,
                (2, EngineKind::Simple) => total,
                _ => (splitmix64((shards as u64) << 32 | kind as u64) as usize) % (total + 1),
            };
            // Alternate the journaling protocol across the matrix
            // (deterministically), so both fsync policies get recovery
            // coverage.
            let salt = splitmix64((shards as u64) << 8 | kind as u64);
            let fsync = if salt & 1 == 0 {
                FsyncPolicy::EveryN(1)
            } else {
                FsyncPolicy::group_commit()
            };
            let label = format!(
                "{} shards, {}, {fsync:?}, K={k}/{total}",
                shards,
                kind.name()
            );
            let dir = test_dir(shards, kind);
            let config = || {
                RuntimeConfig::new()
                    .shards(shards)
                    .engine(kind)
                    .mailbox_depth(8)
                    .journal(JournalConfig::new(&dir).checkpoint_every(7).fsync(fsync))
            };

            // Phase 1: journal K commands, then "crash".
            let runtime = ShardedRuntime::try_start(config()).unwrap();
            for request in &requests[..k] {
                runtime.call(request.clone()).unwrap();
            }
            drop(runtime);
            // Torn final append: a prefix of a command with no newline must
            // be invisible to recovery.
            let wal0 = dir.join(wal_file(0));
            if wal0.exists() {
                let mut file = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&wal0)
                    .unwrap();
                file.write_all(b"layered g1 A+31:4").unwrap();
            }

            // Phase 2: ground truth — uninterrupted replay of the prefix.
            let reference = replay_reference(kind, &requests[..k]);
            let expected = state_triples(&reference);

            // Phase 3: store-level recovery (checkpoint + tail replay,
            // union over shards) matches per session.
            let store = JournalStore::resume(JournalConfig::new(&dir)).unwrap();
            assert_eq!(store.shards(), shards, "{label}");
            let recovered = store.recover().unwrap();
            assert_eq!(state_triples(&recovered), expected, "{label}: recover()");

            // Phase 4: a restarted runtime recovers the same state, then
            // serves the rest of the stream to the same final state as an
            // uninterrupted full replay.
            let revived = ShardedRuntime::try_start(config()).unwrap();
            assert_eq!(
                runtime_state_triples(&revived),
                expected,
                "{label}: restart"
            );
            for request in &requests[k..] {
                revived.call(request.clone()).unwrap();
            }
            let full_reference = replay_reference(kind, &requests);
            assert_eq!(
                runtime_state_triples(&revived),
                state_triples(&full_reference),
                "{label}: post-recovery traffic diverged"
            );
            revived.shutdown();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// The group-commit durability contract, pinned at the crash window the
/// protocol actually creates: a kill *between* group fsyncs must recover
/// exactly the commands of committed groups — the commands whose replies
/// were released — and nothing of the in-flight group behind them.
///
/// The crash is simulated faithfully to what the protocol promises:
/// `std::mem::forget` skips the journal's graceful-shutdown fsync (process
/// kill), and the WAL is truncated back to its length at the last
/// `commit_group` (an OS crash forgets the appended-but-not-fsynced
/// suffix; under `GroupCommit`, `record` never fsyncs on its own below
/// the safety valve).
#[test]
fn group_commit_crash_between_group_fsyncs_keeps_exactly_replied_commands() {
    let requests = build_stream();
    const GROUP: usize = 5;
    // Stop mid-group: two full groups committed, two commands in flight.
    let cutoff = GROUP * 2 + 2;
    assert!(requests.len() > cutoff);

    let dir = std::env::temp_dir().join("fourcycle-group-commit-crash-test");
    let _ = std::fs::remove_dir_all(&dir);
    let store = JournalStore::open(
        JournalConfig::new(&dir).fsync(FsyncPolicy::group_commit()),
        1,
        SessionSpec {
            kind: EngineKind::Threshold,
            mode: WorkloadMode::Layered,
            ..SessionSpec::default()
        },
    )
    .unwrap();
    let mut service = store.open_shard(0).unwrap();
    let wal = dir.join(wal_file(0));

    let mut durable_len = std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    let mut replied = 0usize;
    for (i, request) in requests[..cutoff].iter().enumerate() {
        service.execute(request).unwrap();
        if (i + 1) % GROUP == 0 {
            // The dispatcher's barrier: one fsync for the whole group,
            // THEN the group's replies are released.
            service.journal_commit_group().unwrap();
            durable_len = std::fs::metadata(&wal).unwrap().len();
            replied = i + 1;
        }
    }
    assert_eq!(replied, GROUP * 2);
    let fsyncs = service.journal_fsyncs();
    // Appended-but-uncommitted suffix exists (flushed to the OS, not yet
    // fsynced): the file is longer than the durable prefix.
    assert!(std::fs::metadata(&wal).unwrap().len() > durable_len);

    // Crash: no Drop (no graceful shutdown fsync), and the OS loses the
    // un-fsynced suffix.
    std::mem::forget(service);
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(durable_len).unwrap();
    drop(file);

    // Recovery lands on exactly the replied prefix.
    let recovered = store.recover_shard(0).unwrap();
    let reference = replay_reference(EngineKind::Threshold, &requests[..replied]);
    assert_eq!(
        state_triples(&recovered),
        state_triples(&reference),
        "recovered state must equal an uninterrupted replay of the {replied} replied commands"
    );
    // And the protocol paid two fsyncs for ten commands, not ten.
    assert!(
        fsyncs <= 3,
        "group commit issued {fsyncs} fsyncs for {replied} commands"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
