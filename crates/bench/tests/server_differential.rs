//! Acceptance tests of the network front door (ISSUE 8): serving over
//! real sockets must change *nothing* about what the runtime computes.
//!
//! Two claims, both differential:
//!
//! * **Equivalence** — K concurrent TCP clients × M sessions each,
//!   replaying the smoke catalog through an in-process `fourcycle-server`
//!   on a loopback port, land every session on exactly the
//!   `Snapshot { count, total_edges, epoch }` a plain single-threaded
//!   `CycleCountService` replay of the same stream produces, at every
//!   shard count. The run also exercises the front door's own accounting
//!   cross-check (the `metrics json` document must parse and its command
//!   total agree with what the clients submitted — `LoadRunner` panics
//!   otherwise).
//!
//! * **Durability through the wire** — a server journaling at
//!   fsync-every-1 is killed mid-stream (simulated by truncating the WAL
//!   back to the fsynced mark recorded when the prefix was acknowledged,
//!   exactly the chaos harness's durable-bytes technique: the OS forgets
//!   appended-but-unfsynced bytes, a checkpoint that was never written is
//!   removed). A restarted server on the same directory must answer wire
//!   snapshots identical to an uninterrupted replay of the acknowledged
//!   prefix — and then serve the lost suffix to the same final state as a
//!   never-crashed run, proving the recovered state is live.

use fourcycle_bench::{replay_single_threaded, LoadConfig, LoadRunner, Transport};
use fourcycle_core::EngineKind;
use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle_server::{Client, Server, ServerConfig};
use fourcycle_service::{CycleCountService, GraphId, Request, Response, WorkloadMode};
use fourcycle_store::chaos::FaultPlan;
use fourcycle_store::{checkpoint_file, wal_file, FsyncPolicy, JournalConfig};
use fourcycle_workloads::smoke_catalog;

#[test]
fn concurrent_socket_clients_match_single_threaded_replay() {
    let scenarios = smoke_catalog(42);
    assert!(!scenarios.is_empty());
    // Ground truth per scenario, computed once on this thread.
    let expected: Vec<_> = scenarios
        .iter()
        .map(|s| replay_single_threaded(EngineKind::Threshold, &s.generate()))
        .collect();

    for shards in [1usize, 2, 4] {
        let config = LoadConfig {
            shards,
            clients: 4,
            sessions_per_client: 2, // 8 concurrent sessions
            mailbox_depth: 8,       // small: force busy rejections + retries
            engine: EngineKind::Threshold,
            transport: Transport::Tcp,
            ..LoadConfig::default()
        };
        let report = LoadRunner::new(config).run(&scenarios);

        assert_eq!(report.sessions.len(), config.total_sessions());
        for outcome in &report.sessions {
            let want = &expected[outcome.scenario_index];
            let got = &outcome.snapshot;
            assert_eq!(
                (got.count, got.total_edges, got.epoch),
                (want.count, want.total_edges, want.epoch),
                "{} shards, session {} ({}): socket replay diverged",
                shards,
                outcome.graph,
                outcome.scenario,
            );
        }
        // Busy retries notwithstanding, the runtime executed exactly what
        // the clients submitted — nothing dropped, nothing duplicated.
        let server = report.telemetry.server;
        assert_eq!(server.commands, report.requests, "{shards} shards");
        assert_eq!(report.telemetry.totals.commands, report.requests);
        assert_eq!(report.telemetry.totals.updates_applied, report.updates);
        assert_eq!(report.telemetry.totals.rejected, 0);
        assert!(server.busy_rejections <= report.telemetry.totals.queue_full_stalls);
    }
}

/// Builds the wire command stream: 4 graphs over 2 smoke scenarios,
/// sessions created up front, batches interleaved round-robin.
fn build_stream() -> Vec<Request> {
    let scenarios = smoke_catalog(23);
    let scenarios = &scenarios[..2];
    let graphs: Vec<(GraphId, usize)> = (0..4)
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
fn replay_reference(requests: &[Request]) -> CycleCountService {
    let mut service = CycleCountService::builder()
        .engine(EngineKind::Threshold)
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

/// The same state, read through the wire.
fn wire_state(client: &mut Client) -> Vec<(GraphId, i64, usize, u64)> {
    let ids = match client.call(&Request::ListGraphs).unwrap() {
        Response::Graphs { ids } => ids,
        other => panic!("expected listing, got {other:?}"),
    };
    ids.into_iter()
        .map(
            |id| match client.call(&Request::GetSnapshot { id }).unwrap() {
                Response::Snapshot { snapshot: s, .. } => (id, s.count, s.total_edges, s.epoch),
                other => panic!("expected snapshot, got {other:?}"),
            },
        )
        .collect()
}

#[test]
fn killed_server_restarts_with_exactly_the_acknowledged_prefix() {
    let requests = build_stream();
    let total = requests.len();
    let k1 = total / 2;
    assert!(k1 > 4 && k1 < total, "stream too small to be interesting");

    let dir = std::env::temp_dir().join("fourcycle-server-kill-test");
    let _ = std::fs::remove_dir_all(&dir);
    // An observing plan (no faults armed): it records the WAL's fsynced
    // length, i.e. exactly what survives a kill at any instant.
    let plan = FaultPlan::new(11);
    let journaled = |plan: Option<FaultPlan>| {
        let mut journal = JournalConfig::new(&dir).fsync(FsyncPolicy::EveryN(1));
        if let Some(plan) = plan {
            journal = journal.chaos(plan);
        }
        RuntimeConfig::new()
            .shards(1)
            .engine(EngineKind::Threshold)
            .mailbox_depth(16)
            .journal(journal)
    };

    // Phase 1: serve the whole stream; mark the durable length at the
    // moment the first half had been acknowledged. At fsync-every-1 every
    // reply implies its command is on disk, so the mark covers exactly
    // the acknowledged prefix.
    let runtime = ShardedRuntime::try_start(journaled(Some(plan.clone()))).unwrap();
    let server = Server::start(ServerConfig::new(), runtime).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    for request in &requests[..k1] {
        client.call(request).unwrap();
    }
    let durable = plan.durable_bytes(0).expect("observer saw fsyncs");
    for request in &requests[k1..] {
        client.call(request).unwrap();
    }
    drop(client);
    server.shutdown();

    // Phase 2: the kill. The OS forgets everything appended after the
    // durable mark, and the checkpoint a graceful shutdown might leave
    // behind was never written by a killed process.
    let wal = dir.join(wal_file(0));
    assert!(std::fs::metadata(&wal).unwrap().len() > durable);
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(durable).unwrap();
    drop(file);
    let _ = std::fs::remove_file(dir.join(checkpoint_file(0)));

    // Phase 3: a restarted server answers wire snapshots identical to an
    // uninterrupted replay of the acknowledged prefix...
    let revived = ShardedRuntime::try_start(journaled(None)).unwrap();
    let server = Server::start(ServerConfig::new(), revived).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        wire_state(&mut client),
        state_triples(&replay_reference(&requests[..k1])),
        "restart must recover exactly the acknowledged prefix"
    );

    // ...and the recovered state is live: re-serving the lost suffix
    // lands on the same final state as a run that never crashed.
    for request in &requests[k1..] {
        client.call(request).unwrap();
    }
    assert_eq!(
        wire_state(&mut client),
        state_triples(&replay_reference(&requests)),
        "post-recovery traffic diverged from the never-crashed run"
    );
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
