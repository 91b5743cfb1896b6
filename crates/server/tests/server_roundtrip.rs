//! End-to-end wire tests: a real listener on a loopback port, driven by
//! the real [`Client`] — every response and error shape, per-connection
//! ordering under pipelining, backpressure (`busy`) convergence, the
//! `stats` document, and graceful shutdown semantics.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::EngineKind;
use fourcycle_graph::{LayeredUpdate, Rel};
use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle_server::{Client, ClientError, Server, ServerConfig, WireError};
use fourcycle_service::{GraphId, Request, Response};
use fourcycle_telemetry::{expose, Stage, NO_SHARD};

fn square(base: u32) -> Vec<LayeredUpdate> {
    vec![
        LayeredUpdate::insert(Rel::A, base + 1, base + 2),
        LayeredUpdate::insert(Rel::B, base + 2, base + 3),
        LayeredUpdate::insert(Rel::C, base + 3, base + 4),
        LayeredUpdate::insert(Rel::D, base + 4, base + 1),
    ]
}

fn start_server(shards: usize) -> Server {
    let runtime = ShardedRuntime::start(
        RuntimeConfig::new()
            .shards(shards)
            .engine(EngineKind::Simple)
            .mailbox_depth(64),
    );
    Server::start(ServerConfig::new(), runtime).unwrap()
}

/// Every success shape and a representative error of each family crosses
/// the wire intact — typed in, typed out.
#[test]
fn every_response_shape_roundtrips_over_the_wire() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = GraphId(1);

    assert_eq!(
        client
            .call(&Request::CreateGraph { id, spec: None })
            .unwrap(),
        Response::Created { id }
    );
    assert_eq!(
        client
            .call(&Request::ApplyLayeredBatch {
                id,
                updates: square(0),
            })
            .unwrap(),
        Response::Applied {
            id,
            count: 1,
            epoch: 4
        }
    );
    assert_eq!(
        client.call(&Request::Count { id }).unwrap(),
        Response::Count { id, count: 1 }
    );
    match client.call(&Request::GetSnapshot { id }).unwrap() {
        Response::Snapshot { id: got, snapshot } => {
            assert_eq!(got, id);
            assert_eq!(
                (snapshot.count, snapshot.total_edges, snapshot.epoch),
                (1, 4, 4)
            );
        }
        other => panic!("expected snapshot, got {other:?}"),
    }
    // Multi-line listing framing, non-empty and (after drop) empty.
    let id2 = GraphId(2);
    client
        .call(&Request::CreateGraph {
            id: id2,
            spec: None,
        })
        .unwrap();
    assert_eq!(
        client.call(&Request::ListGraphs).unwrap(),
        Response::Graphs { ids: vec![id, id2] }
    );
    client.call(&Request::DropGraph { id }).unwrap();
    client.call(&Request::DropGraph { id: id2 }).unwrap();
    assert_eq!(
        client.call(&Request::ListGraphs).unwrap(),
        Response::Graphs { ids: vec![] }
    );

    // Error family representatives, as typed wire errors.
    match client.call(&Request::Count { id: GraphId(99) }) {
        Err(ClientError::Wire(WireError::UnknownGraph(got))) => assert_eq!(got, GraphId(99)),
        other => panic!("expected unknown-graph, got {other:?}"),
    }
    let raw = client.call_line("frobnicate g1").unwrap();
    assert!(raw.starts_with("err parse"), "{raw}");
    // Blank lines and comments produce no response: the next real command
    // answers first.
    let listed = client.call_line("   # just a comment\n\nlist").unwrap();
    assert_eq!(listed, "ok+0 graphs");

    let report = server.shutdown();
    assert_eq!(report.totals.rejected, 1); // the unknown-graph count
}

/// Pipelined commands on one connection come back strictly in submission
/// order, even when they fan out across shards.
#[test]
fn pipelined_replies_preserve_submission_order() {
    let server = start_server(4);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let graphs: Vec<GraphId> = (0..8).map(GraphId).collect();
    let mut script: Vec<Request> = graphs
        .iter()
        .map(|&id| Request::CreateGraph { id, spec: None })
        .collect();
    for round in 0..4u32 {
        for &id in &graphs {
            // Disjoint vertex ranges: each square contributes exactly one
            // 4-cycle, so the final count per graph is the round count.
            script.push(Request::ApplyLayeredBatch {
                id,
                updates: square(round * 10),
            });
        }
    }
    for &id in &graphs {
        script.push(Request::Count { id });
    }
    let replies = client.pipeline(&script).unwrap();
    assert_eq!(replies.len(), script.len());
    for (request, reply) in script.iter().zip(&replies) {
        let response = reply
            .as_ref()
            .unwrap_or_else(|e| panic!("{request:?}: {e}"));
        match (request, response) {
            (Request::CreateGraph { id, .. }, Response::Created { id: got }) => {
                assert_eq!(got, id)
            }
            (Request::ApplyLayeredBatch { id, .. }, Response::Applied { id: got, .. }) => {
                assert_eq!(got, id)
            }
            (Request::Count { id }, Response::Count { id: got, count }) => {
                assert_eq!((got, *count), (id, 4))
            }
            (request, response) => panic!("mismatched: {request:?} -> {response:?}"),
        }
    }
    let report = server.shutdown();
    assert_eq!(report.totals.commands, script.len() as u64);
}

/// Backpressure end-to-end: against a depth-1 mailbox, a hard pipeliner
/// sees `err busy` instead of hanging the server; retrying the rejected
/// commands converges to the exact final state. The traffic is
/// order-independent (distinct edge per command) so busy-skips commute.
#[test]
fn busy_rejections_surface_and_retries_converge() {
    let runtime = ShardedRuntime::start(
        RuntimeConfig::new()
            .shards(1)
            .engine(EngineKind::Simple)
            .mailbox_depth(1),
    );
    let server = Server::start(ServerConfig::new(), runtime).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = GraphId(1);
    client
        .call(&Request::CreateGraph { id, spec: None })
        .unwrap();

    let total = 64u32;
    let commands: Vec<Request> = (0..total)
        .map(|i| Request::ApplyLayered {
            id,
            update: LayeredUpdate::insert(Rel::A, i + 1, total + i + 1),
        })
        .collect();
    let mut outstanding = commands;
    let mut rounds = 0;
    while !outstanding.is_empty() {
        rounds += 1;
        assert!(rounds <= 1000, "busy retries failed to converge");
        let replies = client.pipeline(&outstanding).unwrap();
        outstanding = outstanding
            .into_iter()
            .zip(replies)
            .filter_map(|(request, reply)| match reply {
                Ok(_) => None,
                Err(WireError::Busy) => Some(request), // not executed: retry
                Err(other) => panic!("unexpected rejection: {other}"),
            })
            .collect();
    }
    match client.call(&Request::GetSnapshot { id }).unwrap() {
        Response::Snapshot { snapshot, .. } => {
            assert_eq!(
                (snapshot.total_edges, snapshot.epoch),
                (total as usize, u64::from(total))
            );
        }
        other => panic!("expected snapshot, got {other:?}"),
    }
    let stats = server.stats();
    let report = server.shutdown();
    // Busy rejections and stalls line up: every busy was counted by both
    // layers, and the runtime executed each command exactly once.
    assert_eq!(report.totals.updates_applied, u64::from(total));
    assert!(stats.busy_rejections <= report.totals.queue_full_stalls);
}

/// The stats document is machine-readable by the in-tree JSON reader and
/// its totals agree with both layers' counters.
#[test]
fn stats_parse_and_totals_match() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = GraphId(5);
    client
        .call(&Request::CreateGraph { id, spec: None })
        .unwrap();
    client
        .call(&Request::ApplyLayeredBatch {
            id,
            updates: square(0),
        })
        .unwrap();
    client.call(&Request::Count { id }).unwrap();

    let stats = client.stats().unwrap();
    let server_side = stats.get("server").expect("server section");
    assert_eq!(server_side.get("commands").unwrap().as_u64(), Some(3));
    assert_eq!(
        server_side.get("busy_rejections").unwrap().as_u64(),
        Some(0)
    );
    assert_eq!(
        server_side.get("open_connections").unwrap().as_u64(),
        Some(1)
    );
    assert!(server_side.get("bytes_in").unwrap().as_u64().unwrap() > 0);
    assert!(server_side.get("bytes_out").unwrap().as_u64().unwrap() > 0);
    let runtime_side = stats.get("runtime").expect("runtime section");
    assert_eq!(runtime_side.get("shards").unwrap().as_u64(), Some(2));
    assert_eq!(
        runtime_side
            .get("totals")
            .unwrap()
            .get("commands")
            .unwrap()
            .as_u64(),
        Some(3)
    );
    assert_eq!(
        runtime_side
            .get("per_shard")
            .unwrap()
            .as_arr()
            .unwrap()
            .len(),
        2
    );
    // The live ServerStats accessor agrees with the wire document.
    assert_eq!(server.stats().commands, 3);
    server.shutdown();
}

/// ISSUE 9 satellite: the stats document's per-shard objects carry the
/// full counter set — including the group-commit counters `groups` and
/// `journal_fsyncs` — and so do the totals. Pins the JSON shape so
/// dashboards scraping `stats` don't silently lose fields.
#[test]
fn stats_per_shard_objects_pin_the_full_counter_shape() {
    const SHARD_FIELDS: [&str; 8] = [
        "commands",
        "updates_applied",
        "rejected",
        "queue_full_stalls",
        "groups",
        "journal_fsyncs",
        "busy_nanos",
        "idle_nanos",
    ];
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = GraphId(1);
    client
        .call(&Request::CreateGraph { id, spec: None })
        .unwrap();
    client
        .call(&Request::ApplyLayeredBatch {
            id,
            updates: square(0),
        })
        .unwrap();

    let stats = client.stats().unwrap();
    let runtime_side = stats.get("runtime").expect("runtime section");
    let per_shard = runtime_side.get("per_shard").unwrap().as_arr().unwrap();
    assert_eq!(per_shard.len(), 2);
    let totals = runtime_side.get("totals").unwrap();
    for object in per_shard.iter().chain([totals]) {
        for field in SHARD_FIELDS {
            assert!(
                object.get(field).and_then(|v| v.as_u64()).is_some(),
                "missing integer field {field:?} in {object:?}"
            );
        }
    }
    // Dispatch groups are counted even in-process; fsyncs need a
    // journal, so that counter is present but zero here.
    assert!(totals.get("groups").unwrap().as_u64().unwrap() >= 1);
    assert_eq!(totals.get("journal_fsyncs").unwrap().as_u64(), Some(0));
    assert_eq!(totals.get("commands").unwrap().as_u64(), Some(2));
    server.shutdown();
}

/// After real traffic the `metrics` command returns a well-formed
/// Prometheus exposition whose per-stage histogram counts equal the
/// runtime's `commands` counter, and `metrics json` returns the same
/// snapshot as all-integer JSON.
#[test]
fn metrics_exposition_matches_command_counts() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = GraphId(1);
    client
        .call(&Request::CreateGraph { id, spec: None })
        .unwrap();
    for update in square(0) {
        client.call(&Request::ApplyLayered { id, update }).unwrap();
    }
    let commands = client
        .stats()
        .unwrap()
        .get("runtime")
        .unwrap()
        .get("totals")
        .unwrap()
        .get("commands")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(commands, 5);

    let text = client.metrics_text().unwrap();
    expose::validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert!(text.contains("fourcycle_stage_latency_nanos"), "{text}");

    // Every delivered command contributed exactly one sample to every
    // stage histogram — the same invariant the runtime tests pin, here
    // observed through the wire document.
    let metrics = client.metrics().unwrap();
    let stages = metrics.get("stages").unwrap().as_arr().unwrap();
    for stage in Stage::ALL {
        let total: u64 = stages
            .iter()
            .filter(|s| s.get("stage").unwrap().as_str() == Some(stage.name()))
            .map(|s| s.get("count").unwrap().as_u64().unwrap())
            .sum();
        assert_eq!(total, commands, "stage {}", stage.name());
    }
    let queue_sum: u64 = stages
        .iter()
        .filter(|s| s.get("stage").unwrap().as_str() == Some(Stage::QueueWait.name()))
        .map(|s| s.get("sum").unwrap().as_u64().unwrap())
        .sum();
    assert!(queue_sum > 0, "queue wait is always measurable");
    server.shutdown();
}

/// Connection lifecycle lands in the ring as `conn_open`/`conn_close`
/// events (shard = NO_SHARD, a = connection id) and `events` drains them
/// without disturbing service.
#[test]
fn events_command_drains_connection_lifecycle() {
    let server = start_server(1);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = GraphId(1);
    client
        .call(&Request::CreateGraph { id, spec: None })
        .unwrap();

    // A second connection opens and closes; wait for the server to
    // retire it so the close event is definitely in the ring.
    let mut visitor = Client::connect(server.local_addr()).unwrap();
    visitor.call(&Request::Count { id }).unwrap();
    drop(visitor);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.stats().open_connections > 1 {
        assert!(std::time::Instant::now() < deadline, "visitor never closed");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let events = client.events().unwrap();
    let events = events.get("events").unwrap().as_arr().unwrap();
    let kinds_of = |kind: &str| -> Vec<&fourcycle_store::json::Json> {
        events
            .iter()
            .filter(|e| e.get("kind").unwrap().as_str() == Some(kind))
            .collect()
    };
    assert_eq!(kinds_of("conn_open").len(), 2, "{events:?}");
    let closes = kinds_of("conn_close");
    assert_eq!(closes.len(), 1, "{events:?}");
    for event in events {
        assert_eq!(
            event.get("shard").unwrap().as_u64(),
            Some(u64::from(NO_SHARD)),
            "connection events carry no shard"
        );
        assert!(event.get("seq").unwrap().as_u64().unwrap() >= 1);
    }
    // Drained is drained: a second read returns only what happened since.
    let again = client.events().unwrap();
    let again = again.get("events").unwrap().as_arr().unwrap().len();
    assert!(again <= 1, "at most a stats/metrics follow-up, got {again}");
    server.shutdown();
}

/// Graceful shutdown: in-flight commands are answered, the final report
/// covers them, and the socket then reads EOF — while new connections are
/// refused or closed without service.
#[test]
fn graceful_shutdown_answers_in_flight_then_closes() {
    let server = start_server(1);
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let id = GraphId(1);
    client
        .call(&Request::CreateGraph { id, spec: None })
        .unwrap();
    for update in square(0) {
        client.call(&Request::ApplyLayered { id, update }).unwrap();
    }
    let report = server.shutdown();
    assert_eq!(report.totals.commands, 5);
    assert_eq!(report.totals.updates_applied, 4);
    // The connection is now dead: the next roundtrip fails rather than
    // hanging (EOF on read, or a write error, depending on timing).
    let outcome = client.call(&Request::Count { id });
    assert!(outcome.is_err(), "{outcome:?}");
}

/// Oversized command lines are rejected with a parse error and the
/// connection is closed (no resynchronization inside an unterminated
/// line); the server itself keeps serving other clients.
#[test]
fn oversized_lines_close_only_the_offending_connection() {
    let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(1));
    let server = Server::start(ServerConfig::new().max_line_bytes(256), runtime).unwrap();
    let mut offender = Client::connect(server.local_addr()).unwrap();
    let huge = format!("layered g1 {}", "A+1:2 ".repeat(100));
    let reply = offender.call_line(&huge).unwrap();
    assert!(reply.starts_with("err parse"), "{reply}");
    assert!(reply.contains("limit"), "{reply}");
    // A fresh client is unaffected.
    let mut fine = Client::connect(server.local_addr()).unwrap();
    let id = GraphId(1);
    assert_eq!(
        fine.call(&Request::CreateGraph { id, spec: None }).unwrap(),
        Response::Created { id }
    );
    server.shutdown();
}
