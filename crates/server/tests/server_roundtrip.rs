//! End-to-end wire tests: a real listener on a loopback port, driven by
//! the real [`Client`] — every response and error shape, per-connection
//! ordering under pipelining, which lines skip the shard mailbox,
//! backpressure (`busy`) convergence, the `metrics` documents, and
//! graceful shutdown semantics. A raw socket drives what the client
//! cannot: a half-close after a long pipeline, and documents pipelined
//! behind commands.

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
use fourcycle_service::{response_extra_lines, GraphId, Request, Response};
use fourcycle_store::json::Json;
use fourcycle_telemetry::{expose, Stage, TelemetryConfig, NO_SHARD};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

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

/// A closed-loop client's lines are lone: no reply owed, nothing else
/// buffered. Each runs on the connection thread while its shard is idle,
/// so the runtime's dispatch groups stay flat.
#[test]
fn closed_loop_commands_skip_the_mailbox() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let groups = server.report().totals.groups;
    let mut commands = 0;
    for id in [GraphId(1), GraphId(2), GraphId(3)] {
        client
            .call(&Request::CreateGraph { id, spec: None })
            .unwrap();
        for update in square(0) {
            client.call(&Request::ApplyLayered { id, update }).unwrap();
        }
        assert_eq!(
            client.call(&Request::Count { id }).unwrap(),
            Response::Count { id, count: 1 }
        );
        commands += 6;
    }
    let report = server.report();
    assert_eq!(report.totals.commands, commands);
    assert_eq!(report.totals.groups, groups, "{:?}", report.totals);
    server.shutdown();
}

/// A pipelined burst still fans out over the shard mailboxes: 72 lines
/// over 2 shards (36 each, so no mailbox of 64 fills) drain in groups, and
/// the replies come back in submission order.
#[test]
fn a_pipelined_burst_still_batches_and_replies_in_order() {
    let runtime = ShardedRuntime::start(
        RuntimeConfig::new()
            .shards(2)
            .engine(EngineKind::Simple)
            .mailbox_depth(64),
    );
    let mut graphs: Vec<GraphId> = Vec::new();
    for shard in 0..2 {
        graphs.extend(
            (0..)
                .map(GraphId)
                .filter(|&id| runtime.shard_of(id) == shard)
                .take(4),
        );
    }
    let server = Server::start(ServerConfig::new(), runtime).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let mut script: Vec<Request> = graphs
        .iter()
        .map(|&id| Request::CreateGraph { id, spec: None })
        .collect();
    for round in 0..7u32 {
        for &id in &graphs {
            script.push(Request::ApplyLayeredBatch {
                id,
                updates: square(round * 10),
            });
        }
    }
    script.extend(graphs.iter().map(|&id| Request::Count { id }));
    assert_eq!(script.len(), 72);
    let replies = client.pipeline(&script).unwrap();
    assert_eq!(replies.len(), script.len());
    for (i, (request, reply)) in script.iter().zip(&replies).enumerate() {
        let response = reply
            .as_ref()
            .unwrap_or_else(|e| panic!("#{i} {request:?}: {e}"));
        let cycles = i64::try_from(i / 8).unwrap();
        match (request, response) {
            (Request::CreateGraph { id, .. }, Response::Created { id: got }) => {
                assert_eq!(got, id)
            }
            (Request::ApplyLayeredBatch { id, .. }, Response::Applied { id: got, count, .. }) => {
                assert_eq!((got, *count), (id, cycles))
            }
            (Request::Count { id }, Response::Count { id: got, count }) => {
                assert_eq!((got, *count), (id, 7))
            }
            (request, response) => panic!("#{i}: {request:?} -> {response:?}"),
        }
    }
    let report = server.shutdown();
    assert_eq!(report.totals.commands, 72);
    assert!(
        report.totals.groups < report.totals.commands,
        "{:?}",
        report.totals
    );
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

/// A shard's counter names, in document order.
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

/// Reads an integer field of a JSON object.
fn int(object: &Json, field: &str) -> u64 {
    object
        .get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing integer field {field:?} in {object:?}"))
}

/// Sums one stage's sample counts over every shard of a `metrics json`
/// document.
fn stage_count(metrics: &Json, stage: Stage) -> u64 {
    let stages = metrics.get("stages").unwrap().as_arr().unwrap();
    stages
        .iter()
        .filter(|s| s.get("stage").unwrap().as_str() == Some(stage.name()))
        .map(|s| int(s, "count"))
        .sum()
}

/// The `metrics json` document is machine-readable by the in-tree JSON
/// reader, and its server counters agree with `Server::stats()`.
#[test]
fn metrics_json_server_counters_match_server_stats() {
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

    let metrics = client.metrics().unwrap();
    let wire = metrics.get("server").expect("server section");
    let live = server.stats();
    assert_eq!(int(wire, "commands"), 3);
    assert_eq!(int(wire, "busy_rejections"), 0);
    assert_eq!(int(wire, "open_connections"), 1);
    assert_eq!(
        (int(wire, "connections"), int(wire, "commands")),
        (live.connections, live.commands)
    );
    // The document counts the request line that fetched it, but not its
    // own reply; both byte counters only grow from there.
    assert!(int(wire, "bytes_in") > 0 && int(wire, "bytes_in") <= live.bytes_in);
    assert!(int(wire, "bytes_out") > 0 && int(wire, "bytes_out") < live.bytes_out);
    assert_eq!(int(metrics.get("totals").unwrap(), "commands"), 3);
    assert_eq!(metrics.get("shards").unwrap().as_arr().unwrap().len(), 2);
    // `metrics json` carries what the deleted `stats` document did.
    assert_eq!(
        client.call_line("stats").unwrap(),
        "err parse unknown command \"stats\""
    );
    server.shutdown();
}

/// Every per-shard object of `metrics json`, and the totals, carries the
/// full counter set as integers — including the group-commit counters
/// `groups` and `journal_fsyncs` — and each shard's `commands` equals
/// every stage's sample count in the same document. Pins the shape so
/// dashboards scraping it don't silently lose fields.
#[test]
fn metrics_json_pins_the_full_counter_shape() {
    let server = start_server(2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let id = GraphId(1);
    // Sent as one burst: a closed-loop command on an idle shard runs on
    // the connection thread and joins no dispatch group.
    let replies = client
        .pipeline(&[
            Request::CreateGraph { id, spec: None },
            Request::ApplyLayeredBatch {
                id,
                updates: square(0),
            },
        ])
        .unwrap();
    assert!(replies.iter().all(Result::is_ok), "{replies:?}");

    let metrics = client.metrics().unwrap();
    let per_shard = metrics.get("shards").unwrap().as_arr().unwrap();
    assert_eq!(per_shard.len(), 2);
    let totals = metrics.get("totals").unwrap();
    for object in per_shard.iter().chain([totals]) {
        for field in SHARD_FIELDS {
            int(object, field);
        }
    }
    let stages = metrics.get("stages").unwrap().as_arr().unwrap();
    for (shard, object) in per_shard.iter().enumerate() {
        assert_eq!(int(object, "shard"), shard as u64);
        for stage in stages.iter().filter(|s| int(s, "shard") == shard as u64) {
            assert_eq!(int(stage, "count"), int(object, "commands"), "{stage:?}");
        }
    }
    // Dispatch groups are counted even in-process; fsyncs need a
    // journal, so that counter is present but zero here.
    assert!(int(totals, "groups") >= 1);
    assert_eq!(int(totals, "journal_fsyncs"), 0);
    assert_eq!(int(totals, "commands"), 2);
    assert_eq!(int(totals, "updates_applied"), 4);
    server.shutdown();
}

/// After real traffic the `metrics` command returns a well-formed
/// Prometheus exposition carrying every counter, and `metrics json`
/// returns the same snapshot as all-integer JSON; both count each
/// delivered command once in every stage histogram.
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

    let text = client.metrics_text().unwrap();
    expose::validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert!(text.contains("fourcycle_stage_latency_nanos"), "{text}");
    for field in SHARD_FIELDS {
        for shard in 0..2 {
            let series = format!("fourcycle_shard_{field}_total{{shard=\"{shard}\"}} ");
            assert!(text.contains(&series), "{series} missing:\n{text}");
        }
    }
    let commands: u64 = (0..2)
        .map(|shard| {
            let series = format!("fourcycle_shard_commands_total{{shard=\"{shard}\"}} ");
            let line = text.lines().find(|l| l.starts_with(&series)).unwrap();
            line[series.len()..].parse::<u64>().unwrap()
        })
        .sum();
    assert_eq!(commands, 5);
    assert!(
        text.contains("\nfourcycle_server_commands_total 5\n"),
        "{text}"
    );
    assert!(
        text.contains("\nfourcycle_server_open_connections 1\n"),
        "{text}"
    );

    // Every delivered command contributed exactly one sample to every
    // stage histogram — the same invariant the runtime tests pin, here
    // observed through the wire document.
    let metrics = client.metrics().unwrap();
    assert_eq!(int(metrics.get("totals").unwrap(), "commands"), commands);
    for stage in Stage::ALL {
        assert_eq!(
            stage_count(&metrics, stage),
            commands,
            "stage {}",
            stage.name()
        );
    }
    let queue_sum: u64 = metrics
        .get("stages")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|s| s.get("stage").unwrap().as_str() == Some(Stage::QueueWait.name()))
        .map(|s| int(s, "sum"))
        .sum();
    assert!(queue_sum > 0, "queue wait is always measurable");
    server.shutdown();
}

/// A document pipelined behind commands is rendered when its reply is
/// due, so it counts every command sent before it on the connection, and
/// `events` drains what they emitted.
#[test]
fn pipelined_documents_count_the_commands_before_them() {
    let runtime = ShardedRuntime::start(
        RuntimeConfig::new()
            .shards(1)
            .engine(EngineKind::Simple)
            .telemetry(TelemetryConfig::default().slow_request_threshold(Duration::ZERO)),
    );
    let server = Server::start(ServerConfig::new(), runtime).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for round in 1..=5u64 {
        let burst = format!(
            "create g{round}\nlayered g{round} A+1:2 B+2:3 C+3:4 D+4:1\ncount g{round}\n\
             metrics json\nevents\n"
        );
        stream.write_all(burst.as_bytes()).unwrap();
        for _ in 0..3 {
            let reply = read_framed(&mut reader);
            assert!(reply.starts_with("ok "), "{reply}");
        }
        let metrics = Json::parse(framed_body(&read_framed(&mut reader), "metrics")).unwrap();
        let commands = 3 * round;
        assert_eq!(stage_count(&metrics, Stage::Reply), commands);
        assert_eq!(int(metrics.get("totals").unwrap(), "commands"), commands);
        assert_eq!(int(metrics.get("server").unwrap(), "commands"), commands);
        let events = Json::parse(framed_body(&read_framed(&mut reader), "events")).unwrap();
        let slow = events
            .get("events")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter(|e| e.get("kind").unwrap().as_str() == Some("slow_request"))
            .count();
        assert_eq!(slow, 3, "round {round}: {events:?}");
    }
    drop((stream, reader));
    server.shutdown();
}

/// Reads one framed reply off a raw socket: the header line plus the
/// continuation lines it declares.
fn read_framed(reader: &mut BufReader<TcpStream>) -> String {
    let mut text = String::new();
    reader.read_line(&mut text).unwrap();
    let extra = response_extra_lines(text.trim_end()).unwrap();
    for _ in 0..extra {
        reader.read_line(&mut text).unwrap();
    }
    text
}

/// The body of a framed `ok+<n> <tag>` document.
fn framed_body<'a>(framed: &'a str, tag: &str) -> &'a str {
    let (header, body) = framed.split_once('\n').unwrap();
    assert_eq!(header.split_whitespace().nth(1), Some(tag), "{framed}");
    body
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
    assert!(again <= 1, "at most a metrics follow-up, got {again}");
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

/// A pipeline well past the 128 replies one connection may owe, then a
/// half-close: every command is still answered, in order, before the
/// server closes. The mailbox holds more than one connection can owe, so
/// no reply can be `busy`.
#[test]
fn half_close_after_a_long_pipeline_answers_every_command_in_order() {
    let runtime = ShardedRuntime::start(
        RuntimeConfig::new()
            .shards(1)
            .engine(EngineKind::Simple)
            .mailbox_depth(256),
    );
    let server = Server::start(ServerConfig::new(), runtime).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let script: String = (0..300).map(|i| format!("create g{i}\n")).collect();
    stream.write_all(script.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut replies = BufReader::new(stream).lines();
    for i in 0..300 {
        assert_eq!(replies.next().unwrap().unwrap(), format!("ok created g{i}"));
    }
    assert!(
        replies.next().is_none(),
        "the server closes after the last reply"
    );
    assert_eq!(server.shutdown().totals.commands, 300);
}
