//! Quick tour of the network front door: a `fourcycle-server` on a
//! loopback port, driven by the blocking wire client — single calls,
//! pipelining, wire errors and the retry contract, the `metrics json`
//! document, and graceful shutdown.
//!
//! ```text
//! cargo run -p fourcycle --release --example socket_quickstart
//! ```

use fourcycle::core::EngineKind;
use fourcycle::runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle::server::{Client, ClientError, Server, ServerConfig, WireError};
use fourcycle::service::{GraphId, Request, Response};
use std::thread;

fn main() {
    // A sharded runtime behind a TCP listener. Port 0 = OS-assigned, so
    // the example never collides with anything; a deployment would pass
    // ServerConfig::new().addr("0.0.0.0:4444").
    let runtime = ShardedRuntime::start(
        RuntimeConfig::new()
            .shards(2)
            .mailbox_depth(16)
            .engine(EngineKind::Threshold),
    );
    let server = Server::start(ServerConfig::new(), runtime).expect("bind loopback");
    let addr = server.local_addr();
    println!("serving on {addr}");

    // --- one client per thread, blocking calls --------------------------
    thread::scope(|scope| {
        for tenant in 1..=4u64 {
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let id = GraphId(tenant);
                client
                    .call(&Request::CreateGraph { id, spec: None })
                    .expect("fresh id");
                // One 4-cycle through the layered relations A→B→C→D.
                let line = format!("layered g{tenant} A+1:2 B+2:3 C+3:4 D+4:1");
                client.call_line(&line).expect("well-formed batch");
            });
        }
    });

    // --- pipelining: fire a batch, collect framed replies in order ------
    let mut client = Client::connect(addr).expect("connect");
    let script: Vec<Request> = (1..=4u64)
        .map(|tenant| Request::GetSnapshot {
            id: GraphId(tenant),
        })
        .collect();
    for reply in client.pipeline(&script).expect("conversation intact") {
        match reply {
            Ok(Response::Snapshot { id, snapshot }) => println!(
                "{id}: count={} edges={} epoch={}",
                snapshot.count, snapshot.total_edges, snapshot.epoch
            ),
            Ok(other) => println!("unexpected: {other:?}"),
            // The retry contract: Busy/ShardUnavailable were never
            // executed (resubmit freely); Journal errors may have been
            // journaled, so never resubmit those blindly.
            Err(e) if e.retryable() => println!("transient, retry: {e}"),
            Err(e) => println!("rejected: {e}"),
        }
    }

    // --- wire errors are typed, not stringly ----------------------------
    match client.call(&Request::Count { id: GraphId(99) }) {
        Err(ClientError::Wire(WireError::UnknownGraph(id))) => {
            println!("as expected, no graph {id}");
        }
        other => println!("unexpected: {other:?}"),
    }

    // --- the metrics document: all-integer JSON, parsed in-tree ---------
    let metrics = client.metrics().expect("metrics parses");
    let server_side = metrics.get("server").expect("server section");
    let counter = |name: &str| server_side.get(name).and_then(|j| j.as_u64()).unwrap();
    println!(
        "served {} commands over {} connections",
        counter("commands"),
        counter("connections"),
    );
    assert_eq!(counter("commands"), 13); // 4 × (create, batch), 4 snapshots, 1 probe

    // --- graceful shutdown: drain connections, join shards, report ------
    drop(client);
    let report = server.shutdown();
    for (shard, stats) in report.per_shard.iter().enumerate() {
        println!(
            "shard {shard}: {} commands, {} updates, {} rejected",
            stats.commands, stats.updates_applied, stats.rejected
        );
    }
    assert_eq!(report.totals.rejected, 1); // the unknown-graph probe
}
