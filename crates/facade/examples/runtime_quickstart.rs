//! Quick tour of the sharded runtime: thread-per-shard execution of
//! service traffic, blocking and pipelined calls, script replay,
//! backpressure, and the per-shard statistics report.
//!
//! ```text
//! cargo run -p fourcycle --release --example runtime_quickstart
//! ```

use fourcycle::core::EngineKind;
use fourcycle::graph::{LayeredUpdate, Rel};
use fourcycle::runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle::service::{parse_script, GraphId, Request, Response};
use std::thread;

fn square(base: u32) -> Vec<LayeredUpdate> {
    vec![
        LayeredUpdate::insert(Rel::A, base + 1, base + 2),
        LayeredUpdate::insert(Rel::B, base + 2, base + 3),
        LayeredUpdate::insert(Rel::C, base + 3, base + 4),
        LayeredUpdate::insert(Rel::D, base + 4, base + 1),
    ]
}

fn main() {
    // A runtime with 2 shard workers, each owning its own
    // CycleCountService; graphs are routed by hash(GraphId), so tenants
    // spread over the shards and their traffic executes concurrently.
    let runtime = ShardedRuntime::start(
        RuntimeConfig::new()
            .shards(2)
            .mailbox_depth(16) // bounded: submitters block when a shard lags
            .engine(EngineKind::Threshold),
    );

    // --- blocking calls, from several client threads at once -----------
    thread::scope(|scope| {
        for tenant in 0..4u64 {
            let runtime = &runtime;
            scope.spawn(move || {
                let id = GraphId(tenant);
                runtime
                    .call(Request::CreateGraph { id, spec: None })
                    .expect("fresh id");
                runtime
                    .call(Request::ApplyLayeredBatch {
                        id,
                        updates: square(0),
                    })
                    .expect("well-formed batch");
            });
        }
    });

    // --- fire-collect pipelining ----------------------------------------
    // submit() returns immediately; drain() collects outcomes in
    // submission order while all shards work in parallel.
    let mut pipeline = runtime.pipeline();
    for tenant in 0..4u64 {
        pipeline.submit(Request::GetSnapshot {
            id: GraphId(tenant),
        });
    }
    for outcome in pipeline.drain() {
        if let Response::Snapshot { id, snapshot } = outcome.expect("live sessions") {
            println!(
                "{id}: count={} edges={} epoch={}",
                snapshot.count, snapshot.total_edges, snapshot.epoch
            );
        }
    }

    // --- serialized traffic, replayed concurrently ----------------------
    // The PR 3 command text format feeds straight into the executor.
    let script = "
        create g100 layered simple
        layered g100 A+1:2 B+2:3 C+3:4 D+4:1
        count g100
        list
    ";
    let mut pipeline = runtime.pipeline();
    for request in parse_script(script).expect("well-formed script") {
        pipeline.submit(request);
    }
    let outcomes = pipeline.drain();
    println!("script: {:?}", outcomes.last().unwrap().as_ref().unwrap());

    // --- graceful shutdown: drain mailboxes, join workers, final report -
    let report = runtime.shutdown();
    for (shard, stats) in report.per_shard.iter().enumerate() {
        println!(
            "shard {shard}: {} commands, {} updates, {:.0}% busy",
            stats.commands,
            stats.updates_applied,
            stats.utilization() * 100.0
        );
    }
    assert_eq!(report.totals.rejected, 0);
}
