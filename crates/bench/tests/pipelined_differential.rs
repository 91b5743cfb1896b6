//! Acceptance test of the serial shard dispatcher under pipelined
//! traffic: draining many sessions' commands into one group and running
//! them in slot order must be indistinguishable from single-threaded
//! execution, per session.
//!
//! For every shard count in 1–4 × every `EngineKind`, a runtime with a
//! deliberately small mailbox serves a *pipelined* multi-session stream —
//! many commands in flight at once, so shard dispatchers drain real
//! multi-command groups — interleaved with reads, an unknown-graph probe,
//! and a create/drop registry pair mid-stream. Every session's final
//! `Snapshot { count, total_edges, epoch }` must equal a plain
//! single-threaded `CycleCountService` replay of that session's scenario,
//! and the 1-shard runs pin the hardest case: every session in the same
//! dispatcher, nothing but slot order keeping each session's commands in
//! order.

use fourcycle_bench::replay_single_threaded;
use fourcycle_core::EngineKind;
use fourcycle_graph::{LayeredUpdate, Rel};
use fourcycle_runtime::{RuntimeConfig, RuntimeError, ShardedRuntime};
use fourcycle_service::{GraphId, Request, Response, ServiceError};
use fourcycle_workloads::smoke_catalog;

#[test]
fn pipelined_application_matches_single_threaded_replay() {
    let scenarios = smoke_catalog(11);
    let streams: Vec<_> = scenarios.iter().map(|s| s.generate()).collect();
    let graphs: Vec<GraphId> = (0..streams.len()).map(|i| GraphId(i as u64 + 1)).collect();
    let scratch = GraphId(900);
    let unknown = GraphId(901);

    for shards in 1usize..=4 {
        for kind in EngineKind::ALL {
            let label = format!("{shards} shards, {}", kind.name());
            let runtime = ShardedRuntime::start(
                RuntimeConfig::new()
                    .shards(shards)
                    .engine(kind)
                    .mailbox_depth(8),
            );
            let mut pipeline = runtime.pipeline();
            for &id in &graphs {
                pipeline.submit(Request::CreateGraph { id, spec: None });
            }
            let rounds = streams.iter().map(Vec::len).max().unwrap_or(0);
            for round in 0..rounds {
                // All sessions' round-`round` batches in flight together:
                // drained groups interleave many sessions, and slot order
                // must keep each session's batches in order.
                for (&id, stream) in graphs.iter().zip(&streams) {
                    if let Some(batch) = stream.get(round) {
                        pipeline.submit(Request::ApplyLayeredBatch {
                            id,
                            updates: batch.updates().to_vec(),
                        });
                    }
                }
                // Interleaved read on a rotating session and an
                // unknown-graph probe (must error exactly, never journal,
                // never wedge a worker).
                pipeline.submit(Request::Count {
                    id: graphs[round % graphs.len()],
                });
                pipeline.submit(Request::Count { id: unknown });
                if round == rounds / 2 {
                    // Registry commands mid-stream: a scratch session is
                    // created, mutated, and dropped among the batches.
                    pipeline.submit(Request::CreateGraph {
                        id: scratch,
                        spec: None,
                    });
                    pipeline.submit(Request::ApplyLayered {
                        id: scratch,
                        update: LayeredUpdate::insert(Rel::A, 1, 2),
                    });
                    pipeline.submit(Request::DropGraph { id: scratch });
                }
            }
            for outcome in pipeline.drain() {
                match outcome {
                    Ok(_) => {}
                    Err(RuntimeError::Service(ServiceError::UnknownGraph(id))) => {
                        assert_eq!(id, unknown, "{label}");
                    }
                    Err(other) => panic!("{label}: unexpected error {other}"),
                }
            }

            for (&id, stream) in graphs.iter().zip(&streams) {
                let want = replay_single_threaded(kind, stream);
                match runtime.call(Request::GetSnapshot { id }).unwrap() {
                    Response::Snapshot { snapshot: got, .. } => {
                        assert_eq!(
                            (got.count, got.total_edges, got.epoch),
                            (want.count, want.total_edges, want.epoch),
                            "{label}, session {id}: pipelined application diverged"
                        );
                    }
                    other => panic!("{label}: expected snapshot, got {other:?}"),
                }
            }
            // The scratch session's drop stuck: it must be unknown now.
            assert_eq!(
                runtime.call(Request::Count { id: scratch }),
                Err(RuntimeError::Service(ServiceError::UnknownGraph(scratch))),
                "{label}"
            );
            let report = runtime.shutdown();
            // Pipelined submission must have produced real multi-command
            // groups — otherwise this test isn't exercising group draining.
            assert!(
                report.totals.groups < report.totals.commands,
                "{label}: no batching happened ({:?})",
                report.totals
            );
        }
    }
}
