//! Property test for the command text format under concurrency (ISSUE 4):
//! for random command scripts covering *every* `Request` variant,
//! `render_request` → `parse_request` → pipelined execution through the
//! sharded runtime must be indistinguishable from direct `execute()` calls
//! on a fresh single-threaded `CycleCountService` — response for response,
//! including rejections.
//!
//! This pins three properties at once: the text format round-trips (up to
//! the documented single-update-batch normalization), the runtime's
//! per-graph ordering matches submission order, and fan-out commands
//! (`list`) merge to exactly the single-threaded answer.

use fourcycle::core::{EngineConfig, EngineKind};
use fourcycle::graph::{GraphUpdate, LayeredUpdate, Rel, UpdateOp};
use fourcycle::runtime::{RuntimeConfig, RuntimeError, ShardedRuntime};
use fourcycle::service::{
    parse_request, render_request, CycleCountService, GraphId, Request, SessionSpec, WorkloadMode,
};
use proptest::prelude::*;

/// One raw command gene: (shape, graph, rel, op, left, right).
type Gene = (u8, u64, u8, u8, u32, u32);

fn scripts() -> impl Strategy<Value = Vec<Gene>> {
    // Small universes on purpose: collisions (duplicate creates, drops of
    // dropped graphs, duplicate edges) are the interesting paths, because
    // rejections must match between the two execution modes too.
    proptest::collection::vec((0u8..10, 0u64..5, 0u8..4, 0u8..2, 1u32..6, 1u32..6), 1..48)
}

fn rel_of(raw: u8) -> Rel {
    Rel::from_index(raw as usize % 4)
}

fn op_of(raw: u8) -> UpdateOp {
    if raw.is_multiple_of(2) {
        UpdateOp::Insert
    } else {
        UpdateOp::Delete
    }
}

/// Expands one gene into a request; the 10 shapes cover all 9 `Request`
/// variants plus the spec-carrying `CreateGraph` form.
fn build_request((shape, graph, rel, op, l, r): Gene) -> Request {
    let id = GraphId(graph);
    let layered = LayeredUpdate {
        op: op_of(op),
        rel: rel_of(rel),
        left: l,
        right: r,
    };
    let general = GraphUpdate {
        op: op_of(op),
        u: l,
        v: r,
    };
    match shape {
        0 => Request::CreateGraph { id, spec: None },
        1 => Request::CreateGraph {
            id,
            spec: Some(SessionSpec {
                kind: EngineKind::ALL[l as usize % EngineKind::ALL.len()],
                config: EngineConfig::default(),
                mode: WorkloadMode::ALL[r as usize % WorkloadMode::ALL.len()],
            }),
        },
        2 => Request::DropGraph { id },
        3 => Request::ApplyLayered {
            id,
            update: layered,
        },
        4 => Request::ApplyLayeredBatch {
            id,
            updates: vec![
                layered,
                LayeredUpdate {
                    op: UpdateOp::Insert,
                    rel: rel_of(rel + 1),
                    left: r,
                    right: l,
                },
                LayeredUpdate {
                    op: op_of(op + 1),
                    rel: rel_of(rel + 2),
                    left: l,
                    right: l,
                },
            ],
        },
        5 => Request::ApplyGeneral {
            id,
            update: general,
        },
        6 => Request::ApplyGeneralBatch {
            id,
            updates: vec![
                general,
                GraphUpdate {
                    op: UpdateOp::Insert,
                    u: l + 1,
                    v: r,
                },
            ],
        },
        7 => Request::Count { id },
        8 => Request::GetSnapshot { id },
        _ => Request::ListGraphs,
    }
}

/// Renders, re-parses, and returns the canonical request the text format
/// carries (single-update batches normalize to single-update commands —
/// semantically identical, documented in `fourcycle_service::command`).
fn through_text(request: &Request) -> Request {
    let line = render_request(request);
    parse_request(&line).unwrap_or_else(|e| panic!("render produced unparseable {line:?}: {e}"))
}

/// Executes the script both ways and asserts identical outcomes.
fn assert_runtime_matches_direct(requests: Vec<Request>, shards: usize) {
    let spec = SessionSpec {
        kind: EngineKind::Simple,
        config: EngineConfig::default(),
        mode: WorkloadMode::Layered,
    };
    let mut direct = CycleCountService::builder()
        .engine(spec.kind)
        .config(spec.config)
        .mode(spec.mode)
        .build();
    let expected: Vec<Result<_, _>> = requests.iter().map(|r| direct.execute(r)).collect();

    let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(shards).spec(spec));
    let mut pipeline = runtime.pipeline();
    for request in &requests {
        pipeline.submit(request.clone());
    }
    let outcomes = pipeline.drain();
    runtime.shutdown();

    assert_eq!(outcomes.len(), expected.len());
    for (i, (got, want)) in outcomes.iter().zip(&expected).enumerate() {
        let want = want.clone().map_err(RuntimeError::Service);
        assert_eq!(
            got,
            &want,
            "request #{i} ({}) diverged under {shards}-shard execution",
            render_request(&requests[i]),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random scripts: text round-trip + 2- and 3-shard pipelined execution
    /// all agree with direct single-threaded execution.
    #[test]
    fn rendered_scripts_execute_identically_under_sharding(genes in scripts()) {
        let requests: Vec<Request> = genes.iter().map(|&g| {
            let built = build_request(g);
            let parsed = through_text(&built);
            // The round-trip is identity up to single-update-batch
            // normalization: once through the text format, a request is a
            // fixpoint of render → parse.
            prop_assert_eq!(&through_text(&parsed), &parsed);
            parsed
        }).collect();
        for shards in [2, 3] {
            assert_runtime_matches_direct(requests.clone(), shards);
        }
    }
}

/// Deterministic floor under the property test: one script that provably
/// contains every `Request` variant (and both create forms) executes
/// identically — so variant coverage never depends on random draws.
#[test]
fn every_request_variant_round_trips_through_the_runtime() {
    let requests: Vec<Request> = (0u8..10)
        .flat_map(|shape| {
            [
                build_request((shape, u64::from(shape % 3), 1, 0, 1, 2)),
                build_request((shape, u64::from(shape % 3), 2, 1, 2, 3)),
            ]
        })
        .map(|r| through_text(&r))
        .collect();
    // Every enum variant is present.
    let mut seen = [false; 9];
    for request in &requests {
        let idx = match request {
            Request::CreateGraph { .. } => 0,
            Request::DropGraph { .. } => 1,
            Request::ApplyLayered { .. } => 2,
            Request::ApplyLayeredBatch { .. } => 3,
            Request::ApplyGeneral { .. } => 4,
            Request::ApplyGeneralBatch { .. } => 5,
            Request::Count { .. } => 6,
            Request::GetSnapshot { .. } => 7,
            Request::ListGraphs => 8,
        };
        seen[idx] = true;
    }
    assert_eq!(seen, [true; 9], "script must cover every Request variant");
    for shards in [1, 2, 4] {
        assert_runtime_matches_direct(requests.clone(), shards);
    }
}
