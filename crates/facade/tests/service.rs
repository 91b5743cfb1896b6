//! End-to-end acceptance tests for the service layer: catalog scenarios
//! driven through `CycleCountService` against multiple concurrent sessions
//! must agree exactly with driving the underlying counters directly, with
//! epochs counting the applied updates.

use fourcycle::core::{EngineKind, LayeredCycleCounter};
use fourcycle::service::{
    parse_script, CycleCountService, GraphId, Request, Response, ServiceError, WorkloadMode,
};
use fourcycle::workloads::{smoke_catalog, total_updates};

/// Acceptance: a scenario from the catalog runs end-to-end through the
/// service against two concurrent sessions (batches interleaved between
/// them), final counts are identical to driving the counter directly, and
/// each session's `snapshot().epoch` equals the number of applied updates.
#[test]
fn catalog_scenarios_through_two_concurrent_sessions_match_direct_counters() {
    let kind = EngineKind::Threshold;
    for scenario in smoke_catalog(17) {
        let batches = scenario.generate();
        let updates = total_updates(&batches);

        let mut service = CycleCountService::builder()
            .engine(kind)
            .mode(WorkloadMode::Layered)
            .build();
        let tenants = [GraphId(1), GraphId(2)];
        for id in tenants {
            service.create_session(id).unwrap();
        }
        let mut direct = LayeredCycleCounter::new(kind);

        // Interleave: each batch goes to both sessions before the next one,
        // so the two tenants are concurrently mid-stream at all times.
        for batch in &batches {
            for id in tenants {
                let response = service
                    .execute(&Request::ApplyLayeredBatch {
                        id,
                        updates: batch.updates().to_vec(),
                    })
                    .unwrap_or_else(|e| panic!("{}: {e}", scenario.name()));
                assert!(matches!(response, Response::Applied { .. }));
            }
            direct.apply_batch(batch.updates());
        }

        for id in tenants {
            let snapshot = service.snapshot(id).unwrap();
            assert_eq!(
                snapshot.count,
                direct.count(),
                "{}: service session {id} disagrees with the direct counter",
                scenario.name()
            );
            assert_eq!(snapshot.total_edges, direct.total_edges());
            assert_eq!(
                snapshot.epoch,
                updates as u64,
                "{}: epoch must equal the number of applied updates",
                scenario.name()
            );
        }
    }
}

/// A session created with the former join mode's token, `join`, is a
/// layered session: the same stream yields the same count and epoch, and
/// general traffic is refused with the layered mode.
#[test]
fn join_mode_session_agrees_with_layered_mode() {
    let scenario = &smoke_catalog(23)[0];
    let batches = scenario.generate();
    let mut service = CycleCountService::builder()
        .engine(EngineKind::Simple)
        .build();
    service
        .create_session_with(
            GraphId(1),
            fourcycle::service::SessionSpec {
                kind: EngineKind::Simple,
                config: Default::default(),
                mode: WorkloadMode::Layered,
            },
        )
        .unwrap();
    for request in parse_script("create g2 join simple").unwrap() {
        service.execute(&request).unwrap();
    }
    for batch in &batches {
        for id in [GraphId(1), GraphId(2)] {
            service
                .try_apply_layered_batch(id, batch.updates())
                .unwrap();
        }
    }
    let layered = service.snapshot(GraphId(1)).unwrap();
    let join = service.snapshot(GraphId(2)).unwrap();
    assert_eq!(layered.count, join.count);
    assert_eq!(layered.epoch, join.epoch);
    assert_eq!(
        service.try_apply_general(GraphId(2), fourcycle::graph::GraphUpdate::insert(1, 2)),
        Err(ServiceError::ModeMismatch {
            id: GraphId(2),
            mode: WorkloadMode::Layered
        })
    );
}

/// A serialized command stream (the text format) replays against the
/// service and produces first-class errors for ill-formed traffic.
#[test]
fn command_scripts_replay_with_typed_errors() {
    let mut service = CycleCountService::new();
    let responses = service
        .execute_all(
            &parse_script(
                "
                # two tenants, different modes and engines
                create g1 layered simple
                create g2 general threshold
                layered g1 A+1:2 B+2:3 C+3:4 D+4:1
                general g2 +1:2 +2:3 +3:4 +4:1
                count g1
                count g2
                snapshot g2
                list
                ",
            )
            .unwrap(),
        )
        .unwrap();
    assert!(responses.contains(&Response::Count {
        id: GraphId(1),
        count: 1
    }));
    assert!(responses.contains(&Response::Count {
        id: GraphId(2),
        count: 1
    }));
    assert!(responses.contains(&Response::Graphs {
        ids: vec![GraphId(1), GraphId(2)]
    }));

    // Ill-formed traffic surfaces typed errors without corrupting state.
    let duplicate = parse_script("layered g1 A+1:2").unwrap();
    assert_eq!(
        service.execute_all(&duplicate),
        Err(ServiceError::Update(
            fourcycle::service::UpdateError::DuplicateEdge
        ))
    );
    let wrong_mode = parse_script("general g1 +9:10").unwrap();
    assert_eq!(
        service.execute_all(&wrong_mode),
        Err(ServiceError::ModeMismatch {
            id: GraphId(1),
            mode: WorkloadMode::Layered
        })
    );
    let unknown = parse_script("count g99").unwrap();
    assert_eq!(
        service.execute_all(&unknown),
        Err(ServiceError::UnknownGraph(GraphId(99)))
    );
    assert_eq!(service.count(GraphId(1)).unwrap(), 1);
}
