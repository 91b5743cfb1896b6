//! Quick tour of the service layer: multi-tenant sessions, typed errors,
//! atomic batches, epoch-consistent snapshots, and the serialized command
//! format.
//!
//! ```text
//! cargo run -p fourcycle --example service_quickstart
//! ```

use fourcycle::core::EngineKind;
use fourcycle::graph::{GraphUpdate, LayeredUpdate, Rel};
use fourcycle::service::{
    parse_script, CycleCountService, GraphId, Request, SessionSpec, WorkloadMode,
};

fn main() {
    // One service, many tenants. The builder sets the default session spec;
    // individual sessions may override it.
    let mut service = CycleCountService::builder()
        .engine(EngineKind::Fmm)
        .mode(WorkloadMode::General)
        .build();

    let social = GraphId(1); // general graph: 4-cycles in a friendship graph
    let warehouse = GraphId(2); // layered: the cyclic join |A ⋈ B ⋈ C ⋈ D|
    service.create_session(social).expect("fresh id");
    service
        .create_session_with(
            warehouse,
            SessionSpec {
                kind: EngineKind::Threshold,
                config: Default::default(),
                mode: WorkloadMode::Layered,
            },
        )
        .expect("fresh id");

    // Tenant 1: a general graph, updated through typed single calls.
    for (u, v) in [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)] {
        service
            .try_apply_general(social, GraphUpdate::insert(u, v))
            .expect("fresh edges");
    }
    // Errors are values, not silent no-ops:
    let err = service
        .try_apply_general(social, GraphUpdate::insert(1, 2))
        .unwrap_err();
    println!("duplicate insert rejected: {err}");

    // Tenant 2: tuple traffic as one atomic batch. A rejected batch names
    // the offending index and changes nothing.
    let batch: Vec<LayeredUpdate> = vec![
        LayeredUpdate::insert(Rel::A, 10, 20),
        LayeredUpdate::insert(Rel::B, 20, 30),
        LayeredUpdate::insert(Rel::C, 30, 40),
        LayeredUpdate::insert(Rel::D, 40, 10),
    ];
    let count = service
        .try_apply_layered_batch(warehouse, &batch)
        .expect("well-formed batch");
    println!("warehouse join count after batch: {count}");

    // Epoch-consistent reads: one snapshot, no racing a writer between
    // separate count()/work() calls.
    for id in service.ids() {
        let snap = service.snapshot(id).expect("live session");
        println!(
            "{id}: count={} edges={} epoch={} work={}",
            snap.count, snap.total_edges, snap.epoch, snap.work
        );
    }

    // The same traffic can arrive as a serialized command stream.
    let script = "
        create g3 layered simple
        layered g3 A+1:2 B+2:3 C+3:4 D+4:1
        snapshot g3
    ";
    let responses = service
        .execute_all(&parse_script(script).expect("valid script"))
        .expect("valid commands");
    println!("script responses: {responses:?}");

    // Programmatic command values work identically (replayable traffic).
    let response = service
        .execute(&Request::Count { id: GraphId(3) })
        .expect("live session");
    println!("command-driven count: {response:?}");
}
