//! Public-API snapshot test: pins the exported service/counter surface
//! against the checked-in listing `tests/api_surface.txt`.
//!
//! Every entry is *pinned twice*: at compile time (the `pin!` expression
//! references the item with its exact signature, so renaming, removing or
//! changing the type of an entry breaks the build) and at run time (the
//! collected names must equal the listing file, so *adding* surface without
//! updating the listing — or silently dropping a pin — fails the test).
//! Changing the canonical API therefore always shows up as a reviewed
//! one-line diff in `api_surface.txt`.

use fourcycle::core::{
    AutoEngine, BatchError, EngineConfig, EngineKind, FmmConfig, FourCycleCounter, GeneralEngine,
    LayeredCycleCounter, SlowPathStats, Snapshot, ThreePathEngine, UpdateError,
};
use fourcycle::graph::{GraphUpdate, LayeredUpdate, Rel, UpdateOp};
use fourcycle::runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle::server::{Client, ClientError, Server, ServerConfig, WireError};
use fourcycle::service::{
    CheckpointImage, CycleCountService, GraphId, JournalSink, ParseError, Request, Response,
    ServiceBuilder, ServiceError, SessionImage, SessionSpec, WorkloadMode,
};
use fourcycle::store::{FsyncPolicy, JournalConfig, JournalStore, ShardJournal, StoreError};
use fourcycle::telemetry::{ServerStats, ShardStats, TelemetrySnapshot};

/// Records `$name` after forcing a compile-time reference to `$item`
/// (usually a function pointer with the exact public signature).
macro_rules! pin {
    ($names:ident, $name:literal, $item:expr) => {{
        #[allow(clippy::redundant_closure)]
        let _ = $item;
        $names.push($name);
    }};
}

/// Records a type's presence (and `'static`-ness) by name.
fn pin_type<T: 'static>(names: &mut Vec<&'static str>, name: &'static str) {
    let _ = std::any::TypeId::of::<T>();
    names.push(name);
}

fn surface() -> Vec<&'static str> {
    let mut n = Vec::new();

    // --- service layer: the canonical application API -------------------
    pin_type::<CycleCountService>(&mut n, "service::CycleCountService");
    pin_type::<ServiceBuilder>(&mut n, "service::ServiceBuilder");
    pin_type::<GraphId>(&mut n, "service::GraphId");
    pin_type::<WorkloadMode>(&mut n, "service::WorkloadMode");
    pin_type::<SessionSpec>(&mut n, "service::SessionSpec");
    pin_type::<ServiceError>(&mut n, "service::ServiceError");
    pin_type::<Request>(&mut n, "service::Request");
    pin_type::<Response>(&mut n, "service::Response");
    pin_type::<ParseError>(&mut n, "service::ParseError");
    pin!(
        n,
        "service::CycleCountService::builder",
        CycleCountService::builder as fn() -> ServiceBuilder
    );
    pin!(
        n,
        "service::ServiceBuilder::engine",
        ServiceBuilder::engine as fn(ServiceBuilder, EngineKind) -> ServiceBuilder
    );
    pin!(
        n,
        "service::ServiceBuilder::config",
        ServiceBuilder::config as fn(ServiceBuilder, EngineConfig) -> ServiceBuilder
    );
    pin!(
        n,
        "service::ServiceBuilder::mode",
        ServiceBuilder::mode as fn(ServiceBuilder, WorkloadMode) -> ServiceBuilder
    );
    pin!(
        n,
        "service::ServiceBuilder::build",
        ServiceBuilder::build as fn(ServiceBuilder) -> CycleCountService
    );
    pin!(
        n,
        "service::CycleCountService::create_session",
        CycleCountService::create_session
            as fn(&mut CycleCountService, GraphId) -> Result<(), ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::create_session_with",
        CycleCountService::create_session_with
            as fn(&mut CycleCountService, GraphId, SessionSpec) -> Result<(), ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::drop_session",
        CycleCountService::drop_session
            as fn(&mut CycleCountService, GraphId) -> Result<(), ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::count",
        CycleCountService::count as fn(&CycleCountService, GraphId) -> Result<i64, ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::epoch",
        CycleCountService::epoch as fn(&CycleCountService, GraphId) -> Result<u64, ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::snapshot",
        CycleCountService::snapshot
            as fn(&CycleCountService, GraphId) -> Result<Snapshot, ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::try_apply_layered",
        CycleCountService::try_apply_layered
            as fn(&mut CycleCountService, GraphId, LayeredUpdate) -> Result<i64, ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::try_apply_layered_batch",
        CycleCountService::try_apply_layered_batch
            as fn(&mut CycleCountService, GraphId, &[LayeredUpdate]) -> Result<i64, ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::try_apply_general",
        CycleCountService::try_apply_general
            as fn(&mut CycleCountService, GraphId, GraphUpdate) -> Result<i64, ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::try_apply_general_batch",
        CycleCountService::try_apply_general_batch
            as fn(&mut CycleCountService, GraphId, &[GraphUpdate]) -> Result<i64, ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::execute",
        CycleCountService::execute
            as fn(&mut CycleCountService, &Request) -> Result<Response, ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::execute_all",
        CycleCountService::execute_all
            as fn(&mut CycleCountService, &[Request]) -> Result<Vec<Response>, ServiceError>
    );
    pin!(
        n,
        "service::parse_request",
        fourcycle::service::parse_request as fn(&str) -> Result<Request, ParseError>
    );
    pin!(
        n,
        "service::parse_script",
        fourcycle::service::parse_script as fn(&str) -> Result<Vec<Request>, ParseError>
    );
    pin!(
        n,
        "service::render_request",
        fourcycle::service::render_request as fn(&Request) -> String
    );
    // --- the wire: response framing and the network front door (PR 8) ---
    pin!(
        n,
        "service::render_response",
        fourcycle::service::render_response as fn(&Response) -> String
    );
    pin!(
        n,
        "service::parse_response",
        fourcycle::service::parse_response as fn(&str) -> Result<Response, ParseError>
    );
    pin!(
        n,
        "service::response_extra_lines",
        fourcycle::service::response_extra_lines as fn(&str) -> Result<usize, ParseError>
    );
    pin_type::<Server>(&mut n, "server::Server");
    pin_type::<ServerConfig>(&mut n, "server::ServerConfig");
    pin_type::<Client>(&mut n, "server::Client");
    pin_type::<ClientError>(&mut n, "server::ClientError");
    pin_type::<WireError>(&mut n, "server::WireError");
    pin!(
        n,
        "server::Server::start",
        Server::start as fn(ServerConfig, ShardedRuntime) -> std::io::Result<Server>
    );
    pin!(
        n,
        "server::Server::shutdown",
        Server::shutdown as fn(Server) -> TelemetrySnapshot
    );
    pin!(
        n,
        "server::Server::{stats,report}",
        (
            Server::stats as fn(&Server) -> ServerStats,
            Server::report as fn(&Server) -> TelemetrySnapshot,
        )
    );
    pin!(
        n,
        "server::Client::call",
        Client::call as fn(&mut Client, &Request) -> Result<Response, ClientError>
    );
    pin!(
        n,
        "server::Client::pipeline",
        Client::pipeline
            as fn(&mut Client, &[Request]) -> Result<Vec<Result<Response, WireError>>, ClientError>
    );
    pin!(
        n,
        "server::WireError::{code,retryable,command_applied}",
        |e: &WireError| (e.code(), e.retryable(), e.command_applied())
    );

    // --- journaling hook and durable store -------------------------------
    pin_type::<CheckpointImage>(&mut n, "service::CheckpointImage");
    pin_type::<SessionImage>(&mut n, "service::SessionImage");
    fn pin_sink<T: JournalSink>() {}
    let _ = pin_sink::<ShardJournal>;
    n.push("service::JournalSink");
    pin!(
        n,
        "service::Request::is_mutation",
        Request::is_mutation as fn(&Request) -> bool
    );
    pin!(
        n,
        "service::CycleCountService::attach_journal",
        CycleCountService::attach_journal as fn(&mut CycleCountService, Box<dyn JournalSink>)
    );
    pin!(
        n,
        "service::CycleCountService::detach_journal",
        CycleCountService::detach_journal
            as fn(&mut CycleCountService) -> Option<Box<dyn JournalSink>>
    );
    pin!(
        n,
        "service::CycleCountService::sync_journal",
        CycleCountService::sync_journal as fn(&mut CycleCountService) -> Result<(), ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::checkpoint",
        CycleCountService::checkpoint as fn(&mut CycleCountService) -> Result<bool, ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::checkpoint_image",
        CycleCountService::checkpoint_image as fn(&CycleCountService) -> CheckpointImage
    );
    pin!(
        n,
        "service::CycleCountService::restore_epoch",
        CycleCountService::restore_epoch
            as fn(&mut CycleCountService, GraphId, u64) -> Result<(), ServiceError>
    );
    // --- group commit ----------------------------------------------------
    pin!(
        n,
        "service::CycleCountService::journal_record_applied",
        CycleCountService::journal_record_applied
            as fn(&mut CycleCountService, &Request) -> Result<(), ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::journal_commit_group",
        CycleCountService::journal_commit_group
            as fn(&mut CycleCountService) -> Result<u64, ServiceError>
    );
    pin!(
        n,
        "service::CycleCountService::journal_fsyncs",
        CycleCountService::journal_fsyncs as fn(&CycleCountService) -> u64
    );
    pin!(
        n,
        "store::FsyncPolicy::group_commit",
        FsyncPolicy::group_commit as fn() -> FsyncPolicy
    );
    pin!(
        n,
        "runtime::RuntimeConfig::mailbox_depth",
        RuntimeConfig::mailbox_depth as fn(RuntimeConfig, usize) -> RuntimeConfig
    );
    pin!(
        n,
        "runtime::ShardedRuntime::{report,shutdown}",
        (
            ShardedRuntime::report as fn(&ShardedRuntime) -> TelemetrySnapshot,
            ShardedRuntime::shutdown as fn(ShardedRuntime) -> TelemetrySnapshot,
        )
    );
    pin_type::<TelemetrySnapshot>(&mut n, "telemetry::TelemetrySnapshot");
    pin_type::<ShardStats>(&mut n, "telemetry::ShardStats");
    pin_type::<ServerStats>(&mut n, "telemetry::ServerStats");
    pin!(
        n,
        "telemetry::TelemetrySnapshot::{per_shard,totals,server}",
        |s: &TelemetrySnapshot| (s.per_shard.len(), s.totals, s.server)
    );
    pin!(
        n,
        "telemetry::ShardStats::{groups,journal_fsyncs,queue_full_stalls}",
        |s: &ShardStats| (s.groups, s.journal_fsyncs, s.queue_full_stalls)
    );
    pin!(
        n,
        "telemetry::ServerStats::{commands,bytes_in,bytes_out}",
        |s: &ServerStats| (s.commands, s.bytes_in, s.bytes_out)
    );

    pin_type::<JournalConfig>(&mut n, "store::JournalConfig");
    pin_type::<FsyncPolicy>(&mut n, "store::FsyncPolicy");
    pin_type::<JournalStore>(&mut n, "store::JournalStore");
    pin_type::<ShardJournal>(&mut n, "store::ShardJournal");
    pin_type::<StoreError>(&mut n, "store::StoreError");
    pin!(
        n,
        "store::JournalStore::open",
        JournalStore::open
            as fn(JournalConfig, usize, SessionSpec) -> Result<JournalStore, StoreError>
    );
    pin!(
        n,
        "store::JournalStore::resume",
        JournalStore::resume as fn(JournalConfig) -> Result<JournalStore, StoreError>
    );
    pin!(
        n,
        "store::JournalStore::open_shard",
        JournalStore::open_shard
            as fn(&JournalStore, usize) -> Result<CycleCountService, StoreError>
    );
    pin!(
        n,
        "store::JournalStore::recover_shard",
        JournalStore::recover_shard
            as fn(&JournalStore, usize) -> Result<CycleCountService, StoreError>
    );
    pin!(
        n,
        "store::JournalStore::recover",
        JournalStore::recover as fn(&JournalStore) -> Result<CycleCountService, StoreError>
    );

    // --- error model and shared value types -----------------------------
    pin_type::<UpdateError>(&mut n, "core::UpdateError");
    pin_type::<BatchError>(&mut n, "core::BatchError");
    pin_type::<Snapshot>(&mut n, "core::Snapshot");
    pin_type::<SlowPathStats>(&mut n, "core::SlowPathStats");
    pin_type::<EngineKind>(&mut n, "core::EngineKind");
    pin_type::<EngineConfig>(&mut n, "core::EngineConfig");
    pin!(
        n,
        "core::EngineKind::build",
        EngineKind::build as fn(EngineKind) -> Box<dyn ThreePathEngine>
    );
    pin!(
        n,
        "core::EngineKind::build_with",
        EngineKind::build_with as fn(EngineKind, &EngineConfig) -> Box<dyn ThreePathEngine>
    );
    pin!(n, "core::EngineKind::Auto", EngineKind::Auto);
    pin_type::<AutoEngine>(&mut n, "core::AutoEngine");
    pin!(
        n,
        "core::AutoEngine::new",
        AutoEngine::new as fn(FmmConfig) -> AutoEngine
    );
    pin!(
        n,
        "core::AutoEngine::switched",
        AutoEngine::switched as fn(&AutoEngine) -> bool
    );

    // --- layered counter -------------------------------------------------
    pin!(
        n,
        "core::LayeredCycleCounter::new",
        LayeredCycleCounter::new as fn(EngineKind) -> LayeredCycleCounter
    );
    pin!(
        n,
        "core::LayeredCycleCounter::with_config",
        LayeredCycleCounter::with_config as fn(EngineKind, &EngineConfig) -> LayeredCycleCounter
    );
    pin!(
        n,
        "core::LayeredCycleCounter::apply",
        LayeredCycleCounter::apply as fn(&mut LayeredCycleCounter, LayeredUpdate) -> Option<i64>
    );
    pin!(
        n,
        "core::LayeredCycleCounter::try_apply",
        LayeredCycleCounter::try_apply
            as fn(&mut LayeredCycleCounter, LayeredUpdate) -> Result<i64, UpdateError>
    );
    pin!(
        n,
        "core::LayeredCycleCounter::apply_batch",
        LayeredCycleCounter::apply_batch as fn(&mut LayeredCycleCounter, &[LayeredUpdate]) -> i64
    );
    pin!(
        n,
        "core::LayeredCycleCounter::try_apply_batch",
        LayeredCycleCounter::try_apply_batch
            as fn(&mut LayeredCycleCounter, &[LayeredUpdate]) -> Result<i64, BatchError>
    );
    pin!(
        n,
        "core::LayeredCycleCounter::count",
        LayeredCycleCounter::count as fn(&LayeredCycleCounter) -> i64
    );
    pin!(
        n,
        "core::LayeredCycleCounter::edges",
        LayeredCycleCounter::edges as fn(&LayeredCycleCounter, Rel) -> Vec<(u32, u32)>
    );
    pin!(
        n,
        "core::LayeredCycleCounter::total_edges",
        LayeredCycleCounter::total_edges as fn(&LayeredCycleCounter) -> usize
    );
    pin!(
        n,
        "core::LayeredCycleCounter::work",
        LayeredCycleCounter::work as fn(&LayeredCycleCounter) -> u64
    );
    pin!(
        n,
        "core::LayeredCycleCounter::slow_path_stats",
        LayeredCycleCounter::slow_path_stats as fn(&LayeredCycleCounter) -> SlowPathStats
    );
    pin!(
        n,
        "core::LayeredCycleCounter::epoch",
        LayeredCycleCounter::epoch as fn(&LayeredCycleCounter) -> u64
    );
    pin!(
        n,
        "core::LayeredCycleCounter::snapshot",
        LayeredCycleCounter::snapshot as fn(&LayeredCycleCounter) -> Snapshot
    );

    // --- general counter (§8 reduction) ----------------------------------
    pin!(
        n,
        "core::FourCycleCounter::new",
        FourCycleCounter::new as fn(EngineKind) -> FourCycleCounter
    );
    pin!(
        n,
        "core::FourCycleCounter::with_config",
        FourCycleCounter::with_config as fn(EngineKind, &EngineConfig) -> FourCycleCounter
    );
    pin!(
        n,
        "core::FourCycleCounter::insert",
        FourCycleCounter::insert as fn(&mut FourCycleCounter, u32, u32) -> Option<i64>
    );
    pin!(
        n,
        "core::FourCycleCounter::delete",
        FourCycleCounter::delete as fn(&mut FourCycleCounter, u32, u32) -> Option<i64>
    );
    pin!(
        n,
        "core::FourCycleCounter::try_insert",
        FourCycleCounter::try_insert
            as fn(&mut FourCycleCounter, u32, u32) -> Result<i64, UpdateError>
    );
    pin!(
        n,
        "core::FourCycleCounter::try_delete",
        FourCycleCounter::try_delete
            as fn(&mut FourCycleCounter, u32, u32) -> Result<i64, UpdateError>
    );
    pin!(
        n,
        "core::FourCycleCounter::apply",
        FourCycleCounter::apply as fn(&mut FourCycleCounter, GraphUpdate) -> Option<i64>
    );
    pin!(
        n,
        "core::FourCycleCounter::try_apply",
        FourCycleCounter::try_apply
            as fn(&mut FourCycleCounter, GraphUpdate) -> Result<i64, UpdateError>
    );
    pin!(
        n,
        "core::FourCycleCounter::apply_batch",
        FourCycleCounter::apply_batch as fn(&mut FourCycleCounter, &[GraphUpdate]) -> i64
    );
    pin!(
        n,
        "core::FourCycleCounter::try_apply_batch",
        FourCycleCounter::try_apply_batch
            as fn(&mut FourCycleCounter, &[GraphUpdate]) -> Result<i64, BatchError>
    );
    pin!(
        n,
        "core::FourCycleCounter::count",
        FourCycleCounter::count as fn(&FourCycleCounter) -> i64
    );
    pin!(
        n,
        "core::FourCycleCounter::edges",
        FourCycleCounter::edges as fn(&FourCycleCounter) -> Vec<(u32, u32)>
    );
    pin!(
        n,
        "core::FourCycleCounter::total_edges",
        FourCycleCounter::total_edges as fn(&FourCycleCounter) -> usize
    );
    pin!(
        n,
        "core::FourCycleCounter::epoch",
        FourCycleCounter::epoch as fn(&FourCycleCounter) -> u64
    );
    pin!(
        n,
        "core::FourCycleCounter::snapshot",
        FourCycleCounter::snapshot as fn(&FourCycleCounter) -> Snapshot
    );
    pin_type::<GeneralEngine>(&mut n, "core::GeneralEngine");
    pin!(
        n,
        "core::GeneralEngine::build",
        GeneralEngine::build as fn(EngineKind, &EngineConfig) -> GeneralEngine
    );
    pin!(
        n,
        "core::GeneralEngine::{update,query,has_edge,edges}",
        (
            GeneralEngine::update as fn(&mut GeneralEngine, u32, u32, UpdateOp),
            GeneralEngine::query as fn(&mut GeneralEngine, u32, u32) -> i64,
            GeneralEngine::has_edge as fn(&GeneralEngine, u32, u32) -> bool,
            GeneralEngine::edges as fn(&GeneralEngine) -> Vec<(u32, u32)>,
        )
    );
    pin!(
        n,
        "core::GeneralEngine::Auto",
        GeneralEngine::Auto as fn(Box<AutoEngine>) -> GeneralEngine
    );

    n
}

#[test]
fn api_surface_matches_checked_in_listing() {
    let expected: Vec<&str> = include_str!("api_surface.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    let actual = surface();
    assert_eq!(
        actual, expected,
        "exported service/counter surface drifted from tests/api_surface.txt — \
         if the change is intentional, update the listing in the same commit"
    );
}
