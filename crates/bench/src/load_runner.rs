//! Closed-loop load generation against the sharded runtime.
//!
//! [`LoadRunner`] is the measurement half of the `fourcycle-runtime`
//! subsystem: it starts a [`ShardedRuntime`], spawns `K` client threads
//! each owning `M` independent graph sessions, and drives catalog
//! scenarios through the runtime's blocking `call` path — *closed loop*:
//! every client waits for each command's reply before issuing the next, so
//! offered load adapts to service rate and the measured latencies are
//! honest round-trip times rather than queue-buildup artifacts.
//!
//! One run produces a [`LoadReport`]: aggregate throughput (updates and
//! requests per second), merged per-request latency percentiles
//! (p50/p90/p99/max via [`LatencySummary`]), the runtime's final
//! [`TelemetrySnapshot`] (per-stage latency histograms, per-shard and
//! front-door counters), and every session's final epoch-stamped
//! [`Snapshot`] — which the differential tests (and
//! [`replay_single_threaded`]) compare against a plain single-threaded
//! `CycleCountService` replay of the same scenario, proving concurrent
//! execution changes nothing but the clock.
//!
//! The `loadgen` binary sweeps shard counts and writes the JSON report
//! (`render_load_json`) under `target/scenario-reports/`.

use crate::scenario_runner::LatencySummary;
use fourcycle_core::{EngineKind, Snapshot};
use fourcycle_graph::UpdateBatch;
use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
use fourcycle_server::{Client, ClientError, Server, ServerConfig, WireError};
use fourcycle_service::{CycleCountService, GraphId, Request, Response, SessionSpec, WorkloadMode};
use fourcycle_store::{FsyncPolicy, JournalConfig};
use fourcycle_telemetry::{expose, Stage, TelemetrySnapshot};
use fourcycle_workloads::{total_updates, Scenario};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How load clients reach the runtime under test.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Transport {
    /// Clients call the [`ShardedRuntime`] handle directly (the PR4/PR6
    /// measurement: no sockets, no parsing).
    #[default]
    InProcess,
    /// Clients are real TCP connections to an in-process
    /// `fourcycle-server` on a loopback port: every command is rendered,
    /// framed, parsed, and answered over a socket — the full front-door
    /// cost (`err busy` rejections are retried by the client, closed
    /// loop).
    Tcp,
}

impl Transport {
    /// Short label for reports (`"inproc"` / `"tcp"` — the vocabulary
    /// `loadgen --transport` accepts and its JSON report records).
    pub fn label(&self) -> &'static str {
        match self {
            Transport::InProcess => "inproc",
            Transport::Tcp => "tcp",
        }
    }
}

/// Shape of one load-generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadConfig {
    /// Shard workers in the runtime under test.
    pub shards: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Independent graph sessions per client.
    pub sessions_per_client: usize,
    /// Bounded mailbox depth per shard.
    pub mailbox_depth: usize,
    /// Engine all sessions are built with.
    pub engine: EngineKind,
    /// `Some(policy)`: run against a journaled store (a throwaway
    /// directory under the system temp dir, removed after the run) with
    /// this fsync policy. `None`: memory-only.
    pub journal: Option<FsyncPolicy>,
    /// How clients reach the runtime (in-process calls or real sockets).
    pub transport: Transport,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            clients: 4,
            sessions_per_client: 2,
            mailbox_depth: 64,
            engine: EngineKind::Threshold,
            journal: None,
            transport: Transport::InProcess,
        }
    }
}

impl LoadConfig {
    /// Total sessions across all clients.
    pub fn total_sessions(&self) -> usize {
        self.clients * self.sessions_per_client
    }

    /// Short label for the journal arm of this config (`"none"`,
    /// `"every1"`, `"every64"`, `"group"`, `"shutdown"` — the vocabulary
    /// `loadgen --journal` accepts and its JSON report records).
    pub fn journal_label(&self) -> String {
        match self.journal {
            None => "none".into(),
            Some(FsyncPolicy::EveryN(n)) => format!("every{}", n.max(1)),
            Some(FsyncPolicy::GroupCommit { .. }) => "group".into(),
            Some(FsyncPolicy::OnShutdown) => "shutdown".into(),
        }
    }
}

/// Final state of one session after a run — the unit the differential
/// tests compare against single-threaded replay.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The session's graph id.
    pub graph: GraphId,
    /// Name of the scenario the session replayed.
    pub scenario: &'static str,
    /// Index into the scenario list the run was driven with.
    pub scenario_index: usize,
    /// The session's final epoch-stamped snapshot, read through the
    /// runtime.
    pub snapshot: Snapshot,
}

/// Everything one load-generation run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// The run's configuration.
    pub config: LoadConfig,
    /// Requests submitted by clients (creates + applies + snapshots).
    pub requests: u64,
    /// Updates carried by those requests.
    pub updates: u64,
    /// Wall-clock seconds from first to last client action.
    pub seconds: f64,
    /// Requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Updates per wall-clock second — the headline throughput.
    pub updates_per_sec: f64,
    /// Per-request round-trip latency percentiles, merged over all clients.
    pub latency: LatencySummary,
    /// Hardware parallelism of the host the run executed on
    /// (`std::thread::available_parallelism`; 0 when the OS won't say).
    pub cores: usize,
    /// The runtime's final telemetry snapshot: stage histograms, shard
    /// counters and, for [`Transport::Tcp`] runs, the server's front-door
    /// counters.
    pub telemetry: TelemetrySnapshot,
    /// Final state of every session.
    pub sessions: Vec<SessionOutcome>,
}

/// Drives closed-loop scenario traffic through a [`ShardedRuntime`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadRunner {
    config: LoadConfig,
}

/// One session's pre-generated work: the batches it will apply, in order.
struct SessionPlan {
    graph: GraphId,
    scenario: &'static str,
    scenario_index: usize,
    batches: Vec<UpdateBatch>,
}

/// What one client thread measured.
struct ClientResult {
    latencies: Vec<f64>,
    requests: u64,
    updates: u64,
    outcomes: Vec<SessionOutcome>,
}

/// Drives one client's sessions closed-loop through `raw_call` — creates,
/// round-robin batch interleaving, final snapshots — accounting each
/// request's round-trip latency. Both transports share this loop; only
/// `raw_call` differs (a runtime handle vs. a TCP [`Client`]).
fn drive_plans(
    sessions: &[SessionPlan],
    mut raw_call: impl FnMut(Request) -> Response,
) -> ClientResult {
    let mut latencies = Vec::new();
    let mut requests = 0u64;
    let mut updates = 0u64;
    let mut call = |request: Request| {
        let update_count = request.update_count() as u64;
        let sent = Instant::now();
        let response = raw_call(request);
        latencies.push(sent.elapsed().as_secs_f64());
        requests += 1;
        updates += update_count;
        response
    };
    for plan in sessions {
        call(Request::CreateGraph {
            id: plan.graph,
            spec: None,
        });
    }
    // Interleave sessions round-robin, one batch at a time, closed loop.
    let rounds = sessions.iter().map(|p| p.batches.len()).max().unwrap_or(0);
    for round in 0..rounds {
        for plan in sessions {
            if let Some(batch) = plan.batches.get(round) {
                call(Request::ApplyLayeredBatch {
                    id: plan.graph,
                    updates: batch.updates().to_vec(),
                });
            }
        }
    }
    let outcomes = sessions
        .iter()
        .map(|plan| {
            let snapshot = match call(Request::GetSnapshot { id: plan.graph }) {
                Response::Snapshot { snapshot, .. } => snapshot,
                other => panic!("expected snapshot, got {other:?}"),
            };
            SessionOutcome {
                graph: plan.graph,
                scenario: plan.scenario,
                scenario_index: plan.scenario_index,
                snapshot,
            }
        })
        .collect();
    ClientResult {
        latencies,
        requests,
        updates,
        outcomes,
    }
}

impl LoadRunner {
    /// A runner with the given configuration.
    pub fn new(config: LoadConfig) -> Self {
        Self { config }
    }

    /// The configuration runs will use.
    pub fn config(&self) -> LoadConfig {
        self.config
    }

    /// Runs one closed-loop load generation: sessions are assigned
    /// round-robin over `scenarios` (session `i` replays scenario
    /// `i % scenarios.len()`), each client interleaves its sessions batch
    /// by batch, and every command round-trips through the runtime before
    /// the next is issued.
    ///
    /// Scenario streams are generated outside the timed region; the timed
    /// region covers session creation, every apply, and the final
    /// snapshot reads.
    pub fn run(&self, scenarios: &[Box<dyn Scenario>]) -> LoadReport {
        assert!(!scenarios.is_empty(), "need at least one scenario");
        let cfg = self.config;
        let spec = SessionSpec {
            kind: cfg.engine,
            mode: WorkloadMode::Layered,
            ..SessionSpec::default()
        };
        let mut runtime_config = RuntimeConfig::new()
            .shards(cfg.shards)
            .mailbox_depth(cfg.mailbox_depth)
            .spec(spec);
        // Journaled runs get a throwaway directory: the measurement is the
        // fsync policy's cost, not the recovered state, so the directory is
        // fresh per run and removed afterwards.
        let journal_dir = cfg.journal.map(|policy| {
            static RUN: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "fourcycle-loadgen-{}-{}",
                std::process::id(),
                RUN.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            runtime_config = runtime_config
                .clone()
                .journal(JournalConfig::new(&dir).fsync(policy));
            dir
        });
        let runtime = ShardedRuntime::start(runtime_config);

        // Pre-generate every session's stream (not timed).
        let mut plans: Vec<Vec<SessionPlan>> = (0..cfg.clients)
            .map(|client| {
                (0..cfg.sessions_per_client)
                    .map(|slot| {
                        let index = client * cfg.sessions_per_client + slot;
                        let scenario_index = index % scenarios.len();
                        let scenario = &scenarios[scenario_index];
                        SessionPlan {
                            graph: GraphId(index as u64 + 1),
                            scenario: scenario.name(),
                            scenario_index,
                            batches: scenario.generate(),
                        }
                    })
                    .collect()
            })
            .collect();

        let (results, seconds, telemetry) = match cfg.transport {
            Transport::InProcess => {
                let started = Instant::now();
                let results: Vec<ClientResult> = std::thread::scope(|scope| {
                    let handles: Vec<_> = plans
                        .drain(..)
                        .map(|sessions| {
                            let runtime = &runtime;
                            scope.spawn(move || {
                                drive_plans(&sessions, |request| {
                                    runtime
                                        .call(request)
                                        .unwrap_or_else(|e| panic!("load request failed: {e}"))
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("load client panicked"))
                        .collect()
                });
                let seconds = started.elapsed().as_secs_f64();
                (results, seconds, runtime.shutdown())
            }
            Transport::Tcp => {
                // The runtime moves behind a real listener on a loopback
                // port; every client below is a separate TCP connection.
                let server =
                    Server::start(ServerConfig::new(), runtime).expect("bind loopback load server");
                let addr = server.local_addr();
                let started = Instant::now();
                let results: Vec<ClientResult> = std::thread::scope(|scope| {
                    let handles: Vec<_> = plans
                        .drain(..)
                        .map(|sessions| {
                            scope.spawn(move || {
                                let mut client =
                                    Client::connect(addr).expect("connect load client");
                                drive_plans(&sessions, |request| loop {
                                    match client.call(&request) {
                                        Ok(response) => break response,
                                        // `busy` = not executed: a closed-
                                        // loop client just retries, and the
                                        // stall stays inside this request's
                                        // measured latency.
                                        Err(ClientError::Wire(WireError::Busy)) => {
                                            std::thread::yield_now();
                                        }
                                        Err(e) => panic!("socket load request failed: {e}"),
                                    }
                                })
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("load client panicked"))
                        .collect()
                });
                let seconds = started.elapsed().as_secs_f64();
                // Front-door accounting must agree with the clients: the
                // `metrics json` document parses with the in-tree JSON
                // reader and its command total equals what the clients
                // submitted.
                let requests: u64 = results.iter().map(|r| r.requests).sum();
                let mut probe = Client::connect(addr).expect("connect metrics probe");
                let metrics = probe.metrics().expect("metrics document parses");
                let wire_commands = metrics
                    .get("server")
                    .and_then(|s| s.get("commands"))
                    .and_then(|c| c.as_u64())
                    .expect("metrics.server.commands present");
                assert_eq!(
                    wire_commands, requests,
                    "server command total diverged from client submissions"
                );
                drop(probe);
                (results, seconds, server.shutdown())
            }
        };
        if let Some(dir) = journal_dir {
            let _ = std::fs::remove_dir_all(dir);
        }

        let mut latencies = Vec::new();
        let mut sessions = Vec::new();
        let (mut requests, mut updates) = (0u64, 0u64);
        for mut result in results {
            latencies.append(&mut result.latencies);
            sessions.extend(result.outcomes);
            requests += result.requests;
            updates += result.updates;
        }
        sessions.sort_by_key(|o| o.graph);
        let per_sec = |n: u64| {
            if seconds > 0.0 {
                n as f64 / seconds
            } else {
                0.0
            }
        };
        LoadReport {
            config: cfg,
            requests,
            updates,
            seconds,
            requests_per_sec: per_sec(requests),
            updates_per_sec: per_sec(updates),
            latency: LatencySummary::from_latencies(&latencies),
            cores: available_cores(),
            telemetry,
            sessions,
        }
    }
}

/// Hardware threads of the host, `0` when the OS refuses to say (the
/// report records it so a result states what it ran on).
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Replays one scenario's pre-generated stream through a plain
/// single-threaded [`CycleCountService`] and returns the final snapshot —
/// the ground truth the concurrent runtime must reproduce exactly.
pub fn replay_single_threaded(engine: EngineKind, batches: &[UpdateBatch]) -> Snapshot {
    let mut service = CycleCountService::builder()
        .engine(engine)
        .mode(WorkloadMode::Layered)
        .build();
    let graph = GraphId(0);
    service.create_session(graph).expect("fresh service");
    for batch in batches {
        service
            .try_apply_layered_batch(graph, batch.updates())
            .expect("scenario streams are well-formed");
    }
    let snapshot = service.snapshot(graph).expect("live session");
    debug_assert_eq!(snapshot.epoch as usize, total_updates(batches));
    snapshot
}

/// Renders a shard-count sweep as a JSON array (hand-rolled like
/// `render_json` in [`crate::scenario_runner`]; the workspace vendors no
/// serialization crate).
pub fn render_load_json(reports: &[LoadReport]) -> String {
    let entries: Vec<String> = reports
        .iter()
        .map(|r| {
            let shards: Vec<String> = r
                .telemetry
                .per_shard
                .iter()
                .map(|s| {
                    let counters = expose::json_fields(&s.fields());
                    format!("{{{counters}, \"utilization\": {:.4}}}", s.utilization())
                })
                .collect();
            format!(
                concat!(
                    "  {{\"shards\": {}, \"cores\": {}, ",
                    "\"clients\": {}, \"sessions\": {}, ",
                    "\"engine\": \"{}\", \"journal\": \"{}\", ",
                    "\"transport\": \"{}\", ",
                    "\"requests\": {}, \"updates\": {}, ",
                    "\"seconds\": {:.6}, \"requests_per_sec\": {:.1}, ",
                    "\"updates_per_sec\": {:.1}, \"journal_fsyncs\": {}, ",
                    "\"groups\": {}, ",
                    "\"latency_seconds\": {{\"mean\": {:.9}, \"p50\": {:.9}, ",
                    "\"p90\": {:.9}, \"p99\": {:.9}, \"max\": {:.9}}}, ",
                    "\"per_shard\": [{}]}}"
                ),
                r.config.shards,
                r.cores,
                r.config.clients,
                r.config.total_sessions(),
                r.config.engine.name(),
                r.config.journal_label(),
                r.config.transport.label(),
                r.requests,
                r.updates,
                r.seconds,
                r.requests_per_sec,
                r.updates_per_sec,
                r.telemetry.totals.journal_fsyncs,
                r.telemetry.totals.groups,
                r.latency.mean,
                r.latency.p50,
                r.latency.p90,
                r.latency.p99,
                r.latency.max,
                shards.join(", "),
            )
        })
        .collect();
    format!("[\n{}\n]\n", entries.join(",\n"))
}

/// Renders a shard-count sweep as an aligned text table.
pub fn render_load_table(reports: &[LoadReport]) -> String {
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.config.shards.to_string(),
                r.config.journal_label(),
                r.config.transport.label().to_string(),
                r.config.clients.to_string(),
                r.config.total_sessions().to_string(),
                r.requests.to_string(),
                r.updates.to_string(),
                format!("{:.0}", r.updates_per_sec),
                format!("{:.1}", r.latency.p50 * 1e6),
                format!("{:.1}", r.latency.p90 * 1e6),
                format!("{:.1}", r.latency.p99 * 1e6),
                r.telemetry.totals.journal_fsyncs.to_string(),
                r.telemetry.totals.queue_full_stalls.to_string(),
                format!("{:.0}%", r.telemetry.totals.utilization() * 100.0),
            ]
        })
        .collect();
    crate::harness::format_table(
        &[
            "shards", "journal", "wire", "clients", "sessions", "requests", "updates", "upd/s",
            "p50(µs)", "p90(µs)", "p99(µs)", "fsyncs", "stalls", "busy",
        ],
        &rows,
    )
}

/// Renders a telemetry snapshot's per-stage latency breakdown (merged
/// over shards) as an aligned text table, printed after every `loadgen`
/// sweep point. All figures are nanoseconds from the log-scale histograms
/// (bucket floors, ≤12.5% relative error).
pub fn render_stage_table(snapshot: &TelemetrySnapshot) -> String {
    let rows: Vec<Vec<String>> = Stage::ALL
        .iter()
        .map(|&stage| {
            let h = snapshot.stage_total(stage);
            vec![
                stage.name().to_string(),
                h.count().to_string(),
                h.mean().to_string(),
                h.p50().to_string(),
                h.p90().to_string(),
                h.p99().to_string(),
                h.max.to_string(),
            ]
        })
        .collect();
    crate::harness::format_table(
        &[
            "stage", "count", "mean(ns)", "p50(ns)", "p90(ns)", "p99(ns)", "max(ns)",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_workloads::smoke_catalog;

    /// The closed-loop accounting adds up: client-side request/update
    /// totals equal the runtime's own counters, and the latency sample
    /// count matches the request count.
    #[test]
    fn load_run_accounting_is_consistent() {
        let scenarios = smoke_catalog(13);
        let config = LoadConfig {
            shards: 2,
            clients: 2,
            sessions_per_client: 2,
            mailbox_depth: 8,
            engine: EngineKind::Simple,
            ..LoadConfig::default()
        };
        let report = LoadRunner::new(config).run(&scenarios);
        assert_eq!(report.sessions.len(), 4);
        assert_eq!(report.telemetry.totals.commands, report.requests);
        assert_eq!(report.telemetry.totals.updates_applied, report.updates);
        assert_eq!(report.telemetry.totals.rejected, 0);
        assert_eq!(report.telemetry.per_shard.len(), 2);
        assert!(report.updates_per_sec > 0.0);
        assert!(report.latency.max >= report.latency.p50);
        // Every session ends at its scenario's epoch.
        for outcome in &report.sessions {
            assert!(outcome.snapshot.epoch > 0, "{}", outcome.scenario);
        }
    }

    #[test]
    fn load_reports_render_as_table_and_json() {
        let scenarios = smoke_catalog(5);
        let config = LoadConfig {
            shards: 1,
            clients: 1,
            sessions_per_client: 2,
            mailbox_depth: 4,
            engine: EngineKind::Simple,
            ..LoadConfig::default()
        };
        let reports = vec![LoadRunner::new(config).run(&scenarios[..1])];
        let table = render_load_table(&reports);
        assert!(table.contains("shards") && table.contains("p99"));
        let json = render_load_json(&reports);
        assert!(json.contains("\"updates_per_sec\""));
        assert!(json.contains("\"per_shard\": [{\"commands\": "));
        assert!(json.contains("\"idle_nanos\": "));
        assert!(json.contains("\"journal\": \"none\""));
        assert_eq!(json.matches("\"shards\"").count(), 1);
    }

    /// The TCP transport keeps the in-process accounting invariants while
    /// every command crosses a real loopback socket, and the run records
    /// the server's own counters.
    #[test]
    fn socket_transport_run_keeps_accounting_invariants() {
        let scenarios = smoke_catalog(7);
        let config = LoadConfig {
            shards: 2,
            clients: 2,
            sessions_per_client: 1,
            engine: EngineKind::Simple,
            transport: Transport::Tcp,
            ..LoadConfig::default()
        };
        let report = LoadRunner::new(config).run(&scenarios);
        assert_eq!(report.telemetry.totals.commands, report.requests);
        assert_eq!(report.telemetry.totals.updates_applied, report.updates);
        let server = report.telemetry.server;
        assert_eq!(server.commands, report.requests);
        assert!(server.bytes_in > 0 && server.bytes_out > 0);
        assert_eq!(server.connections, 3); // 2 load clients + the metrics probe
        let json = render_load_json(&[report]);
        assert!(json.contains("\"transport\": \"tcp\""));
    }

    /// Journaled load runs keep the same accounting invariants as
    /// memory-only ones, fsync far less than once per command under group
    /// commit, and report the host's core count. Every stage histogram's
    /// sample count equals the command total — the differential that
    /// proves no request skips a stage, on the path that holds replies
    /// for the group's fsync.
    #[test]
    fn journaled_group_commit_run_accounts_fsyncs() {
        let scenarios = smoke_catalog(29);
        let config = LoadConfig {
            shards: 1,
            clients: 2,
            sessions_per_client: 2,
            mailbox_depth: 16,
            engine: EngineKind::Simple,
            journal: Some(FsyncPolicy::group_commit()),
            transport: Transport::InProcess,
        };
        assert_eq!(config.journal_label(), "group");
        let report = LoadRunner::new(config).run(&scenarios);
        assert_eq!(report.telemetry.totals.commands, report.requests);
        assert_eq!(report.telemetry.totals.updates_applied, report.updates);
        assert!(report.telemetry.totals.journal_fsyncs > 0);
        // Group commit's whole point: replies retain fsync-every-1
        // durability while the fsync count tracks *groups*, not commands.
        assert!(
            report.telemetry.totals.journal_fsyncs <= report.telemetry.totals.groups + 1,
            "{:?}",
            report.telemetry.totals
        );
        assert_eq!(report.cores, available_cores());
        let telemetry = &report.telemetry;
        for stage in Stage::ALL {
            assert_eq!(
                telemetry.stage_total(stage).count(),
                telemetry.totals.commands,
                "stage {} sample count diverged from the command total",
                stage.name()
            );
        }
        // Group commits actually fired and were captured as ring events.
        assert!(telemetry.events_emitted > 0);
        let table = render_stage_table(telemetry);
        assert!(table.contains("fsync_wait") && table.contains("p99(ns)"));
    }
}
