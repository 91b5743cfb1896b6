//! `fourcycle-runtime` — the sharded concurrent execution layer of the
//! workspace.
//!
//! Everything below this crate executes on the caller's thread:
//! [`CycleCountService`] is a plain single-threaded object serving one
//! command at a time. This crate is a **thread-per-shard executor** that
//! owns `N` service shards and serves many independent graph sessions in
//! parallel, from any number of client threads.
//!
//! # Architecture
//!
//! ```text
//!                 clients (any number of threads)
//!        call() / submit() ──► route by hash(GraphId) ──┐
//!                                                       ▼
//!          ┌──────────────┬──────────────┬──────────────┐
//!  bounded │  mailbox 0   │  mailbox 1   │  mailbox N-1 │  (sync_channel,
//!          └──────┬───────┴──────┬───────┴──────┬───────┘   backpressure)
//!                 ▼              ▼              ▼
//!           worker thread  worker thread  worker thread    (std::thread;
//!                 │ lock         │ lock         │ lock       once per group)
//!           ┌─────▼────────┬─────▼────────┬─────▼────────┐
//!           │ Mutex<Cycle- │ Mutex<Cycle- │ Mutex<Cycle- │ ◄── call() on an
//!           │ CountService>│ CountService>│ CountService>│  idle shard: try_lock,
//!           └─────┬────────┴─────┬────────┴─────┬────────┘  run on the caller's
//!                 │              │              │           thread, return
//!                 └── per-request reply channel ┴──► Ticket::wait()
//! ```
//!
//! * **Sharding.** Every [`Request`] that addresses a graph is routed to
//!   `hash(GraphId) mod N`; a graph lives its whole life on one shard, and
//!   per-graph command order equals submission order (one submitter's
//!   sends to one mailbox are FIFO, and a command runs inline only once
//!   the submitter's earlier ones have run). Service-wide commands
//!   ([`Request::ListGraphs`]) fan out to all shards and merge.
//! * **Backpressure.** Mailboxes are *bounded* (`RuntimeConfig::
//!   mailbox_depth`): a submitter that outruns a shard blocks on its
//!   mailbox instead of growing an unbounded queue, or with
//!   [`ShardedRuntime::try_submit`] gets its request back as `Busy`; both
//!   are counted in the shard's `queue_full_stalls`.
//! * **One serial dispatcher per shard.** Each shard's `CycleCountService`
//!   sits behind a `Mutex` that its worker and the runtime handle share.
//!   The worker drains its mailbox into a group, takes the lock once, and
//!   executes the group's commands one by one, in arrival order: a
//!   session's updates must apply strictly in order, and sessions on
//!   different shards already run in parallel. See the `dispatch` module
//!   docs for the data flow.
//! * **Journal group commit.** Under
//!   [`FsyncPolicy::GroupCommit`](fourcycle_store::FsyncPolicy) the
//!   dispatcher journals a whole group, issues **one** fsync for it, and
//!   only then releases the group's replies — fsync-every-1 durability
//!   (reply ⇒ journaled ⇒ durable) at a fraction of the fsync count.
//! * **Two call shapes.** [`ShardedRuntime::call`] is the blocking
//!   request/response path. When the command's shard is idle — none of
//!   its mailbox jobs is still to run, and the caller wins `try_lock` — it
//!   runs the command on the caller's thread, with no mailbox hop and no
//!   reply channel; otherwise it takes the mailbox like `submit`.
//!   [`ShardedRuntime::submit`] returns a [`Ticket`] immediately so callers
//!   (and [`Pipeline`]) can keep many commands in flight across shards and
//!   collect replies later; it always takes the mailbox, as do
//!   [`ShardedRuntime::try_submit`] and the `ListGraphs` fan-out. [`ShardedRuntime::try_call`] is `try_submit`
//!   for a caller that will wait at once (the TCP server's lone line): it
//!   runs inline when `call` would. A group-commit runtime never runs a
//!   command inline.
//! * **Observability.** [`ShardedRuntime::telemetry`] is the runtime's one
//!   account of itself (`fourcycle-telemetry`, ADR-009): it times every
//!   command's six stages, inline or not, keeps each shard's counters
//!   (commands, applied updates, rejections, stalls, groups, fsyncs,
//!   busy/idle time) and collects slow-request, group commit and journal
//!   events. [`ShardedRuntime::report`] snapshots it at any moment, and
//!   [`ShardedRuntime::shutdown`] returns the final snapshot after
//!   draining every mailbox and joining every worker.
//!
//! See `docs/adr/ADR-004-sharded-runtime.md` for why thread-per-shard with
//! bounded mailboxes was chosen over a shared-lock service, and its
//! 2026-10-18 amendment for why the inline path is not that lock.
//!
//! # Quick start
//!
//! ```
//! use fourcycle_core::EngineKind;
//! use fourcycle_graph::{LayeredUpdate, Rel};
//! use fourcycle_runtime::{RuntimeConfig, ShardedRuntime};
//! use fourcycle_service::{GraphId, Request, Response};
//!
//! let runtime = ShardedRuntime::start(
//!     RuntimeConfig::new().shards(2).engine(EngineKind::Threshold),
//! );
//!
//! // Two tenants; their sessions may land on different shards, and their
//! // traffic executes concurrently.
//! for id in [GraphId(1), GraphId(2)] {
//!     runtime.call(Request::CreateGraph { id, spec: None }).unwrap();
//! }
//! let square = vec![
//!     LayeredUpdate::insert(Rel::A, 1, 2),
//!     LayeredUpdate::insert(Rel::B, 2, 3),
//!     LayeredUpdate::insert(Rel::C, 3, 4),
//!     LayeredUpdate::insert(Rel::D, 4, 1),
//! ];
//! let response = runtime
//!     .call(Request::ApplyLayeredBatch { id: GraphId(1), updates: square })
//!     .unwrap();
//! assert_eq!(response, Response::Applied { id: GraphId(1), count: 1, epoch: 4 });
//!
//! let report = runtime.shutdown();
//! assert_eq!(report.totals.commands, 3);
//! assert_eq!(report.totals.updates_applied, 4);
//! ```

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::as_conversions,
        reason = "unit tests may unwrap, panic and cast"
    )
)]

mod dispatch;
pub mod error;

pub use error::RuntimeError;

use dispatch::Shard;
use fourcycle_core::{EngineConfig, EngineKind};
use fourcycle_service::{
    CycleCountService, GraphId, Request, Response, ServiceError, SessionSpec, WorkloadMode,
};
use fourcycle_store::{FsyncPolicy, JournalConfig, JournalStore};
use fourcycle_telemetry::{Telemetry, TelemetryConfig, TelemetrySnapshot};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// Configuration of a [`ShardedRuntime`], builder-style.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    shards: usize,
    mailbox_depth: usize,
    default_spec: SessionSpec,
    journal: Option<JournalConfig>,
    telemetry: TelemetryConfig,
}

impl Default for RuntimeConfig {
    /// One shard per available core (capped at 8), mailbox depth 64,
    /// default [`SessionSpec`] (layered, [`EngineKind::Auto`]).
    fn default() -> Self {
        let shards = thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(2);
        Self {
            shards,
            mailbox_depth: 64,
            default_spec: SessionSpec::default(),
            journal: None,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl RuntimeConfig {
    /// The default configuration (see [`RuntimeConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of shard workers (clamped to at least 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Sets the bounded mailbox depth per shard (clamped to at least 1).
    /// Submissions beyond this depth block — the backpressure that keeps a
    /// fast producer from queueing unbounded work on a slow shard.
    pub fn mailbox_depth(mut self, depth: usize) -> Self {
        self.mailbox_depth = depth.max(1);
        self
    }

    /// Sets the spec sessions are built from when a `CreateGraph` command
    /// carries none.
    pub fn spec(mut self, spec: SessionSpec) -> Self {
        self.default_spec = spec;
        self
    }

    /// Sets the default engine kind (shorthand over [`RuntimeConfig::spec`];
    /// [`EngineKind::Auto`] unless set). A journal directory's manifest pins
    /// the kind it was created with: reopening a store made under another
    /// default, such as `fmm` before `auto` became the default, takes
    /// `.engine(EngineKind::Fmm)` (ADR-005).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.default_spec.kind = kind;
        self
    }

    /// Sets the default engine configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.default_spec.config = config;
        self
    }

    /// Sets the default workload mode.
    pub fn mode(mut self, mode: WorkloadMode) -> Self {
        self.default_spec.mode = mode;
        self
    }

    /// Enables durable journaling (default policy: fsync every command, no
    /// automatic checkpoints) into `dir` — one `shard-<k>.wal`/`.ckpt` pair
    /// per shard plus a `manifest.json` pinning the topology. Starting a
    /// runtime on a directory that already holds journals **recovers**
    /// every shard's sessions (checkpoint + tail replay) before serving
    /// traffic; see `fourcycle-store`.
    pub fn journal_dir(self, dir: impl Into<PathBuf>) -> Self {
        self.journal(JournalConfig::new(dir))
    }

    /// Enables durable journaling with explicit knobs (fsync policy,
    /// checkpoint cadence).
    pub fn journal(mut self, config: JournalConfig) -> Self {
        self.journal = Some(config);
        self
    }

    /// Tunes telemetry: the slow-request threshold and the event ring's
    /// capacity. Every runtime keeps per-shard stage-latency histograms
    /// and the structured event ring (see `fourcycle-telemetry`).
    pub fn telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = config;
        self
    }
}

/// One unit of work in a shard mailbox: the command plus the channel its
/// outcome is reported on.
pub(crate) struct Job {
    pub(crate) request: Request,
    pub(crate) reply: mpsc::Sender<Result<Response, ServiceError>>,
    /// Submission time; the shard worker turns it into the queue-wait
    /// stage sample.
    pub(crate) enqueued_at: Instant,
}

/// A pending reply: returned by [`ShardedRuntime::submit`], redeemed with
/// [`Ticket::wait`]. Dropping a ticket abandons the reply (the command
/// still executes — fire-and-forget).
#[must_use = "a ticket holds a pending reply; wait() it or the response is lost"]
pub struct Ticket(TicketState);

enum TicketState {
    /// The outcome is known already: the command ran on the caller's
    /// thread ([`ShardedRuntime::try_call`]), or it could not be queued.
    Ready(Result<Response, RuntimeError>),
    /// Replies to come from `expected` shards (1, or the shard count for
    /// fan-out commands).
    Queued {
        expected: usize,
        rx: mpsc::Receiver<Result<Response, ServiceError>>,
    },
}

impl Ticket {
    fn unavailable() -> Self {
        Ticket(TicketState::Ready(Err(RuntimeError::ShardUnavailable)))
    }

    /// Blocks until the command's outcome is available.
    ///
    /// Fan-out commands (`ListGraphs`) wait for every shard and merge the
    /// per-shard listings into one sorted [`Response::Graphs`].
    pub fn wait(self) -> Result<Response, RuntimeError> {
        let (expected, rx) = match self.0 {
            TicketState::Ready(outcome) => return outcome,
            TicketState::Queued { expected, rx } => (expected, rx),
        };
        if expected == 1 {
            let outcome = rx.recv().map_err(|_| RuntimeError::ShardUnavailable)?;
            return outcome.map_err(RuntimeError::Service);
        }
        let mut ids: Vec<GraphId> = Vec::new();
        for _ in 0..expected {
            let outcome = rx.recv().map_err(|_| RuntimeError::ShardUnavailable)?;
            match outcome.map_err(RuntimeError::Service)? {
                Response::Graphs { ids: shard_ids } => ids.extend(shard_ids),
                #[expect(
                    clippy::unreachable,
                    reason = "shard workers answer ListGraphs with Graphs"
                )]
                other => unreachable!("fan-out commands only list graphs, got {other:?}"),
            }
        }
        ids.sort_unstable();
        // Merged listings are globally sorted AND duplicate-free: a graph
        // lives on exactly one shard (deterministic routing), so shard
        // replies are disjoint however they interleave. Strictly-ascending
        // is the pinned guarantee (see the merge tests).
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "fan-out merge produced unsorted or duplicate ids: {ids:?}"
        );
        Ok(Response::Graphs { ids })
    }
}

/// The outcome of a non-blocking [`ShardedRuntime::try_submit`].
#[must_use = "a Busy outcome carries the request back; drop it and the command is lost"]
pub enum SubmitOutcome {
    /// The command is in its shard's mailbox, or [`ShardedRuntime::try_call`]
    /// has already run it; redeem the ticket as usual.
    Queued(Ticket),
    /// The shard's mailbox was full. The command was **not** enqueued and
    /// is handed back unchanged so the caller can retry it later (or
    /// surface a `busy` rejection, as the TCP server does).
    Busy(Request),
}

/// A batch of in-flight submissions against one runtime: submit many, then
/// [`drain`](Pipeline::drain) their outcomes in submission order. The
/// fire-collect shape keeps every shard's mailbox full instead of
/// round-tripping one command at a time.
pub struct Pipeline<'rt> {
    runtime: &'rt ShardedRuntime,
    tickets: Vec<Ticket>,
}

impl<'rt> Pipeline<'rt> {
    /// An empty pipeline over `runtime`.
    pub fn new(runtime: &'rt ShardedRuntime) -> Self {
        Self {
            runtime,
            tickets: Vec::new(),
        }
    }

    /// Fires one command without waiting for its reply.
    pub fn submit(&mut self, request: Request) {
        self.tickets.push(self.runtime.submit(request));
    }

    /// Number of submissions not yet drained.
    pub fn pending(&self) -> usize {
        self.tickets.len()
    }

    /// Collects every outstanding outcome, in submission order, emptying
    /// the pipeline.
    pub fn drain(&mut self) -> Vec<Result<Response, RuntimeError>> {
        self.tickets.drain(..).map(Ticket::wait).collect()
    }
}

/// The thread-per-shard executor (see the crate docs for the architecture).
///
/// The handle is `Sync`: clients on any number of threads may `call` /
/// `submit` concurrently through one shared reference (the load generator
/// in `fourcycle-bench` does exactly that).
pub struct ShardedRuntime {
    mailboxes: Vec<SyncSender<Job>>,
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    telemetry: Arc<Telemetry>,
    /// Set under [`FsyncPolicy::GroupCommit`], whose dispatcher holds each
    /// group's replies for the group's fsync: no command runs inline.
    group_commit: bool,
}

impl ShardedRuntime {
    /// Starts one shard worker per configured shard, each owning a
    /// `CycleCountService` built around the config's default spec.
    ///
    /// Infallible for memory-only runtimes; with journaling enabled
    /// ([`RuntimeConfig::journal_dir`]) this is [`Self::try_start`] +
    /// `expect` — a runtime that cannot open its durability tier refuses
    /// to start rather than silently serving memory-only.
    #[expect(
        clippy::expect_used,
        reason = "documented panicking convenience over try_start"
    )]
    pub fn start(config: RuntimeConfig) -> Self {
        Self::try_start(config).expect("failed to start sharded runtime")
    }

    /// Starts the runtime, surfacing journal-store failures
    /// ([`RuntimeError::Store`]) instead of panicking.
    ///
    /// With journaling enabled, each shard worker's service is first
    /// **recovered** from `shard-<k>.ckpt` + `shard-<k>.wal` (fresh
    /// directories start empty) and then journals every successful
    /// mutating command it serves; because the journal write happens
    /// before the reply is sent, a client that has seen a response holds
    /// a journaled command. The directory's manifest pins shard count,
    /// mode and engine — restarting with a different topology is an error,
    /// not a silent re-route.
    pub fn try_start(config: RuntimeConfig) -> Result<Self, RuntimeError> {
        let telemetry = Arc::new(Telemetry::new(config.telemetry, config.shards));
        let store = match &config.journal {
            // The journal layer emits recovery/checkpoint/chaos events
            // into the same ring the shard workers use.
            Some(journal) => Some(JournalStore::open(
                journal.clone().events(telemetry.ring().clone()),
                config.shards,
                config.default_spec,
            )?),
            None => None,
        };
        let mut mailboxes = Vec::with_capacity(config.shards);
        let mut shards = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            // Built (and, when journaling, recovered) on the caller's
            // thread so failures surface here, then moved into the worker.
            let service = match &store {
                Some(store) => store.open_shard(shard)?,
                None => CycleCountService::builder()
                    .engine(config.default_spec.kind)
                    .config(config.default_spec.config)
                    .mode(config.default_spec.mode)
                    .build(),
            };
            let (tx, rx) = mpsc::sync_channel::<Job>(config.mailbox_depth);
            let cell = Arc::new(Shard {
                index: shard,
                service: Mutex::new(service),
                queued: AtomicUsize::new(0),
            });
            let worker_cell = Arc::clone(&cell);
            // Group-commit reply holding engages iff the journal policy
            // asks for it; the dispatcher is the group's fsync leader.
            let group_commit = config.journal.as_ref().and_then(|j| match j.fsync {
                FsyncPolicy::GroupCommit {
                    max_wait,
                    max_batch,
                } => Some(dispatch::GroupCommitKnobs {
                    max_wait,
                    max_batch: usize::try_from(max_batch.max(1)).unwrap_or(usize::MAX),
                }),
                _ => None,
            });
            let worker_telemetry = telemetry.clone();
            #[expect(
                clippy::expect_used,
                reason = "workers spawn at startup, before serving"
            )]
            workers.push(
                thread::Builder::new()
                    .name(format!("fourcycle-shard-{shard}"))
                    .spawn(move || {
                        dispatch::shard_worker(rx, worker_cell, group_commit, worker_telemetry)
                    })
                    .expect("spawn shard worker"),
            );
            mailboxes.push(tx);
            shards.push(cell);
        }
        let group_commit = config
            .journal
            .as_ref()
            .is_some_and(|j| matches!(j.fsync, FsyncPolicy::GroupCommit { .. }));
        Ok(Self {
            mailboxes,
            shards,
            workers,
            telemetry,
            group_commit,
        })
    }

    /// Number of shard workers.
    pub fn shards(&self) -> usize {
        self.mailboxes.len()
    }

    /// The shard a graph lives on: `hash(id) mod shards`, stable for the
    /// lifetime of the runtime.
    #[expect(
        clippy::as_conversions,
        reason = "the remainder is < the shard count, which is a usize"
    )]
    pub fn shard_of(&self, id: GraphId) -> usize {
        let shards = u64::try_from(self.mailboxes.len()).unwrap_or(u64::MAX);
        (splitmix64(id.0) % shards) as usize
    }

    /// Executes one command, blocking for its outcome. Takes the request
    /// by value so batch payloads move straight into the shard mailbox
    /// (callers replaying a retained script clone explicitly).
    ///
    /// When the command's shard is idle — no job in or drained from its
    /// mailbox still unexecuted, and its lock free — the command runs
    /// on the caller's thread, with no mailbox hop and no reply channel.
    /// Otherwise it takes the mailbox exactly as [`ShardedRuntime::submit`]
    /// does. Either way it applies after every command the caller queued
    /// before. Fan-out commands and every command of a runtime journaling
    /// under [`FsyncPolicy::GroupCommit`] always take the mailbox.
    pub fn call(&self, request: Request) -> Result<Response, RuntimeError> {
        match self.run_inline(request) {
            Ok(outcome) => outcome,
            Err(request) => self.submit(request).wait(),
        }
    }

    /// [`ShardedRuntime::try_submit`] for a caller that will wait on the
    /// ticket at once, such as the TCP server's lone command line: when
    /// the shard is idle the command runs on the caller's thread as in
    /// [`ShardedRuntime::call`], and the ticket it returns is already
    /// resolved. Otherwise this is `try_submit`, `Busy` included.
    pub fn try_call(&self, request: Request) -> SubmitOutcome {
        match self.run_inline(request) {
            Ok(outcome) => SubmitOutcome::Queued(Ticket(TicketState::Ready(outcome))),
            Err(request) => self.try_submit(request),
        }
    }

    /// Runs a command on the caller's thread if its shard is idle, or hands
    /// it back for the mailbox (see [`dispatch::run_inline`]).
    fn run_inline(&self, request: Request) -> Result<Result<Response, RuntimeError>, Request> {
        let arrived = Instant::now();
        match request.graph_id() {
            Some(id) if !self.group_commit => dispatch::run_inline(
                &self.shards[self.shard_of(id)],
                request,
                arrived,
                &self.telemetry,
            ),
            _ => Err(request),
        }
    }

    /// Starts an empty fire-collect pipeline over this runtime.
    pub fn pipeline(&self) -> Pipeline<'_> {
        Pipeline::new(self)
    }

    /// Fires one command, returning a [`Ticket`] for its eventual outcome.
    ///
    /// If the target shard's mailbox is full, this blocks until the shard
    /// catches up (counted in the shard's `queue_full_stalls`) — the
    /// runtime's backpressure. Commands without a graph id fan out to every
    /// shard.
    pub fn submit(&self, request: Request) -> Ticket {
        let (reply, rx) = mpsc::channel();
        let enqueued_at = Instant::now();
        let (expected, dead) = match request.graph_id() {
            Some(id) => {
                let job = Job {
                    request,
                    reply,
                    enqueued_at,
                };
                (1, self.enqueue(self.shard_of(id), job, true).is_err())
            }
            None => {
                let expected = self.mailboxes.len();
                let mut dead = false;
                for shard in 0..expected {
                    let job = Job {
                        request: request.clone(),
                        reply: reply.clone(),
                        enqueued_at,
                    };
                    dead |= self.enqueue(shard, job, true).is_err();
                }
                (expected, dead)
            }
        };
        if dead {
            Ticket::unavailable()
        } else {
            Ticket(TicketState::Queued { expected, rx })
        }
    }

    /// Fires one command **without blocking**: if the target shard's
    /// mailbox is full the request is handed back as
    /// [`SubmitOutcome::Busy`] instead of waiting for the shard to catch
    /// up. This is the hook the TCP front door's per-connection
    /// backpressure is built on — a full mailbox becomes a `busy` wire
    /// response the client can retry, not a reader thread parked on a
    /// stranger's traffic. Every `Busy` is counted in the shard's
    /// `queue_full_stalls`, the same accounting the blocking path uses.
    ///
    /// Fan-out commands (`ListGraphs`) never report `Busy`: they enqueue on
    /// *every* shard, and a partial fan-out could not be handed back, so
    /// they take the blocking [`ShardedRuntime::submit`] path internally.
    pub fn try_submit(&self, request: Request) -> SubmitOutcome {
        let Some(id) = request.graph_id() else {
            return SubmitOutcome::Queued(self.submit(request));
        };
        let (reply, rx) = mpsc::channel();
        let job = Job {
            request,
            reply,
            enqueued_at: Instant::now(),
        };
        match self.enqueue(self.shard_of(id), job, false) {
            Ok(()) => SubmitOutcome::Queued(Ticket(TicketState::Queued { expected: 1, rx })),
            Err(TrySendError::Full(job)) => SubmitOutcome::Busy(job.request),
            Err(TrySendError::Disconnected(_)) => SubmitOutcome::Queued(Ticket::unavailable()),
        }
    }

    /// A live snapshot of the telemetry: per-shard stage histograms and
    /// counters with their totals, and the front door's counters once a
    /// server fronts the runtime.
    pub fn report(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// The live telemetry: stage histograms, counters and the event ring.
    /// Clone the `Arc` to keep observing (snapshots, ring drains) while the
    /// runtime serves traffic — or after handing the runtime to a server
    /// front door.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Graceful shutdown: closes every mailbox, lets each worker drain the
    /// commands already queued (their tickets still receive replies), joins
    /// all workers and returns the final telemetry snapshot.
    pub fn shutdown(mut self) -> TelemetrySnapshot {
        self.stop_workers();
        self.report()
    }

    /// Puts a job in a shard's mailbox, counting it in the shard's
    /// `queued` until it has executed. A full mailbox counts a stall; then
    /// a `blocking` caller waits for room, and any other gets the job back
    /// as `Full`. `Disconnected` means the shard is gone.
    fn enqueue(&self, shard: usize, job: Job, blocking: bool) -> Result<(), TrySendError<Job>> {
        let queued = &self.shards[shard].queued;
        queued.fetch_add(1, Ordering::SeqCst);
        let sent = match self.mailboxes[shard].try_send(job) {
            Err(TrySendError::Full(job)) => {
                self.telemetry.counters(shard).queue_full_stalls.add(1);
                if blocking {
                    self.mailboxes[shard]
                        .send(job)
                        .map_err(|e| TrySendError::Disconnected(e.0))
                } else {
                    Err(TrySendError::Full(job))
                }
            }
            sent => sent,
        };
        if sent.is_err() {
            queued.fetch_sub(1, Ordering::SeqCst);
        }
        sent
    }

    /// Closes every mailbox, joins the workers once they have drained
    /// them, and makes everything journaled so far durable, whatever the
    /// fsync policy (best effort: there is nowhere to report), folding
    /// that last fsync into each shard's gauge.
    fn stop_workers(&mut self) {
        let workers = std::mem::take(&mut self.workers);
        if workers.is_empty() {
            return; // stopped already
        }
        self.mailboxes.clear(); // disconnects; workers drain and exit
        for worker in workers {
            let _ = worker.join();
        }
        for shard in &self.shards {
            // A poisoned lock means a command panicked: that shard's state
            // is not trusted, so it is not synced.
            if let Ok(mut service) = shard.service.lock() {
                let _ = service.sync_journal();
                self.telemetry
                    .counters(shard.index)
                    .journal_fsyncs
                    .set(service.journal_fsyncs());
            }
        }
    }
}

impl Drop for ShardedRuntime {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// SplitMix64 finalizer — the shard router. Sequential graph ids (the
/// common tenant-minting pattern) spread uniformly instead of striping.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_graph::{LayeredUpdate, Rel};

    fn square(base: u32) -> Vec<LayeredUpdate> {
        vec![
            LayeredUpdate::insert(Rel::A, base + 1, base + 2),
            LayeredUpdate::insert(Rel::B, base + 2, base + 3),
            LayeredUpdate::insert(Rel::C, base + 3, base + 4),
            LayeredUpdate::insert(Rel::D, base + 4, base + 1),
        ]
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(3));
        for raw in 0..64 {
            let id = GraphId(raw);
            let shard = runtime.shard_of(id);
            assert!(shard < 3);
            assert_eq!(shard, runtime.shard_of(id), "routing must be stable");
        }
        // With a sane hash, 64 sequential ids hit every one of 3 shards.
        let hit: std::collections::HashSet<usize> =
            (0..64).map(|raw| runtime.shard_of(GraphId(raw))).collect();
        assert_eq!(hit.len(), 3);
    }

    #[test]
    fn call_roundtrips_and_errors_pass_through() {
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(2)
                .engine(EngineKind::Simple)
                .mailbox_depth(4),
        );
        let id = GraphId(9);
        assert_eq!(
            runtime.call(Request::CreateGraph { id, spec: None }),
            Ok(Response::Created { id })
        );
        assert_eq!(
            runtime.call(Request::CreateGraph { id, spec: None }),
            Err(RuntimeError::Service(ServiceError::GraphAlreadyExists(id)))
        );
        assert_eq!(
            runtime.call(Request::ApplyLayeredBatch {
                id,
                updates: square(0),
            }),
            Ok(Response::Applied {
                id,
                count: 1,
                epoch: 4
            })
        );
        let report = runtime.shutdown();
        assert_eq!(report.totals.commands, 3);
        assert_eq!(report.totals.updates_applied, 4);
        assert_eq!(report.totals.rejected, 1);
    }

    #[test]
    fn list_graphs_fans_out_and_merges_sorted() {
        let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(4));
        let mut expected: Vec<GraphId> = (0..16).map(GraphId).collect();
        for &id in &expected {
            runtime
                .call(Request::CreateGraph { id, spec: None })
                .unwrap();
        }
        expected.sort();
        assert_eq!(
            runtime.call(Request::ListGraphs),
            Ok(Response::Graphs { ids: expected })
        );
        // The 16 sessions really are spread over several shards.
        let report = runtime.report();
        let serving = report.per_shard.iter().filter(|s| s.commands > 1).count();
        assert!(serving >= 2, "{:?}", report.per_shard);
    }

    /// Correctness-audit pin: the `ListGraphs` fan-out merge must stay
    /// globally sorted and duplicate-free while shard replies interleave
    /// with concurrent creates/drops and competing listers. Shard replies
    /// arrive in arbitrary order on the shared reply channel; only the
    /// final merged vector is guaranteed, and this hammers it.
    #[test]
    fn list_graphs_merge_is_sorted_and_duplicate_free_under_interleaving() {
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(4)
                .engine(EngineKind::Simple)
                .mailbox_depth(2),
        );
        thread::scope(|scope| {
            for writer in 0..3u64 {
                let runtime = &runtime;
                scope.spawn(move || {
                    for i in 0..40u64 {
                        let id = GraphId(writer * 1000 + i);
                        runtime
                            .call(Request::CreateGraph { id, spec: None })
                            .unwrap();
                        if i % 5 == 4 {
                            runtime.call(Request::DropGraph { id }).unwrap();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let runtime = &runtime;
                scope.spawn(move || {
                    for _ in 0..25 {
                        match runtime.call(Request::ListGraphs).unwrap() {
                            Response::Graphs { ids } => {
                                assert!(
                                    ids.windows(2).all(|w| w[0] < w[1]),
                                    "unsorted or duplicated merge: {ids:?}"
                                );
                            }
                            other => panic!("expected listing, got {other:?}"),
                        }
                    }
                });
            }
        });
        // Quiescent final listing: exactly the non-dropped ids, ascending.
        let expected: Vec<GraphId> = (0..3u64)
            .flat_map(|w| (0..40u64).map(move |i| (w, i)))
            .filter(|&(_, i)| i % 5 != 4)
            .map(|(w, i)| GraphId(w * 1000 + i))
            .collect();
        assert_eq!(
            runtime.call(Request::ListGraphs),
            Ok(Response::Graphs { ids: expected })
        );
    }

    #[test]
    fn pipeline_preserves_submission_order_per_graph() {
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(2)
                .engine(EngineKind::Threshold)
                .mailbox_depth(2),
        );
        let graphs: Vec<GraphId> = (0..6).map(GraphId).collect();
        let mut pipeline = runtime.pipeline();
        for &id in &graphs {
            pipeline.submit(Request::CreateGraph { id, spec: None });
        }
        for &id in &graphs {
            pipeline.submit(Request::ApplyLayeredBatch {
                id,
                updates: square(0),
            });
            pipeline.submit(Request::GetSnapshot { id });
        }
        assert_eq!(pipeline.pending(), 18);
        let outcomes = pipeline.drain();
        assert_eq!(pipeline.pending(), 0);
        for (i, outcome) in outcomes.iter().enumerate() {
            let response = outcome.as_ref().unwrap_or_else(|e| panic!("#{i}: {e}"));
            if let Response::Snapshot { snapshot, .. } = response {
                assert_eq!((snapshot.count, snapshot.epoch), (1, 4));
            }
        }
        // Backpressure on a depth-2 mailbox with 18 pipelined submissions
        // may or may not stall depending on scheduling; the counter only
        // moves monotonically either way.
        let report = runtime.shutdown();
        assert_eq!(report.totals.commands, 18);
        assert_eq!(report.totals.updates_applied, 6 * 4);
    }

    #[test]
    fn shutdown_drains_queued_work_and_drop_is_clean() {
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(1)
                .engine(EngineKind::Simple)
                .mailbox_depth(1),
        );
        let id = GraphId(1);
        let mut pipeline = runtime.pipeline();
        pipeline.submit(Request::CreateGraph { id, spec: None });
        for update in square(0) {
            pipeline.submit(Request::ApplyLayered { id, update });
        }
        pipeline.submit(Request::Count { id });
        // Tickets survive shutdown: the worker drains its mailbox first.
        let outcomes = pipeline.drain();
        assert_eq!(
            outcomes.last().unwrap().as_ref().unwrap(),
            &Response::Count { id, count: 1 }
        );
        let report = runtime.shutdown();
        assert_eq!(report.totals.commands, 6);
        // Dropping a runtime without explicit shutdown must also join
        // cleanly (covered by every other test's scope exit).
        drop(ShardedRuntime::start(RuntimeConfig::new().shards(2)));
    }

    /// End-to-end durability: a journaled runtime is stopped, restarted on
    /// the same directory, recovers every shard's sessions, and keeps
    /// journaling; a topology change is refused via the manifest.
    #[test]
    fn journaled_runtime_recovers_across_restarts() {
        let dir = std::env::temp_dir().join("fourcycle-runtime-journal-test");
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            RuntimeConfig::new()
                .shards(2)
                .engine(EngineKind::Threshold)
                .journal_dir(&dir)
        };

        let runtime = ShardedRuntime::try_start(config()).unwrap();
        for id in [GraphId(1), GraphId(2), GraphId(3)] {
            runtime
                .call(Request::CreateGraph { id, spec: None })
                .unwrap();
        }
        runtime
            .call(Request::ApplyLayeredBatch {
                id: GraphId(2),
                updates: square(0),
            })
            .unwrap();
        runtime.shutdown();

        // Restart on the same directory: state is back, including epochs.
        let revived = ShardedRuntime::try_start(config()).unwrap();
        assert_eq!(
            revived.call(Request::ListGraphs),
            Ok(Response::Graphs {
                ids: vec![GraphId(1), GraphId(2), GraphId(3)]
            })
        );
        match revived
            .call(Request::GetSnapshot { id: GraphId(2) })
            .unwrap()
        {
            Response::Snapshot { snapshot, .. } => {
                assert_eq!((snapshot.count, snapshot.epoch), (1, 4));
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        // The revived runtime journals new commands onto the same history.
        revived
            .call(Request::ApplyLayered {
                id: GraphId(1),
                update: LayeredUpdate::insert(Rel::A, 1, 2),
            })
            .unwrap();
        revived.shutdown();

        // A different shard count must be refused, not silently re-routed.
        match ShardedRuntime::try_start(config().shards(4)) {
            Err(RuntimeError::Store(fourcycle_store::StoreError::ManifestMismatch {
                field: "shards",
                ..
            })) => {}
            Err(other) => panic!("expected a shards manifest mismatch, got {other}"),
            Ok(_) => panic!("topology change must be refused"),
        }

        let third = ShardedRuntime::try_start(config()).unwrap();
        match third.call(Request::GetSnapshot { id: GraphId(1) }).unwrap() {
            Response::Snapshot { snapshot, .. } => {
                assert_eq!((snapshot.total_edges, snapshot.epoch), (1, 1));
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        third.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A store created while `fmm` was the default engine has the manifest
    /// `engine: fmm-main`. The manifest pins a store's default (ADR-005),
    /// so under today's `auto` default it is refused, and it reopens once
    /// the old default is named.
    #[test]
    fn store_made_under_the_fmm_default_reopens_with_fmm_named() {
        let dir = std::env::temp_dir().join("fourcycle-runtime-fmm-default-store");
        let _ = std::fs::remove_dir_all(&dir);
        let config = || RuntimeConfig::new().shards(1).journal_dir(&dir);

        let old = ShardedRuntime::try_start(config().engine(EngineKind::Fmm)).unwrap();
        old.call(Request::CreateGraph {
            id: GraphId(1),
            spec: None,
        })
        .unwrap();
        old.call(Request::ApplyLayeredBatch {
            id: GraphId(1),
            updates: square(0),
        })
        .unwrap();
        old.shutdown();
        let manifest = std::fs::read_to_string(dir.join(fourcycle_store::MANIFEST_FILE)).unwrap();
        assert_eq!(
            manifest.trim(),
            r#"{"version": 1, "shards": 1, "mode": "layered", "engine": "fmm-main"}"#
        );

        match ShardedRuntime::try_start(config()) {
            Err(RuntimeError::Store(fourcycle_store::StoreError::ManifestMismatch {
                field: "engine",
                manifest,
                requested,
            })) => assert_eq!(
                (manifest.as_str(), requested.as_str()),
                ("fmm-main", "auto-simple-fmm")
            ),
            Err(other) => panic!("expected an engine manifest mismatch, got {other}"),
            Ok(_) => panic!("a store made under another default must be refused"),
        }

        let reopened = ShardedRuntime::try_start(config().engine(EngineKind::Fmm)).unwrap();
        match reopened
            .call(Request::GetSnapshot { id: GraphId(1) })
            .unwrap()
        {
            Response::Snapshot { snapshot, .. } => {
                assert_eq!((snapshot.count, snapshot.epoch), (1, 4));
            }
            other => panic!("expected snapshot, got {other:?}"),
        }
        reopened.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A journal directory as it was written while `join` was a mode of its
    /// own, with `checkpoint_every(2)`: the manifest, the checkpoint's state
    /// script and the WAL all carry the token. `join` now parses as layered (ADR-003's 2026-10-20
    /// amendment), so the store opens with a layered spec, and both
    /// checkpoint-plus-tail recovery and a restarted runtime reach the old
    /// session's `(count, total_edges, epoch)`.
    #[test]
    fn journal_made_in_join_mode_reopens_as_layered() {
        use fourcycle_graph::GraphUpdate;
        use fourcycle_store::{checkpoint_file, wal_file, MANIFEST_FILE};
        use fourcycle_telemetry::{ring::recovery_phase, EventKind};
        let dir = std::env::temp_dir().join("fourcycle-runtime-join-mode-store");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let files = [
            (
                MANIFEST_FILE.to_string(),
                r#"{"version": 1, "shards": 1, "mode": "join", "engine": "threshold-m23"}"#,
            ),
            (
                checkpoint_file(0),
                concat!(
                    r#"{"version": 1, "shard": 0, "offset": 4, "sessions": "#,
                    r#"[{"id": 1, "count": 1, "total_edges": 4, "epoch": 6}]}"#,
                    "\ncreate g1 join threshold\nlayered g1 A+1:2 B+2:3 C+3:4 D+4:1",
                ),
            ),
            (
                wal_file(0),
                "create g1 join threshold\nlayered g1 A+1:2 B+2:3 C+3:4 D+4:1\n\
                 layered g1 A-1:2\nlayered g1 A+1:2\nlayered g1 B+2:5",
            ),
        ];
        for (name, text) in files {
            std::fs::write(dir.join(name), format!("{text}\n")).unwrap();
        }
        let journal = JournalConfig::new(&dir).checkpoint_every(2);
        let id = GraphId(1);
        let triple = |snapshot: fourcycle_core::Snapshot| {
            (snapshot.count, snapshot.total_edges, snapshot.epoch)
        };
        let general = GraphUpdate::insert(1, 2);
        let mismatch = ServiceError::ModeMismatch {
            id,
            mode: WorkloadMode::Layered,
        };

        let store = JournalStore::resume(journal.clone()).unwrap();
        assert_eq!(store.default_spec().mode, WorkloadMode::Layered);
        assert_eq!(store.default_spec().kind, EngineKind::Threshold);
        let mut recovered = store.recover_shard(0).unwrap();
        assert_eq!(triple(recovered.snapshot(id).unwrap()), (1, 5, 7));
        assert_eq!(recovered.try_apply_general(id, general), Err(mismatch));
        drop(recovered);

        let config = || {
            RuntimeConfig::new()
                .shards(1)
                .engine(EngineKind::Threshold)
                .journal(journal.clone())
        };
        let revived = ShardedRuntime::try_start(config()).unwrap();
        // The checkpoint's script parsed: it was loaded and only the one
        // WAL line past its offset replayed.
        let recoveries: Vec<_> = revived
            .telemetry()
            .ring()
            .drain()
            .into_iter()
            .filter(|e| e.kind == EventKind::RecoveryPhase)
            .map(|e| (e.a, e.b))
            .collect();
        assert_eq!(recoveries, vec![(recovery_phase::CHECKPOINT_TAIL, 1)]);
        let snapshot = |runtime: &ShardedRuntime| match runtime.call(Request::GetSnapshot { id }) {
            Ok(Response::Snapshot { snapshot, .. }) => triple(snapshot),
            other => panic!("expected snapshot, got {other:?}"),
        };
        assert_eq!(snapshot(&revived), (1, 5, 7));
        assert_eq!(
            revived.call(Request::ApplyGeneral {
                id,
                update: general
            }),
            Err(RuntimeError::Service(mismatch))
        );
        // Two more commands write a checkpoint, whose create line now
        // names the session's mode as `layered`.
        for update in [
            LayeredUpdate::delete(Rel::B, 2, 5),
            LayeredUpdate::insert(Rel::B, 2, 5),
        ] {
            revived.call(Request::ApplyLayered { id, update }).unwrap();
        }
        assert_eq!(snapshot(&revived), (1, 5, 9));
        revived.shutdown();
        let checkpoint = std::fs::read_to_string(dir.join(checkpoint_file(0))).unwrap();
        assert!(
            checkpoint.contains("\ncreate g1 layered threshold\n"),
            "{checkpoint}"
        );

        let restarted = ShardedRuntime::try_start(config()).unwrap();
        assert_eq!(snapshot(&restarted), (1, 5, 9));
        restarted.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A parsed command script replays the same through blocking calls and
    /// through a pipeline.
    #[test]
    fn parsed_scripts_replay_through_call_and_pipeline() {
        let script = "
            # two tenants, one square each
            create g1 layered simple
            create g2 layered threshold
            layered g1 A+1:2 B+2:3 C+3:4 D+4:1
            layered g2 A+1:2 B+2:3 C+3:4 D+4:1
            count g1
            snapshot g2
            list
        ";
        let requests = fourcycle_service::parse_script(script).unwrap();
        assert_eq!(requests.len(), 7);
        let called = ShardedRuntime::start(RuntimeConfig::new().shards(2));
        let pipelined = ShardedRuntime::start(RuntimeConfig::new().shards(3));
        let mut pipeline = pipelined.pipeline();
        for request in &requests {
            pipeline.submit(request.clone());
        }
        for outcomes in [
            requests.iter().map(|r| called.call(r.clone())).collect(),
            pipeline.drain(),
        ] {
            assert_eq!(outcomes.len(), 7);
            assert_eq!(
                outcomes[4].as_ref().unwrap(),
                &Response::Count {
                    id: GraphId(1),
                    count: 1
                }
            );
            match outcomes[5].as_ref().unwrap() {
                Response::Snapshot { snapshot, .. } => {
                    assert_eq!((snapshot.count, snapshot.epoch), (1, 4))
                }
                other => panic!("expected snapshot, got {other:?}"),
            }
            assert_eq!(
                outcomes[6].as_ref().unwrap(),
                &Response::Graphs {
                    ids: vec![GraphId(1), GraphId(2)]
                }
            );
        }
    }

    /// The serial dispatcher end-to-end on one shard: pipelined traffic
    /// for many sessions (plus mid-stream registry commands and
    /// unknown-graph errors) drains in real multi-command groups and gets,
    /// response for response, what direct `CycleCountService::execute` of
    /// the same requests returns.
    #[test]
    fn pipelined_runtime_matches_direct_service_execution() {
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(1)
                .engine(EngineKind::Threshold)
                .mailbox_depth(32),
        );
        let graphs: Vec<GraphId> = (0..6).map(GraphId).collect();
        let mut requests = Vec::new();
        for &id in &graphs {
            requests.push(Request::CreateGraph { id, spec: None });
        }
        // Interleave sessions so drained groups hold commands for many
        // sessions at once; sprinkle reads, an unknown graph, and a
        // drop/create pair mid-stream.
        for round in 0..8u32 {
            for &id in &graphs {
                requests.push(Request::ApplyLayered {
                    id,
                    update: LayeredUpdate::insert(Rel::A, round + 1, round + 2),
                });
            }
            requests.push(Request::Count { id: GraphId(777) }); // unknown
            if round == 3 {
                requests.push(Request::DropGraph { id: graphs[0] });
                requests.push(Request::CreateGraph {
                    id: graphs[0],
                    spec: None,
                });
            }
            for &id in &graphs {
                requests.push(Request::ApplyLayeredBatch {
                    id,
                    updates: square(round),
                });
            }
        }
        for &id in &graphs {
            requests.push(Request::GetSnapshot { id });
        }

        let mut pipeline = runtime.pipeline();
        for request in &requests {
            pipeline.submit(request.clone());
        }
        let got = pipeline.drain();
        let mut direct = CycleCountService::builder()
            .engine(EngineKind::Threshold)
            .build();
        assert_eq!(got.len(), requests.len());
        let (mut applied, mut rejected) = (0, 0);
        for (slot, (request, g)) in requests.iter().zip(&got).enumerate() {
            let want = direct.execute(request).map_err(RuntimeError::Service);
            match want {
                Ok(_) => applied += request.update_count() as u64,
                Err(_) => rejected += 1,
            }
            assert_eq!(g, &want, "slot {slot} diverged");
        }
        let report = runtime.shutdown();
        assert_eq!(report.totals.commands, requests.len() as u64);
        assert_eq!(report.totals.updates_applied, applied);
        assert_eq!(report.totals.rejected, rejected);
        // Pipelined traffic on one dispatcher must actually batch.
        assert!(
            report.totals.groups < report.totals.commands,
            "{:?}",
            report.totals
        );
    }

    /// Group commit end-to-end: replies are only released after the
    /// group's fsync, many commands share one fsync, and a restart
    /// recovers every replied command.
    #[test]
    fn group_commit_batches_fsyncs_and_recovers() {
        let dir = std::env::temp_dir().join("fourcycle-runtime-group-commit-test");
        let _ = std::fs::remove_dir_all(&dir);
        let config = || {
            RuntimeConfig::new()
                .shards(1)
                .engine(EngineKind::Simple)
                .mailbox_depth(32)
                .journal(
                    JournalConfig::new(&dir).fsync(fourcycle_store::FsyncPolicy::group_commit()),
                )
        };
        let runtime = ShardedRuntime::try_start(config()).unwrap();
        let graphs: Vec<GraphId> = (0..4).map(GraphId).collect();
        let mut pipeline = runtime.pipeline();
        for &id in &graphs {
            pipeline.submit(Request::CreateGraph { id, spec: None });
        }
        for round in 0..8u32 {
            for &id in &graphs {
                pipeline.submit(Request::ApplyLayeredBatch {
                    id,
                    updates: square(round),
                });
            }
        }
        for outcome in pipeline.drain() {
            outcome.unwrap();
        }
        let report = runtime.shutdown();
        let mutations = 4 + 8 * 4;
        assert_eq!(report.totals.commands, mutations);
        // The point of the protocol: far fewer fsyncs than commands. The
        // exact count depends on how traffic interleaved; a strict bound
        // holds because replies gate on whole groups. (+1: the final
        // shutdown sync.)
        assert!(
            report.totals.journal_fsyncs <= report.totals.groups + 1,
            "{:?}",
            report.totals
        );
        assert!(report.totals.groups < mutations, "{:?}", report.totals);

        // Every replied command survives the restart.
        let revived = ShardedRuntime::try_start(config()).unwrap();
        for &id in &graphs {
            match revived.call(Request::GetSnapshot { id }).unwrap() {
                Response::Snapshot { snapshot, .. } => {
                    assert_eq!(snapshot.epoch, 8 * 4, "graph {id:?}");
                }
                other => panic!("expected snapshot, got {other:?}"),
            }
        }
        revived.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Non-blocking submission: a full mailbox hands the request back as
    /// `Busy` (counted as a stall) instead of parking the caller; once the
    /// shard drains, the same request queues and executes normally, and
    /// fan-out commands always queue.
    #[test]
    fn try_submit_reports_busy_instead_of_blocking() {
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(1)
                .engine(EngineKind::Simple)
                .mailbox_depth(1),
        );
        let id = GraphId(1);
        runtime
            .call(Request::CreateGraph { id, spec: None })
            .unwrap();
        // Saturate the depth-1 mailbox until try_send loses the race, then
        // keep the winning tickets to drain later. Each worker pass pops
        // the mailbox quickly, so loop until we observe a Busy.
        let mut queued = Vec::new();
        let busy_request = loop {
            match runtime.try_submit(Request::ApplyLayered {
                id,
                update: LayeredUpdate::insert(Rel::A, 1, 2),
            }) {
                SubmitOutcome::Queued(ticket) => queued.push(ticket),
                SubmitOutcome::Busy(request) => break request,
            }
        };
        // The request comes back unchanged, and the stall was accounted.
        assert_eq!(
            busy_request,
            Request::ApplyLayered {
                id,
                update: LayeredUpdate::insert(Rel::A, 1, 2),
            }
        );
        assert!(runtime.report().totals.queue_full_stalls >= 1);
        let submitted = queued.len() as u64;
        for ticket in queued {
            // First insert succeeds, the duplicates are service rejections;
            // either way the ticket resolves (Busy never left a dangling
            // reply).
            let _ = ticket.wait();
        }
        // Fan-out commands never report Busy.
        match runtime.try_submit(Request::ListGraphs) {
            SubmitOutcome::Queued(ticket) => {
                assert_eq!(ticket.wait().unwrap(), Response::Graphs { ids: vec![id] });
            }
            SubmitOutcome::Busy(_) => panic!("fan-out commands must queue"),
        }
        let report = runtime.shutdown();
        // create + every queued apply + list; the Busy request never ran.
        assert_eq!(report.totals.commands, 1 + submitted + 1);
    }

    #[test]
    fn concurrent_clients_share_one_handle() {
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(2)
                .engine(EngineKind::Simple)
                .mailbox_depth(4),
        );
        thread::scope(|scope| {
            for client in 0..4u64 {
                let runtime = &runtime;
                scope.spawn(move || {
                    let id = GraphId(100 + client);
                    runtime
                        .call(Request::CreateGraph { id, spec: None })
                        .unwrap();
                    for update in square(0) {
                        runtime.call(Request::ApplyLayered { id, update }).unwrap();
                    }
                    let response = runtime.call(Request::Count { id }).unwrap();
                    assert_eq!(response, Response::Count { id, count: 1 });
                });
            }
        });
        let report = runtime.shutdown();
        assert_eq!(report.totals.commands, 4 * 6);
        assert_eq!(report.totals.updates_applied, 4 * 4);
        assert_eq!(report.totals.rejected, 0);
    }

    /// The stage-accounting differential: every stage histogram holds
    /// exactly one sample per delivered command — per shard, not just in
    /// total — including the `ListGraphs` fan-out (one sub-command per
    /// shard, each counted in `commands`).
    #[test]
    fn telemetry_stage_counts_match_commands_per_shard() {
        use fourcycle_telemetry::Stage;
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(3)
                .engine(EngineKind::Simple)
                .mailbox_depth(8),
        );
        let telemetry = runtime.telemetry().clone();
        for raw in 0..9u64 {
            let id = GraphId(raw);
            runtime
                .call(Request::CreateGraph { id, spec: None })
                .unwrap();
            runtime
                .call(Request::ApplyLayeredBatch {
                    id,
                    updates: square(0),
                })
                .unwrap();
        }
        runtime.call(Request::ListGraphs).unwrap();
        let report = runtime.shutdown();
        assert_eq!(report.totals.commands, 9 * 2 + 3);
        let snapshot = telemetry.snapshot();
        for (shard, stats) in report.per_shard.iter().enumerate() {
            for stage in Stage::ALL {
                assert_eq!(
                    snapshot.stage(shard, stage).count(),
                    stats.commands,
                    "shard {shard} stage {} diverged",
                    stage.name()
                );
            }
        }
        // Queue wait was actually measured, not all-zero: the enqueue
        // stamp survives the mailbox (sum can only be 0 if every command
        // waited under a nanosecond, which 21 round-trips never do).
        assert!(snapshot.stage_total(Stage::QueueWait).sum > 0);
    }

    /// With the slow-request threshold at zero every request is "slow":
    /// the ring captures typed [`EventKind::SlowRequest`] events whose
    /// shard and payload are coherent.
    #[test]
    fn slow_request_events_capture_latency_and_shard() {
        use fourcycle_telemetry::EventKind;
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(2)
                .engine(EngineKind::Simple)
                .mailbox_depth(4)
                .telemetry(
                    TelemetryConfig::default().slow_request_threshold(std::time::Duration::ZERO),
                ),
        );
        let telemetry = runtime.telemetry().clone();
        let id = GraphId(5);
        runtime
            .call(Request::CreateGraph { id, spec: None })
            .unwrap();
        runtime
            .call(Request::ApplyLayeredBatch {
                id,
                updates: square(0),
            })
            .unwrap();
        runtime.shutdown();
        let slow: Vec<_> = telemetry
            .ring()
            .drain()
            .into_iter()
            .filter(|e| e.kind == EventKind::SlowRequest)
            .collect();
        assert!(!slow.is_empty(), "threshold 0 must flag every request");
        for event in &slow {
            assert!((event.shard as usize) < 2, "{event:?}");
            assert!(event.a > 0, "total nanos recorded: {event:?}");
            assert_eq!(event.b, 0, "threshold echoed: {event:?}");
        }
    }

    /// An observer draining the ring in a tight loop never blocks the
    /// shard workers: emitters drop on lock contention rather than wait,
    /// so all traffic completes and the accounting still adds up.
    #[test]
    fn ring_drain_runs_concurrently_with_traffic() {
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(2)
                .engine(EngineKind::Simple)
                .mailbox_depth(8)
                .telemetry(
                    TelemetryConfig::default()
                        .slow_request_threshold(std::time::Duration::ZERO)
                        .ring_capacity(16),
                ),
        );
        let telemetry = runtime.telemetry().clone();
        let stop = std::sync::atomic::AtomicBool::new(false);
        let mut drained = 0usize;
        thread::scope(|scope| {
            let drainer = scope.spawn(|| {
                let mut seen = 0usize;
                while !stop.load(Ordering::Acquire) {
                    seen += telemetry.ring().drain().len();
                    thread::yield_now();
                }
                seen + telemetry.ring().drain().len()
            });
            let clients: Vec<_> = (0..4u64)
                .map(|client| {
                    let runtime = &runtime;
                    scope.spawn(move || {
                        let id = GraphId(200 + client);
                        runtime
                            .call(Request::CreateGraph { id, spec: None })
                            .unwrap();
                        for round in 0..16u32 {
                            runtime
                                .call(Request::ApplyLayeredBatch {
                                    id,
                                    updates: square(round),
                                })
                                .unwrap();
                        }
                    })
                })
                .collect();
            for client in clients {
                client.join().unwrap();
            }
            // Traffic done; only now release the drainer.
            stop.store(true, Ordering::Release);
            drained = drainer.join().unwrap();
        });
        let report = runtime.shutdown();
        assert_eq!(report.totals.commands, 4 * 17);
        let emitted = telemetry.ring().emitted();
        assert!(emitted >= report.totals.commands, "every request was slow");
        // Conservation: everything emitted was drained, is still buffered,
        // was overwritten, or was dropped on contention — and the drain
        // loop really ran concurrently (it saw at least something unless
        // every event raced into the overwrite/drop paths, which a 16-cap
        // ring under 68 events makes implausible).
        assert!(drained as u64 <= emitted);
        assert!(drained > 0, "drainer never observed an event");
    }

    /// A mailbox job counts in its shard's `queued` until it has executed,
    /// also after the worker has drained it and waits for the lock behind
    /// an inline command (held here by the test itself).
    #[test]
    fn a_drained_job_counts_until_it_has_executed() {
        let runtime = ShardedRuntime::start(
            RuntimeConfig::new()
                .shards(1)
                .engine(EngineKind::Simple)
                .mailbox_depth(1),
        );
        let shard = Arc::clone(&runtime.shards[0]);
        let held = shard.service.lock().unwrap();
        let id = GraphId(1);
        let created = runtime.submit(Request::CreateGraph { id, spec: None });
        // The depth-1 mailbox takes the count once the worker has drained
        // the create; the worker then waits for the lock.
        let mut count = Request::Count { id };
        let counted = loop {
            match runtime.try_submit(count) {
                SubmitOutcome::Queued(ticket) => break ticket,
                SubmitOutcome::Busy(request) => count = request,
            }
            thread::yield_now();
        };
        thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(shard.queued.load(Ordering::SeqCst), 2);
        // A call now would overtake both: it takes the mailbox instead.
        let called = thread::scope(|scope| {
            let call = scope.spawn(|| runtime.call(Request::Count { id }));
            let deadline = Instant::now() + std::time::Duration::from_secs(10);
            while shard.queued.load(Ordering::SeqCst) < 3 {
                assert!(Instant::now() < deadline, "the call never queued");
                thread::yield_now();
            }
            drop(held);
            call.join().unwrap()
        });
        assert_eq!(created.wait(), Ok(Response::Created { id }));
        assert_eq!(counted.wait(), Ok(Response::Count { id, count: 0 }));
        assert_eq!(called, Ok(Response::Count { id, count: 0 }));
        assert_eq!(shard.queued.load(Ordering::SeqCst), 0);
        assert_eq!(runtime.shutdown().totals.commands, 3);
    }

    /// A command that panics under the shard lock poisons it: from then on
    /// the shard answers `ShardUnavailable` on the inline path and on the
    /// mailbox path, and the runtime still shuts down.
    #[test]
    fn a_poisoned_shard_is_unavailable_on_both_paths() {
        let runtime =
            ShardedRuntime::start(RuntimeConfig::new().shards(1).engine(EngineKind::Simple));
        let id = GraphId(1);
        runtime
            .call(Request::CreateGraph { id, spec: None })
            .unwrap();
        let shard = Arc::clone(&runtime.shards[0]);
        let poisoner = thread::spawn(move || {
            let _held = shard.service.lock().unwrap();
            panic!("a command panics under the shard lock");
        });
        assert!(poisoner.join().is_err());
        let unavailable = Err(RuntimeError::ShardUnavailable);
        assert_eq!(runtime.call(Request::Count { id }), unavailable);
        assert_eq!(runtime.submit(Request::Count { id }).wait(), unavailable);
        assert_eq!(runtime.call(Request::Count { id }), unavailable);
        assert_eq!(runtime.shutdown().totals.commands, 1);
    }

    /// The runtime wires its event ring into the journal store: a
    /// journaled runtime restarted on its directory reports the recovery
    /// in `telemetry().ring()`, with the replayed WAL line count.
    #[test]
    fn journaled_restart_reports_recovery_phase_event() {
        use fourcycle_telemetry::{ring::recovery_phase, EventKind};
        let dir = std::env::temp_dir().join("fourcycle-runtime-recovery-event-test");
        let _ = std::fs::remove_dir_all(&dir);
        let config = || RuntimeConfig::new().shards(1).journal_dir(&dir);
        let runtime = ShardedRuntime::try_start(config()).unwrap();
        let id = GraphId(3);
        runtime
            .call(Request::CreateGraph { id, spec: None })
            .unwrap();
        runtime
            .call(Request::ApplyLayeredBatch {
                id,
                updates: square(0),
            })
            .unwrap();
        runtime.shutdown();

        let revived = ShardedRuntime::try_start(config()).unwrap();
        let recoveries: Vec<_> = revived
            .telemetry()
            .ring()
            .drain()
            .into_iter()
            .filter(|e| e.kind == EventKind::RecoveryPhase)
            .map(|e| (e.shard, e.a, e.b))
            .collect();
        // No checkpoint was written, so both journaled commands replay.
        assert_eq!(recoveries, vec![(0, recovery_phase::FULL_REPLAY, 2)]);
        revived.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
