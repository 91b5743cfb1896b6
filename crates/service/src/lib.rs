//! `fourcycle-service` — the typed, multi-tenant front door of the
//! workspace.
//!
//! The counters of `fourcycle-core` each serve exactly one graph and are
//! constructed ad hoc. [`CycleCountService`] is one object owning many
//! independent graphs, with a single command vocabulary for all of them,
//! real errors instead of silently-ignored updates, and reads that cannot
//! race writers — the service framing IVM systems (DBSP, differential
//! dataflow) put in front of their incremental cores:
//!
//! * **Sessions** — a registry of independent graphs keyed by [`GraphId`].
//!   Each session owns one counter built from a [`SessionSpec`]
//!   (engine kind, [`EngineConfig`], [`WorkloadMode`]); sessions are fully
//!   isolated, so one tenant's updates never touch another's count.
//! * **Commands** — the [`Request`]/[`Response`] enum pair: every operation
//!   of the underlying structures (create/drop, single and batched updates,
//!   count and snapshot reads) is a value, so traffic can be driven
//!   programmatically, replayed from logs, or parsed from the line-based
//!   [`command`] text format.
//! * **Errors** — the update path is fallible end-to-end:
//!   [`UpdateError`] / [`BatchError`] from `fourcycle-core` surface through
//!   [`ServiceError`], and batch rejection names the offending batch index.
//!   Batches are *atomic*: a rejected batch changes nothing.
//! * **Epochs** — every session counts its successfully applied updates;
//!   [`CycleCountService::snapshot`] returns count, edge total, work,
//!   slow-path counters and the epoch they were all taken at, as one
//!   consistent value.
//!
//! # Quick start
//!
//! ```
//! use fourcycle_core::EngineKind;
//! use fourcycle_graph::{LayeredUpdate, Rel};
//! use fourcycle_service::{CycleCountService, GraphId, WorkloadMode};
//!
//! let mut service = CycleCountService::builder()
//!     .engine(EngineKind::Threshold)
//!     .mode(WorkloadMode::Layered)
//!     .build();
//!
//! // Two tenants, two independent graphs.
//! let (alice, bob) = (GraphId(1), GraphId(2));
//! service.create_session(alice).unwrap();
//! service.create_session(bob).unwrap();
//!
//! for rel in [Rel::A, Rel::B, Rel::C, Rel::D] {
//!     let (l, r) = match rel {
//!         Rel::A => (1, 2),
//!         Rel::B => (2, 3),
//!         Rel::C => (3, 4),
//!         Rel::D => (4, 1),
//!     };
//!     service.try_apply_layered(alice, LayeredUpdate::insert(rel, l, r)).unwrap();
//! }
//! let snap = service.snapshot(alice).unwrap();
//! assert_eq!((snap.count, snap.epoch), (1, 4));
//! assert_eq!(service.snapshot(bob).unwrap().epoch, 0); // isolated
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

pub mod command;
pub mod journal;

pub use command::{
    parse_request, parse_response, parse_script, render_request, render_response,
    response_extra_lines, ParseError, Request, Response,
};
pub use fourcycle_core::{BatchError, EngineConfig, EngineKind, Snapshot, UpdateError};
pub use journal::{CheckpointImage, JournalSink, SessionImage};

use fourcycle_core::{FourCycleCounter, LayeredCycleCounter};
use fourcycle_graph::{GraphUpdate, LayeredUpdate, Rel, VertexId};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of one graph session within a service. Plain `u64` newtype:
/// tenants mint them however they like (the service only requires
/// uniqueness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub u64);

impl fmt::Display for GraphId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Which problem a session solves — which underlying structure it owns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadMode {
    /// Layered 4-cycle counting (Theorem 2) via `LayeredCycleCounter`;
    /// accepts layered updates.
    ///
    /// This is also §1's database framing: the four relations `A(L1,L2)`,
    /// `B(L2,L3)`, `C(L3,L4)`, `D(L4,L1)` are the four layers' edge sets,
    /// each join result is a layered 4-cycle (Fig. 1), so the count is the
    /// cyclic join size `|A ⋈ B ⋈ C ⋈ D|` under tuple inserts and deletes.
    /// The token `join` parses as this mode ([`WorkloadMode::from_token`]).
    Layered,
    /// General-graph 4-cycle counting (Theorem 1, §8 reduction) via
    /// `FourCycleCounter`; accepts general updates.
    General,
}

impl WorkloadMode {
    /// All modes.
    pub const ALL: [WorkloadMode; 2] = [WorkloadMode::Layered, WorkloadMode::General];

    /// Stable token used by the command text format.
    pub fn token(self) -> &'static str {
        match self {
            WorkloadMode::Layered => "layered",
            WorkloadMode::General => "general",
        }
    }

    /// Parses a mode token: [`Self::token`]'s, or `join`, the former
    /// cyclic-join mode's token, which names a layered session (ADR-003's
    /// 2026-10-20 amendment), so journals that carry it still replay.
    pub fn from_token(token: &str) -> Option<WorkloadMode> {
        match token {
            "join" => Some(WorkloadMode::Layered),
            _ => Self::ALL.into_iter().find(|m| m.token() == token),
        }
    }
}

/// Everything needed to build one session's underlying structure.
///
/// The default is a layered session on [`EngineKind::Auto`]: its engines
/// start on Appendix A's simple engine and each rebuilds once into the
/// paper's main engine when it grows past a measured size (ADR-011).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionSpec {
    /// Engine driving the session's counter ([`EngineKind::Auto`] by
    /// default).
    pub kind: EngineKind,
    /// Shared construction options (the `FmmConfig`).
    pub config: EngineConfig,
    /// Which structure the session owns.
    pub mode: WorkloadMode,
}

impl Default for SessionSpec {
    fn default() -> Self {
        Self {
            kind: EngineKind::Auto,
            config: EngineConfig::default(),
            mode: WorkloadMode::Layered,
        }
    }
}

/// Builds a [`CycleCountService`] whose sessions default to a shared
/// [`SessionSpec`] (individual sessions can still override it via
/// [`CycleCountService::create_session_with`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceBuilder {
    spec: SessionSpec,
}

impl ServiceBuilder {
    /// A builder with the default spec ([`EngineKind::Auto`], layered
    /// mode).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the default engine kind ([`EngineKind::Auto`] unless set).
    pub fn engine(mut self, kind: EngineKind) -> Self {
        self.spec.kind = kind;
        self
    }

    /// Sets the default engine configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.spec.config = config;
        self
    }

    /// Sets the default workload mode.
    pub fn mode(mut self, mode: WorkloadMode) -> Self {
        self.spec.mode = mode;
        self
    }

    /// The spec new sessions will be built from.
    pub fn spec(&self) -> SessionSpec {
        self.spec
    }

    /// Builds the (empty) service.
    pub fn build(self) -> CycleCountService {
        CycleCountService {
            default_spec: self.spec,
            sessions: BTreeMap::new(),
            journal: None,
        }
    }
}

/// Why a service call failed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceError {
    /// No session with this id exists.
    UnknownGraph(GraphId),
    /// A session with this id already exists.
    GraphAlreadyExists(GraphId),
    /// The command's update family does not match the session's mode (e.g.
    /// a general-graph update sent to a layered session).
    ModeMismatch {
        /// The addressed session.
        id: GraphId,
        /// The session's actual mode.
        mode: WorkloadMode,
    },
    /// A single update was rejected; nothing changed.
    Update(UpdateError),
    /// A batch was rejected (with the offending index); nothing changed.
    Batch(BatchError),
    /// The attached [`JournalSink`] failed to persist a successful mutating
    /// command. The command's effect *stands* (it was applied before the
    /// journal write), but the journal is now missing a suffix of the
    /// history — callers must treat it as no longer authoritative, and
    /// must **not** re-submit the command (its state change is live).
    /// Carries the I/O error kind (the full `std::io::Error` is not
    /// `Clone`/`PartialEq`; the sink is the place to log details).
    Journal(std::io::ErrorKind),
    /// The attached [`JournalSink`] failed to persist a *checkpoint*.
    /// Unlike [`ServiceError::Journal`], the triggering command — and the
    /// whole history — **is** durably journaled: full-replay recovery
    /// remains complete, only checkpoint-accelerated recovery is stale
    /// until a later checkpoint succeeds.
    JournalCheckpoint(std::io::ErrorKind),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownGraph(id) => write!(f, "unknown graph {id}"),
            ServiceError::GraphAlreadyExists(id) => write!(f, "graph {id} already exists"),
            ServiceError::ModeMismatch { id, mode } => {
                write!(f, "graph {id} is a {} session", mode.token())
            }
            ServiceError::Update(e) => write!(f, "update rejected: {e}"),
            ServiceError::Batch(e) => write!(f, "batch rejected: {e}"),
            ServiceError::Journal(kind) => {
                write!(
                    f,
                    "journal write failed ({kind:?}); command applied but not journaled"
                )
            }
            ServiceError::JournalCheckpoint(kind) => {
                write!(
                    f,
                    "checkpoint write failed ({kind:?}); command applied and journaled, \
                     checkpoint stale"
                )
            }
        }
    }
}

impl std::error::Error for ServiceError {
    /// Chains to the underlying [`UpdateError`] / [`BatchError`] (which in
    /// turn chains to its own `UpdateError`), matching the convention of
    /// `fourcycle_core::error` — so generic error reporters can walk
    /// `source()` from a service rejection down to the exact update verdict.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Update(e) => Some(e),
            ServiceError::Batch(e) => Some(e),
            ServiceError::UnknownGraph(_)
            | ServiceError::GraphAlreadyExists(_)
            | ServiceError::ModeMismatch { .. }
            | ServiceError::Journal(_)
            | ServiceError::JournalCheckpoint(_) => None,
        }
    }
}

impl From<UpdateError> for ServiceError {
    fn from(e: UpdateError) -> Self {
        ServiceError::Update(e)
    }
}

impl From<BatchError> for ServiceError {
    fn from(e: BatchError) -> Self {
        ServiceError::Batch(e)
    }
}

/// One tenant's graph: the spec it was built from plus the owned structure.
struct Session {
    spec: SessionSpec,
    state: SessionState,
}

enum SessionState {
    Layered(LayeredCycleCounter),
    General(FourCycleCounter),
}

impl Session {
    fn build(spec: SessionSpec) -> Self {
        let state = match spec.mode {
            WorkloadMode::Layered => {
                SessionState::Layered(LayeredCycleCounter::with_config(spec.kind, &spec.config))
            }
            WorkloadMode::General => {
                SessionState::General(FourCycleCounter::with_config(spec.kind, &spec.config))
            }
        };
        Self { spec, state }
    }

    fn count(&self) -> i64 {
        match &self.state {
            SessionState::Layered(c) => c.count(),
            SessionState::General(c) => c.count(),
        }
    }

    fn epoch(&self) -> u64 {
        match &self.state {
            SessionState::Layered(c) => c.epoch(),
            SessionState::General(c) => c.epoch(),
        }
    }

    fn snapshot(&self) -> Snapshot {
        match &self.state {
            SessionState::Layered(c) => c.snapshot(),
            SessionState::General(c) => c.snapshot(),
        }
    }

    fn restore_epoch(&mut self, epoch: u64) {
        match &mut self.state {
            SessionState::Layered(c) => c.restore_epoch(epoch),
            SessionState::General(c) => c.restore_epoch(epoch),
        }
    }

    fn mode_mismatch(&self, id: GraphId) -> ServiceError {
        ServiceError::ModeMismatch {
            id,
            mode: self.spec.mode,
        }
    }

    fn try_apply_layered(
        &mut self,
        id: GraphId,
        update: LayeredUpdate,
    ) -> Result<i64, ServiceError> {
        match &mut self.state {
            SessionState::Layered(c) => Ok(c.try_apply(update)?),
            SessionState::General(_) => Err(self.mode_mismatch(id)),
        }
    }

    fn try_apply_layered_batch(
        &mut self,
        id: GraphId,
        updates: &[LayeredUpdate],
    ) -> Result<i64, ServiceError> {
        match &mut self.state {
            SessionState::Layered(c) => Ok(c.try_apply_batch(updates)?),
            SessionState::General(_) => Err(self.mode_mismatch(id)),
        }
    }

    fn try_apply_general(&mut self, id: GraphId, update: GraphUpdate) -> Result<i64, ServiceError> {
        match &mut self.state {
            SessionState::General(c) => Ok(c.try_apply(update)?),
            SessionState::Layered(_) => Err(self.mode_mismatch(id)),
        }
    }

    fn try_apply_general_batch(
        &mut self,
        id: GraphId,
        updates: &[GraphUpdate],
    ) -> Result<i64, ServiceError> {
        match &mut self.state {
            SessionState::General(c) => Ok(c.try_apply_batch(updates)?),
            SessionState::Layered(_) => Err(self.mode_mismatch(id)),
        }
    }

    fn applied(&self, id: GraphId, count: i64) -> Response {
        Response::Applied {
            id,
            count,
            epoch: self.epoch(),
        }
    }

    /// Commands that recreate this session's current edge set in an empty
    /// service: one spec-carrying create, then insert batches of at most
    /// [`STATE_BATCH_LEN`] updates (bounded batches keep atomic-validation
    /// buffers and replay memory proportional to the chunk, not the graph).
    fn state_requests(&self, id: GraphId) -> Vec<Request> {
        let mut requests = vec![Request::CreateGraph {
            id,
            spec: Some(self.spec),
        }];
        match &self.state {
            SessionState::Layered(c) => {
                layered_state_requests(id, |rel| c.edges(rel), &mut requests)
            }
            SessionState::General(c) => {
                let updates: Vec<GraphUpdate> = c
                    .edges()
                    .into_iter()
                    .map(|(u, v)| GraphUpdate::insert(u, v))
                    .collect();
                requests.extend(updates.chunks(STATE_BATCH_LEN).map(|chunk| {
                    Request::ApplyGeneralBatch {
                        id,
                        updates: chunk.to_vec(),
                    }
                }));
            }
        }
        requests
    }
}

/// Maximum updates per state-reconstruction batch in a checkpoint image.
const STATE_BATCH_LEN: usize = 1024;

/// Appends insert batches recreating a layered session whose relation
/// `rel` holds `edges(rel)`.
fn layered_state_requests(
    id: GraphId,
    edges: impl Fn(Rel) -> Vec<(VertexId, VertexId)>,
    requests: &mut Vec<Request>,
) {
    let updates: Vec<LayeredUpdate> = Rel::ALL
        .into_iter()
        .flat_map(|rel| {
            edges(rel)
                .into_iter()
                .map(move |(left, right)| LayeredUpdate::insert(rel, left, right))
        })
        .collect();
    requests.extend(
        updates
            .chunks(STATE_BATCH_LEN)
            .map(|chunk| Request::ApplyLayeredBatch {
                id,
                updates: chunk.to_vec(),
            }),
    );
}

/// A multi-tenant registry of independent cycle-counting sessions — the
/// canonical application API of the workspace (see the crate docs and
/// `docs/adr/ADR-003-service-api.md`).
pub struct CycleCountService {
    default_spec: SessionSpec,
    sessions: BTreeMap<GraphId, Session>,
    /// Where successful mutating commands are mirrored; `None` (the
    /// default) makes [`CycleCountService::execute`] journaling-free.
    journal: Option<Box<dyn JournalSink>>,
}

impl Default for CycleCountService {
    fn default() -> Self {
        Self::new()
    }
}

impl CycleCountService {
    /// A service whose sessions default to [`SessionSpec::default`].
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Starts configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// The spec sessions are built from when none is given.
    pub fn default_spec(&self) -> SessionSpec {
        self.default_spec
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// `true` if no sessions exist.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// `true` if a session with this id exists.
    pub fn contains(&self, id: GraphId) -> bool {
        self.sessions.contains_key(&id)
    }

    /// All live session ids, in ascending order.
    ///
    /// The sorted order is a **guarantee**, not an artifact of the current
    /// `BTreeMap` registry: callers (the sharded runtime merges per-shard
    /// listings into one sorted `Response::Graphs`, tests diff listings
    /// against expected sets) rely on it, and the service tests pin it.
    pub fn ids(&self) -> Vec<GraphId> {
        let ids: Vec<GraphId> = self.sessions.keys().copied().collect();
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        ids
    }

    /// The spec a live session was built from.
    pub fn session_spec(&self, id: GraphId) -> Result<SessionSpec, ServiceError> {
        Ok(self.session(id)?.spec)
    }

    /// Creates a session from the service's default spec.
    pub fn create_session(&mut self, id: GraphId) -> Result<(), ServiceError> {
        self.create_session_with(id, self.default_spec)
    }

    /// Creates a session from an explicit spec.
    pub fn create_session_with(
        &mut self,
        id: GraphId,
        spec: SessionSpec,
    ) -> Result<(), ServiceError> {
        if self.sessions.contains_key(&id) {
            return Err(ServiceError::GraphAlreadyExists(id));
        }
        self.sessions.insert(id, Session::build(spec));
        Ok(())
    }

    /// Drops a session, releasing its graph.
    pub fn drop_session(&mut self, id: GraphId) -> Result<(), ServiceError> {
        self.sessions
            .remove(&id)
            .map(|_| ())
            .ok_or(ServiceError::UnknownGraph(id))
    }

    /// Current count of a session (layered or general 4-cycles, depending
    /// on its mode).
    pub fn count(&self, id: GraphId) -> Result<i64, ServiceError> {
        Ok(self.session(id)?.count())
    }

    /// Number of updates a session has successfully applied.
    pub fn epoch(&self, id: GraphId) -> Result<u64, ServiceError> {
        Ok(self.session(id)?.epoch())
    }

    /// A consistent point-in-time view of one session: count, edge/tuple
    /// total, work, slow-path counters and the epoch they were all taken
    /// at. Because the service hands out no direct mutable access, no
    /// writer can slip between the fields of one snapshot.
    pub fn snapshot(&self, id: GraphId) -> Result<Snapshot, ServiceError> {
        Ok(self.session(id)?.snapshot())
    }

    /// Applies one layered update; returns the session's new
    /// count.
    pub fn try_apply_layered(
        &mut self,
        id: GraphId,
        update: LayeredUpdate,
    ) -> Result<i64, ServiceError> {
        self.session_mut(id)?.try_apply_layered(id, update)
    }

    /// Atomically applies a batch of layered updates;
    /// rejection attributes the first offending batch index and changes
    /// nothing.
    pub fn try_apply_layered_batch(
        &mut self,
        id: GraphId,
        updates: &[LayeredUpdate],
    ) -> Result<i64, ServiceError> {
        self.session_mut(id)?.try_apply_layered_batch(id, updates)
    }

    /// Applies one general-graph update; returns the session's new count.
    pub fn try_apply_general(
        &mut self,
        id: GraphId,
        update: GraphUpdate,
    ) -> Result<i64, ServiceError> {
        self.session_mut(id)?.try_apply_general(id, update)
    }

    /// Atomically applies a batch of general-graph updates.
    pub fn try_apply_general_batch(
        &mut self,
        id: GraphId,
        updates: &[GraphUpdate],
    ) -> Result<i64, ServiceError> {
        self.session_mut(id)?.try_apply_general_batch(id, updates)
    }

    /// Attaches a journal sink: from now on every successful mutating
    /// command executed through [`execute`](Self::execute) /
    /// [`execute_all`](Self::execute_all) is mirrored into it (see the
    /// [`journal`] module docs for the contract). Replaces any previous
    /// sink. The typed entry points (`try_apply_*`, `create_session`, …)
    /// are the *embedded* API and bypass the journal — durable deployments
    /// drive the service through commands.
    pub fn attach_journal(&mut self, sink: Box<dyn JournalSink>) {
        self.journal = Some(sink);
    }

    /// Detaches and returns the journal sink, if any (without syncing).
    pub fn detach_journal(&mut self) -> Option<Box<dyn JournalSink>> {
        self.journal.take()
    }

    /// `true` if a journal sink is attached.
    pub fn is_journaled(&self) -> bool {
        self.journal.is_some()
    }

    /// Durability barrier: asks the attached sink to flush and fsync
    /// everything recorded so far. A no-op without a sink.
    pub fn sync_journal(&mut self) -> Result<(), ServiceError> {
        match self.journal.as_mut() {
            Some(sink) => sink.sync().map_err(|e| ServiceError::Journal(e.kind())),
            None => Ok(()),
        }
    }

    /// Forces a checkpoint through the attached sink right now, regardless
    /// of [`JournalSink::checkpoint_due`]. Returns `Ok(false)` without a
    /// sink, `Ok(true)` after a persisted checkpoint.
    pub fn checkpoint(&mut self) -> Result<bool, ServiceError> {
        if self.journal.is_none() {
            return Ok(false);
        }
        self.write_checkpoint_now()?;
        Ok(true)
    }

    /// A consistent point-in-time image of every session: spec, snapshot,
    /// and the command sequence recreating its current edge set (see
    /// [`CheckpointImage`]).
    pub fn checkpoint_image(&self) -> CheckpointImage {
        Self::image_of(&self.sessions)
    }

    /// Overwrites a session's applied-update count. Crash-recovery hook
    /// (`fourcycle-store`): replaying a checkpoint's state commands leaves
    /// the epoch at the edge count, and this restores the recorded value.
    /// Not for general use — everywhere else the epoch is maintained solely
    /// by the apply paths.
    pub fn restore_epoch(&mut self, id: GraphId, epoch: u64) -> Result<(), ServiceError> {
        self.session_mut(id)?.restore_epoch(epoch);
        Ok(())
    }

    fn image_of(sessions: &BTreeMap<GraphId, Session>) -> CheckpointImage {
        CheckpointImage {
            sessions: sessions
                .iter()
                .map(|(&id, session)| SessionImage {
                    id,
                    spec: session.spec,
                    snapshot: session.snapshot(),
                    state: session.state_requests(id),
                })
                .collect(),
        }
    }

    /// Assembles the current [`CheckpointImage`] and hands it to the sink.
    /// The image is built before the sink is borrowed (the two live in
    /// different fields), which is what lets one body serve both the
    /// explicit [`checkpoint`](Self::checkpoint) and the cadence-driven
    /// path in [`execute`](Self::execute).
    fn write_checkpoint_now(&mut self) -> Result<(), ServiceError> {
        let image = Self::image_of(&self.sessions);
        match self.journal.as_mut() {
            Some(sink) => sink
                .write_checkpoint(&image)
                .map_err(|e| ServiceError::JournalCheckpoint(e.kind())),
            None => Ok(()),
        }
    }

    /// Journals one *already applied* mutating request — the second half
    /// of the split execute path, after
    /// [`execute_unjournaled`](Self::execute_unjournaled). The runtime's
    /// dispatcher calls it right after each successful apply, so the WAL
    /// holds the commands in execution order. Non-mutating requests are a
    /// no-op. Serves a due checkpoint, like [`execute`](Self::execute)
    /// does.
    pub fn journal_record_applied(&mut self, request: &Request) -> Result<(), ServiceError> {
        if !request.is_mutation() {
            return Ok(());
        }
        self.journal_applied(request)
    }

    /// Group-commit barrier: makes everything recorded since the last fsync
    /// durable with one fsync (see [`JournalSink::commit_group`]). Returns
    /// the number of commands the fsync covered; `Ok(0)` without a sink or
    /// with nothing pending. Callers holding replies under
    /// `FsyncPolicy::GroupCommit` release them only after this returns
    /// `Ok` — on `Err`, every reply journaled into the failed group must be
    /// rewritten to `ServiceError::Journal` (the commands applied, but are
    /// not durable).
    pub fn journal_commit_group(&mut self) -> Result<u64, ServiceError> {
        match self.journal.as_mut() {
            Some(sink) => sink
                .commit_group()
                .map_err(|e| ServiceError::Journal(e.kind())),
            None => Ok(0),
        }
    }

    /// Fsyncs the attached sink has issued so far (0 without a sink).
    pub fn journal_fsyncs(&self) -> u64 {
        self.journal.as_ref().map_or(0, |sink| sink.fsyncs())
    }

    /// Mirrors a just-applied mutating request into the journal sink and
    /// serves a due checkpoint. Called by [`execute`](Self::execute) only
    /// after success.
    fn journal_applied(&mut self, request: &Request) -> Result<(), ServiceError> {
        let Some(sink) = self.journal.as_mut() else {
            return Ok(());
        };
        sink.record(request)
            .map_err(|e| ServiceError::Journal(e.kind()))?;
        if sink.checkpoint_due() {
            self.write_checkpoint_now()?;
        }
        Ok(())
    }

    /// Executes one command; the uniform entry point for programmatic and
    /// replayed traffic. Failed commands change nothing.
    ///
    /// With a [`JournalSink`] attached ([`Self::attach_journal`]), every
    /// successful mutating command is mirrored into the journal *before*
    /// the response is returned, so a caller that has seen a response
    /// holds a journaled (durable, per the sink's fsync policy) command.
    /// Reads and rejected commands are never journaled.
    pub fn execute(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let response = self.apply_request(request)?;
        if request.is_mutation() {
            self.journal_applied(request)?;
        }
        Ok(response)
    }

    /// Applies one command without touching the journal — the first half
    /// of the split execute path, with [`Self::journal_record_applied`] as
    /// the second. A driver that needs to observe or order the journal
    /// step separately (the runtime's telemetry-instrumented dispatcher)
    /// calls these two in sequence; the pair is equivalent to
    /// [`execute`](Self::execute), including the journal-error contract:
    /// if journaling fails after a successful apply, the effect stands and
    /// the caller must surface the journal error as the command's outcome.
    pub fn execute_unjournaled(&mut self, request: &Request) -> Result<Response, ServiceError> {
        self.apply_request(request)
    }

    /// Applies one command without touching the journal (the replay path of
    /// recovery, and the body of [`execute`](Self::execute)).
    fn apply_request(&mut self, request: &Request) -> Result<Response, ServiceError> {
        match request {
            Request::CreateGraph { id, spec } => {
                self.create_session_with(*id, spec.unwrap_or(self.default_spec))?;
                Ok(Response::Created { id: *id })
            }
            Request::DropGraph { id } => {
                self.drop_session(*id)?;
                Ok(Response::Dropped { id: *id })
            }
            Request::ApplyLayered { id, update } => {
                let session = self.session_mut(*id)?;
                let count = session.try_apply_layered(*id, *update)?;
                Ok(session.applied(*id, count))
            }
            Request::ApplyLayeredBatch { id, updates } => {
                let session = self.session_mut(*id)?;
                let count = session.try_apply_layered_batch(*id, updates)?;
                Ok(session.applied(*id, count))
            }
            Request::ApplyGeneral { id, update } => {
                let session = self.session_mut(*id)?;
                let count = session.try_apply_general(*id, *update)?;
                Ok(session.applied(*id, count))
            }
            Request::ApplyGeneralBatch { id, updates } => {
                let session = self.session_mut(*id)?;
                let count = session.try_apply_general_batch(*id, updates)?;
                Ok(session.applied(*id, count))
            }
            Request::Count { id } => Ok(Response::Count {
                id: *id,
                count: self.count(*id)?,
            }),
            Request::GetSnapshot { id } => Ok(Response::Snapshot {
                id: *id,
                snapshot: self.snapshot(*id)?,
            }),
            Request::ListGraphs => Ok(Response::Graphs { ids: self.ids() }),
        }
    }

    /// Executes commands in order, stopping at (and returning) the first
    /// error; responses of the commands before it are lost, but their
    /// effects stand — command streams with transactional needs should use
    /// the batch commands, which are atomic.
    pub fn execute_all(&mut self, requests: &[Request]) -> Result<Vec<Response>, ServiceError> {
        requests.iter().map(|r| self.execute(r)).collect()
    }

    fn session(&self, id: GraphId) -> Result<&Session, ServiceError> {
        self.sessions.get(&id).ok_or(ServiceError::UnknownGraph(id))
    }

    fn session_mut(&mut self, id: GraphId) -> Result<&mut Session, ServiceError> {
        self.sessions
            .get_mut(&id)
            .ok_or(ServiceError::UnknownGraph(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_graph::Rel;

    fn square(id_base: u32) -> [LayeredUpdate; 4] {
        [
            LayeredUpdate::insert(Rel::A, id_base + 1, id_base + 2),
            LayeredUpdate::insert(Rel::B, id_base + 2, id_base + 3),
            LayeredUpdate::insert(Rel::C, id_base + 3, id_base + 4),
            LayeredUpdate::insert(Rel::D, id_base + 4, id_base + 1),
        ]
    }

    #[test]
    fn sessions_are_isolated_and_epoch_tracks_applied_updates() {
        let mut svc = CycleCountService::builder()
            .engine(EngineKind::Simple)
            .build();
        svc.create_session(GraphId(1)).unwrap();
        svc.create_session(GraphId(2)).unwrap();
        assert_eq!(
            svc.create_session(GraphId(1)),
            Err(ServiceError::GraphAlreadyExists(GraphId(1)))
        );

        for u in square(0) {
            svc.try_apply_layered(GraphId(1), u).unwrap();
        }
        let one = svc.snapshot(GraphId(1)).unwrap();
        let two = svc.snapshot(GraphId(2)).unwrap();
        assert_eq!((one.count, one.epoch, one.total_edges), (1, 4, 4));
        assert_eq!((two.count, two.epoch, two.total_edges), (0, 0, 0));

        // A rejected update advances nothing.
        assert_eq!(
            svc.try_apply_layered(GraphId(1), LayeredUpdate::insert(Rel::A, 1, 2)),
            Err(ServiceError::Update(UpdateError::DuplicateEdge))
        );
        assert_eq!(svc.epoch(GraphId(1)).unwrap(), 4);

        svc.drop_session(GraphId(2)).unwrap();
        assert_eq!(svc.ids(), vec![GraphId(1)]);
        assert_eq!(
            svc.count(GraphId(2)),
            Err(ServiceError::UnknownGraph(GraphId(2)))
        );
    }

    #[test]
    fn ids_are_sorted_regardless_of_creation_order() {
        let mut svc = CycleCountService::builder()
            .engine(EngineKind::Simple)
            .build();
        // Insert in a deliberately scrambled order (and with ids whose
        // hashes would interleave arbitrarily in a hash registry).
        for raw in [9, 2, 7, 1, 1 << 60, 4, 3] {
            svc.create_session(GraphId(raw)).unwrap();
        }
        let ids = svc.ids();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "ids() must return ascending ids");
        // The guarantee holds through drops too.
        svc.drop_session(GraphId(4)).unwrap();
        assert_eq!(svc.ids(), [1, 2, 3, 7, 9, 1 << 60].map(GraphId).to_vec());
    }

    #[test]
    fn service_error_sources_chain_to_the_core_verdict() {
        use std::error::Error;
        let update = ServiceError::Update(UpdateError::SelfLoop);
        let source = update.source().expect("update errors chain");
        assert_eq!(source.to_string(), UpdateError::SelfLoop.to_string());

        // Batch rejections chain two levels: service → batch → update.
        let batch = ServiceError::Batch(BatchError::at(3, UpdateError::MissingEdge));
        let mid = batch.source().expect("batch errors chain");
        assert!(mid.to_string().contains("#3"));
        let leaf = mid.source().expect("BatchError chains to UpdateError");
        assert_eq!(leaf.to_string(), UpdateError::MissingEdge.to_string());

        // Addressing errors have no underlying cause.
        assert!(ServiceError::UnknownGraph(GraphId(1)).source().is_none());
    }

    #[test]
    fn request_accessors_name_routing_key_and_update_count() {
        let id = GraphId(5);
        let batch = square(0).to_vec();
        assert_eq!(Request::ListGraphs.graph_id(), None);
        assert_eq!(Request::Count { id }.graph_id(), Some(id));
        assert_eq!(Request::Count { id }.update_count(), 0);
        assert_eq!(
            Request::ApplyLayered {
                id,
                update: batch[0]
            }
            .update_count(),
            1
        );
        assert_eq!(
            Request::ApplyLayeredBatch {
                id,
                updates: batch.clone()
            }
            .update_count(),
            4
        );
        assert_eq!(
            Request::ApplyGeneralBatch {
                id,
                updates: vec![GraphUpdate::insert(1, 2), GraphUpdate::insert(2, 3)],
            }
            .update_count(),
            2
        );
        for request in [
            Request::CreateGraph { id, spec: None },
            Request::DropGraph { id },
            Request::GetSnapshot { id },
        ] {
            assert_eq!(request.graph_id(), Some(id));
            assert_eq!(request.update_count(), 0);
        }
    }

    #[test]
    fn batches_are_atomic_with_index_attribution() {
        let mut svc = CycleCountService::builder()
            .engine(EngineKind::Threshold)
            .build();
        svc.create_session(GraphId(7)).unwrap();
        let mut batch = square(0).to_vec();
        batch.push(LayeredUpdate::insert(Rel::A, 1, 2)); // duplicate of #0
        let err = svc.try_apply_layered_batch(GraphId(7), &batch).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Batch(BatchError::at(4, UpdateError::DuplicateEdge))
        );
        // Atomic: nothing from the rejected batch landed.
        let snap = svc.snapshot(GraphId(7)).unwrap();
        assert_eq!((snap.count, snap.epoch, snap.total_edges), (0, 0, 0));

        batch.pop();
        assert_eq!(svc.try_apply_layered_batch(GraphId(7), &batch), Ok(1));
        assert_eq!(svc.epoch(GraphId(7)).unwrap(), 4);
    }

    #[test]
    fn modes_route_to_the_right_structure() {
        let mut svc = CycleCountService::new();
        let spec = |mode| SessionSpec {
            kind: EngineKind::Simple,
            config: EngineConfig::default(),
            mode,
        };
        svc.create_session_with(GraphId(1), spec(WorkloadMode::General))
            .unwrap();
        svc.create_session_with(GraphId(2), spec(WorkloadMode::Layered))
            .unwrap();

        // General session: 4-cycle counting with self-loop rejection.
        for (u, v) in [(1, 2), (2, 3), (3, 4)] {
            svc.try_apply_general(GraphId(1), GraphUpdate::insert(u, v))
                .unwrap();
        }
        assert_eq!(
            svc.try_apply_general(GraphId(1), GraphUpdate::insert(4, 1)),
            Ok(1)
        );
        assert_eq!(
            svc.try_apply_general(GraphId(1), GraphUpdate::insert(5, 5)),
            Err(ServiceError::Update(UpdateError::SelfLoop))
        );

        // Layered session accepts layered (tuple) updates.
        assert_eq!(
            svc.try_apply_layered(GraphId(2), LayeredUpdate::insert(Rel::A, 1, 2)),
            Ok(0)
        );

        // Cross-mode traffic is rejected with the session's mode.
        assert_eq!(
            svc.try_apply_layered(GraphId(1), LayeredUpdate::insert(Rel::A, 1, 2)),
            Err(ServiceError::ModeMismatch {
                id: GraphId(1),
                mode: WorkloadMode::General
            })
        );
        assert_eq!(
            svc.try_apply_general(GraphId(2), GraphUpdate::insert(1, 2)),
            Err(ServiceError::ModeMismatch {
                id: GraphId(2),
                mode: WorkloadMode::Layered
            })
        );
    }

    #[test]
    fn execute_covers_the_whole_surface() {
        let mut svc = CycleCountService::builder()
            .engine(EngineKind::Simple)
            .build();
        let id = GraphId(3);
        let responses = svc
            .execute_all(&[
                Request::CreateGraph { id, spec: None },
                Request::ApplyLayeredBatch {
                    id,
                    updates: square(0).to_vec(),
                },
                Request::Count { id },
                Request::GetSnapshot { id },
                Request::ListGraphs,
                Request::DropGraph { id },
            ])
            .unwrap();
        assert_eq!(responses[0], Response::Created { id });
        assert_eq!(
            responses[1],
            Response::Applied {
                id,
                count: 1,
                epoch: 4
            }
        );
        assert_eq!(responses[2], Response::Count { id, count: 1 });
        match &responses[3] {
            Response::Snapshot { snapshot, .. } => assert_eq!(snapshot.epoch, 4),
            other => panic!("expected snapshot, got {other:?}"),
        }
        assert_eq!(responses[4], Response::Graphs { ids: vec![id] });
        assert_eq!(responses[5], Response::Dropped { id });
        assert!(svc.is_empty());
    }
}
