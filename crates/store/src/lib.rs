//! `fourcycle-store` — durable write-ahead journaling and crash recovery
//! for [`CycleCountService`] sessions (re-exported as `fourcycle::store`).
//!
//! Every layer below this crate is memory-only: a process exit loses all
//! graph state. This crate adds the missing durability tier of the ROADMAP
//! north star, built on a deliberately boring foundation — the command
//! *text format* the service already ships ([`render_request`] /
//! [`parse_request`]): the journal is a plain text file of commands, a
//! checkpoint is a JSON header plus a command script, and recovery is
//! replay. Anything that can parse the script format can inspect, filter
//! or rewrite a journal, and any recovered state is explainable as "these
//! commands, in this order".
//!
//! # On-disk layout (one directory per deployment)
//!
//! ```text
//! journal-dir/
//!   manifest.json    {"version":1,"shards":2,"mode":"layered","engine":"fmm-main"}
//!   shard-0.wal      one rendered mutating Request per line, append-only
//!   shard-0.ckpt     checkpoint: JSON header line + state script (atomic rename)
//!   shard-0.lock     single-writer pid file (held while a journal is open;
//!                    stale locks of dead processes are taken over)
//!   shard-1.wal
//!   shard-1.ckpt
//! ```
//!
//! * **WAL.** [`ShardJournal`] implements the service's
//!   [`JournalSink`]: every successful mutating command is appended as one
//!   `render_request` line and flushed to the OS before the caller sees its
//!   response; `fsync` frequency is the [`FsyncPolicy`] knob. A command is
//!   *committed* once its trailing newline is on disk — recovery discards a
//!   torn final line (the crash window of an in-flight append).
//! * **Checkpoints.** Periodically (every [`JournalConfig::
//!   checkpoint_every`] commands, or on demand via
//!   [`CycleCountService::checkpoint`]) the service's [`CheckpointImage`] is
//!   written as a JSON header (`{"version":1,"shard":0,"offset":N,
//!   "sessions":[{"id":..,"count":..,"total_edges":..,"epoch":..},..]}`)
//!   followed by a script that recreates every session's current edge set,
//!   written to a temp file and atomically renamed. `offset` is the number
//!   of WAL commands the checkpoint covers.
//! * **Recovery.** [`JournalStore::recover_shard`] rebuilds a service from
//!   checkpoint + tail replay: execute the checkpoint script, restore each
//!   session's epoch, verify `{count, total_edges, epoch}` against the
//!   header, then replay WAL lines `offset..`. A missing, unparseable or
//!   state-mismatched checkpoint falls back to full WAL replay (the WAL is
//!   never truncated by checkpointing, so the fallback always exists); a
//!   WAL that ends *behind* a checkpoint (tail lost before an `fsync` under
//!   [`FsyncPolicy::OnShutdown`]) makes the checkpoint authoritative and
//!   [`JournalStore::open_shard`] resets the journal files to match.
//!
//! After a checkpoint-based recovery the path-dependent `Snapshot` fields
//! (`work`, `slow_path`) legitimately differ from the uninterrupted run —
//! `count`, `total_edges` and `epoch` are exact (the recovery differential
//! test in `fourcycle-bench` pins this across 1–4 shards × every
//! [`EngineKind`]). Full-replay recovery is bit-for-bit.
//!
//! # Quick start
//!
//! ```
//! use fourcycle_service::{parse_script, CycleCountService};
//! use fourcycle_store::{JournalConfig, JournalStore};
//!
//! let dir = std::env::temp_dir().join("fourcycle-store-doctest");
//! let _ = std::fs::remove_dir_all(&dir);
//! let store = JournalStore::open(JournalConfig::new(&dir), 1, Default::default()).unwrap();
//!
//! // A journaled service: every successful mutating command is durable.
//! let mut service = store.open_shard(0).unwrap();
//! for request in parse_script("create g1\nlayered g1 A+1:2 B+2:3 C+3:4 D+4:1").unwrap() {
//!     service.execute(&request).unwrap();
//! }
//! drop(service); // crash or exit — the journal survives
//!
//! let recovered = store.recover_shard(0).unwrap();
//! let snap = recovered.snapshot(fourcycle_service::GraphId(1)).unwrap();
//! assert_eq!((snap.count, snap.epoch), (1, 4));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! The sharded runtime wires this in end-to-end through
//! `RuntimeConfig::journal_dir` (see `fourcycle-runtime`): each shard
//! worker owns `shard-<k>.wal`/`.ckpt`, and a restarted runtime recovers
//! every shard before serving traffic. See `docs/adr/ADR-005-durable-journal.md`.

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

pub mod chaos;
pub mod json;

use chaos::{ChaosJournal, FaultPlan};
use fourcycle_core::EngineKind;
use fourcycle_service::{
    parse_request, render_request, CheckpointImage, CycleCountService, GraphId, JournalSink,
    Request, ServiceError, SessionSpec, WorkloadMode,
};
use fourcycle_telemetry::ring::{recovery_phase, EventKind, EventRing};
use json::Json;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// On-disk format version of the manifest, WAL and checkpoint files.
pub const FORMAT_VERSION: u64 = 1;

/// Manifest file name inside a journal directory.
pub const MANIFEST_FILE: &str = "manifest.json";

/// WAL file name of one shard.
pub fn wal_file(shard: usize) -> String {
    format!("shard-{shard}.wal")
}

/// Checkpoint file name of one shard.
pub fn checkpoint_file(shard: usize) -> String {
    format!("shard-{shard}.ckpt")
}

/// Writer-lock file name of one shard.
pub fn lock_file(shard: usize) -> String {
    format!("shard-{shard}.lock")
}

/// How often the WAL is `fsync`ed (data reaches the OS page cache on every
/// command regardless — the policy only governs surviving an *OS* crash,
/// not a process crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every `n` committed commands (`0` and `1` both mean
    /// every command). The durable prefix is at most `n - 1` commands
    /// behind on OS crash.
    EveryN(u64),
    /// Group commit: [`record`](JournalSink::record) appends and flushes but
    /// does **not** fsync; a driver (the sharded runtime's shard dispatcher)
    /// calls [`JournalSink::commit_group`] once for the whole in-flight
    /// group and releases the group's replies only after that single fsync
    /// returns. Clients therefore keep the exact `EveryN(1)` durability
    /// guarantee — reply ⇒ journaled ⇒ durable — at a fraction of the fsync
    /// count.
    ///
    /// `max_batch` is the safety valve: if that many commands accumulate
    /// without a `commit_group`, `record` fsyncs on its own (bounds the
    /// undurable window under a driver that never commits). `max_wait` is
    /// advisory to the *driver*: how long the dispatcher may hold its
    /// mailbox open to let a group grow before committing; the journal
    /// itself never sleeps.
    GroupCommit {
        /// How long the driver may accumulate a group before committing.
        max_wait: Duration,
        /// `record` fsyncs itself once this many commands are pending.
        max_batch: u64,
    },
    /// `fsync` only on [`JournalSink::sync`] (graceful shutdown) and at
    /// checkpoints — the throughput end of the knob.
    OnShutdown,
}

impl Default for FsyncPolicy {
    /// Durability first: every command.
    fn default() -> Self {
        FsyncPolicy::EveryN(1)
    }
}

impl FsyncPolicy {
    /// Group commit with the default knobs: accumulate up to 100 µs, safety
    /// valve at 64 pending commands.
    pub fn group_commit() -> Self {
        FsyncPolicy::GroupCommit {
            max_wait: Duration::from_micros(100),
            max_batch: 64,
        }
    }
}

/// Where and how a journal is kept.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalConfig {
    /// The journal directory (created on [`JournalStore::open`]).
    pub dir: PathBuf,
    /// WAL fsync cadence.
    pub fsync: FsyncPolicy,
    /// Write a checkpoint every this many journaled commands (`None`:
    /// only explicit [`CycleCountService::checkpoint`] calls checkpoint;
    /// recovery then replays the whole WAL).
    pub checkpoint_every: Option<u64>,
    /// Fault-injection plan for chaos testing (`None` in production:
    /// [`JournalStore::open_shard`] then attaches the plain
    /// [`ShardJournal`] with no extra indirection). With a plan, each
    /// shard journal is wrapped in a [`chaos::ChaosJournal`] that fires
    /// the plan's armed faults.
    pub chaos: Option<FaultPlan>,
    /// Telemetry event ring (`None`: no events emitted). When set, the
    /// journal layer emits recovery-phase, checkpoint-write, and
    /// chaos-fault events into it; the runtime wires its telemetry ring in
    /// here so journal events land next to the shard workers'.
    pub events: Option<EventRing>,
}

impl JournalConfig {
    /// Journal into `dir` with the default policy (fsync every command, no
    /// automatic checkpoints).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::default(),
            checkpoint_every: None,
            chaos: None,
            events: None,
        }
    }

    /// Sets the fsync cadence.
    pub fn fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Enables automatic checkpoints every `n` journaled commands
    /// (clamped to at least 1).
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.checkpoint_every = Some(n.max(1));
        self
    }

    /// Arms a fault-injection plan (chaos testing only; see
    /// [`chaos::FaultPlan`]).
    pub fn chaos(mut self, plan: FaultPlan) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Attaches a telemetry event ring: the journal layer then emits
    /// recovery, checkpoint, and chaos-fault events into it.
    pub fn events(mut self, ring: EventRing) -> Self {
        self.events = Some(ring);
        self
    }
}

/// Why a store operation failed. `Clone + PartialEq` by design (the runtime
/// wraps this in its own comparable error type), so I/O failures carry the
/// [`io::ErrorKind`] and the path rather than the full `io::Error`.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The file or directory involved.
        path: String,
        /// The I/O error kind.
        kind: io::ErrorKind,
    },
    /// A journal or checkpoint file holds data that cannot be interpreted
    /// (bad header, unparseable committed line, state mismatch with no
    /// fallback left).
    Corrupt {
        /// The offending file.
        path: String,
        /// 1-based line within it (0 if not line-addressable).
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// A journaled command failed on replay — the journal and the service
    /// state diverged (e.g. hand-edited journal, wrong default spec).
    Replay {
        /// The journal file being replayed.
        path: String,
        /// 1-based line of the failing command.
        line: usize,
        /// The service's rejection.
        message: String,
    },
    /// The directory's manifest disagrees with the requested topology.
    ManifestMismatch {
        /// Which field disagreed (`shards`, `mode`, `engine`, `version`).
        field: &'static str,
        /// The manifest's value.
        manifest: String,
        /// The caller's value.
        requested: String,
    },
    /// Shard index out of range for this store.
    UnknownShard {
        /// The requested shard.
        shard: usize,
        /// The store's shard count.
        shards: usize,
    },
    /// Another live writer already holds this shard's journal (its
    /// `shard-<k>.lock` pid file names a running process). Two concurrent
    /// appenders would interleave WAL lines while each keeps its own
    /// `committed` count, desynchronizing every checkpoint offset.
    Locked {
        /// The lock file.
        path: String,
        /// The pid recorded in it (0 if unreadable).
        pid: u32,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, kind } => write!(f, "journal I/O failed ({kind:?}): {path}"),
            StoreError::Corrupt {
                path,
                line,
                message,
            } => {
                if *line == 0 {
                    write!(f, "corrupt journal file {path}: {message}")
                } else {
                    write!(f, "corrupt journal file {path}, line {line}: {message}")
                }
            }
            StoreError::Replay {
                path,
                line,
                message,
            } => write!(f, "replay of {path} failed at line {line}: {message}"),
            StoreError::ManifestMismatch {
                field,
                manifest,
                requested,
            } => write!(
                f,
                "manifest mismatch on {field}: journal was written with {manifest}, \
                 caller requested {requested}"
            ),
            StoreError::UnknownShard { shard, shards } => {
                write!(f, "shard {shard} out of range (store has {shards})")
            }
            StoreError::Locked { path, pid } => {
                write!(f, "journal shard already locked by live pid {pid}: {path}")
            }
        }
    }
}

/// RAII single-writer guard of one shard's journal files: a lock file
/// holding `pid start_time token`.
///
/// A crash leaves a stale lock, so acquisition probes whether the recorded
/// holder is still alive — on Linux by pid **and process start time** from
/// `/proc/<pid>/stat`, so a recycled pid never reads as the dead holder —
/// and takes over dead holders: restart-after-crash must not require
/// manual cleanup. Takeover renames a pre-written claim file over the
/// stale lock (re-checking just before the rename that the stale content
/// is unchanged) and then reads back the random token to confirm the
/// claim landed. This is **best-effort** exclusion: std exposes no
/// `flock`, so two processes racing the same stale lock within the
/// re-check→rename window can still both conclude they won — the
/// re-check and token read-back narrow the window to microseconds but
/// cannot close it. Against the live-holder case (the realistic operator
/// error of starting a second runtime on the same directory) the refusal
/// is reliable. On platforms without a liveness probe an existing lock is
/// always treated as live (conservative: never steal; a crash there
/// needs manual lock removal).
struct ShardLock {
    path: PathBuf,
}

impl ShardLock {
    fn acquire(dir: &Path, shard: usize) -> Result<Self, StoreError> {
        let path = dir.join(lock_file(shard));
        let token = lock_token();
        let contents = format!(
            "{} {} {token:016x}\n",
            std::process::id(),
            process_start_time(std::process::id()).unwrap_or(0)
        );
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut file) => {
                file.write_all(contents.as_bytes())
                    .map_err(|e| io_at(&path, e))?;
                let _ = file.sync_all();
                return Ok(Self { path });
            }
            Err(e) if e.kind() != io::ErrorKind::AlreadyExists => return Err(io_at(&path, e)),
            Err(_already_exists) => {}
        }
        // Somebody holds (or held) the lock. Alive → refuse; dead → claim
        // it by atomically renaming our own lock over the stale file, then
        // verify by token that *our* claim is the one that landed.
        let holder = fs::read_to_string(&path).ok().and_then(parse_lock);
        if let Some((pid, start_time, _)) = holder {
            if holder_is_alive(pid, start_time) {
                return Err(StoreError::Locked {
                    path: path.display().to_string(),
                    pid,
                });
            }
        }
        let claim = dir.join(format!("{}.claim-{token:016x}", lock_file(shard)));
        let mut file = File::create(&claim).map_err(|e| io_at(&claim, e))?;
        file.write_all(contents.as_bytes())
            .map_err(|e| io_at(&claim, e))?;
        let _ = file.sync_all();
        drop(file);
        // Re-check immediately before the rename: if the lock no longer
        // holds the stale content we observed, another claimant beat us —
        // back off instead of renaming over a freshly-live lock.
        let current = fs::read_to_string(&path).ok().and_then(parse_lock);
        if current != holder {
            let _ = fs::remove_file(&claim);
            return Err(StoreError::Locked {
                path: path.display().to_string(),
                pid: current.map_or(0, |(pid, _, _)| pid),
            });
        }
        fs::rename(&claim, &path).map_err(|e| io_at(&path, e))?;
        let landed = fs::read_to_string(&path).ok().and_then(parse_lock);
        match landed {
            Some((_, _, t)) if t == token => Ok(Self { path }),
            landed => Err(StoreError::Locked {
                path: path.display().to_string(),
                pid: landed.map_or(0, |(pid, _, _)| pid),
            }),
        }
    }
}

impl Drop for ShardLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Parses `pid start_time token` (older two-field or one-field files parse
/// with zero fill, treated like any unreadable holder data).
fn parse_lock(contents: String) -> Option<(u32, u64, u64)> {
    let mut fields = contents.split_whitespace();
    let pid = fields.next()?.parse::<u32>().ok()?;
    let start_time = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    let token = fields
        .next()
        .and_then(|f| u64::from_str_radix(f, 16).ok())
        .unwrap_or(0);
    Some((pid, start_time, token))
}

/// A process-unique random token (std's `RandomState` is the only source
/// of randomness available without external crates).
fn lock_token() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

/// Start time (clock ticks since boot) of a process, from field 22 of
/// `/proc/<pid>/stat` — the pair (pid, start time) is unique across pid
/// recycling. `None` if the process is gone or the field unreadable.
#[cfg(target_os = "linux")]
fn process_start_time(pid: u32) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The comm field (2) may contain spaces/parens; everything after the
    // *last* ')' is whitespace-separated, starting at field 3 (state).
    let after_comm = &stat[stat.rfind(')')? + 1..];
    after_comm
        .split_whitespace()
        .nth(19) // field 22 overall
        .and_then(|f| f.parse().ok())
}

#[cfg(not(target_os = "linux"))]
fn process_start_time(_pid: u32) -> Option<u64> {
    None
}

#[cfg(target_os = "linux")]
fn holder_is_alive(pid: u32, recorded_start: u64) -> bool {
    match process_start_time(pid) {
        // A live pid with a different start time is a recycled pid — the
        // recorded holder is dead. Start time 0 means the recorder could
        // not read its own stat; fall back to pid existence alone.
        Some(current) => recorded_start == 0 || current == recorded_start,
        None => false,
    }
}

#[cfg(not(target_os = "linux"))]
fn holder_is_alive(_pid: u32, _recorded_start: u64) -> bool {
    true
}

impl std::error::Error for StoreError {}

fn io_at(path: &Path, e: io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        kind: e.kind(),
    }
}

fn corrupt(path: &Path, line: usize, message: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        path: path.display().to_string(),
        line,
        message: message.into(),
    }
}

/// The committed contents of one WAL file.
struct WalContents {
    /// Committed command lines, in append order.
    lines: Vec<String>,
    /// Byte length of the committed prefix (everything up to and including
    /// the last newline); bytes beyond this are a torn final append.
    committed_bytes: u64,
    /// Total bytes currently in the file.
    file_bytes: u64,
}

/// Reads a WAL, discarding a torn (newline-less) final line. A missing
/// file reads as empty.
fn read_wal(path: &Path) -> Result<WalContents, StoreError> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_at(path, e)),
    };
    let file_bytes = u64::try_from(bytes.len()).unwrap_or(u64::MAX);
    let committed_len = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |idx| idx + 1);
    let committed = std::str::from_utf8(&bytes[..committed_len])
        .map_err(|_| corrupt(path, 0, "committed region is not valid UTF-8"))?;
    let mut lines = Vec::new();
    for (i, line) in committed.lines().enumerate() {
        if line.trim().is_empty() {
            // Offsets count committed commands; a blank line would silently
            // shift every later checkpoint offset, so it is corruption, not
            // noise to skip.
            return Err(corrupt(path, i + 1, "blank line in journal"));
        }
        lines.push(line.to_string());
    }
    Ok(WalContents {
        lines,
        committed_bytes: u64::try_from(committed_len).unwrap_or(u64::MAX),
        file_bytes,
    })
}

/// A parsed checkpoint file.
struct Checkpoint {
    /// The shard the checkpoint was written for (verified against the
    /// shard being recovered — a backup restored to the wrong shard must
    /// not silently recover foreign sessions, or worse, trigger the
    /// WAL-behind-checkpoint reset and destroy the real history).
    shard: u64,
    /// Number of WAL commands the checkpoint covers.
    offset: u64,
    /// Per-session verification header: (id, count, total_edges, epoch).
    sessions: Vec<(GraphId, i64, u64, u64)>,
    /// The state script recreating every session.
    script: Vec<Request>,
}

fn render_checkpoint(shard: usize, offset: u64, image: &CheckpointImage) -> String {
    let sessions: Vec<String> = image
        .sessions
        .iter()
        .map(|s| {
            format!(
                "{{\"id\": {}, \"count\": {}, \"total_edges\": {}, \"epoch\": {}}}",
                s.id.0, s.snapshot.count, s.snapshot.total_edges, s.snapshot.epoch
            )
        })
        .collect();
    let mut out = format!(
        "{{\"version\": {FORMAT_VERSION}, \"shard\": {shard}, \"offset\": {offset}, \
         \"sessions\": [{}]}}\n",
        sessions.join(", ")
    );
    for session in &image.sessions {
        for request in &session.state {
            out.push_str(&render_request(request));
            out.push('\n');
        }
    }
    out
}

fn parse_checkpoint(path: &Path, contents: &str) -> Result<Checkpoint, StoreError> {
    let mut lines = contents.lines();
    let header = lines
        .next()
        .ok_or_else(|| corrupt(path, 0, "empty checkpoint"))?;
    let header = Json::parse(header).map_err(|e| corrupt(path, 1, e.to_string()))?;
    let version = header
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt(path, 1, "missing version"))?;
    if version != FORMAT_VERSION {
        return Err(corrupt(path, 1, format!("unsupported version {version}")));
    }
    let shard = header
        .get("shard")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt(path, 1, "missing shard"))?;
    let offset = header
        .get("offset")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt(path, 1, "missing offset"))?;
    let mut sessions = Vec::new();
    for entry in header
        .get("sessions")
        .and_then(Json::as_arr)
        .ok_or_else(|| corrupt(path, 1, "missing sessions array"))?
    {
        let field = |name: &str| {
            entry
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| corrupt(path, 1, format!("session missing {name}")))
        };
        let count = entry
            .get("count")
            .and_then(Json::as_i64)
            .ok_or_else(|| corrupt(path, 1, "session missing count"))?;
        sessions.push((
            GraphId(field("id")?),
            count,
            field("total_edges")?,
            field("epoch")?,
        ));
    }
    let mut script = Vec::new();
    for (i, line) in lines.enumerate() {
        let request = parse_request(line)
            .map_err(|e| corrupt(path, i + 2, format!("bad state command: {e}")))?;
        script.push(request);
    }
    Ok(Checkpoint {
        shard,
        offset,
        sessions,
        script,
    })
}

/// Writes a file durably: temp file, flush, fsync, atomic rename (plus a
/// best-effort directory fsync so the rename itself survives).
fn write_atomic(dir: &Path, name: &str, contents: &str) -> Result<(), StoreError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let target = dir.join(name);
    let mut file = File::create(&tmp).map_err(|e| io_at(&tmp, e))?;
    file.write_all(contents.as_bytes())
        .map_err(|e| io_at(&tmp, e))?;
    file.sync_all().map_err(|e| io_at(&tmp, e))?;
    fs::rename(&tmp, &target).map_err(|e| io_at(&target, e))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// The per-shard write-ahead journal: the store's [`JournalSink`].
///
/// Obtained via [`JournalStore::open_shard`] (which recovers existing state
/// first and attaches the journal to the recovered service). Appends one
/// rendered command line per [`record`](JournalSink::record), flushed to
/// the OS before returning; `fsync` cadence per [`FsyncPolicy`].
///
/// **Fail-stop**: after the first write/flush/fsync failure the journal is
/// poisoned — every later `record`, `write_checkpoint` and `sync` returns
/// the original error without touching the file. A failed flush can leave
/// a rendered line sitting in the buffer, and a *later* successful flush
/// would push it to disk while the `committed` counter no longer matches
/// the WAL's true line count — every subsequent checkpoint offset would be
/// off by one and tail replay would re-execute a checkpointed command.
/// Refusing all further writes bounds the damage at exactly the first
/// failed command: the on-disk WAL stays a clean prefix of history, and
/// recovery from it is still correct.
pub struct ShardJournal {
    shard: usize,
    dir: PathBuf,
    wal: BufWriter<File>,
    /// Committed commands in the WAL (equals its line count).
    committed: u64,
    since_sync: u64,
    since_checkpoint: u64,
    /// Commands appended (and flushed) but not yet covered by a WAL fsync —
    /// the group a [`commit_group`](JournalSink::commit_group) would make
    /// durable. Only grows under [`FsyncPolicy::GroupCommit`].
    pending_group: u64,
    /// WAL `sync_data` calls issued so far (every fsync path counts: policy
    /// fsyncs, group commits, checkpoints, explicit syncs).
    fsyncs: u64,
    fsync: FsyncPolicy,
    checkpoint_every: Option<u64>,
    /// First write failure, if any; set once, never cleared (fail-stop).
    poisoned: Option<io::ErrorKind>,
    /// Telemetry ring for checkpoint-write events, if attached.
    events: Option<EventRing>,
    /// The shard's writer lock; released when the journal drops.
    _lock: Option<ShardLock>,
}

impl ShardJournal {
    /// Opens the shard's WAL for appending, with `committed` lines already
    /// present. The caller ([`JournalStore::open_shard`]) has already
    /// truncated any torn tail and holds the shard's writer lock, which
    /// the journal takes ownership of (released on drop).
    fn resume(
        config: &JournalConfig,
        shard: usize,
        committed: u64,
        lock: ShardLock,
    ) -> Result<Self, StoreError> {
        let wal_path = config.dir.join(wal_file(shard));
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_at(&wal_path, e))?;
        Ok(Self {
            shard,
            dir: config.dir.clone(),
            wal: BufWriter::new(file),
            committed,
            since_sync: 0,
            since_checkpoint: 0,
            pending_group: 0,
            fsyncs: 0,
            fsync: config.fsync,
            checkpoint_every: config.checkpoint_every,
            poisoned: None,
            events: config.events.clone(),
            _lock: Some(lock),
        })
    }

    /// The shard this journal belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Committed commands in the WAL so far (checkpoint offsets count in
    /// this unit).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The first write failure, if the journal has fail-stopped.
    pub fn poisoned(&self) -> Option<io::ErrorKind> {
        self.poisoned
    }

    /// The attached telemetry ring, if any ([`ChaosJournal`] shares it).
    pub(crate) fn events_ring(&self) -> Option<&EventRing> {
        self.events.as_ref()
    }

    /// Test seam: a journal over an arbitrary already-open WAL handle, so
    /// tests can point it at a file that fails writes (`/dev/full`) without
    /// routing recovery's read path through it.
    #[cfg(test)]
    fn over_file(file: File, dir: PathBuf) -> Self {
        Self {
            shard: 0,
            dir,
            wal: BufWriter::new(file),
            committed: 0,
            since_sync: 0,
            since_checkpoint: 0,
            pending_group: 0,
            fsyncs: 0,
            fsync: FsyncPolicy::EveryN(1),
            checkpoint_every: None,
            poisoned: None,
            events: None,
            _lock: None,
        }
    }

    fn guard(&self) -> io::Result<()> {
        match self.poisoned {
            Some(kind) => Err(io::Error::new(
                kind,
                "journal fail-stopped after an earlier write failure",
            )),
            None => Ok(()),
        }
    }

    /// Poisons the journal on failure (see the type docs).
    fn poison_on_err<T>(&mut self, result: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &result {
            self.poisoned = Some(e.kind());
        }
        result
    }

    /// One WAL fsync with the shared bookkeeping: counts it and clears the
    /// pending-group and since-sync windows (everything appended so far is
    /// now durable). Poisons on failure.
    fn sync_wal(&mut self) -> io::Result<()> {
        let synced = self.wal.get_ref().sync_data();
        self.poison_on_err(synced)?;
        self.fsyncs += 1;
        self.since_sync = 0;
        self.pending_group = 0;
        Ok(())
    }
}

impl JournalSink for ShardJournal {
    fn record(&mut self, request: &Request) -> io::Result<()> {
        self.guard()?;
        // Reach the OS before the caller sees a response: a *process* crash
        // after the flush loses nothing; only the fsync policy governs an
        // OS crash. Any failure poisons the journal — the buffer may now
        // hold a line the `committed` counter doesn't, and a later flush
        // pushing it out would desynchronize every checkpoint offset.
        let line = render_request(request);
        let written = writeln!(self.wal, "{line}").and_then(|()| self.wal.flush());
        self.poison_on_err(written)?;
        self.committed += 1;
        self.since_checkpoint += 1;
        match self.fsync {
            FsyncPolicy::EveryN(n) => {
                self.since_sync += 1;
                if self.since_sync >= n.max(1) {
                    self.sync_wal()?;
                }
            }
            FsyncPolicy::GroupCommit { max_batch, .. } => {
                self.pending_group += 1;
                // Safety valve: a driver that never commits still gets a
                // bounded undurable window.
                if self.pending_group >= max_batch.max(1) {
                    self.sync_wal()?;
                }
            }
            FsyncPolicy::OnShutdown => {}
        }
        Ok(())
    }

    fn commit_group(&mut self) -> io::Result<u64> {
        self.guard()?;
        if self.pending_group == 0 {
            // Nothing appended since the last fsync (read-only group, or a
            // non-group-commit policy already synced every command).
            return Ok(0);
        }
        let group = self.pending_group;
        self.sync_wal()?;
        Ok(group)
    }

    fn fsyncs(&self) -> u64 {
        self.fsyncs
    }

    fn checkpoint_due(&self) -> bool {
        self.checkpoint_every
            .is_some_and(|n| self.since_checkpoint >= n)
    }

    fn write_checkpoint(&mut self, image: &CheckpointImage) -> io::Result<()> {
        self.guard()?;
        let started = self.events.as_ref().map(|_| std::time::Instant::now());
        // The WAL must be durable up to the offset the checkpoint claims to
        // cover, or a crash could leave a checkpoint ahead of its journal.
        let flushed = self.wal.flush();
        self.poison_on_err(flushed)?;
        self.sync_wal()?;
        let contents = render_checkpoint(self.shard, self.committed, image);
        write_atomic(&self.dir, &checkpoint_file(self.shard), &contents)
            .map_err(|e| io::Error::new(e_kind(&e), e.to_string()))?;
        self.since_checkpoint = 0;
        if let (Some(ring), Some(started)) = (&self.events, started) {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            ring.emit(
                u32::try_from(self.shard).unwrap_or(u32::MAX),
                EventKind::CheckpointWrite,
                u64::try_from(image.sessions.len()).unwrap_or(u64::MAX),
                nanos,
            );
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.guard()?;
        let flushed = self.wal.flush();
        self.poison_on_err(flushed)?;
        self.sync_wal()
    }
}

/// The underlying `io::ErrorKind` of a store error (checkpoint writes go
/// through [`write_atomic`], whose `StoreError` would otherwise flatten to
/// `Other`).
fn e_kind(e: &StoreError) -> io::ErrorKind {
    match e {
        StoreError::Io { kind, .. } => *kind,
        _ => io::ErrorKind::Other,
    }
}

impl Drop for ShardJournal {
    /// Best-effort final flush + fsync, so even [`FsyncPolicy::OnShutdown`]
    /// journals are durable after a graceful drop.
    fn drop(&mut self) {
        let _ = self.wal.flush();
        let _ = self.wal.get_ref().sync_data();
    }
}

/// One shard's recovered state plus the file facts needed to resume
/// journaling.
struct LoadedShard {
    service: CycleCountService,
    wal_lines: u64,
    committed_bytes: u64,
    file_bytes: u64,
    /// The WAL ended before the checkpoint's offset (lost tail); the
    /// checkpoint was authoritative and the journal files need a reset.
    wal_behind_checkpoint: bool,
}

/// A journal directory with a validated manifest — the handle recovery and
/// journaled services are obtained from.
#[derive(Debug, Clone)]
pub struct JournalStore {
    config: JournalConfig,
    shards: usize,
    spec: SessionSpec,
}

impl JournalStore {
    /// Opens (creating if needed) a journal directory for `shards` shards
    /// whose sessions default to `spec`. An existing manifest must agree on
    /// shard count, mode and engine — recovering with a different topology
    /// would silently re-route graphs, so it is an error, not a migration.
    pub fn open(
        config: JournalConfig,
        shards: usize,
        spec: SessionSpec,
    ) -> Result<Self, StoreError> {
        let shards = shards.max(1);
        fs::create_dir_all(&config.dir).map_err(|e| io_at(&config.dir, e))?;
        let manifest_path = config.dir.join(MANIFEST_FILE);
        match fs::read_to_string(&manifest_path) {
            Ok(contents) => {
                let (m_shards, m_mode, m_engine) = parse_manifest(&manifest_path, &contents)?;
                let mismatch = |field, manifest: String, requested: String| {
                    Err(StoreError::ManifestMismatch {
                        field,
                        manifest,
                        requested,
                    })
                };
                if m_shards != shards {
                    return mismatch("shards", m_shards.to_string(), shards.to_string());
                }
                if m_mode != spec.mode {
                    return mismatch(
                        "mode",
                        m_mode.token().to_string(),
                        spec.mode.token().to_string(),
                    );
                }
                if m_engine != spec.kind {
                    return mismatch(
                        "engine",
                        m_engine.name().to_string(),
                        spec.kind.name().to_string(),
                    );
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                let contents = format!(
                    "{{\"version\": {FORMAT_VERSION}, \"shards\": {shards}, \
                     \"mode\": \"{}\", \"engine\": \"{}\"}}\n",
                    spec.mode.token(),
                    spec.kind.name()
                );
                write_atomic(&config.dir, MANIFEST_FILE, &contents)?;
            }
            Err(e) => return Err(io_at(&manifest_path, e)),
        }
        Ok(Self {
            config,
            shards,
            spec,
        })
    }

    /// Opens an *existing* journal directory, taking shard count, mode and
    /// engine from its manifest (the `EngineConfig` is not persisted and
    /// defaults).
    pub fn resume(config: JournalConfig) -> Result<Self, StoreError> {
        let manifest_path = config.dir.join(MANIFEST_FILE);
        let contents = fs::read_to_string(&manifest_path).map_err(|e| io_at(&manifest_path, e))?;
        let (shards, mode, kind) = parse_manifest(&manifest_path, &contents)?;
        let spec = SessionSpec {
            kind,
            mode,
            ..SessionSpec::default()
        };
        Ok(Self {
            config,
            shards,
            spec,
        })
    }

    /// The store's shard count (from the manifest).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The spec sessions default to on recovery.
    pub fn default_spec(&self) -> SessionSpec {
        self.spec
    }

    /// The journal configuration.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    fn check_shard(&self, shard: usize) -> Result<(), StoreError> {
        if shard < self.shards {
            Ok(())
        } else {
            Err(StoreError::UnknownShard {
                shard,
                shards: self.shards,
            })
        }
    }

    fn fresh_service(&self) -> CycleCountService {
        CycleCountService::builder()
            .engine(self.spec.kind)
            .config(self.spec.config)
            .mode(self.spec.mode)
            .build()
    }

    fn replay_lines(
        &self,
        service: &mut CycleCountService,
        path: &Path,
        lines: &[String],
        first_line_number: usize,
    ) -> Result<(), StoreError> {
        for (i, line) in lines.iter().enumerate() {
            let line_number = first_line_number + i;
            let request = parse_request(line)
                .map_err(|e| corrupt(path, line_number, format!("bad command: {e}")))?;
            service.execute(&request).map_err(|e| StoreError::Replay {
                path: path.display().to_string(),
                line: line_number,
                message: e.to_string(),
            })?;
        }
        Ok(())
    }

    /// Rebuilds a service from a checkpoint plus the WAL tail after its
    /// offset, verifying the header's per-session state.
    fn replay_from_checkpoint(
        &self,
        ckpt_path: &Path,
        ckpt: &Checkpoint,
        wal_path: &Path,
        tail: &[String],
        tail_first_line: usize,
    ) -> Result<CycleCountService, StoreError> {
        let mut service = self.fresh_service();
        for request in &ckpt.script {
            service
                .execute(request)
                .map_err(|e| corrupt(ckpt_path, 0, format!("state script rejected: {e}")))?;
        }
        for &(id, _, _, epoch) in &ckpt.sessions {
            service
                .restore_epoch(id, epoch)
                .map_err(|e| corrupt(ckpt_path, 1, format!("header/script divergence: {e}")))?;
        }
        if service.len() != ckpt.sessions.len() {
            return Err(corrupt(
                ckpt_path,
                1,
                format!(
                    "header lists {} sessions, script created {}",
                    ckpt.sessions.len(),
                    service.len()
                ),
            ));
        }
        for &(id, count, total_edges, epoch) in &ckpt.sessions {
            let snap = service
                .snapshot(id)
                .map_err(|e| corrupt(ckpt_path, 1, e.to_string()))?;
            let snap_edges = u64::try_from(snap.total_edges).unwrap_or(u64::MAX);
            if (snap.count, snap_edges, snap.epoch) != (count, total_edges, epoch) {
                return Err(corrupt(
                    ckpt_path,
                    1,
                    format!(
                        "session {id} replayed to (count {}, edges {}, epoch {}), \
                         header says (count {count}, edges {total_edges}, epoch {epoch})",
                        snap.count, snap.total_edges, snap.epoch
                    ),
                ));
            }
        }
        self.replay_lines(&mut service, wal_path, tail, tail_first_line)?;
        Ok(service)
    }

    fn load_shard(&self, shard: usize) -> Result<LoadedShard, StoreError> {
        self.check_shard(shard)?;
        let wal_path = self.config.dir.join(wal_file(shard));
        let wal = read_wal(&wal_path)?;
        let ckpt_path = self.config.dir.join(checkpoint_file(shard));
        let checkpoint = match fs::read_to_string(&ckpt_path) {
            // A checkpoint written for a *different* shard (a backup
            // restored to the wrong file) is treated as corrupt: the
            // full-replay fallback then serves the shard's own WAL, and
            // the WAL-behind-checkpoint reset — which would destroy that
            // WAL — can never be triggered by foreign state.
            Ok(contents) => Some(parse_checkpoint(&ckpt_path, &contents).and_then(|ckpt| {
                if ckpt.shard == u64::try_from(shard).unwrap_or(u64::MAX) {
                    Ok(ckpt)
                } else {
                    Err(corrupt(
                        &ckpt_path,
                        1,
                        format!("checkpoint belongs to shard {}, not {shard}", ckpt.shard),
                    ))
                }
            })),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(io_at(&ckpt_path, e)),
        };
        let loaded = |service, wal_behind_checkpoint| LoadedShard {
            service,
            wal_lines: u64::try_from(wal.lines.len()).unwrap_or(u64::MAX),
            committed_bytes: wal.committed_bytes,
            file_bytes: wal.file_bytes,
            wal_behind_checkpoint,
        };
        if let Some(Ok(ckpt)) = &checkpoint {
            // A checkpoint offset beyond the address space means a corrupt
            // or foreign checkpoint; saturating routes it into the same
            // `offset > wal.lines.len()` handling below.
            let offset = usize::try_from(ckpt.offset).unwrap_or(usize::MAX);
            if offset > wal.lines.len() {
                // The WAL lost a committed-at-checkpoint-time suffix (only
                // possible under OnShutdown fsync + OS crash). The
                // checkpoint verified its own state durably; it wins. There
                // is no full-replay fallback — the WAL is incomplete.
                let service = self.replay_from_checkpoint(&ckpt_path, ckpt, &wal_path, &[], 0)?;
                self.emit_recovery(shard, recovery_phase::WAL_BEHIND_CHECKPOINT, 0);
                return Ok(loaded(service, true));
            }
            match self.replay_from_checkpoint(
                &ckpt_path,
                ckpt,
                &wal_path,
                &wal.lines[offset..],
                offset + 1,
            ) {
                Ok(service) => {
                    self.emit_recovery(
                        shard,
                        recovery_phase::CHECKPOINT_TAIL,
                        u64::try_from(wal.lines.len() - offset).unwrap_or(u64::MAX),
                    );
                    return Ok(loaded(service, false));
                }
                // A checkpoint that fails to reproduce its own header is
                // discarded; the untruncated WAL is the fallback truth.
                Err(StoreError::Corrupt { .. }) => {}
                Err(other) => return Err(other),
            }
        }
        // No checkpoint, an unparseable one, or a state-mismatched one:
        // full WAL replay.
        let mut service = self.fresh_service();
        self.replay_lines(&mut service, &wal_path, &wal.lines, 1)?;
        self.emit_recovery(
            shard,
            recovery_phase::FULL_REPLAY,
            u64::try_from(wal.lines.len()).unwrap_or(u64::MAX),
        );
        Ok(loaded(service, false))
    }

    /// Emits a [`EventKind::RecoveryPhase`] event, if a ring is attached.
    fn emit_recovery(&self, shard: usize, phase: u64, replayed: u64) {
        if let Some(ring) = &self.config.events {
            let shard = u32::try_from(shard).unwrap_or(u32::MAX);
            ring.emit(shard, EventKind::RecoveryPhase, phase, replayed);
        }
    }

    /// Rebuilds one shard's service **without** attaching a journal — the
    /// read-only recovery path (inspection, differential tests). The files
    /// are not modified.
    pub fn recover_shard(&self, shard: usize) -> Result<CycleCountService, StoreError> {
        Ok(self.load_shard(shard)?.service)
    }

    /// Rebuilds one shard's service and attaches its [`ShardJournal`],
    /// resumed at the recovered offset, so subsequent commands append to
    /// the same history. Repairs the files first: a torn final WAL line is
    /// truncated away; a WAL that ended behind its checkpoint is reset
    /// (empty WAL + fresh checkpoint of the recovered state at offset 0).
    pub fn open_shard(&self, shard: usize) -> Result<CycleCountService, StoreError> {
        self.check_shard(shard)?;
        // Single-writer: taken before recovery so the repair/truncation
        // below can never race a live appender; held by the returned
        // journal until it drops. A concurrent second writer would keep
        // its own `committed` count over the same file and desynchronize
        // every checkpoint offset.
        let lock = ShardLock::acquire(&self.config.dir, shard)?;
        let loaded = self.load_shard(shard)?;
        let mut service = loaded.service;
        let wal_path = self.config.dir.join(wal_file(shard));
        let journal = if loaded.wal_behind_checkpoint {
            let file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&wal_path)
                .map_err(|e| io_at(&wal_path, e))?;
            file.sync_all().map_err(|e| io_at(&wal_path, e))?;
            drop(file);
            let mut journal = ShardJournal::resume(&self.config, shard, 0, lock)?;
            let image = service.checkpoint_image();
            journal
                .write_checkpoint(&image)
                .map_err(|e| io_at(&wal_path, e))?;
            journal
        } else {
            if loaded.file_bytes > loaded.committed_bytes {
                let file = OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .map_err(|e| io_at(&wal_path, e))?;
                file.set_len(loaded.committed_bytes)
                    .map_err(|e| io_at(&wal_path, e))?;
                file.sync_all().map_err(|e| io_at(&wal_path, e))?;
                self.emit_recovery(
                    shard,
                    recovery_phase::TORN_TAIL_TRUNCATED,
                    loaded.file_bytes - loaded.committed_bytes,
                );
            }
            ShardJournal::resume(&self.config, shard, loaded.wal_lines, lock)?
        };
        match self.config.chaos.clone() {
            None => service.attach_journal(Box::new(journal)),
            Some(plan) => {
                service.attach_journal(Box::new(ChaosJournal::new(journal, wal_path, plan)))
            }
        }
        Ok(service)
    }

    /// Rebuilds **all** shards into one combined service (graph ids are
    /// disjoint across shards, so the union is well-defined). Read-only.
    ///
    /// The combined service's `count`, `total_edges` and `epoch` match the
    /// sharded deployment exactly; `work`/`slow_path` are path-dependent
    /// and are not reconstructed. This is the inspection / verification
    /// view — a restarted runtime recovers shard by shard instead.
    pub fn recover(&self) -> Result<CycleCountService, StoreError> {
        let mut combined = self.fresh_service();
        let manifest_path = self.config.dir.join(MANIFEST_FILE);
        for shard in 0..self.shards {
            let service = self.recover_shard(shard)?;
            for session in service.checkpoint_image().sessions {
                for request in &session.state {
                    combined.execute(request).map_err(|e| {
                        corrupt(
                            &manifest_path,
                            0,
                            format!("shard {shard} session {} collides: {e}", session.id),
                        )
                    })?;
                }
                combined
                    .restore_epoch(session.id, session.snapshot.epoch)
                    .map_err(|e| corrupt(&manifest_path, 0, e.to_string()))?;
            }
        }
        Ok(combined)
    }
}

fn parse_manifest(
    path: &Path,
    contents: &str,
) -> Result<(usize, WorkloadMode, EngineKind), StoreError> {
    let doc = Json::parse(contents.trim()).map_err(|e| corrupt(path, 1, e.to_string()))?;
    let version = doc
        .get("version")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt(path, 1, "missing version"))?;
    if version != FORMAT_VERSION {
        return Err(StoreError::ManifestMismatch {
            field: "version",
            manifest: version.to_string(),
            requested: FORMAT_VERSION.to_string(),
        });
    }
    let shards = doc
        .get("shards")
        .and_then(Json::as_u64)
        .filter(|&n| n >= 1)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| corrupt(path, 1, "missing or zero shards"))?;
    let mode_token = doc
        .get("mode")
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt(path, 1, "missing mode"))?;
    let mode = WorkloadMode::from_token(mode_token)
        .ok_or_else(|| corrupt(path, 1, format!("unknown mode {mode_token:?}")))?;
    let engine_name = doc
        .get("engine")
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt(path, 1, "missing engine"))?;
    let kind = EngineKind::ALL
        .into_iter()
        .find(|k| k.name() == engine_name)
        .ok_or_else(|| corrupt(path, 1, format!("unknown engine {engine_name:?}")))?;
    Ok((shards, mode, kind))
}

/// `ServiceError` → `StoreError` conversion for replays driven outside
/// [`JournalStore`] (e.g. the recovery smoke binary).
impl From<ServiceError> for StoreError {
    fn from(e: ServiceError) -> Self {
        StoreError::Replay {
            path: String::new(),
            line: 0,
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_service::parse_script;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fourcycle-store-{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn spec(kind: EngineKind) -> SessionSpec {
        SessionSpec {
            kind,
            ..SessionSpec::default()
        }
    }

    /// A small mutating history whose epoch differs from its edge count
    /// (inserts + deletes), across two graphs.
    fn history() -> Vec<Request> {
        parse_script(
            "
            create g1
            create g2
            layered g1 A+1:2 B+2:3 C+3:4 D+4:1
            layered g2 A+1:2 A+1:3
            layered g1 A-1:2
            layered g1 A+1:2
            layered g2 A-1:3
            ",
        )
        .unwrap()
    }

    fn run_history(service: &mut CycleCountService, requests: &[Request]) {
        for request in requests {
            service.execute(request).unwrap();
        }
    }

    fn state_triple(service: &CycleCountService, id: u64) -> (i64, usize, u64) {
        let snap = service.snapshot(GraphId(id)).unwrap();
        (snap.count, snap.total_edges, snap.epoch)
    }

    #[test]
    fn full_replay_reconstructs_bit_for_bit() {
        let dir = test_dir("full-replay");
        let store =
            JournalStore::open(JournalConfig::new(&dir), 1, spec(EngineKind::Simple)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        run_history(&mut journaled, &history());
        let expected_g1 = journaled.snapshot(GraphId(1)).unwrap();
        drop(journaled);

        let recovered = store.recover_shard(0).unwrap();
        // Full replay is bit-for-bit: even work and slow-path counters match.
        assert_eq!(recovered.snapshot(GraphId(1)).unwrap(), expected_g1);
        assert_eq!(state_triple(&recovered, 2), (0, 1, 3));
        assert_eq!(recovered.ids(), vec![GraphId(1), GraphId(2)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_discarded_and_truncated_on_reopen() {
        let dir = test_dir("torn-tail");
        let store =
            JournalStore::open(JournalConfig::new(&dir), 1, spec(EngineKind::Threshold)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        run_history(&mut journaled, &history());
        drop(journaled);

        // Simulate a crash mid-append: a valid-looking prefix with no
        // trailing newline must be ignored even though it would parse.
        let wal = dir.join(wal_file(0));
        let mut file = OpenOptions::new().append(true).open(&wal).unwrap();
        file.write_all(b"layered g1 B+7:9").unwrap();
        drop(file);

        let recovered = store.recover_shard(0).unwrap();
        assert_eq!(state_triple(&recovered, 1), (1, 4, 6));

        // Reopening for appends truncates the torn bytes, and new commands
        // land on a clean line.
        let mut reopened = store.open_shard(0).unwrap();
        reopened
            .execute(&parse_request("layered g1 B+5:6").unwrap())
            .unwrap();
        drop(reopened);
        let recovered = store.recover_shard(0).unwrap();
        assert_eq!(state_triple(&recovered, 1), (1, 5, 7));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_plus_tail_skips_the_journal_prefix() {
        let dir = test_dir("ckpt-tail");
        let config = JournalConfig::new(&dir).checkpoint_every(3);
        let store = JournalStore::open(config, 1, spec(EngineKind::Fmm)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        run_history(&mut journaled, &history());
        let expected: Vec<_> = (1..=2).map(|id| state_triple(&journaled, id)).collect();
        drop(journaled);

        // Scribble over the *first* WAL line (same line count, unparseable
        // content). Recovery must still succeed — proof that the prefix up
        // to the checkpoint offset is never read.
        let wal = dir.join(wal_file(0));
        let contents = fs::read_to_string(&wal).unwrap();
        let mut lines: Vec<&str> = contents.lines().collect();
        lines[0] = "garbage !!";
        fs::write(&wal, format!("{}\n", lines.join("\n"))).unwrap();

        let recovered = store.recover_shard(0).unwrap();
        let got: Vec<_> = (1..=2).map(|id| state_triple(&recovered, id)).collect();
        assert_eq!(got, expected, "epoch must survive checkpoint recovery");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Set-up batches that take the counters' bulk path (insert-only, at
    /// least as large as the graph), on a layered and a general session,
    /// then per-update traffic; the general set-up carries the auto kind
    /// past its switch point.
    fn bulk_history() -> Vec<Request> {
        use fourcycle_graph::{GraphUpdate, LayeredUpdate, Rel};
        let layered = |from: u32, to: u32| Request::ApplyLayeredBatch {
            id: GraphId(1),
            updates: (from..to)
                .map(|i| LayeredUpdate::insert(Rel::from_index((i % 4) as usize), i % 17, i % 13))
                .collect(),
        };
        let general = |from: u32, to: u32| Request::ApplyGeneralBatch {
            id: GraphId(2),
            updates: (from..to)
                .map(|i| GraphUpdate::insert(i % 40, 40 + (i * 7) % 61))
                .collect(),
        };
        let mut requests = parse_script("create g1 layered auto\ncreate g2 general auto").unwrap();
        requests.extend([layered(0, 100), layered(100, 200), general(0, 250)]);
        requests.extend([general(250, 500), layered(200, 210)]);
        requests
            .extend(parse_script("layered g1 A-0:0\ngeneral g2 -0:40\ngeneral g2 +0:40").unwrap());
        requests
    }

    #[test]
    fn bulk_loaded_sessions_recover_to_their_count_and_epoch() {
        for checkpoint in [None, Some(4)] {
            let dir = test_dir("bulk-load");
            let config = JournalConfig {
                checkpoint_every: checkpoint,
                ..JournalConfig::new(&dir)
            };
            let store = JournalStore::open(config, 1, SessionSpec::default()).unwrap();
            let mut journaled = store.open_shard(0).unwrap();
            run_history(&mut journaled, &bulk_history());
            let expected: Vec<_> = (1..=2).map(|id| state_triple(&journaled, id)).collect();
            assert!(
                expected.iter().all(|&(count, _, _)| count > 0),
                "{expected:?}"
            );
            drop(journaled);

            let recovered = store.recover_shard(0).unwrap();
            let got: Vec<_> = (1..=2).map(|id| state_triple(&recovered, id)).collect();
            assert_eq!(got, expected, "checkpoint every {checkpoint:?}");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_full_wal_replay() {
        let dir = test_dir("ckpt-fallback");
        let config = JournalConfig::new(&dir).checkpoint_every(2);
        let store = JournalStore::open(config, 1, spec(EngineKind::Simple)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        run_history(&mut journaled, &history());
        let expected: Vec<_> = (1..=2).map(|id| state_triple(&journaled, id)).collect();
        drop(journaled);

        for scribble in ["not json at all", "{\"version\": 1, \"offset\": 1"] {
            fs::write(dir.join(checkpoint_file(0)), scribble).unwrap();
            let recovered = store.recover_shard(0).unwrap();
            let got: Vec<_> = (1..=2).map(|id| state_triple(&recovered, id)).collect();
            assert_eq!(got, expected, "fallback must replay the full WAL");
        }

        // A checkpoint whose header disagrees with its own script is also
        // discarded in favor of the WAL.
        let lying = "{\"version\": 1, \"shard\": 0, \"offset\": 2, \"sessions\": \
             [{\"id\": 1, \"count\": 99, \"total_edges\": 4, \"epoch\": 4}]}\n\
             create g1\nlayered g1 A+1:2 B+2:3 C+3:4 D+4:1\n"
            .to_string();
        fs::write(dir.join(checkpoint_file(0)), lying).unwrap();
        let recovered = store.recover_shard(0).unwrap();
        let got: Vec<_> = (1..=2).map(|id| state_triple(&recovered, id)).collect();
        assert_eq!(got, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_behind_checkpoint_resets_the_journal_to_the_checkpoint() {
        let dir = test_dir("wal-behind");
        let config = JournalConfig::new(&dir)
            .fsync(FsyncPolicy::OnShutdown)
            .checkpoint_every(100);
        let store = JournalStore::open(config, 1, spec(EngineKind::Threshold)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        run_history(&mut journaled, &history());
        journaled.checkpoint().unwrap(); // offset = 7
        let expected: Vec<_> = (1..=2).map(|id| state_triple(&journaled, id)).collect();
        drop(journaled);

        // Simulate the OS losing the unsynced WAL tail: keep 3 of 7 lines.
        let wal = dir.join(wal_file(0));
        let contents = fs::read_to_string(&wal).unwrap();
        let kept: Vec<&str> = contents.lines().take(3).collect();
        fs::write(&wal, format!("{}\n", kept.join("\n"))).unwrap();

        let recovered = store.recover_shard(0).unwrap();
        let got: Vec<_> = (1..=2).map(|id| state_triple(&recovered, id)).collect();
        assert_eq!(got, expected, "checkpoint is authoritative over lost WAL");

        // open_shard repairs the files: empty WAL, checkpoint at offset 0,
        // and the journal keeps working.
        let mut reopened = store.open_shard(0).unwrap();
        assert_eq!(fs::read_to_string(&wal).unwrap(), "");
        reopened
            .execute(&parse_request("layered g1 C+8:9").unwrap())
            .unwrap();
        drop(reopened);
        let recovered = store.recover_shard(0).unwrap();
        assert_eq!(
            state_triple(&recovered, 1),
            (expected[0].0, expected[0].1 + 1, expected[0].2 + 1)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_pins_topology_and_spec() {
        let dir = test_dir("manifest");
        let config = JournalConfig::new(&dir);
        JournalStore::open(config.clone(), 2, spec(EngineKind::Fmm)).unwrap();
        assert!(matches!(
            JournalStore::open(config.clone(), 4, spec(EngineKind::Fmm)),
            Err(StoreError::ManifestMismatch {
                field: "shards",
                ..
            })
        ));
        assert!(matches!(
            JournalStore::open(config.clone(), 2, spec(EngineKind::Naive)),
            Err(StoreError::ManifestMismatch {
                field: "engine",
                ..
            })
        ));
        let mut general = spec(EngineKind::Fmm);
        general.mode = WorkloadMode::General;
        assert!(matches!(
            JournalStore::open(config.clone(), 2, general),
            Err(StoreError::ManifestMismatch { field: "mode", .. })
        ));
        // resume() reads everything back from the manifest.
        let resumed = JournalStore::resume(config).unwrap();
        assert_eq!(resumed.shards(), 2);
        assert_eq!(resumed.default_spec().kind, EngineKind::Fmm);
        assert_eq!(resumed.default_spec().mode, WorkloadMode::Layered);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_wals_union_into_one_recovered_service() {
        let dir = test_dir("union");
        let store =
            JournalStore::open(JournalConfig::new(&dir), 2, spec(EngineKind::Simple)).unwrap();
        // Two shards journal disjoint graphs, as the runtime's routing
        // guarantees.
        let mut shard0 = store.open_shard(0).unwrap();
        run_history(
            &mut shard0,
            &parse_script("create g1\nlayered g1 A+1:2 B+2:3 C+3:4 D+4:1").unwrap(),
        );
        let mut shard1 = store.open_shard(1).unwrap();
        run_history(
            &mut shard1,
            &parse_script("create g2\nlayered g2 A+5:6\nlayered g2 A-5:6").unwrap(),
        );
        drop((shard0, shard1));

        let combined = store.recover().unwrap();
        assert_eq!(combined.ids(), vec![GraphId(1), GraphId(2)]);
        assert_eq!(state_triple(&combined, 1), (1, 4, 4));
        assert_eq!(state_triple(&combined, 2), (0, 0, 2));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The `join` case creates its session with the former join mode's
    /// token, which now makes a layered session (ADR-003's 2026-10-20
    /// amendment); journals written while it was a mode of its own are
    /// checked by the runtime's `journal_made_in_join_mode_reopens_as_layered`.
    #[test]
    fn general_and_join_modes_journal_and_recover_too() {
        for (name, mode, script) in [
            (
                "general-mode",
                WorkloadMode::General,
                "create g1\ngeneral g1 +1:2 +2:3 +3:4 +4:1\ngeneral g1 -2:3\ngeneral g1 +2:3",
            ),
            (
                "join-mode",
                WorkloadMode::Layered,
                "create g1 join threshold\nlayered g1 A+1:2 B+2:3 C+3:4 D+4:1\n\
                 layered g1 A-1:2\nlayered g1 A+1:2",
            ),
        ] {
            let dir = test_dir(name);
            let mut s = spec(EngineKind::Threshold);
            s.mode = mode;
            let config = JournalConfig::new(&dir).checkpoint_every(2);
            let store = JournalStore::open(config, 1, s).unwrap();
            let mut journaled = store.open_shard(0).unwrap();
            run_history(&mut journaled, &parse_script(script).unwrap());
            let expected = state_triple(&journaled, 1);
            drop(journaled);
            let recovered = store.recover_shard(0).unwrap();
            assert_eq!(state_triple(&recovered, 1), expected, "{name}");
            assert_eq!(expected.2, 6, "{name}: epoch counts all applied updates");
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Single-writer regression: a second live writer on the same shard is
    /// refused (interleaved appends with independent `committed` counters
    /// would desynchronize checkpoint offsets); the lock releases on drop,
    /// and a stale lock left by a dead process is taken over.
    #[test]
    fn second_writer_is_refused_until_the_first_releases() {
        let dir = test_dir("writer-lock");
        let store =
            JournalStore::open(JournalConfig::new(&dir), 1, spec(EngineKind::Simple)).unwrap();
        let first = store.open_shard(0).unwrap();
        match store.open_shard(0) {
            Err(StoreError::Locked { pid, .. }) => assert_eq!(pid, std::process::id()),
            Err(other) => panic!("expected Locked, got {other}"),
            Ok(_) => panic!("second concurrent writer must be refused"),
        }
        // Read-only recovery needs no lock.
        store.recover_shard(0).unwrap();
        drop(first); // releases
        store.open_shard(0).unwrap();
        // A lock file naming a dead pid is stale and taken over (Linux pid
        // probe; other platforms conservatively refuse).
        if cfg!(target_os = "linux") {
            fs::write(dir.join(lock_file(0)), "4294967294").unwrap();
            store.open_shard(0).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Stale-lock takeover across the three holder states the liveness
    /// probe distinguishes: a dead pid, a *recycled* pid (same pid alive
    /// but with a different `/proc` start time — a different process),
    /// and a genuinely live holder. The first two are taken over; the
    /// last is refused. Linux-only: other platforms have no probe and
    /// conservatively never steal.
    #[test]
    #[cfg(target_os = "linux")]
    fn stale_lock_takeover_distinguishes_dead_recycled_and_live_pids() {
        let dir = test_dir("lock-takeover");
        let store =
            JournalStore::open(JournalConfig::new(&dir), 1, spec(EngineKind::Simple)).unwrap();
        let lock_path = dir.join(lock_file(0));
        let me = std::process::id();
        let my_start = process_start_time(me).expect("own start time readable");

        // Dead pid, full three-field format with a plausible start time.
        fs::write(
            &lock_path,
            format!("4294967294 {my_start} 00000000deadbeef\n"),
        )
        .unwrap();
        let taken = store.open_shard(0).unwrap();
        drop(taken);

        // Recycled pid: *our own* live pid but a start time that is not
        // ours — the recorded holder died and the pid was reused. The
        // probe must see through the pid match and take over.
        fs::write(
            &lock_path,
            format!("{me} {} 00000000deadbeef\n", my_start + 12345),
        )
        .unwrap();
        let taken = store.open_shard(0).unwrap();
        // The takeover installed *our* claim: pid and start time are ours.
        let (pid, start, token) = parse_lock(fs::read_to_string(&lock_path).unwrap()).unwrap();
        assert_eq!((pid, start), (me, my_start));
        assert_ne!(token, 0, "claim carries a fresh random token");
        drop(taken);

        // A live holder (our pid, our true start time) is refused even
        // though no ShardLock guards it — liveness, not lock ownership,
        // is what protects a crashed-and-restarted writer's files.
        fs::write(&lock_path, format!("{me} {my_start} 00000000deadbeef\n")).unwrap();
        match store.open_shard(0) {
            Err(StoreError::Locked { pid, .. }) => assert_eq!(pid, me),
            Err(other) => panic!("live holder must be refused, got {other}"),
            Ok(_) => panic!("live holder must be refused, got a lock"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite audit (ISSUE 7): torn-tail truncation at *every* byte
    /// offset of a known command line. The committed region ends at the
    /// last newline, so however many bytes of the torn append survive,
    /// recovery must see exactly the pre-crash state, and reopening must
    /// truncate the tear and append cleanly.
    #[test]
    fn torn_truncation_is_safe_at_every_byte_offset() {
        let dir = test_dir("torn-offsets");
        let store =
            JournalStore::open(JournalConfig::new(&dir), 1, spec(EngineKind::Threshold)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        run_history(&mut journaled, &history());
        let expected: Vec<_> = (1..=2).map(|id| state_triple(&journaled, id)).collect();
        drop(journaled);

        let wal = dir.join(wal_file(0));
        let base = fs::read(&wal).unwrap();
        let line = render_request(&parse_request("layered g1 B+7:9").unwrap());
        for offset in 0..=line.len() {
            let mut torn = base.clone();
            torn.extend_from_slice(&line.as_bytes()[..offset]);
            fs::write(&wal, &torn).unwrap();
            let recovered = store.recover_shard(0).unwrap();
            let got: Vec<_> = (1..=2).map(|id| state_triple(&recovered, id)).collect();
            assert_eq!(got, expected, "torn at byte offset {offset}");
        }
        // Reopen on the longest tear: truncates and appends cleanly.
        let mut reopened = store.open_shard(0).unwrap();
        reopened
            .execute(&parse_request("layered g1 B+5:6").unwrap())
            .unwrap();
        drop(reopened);
        let appended = render_request(&parse_request("layered g1 B+5:6").unwrap());
        assert_eq!(
            fs::metadata(&wal).unwrap().len(),
            (base.len() + appended.len() + 1) as u64,
            "tear truncated, exactly one clean line appended"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite audit (ISSUE 7), multi-byte/UTF-8 boundary case: a torn
    /// write ending *inside* a multi-byte UTF-8 sequence must be
    /// discarded as one torn line — never poison `parse_request`, and
    /// never trip the committed-region UTF-8 check (which applies only
    /// up to the last newline; UTF-8 continuation bytes are ≥ 0x80, so a
    /// torn sequence can never contain the `\n` that would pull it into
    /// the committed region).
    #[test]
    fn torn_multibyte_tail_is_discarded_not_corrupt() {
        let dir = test_dir("torn-multibyte");
        let store =
            JournalStore::open(JournalConfig::new(&dir), 1, spec(EngineKind::Threshold)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        run_history(&mut journaled, &history());
        let expected: Vec<_> = (1..=2).map(|id| state_triple(&journaled, id)).collect();
        drop(journaled);

        let wal = dir.join(wal_file(0));
        let base = fs::read(&wal).unwrap();
        let tails: [&[u8]; 4] = [
            b"layered g1 B+7:9 \xE2\x82", // torn mid-'€' (3-byte seq)
            b"layered g1 \xF0\x9F\x92",   // torn mid-emoji (4-byte seq)
            b"\xE2\x82",                  // tear begins inside a sequence
            b"layered g1 B+7:9 \xC3",     // lone lead byte
        ];
        for (i, tail) in tails.iter().enumerate() {
            let mut torn = base.clone();
            torn.extend_from_slice(tail);
            fs::write(&wal, &torn).unwrap();
            let recovered = store.recover_shard(0).unwrap();
            let got: Vec<_> = (1..=2).map(|id| state_triple(&recovered, id)).collect();
            assert_eq!(got, expected, "multi-byte tear #{i}");
            // Reopening truncates the invalid bytes away.
            drop(store.open_shard(0).unwrap());
            assert_eq!(
                fs::read(&wal).unwrap(),
                base,
                "multi-byte tear #{i} truncated on reopen"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Tentpole seam, torn-append fault: the armed command writes a
    /// genuine prefix of its rendered line (no newline) to the WAL and
    /// fails with the documented `ServiceError::Journal`; the journal
    /// fail-stops; recovery sees exactly the pre-fault history and a
    /// reopen truncates the tear.
    #[test]
    fn injected_torn_append_leaves_a_genuinely_torn_wal() {
        let dir = test_dir("chaos-torn");
        let plan = chaos::FaultPlan::new(7).torn_append_at(3, io::ErrorKind::WriteZero, 9);
        let config = JournalConfig::new(&dir).chaos(plan);
        let store = JournalStore::open(config, 1, spec(EngineKind::Threshold)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        let requests = history();
        journaled.execute(&requests[0]).unwrap();
        journaled.execute(&requests[1]).unwrap();
        let err = journaled.execute(&requests[2]).unwrap_err();
        assert_eq!(err, ServiceError::Journal(io::ErrorKind::WriteZero));
        // Fail-stop: every later mutating command reports the original kind.
        let err = journaled.execute(&requests[3]).unwrap_err();
        assert_eq!(err, ServiceError::Journal(io::ErrorKind::WriteZero));
        drop(journaled);

        // The WAL really is torn: two committed lines plus a 9-byte
        // newline-less prefix of the failed command's rendering.
        let wal = dir.join(wal_file(0));
        let bytes = fs::read(&wal).unwrap();
        let committed = format!(
            "{}\n{}\n",
            render_request(&requests[0]),
            render_request(&requests[1])
        );
        let mut expected = committed.clone().into_bytes();
        expected.extend_from_slice(&render_request(&requests[2]).as_bytes()[..9]);
        assert_eq!(bytes, expected, "torn tail must be on disk, no newline");

        let recovered = store.recover_shard(0).unwrap();
        assert_eq!(recovered.ids(), vec![GraphId(1), GraphId(2)]);
        assert_eq!(state_triple(&recovered, 1), (0, 0, 0));

        // Reopen (the one-shot fault is spent): tear truncated, appends
        // land on a clean line.
        let mut reopened = store.open_shard(0).unwrap();
        run_history(&mut reopened, &requests[2..]);
        drop(reopened);
        let recovered = store.recover_shard(0).unwrap();
        assert_eq!(state_triple(&recovered, 1), (1, 4, 6));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Tentpole seam, disk-full checkpoint fault: the due command
    /// surfaces `ServiceError::JournalCheckpoint`, the journal keeps
    /// accepting commands (no poisoning), no checkpoint file appears,
    /// and recovery full-replays the WAL bit-for-bit.
    #[test]
    fn injected_checkpoint_failure_leaves_wal_authoritative() {
        let dir = test_dir("chaos-ckpt");
        let plan = chaos::FaultPlan::new(11).fail_checkpoints(io::ErrorKind::StorageFull);
        let config = JournalConfig::new(&dir).checkpoint_every(3).chaos(plan);
        let store = JournalStore::open(config, 1, spec(EngineKind::Fmm)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        let requests = history();
        let mut checkpoint_errors = 0usize;
        for request in &requests {
            match journaled.execute(request) {
                Ok(_) => {}
                Err(ServiceError::JournalCheckpoint(kind)) => {
                    assert_eq!(kind, io::ErrorKind::StorageFull);
                    checkpoint_errors += 1;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(
            checkpoint_errors >= 1,
            "the due checkpoint must have failed"
        );
        std::mem::forget(journaled); // crash, not graceful shutdown

        assert!(
            !dir.join(checkpoint_file(0)).exists(),
            "no checkpoint may exist — the WAL is the only truth"
        );
        // Every command was journaled (JournalCheckpoint ⇒ history safe):
        // recovery equals an uninterrupted replay of the full history,
        // bit-for-bit including work counters (full replay re-executes).
        let recovered = store.recover_shard(0).unwrap();
        let mut reference = CycleCountService::builder().engine(EngineKind::Fmm).build();
        run_history(&mut reference, &requests);
        for id in [1u64, 2] {
            assert_eq!(
                recovered.snapshot(GraphId(id)).unwrap(),
                reference.snapshot(GraphId(id)).unwrap(),
                "g{id}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Tentpole seam + ISSUE 7 satellite: an injected fsync failure in a
    /// group-commit drain fails the *whole journaled group* (the
    /// dispatcher rewrites exactly those replies to
    /// `ServiceError::Journal`), the journal fail-stops behind it, and
    /// after an OS-crash-faithful truncation to the last durable byte,
    /// recovery lands on exactly the previously committed groups.
    #[test]
    fn injected_group_fsync_failure_poisons_exactly_the_uncommitted_group() {
        let dir = test_dir("chaos-group");
        let plan = chaos::FaultPlan::new(13).fail_fsync_at(2, io::ErrorKind::StorageFull);
        let config = JournalConfig::new(&dir)
            .fsync(FsyncPolicy::group_commit())
            .chaos(plan.clone());
        let store = JournalStore::open(config, 1, spec(EngineKind::Threshold)).unwrap();
        let mut service = store.open_shard(0).unwrap();
        let script: Vec<Request> = parse_script(
            "
            create g1
            layered g1 A+1:101
            layered g1 A+2:102
            layered g1 A+3:103
            layered g1 A+4:104
            layered g1 A+5:105
            layered g1 A+6:106
            layered g1 A+7:107
            layered g1 A+8:108
            layered g1 A+9:109
            ",
        )
        .unwrap();

        // Group A: five commands, committed — replies released.
        for request in &script[..5] {
            service.execute(request).unwrap();
        }
        assert_eq!(service.journal_commit_group().unwrap(), 5);
        let durable = plan.durable_bytes(0).expect("group A fsync recorded");

        // Group B: five commands append + flush fine, but the drain's
        // fsync fails — the dispatcher would rewrite all five replies.
        for request in &script[5..] {
            service.execute(request).unwrap();
        }
        let err = service.journal_commit_group().unwrap_err();
        assert_eq!(err, ServiceError::Journal(io::ErrorKind::StorageFull));
        // Fail-stop behind the failed drain.
        let err = service
            .execute(&parse_request("layered g1 A+10:110").unwrap())
            .unwrap_err();
        assert_eq!(err, ServiceError::Journal(io::ErrorKind::StorageFull));

        // OS crash: no graceful drop; the un-fsynced suffix is lost.
        std::mem::forget(service);
        let wal = dir.join(wal_file(0));
        assert!(fs::metadata(&wal).unwrap().len() > durable);
        let file = OpenOptions::new().write(true).open(&wal).unwrap();
        file.set_len(durable).unwrap();
        drop(file);

        // All and only group A: the five committed commands.
        let recovered = store.recover_shard(0).unwrap();
        let mut reference = CycleCountService::builder()
            .engine(EngineKind::Threshold)
            .build();
        run_history(&mut reference, &script[..5]);
        assert_eq!(
            recovered.snapshot(GraphId(1)).unwrap(),
            reference.snapshot(GraphId(1)).unwrap()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A checkpoint restored to the wrong shard (backup mix-up) must be
    /// ignored in favor of the shard's own WAL — recovering foreign
    /// sessions, or triggering the WAL-behind-checkpoint reset on foreign
    /// state, would silently corrupt or destroy real history.
    #[test]
    fn foreign_shard_checkpoint_is_ignored() {
        let dir = test_dir("foreign-ckpt");
        let config = JournalConfig::new(&dir).checkpoint_every(2);
        let store = JournalStore::open(config, 2, spec(EngineKind::Simple)).unwrap();
        let mut shard0 = store.open_shard(0).unwrap();
        run_history(
            &mut shard0,
            &parse_script("create g1\nlayered g1 A+1:2 B+2:3 C+3:4 D+4:1").unwrap(),
        );
        let mut shard1 = store.open_shard(1).unwrap();
        run_history(
            &mut shard1,
            &parse_script("create g2\nlayered g2 A+5:6\nlayered g2 A+7:8\nlayered g2 A-5:6")
                .unwrap(),
        );
        drop((shard0, shard1));
        // Botched restore: shard 1's checkpoint lands on shard 0's slot.
        fs::copy(dir.join(checkpoint_file(1)), dir.join(checkpoint_file(0))).unwrap();
        let recovered = store.recover_shard(0).unwrap();
        assert_eq!(
            recovered.ids(),
            vec![GraphId(1)],
            "shard 0 keeps its own state"
        );
        assert_eq!(state_triple(&recovered, 1), (1, 4, 4));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Empty batches are accepted no-ops and must never reach the journal:
    /// they have no text rendering, and a journaled `layered g1 ` line
    /// would poison every later recovery of the shard at parse time.
    #[test]
    fn empty_batches_do_not_poison_the_journal() {
        let dir = test_dir("empty-batch");
        let store =
            JournalStore::open(JournalConfig::new(&dir), 1, spec(EngineKind::Simple)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        run_history(
            &mut journaled,
            &parse_script("create g1\nlayered g1 A+1:2").unwrap(),
        );
        let empty_layered = Request::ApplyLayeredBatch {
            id: GraphId(1),
            updates: vec![],
        };
        journaled.execute(&empty_layered).unwrap();
        drop(journaled);
        let recovered = store.recover_shard(0).unwrap();
        assert_eq!(state_triple(&recovered, 1), (0, 1, 1));

        // Same for general mode.
        let dir2 = test_dir("empty-batch-general");
        let mut s = spec(EngineKind::Simple);
        s.mode = WorkloadMode::General;
        let store2 = JournalStore::open(JournalConfig::new(&dir2), 1, s).unwrap();
        let mut journaled = store2.open_shard(0).unwrap();
        run_history(
            &mut journaled,
            &parse_script("create g1\ngeneral g1 +1:2").unwrap(),
        );
        journaled
            .execute(&Request::ApplyGeneralBatch {
                id: GraphId(1),
                updates: vec![],
            })
            .unwrap();
        drop(journaled);
        store2.recover_shard(0).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    /// Fail-stop regression: after the first WAL write failure the journal
    /// refuses every further write with the original error kind, so the
    /// `committed` counter can never drift from the file's true line count
    /// (a later successful flush of a stale buffered line would shift all
    /// subsequent checkpoint offsets by one).
    #[test]
    #[cfg(unix)]
    fn journal_fail_stops_after_the_first_write_failure() {
        if !Path::new("/dev/full").exists() {
            return; // non-Linux unix without /dev/full
        }
        let dir = test_dir("fail-stop");
        fs::create_dir_all(&dir).unwrap();
        // A WAL handle whose writes fail with ENOSPC (opens succeed).
        let full = OpenOptions::new().write(true).open("/dev/full").unwrap();
        let journal = ShardJournal::over_file(full, dir.clone());
        let mut journaled = CycleCountService::builder()
            .engine(EngineKind::Simple)
            .build();
        journaled.attach_journal(Box::new(journal));

        let err = journaled
            .execute(&parse_request("create g1").unwrap())
            .unwrap_err();
        assert_eq!(err, ServiceError::Journal(io::ErrorKind::StorageFull));
        // The command itself applied (documented Journal semantics) …
        assert!(journaled.contains(GraphId(1)));
        // … but every later journaled mutation fail-stops with the original
        // kind, as do explicit checkpoints and syncs, and the committed
        // counter never moved.
        let err = journaled
            .execute(&parse_request("create g2").unwrap())
            .unwrap_err();
        assert_eq!(err, ServiceError::Journal(io::ErrorKind::StorageFull));
        assert_eq!(
            journaled.checkpoint(),
            Err(ServiceError::JournalCheckpoint(io::ErrorKind::StorageFull))
        );
        assert_eq!(
            journaled.sync_journal(),
            Err(ServiceError::Journal(io::ErrorKind::StorageFull))
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropped_sessions_stay_dropped_after_recovery() {
        let dir = test_dir("drops");
        let store =
            JournalStore::open(JournalConfig::new(&dir), 1, spec(EngineKind::Simple)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        run_history(
            &mut journaled,
            &parse_script("create g1\ncreate g2\nlayered g2 A+1:2\ndrop g1").unwrap(),
        );
        drop(journaled);
        let recovered = store.recover_shard(0).unwrap();
        assert_eq!(recovered.ids(), vec![GraphId(2)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Group commit's whole point: N commands, one fsync — and the barrier
    /// reports exactly how many commands it covered. `EveryN(1)` pays one
    /// fsync per command and its barrier has nothing left to do; `EveryN(3)`
    /// and `OnShutdown` leave a tail that only an explicit sync covers.
    #[test]
    fn group_commit_batches_fsyncs_behind_one_barrier() {
        let dir = test_dir("group-commit");
        let policy = FsyncPolicy::GroupCommit {
            max_wait: Duration::ZERO,
            max_batch: 1024, // never self-trigger in this test
        };
        let config = JournalConfig::new(&dir).fsync(policy);
        let store = JournalStore::open(config, 1, spec(EngineKind::Simple)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        let commands = history();
        run_history(&mut journaled, &commands);
        assert_eq!(journaled.journal_fsyncs(), 0, "records must not fsync");
        assert_eq!(
            journaled.journal_commit_group().unwrap(),
            commands.len() as u64
        );
        assert_eq!(journaled.journal_fsyncs(), 1, "one fsync for the group");
        // An empty group is free.
        assert_eq!(journaled.journal_commit_group().unwrap(), 0);
        assert_eq!(journaled.journal_fsyncs(), 1);
        drop(journaled);

        // Contrast: every-1 fsyncs per command, and its barrier is a no-op.
        let dir2 = test_dir("group-commit-every1");
        let store2 =
            JournalStore::open(JournalConfig::new(&dir2), 1, spec(EngineKind::Simple)).unwrap();
        let mut every1 = store2.open_shard(0).unwrap();
        run_history(&mut every1, &commands);
        assert_eq!(every1.journal_fsyncs(), commands.len() as u64);
        assert_eq!(every1.journal_commit_group().unwrap(), 0);

        // Every-3 fsyncs after records 3 and 6, on-shutdown never; neither
        // has a group for the barrier, and a sync pays one more fsync.
        for (name, policy, after_run) in [
            ("every3", FsyncPolicy::EveryN(3), 2),
            ("on-shutdown", FsyncPolicy::OnShutdown, 0),
        ] {
            let dir = test_dir(&format!("group-commit-{name}"));
            let config = JournalConfig::new(&dir).fsync(policy);
            let store = JournalStore::open(config, 1, spec(EngineKind::Simple)).unwrap();
            let mut journaled = store.open_shard(0).unwrap();
            run_history(&mut journaled, &commands);
            assert_eq!(journaled.journal_fsyncs(), after_run, "{name}");
            assert_eq!(journaled.journal_commit_group().unwrap(), 0, "{name}");
            journaled.sync_journal().unwrap();
            assert_eq!(journaled.journal_fsyncs(), after_run + 1, "{name}");
            drop(journaled);
            fs::remove_dir_all(&dir).unwrap();
        }

        // The committed group recovers in full.
        let recovered = store.recover_shard(0).unwrap();
        assert_eq!(state_triple(&recovered, 1), (1, 4, 6));
        assert_eq!(state_triple(&recovered, 2), (0, 1, 3));
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&dir2).unwrap();
    }

    /// The `max_batch` safety valve: a driver that never calls the barrier
    /// still gets an fsync every `max_batch` records, bounding the
    /// undurable window.
    #[test]
    fn group_commit_max_batch_fsyncs_on_its_own() {
        let dir = test_dir("group-valve");
        let policy = FsyncPolicy::GroupCommit {
            max_wait: Duration::ZERO,
            max_batch: 3,
        };
        let config = JournalConfig::new(&dir).fsync(policy);
        let store = JournalStore::open(config, 1, spec(EngineKind::Threshold)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        let commands = history(); // 7 mutating commands
        run_history(&mut journaled, &commands);
        assert_eq!(journaled.journal_fsyncs(), 2, "7 records / valve of 3");
        // The barrier covers only the post-valve remainder.
        assert_eq!(journaled.journal_commit_group().unwrap(), 1);
        assert_eq!(journaled.journal_fsyncs(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Fail-stop carries over to the barrier: a poisoned journal refuses
    /// `commit_group` with the original error kind.
    #[test]
    #[cfg(unix)]
    fn commit_group_fail_stops_with_the_journal() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let dir = test_dir("group-fail-stop");
        fs::create_dir_all(&dir).unwrap();
        let full = OpenOptions::new().write(true).open("/dev/full").unwrap();
        let journal = ShardJournal::over_file(full, dir.clone());
        let mut journaled = CycleCountService::builder()
            .engine(EngineKind::Simple)
            .build();
        journaled.attach_journal(Box::new(journal));
        let err = journaled
            .execute(&parse_request("create g1").unwrap())
            .unwrap_err();
        assert_eq!(err, ServiceError::Journal(io::ErrorKind::StorageFull));
        assert_eq!(
            journaled.journal_commit_group(),
            Err(ServiceError::Journal(io::ErrorKind::StorageFull))
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An attached event ring captures the journal's lifecycle as typed
    /// events: checkpoint writes while running, then — across restarts —
    /// each recovery phase with its code, and torn-tail truncation with
    /// the exact byte count removed.
    #[test]
    fn event_ring_captures_checkpoints_and_recovery_phases() {
        let ring = EventRing::new(64);
        let dir = test_dir("events");
        let config = JournalConfig::new(&dir)
            .checkpoint_every(3)
            .events(ring.clone());
        let store = JournalStore::open(config, 1, spec(EngineKind::Simple)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        run_history(&mut journaled, &history());
        drop(journaled);

        let events = ring.drain();
        assert!(events.iter().all(|e| e.shard == 0));
        // First open of a fresh dir is a full replay of zero lines.
        let first = &events[0];
        assert_eq!(
            (first.kind, first.a, first.b),
            (EventKind::RecoveryPhase, recovery_phase::FULL_REPLAY, 0)
        );
        // 7 mutating commands at checkpoint_every(3) → checkpoints fired,
        // each imaging both sessions.
        let checkpoints: Vec<_> = events
            .iter()
            .filter(|e| e.kind == EventKind::CheckpointWrite)
            .collect();
        assert!(!checkpoints.is_empty());
        assert!(checkpoints.iter().all(|e| e.a >= 1), "{checkpoints:?}");

        // Reopen: checkpoint + tail recovery, announced as such.
        drop(store.open_shard(0).unwrap());
        let reopen = ring.drain();
        assert!(
            reopen
                .iter()
                .any(|e| e.kind == EventKind::RecoveryPhase
                    && e.a == recovery_phase::CHECKPOINT_TAIL),
            "{reopen:?}"
        );

        // A torn final line: open_shard truncates it and says how much.
        let wal = dir.join(wal_file(0));
        let mut file = OpenOptions::new().append(true).open(&wal).unwrap();
        file.write_all(b"layered g1 B+7:9").unwrap();
        drop(file);
        drop(store.open_shard(0).unwrap());
        let torn: Vec<_> = ring
            .drain()
            .into_iter()
            .filter(|e| {
                e.kind == EventKind::RecoveryPhase && e.a == recovery_phase::TORN_TAIL_TRUNCATED
            })
            .collect();
        assert_eq!(torn.len(), 1, "exactly one truncation");
        assert_eq!(torn[0].b, b"layered g1 B+7:9".len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// ISSUE 9 chaos satellite: injected faults surface as typed
    /// [`EventKind::ChaosFault`] events whose payload names the fault
    /// kind (`chaos_op` code + torn flag) and whose shard matches the
    /// shard the [`FaultPlan`] fired on.
    #[test]
    fn injected_faults_appear_as_typed_chaos_events() {
        use fourcycle_telemetry::ring::chaos_op;

        // Clean append failure, restricted to shard 1 of a 2-shard
        // store: the event carries that shard, not shard 0's.
        let dir = test_dir("chaos-events-append");
        let ring = EventRing::new(64);
        let plan = chaos::FaultPlan::new(5)
            .only_shard(1)
            .fail_append_at(2, io::ErrorKind::WriteZero);
        let config = JournalConfig::new(&dir).events(ring.clone()).chaos(plan);
        let store = JournalStore::open(config, 2, spec(EngineKind::Threshold)).unwrap();
        let requests = history();
        let mut shard0 = store.open_shard(0).unwrap();
        let mut shard1 = store.open_shard(1).unwrap();
        run_history(&mut shard0, &requests[..2]);
        shard1.execute(&requests[0]).unwrap();
        let err = shard1.execute(&requests[1]).unwrap_err();
        assert_eq!(err, ServiceError::Journal(io::ErrorKind::WriteZero));
        let faults: Vec<_> = ring
            .drain()
            .into_iter()
            .filter(|e| e.kind == EventKind::ChaosFault)
            .collect();
        assert_eq!(faults.len(), 1, "exactly the armed fault fired");
        assert_eq!(
            (faults[0].shard, faults[0].a, faults[0].b),
            (1, chaos_op::APPEND, 0),
            "shard + op code + clean (not torn) flag"
        );
        fs::remove_dir_all(&dir).unwrap();

        // Torn append: same op code, torn flag set.
        let dir = test_dir("chaos-events-torn");
        let ring = EventRing::new(64);
        let plan = chaos::FaultPlan::new(9).torn_append_at(2, io::ErrorKind::StorageFull, 4);
        let config = JournalConfig::new(&dir).events(ring.clone()).chaos(plan);
        let store = JournalStore::open(config, 1, spec(EngineKind::Threshold)).unwrap();
        let mut journaled = store.open_shard(0).unwrap();
        journaled.execute(&requests[0]).unwrap();
        let err = journaled.execute(&requests[1]).unwrap_err();
        assert_eq!(err, ServiceError::Journal(io::ErrorKind::StorageFull));
        let faults: Vec<_> = ring
            .drain()
            .into_iter()
            .filter(|e| e.kind == EventKind::ChaosFault)
            .collect();
        assert_eq!(faults.len(), 1);
        assert_eq!(
            (faults[0].shard, faults[0].a, faults[0].b),
            (0, chaos_op::APPEND, 1),
            "torn faults flag b=1"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
