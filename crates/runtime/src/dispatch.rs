//! The shard dispatcher: mailbox group draining, **intra-shard session
//! parallelism**, and the journal **group-commit** barrier.
//!
//! One dispatcher thread per shard replaces the old one-command-at-a-time
//! worker loop. Per iteration it drains its mailbox into a *group*, splits
//! the group into phases, and processes them in slot (= arrival) order:
//!
//! ```text
//!  mailbox ──drain──► group [ c1ᵍ¹ c2ᵍ² c3ᵍ¹ | create g9 | c4ᵍ² … ]
//!                             └── segment ──┘  └ barrier ┘ └ seg …
//!                                   │
//!             per-session run queues│(order within a session preserved)
//!                 ┌────────────┬────┴───────┐
//!                 ▼            ▼            ▼
//!            dispatcher    helper w1    helper w2      (SessionPool)
//!            runs g1       runs g2      runs g3
//!                 └──────── join ───────────┘
//!                            │
//!              journal in slot order, then (GroupCommit)
//!              one fsync ──► release the group's replies
//! ```
//!
//! * **Segments vs barriers.** Session-scoped commands (applies, count,
//!   snapshot) form *segments*; registry commands (create/drop/list) are
//!   *barriers* executed serially between them — they mutate the session
//!   registry itself, so nothing may be detached while they run.
//! * **Session runs.** Within a segment the commands are grouped by
//!   `GraphId` into per-session run queues. Sessions are independent by
//!   construction, so different sessions' runs execute concurrently on the
//!   [`SessionPool`] — each run *detaches* its session
//!   ([`CycleCountService::detach_session`]), applies its commands in
//!   order on a pool thread, and is reattached at the join. Per-session
//!   command order and epoch semantics are therefore exactly those of
//!   serial execution.
//! * **Journaling.** Parallel-applied mutations are journaled *after* the
//!   join, in slot order ([`CycleCountService::journal_record_applied`]):
//!   the WAL preserves each session's command order, which is all replay
//!   needs — sessions are independent. Under
//!   [`FsyncPolicy::GroupCommit`](fourcycle_store::FsyncPolicy) the
//!   dispatcher then acts as the group's *leader*: one
//!   [`journal_commit_group`](CycleCountService::journal_commit_group)
//!   fsync covers every command in the group, and only then are the
//!   group's replies released — reply ⇒ journaled ⇒ durable, at a fraction
//!   of the fsync count. A failed barrier poisons exactly the commands
//!   journaled into the failed group (`ServiceError::Journal`).
//!
//! With `RuntimeConfig::shard_parallelism(1)` (the default) no pool
//! threads exist and segments run inline on the dispatcher — the serial
//! fast path, byte-for-byte the old behavior.
//!
//! The dispatch loop serves every session on its shard, so one blocked
//! iteration stalls them all (ADR-006). Its functions therefore carry
//! `#[deny(clippy::disallowed_methods)]`, which rejects the blocking calls
//! listed in this crate's `clippy.toml` (`Mutex::lock`, `thread::sleep`,
//! fsync, `read_line`).

use crate::stats::{self, ShardMetrics};
use crate::Job;
use fourcycle_service::{CycleCountService, GraphId, Request, Response, ServiceError};
use fourcycle_telemetry::{EventKind, Histogram, Stage, Telemetry};
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Upper bound on one drained group when no `GroupCommit` policy bounds
/// it. Replies are held for at most the life of one group, so the cap
/// bounds reply latency under a deep mailbox.
const GROUP_CAP: usize = 256;

/// The dispatcher-side knobs of [`FsyncPolicy::GroupCommit`]
/// (`fourcycle-store` owns the fsync itself; the dispatcher owns reply
/// release and the accumulation window).
pub(crate) struct GroupCommitKnobs {
    /// How long the dispatcher may hold its mailbox open to let a group
    /// grow beyond what is already queued (0: never wait).
    pub(crate) max_wait: Duration,
    /// Hard cap on one group (matches the journal's safety valve).
    pub(crate) max_batch: usize,
}

/// Shard-scoped telemetry view threaded through one group's processing.
///
/// Stage accounting invariant: every delivered slot contributes **exactly
/// one** sample to each of the six stage histograms (zero-valued where a
/// stage does not apply), so each stage's per-shard sample count equals
/// the shard's `commands` counter — a differential the tests pin. Exact
/// per-slot times are recorded where a boundary exists anyway (queue
/// wait, serial apply/journal); group-granular times are smeared as `n`
/// samples of `total/n` ([`Histogram::record_each`]).
struct GroupTelemetry<'a> {
    tel: &'a Telemetry,
    shard: usize,
}

impl GroupTelemetry<'_> {
    fn hist(&self, stage: Stage) -> &Histogram {
        self.tel.stage(self.shard, stage)
    }

    /// The shard index as an event's `shard` field.
    fn shard_id(&self) -> u32 {
        u32::try_from(self.shard).unwrap_or(u32::MAX)
    }
}

/// Clamped nanoseconds between two `Instant`s (0 if out of order).
fn nanos_between(earlier: Instant, later: Instant) -> u64 {
    stats::clamped_nanos(later.saturating_duration_since(earlier))
}

/// The shard worker loop: owns one `CycleCountService` (pre-built — and,
/// when journaling, pre-recovered — by `try_start`), drains its mailbox in
/// groups until every runtime handle sender is gone, then syncs the
/// journal and exits.
#[deny(clippy::disallowed_methods)]
pub(crate) fn shard_worker(
    rx: Receiver<Job>,
    metrics: Arc<ShardMetrics>,
    mut service: CycleCountService,
    shard: usize,
    parallelism: usize,
    group_commit: Option<GroupCommitKnobs>,
    telemetry: Arc<Telemetry>,
) {
    let mut pool = SessionPool::new(parallelism.saturating_sub(1), shard);
    let tel = GroupTelemetry {
        tel: &telemetry,
        shard,
    };
    let mut idle_since = Instant::now();
    while let Ok(first) = rx.recv() {
        // Interval accounting is deliberately paranoid: durations come
        // from `saturating_duration_since` (never negative, zero-length
        // intervals are fine), nanoseconds are clamped into u64 without
        // `as` truncation, and the shared counters saturate rather than
        // wrap (see `stats::clamped_nanos` / `ShardMetrics::add_busy`).
        let busy_since = Instant::now();
        metrics.add_idle(stats::clamped_nanos(
            busy_since.saturating_duration_since(idle_since),
        ));
        let cap = group_commit
            .as_ref()
            .map_or(GROUP_CAP, |knobs| knobs.max_batch)
            .max(1);
        let mut group = vec![first];
        // Everything already queued joins the group for free.
        while group.len() < cap {
            match rx.try_recv() {
                Ok(job) => group.push(job),
                Err(_) => break,
            }
        }
        // Under group commit, optionally hold the mailbox open a little:
        // every extra command amortizes the group's single fsync further.
        if let Some(knobs) = &group_commit {
            if !knobs.max_wait.is_zero() {
                let deadline = busy_since + knobs.max_wait;
                while group.len() < cap {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    match rx.recv_timeout(left) {
                        Ok(job) => group.push(job),
                        Err(_) => break,
                    }
                }
            }
        }
        process_group(
            &mut service,
            &mut pool,
            group,
            &metrics,
            group_commit.is_some(),
            &tel,
        );
        metrics.groups.fetch_add(1, Ordering::Relaxed);
        metrics
            .journal_fsyncs
            .store(service.journal_fsyncs(), Ordering::Relaxed);
        idle_since = Instant::now();
        metrics.add_busy(stats::clamped_nanos(
            idle_since.saturating_duration_since(busy_since),
        ));
    }
    // Graceful exit: make everything journaled so far durable, whatever
    // the fsync policy (best effort — the worker has nowhere to report),
    // and fold that last fsync into the gauge so shutdown reports add up.
    let _ = service.sync_journal();
    metrics
        .journal_fsyncs
        .store(service.journal_fsyncs(), Ordering::Relaxed);
}

/// Registry commands mutate the session registry (or address every shard)
/// and act as serial barriers between parallel segments.
fn is_registry(request: &Request) -> bool {
    matches!(
        request,
        Request::CreateGraph { .. } | Request::DropGraph { .. } | Request::ListGraphs
    )
}

/// Executes one drained group: barriers serially, segments on the pool,
/// journal in slot order, then the group-commit barrier (if configured)
/// before any held reply is released.
#[deny(clippy::disallowed_methods)]
fn process_group(
    service: &mut CycleCountService,
    pool: &mut SessionPool,
    group: Vec<Job>,
    metrics: &ShardMetrics,
    hold_for_commit: bool,
    tel: &GroupTelemetry,
) {
    let n = group.len();
    let mut replies = Vec::with_capacity(n);
    let mut requests = Vec::with_capacity(n);
    let mut enqueued = Vec::with_capacity(n);
    for job in group {
        replies.push(Some(job.reply));
        enqueued.push(job.enqueued_at);
        requests.push(job.request);
    }
    // Queue wait is exact per job (submit stamped it); the group-assembly
    // boundary doubles as the dispatch-stage start.
    let dispatch_started = Instant::now();
    let queue_wait = tel.hist(Stage::QueueWait);
    for &at in &enqueued {
        queue_wait.record(nanos_between(at, dispatch_started));
    }
    let mut outcomes: Vec<Option<Result<Response, ServiceError>>> =
        std::iter::repeat_with(|| None).take(n).collect();
    // Slots journaled into the current group. If the group's fsync fails,
    // exactly these replies are rewritten to `ServiceError::Journal` —
    // their commands applied but are not durable.
    let mut journaled: Vec<usize> = Vec::new();
    let slots = u64::try_from(n).unwrap_or(u64::MAX);
    tel.hist(Stage::Dispatch)
        .record_each(nanos_between(dispatch_started, Instant::now()), slots);

    let mut start = 0;
    while start < n {
        if is_registry(&requests[start]) {
            // Barrier: executed (and journaled) inline by the service.
            let (outcome, journaled_now) = execute_slot(service, &requests[start], tel);
            if journaled_now {
                journaled.push(start);
            }
            outcomes[start] = Some(outcome);
            if !hold_for_commit {
                deliver_timed(
                    metrics,
                    &requests,
                    &mut replies,
                    &mut outcomes,
                    start..start + 1,
                    tel,
                );
            }
            start += 1;
            continue;
        }
        let mut end = start + 1;
        while end < n && !is_registry(&requests[end]) {
            end += 1;
        }
        run_segment(
            service,
            pool,
            &mut requests,
            start..end,
            &mut outcomes,
            &mut journaled,
            tel,
        );
        if !hold_for_commit {
            deliver_timed(
                metrics,
                &requests,
                &mut replies,
                &mut outcomes,
                start..end,
                tel,
            );
        }
        start = end;
    }

    if hold_for_commit {
        // The group's durability barrier: one fsync for every command
        // journaled above. Only now may replies leave the shard — a client
        // that sees a response holds a durable command, exactly as under
        // fsync-every-1.
        let fsync_started = Instant::now();
        let committed = service.journal_commit_group();
        let fsync_nanos = nanos_between(fsync_started, Instant::now());
        tel.hist(Stage::FsyncWait).record_each(fsync_nanos, slots);
        match committed {
            Ok(covered) if covered > 0 => {
                tel.tel
                    .ring()
                    .emit(tel.shard_id(), EventKind::GroupCommit, covered, fsync_nanos);
            }
            Ok(_) => {}
            Err(e) => {
                for &slot in &journaled {
                    outcomes[slot] = Some(Err(e));
                }
            }
        }
        let reply_started = Instant::now();
        for slot in 0..n {
            deliver(metrics, &requests, &mut replies, &mut outcomes, slot);
        }
        tel.hist(Stage::Reply)
            .record_each(nanos_between(reply_started, Instant::now()), slots);
    }
    // End-to-end latency check (slow-request events), one clock read for
    // the whole group. Fan-out sub-commands check per shard.
    let now = Instant::now();
    for at in enqueued {
        tel.tel
            .note_request_done(tel.shard_id(), nanos_between(at, now));
    }
}

/// Executes one barrier or serial-segment slot. The apply and
/// journal-append halves are timed separately through the service's split
/// path ([`CycleCountService::execute_unjournaled`] +
/// [`CycleCountService::journal_record_applied`]), which is semantically
/// identical to plain `execute` — same order, same checkpoint handling,
/// and a journal failure after a successful apply surfaces as the
/// command's outcome while its effect stands. Returns the outcome and
/// whether the slot was journaled into the open group.
#[deny(clippy::disallowed_methods)]
fn execute_slot(
    service: &mut CycleCountService,
    request: &Request,
    tel: &GroupTelemetry,
) -> (Result<Response, ServiceError>, bool) {
    let apply_started = Instant::now();
    let mut outcome = service.execute_unjournaled(request);
    let journal_started = Instant::now();
    tel.hist(Stage::Apply)
        .record(nanos_between(apply_started, journal_started));
    let mut journaled = false;
    if outcome.is_ok() && request.is_mutation() {
        match service.journal_record_applied(request) {
            Ok(()) => journaled = true,
            Err(e) => outcome = Err(e),
        }
    }
    tel.hist(Stage::JournalAppend)
        .record(nanos_between(journal_started, Instant::now()));
    (outcome, journaled)
}

/// Delivers a range of finished slots, recording the reply stage (and a
/// zero fsync-wait sample — immediate mode has no commit barrier) for
/// each. The group-commit path times its own reply loop instead.
#[deny(clippy::disallowed_methods)]
fn deliver_timed(
    metrics: &ShardMetrics,
    requests: &[Request],
    replies: &mut [Option<mpsc::Sender<Result<Response, ServiceError>>>],
    outcomes: &mut [Option<Result<Response, ServiceError>>],
    range: Range<usize>,
    tel: &GroupTelemetry,
) {
    let started = Instant::now();
    let len = u64::try_from(range.len()).unwrap_or(u64::MAX);
    for slot in range {
        deliver(metrics, requests, replies, outcomes, slot);
    }
    tel.hist(Stage::FsyncWait).record_each(0, len);
    tel.hist(Stage::Reply)
        .record_each(nanos_between(started, Instant::now()), len);
}

/// Executes one segment (consecutive session-scoped slots): groups the
/// slots into per-session run queues, fans the runs out over the pool
/// (serially when there is nothing to overlap), reattaches every session,
/// then journals the applied mutations in slot order.
#[deny(clippy::disallowed_methods)]
fn run_segment(
    service: &mut CycleCountService,
    pool: &mut SessionPool,
    requests: &mut [Request],
    range: Range<usize>,
    outcomes: &mut [Option<Result<Response, ServiceError>>],
    journaled: &mut Vec<usize>,
    tel: &GroupTelemetry,
) {
    // Per-session run queues, arrival order preserved within each session.
    let mut runs: Vec<(GraphId, Vec<usize>)> = Vec::new();
    for slot in range.clone() {
        #[expect(
            clippy::expect_used,
            reason = "run_segment is only fed session commands"
        )]
        let id = requests[slot]
            .graph_id()
            .expect("segment commands are session-scoped");
        match runs.iter_mut().find(|(rid, _)| *rid == id) {
            Some((_, slots)) => slots.push(slot),
            None => runs.push((id, vec![slot])),
        }
    }

    if pool.helpers() == 0 || runs.len() < 2 {
        // Nothing to overlap: the serial path, with exact per-slot
        // apply/journal timing through `execute_slot`.
        for slot in range {
            let (outcome, journaled_now) = execute_slot(service, &requests[slot], tel);
            if journaled_now {
                journaled.push(slot);
            }
            outcomes[slot] = Some(outcome);
        }
        return;
    }

    // On the parallel path the apply phase (detach → pool → reattach) and
    // the journal phase are group-granular; their durations are smeared
    // across the segment's slots to keep the one-sample-per-slot invariant.
    let seg_len = u64::try_from(range.len()).unwrap_or(u64::MAX);
    let apply_started = Instant::now();

    // Detach every addressed session and ship it, with its commands, to
    // the pool. Ids without a session run inline for the exact
    // `UnknownGraph` error — they cannot race anything (there is no
    // session to share, and creates/drops are barriers).
    let mut dispatched: Vec<SessionRun> = Vec::new();
    for (id, slots) in runs {
        match service.detach_session(id) {
            Ok(session) => {
                let jobs = slots
                    .into_iter()
                    .map(|slot| {
                        // Move the request out for the pool thread; the
                        // placeholder is dead weight until the run returns
                        // it. `ListGraphs` is the only payload-free variant.
                        (
                            slot,
                            std::mem::replace(&mut requests[slot], Request::ListGraphs),
                        )
                    })
                    .collect();
                dispatched.push(SessionRun { session, jobs });
            }
            Err(_) => {
                for slot in slots {
                    let outcome = service.execute(&requests[slot]);
                    debug_assert!(outcome.is_err(), "detach fails only for unknown ids");
                    outcomes[slot] = Some(outcome);
                }
            }
        }
    }
    for done in pool.execute(dispatched) {
        service.reattach_session(done.session);
        for (slot, request, outcome) in done.outcomes {
            requests[slot] = request;
            outcomes[slot] = Some(outcome);
        }
    }
    let journal_started = Instant::now();
    tel.hist(Stage::Apply)
        .record_each(nanos_between(apply_started, journal_started), seg_len);
    // Journal the applied mutations in slot order — the WAL preserves each
    // session's command order, which is all replay needs (sessions are
    // independent). Runs only after every session is reattached, so a due
    // checkpoint images the complete registry.
    for slot in range {
        let applied = matches!(outcomes[slot], Some(Ok(_)));
        if applied && requests[slot].is_mutation() {
            match service.journal_record_applied(&requests[slot]) {
                Ok(()) => journaled.push(slot),
                Err(e) => outcomes[slot] = Some(Err(e)),
            }
        }
    }
    tel.hist(Stage::JournalAppend)
        .record_each(nanos_between(journal_started, Instant::now()), seg_len);
}

/// Counts one finished slot into the metrics and sends its reply.
/// Idempotent per slot (the reply sender is taken).
#[deny(clippy::disallowed_methods)]
fn deliver(
    metrics: &ShardMetrics,
    requests: &[Request],
    replies: &mut [Option<mpsc::Sender<Result<Response, ServiceError>>>],
    outcomes: &mut [Option<Result<Response, ServiceError>>],
    slot: usize,
) {
    let Some(reply) = replies[slot].take() else {
        return;
    };
    #[expect(
        clippy::expect_used,
        reason = "execute_slot/run_segment fill every slot"
    )]
    let outcome = outcomes[slot]
        .take()
        .expect("every slot is processed before delivery");
    metrics.commands.fetch_add(1, Ordering::Relaxed);
    // `updates_applied` counts what actually landed in service state.
    // A journal failure is reported to the client as an error, but its
    // command's effect *stands* (`ServiceError::Journal` semantics:
    // applied, then the sink failed) — so its updates count as applied
    // or the report would diverge from the session epochs during
    // exactly the incidents (disk full) where it matters.
    let applied = match &outcome {
        Ok(_) => u64::try_from(requests[slot].update_count()).unwrap_or(u64::MAX),
        Err(ServiceError::Journal(_) | ServiceError::JournalCheckpoint(_)) => {
            metrics.rejected.fetch_add(1, Ordering::Relaxed);
            u64::try_from(requests[slot].update_count()).unwrap_or(u64::MAX)
        }
        Err(_) => {
            metrics.rejected.fetch_add(1, Ordering::Relaxed);
            0
        }
    };
    if applied > 0 {
        metrics
            .updates_applied
            .fetch_add(applied, Ordering::Relaxed);
    }
    // The client may have dropped its ticket (fire-and-forget); a dead
    // reply channel is not an error.
    let _ = reply.send(outcome);
}

/// One session's share of a segment: the detached session plus its
/// commands, in arrival order.
struct SessionRun {
    session: fourcycle_service::DetachedSession,
    jobs: Vec<(usize, Request)>,
}

/// A finished run: the session (to reattach) and each command's request
/// and outcome, keyed by group slot.
struct RunDone {
    session: fourcycle_service::DetachedSession,
    outcomes: Vec<(usize, Request, Result<Response, ServiceError>)>,
}

fn run_one(run: SessionRun) -> RunDone {
    let SessionRun { mut session, jobs } = run;
    let outcomes = jobs
        .into_iter()
        .map(|(slot, request)| {
            let outcome = session.execute(&request);
            (slot, request, outcome)
        })
        .collect();
    RunDone { session, outcomes }
}

struct PoolShared {
    queue: Mutex<VecDeque<SessionRun>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

/// The per-shard helper pool behind intra-shard parallelism:
/// `parallelism - 1` persistent threads plus the dispatcher itself. Runs
/// move by value (each carries its detached session), so no locks guard
/// session state — the queue mutex only hands out work.
struct SessionPool {
    shared: Arc<PoolShared>,
    results_rx: mpsc::Receiver<RunDone>,
    /// Keeps the results channel alive independent of helper lifetimes.
    _results_tx: mpsc::Sender<RunDone>,
    helpers: Vec<JoinHandle<()>>,
}

impl SessionPool {
    fn new(helpers: usize, shard: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let (results_tx, results_rx) = mpsc::channel();
        #[expect(
            clippy::expect_used,
            reason = "the pool is built at startup, before serving"
        )]
        let handles = (0..helpers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let results = results_tx.clone();
                thread::Builder::new()
                    .name(format!("fourcycle-shard-{shard}-w{}", i + 1))
                    .spawn(move || helper_loop(&shared, &results))
                    .expect("spawn shard pool helper")
            })
            .collect();
        Self {
            shared,
            results_rx,
            _results_tx: results_tx,
            helpers: handles,
        }
    }

    fn helpers(&self) -> usize {
        self.helpers.len()
    }

    /// Runs every `SessionRun` across the helpers and the calling thread,
    /// returning when all are done. Largest runs first (better balance
    /// under per-session skew).
    fn execute(&mut self, mut runs: Vec<SessionRun>) -> Vec<RunDone> {
        let total = runs.len();
        runs.sort_by_key(|run| Reverse(run.jobs.len()));
        {
            let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            queue.extend(runs);
        }
        self.shared.ready.notify_all();
        let mut done = Vec::with_capacity(total);
        // The dispatcher is a worker too: it helps until the queue is dry,
        // then collects what the helpers finished.
        loop {
            let run = {
                let mut queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                queue.pop_front()
            };
            match run {
                Some(run) => done.push(run_one(run)),
                None => break,
            }
        }
        while done.len() < total {
            #[expect(
                clippy::expect_used,
                reason = "a dead helper already poisoned the segment"
            )]
            done.push(self.results_rx.recv().expect("pool helper died"));
        }
        done
    }
}

impl Drop for SessionPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.ready.notify_all();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

fn helper_loop(shared: &PoolShared, results: &mpsc::Sender<RunDone>) {
    loop {
        let run = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(run) = queue.pop_front() {
                    break run;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.ready.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        if results.send(run_one(run)).is_err() {
            return; // dispatcher gone
        }
    }
}
