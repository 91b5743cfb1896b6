//! The shard dispatcher: mailbox group draining, the journal
//! **group-commit** barrier, and the inline path that runs a command on
//! its caller's thread while the shard is idle.
//!
//! Each shard's [`CycleCountService`] sits behind a `Mutex` in its
//! [`Shard`], shared by the shard's worker thread and the runtime handle.
//! The worker drains its mailbox into a *group*, takes the lock once, and
//! runs the group's commands serially, in slot (= arrival) order:
//!
//! ```text
//!  mailbox ──drain──► group [ c1ᵍ¹ c2ᵍ² create g9 c3ᵍ¹ … ] ──lock──┐
//!                                                                  │
//!               each slot, in order: apply, then journal  ◄────────┘
//!                               │
//!         ┌─────────────────────┴─────────────────────┐
//!   EveryN / OnShutdown / memory-only            GroupCommit
//!   reply at once                                one fsync for the group,
//!                                                then release every reply
//!
//!  call() on an idle shard ──try_lock──► the same slot path, on the
//!  (no job queued, lock free)            caller's thread; no mailbox,
//!                                        no reply channel, no group
//! ```
//!
//! * **Serial by design.** A session's commands must apply strictly in
//!   order: each count delta is a query over every earlier update (§8's
//!   Claim 8.1 pins that query between a general update's engine
//!   updates). A shard could only overlap *different* sessions, and hash
//!   sharding already spreads sessions over shard threads.
//! * **Inline when idle.** [`Shard::queued`] counts each mailbox job from
//!   before it enters the mailbox until it has executed. A command may run
//!   on its caller's thread ([`run_inline`]) only while that count is 0:
//!   every command its caller queued earlier has then executed, so one
//!   submitter's commands still apply in submission order. The count is
//!   read again once the caller has won `try_lock`, so a job counted
//!   meanwhile is not overtaken either: once the worker has a job, it
//!   waits for the lock behind at most the one inline command holding it.
//!   A busy shard, a lost `try_lock`, a fan-out command and every command
//!   of a group-commit runtime take the mailbox. A caller never blocks on
//!   the lock.
//! * **Journaling.** Each slot runs through the service's split path
//!   ([`CycleCountService::execute_unjournaled`] +
//!   [`CycleCountService::journal_record_applied`]), which times the apply
//!   and journal-append stages separately and is otherwise identical to
//!   `execute`. Under [`FsyncPolicy::GroupCommit`](fourcycle_store::FsyncPolicy)
//!   the dispatcher then acts as the group's *leader*: one
//!   [`journal_commit_group`](CycleCountService::journal_commit_group)
//!   fsync covers every command in the group, and only then are the
//!   group's replies released — reply ⇒ journaled ⇒ durable, at a fraction
//!   of the fsync count. A failed barrier poisons exactly the commands
//!   journaled into the failed group (`ServiceError::Journal`).
//! * **Accounting.** Both paths count a finished command through
//!   [`account`]: the shard's telemetry counters, the reply stage (whose
//!   sample count is the shard's `commands`) and the slow-request check.
//!   `groups` counts mailbox groups only.
//!
//! The dispatch loop serves every session on its shard, so one blocked
//! iteration stalls them all (ADR-006). Its functions therefore carry
//! `#[deny(clippy::disallowed_methods)]`, which rejects the blocking calls
//! listed in this crate's `clippy.toml` (`Mutex::lock`, `thread::sleep`,
//! fsync, `read_line`); the worker's one `lock` per group is the single
//! exception. A command that panics poisons the lock, and the shard is
//! unavailable from then on, on both paths.

use crate::{Job, RuntimeError};
use fourcycle_service::{CycleCountService, Request, Response, ServiceError};
use fourcycle_telemetry::{clamped_nanos, EventKind, Histogram, ShardCounters, Stage, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, TryLockError};
use std::time::{Duration, Instant};

/// Upper bound on one drained group when no `GroupCommit` policy bounds
/// it. Under the immediate fsync policies each reply leaves as soon as its
/// command is journaled, so the cap only stops a mailbox that producers
/// refill as fast as it drains from growing one group without bound.
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

/// One shard's state, shared by its worker thread and the runtime handle.
pub(crate) struct Shard {
    /// The shard's index, for its telemetry.
    pub(crate) index: usize,
    /// The service, pre-built — and, when journaling, pre-recovered — by
    /// `try_start`. The worker locks it once per drained group; a caller
    /// only ever `try_lock`s it, to run one command inline.
    pub(crate) service: Mutex<CycleCountService>,
    /// Mailbox jobs counted from before each enters the mailbox until it
    /// has executed. A command runs inline only while this is 0.
    pub(crate) queued: AtomicUsize,
}

/// Shard-scoped telemetry view threaded through command processing.
///
/// Stage accounting invariant: every finished command, from the mailbox
/// or inline, contributes **exactly one** sample to each of the six stage
/// histograms (zero-valued where a stage does not apply), so every stage's
/// per-shard sample count equals the shard's `commands`, the reply stage's
/// count — a differential the tests pin. A command's stages are
/// consecutive intervals from its arrival at the runtime to its reply, so
/// they sum to its time in the runtime.
struct ShardTelemetry<'a> {
    tel: &'a Telemetry,
    shard: usize,
}

impl ShardTelemetry<'_> {
    fn hist(&self, stage: Stage) -> &Histogram {
        self.tel.stage(self.shard, stage)
    }

    fn counters(&self) -> &ShardCounters {
        self.tel.counters(self.shard)
    }

    /// The shard index as an event's `shard` field.
    fn shard_id(&self) -> u32 {
        u32::try_from(self.shard).unwrap_or(u32::MAX)
    }
}

/// Clamped nanoseconds between two `Instant`s (0 if out of order).
fn nanos_between(earlier: Instant, later: Instant) -> u64 {
    clamped_nanos(later.saturating_duration_since(earlier))
}

/// The shard worker loop: drains its mailbox in groups and runs each
/// under the shard's lock until every runtime handle sender is gone, or
/// until it finds the lock poisoned. The runtime syncs the journal once
/// the worker has exited.
#[deny(clippy::disallowed_methods)]
pub(crate) fn shard_worker(
    rx: Receiver<Job>,
    shard: Arc<Shard>,
    group_commit: Option<GroupCommitKnobs>,
    telemetry: Arc<Telemetry>,
) {
    let tel = ShardTelemetry {
        tel: &telemetry,
        shard: shard.index,
    };
    let counters = tel.counters();
    let mut idle_since = Instant::now();
    while let Ok(first) = rx.recv() {
        // Intervals never go negative (`nanos_between` saturates), and
        // the counters saturate rather than wrap.
        let busy_since = Instant::now();
        counters
            .idle_nanos
            .add(nanos_between(idle_since, busy_since));
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
        #[expect(
            clippy::disallowed_methods,
            reason = "callers only try_lock, so the worker waits here behind at most one inline command"
        )]
        let Ok(mut service) = shard.service.lock() else {
            // A command panicked under the lock. Dropping the group drops
            // its reply senders, so its tickets read `ShardUnavailable`,
            // and leaving the loop closes the mailbox for later ones.
            break;
        };
        process_group(&mut service, group, &shard, group_commit.is_some(), &tel);
        counters.groups.add(1);
        counters.journal_fsyncs.set(service.journal_fsyncs());
        drop(service);
        idle_since = Instant::now();
        counters
            .busy_nanos
            .add(nanos_between(busy_since, idle_since));
    }
}

/// Executes one drained group serially, in slot order, uncounting each
/// job from `shard.queued` once it has executed. Under the immediate
/// policies each reply leaves as soon as its command is journaled; under
/// group commit the replies wait for the group's one fsync.
#[deny(clippy::disallowed_methods)]
fn process_group(
    service: &mut CycleCountService,
    group: Vec<Job>,
    shard: &Shard,
    hold_for_commit: bool,
    tel: &ShardTelemetry,
) {
    // Queue wait is exact per job (submit stamped it) and ends where the
    // group starts.
    let started = Instant::now();
    let queue_wait = tel.hist(Stage::QueueWait);
    for job in &group {
        queue_wait.record(nanos_between(job.enqueued_at, started));
    }
    let executed = |service: &mut CycleCountService, job: &Job| {
        let slot = execute_slot(service, &job.request, started, tel);
        shard.queued.fetch_sub(1, Ordering::SeqCst);
        slot
    };

    if !hold_for_commit {
        let fsync_wait = tel.hist(Stage::FsyncWait);
        for job in group {
            let (outcome, _, ready) = executed(service, &job);
            fsync_wait.record(0);
            deliver(job, outcome, ready, tel);
        }
        return;
    }

    let mut slots = Vec::with_capacity(group.len());
    for job in group {
        let (outcome, journaled, ready) = executed(service, &job);
        slots.push((job, outcome, journaled, ready));
    }
    // The group's durability barrier: one fsync for every command
    // journaled above. Only now may replies leave the shard — a client
    // that sees a response holds a durable command, exactly as under
    // fsync-every-1.
    let fsync_started = Instant::now();
    let committed = service.journal_commit_group();
    let fsynced = Instant::now();
    if let Ok(covered @ 1..) = committed {
        tel.tel.ring().emit(
            tel.shard_id(),
            EventKind::GroupCommit,
            covered,
            nanos_between(fsync_started, fsynced),
        );
    }
    let fsync_wait = tel.hist(Stage::FsyncWait);
    for (job, mut outcome, journaled, ready) in slots {
        // If the fsync failed, exactly the commands journaled into the
        // group applied but are not durable.
        if let (true, Err(e)) = (journaled, committed) {
            outcome = Err(e);
        }
        fsync_wait.record(nanos_between(ready, fsynced));
        deliver(job, outcome, fsynced, tel);
    }
}

/// Runs `request` on the caller's thread if `shard` is idle: no mailbox
/// job counted in [`Shard::queued`], read before and again after winning
/// `try_lock`. Hands the request back when the shard is busy or the lock
/// is taken, so the caller takes the mailbox instead; a poisoned lock
/// answers [`RuntimeError::ShardUnavailable`]. Never called for a shard
/// journaling under group commit, whose replies wait for their group's
/// fsync.
///
/// The command takes the same slot path and accounting as a mailbox job:
/// its queue wait runs from `arrived` to taking the lock, it joins no
/// group, and its fsync wait is 0.
#[deny(clippy::disallowed_methods)]
pub(crate) fn run_inline(
    shard: &Shard,
    request: Request,
    arrived: Instant,
    telemetry: &Telemetry,
) -> Result<Result<Response, RuntimeError>, Request> {
    if shard.queued.load(Ordering::SeqCst) != 0 {
        return Err(request);
    }
    let mut service = match shard.service.try_lock() {
        Ok(service) => service,
        Err(TryLockError::WouldBlock) => return Err(request),
        Err(TryLockError::Poisoned(_)) => return Ok(Err(RuntimeError::ShardUnavailable)),
    };
    // A job counted since the first read must run first.
    if shard.queued.load(Ordering::SeqCst) != 0 {
        return Err(request);
    }
    let tel = ShardTelemetry {
        tel: telemetry,
        shard: shard.index,
    };
    let locked = Instant::now();
    tel.hist(Stage::QueueWait)
        .record(nanos_between(arrived, locked));
    let (outcome, _, ready) = execute_slot(&mut service, &request, locked, &tel);
    tel.hist(Stage::FsyncWait).record(0);
    account(&request, &outcome, arrived, ready, &tel);
    tel.counters().journal_fsyncs.set(service.journal_fsyncs());
    drop(service);
    tel.counters()
        .busy_nanos
        .add(nanos_between(locked, Instant::now()));
    Ok(outcome.map_err(RuntimeError::Service))
}

/// Executes one slot through the service's split path
/// ([`CycleCountService::execute_unjournaled`] +
/// [`CycleCountService::journal_record_applied`]), which is semantically
/// identical to plain `execute` — same order, same checkpoint handling,
/// and a journal failure after a successful apply surfaces as the
/// command's outcome while its effect stands. Records the dispatch (wait
/// behind the group's earlier slots since `group_started`), apply and
/// journal-append stages. Returns the outcome, whether the slot was
/// journaled into the open group, and when it finished.
#[deny(clippy::disallowed_methods)]
fn execute_slot(
    service: &mut CycleCountService,
    request: &Request,
    group_started: Instant,
    tel: &ShardTelemetry,
) -> (Result<Response, ServiceError>, bool, Instant) {
    let apply_started = Instant::now();
    tel.hist(Stage::Dispatch)
        .record(nanos_between(group_started, apply_started));
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
    let done = Instant::now();
    tel.hist(Stage::JournalAppend)
        .record(nanos_between(journal_started, done));
    (outcome, journaled, done)
}

/// Counts one finished mailbox job with [`account`] and sends its reply.
#[deny(clippy::disallowed_methods)]
fn deliver(
    job: Job,
    outcome: Result<Response, ServiceError>,
    ready: Instant,
    tel: &ShardTelemetry,
) {
    account(&job.request, &outcome, job.enqueued_at, ready, tel);
    // The client may have dropped its ticket (fire-and-forget); a dead
    // reply channel is not an error.
    let _ = job.reply.send(outcome);
}

/// Counts one finished command into the shard's counters, records its
/// reply stage (from `ready`, when the reply could first leave) and checks
/// its latency since `arrived` against the slow-request threshold. Both
/// the mailbox and the inline path call it just before the reply leaves.
#[deny(clippy::disallowed_methods)]
fn account(
    request: &Request,
    outcome: &Result<Response, ServiceError>,
    arrived: Instant,
    ready: Instant,
    tel: &ShardTelemetry,
) {
    let counters = tel.counters();
    // `updates_applied` counts what actually landed in service state.
    // A journal failure is reported to the client as an error, but its
    // command's effect *stands* (`ServiceError::Journal` semantics:
    // applied, then the sink failed) — so its updates count as applied
    // or the report would diverge from the session epochs during
    // exactly the incidents (disk full) where it matters.
    let applied = match outcome {
        Ok(_) => u64::try_from(request.update_count()).unwrap_or(u64::MAX),
        Err(ServiceError::Journal(_) | ServiceError::JournalCheckpoint(_)) => {
            counters.rejected.add(1);
            u64::try_from(request.update_count()).unwrap_or(u64::MAX)
        }
        Err(_) => {
            counters.rejected.add(1);
            0
        }
    };
    counters.updates_applied.add(applied);
    // Recorded before the reply leaves, which publishes them: a caller
    // holding its reply may read the telemetry at once and must find every
    // sample of its command, and the command in `commands`, there.
    let sending = Instant::now();
    tel.hist(Stage::Reply).record(nanos_between(ready, sending));
    // Fan-out sub-commands check per shard.
    tel.tel
        .note_request_done(tel.shard_id(), nanos_between(arrived, sending));
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourcycle_core::EngineKind;
    use fourcycle_graph::{LayeredUpdate, Rel};
    use fourcycle_service::GraphId;
    use fourcycle_telemetry::TelemetryConfig;
    use std::sync::mpsc;

    fn job(request: Request) -> (Job, mpsc::Receiver<Result<Response, ServiceError>>) {
        let (reply, rx) = mpsc::channel();
        let job = Job {
            request,
            reply,
            enqueued_at: Instant::now(),
        };
        (job, rx)
    }

    /// A cheap command drained into one group ahead of an expensive one is
    /// timed to its own reply, not to the end of the group.
    #[test]
    fn slow_requests_are_timed_to_their_own_reply() {
        let mut service = CycleCountService::builder()
            .engine(EngineKind::Naive)
            .build();
        let (cheap, costly) = (GraphId(1), GraphId(2));
        service.create_session(cheap).unwrap();
        service.create_session(costly).unwrap();
        let updates: Vec<LayeredUpdate> = (0..4_000u32)
            .map(|i| {
                let rel = [Rel::A, Rel::B, Rel::C, Rel::D][(i % 4) as usize];
                LayeredUpdate::insert(rel, i / 4 % 40, i / 160)
            })
            .collect();
        let telemetry = Telemetry::new(
            TelemetryConfig::default().slow_request_threshold(Duration::ZERO),
            1,
        );
        let tel = ShardTelemetry {
            tel: &telemetry,
            shard: 0,
        };
        let (count, count_rx) = job(Request::Count { id: cheap });
        let (batch, batch_rx) = job(Request::ApplyLayeredBatch {
            id: costly,
            updates,
        });
        let shard = Shard {
            index: 0,
            service: Mutex::new(CycleCountService::builder().build()),
            queued: AtomicUsize::new(2),
        };
        process_group(&mut service, vec![count, batch], &shard, false, &tel);
        assert_eq!(shard.queued.load(Ordering::SeqCst), 0);
        assert!(count_rx.recv().unwrap().is_ok());
        assert!(batch_rx.recv().unwrap().is_ok());

        let slow: Vec<u64> = telemetry
            .ring()
            .drain()
            .into_iter()
            .filter(|e| e.kind == EventKind::SlowRequest)
            .map(|e| e.a)
            .collect();
        let apply_max = telemetry.stage(0, Stage::Apply).snapshot().max;
        assert_eq!(slow.len(), 2, "{slow:?}");
        assert!(
            slow[0] < apply_max / 2,
            "count: {slow:?} vs apply {apply_max}"
        );
        assert!(slow[1] >= apply_max, "batch: {slow:?} vs apply {apply_max}");
    }
}
