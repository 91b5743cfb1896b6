//! `ShardedRuntime::call` runs a command on the caller's thread while its
//! shard is idle, and takes the mailbox otherwise.
//!
//! * Threads that interleave `Pipeline` bursts, `try_submit` and `call` on
//!   their own graphs get, reply for reply, what one `CycleCountService`
//!   replaying each thread's commands in order returns: a `call` made
//!   while the caller's earlier commands still wait in the mailbox, or
//!   were drained but have not run, must not overtake them.
//! * In particular a `call` made the moment another caller's long inline
//!   command frees the lock, while the worker has drained the caller's
//!   own earlier command and waits for that lock, queues behind it.
//! * A `call` on an idle shard joins no dispatch group but is accounted
//!   like a mailbox job: one sample in each stage histogram, and a
//!   measured queue wait.
//! * A group-commit runtime never runs a command inline: its dispatcher
//!   holds each group's replies for the group's fsync.

#![allow(
    clippy::unwrap_used,
    clippy::panic,
    clippy::as_conversions,
    reason = "test code may unwrap, panic and cast"
)]

use fourcycle_core::EngineKind;
use fourcycle_graph::{LayeredUpdate, Rel};
use fourcycle_runtime::{RuntimeConfig, RuntimeError, ShardedRuntime, SubmitOutcome, Ticket};
use fourcycle_service::{CycleCountService, GraphId, Request, Response};
use fourcycle_store::{FsyncPolicy, JournalConfig};
use fourcycle_telemetry::Stage;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::spin_loop;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::Duration;

type Outcome = Result<Response, RuntimeError>;

/// Graphs each thread owns.
const GRAPHS_PER_THREAD: u64 = 3;

/// Vertices per layer: few, so inserts collide with present edges and
/// deletes with absent ones, and replies depend on the order.
const LAYER_VERTICES: u32 = 5;

/// The graphs of thread `t`.
fn graphs(t: u64) -> Vec<GraphId> {
    (0..GRAPHS_PER_THREAD)
        .map(|k| GraphId(t * 100 + k))
        .collect()
}

/// A random layered update on `LAYER_VERTICES` vertices per layer.
fn update(rng: &mut SmallRng) -> LayeredUpdate {
    let rel = Rel::from_index(rng.gen_range(0..4));
    let (l, r) = (
        rng.gen_range(0..LAYER_VERTICES),
        rng.gen_range(0..LAYER_VERTICES),
    );
    if rng.gen_bool(0.7) {
        LayeredUpdate::insert(rel, l, r)
    } else {
        LayeredUpdate::delete(rel, l, r)
    }
}

/// A random command on one of `graphs`: mostly single updates, some
/// batches, reads, and now and then a drop or a re-create.
fn command(rng: &mut SmallRng, graphs: &[GraphId]) -> Request {
    let id = graphs[rng.gen_range(0..graphs.len())];
    match rng.gen_range(0..20) {
        0..=10 => Request::ApplyLayered {
            id,
            update: update(rng),
        },
        11..=13 => Request::ApplyLayeredBatch {
            id,
            updates: (0..rng.gen_range(1..5)).map(|_| update(rng)).collect(),
        },
        14..=15 => Request::Count { id },
        16 => Request::GetSnapshot { id },
        17 => Request::DropGraph { id },
        _ => Request::CreateGraph { id, spec: None },
    }
}

/// Runs `rounds` rounds of random commands on thread `t`'s graphs, each
/// round in one of three shapes, and returns every command with its
/// outcome in submission order, ending with a snapshot of each graph.
fn drive(runtime: &ShardedRuntime, t: u64, rounds: usize) -> Vec<(Request, Outcome)> {
    let mut rng = SmallRng::seed_from_u64(0x1ca1 + t);
    let graphs = graphs(t);
    let mut sent: Vec<Request> = graphs
        .iter()
        .map(|&id| Request::CreateGraph { id, spec: None })
        .collect();
    let mut got: Vec<Outcome> = sent.iter().map(|r| runtime.call(r.clone())).collect();
    for _ in 0..rounds {
        let burst: Vec<Request> = (0..rng.gen_range(1..7))
            .map(|_| command(&mut rng, &graphs))
            .collect();
        let (queued, last) = burst.split_at(burst.len() - 1);
        match rng.gen_range(0..3) {
            // Closed loop.
            0 => got.extend(burst.iter().map(|r| runtime.call(r.clone()))),
            // A pipeline burst, and a `call` before it is drained.
            1 => {
                let mut pipeline = runtime.pipeline();
                for request in queued {
                    pipeline.submit(request.clone());
                }
                let called = runtime.call(last[0].clone());
                got.extend(pipeline.drain());
                got.push(called);
            }
            // `try_submit`s (a `Busy` one queues blocking, in its place),
            // and a `call` before their tickets are waited.
            _ => {
                let tickets: Vec<Ticket> = queued
                    .iter()
                    .map(|request| match runtime.try_submit(request.clone()) {
                        SubmitOutcome::Queued(ticket) => ticket,
                        SubmitOutcome::Busy(request) => runtime.submit(request),
                    })
                    .collect();
                let called = runtime.call(last[0].clone());
                got.extend(tickets.into_iter().map(Ticket::wait));
                got.push(called);
            }
        }
        sent.extend(burst);
    }
    for &id in &graphs {
        let request = Request::GetSnapshot { id };
        got.push(runtime.call(request.clone()));
        sent.push(request);
    }
    sent.into_iter().zip(got).collect()
}

/// `threads` threads drive their own graphs through one 2-shard runtime;
/// each thread's replies must equal a direct replay of its commands.
fn interleaved_paths_keep_each_threads_order(threads: u64, rounds: usize) {
    let runtime = ShardedRuntime::start(
        RuntimeConfig::new()
            .shards(2)
            .engine(EngineKind::Simple)
            .mailbox_depth(4),
    );
    let runs: Vec<Vec<(Request, Outcome)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let runtime = &runtime;
                scope.spawn(move || drive(runtime, t, rounds))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut commands = 0;
    for (t, run) in runs.iter().enumerate() {
        let mut direct = CycleCountService::builder()
            .engine(EngineKind::Simple)
            .build();
        for (i, (request, got)) in run.iter().enumerate() {
            let want = direct.execute(request).map_err(RuntimeError::Service);
            assert_eq!(got, &want, "thread {t}, command {i}: {request:?}");
        }
        commands += run.len() as u64;
    }
    let report = runtime.shutdown();
    assert_eq!(report.totals.commands, commands);
}

#[test]
fn interleaved_calls_submits_and_pipelines_keep_each_threads_order() {
    interleaved_paths_keep_each_threads_order(4, 150);
}

/// The same with more threads and rounds: `cargo test --release -p
/// fourcycle-runtime --test inline_calls -- --ignored`.
#[test]
#[ignore = "a longer run of the interleaving test; run it in release"]
fn interleaved_paths_keep_each_threads_order_at_length() {
    interleaved_paths_keep_each_threads_order(8, 4_000);
}

/// Updates in the batch that holds the shard's lock inline: tens of
/// milliseconds on the simple engine in a debug build, several times the
/// pauses below.
const HOG_UPDATES: u32 = 1_000;

/// Rounds of the lock-handoff probe. The probe wins the lock from the
/// woken worker in only some rounds, so it takes many to catch a shard
/// that uncounts a job before it has run.
const PROBE_ROUNDS: u64 = 80;

#[test]
fn a_call_as_the_lock_frees_does_not_overtake_a_drained_command() {
    let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(1).engine(EngineKind::Simple));
    let pause = || thread::sleep(Duration::from_millis(1));
    for round in 0..PROBE_ROUNDS {
        let (hog, id) = (GraphId(1_000 + round), GraphId(2_000 + round));
        runtime
            .call(Request::CreateGraph {
                id: hog,
                spec: None,
            })
            .unwrap();
        let (started, done, probed) = (
            AtomicBool::new(false),
            AtomicBool::new(false),
            AtomicBool::new(false),
        );
        thread::scope(|scope| {
            scope.spawn(|| {
                started.store(true, Ordering::SeqCst);
                let updates = (0..HOG_UPDATES)
                    .map(|i| LayeredUpdate::insert(Rel::from_index(i as usize % 4), i, i / 4))
                    .collect();
                let hogged = runtime.call(Request::ApplyLayeredBatch { id: hog, updates });
                done.store(true, Ordering::SeqCst);
                // Keep this CPU busy, so that the woken worker has to wait
                // for one while the probe below takes its shot at the lock.
                while !probed.load(Ordering::SeqCst) {
                    spin_loop();
                }
                hogged.unwrap();
            });
            while !started.load(Ordering::SeqCst) {
                spin_loop();
            }
            pause(); // the hog's batch now holds the lock
            let created = runtime.submit(Request::CreateGraph { id, spec: None });
            pause(); // the worker has drained the create and waits for the lock
            while !done.load(Ordering::SeqCst) {
                spin_loop();
            }
            let update = LayeredUpdate::insert(Rel::A, 1, 2);
            let applied = runtime.call(Request::ApplyLayered { id, update });
            probed.store(true, Ordering::SeqCst);
            assert_eq!(created.wait(), Ok(Response::Created { id }));
            assert_eq!(
                applied,
                Ok(Response::Applied {
                    id,
                    count: 0,
                    epoch: 1
                }),
                "round {round}: the call overtook the queued create"
            );
        });
    }
    runtime.shutdown();
}

#[test]
fn calls_on_an_idle_shard_join_no_group_and_are_accounted() {
    let runtime = ShardedRuntime::start(RuntimeConfig::new().shards(2).engine(EngineKind::Simple));
    let telemetry = runtime.telemetry().clone();
    let mut calls = 0;
    for raw in 0..6u64 {
        let id = GraphId(raw);
        runtime
            .call(Request::CreateGraph { id, spec: None })
            .unwrap();
        for i in 0..4 {
            runtime
                .call(Request::ApplyLayered {
                    id,
                    update: LayeredUpdate::insert(Rel::from_index(i), 1, 2),
                })
                .unwrap();
        }
        // A rejected command is accounted too.
        assert!(runtime
            .call(Request::ApplyLayered {
                id,
                update: LayeredUpdate::insert(Rel::A, 1, 2),
            })
            .is_err());
        runtime.call(Request::Count { id }).unwrap();
        calls += 7;
    }
    let report = runtime.report();
    assert_eq!(report.totals.groups, 0, "{:?}", report.totals);
    assert_eq!(report.totals.commands, calls);
    assert_eq!(report.totals.updates_applied, 6 * 4);
    assert_eq!(report.totals.rejected, 6);
    assert!(report.totals.busy_nanos > 0, "{:?}", report.totals);
    let snapshot = telemetry.snapshot();
    for (shard, stats) in report.per_shard.iter().enumerate() {
        for stage in Stage::ALL {
            assert_eq!(
                snapshot.stage(shard, stage).count(),
                stats.commands,
                "shard {shard}, stage {}",
                stage.name()
            );
        }
    }
    assert!(snapshot.stage_total(Stage::QueueWait).sum > 0);
    runtime.shutdown();
}

#[test]
fn a_group_commit_runtime_never_runs_a_call_inline() {
    let dir = std::env::temp_dir().join(format!(
        "fourcycle-inline-calls-group-commit-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let runtime = ShardedRuntime::start(
        RuntimeConfig::new()
            .shards(1)
            .engine(EngineKind::Simple)
            .journal(JournalConfig::new(&dir).fsync(FsyncPolicy::group_commit())),
    );
    let id = GraphId(1);
    runtime
        .call(Request::CreateGraph { id, spec: None })
        .unwrap();
    let mut calls = 1;
    for i in 0..20u32 {
        runtime
            .call(Request::ApplyLayered {
                id,
                update: LayeredUpdate::insert(Rel::A, i, i + 1),
            })
            .unwrap();
        calls += 1;
    }
    let report = runtime.shutdown();
    // One closed-loop caller: each call is a group of its own.
    assert_eq!(report.totals.commands, calls);
    assert_eq!(report.totals.groups, calls, "{:?}", report.totals);
    assert!(
        report.totals.journal_fsyncs <= report.totals.groups + 1,
        "{:?}",
        report.totals
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
