//! Compile-time thread-safety pins for the sharded runtime's building
//! blocks.
//!
//! The thread-per-shard executor moves whole `CycleCountService` shards
//! (and with them every engine and counter) onto worker threads. If
//! any of these types ever grows a `!Send` member (an `Rc`, a raw pointer,
//! a thread-local handle), the runtime would stop compiling — but only
//! through a confusing trait-bound error deep inside `thread::spawn`.
//! These assertions fail the build *at the type that regressed* instead.
//!
//! Nothing here runs: `assert_send` / `assert_sync` monomorphize only if
//! the bound holds, so the whole file is a compile-time proof. The single
//! `#[test]` exists so the proof is visibly part of the test suite.

use fourcycle::core::{
    AutoEngine, FmmEngine, FourCycleCounter, GeneralEngine, LayeredCycleCounter, NaiveEngine,
    SimpleEngine, SymmetricFmmEngine, ThresholdEngine,
};
use fourcycle::runtime::{Pipeline, RuntimeConfig, RuntimeError, ShardedRuntime, Ticket};
use fourcycle::server::{Client, ClientError, Server, WireError};
use fourcycle::service::{CycleCountService, JournalSink, Request, Response, ServiceError};
use fourcycle::store::{ShardJournal, StoreError};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

#[allow(dead_code)]
fn every_engine_is_send() {
    // Every kind's engine (Fmm serves both the Fmm and FmmDense kinds),
    // and the general sessions' engines.
    assert_send::<NaiveEngine>();
    assert_send::<SimpleEngine>();
    assert_send::<ThresholdEngine>();
    assert_send::<FmmEngine>();
    assert_send::<AutoEngine>();
    assert_send::<SymmetricFmmEngine>();
    assert_send::<GeneralEngine>();
}

#[allow(dead_code)]
fn both_counters_are_send() {
    assert_send::<LayeredCycleCounter>();
    assert_send::<FourCycleCounter>();
}

#[allow(dead_code)]
fn the_service_and_runtime_surface_is_send() {
    // A whole service shard moves onto its worker thread…
    assert_send::<CycleCountService>();
    // …commands and outcomes cross the mailbox / reply channels…
    assert_send::<Request>();
    assert_send::<Response>();
    assert_send::<ServiceError>();
    assert_send::<RuntimeError>();
    assert_send::<Ticket>();
    assert_send::<RuntimeConfig>();
    // …and the runtime handle (plus its pipelines) is shared by reference
    // across client threads, so it must be `Sync` too.
    assert_send::<ShardedRuntime>();
    assert_sync::<ShardedRuntime>();
    assert_send::<Pipeline<'_>>();
}

#[allow(dead_code)]
fn the_network_front_door_is_send() {
    // The server handle outlives the thread that started it (an operator
    // thread may own it while signal handling happens elsewhere), and its
    // shared state is referenced from the accept and connection threads.
    assert_send::<Server>();
    assert_sync::<Server>();
    // One client per thread is the concurrency model: Send moves a
    // connection into its thread (Sync is deliberately not asserted —
    // a conversation has strict request/reply ordering).
    assert_send::<Client>();
    assert_send::<ClientError>();
    assert_send::<WireError>();
}

#[allow(dead_code)]
fn the_durable_store_is_send() {
    // A journaled service shard (service + attached `Box<dyn JournalSink>`)
    // moves onto its worker thread, so the sink trait object — and the
    // store's concrete sink — must be `Send`. `JournalSink: Send` is a
    // supertrait; these assertions catch it ever being dropped.
    assert_send::<ShardJournal>();
    assert_send::<Box<dyn JournalSink>>();
    assert_send::<StoreError>();
}

/// The compile-time assertions above are the real test; this pins that the
/// file stays wired into the suite.
#[test]
fn send_assertions_compile() {}
