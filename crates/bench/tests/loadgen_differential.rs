//! Acceptance test of the sharded runtime (ISSUE 4): concurrent execution
//! must be *indistinguishable* from single-threaded execution, per session.
//!
//! For ≥ 2 shard counts and ≥ 8 concurrent sessions replaying the smoke
//! catalog through the closed-loop load generator, every session's final
//! `Snapshot { count, total_edges, epoch }` read through the runtime must
//! equal a plain single-threaded `CycleCountService` replay of the same
//! scenario stream, and the runtime's own command totals must equal the
//! number of requests the clients submitted. Scheduling is deliberately
//! left to the OS (`RUST_TEST_THREADS` is unpinned in CI), so interleavings
//! vary between runs.

use fourcycle_bench::{replay_single_threaded, LoadConfig, LoadRunner};
use fourcycle_core::EngineKind;
use fourcycle_workloads::smoke_catalog;

#[test]
fn concurrent_replay_matches_single_threaded_replay_exactly() {
    let scenarios = smoke_catalog(42);
    assert!(!scenarios.is_empty());
    // Ground truth per scenario, computed once on this thread.
    let expected: Vec<_> = scenarios
        .iter()
        .map(|s| replay_single_threaded(EngineKind::Threshold, &s.generate()))
        .collect();

    for shards in [2usize, 4] {
        let config = LoadConfig {
            shards,
            clients: 4,
            sessions_per_client: 2, // 8 concurrent sessions
            mailbox_depth: 8,       // small: force real backpressure
            engine: EngineKind::Threshold,
            ..LoadConfig::default()
        };
        assert!(config.total_sessions() >= 8);
        let report = LoadRunner::new(config).run(&scenarios);

        assert_eq!(report.sessions.len(), config.total_sessions());
        for outcome in &report.sessions {
            let want = &expected[outcome.scenario_index];
            let got = &outcome.snapshot;
            assert_eq!(
                (got.count, got.total_edges, got.epoch),
                (want.count, want.total_edges, want.epoch),
                "{} shards, session {} ({}): concurrent replay diverged",
                shards,
                outcome.graph,
                outcome.scenario,
            );
        }
        // The runtime served exactly what the clients submitted — nothing
        // dropped, nothing duplicated, nothing rejected.
        assert_eq!(
            report.telemetry.totals.commands, report.requests,
            "{shards} shards: command totals must equal submitted requests"
        );
        assert_eq!(report.telemetry.totals.updates_applied, report.updates);
        assert_eq!(report.telemetry.totals.rejected, 0);
        assert_eq!(report.telemetry.per_shard.len(), shards);
    }
}

/// The same equivalence holds per engine kind on a smaller matrix (the
/// subquadratic engines that serve production traffic).
#[test]
fn differential_holds_across_engines() {
    let scenarios = smoke_catalog(7);
    let scenario = &scenarios[0];
    let batches = scenario.generate();
    for engine in [EngineKind::Simple, EngineKind::Fmm] {
        let want = replay_single_threaded(engine, &batches);
        let config = LoadConfig {
            shards: 2,
            clients: 2,
            sessions_per_client: 4,
            mailbox_depth: 4,
            engine,
            ..LoadConfig::default()
        };
        let report = LoadRunner::new(config).run(&scenarios[..1]);
        for outcome in &report.sessions {
            assert_eq!(
                (
                    outcome.snapshot.count,
                    outcome.snapshot.total_edges,
                    outcome.snapshot.epoch
                ),
                (want.count, want.total_edges, want.epoch),
                "{}: {}",
                engine.name(),
                outcome.graph,
            );
        }
    }
}
