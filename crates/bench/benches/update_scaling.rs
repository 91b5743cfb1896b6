//! F1 — wall-clock update-time scaling of the engines.
//!
//! Each benchmark replays a fixed fully dynamic layered stream through a
//! fresh counter; the reported time divided by the number of updates is the
//! mean update time. The work-count version of this experiment (exact, not
//! noise-limited) is table T4 of the `experiments` binary.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use fourcycle_core::{EngineKind, LayeredCycleCounter};
use fourcycle_workloads::{LayeredStreamConfig, LayeredStreamKind};
use std::time::Duration;

fn bench_update_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_scaling");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    for &updates in &[1_000usize, 4_000] {
        let layer_size = ((2.0 * updates as f64).powf(2.0 / 3.0).ceil() as u32).max(8);
        let stream = LayeredStreamConfig {
            layer_size,
            updates,
            delete_prob: 0.2,
            kind: LayeredStreamKind::HubSkewed {
                hubs: 3,
                hub_prob: 0.3,
            },
            seed: 7,
        }
        .generate();
        for kind in [EngineKind::Simple, EngineKind::Threshold, EngineKind::Fmm] {
            group.bench_with_input(
                BenchmarkId::new(kind.name(), updates),
                &stream,
                |b, stream| {
                    b.iter_batched(
                        || LayeredCycleCounter::new(kind),
                        |mut counter| {
                            for u in stream {
                                counter.apply(*u);
                            }
                            counter.count()
                        },
                        BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_update_scaling);
criterion_main!(benches);
