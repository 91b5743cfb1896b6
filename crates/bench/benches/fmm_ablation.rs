//! F4 — rollover-path ablation: the combinatorial replay vs the dense/sparse
//! matrix-product path for the old-phase structures (see the `fmm` module's
//! "Where fast matrix multiplication enters" in `fourcycle-core`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fourcycle_core::{FmmConfig, FmmEngine, QRel, ThreePathEngine};
use fourcycle_workloads::{LayeredStreamConfig, LayeredStreamKind};
use std::time::Duration;

fn bench_fmm_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("fmm_ablation");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    // Dense-middle-heavy stream: strong hubs so the Dense classes and the
    // old-phase products are non-trivial.
    let stream: Vec<(QRel, u32, u32, fourcycle_graph::UpdateOp)> = LayeredStreamConfig {
        layer_size: 400,
        updates: 2_500,
        delete_prob: 0.15,
        kind: LayeredStreamKind::HubSkewed {
            hubs: 4,
            hub_prob: 0.6,
        },
        seed: 63,
    }
    .generate()
    .iter()
    .filter_map(|u| {
        let rel = match u.rel {
            fourcycle_graph::Rel::A => QRel::A,
            fourcycle_graph::Rel::B => QRel::B,
            fourcycle_graph::Rel::C => QRel::C,
            fourcycle_graph::Rel::D => return None,
        };
        Some((rel, u.left, u.right, u.op))
    })
    .collect();

    for (label, use_fmm) in [
        ("combinatorial_rollover", false),
        ("matrix_product_rollover", true),
    ] {
        let cfg = FmmConfig {
            use_fmm,
            phase_len_override: Some(256),
            ..Default::default()
        };
        group.bench_function(label, |b| {
            b.iter_batched(
                || FmmEngine::new(cfg),
                |mut engine| {
                    for &(rel, l, r, op) in &stream {
                        engine.apply_update(rel, l, r, op);
                    }
                    engine.rollovers()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fmm_ablation);
criterion_main!(benches);
