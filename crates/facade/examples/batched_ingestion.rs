//! Batched ingestion of a cyclic-join tuple stream: a workload is rendered
//! to the trace format, replayed through the batched trace player, and
//! applied to a layered counter in `UpdateBatch`es — the high-throughput
//! path a streaming ingestor would use. The layered 4-cycle count is the
//! cyclic join size `|A ⋈ B ⋈ C ⋈ D|` (§1, Fig. 1). Verifies the per-tuple
//! count against full recomputation, and that batched and per-tuple
//! application produce identical join counts.
//!
//! ```text
//! cargo run --release --example batched_ingestion
//! ```

use fourcycle::core::{EngineKind, LayeredCycleCounter};
use fourcycle::graph::LayeredGraph;
use fourcycle::workloads::{
    render_layered_trace, LayeredStreamConfig, LayeredStreamKind, TracePlayer,
};

fn main() {
    let stream = LayeredStreamConfig {
        layer_size: 128,
        updates: 6_000,
        delete_prob: 0.3,
        kind: LayeredStreamKind::Relational,
        seed: 23,
    }
    .generate();
    let trace = render_layered_trace(&stream);

    // Per-tuple reference, checked against a recomputation from the tuples
    // it accepted.
    let mut reference = LayeredCycleCounter::new(EngineKind::Threshold);
    let mut tuples = LayeredGraph::new();
    for update in &stream {
        if reference.apply(*update).is_some() {
            tuples.apply(update);
        }
    }
    assert_eq!(
        reference.count(),
        tuples.count_layered_4cycles_brute_force(),
        "the maintained count must equal full recomputation"
    );

    println!("batch size   batches   |A⋈B⋈C⋈D|   engine work (ops)");
    for batch_size in [1usize, 64, 4096] {
        let player = TracePlayer::from_trace(&trace, batch_size).expect("valid trace");
        let mut counter = LayeredCycleCounter::new(EngineKind::Threshold);
        let mut batches = 0usize;
        for batch in player {
            counter.apply_batch(batch.updates());
            batches += 1;
        }
        println!(
            "{:>10}   {:>7}   {:>9}   {:>17}",
            batch_size,
            batches,
            counter.count(),
            counter.work(),
        );
        assert_eq!(
            counter.count(),
            reference.count(),
            "batching must preserve the count"
        );
    }
    println!("\nall batch sizes reproduce the per-tuple join count exactly");
}
