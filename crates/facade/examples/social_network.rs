//! Social-network motif monitoring: maintain the 4-cycle count of a
//! preferential-attachment graph under continuous churn (one of the
//! motivating applications in §1 of the paper).
//!
//! ```text
//! cargo run --release --example social_network
//! ```

use fourcycle::core::{EngineKind, FourCycleCounter};
use fourcycle::graph::GeneralGraph;
use fourcycle::workloads::{GeneralStreamConfig, GeneralStreamKind};

fn main() {
    let stream = GeneralStreamConfig {
        vertices: 400,
        updates: 4_000,
        kind: GeneralStreamKind::PreferentialAttachment { churn: 0.15 },
        seed: 2025,
        ..Default::default()
    }
    .generate();

    let mut four_cycles = FourCycleCounter::new(EngineKind::Threshold);
    // The brute-force reference replays the accepted updates on its own.
    let mut reference = GeneralGraph::new();

    println!("updates  edges  4-cycles  4-cycles/edge");
    for (i, update) in stream.iter().enumerate() {
        if four_cycles.apply(*update).is_some() {
            reference.apply(update);
        }
        if (i + 1) % 500 == 0 {
            let m = four_cycles.total_edges();
            println!(
                "{:>7}  {:>5}  {:>8}  {:>13.2}",
                i + 1,
                m,
                four_cycles.count(),
                four_cycles.count() as f64 / m.max(1) as f64,
            );
        }
    }

    // The counter is exact: cross-check against brute force at the end.
    assert_eq!(four_cycles.count(), reference.count_4cycles_brute_force());
    assert_eq!(four_cycles.total_edges(), reference.edge_count());
    println!("\nexact counts verified against brute-force recomputation");
}
