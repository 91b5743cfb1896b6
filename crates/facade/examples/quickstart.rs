//! Quick start: maintain the exact 4-cycle count of a general graph under a
//! fully dynamic edge stream (Theorem 1).
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fourcycle::core::{EngineKind, FourCycleCounter};

fn main() {
    // Use the paper's main algorithm (§4–§7). `EngineKind::Threshold` gives
    // the O(m^{2/3}) baseline and `EngineKind::Simple` the Appendix-A O(n)
    // algorithm; all maintain identical counts.
    let mut counter = FourCycleCounter::new(EngineKind::Fmm);

    println!("building K5 one edge at a time:");
    for u in 1..=5u32 {
        for v in (u + 1)..=5 {
            let count = counter.insert(u, v).expect("new edge");
            println!("  +({u},{v})  -> {count} four-cycles");
        }
    }
    // K5 contains C(5,4) * 3 = 15 four-cycles.
    assert_eq!(counter.count(), 15);

    println!("deleting the edges incident to vertex 5:");
    for v in 1..=4u32 {
        let count = counter.delete(5, v).expect("edge exists");
        println!("  -({v},5)  -> {count} four-cycles");
    }
    // What remains is K4 with 3 four-cycles.
    assert_eq!(counter.count(), 3);

    println!(
        "final: {} four-cycles on {} edges (total engine work: {} operations)",
        counter.count(),
        counter.total_edges(),
        counter.work()
    );
}
