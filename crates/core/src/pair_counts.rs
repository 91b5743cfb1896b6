//! Sparse signed pair-count tables.
//!
//! Every data structure in §3 and §5 of the paper ("`A^{H∗}·B_{<i}`",
//! "`A^{∗S}·B^{S∗}`", "`A^{HS}_{new}·B^{SS}_{old}·C^{SH}_{new}`", …) stores,
//! for pairs of vertices, a signed number of 2- or 3-paths of a particular
//! shape. [`PairCounts`] is that table. It shares the indexed representation
//! of [`SignedAdjacency`] — left vertices interned to dense ids, flat sorted
//! `Vec` rows, zero entries removed eagerly — so that row iteration (used
//! heavily by the maintenance rules) is a contiguous scan and the engine hot
//! paths contain no nested hash maps. The fmm engine, whose ids are already
//! dense per layer, indexes its tables by position instead
//! ([`crate::fmm::table::PairTable`]).

use fourcycle_graph::{SignedAdjacency, VertexId};

/// A sparse signed table of counts indexed by ordered vertex pairs.
#[derive(Debug, Clone, Default)]
pub struct PairCounts {
    table: SignedAdjacency,
}

impl PairCounts {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the entry `(a, b)`.
    pub fn add(&mut self, a: VertexId, b: VertexId, delta: i64) {
        self.table.add(a, b, delta);
    }

    /// The entry `(a, b)` (0 if absent).
    pub fn get(&self, a: VertexId, b: VertexId) -> i64 {
        self.table.weight(a, b)
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if the table has no non-zero entry.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Removes every entry (retaining the interner and row allocations).
    pub fn clear(&mut self) {
        self.table.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_cancel() {
        let mut pc = PairCounts::new();
        pc.add(1, 2, 3);
        pc.add(1, 2, -1);
        assert_eq!(pc.get(1, 2), 2);
        assert_eq!(pc.len(), 1);
        pc.add(1, 2, -2);
        assert_eq!(pc.get(1, 2), 0);
        assert_eq!(pc.len(), 0);
        assert!(pc.is_empty());
    }

    #[test]
    fn zero_delta_is_noop() {
        let mut pc = PairCounts::new();
        pc.add(5, 6, 0);
        assert!(pc.is_empty());
    }

    #[test]
    fn clear_empties_table() {
        let mut pc = PairCounts::new();
        pc.add(1, 2, 1);
        pc.add(3, 4, 5);
        pc.clear();
        assert!(pc.is_empty());
        assert_eq!(pc.get(3, 4), 0);
    }
}
