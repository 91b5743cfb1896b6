//! Vertex-id ↔ dense-index compaction.
//!
//! Vertex ids are caller-managed `u32`s with no density guarantee, but the
//! hot data structures of this workspace — adjacency rows, class-restricted
//! matrices — want dense `0..len` indices. The paper repeatedly notes that
//! restricting to non-zero-degree vertices "effectively reduces the
//! dimension for computational purposes" (§3.2); [`CompactIndex`] is that
//! reduction: a bijection between an arbitrary set of `u32` vertex ids and
//! the dense range `0..len`. It backs both the indexed adjacency rows of
//! [`crate::SignedAdjacency`] and the matrix extraction in
//! `fourcycle-matrix` (which re-exports this type).
//!
//! An index holds distinct `u32` ids, so it has at most 2^32 of them and
//! every dense index fits a `u32`. The map stores its indices as `u32`
//! slots, half the size of `usize` ones; the API still speaks `usize`.
//!
//! Every engine interns client ids here, so the map hashes with
//! [`SeededState`]'s one folded multiply instead of SipHash; its seed is
//! drawn per index, since the ids are the client's choice
//! ([`crate::hash`]).

use crate::hash::{SeededHashMap, SeededState};
use crate::VertexId;

/// A bijection between vertex ids and dense indices.
#[derive(Debug, Clone, Default)]
pub struct CompactIndex {
    to_index: SeededHashMap<VertexId, u32>,
    to_vertex: Vec<VertexId>,
}

/// The position of a stored `u32` slot.
fn position(slot: u32) -> usize {
    usize::try_from(slot).unwrap_or(usize::MAX)
}

impl CompactIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty index with room for `capacity` vertices.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            to_index: SeededHashMap::with_capacity_and_hasher(capacity, SeededState::default()),
            to_vertex: Vec::with_capacity(capacity),
        }
    }

    /// Builds an index over the given vertices (duplicates are collapsed;
    /// insertion order determines indices).
    pub fn from_vertices(vertices: impl IntoIterator<Item = VertexId>) -> Self {
        let mut index = Self::new();
        for v in vertices {
            index.insert(v);
        }
        index
    }

    /// Inserts a vertex (no-op if already present) and returns its index.
    #[expect(
        clippy::expect_used,
        reason = "the index holds distinct u32 ids, so a new one's index is below 2^32"
    )]
    pub fn insert(&mut self, v: VertexId) -> usize {
        if let Some(&slot) = self.to_index.get(&v) {
            return position(slot);
        }
        let i = self.to_vertex.len();
        let slot = u32::try_from(i).expect("an index holds at most 2^32 vertices");
        self.to_index.insert(v, slot);
        self.to_vertex.push(v);
        i
    }

    /// Index of a vertex, if present.
    pub fn index_of(&self, v: VertexId) -> Option<usize> {
        self.to_index.get(&v).copied().map(position)
    }

    /// Vertex at a dense index.
    pub fn vertex_at(&self, i: usize) -> VertexId {
        self.to_vertex[i]
    }

    /// Number of vertices in the index.
    pub fn len(&self) -> usize {
        self.to_vertex.len()
    }

    /// `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.to_vertex.is_empty()
    }

    /// Iterates over `(index, vertex)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, VertexId)> + '_ {
        self.to_vertex.iter().copied().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_lookup() {
        let mut idx = CompactIndex::new();
        assert_eq!(idx.insert(42), 0);
        assert_eq!(idx.insert(7), 1);
        assert_eq!(idx.insert(42), 0, "reinsert returns existing index");
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.index_of(7), Some(1));
        assert_eq!(idx.index_of(13), None);
        assert_eq!(idx.vertex_at(0), 42);
    }

    #[test]
    fn from_vertices_collapses_duplicates() {
        let idx = CompactIndex::from_vertices([5, 5, 9, 5, 1]);
        assert_eq!(idx.len(), 3);
        let pairs: Vec<_> = idx.iter().collect();
        assert_eq!(pairs, vec![(0, 5), (1, 9), (2, 1)]);
        assert!(!idx.is_empty());
        assert!(CompactIndex::new().is_empty());
    }

    #[test]
    fn matches_a_hash_map_on_ids_shaped_to_collide() {
        use std::collections::HashMap;
        // Ids that an unseeded multiply would send to few buckets: multiples
        // of 2^16, runs of consecutive ids, both ends of the range.
        let ids: Vec<VertexId> = (0..2_000u32)
            .map(|k| k << 16)
            .chain(1_000_000..1_003_000)
            .chain((0..64).map(|k| u32::MAX - k))
            .chain([0, 1, u32::MAX, 1 << 16])
            .collect();
        let mut idx = CompactIndex::with_capacity(4);
        let mut model: HashMap<VertexId, usize> = HashMap::new();
        for &v in &ids {
            let next = model.len();
            let i = *model.entry(v).or_insert(next);
            assert_eq!(idx.insert(v), i, "insert of {v}");
        }
        assert_eq!(idx.len(), model.len());
        for (&v, &i) in &model {
            assert_eq!(idx.index_of(v), Some(i), "index of {v}");
            assert_eq!(idx.vertex_at(i), v);
        }
        for v in [2u32, (1 << 16) + 1, 999_999, 1_003_000, u32::MAX - 64] {
            assert_eq!(idx.index_of(v), None, "{v} was never inserted");
        }
        assert!(idx.iter().all(|(i, v)| model[&v] == i));
    }

    #[test]
    fn with_capacity_starts_empty() {
        let idx = CompactIndex::with_capacity(32);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
    }
}
