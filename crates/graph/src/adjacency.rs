//! Signed adjacency structures.
//!
//! Every data structure in the paper is a (multi)linear function of *signed*
//! edge multisets: the "negative edge" trick of §3.3 represents a deletion of
//! an edge that was inserted in an earlier chunk/phase as a `-1` entry in the
//! later one. [`SignedAdjacency`] and [`BipartiteAdjacency`] therefore store
//! an `i64` weight per vertex pair; for the *current* graph the weights are
//! always `0` or `1`, while phase-restricted edge sets in `fourcycle-core`
//! may legitimately hold negative weights.
//!
//! # Representation
//!
//! Rows are *indexed*, not nested hash maps: left vertices are interned into
//! dense ids through a [`CompactIndex`] and each row is a flat `Vec` of
//! `(neighbor, weight)` entries kept sorted by neighbor id. Row iteration —
//! the inner loop of every maintenance rule and query — is therefore a
//! contiguous scan instead of a hash-bucket walk, and point lookups are a
//! binary search in a row that is typically short. The interner and the row
//! allocations survive [`SignedAdjacency::clear`], so the era rebuilds of the
//! engines re-populate warm buffers instead of re-hashing every vertex.
//!
//! A vertex keeps its interner slot after its row empties, so that a vertex
//! whose degree flaps between 0 and 1 is not re-hashed each time. Once its
//! empty rows outnumber its live ones by more than a small slack, the
//! structure compacts itself, so on streams of ever-fresh vertex ids its
//! memory tracks the live rows, not every vertex ever seen.

use crate::compact::CompactIndex;
use crate::VertexId;

/// Empty rows a [`SignedAdjacency`] tolerates beyond its live ones before
/// an emptying `add` compacts it: it keeps `slots ≤ 2·live + COMPACT_SLACK`.
/// The main engine of `fourcycle-core` applies the same rule to its layer
/// interners.
pub const COMPACT_SLACK: usize = 16;

/// A signed directed adjacency map from left vertices to right vertices.
///
/// Entries with weight `0` are removed eagerly so that `degree` and neighbor
/// iteration only ever see "real" entries, and a row that loses its last
/// entry frees its allocation.
#[derive(Debug, Clone, Default)]
pub struct SignedAdjacency {
    /// Left-vertex interner; a vertex keeps its slot after its row empties,
    /// until the next compaction.
    index: CompactIndex,
    /// `rows[slot]` holds the `(neighbor, weight)` entries of the left
    /// vertex at `slot`, sorted by neighbor id, no zero weights.
    rows: Vec<Vec<(VertexId, i64)>>,
    /// Total number of (pair, weight != 0) entries.
    entries: usize,
    /// Number of non-empty rows.
    live_rows: usize,
}

impl SignedAdjacency {
    /// Creates an empty adjacency.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the weight of the pair `(u, v)`.
    ///
    /// Returns the new weight. An `add` that empties a row compacts the
    /// structure once its empty rows outnumber its live ones by more than
    /// a small slack (module docs).
    pub fn add(&mut self, u: VertexId, v: VertexId, delta: i64) -> i64 {
        if delta == 0 {
            return self.weight(u, v);
        }
        let slot = self.index.insert(u);
        if slot == self.rows.len() {
            self.rows.push(Vec::new());
        }
        let row = &mut self.rows[slot];
        match row.binary_search_by_key(&v, |&(n, _)| n) {
            Ok(pos) => {
                let new = row[pos].1 + delta;
                if new == 0 {
                    row.remove(pos);
                    self.entries -= 1;
                    if row.is_empty() {
                        *row = Vec::new();
                        self.live_rows -= 1;
                        if self.rows.len() > 2 * self.live_rows + COMPACT_SLACK {
                            self.compact();
                        }
                    }
                } else {
                    row[pos].1 = new;
                }
                new
            }
            Err(pos) => {
                if row.is_empty() {
                    self.live_rows += 1;
                }
                row.insert(pos, (v, delta));
                self.entries += 1;
                delta
            }
        }
    }

    fn row(&self, u: VertexId) -> Option<&[(VertexId, i64)]> {
        self.index
            .index_of(u)
            .map(|slot| self.rows[slot].as_slice())
    }

    /// Current weight of the pair `(u, v)` (0 if absent).
    pub fn weight(&self, u: VertexId, v: VertexId) -> i64 {
        self.row(u)
            .and_then(|row| {
                row.binary_search_by_key(&v, |&(n, _)| n)
                    .ok()
                    .map(|pos| row[pos].1)
            })
            .unwrap_or(0)
    }

    /// `true` if the pair has non-zero weight.
    pub fn contains(&self, u: VertexId, v: VertexId) -> bool {
        self.weight(u, v) != 0
    }

    /// Number of non-zero pairs stored.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// `true` if no non-zero pair is stored.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of non-zero entries in the row of `u` (its out-degree).
    pub fn degree(&self, u: VertexId) -> usize {
        self.row(u).map_or(0, |row| row.len())
    }

    /// Iterates over `(neighbor, weight)` pairs of `u` in neighbor-id order.
    pub fn neighbors(&self, u: VertexId) -> impl Iterator<Item = (VertexId, i64)> + '_ {
        self.row(u).unwrap_or_default().iter().copied()
    }

    /// Iterates over all `(u, v, weight)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId, i64)> + '_ {
        self.rows.iter().enumerate().flat_map(move |(slot, row)| {
            let u = self.index.vertex_at(slot);
            row.iter().map(move |&(v, w)| (u, v, w))
        })
    }

    /// Iterates over the left vertices that currently have at least one
    /// non-zero entry.
    pub fn left_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| !row.is_empty())
            .map(|(slot, _)| self.index.vertex_at(slot))
    }

    /// Removes every entry. The vertex interner and row allocations are
    /// retained, so re-populating after a clear (the engines' era rebuilds)
    /// reuses warm buffers.
    pub fn clear(&mut self) {
        for row in &mut self.rows {
            row.clear();
        }
        self.entries = 0;
        self.live_rows = 0;
    }

    /// Drops the interner slots and row allocations of vertices whose rows
    /// are currently empty, re-interning only the live ones. An emptying
    /// [`add`](Self::add) runs this once empty rows outnumber live ones by
    /// the slack, so memory tracks the live rows on unbounded id streams
    /// (sliding windows, ever-fresh tuple ids). Cost is `O(slots)`.
    fn compact(&mut self) {
        if self.live_rows == self.rows.len() {
            return;
        }
        let mut index = CompactIndex::with_capacity(self.live_rows);
        let mut rows = Vec::with_capacity(self.live_rows);
        for (slot, row) in self.rows.iter_mut().enumerate() {
            if !row.is_empty() {
                index.insert(self.index.vertex_at(slot));
                rows.push(std::mem::take(row));
            }
        }
        self.index = index;
        self.rows = rows;
    }
}

/// A signed bipartite adjacency indexed from both sides.
///
/// This is the representation of one relation matrix (`A`, `B`, `C` or `D`)
/// of a [`crate::LayeredGraph`]: `left → right` and `right → left` maps are
/// kept in sync so that both "iterate over the neighbors of a left vertex"
/// and "iterate over the neighbors of a right vertex" are cheap, which is
/// what the maintenance claims of §3.2/§5.2 rely on.
#[derive(Debug, Clone, Default)]
pub struct BipartiteAdjacency {
    forward: SignedAdjacency,
    backward: SignedAdjacency,
}

impl BipartiteAdjacency {
    /// Creates an empty bipartite adjacency.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the weight of `(left, right)`; returns the new weight.
    pub fn add(&mut self, left: VertexId, right: VertexId, delta: i64) -> i64 {
        self.backward.add(right, left, delta);
        self.forward.add(left, right, delta)
    }

    /// Weight of `(left, right)`.
    pub fn weight(&self, left: VertexId, right: VertexId) -> i64 {
        self.forward.weight(left, right)
    }

    /// `true` if `(left, right)` has non-zero weight.
    pub fn contains(&self, left: VertexId, right: VertexId) -> bool {
        self.forward.contains(left, right)
    }

    /// Number of non-zero pairs.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Out-degree of a left vertex (number of distinct right neighbors).
    pub fn degree_left(&self, left: VertexId) -> usize {
        self.forward.degree(left)
    }

    /// Out-degree of a right vertex (number of distinct left neighbors).
    pub fn degree_right(&self, right: VertexId) -> usize {
        self.backward.degree(right)
    }

    /// `(neighbor, weight)` pairs of a left vertex.
    pub fn neighbors_of_left(&self, left: VertexId) -> impl Iterator<Item = (VertexId, i64)> + '_ {
        self.forward.neighbors(left)
    }

    /// `(neighbor, weight)` pairs of a right vertex.
    pub fn neighbors_of_right(
        &self,
        right: VertexId,
    ) -> impl Iterator<Item = (VertexId, i64)> + '_ {
        self.backward.neighbors(right)
    }

    /// All `(left, right, weight)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId, i64)> + '_ {
        self.forward.iter()
    }

    /// Left vertices with at least one non-zero entry.
    pub fn left_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.forward.left_vertices()
    }

    /// Right vertices with at least one non-zero entry.
    pub fn right_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.backward.left_vertices()
    }

    /// Removes every entry (retaining interners and row allocations).
    pub fn clear(&mut self) {
        self.forward.clear();
        self.backward.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_adjacency_add_and_cancel() {
        let mut adj = SignedAdjacency::new();
        assert_eq!(adj.add(1, 2, 1), 1);
        assert_eq!(adj.add(1, 2, 1), 2);
        assert_eq!(adj.len(), 1);
        assert_eq!(adj.degree(1), 1);
        assert_eq!(adj.add(1, 2, -2), 0);
        assert_eq!(adj.len(), 0);
        assert_eq!(adj.degree(1), 0);
        assert!(adj.is_empty());
    }

    #[test]
    fn signed_adjacency_negative_weights() {
        let mut adj = SignedAdjacency::new();
        adj.add(3, 4, -1);
        assert_eq!(adj.weight(3, 4), -1);
        assert_eq!(adj.len(), 1);
        assert!(adj.contains(3, 4));
        adj.add(3, 4, 1);
        assert!(!adj.contains(3, 4));
        assert!(adj.is_empty());
    }

    #[test]
    fn signed_adjacency_iteration() {
        let mut adj = SignedAdjacency::new();
        adj.add(1, 2, 1);
        adj.add(1, 3, 1);
        adj.add(2, 3, -1);
        let mut triples: Vec<_> = adj.iter().collect();
        triples.sort_unstable();
        assert_eq!(triples, vec![(1, 2, 1), (1, 3, 1), (2, 3, -1)]);
        let mut nbrs: Vec<_> = adj.neighbors(1).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![(2, 1), (3, 1)]);
        let mut lefts: Vec<_> = adj.left_vertices().collect();
        lefts.sort_unstable();
        assert_eq!(lefts, vec![1, 2]);
    }

    #[test]
    fn rows_stay_sorted_by_neighbor_id() {
        let mut adj = SignedAdjacency::new();
        for v in [9u32, 2, 7, 4, 11, 1] {
            adj.add(5, v, 1);
        }
        let nbrs: Vec<u32> = adj.neighbors(5).map(|(v, _)| v).collect();
        let mut sorted = nbrs.clone();
        sorted.sort_unstable();
        assert_eq!(nbrs, sorted, "row iteration must be in neighbor-id order");
    }

    #[test]
    fn clear_retains_capacity_but_no_entries() {
        let mut adj = SignedAdjacency::new();
        adj.add(1, 2, 1);
        adj.add(3, 4, 2);
        adj.clear();
        assert!(adj.is_empty());
        assert_eq!(adj.weight(1, 2), 0);
        assert_eq!(adj.left_vertices().count(), 0);
        // Re-population after clear works on the retained slots.
        adj.add(1, 9, 1);
        assert_eq!(adj.degree(1), 1);
    }

    #[test]
    fn emptied_rows_free_their_allocation_but_clear_keeps_it() {
        let mut adj = SignedAdjacency::new();
        adj.add(1, 2, 1);
        adj.add(1, 3, 1);
        adj.add(1, 2, -1);
        assert!(adj.rows[0].capacity() > 0, "a live row keeps its buffer");
        adj.add(1, 3, -1);
        assert_eq!(adj.rows[0].capacity(), 0, "an emptied row is freed");
        adj.add(1, 4, 1);
        adj.clear();
        assert!(adj.rows[0].capacity() > 0, "clear keeps rows for reuse");
    }

    #[test]
    fn compact_reclaims_dead_slots_and_keeps_live_rows() {
        let mut adj = SignedAdjacency::new();
        for v in 0..50u32 {
            adj.add(v, v + 100, 1);
        }
        for v in 0..49u32 {
            adj.add(v, v + 100, -1);
        }
        adj.compact();
        assert_eq!(adj.len(), 1);
        assert_eq!(adj.weight(49, 149), 1);
        assert_eq!(adj.left_vertices().count(), 1);
        // New vertices intern into the reclaimed slot space.
        adj.add(7, 8, 1);
        assert_eq!(adj.weight(7, 8), 1);
        assert_eq!(adj.degree(7), 1);
        // Compacting a fully-live structure is a no-op.
        adj.compact();
        assert_eq!(adj.len(), 2);
        assert_eq!(adj.weight(49, 149), 1);
    }

    /// The non-empty rows, counted from the rows themselves.
    fn live(adj: &SignedAdjacency) -> usize {
        adj.rows.iter().filter(|row| !row.is_empty()).count()
    }

    #[test]
    fn churn_of_fresh_ids_keeps_slots_within_twice_the_live_rows() {
        let mut adj = SignedAdjacency::new();
        for v in 0..40u32 {
            adj.add(v, v % 7, 1);
        }
        // Each round retires the oldest left vertex and brings a new one.
        for v in 40..10_040u32 {
            adj.add(v - 40, (v - 40) % 7, -1);
            assert!(adj.rows.len() <= 2 * live(&adj) + COMPACT_SLACK);
            adj.add(v, v % 7, 1);
            assert!(adj.rows.len() <= 2 * live(&adj) + COMPACT_SLACK);
        }
        assert_eq!(adj.live_rows, live(&adj));
        assert_eq!(adj.index.len(), adj.rows.len());
        assert_eq!(adj.len(), 40);
        for v in 10_000..10_040u32 {
            assert_eq!(adj.weight(v, v % 7), 1, "a live row survives compaction");
        }
        assert_eq!(adj.weight(9_999, 9_999 % 7), 0);
    }

    #[test]
    fn clear_and_repopulation_keep_their_rows() {
        let mut adj = SignedAdjacency::new();
        for v in 0..100u32 {
            adj.add(v, 1, 1);
            adj.add(v, 2, 1);
        }
        adj.clear();
        assert_eq!(adj.rows.len(), 100, "clear keeps every slot");
        assert!(adj
            .rows
            .iter()
            .all(|row| row.is_empty() && row.capacity() > 0));
        // An era rebuild re-populates part of the rows: nothing is dropped.
        for v in 0..20u32 {
            adj.add(v, 3, 1);
            adj.add(v, 4, 1);
        }
        assert_eq!(adj.rows.len(), 100);
        assert!(adj.rows.iter().all(|row| row.capacity() > 0));
        assert_eq!(
            adj.index.index_of(7),
            Some(7),
            "a re-populated vertex keeps its slot"
        );
        // A deletion that leaves its row non-empty compacts nothing either.
        adj.add(0, 3, -1);
        assert_eq!(adj.rows.len(), 100);
        // The first emptied row finds 81 empty rows beside 19 live ones.
        adj.add(0, 4, -1);
        assert_eq!(adj.rows.len(), 19);
        assert_eq!(adj.len(), 38);
        assert!((1..20u32).all(|v| adj.degree(v) == 2));
    }

    #[test]
    fn bipartite_adjacency_sides_stay_in_sync() {
        let mut adj = BipartiteAdjacency::new();
        adj.add(1, 10, 1);
        adj.add(2, 10, 1);
        adj.add(1, 11, 1);
        assert_eq!(adj.degree_left(1), 2);
        assert_eq!(adj.degree_right(10), 2);
        assert_eq!(adj.weight(2, 10), 1);
        let mut nbrs: Vec<_> = adj.neighbors_of_right(10).collect();
        nbrs.sort_unstable();
        assert_eq!(nbrs, vec![(1, 1), (2, 1)]);
        adj.add(1, 10, -1);
        assert_eq!(adj.degree_left(1), 1);
        assert_eq!(adj.degree_right(10), 1);
    }

    #[test]
    fn bipartite_clear() {
        let mut adj = BipartiteAdjacency::new();
        adj.add(1, 1, 1);
        adj.add(2, 2, 1);
        adj.clear();
        assert!(adj.is_empty());
        assert_eq!(adj.degree_left(1), 0);
        assert_eq!(adj.degree_right(2), 0);
    }
}
