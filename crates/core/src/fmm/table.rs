//! Signed pair-count tables keyed by dense ids.
//!
//! Every data structure of Tables 2–3 stores, for pairs of vertices of two
//! layers, a signed number of 2- or 3-paths of one shape. [`PairTable`] is
//! that table for the engine's dense per-layer ids: row `a` sits at
//! position `a` of one `Vec`, so a probe is an index and a binary search,
//! with no hashing. A row holds `(b, count)` entries sorted by `b`, zero
//! counts are removed eagerly, and a row that loses its last entry frees
//! its allocation.

use super::{dense_id, slot};
use fourcycle_graph::VertexId;

/// A sparse signed table of counts indexed by pairs of dense ids.
#[derive(Debug, Default)]
pub struct PairTable {
    /// `rows[a]`: the `(b, count)` entries of left key `a`, sorted by `b`,
    /// no zero counts.
    rows: Vec<Vec<(VertexId, i64)>>,
    /// Number of non-zero entries.
    len: usize,
}

impl PairTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the entry `(a, b)`.
    pub fn add(&mut self, a: VertexId, b: VertexId, delta: i64) {
        if delta == 0 {
            return;
        }
        let i = slot(a);
        if i >= self.rows.len() {
            self.rows.resize_with(i + 1, Vec::new);
        }
        let row = &mut self.rows[i];
        match row.binary_search_by_key(&b, |&(n, _)| n) {
            Ok(pos) => {
                let count = row[pos].1 + delta;
                if count == 0 {
                    row.remove(pos);
                    if row.is_empty() {
                        *row = Vec::new();
                    }
                    self.len -= 1;
                } else {
                    row[pos].1 = count;
                }
            }
            Err(pos) => {
                row.insert(pos, (b, delta));
                self.len += 1;
            }
        }
    }

    /// The entry `(a, b)` (0 if absent).
    pub fn get(&self, a: VertexId, b: VertexId) -> i64 {
        self.rows
            .get(slot(a))
            .and_then(|row| {
                let pos = row.binary_search_by_key(&b, |&(n, _)| n).ok()?;
                Some(row[pos].1)
            })
            .unwrap_or(0)
    }

    /// Iterates over the non-zero entries `(b, count)` of row `a`.
    pub fn row(&self, a: VertexId) -> impl Iterator<Item = (VertexId, i64)> + '_ {
        self.rows
            .get(slot(a))
            .map_or(&[][..], Vec::as_slice)
            .iter()
            .copied()
    }

    /// Iterates over all non-zero entries `(a, b, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId, i64)> + '_ {
        self.rows.iter().enumerate().flat_map(|(i, row)| {
            let a = dense_id(i);
            row.iter().map(move |&(b, c)| (a, b, c))
        })
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the table has no non-zero entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `self` and `other` hold exactly the same non-zero entries
    /// (used by the differential tests between incremental maintenance and
    /// recomputation from the definitions).
    pub fn same_entries(&self, other: &PairTable) -> bool {
        self.len == other.len && self.iter().all(|(a, b, c)| other.get(a, b) == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_cancel_frees_the_row() {
        let mut t = PairTable::new();
        t.add(3, 2, 3);
        t.add(3, 2, -1);
        assert_eq!(t.get(3, 2), 2);
        assert_eq!(t.len(), 1);
        t.add(3, 2, -2);
        assert_eq!((t.get(3, 2), t.len()), (0, 0));
        assert!(t.is_empty());
        assert_eq!(t.rows[3].capacity(), 0);
    }

    #[test]
    fn zero_delta_allocates_nothing() {
        let mut t = PairTable::new();
        t.add(5, 6, 0);
        assert!(t.is_empty() && t.rows.is_empty());
        assert_eq!(t.get(5, 6), 0);
    }

    #[test]
    fn rows_and_entries_come_out_sorted() {
        let mut t = PairTable::new();
        t.add(1, 11, -1);
        t.add(1, 10, 2);
        t.add(0, 10, 7);
        assert_eq!(t.row(1).collect::<Vec<_>>(), vec![(10, 2), (11, -1)]);
        assert_eq!(t.row(4).count(), 0);
        let all: Vec<_> = t.iter().collect();
        assert_eq!(all, vec![(0, 10, 7), (1, 10, 2), (1, 11, -1)]);
    }

    #[test]
    fn same_entries_detects_differences() {
        let (mut a, mut b) = (PairTable::new(), PairTable::new());
        a.add(1, 2, 1);
        b.add(1, 2, 1);
        assert!(a.same_entries(&b));
        b.add(3, 4, 1);
        assert!(!a.same_entries(&b));
        a.add(3, 4, 2);
        assert!(!a.same_entries(&b));
    }
}
