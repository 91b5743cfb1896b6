//! Signed pair-count tables keyed by dense ids.
//!
//! Every data structure of Tables 2–3 stores, for pairs of vertices of two
//! layers, a signed number of 2- or 3-paths of one shape. [`PairTable`] is
//! that table for the engine's dense per-layer ids: one hash map per table
//! keyed by the pair `(a, b)` packed into a `u64`, hashed with
//! `fourcycle-graph`'s seeded folded multiply
//! ([`fourcycle_graph::SeededState`]). A probe or an edit costs one hash
//! whatever the row's length: a hub's row holds about a thousand entries on
//! a general-hubs-shaped stream, and a row kept sorted would shift the
//! entries behind each one it inserted or removed. Zero counts are removed
//! eagerly, so the map holds only non-zero entries; it keeps its capacity
//! as they come and go. Iteration order is the map's, which differs
//! between tables.

use fourcycle_graph::{SeededHashMap, VertexId};
use std::collections::hash_map::Entry;

/// The map key of the pair `(a, b)`.
fn pack(a: VertexId, b: VertexId) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

/// The pair `(a, b)` of a map key.
fn unpack(key: u64) -> (VertexId, VertexId) {
    let half = |bits: u64| VertexId::try_from(bits & u64::from(VertexId::MAX)).unwrap_or_default();
    (half(key >> 32), half(key))
}

/// A sparse signed table of counts indexed by pairs of dense ids.
#[derive(Debug, Default)]
pub struct PairTable {
    /// The non-zero count of each pair, by [`pack`]ed key.
    counts: SeededHashMap<u64, i64>,
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
        match self.counts.entry(pack(a, b)) {
            Entry::Occupied(mut entry) => {
                let count = entry.get() + delta;
                if count == 0 {
                    entry.remove();
                } else {
                    *entry.get_mut() = count;
                }
            }
            Entry::Vacant(entry) => {
                entry.insert(delta);
            }
        }
    }

    /// The entry `(a, b)` (0 if absent).
    pub fn get(&self, a: VertexId, b: VertexId) -> i64 {
        self.counts.get(&pack(a, b)).copied().unwrap_or(0)
    }

    /// Iterates over all non-zero entries `(a, b, count)`, in the map's
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, VertexId, i64)> + '_ {
        self.counts.iter().map(|(&key, &count)| {
            let (a, b) = unpack(key);
            (a, b, count)
        })
    }

    /// Number of non-zero entries.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if the table has no non-zero entry.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// `true` if `self` and `other` hold exactly the same non-zero entries
    /// (used by the differential tests between incremental maintenance and
    /// recomputation from the definitions).
    pub fn same_entries(&self, other: &PairTable) -> bool {
        self.len() == other.len() && self.iter().all(|(a, b, c)| other.get(a, b) == c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Left keys the random streams keep returning to.
    const HOT: [VertexId; 3] = [0, 7, VertexId::MAX];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random streams of adds, most of them to a few hot rows, and of
        /// cancels of stored entries, against a `BTreeMap` model.
        #[test]
        fn matches_a_btree_map_under_add_and_cancel(
            ops in collection::vec((0u8..10, 0u32..1000, 0u32..300, -3i64..4, 0usize..4096), 1..400),
        ) {
            let mut t = PairTable::new();
            let mut model: BTreeMap<(VertexId, VertexId), i64> = BTreeMap::new();
            for (kind, cold, b, delta, at) in ops {
                let (a, b, delta) = match kind {
                    0..=2 if !model.is_empty() => {
                        let (&(a, b), &count) = model.iter().nth(at % model.len()).unwrap();
                        (a, b, -count)
                    }
                    3 => (cold, b, delta),
                    _ => (HOT[at % HOT.len()], b, delta),
                };
                t.add(a, b, delta);
                let count = model.entry((a, b)).or_insert(0);
                *count += delta;
                if *count == 0 {
                    model.remove(&(a, b));
                }
                prop_assert_eq!(t.get(a, b), model.get(&(a, b)).copied().unwrap_or(0));
            }
            prop_assert_eq!((t.len(), t.is_empty()), (model.len(), model.is_empty()));
            for (&(a, b), &count) in &model {
                prop_assert_eq!(t.get(a, b), count);
            }
            for a in HOT.into_iter().chain([1, 999]) {
                for b in [300, 301, VertexId::MAX] {
                    prop_assert_eq!(t.get(a, b), 0, "({}, {}) was never added", a, b);
                }
            }
            let mut entries: Vec<_> = t.iter().collect();
            entries.sort_unstable();
            let expected: Vec<_> = model.iter().map(|(&(a, b), &c)| (a, b, c)).collect();
            prop_assert_eq!(entries, expected);
            let mut rebuilt = PairTable::new();
            for (&(a, b), &count) in model.iter().rev() {
                rebuilt.add(a, b, count);
            }
            prop_assert!(t.same_entries(&rebuilt) && rebuilt.same_entries(&t));
            rebuilt.add(HOT[0], 301, 1);
            prop_assert!(!t.same_entries(&rebuilt) && !rebuilt.same_entries(&t));
        }
    }

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
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn zero_delta_allocates_nothing() {
        let mut t = PairTable::new();
        t.add(5, 6, 0);
        assert!(t.is_empty() && t.counts.capacity() == 0);
        assert_eq!(t.get(5, 6), 0);
    }

    #[test]
    fn rows_and_entries_come_out_sorted() {
        let mut t = PairTable::new();
        t.add(1, 11, -1);
        t.add(1, 10, 2);
        t.add(0, 10, 7);
        assert_eq!((t.get(1, 10), t.get(1, 11)), (2, -1));
        assert_eq!((t.get(4, 10), t.get(10, 1)), (0, 0));
        let mut all: Vec<_> = t.iter().collect();
        all.sort_unstable();
        assert_eq!(all, vec![(0, 10, 7), (1, 10, 2), (1, 11, -1)]);
    }

    #[test]
    fn keys_at_the_ends_of_the_id_range_round_trip() {
        for (a, b) in [
            (0, 0),
            (0, VertexId::MAX),
            (VertexId::MAX, 0),
            (VertexId::MAX, 7),
        ] {
            assert_eq!(unpack(pack(a, b)), (a, b));
        }
        let mut t = PairTable::new();
        t.add(VertexId::MAX, 0, 4);
        t.add(0, VertexId::MAX, -4);
        assert_eq!((t.get(VertexId::MAX, 0), t.get(0, VertexId::MAX)), (4, -4));
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
