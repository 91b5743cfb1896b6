//! One relation's phase-tagged adjacency (§5.1, §3.3), stored once.
//!
//! A relation is split into an *old* and a *new* signed multiset, and the
//! current graph is their sum. [`TaggedAdjacency`] keeps each ordered pair
//! as one entry `(neighbor, [old, new])` in a forward row (by left vertex)
//! and a backward row (by right vertex). Vertices are the engine's dense
//! per-layer ids, so a side is a `Vec` of rows indexed by id, and each row
//! is sorted by neighbor id:
//!
//! * the pair's total is `old + new`;
//! * an entry whose two weights are both 0 is removed, but one whose total
//!   is 0 stays (an old insert cancelled by a new delete still counts in
//!   the phase-split tables);
//! * each row counts its entries with a non-zero total, so total degrees
//!   are O(1).
//!
//! A *symmetric* adjacency (`TaggedAdjacency<true>`) holds §8's
//! general graph, whose relation is its own transpose: a pair `{a, b}` is
//! one entry in row `a` and one in row `b`, both sides read the same rows,
//! and every edit writes both orientations.
//!
//! [`TaggedView`] reads the total, old or new weights through the methods
//! of a signed bipartite adjacency, skipping pairs whose weight in the view
//! is 0. Weights are `i32`: a pair's events alternate insert and delete, so
//! at rest its old weight is 0 or 1 and its new weight −1, 0 or 1.

use super::state::Tag;
use super::{dense_id, slot};
use fourcycle_graph::VertexId;

/// A pair's `[old, new]` weights, indexed by [`Tag::index`].
type Weights = [i32; 2];

/// A change of a pair's `[old, new]` weights, indexed by [`Tag::index`].
pub type Delta = [i64; 2];

/// The views, in the order of [`view_index`].
const VIEWS: [Option<Tag>; 3] = [None, Some(Tag::Old), Some(Tag::New)];

/// Position of a view in [`VIEWS`] and in [`TaggedAdjacency`]'s counts.
fn view_index(tag: Option<Tag>) -> usize {
    tag.map_or(0, |t| 1 + t.index())
}

/// One vertex's entries.
#[derive(Debug, Default)]
struct Row {
    /// `(neighbor, [old, new])`, sorted by neighbor id, never `[0, 0]`.
    entries: Vec<(VertexId, Weights)>,
    /// Entries with a non-zero total: the vertex's current degree.
    degree: usize,
}

/// The rows of one side, `rows[u]` for dense id `u`.
#[derive(Debug, Default)]
struct Side {
    rows: Vec<Row>,
}

impl Side {
    fn row(&self, u: VertexId) -> Option<&Row> {
        self.rows.get(slot(u))
    }

    /// Replaces the weights of `(u, v)` by `edit` of them; returns the
    /// weights before and after.
    fn edit(
        &mut self,
        u: VertexId,
        v: VertexId,
        edit: impl FnOnce(Weights) -> Weights,
    ) -> [Weights; 2] {
        let i = slot(u);
        if i >= self.rows.len() {
            self.rows.resize_with(i + 1, Row::default);
        }
        let row = &mut self.rows[i];
        let (before, after) = match row.entries.binary_search_by_key(&v, |&(n, _)| n) {
            Ok(pos) => {
                let before = row.entries[pos].1;
                let after = edit(before);
                if after == [0, 0] {
                    row.entries.remove(pos);
                    if row.entries.is_empty() {
                        row.entries = Vec::new();
                    }
                } else {
                    row.entries[pos].1 = after;
                }
                (before, after)
            }
            Err(pos) => {
                let after = edit([0, 0]);
                if after != [0, 0] {
                    row.entries.insert(pos, (v, after));
                }
                ([0, 0], after)
            }
        };
        recount(&mut row.degree, pick(None, before), pick(None, after));
        [before, after]
    }
}

/// The weight of `w` in the view `tag` (`None`: the total).
fn pick(tag: Option<Tag>, [old, new]: Weights) -> i64 {
    pick_delta(tag, [i64::from(old), i64::from(new)])
}

/// The part of `delta` that the view `tag` sees (`None`: the total).
pub fn pick_delta(tag: Option<Tag>, [old, new]: Delta) -> i64 {
    match tag {
        None => old + new,
        Some(Tag::Old) => old,
        Some(Tag::New) => new,
    }
}

/// Keeps `count` counting non-zero weights as one goes from `was` to `is`.
fn recount(count: &mut usize, was: i64, is: i64) {
    *count = *count + usize::from(is != 0) - usize::from(was != 0);
}

/// Narrows a weight to its stored width.
#[expect(
    clippy::expect_used,
    reason = "a pair's events alternate insert and delete, so its weights stay within ±2"
)]
fn narrow(w: i64) -> i32 {
    i32::try_from(w).expect("phase-tagged weight out of i32 range")
}

/// One relation's phase-tagged adjacency: one `[old, new]` entry per pair,
/// indexed from both sides (module docs). `SYMMETRIC` selects the
/// symmetric kind at compile time, so a three-relation engine's reads pay
/// nothing for it.
#[derive(Debug, Default)]
pub struct TaggedAdjacency<const SYMMETRIC: bool = false> {
    forward: Side,
    /// Rows by right vertex; empty in a symmetric adjacency, whose forward
    /// rows serve both sides.
    backward: Side,
    /// Pairs with a non-zero weight in each of [`VIEWS`]; a symmetric
    /// adjacency counts `{a, b}` once.
    len: [usize; 3],
}

impl<const SYMMETRIC: bool> TaggedAdjacency<SYMMETRIC> {
    /// Adds `delta` to the `tag` weight of `(l, r)`, and so to its total;
    /// returns how the pair's presence changed ([`add_delta`](Self::add_delta)).
    pub fn add(&mut self, tag: Tag, l: VertexId, r: VertexId, delta: i64) -> i64 {
        let mut change = [0; 2];
        change[tag.index()] = delta;
        self.add_delta(l, r, change)
    }

    /// Moves weight `s` of `(l, r)` from its new weight to its old one; the
    /// total is unchanged.
    pub fn retag_new_to_old(&mut self, l: VertexId, r: VertexId, s: i64) {
        self.add_delta(l, r, [s, -s]);
    }

    /// Adds `delta` to the `[old, new]` weights of `(l, r)`; returns how the
    /// pair's presence changed: `1` if its total turned non-zero, `−1` if it
    /// turned 0, else `0`.
    pub fn add_delta(&mut self, l: VertexId, r: VertexId, delta: Delta) -> i64 {
        let [before, after] = self.forward.edit(l, r, |[old, new]| {
            [
                narrow(i64::from(old) + delta[0]),
                narrow(i64::from(new) + delta[1]),
            ]
        });
        let mirror = if SYMMETRIC {
            &mut self.forward
        } else {
            &mut self.backward
        };
        mirror.edit(r, l, |_| after);
        for (tag, len) in VIEWS.into_iter().zip(&mut self.len) {
            recount(len, pick(tag, before), pick(tag, after));
        }
        i64::from(pick(None, after) != 0) - i64::from(pick(None, before) != 0)
    }

    /// The rows by right vertex.
    fn backward(&self) -> &Side {
        if SYMMETRIC {
            &self.forward
        } else {
            &self.backward
        }
    }

    /// The total (`None`), old or new weights.
    pub fn view(&self, tag: Option<Tag>) -> TaggedView<'_, SYMMETRIC> {
        TaggedView { adj: self, tag }
    }
}

/// A read view of one weight of a [`TaggedAdjacency`] (the total, old or
/// new), through the methods of a signed bipartite adjacency. Pairs whose
/// weight in the view is 0 are skipped.
#[derive(Debug, Clone, Copy)]
pub struct TaggedView<'a, const SYMMETRIC: bool = false> {
    adj: &'a TaggedAdjacency<SYMMETRIC>,
    tag: Option<Tag>,
}

impl<'a, const SYMMETRIC: bool> TaggedView<'a, SYMMETRIC> {
    /// The non-zero `(neighbor, weight)` pairs of a row, in neighbor order.
    fn nonzero(self, row: Option<&'a Row>) -> impl Iterator<Item = (VertexId, i64)> + 'a {
        let entries = row.map_or(&[][..], |row| row.entries.as_slice());
        entries.iter().filter_map(move |&(n, w)| {
            let w = pick(self.tag, w);
            (w != 0).then_some((n, w))
        })
    }

    fn degree(self, row: Option<&'a Row>) -> usize {
        match self.tag {
            None => row.map_or(0, |row| row.degree),
            Some(_) => self.nonzero(row).count(),
        }
    }

    /// Weight of `(left, right)` (0 if absent).
    pub fn weight(self, left: VertexId, right: VertexId) -> i64 {
        self.adj
            .forward
            .row(left)
            .and_then(|row| {
                let pos = row.entries.binary_search_by_key(&right, |&(n, _)| n).ok()?;
                Some(pick(self.tag, row.entries[pos].1))
            })
            .unwrap_or(0)
    }

    /// Number of pairs with a non-zero weight.
    pub fn len(self) -> usize {
        self.adj.len[view_index(self.tag)]
    }

    /// `true` if no pair has a non-zero weight.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// Number of right neighbors of a left vertex (O(1) in the total view,
    /// a row scan in the tagged ones).
    pub fn degree_left(self, left: VertexId) -> usize {
        self.degree(self.adj.forward.row(left))
    }

    /// Number of left neighbors of a right vertex (as
    /// [`degree_left`](Self::degree_left)).
    pub fn degree_right(self, right: VertexId) -> usize {
        self.degree(self.adj.backward().row(right))
    }

    /// `(neighbor, weight)` pairs of a left vertex, in neighbor-id order.
    pub fn neighbors_of_left(self, left: VertexId) -> impl Iterator<Item = (VertexId, i64)> + 'a {
        self.nonzero(self.adj.forward.row(left))
    }

    /// `(neighbor, weight)` pairs of a right vertex, in neighbor-id order.
    pub fn neighbors_of_right(self, right: VertexId) -> impl Iterator<Item = (VertexId, i64)> + 'a {
        self.nonzero(self.adj.backward().row(right))
    }

    /// All `(left, right, weight)` triples.
    pub fn iter(self) -> impl Iterator<Item = (VertexId, VertexId, i64)> + 'a {
        let rows = &self.adj.forward.rows;
        rows.iter().enumerate().flat_map(move |(i, row)| {
            let left = dense_id(i);
            self.nonzero(Some(row))
                .map(move |(right, w)| (left, right, w))
        })
    }

    /// Left vertices with at least one non-zero pair.
    pub fn left_vertices(self) -> impl Iterator<Item = VertexId> + 'a {
        let rows = &self.adj.forward.rows;
        rows.iter()
            .enumerate()
            .filter(move |&(_, row)| self.nonzero(Some(row)).next().is_some())
            .map(|(i, _)| dense_id(i))
    }
}

#[cfg(test)]
mod tests {
    use super::super::state::{GraphState, Role};
    use super::*;
    use crate::engine::QRel;
    use fourcycle_graph::{BipartiteAdjacency, ClassThresholds};
    use proptest::prelude::*;

    /// Vertices per layer.
    const N: u32 = 5;

    /// The representation [`TaggedAdjacency`] replaced: one signed
    /// adjacency each for the total, old and new weights, indexed by
    /// [`view_index`].
    #[derive(Default)]
    struct ThreeCopies([BipartiteAdjacency; 3]);

    impl ThreeCopies {
        fn view(&self, tag: Option<Tag>) -> &BipartiteAdjacency {
            &self.0[view_index(tag)]
        }

        fn add(&mut self, tag: Tag, l: VertexId, r: VertexId, delta: i64) {
            self.0[view_index(Some(tag))].add(l, r, delta);
            self.0[view_index(None)].add(l, r, delta);
        }

        fn retag(&mut self, l: VertexId, r: VertexId, s: i64) {
            self.0[view_index(Some(Tag::New))].add(l, r, -s);
            self.0[view_index(Some(Tag::Old))].add(l, r, s);
        }
    }

    fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
        let mut items: Vec<T> = items.collect();
        items.sort_unstable();
        items
    }

    /// `GraphState::incident_tagged_entries` over the three copies: per
    /// adjoining relation, the old entries and then the new ones.
    fn reference_incident(
        refs: &[ThreeCopies; 3],
        role: Role,
        w: VertexId,
    ) -> Vec<(QRel, Tag, VertexId, VertexId, i64)> {
        let sides: &[(QRel, bool)] = match role {
            Role::Ep1 => &[(QRel::A, true)],
            Role::Mid2 => &[(QRel::A, false), (QRel::B, true)],
            Role::Mid3 => &[(QRel::B, false), (QRel::C, true)],
            Role::Ep4 => &[(QRel::C, false)],
        };
        let mut out = Vec::new();
        for &(rel, w_is_left) in sides {
            for tag in Tag::BOTH {
                let adj = refs[rel.index()].view(Some(tag));
                if w_is_left {
                    out.extend(adj.neighbors_of_left(w).map(|(r, x)| (rel, tag, w, r, x)));
                } else {
                    out.extend(adj.neighbors_of_right(w).map(|(l, x)| (rel, tag, l, w, x)));
                }
            }
        }
        out
    }

    /// `true` if the side holds an entry for `(u, v)`, whatever its weights.
    fn stored(side: &Side, u: VertexId, v: VertexId) -> bool {
        side.row(u)
            .is_some_and(|row| row.entries.iter().any(|&(n, _)| n == v))
    }

    fn assert_same(st: &GraphState, refs: &[ThreeCopies; 3]) {
        for rel in QRel::ALL {
            let reference = &refs[rel.index()];
            for tag in VIEWS {
                let (got, want) = (st.adj(rel, tag), reference.view(tag));
                assert_eq!(got.len(), want.len(), "{rel:?} {tag:?} len");
                assert_eq!(sorted(got.iter()), sorted(want.iter()));
                assert_eq!(sorted(got.left_vertices()), sorted(want.left_vertices()));
                for a in 0..N {
                    assert!(got.neighbors_of_left(a).eq(want.neighbors_of_left(a)));
                    assert!(got.neighbors_of_right(a).eq(want.neighbors_of_right(a)));
                    assert_eq!(got.degree_left(a), want.degree_left(a));
                    assert_eq!(got.degree_right(a), want.degree_right(a));
                    for b in 0..N {
                        assert_eq!(got.weight(a, b), want.weight(a, b));
                    }
                }
            }
            let adj = st.adj(rel, None).adj;
            for l in 0..N {
                for r in 0..N {
                    let tagged = Tag::BOTH.map(|t| reference.view(Some(t)).weight(l, r));
                    let live = tagged != [0, 0];
                    assert_eq!(
                        stored(&adj.forward, l, r),
                        live,
                        "{rel:?} ({l},{r}) {tagged:?}"
                    );
                    assert_eq!(
                        stored(&adj.backward, r, l),
                        live,
                        "{rel:?} ({l},{r}) {tagged:?}"
                    );
                }
            }
        }
        let total_len = refs.iter().map(|r| r.view(None).len()).sum::<usize>();
        assert_eq!(st.total_edges(), total_len);
        let current = QRel::ALL.into_iter().flat_map(|rel| {
            refs[rel.index()]
                .view(None)
                .iter()
                .map(move |(l, r, _)| (rel, l, r))
        });
        assert_eq!(sorted(st.current_edges().into_iter()), sorted(current));
        for role in [Role::Ep1, Role::Mid2, Role::Mid3, Role::Ep4] {
            for w in 0..N {
                assert_eq!(
                    st.incident_tagged_entries(role, w),
                    reference_incident(refs, role, w),
                    "{role:?} {w}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random valid streams: inserts of absent pairs and deletes of
        /// present ones at `Tag::New`, retags of random logged events (as
        /// a rollover does), and old inserts cancelled by new deletes.
        #[test]
        fn tagged_adjacency_matches_three_copies(
            ops in collection::vec((0u8..10, 0usize..3, 0u32..N, 0u32..N, 0usize..1024), 1..100),
        ) {
            let mut st = GraphState::new(ClassThresholds::with_delta(100, 1.0 / 24.0, 1.0 / 8.0));
            let mut refs: [ThreeCopies; 3] = Default::default();
            let mut log: Vec<(QRel, VertexId, VertexId, i64)> = Vec::new();
            for (kind, rel, l, r, at) in ops {
                let rel = QRel::ALL[rel];
                let present = refs[rel.index()].view(None).contains(l, r);
                match kind {
                    0 | 1 if !log.is_empty() => {
                        let (rel, l, r, s) = log.swap_remove(at % log.len());
                        st.retag_new_to_old(rel, l, r, s);
                        refs[rel.index()].retag(l, r, s);
                    }
                    2 if !present => {
                        for (tag, s) in [(Tag::Old, 1), (Tag::New, -1)] {
                            st.add_edge_weight(rel, tag, l, r, s);
                            refs[rel.index()].add(tag, l, r, s);
                        }
                        log.push((rel, l, r, -1));
                    }
                    _ => {
                        let s = if present { -1 } else { 1 };
                        st.add_edge_weight(rel, Tag::New, l, r, s);
                        refs[rel.index()].add(Tag::New, l, r, s);
                        log.push((rel, l, r, s));
                    }
                }
                assert_same(&st, &refs);
            }
        }
    }
}
