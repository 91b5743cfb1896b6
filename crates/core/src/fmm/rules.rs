//! The data structures of the main algorithm (Tables 2–3, Eq 12–18) and
//! their maintenance rules.
//!
//! Every structure is a signed [`PairTable`]; every rule follows the
//! same template: *given one signed, phase-tagged edge event, add (sign ×)
//! the number of pattern completions formed with the other edges currently
//! present*, where "present" means the relevant tagged multiset and the class
//! filters use the currently stored vertex classes. Because each pattern uses
//! at most one edge per relation, a configuration is accounted exactly once —
//! when the last of its edges is processed — independent of the order in
//! which rule application and adjacency mutation are interleaved for a single
//! event (multilinearity), which is what makes the same rules reusable for
//! live updates, phase rollovers, class transitions and era rebuilds.
//!
//! # Tag-free and phase-split tables
//!
//! The *tag-free* tables read only the total adjacency, the stored classes
//! and other tag-free tables, so an event's phase tag never reaches them.
//! The *phase-split* tables read the old/new multisets. A phase rollover
//! re-tags each leaving event: `−s@new`, then `+s@old`, with the total
//! adjacency and the classes unchanged. On a tag-free table the two halves
//! of one re-tag cancel exactly, because both read the same values: the
//! total adjacency does not move, and the tables `ts3`/`st3` read (`bc_s`,
//! `bc_t` on `A` events, `ab_s`, `ab_t` on `C` events) are written by no
//! event of the same relation. [`Structures::retag`] therefore runs only the
//! phase-split rules; every other path runs both halves
//! ([`Structures::apply`]).
//!
//! # Symmetric structures
//!
//! In §8's layered copy of a general graph `A = B = C`, and every B·C-side
//! table is the transpose of an A·B-side one. A symmetric engine
//! (`Structures<true>`) stores only the A·B side and the
//! self-symmetric tables, and reads the rest through the `*_at` methods:
//!
//! * `bc_s` is `ab_s` and `bc_t` is `ab_t`;
//! * `bc_dh` is `ab_hdᵀ`, `bc_dm` is `ab_mdᵀ`, `t3_hm` is `t3_mhᵀ` and
//!   `st3` is `ts3ᵀ`;
//! * `bc_sh[q][r]` is `ab_hs[r][q]ᵀ`, and `hss3[p][q][r]` for `p > r` is
//!   `hss3[r][q][p]ᵀ`.
//!
//! Its rules skip every write to an aliased table. [`Structures::pair`]
//! takes one change of a general pair `{a, b}` through the rules of its six
//! layered copies in the order a three-relation engine would see them
//! (`A`, then `B`, then `C`), writing the one adjacency between the `A` and
//! `B` events, so that `A` events read the graph without the change and
//! `C` events with it. A `B` event must see the change in `A` but not in
//! `C`: its reads of `C` hide the pair's own entry `(y, x)`. A symmetric
//! rollover re-tags a pair through it with [`Rules::PhaseSplit`]: the
//! tag-free tables depend only on the total adjacency and the classes,
//! which a re-tag leaves as they were.
//!
//! Structure inventory (notation as in the paper; `∗` = any class):
//!
//! | Field | Structure | Paper | Kind |
//! |---|---|---|---|
//! | `ab_s`, `bc_s` | `A^{∗S}·B^{S∗}`, `B^{∗S}·C^{S∗}` | Eq 12 | tag-free |
//! | `ab_t`, `bc_t` | `A^{∗T}·B^{T∗}`, `B^{∗T}·C^{T∗}` | Eq 16 | tag-free |
//! | `ab_hd`, `ab_md`, `bc_dh`, `bc_dm` | `A^{HD}·B^{DD}`, `A^{MD}·B^{DD}`, `B^{DD}·C^{DH}`, `B^{DD}·C^{DM}` | Eq 14 | tag-free |
//! | `t3_hh`, `t3_mh`, `t3_hm` | `A^{HT}·B^{TT}·C^{TH}`, `A^{MT}·B^{TT}·C^{TH}`, `A^{HT}·B^{TT}·C^{TM}` | Eq 17 | tag-free |
//! | `ts3`, `st3` | `A^{HT}·B^{TS}·C^{SH}`, `A^{HS}·B^{ST}·C^{TH}` | Eq 18 | tag-free |
//! | `abd_oo`, `abd_no` | `A^{∗D}_{old}·B^{DD}_{old}`, `A^{∗D}_{new}·B^{DD}_{old}` | old-phase product, Eq 13 | phase-split |
//! | `ab_hs[p][q]`, `bc_sh[q][r]` | `A^{HS}_p·B^{SS}_q`, `B^{SS}_q·C^{SH}_r` | auxiliaries for Eq 15 (Claim 5.6) | phase-split |
//! | `hss3[p][q][r]` | `A^{HS}_p·B^{SS}_q·C^{SH}_r`, all eight phase combinations | Eq 15 + old-phase product + `A_old·B_new·C_old` | phase-split |

use super::state::{GraphState, Tag};
use super::table::PairTable;
use super::tagged::{pick_delta, Delta};
use crate::engine::QRel;
use fourcycle_graph::{EndpointClass, MiddleClass, VertexId};

/// The rules an event runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rules {
    /// Every rule: a live update, a class transition or an era rebuild.
    All,
    /// Only the phase-split rules: one half of a rollover's re-tag (module
    /// docs).
    PhaseSplit,
}

/// All maintained pair-count structures of the main engine.
/// `SYMMETRIC` selects the symmetric kind (module docs) at compile time.
pub struct Structures<const SYMMETRIC: bool = false> {
    /// `A^{∗S}·B^{S∗}` — wedges through Sparse `L2`, keyed `(u ∈ L1, y ∈ L3)`.
    pub ab_s: PairTable,
    /// `B^{∗S}·C^{S∗}` — wedges through Sparse `L3`, keyed `(x ∈ L2, v ∈ L4)`.
    pub bc_s: PairTable,
    /// `A^{∗T}·B^{T∗}` — wedges through Tiny `L2`.
    pub ab_t: PairTable,
    /// `B^{∗T}·C^{T∗}` — wedges through Tiny `L3`.
    pub bc_t: PairTable,
    /// `A^{HD}·B^{DD}` — wedges through Dense `L2` to Dense `L3`, High `L1` rows.
    pub ab_hd: PairTable,
    /// `A^{MD}·B^{DD}` — Medium `L1` rows.
    pub ab_md: PairTable,
    /// `B^{DD}·C^{DH}` — Dense wedges to High `L4`.
    pub bc_dh: PairTable,
    /// `B^{DD}·C^{DM}` — Dense wedges to Medium `L4`.
    pub bc_dm: PairTable,
    /// `A^{HT}·B^{TT}·C^{TH}`.
    pub t3_hh: PairTable,
    /// `A^{MT}·B^{TT}·C^{TH}`.
    pub t3_mh: PairTable,
    /// `A^{HT}·B^{TT}·C^{TM}`.
    pub t3_hm: PairTable,
    /// `A^{HT}·B^{TS}·C^{SH}`.
    pub ts3: PairTable,
    /// `A^{HS}·B^{ST}·C^{TH}`.
    pub st3: PairTable,
    /// `A^{∗D}_{old}·B^{DD}_{old}` — the old-phase dense product (keys `(u, y ∈ D)`).
    pub abd_oo: PairTable,
    /// `A^{∗D}_{new}·B^{DD}_{old}` (Eq 13).
    pub abd_no: PairTable,
    /// `A^{HS}_p·B^{SS}_q`, indexed `[p][q]` with 0 = old, 1 = new.
    pub ab_hs: [[PairTable; 2]; 2],
    /// `B^{SS}_q·C^{SH}_r`, indexed `[q][r]`.
    pub bc_sh: [[PairTable; 2]; 2],
    /// `A^{HS}_p·B^{SS}_q·C^{SH}_r`, indexed `[p][q][r]`.
    pub hss3: [[[PairTable; 2]; 2]; 2],
    /// Elementary operations performed by the rules.
    pub work: u64,
    /// When set, updates to `abd_oo` and `hss3[old][old][old]` — the two
    /// structures that depend only on old-phase edges and are never read by
    /// any maintenance rule — are skipped; the caller rebuilds them as matrix
    /// products immediately afterwards (the `use_fmm` rollover path). The
    /// old–old auxiliaries (`ab_hs[0][0]`, `bc_sh[0][0]`) are *not* skipped
    /// because the mixed-phase triple rules read them mid-replay.
    pub skip_pure_old: bool,
}

impl Structures {
    /// Creates empty structures.
    pub fn new() -> Self {
        Self::empty()
    }
}

impl<const SYMMETRIC: bool> Structures<SYMMETRIC> {
    /// Empty structures; a symmetric engine's aliased tables stay empty
    /// (module docs).
    pub fn empty() -> Self {
        Self {
            ab_s: PairTable::new(),
            bc_s: PairTable::new(),
            ab_t: PairTable::new(),
            bc_t: PairTable::new(),
            ab_hd: PairTable::new(),
            ab_md: PairTable::new(),
            bc_dh: PairTable::new(),
            bc_dm: PairTable::new(),
            t3_hh: PairTable::new(),
            t3_mh: PairTable::new(),
            t3_hm: PairTable::new(),
            ts3: PairTable::new(),
            st3: PairTable::new(),
            abd_oo: PairTable::new(),
            abd_no: PairTable::new(),
            ab_hs: Default::default(),
            bc_sh: Default::default(),
            hss3: Default::default(),
            work: 0,
            skip_pure_old: false,
        }
    }

    /// `B^{∗S}·C^{S∗}` at `(x, v)`.
    pub fn bc_s_at(&self, x: VertexId, v: VertexId) -> i64 {
        if SYMMETRIC {
            self.ab_s.get(x, v)
        } else {
            self.bc_s.get(x, v)
        }
    }

    /// `B^{∗T}·C^{T∗}` at `(x, v)`.
    pub fn bc_t_at(&self, x: VertexId, v: VertexId) -> i64 {
        if SYMMETRIC {
            self.ab_t.get(x, v)
        } else {
            self.bc_t.get(x, v)
        }
    }

    /// `B^{DD}·C^{DH}` at `(x, v)`.
    pub fn bc_dh_at(&self, x: VertexId, v: VertexId) -> i64 {
        if SYMMETRIC {
            self.ab_hd.get(v, x)
        } else {
            self.bc_dh.get(x, v)
        }
    }

    /// `B^{DD}·C^{DM}` at `(x, v)`.
    pub fn bc_dm_at(&self, x: VertexId, v: VertexId) -> i64 {
        if SYMMETRIC {
            self.ab_md.get(v, x)
        } else {
            self.bc_dm.get(x, v)
        }
    }

    /// `A^{HT}·B^{TT}·C^{TM}` at `(u, v)`.
    pub fn t3_hm_at(&self, u: VertexId, v: VertexId) -> i64 {
        if SYMMETRIC {
            self.t3_mh.get(v, u)
        } else {
            self.t3_hm.get(u, v)
        }
    }

    /// `A^{HS}·B^{ST}·C^{TH}` at `(u, v)`.
    pub fn st3_at(&self, u: VertexId, v: VertexId) -> i64 {
        if SYMMETRIC {
            self.ts3.get(v, u)
        } else {
            self.st3.get(u, v)
        }
    }

    /// `B^{SS}_q·C^{SH}_r` at `(x, v)`.
    pub fn bc_sh_at(&self, [q, r]: [usize; 2], x: VertexId, v: VertexId) -> i64 {
        if SYMMETRIC {
            self.ab_hs[r][q].get(v, x)
        } else {
            self.bc_sh[q][r].get(x, v)
        }
    }

    /// `A^{HS}_p·B^{SS}_q·C^{SH}_r` at `(u, v)`.
    pub fn hss3_at(&self, [p, q, r]: [usize; 3], u: VertexId, v: VertexId) -> i64 {
        if SYMMETRIC && p > r {
            self.hss3[r][q][p].get(v, u)
        } else {
            self.hss3[p][q][r].get(u, v)
        }
    }

    /// `true` if a symmetric engine stores `hss3[p][q][r]` itself.
    fn stores_hss3(&self, p: usize, r: usize) -> bool {
        !SYMMETRIC || p <= r
    }

    /// Applies every maintenance rule, tag-free and phase-split, for one
    /// signed, tagged edge event. Does not touch adjacency; the engine owns
    /// the ordering of adjacency mutation vs rule application.
    pub fn apply(
        &mut self,
        st: &GraphState<SYMMETRIC>,
        rel: QRel,
        tag: Tag,
        l: VertexId,
        r: VertexId,
        delta: i64,
    ) {
        self.event(st, rel, [l, r], (tag, delta), Rules::All, [0; 2]);
    }

    /// Re-tags one event of weight `s` from the new window to the old one
    /// (phase rollover, §5.1): `−s@new`, then `+s@old`, through the
    /// phase-split rules only, since the tag-free tables would see the two
    /// cancel (module docs). Does not touch adjacency: call it before
    /// [`GraphState::retag_new_to_old`].
    pub fn retag(
        &mut self,
        st: &GraphState<SYMMETRIC>,
        rel: QRel,
        l: VertexId,
        r: VertexId,
        s: i64,
    ) {
        for half in [(Tag::New, -s), (Tag::Old, s)] {
            self.event(st, rel, [l, r], half, Rules::PhaseSplit, [0; 2]);
        }
    }

    /// Takes one change of the general pair `{a, b}` of a symmetric engine
    /// through the rules of its six layered copies, and writes it to the
    /// one adjacency between the `A` and `B` events (module docs). `events`
    /// are the change's non-zero `(tag, weight)` parts: one for a live
    /// update, a class transition or an era rebuild, `−s@new, +s@old` for a
    /// re-tag.
    pub fn pair(
        &mut self,
        st: &mut GraphState<SYMMETRIC>,
        [a, b]: [VertexId; 2],
        events: &[(Tag, i64)],
        rules: Rules,
    ) {
        let both = [[a, b], [b, a]];
        let mut delta: Delta = [0; 2];
        for &(tag, d) in events {
            delta[tag.index()] += d;
        }
        // The `A` rules that read a B·C-side table read its A·B-side twin,
        // which the other `A` rules and the `B` rules write: they run first.
        for &(tag, d) in events {
            for [u, x] in both {
                self.a_from_bc(st, tag, u, x, d, rules);
            }
        }
        for &(tag, d) in events {
            for [u, x] in both {
                self.a_rest(st, tag, u, x, d, rules);
            }
        }
        st.add_pair_delta(a, b, delta);
        for &event in events {
            for pair in both {
                self.event(st, QRel::B, pair, event, rules, delta);
            }
        }
        for &event in events {
            for pair in both {
                self.event(st, QRel::C, pair, event, rules, [0; 2]);
            }
        }
    }

    /// One event's rules. A `B` event's reads of `C` take `hide` off the
    /// entry `(y, x)` ([`pair`](Self::pair)).
    fn event(
        &mut self,
        st: &GraphState<SYMMETRIC>,
        rel: QRel,
        [l, r]: [VertexId; 2],
        (tag, d): (Tag, i64),
        rules: Rules,
        hide: Delta,
    ) {
        if d == 0 {
            return;
        }
        match rel {
            QRel::A => {
                self.a_from_bc(st, tag, l, r, d, rules);
                self.a_rest(st, tag, l, r, d, rules);
            }
            QRel::B => {
                if rules == Rules::All {
                    self.tag_free_b(st, l, r, d, hide);
                }
                self.phase_split_b(st, tag, l, r, d, hide);
            }
            QRel::C => {
                if rules == Rules::All {
                    self.tag_free_c(st, l, r, d);
                }
                self.phase_split_c(st, tag, l, r, d);
            }
        }
    }

    /// The `A` rules that read B·C-side tables: Eq 18 and the Eq 15
    /// triples.
    fn a_from_bc(
        &mut self,
        st: &GraphState<SYMMETRIC>,
        tag: Tag,
        u: VertexId,
        x: VertexId,
        d: i64,
        rules: Rules,
    ) {
        use EndpointClass as E;
        use MiddleClass as M;
        if st.ep1(u) != E::High {
            return;
        }
        let cx = st.mid2(x);

        // Eq 18 (Claim 6.5): iterate the High L4 set and use the stored
        // wedge tables for the completion counts.
        if rules == Rules::All && cx == M::Tiny {
            for &v in st.high_l4() {
                self.work += 1;
                let bc = self.bc_s_at(x, v);
                self.ts3.add(u, v, d * bc);
            }
        }
        if rules == Rules::All && cx == M::Sparse && !SYMMETRIC {
            for &v in st.high_l4() {
                self.work += 1;
                self.st3.add(u, v, d * self.bc_t.get(x, v));
            }
        }

        // Eq 15 triples (Claim 5.6).
        if cx == M::Sparse {
            let p = tag.index();
            for q in 0..2 {
                for r in 0..2 {
                    if (self.skip_pure_old && p == 0 && q == 0 && r == 0) || !self.stores_hss3(p, r)
                    {
                        continue;
                    }
                    // Row `x` of `bc_sh[q][r]` holds High `L4` columns
                    // only. A symmetric engine counts a probe per High
                    // vertex, a three-relation one the row's entries.
                    for &v in st.high_l4() {
                        let cnt = self.bc_sh_at([q, r], x, v);
                        if SYMMETRIC || cnt != 0 {
                            self.work += 1;
                        }
                        if cnt != 0 {
                            self.hss3[p][q][r].add(u, v, d * cnt);
                        }
                    }
                }
            }
        }
    }

    /// The other `A` rules.
    fn a_rest(
        &mut self,
        st: &GraphState<SYMMETRIC>,
        tag: Tag,
        u: VertexId,
        x: VertexId,
        d: i64,
        rules: Rules,
    ) {
        use EndpointClass as E;
        use MiddleClass as M;
        let cu = st.ep1(u);
        let cx = st.mid2(x);

        if rules == Rules::All {
            let b_total = st.adj(QRel::B, None);
            let c_total = st.adj(QRel::C, None);

            // Eq 12 / Eq 16: wedges through Sparse / Tiny L2.
            if cx == M::Sparse {
                for (y, wb) in b_total.neighbors_of_left(x) {
                    self.work += 1;
                    self.ab_s.add(u, y, d * wb);
                }
            }
            if cx == M::Tiny {
                for (y, wb) in b_total.neighbors_of_left(x) {
                    self.work += 1;
                    self.ab_t.add(u, y, d * wb);
                }
            }

            // Eq 14: dense wedges for High/Medium rows.
            if cx == M::Dense && (cu == E::High || cu == E::Medium) {
                for (y, wb) in b_total.neighbors_of_left(x) {
                    self.work += 1;
                    if st.mid3(y) == M::Dense {
                        if cu == E::High {
                            self.ab_hd.add(u, y, d * wb);
                        } else {
                            self.ab_md.add(u, y, d * wb);
                        }
                    }
                }
            }

            // Eq 17: tiny–tiny triples (direct enumeration — x is Tiny, so
            // both loops are over tiny-degree vertices).
            if cx == M::Tiny && (cu == E::High || cu == E::Medium) {
                for (y, wb) in b_total.neighbors_of_left(x) {
                    if st.mid3(y) != M::Tiny {
                        continue;
                    }
                    for (v, wc) in c_total.neighbors_of_left(y) {
                        self.work += 1;
                        match (cu, st.ep4(v)) {
                            (E::High, E::High) => self.t3_hh.add(u, v, d * wb * wc),
                            (E::Medium, E::High) => self.t3_mh.add(u, v, d * wb * wc),
                            (E::High, E::Medium) if !SYMMETRIC => self.t3_hm.add(u, v, d * wb * wc),
                            _ => {}
                        }
                    }
                }
            }
        }

        // Old-phase / Eq 13 dense products (Claim 5.4): iterate the Dense L3
        // set and check the old B edge.
        if cx == M::Dense {
            let b_old = st.adj(QRel::B, Some(Tag::Old));
            match tag {
                Tag::Old => {
                    if !self.skip_pure_old {
                        for &y in st.dense_l3() {
                            self.work += 1;
                            let wb = b_old.weight(x, y);
                            if wb != 0 {
                                self.abd_oo.add(u, y, d * wb);
                            }
                        }
                    }
                }
                Tag::New => {
                    for &y in st.dense_l3() {
                        self.work += 1;
                        let wb = b_old.weight(x, y);
                        if wb != 0 {
                            self.abd_no.add(u, y, d * wb);
                        }
                    }
                }
            }
        }

        // Eq 15 auxiliaries (Claim 5.6).
        if cu == E::High && cx == M::Sparse {
            let p = tag.index();
            for q_tag in Tag::BOTH {
                let q = q_tag.index();
                let b_q = st.adj(QRel::B, Some(q_tag));
                for (y, wb) in b_q.neighbors_of_left(x) {
                    self.work += 1;
                    if st.mid3(y) == M::Sparse {
                        self.ab_hs[p][q].add(u, y, d * wb);
                    }
                }
            }
        }
    }

    fn tag_free_b(
        &mut self,
        st: &GraphState<SYMMETRIC>,
        x: VertexId,
        y: VertexId,
        d: i64,
        hide: Delta,
    ) {
        use EndpointClass as E;
        use MiddleClass as M;
        let cx = st.mid2(x);
        let cy = st.mid3(y);
        let a_total = st.adj(QRel::A, None);
        let c_total = st.adj(QRel::C, None);
        // The total weight of `(y, x)` this event must not see in `C`.
        let hidden = pick_delta(None, hide);

        // Eq 12 / Eq 16.
        if cx == M::Sparse {
            for (u, wa) in a_total.neighbors_of_right(x) {
                self.work += 1;
                self.ab_s.add(u, y, d * wa);
            }
        }
        if cx == M::Tiny {
            for (u, wa) in a_total.neighbors_of_right(x) {
                self.work += 1;
                self.ab_t.add(u, y, d * wa);
            }
        }
        if cy == M::Sparse && !SYMMETRIC {
            for (v, wc) in c_total.neighbors_of_left(y) {
                self.work += 1;
                self.bc_s.add(x, v, d * wc);
            }
        }
        if cy == M::Tiny && !SYMMETRIC {
            for (v, wc) in c_total.neighbors_of_left(y) {
                self.work += 1;
                self.bc_t.add(x, v, d * wc);
            }
        }

        // Eq 14.
        if cx == M::Dense && cy == M::Dense {
            for (u, wa) in a_total.neighbors_of_right(x) {
                self.work += 1;
                match st.ep1(u) {
                    E::High => self.ab_hd.add(u, y, d * wa),
                    E::Medium => self.ab_md.add(u, y, d * wa),
                    _ => {}
                }
            }
            if !SYMMETRIC {
                for (v, wc) in c_total.neighbors_of_left(y) {
                    self.work += 1;
                    match st.ep4(v) {
                        E::High => self.bc_dh.add(x, v, d * wc),
                        E::Medium => self.bc_dm.add(x, v, d * wc),
                        _ => {}
                    }
                }
            }
        }

        // Eq 17: tiny–tiny triples. `C`'s row `y` is read with `hidden`
        // taken off its entry `x`, which it may lack.
        if cx == M::Tiny && cy == M::Tiny {
            let lacks_x = (hidden != 0 && c_total.weight(y, x) == 0).then_some((x, 0));
            for (u, wa) in a_total.neighbors_of_right(x) {
                for (v, wc) in c_total.neighbors_of_left(y).chain(lacks_x) {
                    let wc = if v == x { wc - hidden } else { wc };
                    if wc == 0 {
                        continue;
                    }
                    self.work += 1;
                    match (st.ep1(u), st.ep4(v)) {
                        (E::High, E::High) => self.t3_hh.add(u, v, d * wa * wc),
                        (E::Medium, E::High) => self.t3_mh.add(u, v, d * wa * wc),
                        (E::High, E::Medium) if !SYMMETRIC => self.t3_hm.add(u, v, d * wa * wc),
                        _ => {}
                    }
                }
            }
        }

        // Eq 18.
        if cx == M::Tiny && cy == M::Sparse {
            for (u, wa) in a_total.neighbors_of_right(x) {
                if st.ep1(u) != E::High {
                    continue;
                }
                for &v in st.high_l4() {
                    self.work += 1;
                    let wc = c_total.weight(y, v) - if v == x { hidden } else { 0 };
                    if wc != 0 {
                        self.ts3.add(u, v, d * wa * wc);
                    }
                }
            }
        }
        if cx == M::Sparse && cy == M::Tiny && !SYMMETRIC {
            for (v, wc) in c_total.neighbors_of_left(y) {
                if st.ep4(v) != E::High {
                    continue;
                }
                for &u in st.high_l1() {
                    self.work += 1;
                    let wa = a_total.weight(u, x);
                    if wa != 0 {
                        self.st3.add(u, v, d * wa * wc);
                    }
                }
            }
        }
    }

    fn phase_split_b(
        &mut self,
        st: &GraphState<SYMMETRIC>,
        tag: Tag,
        x: VertexId,
        y: VertexId,
        d: i64,
        hide: Delta,
    ) {
        use EndpointClass as E;
        use MiddleClass as M;
        let cx = st.mid2(x);
        let cy = st.mid3(y);

        // Old-phase dense products: a B event only matters when it is
        // accounted to the old window.
        if cx == M::Dense && cy == M::Dense && tag == Tag::Old {
            if !self.skip_pure_old {
                for (u, wa) in st.adj(QRel::A, Some(Tag::Old)).neighbors_of_right(x) {
                    self.work += 1;
                    self.abd_oo.add(u, y, d * wa);
                }
            }
            for (u, wa) in st.adj(QRel::A, Some(Tag::New)).neighbors_of_right(x) {
                self.work += 1;
                self.abd_no.add(u, y, d * wa);
            }
        }

        // Eq 15 auxiliaries and triples.
        if cx == M::Sparse && cy == M::Sparse {
            let q = tag.index();
            for p_tag in Tag::BOTH {
                let p = p_tag.index();
                for (u, wa) in st.adj(QRel::A, Some(p_tag)).neighbors_of_right(x) {
                    self.work += 1;
                    if st.ep1(u) == E::High {
                        self.ab_hs[p][q].add(u, y, d * wa);
                    }
                }
            }
            if !SYMMETRIC {
                for r_tag in Tag::BOTH {
                    let r = r_tag.index();
                    for (v, wc) in st.adj(QRel::C, Some(r_tag)).neighbors_of_left(y) {
                        self.work += 1;
                        if st.ep4(v) == E::High {
                            self.bc_sh[q][r].add(x, v, d * wc);
                        }
                    }
                }
            }
            // Triples: the pairs of High endpoints reachable through the two
            // adjacent edges, per phase tag of each side.
            let mut us: [Vec<(VertexId, i64)>; 2] = [Vec::new(), Vec::new()];
            let mut vs: [Vec<(VertexId, i64)>; 2] = [Vec::new(), Vec::new()];
            for p_tag in Tag::BOTH {
                let a_p = st.adj(QRel::A, Some(p_tag));
                us[p_tag.index()] = st
                    .high_l1()
                    .iter()
                    .filter_map(|&u| {
                        let w = a_p.weight(u, x);
                        (w != 0).then_some((u, w))
                    })
                    .collect();
                let c_p = st.adj(QRel::C, Some(p_tag));
                let hidden = pick_delta(Some(p_tag), hide);
                vs[p_tag.index()] = st
                    .high_l4()
                    .iter()
                    .filter_map(|&v| {
                        let w = c_p.weight(y, v) - if v == x { hidden } else { 0 };
                        (w != 0).then_some((v, w))
                    })
                    .collect();
            }
            let high = u64::try_from(st.high_l1().len() + st.high_l4().len()).unwrap_or(u64::MAX);
            self.work += 2 * high;
            for (p, us_p) in us.iter().enumerate() {
                for (r, vs_r) in vs.iter().enumerate() {
                    if (self.skip_pure_old && p == 0 && q == 0 && r == 0) || !self.stores_hss3(p, r)
                    {
                        continue;
                    }
                    for &(u, wa) in us_p {
                        for &(v, wc) in vs_r {
                            self.work += 1;
                            self.hss3[p][q][r].add(u, v, d * wa * wc);
                        }
                    }
                }
            }
        }
    }

    fn tag_free_c(&mut self, st: &GraphState<SYMMETRIC>, y: VertexId, v: VertexId, d: i64) {
        use EndpointClass as E;
        use MiddleClass as M;
        let cy = st.mid3(y);
        let cv = st.ep4(v);
        let a_total = st.adj(QRel::A, None);
        let b_total = st.adj(QRel::B, None);

        if !SYMMETRIC {
            // Eq 12 / Eq 16.
            if cy == M::Sparse {
                for (x, wb) in b_total.neighbors_of_right(y) {
                    self.work += 1;
                    self.bc_s.add(x, v, d * wb);
                }
            }
            if cy == M::Tiny {
                for (x, wb) in b_total.neighbors_of_right(y) {
                    self.work += 1;
                    self.bc_t.add(x, v, d * wb);
                }
            }

            // Eq 14.
            if cy == M::Dense && (cv == E::High || cv == E::Medium) {
                for (x, wb) in b_total.neighbors_of_right(y) {
                    self.work += 1;
                    if st.mid2(x) == M::Dense {
                        if cv == E::High {
                            self.bc_dh.add(x, v, d * wb);
                        } else {
                            self.bc_dm.add(x, v, d * wb);
                        }
                    }
                }
            }
        }

        // Eq 17: direct enumeration through the tiny middles. A Medium `v`
        // only feeds `t3_hm`, which a symmetric engine does not store.
        if cy == M::Tiny && (cv == E::High || (cv == E::Medium && !SYMMETRIC)) {
            for (x, wb) in b_total.neighbors_of_right(y) {
                if st.mid2(x) != M::Tiny {
                    continue;
                }
                for (u, wa) in a_total.neighbors_of_right(x) {
                    self.work += 1;
                    match (st.ep1(u), cv) {
                        (E::High, E::High) => self.t3_hh.add(u, v, d * wa * wb),
                        (E::Medium, E::High) => self.t3_mh.add(u, v, d * wa * wb),
                        (E::High, E::Medium) => self.t3_hm.add(u, v, d * wa * wb),
                        _ => {}
                    }
                }
            }
        }

        // Eq 18.
        if cy == M::Sparse && cv == E::High {
            for &u in st.high_l1() {
                self.work += 1;
                self.ts3.add(u, v, d * self.ab_t.get(u, y));
            }
        }
        if cy == M::Tiny && cv == E::High && !SYMMETRIC {
            for &u in st.high_l1() {
                self.work += 1;
                self.st3.add(u, v, d * self.ab_s.get(u, y));
            }
        }
    }

    fn phase_split_c(
        &mut self,
        st: &GraphState<SYMMETRIC>,
        tag: Tag,
        y: VertexId,
        v: VertexId,
        d: i64,
    ) {
        use EndpointClass as E;
        use MiddleClass as M;

        // Eq 15 auxiliaries and triples.
        if st.mid3(y) == M::Sparse && st.ep4(v) == E::High {
            let r = tag.index();
            if !SYMMETRIC {
                for q_tag in Tag::BOTH {
                    let q = q_tag.index();
                    for (x, wb) in st.adj(QRel::B, Some(q_tag)).neighbors_of_right(y) {
                        self.work += 1;
                        if st.mid2(x) == M::Sparse {
                            self.bc_sh[q][r].add(x, v, d * wb);
                        }
                    }
                }
            }
            for p in 0..2 {
                for q in 0..2 {
                    if (self.skip_pure_old && p == 0 && q == 0 && r == 0) || !self.stores_hss3(p, r)
                    {
                        continue;
                    }
                    for &u in st.high_l1() {
                        self.work += 1;
                        let cnt = self.ab_hs[p][q].get(u, y);
                        if cnt != 0 {
                            self.hss3[p][q][r].add(u, v, d * cnt);
                        }
                    }
                }
            }
        }
    }
}

impl<const SYMMETRIC: bool> Default for Structures<SYMMETRIC> {
    fn default() -> Self {
        Self::empty()
    }
}
