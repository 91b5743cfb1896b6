//! Query answering for the main engine (§5.3, §6.2, §6.3).
//!
//! A query `(u ∈ L1, v ∈ L4)` asks for the number of 3-paths
//! `u –A– x –B– y –C– v`. The answer is assembled as a sum over the middle
//! classes `(class(x), class(y)) ∈ {Tiny, Sparse, Dense}²`, with the
//! mechanism for each term chosen by the endpoint classes exactly as in the
//! paper's case analysis:
//!
//! * a Tiny endpoint is handled by §6.2 (its neighborhood is small enough to
//!   enumerate);
//! * paths through Tiny middles are handled by §6.3;
//! * Dense middles are resolved by iterating the (small) Dense sets and the
//!   Eq 14 tables;
//! * Sparse–Sparse middles use the Eq 12 tables when an endpoint is Medium or
//!   Low, and the phase-split Eq 15 family when both endpoints are High;
//! * Dense–Dense middles for two Low endpoints use the old-phase product /
//!   Eq 13 tables for old `B`-edges and a restricted pair enumeration for
//!   new `B`-edges (Cases 1–4 of Claim 5.9).
//!
//! Every branch adds each path exactly once; the differential tests against
//! the enumeration oracle cover all endpoint-class combinations. B·C-side
//! tables are read through [`Structures`](super::rules::Structures)' `*_at` methods, so a symmetric
//! engine answers from their A·B-side twins.

use super::state::Tag;
use super::FmmEngine;
use crate::engine::QRel;
use fourcycle_graph::{EndpointClass as E, MiddleClass as M, VertexId};

impl<const SYMMETRIC: bool> FmmEngine<SYMMETRIC> {
    /// Full query implementation (see module docs).
    pub(crate) fn query_impl(&mut self, u: VertexId, v: VertexId) -> i64 {
        let mut work = 0u64;
        let total = {
            let st = &self.state;
            let s = &self.structs;
            let eu = st.ep1(u);
            let ev = st.ep4(v);

            let a_total = st.adj(QRel::A, None);
            let b_total = st.adj(QRel::B, None);
            let b_new = st.adj(QRel::B, Some(Tag::New));
            let c_total = st.adj(QRel::C, None);

            let mut total = 0i64;

            if eu == E::Tiny || ev == E::Tiny {
                // ---- §6.2: at least one Tiny endpoint -------------------
                let other_small =
                    (eu == E::Tiny || eu == E::Low) && (ev == E::Tiny || ev == E::Low);
                if other_small {
                    // Case TT / TL: enumerate both (small) neighborhoods.
                    for (x, wa) in a_total.neighbors_of_left(u) {
                        for (y, wc) in c_total.neighbors_of_right(v) {
                            work += 1;
                            total += wa * wc * b_total.weight(x, y);
                        }
                    }
                } else if eu == E::Tiny {
                    // Case TM / TH: u's neighborhood is tiny; split by the
                    // class of the L3 middle.
                    for (x, wa) in a_total.neighbors_of_left(u) {
                        for &y in st.dense_l3() {
                            work += 1;
                            let wb = b_total.weight(x, y);
                            if wb != 0 {
                                total += wa * wb * c_total.weight(y, v);
                            }
                        }
                        work += 2;
                        total += wa * (s.bc_s_at(x, v) + s.bc_t_at(x, v));
                    }
                } else {
                    // Mirror: v is Tiny, u is Medium/High.
                    for (y, wc) in c_total.neighbors_of_right(v) {
                        for &x in st.dense_l2() {
                            work += 1;
                            let wb = b_total.weight(x, y);
                            if wb != 0 {
                                total += wc * wb * a_total.weight(u, x);
                            }
                        }
                        work += 2;
                        total += wc * (s.ab_s.get(u, y) + s.ab_t.get(u, y));
                    }
                }
                self.query_work += work;
                return total;
            }

            // ---- §6.3: paths through Tiny middles (both endpoints non-Tiny).
            match (eu, ev) {
                (E::High, E::High) => {
                    work += 3;
                    total += s.t3_hh.get(u, v) + s.ts3.get(u, v) + s.st3_at(u, v);
                    for &y in st.dense_l3() {
                        work += 1;
                        let wc = c_total.weight(y, v);
                        if wc != 0 {
                            total += wc * s.ab_t.get(u, y); // (Tiny, Dense)
                        }
                    }
                    for &x in st.dense_l2() {
                        work += 1;
                        let wa = a_total.weight(u, x);
                        if wa != 0 {
                            total += wa * s.bc_t_at(x, v); // (Dense, Tiny)
                        }
                    }
                }
                (E::High, E::Medium) => {
                    work += 1;
                    total += s.t3_hm_at(u, v);
                    for &y in st.dense_l3() {
                        work += 1;
                        let wc = c_total.weight(y, v);
                        if wc != 0 {
                            total += wc * s.ab_t.get(u, y);
                        }
                    }
                    for &x in st.dense_l2() {
                        work += 1;
                        let wa = a_total.weight(u, x);
                        if wa != 0 {
                            total += wa * s.bc_t_at(x, v);
                        }
                    }
                    for (y, wc) in c_total.neighbors_of_right(v) {
                        work += 1;
                        match st.mid3(y) {
                            M::Sparse => total += wc * s.ab_t.get(u, y), // (T, S)
                            M::Tiny => total += wc * s.ab_s.get(u, y),   // (S, T)
                            M::Dense => {}
                        }
                    }
                }
                (E::Medium, E::High) => {
                    work += 1;
                    total += s.t3_mh.get(u, v);
                    for &y in st.dense_l3() {
                        work += 1;
                        let wc = c_total.weight(y, v);
                        if wc != 0 {
                            total += wc * s.ab_t.get(u, y);
                        }
                    }
                    for &x in st.dense_l2() {
                        work += 1;
                        let wa = a_total.weight(u, x);
                        if wa != 0 {
                            total += wa * s.bc_t_at(x, v);
                        }
                    }
                    for (x, wa) in a_total.neighbors_of_left(u) {
                        work += 1;
                        match st.mid2(x) {
                            M::Sparse => total += wa * s.bc_t_at(x, v), // (S, T)
                            M::Tiny => total += wa * s.bc_s_at(x, v),   // (T, S)
                            M::Dense => {}
                        }
                    }
                }
                (E::High, E::Low) => {
                    // (·, Tiny): enumerate tiny L3 neighbors of v and their
                    // (tiny-degree) B-neighbors back towards u.
                    for (y, wc) in c_total.neighbors_of_right(v) {
                        if st.mid3(y) == M::Tiny {
                            for (x, wb) in b_total.neighbors_of_right(y) {
                                work += 1;
                                total += wc * wb * a_total.weight(u, x);
                            }
                        } else {
                            work += 1;
                            total += wc * s.ab_t.get(u, y); // (Tiny, non-Tiny)
                        }
                    }
                }
                (E::Low, E::High) => {
                    for (x, wa) in a_total.neighbors_of_left(u) {
                        if st.mid2(x) == M::Tiny {
                            for (y, wb) in b_total.neighbors_of_left(x) {
                                work += 1;
                                total += wa * wb * c_total.weight(y, v);
                            }
                        } else {
                            work += 1;
                            total += wa * s.bc_t_at(x, v); // (non-Tiny, Tiny)
                        }
                    }
                }
                _ => {
                    // Both endpoints in {Low, Medium}: both neighborhoods can
                    // be walked within the budget.
                    for (x, wa) in a_total.neighbors_of_left(u) {
                        work += 1;
                        total += wa * s.bc_t_at(x, v); // (·, Tiny)
                    }
                    for (y, wc) in c_total.neighbors_of_right(v) {
                        work += 1;
                        if st.mid3(y) != M::Tiny {
                            total += wc * s.ab_t.get(u, y); // (Tiny, non-Tiny)
                        }
                    }
                }
            }

            // ---- §5.3: paths through Sparse/Dense middles. ---------------
            let u_hm = eu == E::High || eu == E::Medium;
            let v_hm = ev == E::High || ev == E::Medium;
            if u_hm && v_hm {
                // Dense–Dense, Dense–Sparse, Sparse–Dense via the Dense sets.
                for &y in st.dense_l3() {
                    work += 1;
                    let wc = c_total.weight(y, v);
                    if wc != 0 {
                        let dd = if eu == E::High {
                            s.ab_hd.get(u, y)
                        } else {
                            s.ab_md.get(u, y)
                        };
                        total += wc * (dd + s.ab_s.get(u, y)); // (D,D) + (S,D)
                    }
                }
                for &x in st.dense_l2() {
                    work += 1;
                    let wa = a_total.weight(u, x);
                    if wa != 0 {
                        total += wa * s.bc_s_at(x, v); // (D,S)
                    }
                }
                // Sparse–Sparse.
                if eu == E::Medium {
                    for (x, wa) in a_total.neighbors_of_left(u) {
                        work += 1;
                        if st.mid2(x) == M::Sparse {
                            total += wa * s.bc_s_at(x, v);
                        }
                    }
                } else if ev == E::Medium {
                    for (y, wc) in c_total.neighbors_of_right(v) {
                        work += 1;
                        if st.mid3(y) == M::Sparse {
                            total += wc * s.ab_s.get(u, y);
                        }
                    }
                } else {
                    // High–High: sum over all eight phase combinations
                    // (old-phase product, Eq 15, and the A_old·B_new·C_old
                    // member; Claim 5.8).
                    for p in 0..2 {
                        for q in 0..2 {
                            for r in 0..2 {
                                work += 1;
                                total += s.hss3_at([p, q, r], u, v);
                            }
                        }
                    }
                }
            } else if u_hm {
                // (High/Medium, Low), Claim 5.9 first part.
                for (y, wc) in c_total.neighbors_of_right(v) {
                    work += 1;
                    match st.mid3(y) {
                        M::Dense => {
                            let dd = if eu == E::High {
                                s.ab_hd.get(u, y)
                            } else {
                                s.ab_md.get(u, y)
                            };
                            total += wc * (dd + s.ab_s.get(u, y)); // (D,D) + (S,D)
                        }
                        M::Sparse => total += wc * s.ab_s.get(u, y), // (S,S)
                        M::Tiny => {}
                    }
                }
                for &x in st.dense_l2() {
                    work += 1;
                    let wa = a_total.weight(u, x);
                    if wa != 0 {
                        total += wa * s.bc_s_at(x, v); // (D,S)
                    }
                }
            } else if v_hm {
                // (Low, High/Medium): mirror.
                for (x, wa) in a_total.neighbors_of_left(u) {
                    work += 1;
                    match st.mid2(x) {
                        M::Dense => {
                            let dd = if ev == E::High {
                                s.bc_dh_at(x, v)
                            } else {
                                s.bc_dm_at(x, v)
                            };
                            total += wa * (dd + s.bc_s_at(x, v)); // (D,D) + (D,S)
                        }
                        M::Sparse => total += wa * s.bc_s_at(x, v), // (S,S)
                        M::Tiny => {}
                    }
                }
                for &y in st.dense_l3() {
                    work += 1;
                    let wc = c_total.weight(y, v);
                    if wc != 0 {
                        total += wc * s.ab_s.get(u, y); // (S,D)
                    }
                }
            } else {
                // (Low, Low), Claim 5.9 second part.
                for (y, wc) in c_total.neighbors_of_right(v) {
                    work += 1;
                    if st.mid3(y) != M::Tiny {
                        total += wc * s.ab_s.get(u, y); // (S,S) + (S,D)
                    }
                }
                for (x, wa) in a_total.neighbors_of_left(u) {
                    work += 1;
                    if st.mid2(x) == M::Dense {
                        total += wa * s.bc_s_at(x, v); // (D,S)
                    }
                }
                // Dense–Dense by the phase of the B-edge:
                //  * B old (Cases 1–2): stored products A_total·B_old^{DD}
                //    = abd_oo + abd_no, combined with v's C-neighbors;
                //  * B new (Cases 3–4): enumerate the new dense–dense B-edges
                //    reachable from u's dense A-neighbors.
                for (y, wc) in c_total.neighbors_of_right(v) {
                    work += 1;
                    if st.mid3(y) == M::Dense {
                        total += wc * (s.abd_oo.get(u, y) + s.abd_no.get(u, y));
                    }
                }
                for (x, wa) in a_total.neighbors_of_left(u) {
                    if st.mid2(x) != M::Dense {
                        continue;
                    }
                    for (y, wb) in b_new.neighbors_of_left(x) {
                        work += 1;
                        if st.mid3(y) == M::Dense {
                            total += wa * wb * c_total.weight(y, v);
                        }
                    }
                }
            }
            total
        };
        self.query_work += work;
        total
    }
}
