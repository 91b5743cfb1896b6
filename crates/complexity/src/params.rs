//! Parameter bundles and the constraint expressions of §3.4 and §4.
//!
//! Every constraint is exposed as an explicit `lhs`/`rhs` pair so that both
//! the solver ([`crate::solver`]) and the Appendix-B verifier
//! ([`crate::verify`]) evaluate *exactly the same* expressions, and so that
//! the experiment tables can print them next to the paper's numbers.

use crate::model::MmExponentModel;

/// Parameters of the main algorithm (§4): update time `O(m^{2/3−ε})`,
/// phases of `m^{1−δ}` updates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MainParams {
    /// The square matrix-multiplication exponent assumed.
    pub omega: f64,
    /// Update-time improvement exponent (Theorem 2).
    pub eps: f64,
    /// Phase-length exponent slack (the paper fixes `δ = 3ε`).
    pub delta: f64,
}

impl MainParams {
    /// The update-time exponent `2/3 − ε`.
    pub fn update_exponent(&self) -> f64 {
        2.0 / 3.0 - self.eps
    }

    /// Eq 9 as `(lhs, rhs)` with the satisfied direction `lhs ≤ rhs`:
    /// `(2ω+1)·ε + (ω−1)·2/3 ≤ 1 − δ`.
    pub fn eq9(&self) -> (f64, f64) {
        (
            (2.0 * self.omega + 1.0) * self.eps + (self.omega - 1.0) * 2.0 / 3.0,
            1.0 - self.delta,
        )
    }

    /// Eq 9 in the substituted form Appendix B uses (`δ = 3ε`):
    /// `(6ω + 12)·ε ≤ 3 − 2(ω − 1)`.
    pub fn eq9_substituted(&self) -> (f64, f64) {
        (
            (6.0 * self.omega + 12.0) * self.eps,
            3.0 - 2.0 * (self.omega - 1.0),
        )
    }

    /// Eq 10: `3ε ≤ δ`.
    pub fn eq10(&self) -> (f64, f64) {
        (3.0 * self.eps, self.delta)
    }

    /// Eq 11: `ε ≤ 1/6`.
    pub fn eq11(&self) -> (f64, f64) {
        (self.eps, 1.0 / 6.0)
    }

    /// `true` if all main-algorithm constraints hold (up to `tol`).
    pub fn feasible(&self, tol: f64) -> bool {
        [self.eq9(), self.eq10(), self.eq11()]
            .iter()
            .all(|&(lhs, rhs)| lhs <= rhs + tol)
    }
}

/// Parameters of the warm-up algorithm (§3): update time `O(m^{2/3−ε1})`,
/// chunk-local dense threshold `m^{1/3−ε2}`, given the main algorithm's `ε`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmupParams {
    /// The main algorithm's ε (the warm-up must be at least as fast, §3.4).
    pub eps: f64,
    /// Warm-up update-time improvement exponent.
    pub eps1: f64,
    /// Chunk-local dense/sparse threshold exponent slack.
    pub eps2: f64,
}

impl WarmupParams {
    /// The warm-up update-time exponent `2/3 − ε1`.
    pub fn update_exponent(&self) -> f64 {
        2.0 / 3.0 - self.eps1
    }

    /// Eq 2: `ω(1/3+ε1, 2/3−ε1, 1/3+ε1) ≤ 4/3 − 2ε1`.
    pub fn eq2<M: MmExponentModel + ?Sized>(&self, model: &M) -> (f64, f64) {
        let a = 1.0 / 3.0 + self.eps1;
        let b = 2.0 / 3.0 - self.eps1;
        (model.omega_rect(a, b, a), 4.0 / 3.0 - 2.0 * self.eps1)
    }

    /// Eq 5: `ω(2/3+2ε, 1/3−ε1+ε2, 1/3−ε1+ε2) ≤ 4/3 − 2ε1`.
    pub fn eq5<M: MmExponentModel + ?Sized>(&self, model: &M) -> (f64, f64) {
        let a = 2.0 / 3.0 + 2.0 * self.eps;
        let b = 1.0 / 3.0 - self.eps1 + self.eps2;
        (model.omega_rect(a, b, b), 4.0 / 3.0 - 2.0 * self.eps1)
    }

    /// Eq 6: `3ε1 + 2ε ≤ ε2`.
    pub fn eq6(&self) -> (f64, f64) {
        (3.0 * self.eps1 + 2.0 * self.eps, self.eps2)
    }

    /// Eq 7: `ε1 ≤ 1/6`.
    pub fn eq7(&self) -> (f64, f64) {
        (self.eps1, 1.0 / 6.0)
    }

    /// Eq 8: `ε1 − ε2 ≤ 1/3`.
    pub fn eq8(&self) -> (f64, f64) {
        (self.eps1 - self.eps2, 1.0 / 3.0)
    }

    /// `true` if all warm-up constraints hold under `model` (up to `tol`).
    pub fn feasible<M: MmExponentModel + ?Sized>(&self, model: &M, tol: f64) -> bool {
        [
            self.eq2(model),
            self.eq5(model),
            self.eq6(),
            self.eq7(),
            self.eq8(),
        ]
        .iter()
        .all(|&(lhs, rhs)| lhs <= rhs + tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{IdealModel, SquareReductionModel};
    use crate::{OMEGA_CURRENT_BEST, PAPER_EPS_CURRENT, PAPER_EPS_IDEAL};

    #[test]
    fn paper_main_params_are_feasible_current_omega() {
        let p = MainParams {
            omega: OMEGA_CURRENT_BEST,
            eps: PAPER_EPS_CURRENT,
            delta: 3.0 * PAPER_EPS_CURRENT,
        };
        assert!(p.feasible(1e-9));
        let (lhs, rhs) = p.eq9_substituted();
        // Appendix B: 0.2573206187706 ≤ 0.2573220000000003
        assert!((lhs - 0.2573206187706).abs() < 1e-9, "lhs = {lhs}");
        assert!((rhs - 0.2573220000000003).abs() < 1e-9, "rhs = {rhs}");
    }

    #[test]
    fn paper_main_params_are_tight_for_ideal_omega() {
        let p = MainParams {
            omega: 2.0,
            eps: PAPER_EPS_IDEAL,
            delta: 1.0 / 8.0,
        };
        assert!(p.feasible(1e-12));
        let (lhs, rhs) = p.eq9();
        assert!((lhs - 7.0 / 8.0).abs() < 1e-12);
        assert!((rhs - 7.0 / 8.0).abs() < 1e-12);
        assert!((p.update_exponent() - 0.625).abs() < 1e-12);
    }

    #[test]
    fn infeasible_when_eps_too_large() {
        let p = MainParams {
            omega: OMEGA_CURRENT_BEST,
            eps: 0.02,
            delta: 0.06,
        };
        assert!(!p.feasible(1e-9));
    }

    #[test]
    fn warmup_ideal_parameters_are_tight() {
        let w = WarmupParams {
            eps: 1.0 / 24.0,
            eps1: 1.0 / 24.0,
            eps2: 5.0 / 24.0,
        };
        assert!(w.feasible(&IdealModel, 1e-12));
        // Appendix B: ω(2/3+2ε, ·, ·) + 2ε1 = 4/3, i.e. Eq 5 holds with
        // equality (lhs = rhs = 1.25) at the ideal parameters.
        let (lhs, rhs) = w.eq5(&IdealModel);
        assert!((lhs - 1.25).abs() < 1e-12, "lhs = {lhs}");
        assert!(
            (lhs - rhs).abs() < 1e-12,
            "Eq 5 is tight at the ideal parameters"
        );
    }

    #[test]
    fn warmup_eq6_binding_form() {
        let w = WarmupParams {
            eps: 0.01,
            eps1: 0.03,
            eps2: 0.11,
        };
        let (lhs, rhs) = w.eq6();
        assert!((lhs - 0.11).abs() < 1e-12);
        assert!((rhs - 0.11).abs() < 1e-12);
    }

    #[test]
    fn warmup_square_reduction_model_rejects_paper_eps1() {
        // With only the blocking reduction for rectangular products the
        // paper's ε1 (which relies on sharper rectangular bounds) violates
        // Eq 5 — the gap the `model` module docs describe.
        let w = WarmupParams {
            eps: PAPER_EPS_CURRENT,
            eps1: crate::PAPER_EPS1_CURRENT,
            eps2: crate::PAPER_EPS2_CURRENT,
        };
        let model = SquareReductionModel::new(OMEGA_CURRENT_BEST);
        let (lhs, rhs) = w.eq5(&model);
        assert!(
            lhs > rhs,
            "blocking reduction is weaker than the paper's rectangular bounds"
        );
    }
}
