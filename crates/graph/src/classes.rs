//! Degree classes (§4 and §6 of the paper).
//!
//! The main algorithm partitions vertices by degree:
//!
//! * `L1`, `L4` (by degree in `A`, resp. `C`):
//!   **High** (`deg ≥ m^{2/3−ε}`), **Medium** (`m^{1/3+ε} ≤ deg < m^{2/3−ε}`),
//!   **Low** (`deg < m^{1/3+ε}`), and within Low the **Tiny** vertices
//!   (`deg ≤ m^{1/3−2ε}`, §6) that are handled separately.
//! * `L2`, `L3` (by *combined* degree in `A,B`, resp. `B,C`):
//!   **Dense** (`deg ≥ m^{2/3−ε}`), **Sparse** (below), and within Sparse the
//!   **Tiny** vertices (`deg ≤ m^{1/3−2ε}`).
//!
//! The paper gives each class a factor-2 overlap band so that a transitioning
//! vertex can belong to both classes while its new data structures are being
//! built (§7). The thresholds here are the sharp boundaries. The FMM engine
//! uses the band as hysteresis: it promotes a vertex at the sharp threshold
//! but demotes it only once its degree falls below half the class's lower
//! threshold, and then rebuilds the vertex's contributions at once rather
//! than across updates (see the `fmm` module's "Deviations from the paper"
//! in `fourcycle-core`).

/// Class of an endpoint vertex (layers `L1` and `L4`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EndpointClass {
    /// Degree at most `m^{1/3−2ε}` (§6); handled by the tiny-vertex machinery.
    Tiny,
    /// Degree below `m^{1/3+ε}` (and above the tiny threshold).
    Low,
    /// Degree in `[m^{1/3+ε}, m^{2/3−ε})`.
    Medium,
    /// Degree at least `m^{2/3−ε}`.
    High,
}

/// Class of a middle vertex (layers `L2` and `L3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MiddleClass {
    /// Combined degree at most `m^{1/3−2ε}` (§6).
    Tiny,
    /// Combined degree below `m^{2/3−ε}` (and above the tiny threshold).
    Sparse,
    /// Combined degree at least `m^{2/3−ε}`.
    Dense,
}

/// `⌈m^x⌉`, the form of every degree cutoff and phase length in the paper
/// (§4, Eq 11, §5.1). The single place the engines turn `f64` powers of the
/// edge count back into sizes; callers clamp the result to their floors.
#[expect(
    clippy::as_conversions,
    reason = "m^x cutoffs are f64 math by definition; m < 2^53 converts exactly \
              and the ceil()ed power saturates into usize"
)]
pub fn ceil_pow(m: usize, x: f64) -> usize {
    (m as f64).powf(x).ceil() as usize
}

/// Concrete degree thresholds for a fixed edge-count scale `m̂` and parameter
/// `ε` (plus the phase length `m̂^{1−δ}` of §5.1).
///
/// All thresholds are clamped from below so that the classes stay
/// well-ordered even for very small graphs (where fractional powers of `m`
/// collapse to 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassThresholds {
    /// The edge-count scale `m̂` the thresholds were computed for.
    pub m_hat: usize,
    /// The update-exponent slack `ε` of Theorem 2.
    pub eps: f64,
    /// The phase-length exponent slack `δ` (the paper sets `δ = 3ε`).
    pub delta: f64,
    /// Tiny threshold: degree `≤ tiny` ⇒ Tiny (`⌈m^{1/3−2ε}⌉`).
    pub tiny: usize,
    /// Low/Medium boundary: degree `≥ medium_lo` ⇒ at least Medium
    /// (`⌈m^{1/3+ε}⌉`).
    pub medium_lo: usize,
    /// Medium/High boundary: degree `≥ high_lo` ⇒ High (`⌈m^{2/3−ε}⌉`);
    /// also the Sparse/Dense boundary for middle layers.
    pub high_lo: usize,
    /// Number of updates per phase (`⌈m^{1−δ}⌉`, §5.1).
    pub phase_len: usize,
}

impl ClassThresholds {
    /// Computes thresholds for edge scale `m_hat` using the paper's `ε` and
    /// `δ = 3ε` (Eq 10 tight).
    pub fn new(m_hat: usize, eps: f64) -> Self {
        Self::with_delta(m_hat, eps, 3.0 * eps)
    }

    /// Computes thresholds with an explicit `δ`.
    pub fn with_delta(m_hat: usize, eps: f64, delta: f64) -> Self {
        assert!(
            (0.0..=1.0 / 6.0).contains(&eps),
            "ε must lie in [0, 1/6] (Eq 11)"
        );
        assert!((0.0..1.0).contains(&delta), "δ must lie in [0, 1)");
        let m = m_hat.max(1);
        let tiny = ceil_pow(m, 1.0 / 3.0 - 2.0 * eps);
        let medium_lo = ceil_pow(m, 1.0 / 3.0 + eps).max(tiny + 1);
        let high_lo = ceil_pow(m, 2.0 / 3.0 - eps).max(medium_lo + 1);
        let phase_len = ceil_pow(m, 1.0 - delta).max(4);
        Self {
            m_hat: m_hat.max(1),
            eps,
            delta,
            tiny,
            medium_lo,
            high_lo,
            phase_len,
        }
    }

    /// Classifies an endpoint vertex (`L1`/`L4`) by its defining degree.
    pub fn endpoint_class(&self, degree: usize) -> EndpointClass {
        if degree <= self.tiny {
            EndpointClass::Tiny
        } else if degree < self.medium_lo {
            EndpointClass::Low
        } else if degree < self.high_lo {
            EndpointClass::Medium
        } else {
            EndpointClass::High
        }
    }

    /// Classifies a middle vertex (`L2`/`L3`) by its combined degree.
    pub fn middle_class(&self, degree: usize) -> MiddleClass {
        if degree <= self.tiny {
            MiddleClass::Tiny
        } else if degree < self.high_lo {
            MiddleClass::Sparse
        } else {
            MiddleClass::Dense
        }
    }

    /// `true` if the current edge count `m` has drifted far enough from the
    /// scale `m̂` that the engine should rebuild with fresh thresholds
    /// (the era rule: rebuild once `m` leaves `[m̂/2, 2m̂]`).
    pub fn needs_rebuild(&self, current_m: usize) -> bool {
        let current = current_m.max(1);
        current * 2 < self.m_hat || current > self.m_hat * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_are_ordered() {
        for &m in &[1usize, 10, 100, 1_000, 10_000, 1_000_000] {
            for &eps in &[0.0, 0.009811, 1.0 / 24.0, 1.0 / 6.0] {
                let t = ClassThresholds::new(m, eps);
                assert!(t.tiny < t.medium_lo, "tiny < medium_lo for m={m} eps={eps}");
                assert!(
                    t.medium_lo < t.high_lo,
                    "medium_lo < high_lo for m={m} eps={eps}"
                );
                assert!(t.phase_len >= 4);
            }
        }
    }

    #[test]
    fn paper_scale_thresholds() {
        // m = 10^6, ε = 1/24: m^{1/3+ε} ≈ 10^{2.25} ≈ 178, m^{2/3−ε} ≈ 10^{5.75·...}
        let t = ClassThresholds::new(1_000_000, 1.0 / 24.0);
        assert_eq!(
            t.tiny,
            (1_000_000f64).powf(1.0 / 3.0 - 2.0 / 24.0).ceil() as usize
        );
        assert!(t.medium_lo >= 178 && t.medium_lo <= 179);
        assert!(t.high_lo >= 5_623 && t.high_lo <= 5_624); // 10^{6·0.625} = 10^{3.75}
    }

    #[test]
    fn endpoint_classification_boundaries() {
        let t = ClassThresholds::new(1_000_000, 1.0 / 24.0);
        assert_eq!(t.endpoint_class(0), EndpointClass::Tiny);
        assert_eq!(t.endpoint_class(t.tiny), EndpointClass::Tiny);
        assert_eq!(t.endpoint_class(t.tiny + 1), EndpointClass::Low);
        assert_eq!(t.endpoint_class(t.medium_lo - 1), EndpointClass::Low);
        assert_eq!(t.endpoint_class(t.medium_lo), EndpointClass::Medium);
        assert_eq!(t.endpoint_class(t.high_lo - 1), EndpointClass::Medium);
        assert_eq!(t.endpoint_class(t.high_lo), EndpointClass::High);
        assert_eq!(t.endpoint_class(usize::MAX), EndpointClass::High);
    }

    #[test]
    fn middle_classification_boundaries() {
        let t = ClassThresholds::new(1_000_000, 0.009811);
        assert_eq!(t.middle_class(t.tiny), MiddleClass::Tiny);
        assert_eq!(t.middle_class(t.tiny + 1), MiddleClass::Sparse);
        assert_eq!(t.middle_class(t.high_lo - 1), MiddleClass::Sparse);
        assert_eq!(t.middle_class(t.high_lo), MiddleClass::Dense);
    }

    #[test]
    fn era_rebuild_rule() {
        let t = ClassThresholds::new(1_000, 0.01);
        assert!(!t.needs_rebuild(1_000));
        assert!(!t.needs_rebuild(2_000));
        assert!(t.needs_rebuild(2_001));
        assert!(!t.needs_rebuild(500));
        assert!(t.needs_rebuild(499));
    }

    #[test]
    #[should_panic(expected = "ε must lie in")]
    fn rejects_eps_out_of_range() {
        let _ = ClassThresholds::new(100, 0.5);
    }
}
