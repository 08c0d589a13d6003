//! The paper's parameter formulas.
//!
//! The SBL analysis (Section 2.2) fixes
//!
//! * `α = 1 / log⁽³⁾ n` and the sampling probability `p = 1 / n^α = n^{-α}`,
//! * `β = log⁽²⁾ n / (8 (log⁽³⁾ n)²)` and the edge bound `m ≤ n^β`,
//! * the dimension bound `d = log⁽²⁾ n / (4 log⁽³⁾ n)` under which the BL
//!   subroutine is invoked (Theorem 2),
//! * the while-loop exit threshold `|V| < 1/p² = n^{2α} = n^{2/log⁽³⁾ n}`,
//! * the round bound `r = 2 log n / p`,
//!
//! where `log⁽²⁾ n = log log n` and `log⁽³⁾ n = log log log n` (all base-2
//! here; the paper leaves the base unspecified and notes "there is some
//! flexibility" in the parameter choice).
//!
//! These formulas only bite for astronomically large `n` (e.g. `log⁽³⁾ n ≥ 2`
//! needs `n ≥ 2^16 = 65536`); for the `n` reachable in experiments the derived
//! `d` would be `< 1`. The functions therefore return the *raw* real-valued
//! quantities and clamped "practical" variants side by side, and each caller
//! chooses its regime explicitly.

/// Base-2 logarithm, returning `None` for inputs `< 1`.
pub fn log2_checked(x: f64) -> Option<f64> {
    if x >= 1.0 {
        Some(x.log2())
    } else {
        None
    }
}

/// Iterated base-2 logarithm `log⁽ᵏ⁾ n` (k-fold composition), or `None` if any
/// intermediate value drops below 1 (so the next log would be negative or
/// undefined).
pub fn iterated_log2(n: f64, k: u32) -> Option<f64> {
    let mut x = n;
    for _ in 0..k {
        x = log2_checked(x)?;
    }
    Some(x)
}

/// `log log n` (base 2), `None` when undefined or non-positive in a way that
/// would break the paper's formulas (i.e. when `n ≤ 2`).
pub fn log2_2(n: f64) -> Option<f64> {
    iterated_log2(n, 2)
}

/// `log log log n` (base 2), `None` when `n ≤ 4` (so the value would be ≤ 0
/// or undefined).
pub fn log2_3(n: f64) -> Option<f64> {
    let v = iterated_log2(n, 3)?;
    if v > 0.0 {
        Some(v)
    } else {
        None
    }
}

/// The SBL parameter set for a hypergraph on `n` vertices, computed exactly as
/// in Section 2.2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SblParams {
    /// Number of vertices the parameters were derived from.
    pub n: usize,
    /// `α = 1 / log⁽³⁾ n`.
    pub alpha: f64,
    /// Sampling probability `p = n^{-α}`.
    pub p: f64,
    /// `β = log⁽²⁾ n / (8 (log⁽³⁾ n)²)`; the paper requires `m ≤ n^β`.
    pub beta: f64,
    /// Edge-count bound `n^β`.
    pub m_bound: f64,
    /// Dimension bound `d = log⁽²⁾ n / (4 log⁽³⁾ n)` for the BL subroutine.
    pub d_bound: f64,
    /// While-loop exit threshold `1/p²`: SBL switches to KUW once `|V| < 1/p²`.
    pub tail_threshold: f64,
    /// Round bound `r = 2 log n / p` used in the failure analysis.
    pub round_bound: f64,
}

impl SblParams {
    /// Computes the exact paper parameters for `n` vertices.
    ///
    /// Returns `None` when `n ≤ 4`, where `log⁽³⁾ n` is not positive and the
    /// formulas are undefined. Callers that want to run SBL on small inputs
    /// should use [`SblParams::practical`] instead.
    pub fn exact(n: usize) -> Option<Self> {
        let nf = n as f64;
        let l1 = log2_checked(nf)?;
        let l2 = log2_2(nf)?;
        let l3 = log2_3(nf)?;
        let alpha = 1.0 / l3;
        let p = nf.powf(-alpha);
        let beta = l2 / (8.0 * l3 * l3);
        Some(SblParams {
            n,
            alpha,
            p,
            beta,
            m_bound: nf.powf(beta),
            d_bound: l2 / (4.0 * l3),
            tail_threshold: 1.0 / (p * p),
            round_bound: 2.0 * l1 / p,
        })
    }

    /// A practical parameterisation that follows the paper's *shape* but is
    /// usable at experiment scale: the sampling probability and dimension
    /// bound are clamped so that the algorithm makes progress on small `n`.
    ///
    /// * `p` is clamped to at least `min_p` (default 0.05 via
    ///   [`SblParams::practical_default`]) so a round marks some vertices;
    /// * `d` is clamped to at least 2 (a dimension-1 sample is trivial) and at
    ///   most the hypergraph dimension by the caller;
    /// * the tail threshold is recomputed from the clamped `p`.
    pub fn practical(n: usize, min_p: f64, min_d: f64) -> Self {
        let nf = (n.max(2)) as f64;
        let l1 = nf.log2().max(1.0);
        let l2 = l1.log2().max(1.0);
        let l3 = l2.log2().max(1.0);
        let alpha = 1.0 / l3;
        let p = nf.powf(-alpha).max(min_p).min(1.0);
        let beta = l2 / (8.0 * l3 * l3);
        let d_bound = (l2 / (4.0 * l3)).max(min_d);
        SblParams {
            n,
            alpha,
            p,
            beta,
            m_bound: nf.powf(beta),
            d_bound,
            tail_threshold: (1.0 / (p * p)).max(4.0),
            round_bound: 2.0 * l1 / p,
        }
    }

    /// [`SblParams::practical`] with the default clamps used throughout the
    /// experiments (`min_p = 0.05`, `min_d = 3`).
    pub fn practical_default(n: usize) -> Self {
        Self::practical(n, 0.05, 3.0)
    }

    /// The integer dimension cap the SBL driver passes to BL: `⌊d_bound⌋`,
    /// but never below 1.
    pub fn d_cap(&self) -> usize {
        (self.d_bound.floor() as usize).max(1)
    }

    /// Whether a hypergraph with `m` edges satisfies the paper's edge-count
    /// requirement `m ≤ n^β`.
    pub fn admits_edge_count(&self, m: usize) -> bool {
        (m as f64) <= self.m_bound
    }
}

/// The dimension bound of Theorem 2: `d ≤ log⁽²⁾ n / (4 log⁽³⁾ n)`.
///
/// Returns `None` when the formula is undefined (`n ≤ 4`).
pub fn theorem2_dimension_bound(n: usize) -> Option<f64> {
    let l2 = log2_2(n as f64)?;
    let l3 = log2_3(n as f64)?;
    Some(l2 / (4.0 * l3))
}

/// The paper's headline edge-count bound `n^β` with
/// `β = log⁽²⁾ n / (8 (log⁽³⁾ n)²)`. `None` when undefined.
pub fn theorem1_edge_bound(n: usize) -> Option<f64> {
    let nf = n as f64;
    let l2 = log2_2(nf)?;
    let l3 = log2_3(nf)?;
    Some(nf.powf(l2 / (8.0 * l3 * l3)))
}

/// The smallest `n` for which the exact paper formulas are defined
/// (`log⁽³⁾ n > 0`, i.e. `n > 2^2 = 4`, with strict positivity needing
/// `n ≥ 17` for base-2 logs to chain usefully). Exposed for tests and docs.
pub fn min_exact_n() -> usize {
    // log2(log2(log2(n))) > 0  <=>  log2(log2(n)) > 1  <=>  log2(n) > 2  <=> n > 4.
    5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterated_logs() {
        assert_eq!(log2_checked(8.0), Some(3.0));
        assert_eq!(log2_checked(0.5), None);
        assert_eq!(iterated_log2(65536.0, 2), Some(4.0));
        assert_eq!(iterated_log2(65536.0, 3), Some(2.0));
        assert_eq!(iterated_log2(2.0, 3), None);
        assert_eq!(log2_2(4.0), Some(1.0));
    }

    #[test]
    fn log2_3_positivity() {
        // n = 16: log2 n = 4, log2 log2 n = 2, log2 log2 log2 n = 1 > 0.
        assert_eq!(log2_3(16.0), Some(1.0));
        // n = 4: log2 n = 2, log2 log2 n = 1, log2(1) = 0 which is not > 0.
        assert_eq!(log2_3(4.0), None);
        // n = 2: chain hits 0 and the next log is undefined.
        assert_eq!(log2_3(2.0), None);
    }

    #[test]
    fn exact_params_defined_for_large_n() {
        let p = SblParams::exact(1 << 20).expect("defined for n = 2^20");
        assert!(p.alpha > 0.0 && p.alpha <= 1.0);
        assert!(p.p > 0.0 && p.p < 1.0);
        assert!(p.beta > 0.0);
        assert!(p.d_bound > 0.0);
        assert!(p.tail_threshold > 1.0);
        assert!(p.round_bound > 0.0);
        // Sanity: p = n^{-alpha} means p^{1/alpha} = 1/n.
        let back = p.p.powf(1.0 / p.alpha);
        assert!((back - 1.0 / (p.n as f64)).abs() < 1e-9);
    }

    #[test]
    fn exact_params_undefined_for_tiny_n() {
        assert!(SblParams::exact(2).is_none());
        assert!(SblParams::exact(4).is_none());
        assert!(SblParams::exact(0).is_none());
    }

    #[test]
    fn practical_params_always_defined() {
        for n in [0, 1, 2, 10, 100, 10_000, 1 << 20] {
            let p = SblParams::practical_default(n);
            assert!(p.p > 0.0 && p.p <= 1.0, "p out of range for n={n}");
            assert!(p.d_bound >= 3.0);
            assert!(p.tail_threshold >= 4.0);
            assert!(p.d_cap() >= 1);
        }
    }

    #[test]
    fn edge_bound_check() {
        let p = SblParams::practical_default(1024);
        assert!(p.admits_edge_count(1));
        assert!(!p.admits_edge_count(usize::MAX / 2));
    }

    #[test]
    fn monotonicity_of_bounds() {
        // The dimension bound and edge bound grow (weakly) with n.
        let d1 = theorem2_dimension_bound(1 << 10);
        let d2 = theorem2_dimension_bound(1 << 30);
        if let (Some(a), Some(b)) = (d1, d2) {
            assert!(b >= a);
        }
        let m1 = theorem1_edge_bound(1 << 10).unwrap_or(0.0);
        let m2 = theorem1_edge_bound(1 << 30).unwrap_or(0.0);
        assert!(m2 >= m1);
    }

    #[test]
    fn min_exact_n_is_documented_boundary() {
        assert!(SblParams::exact(min_exact_n() - 1).is_none());
    }
}
