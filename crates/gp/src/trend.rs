//! Trend (mean-function) bases for universal kriging.
//!
//! The paper (Section IV-D) moves problem knowledge into the trend:
//!
//! * GP-UCB uses a plain constant trend;
//! * GP-discontinuous models the *residual over the LP bound* with a linear
//!   term `x` plus one **dummy variable** per homogeneous machine group —
//!   `d_g(x) = 1` when node `x` belongs to group `g` — so the surrogate can
//!   jump at group boundaries without violating the GP's smoothness prior.

/// One basis function `g_i(x)` of the trend `μ(x) = Σ_i γ_i g_i(x)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Basis {
    /// `g(x) = 1`.
    Constant,
    /// `g(x) = x`.
    Identity,
    /// `g(x) = x^k`.
    Power(i32),
    /// Group dummy: `g(x) = 1` when `lo <= x <= hi`, else `0`. The
    /// inclusive range covers the node indices of one homogeneous group.
    StepGroup {
        /// First x (inclusive) of the group.
        lo: f64,
        /// Last x (inclusive) of the group.
        hi: f64,
    },
}

impl Basis {
    /// Evaluate the basis function at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        match *self {
            Basis::Constant => 1.0,
            Basis::Identity => x,
            Basis::Power(k) => x.powi(k),
            Basis::StepGroup { lo, hi } => {
                if x >= lo && x <= hi {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// A trend: an ordered set of basis functions whose coefficients are
/// estimated by generalized least squares at fit time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trend {
    /// The basis functions.
    pub terms: Vec<Basis>,
}

impl Trend {
    /// No trend at all (simple kriging around zero).
    pub fn none() -> Self {
        Trend { terms: vec![] }
    }

    /// Constant trend (ordinary kriging) — what plain GP-UCB uses.
    pub fn constant() -> Self {
        Trend { terms: vec![Basis::Constant] }
    }

    /// Constant + linear trend.
    pub fn linear() -> Self {
        Trend { terms: vec![Basis::Constant, Basis::Identity] }
    }

    /// The paper's GP-discontinuous trend: `x + Σ_g d_g(x)`.
    ///
    /// `group_bounds` lists, per homogeneous machine group, the inclusive
    /// `(first, last)` node index of that group (fastest group first). The
    /// dummies double as per-group intercepts, so no separate constant term
    /// is added (the dummies of a partition sum to one, which would make a
    /// constant column collinear).
    pub fn linear_with_group_dummies(group_bounds: &[(usize, usize)]) -> Self {
        let mut terms = vec![Basis::Identity];
        for &(lo, hi) in group_bounds {
            terms.push(Basis::StepGroup { lo: lo as f64, hi: hi as f64 });
        }
        Trend { terms }
    }

    /// Number of basis functions.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the trend is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Evaluate all basis functions at `x` (one row of the design matrix).
    pub fn row(&self, x: f64) -> Vec<f64> {
        self.terms.iter().map(|b| b.eval(x)).collect()
    }

    /// The trend mean `Σ γ_i g_i(x)` under the coefficients `coefficients`.
    pub fn mean(&self, x: f64, coefficients: &[f64]) -> f64 {
        self.terms.iter().zip(coefficients).map(|(b, c)| b.eval(x) * c).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_values() {
        assert_eq!(Basis::Constant.eval(7.0), 1.0);
        assert_eq!(Basis::Identity.eval(7.0), 7.0);
        assert_eq!(Basis::Power(2).eval(3.0), 9.0);
        let g = Basis::StepGroup { lo: 3.0, hi: 5.0 };
        assert_eq!(g.eval(2.9), 0.0);
        assert_eq!(g.eval(3.0), 1.0);
        assert_eq!(g.eval(5.0), 1.0);
        assert_eq!(g.eval(5.1), 0.0);
    }

    #[test]
    fn constructors() {
        assert!(Trend::none().is_empty());
        assert_eq!(Trend::constant().len(), 1);
        assert_eq!(Trend::linear().len(), 2);
    }

    #[test]
    fn group_dummies_partition_axis() {
        // Groups: nodes 1..=4, 5..=10, 11..=15.
        let t = Trend::linear_with_group_dummies(&[(1, 4), (5, 10), (11, 15)]);
        assert_eq!(t.len(), 4); // identity + 3 dummies
        for x in 1..=15 {
            let row = t.row(x as f64);
            assert_eq!(row[0], x as f64);
            let dummies = &row[1..];
            let active: f64 = dummies.iter().sum();
            assert_eq!(active, 1.0, "exactly one dummy active at x={x}");
        }
        // Boundary checks: discontinuity between 4 and 5.
        assert_eq!(t.row(4.0)[1], 1.0);
        assert_eq!(t.row(5.0)[1], 0.0);
        assert_eq!(t.row(5.0)[2], 1.0);
    }

    #[test]
    fn row_matches_manual_eval() {
        let t = Trend { terms: vec![Basis::Constant, Basis::Power(3)] };
        assert_eq!(t.row(2.0), vec![1.0, 8.0]);
    }
}
