//! Stationary covariance (correlation) functions.

use adaphet_linalg::Mat;

/// A stationary correlation function `r(d)` of the distance `d = |x - x'|`,
/// scaled by the process variance `α` elsewhere (in [`crate::GpConfig`]).
///
/// The paper's kernel (Eq. 3) is [`Kernel::Exponential`]:
/// `Σ(x,x') = α exp(−‖x−x'‖ / θ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `exp(−d/θ)` — the paper's choice; rough (non-differentiable) paths.
    Exponential {
        /// Length scale θ > 0.
        theta: f64,
    },
    /// `exp(−d²/(2θ²))` — very smooth paths.
    SquaredExponential {
        /// Length scale θ > 0.
        theta: f64,
    },
    /// Matérn ν = 3/2: `(1 + √3 d/θ) exp(−√3 d/θ)`.
    Matern32 {
        /// Length scale θ > 0.
        theta: f64,
    },
    /// Matérn ν = 5/2: `(1 + √5 d/θ + 5d²/(3θ²)) exp(−√5 d/θ)`.
    Matern52 {
        /// Length scale θ > 0.
        theta: f64,
    },
}

impl Kernel {
    /// Correlation at distance `d >= 0`; `r(0) = 1` and `r` decreases
    /// monotonically to 0.
    pub fn corr(&self, d: f64) -> f64 {
        let d = d.abs();
        match *self {
            Kernel::Exponential { theta } => (-d / theta).exp(),
            Kernel::SquaredExponential { theta } => (-0.5 * (d / theta).powi(2)).exp(),
            Kernel::Matern32 { theta } => {
                let s = 3.0_f64.sqrt() * d / theta;
                (1.0 + s) * (-s).exp()
            }
            Kernel::Matern52 { theta } => {
                let s = 5.0_f64.sqrt() * d / theta;
                (1.0 + s + s * s / 3.0) * (-s).exp()
            }
        }
    }

    /// Correlation matrix `R[(i, j)] = r(dists[(i, j)])` of a symmetric
    /// pairwise-distance matrix.
    ///
    /// Equal to `Mat::from_fn(n, n, |i, j| self.corr(dists[(i, j)]))` bit
    /// for bit while evaluating far fewer `exp`s: only the lower triangle
    /// is evaluated (and mirrored), and a point at distance zero from an
    /// earlier one — a replicate — copies that point's row, the values the
    /// kernel would return again.
    pub fn corr_matrix(&self, dists: &Mat) -> Mat {
        assert!(dists.is_square(), "distance matrix must be square");
        let n = dists.rows();
        let mut r = Mat::zeros(n, n);
        for i in 0..n {
            // Column i of the symmetric matrices is row i, contiguously.
            let twin = dists.col(i)[..i].iter().position(|&d| d == 0.0);
            for k in 0..i {
                let v = match twin {
                    Some(j) => r[(j, k)],
                    None => self.corr(dists[(k, i)]),
                };
                r[(i, k)] = v;
                r[(k, i)] = v;
            }
            r[(i, i)] = self.corr(dists[(i, i)]);
        }
        r
    }

    /// [`Kernel::corr_matrix`] of the inputs `xs` themselves, over their
    /// pairwise distances `|xs[i] − xs[j]|`.
    pub fn corr_matrix_of(&self, xs: &[f64]) -> Mat {
        let n = xs.len();
        self.corr_matrix(&Mat::from_fn(n, n, |i, j| (xs[i] - xs[j]).abs()))
    }

    /// Current length scale θ.
    pub fn theta(&self) -> f64 {
        match *self {
            Kernel::Exponential { theta }
            | Kernel::SquaredExponential { theta }
            | Kernel::Matern32 { theta }
            | Kernel::Matern52 { theta } => theta,
        }
    }

    /// Family name for reports.
    pub fn family(&self) -> &'static str {
        match self {
            Kernel::Exponential { .. } => "exponential",
            Kernel::SquaredExponential { .. } => "squared-exponential",
            Kernel::Matern32 { .. } => "matern32",
            Kernel::Matern52 { .. } => "matern52",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One kernel of each family, all with length scale `theta`.
    fn families(theta: f64) -> [Kernel; 4] {
        [
            Kernel::Exponential { theta },
            Kernel::SquaredExponential { theta },
            Kernel::Matern32 { theta },
            Kernel::Matern52 { theta },
        ]
    }

    #[test]
    fn unit_correlation_at_zero() {
        for k in families(1.0) {
            assert_eq!(k.corr(0.0), 1.0, "{}", k.family());
        }
    }

    #[test]
    fn exponential_matches_paper_eq3() {
        let k = Kernel::Exponential { theta: 2.0 };
        assert!((k.corr(2.0) - (-1.0_f64).exp()).abs() < 1e-15);
        assert!((k.corr(4.0) - (-2.0_f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn smoothness_ordering_near_zero() {
        // Near d=0: exponential decays fastest (roughest), then Matérn 3/2,
        // Matérn 5/2, squared-exponential (smoothest).
        let d = 0.05;
        let exp = Kernel::Exponential { theta: 1.0 }.corr(d);
        let m32 = Kernel::Matern32 { theta: 1.0 }.corr(d);
        let m52 = Kernel::Matern52 { theta: 1.0 }.corr(d);
        let se = Kernel::SquaredExponential { theta: 1.0 }.corr(d);
        assert!(exp < m32 && m32 < m52 && m52 < se);
    }

    proptest! {
        /// Correlations are in (0, 1], symmetric in sign, and monotonically
        /// non-increasing in distance.
        #[test]
        fn prop_kernel_shape(theta in 0.1f64..10.0, d1 in 0.0f64..20.0, d2 in 0.0f64..20.0) {
            for k in families(theta) {
                let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
                let rl = k.corr(lo);
                let rh = k.corr(hi);
                // May underflow to exactly 0 at extreme distances.
                prop_assert!((0.0..=1.0).contains(&rl));
                prop_assert!(rh <= rl + 1e-12, "{}: corr not decreasing", k.family());
                prop_assert_eq!(k.corr(-d1), k.corr(d1));
            }
        }

        /// Longer length scales give higher correlation at the same distance.
        #[test]
        fn prop_theta_monotone(d in 0.01f64..10.0) {
            for (short, long) in families(0.5).iter().zip(families(5.0)) {
                prop_assert!(long.corr(d) >= short.corr(d));
            }
        }
    }
}
