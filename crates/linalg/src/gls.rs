//! Generalized least squares, the trend estimator of universal kriging.
//!
//! Given observations `y`, a basis matrix `G` (one row per observation, one
//! column per basis function) and a Cholesky factor of the covariance `K`,
//! compute the GLS coefficients
//! `γ̂ = (Gᵀ K⁻¹ G)⁻¹ Gᵀ K⁻¹ y` together with `(Gᵀ K⁻¹ G)⁻¹`, which the
//! kriging variance needs to account for trend-estimation uncertainty.

use crate::{forward_sub_in_place, Cholesky, LinalgError, Mat};

/// Result of a generalized-least-squares fit.
#[derive(Clone, Debug)]
pub struct GlsFit {
    /// Estimated coefficients `γ̂` (one per basis column).
    pub coefficients: Vec<f64>,
    /// `(Gᵀ K⁻¹ G)⁻¹`, the covariance of `γ̂` up to the process variance.
    pub coef_cov: Mat,
    /// Residuals `y - G γ̂` in the original (non-whitened) space.
    pub residuals: Vec<f64>,
    /// Whitened basis `G̃ = L⁻¹ G`, cached so incremental updates can extend
    /// it one row at a time instead of re-whitening the whole design.
    pub whitened_design: Mat,
    /// Whitened observations `ỹ = L⁻¹ y` (cached for the same reason).
    pub whitened_y: Vec<f64>,
}

/// Solve the GLS problem. `chol_k` must factor the `n x n` covariance of the
/// observations, `g` is `n x p` and `y` has length `n`.
///
/// Errors with [`LinalgError::RankDeficient`] when the whitened normal
/// matrix `Gᵀ K⁻¹ G` is not positive definite (collinear basis columns).
pub fn gls_solve(chol_k: &Cholesky, g: &Mat, y: &[f64]) -> crate::Result<GlsFit> {
    let n = chol_k.dim();
    let p = g.cols();
    if g.rows() != n || y.len() != n {
        return Err(LinalgError::DimMismatch {
            op: "gls_solve",
            found: (g.rows(), y.len()),
            expected: (n, n),
        });
    }
    if p == 0 {
        return Ok(GlsFit {
            coefficients: vec![],
            coef_cov: Mat::zeros(0, 0),
            residuals: y.to_vec(),
            whitened_design: Mat::zeros(n, 0),
            whitened_y: chol_k.solve_forward(y),
        });
    }
    // Whiten: G̃ = L⁻¹ G, ỹ = L⁻¹ y; then it's ordinary least squares.
    let mut g_w = g.clone();
    for a in 0..p {
        forward_sub_in_place(chol_k.factor_l(), g_w.col_mut(a))?;
    }
    let y_w = chol_k.solve_forward(y);

    // Normal matrix M = G̃ᵀ G̃ (p x p, symmetric positive definite if G has
    // full column rank).
    let mut m = Mat::zeros(p, p);
    for a in 0..p {
        for b in a..p {
            let v = crate::dot(g_w.col(a), g_w.col(b));
            m[(a, b)] = v;
            m[(b, a)] = v;
        }
    }
    let rhs: Vec<f64> = (0..p).map(|a| crate::dot(g_w.col(a), &y_w)).collect();

    let chol_m = Cholesky::factor(&m).map_err(|e| match e {
        LinalgError::NotSpd(_) => LinalgError::RankDeficient,
        other => other,
    })?;
    let coefficients = chol_m.solve(&rhs);
    let coef_cov = chol_m.inverse();

    let fitted = g.matvec(&coefficients);
    let residuals = y.iter().zip(&fitted).map(|(yi, fi)| yi - fi).collect();

    Ok(GlsFit { coefficients, coef_cov, residuals, whitened_design: g_w, whitened_y: y_w })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn with_identity_covariance_gls_is_ols() {
        // y = 2 + 3x exactly; OLS must recover the coefficients.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let g = Mat::from_fn(5, 2, |i, j| if j == 0 { 1.0 } else { xs[i] });
        let y: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let chol = Cholesky::factor(&Mat::identity(5)).unwrap();
        let fit = gls_solve(&chol, &g, &y).unwrap();
        assert!((fit.coefficients[0] - 2.0).abs() < 1e-12);
        assert!((fit.coefficients[1] - 3.0).abs() < 1e-12);
        assert!(fit.residuals.iter().all(|r| r.abs() < 1e-12));
    }

    #[test]
    fn weighting_downweights_noisy_points() {
        // Two groups measuring a constant: precise points say 1.0, an
        // imprecise point says 100.0. GLS must land near 1.0.
        let g = Mat::from_fn(3, 1, |_, _| 1.0);
        let y = [1.0, 1.0, 100.0];
        let mut k = Mat::identity(3);
        k[(2, 2)] = 1e6;
        let chol = Cholesky::factor(&k).unwrap();
        let fit = gls_solve(&chol, &g, &y).unwrap();
        assert!((fit.coefficients[0] - 1.0).abs() < 0.1, "got {}", fit.coefficients[0]);
    }

    #[test]
    fn collinear_basis_is_rank_deficient() {
        let g = Mat::from_fn(4, 2, |i, j| if j == 0 { i as f64 } else { 2.0 * i as f64 });
        let y = [0.0, 1.0, 2.0, 3.0];
        let chol = Cholesky::factor(&Mat::identity(4)).unwrap();
        assert_eq!(gls_solve(&chol, &g, &y).unwrap_err(), LinalgError::RankDeficient);
    }

    #[test]
    fn empty_basis_returns_raw_residuals() {
        let chol = Cholesky::factor(&Mat::identity(3)).unwrap();
        let fit = gls_solve(&chol, &Mat::zeros(3, 0), &[1.0, 2.0, 3.0]).unwrap();
        assert!(fit.coefficients.is_empty());
        assert_eq!(fit.residuals, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dim_mismatch_rejected() {
        let chol = Cholesky::factor(&Mat::identity(3)).unwrap();
        assert!(gls_solve(&chol, &Mat::zeros(2, 1), &[1.0, 2.0, 3.0]).is_err());
        assert!(gls_solve(&chol, &Mat::zeros(3, 1), &[1.0, 2.0]).is_err());
    }

    proptest! {
        /// GLS residuals are K⁻¹-orthogonal to the basis columns:
        /// Gᵀ K⁻¹ (y - G γ̂) = 0 (the normal equations).
        #[test]
        fn prop_normal_equations_hold(seed in 0u64..200) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.random_range(3usize..10);
            let b = Mat::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
            let mut k = b.matmul(&b.transpose()).unwrap();
            for i in 0..n {
                k[(i, i)] += n as f64;
            }
            let g = Mat::from_fn(n, 2, |i, j| if j == 0 { 1.0 } else { i as f64 });
            let y: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let chol = Cholesky::factor(&k).unwrap();
            let fit = gls_solve(&chol, &g, &y).unwrap();
            let kinv_r = chol.solve(&fit.residuals);
            let gt_kinv_r = g.matvec_t(&kinv_r);
            for v in gt_kinv_r {
                prop_assert!(v.abs() < 1e-7, "normal equation violated: {v}");
            }
        }
    }
}
