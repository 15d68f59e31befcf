//! Hyper-parameter estimation.
//!
//! Two regimes, mirroring the paper:
//!
//! * **GP-UCB** estimates `(α, θ)` by maximum likelihood from the data
//!   ("In practice, they are often estimated from the data with an ML
//!   approach"), which with little data "may be overconfident" — we
//!   reproduce that by an honest profile-likelihood grid/golden search.
//! * **GP-discontinuous** avoids the overconfidence by *fixing* `θ = 1`
//!   and setting `α` to the sample variance (Section IV-D), so no search
//!   is needed — callers construct the [`crate::GpConfig`] directly.
//!
//! The noise variance σ²_N is estimated from replicated observations with
//! the paper's pooled estimator in both regimes.

use crate::{GpConfig, GpModel, Kernel, ReplicateGroups, Trend};
use adaphet_linalg::{sample_variance, Mat};
use rayon::prelude::*;

/// Estimate σ²_N from replicated x locations (the paper's estimator,
/// Section IV-D): [`ReplicateGroups::noise_variance`] over the groups of
/// equal `x`. Returns `None` when no location has been measured twice.
pub fn estimate_noise_from_replicates(x: &[f64], y: &[f64]) -> Option<f64> {
    ReplicateGroups::of(x).noise_variance(y)
}

/// Configuration of the profile-likelihood search.
#[derive(Debug, Clone)]
pub struct MleSearch {
    /// Kernel family to fit (its θ is overwritten by the search).
    pub kernel: Kernel,
    /// Trend to use during the search.
    pub trend: Trend,
    /// Candidate multipliers of the sample variance used for α.
    pub alpha_grid: Vec<f64>,
    /// Number of θ grid points (log-spaced over the data span).
    pub theta_points: usize,
    /// Optional center for the θ grid. `Some(c)` narrows the grid to
    /// `[c/4, 4c]` (log-spaced, same point count) — used by warm-started
    /// sessions to start the search around a previously fitted length
    /// scale. `None` keeps the data-span grid and is bit-identical to
    /// the behavior before this field existed.
    pub theta_center: Option<f64>,
}

impl Default for MleSearch {
    fn default() -> Self {
        MleSearch {
            kernel: Kernel::Exponential { theta: 1.0 },
            trend: Trend::constant(),
            alpha_grid: vec![0.25, 1.0, 4.0],
            theta_points: 9,
            theta_center: None,
        }
    }
}

/// Maximize the profile log marginal likelihood over `(α, θ)` by grid
/// search, with σ²_N supplied by the caller (typically from
/// [`estimate_noise_from_replicates`], falling back to a small fraction of
/// the sample variance).
///
/// Returns the best fitted model. With very little data the grid happily
/// picks extreme values — this *is* the overconfidence failure mode the
/// paper points out for plain GP-UCB, and we keep it faithful.
pub fn fit_profile_likelihood(
    search: &MleSearch,
    x: &[f64],
    y: &[f64],
    noise_var: f64,
) -> crate::Result<GpModel> {
    assert!(!x.is_empty());
    let n = x.len();
    let dists = Mat::from_fn(n, n, |i, j| (x[i] - x[j]).abs());
    fit_profile_likelihood_with_noise(search, x, y, noise_var, &dists, &[])
}

/// [`fit_profile_likelihood`] over a precomputed pairwise-distance matrix
/// and with per-point noise multipliers applied to every candidate fit
/// (see [`GpModel::fit_with_corr`]; empty = all ones). The distances depend
/// only on the history, so they are computed once and shared by every
/// (θ, α) candidate — and across repeated searches when the caller keeps a
/// [`crate::PairwiseDistances`] synced to the growing history. Warm starts
/// use the multipliers so the prior pseudo-points stay soft during the
/// hyper-parameter search, not just in the final fit.
///
/// The θ candidates are independent and fan out across cores; the best
/// model is selected by a sequential fold in the same nested (θ, α) order
/// the sequential search used, so ties resolve identically and the result
/// is bitwise the same.
pub fn fit_profile_likelihood_with_noise(
    search: &MleSearch,
    x: &[f64],
    y: &[f64],
    noise_var: f64,
    dists: &Mat,
    noise_mults: &[f64],
) -> crate::Result<GpModel> {
    assert!(!x.is_empty());
    let recorder = adaphet_metrics::global();
    recorder.add("gp.mle.searches", 1.0);
    let _search_timer = adaphet_metrics::Timer::start(recorder, "gp.mle.search_s");
    let span = {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &xi in x {
            lo = lo.min(xi);
            hi = hi.max(xi);
        }
        (hi - lo).max(1.0)
    };
    let var_y = sample_variance(y).max(1e-12);

    let (theta_min, theta_max) = match search.theta_center {
        Some(c) if c.is_finite() && c > 0.0 => (c / 4.0, c * 4.0),
        _ => ((span / 50.0).max(1e-3), span * 2.0),
    };
    let n_t = search.theta_points.max(2);
    let thetas: Vec<f64> = (0..n_t)
        .map(|ti| theta_min * (theta_max / theta_min).powf(ti as f64 / (n_t - 1) as f64))
        .collect();
    // One task per θ: R(θ) is evaluated once and shared by its α
    // candidates, which differ only in how they scale it.
    let fits: Vec<Vec<Option<GpModel>>> = thetas
        .into_par_iter()
        .map(|theta| {
            let kernel = search.kernel.with_theta(theta);
            let corr = kernel.corr_matrix(dists);
            search
                .alpha_grid
                .iter()
                .map(|&am| {
                    let cfg = GpConfig {
                        kernel,
                        process_var: am * var_y,
                        noise_var,
                        trend: search.trend.clone(),
                    };
                    GpModel::fit_with_corr(cfg, x, y, &corr, noise_mults).ok()
                })
                .collect()
        })
        .collect();
    let mut best: Option<GpModel> = None;
    for model in fits.into_iter().flatten().flatten() {
        let better = match &best {
            None => true,
            Some(b) => model.log_likelihood() > b.log_likelihood(),
        };
        if better {
            best = Some(model);
        }
    }
    // At least the coarsest configuration must have fitted; if literally
    // everything failed, surface the factorization error from a last try.
    match best {
        Some(m) => Ok(m),
        None => {
            let kernel = search.kernel.with_theta(span);
            GpModel::fit_with_corr(
                GpConfig {
                    kernel,
                    process_var: var_y,
                    noise_var: noise_var.max(1e-6 * var_y),
                    trend: search.trend.clone(),
                },
                x,
                y,
                &kernel.corr_matrix(dists),
                noise_mults,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_noise_estimation() {
        let x = [1.0, 1.0, 2.0, 2.0, 3.0];
        let y = [10.0, 12.0, 5.0, 7.0, 100.0];
        // Groups {10,12} and {5,7}: SS = 2 + 2 = 4, denom = 4 - 1 = 3.
        let est = estimate_noise_from_replicates(&x, &y).unwrap();
        assert!((est - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn no_replicates_gives_none() {
        assert_eq!(estimate_noise_from_replicates(&[1.0, 2.0], &[0.0, 1.0]), None);
    }

    #[test]
    fn mle_recovers_reasonable_lengthscale() {
        // Smooth function sampled densely: MLE should not pick the tiniest θ.
        let xs: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x / 5.0).sin() * 3.0).collect();
        let search =
            MleSearch { kernel: Kernel::SquaredExponential { theta: 1.0 }, ..Default::default() };
        let model = fit_profile_likelihood(&search, &xs, &ys, 1e-6).unwrap();
        assert!(model.config().kernel.theta() > 0.9, "theta = {}", model.config().kernel.theta());
        // And the fit should predict well in-sample.
        for (&x, &y) in xs.iter().zip(&ys) {
            assert!((model.predict(x).mean - y).abs() < 0.05);
        }
    }

    #[test]
    fn mle_with_two_points_still_fits() {
        // Degenerate data must not crash — this is the "with bad luck, the
        // algorithm may be overconfident" regime.
        let model =
            fit_profile_likelihood(&MleSearch::default(), &[1.0, 10.0], &[5.0, 6.0], 0.01).unwrap();
        assert!(model.predict(5.0).mean.is_finite());
    }

    #[test]
    fn theta_center_narrows_the_grid_around_the_hint() {
        let xs: Vec<f64> = (0..25).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x / 5.0).sin() * 3.0).collect();
        let center = 5.0;
        let search = MleSearch {
            kernel: Kernel::SquaredExponential { theta: 1.0 },
            theta_center: Some(center),
            ..Default::default()
        };
        let model = fit_profile_likelihood(&search, &xs, &ys, 1e-6).unwrap();
        let theta = model.config().kernel.theta();
        assert!(
            (center / 4.0..=center * 4.0).contains(&theta),
            "theta {theta} escaped the centered grid"
        );
        // A non-positive center falls back to the span grid (no panic).
        let degenerate = MleSearch { theta_center: Some(0.0), ..Default::default() };
        assert!(fit_profile_likelihood(&degenerate, &xs, &ys, 1e-6).is_ok());
    }

    #[test]
    fn mle_beats_fixed_extreme_theta() {
        let xs: Vec<f64> = (0..30).map(|i| i as f64 * 0.7).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (0.4 * x).cos()).collect();
        let search = MleSearch { kernel: Kernel::Matern52 { theta: 1.0 }, ..Default::default() };
        let best = fit_profile_likelihood(&search, &xs, &ys, 1e-6).unwrap();
        let extreme = GpModel::fit(
            GpConfig {
                kernel: Kernel::Matern52 { theta: 1e-3 },
                process_var: 1.0,
                noise_var: 1e-6,
                trend: Trend::constant(),
            },
            &xs,
            &ys,
        )
        .unwrap();
        assert!(best.log_likelihood() >= extreme.log_likelihood());
    }
}
