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
#[derive(Debug, Clone, PartialEq)]
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
    fit_profile_likelihood_with_noise(search, x, y, sample_variance(y), noise_var, &dists, &[])
}

/// Extent of the inputs, at least 1.
fn input_span(x: &[f64]) -> f64 {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &xi in x {
        lo = lo.min(xi);
        hi = hi.max(xi);
    }
    (hi - lo).max(1.0)
}

/// The θ candidates of a search over inputs spanning `span`, log-spaced.
fn theta_grid(search: &MleSearch, span: f64) -> Vec<f64> {
    let (theta_min, theta_max) = match search.theta_center {
        Some(c) if c.is_finite() && c > 0.0 => (c / 4.0, c * 4.0),
        _ => ((span / 50.0).max(1e-3), span * 2.0),
    };
    let n_t = search.theta_points.max(2);
    (0..n_t)
        .map(|ti| theta_min * (theta_max / theta_min).powf(ti as f64 / (n_t - 1) as f64))
        .collect()
}

/// `best`, unless `model` is strictly more likely: the first of equals wins.
fn more_likely(best: Option<GpModel>, model: GpModel) -> Option<GpModel> {
    match best {
        Some(b) if model.log_likelihood() > b.log_likelihood() => Some(model),
        None => Some(model),
        kept => kept,
    }
}

/// [`fit_profile_likelihood`] over a precomputed pairwise-distance matrix,
/// with the scale of the α grid (`var_y`, the sample variance of the
/// observations) supplied by the caller and per-point noise multipliers
/// applied to every candidate fit (see [`GpModel::fit_with_corr`]; empty =
/// all ones). The distances depend only on the history, so they are
/// computed once and shared by every (θ, α) candidate — and across repeated
/// searches when the caller keeps a [`crate::PairwiseDistances`] synced to
/// the growing history. Warm starts use the multipliers so the prior
/// pseudo-points stay soft during the hyper-parameter search, not just in
/// the final fit.
///
/// The rows may be the sufficient statistics of a replicated history
/// ([`crate::ReplicateGroups::collapse`]) as long as `var_y` and
/// `noise_var` still come from the raw observations. Every candidate then
/// maximises the likelihood of the per-input means, which is the raw
/// observations' likelihood minus the within-replicate term documented at
/// `collapse` — a term of σ²_N, the multipliers and the scatter around the
/// means only, none of which a candidate changes. All candidates lose the
/// same constant, so the search returns the (θ, α) the per-observation
/// search would, on a system sized by the distinct inputs.
///
/// The θ candidates are independent and fan out across cores; each keeps
/// the most likely of its α candidates and the winners are folded in θ
/// order, the first of equals winning at both levels — the model one
/// sequential fold in nested (θ, α) order selects, ties included, with one
/// model per θ alive instead of one per candidate.
pub fn fit_profile_likelihood_with_noise(
    search: &MleSearch,
    x: &[f64],
    y: &[f64],
    var_y: f64,
    noise_var: f64,
    dists: &Mat,
    noise_mults: &[f64],
) -> crate::Result<GpModel> {
    assert!(!x.is_empty());
    let recorder = adaphet_metrics::global();
    recorder.add("gp.mle.searches", 1.0);
    let _search_timer = adaphet_metrics::Timer::start(recorder, "gp.mle.search_s");
    let span = input_span(x);
    let var_y = var_y.max(1e-12);
    let thetas = theta_grid(search, span);
    // One task per θ: R(θ) is evaluated once and shared by its α
    // candidates, which differ only in how they scale it; the task hands
    // back only its most likely candidate.
    let fits: Vec<Option<GpModel>> = thetas
        .into_par_iter()
        .map(|theta| {
            let kernel = search.kernel.with_theta(theta);
            let corr = kernel.corr_matrix(dists);
            search
                .alpha_grid
                .iter()
                .filter_map(|&am| {
                    let cfg = GpConfig {
                        kernel,
                        process_var: am * var_y,
                        noise_var,
                        trend: search.trend.clone(),
                    };
                    GpModel::fit_with_corr(cfg, x, y, &corr, noise_mults).ok()
                })
                .fold(None, more_likely)
        })
        .collect();
    let best = fits.into_iter().flatten().fold(None, more_likely);
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

    /// A tuner-like history: integer inputs with replicates, a smooth
    /// response plus noise, and (two times in three) prior-style
    /// multipliers κ on a prefix. At least four distinct inputs and one
    /// replicated one.
    fn replicated_history(rng: &mut rand::rngs::StdRng) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        use rand::Rng;
        let n = rng.random_range(8usize..80);
        let span = rng.random_range(6..60);
        let xs: Vec<f64> = (0..n)
            .map(|i| match i {
                0..5 => [0, span, span / 2, span / 2, span / 2 + 1][i] as f64,
                _ => rng.random_range(0..=span) as f64,
            })
            .collect();
        let ys: Vec<f64> =
            xs.iter().map(|&x| 40.0 / (1.0 + x) + 0.3 * x + rng.random_range(-0.5..0.5)).collect();
        let prior = rng.random_range(1..n / 2);
        let kappa = rng.random_range(1.0..32.0);
        let mults = match rng.random_range(0..3) {
            0 => Vec::new(),
            _ => (0..n).map(|i| if i < prior { kappa } else { 1.0 }).collect(),
        };
        (xs, ys, mults)
    }

    fn distances(xs: &[f64]) -> Mat {
        Mat::from_fn(xs.len(), xs.len(), |i, j| (xs[i] - xs[j]).abs())
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 + 1e-9 * a.abs().max(b.abs())
    }

    proptest::proptest! {
        /// The search on the collapsed rows, scaled by the raw observations'
        /// variance, returns the (θ, α) of the search on the raw rows: each
        /// of the 27 candidates loses the same within-replicate term of
        /// −2 log L (`ReplicateGroups::collapse`), so their order stands.
        #[test]
        fn prop_collapsed_grid_picks_the_raw_grid_winner(seed in 0u64..200) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x961d);
            let (xs, ys, mults) = replicated_history(&mut rng);
            let groups = ReplicateGroups::of(&xs);
            let var = sample_variance(&ys);
            let noise = groups.noise_variance(&ys).unwrap_or(1e-4 * var).max(1e-9);
            let theta_center = rng.random_bool(0.3).then(|| rng.random_range(0.5..20.0));
            let search = MleSearch { theta_center, ..MleSearch::default() };
            let (cx, cy, cm) = groups.collapse(&xs, &ys, &mults);
            proptest::prop_assert!(cx.len() >= 4 && cx.len() < xs.len());

            let raw = fit_profile_likelihood_with_noise(
                &search, &xs, &ys, var, noise, &distances(&xs), &mults,
            ).unwrap();
            let collapsed = fit_profile_likelihood_with_noise(
                &search, &cx, &cy, var, noise, &distances(&cx), &cm,
            ).unwrap();
            proptest::prop_assert_eq!(raw.config(), collapsed.config());

            // What every candidate's −2 log L loses to the collapse.
            let within = groups.within_group_term(&ys, &mults, noise);
            let mut candidates = 0;
            for theta in theta_grid(&search, input_span(&xs)) {
                let kernel = search.kernel.with_theta(theta);
                for &am in &search.alpha_grid {
                    let cfg = GpConfig {
                        kernel,
                        process_var: am * var,
                        noise_var: noise,
                        trend: search.trend.clone(),
                    };
                    let raw = GpModel::fit_with_corr(
                        cfg.clone(), &xs, &ys, &kernel.corr_matrix_of(&xs), &mults,
                    ).unwrap();
                    let collapsed = GpModel::fit_with_corr(
                        cfg, &cx, &cy, &kernel.corr_matrix_of(&cx), &cm,
                    ).unwrap();
                    let gap = -2.0 * (raw.log_likelihood() - collapsed.log_likelihood());
                    proptest::prop_assert!(
                        close(gap, within),
                        "θ = {}, α = {} · var: -2 log L gap {} vs within-group term {}",
                        theta, am, gap, within
                    );
                    candidates += 1;
                }
            }
            proptest::prop_assert_eq!(candidates, 27);
        }

        /// A history without replicates collapses to itself — `ȳ = y`,
        /// multiplier 1 (or the power-of-two κ) — and its search is the
        /// per-observation search bit for bit.
        #[test]
        fn prop_collapsed_grid_without_replicates_is_the_raw_grid_bitwise(seed in 0u64..100) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5e1f);
            let n = rng.random_range(2usize..50);
            let mut xs: Vec<f64> = (1..=64).map(f64::from).collect();
            for i in (1..xs.len()).rev() {
                xs.swap(i, rng.random_range(0..=i));
            }
            xs.truncate(n);
            let ys: Vec<f64> =
                xs.iter().map(|&x| 40.0 / x + 0.3 * x + rng.random_range(-0.5..0.5)).collect();
            let prior = rng.random_range(0..n);
            let mults: Vec<f64> = match rng.random_bool(0.5) {
                true => Vec::new(),
                false => (0..n).map(|i| if i < prior { 16.0 } else { 1.0 }).collect(),
            };
            let var = sample_variance(&ys);
            let noise = (1e-4 * var).max(1e-9);
            let search = MleSearch::default();
            let (cx, cy, cm) = ReplicateGroups::of(&xs).collapse(&xs, &ys, &mults);
            let raw = fit_profile_likelihood_with_noise(
                &search, &xs, &ys, var, noise, &distances(&xs), &mults,
            ).unwrap();
            let collapsed = fit_profile_likelihood_with_noise(
                &search, &cx, &cy, var, noise, &distances(&cx), &cm,
            ).unwrap();
            proptest::prop_assert_eq!(raw.config(), collapsed.config());
            proptest::prop_assert_eq!(
                raw.log_likelihood().to_bits(), collapsed.log_likelihood().to_bits()
            );
            for q in 0..64 {
                let xq = q as f64 * 1.25 - 2.0;
                let (a, b) = (raw.predict(xq), collapsed.predict(xq));
                proptest::prop_assert_eq!(
                    (a.mean.to_bits(), a.var.to_bits()), (b.mean.to_bits(), b.var.to_bits())
                );
            }
        }
    }
}
