//! Hyper-parameter estimation.
//!
//! Two regimes, mirroring the paper:
//!
//! * **GP-UCB** estimates `(α, θ)` by maximum likelihood from the data
//!   ("In practice, they are often estimated from the data with an ML
//!   approach"), which with little data "may be overconfident" — we
//!   reproduce that by an honest profile-likelihood grid search, whose
//!   candidates a Kalman filter screens before the leader is factorized.
//! * **GP-discontinuous** avoids the overconfidence by *fixing* `θ = 1`
//!   and setting `α` to the sample variance (Section IV-D), so no search
//!   is needed — callers construct the [`crate::GpConfig`] directly.
//!
//! The noise variance σ²_N is estimated from replicated observations with
//! the paper's pooled estimator in both regimes.

use crate::markov::nuggets;
use crate::{GpConfig, GpModel, Kernel, MarkovChain, ReplicateGroups, Trend};
use adaphet_linalg::{sample_variance, Mat};

/// Width of the screen's confirmation band, relative to `1 + |best screen|`
/// (DESIGN.md §"Screen rule").
const SCREEN_TOL: f64 = 1e-6;

/// Estimate σ²_N from replicated x locations (the paper's estimator,
/// Section IV-D): [`ReplicateGroups::noise_variance`] over the groups of
/// equal `x`. Returns `None` when no location has been measured twice.
pub fn estimate_noise_from_replicates(x: &[f64], y: &[f64]) -> Option<f64> {
    ReplicateGroups::of(x).noise_variance(y)
}

/// Configuration of the profile-likelihood search over the paper's
/// exponential kernel (Eq. 3) with a constant trend.
#[derive(Debug, Clone, PartialEq)]
pub struct MleSearch {
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
        MleSearch { alpha_grid: vec![0.25, 1.0, 4.0], theta_points: 9, theta_center: None }
    }
}

impl MleSearch {
    /// The configuration [`fit_profile_likelihood_with_noise`] returns for
    /// these arguments, read off its screen alone: `Some` only when the
    /// conditioning guard is quiet and the screen confirms its leader and
    /// no other candidate, so that the search would fit that candidate
    /// densely and nothing else. The (θ, α) are grid values, so the
    /// configuration is the dense winner's, bit for bit. Neither a search
    /// nor a fit is run or counted.
    pub fn screened_winner(
        &self,
        x: &[f64],
        y: &[f64],
        var_y: f64,
        noise_var: f64,
        noise_mults: &[f64],
    ) -> Option<GpConfig> {
        let var_y = var_y.max(1e-12);
        let thetas = theta_grid(self, input_span(x));
        let (screens, guard) = screen(self, &thetas, x, y, var_y, noise_var, noise_mults);
        let marks = confirmed(&screens, guard);
        let mut marked = (0..marks.len()).filter(|&i| marks[i]);
        let (Some(i), None) = (marked.next(), marked.next()) else {
            return None;
        };
        let per_theta = self.alpha_grid.len();
        (!guard && screens[i].is_finite()).then(|| GpConfig {
            kernel: Kernel::Exponential { theta: thetas[i / per_theta] },
            process_var: self.alpha_grid[i % per_theta] * var_y,
            noise_var,
            trend: Trend::constant(),
        })
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
/// computed once and shared by every dense fit. Warm starts use the
/// multipliers so the prior pseudo-points stay soft during the
/// hyper-parameter search, not just in the final fit.
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
/// The search screens, then confirms (DESIGN.md §"Screen rule"). The
/// exponential kernel is Markov on a line, so a scalar Kalman filter over
/// the sorted inputs gives every candidate's likelihood in O(d); only the
/// candidates whose screen comes within [`SCREEN_TOL`] of the best one or
/// is not finite — every candidate when the conditioning guard fires — are
/// fitted densely, and the dense fits are folded in nested (θ, α)
/// order, the first of equals winning. An excluded candidate is less
/// likely than the screen's leader, so the fold returns the model the fold
/// over all candidates returns, ties included, bit for bit.
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
    let (screens, guard) = screen(search, &thetas, x, y, var_y, noise_var, noise_mults);
    let marks = confirmed(&screens, guard);
    // Appends the dense fits of the selected candidates to `fits`, tagged
    // with their nested (θ, α) index; R(θ) is evaluated only for a θ with a
    // selected candidate. Says whether a selected fit failed.
    let per_theta = search.alpha_grid.len();
    let fit_where = |select: &dyn Fn(usize) -> bool, fits: &mut Vec<(usize, GpModel)>| {
        let mut failed = false;
        for (t, &theta) in thetas.iter().enumerate() {
            let picked: Vec<usize> =
                (t * per_theta..(t + 1) * per_theta).filter(|&i| select(i)).collect();
            if picked.is_empty() {
                continue;
            }
            let kernel = Kernel::Exponential { theta };
            let corr = kernel.corr_matrix(dists);
            for i in picked {
                let cfg = GpConfig {
                    kernel,
                    process_var: search.alpha_grid[i - t * per_theta] * var_y,
                    noise_var,
                    trend: Trend::constant(),
                };
                match GpModel::fit_with_corr(cfg, x, y, &corr, noise_mults) {
                    Ok(model) => fits.push((i, model)),
                    Err(_) => failed = true,
                }
            }
        }
        failed
    };
    let mut fits = Vec::new();
    // The leader's dense fit is what every excluded candidate was measured
    // against; without it, fit the rest too and restore the nested order.
    if fit_where(&|i| marks[i], &mut fits) {
        fit_where(&|i| !marks[i], &mut fits);
        fits.sort_by_key(|&(i, _)| i);
    }
    // At least the coarsest configuration must have fitted; if literally
    // everything failed, surface the factorization error from a last try.
    match fits.into_iter().map(|(_, model)| model).fold(None, more_likely) {
        Some(m) => Ok(m),
        None => {
            let kernel = Kernel::Exponential { theta: span };
            GpModel::fit_with_corr(
                GpConfig {
                    kernel,
                    process_var: var_y,
                    noise_var: noise_var.max(1e-6 * var_y),
                    trend: Trend::constant(),
                },
                x,
                y,
                &kernel.corr_matrix(dists),
                noise_mults,
            )
        }
    }
}

/// The screen of every (θ, α) candidate, in nested order: its profile log
/// likelihood by the Kalman filter of [`MarkovChain`] — the forward pass
/// alone, under a constant trend, over the inputs and no candidates. Also
/// whether the conditioning guard ([`MarkovChain`]'s) fires for any
/// candidate, so that the dense fit's rounding (or its jitter ladder) could
/// part from the screen.
fn screen(
    search: &MleSearch,
    thetas: &[f64],
    x: &[f64],
    y: &[f64],
    var_y: f64,
    noise_var: f64,
    noise_mults: &[f64],
) -> (Vec<f64>, bool) {
    let (nugget, lo, hi) = nuggets(noise_var, noise_mults, x.len());
    let alphas: Vec<f64> = search.alpha_grid.iter().map(|&am| (am * var_y).max(1e-12)).collect();
    let mut guard = false;
    let mut screens = Vec::with_capacity(thetas.len() * alphas.len());
    let trend = Trend::constant();
    let kernel = Kernel::Exponential { theta: thetas.first().copied().unwrap_or(1.0) };
    let mut chain = MarkovChain::new(&kernel, x, &[]).expect("an exponential kernel");
    for &theta in thetas {
        chain.set_theta(theta);
        for &alpha in &alphas {
            guard |= chain.ill_conditioned(alpha, lo, hi);
            let fit = chain.filter(alpha, &nugget, &trend, y).expect("a one-term trend");
            screens.push(fit.log_likelihood());
        }
    }
    (screens, guard)
}

/// Which candidates a search fits densely: every one whose screen is within
/// [`SCREEN_TOL`]`·(1 + |best|)` of the best finite screen, every one
/// without a finite screen — and all of them when the conditioning guard
/// fires.
fn confirmed(screens: &[f64], guard: bool) -> Vec<bool> {
    let best = screens.iter().filter(|s| s.is_finite()).fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let tol = SCREEN_TOL * (1.0 + best.abs());
    screens.iter().map(|&s| !s.is_finite() || guard || best - s <= tol).collect()
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
        let model = fit_profile_likelihood(&MleSearch::default(), &xs, &ys, 1e-6).unwrap();
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
        let search = MleSearch { theta_center: Some(center), ..Default::default() };
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
        let best = fit_profile_likelihood(&MleSearch::default(), &xs, &ys, 1e-6).unwrap();
        let extreme = GpModel::fit(
            GpConfig {
                kernel: Kernel::Exponential { theta: 1e-3 },
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

    /// One likelihood search's inputs: the rows (inputs, observations,
    /// noise multipliers), the α scale and σ²_N.
    struct Case {
        search: MleSearch,
        xs: Vec<f64>,
        ys: Vec<f64>,
        mults: Vec<f64>,
        var: f64,
        noise: f64,
    }

    impl Case {
        fn screen(&self) -> (Vec<f64>, bool) {
            let thetas = theta_grid(&self.search, input_span(&self.xs));
            screen(&self.search, &thetas, &self.xs, &self.ys, self.var, self.noise, &self.mults)
        }

        /// How many candidates the search fits densely.
        fn confirmed(&self) -> usize {
            let (screens, guard) = self.screen();
            confirmed(&screens, guard).iter().filter(|&&m| m).count()
        }

        /// The screened search.
        fn search(&self) -> GpModel {
            let dists = distances(&self.xs);
            let Case { search, xs, ys, mults, var, noise } = self;
            fit_profile_likelihood_with_noise(search, xs, ys, *var, *noise, &dists, mults).unwrap()
        }

        /// Every candidate's dense fit, in nested (θ, α) order.
        fn dense_fits(&self) -> Vec<GpModel> {
            let var_y = self.var.max(1e-12);
            let mut fits = Vec::new();
            for theta in theta_grid(&self.search, input_span(&self.xs)) {
                let kernel = Kernel::Exponential { theta };
                let corr = kernel.corr_matrix_of(&self.xs);
                for &am in &self.search.alpha_grid {
                    let cfg = GpConfig {
                        kernel,
                        process_var: am * var_y,
                        noise_var: self.noise,
                        trend: Trend::constant(),
                    };
                    fits.extend(GpModel::fit_with_corr(
                        cfg,
                        &self.xs,
                        &self.ys,
                        &corr,
                        &self.mults,
                    ));
                }
            }
            fits
        }

        /// The search the screen replaced: every candidate fitted densely
        /// and folded in nested order with the strict-`>` rule. Kept as the
        /// executable definition of the winner.
        fn exhaustive_oracle(&self) -> GpModel {
            self.dense_fits().into_iter().fold(None, more_likely).expect("a candidate fits")
        }

        /// The screened search's model against the oracle's, bit for bit.
        fn assert_search_is_the_oracle(&self, case: &str) {
            let (got, want) = (self.search(), self.exhaustive_oracle());
            assert_eq!(got.config(), want.config(), "{case}");
            assert_eq!(got.log_likelihood().to_bits(), want.log_likelihood().to_bits(), "{case}");
            for q in -2..70 {
                let (a, b) = (got.predict(q as f64 * 0.9), want.predict(q as f64 * 0.9));
                assert_eq!(
                    (a.mean.to_bits(), a.var.to_bits()),
                    (b.mean.to_bits(), b.var.to_bits()),
                    "{case}"
                );
            }
        }
    }

    /// GP-UCB's init history from DESIGN.md §"Sufficient-statistics rule":
    /// actions 10, 1, 5, 5 on a 10-action table, collapsed. Every distance
    /// is ≥ 4, far beyond the two smallest θ (0.18 and 0.32), so `R` is the
    /// identity to 4e-6 for both and their candidates nearly tie.
    #[test]
    fn screen_confirms_both_candidates_of_a_near_tie() {
        let (raw_xs, raw_ys) = ([10.0, 1.0, 5.0, 5.0], [20.0, 61.0, 17.0, 18.0]);
        let groups = ReplicateGroups::of(&raw_xs);
        let (xs, ys, mults) = groups.collapse(&raw_xs, &raw_ys, &[]);
        let case = Case {
            search: MleSearch::default(),
            xs,
            ys,
            mults,
            var: sample_variance(&raw_ys),
            noise: groups.noise_variance(&raw_ys).unwrap(),
        };
        let (screens, guard) = case.screen();
        assert!(!guard);
        assert!(case.confirmed() >= 2);
        // Without the band, only the screen's leader would be fitted.
        let best = screens.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(screens.iter().filter(|&&s| s == best).count(), 1);
        case.assert_search_is_the_oracle("near tie");
    }

    /// σ²_N = 1e-9 under α = 1e6 on rows with a replicated input: `K` is
    /// as good as singular, so every candidate is fitted densely. The same
    /// history collapsed has distinct inputs, whose `R` keeps `K` well
    /// conditioned, and is screened.
    #[test]
    fn screen_guard_trips_on_a_tiny_nugget_under_a_huge_process_variance() {
        let xs: Vec<f64> = (1..=20).chain([5, 5, 12]).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1000.0 * (0.3 * x).sin() + x).collect();
        let search = MleSearch { alpha_grid: vec![1.0], ..MleSearch::default() };
        let (cx, cy, cm) = ReplicateGroups::of(&xs).collapse(&xs, &ys, &[]);
        let raw = Case { search, xs, ys, mults: Vec::new(), var: 1e6, noise: 1e-9 };
        assert!(raw.screen().1);
        assert_eq!(raw.confirmed(), 9);
        raw.assert_search_is_the_oracle("guard");

        let collapsed = Case { xs: cx, ys: cy, mults: cm, ..raw };
        assert!(!collapsed.screen().1);
        assert_eq!(collapsed.confirmed(), 1);
    }

    /// A tuner-shaped search, raw and collapsed: a replicated history (two
    /// in three with warm multipliers κ), its durations rescaled, σ²_N from
    /// the replicates or at the strategies' floor, a θ center one time in
    /// three.
    fn tuner_searches(seed: u64) -> [Case; 2] {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (xs, ys, mults) = replicated_history(&mut rng);
        let scale = 10f64.powf(rng.random_range(-4.0..2.0));
        let ys: Vec<f64> = ys.iter().map(|y| y * scale).collect();
        let groups = ReplicateGroups::of(&xs);
        let var = sample_variance(&ys);
        let noise = match rng.random_range(0..3) {
            0 => 1e-9,
            _ => groups.noise_variance(&ys).unwrap_or(1e-4 * var).max(1e-9),
        };
        let theta_center = rng.random_bool(0.3).then(|| rng.random_range(0.5..20.0));
        let search = MleSearch { theta_center, ..MleSearch::default() };
        let (cx, cy, cm) = groups.collapse(&xs, &ys, &mults);
        let raw = Case { search, xs, ys, mults, var, noise };
        let collapsed = Case { xs: cx, ys: cy, mults: cm, search: raw.search.clone(), ..raw };
        [raw, collapsed]
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
                let kernel = Kernel::Exponential { theta };
                for &am in &search.alpha_grid {
                    let cfg = GpConfig {
                        kernel,
                        process_var: am * var,
                        noise_var: noise,
                        trend: Trend::constant(),
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

        /// The screened search returns the exhaustive fold's model: same
        /// (θ, α), same likelihood and predictions, bit for bit.
        #[test]
        fn prop_screened_search_is_the_exhaustive_fold_bitwise(seed in 0u64..300) {
            for case in tuner_searches(seed ^ 0x5c7e) {
                case.assert_search_is_the_oracle(&format!("seed {seed}, d = {}", case.xs.len()));
            }
        }

        /// Every screen is its dense fit's likelihood to 1e-9 relative
        /// wherever the conditioning guard lets the screen decide.
        #[test]
        fn prop_every_screen_is_its_dense_likelihood(seed in 0u64..300) {
            for case in tuner_searches(seed ^ 0xacc0) {
                let (screens, guard) = case.screen();
                if guard {
                    continue;
                }
                let dense = case.dense_fits();
                proptest::prop_assert_eq!(dense.len(), screens.len());
                for (&s, fit) in screens.iter().zip(&dense) {
                    let l = fit.log_likelihood();
                    proptest::prop_assert!(
                        (s - l).abs() <= 1e-9 * (1.0 + l.abs()),
                        "seed {}: screen {} vs dense {}", seed, s, l
                    );
                }
            }
        }
    }
}
