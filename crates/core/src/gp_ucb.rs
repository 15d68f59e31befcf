//! Plain GP-UCB (paper Section IV-D, first variant): constant trend,
//! hyper-parameters estimated by maximum likelihood, no problem structure.
//!
//! Every proposal re-runs the (θ, α) likelihood search — α's scale and σ²_N
//! are re-estimated from the data each time, so no factorization survives
//! from one proposal to the next. What keeps the search cheap is that it
//! screens all 27 candidates in O(d) each (the paper's exponential kernel
//! is Markov on a line) and factorizes only the leader, on one row per
//! *distinct action* (the replicates' sufficient statistics), while the
//! two estimators keep reading every observation.

use crate::strategy::{hyper_of, lcb_diagnostics, posterior_points, NOISE_FLOOR};
use crate::warm::{active_prior, prior_best_action, prior_obs, records_with_prior};
use crate::{ActionSpace, DecisionTrace, History, PosteriorSnapshot, Strategy, SurrogatePrior};
use adaphet_gp::{
    fit_profile_likelihood_with_noise, ucb_argmin, GpModel, MleSearch, PairwiseDistances,
    ReplicateGroups, UcbSchedule,
};
use adaphet_store::GpHyper;
use std::borrow::Cow;

/// What one likelihood search consumes. The GP sees one row per *distinct
/// action* ([`ReplicateGroups::collapse`]); the α scale and σ²_N are
/// estimated from every observation. All (θ, α) candidates of a search
/// share σ²_N and the rows, so the likelihood term the collapse drops is
/// the same constant for each of them and the winner is the
/// per-observation search's.
#[derive(Debug, Clone, PartialEq)]
struct MleInputs {
    /// Distinct actions, in first-appearance order (prior rows first).
    xs: Vec<f64>,
    /// Precision-weighted mean duration of each action.
    ys: Vec<f64>,
    /// Nugget multiplier of each action: `1 / Σ_j 1/m_j` over its records
    /// (`m_j` = κ for a prior pseudo-observation, 1 for a live one).
    mults: Vec<f64>,
    /// Sample variance of the raw durations — the scale of the α grid.
    var: f64,
    /// σ²_N, pooled over the raw replicates.
    noise: f64,
    search: MleSearch,
}

/// GP-UCB over node counts.
///
/// Parsimonious initialization (paper): iteration 1 plays all `N` nodes
/// (the application default), iteration 2 the leftmost point, iterations
/// 3–4 the middle of the two (twice — replicates feed the noise
/// estimator). From iteration 5 on, the GP surrogate is refitted each
/// step and the action minimizing `μ(x) − √β_t σ(x)` is played.
///
/// A warm-started instance (see [`Strategy::warm_start`]) folds the
/// prior pseudo-observations into every fit with an inflated nugget,
/// centers the MLE θ grid on the donated length scale, and compresses
/// the initialization to the single all-nodes baseline play.
#[derive(Debug, Clone)]
pub struct GpUcb {
    space: ActionSpace,
    /// β_t schedule.
    pub schedule: UcbSchedule,
    /// Cross-session prior folded into every fit, if warm-started.
    prior: Option<SurrogatePrior>,
    /// Pairwise distances of the distinct actions tried, shared by every
    /// dense fit of the likelihood search and kept across `propose` calls:
    /// a replayed action appends nothing, a new one a bordered row. The
    /// factorizations cannot be kept (α and σ²_N move at every proposal).
    dists: PairwiseDistances,
    /// The inputs and model of the last `propose` that fitted, so that a
    /// traced iteration explains that proposal without searching again.
    kept: Option<(MleInputs, GpModel)>,
}

impl GpUcb {
    /// Strategy over the given space (LP information is ignored — that is
    /// the point of this baseline).
    pub fn new(space: &ActionSpace) -> Self {
        GpUcb {
            space: space.clone(),
            schedule: UcbSchedule::default(),
            prior: None,
            dists: PairwiseDistances::new(),
            kept: None,
        }
    }

    /// The collapsed rows and raw-data estimates of the likelihood search
    /// on `hist`; `None` without enough combined (prior + live) data.
    fn mle_inputs(&self, space: &ActionSpace, hist: &History) -> Option<MleInputs> {
        let prior = prior_obs(&self.prior, space);
        let (records, raw_mults) = records_with_prior(prior.as_ref(), hist);
        if hist.is_empty() || records.len() < 2 {
            return None;
        }
        let raw_xs: Vec<f64> = records.iter().map(|&(a, _)| a as f64).collect();
        let raw_ys: Vec<f64> = records.iter().map(|&(_, y)| y).collect();
        let var = adaphet_linalg::sample_variance(&raw_ys);
        let groups = ReplicateGroups::of(&raw_xs);
        let noise =
            groups.noise_variance(&raw_ys).unwrap_or(1e-4 * var.max(1e-12)).max(NOISE_FLOOR);
        let (xs, ys, mults) = groups.collapse(&raw_xs, &raw_ys, &raw_mults);
        // A donated length scale centers the θ grid (the search narrows
        // to [θ/4, 4θ]); fit.rs falls back to the data-span grid for
        // non-finite or non-positive centers.
        let theta_center =
            active_prior(&self.prior).and_then(|p| p.hyper.as_ref()).map(|h| h.theta);
        let search = MleSearch { theta_center, ..MleSearch::default() };
        Some(MleInputs { xs, ys, mults, var, noise, search })
    }

    /// Fit the surrogate on the full history (public for the step-by-step
    /// visualization of the paper's Fig. 4).
    pub fn fit(&self, hist: &History) -> Option<GpModel> {
        self.fit_in(&self.space, hist, &mut PairwiseDistances::new())
    }

    /// The likelihood search of `inputs` over `dists`, brought in line with
    /// the distinct actions first: `propose` hands in the persistent matrix
    /// (one appended row per newly tried action, rebuilt only when the
    /// history was rewritten), everyone else an empty one — the same
    /// distances, bit for bit.
    fn search(inputs: &MleInputs, dists: &mut PairwiseDistances) -> Option<GpModel> {
        let MleInputs { xs, ys, mults, var, noise, search } = inputs;
        dists.sync(xs);
        fit_profile_likelihood_with_noise(search, xs, ys, *var, *noise, dists.matrix(), mults).ok()
    }

    /// [`Self::search`] of the history's inputs.
    fn fit_in(
        &self,
        space: &ActionSpace,
        hist: &History,
        dists: &mut PairwiseDistances,
    ) -> Option<GpModel> {
        Self::search(&self.mle_inputs(space, hist)?, dists)
    }

    /// The surrogate for `(space, hist)` without touching the persistent
    /// state: the kept model when the last `propose` searched exactly these
    /// inputs (a traced iteration explains the proposal it has just made),
    /// a search over fresh distances otherwise.
    fn model_for(&self, space: &ActionSpace, hist: &History) -> Option<Cow<'_, GpModel>> {
        let inputs = self.mle_inputs(space, hist)?;
        match &self.kept {
            Some((kept, model)) if *kept == inputs => Some(Cow::Borrowed(model)),
            _ => Self::search(&inputs, &mut PairwiseDistances::new()).map(Cow::Owned),
        }
    }

    /// The β_t used at iteration `t` (for visualization).
    pub fn beta(&self, t: usize) -> f64 {
        self.schedule.beta(t.max(1), self.space.max_nodes)
    }
}

impl Strategy for GpUcb {
    fn name(&self) -> &'static str {
        "GP-UCB"
    }

    fn propose(&mut self, space: &ActionSpace, hist: &History) -> usize {
        // Candidates, the init sequence and β_t all follow the *live*
        // space, so a shrunken platform is respected immediately.
        let n = space.max_nodes;
        if hist.is_empty() {
            // Always measure the all-nodes baseline live — even warm:
            // the prior comes from another run (possibly another
            // platform) and cannot substitute for it.
            return n;
        }
        match prior_obs(&self.prior, space) {
            None => {
                // Cold parsimonious initialization, unchanged.
                match hist.len() {
                    1 => return 1.min(n),
                    2 | 3 => return n.div_ceil(2).max(1),
                    _ => {}
                }
            }
            Some((obs, _)) => {
                // Warm: one exploit probe at the donor's best action,
                // then the GP takes over — the prior supplies the data
                // the remaining init plays would have gathered.
                if hist.len() == 1 {
                    if let Some(a) = prior_best_action(&obs, &space.actions()) {
                        return a;
                    }
                }
            }
        }
        let t = hist.len();
        let candidates: Vec<f64> = space.actions().iter().map(|&a| a as f64).collect();
        self.kept = self.mle_inputs(space, hist).and_then(|inputs| {
            let model = Self::search(&inputs, &mut self.dists)?;
            Some((inputs, model))
        });
        match &self.kept {
            Some((_, model)) => {
                let beta = self.schedule.beta(t.max(1), n);
                ucb_argmin(model, &candidates, beta)
                    .map(|x| x.round() as usize)
                    .unwrap_or(n)
                    .clamp(1, n)
            }
            None => hist.best_action().unwrap_or(n).min(n),
        }
    }

    fn explain(&self, space: &ActionSpace, hist: &History) -> DecisionTrace {
        let t = hist.len();
        let warm = prior_obs(&self.prior, space).is_some();
        if t < if warm { 2 } else { 4 } {
            return DecisionTrace::minimal("init");
        }
        match self.model_for(space, hist) {
            Some(model) => {
                let sqrt_beta = self.schedule.beta(t.max(1), space.max_nodes).sqrt();
                let diagnostics =
                    lcb_diagnostics(&model, &space.actions(), sqrt_beta, |_, mean| mean);
                DecisionTrace { diagnostics, excluded: Vec::new(), note: "gp-lcb".into() }
            }
            None => DecisionTrace::minimal("fallback-best-mean"),
        }
    }

    fn posterior_snapshot(&self, space: &ActionSpace, hist: &History) -> Option<PosteriorSnapshot> {
        // No LP curve and no bound mechanism in this baseline: every
        // action is a candidate and `lp_bound` stays empty.
        let model = self.model_for(space, hist)?;
        Some(posterior_points(&model, space, |_, mean| mean, None))
    }

    fn warm_start(&mut self, prior: SurrogatePrior) -> bool {
        // The persistent distance matrix indexed live actions only; a
        // prior prepends rows, so it must be rebuilt from scratch.
        self.dists = PairwiseDistances::new();
        self.prior = Some(prior);
        true
    }

    fn surrogate_hyper(&self, space: &ActionSpace, hist: &History) -> Option<GpHyper> {
        self.model_for(space, hist).as_deref().map(hyper_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(
        strat: &mut dyn Strategy,
        space: &ActionSpace,
        f: impl Fn(usize) -> f64,
        iters: usize,
    ) -> History {
        let mut h = History::new();
        for _ in 0..iters {
            let a = strat.propose(space, &h);
            assert!(a >= 1);
            h.record(a, f(a));
        }
        h
    }

    #[test]
    fn initialization_sequence_matches_paper() {
        let space = ActionSpace::unstructured(14);
        let mut g = GpUcb::new(&space);
        let h = drive(&mut g, &space, |n| n as f64, 4);
        let seq: Vec<usize> = h.records().iter().map(|r| r.0).collect();
        assert_eq!(seq, vec![14, 1, 7, 7]);
    }

    #[test]
    fn finds_minimum_of_smooth_convex_curve() {
        // The paper's simple scenario (their Fig. 4A): a small smooth
        // space — GP-UCB should concentrate near the optimum.
        let space = ActionSpace::unstructured(14);
        let mut g = GpUcb::new(&space);
        let f = |n: usize| 60.0 / n as f64 + 1.2 * n as f64; // min near 7
        let h = drive(&mut g, &space, f, 40);
        let late: Vec<usize> = h.records()[25..].iter().map(|r| r.0).collect();
        let near = late.iter().filter(|&&a| (5..=9).contains(&a)).count();
        assert!(near * 2 > late.len(), "late plays: {late:?}");
    }

    #[test]
    fn does_not_waste_plays_on_clearly_bad_actions() {
        // Paper Fig. 4A observation: some obviously-bad actions are never
        // tried. With a steep curve, the worst distant arms stay unvisited
        // or nearly so.
        let space = ActionSpace::unstructured(14);
        let mut g = GpUcb::new(&space);
        let f = |n: usize| 10.0 + (n as f64 - 6.0).powi(2) * 3.0;
        let h = drive(&mut g, &space, f, 30);
        let wasted = h.count_for(13) + h.count_for(14);
        // 14 is forced at iteration 1; beyond that the far-right should be
        // rarely touched.
        assert!(wasted <= 4, "wasted plays on 13/14: {wasted}");
    }

    #[test]
    fn fit_requires_two_points() {
        let space = ActionSpace::unstructured(5);
        let g = GpUcb::new(&space);
        let mut h = History::new();
        assert!(g.fit(&h).is_none());
        h.record(5, 10.0);
        assert!(g.fit(&h).is_none());
        h.record(1, 20.0);
        assert!(g.fit(&h).is_some());
    }

    #[test]
    fn fit_over_the_persistent_distances_matches_a_fresh_fit_bitwise() {
        let space = ActionSpace::unstructured(14);
        let mut g = GpUcb::new(&space);
        let f = |n: usize| 60.0 / n as f64 + 1.2 * n as f64;
        let mut h = History::new();
        for _ in 0..20 {
            let a = g.propose(&space, &h);
            h.record(a, f(a));
            let mut dists = g.dists.clone();
            match (g.fit_in(&space, &h, &mut dists), g.fit(&h)) {
                (Some(c), Some(s)) => {
                    assert_eq!(c.config(), s.config(), "grid winner differs");
                    assert_eq!(c.log_likelihood(), s.log_likelihood());
                    for q in 1..=14 {
                        assert_eq!(c.predict(q as f64), s.predict(q as f64));
                    }
                }
                (None, None) => {}
                (c, s) => panic!(
                    "persistent/fresh fit availability diverged: {:?} vs {:?}",
                    c.is_some(),
                    s.is_some()
                ),
            }
        }
    }

    #[test]
    fn explaining_the_proposal_just_made_reuses_the_kept_model() {
        let space = ActionSpace::unstructured(14);
        let f = |n: usize| 60.0 / n as f64 + 1.2 * n as f64;
        let mut g = GpUcb::new(&space);
        let mut h = drive(&mut g, &space, f, 20);
        let a = g.propose(&space, &h);
        assert!(matches!(g.model_for(&space, &h), Some(Cow::Borrowed(_))));
        // Any other history is searched afresh, and so is this one once a
        // prior has joined it (`tests/kept_model.rs` counts the searches
        // and holds what the readers return to a fresh strategy's).
        h.record(a, f(a));
        assert!(matches!(g.model_for(&space, &h), Some(Cow::Owned(_))));
        g.propose(&space, &h);
        g.warm_start(prior_over(&space, f));
        assert!(matches!(g.model_for(&space, &h), Some(Cow::Owned(_))));
    }

    #[test]
    fn the_grid_is_sized_by_distinct_actions_and_estimated_on_every_record() {
        let space = ActionSpace::unstructured(14);
        let g = GpUcb::new(&space);
        let mut h = History::new();
        for (a, y) in [(14, 20.0), (1, 61.0), (7, 17.0), (7, 18.0), (14, 21.0), (3, 24.0)] {
            h.record(a, y);
        }
        let inputs = g.mle_inputs(&space, &h).expect("six records");
        assert_eq!(inputs.xs, [14.0, 1.0, 7.0, 3.0]);
        assert_eq!(inputs.ys, [20.5, 61.0, 17.5, 24.0]);
        assert_eq!(inputs.mults, [0.5, 1.0, 0.5, 1.0]);
        let (raw_xs, raw_ys): (Vec<f64>, Vec<f64>) =
            h.records().iter().map(|&(a, y)| (a as f64, y)).unzip();
        assert_eq!(inputs.var, adaphet_linalg::sample_variance(&raw_ys));
        let noise = adaphet_gp::estimate_noise_from_replicates(&raw_xs, &raw_ys).unwrap();
        assert_eq!(inputs.noise.to_bits(), noise.to_bits());
        assert_eq!(g.fit(&h).expect("fitted").n_obs(), 4);
    }

    #[test]
    fn single_node_space_is_trivial() {
        let space = ActionSpace::unstructured(1);
        let mut g = GpUcb::new(&space);
        let h = drive(&mut g, &space, |_| 1.0, 6);
        assert!(h.records().iter().all(|&(a, _)| a == 1));
    }

    fn prior_over(space: &ActionSpace, f: impl Fn(usize) -> f64) -> SurrogatePrior {
        SurrogatePrior {
            observations: space.actions().into_iter().map(|a| (a, f(a))).collect(),
            noise_inflation: crate::PRIOR_NOISE_INFLATION,
            hyper: None,
        }
    }

    #[test]
    fn warm_start_skips_the_cold_initialization_plays() {
        let space = ActionSpace::unstructured(14);
        let f = |n: usize| 60.0 / n as f64 + 1.2 * n as f64; // min near 7
        let mut g = GpUcb::new(&space);
        assert!(g.warm_start(prior_over(&space, f)));
        let h = drive(&mut g, &space, f, 8);
        let seq: Vec<usize> = h.records().iter().map(|r| r.0).collect();
        // Iteration 1 still measures the all-nodes baseline live; after
        // that the GP takes over instead of the 1, mid, mid init plays.
        assert_eq!(seq[0], 14);
        assert_ne!(&seq[1..4], &[1, 7, 7], "init plays must be compressed: {seq:?}");
        // The prior already pins the curve, so the very next plays land
        // near the optimum.
        let near = seq[1..].iter().filter(|&&a| (5..=9).contains(&a)).count();
        assert!(near >= 5, "warm plays should concentrate early: {seq:?}");
    }

    #[test]
    fn warm_runs_are_deterministic_given_the_same_prior() {
        let space = ActionSpace::unstructured(14);
        let f = |n: usize| 60.0 / n as f64 + 1.2 * n as f64;
        let run = || {
            let mut g = GpUcb::new(&space);
            assert!(g.warm_start(prior_over(&space, f)));
            drive(&mut g, &space, f, 10).records().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn out_of_space_prior_points_never_leave_the_live_range() {
        // A prior recorded on a 14-node platform, replayed on a platform
        // that shrank to 6 nodes: proposals must stay in 1..=6.
        let big = ActionSpace::unstructured(14);
        let small = ActionSpace::unstructured(6);
        let f = |n: usize| 60.0 / n as f64 + 1.2 * n as f64;
        let mut g = GpUcb::new(&small);
        assert!(g.warm_start(prior_over(&big, f)));
        let h = drive(&mut g, &small, f, 10);
        assert!(h.records().iter().all(|&(a, _)| (1..=6).contains(&a)), "{:?}", h.records());
    }

    #[test]
    fn empty_prior_is_bitwise_a_cold_start() {
        let space = ActionSpace::unstructured(14);
        let f = |n: usize| 60.0 / n as f64 + 1.2 * n as f64;
        let mut cold = GpUcb::new(&space);
        let mut warm = GpUcb::new(&space);
        assert!(warm.warm_start(SurrogatePrior {
            observations: vec![],
            noise_inflation: crate::PRIOR_NOISE_INFLATION,
            hyper: None,
        }));
        let a = drive(&mut cold, &space, f, 12).records().to_vec();
        let b = drive(&mut warm, &space, f, 12).records().to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn surrogate_hyper_reports_the_fitted_configuration() {
        let space = ActionSpace::unstructured(14);
        let mut g = GpUcb::new(&space);
        let f = |n: usize| 60.0 / n as f64 + 1.2 * n as f64;
        let h = drive(&mut g, &space, f, 10);
        let hyper = g.surrogate_hyper(&space, &h).expect("enough data to fit");
        assert_eq!(hyper.kernel_family, "exponential");
        assert!(hyper.theta > 0.0);
        assert!(hyper.process_var > 0.0);
        assert_eq!(hyper.trend_coefficients.len(), 1, "constant trend");
    }
}
