//! GP-discontinuous — the paper's proposed strategy (Section IV-D) — and
//! plain GP-UCB, which is the same strategy with its ingredients off.
//!
//! Both presets fit one row per distinct action (the replicates'
//! sufficient statistics), fold a warm-start prior in as nugget-inflated
//! pseudo-observations and refit at every proposal — through the Kalman
//! filter and smoother of [`MarkovChain`] first, and densely only when that
//! screen cannot settle the decision. They differ only in
//! these ingredients, which only the constructors set
//! ([`GpDiscontinuous::gp_ucb`], [`GpDiscontinuous::new`] and the
//! [`GpDiscOptions`] ablations of [`GpDiscontinuous::with_options`]):
//!
//! | Ingredient | GP-UCB preset | GP-disc preset |
//! |---|---|---|
//! | Response | `y` | `y − LP` |
//! | Candidates | all actions | bounded actions |
//! | Trend | constant | linear ± group dummies |
//! | Hyper-parameters | the screened MLE (θ, α) search. α's scale is the raw-duration variance, the σ²_N fallback is `1e-4·var`, and it fits from ≥ 2 records with a non-empty live history | θ = 1 and α₀ = residual variance, with a MAD stage 2. The σ²_N fallback is `0.01·α₀`, and it fits from ≥ 3 records |
//! | Init | N, 1, ⌈N/2⌉ twice | the same, plus the group-last probes |
//! | Acquisition | default β with `ucb_argmin`'s 1e-12 tie band. A failed fit falls back to the best-mean action | β δ = 0.1 / scale 0.3, the first strict minimum of `LP + μ − √β·σ`. A failed fit falls back to the least-sampled candidate |
//! | Snapshot `lp_bound` / `excluded` | none | from the candidates |
//!
//! The bounded actions drop every `n` with `LP(n) ≥ y(N)` once the first
//! iteration has measured `y(N)`. The group dummies are one step-function
//! trend term per homogeneous machine group, so the surrogate can jump at
//! the slow-node critical-path discontinuities without breaking the GP's
//! smoothness prior. θ = 1 and the sample variance are the paper's
//! conservative choice (with few points ML is overconfident); σ²_N comes
//! from its pooled replicate estimator in both presets.
//!
//! With the bound off, the bounded leftmost and middle points already are
//! GP-UCB's `1` and `⌈N/2⌉`, and a warm-started session of either preset
//! measures `N` live and then probes the donor's best action once.

use crate::history::median_mad;
use crate::strategy::{hyper_of, lcb_diagnostics, posterior_points, predict_actions, NOISE_FLOOR};
use crate::warm::{active_prior, prior_best_action, prior_obs, records_with_prior};
use crate::{
    ActionDiagnostic, ActionSpace, DecisionTrace, History, PosteriorPoint, PosteriorSnapshot,
    Strategy, SurrogatePrior,
};
use adaphet_gp::{
    fit_profile_likelihood_with_noise, ucb_argmin, GpConfig, GpModel, Kernel, MarkovChain,
    MleSearch, ReplicateGroups, Trend, UcbSchedule,
};
use adaphet_linalg::Mat;
use adaphet_store::GpHyper;
use std::borrow::Cow;
use std::cell::OnceCell;

/// Width of the band by which the screen's leader must beat every other
/// candidate's lower confidence bound, relative to `1 + |its own|`, for the
/// screen to decide a proposal (DESIGN.md §"Screen rule").
const SCREEN_BAND: f64 = 1e-6;

/// What a surrogate fit consumes. The GP sees one row per *distinct
/// action* — the sufficient statistics of the replicated plays
/// ([`ReplicateGroups::collapse`]) — while the hyper-parameter estimators
/// keep reading every observation.
#[derive(Debug, Clone, PartialEq)]
struct FitInputs {
    /// Distinct actions, in first-appearance order (prior rows first).
    xs: Vec<f64>,
    /// Precision-weighted mean response of each action.
    rs: Vec<f64>,
    /// Nugget multiplier of each action: `1 / Σ_j 1/m_j` over its records
    /// (`m_j` = κ for a prior pseudo-observation, 1 for a live one).
    mults: Vec<f64>,
    hyper: Hyper,
    /// Every record's action and response, in observation order.
    raw_xs: Vec<f64>,
    raw_rs: Vec<f64>,
}

/// How a fit sets the hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
enum Hyper {
    /// GP-disc: the two-stage fit from this stage-1 configuration.
    TwoStage(GpConfig),
    /// GP-UCB: the screened likelihood search, its α grid scaled by the
    /// raw variance `var`, with σ²_N = `noise`. Every (θ, α) candidate
    /// shares σ²_N and the rows, so the likelihood term the collapse drops
    /// is one constant for all of them and the winner is the
    /// per-observation search's.
    Mle { search: MleSearch, var: f64, noise: f64 },
}

/// Feature toggles for ablation studies — each switch removes one of the
/// paper's ingredients so its contribution can be quantified in isolation.
#[derive(Debug, Clone, PartialEq)]
pub struct GpDiscOptions {
    /// Apply the LP bound mechanism to prune the search space.
    pub use_bounds: bool,
    /// Include the per-group dummy variables in the trend.
    pub use_dummies: bool,
    /// Model the residual over the LP instead of the raw duration.
    pub use_lp_residual: bool,
}

impl Default for GpDiscOptions {
    fn default() -> Self {
        GpDiscOptions { use_bounds: true, use_dummies: true, use_lp_residual: true }
    }
}

/// The GP strategy: GP-discontinuous, an ablation of it, or plain GP-UCB.
#[derive(Debug, Clone)]
pub struct GpDiscontinuous {
    space: ActionSpace,
    /// β_t schedule of the UCB rule.
    pub schedule: UcbSchedule,
    /// Feature toggles (all on = the paper's strategy; the GP-UCB preset
    /// turns all three off).
    options: GpDiscOptions,
    /// GP-UCB's trend, hyper-parameters, init, acquisition and snapshot
    /// in place of GP-disc's (the module table's left column).
    gp_ucb: bool,
    /// Cross-session prior folded into every fit, if warm-started.
    prior: Option<SurrogatePrior>,
    /// Surrogate state kept warm across `propose` calls.
    surrogate: SurrogateState,
}

/// Surrogate state kept across `propose` calls: the inputs of the last
/// proposal that reached the GP, so that a traced iteration explains that
/// proposal without fitting it again. α and σ²_N are re-estimated from the
/// data at every proposal, so nothing of one fit survives to the next.
#[derive(Debug, Clone, Default)]
struct SurrogateState {
    kept: Option<Kept>,
}

/// The inputs of one proposal and their dense model: filled by the
/// proposal when the screen deferred to it, else by the first reader.
#[derive(Debug, Clone)]
struct Kept {
    inputs: FitInputs,
    /// `None` inside for a failed fit.
    model: OnceCell<Option<GpModel>>,
}

impl GpDiscontinuous {
    /// Build over a space; the LP curve in `space.lp` powers both the
    /// residual trend and the bound mechanism (without it the strategy
    /// degrades gracefully to a grouped-trend GP-UCB).
    pub fn new(space: &ActionSpace) -> Self {
        Self::with_options(space, GpDiscOptions::default())
    }

    /// Build an ablated variant (see [`GpDiscOptions`]).
    pub fn with_options(space: &ActionSpace, options: GpDiscOptions) -> Self {
        // A gentler β than canonical GP-UCB: the trend + bound structure
        // already carries most of the information, so less forced
        // exploration is needed (mirroring the parsimony the paper reports
        // for its DiceKriging-based implementation).
        let schedule = UcbSchedule { delta: 0.1, scale: 0.3 };
        Self::preset(space, schedule, options, false)
    }

    /// Plain GP-UCB (paper Section IV-D, first variant): the raw duration
    /// over every action with a constant trend, hyper-parameters estimated
    /// by maximum likelihood, no problem structure — the LP curve is
    /// ignored, which is the point of this baseline.
    pub fn gp_ucb(space: &ActionSpace) -> Self {
        let off = GpDiscOptions { use_bounds: false, use_dummies: false, use_lp_residual: false };
        Self::preset(space, UcbSchedule::default(), off, true)
    }

    fn preset(
        space: &ActionSpace,
        schedule: UcbSchedule,
        options: GpDiscOptions,
        gp_ucb: bool,
    ) -> Self {
        GpDiscontinuous {
            space: space.clone(),
            schedule,
            options,
            gp_ucb,
            prior: None,
            surrogate: SurrogateState::default(),
        }
    }

    fn lp(&self, space: &ActionSpace, n: usize) -> f64 {
        if !self.options.use_lp_residual {
            return 0.0;
        }
        space.lp_at(n).unwrap_or(0.0)
    }

    /// Candidate actions after the bound mechanism (needs `y(N)`). The
    /// bound baseline is the first observation of the *live* all-nodes
    /// count: after node loss no such observation exists until the driver
    /// re-baselines, and the bound is simply inactive in between.
    fn candidates(&self, space: &ActionSpace, hist: &History) -> Vec<usize> {
        if !self.options.use_bounds {
            return space.actions();
        }
        match hist.first_for(space.max_nodes) {
            Some(y_all) => space.bounded_actions(y_all),
            None => space.actions(),
        }
    }

    /// The initialization point for iteration `t`, or `None` once the GP
    /// phase should take over: all nodes → bounded leftmost → middle twice
    /// (replicates feed the noise estimator) → for GP-disc, the last point
    /// of each (bounded) group once.
    ///
    /// Warm-started sessions compress the parsimonious sequence to two
    /// points: all nodes must still be measured live (the bound
    /// mechanism's `y(N)` reference cannot come from another platform),
    /// followed by one exploit probe at the donor's best action — the
    /// leftmost/middle/group probes exist only to make the first fit
    /// possible, and the prior pseudo-observations already do that.
    fn init_action(&self, space: &ActionSpace, hist: &History, cands: &[usize]) -> Option<usize> {
        let n = space.max_nodes;
        let t = hist.len();
        if t == 0 {
            return Some(n);
        }
        if let Some((obs, _)) = prior_obs(&self.prior, space) {
            // One exploit probe at the donor's best candidate (the warm
            // analogue of the cold sequence's near-optimal `nl` play),
            // then the GP takes over. `None` — donor optimum excluded by
            // the live bound or never observed — skips straight to the GP.
            if t == 1 {
                return prior_best_action(&obs, cands);
            }
            return None;
        }
        let nl = *cands.first().expect("bounded set non-empty");
        if t == 1 {
            return Some(nl);
        }
        let mid = ((nl + n) / 2).clamp(1, n);
        if t == 2 || t == 3 {
            return Some(mid);
        }
        if self.gp_ucb {
            return None;
        }
        // Group-last measurements: the last point of each group inside the
        // bounded region, except the final group (N is already measured).
        // If a group's last point is taken, evaluate the next point.
        let k = t - 4;
        let mut probes = Vec::new();
        for &(_, hi) in &space.groups {
            if hi >= n {
                continue; // the all-nodes group is already covered
            }
            if !cands.contains(&hi) {
                continue; // excluded by the bound mechanism
            }
            let probe = if hist.count_for(hi) == 0 {
                hi
            } else {
                // "we choose to evaluate the next point"
                let next = hi + 1;
                if next <= n && hist.count_for(next) == 0 && cands.contains(&next) {
                    next
                } else {
                    continue;
                }
            };
            probes.push(probe);
        }
        probes.get(k).copied()
    }

    /// The collapsed observations and hyper-parameter rule of the surrogate
    /// over the candidate set `cands` ([`Self::candidates`]); `None` with
    /// too little data. Warm-started sessions put the prior
    /// pseudo-observations (nugget inflated by κ) ahead of the live history.
    ///
    /// The variances are estimated from the raw per-observation responses;
    /// only the rows handed to the GP are collapsed, which leaves its
    /// posterior and trend unchanged (up to rounding) while every
    /// factorization and posterior scan is sized by the actions tried
    /// instead of the iterations run.
    fn fit_inputs(
        &self,
        space: &ActionSpace,
        hist: &History,
        cands: &[usize],
    ) -> Option<FitInputs> {
        let prior = prior_obs(&self.prior, space);
        let (records, raw_mults) = records_with_prior(prior.as_ref(), hist);
        let too_few =
            if self.gp_ucb { hist.is_empty() || records.len() < 2 } else { records.len() < 3 };
        if too_few {
            return None;
        }
        let raw_xs: Vec<f64> = records.iter().map(|&(a, _)| a as f64).collect();
        let raw_rs: Vec<f64> = records.iter().map(|&(a, y)| y - self.lp(space, a)).collect();
        let var = adaphet_linalg::sample_variance(&raw_rs);
        let groups = ReplicateGroups::of(&raw_xs);
        let hyper = if self.gp_ucb {
            let noise =
                groups.noise_variance(&raw_rs).unwrap_or(1e-4 * var.max(1e-12)).max(NOISE_FLOOR);
            // A donated length scale centers the θ grid (the search narrows
            // to [θ/4, 4θ]); fit.rs falls back to the data-span grid for
            // non-finite or non-positive centers.
            let theta_center =
                active_prior(&self.prior).and_then(|p| p.hyper.as_ref()).map(|h| h.theta);
            Hyper::Mle { search: MleSearch { theta_center, ..MleSearch::default() }, var, noise }
        } else {
            // Trend: linear + dummies, but only for groups with data (an
            // all-zero dummy column would make the GLS rank deficient).
            let trend = if self.options.use_dummies {
                let groups_with_data: Vec<(usize, usize)> = space
                    .groups
                    .iter()
                    .copied()
                    .filter(|&(lo, hi)| {
                        records.iter().any(|&(a, _)| a >= lo && a <= hi)
                            && cands.iter().any(|&c| c >= lo && c <= hi)
                    })
                    .collect();
                Trend::linear_with_group_dummies(&groups_with_data)
            } else {
                Trend::linear()
            };
            // θ = 1 and α = sample variance (the paper's conservative fix).
            // The variance is taken on the *detrended* residuals: the linear
            // + dummy trend absorbs the large-scale variation, and α should
            // only cover what is left for the GP — using the raw variance
            // would inflate the confidence bands on wide action spaces and
            // cause pointless exploration.
            let alpha0 = var.max(NOISE_FLOOR);
            let noise = groups.noise_variance(&raw_rs).unwrap_or(0.01 * alpha0).max(NOISE_FLOOR);
            Hyper::TwoStage(GpConfig {
                kernel: Kernel::Exponential { theta: 1.0 },
                process_var: alpha0,
                noise_var: noise,
                trend,
            })
        };
        let (xs, rs, mults) = groups.collapse(&raw_xs, &raw_rs, &raw_mults);
        Some(FitInputs { xs, rs, mults, hyper, raw_xs, raw_rs })
    }

    /// The MAD-robust stage-2 process variance given the stage-1 trend
    /// coefficients.
    fn stage2_alpha(coefficients: &[f64], cfg: &GpConfig, inputs: &FitInputs) -> f64 {
        let detrended: Vec<f64> = inputs
            .raw_xs
            .iter()
            .zip(&inputs.raw_rs)
            .map(|(&x, &r)| r - cfg.trend.mean(x, coefficients))
            .collect();
        // Robust scale (MAD) so a single outlier iteration (a system
        // hiccup) does not blow the bands open for the rest of the run.
        robust_variance(&detrended).max(0.1 * cfg.process_var).max(4.0 * cfg.noise_var).max(1e-9)
    }

    /// Fit the surrogate over the construction space; `None` with too
    /// little data or a failed fit (public for the step-by-step
    /// visualization of the paper's Fig. 4).
    pub fn fit(&self, hist: &History) -> Option<GpModel> {
        self.model_for(&self.space, hist, &self.candidates(&self.space, hist)).map(Cow::into_owned)
    }

    /// The two-stage fit from `cfg` over `corr`, the kernel correlation
    /// matrix of `inputs.xs`: a pilot fit with α₀, then — unless the
    /// MAD-robust α of its detrended residuals equals α₀ — the tuned fit.
    /// Both stages fix θ = 1, so they share `corr` and differ only in how
    /// they scale it.
    fn two_stage(inputs: &FitInputs, cfg: &GpConfig, corr: &Mat) -> Option<GpModel> {
        let FitInputs { xs, rs, mults, .. } = inputs;
        let first = GpModel::fit_with_corr(cfg.clone(), xs, rs, corr, mults).ok()?;
        let alpha = Self::stage2_alpha(first.trend_coefficients(), cfg, inputs);
        if (alpha - cfg.process_var).abs() < 1e-12 {
            return Some(first);
        }
        let cfg2 = GpConfig { process_var: alpha, ..cfg.clone() };
        GpModel::fit_with_corr(cfg2, xs, rs, corr, mults).ok()
    }

    /// The dense surrogate of `inputs`: the two-stage fit over the kernel's
    /// correlation matrix, or the likelihood search over the pairwise
    /// distances. `None` for a failed fit.
    fn fit_over(inputs: &FitInputs) -> Option<GpModel> {
        let FitInputs { xs, rs, mults, .. } = inputs;
        match &inputs.hyper {
            Hyper::TwoStage(cfg) => Self::two_stage(inputs, cfg, &cfg.kernel.corr_matrix_of(xs)),
            Hyper::Mle { search, var, noise } => {
                let d = Mat::from_fn(xs.len(), xs.len(), |i, j| (xs[i] - xs[j]).abs());
                fit_profile_likelihood_with_noise(search, xs, rs, *var, *noise, &d, mults).ok()
            }
        }
    }

    /// The proposal among `cands`, when the state-space screen settles it:
    /// the hyper-parameters the dense fit would choose (GP-disc: the pilot's
    /// trend coefficients into the same MAD rule; GP-UCB: the likelihood
    /// screen's lone confirmed (θ, α)), the posterior of every candidate
    /// from one filter and smoother, and a leader whose lower confidence
    /// bound, spelled as the dense rule spells it, beats every other
    /// candidate's by more than [`SCREEN_BAND`]. `None` — go dense — when
    /// any step is not sure.
    fn screened(
        &self,
        space: &ActionSpace,
        inputs: &FitInputs,
        cands: &[usize],
        sqrt_beta: f64,
    ) -> Option<usize> {
        let FitInputs { xs, rs, mults, .. } = inputs;
        let points: Vec<f64> = cands.iter().map(|&a| a as f64).collect();
        let config = match &inputs.hyper {
            Hyper::TwoStage(cfg) => cfg.clone(),
            Hyper::Mle { search, var, noise } => {
                search.screened_winner(xs, rs, *var, *noise, mults)?
            }
        };
        let chain = MarkovChain::new(&config.kernel, xs, &points)?;
        let mut fit = chain.fit(&config, rs, mults)?;
        if let Hyper::TwoStage(cfg) = &inputs.hyper {
            let alpha = Self::stage2_alpha(fit.coefficients(), cfg, inputs);
            let step = (alpha - cfg.process_var).abs();
            // `two_stage` keeps the pilot below a step of 1e-12: a step that
            // close to the threshold could fall on its other side densely.
            if !step.is_finite() || (step - 1e-12).abs() <= 1e-9 * cfg.process_var {
                return None;
            }
            if step >= 1e-12 {
                fit = chain.fit(&GpConfig { process_var: alpha, ..config }, rs, mults)?;
            }
        }
        let lcbs: Vec<f64> = cands
            .iter()
            .zip(fit.predict())
            .map(|(&a, p)| self.lp(space, a) + p.mean - sqrt_beta * p.sd())
            .collect();
        clear_leader(&lcbs).map(|i| cands[i])
    }

    /// The surrogate for `(space, hist)` without touching the persistent
    /// state: the kept model when the last `propose` had exactly these
    /// inputs (a traced iteration explains the proposal it has just made;
    /// the first reader fits it, the rest share it), a fresh fit otherwise.
    fn model_for(
        &self,
        space: &ActionSpace,
        hist: &History,
        cands: &[usize],
    ) -> Option<Cow<'_, GpModel>> {
        let inputs = self.fit_inputs(space, hist, cands)?;
        match &self.surrogate.kept {
            Some(kept) if kept.inputs == inputs => {
                kept.model.get_or_init(|| Self::fit_over(&inputs)).as_ref().map(Cow::Borrowed)
            }
            _ => Self::fit_over(&inputs).map(Cow::Owned),
        }
    }

    /// The proposal without a surrogate (too little data or a failed fit):
    /// GP-UCB plays the best mean so far, GP-disc measures the least-sampled
    /// candidate.
    fn fallback(&self, space: &ActionSpace, hist: &History, cands: &[usize]) -> usize {
        if self.gp_ucb {
            let n = space.max_nodes;
            return hist.best_action().unwrap_or(n).min(n);
        }
        cands
            .iter()
            .copied()
            .min_by_key(|&a| (hist.count_for(a), a))
            .expect("bounded set non-empty")
    }

    /// Full surrogate curve for visualization (paper Fig. 4): the
    /// [`posterior_snapshot`](Strategy::posterior_snapshot) over the
    /// construction space.
    pub fn surrogate_curve(&self, hist: &History) -> Option<Vec<PosteriorPoint>> {
        self.posterior_snapshot(&self.space, hist).map(|s| s.points)
    }
}

/// The index of the least of `lcbs` when every value is finite and it beats
/// each other one by more than [`SCREEN_BAND`]`·(1 + |least|)`.
fn clear_leader(lcbs: &[f64]) -> Option<usize> {
    if !lcbs.iter().all(|v| v.is_finite()) {
        return None;
    }
    let (lead, &least) = lcbs.iter().enumerate().min_by(|a, b| a.1.total_cmp(b.1))?;
    let band = SCREEN_BAND * (1.0 + least.abs());
    lcbs.iter().enumerate().all(|(i, &v)| i == lead || v - least > band).then_some(lead)
}

/// Outlier-robust variance estimate: `(1.4826 · MAD)²` (consistent with
/// the normal variance), falling back to the sample variance for fewer
/// than four points.
fn robust_variance(xs: &[f64]) -> f64 {
    if xs.len() < 4 {
        return adaphet_linalg::sample_variance(xs);
    }
    (1.4826 * median_mad(xs).1).powi(2)
}

impl Strategy for GpDiscontinuous {
    fn name(&self) -> &'static str {
        if self.gp_ucb {
            "GP-UCB"
        } else {
            "GP-discontinuous"
        }
    }

    fn propose(&mut self, space: &ActionSpace, hist: &History) -> usize {
        let cands = self.candidates(space, hist);
        if let Some(a) = self.init_action(space, hist, &cands) {
            return a;
        }
        // Free the last model first: it and the next one are never both
        // needed, and each holds a d × d factor.
        self.surrogate.kept = None;
        let Some(inputs) = self.fit_inputs(space, hist, &cands) else {
            return self.fallback(space, hist, &cands);
        };
        let beta = self.schedule.beta(hist.len().max(1), cands.len());
        let sqrt_beta = beta.sqrt();
        let recorder = adaphet_metrics::global();
        if let Some(a) = self.screened(space, &inputs, &cands, sqrt_beta) {
            recorder.add("gp.screen.decided", 1.0);
            self.surrogate.kept = Some(Kept { inputs, model: OnceCell::new() });
            return a;
        }
        recorder.add("gp.screen.deferred", 1.0);
        let model = Self::fit_over(&inputs);
        let a = match &model {
            Some(model) if self.gp_ucb => {
                let xs: Vec<f64> = cands.iter().map(|&a| a as f64).collect();
                ucb_argmin(model, &xs, beta).expect("candidates non-empty") as usize
            }
            Some(model) => cands
                .iter()
                .zip(predict_actions(model, &cands))
                .map(|(&a, p)| (a, self.lp(space, a) + p.mean - sqrt_beta * p.sd()))
                .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
                .map(|(a, _)| a)
                .expect("bounded set non-empty"),
            None => self.fallback(space, hist, &cands),
        };
        self.surrogate.kept = Some(Kept { inputs, model: OnceCell::from(model) });
        a
    }

    fn explain(&self, space: &ActionSpace, hist: &History) -> DecisionTrace {
        let cands = self.candidates(space, hist);
        let excluded: Vec<usize> =
            space.actions().into_iter().filter(|a| !cands.contains(a)).collect();
        let (diagnostics, note) = if self.init_action(space, hist, &cands).is_some() {
            (Vec::new(), "init")
        } else {
            match self.model_for(space, hist, &cands) {
                Some(model) => {
                    let sqrt_beta = self.schedule.beta(hist.len().max(1), cands.len()).sqrt();
                    let lcb = lcb_diagnostics(&model, &cands, sqrt_beta, |a, mean| {
                        self.lp(space, a) + mean
                    });
                    (lcb, "gp-lcb")
                }
                None if self.gp_ucb => (Vec::new(), "fallback-best-mean"),
                None => {
                    let least_sampled = cands
                        .iter()
                        .map(|&a| ActionDiagnostic {
                            action: a,
                            mean: hist.mean_for(a).unwrap_or(f64::NAN),
                            sd: f64::NAN,
                            acquisition: hist.count_for(a) as f64,
                        })
                        .collect();
                    (least_sampled, "fallback-least-sampled")
                }
            }
        };
        DecisionTrace { diagnostics, excluded, note: note.into() }
    }

    fn posterior_snapshot(&self, space: &ActionSpace, hist: &History) -> Option<PosteriorSnapshot> {
        let cands = self.candidates(space, hist);
        let model = self.model_for(space, hist, &cands)?;
        let bounds = (!self.gp_ucb).then_some(&cands[..]);
        Some(posterior_points(&model, space, |a, mean| self.lp(space, a) + mean, bounds))
    }

    fn warm_start(&mut self, prior: SurrogatePrior) -> bool {
        // The kept surrogate was built without the prior prefix: drop it.
        self.surrogate = SurrogateState::default();
        self.prior = Some(prior);
        true
    }

    fn surrogate_hyper(&self, space: &ActionSpace, hist: &History) -> Option<GpHyper> {
        self.model_for(space, hist, &self.candidates(space, hist)).as_deref().map(hyper_of)
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
            h.record(a, f(a));
        }
        h
    }

    /// LP curve of a convex-ish response.
    fn lp_curve(n: usize, work: f64) -> Vec<f64> {
        (1..=n).map(|k| work / k as f64).collect()
    }

    /// Both presets, for the properties they share.
    const PRESETS: [fn(&ActionSpace) -> GpDiscontinuous; 2] =
        [GpDiscontinuous::new, GpDiscontinuous::gp_ucb];

    #[test]
    fn first_iteration_uses_all_nodes() {
        let space = ActionSpace::new(12, vec![], Some(lp_curve(12, 60.0)));
        let mut g = GpDiscontinuous::new(&space);
        assert_eq!(g.propose(&space, &History::new()), 12);
    }

    #[test]
    fn bound_mechanism_skips_hopeless_left_points() {
        // y(12) = 8; LP(n) = 60/n, so LP >= 8 for n <= 7: leftmost = 8.
        let space = ActionSpace::new(12, vec![], Some(lp_curve(12, 60.0)));
        let mut g = GpDiscontinuous::new(&space);
        let mut h = History::new();
        h.record(12, 8.0);
        let second = g.propose(&space, &h);
        assert_eq!(second, 8, "leftmost bounded point");
        // And the strategy never proposes a bounded-out point: with
        // y(12) = f(12) = 8.6, LP(n) = 60/n >= 8.6 for n <= 6.
        let f = |n: usize| 60.0 / n as f64 + 0.3 * n as f64;
        let h = drive(&mut GpDiscontinuous::new(&space), &space, f, 40);
        // First iteration is forced to 12; later ones respect the bound.
        for &(a, _) in &h.records()[1..] {
            assert!(a >= 7, "proposed bounded-out action {a}");
        }
    }

    #[test]
    fn initialization_measures_group_boundaries() {
        let space = ActionSpace::new(
            12,
            vec![(1, 4), (5, 8), (9, 12)],
            Some(lp_curve(12, 1.0)), // weak bound: LP(1) = 1 < y(12), nothing filtered
        );
        let mut g = GpDiscontinuous::new(&space);
        let f = |n: usize| 1.0 / n as f64 + 0.2 * n as f64;
        let h = drive(&mut g, &space, f, 8);
        let seq: Vec<usize> = h.records().iter().map(|r| r.0).collect();
        // N, leftmost, mid, mid, then group lasts 4 and 8.
        assert_eq!(&seq[..4], &[12, 1, 6, 6]);
        assert!(seq[4..6].contains(&4), "group-1 boundary probed: {seq:?}");
        assert!(seq[4..6].contains(&8), "group-2 boundary probed: {seq:?}");
    }

    #[test]
    fn converges_on_smooth_curve() {
        let space = ActionSpace::new(20, vec![], Some(lp_curve(20, 100.0)));
        let mut g = GpDiscontinuous::new(&space);
        let f = |n: usize| 100.0 / n as f64 + 0.9 * n as f64; // min near 10-11
        let h = drive(&mut g, &space, f, 60);
        let late: Vec<usize> = h.records()[40..].iter().map(|r| r.0).collect();
        let near = late.iter().filter(|&&a| (9..=13).contains(&a)).count();
        assert!(near * 2 > late.len(), "late plays: {late:?}");
    }

    #[test]
    fn handles_group_discontinuity() {
        // Adding the slow group (n > 6) causes a jump (critical path).
        // Optimum is exactly at the boundary n = 6.
        let space = ActionSpace::new(16, vec![(1, 6), (7, 16)], Some(lp_curve(16, 48.0)));
        let mut g = GpDiscontinuous::new(&space);
        let f = |n: usize| {
            let base = 48.0 / n as f64 + 0.4 * n as f64;
            if n > 6 {
                base + 6.0
            } else {
                base
            }
        };
        let h = drive(&mut g, &space, f, 60);
        let best_by_truth = (1..=16).min_by(|&a, &b| f(a).partial_cmp(&f(b)).unwrap()).unwrap();
        let late: Vec<usize> = h.records()[40..].iter().map(|r| r.0).collect();
        let near = late.iter().filter(|&&a| (a as i64 - best_by_truth as i64).abs() <= 1).count();
        assert!(near * 2 > late.len(), "true best {best_by_truth}, late plays {late:?}");
    }

    #[test]
    fn noise_resilient_convergence() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let space = ActionSpace::new(15, vec![], Some(lp_curve(15, 75.0)));
        let mut g = GpDiscontinuous::new(&space);
        let mut h = History::new();
        let truth = |n: usize| 75.0 / n as f64 + 1.0 * n as f64; // min ~8-9
        for _ in 0..80 {
            let a = g.propose(&space, &h);
            let noise: f64 = rng.random_range(-0.5..0.5);
            h.record(a, truth(a) + noise);
        }
        let late: Vec<usize> = h.records()[60..].iter().map(|r| r.0).collect();
        let near = late.iter().filter(|&&a| (7..=11).contains(&a)).count();
        assert!(near * 2 > late.len(), "late plays: {late:?}");
    }

    #[test]
    fn surrogate_curve_brackets_truth_on_measured_points() {
        let space = ActionSpace::new(10, vec![], Some(lp_curve(10, 40.0)));
        let mut g = GpDiscontinuous::new(&space);
        let f = |n: usize| 40.0 / n as f64 + 0.5 * n as f64;
        let h = drive(&mut g, &space, f, 25);
        let curve = g.surrogate_curve(&h).expect("fit succeeds");
        assert_eq!(curve.len(), 10);
        for p in curve.iter().filter(|p| h.count_for(p.action) >= 2) {
            let truth = f(p.action);
            assert!(
                (p.mean - truth).abs() <= 4.0 * p.sd + 0.5,
                "n={} mean={} truth={} sd={}",
                p.action,
                p.mean,
                truth,
                p.sd
            );
        }
    }

    #[test]
    fn ablated_variants_behave_differently() {
        // Without the bound mechanism, the leftmost initialization point
        // is 1 instead of the LP-pruned leftmost.
        let space = ActionSpace::new(12, vec![], Some(lp_curve(12, 60.0)));
        let mut full = GpDiscontinuous::new(&space);
        let mut no_bounds = GpDiscontinuous::with_options(
            &space,
            GpDiscOptions { use_bounds: false, ..Default::default() },
        );
        let mut h = History::new();
        h.record(12, 8.0); // LP(n) >= 8 for n <= 7
        assert_eq!(full.propose(&space, &h), 8);
        assert_eq!(no_bounds.propose(&space, &h), 1);

        // Without the LP residual, the modeled mean is the raw duration.
        let no_lp = GpDiscontinuous::with_options(
            &space,
            GpDiscOptions { use_lp_residual: false, ..Default::default() },
        );
        let f = |n: usize| 60.0 / n as f64 + 0.5 * n as f64;
        let mut h = History::new();
        let mut full2 = GpDiscontinuous::new(&space);
        for _ in 0..12 {
            let a = full2.propose(&space, &h);
            h.record(a, f(a));
        }
        let c_full = full2.surrogate_curve(&h).unwrap();
        let c_nolp = no_lp.surrogate_curve(&h).unwrap();
        // Means differ away from data (the LP carries the 1/x shape).
        let diff: f64 = c_full.iter().zip(&c_nolp).map(|(a, b)| (a.mean - b.mean).abs()).sum();
        assert!(diff > 1e-6, "LP residual must change the surrogate");
    }

    #[test]
    fn outlier_observation_does_not_derail_convergence() {
        // StarPU's scheduler tolerates outlier tasks; the tuner must
        // tolerate an outlier *iteration* (e.g. a system hiccup): inject
        // one 20x duration early and check convergence still happens.
        let space = ActionSpace::new(15, vec![], Some(lp_curve(15, 75.0)));
        let mut g = GpDiscontinuous::new(&space);
        let mut h = History::new();
        let truth = |n: usize| 75.0 / n as f64 + 1.0 * n as f64; // min ~8-9
        for it in 0..60 {
            let a = g.propose(&space, &h);
            let mut y = truth(a);
            if it == 6 {
                y *= 20.0; // outlier
            }
            h.record(a, y);
        }
        let late: Vec<usize> = h.records()[45..].iter().map(|r| r.0).collect();
        let near = late.iter().filter(|&&a| (7..=11).contains(&a)).count();
        assert!(near * 2 > late.len(), "late plays after outlier: {late:?}");
    }

    #[test]
    fn zero_variance_replicates_do_not_break_the_fit() {
        // Deterministic observations give a pooled noise estimate of 0;
        // the fit must fall back to a positive nugget, not a singular K.
        let space = ActionSpace::new(8, vec![], Some(lp_curve(8, 16.0)));
        let mut g = GpDiscontinuous::new(&space);
        let mut h = History::new();
        for _ in 0..20 {
            let a = g.propose(&space, &h);
            h.record(a, 16.0 / a as f64 + a as f64); // exactly repeatable
        }
        assert!(g.fit(&h).is_some(), "fit must survive zero-variance replicates");
    }

    #[test]
    fn proposals_over_the_persistent_r_match_fresh_fit_decisions() {
        // The state kept across proposals must never change a decision:
        // replay a whole tuning run and recompute each proposal from a
        // fresh strategy's fit with identical scoring.
        let space = ActionSpace::new(16, vec![(1, 6), (7, 16)], Some(lp_curve(16, 48.0)));
        let mut g = GpDiscontinuous::new(&space);
        let f = |n: usize| {
            let base = 48.0 / n as f64 + 0.4 * n as f64;
            if n > 6 {
                base + 6.0
            } else {
                base
            }
        };
        let mut h = History::new();
        for it in 0..40 {
            let a = g.propose(&space, &h);
            let fresh = GpDiscontinuous::new(&space);
            let cands = fresh.candidates(&space, &h);
            let expected = match fresh.init_action(&space, &h, &cands) {
                Some(e) => e,
                None => match fresh.fit(&h) {
                    Some(model) => {
                        let beta = fresh.schedule.beta(h.len().max(1), cands.len());
                        cands
                            .iter()
                            .map(|&c| {
                                let p = model.predict(c as f64);
                                (c, fresh.lp(&space, c) + p.mean - beta.sqrt() * p.sd())
                            })
                            .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
                            .map(|(c, _)| c)
                            .unwrap()
                    }
                    None => cands.iter().copied().min_by_key(|&c| (h.count_for(c), c)).unwrap(),
                },
            };
            assert_eq!(a, expected, "persistent and fresh decisions diverged at iteration {it}");
            h.record(a, f(a));
        }
    }

    /// The decision `propose` made before the screen: the dense surrogate
    /// of a strategy that never proposed, scored one candidate at a time
    /// by the preset's rule.
    fn dense_decision(fresh: &GpDiscontinuous, space: &ActionSpace, h: &History) -> usize {
        let cands = fresh.candidates(space, h);
        if let Some(a) = fresh.init_action(space, h, &cands) {
            return a;
        }
        let beta = fresh.schedule.beta(h.len().max(1), cands.len());
        match fresh.model_for(space, h, &cands) {
            Some(model) if fresh.gp_ucb => {
                let xs: Vec<f64> = cands.iter().map(|&c| c as f64).collect();
                ucb_argmin(&model, &xs, beta).unwrap() as usize
            }
            Some(model) => cands
                .iter()
                .map(|&c| {
                    let p = model.predict(c as f64);
                    (c, fresh.lp(space, c) + p.mean - beta.sqrt() * p.sd())
                })
                .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
                .map(|(c, _)| c)
                .unwrap(),
            None => fresh.fallback(space, h, &cands),
        }
    }

    /// Whether the last proposal of `g` was decided by the screen: it kept
    /// its inputs with no dense model yet.
    fn decided(g: &GpDiscontinuous) -> bool {
        g.surrogate.kept.as_ref().is_some_and(|k| k.model.get().is_none())
    }

    /// GP-disc with a linear trend over a history symmetric about the
    /// middle action, which is the worst: the lower confidence bounds of
    /// `a` and `10 − a` tie in mathematics, so the screen defers and the
    /// dense rule breaks the tie.
    #[test]
    fn an_exact_lcb_tie_defers_to_the_dense_rule() {
        let space = ActionSpace::unstructured(9);
        let linear = || {
            GpDiscontinuous::with_options(
                &space,
                GpDiscOptions { use_dummies: false, ..Default::default() },
            )
        };
        let mut g = linear();
        let mut h = History::new();
        for (a, y) in [(9, 10.0), (1, 10.0), (5, 26.0), (5, 27.0)] {
            h.record(a, y);
        }
        let cands = g.candidates(&space, &h);
        assert!(g.init_action(&space, &h, &cands).is_none(), "the GP decides");
        let inputs = g.fit_inputs(&space, &h, &cands).unwrap();
        let sqrt_beta = g.schedule.beta(h.len(), cands.len()).sqrt();
        assert_eq!(g.screened(&space, &inputs, &cands, sqrt_beta), None);
        let a = g.propose(&space, &h);
        assert!(!decided(&g));
        assert_eq!(a, dense_decision(&linear(), &space, &h));
        let model = g.fit(&h).unwrap();
        let lcb = |c: usize| {
            let p = model.predict(c as f64);
            p.mean - sqrt_beta * p.sd()
        };
        assert!((lcb(a) - lcb(10 - a)).abs() < 1e-9 && a != 5, "{a} ties with {}", 10 - a);
    }

    /// GP-disc with one distinct action per machine group: the linear term
    /// lies in the span of the three dummies, so the trend is rank
    /// deficient; the screen's pivot guard defers to the dense path.
    #[test]
    fn a_rank_deficient_trend_defers_to_the_dense_rule() {
        let space = ActionSpace::new(12, vec![(1, 4), (5, 8), (9, 12)], Some(lp_curve(12, 1.0)));
        let mut g = GpDiscontinuous::new(&space);
        let mut h = History::new();
        for (a, y) in [(12, 10.0), (4, 12.0), (8, 9.0), (12, 10.5), (4, 12.5), (8, 9.5)] {
            h.record(a, y);
        }
        let cands = g.candidates(&space, &h);
        assert!(g.init_action(&space, &h, &cands).is_none(), "the GP decides");
        let inputs = g.fit_inputs(&space, &h, &cands).unwrap();
        assert_eq!(inputs.xs.len(), 3);
        let Hyper::TwoStage(cfg) = &inputs.hyper else { panic!("GP-disc fits in two stages") };
        assert_eq!(cfg.trend.len(), 4, "x and three dummies over three rows");
        let chain = MarkovChain::new(&cfg.kernel, &inputs.xs, &[]).unwrap();
        assert!(chain.fit(cfg, &inputs.rs, &inputs.mults).is_none(), "the pivot guard fires");
        let sqrt_beta = g.schedule.beta(h.len(), cands.len()).sqrt();
        assert_eq!(g.screened(&space, &inputs, &cands, sqrt_beta), None);
        let a = g.propose(&space, &h);
        assert!(!decided(&g));
        assert_eq!(a, dense_decision(&GpDiscontinuous::new(&space), &space, &h));
    }

    /// A seeded session table: `work/n` plus a per-node cost and a jump per
    /// machine group, with multiplicative noise.
    fn random_table(rng: &mut rand::rngs::StdRng) -> (ActionSpace, impl Fn(usize, f64) -> f64) {
        use rand::Rng;
        let n = rng.random_range(12usize..=48);
        let cut = rng.random_range(3..n - 2);
        let groups = vec![(1, cut), (cut + 1, n)];
        let work = rng.random_range(40.0..400.0);
        let (slope, jump) = (rng.random_range(0.05..1.0), rng.random_range(0.0..8.0));
        let space = ActionSpace::new(n, groups, Some(lp_curve(n, work)));
        let f = move |a: usize, noise: f64| {
            let step = if a > cut { jump } else { 0.0 };
            (work / a as f64 + slope * a as f64 + step) * noise
        };
        (space, f)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]
        /// Screened or deferred, every proposal is the one a fresh
        /// strategy's dense fit makes: both presets, cold and warm-started,
        /// across a quarantine that rewrites the history mid-session. The
        /// screen decides most of them.
        #[test]
        fn prop_proposals_are_the_dense_decisions(seed in 0u64..1 << 40) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (space, f) = random_table(&mut rng);
            let iters = rng.random_range(20usize..48);
            let quarantine = rng.random_range(10..iters);
            for preset in PRESETS {
                let donated = drive(&mut preset(&space), &space, |a| f(a, 1.0), 16);
                for warm in [false, true] {
                    let start = || {
                        let mut g = preset(&space);
                        if warm {
                            g.warm_start(prior_from(&donated));
                        }
                        g
                    };
                    let mut g = start();
                    let mut h = History::new();
                    let (mut gp_phase, mut screened) = (0, 0);
                    for it in 0..iters {
                        if it == quarantine {
                            let stale = h.records().iter().map(|r| r.0).max().unwrap();
                            h.retain_actions(|a| a < stale);
                        }
                        let a = g.propose(&space, &h);
                        proptest::prop_assert_eq!(
                            a, dense_decision(&start(), &space, &h),
                            "{} (warm: {}) diverged at iteration {}", g.name(), warm, it
                        );
                        if g.surrogate.kept.is_some() {
                            gp_phase += 1;
                            screened += usize::from(decided(&g));
                        }
                        h.record(a, f(a, rng.random_range(0.97..1.03)));
                    }
                    proptest::prop_assert!(
                        2 * screened > gp_phase,
                        "{} (warm: {}): the screen decided {} of {}", g.name(), warm, screened, gp_phase
                    );
                }
            }
        }
    }

    #[test]
    fn works_without_lp_curve() {
        let space = ActionSpace::unstructured(8);
        let mut g = GpDiscontinuous::new(&space);
        let h = drive(&mut g, &space, |n| (n as f64 - 5.0).powi(2) + 1.0, 30);
        assert!(h.records().iter().all(|&(a, _)| (1..=8).contains(&a)));
        let late = h.records().last().unwrap().0;
        assert!((4..=6).contains(&late), "late play {late}");
    }

    fn prior_from(h: &History) -> SurrogatePrior {
        SurrogatePrior {
            observations: h.records().to_vec(),
            noise_inflation: crate::PRIOR_NOISE_INFLATION,
            hyper: None,
        }
    }

    #[test]
    fn warm_start_compresses_the_initialization_to_two_plays() {
        let space = ActionSpace::new(12, vec![], Some(lp_curve(12, 60.0)));
        let f = |n: usize| 60.0 / n as f64 + 0.5 * n as f64; // min near 11

        // A "previous session" on the same platform donates its history.
        let mut donor = GpDiscontinuous::new(&space);
        let donated = drive(&mut donor, &space, f, 20);
        let mut warm = GpDiscontinuous::new(&space);
        assert!(warm.warm_start(prior_from(&donated)), "GP-disc accepts priors");
        let h = drive(&mut warm, &space, f, 6);
        let seq: Vec<usize> = h.records().iter().map(|r| r.0).collect();
        // All nodes is still measured live first (the y(N) baseline)...
        assert_eq!(seq[0], 12);
        // ...then one exploit probe at the donor's best action and the
        // GP takes over — no forced leftmost / middle / middle sequence;
        // with a converged donor the warm session should sit near the
        // optimum from iteration 2 on.
        let near = seq[1..].iter().filter(|&&a| (9..=12).contains(&a)).count();
        assert!(near >= 3, "warm plays after the baseline: {seq:?}");
    }

    #[test]
    fn warm_start_respects_the_live_bound_mechanism() {
        let space = ActionSpace::new(12, vec![], Some(lp_curve(12, 60.0)));
        let f = |n: usize| 60.0 / n as f64 + 0.3 * n as f64;
        let mut donor = GpDiscontinuous::new(&space);
        let donated = drive(&mut donor, &space, f, 15);
        let mut warm = GpDiscontinuous::new(&space);
        warm.warm_start(prior_from(&donated));
        let h = drive(&mut warm, &space, f, 20);
        // y(12) = f(12) = 8.6; LP(n) = 60/n >= 8.6 for n <= 6: after the
        // forced baseline no excluded action may ever be proposed, prior
        // pseudo-observations at those actions notwithstanding.
        for &(a, _) in &h.records()[1..] {
            assert!(a >= 7, "warm-started proposal {a} violates the bound mechanism");
        }
    }

    #[test]
    fn out_of_space_prior_points_are_ignored_and_proposals_stay_in_range() {
        // A prior measured on a *larger* platform, injected directly
        // (bypassing the builder's space check): its out-of-range points
        // must be dropped, and every proposal must stay in the live space.
        let big = ActionSpace::new(16, vec![], Some(lp_curve(16, 60.0)));
        let f = |n: usize| 60.0 / n as f64 + 0.5 * n as f64;
        let mut donor = GpDiscontinuous::new(&big);
        let donated = drive(&mut donor, &big, f, 20);
        assert!(donated.records().iter().any(|&(a, _)| a > 12), "donor used big actions");
        let small = ActionSpace::new(12, vec![], Some(lp_curve(12, 60.0)));
        for preset in PRESETS {
            let mut warm = preset(&small);
            warm.warm_start(prior_from(&donated));
            let h = drive(&mut warm, &small, f, 15);
            assert!(h.records().iter().all(|&(a, _)| (1..=12).contains(&a)), "{}", warm.name());
        }
    }

    #[test]
    fn warm_runs_are_deterministic_given_the_same_prior() {
        let space = ActionSpace::new(14, vec![(1, 7), (8, 14)], Some(lp_curve(14, 70.0)));
        let f = |n: usize| 70.0 / n as f64 + 0.6 * n as f64;
        let mut donor = GpDiscontinuous::new(&space);
        let donated = drive(&mut donor, &space, f, 18);
        for preset in PRESETS {
            let run = |prior: SurrogatePrior| -> Vec<usize> {
                let mut g = preset(&space);
                g.warm_start(prior);
                drive(&mut g, &space, f, 12).records().iter().map(|r| r.0).collect()
            };
            assert_eq!(run(prior_from(&donated)), run(prior_from(&donated)));
        }
    }

    #[test]
    fn empty_prior_is_bitwise_a_cold_start() {
        let space = ActionSpace::new(12, vec![], Some(lp_curve(12, 60.0)));
        let f = |n: usize| 60.0 / n as f64 + 0.5 * n as f64;
        for preset in PRESETS {
            let cold = drive(&mut preset(&space), &space, f, 15);
            let mut warm = preset(&space);
            warm.warm_start(SurrogatePrior {
                observations: vec![],
                noise_inflation: crate::PRIOR_NOISE_INFLATION,
                hyper: None,
            });
            assert_eq!(cold, drive(&mut warm, &space, f, 15));
        }
    }

    #[test]
    fn prior_and_live_plays_of_an_action_collapse_to_one_row() {
        let space = ActionSpace::new(12, vec![], Some(lp_curve(12, 60.0)));
        let mut g = GpDiscontinuous::new(&space);
        let kappa = crate::PRIOR_NOISE_INFLATION;
        g.warm_start(SurrogatePrior {
            observations: vec![(12, 9.0), (8, 10.5), (10, 9.5)],
            noise_inflation: kappa,
            hyper: None,
        });
        let mut h = History::new();
        for (a, y) in [(12, 8.6), (8, 11.0), (5, 14.0), (8, 11.4)] {
            h.record(a, y);
        }
        let inputs = g.fit_inputs(&space, &h, &g.candidates(&space, &h)).expect("enough data");
        // One row per action, prior rows first, each carrying the pooled
        // precision of its prior (1/κ) and live (1) plays.
        assert_eq!(inputs.xs, [12.0, 8.0, 10.0, 5.0]);
        assert_eq!(
            inputs.mults,
            [1.0 / (1.0 / kappa + 1.0), 1.0 / (1.0 / kappa + 2.0), kappa, 1.0]
        );
        let lp8 = 60.0 / 8.0;
        let mean8 = ((10.5 - lp8) / kappa + (11.0 - lp8) + (11.4 - lp8)) / (1.0 / kappa + 2.0);
        assert!((inputs.rs[1] - mean8).abs() < 1e-12);
        assert_eq!(inputs.rs[3], 14.0 - 60.0 / 5.0, "a lone live play keeps its residual exactly");
        // The hyper-parameters still come from all seven observations.
        assert_eq!(inputs.raw_xs, [12.0, 8.0, 10.0, 12.0, 8.0, 5.0, 8.0]);
        let alpha0 = adaphet_linalg::sample_variance(&inputs.raw_rs);
        let noise =
            adaphet_gp::estimate_noise_from_replicates(&inputs.raw_xs, &inputs.raw_rs).unwrap();
        let Hyper::TwoStage(cfg) = &inputs.hyper else { panic!("GP-disc fits in two stages") };
        assert_eq!(cfg.process_var.to_bits(), alpha0.to_bits());
        assert_eq!(cfg.noise_var.to_bits(), noise.to_bits());
    }

    #[test]
    fn explaining_the_proposal_just_made_reuses_the_kept_model() {
        let space = ActionSpace::new(16, vec![(1, 6), (7, 16)], Some(lp_curve(16, 48.0)));
        let f = |n: usize| 48.0 / n as f64 + 0.4 * n as f64;
        for preset in PRESETS {
            let mut g = preset(&space);
            let mut h = drive(&mut g, &space, f, 20);
            let a = g.propose(&space, &h);
            let cands = g.candidates(&space, &h);
            assert!(matches!(g.model_for(&space, &h, &cands), Some(Cow::Borrowed(_))));
            // The kept model is the fresh fit, so nothing a trace reports
            // moves (`tests/kept_model.rs` counts the fits).
            let fresh = preset(&space);
            assert_eq!(g.explain(&space, &h), fresh.explain(&space, &h));
            assert_eq!(g.posterior_snapshot(&space, &h), fresh.posterior_snapshot(&space, &h));
            // Any other history is fitted afresh.
            h.record(a, f(a));
            let cands = g.candidates(&space, &h);
            assert!(matches!(g.model_for(&space, &h, &cands), Some(Cow::Owned(_))));
        }
    }

    #[test]
    fn a_rewritten_history_or_a_prior_drops_the_kept_model() {
        let space = ActionSpace::new(16, vec![(1, 6), (7, 16)], Some(lp_curve(16, 48.0)));
        let f = |n: usize| 48.0 / n as f64 + 0.4 * n as f64;
        for preset in PRESETS {
            let mut g = preset(&space);
            let mut h = drive(&mut g, &space, f, 24);
            g.propose(&space, &h);
            // A quarantine removes every play of some actions: the next
            // proposal, its trace and its posterior are a fresh strategy's.
            let stale = h.records().iter().map(|r| r.0).max().unwrap();
            assert!(h.retain_actions(|a| a < stale) > 0);
            let cands = g.candidates(&space, &h);
            assert!(matches!(g.model_for(&space, &h, &cands), Some(Cow::Owned(_))));
            let mut fresh = preset(&space);
            assert_eq!(g.explain(&space, &h), fresh.explain(&space, &h));
            assert_eq!(g.propose(&space, &h), fresh.propose(&space, &h));
            assert_eq!(g.posterior_snapshot(&space, &h), fresh.posterior_snapshot(&space, &h));
            // So does a prior arriving between two proposals.
            let donated = drive(&mut preset(&space), &space, f, 12);
            g.warm_start(prior_from(&donated));
            assert!(g.surrogate.kept.is_none());
            let mut fresh = preset(&space);
            fresh.warm_start(prior_from(&donated));
            assert_eq!(g.explain(&space, &h), fresh.explain(&space, &h));
            assert_eq!(g.propose(&space, &h), fresh.propose(&space, &h));
            assert_eq!(g.posterior_snapshot(&space, &h), fresh.posterior_snapshot(&space, &h));
        }
    }

    #[test]
    fn surrogate_hyper_reports_the_fitted_configuration() {
        let space = ActionSpace::new(10, vec![(1, 5), (6, 10)], Some(lp_curve(10, 40.0)));
        let mut g = GpDiscontinuous::new(&space);
        let h = drive(&mut g, &space, |n| 40.0 / n as f64 + 0.5 * n as f64, 15);
        let hyper = g.surrogate_hyper(&space, &h).expect("fit succeeds");
        assert_eq!(hyper.kernel_family, "exponential");
        assert_eq!(hyper.theta, 1.0, "GP-disc fixes theta");
        assert!(hyper.process_var > 0.0 && hyper.noise_var > 0.0);
        assert!(!hyper.trend_coefficients.is_empty(), "linear + dummy trend");
    }

    #[test]
    fn gp_ucb_initialization_sequence_matches_paper() {
        let space = ActionSpace::new(14, vec![(1, 7), (8, 14)], Some(lp_curve(14, 60.0)));
        let mut g = GpDiscontinuous::gp_ucb(&space);
        assert_eq!(g.name(), "GP-UCB");
        let h = drive(&mut g, &space, |n| 60.0 / n as f64 + n as f64, 5);
        // No bound and no group-last probe: the GP decides iteration 5.
        let seq: Vec<usize> = h.records().iter().map(|r| r.0).collect();
        assert_eq!(&seq[..4], &[14, 1, 7, 7]);
        assert_eq!(g.explain(&space, &h).note, "gp-lcb");
    }

    #[test]
    fn gp_ucb_finds_the_minimum_and_skips_clearly_bad_actions() {
        // The paper's simple scenario (its Fig. 4A): on a small smooth
        // space GP-UCB concentrates near the optimum, and the worst distant
        // arms stay (nearly) unvisited after the forced all-nodes play.
        let space = ActionSpace::unstructured(14);
        let f = |n: usize| 60.0 / n as f64 + 1.2 * n as f64; // min near 7
        let h = drive(&mut GpDiscontinuous::gp_ucb(&space), &space, f, 40);
        let near = h.records()[25..].iter().filter(|&&(a, _)| (5..=9).contains(&a)).count();
        assert!(near * 2 > 15, "late plays: {:?}", &h.records()[25..]);
        let f = |n: usize| 10.0 + (n as f64 - 6.0).powi(2) * 3.0;
        let h = drive(&mut GpDiscontinuous::gp_ucb(&space), &space, f, 30);
        assert!(h.count_for(13) + h.count_for(14) <= 4, "{:?}", h.records());
    }

    #[test]
    fn gp_ucb_fits_two_records_once_one_is_live() {
        let space = ActionSpace::unstructured(5);
        let mut g = GpDiscontinuous::gp_ucb(&space);
        let mut h = History::new();
        assert!(g.fit(&h).is_none());
        h.record(5, 10.0);
        assert!(g.fit(&h).is_none());
        h.record(1, 20.0);
        assert!(g.fit(&h).is_some());
        // A prior alone fits nothing until the first live play.
        g.warm_start(prior_from(&h));
        assert!(g.fit(&History::new()).is_none());
        assert!(drive(&mut g, &space, |_| 1.0, 6).records().iter().all(|&(a, _)| a <= 5));
        let single = ActionSpace::unstructured(1);
        let h = drive(&mut GpDiscontinuous::gp_ucb(&single), &single, |_| 1.0, 6);
        assert!(h.records().iter().all(|&(a, _)| a == 1));
    }

    #[test]
    fn gp_ucb_searches_distinct_actions_estimated_on_every_record() {
        let space = ActionSpace::new(14, vec![], Some(lp_curve(14, 60.0)));
        let g = GpDiscontinuous::gp_ucb(&space);
        let mut h = History::new();
        for (a, y) in [(14, 20.0), (1, 61.0), (7, 17.0), (7, 18.0), (14, 21.0), (3, 24.0)] {
            h.record(a, y);
        }
        let inputs = g.fit_inputs(&space, &h, &space.actions()).expect("six records");
        // The raw durations, the LP curve notwithstanding.
        assert_eq!(inputs.xs, [14.0, 1.0, 7.0, 3.0]);
        assert_eq!(inputs.rs, [20.5, 61.0, 17.5, 24.0]);
        assert_eq!(inputs.mults, [0.5, 1.0, 0.5, 1.0]);
        let Hyper::Mle { var, noise, .. } = inputs.hyper else { panic!("GP-UCB searches") };
        let (raw_xs, raw_ys): (Vec<f64>, Vec<f64>) =
            h.records().iter().map(|&(a, y)| (a as f64, y)).unzip();
        assert_eq!(var, adaphet_linalg::sample_variance(&raw_ys));
        let pooled = adaphet_gp::estimate_noise_from_replicates(&raw_xs, &raw_ys).unwrap();
        assert_eq!(noise.to_bits(), pooled.to_bits());
        assert_eq!(g.fit(&h).expect("fitted").n_obs(), 4);
        let hyper = g.surrogate_hyper(&space, &h).expect("fitted");
        assert_eq!(hyper.trend_coefficients.len(), 1, "constant trend");
        let snapshot = g.posterior_snapshot(&space, &h).expect("fitted");
        assert!(snapshot.points.iter().all(|p| p.lp_bound.is_none() && !p.excluded));
    }

    #[test]
    fn gp_ucb_warm_start_skips_the_cold_initialization_plays() {
        let space = ActionSpace::unstructured(14);
        let f = |n: usize| 60.0 / n as f64 + 1.2 * n as f64; // min near 7
        let mut g = GpDiscontinuous::gp_ucb(&space);
        let all: Vec<(usize, f64)> = space.actions().into_iter().map(|a| (a, f(a))).collect();
        let mut donor = History::new();
        all.iter().for_each(|&(a, y)| donor.record(a, y));
        assert!(g.warm_start(prior_from(&donor)));
        let seq: Vec<usize> = drive(&mut g, &space, f, 8).records().iter().map(|r| r.0).collect();
        // Iteration 1 still measures the all-nodes baseline live; the prior
        // then pins the curve, so the next plays land near the optimum.
        assert_eq!(seq[0], 14);
        assert_ne!(&seq[1..4], &[1, 7, 7], "init plays must be compressed: {seq:?}");
        assert!(seq[1..].iter().filter(|&&a| (5..=9).contains(&a)).count() >= 5, "{seq:?}");
    }
}
