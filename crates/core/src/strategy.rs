//! The strategy trait, its introspection types, and trivial reference
//! strategies.

use crate::{ActionSpace, History, SurrogatePrior};
use adaphet_gp::{GpModel, Prediction};
use adaphet_metrics::wire_struct;
use adaphet_store::GpHyper;

/// Lower clamp on the process/noise variances of the GP strategies' fits
/// (keeps K positive definite with degenerate data).
pub(crate) const NOISE_FLOOR: f64 = 1e-9;

/// The surrogate's posterior at every action of `actions`, in one batched
/// scan ([`GpModel::predict_many`]).
pub(crate) fn predict_actions(model: &GpModel, actions: &[usize]) -> Vec<Prediction> {
    let xs: Vec<f64> = actions.iter().map(|&a| a as f64).collect();
    model.predict_many(&xs)
}

/// The fitted hyper-parameters of `model`, as persisted in a snapshot
/// ([`Strategy::surrogate_hyper`]).
pub(crate) fn hyper_of(model: &GpModel) -> GpHyper {
    let cfg = model.config();
    GpHyper {
        kernel_family: cfg.kernel.family().to_string(),
        theta: cfg.kernel.theta(),
        process_var: cfg.process_var,
        noise_var: cfg.noise_var,
        trend_coefficients: model.trend_coefficients().to_vec(),
    }
}

/// Lower-confidence-bound diagnostics of `actions` under `model`
/// ([`Strategy::explain`] of the GP strategies). `mean_at(a, μ)` maps the
/// surrogate mean at `a` to the reported duration (the LP-residual
/// strategy adds the LP back).
pub(crate) fn lcb_diagnostics(
    model: &GpModel,
    actions: &[usize],
    sqrt_beta: f64,
    mean_at: impl Fn(usize, f64) -> f64,
) -> Vec<ActionDiagnostic> {
    actions
        .iter()
        .zip(predict_actions(model, actions))
        .map(|(&a, p)| {
            let mean = mean_at(a, p.mean);
            let sd = p.sd();
            ActionDiagnostic { action: a, mean, sd, acquisition: mean - sqrt_beta * sd }
        })
        .collect()
}

/// The posterior of `model` at every action of `space`
/// ([`Strategy::posterior_snapshot`] of the GP strategies): `mean_at` as
/// in [`lcb_diagnostics`]; `candidates` is the candidate set of a strategy
/// that uses the LP curve (every action reports its LP bound, the ones
/// outside the set are flagged excluded), `None` for one that ignores it
/// (no bounds, nothing excluded).
pub(crate) fn posterior_points(
    model: &GpModel,
    space: &ActionSpace,
    mean_at: impl Fn(usize, f64) -> f64,
    candidates: Option<&[usize]>,
) -> PosteriorSnapshot {
    let actions = space.actions();
    let points = actions
        .iter()
        .zip(predict_actions(model, &actions))
        .map(|(&a, p)| PosteriorPoint {
            action: a,
            mean: mean_at(a, p.mean),
            sd: p.sd(),
            lp_bound: candidates.and_then(|_| space.lp_at(a)),
            excluded: candidates.is_some_and(|c| !c.contains(&a)),
        })
        .collect();
    PosteriorSnapshot { points }
}

/// Posterior / score diagnostics for one candidate action, as seen by the
/// strategy right before it decided.
///
/// The semantics of `mean`/`sd` depend on the strategy family: for the GP
/// strategies they are the surrogate's predicted duration and posterior
/// standard deviation; for the bandits, the empirical mean duration and
/// the exploration bonus width. `acquisition` is always the score the
/// strategy optimized (lower-is-better for the GP lower-confidence rule,
/// higher-is-better for UCB — the [`DecisionTrace::note`] says which).
#[derive(Debug, Clone, PartialEq)]
pub struct ActionDiagnostic {
    /// Candidate action (node count).
    pub action: usize,
    /// Central estimate of the action's duration (or residual reward).
    pub mean: f64,
    /// Uncertainty width attached to `mean`.
    pub sd: f64,
    /// The acquisition score the strategy ranked this action by.
    pub acquisition: f64,
}

// An element of the telemetry `posterior` list; a non-finite float (an
// untried arm's infinite bonus) is written `null` and reads back as NaN.
wire_struct!(ActionDiagnostic { action, mean = f64::NAN, sd = f64::NAN, acquisition = f64::NAN });

/// Why a strategy proposed what it proposed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionTrace {
    /// Per-candidate diagnostics (empty when the strategy has nothing to
    /// say, e.g. during forced initialization plays).
    pub diagnostics: Vec<ActionDiagnostic>,
    /// Actions currently excluded from consideration (the LP bound
    /// mechanism for GP-discontinuous, non-boundary counts for
    /// UCB-struct).
    pub excluded: Vec<usize>,
    /// Free-form tag of the decision mode (e.g. `"init"`, `"gp-lcb"`,
    /// `"ucb"`, `"fallback"`).
    pub note: String,
}

impl DecisionTrace {
    /// A trace carrying only a mode tag.
    pub fn minimal(note: impl Into<String>) -> Self {
        DecisionTrace { diagnostics: Vec::new(), excluded: Vec::new(), note: note.into() }
    }
}

/// One action's posterior state in a [`PosteriorSnapshot`].
///
/// Unlike [`ActionDiagnostic`] (which only covers the candidates the
/// strategy ranked), a snapshot point exists for **every** action of the
/// live space — including ones excluded by the bound mechanism — so a
/// report can draw the full surrogate curve the way the paper's Fig. 5
/// does, with the pruned region greyed out.
#[derive(Debug, Clone, PartialEq)]
pub struct PosteriorPoint {
    /// Action (node count).
    pub action: usize,
    /// Posterior mean of the predicted duration (LP + residual mean for
    /// the LP-residual strategies, raw surrogate mean otherwise).
    pub mean: f64,
    /// Posterior standard deviation.
    pub sd: f64,
    /// The LP lower bound at this action, when the space carries one.
    pub lp_bound: Option<f64>,
    /// Whether the bound mechanism currently excludes this action.
    pub excluded: bool,
}

// The point object of the telemetry `snapshot` field and of the service's
// `posterior` frame; a `null` mean or sd (a non-finite float at the
// emitter) reads back as NaN.
wire_struct!(PosteriorPoint { action, mean = f64::NAN, sd = f64::NAN, lp_bound, excluded = false });

/// The surrogate's posterior over the whole action space at one instant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PosteriorSnapshot {
    /// One point per action of the live space, in ascending action order.
    pub points: Vec<PosteriorPoint>,
}

wire_struct!(PosteriorSnapshot { points });

/// An online exploration strategy over node counts.
///
/// Every iteration, the session asks for the next action (a number of
/// fastest-first nodes), runs the iteration, and appends `(action,
/// duration)` to the [`History`] it passes back on the next call.
///
/// # The live action space
///
/// `propose` receives the **live** [`ActionSpace`] on every call: under
/// platform faults (node death) the session shrinks the space mid-run, and
/// the strategy must answer within *that* space, not the one it was
/// constructed over. Strategies may cache structure from their
/// construction space (arms, groups, surrogate state) but must intersect
/// it with the live space before answering.
///
/// # Range contract
///
/// `propose` must return an action in `1..=space.max_nodes` of the live
/// space, for **every** possible history — including histories the
/// strategy did not generate itself (replays, quarantined
/// post-fault histories). Callers rely on this to index response tables
/// and spawn node sets without clamping;
/// [`Session::propose`](crate::Session::propose) checks it with a
/// `debug_assert!` and `tests/tuner_properties.rs` exercises it over random histories and
/// random fault plans.
///
/// Strategies are `Send` (they hold plain numeric state and seeded RNGs)
/// so a [`Session`](crate::Session) can move into a worker thread.
pub trait Strategy: Send {
    /// Display name (matches the paper's figure labels).
    fn name(&self) -> &'static str;

    /// Choose the next action from the live `space` given everything
    /// observed so far.
    fn propose(&mut self, space: &ActionSpace, hist: &History) -> usize;

    /// Describe the decision [`propose`](Strategy::propose) would make on
    /// `hist` over the live `space` — called by the session right before
    /// `propose`, only when a telemetry sink asked for it (it may be
    /// expensive: the GP strategies refit their surrogate).
    ///
    /// The default is a minimal trace carrying only the strategy name;
    /// [`GpDiscontinuous`](crate::GpDiscontinuous) (GP-UCB included),
    /// [`Ucb`](crate::Ucb) and
    /// [`UcbStruct`](crate::UcbStruct) provide full diagnostics.
    fn explain(&self, space: &ActionSpace, hist: &History) -> DecisionTrace {
        let _ = (space, hist);
        DecisionTrace::minimal(self.name())
    }

    /// The surrogate's posterior over the live `space`, if the strategy
    /// maintains one and has enough data to fit it — called by the session
    /// alongside [`explain`](Strategy::explain), under the same
    /// only-when-a-sink-asked gate (it refits the surrogate).
    ///
    /// `None` (the default, and the answer of every non-GP strategy)
    /// means "no posterior to show", which telemetry serializes as a JSON
    /// `null` — distinct from an empty snapshot.
    fn posterior_snapshot(&self, space: &ActionSpace, hist: &History) -> Option<PosteriorSnapshot> {
        let _ = (space, hist);
        None
    }

    /// Fold a cross-session [`SurrogatePrior`] into the strategy's state
    /// — called by the session builder when a
    /// [`WarmStart`](crate::WarmStart) resolved to a snapshot, before any
    /// proposal. Returns whether the prior was accepted; the default (and
    /// every non-GP strategy) ignores priors and answers `false`, which
    /// is exactly a cold start.
    fn warm_start(&mut self, prior: SurrogatePrior) -> bool {
        let _ = prior;
        false
    }

    /// The fitted hyper-parameters of the strategy's surrogate over
    /// `hist`, if it maintains one with enough data to fit — what a
    /// [`Session`](crate::Session) persists into a snapshot on close so
    /// the *next* session can seed its hyper-parameter search. `None`
    /// (the default) means the snapshot carries observations only.
    fn surrogate_hyper(&self, space: &ActionSpace, hist: &History) -> Option<GpHyper> {
        let _ = (space, hist);
        None
    }
}

/// The application's default behaviour: always use every node (the top
/// dashed line of the paper's Fig. 6, the baseline all gains are computed
/// against).
#[derive(Debug, Clone)]
pub struct AllNodes {
    n: usize,
}

impl AllNodes {
    /// Always picks `n` (the full cluster).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        AllNodes { n }
    }
}

impl Strategy for AllNodes {
    fn name(&self) -> &'static str {
        "all-nodes"
    }
    fn propose(&mut self, space: &ActionSpace, _hist: &History) -> usize {
        // "All nodes" means all *live* nodes: after a node death the
        // application default shrinks with the platform.
        self.n.min(space.max_nodes)
    }
}

/// Clairvoyant baseline: plays the statically optimal action from the
/// first iteration (the bottom dashed line of Fig. 6).
#[derive(Debug, Clone)]
pub struct Oracle {
    best: usize,
}

impl Oracle {
    /// Always picks `best` (determined offline from the response table).
    pub fn new(best: usize) -> Self {
        assert!(best >= 1);
        Oracle { best }
    }
}

impl Strategy for Oracle {
    fn name(&self) -> &'static str {
        "oracle"
    }
    fn propose(&mut self, space: &ActionSpace, _hist: &History) -> usize {
        // The offline optimum may no longer exist after node loss; the
        // closest surviving prefix is the best the oracle can still play.
        self.best.min(space.max_nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nodes_is_constant() {
        let mut s = AllNodes::new(7);
        let space = ActionSpace::unstructured(7);
        let h = History::new();
        for _ in 0..5 {
            assert_eq!(s.propose(&space, &h), 7);
        }
        assert_eq!(s.name(), "all-nodes");
    }

    #[test]
    fn oracle_is_constant() {
        let mut s = Oracle::new(3);
        let space = ActionSpace::unstructured(5);
        let mut h = History::new();
        h.record(3, 1.0);
        assert_eq!(s.propose(&space, &h), 3);
        assert_eq!(s.name(), "oracle");
    }

    #[test]
    fn constants_respect_a_shrunken_live_space() {
        let mut all = AllNodes::new(7);
        let mut oracle = Oracle::new(6);
        let live = ActionSpace::unstructured(4);
        let h = History::new();
        assert_eq!(all.propose(&live, &h), 4, "all-nodes follows the live platform");
        assert_eq!(oracle.propose(&live, &h), 4, "oracle clamps to the survivors");
    }
}
