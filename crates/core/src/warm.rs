//! Cross-session warm-starting: the [`WarmStart`] request, the
//! [`SurrogatePrior`] the GP strategies fold in, and the plumbing both
//! of them use to fold it.
//!
//! # Transfer-learning model
//!
//! A finished session leaves behind a
//! [`SurrogateSnapshot`](adaphet_store::SurrogateSnapshot): its `(action,
//! duration)` history, the action space it was fitted over, and the fitted
//! GP hyper-parameters. A later session folds that snapshot in as a
//! **soft prior**:
//!
//! * every snapshot observation becomes a *pseudo-observation* whose
//!   nugget is inflated by [`SurrogatePrior::noise_inflation`] — the GP
//!   diagonal gets `σ²_N · κ` instead of `σ²_N` for prior rows, so prior
//!   data shapes the posterior mean where the new session has no data yet
//!   but is overruled quickly by live measurements (a live replicate at
//!   the same action carries κ× the precision of the prior point);
//! * the snapshot's fitted correlation length seeds the MLE grid
//!   (`theta_center` of [`adaphet_gp::MleSearch`]), narrowing the search
//!   to `[θ/4, 4θ]` — the paper's "with little data ML is overconfident"
//!   failure mode is tempered by starting from a length scale that was
//!   estimated with *much* data.
//!
//! Exact warm starts ([`WarmStart::FromSnapshot`]) refuse snapshots whose
//! action space disagrees with the live one (a snapshot taken before a
//! fault shrank the platform would otherwise re-introduce excluded
//! actions); store-mediated transfer ([`WarmStart::FromStore`]) projects
//! cross-platform snapshots onto the live space first, so projected
//! priors can never propose out-of-space actions.

use crate::{ActionSpace, History};
use adaphet_store::{GpHyper, GroupSig, PlatformSignature, SurrogateSnapshot};
use std::borrow::Cow;

/// How a session's surrogate starts.
///
/// Consumed by
/// [`SessionBuilder::warm_start`](crate::SessionBuilder::warm_start)
/// (and, over the wire, by the service's `SessionSpec`). The default is
/// [`WarmStart::Cold`] — bit-identical to the behaviour before this type
/// existed.
#[derive(Debug, Clone, Default)]
pub enum WarmStart {
    /// No prior: the paper's parsimonious initialization from scratch.
    #[default]
    Cold,
    /// Fold in this exact snapshot. The builder refuses
    /// ([`DriverBuildError::WarmStart`](crate::DriverBuildError)) when the
    /// snapshot's action space differs from the live one.
    FromSnapshot(SurrogateSnapshot),
    /// Look up the nearest-signature snapshot in the builder's
    /// [`SurrogateStore`](adaphet_store::SurrogateStore); fall back to a
    /// cold start when nothing scores at least `min_similarity` (or no
    /// store was attached). Cross-platform matches are projected onto the
    /// live space before folding.
    FromStore {
        /// Minimum [`PlatformSignature::similarity`] score (in `[0, 1]`)
        /// a stored snapshot must reach to be used.
        min_similarity: f64,
    },
}

/// Default nugget inflation κ for prior pseudo-observations: a prior
/// point carries 1/16 the precision of a live measurement, so roughly
/// four live replicates at an action outweigh any prior there.
pub const PRIOR_NOISE_INFLATION: f64 = 16.0;

/// A resolved prior, as handed to [`Strategy::warm_start`](crate::Strategy::warm_start).
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogatePrior {
    /// Pseudo-observations `(action, duration)` in the live space.
    pub observations: Vec<(usize, f64)>,
    /// Nugget multiplier κ ≥ 1 applied to every pseudo-observation.
    pub noise_inflation: f64,
    /// Hyper-parameters fitted by the originating session, when it had a
    /// model (seeds the MLE grid center for GP-UCB).
    pub hyper: Option<GpHyper>,
}

impl SurrogatePrior {
    /// The prior encoded by a snapshot, with the default inflation.
    pub fn from_snapshot(snap: &SurrogateSnapshot) -> SurrogatePrior {
        SurrogatePrior {
            observations: snap.observations.clone(),
            noise_inflation: PRIOR_NOISE_INFLATION,
            hyper: snap.hyper.clone(),
        }
    }

    /// Number of pseudo-observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Whether the prior carries no pseudo-observations (strategies treat
    /// an empty prior exactly like a cold start).
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The pseudo-observations that fall inside the live `space` (a
    /// defensive filter for priors injected directly, bypassing the
    /// builder's space check).
    pub fn observations_in(&self, space: &ActionSpace) -> Vec<(usize, f64)> {
        self.observations.iter().copied().filter(|&(a, _)| a >= 1 && a <= space.max_nodes).collect()
    }
}

/// The prior a strategy was warm-started with, if present *and*
/// non-empty (an empty prior is exactly a cold start).
pub(crate) fn active_prior(prior: &Option<SurrogatePrior>) -> Option<&SurrogatePrior> {
    prior.as_ref().filter(|p| !p.is_empty())
}

/// The pseudo-observations of `prior` that fall inside the live `space`,
/// with their nugget multiplier κ; `None` when there are none (cold
/// start, empty prior, or a prior entirely outside the space).
pub(crate) fn prior_obs(
    prior: &Option<SurrogatePrior>,
    space: &ActionSpace,
) -> Option<(Vec<(usize, f64)>, f64)> {
    let prior = active_prior(prior)?;
    let obs = prior.observations_in(space);
    (!obs.is_empty()).then_some((obs, prior.noise_inflation))
}

/// The records a surrogate fit runs over and their per-point noise
/// multipliers: warm-started sessions prepend the [`prior_obs`]
/// pseudo-observations (nugget inflated by κ) ahead of the live history;
/// cold sessions borrow the history and get an empty multiplier vector —
/// the exact pre-warm-start arithmetic.
pub(crate) fn records_with_prior<'h>(
    prior: Option<&(Vec<(usize, f64)>, f64)>,
    hist: &'h History,
) -> (Cow<'h, [(usize, f64)]>, Vec<f64>) {
    match prior {
        None => (Cow::Borrowed(hist.records()), Vec::new()),
        Some((obs, inflation)) => {
            let mut recs = obs.clone();
            recs.extend_from_slice(hist.records());
            let mut m = vec![*inflation; obs.len()];
            m.extend(std::iter::repeat_n(1.0, hist.len()));
            (Cow::Owned(recs), m)
        }
    }
}

/// The donor's best action among `cands`: the candidate with the lowest
/// mean pseudo-observed duration (ties and equal means resolve to the
/// smallest action; `None` when no candidate was observed by the prior).
///
/// Warm-started strategies play this once, right after the live
/// all-nodes baseline, before the GP takes over — the donor session
/// already learned where to run fast, and one exploit probe both
/// harvests that knowledge immediately and anchors the surrogate with a
/// full-precision live measurement at the most promising action.
pub(crate) fn prior_best_action(obs: &[(usize, f64)], cands: &[usize]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for &c in cands {
        let (mut sum, mut k) = (0.0, 0usize);
        for &(a, y) in obs {
            if a == c {
                sum += y;
                k += 1;
            }
        }
        if k == 0 {
            continue;
        }
        let mean = sum / k as f64;
        if best.is_none_or(|(_, b)| mean < b) {
            best = Some((c, mean));
        }
    }
    best.map(|(a, _)| a)
}

/// A fallback [`PlatformSignature`] derived from an action space alone:
/// group node counts from the space's partition, speed/bandwidth unknown
/// (0, which [`PlatformSignature::similarity`] treats as neutral), and
/// workload 0. Used when a store is attached but no explicit signature
/// was configured — exact re-runs of the same space still round-trip.
pub fn signature_from_space(space: &ActionSpace) -> PlatformSignature {
    PlatformSignature::new(
        0,
        space
            .groups
            .iter()
            .map(|&(lo, hi)| GroupSig { count: (hi - lo + 1) as u32, speed: 0.0, bw: 0.0 })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_prior_is_inactive() {
        let mut prior = Some(SurrogatePrior {
            observations: vec![],
            noise_inflation: PRIOR_NOISE_INFLATION,
            hyper: None,
        });
        assert!(active_prior(&prior).is_none(), "an empty prior must behave like a cold start");
        prior.as_mut().unwrap().observations.push((3, 1.5));
        assert_eq!(active_prior(&prior).unwrap().len(), 1);
    }

    #[test]
    fn signature_from_space_mirrors_the_group_partition() {
        let space = ActionSpace::new(10, vec![(1, 4), (5, 10)], None);
        let sig = signature_from_space(&space);
        assert_eq!(sig.workload, 0);
        assert_eq!(sig.groups.len(), 2);
        assert_eq!(sig.groups[0].count, 4);
        assert_eq!(sig.groups[1].count, 6);
        // Same space twice → identical key (store round-trips).
        assert_eq!(sig.key(), signature_from_space(&space).key());
    }

    #[test]
    fn prior_best_action_exploits_the_donor_optimum() {
        let obs = vec![(2, 9.0), (5, 3.0), (5, 5.0), (8, 4.0), (12, 1.0)];
        // Mean at 5 is 4.0, equal to 8; the smaller action wins the tie.
        assert_eq!(prior_best_action(&obs, &[2, 5, 8]), Some(5));
        // The donor optimum (12) is outside the candidate set — e.g.
        // excluded by the live bound mechanism — and must not leak out.
        assert_eq!(prior_best_action(&obs, &[2, 8]), Some(8));
        assert_eq!(prior_best_action(&obs, &[3, 4]), None, "no candidate was observed");
        assert_eq!(prior_best_action(&[], &[1, 2]), None);
    }

    #[test]
    fn out_of_space_pseudo_observations_are_filtered() {
        let prior = SurrogatePrior {
            observations: vec![(1, 5.0), (8, 2.0), (12, 1.5)],
            noise_inflation: PRIOR_NOISE_INFLATION,
            hyper: None,
        };
        let space = ActionSpace::unstructured(8);
        let kept = prior.observations_in(&space);
        assert_eq!(kept, vec![(1, 5.0), (8, 2.0)]);
    }
}
