//! Decision-level pin of the GP hot path.
//!
//! The strategies score their candidates with one batched posterior scan
//! over a surrogate they keep warm across proposals (shared correlation
//! matrix, incremental updates, tiled factorization). None of that may
//! change a decision: full 127-iteration sessions on a seeded 128-action,
//! 3-group table must produce exactly the history of a reference driver
//! that refits from scratch every iteration and scores one candidate at a
//! time through the scalar `predict`.

use adaphet::gp::{GpModel, Prediction};
use adaphet::tuner::{
    ActionSpace, GpDiscontinuous, GpUcb, History, Strategy, SurrogatePrior, PRIOR_NOISE_INFLATION,
};
use rand::{Rng, SeedableRng};

const NODES: usize = 128;
const ITERS: usize = 127;

/// A seeded response table: LP-like `work/n` plus a per-node cost, with a
/// jump at each group boundary, and one multiplicative noise draw per
/// iteration.
struct Table {
    space: ActionSpace,
    mean: Vec<f64>,
    noise: Vec<f64>,
}

fn table(seed: u64) -> Table {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let work = rng.random_range(400.0..900.0);
    let slope = rng.random_range(0.05..0.25);
    let groups = vec![(1, 24), (25, 72), (73, NODES)];
    let jumps = [0.0, rng.random_range(1.0..6.0), rng.random_range(4.0..12.0)];
    let lp: Vec<f64> = (1..=NODES).map(|n| work / n as f64).collect();
    let mean = (1..=NODES)
        .map(|n| {
            let g = groups.iter().position(|&(lo, hi)| n >= lo && n <= hi).unwrap();
            work / n as f64 + slope * n as f64 + jumps[g]
        })
        .collect();
    let noise = (0..ITERS).map(|_| rng.random_range(0.97..1.03)).collect();
    Table { space: ActionSpace::new(NODES, groups, Some(lp)), mean, noise }
}

/// Drive `strategy` for a full session, checking every GP-phase proposal
/// against `reference(history)`; returns the history.
fn pinned_session(
    table: &Table,
    strategy: &mut dyn Strategy,
    reference: impl Fn(&History) -> usize,
) -> History {
    let mut hist = History::new();
    let mut gp_phase = 0;
    for it in 0..ITERS {
        let a = strategy.propose(&table.space, &hist);
        // The initialization plays involve no surrogate; once they are
        // over, every proposal comes from the GP.
        if gp_phase > 0 || strategy.explain(&table.space, &hist).note == "gp-lcb" {
            assert_eq!(a, reference(&hist), "{}: iteration {it} diverged", strategy.name());
            gp_phase += 1;
        }
        hist.record(a, table.mean[a - 1] * table.noise[it]);
    }
    assert!(gp_phase > ITERS - 16, "{}: only {gp_phase} GP-phase proposals", strategy.name());
    hist
}

/// One-at-a-time posterior: each call is a lone scalar prediction.
fn scalar_scan(model: &GpModel, actions: &[usize]) -> Vec<Prediction> {
    actions.iter().map(|&a| model.predict(a as f64)).collect()
}

/// GP-discontinuous' decision rule over a scratch fit and a scalar scan.
fn gp_disc_reference(scratch: &GpDiscontinuous, space: &ActionSpace, hist: &History) -> usize {
    let cands = match hist.first_for(space.max_nodes) {
        Some(y_all) => space.bounded_actions(y_all),
        None => space.actions(),
    };
    let model = scratch.fit(hist).expect("the GP phase has a fittable history");
    let beta = scratch.schedule.beta(hist.len().max(1), cands.len());
    cands
        .iter()
        .zip(scalar_scan(&model, &cands))
        .map(|(&a, p)| (a, space.lp_at(a).unwrap_or(0.0) + p.mean - beta.sqrt() * p.sd()))
        .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
        .map(|(a, _)| a)
        .unwrap()
}

/// GP-UCB's decision rule (`ucb_argmin`'s tie-breaking included) over a
/// scratch MLE fit and a scalar scan.
fn gp_ucb_reference(scratch: &GpUcb, space: &ActionSpace, hist: &History) -> usize {
    let n = space.max_nodes;
    let model = scratch.fit(hist).expect("the GP phase has a fittable history");
    let beta = scratch.schedule.beta(hist.len().max(1), n);
    let actions = space.actions();
    let mut best: Option<(usize, f64, f64)> = None;
    for (&a, p) in actions.iter().zip(scalar_scan(&model, &actions)) {
        let lcb = p.mean - beta.sqrt() * p.sd();
        let replace = match best {
            None => true,
            Some((ba, blcb, bvar)) => {
                lcb < blcb - 1e-12
                    || ((lcb - blcb).abs() <= 1e-12
                        && (p.var > bvar + 1e-15 || (p.var - bvar).abs() <= 1e-15 && a < ba))
            }
        };
        if replace {
            best = Some((a, lcb, p.var));
        }
    }
    best.map_or(n, |(a, _, _)| a).clamp(1, n)
}

/// `strategy`, warm-started with `prior` when there is one.
fn warmed<S: Strategy>(mut strategy: S, prior: &Option<SurrogatePrior>) -> S {
    if let Some(p) = prior {
        assert!(strategy.warm_start(p.clone()), "GP strategies accept priors");
    }
    strategy
}

/// The head of a finished session's history, as a warm-start prior.
fn prior_from(donor: &History) -> SurrogatePrior {
    SurrogatePrior {
        observations: donor.records()[..40].to_vec(),
        noise_inflation: PRIOR_NOISE_INFLATION,
        hyper: None,
    }
}

fn bits(hist: &History) -> Vec<(usize, u64)> {
    hist.records().iter().map(|&(a, y)| (a, y.to_bits())).collect()
}

#[test]
fn gp_disc_sessions_match_the_scratch_scalar_driver() {
    let t = table(7);
    let session = |prior: Option<SurrogatePrior>| {
        let mut live = warmed(GpDiscontinuous::new(&t.space), &prior);
        let scratch = warmed(GpDiscontinuous::new(&t.space), &prior);
        pinned_session(&t, &mut live, |h| gp_disc_reference(&scratch, &t.space, h))
    };
    let cold = session(None);
    let warm = session(Some(prior_from(&cold)));
    assert_ne!(bits(&warm), bits(&cold), "the prior must have been folded in");
}

#[test]
fn gp_ucb_sessions_match_the_scratch_scalar_driver() {
    let t = table(11);
    let session = |prior: Option<SurrogatePrior>| {
        let mut live = warmed(GpUcb::new(&t.space), &prior);
        let scratch = warmed(GpUcb::new(&t.space), &prior);
        pinned_session(&t, &mut live, |h| gp_ucb_reference(&scratch, &t.space, h))
    };
    let cold = session(None);
    let warm = session(Some(prior_from(&cold)));
    assert_ne!(bits(&warm), bits(&cold), "the prior must have been folded in");
}
