//! Decision-level pin of the GP hot path.
//!
//! The strategies score their candidates with one batched posterior scan
//! over a surrogate refitted at every proposal from state they keep across
//! proposals (the pairwise distances and the correlation matrix `R`, grown
//! by a bordered row; tiled factorization). None of that may change a
//! decision: full 127-iteration sessions on a seeded 128-action, 3-group
//! table must produce exactly the history of a reference driver that
//! refits from nothing every iteration and scores one candidate at a time
//! through the scalar `predict`.
//!
//! Both strategies fit one row per distinct action (the replicates'
//! sufficient statistics), which is exact in mathematics but not in bits;
//! the scratch drivers above collapse the same way, so sessions are
//! additionally held to the actions the per-observation fit of the commit
//! before each change chose ([`PARENT_PINS`] for GP-discontinuous,
//! [`UCB_PARENT_PINS`] for GP-UCB's likelihood grid).

use adaphet::gp::{GpModel, Prediction};
use adaphet::store::GpHyper;
use adaphet::tuner::{
    ActionSpace, GpDiscontinuous, History, Strategy, SurrogatePrior, PRIOR_NOISE_INFLATION,
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
    table_with(NODES, vec![(1, 24), (25, 72), (73, NODES)], seed)
}

/// [`table`] over `nodes` actions in the given machine groups: the jump at
/// the start of group `g ≥ 1` is drawn from `1 + 3(g − 1) .. 6g`.
fn table_with(nodes: usize, groups: Vec<(usize, usize)>, seed: u64) -> Table {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let work = rng.random_range(400.0..900.0);
    let slope = rng.random_range(0.05..0.25);
    let jumps: Vec<f64> = (0..groups.len())
        .map(|g| match g {
            0 => 0.0,
            _ => rng.random_range((3 * g - 2) as f64..(6 * g) as f64),
        })
        .collect();
    let lp: Vec<f64> = (1..=nodes).map(|n| work / n as f64).collect();
    let mean = (1..=nodes)
        .map(|n| {
            let g = groups.iter().position(|&(lo, hi)| n >= lo && n <= hi).unwrap();
            work / n as f64 + slope * n as f64 + jumps[g]
        })
        .collect();
    let noise = (0..ITERS).map(|_| rng.random_range(0.97..1.03)).collect();
    Table { space: ActionSpace::new(nodes, groups, Some(lp)), mean, noise }
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
fn gp_ucb_reference(scratch: &GpDiscontinuous, space: &ActionSpace, hist: &History) -> usize {
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
        let mut live = warmed(GpDiscontinuous::gp_ucb(&t.space), &prior);
        let scratch = warmed(GpDiscontinuous::gp_ucb(&t.space), &prior);
        pinned_session(&t, &mut live, |h| gp_ucb_reference(&scratch, &t.space, h))
    };
    let cold = session(None);
    let warm = session(Some(prior_from(&cold)));
    assert_ne!(bits(&warm), bits(&cold), "the prior must have been folded in");
}

/// A full GP-discontinuous session as the last commit that fitted one row
/// per *observation* played it, with the stage-2 process variance
/// `surrogate_hyper` reported after 16, 64 and 127 observations. Generated
/// on that commit; a difference means the surrogate changed, not the pin.
struct Pin {
    alphas: [f64; 3],
    actions: [usize; ITERS],
}

/// Per `table(seed)`: the cold session, and the session warm-started from
/// the cold one's first 40 records (κ = 16).
#[rustfmt::skip]
const PARENT_PINS: [(u64, Pin, Pin); 3] = [
    (
        7,
        Pin {
            alphas: [1.5518322881017959, 0.41423656333075787, 0.29548092455851527],
            actions: [
                128, 20, 74, 74, 24, 72, 53, 66, 61, 69, 57, 64, 71, 68, 59, 55, 63, 70, 67, 65, 51, 60, 58, 62,
                48, 54, 56, 46, 52, 49, 44, 47, 50, 72, 45, 69, 71, 64, 60, 68, 66, 42, 62, 58, 59, 66, 60, 70,
                60, 58, 68, 72, 62, 65, 60, 59, 69, 64, 62, 69, 65, 62, 70, 70, 53, 68, 68, 70, 63, 62, 66, 67,
                71, 71, 68, 59, 72, 70, 61, 54, 57, 68, 66, 59, 59, 59, 69, 69, 65, 65, 60, 64, 70, 70, 66, 68,
                62, 65, 66, 69, 65, 58, 64, 64, 61, 62, 70, 66, 65, 69, 69, 68, 68, 64, 71, 72, 68, 72, 72, 69,
                68, 70, 70, 66, 66, 70, 60,
            ],
        },
        Pin {
            alphas: [0.6152134564908894, 0.3552926259867451, 0.2786911667124779],
            actions: [
                128, 60, 66, 62, 70, 58, 59, 65, 63, 72, 68, 67, 61, 57, 64, 53, 69, 71, 56, 54, 55, 50, 52, 51,
                72, 67, 64, 43, 65, 48, 58, 59, 61, 67, 72, 62, 71, 49, 68, 68, 46, 57, 61, 65, 65, 68, 60, 60,
                67, 65, 58, 67, 61, 69, 69, 52, 66, 66, 61, 61, 64, 72, 72, 72, 72, 47, 59, 68, 60, 63, 67, 72,
                62, 62, 65, 66, 66, 50, 67, 58, 61, 65, 51, 68, 68, 68, 64, 64, 71, 71, 71, 67, 70, 70, 57, 65,
                68, 72, 67, 59, 72, 61, 69, 69, 69, 45, 67, 72, 68, 70, 70, 64, 64, 61, 70, 72, 71, 71, 71, 66,
                72, 60, 68, 67, 67, 60, 69,
            ],
        },
    ),
    (
        11,
        Pin {
            alphas: [4.715728473251253, 1.998444703699919, 1.1125110888870255],
            actions: [
                128, 20, 74, 74, 24, 72, 51, 61, 66, 57, 69, 64, 54, 59, 68, 70, 55, 48, 62, 53, 56, 60, 58, 71,
                65, 67, 46, 63, 50, 52, 49, 44, 77, 47, 42, 41, 80, 45, 43, 73, 39, 75, 82, 40, 78, 38, 84, 65,
                69, 55, 63, 54, 67, 66, 61, 65, 57, 71, 61, 65, 72, 70, 58, 61, 63, 67, 63, 49, 66, 69, 67, 59,
                54, 55, 65, 66, 67, 66, 69, 54, 65, 65, 65, 61, 64, 58, 67, 59, 65, 65, 63, 72, 69, 66, 60, 60,
                65, 65, 65, 65, 65, 58, 62, 62, 62, 62, 62, 62, 55, 63, 66, 59, 56, 56, 56, 68, 68, 68, 68, 68,
                68, 68, 57, 68, 62, 68, 66,
            ],
        },
        Pin {
            alphas: [2.240731463782082, 1.3960845316788255, 1.0323666372963374],
            actions: [
                128, 65, 69, 55, 54, 67, 63, 71, 66, 57, 61, 70, 72, 58, 59, 56, 62, 68, 60, 64, 49, 52, 53, 51,
                50, 48, 62, 61, 55, 47, 69, 76, 72, 45, 61, 66, 61, 69, 72, 61, 40, 67, 57, 61, 61, 46, 50, 71,
                57, 69, 42, 68, 62, 56, 72, 61, 61, 55, 66, 72, 63, 66, 62, 65, 58, 58, 51, 69, 71, 43, 58, 57,
                61, 53, 61, 68, 67, 69, 68, 62, 56, 56, 56, 58, 64, 61, 44, 72, 57, 57, 67, 63, 71, 56, 61, 68,
                48, 61, 61, 61, 61, 66, 69, 70, 70, 70, 70, 70, 69, 56, 62, 54, 72, 61, 57, 61, 61, 61, 60, 60,
                60, 60, 60, 59, 59, 60, 60,
            ],
        },
    ),
    (
        13,
        Pin {
            alphas: [2.335861232604399, 0.6133829189524342, 0.31889144344255443],
            actions: [
                128, 18, 73, 73, 24, 72, 50, 67, 63, 70, 59, 65, 56, 61, 54, 69, 58, 71, 64, 66, 60, 62, 68, 57,
                52, 55, 47, 53, 45, 51, 48, 49, 43, 46, 41, 44, 39, 42, 72, 72, 65, 61, 59, 72, 56, 63, 62, 70,
                72, 72, 71, 69, 69, 58, 65, 72, 67, 67, 71, 71, 71, 69, 69, 69, 69, 69, 69, 57, 64, 64, 66, 70,
                70, 70, 70, 68, 59, 59, 67, 72, 72, 71, 69, 55, 72, 70, 72, 58, 66, 58, 64, 65, 62, 61, 69, 69,
                69, 67, 70, 68, 69, 58, 58, 71, 72, 72, 69, 69, 69, 69, 70, 70, 70, 70, 62, 52, 69, 69, 70, 64,
                69, 72, 72, 72, 72, 72, 72,
            ],
        },
        Pin {
            alphas: [0.9545486043459022, 0.5241693222723193, 0.3308703746999594],
            actions: [
                128, 65, 61, 59, 63, 56, 62, 70, 71, 69, 72, 58, 67, 66, 64, 68, 57, 55, 60, 52, 54, 72, 67, 53,
                66, 61, 66, 65, 72, 59, 71, 49, 66, 48, 58, 71, 61, 51, 50, 64, 65, 72, 47, 66, 56, 69, 71, 70,
                67, 66, 68, 67, 67, 58, 71, 68, 72, 72, 67, 67, 57, 67, 67, 67, 67, 66, 66, 70, 70, 70, 64, 72,
                70, 70, 70, 72, 65, 65, 67, 71, 71, 61, 63, 71, 71, 67, 72, 58, 71, 70, 70, 70, 58, 66, 67, 67,
                67, 69, 64, 71, 65, 67, 67, 67, 62, 62, 70, 70, 70, 70, 72, 72, 72, 72, 60, 67, 67, 67, 67, 65,
                65, 71, 71, 71, 71, 71, 71,
            ],
        },
    ),
];

/// The LCB `strategy` assigns to action `a` on `hist`.
fn lcb_of(strategy: &dyn Strategy, space: &ActionSpace, hist: &History, a: usize) -> f64 {
    let trace = strategy.explain(space, hist);
    trace.diagnostics.iter().find(|d| d.action == a).map_or(f64::NAN, |d| d.acquisition)
}

/// Play the parent's `actions` on `t` with `live` (warm-started with
/// `prior`), holding every proposal to them and σ²_N — after 16, 64 and 127
/// observations — to the pooled estimator over the raw records of
/// `target(action, duration)`, to the bit. Returns the history and the
/// hyper-parameters reported at those three points.
fn parent_pinned_session(
    t: &Table,
    label: &str,
    live: &mut dyn Strategy,
    actions: &[usize; ITERS],
    prior: &Option<SurrogatePrior>,
    target: impl Fn(usize, f64) -> f64,
) -> (History, Vec<GpHyper>) {
    let mut hist = History::new();
    let mut hypers = Vec::new();
    for (it, &pinned) in actions.iter().enumerate() {
        let a = live.propose(&t.space, &hist);
        assert_eq!(
            a,
            pinned,
            "{label}: iteration {it} plays {a} (LCB {:e}), the parent played {pinned} (LCB {:e})",
            lcb_of(live, &t.space, &hist, a),
            lcb_of(live, &t.space, &hist, pinned),
        );
        hist.record(a, t.mean[a - 1] * t.noise[it]);
        if [16, 64, ITERS].contains(&hist.len()) {
            let hyper = live.surrogate_hyper(&t.space, &hist).expect("a fitted surrogate");
            let records = prior.iter().flat_map(|p| &p.observations).chain(hist.records());
            let (xs, ys): (Vec<f64>, Vec<f64>) =
                records.map(|&(a, y)| (a as f64, target(a, y))).unzip();
            let noise = adaphet::gp::estimate_noise_from_replicates(&xs, &ys).unwrap();
            assert_eq!(hyper.noise_var.to_bits(), noise.to_bits(), "{label}: σ²_N moved");
            hypers.push(hyper);
        }
    }
    (hist, hypers)
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want
}

/// `pin`'s GP-discontinuous session on `t`: the actions, σ²_N of the LP
/// residuals, and the stage-2 α — which follows the stage-1 trend, so the
/// collapse reproduces it up to rounding. Returns the history.
fn gp_disc_pinned_session(
    t: &Table,
    label: &str,
    pin: &Pin,
    prior: Option<SurrogatePrior>,
) -> History {
    let mut live = warmed(GpDiscontinuous::new(&t.space), &prior);
    let residual = |a, y| y - t.space.lp_at(a).unwrap();
    let (hist, hypers) = parent_pinned_session(t, label, &mut live, &pin.actions, &prior, residual);
    for (got, want) in hypers.iter().zip(pin.alphas) {
        assert!(close(got.process_var, want), "{label}: stage-2 α {} vs {want}", got.process_var);
    }
    hist
}

#[test]
fn gp_disc_actions_match_the_per_observation_parent() {
    for (seed, cold, warm) in &PARENT_PINS {
        let t = table(*seed);
        let donor = gp_disc_pinned_session(&t, &format!("table({seed}) cold"), cold, None);
        let prior = Some(prior_from(&donor));
        gp_disc_pinned_session(&t, &format!("table({seed}) warm"), warm, prior);
    }
}

/// A full GP-UCB session as the last commit that ran the likelihood grid on
/// one row per *observation* played it, with the winning (θ, α) after 16, 64
/// and 127 observations. Generated on that commit; a difference means the
/// search changed, not the pin.
struct UcbPin {
    hypers: [(f64, f64); 3],
    actions: [usize; ITERS],
}

/// `pin`'s GP-UCB session on `t`: the actions, σ²_N of the durations, and
/// the grid's winner — a grid point scaled by the raw sample variance, so
/// it can only move to another grid point. Returns the history.
fn gp_ucb_pinned_session(
    t: &Table,
    label: &str,
    pin: &UcbPin,
    prior: Option<SurrogatePrior>,
) -> History {
    let mut live = warmed(GpDiscontinuous::gp_ucb(&t.space), &prior);
    let (hist, hypers) = parent_pinned_session(t, label, &mut live, &pin.actions, &prior, |_, y| y);
    for (got, (theta, alpha)) in hypers.iter().zip(pin.hypers) {
        assert!(
            close(got.theta, theta) && close(got.process_var, alpha),
            "{label}: (θ, α) ({}, {}) vs ({theta}, {alpha})",
            got.theta,
            got.process_var
        );
    }
    hist
}

/// The GP-UCB sessions pinned on `table_with(nodes, groups, seed)`: the
/// cold one and, where there is a second, the one warm-started from the
/// cold one's first 40 records (κ = 16).
struct UcbTablePins {
    nodes: usize,
    groups: &'static [(usize, usize)],
    seed: u64,
    sessions: &'static [UcbPin],
}

/// The 26- and 64-action tables are where most plays are replicates (25/12
/// and 60/53 distinct actions in 127 plays); the 128-action session tries
/// 120.
#[rustfmt::skip]
const UCB_PARENT_PINS: [UcbTablePins; 3] = [
    UcbTablePins {
        nodes: 26,
        groups: &[(1, 8), (9, 26)],
        seed: 5,
        sessions: &[
            UcbPin {
                hypers: [(50.0, 65093.210827528776), (15.811388300841896, 19259.131137780892), (5.0, 10028.854920623591)],
                actions: [
                    26, 1, 13, 13, 20, 17, 23, 10, 15, 25, 22, 19, 8, 12, 24, 21, 18, 16, 14, 11, 9, 7, 6, 5,
                    26, 4, 26, 25, 26, 25, 24, 26, 26, 26, 26, 25, 26, 26, 25, 26, 26, 3, 26, 26, 26, 26, 26, 26,
                    25, 26, 26, 26, 26, 26, 25, 26, 26, 26, 26, 26, 26, 26, 26, 26, 25, 26, 26, 26, 26, 26, 26, 26,
                    26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 25, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
                    26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
                    26, 26, 26, 26, 25, 26, 26,
                ],
            },
            UcbPin {
                hypers: [(15.811388300841896, 20326.418398063484), (8.891397050194614, 12118.706803058332), (5.0, 7670.167871549185)],
                actions: [
                    26, 26, 23, 22, 21, 20, 24, 25, 19, 26, 18, 26, 26, 25, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
                    26, 26, 26, 26, 26, 25, 26, 26, 26, 26, 3, 26, 26, 25, 24, 26, 26, 26, 26, 26, 26, 26, 26, 26,
                    26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 17, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
                    24, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 25, 26, 26, 26, 26, 26, 16, 26, 26, 26, 26,
                    26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26, 26,
                    26, 26, 26, 26, 26, 25, 26,
                ],
            },
        ],
    },
    UcbTablePins {
        nodes: 64,
        groups: &[(1, 16), (17, 40), (41, 64)],
        seed: 9,
        sessions: &[
            UcbPin {
                hypers: [(126.0, 106529.12379844184), (70.85500697398399, 26957.217059291288), (22.40632056649043, 14247.117679023127)],
                actions: [
                    64, 1, 32, 32, 48, 21, 40, 56, 27, 36, 44, 60, 52, 24, 17, 30, 38, 34, 42, 62, 58, 54, 50, 46,
                    19, 29, 26, 23, 15, 39, 37, 35, 33, 31, 41, 63, 28, 61, 57, 59, 55, 53, 51, 49, 47, 45, 43, 25,
                    22, 20, 18, 16, 14, 13, 12, 11, 10, 9, 8, 40, 40, 39, 40, 36, 40, 40, 38, 40, 40, 39, 40, 37,
                    7, 6, 40, 40, 40, 40, 39, 39, 39, 39, 36, 40, 40, 40, 40, 40, 40, 34, 40, 39, 39, 40, 40, 38,
                    39, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 38, 38, 38, 40, 40, 39,
                    39, 38, 40, 36, 39, 40, 40,
                ],
            },
            UcbPin {
                hypers: [(70.85500697398399, 30458.783804650568), (39.84469851812158, 16941.356394445163), (22.40632056649043, 10860.884459664467)],
                actions: [
                    64, 40, 55, 53, 51, 49, 47, 45, 43, 25, 22, 20, 18, 16, 14, 13, 12, 11, 10, 9, 39, 36, 38, 37,
                    34, 35, 33, 30, 31, 40, 63, 32, 62, 29, 58, 59, 54, 28, 8, 7, 39, 61, 40, 27, 57, 40, 56, 39,
                    38, 40, 40, 40, 26, 60, 52, 50, 36, 39, 40, 40, 40, 40, 40, 38, 48, 39, 40, 44, 40, 40, 36, 40,
                    46, 37, 38, 40, 41, 39, 40, 6, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 38, 42, 40, 40, 40, 39,
                    40, 40, 40, 40, 40, 39, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40, 40,
                    40, 40, 40, 40, 40, 40, 40,
                ],
            },
        ],
    },
    UcbTablePins {
        nodes: NODES,
        groups: &[(1, 24), (25, 72), (73, NODES)],
        seed: 17,
        sessions: &[
            UcbPin {
                hypers: [(254.0, 165354.79127942346), (142.83469659834867, 41372.797786357245), (80.32185256827684, 21017.768143597186)],
                actions: [
                    128, 1, 64, 64, 96, 42, 80, 112, 53, 72, 88, 104, 120, 32, 58, 48, 37, 68, 76, 84, 92, 100, 108, 116,
                    124, 61, 45, 27, 22, 55, 51, 40, 35, 30, 25, 66, 70, 74, 78, 82, 86, 90, 94, 98, 102, 106, 110, 114,
                    118, 122, 126, 57, 59, 63, 49, 47, 44, 39, 34, 29, 24, 54, 65, 69, 67, 71, 60, 56, 52, 62, 50, 46,
                    43, 41, 38, 36, 33, 73, 31, 75, 77, 28, 87, 85, 89, 81, 79, 83, 91, 95, 93, 97, 99, 101, 26, 103,
                    107, 105, 109, 111, 23, 113, 115, 117, 123, 121, 119, 125, 127, 20, 21, 19, 18, 17, 16, 15, 14, 13, 12, 11,
                    10, 70, 53, 58, 65, 67, 49,
                ],
            },
        ],
    },
];

#[test]
fn gp_ucb_actions_match_the_per_observation_parent() {
    for UcbTablePins { nodes, groups, seed, sessions } in &UCB_PARENT_PINS {
        let t = table_with(*nodes, groups.to_vec(), *seed);
        let label = format!("{nodes} actions, seed {seed}");
        let donor = gp_ucb_pinned_session(&t, &format!("{label}, cold"), &sessions[0], None);
        if let Some(warm) = sessions.get(1) {
            gp_ucb_pinned_session(&t, &format!("{label}, warm"), warm, Some(prior_from(&donor)));
        }
    }
}
