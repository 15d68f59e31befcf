//! A proposal the state-space screen decides fits nothing densely, and a
//! traced iteration explains it with one dense fit shared by every reader.
//! One test, alone in its binary: the process-wide `gp.fit.full`,
//! `gp.mle.searches` and `gp.screen.*` counters are exact only while
//! nothing else fits.

use adaphet_core::{ActionSpace, GpDiscontinuous, History, Strategy};
use adaphet_gp::GpModel;

fn bits(model: &GpModel, n: usize) -> Vec<(u64, u64)> {
    (1..=n).map(|a| model.predict(a as f64)).map(|p| (p.mean.to_bits(), p.var.to_bits())).collect()
}

#[test]
fn explaining_the_proposal_just_made_fits_nothing() {
    let registry = adaphet_metrics::install_global(adaphet_metrics::Registry::new());
    let fits = || registry.counter_value("gp.fit.full");
    let n = 16;
    let lp: Vec<f64> = (1..=n).map(|k| 48.0 / k as f64).collect();
    let space = ActionSpace::new(n, vec![(1, 6), (7, 16)], Some(lp));
    let f = |a: usize| 48.0 / a as f64 + 0.4 * a as f64 + if a > 6 { 6.0 } else { 0.0 };
    let mut g = GpDiscontinuous::new(&space);
    let mut hist = History::new();
    for _ in 0..20 {
        let a = g.propose(&space, &hist);
        hist.record(a, f(a));
    }

    let decided = || registry.counter_value("gp.screen.decided");
    let before = (fits(), decided());
    let action = g.propose(&space, &hist);
    assert_eq!(decided() - before.1, 1.0, "the screen decides this proposal");
    assert_eq!(fits() - before.0, 0.0, "a decided proposal fits nothing densely");

    let before = fits();
    let trace = g.explain(&space, &hist);
    let snapshot = g.posterior_snapshot(&space, &hist).expect("fitted");
    let hyper = g.surrogate_hyper(&space, &hist).expect("fitted");
    let kept = g.fit(&hist).expect("fitted");
    let per_trace = fits() - before;
    assert!((1.0..=2.0).contains(&per_trace), "one two-stage fit serves all four");

    // What they return is what a strategy that never proposed computes.
    let fresh = GpDiscontinuous::new(&space);
    let scratch = fresh.fit(&hist).expect("fitted");
    assert_eq!(bits(&kept, n), bits(&scratch, n));
    assert_eq!(kept.log_likelihood().to_bits(), scratch.log_likelihood().to_bits());
    assert_eq!(trace, fresh.explain(&space, &hist));
    assert_eq!(snapshot, fresh.posterior_snapshot(&space, &hist).unwrap());
    assert_eq!(hyper, fresh.surrogate_hyper(&space, &hist).unwrap());

    // Another history is not the one the kept model was fitted on.
    hist.record(action, f(action));
    let before = fits();
    g.explain(&space, &hist);
    g.posterior_snapshot(&space, &hist);
    g.surrogate_hyper(&space, &hist);
    assert!(fits() - before >= 3.0, "each of the three fits afresh");
    // GP-UCB: a decided proposal reads its (θ, α) off the likelihood
    // screen and runs no search; its trace runs one — the 9 θ × 3 α grid
    // screened, the leader alone fitted densely here — for all three.
    let searches = || registry.counter_value("gp.mle.searches");
    let mut g = GpDiscontinuous::gp_ucb(&space);
    let mut hist = History::new();
    for _ in 0..20 {
        let a = g.propose(&space, &hist);
        hist.record(a, f(a));
    }
    let before = (searches(), fits(), decided());
    let action = g.propose(&space, &hist);
    assert_eq!(decided() - before.2, 1.0, "the screen decides this proposal");
    assert_eq!((searches() - before.0, fits() - before.1), (0.0, 0.0), "no search, no dense fit");

    let before = (searches(), fits());
    let trace = g.explain(&space, &hist);
    let snapshot = g.posterior_snapshot(&space, &hist).expect("fitted");
    let hyper = g.surrogate_hyper(&space, &hist).expect("fitted");
    assert_eq!(
        (searches() - before.0, fits() - before.1),
        (1.0, 1.0),
        "one search serves all three"
    );
    let fresh = GpDiscontinuous::gp_ucb(&space);
    assert_eq!(trace, fresh.explain(&space, &hist));
    assert_eq!(snapshot, fresh.posterior_snapshot(&space, &hist).unwrap());
    assert_eq!(hyper, fresh.surrogate_hyper(&space, &hist).unwrap());

    hist.record(action, f(action));
    let before = searches();
    g.explain(&space, &hist);
    g.posterior_snapshot(&space, &hist);
    g.surrogate_hyper(&space, &hist);
    assert_eq!(searches() - before, 3.0, "each of the three searches afresh");
}
