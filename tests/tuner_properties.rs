//! Property-based integration tests of the tuner layer against random
//! synthetic response curves (the whole strategy zoo must stay in-bounds
//! and deterministic, and GP-discontinuous must honour the bound filter).

use adaphet::eval::{run_faulted_session, FaultSessionConfig, PAPER_STRATEGIES};
use adaphet::runtime::FaultPlan;
use adaphet::scenarios::{Scale, Scenario};
use adaphet::tuner::{
    ActionSpace, GpDiscontinuous, History, ResiliencePolicy, Strategy, StrategyKind,
};
use proptest::prelude::*;

/// A random piecewise response curve with optional jump.
fn curve(work: f64, slope: f64, jump_at: usize, jump: f64) -> impl Fn(usize) -> f64 {
    move |n: usize| {
        let base = work / n as f64 + slope * n as f64;
        if n >= jump_at {
            base + jump
        } else {
            base
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every strategy proposes only valid actions for any curve.
    #[test]
    fn all_strategies_stay_in_bounds(
        n in 2usize..40,
        work in 10.0f64..200.0,
        slope in 0.1f64..2.0,
        seed in 0u64..50,
    ) {
        let lp: Vec<f64> = (1..=n).map(|k| work / k as f64).collect();
        let g1 = (n / 3).max(1);
        let g2 = (2 * n / 3).max(g1 + 1).min(n);
        let groups = if g2 < n {
            vec![(1, g1), (g1 + 1, g2), (g2 + 1, n)]
        } else if g1 < n {
            vec![(1, g1), (g1 + 1, n)]
        } else {
            vec![(1, n)]
        };
        let space = ActionSpace::new(n, groups, Some(lp));
        let f = curve(work, slope, 2 * n / 3 + 1, 5.0);
        for kind in PAPER_STRATEGIES {
            let mut s = kind.build(&space, seed, None).expect("paper strategy");
            let mut h = History::new();
            for _ in 0..30 {
                let a = s.propose(&space, &h);
                prop_assert!((1..=n).contains(&a), "{kind} proposed {a} (N = {n})");
                h.record(a, f(a));
            }
        }
    }

    /// The `Strategy::propose` range contract holds for *every* registered
    /// strategy even on adversarial histories the strategy did not build
    /// itself (arbitrary actions in arbitrary order, arbitrary durations)
    /// — callers such as `Session` and `replay` rely on this instead
    /// of clamping.
    #[test]
    fn every_strategy_stays_in_bounds_on_random_histories(
        n in 2usize..32,
        seed in 0u64..40,
        raw in collection::vec(0u64..1_000_000, 0..40),
    ) {
        let space = ActionSpace::unstructured(n);
        let mut h = History::new();
        for &x in &raw {
            let action = (x as usize % n) + 1;
            let duration = 0.5 + (x % 997) as f64 * 0.1;
            h.record(action, duration);
        }
        for kind in StrategyKind::all() {
            let mut s = kind
                .build(&space, seed, Some((seed as usize % n) + 1))
                .expect("every kind builds when an oracle best is supplied");
            for _ in 0..3 {
                let a = s.propose(&space, &h);
                prop_assert!(
                    (1..=n).contains(&a),
                    "{kind} proposed {a} outside 1..={n} on a random history of len {}",
                    h.len()
                );
                h.record(a, 1.0 + (a as f64));
            }
        }
    }

    /// Strategies are deterministic given identical seeds and histories.
    #[test]
    fn strategies_are_reproducible(n in 3usize..20, seed in 0u64..20) {
        let space = ActionSpace::unstructured(n);
        let f = curve(50.0, 0.8, n + 1, 0.0);
        for kind in PAPER_STRATEGIES {
            let run = || {
                let mut s = kind.build(&space, seed, None).expect("paper strategy");
                let mut h = History::new();
                let mut seq = Vec::new();
                for _ in 0..20 {
                    let a = s.propose(&space, &h);
                    seq.push(a);
                    h.record(a, f(a));
                }
                seq
            };
            prop_assert_eq!(run(), run(), "{} not reproducible", kind);
        }
    }

    /// After the forced first iteration, GP-discontinuous never proposes an
    /// action excluded by the LP bound mechanism.
    #[test]
    fn gp_disc_honours_bound_filter(
        n in 4usize..30,
        work in 20.0f64..150.0,
        slope in 0.2f64..1.5,
    ) {
        let lp: Vec<f64> = (1..=n).map(|k| work / k as f64).collect();
        let space = ActionSpace::new(n, vec![], Some(lp.clone()));
        let f = curve(work, slope, n + 1, 0.0);
        let mut s = GpDiscontinuous::new(&space);
        let mut h = History::new();
        let mut y_all = None;
        for _ in 0..25 {
            let a = s.propose(&space, &h);
            if let Some(y) = y_all {
                prop_assert!(
                    a == n || lp[a - 1] < y,
                    "proposed {a} with LP {} >= y(N) {}",
                    lp[a - 1],
                    y
                );
            }
            let y = f(a);
            h.record(a, y);
            if a == n && y_all.is_none() {
                y_all = Some(y);
            }
        }
    }

    /// On noiseless convex curves, GP-discontinuous's final choice is near
    /// the true optimum.
    #[test]
    fn gp_disc_finds_convex_optimum(
        n in 6usize..25,
        work in 30.0f64..120.0,
        slope in 0.4f64..1.6,
    ) {
        let lp: Vec<f64> = (1..=n).map(|k| work / k as f64).collect();
        let space = ActionSpace::new(n, vec![], Some(lp));
        let f = curve(work, slope, n + 1, 0.0);
        let best = (1..=n)
            .min_by(|&a, &b| f(a).partial_cmp(&f(b)).unwrap())
            .unwrap();
        let mut s = GpDiscontinuous::new(&space);
        let mut h = History::new();
        for _ in 0..50 {
            let a = s.propose(&space, &h);
            h.record(a, f(a));
        }
        let last = h.records().last().unwrap().0;
        // Either the bound already proves the optimum region, or the GP
        // found it; accept a +-2 neighbourhood (plateaus near the optimum
        // of a discrete convex curve are common).
        prop_assert!(
            (last as i64 - best as i64).abs() <= 2 || f(last) <= f(best) * 1.03,
            "settled at {last}, optimum {best} (N = {n})"
        );
    }

    /// Under a random fault plan the live space shrinks mid-run (node
    /// deaths) and past observations may be quarantined — every strategy
    /// must still propose inside the *live* space at every step.
    #[test]
    fn strategies_stay_inside_a_shrinking_live_space(
        n in 4usize..32,
        seed in 0u64..40,
        plan_seed in 0u64..200,
    ) {
        let plan = FaultPlan::sample(plan_seed, n, 30);
        for kind in StrategyKind::all() {
            let space = ActionSpace::unstructured(n);
            let mut live = space.clone();
            let mut s = kind
                .build(&space, seed, Some((seed as usize % n) + 1))
                .expect("every kind builds when an oracle best is supplied");
            let mut h = History::new();
            for it in 0..30 {
                for rank in plan.deaths_at(it) {
                    if live.max_nodes > 1 && rank <= live.max_nodes {
                        live = ActionSpace::unstructured(live.max_nodes - 1);
                        // Quarantine: drop observations of dead counts.
                        let max = live.max_nodes;
                        h.retain_actions(|a| a <= max);
                    }
                }
                let a = s.propose(&live, &h);
                prop_assert!(
                    (1..=live.max_nodes).contains(&a),
                    "{kind} proposed {a} with live space 1..={} at iteration {it}",
                    live.max_nodes
                );
                h.record(a, 1.0 + a as f64 + plan.outlier_factor(it));
            }
        }
    }

    /// The same seed and fault plan replay bit-identically through the
    /// full live-simulation fault harness.
    #[test]
    fn faulted_sessions_replay_bit_identically(
        seed in 0u64..6,
        plan_seed in 0u64..30,
    ) {
        let scen = Scenario::by_id('a').expect("scenario a exists");
        let plan = FaultPlan::sample(plan_seed, scen.n_nodes(), 8);
        let run = || {
            let cfg = FaultSessionConfig {
                kind: StrategyKind::GpDiscontinuous,
                iters: 8,
                seed,
                policy: ResiliencePolicy::standard(),
            };
            run_faulted_session(&scen, Scale::Test, &plan, cfg, Vec::new())
                .expect("valid sampled plan")
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.history, b.history, "histories diverged");
        prop_assert_eq!(a.deaths, b.deaths);
        prop_assert_eq!(a.final_space.max_nodes, b.final_space.max_nodes);
        prop_assert_eq!(a.faults_injected, b.faults_injected);
    }
}

/// The registry holds exactly what the evaluation runs: the paper's seven
/// strategies, its two reference lines and the seed-reading random floor.
/// Adding or removing a strategy is a diff of this list.
#[test]
fn registry_holds_exactly_the_evaluated_strategies() {
    let names: Vec<&str> = StrategyKind::all().map(StrategyKind::name).collect();
    assert_eq!(
        names,
        [
            "DC",
            "Right-Left",
            "Brent",
            "UCB",
            "UCB-struct",
            "GP-UCB",
            "GP-discontinuous",
            "all-nodes",
            "oracle",
            "Random",
        ]
    );
}
