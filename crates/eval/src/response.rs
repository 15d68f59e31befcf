//! Response tables: measured iteration durations per action.

use adaphet_geostat::IterationChoice;
use adaphet_scenarios::{Scale, Scenario};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use rayon::prelude::*;

/// The measured response of one scenario: for each action (number of
/// factorization nodes) a pool of iteration durations, plus the LP bound
/// curve — the dataset the paper's resampling evaluation and all curve
/// figures are built on.
#[derive(Debug, Clone)]
pub struct ResponseTable {
    /// Scenario label.
    pub label: String,
    /// `durations[n-1]` = observation pool for action `n`.
    pub durations: Vec<Vec<f64>>,
    /// Raw simulated durations (before noise augmentation), per action.
    pub sim_base: Vec<Vec<f64>>,
    /// LP lower-bound curve per action.
    pub lp: Vec<f64>,
    /// Homogeneous groups of the platform.
    pub groups: Vec<(usize, usize)>,
    /// Observation-noise σ used for augmentation.
    pub sigma: f64,
}

impl ResponseTable {
    /// Number of actions (= nodes).
    pub fn n_actions(&self) -> usize {
        self.durations.len()
    }

    /// Mean observed duration of action `n`.
    pub fn mean(&self, n: usize) -> f64 {
        let d = &self.durations[n - 1];
        d.iter().sum::<f64>() / d.len() as f64
    }

    /// Standard deviation of action `n`'s pool.
    pub fn sd(&self, n: usize) -> f64 {
        adaphet_linalg::sample_variance(&self.durations[n - 1]).sqrt()
    }

    /// The action with the lowest mean duration (the oracle's choice).
    pub fn best_action(&self) -> usize {
        (1..=self.n_actions())
            .min_by(|&a, &b| self.mean(a).partial_cmp(&self.mean(b)).unwrap())
            .expect("non-empty table")
    }

    /// Mean duration of the all-nodes action (the baseline).
    pub fn all_nodes_mean(&self) -> f64 {
        self.mean(self.n_actions())
    }

    /// One observation of action `n`, drawn uniformly from its pool (one
    /// `rng` call) — how every replay executes an iteration.
    pub fn draw(&self, n: usize, rng: &mut StdRng) -> f64 {
        let pool = &self.durations[n - 1];
        pool[rng.random_range(0..pool.len())]
    }
}

/// Simulate one steady-state iteration duration for a choice: two
/// iterations are run and the second is measured (the first pays one-off
/// placement effects).
fn steady_iteration(scenario: &Scenario, scale: Scale, seed: u64, choice: IterationChoice) -> f64 {
    let mut app = scenario.app_untraced(scale, seed);
    app.run_iteration(choice);
    app.run_iteration(choice).duration()
}

/// Build the response table of a scenario at the given scale, augmenting
/// each simulated configuration to `reps` observations with `N(0, σ)`
/// noise (paper Section V). "(Real)" scenarios get 3 distinct jittered
/// simulation replicates per action as noise bases.
pub fn build_response(scenario: &Scenario, scale: Scale, reps: usize, seed: u64) -> ResponseTable {
    let n = scenario.n_nodes();
    let sim_seeds: Vec<u64> = if scenario.real { vec![0, 1, 2] } else { vec![0] };

    // One work item per (action, replicate) pair, not per action: a 10-node
    // "(Real)" table offers the fan-out 30 items instead of 10.
    let pairs: Vec<(usize, u64)> =
        (1..=n).flat_map(|k| sim_seeds.iter().map(move |&s| (k, s))).collect();
    let flat: Vec<f64> = pairs
        .into_par_iter()
        .map(|(k, s)| {
            steady_iteration(
                scenario,
                scale,
                seed ^ (s.wrapping_mul(0x9e37_79b9)),
                IterationChoice::fact_only(n, k),
            )
        })
        .collect();
    let sim_base: Vec<Vec<f64>> = flat.chunks(sim_seeds.len()).map(<[f64]>::to_vec).collect();

    // The paper's σ = 0.5 s is ≈2–5% of its 10–30 s iterations; keep the
    // same *relative* magnitude by anchoring σ to the median duration.
    let mut all: Vec<f64> = sim_base.iter().flatten().copied().collect();
    all.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = all[all.len() / 2];
    let sigma = scenario.noise_rel(scale) * median;

    let mut rng = StdRng::seed_from_u64(seed ^ adaphet_store::fnv1a(scenario.label().as_bytes()));
    let noise = Normal::new(0.0, sigma).expect("valid sigma");
    let durations: Vec<Vec<f64>> = sim_base
        .iter()
        .map(|bases| {
            (0..reps)
                .map(|r| {
                    let base = bases[r % bases.len()];
                    (base + noise.sample(&mut rng)).max(0.01 * base)
                })
                .collect()
        })
        .collect();

    ResponseTable {
        label: scenario.label(),
        durations,
        sim_base,
        lp: scenario.lp_curve(scale),
        groups: scenario.groups(),
        sigma,
    }
}

/// The "rigid" curve of Fig. 5 (yellow line): the same `n` nodes used for
/// both generation and factorization.
pub fn build_rigid_curve(scenario: &Scenario, scale: Scale, seed: u64) -> Vec<f64> {
    let n = scenario.n_nodes();
    (1..=n)
        .into_par_iter()
        .map(|k| steady_iteration(scenario, scale, seed, IterationChoice { n_gen: k, n_fact: k }))
        .collect()
}

/// The 2D response of Fig. 8: duration for every `(n_gen, n_fact)` pair
/// (optionally strided for speed). Returns `(pairs, durations)`.
pub fn build_response_2d(
    scenario: &Scenario,
    scale: Scale,
    stride: usize,
    seed: u64,
) -> Vec<((usize, usize), f64)> {
    let n = scenario.n_nodes();
    let stride = stride.max(1);
    let mut axis: Vec<usize> = (1..=n).step_by(stride).collect();
    if *axis.last().unwrap() != n {
        axis.push(n);
    }
    let pairs: Vec<(usize, usize)> =
        axis.iter().flat_map(|&g| axis.iter().map(move |&f| (g, f))).collect();
    pairs
        .into_par_iter()
        .map(|(g, f)| {
            let d =
                steady_iteration(scenario, scale, seed, IterationChoice { n_gen: g, n_fact: f });
            ((g, f), d)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> ResponseTable {
        let scen = Scenario::by_id('a').unwrap();
        build_response(&scen, Scale::Test, 10, 7)
    }

    #[test]
    fn table_has_pool_per_action() {
        let t = small_table();
        assert_eq!(t.n_actions(), 10);
        for n in 1..=10 {
            assert_eq!(t.durations[n - 1].len(), 10);
            assert!(t.durations[n - 1].iter().all(|&d| d > 0.0));
        }
    }

    #[test]
    fn lp_is_below_measurements() {
        let t = small_table();
        for n in 1..=t.n_actions() {
            assert!(
                t.lp[n - 1] <= t.mean(n) + 3.0 * t.sigma,
                "LP({n}) = {} vs mean {}",
                t.lp[n - 1],
                t.mean(n)
            );
        }
    }

    #[test]
    fn real_scenarios_have_replicated_bases() {
        let t = small_table(); // (a) is Real
        assert_eq!(t.sim_base[0].len(), 3);
        let scen = Scenario::by_id('e').unwrap(); // Simul
        let t2 = build_response(&scen, Scale::Test, 4, 7);
        assert_eq!(t2.sim_base[0].len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let scen = Scenario::by_id('a').unwrap();
        let a = build_response(&scen, Scale::Test, 5, 3);
        let b = build_response(&scen, Scale::Test, 5, 3);
        assert_eq!(a.durations, b.durations);
    }

    #[test]
    fn best_action_is_argmin_of_means() {
        let t = small_table();
        let best = t.best_action();
        for n in 1..=t.n_actions() {
            assert!(t.mean(best) <= t.mean(n) + 1e-12);
        }
    }

    #[test]
    fn rigid_curve_has_one_point_per_action() {
        let scen = Scenario::by_id('a').unwrap();
        let r = build_rigid_curve(&scen, Scale::Test, 1);
        assert_eq!(r.len(), 10);
        assert!(r.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn response_2d_covers_strided_grid() {
        let scen = Scenario::by_id('a').unwrap();
        let grid = build_response_2d(&scen, Scale::Test, 4, 1);
        // axis = {1, 5, 9, 10} → 16 pairs.
        assert_eq!(grid.len(), 16);
        assert!(grid.iter().any(|&((g, f), _)| g == 10 && f == 10));
    }
}
