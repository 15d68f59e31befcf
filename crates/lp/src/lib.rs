#![warn(missing_docs)]

//! The paper's makespan lower bound `LP(n)` in closed form.
//!
//! The paper (Section II/IV) relies on the linear program of Nesi et
//! al. (ICPP 2021) for an optimistic makespan lower bound `LP(n)` per
//! number of nodes `n`. The GP-discontinuous strategy then (a) models the
//! *difference* between observations and `LP(n)` and (b) excludes from the
//! search space every `n` whose bound is already worse than the measured
//! all-nodes duration.
//!
//! For a phase with total work `W` distributed over nodes with per-unit
//! times `t_i`, that program is the proportional-share relaxation
//!
//! ```text
//! minimize  T
//! s.t.      Σ_i w_i  = W
//!           w_i t_i <= T       for every node i
//!           w_i     >= 0
//! ```
//!
//! It ignores communications, integrality of tasks and the critical path —
//! exactly the properties the paper ascribes to its LP: "optimistic and
//! does not consider communications nor critical path". Its optimum has
//! every node finish together, `w_i = T / t_i`, so `T = W / Σ_i (1/t_i)`.
//!
//! ```
//! use adaphet_lp::proportional_share_bound;
//!
//! // Speeds 1 and 2 units/s: 3 units of work take 1 s at best.
//! assert_eq!(proportional_share_bound(3.0, &[1.0, 0.5]), 1.0);
//! ```

/// The optimum `T = W / Σ_i (1/t_i)` of the proportional-share LP for
/// `work` units over nodes with per-unit times `unit_times`. Infinite
/// `t_i` entries (nodes that cannot run the work) take no share. Returns
/// `f64::INFINITY` when no node can execute the work (or there are no
/// nodes) and the work is positive.
pub fn proportional_share_bound(work: f64, unit_times: &[f64]) -> f64 {
    assert!(work >= 0.0, "work must be non-negative");
    let inv_sum: f64 = unit_times.iter().filter(|t| t.is_finite()).map(|t| 1.0 / t).sum();
    if work == 0.0 {
        return 0.0;
    }
    if inv_sum <= 0.0 {
        return f64::INFINITY;
    }
    work / inv_sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The equal-finish assignment `w_i = T / t_i` (0 where `t_i = ∞`):
    /// the primal solution that attains the bound.
    fn equal_finish(bound: f64, unit_times: &[f64]) -> Vec<f64> {
        unit_times.iter().map(|&t| if t.is_finite() { bound / t } else { 0.0 }).collect()
    }

    /// The makespan `max_i w_i t_i` of an assignment (a zero share on an
    /// incapable node costs nothing).
    fn makespan(shares: &[f64], unit_times: &[f64]) -> f64 {
        shares
            .iter()
            .zip(unit_times)
            .map(|(&w, &t)| if w == 0.0 { 0.0 } else { w * t })
            .fold(0.0, f64::max)
    }

    /// `times` with roughly one entry in four replaced by `∞`.
    fn with_incapable_nodes(seed: u64, mut times: Vec<f64>) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for t in times.iter_mut() {
            if rng.random_bool(0.25) {
                *t = f64::INFINITY;
            }
        }
        times
    }

    #[test]
    fn closed_form_homogeneous() {
        // 4 identical nodes, 1 s per unit, 8 units → 2 s, 2 units each.
        let b = proportional_share_bound(8.0, &[1.0; 4]);
        assert!((b - 2.0).abs() < 1e-12);
        for s in equal_finish(b, &[1.0; 4]) {
            assert!((s - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn closed_form_heterogeneous() {
        // Speeds 1 and 2 units/s (times 1.0 and 0.5): fast node gets 2/3.
        let times = [1.0, 0.5];
        let b = proportional_share_bound(3.0, &times);
        assert!((b - 1.0).abs() < 1e-12);
        let shares = equal_finish(b, &times);
        assert!((shares[0] - 1.0).abs() < 1e-12);
        assert!((shares[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_times_excluded() {
        let times = [1.0, f64::INFINITY];
        let b = proportional_share_bound(4.0, &times);
        assert!((b - 4.0).abs() < 1e-12);
        assert_eq!(equal_finish(b, &times)[1], 0.0);
    }

    #[test]
    fn no_capable_node_is_infinite() {
        assert!(proportional_share_bound(1.0, &[f64::INFINITY]).is_infinite());
        assert!(proportional_share_bound(1.0, &[]).is_infinite());
    }

    #[test]
    fn zero_work_is_zero_bound() {
        assert_eq!(proportional_share_bound(0.0, &[f64::INFINITY, 1.0]), 0.0);
    }

    #[test]
    fn adding_nodes_never_increases_bound() {
        // Monotonicity: the LP bound decreases (weakly) with more nodes —
        // this is why the *bound* alone cannot find the optimum and the GP
        // models the residual.
        let mut times = vec![0.5];
        let mut prev = proportional_share_bound(100.0, &times);
        for t in [0.5, 1.0, 1.0, 2.0, 4.0, 8.0] {
            times.push(t);
            let cur = proportional_share_bound(100.0, &times);
            assert!(cur <= prev + 1e-12);
            prev = cur;
        }
    }

    proptest! {
        /// Primal feasibility: the equal-finish assignment distributes all
        /// the work and finishes at exactly the bound, so the bound is
        /// attained. With the lower-bound property below, `T` is the LP
        /// optimum.
        #[test]
        fn prop_equal_finish_attains_the_bound(
            seed in 0u64..200,
            work in 0.1f64..50.0,
            times in proptest::collection::vec(0.05f64..5.0, 1..8),
        ) {
            let times = with_incapable_nodes(seed, times);
            let bound = proportional_share_bound(work, &times);
            if times.iter().all(|t| t.is_infinite()) {
                prop_assert!(bound.is_infinite());
            } else {
                let shares = equal_finish(bound, &times);
                let total: f64 = shares.iter().sum();
                prop_assert!((total - work).abs() <= 1e-12 * work, "{total} vs {work}");
                let finish = makespan(&shares, &times);
                prop_assert!((finish - bound).abs() <= 1e-12 * bound, "{finish} vs {bound}");
            }
        }

        /// The bound is a true lower bound on *any* feasible assignment's
        /// makespan: integral (unit tasks) and fractional alike.
        #[test]
        fn prop_bound_below_any_assignment(
            seed in 0u64..200,
            times in proptest::collection::vec(0.05f64..5.0, 1..6),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let tasks = rng.random_range(1usize..40);
            // Random assignment of unit tasks to nodes.
            let mut per_node = vec![0usize; times.len()];
            for _ in 0..tasks {
                let n = rng.random_range(0..times.len());
                per_node[n] += 1;
            }
            let integral: Vec<f64> = per_node.iter().map(|&c| c as f64).collect();
            let bound = proportional_share_bound(tasks as f64, &times);
            prop_assert!(bound <= makespan(&integral, &times) + 1e-9);

            // Random fractional assignment of `work` to the capable nodes.
            let times = with_incapable_nodes(seed, times);
            let work = rng.random_range(0.1f64..50.0);
            let bound = proportional_share_bound(work, &times);
            let weights: Vec<f64> = times
                .iter()
                .map(|t| if t.is_finite() { rng.random_range(0.0f64..1.0) } else { 0.0 })
                .collect();
            let weight_sum: f64 = weights.iter().sum();
            if weight_sum > 0.0 {
                let shares: Vec<f64> = weights.iter().map(|u| work * u / weight_sum).collect();
                let finish = makespan(&shares, &times);
                prop_assert!(finish >= bound * (1.0 - 1e-12), "{finish} below {bound}");
            }
        }
    }
}
