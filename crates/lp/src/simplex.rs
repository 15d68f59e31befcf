//! Dense two-phase primal simplex with Bland's anti-cycling rule.

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Relational operator of a constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `coeffs · x <= rhs`
    Le,
    /// `coeffs · x >= rhs`
    Ge,
    /// `coeffs · x == rhs`
    Eq,
}

/// A linear program over non-negative variables.
#[derive(Debug, Clone)]
pub struct LpProblem {
    n_vars: usize,
    sense: Sense,
    objective: Vec<f64>,
    rows: Vec<(Vec<f64>, ConstraintOp, f64)>,
}

/// An optimal solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal objective value (in the problem's original sense).
    pub objective: f64,
    /// Optimal variable assignment.
    pub x: Vec<f64>,
}

/// Outcome of a solve.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// A finite optimum was found.
    Optimal(LpSolution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

impl LpOutcome {
    /// Unwrap the optimal solution; panics otherwise (test helper).
    pub fn unwrap_optimal(self) -> LpSolution {
        match self {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal LP solution, got {other:?}"),
        }
    }
}

const EPS: f64 = 1e-9;

impl LpProblem {
    /// Create a problem with `n_vars` non-negative variables.
    ///
    /// # Panics
    /// Panics if `objective.len() != n_vars`.
    pub fn new(n_vars: usize, sense: Sense, objective: Vec<f64>) -> Self {
        assert_eq!(objective.len(), n_vars, "objective length must match n_vars");
        LpProblem { n_vars, sense, objective, rows: Vec::new() }
    }

    /// Add a constraint `coeffs · x (op) rhs`.
    ///
    /// # Panics
    /// Panics if `coeffs.len() != n_vars`.
    pub fn add_constraint(&mut self, coeffs: Vec<f64>, op: ConstraintOp, rhs: f64) {
        assert_eq!(coeffs.len(), self.n_vars, "constraint length must match n_vars");
        self.rows.push((coeffs, op, rhs));
    }

    /// Number of structural variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Solve with the two-phase primal simplex method.
    pub fn solve(&self) -> LpOutcome {
        let recorder = adaphet_metrics::global();
        recorder.add("lp.solves", 1.0);
        let _solve_timer = adaphet_metrics::Timer::start(recorder, "lp.solve_s");
        let m = self.rows.len();
        // Normalize rows to non-negative rhs.
        let mut rows: Vec<(Vec<f64>, ConstraintOp, f64)> = self.rows.clone();
        for (coeffs, op, rhs) in &mut rows {
            if *rhs < 0.0 {
                for c in coeffs.iter_mut() {
                    *c = -*c;
                }
                *rhs = -*rhs;
                *op = match *op {
                    ConstraintOp::Le => ConstraintOp::Ge,
                    ConstraintOp::Ge => ConstraintOp::Le,
                    ConstraintOp::Eq => ConstraintOp::Eq,
                };
            }
        }

        // Column layout: [structural | slacks/surpluses | artificials].
        let n_slack = rows
            .iter()
            .filter(|(_, op, _)| matches!(op, ConstraintOp::Le | ConstraintOp::Ge))
            .count();
        let n_art = rows
            .iter()
            .filter(|(_, op, _)| matches!(op, ConstraintOp::Ge | ConstraintOp::Eq))
            .count();
        let total = self.n_vars + n_slack + n_art;

        // Tableau: m rows of (coefficients.., rhs). Basis: one column per row.
        let mut tab = vec![vec![0.0; total + 1]; m];
        let mut basis = vec![usize::MAX; m];
        let art_start = self.n_vars + n_slack;
        let mut slack_idx = self.n_vars;
        let mut art_idx = art_start;
        for (r, (coeffs, op, rhs)) in rows.iter().enumerate() {
            tab[r][..self.n_vars].copy_from_slice(coeffs);
            tab[r][total] = *rhs;
            match op {
                ConstraintOp::Le => {
                    tab[r][slack_idx] = 1.0;
                    basis[r] = slack_idx;
                    slack_idx += 1;
                }
                ConstraintOp::Ge => {
                    tab[r][slack_idx] = -1.0;
                    slack_idx += 1;
                    tab[r][art_idx] = 1.0;
                    basis[r] = art_idx;
                    art_idx += 1;
                }
                ConstraintOp::Eq => {
                    tab[r][art_idx] = 1.0;
                    basis[r] = art_idx;
                    art_idx += 1;
                }
            }
        }

        // Phase 1: minimize the sum of artificial variables.
        if n_art > 0 {
            let mut cost = vec![0.0; total];
            for c in cost.iter_mut().skip(art_start) {
                *c = 1.0;
            }
            let status = simplex_core(&mut tab, &mut basis, &cost, total);
            if status == CoreStatus::Unbounded {
                // Phase-1 objective is bounded below by 0; cannot happen.
                return LpOutcome::Infeasible;
            }
            let phase1_obj = objective_value(&tab, &basis, &cost, total);
            if phase1_obj > 1e-7 {
                return LpOutcome::Infeasible;
            }
            // Drive any artificial still in the basis (at value 0) out.
            for r in 0..m {
                if basis[r] >= art_start {
                    // Find a non-artificial column with nonzero coefficient.
                    let pivot_col =
                        (0..art_start).find(|&j| tab[r][j].abs() > EPS && !basis.contains(&j));
                    if let Some(j) = pivot_col {
                        pivot(&mut tab, &mut basis, r, j, total);
                    }
                    // If none exists, the row is redundant; the artificial
                    // stays basic at zero, which is harmless as long as its
                    // column is never re-entered (phase 2 excludes it).
                }
            }
        }

        // Phase 2: optimize the real objective over non-artificial columns.
        let mut cost = vec![0.0; total];
        for (j, &c) in self.objective.iter().enumerate() {
            cost[j] = match self.sense {
                Sense::Minimize => c,
                Sense::Maximize => -c,
            };
        }
        // Forbid artificial columns from entering by pricing them high.
        for c in cost.iter_mut().skip(art_start) {
            *c = f64::INFINITY;
        }
        let status = simplex_core(&mut tab, &mut basis, &cost, total);
        if status == CoreStatus::Unbounded {
            return LpOutcome::Unbounded;
        }

        let mut x = vec![0.0; self.n_vars];
        for (r, &b) in basis.iter().enumerate() {
            if b < self.n_vars {
                x[b] = tab[r][total];
            }
        }
        let mut obj: f64 = self.objective.iter().zip(&x).map(|(c, xi)| c * xi).sum();
        // Clean tiny negative zeros for cosmetic determinism.
        if obj == 0.0 {
            obj = 0.0;
        }
        LpOutcome::Optimal(LpSolution { objective: obj, x })
    }
}

#[derive(PartialEq, Eq)]
enum CoreStatus {
    Optimal,
    Unbounded,
}

/// Reduced cost of column `j` given the current basis costs.
fn reduced_cost(tab: &[Vec<f64>], basis: &[usize], cost: &[f64], j: usize) -> f64 {
    let mut z = 0.0;
    for (r, &b) in basis.iter().enumerate() {
        let cb = cost[b];
        if cb != 0.0 && cb.is_finite() {
            z += cb * tab[r][j];
        }
    }
    cost[j] - z
}

fn objective_value(tab: &[Vec<f64>], basis: &[usize], cost: &[f64], total: usize) -> f64 {
    basis
        .iter()
        .enumerate()
        .map(|(r, &b)| if cost[b].is_finite() { cost[b] * tab[r][total] } else { 0.0 })
        .sum()
}

/// Run the simplex iterations (minimization) on the current tableau.
/// Columns with infinite cost never enter the basis.
fn simplex_core(
    tab: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    total: usize,
) -> CoreStatus {
    let m = tab.len();
    // Generous iteration cap; Bland's rule guarantees termination anyway.
    let max_iters = 50 * (total + m + 10);
    for _ in 0..max_iters {
        // Bland: entering column = smallest index with negative reduced cost.
        let mut entering = None;
        for j in 0..total {
            if !cost[j].is_finite() {
                continue;
            }
            if reduced_cost(tab, basis, cost, j) < -EPS {
                entering = Some(j);
                break;
            }
        }
        let Some(q) = entering else {
            return CoreStatus::Optimal;
        };
        // Ratio test; Bland: tie-break by smallest basis index.
        let mut leave: Option<(usize, f64)> = None;
        for r in 0..m {
            let a = tab[r][q];
            if a > EPS {
                let ratio = tab[r][total] / a;
                match leave {
                    None => leave = Some((r, ratio)),
                    Some((lr, lratio)) => {
                        if ratio < lratio - EPS || (ratio < lratio + EPS && basis[r] < basis[lr]) {
                            leave = Some((r, ratio));
                        }
                    }
                }
            }
        }
        let Some((p, _)) = leave else {
            return CoreStatus::Unbounded;
        };
        pivot(tab, basis, p, q, total);
    }
    // Should be unreachable with Bland's rule; treat as optimal-so-far.
    CoreStatus::Optimal
}

/// Pivot on `(row, col)`: make column `col` the basis column of `row`.
fn pivot(tab: &mut [Vec<f64>], basis: &mut [usize], row: usize, col: usize, total: usize) {
    let piv = tab[row][col];
    debug_assert!(piv.abs() > 0.0, "pivot on zero element");
    let inv = 1.0 / piv;
    for v in tab[row].iter_mut() {
        *v *= inv;
    }
    // Defensive exactness on the pivot itself.
    tab[row][col] = 1.0;
    for r in 0..tab.len() {
        if r == row {
            continue;
        }
        let factor = tab[r][col];
        if factor == 0.0 {
            continue;
        }
        // tab[r] -= factor * tab[row]
        let (src, dst): (Vec<f64>, &mut Vec<f64>) = (tab[row].clone(), &mut tab[r]);
        for (d, s) in dst.iter_mut().zip(&src) {
            *d -= factor * s;
        }
        tab[r][col] = 0.0;
    }
    let _ = total;
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn solve_max(obj: &[f64], cons: &[(&[f64], ConstraintOp, f64)]) -> LpOutcome {
        let mut lp = LpProblem::new(obj.len(), Sense::Maximize, obj.to_vec());
        for (c, op, r) in cons {
            lp.add_constraint(c.to_vec(), *op, *r);
        }
        lp.solve()
    }

    #[test]
    fn solve_counts_land_in_the_global_metrics_registry() {
        let reg = adaphet_metrics::install_global(adaphet_metrics::Registry::new());
        let before = reg.counter_value("lp.solves");
        solve_max(&[1.0], &[(&[1.0], ConstraintOp::Le, 5.0)]).unwrap_optimal();
        // Other tests in this binary may solve concurrently: assert the
        // monotone delta, not an exact count.
        assert!(reg.counter_value("lp.solves") - before >= 1.0);
        assert!(reg.histogram("lp.solve_s").is_some());
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → 36 at (2, 6).
        let sol = solve_max(
            &[3.0, 5.0],
            &[
                (&[1.0, 0.0], ConstraintOp::Le, 4.0),
                (&[0.0, 2.0], ConstraintOp::Le, 12.0),
                (&[3.0, 2.0], ConstraintOp::Le, 18.0),
            ],
        )
        .unwrap_optimal();
        assert!((sol.objective - 36.0).abs() < 1e-8);
        assert!((sol.x[0] - 2.0).abs() < 1e-8);
        assert!((sol.x[1] - 6.0).abs() < 1e-8);
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 → x=7, y=3, obj=23.
        let mut lp = LpProblem::new(2, Sense::Minimize, vec![2.0, 3.0]);
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Ge, 10.0);
        lp.add_constraint(vec![1.0, 0.0], ConstraintOp::Ge, 2.0);
        lp.add_constraint(vec![0.0, 1.0], ConstraintOp::Ge, 3.0);
        let sol = lp.solve().unwrap_optimal();
        assert!((sol.objective - 23.0).abs() < 1e-8, "obj = {}", sol.objective);
        assert!((sol.x[0] - 7.0).abs() < 1e-8);
        assert!((sol.x[1] - 3.0).abs() < 1e-8);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 5, x - y = 1 → (3, 2), obj 5.
        let mut lp = LpProblem::new(2, Sense::Minimize, vec![1.0, 1.0]);
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 5.0);
        lp.add_constraint(vec![1.0, -1.0], ConstraintOp::Eq, 1.0);
        let sol = lp.solve().unwrap_optimal();
        assert!((sol.objective - 5.0).abs() < 1e-8);
        assert!((sol.x[0] - 3.0).abs() < 1e-8);
        assert!((sol.x[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2 is infeasible.
        let mut lp = LpProblem::new(1, Sense::Minimize, vec![1.0]);
        lp.add_constraint(vec![1.0], ConstraintOp::Le, 1.0);
        lp.add_constraint(vec![1.0], ConstraintOp::Ge, 2.0);
        assert!(matches!(lp.solve(), LpOutcome::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        // max x with only x >= 0 is unbounded.
        let mut lp = LpProblem::new(1, Sense::Maximize, vec![1.0]);
        lp.add_constraint(vec![1.0], ConstraintOp::Ge, 0.0);
        assert!(matches!(lp.solve(), LpOutcome::Unbounded));
    }

    #[test]
    fn negative_rhs_is_normalized() {
        // -x <= -3  ⟺  x >= 3; min x → 3.
        let mut lp = LpProblem::new(1, Sense::Minimize, vec![1.0]);
        lp.add_constraint(vec![-1.0], ConstraintOp::Le, -3.0);
        let sol = lp.solve().unwrap_optimal();
        assert!((sol.objective - 3.0).abs() < 1e-8);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degenerate vertex; Bland's rule must not cycle.
        let mut lp = LpProblem::new(4, Sense::Minimize, vec![-0.75, 150.0, -0.02, 6.0]);
        lp.add_constraint(vec![0.25, -60.0, -0.04, 9.0], ConstraintOp::Le, 0.0);
        lp.add_constraint(vec![0.5, -90.0, -0.02, 3.0], ConstraintOp::Le, 0.0);
        lp.add_constraint(vec![0.0, 0.0, 1.0, 0.0], ConstraintOp::Le, 1.0);
        let sol = lp.solve().unwrap_optimal();
        assert!((sol.objective - (-0.05)).abs() < 1e-6, "obj = {}", sol.objective);
    }

    #[test]
    fn redundant_equalities_handled() {
        // x + y = 2 twice (redundant row leaves an artificial basic at 0).
        let mut lp = LpProblem::new(2, Sense::Maximize, vec![1.0, 0.0]);
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 2.0);
        lp.add_constraint(vec![1.0, 1.0], ConstraintOp::Eq, 2.0);
        let sol = lp.solve().unwrap_optimal();
        assert!((sol.objective - 2.0).abs() < 1e-8);
    }

    #[test]
    fn zero_constraint_problem() {
        // min 0 over x >= 0: trivially optimal with obj 0.
        let lp = LpProblem::new(2, Sense::Minimize, vec![0.0, 0.0]);
        let sol = lp.solve().unwrap_optimal();
        assert_eq!(sol.objective, 0.0);
    }

    proptest! {
        /// For random bounded problems (box constraints + random rows), the
        /// simplex optimum must be feasible and at least as good as a bunch
        /// of random feasible points.
        #[test]
        fn prop_optimum_feasible_and_dominant(seed in 0u64..300) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.random_range(1usize..5);
            let m = rng.random_range(1usize..5);
            let obj: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let mut lp = LpProblem::new(n, Sense::Maximize, obj.clone());
            // Box: x_i <= u_i keeps it bounded.
            let ub: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..5.0)).collect();
            for i in 0..n {
                let mut row = vec![0.0; n];
                row[i] = 1.0;
                lp.add_constraint(row, ConstraintOp::Le, ub[i]);
            }
            let mut extra = Vec::new();
            for _ in 0..m {
                let row: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..2.0)).collect();
                let rhs = rng.random_range(1.0..8.0);
                lp.add_constraint(row.clone(), ConstraintOp::Le, rhs);
                extra.push((row, rhs));
            }
            let sol = lp.solve().unwrap_optimal();
            // Feasibility.
            for (i, &xi) in sol.x.iter().enumerate() {
                prop_assert!(xi >= -1e-7 && xi <= ub[i] + 1e-7);
            }
            for (row, rhs) in &extra {
                let lhs: f64 = row.iter().zip(&sol.x).map(|(a, b)| a * b).sum();
                prop_assert!(lhs <= rhs + 1e-6);
            }
            // Dominance over random feasible samples.
            for _ in 0..50 {
                let cand: Vec<f64> = (0..n).map(|i| rng.random_range(0.0..=ub[i])).collect();
                let feasible = extra.iter().all(|(row, rhs)| {
                    row.iter().zip(&cand).map(|(a, b)| a * b).sum::<f64>() <= *rhs
                });
                if feasible {
                    let val: f64 = obj.iter().zip(&cand).map(|(a, b)| a * b).sum();
                    prop_assert!(val <= sol.objective + 1e-6);
                }
            }
        }
    }
}
