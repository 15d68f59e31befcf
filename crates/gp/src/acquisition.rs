//! GP-UCB acquisition (Eq. 2 of the paper) for *minimization*.
//!
//! The paper maximizes reward (negated duration) via
//! `x_{t+1} = argmax_x μ_t(x) + β_t^{1/2} σ_t(x)`. We work directly with
//! durations, so the equivalent rule is the **lower confidence bound**
//! `x_{t+1} = argmin_x μ_t(x) − β_t^{1/2} σ_t(x)`.

use crate::GpModel;

/// Schedule of the exploration weight β_t, growing logarithmically with the
/// iteration count as required for the no-regret guarantee of Srinivas et
/// al. (GP-UCB): `β_t = 2 ln(|A| t² π² / (6δ))`.
#[derive(Debug, Clone, Copy)]
pub struct UcbSchedule {
    /// Confidence parameter δ ∈ (0, 1); smaller explores more.
    pub delta: f64,
    /// Extra multiplier on β_t (1.0 = canonical).
    pub scale: f64,
}

impl Default for UcbSchedule {
    fn default() -> Self {
        UcbSchedule { delta: 0.1, scale: 1.0 }
    }
}

impl UcbSchedule {
    /// β_t for iteration `t >= 1` over `n_actions` candidate actions.
    pub fn beta(&self, t: usize, n_actions: usize) -> f64 {
        let t = t.max(1) as f64;
        let a = n_actions.max(1) as f64;
        let inner = a * t * t * std::f64::consts::PI.powi(2) / (6.0 * self.delta);
        (2.0 * inner.ln()).max(0.0) * self.scale
    }
}

/// Select the candidate minimizing the lower confidence bound. Ties are
/// broken toward the candidate with the *larger* posterior variance (more
/// information), then toward the smaller x for determinism. Returns `None`
/// for an empty candidate set.
pub fn ucb_argmin(model: &GpModel, candidates: &[f64], beta: f64) -> Option<f64> {
    let sqrt_beta = beta.sqrt();
    let mut best: Option<(f64, f64, f64)> = None; // (x, lcb, var)
    for (&x, p) in candidates.iter().zip(model.predict_many(candidates)) {
        let lcb = p.mean - sqrt_beta * p.sd();
        let replace = match best {
            None => true,
            Some((bx, blcb, bvar)) => {
                lcb < blcb - 1e-12
                    || ((lcb - blcb).abs() <= 1e-12
                        && (p.var > bvar + 1e-15 || (p.var - bvar).abs() <= 1e-15 && x < bx))
            }
        };
        if replace {
            best = Some((x, lcb, p.var));
        }
    }
    best.map(|(x, _, _)| x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpConfig, GpModel, Kernel, Trend};

    fn toy_model() -> GpModel {
        // V-shaped durations with a clear minimum at x = 5.
        let xs: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| (x - 5.0).abs() + 1.0).collect();
        GpModel::fit(
            GpConfig {
                kernel: Kernel::SquaredExponential { theta: 2.0 },
                process_var: 4.0,
                noise_var: 1e-6,
                trend: Trend::constant(),
            },
            &xs,
            &ys,
        )
        .unwrap()
    }

    #[test]
    fn beta_grows_logarithmically() {
        let s = UcbSchedule::default();
        let b1 = s.beta(1, 10);
        let b10 = s.beta(10, 10);
        let b100 = s.beta(100, 10);
        assert!(b1 < b10 && b10 < b100);
        // Log growth: increments shrink.
        assert!(b100 - b10 < 4.0 * (b10 - b1));
        assert!(b1 > 0.0);
    }

    #[test]
    fn beta_scale_multiplies() {
        let s1 = UcbSchedule { delta: 0.1, scale: 1.0 };
        let s2 = UcbSchedule { delta: 0.1, scale: 2.0 };
        assert!((s2.beta(5, 7) - 2.0 * s1.beta(5, 7)).abs() < 1e-12);
    }

    #[test]
    fn argmin_prefers_known_minimum_when_exploitation_dominates() {
        let m = toy_model();
        let candidates: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        // With beta = 0 (pure exploitation) the argmin must be at x = 5.
        let x = ucb_argmin(&m, &candidates, 0.0).unwrap();
        assert_eq!(x, 5.0);
    }

    #[test]
    fn argmin_explores_uncertain_regions_with_large_beta() {
        // Model trained only on the left half; large beta should pull the
        // choice toward the unexplored right side.
        let xs: Vec<f64> = (1..=4).map(|i| i as f64).collect();
        let ys = vec![2.0, 2.0, 2.0, 2.0];
        let m = GpModel::fit(
            GpConfig {
                kernel: Kernel::SquaredExponential { theta: 1.0 },
                process_var: 1.0,
                noise_var: 1e-6,
                trend: Trend::constant(),
            },
            &xs,
            &ys,
        )
        .unwrap();
        let candidates: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let x = ucb_argmin(&m, &candidates, 50.0).unwrap();
        assert!(x >= 7.0, "expected exploration of the right side, got {x}");
    }

    #[test]
    fn empty_candidates_give_none() {
        let m = toy_model();
        assert_eq!(ucb_argmin(&m, &[], 1.0), None);
    }

    #[test]
    fn deterministic_tie_breaking() {
        let m = toy_model();
        let c = vec![5.0, 5.0, 5.0];
        assert_eq!(ucb_argmin(&m, &c, 0.0), Some(5.0));
    }
}
