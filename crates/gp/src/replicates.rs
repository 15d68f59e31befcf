//! Replicated inputs, grouped once for both of their consumers.
//!
//! A tuner plays the same action many times. The replicates matter twice:
//! their spread *is* the paper's noise estimator σ̂²_N (Section IV-D), and
//! in a GP with a nugget they enter the posterior only through one
//! precision-weighted mean per distinct input — so the system a fit
//! factorizes needs one row per input, not one per observation
//! ([`ReplicateGroups::collapse`]).

use adaphet_linalg::pooled_replicate_variance;

/// The observations of a history grouped by equal input (`==` on `f64`):
/// groups in first-appearance order, members in observation order.
#[derive(Debug, Clone)]
pub struct ReplicateGroups {
    /// Group of each observation.
    group_of: Vec<usize>,
    /// Number of groups (distinct inputs).
    groups: usize,
}

impl ReplicateGroups {
    /// Group the inputs `xs`: one stable sort, runs cut where neighbours
    /// differ, then one walk in observation order to number the groups by
    /// first appearance — O(n log n).
    pub fn of(xs: &[f64]) -> Self {
        let n = xs.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| xs[a].total_cmp(&xs[b]));
        let mut run_of = vec![0usize; n];
        let mut runs = 0;
        for (k, &i) in idx.iter().enumerate() {
            if k == 0 || xs[idx[k - 1]] != xs[i] {
                runs += 1;
            }
            run_of[i] = runs - 1;
        }
        let mut slot = vec![usize::MAX; runs];
        let mut groups = 0;
        let group_of = run_of
            .into_iter()
            .map(|r| {
                if slot[r] == usize::MAX {
                    slot[r] = groups;
                    groups += 1;
                }
                slot[r]
            })
            .collect();
        ReplicateGroups { group_of, groups }
    }

    /// For each observation, the first observation with the same input
    /// (itself for an input seen for the first time).
    pub(crate) fn first_member_of(&self) -> Vec<usize> {
        let mut first = Vec::with_capacity(self.groups);
        self.group_of
            .iter()
            .enumerate()
            .map(|(i, &g)| {
                if g == first.len() {
                    first.push(i);
                }
                first[g]
            })
            .collect()
    }

    /// The paper's pooled σ̂²_N of the observations `ys` over these groups;
    /// `None` when no input has been measured twice.
    ///
    /// # Panics
    /// Panics if `ys` is not as long as the grouped inputs.
    pub fn noise_variance(&self, ys: &[f64]) -> Option<f64> {
        assert_eq!(ys.len(), self.group_of.len());
        let mut members: Vec<Vec<f64>> = vec![Vec::new(); self.groups];
        for (&g, &y) in self.group_of.iter().zip(ys) {
            members[g].push(y);
        }
        pooled_replicate_variance(&members)
    }

    /// The sufficient statistics of `(xs, ys)` for a GP with a nugget: per
    /// group its input, the precision-weighted mean
    /// `ȳ = Σ w_j y_j / Σ w_j` and the nugget multiplier `1 / Σ w_j`, with
    /// `w_j = 1 / noise_mults[j]` (an empty `noise_mults` means all ones,
    /// as in [`crate::GpModel::fit_with_corr`]). Fitting these rows gives
    /// the posterior mean, posterior variance, GLS trend coefficients and
    /// their covariance of the fit on the raw rows — an identity in
    /// mathematics, equal up to rounding in floating point. A lone
    /// observation keeps its `y` and multiplier exactly whenever its
    /// multiplier is a power of two.
    ///
    /// What the collapsed fit does *not* reproduce is
    /// [`crate::GpModel::log_likelihood`]: with `s_j = σ²_N ·
    /// noise_mults[j]` and `v = 1 / Σ_j 1/s_j` per group, its −2·log L
    /// lacks `Σ_groups [Σ_j ln s_j − ln v + Σ_j (y_j − ȳ)² / s_j]` and
    /// `ln 2π` per collapsed-away row.
    ///
    /// # Panics
    /// Panics if `xs`, `ys` or a non-empty `noise_mults` is not as long as
    /// the grouped inputs.
    pub fn collapse(
        &self,
        xs: &[f64],
        ys: &[f64],
        noise_mults: &[f64],
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = self.group_of.len();
        assert!(xs.len() == n && ys.len() == n, "x/y length mismatch");
        assert!(noise_mults.is_empty() || noise_mults.len() == n, "noise_mults length mismatch");
        let mut x = Vec::with_capacity(self.groups);
        let mut weight = Vec::with_capacity(self.groups);
        let mut mean = Vec::with_capacity(self.groups);
        for (j, &g) in self.group_of.iter().enumerate() {
            let w = noise_mults.get(j).map_or(1.0, |m| 1.0 / m);
            if g == x.len() {
                x.push(xs[j]);
                weight.push(w);
                mean.push(w * ys[j]);
            } else {
                weight[g] += w;
                mean[g] += w * ys[j];
            }
        }
        for (m, w) in mean.iter_mut().zip(&mut weight) {
            *m /= *w;
            *w = 1.0 / *w;
        }
        (x, mean, weight)
    }
}

#[cfg(test)]
impl ReplicateGroups {
    /// The term −2·log L of a fit on [`Self::collapse`]d rows lacks
    /// relative to the fit on the raw rows, spelled as documented there —
    /// the oracle of the proptests here and of the likelihood search's.
    pub(crate) fn within_group_term(&self, ys: &[f64], noise_mults: &[f64], noise_var: f64) -> f64 {
        let (_, means, mults) = self.collapse(ys, ys, noise_mults);
        let mut term = (ys.len() - self.groups) as f64 * (2.0 * std::f64::consts::PI).ln();
        for (g, (&mean, &m)) in means.iter().zip(&mults).enumerate() {
            term -= (noise_var * m).ln();
            for j in (0..ys.len()).filter(|&j| self.group_of[j] == g) {
                let s = noise_var * noise_mults.get(j).copied().unwrap_or(1.0);
                term += s.ln() + (ys[j] - mean).powi(2) / s;
            }
        }
        term
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpConfig, GpModel, Kernel, Trend};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// `estimate_noise_from_replicates` as it stood before the grouping
    /// moved here: an input joins the first group whose representative is
    /// within 1e-12 of it.
    fn parent_noise_estimate(x: &[f64], y: &[f64]) -> Option<f64> {
        let mut reps: Vec<f64> = Vec::new();
        let mut groups: Vec<Vec<f64>> = Vec::new();
        for (&xi, &yi) in x.iter().zip(y) {
            match reps.iter().position(|&rep| (rep - xi).abs() < 1e-12) {
                Some(g) => groups[g].push(yi),
                None => {
                    reps.push(xi);
                    groups.push(vec![yi]);
                }
            }
        }
        pooled_replicate_variance(&groups)
    }

    #[test]
    fn groups_are_numbered_by_first_appearance() {
        let g = ReplicateGroups::of(&[5.0, 2.0, 5.0, 9.0, 2.0, 5.0]);
        assert_eq!(g.group_of, [0, 1, 0, 2, 1, 0]);
        assert_eq!(g.groups, 3);
        assert_eq!(ReplicateGroups::of(&[]).groups, 0);
    }

    #[test]
    fn collapse_keeps_lone_rows_exact_and_pools_precisions() {
        // Input 4 is a prior pseudo-point (κ = 16) replayed live twice;
        // input 7 is a lone prior point, input 2 a lone live point.
        let xs = [4.0, 7.0, 4.0, 2.0, 4.0];
        let ys = [8.0, 0.3, 1.0, 0.7, 2.0];
        let mults = [16.0, 16.0, 1.0, 1.0, 1.0];
        let (x, y, m) = ReplicateGroups::of(&xs).collapse(&xs, &ys, &mults);
        assert_eq!(x, [4.0, 7.0, 2.0]);
        assert_eq!(y[1].to_bits(), 0.3f64.to_bits());
        assert_eq!(y[2].to_bits(), 0.7f64.to_bits());
        assert_eq!(&m[1..], [16.0, 1.0]);
        let w = 1.0 / 16.0 + 2.0;
        assert_eq!(m[0], 1.0 / w);
        assert!((y[0] - (8.0 / 16.0 + 1.0 + 2.0) / w).abs() < 1e-15);
        // No multipliers: plain means and 1/count.
        let (_, y, m) = ReplicateGroups::of(&xs).collapse(&xs, &ys, &[]);
        assert_eq!(m, [1.0 / 3.0, 1.0, 1.0]);
        assert!((y[0] - 11.0 / 3.0).abs() < 1e-15);
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 + 1e-9 * a.abs().max(b.abs())
    }

    proptest! {
        /// Integer-valued histories (what a tuner produces): the pooled
        /// σ̂²_N has the bits of the tolerance-grouped estimator it replaces.
        #[test]
        fn prop_noise_variance_has_the_parent_estimator_bits(seed in 0u64..300) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.random_range(1usize..140);
            let span = rng.random_range(1..130);
            let xs: Vec<f64> = (0..n).map(|_| rng.random_range(0..=span) as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|x| 0.1 * x + rng.random_range(-1.0..1.0)).collect();
            let got = ReplicateGroups::of(&xs).noise_variance(&ys);
            let want = parent_noise_estimate(&xs, &ys);
            prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
            let wrapped = crate::estimate_noise_from_replicates(&xs, &ys);
            prop_assert_eq!(wrapped.map(f64::to_bits), want.map(f64::to_bits));
        }

        /// `first_member_of` is the `==` scan over earlier inputs it
        /// replaces, signed zeros and NaN included.
        #[test]
        fn prop_first_member_is_the_first_equal_input(seed in 0u64..300) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xf125);
            let n = rng.random_range(0usize..140);
            let xs: Vec<f64> = (0..n)
                .map(|_| match rng.random_range(0..20) {
                    0 => -0.0,
                    1 => f64::NAN,
                    v => (v % 7) as f64,
                })
                .collect();
            let scan: Vec<usize> = (0..n)
                .map(|i| xs[..i].iter().position(|&xj| xj == xs[i]).unwrap_or(i))
                .collect();
            prop_assert_eq!(ReplicateGroups::of(&xs).first_member_of(), scan);
        }

        /// The sufficient-statistics identity: a fit on the collapsed rows
        /// is the fit on the raw rows — posterior mean and sd, trend
        /// coefficients and trend mean — with replicates, warm-start
        /// multipliers on a prefix and a linear + dummy trend.
        #[test]
        fn prop_collapsed_fit_is_the_raw_fit(seed in 0u64..200) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xc011a95e);
            let groups = [(0usize, 9usize), (10, 19), (20, 29)];
            let n = rng.random_range(12usize..90);
            // Two inputs in the first trend group and one in each other
            // first, so the design has full column rank.
            let xs: Vec<f64> = (0..n)
                .map(|i| match i {
                    0..4 => [3.0, 5.0, 12.0, 25.0][i],
                    _ => rng.random_range(0..30) as f64,
                })
                .collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|&x| 3.0 + 0.2 * x + 4.0 * (x / 10.0).floor() + rng.random_range(-0.5..0.5))
                .collect();
            let prior = rng.random_range(4..n / 2);
            let kappa = rng.random_range(1.0..32.0);
            let mults: Vec<f64> = match rng.random_bool(0.3) {
                true => Vec::new(),
                false => (0..n).map(|i| if i < prior { kappa } else { 1.0 }).collect(),
            };
            let cfg = GpConfig {
                kernel: Kernel::Exponential { theta: 1.0 },
                process_var: rng.random_range(0.05..5.0),
                noise_var: rng.random_range(0.01..1.0),
                trend: Trend::linear_with_group_dummies(&groups),
            };
            let raw = GpModel::fit_with_corr(
                cfg.clone(), &xs, &ys, &cfg.kernel.corr_matrix_of(&xs), &mults,
            ).unwrap();
            let replicates = ReplicateGroups::of(&xs);
            let (cx, cy, cm) = replicates.collapse(&xs, &ys, &mults);
            let collapsed = GpModel::fit_with_corr(
                cfg.clone(), &cx, &cy, &cfg.kernel.corr_matrix_of(&cx), &cm,
            ).unwrap();
            prop_assert_eq!(raw.jitter(), 0.0);
            prop_assert_eq!(collapsed.jitter(), 0.0);
            for (a, b) in raw.trend_coefficients().iter().zip(collapsed.trend_coefficients()) {
                prop_assert!(close(*a, *b), "trend coefficient {} vs {}", a, b);
            }
            // The likelihoods differ by the within-group term alone.
            let within = replicates.within_group_term(&ys, &mults, cfg.noise_var);
            let gap = -2.0 * (raw.log_likelihood() - collapsed.log_likelihood());
            prop_assert!(close(gap, within), "-2 log L gap {} vs within-group term {}", gap, within);
            for q in 0..64 {
                let xq = q as f64 * 0.5 - 1.0;
                let (a, b) = (raw.predict(xq), collapsed.predict(xq));
                prop_assert!(close(a.mean, b.mean), "mean at {}: {} vs {}", xq, a.mean, b.mean);
                prop_assert!(close(a.sd(), b.sd()), "sd at {}: {} vs {}", xq, a.sd(), b.sd());
                let (a, b) = (raw.trend_mean(xq), collapsed.trend_mean(xq));
                prop_assert!(close(a, b), "trend mean at {}: {} vs {}", xq, a, b);
            }
        }
    }
}
