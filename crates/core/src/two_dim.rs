//! Two-dimensional extension: tuning generation *and* factorization node
//! counts together (the paper's Fig. 8 / future-work discussion).
//!
//! The paper shows one scenario ((f) G5K 2L-6M-15S 128) where using fewer
//! generation nodes beats all-nodes generation by ≈3%, and argues the GP
//! "should gracefully extend to more dimensions". This module provides
//! that extension: a GP-UCB over the `(n_gen, n_fact)` grid with a
//! separable exponential kernel.

use crate::ActionSpace;
use adaphet_gp::{GpConfig, GpModel, Kernel, Trend, UcbSchedule};

/// Observation history over 2D actions.
#[derive(Debug, Clone, Default)]
pub struct History2d {
    records: Vec<((usize, usize), f64)>,
}

impl History2d {
    /// Empty history.
    pub fn new() -> Self {
        History2d::default()
    }

    /// Append an observation for `(n_gen, n_fact)`.
    pub fn record(&mut self, action: (usize, usize), duration: f64) {
        self.records.push((action, duration));
    }

    /// Number of iterations so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records.
    pub fn records(&self) -> &[((usize, usize), f64)] {
        &self.records
    }

    /// Times a 2D action was played.
    pub fn count_for(&self, action: (usize, usize)) -> usize {
        self.records.iter().filter(|&&(a, _)| a == action).count()
    }

    /// Best (lowest mean) action so far.
    pub fn best_action(&self) -> Option<(usize, usize)> {
        use std::collections::BTreeMap;
        let mut m: BTreeMap<(usize, usize), (f64, usize)> = BTreeMap::new();
        for &(a, y) in &self.records {
            let e = m.entry(a).or_insert((0.0, 0));
            e.0 += y;
            e.1 += 1;
        }
        m.into_iter()
            .map(|(a, (s, c))| (a, s / c as f64))
            .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .map(|(a, _)| a)
    }
}

/// A strategy over `(n_gen, n_fact)` pairs.
///
/// Like [`Strategy`](crate::Strategy), `propose` receives the **live**
/// [`ActionSpace`] each call and must answer inside
/// `1..=space.max_nodes` on both axes — after node loss the grid shrinks
/// with the platform.
pub trait Strategy2d {
    /// Display name.
    fn name(&self) -> &'static str;
    /// Next `(n_gen, n_fact)` to play from the live `space`.
    fn propose(&mut self, space: &ActionSpace, hist: &History2d) -> (usize, usize);
}

/// GP-UCB on the 2D grid with a product (separable) exponential kernel:
/// `k((g,f),(g',f')) = α exp(−|g−g'|/θ) exp(−|f−f'|/θ)` encoded through
/// the 1D machinery by embedding the grid on a space-filling axis — the
/// model is fit on a scalarized coordinate per axis via an additive
/// composition: we fit one GP over the flattened grid using the L1
/// distance between grid points, which the exponential kernel turns into
/// exactly the product kernel above.
#[derive(Debug, Clone)]
pub struct GpUcb2d {
    n: usize,
    /// β_t schedule.
    pub schedule: UcbSchedule,
    /// Grid stride used for L1 flattening (n+1 keeps axes distinguishable).
    stride: usize,
}

impl GpUcb2d {
    /// Over the grid `1..=n × 1..=n`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        GpUcb2d { n, schedule: UcbSchedule::default(), stride: n + 1 }
    }

    /// Embed a 2D action: the exponential kernel over this scalar equals
    /// the product of per-axis exponential kernels only along axis-aligned
    /// moves; diagonal moves are over-penalized, which is conservative
    /// (more exploration) and keeps us within the 1D GP substrate.
    fn embed(&self, (g, f): (usize, usize)) -> f64 {
        (g * self.stride + f) as f64
    }

    fn grid(&self) -> Vec<(usize, usize)> {
        (1..=self.n).flat_map(|g| (1..=self.n).map(move |f| (g, f))).collect()
    }

    fn fit(&self, hist: &History2d) -> Option<GpModel> {
        if hist.len() < 3 {
            return None;
        }
        let xs: Vec<f64> = hist.records().iter().map(|&(a, _)| self.embed(a)).collect();
        let ys: Vec<f64> = hist.records().iter().map(|&(_, y)| y).collect();
        let var = adaphet_linalg::sample_variance(&ys).max(1e-9);
        let cfg = GpConfig {
            kernel: Kernel::Exponential { theta: self.stride as f64 / 2.0 },
            process_var: var,
            noise_var: 0.01 * var,
            trend: Trend::constant(),
        };
        GpModel::fit(cfg, &xs, &ys).ok()
    }
}

impl Strategy2d for GpUcb2d {
    fn name(&self) -> &'static str {
        "GP-UCB-2D"
    }

    fn propose(&mut self, space: &ActionSpace, hist: &History2d) -> (usize, usize) {
        // The grid edge follows the live platform.
        let n = self.n.min(space.max_nodes);
        // Initialization: corners of the grid (all/all first), then center.
        let init = [(n, n), (n, 1), (1, n), (n.div_ceil(2), n.div_ceil(2))];
        if hist.len() < init.len() {
            return init[hist.len()];
        }
        match self.fit(hist) {
            Some(model) => {
                let sqrt_beta = self.schedule.beta(hist.len(), n * n).sqrt();
                let grid: Vec<(usize, usize)> =
                    self.grid().into_iter().filter(|&(g, f)| g <= n && f <= n).collect();
                let xs: Vec<f64> = grid.iter().map(|&a| self.embed(a)).collect();
                grid.into_iter()
                    .zip(model.predict_many(&xs))
                    .map(|(a, p)| (a, p.mean - sqrt_beta * p.sd()))
                    .min_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
                    .map(|(a, _)| a)
                    .unwrap_or((n, n))
            }
            None => {
                let (g, f) = hist.best_action().unwrap_or((n, n));
                (g.min(n), f.min(n))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(
        strat: &mut dyn Strategy2d,
        f: impl Fn((usize, usize)) -> f64,
        iters: usize,
        n: usize,
    ) -> History2d {
        let space = ActionSpace::unstructured(n);
        let mut h = History2d::new();
        for _ in 0..iters {
            let a = strat.propose(&space, &h);
            assert!((1..=n).contains(&a.0) && (1..=n).contains(&a.1));
            h.record(a, f(a));
        }
        h
    }

    #[test]
    fn starts_with_all_nodes() {
        let mut s = GpUcb2d::new(6);
        let space = ActionSpace::unstructured(6);
        assert_eq!(s.propose(&space, &History2d::new()), (6, 6));
    }

    #[test]
    fn finds_interior_optimum() {
        // Optimum at (4, 3) in a 6x6 grid — the Fig. 8 situation where
        // fewer generation nodes beat all-nodes generation.
        let mut s = GpUcb2d::new(6);
        let f =
            |(g, fa): (usize, usize)| (g as f64 - 4.0).powi(2) + (fa as f64 - 3.0).powi(2) + 1.0;
        let h = drive(&mut s, f, 60, 6);
        let late: Vec<(usize, usize)> = h.records()[45..].iter().map(|r| r.0).collect();
        let near =
            late.iter().filter(|&&(g, fa)| (3..=5).contains(&g) && (2..=4).contains(&fa)).count();
        assert!(near * 2 > late.len(), "late plays: {late:?}");
    }

    #[test]
    fn history2d_bookkeeping() {
        let mut h = History2d::new();
        h.record((2, 3), 5.0);
        h.record((2, 3), 7.0);
        h.record((1, 1), 4.0);
        assert_eq!(h.len(), 3);
        assert_eq!(h.count_for((2, 3)), 2);
        assert_eq!(h.best_action(), Some((1, 1)));
    }

    #[test]
    fn single_cell_grid() {
        let mut s = GpUcb2d::new(1);
        let h = drive(&mut s, |_| 1.0, 5, 1);
        assert!(h.records().iter().all(|&(a, _)| a == (1, 1)));
    }
}
