//! Incremental-fit plumbing shared by the exploration strategies.
//!
//! Two small pieces let a tuner keep its surrogate warm across `propose`
//! calls instead of refitting from scratch every iteration:
//!
//! * [`PairwiseDistances`] maintains the `|x_i − x_j|` matrix for a growing
//!   history. The distances depend only on the inputs — not on the kernel
//!   hyper-parameters — so one matrix serves every (θ, α) candidate of an
//!   MLE grid search and every trend configuration of a two-stage fit.
//!   Next to it lives the correlation matrix `R(θ)` of the kernel last
//!   asked for ([`PairwiseDistances::correlations`]), grown by one bordered
//!   row per new point: fits that differ only in α, σ²_N or trend share it
//!   instead of re-evaluating n² kernel values each.
//! * [`ModelCache`] holds the last fitted [`GpModel`] and routes the next
//!   request through [`GpModel::update_with_corr`] when that is provably
//!   exact (same hyper-parameters, history grew by appending), or through a
//!   full [`GpModel::fit_with_corr`] otherwise.
//!
//! Both paths produce bitwise-identical models; the cache only changes how
//! much work is spent getting there.

use crate::{GpConfig, GpModel, Kernel};
use adaphet_linalg::Mat;

/// Pairwise absolute distances `|x_i − x_j|` for a growing input history.
///
/// [`PairwiseDistances::sync`] appends rows in O(n) per new point when the
/// history grew by appending, and rebuilds in O(n²) when the history was
/// rewritten (bound-mechanism filtering).
#[derive(Debug, Clone)]
pub struct PairwiseDistances {
    x: Vec<f64>,
    d: Mat,
    /// `R = kernel.corr(d)` for the kernel last passed to
    /// [`PairwiseDistances::correlations`]; follows `d` through `push`,
    /// dropped by `rebuild`.
    corr: Option<(Kernel, Mat)>,
}

impl Default for PairwiseDistances {
    fn default() -> Self {
        Self::new()
    }
}

impl PairwiseDistances {
    /// An empty distance matrix.
    pub fn new() -> Self {
        Self { x: Vec::new(), d: Mat::zeros(0, 0), corr: None }
    }

    /// Number of tracked inputs.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when no inputs are tracked yet.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The tracked inputs, in insertion order.
    pub fn xs(&self) -> &[f64] {
        &self.x
    }

    /// The `n × n` distance matrix (entry `(i, j)` is `|x_i − x_j|`).
    pub fn matrix(&self) -> &Mat {
        &self.d
    }

    /// The kernel correlation matrix `R[(i, j)] = kernel.corr(|x_i − x_j|)`
    /// of the tracked inputs — bit-identical to evaluating the kernel over
    /// [`PairwiseDistances::matrix`] afresh. The matrix is kept and grown by
    /// a bordered row per [`PairwiseDistances::push`] for as long as the
    /// same kernel keeps being asked for.
    pub fn correlations(&mut self, kernel: &Kernel) -> &Mat {
        if !matches!(&self.corr, Some((k, _)) if k == kernel) {
            self.corr = Some((*kernel, kernel.corr_matrix(&self.d)));
        }
        &self.corr.as_ref().expect("just ensured").1
    }

    /// Pre-size the matrix for `target_n` inputs.
    pub fn reserve(&mut self, target_n: usize) {
        if target_n > self.x.len() {
            self.x.reserve(target_n - self.x.len());
            self.d.reserve_dims(target_n, target_n);
            if let Some((_, r)) = &mut self.corr {
                r.reserve_dims(target_n, target_n);
            }
        }
    }

    /// Append one input, bordering the matrix with its distances to the
    /// existing points (O(n)).
    pub fn push(&mut self, x_new: f64) {
        let n = self.x.len();
        self.d.grow_square();
        for i in 0..n {
            let dv = (self.x[i] - x_new).abs();
            self.d[(i, n)] = dv;
            self.d[(n, i)] = dv;
        }
        self.d[(n, n)] = 0.0;
        self.x.push(x_new);
        if let Some((kernel, r)) = &mut self.corr {
            r.grow_square();
            kernel.fill_corr_row(&self.d, r, n);
        }
    }

    /// Bring the matrix in line with `xs`. When `xs` extends the tracked
    /// history (same leading values, new ones appended) only the new rows
    /// are computed and `true` is returned; otherwise the whole matrix is
    /// rebuilt and `false` is returned.
    pub fn sync(&mut self, xs: &[f64]) -> bool {
        let n = self.x.len();
        if xs.len() >= n && xs[..n] == self.x[..] {
            for &v in &xs[n..] {
                self.push(v);
            }
            true
        } else {
            self.rebuild(xs);
            false
        }
    }

    /// Recompute the matrix from scratch for `xs` (O(n²)).
    pub fn rebuild(&mut self, xs: &[f64]) {
        self.x.clear();
        self.x.extend_from_slice(xs);
        self.d = Mat::from_fn(xs.len(), xs.len(), |i, j| (xs[i] - xs[j]).abs());
        self.corr = None;
    }
}

/// Caches the last fitted [`GpModel`] and reuses it incrementally when the
/// next request is provably equivalent to extending that fit.
///
/// The incremental route is taken only when all of the following hold, each
/// checked bit-for-bit, so the returned model is always bitwise identical
/// to a scratch `GpModel::fit` on `(xs, ys)`:
///
/// * the cached model was fitted with the same [`GpConfig`],
/// * the cached observations are a prefix of `(xs, ys)`.
///
/// Appended points go through [`GpModel::update_with_corr`], which reads
/// the new point's correlation row from the shared `R` instead of
/// evaluating the kernel. Everything else — changed hyper-parameters, a
/// filtered or reset history — falls back to a full
/// [`GpModel::fit_with_corr`], counted as `gp.fit.full`.
#[derive(Debug, Clone, Default)]
pub struct ModelCache {
    model: Option<GpModel>,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self { model: None }
    }

    /// The cached model, if any.
    pub fn model(&self) -> Option<&GpModel> {
        self.model.as_ref()
    }

    /// Drop the cached model, forcing the next call to fit from scratch.
    pub fn invalidate(&mut self) {
        self.model = None;
    }

    /// Return a model fitted to `(xs, ys)` under `config`, updating the
    /// cached one incrementally when that is exact and refitting otherwise.
    /// `corr` must be the kernel correlation matrix of `xs` under
    /// `config.kernel` (kept current via [`PairwiseDistances::sync`] and
    /// [`PairwiseDistances::correlations`]).
    pub fn fit_or_update(
        &mut self,
        config: &GpConfig,
        xs: &[f64],
        ys: &[f64],
        corr: &Mat,
    ) -> crate::Result<&GpModel> {
        self.fit_or_update_with_noise(config, xs, ys, corr, &[])
    }

    /// [`ModelCache::fit_or_update`] with per-point noise multipliers
    /// (see [`GpModel::fit_with_corr`]; empty = all ones).
    /// The incremental route additionally requires the cached model's
    /// multipliers to match the requested ones bit-for-bit and every new
    /// point to be a live one (multiplier exactly 1) — anything else
    /// refits from scratch with the requested multipliers.
    pub fn fit_or_update_with_noise(
        &mut self,
        config: &GpConfig,
        xs: &[f64],
        ys: &[f64],
        corr: &Mat,
        noise_mults: &[f64],
    ) -> crate::Result<&GpModel> {
        if let Some(model) = self.model.as_mut() {
            let n = model.n_obs();
            let mults_extend = if noise_mults.is_empty() {
                (0..n).all(|i| model.noise_mult(i) == 1.0)
            } else {
                noise_mults.len() == xs.len()
                    && (0..n).all(|i| noise_mults[i] == model.noise_mult(i))
                    && noise_mults[n..].iter().all(|&m| m == 1.0)
            };
            let extends = model.config() == config
                && xs.len() >= n
                && xs[..n] == model.xs()[..]
                && ys[..n] == model.ys()[..]
                && mults_extend;
            if extends {
                for i in n..xs.len() {
                    if let Err(e) = model.update_with_corr(xs[i], ys[i], corr) {
                        // Update errors leave the model unspecified.
                        self.model = None;
                        return Err(e);
                    }
                }
                return Ok(self.model.as_ref().expect("model cached"));
            }
        }
        adaphet_metrics::global().add("gp.fit.full", 1.0);
        let model = GpModel::fit_with_corr(config.clone(), xs, ys, corr, noise_mults)?;
        Ok(self.model.insert(model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Kernel, Trend};

    fn config(theta: f64) -> GpConfig {
        GpConfig {
            kernel: Kernel::Exponential { theta },
            process_var: 1.0,
            noise_var: 1e-4,
            trend: Trend::constant(),
        }
    }

    #[test]
    fn distances_push_matches_rebuild_bitwise() {
        let xs = [3.0, 1.5, 8.0, 3.0, 0.25];
        let mut inc = PairwiseDistances::new();
        for &x in &xs {
            inc.push(x);
        }
        let mut scratch = PairwiseDistances::new();
        scratch.rebuild(&xs);
        assert_eq!(inc.matrix().as_slice(), scratch.matrix().as_slice());
        assert_eq!(inc.xs(), scratch.xs());
    }

    #[test]
    fn bordered_correlations_match_the_kernel_over_fresh_distances_bitwise() {
        // Replicates (row copies), fresh inputs (kernel rows), a rebuild in
        // the middle and a kernel switch: R must always equal the kernel
        // evaluated entry by entry over freshly computed distances.
        let xs = [3.0, 1.5, 8.0, 3.0, 0.25, 8.0, 8.0, 2.0, 1.5, 40.0, 3.0];
        let kernels = [
            Kernel::Exponential { theta: 1.0 },
            Kernel::SquaredExponential { theta: 2.5 },
            Kernel::Matern32 { theta: 0.7 },
            Kernel::Matern52 { theta: 3.1 },
        ];
        let fresh = |k: &Kernel, xs: &[f64]| {
            Mat::from_fn(xs.len(), xs.len(), |i, j| k.corr((xs[i] - xs[j]).abs()))
        };
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for k in &kernels {
            let mut d = PairwiseDistances::new();
            for n in 1..=xs.len() {
                assert!(d.sync(&xs[..n]));
                assert_eq!(bits(d.correlations(k)), bits(&fresh(k, &xs[..n])), "{k:?}, n = {n}");
            }
            // A rewritten history drops R; the next request rebuilds it.
            let rewritten = [xs[1], xs[0], xs[2], xs[1]];
            assert!(!d.sync(&rewritten));
            assert_eq!(bits(d.correlations(k)), bits(&fresh(k, &rewritten)));
            // Another kernel replaces the kept matrix.
            let other = k.with_theta(k.theta() * 2.0);
            assert_eq!(bits(d.correlations(&other)), bits(&fresh(&other, &rewritten)));
        }
    }

    #[test]
    fn sync_appends_or_rebuilds() {
        let mut d = PairwiseDistances::new();
        assert!(d.sync(&[1.0, 2.0]));
        assert!(d.sync(&[1.0, 2.0, 5.0]), "pure append must take the fast path");
        assert_eq!(d.len(), 3);
        // A rewritten history (prefix changed) forces a rebuild.
        assert!(!d.sync(&[1.0, 3.0, 5.0]));
        let mut scratch = PairwiseDistances::new();
        scratch.rebuild(&[1.0, 3.0, 5.0]);
        assert_eq!(d.matrix().as_slice(), scratch.matrix().as_slice());
    }

    #[test]
    fn cache_incremental_path_is_bitwise_equal_to_scratch() {
        let xs = [1.0, 4.0, 2.0, 4.0, 7.0, 1.0];
        let ys = [0.3, -1.0, 0.8, -1.1, 2.0, 0.25];
        let cfg = config(1.3);
        let mut dists = PairwiseDistances::new();
        let mut cache = ModelCache::new();
        for n in 2..=xs.len() {
            dists.sync(&xs[..n]);
            let model = cache
                .fit_or_update(&cfg, &xs[..n], &ys[..n], dists.correlations(&cfg.kernel))
                .unwrap();
            let scratch = GpModel::fit(cfg.clone(), &xs[..n], &ys[..n]).unwrap();
            assert_eq!(model.log_likelihood(), scratch.log_likelihood(), "n = {n}");
            for q in 0..20 {
                let xq = q as f64 * 0.4;
                let a = model.predict(xq);
                let b = scratch.predict(xq);
                assert_eq!(a.mean, b.mean, "mean differs at n = {n}, xq = {xq}");
                assert_eq!(a.var, b.var, "var differs at n = {n}, xq = {xq}");
            }
        }
    }

    #[test]
    fn cache_refits_when_config_changes() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [0.1, 0.4, 0.2];
        let mut dists = PairwiseDistances::new();
        dists.sync(&xs);
        let reg = adaphet_metrics::install_global(adaphet_metrics::Registry::new());
        let mut cache = ModelCache::new();
        let cfg = config(1.0);
        cache.fit_or_update(&cfg, &xs, &ys, dists.correlations(&cfg.kernel)).unwrap();
        // Other tests in this binary may fit concurrently: assert the
        // monotone delta, not an exact count.
        let before = reg.counter_value("gp.fit.full");
        let cfg = config(2.0);
        cache.fit_or_update(&cfg, &xs, &ys, dists.correlations(&cfg.kernel)).unwrap();
        assert!(
            reg.counter_value("gp.fit.full") - before >= 1.0,
            "config change must force a refit"
        );
    }

    #[test]
    fn cache_with_noise_mults_is_bitwise_equal_to_scratch() {
        // Prior points (inflated mults) fitted once, live points appended:
        // the incremental path must match scratch fits with the full
        // multiplier vector at every step.
        let xs = [2.0, 5.0, 1.0, 4.0, 3.0];
        let ys = [1.5, 0.2, 3.0, 0.4, 0.9];
        let mults = [9.0, 9.0, 1.0, 1.0, 1.0]; // first two are prior pseudo-points
        let cfg = config(1.1);
        let mut dists = PairwiseDistances::new();
        let mut cache = ModelCache::new();
        for n in 2..=xs.len() {
            dists.sync(&xs[..n]);
            let corr = dists.correlations(&cfg.kernel);
            let model = cache
                .fit_or_update_with_noise(&cfg, &xs[..n], &ys[..n], corr, &mults[..n])
                .unwrap();
            let scratch =
                GpModel::fit_with_corr(cfg.clone(), &xs[..n], &ys[..n], corr, &mults[..n]).unwrap();
            assert_eq!(model.log_likelihood().to_bits(), scratch.log_likelihood().to_bits());
            for q in 0..15 {
                let xq = q as f64 * 0.4;
                assert_eq!(model.predict(xq).mean.to_bits(), scratch.predict(xq).mean.to_bits());
                assert_eq!(model.predict(xq).var.to_bits(), scratch.predict(xq).var.to_bits());
            }
        }
    }

    #[test]
    fn cache_refits_when_noise_mults_change() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [0.1, 0.4, 0.2];
        let cfg = config(1.0);
        let mut dists = PairwiseDistances::new();
        dists.sync(&xs);
        let reg = adaphet_metrics::install_global(adaphet_metrics::Registry::new());
        let mut cache = ModelCache::new();
        let corr = dists.correlations(&cfg.kernel);
        cache.fit_or_update_with_noise(&cfg, &xs, &ys, corr, &[4.0, 1.0, 1.0]).unwrap();
        let before = reg.counter_value("gp.fit.full");
        // Same data, different multipliers: must not reuse the cached fit.
        cache.fit_or_update(&cfg, &xs, &ys, corr).unwrap();
        assert!(
            reg.counter_value("gp.fit.full") - before >= 1.0,
            "multiplier change must force a refit"
        );
        assert_eq!(cache.model().unwrap().noise_mult(0), 1.0);
    }

    #[test]
    fn cache_counts_incremental_updates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [0.1, 0.4, 0.2, 0.9];
        let cfg = config(1.0);
        let reg = adaphet_metrics::install_global(adaphet_metrics::Registry::new());
        let mut dists = PairwiseDistances::new();
        dists.sync(&xs[..2]);
        let mut cache = ModelCache::new();
        cache.fit_or_update(&cfg, &xs[..2], &ys[..2], dists.correlations(&cfg.kernel)).unwrap();
        let before = reg.counter_value("gp.fit.incremental");
        dists.sync(&xs);
        cache.fit_or_update(&cfg, &xs, &ys, dists.correlations(&cfg.kernel)).unwrap();
        assert!(reg.counter_value("gp.fit.incremental") - before >= 2.0);
    }
}
