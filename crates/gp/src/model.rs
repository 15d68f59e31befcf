//! Universal-kriging model: fit, predict, and O(n²) incremental updates.

use crate::{Kernel, ReplicateGroups, Trend};
use adaphet_linalg::{gls_solve, Cholesky, GlsFit, LinalgError, Mat, TileSolver, RHS_TILE};

/// Inputs and candidates of magnitude below this, all integral, let
/// [`GpModel::predict_many`] read its kernel values from a table indexed by
/// distance (at most `2·TABLE_CAP` entries).
const TABLE_CAP: f64 = 4096.0;

/// Hyper-parameters of a GP model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpConfig {
    /// Correlation function (the paper uses [`Kernel::Exponential`]).
    pub kernel: Kernel,
    /// Process variance α (Eq. 3 of the paper).
    pub process_var: f64,
    /// Observation-noise variance σ²_N (the nugget).
    pub noise_var: f64,
    /// Trend basis whose coefficients are estimated by GLS.
    pub trend: Trend,
}

/// Posterior prediction of the *latent* function `f` at one input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean `μ_t(x) = E[f(x) | D]`.
    pub mean: f64,
    /// Posterior variance `σ_t²(x) = Var[f(x) | D]` (≥ 0), including the
    /// universal-kriging correction for trend-estimation uncertainty.
    pub var: f64,
}

impl Prediction {
    /// Posterior standard deviation.
    pub fn sd(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }
}

/// A fitted Gaussian-process (universal kriging) model over scalar inputs.
///
/// The model is `y(x) = Σ_i γ_i g_i(x) + Z(x) + ε`, with `Z ~ GP(0, α·r)`
/// and `ε ~ N(0, σ²_N)`; `γ` is estimated by generalized least squares and
/// predictions use the universal-kriging equations, so the reported
/// variance accounts for the uncertainty in `γ̂`.
#[derive(Debug, Clone)]
pub struct GpModel {
    config: GpConfig,
    x: Vec<f64>,
    y: Vec<f64>,
    chol: Cholesky,
    gls: GlsFit,
    /// `K⁻¹ (y − G γ̂)`, cached for O(n) mean predictions.
    kinv_resid: Vec<f64>,
    /// Design matrix rows (needed for the variance correction).
    design: Mat,
    /// `replicate_of[i]` is the first observation with the same input as
    /// observation `i` (`i` itself for a new input): [`GpModel::update`]
    /// copies kernel values against a replicate from its twin instead of
    /// re-evaluating them.
    replicate_of: Vec<usize>,
    /// Per-point multipliers of the nugget (`K[(i,i)] += σ²_N · m_i`).
    /// Empty means every multiplier is exactly 1 — the homoscedastic
    /// model — and the diagonal is formed by the original expression, so
    /// the default path is bit-identical to the pre-multiplier code.
    /// Warm-started fits inflate the multipliers of prior pseudo-points.
    noise_mults: Vec<f64>,
    /// Jitter that had to be added to make K positive definite (0 if none).
    jitter: f64,
    /// Profile log-likelihood of the data under this fit.
    log_likelihood: f64,
    /// Workspace buffers reused across updates (empty until first use).
    ws_a: Vec<f64>,
    ws_b: Vec<f64>,
    ws_c: Vec<f64>,
}

impl GpModel {
    /// Fit the model to observations `(x[i], y[i])`.
    ///
    /// # Panics
    /// Panics if `x` and `y` lengths differ or are empty.
    pub fn fit(config: GpConfig, x: &[f64], y: &[f64]) -> crate::Result<GpModel> {
        let corr = config.kernel.corr_matrix_of(x);
        Self::fit_with_corr(config, x, y, &corr, &[])
    }

    /// Fit the model from an already-evaluated kernel correlation matrix
    /// `corr[(i, j)] = config.kernel.corr(|x[i] − x[j]|)`
    /// ([`Kernel::corr_matrix`]; only its lower triangle is read). `R`
    /// depends on the inputs and the kernel alone, so fits that differ in
    /// α, σ²_N, trend or noise multipliers share one matrix. Produces
    /// bitwise-identical results to [`GpModel::fit`].
    ///
    /// Observation `i` contributes `σ²_N · noise_mults[i]` to the
    /// covariance diagonal instead of the flat `σ²_N`; an empty slice means
    /// all-ones and is bit-identical to the homoscedastic fit. This is how
    /// warm-started strategies fold a prior in: the prior's
    /// pseudo-observations get multipliers above 1, so they pull the
    /// posterior where nothing has been measured yet but are quickly
    /// overruled by live data. Points appended later through
    /// [`GpModel::update`] always carry multiplier 1 (they are live).
    ///
    /// # Panics
    /// Panics if `x` and `y` lengths differ or are empty, or if `corr` or a
    /// non-empty `noise_mults` does not match their length.
    pub fn fit_with_corr(
        config: GpConfig,
        x: &[f64],
        y: &[f64],
        corr: &Mat,
        noise_mults: &[f64],
    ) -> crate::Result<GpModel> {
        assert_eq!(x.len(), y.len(), "x/y length mismatch");
        assert!(!x.is_empty(), "cannot fit a GP with zero observations");
        let n = x.len();
        assert!(
            corr.rows() == n && corr.cols() == n,
            "correlation matrix is {}x{}, expected {n}x{n}",
            corr.rows(),
            corr.cols()
        );
        assert!(
            noise_mults.is_empty() || noise_mults.len() == n,
            "noise_mults has {} entries for {n} observations",
            noise_mults.len()
        );
        let recorder = adaphet_metrics::global();
        recorder.add("gp.fit.full", 1.0);
        let _fit_timer = adaphet_metrics::Timer::start(recorder, "gp.model.fit_s");
        let alpha = config.process_var.max(1e-12);

        // K = α R + σ²_N diag(m). The homoscedastic case keeps the
        // original expression so it stays bit-identical.
        let covariance = || {
            let mut k = corr.clone();
            for v in k.as_mut_slice() {
                *v *= alpha;
            }
            for i in 0..n {
                k[(i, i)] += match noise_mults.get(i) {
                    None => config.noise_var,
                    Some(m) => config.noise_var * m,
                };
            }
            k
        };
        // The factor overwrites K; only a non-SPD K is rebuilt for the
        // jitter ladder.
        let base_jitter = 1e-10 * alpha.max(config.noise_var).max(1e-12);
        let (chol, jitter) = match Cholesky::factor_in_place(covariance()) {
            Ok(chol) => (chol, 0.0),
            Err(LinalgError::NotSpd(_)) => {
                Cholesky::factor_with_jitter(&covariance(), base_jitter, 14)?
            }
            Err(e) => return Err(e),
        };

        let design = Mat::from_fn(n, config.trend.len(), |i, j| config.trend.terms[j].eval(x[i]));
        let gls = gls_solve(&chol, &design, y)?;
        let kinv_resid = chol.solve(&gls.residuals);

        // Profile log marginal likelihood (trend coefficients plugged in).
        let quad: f64 = gls.residuals.iter().zip(&kinv_resid).map(|(r, kr)| r * kr).sum();
        let log_likelihood =
            -0.5 * (quad + chol.log_det() + n as f64 * (2.0 * std::f64::consts::PI).ln());

        let replicate_of = ReplicateGroups::of(x).first_member_of();
        Ok(GpModel {
            config,
            x: x.to_vec(),
            y: y.to_vec(),
            chol,
            gls,
            kinv_resid,
            design,
            replicate_of,
            noise_mults: noise_mults.to_vec(),
            jitter,
            log_likelihood,
            ws_a: Vec::new(),
            ws_b: Vec::new(),
            ws_c: Vec::new(),
        })
    }

    /// Absorb one new observation `(x_new, y_new)` in O(n²) instead of
    /// refitting from scratch in O(n³).
    ///
    /// The update appends a row to the Cholesky factor via a bordered
    /// forward solve and extends the cached whitened GLS system by one row;
    /// every recomputed quantity uses the exact arithmetic of the scratch
    /// fit, so the updated model is **bitwise identical** to
    /// `GpModel::fit(config, x ++ [x_new], y ++ [y_new])` — same
    /// predictions, same log-likelihood, same trend coefficients.
    ///
    /// When the bordered update would break positive definiteness (the new
    /// column makes the pivot non-positive), the model falls back to a full
    /// refit through the same jitter ladder the scratch fit uses, keeping
    /// the bitwise guarantee even on the failure path. The two outcomes are
    /// visible in the metrics registry as `gp.fit.incremental` and (counted
    /// by the refit itself) `gp.fit.full`.
    pub fn update(&mut self, x_new: f64, y_new: f64) -> crate::Result<()> {
        // Correlation of the new point against the history — the same
        // expression the scratch fit evaluates for row n of R.
        let mut row = std::mem::take(&mut self.ws_a);
        row.clear();
        for (i, &xi) in self.x.iter().enumerate() {
            let r = match self.replicate_of[i] {
                j if j < i => row[j],
                _ => self.config.kernel.corr(x_new - xi),
            };
            row.push(r);
        }
        self.ws_a = row;

        let recorder = adaphet_metrics::global();
        let _timer = adaphet_metrics::Timer::start(recorder, "gp.model.update_s");
        let n = self.x.len();
        let alpha = self.config.process_var.max(1e-12);

        // Covariance column and diagonal exactly as the scratch K holds
        // them, plus the jitter this model's factorization settled on.
        // Appended observations are always live, so their multiplier is 1
        // and the diagonal keeps the homoscedastic expression.
        self.ws_b.clear();
        self.ws_b.extend(self.ws_a.iter().map(|&r| alpha * r));
        let mut diag = alpha * self.config.kernel.corr(0.0) + self.config.noise_var;
        if self.jitter > 0.0 {
            diag += self.jitter;
        }

        match self.chol.append(&self.ws_b, diag, &mut self.ws_c) {
            Ok(()) => {}
            Err(LinalgError::NotSpd(_)) => {
                // The bordered pivot went non-positive: refit through the
                // same jitter ladder the scratch fit uses — bit-identical
                // to a scratch fit on the extended history.
                self.push_observation(x_new, y_new);
                let corr = self.config.kernel.corr_matrix_of(&self.x);
                *self = Self::fit_with_corr(
                    self.config.clone(),
                    &self.x,
                    &self.y,
                    &corr,
                    &self.noise_mults,
                )?;
                return Ok(());
            }
            Err(other) => return Err(other),
        }
        recorder.add("gp.fit.incremental", 1.0);
        self.push_observation(x_new, y_new);

        // Extend the design and its whitened image by one row. The leading
        // n entries of the bordered forward solve are untouched; entry n
        // follows the same recurrence `forward_sub` runs (divide by the
        // diagonal, subtract in ascending column order).
        let p = self.design.cols();
        self.design.grow_rows();
        for (j, term) in self.config.trend.terms.iter().enumerate() {
            self.design[(n, j)] = term.eval(x_new);
        }
        let l = self.chol.factor_l();
        let lnn = l[(n, n)];
        let mut e = y_new;
        for j in 0..n {
            e -= l[(n, j)] * self.gls.whitened_y[j];
        }
        self.gls.whitened_y.push(e / lnn);
        self.gls.whitened_design.grow_rows();
        for a in 0..p {
            let mut e = self.design[(n, a)];
            for j in 0..n {
                e -= l[(n, j)] * self.gls.whitened_design[(j, a)];
            }
            self.gls.whitened_design[(n, a)] = e / lnn;
        }

        // Re-solve the p×p normal system from the extended whitened
        // columns. The sums are recomputed with the same `dot` the scratch
        // GLS uses (not rank-1-updated): identical function on identical
        // data is the only way to keep the 4-lane accumulation bit-exact.
        if p > 0 {
            let gw = &self.gls.whitened_design;
            let mut m = Mat::zeros(p, p);
            for a in 0..p {
                for b in a..p {
                    let v = adaphet_linalg::dot(gw.col(a), gw.col(b));
                    m[(a, b)] = v;
                    m[(b, a)] = v;
                }
            }
            let rhs: Vec<f64> =
                (0..p).map(|a| adaphet_linalg::dot(gw.col(a), &self.gls.whitened_y)).collect();
            let chol_m = Cholesky::factor(&m).map_err(|e| match e {
                LinalgError::NotSpd(_) => LinalgError::RankDeficient,
                other => other,
            })?;
            self.gls.coefficients = chol_m.solve(&rhs);
            self.gls.coef_cov = chol_m.inverse();
            let fitted = self.design.matvec(&self.gls.coefficients);
            self.gls.residuals.clear();
            self.gls.residuals.extend(self.y.iter().zip(&fitted).map(|(yi, fi)| yi - fi));
        } else {
            self.gls.residuals.clear();
            self.gls.residuals.extend_from_slice(&self.y);
        }

        // K⁻¹ residuals, solved in the reused buffer.
        self.kinv_resid.clear();
        self.kinv_resid.extend_from_slice(&self.gls.residuals);
        self.chol.solve_in_place(&mut self.kinv_resid);

        let quad: f64 = self.gls.residuals.iter().zip(&self.kinv_resid).map(|(r, kr)| r * kr).sum();
        self.log_likelihood = -0.5
            * (quad + self.chol.log_det() + (n + 1) as f64 * (2.0 * std::f64::consts::PI).ln());
        Ok(())
    }

    /// Append `(x_new, y_new)` to the stored observations (always live:
    /// noise multiplier 1).
    fn push_observation(&mut self, x_new: f64, y_new: f64) {
        let n = self.x.len();
        self.replicate_of.push(self.x.iter().position(|&xi| xi == x_new).unwrap_or(n));
        self.x.push(x_new);
        self.y.push(y_new);
        if !self.noise_mults.is_empty() {
            self.noise_mults.push(1.0);
        }
    }

    /// Observed inputs, in insertion order.
    pub fn xs(&self) -> &[f64] {
        &self.x
    }

    /// Observed outputs, in insertion order.
    pub fn ys(&self) -> &[f64] {
        &self.y
    }

    /// Posterior prediction of the latent `f` at `xq`.
    pub fn predict(&self, xq: f64) -> Prediction {
        self.predict_many(&[xq])[0]
    }

    /// Posterior predictions at every input of `xq` — each one bit-identical
    /// to predicting that input alone, for a fraction of the work. One pass
    /// over tiles of [`RHS_TILE`] candidates builds the tile's `k*` (read
    /// from a table of kernel values per distance when every input is
    /// integral, DESIGN.md §"Table rule"), solves a copy of it for `K⁻¹ k*`
    /// with a [`TileSolver`], and folds both into the candidates' sums while
    /// the tile is still in cache; each candidate's terms are still added in
    /// ascending observation order. Nothing of size `m × n` is ever stored.
    pub fn predict_many(&self, xq: &[f64]) -> Vec<Prediction> {
        let alpha = self.config.process_var.max(1e-12);
        let table = self.covariance_table(xq, alpha);
        let table = table.as_deref();
        let solver = self.chol.tile_solver();
        let mut out = Vec::with_capacity(xq.len());
        // Tiles of 8 candidates, then at most one each of 4, 2 and 1 for
        // the rest, as the factorization walks its rows: no lane is padded,
        // and a lone candidate solves one lane.
        let rest = self.scan_tiles::<RHS_TILE>(xq, alpha, table, &solver, &mut out);
        let rest = self.scan_tiles::<4>(rest, alpha, table, &solver, &mut out);
        let rest = self.scan_tiles::<2>(rest, alpha, table, &solver, &mut out);
        self.scan_tiles::<1>(rest, alpha, table, &solver, &mut out);
        out
    }

    /// [`GpModel::predict_many`] over as many `W`-candidate tiles of `xq`
    /// as fit, pushed to `out` in order; returns the candidates left over.
    fn scan_tiles<'q, const W: usize>(
        &self,
        xq: &'q [f64],
        alpha: f64,
        table: Option<&[f64]>,
        solver: &TileSolver<'_>,
        out: &mut Vec<Prediction>,
    ) -> &'q [f64] {
        let tiles = xq.chunks_exact(W);
        let rest = tiles.remainder();
        if tiles.len() == 0 {
            return rest;
        }
        let n = self.x.len();
        let p = self.config.trend.len();
        // Unknown-major tiles: `kstar[i][c]` = α r(xq_c, x_i) of the tile's
        // candidate c, `kinv_kstar[i][c]` the same lane of K⁻¹ k*.
        let mut kstar = vec![[0.0; W]; n];
        let mut kinv_kstar = vec![[0.0; W]; n];
        let mut gt_kinv_kstar = vec![[0.0; W]; p];
        // The first two per-candidate sums start from the value an iterator
        // `sum()` starts from, Gᵀ K⁻¹ k* from 0.0, as the one-candidate
        // expressions always have.
        let sum_start: f64 = std::iter::empty::<f64>().sum();
        let (mut g, mut u, mut cu) = (vec![0.0; p], vec![0.0; p], vec![0.0; p]);
        for qs in tiles {
            match table {
                Some(cov) => {
                    for (t, &xi) in kstar.iter_mut().zip(&self.x) {
                        for (k, &q) in t.iter_mut().zip(qs) {
                            *k = cov[(q - xi).abs() as usize];
                        }
                    }
                }
                None => {
                    for (t, &xi) in kstar.iter_mut().zip(&self.x) {
                        for (k, &q) in t.iter_mut().zip(qs) {
                            *k = alpha * self.config.kernel.corr(q - xi);
                        }
                    }
                }
            }
            kinv_kstar.copy_from_slice(&kstar);
            solver.solve(&mut kinv_kstar);

            // k*ᵀ K⁻¹ resid, k*ᵀ K⁻¹ k* and Gᵀ K⁻¹ k*, each a sum over
            // observations in ascending i.
            let mut k_resid = [sum_start; W];
            let mut explained = [sum_start; W];
            for ((kc, sc), &w) in kstar.iter().zip(&kinv_kstar).zip(&self.kinv_resid) {
                for c in 0..W {
                    k_resid[c] += kc[c] * w;
                    explained[c] += kc[c] * sc[c];
                }
            }
            for (j, acc) in gt_kinv_kstar.iter_mut().enumerate() {
                *acc = [0.0; W];
                for (&gij, sc) in self.design.col(j).iter().zip(&kinv_kstar) {
                    for c in 0..W {
                        acc[c] += gij * sc[c];
                    }
                }
            }

            for (c, &q) in qs.iter().enumerate() {
                for (gj, term) in g.iter_mut().zip(&self.config.trend.terms) {
                    *gj = term.eval(q);
                }
                // mean = g*ᵀ γ̂ + k*ᵀ K⁻¹ resid
                let mut mean: f64 =
                    g.iter().zip(&self.gls.coefficients).map(|(gi, ci)| gi * ci).sum();
                mean += k_resid[c];
                // var = α − k*ᵀK⁻¹k* + uᵀ(GᵀK⁻¹G)⁻¹u, u = g* − Gᵀ K⁻¹ k*.
                let mut var = alpha - explained[c];
                if p > 0 {
                    for ((uj, gj), acc) in u.iter_mut().zip(&g).zip(&gt_kinv_kstar) {
                        *uj = gj - acc[c];
                    }
                    self.gls.coef_cov.matvec_into(&u, &mut cu);
                    var += u.iter().zip(&cu).map(|(a, b)| a * b).sum::<f64>();
                }
                out.push(Prediction { mean, var: var.max(0.0) });
            }
        }
        rest
    }

    /// `α·r(d)` at every distance `d = 0, 1, …, span` a scan of `xq` can
    /// meet, or `None` when the scan must call [`Kernel::corr`] per entry.
    ///
    /// A table is built only when every observed input and every candidate
    /// is an integral double below [`TABLE_CAP`] in magnitude — then each
    /// `q − x_i` is computed exactly, `|q − x_i|` is the integer `d` as a
    /// double, and entry `d` is the very double `α·r(q − x_i)` would be
    /// (DESIGN.md §"Table rule") — and only when its `span + 1` kernel
    /// evaluations are fewer than the `m·n` it replaces.
    fn covariance_table(&self, xq: &[f64], alpha: f64) -> Option<Vec<f64>> {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in self.x.iter().chain(xq) {
            if v.trunc() != v || v.abs() >= TABLE_CAP {
                return None;
            }
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let span = (hi - lo) as usize;
        (xq.len() * self.x.len() > span + 1)
            .then(|| (0..=span).map(|d| alpha * self.config.kernel.corr(d as f64)).collect())
    }

    /// The hyper-parameters used for this fit.
    pub fn config(&self) -> &GpConfig {
        &self.config
    }

    /// Number of observations.
    pub fn n_obs(&self) -> usize {
        self.x.len()
    }

    /// GLS-estimated trend coefficients γ̂.
    pub fn trend_coefficients(&self) -> &[f64] {
        &self.gls.coefficients
    }

    /// Jitter added during factorization (0 when K was PD as-is).
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Noise multiplier of observation `i` (1 for every point of a
    /// homoscedastic fit; above 1 for a warm-start prior pseudo-point).
    pub fn noise_mult(&self, i: usize) -> f64 {
        if self.noise_mults.is_empty() {
            1.0
        } else {
            self.noise_mults[i]
        }
    }

    /// Profile log marginal likelihood of the rows this model was fitted on
    /// (used by the MLE search). For rows produced by
    /// [`crate::ReplicateGroups::collapse`] that is the likelihood of the
    /// per-input means: the within-replicate term of the raw observations'
    /// likelihood is not in it, so it must not be compared with a
    /// per-observation fit's. That term depends on σ²_N, the noise
    /// multipliers and the scatter around the means alone, so fits of the
    /// *same* collapsed rows under one σ²_N — the (θ, α) candidates of
    /// [`crate::fit_profile_likelihood_with_noise`] — all lack the same
    /// constant and rank exactly as their per-observation fits would.
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// The trend mean `Σ γ̂_i g_i(x)` alone, without the GP correction —
    /// useful for plotting the learned discontinuous trend (Fig. 4C).
    pub fn trend_mean(&self, xq: f64) -> f64 {
        self.config.trend.mean(xq, &self.gls.coefficients)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-candidate prediction [`GpModel::predict_many`] replaced: a
    /// fresh `k*`, one scalar `solve` and sequential sums per call. Kept as
    /// the executable definition of a prediction's bits.
    fn predict_oracle(model: &GpModel, xq: f64) -> Prediction {
        let alpha = model.config.process_var.max(1e-12);
        let n = model.x.len();
        let kstar: Vec<f64> =
            model.x.iter().map(|&xi| alpha * model.config.kernel.corr(xq - xi)).collect();
        let g = model.config.trend.row(xq);
        let mut mean: f64 = g.iter().zip(&model.gls.coefficients).map(|(gi, ci)| gi * ci).sum();
        mean += kstar.iter().zip(&model.kinv_resid).map(|(a, b)| a * b).sum::<f64>();
        let kinv_kstar = model.chol.solve(&kstar);
        let explained: f64 = kstar.iter().zip(&kinv_kstar).map(|(a, b)| a * b).sum();
        let mut var = alpha - explained;
        if !model.config.trend.is_empty() {
            let mut u = g.clone();
            for (j, uj) in u.iter_mut().enumerate() {
                let col = model.design.col(j);
                let mut s = 0.0;
                for i in 0..n {
                    s += col[i] * kinv_kstar[i];
                }
                *uj -= s;
            }
            let cu = model.gls.coef_cov.matvec(&u);
            var += u.iter().zip(&cu).map(|(a, b)| a * b).sum::<f64>();
        }
        Prediction { mean, var: var.max(0.0) }
    }

    #[test]
    fn predict_many_matches_the_scalar_oracle_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9a7c4);
        let groups = [(0, 2), (3, 5), (6, 8), (9, 12)];
        let mut compared = 0;
        // Every history length up to past the solver's tiles (each `dot`
        // tail, n < 4), candidate counts on both sides of a multiple of 8.
        for n in 1..=130usize {
            let theta = rng.random_range(0.3..4.0);
            let kernel = match n % 4 {
                0 => Kernel::Exponential { theta },
                1 => Kernel::SquaredExponential { theta },
                2 => Kernel::Matern32 { theta },
                _ => Kernel::Matern52 { theta },
            };
            // 0, 1 or 5 trend terms (the dummies need a populated history).
            let trend = match (n / 4) % 3 {
                0 => Trend::none(),
                1 => Trend::constant(),
                _ if n >= 24 => Trend::linear_with_group_dummies(&groups),
                _ => Trend::linear(),
            };
            let cfg = GpConfig {
                kernel,
                process_var: rng.random_range(0.2..5.0),
                noise_var: rng.random_range(0.01..0.3),
                trend,
            };
            // Mostly grid inputs, so replicates abound; some off-grid.
            let xs: Vec<f64> = (0..n)
                .map(|_| match rng.random_bool(0.8) {
                    true => rng.random_range(0..13) as f64,
                    false => rng.random_range(0.0..12.0),
                })
                .collect();
            let ys: Vec<f64> =
                xs.iter().map(|x| (0.6 * x).sin() + rng.random_range(-0.2..0.2)).collect();
            // A third of the cases carry warm-start multipliers on a prefix;
            // a third grow their tail through `update`.
            let mults: Vec<f64> = match n % 3 {
                0 => (0..n).map(|i| if i < n / 3 { 16.0 } else { 1.0 }).collect(),
                _ => Vec::new(),
            };
            let head = if n % 3 == 1 { n - n / 4 } else { n };
            let corr = cfg.kernel.corr_matrix_of(&xs[..head]);
            let Ok(mut model) = GpModel::fit_with_corr(
                cfg,
                &xs[..head],
                &ys[..head],
                &corr,
                &mults[..mults.len().min(head)],
            ) else {
                continue; // a dummy group without data: nothing to compare
            };
            if (head..n).any(|i| model.update(xs[i], ys[i]).is_err()) {
                continue;
            }
            let m = [1, 3, 8, 9, 17, 31][n % 6];
            let xq: Vec<f64> = (0..m)
                .map(|r| match r % 4 {
                    0 => xs[rng.random_range(0..n)], // on an observed input
                    1 => 1e6 * (r as f64 + 1.0),     // every kernel value underflows
                    _ => rng.random_range(-2.0..14.0),
                })
                .collect();
            for (r, got) in model.predict_many(&xq).into_iter().enumerate() {
                let want = predict_oracle(&model, xq[r]);
                assert_eq!(
                    got.mean.to_bits(),
                    want.mean.to_bits(),
                    "mean: n = {n}, xq = {}",
                    xq[r]
                );
                assert_eq!(got.var.to_bits(), want.var.to_bits(), "var: n = {n}, xq = {}", xq[r]);
                compared += 1;
            }
        }
        assert!(compared > 1000, "only {compared} predictions were compared");
    }

    /// `predict_many` against the oracle, bit for bit.
    fn assert_matches_oracle(model: &GpModel, xq: &[f64], case: &str) {
        let got = model.predict_many(xq);
        assert_eq!(got.len(), xq.len(), "{case}");
        for (p, &q) in got.iter().zip(xq) {
            let want = predict_oracle(model, q);
            assert_eq!(p.mean.to_bits(), want.mean.to_bits(), "mean: {case}, xq = {q}");
            assert_eq!(p.var.to_bits(), want.var.to_bits(), "var: {case}, xq = {q}");
        }
    }

    /// The shapes the tuners scan: one row per distinct action of
    /// 1..=128, integral candidates, GP-discontinuous's θ = 1 exponential
    /// among the kernels — the table path, mostly.
    #[test]
    fn predict_many_on_integral_actions_matches_the_oracle_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x7ab1e);
        let groups = [(1, 32), (33, 96), (97, 128)];
        // `k` distinct actions of 1..=128 in random order.
        let distinct = |rng: &mut rand::rngs::StdRng, k: usize| -> Vec<f64> {
            let mut actions: Vec<f64> = (1..=128).map(|a| a as f64).collect();
            for i in 0..k {
                let j = rng.random_range(i..actions.len());
                actions.swap(i, j);
            }
            actions.truncate(k);
            actions
        };
        let (mut tabled, mut cases) = (0, 0);
        for n in 1..=120usize {
            let kernel = match n % 5 {
                0 => Kernel::Exponential { theta: 1.0 },
                1 => Kernel::Exponential { theta: rng.random_range(0.5..8.0) },
                2 => Kernel::SquaredExponential { theta: rng.random_range(2.0..20.0) },
                3 => Kernel::Matern32 { theta: rng.random_range(1.0..10.0) },
                _ => Kernel::Matern52 { theta: rng.random_range(1.0..10.0) },
            };
            let trend = match n % 3 {
                0 => Trend::none(),
                1 => Trend::constant(),
                _ => Trend::linear_with_group_dummies(&groups),
            };
            let cfg = GpConfig {
                kernel,
                process_var: rng.random_range(0.2..5.0),
                noise_var: rng.random_range(0.01..0.3),
                trend,
            };
            let xs = distinct(&mut rng, n);
            let ys: Vec<f64> =
                xs.iter().map(|x| 50.0 / x + 0.1 * x + rng.random_range(-0.5..0.5)).collect();
            let mults: Vec<f64> = match n % 4 {
                0 => (0..n).map(|i| if i < n / 3 { 16.0 } else { 1.0 }).collect(),
                _ => Vec::new(),
            };
            let corr = cfg.kernel.corr_matrix_of(&xs);
            let Ok(model) = GpModel::fit_with_corr(cfg, &xs, &ys, &corr, &mults) else {
                continue; // a dummy group without data: nothing to compare
            };
            let m = [1, 7, 8, 9, 100, 128][n % 6];
            let xq = distinct(&mut rng, m);
            let alpha = model.config.process_var.max(1e-12);
            tabled += usize::from(model.covariance_table(&xq, alpha).is_some());
            cases += 1;
            assert_matches_oracle(&model, &xq, &format!("n = {n}, m = {m}"));
        }
        assert!(cases > 100 && tabled > 90, "{tabled} of {cases} scans used the table");
    }

    /// One off-grid candidate, or one input beyond the cap, sends the whole
    /// scan to `corr` per entry — with the same bits.
    #[test]
    fn predict_many_falls_back_past_the_table_rule_bitwise() {
        let cfg = GpConfig {
            kernel: Kernel::Exponential { theta: 1.0 },
            process_var: 1.3,
            noise_var: 0.05,
            trend: Trend::linear_with_group_dummies(&[(1, 40), (41, 80)]),
        };
        let xs: Vec<f64> = (1..=80).step_by(3).map(|a| a as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 30.0 / x + 0.05 * x).collect();
        let model = GpModel::fit(cfg.clone(), &xs, &ys).unwrap();
        let mut xq: Vec<f64> = (1..=80).map(|a| a as f64).collect();
        assert!(model.covariance_table(&xq, 1.3).is_some());
        assert_matches_oracle(&model, &xq, "all integral");
        xq[37] = 37.5;
        assert!(model.covariance_table(&xq, 1.3).is_none());
        assert_matches_oracle(&model, &xq, "one off-grid candidate");

        let mut far = xs.clone();
        far[5] = TABLE_CAP + 6.0;
        let model = GpModel::fit(cfg, &far, &ys).unwrap();
        xq[37] = 37.0;
        assert!(model.covariance_table(&xq, 1.3).is_none());
        assert_matches_oracle(&model, &xq, "one input beyond the cap");
    }

    fn base_config(theta: f64) -> GpConfig {
        GpConfig {
            kernel: Kernel::SquaredExponential { theta },
            process_var: 1.0,
            noise_var: 1e-8,
            trend: Trend::constant(),
        }
    }

    #[test]
    fn fits_and_updates_are_counted_where_they_happen() {
        let reg = adaphet_metrics::install_global(adaphet_metrics::Registry::new());
        // Other tests in this binary may fit concurrently: assert the
        // monotone delta, not an exact count.
        let full = reg.counter_value("gp.fit.full");
        let xs: [f64; 2] = [0.0, 1.0];
        let cfg = base_config(0.5);
        let corr = cfg.kernel.corr_matrix_of(&xs);
        let mut model = GpModel::fit_with_corr(cfg, &xs, &[1.0, 2.0], &corr, &[]).unwrap();
        assert!(reg.counter_value("gp.fit.full") - full >= 1.0, "one per fit_with_corr");
        assert!(reg.histogram("gp.model.fit_s").is_some());
        let incremental = reg.counter_value("gp.fit.incremental");
        model.update(2.0, 1.5).unwrap();
        assert!(reg.counter_value("gp.fit.incremental") - incremental >= 1.0, "one per update");
        assert!(reg.histogram("gp.model.update_s").is_some());
    }

    #[test]
    fn interpolates_with_tiny_noise() {
        let xs = [0.0, 1.0, 2.5, 4.0];
        let ys = [1.0, -0.5, 0.7, 2.0];
        let gp = GpModel::fit(base_config(0.8), &xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let p = gp.predict(*x);
            assert!((p.mean - y).abs() < 1e-3, "mean {} vs {}", p.mean, y);
            assert!(p.var < 1e-3, "var at data point should be tiny: {}", p.var);
        }
    }

    #[test]
    fn reverts_to_trend_far_from_data() {
        // Constant trend: far away the mean approaches γ̂₀ (≈ mean of y)
        // and the variance approaches α (plus trend uncertainty).
        let xs = [0.0, 1.0, 2.0];
        let ys = [4.0, 6.0, 5.0];
        let gp = GpModel::fit(base_config(0.5), &xs, &ys).unwrap();
        let far = gp.predict(100.0);
        let gamma0 = gp.trend_coefficients()[0];
        assert!((far.mean - gamma0).abs() < 1e-6);
        assert!(far.var >= 1.0 - 1e-6, "far variance at least α, got {}", far.var);
    }

    #[test]
    fn noise_prevents_exact_interpolation() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [0.0, 1.0, 0.0, 1.0];
        let mut cfg = base_config(1.0);
        cfg.noise_var = 0.5;
        let gp = GpModel::fit(cfg, &xs, &ys).unwrap();
        // With a big nugget, prediction at data points shrinks toward the
        // trend rather than chasing the noisy values.
        let p = gp.predict(1.0);
        assert!((p.mean - 1.0).abs() > 0.05, "should not interpolate noisy data");
        assert!(p.var > 0.01);
    }

    #[test]
    fn replicated_inputs_are_handled() {
        // Duplicate x values make R singular; the nugget (or jitter) must
        // rescue the factorization.
        let xs = [1.0, 1.0, 1.0, 2.0];
        let ys = [3.0, 3.4, 2.6, 5.0];
        let mut cfg = base_config(1.0);
        cfg.noise_var = 0.1;
        let gp = GpModel::fit(cfg, &xs, &ys).unwrap();
        let p = gp.predict(1.0);
        assert!((p.mean - 3.0).abs() < 0.3, "mean near replicate average, got {}", p.mean);
    }

    #[test]
    fn linear_trend_is_recovered() {
        // Pure line, no wiggle: γ̂ should match (2, 3) closely.
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let cfg = GpConfig {
            kernel: Kernel::Exponential { theta: 1.0 },
            process_var: 0.1,
            noise_var: 1e-6,
            trend: Trend::linear(),
        };
        let gp = GpModel::fit(cfg, &xs, &ys).unwrap();
        let c = gp.trend_coefficients();
        assert!((c[0] - 2.0).abs() < 0.2, "intercept {}", c[0]);
        assert!((c[1] - 3.0).abs() < 0.05, "slope {}", c[1]);
        // Extrapolation follows the trend.
        let p = gp.predict(20.0);
        assert!((p.mean - 62.0).abs() < 1.0, "extrapolated {}", p.mean);
    }

    #[test]
    fn group_dummies_model_discontinuity() {
        // A step function: 10 for x in 1..=5, 2 for x in 6..=10. A smooth
        // GP struggles; with group dummies the trend captures it.
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| if x <= 5.0 { 10.0 } else { 2.0 }).collect();
        let cfg = GpConfig {
            kernel: Kernel::Exponential { theta: 1.0 },
            process_var: 1.0,
            noise_var: 1e-4,
            trend: Trend::linear_with_group_dummies(&[(1, 5), (6, 10)]),
        };
        let gp = GpModel::fit(cfg, &xs, &ys).unwrap();
        // The trend alone should already be a good step fit.
        assert!((gp.trend_mean(3.0) - 10.0).abs() < 0.5);
        assert!((gp.trend_mean(8.0) - 2.0).abs() < 0.5);
        // And the jump between 5 and 6 is sharp.
        let jump = gp.trend_mean(5.0) - gp.trend_mean(6.0);
        assert!(jump > 6.0, "jump = {jump}");
    }

    #[test]
    fn log_likelihood_prefers_true_lengthscale() {
        // Data from a smooth slow function: a wildly wrong (tiny) θ should
        // have lower likelihood than a reasonable one.
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (0.3 * x).sin()).collect();
        let good = GpModel::fit(base_config(2.0), &xs, &ys).unwrap();
        let bad = GpModel::fit(base_config(0.01), &xs, &ys).unwrap();
        assert!(good.log_likelihood() > bad.log_likelihood());
    }

    #[test]
    #[should_panic(expected = "zero observations")]
    fn empty_fit_panics() {
        let _ = GpModel::fit(base_config(1.0), &[], &[]);
    }

    #[test]
    fn all_ones_noise_mults_are_bitwise_identical_to_the_plain_fit() {
        let xs: [f64; 4] = [1.0, 3.0, 4.5, 7.0];
        let ys = [2.0, -1.0, 0.5, 3.0];
        let mut cfg = base_config(1.2);
        cfg.noise_var = 0.05;
        let corr = cfg.kernel.corr_matrix_of(&xs);
        let plain = GpModel::fit(cfg.clone(), &xs, &ys).unwrap();
        let ones = GpModel::fit_with_corr(cfg, &xs, &ys, &corr, &[1.0; 4]).unwrap();
        assert_eq!(plain.log_likelihood().to_bits(), ones.log_likelihood().to_bits());
        for q in 0..30 {
            let xq = q as f64 * 0.3;
            let a = plain.predict(xq);
            let b = ones.predict(xq);
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.var.to_bits(), b.var.to_bits());
        }
    }

    #[test]
    fn inflated_noise_softens_a_prior_point() {
        // One wild "prior" observation among consistent live ones: with an
        // inflated multiplier the fit trusts it much less.
        let xs: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
        let ys = [50.0, 1.0, 1.1, 0.9]; // the first point is the outlier prior
        let mut cfg = base_config(1.0);
        cfg.noise_var = 0.1;
        let corr = cfg.kernel.corr_matrix_of(&xs);
        let trusted = GpModel::fit(cfg.clone(), &xs, &ys).unwrap();
        let softened =
            GpModel::fit_with_corr(cfg, &xs, &ys, &corr, &[100.0, 1.0, 1.0, 1.0]).unwrap();
        let t = trusted.predict(1.0).mean;
        let s = softened.predict(1.0).mean;
        assert!(s < t, "softened mean {s} should sit below the trusted {t}");
        assert!(s < 25.0, "softened prediction still chases the prior: {s}");
        assert_eq!(softened.noise_mult(0), 100.0);
        assert_eq!(softened.noise_mult(3), 1.0);
    }

    #[test]
    fn update_after_a_noisy_fit_matches_the_scratch_fit_bitwise() {
        // Appending a live point to a heteroscedastic fit must equal the
        // scratch fit on the extended history with multiplier 1 appended.
        let xs: [f64; 3] = [1.0, 2.0, 3.0];
        let ys = [9.0, 1.0, 1.2];
        let mults = [16.0, 1.0, 1.0];
        let mut cfg = base_config(0.9);
        cfg.noise_var = 0.2;
        let mut inc =
            GpModel::fit_with_corr(cfg.clone(), &xs, &ys, &cfg.kernel.corr_matrix_of(&xs), &mults)
                .unwrap();
        inc.update(4.0, 0.8).unwrap();
        let xs2: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
        let ys2 = [9.0, 1.0, 1.2, 0.8];
        let corr2 = cfg.kernel.corr_matrix_of(&xs2);
        let scratch =
            GpModel::fit_with_corr(cfg, &xs2, &ys2, &corr2, &[16.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(inc.log_likelihood().to_bits(), scratch.log_likelihood().to_bits());
        for q in 0..20 {
            let xq = q as f64 * 0.35;
            assert_eq!(inc.predict(xq).mean.to_bits(), scratch.predict(xq).mean.to_bits());
            assert_eq!(inc.predict(xq).var.to_bits(), scratch.predict(xq).var.to_bits());
        }
        assert_eq!(inc.noise_mult(3), 1.0);
    }

    #[test]
    fn confidence_band_covers_a_known_smooth_function() {
        // The paper's Fig. 3 claim: the true function lies within the 95%
        // band. Check over a dense grid for a correctly specified model.
        let xs: Vec<f64> = (0..10).map(|i| i as f64 * 1.3).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x.cos()).collect();
        let gp = GpModel::fit(
            GpConfig {
                kernel: Kernel::SquaredExponential { theta: 1.3 },
                process_var: 1.0,
                noise_var: 1e-6,
                trend: Trend::none(),
            },
            &xs,
            &ys,
        )
        .unwrap();
        let mut outside = 0;
        let total = 120;
        for q in 0..total {
            let x = q as f64 * 0.1;
            let p = gp.predict(x);
            let (lo, hi) = (p.mean - 1.96 * p.sd(), p.mean + 1.96 * p.sd());
            if !(lo..=hi).contains(&x.cos()) {
                outside += 1;
            }
        }
        assert!(outside <= total / 10, "truth outside the 95% band at {outside}/{total} points");
    }

    proptest! {
        /// Posterior variance is non-negative everywhere and bounded by the
        /// prior variance plus trend uncertainty; at observed points it is
        /// below the prior variance.
        #[test]
        fn prop_variance_sane(seed in 0u64..200) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let n = rng.random_range(2usize..12);
            let mut xs: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..20.0)).collect();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            xs.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
            let ys: Vec<f64> = xs.iter().map(|x| (0.4 * x).sin() + rng.random_range(-0.1..0.1)).collect();
            let mut cfg = base_config(rng.random_range(0.3..3.0));
            cfg.noise_var = 0.01;
            let gp = GpModel::fit(cfg, &xs, &ys).unwrap();
            for q in 0..40 {
                let xq = q as f64 * 0.5;
                let p = gp.predict(xq);
                prop_assert!(p.var >= 0.0);
                prop_assert!(p.mean.is_finite());
            }
            for &x in &xs {
                // At data points the latent variance is far below prior α.
                prop_assert!(gp.predict(x).var < 1.0);
            }
        }

        /// More data can only shrink the posterior variance at any fixed
        /// query point (for a fixed, noiseless-ish configuration with a
        /// trendless model, where the classic monotonicity holds).
        #[test]
        fn prop_variance_shrinks_with_data(seed in 0u64..100) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x51a5);
            let full: Vec<f64> = (0..8).map(|i| i as f64 + rng.random_range(0.0..0.5)).collect();
            let ys: Vec<f64> = full.iter().map(|x| (0.5 * x).cos()).collect();
            let cfg = GpConfig {
                kernel: Kernel::SquaredExponential { theta: 1.0 },
                process_var: 1.0,
                noise_var: 1e-6,
                trend: Trend::none(),
            };
            let small = GpModel::fit(cfg.clone(), &full[..4], &ys[..4]).unwrap();
            let big = GpModel::fit(cfg, &full, &ys).unwrap();
            for q in 0..20 {
                let xq = q as f64 * 0.4;
                prop_assert!(big.predict(xq).var <= small.predict(xq).var + 1e-7);
            }
        }
    }
}
