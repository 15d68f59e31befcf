//! The exponential kernel's state-space form: one Kalman filter and one
//! Rauch–Tung–Striebel smoother in place of a dense fit and scan.
//!
//! The paper's covariance `α·exp(−|x − x'|/θ)` (Eq. 3) is the
//! Ornstein–Uhlenbeck kernel. On positions sorted ascending the latent
//! process is an AR(1) chain, `Z_k = φ_k·Z_{k−1} + w_k`, with
//! `φ_k = exp(−Δ_k/θ)` over the gap `Δ_k`, `Var w_k = α·q_k`,
//! `q_k = 1 − φ_k²` and `Z_1 ~ N(0, α)` (Hartikainen & Särkkä, 2010).
//! [`MarkovChain`] lays the inputs and the candidates out on one chain.
//! [`MarkovChain::fit`] runs the filter forward over it: the observation `y`
//! and the k trend columns are whitened with the same gains, which yields
//! `GᵀK⁻¹G`, the GLS coefficients `β̂`, `ln det K` and the profile
//! likelihood. [`MarkovFit::predict`] runs the smoother back and gives every
//! candidate's universal-kriging posterior. The cost is O(k²·(d + m)) for d
//! inputs and m candidates, against O(d³ + m·d²) for [`crate::GpModel`].
//!
//! The results are the dense model's in mathematics, not in bits: callers
//! decide on them only where a decision is clear, and go to the dense model
//! otherwise (DESIGN.md §"Screen rule").

use crate::{GpConfig, Kernel, Prediction, Trend};

/// The conditioning guard: below this bound on `1 / cond(K)` the dense fit,
/// not the filter, loses the digits (it may even need jitter), so the two
/// may part.
const GUARD: f64 = 1e-6;

/// The trend guard: a pivot of the Cholesky factorization of `GᵀK⁻¹G`
/// below this fraction of its diagonal entry marks the trend as (nearly)
/// rank deficient — the case where the dense GLS fails or returns
/// coefficients dominated by rounding.
const PIVOT_GUARD: f64 = 1e-9;

/// The most trend terms [`MarkovChain::filter`] runs on: GP-disc's `x`
/// plus one dummy per machine group, for up to six groups.
pub(crate) const MAX_TERMS: usize = 7;

/// The inputs and the candidates of one fit, merged into one AR(1) chain
/// under the exponential kernel's length scale θ.
#[derive(Debug, Clone)]
pub struct MarkovChain {
    theta: f64,
    /// Input rows in ascending order of position (equal positions in row
    /// order).
    rows: Vec<usize>,
    /// Distinct positions of inputs and candidates, ascending: each node's
    /// position and the end of its input rows in `rows`.
    nodes: Vec<(f64, usize)>,
    /// `(node, candidate)` of every candidate, in ascending node order.
    candidates: Vec<(usize, usize)>,
    /// Per node: `φ` and `q` of the step into it (the first node has the
    /// stationary variance: `φ = 0`, `q = 1`).
    phi: Vec<f64>,
    q: Vec<f64>,
    /// Smallest gap between neighbouring input rows: 0 for a replicated
    /// input, `∞` for a single row.
    min_gap: f64,
}

impl MarkovChain {
    /// The chain over the inputs `xs` and the `candidates` (any order; an
    /// input and a candidate at one position share a node), or `None` for a
    /// kernel other than [`Kernel::Exponential`].
    pub fn new(kernel: &Kernel, xs: &[f64], candidates: &[f64]) -> Option<MarkovChain> {
        let Kernel::Exponential { theta } = *kernel else {
            return None;
        };
        let sorted = |v: &[f64]| {
            let mut order: Vec<usize> = (0..v.len()).collect();
            order.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
            order
        };
        let rows = sorted(xs);
        let cands = sorted(candidates);
        let min_gap = rows.windows(2).map(|w| xs[w[1]] - xs[w[0]]).fold(f64::INFINITY, f64::min);
        let (mut nodes, mut placed) = (Vec::new(), Vec::with_capacity(candidates.len()));
        let (mut r, mut c) = (0, 0);
        while r < rows.len() || c < cands.len() {
            let pos = match (rows.get(r), cands.get(c)) {
                (Some(&i), Some(&j)) if xs[i].total_cmp(&candidates[j]).is_le() => xs[i],
                (Some(&i), None) => xs[i],
                (_, Some(&j)) => candidates[j],
                (None, None) => unreachable!("the loop runs while either is left"),
            };
            while r < rows.len() && xs[rows[r]].total_cmp(&pos).is_eq() {
                r += 1;
            }
            while c < cands.len() && candidates[cands[c]].total_cmp(&pos).is_eq() {
                placed.push((nodes.len(), cands[c]));
                c += 1;
            }
            nodes.push((pos, r));
        }
        let mut chain = MarkovChain {
            theta,
            rows,
            nodes,
            candidates: placed,
            phi: Vec::new(),
            q: Vec::new(),
            min_gap,
        };
        chain.set_theta(theta);
        Some(chain)
    }

    /// Move the chain to length scale `theta`: one `exp` and one `expm1`
    /// per step whose gap differs from the step before (on integral actions
    /// most gaps are 1), shared by every α filtered over it.
    pub(crate) fn set_theta(&mut self, theta: f64) {
        self.theta = theta;
        self.phi.clear();
        self.q.clear();
        self.phi.push(0.0);
        self.q.push(1.0);
        let mut last = (f64::NAN, 0.0, 0.0);
        for w in self.nodes.windows(2) {
            let gap = w[1].0 - w[0].0;
            if gap != last.0 {
                last = (gap, (-gap / theta).exp(), -(-2.0 * gap / theta).exp_m1());
            }
            self.phi.push(last.1);
            self.q.push(last.2);
        }
    }

    /// Whether the conditioning guard fires for process variance `alpha`
    /// and nuggets between `lo` and `hi`: whether
    /// `λ_min(K) ≥ α·(1 − φ)/(1 + φ) + lo` falls below [`GUARD`] times
    /// `λ_max(K) ≤ α·min(d, (1 + φ)/(1 − φ)) + hi`, with
    /// `φ = exp(−Δ_min/θ)` at the smallest gap between inputs (1 for a
    /// replicated input).
    pub(crate) fn ill_conditioned(&self, alpha: f64, lo: f64, hi: f64) -> bool {
        // λ_min(R) of an AR(1) chain is at least 1 / (the largest absolute
        // row sum of its tridiagonal R⁻¹), which the closest inputs set;
        // λ_max(R) is at most R's own largest row sum, `1/spread` or `d`.
        let closest = (-self.min_gap / self.theta).exp();
        let spread = (1.0 - closest) / (1.0 + closest);
        let widest = (self.rows.len() as f64).min(spread.recip());
        alpha * spread + lo < GUARD * (alpha * widest + hi)
    }

    /// The forward filter under `config` over observations `ys` (one per
    /// input, in the inputs' order) with nugget multipliers `noise_mults`
    /// (empty = all ones), as [`crate::GpModel::fit_with_corr`] takes them.
    ///
    /// `None` when `config.kernel` is not this chain's, when the
    /// conditioning guard fires, when the trend is (nearly) rank deficient
    /// or when the coefficients or the likelihood are not finite: wherever
    /// the dense fit may fail, need jitter or lose its digits. Also `None`
    /// for a trend of more than seven terms, which is left to the dense
    /// model.
    pub fn fit(&self, config: &GpConfig, ys: &[f64], noise_mults: &[f64]) -> Option<MarkovFit<'_>> {
        assert_eq!(ys.len(), self.rows.len(), "one observation per input");
        if config.kernel != (Kernel::Exponential { theta: self.theta }) {
            return None;
        }
        let alpha = config.process_var.max(1e-12);
        let (nugget, lo, hi) = nuggets(config.noise_var, noise_mults, ys.len());
        if self.ill_conditioned(alpha, lo, hi) {
            return None;
        }
        let fit = self.filter(alpha, &nugget, &config.trend, ys)?;
        let finite =
            fit.log_likelihood.is_finite() && fit.coefficients.iter().all(|b| b.is_finite());
        (fit.full_rank && finite).then_some(fit)
    }

    /// The forward filter with process variance `alpha` and per-input
    /// nuggets, unguarded. At each node the states of `y` and of the trend
    /// columns are predicted (`P⁻ = φ²P + α·q`), then every input row there
    /// updates them in turn (`S = P⁻ + nugget`, gain `P⁻/S`); the
    /// innovations `e`, scaled by `1/S`, sum into `[y G]ᵀK⁻¹[y G]` and
    /// `ln S` into `ln det K` (a running product of the `S`, taken to its
    /// logarithm before it leaves `[1e-150, 1e150]`). The states are kept
    /// for [`MarkovFit::predict`] only on a chain with candidates.
    ///
    /// The recursion runs on arrays of `1 + k` columns sized at compile
    /// time, so trends of up to [`MAX_TERMS`] terms are filtered; `None`
    /// for a longer one.
    pub(crate) fn filter(
        &self,
        alpha: f64,
        nugget: &[f64],
        trend: &Trend,
        ys: &[f64],
    ) -> Option<MarkovFit<'_>> {
        let fit = match trend.len() {
            0 => self.forward::<1>(alpha, nugget, trend, ys),
            1 => self.forward::<2>(alpha, nugget, trend, ys),
            2 => self.forward::<3>(alpha, nugget, trend, ys),
            3 => self.forward::<4>(alpha, nugget, trend, ys),
            4 => self.forward::<5>(alpha, nugget, trend, ys),
            5 => self.forward::<6>(alpha, nugget, trend, ys),
            6 => self.forward::<7>(alpha, nugget, trend, ys),
            MAX_TERMS => self.forward::<{ MAX_TERMS + 1 }>(alpha, nugget, trend, ys),
            _ => return None,
        };
        Some(fit)
    }

    /// [`MarkovChain::filter`] over `C = 1 + k` columns: column 0 is `y`,
    /// column `1 + j` the trend term `j`.
    fn forward<const C: usize>(
        &self,
        alpha: f64,
        nugget: &[f64],
        trend: &Trend,
        ys: &[f64],
    ) -> MarkovFit<'_> {
        let terms = &trend.terms[..C - 1];
        let (mut mean, mut innov) = ([0.0; C], [0.0; C]);
        let (mut var, mut log_det, mut det) = (0.0, 0.0, 1.0f64);
        // Σ e_a·e_b/S, lower triangle.
        let mut cross = [[0.0; C]; C];
        let keep = !self.candidates.is_empty();
        let mut means = Vec::with_capacity(if keep { self.nodes.len() * C } else { 0 });
        let mut vars = Vec::with_capacity(if keep { self.nodes.len() } else { 0 });
        let mut start = 0;
        for ((&(pos, end), &phi), &q) in self.nodes.iter().zip(&self.phi).zip(&self.q) {
            var = phi * phi * var + alpha * q;
            for m in &mut mean {
                *m *= phi;
            }
            for &row in &self.rows[start..end] {
                let s = var + nugget[row];
                let inv = 1.0 / s;
                let gain = var * inv;
                innov[0] = ys[row] - mean[0];
                for j in 1..C {
                    innov[j] = terms[j - 1].eval(pos) - mean[j];
                }
                for (m, &e) in mean.iter_mut().zip(&innov) {
                    *m += gain * e;
                }
                var = var * nugget[row] * inv;
                det *= s;
                if !(1e-150..=1e150).contains(&det) {
                    log_det += det.ln();
                    det = 1.0;
                }
                for a in 0..C {
                    let scaled = innov[a] * inv;
                    for b in 0..=a {
                        cross[a][b] += scaled * innov[b];
                    }
                }
            }
            start = end;
            if keep {
                means.extend_from_slice(&mean);
                vars.push(var);
            }
        }
        log_det += det.ln();

        let k = C - 1;
        // GᵀK⁻¹G = L·Lᵀ, z = L⁻¹·GᵀK⁻¹y, β̂ = L⁻ᵀz and the whitened residual
        // sum of squares yᵀK⁻¹y − zᵀz.
        let mut chol = vec![0.0; k * k];
        let mut full_rank = true;
        for a in 0..k {
            for b in 0..=a {
                let mut v = cross[a + 1][b + 1];
                for l in 0..b {
                    v -= chol[a * k + l] * chol[b * k + l];
                }
                chol[a * k + b] = if a == b {
                    full_rank &= v > PIVOT_GUARD * cross[a + 1][a + 1];
                    v.sqrt()
                } else {
                    v / chol[b * k + b]
                };
            }
        }
        let mut z: Vec<f64> = (0..k).map(|a| cross[a + 1][0]).collect();
        forward_sub(&chol, k, &mut z);
        let mut coefficients = z.clone();
        for a in (0..k).rev() {
            for b in a + 1..k {
                coefficients[a] -= chol[b * k + a] * coefficients[b];
            }
            coefficients[a] /= chol[a * k + a];
        }
        let quad = cross[0][0] - z.iter().map(|v| v * v).sum::<f64>();
        let log_likelihood =
            -0.5 * (quad + log_det + ys.len() as f64 * (2.0 * std::f64::consts::PI).ln());
        MarkovFit {
            chain: self,
            alpha,
            trend: trend.clone(),
            means,
            vars,
            chol,
            full_rank,
            coefficients,
            log_likelihood,
        }
    }
}

/// Each of `n` inputs' nugget `σ²_N·m` — the expression
/// [`crate::GpModel::fit_with_corr`] puts on the diagonal (`noise_mults`
/// empty = all ones) — with the least and the greatest of them.
pub(crate) fn nuggets(noise_var: f64, noise_mults: &[f64], n: usize) -> (Vec<f64>, f64, f64) {
    let nugget: Vec<f64> =
        (0..n).map(|i| noise_mults.get(i).map_or(noise_var, |m| noise_var * m)).collect();
    let (lo, hi) =
        nugget.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    (nugget, lo, hi)
}

/// `v ← L⁻¹·v` for the lower-triangular `k × k` row-major `l`.
fn forward_sub(l: &[f64], k: usize, v: &mut [f64]) {
    for a in 0..k {
        for b in 0..a {
            v[a] -= l[a * k + b] * v[b];
        }
        v[a] /= l[a * k + a];
    }
}

/// One forward filter over a [`MarkovChain`]: the GLS fit of
/// [`crate::GpModel`] in state-space form, and the states
/// [`MarkovFit::predict`] smooths.
#[derive(Debug, Clone)]
pub struct MarkovFit<'c> {
    chain: &'c MarkovChain,
    alpha: f64,
    trend: Trend,
    /// Per node: the filtered means of `y` and of every trend column.
    means: Vec<f64>,
    /// Per node: the filtered variance.
    vars: Vec<f64>,
    /// Lower Cholesky factor of `GᵀK⁻¹G`, row-major.
    chol: Vec<f64>,
    /// Whether every pivot of that factorization passed [`PIVOT_GUARD`].
    full_rank: bool,
    coefficients: Vec<f64>,
    log_likelihood: f64,
}

impl MarkovFit<'_> {
    /// GLS-estimated trend coefficients `β̂`
    /// ([`crate::GpModel::trend_coefficients`]).
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Profile log marginal likelihood ([`crate::GpModel::log_likelihood`]).
    pub fn log_likelihood(&self) -> f64 {
        self.log_likelihood
    }

    /// The posterior of the latent `f` at every candidate of the chain, in
    /// the order they were given — what [`crate::GpModel::predict_many`]
    /// returns, to rounding. The smoother runs back over the nodes
    /// (`J = P·φ/P⁻`, `m ← m + J·(mˢ − φ·m)`, `Pˢ ← P·α·q/P⁻ + J²·Pˢ`) on
    /// the filtered residual `y − Gβ̂` and the trend columns; a candidate's
    /// mean is `g*ᵀβ̂` plus the smoothed residual, its variance the smoothed
    /// one plus `uᵀ(GᵀK⁻¹G)⁻¹u` with `u = g* − (smoothed G)`.
    pub fn predict(&self) -> Vec<Prediction> {
        let chain = self.chain;
        let k = self.trend.len();
        let c = k + 1;
        if chain.candidates.is_empty() {
            return Vec::new();
        }
        let nan = Prediction { mean: f64::NAN, var: f64::NAN };
        let mut out = vec![nan; chain.candidates.len()];
        let last = chain.nodes.len() - 1;
        // The filtered residual, y − Gβ̂, in column 0.
        let mut means = self.means.clone();
        for state in means.chunks_exact_mut(c) {
            let fitted: f64 = state[1..].iter().zip(&self.coefficients).map(|(g, b)| g * b).sum();
            state[0] -= fitted;
        }
        let mut smoothed = means[last * c..].to_vec();
        let mut var = self.vars[last];
        let (mut g, mut u) = (vec![0.0; k], vec![0.0; k]);
        let mut placed = chain.candidates.iter().rev().peekable();
        for node in (0..=last).rev() {
            if node < last {
                let (phi, q) = (chain.phi[node + 1], chain.q[node + 1]);
                let filtered = self.vars[node];
                let inv = 1.0 / (phi * phi * filtered + self.alpha * q);
                let gain = filtered * phi * inv;
                for (s, &m) in smoothed.iter_mut().zip(&means[node * c..(node + 1) * c]) {
                    *s = m + gain * (*s - phi * m);
                }
                var = filtered * (self.alpha * q) * inv + gain * gain * var;
            }
            while let Some(&(_, cand)) = placed.next_if(|&&(n, _)| n == node) {
                let pos = chain.nodes[node].0;
                for (gj, term) in g.iter_mut().zip(&self.trend.terms) {
                    *gj = term.eval(pos);
                }
                let mut mean: f64 = g.iter().zip(&self.coefficients).map(|(gi, b)| gi * b).sum();
                mean += smoothed[0];
                for ((uj, gj), s) in u.iter_mut().zip(&g).zip(&smoothed[1..]) {
                    *uj = gj - s;
                }
                forward_sub(&self.chol, k, &mut u);
                let spread = var + u.iter().map(|v| v * v).sum::<f64>();
                out[cand] = Prediction { mean, var: spread.max(0.0) };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpModel, ReplicateGroups};
    use rand::{Rng, SeedableRng};

    fn close(a: f64, b: f64, scale: f64) -> bool {
        (a - b).abs() <= 1e-9 * scale.max(1.0)
    }

    /// A tuner-shaped fit: `d` inputs drawn from `1..=span`, replicated or
    /// collapsed, with κ rows on a prefix one time in two, under the paper's
    /// GP-disc trend (θ = 1, linear + group dummies) or GP-UCB's (constant,
    /// θ across the likelihood grid's range).
    struct Case {
        config: GpConfig,
        xs: Vec<f64>,
        ys: Vec<f64>,
        mults: Vec<f64>,
        candidates: Vec<f64>,
    }

    fn case(seed: u64) -> Case {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let span = rng.random_range(8usize..=128);
        let cut = rng.random_range(2..span);
        let groups = [(1, cut), (cut + 1, span)];
        let distinct = rng.random_bool(0.3);
        let n = match distinct {
            true => rng.random_range(3usize..=span.min(99)),
            false => rng.random_range(4usize..=127),
        };
        // The tuners' first plays, then uniform draws: with replicates, or
        // (`distinct`) a random subset of the actions.
        let mut actions: Vec<usize> = vec![span, 1, span / 2];
        let mut pool: Vec<usize> = (1..=span).filter(|a| !actions.contains(a)).collect();
        while actions.len() < n {
            actions.push(match distinct {
                true => pool.swap_remove(rng.random_range(0..pool.len())),
                false => rng.random_range(1..=span),
            });
        }
        actions.truncate(n);
        let xs: Vec<f64> = actions.iter().map(|&a| a as f64).collect();
        let scale = 10f64.powf(rng.random_range(-3.0..3.0));
        let jump = rng.random_range(0.0..10.0);
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| {
                let step = if x > cut as f64 { jump } else { 0.0 };
                scale * (40.0 / x + 0.2 * x + step + rng.random_range(-0.5..0.5))
            })
            .collect();
        let prior = rng.random_range(0..n);
        let mults: Vec<f64> = match rng.random_bool(0.5) {
            true => Vec::new(),
            false => (0..n).map(|i| if i < prior { 16.0 } else { 1.0 }).collect(),
        };
        let var = adaphet_linalg::sample_variance(&ys).max(1e-12);
        let replicates = ReplicateGroups::of(&xs);
        let noise = replicates.noise_variance(&ys).unwrap_or(0.01 * var).max(1e-9 * var);
        // Replicated histories are collapsed four times in five, as the
        // strategies hand them in, and kept raw otherwise.
        let (xs, ys, mults) = match !distinct && rng.random_bool(0.8) {
            true => replicates.collapse(&xs, &ys, &mults),
            false => (xs, ys, mults),
        };
        let with_data: Vec<(usize, usize)> = groups
            .into_iter()
            .filter(|&(lo, hi)| xs.iter().any(|&x| x >= lo as f64 && x <= hi as f64))
            .collect();
        let (theta, trend) = match rng.random_bool(0.5) {
            true => (1.0, Trend::linear_with_group_dummies(&with_data)),
            // The likelihood grid's range over these inputs: span/50 to 2·span.
            false => {
                (span as f64 / 50.0 * 100f64.powf(rng.random_range(0.0..1.0)), Trend::constant())
            }
        };
        let config = GpConfig {
            kernel: Kernel::Exponential { theta },
            process_var: var * [0.25, 1.0, 4.0][rng.random_range(0..3usize)],
            noise_var: noise,
            trend,
        };
        let mut candidates: Vec<f64> = (1..=span).map(|a| a as f64).collect();
        if rng.random_bool(0.3) {
            for i in (1..candidates.len()).rev() {
                candidates.swap(i, rng.random_range(0..=i));
            }
        }
        Case { config, xs, ys, mults, candidates }
    }

    /// The dense model of a case, when the filter answers for it.
    fn both(case: &Case) -> Option<(MarkovChain, GpModel)> {
        let Case { config, xs, ys, mults, candidates } = case;
        let chain = MarkovChain::new(&config.kernel, xs, candidates).unwrap();
        chain.fit(config, ys, mults)?;
        let corr = config.kernel.corr_matrix_of(xs);
        let dense = GpModel::fit_with_corr(config.clone(), xs, ys, &corr, mults)
            .expect("the guards pass only what the dense fit can factor");
        Some((chain, dense))
    }

    /// The guards leave the filter most tuner-shaped fits.
    #[test]
    fn the_guards_let_the_filter_answer_tuner_shaped_fits() {
        let answered = (0..200).filter(|&seed| both(&case(seed ^ 0x3a7c)).is_some()).count();
        assert!(answered > 180, "the filter answered only {answered} of 200 cases");
    }

    /// The fits the filter turns down: a rank-deficient trend (one input
    /// per group of a linear + dummy trend), another kernel, a trend longer
    /// than [`MAX_TERMS`].
    #[test]
    fn the_filter_turns_down_what_it_cannot_answer() {
        let config = GpConfig {
            kernel: Kernel::Exponential { theta: 1.0 },
            process_var: 2.0,
            noise_var: 0.1,
            trend: Trend::linear_with_group_dummies(&[(1, 4), (5, 8)]),
        };
        let chain = MarkovChain::new(&config.kernel, &[3.0, 7.0], &[1.0, 5.0]).unwrap();
        assert!(chain.fit(&config, &[4.0, 2.0], &[]).is_none());
        // Eight terms are more than the filter runs on.
        let steps = (1..=8).map(|i| (4 * i - 3, 4 * i)).collect::<Vec<_>>();
        let long =
            GpConfig { trend: Trend::linear_with_group_dummies(&steps[..7]), ..config.clone() };
        let xs: Vec<f64> = (1..=32).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (0.3 * x).sin()).collect();
        let many = MarkovChain::new(&long.kernel, &xs, &[]).unwrap();
        assert_eq!(long.trend.len(), MAX_TERMS + 1);
        assert!(many.fit(&long, &ys, &[]).is_none());
        let shorter = GpConfig { trend: Trend::linear_with_group_dummies(&steps[..6]), ..long };
        assert!(many.fit(&shorter, &ys, &[]).is_some());
        // Without candidates a fit keeps no states and predicts nothing.
        let alone = MarkovChain::new(&config.kernel, &[3.0, 7.0], &[]).unwrap();
        let linear = GpConfig { trend: Trend::linear(), ..config.clone() };
        assert!(alone.fit(&linear, &[4.0, 2.0], &[]).unwrap().predict().is_empty());
        let other = GpConfig { kernel: Kernel::SquaredExponential { theta: 1.0 }, ..config };
        assert!(MarkovChain::new(&other.kernel, &[3.0, 7.0], &[1.0]).is_none());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// Means, variances, `β̂` and the likelihood of the filter and the
        /// smoother are the dense model's to 1e-9 relative wherever the
        /// guards let the filter answer.
        #[test]
        fn prop_the_smoother_is_the_dense_posterior(seed in 0u64..1 << 40) {
            let case = case(seed);
            if let Some((chain, dense)) = both(&case) {
                let fit = chain.fit(&case.config, &case.ys, &case.mults).unwrap();
                let l = dense.log_likelihood();
                proptest::prop_assert!(
                    close(fit.log_likelihood(), l, l.abs()),
                    "log likelihood {} vs {}", fit.log_likelihood(), l
                );
                let beta = dense.trend_coefficients();
                let beta_scale = beta.iter().fold(0.0f64, |a, b| a.max(b.abs()));
                for (a, b) in fit.coefficients().iter().zip(beta) {
                    proptest::prop_assert!(close(*a, *b, beta_scale), "β̂ {} vs {}", a, b);
                }
                let alpha = case.config.process_var;
                let dense_posterior = dense.predict_many(&case.candidates);
                for ((p, q), x) in fit.predict().iter().zip(&dense_posterior).zip(&case.candidates) {
                    proptest::prop_assert!(
                        close(p.mean, q.mean, q.mean.abs() + alpha.sqrt()),
                        "x = {}: mean {} vs {}", x, p.mean, q.mean
                    );
                    proptest::prop_assert!(close(p.var, q.var, alpha), "x = {}: var {} vs {}", x, p.var, q.var);
                }
            }
        }
    }
}
