//! Pairwise distances of a growing history, shared by every fit over it.
//!
//! [`PairwiseDistances`] maintains the `|x_i − x_j|` matrix. The distances
//! depend only on the inputs — not on the kernel hyper-parameters — so one
//! matrix serves every (θ, α) candidate of an MLE grid search and both
//! stages of a two-stage fit. Next to it lives the correlation matrix
//! `R(θ)` of the kernel last asked for
//! ([`PairwiseDistances::correlations`]), grown by one bordered row per new
//! point: fits that differ only in α, σ²_N or trend share it instead of
//! re-evaluating n² kernel values each.

use crate::Kernel;
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
    /// rebuilt and `false` is returned. An empty tracker is filled in one
    /// O(n²) pass rather than row by row.
    pub fn sync(&mut self, xs: &[f64]) -> bool {
        let n = self.x.len();
        let extends = xs.len() >= n && xs[..n] == self.x[..];
        if extends && n > 0 {
            for &v in &xs[n..] {
                self.push(v);
            }
        } else {
            self.rebuild(xs);
        }
        extends
    }

    /// Recompute the matrix from scratch for `xs` (O(n²)).
    pub fn rebuild(&mut self, xs: &[f64]) {
        self.x.clear();
        self.x.extend_from_slice(xs);
        self.d = Mat::from_fn(xs.len(), xs.len(), |i, j| (xs[i] - xs[j]).abs());
        self.corr = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for (i, k) in kernels.iter().enumerate() {
            let mut d = PairwiseDistances::new();
            for n in 1..=xs.len() {
                assert!(d.sync(&xs[..n]));
                assert_eq!(bits(d.correlations(k)), bits(&fresh(k, &xs[..n])), "{k:?}, n = {n}");
            }
            // A rewritten history drops R; the next request rebuilds it.
            let rewritten = [xs[1], xs[0], xs[2], xs[1]];
            assert!(!d.sync(&rewritten));
            assert_eq!(bits(d.correlations(k)), bits(&fresh(k, &rewritten)));
            // Another θ of the same family replaces the kept matrix, and so
            // does another family.
            let longer = match *k {
                Kernel::Exponential { theta } => Kernel::Exponential { theta: 2.0 * theta },
                Kernel::SquaredExponential { theta } => {
                    Kernel::SquaredExponential { theta: 2.0 * theta }
                }
                Kernel::Matern32 { theta } => Kernel::Matern32 { theta: 2.0 * theta },
                Kernel::Matern52 { theta } => Kernel::Matern52 { theta: 2.0 * theta },
            };
            let other = kernels[(i + 1) % kernels.len()];
            for next in [longer, other] {
                assert_eq!(
                    bits(d.correlations(&next)),
                    bits(&fresh(&next, &rewritten)),
                    "{next:?}"
                );
            }
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
}
