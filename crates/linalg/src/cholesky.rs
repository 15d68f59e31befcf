//! Cholesky factorization of symmetric positive-definite matrices.

use crate::{backward_sub_in_place, forward_sub, forward_sub_in_place, LinalgError, Mat};

/// Rows of one column that [`Cholesky::factor_in_place`] keeps in registers
/// while it subtracts the previous columns' contributions.
const ROW_TILE: usize = 8;

/// The widest tile of right-hand sides worth carrying through a
/// [`TileSolver`] sweep together (one `[f64; RHS_TILE]` per unknown):
/// eight lanes share each load of `L`.
pub const RHS_TILE: usize = 8;

/// For `W` rows of column `j` starting at row `i` — as many `W`-row tiles as
/// fit below `i` — subtract `row_j[k] · l[rows, k]` for every finished column
/// `k` in ascending order, skipping exact-zero multipliers. `done` holds
/// columns `0..j` (column-major, `n` rows each), `cj` is column `j`.
/// Returns the first row not covered.
fn subtract_prior_columns<const W: usize>(
    cj: &mut [f64],
    done: &[f64],
    row_j: &[f64],
    n: usize,
    mut i: usize,
) -> usize {
    while i + W <= n {
        let mut acc = [0.0; W];
        acc.copy_from_slice(&cj[i..i + W]);
        for (k, &ljk) in row_j.iter().enumerate() {
            if ljk == 0.0 {
                continue;
            }
            let ck = &done[k * n + i..k * n + i + W];
            for (a, &lik) in acc.iter_mut().zip(ck) {
                *a -= ljk * lik;
            }
        }
        cj[i..i + W].copy_from_slice(&acc);
        i += W;
    }
    i
}

/// Lower-triangular Cholesky factor `L` of an SPD matrix `A = L Lᵀ`,
/// together with solve and log-determinant helpers.
///
/// This is the workhorse of both the Gaussian-process surrogate (covariance
/// solves) and the geostatistics likelihood (validated against the tiled
/// distributed version in `adaphet-geostat`).
#[derive(Clone, Debug)]
pub struct Cholesky {
    l: Mat,
}

impl Cholesky {
    /// Factor an SPD matrix. Only the lower triangle of `a` is read.
    ///
    /// Returns [`LinalgError::NotSpd`] when a pivot is non-positive, which
    /// callers (e.g. the GP fitter) use to add jitter and retry.
    pub fn factor(a: &Mat) -> crate::Result<Self> {
        Self::factor_in_place(a.clone())
    }

    /// [`Cholesky::factor`] consuming `a`: the factor overwrites the
    /// caller's matrix instead of a clone of it.
    ///
    /// Left-looking column Cholesky, register-tiled: for column `j`, a tile
    /// of [`ROW_TILE`] rows is loaded once, the contributions of all previous
    /// columns `k < j` are subtracted from it in registers, and it is stored
    /// once — instead of one load-modify-store axpy over the column per `k`.
    /// Every element still sees `a[i,j] − l[j,0]·l[i,0] − l[j,1]·l[i,1] − …`
    /// in ascending `k` (zero `l[j,k]` skipped), then the multiply by the
    /// cached reciprocal pivot, so the factor is bit-identical to the
    /// axpy form and [`Cholesky::append`] keeps reproducing it exactly.
    pub fn factor_in_place(a: Mat) -> crate::Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::DimMismatch {
                op: "cholesky",
                found: (a.rows(), a.cols()),
                expected: (a.rows(), a.rows()),
            });
        }
        let n = a.rows();
        let mut l = a;
        // Row j of the finished columns, gathered once per column so the
        // tile loop reads its multipliers contiguously.
        let mut row_j = vec![0.0; n];
        for j in 0..n {
            for (k, r) in row_j[..j].iter_mut().enumerate() {
                *r = l[(j, k)];
            }
            let (done, rest) = l.as_mut_slice().split_at_mut(j * n);
            let cj = &mut rest[..n];
            let mut i = j;
            i = subtract_prior_columns::<ROW_TILE>(cj, done, &row_j[..j], n, i);
            i = subtract_prior_columns::<4>(cj, done, &row_j[..j], n, i);
            i = subtract_prior_columns::<2>(cj, done, &row_j[..j], n, i);
            subtract_prior_columns::<1>(cj, done, &row_j[..j], n, i);
            let d = cj[j];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotSpd(j));
            }
            let s = d.sqrt();
            cj[j] = s;
            let inv = 1.0 / s;
            for v in &mut cj[j + 1..] {
                *v *= inv;
            }
        }
        // Zero the strictly-upper triangle so `l` is a clean factor.
        for j in 1..n {
            l.col_mut(j)[..j].fill(0.0);
        }
        Ok(Cholesky { l })
    }

    /// Factor `a + jitter * I`, escalating `jitter` by 10x up to `max_tries`
    /// times when the factorization fails. Returns the factor and the jitter
    /// that was actually used.
    pub fn factor_with_jitter(
        a: &Mat,
        mut jitter: f64,
        max_tries: usize,
    ) -> crate::Result<(Self, f64)> {
        match Cholesky::factor(a) {
            Ok(c) => return Ok((c, 0.0)),
            Err(LinalgError::NotSpd(_)) => {}
            Err(e) => return Err(e),
        }
        for _ in 0..max_tries {
            let mut aj = a.clone();
            for i in 0..a.rows() {
                aj[(i, i)] += jitter;
            }
            match Cholesky::factor_in_place(aj) {
                Ok(c) => return Ok((c, jitter)),
                Err(LinalgError::NotSpd(_)) => jitter *= 10.0,
                Err(e) => return Err(e),
            }
        }
        Err(LinalgError::NotSpd(a.rows()))
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Extend the factor by one row/column in O(n²): given the new column
    /// `cov_col` (covariance of the new point against the existing `n`) and
    /// the new diagonal entry `cov_diag`, compute the bordered factor
    ///
    /// ```text
    /// L' = [ L   0 ]      with  L v = cov_col  (forward solve)
    ///      [ vᵀ  s ]      and   s = sqrt(cov_diag − vᵀv).
    /// ```
    ///
    /// The arithmetic replicates [`Cholesky::factor`]'s left-looking column
    /// updates operation for operation, so the appended factor is
    /// *bit-identical* to refactoring the full bordered matrix from scratch
    /// — incremental GP updates built on this reproduce scratch fits
    /// exactly, not approximately.
    ///
    /// `ws` is a caller-provided workspace (cleared and reused; no
    /// allocation once its capacity reaches `n`). On [`LinalgError::NotSpd`]
    /// — the bordered matrix has a non-positive pivot, exactly when a full
    /// refactorization would fail at the last column — the factor is left
    /// unchanged and callers should fall back to a (jitter-escalating) full
    /// refactorization.
    pub fn append(
        &mut self,
        cov_col: &[f64],
        cov_diag: f64,
        ws: &mut Vec<f64>,
    ) -> crate::Result<()> {
        let n = self.dim();
        if cov_col.len() != n {
            return Err(LinalgError::DimMismatch {
                op: "cholesky append",
                found: (cov_col.len(), 1),
                expected: (n, 1),
            });
        }
        ws.clear();
        ws.extend_from_slice(cov_col);
        // Mirror the factor loop for the new bottom row: subtract prior
        // columns' contributions in ascending k, then scale by the cached
        // reciprocal of the pivot — the same multiply `factor` performs.
        for j in 0..n {
            for k in 0..j {
                let ljk = self.l[(j, k)];
                if ljk == 0.0 {
                    continue;
                }
                ws[j] -= ljk * ws[k];
            }
            ws[j] *= 1.0 / self.l[(j, j)];
        }
        let mut d = cov_diag;
        for &v in ws.iter() {
            if v == 0.0 {
                continue;
            }
            d -= v * v;
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotSpd(n));
        }
        self.l.grow_square();
        for (k, &v) in ws.iter().enumerate() {
            self.l[(n, k)] = v;
        }
        self.l[(n, n)] = d.sqrt();
        Ok(())
    }

    /// The lower-triangular factor `L`.
    pub fn factor_l(&self) -> &Mat {
        &self.l
    }

    /// Solve `A x = b` via `L y = b`, `Lᵀ x = y`.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim()` (the factor is always nonsingular,
    /// so the underlying triangular solves cannot fail).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// [`Cholesky::solve`] overwriting `x` (the right-hand side on entry)
    /// with the solution; no allocation.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        forward_sub_in_place(&self.l, x).expect("Cholesky factor is nonsingular");
        backward_sub_in_place(&self.l, x).expect("Cholesky factor is nonsingular");
    }

    /// Solve `A X = B` for a matrix right-hand side.
    pub fn solve_mat(&self, b: &Mat) -> crate::Result<Mat> {
        if b.rows() != self.dim() {
            return Err(LinalgError::DimMismatch {
                op: "cholesky solve_mat",
                found: (b.rows(), b.cols()),
                expected: (self.dim(), b.cols()),
            });
        }
        let mut x = b.clone();
        for j in 0..b.cols() {
            self.solve_in_place(x.col_mut(j));
        }
        Ok(x)
    }

    /// A solver for tiles of right-hand sides, for callers that build the
    /// right-hand sides a tile at a time and reduce each solved tile while
    /// it is still in cache. It packs the rows of `L` once, in O(n²); every
    /// tile solved with it reuses them.
    pub fn tile_solver(&self) -> TileSolver<'_> {
        let n = self.dim();
        let mut rows = Vec::with_capacity(n * (n + 1) / 2);
        for i in 0..n {
            rows.extend((0..=i).map(|j| self.l[(i, j)]));
        }
        TileSolver { l: &self.l, rows }
    }

    /// Solve only the forward half, `L y = b` (used by kriging where
    /// `kᵀ K⁻¹ k` is computed as `‖L⁻¹ k‖²`).
    pub fn solve_forward(&self, b: &[f64]) -> Vec<f64> {
        forward_sub(&self.l, b).expect("Cholesky factor is nonsingular")
    }

    /// `log det(A) = 2 Σ log L[i,i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Quadratic form `bᵀ A⁻¹ b`, computed stably as `‖L⁻¹ b‖²`.
    pub fn quad_form(&self, b: &[f64]) -> f64 {
        let y = self.solve_forward(b);
        crate::dot(&y, &y)
    }

    /// Explicit inverse (only used in small kriging systems and tests).
    pub fn inverse(&self) -> Mat {
        self.solve_mat(&Mat::identity(self.dim())).expect("identity has matching dims")
    }
}

/// `A x = b` for a tile of right-hand sides at a time
/// ([`Cholesky::tile_solver`]).
#[derive(Debug)]
pub struct TileSolver<'a> {
    l: &'a Mat,
    /// Rows of `L` packed one after another (`row i` = `l[i, 0..=i]`), the
    /// contiguous layout the row-form forward sweep reads.
    rows: Vec<f64>,
}

impl TileSolver<'_> {
    /// Solve one tile of `W` right-hand sides in place. The tile is
    /// unknown-major: `tile[i][c]` is entry `i` of right-hand side `c`, on
    /// entry and on return. Every lane ends up bit-identical to
    /// [`Cholesky::solve`] of that lane: the sweeps only change which
    /// right-hand sides advance together, never the order of operations
    /// inside one. [`RHS_TILE`] is the widest tile worth carrying.
    ///
    /// # Panics
    /// Panics if `tile.len()` is not the factor's dimension.
    pub fn solve<const W: usize>(&self, tile: &mut [[f64; W]]) {
        let n = self.l.rows();
        assert_eq!(tile.len(), n, "tile solve: right-hand sides must have {n} entries");
        forward_tile(&self.rows, tile);
        backward_tile(self.l, tile);
    }
}

/// Row-form forward substitution `L x = b` on one tile of right-hand
/// sides. [`forward_sub_in_place`] eliminates column by column
/// (`x_i -= l[i,j]·x_j` for every `i > j` as soon as `x_j` is known); here
/// each `x_i` collects the same subtractions, in the same ascending `j`,
/// in a register before its division by `l[i,i]` — the two forms run the
/// identical operation sequence on every element.
fn forward_tile<const W: usize>(packed_rows: &[f64], x: &mut [[f64; W]]) {
    let mut start = 0;
    for i in 0..x.len() {
        let row = &packed_rows[start..start + i + 1];
        start += i + 1;
        let (solved, rest) = x.split_at_mut(i);
        let mut s = rest[0];
        for (&lij, xj) in row[..i].iter().zip(solved.iter()) {
            for c in 0..W {
                s[c] -= lij * xj[c];
            }
        }
        let d = row[i];
        for sc in &mut s {
            *sc /= d;
        }
        rest[0] = s;
    }
}

/// Backward substitution `Lᵀ x = b` on one tile of right-hand sides,
/// mirroring [`backward_sub_in_place`]: `x_j = (x_j − dot(l[j+1.., j],
/// x[j+1..])) / l[j,j]` with [`crate::dot`]'s association — four strided
/// partial sums plus a sequential tail, added as `((a0+a1)+a2)+a3)+tail`.
fn backward_tile<const W: usize>(l: &Mat, x: &mut [[f64; W]]) {
    let n = x.len();
    for j in (0..n).rev() {
        let col = &l.col(j)[j + 1..];
        let (head, below) = x.split_at_mut(j + 1);
        let chunks = col.len() / 4;
        let mut acc = [[0.0; W]; 4];
        for (lane, a) in acc.iter_mut().enumerate() {
            for k in 0..chunks {
                let lij = col[4 * k + lane];
                let xi = &below[4 * k + lane];
                for c in 0..W {
                    a[c] += lij * xi[c];
                }
            }
        }
        let mut tail = [0.0; W];
        for (&lij, xi) in col[4 * chunks..].iter().zip(&below[4 * chunks..]) {
            for c in 0..W {
                tail[c] += lij * xi[c];
            }
        }
        let d = l[(j, j)];
        let xj = &mut head[j];
        for c in 0..W {
            let s = acc[0][c] + acc[1][c] + acc[2][c] + acc[3][c] + tail[c];
            xj[c] = (xj[c] - s) / d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The axpy-form factorization [`Cholesky::factor_in_place`] replaced:
    /// one load-modify-store pass over column `j` per previous column `k`.
    /// Kept as the executable definition of the factor's bits.
    fn factor_axpy_oracle(a: &Mat) -> crate::Result<Mat> {
        let n = a.rows();
        let mut l = a.clone();
        for j in 0..n {
            for k in 0..j {
                let ljk = l[(j, k)];
                if ljk == 0.0 {
                    continue;
                }
                let (ck, cj) = l.cols_mut_pair(k, j);
                for i in j..n {
                    cj[i] -= ljk * ck[i];
                }
            }
            let d = l[(j, j)];
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotSpd(j));
            }
            let s = d.sqrt();
            l[(j, j)] = s;
            let inv = 1.0 / s;
            for v in &mut l.col_mut(j)[j + 1..] {
                *v *= inv;
            }
        }
        for j in 1..n {
            for i in 0..j {
                l[(i, j)] = 0.0;
            }
        }
        Ok(l)
    }

    /// A random SPD matrix; `band` zeroes entries further than that from
    /// the diagonal, so the factor holds exact zeros (the skip branch).
    fn random_spd(rng: &mut impl rand::Rng, n: usize, band: Option<usize>) -> Mat {
        let b = Mat::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            for j in 0..n {
                if band.is_some_and(|w| i.abs_diff(j) > w) {
                    a[(i, j)] = 0.0;
                }
            }
            a[(i, i)] += n as f64;
        }
        a
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiled_factor_matches_the_axpy_oracle_bitwise_for_every_size() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xfac7);
        // Every n up to past two row tiles of slack: n < 4, every remainder
        // of the 8/4/2/1 tile cascade, and the power-of-two stride at 128.
        for n in 1..=130 {
            let band = [None, Some(3), Some(0)][n % 3];
            let a = random_spd(&mut rng, n, band);
            let tiled = Cholesky::factor(&a).unwrap();
            assert_eq!(bits(tiled.factor_l()), bits(&factor_axpy_oracle(&a).unwrap()), "n = {n}");
        }
    }

    #[test]
    fn tiled_factor_fails_at_the_oracles_pivot_and_the_ladder_agrees() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x9d);
        let mut collapsed = 0;
        for n in [1usize, 2, 5, 8, 9, 31, 64, 77] {
            // Duplicate one row/column of an SPD matrix: exactly singular,
            // so some pivot collapses (where is up to rounding — whatever
            // the oracle says).
            let mut a = random_spd(&mut rng, n, None);
            if n > 1 {
                let (src, dst) = (rng.random_range(0..n - 1), n - 1);
                for k in 0..n {
                    let v = a[(src, k)];
                    a[(dst, k)] = v;
                    a[(k, dst)] = v;
                }
                a[(dst, dst)] = a[(src, src)];
            } else {
                a[(0, 0)] = -1.0;
            }
            match (Cholesky::factor(&a), factor_axpy_oracle(&a)) {
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "n = {n}");
                    collapsed += 1;
                }
                (Ok(got), Ok(want)) => assert_eq!(bits(got.factor_l()), bits(&want), "n = {n}"),
                (got, want) => panic!("n = {n}: tiled {got:?} but oracle {want:?}"),
            }
            // The jitter ladder lands on the same rung with the same bits.
            if let Ok((c, jitter)) = Cholesky::factor_with_jitter(&a, 1e-10, 14) {
                let mut aj = a.clone();
                for i in 0..n {
                    aj[(i, i)] += jitter;
                }
                assert_eq!(bits(c.factor_l()), bits(&factor_axpy_oracle(&aj).unwrap()), "n = {n}");
            }
        }
        assert!(collapsed >= 4, "only {collapsed} of the singular matrices lost a pivot");
    }

    /// Solve one random `W`-lane tile and compare every lane with the
    /// one-right-hand-side solve, bit for bit.
    fn assert_tile_matches_solve<const W: usize>(c: &Cholesky, rng: &mut impl rand::Rng) {
        let n = c.dim();
        let mut tile = vec![[0.0; W]; n];
        for t in &mut tile {
            t.fill_with(|| rng.random_range(-5.0..5.0));
        }
        let lanes: Vec<Vec<f64>> = (0..W).map(|k| tile.iter().map(|t| t[k]).collect()).collect();
        c.tile_solver().solve(&mut tile);
        for (lane, b) in lanes.iter().enumerate() {
            let want: Vec<u64> = c.solve(b).iter().map(|v| v.to_bits()).collect();
            let got: Vec<u64> = tile.iter().map(|t| t[lane].to_bits()).collect();
            assert_eq!(got, want, "n = {n}, {W}-lane tile, lane {lane}");
        }
    }

    #[test]
    fn tile_solve_matches_per_lane_solve_bitwise() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x50_17e);
        // Every n (each `dot` tail length, n < 4) against the full tile and
        // each narrower width; banded factors exercise exact-zero entries,
        // and a factor grown by `append` packs its new row like the rest.
        for n in 1..=130 {
            let band = [None, Some(3)][n % 2];
            let a = random_spd(&mut rng, n, band);
            let c = Cholesky::factor(&a).unwrap();
            assert_tile_matches_solve::<RHS_TILE>(&c, &mut rng);
            assert_tile_matches_solve::<4>(&c, &mut rng);
            assert_tile_matches_solve::<2>(&c, &mut rng);
            assert_tile_matches_solve::<1>(&c, &mut rng);
            if n > 1 {
                let m = n - 1;
                let mut grown = Cholesky::factor(&Mat::from_fn(m, m, |i, j| a[(i, j)])).unwrap();
                let col: Vec<f64> = (0..m).map(|i| a[(m, i)]).collect();
                grown.append(&col, a[(m, m)], &mut Vec::new()).unwrap();
                assert_tile_matches_solve::<RHS_TILE>(&grown, &mut rng);
            }
        }
    }

    fn spd3() -> Mat {
        Mat::from_rows(3, 3, &[4.0, 2.0, 0.6, 2.0, 5.0, 1.0, 0.6, 1.0, 3.0])
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let l = c.factor_l();
        let rec = l.matmul(&l.transpose()).unwrap();
        assert!(rec.approx_eq(&a, 1e-12));
    }

    #[test]
    fn upper_triangle_of_input_is_ignored() {
        let a = spd3();
        let mut poisoned = a.clone();
        poisoned[(0, 2)] = 1e6;
        let c1 = Cholesky::factor(&a).unwrap();
        let c2 = Cholesky::factor(&poisoned).unwrap();
        assert!(c1.factor_l().approx_eq(c2.factor_l(), 0.0));
    }

    #[test]
    fn solve_inverts() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = c.solve(&b);
        let r = a.matvec(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn log_det_matches_direct_2x2() {
        let a = Mat::from_rows(2, 2, &[3.0, 1.0, 1.0, 2.0]);
        let c = Cholesky::factor(&a).unwrap();
        let det: f64 = 3.0 * 2.0 - 1.0;
        assert!((c.log_det() - det.ln()).abs() < 1e-14);
    }

    #[test]
    fn quad_form_matches_solve() {
        let a = spd3();
        let c = Cholesky::factor(&a).unwrap();
        let b = [0.3, 1.0, -0.7];
        let x = c.solve(&b);
        let qf_direct: f64 = b.iter().zip(&x).map(|(bi, xi)| bi * xi).sum();
        assert!((c.quad_form(&b) - qf_direct).abs() < 1e-12);
    }

    #[test]
    fn not_spd_detected() {
        let a = Mat::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        assert!(matches!(Cholesky::factor(&a), Err(LinalgError::NotSpd(_))));
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-one matrix: PSD but not PD.
        let a = Mat::from_rows(2, 2, &[1.0, 1.0, 1.0, 1.0]);
        let (c, jitter) = Cholesky::factor_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(jitter > 0.0);
        assert_eq!(c.dim(), 2);
    }

    #[test]
    fn jitter_gives_up_eventually() {
        let a = Mat::from_rows(2, 2, &[-1e6, 0.0, 0.0, -1e6]);
        assert!(Cholesky::factor_with_jitter(&a, 1e-12, 3).is_err());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::factor(&a).unwrap().inverse();
        let id = a.matmul(&inv).unwrap();
        assert!(id.approx_eq(&Mat::identity(3), 1e-12));
    }

    #[test]
    fn non_square_rejected() {
        assert!(Cholesky::factor(&Mat::zeros(2, 3)).is_err());
    }

    #[test]
    fn append_matches_scratch_factor_bitwise() {
        let a = spd3();
        let mut c = Cholesky::factor(&a).unwrap();
        // Border with a new point: column and diagonal keeping SPD-ness.
        let col = [0.5, -0.2, 0.9];
        let diag = 6.0;
        let mut ws = Vec::new();
        c.append(&col, diag, &mut ws).unwrap();
        let mut b = Mat::zeros(4, 4);
        for i in 0..3 {
            for j in 0..3 {
                b[(i, j)] = a[(i, j)];
            }
            b[(3, i)] = col[i];
            b[(i, 3)] = col[i];
        }
        b[(3, 3)] = diag;
        let scratch = Cholesky::factor(&b).unwrap();
        // Bit-identical, not approximately equal: tolerance zero.
        assert!(c.factor_l().approx_eq(scratch.factor_l(), 0.0));
    }

    #[test]
    fn append_rejects_non_spd_border_and_leaves_factor_intact() {
        let a = spd3();
        let mut c = Cholesky::factor(&a).unwrap();
        let before = c.factor_l().clone();
        // A border that destroys positive definiteness (huge off-diagonal,
        // tiny diagonal).
        let mut ws = Vec::new();
        let err = c.append(&[10.0, 10.0, 10.0], 0.1, &mut ws).unwrap_err();
        assert!(matches!(err, LinalgError::NotSpd(3)));
        assert_eq!(c.dim(), 3);
        assert!(c.factor_l().approx_eq(&before, 0.0));
        // Dimension mismatch is reported, not panicked.
        assert!(c.append(&[1.0], 1.0, &mut ws).is_err());
    }

    #[test]
    fn repeated_appends_grow_from_a_single_point() {
        // Start from 1x1 and append twice; compare to the scratch factor.
        let a = spd3();
        let mut c = Cholesky::factor(&Mat::from_rows(1, 1, &[a[(0, 0)]])).unwrap();
        let mut ws = Vec::new();
        c.append(&[a[(1, 0)]], a[(1, 1)], &mut ws).unwrap();
        c.append(&[a[(2, 0)], a[(2, 1)]], a[(2, 2)], &mut ws).unwrap();
        let scratch = Cholesky::factor(&a).unwrap();
        assert!(c.factor_l().approx_eq(scratch.factor_l(), 0.0));
        // Solves agree exactly too.
        let b = [1.0, -2.0, 0.5];
        assert_eq!(c.solve(&b), scratch.solve(&b));
    }

    proptest! {
        /// Random SPD matrices (built as B Bᵀ + n·I) factor and reconstruct.
        #[test]
        fn prop_factor_reconstructs(seed in 0u64..500, n in 1usize..12) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let b = Mat::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
            let mut a = b.matmul(&b.transpose()).unwrap();
            for i in 0..n {
                a[(i, i)] += n as f64;
            }
            let c = Cholesky::factor(&a).unwrap();
            let l = c.factor_l();
            let rec = l.matmul(&l.transpose()).unwrap();
            prop_assert!(rec.approx_eq(&a, 1e-9 * (n as f64)));
        }

        /// Appending the last row/column of a random SPD matrix to the
        /// factor of its leading block reproduces the scratch factor
        /// bit for bit.
        #[test]
        fn prop_append_is_exact(seed in 0u64..500, n in 1usize..12) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5eed);
            let m = n + 1;
            let b = Mat::from_fn(m, m, |_, _| rng.random_range(-1.0..1.0));
            let mut a = b.matmul(&b.transpose()).unwrap();
            for i in 0..m {
                a[(i, i)] += m as f64;
            }
            let lead = Mat::from_fn(n, n, |i, j| a[(i, j)]);
            let mut inc = Cholesky::factor(&lead).unwrap();
            let col: Vec<f64> = (0..n).map(|i| a[(n, i)]).collect();
            let mut ws = Vec::new();
            inc.append(&col, a[(n, n)], &mut ws).unwrap();
            let scratch = Cholesky::factor(&a).unwrap();
            prop_assert!(inc.factor_l().approx_eq(scratch.factor_l(), 0.0));
        }

        /// Solving then multiplying recovers the right-hand side.
        #[test]
        fn prop_solve_roundtrip(seed in 0u64..500, n in 1usize..12) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcd);
            let b = Mat::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
            let mut a = b.matmul(&b.transpose()).unwrap();
            for i in 0..n {
                a[(i, i)] += n as f64;
            }
            let rhs: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..5.0)).collect();
            let c = Cholesky::factor(&a).unwrap();
            let x = c.solve(&rhs);
            let r = a.matvec(&x);
            for (ri, bi) in r.iter().zip(&rhs) {
                prop_assert!((ri - bi).abs() < 1e-8);
            }
        }
    }
}
