//! Column-major dense matrix.

use crate::LinalgError;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, column-major `f64` matrix.
///
/// Column-major storage matches the access pattern of the Cholesky and
/// triangular kernels (which walk down columns) and lets column views be
/// contiguous slices.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    /// `data[j * rows + i]` is element `(i, j)`.
    data: Vec<f64>,
}

impl Mat {
    /// Create an `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Create the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Build a matrix from row-major data (convenient in tests and doc
    /// examples, where literals read naturally row by row).
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), rows * cols, "from_rows: wrong element count");
        Mat::from_fn(rows, cols, |i, j| data[i * cols + j])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the raw column-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the raw column-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Contiguous view of column `j`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutable contiguous view of column `j`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.cols);
        let r = self.rows;
        &mut self.data[j * r..(j + 1) * r]
    }

    /// Two distinct mutable column views (`a != b`).
    ///
    /// # Panics
    /// Panics if `a == b` or either index is out of bounds.
    pub fn cols_mut_pair(&mut self, a: usize, b: usize) -> (&mut [f64], &mut [f64]) {
        assert!(a != b && a < self.cols && b < self.cols);
        let r = self.rows;
        if a < b {
            let (lo, hi) = self.data.split_at_mut(b * r);
            (&mut lo[a * r..(a + 1) * r], &mut hi[..r])
        } else {
            let (lo, hi) = self.data.split_at_mut(a * r);
            let (bv, av) = (&mut lo[b * r..(b + 1) * r], &mut hi[..r]);
            (av, bv)
        }
    }

    /// Extract row `i` as an owned vector.
    pub fn row(&self, i: usize) -> Vec<f64> {
        (0..self.cols).map(|j| self[(i, j)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Mat::matvec`] writing `A * x` into a caller-provided `y`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()` or `y.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        assert_eq!(y.len(), self.rows, "matvec: output dimension mismatch");
        y.fill(0.0);
        // Column-major: accumulate xj * col_j, contiguous reads.
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for (yi, &aij) in y.iter_mut().zip(self.col(j)) {
                *yi += xj * aij;
            }
        }
    }

    /// Transposed matrix-vector product `Aᵀ x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t: dimension mismatch");
        (0..self.cols).map(|j| crate::dot(self.col(j), x)).collect()
    }

    /// Matrix product `A * B`.
    pub fn matmul(&self, b: &Mat) -> crate::Result<Mat> {
        if self.cols != b.rows {
            return Err(LinalgError::DimMismatch {
                op: "matmul",
                found: (b.rows, b.cols),
                expected: (self.cols, b.cols),
            });
        }
        let mut c = Mat::zeros(self.rows, b.cols);
        // jik order with contiguous column accumulation (auto-vectorizes).
        for j in 0..b.cols {
            let bj = b.col(j);
            let cj = c.col_mut(j);
            for (k, &bkj) in bj.iter().enumerate() {
                if bkj == 0.0 {
                    continue;
                }
                let ak = self.col(k);
                for (cij, &aik) in cj.iter_mut().zip(ak) {
                    *cij += aik * bkj;
                }
            }
        }
        Ok(c)
    }

    /// Elementwise sum `A + B`.
    pub fn add(&self, b: &Mat) -> crate::Result<Mat> {
        if self.rows != b.rows || self.cols != b.cols {
            return Err(LinalgError::DimMismatch {
                op: "add",
                found: (b.rows, b.cols),
                expected: (self.rows, self.cols),
            });
        }
        let data = self.data.iter().zip(&b.data).map(|(x, y)| x + y).collect();
        Ok(Mat { rows: self.rows, cols: self.cols, data })
    }

    /// Elementwise difference `A - B`.
    pub fn sub(&self, b: &Mat) -> crate::Result<Mat> {
        if self.rows != b.rows || self.cols != b.cols {
            return Err(LinalgError::DimMismatch {
                op: "sub",
                found: (b.rows, b.cols),
                expected: (self.rows, self.cols),
            });
        }
        let data = self.data.iter().zip(&b.data).map(|(x, y)| x - y).collect();
        Ok(Mat { rows: self.rows, cols: self.cols, data })
    }

    /// Scaled copy `s * A`.
    pub fn scaled(&self, s: f64) -> Mat {
        Mat { rows: self.rows, cols: self.cols, data: self.data.iter().map(|x| s * x).collect() }
    }

    /// Whether `|A - B|` is elementwise below `tol`.
    pub fn approx_eq(&self, b: &Mat, tol: f64) -> bool {
        self.rows == b.rows
            && self.cols == b.cols
            && self.data.iter().zip(&b.data).all(|(x, y)| (x - y).abs() <= tol)
    }

    /// Grow a square matrix in place by one row and one column of zeros.
    ///
    /// The existing `n x n` block keeps its values; the move is done back to
    /// front inside the (resized) column-major buffer, so no intermediate
    /// matrix is allocated.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn grow_square(&mut self) {
        assert!(self.is_square(), "grow_square: matrix must be square");
        let n = self.rows;
        let m = n + 1;
        self.data.resize(m * m, 0.0);
        // Shift column j from offset j*n to j*m, highest column first so the
        // (larger) destination never overwrites unread source data.
        for j in (1..n).rev() {
            for i in (0..n).rev() {
                self.data[j * m + i] = self.data[j * n + i];
            }
        }
        // Zero the new bottom-row slots (which may hold stale shifted data);
        // the new last column is already zero from the resize.
        for j in 0..n {
            self.data[j * m + n] = 0.0;
        }
        self.rows = m;
        self.cols = m;
    }

    /// Grow the matrix in place by one row of zeros (columns unchanged).
    ///
    /// Like [`Mat::grow_square`] this restructures the column-major buffer
    /// back to front without allocating an intermediate matrix.
    pub fn grow_rows(&mut self) {
        let n = self.rows;
        let m = n + 1;
        self.data.resize(m * self.cols, 0.0);
        for j in (1..self.cols).rev() {
            for i in (0..n).rev() {
                self.data[j * m + i] = self.data[j * n + i];
            }
        }
        for j in 0..self.cols {
            self.data[j * m + n] = 0.0;
        }
        self.rows = m;
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[j * self.rows + i]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[j * self.rows + i]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:>10.4} ", self[(i, j)])?;
            }
            if self.cols > show_cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_identity_from_fn() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let id = Mat::identity(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(id[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }

        let m = Mat::from_fn(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m[(1, 0)], 10.0);
        assert_eq!(m[(0, 1)], 1.0);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Mat::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m[(1, 2)], 6.0);
        // Column-major storage check.
        assert_eq!(m.col(0), &[1.0, 4.0]);
    }

    #[test]
    fn matvec_and_matmul_agree_with_hand_computation() {
        let a = Mat::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = a.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
        let yt = a.matvec_t(&[1.0, 1.0]);
        assert_eq!(yt, vec![5.0, 7.0, 9.0]);

        let b = Mat::from_rows(3, 2, &[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let c = a.matmul(&b).unwrap();
        let expect = Mat::from_rows(2, 2, &[4.0, 5.0, 10.0, 11.0]);
        assert!(c.approx_eq(&expect, 1e-14));
    }

    #[test]
    fn matmul_dim_mismatch_errors() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 2);
        assert!(matches!(a.matmul(&b), Err(LinalgError::DimMismatch { .. })));
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        assert!(a.transpose().transpose().approx_eq(&a, 0.0));
    }

    #[test]
    fn add_sub_scale() {
        let a = Mat::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        let b = Mat::identity(2);
        let s = a.add(&b).unwrap();
        assert_eq!(s[(0, 0)], 2.0);
        let d = s.sub(&b).unwrap();
        assert!(d.approx_eq(&a, 0.0));
        let sc = a.scaled(2.0);
        assert_eq!(sc[(1, 1)], 8.0);
    }

    #[test]
    fn cols_mut_pair_disjoint_views() {
        let mut m = Mat::from_fn(3, 3, |i, j| (i + 10 * j) as f64);
        {
            let (a, b) = m.cols_mut_pair(0, 2);
            a[0] = -1.0;
            b[2] = -2.0;
        }
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(2, 2)], -2.0);
        // Reversed order works too.
        let (a, b) = m.cols_mut_pair(2, 0);
        assert_eq!(a[2], -2.0);
        assert_eq!(b[0], -1.0);
    }

    #[test]
    fn grow_square_preserves_block_and_zeroes_border() {
        let mut m = Mat::from_fn(3, 3, |i, j| (1 + i * 3 + j) as f64);
        let orig = m.clone();
        m.grow_square();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 4);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(m[(i, j)], orig[(i, j)]);
            }
        }
        for k in 0..4 {
            assert_eq!(m[(3, k)], 0.0);
            assert_eq!(m[(k, 3)], 0.0);
        }
    }

    #[test]
    fn grow_rows_appends_zero_row() {
        let mut m = Mat::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        m.grow_rows();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m[(2, 0)], 0.0);
        assert_eq!(m[(2, 2)], 0.0);
    }

    #[test]
    fn grow_square_from_empty_and_degenerate() {
        let mut m = Mat::zeros(0, 0);
        m.grow_square();
        assert_eq!((m.rows(), m.cols()), (1, 1));
        assert_eq!(m[(0, 0)], 0.0);
        let mut r = Mat::zeros(1, 0);
        r.grow_rows();
        assert_eq!((r.rows(), r.cols()), (2, 0));
    }
}
