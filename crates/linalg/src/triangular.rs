//! Triangular solves with vectors and matrices.

use crate::{LinalgError, Mat};

/// Relative threshold under which a diagonal element is treated as zero.
const SINGULAR_TOL: f64 = 1e-300;

/// Solve `L x = b` where `L` is lower triangular (only the lower triangle of
/// `l` is read).
pub fn forward_sub(l: &Mat, b: &[f64]) -> crate::Result<Vec<f64>> {
    let mut x = b.to_vec();
    forward_sub_in_place(l, &mut x)?;
    Ok(x)
}

/// Solve `L x = b` in place: `x` holds `b` on entry and the solution on
/// return. The allocation-free core of [`forward_sub`], used by the
/// incremental Cholesky/GP paths with a reusable workspace buffer.
pub fn forward_sub_in_place(l: &Mat, x: &mut [f64]) -> crate::Result<()> {
    let n = l.rows();
    if !l.is_square() || x.len() != n {
        return Err(LinalgError::DimMismatch {
            op: "forward_sub",
            found: (x.len(), 1),
            expected: (n, 1),
        });
    }
    for j in 0..n {
        let d = l[(j, j)];
        if d.abs() < SINGULAR_TOL {
            return Err(LinalgError::SingularDiagonal(j));
        }
        let xj = x[j] / d;
        x[j] = xj;
        // Eliminate column j below the diagonal (contiguous in column-major).
        let col = &l.col(j)[j + 1..];
        for (xi, &lij) in x[j + 1..].iter_mut().zip(col) {
            *xi -= lij * xj;
        }
    }
    Ok(())
}

/// Solve `Lᵀ x = b` where `L` is lower triangular (only the lower triangle
/// of `l` is read).
pub fn backward_sub(l: &Mat, b: &[f64]) -> crate::Result<Vec<f64>> {
    let mut x = b.to_vec();
    backward_sub_in_place(l, &mut x)?;
    Ok(x)
}

/// Solve `Lᵀ x = b` in place: `x` holds `b` on entry and the solution on
/// return. The allocation-free core of [`backward_sub`].
pub fn backward_sub_in_place(l: &Mat, x: &mut [f64]) -> crate::Result<()> {
    let n = l.rows();
    if !l.is_square() || x.len() != n {
        return Err(LinalgError::DimMismatch {
            op: "backward_sub",
            found: (x.len(), 1),
            expected: (n, 1),
        });
    }
    for j in (0..n).rev() {
        let d = l[(j, j)];
        if d.abs() < SINGULAR_TOL {
            return Err(LinalgError::SingularDiagonal(j));
        }
        // x[j] := (x[j] - L[j+1.., j] · x[j+1..]) / L[j,j]
        let col = &l.col(j)[j + 1..];
        let s = crate::dot(col, &x[j + 1..]);
        x[j] = (x[j] - s) / d;
    }
    Ok(())
}

/// Solve `Lᵀ X = B` column by column (`B` is `n x m`).
pub fn solve_lower_transpose_mat(l: &Mat, b: &Mat) -> crate::Result<Mat> {
    if !l.is_square() || b.rows() != l.rows() {
        return Err(LinalgError::DimMismatch {
            op: "solve_lower_transpose_mat",
            found: (b.rows(), b.cols()),
            expected: (l.rows(), b.cols()),
        });
    }
    let mut x = b.clone();
    for j in 0..b.cols() {
        backward_sub_in_place(l, x.col_mut(j))?;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower3() -> Mat {
        Mat::from_rows(3, 3, &[2.0, 0.0, 0.0, 1.0, 3.0, 0.0, -1.0, 2.0, 4.0])
    }

    #[test]
    fn forward_then_multiply_recovers_rhs() {
        let l = lower3();
        let b = [2.0, 7.0, 9.0];
        let x = forward_sub(&l, &b).unwrap();
        // L x should equal b (use only lower triangle).
        let mut r = [0.0; 3];
        for i in 0..3 {
            for j in 0..=i {
                r[i] += l[(i, j)] * x[j];
            }
        }
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-14);
        }
    }

    #[test]
    fn backward_then_multiply_recovers_rhs() {
        let l = lower3();
        let b = [1.0, -2.0, 3.0];
        let x = backward_sub(&l, &b).unwrap();
        let mut r = [0.0; 3];
        for i in 0..3 {
            for j in i..3 {
                // (Lᵀ)[i][j] = L[j][i]
                r[i] += l[(j, i)] * x[j];
            }
        }
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-14);
        }
    }

    #[test]
    fn upper_triangle_is_ignored() {
        let mut l = lower3();
        // Poison the strictly-upper triangle; results must not change.
        l[(0, 1)] = 99.0;
        l[(0, 2)] = -99.0;
        l[(1, 2)] = 42.0;
        let clean = lower3();
        let b = [1.0, 2.0, 3.0];
        assert_eq!(forward_sub(&l, &b).unwrap(), forward_sub(&clean, &b).unwrap());
        assert_eq!(backward_sub(&l, &b).unwrap(), backward_sub(&clean, &b).unwrap());
    }

    #[test]
    fn singular_diagonal_detected() {
        let mut l = lower3();
        l[(1, 1)] = 0.0;
        assert_eq!(forward_sub(&l, &[1.0, 1.0, 1.0]), Err(LinalgError::SingularDiagonal(1)));
        assert_eq!(backward_sub(&l, &[1.0, 1.0, 1.0]), Err(LinalgError::SingularDiagonal(1)));
    }

    #[test]
    fn matrix_solve_matches_vector_solves() {
        let l = lower3();
        let b = Mat::from_rows(3, 2, &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let xt = solve_lower_transpose_mat(&l, &b).unwrap();
        for j in 0..2 {
            assert_eq!(xt.col(j), backward_sub(&l, b.col(j)).unwrap().as_slice());
        }
    }

    #[test]
    fn in_place_variants_match_allocating_solves() {
        let l = lower3();
        let b = [1.5, -0.25, 7.0];
        let mut x = b;
        forward_sub_in_place(&l, &mut x).unwrap();
        assert_eq!(x.to_vec(), forward_sub(&l, &b).unwrap());
        let mut y = b;
        backward_sub_in_place(&l, &mut y).unwrap();
        assert_eq!(y.to_vec(), backward_sub(&l, &b).unwrap());
    }

    #[test]
    fn dim_mismatch_reported() {
        let l = lower3();
        assert!(forward_sub(&l, &[1.0, 2.0]).is_err());
        assert!(backward_sub(&l, &[1.0, 2.0]).is_err());
        assert!(solve_lower_transpose_mat(&l, &Mat::zeros(2, 2)).is_err());
    }
}
