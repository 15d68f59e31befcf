#![warn(missing_docs)]

//! Dense linear-algebra substrate for the `adaphet` workspace.
//!
//! The Gaussian-process surrogate (`adaphet-gp`), the geostatistics
//! application (`adaphet-geostat`) and the real executor all need a small
//! but solid dense linear-algebra core: column-major matrices, Cholesky
//! factorization, triangular solves, generalized least squares and the four
//! tile kernels of a tiled Cholesky factorization (POTRF / TRSM / SYRK /
//! GEMM).
//!
//! Everything is implemented from scratch in safe Rust. The design goals
//! are correctness (property-tested against mathematical identities) and
//! predictable performance (contiguous column-major storage, iterator-based
//! inner loops that auto-vectorize), not BLAS-level tuning.
//!
//! # Quick example
//!
//! ```
//! use adaphet_linalg::{Mat, Cholesky};
//!
//! // A small SPD system: solve A x = b.
//! let a = Mat::from_rows(3, 3, &[4.0, 1.0, 0.0,
//!                                1.0, 3.0, 1.0,
//!                                0.0, 1.0, 2.0]);
//! let chol = Cholesky::factor(&a).unwrap();
//! let x = chol.solve(&[1.0, 2.0, 3.0]);
//! let r = a.matvec(&x);
//! for (ri, bi) in r.iter().zip([1.0, 2.0, 3.0]) {
//!     assert!((ri - bi).abs() < 1e-12);
//! }
//! ```

mod cholesky;
mod error;
mod gls;
mod kernels;
mod matrix;
mod stats;
mod triangular;
mod vector;

pub use cholesky::{Cholesky, TileSolver, RHS_TILE};
pub use error::LinalgError;
pub use gls::{gls_solve, GlsFit};
pub use kernels::{flops, gemm_update, potrf_tile, syrk_update, trsm_right_lt, TileKernel};
pub use matrix::Mat;
pub use stats::{mean, pooled_replicate_variance, sample_variance};
pub use triangular::{
    backward_sub, backward_sub_in_place, forward_sub, forward_sub_in_place,
    solve_lower_transpose_mat,
};
pub use vector::{axpy, dot, norm2, scale_in_place};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
