#![warn(missing_docs)]

//! Gaussian-process regression (kriging) substrate.
//!
//! This crate is the from-scratch replacement for the R `DiceKriging`
//! package the paper uses: *universal kriging* — a GP with a parametric
//! trend `μ(x) = Σ_i γ_i g_i(x)` estimated by generalized least squares —
//! plus observation noise (nugget), the paper's covariance function
//! `Σ(x,x') = α exp(−|x−x'|/θ)` (Eq. 3) and alternatives, profile-likelihood
//! hyper-parameter estimation, and the GP-UCB acquisition rule (Eq. 2).
//!
//! The exploration strategies of `adaphet-core` build on this: GP-UCB uses
//! a constant trend and ML-estimated hyper-parameters; GP-discontinuous
//! uses a linear trend plus per-machine-group dummy variables, θ fixed to 1
//! and α set to the sample variance, exactly as in Section IV-D of the
//! paper.
//!
//! # Example: fitting a noisy cosine (paper Fig. 3)
//!
//! ```
//! use adaphet_gp::{GpConfig, GpModel, Kernel, Trend};
//!
//! let xs: Vec<f64> = (0..8).map(|i| i as f64 * 1.57).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x.cos()).collect();
//! let config = GpConfig {
//!     kernel: Kernel::SquaredExponential { theta: 1.5 },
//!     process_var: 1.0,
//!     noise_var: 1e-6,
//!     trend: Trend::constant(),
//! };
//! let gp = GpModel::fit(config, &xs, &ys).unwrap();
//! let p = gp.predict(xs[3]);
//! assert!((p.mean - ys[3]).abs() < 1e-3);   // near-interpolation
//! assert!(p.var >= 0.0);
//! ```

mod acquisition;
mod fit;
mod kernel;
mod markov;
mod model;
mod replicates;
mod trend;

pub use acquisition::{ucb_argmin, UcbSchedule};
pub use fit::{
    estimate_noise_from_replicates, fit_profile_likelihood, fit_profile_likelihood_with_noise,
    MleSearch,
};
pub use kernel::Kernel;
pub use markov::{MarkovChain, MarkovFit};
pub use model::{GpConfig, GpModel, Prediction};
pub use replicates::ReplicateGroups;
pub use trend::{Basis, Trend};

/// Result alias re-using the linear-algebra error type (all GP failures are
/// ultimately factorization failures).
pub type Result<T> = std::result::Result<T, adaphet_linalg::LinalgError>;
