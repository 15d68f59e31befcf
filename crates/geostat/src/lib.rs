#![warn(missing_docs)]

//! ExaGeoStat-like multi-phase geostatistics application.
//!
//! The paper's driving application models spatial data `(X, Z)` — locations
//! and observations — by maximizing the Gaussian log-likelihood over the
//! covariance hyper-parameters θ. Every evaluation of the likelihood (one
//! *iteration* of the outer optimization) runs five task phases:
//!
//! 1. **Generation** of the covariance matrix Σ_θ (tile by tile, CPU-only);
//! 2. **Cholesky factorization** of Σ_θ (POTRF/TRSM/SYRK/GEMM tile DAG);
//! 3. **Solve** `L y = Z`, `Lᵀ x = y`;
//! 4. **Determinant** `log|Σ| = 2 Σ log L_kk`;
//! 5. **Dot product** `Zᵀ Σ⁻¹ Z = xᵀ Z` (with `x = Σ⁻¹ Z`).
//!
//! Two execution paths exist, mirroring the paper's methodology:
//!
//! * [`GeoSimApp`] submits the phase DAGs to the *simulated* distributed
//!   runtime ([`adaphet_runtime::SimRuntime`]) — this is what the 16
//!   evaluation scenarios use, with per-phase node subsets and data
//!   redistribution between phases;
//! * [`GeoRealApp`] executes the same DAGs *numerically* on the real
//!   threaded executor over in-memory tiles, validated against a dense
//!   reference likelihood; it provides genuine wall-clock iterations for
//!   the overhead study (paper Fig. 7).
//!
//! Both take their tasks from one enumeration: the crate-private
//! `phases::for_each_task` yields each phase's tasks (kernel, tile
//! coordinates, accesses, flops) in submission order; the simulator
//! turns each into a runtime task description, the real executor into
//! its kernel closure, so the two DAGs cannot drift apart.

mod covariance;
mod dense;
mod dist;
mod mle;
mod phases;
mod real_app;
mod sim_app;
mod workload;

pub use covariance::{CovParams, Covariance};
pub use dense::{dense_covariance, dense_log_likelihood, sample_field, Locations};
pub use dist::{Distribution, TileDist};
pub use mle::golden_section_max;
pub use phases::{GeoClasses, Phase};
pub use real_app::GeoRealApp;
pub use sim_app::{lp_curve, GeoSimApp, IterationChoice, IterationMetrics};
pub use workload::Workload;
