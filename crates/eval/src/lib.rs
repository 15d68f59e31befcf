#![warn(missing_docs)]

//! Evaluation harness: response tables, resampling strategy replays, and
//! the per-figure generators (see the `src/bin/fig*.rs` binaries).
//!
//! The methodology mirrors the paper's Section V:
//!
//! 1. every `(scenario, n_fact)` configuration is simulated once
//!    (deterministically — or a few times with per-task jitter for the
//!    "(Real)"-tagged scenarios) and augmented to 30 observations with
//!    `N(0, σ)` noise;
//! 2. exploration strategies are evaluated by *replaying* against these
//!    tables — every strategy samples from the exact same duration pools,
//!    making comparisons statistically fair;
//! 3. figures are emitted as CSV plus an ASCII rendering into `results/`.

pub mod cli;

mod cache;
mod diagnose;
mod error;
mod faults;
mod metrics_run;
mod replay;
mod report;
mod response;
mod sweep;
mod transfer;

pub use cache::{build_response_cached, CACHE_VERSION};
pub use cli::{load_fault_plan, parse_args, Flag, RunArgs};
pub use diagnose::{build_report, diagnose, parse_report_args, run_report, ReportArgs};
pub use error::AdaphetError;
pub use faults::{run_faulted_session, space_for_platform, FaultRunOutcome, FaultSessionConfig};
pub use metrics_run::{run_metrics_session, write_metrics_report};
// Strategy construction lives in adaphet-core now ([`StrategyKind`]
// replaced the old panicking by-name factory); re-exported here so the
// figure binaries and benches keep a single import surface.
pub use adaphet_core::{StrategyKind, UnknownStrategyError, PAPER_STRATEGIES};
pub use replay::{
    replay, replay_instrumented, replay_many, space_of, ReplayOutcome, ReplaySummary,
};
pub use report::{ascii_curve, write_csv, CsvTable};
pub use response::{build_response, build_response_2d, build_rigid_curve, ResponseTable};
pub use sweep::{sweep, sweep_response_tables};
pub use transfer::{
    donor_snapshot, iterations_to_band, leave_one_out, replay_warm, transfer_table, warm_wins,
    TransferOutcome, ORACLE_TOLERANCE,
};
