#![warn(missing_docs)]

//! # adaphet — adaptive heterogeneous node selection for multi-phase
//! task-based HPC applications
//!
//! A from-scratch Rust reproduction of *"Multi-Phase Task-Based HPC
//! Applications: Quickly Learning how to Run Fast"* (Nesi, Schnorr &
//! Legrand, IPDPS 2022).
//!
//! The umbrella crate re-exports the workspace's layers:
//!
//! * [`tuner`] — the paper's contribution: online exploration strategies
//!   over node counts ([`tuner::GpDiscontinuous`] being the proposed one);
//! * [`gp`] — Gaussian-process regression (universal kriging) substrate;
//! * [`lp`] — simplex solver + heterogeneous makespan lower bounds;
//! * [`runtime`] — StarPU-like task runtime with a simulated (SimGrid-like)
//!   and a real (threaded) backend;
//! * [`geostat`] — the ExaGeoStat-like five-phase application;
//! * [`store`] — the persistent surrogate store: versioned, checksummed
//!   snapshots of fitted surrogate state, keyed by platform signature,
//!   that later sessions warm-start from;
//! * [`scenarios`] — the paper's Table II machines and 16 scenarios;
//! * [`eval`] — response tables, resampling replays, figure generators;
//! * [`service`] — the multi-tenant tuning daemon: sessions over a
//!   length-prefixed JSON wire protocol (TCP/UDS), the `adaphet-serve`
//!   binary, and a blocking typed client;
//! * [`analysis`] — post-hoc trace diagnosis: critical paths, idle-bubble
//!   classification, telemetry parsing, and self-contained HTML reports;
//! * [`metrics`] — runtime metrics registry (counters, gauges, histograms)
//!   behind a no-op-by-default [`metrics::Recorder`];
//! * [`linalg`] — the dense linear-algebra core.
//!
//! See `examples/quickstart.rs` for the 40-line tour and DESIGN.md for the
//! full system inventory.

pub use adaphet_analysis as analysis;
pub use adaphet_core as tuner;
pub use adaphet_eval as eval;
pub use adaphet_geostat as geostat;
pub use adaphet_gp as gp;
pub use adaphet_linalg as linalg;
pub use adaphet_lp as lp;
pub use adaphet_metrics as metrics;
pub use adaphet_runtime as runtime;
pub use adaphet_scenarios as scenarios;
pub use adaphet_service as service;
pub use adaphet_store as store;

/// The curated one-import surface for embedding the tuner.
///
/// Everything a typical embedder touches: the tuning loop
/// ([`Session`](prelude::Session): `run` around an executor closure, or
/// the split `propose` / `observe` halves) and its typed builder, the
/// by-name strategy registry, the problem-statement types, telemetry
/// sinks, the resilience policy, the warm-start surface
/// ([`WarmStart`](prelude::WarmStart) plus the persistent
/// [`SurrogateStore`](prelude::SurrogateStore) it draws from), and the
/// service client for remote sessions.
///
/// ```
/// use adaphet::prelude::*;
///
/// let space = ActionSpace::unstructured(8);
/// let mut session = Session::builder(&space)
///     .kind(StrategyKind::GpDiscontinuous)
///     .warm_start(WarmStart::Cold)
///     .build()
///     .unwrap();
/// let p = session.propose().unwrap();
/// session.observe(p.ticket, Observation::of(1.0)).unwrap();
/// ```
pub mod prelude {
    pub use adaphet_core::{
        ActionSpace, GroupSig, HealthReport, HealthState, History, IterationEvent, JsonlSink,
        MemorySink, Observation, Observed, PlatformSignature, Proposal, ResiliencePolicy, Session,
        SessionBuilder, SessionError, StepOutcome, Strategy, StrategyKind, SurrogateSnapshot,
        SurrogateStore, TelemetrySink, Ticket, WarmStart,
    };
    pub use adaphet_service::{
        Client, ClientError, ClosedSession, ServiceConfig, SessionManager, SessionSpec, Submitted,
    };
}
