//! # adaphet-analysis
//!
//! Post-hoc trace analysis and run explainability:
//!
//! * [`CriticalPath`] — exact longest dependence chain of a traced run,
//!   with per-phase / per-class / per-node time on the path and the node
//!   group that bounds the makespan;
//! * [`IdleBreakdown`] — classification of every worker idle second into
//!   dependency-wait, transfer-wait, or no-ready-work buckets that
//!   partition the window exactly;
//! * [`TelemetryRun`] — the JSONL telemetry a tuning session emits, read
//!   back line by line as the core `IterationEvent`s that wrote it (the
//!   schema pinned by `tests/telemetry_schema.rs`), GP posterior
//!   snapshots included;
//! * [`Report`] / [`render_html`] / [`render_ascii`] — a self-contained
//!   single-file HTML run report (inline SVG, no JavaScript, no external
//!   fetches) with an ASCII fallback for terminals.
//!
//! The crate deliberately depends only on `adaphet-runtime` (trace types),
//! `adaphet-core` (the telemetry event types) and `adaphet-metrics` (the
//! JSON layer): it consumes artifacts, it does not drive simulations. The `report` eval binary wires it to live
//! scenarios.

pub mod ascii;
pub mod critical_path;
pub mod html;
pub mod idle;
pub mod jsonl;
pub mod report;

pub use ascii::render_ascii;
pub use critical_path::{CriticalPath, PathStep};
pub use html::{html_escape, render_html, STYLE};
pub use idle::{IdleBreakdown, IdleCause};
pub use jsonl::{Json, StrategyRun, TelemetryRun};
pub use report::{Report, SimDiagnosis};
