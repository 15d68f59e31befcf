#![warn(missing_docs)]

//! `adaphet-service` — a multi-tenant async tuning daemon on top of the
//! [`Session`](adaphet_core::Session)-split driver API.
//!
//! The paper's tuning loop is synchronous: the driver proposes a node
//! count, runs the iteration, records the duration. A real deployment
//! inverts that control flow — applications run on their own clusters
//! and merely *consult* a tuner between iterations. This crate is that
//! tuner as a daemon:
//!
//! * [`SessionManager`] — every live session, sharded by session id; a
//!   request runs on its caller's thread under its shard's lock, so
//!   per-session operations are totally ordered (and therefore exactly as
//!   deterministic as the single-threaded driver — pinned bit for bit);
//! * [`protocol`] — the length-prefixed JSON wire vocabulary
//!   (`create_session`, `get_proposal`, `submit_observation`,
//!   `get_posterior`, `close_session`, plus typed errors), with
//!   multiple proposals in flight per session via the pending-action
//!   ledger's tickets;
//! * [`Server`] — TCP and Unix-domain-socket accept loops (the
//!   `adaphet-serve` binary is a thin flag parser around them);
//! * [`Client`] — the blocking typed client used by tests, the
//!   `uds_client` example, and embedders.
//!
//! Sessions are keyed by id, not by connection: clients may disconnect
//! mid-measurement and resolve their tickets over a fresh connection.
//! Idle sessions are evicted after [`ServiceConfig::idle_timeout`];
//! shutdown waits for in-flight requests, then flushes what is left.
//!
//! # Observability plane
//!
//! The daemon watches itself: [`ServiceStats`] keeps an always-on
//! registry of `service.*` counters, per-verb latency histograms
//! (surfaced as p50/p95/p99) and per-shard queue-depth gauges; each
//! session carries a bounded [`EventRing`] of its recent lifecycle
//! events. The `get_stats` and `inspect` verbs expose all of that over
//! the ordinary wire protocol, [`MetricsServer`] serves the Prometheus
//! text exposition on `GET /metrics`, and the `adaphet-top` binary
//! renders it as a live terminal dashboard.
//!
//! # Health
//!
//! Each session carries a convergence [`HealthTracker`](adaphet_core::HealthTracker)
//! folded to `ok / warn / stalled / diverging`; the `get_health` verb,
//! the sidecar's `GET /health` endpoint, and per-state gauges in the
//! exposition all read from the same published summaries. The daemon
//! keeps no metric history of its own: a Prometheus server scraping
//! `GET /metrics` builds it.
//!
//! ```no_run
//! use adaphet_core::StrategyKind;
//! use adaphet_service::{Client, SessionSpec};
//!
//! let mut client = Client::connect_uds("/tmp/adaphet.sock").unwrap();
//! let spec = SessionSpec::new(StrategyKind::GpDiscontinuous, 42, 32);
//! let id = client.create_session(spec).unwrap();
//! for _ in 0..40 {
//!     let (ticket, _iter, action) = client.get_proposal(id).unwrap();
//!     let duration = run_my_iteration_on(action); // your application
//!     client.submit(id, ticket, duration).unwrap();
//! }
//! let closed = client.close_session(id).unwrap();
//! println!("best node count: {:?}", closed.best_action);
//! # fn run_my_iteration_on(_n: usize) -> f64 { 1.0 }
//! ```

pub mod client;
pub mod http;
pub mod manager;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod top;

pub use client::{Client, ClientError, ClosedSession, InspectedSession, PongInfo, Submitted};
pub use http::MetricsServer;
pub use manager::{ServiceConfig, SessionManager};
pub use protocol::{
    ErrorCode, HealthInfo, Request, Response, SessionEvent, SessionSpec, ShardStats, StatsSnapshot,
    VerbStats, MAX_FRAME,
};
pub use server::{Endpoint, Server};
pub use stats::{EventRing, ServiceStats};
