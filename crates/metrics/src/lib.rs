#![warn(missing_docs)]

//! Lightweight runtime metrics: counters, gauges, fixed-bucket histograms.
//!
//! The crate is built around one trait, [`Recorder`], with two concrete
//! implementations:
//!
//! * [`NoopRecorder`] — the default everywhere. Every method is an inlined
//!   no-op behind an `enabled() == false` check, so instrumented code paths
//!   cost nothing measurable when metrics are off (pinned by the release-mode
//!   overhead test in `tests/overhead.rs`).
//! * [`Registry`] — a cheaply clonable (`Arc`-backed), thread-safe store of
//!   named counters, gauges and log-spaced-bucket histograms. Snapshots
//!   export as a [`MetricsReport`] (JSON or aligned text).
//!
//! One iteration's phase profile has one spelling from the application
//! to the report: [`PhaseSlice`] (a named phase and its seconds),
//! [`GroupProfile`] (busy/idle time of a node group) and
//! [`PhaseBreakdown`] (both, for one iteration) live here, the lowest
//! crate the application, the tuner and the figure binaries share, so an
//! [`IterationProfile`] takes them as they are.
//!
//! Durations are captured with the scoped [`Timer`] guard, which only reads
//! the clock when the recorder is enabled and observes into a histogram on
//! drop.
//!
//! For *where time goes inside one operation* (rather than aggregate
//! counts), the [`Spans`] collector records enter/exit events with parent
//! ids into a bounded ring of recent [`SpanRecord`]s; a disabled handle
//! makes every guard a clock-free no-op, mirroring [`NoopRecorder`].
//!
//! Components that cannot thread a recorder handle through their call sites
//! (solver internals, the response cache) use the process-wide recorder:
//! [`global()`] is a no-op until [`install_global`] activates a registry.
//! Installation is *first-wins*: concurrent callers (e.g. parallel tests)
//! all share the registry returned by the call, so assertions must be made
//! on monotone deltas rather than absolute counter values.

pub mod json;
mod recorder;
mod registry;
mod report;
mod span;

pub use json::{json_escape, Json};
pub use recorder::{NoopRecorder, Recorder, Timer};
pub use registry::{HistogramSnapshot, Registry, SECONDS_BUCKETS};
pub use report::{
    prometheus_name, GroupProfile, IterationProfile, MetricsReport, PhaseBreakdown, PhaseSlice,
    METRICS_SCHEMA_VERSION,
};
pub use span::{Span, SpanRecord, Spans};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Install `registry` as the process-wide recorder and enable it.
///
/// First caller wins: if a global registry is already installed, `registry`
/// is dropped and the previously installed one is (re-)enabled. The active
/// registry is returned either way, so callers can snapshot the one that is
/// actually collecting.
pub fn install_global(registry: Registry) -> Registry {
    let active = GLOBAL.get_or_init(|| registry).clone();
    GLOBAL_ENABLED.store(true, Ordering::Release);
    active
}

/// The process-wide recorder handle.
///
/// Disabled (a branch on one atomic load per call) until [`install_global`]
/// runs; afterwards it forwards to the installed [`Registry`].
pub fn global() -> &'static dyn Recorder {
    static HANDLE: GlobalRecorder = GlobalRecorder;
    &HANDLE
}

/// Zero-sized forwarder to the installed global registry.
struct GlobalRecorder;

impl Recorder for GlobalRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        GLOBAL_ENABLED.load(Ordering::Acquire)
    }

    #[inline]
    fn add(&self, name: &str, delta: f64) {
        if self.enabled() {
            if let Some(r) = GLOBAL.get() {
                r.add(name, delta);
            }
        }
    }

    #[inline]
    fn gauge(&self, name: &str, value: f64) {
        if self.enabled() {
            if let Some(r) = GLOBAL.get() {
                r.gauge(name, value);
            }
        }
    }

    #[inline]
    fn observe(&self, name: &str, seconds: f64) {
        if self.enabled() {
            if let Some(r) = GLOBAL.get() {
                r.observe(name, seconds);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_is_silent_before_install_and_first_wins_after() {
        // Before installation the handle reports disabled... unless another
        // test in this binary raced us to install; both orders are valid, so
        // only assert the *monotone* part of the contract here.
        let first = Registry::new();
        let active = install_global(first.clone());
        assert!(global().enabled());
        let before = active.counter_value("lib.test.counter");
        global().add("lib.test.counter", 2.0);
        assert_eq!(active.counter_value("lib.test.counter"), before + 2.0);

        // Second install is ignored; the original registry keeps collecting.
        let second = Registry::new();
        let still = install_global(second.clone());
        global().add("lib.test.counter", 1.0);
        assert_eq!(still.counter_value("lib.test.counter"), before + 3.0);
        assert_eq!(second.counter_value("lib.test.counter"), 0.0);
    }
}
