//! What one tuning iteration measured and what the loop reports about it:
//! the executor's [`Observation`] going in, the [`IterationEvent`] (and
//! its pinned JSONL schema) coming out.

use crate::strategy::{DecisionTrace, PosteriorSnapshot};
use adaphet_metrics::json::{self, ToJson};
use adaphet_metrics::GroupProfile;

/// Time attributed to one named application phase within an iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSlice {
    /// Phase name (e.g. `"factorization"`).
    pub name: String,
    /// Busy time of the phase in seconds.
    pub seconds: f64,
}

impl PhaseSlice {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, seconds: f64) -> Self {
        PhaseSlice { name: name.into(), seconds }
    }
}

/// Wall-clock decomposition of one iteration: disjoint per-phase slices
/// (which sum to the iteration duration, unlike the busy-time
/// [`Observation::phases`] which overlap under concurrency) plus per-group
/// utilization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Disjoint wall-clock slices in completion order; sums to the
    /// iteration duration.
    pub phases: Vec<PhaseSlice>,
    /// Busy vs. idle time per homogeneous node group.
    pub groups: Vec<GroupProfile>,
}

/// What the executor measured for one iteration.
///
/// The session is runtime-agnostic: simulated runtimes, real thread pools
/// and pre-measured response tables all reduce to a duration plus an
/// optional per-phase breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Iteration makespan in seconds (what strategies optimize).
    pub duration: f64,
    /// Optional per-phase busy-time breakdown of the iteration.
    pub phases: Vec<PhaseSlice>,
    /// Optional wall-clock phase/utilization decomposition (profiled runs).
    pub breakdown: Option<PhaseBreakdown>,
}

impl Observation {
    /// An observation with no phase breakdown.
    pub fn of(duration: f64) -> Self {
        Observation { duration, phases: Vec::new(), breakdown: None }
    }

    /// An observation with a per-phase breakdown.
    pub fn with_phases(duration: f64, phases: Vec<PhaseSlice>) -> Self {
        Observation { duration, phases, breakdown: None }
    }

    /// An observation with both the busy-time phases and the wall-clock
    /// phase/utilization decomposition.
    pub fn with_breakdown(
        duration: f64,
        phases: Vec<PhaseSlice>,
        breakdown: PhaseBreakdown,
    ) -> Self {
        Observation { duration, phases, breakdown: Some(breakdown) }
    }
}

/// Everything there is to know about one session iteration.
///
/// The JSONL serialization of this struct ([`IterationEvent::to_json`])
/// is a stable schema: field names and ordering are pinned by a golden
/// test and consumed by external tooling, so changes are semver-relevant.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationEvent {
    /// 0-based iteration index.
    pub iteration: usize,
    /// `Strategy::name()` of the deciding strategy.
    pub strategy: String,
    /// The action (node count) the strategy chose.
    pub action: usize,
    /// Measured iteration duration in seconds.
    pub duration: f64,
    /// Sum of all iteration durations up to and including this one.
    pub cumulative_time: f64,
    /// Duration of the best-known action (from an oracle or response
    /// table), when configured on the builder.
    pub best_known: Option<f64>,
    /// Instantaneous regret `duration − best_known`, when available.
    pub regret: Option<f64>,
    /// Per-phase breakdown reported by the executor (may be empty).
    pub phases: Vec<PhaseSlice>,
    /// Strategy introspection for this decision, when a sink asked for it.
    pub trace: Option<DecisionTrace>,
    /// Wall-clock phase/utilization decomposition, when the executor
    /// profiled the iteration.
    pub phase_breakdown: Option<PhaseBreakdown>,
    /// Extra measurements the resilience policy re-took this iteration
    /// after an outlier/timeout verdict (0 in fault-free runs).
    pub retries: usize,
    /// Fault/resilience annotation for this iteration (e.g.
    /// `"node-death:rank=5"`, `"rebaseline"`, `"retry:1"`), `None` on
    /// unremarkable iterations.
    pub fault: Option<String>,
    /// The strategy's full posterior over the live space right before
    /// this decision ([`Strategy::posterior_snapshot`](crate::Strategy::posterior_snapshot)),
    /// when a sink asked for decision traces and the strategy maintains a
    /// surrogate.
    pub snapshot: Option<PosteriorSnapshot>,
}

impl ToJson for PhaseSlice {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("name", &self.name).field("seconds", &self.seconds);
        });
    }
}

impl ToJson for PhaseBreakdown {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("phases", &self.phases).field("groups", &self.groups);
        });
    }
}

impl IterationEvent {
    /// One-line JSON rendering with a pinned field order:
    /// `iteration, strategy, action, duration, cumulative_time,
    /// best_known, regret, phases, posterior, excluded, note,
    /// phase_breakdown, retries, fault, snapshot`.
    ///
    /// Every key is always present; `best_known`/`regret` are `null` when
    /// unset, `posterior`/`excluded`/`note` are empty when the decision
    /// trace was not requested, `phase_breakdown` is `null` for
    /// unprofiled iterations, `fault` is `null` for unremarkable
    /// iterations, and `snapshot` is `null` when the strategy has no
    /// surrogate posterior to report (it was appended last so parsers of
    /// the older 14-key schema keep reading a stable prefix). Non-finite
    /// floats serialize as `null`.
    pub fn to_json(&self) -> String {
        let trace = self.trace.as_ref();
        let mut s = String::with_capacity(256);
        json::object(&mut s, |o| {
            o.field("iteration", &self.iteration)
                .field("strategy", &self.strategy)
                .field("action", &self.action)
                .field("duration", &self.duration)
                .field("cumulative_time", &self.cumulative_time)
                .field("best_known", &self.best_known)
                .field("regret", &self.regret)
                .field("phases", &self.phases)
                .field("posterior", trace.map_or(&[][..], |t| &t.diagnostics))
                .field("excluded", trace.map_or(&[][..], |t| &t.excluded))
                .field("note", trace.map_or("", |t| &t.note))
                .field("phase_breakdown", &self.phase_breakdown)
                .field("retries", &self.retries)
                .field("fault", &self.fault)
                .field("snapshot", &self.snapshot);
        });
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_nonfinite() {
        let e = IterationEvent {
            iteration: 0,
            strategy: "a\"b\\c".into(),
            action: 1,
            duration: f64::NAN,
            cumulative_time: 1.0,
            best_known: None,
            regret: None,
            phases: vec![],
            trace: None,
            phase_breakdown: None,
            retries: 0,
            fault: None,
            snapshot: None,
        };
        let j = e.to_json();
        assert!(j.contains("\"strategy\":\"a\\\"b\\\\c\""));
        assert!(j.contains("\"duration\":null"));
        assert!(j.contains("\"best_known\":null"));
        assert!(
            j.ends_with("\"phase_breakdown\":null,\"retries\":0,\"fault\":null,\"snapshot\":null}"),
            "{j}"
        );
    }

    #[test]
    fn fault_annotation_serializes_as_a_string() {
        let e = IterationEvent {
            iteration: 3,
            strategy: "s".into(),
            action: 2,
            duration: 1.0,
            cumulative_time: 4.0,
            best_known: None,
            regret: None,
            phases: vec![],
            trace: None,
            phase_breakdown: None,
            retries: 2,
            fault: Some("node-death:rank=5;rebaseline".into()),
            snapshot: None,
        };
        let j = e.to_json();
        assert!(
            j.ends_with(
                "\"retries\":2,\"fault\":\"node-death:rank=5;rebaseline\",\"snapshot\":null}"
            ),
            "{j}"
        );
    }
}
