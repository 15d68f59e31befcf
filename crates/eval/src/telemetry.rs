//! Chrome-trace telemetry: tuner decisions and task timelines in one file.
//!
//! [`ChromeTraceSink`] records each tuner iteration as Chrome-trace
//! instant + counter events on a dedicated "tuner" process lane. Merged
//! with the task events of a runtime [`Trace`](adaphet_runtime::Trace)
//! (via [`adaphet_runtime::Trace::chrome_events`]), the resulting
//! document shows *which* node count the tuner picked directly above the
//! per-worker task timeline it produced — loadable in `chrome://tracing`
//! or Perfetto.

use std::sync::{Arc, Mutex};

use adaphet_core::{IterationEvent, TelemetrySink};
use adaphet_metrics::json::{self, ObjectWriter};
use adaphet_runtime::{chrome_trace_document, ChromeMicros};

/// Process id used for the tuner lane (task events use the node id as
/// pid; node ids start at 0, so a large sentinel keeps the lane apart).
pub const TUNER_PID: usize = 9999;

/// Telemetry sink that renders tuner decisions as Chrome-trace events.
///
/// Event times come from the session's cumulative time, so when the
/// executor reports simulated durations the tuner lane lines up exactly
/// with the simulated task timeline. Cloning shares the buffer (like
/// [`adaphet_core::MemorySink`]), letting the caller keep a handle while
/// the session owns a clone.
#[derive(Debug, Clone, Default)]
pub struct ChromeTraceSink {
    events: Arc<Mutex<Vec<String>>>,
    /// Offset added to event timestamps (seconds) — set this when the
    /// runtime's clock did not start at zero.
    pub time_offset: f64,
}

impl ChromeTraceSink {
    /// An empty sink starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<String>> {
        // Pushing strings can't corrupt the buffer; ignore poisoning.
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The serialized tuner events recorded so far.
    pub fn tuner_events(&self) -> Vec<String> {
        self.lock().clone()
    }

    /// Merge the recorded tuner events with pre-serialized task events
    /// into one Chrome-trace document.
    pub fn merged_document(&self, task_events: &[String]) -> String {
        let mut all = self.tuner_events();
        all.extend_from_slice(task_events);
        chrome_trace_document(&all)
    }
}

impl TelemetrySink for ChromeTraceSink {
    // Instant/counter events only need session-level fields.
    fn wants_decision_trace(&self) -> bool {
        false
    }

    fn on_iteration(&mut self, e: &IterationEvent) {
        let start_us = (self.time_offset + e.cumulative_time - e.duration) * 1e6;
        let mut evs = self.lock();
        // An instant marker at iteration start; `scope` is Chrome's `s`
        // (`g` spans every lane, `p` the tuner's process).
        let instant = |name: &str, cat: &str, scope: &str, args: &dyn Fn(&mut ObjectWriter)| {
            event(|o| {
                o.field("name", name)
                    .field("cat", cat)
                    .field("ph", "i")
                    .field("s", scope)
                    .field("ts", &ChromeMicros(start_us))
                    .field("pid", &TUNER_PID)
                    .field("tid", &0usize);
                json::object(o.key("args"), args);
            })
        };
        // The decision.
        evs.push(instant(&format!("iter {}: n={}", e.iteration, e.action), "tuner", "g", &|a| {
            a.field("strategy", &e.strategy)
                .field("action", &e.action)
                .field("duration", &e.duration);
        }));
        // The chosen node count as a counter, so the tuner's trajectory
        // renders as a step curve over the task timeline.
        evs.push(event(|o| {
            o.field("name", "nodes")
                .field("cat", "tuner")
                .field("ph", "C")
                .field("ts", &ChromeMicros(start_us))
                .field("pid", &TUNER_PID);
            json::object(o.key("args"), |a| {
                a.field("n", &e.action);
            });
        }));
        // Fault/resilience annotations (node deaths, retries, re-baseline
        // probes), so recovery is visible right on the timeline.
        if let Some(fault) = &e.fault {
            evs.push(instant(&format!("fault: {fault}"), "fault", "p", &|a| {
                a.field("retries", &e.retries);
            }));
        }
        // Profiled iterations additionally get a phase lane (tid 1): the
        // disjoint wall-clock slices render as complete ("X") events laid
        // end to end across the iteration window.
        if let Some(b) = &e.phase_breakdown {
            let mut at_us = start_us;
            for p in &b.phases {
                let dur_us = p.seconds * 1e6;
                evs.push(event(|o| {
                    o.field("name", &p.name)
                        .field("cat", "phase")
                        .field("ph", "X")
                        .field("ts", &ChromeMicros(at_us))
                        .field("dur", &ChromeMicros(dur_us))
                        .field("pid", &TUNER_PID)
                        .field("tid", &1usize);
                }));
                at_us += dur_us;
            }
        }
    }
}

/// One serialized Chrome-trace event object.
fn event(members: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut out = String::new();
    json::object(&mut out, members);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_core::{ActionSpace, GpDiscontinuous, Observation, Session};

    #[test]
    fn sink_records_two_events_per_iteration_and_merges() {
        let space = ActionSpace::unstructured(6);
        let sink = ChromeTraceSink::new();
        let mut d = Session::builder(&space)
            .strategy(Box::new(GpDiscontinuous::new(&space)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        d.run(5, |n| Observation::of(12.0 / n as f64 + n as f64));
        let tuner = sink.tuner_events();
        assert_eq!(tuner.len(), 10, "one instant + one counter per iteration");
        assert!(tuner[0].contains("\"ph\":\"i\""));
        assert!(tuner[1].contains("\"ph\":\"C\""));
        let task_ev =
            "{\"name\":\"t\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0}".to_string();
        let doc = sink.merged_document(&[task_ev]);
        assert!(doc.starts_with("{\"traceEvents\":["));
        assert!(doc.contains("\"cat\":\"tuner\""));
        assert!(doc.contains("\"name\":\"t\""));
    }

    #[test]
    fn profiled_iterations_gain_a_phase_lane() {
        use adaphet_core::{AllNodes, PhaseBreakdown, PhaseSlice};
        let space = ActionSpace::unstructured(4);
        let sink = ChromeTraceSink::new();
        let mut d = Session::builder(&space)
            .strategy(Box::new(AllNodes::new(4)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        let breakdown = PhaseBreakdown {
            phases: vec![PhaseSlice::new("generation", 0.5), PhaseSlice::new("solve", 1.5)],
            groups: vec![],
        };
        d.step(|_| Observation::with_breakdown(2.0, vec![], breakdown.clone()));
        let evs = sink.tuner_events();
        assert_eq!(evs.len(), 4, "instant + counter + two phase slices: {evs:?}");
        assert!(evs[2].contains("\"name\":\"generation\"") && evs[2].contains("\"ph\":\"X\""));
        assert!(evs[3].contains("\"name\":\"solve\"") && evs[3].contains("\"tid\":1"));
        // Slices tile the window: solve starts where generation ends.
        assert!(evs[2].contains("\"ts\":0.000") && evs[2].contains("\"dur\":500000.000"));
        assert!(evs[3].contains("\"ts\":500000.000"), "{}", evs[3]);
    }

    #[test]
    fn fault_annotations_render_as_instant_markers() {
        use adaphet_core::IterationEvent;
        let mut sink = ChromeTraceSink::new();
        sink.on_iteration(&IterationEvent {
            iteration: 4,
            strategy: "GP-discontinuous".into(),
            action: 5,
            duration: 2.0,
            cumulative_time: 10.0,
            best_known: None,
            regret: None,
            phases: vec![],
            trace: None,
            phase_breakdown: None,
            retries: 1,
            fault: Some("node-death:rank=5;rebaseline".into()),
            snapshot: None,
        });
        let evs = sink.tuner_events();
        assert_eq!(evs.len(), 3, "instant + counter + fault marker: {evs:?}");
        assert!(evs[2].contains("\"name\":\"fault: node-death:rank=5;rebaseline\""));
        assert!(evs[2].contains("\"cat\":\"fault\"") && evs[2].contains("\"retries\":1"));
    }

    #[test]
    fn first_event_starts_at_zero_without_offset() {
        let space = ActionSpace::unstructured(3);
        let sink = ChromeTraceSink::new();
        let mut d = Session::builder(&space)
            .strategy(Box::new(GpDiscontinuous::new(&space)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        d.run(1, |_| Observation::of(2.0));
        assert!(sink.tuner_events()[0].contains("\"ts\":0.000"), "{:?}", sink.tuner_events());
    }

    #[test]
    fn hostile_names_and_a_nan_duration_still_yield_valid_json() {
        use adaphet_core::{IterationEvent, PhaseBreakdown, PhaseSlice};
        use adaphet_metrics::Json;
        let mut sink = ChromeTraceSink::new();
        sink.on_iteration(&IterationEvent {
            iteration: 0,
            strategy: "s\"t\\r".into(),
            action: 3,
            duration: f64::NAN,
            cumulative_time: 1.0,
            best_known: None,
            regret: None,
            phases: vec![],
            trace: None,
            phase_breakdown: Some(PhaseBreakdown {
                phases: vec![PhaseSlice::new("gen\"er\\ation", 0.5)],
                groups: vec![],
            }),
            retries: 0,
            // `apply_platform_change` notes are caller-supplied text.
            fault: Some("operator said \"rack 7\\8 down\"".into()),
            snapshot: None,
        });
        let task_ev =
            "{\"name\":\"t\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0}".to_string();
        let doc = Json::parse(&sink.merged_document(&[task_ev])).expect("valid JSON document");
        let events = doc.get("traceEvents").and_then(Json::as_arr).expect("event array");
        assert_eq!(events.len(), 5, "instant + counter + fault + phase + the task event");
        let name = |i: usize| events[i].get("name").and_then(Json::as_str).unwrap();
        assert_eq!(name(2), "fault: operator said \"rack 7\\8 down\"");
        assert_eq!(name(3), "gen\"er\\ation");
        let args = events[0].get("args").unwrap();
        assert_eq!(args.get("strategy").and_then(Json::as_str), Some("s\"t\\r"));
        assert_eq!(args.get("duration"), Some(&Json::Null), "NaN is written as null");
    }
}
