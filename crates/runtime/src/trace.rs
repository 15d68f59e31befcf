//! Execution traces and resource-utilization profiles (paper Fig. 1).

use crate::platform::NodeId;
use crate::task::{ClassId, TaskId};
use adaphet_metrics::json::{self, ToJson};
use std::collections::HashMap;
use std::fmt::Write;

/// Kind of worker a task executed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// CPU core (index within the node).
    CpuCore(usize),
    /// GPU device (index within the node).
    Gpu(usize),
}

/// One executed task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// The task.
    pub task: TaskId,
    /// Its class.
    pub class: ClassId,
    /// Application phase tag.
    pub phase: u32,
    /// Node it ran on.
    pub node: NodeId,
    /// Worker within the node.
    pub resource: ResourceKind,
    /// Start time (s).
    pub start: f64,
    /// End time (s).
    pub end: f64,
}

/// Per-task scheduling metadata recorded alongside the execution events:
/// the STF-inferred dependency edges and the lifecycle timestamps needed
/// for critical-path extraction and idle-bubble classification.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskMeta {
    /// STF predecessors (RAW/WAW/WAR edges inferred at submission).
    /// Includes pseudo-tasks (data migrations), which carry no
    /// [`TraceEvent`] of their own — path walkers hop through them.
    pub deps: Vec<TaskId>,
    /// Simulation time when every dependency was met (the task left the
    /// blocked state and its input transfers were requested).
    pub ready: Option<f64>,
    /// Simulation time when every input was local (the task entered its
    /// node's ready queue). `[ready, runnable)` is the window the task
    /// spent waiting on network transfers.
    pub runnable: Option<f64>,
}

/// Accumulated execution trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    meta: HashMap<usize, TaskMeta>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Record one executed task.
    pub fn push(&mut self, e: TraceEvent) {
        self.events.push(e);
    }

    /// Record the STF-inferred predecessor set of a task (called once at
    /// submission, including for untraced pseudo-tasks so dependence
    /// chains stay connected through data migrations).
    pub fn record_deps(&mut self, id: TaskId, deps: &[TaskId]) {
        if deps.is_empty() {
            return; // entry is created lazily by the timestamp recorders
        }
        self.meta.entry(id.0).or_default().deps = deps.to_vec();
    }

    /// Record the instant a task's dependencies were all met.
    pub fn record_ready(&mut self, id: TaskId, t: f64) {
        self.meta.entry(id.0).or_default().ready = Some(t);
    }

    /// Record the instant a task's inputs were all local.
    pub fn record_runnable(&mut self, id: TaskId, t: f64) {
        self.meta.entry(id.0).or_default().runnable = Some(t);
    }

    /// Scheduling metadata of one task, if any was recorded.
    pub fn meta(&self, id: TaskId) -> Option<&TaskMeta> {
        self.meta.get(&id.0)
    }

    /// All recorded `(task, metadata)` pairs, in arbitrary order.
    pub fn metas(&self) -> impl Iterator<Item = (TaskId, &TaskMeta)> {
        self.meta.iter().map(|(&id, m)| (TaskId(id), m))
    }

    /// All events in recording order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Drop all events and task metadata.
    pub fn clear(&mut self) {
        self.events.clear();
        self.meta.clear();
    }

    /// Per-node utilization profile: for each time bin of width `dt` over
    /// `[t0, t1)`, the fraction of the node's `n_workers` busy with tasks of
    /// `phase` (or any phase when `phase` is `None`).
    ///
    /// Degenerate windows (`t1 <= t0` or `dt <= 0`, including NaN) yield an
    /// empty profile rather than a panic — an empty iteration window is a
    /// normal occurrence when profiling zero-duration phases.
    pub fn utilization(
        &self,
        node: NodeId,
        n_workers: usize,
        phase: Option<u32>,
        t0: f64,
        t1: f64,
        dt: f64,
    ) -> Vec<f64> {
        if !(dt > 0.0 && t1 > t0) {
            return Vec::new();
        }
        let nbins = ((t1 - t0) / dt).ceil() as usize;
        let mut busy = vec![0.0; nbins];
        for e in &self.events {
            if e.node != node || phase.is_some_and(|p| p != e.phase) {
                continue;
            }
            let (s, t) = (e.start.max(t0), e.end.min(t1));
            if t <= s {
                continue;
            }
            let first = ((s - t0) / dt) as usize;
            let last = (((t - t0) / dt).ceil() as usize).min(nbins);
            for (b, slot) in busy.iter_mut().enumerate().take(last).skip(first) {
                let bin_lo = t0 + b as f64 * dt;
                let bin_hi = bin_lo + dt;
                let overlap = (t.min(bin_hi) - s.max(bin_lo)).max(0.0);
                *slot += overlap;
            }
        }
        let denom = dt * n_workers.max(1) as f64;
        busy.iter().map(|b| (b / denom).min(1.0)).collect()
    }

    /// Time of the last event end (0 for an empty trace).
    pub fn makespan(&self) -> f64 {
        self.events.iter().map(|e| e.end).fold(0.0, f64::max)
    }

    /// Serialize each task as one Chrome-trace "complete" event
    /// (`"ph":"X"`, times in microseconds), named by `phase_name` and laid
    /// out with one process per node and one thread per worker. The
    /// returned strings are individual JSON objects so callers can splice
    /// additional events (e.g. tuner decisions) into the same timeline
    /// before wrapping with [`chrome_trace_document`].
    pub fn chrome_events<F: Fn(u32) -> String>(&self, phase_name: F) -> Vec<String> {
        self.events
            .iter()
            .map(|e| {
                // GPUs get a disjoint thread-id band so they never collide
                // with CPU core lanes inside a node's process group.
                let tid = match e.resource {
                    ResourceKind::CpuCore(i) => i,
                    ResourceKind::Gpu(i) => 1000 + i,
                };
                let mut out = String::new();
                json::object(&mut out, |o| {
                    o.field("name", &phase_name(e.phase))
                        .field("cat", "task")
                        .field("ph", "X")
                        .field("ts", &ChromeMicros(e.start * 1e6))
                        .field("dur", &ChromeMicros((e.end - e.start) * 1e6))
                        .field("pid", &e.node.0)
                        .field("tid", &tid);
                    json::object(o.key("args"), |a| {
                        a.field("task", &e.task.0).field("class", &e.class.0);
                    });
                });
                out
            })
            .collect()
    }

    /// Export as a StarVZ-style CSV
    /// (`task,class,phase,node,resource,start,end`) for external
    /// visualization tools. The first line is a versioned schema comment
    /// ([`TRACE_CSV_VERSION`]) so downstream parsers can detect drift;
    /// the column header follows on the second line.
    pub fn to_csv(&self) -> String {
        let mut out = format!("# adaphet-trace-csv v{TRACE_CSV_VERSION}\n");
        out.push_str("task,class,phase,node,resource,start,end\n");
        for e in &self.events {
            let res = match e.resource {
                ResourceKind::CpuCore(i) => format!("cpu{i}"),
                ResourceKind::Gpu(i) => format!("gpu{i}"),
            };
            out.push_str(&format!(
                "{},{},{},{},{},{:.9},{:.9}\n",
                e.task.0, e.class.0, e.phase, e.node.0, res, e.start, e.end
            ));
        }
        out
    }
}

/// Schema version of [`Trace::to_csv`]'s leading comment line. Bump when
/// columns are added, removed or re-ordered.
pub const TRACE_CSV_VERSION: u32 = 1;

/// A Chrome-trace `ts`/`dur` value: microseconds printed with three
/// decimals (nanosecond resolution); a non-finite time is `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChromeMicros(pub f64);

impl ToJson for ChromeMicros {
    fn write_json(&self, out: &mut String) {
        if self.0.is_finite() {
            let _ = write!(out, "{:.3}", self.0);
        } else {
            out.push_str("null");
        }
    }
}

/// Wrap pre-serialized Chrome-trace event objects into a complete
/// `{"traceEvents":[...]}` document loadable by `chrome://tracing` and
/// Perfetto.
pub fn chrome_trace_document(events: &[String]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(e);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: usize, phase: u32, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            task: TaskId(0),
            class: ClassId(0),
            phase,
            node: NodeId(node),
            resource: ResourceKind::CpuCore(0),
            start,
            end,
        }
    }

    #[test]
    fn utilization_single_full_worker() {
        let mut t = Trace::new();
        t.push(ev(0, 0, 0.0, 2.0));
        let u = t.utilization(NodeId(0), 1, None, 0.0, 4.0, 1.0);
        assert_eq!(u, vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn utilization_partial_bins_and_multiple_workers() {
        let mut t = Trace::new();
        // Two workers; one busy from 0.5 to 1.5.
        t.push(ev(0, 0, 0.5, 1.5));
        let u = t.utilization(NodeId(0), 2, None, 0.0, 2.0, 1.0);
        assert!((u[0] - 0.25).abs() < 1e-12);
        assert!((u[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn utilization_phase_filter() {
        let mut t = Trace::new();
        t.push(ev(0, 0, 0.0, 1.0));
        t.push(ev(0, 1, 0.0, 1.0));
        let u0 = t.utilization(NodeId(0), 1, Some(0), 0.0, 1.0, 1.0);
        assert_eq!(u0, vec![1.0]);
        let all = t.utilization(NodeId(0), 2, None, 0.0, 1.0, 1.0);
        assert_eq!(all, vec![1.0]);
    }

    #[test]
    fn csv_export_has_version_line_header_and_rows() {
        let mut t = Trace::new();
        t.push(ev(2, 1, 0.5, 1.5));
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap(), format!("# adaphet-trace-csv v{TRACE_CSV_VERSION}"));
        assert_eq!(lines.next().unwrap(), "task,class,phase,node,resource,start,end");
        let row = lines.next().unwrap();
        assert!(row.starts_with("0,0,1,2,cpu0,"));
        assert!(row.contains("0.5"));
    }

    #[test]
    fn utilization_degenerate_window_is_empty_not_a_panic() {
        let mut t = Trace::new();
        t.push(ev(0, 0, 0.0, 1.0));
        assert!(t.utilization(NodeId(0), 1, None, 1.0, 1.0, 0.5).is_empty());
        assert!(t.utilization(NodeId(0), 1, None, 2.0, 1.0, 0.5).is_empty());
        assert!(t.utilization(NodeId(0), 1, None, 0.0, 1.0, 0.0).is_empty());
        assert!(t.utilization(NodeId(0), 1, None, 0.0, f64::NAN, 0.5).is_empty());
    }

    #[test]
    fn chrome_events_escape_phase_names() {
        let mut t = Trace::new();
        t.push(ev(0, 3, 0.0, 1.0));
        let evs = t.chrome_events(|p| format!("pha\"se\\{p}"));
        assert_eq!(evs.len(), 1);
        assert!(evs[0].contains("\"name\":\"pha\\\"se\\\\3\""), "{}", evs[0]);
        // The escaped event must parse as part of a valid document: no raw
        // quote may terminate the name string early.
        let doc = chrome_trace_document(&evs);
        assert!(!doc.contains("\"pha\"se"), "{doc}");
    }

    #[test]
    fn task_meta_records_deps_and_lifecycle_times() {
        let mut t = Trace::new();
        t.record_deps(TaskId(2), &[TaskId(0), TaskId(1)]);
        t.record_ready(TaskId(2), 1.5);
        t.record_runnable(TaskId(2), 2.25);
        let m = t.meta(TaskId(2)).expect("meta recorded");
        assert_eq!(m.deps, vec![TaskId(0), TaskId(1)]);
        assert_eq!(m.ready, Some(1.5));
        assert_eq!(m.runnable, Some(2.25));
        assert!(t.meta(TaskId(0)).is_none(), "no-dep tasks get no eager entry");
        t.record_ready(TaskId(0), 0.0);
        assert_eq!(t.metas().count(), 2);
        t.clear();
        assert!(t.meta(TaskId(2)).is_none(), "clear drops metadata too");
        assert_eq!(t.metas().count(), 0);
    }

    #[test]
    fn chrome_events_are_complete_events_in_microseconds() {
        let mut t = Trace::new();
        t.push(ev(2, 1, 0.5, 1.5));
        let evs = t.chrome_events(|p| format!("phase{p}"));
        assert_eq!(evs.len(), 1);
        let e = &evs[0];
        assert!(e.contains("\"name\":\"phase1\""), "{e}");
        assert!(e.contains("\"ph\":\"X\""), "{e}");
        assert!(e.contains("\"ts\":500000.000"), "{e}");
        assert!(e.contains("\"dur\":1000000.000"), "{e}");
        assert!(e.contains("\"pid\":2"), "{e}");
        let doc = chrome_trace_document(&evs);
        assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
        assert!(doc.ends_with("],\"displayTimeUnit\":\"ms\"}"), "{doc}");
    }

    #[test]
    fn gpu_lanes_do_not_collide_with_cpu_lanes() {
        let mut t = Trace::new();
        t.push(TraceEvent {
            task: TaskId(1),
            class: ClassId(0),
            phase: 0,
            node: NodeId(0),
            resource: ResourceKind::Gpu(0),
            start: 0.0,
            end: 1.0,
        });
        let evs = t.chrome_events(|_| "x".into());
        assert!(evs[0].contains("\"tid\":1000"), "{}", evs[0]);
    }

    #[test]
    fn makespan_is_last_end() {
        let mut t = Trace::new();
        assert_eq!(t.makespan(), 0.0);
        t.push(ev(0, 0, 0.0, 2.0));
        t.push(ev(1, 0, 1.0, 7.0));
        assert_eq!(t.makespan(), 7.0);
    }
}
