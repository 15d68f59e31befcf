//! Execution traces and resource-utilization profiles (paper Fig. 1).

use crate::platform::NodeId;
use crate::task::{ClassId, TaskId};
use std::collections::HashMap;

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
    fn utilization_degenerate_window_is_empty_not_a_panic() {
        let mut t = Trace::new();
        t.push(ev(0, 0, 0.0, 1.0));
        assert!(t.utilization(NodeId(0), 1, None, 1.0, 1.0, 0.5).is_empty());
        assert!(t.utilization(NodeId(0), 1, None, 2.0, 1.0, 0.5).is_empty());
        assert!(t.utilization(NodeId(0), 1, None, 0.0, 1.0, 0.0).is_empty());
        assert!(t.utilization(NodeId(0), 1, None, 0.0, f64::NAN, 0.5).is_empty());
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
    fn makespan_is_last_end() {
        let mut t = Trace::new();
        assert_eq!(t.makespan(), 0.0);
        t.push(ev(0, 0, 0.0, 2.0));
        t.push(ev(1, 0, 1.0, 7.0));
        assert_eq!(t.makespan(), 7.0);
    }
}
