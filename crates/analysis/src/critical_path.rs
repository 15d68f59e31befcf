//! Exact critical-path extraction from an extended [`Trace`].
//!
//! The runtime records, for every submitted task, its STF-inferred
//! predecessor set and lifecycle timestamps ([`adaphet_runtime::TaskMeta`]).
//! Under STF semantics a task starts only after all its predecessors end,
//! so walking backward from the last-finishing task and always hopping to
//! the latest-ending predecessor yields the longest dependence chain — the
//! critical path that bounds the makespan. Dependence chains stay connected
//! through untraced pseudo-tasks (data migrations): the walker resolves
//! them transitively to the real tasks behind them.

use adaphet_runtime::{NodeId, TaskId, Trace, TraceEvent};
use std::collections::HashMap;

/// One task on the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// The task.
    pub task: TaskId,
    /// Application phase tag of the task.
    pub phase: u32,
    /// Task class (index into the runtime's class table).
    pub class: usize,
    /// Node the task ran on.
    pub node: NodeId,
    /// Execution start (s).
    pub start: f64,
    /// Execution end (s).
    pub end: f64,
    /// Idle time on the path immediately before this task started:
    /// `start − predecessor.end` (scheduling + transfer wait), or
    /// `start − window_start` for the first step.
    pub wait_before: f64,
}

impl PathStep {
    /// Execution time of this step.
    pub fn exec(&self) -> f64 {
        self.end - self.start
    }
}

/// The longest dependence chain of a traced run.
///
/// By construction `exec_time + wait_time == total()` exactly (the chain
/// telescopes from `window_start` to `makespan`), so the path accounts
/// for the full makespan: whatever is not execution on the path is wait.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Chain in execution order (first submitted → last finished).
    pub steps: Vec<PathStep>,
    /// Earliest event start in the trace (the analysis window origin).
    pub window_start: f64,
    /// Latest event end in the trace.
    pub makespan: f64,
    /// Total execution time on the path.
    pub exec_time: f64,
    /// Total wait time on the path (gaps between chained tasks).
    pub wait_time: f64,
}

impl CriticalPath {
    /// Extract the critical path, or `None` for an empty trace.
    pub fn extract(trace: &Trace) -> Option<CriticalPath> {
        let events = trace.events();
        let by_task: HashMap<usize, &TraceEvent> = events.iter().map(|e| (e.task.0, e)).collect();
        let window_start = events.iter().map(|e| e.start).fold(f64::INFINITY, f64::min);
        let last = events
            .iter()
            .max_by(|a, b| a.end.partial_cmp(&b.end).unwrap_or(std::cmp::Ordering::Equal))?;

        let mut chain: Vec<&TraceEvent> = vec![last];
        let mut cur = last;
        loop {
            let preds = resolve_predecessors(trace, &by_task, cur.task);
            let Some(best) = preds
                .into_iter()
                // Guard against metadata for a different (cleared) run: a
                // predecessor always ends at or before its successor's start.
                .filter(|p| p.end <= cur.start + 1e-9)
                .max_by(|a, b| a.end.partial_cmp(&b.end).unwrap_or(std::cmp::Ordering::Equal))
            else {
                break;
            };
            chain.push(best);
            cur = best;
        }
        chain.reverse();

        let mut steps = Vec::with_capacity(chain.len());
        let mut prev_end = window_start;
        for e in chain {
            steps.push(PathStep {
                task: e.task,
                phase: e.phase,
                class: e.class.0,
                node: e.node,
                start: e.start,
                end: e.end,
                wait_before: (e.start - prev_end).max(0.0),
            });
            prev_end = e.end;
        }
        let exec_time: f64 = steps.iter().map(|s| s.exec()).sum();
        let wait_time: f64 = steps.iter().map(|s| s.wait_before).sum();
        Some(CriticalPath { steps, window_start, makespan: last.end, exec_time, wait_time })
    }

    /// Length of the analysis window the path spans: `makespan −
    /// window_start`. Equals `exec_time + wait_time` up to rounding.
    pub fn total(&self) -> f64 {
        self.makespan - self.window_start
    }

    /// Execution time on the path per phase tag, in first-seen order.
    pub fn per_phase(&self) -> Vec<(u32, f64)> {
        accumulate(self.steps.iter().map(|s| (s.phase, s.exec())))
    }

    /// Execution time on the path per node, in first-seen order.
    pub fn per_node(&self) -> Vec<(usize, f64)> {
        accumulate(self.steps.iter().map(|s| (s.node.0, s.exec())))
    }

    /// Which homogeneous node group bounds the run: the index into
    /// `groups` (1-based inclusive node-rank ranges, as returned by
    /// `Platform::homogeneous_groups`) holding the most execution time on
    /// the path. `None` when no step falls into any group.
    pub fn bounding_group(&self, groups: &[(usize, usize)]) -> Option<usize> {
        let mut exec = vec![0.0f64; groups.len()];
        for s in &self.steps {
            let rank = s.node.0 + 1;
            if let Some(gi) = groups.iter().position(|&(a, b)| (a..=b).contains(&rank)) {
                exec[gi] += s.exec();
            }
        }
        exec.iter()
            .enumerate()
            .filter(|&(_, &x)| x > 0.0)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }
}

/// The traced predecessors of `task`, hopping transitively through
/// untraced pseudo-tasks (migrations carry dependence but no event).
fn resolve_predecessors<'t>(
    trace: &Trace,
    by_task: &HashMap<usize, &'t TraceEvent>,
    task: TaskId,
) -> Vec<&'t TraceEvent> {
    let mut out = Vec::new();
    let mut stack: Vec<TaskId> = match trace.meta(task) {
        Some(m) => m.deps.clone(),
        None => return out,
    };
    let mut seen = std::collections::HashSet::new();
    while let Some(dep) = stack.pop() {
        if !seen.insert(dep.0) {
            continue;
        }
        match by_task.get(&dep.0) {
            Some(e) => out.push(*e),
            None => {
                // Pseudo-task: keep walking to its own predecessors.
                if let Some(m) = trace.meta(dep) {
                    stack.extend(m.deps.iter().copied());
                }
            }
        }
    }
    out
}

fn accumulate<K: PartialEq + Copy>(items: impl Iterator<Item = (K, f64)>) -> Vec<(K, f64)> {
    let mut out: Vec<(K, f64)> = Vec::new();
    for (k, v) in items {
        match out.iter_mut().find(|(ek, _)| *ek == k) {
            Some((_, ev)) => *ev += v,
            None => out.push((k, v)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_runtime::{ClassId, ResourceKind, TraceEvent};

    fn ev(task: usize, node: usize, phase: u32, start: f64, end: f64) -> TraceEvent {
        TraceEvent {
            task: TaskId(task),
            class: ClassId(phase as usize),
            phase,
            node: NodeId(node),
            resource: ResourceKind::CpuCore(0),
            start,
            end,
        }
    }

    /// The acceptance-criteria DAG: A → {B, C} → D with C the slower
    /// middle task, so the exact longest chain is A, C, D.
    fn diamond() -> Trace {
        let mut t = Trace::new();
        t.push(ev(0, 0, 0, 0.0, 1.0)); // A
        t.push(ev(1, 0, 1, 1.0, 2.0)); // B (fast branch)
        t.push(ev(2, 1, 1, 1.0, 4.0)); // C (slow branch)
        t.push(ev(3, 0, 2, 4.0, 5.0)); // D joins both
        t.record_deps(TaskId(1), &[TaskId(0)]);
        t.record_deps(TaskId(2), &[TaskId(0)]);
        t.record_deps(TaskId(3), &[TaskId(1), TaskId(2)]);
        t
    }

    #[test]
    fn diamond_dag_yields_the_exact_longest_chain() {
        let t = diamond();
        let cp = CriticalPath::extract(&t).unwrap();
        let ids: Vec<usize> = cp.steps.iter().map(|s| s.task.0).collect();
        assert_eq!(ids, vec![0, 2, 3], "A → C → D is the longest chain");
        assert_eq!(cp.window_start, 0.0);
        assert_eq!(cp.makespan, 5.0);
        assert_eq!(cp.exec_time, 5.0, "the chain is gap-free");
        assert_eq!(cp.wait_time, 0.0);
        assert!((cp.exec_time + cp.wait_time - cp.total()).abs() < 1e-12);
    }

    #[test]
    fn waits_telescope_to_the_full_window() {
        let mut t = diamond();
        // D actually started late (scheduler gap after C ended at 4).
        t.clear();
        t.push(ev(0, 0, 0, 0.5, 1.0));
        t.push(ev(1, 1, 1, 1.25, 4.0));
        t.push(ev(2, 0, 2, 4.5, 6.0));
        t.record_deps(TaskId(1), &[TaskId(0)]);
        t.record_deps(TaskId(2), &[TaskId(1)]);
        let cp = CriticalPath::extract(&t).unwrap();
        assert_eq!(cp.steps.len(), 3);
        assert!((cp.steps[0].wait_before - 0.0).abs() < 1e-12, "first starts the window");
        assert!((cp.steps[1].wait_before - 0.25).abs() < 1e-12);
        assert!((cp.steps[2].wait_before - 0.5).abs() < 1e-12);
        // exec + wait == makespan − window_start exactly.
        assert!((cp.exec_time + cp.wait_time - cp.total()).abs() < 1e-12);
        assert!((cp.total() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn pseudo_tasks_keep_chains_connected() {
        // A → (migration, no event) → B: the walker hops through.
        let mut t = Trace::new();
        t.push(ev(0, 0, 0, 0.0, 1.0));
        t.push(ev(2, 1, 1, 2.0, 3.0));
        t.record_deps(TaskId(1), &[TaskId(0)]); // migration depends on A
        t.record_deps(TaskId(2), &[TaskId(1)]); // B depends on migration
        let cp = CriticalPath::extract(&t).unwrap();
        let ids: Vec<usize> = cp.steps.iter().map(|s| s.task.0).collect();
        assert_eq!(ids, vec![0, 2], "chain crosses the untraced migration");
        assert!((cp.steps[1].wait_before - 1.0).abs() < 1e-12, "migration time shows as wait");
    }

    #[test]
    fn breakdowns_and_bounding_group() {
        let cp = CriticalPath::extract(&diamond()).unwrap();
        assert_eq!(cp.per_phase(), vec![(0, 1.0), (1, 3.0), (2, 1.0)]);
        assert_eq!(cp.per_node(), vec![(0, 2.0), (1, 3.0)]);
        // Node ranks are 1-based in group ranges: node 0 → rank 1.
        let groups = [(1, 1), (2, 2)];
        assert_eq!(cp.bounding_group(&groups), Some(1), "node 1 carries 3 of 5 s");
        assert_eq!(cp.bounding_group(&[]), None);
    }

    #[test]
    fn empty_trace_has_no_path() {
        assert!(CriticalPath::extract(&Trace::new()).is_none());
    }
}
