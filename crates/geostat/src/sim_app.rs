//! The simulated multi-phase application driver.

use crate::dist::TileDist;
use crate::phases::{self, Datum, GeoClasses, GeoData, Phase};
use crate::workload::Workload;
use adaphet_lp::proportional_share_bound;
use adaphet_metrics::{GroupProfile, NoopRecorder, PhaseSlice, Recorder};
use adaphet_runtime::{DataHandle, NodeId, Platform, RunReport, SimConfig, SimRuntime};
use std::sync::Arc;

/// Node-count choice of one iteration: how many (fastest-first) nodes each
/// phase uses. The paper's main search space is `n_fact` with
/// `n_gen = N` ("the application uses all the nodes in the generation step
/// ... as this phase is embarrassingly parallel"); Fig. 8 explores both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationChoice {
    /// Nodes used by the generation phase (1..=N).
    pub n_gen: usize,
    /// Nodes used by the factorization (and subsequent phases) (1..=N).
    pub n_fact: usize,
}

impl IterationChoice {
    /// All nodes for both phases — the application's default behaviour.
    pub fn all(n: usize) -> Self {
        IterationChoice { n_gen: n, n_fact: n }
    }

    /// All nodes for generation, `n_fact` for the factorization.
    pub fn fact_only(n_total: usize, n_fact: usize) -> Self {
        IterationChoice { n_gen: n_total, n_fact }
    }
}

/// The ExaGeoStat-like application bound to a simulated platform.
///
/// Each [`GeoSimApp::run_iteration`] performs the five phases under the
/// given node-count choice, including the data redistributions between the
/// generation and factorization placements (asynchronous, overlapping).
pub struct GeoSimApp {
    rt: SimRuntime,
    classes: GeoClasses,
    workload: Workload,
    data: GeoData<DataHandle>,
    iterations: usize,
    recorder: Arc<dyn Recorder>,
}

/// Per-iteration profile produced by [`GeoSimApp::run_iteration_profiled`].
///
/// `phases` holds *disjoint wall-clock slices* that tile the iteration
/// window (they sum to `makespan_s` when tracing is on).
#[derive(Debug, Clone)]
pub struct IterationMetrics {
    /// Simulated iteration duration in seconds.
    pub makespan_s: f64,
    /// Disjoint wall-clock phase slices in completion order; empty when
    /// trace recording is disabled.
    pub phases: Vec<PhaseSlice>,
    /// Tasks executed per phase `(phase name, count)` this iteration.
    pub phase_tasks: Vec<(&'static str, u64)>,
    /// Useful flops per phase `(phase name, flops)` this iteration.
    pub phase_flops: Vec<(&'static str, f64)>,
    /// Busy and idle seconds per homogeneous node group over the
    /// iteration window, counting every CPU core and GPU as one worker.
    /// Busy time needs the trace; with tracing off it reads 0.
    pub groups: Vec<GroupProfile>,
}

impl GeoSimApp {
    /// Build the application on `platform` (nodes must be sorted fastest
    /// first, as [`Platform::new_sorted`] guarantees).
    pub fn new(platform: Platform, workload: Workload, sim: SimConfig) -> Self {
        assert!(!platform.is_empty(), "platform needs nodes");
        let (table, classes) = GeoClasses::register();
        let mut rt = SimRuntime::new(platform, table, sim);
        // Initial placement: factorization layout over all nodes.
        let dist = Self::fact_dist(rt.platform(), &classes, workload, rt.platform().len());
        let data = phases::register_data(&mut rt, workload, &dist);
        GeoSimApp { rt, classes, workload, data, iterations: 0, recorder: Arc::new(NoopRecorder) }
    }

    /// Install a metrics recorder; a clone is forwarded to the underlying
    /// runtime so simulator counters flush to the same registry.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.rt.set_recorder(recorder.clone());
        self.recorder = recorder;
    }

    /// Number of nodes of the platform.
    pub fn n_nodes(&self) -> usize {
        self.rt.platform().len()
    }

    /// The workload being solved.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Underlying simulated runtime (trace access etc.).
    pub fn runtime(&self) -> &SimRuntime {
        &self.rt
    }

    /// Slow the node at fastest-first `rank` (1-based) down by `factor`
    /// (>= 1) — the straggler hook of the fault-injection harness; see
    /// [`SimRuntime::set_speed_factor`].
    pub fn set_rank_slowdown(&mut self, rank: usize, factor: f64) {
        assert!((1..=self.n_nodes()).contains(&rank), "rank out of range");
        self.rt.set_speed_factor(NodeId(rank - 1), factor);
    }

    /// Restore every node to nominal speed.
    pub fn clear_slowdowns(&mut self) {
        self.rt.clear_speed_factors();
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    fn gen_dist(platform: &Platform, classes: &GeoClasses, w: Workload, n_gen: usize) -> TileDist {
        let nodes: Vec<NodeId> = (0..n_gen).map(NodeId).collect();
        let weights: Vec<f64> =
            (0..n_gen).map(|i| classes.gen_gflops(platform.node(NodeId(i))).max(1e-9)).collect();
        TileDist::auto(w, &nodes, &weights)
    }

    fn fact_dist(
        platform: &Platform,
        classes: &GeoClasses,
        w: Workload,
        n_fact: usize,
    ) -> TileDist {
        let nodes: Vec<NodeId> = (0..n_fact).map(NodeId).collect();
        let weights: Vec<f64> =
            (0..n_fact).map(|i| classes.fact_gflops(platform.node(NodeId(i))).max(1e-9)).collect();
        TileDist::auto(w, &nodes, &weights)
    }

    /// Run one full iteration (all five phases) with the given node
    /// choice; returns the simulated report whose duration is the
    /// iteration time the tuner observes.
    ///
    /// # Panics
    /// Panics if a phase node count is 0 or exceeds the platform size.
    pub fn run_iteration(&mut self, choice: IterationChoice) -> RunReport {
        let n = self.n_nodes();
        assert!(
            (1..=n).contains(&choice.n_gen) && (1..=n).contains(&choice.n_fact),
            "node counts must be within 1..={n}"
        );
        let w = self.workload;
        let gen = Self::gen_dist(self.rt.platform(), &self.classes, w, choice.n_gen);
        let fact = Self::fact_dist(self.rt.platform(), &self.classes, w, choice.n_fact);

        // Generation: tiles are regenerated in place (W mode), so moving
        // their placement is ownership-only (no bytes).
        for i in 0..w.nt {
            for j in 0..=i {
                self.rt.reassign(self.data.get(w, Datum::Tile(i, j)), gen.owner(i, j));
            }
        }
        phases::submit_phase(&mut self.rt, &self.classes, w, &self.data, Phase::Generation);

        // Redistribution to the factorization layout: real transfers,
        // asynchronous and overlapping with the ongoing generation.
        for i in 0..w.nt {
            for j in 0..=i {
                self.rt.migrate(self.data.get(w, Datum::Tile(i, j)), fact.owner(i, j));
            }
        }
        for i in 0..w.nt {
            self.rt.reassign(self.data.get(w, Datum::X(i)), fact.vec_owner(i));
        }
        for phase in &Phase::all()[1..] {
            phases::submit_phase(&mut self.rt, &self.classes, w, &self.data, *phase);
        }

        self.iterations += 1;
        self.rt.run()
    }

    /// Run one iteration and return, alongside the report, an
    /// [`IterationMetrics`] profile: disjoint wall-clock phase slices,
    /// per-phase task/flop counts, and per-node-group utilization. When a
    /// recorder is installed (see [`GeoSimApp::set_recorder`]) the profile
    /// is also emitted as `app.*` metrics.
    ///
    /// Wall slices are derived from the trace: each phase contributes the
    /// wall-clock interval up to the completion of its last task, so the
    /// slices tile the window exactly and sum to the makespan. Tracing
    /// must be enabled for `phases`/group busy time to be populated.
    pub fn run_iteration_profiled(
        &mut self,
        choice: IterationChoice,
    ) -> (RunReport, IterationMetrics) {
        let all = Phase::all();
        let before: Vec<(u64, f64)> = all.iter().map(|&p| self.rt.phase_totals(p as u32)).collect();
        let report = self.run_iteration(choice);
        let mut phase_tasks = Vec::with_capacity(all.len());
        let mut phase_flops = Vec::with_capacity(all.len());
        for (i, p) in all.into_iter().enumerate() {
            let (tasks, flops) = self.rt.phase_totals(p as u32);
            phase_tasks.push((p.name(), tasks - before[i].0));
            phase_flops.push((p.name(), flops - before[i].1));
        }
        let metrics = IterationMetrics {
            makespan_s: report.duration(),
            phases: self.phase_wall_slices(&report),
            phase_tasks,
            phase_flops,
            groups: self.group_utilization(&report),
        };
        if self.recorder.enabled() {
            let r = &*self.recorder;
            r.add("app.iterations", 1.0);
            r.observe("app.iteration.makespan_s", metrics.makespan_s);
            for p in &metrics.phases {
                r.observe(&format!("app.phase.{}.wall_s", p.name), p.seconds);
            }
            for &(name, tasks) in &metrics.phase_tasks {
                r.add(&format!("app.phase.{name}.tasks"), tasks as f64);
            }
            for &(name, flops) in &metrics.phase_flops {
                r.add(&format!("app.phase.{name}.flops"), flops);
            }
        }
        (report, metrics)
    }

    /// Disjoint wall-clock slices per phase within `report`'s window: each
    /// phase extends from where the previous phase's last task completed
    /// to where its own last task completes (completion order). Anchored
    /// at `report.start`, so the slices sum to the makespan exactly.
    fn phase_wall_slices(&self, report: &RunReport) -> Vec<PhaseSlice> {
        let all = Phase::all();
        let mut last_end = vec![f64::NEG_INFINITY; all.len()];
        for e in self.rt.trace().events() {
            if e.end <= report.start || e.start >= report.end {
                continue;
            }
            let p = e.phase as usize;
            if p < all.len() {
                last_end[p] = last_end[p].max(e.end.min(report.end));
            }
        }
        let mut order: Vec<usize> =
            (0..all.len()).filter(|&i| last_end[i] > report.start).collect();
        order.sort_by(|&a, &b| last_end[a].total_cmp(&last_end[b]));
        let mut prev = report.start;
        order
            .into_iter()
            .map(|i| {
                let slice = PhaseSlice::new(all[i].name(), last_end[i] - prev);
                prev = last_end[i];
                slice
            })
            .collect()
    }

    /// Busy/idle seconds per homogeneous node group over `report`'s window.
    /// Each CPU core and GPU counts as one worker; group capacity is
    /// `workers x makespan`. Labels read `"<node name>:<first>-<last>"`
    /// with 1-based inclusive node ranges, matching
    /// [`Platform::homogeneous_groups`].
    fn group_utilization(&self, report: &RunReport) -> Vec<GroupProfile> {
        let platform = self.rt.platform();
        let groups = platform.homogeneous_groups();
        let mut node_group = vec![usize::MAX; platform.len()];
        for (gi, &(a, b)) in groups.iter().enumerate() {
            for slot in &mut node_group[a - 1..b] {
                *slot = gi;
            }
        }
        let mut busy = vec![0.0f64; groups.len()];
        for e in self.rt.trace().events() {
            let overlap = (e.end.min(report.end) - e.start.max(report.start)).max(0.0);
            let gi = node_group[e.node.0];
            if overlap > 0.0 && gi != usize::MAX {
                busy[gi] += overlap;
            }
        }
        let dur = report.duration();
        groups
            .iter()
            .enumerate()
            .map(|(gi, &(a, b))| {
                let workers: usize = (a - 1..b)
                    .map(|n| {
                        let spec = platform.node(NodeId(n));
                        spec.cpu_cores + spec.gpus
                    })
                    .sum();
                let name = format!("{}:{}-{}", platform.node(NodeId(a - 1)).name, a, b);
                let idle_s = (workers as f64 * dur - busy[gi]).max(0.0);
                GroupProfile { name, busy_s: busy[gi], idle_s }
            })
            .collect()
    }
}

/// The LP lower-bound curve `LP(k)` for `k = 1..=N` factorization nodes on
/// `platform`, all `N` nodes generating: the bound an action space carries.
pub fn lp_curve(platform: &Platform, w: Workload) -> Vec<f64> {
    let (_, classes) = GeoClasses::register();
    let n = platform.nodes.len();
    (1..=n).map(|k| lp_bound_for(platform, &classes, w, IterationChoice::fact_only(n, k))).collect()
}

/// The LP lower bound `LP(n_fact)` of one iteration (paper Section II):
/// the max over its two heavy phases of the closed-form proportional-share
/// bound — optimistic, ignoring communications and the critical path.
fn lp_bound_for(
    platform: &Platform,
    classes: &GeoClasses,
    w: Workload,
    choice: IterationChoice,
) -> f64 {
    let gen_times: Vec<f64> = (0..choice.n_gen)
        .map(|i| 1.0 / (classes.gen_gflops(platform.node(NodeId(i))) * 1e9))
        .collect();
    let fact_times: Vec<f64> = (0..choice.n_fact)
        .map(|i| 1.0 / (classes.fact_gflops(platform.node(NodeId(i))) * 1e9))
        .collect();
    let gen = proportional_share_bound(w.generation_flops(), &gen_times);
    let fact = proportional_share_bound(w.cholesky_flops(), &fact_times);
    gen.max(fact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_runtime::{NetworkSpec, NodeSpec};

    fn hybrid_platform(n_gpu: usize, n_cpu: usize) -> Platform {
        let mut nodes = Vec::new();
        for _ in 0..n_gpu {
            nodes.push(NodeSpec {
                name: "L".into(),
                cpu_cores: 8,
                gpus: 2,
                cpu_gflops_per_core: 20.0,
                gpu_gflops: 2000.0,
                nic_gbps: 10.0,
            });
        }
        for _ in 0..n_cpu {
            nodes.push(NodeSpec {
                name: "S".into(),
                cpu_cores: 8,
                gpus: 0,
                cpu_gflops_per_core: 20.0,
                gpu_gflops: 0.0,
                nic_gbps: 10.0,
            });
        }
        Platform::new_sorted(nodes, NetworkSpec { backbone_gbps: 100.0, latency_s: 1e-5 })
    }

    fn small_app(n_gpu: usize, n_cpu: usize, nt: usize) -> GeoSimApp {
        GeoSimApp::new(hybrid_platform(n_gpu, n_cpu), Workload::new(nt, 64), SimConfig::default())
    }

    #[test]
    fn iteration_runs_and_time_advances() {
        let mut app = small_app(1, 2, 6);
        let n = app.n_nodes();
        let r1 = app.run_iteration(IterationChoice::all(n));
        assert!(r1.duration() > 0.0);
        let r2 = app.run_iteration(IterationChoice::all(n));
        assert!(r2.start >= r1.end - 1e-9, "iterations are sequential");
        assert_eq!(app.iterations(), 2);
    }

    #[test]
    fn restricting_fact_nodes_changes_duration() {
        let mut app = small_app(2, 4, 8);
        let n = app.n_nodes();
        let all = app.run_iteration(IterationChoice::all(n)).duration();
        let few = app.run_iteration(IterationChoice::fact_only(n, 2)).duration();
        assert!(all > 0.0 && few > 0.0);
        assert!((all - few).abs() > 1e-12, "choice must matter");
    }

    #[test]
    fn lp_bound_decreases_with_fact_nodes() {
        let app = small_app(2, 4, 8);
        let curve = lp_curve(app.rt.platform(), app.workload);
        assert!(curve.iter().all(|&b| b > 0.0));
        assert!(curve.windows(2).all(|p| p[1] <= p[0] + 1e-12), "bound must be non-increasing");
    }

    #[test]
    fn lp_bound_is_the_max_of_the_two_phase_bounds() {
        // 2 GPU + 4 CPU nodes at nt = 8: the Cholesky bound dominates on
        // one node, the CPU-only generation bound once all six factorize.
        let app = small_app(2, 4, 8);
        let (platform, w) = (app.rt.platform(), app.workload);
        let times = |k: usize, gflops: fn(&GeoClasses, &NodeSpec) -> f64| -> Vec<f64> {
            (0..k).map(|i| 1.0 / (gflops(&app.classes, platform.node(NodeId(i))) * 1e9)).collect()
        };
        let curve = lp_curve(platform, w);
        let gen_times = times(curve.len(), GeoClasses::gen_gflops);
        let gen = proportional_share_bound(w.generation_flops(), &gen_times);
        let (mut gen_wins, mut fact_wins) = (false, false);
        for (k, b) in (1..).zip(curve) {
            let fact =
                proportional_share_bound(w.cholesky_flops(), &times(k, GeoClasses::fact_gflops));
            assert_eq!(b.to_bits(), gen.max(fact).to_bits(), "k = {k}");
            gen_wins |= gen > fact;
            fact_wins |= fact > gen;
        }
        assert!(gen_wins && fact_wins, "both phases must dominate somewhere");
    }

    #[test]
    #[should_panic(expected = "node counts")]
    fn zero_fact_nodes_rejected() {
        let mut app = small_app(1, 1, 4);
        app.run_iteration(IterationChoice { n_gen: 2, n_fact: 0 });
    }

    #[test]
    fn profiled_wall_slices_tile_the_iteration_window() {
        let mut app = small_app(1, 2, 6);
        let n = app.n_nodes();
        for choice in [IterationChoice::all(n), IterationChoice::fact_only(n, 2)] {
            let (report, m) = app.run_iteration_profiled(choice);
            assert!((m.makespan_s - report.duration()).abs() < 1e-12);
            assert!(!m.phases.is_empty(), "tracing is on by default");
            let sum: f64 = m.phases.iter().map(|p| p.seconds).sum();
            assert!(
                (sum - m.makespan_s).abs() <= 0.05 * m.makespan_s,
                "slices must tile the window: {sum} vs {}",
                m.makespan_s
            );
            for p in &m.phases {
                assert!(p.seconds >= 0.0, "{} slice negative: {}", p.name, p.seconds);
            }
            // Every phase executed its tasks and burned flops.
            assert_eq!(m.phase_tasks.len(), 5);
            for &(name, tasks) in &m.phase_tasks {
                assert!(tasks > 0, "{name} ran no tasks");
            }
            for &(name, flops) in &m.phase_flops {
                assert!(flops > 0.0, "{name} burned no flops");
            }
        }
    }

    #[test]
    fn group_utilization_respects_capacity_and_recorder_sees_profile() {
        use adaphet_metrics::Registry;
        let mut app = small_app(1, 2, 6);
        let reg = Registry::new();
        app.set_recorder(Arc::new(reg.clone()));
        let n = app.n_nodes();
        let (_, m) = app.run_iteration_profiled(IterationChoice::all(n));
        // One GPU group ("L" nodes 1-1) and one CPU group ("S" nodes 2-3).
        assert_eq!(m.groups.len(), 2, "{:?}", m.groups);
        assert_eq!(m.groups[0].name, "L:1-1");
        assert_eq!(m.groups[1].name, "S:2-3");
        for g in &m.groups {
            assert!(g.busy_s > 0.0, "{} never busy", g.name);
            assert!(g.idle_s >= 0.0, "{} busy exceeds capacity", g.name);
        }
        // Profile metrics land in the registry, and the forwarded
        // recorder makes the simulator flush its own counters too.
        assert_eq!(reg.counter_value("app.iterations"), 1.0);
        assert!(reg.counter_value("app.phase.generation.tasks") > 0.0);
        assert!(reg.histogram("app.iteration.makespan_s").is_some());
        assert!(reg.counter_value("sim.tasks_executed") > 0.0);
    }

    #[test]
    fn deterministic_iterations() {
        let run = || {
            let mut app = small_app(1, 3, 6);
            let n = app.n_nodes();
            let a = app.run_iteration(IterationChoice::fact_only(n, 2)).duration();
            let b = app.run_iteration(IterationChoice::fact_only(n, 4)).duration();
            (a, b)
        };
        assert_eq!(run(), run());
    }
}
