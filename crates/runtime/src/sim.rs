//! The simulated task-based runtime: a discrete-event engine combining the
//! STF dependence tracker, per-node heterogeneous schedulers, and the
//! flow-level network model.
//!
//! The execution model follows StarPU's distributed STF mode:
//!
//! * a task executes on the node owning the data it writes (at submission
//!   time);
//! * input data not present on that node is fetched asynchronously over
//!   the network (MSI-style replica tracking: a write invalidates all
//!   remote copies);
//! * data can be migrated between nodes with [`SimRuntime::migrate`], which
//!   changes the placement of subsequently submitted tasks and moves the
//!   bytes asynchronously, overlapping with computation;
//! * per node, ready tasks are dispatched to CPU cores and GPUs by a
//!   performance-model-aware scheduler (highest priority first, resource
//!   chosen by earliest estimated finish time, like StarPU's `dmda`).
//!
//! # Hot-path storage
//!
//! The engine sits on the measurement path of every tuning step (the
//! evaluation harness constructs a fresh runtime per sample), so all
//! per-task and per-handle state is kept in dense, index-addressed
//! storage rather than hash maps:
//!
//! * task read/write handle lists live in one shared arena (`handles`),
//!   referenced by `(start, len)` ranges;
//! * dependent edges form an intrusive linked list (`dep_edges`) headed at
//!   the predecessor task;
//! * in-flight fetches are a slab (`fetch_slab`) chained per handle;
//! * replica locations are per-handle bitsets over nodes;
//! * flow metadata and per-phase totals are plain vectors indexed by flow
//!   id and phase tag.
//!
//! On drop, every backing allocation is recycled through a small
//! thread-local pool ([`SimBuffers`]), so repeated construct/run/drop
//! cycles stop churning the allocator entirely.

use crate::data::{DataHandle, DataRegistry};
use crate::flownet::{FlowId, FlowNet, LinkId, RebalanceWork};
use crate::platform::{NodeId, Platform};
use crate::stf::DepTracker;
use crate::task::{Access, ClassId, ClassTable, TaskDesc, TaskId};
use crate::trace::{ResourceKind, Trace, TraceEvent};
use adaphet_metrics::{NoopRecorder, Recorder};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, Normal};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Sentinel for "no entry" in the intrusive index-linked lists.
const NONE: u32 = u32::MAX;

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// RNG seed (only used when `task_jitter` is set).
    pub seed: u64,
    /// Relative standard deviation of a lognormal multiplicative jitter on
    /// task durations; `None` gives the deterministic simulation the
    /// paper's methodology assumes (noise is added at the observation
    /// level instead, Section V).
    pub task_jitter: Option<f64>,
    /// Record the execution trace (events, dependence edges, lifecycle
    /// timestamps). On by default; sweep harnesses that never read the
    /// trace build their runtime with it off so tracing costs nothing.
    /// Chosen once, at construction.
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { seed: 0, task_jitter: None, trace: true }
    }
}

/// Result of one [`SimRuntime::run`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Simulation time when the run started.
    pub start: f64,
    /// Simulation time when the last submitted task finished.
    pub end: f64,
}

impl RunReport {
    /// Wall-clock duration of the run.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskStatus {
    /// Waiting for dependencies.
    Blocked,
    /// Dependencies met; waiting for input transfers.
    Staging,
    /// Inputs local; in the node's ready queue.
    Runnable,
    /// Executing.
    Running,
    /// Finished.
    Done,
}

/// Dense per-task state. Handle lists are `(start, len)` ranges into the
/// runtime's shared `handles` arena; dependents are an intrusive linked
/// list through `dep_edges`.
#[derive(Debug, Clone)]
struct TaskState {
    class: ClassId,
    flops: f64,
    priority: i32,
    phase: u32,
    node: NodeId,
    reads_start: u32,
    reads_len: u32,
    writes_start: u32,
    writes_len: u32,
    unmet_deps: u32,
    missing_inputs: u32,
    /// Head of this task's dependents list in `dep_edges` (`NONE` = empty).
    dep_head: u32,
    status: TaskStatus,
    /// Unit occupied while `Running` (meaningless otherwise).
    resource: ResourceKind,
    /// Start time of the current execution (valid while `Running`).
    run_start: f64,
}

/// One in-flight fetch of a handle towards a destination node, chained
/// per handle through `next`.
#[derive(Debug, Clone)]
struct FetchEntry {
    dst: u32,
    next: u32,
    /// Tasks waiting on this transfer, in staging order.
    waiters: Vec<TaskId>,
}

impl Default for FetchEntry {
    fn default() -> Self {
        FetchEntry { dst: 0, next: NONE, waiters: Vec::new() }
    }
}

type ReadyEntry = (i32, Reverse<usize>, TaskId);

/// Scheduler state of one node.
///
/// Ready tasks are *committed* to a resource kind when they become
/// runnable, using expected-availability estimates (StarPU `dmda`-style):
/// the chosen kind is the one with the earliest estimated finish time,
/// accounting for work already committed but not yet executed. This is
/// what lets GPU-capable overflow work spill onto otherwise-idle CPU cores.
#[derive(Debug, Clone, Default)]
struct NodeSched {
    free_cpus: Vec<usize>,
    free_gpus: Vec<usize>,
    /// Virtual commit horizon per CPU core (expected time it drains its
    /// committed work).
    cpu_commit: Vec<f64>,
    /// Virtual commit horizon per GPU.
    gpu_commit: Vec<f64>,
    /// Tasks committed to CPU cores: max-heap on (priority, Reverse(seq)).
    q_cpu: BinaryHeap<ReadyEntry>,
    /// Tasks committed to GPUs.
    q_gpu: BinaryHeap<ReadyEntry>,
}

impl NodeSched {
    /// (Re)initialize for a node with the given unit counts, clearing any
    /// recycled state while keeping allocations.
    fn configure(&mut self, cores: usize, gpus: usize) {
        self.free_cpus.clear();
        self.free_cpus.extend((0..cores).rev());
        self.free_gpus.clear();
        self.free_gpus.extend((0..gpus).rev());
        self.cpu_commit.clear();
        self.cpu_commit.resize(cores, 0.0);
        self.gpu_commit.clear();
        self.gpu_commit.resize(gpus, 0.0);
        self.q_cpu.clear();
        self.q_gpu.clear();
    }
}

/// Totally ordered f64 wrapper for the event heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    TaskDone(TaskId),
    /// Latency elapsed; insert the actual flow.
    FlowStart {
        handle: DataHandle,
        dst: NodeId,
    },
}

// EventKind participates in a heap tuple needing Ord; ordering is fully
// determined by the preceding (time, seq) fields, so the cell compares
// equal to everything.
#[derive(Debug, Clone, Copy)]
struct EventKindCell(EventKind);
impl PartialEq for EventKindCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for EventKindCell {}
impl PartialOrd for EventKindCell {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKindCell {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

type EventHeap = BinaryHeap<Reverse<(OrdF64, usize, EventKindCell)>>;

/// The simulated runtime.
pub struct SimRuntime {
    /// Pooled backing storage: every growable buffer of the runtime.
    b: SimBuffers,
    platform: Platform,
    classes: ClassTable,
    event_seq: usize,
    backbone: LinkId,
    /// u64 words per handle in `replica_bits`.
    replica_words: usize,
    now: f64,
    trace_enabled: bool,
    rng: StdRng,
    jitter: Option<Normal<f64>>,
    migrate_class: ClassId,
    remaining: usize,
    bytes_transferred: f64,
    /// Completed tasks (including migrate pseudo-tasks).
    tasks_executed: u64,
    recorder: Arc<dyn Recorder>,
}

/// Totals already flushed to the recorder, so each [`SimRuntime::run`] can
/// emit exact deltas even though the underlying stats are cumulative.
#[derive(Debug, Clone, Default)]
struct MetricsCursor {
    tasks: u64,
    bytes: f64,
    cpu_busy: Vec<f64>,
    gpu_busy: Vec<f64>,
    link_busy: Vec<f64>,
    net: RebalanceWork,
}

/// Recyclable backing storage of a [`SimRuntime`].
///
/// Construction is on the measurement path of every tuning step, so a
/// dropped runtime resets its allocations and parks them in a small
/// thread-local pool for the next [`SimRuntime::new`] on the same thread.
/// Recycling is purely an allocation-reuse mechanism: a pooled runtime is
/// bit-for-bit identical in behavior to a cold one (pinned by a proptest).
#[derive(Default)]
struct SimBuffers {
    net: FlowNet,
    data: DataRegistry,
    deps: DepTracker,
    tasks: Vec<TaskState>,
    /// Shared arena backing every task's read/write handle lists.
    handles: Vec<DataHandle>,
    /// Intrusive dependents lists: `(dependent task, next edge)`.
    dep_edges: Vec<(u32, u32)>,
    /// Scratch for walking a finished task's dependents.
    dep_scratch: Vec<TaskId>,
    /// Scratch for the dependence list of the task being submitted.
    deps_tmp: Vec<TaskId>,
    scheds: Vec<NodeSched>,
    events: EventHeap,
    node_up: Vec<LinkId>,
    node_down: Vec<LinkId>,
    /// Valid replica locations per handle, one bit per node.
    replica_bits: Vec<u64>,
    /// The replica a fetch copies from: the owner at registration, updated
    /// to the writing node on every invalidation.
    replica_first: Vec<u32>,
    /// Per-handle head of the in-flight fetch list (`NONE` = no fetch).
    fetch_head: Vec<u32>,
    fetch_slab: Vec<FetchEntry>,
    fetch_free: Vec<u32>,
    /// `(handle, dst)` per started flow, indexed by [`FlowId`].
    flow_meta: Vec<(u32, u32)>,
    /// Reusable buffer for network completions per engine step.
    completed_flows: Vec<FlowId>,
    /// Scratch: nodes touched by one completion event, dispatched (sorted,
    /// deduplicated) before the event handler returns.
    pending_dispatch: Vec<u32>,
    /// Per-phase `(tasks completed, flops)` totals, excluding pseudo-tasks.
    /// Indexed by phase tag — tags are expected to be small dense integers.
    phase_stats: Vec<(u64, f64)>,
    /// Accumulated per-node CPU-core busy seconds (summed over cores).
    cpu_busy: Vec<f64>,
    /// Accumulated per-node GPU busy seconds (summed over GPUs).
    gpu_busy: Vec<f64>,
    /// Per-node multiplicative compute slowdown (1.0 = nominal speed).
    /// Fault-injection harnesses set this to model transient stragglers;
    /// it scales both CPU and GPU task durations of the node.
    speed_factor: Vec<f64>,
    cursor: MetricsCursor,
    trace: Trace,
}

const SIM_POOL_CAP: usize = 2;

thread_local! {
    static SIM_POOL: std::cell::RefCell<Vec<SimBuffers>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl SimBuffers {
    fn acquire() -> SimBuffers {
        SIM_POOL.try_with(|p| p.borrow_mut().pop()).ok().flatten().unwrap_or_default()
    }

    fn release(mut self) {
        self.reset();
        let _ = SIM_POOL.try_with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < SIM_POOL_CAP {
                pool.push(self);
            }
        });
    }

    /// Clear all logical content, keeping every allocation. `scheds` are
    /// left as-is: `SimRuntime::new` reconfigures them per platform.
    fn reset(&mut self) {
        self.net.recycle();
        self.data.recycle();
        self.deps.clear();
        self.tasks.clear();
        self.handles.clear();
        self.dep_edges.clear();
        self.dep_scratch.clear();
        self.deps_tmp.clear();
        self.events.clear();
        self.node_up.clear();
        self.node_down.clear();
        self.replica_bits.clear();
        self.replica_first.clear();
        self.fetch_head.clear();
        self.fetch_free.clear();
        for (i, e) in self.fetch_slab.iter_mut().enumerate() {
            e.waiters.clear();
            e.next = NONE;
            self.fetch_free.push(i as u32);
        }
        self.flow_meta.clear();
        self.completed_flows.clear();
        self.pending_dispatch.clear();
        self.phase_stats.clear();
        self.cpu_busy.clear();
        self.gpu_busy.clear();
        self.speed_factor.clear();
        self.cursor.tasks = 0;
        self.cursor.bytes = 0.0;
        self.cursor.cpu_busy.clear();
        self.cursor.gpu_busy.clear();
        self.cursor.link_busy.clear();
        self.cursor.net = RebalanceWork::default();
        self.trace.clear();
    }
}

impl Drop for SimRuntime {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            std::mem::take(&mut self.b).release();
        }
    }
}

impl SimRuntime {
    /// Build a runtime over `platform` with registered task `classes`.
    pub fn new(platform: Platform, mut classes: ClassTable, config: SimConfig) -> Self {
        let mut b = SimBuffers::acquire();
        let backbone = b.net.add_link(platform.network.backbone_bytes_per_s());
        b.scheds.truncate(platform.len());
        b.scheds.resize_with(platform.len(), NodeSched::default);
        for (n, sched) in platform.nodes.iter().zip(b.scheds.iter_mut()) {
            let bps = n.nic_gbps * 1e9 / 8.0;
            let up = b.net.add_link(bps);
            let down = b.net.add_link(bps);
            b.node_up.push(up);
            b.node_down.push(down);
            sched.configure(n.cpu_cores, n.gpus);
        }
        let migrate_class = classes.register(crate::task::ClassSpec {
            name: "migrate".into(),
            gpu_capable: false,
            cpu_efficiency: 1.0,
            gpu_efficiency: 1.0,
        });
        let jitter = config.task_jitter.map(|s| Normal::new(0.0, s).expect("valid jitter sigma"));
        let n_nodes = platform.len();
        let n_links = b.net.n_links();
        b.cpu_busy.resize(n_nodes, 0.0);
        b.gpu_busy.resize(n_nodes, 0.0);
        b.speed_factor.resize(n_nodes, 1.0);
        b.cursor.cpu_busy.resize(n_nodes, 0.0);
        b.cursor.gpu_busy.resize(n_nodes, 0.0);
        b.cursor.link_busy.resize(n_links, 0.0);
        SimRuntime {
            b,
            platform,
            classes,
            event_seq: 0,
            backbone,
            replica_words: n_nodes.div_ceil(64).max(1),
            now: 0.0,
            trace_enabled: config.trace,
            rng: StdRng::seed_from_u64(config.seed),
            jitter,
            migrate_class,
            remaining: 0,
            bytes_transferred: 0.0,
            tasks_executed: 0,
            recorder: Arc::new(NoopRecorder),
        }
    }

    /// The platform being simulated.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Execution trace accumulated so far.
    pub fn trace(&self) -> &Trace {
        &self.b.trace
    }

    /// Total bytes moved over the network so far.
    pub fn bytes_transferred(&self) -> f64 {
        self.bytes_transferred
    }

    /// Total tasks completed so far (including migrate pseudo-tasks).
    pub fn tasks_executed(&self) -> u64 {
        self.tasks_executed
    }

    /// Accumulated `(tasks, flops)` of one phase tag (pseudo-tasks with
    /// phase `u32::MAX` are never counted).
    pub fn phase_totals(&self, phase: u32) -> (u64, f64) {
        self.b.phase_stats.get(phase as usize).copied().unwrap_or((0, 0.0))
    }

    /// Accumulated busy seconds of the shared backbone link.
    pub fn backbone_busy(&self) -> f64 {
        self.b.net.link_busy(self.backbone)
    }

    /// Route metrics to `recorder`: each [`SimRuntime::run`] then flushes
    /// its task/byte/busy-time deltas as `sim.*` counters and histograms.
    /// The default is the no-op recorder.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = recorder;
    }

    /// Slow one node's compute throughput down by `factor` (>= 1; 1.0
    /// restores nominal speed). Affects tasks whose duration is computed
    /// after the call — the hook fault harnesses use for transient
    /// straggler windows.
    ///
    /// # Panics
    /// Panics if `node` is out of range or `factor` is not >= 1.
    pub fn set_speed_factor(&mut self, node: NodeId, factor: f64) {
        assert!(node.0 < self.platform.len(), "node out of range");
        assert!(factor.is_finite() && factor >= 1.0, "slowdown factor must be >= 1");
        self.b.speed_factor[node.0] = factor;
    }

    /// Restore every node to nominal speed.
    pub fn clear_speed_factors(&mut self) {
        self.b.speed_factor.fill(1.0);
    }

    /// Register a data block of `bytes` owned by `owner`. The block starts
    /// with a valid copy only at its owner.
    pub fn register_data(&mut self, bytes: usize, owner: NodeId) -> DataHandle {
        assert!(owner.0 < self.platform.len(), "owner out of range");
        let h = self.b.data.register(bytes, owner);
        self.b.replica_first.push(owner.0 as u32);
        let base = self.b.replica_bits.len();
        self.b.replica_bits.resize(base + self.replica_words, 0);
        self.b.replica_bits[base + owner.0 / 64] |= 1u64 << (owner.0 % 64);
        self.b.fetch_head.push(NONE);
        h
    }

    /// Current submission-time owner of a handle.
    pub fn owner(&self, h: DataHandle) -> NodeId {
        self.b.data.owner(h)
    }

    /// Change a block's submission-time owner *without* moving bytes.
    ///
    /// Only meaningful when the next task touching the block writes it
    /// without reading (mode `W`), e.g. the per-iteration regeneration of
    /// the covariance tiles: the old contents are dead, so re-registering
    /// the block on another node is free (StarPU's unregister/register
    /// idiom).
    pub fn reassign(&mut self, h: DataHandle, dst: NodeId) {
        assert!(dst.0 < self.platform.len(), "node out of range");
        self.b.data.set_owner(h, dst);
    }

    /// Move a block to `dst`: subsequent tasks writing it run on `dst`, and
    /// the bytes travel asynchronously (a zero-flop pseudo-task carries the
    /// dependence structure of the move), overlapping with computation.
    pub fn migrate(&mut self, h: DataHandle, dst: NodeId) {
        if self.b.data.owner(h) == dst {
            return;
        }
        self.b.data.set_owner(h, dst);
        self.submit_accesses(
            self.migrate_class,
            0.0,
            i32::MAX,
            u32::MAX,
            &[(h, Access::ReadWrite)],
            Some(dst),
        );
    }

    /// Submit a task; it will run on the node owning its first written
    /// handle (submission-time ownership), or on node 0 if it writes
    /// nothing.
    pub fn submit(&mut self, desc: TaskDesc) -> TaskId {
        self.submit_accesses(
            desc.class,
            desc.flops,
            desc.priority,
            desc.phase,
            &desc.accesses,
            None,
        )
    }

    fn submit_accesses(
        &mut self,
        class: ClassId,
        flops: f64,
        priority: i32,
        phase: u32,
        accesses: &[(DataHandle, Access)],
        force_node: Option<NodeId>,
    ) -> TaskId {
        let id = TaskId(self.b.tasks.len());
        let node = force_node.unwrap_or_else(|| {
            accesses
                .iter()
                .find(|&&(_, m)| m.writes())
                .map(|&(h, _)| self.b.data.owner(h))
                .unwrap_or(NodeId(0))
        });
        assert!(node.0 < self.platform.len(), "task node out of range");
        let mut deps_tmp = std::mem::take(&mut self.b.deps_tmp);
        self.b.deps.record_into(id, accesses, &mut deps_tmp);
        if self.trace_enabled {
            // Pseudo-tasks (data migrations) are recorded too: they carry
            // no TraceEvent, but dependence chains must stay connected
            // through them for critical-path extraction.
            self.b.trace.record_deps(id, &deps_tmp);
        }
        let mut unmet = 0u32;
        for &d in &deps_tmp {
            if self.b.tasks[d.0].status != TaskStatus::Done {
                self.b.dep_edges.push((id.0 as u32, self.b.tasks[d.0].dep_head));
                self.b.tasks[d.0].dep_head = (self.b.dep_edges.len() - 1) as u32;
                unmet += 1;
            }
        }
        deps_tmp.clear();
        self.b.deps_tmp = deps_tmp;
        let reads_start = self.b.handles.len() as u32;
        self.b.handles.extend(accesses.iter().filter(|a| a.1.reads()).map(|a| a.0));
        let reads_len = self.b.handles.len() as u32 - reads_start;
        let writes_start = self.b.handles.len() as u32;
        self.b.handles.extend(accesses.iter().filter(|a| a.1.writes()).map(|a| a.0));
        let writes_len = self.b.handles.len() as u32 - writes_start;
        self.b.tasks.push(TaskState {
            class,
            flops,
            priority,
            phase,
            node,
            reads_start,
            reads_len,
            writes_start,
            writes_len,
            unmet_deps: unmet,
            missing_inputs: 0,
            dep_head: NONE,
            status: TaskStatus::Blocked,
            resource: ResourceKind::CpuCore(0),
            run_start: 0.0,
        });
        self.remaining += 1;
        if unmet == 0 {
            self.stage(id);
            self.dispatch(node);
        }
        id
    }

    /// Run the engine until every submitted task has completed; returns the
    /// time window of this run.
    ///
    /// # Panics
    /// Panics if no progress is possible, which would indicate an internal
    /// dependence cycle (impossible by STF construction) or a scheduling
    /// bug.
    pub fn run(&mut self) -> RunReport {
        let start = self.now;
        while self.remaining > 0 {
            let t_heap = self.b.events.peek().map(|Reverse((t, _, _))| t.0);
            self.b.net.settle();
            let t_net = self.b.net.next_completion();
            let next = match (t_heap, t_net) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => panic!(
                    "simulation stalled with {} tasks remaining (dependence cycle?)",
                    self.remaining
                ),
            };
            debug_assert!(next >= self.now - 1e-9, "time went backwards");
            self.now = self.now.max(next);
            // Network completions at or before `now` happen first.
            let mut completed = std::mem::take(&mut self.b.completed_flows);
            self.b.net.advance_to_into(self.now, &mut completed);
            for &f in &completed {
                self.on_flow_done(f);
            }
            completed.clear();
            self.b.completed_flows = completed;
            // Then heap events scheduled at (or numerically before) `now`.
            while let Some(Reverse((t, _, _))) = self.b.events.peek() {
                if t.0 > self.now + 1e-15 {
                    break;
                }
                let Reverse((_, _, EventKindCell(kind))) = self.b.events.pop().unwrap();
                match kind {
                    EventKind::TaskDone(id) => self.on_task_done(id),
                    EventKind::FlowStart { handle, dst } => self.on_flow_start(handle, dst),
                }
            }
        }
        let report = RunReport { start, end: self.now };
        if self.recorder.enabled() {
            self.flush_metrics(&report);
        }
        report
    }

    /// Emit everything this run added on top of the last flush. Names are
    /// stable: `sim.runs`, `sim.tasks_executed`, `sim.bytes_transferred`,
    /// the `sim.run.makespan_s` histogram (simulated seconds), per-node
    /// `sim.nodeNNN.{cpu,gpu}_{busy,idle}_s`, network busy time on the
    /// backbone and any NIC that moved data, and the flow network's work:
    /// `sim.net.rebalances`, `sim.net.flows_fixed` and `sim.net.flows_kept`.
    fn flush_metrics(&mut self, report: &RunReport) {
        let r = &*self.recorder;
        let dur = report.duration();
        r.add("sim.runs", 1.0);
        r.observe("sim.run.makespan_s", dur);
        r.add("sim.tasks_executed", (self.tasks_executed - self.b.cursor.tasks) as f64);
        self.b.cursor.tasks = self.tasks_executed;
        r.add("sim.bytes_transferred", self.bytes_transferred - self.b.cursor.bytes);
        self.b.cursor.bytes = self.bytes_transferred;
        for i in 0..self.platform.len() {
            let spec = self.platform.node(NodeId(i));
            let d_cpu = self.b.cpu_busy[i] - self.b.cursor.cpu_busy[i];
            let d_gpu = self.b.gpu_busy[i] - self.b.cursor.gpu_busy[i];
            self.b.cursor.cpu_busy[i] = self.b.cpu_busy[i];
            self.b.cursor.gpu_busy[i] = self.b.gpu_busy[i];
            r.add(&format!("sim.node{i:03}.cpu_busy_s"), d_cpu);
            r.add(
                &format!("sim.node{i:03}.cpu_idle_s"),
                (spec.cpu_cores as f64 * dur - d_cpu).max(0.0),
            );
            if spec.gpus > 0 {
                r.add(&format!("sim.node{i:03}.gpu_busy_s"), d_gpu);
                r.add(
                    &format!("sim.node{i:03}.gpu_idle_s"),
                    (spec.gpus as f64 * dur - d_gpu).max(0.0),
                );
            }
        }
        let work = self.b.net.work();
        let done = std::mem::replace(&mut self.b.cursor.net, work);
        r.add("sim.net.rebalances", (work.rebalances - done.rebalances) as f64);
        r.add("sim.net.flows_fixed", (work.flows_fixed - done.flows_fixed) as f64);
        r.add("sim.net.flows_kept", (work.flows_kept - done.flows_kept) as f64);
        for l in 0..self.b.net.n_links() {
            let busy = self.b.net.link_busy(LinkId(l));
            let delta = busy - self.b.cursor.link_busy[l];
            self.b.cursor.link_busy[l] = busy;
            if delta <= 0.0 {
                continue;
            }
            if l == self.backbone.0 {
                r.add("sim.net.backbone_busy_s", delta);
            } else if let Some(i) = self.b.node_up.iter().position(|&u| u.0 == l) {
                r.add(&format!("sim.net.node{i:03}.up_busy_s"), delta);
            } else if let Some(i) = self.b.node_down.iter().position(|&d| d.0 == l) {
                r.add(&format!("sim.net.node{i:03}.down_busy_s"), delta);
            }
        }
    }

    fn push_event(&mut self, t: f64, kind: EventKind) {
        self.event_seq += 1;
        self.b.events.push(Reverse((OrdF64(t), self.event_seq, EventKindCell(kind))));
    }

    #[inline]
    fn replica_contains(&self, h: DataHandle, n: NodeId) -> bool {
        self.b.replica_bits[h.0 * self.replica_words + n.0 / 64] & (1u64 << (n.0 % 64)) != 0
    }

    #[inline]
    fn replica_add(&mut self, h: DataHandle, n: NodeId) {
        self.b.replica_bits[h.0 * self.replica_words + n.0 / 64] |= 1u64 << (n.0 % 64);
    }

    /// Invalidate every replica of `h` and make `n` the only valid copy.
    fn replica_reset_to(&mut self, h: DataHandle, n: NodeId) {
        let base = h.0 * self.replica_words;
        self.b.replica_bits[base..base + self.replica_words].fill(0);
        self.b.replica_bits[base + n.0 / 64] |= 1u64 << (n.0 % 64);
        self.b.replica_first[h.0] = n.0 as u32;
    }

    /// The in-flight fetch of `h` towards `dst`, if any.
    fn find_fetch(&self, h: DataHandle, dst: NodeId) -> Option<u32> {
        let mut e = self.b.fetch_head[h.0];
        while e != NONE {
            let entry = &self.b.fetch_slab[e as usize];
            if entry.dst == dst.0 as u32 {
                return Some(e);
            }
            e = entry.next;
        }
        None
    }

    /// Start tracking a fetch of `h` towards `dst` with one waiter.
    fn insert_fetch(&mut self, h: DataHandle, dst: NodeId, waiter: TaskId) {
        let idx = match self.b.fetch_free.pop() {
            Some(i) => i,
            None => {
                self.b.fetch_slab.push(FetchEntry::default());
                (self.b.fetch_slab.len() - 1) as u32
            }
        };
        let head = self.b.fetch_head[h.0];
        let e = &mut self.b.fetch_slab[idx as usize];
        debug_assert!(e.waiters.is_empty());
        e.dst = dst.0 as u32;
        e.next = head;
        e.waiters.push(waiter);
        self.b.fetch_head[h.0] = idx;
    }

    /// Unlink and return the fetch of `h` towards `dst`, if present.
    fn take_fetch(&mut self, h: DataHandle, dst: NodeId) -> Option<u32> {
        let mut prev = NONE;
        let mut e = self.b.fetch_head[h.0];
        while e != NONE {
            let next = self.b.fetch_slab[e as usize].next;
            if self.b.fetch_slab[e as usize].dst == dst.0 as u32 {
                if prev == NONE {
                    self.b.fetch_head[h.0] = next;
                } else {
                    self.b.fetch_slab[prev as usize].next = next;
                }
                return Some(e);
            }
            prev = e;
            e = next;
        }
        None
    }

    /// Dependencies met: request input transfers, then queue.
    fn stage(&mut self, id: TaskId) {
        debug_assert_eq!(self.b.tasks[id.0].status, TaskStatus::Blocked);
        self.b.tasks[id.0].status = TaskStatus::Staging;
        if self.trace_enabled && self.b.tasks[id.0].phase != u32::MAX {
            self.b.trace.record_ready(id, self.now);
        }
        let node = self.b.tasks[id.0].node;
        let (start, len) = (self.b.tasks[id.0].reads_start, self.b.tasks[id.0].reads_len);
        let mut missing = 0;
        for k in start..start + len {
            let h = self.b.handles[k as usize];
            if self.replica_contains(h, node) {
                continue;
            }
            missing += 1;
            if let Some(e) = self.find_fetch(h, node) {
                self.b.fetch_slab[e as usize].waiters.push(id);
            } else {
                self.insert_fetch(h, node, id);
                let latency = self.platform.network.latency_s;
                self.push_event(self.now + latency, EventKind::FlowStart { handle: h, dst: node });
            }
        }
        self.b.tasks[id.0].missing_inputs = missing;
        if missing == 0 {
            self.make_runnable(id);
        }
    }

    fn make_runnable(&mut self, id: TaskId) {
        if self.trace_enabled && self.b.tasks[id.0].phase != u32::MAX {
            self.b.trace.record_runnable(id, self.now);
        }
        let t = &mut self.b.tasks[id.0];
        debug_assert_eq!(t.status, TaskStatus::Staging);
        t.status = TaskStatus::Runnable;
        let node = t.node;
        let entry = (t.priority, Reverse(id.0), id);
        let (cpu_dur, gpu_dur) = self.durations(id);
        let now = self.now;
        let sched = &mut self.b.scheds[node.0];
        // Commit to the resource kind with the earliest expected finish.
        let best_cpu =
            sched.cpu_commit.iter().copied().enumerate().min_by(|a, b| a.1.total_cmp(&b.1));
        let best_gpu =
            sched.gpu_commit.iter().copied().enumerate().min_by(|a, b| a.1.total_cmp(&b.1));
        let cpu_eft = best_cpu.map(|(_, c)| c.max(now) + cpu_dur).unwrap_or(f64::INFINITY);
        let gpu_eft = if gpu_dur.is_finite() {
            best_gpu.map(|(_, c)| c.max(now) + gpu_dur).unwrap_or(f64::INFINITY)
        } else {
            f64::INFINITY
        };
        if gpu_eft < cpu_eft {
            let (g, _) = best_gpu.expect("finite gpu_eft implies a GPU");
            sched.gpu_commit[g] = gpu_eft;
            sched.q_gpu.push(entry);
        } else {
            let (c, _) = best_cpu.expect("every node has CPU cores");
            sched.cpu_commit[c] = cpu_eft;
            sched.q_cpu.push(entry);
        }
        // NOTE: does not dispatch — callers dispatch once after enqueueing
        // every task that became ready at this instant, so priorities are
        // compared across all of them.
    }

    /// Durations of a task on one CPU core / one GPU of its node,
    /// including any active straggler slowdown of the node.
    fn durations(&self, id: TaskId) -> (f64, f64) {
        let t = &self.b.tasks[id.0];
        let class = self.classes.get(t.class);
        let spec = self.platform.node(t.node);
        let slow = self.b.speed_factor[t.node.0];
        let cpu = if t.flops == 0.0 {
            0.0
        } else {
            slow * t.flops / (spec.cpu_gflops_per_core * 1e9 * class.cpu_efficiency)
        };
        let gpu = if !class.gpu_capable || spec.gpus == 0 {
            f64::INFINITY
        } else if t.flops == 0.0 {
            0.0
        } else {
            slow * t.flops / (spec.gpu_gflops * 1e9 * class.gpu_efficiency)
        };
        (cpu, gpu)
    }

    /// Start as many committed ready tasks as there are free resources of
    /// their committed kind, highest priority first.
    fn dispatch(&mut self, node: NodeId) {
        loop {
            let mut progressed = false;
            if !self.b.scheds[node.0].free_gpus.is_empty() {
                if let Some((_, _, id)) = self.b.scheds[node.0].q_gpu.pop() {
                    let (_, gpu_dur) = self.durations(id);
                    self.start_task(node, id, true, gpu_dur);
                    progressed = true;
                }
            }
            if !self.b.scheds[node.0].free_cpus.is_empty() {
                if let Some((_, _, id)) = self.b.scheds[node.0].q_cpu.pop() {
                    let (cpu_dur, _) = self.durations(id);
                    self.start_task(node, id, false, cpu_dur);
                    progressed = true;
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn start_task(&mut self, node: NodeId, id: TaskId, on_gpu: bool, mut dur: f64) {
        if let Some(n) = self.jitter {
            if dur > 0.0 {
                let z = n.sample(&mut self.rng);
                dur *= z.exp();
            }
        }
        let sched = &mut self.b.scheds[node.0];
        let resource = if on_gpu {
            let g = sched.free_gpus.pop().expect("GPU free");
            sched.gpu_commit[g] = sched.gpu_commit[g].max(self.now + dur);
            ResourceKind::Gpu(g)
        } else {
            let c = sched.free_cpus.pop().expect("CPU free");
            sched.cpu_commit[c] = sched.cpu_commit[c].max(self.now + dur);
            ResourceKind::CpuCore(c)
        };
        let t = &mut self.b.tasks[id.0];
        debug_assert_eq!(t.status, TaskStatus::Runnable);
        t.status = TaskStatus::Running;
        t.resource = resource;
        t.run_start = self.now;
        let end = self.now + dur;
        if self.trace_enabled && t.phase != u32::MAX {
            self.b.trace.push(TraceEvent {
                task: id,
                class: t.class,
                phase: t.phase,
                node,
                resource,
                start: self.now,
                end,
            });
        }
        self.push_event(end, EventKind::TaskDone(id));
    }

    fn on_task_done(&mut self, id: TaskId) {
        let (node, resource, started) = {
            let t = &self.b.tasks[id.0];
            debug_assert_eq!(t.status, TaskStatus::Running);
            (t.node, t.resource, t.run_start)
        };
        let busy = self.now - started;
        match resource {
            ResourceKind::CpuCore(_) => self.b.cpu_busy[node.0] += busy,
            ResourceKind::Gpu(_) => self.b.gpu_busy[node.0] += busy,
        }
        self.tasks_executed += 1;
        let (phase, flops) = (self.b.tasks[id.0].phase, self.b.tasks[id.0].flops);
        if phase != u32::MAX {
            let p = phase as usize;
            if p >= self.b.phase_stats.len() {
                self.b.phase_stats.resize(p + 1, (0, 0.0));
            }
            let entry = &mut self.b.phase_stats[p];
            entry.0 += 1;
            entry.1 += flops;
        }
        // Free the unit. When the kind's ready queue is empty there is no
        // pending committed work, so clamp idle units' commit horizons back
        // to `now` (they may carry phantom backlog from tasks that ended up
        // executing on a sibling unit).
        let now = self.now;
        let sched = &mut self.b.scheds[node.0];
        match resource {
            ResourceKind::CpuCore(i) => {
                sched.free_cpus.push(i);
                if sched.q_cpu.is_empty() {
                    for &j in &sched.free_cpus {
                        sched.cpu_commit[j] = now;
                    }
                }
            }
            ResourceKind::Gpu(i) => {
                sched.free_gpus.push(i);
                if sched.q_gpu.is_empty() {
                    for &j in &sched.free_gpus {
                        sched.gpu_commit[j] = now;
                    }
                }
            }
        }
        self.b.tasks[id.0].status = TaskStatus::Done;
        self.remaining -= 1;
        // Writes invalidate remote replicas.
        let (ws, wl) = (self.b.tasks[id.0].writes_start, self.b.tasks[id.0].writes_len);
        for k in ws..ws + wl {
            let h = self.b.handles[k as usize];
            debug_assert_eq!(
                self.b.fetch_head[h.0], NONE,
                "write to a handle with an in-flight transfer violates STF ordering"
            );
            self.replica_reset_to(h, node);
        }
        // Release dependents; enqueue all newly-ready tasks before any
        // dispatch so same-instant priorities are honoured. The edge list
        // walks newest-first, so reverse into scratch to recover
        // submission order.
        let mut edge = self.b.tasks[id.0].dep_head;
        self.b.tasks[id.0].dep_head = NONE;
        let mut scratch = std::mem::take(&mut self.b.dep_scratch);
        scratch.clear();
        while edge != NONE {
            let (t, next) = self.b.dep_edges[edge as usize];
            scratch.push(TaskId(t as usize));
            edge = next;
        }
        scratch.reverse();
        self.b.pending_dispatch.push(node.0 as u32);
        for &d in &scratch {
            let t = &mut self.b.tasks[d.0];
            t.unmet_deps -= 1;
            if t.unmet_deps == 0 {
                self.b.pending_dispatch.push(t.node.0 as u32);
                self.stage(d);
            }
        }
        scratch.clear();
        self.b.dep_scratch = scratch;
        let mut touched = std::mem::take(&mut self.b.pending_dispatch);
        touched.sort_unstable();
        touched.dedup();
        for &n in &touched {
            self.dispatch(NodeId(n as usize));
        }
        touched.clear();
        self.b.pending_dispatch = touched;
    }

    fn on_flow_start(&mut self, handle: DataHandle, dst: NodeId) {
        // The replica may have appeared meanwhile; then complete instantly.
        if self.replica_contains(handle, dst) {
            self.finish_fetch(handle, dst);
            return;
        }
        let src = NodeId(self.b.replica_first[handle.0] as usize);
        debug_assert_ne!(src, dst);
        let bytes = self.b.data.size(handle) as f64;
        self.bytes_transferred += bytes;
        let route = [self.b.node_up[src.0], self.backbone, self.b.node_down[dst.0]];
        // Deferred: same-instant flow starts share one rebalance, settled
        // before the next network observation in `run`.
        let flow = self.b.net.start_flow_deferred(&route, bytes);
        debug_assert_eq!(flow.0, self.b.flow_meta.len(), "flow ids must stay dense");
        self.b.flow_meta.push((handle.0 as u32, dst.0 as u32));
    }

    fn on_flow_done(&mut self, f: FlowId) {
        let (h, d) = self.b.flow_meta[f.0];
        self.finish_fetch(DataHandle(h as usize), NodeId(d as usize));
    }

    fn finish_fetch(&mut self, handle: DataHandle, dst: NodeId) {
        if !self.replica_contains(handle, dst) {
            self.replica_add(handle, dst);
        }
        let Some(idx) = self.take_fetch(handle, dst) else {
            return;
        };
        // Walk waiters by index: they stay put in the slab entry while
        // `make_runnable` borrows the rest of the runtime.
        let mut i = 0;
        while i < self.b.fetch_slab[idx as usize].waiters.len() {
            let id = self.b.fetch_slab[idx as usize].waiters[i];
            i += 1;
            let t = &mut self.b.tasks[id.0];
            t.missing_inputs -= 1;
            if t.missing_inputs == 0 {
                self.make_runnable(id);
            }
        }
        self.b.fetch_slab[idx as usize].waiters.clear();
        self.b.fetch_free.push(idx);
        self.dispatch(dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{NetworkSpec, NodeSpec};
    use crate::task::ClassSpec;
    use proptest::prelude::*;

    fn small_platform(n_nodes: usize, gpus: usize) -> Platform {
        let nodes = (0..n_nodes)
            .map(|_| NodeSpec {
                name: "n".into(),
                cpu_cores: 2,
                gpus,
                cpu_gflops_per_core: 1.0, // 1 GFLOP/s per core: 1e9 flops = 1 s
                gpu_gflops: 10.0,
                nic_gbps: 8.0, // 1 GB/s
            })
            .collect();
        Platform::new_sorted(nodes, NetworkSpec { backbone_gbps: 80.0, latency_s: 0.0 })
    }

    fn classes() -> (ClassTable, ClassId, ClassId) {
        let mut t = ClassTable::new();
        let cpu_only = t.register(ClassSpec {
            name: "cpu_only".into(),
            gpu_capable: false,
            cpu_efficiency: 1.0,
            gpu_efficiency: 1.0,
        });
        let hybrid = t.register(ClassSpec {
            name: "hybrid".into(),
            gpu_capable: true,
            cpu_efficiency: 1.0,
            gpu_efficiency: 1.0,
        });
        (t, cpu_only, hybrid)
    }

    fn task(class: ClassId, flops: f64, acc: Vec<(DataHandle, Access)>) -> TaskDesc {
        TaskDesc { class, flops, priority: 0, phase: 0, accesses: acc }
    }

    #[test]
    fn single_task_duration() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(1, 0), ct, SimConfig::default());
        let h = rt.register_data(8, NodeId(0));
        rt.submit(task(cpu, 2e9, vec![(h, Access::Write)]));
        let r = rt.run();
        assert!((r.duration() - 2.0).abs() < 1e-9, "duration {}", r.duration());
    }

    #[test]
    fn independent_tasks_run_in_parallel_on_cores() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(1, 0), ct, SimConfig::default());
        // 2 cores, 4 tasks of 1s → 2s total.
        for _ in 0..4 {
            let h = rt.register_data(8, NodeId(0));
            rt.submit(task(cpu, 1e9, vec![(h, Access::Write)]));
        }
        let r = rt.run();
        assert!((r.duration() - 2.0).abs() < 1e-9, "duration {}", r.duration());
    }

    #[test]
    fn dependencies_serialize() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(1, 0), ct, SimConfig::default());
        let h = rt.register_data(8, NodeId(0));
        // Chain of 3 RW tasks on the same handle: 3 s.
        for _ in 0..3 {
            rt.submit(task(cpu, 1e9, vec![(h, Access::ReadWrite)]));
        }
        let r = rt.run();
        assert!((r.duration() - 3.0).abs() < 1e-9, "duration {}", r.duration());
    }

    #[test]
    fn gpu_preferred_for_capable_tasks() {
        let (ct, _, hybrid) = classes();
        let mut rt = SimRuntime::new(small_platform(1, 1), ct, SimConfig::default());
        let h = rt.register_data(8, NodeId(0));
        // GPU is 10x faster: 1e9 flops = 0.1 s.
        rt.submit(task(hybrid, 1e9, vec![(h, Access::Write)]));
        let r = rt.run();
        assert!((r.duration() - 0.1).abs() < 1e-9, "duration {}", r.duration());
        assert!(matches!(rt.trace().events()[0].resource, ResourceKind::Gpu(_)));
    }

    #[test]
    fn cpu_only_class_never_uses_gpu() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(1, 2), ct, SimConfig::default());
        let h = rt.register_data(8, NodeId(0));
        rt.submit(task(cpu, 1e9, vec![(h, Access::Write)]));
        rt.run();
        assert!(matches!(rt.trace().events()[0].resource, ResourceKind::CpuCore(_)));
    }

    #[test]
    fn hybrid_overflow_uses_cpus_when_gpu_backlogged() {
        let (ct, _, hybrid) = classes();
        // 1 GPU (10x) + 2 CPU cores. 12 hybrid tasks of 1e9 flops:
        // GPU does ~10 in 1 s; CPUs should absorb some instead of idling.
        let mut rt = SimRuntime::new(small_platform(1, 1), ct, SimConfig::default());
        for _ in 0..12 {
            let h = rt.register_data(8, NodeId(0));
            rt.submit(task(hybrid, 1e9, vec![(h, Access::Write)]));
        }
        rt.run();
        let used_cpu =
            rt.trace().events().iter().any(|e| matches!(e.resource, ResourceKind::CpuCore(_)));
        assert!(used_cpu, "CPU cores should take overflow work");
    }

    #[test]
    fn remote_read_pays_transfer_time() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(2, 0), ct, SimConfig::default());
        // 1 GB block on node 1; task on node 0 reads it. NIC = 1 GB/s.
        let remote = rt.register_data(1_000_000_000, NodeId(1));
        let local = rt.register_data(8, NodeId(0));
        rt.submit(task(cpu, 1e9, vec![(remote, Access::Read), (local, Access::Write)]));
        let r = rt.run();
        // 1 s transfer + 1 s compute.
        assert!((r.duration() - 2.0).abs() < 1e-6, "duration {}", r.duration());
    }

    #[test]
    fn replicas_avoid_duplicate_transfers() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(2, 0), ct, SimConfig::default());
        let remote = rt.register_data(1_000_000_000, NodeId(1));
        let l1 = rt.register_data(8, NodeId(0));
        let l2 = rt.register_data(8, NodeId(0));
        rt.submit(task(cpu, 1e9, vec![(remote, Access::Read), (l1, Access::Write)]));
        rt.submit(task(cpu, 1e9, vec![(remote, Access::Read), (l2, Access::Write)]));
        let r = rt.run();
        // One shared transfer (1 s), then both computes in parallel (1 s).
        assert!((r.duration() - 2.0).abs() < 1e-6, "duration {}", r.duration());
        assert!((rt.bytes_transferred() - 1e9).abs() < 1.0);
    }

    #[test]
    fn write_invalidates_remote_replicas() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(2, 0), ct, SimConfig::default());
        let h = rt.register_data(1_000_000_000, NodeId(1));
        let l = rt.register_data(8, NodeId(0));
        // Reader on node 0 caches h.
        rt.submit(task(cpu, 0.0, vec![(h, Access::Read), (l, Access::Write)]));
        // Writer on node 1 bumps the version.
        rt.submit(task(cpu, 0.0, vec![(h, Access::ReadWrite)]));
        // Reader on node 0 again: must re-transfer.
        rt.submit(task(cpu, 0.0, vec![(h, Access::Read), (l, Access::ReadWrite)]));
        rt.run();
        assert!((rt.bytes_transferred() - 2e9).abs() < 1.0, "{}", rt.bytes_transferred());
    }

    #[test]
    fn migration_moves_ownership_and_bytes() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(2, 0), ct, SimConfig::default());
        let h = rt.register_data(1_000_000_000, NodeId(0));
        rt.migrate(h, NodeId(1));
        // Task writing h after the migration runs on node 1.
        rt.submit(task(cpu, 1e9, vec![(h, Access::ReadWrite)]));
        let r = rt.run();
        assert!((r.duration() - 2.0).abs() < 1e-6, "duration {}", r.duration());
        let ev = rt.trace().events().iter().find(|e| e.phase == 0).expect("compute task traced");
        assert_eq!(ev.node, NodeId(1));
    }

    #[test]
    fn migration_to_same_node_is_free() {
        let (ct, _, _) = classes();
        let mut rt = SimRuntime::new(small_platform(2, 0), ct, SimConfig::default());
        let h = rt.register_data(1_000_000_000, NodeId(0));
        rt.migrate(h, NodeId(0));
        let r = rt.run();
        assert_eq!(r.duration(), 0.0);
        assert_eq!(rt.bytes_transferred(), 0.0);
    }

    #[test]
    fn priorities_order_ready_tasks() {
        let (ct, cpu, _) = classes();
        // Single-core node to force ordering.
        let mut platform = small_platform(1, 0);
        platform.nodes[0].cpu_cores = 1;
        let mut rt = SimRuntime::new(platform, ct, SimConfig::default());
        let gate = rt.register_data(8, NodeId(0));
        let a = rt.register_data(8, NodeId(0));
        let b = rt.register_data(8, NodeId(0));
        // A gate task makes lo and hi become ready at the same instant, so
        // the queue order (priority) decides who runs first.
        rt.submit(task(cpu, 1e9, vec![(gate, Access::Write)]));
        let lo = rt.submit(TaskDesc {
            class: cpu,
            flops: 1e9,
            priority: 0,
            phase: 0,
            accesses: vec![(gate, Access::Read), (a, Access::Write)],
        });
        let hi = rt.submit(TaskDesc {
            class: cpu,
            flops: 1e9,
            priority: 10,
            phase: 0,
            accesses: vec![(gate, Access::Read), (b, Access::Write)],
        });
        rt.run();
        let evs = rt.trace().events();
        let hi_ev = evs.iter().find(|e| e.task == hi).unwrap();
        let lo_ev = evs.iter().find(|e| e.task == lo).unwrap();
        assert!(hi_ev.start < lo_ev.start, "high priority must start first");
    }

    #[test]
    fn successive_runs_accumulate_time() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(1, 0), ct, SimConfig::default());
        let h = rt.register_data(8, NodeId(0));
        rt.submit(task(cpu, 1e9, vec![(h, Access::ReadWrite)]));
        let r1 = rt.run();
        rt.submit(task(cpu, 1e9, vec![(h, Access::ReadWrite)]));
        let r2 = rt.run();
        assert!((r1.end - 1.0).abs() < 1e-9);
        assert!((r2.start - 1.0).abs() < 1e-9);
        assert!((r2.end - 2.0).abs() < 1e-9);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let build = || {
            let (ct, cpu, hybrid) = classes();
            let mut rt = SimRuntime::new(
                small_platform(3, 1),
                ct,
                SimConfig { seed: 42, task_jitter: Some(0.1), trace: true },
            );
            let hs: Vec<DataHandle> =
                (0..9).map(|i| rt.register_data(1000, NodeId(i % 3))).collect();
            for (i, &h) in hs.iter().enumerate() {
                let class = if i % 2 == 0 { cpu } else { hybrid };
                rt.submit(task(class, 5e8, vec![(h, Access::ReadWrite)]));
            }
            for &h in &hs {
                rt.migrate(h, NodeId(0));
            }
            for &h in &hs {
                rt.submit(task(hybrid, 5e8, vec![(h, Access::ReadWrite)]));
            }
            rt.run().duration()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn makespan_at_least_work_bound() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(1, 0), ct, SimConfig::default());
        let mut total = 0.0;
        for i in 0..7 {
            let h = rt.register_data(8, NodeId(0));
            let fl = (1 + i) as f64 * 1e8;
            total += fl;
            rt.submit(task(cpu, fl, vec![(h, Access::Write)]));
        }
        let r = rt.run();
        let bound = total / (2.0 * 1e9); // 2 cores x 1 GFLOP/s
        assert!(r.duration() >= bound - 1e-9);
    }

    #[test]
    fn busy_time_phase_totals_and_task_counts_accumulate() {
        let (ct, cpu, hybrid) = classes();
        let mut rt = SimRuntime::new(small_platform(1, 1), ct, SimConfig::default());
        let h = rt.register_data(8, NodeId(0));
        let g = rt.register_data(8, NodeId(0));
        // Serial CPU chain of 2 s (phase 0) + one GPU task of 0.1 s (phase 1).
        rt.submit(task(cpu, 1e9, vec![(h, Access::ReadWrite)]));
        rt.submit(task(cpu, 1e9, vec![(h, Access::ReadWrite)]));
        rt.submit(TaskDesc {
            class: hybrid,
            flops: 1e9,
            priority: 0,
            phase: 1,
            accesses: vec![(g, Access::Write)],
        });
        rt.run();
        assert_eq!(rt.tasks_executed(), 3);
        let (cpu_busy, gpu_busy) = (rt.b.cpu_busy[0], rt.b.gpu_busy[0]);
        assert!((cpu_busy - 2.0).abs() < 1e-9, "{cpu_busy}");
        assert!((gpu_busy - 0.1).abs() < 1e-9, "{gpu_busy}");
        assert_eq!(rt.phase_totals(0), (2, 2e9));
        assert_eq!(rt.phase_totals(1), (1, 1e9));
        assert_eq!(rt.phase_totals(7), (0, 0.0));
    }

    #[test]
    fn recorder_receives_per_run_deltas() {
        use adaphet_metrics::Registry;
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(2, 0), ct, SimConfig::default());
        let reg = Registry::new();
        rt.set_recorder(Arc::new(reg.clone()));
        // Run 1: a 1 GB remote read plus 1 s of compute.
        let remote = rt.register_data(1_000_000_000, NodeId(1));
        let local = rt.register_data(8, NodeId(0));
        rt.submit(task(cpu, 1e9, vec![(remote, Access::Read), (local, Access::Write)]));
        rt.run();
        assert_eq!(reg.counter_value("sim.runs"), 1.0);
        assert_eq!(reg.counter_value("sim.tasks_executed"), 1.0);
        assert!((reg.counter_value("sim.bytes_transferred") - 1e9).abs() < 1.0);
        assert!((reg.counter_value("sim.node000.cpu_busy_s") - 1.0).abs() < 1e-9);
        assert!(reg.counter_value("sim.net.backbone_busy_s") > 0.9);
        assert!(reg.counter_value("sim.net.node001.up_busy_s") > 0.9);
        // One flow: started (one rebalance fixes it), then finished (one
        // rebalance over an empty network).
        assert_eq!(reg.counter_value("sim.net.rebalances"), 2.0);
        assert_eq!(reg.counter_value("sim.net.flows_fixed"), 1.0);
        assert_eq!(reg.counter_value("sim.net.flows_kept"), 0.0);
        assert_eq!(reg.histogram("sim.run.makespan_s").unwrap().count, 1);
        // Run 2 flushes only its own delta: no new bytes move.
        rt.submit(task(cpu, 1e9, vec![(local, Access::ReadWrite)]));
        rt.run();
        assert_eq!(reg.counter_value("sim.runs"), 2.0);
        assert_eq!(reg.counter_value("sim.tasks_executed"), 2.0);
        assert!((reg.counter_value("sim.bytes_transferred") - 1e9).abs() < 1.0);
        assert_eq!(reg.counter_value("sim.net.rebalances"), 2.0);
        assert!((reg.counter_value("sim.node000.cpu_busy_s") - 2.0).abs() < 1e-9);
        // Idle time: 2 cores over two 1 s and ~2 s windows, one core busy.
        assert!(reg.counter_value("sim.node000.cpu_idle_s") > 0.0);
    }

    #[test]
    fn jitter_changes_durations_but_stays_positive() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(
            small_platform(1, 0),
            ct,
            SimConfig { seed: 7, task_jitter: Some(0.2), trace: true },
        );
        let h = rt.register_data(8, NodeId(0));
        rt.submit(task(cpu, 1e9, vec![(h, Access::Write)]));
        let r = rt.run();
        assert!(r.duration() > 0.0);
        assert!((r.duration() - 1.0).abs() > 1e-12, "jitter should perturb");
    }

    #[test]
    fn speed_factor_slows_one_node_and_clears() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(2, 0), ct, SimConfig::default());
        rt.set_speed_factor(NodeId(1), 3.0);
        let h0 = rt.register_data(8, NodeId(0));
        let h1 = rt.register_data(8, NodeId(1));
        rt.submit(task(cpu, 1e9, vec![(h0, Access::Write)]));
        rt.submit(task(cpu, 1e9, vec![(h1, Access::Write)]));
        let r = rt.run();
        // Node 0 finishes in 1 s; the straggler takes 3 s.
        assert!((r.duration() - 3.0).abs() < 1e-9, "duration {}", r.duration());
        rt.clear_speed_factors();
        rt.submit(task(cpu, 1e9, vec![(h1, Access::ReadWrite)]));
        let r2 = rt.run();
        assert!((r2.duration() - 1.0).abs() < 1e-9, "recovered duration {}", r2.duration());
    }

    #[test]
    fn trace_meta_records_deps_and_transfer_window() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(small_platform(2, 0), ct, SimConfig::default());
        // Producer on node 1 writes a 1 GB block; the consumer on node 0
        // reads it, so its [ready, runnable) window is the 1 s transfer.
        let remote = rt.register_data(1_000_000_000, NodeId(1));
        let local = rt.register_data(8, NodeId(0));
        let producer = rt.submit(task(cpu, 1e9, vec![(remote, Access::ReadWrite)]));
        let consumer =
            rt.submit(task(cpu, 1e9, vec![(remote, Access::Read), (local, Access::Write)]));
        rt.run();
        let m = rt.trace().meta(consumer).expect("consumer has metadata");
        assert_eq!(m.deps, vec![producer]);
        let (ready, runnable) = (m.ready.unwrap(), m.runnable.unwrap());
        assert!((ready - 1.0).abs() < 1e-6, "ready when the producer finished: {ready}");
        assert!((runnable - 2.0).abs() < 1e-6, "runnable after the 1 s transfer: {runnable}");
        let ev = rt.trace().events().iter().find(|e| e.task == consumer).unwrap();
        assert!(ev.start >= runnable - 1e-12, "start follows runnable");
        // The producer had no predecessors, so only its timestamps exist.
        let pm = rt.trace().meta(producer).expect("producer staged");
        assert!(pm.deps.is_empty());
        assert_eq!(pm.ready, Some(0.0));
    }

    #[test]
    fn trace_disabled_records_no_meta() {
        let (ct, cpu, _) = classes();
        let mut rt = SimRuntime::new(
            small_platform(1, 0),
            ct,
            SimConfig { trace: false, ..SimConfig::default() },
        );
        let h = rt.register_data(8, NodeId(0));
        rt.submit(task(cpu, 1e9, vec![(h, Access::ReadWrite)]));
        rt.submit(task(cpu, 1e9, vec![(h, Access::ReadWrite)]));
        rt.run();
        assert_eq!(rt.trace().metas().count(), 0);
        assert!(rt.trace().events().is_empty());
        // The construction-time choice holds for every later run.
        rt.submit(task(cpu, 1e9, vec![(h, Access::ReadWrite)]));
        rt.run();
        assert!(rt.trace().events().is_empty());
    }

    #[test]
    fn latency_delays_small_transfers() {
        let (ct, cpu, _) = classes();
        let mut platform = small_platform(2, 0);
        platform.network.latency_s = 0.5;
        let mut rt = SimRuntime::new(platform, ct, SimConfig::default());
        let remote = rt.register_data(8, NodeId(1)); // negligible bytes
        let local = rt.register_data(8, NodeId(0));
        rt.submit(task(cpu, 0.0, vec![(remote, Access::Read), (local, Access::Write)]));
        let r = rt.run();
        assert!((r.duration() - 0.5).abs() < 1e-6, "duration {}", r.duration());
    }

    /// Deterministic fingerprint of a randomized two-wave session: run
    /// window bounds, bytes moved, and phase totals — all bitwise.
    fn session_fingerprint(n_nodes: usize, gpus: usize, n_tasks: usize, seed: u64) -> Vec<u64> {
        use rand::{Rng, SeedableRng};
        let (ct, cpu, hybrid) = classes();
        let jitter = if seed.is_multiple_of(2) { Some(0.05) } else { None };
        let mut rt = SimRuntime::new(
            small_platform(n_nodes, gpus),
            ct,
            SimConfig { seed, task_jitter: jitter, trace: true },
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xabcd);
        let handles: Vec<DataHandle> = (0..3 * n_nodes)
            .map(|i| rt.register_data(64 + i * 1000, NodeId(i % n_nodes)))
            .collect();
        let mut out = Vec::new();
        for wave in 0u32..2 {
            for t in 0..n_tasks {
                if rng.random_range(0..6) == 0 {
                    let h = handles[rng.random_range(0..handles.len())];
                    rt.migrate(h, NodeId(rng.random_range(0..n_nodes)));
                }
                let a = handles[rng.random_range(0..handles.len())];
                let b = handles[rng.random_range(0..handles.len())];
                let class = if t % 3 == 0 { hybrid } else { cpu };
                rt.submit(TaskDesc {
                    class,
                    flops: rng.random_range(0.0..2e9),
                    priority: rng.random_range(0..4),
                    phase: (t % 3) as u32,
                    accesses: vec![(a, Access::Read), (b, Access::ReadWrite)],
                });
            }
            let r = rt.run();
            out.push(r.start.to_bits());
            out.push(r.end.to_bits());
            out.push(rt.bytes_transferred().to_bits());
            let (count, flops) = rt.phase_totals(wave);
            out.push(count);
            out.push(flops.to_bits());
        }
        out
    }

    proptest! {
        /// A runtime built from recycled pool buffers must behave exactly
        /// — bitwise — like one built cold: the thread-local allocation
        /// pool is invisible to the simulation.
        #[test]
        fn prop_pooled_runtime_matches_cold_runtime_bitwise(
            n_nodes in 1usize..4,
            gpus in 0usize..2,
            n_tasks in 1usize..25,
            seed in 0u64..u64::MAX,
        ) {
            // Cold: a fresh thread starts with an empty thread-local pool.
            let cold =
                std::thread::spawn(move || session_fingerprint(n_nodes, gpus, n_tasks, seed))
                    .join()
                    .expect("cold run");
            // Warm: this thread's pool was populated by previous cases and
            // by the first warm run below.
            let warm1 = session_fingerprint(n_nodes, gpus, n_tasks, seed);
            let warm2 = session_fingerprint(n_nodes, gpus, n_tasks, seed);
            prop_assert_eq!(&cold, &warm1);
            prop_assert_eq!(&warm1, &warm2);
        }
    }
}
