#![warn(missing_docs)]

//! Task-based runtime substrate for the `adaphet` workspace.
//!
//! This crate is the from-scratch replacement for the paper's two runtime
//! layers at once:
//!
//! * **StarPU** — declarative task submission in sequential-task-flow
//!   (STF) order over registered data blocks, dependence inference from
//!   data hazards, heterogeneous (CPU + GPU) per-node scheduling with
//!   performance models, transparent asynchronous data redistribution;
//! * **StarPU-SimGrid** — a discrete-event simulation backend with a
//!   flow-level max-min-fair network model (per-node NICs plus a shared
//!   backbone), which is how the paper evaluates the large scenarios.
//!
//! Two backends share the same dependence semantics:
//! [`SimRuntime`] (simulated time; used for all 16 paper scenarios) and
//! [`RealRuntime`] (a real thread pool over in-memory blocks; used to
//! measure the genuine wall-clock overhead of the online tuner, Fig. 7).
//!
//! # Simulated quick-start
//!
//! ```
//! use adaphet_runtime::{
//!     Access, ClassSpec, ClassTable, NetworkSpec, NodeId, NodeSpec, Platform, SimConfig,
//!     SimRuntime, TaskDesc,
//! };
//!
//! let nodes = vec![NodeSpec {
//!     name: "node".into(), cpu_cores: 4, gpus: 0,
//!     cpu_gflops_per_core: 10.0, gpu_gflops: 0.0, nic_gbps: 10.0,
//! }];
//! let platform = Platform::new_sorted(nodes, NetworkSpec { backbone_gbps: 100.0, latency_s: 1e-5 });
//! let mut classes = ClassTable::new();
//! let work = classes.register(ClassSpec {
//!     name: "work".into(), gpu_capable: false, cpu_efficiency: 1.0, gpu_efficiency: 1.0,
//! });
//! let mut rt = SimRuntime::new(platform, classes, SimConfig::default());
//! let h = rt.register_data(1024, NodeId(0));
//! rt.submit(TaskDesc { class: work, flops: 1e10, priority: 0, phase: 0,
//!                      accesses: vec![(h, Access::Write)] });
//! let report = rt.run();
//! assert!((report.duration() - 1.0).abs() < 1e-9); // 1e10 flops / 10 GFLOP/s
//! ```

mod data;
mod fault;
mod flownet;
mod platform;
mod real;
mod sim;
mod stf;
mod task;
mod trace;

pub use data::{DataHandle, DataRegistry};
pub use fault::{FaultEvent, FaultPlan, FaultPlanError};
pub use flownet::{FlowId, FlowNet, LinkId};
pub use platform::{NetworkSpec, NodeId, NodeSpec, Platform};
pub use real::{BlockHandle, RealRuntime, StoreView};
pub use sim::{RunReport, SimConfig, SimRuntime};
pub use stf::DepTracker;
pub use task::{Access, ClassId, ClassSpec, ClassTable, TaskDesc, TaskId};
pub use trace::{
    chrome_trace_document, ChromeMicros, ResourceKind, TaskMeta, Trace, TraceEvent,
    TRACE_CSV_VERSION,
};
