//! Quickstart: tune the number of factorization nodes of a simulated
//! heterogeneous cluster with GP-discontinuous, in ~40 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use adaphet::geostat::{lp_curve, GeoSimApp, IterationChoice, Workload};
use adaphet::runtime::{NetworkSpec, NodeSpec, Platform, SimConfig};
use adaphet::tuner::{ActionSpace, Observation, Session, StrategyKind};

fn main() {
    // A small cluster: 2 GPU nodes + 6 CPU-only nodes, 10 Gb/s NICs.
    let gpu = NodeSpec {
        name: "gpu-node".into(),
        cpu_cores: 16,
        gpus: 2,
        cpu_gflops_per_core: 20.0,
        gpu_gflops: 2500.0,
        nic_gbps: 10.0,
    };
    let cpu = NodeSpec { name: "cpu-node".into(), gpus: 0, gpu_gflops: 0.0, ..gpu.clone() };
    let mut nodes = vec![gpu; 2];
    nodes.extend(std::iter::repeat_n(cpu, 6));
    let platform =
        Platform::new_sorted(nodes, NetworkSpec { backbone_gbps: 100.0, latency_s: 1e-5 });
    let groups = platform.homogeneous_groups();

    // The multi-phase application (generation + Cholesky + solve + ...).
    let workload = Workload::new(24, 512);
    let lp = lp_curve(&platform, workload);
    let mut app = GeoSimApp::new(platform, workload, SimConfig::default());
    let n = app.n_nodes();

    // The tuner: GP-discontinuous with the LP bound and machine groups,
    // run by a Session (propose -> execute -> record).
    let space = ActionSpace::new(n, groups, Some(lp));
    let tuner = StrategyKind::GpDiscontinuous.build(&space, 42, None).expect("known strategy");
    let mut session = Session::builder(&space).strategy(tuner).build().expect("strategy set");

    println!("iter | fact-nodes | iteration time");
    for it in 1..=25 {
        let step = session.step(|n_fact| {
            Observation::of(app.run_iteration(IterationChoice::fact_only(n, n_fact)).duration())
        });
        println!("{it:>4} | {:>10} | {:>10.3}s", step.action, step.duration);
    }
    let history = session.into_history();
    let best = history.best_action().expect("observations exist");
    println!("\nlearned best factorization node count: {best} (all-nodes would be {n})");
    println!("total time: {:.2}s", history.total_time());
}
