//! The LP bound is a true lower bound on the simulated iteration, not only
//! on the paper's scenarios: on a generated family of heterogeneous
//! platforms and workloads, `LP(k)` never exceeds the makespan the
//! deterministic simulator reports for `k` factorization nodes.

use adaphet_geostat::{lp_curve, GeoSimApp, IterationChoice, Workload};
use adaphet_runtime::{NetworkSpec, NodeSpec, Platform, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 1–3 machine groups of 1–4 identical nodes each, a shared backbone and a
/// tiled workload, all drawn from `seed`.
fn generated_case(seed: u64) -> (Platform, Workload) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes = Vec::new();
    for g in 0..rng.random_range(1usize..=3) {
        let gpus = rng.random_range(0usize..=2);
        let spec = NodeSpec {
            name: format!("g{g}"),
            cpu_cores: rng.random_range(2usize..=16),
            gpus,
            cpu_gflops_per_core: rng.random_range(5.0f64..60.0),
            gpu_gflops: if gpus > 0 { rng.random_range(200.0f64..8000.0) } else { 0.0 },
            nic_gbps: rng.random_range(1.0f64..100.0),
        };
        for _ in 0..rng.random_range(1usize..=4) {
            nodes.push(spec.clone());
        }
    }
    let network = NetworkSpec {
        backbone_gbps: rng.random_range(5.0f64..400.0),
        latency_s: rng.random_range(1e-6f64..1e-4),
    };
    let workload = Workload::new(rng.random_range(2usize..=8), rng.random_range(32usize..=512));
    (Platform::new_sorted(nodes, network), workload)
}

#[test]
fn lp_bound_is_below_every_simulated_makespan() {
    for seed in 0..200 {
        let (platform, workload) = generated_case(seed);
        let lp = lp_curve(&platform, workload);
        let n = platform.nodes.len();
        let sim = SimConfig { seed, task_jitter: None, trace: false };
        let mut app = GeoSimApp::new(platform.clone(), workload, sim);
        for k in 1..=n {
            let makespan = app.run_iteration(IterationChoice::fact_only(n, k)).duration();
            assert!(
                lp[k - 1] <= makespan,
                "seed {seed}: LP({k}) = {} exceeds the simulated {makespan} \
                 ({workload:?} on {platform:?})",
                lp[k - 1]
            );
        }
    }
}
