//! Cross-crate integration tests: the full pipeline from platform to
//! tuned application, at test scale.

use adaphet::eval::{build_response, replay_many, space_of, StrategyKind};
use adaphet::geostat::{lp_curve, GeoSimApp, IterationChoice, Workload};
use adaphet::runtime::{NetworkSpec, NodeSpec, Platform, SimConfig};
use adaphet::scenarios::{Scale, Scenario};
use adaphet::tuner::{MemorySink, Observation, Session};

fn toy_platform(n_gpu: usize, n_cpu: usize) -> Platform {
    let gpu = NodeSpec {
        name: "L".into(),
        cpu_cores: 8,
        gpus: 2,
        cpu_gflops_per_core: 20.0,
        gpu_gflops: 2000.0,
        nic_gbps: 10.0,
    };
    let cpu = NodeSpec { name: "S".into(), gpus: 0, gpu_gflops: 0.0, ..gpu.clone() };
    let mut nodes = vec![gpu; n_gpu];
    nodes.extend(std::iter::repeat_n(cpu, n_cpu));
    Platform::new_sorted(nodes, NetworkSpec { backbone_gbps: 100.0, latency_s: 1e-5 })
}

#[test]
fn online_tuning_beats_all_nodes_on_a_heterogeneous_cluster() {
    // Live tuning against the simulator (not a replay): the Session
    // runs GP-discontinuous over the application and must end up cheaper
    // per iteration than the all-nodes default. Telemetry (with per-phase
    // breakdowns from the runtime) is collected along the way and must
    // stay consistent with the recorded history.
    let workload = Workload::new(16, 512);
    let mut app = GeoSimApp::new(toy_platform(2, 6), workload, SimConfig::default());
    let n = app.n_nodes();
    let groups = app.runtime().platform().homogeneous_groups();
    let lp = lp_curve(app.runtime().platform(), workload);
    let space = adaphet::tuner::ActionSpace::new(n, groups, Some(lp));
    let strat = StrategyKind::GpDiscontinuous.build(&space, 1, None).expect("no oracle needed");
    let sink = MemorySink::new();
    let mut driver = Session::builder(&space)
        .strategy(strat)
        .sink(Box::new(sink.clone()))
        .build()
        .expect("a strategy was provided");
    for _ in 0..20 {
        driver.step(|k| {
            let (report, m) = app.run_iteration_profiled(IterationChoice::fact_only(n, k));
            Observation::with_phases(report.duration(), m.phases)
        });
    }
    let hist = driver.into_history();
    // Telemetry invariant: one event per executed iteration, and the
    // events carry the runtime's phase breakdown.
    assert_eq!(sink.len(), hist.len(), "one IterationEvent per iteration");
    let events = sink.events();
    assert!(
        events.iter().all(|e| !e.phases.is_empty()),
        "every live-tuning event should carry a phase breakdown"
    );
    assert!(
        events[0].phases.iter().any(|p| p.name == "factorization"),
        "factorization dominates a geostatistics iteration: {:?}",
        events[0].phases
    );
    let all_nodes = hist.first_for(n).expect("first iteration uses all nodes");
    let late: f64 = hist.records()[15..].iter().map(|r| r.1).sum::<f64>() / 5.0;
    assert!(
        late <= all_nodes * 1.02,
        "late iterations ({late:.3}s) should not be worse than all-nodes ({all_nodes:.3}s)"
    );
}

#[test]
fn replay_pipeline_ranks_gp_disc_at_or_near_the_top() {
    // Scenario (a) at test scale. The paper's claim is *robustness*: a
    // lucky heuristic (e.g. DC on a clean convex curve) may edge it out on
    // one scenario, but GP-discontinuous must stay close to the best and
    // clearly beat the all-nodes baseline.
    let scen = Scenario::by_id('a').unwrap();
    let table = build_response(&scen, Scale::Test, 20, 9);
    let mut totals = Vec::new();
    for kind in adaphet::eval::PAPER_STRATEGIES {
        let s = replay_many(kind, &table, 80, 10, 9);
        totals.push((kind, s.mean_total));
    }
    let best = totals.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
    let gp = totals
        .iter()
        .find(|&&(k, _)| k == StrategyKind::GpDiscontinuous)
        .expect("GP-discontinuous present")
        .1;
    let all_nodes = replay_many(StrategyKind::AllNodes, &table, 80, 10, 9).mean_total;
    assert!(gp <= best * 1.15, "GP-discontinuous at {gp:.2} vs best {best:.2}: {totals:?}");
    assert!(gp < all_nodes, "GP-discontinuous ({gp:.2}) must beat all-nodes ({all_nodes:.2})");
}

#[test]
fn bound_mechanism_respects_lp_semantics_end_to_end() {
    // The LP curve built by the scenario must lower-bound the simulated
    // response everywhere (the premise of the bound mechanism).
    let scen = Scenario::by_id('b').unwrap();
    let table = build_response(&scen, Scale::Test, 6, 4);
    for n in 1..=table.n_actions() {
        let sim_min = table.sim_base[n - 1].iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            table.lp[n - 1] <= sim_min + 1e-9,
            "LP({n}) = {} above simulated {}",
            table.lp[n - 1],
            sim_min
        );
    }
    // And the induced action space prunes only provably-bad points.
    let space = space_of(&table);
    let y_all = table.mean(table.n_actions());
    for a in space.bounded_actions(y_all) {
        assert!(a == table.n_actions() || table.lp[a - 1] < y_all);
    }
}

#[test]
fn scenario_labels_cover_both_sites_and_workloads() {
    let all = Scenario::all16();
    assert!(all.iter().any(|s| s.label().contains("G5K")));
    assert!(all.iter().any(|s| s.label().contains("SD")));
    assert!(all.iter().any(|s| s.label().contains("101")));
    assert!(all.iter().any(|s| s.label().contains("128")));
    assert_eq!(all.iter().filter(|s| s.real).count(), 6, "six (Real) scenarios in the paper");
}

#[test]
fn iteration_durations_scale_down_with_more_useful_nodes() {
    // Compute-bound regime: a single node must be slower than four.
    let mut app1 = GeoSimApp::new(toy_platform(0, 1), Workload::new(12, 640), SimConfig::default());
    let d1 = app1.run_iteration(IterationChoice::all(1)).duration();
    let mut app4 = GeoSimApp::new(toy_platform(0, 4), Workload::new(12, 640), SimConfig::default());
    let d4 = app4.run_iteration(IterationChoice::all(4)).duration();
    assert!(d4 < d1, "4 nodes ({d4:.3}s) should beat 1 node ({d1:.3}s)");
}
