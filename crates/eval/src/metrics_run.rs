//! Shared `--metrics` capture session for the figure binaries.
//!
//! Runs one instrumented GP-discontinuous tuning session against the
//! *simulated* application of a scenario, with the global metrics
//! recorder installed, and assembles a [`MetricsReport`] combining the
//! registry snapshot (counters from the simulator, solvers, and cache)
//! with per-iteration phase/utilization profiles taken from the session's
//! telemetry stream. Binaries write the report's JSON form next to their
//! regular outputs and print its aligned-text table.

use adaphet_core::{
    ActionSpace, MemorySink, Observation, PhaseBreakdown, PhaseSlice, Session, StrategyKind,
};
use adaphet_geostat::IterationChoice;
use adaphet_metrics::{install_global, IterationProfile, MetricsReport, Registry};
use adaphet_scenarios::{Scale, Scenario};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// Run `iters` tuning iterations of the GP-discontinuous strategy on
/// `scenario`'s simulated application and return the collected metrics.
///
/// The session installs the global recorder (first caller wins — in a
/// binary this is the fresh registry, so the snapshot is scoped to the
/// run), forwards it to the simulator, and profiles every iteration with
/// [`adaphet_geostat::GeoSimApp::run_iteration_profiled`], so each
/// [`IterationProfile`] carries disjoint wall-clock phase slices that sum
/// to that iteration's simulated makespan plus per-node-group busy/idle
/// time.
pub fn run_metrics_session(
    scenario: &Scenario,
    scale: Scale,
    iters: usize,
    seed: u64,
) -> MetricsReport {
    let registry = install_global(Registry::new());
    let mut app = scenario.app(scale, seed);
    app.set_recorder(Arc::new(registry.clone()));
    let n = app.n_nodes();
    let space = ActionSpace::new(n, scenario.groups(), Some(scenario.lp_curve(scale)));
    let sink = MemorySink::new();
    let mut session = Session::builder(&space)
        .kind(StrategyKind::GpDiscontinuous)
        .seed(seed)
        .sink(Box::new(sink.clone()))
        .build()
        .expect("GP-discontinuous needs no oracle");
    session.run(iters, |n_fact| {
        let (report, m) = app.run_iteration_profiled(IterationChoice::fact_only(n, n_fact));
        let breakdown = PhaseBreakdown {
            phases: m.phases.iter().map(|&(p, s)| PhaseSlice::new(p, s)).collect(),
            groups: m.groups,
        };
        Observation::with_breakdown(report.duration(), breakdown.phases.clone(), breakdown)
    });
    let _ = session.into_history();

    let mut report = registry.snapshot();
    report.iterations = sink
        .events()
        .iter()
        .map(|e| {
            let b = e.phase_breakdown.as_ref();
            IterationProfile {
                iteration: e.iteration,
                action: e.action,
                makespan_s: e.duration,
                phases: b
                    .map(|b| b.phases.iter().map(|p| (p.name.clone(), p.seconds)).collect())
                    .unwrap_or_default(),
                groups: b.map(|b| b.groups.clone()).unwrap_or_default(),
            }
        })
        .collect();
    report
}

/// Write `report` as JSON to `path` and print its table form, mirroring
/// what `--telemetry` does for JSONL event streams.
pub fn write_metrics_report(report: &MetricsReport, path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(report.to_json().as_bytes())?;
    f.write_all(b"\n")?;
    println!("{}", report.to_table());
    println!("wrote {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_profiles_every_iteration_and_slices_sum_to_makespan() {
        let scen = Scenario::by_id('a').unwrap();
        let report = run_metrics_session(&scen, Scale::Test, 8, 7);
        assert_eq!(report.iterations.len(), 8);
        for it in &report.iterations {
            assert!(!it.phases.is_empty(), "iteration {} lost its phases", it.iteration);
            let sum: f64 = it.phases.iter().map(|(_, s)| s).sum();
            assert!(
                (sum - it.makespan_s).abs() <= 0.05 * it.makespan_s,
                "iteration {}: phase slices sum to {sum}, makespan {}",
                it.iteration,
                it.makespan_s
            );
            assert!(!it.groups.is_empty());
            for g in &it.groups {
                let u = g.utilization();
                assert!((0.0..=1.0).contains(&u), "{}: utilization {u}", g.name);
            }
        }
        // The forwarded recorder captured simulator and app counters.
        let counter = |name: &str| {
            report.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0.0)
        };
        assert!(counter("app.iterations") >= 8.0);
        assert!(counter("sim.tasks_executed") > 0.0);
    }
}
