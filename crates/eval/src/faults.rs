//! Fault-injection harness: drive a tuning session against the *live*
//! simulator while a [`FaultPlan`] perturbs the platform under it.
//!
//! Unlike the resampling [`replay`](crate::replay) path (which draws from
//! frozen per-action duration pools), this harness simulates every
//! iteration, so a fault plan can actually change what the application
//! sees: slowdown windows scale a node's compute throughput inside the
//! simulator, node deaths shrink the platform (the app and the LP bound
//! are rebuilt over the survivors, and the driver's
//! [`ResiliencePolicy`] quarantines/re-baselines), and outlier spikes
//! multiply the first measurement attempt of an iteration — which a
//! retry-enabled policy then re-measures cleanly.
//!
//! Every fault that fires counts `fault.injected` on the global metrics
//! registry, alongside the driver's own `tuner.retry` /
//! `tuner.rebaseline` counters.

use crate::error::AdaphetError;
use adaphet_core::{ActionSpace, History, ResiliencePolicy, Session, StrategyKind, TelemetrySink};
use adaphet_geostat::{lp_bound_for, GeoClasses, GeoSimApp, IterationChoice, Workload};
use adaphet_runtime::{FaultPlan, Platform, SimConfig};
use adaphet_scenarios::{Scale, Scenario};

/// What a faulted session produced.
#[derive(Debug)]
pub struct FaultRunOutcome {
    /// The driver's history (quarantined records removed).
    pub history: History,
    /// The action space of the surviving platform.
    pub final_space: ActionSpace,
    /// Node deaths that fired, as `(iteration, rank)` pairs.
    pub deaths: Vec<(usize, usize)>,
    /// How many fault events fired in total (deaths, straggler
    /// iterations, outlier spikes).
    pub faults_injected: usize,
}

/// The action space induced by `platform` for `scenario`'s workload:
/// homogeneous groups plus the LP lower-bound curve, recomputed so that
/// after a node death the bound describes the *surviving* cluster.
pub fn space_for_platform(platform: &Platform, workload: Workload) -> ActionSpace {
    let (_, classes) = GeoClasses::register();
    let n = platform.nodes.len();
    let lp: Vec<f64> = (1..=n)
        .map(|k| lp_bound_for(platform, &classes, workload, IterationChoice::fact_only(n, k)))
        .collect();
    ActionSpace::new(n, platform.homogeneous_groups(), Some(lp))
}

/// The tuner-side knobs of a faulted session: which strategy, for how
/// long, from which seed, under which [`ResiliencePolicy`].
#[derive(Debug, Clone)]
pub struct FaultSessionConfig {
    /// Strategy to drive (built from the scenario's initial space).
    pub kind: StrategyKind,
    /// Tuning iterations to run.
    pub iters: usize,
    /// Base RNG seed for the strategy and the simulator.
    pub seed: u64,
    /// Resilience policy installed on the driver.
    pub policy: ResiliencePolicy,
}

/// Run one tuning session of `cfg.kind` against `scenario`'s simulated
/// application while `plan` injects faults.
///
/// The plan is validated against the scenario's node count up front.
/// Deaths resolve before the iteration's proposal (the driver learns of
/// the shrunken platform first); slowdown windows configure the
/// simulator for the iteration; an outlier spike multiplies only the
/// *first* measurement attempt, so a policy with retries enabled
/// re-measures and records the clean value.
pub fn run_faulted_session(
    scenario: &Scenario,
    scale: Scale,
    plan: &FaultPlan,
    cfg: FaultSessionConfig,
    sinks: Vec<Box<dyn TelemetrySink>>,
) -> Result<FaultRunOutcome, AdaphetError> {
    let FaultSessionConfig { kind, iters, seed, policy } = cfg;
    let mut platform = scenario.platform();
    plan.validate(platform.nodes.len(), iters)?;
    let workload = scenario.workload(scale);
    let jitter = if scenario.real { Some(0.03) } else { None };
    let sim = |seed| SimConfig { seed, task_jitter: jitter, trace: true };
    let mut app = GeoSimApp::new(platform.clone(), workload, sim(seed));
    let space = space_for_platform(&platform, workload);
    let mut session = Session::builder(&space).kind(kind).seed(seed).resilience(policy).build()?;
    for sink in sinks {
        session.add_sink(sink);
    }

    let metrics = adaphet_metrics::global();
    let mut deaths = Vec::new();
    let mut faults_injected = 0usize;
    for i in 0..iters {
        // 1. Deaths fire before the proposal: the driver must never hand
        //    the strategy a space containing the dead configuration.
        for rank in plan.deaths_at(i) {
            if rank > platform.nodes.len() || platform.nodes.len() <= 1 {
                continue; // already dead (or would empty the cluster)
            }
            platform = platform.without_rank(rank);
            app = GeoSimApp::new(platform.clone(), workload, sim(seed.wrapping_add(i as u64)));
            let survivor_space = space_for_platform(&platform, workload);
            session.apply_platform_change(
                &survivor_space,
                Some(rank),
                format!("node-death:rank={rank}"),
            );
            metrics.add("fault.injected", 1.0);
            faults_injected += 1;
            deaths.push((i, rank));
        }
        // 2. Slowdown windows configure the simulator for this iteration.
        let factors = plan.slowdown_factors(i, platform.nodes.len());
        app.clear_slowdowns();
        let mut straggling = false;
        for (idx, &f) in factors.iter().enumerate() {
            if f > 1.0 {
                app.set_rank_slowdown(idx + 1, f);
                straggling = true;
            }
        }
        if straggling {
            metrics.add("fault.injected", 1.0);
            faults_injected += 1;
        }
        // 3. Outlier spikes corrupt the first measurement attempt only.
        let outlier = plan.outlier_factor(i);
        if outlier != 1.0 {
            metrics.add("fault.injected", 1.0);
            faults_injected += 1;
        }
        let n_live = platform.nodes.len();
        let mut attempt = 0usize;
        session.step(|n_fact| {
            let report = app.run_iteration(IterationChoice::fact_only(n_live, n_fact));
            let mut duration = report.duration();
            if attempt == 0 {
                duration *= outlier;
            }
            attempt += 1;
            adaphet_core::Observation::of(duration)
        });
    }
    let final_space = session.space().clone();
    let history = session.into_history();
    Ok(FaultRunOutcome { history, final_space, deaths, faults_injected })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_plan_is_a_plain_session() {
        let scen = Scenario::by_id('a').unwrap();
        let plan = FaultPlan::new(0);
        let out = run_faulted_session(
            &scen,
            Scale::Test,
            &plan,
            FaultSessionConfig {
                kind: StrategyKind::GpDiscontinuous,
                iters: 8,
                seed: 7,
                policy: ResiliencePolicy::default(),
            },
            Vec::new(),
        )
        .unwrap();
        assert_eq!(out.history.len(), 8);
        assert_eq!(out.faults_injected, 0);
        assert!(out.deaths.is_empty());
        assert_eq!(out.final_space.max_nodes, scen.n_nodes());
    }

    #[test]
    fn death_shrinks_the_space_and_annotates() {
        let scen = Scenario::by_id('a').unwrap();
        let n = scen.n_nodes();
        let plan = FaultPlan::new(0).death(3, n);
        let sink = adaphet_core::MemorySink::new();
        let out = run_faulted_session(
            &scen,
            Scale::Test,
            &plan,
            FaultSessionConfig {
                kind: StrategyKind::GpDiscontinuous,
                iters: 8,
                seed: 7,
                policy: ResiliencePolicy::standard(),
            },
            vec![Box::new(sink.clone())],
        )
        .unwrap();
        assert_eq!(out.final_space.max_nodes, n - 1);
        assert_eq!(out.deaths, vec![(3, n)]);
        assert!(out.faults_injected >= 1);
        assert!(out.history.records().iter().all(|&(a, _)| a <= n));
        let faults: Vec<String> = sink.events().iter().filter_map(|e| e.fault.clone()).collect();
        assert!(faults.iter().any(|f| f.contains(&format!("node-death:rank={n}"))), "{faults:?}");
    }

    #[test]
    fn outlier_spike_is_retried_away_under_the_standard_policy() {
        let scen = Scenario::by_id('a').unwrap();
        // A huge spike late enough for the running estimate to exist.
        let plan = FaultPlan::new(0).outlier(6, 40.0);
        let sink = adaphet_core::MemorySink::new();
        let out = run_faulted_session(
            &scen,
            Scale::Test,
            &plan,
            FaultSessionConfig {
                kind: StrategyKind::GpDiscontinuous,
                iters: 10,
                seed: 7,
                policy: ResiliencePolicy::standard(),
            },
            vec![Box::new(sink.clone())],
        )
        .unwrap();
        let spiked = &sink.events()[6];
        assert_eq!(spiked.retries, 1, "the 40x spike must trip the timeout check");
        assert_eq!(spiked.fault.as_deref(), Some("retry:1"));
        // The recorded duration is the clean re-measurement, so the
        // history's worst value stays within sane bounds.
        let max = out.history.records().iter().map(|&(_, y)| y).fold(0.0, f64::max);
        let median = {
            let mut v: Vec<f64> = out.history.records().iter().map(|&(_, y)| y).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        assert!(max < 10.0 * median, "spike leaked into the history: max {max}, median {median}");
    }

    #[test]
    fn invalid_plan_is_rejected_up_front() {
        let scen = Scenario::by_id('a').unwrap();
        let plan = FaultPlan::new(0).death(3, 99);
        let err = run_faulted_session(
            &scen,
            Scale::Test,
            &plan,
            FaultSessionConfig {
                kind: StrategyKind::GpDiscontinuous,
                iters: 8,
                seed: 7,
                policy: ResiliencePolicy::default(),
            },
            Vec::new(),
        )
        .expect_err("rank 99 does not exist");
        assert!(matches!(err, AdaphetError::FaultPlan(_)));
    }
}
