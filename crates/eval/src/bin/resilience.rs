//! Resilience demo: one tuning session against the live simulator while a
//! [`FaultPlan`](adaphet_runtime::FaultPlan) injects node deaths,
//! straggler windows and measurement outliers.
//!
//! Usage: `resilience [--test|--reduced|--full] [--iters N] [--seed N]
//! --faults plan.json [--telemetry out.jsonl] [--metrics out.json]`
//!
//! Runs GP-discontinuous with [`ResiliencePolicy::standard`] on scenario
//! (a) — the small scenario used by the CI fault smoke job — and prints a
//! per-fault account plus the `fault.injected` / `tuner.retry` /
//! `tuner.rebaseline` counters. Without `--faults` the session is
//! fault-free (useful as the control arm).

use adaphet_core::{JsonlSink, ResiliencePolicy, StrategyKind, TelemetrySink};
use adaphet_eval::{
    load_fault_plan, parse_args, run_faulted_session, AdaphetError, FaultSessionConfig, Flag,
};
use adaphet_metrics::{install_global, Registry};
use adaphet_runtime::FaultPlan;
use adaphet_scenarios::Scenario;
use std::fs::File;
use std::io::BufWriter;

fn main() -> Result<(), AdaphetError> {
    let args = parse_args(&[
        Flag::Scale,
        Flag::Iters,
        Flag::Seed,
        Flag::Telemetry,
        Flag::Metrics,
        Flag::Faults,
    ])?;
    let registry = install_global(Registry::new());
    let plan = load_fault_plan(&args)?.unwrap_or_else(|| FaultPlan::new(args.seed));
    let scen = Scenario::by_id('a').expect("scenario a exists");
    let iters = args.iters.min(60); // live simulation, keep the default sane

    let mut sinks: Vec<Box<dyn TelemetrySink>> = Vec::new();
    if let Some(p) = &args.telemetry {
        let f = File::create(p).map_err(|e| AdaphetError::io(p, e))?;
        sinks.push(Box::new(JsonlSink::new(BufWriter::new(f))));
    }

    println!("Resilience — {} | {iters} iterations, seed {}", scen.label(), args.seed);
    if plan.is_empty() {
        println!("  fault plan: (none — fault-free control run)");
    } else {
        println!("  fault plan: {}", plan.to_json());
    }
    let cfg = FaultSessionConfig {
        kind: StrategyKind::GpDiscontinuous,
        iters,
        seed: args.seed,
        policy: ResiliencePolicy::standard(),
    };
    let out = run_faulted_session(&scen, args.scale, &plan, cfg, sinks)?;

    for (it, rank) in &out.deaths {
        println!("  iteration {it}: node rank {rank} died");
    }
    println!("  surviving platform: {} nodes", out.final_space.max_nodes);
    println!(
        "  history: {} records, total time {:.2}s",
        out.history.len(),
        out.history.total_time()
    );
    if let Some(best) = out.history.best_action() {
        println!("  best surviving action: {best} nodes");
    }
    let counter = |name: &str| {
        registry.snapshot().counters.iter().find(|(n, _)| n == name).map_or(0.0, |&(_, v)| v)
    };
    println!(
        "  counters: fault.injected={} tuner.retry={} tuner.rebaseline={} tuner.quarantine={}",
        counter("fault.injected"),
        counter("tuner.retry"),
        counter("tuner.rebaseline"),
        counter("tuner.quarantine"),
    );
    if let Some(p) = &args.telemetry {
        println!("wrote {}", p.display());
    }
    if let Some(p) = &args.metrics {
        adaphet_eval::write_metrics_report(&registry.snapshot(), p)
            .map_err(|e| AdaphetError::io(p, e))?;
    }
    Ok(())
}
