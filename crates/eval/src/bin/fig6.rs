//! Figure 6 — the paper's main result: all seven exploration strategies on
//! all 16 scenarios, mean total application time of 30 executions after
//! 127 iterations, with the percentage gain over always using all nodes
//! and the all-nodes / oracle reference lines.
//!
//! Output: `results/fig6.csv` with columns
//! `scenario,strategy,mean_total,sd_total,gain_pct,all_nodes_total,oracle_total`.
//!
//! With `--telemetry <path>`, one additional instrumented replay per
//! (scenario, strategy) streams per-iteration `IterationEvent` JSONL to
//! the given path (posterior, acquisition and LP-bound exclusions
//! included for the strategies that can explain themselves).

use adaphet_core::JsonlSink;
use adaphet_eval::{
    parse_args, replay_instrumented, replay_many, run_metrics_session, sweep_response_tables,
    write_csv, write_metrics_report, AdaphetError, CsvTable, Flag, StrategyKind, PAPER_STRATEGIES,
};
use adaphet_scenarios::Scenario;
use std::fs::File;
use std::io::BufWriter;

fn main() -> Result<(), AdaphetError> {
    let args = parse_args(&[
        Flag::Scale,
        Flag::Reps,
        Flag::Iters,
        Flag::Seed,
        Flag::Telemetry,
        Flag::Metrics,
        Flag::Sequential,
    ])?;
    let telemetry_file = match &args.telemetry {
        Some(p) => Some(File::create(p).map_err(|e| AdaphetError::io(p, e))?),
        None => None,
    };
    let mut csv = CsvTable::new(&[
        "scenario",
        "strategy",
        "mean_total",
        "sd_total",
        "gain_pct",
        "all_nodes_total",
        "oracle_total",
    ]);
    println!("Fig. 6 — {} iterations x {} repetitions per strategy\n", args.iters, args.reps);
    let mut gp_disc_wins = 0usize;
    let mut gp_disc_never_bad = true;
    // The simulation pass dominates; fan it across cores (per-scenario
    // seeding keeps the tables — and so the CSV — byte-identical to a
    // `--sequential` run). Replays below stay in scenario order.
    let scenarios = Scenario::all16();
    let tables =
        sweep_response_tables(&scenarios, args.scale, args.reps, args.seed, args.sequential);
    for (scen, table) in scenarios.iter().zip(tables) {
        let all = replay_many(StrategyKind::AllNodes, &table, args.iters, args.reps, args.seed);
        let oracle = replay_many(StrategyKind::Oracle, &table, args.iters, args.reps, args.seed);
        println!("{}", table.label);
        println!(
            "  all-nodes {:>9.1}s | oracle {:>9.1}s (best n = {})",
            all.mean_total,
            oracle.mean_total,
            table.best_action()
        );
        let mut best_strategy: (Option<StrategyKind>, f64) = (None, f64::INFINITY);
        for kind in PAPER_STRATEGIES {
            let s = replay_many(kind, &table, args.iters, args.reps, args.seed);
            println!(
                "  {:<16} {:>9.1}s  gain {:>6.1}%",
                s.strategy,
                s.mean_total,
                100.0 * s.gain_vs_all
            );
            if s.mean_total < best_strategy.1 {
                best_strategy = (Some(kind), s.mean_total);
            }
            if kind == StrategyKind::GpDiscontinuous && s.gain_vs_all < -0.02 {
                gp_disc_never_bad = false;
            }
            if let Some(f) = &telemetry_file {
                // One extra instrumented replay (first repetition's seed):
                // telemetry stays off the measured replays above.
                let handle = f.try_clone().map_err(|e| {
                    AdaphetError::io(args.telemetry.as_ref().expect("telemetry file is open"), e)
                })?;
                let sink = JsonlSink::new(BufWriter::new(handle));
                replay_instrumented(kind, &table, args.iters, args.seed, vec![Box::new(sink)]);
            }
            csv.push(vec![
                scen.id.to_string(),
                s.strategy.clone(),
                format!("{:.2}", s.mean_total),
                format!("{:.2}", s.sd_total),
                format!("{:.2}", 100.0 * s.gain_vs_all),
                format!("{:.2}", all.mean_total),
                format!("{:.2}", oracle.mean_total),
            ]);
        }
        if best_strategy.0 == Some(StrategyKind::GpDiscontinuous) {
            gp_disc_wins += 1;
        }
        println!();
    }
    println!("GP-discontinuous was the single best strategy in {gp_disc_wins}/16 scenarios");
    println!("GP-discontinuous never lost more than 2% to all-nodes: {gp_disc_never_bad}");
    let path = write_csv("fig6", &csv).map_err(|e| AdaphetError::io("results/fig6.csv", e))?;
    println!("wrote {}", path.display());
    if let Some(p) = &args.telemetry {
        println!("wrote {}", p.display());
    }
    if let Some(p) = &args.metrics {
        // One fully instrumented GP-discontinuous session against the
        // simulated application of scenario (a): the MetricsReport holds
        // registry counters from the whole stack plus per-iteration phase
        // durations and node-group utilization.
        let scen = Scenario::by_id('a').expect("scenario a exists");
        let report = run_metrics_session(&scen, args.scale, args.iters, args.seed);
        write_metrics_report(&report, p).map_err(|e| AdaphetError::io(p, e))?;
    }
    Ok(())
}
