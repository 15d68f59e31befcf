//! Ablation study of GP-discontinuous's design choices (DESIGN.md):
//! remove each ingredient — the LP bound mechanism, the group dummy
//! variables, the LP-residual trend — and measure the regression on the
//! scenarios where the paper motivates them: (i) in-group breaks, (n)/(o)
//! discontinuities + plateaus, (p) the large-gain case.
//!
//! Output: `results/ablation.csv` with columns
//! `scenario,variant,mean_total,gain_pct`.

use adaphet_core::{GpDiscOptions, GpDiscontinuous, History, Strategy};
use adaphet_eval::{
    parse_args, space_of, sweep_response_tables, write_csv, AdaphetError, CsvTable, Flag,
    ResponseTable,
};
use adaphet_scenarios::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

fn variant_options(name: &str) -> GpDiscOptions {
    match name {
        "full" => GpDiscOptions::default(),
        "no-bounds" => GpDiscOptions { use_bounds: false, ..Default::default() },
        "no-dummies" => GpDiscOptions { use_dummies: false, ..Default::default() },
        "no-lp-residual" => GpDiscOptions { use_lp_residual: false, ..Default::default() },
        "plain" => GpDiscOptions { use_bounds: false, use_dummies: false, use_lp_residual: false },
        other => panic!("unknown variant {other}"),
    }
}

fn replay_variant(table: &ResponseTable, opts: &GpDiscOptions, iters: usize, seed: u64) -> f64 {
    let space = space_of(table);
    let mut strat = GpDiscontinuous::with_options(&space, opts.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hist = History::new();
    for _ in 0..iters {
        let a = strat.propose(&space, &hist);
        hist.record(a, table.draw(a, &mut rng));
    }
    hist.total_time()
}

fn main() -> Result<(), AdaphetError> {
    let args = parse_args(&[Flag::Scale, Flag::Reps, Flag::Iters, Flag::Seed, Flag::Sequential])?;
    let variants = ["full", "no-bounds", "no-dummies", "no-lp-residual", "plain"];
    let mut csv = CsvTable::new(&["scenario", "variant", "mean_total", "gain_pct"]);
    println!("GP-discontinuous ablation — {} iterations x {} reps\n", args.iters, args.reps);
    let ids = ['i', 'n', 'o', 'p'];
    let scenarios: Vec<Scenario> =
        ids.iter().map(|&id| Scenario::by_id(id).expect("known scenario")).collect();
    // Simulation pass fanned across cores; replays below keep scenario order.
    let tables =
        sweep_response_tables(&scenarios, args.scale, args.reps, args.seed, args.sequential);
    for (id, table) in ids.into_iter().zip(tables) {
        let all_total = table.all_nodes_mean() * args.iters as f64;
        println!("{}", table.label);
        for v in variants {
            let opts = variant_options(v);
            let totals: Vec<f64> = (0..args.reps)
                .into_par_iter()
                .map(|r| replay_variant(&table, &opts, args.iters, args.seed + r as u64))
                .collect();
            let mean = totals.iter().sum::<f64>() / totals.len() as f64;
            let gain = 100.0 * (1.0 - mean / all_total);
            println!("  {v:<15} total {mean:>9.1}s  gain {gain:>6.1}%");
            csv.push(vec![
                id.to_string(),
                v.to_string(),
                format!("{mean:.2}"),
                format!("{gain:.2}"),
            ]);
        }
        println!();
    }
    let path =
        write_csv("ablation", &csv).map_err(|e| AdaphetError::io("results/ablation.csv", e))?;
    println!("wrote {}", path.display());
    Ok(())
}
