//! Figure 4: step-by-step surrogate states — (A) GP-UCB on (b) G5K
//! 2L-6M-6S 101, (B) GP-UCB on (i) G5K 6L-30S 101, (C) GP-discontinuous on
//! (i) — captured at iterations 5, 8, 20 and 100.
//!
//! Output: `results/fig4.csv` with columns
//! `panel,iteration,n,real_mean,surrogate_mean,surrogate_lcb,count,in_bounds`.

use adaphet_core::{GpDiscontinuous, History, Strategy};
use adaphet_eval::{
    build_response_cached, parse_args, space_of, write_csv, AdaphetError, CsvTable, ResponseTable,
};
use adaphet_scenarios::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

const CHECKPOINTS: [usize; 4] = [5, 8, 20, 100];

fn dump(
    csv: &mut CsvTable,
    panel: &str,
    iter: usize,
    table: &ResponseTable,
    hist: &History,
    g: &GpDiscontinuous,
) {
    let curve = g.surrogate_curve(hist);
    let beta = g.schedule.beta(iter, table.n_actions());
    for n in 1..=table.n_actions() {
        let (mean, lcb, in_bounds) = match &curve {
            Some(curve) => {
                let pt = &curve[n - 1];
                (pt.mean, pt.mean - beta.sqrt() * pt.sd, !pt.excluded)
            }
            None => (f64::NAN, f64::NAN, true),
        };
        csv.push(vec![
            panel.to_string(),
            iter.to_string(),
            n.to_string(),
            format!("{:.4}", table.mean(n)),
            format!("{mean:.4}"),
            format!("{lcb:.4}"),
            hist.count_for(n).to_string(),
            in_bounds.to_string(),
        ]);
    }
}

fn run_panel(csv: &mut CsvTable, panel: &str, table: &ResponseTable, use_disc: bool, seed: u64) {
    let space = space_of(table);
    let mut g =
        if use_disc { GpDiscontinuous::new(&space) } else { GpDiscontinuous::gp_ucb(&space) };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hist = History::new();
    println!("\npanel {panel} — {}", table.label);
    for it in 1..=*CHECKPOINTS.last().unwrap() {
        let a = g.propose(&space, &hist);
        hist.record(a, table.draw(a, &mut rng));
        if CHECKPOINTS.contains(&it) {
            dump(csv, panel, it, table, &hist, &g);
            let counts: Vec<(usize, usize)> = (1..=table.n_actions())
                .map(|n| (n, hist.count_for(n)))
                .filter(|&(_, c)| c > 0)
                .collect();
            println!("  iter {it:>3}: counts {counts:?}");
        }
    }
    let best = table.best_action();
    let late = hist.records()[hist.len() - 20..]
        .iter()
        .filter(|&&(a, _)| (a as i64 - best as i64).abs() <= 1)
        .count();
    println!("  true best = {best}; late plays within ±1 of best: {late}/20");
}

fn main() -> Result<(), AdaphetError> {
    let args = parse_args()?;
    let mut csv = CsvTable::new(&[
        "panel",
        "iteration",
        "n",
        "real_mean",
        "surrogate_mean",
        "surrogate_lcb",
        "count",
        "in_bounds",
    ]);
    let b = build_response_cached(&Scenario::by_id('b').unwrap(), args.scale, args.reps, args.seed);
    let i = build_response_cached(&Scenario::by_id('i').unwrap(), args.scale, args.reps, args.seed);
    run_panel(&mut csv, "A:GP-UCB:b", &b, false, args.seed);
    run_panel(&mut csv, "B:GP-UCB:i", &i, false, args.seed);
    run_panel(&mut csv, "C:GP-discontinuous:i", &i, true, args.seed);
    let path = write_csv("fig4", &csv).map_err(|e| AdaphetError::io("results/fig4.csv", e))?;
    println!("\nwrote {}", path.display());
    Ok(())
}
