//! Figure 5 (superset of Figure 2): response curves of all 16 scenarios —
//! mean iteration duration vs. number of factorization nodes, the LP
//! prediction, and the rigid generation=factorization line.
//!
//! Output: `results/fig5.csv` with columns
//! `scenario,n,mean,sd,lp,rigid,group` and an ASCII curve per scenario.

use adaphet_eval::{
    ascii_curve, build_response_cached, build_rigid_curve, parse_args, write_csv, AdaphetError,
    CsvTable, Flag,
};
use adaphet_scenarios::Scenario;

fn main() -> Result<(), AdaphetError> {
    let args = parse_args(&[Flag::Scale, Flag::Reps, Flag::Seed])?;
    let mut csv = CsvTable::new(&["scenario", "n", "mean", "sd", "lp", "rigid", "group"]);
    for scen in Scenario::all16() {
        let t = build_response_cached(&scen, args.scale, args.reps, args.seed);
        let rigid = build_rigid_curve(&scen, args.scale, args.seed);
        let means: Vec<f64> = (1..=t.n_actions()).map(|n| t.mean(n)).collect();
        for n in 1..=t.n_actions() {
            let group = t.groups.iter().position(|&(lo, hi)| n >= lo && n <= hi).unwrap_or(0);
            csv.push(vec![
                scen.id.to_string(),
                n.to_string(),
                format!("{:.4}", t.mean(n)),
                format!("{:.4}", t.sd(n)),
                format!("{:.4}", t.lp[n - 1]),
                format!("{:.4}", rigid[n - 1]),
                group.to_string(),
            ]);
        }
        let best = t.best_action();
        println!(
            "{}\n  best n = {best} ({:.2}s) vs all nodes {:.2}s  [groups {:?}]",
            ascii_curve(&t.label, &means, 8),
            t.mean(best),
            t.all_nodes_mean(),
            t.groups,
        );
    }
    let path = write_csv("fig5", &csv).map_err(|e| AdaphetError::io("results/fig5.csv", e))?;
    println!("wrote {}", path.display());
    Ok(())
}
