//! Figure 8: 2D heatmap of the iteration duration when varying *both* the
//! number of generation nodes and factorization nodes, for scenario
//! (f) G5K 2L-6M-15S 128 — showing that all-nodes generation is not always
//! optimal (the paper finds a ≈3% win at 10 generation / 8 factorization
//! nodes).
//!
//! Output: `results/fig8.csv` with columns `n_gen,n_fact,duration`.

use adaphet_eval::{build_response_2d, parse_args, write_csv, AdaphetError, CsvTable, Flag};
use adaphet_scenarios::Scenario;

fn main() -> Result<(), AdaphetError> {
    let args = parse_args(&[Flag::Scale, Flag::Seed])?;
    let scen = Scenario::by_id('f').expect("scenario f");
    let n = scen.n_nodes();
    let grid = build_response_2d(&scen, args.scale, 2, args.seed);

    let mut csv = CsvTable::new(&["n_gen", "n_fact", "duration"]);
    for &((g, f), d) in &grid {
        csv.push(vec![g.to_string(), f.to_string(), format!("{d:.4}")]);
    }

    let &((bg, bf), best) =
        grid.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).expect("non-empty grid");
    // Best with all-nodes generation (the 1D tuner's reach).
    let &((_, bf1), best_gen_all) = grid
        .iter()
        .filter(|&&((g, _), _)| g == n)
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .expect("all-gen column present");

    println!("Fig. 8 — 2D (generation x factorization) response, {}", scen.label());
    println!("  best overall:            gen={bg:>3} fact={bf:>3}  {best:.3}s");
    println!("  best with all-nodes gen: gen={n:>3} fact={bf1:>3}  {best_gen_all:.3}s");
    println!("  2D gain over 1D tuning: {:.2}%", 100.0 * (1.0 - best / best_gen_all));
    // Compact heatmap rendering (rows = n_gen, cols = n_fact).
    let axis: Vec<usize> = {
        let mut v: Vec<usize> = grid.iter().map(|&((g, _), _)| g).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let max = grid.iter().map(|&(_, d)| d).fold(0.0_f64, f64::max);
    let shades = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    println!("  heatmap (rows: n_gen; cols: n_fact; darker = slower):");
    for &g in axis.iter().rev() {
        let mut row = String::new();
        for &f in &axis {
            let d = grid
                .iter()
                .find(|&&((gg, ff), _)| gg == g && ff == f)
                .map(|&(_, d)| d)
                .unwrap_or(f64::NAN);
            let idx = ((d / max) * (shades.len() - 1) as f64).round() as usize;
            row.push(shades[idx.min(shades.len() - 1)]);
        }
        println!("   gen {g:>3} |{row}|");
    }
    let path = write_csv("fig8", &csv).map_err(|e| AdaphetError::io("results/fig8.csv", e))?;
    println!("wrote {}", path.display());
    Ok(())
}
