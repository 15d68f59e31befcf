//! Figure 1: per-node resource-utilization timeline across three
//! iterations with different node choices — small homogeneous subset, all
//! nodes for both phases, then all-for-generation / fast-for-factorization.
//!
//! Output: `results/fig1.csv` with columns
//! `iteration,node,phase,bin_start,utilization` and an ASCII utilization
//! strip per node.

use adaphet_eval::{parse_args, write_csv, AdaphetError, CsvTable, Flag};
use adaphet_geostat::IterationChoice;
use adaphet_runtime::NodeId;
use adaphet_scenarios::Scenario;

fn main() -> Result<(), AdaphetError> {
    let args = parse_args(&[Flag::Scale, Flag::Seed])?;
    let scen = Scenario::by_id('b').expect("scenario b exists"); // G5K 2L-6M-6S
    let mut app = scen.app(args.scale, args.seed);
    let n = app.n_nodes();

    // The paper's three situations.
    let choices = [
        IterationChoice { n_gen: 8, n_fact: 8 },
        IterationChoice { n_gen: n, n_fact: n },
        IterationChoice { n_gen: n, n_fact: 8 },
    ];
    let mut windows = Vec::new();
    for c in choices {
        let r = app.run_iteration(c);
        windows.push((r.start, r.end));
    }

    let mut csv = CsvTable::new(&["iteration", "node", "phase", "bin_start", "utilization"]);
    let trace = app.runtime().trace();
    println!("Fig. 1 — resource utilization, scenario {}", scen.label());
    for (it, &(t0, t1)) in windows.iter().enumerate() {
        let dt = (t1 - t0) / 60.0;
        println!(
            "\niteration {} [{:.2}s .. {:.2}s] (gen={}, fact={})",
            it + 1,
            t0,
            t1,
            choices[it].n_gen,
            choices[it].n_fact
        );
        for node in 0..n {
            let workers = app.runtime().platform().node(NodeId(node)).cpu_cores
                + app.runtime().platform().node(NodeId(node)).gpus;
            let mut strip = String::new();
            for phase in 0..5u32 {
                let u = trace.utilization(NodeId(node), workers, Some(phase), t0, t1, dt);
                for (b, &v) in u.iter().enumerate() {
                    csv.push(vec![
                        (it + 1).to_string(),
                        node.to_string(),
                        phase.to_string(),
                        format!("{:.4}", t0 + b as f64 * dt),
                        format!("{v:.4}"),
                    ]);
                }
            }
            // ASCII strip: generation 'g', factorization '#', idle '.'.
            let gen = trace.utilization(NodeId(node), workers, Some(0), t0, t1, dt);
            let fact = trace.utilization(NodeId(node), workers, Some(1), t0, t1, dt);
            for (g, f) in gen.iter().zip(&fact) {
                strip.push(if *f > 0.3 {
                    '#'
                } else if *g > 0.3 {
                    'g'
                } else if *f > 0.02 || *g > 0.02 {
                    '-'
                } else {
                    '.'
                });
            }
            println!("  node {node:>3} |{strip}|");
        }
    }
    let path = write_csv("fig1", &csv).map_err(|e| AdaphetError::io("results/fig1.csv", e))?;
    println!("\nwrote {}", path.display());
    Ok(())
}
