//! Figure 3: the didactic GP fit — eight noisy measurements of `cos` over
//! `[0, 4π]`, the predictive mean, the 95% confidence band and the next
//! UCB-selected point.
//!
//! Output: `results/fig3.csv` with columns
//! `x,truth,mean,lo95,hi95,is_next` plus the measurement list.

use adaphet_eval::{parse_args, write_csv, AdaphetError, CsvTable};
use adaphet_gp::{GpConfig, GpModel, Kernel, Trend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), AdaphetError> {
    parse_args(&[])?;
    let mut rng = StdRng::seed_from_u64(3);
    let sigma_n = 0.1;
    // Eight random measurement locations over [0, 4π].
    let xs: Vec<f64> = (0..8).map(|_| rng.random_range(0.0..4.0 * std::f64::consts::PI)).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| x.cos() + rng.random_range(-sigma_n..sigma_n)).collect();

    let gp = GpModel::fit(
        GpConfig {
            kernel: Kernel::SquaredExponential { theta: 1.2 },
            process_var: 1.0,
            noise_var: sigma_n * sigma_n,
            trend: Trend::none(), // reverts to 0 far from data, as in the paper
        },
        &xs,
        &ys,
    )
    .expect("GP fit");

    let grid: Vec<f64> = (0..=200).map(|i| i as f64 / 200.0 * 4.0 * std::f64::consts::PI).collect();
    // "Most promising point under uncertainty": maximize mean + 2 sd
    // (the paper's red cross maximizes the function).
    let next_x = grid
        .iter()
        .copied()
        .max_by(|&a, &b| {
            let pa = gp.predict(a);
            let pb = gp.predict(b);
            (pa.mean + 2.0 * pa.sd()).partial_cmp(&(pb.mean + 2.0 * pb.sd())).unwrap()
        })
        .unwrap();

    let mut csv = CsvTable::new(&["x", "truth", "mean", "lo95", "hi95", "is_next"]);
    let mut inside_band = 0usize;
    for &x in &grid {
        let p = gp.predict(x);
        let (lo, hi) = (p.mean - 1.96 * p.sd(), p.mean + 1.96 * p.sd());
        if (lo..=hi).contains(&x.cos()) {
            inside_band += 1;
        }
        csv.push(vec![
            format!("{x:.4}"),
            format!("{:.4}", x.cos()),
            format!("{:.4}", p.mean),
            format!("{lo:.4}"),
            format!("{hi:.4}"),
            ((x - next_x).abs() < 1e-9).to_string(),
        ]);
    }
    println!("Fig. 3 — GP fit of cos with 8 noisy samples");
    println!(
        "  measurements: {:?}",
        xs.iter().map(|x| (x * 100.0).round() / 100.0).collect::<Vec<_>>()
    );
    println!("  next point to evaluate (mean + 2sd): x = {next_x:.3}");
    println!("  truth inside the 95% band at {}/{} grid points", inside_band, grid.len());
    let path = write_csv("fig3", &csv).map_err(|e| AdaphetError::io("results/fig3.csv", e))?;
    println!("wrote {}", path.display());
    Ok(())
}
