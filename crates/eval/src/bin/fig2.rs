//! Figure 2: the three representative response curves — (c) SD 10L-10S
//! 128, (i) G5K 6L-30S 101, (p) SD 64L-64S 128 — with the asynchronous
//! generation / factorization phase spans per configuration.
//!
//! Output: `results/fig2.csv` with columns
//! `scenario,n,mean,sd,lp,gen_span,fact_span`.

use adaphet_eval::{
    ascii_curve, build_response_cached, parse_args, write_csv, AdaphetError, CsvTable, Flag,
};
use adaphet_geostat::IterationChoice;
use adaphet_scenarios::Scenario;

/// Phase spans (generation, factorization) of one steady iteration.
fn phase_spans(scen: &Scenario, scale: adaphet_scenarios::Scale, n_fact: usize) -> (f64, f64) {
    let mut app = scen.app(scale, 0);
    let n = app.n_nodes();
    app.run_iteration(IterationChoice::fact_only(n, n_fact));
    let r = app.run_iteration(IterationChoice::fact_only(n, n_fact));
    let trace = app.runtime().trace();
    let span = |phase: u32| {
        let evs: Vec<_> =
            trace.events().iter().filter(|e| e.phase == phase && e.start >= r.start).collect();
        if evs.is_empty() {
            return 0.0;
        }
        let lo = evs.iter().map(|e| e.start).fold(f64::INFINITY, f64::min);
        let hi = evs.iter().map(|e| e.end).fold(0.0_f64, f64::max);
        hi - lo
    };
    (span(0), span(1))
}

fn main() -> Result<(), AdaphetError> {
    let args = parse_args(&[Flag::Scale, Flag::Reps, Flag::Seed])?;
    let mut csv = CsvTable::new(&["scenario", "n", "mean", "sd", "lp", "gen_span", "fact_span"]);
    for id in ['c', 'i', 'p'] {
        let scen = Scenario::by_id(id).expect("known scenario");
        let t = build_response_cached(&scen, args.scale, args.reps, args.seed);
        let means: Vec<f64> = (1..=t.n_actions()).map(|n| t.mean(n)).collect();
        // Phase spans at a handful of representative points (full sweeps
        // of traced runs are expensive); stride so ~12 points are probed.
        let stride = (t.n_actions() / 12).max(1);
        for n in 1..=t.n_actions() {
            let (gen, fact) = if (n - 1) % stride == 0 || n == t.n_actions() {
                phase_spans(&scen, args.scale, n)
            } else {
                (f64::NAN, f64::NAN)
            };
            csv.push(vec![
                id.to_string(),
                n.to_string(),
                format!("{:.4}", t.mean(n)),
                format!("{:.4}", t.sd(n)),
                format!("{:.4}", t.lp[n - 1]),
                format!("{gen:.4}"),
                format!("{fact:.4}"),
            ]);
        }
        println!("{}", ascii_curve(&t.label, &means, 10));
        println!(
            "  best n = {} ({:.2}s), all = {:.2}s\n",
            t.best_action(),
            t.mean(t.best_action()),
            t.all_nodes_mean()
        );
    }
    let path = write_csv("fig2", &csv).map_err(|e| AdaphetError::io("results/fig2.csv", e))?;
    println!("wrote {}", path.display());
    Ok(())
}
