//! Figure 7: wall-clock overhead of the online GP-discontinuous strategy,
//! measured against the *real* (threaded, numerical) application: ten
//! repetitions of a run where each iteration evaluates the likelihood and
//! the [`Session`] proposes/records around it.
//!
//! The paper reports ~0.04–0.06 s of tuner time against 10–30 s
//! iterations; our shared-memory iterations are smaller, so the claim
//! checked here is the same *relative* one: tuner cost ≪ iteration cost
//! and roughly constant per iteration after the initialization phase.
//!
//! Overhead is measured as (driver step time − application time), i.e.
//! propose + record + event dispatch. With `--telemetry <path>` the
//! driver additionally streams JSONL events, whose cost (including the
//! strategy's `explain` diagnostics) then shows up in the overhead
//! column — useful for sizing the cost of observability itself.
//!
//! Output: `results/fig7.csv` with columns
//! `repetition,iteration,overhead_s,iteration_s`.

use adaphet_core::{ActionSpace, JsonlSink, Observation, Session, StrategyKind};
use adaphet_eval::{parse_args, sweep, write_csv, write_metrics_report, AdaphetError, CsvTable};
use adaphet_geostat::{CovParams, GeoRealApp, Workload};
use std::fs::File;
use std::io::BufWriter;
use std::time::Instant;

fn main() -> Result<(), AdaphetError> {
    let args = parse_args()?;
    // With --metrics, install the global recorder up front so GP fits,
    // LP solves, and likelihood phases report while the study runs.
    let metrics_registry = args
        .metrics
        .as_ref()
        .map(|_| adaphet_metrics::install_global(adaphet_metrics::Registry::new()));
    let reps = 10usize;
    let iters = 25usize;
    let telemetry_file = match &args.telemetry {
        Some(p) => Some(File::create(p).map_err(|e| AdaphetError::io(p, e))?),
        None => None,
    };
    // Pretend cluster structure for the tuner (the real executor is one
    // node; the tuner's cost does not depend on where durations come from).
    let n_actions = 14;
    let lp: Vec<f64> = (1..=n_actions).map(|n| 3.0 / n as f64).collect();
    let space = ActionSpace::new(n_actions, vec![(1, 2), (3, 8), (9, 14)], Some(lp));

    let mut csv = CsvTable::new(&["repetition", "iteration", "overhead_s", "iteration_s"]);
    let workload = Workload::new(6, 48);
    let params = CovParams { variance: 1.0, range: 0.15, smoothness: 0.5 };
    // One repetition: drive the tuner against the real application and
    // return per-iteration (overhead, iteration) second pairs.
    let run_rep = |rep: usize| -> Result<Vec<(f64, f64)>, AdaphetError> {
        let mut app = GeoRealApp::new(workload, params, args.seed + rep as u64, 4);
        let mut session = Session::builder(&space)
            .kind(StrategyKind::GpDiscontinuous)
            .seed(args.seed + rep as u64)
            .build()?;
        if let Some(f) = &telemetry_file {
            let handle = f.try_clone().map_err(|e| {
                AdaphetError::io(args.telemetry.as_ref().expect("telemetry file is open"), e)
            })?;
            session.add_sink(Box::new(JsonlSink::new(BufWriter::new(handle))));
        }
        let mut rows = Vec::with_capacity(iters);
        for it in 0..iters {
            let range = 0.05 + 0.01 * it as f64;
            let mut app_secs = 0.0f64;
            let t0 = Instant::now();
            session.step(|_n| {
                // The application iteration (likelihood evaluation); the
                // proposed node count cannot steer a one-node process, so
                // the tuner only sees the wall time.
                let (_ll, wall) = app.eval_likelihood(CovParams { range, ..params });
                app_secs = wall.as_secs_f64();
                Observation::of(app_secs)
            });
            let overhead = (t0.elapsed().as_secs_f64() - app_secs).max(0.0);
            rows.push((overhead, app_secs));
        }
        session.finish().map_err(|e| AdaphetError::io("telemetry stream", e))?;
        Ok(rows)
    };
    // This figure *measures wall-clock time*: concurrent repetitions
    // would contend for cores and inflate every overhead sample, so the
    // sweep is pinned sequential regardless of flags — it still shares
    // the order-preserving runner (and CSV assembly) with the other
    // figures.
    let mut per_iter_overhead = vec![0.0f64; iters];
    for (rep, rows) in sweep((0..reps).collect(), true, run_rep).into_iter().enumerate() {
        for (it, (overhead, app_secs)) in rows?.into_iter().enumerate() {
            per_iter_overhead[it] += overhead / reps as f64;
            csv.push(vec![
                rep.to_string(),
                (it + 1).to_string(),
                format!("{overhead:.6}"),
                format!("{app_secs:.6}"),
            ]);
        }
    }
    println!("Fig. 7 — GP-discontinuous online overhead ({reps} reps x {iters} iters)");
    for (it, o) in per_iter_overhead.iter().enumerate() {
        let bar = "#".repeat(((o * 2e4) as usize).min(60));
        println!("  iter {:>2}: {:>9.5}s |{bar}", it + 1, o);
    }
    let init: f64 = per_iter_overhead[..5].iter().sum::<f64>() / 5.0;
    let steady: f64 = per_iter_overhead[5..].iter().sum::<f64>() / (iters - 5) as f64;
    println!("  mean overhead: init phase {init:.5}s, GP phase {steady:.5}s");
    let path = write_csv("fig7", &csv).map_err(|e| AdaphetError::io("results/fig7.csv", e))?;
    println!("wrote {}", path.display());
    if let Some(p) = &args.telemetry {
        println!("wrote {}", p.display());
    }
    if let (Some(p), Some(reg)) = (&args.metrics, &metrics_registry) {
        write_metrics_report(&reg.snapshot(), p).map_err(|e| AdaphetError::io(p, e))?;
    }
    Ok(())
}
