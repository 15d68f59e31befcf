//! Table I: empirical verification of the qualitative strategy properties
//! the paper claims (noise-resilient / optimal / fast), on synthetic
//! response families that isolate each property:
//!
//! * **fast** — exploration overhead (total regret) on a clean convex
//!   curve;
//! * **optimal** — can the strategy *identify* (most-played late action)
//!   a near-optimal point when the optimum hides inside a group behind a
//!   discontinuity;
//! * **resilient** — does identification still succeed under heavy
//!   observation noise.
//!
//! Output: `results/table1.csv` with one row per strategy and the measured
//! verdicts next to the paper's expectations. With `--telemetry <path>`,
//! the first repetition of each measurement streams IterationEvent JSONL.

use adaphet_core::{ActionSpace, JsonlSink, Observation, Session, StrategyKind};
use adaphet_eval::{
    parse_args, sweep, write_csv, write_metrics_report, AdaphetError, CsvTable, Flag,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::BufWriter;

const N: usize = 24;
const REPS: usize = 12;
const ITERS: usize = 130;

fn space() -> ActionSpace {
    let lp: Vec<f64> = (1..=N).map(|n| 96.0 / n as f64).collect();
    ActionSpace::new(N, vec![(1, 4), (5, 12), (13, 24)], Some(lp))
}

/// Clean, fairly steep convex curve (minimum near n = 7).
fn smooth(n: usize) -> f64 {
    96.0 / n as f64 + 1.8 * n as f64
}

/// Quadratic valley with an interior optimum (n = 9) plus a jump when the
/// slow third group joins — boundary arms are clearly suboptimal.
fn discontinuous(n: usize) -> f64 {
    let base = 20.0 + 0.5 * (n as f64 - 9.0).powi(2);
    if n >= 13 {
        base + 12.0
    } else {
        base
    }
}

/// Valley whose optimum sits exactly on a group boundary (n = 12), so it
/// is reachable by every strategy including UCB-struct — the fair arena
/// for the *noise-resilience* measurement.
fn boundary_valley(n: usize) -> f64 {
    25.0 + 0.5 * (n as f64 - 12.0).powi(2) + 0.3 * n as f64
}

fn argmin(f: fn(usize) -> f64) -> usize {
    (1..=N).min_by(|&a, &b| f(a).partial_cmp(&f(b)).unwrap()).unwrap()
}

/// Drive `kind` for [`ITERS`] iterations of the noisy response `f`,
/// optionally streaming telemetry, and return the action history.
fn drive(
    kind: StrategyKind,
    f: fn(usize) -> f64,
    noise_amp: f64,
    seed: u64,
    rng_seed: u64,
    telemetry: Option<&File>,
) -> adaphet_core::History {
    let sp = space();
    let best = argmin(f);
    let mut session = Session::builder(&sp)
        .kind(kind)
        .seed(seed)
        .oracle_best(best)
        .best_known(f(best))
        .build()
        .expect("the oracle's best action is provided");
    if let Some(file) = telemetry {
        session.add_sink(Box::new(JsonlSink::new(BufWriter::new(
            file.try_clone().expect("clone telemetry file handle"),
        ))));
    }
    let mut rng = StdRng::seed_from_u64(rng_seed);
    session.run(ITERS, |a| {
        let noise = if noise_amp > 0.0 { rng.random_range(-noise_amp..noise_amp) } else { 0.0 };
        Observation::of(f(a) + noise)
    });
    session.into_history()
}

/// Identification rate: fraction of repetitions whose most-played action
/// over the last 40 iterations has a true value within 6% of the optimum.
fn identification_rate(
    kind: StrategyKind,
    f: fn(usize) -> f64,
    noise_amp: f64,
    seed: u64,
    telemetry: Option<&File>,
) -> f64 {
    let best = argmin(f);
    let mut ok = 0usize;
    for rep in 0..REPS {
        let hist = drive(
            kind,
            f,
            noise_amp,
            seed + rep as u64,
            seed ^ ((rep as u64) << 8),
            telemetry.filter(|_| rep == 0),
        );
        let mut counts = [0usize; N + 1];
        for &(a, _) in &hist.records()[ITERS - 40..] {
            counts[a] += 1;
        }
        let identified = (1..=N).max_by_key(|&a| counts[a]).expect("non-empty");
        if f(identified) <= 1.06 * f(best) {
            ok += 1;
        }
    }
    ok as f64 / REPS as f64
}

/// Mean total-regret fraction vs. the clairvoyant optimum on a clean curve.
fn regret_fraction(kind: StrategyKind, f: fn(usize) -> f64, seed: u64) -> f64 {
    let best = argmin(f);
    let mut total = 0.0;
    for rep in 0..REPS {
        let hist = drive(kind, f, 0.0, seed + rep as u64, 0, None);
        total += (hist.total_time() - ITERS as f64 * f(best)) / (ITERS as f64 * f(best));
    }
    total / REPS as f64
}

fn main() -> Result<(), AdaphetError> {
    let args = parse_args(&[Flag::Telemetry, Flag::Metrics, Flag::Sequential])?;
    // With --metrics, install the global recorder up front so the GP/LP
    // solver counters of every measurement land in one report.
    let metrics_registry = args
        .metrics
        .as_ref()
        .map(|_| adaphet_metrics::install_global(adaphet_metrics::Registry::new()));
    let telemetry_file = match &args.telemetry {
        Some(p) => Some(File::create(p).map_err(|e| AdaphetError::io(p, e))?),
        None => None,
    };
    // The paper's Table I expectations: (resilient, optimal, fast).
    let expectations = [
        (StrategyKind::DivideConquer, (false, false, true)),
        (StrategyKind::RightLeft, (false, false, true)),
        (StrategyKind::Brent, (false, false, true)),
        (StrategyKind::Ucb, (true, true, false)),
        (StrategyKind::UcbStruct, (true, false, true)),
        (StrategyKind::GpUcb, (true, true, false)),
        (StrategyKind::GpDiscontinuous, (true, true, true)),
    ];
    let mut csv = CsvTable::new(&[
        "strategy",
        "expected_resilient",
        "expected_optimal",
        "expected_fast",
        "measured_resilient",
        "measured_optimal",
        "measured_fast",
        "noisy_id_rate",
        "disc_id_rate",
        "smooth_regret",
    ]);
    println!("Table I — strategy properties (measured on synthetic families)\n");
    println!(
        "{:<16} {:>9} {:>9} {:>9}   id-rate(noisy/disc)  regret   paper",
        "strategy", "resilient", "optimal", "fast"
    );
    // The per-strategy measurements are independent and seeded per
    // strategy, so they fan across cores — except when a telemetry file
    // is open (interleaved JSONL from concurrent strategies would be
    // unreadable) or `--sequential` asks for a single-threaded run.
    let force_seq = args.sequential || telemetry_file.is_some();
    let measured = sweep(expectations.to_vec(), force_seq, |(kind, exp)| {
        // Heavy uniform noise (±10 on a ~29-100 scale) on a valley whose
        // optimum every strategy can reach.
        let noisy_rate =
            identification_rate(kind, boundary_valley, 10.0, 7, telemetry_file.as_ref());
        // Light noise on the discontinuous valley (the identification task).
        let disc_rate = identification_rate(kind, discontinuous, 0.5, 11, telemetry_file.as_ref());
        let regret = regret_fraction(kind, smooth, 3);
        (kind, exp, noisy_rate, disc_rate, regret)
    });
    for (kind, (er, eo, ef), noisy_rate, disc_rate, regret) in measured {
        // Resilience = no catastrophic repetitions (the paper's complaint
        // about DC/Right-Left/Brent is occasional disastrous runs).
        let resilient = noisy_rate >= 0.9;
        let optimal = disc_rate >= 0.75;
        let fast = regret <= 0.12;
        let name = kind.name();
        println!(
            "{name:<16} {resilient:>9} {optimal:>9} {fast:>9}   {noisy_rate:>6.2}/{disc_rate:<6.2}    {regret:>6.3}   {er}/{eo}/{ef}"
        );
        csv.push(vec![
            name.to_string(),
            er.to_string(),
            eo.to_string(),
            ef.to_string(),
            resilient.to_string(),
            optimal.to_string(),
            fast.to_string(),
            format!("{noisy_rate:.3}"),
            format!("{disc_rate:.3}"),
            format!("{regret:.4}"),
        ]);
    }
    let path = write_csv("table1", &csv).map_err(|e| AdaphetError::io("results/table1.csv", e))?;
    println!("\nwrote {}", path.display());
    if let Some(p) = &args.telemetry {
        println!("wrote {}", p.display());
    }
    if let (Some(p), Some(reg)) = (&args.metrics, &metrics_registry) {
        write_metrics_report(&reg.snapshot(), p).map_err(|e| AdaphetError::io(p, e))?;
    }
    Ok(())
}
