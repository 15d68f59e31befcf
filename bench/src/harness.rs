//! Running one workload: repeated set-ups, a warm-up block, timed
//! fixed-work blocks until the run's seconds are used, medians over
//! blocks — and the traced variant that adds the per-layer ledger.

use crate::batch::{self, ReplayMatrix, SweepSim};
use crate::daemon;
use crate::layers;
use crate::metrics::{Metrics, Outcome, Value, PER_LAYER, WORKLOAD_SPECIFIC};
use crate::service::{self, Kind, Service};
use crate::spans::Recorder;
use crate::stats::{median, percentile, summarize};
use crate::workload::{Block, Workload};
use std::time::Instant;

/// How a run is sized.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Seconds the timed blocks should fill.
    pub seconds: f64,
    /// Run this many timed blocks instead (local iteration); the untraced
    /// run rounds it up to a multiple of its set-ups.
    pub blocks: Option<usize>,
}

/// Set-ups per untraced run; `setup_s` is their median, and each is
/// followed by a third of the run's timed blocks, so no set-up is thrown
/// away and one unlucky thread placement (on a small VM it decides
/// whether a hop between two threads costs 5 µs or 50 µs) cannot colour
/// a whole run.
const SETUPS: usize = 3;
/// Fewest timed blocks of the traced run's untraced window.
const TRACED_MIN_BLOCKS: usize = 2;
/// Share of the run's seconds the traced run spends on untraced blocks.
const TRACED_WINDOW: f64 = 0.35;

fn service_kind(workload: &str) -> Option<Kind> {
    match workload {
        "tune_gp_128" => Some(Kind::TuneGp128),
        "tune_cheap_short" => Some(Kind::TuneCheapShort),
        "warm_store_mix" => Some(Kind::WarmStoreMix),
        _ => None,
    }
}

/// Set `workload` up (inputs, daemon, store, warm-up block).
fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "sweep_sim" => Box::new(SweepSim::setup(seed)?),
        "replay_matrix" => Box::new(ReplayMatrix::setup(seed)?),
        other => match service_kind(other) {
            Some(kind) => Box::new(Service::setup(kind, seed)?),
            None => return Err(format!("unknown workload {other:?}")),
        },
    })
}

/// The timed blocks of one run and what they cost.
struct Window {
    blocks: Vec<Block>,
    cpu_s: f64,
    peak_rss_mib: f64,
}

/// Run blocks for `seconds` (at least `min_blocks`), or exactly `fixed`.
fn timed_window(
    w: &mut dyn Workload,
    seconds: f64,
    min_blocks: usize,
    fixed: Option<usize>,
) -> Result<Window, String> {
    let pid = w.cost_pid();
    let cpu_before = daemon::cpu_seconds(pid)?;
    let start = Instant::now();
    let mut blocks = Vec::new();
    loop {
        blocks.push(w.block());
        let done = match fixed {
            Some(n) => blocks.len() >= n,
            None => {
                // Stop where another block would overshoot the window by
                // more than it undershoots now.
                let elapsed = start.elapsed().as_secs_f64();
                let per_block = elapsed / blocks.len() as f64;
                blocks.len() >= min_blocks && elapsed + per_block / 2.0 >= seconds
            }
        };
        if done {
            break;
        }
    }
    Ok(Window {
        blocks,
        cpu_s: daemon::cpu_seconds(pid)? - cpu_before,
        peak_rss_mib: daemon::peak_rss_mib(pid)?,
    })
}

/// Fold a window's blocks into the outcome: counts, check failures, and
/// every user-visible metric — the end-to-end ones and those only some
/// workloads have — as its median over blocks.
fn fold_blocks(window: &Window, out: &mut Outcome) {
    let blocks = &window.blocks;
    for b in blocks {
        out.attempted += b.attempted;
        out.failed += b.failed;
        out.failures.extend(b.failures.iter().cloned());
    }
    let measured: Vec<&Block> = blocks.iter().filter(|b| !b.iter_us.is_empty()).collect();
    if measured.is_empty() {
        out.failures.push("no block completed a single iteration".into());
        return;
    }
    let per_block =
        |f: &dyn Fn(&Block) -> f64| -> Vec<f64> { measured.iter().map(|b| f(b)).collect() };
    let m = &mut out.metrics;
    m.set_summary("iter_latency_p50_us", summarize(&per_block(&|b| median(&b.iter_us))));
    m.set_summary("iters_per_s", summarize(&per_block(&|b| b.iters as f64 / b.wall_s)));
    let iters: u64 = blocks.iter().map(|b| b.iters).sum();
    m.set("cpu_us_per_iter", window.cpu_s * 1e6 / iters as f64);
    m.set("peak_rss_mib", window.peak_rss_mib);
    // Quality is seed-determined; it is read off the first timed block,
    // whose work does not depend on how many blocks the window held.
    let quality = &blocks[0].quality;
    m.set("time_vs_oracle_pct", quality.time_vs_oracle_pct());
    m.set("regret_pct", quality.time_vs_oracle_pct() - 100.0);
    if let Some(n) = quality.iters_to_band() {
        m.set("iters_to_band", n);
    }
    let p95 = per_block(&|b| percentile(&b.iter_us, 95.0));
    m.set_summary("iter_latency_p95_us", summarize(&p95));
    let names: Vec<&'static str> = measured[0].extra.iter().map(|&(n, _)| n).collect();
    for name in names {
        let values: Vec<f64> = measured
            .iter()
            .filter_map(|b| b.extra.iter().find(|&&(n, _)| n == name).map(|&(_, v)| v))
            .collect();
        m.set_summary(name, summarize(&values));
    }
    m.set("failed_ops_pct", 100.0 * out.failed as f64 / out.attempted.max(1) as f64);
}

/// The untraced run: `SETUPS` times over, set the workload up, run a
/// share of the timed blocks, tear it down. Every block of every segment
/// counts alike. The outcome holds every user-visible metric; its result
/// line is cut down to the end-to-end ones (`Outcome::result_line`).
pub fn measure(workload: &str, cfg: RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut all = Window { blocks: Vec::new(), cpu_s: 0.0, peak_rss_mib: 0.0 };
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut w = setup(workload, cfg.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let share = cfg.blocks.map(|n| n.div_ceil(SETUPS));
        let window = timed_window(w.as_mut(), cfg.seconds / SETUPS as f64, 1, share);
        out.failures.extend(w.finish());
        let window = window?;
        all.blocks.extend(window.blocks);
        all.cpu_s += window.cpu_s;
        all.peak_rss_mib = all.peak_rss_mib.max(window.peak_rss_mib);
    }
    fold_blocks(&all, &mut out);
    out.metrics.set_summary("setup_s", summarize(&setup_s));
    Ok(out)
}

/// The traced run: a shorter untraced window against the real program
/// (its round trip is what `service.transport_us` is the residual of; it
/// also gives the p99, the daemon's own error count and, for the result
/// line, the user-visible metrics only some workloads have), the traced
/// replay of one block, the layer microbenchmarks of the layers this
/// workload exercises, and the registry counts. Reports exactly the
/// per-layer metric set; layers the workload does not touch read 0.
pub fn traced(workload: &str, cfg: RunConfig) -> Result<(Outcome, Recorder), String> {
    let mut out = Outcome::default();
    let mut w = setup(workload, cfg.seed)?;
    let window =
        timed_window(w.as_mut(), cfg.seconds * TRACED_WINDOW, TRACED_MIN_BLOCKS, cfg.blocks);
    let program_errors = w.program_errors();
    out.failures.extend(w.finish());
    fold_blocks(&window?, &mut out);
    let round_trip_us = out.metrics.get("iter_latency_p50_us").unwrap_or(0.0);

    let m = &mut out.metrics;
    let recorder = match service_kind(workload) {
        Some(kind) => {
            let traced = service::traced(kind, cfg.seed)?;
            out.failures.extend(traced.failures);
            m.0.extend(traced.metrics.0);
            m.set("service.transport_us", round_trip_us - traced.in_process_iter_us);
            m.set("service.errors", program_errors? as f64);
            match kind {
                Kind::TuneGp128 => {
                    layers::gp_linalg(cfg.seed, m);
                    let input = &crate::gen::tune_gp_128(cfg.seed, 1)[0];
                    layers::registry_counts(Some(input), false, m)?;
                }
                Kind::TuneCheapShort => {}
                Kind::WarmStoreMix => layers::store(cfg.seed, m)?,
            }
            traced.recorder
        }
        None if workload == "sweep_sim" => {
            let (recorder, failures) = batch::traced_sweep(cfg.seed, m)?;
            out.failures.extend(failures);
            layers::flownet(cfg.seed, m);
            layers::cache_hit(cfg.seed, m);
            layers::registry_counts(None, true, m)?;
            recorder
        }
        None => {
            let (mut recorder, failures) = batch::traced_replay(cfg.seed, m)?;
            out.failures.extend(failures);
            service::propose_profile(cfg.seed, &mut recorder, m)?;
            layers::gp_linalg(cfg.seed, m);
            let input = &crate::gen::tune_gp_128(cfg.seed, 1)[0];
            layers::registry_counts(Some(input), false, m)?;
            recorder
        }
    };
    // Exactly the traced metric set: drop the end-to-end names, zero-fill
    // the layers this workload does not exercise.
    let absent = Value { value: 0.0, block_iqr: 0.0, samples: 0 };
    let traced_names = WORKLOAD_SPECIFIC.iter().map(|m| m.0).chain(PER_LAYER.iter().map(|m| m.0));
    out.metrics = Metrics(
        traced_names
            .map(|name| (name.to_string(), out.metrics.0.get(name).copied().unwrap_or(absent)))
            .collect(),
    );
    Ok((out, recorder))
}
