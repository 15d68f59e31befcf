//! Resampling replay: evaluate strategies against a response table.
//!
//! Exactly the paper's methodology: "we used all the iteration durations
//! obtained through real experiments or simulation and resampled them ...
//! every time an action was chosen. This way, all exploration strategies
//! are compared with the exact same iteration durations."
//!
//! Replays run through the canonical [`Session`] loop, so any
//! [`TelemetrySink`] can be attached (see [`replay_instrumented`]) without
//! touching the measurement path: the plain [`replay`] attaches no sink
//! and pays no telemetry cost.

use crate::response::ResponseTable;
use adaphet_core::{ActionSpace, History, Observation, Session, StrategyKind, TelemetrySink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// One replayed execution.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Total application time after all iterations (the Fig. 6 metric).
    pub total_time: f64,
    /// The action history.
    pub history: History,
}

/// Aggregate over repetitions.
#[derive(Debug, Clone)]
pub struct ReplaySummary {
    /// Canonical strategy name.
    pub strategy: String,
    /// Mean total time over the repetitions.
    pub mean_total: f64,
    /// Standard deviation of the total times.
    pub sd_total: f64,
    /// Gain vs. always using all nodes (the percentage printed in Fig. 6).
    pub gain_vs_all: f64,
    /// Per-repetition totals.
    pub totals: Vec<f64>,
}

/// The action space a table induces (groups + LP bound).
pub fn space_of(table: &ResponseTable) -> ActionSpace {
    ActionSpace::new(table.n_actions(), table.groups.clone(), Some(table.lp.clone()))
}

/// Replay one strategy for `iters` iterations, drawing durations from the
/// table's per-action pools with the seeded RNG.
pub fn replay(kind: StrategyKind, table: &ResponseTable, iters: usize, seed: u64) -> ReplayOutcome {
    replay_instrumented(kind, table, iters, seed, Vec::new())
}

/// Like [`replay`], but routing per-iteration telemetry into `sinks`
/// (events carry regret against the table's best action).
pub fn replay_instrumented(
    kind: StrategyKind,
    table: &ResponseTable,
    iters: usize,
    seed: u64,
    sinks: Vec<Box<dyn TelemetrySink>>,
) -> ReplayOutcome {
    let space = space_of(table);
    let best = table.best_action();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut session = Session::builder(&space)
        .kind(kind)
        .seed(seed)
        .oracle_best(best)
        .best_known(table.mean(best))
        .build()
        .expect("the oracle's best action is provided");
    for sink in sinks {
        session.add_sink(sink);
    }
    session.run(iters, |a| Observation::of(table.draw(a, &mut rng)));
    let history = session.into_history();
    ReplayOutcome { total_time: history.total_time(), history }
}

/// Replay a strategy `reps` times and summarize, computing the gain
/// against the all-nodes baseline replayed with the same seeds. The reps
/// run in parallel from the rayon shim's sequential cutoff (4) up; fewer
/// run one after another on the calling thread.
pub fn replay_many(
    kind: StrategyKind,
    table: &ResponseTable,
    iters: usize,
    reps: usize,
    seed: u64,
) -> ReplaySummary {
    let totals: Vec<f64> = (0..reps)
        .into_par_iter()
        .map(|r| replay(kind, table, iters, seed.wrapping_add(r as u64)).total_time)
        .collect();
    let mean_total = totals.iter().sum::<f64>() / totals.len() as f64;
    let sd_total = adaphet_linalg::sample_variance(&totals).sqrt();
    let all_mean = table.all_nodes_mean() * iters as f64;
    let gain_vs_all = 1.0 - mean_total / all_mean;
    ReplaySummary { strategy: kind.name().to_string(), mean_total, sd_total, gain_vs_all, totals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_core::MemorySink;

    /// A synthetic table with a clear optimum, no simulation needed.
    fn synth_table(n: usize, best: usize) -> ResponseTable {
        let curve = |k: usize| {
            let d = (k as f64 - best as f64).abs();
            10.0 + d * d * 0.3
        };
        ResponseTable {
            label: "synthetic".into(),
            durations: (1..=n).map(|k| vec![curve(k); 30]).collect(),
            sim_base: (1..=n).map(|k| vec![curve(k)]).collect(),
            lp: (1..=n).map(|k| 5.0 / k as f64).collect(),
            groups: vec![(1, n)],
            sigma: 0.0,
        }
    }

    #[test]
    fn oracle_beats_all_nodes_when_optimum_is_interior() {
        let t = synth_table(12, 5);
        let oracle = replay_many(StrategyKind::Oracle, &t, 50, 5, 1);
        let all = replay_many(StrategyKind::AllNodes, &t, 50, 5, 1);
        assert!(oracle.mean_total < all.mean_total);
        assert!(oracle.gain_vs_all > 0.0);
        assert!((all.gain_vs_all).abs() < 1e-9);
    }

    #[test]
    fn replay_is_deterministic_per_seed() {
        let t = synth_table(10, 4);
        let a = replay(StrategyKind::GpDiscontinuous, &t, 30, 7);
        let b = replay(StrategyKind::GpDiscontinuous, &t, 30, 7);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn instrumented_replay_matches_plain_replay() {
        // Telemetry must be pure observation: attaching a sink cannot
        // change what the strategy does.
        let t = synth_table(10, 4);
        let sink = MemorySink::new();
        let plain = replay(StrategyKind::GpDiscontinuous, &t, 30, 7);
        let inst = replay_instrumented(
            StrategyKind::GpDiscontinuous,
            &t,
            30,
            7,
            vec![Box::new(sink.clone())],
        );
        assert_eq!(plain.history, inst.history);
        assert_eq!(sink.len(), 30);
        let best_mean = t.mean(t.best_action());
        for e in sink.events() {
            assert_eq!(e.regret.unwrap(), e.duration - best_mean);
        }
    }

    #[test]
    fn gp_disc_approaches_oracle_on_clean_curve() {
        let t = synth_table(12, 5);
        let gp = replay_many(StrategyKind::GpDiscontinuous, &t, 127, 5, 3);
        let oracle = replay_many(StrategyKind::Oracle, &t, 127, 5, 3);
        let all = replay_many(StrategyKind::AllNodes, &t, 127, 5, 3);
        // GP-disc should land much closer to the oracle than to all-nodes.
        let frac = (gp.mean_total - oracle.mean_total) / (all.mean_total - oracle.mean_total);
        assert!(frac < 0.35, "exploration overhead fraction {frac}");
    }

    #[test]
    fn every_paper_strategy_replays() {
        let t = synth_table(8, 3);
        for kind in adaphet_core::PAPER_STRATEGIES {
            let s = replay_many(kind, &t, 40, 3, 11);
            assert!(s.mean_total > 0.0, "{kind}");
            assert_eq!(s.totals.len(), 3);
        }
    }

    #[test]
    fn history_length_matches_iterations() {
        let t = synth_table(6, 2);
        let o = replay(StrategyKind::Ucb, &t, 25, 0);
        assert_eq!(o.history.len(), 25);
    }
}
