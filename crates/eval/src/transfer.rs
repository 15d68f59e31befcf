//! Leave-one-scenario-out transfer evaluation: does warm-starting a
//! session from the *nearest other scenario's* persisted surrogate reach
//! the oracle's neighbourhood faster than a cold start?
//!
//! The protocol mirrors how the store is meant to be used in production:
//!
//! 1. **Donor pass** — every scenario runs one cold GP-discontinuous
//!    session against its response table and leaves a
//!    [`SurrogateSnapshot`] behind (optionally persisted into a
//!    [`SurrogateStore`], which is what the CI smoke job uploads).
//! 2. **Transfer pass** — each scenario is then treated as *new*: the
//!    donor with the highest [`PlatformSignature::similarity`] among the
//!    *other* scenarios is selected (leave-one-out — a scenario never
//!    warm-starts from itself), projected onto the target's action space
//!    when the spaces differ, and folded in via
//!    [`WarmStart::FromSnapshot`].
//! 3. **Metric** — [`iterations_to_band`]: the first iteration whose
//!    proposal's table-mean duration is within [`ORACLE_TOLERANCE`] (5%)
//!    of the oracle action's mean. Lower is better; a run that never
//!    enters the band scores the full iteration budget.
//!
//! Warm and cold replays of a repetition share the RNG construction (one
//! pool draw per iteration from the same seed), so the comparison is
//! paired the same way the paper pairs strategies in Fig. 6.

use crate::replay::space_of;
use crate::report::CsvTable;
use crate::response::ResponseTable;
use adaphet_core::{DriverBuildError, GpDiscontinuous, History, Observation, Session, WarmStart};
use adaphet_scenarios::{Scale, Scenario};
use adaphet_store::{PlatformSignature, SurrogateSnapshot, SurrogateStore};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Band edge relative to the oracle: a proposal counts as converged when
/// its table-mean duration is ≤ 1.05 × the best action's mean.
pub const ORACLE_TOLERANCE: f64 = 1.05;

/// One scenario's leave-one-out comparison.
#[derive(Debug, Clone)]
pub struct TransferOutcome {
    /// Target scenario letter.
    pub scenario: char,
    /// Target table label (paper-style).
    pub label: String,
    /// Donor scenario letter (nearest signature among the others).
    pub donor: char,
    /// Signature similarity between target and donor, in `[0, 1]`.
    pub similarity: f64,
    /// Mean iterations to the 5% band, cold start (over the repetitions).
    pub cold_to5: f64,
    /// Mean iterations to the 5% band, warm-started from the donor.
    pub warm_to5: f64,
}

impl TransferOutcome {
    /// Whether the warm start reached the band no later than cold.
    pub fn warm_wins(&self) -> bool {
        self.warm_to5 <= self.cold_to5
    }

    /// Iterations saved by warm-starting (negative when warm lost).
    pub fn delta(&self) -> f64 {
        self.cold_to5 - self.warm_to5
    }
}

/// Number of outcomes where the warm start won (ties count as wins:
/// warm must merely be *no worse* to justify reusing the store).
pub fn warm_wins(outcomes: &[TransferOutcome]) -> usize {
    outcomes.iter().filter(|o| o.warm_wins()).count()
}

/// Replay GP-discontinuous against `table`, optionally warm-started from
/// `warm` (which must already live in the table's action space — project
/// cross-space snapshots first). Same executor as
/// [`replay`](crate::replay): one pool draw per iteration from a seeded
/// RNG.
pub fn replay_warm(
    table: &ResponseTable,
    warm: Option<SurrogateSnapshot>,
    iters: usize,
    seed: u64,
) -> Result<History, DriverBuildError> {
    let space = space_of(table);
    let mut b = Session::builder(&space)
        .strategy(Box::new(GpDiscontinuous::new(&space)))
        .best_known(table.mean(table.best_action()));
    if let Some(snap) = warm {
        b = b.warm_start(WarmStart::FromSnapshot(snap));
    }
    let mut session = b.build()?;
    let mut rng = StdRng::seed_from_u64(seed);
    session.run(iters, |a| Observation::of(table.draw(a, &mut rng)));
    Ok(session.into_history())
}

/// Run one cold GP-discontinuous session against `table` under `sig` and
/// return the surrogate snapshot it would persist on finish (`None` only
/// for an empty run).
pub fn donor_snapshot(
    table: &ResponseTable,
    sig: PlatformSignature,
    iters: usize,
    seed: u64,
) -> Option<SurrogateSnapshot> {
    let space = space_of(table);
    let mut session = Session::builder(&space)
        .strategy(Box::new(GpDiscontinuous::new(&space)))
        .best_known(table.mean(table.best_action()))
        .signature(sig)
        .build()
        .expect("a strategy was provided and no warm start was requested");
    let mut rng = StdRng::seed_from_u64(seed);
    session.run(iters, |a| Observation::of(table.draw(a, &mut rng)));
    session.snapshot()
}

/// The first iteration index whose proposal's table-mean duration is
/// within [`ORACLE_TOLERANCE`] of the oracle's (0 when the very first
/// play is already in the band, `records.len()` when the run never
/// enters it).
pub fn iterations_to_band(table: &ResponseTable, records: &[(usize, f64)]) -> usize {
    let band = ORACLE_TOLERANCE * table.mean(table.best_action());
    records.iter().position(|&(a, _)| table.mean(a) <= band).unwrap_or(records.len())
}

fn mean_iterations_to_band(
    table: &ResponseTable,
    warm: Option<&SurrogateSnapshot>,
    iters: usize,
    reps: usize,
    seed: u64,
) -> Result<f64, DriverBuildError> {
    let per: Vec<Result<usize, DriverBuildError>> = (0..reps)
        .into_par_iter()
        .map(|r| {
            replay_warm(table, warm.cloned(), iters, seed.wrapping_add(r as u64))
                .map(|h| iterations_to_band(table, h.records()))
        })
        .collect();
    let n = per.len().max(1);
    let mut sum = 0usize;
    for p in per {
        sum += p?;
    }
    Ok(sum as f64 / n as f64)
}

/// The leave-one-scenario-out evaluation over `scenarios` and their
/// `tables` (same order). When `store` is given, every donor snapshot is
/// also persisted into it (the CI artifact); persistence failures do not
/// invalidate the in-memory evaluation.
///
/// Scenarios with no donor (a single-scenario run) are skipped.
pub fn leave_one_out(
    scenarios: &[Scenario],
    tables: &[ResponseTable],
    scale: Scale,
    iters: usize,
    reps: usize,
    seed: u64,
    store: Option<&SurrogateStore>,
) -> Result<Vec<TransferOutcome>, DriverBuildError> {
    assert_eq!(scenarios.len(), tables.len(), "one table per scenario");
    let sigs: Vec<PlatformSignature> = scenarios.iter().map(|s| s.signature(scale)).collect();
    let donors: Vec<Option<SurrogateSnapshot>> = (0..scenarios.len())
        .into_par_iter()
        .map(|i| donor_snapshot(&tables[i], sigs[i].clone(), iters, seed))
        .collect();
    if let Some(store) = store {
        for snap in donors.iter().flatten() {
            let _ = store.put(snap);
        }
    }
    let mut out = Vec::with_capacity(scenarios.len());
    for (i, scen) in scenarios.iter().enumerate() {
        // Nearest other-scenario donor by signature similarity; strict
        // `>` keeps ties deterministic (first scenario in paper order).
        let mut best: Option<(usize, f64)> = None;
        for (j, donor) in donors.iter().enumerate() {
            if j == i || donor.is_none() {
                continue;
            }
            let sim = sigs[i].similarity(&sigs[j]);
            if best.is_none_or(|(_, s)| sim > s) {
                best = Some((j, sim));
            }
        }
        let Some((j, similarity)) = best else { continue };
        let space = space_of(&tables[i]);
        let donor = donors[j].as_ref().expect("selected donors are Some");
        let snap = if donor.matches_space(space.max_nodes, &space.groups).is_ok() {
            donor.clone()
        } else {
            donor.project_onto(space.max_nodes, &space.groups, space.lp.as_deref())
        };
        let cold_to5 = mean_iterations_to_band(&tables[i], None, iters, reps, seed)?;
        let warm_to5 = mean_iterations_to_band(&tables[i], Some(&snap), iters, reps, seed)?;
        out.push(TransferOutcome {
            scenario: scen.id,
            label: tables[i].label.clone(),
            donor: scenarios[j].id,
            similarity,
            cold_to5,
            warm_to5,
        });
    }
    Ok(out)
}

/// Render outcomes as the `results/transfer.csv` table.
pub fn transfer_table(outcomes: &[TransferOutcome]) -> CsvTable {
    let mut t = CsvTable::new(&[
        "scenario",
        "donor",
        "similarity",
        "cold_iters_to_5pct",
        "warm_iters_to_5pct",
        "delta",
        "warm_wins",
    ]);
    for o in outcomes {
        t.push(vec![
            o.scenario.to_string(),
            o.donor.to_string(),
            format!("{:.3}", o.similarity),
            format!("{:.2}", o.cold_to5),
            format!("{:.2}", o.warm_to5),
            format!("{:.2}", o.delta()),
            (o.warm_wins() as u8).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Same synthetic shape as the replay tests: quadratic bowl around
    /// `best`, no simulation needed.
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
    fn donor_snapshot_captures_the_whole_run() {
        let t = synth_table(12, 5);
        let sig = PlatformSignature::new(7, vec![]);
        let snap = donor_snapshot(&t, sig.clone(), 20, 3).expect("non-empty run");
        assert_eq!(snap.observations.len(), 20);
        assert_eq!(snap.max_nodes, 12);
        assert_eq!(snap.strategy, "GP-discontinuous");
        assert_eq!(snap.signature.key(), sig.key());
    }

    #[test]
    fn iterations_to_band_is_the_first_entry() {
        let t = synth_table(12, 5);
        // mean(5) = 10; band = 10.5; mean(4) = 10.3 (inside), mean(12) far out.
        assert_eq!(iterations_to_band(&t, &[(5, 0.0), (12, 0.0), (5, 0.0)]), 0);
        assert_eq!(iterations_to_band(&t, &[(12, 0.0), (4, 0.0), (5, 0.0)]), 1);
        assert_eq!(iterations_to_band(&t, &[(12, 0.0), (1, 0.0), (12, 0.0)]), 3, "never in band");
        assert_eq!(iterations_to_band(&t, &[]), 0);
    }

    #[test]
    fn replay_warm_is_deterministic_and_cold_matches_replay() {
        let t = synth_table(10, 4);
        let cold = replay_warm(&t, None, 25, 7).unwrap();
        assert_eq!(
            cold,
            crate::replay::replay(adaphet_core::StrategyKind::GpDiscontinuous, &t, 25, 7).history
        );
        let sig = PlatformSignature::new(1, vec![]);
        let snap = donor_snapshot(&t, sig, 25, 7).unwrap();
        let a = replay_warm(&t, Some(snap.clone()), 25, 9).unwrap();
        let b = replay_warm(&t, Some(snap), 25, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn leave_one_out_pairs_each_scenario_with_another() {
        // (n) and (o) share a machine mix (different matrix), so they are
        // each other's nearest signatures; synthetic tables keep the test
        // off the simulator.
        let scenarios = vec![Scenario::by_id('n').unwrap(), Scenario::by_id('o').unwrap()];
        let tables = vec![synth_table(75, 30), synth_table(75, 30)];
        let out = leave_one_out(&scenarios, &tables, Scale::Test, 25, 2, 5, None).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].scenario, out[0].donor), ('n', 'o'));
        assert_eq!((out[1].scenario, out[1].donor), ('o', 'n'));
        for o in &out {
            assert!(o.similarity >= 0.5, "same-mix scenarios are similar: {}", o.similarity);
            assert!(o.cold_to5 <= 25.0 && o.warm_to5 <= 25.0);
        }
        let csv = transfer_table(&out).to_csv();
        assert!(csv.starts_with("scenario,donor,"));
        assert_eq!(csv.lines().count(), 3);
        assert!(warm_wins(&out) <= 2);
    }

    #[test]
    fn single_scenario_runs_have_no_donor_and_yield_nothing() {
        let scenarios = vec![Scenario::by_id('a').unwrap()];
        let tables = vec![synth_table(10, 4)];
        let out = leave_one_out(&scenarios, &tables, Scale::Test, 10, 1, 5, None).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn donor_snapshots_are_persisted_when_a_store_is_given() {
        let dir =
            std::env::temp_dir().join(format!("adaphet-transfer-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SurrogateStore::open(&dir).unwrap();
        let scenarios = vec![Scenario::by_id('n').unwrap(), Scenario::by_id('o').unwrap()];
        let tables = vec![synth_table(75, 30), synth_table(75, 30)];
        leave_one_out(&scenarios, &tables, Scale::Test, 15, 1, 5, Some(&store)).unwrap();
        assert_eq!(store.entries().unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
