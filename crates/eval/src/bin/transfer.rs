//! Transfer — the leave-one-scenario-out warm-start evaluation: every
//! scenario runs one cold donor session, then each scenario (treated as
//! new) warm-starts from the nearest *other* scenario's snapshot and is
//! compared against a cold start on iterations-to-within-5%-of-oracle.
//!
//! Output: `results/transfer.csv` with columns
//! `scenario,donor,similarity,cold_iters_to_5pct,warm_iters_to_5pct,delta,warm_wins`.
//!
//! `--scenarios <letters>` restricts the pool (donors are drawn from the
//! same pool, so at least two letters are needed for any comparison);
//! `--store-dir <dir>` additionally persists every donor snapshot into a
//! [`SurrogateStore`](adaphet_store::SurrogateStore) there — the CI smoke
//! job uploads that directory as an artifact.

use adaphet_eval::{
    leave_one_out, parse_args, sweep_response_tables, transfer_table, warm_wins, write_csv,
    AdaphetError, Flag,
};
use adaphet_scenarios::Scenario;
use adaphet_store::SurrogateStore;

fn main() -> Result<(), AdaphetError> {
    let args = parse_args(&[
        Flag::Scale,
        Flag::Reps,
        Flag::Iters,
        Flag::Seed,
        Flag::Sequential,
        Flag::Scenarios,
        Flag::StoreDir,
    ])?;
    let scenarios: Vec<Scenario> = if args.scenarios.is_empty() {
        Scenario::all16()
    } else {
        args.scenarios
            .iter()
            .map(|&c| Scenario::by_id(c).expect("the CLI validated letters a..p"))
            .collect()
    };
    let store = match &args.store_dir {
        None => None,
        Some(dir) => Some(
            SurrogateStore::open(dir)
                .map_err(|e| AdaphetError::usage(format!("--store-dir {}: {e}", dir.display())))?,
        ),
    };
    println!(
        "Transfer — leave-one-scenario-out warm-start over {} scenarios, \
         {} iterations x {} repetitions\n",
        scenarios.len(),
        args.iters,
        args.reps
    );
    let tables =
        sweep_response_tables(&scenarios, args.scale, args.reps, args.seed, args.sequential);
    let outcomes = leave_one_out(
        &scenarios,
        &tables,
        args.scale,
        args.iters,
        args.reps,
        args.seed,
        store.as_ref(),
    )?;
    for o in &outcomes {
        println!(
            "{:<34} donor ({}) sim {:.2} | to 5% band: cold {:>6.1}  warm {:>6.1}  ({})",
            o.label,
            o.donor,
            o.similarity,
            o.cold_to5,
            o.warm_to5,
            if o.warm_wins() { "warm wins" } else { "cold wins" }
        );
    }
    if outcomes.is_empty() {
        println!("no comparisons: a leave-one-out run needs at least two scenarios");
    } else {
        println!(
            "\nwarm-start reached the 5% band no later than cold on {}/{} scenarios",
            warm_wins(&outcomes),
            outcomes.len()
        );
    }
    let path = write_csv("transfer", &transfer_table(&outcomes))
        .map_err(|e| AdaphetError::io("results/transfer.csv", e))?;
    println!("wrote {}", path.display());
    if let Some(s) = &store {
        let n = s.entries().map(|e| e.len()).unwrap_or(0);
        println!("store: {} ({n} snapshots)", s.dir().display());
    }
    Ok(())
}
