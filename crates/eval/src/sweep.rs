//! Order-preserving fan-out shared by the figure binaries.
//!
//! Every figure pays a per-scenario simulation pass before any strategy
//! replays; the passes are independent, so the sweep fans them across
//! cores (the calling thread and shim-rayon's persistent worker pool) and
//! collects results **in input order**. Determinism does not rely on
//! execution order at all:
//!
//! * each scenario's simulations are seeded from the scenario itself
//!   ([`build_response`](crate::build_response) derives its RNG streams
//!   from `seed`, the per-replicate sim seed, and an FNV-1a hash of the
//!   scenario label — never from sweep position or thread identity);
//! * collection preserves input order, so downstream CSV assembly sees
//!   the same sequence either way.
//!
//! Consequently `--sequential` (see [`RunArgs::sequential`](crate::RunArgs))
//! must produce byte-identical CSVs — CI diffs the two fig6 runs to keep
//! that invariant honest.

use crate::cache::build_response_cached;
use crate::response::ResponseTable;
use adaphet_scenarios::{Scale, Scenario};
use rayon::prelude::*;

/// Map `f` over `items`, preserving order. With `sequential` the map runs
/// on the calling thread (the `--sequential` escape hatch: determinism
/// checks, profiling, or telemetry streams that must not interleave);
/// otherwise it fans across all available cores.
pub fn sweep<T, O, F>(items: Vec<T>, sequential: bool, f: F) -> Vec<O>
where
    T: Send,
    O: Send,
    F: Fn(T) -> O + Sync,
{
    if sequential {
        items.into_iter().map(f).collect()
    } else {
        items.into_par_iter().map(f).collect()
    }
}

/// Build (or load from cache) the response table of every scenario in
/// `scenarios`, fanned across cores unless `sequential`. Returned tables
/// are in `scenarios` order; each cache entry is a distinct file, so
/// concurrent misses do not contend.
pub fn sweep_response_tables(
    scenarios: &[Scenario],
    scale: Scale,
    reps: usize,
    seed: u64,
    sequential: bool,
) -> Vec<ResponseTable> {
    sweep(scenarios.to_vec(), sequential, |s| build_response_cached(&s, scale, reps, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_input_order() {
        let seq = sweep((0..40usize).collect(), true, |i| i * i);
        let par = sweep((0..40usize).collect(), false, |i| i * i);
        assert_eq!(seq, par);
        assert_eq!(seq, (0..40).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_tables_match_sequential_bitwise() {
        let scenarios: Vec<Scenario> =
            ['a', 'd'].iter().map(|&id| Scenario::by_id(id).unwrap()).collect();
        // Unique seed so cache entries from other tests cannot interfere;
        // the first call populates the cache, the second hits it — both
        // paths must agree bit-for-bit with the order-reversed run.
        let par = sweep_response_tables(&scenarios, Scale::Test, 2, 987_654, false);
        let seq = sweep_response_tables(&scenarios, Scale::Test, 2, 987_654, true);
        assert_eq!(par.len(), 2);
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.label, s.label);
            assert_eq!(p.durations, s.durations);
            assert_eq!(p.sim_base, s.sim_base);
        }
    }
}
