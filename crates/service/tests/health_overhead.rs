//! The zero-perturbation guard for the health plane: the always-on
//! health fold (`HealthTracker::on_record`) costs within noise of the
//! same loop without it — it is pure windowed arithmetic, no allocation
//! beyond the bounded window. The bound is loose enough to hold in debug
//! builds (CI also runs it in release mode where the margin is enormous).

use adaphet_core::HealthTracker;
use std::hint::black_box;
use std::time::Instant;

/// A work quantum heavy enough to dominate any per-call bookkeeping:
/// ~400 dependent float ops, the metrics crate's overhead-guard idiom.
fn work(seed: f64) -> f64 {
    let mut acc = seed;
    for i in 0..400 {
        acc = acc.mul_add(1.000000001, (i as f64) * 1e-9);
    }
    acc
}

fn min_time<F: FnMut() -> f64>(mut f: F, runs: usize) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn run_bare(records: usize) -> f64 {
    let mut acc = 0.0;
    for t in 0..records {
        acc += work(black_box(t as f64));
    }
    acc
}

fn run_tracked(records: usize) -> f64 {
    let mut tracker = HealthTracker::new(16, Some(4.0), Some(3.0), false);
    let mut acc = 0.0;
    for t in 0..records {
        acc += work(black_box(t as f64));
        tracker.on_record(4.0 + (t % 7) as f64 * 0.1, 0, false);
    }
    black_box(tracker.report().transitions);
    acc
}

#[test]
fn health_fold_costs_within_noise_of_uninstrumented() {
    const RECORDS: usize = 20_000;
    const RUNS: usize = 7;
    black_box(run_bare(RECORDS));
    black_box(run_tracked(RECORDS));
    // Interleave so drift hits both sides equally; compare minima.
    let mut bare = f64::INFINITY;
    let mut tracked = f64::INFINITY;
    for _ in 0..RUNS {
        bare = bare.min(min_time(|| run_bare(RECORDS), 1));
        tracked = tracked.min(min_time(|| run_tracked(RECORDS), 1));
    }
    assert!(
        tracked <= bare * 1.5 + 1e-4,
        "health fold too slow on the record path: {tracked:.6}s vs bare {bare:.6}s"
    );
}
