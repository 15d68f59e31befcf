//! The disabled-path overhead guard.
//!
//! Claim under test: instrumented code pointed at the [`NoopRecorder`]
//! (through `&dyn Recorder`, as real call sites do) costs within noise of
//! the same code without any instrumentation. CI runs this in release mode
//! (`cargo test --release -p adaphet-metrics`), where the `enabled()` check
//! folds to a branch on a constant; the bound below is loose enough to hold
//! in debug builds too.

use adaphet_metrics::{NoopRecorder, Recorder, Timer};
use std::hint::black_box;
use std::time::Instant;

/// A work quantum heavy enough to dominate any per-call dispatch cost:
/// ~400 dependent float ops.
fn work(seed: f64) -> f64 {
    let mut acc = seed;
    for i in 0..400 {
        acc = acc.mul_add(1.000000001, (i as f64) * 1e-9);
    }
    acc
}

fn run_bare(tasks: usize) -> f64 {
    let mut acc = 0.0;
    for t in 0..tasks {
        acc += work(black_box(t as f64));
    }
    acc
}

fn run_instrumented(tasks: usize, r: &dyn Recorder) -> f64 {
    let mut acc = 0.0;
    for t in 0..tasks {
        let _timer = Timer::start(r, "overhead.task_s");
        acc += work(black_box(t as f64));
        r.add("overhead.tasks", 1.0);
        r.observe("overhead.acc_s", 0.0);
    }
    if r.enabled() {
        r.gauge("overhead.final", acc);
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

#[test]
fn noop_recorder_costs_within_noise_of_uninstrumented() {
    const TASKS: usize = 20_000;
    const RUNS: usize = 7;
    // Warm up both paths so neither pays first-touch costs.
    black_box(run_bare(TASKS));
    black_box(run_instrumented(TASKS, &NoopRecorder));

    // Interleave the measurements so drift (frequency scaling, a noisy
    // neighbor) hits both sides equally; compare minima, the estimator
    // least sensitive to one-sided interference.
    let mut bare = f64::INFINITY;
    let mut inst = f64::INFINITY;
    for _ in 0..RUNS {
        bare = bare.min(min_time(|| run_bare(TASKS), 1));
        inst = inst.min(min_time(|| run_instrumented(TASKS, &NoopRecorder), 1));
    }
    assert!(
        inst <= bare * 1.5 + 1e-4,
        "noop-instrumented path too slow: {inst:.6}s vs bare {bare:.6}s"
    );
}

#[test]
fn both_paths_compute_the_same_result() {
    assert_eq!(run_bare(512), run_instrumented(512, &NoopRecorder));
}
