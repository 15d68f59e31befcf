//! `compare A.json B.json`: one row per (workload, user-visible metric)
//! with both medians, quartiles, the ratio with its base, and a verdict
//! held against the metric's bound.

use crate::metrics::{Better, END_TO_END, EXACT, WORKLOADS, WORKLOAD_SPECIFIC};
use crate::stats::{median, quartiles, spread};
use adaphet_analysis::Json;
use std::collections::BTreeMap;

/// What a comparison concluded about one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run beats every base run and, where the spread is within
    /// the bound, the median is better by more than the base's own spread.
    Improved,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// The run-to-run spread is wider than the bound, or unknown because
    /// a side has fewer than [`MIN_RUNS`] runs: nothing shown.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// Fewest runs per side from which a measured metric gets a verdict. On
/// this kind of box two runs of one commit differ by up to 1.7x in wall
/// time; a single pair of wall clocks shows nothing either way.
pub const MIN_RUNS: usize = 3;

/// Judge the runs `b` against the base runs `a` of one measured metric.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.len() < MIN_RUNS || b.len() < MIN_RUNS {
        return Verdict::Unresolved;
    }
    let (Some(spread_a), Some(spread_b)) = (spread(a), spread(b)) else {
        return Verdict::Unresolved;
    };
    let (base, new) = (median(a), median(b));
    if base == new {
        return Verdict::Unchanged;
    }
    // Relative change, signed so that positive is worse.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (new - base) / base.abs().max(f64::MIN_POSITIVE);
    let is_better = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all = |f: &dyn Fn(f64, f64) -> bool| b.iter().all(|&x| a.iter().all(|&y| f(x, y)));
    if spread_a.max(spread_b) > bound {
        if all(&is_better) {
            Verdict::Improved
        } else if worse_by > bound && all(&|x, y| is_better(y, x)) {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if -worse_by > spread_a && all(&is_better) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// Judge a seed-determined metric over runs of one seed: every run must
/// give the same value. A side that does not repeat itself, or a change
/// for the worse of any size, is a regression; it takes no spread and no
/// minimum number of runs to see it.
pub fn verdict_exact(a: &[f64], b: &[f64], better: Better) -> Verdict {
    let repeats = |v: &[f64]| v.iter().all(|x| *x == v[0]);
    if !repeats(a) || !repeats(b) {
        Verdict::Regressed
    } else if a[0] == b[0] {
        Verdict::Unchanged
    } else if (b[0] < a[0]) == (better == Better::Lower) {
        Verdict::Improved
    } else {
        Verdict::Regressed
    }
}

/// Values by (workload, metric) over every untraced run in a results
/// file, failed operations per workload, and the seed the runs shared.
struct Results {
    seed: Option<f64>,
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, u64>,
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs =
        json.get("runs").and_then(Json::as_arr).ok_or(format!("{path}: no \"runs\" list"))?;
    let seed = json.get("seed").and_then(Json::as_f64);
    let mut results = Results { seed, values: BTreeMap::new(), failed: BTreeMap::new() };
    for run in runs {
        // User-visible numbers come from the untraced run; a traced run
        // repeats some over a window a third as long.
        if run.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
        let failed = run.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        *results.failed.entry(workload.to_string()).or_default() += failed;
        let Some(Json::Obj(metrics)) = run.get("metrics") else { continue };
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                results.values.entry((workload.to_string(), name.clone())).or_default().push(value);
            }
        }
    }
    Ok(results)
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let list = json.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Print the comparison; `Ok(true)` when nothing regressed.
pub fn compare(a_path: &str, b_path: &str, benchmark_json: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let bounds = bounds(benchmark_json)?;
    let gated: Vec<(&str, Better, f64)> = END_TO_END
        .iter()
        .map(|&(name, _, better)| {
            let bound = bounds.get(name).copied().ok_or(format!("{name} has no bound"))?;
            Ok((name, better, bound))
        })
        .chain(WORKLOAD_SPECIFIC.iter().map(|&(name, _, better, bound)| Ok((name, better, bound))))
        .collect::<Result<_, String>>()?;
    println!(
        "{:<17} {:<22} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "B/A", "bound"
    );
    let same_seed = a.seed.is_some() && a.seed == b.seed;
    if !same_seed {
        println!(
            "different seeds: seed-determined metrics are held to their bound, not to equality"
        );
    }
    let mut clean = true;
    for workload in WORKLOADS {
        for &(name, better, bound) in &gated {
            let key = (workload.to_string(), name.to_string());
            let (Some(av), Some(bv)) = (a.values.get(&key), b.values.get(&key)) else { continue };
            // A metric that reads 0 on both sides does not exist on this
            // workload.
            if av.iter().chain(bv).all(|&v| v == 0.0) {
                continue;
            }
            let exact = same_seed && EXACT.contains(&name);
            let (v, held_to) = if exact {
                (verdict_exact(av, bv, better), "exact".to_string())
            } else {
                (verdict(av, bv, better, bound), format!("{bound:.2}"))
            };
            clean &= v != Verdict::Regressed;
            let quart = |v: &[f64]| match quartiles(v) {
                Some([q1, _, q3]) => format!("[{q1:.5}, {q3:.5}]"),
                None => "-".to_string(),
            };
            let (ma, mb) = (median(av), median(bv));
            println!(
                "{workload:<17} {name:<22} {ma:>12.5} {:>25} {mb:>12.5} {:>25} {:>8.4} {held_to:>6}  {}",
                quart(av),
                quart(bv),
                mb / ma,
                v.as_str()
            );
        }
        let (fa, fb) = (a.failed.get(workload), b.failed.get(workload));
        if let (Some(&fa), Some(&fb)) = (fa, fb) {
            if fb > fa {
                clean = false;
                println!("{workload:<17} failed operations rose from {fa} to {fb}: regressed");
            }
        }
    }
    println!("{}", if clean { "no regression" } else { "REGRESSION" });
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn tight_runs_resolve_to_unchanged_improved_or_regressed() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.4, 100.9, 99.6, 100.2, 100.0];
        assert_eq!(verdict(&base, &same, Lower, 0.10), Verdict::Unchanged);
        let slower = [115.0, 116.0, 114.0, 115.5, 114.5];
        assert_eq!(verdict(&base, &slower, Lower, 0.10), Verdict::Regressed);
        // The same numbers are an improvement where higher is better.
        assert_eq!(verdict(&base, &slower, Higher, 0.10), Verdict::Improved);
        let faster = [90.0, 91.0, 89.0, 90.5, 89.5];
        assert_eq!(verdict(&base, &faster, Lower, 0.10), Verdict::Improved);
        // Worse, but within the bound.
        let slightly = [105.0, 106.0, 104.0, 105.5, 104.5];
        assert_eq!(verdict(&base, &slightly, Lower, 0.10), Verdict::Unchanged);
        // Values that repeat are unchanged whatever the bound.
        assert_eq!(verdict(&[7.0; 3], &[7.0; 3], Lower, 0.0), Verdict::Unchanged);
    }

    #[test]
    fn too_few_runs_are_unresolved_whichever_way_they_point() {
        // One run a side (the default `run`): no spread, no verdict.
        assert_eq!(verdict(&[100.0], &[99.9], Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&[100.0], &[50.0], Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&[100.0], &[170.0], Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&[100.0], &[100.0], Lower, 0.10), Verdict::Unresolved);
        // Two runs, or enough on one side only, are still too few.
        assert_eq!(verdict(&[100.0, 101.0], &[150.0, 151.0], Lower, 0.10), Verdict::Unresolved);
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(&base, &[150.0], Lower, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(&[150.0, 151.0], &base, Lower, 0.10), Verdict::Unresolved);
        // Three a side is where verdicts start.
        assert_eq!(verdict(&base[..3], &[150.0, 151.0, 149.0], Lower, 0.10), Verdict::Regressed);
    }

    #[test]
    fn seed_determined_metrics_are_held_to_equality() {
        // Regret 3.3 % → 5.3 % is within a 0.02 bound on regret + 100, and
        // still a regression; a single run a side is enough to see it.
        assert_eq!(verdict_exact(&[103.27], &[105.3], Lower), Verdict::Regressed);
        assert_eq!(verdict_exact(&[103.27; 3], &[103.27; 3], Lower), Verdict::Unchanged);
        assert_eq!(verdict_exact(&[103.27; 3], &[103.1; 3], Lower), Verdict::Improved);
        assert_eq!(verdict_exact(&[3.0], &[2.0], Higher), Verdict::Regressed);
        // A side that does not repeat itself is a defect of its own.
        assert_eq!(
            verdict_exact(&[103.27; 3], &[103.27, 103.27, 103.1], Lower),
            Verdict::Regressed
        );
        assert_eq!(verdict_exact(&[103.27, 103.3], &[103.27; 2], Lower), Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = [80.0, 100.0, 120.0, 90.0, 110.0];
        let other = [85.0, 105.0, 125.0, 95.0, 112.0];
        assert_eq!(verdict(&base, &other, Lower, 0.10), Verdict::Unresolved);
        // …unless every run of the change beats every run of the base,
        let faster = [60.0, 70.0, 75.0, 65.0, 72.0];
        assert_eq!(verdict(&base, &faster, Lower, 0.10), Verdict::Improved);
        // or every run is worse and the median is beyond the bound.
        let slower = [130.0, 150.0, 170.0, 140.0, 160.0];
        assert_eq!(verdict(&base, &slower, Lower, 0.10), Verdict::Regressed);
    }
}
