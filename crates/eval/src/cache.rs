//! On-disk caching of response tables (simulations are the expensive part;
//! several figures share the same tables).

use crate::response::{build_response, ResponseTable};
use adaphet_scenarios::{Scale, Scenario};
use std::io::Write;
use std::path::PathBuf;

/// Header written as the first line of every cache file: a hash of the
/// code that builds and serializes a table (`build.rs`), so it changes by
/// itself with the simulator, the application, the scenarios or this
/// layout. Files with a different (or missing) header deserialize to
/// `None` and read as cache misses, so a table built by other code is
/// never served and a stale format is never misparsed as data.
pub const CACHE_VERSION: &str = concat!("adaphet-response-cache ", env!("ADAPHET_CACHE_CODE_HASH"));

fn cache_dir() -> PathBuf {
    PathBuf::from("target/adaphet-cache")
}

fn cache_path(scenario: &Scenario, scale: Scale, reps: usize, seed: u64) -> PathBuf {
    let scale_tag = match scale {
        Scale::Test => "test",
        Scale::Reduced => "reduced",
        Scale::Full => "full",
    };
    cache_dir().join(format!("resp_{}_{}_{}_{}.txt", scenario.id, scale_tag, reps, seed))
}

fn serialize(t: &ResponseTable) -> String {
    let mut s = String::new();
    s.push_str(CACHE_VERSION);
    s.push('\n');
    s.push_str(&t.label);
    s.push('\n');
    s.push_str(&format!("{}\n", t.sigma));
    s.push_str(&join(&t.lp));
    s.push('\n');
    s.push_str(&t.groups.iter().map(|(a, b)| format!("{a}-{b}")).collect::<Vec<_>>().join(";"));
    s.push('\n');
    s.push_str(&format!("{}\n", t.durations.len()));
    for row in &t.sim_base {
        s.push_str(&join(row));
        s.push('\n');
    }
    for row in &t.durations {
        s.push_str(&join(row));
        s.push('\n');
    }
    s
}

fn join(v: &[f64]) -> String {
    v.iter().map(|x| format!("{x:e}")).collect::<Vec<_>>().join(",")
}

fn parse_row(s: &str) -> Option<Vec<f64>> {
    s.split(',').map(|x| x.parse().ok()).collect()
}

fn deserialize(s: &str) -> Option<ResponseTable> {
    let mut lines = s.lines();
    if lines.next()? != CACHE_VERSION {
        return None;
    }
    let label = lines.next()?.to_string();
    let sigma: f64 = lines.next()?.parse().ok()?;
    let lp = parse_row(lines.next()?)?;
    let groups: Option<Vec<(usize, usize)>> = lines
        .next()?
        .split(';')
        .map(|g| {
            let (a, b) = g.split_once('-')?;
            Some((a.parse().ok()?, b.parse().ok()?))
        })
        .collect();
    let groups = groups?;
    let n: usize = lines.next()?.parse().ok()?;
    let mut sim_base = Vec::with_capacity(n);
    for _ in 0..n {
        sim_base.push(parse_row(lines.next()?)?);
    }
    let mut durations = Vec::with_capacity(n);
    for _ in 0..n {
        durations.push(parse_row(lines.next()?)?);
    }
    Some(ResponseTable { label, durations, sim_base, lp, groups, sigma })
}

/// Build a response table, reusing an on-disk cache under
/// `target/adaphet-cache/` when present.
pub fn build_response_cached(
    scenario: &Scenario,
    scale: Scale,
    reps: usize,
    seed: u64,
) -> ResponseTable {
    let recorder = adaphet_metrics::global();
    let path = cache_path(scenario, scale, reps, seed);
    if let Ok(text) = std::fs::read_to_string(&path) {
        let header = text.lines().next().unwrap_or("");
        if header.starts_with("adaphet-response-cache") && header != CACHE_VERSION {
            recorder.add("eval.cache.version_mismatches", 1.0);
        }
        if let Some(t) = deserialize(&text) {
            if t.label == scenario.label() {
                recorder.add("eval.cache.hits", 1.0);
                return t;
            }
        }
    }
    recorder.add("eval.cache.misses", 1.0);
    let t = build_response(scenario, scale, reps, seed);
    if std::fs::create_dir_all(cache_dir()).is_ok() {
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(serialize(&t).as_bytes());
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_round_trips() {
        let t = ResponseTable {
            label: "(x) TEST 1L 101 (Simul)".into(),
            durations: vec![vec![1.5, 2.5], vec![3.25, 4.0]],
            sim_base: vec![vec![1.0], vec![3.0]],
            lp: vec![0.5, 0.25],
            groups: vec![(1, 1), (2, 2)],
            sigma: 0.5,
        };
        let back = deserialize(&serialize(&t)).expect("parses");
        assert_eq!(back.label, t.label);
        assert_eq!(back.durations, t.durations);
        assert_eq!(back.sim_base, t.sim_base);
        assert_eq!(back.lp, t.lp);
        assert_eq!(back.groups, t.groups);
        assert_eq!(back.sigma, t.sigma);
    }

    #[test]
    fn cached_build_is_consistent() {
        let scen = Scenario::by_id('a').unwrap();
        // Unique seed to avoid clashing with other tests' cache entries.
        let a = build_response_cached(&scen, Scale::Test, 3, 123_456);
        let b = build_response_cached(&scen, Scale::Test, 3, 123_456);
        assert_eq!(a.durations, b.durations);
        let _ = std::fs::remove_file(cache_path(&scen, Scale::Test, 3, 123_456));
    }

    #[test]
    fn corrupt_cache_is_ignored() {
        let reg = adaphet_metrics::install_global(adaphet_metrics::Registry::new());
        let scen = Scenario::by_id('a').unwrap();
        let path = cache_path(&scen, Scale::Test, 2, 77);
        std::fs::create_dir_all(cache_dir()).unwrap();
        std::fs::write(&path, "garbage").unwrap();
        let miss0 = reg.counter_value("eval.cache.misses");
        let t = build_response_cached(&scen, Scale::Test, 2, 77);
        assert_eq!(t.n_actions(), scen.n_nodes());
        assert!(reg.counter_value("eval.cache.misses") - miss0 >= 1.0, "garbage counts as a miss");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn truncated_cache_file_reads_as_a_miss() {
        let scen = Scenario::by_id('a').unwrap();
        std::fs::create_dir_all(cache_dir()).unwrap();
        let path = cache_path(&scen, Scale::Test, 2, 79);
        // A valid header followed by a body cut off mid-table.
        std::fs::write(&path, format!("{CACHE_VERSION}\n{}\n0.5\n", scen.label())).unwrap();
        let t = build_response_cached(&scen, Scale::Test, 2, 79);
        assert_eq!(t.n_actions(), scen.n_nodes());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn header_of_other_code_is_a_counted_miss_and_file_is_rewritten() {
        let reg = adaphet_metrics::install_global(adaphet_metrics::Registry::new());
        let scen = Scenario::by_id('a').unwrap();
        let path = cache_path(&scen, Scale::Test, 2, 88);
        std::fs::create_dir_all(cache_dir()).unwrap();
        // A well-formed one-action table of this scenario, written by a
        // build from other sources: recognizably ours, another code hash.
        let stale = ResponseTable {
            label: scen.label(),
            durations: vec![vec![1.0]],
            sim_base: vec![vec![1.0]],
            lp: vec![0.5],
            groups: vec![(1, 1)],
            sigma: 0.5,
        };
        let other = serialize(&stale).replacen(CACHE_VERSION, "adaphet-response-cache 0123abcd", 1);
        std::fs::write(&path, other).unwrap();
        let mm0 = reg.counter_value("eval.cache.version_mismatches");
        let miss0 = reg.counter_value("eval.cache.misses");
        let t = build_response_cached(&scen, Scale::Test, 2, 88);
        assert_eq!(t.n_actions(), scen.n_nodes(), "the other build's table is not served");
        assert!(reg.counter_value("eval.cache.version_mismatches") - mm0 >= 1.0);
        assert!(reg.counter_value("eval.cache.misses") - miss0 >= 1.0);
        // The rebuild replaced the stale file under this build's header...
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with(CACHE_VERSION));
        // ...so the next read is a counted hit.
        let hit0 = reg.counter_value("eval.cache.hits");
        build_response_cached(&scen, Scale::Test, 2, 88);
        assert!(reg.counter_value("eval.cache.hits") - hit0 >= 1.0);
        let _ = std::fs::remove_file(path);
    }
}
