//! Structural gates over the workspace's sources and manifests, std only.
//!
//! - The crate dependency DAG is parsed from every `crates/*/Cargo.toml`
//!   and must be the one DESIGN.md §3 draws, so a new edge is a diff here.
//! - Every declared dependency must be named by the crate that declares it.
//! - `unsafe` may appear in one file only: the rayon shim's job queue.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// One workspace member as its manifest declares it.
struct Crate {
    dir: PathBuf,
    package: String,
    /// Names under `[dependencies]`: the edges of the DAG.
    deps: BTreeSet<String>,
    /// Names under every `*dependencies]` table (dev and build included).
    declared: BTreeSet<String>,
}

fn crates() -> Vec<Crate> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    dirs.into_iter()
        .map(|dir| {
            let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("Cargo.toml");
            let (mut package, mut deps, mut declared) =
                (String::new(), BTreeSet::new(), BTreeSet::new());
            let mut table = "";
            for line in manifest.lines().map(str::trim) {
                if line.starts_with('[') {
                    table = line;
                    continue;
                }
                let Some((key, value)) = line.split_once('=') else { continue };
                let key = key.trim();
                if table == "[package]" && key == "name" {
                    package = value.trim().trim_matches('"').to_string();
                } else if table.ends_with("dependencies]") {
                    let name = key.strip_suffix(".workspace").unwrap_or(key).to_string();
                    if table == "[dependencies]" {
                        deps.insert(name.clone());
                    }
                    declared.insert(name);
                }
            }
            assert!(!package.is_empty(), "{}: no [package] name", dir.display());
            Crate { dir, package, deps, declared }
        })
        .collect()
}

/// Every file under `dir` (recursively) whose name passes `keep`.
fn files(dir: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files(&path, keep, out);
        } else if keep(&path) {
            out.push(path);
        }
    }
}

/// Whether `word` occurs in `text` delimited by non-identifier characters.
fn names_word(text: &str, word: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    text.match_indices(word).any(|(i, _)| {
        !text[..i].chars().next_back().is_some_and(is_ident)
            && !text[i + word.len()..].chars().next().is_some_and(is_ident)
    })
}

#[test]
fn crate_dag_is_the_one_design_draws() {
    // DESIGN.md §3, "Dependency DAG"; `metrics` is added below to every
    // crate but linalg, lp, store and scenarios.
    let drawn: &[(&str, &[&str])] = &[
        ("analysis", &["runtime", "core"]),
        ("core", &["gp", "linalg", "store"]),
        ("eval", &["core", "gp", "linalg", "runtime", "geostat", "scenarios", "analysis", "store"]),
        ("geostat", &["runtime", "linalg", "lp"]),
        ("gp", &["linalg"]),
        ("linalg", &[]),
        ("lp", &[]),
        ("metrics", &[]),
        ("runtime", &[]),
        ("scenarios", &["runtime", "geostat", "store"]),
        ("service", &["core", "analysis"]),
        ("store", &[]),
    ];
    let without_metrics = ["linalg", "lp", "store", "scenarios", "metrics"];
    let expected: BTreeMap<String, BTreeSet<String>> = drawn
        .iter()
        .map(|&(krate, deps)| {
            let mut deps: BTreeSet<String> = deps.iter().map(|d| d.to_string()).collect();
            if !without_metrics.contains(&krate) {
                deps.insert("metrics".into());
            }
            (krate.to_string(), deps)
        })
        .collect();
    let parsed: BTreeMap<String, BTreeSet<String>> = crates()
        .into_iter()
        .filter_map(|c| {
            let krate = c.package.strip_prefix("adaphet-")?.to_string();
            let deps = c.deps.iter().filter_map(|d| d.strip_prefix("adaphet-")).map(String::from);
            Some((krate, deps.collect()))
        })
        .collect();
    assert_eq!(parsed, expected, "the workspace DAG left DESIGN.md §3's drawing");
}

#[test]
fn declared_edges_are_used() {
    // An edge nobody names still costs a rebuild.
    let mut unused = Vec::new();
    for c in crates() {
        let mut sources = Vec::new();
        for sub in ["src", "tests", "examples"] {
            files(&c.dir.join(sub), &|_| true, &mut sources);
        }
        let texts: Vec<String> =
            sources.iter().map(|p| String::from_utf8_lossy(&fs::read(p).unwrap()).into()).collect();
        for dep in &c.declared {
            let word = dep.replace('-', "_");
            if !texts.iter().any(|t| names_word(t, &word)) {
                unused.push(format!("{}: {dep} is declared and never named", c.package));
            }
        }
    }
    assert!(unused.is_empty(), "{unused:#?}");
}

#[test]
fn unsafe_is_confined_to_the_rayon_shim() {
    let mut sources = Vec::new();
    files(&root().join("crates"), &|p| p.extension().is_some_and(|x| x == "rs"), &mut sources);
    let mut with_unsafe: Vec<String> = sources
        .iter()
        .filter(|p| fs::read_to_string(p).unwrap().contains("unsafe"))
        .map(|p| p.strip_prefix(root()).unwrap().to_string_lossy().replace('\\', "/"))
        .collect();
    with_unsafe.sort();
    assert_eq!(with_unsafe, ["crates/shim-rayon/src/lib.rs"]);
}
