//! Derives the response cache's header from the code that builds a table.
//!
//! A cached table is only valid for the simulator, application, scenarios,
//! bound, RNG, flop counts and table builder that produced it. This script
//! hashes every `.rs` file of those sources (FNV-1a over each path and its
//! bytes, in sorted order) into `ADAPHET_CACHE_CODE_HASH`, which `cache.rs`
//! writes into every cache file's first line: a table built by other code
//! then reads as a miss instead of being served.

use std::fs;
use std::path::{Path, PathBuf};

/// Source trees whose code decides what a response table holds, relative
/// to `crates/`.
const TREES: &[&str] = &[
    "runtime/src",
    "geostat/src",
    "scenarios/src",
    "lp/src",
    "shim-rand/src",
    "shim-rand-distr/src",
];

/// The table builder, the cache format, and the flop counts every
/// simulated task is charged (`linalg::flops`).
const FILES: &[&str] = &["eval/src/response.rs", "eval/src/cache.rs", "linalg/src/kernels.rs"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    println!("cargo:rerun-if-changed={}", dir.display());
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn main() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/ directory");
    let mut files: Vec<PathBuf> = FILES.iter().map(|f| crates.join(f)).collect();
    for tree in TREES {
        rust_files(&crates.join(tree), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for file in &files {
        println!("cargo:rerun-if-changed={}", file.display());
        let rel = file.strip_prefix(crates).expect("file under crates/");
        fnv1a(&mut hash, rel.to_string_lossy().replace('\\', "/").as_bytes());
        fnv1a(&mut hash, &[0]);
        fnv1a(&mut hash, &fs::read(file).unwrap_or_else(|e| panic!("{}: {e}", file.display())));
        fnv1a(&mut hash, &[0]);
    }
    println!("cargo:rustc-env=ADAPHET_CACHE_CODE_HASH={hash:016x}");
}
