//! `adaphet-benchmark`: one closed-loop tuning + sweep benchmark.
//!
//! ```text
//! adaphet-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--blocks N]
//! adaphet-benchmark run [--seed N] [--seconds S] [--trace] [--repeat N]
//!                       [--workload NAME] [--blocks N] [--out FILE]
//! adaphet-benchmark compare A.json B.json [--benchmark BENCHMARK.json]
//! ```
//!
//! The first form runs one workload in this process and ends its output
//! with the one-line result object; `run` starts one such process per
//! workload (so peak memory is per workload) and gathers their results;
//! `compare` holds two gathered result files against the bounds. See
//! `bench/README.md`.

mod batch;
mod compare;
mod daemon;
mod gen;
mod harness;
mod layers;
mod metrics;
mod service;
mod spans;
mod stats;
mod workload;

use adaphet_analysis::Json;
use harness::RunConfig;
use metrics::{Outcome, WORKLOADS};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  adaphet-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--blocks N]
  adaphet-benchmark run [--seed N] [--seconds S] [--trace] [--repeat N] [--workload NAME] [--blocks N] [--out FILE]
  adaphet-benchmark compare A.json B.json [--benchmark BENCHMARK.json]";

/// Seconds one run measures when `run` is not told otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, Option<String>)>,
    words: Vec<String>,
}

impl Args {
    /// Parse `argv`; flags in `switches` take no value.
    fn parse(argv: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args { flags: Vec::new(), words: Vec::new() };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                args.words.push(arg.clone());
            } else if switches.contains(&arg.as_str()) {
                args.flags.push((arg.clone(), None));
            } else {
                let value = it.next().ok_or(format!("{arg} needs a value"))?;
                args.flags.push((arg.clone(), Some(value.clone())));
            }
        }
        Ok(args)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: {v:?} is not a valid number")))
            .transpose()
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self.flags.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((flag, _)) => Err(format!("unknown flag {flag}")),
            None => Ok(()),
        }
    }
}

/// One workload in this process; the last line printed is the result.
fn run_one(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&["--workload", "--seed", "--seconds", "--trace", "--blocks"])?;
    let workload = args.value("--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload:?}; known: {}", WORKLOADS.join(", ")));
    }
    let cfg = RunConfig {
        seed: args.number("--seed")?.ok_or("--seed is required")?,
        seconds: args.number("--seconds")?.ok_or("--seconds is required")?,
        blocks: args.number("--blocks")?,
    };
    if cfg.seconds.is_nan() || cfg.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let traced = match args.value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let outcome = if traced {
        let (outcome, recorder) = harness::traced(workload, cfg)?;
        let pid = WORKLOADS.iter().position(|w| *w == workload).unwrap_or(0);
        let path = daemon::out_dir()?.join(format!("trace-{workload}.json"));
        let events = recorder.chrome_events(pid).join(",\n");
        std::fs::write(&path, format!("[\n{events}\n]\n"))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {} ({} spans)", path.display(), recorder.spans().len());
        for (name, self_us) in recorder.self_time_by_name_us() {
            println!("{workload:<17} self time {name:<28} {:>14.1} us", self_us);
        }
        outcome
    } else {
        harness::measure(workload, cfg)?
    };
    print_outcome(workload, &outcome);
    println!("#detail {}", outcome.detail_json());
    println!("{}", outcome.result_line(traced));
    Ok(outcome.correct())
}

fn print_outcome(workload: &str, outcome: &Outcome) {
    for failure in &outcome.failures {
        println!("CHECK FAILED [{workload}] {failure}");
    }
    for (name, v) in &outcome.metrics.0 {
        if v.samples == 0 {
            continue; // a layer this workload does not exercise
        }
        println!(
            "{workload:<17} {name:<38} {:>16.4} {:<6} (block IQR {:.4}, n={})",
            v.value,
            metrics::unit_of(name),
            v.block_iqr,
            v.samples
        );
    }
}

/// Run `workload` in a child process and return its `#detail` object.
fn spawn_one(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    blocks: Option<usize>,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(n) = blocks {
        command.args(["--blocks", &n.to_string()]);
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("#detail ") {
            Some(json) => detail = Some(json.to_string()),
            // Everything but the machine-readable tail is for the reader.
            None if !line.starts_with('{') => println!("{line}"),
            None => {}
        }
    }
    detail.ok_or(format!("the {workload} run ({}) printed no result", output.status))
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload (or one), each in a fresh process; gathers the results
/// into one JSON file and, with `--trace`, the spans into one trace.
fn run_all(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&[
        "--seed",
        "--seconds",
        "--trace",
        "--repeat",
        "--workload",
        "--blocks",
        "--out",
    ])?;
    let seed: u64 = args.number("--seed")?.unwrap_or(42);
    let seconds: f64 = args.number("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    let repeat: usize = args.number("--repeat")?.unwrap_or(1);
    let blocks: Option<usize> = args.number("--blocks")?;
    let trace = args.has("--trace");
    let workloads: Vec<&str> = match args.value("--workload") {
        Some(one) if WORKLOADS.contains(&one) => vec![one],
        Some(other) => return Err(format!("unknown workload {other:?}")),
        None => WORKLOADS.to_vec(),
    };
    let out_dir = daemon::out_dir()?;
    daemon::serve_binary()?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for round in 0..repeat {
        for workload in &workloads {
            for traced in [false, true] {
                if traced && !trace {
                    continue;
                }
                let detail = spawn_one(workload, seed, seconds, traced, blocks)?;
                let parsed = Json::parse(&detail).map_err(|e| format!("{workload}: {e}"))?;
                all_correct &= parsed.get("correct").and_then(Json::as_bool) == Some(true);
                let head = format!(
                    "{{\"workload\":\"{workload}\",\"trace\":{},\"seed\":{seed},\"round\":{round},",
                    u8::from(traced)
                );
                runs.push(format!("{head}{}", &detail[1..]));
            }
        }
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = format!(
        "{{\"schema\":1,\"seed\":{seed},\"git_commit\":\"{}\",\"nproc\":{nproc},\
         \"run_seconds\":{seconds},\"repeat\":{repeat},\"runs\":[\n{}\n]}}\n",
        git_commit(),
        runs.join(",\n")
    );
    let out_path = match args.value("--out") {
        Some(path) => std::path::PathBuf::from(path),
        None => out_dir.join("results.json"),
    };
    std::fs::write(&out_path, results).map_err(|e| format!("{}: {e}", out_path.display()))?;
    println!("wrote {}", out_path.display());
    if trace {
        let mut events = Vec::new();
        for workload in &workloads {
            let path = out_dir.join(format!("trace-{workload}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let inner = text.trim().trim_start_matches('[').trim_end_matches(']').trim();
            if !inner.is_empty() {
                events.push(inner.to_string());
            }
        }
        let path = out_dir.join("trace.json");
        std::fs::write(&path, format!("[\n{}\n]\n", events.join(",\n")))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    println!("{}", if all_correct { "all output checks passed" } else { "OUTPUT CHECKS FAILED" });
    Ok(all_correct)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    args.reject_unknown(&["--benchmark"])?;
    let [a, b] = &args.words[..] else {
        return Err("compare takes exactly two result files".into());
    };
    compare::compare(a, b, args.value("--benchmark").unwrap_or("BENCHMARK.json"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("run") => Args::parse(&argv[1..], &["--trace"]).and_then(|a| run_all(&a)),
        Some("compare") => Args::parse(&argv[1..], &[]).and_then(|a| compare_files(&a)),
        Some(flag) if flag.starts_with("--") && flag != "--help" => {
            Args::parse(&argv, &[]).and_then(|a| run_one(&a))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        // A run whose checks failed still printed its result (with
        // `correct: false`); only `run` and `compare` gate on it.
        Ok(ok) if ok || argv.first().is_some_and(|a| a.starts_with("--")) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("adaphet-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
