//! Typed command-line handling shared by the figure binaries.
//!
//! Every `fig*`/`table*`/`ablation`/`resilience`/`transfer` binary parses
//! the flags it reads out of one vocabulary through [`parse_args`] and
//! reports bad input (including a flag it does not read) as
//! [`AdaphetError::Usage`] from a `main() -> Result<(), AdaphetError>` —
//! one-line errors and exit status 1, never a panic or a scattered
//! `process::exit`.

use crate::error::AdaphetError;
use adaphet_scenarios::Scale;
use std::path::PathBuf;

/// Options common to every figure binary.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Simulation scale (`--test`, default reduced, `--full` = paper).
    pub scale: Scale,
    /// Repetitions for noise augmentation / strategy replays.
    pub reps: usize,
    /// Iterations per strategy replay (the paper uses 127).
    pub iters: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// When set, binaries that run tuning loops write one JSONL
    /// [`IterationEvent`](adaphet_core::IterationEvent) per iteration to
    /// this path.
    pub telemetry: Option<PathBuf>,
    /// When set, binaries that support metrics capture write a
    /// [`MetricsReport`](adaphet_metrics::MetricsReport) JSON snapshot to
    /// this path and print its table form.
    pub metrics: Option<PathBuf>,
    /// Fault plan (JSON, see
    /// [`FaultPlan::from_json`](adaphet_runtime::FaultPlan::from_json))
    /// for binaries that support fault injection.
    pub faults: Option<PathBuf>,
    /// Run scenario sweeps on the calling thread instead of fanning
    /// across cores (see [`sweep`](crate::sweep)). Output must be
    /// byte-identical either way; CI diffs the two fig6 runs.
    pub sequential: bool,
    /// Scenario letters to restrict `transfer` to (e.g.
    /// `--scenarios aip`); empty means all 16.
    pub scenarios: Vec<char>,
    /// Directory for the persistent surrogate store used by warm-start
    /// binaries (`transfer`); `None` keeps everything in memory.
    pub store_dir: Option<PathBuf>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            scale: Scale::Reduced,
            reps: 30,
            iters: 127,
            seed: 42,
            telemetry: None,
            metrics: None,
            faults: None,
            sequential: false,
            scenarios: Vec::new(),
            store_dir: None,
        }
    }
}

/// One flag of the shared vocabulary; a binary passes the ones it reads
/// to [`parse_args`], and any other flag is a usage error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--full | --reduced | --test` ([`RunArgs::scale`]).
    Scale,
    /// `--reps N`.
    Reps,
    /// `--iters N`.
    Iters,
    /// `--seed N`.
    Seed,
    /// `--telemetry PATH`.
    Telemetry,
    /// `--metrics PATH`.
    Metrics,
    /// `--faults PLAN.json`.
    Faults,
    /// `--sequential`.
    Sequential,
    /// `--scenarios LETTERS`.
    Scenarios,
    /// `--store-dir DIR`.
    StoreDir,
}

impl Flag {
    /// How a usage error lists the flag; its first word, split at `/`,
    /// is what it parses.
    fn usage(self) -> &'static str {
        match self {
            Flag::Scale => "--full/--reduced/--test",
            Flag::Reps => "--reps N",
            Flag::Iters => "--iters N",
            Flag::Seed => "--seed N",
            Flag::Telemetry => "--telemetry PATH",
            Flag::Metrics => "--metrics PATH",
            Flag::Faults => "--faults PLAN.json",
            Flag::Sequential => "--sequential",
            Flag::Scenarios => "--scenarios LETTERS",
            Flag::StoreDir => "--store-dir DIR",
        }
    }
}

/// Parse `std::env::args` against the flags a binary reads (`accepted`);
/// any other argument is an [`AdaphetError::Usage`] naming the accepted
/// ones.
pub fn parse_args(accepted: &[Flag]) -> Result<RunArgs, AdaphetError> {
    parse_argv(std::env::args().skip(1).collect(), accepted)
}

fn parse_argv(argv: Vec<String>, accepted: &[Flag]) -> Result<RunArgs, AdaphetError> {
    let usages: Vec<&str> = accepted.iter().map(|f| f.usage()).collect();
    let usage = if usages.is_empty() {
        "this binary takes no arguments".to_string()
    } else {
        format!("accepted: {}", usages.join(", "))
    };
    let mut out = RunArgs::default();
    let mut i = 0;
    // A value-taking flag must be followed by a parseable value.
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, AdaphetError> {
        argv.get(i)
            .cloned()
            .ok_or_else(|| AdaphetError::usage(format!("{flag} needs a value ({usage})")))
    };
    let number = |argv: &[String], i: usize, flag: &str| -> Result<u64, AdaphetError> {
        let v = value(argv, i, flag)?;
        v.parse().map_err(|_| AdaphetError::usage(format!("{flag} needs a number, got {v:?}")))
    };
    while i < argv.len() {
        let arg = argv[i].as_str();
        if !usages.iter().any(|u| u.split(' ').next().unwrap_or("").split('/').any(|s| s == arg)) {
            return Err(AdaphetError::usage(format!("unknown argument {arg:?} ({usage})")));
        }
        match arg {
            "--full" => out.scale = Scale::Full,
            "--reduced" => out.scale = Scale::Reduced,
            "--test" => out.scale = Scale::Test,
            "--reps" => {
                i += 1;
                out.reps = number(&argv, i, "--reps")? as usize;
                if out.reps == 0 {
                    // An empty pool has no mean to rank actions by.
                    return Err(AdaphetError::usage("--reps needs at least one repetition"));
                }
            }
            "--iters" => {
                i += 1;
                out.iters = number(&argv, i, "--iters")? as usize;
                if out.iters == 0 {
                    // A zero budget tunes nothing: every mean and gain is 0/0.
                    return Err(AdaphetError::usage("--iters needs at least one iteration"));
                }
            }
            "--seed" => {
                i += 1;
                out.seed = number(&argv, i, "--seed")?;
            }
            "--telemetry" => {
                i += 1;
                out.telemetry = Some(PathBuf::from(value(&argv, i, "--telemetry")?));
            }
            "--metrics" => {
                i += 1;
                out.metrics = Some(PathBuf::from(value(&argv, i, "--metrics")?));
            }
            "--faults" => {
                i += 1;
                out.faults = Some(PathBuf::from(value(&argv, i, "--faults")?));
            }
            "--sequential" => out.sequential = true,
            "--scenarios" => {
                i += 1;
                let letters = value(&argv, i, "--scenarios")?;
                out.scenarios = letters.chars().collect();
                if out.scenarios.is_empty()
                    || out.scenarios.iter().any(|c| !('a'..='p').contains(c))
                {
                    return Err(AdaphetError::usage(format!(
                        "--scenarios needs letters from a..p, got {letters:?}"
                    )));
                }
            }
            "--store-dir" => {
                i += 1;
                out.store_dir = Some(PathBuf::from(value(&argv, i, "--store-dir")?));
            }
            other => unreachable!("{other} is listed by Flag::usage and parsed above"),
        }
        i += 1;
    }
    Ok(out)
}

/// Load and parse the fault plan named by `--faults`, if any.
pub fn load_fault_plan(args: &RunArgs) -> Result<Option<adaphet_runtime::FaultPlan>, AdaphetError> {
    match &args.faults {
        None => Ok(None),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| AdaphetError::io(path, e))?;
            Ok(Some(adaphet_runtime::FaultPlan::from_json(&text)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[Flag] = &[
        Flag::Scale,
        Flag::Reps,
        Flag::Iters,
        Flag::Seed,
        Flag::Telemetry,
        Flag::Metrics,
        Flag::Faults,
        Flag::Sequential,
        Flag::Scenarios,
        Flag::StoreDir,
    ];

    fn parse(args: &[&str]) -> Result<RunArgs, AdaphetError> {
        parse_argv(args.iter().map(|s| s.to_string()).collect(), ALL)
    }

    #[test]
    fn defaults_match_paper() {
        let d = parse(&[]).unwrap();
        assert_eq!(d.reps, 30);
        assert_eq!(d.iters, 127);
        assert!(d.telemetry.is_none());
        assert!(d.metrics.is_none());
        assert!(d.faults.is_none());
        assert!(!d.sequential, "sweeps fan out by default");
    }

    #[test]
    fn sequential_flag_parses() {
        let d = parse(&["--sequential"]).unwrap();
        assert!(d.sequential);
    }

    #[test]
    fn flags_parse() {
        let d = parse(&[
            "--test",
            "--reps",
            "5",
            "--iters",
            "50",
            "--seed",
            "9",
            "--faults",
            "plan.json",
        ])
        .unwrap();
        assert_eq!(d.scale, Scale::Test);
        assert_eq!(d.reps, 5);
        assert_eq!(d.iters, 50);
        assert_eq!(d.seed, 9);
        assert_eq!(d.faults.as_deref(), Some(std::path::Path::new("plan.json")));
    }

    #[test]
    fn bad_input_is_a_usage_error_not_a_panic() {
        assert!(matches!(parse(&["--bogus"]), Err(AdaphetError::Usage(_))));
        assert!(matches!(parse(&["--reps"]), Err(AdaphetError::Usage(_))));
        assert!(matches!(parse(&["--reps", "many"]), Err(AdaphetError::Usage(_))));
        assert!(matches!(parse(&["--reps", "0"]), Err(AdaphetError::Usage(_))));
        assert!(matches!(parse(&["--iters", "0"]), Err(AdaphetError::Usage(_))));
        assert!(matches!(parse(&["--scenarios", "xyz"]), Err(AdaphetError::Usage(_))));
        assert!(matches!(parse(&["--scenarios", ""]), Err(AdaphetError::Usage(_))));
        // A flag of the vocabulary that the binary does not read.
        let fig1 = parse_argv(vec!["--reps".into(), "2".into()], &[Flag::Scale, Flag::Seed]);
        match fig1 {
            Err(AdaphetError::Usage(msg)) => {
                assert!(msg.contains("--reps") && msg.contains("--seed N"), "{msg}")
            }
            _ => panic!("an unread flag must be a usage error"),
        }
        assert!(matches!(parse_argv(vec!["--test".into()], &[]), Err(AdaphetError::Usage(_))));
    }

    #[test]
    fn scenario_subsets_and_store_dir_parse() {
        let d = parse(&["--scenarios", "aip", "--store-dir", "/tmp/s"]).unwrap();
        assert_eq!(d.scenarios, vec!['a', 'i', 'p']);
        assert_eq!(d.store_dir.as_deref(), Some(std::path::Path::new("/tmp/s")));
        assert!(parse(&[]).unwrap().scenarios.is_empty());
    }

    #[test]
    fn missing_fault_plan_file_is_an_io_error() {
        let args =
            RunArgs { faults: Some(PathBuf::from("/nonexistent/plan.json")), ..Default::default() };
        assert!(matches!(load_fault_plan(&args), Err(AdaphetError::Io { .. })));
        assert!(load_fault_plan(&RunArgs::default()).unwrap().is_none());
    }
}
