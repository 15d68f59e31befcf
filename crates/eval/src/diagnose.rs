//! Run diagnosis: turn a JSONL telemetry file into a self-contained HTML
//! (or ASCII) report.
//!
//! The telemetry records what the tuner *decided* (actions, durations,
//! posteriors, faults); it does not carry the task-level trace of any
//! iteration. To show *why* a configuration performs the way it does —
//! Gantt, critical path, idle bubbles — the diagnosis re-simulates one
//! profiled iteration at the best observed action and runs the
//! `adaphet-analysis` extractors over its extended trace. Simulated
//! scenarios are deterministic, so the re-simulated iteration is the
//! iteration the tuner measured.

use crate::error::AdaphetError;
use adaphet_analysis::{
    render_ascii, render_html, CriticalPath, IdleBreakdown, Json, Report, SimDiagnosis,
    StrategyRun, TelemetryRun,
};
use adaphet_core::{HealthPolicy, HealthTracker, PosteriorPoint, PosteriorSnapshot};
use adaphet_geostat::{IterationChoice, Phase};
use adaphet_runtime::NodeId;
use adaphet_scenarios::{Scale, Scenario};
use std::path::PathBuf;

/// Options of the `report` binary.
#[derive(Debug, Clone)]
pub struct ReportArgs {
    /// JSONL telemetry input (as written by `--telemetry`).
    pub input: PathBuf,
    /// HTML output path; defaults to the input with an `.html` extension.
    pub out: Option<PathBuf>,
    /// Optional metrics-report JSON to include.
    pub metrics: Option<PathBuf>,
    /// Print an ASCII report to stdout instead of writing HTML.
    pub ascii: bool,
    /// Scenario letter to re-simulate for the trace-level sections.
    pub scenario: char,
    /// Simulation scale of the re-simulated iteration.
    pub scale: Scale,
    /// Seed of the re-simulated iteration.
    pub seed: u64,
    /// Skip the re-simulation (telemetry-only report).
    pub no_sim: bool,
}

impl Default for ReportArgs {
    fn default() -> Self {
        ReportArgs {
            input: PathBuf::new(),
            out: None,
            metrics: None,
            ascii: false,
            scenario: 'a',
            scale: Scale::Reduced,
            seed: 42,
            no_sim: false,
        }
    }
}

const USAGE: &str = "usage: report <telemetry.jsonl> [--out REPORT.html] [--metrics METRICS.json] \
                     [--ascii] [--scenario a-p] [--test|--reduced|--full] [--seed N] [--no-sim]";

/// Parse the `report` binary's argument vector (without the program name).
pub fn parse_report_args(argv: Vec<String>) -> Result<ReportArgs, AdaphetError> {
    let mut out = ReportArgs::default();
    let mut i = 0;
    let value = |argv: &[String], i: usize, flag: &str| -> Result<String, AdaphetError> {
        argv.get(i)
            .cloned()
            .ok_or_else(|| AdaphetError::usage(format!("{flag} needs a value ({USAGE})")))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => {
                i += 1;
                out.out = Some(PathBuf::from(value(&argv, i, "--out")?));
            }
            "--metrics" => {
                i += 1;
                out.metrics = Some(PathBuf::from(value(&argv, i, "--metrics")?));
            }
            "--ascii" => out.ascii = true,
            "--no-sim" => out.no_sim = true,
            "--scenario" => {
                i += 1;
                let v = value(&argv, i, "--scenario")?;
                let mut chars = v.chars();
                match (chars.next(), chars.next()) {
                    (Some(c), None) if c.is_ascii_lowercase() => out.scenario = c,
                    _ => {
                        return Err(AdaphetError::usage(format!(
                            "--scenario needs a letter a-p, got {v:?}"
                        )))
                    }
                }
            }
            "--test" => out.scale = Scale::Test,
            "--reduced" => out.scale = Scale::Reduced,
            "--full" => out.scale = Scale::Full,
            "--seed" => {
                i += 1;
                let v = value(&argv, i, "--seed")?;
                out.seed = v.parse().map_err(|_| {
                    AdaphetError::usage(format!("--seed needs a number, got {v:?}"))
                })?;
            }
            flag if flag.starts_with("--") => {
                return Err(AdaphetError::usage(format!("unknown argument {flag:?} ({USAGE})")));
            }
            path => {
                if !out.input.as_os_str().is_empty() {
                    return Err(AdaphetError::usage(format!(
                        "unexpected second input {path:?} ({USAGE})"
                    )));
                }
                out.input = PathBuf::from(path);
            }
        }
        i += 1;
    }
    if out.input.as_os_str().is_empty() {
        return Err(AdaphetError::usage(USAGE));
    }
    Ok(out)
}

/// Re-simulate one profiled iteration of `scen` at `action` nodes and run
/// the trace-level extractors over it.
///
/// Panics if `action` is zero; it is clamped to the platform size above.
pub fn diagnose(scen: &Scenario, scale: Scale, seed: u64, action: usize) -> SimDiagnosis {
    assert!(action > 0, "action must be at least one node");
    let mut app = scen.app(scale, seed);
    app.set_trace_enabled(true);
    let n = app.n_nodes();
    let action = action.min(n);
    let report = app.run_iteration(IterationChoice::fact_only(n, action));
    let rt = app.runtime();
    let trace = rt.trace().clone();
    let platform = rt.platform();
    let groups: Vec<(String, usize, usize)> = platform
        .homogeneous_groups()
        .into_iter()
        .map(|(a, b)| (format!("{}:{}-{}", platform.node(NodeId(a - 1)).name, a, b), a, b))
        .collect();
    let critical_path =
        CriticalPath::extract(&trace).expect("a traced iteration always has events");
    let idle = IdleBreakdown::classify(&trace, report.start, report.end);
    let group_idle = groups
        .iter()
        .map(|&(_, lo, hi)| IdleBreakdown::classify_group(&trace, report.start, report.end, lo, hi))
        .collect();
    SimDiagnosis {
        scenario: scen.id.to_string(),
        action,
        makespan: report.duration(),
        phase_names: Phase::all().iter().map(|p| p.name().to_string()).collect(),
        groups,
        trace,
        critical_path,
        idle,
        group_idle,
    }
}

/// The health state after each record of `run`, as the [`HealthTracker`] a
/// live session owns reports it: the records are replayed in the order
/// the session fed its tracker (the snapshot a proposal computed, then the
/// recorded observation), so the timeline shows what `get_health` showed.
/// The JSONL does not say whether a session was warm-started, so the
/// warm-start rule stays silent (and the platform size, which only sets
/// that rule's baseline, is not needed).
fn health_states(run: &StrategyRun) -> Vec<&'static str> {
    // The tracker's LP reference is the minimum of the space's curve as
    // the session started; the first snapshot carries that curve.
    let lp_min = run
        .records
        .iter()
        .find_map(|r| r.snapshot.as_ref())
        .and_then(|points| points.iter().filter_map(|p| p.lp_bound).reduce(f64::min))
        .filter(|m| m.is_finite());
    let best_known = run.records.iter().find_map(|r| r.best_known);
    let mut tracker = HealthTracker::new(HealthPolicy::default(), 0, best_known, lp_min, false);
    run.records
        .iter()
        .map(|r| {
            if let Some(points) = &r.snapshot {
                tracker.on_posterior(&PosteriorSnapshot {
                    points: points
                        .iter()
                        .map(|p| PosteriorPoint {
                            action: p.action,
                            mean: p.mean.unwrap_or(f64::NAN),
                            sd: p.sd.unwrap_or(f64::NAN),
                            lp_bound: p.lp_bound,
                            excluded: p.excluded,
                        })
                        .collect(),
                });
            }
            // A platform fault is any annotation beyond the retry marker.
            let faulted =
                r.fault.as_deref().is_some_and(|f| f.split(';').any(|p| !p.starts_with("retry:")));
            tracker.on_record(r.duration, r.retries, faulted);
            tracker.state().as_str()
        })
        .collect()
}

/// Read the inputs named by `args` and assemble the [`Report`].
pub fn build_report(args: &ReportArgs) -> Result<Report, AdaphetError> {
    let text =
        std::fs::read_to_string(&args.input).map_err(|e| AdaphetError::io(&args.input, e))?;
    let telemetry = TelemetryRun::parse(&text)
        .map_err(|e| AdaphetError::usage(format!("{}: {e}", args.input.display())))?;
    let metrics = match &args.metrics {
        None => None,
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| AdaphetError::io(p, e))?;
            let json = Json::parse(&text)
                .map_err(|e| AdaphetError::usage(format!("{}: {e}", p.display())))?;
            Some(json)
        }
    };
    let sim = if args.no_sim {
        None
    } else {
        let scen = Scenario::by_id(args.scenario).ok_or_else(|| {
            AdaphetError::usage(format!("unknown scenario {:?} (a-p)", args.scenario))
        })?;
        // Diagnose the best action the tuner observed; a telemetry file
        // with no finite duration (all faults) falls back to action 1.
        let action = telemetry.best_observed().map_or(1, |(_, a, _)| a);
        Some(diagnose(&scen, args.scale, args.seed, action.max(1)))
    };
    let name = args
        .input
        .file_name()
        .map_or_else(|| args.input.display().to_string(), |f| f.to_string_lossy().into_owned());
    let health = telemetry.runs.iter().map(health_states).collect();
    Ok(Report {
        title: format!("adaphet run report — {name}"),
        source: args.input.display().to_string(),
        telemetry,
        health,
        sim,
        metrics,
    })
}

/// Build the report and render it: writes HTML (returning the path
/// message) or returns the ASCII rendering directly.
pub fn run_report(args: &ReportArgs) -> Result<String, AdaphetError> {
    let report = build_report(args)?;
    if args.ascii {
        return Ok(render_ascii(&report));
    }
    let out = args.out.clone().unwrap_or_else(|| args.input.with_extension("html"));
    std::fs::write(&out, render_html(&report)).map_err(|e| AdaphetError::io(&out, e))?;
    Ok(format!("wrote {}", out.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_with_defaults() {
        let a = parse_report_args(argv(&["runs/fig6.jsonl"])).unwrap();
        assert_eq!(a.input, PathBuf::from("runs/fig6.jsonl"));
        assert!(a.out.is_none() && !a.ascii && !a.no_sim);
        assert_eq!(a.scenario, 'a');
        assert_eq!(a.scale, Scale::Reduced);
    }

    #[test]
    fn args_parse_all_flags() {
        let a = parse_report_args(argv(&[
            "t.jsonl",
            "--out",
            "r.html",
            "--metrics",
            "m.json",
            "--ascii",
            "--scenario",
            "c",
            "--test",
            "--seed",
            "7",
            "--no-sim",
        ]))
        .unwrap();
        assert_eq!(a.out, Some(PathBuf::from("r.html")));
        assert_eq!(a.metrics, Some(PathBuf::from("m.json")));
        assert!(a.ascii && a.no_sim);
        assert_eq!(a.scenario, 'c');
        assert_eq!(a.scale, Scale::Test);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn bad_args_are_usage_errors() {
        assert!(matches!(parse_report_args(Vec::new()), Err(AdaphetError::Usage(_))));
        assert!(matches!(parse_report_args(argv(&["--bogus"])), Err(AdaphetError::Usage(_))));
        assert!(matches!(
            parse_report_args(argv(&["a.jsonl", "b.jsonl"])),
            Err(AdaphetError::Usage(_))
        ));
        assert!(matches!(
            parse_report_args(argv(&["a.jsonl", "--scenario", "zz"])),
            Err(AdaphetError::Usage(_))
        ));
    }

    #[test]
    fn missing_input_is_an_io_error() {
        let args = ReportArgs {
            input: PathBuf::from("/nonexistent/telemetry.jsonl"),
            ..Default::default()
        };
        assert!(matches!(build_report(&args), Err(AdaphetError::Io { .. })));
    }

    #[test]
    fn report_health_is_what_the_live_session_reported() {
        use crate::faults::space_for_platform;
        use adaphet_core::{JsonlSink, Observation, ResiliencePolicy, Session, StrategyKind};
        use adaphet_geostat::GeoSimApp;
        use adaphet_runtime::{FaultPlan, SimConfig};

        // The CI fault-smoke run — GP-discontinuous on scenario (a) under
        // `plans/death.json` — with the live tracker read after every step.
        let plan_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../plans/death.json");
        let plan = FaultPlan::from_json(&std::fs::read_to_string(plan_path).unwrap()).unwrap();
        let scen = Scenario::by_id('a').unwrap();
        let workload = scen.workload(Scale::Test);
        let sim = |seed| SimConfig { seed, task_jitter: None, trace: true };
        let mut platform = scen.platform();
        let mut app = GeoSimApp::new(platform.clone(), workload, sim(42));
        let space = space_for_platform(&platform, workload);
        // A best-known reference no action reaches arms the band-gated
        // stall rule, so the timeline leaves `ok` for more than the fault.
        let mut session = Session::builder(&space)
            .kind(StrategyKind::GpDiscontinuous)
            .seed(42)
            .resilience(ResiliencePolicy::standard())
            .best_known(1e-3)
            .build()
            .unwrap();
        let dir = std::env::temp_dir().join(format!("adaphet-health-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("death.jsonl");
        session.add_sink(Box::new(JsonlSink::create(&input).unwrap()));
        let mut live = Vec::new();
        for i in 0..40 {
            for rank in plan.deaths_at(i) {
                platform = platform.without_rank(rank);
                app = GeoSimApp::new(platform.clone(), workload, sim(42 + i as u64));
                session.apply_platform_change(
                    &space_for_platform(&platform, workload),
                    Some(rank),
                    format!("node-death:rank={rank}"),
                );
            }
            let n_live = platform.nodes.len();
            session.step(|n_fact| {
                let report = app.run_iteration(IterationChoice::fact_only(n_live, n_fact));
                Observation::of(report.duration())
            });
            live.push(session.health().state.as_str());
        }
        drop(session); // flushes the sink

        let report = build_report(&ReportArgs { input, no_sim: true, ..Default::default() });
        std::fs::remove_dir_all(&dir).unwrap();
        let report = report.unwrap();
        assert_eq!(report.health, [live.clone()]);
        for state in ["ok", "warn", "stalled"] {
            assert!(live.contains(&state), "the run never reads {state}: {live:?}");
        }
        let html = render_html(&report);
        assert!(html.contains("Convergence health timeline"));
    }

    #[test]
    fn diagnose_accounts_for_the_full_run() {
        let scen = Scenario::by_id('a').unwrap();
        let d = diagnose(&scen, Scale::Test, 42, 4);
        assert_eq!(d.action, 4);
        assert!(d.makespan > 0.0);
        // Acceptance check: the critical path spans the recorded
        // makespan within 1%.
        let cp = &d.critical_path;
        assert!(
            (cp.total() - d.makespan).abs() <= 0.01 * d.makespan,
            "critical path {} vs makespan {}",
            cp.total(),
            d.makespan
        );
        // Idle classification covers workers × window exactly.
        let window = d.makespan;
        let expect = d.idle.workers as f64 * window;
        assert!(
            (d.idle.total_s() - expect).abs() < 1e-6 * expect.max(1.0),
            "accounted {} of {expect}",
            d.idle.total_s()
        );
        assert_eq!(d.groups.len(), d.group_idle.len());
        assert!(d.bounding_group_label().is_some());
    }
}
