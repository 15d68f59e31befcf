//! Turn a JSONL telemetry file into a self-contained HTML run report
//! (or an ASCII rendering with `--ascii`).
//!
//! Usage: `report <telemetry.jsonl> [--out REPORT.html]
//! [--metrics METRICS.json] [--ascii] [--scenario a-p]
//! [--test|--reduced|--full] [--seed N] [--no-sim]`
//!
//! The HTML file embeds every figure as inline SVG — no JavaScript, no
//! external fetches — and includes a re-simulated trace diagnosis
//! (Gantt, critical path, idle-bubble classification) of the best
//! observed action unless `--no-sim` is given.

use adaphet_eval::{parse_report_args, run_report, AdaphetError};

fn main() -> Result<(), AdaphetError> {
    let args = parse_report_args(std::env::args().skip(1).collect())?;
    let out = run_report(&args)?;
    println!("{out}");
    Ok(())
}
