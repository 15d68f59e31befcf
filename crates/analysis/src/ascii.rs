//! Plain-text fallback for the run report (`report --ascii`).
//!
//! Renders the same sections as [`crate::html::render_html`] with Unicode
//! bar charts instead of SVG, suitable for terminals and CI logs.

use crate::report::{format_num, Report, SimDiagnosis};

const BAR_W: usize = 40;

fn bar(frac: f64, width: usize) -> String {
    let frac = frac.clamp(0.0, 1.0);
    let filled = (frac * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

fn rule(out: &mut String, title: &str) {
    out.push_str(&format!("\n== {title} "));
    for _ in title.len()..60 {
        out.push('=');
    }
    out.push('\n');
}

/// Render the full report as plain text.
pub fn render_ascii(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}\nsource: {}\n", report.title, report.source));

    if !report.telemetry.runs.is_empty() {
        rule(&mut out, "strategy summary");
        for run in &report.telemetry.runs {
            let best = run
                .records
                .iter()
                .map(|r| r.duration)
                .filter(|d| d.is_finite())
                .fold(f64::INFINITY, f64::min);
            let total = run.records.last().map_or(0.0, |r| r.cumulative_time);
            let retries: usize = run.records.iter().map(|r| r.retries).sum();
            let faults = run.records.iter().filter(|r| r.fault.is_some()).count();
            out.push_str(&format!(
                "  {:<24} iters={:<4} best={:<10} total={:<10} retries={retries} faults={faults}\n",
                run.name,
                run.records.len(),
                if best.is_finite() { format_num(best) } else { "-".into() },
                format_num(total),
            ));
        }
        if let Some((name, action, dur)) = report.telemetry.best_observed() {
            out.push_str(&format!(
                "  best observed: {name} at {action} nodes, {} s\n",
                format_num(dur)
            ));
        }

        rule(&mut out, "iteration durations");
        let max_dur = report
            .telemetry
            .runs
            .iter()
            .flat_map(|r| r.records.iter().map(|rec| rec.duration))
            .filter(|d| d.is_finite())
            .fold(0.0f64, f64::max);
        for run in &report.telemetry.runs {
            out.push_str(&format!("  [{}]\n", run.name));
            for rec in &run.records {
                let frac = if max_dur > 0.0 && rec.duration.is_finite() {
                    rec.duration / max_dur
                } else {
                    0.0
                };
                let mark = if rec.fault.is_some() {
                    " x FAULT"
                } else if rec.retries > 0 {
                    " ^ retry"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "  {:>4}  n={:<3} {} {}{}{}\n",
                    rec.iteration,
                    rec.action,
                    bar(frac, BAR_W),
                    format_num(rec.duration),
                    if rec.snapshot.is_some() { " [gp]" } else { "" },
                    mark,
                ));
            }
        }
    }

    if let Some(sim) = &report.sim {
        sim_ascii(sim, &mut out);
    }

    let rows = report.metrics_rows();
    if !rows.is_empty() {
        rule(&mut out, "runtime metrics");
        for (k, v) in rows {
            out.push_str(&format!("  {k:<36} {v}\n"));
        }
    }
    out
}

fn sim_ascii(sim: &SimDiagnosis, out: &mut String) {
    rule(out, "run diagnosis");
    out.push_str(&format!(
        "  scenario {} at {} nodes, makespan {} s\n",
        sim.scenario,
        sim.action,
        format_num(sim.makespan)
    ));

    let cp = &sim.critical_path;
    let total = cp.total().max(f64::MIN_POSITIVE);
    out.push_str(&format!(
        "\n  critical path: {} tasks, {} s ({} exec / {} wait)\n",
        cp.steps.len(),
        format_num(cp.total()),
        format_num(cp.exec_time),
        format_num(cp.wait_time),
    ));
    if let Some(g) = sim.bounding_group_label() {
        out.push_str(&format!("  bounded by group: {g}\n"));
    }
    for (phase, secs) in cp.per_phase() {
        out.push_str(&format!(
            "    {:<20} {} {} s ({:.1}%)\n",
            sim.phase_name(phase),
            bar(secs / total, BAR_W / 2),
            format_num(secs),
            100.0 * secs / total,
        ));
    }

    out.push_str("\n  idle classification (busy/dep/transfer/no-work):\n");
    let mut rows: Vec<(String, &crate::idle::IdleBreakdown)> = vec![("all".to_string(), &sim.idle)];
    for ((name, _, _), b) in sim.groups.iter().zip(&sim.group_idle) {
        rows.push((name.clone(), b));
    }
    for (label, b) in rows {
        let t = b.total_s().max(f64::MIN_POSITIVE);
        out.push_str(&format!(
            "    {:<16} busy {:>5.1}% | dep {:>5.1}% | xfer {:>5.1}% | idle {:>5.1}%  ({} workers)\n",
            label,
            100.0 * b.busy_s / t,
            100.0 * b.dependency_s / t,
            100.0 * b.transfer_s / t,
            100.0 * b.no_ready_work_s / t,
            b.workers,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::TelemetryRun;

    #[test]
    fn ascii_report_renders_bars_and_markers() {
        let jsonl = "\
{\"iteration\":0,\"strategy\":\"UCB\",\"action\":4,\"duration\":3,\"cumulative_time\":3,\"retries\":0,\"fault\":null,\"snapshot\":null}\n\
{\"iteration\":1,\"strategy\":\"UCB\",\"action\":6,\"duration\":1.5,\"cumulative_time\":4.5,\"retries\":2,\"fault\":\"node-death:rank=1\",\"snapshot\":null}\n";
        let r = Report {
            title: "t".into(),
            source: "s".into(),
            telemetry: TelemetryRun::parse(jsonl).unwrap(),
            health: Vec::new(),
            sim: None,
            metrics: None,
        };
        let text = render_ascii(&r);
        assert!(text.contains("strategy summary"));
        assert!(text.contains("UCB"));
        assert!(text.contains("x FAULT"));
        assert!(text.contains('#'), "bars rendered");
        assert!(text.contains("best observed: UCB at 6 nodes"));
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(2.0, 4), "####");
        assert_eq!(bar(-1.0, 4), "....");
        assert_eq!(bar(0.5, 4), "##..");
    }
}
