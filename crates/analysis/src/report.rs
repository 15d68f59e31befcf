//! The assembled run-report data model shared by the HTML and ASCII
//! renderers.
//!
//! A [`Report`] always carries the parsed telemetry; the simulation-side
//! diagnosis ([`SimDiagnosis`]) is optional because it requires re-running
//! one profiled iteration at the chosen action to obtain an extended trace
//! — the `report` eval binary does that, library consumers may not.

use crate::critical_path::CriticalPath;
use crate::idle::IdleBreakdown;
use crate::jsonl::{Json, TelemetryRun};
use adaphet_runtime::Trace;

/// Diagnosis of one re-simulated iteration at a fixed action.
#[derive(Debug, Clone)]
pub struct SimDiagnosis {
    /// Scenario label (e.g. `"a"`).
    pub scenario: String,
    /// Action (node count) that was re-simulated.
    pub action: usize,
    /// Makespan of the re-simulated iteration (s).
    pub makespan: f64,
    /// Phase-tag → display-name table (index = phase id).
    pub phase_names: Vec<String>,
    /// Homogeneous node groups: `(label, first_rank, last_rank)`,
    /// 1-based inclusive, as derived from `Platform::homogeneous_groups`.
    pub groups: Vec<(String, usize, usize)>,
    /// The extended trace of the iteration.
    pub trace: Trace,
    /// Exact critical path through the trace.
    pub critical_path: CriticalPath,
    /// Whole-platform idle classification over the trace window.
    pub idle: IdleBreakdown,
    /// Per-group idle classification, aligned with `groups`.
    pub group_idle: Vec<IdleBreakdown>,
}

impl SimDiagnosis {
    /// Human-readable name of a phase tag.
    pub fn phase_name(&self, phase: u32) -> String {
        self.phase_names.get(phase as usize).cloned().unwrap_or_else(|| format!("phase-{phase}"))
    }

    /// Label of the group bounding the critical path, if any.
    pub fn bounding_group_label(&self) -> Option<&str> {
        let ranges: Vec<(usize, usize)> = self.groups.iter().map(|g| (g.1, g.2)).collect();
        self.critical_path
            .bounding_group(&ranges)
            .and_then(|gi| self.groups.get(gi))
            .map(|g| g.0.as_str())
    }
}

/// Everything a renderer needs to produce a run report.
#[derive(Debug, Clone)]
pub struct Report {
    /// Report title.
    pub title: String,
    /// Where the telemetry came from (file path or description).
    pub source: String,
    /// Parsed telemetry, grouped per strategy.
    pub telemetry: TelemetryRun,
    /// Convergence-health state after each record of each run (parallel
    /// to `telemetry.runs` and their `records`), in the wire spelling of
    /// `get_health`: `ok` / `warn` / `stalled` / `diverging`. Whoever
    /// builds the report replays the records through the live session's
    /// rule engine; the renderers only draw what they are handed, and an
    /// empty list means no health timeline.
    pub health: Vec<Vec<&'static str>>,
    /// Optional re-simulation diagnosis.
    pub sim: Option<SimDiagnosis>,
    /// Optional metrics-registry export (parsed JSON document).
    pub metrics: Option<Json>,
}

impl Report {
    /// Flat `(label, value)` rows extracted from the metrics document:
    /// top-level scalars plus one level of nested objects, in document
    /// order. Arrays and deeper nesting are summarized by length.
    pub fn metrics_rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        let Some(Json::Obj(fields)) = &self.metrics else {
            return rows;
        };
        for (k, v) in fields {
            flatten_metric(k, v, &mut rows);
        }
        rows
    }
}

fn scalar(v: &Json) -> Option<String> {
    match v {
        Json::Null => Some("null".into()),
        Json::Bool(b) => Some(b.to_string()),
        Json::Num(x) => Some(format_num(*x)),
        Json::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn flatten_metric(key: &str, v: &Json, rows: &mut Vec<(String, String)>) {
    if let Some(s) = scalar(v) {
        rows.push((key.to_string(), s));
        return;
    }
    match v {
        Json::Obj(fields) => {
            for (k, inner) in fields {
                match scalar(inner) {
                    Some(s) => rows.push((format!("{key}.{k}"), s)),
                    None => {
                        rows.push((format!("{key}.{k}"), format!("({} entries)", json_len(inner))))
                    }
                }
            }
        }
        Json::Arr(items) => rows.push((key.to_string(), format!("({} entries)", items.len()))),
        _ => unreachable!("scalar() covers the remaining variants"),
    }
}

fn json_len(v: &Json) -> usize {
    match v {
        Json::Arr(a) => a.len(),
        Json::Obj(o) => o.len(),
        _ => 1,
    }
}

/// Compact human formatting for report numbers: integers stay integral,
/// everything else gets four significant-looking decimals.
pub fn format_num(x: f64) -> String {
    if !x.is_finite() {
        return x.to_string();
    }
    if x == x.trunc() && x.abs() < 1e12 {
        return format!("{}", x as i64);
    }
    let s = format!("{x:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_rows_flatten_one_level() {
        let doc = Json::parse(
            r#"{"runs":3,"wall_s":1.25,"phase":{"fact":2.5,"deep":[1,2]},"hist":[1,2,3]}"#,
        )
        .unwrap();
        let r = Report {
            title: "t".into(),
            source: "s".into(),
            telemetry: TelemetryRun::default(),
            health: Vec::new(),
            sim: None,
            metrics: Some(doc),
        };
        assert_eq!(
            r.metrics_rows(),
            vec![
                ("runs".to_string(), "3".to_string()),
                ("wall_s".to_string(), "1.25".to_string()),
                ("phase.fact".to_string(), "2.5".to_string()),
                ("phase.deep".to_string(), "(2 entries)".to_string()),
                ("hist".to_string(), "(3 entries)".to_string()),
            ]
        );
    }

    #[test]
    fn numbers_format_compactly() {
        assert_eq!(format_num(10.0), "10");
        assert_eq!(format_num(0.125), "0.125");
        assert_eq!(format_num(1.23456), "1.2346");
        assert_eq!(format_num(f64::NAN), "NaN");
    }
}
