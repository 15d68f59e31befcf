//! JSONL parsing for the telemetry schema.
//!
//! Each line is read back through [`IterationEvent`]'s own reader
//! (`FromJson`, beside the `to_json` that wrote it, on the workspace's
//! shared [`Json`] layer, re-exported here), so the schema pinned by
//! `tests/telemetry_schema.rs` is declared once. Unknown keys are ignored,
//! so the parser reads both the current 15-key schema and the older
//! 14-key prefix.

use std::collections::HashMap;

use adaphet_core::IterationEvent;
use adaphet_metrics::json::FromJson;
pub use adaphet_metrics::Json;

/// All iterations of one strategy in a telemetry file.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyRun {
    /// Strategy name as emitted.
    pub name: String,
    /// Records in file order.
    pub records: Vec<IterationEvent>,
}

/// A parsed telemetry file: one [`StrategyRun`] per strategy, in
/// first-appearance order (fig6 `--telemetry` appends every strategy's
/// replay into a single file).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryRun {
    /// Per-strategy runs.
    pub runs: Vec<StrategyRun>,
}

impl TelemetryRun {
    /// Parse a JSONL telemetry document (one event per non-empty line).
    pub fn parse(text: &str) -> Result<TelemetryRun, String> {
        let mut runs: Vec<StrategyRun> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for (ln, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
            let rec = IterationEvent::from_json(&v).map_err(|e| format!("line {}: {e}", ln + 1))?;
            let at = *index.entry(rec.strategy.clone()).or_insert_with(|| {
                runs.push(StrategyRun { name: rec.strategy.clone(), records: Vec::new() });
                runs.len() - 1
            });
            runs[at].records.push(rec);
        }
        Ok(TelemetryRun { runs })
    }

    /// Total number of records across all strategies.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|r| r.records.len()).sum()
    }

    /// Whether the file contained no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(strategy, action, duration)` of the fastest iteration in the
    /// file — the natural choice to re-simulate for diagnosis.
    pub fn best_observed(&self) -> Option<(&str, usize, f64)> {
        self.runs
            .iter()
            .flat_map(|r| r.records.iter().map(move |rec| (r.name.as_str(), rec)))
            .filter(|(_, rec)| rec.duration.is_finite())
            .min_by(|a, b| {
                a.1.duration.partial_cmp(&b.1.duration).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(name, rec)| (name, rec.action, rec.duration))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_core::PosteriorPoint;
    use adaphet_metrics::{GroupProfile, PhaseSlice};

    /// A line exactly as `IterationEvent::to_json` emits it (the golden
    /// schema of tests/telemetry_schema.rs).
    const LINE: &str = "{\"iteration\":3,\"strategy\":\"GP-discontinuous\",\"action\":7,\
        \"duration\":1.5,\"cumulative_time\":12.25,\"best_known\":1.25,\
        \"regret\":0.25,\"phases\":[{\"name\":\"factorization\",\"seconds\":1}],\
        \"posterior\":[{\"action\":7,\"mean\":1.5,\"sd\":0.125,\"acquisition\":1.25}],\
        \"excluded\":[1,2],\"note\":\"gp-lcb\",\"phase_breakdown\":{\"phases\":[\
        {\"name\":\"generation\",\"seconds\":0.25}],\"groups\":[{\"name\":\"chifflot:1-2\",\
        \"busy_s\":3,\"idle_s\":1,\"utilization\":0.75}]},\"retries\":1,\
        \"fault\":\"node-death:rank=5\",\"snapshot\":{\"points\":[\
        {\"action\":1,\"mean\":8.5,\"sd\":0.5,\"lp_bound\":10,\"excluded\":true}]}}";

    #[test]
    fn telemetry_records_round_trip_from_the_pinned_schema() {
        let run = TelemetryRun::parse(&format!("{LINE}\n")).unwrap();
        assert_eq!(run.runs.len(), 1);
        let rec = &run.runs[0].records[0];
        assert_eq!(rec.iteration, 3);
        assert_eq!(rec.action, 7);
        assert_eq!(rec.best_known, Some(1.25));
        assert_eq!(rec.phases, vec![PhaseSlice::new("factorization", 1.0)]);
        let trace = rec.trace.as_ref().unwrap();
        assert_eq!(trace.excluded, vec![1, 2]);
        assert_eq!(trace.note, "gp-lcb");
        let breakdown = rec.phase_breakdown.as_ref().unwrap();
        assert_eq!(breakdown.phases, vec![PhaseSlice::new("generation", 0.25)]);
        assert_eq!(
            breakdown.groups,
            vec![GroupProfile { name: "chifflot:1-2".into(), busy_s: 3.0, idle_s: 1.0 }]
        );
        assert_eq!(rec.retries, 1);
        assert_eq!(rec.fault.as_deref(), Some("node-death:rank=5"));
        let snap = rec.snapshot.as_ref().unwrap();
        assert_eq!(
            snap.points[0],
            PosteriorPoint { action: 1, mean: 8.5, sd: 0.5, lp_bound: Some(10.0), excluded: true }
        );
        assert_eq!(rec.to_json(), LINE, "the reader keeps every byte the writer wrote");
    }

    #[test]
    fn strategies_group_in_first_appearance_order() {
        let a = LINE;
        let b = LINE.replace("GP-discontinuous", "UCB");
        let text = format!("{a}\n{b}\n{a}\n");
        let run = TelemetryRun::parse(&text).unwrap();
        assert_eq!(run.runs.len(), 2);
        assert_eq!(run.runs[0].name, "GP-discontinuous");
        assert_eq!(run.runs[0].records.len(), 2);
        assert_eq!(run.runs[1].name, "UCB");
        assert_eq!(run.len(), 3);
        let (name, action, dur) = run.best_observed().unwrap();
        assert_eq!((name, action, dur), ("GP-discontinuous", 7, 1.5));
    }

    #[test]
    fn null_snapshot_and_missing_fields_degrade_gracefully() {
        let line = "{\"iteration\":0,\"strategy\":\"UCB\",\"action\":1,\"duration\":null,\
             \"snapshot\":null}";
        let run = TelemetryRun::parse(line).unwrap();
        let rec = &run.runs[0].records[0];
        assert!(rec.duration.is_nan());
        assert!(rec.snapshot.is_none());
        assert!(rec.phases.is_empty());
        assert!(rec.trace.is_none());
        assert_eq!(rec.retries, 0);
    }
}
