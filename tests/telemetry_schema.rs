//! Golden tests pinning the JSONL telemetry schema.
//!
//! `IterationEvent::to_json` is consumed by external tooling (plotting
//! scripts, trace viewers); its field names, ordering and null-handling
//! are a contract. These tests fail on any schema drift — bump them
//! deliberately, never incidentally.

use adaphet::tuner::{
    ActionDiagnostic, ActionSpace, DecisionTrace, GroupProfile, IterationEvent, JsonlSink,
    MemorySink, Observation, PhaseBreakdown, PhaseSlice, PosteriorPoint, PosteriorSnapshot,
    Session, StrategyKind,
};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The pinned key order of one JSONL event line.
const KEYS: [&str; 15] = [
    "\"iteration\":",
    "\"strategy\":",
    "\"action\":",
    "\"duration\":",
    "\"cumulative_time\":",
    "\"best_known\":",
    "\"regret\":",
    "\"phases\":",
    "\"posterior\":",
    "\"excluded\":",
    "\"note\":",
    "\"phase_breakdown\":",
    "\"retries\":",
    "\"fault\":",
    "\"snapshot\":",
];

#[test]
fn golden_fully_populated_event() {
    let e = IterationEvent {
        iteration: 3,
        strategy: "GP-discontinuous".into(),
        action: 7,
        duration: 1.5,
        cumulative_time: 12.25,
        best_known: Some(1.25),
        regret: Some(0.25),
        phases: vec![PhaseSlice::new("factorization", 1.0), PhaseSlice::new("solve", 0.5)],
        trace: Some(DecisionTrace {
            diagnostics: vec![ActionDiagnostic {
                action: 7,
                mean: 1.5,
                sd: 0.125,
                acquisition: 1.25,
            }],
            excluded: vec![1, 2],
            note: "gp-lcb".into(),
        }),
        phase_breakdown: Some(PhaseBreakdown {
            phases: vec![PhaseSlice::new("generation", 0.25), PhaseSlice::new("solve", 1.25)],
            groups: vec![GroupProfile { name: "chifflot:1-2".into(), busy_s: 3.0, idle_s: 1.0 }],
        }),
        retries: 1,
        fault: Some("node-death:rank=5;rebaseline".into()),
        snapshot: Some(PosteriorSnapshot {
            points: vec![
                PosteriorPoint {
                    action: 1,
                    mean: 8.5,
                    sd: 0.5,
                    lp_bound: Some(10.0),
                    excluded: true,
                },
                PosteriorPoint { action: 7, mean: 1.5, sd: 0.125, lp_bound: None, excluded: false },
            ],
        }),
    };
    assert_eq!(
        e.to_json(),
        "{\"iteration\":3,\"strategy\":\"GP-discontinuous\",\"action\":7,\
         \"duration\":1.5,\"cumulative_time\":12.25,\"best_known\":1.25,\
         \"regret\":0.25,\"phases\":[{\"name\":\"factorization\",\"seconds\":1},\
         {\"name\":\"solve\",\"seconds\":0.5}],\"posterior\":[{\"action\":7,\
         \"mean\":1.5,\"sd\":0.125,\"acquisition\":1.25}],\"excluded\":[1,2],\
         \"note\":\"gp-lcb\",\"phase_breakdown\":{\"phases\":[\
         {\"name\":\"generation\",\"seconds\":0.25},{\"name\":\"solve\",\"seconds\":1.25}],\
         \"groups\":[{\"name\":\"chifflot:1-2\",\"busy_s\":3,\"idle_s\":1,\
         \"utilization\":0.75}]},\"retries\":1,\
         \"fault\":\"node-death:rank=5;rebaseline\",\
         \"snapshot\":{\"points\":[\
         {\"action\":1,\"mean\":8.5,\"sd\":0.5,\"lp_bound\":10,\"excluded\":true},\
         {\"action\":7,\"mean\":1.5,\"sd\":0.125,\"lp_bound\":null,\"excluded\":false}]}}"
    );
}

#[test]
fn golden_minimal_event_keeps_every_key() {
    let e = IterationEvent {
        iteration: 0,
        strategy: "UCB".into(),
        action: 1,
        duration: 2.5,
        cumulative_time: 2.5,
        best_known: None,
        regret: None,
        phases: vec![],
        trace: None,
        phase_breakdown: None,
        retries: 0,
        fault: None,
        snapshot: None,
    };
    assert_eq!(
        e.to_json(),
        "{\"iteration\":0,\"strategy\":\"UCB\",\"action\":1,\"duration\":2.5,\
         \"cumulative_time\":2.5,\"best_known\":null,\"regret\":null,\
         \"phases\":[],\"posterior\":[],\"excluded\":[],\"note\":\"\",\
         \"phase_breakdown\":null,\"retries\":0,\"fault\":null,\"snapshot\":null}"
    );
}

#[test]
fn non_finite_floats_serialize_as_null() {
    let e = IterationEvent {
        iteration: 1,
        strategy: "UCB".into(),
        action: 2,
        duration: f64::NAN,
        cumulative_time: f64::INFINITY,
        best_known: Some(f64::NEG_INFINITY),
        regret: None,
        phases: vec![],
        trace: None,
        phase_breakdown: None,
        retries: 0,
        fault: None,
        snapshot: None,
    };
    let json = e.to_json();
    assert!(json.contains("\"duration\":null"), "{json}");
    assert!(json.contains("\"cumulative_time\":null"), "{json}");
    assert!(json.contains("\"best_known\":null"), "{json}");
}

/// `Write` handle sharing a buffer with the test (the driver owns the sink).
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn driver_emits_one_ordered_json_line_per_iteration() {
    let n = 8usize;
    let lp: Vec<f64> = (1..=n).map(|k| 50.0 / k as f64).collect();
    let space = ActionSpace::new(n, vec![], Some(lp));
    let strat = StrategyKind::GpDiscontinuous.build(&space, 5, None).unwrap();
    let buf = Shared::default();
    let memory = MemorySink::new();
    let mut driver = Session::builder(&space)
        .strategy(strat)
        .sink(Box::new(JsonlSink::new(buf.clone())))
        .sink(Box::new(memory.clone()))
        .build()
        .unwrap();
    let iters = 12;
    driver.run(iters, |k| Observation::of(50.0 / k as f64 + k as f64));
    let hist = driver.into_history();
    assert_eq!(memory.len(), hist.len(), "one event per recorded iteration");

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("telemetry is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), iters, "one JSONL line per iteration");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.starts_with('{') && line.ends_with('}'), "line {i}: {line}");
        // Keys appear exactly in the pinned order.
        let mut from = 0usize;
        for key in KEYS {
            let at = line[from..]
                .find(key)
                .unwrap_or_else(|| panic!("line {i} missing/misordered {key}: {line}"));
            from += at + key.len();
        }
        assert!(line.contains(&format!("\"iteration\":{i},")));
        assert!(line.contains("\"strategy\":\"GP-discontinuous\""));
    }
    // Once the GP is fit, events must expose the posterior and the
    // LP-bound exclusions (action 1 has LP = 50 ≥ any observed duration).
    let last = lines.last().unwrap();
    assert!(
        last.contains("\"posterior\":[{\"action\":"),
        "expected a populated posterior late in the run: {last}"
    );
    assert!(last.contains("\"excluded\":[1"), "expected action 1 excluded by the LP bound: {last}");
    // And the full-space posterior snapshot rides along, one point per
    // action with the pinned sub-schema key order.
    assert!(
        last.contains("\"snapshot\":{\"points\":[{\"action\":1,\"mean\":"),
        "expected a populated snapshot late in the run: {last}"
    );
    let snap_at = last.find("\"snapshot\":").unwrap();
    let snap = &last[snap_at..];
    for key in ["\"action\":", "\"mean\":", "\"sd\":", "\"lp_bound\":", "\"excluded\":"] {
        assert!(snap.contains(key), "snapshot point missing {key}: {snap}");
    }
    assert_eq!(snap.matches("\"action\":").count(), n, "one snapshot point per action: {snap}");
    // The memory sink sees the same snapshot structurally.
    let events = memory.events();
    let last_snap = events.last().unwrap().snapshot.as_ref().expect("snapshot in memory sink");
    assert_eq!(last_snap.points.len(), n);
    assert!(last_snap.points[0].excluded, "action 1 is bounded out");
}

#[test]
fn golden_snapshot_point_sub_schema() {
    // Pins the serialized layout of one PosteriorPoint so downstream
    // report parsing can't silently drift: key order, null lp_bound,
    // bare booleans, non-finite floats as null.
    let e = IterationEvent {
        iteration: 0,
        strategy: "GP-UCB".into(),
        action: 3,
        duration: 1.0,
        cumulative_time: 1.0,
        best_known: None,
        regret: None,
        phases: vec![],
        trace: None,
        phase_breakdown: None,
        retries: 0,
        fault: None,
        snapshot: Some(PosteriorSnapshot {
            points: vec![PosteriorPoint {
                action: 3,
                mean: f64::NAN,
                sd: 0.25,
                lp_bound: None,
                excluded: false,
            }],
        }),
    };
    assert!(e.to_json().ends_with(
        "\"snapshot\":{\"points\":[\
         {\"action\":3,\"mean\":null,\"sd\":0.25,\"lp_bound\":null,\"excluded\":false}]}}"
    ));
}
