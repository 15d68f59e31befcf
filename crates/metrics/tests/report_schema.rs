//! Golden test pinning the `MetricsReport` JSON schema.
//!
//! The report is consumed by external tooling (CI artifacts, plotting
//! scripts); field names, nesting and ordering are a contract. Change this
//! string only together with a `METRICS_SCHEMA_VERSION` bump.

use adaphet_metrics::{
    GroupProfile, HistogramSnapshot, IterationProfile, MetricsReport, PhaseSlice,
    METRICS_SCHEMA_VERSION,
};

#[test]
fn golden_metrics_report_json() {
    assert_eq!(METRICS_SCHEMA_VERSION, 2, "bump the golden string with the schema version");
    let report = MetricsReport {
        monotonic_s: 12.25,
        counters: vec![("eval.cache.hits".into(), 3.0), ("sim.tasks_executed".into(), 42.0)],
        gauges: vec![("app.nt".into(), 10.0)],
        histograms: vec![(
            "gp.model.fit_s".into(),
            HistogramSnapshot {
                bounds: vec![0.001, 1.0],
                counts: vec![2, 1, 0],
                count: 3,
                sum: 0.5,
            },
        )],
        iterations: vec![IterationProfile {
            iteration: 1,
            action: 4,
            makespan_s: 2.5,
            phases: vec![PhaseSlice::new("generation", 1.0), PhaseSlice::new("factorization", 1.5)],
            groups: vec![GroupProfile { name: "chifflot:1-2".into(), busy_s: 3.0, idle_s: 1.0 }],
        }],
    };
    assert_eq!(
        report.to_json(),
        "{\"version\":2,\
         \"monotonic_s\":12.25,\
         \"counters\":{\"eval.cache.hits\":3,\"sim.tasks_executed\":42},\
         \"gauges\":{\"app.nt\":10},\
         \"histograms\":{\"gp.model.fit_s\":{\"bounds\":[0.001,1],\"counts\":[2,1,0],\"count\":3,\"sum\":0.5}},\
         \"iterations\":[{\"iteration\":1,\"action\":4,\"makespan_s\":2.5,\
         \"phases\":[{\"name\":\"generation\",\"seconds\":1},{\"name\":\"factorization\",\"seconds\":1.5}],\
         \"groups\":[{\"name\":\"chifflot:1-2\",\"busy_s\":3,\"idle_s\":1,\"utilization\":0.75}]}]}"
    );
}

#[test]
fn golden_empty_report_json() {
    assert_eq!(
        MetricsReport::default().to_json(),
        "{\"version\":2,\"monotonic_s\":0,\"counters\":{},\"gauges\":{},\"histograms\":{},\"iterations\":[]}"
    );
}
