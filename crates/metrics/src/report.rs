//! [`MetricsReport`]: a frozen, serializable view of a metrics run.

use crate::json::{self, ToJson};
use crate::registry::HistogramSnapshot;

/// Version stamped into every report; bump on any schema change (the golden
/// test in `tests/report_schema.rs` pins the serialized layout).
///
/// v2 added `monotonic_s`, the registry-relative monotonic snapshot
/// timestamp.
pub const METRICS_SCHEMA_VERSION: u32 = 2;

/// Busy/idle seconds of one homogeneous node group over one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupProfile {
    /// Group label, e.g. `"chifflot:1-2"`.
    pub name: String,
    /// Seconds of worker (CPU core or GPU) busy time, summed over workers.
    pub busy_s: f64,
    /// Seconds of worker idle time within the iteration window.
    pub idle_s: f64,
}

impl GroupProfile {
    /// Busy fraction in `[0, 1]` (0 for an empty window).
    pub fn utilization(&self) -> f64 {
        let cap = self.busy_s + self.idle_s;
        if cap <= 0.0 {
            0.0
        } else {
            self.busy_s / cap
        }
    }
}

/// Phase-resolved profile of one tuner iteration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IterationProfile {
    /// 0-based iteration index.
    pub iteration: usize,
    /// The action (node count) executed.
    pub action: usize,
    /// Simulated makespan of the iteration (seconds).
    pub makespan_s: f64,
    /// Disjoint per-phase wall-clock slices `(phase name, seconds)`, in
    /// completion order; they sum to `makespan_s`.
    pub phases: Vec<(String, f64)>,
    /// Busy vs. idle time per homogeneous node group.
    pub groups: Vec<GroupProfile>,
}

/// Everything a metrics run produced: registry totals plus the per-iteration
/// phase/utilization profiles. Serializes to a single JSON object (schema
/// pinned by a golden test) or an aligned text table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsReport {
    /// Monotonic seconds since the source [`Registry`](crate::Registry)
    /// was created, read at snapshot time. Successive snapshots of one
    /// registry carry strictly increasing values, so consumers can order
    /// and rate-compute scrapes without a wall clock (0 for reports built
    /// by hand).
    pub monotonic_s: f64,
    /// Counter totals, name-sorted.
    pub counters: Vec<(String, f64)>,
    /// Gauge values, name-sorted.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots, name-sorted.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Per-iteration profiles, in iteration order (empty when the run had
    /// no per-iteration executor, e.g. a bare registry snapshot).
    pub iterations: Vec<IterationProfile>,
}

/// Map a dotted adaphet metric name onto a Prometheus series name:
/// `adaphet_` namespace, non-`[a-zA-Z0-9_]` characters replaced by `_`,
/// and a trailing `_s` (the workspace convention for seconds) spelled out
/// as `_seconds`.
pub fn prometheus_name(name: &str) -> String {
    let spelled = match name.strip_suffix("_s") {
        Some(base) => format!("{base}_seconds"),
        None => name.to_string(),
    };
    let mut out = String::with_capacity(spelled.len() + 8);
    out.push_str("adaphet_");
    for c in spelled.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' });
    }
    out
}

impl ToJson for GroupProfile {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("name", &self.name)
                .field("busy_s", &self.busy_s)
                .field("idle_s", &self.idle_s)
                .field("utilization", &self.utilization());
        });
    }
}

fn write_map(out: &mut String, entries: &[(String, f64)]) {
    json::object(out, |o| {
        for (k, v) in entries {
            o.field(k, v);
        }
    });
}

impl MetricsReport {
    /// Serialize as one JSON object with pinned key order: `version`,
    /// `monotonic_s`, `counters`, `gauges`, `histograms`, `iterations`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        json::object(&mut out, |o| {
            o.field("version", &METRICS_SCHEMA_VERSION).field("monotonic_s", &self.monotonic_s);
            write_map(o.key("counters"), &self.counters);
            write_map(o.key("gauges"), &self.gauges);
            json::object(o.key("histograms"), |hists| {
                for (k, h) in &self.histograms {
                    json::object(hists.key(k), |o| {
                        o.field("bounds", &h.bounds)
                            .field("counts", &h.counts)
                            .field("count", &h.count)
                            .field("sum", &h.sum);
                    });
                }
            });
            json::array(o.key("iterations"), &self.iterations, |out, it| {
                json::object(out, |o| {
                    o.field("iteration", &it.iteration)
                        .field("action", &it.action)
                        .field("makespan_s", &it.makespan_s);
                    json::array(o.key("phases"), &it.phases, |out, (name, seconds)| {
                        json::object(out, |o| {
                            o.field("name", name).field("seconds", seconds);
                        });
                    });
                    o.field("groups", &it.groups);
                });
            });
        });
        out
    }

    /// Render in the Prometheus text exposition format (version 0.0.4).
    ///
    /// Dotted metric names become underscore-joined names under the
    /// `adaphet_` namespace; counters gain the conventional `_total`
    /// suffix and histogram names ending in `_s` are spelled out as
    /// `_seconds`. Histograms expose cumulative `_bucket{le="…"}` series
    /// plus `_sum`/`_count`; the snapshot timestamp travels as the
    /// `adaphet_snapshot_monotonic_seconds` gauge. Floats are formatted
    /// with Rust's shortest round-trip form, so the output is
    /// deterministic for given inputs (pinned by the golden test in
    /// `tests/prometheus_golden.rs`). The `iterations` section has no
    /// exposition equivalent and is skipped.
    pub fn to_prometheus(&self) -> String {
        fn fmt(v: f64) -> String {
            if v.is_nan() {
                "NaN".into()
            } else if v == f64::INFINITY {
                "+Inf".into()
            } else if v == f64::NEG_INFINITY {
                "-Inf".into()
            } else {
                format!("{v}")
            }
        }
        let mut out = String::with_capacity(4096);
        let mut series = |name: &str, kind: &str, orig: &str, body: &dyn Fn(&mut String)| {
            out.push_str(&format!("# HELP {name} adaphet {kind} '{orig}'\n"));
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            body(&mut out);
        };
        series(
            "adaphet_snapshot_monotonic_seconds",
            "gauge",
            "monotonic_s",
            &|out: &mut String| {
                out.push_str(&format!(
                    "adaphet_snapshot_monotonic_seconds {}\n",
                    fmt(self.monotonic_s)
                ));
            },
        );
        for (k, v) in &self.counters {
            let name = format!("{}_total", prometheus_name(k));
            series(&name, "counter", k, &|out: &mut String| {
                out.push_str(&format!("{name} {}\n", fmt(*v)));
            });
        }
        for (k, v) in &self.gauges {
            let name = prometheus_name(k);
            series(&name, "gauge", k, &|out: &mut String| {
                out.push_str(&format!("{name} {}\n", fmt(*v)));
            });
        }
        for (k, h) in &self.histograms {
            let name = prometheus_name(k);
            series(&name, "histogram", k, &|out: &mut String| {
                let mut cum = 0u64;
                for (i, bound) in h.bounds.iter().enumerate() {
                    cum += h.counts.get(i).copied().unwrap_or(0);
                    out.push_str(&format!("{name}_bucket{{le=\"{}\"}} {cum}\n", fmt(*bound)));
                }
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
                out.push_str(&format!("{name}_sum {}\n", fmt(h.sum)));
                out.push_str(&format!("{name}_count {}\n", h.count));
            });
        }
        out
    }

    /// Render as a human-readable aligned text table: counters, gauges,
    /// histogram summaries, then one row per iteration with its phase
    /// breakdown and per-group utilization.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .chain(self.gauges.iter().map(|(k, _)| k.len()))
            .chain(self.histograms.iter().map(|(k, _)| k.len()))
            .max()
            .unwrap_or(4)
            .max(4);
        if !self.counters.is_empty() {
            out.push_str("== counters ==\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<name_w$}  {v:>16.6}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("== gauges ==\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<name_w$}  {v:>16.6}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("== histograms ==\n");
            out.push_str(&format!(
                "  {:<name_w$}  {:>10}  {:>14}  {:>14}\n",
                "name", "count", "sum_s", "mean_s"
            ));
            for (k, h) in &self.histograms {
                out.push_str(&format!(
                    "  {k:<name_w$}  {:>10}  {:>14.6}  {:>14.6}\n",
                    h.count,
                    h.sum,
                    h.mean()
                ));
            }
        }
        if !self.iterations.is_empty() {
            // Column per phase name (first-seen order), then one per group.
            let mut phase_names: Vec<&str> = Vec::new();
            let mut group_names: Vec<&str> = Vec::new();
            for it in &self.iterations {
                for (n, _) in &it.phases {
                    if !phase_names.contains(&n.as_str()) {
                        phase_names.push(n);
                    }
                }
                for g in &it.groups {
                    if !group_names.contains(&g.name.as_str()) {
                        group_names.push(&g.name);
                    }
                }
            }
            out.push_str("== iterations (phase wall s | group utilization) ==\n");
            out.push_str(&format!("  {:>4}  {:>6}  {:>12}", "iter", "action", "makespan_s"));
            for p in &phase_names {
                out.push_str(&format!("  {:>13}", p));
            }
            for g in &group_names {
                out.push_str(&format!("  {:>13}", format!("util[{g}]")));
            }
            out.push('\n');
            for it in &self.iterations {
                out.push_str(&format!(
                    "  {:>4}  {:>6}  {:>12.4}",
                    it.iteration, it.action, it.makespan_s
                ));
                for p in &phase_names {
                    match it.phases.iter().find(|(n, _)| n == p) {
                        Some((_, s)) => out.push_str(&format!("  {s:>13.4}")),
                        None => out.push_str(&format!("  {:>13}", "-")),
                    }
                }
                for gname in &group_names {
                    match it.groups.iter().find(|g| g.name == *gname) {
                        Some(g) => out.push_str(&format!("  {:>13.3}", g.utilization())),
                        None => out.push_str(&format!("  {:>13}", "-")),
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsReport {
        MetricsReport {
            monotonic_s: 1.5,
            counters: vec![("sim.tasks_executed".into(), 42.0)],
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
                iteration: 0,
                action: 4,
                makespan_s: 2.5,
                phases: vec![("generation".into(), 1.0), ("factorization".into(), 1.5)],
                groups: vec![GroupProfile {
                    name: "chifflot:1-2".into(),
                    busy_s: 3.0,
                    idle_s: 1.0,
                }],
            }],
        }
    }

    #[test]
    fn utilization_is_busy_over_capacity() {
        let g = GroupProfile { name: "g".into(), busy_s: 3.0, idle_s: 1.0 };
        assert!((g.utilization() - 0.75).abs() < 1e-12);
        let empty = GroupProfile { name: "g".into(), busy_s: 0.0, idle_s: 0.0 };
        assert_eq!(empty.utilization(), 0.0);
    }

    #[test]
    fn json_has_pinned_top_level_order() {
        let j = sample().to_json();
        let keys = [
            "\"version\":",
            "\"monotonic_s\":",
            "\"counters\":",
            "\"gauges\":",
            "\"histograms\":",
            "\"iterations\":",
        ];
        let mut from = 0;
        for k in keys {
            let at = j[from..].find(k).unwrap_or_else(|| panic!("missing {k} in {j}"));
            from += at + k.len();
        }
    }

    #[test]
    fn non_finite_values_serialize_as_null() {
        let mut r = sample();
        r.counters[0].1 = f64::NAN;
        assert!(r.to_json().contains("\"sim.tasks_executed\":null"));
    }

    #[test]
    fn table_lists_every_section() {
        let t = sample().to_table();
        assert!(t.contains("== counters =="), "{t}");
        assert!(t.contains("sim.tasks_executed"), "{t}");
        assert!(t.contains("== histograms =="), "{t}");
        assert!(t.contains("== iterations"), "{t}");
        assert!(t.contains("util[chifflot:1-2]"), "{t}");
        // Rows align: every line in the iterations block has the same column count.
        assert!(t.lines().any(|l| l.contains("0.750")), "utilization column:\n{t}");
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let r = MetricsReport::default();
        assert_eq!(
            r.to_json(),
            format!(
                "{{\"version\":{METRICS_SCHEMA_VERSION},\"monotonic_s\":0,\"counters\":{{}},\"gauges\":{{}},\"histograms\":{{}},\"iterations\":[]}}"
            )
        );
        assert_eq!(r.to_table(), "");
    }

    #[test]
    fn prometheus_names_are_sanitized_and_suffixed() {
        assert_eq!(prometheus_name("sim.tasks_executed"), "adaphet_sim_tasks_executed");
        assert_eq!(prometheus_name("gp.model.fit_s"), "adaphet_gp_model_fit_seconds");
        assert_eq!(prometheus_name("shard-0/depth"), "adaphet_shard_0_depth");
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let p = sample().to_prometheus();
        assert!(p.contains("# TYPE adaphet_sim_tasks_executed_total counter"), "{p}");
        assert!(p.contains("adaphet_sim_tasks_executed_total 42\n"), "{p}");
        assert!(p.contains("# TYPE adaphet_gp_model_fit_seconds histogram"), "{p}");
        assert!(p.contains("adaphet_gp_model_fit_seconds_bucket{le=\"0.001\"} 2\n"), "{p}");
        assert!(p.contains("adaphet_gp_model_fit_seconds_bucket{le=\"1\"} 3\n"), "{p}");
        assert!(p.contains("adaphet_gp_model_fit_seconds_bucket{le=\"+Inf\"} 3\n"), "{p}");
        assert!(p.contains("adaphet_gp_model_fit_seconds_count 3\n"), "{p}");
        assert!(p.contains("adaphet_snapshot_monotonic_seconds 1.5\n"), "{p}");
    }
}
