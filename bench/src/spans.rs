//! The benchmark's own span recorder: spans are opened around the calls
//! into each layer (never inside the program), kept in memory, and
//! written out once as Chrome-trace JSON when the traced run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `wire.encode_request`.
    pub name: &'static str,
    /// Start, in microseconds since the recorder was created.
    pub start_us: f64,
    /// End, same clock.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by all spans of one request (one iteration, one
    /// sweep pass, one replay table).
    pub request: u64,
    /// Detail (verb, scenario, strategy).
    pub detail: &'static str,
}

impl Span {
    /// Span length in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Where a layer call reports its span. [`NoTrace`] compiles the calls
/// away, so the untraced and the traced run share one code path.
pub trait Tracer {
    /// Run `f` inside a span.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        detail: &'static str,
        f: impl FnOnce(&mut Self, Option<usize>) -> R,
    ) -> R;
}

/// The tracer of the untraced run: no clock reads, no storage.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline]
    fn span<R>(
        &mut self,
        _name: &'static str,
        _parent: Option<usize>,
        _request: u64,
        _detail: &'static str,
        f: impl FnOnce(&mut Self, Option<usize>) -> R,
    ) -> R {
        f(self, None)
    }
}

/// In-memory span store.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer for Recorder {
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        detail: &'static str,
        f: impl FnOnce(&mut Self, Option<usize>) -> R,
    ) -> R {
        let index = self.spans.len();
        self.spans.push(Span { name, start_us: 0.0, end_us: 0.0, parent, request, detail });
        let start = self.origin.elapsed();
        let out = f(self, Some(index));
        let end = self.origin.elapsed();
        self.spans[index].start_us = start.as_secs_f64() * 1e6;
        self.spans[index].end_us = end.as_secs_f64() * 1e6;
        out
    }
}

impl Recorder {
    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Build a recorder from ready-made spans (tests).
    #[cfg(test)]
    pub fn from_spans(spans: Vec<Span>) -> Recorder {
        Recorder { origin: Instant::now(), spans }
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::duration_us).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= span.duration_us();
            }
        }
        own
    }

    /// Share (in percent) of the total time of all `root`-named spans
    /// that their direct children account for.
    pub fn coverage_pct(&self, root: &str) -> Option<f64> {
        let own = self.self_times_us();
        let (mut total, mut uncovered) = (0.0, 0.0);
        for (span, own) in self.spans.iter().zip(&own) {
            if span.name == root {
                total += span.duration_us();
                uncovered += own;
            }
        }
        (total > 0.0).then(|| 100.0 * (1.0 - uncovered / total))
    }

    /// Durations (µs) of the spans called `name`, optionally only those
    /// whose detail equals `detail`.
    pub fn durations_us(&self, name: &str, detail: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
            .map(Span::duration_us)
            .collect()
    }

    /// Total self time per span name, in microseconds.
    pub fn self_time_by_name_us(&self) -> BTreeMap<&'static str, f64> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_us()) {
            *by_name.entry(span.name).or_insert(0.0) += own;
        }
        by_name
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete
    /// event per span; `pid` is the workload's ordinal, `tid` 0.
    pub fn chrome_events(&self, pid: usize) -> Vec<String> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"ts\":{:.3},\
                     \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{},\
                     \"detail\":\"{}\"}}}}",
                    s.name,
                    s.start_us,
                    s.duration_us(),
                    s.request,
                    adaphet_metrics::json_escape(s.detail),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name, start_us: start, end_us: end, parent, request: 1, detail: "" }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // iteration [0, 100] ▸ encode [0, 10], handle [10, 90] ▸ propose [20, 80]
        let rec = Recorder::from_spans(vec![
            span("iteration", 0.0, 100.0, None),
            span("encode", 0.0, 10.0, Some(0)),
            span("handle", 10.0, 90.0, Some(0)),
            span("propose", 20.0, 80.0, Some(2)),
        ]);
        assert_eq!(rec.self_times_us(), vec![10.0, 10.0, 20.0, 60.0]);
        let by_name = rec.self_time_by_name_us();
        assert_eq!(by_name["handle"], 20.0);
        // Self times of a tree sum to its root's duration.
        assert_eq!(by_name.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn coverage_is_the_share_of_roots_covered_by_children() {
        let rec = Recorder::from_spans(vec![
            span("iteration", 0.0, 100.0, None),
            span("handle", 5.0, 95.0, Some(0)),
            span("iteration", 100.0, 200.0, None),
            span("handle", 100.0, 180.0, Some(2)),
        ]);
        assert_eq!(rec.coverage_pct("iteration"), Some(85.0));
        assert_eq!(rec.coverage_pct("missing"), None);
    }

    #[test]
    fn recorder_nests_spans_and_notrace_records_nothing() {
        let mut rec = Recorder::default();
        let value = rec.span("outer", None, 7, "x", |rec, outer| {
            rec.span("inner", outer, 7, "verb", |_, inner| {
                assert!(inner.is_some());
                41
            }) + 1
        });
        assert_eq!(value, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].request), ("inner", Some(0), 7));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        assert_eq!(rec.durations_us("inner", Some("verb")).len(), 1);
        assert!(rec.durations_us("inner", Some("other")).is_empty());
        let events = rec.chrome_events(3);
        assert!(events[1].contains("\"name\":\"inner\"") && events[1].contains("\"parent\":0"));

        let mut off = NoTrace;
        assert_eq!(off.span("outer", None, 0, "", |_, id| id), None);
    }
}
