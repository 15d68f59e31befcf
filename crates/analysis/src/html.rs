//! Self-contained HTML run report.
//!
//! One output file, no JavaScript, no external fetches: styles are inline
//! CSS, every figure is inline SVG built by hand (the same philosophy as
//! the workspace's hand-rolled JSON codecs). The report degrades
//! gracefully — sections whose inputs are absent (no snapshots, no
//! re-simulation, no metrics file) are simply omitted.

use crate::report::{format_num, Report, SimDiagnosis};
use adaphet_core::PosteriorPoint;
use adaphet_runtime::{ResourceKind, Trace};

/// Fixed qualitative palette (cycled) for phases and strategies.
const PALETTE: [&str; 8] =
    ["#4878cf", "#d65f5f", "#6acc65", "#b47cc7", "#c4ad66", "#77bedb", "#ee854a", "#8c613c"];

fn color(i: usize) -> &'static str {
    PALETTE[i % PALETTE.len()]
}

/// Escape text for HTML element content and attribute values.
pub fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Linear data→pixel mapping for one SVG figure.
struct Frame {
    w: f64,
    h: f64,
    /// Margins: left, right, top, bottom.
    ml: f64,
    mr: f64,
    mt: f64,
    mb: f64,
    x0: f64,
    x1: f64,
    y0: f64,
    y1: f64,
}

impl Frame {
    fn new(w: f64, h: f64, x0: f64, x1: f64, y0: f64, y1: f64) -> Frame {
        let (x0, x1) = if x1 > x0 { (x0, x1) } else { (x0, x0 + 1.0) };
        let (y0, y1) = if y1 > y0 { (y0, y1) } else { (y0, y0 + 1.0) };
        Frame { w, h, ml: 46.0, mr: 10.0, mt: 8.0, mb: 22.0, x0, x1, y0, y1 }
    }

    fn px(&self, x: f64) -> f64 {
        self.ml + (x - self.x0) / (self.x1 - self.x0) * (self.w - self.ml - self.mr)
    }

    fn py(&self, y: f64) -> f64 {
        // SVG y grows downward; data y grows upward.
        self.h - self.mb - (y - self.y0) / (self.y1 - self.y0) * (self.h - self.mt - self.mb)
    }

    fn open(&self) -> String {
        format!(
            "<svg viewBox=\"0 0 {} {}\" width=\"{}\" height=\"{}\" \
             xmlns=\"http://www.w3.org/2000/svg\" role=\"img\">",
            self.w, self.h, self.w, self.h
        )
    }

    /// Axis lines plus min/max tick labels on both axes.
    fn axes(&self, x_label: &str, y_unit: &str) -> String {
        let mut s = String::new();
        let (l, r) = (self.ml, self.w - self.mr);
        let (t, b) = (self.mt, self.h - self.mb);
        s.push_str(&format!(
            "<path d=\"M{l} {t} L{l} {b} L{r} {b}\" fill=\"none\" stroke=\"#999\"/>"
        ));
        s.push_str(&format!(
            "<text x=\"{l}\" y=\"{}\" class=\"tick\">{}</text>\
             <text x=\"{r}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">{}</text>",
            b + 14.0,
            format_num(self.x0),
            b + 14.0,
            format_num(self.x1),
        ));
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">{}</text>\
             <text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">{}</text>",
            l - 4.0,
            b,
            format_num(self.y0),
            l - 4.0,
            t + 10.0,
            format_num(self.y1),
        ));
        s.push_str(&format!(
            "<text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"middle\">{}</text>",
            (l + r) / 2.0,
            b + 14.0,
            html_escape(x_label)
        ));
        if !y_unit.is_empty() {
            s.push_str(&format!(
                "<text x=\"12\" y=\"{}\" class=\"tick\" transform=\"rotate(-90 12 {})\" \
                 text-anchor=\"middle\">{}</text>",
                (t + b) / 2.0,
                (t + b) / 2.0,
                html_escape(y_unit)
            ));
        }
        s
    }
}

fn polyline(pts: &[(f64, f64)], stroke: &str, extra: &str) -> String {
    if pts.is_empty() {
        return String::new();
    }
    let coords: Vec<String> = pts.iter().map(|(x, y)| format!("{x:.2},{y:.2}")).collect();
    format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"{stroke}\" stroke-width=\"1.5\" {extra}/>",
        coords.join(" ")
    )
}

/// Render the full report document.
pub fn render_html(report: &Report) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str("<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    out.push_str(&format!("<title>{}</title>\n", html_escape(&report.title)));
    out.push_str(STYLE);
    out.push_str("</head><body>\n");
    out.push_str(&format!("<h1>{}</h1>\n", html_escape(&report.title)));
    out.push_str(&format!(
        "<p class=\"meta\">source: <code>{}</code> &middot; {} strategies &middot; {} iterations</p>\n",
        html_escape(&report.source),
        report.telemetry.runs.len(),
        report.telemetry.len(),
    ));

    summary_section(report, &mut out);
    duration_section(report, &mut out);
    health_timeline_section(report, &mut out);
    posterior_section(report, &mut out);
    if let Some(sim) = &report.sim {
        sim_section(sim, &mut out);
    }
    metrics_section(report, &mut out);

    out.push_str(
        "<p class=\"meta\">generated by <code>adaphet report</code> — \
                  self-contained file, no scripts, no external resources.</p>\n",
    );
    out.push_str("</body></html>\n");
    out
}

/// The report's inline CSS block (`<style>…</style>`), shared with
/// other adaphet HTML emitters (e.g. `adaphet-top --html`) so every
/// generated page carries the same look.
pub const STYLE: &str = "<style>\n\
body{font:14px/1.45 system-ui,sans-serif;margin:2em auto;max-width:960px;color:#222;padding:0 1em}\n\
h1{font-size:1.4em;border-bottom:2px solid #4878cf;padding-bottom:.25em}\n\
h2{font-size:1.15em;margin-top:1.6em}\n\
table{border-collapse:collapse;margin:.5em 0}\n\
th,td{border:1px solid #ccc;padding:.25em .6em;text-align:right}\n\
th{background:#f0f3f8}\n\
td:first-child,th:first-child{text-align:left}\n\
.meta{color:#666;font-size:.9em}\n\
.tick{font-size:10px;fill:#555}\n\
.lane{font-size:9px;fill:#444}\n\
.small{display:inline-block;margin:4px;vertical-align:top}\n\
.legend span{display:inline-block;margin-right:1em}\n\
.swatch{display:inline-block;width:10px;height:10px;margin-right:4px;border-radius:2px}\n\
figure{margin:1em 0}\nfigcaption{color:#666;font-size:.85em}\n\
</style>\n";

fn legend(entries: &[(String, &str)]) -> String {
    let mut s = String::from("<p class=\"legend\">");
    for (label, col) in entries {
        s.push_str(&format!(
            "<span><i class=\"swatch\" style=\"background:{col}\"></i>{}</span>",
            html_escape(label)
        ));
    }
    s.push_str("</p>\n");
    s
}

// ---------------------------------------------------------------- sections

fn summary_section(report: &Report, out: &mut String) {
    if report.telemetry.runs.is_empty() {
        return;
    }
    out.push_str(
        "<h2>Strategy summary</h2>\n<table>\n<tr><th>strategy</th><th>iterations</th>\
                  <th>best duration (s)</th><th>total time (s)</th><th>retries</th>\
                  <th>faults</th></tr>\n",
    );
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
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            html_escape(&run.name),
            run.records.len(),
            if best.is_finite() { format_num(best) } else { "—".into() },
            format_num(total),
            retries,
            faults,
        ));
    }
    out.push_str("</table>\n");
    if let Some((name, action, dur)) = report.telemetry.best_observed() {
        out.push_str(&format!(
            "<p>Best observed iteration: <b>{}</b> at action <b>{action}</b> nodes, \
             duration <b>{} s</b>.</p>\n",
            html_escape(name),
            format_num(dur)
        ));
    }
}

/// Iteration-duration curves for every strategy, with fault markers (×)
/// and retry markers (▲) overlaid.
fn duration_section(report: &Report, out: &mut String) {
    let mut max_iter = 0usize;
    let mut max_dur = f64::NEG_INFINITY;
    let mut best_known: Option<f64> = None;
    for run in &report.telemetry.runs {
        for r in &run.records {
            max_iter = max_iter.max(r.iteration);
            if r.duration.is_finite() {
                max_dur = max_dur.max(r.duration);
            }
            if best_known.is_none() {
                best_known = r.best_known;
            }
        }
    }
    if !max_dur.is_finite() {
        return;
    }
    let y_top = max_dur.max(best_known.unwrap_or(0.0)) * 1.05;
    let f = Frame::new(640.0, 240.0, 0.0, max_iter as f64, 0.0, y_top);
    out.push_str("<h2>Iteration durations</h2>\n<figure>");
    out.push_str(&f.open());
    out.push_str(&f.axes("iteration", "duration (s)"));
    if let Some(bk) = best_known {
        let y = f.py(bk);
        out.push_str(&format!(
            "<line x1=\"{}\" y1=\"{y:.2}\" x2=\"{}\" y2=\"{y:.2}\" stroke=\"#444\" \
             stroke-dasharray=\"4 3\"/>",
            f.px(f.x0),
            f.px(f.x1)
        ));
    }
    let mut entries = Vec::new();
    for (si, run) in report.telemetry.runs.iter().enumerate() {
        let col = color(si);
        entries.push((run.name.clone(), col));
        let pts: Vec<(f64, f64)> = run
            .records
            .iter()
            .filter(|r| r.duration.is_finite())
            .map(|r| (f.px(r.iteration as f64), f.py(r.duration)))
            .collect();
        out.push_str(&polyline(&pts, col, ""));
        for r in &run.records {
            if !r.duration.is_finite() {
                continue;
            }
            let (x, y) = (f.px(r.iteration as f64), f.py(r.duration));
            if r.fault.is_some() {
                out.push_str(&format!(
                    "<text x=\"{x:.2}\" y=\"{:.2}\" fill=\"#c22\" font-size=\"12\" \
                     text-anchor=\"middle\">&#215;</text>",
                    y - 4.0
                ));
            } else if r.retries > 0 {
                out.push_str(&format!(
                    "<text x=\"{x:.2}\" y=\"{:.2}\" fill=\"#d80\" font-size=\"9\" \
                     text-anchor=\"middle\">&#9650;</text>",
                    y - 4.0
                ));
            }
        }
    }
    out.push_str("</svg>");
    out.push_str(
        "<figcaption>per-iteration measured duration; dashed line = configured best-known; \
         &#215; = fault injected; &#9650; = resilience retries</figcaption></figure>\n",
    );
    out.push_str(&legend(&entries));
}

/// Small-multiple GP posterior panels: up to six snapshot iterations per
/// strategy, mean &plusmn; one sd as a band, LP bound dashed, excluded
/// actions as hollow circles.
fn posterior_section(report: &Report, out: &mut String) {
    let mut wrote_header = false;
    for (si, run) in report.telemetry.runs.iter().enumerate() {
        let with_snap: Vec<_> = run.records.iter().filter(|r| r.snapshot.is_some()).collect();
        if with_snap.is_empty() {
            continue;
        }
        if !wrote_header {
            out.push_str("<h2>GP posterior evolution</h2>\n");
            out.push_str(
                "<p class=\"meta\">shaded band = posterior mean &plusmn; 1 sd over the action \
                 space; dashed = LP lower bound; hollow circles = actions excluded by the \
                 bound mechanism.</p>\n",
            );
            wrote_header = true;
        }
        out.push_str(&format!("<h3>{}</h3>\n<div>", html_escape(&run.name)));
        for rec in pick_spread(&with_snap, 6) {
            let snap = &rec.snapshot.as_ref().expect("filtered to Some above").points;
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            let (mut a0, mut a1) = (usize::MAX, 0usize);
            // A mean or sd written `null` reads back as NaN: no band there.
            let banded = |p: &PosteriorPoint| !p.mean.is_nan() && !p.sd.is_nan();
            for p in snap {
                a0 = a0.min(p.action);
                a1 = a1.max(p.action);
                if banded(p) {
                    lo = lo.min(p.mean - p.sd);
                    hi = hi.max(p.mean + p.sd);
                }
                if let Some(b) = p.lp_bound {
                    lo = lo.min(b);
                    hi = hi.max(b);
                }
            }
            if !lo.is_finite() || !hi.is_finite() {
                continue;
            }
            let f = Frame::new(200.0, 130.0, a0 as f64, a1 as f64, lo, hi * 1.02);
            out.push_str("<span class=\"small\">");
            out.push_str(&f.open());
            out.push_str(&f.axes("nodes", ""));
            // Band: mean+sd forward, mean−sd backward.
            let known: Vec<_> = snap.iter().filter(|p| banded(p)).collect();
            if known.len() > 1 {
                let mut poly = String::from("<polygon points=\"");
                for p in &known {
                    let (m, sd) = (p.mean, p.sd);
                    poly.push_str(&format!("{:.2},{:.2} ", f.px(p.action as f64), f.py(m + sd)));
                }
                for p in known.iter().rev() {
                    let (m, sd) = (p.mean, p.sd);
                    poly.push_str(&format!("{:.2},{:.2} ", f.px(p.action as f64), f.py(m - sd)));
                }
                poly.push_str(&format!("\" fill=\"{}33\" stroke=\"none\"/>", color(si)));
                out.push_str(&poly);
                let mean_pts: Vec<(f64, f64)> =
                    known.iter().map(|p| (f.px(p.action as f64), f.py(p.mean))).collect();
                out.push_str(&polyline(&mean_pts, color(si), ""));
            }
            let lp_pts: Vec<(f64, f64)> = snap
                .iter()
                .filter_map(|p| p.lp_bound.map(|b| (f.px(p.action as f64), f.py(b))))
                .collect();
            out.push_str(&polyline(&lp_pts, "#444", "stroke-dasharray=\"3 2\""));
            for p in snap.iter().filter(|p| !p.mean.is_nan()) {
                let (x, y) = (f.px(p.action as f64), f.py(p.mean));
                let fill = if p.excluded { "none" } else { color(si) };
                out.push_str(&format!(
                    "<circle cx=\"{x:.2}\" cy=\"{y:.2}\" r=\"2.4\" fill=\"{fill}\" \
                     stroke=\"{}\"/>",
                    color(si)
                ));
            }
            out.push_str(&format!(
                "<text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">iter {}</text>",
                f.w - f.mr,
                f.mt + 10.0,
                rec.iteration
            ));
            out.push_str("</svg></span>");
        }
        out.push_str("</div>\n");
    }
}

/// Pick up to `n` items evenly spread over a slice, always keeping the
/// first and last.
fn pick_spread<'a, T>(items: &'a [&'a T], n: usize) -> Vec<&'a T> {
    if items.len() <= n {
        return items.to_vec();
    }
    (0..n).map(|i| items[i * (items.len() - 1) / (n - 1)]).collect()
}

fn res_label(r: ResourceKind) -> String {
    match r {
        ResourceKind::CpuCore(i) => format!("cpu{i}"),
        ResourceKind::Gpu(i) => format!("gpu{i}"),
    }
}

fn res_order(r: ResourceKind) -> (u8, usize) {
    match r {
        ResourceKind::CpuCore(i) => (0, i),
        ResourceKind::Gpu(i) => (1, i),
    }
}

fn sim_section(sim: &SimDiagnosis, out: &mut String) {
    out.push_str(&format!(
        "<h2>Run diagnosis (scenario {}, {} nodes)</h2>\n\
         <p>One profiled iteration re-simulated at the best observed action: \
         makespan <b>{} s</b>.</p>\n",
        html_escape(&sim.scenario),
        sim.action,
        format_num(sim.makespan)
    ));
    gantt(sim, out);
    ridgeline(sim, out);
    critical_path_tables(sim, out);
    idle_tables(sim, out);
}

/// Per-worker Gantt chart colored by phase.
fn gantt(sim: &SimDiagnosis, out: &mut String) {
    let trace = &sim.trace;
    if trace.events().is_empty() {
        return;
    }
    let mut workers: Vec<(usize, ResourceKind)> = Vec::new();
    for e in trace.events() {
        if !workers.contains(&(e.node.0, e.resource)) {
            workers.push((e.node.0, e.resource));
        }
    }
    workers.sort_by_key(|&(n, r)| (n, res_order(r)));
    let t0 = trace.events().iter().map(|e| e.start).fold(f64::INFINITY, f64::min);
    let t1 = trace.makespan();
    let lane_h = 13.0;
    let h = 30.0 + workers.len() as f64 * lane_h + 22.0;
    let mut f = Frame::new(900.0, h, t0, t1, 0.0, 1.0);
    f.ml = 70.0;
    out.push_str("<h3>Gantt</h3>\n<figure>");
    out.push_str(&f.open());
    // Lane labels and baselines.
    for (wi, &(node, res)) in workers.iter().enumerate() {
        let y = f.mt + wi as f64 * lane_h;
        out.push_str(&format!(
            "<text x=\"{}\" y=\"{:.2}\" class=\"lane\" text-anchor=\"end\">n{} {}</text>",
            f.ml - 4.0,
            y + lane_h - 4.0,
            node + 1,
            res_label(res)
        ));
    }
    let mut phases_seen: Vec<u32> = Vec::new();
    for e in trace.events() {
        let wi = workers.iter().position(|&w| w == (e.node.0, e.resource)).expect("collected");
        if !phases_seen.contains(&e.phase) {
            phases_seen.push(e.phase);
        }
        let pi = phases_seen.iter().position(|&p| p == e.phase).expect("just inserted");
        let x = f.px(e.start);
        let wpx = (f.px(e.end) - x).max(0.4);
        let y = f.mt + wi as f64 * lane_h;
        out.push_str(&format!(
            "<rect x=\"{x:.2}\" y=\"{:.2}\" width=\"{wpx:.2}\" height=\"{:.2}\" \
             fill=\"{}\"/>",
            y + 1.0,
            lane_h - 2.0,
            color(pi)
        ));
    }
    // Time axis along the bottom.
    let b = h - 20.0;
    out.push_str(&format!(
        "<path d=\"M{} {b} L{} {b}\" stroke=\"#999\"/>\
         <text x=\"{}\" y=\"{}\" class=\"tick\">{}</text>\
         <text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">{} s</text>",
        f.ml,
        f.w - f.mr,
        f.ml,
        b + 13.0,
        format_num(t0),
        f.w - f.mr,
        b + 13.0,
        format_num(t1),
    ));
    out.push_str(
        "</svg><figcaption>task execution per worker, colored by phase</figcaption>\
                  </figure>\n",
    );
    phases_seen.sort_unstable();
    let entries: Vec<(String, &str)> =
        phases_seen.iter().enumerate().map(|(i, &p)| (sim.phase_name(p), color(i))).collect();
    out.push_str(&legend(&entries));
}

/// Utilization profile of each worker group's observed workers, binned
/// over the trace window.
fn group_utilization(
    trace: &Trace,
    lo: usize,
    hi: usize,
    t0: f64,
    t1: f64,
    bins: usize,
) -> Vec<f64> {
    let mut workers: Vec<(usize, ResourceKind)> = Vec::new();
    for e in trace.events() {
        let rank = e.node.0 + 1;
        if (lo..=hi).contains(&rank) && !workers.contains(&(e.node.0, e.resource)) {
            workers.push((e.node.0, e.resource));
        }
    }
    if workers.is_empty() || !matches!(t1.partial_cmp(&t0), Some(std::cmp::Ordering::Greater)) {
        return vec![0.0; bins];
    }
    let dt = (t1 - t0) / bins as f64;
    let mut busy = vec![0.0f64; bins];
    for e in trace.events() {
        let rank = e.node.0 + 1;
        if !(lo..=hi).contains(&rank) {
            continue;
        }
        let first = (((e.start - t0) / dt).floor().max(0.0)) as usize;
        for (b, slot) in busy.iter_mut().enumerate().skip(first).take(bins - first.min(bins)) {
            let (bs, be) = (t0 + b as f64 * dt, t0 + (b + 1) as f64 * dt);
            let ov = (e.end.min(be) - e.start.max(bs)).max(0.0);
            if ov <= 0.0 && bs > e.end {
                break;
            }
            *slot += ov;
        }
    }
    let denom = workers.len() as f64 * dt;
    busy.iter().map(|&b| (b / denom).min(1.0)).collect()
}

/// Per-group utilization ridgeline: one filled area per homogeneous group,
/// stacked vertically.
fn ridgeline(sim: &SimDiagnosis, out: &mut String) {
    let trace = &sim.trace;
    if trace.events().is_empty() || sim.groups.is_empty() {
        return;
    }
    let t0 = trace.events().iter().map(|e| e.start).fold(f64::INFINITY, f64::min);
    let t1 = trace.makespan();
    let bins = 120usize;
    let row_h = 46.0;
    let h = 10.0 + sim.groups.len() as f64 * row_h + 24.0;
    let mut f = Frame::new(900.0, h, t0, t1, 0.0, 1.0);
    f.ml = 110.0;
    out.push_str("<h3>Utilization by group</h3>\n<figure>");
    out.push_str(&f.open());
    for (gi, (name, lo, hi)) in sim.groups.iter().enumerate() {
        let u = group_utilization(trace, *lo, *hi, t0, t1, bins);
        let base = 10.0 + (gi + 1) as f64 * row_h - 6.0;
        let mut pts = format!("{:.2},{base:.2} ", f.ml);
        for (b, &v) in u.iter().enumerate() {
            let x = f.ml + (b as f64 + 0.5) / bins as f64 * (f.w - f.ml - f.mr);
            pts.push_str(&format!("{x:.2},{:.2} ", base - v * (row_h - 10.0)));
        }
        pts.push_str(&format!("{:.2},{base:.2}", f.w - f.mr));
        out.push_str(&format!(
            "<polygon points=\"{pts}\" fill=\"{}66\" stroke=\"{}\"/>",
            color(gi),
            color(gi)
        ));
        out.push_str(&format!(
            "<text x=\"{}\" y=\"{:.2}\" class=\"lane\" text-anchor=\"end\">{}</text>",
            f.ml - 6.0,
            base - 2.0,
            html_escape(name)
        ));
    }
    let b = h - 18.0;
    out.push_str(&format!(
        "<path d=\"M{} {b} L{} {b}\" stroke=\"#999\"/>\
         <text x=\"{}\" y=\"{}\" class=\"tick\">{}</text>\
         <text x=\"{}\" y=\"{}\" class=\"tick\" text-anchor=\"end\">{} s</text>",
        f.ml,
        f.w - f.mr,
        f.ml,
        b + 13.0,
        format_num(t0),
        f.w - f.mr,
        b + 13.0,
        format_num(t1),
    ));
    out.push_str(
        "</svg><figcaption>fraction of each group's workers busy over time \
         (ridgeline height = 100%)</figcaption></figure>\n",
    );
}

fn critical_path_tables(sim: &SimDiagnosis, out: &mut String) {
    let cp = &sim.critical_path;
    out.push_str("<h3>Critical path</h3>\n");
    let pct = |x: f64| format!("{:.1}%", 100.0 * x / cp.total().max(f64::MIN_POSITIVE));
    out.push_str(&format!(
        "<p>{} tasks on the path spanning <b>{} s</b> \
         (makespan {} s): execution {} s ({}), wait {} s ({}).",
        cp.steps.len(),
        format_num(cp.total()),
        format_num(cp.makespan),
        format_num(cp.exec_time),
        pct(cp.exec_time),
        format_num(cp.wait_time),
        pct(cp.wait_time),
    ));
    if let Some(g) = sim.bounding_group_label() {
        out.push_str(&format!(
            " The <b>{}</b> group carries the most path execution time — it bounds this run.",
            html_escape(g)
        ));
    }
    out.push_str("</p>\n<table>\n<tr><th>phase</th><th>time on path (s)</th><th>share</th></tr>\n");
    for (phase, secs) in cp.per_phase() {
        out.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td></tr>\n",
            html_escape(&sim.phase_name(phase)),
            format_num(secs),
            pct(secs)
        ));
    }
    out.push_str("</table>\n");
}

fn idle_row(out: &mut String, label: &str, b: &crate::idle::IdleBreakdown) {
    let total = b.total_s().max(f64::MIN_POSITIVE);
    out.push_str(&format!(
        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{} ({:.1}%)</td><td>{} ({:.1}%)</td>\
         <td>{} ({:.1}%)</td><td>{} ({:.1}%)</td></tr>\n",
        html_escape(label),
        b.workers,
        format_num(total),
        format_num(b.busy_s),
        100.0 * b.busy_s / total,
        format_num(b.dependency_s),
        100.0 * b.dependency_s / total,
        format_num(b.transfer_s),
        100.0 * b.transfer_s / total,
        format_num(b.no_ready_work_s),
        100.0 * b.no_ready_work_s / total,
    ));
}

fn idle_tables(sim: &SimDiagnosis, out: &mut String) {
    out.push_str(
        "<h3>Idle-bubble classification</h3>\n\
         <p class=\"meta\">every idle worker-second lands in exactly one bucket; rows sum to \
         workers &times; window.</p>\n\
         <table>\n<tr><th>group</th><th>workers</th><th>total (s)</th><th>busy</th>\
         <th>dependency wait</th><th>transfer wait</th><th>no ready work</th></tr>\n",
    );
    idle_row(out, "all", &sim.idle);
    for ((name, _, _), b) in sim.groups.iter().zip(&sim.group_idle) {
        idle_row(out, name, b);
    }
    out.push_str("</table>\n");
}

// ------------------------------------------------- health & history

fn health_color(state: &str) -> &'static str {
    match state {
        "warn" => "#ee854a",
        "stalled" => "#d65f5f",
        "diverging" => "#b47cc7",
        _ => "#6acc65",
    }
}

/// Per-strategy strips of `report.health` on the same iteration axis as
/// the duration chart, with dashed markers where the state changes.
fn health_timeline_section(report: &Report, out: &mut String) {
    let max_iter =
        report.telemetry.runs.iter().flat_map(|run| run.records.iter()).map(|r| r.iteration).max();
    let Some(max_iter) = max_iter.filter(|_| !report.health.is_empty()) else {
        return;
    };
    out.push_str("<h2>Convergence health timeline</h2>\n");
    out.push_str(
        "<p class=\"meta\">the state the session's health tracker (the rule engine behind \
         <code>get_health</code>) reports after each record, replayed from the telemetry.</p>\n",
    );
    let entries: Vec<(String, &str)> = ["ok", "warn", "stalled", "diverging"]
        .iter()
        .map(|s| (s.to_string(), health_color(s)))
        .collect();
    out.push_str(&legend(&entries));
    for (run, states) in report.telemetry.runs.iter().zip(&report.health) {
        if states.len() != run.records.len() || states.is_empty() {
            continue;
        }
        let mut f = Frame::new(640.0, 64.0, 0.0, (max_iter + 1) as f64, 0.0, 1.0);
        f.mt = 18.0;
        let (top, bottom) = (f.py(1.0), f.py(0.0));
        out.push_str(&format!("<h3>{}</h3>\n<figure>", html_escape(&run.name)));
        out.push_str(&f.open());
        for (i, r) in run.records.iter().enumerate() {
            let x0 = f.px(r.iteration as f64);
            let next = run.records.get(i + 1).map_or((max_iter + 1) as f64, |n| n.iteration as f64);
            let x1 = f.px(next.min(f.x1));
            out.push_str(&format!(
                "<rect x=\"{x0:.2}\" y=\"{top:.2}\" width=\"{:.2}\" height=\"{:.2}\" \
                 fill=\"{}\"/>",
                (x1 - x0).max(0.5),
                bottom - top,
                health_color(states[i]),
            ));
        }
        let mut transitions = Vec::new();
        for i in 1..states.len() {
            if states[i] != states[i - 1] {
                let x = f.px(run.records[i].iteration as f64);
                out.push_str(&format!(
                    "<line x1=\"{x:.2}\" y1=\"{top:.2}\" x2=\"{x:.2}\" y2=\"{bottom:.2}\" \
                     stroke=\"#222\" stroke-dasharray=\"2 2\"/>\
                     <text x=\"{x:.2}\" y=\"{:.2}\" class=\"tick\" \
                     text-anchor=\"middle\">{}</text>",
                    top - 4.0,
                    states[i],
                ));
                transitions.push(format!(
                    "{} &rarr; {} @ {}",
                    states[i - 1],
                    states[i],
                    run.records[i].iteration
                ));
            }
        }
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\" class=\"tick\">0</text>\
             <text x=\"{:.2}\" y=\"{:.2}\" class=\"tick\" text-anchor=\"end\">{max_iter}</text>",
            f.ml,
            bottom + 14.0,
            f.w - f.mr,
            bottom + 14.0,
        ));
        out.push_str("</svg>");
        if transitions.is_empty() {
            out.push_str(&format!(
                "<figcaption>state steady at <b>{}</b> for {} iterations</figcaption>",
                states[0],
                states.len()
            ));
        } else {
            out.push_str(&format!(
                "<figcaption>transitions: {}</figcaption>",
                transitions.join("; ")
            ));
        }
        out.push_str("</figure>\n");
    }
}

fn metrics_section(report: &Report, out: &mut String) {
    let rows = report.metrics_rows();
    if rows.is_empty() {
        return;
    }
    out.push_str("<h2>Runtime metrics</h2>\n<table>\n<tr><th>metric</th><th>value</th></tr>\n");
    for (k, v) in rows {
        out.push_str(&format!(
            "<tr><td><code>{}</code></td><td>{}</td></tr>\n",
            html_escape(&k),
            html_escape(&v)
        ));
    }
    out.push_str("</table>\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical_path::CriticalPath;
    use crate::idle::IdleBreakdown;
    use crate::jsonl::TelemetryRun;
    use adaphet_runtime::{ClassId, NodeId, TaskId, TraceEvent};

    fn sample_report() -> Report {
        let jsonl = "\
{\"iteration\":0,\"strategy\":\"GP <disc>\",\"action\":4,\"duration\":3.5,\"cumulative_time\":3.5,\"best_known\":2,\"regret\":1.5,\"phases\":[],\"posterior\":[],\"excluded\":[],\"note\":\"\",\"phase_breakdown\":null,\"retries\":0,\"fault\":null,\"snapshot\":null}\n\
{\"iteration\":1,\"strategy\":\"GP <disc>\",\"action\":6,\"duration\":2.5,\"cumulative_time\":6,\"best_known\":2,\"regret\":0.5,\"phases\":[],\"posterior\":[],\"excluded\":[2],\"note\":\"\",\"phase_breakdown\":null,\"retries\":1,\"fault\":\"node-death:rank=3\",\"snapshot\":{\"points\":[\
{\"action\":2,\"mean\":4,\"sd\":1,\"lp_bound\":3,\"excluded\":true},\
{\"action\":4,\"mean\":3.5,\"sd\":0.5,\"lp_bound\":2,\"excluded\":false},\
{\"action\":6,\"mean\":2.5,\"sd\":0.25,\"lp_bound\":1.5,\"excluded\":false}]}}\n";
        let telemetry = TelemetryRun::parse(jsonl).unwrap();

        let mut trace = Trace::new();
        let ev = |task, node, phase, start: f64, end: f64| TraceEvent {
            task: TaskId(task),
            class: ClassId(phase as usize),
            phase,
            node: NodeId(node),
            resource: ResourceKind::CpuCore(0),
            start,
            end,
        };
        trace.push(ev(0, 0, 0, 0.0, 1.0));
        trace.push(ev(1, 1, 1, 1.0, 3.0));
        trace.record_deps(TaskId(1), &[TaskId(0)]);
        let critical_path = CriticalPath::extract(&trace).unwrap();
        let idle = IdleBreakdown::classify(&trace, 0.0, 3.0);
        let sim = SimDiagnosis {
            scenario: "a".into(),
            action: 6,
            makespan: 3.0,
            phase_names: vec!["generation".into(), "factorization".into()],
            groups: vec![("chifflot:1-1".into(), 1, 1), ("gemini:2-2".into(), 2, 2)],
            group_idle: vec![
                IdleBreakdown::classify_group(&trace, 0.0, 3.0, 1, 1),
                IdleBreakdown::classify_group(&trace, 0.0, 3.0, 2, 2),
            ],
            trace,
            critical_path,
            idle,
        };
        Report {
            title: "adaphet run report <test>".into(),
            source: "fig6.jsonl".into(),
            telemetry,
            health: vec![vec!["ok", "warn"]],
            sim: Some(sim),
            metrics: Some(crate::jsonl::Json::parse(r#"{"wall_s":1.5}"#).unwrap()),
        }
    }

    #[test]
    fn report_is_self_contained_and_escaped() {
        let html = render_html(&sample_report());
        assert!(html.starts_with("<!doctype html>"));
        assert!(!html.contains("<script"), "no JavaScript");
        // The only URL-looking string allowed is the SVG namespace URI.
        assert_eq!(
            html.matches("http://").count(),
            html.matches("http://www.w3.org/2000/svg").count(),
            "no external fetches beyond the SVG namespace"
        );
        assert!(!html.contains("https://"), "no external fetches");
        assert!(html.contains("GP &lt;disc&gt;"), "strategy names escaped");
        assert!(html.contains("adaphet run report &lt;test&gt;"));
    }

    #[test]
    fn all_sections_render() {
        let html = render_html(&sample_report());
        for needle in [
            "Strategy summary",
            "Iteration durations",
            "GP posterior evolution",
            "Gantt",
            "Utilization by group",
            "Critical path",
            "Idle-bubble classification",
            "Runtime metrics",
            "<svg",
            "node-death", // not literally — fault marker count instead
        ] {
            if needle == "node-death" {
                continue;
            }
            assert!(html.contains(needle), "missing section: {needle}");
        }
        // Fault marker and excluded hollow circle made it into the SVG.
        assert!(html.contains("&#215;"), "fault marker");
        assert!(html.contains("fill=\"none\""), "hollow excluded point");
        // Critical-path totals are reported.
        assert!(html.contains("factorization"));
    }

    #[test]
    fn empty_telemetry_still_produces_a_document() {
        let r = Report {
            title: "empty".into(),
            source: "-".into(),
            telemetry: TelemetryRun::default(),
            health: Vec::new(),
            sim: None,
            metrics: None,
        };
        let html = render_html(&r);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn health_timeline_and_history_sections_render() {
        let html = render_html(&sample_report());
        assert!(html.contains("Convergence health timeline"));
        // The handed-in states change at iteration 1.
        assert!(html.contains("ok &rarr; warn @ 1"), "transition recorded in the caption");
        assert!(html.contains(&format!("fill=\"{}\"", health_color("warn"))));
    }

    #[test]
    fn group_utilization_bins_are_bounded() {
        let mut t = Trace::new();
        t.push(TraceEvent {
            task: TaskId(0),
            class: ClassId(0),
            phase: 0,
            node: NodeId(0),
            resource: ResourceKind::CpuCore(0),
            start: 0.0,
            end: 2.0,
        });
        let u = group_utilization(&t, 1, 1, 0.0, 4.0, 4);
        assert_eq!(u, vec![1.0, 1.0, 0.0, 0.0]);
        let none = group_utilization(&t, 2, 2, 0.0, 4.0, 4);
        assert_eq!(none, vec![0.0; 4]);
    }

    #[test]
    fn pick_spread_keeps_ends() {
        let items: Vec<usize> = (0..20).collect();
        let refs: Vec<&usize> = items.iter().collect();
        let picked = pick_spread(&refs, 6);
        assert_eq!(picked.len(), 6);
        assert_eq!(*picked[0], 0);
        assert_eq!(*picked[5], 19);
    }
}
