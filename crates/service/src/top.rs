//! Renderers for `adaphet-top`: turn a [`StatsSnapshot`] into a
//! fixed-width ASCII dashboard or a self-contained HTML page.
//!
//! Pure functions of the snapshot — the binary owns the refresh loop,
//! screen clearing and file writing — so the exact layout is unit-testable
//! without a daemon. The sparkline panel's memory ([`PanelHistory`]), the
//! `get_stats` poll ([`poll`]) and the sidecar fetch ([`http_get`]) live
//! here too, for the same reason.

use crate::client::{Client, ClientError};
use crate::protocol::{HealthInfo, StatsSnapshot};
use crate::server::Endpoint;
use adaphet_analysis::{html_escape, STYLE};
use adaphet_metrics::Json;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Connect, read and write timeout of [`poll`] and [`http_get`].
const TIMEOUT: Duration = Duration::from_secs(2);

/// One fresh-connection `get_stats` poll — the daemon treats each scrape
/// as a throwaway client, exactly like a human running it would. A
/// stopped daemon still accepts from its kernel backlog, so every read
/// and write gives up after [`TIMEOUT`] with a [`ClientError::Io`]; so
/// does a TCP connect (std has no connect timeout for a Unix socket).
pub fn poll(daemon: &Endpoint) -> Result<StatsSnapshot, ClientError> {
    match daemon {
        Endpoint::Tcp(addr) => {
            let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, format!("no address {addr}"))
            })?;
            let conn = TcpStream::connect_timeout(&sock, TIMEOUT)?;
            conn.set_nodelay(true)?;
            conn.set_read_timeout(Some(TIMEOUT))?;
            conn.set_write_timeout(Some(TIMEOUT))?;
            Client::new(conn).get_stats()
        }
        #[cfg(unix)]
        Endpoint::Uds(path) => {
            let conn = UnixStream::connect(path)?;
            conn.set_read_timeout(Some(TIMEOUT))?;
            conn.set_write_timeout(Some(TIMEOUT))?;
            Client::new(conn).get_stats()
        }
    }
}

/// One-shot `GET` against the metrics sidecar, returning the body of a
/// `200` answer. Any failure, a timeout included, degrades to `None` — a
/// sidecar outage must not kill or hang the dashboard the operator
/// opened to diagnose it. A stopped daemon still completes the connect
/// from its kernel backlog, so the reads need the timeout too.
pub fn http_get(addr: &str, path: &str) -> Option<String> {
    let sock = addr.to_socket_addrs().ok()?.next()?;
    let mut conn = TcpStream::connect_timeout(&sock, TIMEOUT).ok()?;
    conn.set_read_timeout(Some(TIMEOUT)).ok()?;
    conn.set_write_timeout(Some(TIMEOUT)).ok()?;
    write!(conn, "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").ok()?;
    let mut response = String::new();
    conn.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_string())
}

/// Parse the `--interval SECS` flag value shared by the top binaries:
/// a positive, finite number of seconds (fractions allowed).
pub fn parse_interval(value: &str) -> Result<Duration, String> {
    let secs: f64 =
        value.parse().map_err(|_| "--interval needs a number of seconds".to_string())?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err("--interval must be positive".into());
    }
    Ok(Duration::from_secs_f64(secs))
}

/// Format a duration in seconds with an adaptive unit (`ns`/`us`/`ms`/`s`).
pub fn fmt_duration(seconds: f64) -> String {
    let s = seconds.abs();
    if s == 0.0 {
        "0".to_string()
    } else if s < 1e-6 {
        format!("{:.0} ns", seconds * 1e9)
    } else if s < 1e-3 {
        format!("{:.1} us", seconds * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.2} s", seconds)
    }
}

/// A crude bar of `#` marks: `value` out of `max`, `width` cells.
fn bar(value: u64, max: u64, width: usize) -> String {
    let max = max.max(1);
    let filled = ((value as f64 / max as f64) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled.min(width) { '#' } else { '.' });
    }
    s
}

/// Render the dashboard as plain fixed-width text, one trailing newline.
pub fn render_ascii(snap: &StatsSnapshot) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!(
        "adaphet-serve {} | up {} | {}\n",
        if snap.version.is_empty() { "?" } else { &snap.version },
        fmt_duration(snap.uptime_s),
        if snap.draining { "DRAINING" } else { "serving" },
    ));
    out.push_str(&format!(
        "sessions {} live ({} created, {} closed, {} evicted, {} drained) | in-flight {}\n",
        snap.sessions_live,
        snap.sessions_created,
        snap.sessions_closed,
        snap.sessions_evicted,
        snap.sessions_drained,
        snap.in_flight,
    ));
    out.push_str(&format!(
        "traffic  {} requests on {} connections | {} malformed, {} errors\n",
        snap.requests, snap.connections, snap.malformed, snap.errors,
    ));
    if !snap.verbs.is_empty() {
        out.push('\n');
        out.push_str(&format!(
            "{:<20} {:>8} {:>10} {:>10} {:>10}\n",
            "verb", "count", "p50", "p95", "p99"
        ));
        for v in &snap.verbs {
            out.push_str(&format!(
                "{:<20} {:>8} {:>10} {:>10} {:>10}\n",
                v.verb,
                v.count,
                fmt_duration(v.p50),
                fmt_duration(v.p95),
                fmt_duration(v.p99),
            ));
        }
    }
    if !snap.shards.is_empty() {
        let max_depth = snap.shards.iter().map(|s| s.queue_depth).max().unwrap_or(0);
        out.push('\n');
        out.push_str(&format!("{:<6} {:>8} {:>6}  queue\n", "shard", "sessions", "depth"));
        for s in &snap.shards {
            out.push_str(&format!(
                "{:<6} {:>8} {:>6}  {}\n",
                s.shard,
                s.sessions,
                s.queue_depth,
                bar(s.queue_depth, max_depth, 20),
            ));
        }
    }
    out
}

/// A fixed-width ASCII sparkline of `values` (oldest first): each cell
/// maps the value onto `" .:-=+*#%@"`, scaled to the series' own
/// min..max. More values than `width` keeps the most recent `width`.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let width = width.max(1);
    let tail: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect::<Vec<_>>();
    let tail = &tail[tail.len().saturating_sub(width)..];
    if tail.is_empty() {
        return " ".repeat(width);
    }
    let (min, max) =
        tail.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = max - min;
    let mut out = String::with_capacity(width);
    for &v in tail {
        let idx = if span <= 0.0 {
            // A flat series renders mid-ramp, not blank.
            RAMP.len() / 2
        } else {
            (((v - min) / span) * (RAMP.len() - 1) as f64).round() as usize
        };
        out.push(RAMP[idx.min(RAMP.len() - 1)] as char);
    }
    // Pad short histories on the left so sparklines align right.
    format!("{}{out}", " ".repeat(width - tail.len().min(width)))
}

/// The metric series the history panel highlights, in display order.
pub const HISTORY_PANEL: &[&str] = &[
    "service.request",
    "service.sessions.live",
    "service.in_flight",
    "service.health.sessions.warn",
    "service.health.sessions.stalled",
];

/// The sparkline panel's memory: the last `width` polled values of each
/// [`HISTORY_PANEL`] series, oldest first. The dashboard feeds it from
/// its own polls; the daemon keeps no history.
pub struct PanelHistory {
    width: usize,
    /// One buffer per [`HISTORY_PANEL`] entry, in the same order.
    series: Vec<Vec<f64>>,
}

impl PanelHistory {
    /// An empty panel keeping `width` polls per series.
    pub fn new(width: usize) -> PanelHistory {
        let width = width.max(1);
        PanelHistory { width, series: vec![Vec::with_capacity(width); HISTORY_PANEL.len()] }
    }

    /// Take one poll: the `get_stats` snapshot, plus the sidecar's
    /// `/health` document when there is one. The health series only grow
    /// on polls that carry it.
    pub fn push(&mut self, snap: &StatsSnapshot, health_json: Option<&str>) {
        let sessions = health_json.and_then(health_sessions);
        let in_state = |state: &str| {
            sessions.as_ref().map(|all| all.iter().filter(|s| s.state == state).count() as f64)
        };
        let values = [
            Some(snap.requests as f64),
            Some(snap.sessions_live as f64),
            Some(snap.in_flight as f64),
            in_state("warn"),
            in_state("stalled"),
        ];
        for (buffer, value) in self.series.iter_mut().zip(values) {
            let Some(value) = value else { continue };
            if buffer.len() == self.width {
                buffer.remove(0);
            }
            buffer.push(value);
        }
    }

    /// Render the panel: one sparkline row per series with at least two
    /// polls (plus the latest value). Empty until then.
    pub fn render_ascii(&self) -> String {
        let mut out = String::new();
        for (name, buffer) in HISTORY_PANEL.iter().zip(&self.series) {
            if buffer.len() < 2 {
                continue;
            }
            out.push_str(&format!(
                "{:<32} {} {:>10.2}\n",
                name,
                sparkline(buffer, self.width),
                buffer[buffer.len() - 1],
            ));
        }
        if !out.is_empty() {
            let polls = self.series.iter().map(Vec::len).max().unwrap_or(0);
            out = format!("\nhistory (last {polls} polls)\n{out}");
        }
        out
    }
}

/// The `sessions` of a `/health` document, read through the codec that
/// wrote them (`None` when the document does not decode).
fn health_sessions(health_json: &str) -> Option<Vec<HealthInfo>> {
    Json::parse(health_json).ok()?.field("sessions").ok()
}

/// Render the `/health` document as a fixed-width session table. Empty
/// string when the daemon has no live sessions.
pub fn render_health_ascii(health_json: &str) -> String {
    let sessions = health_sessions(health_json).unwrap_or_default();
    if sessions.is_empty() {
        return String::new();
    }
    let mut out = String::from("\n");
    out.push_str(&format!(
        "{:<8} {:<10} {:<24} {:>8} {:>10} {:>6}\n",
        "session", "state", "reason", "records", "since-best", "trans"
    ));
    for s in &sessions {
        out.push_str(&format!(
            "{:<8} {:<10} {:<24} {:>8} {:>10} {:>6}\n",
            s.session,
            s.state,
            s.reason.as_deref().unwrap_or("-"),
            s.records,
            s.since_best,
            s.transitions,
        ));
    }
    out
}

/// Render the dashboard as a self-contained HTML page (inline CSS shared
/// with the `adaphet report` output, no scripts, no external fetches).
pub fn render_html(snap: &StatsSnapshot) -> String {
    render_html_full(snap, None)
}

/// [`render_html`] plus an optional health section sourced from the
/// sidecar's `/health` document.
pub fn render_html_full(snap: &StatsSnapshot, health_json: Option<&str>) -> String {
    let mut out = render_html_base(snap);
    let tail = "<p class=\"meta\">generated by";
    let split = out.find(tail).unwrap_or(out.len());
    let mut extra = String::new();
    if let Some(health) = health_json {
        let table = render_health_ascii(health);
        if !table.is_empty() {
            extra.push_str("<h2>Session health</h2>\n<pre>");
            extra.push_str(&html_escape(table.trim_start_matches('\n')));
            extra.push_str("</pre>\n");
        }
    }
    out.insert_str(split, &extra);
    out
}

fn render_html_base(snap: &StatsSnapshot) -> String {
    let mut out = String::with_capacity(8 * 1024);
    out.push_str("<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n");
    out.push_str("<title>adaphet-top</title>\n");
    out.push_str(STYLE);
    out.push_str("</head><body>\n<h1>adaphet-top</h1>\n");
    out.push_str(&format!(
        "<p class=\"meta\">adaphet-serve <code>{}</code> &middot; up {} &middot; {}</p>\n",
        html_escape(if snap.version.is_empty() { "?" } else { &snap.version }),
        html_escape(&fmt_duration(snap.uptime_s)),
        if snap.draining { "<strong>draining</strong>" } else { "serving" },
    ));

    out.push_str("<h2>Service</h2>\n<table>\n<tr><th>metric</th><th>value</th></tr>\n");
    for (name, value) in [
        ("sessions live", snap.sessions_live),
        ("sessions created", snap.sessions_created),
        ("sessions closed", snap.sessions_closed),
        ("sessions evicted", snap.sessions_evicted),
        ("sessions drained", snap.sessions_drained),
        ("proposals in flight", snap.in_flight),
        ("requests", snap.requests),
        ("connections", snap.connections),
        ("malformed frames", snap.malformed),
        ("errors", snap.errors),
    ] {
        out.push_str(&format!("<tr><td>{name}</td><td>{value}</td></tr>\n"));
    }
    out.push_str("</table>\n");

    if !snap.verbs.is_empty() {
        out.push_str(
            "<h2>Verb latency</h2>\n<table>\n\
             <tr><th>verb</th><th>count</th><th>p50</th><th>p95</th><th>p99</th></tr>\n",
        );
        for v in &snap.verbs {
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                html_escape(&v.verb),
                v.count,
                fmt_duration(v.p50),
                fmt_duration(v.p95),
                fmt_duration(v.p99),
            ));
        }
        out.push_str("</table>\n");
    }

    if !snap.shards.is_empty() {
        out.push_str(
            "<h2>Shards</h2>\n<table>\n\
             <tr><th>shard</th><th>sessions</th><th>queue depth</th></tr>\n",
        );
        for s in &snap.shards {
            out.push_str(&format!(
                "<tr><td>{}</td><td>{}</td><td>{}</td></tr>\n",
                s.shard, s.sessions, s.queue_depth,
            ));
        }
        out.push_str("</table>\n");
    }

    out.push_str(
        "<p class=\"meta\">generated by <code>adaphet-top --html</code> — \
         self-contained file, no scripts, no external resources.</p>\n",
    );
    out.push_str("</body></html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ShardStats, VerbStats};

    fn snap() -> StatsSnapshot {
        StatsSnapshot {
            version: "0.1.0".into(),
            uptime_s: 12.5,
            draining: false,
            sessions_live: 2,
            sessions_created: 3,
            sessions_closed: 1,
            sessions_evicted: 0,
            sessions_drained: 0,
            in_flight: 4,
            connections: 2,
            requests: 50,
            malformed: 0,
            errors: 1,
            verbs: vec![VerbStats {
                verb: "get_proposal".into(),
                count: 20,
                p50: 0.0004,
                p95: 0.003,
                p99: 0.02,
            }],
            shards: vec![
                ShardStats { shard: 0, sessions: 1, queue_depth: 2 },
                ShardStats { shard: 1, sessions: 1, queue_depth: 0 },
            ],
        }
    }

    #[test]
    fn durations_format_with_adaptive_units() {
        assert_eq!(fmt_duration(0.0), "0");
        assert_eq!(fmt_duration(2.5e-9), "2 ns");
        assert_eq!(fmt_duration(3.2e-5), "32.0 us");
        assert_eq!(fmt_duration(0.004), "4.00 ms");
        assert_eq!(fmt_duration(1.75), "1.75 s");
    }

    #[test]
    fn ascii_dashboard_carries_every_section() {
        let text = render_ascii(&snap());
        assert!(text.contains("adaphet-serve 0.1.0"), "{text}");
        assert!(text.contains("sessions 2 live"), "{text}");
        assert!(text.contains("get_proposal"), "{text}");
        assert!(text.contains("400.0 us"), "p50 column: {text}");
        // The busiest shard fills its whole bar; the idle one is empty.
        assert!(text.contains("####################"), "{text}");
        assert!(text.contains("...................."), "{text}");
        assert!(text.ends_with('\n'));
        assert!(text.is_ascii(), "terminal-safe output");
    }

    #[test]
    fn html_dashboard_is_self_contained() {
        let html = render_html(&snap());
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("<style>"), "inline CSS only");
        assert!(!html.contains("<script"), "no scripts");
        assert!(!html.contains("http://") && !html.contains("https://"), "no external fetches");
        assert!(html.contains("<td>get_proposal</td>"), "{html}");
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn draining_state_is_loud_in_both_renderers() {
        let mut s = snap();
        s.draining = true;
        assert!(render_ascii(&s).contains("DRAINING"));
        assert!(render_html(&s).contains("<strong>draining</strong>"));
    }

    #[test]
    fn interval_flag_parses_positive_finite_seconds() {
        assert_eq!(parse_interval("2").unwrap(), Duration::from_secs(2));
        assert_eq!(parse_interval("0.25").unwrap(), Duration::from_millis(250));
        for bad in ["0", "-1", "nan", "inf", "fast", ""] {
            assert!(parse_interval(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn sparklines_scale_pad_and_stay_ascii() {
        // Monotone ramp: lowest cell first, highest last.
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0], 4);
        assert_eq!(ramp.len(), 4);
        assert!(ramp.starts_with(' ') && ramp.ends_with('@'), "{ramp:?}");
        // Flat series renders mid-ramp, not blank.
        let flat = sparkline(&[5.0; 3], 3);
        assert!(!flat.contains(' ') && !flat.contains('@'), "{flat:?}");
        // Short histories right-align; long ones keep the tail.
        assert!(sparkline(&[1.0], 5).starts_with("    "));
        let tail = sparkline(&[9.0, 0.0, 0.0, 0.0, 0.0, 0.0], 3);
        assert_eq!(tail, sparkline(&[0.0; 3], 3), "9.0 fell off the window");
        // Non-finite values are dropped, empty input is blank padding.
        assert_eq!(sparkline(&[f64::NAN], 2), "  ");
        assert!(sparkline(&[], 2).is_ascii());
    }

    #[test]
    fn panel_fills_from_polls_and_keeps_the_latest_width() {
        let poll = |requests: u64| StatsSnapshot { requests, ..snap() };
        let row = |values: &[f64], latest: f64| {
            format!("{:<32} {} {:>10.2}\n", "service.request", sparkline(values, 3), latest)
        };
        let mut panel = PanelHistory::new(3);
        panel.push(&poll(1), None);
        assert_eq!(panel.render_ascii(), "", "one poll is no sparkline");

        panel.push(&poll(4), None);
        panel.push(&poll(9), None);
        let text = panel.render_ascii();
        assert!(text.starts_with("\nhistory (last 3 polls)\n"), "{text}");
        assert!(text.contains(&row(&[1.0, 4.0, 9.0], 9.0)), "three cells, latest 9: {text}");
        assert_eq!(sparkline(&[1.0, 4.0, 9.0], 3).len(), 3);
        assert!(text.contains("service.sessions.live"), "{text}");
        assert!(!text.contains("service.health"), "no /health polls, no health rows: {text}");
        assert!(text.is_ascii());

        panel.push(&poll(16), Some(HEALTH_DOC));
        let text = panel.render_ascii();
        assert!(text.contains(&row(&[4.0, 9.0, 16.0], 16.0)), "1 fell off: {text}");
        assert!(text.starts_with("\nhistory (last 3 polls)\n"), "{text}");
        assert!(!text.contains("service.health"), "one health poll is no sparkline: {text}");
        panel.push(&poll(16), Some(HEALTH_DOC));
        let text = panel.render_ascii();
        assert!(text.contains("service.health.sessions.warn"), "{text}");
        assert!(text.contains("service.health.sessions.stalled"), "{text}");
    }

    #[test]
    fn http_get_gives_up_on_a_silent_sidecar() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        // Accepts and never writes, like a stopped daemon.
        let silent = std::thread::spawn(move || {
            let held = listener.accept();
            let _ = done_rx.recv();
            drop(held);
        });
        let (got_tx, got_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || got_tx.send(http_get(&addr, "/health")));
        let got = got_rx.recv_timeout(TIMEOUT * 2).expect("http_get hung on a silent sidecar");
        assert_eq!(got, None);
        done_tx.send(()).unwrap();
        silent.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn poll_gives_up_on_a_silent_daemon() {
        let dir = std::env::temp_dir().join(format!("adaphet-top-poll-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("silent.sock");
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path).unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        // Accepts and never replies, like a stopped daemon.
        let silent = std::thread::spawn(move || {
            let held = listener.accept();
            let _ = done_rx.recv();
            drop(held);
        });
        let (got_tx, got_rx) = std::sync::mpsc::channel();
        let daemon = Endpoint::Uds(path.clone());
        std::thread::spawn(move || got_tx.send(poll(&daemon).is_err()));
        let failed = got_rx.recv_timeout(TIMEOUT * 2).expect("poll hung on a silent daemon");
        assert!(failed, "a silent daemon answered a poll");
        done_tx.send(()).unwrap();
        silent.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    const HEALTH_DOC: &str = r#"{"uptime_s":3.5,"draining":false,"sessions":[
        {"session":1,"state":"ok","reason":null,"records":12,"since_best":2,
         "regret_slope":-0.01,"retries_window":0,"faults_window":0,
         "posterior_sd_max":null,"lp_gap":null,"band_record":4,
         "warm_started":false,"transitions":0},
        {"session":2,"state":"warn","reason":"fault-pressure","records":17,
         "since_best":5,"regret_slope":0.002,"retries_window":1,
         "faults_window":1,"posterior_sd_max":0.4,"lp_gap":1.5,
         "band_record":null,"warm_started":true,"transitions":2}]}"#;

    #[test]
    fn health_table_lists_sessions_with_states_and_reasons() {
        let table = render_health_ascii(HEALTH_DOC);
        assert!(table.contains("warn"), "{table}");
        assert!(table.contains("fault-pressure"), "{table}");
        assert!(table.contains("ok"), "{table}");
        assert!(table.is_ascii());
        // No sessions → no table; garbage → no table.
        assert_eq!(render_health_ascii(r#"{"sessions":[]}"#), "");
        assert_eq!(render_health_ascii("nope"), "");
    }

    #[test]
    fn html_full_embeds_health_and_history_sections() {
        let html = render_html_full(&snap(), Some(HEALTH_DOC));
        assert!(html.contains("<h2>Session health</h2>"), "{html}");
        assert!(html.contains("fault-pressure"), "{html}");
        assert!(!html.contains("<script"), "still self-contained");
        assert!(html.ends_with("</html>\n"));
        // Without the documents the page is byte-identical to render_html.
        assert_eq!(render_html_full(&snap(), None), render_html(&snap()));
    }
}
