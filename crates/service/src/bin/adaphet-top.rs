//! Live terminal dashboard for a running `adaphet-serve`: polls the
//! `get_stats` verb and redraws an ASCII view of sessions, verb
//! latencies, queue depths and lifecycle counters.
//!
//! ```text
//! adaphet-top (--uds PATH | --tcp ADDR) [--interval SECS] [--once]
//!             [--html FILE] [--http ADDR]
//! ```
//!
//! `--once` prints a single snapshot and exits; `--html FILE` writes a
//! one-shot self-contained HTML page instead of text (implies a single
//! poll). `--http ADDR` points at the daemon's metrics sidecar (the
//! `--metrics` listen address of `adaphet-serve`): the dashboard then
//! appends a per-session health table from `GET /health`. Without
//! `--once`/`--html`, the dashboard refreshes every `--interval` seconds
//! (default 2) until the daemon goes away or the user interrupts, and
//! draws sparklines of its last 40 polls (request, session and
//! in-flight counts, plus the warn/stalled session counts with `--http`).

use adaphet_service::top::{
    http_get, parse_interval, render_ascii, render_health_ascii, render_html_full, PanelHistory,
};
use adaphet_service::{Client, ClientError, StatsSnapshot};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: adaphet-top (--uds PATH | --tcp ADDR) \
                     [--interval SECS] [--once] [--html FILE] [--http ADDR]";

enum Target {
    Tcp(String),
    Uds(PathBuf),
}

struct TopArgs {
    target: Target,
    interval: Duration,
    once: bool,
    html: Option<PathBuf>,
    http: Option<String>,
}

fn parse(argv: &[String]) -> Result<TopArgs, String> {
    let mut target: Option<Target> = None;
    let mut interval = Duration::from_secs(2);
    let mut once = false;
    let mut html = None;
    let mut http = None;
    let mut it = argv.iter();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--uds" => target = Some(Target::Uds(PathBuf::from(value("--uds", it.next())?))),
            "--tcp" => target = Some(Target::Tcp(value("--tcp", it.next())?)),
            "--interval" => interval = parse_interval(&value("--interval", it.next())?)?,
            "--once" => once = true,
            "--html" => html = Some(PathBuf::from(value("--html", it.next())?)),
            "--http" => http = Some(value("--http", it.next())?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let target = target.ok_or("one of --uds or --tcp is required")?;
    Ok(TopArgs { target, interval, once, html, http })
}

/// One fresh-connection poll — the daemon treats each scrape as a
/// throwaway client, exactly like a human running it would.
fn poll(target: &Target) -> Result<StatsSnapshot, ClientError> {
    match target {
        Target::Tcp(addr) => Client::connect_tcp(addr)?.get_stats(),
        Target::Uds(path) => Client::connect_uds(path)?.get_stats(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("adaphet-top: {message}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    if let Some(path) = &args.html {
        let snap = match poll(&args.target) {
            Ok(snap) => snap,
            Err(e) => {
                eprintln!("adaphet-top: {e}");
                std::process::exit(1);
            }
        };
        let health = args.http.as_deref().and_then(|addr| http_get(addr, "/health"));
        let page = render_html_full(&snap, health.as_deref());
        if let Err(e) = std::fs::write(path, page) {
            eprintln!("adaphet-top: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("adaphet-top: wrote {}", path.display());
        return;
    }

    let mut failures = 0u32;
    let mut panel = PanelHistory::new(40);
    loop {
        match poll(&args.target) {
            Ok(snap) => {
                failures = 0;
                let mut frame = render_ascii(&snap);
                let health = args.http.as_deref().and_then(|addr| http_get(addr, "/health"));
                panel.push(&snap, health.as_deref());
                if let Some(health) = &health {
                    frame.push_str(&render_health_ascii(health));
                }
                frame.push_str(&panel.render_ascii());
                if args.once {
                    print!("{frame}");
                    return;
                }
                // ANSI clear-screen + home, then the fresh frame.
                print!("\x1b[2J\x1b[H{frame}");
                let _ = std::io::stdout().flush();
            }
            Err(e) => {
                if args.once {
                    eprintln!("adaphet-top: {e}");
                    std::process::exit(1);
                }
                failures += 1;
                if failures >= 3 {
                    eprintln!("adaphet-top: daemon unreachable ({e}); giving up");
                    std::process::exit(1);
                }
            }
        }
        std::thread::sleep(args.interval);
    }
}
