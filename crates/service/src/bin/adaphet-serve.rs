//! The tuning daemon: bind a socket, serve sessions until a client sends
//! `shutdown`, then drain and exit.
//!
//! ```text
//! adaphet-serve --uds /tmp/adaphet.sock [--workers 4] [--idle-timeout 600]
//!               [--telemetry-dir DIR] [--store-dir DIR] [--max-in-flight 8]
//!               [--metrics] [--metrics-addr 127.0.0.1:9601]
//! adaphet-serve --tcp 127.0.0.1:7601 [...]
//! ```
//!
//! `--metrics-addr` starts a sidecar HTTP listener answering
//! `GET /metrics` with the Prometheus text exposition of the daemon's
//! always-on observability plane (no `--metrics` needed; that flag
//! installs the daemon's registry as the process-wide recorder, which adds
//! the libraries' `gp.*` / `tuner.*` names to it, and prints it as a table
//! on stdout at exit), plus `GET /health` with every live session's
//! convergence-health report. The daemon keeps no metric history: a
//! Prometheus server scraping `GET /metrics` builds it.

use adaphet_service::{Endpoint, MetricsServer, Server, ServiceConfig, SessionManager};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: adaphet-serve (--uds PATH | --tcp ADDR) \
                     [--workers N] [--idle-timeout SECS] [--telemetry-dir DIR] \
                     [--store-dir DIR] [--max-in-flight N] [--metrics] \
                     [--metrics-addr ADDR]\n  \
                     --workers N  session-map shards; requests run on their \
                     connection's thread (default 4)";

struct ServeArgs {
    endpoint: Endpoint,
    config: ServiceConfig,
    metrics: bool,
    metrics_addr: Option<String>,
}

fn parse(argv: &[String]) -> Result<ServeArgs, String> {
    let mut endpoint: Option<Endpoint> = None;
    let mut config = ServiceConfig::default();
    let mut metrics = false;
    let mut metrics_addr = None;
    let mut it = argv.iter();
    let value = |flag: &str, v: Option<&String>| -> Result<String, String> {
        v.cloned().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--uds" => {
                endpoint = Some(Endpoint::Uds(PathBuf::from(value("--uds", it.next())?)));
            }
            "--tcp" => endpoint = Some(Endpoint::Tcp(value("--tcp", it.next())?)),
            "--workers" => {
                config.workers = value("--workers", it.next())?
                    .parse()
                    .map_err(|_| "--workers needs a positive integer".to_string())?;
            }
            "--idle-timeout" => {
                let secs: u64 = value("--idle-timeout", it.next())?
                    .parse()
                    .map_err(|_| "--idle-timeout needs a whole number of seconds".to_string())?;
                config.idle_timeout = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--telemetry-dir" => {
                config.telemetry_dir = Some(PathBuf::from(value("--telemetry-dir", it.next())?));
            }
            "--store-dir" => {
                config.store_dir = Some(PathBuf::from(value("--store-dir", it.next())?));
            }
            "--max-in-flight" => {
                config.default_max_in_flight = value("--max-in-flight", it.next())?
                    .parse()
                    .map_err(|_| "--max-in-flight needs a positive integer".to_string())?;
            }
            "--metrics" => metrics = true,
            "--metrics-addr" => metrics_addr = Some(value("--metrics-addr", it.next())?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let endpoint = endpoint.ok_or("one of --uds or --tcp is required")?;
    Ok(ServeArgs { endpoint, config, metrics, metrics_addr })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("adaphet-serve: {message}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(dir) = &args.config.telemetry_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("adaphet-serve: cannot create telemetry dir {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let manager = Arc::new(SessionManager::new(args.config));
    // `--metrics`: the libraries' global recorder is the daemon's own
    // registry, so the closing table and `GET /metrics` read one store.
    let registry =
        args.metrics.then(|| adaphet_metrics::install_global(manager.stats().registry().clone()));
    let mut server = match Server::bind(args.endpoint, Arc::clone(&manager)) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("adaphet-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    let metrics_server = args.metrics_addr.as_deref().map(|addr| {
        match MetricsServer::bind(addr, Arc::clone(&manager)) {
            Ok(ms) => ms,
            Err(e) => {
                eprintln!("adaphet-serve: metrics bind failed: {e}");
                std::process::exit(1);
            }
        }
    });
    if let Some(ms) = &metrics_server {
        println!("adaphet-serve metrics on http://{}/metrics", ms.addr());
    }
    // The readiness line: scripts wait for it before connecting.
    println!("adaphet-serve listening on {}", server.endpoint());
    server.wait();
    eprintln!("adaphet-serve: draining");
    drop(metrics_server);
    drop(server);
    // Not left to the last `Arc` owner: a still-connected client holds one.
    manager.shutdown();
    if let Some(registry) = registry {
        println!("{}", registry.snapshot().to_table());
    }
    eprintln!("adaphet-serve: bye");
}
