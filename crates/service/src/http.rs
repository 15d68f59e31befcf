//! A minimal HTTP/1.1 listener answering `GET /metrics` with the
//! Prometheus text exposition of the manager's [`ServiceStats`].
//!
//! This is deliberately not a web framework: one accept loop, one
//! short-lived thread per connection, `Connection: close` on every
//! response. The routes are `GET /metrics` (the exposition),
//! `GET /health` (every live session's convergence-health report) and
//! `GET /` (a one-line pointer); everything else is a 404 and non-GET
//! methods are a 405. Request bodies are never read — the request line
//! and headers are consumed up to the blank line and the rest is
//! ignored, which is exactly what a scraper sends anyway. A head longer
//! than `MAX_HEAD` (8 KiB) is answered 431 unread.

use crate::manager::SessionManager;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The most bytes of request line and headers a scrape may send.
const MAX_HEAD: u64 = 8 * 1024;

/// A running `/metrics` listener. Dropping it stops the accept loop.
pub struct MetricsServer {
    addr: String,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9601`, or `…:0` for an OS-assigned
    /// port readable back from [`addr`](Self::addr)) and start serving
    /// the manager's exposition.
    pub fn bind(addr: &str, manager: Arc<SessionManager>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?.to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let stop = Arc::clone(&stop);
            Some(std::thread::spawn(move || accept_loop(listener, manager, stop)))
        };
        Ok(MetricsServer { addr, stop, accept_thread })
    }

    /// The resolved listen address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stop accepting and join the accept thread.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // accept() has no timeout; wake it with a throwaway connection.
        drop(TcpStream::connect(&self.addr));
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, manager: Arc<SessionManager>, stop: Arc<AtomicBool>) {
    loop {
        let conn = listener.accept();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _)) = conn else { continue };
        let manager = Arc::clone(&manager);
        std::thread::spawn(move || {
            let _ = serve_scrape(stream, &manager);
        });
    }
}

/// Read the request head up to its blank line, reading at most
/// `MAX_HEAD` bytes. Returns the request line, or `None` when the head
/// does not end within the cap.
fn read_request_line(stream: &TcpStream) -> std::io::Result<Option<String>> {
    let mut reader = BufReader::new(stream.take(MAX_HEAD));
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain headers up to the blank line so well-behaved clients don't
    // see a reset before the response.
    let mut header = String::new();
    loop {
        header.clear();
        if reader.read_line(&mut header)? == 0 {
            // End of input: the peer hung up, or the cap was reached.
            return Ok((reader.get_ref().limit() > 0).then_some(request_line));
        }
        if header == "\r\n" || header == "\n" {
            return Ok(Some(request_line));
        }
    }
}

/// Read one request head and answer it; always closes the connection.
fn serve_scrape(mut stream: TcpStream, manager: &SessionManager) -> std::io::Result<()> {
    let text = "text/plain; charset=utf-8";
    let request_line = read_request_line(&stream)?;
    let mut parts = request_line.as_deref().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if request_line.is_none() {
        (
            "431 Request Header Fields Too Large",
            text,
            format!("request head exceeds {MAX_HEAD} bytes\n"),
        )
    } else if method != "GET" {
        ("405 Method Not Allowed", text, "only GET is supported\n".into())
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                // The exposition format 0.0.4 content type scrapers expect.
                "text/plain; version=0.0.4; charset=utf-8",
                manager.stats().report(manager.is_draining()).to_prometheus(),
            ),
            "/health" => ("200 OK", "application/json", manager.health_json()),
            "/" => ("200 OK", text, "adaphet-serve: see /metrics\n".into()),
            _ => ("404 Not Found", text, "unknown path; try /metrics\n".into()),
        }
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ServiceConfig;
    use crate::protocol::Request;
    use std::io::Read;

    fn get(addr: &str, path: &str) -> String {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn metrics_endpoint_serves_the_exposition() {
        let manager = Arc::new(SessionManager::new(ServiceConfig {
            idle_timeout: None,
            ..ServiceConfig::default()
        }));
        // Give the plane something to expose.
        let _ = manager.handle(Request::Ping);
        let mut server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&manager)).unwrap();

        let response = get(server.addr(), "/metrics");
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("text/plain; version=0.0.4"), "{response}");
        assert!(response.contains("# TYPE adaphet_service_request_total counter"), "{response}");
        assert!(response.contains("adaphet_service_verb_ping_seconds_count 1"), "{response}");
        assert!(response.contains("adaphet_service_sessions_live 0"), "{response}");

        let root = get(server.addr(), "/");
        assert!(root.starts_with("HTTP/1.1 200 OK\r\n"), "{root}");
        for path in ["/nope", "/metrics/history"] {
            let missing = get(server.addr(), path);
            assert!(missing.starts_with("HTTP/1.1 404"), "{path}: {missing}");
        }

        server.stop();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let manager = Arc::new(SessionManager::new(ServiceConfig {
            idle_timeout: None,
            ..ServiceConfig::default()
        }));
        let mut server = MetricsServer::bind("127.0.0.1:0", manager).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        write!(conn, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
        server.stop();
    }

    #[test]
    fn health_endpoint_serves_live_session_reports() {
        let manager = Arc::new(SessionManager::new(ServiceConfig {
            idle_timeout: None,
            ..ServiceConfig::default()
        }));
        let mut server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&manager)).unwrap();
        // Empty daemon: a valid document with an empty session list.
        let empty = get(server.addr(), "/health");
        assert!(empty.starts_with("HTTP/1.1 200 OK\r\n"), "{empty}");
        assert!(empty.contains("application/json"), "{empty}");
        assert!(empty.contains("\"sessions\":[]"), "{empty}");

        let spec = crate::protocol::SessionSpec::new(adaphet_core::StrategyKind::Ucb, 1, 8);
        let id = match manager.handle(Request::CreateSession(spec)) {
            crate::protocol::Response::SessionCreated { session } => session,
            other => panic!("{other:?}"),
        };
        let body = get(server.addr(), "/health");
        assert!(body.contains(&format!("\"session\":{id},\"state\":\"ok\"")), "{body}");
        server.stop();
    }

    #[test]
    fn concurrent_scrapes_all_get_complete_expositions() {
        let manager = Arc::new(SessionManager::new(ServiceConfig {
            idle_timeout: None,
            ..ServiceConfig::default()
        }));
        let _ = manager.handle(Request::Ping);
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&manager)).unwrap();
        let addr = server.addr().to_string();
        let handles: Vec<_> = (0..16)
            .map(|i| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let path = if i % 2 == 0 { "/metrics" } else { "/health" };
                    get(&addr, path)
                })
            })
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let response = h.join().unwrap();
            assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "scrape {i}: {response}");
            // Content-Length must match the delivered body exactly.
            let len: usize = response
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .expect("content-length header")
                .trim()
                .parse()
                .unwrap();
            let body = response.split("\r\n\r\n").nth(1).unwrap();
            assert_eq!(body.len(), len, "scrape {i} was truncated");
        }
    }

    #[test]
    fn malformed_and_partial_request_lines_do_not_wedge_the_listener() {
        let manager = Arc::new(SessionManager::new(ServiceConfig {
            idle_timeout: None,
            ..ServiceConfig::default()
        }));
        let server = MetricsServer::bind("127.0.0.1:0", Arc::clone(&manager)).unwrap();

        // A bare newline: no method, no path — answered 405, not a hang.
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        write!(conn, "\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");

        // Garbage that is not HTTP at all.
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        conn.write_all(b"\x00\x01\x02 nonsense\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1"), "{response}");

        // A client that connects and disappears mid-request-line: the
        // handler thread must give up on EOF rather than spin.
        let conn = TcpStream::connect(server.addr()).unwrap();
        drop(conn);
        // A partial request line with no terminator, then a hangup.
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        write!(conn, "GET /metr").unwrap();
        drop(conn);

        // The listener is still healthy afterwards.
        let ok = get(server.addr(), "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
    }

    #[test]
    fn an_endless_request_line_is_cut_off_at_the_head_cap() {
        let manager = Arc::new(SessionManager::new(ServiceConfig {
            idle_timeout: None,
            ..ServiceConfig::default()
        }));
        let server = MetricsServer::bind("127.0.0.1:0", manager).unwrap();
        let mut conn = TcpStream::connect(server.addr()).unwrap();
        let limit = Some(std::time::Duration::from_secs(5));
        conn.set_read_timeout(limit).unwrap();
        conn.set_write_timeout(limit).unwrap();
        // 64 KiB and no newline. The server stops reading at the cap, so
        // the write may see the connection reset; either way it returns.
        let _ = conn.write_all(&[b'a'; 64 * 1024]);
        let mut response = Vec::new();
        match conn.read_to_end(&mut response) {
            Ok(_) => {
                let text = String::from_utf8_lossy(&response);
                assert!(text.is_empty() || text.starts_with("HTTP/1.1 431"), "{text}");
            }
            Err(e) => assert!(
                !matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
                "no reply and no close within 5 s: {e}"
            ),
        }
        // A head that fits the cap is still served.
        let ok = get(server.addr(), "/metrics");
        assert!(ok.starts_with("HTTP/1.1 200 OK\r\n"), "{ok}");
    }
}
