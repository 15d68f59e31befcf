//! The wire server: accept loops for TCP and Unix-domain sockets, one
//! handler thread per connection, all semantics delegated to the shared
//! [`SessionManager`].
//!
//! Connections are stateless: a session belongs to the manager, not to
//! the socket that created it, so a client may disconnect mid-measurement
//! and resolve its ticket over a fresh connection (or hand the session id
//! to another process entirely). Malformed frames are answered with a
//! typed error *on the same connection* — only an oversized length prefix
//! (which makes the stream impossible to resynchronize) or an I/O error
//! drops the socket.

use crate::manager::SessionManager;
use crate::protocol::{read_frame, write_frame, ErrorCode, Request, Response};
use adaphet_metrics::Json;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Where a [`Server`] listens.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7601`.
    Tcp(String),
    /// A Unix-domain socket path (removed and re-created on bind).
    #[cfg(unix)]
    Uds(PathBuf),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
            #[cfg(unix)]
            Endpoint::Uds(path) => write!(f, "uds:{}", path.display()),
        }
    }
}

enum AnyListener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

/// A running daemon: an accept loop plus per-connection handler threads.
///
/// Dropping (or calling [`Server::wait`] after a client sent
/// [`Request::Shutdown`]) stops accepting; draining the manager is the
/// owner's job, because the manager is shared.
pub struct Server {
    manager: Arc<SessionManager>,
    endpoint: Endpoint,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `endpoint` and start accepting. For UDS endpoints a stale
    /// socket file is removed first.
    pub fn bind(endpoint: Endpoint, manager: Arc<SessionManager>) -> std::io::Result<Server> {
        let (listener, endpoint) = match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(&addr)?;
                // Re-advertise the resolved address so `…:0` binds (OS-
                // assigned port) are discoverable via `endpoint()`.
                let actual = listener.local_addr()?.to_string();
                (AnyListener::Tcp(listener), Endpoint::Tcp(actual))
            }
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                let _ = std::fs::remove_file(&path);
                (AnyListener::Uds(UnixListener::bind(&path)?), Endpoint::Uds(path))
            }
        };
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let manager = Arc::clone(&manager);
            let stop = Arc::clone(&stop);
            let endpoint = endpoint.clone();
            Some(std::thread::spawn(move || accept_loop(listener, endpoint, manager, stop)))
        };
        Ok(Server { manager, endpoint, stop, accept_thread })
    }

    /// The endpoint this server is bound to. For TCP this is the
    /// *resolved* address — bind to `…:0` and read the OS-assigned port
    /// back from here.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The shared session manager.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Block until the accept loop exits — i.e. until some client sends
    /// [`Request::Shutdown`] or [`Server::stop`] is called.
    pub fn wait(&mut self) {
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Ask the accept loop to exit and wake it with a self-connection.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        wake(&self.endpoint);
        self.wait();
        #[cfg(unix)]
        if let Endpoint::Uds(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Wake a blocked `accept()` with a throwaway self-connection —
/// `accept()` has no timeout, so this is how the stop flag gets observed.
fn wake(endpoint: &Endpoint) {
    match endpoint {
        Endpoint::Tcp(addr) => drop(TcpStream::connect(addr)),
        #[cfg(unix)]
        Endpoint::Uds(path) => drop(UnixStream::connect(path)),
    }
}

fn accept_loop(
    listener: AnyListener,
    endpoint: Endpoint,
    manager: Arc<SessionManager>,
    stop: Arc<AtomicBool>,
) {
    loop {
        let conn: Option<Box<dyn Conn>> = match &listener {
            AnyListener::Tcp(l) => l.accept().ok().map(|(s, _)| {
                // Replies are small and the client waits for each; a
                // socket that refuses the option still serves.
                let _ = s.set_nodelay(true);
                Box::new(s) as Box<dyn Conn>
            }),
            #[cfg(unix)]
            AnyListener::Uds(l) => l.accept().ok().map(|(s, _)| Box::new(s) as Box<dyn Conn>),
        };
        if stop.load(Ordering::SeqCst) || manager.is_draining() {
            break;
        }
        let Some(stream) = conn else { continue };
        manager.stats().count("service.connection", 1.0);
        let manager = Arc::clone(&manager);
        let stop = Arc::clone(&stop);
        let endpoint = endpoint.clone();
        std::thread::spawn(move || serve_connection(stream, &endpoint, &manager, &stop));
    }
}

/// The object-safe connection bound: both socket kinds, plus in-memory
/// duplex streams in tests.
trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// Decode one frame's payload into a request, or the error reply to
/// send (boxed: `Response` carries whole stats snapshots these days).
fn decode(payload: &[u8]) -> Result<Request, Box<Response>> {
    let text = std::str::from_utf8(payload).map_err(|_| {
        Box::new(Response::Error {
            code: ErrorCode::MalformedFrame,
            message: "frame payload is not UTF-8".into(),
        })
    })?;
    let json = Json::parse(text).map_err(|e| {
        Box::new(Response::Error {
            code: ErrorCode::MalformedFrame,
            message: format!("frame payload is not JSON: {e}"),
        })
    })?;
    Request::from_json(&json)
        .map_err(|e| Box::new(Response::Error { code: ErrorCode::BadRequest, message: e }))
}

fn serve_connection(
    mut stream: Box<dyn Conn>,
    endpoint: &Endpoint,
    manager: &SessionManager,
    stop: &AtomicBool,
) {
    // A clean disconnect, an unresynchronizable stream, or an I/O error
    // ends the connection; sessions live on in the manager.
    while let Ok(Some(payload)) = read_frame(&mut stream) {
        let mut initiated_shutdown = false;
        let reply = match decode(&payload) {
            Ok(request) => {
                initiated_shutdown = request == Request::Shutdown;
                manager.handle(request)
            }
            Err(error_reply) => {
                manager.stats().count("service.malformed", 1.0);
                *error_reply
            }
        };
        let write_ok = write_frame(&mut stream, &reply.to_json()).is_ok();
        if initiated_shutdown {
            // The acknowledgement is this connection's last frame; wake
            // the accept loop so it can observe the stop flag and exit.
            stop.store(true, Ordering::SeqCst);
            wake(endpoint);
            break;
        }
        if !write_ok {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::ServiceConfig;

    #[cfg(unix)]
    fn uds_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("adaphet-srv-{}-{tag}.sock", std::process::id()))
    }

    #[cfg(unix)]
    #[test]
    fn uds_server_answers_ping_and_survives_garbage_frames() {
        let manager = Arc::new(SessionManager::new(ServiceConfig::default()));
        let path = uds_path("ping");
        let mut server = Server::bind(Endpoint::Uds(path.clone()), manager).unwrap();
        let mut conn = UnixStream::connect(&path).unwrap();

        // Garbage JSON: typed malformed-frame error, connection stays up.
        write_frame(&mut conn, "this is not json").unwrap();
        let reply = read_frame(&mut conn).unwrap().unwrap();
        let parsed =
            Response::from_json(&Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap())
                .unwrap();
        assert!(matches!(parsed, Response::Error { code: ErrorCode::MalformedFrame, .. }));

        // Valid JSON, unknown request: bad-request, connection stays up.
        write_frame(&mut conn, "{\"type\":\"frobnicate\"}").unwrap();
        let reply = read_frame(&mut conn).unwrap().unwrap();
        let parsed =
            Response::from_json(&Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap())
                .unwrap();
        assert!(matches!(parsed, Response::Error { code: ErrorCode::BadRequest, .. }));

        // The same connection still answers a well-formed ping, and the
        // pong identifies the daemon.
        write_frame(&mut conn, &Request::Ping.to_json()).unwrap();
        let reply = read_frame(&mut conn).unwrap().unwrap();
        let parsed =
            Response::from_json(&Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap())
                .unwrap();
        match parsed {
            Response::Pong { version, uptime_s } => {
                assert_eq!(version, env!("CARGO_PKG_VERSION"));
                assert!(uptime_s >= 0.0);
            }
            other => panic!("expected pong, got {other:?}"),
        }

        server.stop();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn tcp_server_answers_on_an_os_assigned_port() {
        let manager = Arc::new(SessionManager::new(ServiceConfig::default()));
        let mut server = Server::bind(Endpoint::Tcp("127.0.0.1:0".into()), manager).unwrap();
        let Endpoint::Tcp(addr) = server.endpoint().clone() else { unreachable!() };
        let mut conn = TcpStream::connect(&addr).unwrap();
        write_frame(&mut conn, &Request::Ping.to_json()).unwrap();
        let reply = read_frame(&mut conn).unwrap().unwrap();
        let parsed =
            Response::from_json(&Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap())
                .unwrap();
        assert!(matches!(parsed, Response::Pong { .. }));
        server.stop();
    }
}
