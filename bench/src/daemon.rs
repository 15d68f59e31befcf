//! The real `adaphet-serve` under test: spawn, readiness wait, graceful
//! shutdown, kill-on-drop, and its cost as `/proc` sees it.

use adaphet_service::Client;
use std::io::{BufRead, BufReader};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long the daemon may take to print its readiness line.
const READY_TIMEOUT: Duration = Duration::from_secs(15);
/// How long it may take to drain and exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(15);
/// Kernel clock ticks per second in `/proc/<pid>/stat` (USER_HZ, fixed
/// at 100 on every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// The directory all scratch state lives under: `bench/out`, relative to
/// the checkout root the benchmark is started from (kept relative so
/// Unix-socket paths stay far below the 108-byte limit).
pub fn out_dir() -> Result<PathBuf, String> {
    if !Path::new("bench/Cargo.toml").is_file() {
        return Err(
            "run the benchmark from the repository root (bench/Cargo.toml not found)".into()
        );
    }
    let dir = PathBuf::from("bench/out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// A scratch directory removed when dropped (also on unwind).
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `bench/out/tmp/<pid>-<n>-<tag>`.
    pub fn new(tag: &str) -> Result<TempDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir()?.join("tmp").join(format!("{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Where the daemon binary is: next to this executable (one shared
/// target directory, as `bench/run.sh` builds it), else the root
/// workspace's `target/release`.
pub fn serve_binary() -> Result<PathBuf, String> {
    let sibling = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("adaphet-serve")));
    let candidates = [sibling, Some(PathBuf::from("target/release/adaphet-serve"))];
    candidates.iter().flatten().find(|p| p.is_file()).cloned().ok_or_else(|| {
        "adaphet-serve not found next to the benchmark binary or in target/release; build it \
         with `cargo build --release -p adaphet-service --bin adaphet-serve` (bench/run.sh does)"
            .to_string()
    })
}

/// A running daemon. Dropping it kills the process and removes its
/// socket directory, so a panicking workload leaves nothing behind.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    dir: TempDir,
    /// Drains the daemon's stdout; ends at its EOF.
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawn `adaphet-serve --uds <dir>/a.sock --workers 2 [--store-dir]`
    /// and wait for its readiness line.
    pub fn spawn(store_dir: Option<&Path>) -> Result<Daemon, String> {
        let binary = serve_binary()?;
        let dir = TempDir::new("daemon")?;
        let mut command = Command::new(&binary);
        command.arg("--uds").arg(dir.path().join("a.sock")).args(["--workers", "2"]);
        if let Some(store) = store_dir {
            command.arg("--store-dir").arg(store);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // Keeps draining after readiness so the daemon can never block on
        // a full pipe; joined in `Drop`, after the kill closed the pipe.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon { child, dir, reader: Some(reader) };
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(left) {
                Ok(line) if line.contains("listening on") => return Ok(daemon),
                Ok(_) => {}
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(format!("daemon not ready after {READY_TIMEOUT:?}"));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    let status = daemon.child.wait().map_err(|e| e.to_string())?;
                    return Err(format!("daemon exited before it was ready ({status})"));
                }
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A fresh connection to it.
    pub fn connect(&self) -> Result<Client<UnixStream>, String> {
        Client::connect_uds(self.dir.path().join("a.sock")).map_err(|e| format!("connect: {e}"))
    }

    /// Ask for shutdown over the wire and wait for a clean exit; the
    /// check the daemon "answers `shutdown` and exits 0".
    pub fn shutdown(mut self) -> Result<(), String> {
        self.connect()?.shutdown().map_err(|e| format!("shutdown verb: {e}"))?;
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("daemon exited with {status}")),
                None if Instant::now() >= deadline => {
                    return Err(format!("daemon still running {EXIT_TIMEOUT:?} after shutdown"));
                }
                None => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// CPU seconds (user + system) process `pid` has used so far.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // The command name may contain spaces; fields count from after ")".
    let rest = stat.rsplit_once(')').map(|(_, r)| r).ok_or("malformed stat line")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields.get(i).and_then(|f| f.parse::<f64>().ok()).ok_or_else(|| "short stat line".into())
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after "pid (comm)".
    Ok((tick(11)? + tick(12)?) / TICKS_PER_S)
}

/// Peak resident set size (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in /proc/{pid}/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_cost_is_readable() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mib(pid).unwrap() > 0.5);
        assert!(cpu_seconds(u32::MAX).is_err());
    }
}
