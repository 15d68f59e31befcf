//! The multi-tenant session manager: every live [`Session`], sharded by
//! session id, each shard behind one mutex.
//!
//! # Threading model
//!
//! A request runs on the thread that brought it — a connection handler
//! or the in-process caller: `session_id % workers` picks the shard, the
//! caller takes that shard's lock, does the work and answers. The
//! invariant: *a session is only touched under its shard's lock; nothing
//! blocks while holding it except the session's own `propose`/`observe`/
//! sink flush* (`finish`: the flush and the closing snapshot write). So a
//! warm-start create does its store lookup before the lock, and
//! back-pressure is the caller blocking on the lock.
//!
//! All requests of one session (and of one shard) take the same lock, so
//! per-session operations are totally ordered without a per-session lock
//! — two clients racing `GetProposal` against one session are serialized
//! by the shard mutex, and determinism (same seed → same proposal stream)
//! holds no matter how many connections share the session. Session code
//! runs under `catch_unwind` inside the critical section: a panicking
//! strategy costs exactly its own session and never poisons the mutex.
//!
//! # Lifecycle
//!
//! Sessions that go untouched for [`ServiceConfig::idle_timeout`] are
//! evicted by periodic sweeps (a ticker thread, plus [`SessionManager::sweep_now`]
//! for deterministic tests) that lock each shard in turn: open tickets
//! are abandoned, telemetry sinks are flushed, and the id is forgotten.
//! [`SessionManager::shutdown`] is graceful by construction — taking a
//! shard's lock waits for the request in flight on it, so that work
//! drains before the shard is stopped and its sessions are flushed;
//! later requests get the typed `shutting-down` error.

use crate::protocol::{
    health_info, health_response, posterior_response, ErrorCode, HealthInfo, Request, Response,
    SessionSpec,
};
use crate::stats::{EventRing, ServiceStats};
use adaphet_core::{
    JsonlSink, Observation, Observed, ResiliencePolicy, Session, SessionError, SurrogateStore,
    Ticket, WarmStart,
};
use adaphet_metrics::json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs for a [`SessionManager`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Session-map shards, one mutex each. Sessions are pinned to
    /// `id % workers`; requests run on the thread that brought them.
    pub workers: usize,
    /// In-flight proposal cap applied when a `CreateSession` does not
    /// specify its own.
    pub default_max_in_flight: usize,
    /// Evict sessions untouched for this long (`None` = never).
    pub idle_timeout: Option<Duration>,
    /// When set, every session writes its telemetry to
    /// `<dir>/session-<id>.jsonl`.
    pub telemetry_dir: Option<PathBuf>,
    /// Lifecycle events retained per session for `Inspect`.
    pub events_capacity: usize,
    /// When set, a [`SurrogateStore`] is opened at this directory: every
    /// closing/evicted/drained session persists its surrogate snapshot
    /// there, and `CreateSession` specs carrying `warm_start` seed their
    /// strategy from the nearest stored snapshot — including snapshots
    /// left by a previous daemon run on the same directory.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            default_max_in_flight: 8,
            idle_timeout: Some(Duration::from_secs(600)),
            telemetry_dir: None,
            events_capacity: 64,
            store_dir: None,
        }
    }
}

struct Entry {
    session: Session,
    last_touch: Instant,
    /// Strategy by canonical name, echoed by `Inspect`.
    strategy: String,
    /// Recent lifecycle events, for `Inspect`.
    events: EventRing,
}

/// One shard of the session map, only touched under its mutex.
#[derive(Default)]
struct Shard {
    sessions: HashMap<u64, Entry>,
    /// Set by `shutdown` as it flushes the shard; requests that find it
    /// set are refused, so nothing registers after the drain.
    stopped: bool,
}

/// Session code never unwinds through a held guard (see [`guarded`]) and
/// the map is valid between any two statements, so a poisoned lock — a
/// bug in this file — still must not wedge the shard's other sessions.
fn lock(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A background thread and the channel whose message ends it.
type Background = (mpsc::Sender<()>, JoinHandle<()>);

/// Run `work` every `period` on a thread of its own until stopped.
fn every(period: Duration, mut work: impl FnMut() + Send + 'static) -> Background {
    let (stop_tx, stop_rx) = mpsc::channel::<()>();
    let handle = std::thread::spawn(move || {
        while let Err(mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(period) {
            work();
        }
    });
    (stop_tx, handle)
}

/// The shared multi-tenant session registry. Cheap to share behind an
/// [`Arc`]; all methods take `&self`.
pub struct SessionManager {
    shards: Arc<Vec<Mutex<Shard>>>,
    config: ServiceConfig,
    store: Option<SurrogateStore>,
    /// The eviction ticker, until `shutdown`.
    ticker: Mutex<Option<Background>>,
    next_id: AtomicU64,
    draining: Arc<AtomicBool>,
    stats: Arc<ServiceStats>,
}

// Error responses are counted centrally in `handle_traced`, which every
// path returns through — `err` only shapes the reply.
fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error { code, message: message.into() }
}

fn session_err(id: u64, e: SessionError) -> Response {
    let code = match e {
        SessionError::UnknownTicket(_) => ErrorCode::UnknownTicket,
        SessionError::TooManyInFlight { .. } => ErrorCode::TooManyInFlight,
        SessionError::InvalidDuration(_) => ErrorCode::BadRequest,
    };
    err(code, format!("session {id}: {e}"))
}

fn panicked(id: u64) -> Response {
    err(ErrorCode::Internal, format!("session {id}: strategy panicked; session closed"))
}

/// Run session (strategy, sink) code; a panic becomes `None` and a tick
/// of `service.session.panicked` instead of unwinding through the
/// caller's shard guard. The caller drops the session the closure worked
/// on — its state is never read again, which makes `AssertUnwindSafe` true.
fn guarded<T>(stats: &ServiceStats, f: impl FnOnce() -> T) -> Option<T> {
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    if out.is_none() {
        stats.count("service.session.panicked", 1.0);
    }
    out
}

/// Flush a session's sinks and drop it, abandoning open tickets;
/// `outcome` is the lifecycle counter it ends under.
fn retire(id: u64, mut entry: Entry, outcome: &str, stats: &ServiceStats) {
    for ticket in entry.session.pending_tickets() {
        if entry.session.abandon(ticket).is_ok() {
            stats.in_flight_add(-1);
        }
    }
    // `finish` asks the strategy for its closing snapshot.
    if let Some(Err(_)) = guarded(stats, || entry.session.finish()) {
        stats.count("service.sink_error", 1.0);
    }
    stats.remove_health(id);
    stats.count(outcome, 1.0);
}

/// Evict every session of `shards` untouched for `timeout`.
fn sweep(shards: &[Mutex<Shard>], timeout: Duration, stats: &ServiceStats) {
    for (i, shard) in shards.iter().enumerate() {
        let mut shard = lock(shard);
        let now = Instant::now();
        let stale: Vec<u64> = shard
            .sessions
            .iter()
            .filter(|(_, e)| now.duration_since(e.last_touch) >= timeout)
            .map(|(&id, _)| id)
            .collect();
        for id in stale {
            if let Some(entry) = shard.sessions.remove(&id) {
                retire(id, entry, "service.session.evicted", stats);
            }
        }
        stats.set_shard_sessions(i, shard.sessions.len() as u64);
    }
}

/// Answer one session-routed request against its live session, recording
/// the session's lifecycle events and the propose/observe spans.
fn answer(
    id: u64,
    entry: &mut Entry,
    request: &Request,
    stats: &ServiceStats,
    parent: Option<u64>,
) -> Response {
    let session = &mut entry.session;
    match request {
        Request::GetProposal { .. } => {
            let span = stats.spans().enter("session.propose", parent);
            let proposed = session.propose();
            span.exit();
            match proposed {
                Ok(p) => {
                    stats.count("service.proposal", 1.0);
                    stats.in_flight_add(1);
                    entry.events.push(
                        stats.uptime_s(),
                        "propose",
                        Some(p.ticket.id()),
                        Some(p.action),
                        Some(p.iteration),
                        None,
                    );
                    Response::Proposal {
                        session: id,
                        ticket: p.ticket.id(),
                        iteration: p.iteration,
                        action: p.action,
                    }
                }
                Err(e) => {
                    entry.events.push(stats.uptime_s(), "error", None, None, None, None);
                    session_err(id, e)
                }
            }
        }
        Request::SubmitObservation { ticket, duration, .. } => {
            let span = stats.spans().enter("session.observe", parent);
            let observed = session.observe(Ticket::from_id(*ticket), Observation::of(*duration));
            span.exit();
            match observed {
                Ok(Observed::Recorded(out)) => {
                    stats.count("service.observation", 1.0);
                    stats.in_flight_add(-1);
                    // The health engine folds on the record path, so the
                    // published summary tracks every observation.
                    stats.set_health(health_info(id, &session.health()));
                    entry.events.push(
                        stats.uptime_s(),
                        "recorded",
                        Some(*ticket),
                        Some(out.action),
                        Some(out.iteration),
                        Some(out.duration),
                    );
                    Response::Recorded {
                        session: id,
                        iteration: out.iteration,
                        action: out.action,
                        duration: out.duration,
                        cumulative_time: session.cumulative_time(),
                    }
                }
                Ok(Observed::Retry { ticket, action, attempt }) => {
                    stats.count("service.retry", 1.0);
                    entry.events.push(
                        stats.uptime_s(),
                        "retry",
                        Some(ticket.id()),
                        Some(action),
                        None,
                        Some(*duration),
                    );
                    Response::Retry { session: id, ticket: ticket.id(), action, attempt }
                }
                Err(e) => {
                    entry.events.push(stats.uptime_s(), "error", Some(*ticket), None, None, None);
                    session_err(id, e)
                }
            }
        }
        Request::GetPosterior { .. } => posterior_response(id, session.posterior()),
        Request::GetHealth { .. } => {
            let report = session.health();
            stats.set_health(health_info(id, &report));
            health_response(id, &report)
        }
        Request::Inspect { .. } => Response::Inspected {
            session: id,
            strategy: entry.strategy.clone(),
            iterations: session.iterations_proposed(),
            cumulative_time: session.cumulative_time(),
            pending: session.pending().iter().map(|&(t, a)| (t.id(), a)).collect(),
            events: entry.events.events(),
            events_dropped: entry.events.dropped(),
        },
        Request::CloseSession { .. } => Response::Closed {
            session: id,
            iterations: session.iterations_proposed(),
            total_time: session.history().total_time(),
            best_action: session.history().best_action(),
            history: session.history().records().to_vec(),
        },
        // `dispatch` routes exactly the six verbs above.
        _ => err(ErrorCode::Internal, "request routed to a session by mistake"),
    }
}

impl SessionManager {
    /// Set up the shards (and the idle-eviction ticker, when an idle
    /// timeout is configured).
    pub fn new(mut config: ServiceConfig) -> Self {
        config.workers = config.workers.max(1);
        config.default_max_in_flight = config.default_max_in_flight.max(1);
        // One store handle, cloned per session: the clones share one
        // lookup index, and writes are atomic (tmp + rename), so sessions
        // never see each other's half-written snapshots.
        let opened = config.store_dir.as_ref().map(SurrogateStore::open);
        let open_failed = matches!(opened, Some(Err(_)));
        let store = opened.and_then(Result::ok);
        let stats = Arc::new(ServiceStats::new(config.workers, store.clone()));
        if open_failed {
            stats.count("service.store_error", 1.0);
        }
        let shards: Arc<Vec<Mutex<Shard>>> =
            Arc::new((0..config.workers).map(|_| Mutex::default()).collect());
        let ticker = config.idle_timeout.map(|timeout| {
            let tick = (timeout / 4).clamp(Duration::from_millis(50), Duration::from_secs(30));
            let (shards, stats) = (Arc::clone(&shards), Arc::clone(&stats));
            every(tick, move || sweep(&shards, timeout, &stats))
        });
        SessionManager {
            shards,
            config,
            store,
            ticker: Mutex::new(ticker),
            next_id: AtomicU64::new(1),
            draining: Arc::new(AtomicBool::new(false)),
            stats,
        }
    }

    /// The `/health` endpoint body: every live session's latest health
    /// report, ordered by session id. Field order inside each session
    /// object matches the `health` wire frame exactly.
    pub fn health_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            let _ = write!(o.key("uptime_s"), "{:.3}", self.stats.uptime_s());
            o.field("draining", &self.is_draining()).field("sessions", &self.stats.health_infos());
        });
        out
    }

    /// Whether [`Request::Shutdown`] was received (new work is refused).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The manager's observability state (always collecting).
    pub fn stats(&self) -> &Arc<ServiceStats> {
        &self.stats
    }

    /// The service-wide snapshot answered to [`Request::GetStats`].
    pub fn stats_snapshot(&self) -> crate::protocol::StatsSnapshot {
        self.stats.snapshot(env!("CARGO_PKG_VERSION"), self.is_draining())
    }

    /// Route one request and block for its answer. This is the entire
    /// service semantics; the wire server and the in-process client are
    /// both thin shells around it.
    pub fn handle(&self, request: Request) -> Response {
        self.handle_traced(request, None)
    }

    /// [`handle`](Self::handle) with an explicit parent span id, so the
    /// wire server's per-request root span encloses the dispatch,
    /// lock-wait and session spans.
    pub fn handle_traced(&self, request: Request, parent: Option<u64>) -> Response {
        let latency_key = request.latency_key();
        self.stats.count("service.request", 1.0);
        let span = self.stats.spans().enter("dispatch", parent);
        let span_id = span.id();
        let start = Instant::now();
        let response = self.dispatch(request, span_id);
        span.exit();
        self.stats.observe(latency_key, start.elapsed().as_secs_f64());
        if matches!(response, Response::Error { .. }) {
            self.stats.count("service.error", 1.0);
        }
        response
    }

    fn dispatch(&self, request: Request, parent: Option<u64>) -> Response {
        match request {
            Request::Ping => Response::Pong {
                version: env!("CARGO_PKG_VERSION").to_string(),
                uptime_s: self.stats.uptime_s(),
            },
            // Answered without a shard lock so the snapshot works mid-drain
            // — watching a drain finish is half the point of the endpoint.
            Request::GetStats => Response::Stats(self.stats_snapshot()),
            Request::Shutdown => {
                self.draining.store(true, Ordering::SeqCst);
                Response::ShuttingDown
            }
            Request::CreateSession(spec) => {
                if self.is_draining() {
                    return err(ErrorCode::ShuttingDown, "daemon is draining; no new sessions");
                }
                // Validate before consuming an id, so bad specs are
                // rejected without touching a shard.
                if let Err(message) = spec.space() {
                    return err(ErrorCode::BadRequest, message);
                }
                let id = self.next_id.fetch_add(1, Ordering::SeqCst);
                // Built before the lock: a warm start's store lookup must
                // not stall the shard's other sessions.
                match guarded(&self.stats, || self.build_entry(id, &spec)) {
                    None => panicked(id),
                    Some(Err(message)) => err(ErrorCode::BadRequest, message),
                    Some(Ok((entry, health))) => self.route(id, parent, |shard| {
                        self.stats.set_health(health);
                        shard.sessions.insert(id, entry);
                        self.stats.count("service.session.created", 1.0);
                        Response::SessionCreated { session: id }
                    }),
                }
            }
            // Draining still resolves open tickets, but issues no new
            // proposals.
            Request::GetProposal { .. } if self.is_draining() => {
                err(ErrorCode::ShuttingDown, "daemon is draining; no new proposals")
            }
            Request::GetProposal { session }
            | Request::SubmitObservation { session, .. }
            | Request::GetPosterior { session }
            | Request::Inspect { session }
            | Request::GetHealth { session }
            | Request::CloseSession { session } => {
                self.route(session, parent, |shard| self.serve(shard, session, &request, parent))
            }
        }
    }

    /// Everything of a new session that needs no lock: the session built
    /// from its validated wire spec (with the store lookup), its telemetry
    /// sink, its event ring and its first health summary.
    fn build_entry(&self, id: u64, spec: &SessionSpec) -> Result<(Entry, HealthInfo), String> {
        let space = spec.space()?;
        let mut b = Session::builder(&space)
            .kind(spec.strategy)
            .seed(spec.seed)
            .max_in_flight(spec.max_in_flight.unwrap_or(self.config.default_max_in_flight));
        if let Some(store) = &self.store {
            // Attaching the store alone makes the session persist a
            // snapshot when it retires; warm-starting from it is the
            // spec's opt-in.
            b = b.store(store);
            if let Some(min_similarity) = spec.warm_start {
                b = b.warm_start(WarmStart::FromStore { min_similarity });
            }
        }
        if let Some(iters) = spec.iters {
            b = b.iters(iters);
        }
        if let Some(best) = spec.best_known {
            b = b.best_known(best);
        }
        if let Some(best) = spec.oracle_best {
            b = b.oracle_best(best);
        }
        if spec.resilience {
            b = b.resilience(ResiliencePolicy::standard());
        }
        let mut session = b.build().map_err(|e| e.to_string())?;
        if let Some(dir) = &self.config.telemetry_dir {
            match JsonlSink::create(dir.join(format!("session-{id}.jsonl"))) {
                Ok(sink) => session.add_sink(Box::new(sink)),
                Err(_) => self.stats.count("service.sink_error", 1.0),
            }
        }
        let mut events = EventRing::new(self.config.events_capacity);
        events.push(self.stats.uptime_s(), "created", None, None, None, None);
        let health = health_info(id, &session.health());
        let strategy = spec.strategy.to_string();
        Ok((Entry { session, last_touch: Instant::now(), strategy, events }, health))
    }

    /// Answer one session verb against its (locked, live) shard.
    fn serve(
        &self,
        shard: &mut Shard,
        id: u64,
        request: &Request,
        parent: Option<u64>,
    ) -> Response {
        let stats = &*self.stats;
        let Some(entry) = shard.sessions.get_mut(&id) else {
            return err(ErrorCode::UnknownSession, format!("session {id} is not registered"));
        };
        // Inspect and GetHealth are read-only observers; they must not
        // keep an otherwise-idle session alive.
        if !matches!(request, Request::Inspect { .. } | Request::GetHealth { .. }) {
            entry.last_touch = Instant::now();
        }
        // The in-flight gauge moves only after a verb returns, so this is
        // the session's share of it should the verb panic.
        let open = entry.session.in_flight() as i64;
        let Some(response) = guarded(stats, || answer(id, entry, request, stats, parent)) else {
            // Dropped as it is, running no more of its code than `Drop`.
            shard.sessions.remove(&id);
            stats.in_flight_add(-open);
            stats.remove_health(id);
            return panicked(id);
        };
        // CloseSession retires the entry after answering from it.
        if matches!(request, Request::CloseSession { .. }) {
            if let Some(entry) = shard.sessions.remove(&id) {
                retire(id, entry, "service.session.closed", stats);
            }
        }
        response
    }

    /// Run an idle-eviction sweep on every shard and wait for it to
    /// finish (deterministic alternative to the ticker, for tests and
    /// operator tooling).
    pub fn sweep_now(&self) {
        if let Some(timeout) = self.config.idle_timeout {
            sweep(&self.shards, timeout, &self.stats);
        }
    }

    /// Run `work` on the calling thread under the lock of `id`'s shard, unless
    /// [`shutdown`](Self::shutdown) stopped it. `queue_depth` counts the
    /// callers waiting here; the `shard.queue_wait` span measures the wait.
    fn route(
        &self,
        id: u64,
        parent: Option<u64>,
        work: impl FnOnce(&mut Shard) -> Response,
    ) -> Response {
        let index = (id % self.shards.len() as u64) as usize;
        self.stats.queue_push(index);
        let wait = self.stats.spans().enter("shard.queue_wait", parent);
        let mut shard = lock(&self.shards[index]);
        wait.exit();
        self.stats.queue_pop(index);
        if shard.stopped {
            return err(ErrorCode::ShuttingDown, "daemon has shut down; sessions are flushed");
        }
        let response = work(&mut shard);
        self.stats.set_shard_sessions(index, shard.sessions.len() as u64);
        response
    }

    /// Graceful shutdown: stop the ticker and the sampler, then take each
    /// shard's lock — which waits for the request in flight on it — mark
    /// it stopped and flush its remaining sessions; later requests are
    /// refused with `shutting-down`. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
        // Runs on drop too, so a poisoned lock must not panic here. Held to
        // the end: a concurrent second caller returns after the drain too.
        let mut ticker = self.ticker.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((stop, handle)) = ticker.take() {
            let _ = stop.send(());
            let _ = handle.join();
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let mut shard = lock(shard);
            shard.stopped = true;
            for (id, entry) in shard.sessions.drain() {
                retire(id, entry, "service.session.drained", &self.stats);
            }
            self.stats.set_shard_sessions(i, 0);
        }
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_core::StrategyKind;

    fn response_curve(n: usize) -> f64 {
        30.0 / n as f64 + 0.8 * n as f64
    }

    fn spec(kind: StrategyKind, seed: u64) -> SessionSpec {
        let mut s = SessionSpec::new(kind, seed, 10);
        s.groups = vec![(1, 5), (6, 10)];
        s.lp = Some((1..=10).map(|n| 30.0 / n as f64).collect());
        s
    }

    fn manager() -> SessionManager {
        SessionManager::new(ServiceConfig { idle_timeout: None, ..ServiceConfig::default() })
    }

    fn create(m: &SessionManager, s: SessionSpec) -> u64 {
        match m.handle(Request::CreateSession(s)) {
            Response::SessionCreated { session } => session,
            other => panic!("expected session_created, got {other:?}"),
        }
    }

    /// Drive one managed session for `iters` iterations, returning its
    /// closing history.
    fn drive(m: &SessionManager, id: u64, iters: usize) -> Vec<(usize, f64)> {
        for _ in 0..iters {
            let (ticket, action) = match m.handle(Request::GetProposal { session: id }) {
                Response::Proposal { ticket, action, .. } => (ticket, action),
                other => panic!("expected proposal, got {other:?}"),
            };
            match m.handle(Request::SubmitObservation {
                session: id,
                ticket,
                duration: response_curve(action),
            }) {
                Response::Recorded { .. } => {}
                other => panic!("expected recorded, got {other:?}"),
            }
        }
        match m.handle(Request::CloseSession { session: id }) {
            Response::Closed { history, iterations, .. } => {
                assert_eq!(iterations, iters);
                history
            }
            other => panic!("expected closed, got {other:?}"),
        }
    }

    struct PanicsOnThirdPropose(usize);

    impl adaphet_core::Strategy for PanicsOnThirdPropose {
        fn name(&self) -> &'static str {
            "panics-on-third-propose"
        }
        fn propose(
            &mut self,
            space: &adaphet_core::ActionSpace,
            _: &adaphet_core::History,
        ) -> usize {
            self.0 += 1;
            assert!(self.0 < 3, "the strategy's third propose");
            space.max_nodes
        }
    }

    #[test]
    fn a_panicking_strategy_costs_exactly_its_own_session() {
        let m = SessionManager::new(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let healthy = create(&m, spec(StrategyKind::Ucb, 1));
        // Registered next to it the way `create_session` would, with a
        // strategy no wire spec can name.
        let bad = m.next_id.fetch_add(1, Ordering::SeqCst);
        let session = Session::builder(&spec(StrategyKind::Ucb, 2).space().unwrap())
            .strategy(Box::new(PanicsOnThirdPropose(0)))
            .max_in_flight(8)
            .build()
            .unwrap();
        m.stats.set_health(health_info(bad, &session.health()));
        let (last_touch, events) = (Instant::now(), EventRing::new(4));
        let entry = Entry { session, last_touch, strategy: "panics".into(), events };
        lock(&m.shards[0]).sessions.insert(bad, entry);
        for _ in 0..2 {
            let reply = m.handle(Request::GetProposal { session: bad });
            assert!(matches!(reply, Response::Proposal { .. }), "{reply:?}");
        }
        assert_eq!(m.stats_snapshot().in_flight, 2);
        let message = format!("session {bad}: strategy panicked; session closed");
        assert_eq!(
            m.handle(Request::GetProposal { session: bad }),
            Response::Error { code: ErrorCode::Internal, message }
        );
        assert!(!m.shards[0].is_poisoned());
        match m.handle(Request::GetProposal { session: bad }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("{other:?}"),
        }
        // Its two open tickets left the gauge with it; the neighbour on
        // the same shard keeps answering, and so does `get_stats`.
        let reply = m.handle(Request::GetProposal { session: healthy });
        assert!(matches!(reply, Response::Proposal { .. }), "{reply:?}");
        let Response::Stats(snap) = m.handle(Request::GetStats) else { panic!("no stats") };
        assert_eq!((snap.sessions_live, snap.in_flight), (1, 1));
        assert_eq!(m.stats.health_infos().len(), 1);
        let report = m.stats.report(false);
        let panicked = report.counters.iter().find(|(k, _)| k == "service.session.panicked");
        assert_eq!(panicked.map(|&(_, v)| v), Some(1.0));
        m.shutdown();
        let snap = m.stats_snapshot();
        assert_eq!((snap.sessions_drained, snap.sessions_live, snap.in_flight), (1, 0, 0));
    }

    #[test]
    fn multi_in_flight_tickets_resolve_out_of_order() {
        let m = manager();
        let id = create(&m, spec(StrategyKind::Ucb, 1));
        let p0 = m.handle(Request::GetProposal { session: id });
        let p1 = m.handle(Request::GetProposal { session: id });
        let (t0, t1, a0, a1) = match (&p0, &p1) {
            (
                Response::Proposal { ticket: t0, action: a0, .. },
                Response::Proposal { ticket: t1, action: a1, .. },
            ) => (*t0, *t1, *a0, *a1),
            other => panic!("expected two proposals, got {other:?}"),
        };
        assert_ne!(t0, t1);
        // Resolve in reverse order; each lands on its own iteration.
        match m.handle(Request::SubmitObservation { session: id, ticket: t1, duration: 2.0 }) {
            Response::Recorded { iteration, action, .. } => {
                assert_eq!((iteration, action), (1, a1));
            }
            other => panic!("{other:?}"),
        }
        match m.handle(Request::SubmitObservation { session: id, ticket: t0, duration: 1.0 }) {
            Response::Recorded { iteration, action, .. } => {
                assert_eq!((iteration, action), (0, a0));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_flight_cap_is_a_typed_wire_error() {
        let m = manager();
        let mut s = spec(StrategyKind::Ucb, 1);
        s.max_in_flight = Some(1);
        let id = create(&m, s);
        assert!(matches!(
            m.handle(Request::GetProposal { session: id }),
            Response::Proposal { .. }
        ));
        match m.handle(Request::GetProposal { session: id }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::TooManyInFlight),
            other => panic!("expected too-many-in-flight, got {other:?}"),
        }
    }

    #[test]
    fn unknown_ids_get_typed_errors() {
        let m = manager();
        match m.handle(Request::GetProposal { session: 999 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("{other:?}"),
        }
        let id = create(&m, spec(StrategyKind::Ucb, 1));
        match m.handle(Request::SubmitObservation { session: id, ticket: 42, duration: 1.0 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownTicket),
            other => panic!("{other:?}"),
        }
        match m.handle(Request::CreateSession(SessionSpec::new(StrategyKind::Oracle, 0, 4))) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_sessions_are_evicted_and_closed_ids_forgotten() {
        let m = SessionManager::new(ServiceConfig {
            idle_timeout: Some(Duration::from_millis(20)),
            ..ServiceConfig::default()
        });
        let id = create(&m, spec(StrategyKind::Ucb, 1));
        std::thread::sleep(Duration::from_millis(40));
        m.sweep_now();
        match m.handle(Request::GetProposal { session: id }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("expected eviction, got {other:?}"),
        }
        // A closed id is likewise gone.
        let id2 = create(&m, spec(StrategyKind::Ucb, 2));
        drive(&m, id2, 2);
        match m.handle(Request::GetPosterior { session: id2 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownSession),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shutdown_refuses_new_work_but_drains_open_tickets() {
        let m = manager();
        let id = create(&m, spec(StrategyKind::Ucb, 1));
        let (ticket, action) = match m.handle(Request::GetProposal { session: id }) {
            Response::Proposal { ticket, action, .. } => (ticket, action),
            other => panic!("{other:?}"),
        };
        assert_eq!(m.handle(Request::Shutdown), Response::ShuttingDown);
        assert!(m.is_draining());
        match m.handle(Request::CreateSession(spec(StrategyKind::Ucb, 2))) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
            other => panic!("{other:?}"),
        }
        match m.handle(Request::GetProposal { session: id }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
            other => panic!("{other:?}"),
        }
        // The open ticket still drains to a recorded observation.
        match m.handle(Request::SubmitObservation { session: id, ticket, duration: 1.5 }) {
            Response::Recorded { action: a, .. } => assert_eq!(a, action),
            other => panic!("{other:?}"),
        }
        match m.handle(Request::CloseSession { session: id }) {
            Response::Closed { history, .. } => assert_eq!(history.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn posterior_endpoint_mirrors_the_session_surrogate() {
        let m = manager();
        let id = create(&m, spec(StrategyKind::GpDiscontinuous, 3));
        match m.handle(Request::GetPosterior { session: id }) {
            Response::Posterior { points, .. } => assert!(points.is_none()),
            other => panic!("{other:?}"),
        }
        for _ in 0..12 {
            let (ticket, action) = match m.handle(Request::GetProposal { session: id }) {
                Response::Proposal { ticket, action, .. } => (ticket, action),
                other => panic!("{other:?}"),
            };
            m.handle(Request::SubmitObservation {
                session: id,
                ticket,
                duration: response_curve(action),
            });
        }
        match m.handle(Request::GetPosterior { session: id }) {
            Response::Posterior { points: Some(points), .. } => assert_eq!(points.len(), 10),
            other => panic!("expected a fitted posterior, got {other:?}"),
        }
    }

    #[test]
    fn sessions_persist_to_the_store_and_warm_start_across_manager_restarts() {
        let dir = std::env::temp_dir().join(format!("adaphet-mgr-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = ServiceConfig {
            idle_timeout: None,
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        // First "daemon run": a cold session leaves a snapshot behind.
        let cold = {
            let m = SessionManager::new(cfg.clone());
            let id = create(&m, spec(StrategyKind::GpDiscontinuous, 9));
            drive(&m, id, 20)
        };
        assert!(
            std::fs::read_dir(&dir).map(|d| d.count() > 0).unwrap_or(false),
            "closing a session must persist a snapshot"
        );
        // Second "daemon run" over the same directory: an opted-in spec
        // warm-starts from the persisted snapshot.
        let m2 = SessionManager::new(cfg);
        let mut warm_spec = spec(StrategyKind::GpDiscontinuous, 9);
        warm_spec.warm_start = Some(0.9);
        let id = create(&m2, warm_spec);
        let warm = drive(&m2, id, 8);
        assert_eq!(warm[0].0, 10, "warm sessions still measure the all-nodes baseline");
        assert_ne!(
            warm.iter().map(|r| r.0).collect::<Vec<_>>(),
            cold.iter().take(8).map(|r| r.0).collect::<Vec<_>>(),
            "the warm session must not replay the cold initialization"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_lookups_are_visible_in_the_metrics_report() {
        let dir = std::env::temp_dir().join(format!("adaphet-mgr-index-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = SessionManager::new(ServiceConfig {
            idle_timeout: None,
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let value = |name: &str| {
            let report = m.stats().report(false);
            let of = |list: &[(String, f64)]| list.iter().find(|(k, _)| k == name).map(|&(_, v)| v);
            of(&report.counters).or_else(|| of(&report.gauges))
        };
        let id = create(&m, spec(StrategyKind::GpDiscontinuous, 9));
        drive(&m, id, 6);
        std::fs::write(dir.join("gp-discontinuous-0000000000000bad.snap"), b"ADSS torn").unwrap();
        let mut warm_spec = spec(StrategyKind::GpDiscontinuous, 9);
        warm_spec.warm_start = Some(0.9);
        for lookups in 1..=2 {
            let id = create(&m, warm_spec.clone());
            drive(&m, id, 2);
            // The torn file is passed over on every lookup, never indexed.
            assert_eq!(value("service.store.corrupt_skipped"), Some(f64::from(lookups)));
            assert_eq!(value("service.store.index_entries"), Some(1.0));
            assert_eq!(value("service.store.lookup_error"), Some(0.0));
        }
        // An unreadable directory fails the lookup; the create goes cold.
        std::fs::remove_dir_all(&dir).unwrap();
        create(&m, warm_spec);
        assert_eq!(value("service.store.lookup_error"), Some(1.0));
        let prometheus = m.stats().report(false).to_prometheus();
        assert!(
            prometheus.contains("adaphet_service_store_lookup_error_total 1\n"),
            "{prometheus}"
        );
    }

    #[test]
    fn telemetry_dir_writes_one_jsonl_per_session() {
        let dir = std::env::temp_dir().join(format!("adaphet-mgr-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let m = SessionManager::new(ServiceConfig {
            idle_timeout: None,
            telemetry_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let id = create(&m, spec(StrategyKind::Ucb, 5));
        drive(&m, id, 3);
        let text = std::fs::read_to_string(dir.join(format!("session-{id}.jsonl"))).unwrap();
        assert_eq!(text.lines().count(), 3, "one event per recorded iteration");
        assert!(text.lines().all(|l| l.contains("\"iteration\":")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
