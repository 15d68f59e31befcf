//! The three service workloads: closed-loop clients against the real
//! `adaphet-serve` (untraced run), and the same block replayed against an
//! in-process `SessionManager` with a span around every public call
//! (traced run).

use crate::daemon::{Daemon, TempDir};
use crate::gen::{self, SessionInput};
use crate::metrics::Metrics;
use crate::spans::{NoTrace, Recorder, Tracer};
use crate::stats::{median, percentile};
use crate::workload::{fingerprint, Block, Workload};
use adaphet_analysis::Json;
use adaphet_core::{
    Observation, Observed, Session, StrategyKind, SurrogateSnapshot, SurrogateStore, TunerDriver,
    WarmStart,
};
use adaphet_service::protocol::{read_frame, write_frame};
use adaphet_service::{
    Client, Request, Response, ServiceConfig, SessionManager, SessionSpec, Submitted,
};
use std::os::unix::net::UnixStream;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Closed-loop clients per service workload (= cores of the box the
/// bounds were derived on); also the daemon's `--workers`.
pub const CLIENTS: usize = 2;

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 127-iteration GP-discontinuous sessions on 128 nodes.
    TuneGp128,
    /// 16-iteration GP-free sessions on 12 nodes.
    TuneCheapShort,
    /// Warm-started 12-iteration sessions over a pre-filled store.
    WarmStoreMix,
}

type History = Vec<(usize, f64)>;

impl Kind {
    /// The generated sessions of one block (split evenly between the
    /// clients) and the snapshots the store is pre-filled with.
    fn inputs(self, seed: u64) -> (Vec<SessionInput>, Vec<SurrogateSnapshot>) {
        match self {
            Kind::TuneGp128 => (gen::tune_gp_128(seed, 12), Vec::new()),
            Kind::TuneCheapShort => (gen::tune_cheap_short(seed, 480), Vec::new()),
            Kind::WarmStoreMix => gen::warm_store_mix(seed),
        }
    }

    fn warm(self) -> bool {
        self == Kind::WarmStoreMix
    }
}

/// A fresh store directory holding `snapshots`.
fn fill_store(snapshots: &[SurrogateSnapshot]) -> Result<(TempDir, SurrogateStore), String> {
    let dir = TempDir::new("store")?;
    let store = SurrogateStore::open(dir.path()).map_err(|e| format!("store: {e}"))?;
    for snap in snapshots {
        store.put(snap).map_err(|e| format!("store fill: {e}"))?;
    }
    Ok((dir, store))
}

/// Mirror of the daemon's spec → session construction, for the shadow.
pub fn shadow_session(
    spec: &SessionSpec,
    store: Option<&SurrogateStore>,
) -> Result<Session, String> {
    let space = spec.space()?;
    let mut b = TunerDriver::builder(&space).kind(spec.strategy).seed(spec.seed).max_in_flight(
        spec.max_in_flight.unwrap_or(ServiceConfig::default().default_max_in_flight),
    );
    if let (Some(store), Some(min_similarity)) = (store, spec.warm_start) {
        b = b.store(store).warm_start(WarmStart::FromStore { min_similarity });
    }
    if let Some(iters) = spec.iters {
        b = b.iters(iters);
    }
    b.build_session().map_err(|e| e.to_string())
}

/// Drive a shadow session over `input`, reporting each call to `t`.
pub fn shadow_history<T: Tracer>(
    t: &mut T,
    parent: Option<usize>,
    request: u64,
    session: &mut Session,
    input: &SessionInput,
) -> Result<History, String> {
    let detail = input.spec.strategy.name();
    for i in 0..input.iters() {
        let p = t
            .span("session.propose", parent, request, detail, |_, _| session.propose())
            .map_err(|e| format!("shadow propose: {e}"))?;
        let obs = Observation::of(input.duration(i, p.action));
        let seen = t
            .span("session.observe", parent, request, detail, |_, _| session.observe(p.ticket, obs))
            .map_err(|e| format!("shadow observe: {e}"))?;
        if !matches!(seen, Observed::Recorded(_)) {
            return Err("shadow session asked for a retry without a resilience policy".into());
        }
    }
    Ok(session.history().records().to_vec())
}

fn same_bits(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// The checks every closed history must pass.
fn check_history(input: &SessionInput, history: &[(usize, f64)]) -> Result<(), String> {
    if history.len() != input.iters() {
        return Err(format!(
            "history has {} records for {} iterations",
            history.len(),
            input.iters()
        ));
    }
    let n = input.curve.n();
    match history.iter().find(|&&(a, _)| a < 1 || a > n) {
        Some((a, _)) => Err(format!("action {a} outside 1..={n}")),
        None => Ok(()),
    }
}

/// Orders the clients' `create_session` requests: client `c` sends its
/// `j`-th create as the `(j·clients + c)`-th of the block, no sooner than
/// [`STAGGER`] after the one before it was sent.
///
/// The daemon hands session ids out in arrival order and shards sessions
/// by `id % workers`. A client whose create overtakes the other's lands on
/// the worker the other's live session is on, the two share one thread
/// for a session, and which block that happens in is luck: block p50s of
/// `tune_gp_128` were bimodal (360–860 µs) with racing creates. Taking
/// turns keeps the sends alternating, so every client has a worker of
/// its own. Only the *send* takes its turn — the turn is given up before
/// the request is written, and the stagger covers the way to the daemon's
/// id counter — so the creates themselves (a 7.5 ms store scan each on
/// `warm_store_mix`) run side by side on the two workers. What is left
/// of the coupling is the alternation itself: a client cannot start its
/// next session before the other has started its current one.
#[derive(Debug)]
struct Turnstile {
    /// The next ticket, and when the one before it went through.
    next: Mutex<(usize, Instant)>,
    moved: Condvar,
}

/// Head start of a create over the next one: several times what a request
/// takes from the client's `write` to `SessionManager`'s id counter
/// (≈ 30–60 µs here), and a tenth of the shortest session.
const STAGGER: Duration = Duration::from_micros(250);

impl Turnstile {
    fn new() -> Turnstile {
        // `Instant` has no zero; the block's first create waits for nobody.
        let long_ago = Instant::now().checked_sub(STAGGER).unwrap_or_else(Instant::now);
        Turnstile { next: Mutex::new((0, long_ago)), moved: Condvar::new() }
    }

    /// Return when it is `ticket`'s turn to send, and pass the turn on.
    fn take(&self, ticket: usize) {
        let mut next = self.next.lock().expect("no client panics holding the turnstile");
        while next.0 != ticket {
            next = self.moved.wait(next).expect("no client panics holding the turnstile");
        }
        // Later tickets are parked on the condvar until the turn moves on,
        // so sleeping with the lock held keeps nobody from anything.
        std::thread::sleep(STAGGER.saturating_sub(next.1.elapsed()));
        *next = (ticket + 1, Instant::now());
        self.moved.notify_all();
    }
}

/// What one client measured over its share of a block.
#[derive(Debug, Default)]
struct ClientBlock {
    iter_us: Vec<f64>,
    create_us: Vec<f64>,
    close_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    retries: u64,
    failures: Vec<String>,
    /// Closed history per session (`None` where the session failed).
    histories: Vec<Option<History>>,
}

/// Run one session over the wire; every request counts as attempted.
fn drive_session(
    client: &mut Client<UnixStream>,
    input: &SessionInput,
    expect_warm: bool,
    turn: (&Turnstile, usize),
    out: &mut ClientBlock,
) -> Result<History, String> {
    out.attempted += 1;
    let spec = input.spec.clone();
    turn.0.take(turn.1);
    let t = Instant::now();
    let created = client.create_session(spec);
    let create_us = t.elapsed().as_secs_f64() * 1e6;
    let id = created.map_err(|e| format!("create: {e}"))?;
    out.create_us.push(create_us);
    let mut latencies = Vec::with_capacity(input.iters());
    for i in 0..input.iters() {
        out.attempted += 2;
        let t = Instant::now();
        let (ticket, _, action) = client.get_proposal(id).map_err(|e| format!("proposal: {e}"))?;
        if action < 1 || action > input.curve.n() {
            return Err(format!("proposed action {action} outside 1..={}", input.curve.n()));
        }
        let submitted = client
            .submit(id, ticket, input.duration(i, action))
            .map_err(|e| format!("submit: {e}"))?;
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
        if let Submitted::Retry { .. } = submitted {
            out.retries += 1;
            return Err("daemon asked for a retry without a resilience policy".into());
        }
    }
    if expect_warm {
        out.attempted += 1;
        let health = client.get_health(id).map_err(|e| format!("health: {e}"))?;
        if !health.warm_started {
            return Err("session did not report warm_started".into());
        }
    }
    out.attempted += 1;
    let t = Instant::now();
    let closed = client.close_session(id).map_err(|e| format!("close: {e}"))?;
    out.close_us.push(t.elapsed().as_secs_f64() * 1e6);
    // A failed session misses every latency figure.
    out.iter_us.extend(latencies);
    Ok(closed.history)
}

/// A service workload set up against a running daemon.
pub struct Service {
    kind: Kind,
    daemon: Option<Daemon>,
    clients: Vec<Client<UnixStream>>,
    inputs: Vec<SessionInput>,
    /// The daemon's `--store-dir` (pre-filled), with a handle for checks.
    store: Option<(TempDir, SurrogateStore)>,
    /// Whether the warm-up block has run (warm sessions then find their
    /// own partition's snapshot, so the shadow's donor is determined).
    warmed: bool,
    /// Fingerprint of the first block's histories. Without a store the
    /// daemon keeps nothing between sessions, so every block must repeat
    /// it — which also extends the first block's shadow check to the rest.
    reference: Option<u64>,
}

impl Service {
    /// Generate inputs, fill the store, start the daemon, connect the
    /// clients and run the warm-up block.
    pub fn setup(kind: Kind, seed: u64) -> Result<Service, String> {
        let (inputs, snapshots) = kind.inputs(seed);
        let store = kind.warm().then(|| fill_store(&snapshots)).transpose()?;
        let daemon = Daemon::spawn(store.as_ref().map(|(dir, _)| dir.path()))?;
        let clients = (0..CLIENTS).map(|_| daemon.connect()).collect::<Result<Vec<_>, _>>()?;
        let mut service = Service {
            kind,
            daemon: Some(daemon),
            clients,
            inputs,
            store,
            warmed: false,
            reference: None,
        };
        let warm_up = service.block();
        service.warmed = true;
        match warm_up.failures.first() {
            Some(first) => Err(format!("warm-up block failed: {first}")),
            None => Ok(service),
        }
    }
}

impl Workload for Service {
    fn block(&mut self) -> Block {
        let warm = self.kind.warm();
        // The warm-up block over a store writes each partition's first
        // snapshot, and a session's donor there is the nearest snapshot
        // written so far. One client runs it, so that which sessions have
        // closed before a create — and with it every later block's
        // decisions — does not hang on a race between two.
        let active = if warm && !self.warmed { 1 } else { CLIENTS };
        let share = self.inputs.len() / active;
        let check_shadow = if warm { self.warmed } else { self.reference.is_none() };
        // Shadows of each client's first session are built before the
        // block, so a warm shadow resolves the same donor the daemon will
        // (nothing else writes that partition's store entry meanwhile).
        let store = self.store.as_ref().map(|(_, s)| s);
        let mut shadows: Vec<Option<Result<Session, String>>> = (0..active)
            .map(|c| check_shadow.then(|| shadow_session(&self.inputs[c * share].spec, store)))
            .collect();

        let start = Instant::now();
        let inputs = &self.inputs;
        let turnstile = &Turnstile::new();
        let per_client: Vec<ClientBlock> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .take(active)
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut out = ClientBlock::default();
                        for (j, input) in inputs[c * share..(c + 1) * share].iter().enumerate() {
                            let turn = (turnstile, j * active + c);
                            let done = drive_session(client, input, warm, turn, &mut out);
                            let done = done.and_then(|h| check_history(input, &h).map(|()| h));
                            match done {
                                Ok(history) => out.histories.push(Some(history)),
                                Err(why) => {
                                    out.failed += 1;
                                    out.failures.push(format!("client {c}: {why}"));
                                    out.histories.push(None);
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let wall_s = start.elapsed().as_secs_f64();

        let mut block = Block { wall_s, ..Block::default() };
        let (mut create_us, mut close_us, mut retries) = (Vec::new(), Vec::new(), 0);
        let mut words = Vec::new();
        for (c, mut cb) in per_client.into_iter().enumerate() {
            block.iters += cb.iter_us.len() as u64;
            block.iter_us.append(&mut cb.iter_us);
            block.attempted += cb.attempted;
            block.failed += cb.failed;
            block.failures.append(&mut cb.failures);
            create_us.append(&mut cb.create_us);
            close_us.append(&mut cb.close_us);
            retries += cb.retries;
            for (input, history) in inputs[c * share..].iter().zip(&cb.histories) {
                let Some(history) = history else { continue };
                block.quality.add_session(&input.curve, history.iter().map(|r| r.0));
                words.extend(history.iter().flat_map(|&(a, d)| [a as u64, d.to_bits()]));
            }
            if let Some(shadow) = shadows[c].take() {
                let input = &inputs[c * share];
                let verdict = shadow.and_then(|mut s| {
                    let expected = shadow_history(&mut NoTrace, None, 0, &mut s, input)?;
                    match &cb.histories[0] {
                        Some(got) if same_bits(got, &expected) => Ok(()),
                        Some(_) => Err("daemon history differs from the shadow session".into()),
                        None => Ok(()), // already counted as a failed session
                    }
                });
                if let Err(why) = verdict {
                    block.failed += 1;
                    block.failures.push(format!("client {c} shadow: {why}"));
                }
            }
        }
        let print = fingerprint(words);
        if !warm && *self.reference.get_or_insert(print) != print {
            block.failed += 1;
            block.failures.push("blocks over the same inputs gave different histories".into());
        }
        let sessions = close_us.len() as f64;
        if !create_us.is_empty() && !block.iter_us.is_empty() {
            block.extra = vec![
                ("create_latency_p50_us", median(&create_us)),
                ("close_latency_p50_us", median(&close_us)),
                ("sessions_per_s", sessions / wall_s),
                ("service.iter_latency_p99_us", percentile(&block.iter_us, 99.0)),
                ("service.retries", retries as f64),
            ];
        }
        block
    }

    fn cost_pid(&self) -> u32 {
        self.daemon.as_ref().expect("daemon runs until finish").pid()
    }

    fn program_errors(&mut self) -> Result<u64, String> {
        self.clients[0].get_stats().map(|s| s.errors).map_err(|e| format!("get_stats: {e}"))
    }

    fn finish(mut self: Box<Self>) -> Vec<String> {
        let mut failures = Vec::new();
        self.clients.clear();
        if let Some((_, store)) = &self.store {
            let expected = gen::WARM_PREFILL + gen::WARM_PARTITIONS;
            match store.entries() {
                Ok(entries) if entries.len() == expected => {}
                Ok(entries) => failures
                    .push(format!("store holds {} entries, expected {expected}", entries.len())),
                Err(e) => failures.push(format!("store listing: {e}")),
            }
        }
        if let Err(why) = self.daemon.take().expect("finish runs once").shutdown() {
            failures.push(why);
        }
        failures
    }
}

// ---- traced run: the same block against an in-process manager ---------

/// A message as the wire carries it: one length-prefixed frame.
fn frame(json: &str) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    write_frame(&mut buf, json).map_err(|e| e.to_string())?;
    Ok(buf)
}

/// The JSON value inside one frame, parsed the way server and client do.
fn unframe(mut bytes: &[u8]) -> Result<Json, String> {
    let payload = read_frame(&mut bytes).map_err(|e| e.to_string())?.ok_or("empty frame")?;
    Json::parse(std::str::from_utf8(&payload).map_err(|e| e.to_string())?)
}

/// One request through the wire codec and the manager, each step a span.
fn exchange<T: Tracer>(
    t: &mut T,
    parent: Option<usize>,
    id: u64,
    verb: &'static str,
    manager: &SessionManager,
    request: &Request,
    bytes: &mut u64,
) -> Result<Response, String> {
    let sent = t.span("wire.encode_request", parent, id, verb, |_, _| frame(&request.to_json()))?;
    let decoded = t.span("wire.decode_request", parent, id, verb, |_, _| {
        Request::from_json(&unframe(&sent)?)
    })?;
    let response = t.span("manager.handle", parent, id, verb, |_, _| manager.handle(decoded));
    let reply =
        t.span("wire.encode_response", parent, id, verb, |_, _| frame(&response.to_json()))?;
    *bytes += (sent.len() + reply.len()) as u64;
    t.span("wire.decode_response", parent, id, verb, |_, _| Response::from_json(&unframe(&reply)?))
}

/// Counters of one in-process block.
#[derive(Debug, Default)]
struct InProcess {
    histories: Vec<History>,
    iterations: u64,
    /// Wire bytes (frames both ways) of `get_proposal` + `submit` only.
    iteration_bytes: u64,
}

/// Run one session through the wire codec and `manager`, adding to `out`.
fn drive_one<T: Tracer>(
    t: &mut T,
    manager: &SessionManager,
    input: &SessionInput,
    next_request: &mut u64,
    out: &mut InProcess,
) -> Result<(), String> {
    let mut other_bytes = 0;
    let mut request_id = || {
        *next_request += 1;
        *next_request
    };
    let id = request_id();
    let create = Request::CreateSession(input.spec.clone());
    let created = t.span("session.create", None, id, "", |t, me| {
        exchange(t, me, id, "create_session", manager, &create, &mut other_bytes)
    })?;
    let Response::SessionCreated { session } = created else {
        return Err(format!("create answered {created:?}"));
    };
    for i in 0..input.iters() {
        let id = request_id();
        t.span("iteration", None, id, "", |t, me| -> Result<(), String> {
            let bytes = &mut out.iteration_bytes;
            let ask = Request::GetProposal { session };
            let proposal = exchange(t, me, id, "get_proposal", manager, &ask, bytes)?;
            let Response::Proposal { ticket, action, .. } = proposal else {
                return Err(format!("get_proposal answered {proposal:?}"));
            };
            let duration = input.duration(i, action);
            let tell = Request::SubmitObservation { session, ticket, duration };
            match exchange(t, me, id, "submit_observation", manager, &tell, bytes)? {
                Response::Recorded { .. } => Ok(()),
                other => Err(format!("submit answered {other:?}")),
            }
        })?;
        out.iterations += 1;
    }
    let id = request_id();
    let close = Request::CloseSession { session };
    let closed = t.span("session.close", None, id, "", |t, me| {
        exchange(t, me, id, "close_session", manager, &close, &mut other_bytes)
    })?;
    let Response::Closed { history, .. } = closed else {
        return Err(format!("close answered {closed:?}"));
    };
    check_history(input, &history)?;
    out.histories.push(history);
    Ok(())
}

/// Run every session of a block single-threaded against `manager`;
/// returns the block's counters and its wall time.
fn drive_in_process<T: Tracer>(
    t: &mut T,
    manager: &SessionManager,
    inputs: &[SessionInput],
    next_request: &mut u64,
) -> Result<(InProcess, f64), String> {
    let mut out = InProcess::default();
    let start = Instant::now();
    for input in inputs {
        drive_one(t, manager, input, next_request, &mut out)?;
    }
    Ok((out, start.elapsed().as_secs_f64()))
}

/// What the traced in-process replay of one block found.
pub struct Traced {
    /// Every span of the traced block and of the shadow pass.
    pub recorder: Recorder,
    /// Per-layer figures derived from the spans.
    pub metrics: Metrics,
    /// Checks that did not hold.
    pub failures: Vec<String>,
    /// Median in-process time of one iteration's five wire/handle steps
    /// for both verbs — what `service.transport_us` subtracts.
    pub in_process_iter_us: f64,
}

/// Replay one block of `kind` single-threaded against an in-process
/// manager: a warm-up pass, then untraced and traced passes in turn for
/// the overhead figure, then the pass whose spans are kept — in which
/// every session is followed at once by the same session on a bare
/// `Session` (the shadow), so that the two are compared under the same
/// machine weather.
pub fn traced(kind: Kind, seed: u64) -> Result<Traced, String> {
    const REPEATS: usize = 3;
    let (inputs, snapshots) = kind.inputs(seed);
    let store = kind.warm().then(|| fill_store(&snapshots)).transpose()?;
    let store_handle = store.as_ref().map(|(_, s)| s);
    let manager = SessionManager::new(ServiceConfig {
        workers: CLIENTS,
        store_dir: store.as_ref().map(|(dir, _)| dir.path().to_path_buf()),
        ..ServiceConfig::default()
    });
    let mut next_request = 0;
    let mut failures = Vec::new();
    let (reference, _) = drive_in_process(&mut NoTrace, &manager, &inputs, &mut next_request)?;
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    for _ in 0..REPEATS {
        untraced_s.push(drive_in_process(&mut NoTrace, &manager, &inputs, &mut next_request)?.1);
        let mut scratch = Recorder::default();
        traced_s.push(drive_in_process(&mut scratch, &manager, &inputs, &mut next_request)?.1);
    }

    let mut recorder = Recorder::default();
    let mut block = InProcess::default();
    let mut snapshot_us = Vec::new();
    let build_span = if kind.warm() { "session.build_warm" } else { "session.build" };
    for (i, input) in inputs.iter().enumerate() {
        let request = i as u64;
        // Built before the manager's session: a warm shadow then resolves
        // the donor the manager is about to (a partition's store entry is
        // only rewritten by its own session's close).
        let strategy = input.spec.strategy.name();
        let mut shadow = recorder.span(build_span, None, request, strategy, |_, _| {
            shadow_session(&input.spec, store_handle)
        })?;
        drive_one(&mut recorder, &manager, input, &mut next_request, &mut block)?;
        let expected = recorder.span("shadow.session", None, request, "", |t, me| {
            shadow_history(t, me, request, &mut shadow, input)
        })?;
        if !same_bits(&expected, &block.histories[i]) {
            failures.push(format!("session {i}: manager history differs from the shadow session"));
        }
        let t = Instant::now();
        let snap = shadow.snapshot();
        snapshot_us.push(t.elapsed().as_secs_f64() * 1e6);
        if snap.is_none() {
            failures.push(format!("session {i}: no snapshot after {} iterations", input.iters()));
        }
    }
    if !kind.warm() {
        // A stateless manager must answer every pass identically.
        let same = reference.histories.iter().zip(&block.histories).all(|(a, b)| same_bits(a, b));
        if !same {
            failures.push("in-process passes over the same inputs differ".into());
        }
    }

    let mut m = Metrics::default();
    let med = |name: &str, verb: Option<&str>| {
        let d = recorder.durations_us(name, verb);
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    };
    let iteration_verbs = ["get_proposal", "submit_observation"];
    let mut in_process_iter_us = 0.0;
    for (span, metric) in [
        ("wire.encode_request", "service.wire.encode_request_us"),
        ("wire.decode_request", "service.wire.decode_request_us"),
        ("wire.encode_response", "service.wire.encode_response_us"),
        ("wire.decode_response", "service.wire.decode_response_us"),
    ] {
        // Per iteration: the step's cost for both verbs together.
        let both: f64 = iteration_verbs.iter().map(|v| med(span, Some(v))).sum();
        m.set(metric, both);
        in_process_iter_us += both;
    }
    for verb in ["create_session", "get_proposal", "submit_observation", "close_session"] {
        m.set(&format!("service.handle.{verb}_us"), med("manager.handle", Some(verb)));
    }
    let handle_iter: f64 = iteration_verbs.iter().map(|v| med("manager.handle", Some(v))).sum();
    in_process_iter_us += handle_iter;
    let core_iter = med("session.propose", None) + med("session.observe", None);
    m.set("service.shard_hop_us", handle_iter - core_iter);
    m.set("service.wire.bytes_per_iter", block.iteration_bytes as f64 / block.iterations as f64);
    m.set("core.observe_us", med("session.observe", None));
    if kind.warm() {
        m.set("core.session_build_warm_us", med("session.build_warm", None));
        m.set("core.snapshot_us", median(&snapshot_us));
        if let Some(store) = store_handle {
            // What one warm `create_session` walks through.
            let scanned = store.entries().map_err(|e| e.to_string())?.len();
            m.set("store.entries_scanned_per_create", scanned as f64);
        }
    } else {
        m.set("core.session_build_us", med("session.build", None));
    }
    propose_metrics(kind, &recorder, &inputs, &mut m);
    m.set("trace.coverage_pct", recorder.coverage_pct("iteration").unwrap_or(0.0));
    m.set("trace.overhead_pct", 100.0 * (median(&traced_s) / median(&untraced_s) - 1.0));
    m.set("trace.spans", recorder.spans().len() as f64);
    Ok(Traced { recorder, metrics: m, failures, in_process_iter_us })
}

/// Median over sessions of the `h`-th propose of each (its cost at
/// history length `h`); `None` where no session got that far.
fn propose_at(per_session: &[Vec<f64>], h: usize) -> Option<f64> {
    let at: Vec<f64> = per_session.iter().filter_map(|p| p.get(h).copied()).collect();
    (!at.is_empty()).then(|| median(&at))
}

/// History lengths `core.propose_us.<gp strategy>.h*` is read at.
const PROPOSE_HISTORIES: [usize; 3] = [8, 32, 126];

/// `core.propose_us.*` from the shadow pass: per strategy for the cheap
/// ones, per history length for GP-discontinuous.
fn propose_metrics(kind: Kind, recorder: &Recorder, inputs: &[SessionInput], m: &mut Metrics) {
    // Shadow `session.propose` spans in order, grouped by shadow session.
    let mut per_session: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    for span in recorder.spans().iter().filter(|s| s.name == "session.propose") {
        per_session[span.request as usize].push(span.duration_us());
    }
    match kind {
        Kind::TuneGp128 | Kind::WarmStoreMix => {
            for h in PROPOSE_HISTORIES {
                if let Some(us) = propose_at(&per_session, h) {
                    m.set(&format!("core.propose_us.gp-disc.h{h}"), us);
                }
            }
        }
        Kind::TuneCheapShort => {
            for (strategy, slug) in
                gen::CHEAP_STRATEGIES.iter().zip(["ucb", "dc", "right-left", "brent"])
            {
                let all: Vec<f64> = inputs
                    .iter()
                    .zip(&per_session)
                    .filter(|(input, _)| input.spec.strategy == *strategy)
                    .flat_map(|(_, p)| p.iter().copied())
                    .collect();
                if !all.is_empty() {
                    m.set(&format!("core.propose_us.{slug}"), median(&all));
                }
            }
        }
    }
}

/// `core.propose_us.gp-ucb.*` and `.gp-disc.*` for `replay_matrix`: the
/// two GP strategies on bare sessions over 128-node inputs.
pub fn propose_profile(seed: u64, recorder: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
    let kinds = [(StrategyKind::GpUcb, "gp-ucb"), (StrategyKind::GpDiscontinuous, "gp-disc")];
    for (kind, slug) in kinds {
        let mut per_session = Vec::new();
        for (i, mut input) in gen::tune_gp_128(seed, 2).into_iter().enumerate() {
            input.spec.strategy = kind;
            let mut session = shadow_session(&input.spec, None)?;
            let first = recorder.spans().len();
            let request = i as u64;
            recorder.span("shadow.session", None, request, kind.name(), |t, me| {
                shadow_history(t, me, request, &mut session, &input)
            })?;
            per_session.push(
                recorder.spans()[first..]
                    .iter()
                    .filter(|s| s.name == "session.propose")
                    .map(|s| s.duration_us())
                    .collect(),
            );
        }
        for h in PROPOSE_HISTORIES {
            if let Some(us) = propose_at(&per_session, h) {
                m.set(&format!("core.propose_us.{slug}.h{h}"), us);
            }
        }
    }
    Ok(())
}
