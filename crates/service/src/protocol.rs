//! The wire protocol: length-prefixed JSON frames and the typed
//! request/response vocabulary.
//!
//! # Framing
//!
//! Every message is one frame: a 4-byte big-endian unsigned length
//! followed by exactly that many bytes of UTF-8 JSON (one document, no
//! trailing newline). Frames longer than [`MAX_FRAME`] are rejected
//! before any payload is read. A peer that closes the socket between
//! frames produces a clean end-of-stream ([`read_frame`] returns
//! `Ok(None)`); a close mid-frame is an I/O error.
//!
//! A frame whose payload is not valid JSON, or valid JSON that is not a
//! known message, is answered with an [`ErrorCode::MalformedFrame`] /
//! [`ErrorCode::BadRequest`] reply **on the same connection** — one bad
//! frame never kills the conversation, because the length prefix keeps
//! the stream in sync. Only an oversized length (which makes resync
//! impossible) closes the connection.
//!
//! # Vocabulary
//!
//! Requests ([`Request`]) and responses ([`Response`]) serialize as JSON
//! objects whose `type` field names the variant in `snake_case`. Strategy
//! names travel as their canonical [`StrategyKind`] `Display` spelling and
//! are parsed with its [`FromStr`](std::str::FromStr) — the registry in
//! `adaphet-core` is the single source of truth, aliases included.

use adaphet_analysis::Json;
use adaphet_core::{ActionSpace, PosteriorPoint, PosteriorSnapshot, StrategyKind};
use adaphet_metrics::json_escape;
use std::io::{self, Read, Write};

/// Hard cap on one frame's payload size (1 MiB).
///
/// Every legitimate message is far below this; a larger declared length
/// means a corrupted or hostile stream, and since the length prefix is
/// the only resynchronization point, the connection is closed.
pub const MAX_FRAME: usize = 1 << 20;

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME ({MAX_FRAME})", bytes.len()),
        ));
    }
    // One write per frame: a prefix and a payload written apart are the
    // write-write-read pattern that Nagle's algorithm and delayed ACKs
    // stall on an unbuffered socket.
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame.
///
/// Returns `Ok(None)` on a clean end-of-stream (the peer closed between
/// frames). An oversized declared length is an `InvalidData` error — the
/// stream cannot be resynchronized and must be dropped.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    // Distinguish "closed between frames" from "closed mid-prefix".
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed inside a frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("declared frame length {len} exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Everything needed to create a session over the wire — the protocol
/// mirror of the typed `TunerDriver::builder` configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Strategy, by canonical registry name.
    pub strategy: StrategyKind,
    /// Seed for stochastic strategies.
    pub seed: u64,
    /// Cluster size `N` (actions are `1..=N`).
    pub max_nodes: usize,
    /// Homogeneous groups as inclusive 1-based `(first, last)` ranges;
    /// empty means one group covering everything.
    pub groups: Vec<(usize, usize)>,
    /// Optional `LP(n)` lower-bound curve, one value per action.
    pub lp: Option<Vec<f64>>,
    /// Advertised iteration budget (the service never enforces it).
    pub iters: Option<usize>,
    /// Best-known duration, so telemetry carries regret.
    pub best_known: Option<f64>,
    /// Best action for [`StrategyKind::Oracle`].
    pub oracle_best: Option<usize>,
    /// Whether to run the standard resilience policy (timeouts, outlier
    /// fences, retries) instead of the everything-off default.
    pub resilience: bool,
    /// Per-session cap on in-flight proposals (`None` = server default).
    pub max_in_flight: Option<usize>,
    /// Warm-start opt-in: the minimum platform-signature similarity (in
    /// `[0, 1]`) a snapshot in the daemon's surrogate store must reach to
    /// seed this session. `None` (or an absent wire field — old clients
    /// keep working) is a cold start; so is a daemon running without
    /// `--store-dir` or a store with no qualifying snapshot.
    pub warm_start: Option<f64>,
}

impl SessionSpec {
    /// A minimal spec: `strategy` with `seed` over `1..=max_nodes`.
    pub fn new(strategy: StrategyKind, seed: u64, max_nodes: usize) -> Self {
        SessionSpec {
            strategy,
            seed,
            max_nodes,
            groups: Vec::new(),
            lp: None,
            iters: None,
            best_known: None,
            oracle_best: None,
            resilience: false,
            max_in_flight: None,
            warm_start: None,
        }
    }

    /// Validate and build the [`ActionSpace`] this spec describes.
    ///
    /// The wire layer must never feed unvalidated input to
    /// [`ActionSpace::new`] (which panics on bad structure), so the
    /// partition and LP-length checks are re-done here as `Err`s.
    pub fn space(&self) -> Result<ActionSpace, String> {
        if self.max_nodes == 0 {
            return Err("max_nodes must be at least 1".into());
        }
        if !self.groups.is_empty() {
            let mut expect = 1usize;
            for &(lo, hi) in &self.groups {
                if lo != expect || hi < lo || hi > self.max_nodes {
                    return Err(format!(
                        "groups must partition 1..={} contiguously (bad range {lo}..={hi})",
                        self.max_nodes
                    ));
                }
                expect = hi + 1;
            }
            if expect != self.max_nodes + 1 {
                return Err(format!("groups cover 1..={} of 1..={}", expect - 1, self.max_nodes));
            }
        }
        if let Some(lp) = &self.lp {
            if lp.len() != self.max_nodes {
                return Err(format!(
                    "lp curve has {} values for {} actions",
                    lp.len(),
                    self.max_nodes
                ));
            }
        }
        if self.strategy == StrategyKind::Oracle && self.oracle_best.is_none() {
            return Err("oracle strategy needs oracle_best".into());
        }
        Ok(ActionSpace::new(self.max_nodes, self.groups.clone(), self.lp.clone()))
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create a tuning session from a typed spec.
    CreateSession(SessionSpec),
    /// Ask the session's strategy for the next action (opens a ticket).
    GetProposal {
        /// Target session id.
        session: u64,
    },
    /// Resolve a ticket with its measured duration.
    SubmitObservation {
        /// Target session id.
        session: u64,
        /// The ticket being resolved.
        ticket: u64,
        /// Measured iteration duration in seconds.
        duration: f64,
    },
    /// Fetch the strategy's current posterior snapshot (PR 5 semantics).
    GetPosterior {
        /// Target session id.
        session: u64,
    },
    /// Close a session, returning its final history.
    CloseSession {
        /// Target session id.
        session: u64,
    },
    /// Fetch the service-wide observability snapshot (works while
    /// draining — watching a drain is half the point).
    GetStats,
    /// Fetch one session's recent lifecycle events and ledger state.
    Inspect {
        /// Target session id.
        session: u64,
    },
    /// Fetch one session's convergence-health report (folded state plus
    /// the raw signals behind it).
    GetHealth {
        /// Target session id.
        session: u64,
    },
    /// Liveness probe; the reply carries daemon version and uptime.
    Ping,
    /// Ask the daemon to stop accepting connections and drain.
    Shutdown,
}

/// Latency summary of one protocol verb, derived from the service's
/// log-bucketed latency histograms. Quantiles are bucket-interpolated
/// estimates in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct VerbStats {
    /// Verb name (`"get_proposal"`, `"submit_observation"`, …).
    pub verb: String,
    /// Requests answered.
    pub count: u64,
    /// Median latency estimate (seconds).
    pub p50: f64,
    /// 95th-percentile latency estimate (seconds).
    pub p95: f64,
    /// 99th-percentile latency estimate (seconds).
    pub p99: f64,
}

/// Live state of one shard worker.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index (sessions are pinned to `id % workers`).
    pub shard: usize,
    /// Sessions currently registered on this shard.
    pub sessions: u64,
    /// Jobs sitting in the shard queue right now.
    pub queue_depth: u64,
}

/// The service-wide observability snapshot answered to [`Request::GetStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Daemon crate version.
    pub version: String,
    /// Monotonic seconds since the session manager started.
    pub uptime_s: f64,
    /// Whether the daemon is draining (refusing new work).
    pub draining: bool,
    /// Sessions currently registered.
    pub sessions_live: u64,
    /// Sessions created over the daemon's lifetime.
    pub sessions_created: u64,
    /// Sessions closed by clients.
    pub sessions_closed: u64,
    /// Sessions evicted by the idle sweeper.
    pub sessions_evicted: u64,
    /// Sessions flushed by the graceful drain at shutdown.
    pub sessions_drained: u64,
    /// Proposal tickets currently open across all sessions.
    pub in_flight: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Requests handled (all verbs).
    pub requests: u64,
    /// Malformed frames answered with a typed error.
    pub malformed: u64,
    /// Error responses issued.
    pub errors: u64,
    /// Per-verb latency summaries, verb-name-sorted.
    pub verbs: Vec<VerbStats>,
    /// Per-shard queue depth and session count, shard-ordered.
    pub shards: Vec<ShardStats>,
}

/// One entry of a session's bounded lifecycle ring, answered to
/// [`Request::Inspect`].
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEvent {
    /// Monotone per-session sequence number (gaps mean evicted entries).
    pub seq: u64,
    /// Seconds since the manager started, at event time.
    pub t_s: f64,
    /// Event kind: `created`, `propose`, `recorded`, `retry`, `error`.
    pub kind: String,
    /// Ticket involved, if any.
    pub ticket: Option<u64>,
    /// Action involved, if any.
    pub action: Option<usize>,
    /// Iteration involved, if any.
    pub iteration: Option<usize>,
    /// Observed duration, for `recorded` events.
    pub duration: Option<f64>,
}

/// One session's convergence-health report, answered to
/// [`Request::GetHealth`] — the wire mirror of
/// [`adaphet_core::HealthReport`]. Field order and the `state` enum
/// spellings (`"ok"`, `"warn"`, `"stalled"`, `"diverging"`) are pinned
/// by the golden test in `tests/health_schema.rs`.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthInfo {
    /// Owning session.
    pub session: u64,
    /// Folded state: `ok`, `warn`, `stalled` or `diverging`.
    pub state: String,
    /// Warn reason slug, when the state is `warn`.
    pub reason: Option<String>,
    /// Observations recorded so far.
    pub records: usize,
    /// Records since the session best last improved.
    pub since_best: usize,
    /// Normalized duration slope over the sliding window (`null` until
    /// the window is full).
    pub regret_slope: Option<f64>,
    /// Retry verdicts inside the window.
    pub retries_window: usize,
    /// Fault-annotated records inside the window.
    pub faults_window: usize,
    /// Posterior sd ceiling from the last snapshot, if any.
    pub posterior_sd_max: Option<f64>,
    /// Gap between the session best and the LP bound minimum, if any.
    pub lp_gap: Option<f64>,
    /// First record (1-based) inside the best-known band, if reached.
    pub band_record: Option<usize>,
    /// Whether the session's surrogate was warm-started.
    pub warm_started: bool,
    /// Published health-state transitions so far.
    pub transitions: u64,
}

impl HealthInfo {
    /// The report's JSON fields without the enclosing braces or a
    /// `type` tag — shared by the `health` wire frame and the sidecar's
    /// `/health` endpoint so both expose the identical pinned schema.
    pub fn json_fields(&self) -> String {
        format!(
            "\"session\":{},\"state\":\"{}\",\"reason\":{},\"records\":{},\"since_best\":{},\
             \"regret_slope\":{},\"retries_window\":{},\"faults_window\":{},\
             \"posterior_sd_max\":{},\"lp_gap\":{},\"band_record\":{},\"warm_started\":{},\
             \"transitions\":{}",
            self.session,
            json_escape(&self.state),
            self.reason.as_deref().map_or("null".into(), |r| format!("\"{}\"", json_escape(r))),
            self.records,
            self.since_best,
            jopt_num(self.regret_slope),
            self.retries_window,
            self.faults_window,
            jopt_num(self.posterior_sd_max),
            jopt_num(self.lp_gap),
            jopt_usize(self.band_record),
            self.warm_started,
            self.transitions,
        )
    }
}

/// Machine-readable error category of an [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame payload was not valid JSON.
    MalformedFrame,
    /// Valid JSON, but not a well-formed request (unknown type, missing
    /// or invalid fields, bad strategy name, bad space structure).
    BadRequest,
    /// The session id is not (or no longer) registered.
    UnknownSession,
    /// The ticket is not in the session's pending-action ledger.
    UnknownTicket,
    /// The session's in-flight proposal cap is reached.
    TooManyInFlight,
    /// The daemon is draining and takes no new work.
    ShuttingDown,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedFrame => "malformed-frame",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownSession => "unknown-session",
            ErrorCode::UnknownTicket => "unknown-ticket",
            ErrorCode::TooManyInFlight => "too-many-in-flight",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parse the wire spelling.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "malformed-frame" => ErrorCode::MalformedFrame,
            "bad-request" => ErrorCode::BadRequest,
            "unknown-session" => ErrorCode::UnknownSession,
            "unknown-ticket" => ErrorCode::UnknownTicket,
            "too-many-in-flight" => ErrorCode::TooManyInFlight,
            "shutting-down" => ErrorCode::ShuttingDown,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A session was created.
    SessionCreated {
        /// The new session's id.
        session: u64,
    },
    /// A proposal was issued; measure `action` and submit under `ticket`.
    Proposal {
        /// Owning session.
        session: u64,
        /// Ledger ticket for the in-flight proposal.
        ticket: u64,
        /// 0-based iteration index.
        iteration: usize,
        /// The action (node count) to measure.
        action: usize,
    },
    /// An observation was accepted and recorded; the ticket is closed.
    Recorded {
        /// Owning session.
        session: u64,
        /// Iteration index the observation landed on.
        iteration: usize,
        /// The measured action.
        action: usize,
        /// The recorded duration.
        duration: f64,
        /// Session cumulative time after recording.
        cumulative_time: f64,
    },
    /// The resilience policy wants the measurement re-taken; the ticket
    /// stays open.
    Retry {
        /// Owning session.
        session: u64,
        /// The still-open ticket.
        ticket: u64,
        /// The action to re-measure.
        action: usize,
        /// 1-based retry attempt count.
        attempt: usize,
    },
    /// The strategy's posterior over the live space (`points` is `None`
    /// when the strategy has no surrogate or not enough data yet).
    Posterior {
        /// Owning session.
        session: u64,
        /// One point per action, ascending — or `None`.
        points: Option<Vec<PosteriorPoint>>,
    },
    /// A session was closed; its final state is returned.
    Closed {
        /// The closed session's id.
        session: u64,
        /// Iterations proposed over the session's lifetime.
        iterations: usize,
        /// Sum of all recorded durations.
        total_time: f64,
        /// Action with the lowest mean observed duration, if any.
        best_action: Option<usize>,
        /// Full `(action, duration)` history, in iteration order.
        history: Vec<(usize, f64)>,
    },
    /// The service-wide observability snapshot.
    Stats(StatsSnapshot),
    /// One session's live state and recent lifecycle events.
    Inspected {
        /// The inspected session's id.
        session: u64,
        /// Strategy, by canonical registry name.
        strategy: String,
        /// Iterations proposed so far.
        iterations: usize,
        /// Sum of all recorded durations so far.
        cumulative_time: f64,
        /// Open ledger entries as `(ticket, action)`, in issue order.
        pending: Vec<(u64, usize)>,
        /// Recent lifecycle events, oldest first (bounded ring).
        events: Vec<SessionEvent>,
        /// Events the bounded ring has already evicted (0 until it
        /// wraps) — a non-zero value means `events` is a truncated tail.
        events_dropped: u64,
    },
    /// One session's convergence-health report.
    Health(HealthInfo),
    /// Liveness answer, carrying the daemon's identity.
    Pong {
        /// Daemon crate version (empty when talking to a pre-stats peer).
        version: String,
        /// Monotonic seconds since the daemon's manager started.
        uptime_s: f64,
    },
    /// The daemon acknowledged a shutdown request and is draining.
    ShuttingDown,
    /// The request failed.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// One-line human diagnosis.
        message: String,
    },
}

fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn jopt_num(x: Option<f64>) -> String {
    x.map_or("null".into(), jnum)
}

fn jopt_usize(x: Option<usize>) -> String {
    x.map_or("null".into(), |v| v.to_string())
}

impl Request {
    /// Serialize to the one-line JSON wire form.
    pub fn to_json(&self) -> String {
        match self {
            Request::CreateSession(spec) => {
                let groups = spec
                    .groups
                    .iter()
                    .map(|&(lo, hi)| format!("[{lo},{hi}]"))
                    .collect::<Vec<_>>()
                    .join(",");
                let lp = match &spec.lp {
                    None => "null".to_string(),
                    Some(v) => {
                        format!("[{}]", v.iter().map(|&x| jnum(x)).collect::<Vec<_>>().join(","))
                    }
                };
                format!(
                    "{{\"type\":\"create_session\",\"strategy\":\"{}\",\"seed\":{},\
                     \"max_nodes\":{},\"groups\":[{}],\"lp\":{},\"iters\":{},\
                     \"best_known\":{},\"oracle_best\":{},\"resilience\":\"{}\",\
                     \"max_in_flight\":{},\"warm_start\":{}}}",
                    json_escape(&spec.strategy.to_string()),
                    spec.seed,
                    spec.max_nodes,
                    groups,
                    lp,
                    jopt_usize(spec.iters),
                    jopt_num(spec.best_known),
                    jopt_usize(spec.oracle_best),
                    if spec.resilience { "standard" } else { "off" },
                    jopt_usize(spec.max_in_flight),
                    jopt_num(spec.warm_start),
                )
            }
            Request::GetProposal { session } => {
                format!("{{\"type\":\"get_proposal\",\"session\":{session}}}")
            }
            Request::SubmitObservation { session, ticket, duration } => format!(
                "{{\"type\":\"submit_observation\",\"session\":{session},\"ticket\":{ticket},\
                 \"duration\":{}}}",
                jnum(*duration)
            ),
            Request::GetPosterior { session } => {
                format!("{{\"type\":\"get_posterior\",\"session\":{session}}}")
            }
            Request::CloseSession { session } => {
                format!("{{\"type\":\"close_session\",\"session\":{session}}}")
            }
            Request::GetStats => "{\"type\":\"get_stats\"}".to_string(),
            Request::Inspect { session } => {
                format!("{{\"type\":\"inspect\",\"session\":{session}}}")
            }
            Request::GetHealth { session } => {
                format!("{{\"type\":\"get_health\",\"session\":{session}}}")
            }
            Request::Ping => "{\"type\":\"ping\"}".to_string(),
            Request::Shutdown => "{\"type\":\"shutdown\"}".to_string(),
        }
    }

    /// Parse a request from its JSON document.
    pub fn from_json(v: &Json) -> Result<Request, String> {
        let typ = v.get("type").and_then(Json::as_str).ok_or("missing 'type'")?;
        let session = |v: &Json| -> Result<u64, String> {
            v.get("session")
                .and_then(Json::as_f64)
                .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                .map(|x| x as u64)
                .ok_or_else(|| "missing or invalid 'session'".to_string())
        };
        Ok(match typ {
            "create_session" => {
                let strategy_name =
                    v.get("strategy").and_then(Json::as_str).ok_or("missing 'strategy'")?;
                let strategy: StrategyKind = strategy_name.parse().map_err(|e| format!("{e}"))?;
                let max_nodes =
                    v.get("max_nodes").and_then(Json::as_usize).ok_or("missing 'max_nodes'")?;
                let groups = match v.get("groups").and_then(Json::as_arr) {
                    None => Vec::new(),
                    Some(items) => items
                        .iter()
                        .map(|g| {
                            let pair = g.as_arr().filter(|a| a.len() == 2);
                            match pair {
                                Some(a) => Ok((
                                    a[0].as_usize().ok_or("bad group bound")?,
                                    a[1].as_usize().ok_or("bad group bound")?,
                                )),
                                None => Err("groups must be [lo,hi] pairs".to_string()),
                            }
                        })
                        .collect::<Result<Vec<_>, String>>()?,
                };
                let lp = match v.get("lp") {
                    None | Some(Json::Null) => None,
                    Some(arr) => Some(
                        arr.as_arr()
                            .ok_or("'lp' must be an array")?
                            .iter()
                            .map(|x| x.as_f64().ok_or_else(|| "non-numeric lp value".to_string()))
                            .collect::<Result<Vec<_>, String>>()?,
                    ),
                };
                let resilience = match v.get("resilience").and_then(Json::as_str) {
                    None | Some("off") => false,
                    Some("standard") => true,
                    Some(other) => {
                        return Err(format!(
                            "resilience must be \"standard\" or \"off\", got {other:?}"
                        ))
                    }
                };
                // Absent or null = cold start, so specs from clients that
                // predate warm-starting parse unchanged.
                let warm_start = match v.get("warm_start") {
                    None | Some(Json::Null) => None,
                    Some(x) => match x.as_f64() {
                        Some(m) if (0.0..=1.0).contains(&m) => Some(m),
                        _ => return Err("warm_start must be a similarity in [0, 1]".to_string()),
                    },
                };
                Request::CreateSession(SessionSpec {
                    strategy,
                    seed: v.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                    max_nodes,
                    groups,
                    lp,
                    iters: v.get("iters").and_then(Json::as_usize),
                    best_known: v.get("best_known").and_then(Json::as_f64),
                    oracle_best: v.get("oracle_best").and_then(Json::as_usize),
                    resilience,
                    max_in_flight: v.get("max_in_flight").and_then(Json::as_usize),
                    warm_start,
                })
            }
            "get_proposal" => Request::GetProposal { session: session(v)? },
            "submit_observation" => Request::SubmitObservation {
                session: session(v)?,
                ticket: v
                    .get("ticket")
                    .and_then(Json::as_f64)
                    .filter(|x| *x >= 0.0 && x.fract() == 0.0)
                    .map(|x| x as u64)
                    .ok_or("missing or invalid 'ticket'")?,
                duration: v.get("duration").and_then(Json::as_f64).ok_or("missing 'duration'")?,
            },
            "get_posterior" => Request::GetPosterior { session: session(v)? },
            "close_session" => Request::CloseSession { session: session(v)? },
            "get_stats" => Request::GetStats,
            "inspect" => Request::Inspect { session: session(v)? },
            "get_health" => Request::GetHealth { session: session(v)? },
            "ping" => Request::Ping,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown request type {other:?}")),
        })
    }
}

impl Response {
    /// Serialize to the one-line JSON wire form.
    pub fn to_json(&self) -> String {
        match self {
            Response::SessionCreated { session } => {
                format!("{{\"type\":\"session_created\",\"session\":{session}}}")
            }
            Response::Proposal { session, ticket, iteration, action } => format!(
                "{{\"type\":\"proposal\",\"session\":{session},\"ticket\":{ticket},\
                 \"iteration\":{iteration},\"action\":{action}}}"
            ),
            Response::Recorded { session, iteration, action, duration, cumulative_time } => {
                format!(
                    "{{\"type\":\"recorded\",\"session\":{session},\"iteration\":{iteration},\
                     \"action\":{action},\"duration\":{},\"cumulative_time\":{}}}",
                    jnum(*duration),
                    jnum(*cumulative_time)
                )
            }
            Response::Retry { session, ticket, action, attempt } => format!(
                "{{\"type\":\"retry\",\"session\":{session},\"ticket\":{ticket},\
                 \"action\":{action},\"attempt\":{attempt}}}"
            ),
            Response::Posterior { session, points } => {
                let body = match points {
                    None => "null".to_string(),
                    Some(ps) => {
                        let items = ps
                            .iter()
                            .map(|p| {
                                format!(
                                    "{{\"action\":{},\"mean\":{},\"sd\":{},\"lp_bound\":{},\
                                     \"excluded\":{}}}",
                                    p.action,
                                    jnum(p.mean),
                                    jnum(p.sd),
                                    jopt_num(p.lp_bound),
                                    p.excluded
                                )
                            })
                            .collect::<Vec<_>>()
                            .join(",");
                        format!("[{items}]")
                    }
                };
                format!("{{\"type\":\"posterior\",\"session\":{session},\"points\":{body}}}")
            }
            Response::Closed { session, iterations, total_time, best_action, history } => {
                let hist = history
                    .iter()
                    .map(|&(a, y)| format!("[{a},{}]", jnum(y)))
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"type\":\"closed\",\"session\":{session},\"iterations\":{iterations},\
                     \"total_time\":{},\"best_action\":{},\"history\":[{hist}]}}",
                    jnum(*total_time),
                    jopt_usize(*best_action)
                )
            }
            Response::Stats(s) => {
                let verbs = s
                    .verbs
                    .iter()
                    .map(|v| {
                        format!(
                            "{{\"verb\":\"{}\",\"count\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                            json_escape(&v.verb),
                            v.count,
                            jnum(v.p50),
                            jnum(v.p95),
                            jnum(v.p99)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                let shards = s
                    .shards
                    .iter()
                    .map(|sh| {
                        format!(
                            "{{\"shard\":{},\"sessions\":{},\"queue_depth\":{}}}",
                            sh.shard, sh.sessions, sh.queue_depth
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"type\":\"stats\",\"version\":\"{}\",\"uptime_s\":{},\
                     \"draining\":{},\"sessions\":{{\"live\":{},\"created\":{},\"closed\":{},\
                     \"evicted\":{},\"drained\":{}}},\"in_flight\":{},\"connections\":{},\
                     \"requests\":{},\"malformed\":{},\"errors\":{},\"verbs\":[{verbs}],\
                     \"shards\":[{shards}]}}",
                    json_escape(&s.version),
                    jnum(s.uptime_s),
                    s.draining,
                    s.sessions_live,
                    s.sessions_created,
                    s.sessions_closed,
                    s.sessions_evicted,
                    s.sessions_drained,
                    s.in_flight,
                    s.connections,
                    s.requests,
                    s.malformed,
                    s.errors,
                )
            }
            Response::Inspected {
                session,
                strategy,
                iterations,
                cumulative_time,
                pending,
                events,
                events_dropped,
            } => {
                let pend = pending
                    .iter()
                    .map(|&(t, a)| format!("[{t},{a}]"))
                    .collect::<Vec<_>>()
                    .join(",");
                let evs = events
                    .iter()
                    .map(|e| {
                        format!(
                            "{{\"seq\":{},\"t_s\":{},\"kind\":\"{}\",\"ticket\":{},\
                             \"action\":{},\"iteration\":{},\"duration\":{}}}",
                            e.seq,
                            jnum(e.t_s),
                            json_escape(&e.kind),
                            e.ticket.map_or("null".into(), |t| t.to_string()),
                            jopt_usize(e.action),
                            jopt_usize(e.iteration),
                            jopt_num(e.duration)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "{{\"type\":\"inspected\",\"session\":{session},\"strategy\":\"{}\",\
                     \"iterations\":{iterations},\"cumulative_time\":{},\"pending\":[{pend}],\
                     \"events\":[{evs}],\"events_dropped\":{events_dropped}}}",
                    json_escape(strategy),
                    jnum(*cumulative_time)
                )
            }
            Response::Health(h) => {
                format!("{{\"type\":\"health\",{}}}", h.json_fields())
            }
            Response::Pong { version, uptime_s } => format!(
                "{{\"type\":\"pong\",\"version\":\"{}\",\"uptime_s\":{}}}",
                json_escape(version),
                jnum(*uptime_s)
            ),
            Response::ShuttingDown => "{\"type\":\"shutting_down\"}".to_string(),
            Response::Error { code, message } => format!(
                "{{\"type\":\"error\",\"code\":\"{}\",\"message\":\"{}\"}}",
                code.as_str(),
                json_escape(message)
            ),
        }
    }

    /// Parse a response from its JSON document.
    pub fn from_json(v: &Json) -> Result<Response, String> {
        let typ = v.get("type").and_then(Json::as_str).ok_or("missing 'type'")?;
        let num = |key: &str| v.get(key).and_then(Json::as_f64).ok_or(format!("missing '{key}'"));
        let int = |key: &str| num(key).map(|x| x as u64);
        let us = |key: &str| num(key).map(|x| x as usize);
        Ok(match typ {
            "session_created" => Response::SessionCreated { session: int("session")? },
            "proposal" => Response::Proposal {
                session: int("session")?,
                ticket: int("ticket")?,
                iteration: us("iteration")?,
                action: us("action")?,
            },
            "recorded" => Response::Recorded {
                session: int("session")?,
                iteration: us("iteration")?,
                action: us("action")?,
                duration: num("duration")?,
                cumulative_time: num("cumulative_time")?,
            },
            "retry" => Response::Retry {
                session: int("session")?,
                ticket: int("ticket")?,
                action: us("action")?,
                attempt: us("attempt")?,
            },
            "posterior" => {
                let points = match v.get("points") {
                    None | Some(Json::Null) => None,
                    Some(arr) => Some(
                        arr.as_arr()
                            .ok_or("'points' must be an array")?
                            .iter()
                            .map(|p| {
                                Ok(PosteriorPoint {
                                    action: p
                                        .get("action")
                                        .and_then(Json::as_usize)
                                        .ok_or("point without action")?,
                                    mean: p.get("mean").and_then(Json::as_f64).unwrap_or(f64::NAN),
                                    sd: p.get("sd").and_then(Json::as_f64).unwrap_or(f64::NAN),
                                    lp_bound: p.get("lp_bound").and_then(Json::as_f64),
                                    excluded: p
                                        .get("excluded")
                                        .and_then(Json::as_bool)
                                        .unwrap_or(false),
                                })
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                    ),
                };
                Response::Posterior { session: int("session")?, points }
            }
            "closed" => Response::Closed {
                session: int("session")?,
                iterations: us("iterations")?,
                total_time: num("total_time")?,
                best_action: v.get("best_action").and_then(Json::as_usize),
                history: v
                    .get("history")
                    .and_then(Json::as_arr)
                    .ok_or("missing 'history'")?
                    .iter()
                    .map(|pair| {
                        let a = pair.as_arr().filter(|a| a.len() == 2);
                        match a {
                            Some(a) => Ok((
                                a[0].as_usize().ok_or("bad history action")?,
                                a[1].as_f64().ok_or("bad history duration")?,
                            )),
                            None => Err("history entries must be [action,duration]".to_string()),
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?,
            },
            "stats" => {
                let sess = |key: &str| {
                    v.get("sessions").and_then(|s| s.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
                        as u64
                };
                let count = |key: &str| v.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
                let verbs = v
                    .get("verbs")
                    .and_then(Json::as_arr)
                    .map(|items| {
                        items
                            .iter()
                            .filter_map(|e| {
                                Some(VerbStats {
                                    verb: e.get("verb").and_then(Json::as_str)?.to_string(),
                                    count: e.get("count").and_then(Json::as_f64)? as u64,
                                    p50: e.get("p50").and_then(Json::as_f64).unwrap_or(0.0),
                                    p95: e.get("p95").and_then(Json::as_f64).unwrap_or(0.0),
                                    p99: e.get("p99").and_then(Json::as_f64).unwrap_or(0.0),
                                })
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                let shards = v
                    .get("shards")
                    .and_then(Json::as_arr)
                    .map(|items| {
                        items
                            .iter()
                            .filter_map(|e| {
                                Some(ShardStats {
                                    shard: e.get("shard").and_then(Json::as_usize)?,
                                    sessions: e.get("sessions").and_then(Json::as_f64)? as u64,
                                    queue_depth: e.get("queue_depth").and_then(Json::as_f64)?
                                        as u64,
                                })
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                Response::Stats(StatsSnapshot {
                    version: v
                        .get("version")
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    uptime_s: v.get("uptime_s").and_then(Json::as_f64).unwrap_or(0.0),
                    draining: v.get("draining").and_then(Json::as_bool).unwrap_or(false),
                    sessions_live: sess("live"),
                    sessions_created: sess("created"),
                    sessions_closed: sess("closed"),
                    sessions_evicted: sess("evicted"),
                    sessions_drained: sess("drained"),
                    in_flight: count("in_flight"),
                    connections: count("connections"),
                    requests: count("requests"),
                    malformed: count("malformed"),
                    errors: count("errors"),
                    verbs,
                    shards,
                })
            }
            "inspected" => Response::Inspected {
                session: int("session")?,
                strategy: v.get("strategy").and_then(Json::as_str).unwrap_or_default().to_string(),
                iterations: us("iterations")?,
                cumulative_time: num("cumulative_time")?,
                pending: v
                    .get("pending")
                    .and_then(Json::as_arr)
                    .ok_or("missing 'pending'")?
                    .iter()
                    .map(|pair| {
                        let a = pair.as_arr().filter(|a| a.len() == 2);
                        match a {
                            Some(a) => Ok((
                                a[0].as_f64().ok_or("bad pending ticket")? as u64,
                                a[1].as_usize().ok_or("bad pending action")?,
                            )),
                            None => Err("pending entries must be [ticket,action]".to_string()),
                        }
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                events: v
                    .get("events")
                    .and_then(Json::as_arr)
                    .ok_or("missing 'events'")?
                    .iter()
                    .map(|e| {
                        Ok(SessionEvent {
                            seq: e.get("seq").and_then(Json::as_f64).ok_or("event without seq")?
                                as u64,
                            t_s: e.get("t_s").and_then(Json::as_f64).unwrap_or(0.0),
                            kind: e
                                .get("kind")
                                .and_then(Json::as_str)
                                .ok_or("event without kind")?
                                .to_string(),
                            ticket: e.get("ticket").and_then(Json::as_f64).map(|x| x as u64),
                            action: e.get("action").and_then(Json::as_usize),
                            iteration: e.get("iteration").and_then(Json::as_usize),
                            duration: e.get("duration").and_then(Json::as_f64),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?,
                // Absent on frames from daemons that predate drop
                // accounting: nothing evicted is the only safe reading.
                events_dropped: match v.get("events_dropped") {
                    None | Some(Json::Null) => 0,
                    Some(x) => x
                        .as_f64()
                        .filter(|d| *d >= 0.0 && d.fract() == 0.0)
                        .ok_or("invalid 'events_dropped'")? as u64,
                },
            },
            "health" => Response::Health(HealthInfo {
                session: int("session")?,
                state: v.get("state").and_then(Json::as_str).ok_or("missing 'state'")?.to_string(),
                reason: match v.get("reason") {
                    None | Some(Json::Null) => None,
                    Some(x) => Some(x.as_str().ok_or("'reason' must be a string")?.to_string()),
                },
                records: us("records")?,
                since_best: us("since_best")?,
                regret_slope: v.get("regret_slope").and_then(Json::as_f64),
                retries_window: us("retries_window")?,
                faults_window: us("faults_window")?,
                posterior_sd_max: v.get("posterior_sd_max").and_then(Json::as_f64),
                lp_gap: v.get("lp_gap").and_then(Json::as_f64),
                band_record: v.get("band_record").and_then(Json::as_usize),
                warm_started: v.get("warm_started").and_then(Json::as_bool).unwrap_or(false),
                transitions: v.get("transitions").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            }),
            "pong" => Response::Pong {
                version: v.get("version").and_then(Json::as_str).unwrap_or_default().to_string(),
                uptime_s: v.get("uptime_s").and_then(Json::as_f64).unwrap_or(0.0),
            },
            "shutting_down" => Response::ShuttingDown,
            "error" => Response::Error {
                code: v
                    .get("code")
                    .and_then(Json::as_str)
                    .and_then(ErrorCode::parse)
                    .unwrap_or(ErrorCode::Internal),
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unspecified error")
                    .to_string(),
            },
            other => return Err(format!("unknown response type {other:?}")),
        })
    }
}

/// Build a full posterior response from a core snapshot.
pub fn posterior_response(session: u64, snap: Option<PosteriorSnapshot>) -> Response {
    Response::Posterior { session, points: snap.map(|s| s.points) }
}

/// Build a [`Response::Health`] from a session's core health report.
pub fn health_response(session: u64, report: &adaphet_core::HealthReport) -> Response {
    Response::Health(health_info(session, report))
}

/// Flatten a session's core health report into its wire mirror.
pub fn health_info(session: u64, report: &adaphet_core::HealthReport) -> HealthInfo {
    let s = &report.signals;
    HealthInfo {
        session,
        state: report.state.as_str().to_string(),
        reason: report.state.reason().map(str::to_string),
        records: s.records,
        since_best: s.since_best,
        regret_slope: s.regret_slope,
        retries_window: s.retries_window,
        faults_window: s.faults_window,
        posterior_sd_max: s.posterior_sd_max,
        lp_gap: s.lp_gap,
        band_record: s.band_record,
        warm_started: s.warm_started,
        transitions: report.transitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SessionSpec {
        SessionSpec {
            strategy: StrategyKind::GpDiscontinuous,
            seed: 7,
            max_nodes: 10,
            groups: vec![(1, 5), (6, 10)],
            lp: Some((1..=10).map(|n| 30.0 / n as f64).collect()),
            iters: Some(40),
            best_known: Some(5.5),
            oracle_best: None,
            resilience: true,
            max_in_flight: Some(4),
            warm_start: Some(0.8),
        }
    }

    fn round_trip_request(req: Request) {
        let j = req.to_json();
        let parsed = Request::from_json(&Json::parse(&j).unwrap()).unwrap();
        assert_eq!(parsed, req, "wire form: {j}");
    }

    fn round_trip_response(resp: Response) {
        let j = resp.to_json();
        let parsed = Response::from_json(&Json::parse(&j).unwrap()).unwrap();
        assert_eq!(parsed, resp, "wire form: {j}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::CreateSession(spec()));
        round_trip_request(Request::CreateSession(SessionSpec::new(StrategyKind::Ucb, 0, 3)));
        round_trip_request(Request::GetProposal { session: 12 });
        round_trip_request(Request::SubmitObservation { session: 12, ticket: 3, duration: 1.25 });
        round_trip_request(Request::GetPosterior { session: 12 });
        round_trip_request(Request::CloseSession { session: 12 });
        round_trip_request(Request::GetStats);
        round_trip_request(Request::Inspect { session: 12 });
        round_trip_request(Request::GetHealth { session: 12 });
        round_trip_request(Request::Ping);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn warm_start_field_is_backward_compatible() {
        // A spec from a client that predates warm-starting (no field at
        // all) parses to a cold start.
        let old = "{\"type\":\"create_session\",\"strategy\":\"UCB\",\"seed\":1,\"max_nodes\":4}";
        match Request::from_json(&Json::parse(old).unwrap()).unwrap() {
            Request::CreateSession(s) => assert_eq!(s.warm_start, None),
            other => panic!("{other:?}"),
        }
        // An explicit null likewise.
        let null = "{\"type\":\"create_session\",\"strategy\":\"UCB\",\"seed\":1,\
                     \"max_nodes\":4,\"warm_start\":null}";
        match Request::from_json(&Json::parse(null).unwrap()).unwrap() {
            Request::CreateSession(s) => assert_eq!(s.warm_start, None),
            other => panic!("{other:?}"),
        }
        // Out-of-range similarities are a typed parse error.
        let bad = "{\"type\":\"create_session\",\"strategy\":\"UCB\",\"seed\":1,\
                    \"max_nodes\":4,\"warm_start\":1.5}";
        assert!(Request::from_json(&Json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::SessionCreated { session: 5 });
        round_trip_response(Response::Proposal { session: 5, ticket: 0, iteration: 0, action: 7 });
        round_trip_response(Response::Recorded {
            session: 5,
            iteration: 3,
            action: 7,
            duration: 1.5,
            cumulative_time: 6.25,
        });
        round_trip_response(Response::Retry { session: 5, ticket: 2, action: 7, attempt: 1 });
        round_trip_response(Response::Posterior { session: 5, points: None });
        round_trip_response(Response::Posterior {
            session: 5,
            points: Some(vec![PosteriorPoint {
                action: 1,
                mean: 2.5,
                sd: 0.25,
                lp_bound: Some(1.5),
                excluded: true,
            }]),
        });
        round_trip_response(Response::Closed {
            session: 5,
            iterations: 40,
            total_time: 123.5,
            best_action: Some(6),
            history: vec![(10, 3.25), (6, 2.0)],
        });
        round_trip_response(Response::Stats(StatsSnapshot {
            version: "0.1.0".into(),
            uptime_s: 12.5,
            draining: true,
            sessions_live: 3,
            sessions_created: 8,
            sessions_closed: 4,
            sessions_evicted: 1,
            sessions_drained: 2,
            in_flight: 5,
            connections: 9,
            requests: 120,
            malformed: 1,
            errors: 2,
            verbs: vec![VerbStats {
                verb: "get_proposal".into(),
                count: 40,
                p50: 0.001,
                p95: 0.01,
                p99: 0.05,
            }],
            shards: vec![
                ShardStats { shard: 0, sessions: 2, queue_depth: 1 },
                ShardStats { shard: 1, sessions: 1, queue_depth: 0 },
            ],
        }));
        round_trip_response(Response::Stats(StatsSnapshot::default()));
        round_trip_response(Response::Inspected {
            session: 5,
            strategy: "gp-discontinuous".into(),
            iterations: 7,
            cumulative_time: 12.25,
            pending: vec![(3, 8), (4, 2)],
            events: vec![
                SessionEvent {
                    seq: 0,
                    t_s: 0.5,
                    kind: "created".into(),
                    ticket: None,
                    action: None,
                    iteration: None,
                    duration: None,
                },
                SessionEvent {
                    seq: 1,
                    t_s: 0.75,
                    kind: "recorded".into(),
                    ticket: Some(0),
                    action: Some(8),
                    iteration: Some(0),
                    duration: Some(1.5),
                },
            ],
            events_dropped: 17,
        });
        round_trip_response(Response::Health(HealthInfo {
            session: 5,
            state: "warn".into(),
            reason: Some("fault-pressure".into()),
            records: 20,
            since_best: 4,
            regret_slope: Some(-0.015),
            retries_window: 1,
            faults_window: 2,
            posterior_sd_max: Some(0.75),
            lp_gap: Some(2.5),
            band_record: Some(9),
            warm_started: true,
            transitions: 3,
        }));
        round_trip_response(Response::Health(HealthInfo {
            session: 0,
            state: "ok".into(),
            reason: None,
            records: 0,
            since_best: 0,
            regret_slope: None,
            retries_window: 0,
            faults_window: 0,
            posterior_sd_max: None,
            lp_gap: None,
            band_record: None,
            warm_started: false,
            transitions: 0,
        }));
        round_trip_response(Response::Pong { version: "0.1.0".into(), uptime_s: 3.5 });
        round_trip_response(Response::ShuttingDown);
        round_trip_response(Response::Error {
            code: ErrorCode::UnknownSession,
            message: "session 99 is not registered".into(),
        });
    }

    #[test]
    fn events_dropped_field_is_backward_compatible() {
        // Daemons that predate drop accounting omit the field; reading
        // that frame must not fail and must report zero drops.
        let old = "{\"type\":\"inspected\",\"session\":5,\"strategy\":\"ucb\",\
                   \"iterations\":2,\"cumulative_time\":1.5,\"pending\":[],\"events\":[]}";
        match Response::from_json(&Json::parse(old).unwrap()).unwrap() {
            Response::Inspected { events_dropped, .. } => assert_eq!(events_dropped, 0),
            other => panic!("unexpected parse: {other:?}"),
        }
        // Explicit null is treated the same way.
        let nulled = "{\"type\":\"inspected\",\"session\":5,\"strategy\":\"ucb\",\
                      \"iterations\":2,\"cumulative_time\":1.5,\"pending\":[],\"events\":[],\
                      \"events_dropped\":null}";
        match Response::from_json(&Json::parse(nulled).unwrap()).unwrap() {
            Response::Inspected { events_dropped, .. } => assert_eq!(events_dropped, 0),
            other => panic!("unexpected parse: {other:?}"),
        }
        // Negative or fractional counts are a typed parse error.
        let bad = "{\"type\":\"inspected\",\"session\":5,\"strategy\":\"ucb\",\
                   \"iterations\":2,\"cumulative_time\":1.5,\"pending\":[],\"events\":[],\
                   \"events_dropped\":-3}";
        assert!(Response::from_json(&Json::parse(bad).unwrap()).is_err());
    }

    #[test]
    fn bare_pong_from_an_older_daemon_still_parses() {
        // Pre-stats daemons answered `{"type":"pong"}`; the fields default.
        let parsed = Response::from_json(&Json::parse("{\"type\":\"pong\"}").unwrap()).unwrap();
        assert_eq!(parsed, Response::Pong { version: String::new(), uptime_s: 0.0 });
    }

    #[test]
    fn every_strategy_kind_travels_by_canonical_name() {
        for kind in StrategyKind::all() {
            let mut s = SessionSpec::new(kind, 1, 8);
            s.oracle_best = Some(3); // keeps the oracle spec valid
            round_trip_request(Request::CreateSession(s));
        }
    }

    #[test]
    fn unknown_strategy_name_is_a_parse_error() {
        let j = r#"{"type":"create_session","strategy":"nope","max_nodes":4}"#;
        let err = Request::from_json(&Json::parse(j).unwrap()).unwrap_err();
        assert!(err.contains("unknown strategy"), "{err}");
    }

    #[test]
    fn spec_validation_rejects_bad_spaces() {
        let mut s = spec();
        s.groups = vec![(1, 4), (6, 10)]; // gap at 5
        assert!(s.space().is_err());
        let mut s = spec();
        s.lp = Some(vec![1.0; 3]);
        assert!(s.space().is_err());
        let mut s = spec();
        s.max_nodes = 0;
        assert!(s.space().is_err());
        let mut s = spec();
        s.strategy = StrategyKind::Oracle;
        assert!(s.space().is_err(), "oracle without best");
        s.oracle_best = Some(3);
        assert!(s.space().is_ok());
        assert!(spec().space().is_ok());
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\":\"ping\"}").unwrap();
        write_frame(&mut buf, "{\"type\":\"shutdown\"}").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"type\":\"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"type\":\"shutdown\"}");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF between frames");
    }

    #[test]
    fn a_frame_is_one_write() {
        /// Records each `write` call, as a socket would see them.
        struct Calls(Vec<Vec<u8>>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut calls = Calls(Vec::new());
        write_frame(&mut calls, "{\"type\":\"ping\"}").unwrap();
        assert_eq!(calls.0, vec![b"\0\0\0\x0f{\"type\":\"ping\"}".to_vec()]);
    }

    #[test]
    fn oversized_frame_length_is_rejected_without_reading_payload() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
        buf.extend_from_slice(b"garbage");
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_prefix_is_an_unexpected_eof() {
        let buf = [0u8, 0, 1]; // 3 of 4 length bytes
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
