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

use adaphet_core::{ActionSpace, PosteriorPoint, PosteriorSnapshot, StrategyKind};
use adaphet_metrics::json::{self, FromJson, Json, ObjectWriter, ToJson};
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
/// mirror of the typed `Session::builder` configuration.
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

/// Live state of one session-map shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Shard index (sessions are pinned to `id % workers`).
    pub shard: usize,
    /// Sessions currently registered on this shard.
    pub sessions: u64,
    /// Requests waiting for the shard's lock right now.
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
/// by the golden tests in `tests/health_observability.rs` and the
/// workspace's `tests/wire_golden.rs`.
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
        let mut out = String::with_capacity(256);
        self.write_members(&mut ObjectWriter::bare(&mut out));
        out
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

// ---- The frame format ------------------------------------------------
//
// Everything below the adapters is the one list of what travels: per
// carried struct and per frame, the members in wire order. A member is
// named after the Rust field that holds it and decodes through that
// field's `FromJson`: required, except that an `Option` reads an absent or
// `null` member as `None`. `= default` is what an absent or `null` member
// decodes to instead (members added after the first release, floats an
// emitter may have written as `null`); `as Adapter` travels under one of
// the spellings defined next. DESIGN.md "Wire frames" tabulates the same
// lists for client authors.

/// A strategy travels as its canonical registry name; aliases are
/// accepted on the way in.
struct Name(StrategyKind);

impl ToJson for Name {
    fn write_json(&self, out: &mut String) {
        self.0.to_string().write_json(out);
    }
}

impl FromJson for Name {
    fn from_json(v: &Json) -> Result<Self, String> {
        String::from_json(v)?.parse().map(Name).map_err(|e| format!("{e}"))
    }
}

/// The resilience switch travels as `"standard"` / `"off"`; absent is off.
struct Policy(bool);

impl ToJson for Policy {
    fn write_json(&self, out: &mut String) {
        (if self.0 { "standard" } else { "off" }).write_json(out);
    }
}

impl FromJson for Policy {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(Policy(false)),
            Json::Str(s) if s == "off" => Ok(Policy(false)),
            Json::Str(s) if s == "standard" => Ok(Policy(true)),
            _ => Err("expected \"standard\" or \"off\"".to_string()),
        }
    }

    fn absent() -> Option<Self> {
        Some(Policy(false))
    }
}

/// The warm-start floor is a similarity in `[0, 1]`; absent or `null` is a
/// cold start, so specs from clients that predate warm-starting parse
/// unchanged.
struct Similarity(Option<f64>);

impl ToJson for Similarity {
    fn write_json(&self, out: &mut String) {
        self.0.write_json(out);
    }
}

impl FromJson for Similarity {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(Similarity(None)),
            Json::Num(m) if (0.0..=1.0).contains(m) => Ok(Similarity(Some(*m))),
            _ => Err("expected a similarity in [0, 1]".to_string()),
        }
    }

    fn absent() -> Option<Self> {
        Some(Similarity(None))
    }
}

impl ToJson for ErrorCode {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

/// A code this build does not know (a newer daemon's) reads as `internal`.
impl FromJson for ErrorCode {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(v.as_str().and_then(ErrorCode::parse).unwrap_or(ErrorCode::Internal))
    }
}

/// A struct that travels as the members of a JSON object, in wire order.
trait WireFields: Sized {
    fn write_members(&self, o: &mut ObjectWriter<'_>);
    fn read_members(v: &Json) -> Result<Self, String>;
}

/// `wire_struct!(Type { member, member = default, member as Adapter,
/// "name" { sub: field, … }, … })` — the last form is a nested object of
/// counters that read 0 when absent. Generates [`WireFields`], plus
/// `ToJson`/`FromJson` as a braced object so the struct can be a member
/// of another frame.
macro_rules! wire_struct {
    ($ty:ident { $(
        $( $group:literal { $( $sub:ident : $subfield:ident ),* } )?
        $( $field:ident $( as $adapter:ident )? $( = $default:expr )? )?
    ),* }) => {
        impl WireFields for $ty {
            fn write_members(&self, o: &mut ObjectWriter<'_>) {
                $(
                    $( o.field(stringify!($field), wire_struct!(@out self.$field $(, $adapter)?)); )?
                    $( json::object(o.key($group), |g| {
                        $( g.field(stringify!($sub), &self.$subfield); )*
                    }); )?
                )*
            }

            fn read_members(v: &Json) -> Result<Self, String> {
                Ok($ty { $(
                    $( $field: wire_struct!(@in v, $field $( as $adapter )? $( = $default )?), )?
                    $( $( $subfield: v.get($group).unwrap_or(&Json::Null)
                        .field_or(stringify!($sub), 0)?, )* )?
                )* })
            }
        }

        impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                json::object(out, |o| self.write_members(o));
            }
        }

        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, String> {
                Self::read_members(v)
            }
        }
    };
    (@out $value:expr) => { &$value };
    (@out $value:expr, $adapter:ident) => { &$adapter($value) };
    (@in $v:ident, $field:ident) => { $v.field(stringify!($field))? };
    (@in $v:ident, $field:ident = $default:expr) => {
        $v.field_or(stringify!($field), $default)?
    };
    (@in $v:ident, $field:ident as $adapter:ident) => {
        $v.field::<$adapter>(stringify!($field))?.0
    };
}

/// `wire_enum!(Type, "what" { "wire_name" => Variant, "wire_name" =>
/// Variant(inner), "wire_name" => Variant { member, member = default },
/// … })` — a unit frame carries only its `type` tag, a newtype frame the
/// members of its [`WireFields`] struct next to the tag. Generates
/// `wire_name`, `to_json` and `from_json`; with `timed` after the
/// description the frames are verbs and `latency_key` names each one's
/// latency histogram.
macro_rules! wire_enum {
    ($ty:ident, $what:literal { $(
        $name:literal => $variant:ident
            $( ( $inner:ident ) )?
            $( { $( $field:ident $( = $default:expr )? ),* } )?
    ),* }) => {
        impl $ty {
            /// The frame's `type` tag, as spelled on the wire.
            pub fn wire_name(&self) -> &'static str {
                match self { $( Self::$variant { .. } => $name, )* }
            }

            /// Serialize to the one-line JSON wire form.
            pub fn to_json(&self) -> String {
                let mut out = String::with_capacity(128);
                json::object(&mut out, |o| {
                    o.field("type", self.wire_name());
                    match self { $(
                        Self::$variant $( ( $inner ) )? $( { $( $field ),* } )? => {
                            $( $inner.write_members(o); )?
                            $( $( o.field(stringify!($field), $field); )* )?
                        }
                    )* }
                });
                out
            }

            /// Parse a frame from its JSON document.
            pub fn from_json(v: &Json) -> Result<Self, String> {
                let name = v.get("type").and_then(Json::as_str).ok_or("missing 'type'")?;
                Ok(match name {
                    $( $name => Self::$variant
                        $( ({
                            let $inner = WireFields::read_members(v)?;
                            $inner
                        }) )?
                        $( { $( $field: wire_struct!(@in v, $field $( = $default )?) ),* } )?, )*
                    other => return Err(format!(concat!("unknown ", $what, " type {:?}"), other)),
                })
            }
        }
    };
    ($ty:ident, $what:literal, timed { $( $table:tt )* }) => {
        wire_enum!($ty, $what { $( $table )* });
        wire_enum!(@timed $ty { $( $table )* });
    };
    (@timed $ty:ident { $(
        $name:literal => $variant:ident $( ( $( $inner:tt )* ) )? $( { $( $members:tt )* } )?
    ),* }) => {
        impl $ty {
            /// The verb's latency histogram, `service.verb.<wire_name>_s`.
            pub fn latency_key(&self) -> &'static str {
                match self { $(
                    Self::$variant { .. } => concat!("service.verb.", $name, "_s"),
                )* }
            }
        }
    };
}

wire_struct!(SessionSpec {
    strategy as Name, seed = 0, max_nodes, groups = Vec::new(), lp, iters, best_known,
    oracle_best, resilience as Policy, max_in_flight, warm_start as Similarity
});

wire_struct!(VerbStats { verb, count, p50 = 0.0, p95 = 0.0, p99 = 0.0 });

wire_struct!(ShardStats { shard, sessions, queue_depth });

wire_struct!(StatsSnapshot {
    version = String::new(), uptime_s = 0.0, draining = false,
    "sessions" {
        live: sessions_live, created: sessions_created, closed: sessions_closed,
        evicted: sessions_evicted, drained: sessions_drained
    },
    in_flight = 0, connections = 0, requests = 0, malformed = 0, errors = 0,
    verbs = Vec::new(), shards = Vec::new()
});

wire_struct!(SessionEvent { seq, t_s = 0.0, kind, ticket, action, iteration, duration });

wire_struct!(HealthInfo {
    session, state, reason, records, since_best, regret_slope, retries_window, faults_window,
    posterior_sd_max, lp_gap, band_record, warm_started = false, transitions = 0
});

wire_enum!(Request, "request", timed {
    "create_session" => CreateSession(spec),
    "get_proposal" => GetProposal { session },
    "submit_observation" => SubmitObservation { session, ticket, duration },
    "get_posterior" => GetPosterior { session },
    "close_session" => CloseSession { session },
    "get_stats" => GetStats,
    "inspect" => Inspect { session },
    "get_health" => GetHealth { session },
    "ping" => Ping,
    "shutdown" => Shutdown
});

wire_enum!(Response, "response" {
    "session_created" => SessionCreated { session },
    "proposal" => Proposal { session, ticket, iteration, action },
    "recorded" => Recorded { session, iteration, action, duration, cumulative_time },
    "retry" => Retry { session, ticket, action, attempt },
    "posterior" => Posterior { session, points },
    "closed" => Closed { session, iterations, total_time, best_action, history },
    "stats" => Stats(stats),
    "inspected" => Inspected {
        session, strategy = String::new(), iterations, cumulative_time, pending, events,
        events_dropped = 0
    },
    "health" => Health(health),
    "pong" => Pong { version = String::new(), uptime_s = 0.0 },
    "shutting_down" => ShuttingDown,
    "error" => Error { code = ErrorCode::Internal, message = "unspecified error".to_string() }
});

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
        // A plausible-looking name outside the registry is refused like a typo.
        for name in ["nope", "drift-reset"] {
            let j = format!(r#"{{"type":"create_session","strategy":"{name}","max_nodes":4}}"#);
            let err = Request::from_json(&Json::parse(&j).unwrap()).unwrap_err();
            assert!(err.contains(&format!("unknown strategy {name:?}; known: ")), "{err}");
            assert!(err.contains("GP-discontinuous"), "registry not listed: {err}");
        }
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
