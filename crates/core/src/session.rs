//! The tuning loop: one [`Session`] per tuned application run.
//!
//! Every consumer of a [`Strategy`] needs the same propose → execute →
//! record loop; [`Session`] owns it once, as an explicit state machine
//! with a pending-action ledger, so the loop's semantics (the in-range
//! proposal contract, retry verdicts, re-baselining, telemetry gating)
//! live in one place:
//!
//! * [`Session::propose`] picks the next action, computes the decision
//!   trace/posterior snapshot (when a sink is attached), and parks the
//!   proposal in a ledger under a fresh [`Ticket`];
//! * [`Session::observe`] resolves a ticket with the measured
//!   [`Observation`], applying the [`ResiliencePolicy`] verdicts: a
//!   suspect measurement answers [`Observed::Retry`] (the caller must
//!   re-measure under the same ticket) instead of silently re-executing;
//! * [`Session::step`] / [`Session::run`] are the synchronous spelling
//!   for callers whose measurement happens in the same call stack: one
//!   `propose`, then `observe` until the ticket resolves, with an
//!   executor closure mapping an action (node count) to an
//!   [`Observation`].
//!
//! A tuning *service* uses the two halves directly: clients fetch a
//! proposal, go run the iteration on their own cluster, and come back
//! with the measurement seconds or minutes later — possibly with several
//! actions in flight at once.
//!
//! Sessions are `Send` (strategies, sinks and history all are), so a
//! [`SessionManager`](https://docs.rs/adaphet-service) can shard thousands
//! of them across its connection threads.

use crate::event::{IterationEvent, Observation};
use crate::health::{HealthReport, HealthTracker};
use crate::history::{median, median_mad};
use crate::sink::TelemetrySink;
use crate::strategy::{DecisionTrace, PosteriorSnapshot, Strategy};
use crate::{ActionSpace, History, StrategyKind, SurrogatePrior, WarmStart};
use adaphet_store::{PlatformSignature, StoreError, SurrogateSnapshot, SurrogateStore};
use std::io;

/// Opaque handle for one in-flight proposal of a [`Session`].
///
/// Tickets are unique per session (a monotone counter), never reused, and
/// carry no meaning beyond identity — wire protocols serialize them as
/// plain integers via [`Ticket::id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The raw ticket number (for wire protocols and logs).
    pub fn id(self) -> u64 {
        self.0
    }

    /// Rebuild a ticket from its raw number (wire-protocol ingress).
    pub fn from_id(id: u64) -> Self {
        Ticket(id)
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What [`Session::propose`] hands out: the action to measure, under a
/// ledger ticket the caller must resolve via [`Session::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proposal {
    /// Ledger ticket identifying this in-flight proposal.
    pub ticket: Ticket,
    /// 0-based iteration index assigned at propose time.
    pub iteration: usize,
    /// The action (node count) to measure.
    pub action: usize,
}

/// A recorded iteration: what [`Session::step`] hands back and what
/// [`Observed::Recorded`] carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// 0-based iteration index of this step.
    pub iteration: usize,
    /// Action that was played.
    pub action: usize,
    /// Measured duration.
    pub duration: f64,
}

/// The outcome of resolving a ticket with [`Session::observe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observed {
    /// The measurement was accepted and recorded; the ticket is closed.
    Recorded(StepOutcome),
    /// The [`ResiliencePolicy`] declared the measurement suspect
    /// (timeout / outlier fence): re-measure `action` and call
    /// [`Session::observe`] again with the same ticket. The discarded
    /// attempt's duration is already charged to the cumulative time.
    Retry {
        /// The still-open ticket.
        ticket: Ticket,
        /// The action to re-measure (unchanged from the proposal).
        action: usize,
        /// How many retries this ticket has consumed so far (1-based).
        attempt: usize,
    },
}

/// Why a [`Session`] refused a call.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// [`Session::observe`] was called with a ticket that is not in the
    /// ledger (never issued, already resolved, or from another session).
    UnknownTicket(Ticket),
    /// [`Session::propose`] would exceed the configured in-flight limit;
    /// resolve an outstanding ticket first.
    TooManyInFlight {
        /// The configured ledger capacity.
        limit: usize,
    },
    /// [`Session::observe`] was handed a measurement that is not a
    /// duration (NaN, infinite or negative). Nothing is recorded or
    /// charged, and the ticket stays open for the real measurement.
    InvalidDuration(f64),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownTicket(t) => {
                write!(f, "ticket {t} is not in the pending-action ledger")
            }
            SessionError::TooManyInFlight { limit } => {
                write!(f, "pending-action ledger is full ({limit} proposals in flight)")
            }
            SessionError::InvalidDuration(d) => write!(f, "duration {d} is not finite and >= 0"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Declare a measurement suspect when it exceeds this multiple of the
/// running duration estimate (median of recent iterations).
const TIMEOUT_FACTOR: f64 = 3.0;
/// How many times a suspect measurement may be re-taken within one
/// iteration.
const MAX_RETRIES: usize = 1;
/// MAD multiple beyond which a measurement counts as an outlier of its
/// per-action history (needs ≥ 4 prior observations of the same action).
const OUTLIER_MAD_K: f64 = 8.0;

/// Whether the session second-guesses a measurement or a platform change
/// (the resilience half of the tuning loop).
///
/// The [`Default`] policy disables everything — a fault-free run takes
/// exactly the code path it took before this type existed.
/// [`ResiliencePolicy::standard`] switches every mechanism on, with fixed
/// conservative thresholds: a measurement over 3× the running estimate or
/// beyond an 8-MAD fence of its action's history is re-taken once,
/// records of a now-dead node are quarantined, and the next proposal
/// re-baselines on all live nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResiliencePolicy {
    on: bool,
}

impl ResiliencePolicy {
    /// All resilience mechanisms on: 3× timeout, one retry, 8-MAD outlier
    /// fence, quarantine and re-baselining.
    pub fn standard() -> Self {
        ResiliencePolicy { on: true }
    }
}

/// Why [`SessionBuilder::build`] refused to produce a session.
#[derive(Debug)]
pub enum DriverBuildError {
    /// Neither [`SessionBuilder::strategy`] nor [`SessionBuilder::kind`]
    /// was called.
    MissingStrategy,
    /// The configured [`StrategyKind`] could not be built.
    Strategy(crate::UnknownStrategyError),
    /// The requested [`WarmStart`] could not be honoured — typically
    /// [`StoreError::SpaceMismatch`]: the snapshot was taken over a
    /// different action space than the live one (e.g. before a fault
    /// shrank the platform) and folding it in verbatim could re-introduce
    /// excluded actions.
    WarmStart(StoreError),
}

impl std::fmt::Display for DriverBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverBuildError::MissingStrategy => {
                write!(f, "session builder needs a strategy (call .strategy() or .kind())")
            }
            DriverBuildError::Strategy(e) => write!(f, "{e}"),
            DriverBuildError::WarmStart(e) => write!(f, "warm start rejected: {e}"),
        }
    }
}

impl std::error::Error for DriverBuildError {}

impl From<crate::UnknownStrategyError> for DriverBuildError {
    fn from(e: crate::UnknownStrategyError) -> Self {
        DriverBuildError::Strategy(e)
    }
}

/// Typed configuration of a [`Session`] — the only way to construct one.
/// Obtain via [`Session::builder`].
pub struct SessionBuilder {
    space: ActionSpace,
    strategy: Option<Box<dyn Strategy>>,
    kind: Option<StrategyKind>,
    seed: u64,
    iters: Option<usize>,
    best_known: Option<f64>,
    oracle_best: Option<usize>,
    sinks: Vec<Box<dyn TelemetrySink>>,
    resilience: ResiliencePolicy,
    max_in_flight: usize,
    warm_start: WarmStart,
    store: Option<SurrogateStore>,
    signature: Option<PlatformSignature>,
}

impl SessionBuilder {
    /// Tune with an already-built strategy (overrides a prior `kind`).
    pub fn strategy(mut self, strategy: Box<dyn Strategy>) -> Self {
        self.strategy = Some(strategy);
        self.kind = None;
        self
    }

    /// Tune with a [`StrategyKind`], built at [`build`](Self::build) time
    /// from the space, seed and (for the oracle)
    /// [`oracle_best`](Self::oracle_best).
    pub fn kind(mut self, kind: StrategyKind) -> Self {
        self.kind = Some(kind);
        self.strategy = None;
        self
    }

    /// Seed for stochastic strategies built via [`kind`](Self::kind).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Default iteration budget consumed by [`Session::run_configured`].
    pub fn iters(mut self, iters: usize) -> Self {
        self.iters = Some(iters);
        self
    }

    /// Best-known per-iteration duration (oracle or response-table
    /// optimum) so events carry instantaneous regret.
    pub fn best_known(mut self, duration: f64) -> Self {
        self.best_known = Some(duration);
        self
    }

    /// Best action for [`StrategyKind::Oracle`].
    pub fn oracle_best(mut self, best: usize) -> Self {
        self.oracle_best = Some(best);
        self
    }

    /// Attach a telemetry sink (repeatable).
    pub fn sink(mut self, sink: Box<dyn TelemetrySink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Set the resilience policy (default: everything off).
    pub fn resilience(mut self, policy: ResiliencePolicy) -> Self {
        self.resilience = policy;
        self
    }

    /// Cap the pending-action ledger (default: unbounded). The
    /// synchronous [`Session::step`] loop never has more than one
    /// proposal in flight, so this only matters for callers of the split
    /// [`propose`](Session::propose) / [`observe`](Session::observe)
    /// halves like the tuning service.
    pub fn max_in_flight(mut self, limit: usize) -> Self {
        self.max_in_flight = limit.max(1);
        self
    }

    /// How the session's surrogate starts (default:
    /// [`WarmStart::Cold`]). [`WarmStart::FromSnapshot`] folds the given
    /// snapshot in (refused with [`DriverBuildError::WarmStart`] when its
    /// action space disagrees with the live one);
    /// [`WarmStart::FromStore`] asks the attached [`store`](Self::store)
    /// for the nearest-signature snapshot and projects it onto the live
    /// space, falling back to a cold start when nothing matches.
    pub fn warm_start(mut self, warm: WarmStart) -> Self {
        self.warm_start = warm;
        self
    }

    /// Attach a persistent [`SurrogateStore`]: the source for
    /// [`WarmStart::FromStore`] look-ups, and the destination the built
    /// [`Session`] snapshots itself into when it finishes.
    pub fn store(mut self, store: &SurrogateStore) -> Self {
        self.store = Some(store.clone());
        self
    }

    /// The platform signature used to key store look-ups and the
    /// session's own closing snapshot. Defaults to
    /// [`signature_from_space`](crate::signature_from_space) of the
    /// builder's space (exact same-space re-runs still round-trip, but
    /// cross-platform similarity needs real speeds/bandwidths).
    pub fn signature(mut self, sig: PlatformSignature) -> Self {
        self.signature = Some(sig);
        self
    }

    /// Build the session.
    pub fn build(self) -> Result<Session, DriverBuildError> {
        let mut strategy = match (self.strategy, self.kind) {
            (Some(s), _) => s,
            (None, Some(k)) => k.build(&self.space, self.seed, self.oracle_best)?,
            (None, None) => return Err(DriverBuildError::MissingStrategy),
        };
        let space = self.space;
        // Whether a prior actually reached the strategy — the health
        // tracker's warm-start-effectiveness signal keys off this, not
        // off what was merely requested.
        let mut warm_started = false;
        match self.warm_start {
            WarmStart::Cold => {}
            WarmStart::FromSnapshot(snap) => {
                snap.matches_space(space.max_nodes, &space.groups)
                    .map_err(DriverBuildError::WarmStart)?;
                strategy.warm_start(SurrogatePrior::from_snapshot(&snap));
                warm_started = true;
            }
            WarmStart::FromStore { min_similarity } => {
                if let Some(store) = &self.store {
                    let sig = self
                        .signature
                        .clone()
                        .unwrap_or_else(|| crate::signature_from_space(&space));
                    if let Ok(Some((snap, _similarity))) =
                        store.nearest(&sig, strategy.name(), min_similarity)
                    {
                        let snap = if snap.matches_space(space.max_nodes, &space.groups).is_ok() {
                            snap
                        } else {
                            snap.project_onto(space.max_nodes, &space.groups, space.lp.as_deref())
                        };
                        strategy.warm_start(SurrogatePrior::from_snapshot(&snap));
                        warm_started = true;
                    }
                }
            }
        }
        let lp_min = space
            .lp
            .as_ref()
            .and_then(|lp| lp.iter().copied().reduce(f64::min))
            .filter(|m| m.is_finite());
        let health = HealthTracker::new(space.max_nodes, self.best_known, lp_min, warm_started);
        Ok(Session {
            strategy,
            space,
            history: History::new(),
            sinks: self.sinks,
            best_known: self.best_known,
            cumulative: 0.0,
            iters: self.iters,
            iteration: 0,
            resilience: self.resilience,
            pending_rebaseline: false,
            pending_fault: None,
            ledger: Vec::new(),
            next_ticket: 0,
            max_in_flight: self.max_in_flight,
            store: self.store,
            signature: self.signature,
            health,
        })
    }

    // Pre-`Session::builder` spelling of `build`, kept only because the
    // frozen `bench/` package calls it; the ledger PR that next touches
    // `bench/` deletes it.
    #[doc(hidden)]
    pub fn build_session(self) -> Result<Session, DriverBuildError> {
        self.build()
    }
}

/// One ledger entry: everything captured at propose time that the
/// eventual observation needs to build its [`IterationEvent`].
struct PendingAction {
    ticket: Ticket,
    iteration: usize,
    action: usize,
    trace: Option<DecisionTrace>,
    snapshot: Option<PosteriorSnapshot>,
    fault_parts: Vec<String>,
    retries: usize,
}

/// A tuning session: the propose → execute → record loop, its
/// [`History`], its pending-action ledger and its telemetry.
///
/// Construction goes through the typed [`Session::builder`]. When the
/// measurement happens in the same call stack, hand [`run`](Session::run)
/// an executor closure:
///
/// ```
/// use adaphet_core::{ActionSpace, Observation, ResiliencePolicy, Session, StrategyKind};
///
/// let space = ActionSpace::unstructured(8);
/// let mut session = Session::builder(&space)
///     .kind(StrategyKind::GpUcb)
///     .seed(0)
///     .iters(10)
///     .resilience(ResiliencePolicy::standard())
///     .build()
///     .unwrap();
/// session.run_configured(|n| Observation::of(16.0 / n as f64 + n as f64));
/// assert_eq!(session.history().len(), 10);
/// ```
///
/// When it happens elsewhere (another process, minutes later), use the
/// two halves:
///
/// ```
/// use adaphet_core::{ActionSpace, Observation, Observed, Session, StrategyKind};
///
/// let space = ActionSpace::unstructured(8);
/// let mut session =
///     Session::builder(&space).kind(StrategyKind::GpUcb).seed(0).build().unwrap();
/// for _ in 0..10 {
///     let p = session.propose().unwrap();
///     let duration = 16.0 / p.action as f64 + p.action as f64; // "measure"
///     match session.observe(p.ticket, Observation::of(duration)).unwrap() {
///         Observed::Recorded(out) => assert_eq!(out.action, p.action),
///         Observed::Retry { .. } => unreachable!("no resilience policy"),
///     }
/// }
/// assert_eq!(session.history().len(), 10);
/// ```
pub struct Session {
    strategy: Box<dyn Strategy>,
    space: ActionSpace,
    history: History,
    sinks: Vec<Box<dyn TelemetrySink>>,
    best_known: Option<f64>,
    cumulative: f64,
    iters: Option<usize>,
    /// Monotone iteration counter — *not* `history.len()`, which shrinks
    /// under quarantine.
    iteration: usize,
    resilience: ResiliencePolicy,
    pending_rebaseline: bool,
    pending_fault: Option<String>,
    ledger: Vec<PendingAction>,
    next_ticket: u64,
    max_in_flight: usize,
    store: Option<SurrogateStore>,
    signature: Option<PlatformSignature>,
    health: HealthTracker,
}

impl Session {
    /// Start a typed configuration over `space`.
    pub fn builder(space: &ActionSpace) -> SessionBuilder {
        SessionBuilder {
            space: space.clone(),
            strategy: None,
            kind: None,
            seed: 0,
            iters: None,
            best_known: None,
            oracle_best: None,
            sinks: Vec::new(),
            resilience: ResiliencePolicy::default(),
            max_in_flight: usize::MAX,
            warm_start: WarmStart::Cold,
            store: None,
            signature: None,
        }
    }

    /// The strategy driving the session.
    pub fn strategy(&self) -> &dyn Strategy {
        self.strategy.as_ref()
    }

    /// The live action space the next proposal will be drawn from.
    pub fn space(&self) -> &ActionSpace {
        &self.space
    }

    /// Observations recorded so far (quarantined records removed).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Monotone count of iterations proposed (never shrinks, unlike
    /// `history().len()` under quarantine).
    pub fn iterations_proposed(&self) -> usize {
        self.iteration
    }

    /// Sum of every observed duration so far, including measurements the
    /// resilience policy discarded (they still cost wall-clock time).
    pub fn cumulative_time(&self) -> f64 {
        self.cumulative
    }

    /// Number of proposals currently in flight.
    pub fn in_flight(&self) -> usize {
        self.ledger.len()
    }

    /// The open tickets, in issue order.
    pub fn pending_tickets(&self) -> Vec<Ticket> {
        self.ledger.iter().map(|p| p.ticket).collect()
    }

    /// The open ledger entries as `(ticket, action)` pairs, in issue
    /// order — the state an operator sees when inspecting a live session.
    pub fn pending(&self) -> Vec<(Ticket, usize)> {
        self.ledger.iter().map(|p| (p.ticket, p.action)).collect()
    }

    /// Attach a telemetry sink after construction.
    pub fn add_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.sinks.push(sink);
    }

    /// Pick the next action and park it in the ledger under a fresh
    /// ticket.
    ///
    /// The proposal satisfies the [`Strategy::propose`] range contract
    /// over the *live* space (checked with a `debug_assert!` so violations
    /// surface in tests rather than corrupting downstream lookups).
    /// Decision traces and posterior snapshots are computed now (they
    /// must describe the history the decision was made from) and emitted
    /// with the eventual observation's event. With multiple proposals in
    /// flight, later proposals see the same history — the strategy is not
    /// told about unresolved tickets.
    pub fn propose(&mut self) -> Result<Proposal, SessionError> {
        if self.ledger.len() >= self.max_in_flight {
            return Err(SessionError::TooManyInFlight { limit: self.max_in_flight });
        }
        let iteration = self.iteration;
        self.iteration += 1;
        let mut fault_parts: Vec<String> = self.pending_fault.take().into_iter().collect();
        let action = if std::mem::take(&mut self.pending_rebaseline) {
            adaphet_metrics::global().add("tuner.rebaseline", 1.0);
            fault_parts.push("rebaseline".to_string());
            self.space.max_nodes
        } else {
            self.strategy.propose(&self.space, &self.history)
        };
        debug_assert!(
            (1..=self.space.max_nodes).contains(&action),
            "strategy {:?} proposed out-of-range action {} (live space is 1..={})",
            self.strategy.name(),
            action,
            self.space.max_nodes
        );
        // Explain before the measurement: the trace must describe the
        // history state the decision was actually made from. Skipped
        // entirely when no sink is attached (GP explain refits a surrogate).
        let (trace, snapshot) = if !self.sinks.is_empty() {
            (
                Some(self.strategy.explain(&self.space, &self.history)),
                self.strategy.posterior_snapshot(&self.space, &self.history),
            )
        } else {
            (None, None)
        };
        // Opportunistic health signal: reuse the snapshot the sinks asked
        // for — never compute surrogate state just for health.
        if let Some(snap) = &snapshot {
            self.health.on_posterior(snap);
        }
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.ledger.push(PendingAction {
            ticket,
            iteration,
            action,
            trace,
            snapshot,
            fault_parts,
            retries: 0,
        });
        Ok(Proposal { ticket, iteration, action })
    }

    /// Resolve an in-flight ticket with its measurement.
    ///
    /// A suspect measurement (per the [`ResiliencePolicy`]) keeps the
    /// ticket open and answers [`Observed::Retry`]; otherwise the
    /// observation is recorded, telemetry is emitted, and the ticket
    /// closes with [`Observed::Recorded`]. A measurement that is not a
    /// duration is refused ([`SessionError::InvalidDuration`]) before the
    /// ticket is looked up.
    pub fn observe(&mut self, ticket: Ticket, obs: Observation) -> Result<Observed, SessionError> {
        // An infinite duration would poison the surrogate, a NaN panic the
        // next proposal's sorts, a negative one become the session's best.
        if !(obs.duration >= 0.0 && obs.duration.is_finite()) {
            return Err(SessionError::InvalidDuration(obs.duration));
        }
        let idx = self
            .ledger
            .iter()
            .position(|p| p.ticket == ticket)
            .ok_or(SessionError::UnknownTicket(ticket))?;
        let (action, retries) = (self.ledger[idx].action, self.ledger[idx].retries);
        if self.resilience.on && retries < MAX_RETRIES && self.is_suspect(action, obs.duration) {
            self.ledger[idx].retries = retries + 1;
            adaphet_metrics::global().add("tuner.retry", 1.0);
            // The discarded attempt still cost wall-clock time.
            self.cumulative += obs.duration;
            return Ok(Observed::Retry { ticket, action, attempt: retries + 1 });
        }
        let entry = self.ledger.remove(idx);
        let mut fault_parts = entry.fault_parts;
        if entry.retries > 0 {
            fault_parts.push(format!("retry:{}", entry.retries));
        }
        self.history.record(entry.action, obs.duration);
        self.cumulative += obs.duration;
        // `fault_parts` beyond the retry marker means a platform fault
        // (node death, quarantine, rebaseline) annotated this record.
        self.health.on_record(
            obs.duration,
            entry.retries,
            fault_parts.len() > usize::from(entry.retries > 0),
        );
        if !self.sinks.is_empty() {
            let event = IterationEvent {
                iteration: entry.iteration,
                strategy: self.strategy.name().to_string(),
                action: entry.action,
                duration: obs.duration,
                cumulative_time: self.cumulative,
                best_known: self.best_known,
                regret: self.best_known.map(|b| obs.duration - b),
                phases: obs.phases,
                trace: entry.trace,
                phase_breakdown: obs.breakdown,
                retries: entry.retries,
                fault: if fault_parts.is_empty() { None } else { Some(fault_parts.join(";")) },
                snapshot: entry.snapshot,
            };
            for sink in &mut self.sinks {
                sink.on_iteration(&event);
            }
        }
        Ok(Observed::Recorded(StepOutcome {
            iteration: entry.iteration,
            action: entry.action,
            duration: obs.duration,
        }))
    }

    /// Run one iteration: propose, execute (re-measuring suspect
    /// observations up to the policy's retry budget), record, emit
    /// telemetry.
    ///
    /// This is exactly one [`propose`](Session::propose) resolved to
    /// completion: the executor is re-invoked while the session answers
    /// [`Observed::Retry`].
    ///
    /// # Panics
    ///
    /// Panics if the executor returns a duration that is not finite and
    /// `>= 0` ([`SessionError::InvalidDuration`]).
    pub fn step<F: FnMut(usize) -> Observation>(&mut self, mut execute: F) -> StepOutcome {
        let proposal = self.propose().expect("the sequential loop never exceeds the ledger cap");
        let mut obs = execute(proposal.action);
        loop {
            // The ticket was just issued and stays in the ledger until
            // recorded, so only the executor's duration can be refused.
            match self.observe(proposal.ticket, obs).unwrap_or_else(|e| panic!("executor: {e}")) {
                Observed::Recorded(outcome) => return outcome,
                Observed::Retry { action, .. } => obs = execute(action),
            }
        }
    }

    /// Run `iters` iterations through the same executor.
    pub fn run<F: FnMut(usize) -> Observation>(&mut self, iters: usize, mut execute: F) {
        for _ in 0..iters {
            self.step(&mut execute);
        }
    }

    /// Run the iteration budget configured via [`SessionBuilder::iters`].
    ///
    /// # Panics
    ///
    /// Panics if no budget was configured.
    pub fn run_configured<F: FnMut(usize) -> Observation>(&mut self, execute: F) {
        let iters = self.iters.expect("no iteration budget configured (builder .iters())");
        self.run(iters, execute);
    }

    /// Abandon an in-flight ticket without recording anything (the client
    /// disappeared mid-measurement). The iteration index is consumed; the
    /// history is untouched.
    pub fn abandon(&mut self, ticket: Ticket) -> Result<(), SessionError> {
        let idx = self
            .ledger
            .iter()
            .position(|p| p.ticket == ticket)
            .ok_or(SessionError::UnknownTicket(ticket))?;
        self.ledger.remove(idx);
        Ok(())
    }

    /// The session's convergence-health report: the hysteresis-damped
    /// [`HealthState`](crate::HealthState) plus the raw signals behind
    /// it. Derived entirely from the iteration stream the session already
    /// processes — querying it costs a few window reductions, never any
    /// surrogate work.
    pub fn health(&self) -> HealthReport {
        self.health.report()
    }

    /// The strategy's posterior over the live space right now, if it
    /// maintains a surrogate with enough data to fit (the service's
    /// `GetPosterior` endpoint; same semantics as the telemetry
    /// snapshots).
    pub fn posterior(&self) -> Option<PosteriorSnapshot> {
        self.strategy.posterior_snapshot(&self.space, &self.history)
    }

    /// Replace the live action space mid-run (platform fault: node death
    /// shrank the cluster, or a repair grew it back).
    ///
    /// `stale_from` names the first action whose past measurements are no
    /// longer trustworthy — for a death of rank `r`, every measurement
    /// that used `≥ r` nodes ran on the dead node. Under
    /// [`ResiliencePolicy::standard`] those records are dropped and, with
    /// no surviving observation of the new all-nodes count, the next
    /// proposal is forced to `new_space.max_nodes` (emitting a
    /// `tuner.rebaseline` count) so bound mechanisms regain their
    /// reference. `note` is carried into the next
    /// [`IterationEvent::fault`] annotation.
    pub fn apply_platform_change(
        &mut self,
        new_space: &ActionSpace,
        stale_from: Option<usize>,
        note: impl Into<String>,
    ) {
        self.space = new_space.clone();
        let mut parts = vec![note.into()];
        if self.resilience.on {
            if let Some(stale) = stale_from {
                let dropped = self.history.retain_actions(|a| a < stale);
                if dropped > 0 {
                    adaphet_metrics::global().add("tuner.quarantine", dropped as f64);
                    parts.push(format!("quarantine:{dropped}"));
                }
            }
        }
        if self.resilience.on && self.history.first_for(self.space.max_nodes).is_none() {
            self.pending_rebaseline = true;
        }
        let note = parts.join(";");
        match &mut self.pending_fault {
            Some(prev) => {
                prev.push(';');
                prev.push_str(&note);
            }
            None => self.pending_fault = Some(note),
        }
    }

    /// Running duration estimate for the timeout check: the median of the
    /// most recent (up to 10) iteration durations.
    fn running_estimate(&self) -> Option<f64> {
        let records = self.history.records();
        if records.len() < 3 {
            return None;
        }
        let tail = &records[records.len().saturating_sub(10)..];
        Some(median(tail.iter().map(|&(_, y)| y).collect()))
    }

    /// Whether this measurement is to be re-taken: over the timeout, or
    /// outside the outlier fence of its action's history.
    fn is_suspect(&self, action: usize, duration: f64) -> bool {
        if let Some(estimate) = self.running_estimate() {
            if duration > TIMEOUT_FACTOR * estimate {
                return true;
            }
        }
        let prior = self.history.values_for(action);
        if prior.len() >= 4 {
            let (median, mad) = median_mad(&prior);
            let fence = OUTLIER_MAD_K * (1.4826 * mad).max(1e-3 * median.abs());
            if fence > 0.0 && (duration - median).abs() > fence {
                return true;
            }
        }
        false
    }

    /// The session's surrogate state as a persistable
    /// [`SurrogateSnapshot`]: the observation history over the *live*
    /// space (quarantined records already removed, so a snapshot taken
    /// after a fault never leaks dead-node actions), the fitted GP
    /// hyper-parameters when the strategy has a surrogate with enough
    /// data, and the session's platform signature (falling back to
    /// [`signature_from_space`](crate::signature_from_space) of the live
    /// space). `None` while the history is empty — there is nothing worth
    /// persisting.
    pub fn snapshot(&self) -> Option<SurrogateSnapshot> {
        if self.history.is_empty() {
            return None;
        }
        let signature =
            self.signature.clone().unwrap_or_else(|| crate::signature_from_space(&self.space));
        Some(SurrogateSnapshot {
            signature,
            strategy: self.strategy.name().to_string(),
            max_nodes: self.space.max_nodes,
            groups: self.space.groups.clone(),
            lp: self.space.lp.clone(),
            observations: self.history.records().to_vec(),
            hyper: self.strategy.surrogate_hyper(&self.space, &self.history),
        })
    }

    /// Finish all sinks (flush files) and, when a
    /// [`SurrogateStore`] is attached, persist the closing
    /// [`snapshot`](Session::snapshot). Every sink is finished even if an
    /// earlier one fails; the first error is returned. Idempotent: sinks
    /// surface a latched error once (the snapshot is simply re-written).
    pub fn finish(&mut self) -> io::Result<()> {
        let mut first_err = None;
        for sink in &mut self.sinks {
            if let Err(e) = sink.finish() {
                first_err.get_or_insert(e);
            }
        }
        if let Some(store) = &self.store {
            if let Some(snap) = self.snapshot() {
                if let Err(e) = store.put(&snap) {
                    first_err.get_or_insert(io::Error::other(e));
                }
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Consume the session, returning the history (sinks are finished).
    ///
    /// # Panics
    ///
    /// Panics if a sink fails to finish: telemetry that was explicitly
    /// attached must not vanish silently. Call [`Session::finish`] first
    /// to handle the error gracefully (sinks latch their error and raise
    /// it only once, so a handled error is not raised again here).
    pub fn into_history(mut self) -> History {
        self.finish().expect("telemetry sink failed");
        self.history
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{GpDiscontinuous, MemorySink, PhaseBreakdown, PhaseSlice};
    use adaphet_metrics::GroupProfile;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The fixture space of the loop and sink tests.
    pub(crate) fn space() -> ActionSpace {
        ActionSpace::new(
            10,
            vec![(1, 5), (6, 10)],
            Some((1..=10).map(|n| 30.0 / n as f64).collect()),
        )
    }

    /// The fixture response curve (best at 6 nodes).
    pub(crate) fn response(n: usize) -> f64 {
        30.0 / n as f64 + 0.8 * n as f64
    }

    fn session(kind: StrategyKind) -> Session {
        Session::builder(&space()).kind(kind).seed(3).build().unwrap()
    }

    fn session_over(sp: &ActionSpace, strat: Box<dyn Strategy>) -> Session {
        Session::builder(sp).strategy(strat).build().unwrap()
    }

    #[test]
    fn split_session_matches_the_driver_loop_bitwise() {
        for kind in crate::PAPER_STRATEGIES {
            let mut d = session(kind);
            d.run(40, |n| Observation::of(response(n)));

            let mut s = session(kind);
            for _ in 0..40 {
                let p = s.propose().unwrap();
                match s.observe(p.ticket, Observation::of(response(p.action))).unwrap() {
                    Observed::Recorded(out) => {
                        assert_eq!(out.iteration, p.iteration);
                        assert_eq!(out.action, p.action);
                    }
                    Observed::Retry { .. } => unreachable!("default policy never retries"),
                }
            }
            assert_eq!(s.history(), d.history(), "{kind}: split loop must be bit-identical");
            assert_eq!(s.cumulative_time(), d.history().total_time());
        }
    }

    #[test]
    fn driver_records_every_iteration() {
        let sp = space();
        let mut d = session_over(&sp, Box::new(GpDiscontinuous::new(&sp)));
        d.run(15, |n| Observation::of(response(n)));
        assert_eq!(d.history().len(), 15);
        assert_eq!(d.iterations_proposed(), 15);
        let total: f64 = d.history().records().iter().map(|&(_, y)| y).sum();
        assert!((total - d.history().total_time()).abs() < 1e-12);
    }

    #[test]
    fn builder_requires_a_strategy() {
        let sp = space();
        match Session::builder(&sp).build() {
            Err(DriverBuildError::MissingStrategy) => {}
            other => panic!("expected MissingStrategy, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn builder_kind_and_configured_run() {
        let sp = space();
        let mut d = Session::builder(&sp)
            .kind(StrategyKind::GpDiscontinuous)
            .seed(7)
            .iters(6)
            .build()
            .unwrap();
        d.run_configured(|n| Observation::of(response(n)));
        assert_eq!(d.history().len(), 6);
    }

    #[test]
    fn tickets_are_unique_and_resolve_once() {
        let mut s = session(StrategyKind::Ucb);
        let a = s.propose().unwrap();
        let b = s.propose().unwrap();
        assert_ne!(a.ticket, b.ticket);
        assert_eq!(s.in_flight(), 2);
        assert_eq!(s.pending_tickets(), vec![a.ticket, b.ticket]);
        assert!(matches!(
            s.observe(a.ticket, Observation::of(1.0)).unwrap(),
            Observed::Recorded(_)
        ));
        // Resolving again is an error: the ticket left the ledger.
        assert_eq!(
            s.observe(a.ticket, Observation::of(1.0)),
            Err(SessionError::UnknownTicket(a.ticket))
        );
        assert_eq!(s.in_flight(), 1);
    }

    #[test]
    fn a_measurement_that_is_not_a_duration_leaves_the_ticket_open() {
        // Recorded, a NaN made the next GP-disc proposal panic in its
        // stage-2 median sort.
        let mut s = session(StrategyKind::GpDiscontinuous);
        s.run(6, |n| Observation::of(response(n)));
        let p = s.propose().unwrap();
        let spent = s.cumulative_time();
        for bad in [f64::NAN, f64::INFINITY, -3.5] {
            let refused = s.observe(p.ticket, Observation::of(bad));
            assert!(
                matches!(refused, Err(SessionError::InvalidDuration(d)) if d.to_bits() == bad.to_bits())
            );
        }
        assert_eq!(s.pending_tickets(), vec![p.ticket]);
        assert_eq!((s.history().len(), s.cumulative_time()), (6, spent));
        s.observe(p.ticket, Observation::of(response(p.action))).unwrap();
        assert!(s.propose().is_ok());
        assert_eq!(
            SessionError::InvalidDuration(-3.5).to_string(),
            "duration -3.5 is not finite and >= 0"
        );
    }

    #[test]
    fn out_of_order_observations_record_their_own_iteration() {
        let sink = MemorySink::new();
        let mut s = Session::builder(&space())
            .kind(StrategyKind::Ucb)
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        let p0 = s.propose().unwrap();
        let p1 = s.propose().unwrap();
        // Resolve the second proposal first.
        s.observe(p1.ticket, Observation::of(2.0)).unwrap();
        s.observe(p0.ticket, Observation::of(1.0)).unwrap();
        let events = sink.events();
        assert_eq!(events.len(), 2);
        // Events arrive in observation order but keep propose-time indices.
        assert_eq!(events[0].iteration, p1.iteration);
        assert_eq!(events[1].iteration, p0.iteration);
        assert_eq!(s.history().records(), &[(p1.action, 2.0), (p0.action, 1.0)]);
    }

    #[test]
    fn in_flight_limit_is_enforced() {
        let mut s =
            Session::builder(&space()).kind(StrategyKind::Ucb).max_in_flight(2).build().unwrap();
        let a = s.propose().unwrap();
        let _b = s.propose().unwrap();
        assert_eq!(s.propose(), Err(SessionError::TooManyInFlight { limit: 2 }));
        s.observe(a.ticket, Observation::of(1.0)).unwrap();
        assert!(s.propose().is_ok(), "capacity frees up once a ticket resolves");
    }

    #[test]
    fn abandon_discards_without_recording() {
        let mut s = session(StrategyKind::Ucb);
        let p = s.propose().unwrap();
        s.abandon(p.ticket).unwrap();
        assert_eq!(s.in_flight(), 0);
        assert!(s.history().is_empty());
        assert_eq!(s.abandon(p.ticket), Err(SessionError::UnknownTicket(p.ticket)));
        // The iteration index was consumed; the next proposal continues.
        assert_eq!(s.propose().unwrap().iteration, p.iteration + 1);
    }

    #[test]
    fn suspect_measurements_keep_the_ticket_open() {
        let mut s = Session::builder(&ActionSpace::unstructured(4))
            .strategy(Box::new(crate::AllNodes::new(4)))
            .resilience(ResiliencePolicy::standard())
            .build()
            .unwrap();
        // Three clean iterations establish the running estimate (1.0)...
        for _ in 0..3 {
            let p = s.propose().unwrap();
            s.observe(p.ticket, Observation::of(1.0)).unwrap();
        }
        // ...then a 10× straggler measurement on the next ticket.
        let p = s.propose().unwrap();
        match s.observe(p.ticket, Observation::of(10.0)).unwrap() {
            Observed::Retry { ticket, action, attempt } => {
                assert_eq!(ticket, p.ticket);
                assert_eq!(action, p.action);
                assert_eq!(attempt, 1);
            }
            other => panic!("expected a retry verdict, got {other:?}"),
        }
        assert_eq!(s.in_flight(), 1, "the ticket stays open across the retry");
        // The clean re-measurement closes it; the discarded attempt is
        // still charged to cumulative time (3×1 + 10 + 1).
        match s.observe(p.ticket, Observation::of(1.0)).unwrap() {
            Observed::Recorded(out) => assert_eq!(out.duration, 1.0),
            other => panic!("expected recorded, got {other:?}"),
        }
        assert!((s.cumulative_time() - 14.0).abs() < 1e-12);
        assert_eq!(s.history().records().last(), Some(&(4, 1.0)));
    }

    #[test]
    fn sessions_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Session>();
        assert_send::<Proposal>();
        assert_send::<Observed>();
    }

    #[test]
    fn posterior_appears_once_the_surrogate_fits() {
        let mut s = session(StrategyKind::GpDiscontinuous);
        assert!(s.posterior().is_none(), "no surrogate before any data");
        for _ in 0..12 {
            let p = s.propose().unwrap();
            s.observe(p.ticket, Observation::of(response(p.action))).unwrap();
        }
        let snap = s.posterior().expect("GP posterior after 12 observations");
        assert_eq!(snap.points.len(), s.space().max_nodes);
    }

    #[test]
    fn no_sink_means_no_explain_calls() {
        struct Spy {
            explains: Arc<AtomicUsize>,
        }
        impl Strategy for Spy {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn propose(&mut self, _space: &ActionSpace, _h: &History) -> usize {
                1
            }
            fn explain(&self, _space: &ActionSpace, _h: &History) -> DecisionTrace {
                self.explains.fetch_add(1, Ordering::Relaxed);
                DecisionTrace::minimal("spy")
            }
        }
        let count = Arc::new(AtomicUsize::new(0));
        let sp = ActionSpace::unstructured(3);
        let mut d = session_over(&sp, Box::new(Spy { explains: count.clone() }));
        d.run(5, |_| Observation::of(1.0));
        assert_eq!(count.load(Ordering::Relaxed), 0, "explain must not run without a sink");

        let mut d = Session::builder(&sp)
            .strategy(Box::new(Spy { explains: count.clone() }))
            .sink(Box::new(MemorySink::new()))
            .build()
            .unwrap();
        d.run(5, |_| Observation::of(1.0));
        assert_eq!(count.load(Ordering::Relaxed), 5, "explain runs once per iteration with a sink");
    }

    #[test]
    fn no_sink_means_no_snapshot_computation() {
        struct Spy {
            snapshots: Arc<AtomicUsize>,
        }
        impl Strategy for Spy {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn propose(&mut self, _space: &ActionSpace, _h: &History) -> usize {
                1
            }
            fn posterior_snapshot(
                &self,
                _space: &ActionSpace,
                _h: &History,
            ) -> Option<crate::PosteriorSnapshot> {
                self.snapshots.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
        let count = Arc::new(AtomicUsize::new(0));
        let sp = ActionSpace::unstructured(3);
        let mut d = session_over(&sp, Box::new(Spy { snapshots: count.clone() }));
        d.run(5, |_| Observation::of(1.0));
        assert_eq!(count.load(Ordering::Relaxed), 0, "snapshot must not run without a sink");
    }

    #[test]
    fn phases_flow_into_events() {
        let sp = ActionSpace::unstructured(4);
        let sink = MemorySink::new();
        let mut d = Session::builder(&sp)
            .strategy(Box::new(crate::AllNodes::new(4)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        d.step(|_| {
            Observation::with_phases(
                2.0,
                vec![PhaseSlice::new("factorization", 1.5), PhaseSlice::new("solve", 0.5)],
            )
        });
        let e = &sink.events()[0];
        assert_eq!(e.phases.len(), 2);
        assert_eq!(e.phases[0].name, "factorization");
        assert_eq!(e.phases[1].seconds, 0.5);
    }

    #[test]
    fn breakdown_flows_into_events() {
        let sp = ActionSpace::unstructured(4);
        let sink = MemorySink::new();
        let mut d = Session::builder(&sp)
            .strategy(Box::new(crate::AllNodes::new(4)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        let breakdown = PhaseBreakdown {
            phases: vec![PhaseSlice::new("generation", 0.5), PhaseSlice::new("solve", 1.5)],
            groups: vec![GroupProfile { name: "g:1-4".into(), busy_s: 6.0, idle_s: 2.0 }],
        };
        d.step(|_| Observation::with_breakdown(2.0, vec![], breakdown.clone()));
        let e = &sink.events()[0];
        assert_eq!(e.phase_breakdown.as_ref(), Some(&breakdown));
        let j = e.to_json();
        assert!(
            j.contains(
                "\"phase_breakdown\":{\"phases\":[{\"name\":\"generation\",\"seconds\":0.5},\
                 {\"name\":\"solve\",\"seconds\":1.5}],\"groups\":[{\"name\":\"g:1-4\",\
                 \"busy_s\":6,\"idle_s\":2,\"utilization\":0.75}]}"
            ),
            "{j}"
        );
    }

    #[test]
    fn posterior_snapshots_flow_into_events_once_the_gp_fits() {
        let sp = space();
        let sink = MemorySink::new();
        let mut d = Session::builder(&sp)
            .strategy(Box::new(GpDiscontinuous::new(&sp)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        d.run(12, |n| Observation::of(response(n)));
        let events = sink.events();
        assert!(events[0].snapshot.is_none(), "no surrogate before any data");
        let snap = events
            .iter()
            .rev()
            .find_map(|e| e.snapshot.as_ref())
            .expect("late iterations carry a posterior snapshot");
        // One point per action of the space, in order, with the LP bound.
        assert_eq!(snap.points.len(), sp.max_nodes);
        for (i, p) in snap.points.iter().enumerate() {
            assert_eq!(p.action, i + 1);
            assert!(p.sd >= 0.0);
            assert_eq!(p.lp_bound, sp.lp_at(p.action));
        }
        // The bound mechanism excludes hopeless left points and the
        // snapshot says so (y(10) ≈ 11, LP(n) = 30/n ≥ 11 for n ≤ 2).
        assert!(snap.points.iter().any(|p| p.excluded), "bound exclusions are visible");
    }

    #[test]
    fn timeout_suspects_are_retried_and_annotated() {
        let sp = ActionSpace::unstructured(4);
        let sink = MemorySink::new();
        let mut d = Session::builder(&sp)
            .strategy(Box::new(crate::AllNodes::new(4)))
            .sink(Box::new(sink.clone()))
            .resilience(ResiliencePolicy::standard())
            .build()
            .unwrap();
        // Three clean iterations establish the running estimate (1.0)...
        let mut calls = 0;
        d.run(3, |_| Observation::of(1.0));
        // ...then a 10× straggler measurement, whose retry comes back clean.
        d.step(|_| {
            calls += 1;
            if calls == 1 {
                Observation::of(10.0)
            } else {
                Observation::of(1.0)
            }
        });
        assert_eq!(calls, 2, "one retry after the timeout verdict");
        let e = &sink.events()[3];
        assert_eq!(e.retries, 1);
        assert_eq!(e.fault.as_deref(), Some("retry:1"));
        assert_eq!(e.duration, 1.0, "the retried measurement is what gets recorded");
        // The discarded attempt still cost wall-clock time: 3×1 + 10 + 1.
        assert!((e.cumulative_time - 14.0).abs() < 1e-12);
        assert_eq!(d.history().records().last(), Some(&(4, 1.0)));
    }

    #[test]
    fn outlier_suspects_need_per_action_history() {
        let sp = ActionSpace::unstructured(4);
        let mut d = Session::builder(&sp)
            .strategy(Box::new(crate::AllNodes::new(4)))
            .resilience(ResiliencePolicy::standard())
            .build()
            .unwrap();
        // Tight per-action history around 1.0 (4 points), then a spike of
        // 1.5: under the 3× timeout of the running estimate (≈ 1.0), but
        // beyond the 8-MAD fence (8 × 1.4826 × 0.01 ≈ 0.12), so the fence
        // alone calls the retry.
        let mut durations = vec![1.0, 1.01, 0.99, 1.0, 1.5, 1.0].into_iter();
        let mut executions = 0;
        d.run(5, |_| {
            executions += 1;
            Observation::of(durations.next().unwrap())
        });
        // Iteration 5 measured 1.5 (an 8-MAD outlier of {≈1.0}×4), was
        // retried once, and recorded the clean re-measurement.
        assert_eq!(executions, 6);
        assert_eq!(d.history().records().last(), Some(&(4, 1.0)));
        assert_eq!(d.history().len(), 5);
    }

    #[test]
    fn default_policy_never_retries() {
        let sp = ActionSpace::unstructured(4);
        let mut d = session_over(&sp, Box::new(crate::AllNodes::new(4)));
        let mut executions = 0;
        d.run(6, |_| {
            executions += 1;
            // Wild swings that would trip any enabled detector.
            Observation::of(if executions % 2 == 0 { 100.0 } else { 0.01 })
        });
        assert_eq!(executions, 6, "disabled policy must never re-execute");
    }

    #[test]
    fn platform_change_quarantines_and_rebaselines() {
        let sp = ActionSpace::unstructured(10);
        let sink = MemorySink::new();
        let mut d = Session::builder(&sp)
            .strategy(Box::new(crate::naive::DivideConquer::new(&sp)))
            .sink(Box::new(sink.clone()))
            .resilience(ResiliencePolicy::standard())
            .build()
            .unwrap();
        d.run(6, |n| Observation::of(30.0 / n as f64 + n as f64));
        let before = d.history().len();
        assert_eq!(before, 6);
        // Rank 6 dies: actions ≥ 6 were measured with the dead node.
        let survivor = ActionSpace::unstructured(5);
        d.apply_platform_change(&survivor, Some(6), "node-death:rank=6");
        assert!(d.history().len() < before, "stale records quarantined");
        assert!(d.history().records().iter().all(|&(a, _)| a < 6));
        // The next step is forced to the new all-nodes count and carries
        // the full annotation.
        let out = d.step(|n| Observation::of(30.0 / n as f64 + n as f64));
        assert_eq!(out.action, 5, "rebaseline forces the live maximum");
        let e = sink.events().last().unwrap().clone();
        let fault = e.fault.expect("faulted iteration must be annotated");
        assert!(fault.starts_with("node-death:rank=6"), "{fault}");
        assert!(fault.contains("quarantine:"), "{fault}");
        assert!(fault.contains("rebaseline"), "{fault}");
        // Subsequent iterations are unremarkable again.
        let _ = d.step(|n| Observation::of(30.0 / n as f64 + n as f64));
        assert_eq!(sink.events().last().unwrap().fault, None);
    }

    #[test]
    fn platform_change_without_policy_keeps_history() {
        let sp = ActionSpace::unstructured(10);
        let mut d = session_over(&sp, Box::new(crate::naive::DivideConquer::new(&sp)));
        d.run(6, |n| Observation::of(30.0 / n as f64 + n as f64));
        let before = d.history().clone();
        let survivor = ActionSpace::unstructured(5);
        d.apply_platform_change(&survivor, Some(6), "node-death:rank=6");
        assert_eq!(d.history(), &before, "no quarantine without the policy");
        assert_eq!(d.space().max_nodes, 5, "the live space still shrinks");
        // Strategies obey the live space even without any resilience.
        for _ in 0..8 {
            let out = d.step(|n| Observation::of(30.0 / n as f64 + n as f64));
            assert!(out.action <= 5, "proposal {} exceeds live space", out.action);
        }
    }

    #[test]
    fn iteration_counter_survives_quarantine() {
        let sp = ActionSpace::unstructured(8);
        let sink = MemorySink::new();
        let mut d = Session::builder(&sp)
            .strategy(Box::new(crate::naive::DivideConquer::new(&sp)))
            .sink(Box::new(sink.clone()))
            .resilience(ResiliencePolicy::standard())
            .build()
            .unwrap();
        d.run(4, |n| Observation::of(n as f64));
        let survivor = ActionSpace::unstructured(3);
        d.apply_platform_change(&survivor, Some(4), "node-death:rank=4");
        d.run(2, |n| Observation::of(n as f64));
        // Event iteration indices keep counting 0..6 even though the
        // history shrank under quarantine.
        let idx: Vec<usize> = sink.events().iter().map(|e| e.iteration).collect();
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(d.iterations_proposed(), 6);
    }
}
