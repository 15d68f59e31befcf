//! The canonical tuning loop with structured per-iteration telemetry.
//!
//! Every consumer of a [`Strategy`] used to hand-roll the same three-line
//! propose → execute → record loop, which made it impossible to observe
//! *why* a strategy picked an action without instrumenting each call site
//! separately. [`TunerDriver`] owns that loop once: callers provide an
//! executor closure mapping an action (node count) to an [`Observation`]
//! and the driver maintains the [`History`], enforces the in-range
//! proposal contract, and emits one [`IterationEvent`] per iteration to
//! any attached [`TelemetrySink`]s.
//!
//! Telemetry stays off the hot path: with no sink attached the driver
//! never builds an event and never calls [`Strategy::explain`] (which for
//! the GP strategies costs a full surrogate refit).

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::strategy::{DecisionTrace, PosteriorSnapshot, Strategy};
use crate::{ActionSpace, History};
use adaphet_metrics::json::{self, ToJson};

/// Time attributed to one named application phase within an iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSlice {
    /// Phase name (e.g. `"factorization"`).
    pub name: String,
    /// Busy time of the phase in seconds.
    pub seconds: f64,
}

impl PhaseSlice {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, seconds: f64) -> Self {
        PhaseSlice { name: name.into(), seconds }
    }
}

/// Busy vs. idle worker time of one homogeneous node group over an
/// iteration window.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupUtilization {
    /// Group label, e.g. `"chifflot:1-2"`.
    pub name: String,
    /// Seconds of worker (CPU core / GPU) busy time, summed over workers.
    pub busy_s: f64,
    /// Seconds of worker idle time within the window.
    pub idle_s: f64,
}

impl GroupUtilization {
    /// Busy fraction in `[0, 1]` (0 for an empty window).
    pub fn utilization(&self) -> f64 {
        let cap = self.busy_s + self.idle_s;
        if cap <= 0.0 {
            0.0
        } else {
            self.busy_s / cap
        }
    }
}

/// Wall-clock decomposition of one iteration: disjoint per-phase slices
/// (which sum to the iteration duration, unlike the busy-time
/// [`Observation::phases`] which overlap under concurrency) plus per-group
/// utilization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Disjoint wall-clock slices in completion order; sums to the
    /// iteration duration.
    pub phases: Vec<PhaseSlice>,
    /// Busy vs. idle time per homogeneous node group.
    pub groups: Vec<GroupUtilization>,
}

/// What the executor measured for one iteration.
///
/// The driver is runtime-agnostic: simulated runtimes, real thread pools
/// and pre-measured response tables all reduce to a duration plus an
/// optional per-phase breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Iteration makespan in seconds (what strategies optimize).
    pub duration: f64,
    /// Optional per-phase busy-time breakdown of the iteration.
    pub phases: Vec<PhaseSlice>,
    /// Optional wall-clock phase/utilization decomposition (profiled runs).
    pub breakdown: Option<PhaseBreakdown>,
}

impl Observation {
    /// An observation with no phase breakdown.
    pub fn of(duration: f64) -> Self {
        Observation { duration, phases: Vec::new(), breakdown: None }
    }

    /// An observation with a per-phase breakdown.
    pub fn with_phases(duration: f64, phases: Vec<PhaseSlice>) -> Self {
        Observation { duration, phases, breakdown: None }
    }

    /// An observation with both the busy-time phases and the wall-clock
    /// phase/utilization decomposition.
    pub fn with_breakdown(
        duration: f64,
        phases: Vec<PhaseSlice>,
        breakdown: PhaseBreakdown,
    ) -> Self {
        Observation { duration, phases, breakdown: Some(breakdown) }
    }
}

/// Everything there is to know about one driver iteration.
///
/// The JSONL serialization of this struct ([`IterationEvent::to_json`])
/// is a stable schema: field names and ordering are pinned by a golden
/// test and consumed by external tooling, so changes are semver-relevant.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationEvent {
    /// 0-based iteration index.
    pub iteration: usize,
    /// `Strategy::name()` of the deciding strategy.
    pub strategy: String,
    /// The action (node count) the strategy chose.
    pub action: usize,
    /// Measured iteration duration in seconds.
    pub duration: f64,
    /// Sum of all iteration durations up to and including this one.
    pub cumulative_time: f64,
    /// Duration of the best-known action (from an oracle or response
    /// table), when configured on the driver.
    pub best_known: Option<f64>,
    /// Instantaneous regret `duration − best_known`, when available.
    pub regret: Option<f64>,
    /// Per-phase breakdown reported by the executor (may be empty).
    pub phases: Vec<PhaseSlice>,
    /// Strategy introspection for this decision, when a sink asked for it.
    pub trace: Option<DecisionTrace>,
    /// Wall-clock phase/utilization decomposition, when the executor
    /// profiled the iteration.
    pub phase_breakdown: Option<PhaseBreakdown>,
    /// Extra measurements the resilience policy re-took this iteration
    /// after an outlier/timeout verdict (0 in fault-free runs).
    pub retries: usize,
    /// Fault/resilience annotation for this iteration (e.g.
    /// `"node-death:rank=5"`, `"rebaseline"`, `"retry:1"`), `None` on
    /// unremarkable iterations.
    pub fault: Option<String>,
    /// The strategy's full posterior over the live space right before
    /// this decision ([`Strategy::posterior_snapshot`]), when a sink
    /// asked for decision traces and the strategy maintains a surrogate.
    pub snapshot: Option<PosteriorSnapshot>,
}

impl ToJson for PhaseSlice {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("name", &self.name).field("seconds", &self.seconds);
        });
    }
}

impl ToJson for GroupUtilization {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("name", &self.name)
                .field("busy_s", &self.busy_s)
                .field("idle_s", &self.idle_s)
                .field("utilization", &self.utilization());
        });
    }
}

impl ToJson for PhaseBreakdown {
    fn write_json(&self, out: &mut String) {
        json::object(out, |o| {
            o.field("phases", &self.phases).field("groups", &self.groups);
        });
    }
}

impl IterationEvent {
    /// One-line JSON rendering with a pinned field order:
    /// `iteration, strategy, action, duration, cumulative_time,
    /// best_known, regret, phases, posterior, excluded, note,
    /// phase_breakdown, retries, fault, snapshot`.
    ///
    /// Every key is always present; `best_known`/`regret` are `null` when
    /// unset, `posterior`/`excluded`/`note` are empty when the decision
    /// trace was not requested, `phase_breakdown` is `null` for
    /// unprofiled iterations, `fault` is `null` for unremarkable
    /// iterations, and `snapshot` is `null` when the strategy has no
    /// surrogate posterior to report (it was appended last so parsers of
    /// the older 14-key schema keep reading a stable prefix). Non-finite
    /// floats serialize as `null`.
    pub fn to_json(&self) -> String {
        let trace = self.trace.as_ref();
        let mut s = String::with_capacity(256);
        json::object(&mut s, |o| {
            o.field("iteration", &self.iteration)
                .field("strategy", &self.strategy)
                .field("action", &self.action)
                .field("duration", &self.duration)
                .field("cumulative_time", &self.cumulative_time)
                .field("best_known", &self.best_known)
                .field("regret", &self.regret)
                .field("phases", &self.phases)
                .field("posterior", trace.map_or(&[][..], |t| &t.diagnostics))
                .field("excluded", trace.map_or(&[][..], |t| &t.excluded))
                .field("note", trace.map_or("", |t| &t.note))
                .field("phase_breakdown", &self.phase_breakdown)
                .field("retries", &self.retries)
                .field("fault", &self.fault)
                .field("snapshot", &self.snapshot);
        });
        s
    }
}

/// Consumer of per-iteration telemetry.
///
/// Sinks are `Send` so a driver holding them can move into a worker
/// thread (sinks with shared buffers use `Arc<Mutex<…>>`, never
/// `Rc<RefCell<…>>`).
pub trait TelemetrySink: Send {
    /// Whether the driver should compute [`Strategy::explain`] for this
    /// sink's events. Defaults to `true`; return `false` for cheap sinks
    /// (counters, progress bars) to keep GP refits off the loop.
    fn wants_decision_trace(&self) -> bool {
        true
    }

    /// Called once per driver iteration, after the observation is
    /// recorded.
    fn on_iteration(&mut self, event: &IterationEvent);

    /// Called by [`TunerDriver::finish`]; flush buffers here and surface
    /// any I/O error swallowed during the run — telemetry the user asked
    /// for must not vanish silently.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// In-memory sink for tests and programmatic inspection.
///
/// Cloning shares the underlying buffer, so a test can keep a handle
/// while handing a clone to the driver.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<IterationEvent>>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<IterationEvent>> {
        // Event pushes can't corrupt the buffer; ignore poisoning.
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<IterationEvent> {
        self.lock().clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether no event was recorded yet.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }
}

impl TelemetrySink for MemorySink {
    fn on_iteration(&mut self, event: &IterationEvent) {
        self.lock().push(event.clone());
    }
}

/// Sink writing one [`IterationEvent::to_json`] line per iteration.
///
/// Mid-run I/O errors never abort the tuning loop; the *first* error is
/// latched and returned from [`TelemetrySink::finish`], so a failing
/// writer surfaces instead of silently dropping iterations.
pub struct JsonlSink<W: Write> {
    writer: W,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncate) a JSONL file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wrap any writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer, error: None }
    }

    /// Recover the writer (e.g. a `Vec<u8>` buffer in tests).
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write + Send> TelemetrySink for JsonlSink<W> {
    fn on_iteration(&mut self, event: &IterationEvent) {
        // Telemetry must never abort a tuning run mid-flight; keep the
        // first error for `finish` to report.
        if let Err(e) = writeln!(self.writer, "{}", event.to_json()) {
            self.error.get_or_insert(e);
        }
    }

    fn finish(&mut self) -> io::Result<()> {
        let flush = self.writer.flush();
        match self.error.take() {
            Some(e) => Err(e),
            None => flush,
        }
    }
}

/// What [`TunerDriver::step`] hands back to the caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// 0-based iteration index of this step.
    pub iteration: usize,
    /// Action that was played.
    pub action: usize,
    /// Measured duration.
    pub duration: f64,
}

/// When and how the driver second-guesses a measurement or a platform
/// change (the resilience half of the tuning loop).
///
/// The [`Default`] policy disables everything — a fault-free run takes
/// exactly the code path it took before this type existed. Use
/// [`ResiliencePolicy::standard`] to switch all mechanisms on.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Declare a measurement suspect when it exceeds `factor ×` the
    /// running duration estimate (median of recent iterations). `None`
    /// disables the timeout check.
    pub timeout_factor: Option<f64>,
    /// How many times a suspect measurement may be re-taken within one
    /// iteration. `0` disables retries entirely.
    pub max_retries: usize,
    /// MAD multiple beyond which a measurement counts as an outlier of
    /// its per-action history (needs ≥ 4 prior observations of the same
    /// action). Only consulted when `max_retries > 0`.
    pub outlier_mad_k: f64,
    /// Drop history records whose action no longer exists after a
    /// platform change (they were measured with a now-dead node).
    pub quarantine: bool,
    /// After a platform change that leaves the live all-nodes count
    /// unmeasured, force the next proposal to all live nodes so bound
    /// mechanisms regain their `y(N)` reference.
    pub rebaseline: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            timeout_factor: None,
            max_retries: 0,
            outlier_mad_k: 8.0,
            quarantine: false,
            rebaseline: false,
        }
    }
}

impl ResiliencePolicy {
    /// All resilience mechanisms on, with conservative thresholds: 3×
    /// timeout, one retry, 8-MAD outlier fence, quarantine and
    /// re-baselining enabled.
    pub fn standard() -> Self {
        ResiliencePolicy {
            timeout_factor: Some(3.0),
            max_retries: 1,
            outlier_mad_k: 8.0,
            quarantine: true,
            rebaseline: true,
        }
    }
}

/// Why [`TunerDriverBuilder::build`] refused to produce a driver.
#[derive(Debug)]
pub enum DriverBuildError {
    /// Neither [`TunerDriverBuilder::strategy`] nor
    /// [`TunerDriverBuilder::kind`] was called.
    MissingStrategy,
    /// The configured [`StrategyKind`] could not be built.
    Strategy(crate::UnknownStrategyError),
    /// The requested [`WarmStart`](crate::WarmStart) could not be
    /// honoured — typically [`StoreError::SpaceMismatch`]: the snapshot
    /// was taken over a different action space than the live one (e.g.
    /// before a fault shrank the platform) and folding it in verbatim
    /// could re-introduce excluded actions.
    WarmStart(adaphet_store::StoreError),
}

impl std::fmt::Display for DriverBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverBuildError::MissingStrategy => {
                write!(f, "driver builder needs a strategy (call .strategy() or .kind())")
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

/// Typed configuration for [`TunerDriver`] (and, via
/// [`build_session`](TunerDriverBuilder::build_session), the split
/// [`Session`](crate::Session)) — the only way to construct either.
/// Obtain via [`TunerDriver::builder`].
pub struct TunerDriverBuilder {
    space: ActionSpace,
    strategy: Option<Box<dyn Strategy>>,
    kind: Option<crate::StrategyKind>,
    seed: u64,
    iters: Option<usize>,
    best_known: Option<f64>,
    oracle_best: Option<usize>,
    sinks: Vec<Box<dyn TelemetrySink>>,
    resilience: ResiliencePolicy,
    max_in_flight: usize,
    warm_start: crate::WarmStart,
    store: Option<adaphet_store::SurrogateStore>,
    signature: Option<adaphet_store::PlatformSignature>,
}

impl TunerDriverBuilder {
    /// Drive with an already-built strategy (overrides a prior `kind`).
    pub fn strategy(mut self, strategy: Box<dyn Strategy>) -> Self {
        self.strategy = Some(strategy);
        self.kind = None;
        self
    }

    /// Drive with a [`StrategyKind`](crate::StrategyKind), built at
    /// [`build`](Self::build) time from the space, seed and (for the
    /// oracle) [`oracle_best`](Self::oracle_best).
    pub fn kind(mut self, kind: crate::StrategyKind) -> Self {
        self.kind = Some(kind);
        self.strategy = None;
        self
    }

    /// Seed for stochastic strategies built via [`kind`](Self::kind).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Default iteration budget consumed by
    /// [`TunerDriver::run_configured`].
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

    /// Best action for [`StrategyKind::Oracle`](crate::StrategyKind).
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

    /// Cap the pending-action ledger of a split
    /// [`Session`](crate::Session) (default: unbounded). The synchronous
    /// [`TunerDriver`] loop never has more than one proposal in flight,
    /// so this only matters for [`build_session`](Self::build_session)
    /// consumers like the tuning service.
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
    pub fn warm_start(mut self, warm: crate::WarmStart) -> Self {
        self.warm_start = warm;
        self
    }

    /// Attach a persistent [`SurrogateStore`]: the source for
    /// [`WarmStart::FromStore`] look-ups, and the destination the built
    /// [`Session`](crate::Session) snapshots itself into when it finishes.
    pub fn store(mut self, store: &adaphet_store::SurrogateStore) -> Self {
        self.store = Some(store.clone());
        self
    }

    /// The platform signature used to key store look-ups and the
    /// session's own closing snapshot. Defaults to
    /// [`signature_from_space`](crate::signature_from_space) of the
    /// builder's space (exact same-space re-runs still round-trip, but
    /// cross-platform similarity needs real speeds/bandwidths).
    pub fn signature(mut self, sig: adaphet_store::PlatformSignature) -> Self {
        self.signature = Some(sig);
        self
    }

    /// Build the split propose/observe [`Session`](crate::Session) state
    /// machine (what services shard across worker threads).
    pub fn build_session(self) -> Result<crate::Session, DriverBuildError> {
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
            crate::WarmStart::Cold => {}
            crate::WarmStart::FromSnapshot(snap) => {
                snap.matches_space(space.max_nodes, &space.groups)
                    .map_err(DriverBuildError::WarmStart)?;
                strategy.warm_start(crate::SurrogatePrior::from_snapshot(&snap));
                warm_started = true;
            }
            crate::WarmStart::FromStore { min_similarity } => {
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
                        strategy.warm_start(crate::SurrogatePrior::from_snapshot(&snap));
                        warm_started = true;
                    }
                }
            }
        }
        Ok(crate::Session::from_parts(
            strategy,
            space,
            self.sinks,
            self.best_known,
            self.iters,
            self.resilience,
            self.max_in_flight,
            self.store,
            self.signature,
            warm_started,
        ))
    }

    /// Build the driver (the synchronous loop over an owned session).
    pub fn build(self) -> Result<TunerDriver, DriverBuildError> {
        Ok(TunerDriver { session: self.build_session()? })
    }
}

/// The canonical propose → execute → record loop.
///
/// Construction goes through the typed [`TunerDriver::builder`]:
///
/// ```
/// use adaphet_core::{ActionSpace, Observation, ResiliencePolicy, StrategyKind, TunerDriver};
///
/// let space = ActionSpace::unstructured(8);
/// let mut driver = TunerDriver::builder(&space)
///     .kind(StrategyKind::GpUcb)
///     .seed(0)
///     .iters(10)
///     .resilience(ResiliencePolicy::standard())
///     .build()
///     .unwrap();
/// driver.run_configured(|n| Observation::of(16.0 / n as f64 + n as f64));
/// assert_eq!(driver.history().len(), 10);
/// ```
pub struct TunerDriver {
    session: crate::Session,
}

impl TunerDriver {
    /// Start a typed configuration over `space`.
    pub fn builder(space: &ActionSpace) -> TunerDriverBuilder {
        TunerDriverBuilder {
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
            warm_start: crate::WarmStart::Cold,
            store: None,
            signature: None,
        }
    }

    /// Attach a telemetry sink after construction.
    pub fn add_sink(&mut self, sink: Box<dyn TelemetrySink>) {
        self.session.add_sink(sink);
    }

    /// The strategy driving the loop.
    pub fn strategy(&self) -> &dyn Strategy {
        self.session.strategy()
    }

    /// The live action space the next proposal will be drawn from.
    pub fn space(&self) -> &ActionSpace {
        self.session.space()
    }

    /// The active resilience policy.
    pub fn resilience(&self) -> &ResiliencePolicy {
        self.session.resilience()
    }

    /// Observations recorded so far (quarantined records removed).
    pub fn history(&self) -> &History {
        self.session.history()
    }

    /// Monotone count of iterations executed (never shrinks, unlike
    /// `history().len()` under quarantine).
    pub fn iterations_run(&self) -> usize {
        self.session.iterations_proposed()
    }

    /// The iteration budget configured via
    /// [`TunerDriverBuilder::iters`], if any.
    pub fn configured_iters(&self) -> Option<usize> {
        self.session.configured_iters()
    }

    /// The underlying propose/observe [`Session`](crate::Session).
    pub fn session(&self) -> &crate::Session {
        &self.session
    }

    /// The loop's convergence-health report (see
    /// [`Session::health`](crate::Session::health)).
    pub fn health(&self) -> crate::HealthReport {
        self.session.health()
    }

    /// Unwrap the driver into its [`Session`](crate::Session) (sinks and
    /// history travel with it) — the migration path from a synchronous
    /// loop to service-managed tuning.
    pub fn into_session(self) -> crate::Session {
        self.session
    }

    /// Consume the driver, returning the history (sinks are finished).
    ///
    /// # Panics
    ///
    /// Panics if a sink fails to finish: telemetry that was explicitly
    /// attached must not vanish silently. Call [`TunerDriver::finish`]
    /// first to handle the error gracefully (sinks latch their error and
    /// raise it only once, so a handled error is not raised again here).
    pub fn into_history(self) -> History {
        self.session.into_history()
    }

    /// Replace the live action space mid-run (platform fault: node death
    /// shrank the cluster, or a repair grew it back).
    ///
    /// `stale_from` names the first action whose past measurements are no
    /// longer trustworthy — for a death of rank `r`, every measurement
    /// that used `≥ r` nodes ran on the dead node. With
    /// [`ResiliencePolicy::quarantine`] on, those records are dropped;
    /// with [`ResiliencePolicy::rebaseline`] on and no surviving
    /// observation of the new all-nodes count, the next proposal is
    /// forced to `new_space.max_nodes` (emitting a `tuner.rebaseline`
    /// count) so bound mechanisms regain their reference. `note` is
    /// carried into the next [`IterationEvent::fault`] annotation.
    pub fn apply_platform_change(
        &mut self,
        new_space: &ActionSpace,
        stale_from: Option<usize>,
        note: impl Into<String>,
    ) {
        self.session.apply_platform_change(new_space, stale_from, note);
    }

    /// Run one iteration: propose, execute (re-measuring suspect
    /// observations up to the policy's retry budget), record, emit
    /// telemetry.
    ///
    /// This is exactly one [`Session::propose`](crate::Session::propose)
    /// resolved to completion: the executor is re-invoked while the
    /// session answers [`Observed::Retry`](crate::Observed), so behaviour
    /// is bit-identical to the pre-split owning loop.
    ///
    /// Proposals must satisfy the [`Strategy::propose`] range contract
    /// over the *live* space; the session checks it with a
    /// `debug_assert!` so violations surface in tests rather than
    /// corrupting downstream lookups.
    pub fn step<F: FnMut(usize) -> Observation>(&mut self, mut execute: F) -> StepOutcome {
        let proposal =
            self.session.propose().expect("the sequential loop never exceeds the ledger cap");
        let mut obs = execute(proposal.action);
        loop {
            match self
                .session
                .observe(proposal.ticket, obs)
                .expect("the ticket was just issued and stays in the ledger until recorded")
            {
                crate::Observed::Recorded(outcome) => return outcome,
                crate::Observed::Retry { action, .. } => obs = execute(action),
            }
        }
    }

    /// Run `iters` iterations through the same executor.
    pub fn run<F: FnMut(usize) -> Observation>(&mut self, iters: usize, mut execute: F) {
        for _ in 0..iters {
            self.step(&mut execute);
        }
    }

    /// Run the iteration budget configured via
    /// [`TunerDriverBuilder::iters`].
    ///
    /// # Panics
    ///
    /// Panics if no budget was configured.
    pub fn run_configured<F: FnMut(usize) -> Observation>(&mut self, execute: F) {
        let iters = self
            .session
            .configured_iters()
            .expect("no iteration budget configured (builder .iters())");
        self.run(iters, execute);
    }

    /// Finish all sinks (flush files). Every sink is finished even if an
    /// earlier one fails; the first error is returned. Idempotent: sinks
    /// surface a latched error once.
    pub fn finish(&mut self) -> io::Result<()> {
        self.session.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GpDiscontinuous, StrategyKind};

    fn space() -> ActionSpace {
        ActionSpace::new(
            10,
            vec![(1, 5), (6, 10)],
            Some((1..=10).map(|n| 30.0 / n as f64).collect()),
        )
    }

    fn response(n: usize) -> f64 {
        30.0 / n as f64 + 0.8 * n as f64
    }

    fn driver_for(sp: &ActionSpace, strat: Box<dyn Strategy>) -> TunerDriver {
        TunerDriver::builder(sp).strategy(strat).build().unwrap()
    }

    #[test]
    fn driver_records_every_iteration() {
        let sp = space();
        let mut d = driver_for(&sp, Box::new(GpDiscontinuous::new(&sp)));
        d.run(15, |n| Observation::of(response(n)));
        assert_eq!(d.history().len(), 15);
        assert_eq!(d.iterations_run(), 15);
        let total: f64 = d.history().records().iter().map(|&(_, y)| y).sum();
        assert!((total - d.history().total_time()).abs() < 1e-12);
    }

    #[test]
    fn builder_requires_a_strategy() {
        let sp = space();
        match TunerDriver::builder(&sp).build() {
            Err(DriverBuildError::MissingStrategy) => {}
            other => panic!("expected MissingStrategy, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn builder_kind_and_configured_run() {
        let sp = space();
        let mut d = TunerDriver::builder(&sp)
            .kind(StrategyKind::GpDiscontinuous)
            .seed(7)
            .iters(6)
            .build()
            .unwrap();
        assert_eq!(d.configured_iters(), Some(6));
        d.run_configured(|n| Observation::of(response(n)));
        assert_eq!(d.history().len(), 6);
    }

    #[test]
    fn memory_sink_sees_one_event_per_iteration() {
        let sp = space();
        let sink = MemorySink::new();
        let mut d = TunerDriver::builder(&sp)
            .strategy(Box::new(GpDiscontinuous::new(&sp)))
            .sink(Box::new(sink.clone()))
            .best_known(response(6))
            .build()
            .unwrap();
        d.run(12, |n| Observation::of(response(n)));
        let events = sink.events();
        assert_eq!(events.len(), d.history().len());
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.iteration, i);
            assert_eq!(e.strategy, "GP-discontinuous");
            assert!(e.trace.is_some(), "sink wants traces by default");
            assert_eq!(e.regret.unwrap(), e.duration - response(6));
            assert_eq!(e.retries, 0);
            assert_eq!(e.fault, None, "fault-free runs carry no annotation");
        }
        // Cumulative time is monotone and matches the history total.
        let last = events.last().unwrap();
        assert!((last.cumulative_time - d.history().total_time()).abs() < 1e-9);
    }

    #[test]
    fn no_sink_means_no_explain_calls() {
        use std::sync::atomic::{AtomicUsize, Ordering};
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
        let mut d = driver_for(&sp, Box::new(Spy { explains: count.clone() }));
        d.run(5, |_| Observation::of(1.0));
        assert_eq!(count.load(Ordering::Relaxed), 0, "explain must not run without a sink");

        let mut d = TunerDriver::builder(&sp)
            .strategy(Box::new(Spy { explains: count.clone() }))
            .sink(Box::new(MemorySink::new()))
            .build()
            .unwrap();
        d.run(5, |_| Observation::of(1.0));
        assert_eq!(count.load(Ordering::Relaxed), 5, "explain runs once per iteration with a sink");
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_iteration() {
        let sp = space();
        let strat = StrategyKind::GpDiscontinuous.build(&sp, 0, None).unwrap();
        // Route through a shared buffer we can read back.
        struct Tee(Arc<Mutex<Vec<u8>>>);
        impl Write for Tee {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut d = TunerDriver::builder(&sp)
            .strategy(strat)
            .sink(Box::new(JsonlSink::new(Tee(buf.clone()))))
            .build()
            .unwrap();
        d.run(8, |n| Observation::of(response(n)));
        d.finish().expect("no I/O errors on an in-memory buffer");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 8);
        for line in lines {
            assert!(line.starts_with("{\"iteration\":"), "line: {line}");
            assert!(line.ends_with('}'), "line: {line}");
        }
    }

    /// A writer that fails every call, as a stand-in for a closed file.
    struct FailingWriter;
    impl Write for FailingWriter {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "writer closed"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failing_jsonl_writer_surfaces_an_error_from_finish() {
        let sp = ActionSpace::unstructured(4);
        let mut d = TunerDriver::builder(&sp)
            .strategy(Box::new(crate::AllNodes::new(4)))
            .sink(Box::new(JsonlSink::new(FailingWriter)))
            .build()
            .unwrap();
        // The run itself is never aborted by telemetry failures...
        d.run(3, |_| Observation::of(1.0));
        assert_eq!(d.history().len(), 3);
        // ...but finish reports the first error instead of dropping it.
        let err = d.finish().expect_err("sink error must surface");
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The latched error is raised exactly once.
        assert!(d.finish().is_ok(), "handled errors are not raised twice");
    }

    #[test]
    fn drivers_and_sinks_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TunerDriver>();
        assert_send::<MemorySink>();
        assert_send::<JsonlSink<io::Sink>>();
        assert_send::<JsonlSink<BufWriter<File>>>();
        assert_send::<Box<dyn TelemetrySink>>();
        assert_send::<Box<dyn Strategy>>();
    }

    #[test]
    fn driver_with_sink_moves_across_threads() {
        let sp = space();
        let sink = MemorySink::new();
        let mut d = TunerDriver::builder(&sp)
            .strategy(Box::new(GpDiscontinuous::new(&sp)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        let handle = std::thread::spawn(move || {
            d.run(4, |n| Observation::of(response(n)));
            d.into_history().len()
        });
        assert_eq!(handle.join().unwrap(), 4);
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn phases_flow_into_events() {
        let sp = ActionSpace::unstructured(4);
        let sink = MemorySink::new();
        let mut d = TunerDriver::builder(&sp)
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
    fn json_escapes_and_nonfinite() {
        let e = IterationEvent {
            iteration: 0,
            strategy: "a\"b\\c".into(),
            action: 1,
            duration: f64::NAN,
            cumulative_time: 1.0,
            best_known: None,
            regret: None,
            phases: vec![],
            trace: None,
            phase_breakdown: None,
            retries: 0,
            fault: None,
            snapshot: None,
        };
        let j = e.to_json();
        assert!(j.contains("\"strategy\":\"a\\\"b\\\\c\""));
        assert!(j.contains("\"duration\":null"));
        assert!(j.contains("\"best_known\":null"));
        assert!(
            j.ends_with("\"phase_breakdown\":null,\"retries\":0,\"fault\":null,\"snapshot\":null}"),
            "{j}"
        );
    }

    #[test]
    fn fault_annotation_serializes_as_a_string() {
        let e = IterationEvent {
            iteration: 3,
            strategy: "s".into(),
            action: 2,
            duration: 1.0,
            cumulative_time: 4.0,
            best_known: None,
            regret: None,
            phases: vec![],
            trace: None,
            phase_breakdown: None,
            retries: 2,
            fault: Some("node-death:rank=5;rebaseline".into()),
            snapshot: None,
        };
        let j = e.to_json();
        assert!(
            j.ends_with(
                "\"retries\":2,\"fault\":\"node-death:rank=5;rebaseline\",\"snapshot\":null}"
            ),
            "{j}"
        );
    }

    #[test]
    fn posterior_snapshots_flow_into_events_once_the_gp_fits() {
        let sp = space();
        let sink = MemorySink::new();
        let mut d = TunerDriver::builder(&sp)
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
    fn no_sink_means_no_snapshot_computation() {
        use std::sync::atomic::{AtomicUsize, Ordering};
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
        let mut d = driver_for(&sp, Box::new(Spy { snapshots: count.clone() }));
        d.run(5, |_| Observation::of(1.0));
        assert_eq!(count.load(Ordering::Relaxed), 0, "snapshot must not run without a sink");
    }

    #[test]
    fn breakdown_flows_into_events() {
        let sp = ActionSpace::unstructured(4);
        let sink = MemorySink::new();
        let mut d = TunerDriver::builder(&sp)
            .strategy(Box::new(crate::AllNodes::new(4)))
            .sink(Box::new(sink.clone()))
            .build()
            .unwrap();
        let breakdown = PhaseBreakdown {
            phases: vec![PhaseSlice::new("generation", 0.5), PhaseSlice::new("solve", 1.5)],
            groups: vec![GroupUtilization { name: "g:1-4".into(), busy_s: 6.0, idle_s: 2.0 }],
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
    fn timeout_suspects_are_retried_and_annotated() {
        let sp = ActionSpace::unstructured(4);
        let sink = MemorySink::new();
        let mut d = TunerDriver::builder(&sp)
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
        let mut d = TunerDriver::builder(&sp)
            .strategy(Box::new(crate::AllNodes::new(4)))
            .resilience(ResiliencePolicy {
                timeout_factor: None,
                max_retries: 1,
                outlier_mad_k: 8.0,
                quarantine: false,
                rebaseline: false,
            })
            .build()
            .unwrap();
        // Tight per-action history around 1.0 (4 points), then a spike.
        let mut durations = vec![1.0, 1.01, 0.99, 1.0, 50.0, 1.0].into_iter();
        let mut executions = 0;
        d.run(5, |_| {
            executions += 1;
            Observation::of(durations.next().unwrap())
        });
        // Iteration 5 measured 50.0 (an 8-MAD outlier of {≈1.0}×4), was
        // retried once, and recorded the clean re-measurement.
        assert_eq!(executions, 6);
        assert_eq!(d.history().records().last(), Some(&(4, 1.0)));
        assert_eq!(d.history().len(), 5);
    }

    #[test]
    fn default_policy_never_retries() {
        let sp = ActionSpace::unstructured(4);
        let mut d = driver_for(&sp, Box::new(crate::AllNodes::new(4)));
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
        let mut d = TunerDriver::builder(&sp)
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
        let mut d = driver_for(&sp, Box::new(crate::naive::DivideConquer::new(&sp)));
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
        let mut d = TunerDriver::builder(&sp)
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
        assert_eq!(d.iterations_run(), 6);
    }
}
