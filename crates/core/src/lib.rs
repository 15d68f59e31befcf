#![warn(missing_docs)]

//! Exploration strategies for online heterogeneous node-set selection —
//! the paper's primary contribution.
//!
//! An iterative multi-phase application picks, at every iteration, how
//! many of the fastest nodes to use for its dominant phase, observes the
//! iteration duration, and must converge quickly to the best count. This
//! crate implements every strategy of the paper's Section IV:
//!
//! | strategy | module | paper verdict |
//! |---|---|---|
//! | DC (dichotomy) | [`DivideConquer`] | fast, fooled by noise |
//! | Right-Left | [`RightLeft`] | fast, stuck in local minima |
//! | Brent | [`BrentSearch`] | good until discontinuities/noise |
//! | UCB | [`Ucb`] | no-regret but explores everything |
//! | UCB-struct | [`UcbStruct`] | strong but can miss the optimum |
//! | GP-UCB | [`GpDiscontinuous::gp_ucb`] | good on small smooth spaces |
//! | **GP-discontinuous** | [`GpDiscontinuous`] | robust everywhere (the contribution) |
//!
//! plus the baselines used by the evaluation ([`AllNodes`], [`Oracle`],
//! [`RandomSearch`]).
//!
//! # Protocol
//!
//! Strategies implement [`Strategy`]: the tuning loop is owned by
//! [`Session`], which calls [`Strategy::propose`] with the *live*
//! [`ActionSpace`] and the observation [`History`] so far, hands the
//! returned node count out under a [`Ticket`] ([`Session::propose`]) and
//! records the measured duration when it comes back
//! ([`Session::observe`]); [`Session::run`] is the same loop around a
//! caller-provided executor closure. Proposals must stay inside
//! `1..=space.max_nodes` of the live space — which can shrink mid-run
//! when a node dies (see the [`Strategy`] range contract). All strategies
//! are deterministic given their construction (seeded RNGs where
//! randomness is inherent).
//!
//! Strategies are built by canonical name through [`StrategyKind`];
//! sessions are configured through the typed [`Session::builder`]
//! (strategy, seed, iteration budget, sinks, [`ResiliencePolicy`]) and
//! emit one structured [`IterationEvent`] per iteration to any attached
//! [`TelemetrySink`] — including the strategy's own account of its
//! decision via [`Strategy::explain`].
//!
//! ```
//! use adaphet_core::{ActionSpace, MemorySink, Observation, Session, StrategyKind};
//!
//! // A 10-node cluster, two homogeneous groups, a synthetic LP bound.
//! let space = ActionSpace::new(10, vec![(1, 4), (5, 10)],
//!                              Some((1..=10).map(|n| 40.0 / n as f64).collect()));
//!
//! let sink = MemorySink::new();
//! let mut session = Session::builder(&space)
//!     .kind("GP-discontinuous".parse::<StrategyKind>().unwrap())
//!     .sink(Box::new(sink.clone()))
//!     .build()
//!     .unwrap();
//! // Fake response: best at 6 nodes.
//! session.run(20, |n| {
//!     Observation::of(40.0 / n as f64 + 0.8 * (n as f64)
//!                     + if n >= 5 { 0.0 } else { 6.0 })
//! });
//!
//! assert_eq!(session.history().len(), 20);
//! let events = sink.events();
//! assert_eq!(events.len(), 20);
//! // Once the GP phase starts, events carry posterior diagnostics and
//! // the LP-bound exclusions.
//! assert!(events.iter().any(|e| {
//!     let t = e.trace.as_ref().unwrap();
//!     !t.diagnostics.is_empty() && !t.excluded.is_empty()
//! }));
//! ```

mod action;
mod bandit;
mod brent;
mod event;
mod gp_disc;
mod health;
mod history;
mod kind;
mod naive;
mod session;
mod sink;
mod strategy;
mod warm;

// ---- The curated public surface, by layer ----------------------------
//
// The loop (`Session`), its configuration, what goes in (`Observation`)
// and what comes out (`IterationEvent` → sinks).
pub use adaphet_metrics::{GroupProfile, PhaseBreakdown, PhaseSlice};
pub use event::{IterationEvent, Observation};
pub use health::{HealthReport, HealthSignals, HealthState, HealthTracker};
pub use session::{
    DriverBuildError, Observed, Proposal, ResiliencePolicy, Session, SessionBuilder, SessionError,
    StepOutcome, Ticket,
};
pub use sink::{JsonlSink, MemorySink, TelemetrySink};

// The frozen `bench/` package still spells the loop type by the name of
// the pass-through wrapper it used to be; the ledger PR that next touches
// `bench/` deletes this alias and `SessionBuilder::build_session`.
#[doc(hidden)]
pub type TunerDriver = Session;

// Cross-session warm-starting: the request type, the resolved prior, and
// the persistent store it all rides on (re-exported from `adaphet-store`
// so session users need one crate).
pub use adaphet_store::{
    GpHyper, GroupSig, IndexStats, PlatformSignature, StoreError, SurrogateSnapshot, SurrogateStore,
};
pub use warm::{signature_from_space, SurrogatePrior, WarmStart, PRIOR_NOISE_INFLATION};

// Strategy construction: the validated by-name registry and the trait.
pub use kind::{StrategyKind, UnknownStrategyError, PAPER_STRATEGIES};
pub use strategy::{ActionDiagnostic, DecisionTrace, PosteriorPoint, PosteriorSnapshot, Strategy};

// The problem statement: action spaces and observation histories.
pub use action::ActionSpace;
pub use history::History;

// The strategy zoo (normally reached through [`StrategyKind::build`];
// exported for direct construction with non-default options).
pub use bandit::{Ucb, UcbStruct};
pub use brent::BrentSearch;
pub use gp_disc::{GpDiscOptions, GpDiscontinuous};
pub use naive::{DivideConquer, RightLeft};
pub use strategy::{AllNodes, Oracle, RandomSearch};
