//! Per-session convergence health: signals, a declarative rule engine,
//! and hysteresis.
//!
//! The paper's premise is *quickly learning how to run fast* — so the
//! first question an operator asks of a long-running session is "is it
//! still learning?". [`HealthTracker`] answers it from the iteration
//! stream alone, with arithmetic cheap enough to run unconditionally on
//! the session hot path (no surrogate refits, no allocation beyond a
//! bounded window):
//!
//! * **regret slope** — least-squares slope of the recent durations,
//!   normalized by their mean (a unitless per-record trend);
//! * **stall** — records since the session best last improved;
//! * **exploration collapse** — the strategy's posterior sd ceiling
//!   (taken opportunistically from snapshots the session already
//!   computes) against the LP lower bound gap;
//! * **retry / fault pressure** — the resilience policy's retry and
//!   quarantine verdicts inside the window;
//! * **warm-start effectiveness** — whether a warm-started session
//!   reached the best-known band faster than the cold baseline estimate.
//!
//! A small declarative [rule table](HealthTracker::rules) folds the
//! signals into [`HealthState`] (`Ok / Warn(reason) / Stalled /
//! Diverging`); the first matching rule wins, so severity is the table
//! order. Transitions are damped by hysteresis: a candidate state must
//! win two consecutive evaluations before it becomes the published state
//! (and increments the `tuner.health.transition` counter). The thresholds
//! are fixed, conservative constants, like the rest of the tuner's
//! choices beside the node count.

use crate::strategy::PosteriorSnapshot;
use std::collections::VecDeque;

/// Published convergence-health state of a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthState {
    /// Converging normally (or too little data to say otherwise).
    Ok,
    /// Something needs operator attention; the payload is a stable
    /// machine-readable reason slug (`"fault-pressure"`,
    /// `"retry-pressure"`, `"exploration-collapse"`,
    /// `"warm-start-ineffective"`).
    Warn(String),
    /// The best-known band is out of reach and the best has not improved
    /// in 10 records.
    Stalled,
    /// Recent durations are trending up.
    Diverging,
}

impl HealthState {
    /// Canonical lowercase state name — the wire enum string, pinned by
    /// the service golden tests.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Ok => "ok",
            HealthState::Warn(_) => "warn",
            HealthState::Stalled => "stalled",
            HealthState::Diverging => "diverging",
        }
    }

    /// The warn reason slug, when the state carries one.
    pub fn reason(&self) -> Option<&str> {
        match self {
            HealthState::Warn(r) => Some(r.as_str()),
            _ => None,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.reason() {
            Some(r) => write!(f, "warn({r})"),
            None => f.write_str(self.as_str()),
        }
    }
}

/// Sliding-window length, in recorded observations, over which the
/// slope / retry / fault signals are computed.
const WINDOW: usize = 12;
/// Records without a new session best before the stall rule fires.
const STALL_K: usize = 10;
/// Fractional band over the best-known duration inside which the session
/// counts as converged (`duration <= (1 + BAND) * best_known`).
const BAND: f64 = 0.10;
/// Normalized slope (per record, relative to the window mean) above which
/// the divergence rule fires; requires a full window.
const DIVERGE_SLOPE: f64 = 0.02;
/// Retry verdicts inside the window before the retry-pressure rule fires.
const WARN_RETRIES: usize = 2;
/// Posterior sd ceiling, relative to the LP gap, below which exploration
/// counts as collapsed (when the LP gap says the optimum may not have been
/// found yet).
const SD_COLLAPSE: f64 = 1e-3;
/// Consecutive evaluations a candidate state must win before it is
/// published.
const HYSTERESIS: usize = 2;

/// The raw signals the rule engine folds — exposed so services can put
/// them on the wire next to the folded state.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthSignals {
    /// Total observations recorded.
    pub records: usize,
    /// Records since the session best last improved.
    pub since_best: usize,
    /// Normalized least-squares slope of the window durations (per
    /// record, relative to the window mean); `None` until the window is
    /// full.
    pub regret_slope: Option<f64>,
    /// Retry verdicts attached to records inside the window.
    pub retries_window: usize,
    /// Fault-annotated records (node death, quarantine, rebaseline)
    /// inside the window.
    pub faults_window: usize,
    /// Largest posterior sd from the most recent snapshot the session
    /// computed, when a surrogate strategy produced one.
    pub posterior_sd_max: Option<f64>,
    /// Gap between the session best and the LP lower bound's minimum,
    /// when the space carries an LP curve.
    pub lp_gap: Option<f64>,
    /// Whether the latest record landed inside the best-known band
    /// (`None` without a best-known reference).
    pub in_band: Option<bool>,
    /// First record index (1-based) that landed inside the best-known
    /// band, `None` until it happens.
    pub band_record: Option<usize>,
    /// Whether the session's surrogate was warm-started.
    pub warm_started: bool,
}

/// One published health evaluation: the folded state plus the signals
/// behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// The folded, hysteresis-damped state.
    pub state: HealthState,
    /// The signals the rule engine saw.
    pub signals: HealthSignals,
    /// Published state transitions so far (0 while the session has only
    /// ever been `Ok`).
    pub transitions: u64,
}

struct WindowRecord {
    duration: f64,
    retries: usize,
    faulted: bool,
}

/// One rule of the engine: a name (the warn reason slug where relevant)
/// and a predicate from signals to a state. Rules are evaluated in table
/// order; the first `Some` wins. `cold_baseline` is the session's
/// warm-start allowance (see [`HealthTracker::new`]).
struct Rule {
    name: &'static str,
    check: fn(&HealthSignals, usize) -> Option<HealthState>,
}

/// The declarative rule table, severity-ordered (see DESIGN.md §9 for
/// the prose semantics of each rule).
const RULES: &[Rule] = &[
    Rule {
        name: "diverging",
        check: |s, _| match s.regret_slope {
            Some(slope) if slope > DIVERGE_SLOPE => Some(HealthState::Diverging),
            _ => None,
        },
    },
    Rule {
        name: "stalled",
        check: |s, _| {
            (s.since_best >= STALL_K && s.in_band == Some(false)).then_some(HealthState::Stalled)
        },
    },
    Rule {
        name: "fault-pressure",
        check: |s, _| (s.faults_window > 0).then(|| HealthState::Warn("fault-pressure".into())),
    },
    Rule {
        name: "retry-pressure",
        check: |s, _| {
            (s.retries_window >= WARN_RETRIES).then(|| HealthState::Warn("retry-pressure".into()))
        },
    },
    Rule {
        name: "exploration-collapse",
        check: |s, _| match (s.posterior_sd_max, s.lp_gap) {
            (Some(sd), Some(gap))
                if s.in_band == Some(false) && gap > 0.0 && sd < SD_COLLAPSE * gap =>
            {
                Some(HealthState::Warn("exploration-collapse".into()))
            }
            _ => None,
        },
    },
    Rule {
        name: "warm-start-ineffective",
        check: |s, cold_baseline| {
            (s.warm_started
                && s.in_band.is_some()
                && s.band_record.is_none()
                && s.records > cold_baseline)
                .then(|| HealthState::Warn("warm-start-ineffective".into()))
        },
    },
];

/// Derives a session's convergence-health state from its iteration
/// stream. Owned by [`Session`](crate::Session); fed on every record /
/// retry / snapshot, queried via [`Session::health`](crate::Session::health).
pub struct HealthTracker {
    /// Records a warm-started session gets to reach the best-known band
    /// before the warm-start-ineffective rule fires.
    cold_baseline: usize,
    window: VecDeque<WindowRecord>,
    records: usize,
    best: Option<f64>,
    since_best: usize,
    best_known: Option<f64>,
    lp_min: Option<f64>,
    warm_started: bool,
    posterior_sd_max: Option<f64>,
    in_band: Option<bool>,
    band_record: Option<usize>,
    state: HealthState,
    /// Hysteresis: the candidate state currently accumulating wins, and
    /// how many consecutive evaluations it has won.
    candidate: Option<(HealthState, usize)>,
    transitions: u64,
}

impl HealthTracker {
    /// A fresh tracker in state `Ok`. A warm-started session gets the
    /// cold baseline estimate, `max(8, max_nodes / 2)` records, to reach
    /// the best-known band.
    pub fn new(
        max_nodes: usize,
        best_known: Option<f64>,
        lp_min: Option<f64>,
        warm_started: bool,
    ) -> Self {
        HealthTracker {
            cold_baseline: 8.max(max_nodes / 2),
            window: VecDeque::new(),
            records: 0,
            best: None,
            since_best: 0,
            best_known,
            lp_min,
            warm_started,
            posterior_sd_max: None,
            in_band: None,
            band_record: None,
            state: HealthState::Ok,
            candidate: None,
            transitions: 0,
        }
    }

    /// The rule names, in severity order (for docs and introspection).
    pub fn rules() -> Vec<&'static str> {
        RULES.iter().map(|r| r.name).collect()
    }

    /// Feed one recorded observation: its duration, how many retries the
    /// resilience policy spent on it, and whether it carried a fault
    /// annotation (node death, quarantine, rebaseline). Re-evaluates the
    /// state.
    pub fn on_record(&mut self, duration: f64, retries: usize, faulted: bool) {
        self.records += 1;
        match self.best {
            Some(b) if duration >= b => self.since_best += 1,
            _ => {
                self.best = Some(duration);
                self.since_best = 0;
            }
        }
        if let Some(bk) = self.best_known {
            let inside = duration <= (1.0 + BAND) * bk;
            self.in_band = Some(inside);
            if inside && self.band_record.is_none() {
                self.band_record = Some(self.records);
            }
        }
        if self.window.len() >= WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(WindowRecord { duration, retries, faulted });
        self.evaluate();
    }

    /// Feed the posterior snapshot the session computed anyway (never
    /// triggers surrogate work of its own): retains the sd ceiling.
    pub fn on_posterior(&mut self, snapshot: &PosteriorSnapshot) {
        let sd_max = snapshot.points.iter().map(|p| p.sd).fold(f64::NEG_INFINITY, f64::max);
        if sd_max.is_finite() {
            self.posterior_sd_max = Some(sd_max);
        }
    }

    /// The current signals (what [`report`](Self::report) embeds).
    pub fn signals(&self) -> HealthSignals {
        HealthSignals {
            records: self.records,
            since_best: self.since_best,
            regret_slope: self.slope(),
            retries_window: self.window.iter().map(|r| r.retries).sum(),
            faults_window: self.window.iter().filter(|r| r.faulted).count(),
            posterior_sd_max: self.posterior_sd_max,
            lp_gap: match (self.best, self.lp_min) {
                (Some(b), Some(lp)) => Some(b - lp),
                _ => None,
            },
            in_band: self.in_band,
            band_record: self.band_record,
            warm_started: self.warm_started,
        }
    }

    /// The published state (hysteresis-damped).
    pub fn state(&self) -> &HealthState {
        &self.state
    }

    /// Published transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// The full report: state, signals, transition count.
    pub fn report(&self) -> HealthReport {
        HealthReport {
            state: self.state.clone(),
            signals: self.signals(),
            transitions: self.transitions,
        }
    }

    /// Normalized least-squares slope of the window durations; `None`
    /// until the window is full (a short window's trend is noise).
    fn slope(&self) -> Option<f64> {
        if self.window.len() < WINDOW {
            return None;
        }
        let n = self.window.len() as f64;
        let mean_x = (n - 1.0) / 2.0;
        let mean_y = self.window.iter().map(|r| r.duration).sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, r) in self.window.iter().enumerate() {
            let dx = i as f64 - mean_x;
            num += dx * (r.duration - mean_y);
            den += dx * dx;
        }
        if den <= 0.0 || mean_y.abs() < f64::EPSILON {
            return Some(0.0);
        }
        Some(num / den / mean_y.abs())
    }

    /// Fold the rule table over the current signals and apply hysteresis.
    fn evaluate(&mut self) {
        let signals = self.signals();
        let verdict = RULES
            .iter()
            .find_map(|r| (r.check)(&signals, self.cold_baseline))
            .unwrap_or(HealthState::Ok);
        if verdict == self.state {
            self.candidate = None;
            return;
        }
        let streak = match self.candidate.take() {
            Some((c, streak)) if c == verdict => streak + 1,
            _ => 1,
        };
        if streak >= HYSTERESIS {
            self.state = verdict;
            self.transitions += 1;
            adaphet_metrics::global().add("tuner.health.transition", 1.0);
        } else {
            self.candidate = Some((verdict, streak));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> HealthTracker {
        HealthTracker::new(10, Some(4.0), Some(3.0), false)
    }

    #[test]
    fn starts_ok_and_stays_ok_on_improving_durations() {
        let mut t = tracker();
        for i in 0..30 {
            t.on_record(10.0 - 0.2 * i as f64, 0, false);
        }
        assert_eq!(*t.state(), HealthState::Ok);
        assert_eq!(t.transitions(), 0);
        let s = t.signals();
        assert_eq!(s.since_best, 0);
        assert!(s.regret_slope.unwrap() < 0.0);
    }

    #[test]
    fn rising_durations_diverge_and_recover() {
        let mut t = tracker();
        for _ in 0..12 {
            t.on_record(4.1, 0, false); // in-band plateau
        }
        assert_eq!(*t.state(), HealthState::Ok);
        for i in 0..14 {
            t.on_record(5.0 + 0.8 * i as f64, 0, false);
        }
        assert_eq!(*t.state(), HealthState::Diverging, "{:?}", t.signals());
        // Back to flat: slope decays, state recovers through hysteresis.
        for _ in 0..20 {
            t.on_record(4.0, 0, false);
        }
        assert_eq!(*t.state(), HealthState::Ok);
        assert!(t.transitions() >= 2);
    }

    #[test]
    fn no_new_best_above_band_is_stalled() {
        let mut t = tracker();
        t.on_record(6.0, 0, false); // best = 6, band is 4.4
        for _ in 0..15 {
            t.on_record(6.5, 0, false);
        }
        assert_eq!(*t.state(), HealthState::Stalled, "{:?}", t.signals());
        // A best inside the band clears the stall.
        t.on_record(4.2, 0, false);
        t.on_record(4.2, 0, false);
        assert_eq!(*t.state(), HealthState::Ok);
    }

    #[test]
    fn converged_sessions_do_not_stall() {
        // In-band plateau: no new best, but nothing to find either.
        let mut t = tracker();
        for _ in 0..40 {
            t.on_record(4.1, 0, false);
        }
        assert_eq!(*t.state(), HealthState::Ok, "{:?}", t.signals());
    }

    #[test]
    fn faults_warn_then_age_out() {
        let mut t = tracker();
        for _ in 0..12 {
            t.on_record(4.1, 0, false);
        }
        t.on_record(5.0, 0, true); // quarantine/rebaseline record
        t.on_record(4.1, 0, false);
        t.on_record(4.1, 0, false);
        assert_eq!(*t.state(), HealthState::Warn("fault-pressure".into()));
        for _ in 0..14 {
            t.on_record(4.1, 0, false);
        }
        assert_eq!(*t.state(), HealthState::Ok, "fault aged out of the window");
        assert_eq!(t.transitions(), 2);
    }

    #[test]
    fn retry_pressure_warns() {
        let mut t = tracker();
        for _ in 0..5 {
            t.on_record(4.1, 0, false);
        }
        t.on_record(4.1, 1, false);
        t.on_record(4.1, 1, false);
        t.on_record(4.1, 0, false);
        assert_eq!(*t.state(), HealthState::Warn("retry-pressure".into()));
    }

    #[test]
    fn hysteresis_dampens_single_evaluation_flips() {
        let mut t = tracker();
        for _ in 0..8 {
            t.on_record(4.1, 0, false);
        }
        // One faulted record makes Warn the candidate, but the state only
        // flips on the second consecutive Warn evaluation.
        t.on_record(4.5, 0, true);
        assert_eq!(*t.state(), HealthState::Ok);
        t.on_record(4.1, 0, false);
        assert_eq!(*t.state(), HealthState::Warn("fault-pressure".into()));
    }

    #[test]
    fn exploration_collapse_needs_sd_floor_and_open_gap() {
        let mut t = tracker();
        // Above band (best 6 > 4.4), tiny posterior sd, real LP gap.
        t.on_posterior(&PosteriorSnapshot {
            points: vec![crate::strategy::PosteriorPoint {
                action: 1,
                mean: 6.0,
                sd: 1e-6,
                lp_bound: Some(3.0),
                excluded: false,
            }],
        });
        t.on_record(6.0, 0, false);
        t.on_record(6.0, 0, false);
        assert_eq!(*t.state(), HealthState::Warn("exploration-collapse".into()));
        let s = t.signals();
        assert_eq!(s.lp_gap, Some(3.0));
        assert_eq!(s.posterior_sd_max, Some(1e-6));
    }

    #[test]
    fn ineffective_warm_start_warns_effective_one_does_not() {
        let mut warm = HealthTracker::new(10, Some(4.0), None, true);
        // Reaches the band immediately: never warns about warm start.
        for _ in 0..20 {
            warm.on_record(4.1, 0, false);
        }
        assert_eq!(*warm.state(), HealthState::Ok);
        assert_eq!(warm.signals().band_record, Some(1));

        let mut bad = HealthTracker::new(10, Some(4.0), None, true);
        // Stays well above the band past the cold baseline, max(8, 10 / 2)
        // records: the rule matches from record 9 and publishes at record
        // 10 through hysteresis, one record before the stall rule could
        // (record 11 is the first with STALL_K records since the best).
        for _ in 0..10 {
            bad.on_record(6.0, 0, false);
        }
        assert_eq!(bad.signals().since_best, STALL_K - 1, "stall not yet due");
        assert_eq!(*bad.state(), HealthState::Warn("warm-start-ineffective".into()));
    }

    #[test]
    fn state_strings_are_canonical() {
        assert_eq!(HealthState::Ok.as_str(), "ok");
        assert_eq!(HealthState::Warn("x".into()).as_str(), "warn");
        assert_eq!(HealthState::Stalled.as_str(), "stalled");
        assert_eq!(HealthState::Diverging.as_str(), "diverging");
        assert_eq!(HealthState::Warn("fault-pressure".into()).to_string(), "warn(fault-pressure)");
        assert_eq!(HealthState::Stalled.to_string(), "stalled");
    }

    #[test]
    fn rule_table_is_severity_ordered() {
        assert_eq!(
            HealthTracker::rules(),
            vec![
                "diverging",
                "stalled",
                "fault-pressure",
                "retry-pressure",
                "exploration-collapse",
                "warm-start-ineffective",
            ]
        );
    }
}
