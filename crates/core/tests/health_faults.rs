//! The `death.json` scenario end to end through the public API: a node
//! death mid-session must be visible on the health plane (`Ok` →
//! `Warn(fault-pressure)`) and must clear again once the re-baselined
//! session has run fault-free long enough for the fault to age out of
//! the signal window.
//!
//! Fault plan mirrored here (the eval tool's JSON flavor):
//! `{"seed":42,"events":[{"kind":"node_death","iteration":15,"rank":5}]}`

use adaphet_core::{ActionSpace, Observation, ResiliencePolicy, Session, StrategyKind};

/// Noise-free, nearly flat response surface. Flat on purpose: the
/// diverging rule outranks fault-pressure in the severity table, so a
/// steep surface explored by UCB would trip the slope rule first and
/// mask the signal this test is about.
fn response(n: usize) -> f64 {
    10.0 + 0.01 * n as f64
}

#[test]
fn node_death_drives_health_warn_and_recovery() {
    let space = ActionSpace::unstructured(8);
    let mut driver = Session::builder(&space)
        .kind(StrategyKind::Ucb)
        .seed(42)
        .resilience(ResiliencePolicy::standard())
        .build()
        .unwrap();

    // Phase 1: fifteen healthy iterations. The session never leaves Ok.
    for _ in 0..15 {
        driver.step(|n| Observation::of(response(n)));
        assert_eq!(driver.health().state.as_str(), "ok");
    }
    assert_eq!(driver.health().transitions, 0);

    // Phase 2: rank 5 dies at iteration 15 — actions ≥ 5 were measured
    // with the dead node, so the space shrinks and the history is
    // quarantined + re-baselined by the resilience policy.
    let survivor = ActionSpace::unstructured(4);
    driver.apply_platform_change(&survivor, Some(5), "node-death:rank=5");
    // The fault annotation lands on the next recorded iteration; with
    // the default hysteresis of 2 the published state flips on the
    // evaluation after that.
    driver.step(|n| Observation::of(response(n)));
    driver.step(|n| Observation::of(response(n)));
    let report = driver.health();
    assert_eq!(report.state.as_str(), "warn", "signals: {:?}", report.signals);
    assert_eq!(report.state.reason(), Some("fault-pressure"));
    assert_eq!(report.transitions, 1);
    assert!(report.signals.faults_window > 0);

    // Phase 3: the re-baselined session keeps measuring cleanly; once
    // the faulted record leaves the sliding window the state recovers.
    for _ in 0..20 {
        driver.step(|n| Observation::of(response(n)));
    }
    let report = driver.health();
    assert_eq!(report.state.as_str(), "ok", "signals: {:?}", report.signals);
    assert_eq!(report.signals.faults_window, 0, "fault aged out of the window");
    assert_eq!(report.transitions, 2, "exactly Ok → Warn → Ok");
}
