//! Property: for any session count, seeds, and response-curve shape, N
//! sessions driven **concurrently** through the shared `SessionManager`
//! produce histories bit-identical to N **sequential** single-threaded
//! `Session::run` loops with the same seeds. Determinism is per-session
//! (the shard's lock serializes a session's operations); the OS thread
//! schedule must be irrelevant. Below the property: the lock as the one
//! serialization point — contention, shutdown and creates racing it, what
//! the wait leaves in the gauges, and the request accounting.

use adaphet_core::{Observation, Session, StrategyKind};
use adaphet_service::{ErrorCode, Request, Response, ServiceConfig, SessionManager, SessionSpec};
use proptest::prelude::*;
use std::sync::{mpsc, Arc, Barrier};

fn curve(work: f64, slope: f64, jump_at: usize, jump: f64) -> impl Fn(usize) -> f64 + Copy {
    move |n: usize| {
        let base = work / n as f64 + slope * n as f64;
        if n < jump_at {
            base + jump
        } else {
            base
        }
    }
}

fn spec(kind: StrategyKind, seed: u64, max_nodes: usize, work: f64) -> SessionSpec {
    let mut s = SessionSpec::new(kind, seed, max_nodes);
    s.lp = Some((1..=max_nodes).map(|k| work / k as f64).collect());
    s
}

/// Drive one managed session to completion, returning its history.
fn drive(
    m: &SessionManager,
    s: SessionSpec,
    iters: usize,
    f: impl Fn(usize) -> f64,
) -> Vec<(usize, f64)> {
    let id = match m.handle(Request::CreateSession(s)) {
        Response::SessionCreated { session } => session,
        other => panic!("create failed: {other:?}"),
    };
    for _ in 0..iters {
        let (ticket, action) = match m.handle(Request::GetProposal { session: id }) {
            Response::Proposal { ticket, action, .. } => (ticket, action),
            other => panic!("propose failed: {other:?}"),
        };
        match m.handle(Request::SubmitObservation { session: id, ticket, duration: f(action) }) {
            Response::Recorded { .. } => {}
            other => panic!("observe failed: {other:?}"),
        }
    }
    match m.handle(Request::CloseSession { session: id }) {
        Response::Closed { history, .. } => history,
        other => panic!("close failed: {other:?}"),
    }
}

/// The sequential twin of [`drive`]: the same spec through a plain driver.
fn sequential(s: &SessionSpec, iters: usize, f: impl Fn(usize) -> f64) -> Vec<(usize, f64)> {
    let mut d =
        Session::builder(&s.space().unwrap()).kind(s.strategy).seed(s.seed).build().unwrap();
    d.run(iters, |n| Observation::of(f(n)));
    d.history().records().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn concurrent_managed_sessions_equal_sequential_driver_runs(
        sessions in 2usize..9,
        workers in 1usize..5,
        max_nodes in 4usize..24,
        work in 20.0f64..120.0,
        slope in 0.2f64..1.5,
        seed0 in 0u64..1000,
        iters in 10usize..35,
    ) {
        let f = curve(work, slope, max_nodes / 3 + 1, 5.0);
        let kinds = [
            StrategyKind::GpDiscontinuous,
            StrategyKind::Ucb,
            StrategyKind::GpUcb,
            StrategyKind::Random,
            StrategyKind::DivideConquer,
        ];
        let manager = std::sync::Arc::new(SessionManager::new(ServiceConfig {
            workers,
            idle_timeout: None,
            ..ServiceConfig::default()
        }));

        // Concurrent: one thread per session, distinct seeds.
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let m = std::sync::Arc::clone(&manager);
                let kind = kinds[i % kinds.len()];
                let seed = seed0 + i as u64;
                std::thread::spawn(move || {
                    (i, drive(&m, spec(kind, seed, max_nodes, work), iters, f))
                })
            })
            .collect();
        let mut concurrent: Vec<(usize, Vec<(usize, f64)>)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        concurrent.sort_by_key(|&(i, _)| i);

        // Sequential reference: the same seeds through plain drivers.
        for (i, history) in concurrent {
            let kind = kinds[i % kinds.len()];
            let seed = seed0 + i as u64;
            prop_assert_eq!(
                history,
                sequential(&spec(kind, seed, max_nodes, work), iters, f),
                "session {} ({}, seed {}) diverged from its sequential twin",
                i, kind, seed
            );
        }
    }
}

fn manager(workers: usize) -> Arc<SessionManager> {
    Arc::new(SessionManager::new(ServiceConfig {
        workers,
        idle_timeout: None,
        ..ServiceConfig::default()
    }))
}

fn same_bits(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Eight sessions contending for ONE lock (and, for contrast, spread
/// over four) still replay their sequential twins bit for bit.
#[test]
fn eight_threads_on_one_shard_lock_match_sequential_drivers_bitwise() {
    let kinds = [
        StrategyKind::GpDiscontinuous,
        StrategyKind::Ucb,
        StrategyKind::GpUcb,
        StrategyKind::DivideConquer,
    ];
    let f = curve(30.0, 0.8, 4, 5.0);
    for workers in [1, 4] {
        let m = manager(workers);
        let start = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8u64)
            .map(|seed| {
                let (m, start) = (Arc::clone(&m), Arc::clone(&start));
                let s = spec(kinds[seed as usize % kinds.len()], seed, 10, 30.0);
                std::thread::spawn(move || {
                    start.wait();
                    (s.clone(), drive(&m, s, 30, f))
                })
            })
            .collect();
        for handle in handles {
            let (s, history) = handle.join().unwrap();
            assert!(
                same_bits(&history, &sequential(&s, 30, f)),
                "{} seed {} on {workers} shard(s) diverged from the driver loop",
                s.strategy,
                s.seed
            );
        }
    }
}

/// Two threads take turns on ONE session id — one only proposes, the
/// other only observes, handing the ticket over a channel — and the
/// stream is the single-threaded one.
#[test]
fn two_threads_alternating_verbs_on_one_session_replay_the_single_threaded_stream() {
    let f = curve(30.0, 0.8, 4, 5.0);
    let s = spec(StrategyKind::GpDiscontinuous, 11, 10, 30.0);
    let m = manager(2);
    let Response::SessionCreated { session } = m.handle(Request::CreateSession(s.clone())) else {
        panic!("create failed");
    };
    let (to_observer, tickets) = mpsc::channel::<(u64, usize)>();
    let (to_proposer, recorded) = mpsc::channel::<()>();
    let observer = {
        let m = Arc::clone(&m);
        std::thread::spawn(move || {
            for (ticket, action) in tickets {
                let duration = f(action);
                let reply = m.handle(Request::SubmitObservation { session, ticket, duration });
                assert!(matches!(reply, Response::Recorded { .. }), "{reply:?}");
                to_proposer.send(()).unwrap();
            }
        })
    };
    for _ in 0..30 {
        let Response::Proposal { ticket, action, .. } = m.handle(Request::GetProposal { session })
        else {
            panic!("propose failed");
        };
        to_observer.send((ticket, action)).unwrap();
        recorded.recv().unwrap();
    }
    drop(to_observer);
    observer.join().unwrap();
    let Response::Closed { history, .. } = m.handle(Request::CloseSession { session }) else {
        panic!("close failed");
    };
    assert!(same_bits(&history, &sequential(&s, 30, f)));
}

/// `shutdown` with requests in flight: every reply is a real answer or
/// `shutting-down`, every session is flushed exactly once, and each
/// leaves its snapshot in the store.
#[test]
fn shutdown_with_requests_in_flight_drains_every_session_once() {
    const THREADS: usize = 6;
    let dir = std::env::temp_dir().join(format!("adaphet-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let m = Arc::new(SessionManager::new(ServiceConfig {
        workers: 2,
        idle_timeout: None,
        store_dir: Some(dir.clone()),
        ..ServiceConfig::default()
    }));
    // One closed session, so both ways out of the map are counted.
    drive(&m, spec(StrategyKind::Ucb, 99, 5, 30.0), 3, curve(30.0, 0.8, 2, 5.0));
    let warmed_up = Arc::new(Barrier::new(THREADS + 1));
    let handles: Vec<_> = (0..THREADS)
        .map(|i| {
            let (m, warmed_up) = (Arc::clone(&m), Arc::clone(&warmed_up));
            std::thread::spawn(move || {
                // A node count of its own: a snapshot file of its own.
                let s = spec(StrategyKind::Ucb, i as u64, 6 + i, 30.0);
                let Response::SessionCreated { session } = m.handle(Request::CreateSession(s))
                else {
                    panic!("create failed");
                };
                let shutting_down = |reply: &Response| match reply {
                    Response::Error { code: ErrorCode::ShuttingDown, .. } => true,
                    Response::Error { .. } => panic!("session {session}: {reply:?}"),
                    _ => false,
                };
                for iteration in 0.. {
                    if iteration == 3 {
                        warmed_up.wait();
                    }
                    let reply = m.handle(Request::GetProposal { session });
                    if shutting_down(&reply) {
                        return;
                    }
                    let Response::Proposal { ticket, action, .. } = reply else {
                        panic!("session {session}: {reply:?}");
                    };
                    let duration = 30.0 / action as f64;
                    let reply = m.handle(Request::SubmitObservation { session, ticket, duration });
                    if shutting_down(&reply) {
                        return;
                    }
                    assert!(matches!(reply, Response::Recorded { .. }), "{reply:?}");
                }
            })
        })
        .collect();
    warmed_up.wait();
    m.shutdown();
    for handle in handles {
        handle.join().unwrap();
    }
    let snap = m.stats_snapshot();
    assert_eq!(snap.sessions_created, THREADS as u64 + 1);
    assert_eq!((snap.sessions_closed, snap.sessions_drained), (1, THREADS as u64));
    assert_eq!((snap.sessions_live, snap.in_flight), (0, 0));
    let snapshots = std::fs::read_dir(&dir)
        .unwrap()
        .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "snap"))
        .count();
    assert_eq!(snapshots, THREADS + 1, "one snapshot per flushed session");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A create racing `shutdown` either registers and is drained, or is
/// refused — no session is ever left in a stopped shard.
#[test]
fn a_create_racing_shutdown_is_drained_or_refused() {
    const THREADS: usize = 4;
    let m = manager(2);
    let start = Arc::new(Barrier::new(THREADS + 1));
    let handles: Vec<_> = (0..THREADS as u64)
        .map(|seed| {
            let (m, start) = (Arc::clone(&m), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let mut created = Vec::new();
                loop {
                    let s = spec(StrategyKind::Ucb, seed, 6, 30.0);
                    match m.handle(Request::CreateSession(s)) {
                        Response::SessionCreated { session } => created.push(session),
                        Response::Error { code: ErrorCode::ShuttingDown, .. } => return created,
                        other => panic!("create answered {other:?}"),
                    }
                }
            })
        })
        .collect();
    start.wait();
    m.shutdown();
    let created: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    let snap = m.stats_snapshot();
    assert_eq!(snap.sessions_live, 0);
    assert_eq!(snap.sessions_created, created.len() as u64);
    assert_eq!(snap.sessions_drained, created.len() as u64);
    assert!(snap.shards.iter().all(|s| s.sessions == 0 && s.queue_depth == 0));
    for session in created {
        match m.handle(Request::SubmitObservation { session, ticket: 0, duration: 1.0 }) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::ShuttingDown),
            other => panic!("session {session} outlived the drain: {other:?}"),
        }
    }
}

/// Iterations per session of [`burst`].
const BURST_ITERS: usize = 10;

/// Four threads drive `BURST_ITERS`-iteration sessions on `m` at once;
/// returns the number of requests they sent.
fn burst(m: &Arc<SessionManager>) -> u64 {
    let handles: Vec<_> = (0..4u64)
        .map(|seed| {
            let m = Arc::clone(m);
            std::thread::spawn(move || {
                drive(&m, spec(StrategyKind::Ucb, seed, 6, 30.0), BURST_ITERS, |n| 30.0 / n as f64)
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    // Per session: create, the proposals, the observations, close.
    4 * (2 * BURST_ITERS as u64 + 2)
}

/// After a burst nobody is left waiting on a shard.
#[test]
fn the_lock_wait_shows_in_the_gauges() {
    let m = manager(2);
    burst(&m);
    assert!(m.stats_snapshot().shards.iter().all(|s| s.queue_depth == 0));
}

/// `handle` counts every request, times it under its verb and counts
/// error replies, whichever path the reply took.
#[test]
fn handle_counts_requests_verbs_and_errors() {
    let m = manager(2);
    let sent = burst(&m);
    assert_eq!(m.stats_snapshot().errors, 0);
    let reply = m.handle(Request::GetProposal { session: 12345 });
    assert!(matches!(reply, Response::Error { code: ErrorCode::UnknownSession, .. }));
    let snap = m.stats_snapshot();
    assert_eq!(snap.errors, 1);
    assert_eq!(snap.requests, sent + 1);
    let proposals = snap.verbs.iter().find(|v| v.verb == "get_proposal").map(|v| v.count);
    assert_eq!(proposals, Some(4 * BURST_ITERS as u64 + 1));
}
