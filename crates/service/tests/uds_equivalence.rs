//! The acceptance test: N concurrent sessions over a Unix-domain
//! socket produce proposals and histories **bit-identical** to N
//! single-threaded `Session::run` loops with the same seeds.
//!
//! Exactness holds end to end because (a) each session is pinned to one
//! shard worker, so its propose/observe order is the driver's order no
//! matter how the OS schedules clients, and (b) `f64`s travel as Rust's
//! shortest round-trip decimal form, which parses back to the same bits.

#![cfg(unix)]

use adaphet_core::{Observation, Session, StrategyKind};
use adaphet_service::{
    Client, Endpoint, Server, ServiceConfig, SessionManager, SessionSpec, Submitted,
};
use std::path::PathBuf;
use std::sync::Arc;

/// A synthetic response with noise-free structure: ideal-scaling plus a
/// linear overhead, minimized at an interior node count, with a plateau
/// discontinuity below 5 nodes (exercises the GP-discontinuous path).
fn response(n: usize) -> f64 {
    30.0 / n as f64 + 0.8 * n as f64 + if n < 5 { 6.0 } else { 0.0 }
}

fn spec(kind: StrategyKind, seed: u64) -> SessionSpec {
    let mut s = SessionSpec::new(kind, seed, 10);
    s.groups = vec![(1, 5), (6, 10)];
    s.lp = Some((1..=10).map(|n| 30.0 / n as f64).collect());
    s.iters = Some(30);
    s
}

fn uds_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("adaphet-it-{}-{tag}.sock", std::process::id()))
}

#[test]
fn eight_concurrent_uds_sessions_match_sequential_drivers_bitwise() {
    const ITERS: usize = 30;
    let kinds = [
        StrategyKind::GpDiscontinuous,
        StrategyKind::Ucb,
        StrategyKind::GpUcb,
        StrategyKind::UcbStruct,
        StrategyKind::DivideConquer,
        StrategyKind::RightLeft,
        StrategyKind::Brent,
        StrategyKind::Random,
    ];
    let path = uds_path("equiv");
    let manager = Arc::new(SessionManager::new(ServiceConfig::default()));
    let mut server = Server::bind(Endpoint::Uds(path.clone()), manager).unwrap();

    // 8 client threads, one UDS connection and one session each, all
    // in flight at once.
    let handles: Vec<_> = kinds
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let path = path.clone();
            std::thread::spawn(move || {
                let seed = i as u64;
                let mut client = Client::connect_uds(&path).unwrap();
                let id = client.create_session(spec(kind, seed)).unwrap();
                let mut proposals = Vec::with_capacity(ITERS);
                for expect_iter in 0..ITERS {
                    let (ticket, iteration, action) = client.get_proposal(id).unwrap();
                    assert_eq!(iteration, expect_iter);
                    proposals.push(action);
                    match client.submit(id, ticket, response(action)).unwrap() {
                        Submitted::Recorded { iteration: it, .. } => assert_eq!(it, expect_iter),
                        Submitted::Retry { .. } => panic!("no resilience policy configured"),
                    }
                }
                let closed = client.close_session(id).unwrap();
                (kind, seed, proposals, closed)
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // The observability plane saw all of it: 8 sessions created and
    // closed, every verb accounted for, nothing left in flight.
    let mut observer = Client::connect_uds(&path).unwrap();
    let stats = observer.get_stats().unwrap();
    assert_eq!(stats.version, env!("CARGO_PKG_VERSION"));
    assert!(!stats.draining);
    assert_eq!(stats.sessions_created, 8);
    assert_eq!(stats.sessions_closed, 8);
    assert_eq!(stats.sessions_live, 0);
    assert_eq!(stats.sessions_evicted, 0, "nothing idled out");
    assert_eq!(stats.in_flight, 0, "every ticket resolved");
    let verb = |name: &str| stats.verbs.iter().find(|v| v.verb == name).expect(name);
    assert_eq!(verb("create_session").count, 8);
    assert_eq!(verb("get_proposal").count, (8 * ITERS) as u64);
    assert_eq!(verb("submit_observation").count, (8 * ITERS) as u64);
    assert_eq!(verb("close_session").count, 8);
    assert!(verb("get_proposal").p50 > 0.0, "latency quantiles populated");
    assert_eq!(stats.shards.iter().map(|s| s.sessions).sum::<u64>(), 0);

    server.stop();
    let _ = std::fs::remove_file(&path);

    for (kind, seed, proposals, closed) in results {
        let mut driver = Session::builder(&spec(kind, seed).space().unwrap())
            .kind(kind)
            .seed(seed)
            .build()
            .unwrap();
        driver.run(ITERS, |n| Observation::of(response(n)));
        let reference = driver.history().records().to_vec();

        // Proposal stream, history, and total time: bit-identical.
        let proposed: Vec<usize> = reference.iter().map(|&(a, _)| a).collect();
        assert_eq!(proposals, proposed, "{kind}: proposal stream diverged over the wire");
        assert_eq!(closed.history, reference, "{kind}: history diverged over the wire");
        assert_eq!(
            closed.total_time.to_bits(),
            driver.history().total_time().to_bits(),
            "{kind}: total time not bit-identical"
        );
        assert_eq!(closed.iterations, ITERS);
    }
}

#[test]
fn posterior_over_the_wire_matches_the_in_process_snapshot() {
    let path = uds_path("posterior");
    let manager = Arc::new(SessionManager::new(ServiceConfig::default()));
    let mut server = Server::bind(Endpoint::Uds(path.clone()), Arc::clone(&manager)).unwrap();

    let mut client = Client::connect_uds(&path).unwrap();
    let id = client.create_session(spec(StrategyKind::GpDiscontinuous, 3)).unwrap();
    assert!(client.get_posterior(id).unwrap().is_none(), "no surrogate before data");
    for _ in 0..12 {
        let (ticket, _, action) = client.get_proposal(id).unwrap();
        client.submit(id, ticket, response(action)).unwrap();
    }
    let wire = client.get_posterior(id).unwrap().expect("fitted posterior");

    // Reference: the same 12 observations through a local session.
    let mut local = Session::builder(&spec(StrategyKind::GpDiscontinuous, 3).space().unwrap())
        .kind(StrategyKind::GpDiscontinuous)
        .seed(3)
        .build()
        .unwrap();
    for _ in 0..12 {
        let p = local.propose().unwrap();
        local.observe(p.ticket, Observation::of(response(p.action))).unwrap();
    }
    let reference = local.posterior().unwrap().points;
    assert_eq!(wire.len(), reference.len());
    for (w, r) in wire.iter().zip(&reference) {
        assert_eq!(w.action, r.action);
        assert_eq!(w.mean.to_bits(), r.mean.to_bits(), "posterior mean at {}", w.action);
        assert_eq!(w.sd.to_bits(), r.sd.to_bits(), "posterior sd at {}", w.action);
        assert_eq!(w.excluded, r.excluded);
    }

    // The lifecycle ring saw the whole exchange: a created event, then
    // alternating propose/recorded pairs, with an empty ledger now.
    let inspected = client.inspect(id).unwrap();
    assert_eq!(inspected.strategy, StrategyKind::GpDiscontinuous.to_string());
    assert_eq!(inspected.iterations, 12);
    assert!(inspected.pending.is_empty(), "all tickets resolved");
    assert!(inspected.cumulative_time > 0.0);
    let kinds: Vec<&str> = inspected.events.iter().map(|e| e.kind.as_str()).collect();
    assert_eq!(kinds[0], "created");
    assert_eq!(kinds.iter().filter(|k| **k == "propose").count(), 12);
    assert_eq!(kinds.iter().filter(|k| **k == "recorded").count(), 12);

    client.close_session(id).unwrap();
    server.stop();
    let _ = std::fs::remove_file(&path);
}

/// Idle eviction and the graceful drain both leave a visible audit
/// trail in the `service.*` counters — over the wire while the daemon
/// lives, and via the stats handle after it has shut down.
#[test]
fn eviction_and_drain_counters_are_observable() {
    use std::time::Duration;

    let path = uds_path("lifecycle");
    let manager = SessionManager::new(ServiceConfig {
        idle_timeout: Some(Duration::from_millis(20)),
        ..ServiceConfig::default()
    });
    let stats = Arc::clone(manager.stats());
    let server_manager = Arc::new(SessionManager::new(ServiceConfig {
        idle_timeout: Some(Duration::from_millis(20)),
        ..ServiceConfig::default()
    }));
    let mut server =
        Server::bind(Endpoint::Uds(path.clone()), Arc::clone(&server_manager)).unwrap();
    let mut client = Client::connect_uds(&path).unwrap();

    // Three sessions idle out; the sweep is forced for determinism.
    for seed in 0..3 {
        client.create_session(spec(StrategyKind::Ucb, seed)).unwrap();
    }
    std::thread::sleep(Duration::from_millis(40));
    server_manager.sweep_now();
    let snap = client.get_stats().unwrap();
    assert_eq!(snap.sessions_created, 3);
    assert_eq!(snap.sessions_evicted, 3, "idle sweep evicted all three");
    assert_eq!(snap.sessions_live, 0);
    server.stop();
    let _ = std::fs::remove_file(&path);

    // Separately: a session with an open ticket rides through shutdown
    // and is counted as drained (its ticket abandoned).
    let id =
        match manager.handle(adaphet_service::Request::CreateSession(spec(StrategyKind::Ucb, 9))) {
            adaphet_service::Response::SessionCreated { session } => session,
            other => panic!("expected session_created, got {other:?}"),
        };
    match manager.handle(adaphet_service::Request::GetProposal { session: id }) {
        adaphet_service::Response::Proposal { .. } => {}
        other => panic!("expected proposal, got {other:?}"),
    }
    assert_eq!(manager.stats_snapshot().in_flight, 1);
    manager.shutdown();
    let after = stats.snapshot(env!("CARGO_PKG_VERSION"), true);
    assert_eq!(after.sessions_drained, 1, "shutdown flushed the live session");
    assert_eq!(after.in_flight, 0, "the abandoned ticket closed the gauge");
    assert_eq!(after.sessions_live, 0);
}
