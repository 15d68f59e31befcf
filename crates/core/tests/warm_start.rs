//! End-to-end warm-start behaviour through the public builder/Session
//! API: store round-trips, space-mismatch refusal, and warm-vs-cold
//! determinism.

use adaphet_core::{
    signature_from_space, ActionSpace, DriverBuildError, Observation, Session, StoreError,
    StrategyKind, SurrogateSnapshot, SurrogateStore, WarmStart,
};

fn space() -> ActionSpace {
    ActionSpace::new(12, vec![(1, 4), (5, 12)], Some((1..=12).map(|n| 48.0 / n as f64).collect()))
}

fn response(n: usize) -> f64 {
    48.0 / n as f64 + 0.9 * n as f64 + if n < 5 { 4.0 } else { 0.0 }
}

fn tmp_store(tag: &str) -> SurrogateStore {
    let dir = std::env::temp_dir().join(format!("adaphet-warm-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SurrogateStore::open(dir).unwrap()
}

fn drive(session: &mut adaphet_core::Session, iters: usize) -> Vec<(usize, f64)> {
    for _ in 0..iters {
        let p = session.propose().unwrap();
        session.observe(p.ticket, Observation::of(response(p.action))).unwrap();
    }
    session.history().records().to_vec()
}

#[test]
fn sessions_snapshot_into_the_store_and_later_sessions_warm_start_from_it() {
    let store = tmp_store("roundtrip");
    let space = space();

    // Session 1: cold, attached to the store; its close persists a
    // snapshot keyed by the space-derived fallback signature.
    let mut s1 =
        Session::builder(&space).kind(StrategyKind::GpDiscontinuous).store(&store).build().unwrap();
    let cold = drive(&mut s1, 20);
    s1.finish().unwrap();
    assert_eq!(store.entries().unwrap().len(), 1, "finish() must persist exactly one snapshot");

    let snap = store
        .get(&signature_from_space(&space), "GP-discontinuous")
        .unwrap()
        .expect("snapshot stored under the fallback signature");
    assert_eq!(snap.observations, cold);
    assert_eq!(snap.max_nodes, space.max_nodes);

    // Session 2: warm from the store. The cold init sequence (N, leftmost,
    // mid, mid, ...) is compressed to the single baseline play.
    let mut s2 = Session::builder(&space)
        .kind(StrategyKind::GpDiscontinuous)
        .store(&store)
        .warm_start(WarmStart::FromStore { min_similarity: 0.9 })
        .build()
        .unwrap();
    let warm = drive(&mut s2, 8);
    assert_eq!(warm[0].0, space.max_nodes, "warm still measures the baseline live");
    assert_ne!(
        warm.iter().map(|r| r.0).collect::<Vec<_>>(),
        cold.iter().take(8).map(|r| r.0).collect::<Vec<_>>(),
        "a warm session must not replay the cold initialization"
    );
    s2.finish().unwrap();
}

#[test]
fn warm_sessions_are_deterministic() {
    let space = space();
    let snap = SurrogateSnapshot {
        signature: signature_from_space(&space),
        strategy: "GP-discontinuous".into(),
        max_nodes: space.max_nodes,
        groups: space.groups.clone(),
        lp: space.lp.clone(),
        observations: (1..=12).map(|n| (n, response(n))).collect(),
        hyper: None,
    };
    let run = || {
        let mut s = Session::builder(&space)
            .kind(StrategyKind::GpDiscontinuous)
            .warm_start(WarmStart::FromSnapshot(snap.clone()))
            .build()
            .unwrap();
        drive(&mut s, 15)
    };
    assert_eq!(run(), run(), "same snapshot + same seed must replay identically");
}

#[test]
fn snapshots_from_a_prefault_space_are_refused() {
    // A snapshot taken on the full 12-node platform must not warm-start a
    // session whose live space already shrank to 9 nodes (e.g. after a
    // fault): folding it in could propose the dead nodes.
    let full = space();
    let shrunk =
        ActionSpace::new(9, vec![(1, 4), (5, 9)], Some((1..=9).map(|n| 48.0 / n as f64).collect()));
    let snap = SurrogateSnapshot {
        signature: signature_from_space(&full),
        strategy: "GP-discontinuous".into(),
        max_nodes: full.max_nodes,
        groups: full.groups.clone(),
        lp: full.lp.clone(),
        observations: vec![(12, 14.8), (10, 13.8)],
        hyper: None,
    };
    let err = Session::builder(&shrunk)
        .kind(StrategyKind::GpDiscontinuous)
        .warm_start(WarmStart::FromSnapshot(snap))
        .build()
        .err()
        .expect("mismatched snapshot must be refused");
    match err {
        DriverBuildError::WarmStart(StoreError::SpaceMismatch { .. }) => {}
        other => panic!("expected a space-mismatch refusal, got {other}"),
    }
}

#[test]
fn store_lookups_project_cross_space_snapshots_instead_of_failing() {
    // Same scenario through the store path: the mismatch is not an error
    // — the snapshot is projected onto the live space and proposals stay
    // in range.
    let store = tmp_store("project");
    let full = space();
    store
        .put(&SurrogateSnapshot {
            signature: signature_from_space(&full),
            strategy: "GP-UCB".into(),
            max_nodes: full.max_nodes,
            groups: full.groups.clone(),
            lp: full.lp.clone(),
            observations: (1..=12).map(|n| (n, response(n))).collect(),
            hyper: None,
        })
        .unwrap();
    let shrunk = ActionSpace::unstructured(6);
    let mut s = Session::builder(&shrunk)
        .kind(StrategyKind::GpUcb)
        .store(&store)
        .warm_start(WarmStart::FromStore { min_similarity: 0.0 })
        .build()
        .unwrap();
    let records = drive(&mut s, 10);
    assert!(records.iter().all(|&(a, _)| (1..=6).contains(&a)), "{records:?}");
}

#[test]
fn a_missing_store_match_falls_back_to_a_cold_start() {
    let space = space();
    let store = tmp_store("empty");
    let cold = {
        let mut s = Session::builder(&space).kind(StrategyKind::GpUcb).build().unwrap();
        drive(&mut s, 10)
    };
    let fallback = {
        let mut s = Session::builder(&space)
            .kind(StrategyKind::GpUcb)
            .store(&store)
            .warm_start(WarmStart::FromStore { min_similarity: 0.5 })
            .build()
            .unwrap();
        drive(&mut s, 10)
    };
    assert_eq!(cold, fallback, "an empty store must leave the session bit-identical to cold");
}
