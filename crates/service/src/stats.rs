//! The service's always-on observability state: counters, per-verb
//! latency histograms, live gauges, spans, and per-session event rings.
//!
//! [`ServiceStats`] owns a [`Registry`] that is *always* collecting —
//! `GetStats` and `GET /metrics` must answer even when the operator never
//! installed a global recorder. Every event is written once, here;
//! `adaphet-serve --metrics` installs this same registry
//! ([`ServiceStats::registry`]) as the process-wide recorder, so the
//! libraries' `gp.*` / `tuner.*` counts land next to the `service.*`
//! names and the end-of-run table and `GET /metrics` read one registry.
//!
//! Shard-level gauges (callers waiting on the shard's lock, registered
//! sessions) and the in-flight ticket count live in plain atomics
//! updated by the request threads, so a `GetStats` snapshot never takes —
//! or perturbs — the shard locks it is describing.

use crate::protocol::{HealthInfo, SessionEvent, ShardStats, StatsSnapshot, VerbStats};
use adaphet_core::{IndexStats, SurrogateStore};
use adaphet_metrics::{MetricsReport, Recorder, Registry, Spans};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// Default capacity of the recent-span ring kept by the manager.
pub const DEFAULT_SPANS_CAPACITY: usize = 256;

/// Shared observability state for one [`SessionManager`](crate::SessionManager).
pub struct ServiceStats {
    registry: Registry,
    spans: Spans,
    in_flight: AtomicI64,
    queue_depth: Vec<AtomicU64>,
    shard_sessions: Vec<AtomicU64>,
    health: Mutex<BTreeMap<u64, HealthInfo>>,
    /// The manager's surrogate store, with the index counters as last
    /// exported (the registry's counters take deltas).
    store: Option<(SurrogateStore, Mutex<IndexStats>)>,
}

impl ServiceStats {
    /// Fresh stats for a manager with `workers` shards, exporting the
    /// lookup-index counters of `store` when there is one.
    pub fn new(workers: usize, store: Option<SurrogateStore>) -> Self {
        ServiceStats {
            registry: Registry::new(),
            spans: Spans::with_capacity(DEFAULT_SPANS_CAPACITY),
            in_flight: AtomicI64::new(0),
            queue_depth: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            shard_sessions: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            health: Mutex::new(BTreeMap::new()),
            store: store.map(|s| (s, Mutex::default())),
        }
    }

    /// Publish one session's latest health report. The manager calls this
    /// after every state-bearing verb so `/health` answers without
    /// taking a shard lock. New transitions observed since the
    /// previous publish bump the `service.health.transitions` counter.
    pub fn set_health(&self, info: HealthInfo) {
        let mut map = self.health.lock().unwrap();
        let prior = map.get(&info.session).map_or(0, |old| old.transitions);
        let delta = info.transitions.saturating_sub(prior);
        map.insert(info.session, info);
        drop(map);
        if delta > 0 {
            self.count("service.health.transitions", delta as f64);
        }
    }

    /// Forget a retired session's health entry.
    pub fn remove_health(&self, session: u64) {
        self.health.lock().unwrap().remove(&session);
    }

    /// Latest published health reports, ordered by session id.
    pub fn health_infos(&self) -> Vec<HealthInfo> {
        self.health.lock().unwrap().values().cloned().collect()
    }

    /// The span collector for request-lifecycle tracing.
    pub fn spans(&self) -> &Spans {
        &self.spans
    }

    /// Monotonic seconds since the manager started.
    pub fn uptime_s(&self) -> f64 {
        self.registry.uptime_s()
    }

    /// The registry every `service.*` metric is written to (a handle:
    /// clones share the storage).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Bump a counter.
    pub fn count(&self, name: &str, delta: f64) {
        self.registry.add(name, delta);
    }

    /// Observe a duration.
    pub fn observe(&self, name: &str, seconds: f64) {
        self.registry.observe(name, seconds);
    }

    /// Adjust the open-proposal-ticket gauge (`+1` propose, `-1` resolve).
    pub fn in_flight_add(&self, delta: i64) {
        self.in_flight.fetch_add(delta, Ordering::Relaxed);
    }

    /// Open proposal tickets across all sessions (clamped at 0).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed).max(0) as u64
    }

    /// A request started waiting for shard `shard`'s lock.
    pub fn queue_push(&self, shard: usize) {
        self.queue_depth[shard].fetch_add(1, Ordering::Relaxed);
    }

    /// A request got shard `shard`'s lock (about to be processed).
    pub fn queue_pop(&self, shard: usize) {
        // Saturating: an unpaired pop must not wrap the gauge.
        let _ = self.queue_depth[shard]
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| d.checked_sub(1));
    }

    /// Publish shard `shard`'s registered-session count.
    pub fn set_shard_sessions(&self, shard: usize, sessions: u64) {
        self.shard_sessions[shard].store(sessions, Ordering::Relaxed);
    }

    /// Sessions registered across all shards, right now.
    pub fn sessions_live(&self) -> u64 {
        self.shard_sessions.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Build the wire-level service snapshot.
    pub fn snapshot(&self, version: &str, draining: bool) -> StatsSnapshot {
        let report = self.registry.snapshot();
        let counter = |name: &str| {
            report.counters.iter().find(|(k, _)| k == name).map_or(0, |&(_, v)| v as u64)
        };
        // Registry snapshots are name-sorted, so the verbs arrive sorted.
        let verbs = report
            .histograms
            .iter()
            .filter_map(|(name, h)| {
                let verb = name.strip_prefix("service.verb.")?.strip_suffix("_s")?;
                Some(VerbStats {
                    verb: verb.to_string(),
                    count: h.count,
                    p50: h.p50(),
                    p95: h.p95(),
                    p99: h.p99(),
                })
            })
            .collect();
        let shards = (0..self.queue_depth.len())
            .map(|i| ShardStats {
                shard: i,
                sessions: self.shard_sessions[i].load(Ordering::Relaxed),
                queue_depth: self.queue_depth[i].load(Ordering::Relaxed),
            })
            .collect();
        StatsSnapshot {
            version: version.to_string(),
            uptime_s: report.monotonic_s,
            draining,
            sessions_live: self.sessions_live(),
            sessions_created: counter("service.session.created"),
            sessions_closed: counter("service.session.closed"),
            sessions_evicted: counter("service.session.evicted"),
            sessions_drained: counter("service.session.drained"),
            in_flight: self.in_flight(),
            connections: counter("service.connection"),
            requests: counter("service.request"),
            malformed: counter("service.malformed"),
            errors: counter("service.error"),
            verbs,
            shards,
        }
    }

    /// Freeze everything into a [`MetricsReport`], refreshing the live
    /// gauges first — this is what `GET /metrics` serializes.
    pub fn report(&self, draining: bool) -> MetricsReport {
        self.registry.gauge("service.in_flight", self.in_flight() as f64);
        self.registry.gauge("service.sessions.live", self.sessions_live() as f64);
        self.registry.gauge("service.draining", if draining { 1.0 } else { 0.0 });
        for (i, d) in self.queue_depth.iter().enumerate() {
            self.registry
                .gauge(&format!("service.shard.{i}.queue_depth"), d.load(Ordering::Relaxed) as f64);
            self.registry.gauge(
                &format!("service.shard.{i}.sessions"),
                self.shard_sessions[i].load(Ordering::Relaxed) as f64,
            );
        }
        // Sessions per folded health state, so dashboards can alert on
        // "any session not ok" without parsing `/health`.
        let mut by_state = [("ok", 0u64), ("warn", 0), ("stalled", 0), ("diverging", 0)];
        for info in self.health.lock().unwrap().values() {
            if let Some(slot) = by_state.iter_mut().find(|(name, _)| *name == info.state) {
                slot.1 += 1;
            }
        }
        for (name, n) in by_state {
            self.registry.gauge(&format!("service.health.sessions.{name}"), n as f64);
        }
        if let Some((store, exported)) = &self.store {
            let now = store.index_stats();
            let mut last = exported.lock().expect("no panic while exporting index counters");
            self.registry.gauge("service.store.index_entries", now.entries as f64);
            let skipped = now.corrupt_skipped - last.corrupt_skipped;
            let errors = now.lookup_errors - last.lookup_errors;
            self.count("service.store.corrupt_skipped", skipped as f64);
            self.count("service.store.lookup_error", errors as f64);
            *last = now;
        }
        self.registry.snapshot()
    }
}

/// A bounded, seq-numbered ring of one session's lifecycle events.
///
/// Lives in the session's entry, so pushes and `Inspect` reads happen
/// under the session's shard lock and need none of their own.
pub struct EventRing {
    capacity: usize,
    next_seq: u64,
    buf: VecDeque<SessionEvent>,
}

impl EventRing {
    /// A ring keeping the most recent `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        EventRing { capacity: capacity.max(1), next_seq: 0, buf: VecDeque::new() }
    }

    /// Append one event, evicting the oldest when full.
    pub fn push(
        &mut self,
        t_s: f64,
        kind: &str,
        ticket: Option<u64>,
        action: Option<usize>,
        iteration: Option<usize>,
        duration: Option<f64>,
    ) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(SessionEvent {
            seq: self.next_seq,
            t_s,
            kind: kind.to_string(),
            ticket,
            action,
            iteration,
            duration,
        });
        self.next_seq += 1;
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<SessionEvent> {
        self.buf.iter().cloned().collect()
    }

    /// Events the ring has already evicted: every push takes a seq, so
    /// whatever the buffer no longer holds was dropped.
    pub fn dropped(&self) -> u64 {
        self.next_seq - self.buf.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters_verbs_and_shards() {
        let s = ServiceStats::new(2, None);
        s.count("service.request", 3.0);
        s.count("service.session.created", 2.0);
        s.observe("service.verb.ping_s", 0.0005);
        s.observe("service.verb.get_proposal_s", 0.02);
        s.in_flight_add(2);
        s.queue_push(1);
        s.set_shard_sessions(0, 2);
        let snap = s.snapshot("9.9.9", true);
        assert_eq!(snap.version, "9.9.9");
        assert!(snap.draining);
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.sessions_created, 2);
        assert_eq!(snap.sessions_live, 2);
        assert_eq!(snap.in_flight, 2);
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[1].queue_depth, 1);
        // Verb histograms surface sorted by verb name, `_s` stripped.
        let verbs: Vec<&str> = snap.verbs.iter().map(|v| v.verb.as_str()).collect();
        assert_eq!(verbs, vec!["get_proposal", "ping"]);
        assert!(snap.verbs[1].p50 > 0.0 && snap.verbs[1].p50 <= 0.001);
    }

    #[test]
    fn queue_pop_saturates_at_zero() {
        let s = ServiceStats::new(1, None);
        s.queue_pop(0);
        assert_eq!(s.snapshot("", false).shards[0].queue_depth, 0);
        s.queue_push(0);
        s.queue_pop(0);
        s.queue_pop(0);
        assert_eq!(s.snapshot("", false).shards[0].queue_depth, 0);
    }

    #[test]
    fn report_injects_live_gauges_for_the_exposition() {
        let s = ServiceStats::new(1, None);
        s.in_flight_add(1);
        s.queue_push(0);
        let p = s.report(true).to_prometheus();
        assert!(p.contains("adaphet_service_in_flight 1\n"), "{p}");
        assert!(p.contains("adaphet_service_draining 1\n"), "{p}");
        assert!(p.contains("adaphet_service_shard_0_queue_depth 1\n"), "{p}");
    }

    #[test]
    fn event_ring_is_bounded_with_monotone_seqs() {
        let mut ring = EventRing::new(3);
        for i in 0..5 {
            ring.push(i as f64, "propose", Some(i), Some(4), Some(i as usize), None);
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(events[0].kind, "propose");
    }

    #[test]
    fn event_ring_counts_what_it_evicted() {
        let mut ring = EventRing::new(3);
        assert_eq!(ring.dropped(), 0);
        for i in 0..3 {
            ring.push(i as f64, "propose", None, None, None, None);
        }
        assert_eq!(ring.dropped(), 0, "nothing evicted until the ring wraps");
        for i in 3..8 {
            ring.push(i as f64, "propose", None, None, None, None);
        }
        assert_eq!(ring.dropped(), 5);
        assert_eq!(ring.events().len(), 3);
    }

    fn health(session: u64, state: &str, transitions: u64) -> HealthInfo {
        HealthInfo {
            session,
            state: state.into(),
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
            transitions,
        }
    }

    #[test]
    fn health_publishes_count_transitions_once() {
        let s = ServiceStats::new(1, None);
        s.set_health(health(1, "ok", 0));
        s.set_health(health(2, "warn", 1));
        // Re-publishing the same report must not recount its transition.
        s.set_health(health(2, "warn", 1));
        s.set_health(health(2, "ok", 2));
        let snap = s.report(false);
        let transitions =
            snap.counters.iter().find(|(k, _)| k == "service.health.transitions").map(|&(_, v)| v);
        assert_eq!(transitions, Some(2.0));
        assert_eq!(s.health_infos().len(), 2);
        s.remove_health(2);
        assert_eq!(s.health_infos().len(), 1);
    }

    #[test]
    fn report_gauges_sessions_per_health_state() {
        let s = ServiceStats::new(1, None);
        s.set_health(health(1, "ok", 0));
        s.set_health(health(2, "stalled", 1));
        s.set_health(health(3, "ok", 0));
        let p = s.report(false).to_prometheus();
        assert!(p.contains("adaphet_service_health_sessions_ok 2\n"), "{p}");
        assert!(p.contains("adaphet_service_health_sessions_stalled 1\n"), "{p}");
        assert!(p.contains("adaphet_service_health_sessions_diverging 0\n"), "{p}");
    }
}
