//! The thread-safe [`Registry`] store backing enabled recording.

use crate::recorder::Recorder;
use crate::report::MetricsReport;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Upper bounds (seconds) of the fixed histogram buckets, log-spaced from
/// 1 µs to 1000 s; samples above the last bound land in an overflow bucket,
/// so a histogram has `SECONDS_BUCKETS.len() + 1` counts.
pub const SECONDS_BUCKETS: [f64; 10] =
    [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0];

/// A thread-safe, cheaply clonable metrics store. Clones share state; the
/// whole registry sits behind one mutex, which is fine at the granularity
/// recorded here (per phase / per solver call / per simulator run, not per
/// task).
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Mutex<Inner>>,
    /// Monotonic zero point: snapshots are stamped with the elapsed time
    /// since the registry was created, so successive snapshots of one
    /// registry carry strictly increasing `monotonic_s` values.
    birth: Instant,
}

impl Default for Registry {
    fn default() -> Self {
        Registry { inner: Arc::default(), birth: Instant::now() }
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    fn new() -> Self {
        Histogram { counts: vec![0; SECONDS_BUCKETS.len() + 1], count: 0, sum: 0.0 }
    }

    fn observe(&mut self, v: f64) {
        let idx = SECONDS_BUCKETS.iter().position(|&b| v <= b).unwrap_or(SECONDS_BUCKETS.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += v;
    }
}

/// Frozen view of one histogram, as exported into a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds of the buckets ([`SECONDS_BUCKETS`]); the
    /// final entry of `counts` is the overflow bucket above the last bound.
    pub bounds: Vec<f64>,
    /// Per-bucket sample counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
    /// Total number of samples.
    pub count: u64,
    /// Sum of all samples (seconds).
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the bucket counts.
    ///
    /// The sample's rank is located in the cumulative counts, then
    /// interpolated linearly inside its bucket (lower edge 0 for the first
    /// bucket). Samples in the overflow bucket pin to the last bound —
    /// the histogram cannot resolve anything above it. Empty histograms
    /// report 0.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let Some(&hi) = self.bounds.get(i) else {
                    return *self.bounds.last().unwrap_or(&0.0);
                };
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * (hi - lo);
            }
            below += c;
        }
        *self.bounds.last().unwrap_or(&0.0)
    }

    /// Median estimate ([`quantile`](Self::quantile) at 0.5).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // Metric updates can't leave the maps inconsistent; keep collecting
        // even if some other holder panicked mid-update.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current value of counter `name` (0 if never written).
    pub fn counter_value(&self, name: &str) -> f64 {
        self.lock().counters.get(name).copied().unwrap_or(0.0)
    }

    /// Snapshot of histogram `name`, if any samples were observed.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        self.lock().histograms.get(name).map(|h| HistogramSnapshot {
            bounds: SECONDS_BUCKETS.to_vec(),
            counts: h.counts.clone(),
            count: h.count,
            sum: h.sum,
        })
    }

    /// Seconds elapsed since this registry was created (monotonic).
    pub fn uptime_s(&self) -> f64 {
        self.birth.elapsed().as_secs_f64()
    }

    /// Freeze everything collected so far into a report (name-sorted; the
    /// report's `iterations` section is left empty for the caller to fill).
    pub fn snapshot(&self) -> MetricsReport {
        let inner = self.lock();
        MetricsReport {
            monotonic_s: self.birth.elapsed().as_secs_f64(),
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSnapshot {
                            bounds: SECONDS_BUCKETS.to_vec(),
                            counts: h.counts.clone(),
                            count: h.count,
                            sum: h.sum,
                        },
                    )
                })
                .collect(),
            iterations: Vec::new(),
        }
    }

    /// Drop every metric (mainly for tests).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.counters.clear();
        inner.gauges.clear();
        inner.histograms.clear();
    }
}

impl Recorder for Registry {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, name: &str, delta: f64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn gauge(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    fn observe(&self, name: &str, seconds: f64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(seconds),
            None => {
                let mut h = Histogram::new();
                h.observe(seconds);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_clones_share_state() {
        let r = Registry::new();
        let r2 = r.clone();
        r.add("c", 1.0);
        r2.add("c", 2.5);
        assert_eq!(r.counter_value("c"), 3.5);
        assert_eq!(r.counter_value("absent"), 0.0);
    }

    #[test]
    fn gauges_keep_the_last_write() {
        let r = Registry::new();
        assert_eq!(r.lock().gauges.get("g"), None);
        r.gauge("g", 1.0);
        r.gauge("g", -4.0);
        assert_eq!(r.lock().gauges.get("g"), Some(&-4.0));
    }

    #[test]
    fn histogram_buckets_are_log_spaced_with_overflow() {
        let r = Registry::new();
        r.observe("h", 5e-7); // bucket 0 (≤ 1e-6)
        r.observe("h", 0.05); // ≤ 1e-1
        r.observe("h", 0.05);
        r.observe("h", 5000.0); // overflow
        let h = r.histogram("h").unwrap();
        assert_eq!(h.counts.len(), SECONDS_BUCKETS.len() + 1);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[5], 2);
        assert_eq!(h.counts[SECONDS_BUCKETS.len()], 1);
        assert_eq!(h.count, 4);
        assert!((h.sum - 5000.1000005).abs() < 1e-6);
        assert!((h.mean() - h.sum / 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate_inside_buckets() {
        let h = HistogramSnapshot {
            bounds: vec![1.0, 10.0, 100.0],
            // 10 samples ≤ 1, 10 in (1, 10], none above.
            counts: vec![10, 10, 0, 0],
            count: 20,
            sum: 60.0,
        };
        // Rank 10 is exactly the last sample of bucket 0: its upper edge.
        assert!((h.p50() - 1.0).abs() < 1e-12, "p50 = {}", h.p50());
        // Rank 19 sits 9/10 of the way through bucket (1, 10].
        assert!((h.p95() - (1.0 + 0.9 * 9.0)).abs() < 1e-12, "p95 = {}", h.p95());
        assert!(h.p99() <= 10.0);
        // q=0 pins to the lower edge of the first occupied bucket.
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 10.0);
    }

    #[test]
    fn quantile_overflow_bucket_pins_to_last_bound() {
        let h = HistogramSnapshot {
            bounds: vec![1.0, 10.0],
            counts: vec![0, 0, 5],
            count: 5,
            sum: 500.0,
        };
        assert_eq!(h.p50(), 10.0);
        assert_eq!(h.p99(), 10.0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = HistogramSnapshot { bounds: vec![1.0], counts: vec![0, 0], count: 0, sum: 0.0 };
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn snapshots_carry_increasing_monotonic_stamps() {
        let r = Registry::new();
        let a = r.snapshot();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = r.snapshot();
        assert!(a.monotonic_s >= 0.0);
        assert!(b.monotonic_s > a.monotonic_s, "{} !> {}", b.monotonic_s, a.monotonic_s);
        assert!(r.uptime_s() >= b.monotonic_s);
    }

    #[test]
    fn snapshot_is_name_sorted_and_complete() {
        let r = Registry::new();
        r.add("z.last", 1.0);
        r.add("a.first", 2.0);
        r.gauge("mid", 0.5);
        r.observe("t", 0.25);
        let s = r.snapshot();
        assert_eq!(s.counters, vec![("a.first".to_string(), 2.0), ("z.last".to_string(), 1.0)]);
        assert_eq!(s.gauges, vec![("mid".to_string(), 0.5)]);
        assert_eq!(s.histograms.len(), 1);
        assert_eq!(s.histograms[0].0, "t");
        assert!(s.iterations.is_empty());
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let r = Registry::new();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        r.add("par", 1.0);
                        r.observe("par_s", 1e-3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter_value("par"), 4000.0);
        assert_eq!(r.histogram("par_s").unwrap().count, 4000);
    }

    #[test]
    fn clear_resets_everything() {
        let r = Registry::new();
        r.add("c", 1.0);
        r.observe("h", 1.0);
        r.clear();
        assert_eq!(r.counter_value("c"), 0.0);
        assert!(r.histogram("h").is_none());
    }
}
