#![warn(missing_docs)]

//! `adaphet-tsdb` — an in-process, bounded, chunked time-series store for
//! metrics history.
//!
//! The live observability plane (`adaphet-metrics`, `/metrics`,
//! `adaphet-top`) answers "what is the daemon doing right now"; this
//! crate answers "what did it look like ten minutes ago". A
//! [`TimeSeriesStore`] holds one bounded ring of `(t_s, value)` samples
//! per named series, plus coarser downsampled rings (min/max/mean/last
//! per fixed-width time bucket) so long horizons survive the bounded
//! footprint. Samples enter either directly ([`TimeSeriesStore::record`])
//! or by ingesting a whole [`MetricsReport`]
//! ([`TimeSeriesStore::ingest`]), which reuses the report's
//! `monotonic_s` stamp (METRICS_SCHEMA_VERSION 2) so no wall clock is
//! involved.
//!
//! # Chunk format
//!
//! Persistence follows the `adaphet-store` codec discipline (the codec
//! primitives are shared):
//!
//! ```text
//! offset 0   magic  "ADTS"          (4 bytes)
//! offset 4   format version, u32 LE (currently 1)
//! offset 8   CRC-32 (IEEE) of every byte from offset 12 on, u32 LE
//! offset 12  sections...
//! ```
//!
//! Each section is a 4-byte ASCII tag, a u64 LE payload length, and the
//! payload. Version 1 writes two sections: `conf` (capacity, epoch,
//! resolution widths) and `sers` (every series: raw ring, then one coarse
//! ring per resolution including its open aggregate). Floats travel as
//! `f64::to_bits` u64 LE, so a decoded store is bit-identical to what was
//! encoded — pinned by a proptest. Unknown section tags are skipped; bad
//! magic, a future version, truncation and checksum mismatches are typed
//! [`StoreError`]s, never panics.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io;
use std::path::Path;

use adaphet_metrics::json::{self, ToJson};
use adaphet_metrics::MetricsReport;
use adaphet_store::{crc32, Reader, StoreError, Writer};

/// Magic bytes opening every history chunk file.
pub const MAGIC: [u8; 4] = *b"ADTS";

/// Chunk format version; bump on any layout change.
pub const FORMAT_VERSION: u32 = 1;

/// Shape of a [`TimeSeriesStore`]: per-series ring capacity and the
/// downsampling resolutions.
#[derive(Debug, Clone, PartialEq)]
pub struct TsdbConfig {
    /// Samples retained per series per ring (raw and each coarse ring).
    pub capacity: usize,
    /// Bucket widths, in seconds, of the coarser downsampled rings.
    /// Conventionally sorted fine-to-coarse; widths must be positive.
    pub resolutions: Vec<f64>,
}

impl Default for TsdbConfig {
    /// 512 points per ring, downsampled into 30 s and 300 s buckets —
    /// with a 5 s scrape interval that is ~42 minutes of raw history and
    /// ~42 hours at the coarsest resolution.
    fn default() -> Self {
        TsdbConfig { capacity: 512, resolutions: vec![30.0, 300.0] }
    }
}

/// One raw observation of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Source-relative monotonic timestamp, seconds.
    pub t_s: f64,
    /// The sampled value.
    pub value: f64,
}

/// One downsampled bucket: the aggregate of every raw sample whose
/// timestamp fell inside `[t_s, t_s + width)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoarsePoint {
    /// Bucket start (a multiple of the ring's width), seconds.
    pub t_s: f64,
    /// Smallest sample in the bucket.
    pub min: f64,
    /// Largest sample in the bucket.
    pub max: f64,
    /// Sum of samples (with [`CoarsePoint::count`], yields the mean).
    pub sum: f64,
    /// Number of samples aggregated.
    pub count: u64,
    /// Last sample seen in the bucket.
    pub last: f64,
}

impl CoarsePoint {
    fn seed(t_s: f64, v: f64) -> Self {
        CoarsePoint { t_s, min: v, max: v, sum: v, count: 1, last: v }
    }

    fn merge(&mut self, v: f64) {
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
        self.count += 1;
        self.last = v;
    }

    /// Mean of the bucket's samples (0 for an impossible empty bucket).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A bounded ring of closed buckets plus the still-open aggregate.
#[derive(Debug, Clone, PartialEq)]
struct CoarseRing {
    width_s: f64,
    points: VecDeque<CoarsePoint>,
    /// `(bucket index, running aggregate)` of the bucket currently being
    /// filled; flushed into `points` when a later bucket starts.
    open: Option<(u64, CoarsePoint)>,
}

impl CoarseRing {
    fn new(width_s: f64) -> Self {
        CoarseRing { width_s, points: VecDeque::new(), open: None }
    }

    fn push(&mut self, capacity: usize, t_s: f64, v: f64) {
        let bucket = (t_s.max(0.0) / self.width_s).floor() as u64;
        match &mut self.open {
            Some((open_bucket, agg)) if bucket <= *open_bucket => agg.merge(v),
            open => {
                if let Some((_, done)) = open.take() {
                    if self.points.len() >= capacity {
                        self.points.pop_front();
                    }
                    self.points.push_back(done);
                }
                *open = Some((bucket, CoarsePoint::seed(bucket as f64 * self.width_s, v)));
            }
        }
    }

    /// Closed buckets plus the open one, oldest first.
    fn view(&self) -> Vec<CoarsePoint> {
        let mut out: Vec<CoarsePoint> = self.points.iter().copied().collect();
        if let Some((_, agg)) = &self.open {
            out.push(*agg);
        }
        out
    }
}

/// One named series: the raw ring and its coarse rings.
#[derive(Debug, Clone, PartialEq)]
struct Series {
    raw: VecDeque<Sample>,
    coarse: Vec<CoarseRing>,
}

impl Series {
    fn new(resolutions: &[f64]) -> Self {
        Series {
            raw: VecDeque::new(),
            coarse: resolutions.iter().map(|&w| CoarseRing::new(w)).collect(),
        }
    }

    fn push(&mut self, capacity: usize, t_s: f64, v: f64) {
        if self.raw.len() >= capacity {
            self.raw.pop_front();
        }
        self.raw.push_back(Sample { t_s, value: v });
        for ring in &mut self.coarse {
            ring.push(capacity, t_s, v);
        }
    }
}

/// The store: a map from series name to its bounded rings, plus the
/// epoch offset that keeps history monotone across daemon restarts.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesStore {
    config: TsdbConfig,
    /// Added to every [`MetricsReport::monotonic_s`] stamp at ingest so a
    /// store reloaded from disk continues *after* its persisted history
    /// instead of overwriting it (a fresh registry restarts at 0).
    epoch_s: f64,
    series: BTreeMap<String, Series>,
}

impl TimeSeriesStore {
    /// An empty store. `capacity` is clamped to at least 1 and
    /// non-positive / non-finite resolutions are dropped.
    pub fn new(config: TsdbConfig) -> Self {
        let config = TsdbConfig {
            capacity: config.capacity.max(1),
            resolutions: config
                .resolutions
                .into_iter()
                .filter(|w| w.is_finite() && *w > 0.0)
                .collect(),
        };
        TimeSeriesStore { config, epoch_s: 0.0, series: BTreeMap::new() }
    }

    /// The store's configuration.
    pub fn config(&self) -> &TsdbConfig {
        &self.config
    }

    /// Record one sample. Non-finite timestamps or values are dropped
    /// (they would poison the min/max aggregates); the JSON dump and the
    /// chunk codec therefore only ever carry finite numbers.
    pub fn record(&mut self, name: &str, t_s: f64, value: f64) {
        if !t_s.is_finite() || !value.is_finite() {
            return;
        }
        let capacity = self.config.capacity;
        match self.series.get_mut(name) {
            Some(s) => s.push(capacity, t_s, value),
            None => {
                let mut s = Series::new(&self.config.resolutions);
                s.push(capacity, t_s, value);
                self.series.insert(name.to_string(), s);
            }
        }
    }

    /// Ingest one registry snapshot, stamped at `epoch + monotonic_s`:
    /// every counter and gauge becomes a series under its own name; every
    /// histogram contributes `<name>.count`, `<name>.p50`, `<name>.p95`
    /// and `<name>.p99`.
    pub fn ingest(&mut self, report: &MetricsReport) {
        let t = self.epoch_s + report.monotonic_s;
        for (name, v) in &report.counters {
            self.record(name, t, *v);
        }
        for (name, v) in &report.gauges {
            self.record(name, t, *v);
        }
        for (name, h) in &report.histograms {
            self.record(&format!("{name}.count"), t, h.count as f64);
            if h.count > 0 {
                self.record(&format!("{name}.p50"), t, h.p50());
                self.record(&format!("{name}.p95"), t, h.p95());
                self.record(&format!("{name}.p99"), t, h.p99());
            }
        }
    }

    /// Advance the epoch past everything recorded so far, so that
    /// subsequent [`ingest`](Self::ingest) calls (whose source registry
    /// restarted at `monotonic_s ≈ 0`) extend the history instead of
    /// interleaving with it. Called by [`load_or_new`](Self::load_or_new).
    pub fn rebase(&mut self) {
        let max_t =
            self.series.values().filter_map(|s| s.raw.back().map(|p| p.t_s)).fold(0.0f64, f64::max);
        self.epoch_s = max_t;
    }

    /// Name of every series, sorted.
    pub fn series_names(&self) -> Vec<&str> {
        self.series.keys().map(|s| s.as_str()).collect()
    }

    /// Raw samples of `name`, oldest first (`None` for an unknown series).
    pub fn samples(&self, name: &str) -> Option<Vec<Sample>> {
        self.series.get(name).map(|s| s.raw.iter().copied().collect())
    }

    /// Downsampled buckets of `name` at resolution index `res` (the index
    /// into [`TsdbConfig::resolutions`]), oldest first, including the
    /// still-open bucket.
    pub fn coarse(&self, name: &str, res: usize) -> Option<Vec<CoarsePoint>> {
        self.series.get(name).and_then(|s| s.coarse.get(res)).map(|r| r.view())
    }

    /// The newest sample of `name`.
    pub fn latest(&self, name: &str) -> Option<Sample> {
        self.series.get(name).and_then(|s| s.raw.back().copied())
    }

    /// Total raw samples currently retained across all series.
    pub fn len(&self) -> usize {
        self.series.values().map(|s| s.raw.len()).sum()
    }

    /// True when no series holds any sample.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize the full store state (raw rings, coarse rings including
    /// open aggregates, epoch) as one self-describing JSON object —
    /// the payload of the `/metrics/history` endpoint. Key order is
    /// pinned: `version`, `capacity`, `resolutions`, `epoch_s`, `series`;
    /// each series carries `name`, `points` (raw `[t, value]` pairs) and
    /// `coarse` (per resolution: `[t, min, max, mean, last, count]`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        json::object(&mut out, |o| {
            o.field("version", &FORMAT_VERSION)
                .field("capacity", &self.config.capacity)
                .field("resolutions", &self.config.resolutions)
                .field("epoch_s", &self.epoch_s);
            json::array(o.key("series"), &self.series, |out, (name, s)| {
                json::object(out, |o| {
                    o.field("name", name);
                    json::array(o.key("points"), &s.raw, |out, p| (p.t_s, p.value).write_json(out));
                    json::array(o.key("coarse"), &s.coarse, |out, r| {
                        json::object(out, |o| {
                            o.field("width_s", &r.width_s);
                            json::array(o.key("points"), r.view(), |out, c| {
                                out.push('[');
                                for x in [c.t_s, c.min, c.max, c.mean(), c.last] {
                                    x.write_json(out);
                                    out.push(',');
                                }
                                c.count.write_json(out);
                                out.push(']');
                            });
                        });
                    });
                });
            });
        });
        out
    }

    // ---- chunk codec --------------------------------------------------

    /// Encode the full store state as one chunk (see the crate docs for
    /// the byte layout).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut conf = Writer::new();
        conf.u64(self.config.capacity as u64);
        conf.f64(self.epoch_s);
        conf.u64(self.config.resolutions.len() as u64);
        for w in &self.config.resolutions {
            conf.f64(*w);
        }

        let mut sers = Writer::new();
        sers.u64(self.series.len() as u64);
        for (name, s) in &self.series {
            sers.str(name);
            sers.u64(s.raw.len() as u64);
            for p in &s.raw {
                sers.f64(p.t_s);
                sers.f64(p.value);
            }
            sers.u64(s.coarse.len() as u64);
            for ring in &s.coarse {
                sers.f64(ring.width_s);
                sers.u64(ring.points.len() as u64);
                for c in &ring.points {
                    write_coarse(&mut sers, c);
                }
                match &ring.open {
                    None => sers.u8(0),
                    Some((bucket, agg)) => {
                        sers.u8(1);
                        sers.u64(*bucket);
                        write_coarse(&mut sers, agg);
                    }
                }
            }
        }

        let mut body = Writer::new();
        body.section(b"conf", &conf.into_bytes());
        body.section(b"sers", &sers.into_bytes());
        let body = body.into_bytes();

        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }

    /// Decode a chunk produced by [`to_bytes`](Self::to_bytes). Unknown
    /// section tags are skipped; every malformation is a typed
    /// [`StoreError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut header = Reader::new(bytes);
        let mut magic = [0u8; 4];
        for b in &mut magic {
            *b = header.u8()?;
        }
        if magic != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = header.u32()?;
        if version > FORMAT_VERSION {
            return Err(StoreError::FutureVersion { found: version });
        }
        let expected = header.u32()?;
        let body = &bytes[12..];
        let found = crc32(body);
        if found != expected {
            return Err(StoreError::BadChecksum { expected, found });
        }

        let mut conf: Option<(usize, f64, Vec<f64>)> = None;
        let mut sers_payload: Option<Reader> = None;
        let mut sections = Reader::new(body);
        while !sections.is_empty() {
            let (tag, mut payload) = sections.section()?;
            match &tag {
                b"conf" => {
                    let capacity = payload.len()?;
                    let epoch_s = payload.f64()?;
                    let n = payload.len()?;
                    let mut resolutions = Vec::with_capacity(n.min(64));
                    for _ in 0..n {
                        resolutions.push(payload.f64()?);
                    }
                    conf = Some((capacity, epoch_s, resolutions));
                }
                b"sers" => sers_payload = Some(payload),
                _ => {} // forward-compatible: skip unknown sections
            }
        }
        let (capacity, epoch_s, resolutions) =
            conf.ok_or_else(|| StoreError::Corrupt("missing conf section".into()))?;
        if capacity == 0 {
            return Err(StoreError::Corrupt("capacity 0".into()));
        }

        let mut series = BTreeMap::new();
        if let Some(mut r) = sers_payload {
            let n_series = r.len()?;
            for _ in 0..n_series {
                let name = r.str()?;
                let n_raw = r.len()?;
                if n_raw > capacity {
                    return Err(StoreError::Corrupt(format!(
                        "series '{name}': {n_raw} raw samples exceed capacity {capacity}"
                    )));
                }
                let mut raw = VecDeque::with_capacity(n_raw);
                for _ in 0..n_raw {
                    let t_s = r.f64()?;
                    let value = r.f64()?;
                    raw.push_back(Sample { t_s, value });
                }
                let n_rings = r.len()?;
                if n_rings != resolutions.len() {
                    return Err(StoreError::Corrupt(format!(
                        "series '{name}': {n_rings} coarse rings vs {} resolutions",
                        resolutions.len()
                    )));
                }
                let mut coarse = Vec::with_capacity(n_rings);
                for _ in 0..n_rings {
                    let width_s = r.f64()?;
                    let n_points = r.len()?;
                    if n_points > capacity {
                        return Err(StoreError::Corrupt(format!(
                            "series '{name}': {n_points} coarse points exceed capacity {capacity}"
                        )));
                    }
                    let mut points = VecDeque::with_capacity(n_points);
                    for _ in 0..n_points {
                        points.push_back(read_coarse(&mut r)?);
                    }
                    let open = match r.u8()? {
                        0 => None,
                        1 => {
                            let bucket = r.u64()?;
                            Some((bucket, read_coarse(&mut r)?))
                        }
                        other => {
                            return Err(StoreError::Corrupt(format!(
                                "bad open-aggregate flag {other}"
                            )))
                        }
                    };
                    coarse.push(CoarseRing { width_s, points, open });
                }
                series.insert(name, Series { raw, coarse });
            }
        }
        Ok(TimeSeriesStore { config: TsdbConfig { capacity, resolutions }, epoch_s, series })
    }

    /// Write the chunk to `path` atomically (tmp file + rename), so a
    /// crashed writer never leaves a torn chunk behind.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.to_bytes())?;
        fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Read a chunk from `path`.
    pub fn load(path: &Path) -> Result<Self, StoreError> {
        let bytes = fs::read(path)?;
        Self::from_bytes(&bytes)
    }

    /// Load the chunk at `path` and rebase it for continued ingestion —
    /// or start empty with `config` when the file is absent, unreadable,
    /// corrupt, or was written with a different configuration.
    ///
    /// Returns `(store, Some(error))` when a file was present but could
    /// not be used, `(store, None)` otherwise (a missing file is the
    /// normal cold start, not an error).
    pub fn load_or_new(path: &Path, config: TsdbConfig) -> (Self, Option<StoreError>) {
        match Self::load(path) {
            Ok(mut store) if store.config == TimeSeriesStore::new(config.clone()).config => {
                store.rebase();
                (store, None)
            }
            Ok(_) => (
                Self::new(config),
                Some(StoreError::Corrupt("history chunk written with a different config".into())),
            ),
            Err(StoreError::Io(e)) if e.kind() == io::ErrorKind::NotFound => {
                (Self::new(config), None)
            }
            Err(e) => (Self::new(config), Some(e)),
        }
    }
}

fn write_coarse(w: &mut Writer, c: &CoarsePoint) {
    w.f64(c.t_s);
    w.f64(c.min);
    w.f64(c.max);
    w.f64(c.sum);
    w.u64(c.count);
    w.f64(c.last);
}

fn read_coarse(r: &mut Reader) -> Result<CoarsePoint, StoreError> {
    Ok(CoarsePoint {
        t_s: r.f64()?,
        min: r.f64()?,
        max: r.f64()?,
        sum: r.f64()?,
        count: r.u64()?,
        last: r.f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaphet_metrics::{Recorder, Registry};
    use proptest::prelude::*;

    fn store_with(capacity: usize, resolutions: Vec<f64>) -> TimeSeriesStore {
        TimeSeriesStore::new(TsdbConfig { capacity, resolutions })
    }

    fn sample_store() -> TimeSeriesStore {
        let mut s = store_with(8, vec![10.0, 100.0]);
        for i in 0..20 {
            let t = i as f64 * 2.5;
            s.record("service.request", t, i as f64);
            s.record("service.in_flight", t, (i % 3) as f64);
        }
        s
    }

    #[test]
    fn raw_ring_drops_oldest_at_capacity() {
        let s = sample_store();
        let pts = s.samples("service.request").unwrap();
        assert_eq!(pts.len(), 8);
        assert_eq!(pts[0].value, 12.0); // 20 recorded, first 12 evicted
        assert_eq!(pts.last().unwrap().value, 19.0);
        assert_eq!(s.latest("service.request").unwrap().value, 19.0);
    }

    #[test]
    fn downsampling_aggregates_min_max_mean_last() {
        let mut s = store_with(32, vec![10.0]);
        // Bucket [0, 10): samples 4, 8, 2 at t = 1, 5, 9.
        s.record("x", 1.0, 4.0);
        s.record("x", 5.0, 8.0);
        s.record("x", 9.0, 2.0);
        // Bucket [10, 20): one sample, which also closes the first bucket.
        s.record("x", 11.0, 100.0);
        let c = s.coarse("x", 0).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].t_s, 0.0);
        assert_eq!(c[0].min, 2.0);
        assert_eq!(c[0].max, 8.0);
        assert!((c[0].mean() - 14.0 / 3.0).abs() < 1e-12);
        assert_eq!(c[0].last, 2.0);
        assert_eq!(c[0].count, 3);
        // The open bucket is visible in the view.
        assert_eq!(c[1].t_s, 10.0);
        assert_eq!(c[1].count, 1);
    }

    #[test]
    fn coarse_ring_is_bounded_too() {
        let mut s = store_with(4, vec![1.0]);
        for i in 0..100 {
            s.record("x", i as f64, 1.0);
        }
        // 4 closed buckets max + the open one.
        assert!(s.coarse("x", 0).unwrap().len() <= 5);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let mut s = store_with(8, vec![]);
        s.record("x", 0.0, f64::NAN);
        s.record("x", f64::INFINITY, 1.0);
        assert!(s.samples("x").is_none());
    }

    #[test]
    fn ingest_maps_counters_gauges_and_histogram_percentiles() {
        let reg = Registry::new();
        reg.add("tuner.retry", 3.0);
        reg.gauge("service.in_flight", 2.0);
        for v in [0.01, 0.02, 0.03] {
            reg.observe("session.propose_s", v);
        }
        let mut s = store_with(16, vec![]);
        s.ingest(&reg.snapshot());
        let names = s.series_names();
        assert!(names.contains(&"tuner.retry"), "{names:?}");
        assert!(names.contains(&"service.in_flight"), "{names:?}");
        assert!(names.contains(&"session.propose_s.count"), "{names:?}");
        assert!(names.contains(&"session.propose_s.p50"), "{names:?}");
        assert!(names.contains(&"session.propose_s.p95"), "{names:?}");
        assert!(names.contains(&"session.propose_s.p99"), "{names:?}");
        assert_eq!(s.latest("session.propose_s.count").unwrap().value, 3.0);
    }

    #[test]
    fn ingest_timestamps_ride_the_epoch() {
        let reg = Registry::new();
        reg.add("c", 1.0);
        let mut s = store_with(16, vec![]);
        s.ingest(&reg.snapshot());
        let t0 = s.latest("c").unwrap().t_s;
        s.rebase();
        s.ingest(&reg.snapshot());
        // After rebase, a fresh registry's near-zero stamp lands after the
        // persisted history, not on top of it.
        assert!(s.latest("c").unwrap().t_s >= t0);
        assert_eq!(s.samples("c").unwrap().len(), 2);
    }

    #[test]
    fn round_trips_bit_exactly() {
        let s = sample_store();
        let back = TimeSeriesStore::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_bytes(), s.to_bytes());
    }

    #[test]
    fn empty_store_round_trips() {
        let s = store_with(4, vec![60.0]);
        let back = TimeSeriesStore::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample_store().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(TimeSeriesStore::from_bytes(&bytes), Err(StoreError::BadMagic)));
        assert!(matches!(TimeSeriesStore::from_bytes(b"AD"), Err(StoreError::Truncated)));
    }

    #[test]
    fn future_version_is_typed() {
        let mut bytes = sample_store().to_bytes();
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match TimeSeriesStore::from_bytes(&bytes) {
            Err(StoreError::FutureVersion { found }) => assert_eq!(found, FORMAT_VERSION + 1),
            other => panic!("expected FutureVersion, got {other:?}"),
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error_never_a_panic() {
        let bytes = sample_store().to_bytes();
        for cut in 0..bytes.len() {
            let err = TimeSeriesStore::from_bytes(&bytes[..cut])
                .expect_err("truncated chunk must not decode");
            assert!(
                matches!(
                    err,
                    StoreError::Truncated | StoreError::BadChecksum { .. } | StoreError::Corrupt(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_in_the_body_trips_the_checksum() {
        let bytes = sample_store().to_bytes();
        for i in 12..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            match TimeSeriesStore::from_bytes(&corrupt) {
                Err(StoreError::BadChecksum { .. }) => {}
                other => panic!("flip at {i}: expected BadChecksum, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let s = sample_store();
        let bytes = s.to_bytes();
        // Rebuild with an extra trailing section of unknown tag.
        let mut body = bytes[12..].to_vec();
        let mut extra = Writer::new();
        extra.section(b"zzzz", &[1, 2, 3]);
        body.extend_from_slice(&extra.into_bytes());
        let mut out = bytes[..4].to_vec();
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        assert_eq!(TimeSeriesStore::from_bytes(&out).unwrap(), s);
    }

    #[test]
    fn save_load_and_cold_fallback() {
        let dir = std::env::temp_dir().join(format!("adaphet-tsdb-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("history.adts");
        let s = sample_store();
        s.save(&path).unwrap();
        assert_eq!(TimeSeriesStore::load(&path).unwrap(), s);

        // Warm path: same config → persisted rings come back, rebased.
        let (warm, err) = TimeSeriesStore::load_or_new(
            &path,
            TsdbConfig { capacity: 8, resolutions: vec![10.0, 100.0] },
        );
        assert!(err.is_none());
        assert_eq!(warm.len(), s.len());

        // Config drift → cold start, with the reason surfaced.
        let (cold, err) = TimeSeriesStore::load_or_new(
            &path,
            TsdbConfig { capacity: 9, resolutions: vec![10.0] },
        );
        assert!(cold.is_empty());
        assert!(err.is_some());

        // Missing file → cold start, no error.
        let (cold, err) = TimeSeriesStore::load_or_new(&dir.join("absent"), TsdbConfig::default());
        assert!(cold.is_empty() && err.is_none());

        // Corrupt file → cold start, error surfaced.
        fs::write(&path, b"ADTSgarbage").unwrap();
        let (cold, err) = TimeSeriesStore::load_or_new(
            &path,
            TsdbConfig { capacity: 8, resolutions: vec![10.0, 100.0] },
        );
        assert!(cold.is_empty() && err.is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_dump_has_pinned_key_order_and_sorted_series() {
        let j = sample_store().to_json();
        let keys =
            ["\"version\":", "\"capacity\":", "\"resolutions\":", "\"epoch_s\":", "\"series\":"];
        let mut from = 0;
        for k in keys {
            let at = j[from..].find(k).unwrap_or_else(|| panic!("missing {k} in {j}"));
            from += at + k.len();
        }
        // BTreeMap ordering: in_flight sorts before request.
        assert!(j.find("service.in_flight").unwrap() < j.find("service.request").unwrap(), "{j}");
        assert!(j.contains("\"width_s\":10"), "{j}");
    }

    proptest! {
        /// Random stores round-trip bit-identically through the chunk
        /// codec (floats compared via the encoded bytes).
        #[test]
        fn prop_round_trip_bit_identical(
            capacity in 1usize..16,
            n_res in 0usize..3,
            n_series in 0usize..4,
            n_samples in 0usize..40,
            raw in collection::vec(0u64..(1 << 63), 0..200),
        ) {
            let mut pool = raw.into_iter().cycle();
            let mut f = || {
                let v = f64::from_bits(pool.next().unwrap_or(0x3FF0_0000_0000_0000));
                if v.is_finite() { v.abs() % 1.0e9 } else { 1.0 }
            };
            let resolutions: Vec<f64> = (0..n_res).map(|i| 10.0f64.powi(i as i32 + 1)).collect();
            let mut store = TimeSeriesStore::new(TsdbConfig { capacity, resolutions });
            for si in 0..n_series {
                let name = format!("series.{si}");
                let mut t = 0.0;
                for _ in 0..n_samples {
                    t += f();
                    store.record(&name, t, f());
                }
            }
            let back = TimeSeriesStore::from_bytes(&store.to_bytes()).unwrap();
            prop_assert_eq!(back.to_bytes(), store.to_bytes());
        }
    }
}
