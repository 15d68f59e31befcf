//! The directory-backed store: atomic puts, exact gets, and a nearest
//! lookup ranked over an in-memory header index.

use crate::error::StoreError;
use crate::signature::PlatformSignature;
use crate::snapshot::SurrogateSnapshot;
use std::collections::BTreeMap;
use std::ffi::{OsStr, OsString};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A directory of surrogate snapshots, one file per
/// `(strategy, platform signature)` pair.
///
/// Writes are atomic: the snapshot is written to a temporary file in the
/// same directory and renamed into place, so readers (and a daemon
/// restarted mid-write) only ever see complete files. A later `put`
/// under the same key replaces the earlier snapshot.
///
/// Clones share one header index (file name → strategy and signature),
/// so [`nearest`](SurrogateStore::nearest) ranks in memory and reads
/// only the winning file — see `DESIGN.md` §8 "Lookup index".
#[derive(Debug, Clone)]
pub struct SurrogateStore {
    dir: PathBuf,
    index: Arc<Mutex<Index>>,
}

/// What [`nearest`](SurrogateStore::nearest) ranks by, per snapshot file.
#[derive(Debug)]
struct Header {
    strategy: String,
    signature: PlatformSignature,
    /// The reconcile pass that last saw the file in the directory.
    seen: u64,
}

impl Header {
    fn of(snap: &SurrogateSnapshot, seen: u64) -> Header {
        Header { strategy: snap.strategy.clone(), signature: snap.signature.clone(), seen }
    }

    /// Whether `snap` carries exactly this header. Bitwise on floats, so
    /// a header describes the snapshot it was taken from even with a NaN
    /// feature (the winner loop in `nearest_indexed` ends on that).
    fn describes(&self, snap: &SurrogateSnapshot) -> bool {
        self.strategy == snap.strategy && self.signature.same_bits(&snap.signature)
    }
}

#[derive(Debug, Default)]
struct Index {
    /// File name → header, in the file-name order ties break by.
    headers: BTreeMap<OsString, Header>,
    /// Counts reconcile passes; stamps [`Header::seen`].
    pass: u64,
    /// The counters; `entries` is filled in when they are read.
    stats: IndexStats,
}

/// Counters of a store's shared header index (all clones of a handle
/// report the same numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Snapshot files the index currently holds a header for.
    pub entries: usize,
    /// Snapshot files `nearest` has read and decoded so far.
    pub file_loads: u64,
    /// Times `nearest` passed over a file that failed to decode.
    pub corrupt_skipped: u64,
    /// `nearest` calls that failed outright (directory unreadable).
    pub lookup_errors: u64,
}

/// Distinguishes the temporary files of concurrent `put`s in one process.
static PUT_SEQ: AtomicU64 = AtomicU64::new(0);

impl SurrogateStore {
    /// Open (creating if needed) the store at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> Result<SurrogateStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(SurrogateStore { dir, index: Arc::default() })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn index(&self) -> MutexGuard<'_, Index> {
        // Every update leaves the map valid (a stale or missing header is
        // repaired by the next lookup), so a panicked holder is harmless.
        self.index.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// The shared index's counters, for metrics and tests.
    pub fn index_stats(&self) -> IndexStats {
        let index = self.index();
        IndexStats { entries: index.headers.len(), ..index.stats }
    }

    fn file_name(strategy: &str, key: u64) -> String {
        let slug: String = strategy
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c.to_ascii_lowercase() } else { '-' })
            .collect();
        format!("{slug}-{key:016x}.snap")
    }

    /// Persist `snap`, keyed by its strategy and signature. Returns the
    /// snapshot's path.
    pub fn put(&self, snap: &SurrogateSnapshot) -> Result<PathBuf, StoreError> {
        let name = Self::file_name(&snap.strategy, snap.signature.key());
        let path = self.dir.join(&name);
        // Unique per call: two threads putting the same key must not
        // share a temporary file.
        let seq = PUT_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(".{name}.tmp-{}-{seq}", std::process::id()));
        fs::write(&tmp, snap.to_bytes()).and_then(|()| fs::rename(&tmp, &path)).inspect_err(
            |_| {
                let _ = fs::remove_file(&tmp);
            },
        )?;
        // The next lookup's reconcile stamps `seen` when it lists the file.
        self.index().headers.insert(name.into(), Header::of(snap, 0));
        Ok(path)
    }

    /// Load the snapshot stored under exactly this `(strategy,
    /// signature)` key, if any. Decoding failures are propagated — a
    /// corrupt snapshot under the exact key is worth reporting.
    pub fn get(
        &self,
        signature: &PlatformSignature,
        strategy: &str,
    ) -> Result<Option<SurrogateSnapshot>, StoreError> {
        let path = self.dir.join(Self::file_name(strategy, signature.key()));
        match fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
            Ok(bytes) => SurrogateSnapshot::from_bytes(&bytes).map(Some),
        }
    }

    /// Names of the `*.snap` files currently in the directory, unsorted.
    fn snap_names(&self) -> Result<Vec<OsString>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            if Path::new(&name).extension().is_some_and(|e| e == "snap") {
                out.push(name);
            }
        }
        Ok(out)
    }

    /// Paths of every snapshot file currently in the store.
    pub fn entries(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut out: Vec<PathBuf> =
            self.snap_names()?.iter().map(|name| self.dir.join(name)).collect();
        out.sort();
        Ok(out)
    }

    /// Load one snapshot file.
    pub fn load(&self, path: &Path) -> Result<SurrogateSnapshot, StoreError> {
        SurrogateSnapshot::from_bytes(&fs::read(path)?)
    }

    /// The stored snapshot for `strategy` whose signature is most
    /// similar to `signature`, among those scoring at least
    /// `min_similarity` — or `None`. Corrupt entries are skipped (one
    /// bad file must not disable warm-starting); ties break toward the
    /// lexicographically first file, so the lookup is deterministic.
    ///
    /// Costs one directory listing, a pass over the in-memory headers
    /// and one file read (the winner's, checksummed and fully decoded),
    /// plus one read per file that appeared since the previous lookup.
    pub fn nearest(
        &self,
        signature: &PlatformSignature,
        strategy: &str,
        min_similarity: f64,
    ) -> Result<Option<(SurrogateSnapshot, f64)>, StoreError> {
        let found = self.nearest_indexed(signature, strategy, min_similarity)?;
        Ok(found.map(|(_, snap, sim)| (snap, sim)))
    }

    /// [`nearest`](Self::nearest), also naming the winning file.
    fn nearest_indexed(
        &self,
        signature: &PlatformSignature,
        strategy: &str,
        min_similarity: f64,
    ) -> Result<Option<(OsString, SurrogateSnapshot, f64)>, StoreError> {
        // Held across the whole lookup: a concurrent `put`'s write-through
        // must not land between the listing and the reconcile, or its
        // header would be dropped as vanished.
        let mut index = self.index();
        let names = self.snap_names().inspect_err(|_| index.stats.lookup_errors += 1)?;
        index.reconcile(&self.dir, names);
        loop {
            let mut best: Option<(&OsString, f64)> = None;
            for (name, header) in &index.headers {
                if header.strategy != strategy {
                    continue;
                }
                let sim = signature.similarity(&header.signature);
                if sim < min_similarity {
                    continue;
                }
                if best.is_none_or(|(_, b)| sim > b) {
                    best = Some((name, sim));
                }
            }
            let Some((name, sim)) = best else { return Ok(None) };
            let name = name.clone();
            // The ranking trusted the indexed header; the file on disk
            // has the last word, on content always and on the header too.
            match index.load(&self.dir, &name) {
                Some(snap) if index.headers[&name].describes(&snap) => {
                    return Ok(Some((name, snap, sim)));
                }
                // A hash collision or a foreign overwrite: rank again on
                // what the file says now.
                Some(snap) => {
                    let header = Header::of(&snap, index.pass);
                    index.headers.insert(name, header);
                }
                None => {
                    index.headers.remove(&name);
                }
            }
        }
    }

    /// The lookup `nearest` replaces — every file read, checksummed and
    /// decoded on every call — kept as the oracle the indexed lookup is
    /// tested against.
    #[cfg(test)]
    fn nearest_full_scan(
        &self,
        signature: &PlatformSignature,
        strategy: &str,
        min_similarity: f64,
    ) -> Result<Option<(OsString, SurrogateSnapshot, f64)>, StoreError> {
        let mut best: Option<(OsString, SurrogateSnapshot, f64)> = None;
        for path in self.entries()? {
            let Ok(snap) = self.load(&path) else { continue };
            if snap.strategy != strategy {
                continue;
            }
            let sim = signature.similarity(&snap.signature);
            if sim < min_similarity {
                continue;
            }
            if best.as_ref().is_none_or(|(_, _, b)| sim > *b) {
                let name = path.file_name().expect("entries are files").to_os_string();
                best = Some((name, snap, sim));
            }
        }
        Ok(best)
    }
}

impl Index {
    /// Read, checksum and decode `dir/name`; `None` (counted) when the
    /// file is unreadable or corrupt.
    fn load(&mut self, dir: &Path, name: &OsStr) -> Option<SurrogateSnapshot> {
        self.stats.file_loads += 1;
        let decoded = fs::read(dir.join(name))
            .map_err(StoreError::from)
            .and_then(|bytes| SurrogateSnapshot::from_bytes(&bytes));
        if decoded.is_err() {
            self.stats.corrupt_skipped += 1;
        }
        decoded.ok()
    }

    /// Bring the headers in line with a fresh directory listing: load
    /// the names not indexed yet, drop the ones that are gone. A name
    /// already indexed keeps its header without a read — the file name
    /// is a function of `(strategy, signature)`.
    fn reconcile(&mut self, dir: &Path, names: Vec<OsString>) {
        self.pass += 1;
        let mut listed = 0;
        for name in names {
            if let Some(header) = self.headers.get_mut(&name) {
                header.seen = self.pass;
                listed += 1;
            } else if let Some(snap) = self.load(dir, &name) {
                self.headers.insert(name, Header::of(&snap, self.pass));
                listed += 1;
            }
        }
        if listed < self.headers.len() {
            let pass = self.pass;
            self.headers.retain(|_, header| header.seen == pass);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::GroupSig;

    fn sig(workload: u64, counts: &[u32]) -> PlatformSignature {
        PlatformSignature::new(
            workload,
            counts
                .iter()
                .enumerate()
                .map(|(i, &c)| GroupSig { count: c, speed: 100.0 / (i + 1) as f64, bw: 10.0 })
                .collect(),
        )
    }

    fn snap(workload: u64, counts: &[u32], strategy: &str) -> SurrogateSnapshot {
        let n: usize = counts.iter().map(|&c| c as usize).sum();
        SurrogateSnapshot {
            signature: sig(workload, counts),
            strategy: strategy.into(),
            max_nodes: n,
            groups: vec![(1, n)],
            lp: None,
            observations: vec![(n, 1.5), (1, 9.0)],
            hyper: None,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("adaphet-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trip() {
        let store = SurrogateStore::open(tmp_dir("roundtrip")).unwrap();
        let s = snap(7, &[2, 6], "GP-discontinuous");
        let path = store.put(&s).unwrap();
        assert!(path.exists());
        let back = store.get(&s.signature, "GP-discontinuous").unwrap().unwrap();
        assert_eq!(back, s);
        // A different strategy under the same signature is a different key.
        assert!(store.get(&s.signature, "GP-UCB").unwrap().is_none());
        // No leftover temp files from the atomic write.
        assert_eq!(store.entries().unwrap().len(), 1);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn put_replaces_under_the_same_key() {
        let store = SurrogateStore::open(tmp_dir("replace")).unwrap();
        let mut s = snap(7, &[4], "GP-UCB");
        store.put(&s).unwrap();
        s.observations.push((2, 3.25));
        store.put(&s).unwrap();
        assert_eq!(store.entries().unwrap().len(), 1);
        let back = store.get(&s.signature, "GP-UCB").unwrap().unwrap();
        assert_eq!(back.observations.len(), 3);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn nearest_prefers_similar_platforms_and_honours_the_floor() {
        let store = SurrogateStore::open(tmp_dir("nearest")).unwrap();
        store.put(&snap(7, &[2, 6], "GP-discontinuous")).unwrap();
        store.put(&snap(7, &[2, 8], "GP-discontinuous")).unwrap();
        store.put(&snap(7, &[64], "GP-discontinuous")).unwrap();
        store.put(&snap(7, &[2, 7], "GP-UCB")).unwrap(); // wrong strategy
        let target = sig(7, &[2, 7]);
        let (best, sim) =
            store.nearest(&target, "GP-discontinuous", 0.0).unwrap().expect("a match");
        // Count ratio to 7: the 8-node group (7/8) beats the 6-node one (6/7).
        assert_eq!(best.signature.groups[1].count, 8);
        assert!(sim > 0.5, "similarity {sim}");
        // An impossible floor returns none.
        assert!(store.nearest(&target, "GP-discontinuous", 1.1).unwrap().is_none());
        // Exact self-match scores 1.0 once stored.
        store.put(&snap(7, &[2, 7], "GP-discontinuous")).unwrap();
        let (_, sim) = store.nearest(&target, "GP-discontinuous", 0.99).unwrap().unwrap();
        assert_eq!(sim, 1.0);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn nearest_skips_corrupt_entries_but_get_reports_them() {
        let store = SurrogateStore::open(tmp_dir("corrupt")).unwrap();
        let good = snap(7, &[2, 6], "GP-discontinuous");
        store.put(&good).unwrap();
        let bad = snap(7, &[3, 6], "GP-discontinuous");
        let bad_path = store.put(&bad).unwrap();
        // Corrupt the second snapshot's body on disk.
        let mut bytes = fs::read(&bad_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&bad_path, bytes).unwrap();
        // nearest survives and returns the good one.
        let (found, _) = store.nearest(&good.signature, "GP-discontinuous", 0.0).unwrap().unwrap();
        assert_eq!(found.signature, good.signature);
        // exact get on the corrupt key reports the checksum failure.
        assert!(matches!(
            store.get(&bad.signature, "GP-discontinuous"),
            Err(StoreError::BadChecksum { .. })
        ));
        fs::remove_dir_all(store.dir()).unwrap();
    }

    /// Indexed lookup and full-scan oracle must agree on file,
    /// similarity bits and decoded snapshot.
    fn assert_same_lookup(
        store: &SurrogateStore,
        target: &PlatformSignature,
        strategy: &str,
        min_similarity: f64,
    ) {
        let indexed = store.nearest_indexed(target, strategy, min_similarity).unwrap();
        let scanned = store.nearest_full_scan(target, strategy, min_similarity).unwrap();
        match (indexed, scanned) {
            (None, None) => {}
            (Some((file, snap, sim)), Some((o_file, o_snap, o_sim))) => {
                assert_eq!(file, o_file, "winning file ({strategy}, floor {min_similarity})");
                assert_eq!(sim.to_bits(), o_sim.to_bits());
                assert_eq!(snap.to_bytes(), o_snap.to_bytes());
            }
            (indexed, scanned) => panic!(
                "indexed {:?} vs full scan {:?} ({strategy}, floor {min_similarity})",
                indexed.map(|(f, _, s)| (f, s)),
                scanned.map(|(f, _, s)| (f, s)),
            ),
        }
    }

    const STRATEGIES: [&str; 2] = ["GP-discontinuous", "GP-UCB"];
    const FLOORS: [f64; 4] = [0.0, 0.4, 0.75, 1.1];

    fn assert_same_lookups(store: &SurrogateStore, target: &PlatformSignature) {
        for strategy in STRATEGIES {
            for floor in FLOORS {
                assert_same_lookup(store, target, strategy, floor);
            }
        }
        // Vanished files leave the index (corrupted ones may linger until
        // they would win), so it never outgrows the directory.
        assert!(store.index_stats().entries <= store.entries().unwrap().len());
    }

    fn overwrite(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = fs::read(path).unwrap();
        edit(&mut bytes);
        fs::write(path, bytes).unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]

        /// Random histories of a store directory — puts through this
        /// handle and through a second one opened on its own (another
        /// process), deletions, corruption of the winner and of other
        /// files, strays, ties — never make the indexed lookup differ
        /// from the full scan.
        #[test]
        fn prop_indexed_nearest_equals_the_full_scan(
            case in 0u64..(1 << 32),
            ops in proptest::collection::vec(0u64..(1 << 40), 1..40),
        ) {
            let store = SurrogateStore::open(tmp_dir(&format!("diff-{case}"))).unwrap();
            let foreign = SurrogateStore::open(store.dir()).unwrap();
            let target = sig(7, &[2, 7]);
            for word in ops {
                let (op, a, b) = (word % 10, (word >> 8) as u32 % 6, (word >> 16) as u32 % 9);
                // A small key space, so puts often replace and workloads
                // 1..3 (≠ 7) with equal counts tie on similarity.
                let mut s = snap(1 + u64::from(a % 3) * 3, &[2, 4 + b], STRATEGIES[a as usize % 2]);
                s.observations.push(((word >> 24) as usize % 9 + 1, (word >> 28) as f64));
                let files = store.entries().unwrap();
                let pick = || files.get((word >> 32) as usize % files.len().max(1));
                let winner = || {
                    let found = store.nearest_full_scan(&target, STRATEGIES[0], 0.0).unwrap();
                    found.map(|(name, _, _)| store.dir().join(name))
                };
                match op {
                    0 | 1 => drop(store.put(&s).unwrap()),
                    2 => drop(foreign.put(&s).unwrap()),
                    3 => {
                        if let Some(path) = pick() {
                            fs::remove_file(path).unwrap();
                        }
                    }
                    4 => {
                        if let Some(path) = pick() {
                            overwrite(path, |bytes| {
                                let at = word as usize % bytes.len().max(1);
                                bytes.iter_mut().skip(at).take(1).for_each(|b| *b ^= 0x40);
                            });
                        }
                    }
                    5 => {
                        if let Some(path) = pick() {
                            overwrite(path, |bytes| bytes.truncate(word as usize % bytes.len().max(1)));
                        }
                    }
                    6 => {
                        if let Some(path) = winner() {
                            overwrite(&path, |bytes| *bytes.last_mut().unwrap() ^= 0xFF);
                        }
                    }
                    7 => {
                        if let Some(path) = winner() {
                            overwrite(&path, |bytes| bytes.truncate(bytes.len() / 2));
                        }
                    }
                    8 => {
                        fs::write(store.dir().join(format!(".x.snap.tmp-1-{a}")), b"torn").unwrap();
                        fs::write(store.dir().join(format!("notes-{b}.txt")), b"ADSS").unwrap();
                    }
                    _ => {
                        // An exact match for the target, then lookups
                        // through a clone (same index).
                        store.put(&snap(7, &[2, 7], STRATEGIES[a as usize % 2])).unwrap();
                        assert_same_lookups(&store.clone(), &target);
                    }
                }
                assert_same_lookups(&store, &target);
            }
            fs::remove_dir_all(store.dir()).unwrap();
        }
    }

    #[test]
    fn ties_break_toward_the_lexicographically_first_file() {
        let store = SurrogateStore::open(tmp_dir("ties")).unwrap();
        // Same groups, workloads all different from the target's: every
        // entry scores exactly 0.5.
        for workload in 1..=6 {
            store.put(&snap(workload, &[2, 7], "GP-UCB")).unwrap();
        }
        let target = sig(7, &[2, 7]);
        let (file, _, sim) = store.nearest_indexed(&target, "GP-UCB", 0.0).unwrap().unwrap();
        assert_eq!(sim, 0.5);
        let first = store.entries().unwrap().remove(0);
        assert_eq!(Some(file.as_os_str()), first.file_name());
        assert_same_lookups(&store, &target);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn a_winner_overwritten_with_another_header_is_ranked_again() {
        let store = SurrogateStore::open(tmp_dir("overwrite")).unwrap();
        let near = store.put(&snap(7, &[2, 7], "GP-UCB")).unwrap();
        let far = store.put(&snap(7, &[2, 30], "GP-UCB")).unwrap();
        let middle = snap(7, &[2, 9], "GP-UCB");
        store.put(&middle).unwrap();
        let target = sig(7, &[2, 7]);
        assert_eq!(store.nearest(&target, "GP-UCB", 0.0).unwrap().unwrap().1, 1.0);
        // What only a key collision or a foreign writer can do: the
        // winner's name now holds a snapshot with a different header.
        fs::copy(&far, &near).unwrap();
        let (found, _) = store.nearest(&target, "GP-UCB", 0.0).unwrap().unwrap();
        assert_eq!(found, middle);
        assert_same_lookups(&store, &target);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    /// Every offset at which a crashed, non-atomic writer could have
    /// stopped between two fields of the file: inside the 12-byte
    /// preamble, and before and after each section's tag + length.
    fn section_boundaries(bytes: &[u8]) -> Vec<usize> {
        let mut cuts = vec![0, 4, 8, 12];
        let mut at = 12;
        while at < bytes.len() {
            let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
            cuts.push(at + 12);
            at += 12 + len;
            cuts.push(at);
        }
        assert_eq!(cuts.pop(), Some(bytes.len()), "the walk ends at the end of the file");
        cuts
    }

    #[test]
    fn torn_files_never_surface() {
        let store = SurrogateStore::open(tmp_dir("torn")).unwrap();
        let mut whole = snap(7, &[2, 7], "GP-UCB");
        whole.lp = Some(vec![1.0; 9]);
        whole.hyper = Some(crate::GpHyper {
            kernel_family: "exponential".into(),
            theta: 2.0,
            process_var: 1.0,
            noise_var: 0.1,
            trend_coefficients: vec![0.5, -0.5],
        });
        let path = store.put(&whole).unwrap();
        let bytes = fs::read(&path).unwrap();
        // A writer that died before its rename leaves only this behind.
        let stray = store.dir().join(".gp-ucb-0000000000000000.snap.tmp-1-0");
        fs::write(&stray, &bytes[..bytes.len() / 2]).unwrap();
        let cuts = section_boundaries(&bytes);
        assert!(cuts.len() >= 4 + 2 * 5 - 1, "five sections: {cuts:?}");
        for cut in cuts {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(store.nearest(&whole.signature, "GP-UCB", 0.0).unwrap().is_none(), "cut {cut}");
            assert!(store.get(&whole.signature, "GP-UCB").is_err(), "cut {cut}");
            assert_eq!(store.entries().unwrap(), vec![path.clone()], "cut {cut}");
        }
        // A whole file under the name is found again, by the same handle.
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.nearest(&whole.signature, "GP-UCB", 0.0).unwrap().unwrap().0, whole);
        assert_eq!(store.index_stats().corrupt_skipped, 4 + 2 * 5 - 1);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn a_warm_index_reads_one_file_per_lookup() {
        let store = SurrogateStore::open(tmp_dir("count")).unwrap();
        for i in 0..1024u32 {
            store.put(&snap(u64::from(i % 4), &[2 + i % 16, 6 + i / 16], "GP-UCB")).unwrap();
        }
        assert_eq!(store.entries().unwrap().len(), 1024, "distinct keys");
        let target = sig(2, &[5, 40]);
        // Puts wrote through: even the first lookup reads the winner only.
        let first = store.nearest(&target, "GP-UCB", 0.5).unwrap().expect("a donor");
        assert_eq!(
            store.index_stats(),
            IndexStats { entries: 1024, file_loads: 1, ..Default::default() }
        );
        // A handle opened on its own starts empty and pays the full scan once.
        let other = SurrogateStore::open(store.dir()).unwrap();
        assert_eq!(other.nearest(&target, "GP-UCB", 0.5).unwrap().as_ref(), Some(&first));
        assert_eq!(other.index_stats().file_loads, 1025);
        // Clones share the index: one read, the winner's.
        let before = other.index_stats().file_loads;
        let again = other.clone().nearest(&target, "GP-UCB", 0.5).unwrap();
        assert_eq!(again.as_ref(), Some(&first));
        assert_eq!(other.index_stats().file_loads - before, 1);
        // A foreign put of a new key costs its one load, then the winner's.
        let exact = snap(2, &[5, 40], "GP-UCB");
        store.put(&exact).unwrap();
        let before = other.index_stats().file_loads;
        let (found, sim) = other.clone().nearest(&target, "GP-UCB", 0.5).unwrap().unwrap();
        assert_eq!((found, sim), (exact, 1.0));
        assert_eq!(other.index_stats().file_loads - before, 2);
        assert_eq!(other.index_stats().entries, 1025);
        fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn concurrent_puts_of_one_key_never_collide() {
        const THREADS: usize = 6;
        const ROUNDS: usize = 150;
        let store = SurrogateStore::open(tmp_dir("race")).unwrap();
        let seed = snap(7, &[2, 6], "GP-discontinuous");
        store.put(&seed).unwrap();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (store, start, seed) = (store.clone(), &start, &seed);
                scope.spawn(move || {
                    let mut mine = seed.clone();
                    // Big enough that a write is not one short syscall.
                    mine.lp = Some(vec![t as f64; 4096]);
                    start.wait();
                    for round in 0..ROUNDS {
                        mine.observations.push((t + 1, round as f64));
                        store.put(&mine).expect("every put succeeds");
                        let read = store.get(&seed.signature, &seed.strategy);
                        let read = read.expect("a whole file").expect("present");
                        assert_eq!(read.signature, seed.signature);
                        let near = store.nearest(&seed.signature, &seed.strategy, 0.9);
                        assert_eq!(near.expect("listable").expect("a whole file").1, 1.0);
                    }
                });
            }
        });
        let left: Vec<_> =
            fs::read_dir(store.dir()).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left.len(), 1, "one snapshot and no temporary file: {left:?}");
        assert_eq!(store.index_stats().corrupt_skipped, 0);
        fs::remove_dir_all(store.dir()).unwrap();
    }
}
