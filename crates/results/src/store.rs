//! One store, not three: the unified, versioned results store.
//!
//! Before this module existed the crate had three persistence surfaces
//! that could disagree: `db::ResultsDb` (last-write-wins by system name),
//! `baseline::BaselineStore` (a directory of reference runs keyed by host
//! fingerprint) and bare `RunReport::to_json` artifacts. [`ReportStore`]
//! is the one interface all of them now sit behind: an append-only time
//! series per host fingerprint — the paper's "database grew by donation"
//! model, but ordered, so history is never silently replaced.
//!
//! Two implementations ship:
//!
//! * [`MemoryStore`] — for the results daemon's hot index and for tests.
//! * [`DirStore`] — a directory of plain-JSON [`Baseline`] envelopes, the
//!   CLI's store (`.lmbench/baselines/` by convention; re-exported as
//!   `BaselineStore` for its original callers).
//!
//! # Schema versioning policy
//!
//! [`SCHEMA_VERSION`] is the single definition of the current on-disk and
//! on-wire schema version, stamped into every serialized [`Baseline`],
//! [`RunReport`](crate::RunReport) and [`SuiteRun`](crate::SuiteRun).
//! Deserialization is tolerant in the established style of
//! `rusage.contended` and `provenance.clamped_samples`: a missing
//! `schema_version` reads as version 1 (every file written before the
//! field existed), and unknown *fields* are ignored, so version bumps are
//! additive. Loaded entries keep the version they were written with.

use crate::baseline::Baseline;
use crate::runreport::RunReport;
use lmb_trace::EventKind;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// The schema version stamped into everything this crate serializes.
///
/// * **v1** — implicit: files written before the field existed.
/// * **v2** — `schema_version` made explicit; [`Baseline`] may carry the
///   optional `run` table payload next to its `report`.
pub const SCHEMA_VERSION: u32 = 2;

/// What a missing `schema_version` reads as: files written before the
/// field existed are version 1. The `#[serde(default = ...)]` of every
/// versioned type.
pub(crate) fn legacy_schema_version() -> u32 {
    1
}

/// An append-only time series of results, sharded by host fingerprint.
///
/// Entries within one fingerprint are ordered by `(unix_seconds, arrival)`
/// — capture time first, insertion order as the tiebreak — so two stores
/// fed the same entries in the same per-shard order answer every query
/// identically, which is what the results daemon's determinism guarantee
/// rests on.
pub trait ReportStore {
    /// Appends one entry to its fingerprint's series and returns the
    /// series length after the append (the entry's 1-based shard
    /// sequence number).
    fn append(&mut self, entry: Baseline) -> io::Result<u64>;

    /// All entries for `fingerprint`, oldest first. In-memory stores
    /// lend their own series ([`Cow::Borrowed`]); only a store that has
    /// to read the entries in hands back an owned copy.
    fn history(&self, fingerprint: &str) -> io::Result<Cow<'_, [Baseline]>>;

    /// The newest entry for `fingerprint`, or `None` when the store holds
    /// nothing comparable. Unreadable entries are skipped (with a
    /// warning, see [`DirStore`]), never fatal: a corrupt baseline must
    /// read as "no baseline", not as "no regression".
    fn latest(&self, fingerprint: &str) -> io::Result<Option<Baseline>> {
        Ok(self.history(fingerprint)?.last().cloned())
    }

    /// Every entry in the store, fingerprint-ordered, then oldest first
    /// within each fingerprint.
    fn iter(&self) -> io::Result<Vec<Baseline>>;
}

/// Orders a shard's entries by capture time, keeping arrival order for
/// entries stamped within the same second.
fn sort_shard(entries: &mut [Baseline]) {
    entries.sort_by_key(|b| b.unix_seconds);
}

/// An in-memory [`ReportStore`]: the daemon's hot index, and the natural
/// store for tests.
#[derive(Debug, Clone, Default)]
pub struct MemoryStore {
    shards: BTreeMap<String, Vec<Baseline>>,
}

impl MemoryStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> MemoryStore {
        MemoryStore::default()
    }

    /// Number of entries across all fingerprints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.values().map(Vec::len).sum()
    }

    /// True when no entries are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The fingerprints with at least one entry, ordered.
    #[must_use]
    pub fn fingerprints(&self) -> Vec<String> {
        self.shards.keys().cloned().collect()
    }
}

impl ReportStore for MemoryStore {
    fn append(&mut self, entry: Baseline) -> io::Result<u64> {
        let shard = self.shards.entry(entry.fingerprint.clone()).or_default();
        shard.push(entry);
        sort_shard(shard); // stable: same-second entries keep arrival order
        Ok(shard.len() as u64)
    }

    fn history(&self, fingerprint: &str) -> io::Result<Cow<'_, [Baseline]>> {
        Ok(Cow::Borrowed(
            self.shards.get(fingerprint).map_or(&[], Vec::as_slice),
        ))
    }

    fn iter(&self) -> io::Result<Vec<Baseline>> {
        Ok(self.shards.values().flatten().cloned().collect())
    }
}

/// Reports a results file the store had to skip: a stderr note for the
/// operator at the terminal, and a [`EventKind::StoreWarning`] trace event
/// for the fleet audit log. Silent skips hide data loss.
fn warn_skipped(path: &Path, detail: &str) {
    eprintln!(
        "lmbench: warning: skipping unreadable results file {}: {detail}",
        path.display()
    );
    lmb_trace::emit(|| EventKind::StoreWarning {
        path: path.display().to_string(),
        detail: detail.to_string(),
    });
}

/// A directory of [`Baseline`] files — the CLI's [`ReportStore`].
///
/// Files are plain pretty-printed JSON named
/// `{fingerprint}-{unix_seconds}.json` (with a numeric suffix when two
/// saves land in the same second): inspectable with any tool, diffable in
/// review, uploadable as CI artifacts. The directory is created lazily on
/// first save.
#[derive(Debug, Clone)]
pub struct DirStore {
    dir: PathBuf,
}

impl DirStore {
    /// The conventional location, relative to the working directory.
    #[must_use]
    pub fn default_dir() -> PathBuf {
        PathBuf::from(".lmbench").join("baselines")
    }

    /// A store rooted at `dir` (created lazily on first save).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> DirStore {
        DirStore { dir: dir.into() }
    }

    /// The store's directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a baseline as `{fingerprint}-{unix_seconds}.json` (with a
    /// numeric suffix if two saves land in the same second) and returns
    /// the path.
    pub fn save(&self, baseline: &Baseline) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let stem = format!("{}-{}", baseline.fingerprint, baseline.unix_seconds);
        let mut path = self.dir.join(format!("{stem}.json"));
        let mut n = 1u32;
        while path.exists() {
            path = self.dir.join(format!("{stem}-{n}.json"));
            n += 1;
        }
        std::fs::write(&path, baseline.to_json())?;
        Ok(path)
    }

    /// Every readable entry in the directory as `(file name, entry)`,
    /// unordered. Files that cannot be read or parsed are reported via
    /// [`warn_skipped`] and skipped; non-`.json` files are ignored
    /// silently (they were never ours).
    fn scan(&self) -> io::Result<Vec<(String, Baseline)>> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut found = Vec::new();
        for entry in entries {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(e) => {
                    warn_skipped(&path, &e.to_string());
                    continue;
                }
            };
            let baseline = match Baseline::from_json(&text) {
                Ok(baseline) => baseline,
                Err(e) => {
                    warn_skipped(&path, &e.to_string());
                    continue;
                }
            };
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            found.push((name, baseline));
        }
        Ok(found)
    }

    /// A shard's entries ordered by `(unix_seconds, file name)` — capture
    /// time first, the save-suffix ordering as the tiebreak.
    fn shard(&self, fingerprint: &str) -> io::Result<Vec<Baseline>> {
        let mut named: Vec<(String, Baseline)> = self
            .scan()?
            .into_iter()
            .filter(|(_, b)| b.fingerprint == fingerprint)
            .collect();
        named.sort_by(|(an, a), (bn, b)| (a.unix_seconds, an).cmp(&(b.unix_seconds, bn)));
        Ok(named.into_iter().map(|(_, b)| b).collect())
    }

    /// The most recent readable baseline for `fingerprint`, or `None`
    /// when the store has nothing comparable (see
    /// [`ReportStore::latest`]).
    pub fn latest(&self, fingerprint: &str) -> io::Result<Option<Baseline>> {
        Ok(self.shard(fingerprint)?.pop())
    }
}

impl ReportStore for DirStore {
    fn append(&mut self, entry: Baseline) -> io::Result<u64> {
        self.save(&entry)?;
        Ok(self.shard(&entry.fingerprint)?.len() as u64)
    }

    fn history(&self, fingerprint: &str) -> io::Result<Cow<'_, [Baseline]>> {
        Ok(Cow::Owned(self.shard(fingerprint)?))
    }

    fn iter(&self) -> io::Result<Vec<Baseline>> {
        let mut named = self.scan()?;
        named.sort_by(|(an, a), (bn, b)| {
            (&a.fingerprint, a.unix_seconds, an).cmp(&(&b.fingerprint, b.unix_seconds, bn))
        });
        Ok(named.into_iter().map(|(_, b)| b).collect())
    }
}

/// Reads one results file, whatever its era: a stored [`Baseline`]
/// envelope, or a bare [`RunReport`] artifact (`--report-json` output),
/// normalized to an envelope with empty identity fields. This is the one
/// entry point for "load whatever the user pointed us at" — the CLI's
/// `diff` and the daemon's `report push` both go through it.
pub fn load_entry(path: &Path) -> io::Result<Baseline> {
    let text = std::fs::read_to_string(path)?;
    if let Ok(baseline) = Baseline::from_json(&text) {
        return Ok(baseline);
    }
    match RunReport::from_json(&text) {
        Ok(report) => Ok(Baseline {
            schema_version: SCHEMA_VERSION,
            fingerprint: String::new(),
            host: String::new(),
            unix_seconds: 0,
            report,
            run: None,
        }),
        Err(e) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: neither a baseline nor a run report: {e}",
                path.display()
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::fingerprint;
    use crate::runreport::{BenchRecord, BenchStatus};
    use lmb_trace::MemorySink;

    fn report(bench: &str) -> RunReport {
        RunReport {
            records: vec![BenchRecord {
                name: bench.into(),
                produces: "Table 7".into(),
                status: BenchStatus::Ok,
                attempts: 1,
                wall_ms: 1.0,
                exclusive: false,
                provenance: None,
                rusage: None,
                counters: None,
                metrics: Vec::new(),
                span: None,
            }],
            ..Default::default()
        }
    }

    fn entry(fp: &str, host: &str, seconds: u64, bench: &str) -> Baseline {
        let mut b = Baseline::now(fp, host, report(bench));
        b.unix_seconds = seconds;
        b
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lmbench-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn bench_names(shard: &[Baseline]) -> Vec<&str> {
        shard
            .iter()
            .map(|b| b.report.records[0].name.as_str())
            .collect()
    }

    #[test]
    fn memory_store_appends_are_an_ordered_series() {
        let mut store = MemoryStore::new();
        assert!(store.is_empty());
        let fp = fingerprint(&["hostA"]);
        assert_eq!(store.append(entry(&fp, "hostA", 200, "second")).unwrap(), 1);
        assert_eq!(store.append(entry(&fp, "hostA", 100, "first")).unwrap(), 2);
        assert_eq!(store.append(entry(&fp, "hostA", 300, "third")).unwrap(), 3);
        assert_eq!(store.len(), 3);
        let history = store.history(&fp).unwrap();
        assert!(matches!(history, Cow::Borrowed(_)), "shard copied");
        assert_eq!(bench_names(&history), ["first", "second", "third"]);
        let latest = ReportStore::latest(&store, &fp).unwrap().unwrap();
        assert_eq!(latest.report.records[0].name, "third");
        let absent = store.history("absent-0000000000000000").unwrap();
        assert!(matches!(absent, Cow::Borrowed(_)), "absent shard allocated");
        assert!(absent.is_empty());
    }

    #[test]
    fn memory_store_same_second_keeps_arrival_order() {
        let mut store = MemoryStore::new();
        let fp = fingerprint(&["hostA"]);
        store.append(entry(&fp, "hostA", 42, "first")).unwrap();
        store.append(entry(&fp, "hostA", 42, "second")).unwrap();
        let history = store.history(&fp).unwrap();
        assert_eq!(bench_names(&history), ["first", "second"]);
    }

    #[test]
    fn memory_store_iter_is_fingerprint_then_time_ordered() {
        let mut store = MemoryStore::new();
        let fa = fingerprint(&["alpha"]);
        let fz = fingerprint(&["zeta"]);
        store.append(entry(&fz, "zeta", 10, "z1")).unwrap();
        store.append(entry(&fa, "alpha", 20, "a2")).unwrap();
        store.append(entry(&fa, "alpha", 10, "a1")).unwrap();
        assert_eq!(store.fingerprints(), [fa.clone(), fz.clone()]);
        let all = store.iter().unwrap();
        assert_eq!(bench_names(&all), ["a1", "a2", "z1"]);
    }

    #[test]
    fn dir_store_matches_memory_store_semantics() {
        let dir = temp_dir("parity");
        let mut disk = DirStore::new(&dir);
        let mut mem = MemoryStore::new();
        let fp = fingerprint(&["hostA"]);
        for (seconds, bench) in [(200u64, "second"), (100, "first"), (300, "third")] {
            let e = entry(&fp, "hostA", seconds, bench);
            let seq_disk = disk.append(e.clone()).unwrap();
            let seq_mem = mem.append(e).unwrap();
            assert_eq!(seq_disk, seq_mem);
        }
        let from_disk = disk.history(&fp).unwrap();
        assert!(matches!(from_disk, Cow::Owned(_)), "read from disk, owned");
        assert_eq!(from_disk, mem.history(&fp).unwrap());
        assert_eq!(disk.iter().unwrap(), mem.iter().unwrap());
        assert_eq!(
            ReportStore::latest(&disk, &fp).unwrap(),
            ReportStore::latest(&mem, &fp).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_file_warns_and_is_skipped() {
        let dir = temp_dir("corrupt");
        let mut store = DirStore::new(&dir);
        let fp = fingerprint(&["hostA"]);
        store.append(entry(&fp, "hostA", 100, "good")).unwrap();
        std::fs::write(dir.join(format!("{fp}-999.json")), "{not json").unwrap();
        std::fs::write(dir.join("notes.txt"), "not ours, no warning").unwrap();

        let sink = MemorySink::shared();
        let trace = lmb_trace::Trace::new(vec![Box::new(sink.clone())]);
        let ctx = trace.enter();
        let history = store.history(&fp).unwrap();
        drop(ctx);

        assert_eq!(bench_names(&history), ["good"], "corrupt file skipped");
        let warnings: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::StoreWarning { path, .. } => Some(path),
                _ => None,
            })
            .collect();
        assert_eq!(warnings.len(), 1, "exactly one warning for the bad file");
        assert!(
            warnings[0].contains(&format!("{fp}-999.json")),
            "{warnings:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_entry_accepts_both_envelope_and_bare_report() {
        let dir = temp_dir("load");
        std::fs::create_dir_all(&dir).unwrap();
        let fp = fingerprint(&["hostA"]);
        let envelope = entry(&fp, "hostA", 7, "lat_syscall");
        let env_path = dir.join("envelope.json");
        std::fs::write(&env_path, envelope.to_json()).unwrap();
        let loaded = load_entry(&env_path).unwrap();
        assert_eq!(loaded, envelope);

        let bare_path = dir.join("bare.json");
        std::fs::write(&bare_path, report("bw_mem").to_json()).unwrap();
        let loaded = load_entry(&bare_path).unwrap();
        assert_eq!(loaded.fingerprint, "");
        assert_eq!(loaded.schema_version, SCHEMA_VERSION);
        assert_eq!(loaded.report.records[0].name, "bw_mem");

        let bad_path = dir.join("bad.json");
        std::fs::write(&bad_path, "{not json").unwrap();
        let err = load_entry(&bad_path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
