//! The results store: the daemon's segments, and `suite --baseline`'s.
//!
//! Entries shard by host fingerprint. Each shard is an append-only time
//! series: appends accumulate in a small in-memory batch, and once the
//! batch fills (or [`SegmentStore::flush_all`] asks) it is sealed into a
//! segment file (`{fingerprint}.{n:06}.seg.jsonl`, one compact JSON entry
//! per line). When a shard accumulates more sealed segments than the
//! compaction threshold, they merge into one named for the numbers it
//! replaces (`{fingerprint}.{lo:06}-{hi:06}.seg.jsonl`), so a shard's
//! on-disk footprint stays at a bounded file count no matter how many
//! runs it absorbs, and a restart replays the directory back into exactly
//! the series it held.
//!
//! Older versions kept `suite --baseline` entries as one pretty-printed
//! [`Baseline`] per `{fingerprint}-{unix_seconds}[-n].json` file. Opening
//! a directory imports such files into segments once and removes them.

use super::proto::{HistoryPoint, HistoryReply, StoreStats};
use lmb_metrics::{Histogram, Rows};
use lmb_results::{Baseline, ReportStore};
use lmb_trace::EventKind;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Suffix shared by every segment file.
const SEGMENT_SUFFIX: &str = ".seg.jsonl";

/// A sealed segment file and the segment numbers it holds: one number for
/// a sealed batch, the range of its inputs for a compaction's merge.
#[derive(Debug)]
struct Segment {
    lo: u64,
    hi: u64,
    path: PathBuf,
}

/// One host's series: every entry (flushed or not), its history columns,
/// the not-yet-sealed tail, and the sealed segment files holding the rest.
#[derive(Debug, Default)]
struct Shard {
    /// The full series, ordered by `(unix_seconds, arrival)`. Queries
    /// read this; disk is only for durability and restarts.
    entries: Vec<Baseline>,
    /// The answer to every `history` query, one contiguous column of
    /// points per (bench name, metric label), oldest run first. A run
    /// contributes to a column what the scan in [`proto::history_reply`]
    /// reads: the first metric carrying the label in the first record of
    /// the name ([`lmb_results::RunReport::find`]). A tail append extends
    /// the columns; replay and a push that sorts into the middle of the
    /// series rebuild them. Each point copies its value, so the columns
    /// cost 16 bytes per stored metric beside the entries themselves.
    ///
    /// [`proto::history_reply`]: super::proto::history_reply
    columns: HashMap<String, BenchColumns>,
    /// Each run's capture time, a dense copy of `entries[run].unix_seconds`
    /// that a `history` reply reads without touching the entries.
    times: Vec<u64>,
    /// The distinct units of this shard's metrics; a [`Point`]'s `unit`
    /// indexes here. A series carries only a handful.
    units: Vec<String>,
    /// Positions in `entries` of the entries not yet sealed into a
    /// segment, in arrival order; the seal renders them from there, so a
    /// pending entry is held once.
    pending: Vec<usize>,
    /// Sealed segment files, in ascending, disjoint number ranges.
    sealed: Vec<Segment>,
    /// Next segment number; strictly increasing so number order is
    /// arrival order even across compactions.
    next_segment: u64,
}

/// One bench name's history columns.
#[derive(Debug, Default)]
struct BenchColumns {
    /// The newest run indexed under this name. A later record of the
    /// name in that run is not the one `find` returns.
    last_run: Option<u32>,
    /// One column per metric label, in the order the labels first
    /// appeared.
    columns: Vec<Column>,
    /// Each label's position in `columns`.
    by_label: HashMap<String, u32>,
}

impl BenchColumns {
    /// The points of `label`'s column, if the bench ever carried it.
    fn points(&self, label: &str) -> &[Point] {
        self.by_label
            .get(label)
            .map_or(&[], |&at| &self.columns[at as usize].points)
    }

    /// The position of the column for the `i`-th metric of a record,
    /// labelled `label`, opening the column if it is new. Runs of a bench
    /// list its labels in the same order as a rule, so the column at `i`
    /// is tried before the map.
    fn column_for(&mut self, i: usize, label: &str) -> usize {
        if self.columns.get(i).is_some_and(|c| c.label == label) {
            return i;
        }
        if let Some(&at) = self.by_label.get(label) {
            return at as usize;
        }
        let at = self.columns.len();
        self.by_label.insert(label.to_string(), at as u32);
        self.columns.push(Column {
            label: label.to_string(),
            points: Vec::new(),
        });
        at
    }
}

/// One (bench, label) column.
#[derive(Debug)]
struct Column {
    label: String,
    /// Oldest run first, at most one point per run.
    points: Vec<Point>,
}

/// One run's value of one (bench, label) column.
#[derive(Debug, Clone, Copy)]
struct Point {
    /// Position of the run in the shard's `entries`.
    run: u32,
    /// Index of the metric's unit in the shard's `units`.
    unit: u32,
    value: f64,
}

/// The one results store. Not internally synchronized — the daemon wraps
/// it in a mutex; the type itself stays single-threaded and testable.
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    batch_size: usize,
    compact_threshold: usize,
    shards: BTreeMap<String, Shard>,
    /// Pending batches sealed into segment files since open.
    sealed_batches: u64,
    /// Shard compactions performed since open.
    compactions: u64,
    /// Entries replayed or imported from disk at open.
    replayed_runs: u64,
    /// Runs per sealed batch. This and the two timings below are the
    /// store's wall-clock telemetry for the daemon's `metrics_snapshot`;
    /// [`SegmentStore::stats`] keeps the deterministic totals.
    batch_runs: Histogram,
    seal_latency_us: Histogram,
    replay_ms: Histogram,
}

impl SegmentStore {
    /// Opens (or creates) a store rooted at `dir`, replaying any segment
    /// files already there, then importing any `*.json` envelopes of the
    /// older layout. Files or lines that fail to parse are skipped with a
    /// [`EventKind::StoreWarning`] and a stderr note, and left in place —
    /// a corrupt file must read as missing runs, never as a wedged store.
    pub fn open(
        dir: impl Into<PathBuf>,
        batch_size: usize,
        compact_threshold: usize,
    ) -> io::Result<SegmentStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut store = SegmentStore {
            dir,
            batch_size: batch_size.max(1),
            compact_threshold: compact_threshold.max(1),
            shards: BTreeMap::new(),
            sealed_batches: 0,
            compactions: 0,
            replayed_runs: 0,
            batch_runs: Histogram::new(),
            seal_latency_us: Histogram::new(),
            replay_ms: Histogram::new(),
        };
        let started = Instant::now();
        store.replay()?;
        store.import_envelopes()?;
        store.replayed_runs = store.len() as u64;
        store.replay_ms.record(started.elapsed().as_millis() as u64);
        Ok(store)
    }

    /// The directory the store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total entries across every shard.
    pub fn len(&self) -> usize {
        self.shards.values().map(|s| s.entries.len()).sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fingerprints with at least one entry, in sorted order.
    pub fn fingerprints(&self) -> Vec<String> {
        self.shards.keys().cloned().collect()
    }

    /// Sealed segment files currently backing `fingerprint`'s shard.
    /// Compaction keeps this bounded by the threshold (+1 for the merge
    /// in flight); tests assert on it.
    pub fn segment_count(&self, fingerprint: &str) -> usize {
        self.shards.get(fingerprint).map_or(0, |s| s.sealed.len())
    }

    /// Ingest-derived totals for the versioned `query stats` reply. All
    /// six values are deterministic functions of the sequence of appends
    /// (plus the directory state at open), never of the clock.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hosts: self.shards.len() as u64,
            runs: self.len() as u64,
            segments: self.shards.values().map(|s| s.sealed.len() as u64).sum(),
            sealed_batches: self.sealed_batches,
            compactions: self.compactions,
            replayed_runs: self.replayed_runs,
        }
    }

    /// The `history` reply for one metric of `fingerprint`'s series, read
    /// from the shard's column for (`bench`, `metric`); the same reply
    /// [`proto::history_reply`] builds by scanning every record of every
    /// run.
    ///
    /// [`proto::history_reply`]: super::proto::history_reply
    pub fn history_reply(&self, fingerprint: &str, bench: &str, metric: &str) -> HistoryReply {
        let Some(shard) = self.shards.get(fingerprint) else {
            return HistoryReply {
                found: false,
                points: Vec::new(),
            };
        };
        let column = shard
            .columns
            .get(bench)
            .map_or(&[][..], |c| c.points(metric));
        let points = column
            .iter()
            .map(|p| HistoryPoint {
                unix_seconds: shard.times[p.run as usize],
                shard_seq: u64::from(p.run) + 1,
                value: p.value,
                unit: shard.units[p.unit as usize].clone(),
            })
            .collect();
        HistoryReply {
            found: !shard.entries.is_empty(),
            points,
        }
    }

    /// Renders the store's telemetry as `service.*` rows.
    pub(crate) fn flatten_into(&self, rows: &mut Rows) {
        self.batch_runs.flatten_into("service.batch_runs", rows);
        self.seal_latency_us
            .flatten_into("service.seal_latency_us", rows);
        self.replay_ms.flatten_into("service.replay_ms", rows);
        rows.insert("service.compactions".into(), self.compactions);
    }

    /// Seals every shard's pending batch to disk. Called on shutdown and
    /// whenever the caller wants durability ahead of the batch filling.
    pub fn flush_all(&mut self) -> io::Result<()> {
        let fingerprints: Vec<String> = self.shards.keys().cloned().collect();
        for fp in fingerprints {
            self.flush_shard(&fp)?;
        }
        Ok(())
    }

    // -- internals ---------------------------------------------------------

    /// Rebuilds the in-memory index from the segment files on disk.
    fn replay(&mut self) -> io::Result<()> {
        let mut segments: Vec<(String, Segment)> = Vec::new();
        for dirent in fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if !name.ends_with(SEGMENT_SUFFIX) {
                continue;
            }
            match parse_segment_name(name) {
                Some((fingerprint, lo, hi)) => {
                    segments.push((fingerprint, Segment { lo, hi, path }))
                }
                None => warn_skipped(&path, "segment filename does not parse"),
            }
        }
        // Each shard in arrival order, and a merge ahead of the inputs it
        // covers: by first number, the widest range first.
        segments.sort_by(|(fa, a), (fb, b)| (fa, a.lo, b.hi).cmp(&(fb, b.lo, a.hi)));
        for (fingerprint, segment) in segments {
            let shard = self.shards.entry(fingerprint).or_default();
            if shard.sealed.last().is_some_and(|s| segment.hi <= s.hi) {
                // A compaction wrote its merge but stopped before deleting
                // this input; the merge already holds its entries.
                fs::remove_file(&segment.path)?;
                continue;
            }
            let text = match fs::read_to_string(&segment.path) {
                Ok(text) => text,
                Err(err) => {
                    warn_skipped(&segment.path, &err.to_string());
                    continue;
                }
            };
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match Baseline::from_json(line) {
                    Ok(entry) => shard.entries.push(entry),
                    Err(err) => {
                        warn_skipped(&segment.path, &format!("line {}: {err}", lineno + 1));
                    }
                }
            }
            shard.next_segment = shard.next_segment.max(segment.hi + 1);
            shard.sealed.push(segment);
        }
        for shard in self.shards.values_mut() {
            sort_series(&mut shard.entries);
            shard.reindex();
        }
        self.shards
            .retain(|_, s| !s.entries.is_empty() || !s.sealed.is_empty());
        Ok(())
    }

    /// Moves the older one-file-per-entry layout into segments: appends
    /// every readable `*.json` envelope in save order, seals, and only
    /// then removes the files. An envelope whose entry its shard already
    /// holds was sealed by an import that stopped before the removal, so
    /// it is removed without a second append.
    fn import_envelopes(&mut self) -> io::Result<()> {
        let mut found = Vec::new();
        for dirent in fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let parsed = fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| Baseline::from_json(&text).map_err(|e| e.to_string()))
                .and_then(|entry| match check_fingerprint(&entry.fingerprint) {
                    Ok(()) => Ok(entry),
                    Err(refused) => Err(refused.to_string()),
                });
            match parsed {
                Ok(entry) => found.push((save_suffix(&path, &entry), path, entry)),
                Err(detail) => warn_skipped(&path, &detail),
            }
        }
        found.sort_by(|(sa, pa, a), (sb, pb, b)| {
            (&a.fingerprint, a.unix_seconds, sa, pa).cmp(&(&b.fingerprint, b.unix_seconds, sb, pb))
        });
        let mut touched = BTreeSet::new();
        let mut imported = Vec::with_capacity(found.len());
        for (_, path, entry) in found {
            if !self.history(&entry.fingerprint)?.contains(&entry) {
                touched.insert(entry.fingerprint.clone());
                self.append(entry)?;
            }
            imported.push(path);
        }
        for fingerprint in touched {
            self.flush_shard(&fingerprint)?;
        }
        if !imported.is_empty() {
            fs::File::open(&self.dir)?.sync_all()?;
        }
        for path in imported {
            fs::remove_file(path)?;
        }
        Ok(())
    }

    /// Seals `fingerprint`'s pending batch into a new segment file, then
    /// compacts the shard if it now exceeds the segment budget.
    fn flush_shard(&mut self, fingerprint: &str) -> io::Result<()> {
        let dir = self.dir.clone();
        let threshold = self.compact_threshold;
        let Some(shard) = self.shards.get_mut(fingerprint) else {
            return Ok(());
        };
        if !shard.pending.is_empty() {
            let started = Instant::now();
            let number = shard.next_segment;
            let path = segment_path(&dir, fingerprint, number, number);
            let entries = &shard.entries;
            write_segment(
                &path,
                shard.pending.iter().map(|&i| entries[i].to_json_compact()),
            )?;
            shard.next_segment += 1;
            shard.sealed.push(Segment {
                lo: number,
                hi: number,
                path,
            });
            self.batch_runs.record(shard.pending.len() as u64);
            self.seal_latency_us
                .record(started.elapsed().as_micros() as u64);
            shard.pending.clear();
            self.sealed_batches += 1;
            // A seal is a durability point: push buffered audit-trace
            // lines out with it so the JSONL never lags the store.
            if let Some(trace) = lmb_trace::current().trace() {
                trace.flush();
            }
        }
        if shard.sealed.len() > threshold {
            compact_shard(&dir, fingerprint, shard)?;
            self.compactions += 1;
        }
        Ok(())
    }
}

impl Shard {
    /// Adds run `run`'s metrics to the columns, which must already hold
    /// every earlier run and no later one.
    fn index_run(&mut self, run: usize) {
        let position = u32::try_from(run).expect("a shard holds under 2^32 runs");
        self.times.push(self.entries[run].unix_seconds);
        for record in &self.entries[run].report.records {
            let bench = match self.columns.get_mut(record.name.as_str()) {
                Some(bench) => bench,
                None => self.columns.entry(record.name.clone()).or_default(),
            };
            // A repeated name in one run: the first record answers.
            if bench.last_run == Some(position) {
                continue;
            }
            bench.last_run = Some(position);
            for (i, metric) in record.metrics.iter().enumerate() {
                let at = bench.column_for(i, &metric.label);
                let points = &mut bench.columns[at].points;
                // A repeated label in one record: the first metric answers.
                if points.last().is_some_and(|p| p.run == position) {
                    continue;
                }
                let unit = match self.units.iter().position(|u| *u == metric.unit) {
                    Some(unit) => unit,
                    None => {
                        self.units.push(metric.unit.clone());
                        self.units.len() - 1
                    }
                };
                points.push(Point {
                    run: position,
                    unit: unit as u32,
                    value: metric.value,
                });
            }
        }
    }

    /// Rebuilds the columns from the whole series.
    fn reindex(&mut self) {
        self.columns.clear();
        self.times.clear();
        self.units.clear();
        for run in 0..self.entries.len() {
            self.index_run(run);
        }
    }
}

impl ReportStore for SegmentStore {
    /// Rejects an entry whose fingerprint could not name a segment file
    /// inside the store's directory (see `check_fingerprint`) with
    /// [`io::ErrorKind::InvalidInput`], storing nothing.
    fn append(&mut self, entry: Baseline) -> io::Result<u64> {
        check_fingerprint(&entry.fingerprint)?;
        let fingerprint = entry.fingerprint.clone();
        let batch_size = self.batch_size;
        let shard = self.shards.entry(fingerprint.clone()).or_default();
        // Behind every entry of the same second or earlier: where a stable
        // sort by capture time would put it.
        let at = shard
            .entries
            .partition_point(|e| e.unix_seconds <= entry.unix_seconds);
        shard.entries.insert(at, entry);
        if at + 1 == shard.entries.len() {
            shard.index_run(at);
        } else {
            // Every run behind it moved: rebuild rather than renumber.
            shard.reindex();
        }
        for i in shard.pending.iter_mut().filter(|i| **i >= at) {
            *i += 1;
        }
        shard.pending.push(at);
        let seq = shard.entries.len() as u64;
        if shard.pending.len() >= batch_size {
            self.flush_shard(&fingerprint)?;
        }
        Ok(seq)
    }

    fn history(&self, fingerprint: &str) -> io::Result<&[Baseline]> {
        Ok(self
            .shards
            .get(fingerprint)
            .map_or(&[], |s| s.entries.as_slice()))
    }
}

/// Orders a shard's series by capture time; the sort is stable, so
/// same-second entries keep arrival order.
fn sort_series(entries: &mut [Baseline]) {
    entries.sort_by_key(|e| e.unix_seconds);
}

/// Checks that `fingerprint` names files inside the store's directory and
/// nowhere else: non-empty, not starting with `.`, and made of ASCII
/// alphanumerics, `-`, `_` and `.` only. Fingerprints come from pushes,
/// so this is what keeps `../x` from sealing a segment outside the
/// directory and an empty one from sealing a file replay cannot name.
fn check_fingerprint(fingerprint: &str) -> io::Result<()> {
    let filename_safe = fingerprint
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'));
    if !fingerprint.is_empty() && !fingerprint.starts_with('.') && filename_safe {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("fingerprint {fingerprint:?} cannot name a segment file"),
    ))
}

/// A sealed batch is `{fingerprint}.{n:06}`, a merge of segments `lo`
/// through `hi` is `{fingerprint}.{lo:06}-{hi:06}`.
fn segment_path(dir: &Path, fingerprint: &str, lo: u64, hi: u64) -> PathBuf {
    if lo == hi {
        dir.join(format!("{fingerprint}.{lo:06}{SEGMENT_SUFFIX}"))
    } else {
        dir.join(format!("{fingerprint}.{lo:06}-{hi:06}{SEGMENT_SUFFIX}"))
    }
}

/// Recovers `(fingerprint, lo, hi)` from a segment filename. Parsed from
/// the right so fingerprints containing dots stay intact.
fn parse_segment_name(name: &str) -> Option<(String, u64, u64)> {
    let (fingerprint, numbers) = name.strip_suffix(SEGMENT_SUFFIX)?.rsplit_once('.')?;
    let (lo, hi) = numbers.split_once('-').unwrap_or((numbers, numbers));
    let (lo, hi) = (lo.parse().ok()?, hi.parse().ok()?);
    (!fingerprint.is_empty() && lo <= hi).then(|| (fingerprint.to_string(), lo, hi))
}

/// The older layout's same-second save counter: `{fp}-{secs}.json` is
/// the first save, `{fp}-{secs}-{n}.json` the `n`-th after it. Any other
/// name counts as a first save.
fn save_suffix(path: &Path, entry: &Baseline) -> u64 {
    let stem = format!("{}-{}", entry.fingerprint, entry.unix_seconds);
    path.file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.strip_prefix(&stem))
        .and_then(|rest| rest.strip_prefix('-'))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Writes one segment: one compact JSON entry per line, in one write,
/// durably renamed into place so a crash mid-write never leaves a torn
/// segment visible.
fn write_segment<S: AsRef<str>>(path: &Path, lines: impl IntoIterator<Item = S>) -> io::Result<()> {
    let mut text = String::new();
    for line in lines {
        text.push_str(line.as_ref());
        text.push('\n');
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Merges a shard's sealed segments into one, bounding its file count.
fn compact_shard(dir: &Path, fingerprint: &str, shard: &mut Shard) -> io::Result<()> {
    let before = shard.sealed.len();
    let lo = shard.sealed.first().map_or(0, |s| s.lo);
    let hi = shard.sealed.last().map_or(0, |s| s.hi);
    // The shard's series (already time-ordered) is the merge's content,
    // and its name covers every input.
    let path = segment_path(dir, fingerprint, lo, hi);
    write_segment(&path, shard.entries.iter().map(Baseline::to_json_compact))?;
    let inputs = std::mem::replace(&mut shard.sealed, vec![Segment { lo, hi, path }]);
    // Once the rename is durable, an input that a crash or a failed
    // delete leaves behind is one that replay drops, not one it re-reads.
    fs::File::open(dir)?.sync_all()?;
    for input in inputs {
        fs::remove_file(input.path)?;
    }
    let fp = fingerprint.to_string();
    let runs = shard.entries.len() as u64;
    lmb_trace::emit(|| EventKind::Compaction {
        fingerprint: fp.clone(),
        segments_before: before as u32,
        segments_after: 1,
        runs,
    });
    Ok(())
}

/// Flags an unreadable store file on stderr and in the trace stream.
fn warn_skipped(path: &Path, detail: &str) {
    eprintln!(
        "lmbench: warning: skipping unreadable results file {}: {detail}",
        path.display()
    );
    let p = path.display().to_string();
    let d = detail.to_string();
    lmb_trace::emit(|| EventKind::StoreWarning {
        path: p.clone(),
        detail: d.clone(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::proto;
    use lmb_results::RunReport;
    use lmb_trace::{MemorySink, Trace};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("lmb-segstore-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(fingerprint: &str, seconds: u64) -> Baseline {
        let mut b = Baseline::now(fingerprint, "host", RunReport::default());
        b.unix_seconds = seconds;
        b
    }

    fn times(store: &SegmentStore, fingerprint: &str) -> Vec<u64> {
        store
            .history(fingerprint)
            .unwrap()
            .iter()
            .map(|e| e.unix_seconds)
            .collect()
    }

    #[test]
    fn batches_then_seals_segments() {
        let dir = scratch_dir("seal");
        let mut store = SegmentStore::open(dir.join("missing"), 2, 100).unwrap();
        assert!(store.is_empty(), "a missing directory reads as empty");
        assert_eq!(store.latest("fp-a").unwrap(), None);
        store.append(entry("fp-a", 10)).unwrap();
        assert_eq!(store.segment_count("fp-a"), 0, "batch not full yet");
        store.append(entry("fp-a", 20)).unwrap();
        assert_eq!(store.segment_count("fp-a"), 1, "batch of 2 sealed");
        store.append(entry("fp-a", 30)).unwrap();
        store.append(entry("fp-b", 40)).unwrap();
        assert_eq!(store.len(), 4, "pending entries are still queryable");
        assert_eq!(store.latest("fp-a").unwrap().unwrap().unix_seconds, 30);
        assert_eq!(store.latest("fp-missing").unwrap(), None);
        assert_eq!(store.history("fp-a").unwrap().len(), 3);
        assert!(store.history("fp-missing").unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_replays_the_series_including_flush() {
        let dir = scratch_dir("replay");
        {
            let mut store = SegmentStore::open(&dir, 2, 100).unwrap();
            // Out of capture order: the series sorts by time.
            for s in [20, 10, 30, 50, 40] {
                store.append(entry("fp-a", s)).unwrap();
            }
            store.append(entry("fp-b", 99)).unwrap();
            assert_eq!(times(&store, "fp-a"), vec![10, 20, 30, 40, 50]);
            store.flush_all().unwrap();
        }
        let store = SegmentStore::open(&dir, 2, 100).unwrap();
        assert_eq!(store.len(), 6);
        assert_eq!(store.fingerprints(), vec!["fp-a", "fp-b"]);
        assert_eq!(times(&store, "fp-a"), vec![10, 20, 30, 40, 50]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_bounds_the_segment_count() {
        let dir = scratch_dir("compact");
        let sink = MemorySink::shared();
        let trace = Trace::new(vec![Box::new(sink.clone())]);
        let ctx = trace.enter();
        let mut store = SegmentStore::open(&dir, 1, 3).unwrap();
        for s in 0..20 {
            store.append(entry("fp-a", s)).unwrap();
            assert!(
                store.segment_count("fp-a") <= 4,
                "segments unbounded at {s}: {}",
                store.segment_count("fp-a")
            );
        }
        drop(ctx);
        let compactions = sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Compaction { .. }))
            .count();
        assert!(compactions > 0, "20 single-entry batches must compact");
        // The merged store still replays to the full series.
        let reopened = SegmentStore::open(&dir, 1, 3).unwrap();
        assert_eq!(reopened.len(), 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_crash_between_merge_and_deletes_does_not_duplicate_the_shard() {
        let dir = scratch_dir("crash");
        let mut store = SegmentStore::open(&dir, 1, 3).unwrap();
        for s in 0..3 {
            store.append(entry("fp-a", s)).unwrap();
        }
        let inputs: Vec<(PathBuf, Vec<u8>)> = (0..3)
            .map(|n| {
                let path = segment_path(&dir, "fp-a", n, n);
                let bytes = fs::read(&path).unwrap();
                (path, bytes)
            })
            .collect();
        store.append(entry("fp-a", 3)).unwrap();
        assert_eq!(store.stats().compactions, 1);
        drop(store);
        // The merge is on disk; put back the inputs a crash would have left.
        for (path, bytes) in &inputs {
            fs::write(path, bytes).unwrap();
        }

        let mut store = SegmentStore::open(&dir, 1, 3).unwrap();
        assert_eq!(times(&store, "fp-a"), vec![0, 1, 2, 3], "no entry twice");
        assert_eq!(store.segment_count("fp-a"), 1);
        assert!(
            inputs.iter().all(|(path, _)| !path.exists()),
            "inputs dropped"
        );
        // The shard carries on from the merge's numbers.
        store.append(entry("fp-a", 4)).unwrap();
        assert!(segment_path(&dir, "fp-a", 4, 4).exists());
        drop(store);
        assert_eq!(SegmentStore::open(&dir, 1, 3).unwrap().len(), 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn single_number_segments_of_the_older_compaction_still_replay() {
        // Compaction used to give its merge the next single number.
        let dir = scratch_dir("numbered");
        fs::create_dir_all(&dir).unwrap();
        let lines = |seconds: &[u64]| -> String {
            seconds
                .iter()
                .map(|&s| entry("fp-a", s).to_json_compact() + "\n")
                .collect()
        };
        fs::write(segment_path(&dir, "fp-a", 4, 4), lines(&[0, 1, 2, 3])).unwrap();
        fs::write(segment_path(&dir, "fp-a", 5, 5), lines(&[4])).unwrap();
        let mut store = SegmentStore::open(&dir, 1, 3).unwrap();
        assert_eq!(times(&store, "fp-a"), vec![0, 1, 2, 3, 4]);
        store.append(entry("fp-a", 5)).unwrap();
        assert!(segment_path(&dir, "fp-a", 6, 6).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_segment_lines_warn_and_skip() {
        let dir = scratch_dir("corrupt");
        {
            let mut store = SegmentStore::open(&dir, 1, 100).unwrap();
            store.append(entry("fp-a", 10)).unwrap();
            store.append(entry("fp-a", 20)).unwrap();
        }
        // Corrupt the first segment and drop junk that isn't a segment.
        let seg = segment_path(&dir, "fp-a", 0, 0);
        fs::write(&seg, "{ this is not json\n").unwrap();
        fs::write(dir.join("notes.txt"), "ignored").unwrap();

        let sink = MemorySink::shared();
        let trace = Trace::new(vec![Box::new(sink.clone())]);
        let ctx = trace.enter();
        let store = SegmentStore::open(&dir, 1, 100).unwrap();
        drop(ctx);

        assert_eq!(store.len(), 1, "good entry survives, bad line skipped");
        let warnings: Vec<String> = sink
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::StoreWarning { path, .. } => Some(path.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(warnings.len(), 1, "exactly the corrupt file warned");
        assert!(warnings[0].contains("fp-a.000000"), "{warnings:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprints_that_are_no_file_name_are_refused() {
        let root = scratch_dir("refuse");
        let dir = root.join("data");
        let mut store = SegmentStore::open(&dir, 1, 100).unwrap();
        for fingerprint in ["../escaped", "", ".hidden", "a/b", "a\\b", "caf\u{e9}"] {
            let err = store.append(entry(fingerprint, 10)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{fingerprint:?}");
        }
        assert!(store.is_empty());
        store
            .append(entry("fleet-host-00ab54cd12ef3401", 10))
            .unwrap();
        store.append(entry("a_b.c-9", 10)).unwrap();
        assert_eq!(store.len(), 2);
        let files = |dir: &Path| fs::read_dir(dir).unwrap().count();
        assert_eq!((files(&root), files(&dir)), (1, 2));

        // An older-layout envelope naming such a fingerprint warns and
        // stays put rather than being imported.
        fs::write(dir.join("bad.json"), entry("../escaped", 20).to_json()).unwrap();
        let sink = MemorySink::shared();
        let trace = Trace::new(vec![Box::new(sink.clone())]);
        let ctx = trace.enter();
        let store = SegmentStore::open(&dir, 1, 100).unwrap();
        drop(ctx);
        assert_eq!(store.len(), 2);
        let warned = sink.events().iter().any(|e| {
            matches!(&e.kind, EventKind::StoreWarning { path, .. } if path.ends_with("bad.json"))
        });
        assert!(warned, "{:?}", sink.events());
        assert!(dir.join("bad.json").exists());
        assert_eq!((files(&root), files(&dir)), (1, 3));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_sealed_segment_holds_the_appended_entries_lines_in_arrival_order() {
        let dir = scratch_dir("lines");
        let mut store = SegmentStore::open(&dir, 4, 100).unwrap();
        // Out of capture order, with a same-second pair.
        let appended: Vec<Baseline> = [(20, "a"), (10, "b"), (10, "c"), (30, "d")]
            .into_iter()
            .map(|(s, host)| {
                let mut e = entry("fp-a", s);
                e.host = host.into();
                e
            })
            .collect();
        for e in &appended {
            store.append(e.clone()).unwrap();
        }
        assert_eq!(store.segment_count("fp-a"), 1, "the batch of 4 sealed");
        let text = fs::read_to_string(segment_path(&dir, "fp-a", 0, 0)).unwrap();
        let expected: String = appended
            .iter()
            .map(|e| e.to_json_compact() + "\n")
            .collect();
        assert_eq!(text, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// One metric of a record: label, unit and value.
    type Metric<'a> = (&'a str, &'a str, f64);

    /// A run of `records`, each `(bench, [(label, unit, value)])`.
    fn run_of(fingerprint: &str, seconds: u64, records: &[(&str, &[Metric])]) -> Baseline {
        use lmb_results::{BenchRecord, BenchStatus, MetricValue};
        let mut e = entry(fingerprint, seconds);
        e.report.records = records
            .iter()
            .map(|&(name, metrics)| BenchRecord {
                name: name.into(),
                produces: "Table 7".into(),
                status: BenchStatus::Ok,
                attempts: 1,
                wall_ms: 1.0,
                exclusive: false,
                provenance: None,
                rusage: None,
                counters: None,
                metrics: metrics
                    .iter()
                    .map(|&(label, unit, value)| MetricValue {
                        label: label.into(),
                        value,
                        unit: unit.into(),
                    })
                    .collect(),
                span: None,
            })
            .collect();
        e
    }

    const BENCHES: [&str; 4] = ["lat_a", "lat_b", "bw_c", "lat_missing"];
    const LABELS: [&str; 3] = ["", "p50", "p99"];
    const UNITS: [&str; 2] = ["us", "ns"];

    /// For every (fingerprint, bench, metric), the indexed reply equals
    /// the scanning one.
    fn index_agrees_with_scan(store: &SegmentStore) -> Result<(), String> {
        for fp in ["fp-a", "fp-b", "fp-none"] {
            let history = store.history(fp).unwrap();
            for bench in BENCHES {
                for metric in LABELS {
                    let indexed = store.history_reply(fp, bench, metric);
                    let scanned = proto::history_reply(history, bench, metric);
                    if indexed != scanned {
                        return Err(format!(
                            "{fp}/{bench}/{metric:?}: {indexed:?} != {scanned:?}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// A record as the proptest draws it: a bench, and its metrics as
    /// `(label, unit, value)` indices. Three labels drawn up to four times
    /// repeat a label within a record, and two units let a (bench, label)
    /// change unit from run to run.
    type Drawn = (usize, Vec<(usize, usize, u32)>);

    fn drawn_records() -> impl proptest::Strategy<Value = Vec<Drawn>> {
        proptest::collection::vec(
            (
                0usize..3,
                proptest::collection::vec((0usize..3, 0usize..2, 0u32..400), 0..4),
            ),
            0..5,
        )
    }

    /// A push as the proptest draws it: capture second, shard and records.
    /// Three benches over up to five records repeat a name within a run,
    /// so a label may sit only in a second record of that name.
    fn pushed(seconds: u64, shard: usize, records: &[Drawn]) -> Baseline {
        let fp = ["fp-a", "fp-b"][shard];
        let metrics: Vec<Vec<Metric>> = records
            .iter()
            .map(|(_, metrics)| {
                metrics
                    .iter()
                    .map(|&(label, unit, value)| {
                        (LABELS[label], UNITS[unit], f64::from(value) / 8.0)
                    })
                    .collect()
            })
            .collect();
        let records: Vec<(&str, &[Metric])> = records
            .iter()
            .zip(&metrics)
            .map(|((bench, _), m)| (BENCHES[*bench], &m[..]))
            .collect();
        run_of(fp, seconds, &records)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(24))]
        #[test]
        fn the_history_index_answers_as_the_scan_does(
            pushes in proptest::collection::vec((0u64..6, 0usize..2, drawn_records()), 1..14),
            imports in proptest::collection::vec((0u64..8, 0usize..2, drawn_records()), 0..4),
        ) {
            let dir = scratch_dir("index");
            let mut store = SegmentStore::open(&dir, 3, 2).unwrap();
            // Out-of-order and same-second pushes come from the draw. This
            // run carries `lat_a` twice: the first record answers, and in
            // it the first `""` metric; its `p99` sits only in the second
            // record, so this run has no `p99` point. `p50` changes unit.
            // Drawn values are never negative, so these stay recognizable.
            store
                .append(run_of(
                    "fp-a",
                    3,
                    &[
                        ("lat_a", &[("", "us", -1.0), ("p50", "us", -5.0), ("", "us", -2.0)]),
                        ("lat_a", &[("", "us", -3.0), ("p99", "us", -4.0)]),
                    ],
                ))
                .unwrap();
            store
                .append(run_of("fp-a", 4, &[("lat_a", &[("p50", "MB/s", -6.0)])]))
                .unwrap();
            for (seconds, shard, records) in &pushes {
                store.append(pushed(*seconds, *shard, records)).unwrap();
                index_agrees_with_scan(&store).map_err(proptest::TestCaseError::fail)?;
            }
            let values = |label| -> Vec<f64> {
                let reply = store.history_reply("fp-a", "lat_a", label);
                reply.points.iter().map(|p| p.value).collect()
            };
            let (empty, p99) = (values(""), values("p99"));
            proptest::prop_assert!(empty.contains(&-1.0));
            proptest::prop_assert!(!empty.contains(&-2.0) && !empty.contains(&-3.0));
            proptest::prop_assert!(!p99.contains(&-4.0));
            let units: Vec<String> = store
                .history_reply("fp-a", "lat_a", "p50")
                .points
                .into_iter()
                .filter(|p| p.value < 0.0)
                .map(|p| p.unit)
                .collect();
            proptest::prop_assert_eq!(units, ["us", "MB/s"]);
            store.flush_all().unwrap();
            drop(store);

            // Older-layout envelopes, imported on the next open.
            for (n, (seconds, shard, records)) in imports.iter().enumerate() {
                let e = pushed(*seconds, *shard, records);
                let name = format!("{}-{}-{n}.json", e.fingerprint, e.unix_seconds);
                fs::write(dir.join(name), e.to_json()).unwrap();
            }
            let mut store = SegmentStore::open(&dir, 3, 2).unwrap();
            index_agrees_with_scan(&store).map_err(proptest::TestCaseError::fail)?;
            // A mid-series push after the replay.
            let mid = [(0, vec![(0, 0, 7), (1, 1, 9)]), (1, vec![(2, 0, 11)])];
            store.append(pushed(2, 0, &mid)).unwrap();
            index_agrees_with_scan(&store).map_err(proptest::TestCaseError::fail)?;
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn same_second_entries_keep_arrival_order() {
        let dir = scratch_dir("stable");
        let mut store = SegmentStore::open(&dir, 10, 100).unwrap();
        for (host, s) in [("first", 5), ("second", 5), ("third", 5)] {
            let mut e = entry("fp-a", s);
            e.host = host.into();
            store.append(e).unwrap();
        }
        let hosts: Vec<String> = store
            .history("fp-a")
            .unwrap()
            .iter()
            .map(|e| e.host.clone())
            .collect();
        assert_eq!(hosts, vec!["first", "second", "third"]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
