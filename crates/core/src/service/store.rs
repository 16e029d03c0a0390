//! Batched, compacting segment store behind the results daemon.
//!
//! Entries shard by host fingerprint. Each shard is an append-only time
//! series: pushes accumulate in a small in-memory batch, and once the
//! batch fills it is sealed into a segment file
//! (`{fingerprint}.{n:06}.seg.jsonl`, one compact JSON entry per line).
//! When a shard accumulates more sealed segments than the compaction
//! threshold, they merge into one — so a shard's on-disk footprint stays
//! at a bounded file count no matter how many runs it absorbs, and a
//! restart replays the directory back into exactly the series it held.

use super::proto::StoreStats;
use lmb_results::{Baseline, ReportStore};
use lmb_trace::EventKind;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Registry-backed instruments for every store in the process, under
/// `service.*` names; they feed the daemon's periodic `metrics_snapshot`
/// trace events. The deterministic per-store totals for `query stats`
/// come from [`SegmentStore::stats`] instead, so parallel stores in one
/// process never mix their versioned replies.
struct StoreInstruments {
    batch_runs: &'static lmb_metrics::Histogram,
    seal_latency_us: &'static lmb_metrics::Histogram,
    compactions: &'static lmb_metrics::Counter,
    replay_ms: &'static lmb_metrics::Histogram,
}

fn instruments() -> &'static StoreInstruments {
    static I: std::sync::OnceLock<StoreInstruments> = std::sync::OnceLock::new();
    I.get_or_init(|| StoreInstruments {
        batch_runs: lmb_metrics::histogram("service.batch_runs"),
        seal_latency_us: lmb_metrics::histogram("service.seal_latency_us"),
        compactions: lmb_metrics::counter("service.compactions"),
        replay_ms: lmb_metrics::histogram("service.replay_ms"),
    })
}

/// Suffix shared by every segment file.
const SEGMENT_SUFFIX: &str = ".seg.jsonl";

/// One host's series: every entry (flushed or not), the not-yet-sealed
/// tail, and the sealed segment files holding the rest.
#[derive(Debug, Default)]
struct Shard {
    /// The full series, ordered by `(unix_seconds, arrival)`. Queries
    /// read this; disk is only for durability and restarts.
    entries: Vec<Baseline>,
    /// Entries not yet sealed into a segment, in arrival order.
    pending: Vec<Baseline>,
    /// Sealed segment files, oldest first.
    sealed: Vec<PathBuf>,
    /// Next segment number; strictly increasing so filename order is
    /// arrival order even across compactions.
    next_segment: u64,
}

/// The daemon's store. Not internally synchronized — the daemon wraps it
/// in a mutex; the type itself stays single-threaded and testable.
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
    /// Entries replayed from disk at open.
    replayed_runs: u64,
}

impl SegmentStore {
    /// Opens (or creates) a store rooted at `dir`, replaying any segment
    /// files already there. Files or lines that fail to parse are skipped
    /// with a [`EventKind::StoreWarning`] and a stderr note — a corrupt
    /// segment must read as missing runs, never as a wedged daemon.
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
        };
        let started = Instant::now();
        store.replay()?;
        store.replayed_runs = store.len() as u64;
        instruments()
            .replay_ms
            .record(started.elapsed().as_millis() as u64);
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

    /// Seals every shard's pending batch to disk. Called on shutdown and
    /// whenever the daemon wants durability ahead of the batch filling.
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
        // Segment files sort by (fingerprint, number) lexically because the
        // number is zero-padded; walking them in name order replays each
        // shard's arrival order.
        let mut names: Vec<PathBuf> = Vec::new();
        for dirent in fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(SEGMENT_SUFFIX))
            {
                names.push(path);
            }
        }
        names.sort();
        for path in names {
            let Some((fingerprint, number)) = parse_segment_name(&path) else {
                warn_skipped(&path, "segment filename does not parse");
                continue;
            };
            let text = match fs::read_to_string(&path) {
                Ok(text) => text,
                Err(err) => {
                    warn_skipped(&path, &err.to_string());
                    continue;
                }
            };
            let shard = self.shards.entry(fingerprint).or_default();
            shard.next_segment = shard.next_segment.max(number + 1);
            shard.sealed.push(path.clone());
            for (lineno, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match Baseline::from_json(line) {
                    Ok(entry) => shard.entries.push(entry),
                    Err(err) => {
                        warn_skipped(&path, &format!("line {}: {err}", lineno + 1));
                    }
                }
            }
        }
        for shard in self.shards.values_mut() {
            sort_series(&mut shard.entries);
        }
        self.shards
            .retain(|_, s| !s.entries.is_empty() || !s.sealed.is_empty());
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
            let timer = lmb_metrics::enabled().then(Instant::now);
            let path = segment_path(&dir, fingerprint, shard.next_segment);
            write_segment(&path, &shard.pending)?;
            shard.next_segment += 1;
            shard.sealed.push(path);
            instruments().batch_runs.record(shard.pending.len() as u64);
            if let Some(t) = timer {
                instruments()
                    .seal_latency_us
                    .record(t.elapsed().as_micros() as u64);
            }
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
            instruments().compactions.add_always(1);
        }
        Ok(())
    }
}

impl ReportStore for SegmentStore {
    fn append(&mut self, entry: Baseline) -> io::Result<u64> {
        let fingerprint = entry.fingerprint.clone();
        let batch_size = self.batch_size;
        let shard = self.shards.entry(fingerprint.clone()).or_default();
        shard.pending.push(entry.clone());
        shard.entries.push(entry);
        sort_series(&mut shard.entries);
        let seq = shard.entries.len() as u64;
        if shard.pending.len() >= batch_size {
            self.flush_shard(&fingerprint)?;
        }
        Ok(seq)
    }

    fn history(&self, fingerprint: &str) -> io::Result<Cow<'_, [Baseline]>> {
        Ok(Cow::Borrowed(
            self.shards
                .get(fingerprint)
                .map_or(&[], |s| s.entries.as_slice()),
        ))
    }

    fn iter(&self) -> io::Result<Vec<Baseline>> {
        Ok(self
            .shards
            .values()
            .flat_map(|s| s.entries.iter().cloned())
            .collect())
    }
}

/// Orders a shard's series by capture time; the sort is stable, so
/// same-second entries keep arrival order.
fn sort_series(entries: &mut [Baseline]) {
    entries.sort_by_key(|e| e.unix_seconds);
}

fn segment_path(dir: &Path, fingerprint: &str, number: u64) -> PathBuf {
    dir.join(format!("{fingerprint}.{number:06}{SEGMENT_SUFFIX}"))
}

/// Recovers `(fingerprint, number)` from a segment filename. Parsed from
/// the right so fingerprints containing dots stay intact.
fn parse_segment_name(path: &Path) -> Option<(String, u64)> {
    let name = path.file_name()?.to_str()?.strip_suffix(SEGMENT_SUFFIX)?;
    let (fingerprint, number) = name.rsplit_once('.')?;
    if fingerprint.is_empty() {
        return None;
    }
    Some((fingerprint.to_string(), number.parse().ok()?))
}

/// Writes one segment: compact JSON, one entry per line, durably renamed
/// into place so a crash mid-write never leaves a torn segment visible.
fn write_segment(path: &Path, entries: &[Baseline]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        for entry in entries {
            writeln!(f, "{}", entry.to_json_compact())?;
        }
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// Merges a shard's sealed segments into one, bounding its file count.
fn compact_shard(dir: &Path, fingerprint: &str, shard: &mut Shard) -> io::Result<()> {
    let before = shard.sealed.len();
    // The merged segment takes the next number, so it still sorts after
    // nothing and before future segments; the shard's series (already
    // time-ordered) is its content.
    let path = segment_path(dir, fingerprint, shard.next_segment);
    write_segment(&path, &shard.entries)?;
    shard.next_segment += 1;
    for old in shard.sealed.drain(..) {
        // Best-effort: a leftover old segment is re-read (and re-merged)
        // on restart, which duplicates nothing because it is deleted
        // before the store reports success... so treat failure as real.
        fs::remove_file(&old)?;
    }
    shard.sealed.push(path);
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

    #[test]
    fn batches_then_seals_segments() {
        let dir = scratch_dir("seal");
        let mut store = SegmentStore::open(&dir, 2, 100).unwrap();
        store.append(entry("fp-a", 10)).unwrap();
        assert_eq!(store.segment_count("fp-a"), 0, "batch not full yet");
        store.append(entry("fp-a", 20)).unwrap();
        assert_eq!(store.segment_count("fp-a"), 1, "batch of 2 sealed");
        store.append(entry("fp-a", 30)).unwrap();
        assert_eq!(store.len(), 3, "pending entries are still queryable");
        assert_eq!(store.latest("fp-a").unwrap().unwrap().unix_seconds, 30);
        let history = store.history("fp-a").unwrap();
        assert!(matches!(history, Cow::Borrowed(_)), "shard copied");
        assert_eq!(history.len(), 3, "sealed and pending entries alike");
        let absent = store.history("fp-missing").unwrap();
        assert!(matches!(absent, Cow::Borrowed(_)), "absent shard allocated");
        assert!(absent.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_replays_the_series_including_flush() {
        let dir = scratch_dir("replay");
        {
            let mut store = SegmentStore::open(&dir, 2, 100).unwrap();
            for s in [10, 20, 30, 40, 50] {
                store.append(entry("fp-a", s)).unwrap();
            }
            store.append(entry("fp-b", 99)).unwrap();
            store.flush_all().unwrap();
        }
        let store = SegmentStore::open(&dir, 2, 100).unwrap();
        assert_eq!(store.len(), 6);
        assert_eq!(store.fingerprints(), vec!["fp-a", "fp-b"]);
        let times: Vec<u64> = store
            .history("fp-a")
            .unwrap()
            .iter()
            .map(|e| e.unix_seconds)
            .collect();
        assert_eq!(times, vec![10, 20, 30, 40, 50]);
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
    fn corrupt_segment_lines_warn_and_skip() {
        let dir = scratch_dir("corrupt");
        {
            let mut store = SegmentStore::open(&dir, 1, 100).unwrap();
            store.append(entry("fp-a", 10)).unwrap();
            store.append(entry("fp-a", 20)).unwrap();
        }
        // Corrupt the first segment and drop junk that isn't a segment.
        let seg = segment_path(&dir, "fp-a", 0);
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
