//! The results-service wire protocol.
//!
//! Five procedures under [`lmb_rpc::RESULTS_PROGRAM`], carried over the
//! same Sun-RPC-style substrate the paper's Tables 12–13 measure: XDR
//! discipline, record marking, program/version/procedure dispatch. Each
//! request and reply body is one XDR string holding the type's JSON — the
//! envelope stays RFC 1057, the payload stays self-describing and carries
//! the `schema_version` the unified store stamps on everything, so a v3
//! daemon can keep reading v2 pushes the same way the store keeps reading
//! v1 files.

use bytes::Bytes;
use lmb_results::{Baseline, BenchRecord, ReportDiff};
use lmb_rpc::{XdrDecoder, XdrEncoder};
use serde::{Deserialize, Serialize};

/// `RESULTS_PROC_PUSH`: ingest one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PushRequest {
    /// The entry to append: fingerprint, host, capture time, report, and
    /// optionally the table payload. Its `schema_version` travels with it.
    pub entry: Baseline,
}

/// Reply to a push.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PushReply {
    /// The shard the entry landed in.
    pub fingerprint: String,
    /// 1-based position of the entry within its shard's time series.
    pub shard_seq: u64,
}

/// `RESULTS_PROC_DIFF`: noise-aware diff of a host's newest run against
/// the run before it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffRequest {
    /// Which host's series to judge.
    pub fingerprint: String,
}

/// Reply to a diff query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiffReply {
    /// False when the shard holds fewer than two runs (nothing to judge).
    pub found: bool,
    /// Runs in the shard, for context.
    pub runs: u64,
    /// Number of significant regressions the differ flagged.
    pub regressions: u32,
    /// The rendered diff table (empty when `found` is false).
    pub text: String,
    /// The diff as JSON ([`ReportDiff::to_json`]), for `--json` callers.
    pub json: String,
}

/// `RESULTS_PROC_HISTORY`: one metric's value across a host's series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRequest {
    /// Which host's series to walk.
    pub fingerprint: String,
    /// Benchmark name (`lat_syscall`, `bw_mem`, ...).
    pub bench: String,
    /// Metric label within the benchmark (may be empty — many benchmarks
    /// report a single unlabeled headline metric).
    pub metric: String,
}

/// One point of a metric's history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryPoint {
    /// Capture time of the run, seconds since the Unix epoch.
    pub unix_seconds: u64,
    /// 1-based position of the run within the shard.
    pub shard_seq: u64,
    /// The metric's value in that run.
    pub value: f64,
    /// The metric's unit.
    pub unit: String,
}

/// Reply to a history query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryReply {
    /// False when the shard is empty (an unknown fingerprint).
    pub found: bool,
    /// The metric's value per run, oldest first. Runs where the
    /// benchmark did not produce the metric are skipped.
    pub points: Vec<HistoryPoint>,
}

/// `RESULTS_PROC_TABLE`: regenerate the paper tables from a stored run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableRequest {
    /// Which host's newest run to render.
    pub fingerprint: String,
}

/// Reply to a table query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableReply {
    /// False when the shard is empty.
    pub found: bool,
    /// The rendered tables: the full paper set when the stored entry
    /// carried a table payload, otherwise the run-report table.
    pub text: String,
}

/// `RESULTS_PROC_STATS`: the daemon's operational statistics. The request
/// carries no parameters; the field pins the reply schema the caller
/// expects (the daemon answers its own version regardless, like the
/// store's tolerant reads).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsRequest {
    /// Stats schema the client was built against.
    pub schema_version: u32,
}

impl Default for StatsRequest {
    fn default() -> StatsRequest {
        StatsRequest {
            schema_version: lmb_results::SCHEMA_VERSION,
        }
    }
}

/// One procedure's request accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcedureStats {
    /// Procedure name (`push`, `diff`, `history`, `table`, `stats`).
    pub procedure: String,
    /// Requests answered (including the reply that carries this row, for
    /// the `stats` procedure itself).
    pub calls: u64,
    /// Requests that failed (undecodable args or a store error).
    pub errors: u64,
    /// Request payload bytes received (XDR-encoded argument bodies).
    pub bytes_in: u64,
}

/// The segment store's ingest-derived totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StoreStats {
    /// Shards (distinct host fingerprints) with at least one entry.
    pub hosts: u64,
    /// Stored runs across every shard.
    pub runs: u64,
    /// Sealed segment files currently on disk.
    pub segments: u64,
    /// Pending batches sealed into segments since this store opened.
    pub sealed_batches: u64,
    /// Shard compactions performed since this store opened.
    pub compactions: u64,
    /// Runs replayed from disk when this store opened.
    pub replayed_runs: u64,
}

/// Reply to a stats query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Schema version of this snapshot (the unified results schema).
    pub schema_version: u32,
    /// Per-procedure accounting, sorted by procedure name.
    pub procedures: Vec<ProcedureStats>,
    /// Store totals.
    pub store: StoreStats,
}

impl StatsReply {
    /// Renders the snapshot as a fixed-width table. Deterministic: every
    /// value derives from the request/ingest sequence, so two daemons fed
    /// the same operations render byte-identical text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("results-service stats (schema v{})\n", self.schema_version);
        out.push_str(&format!(
            "{:<10} {:>8} {:>7} {:>10}\n",
            "procedure", "calls", "errors", "bytes_in"
        ));
        for p in &self.procedures {
            out.push_str(&format!(
                "{:<10} {:>8} {:>7} {:>10}\n",
                p.procedure, p.calls, p.errors, p.bytes_in
            ));
        }
        let s = &self.store;
        out.push_str(&format!(
            "store: {} host(s), {} run(s), {} segment(s), {} sealed batch(es), {} compaction(s), {} replayed\n",
            s.hosts, s.runs, s.segments, s.sealed_batches, s.compactions, s.replayed_runs
        ));
        out
    }

    /// Serializes to pretty-printed JSON (the `query stats --json`
    /// output). Deterministic by the same contract as [`render`].
    ///
    /// [`render`]: StatsReply::render
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("service types always serialize")
    }
}

/// Builds a [`StatsReply`] from per-procedure rows and store totals.
/// Deterministic by the same contract as [`diff_reply`]: no wall-clock
/// values, no ports, no process identity — only request/ingest-derived
/// counts, with rows sorted by name. Wall-clock operational state (uptime,
/// latency histograms, connection gauges) goes to the audit trace as
/// `metrics_snapshot` events instead, precisely because it can never be
/// byte-identical across daemons.
pub fn stats_reply(mut procedures: Vec<ProcedureStats>, store: StoreStats) -> StatsReply {
    procedures.sort_by(|a, b| a.procedure.cmp(&b.procedure));
    StatsReply {
        schema_version: lmb_results::SCHEMA_VERSION,
        procedures,
        store,
    }
}

/// Encodes a request or reply body: its JSON, as one XDR string.
pub fn to_wire<T: Serialize>(value: &T) -> Bytes {
    let json = serde_json::to_string(value).expect("service types always serialize");
    let mut e = XdrEncoder::new();
    e.put_string(&json);
    e.finish()
}

/// An undecodable wire body: torn XDR framing or mismatched JSON. One
/// opaque error on purpose — the RPC layer turns it into `GARBAGE_ARGS`
/// (server side) or `BadReply` (client side), neither of which carries
/// detail to a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireError;

impl From<WireError> for () {
    fn from(_: WireError) {}
}

/// Decodes a request or reply body produced by [`to_wire`].
/// The JSON is parsed where it lies in the body, after one UTF-8 check.
pub fn from_wire<T: Deserialize>(bytes: Bytes) -> Result<T, WireError> {
    let mut d = XdrDecoder::new(bytes);
    let body = d.get_opaque().map_err(|_| WireError)?;
    let json = std::str::from_utf8(&body).map_err(|_| WireError)?;
    serde_json::from_str(json).map_err(|_| WireError)
}

/// Builds the diff half of [`DiffReply`] from a shard's two newest runs.
/// Shared by the daemon and by tests asserting determinism: everything in
/// the reply derives from stored entries alone — no daemon-side clock, no
/// global counters — so two daemons fed the same pushes answer
/// byte-identically.
pub fn diff_reply(history: &[Baseline]) -> DiffReply {
    let runs = history.len() as u64;
    let [.., previous, latest] = history else {
        return DiffReply {
            found: false,
            runs,
            regressions: 0,
            text: String::new(),
            json: String::new(),
        };
    };
    let diff = ReportDiff::between(&previous.report, &latest.report);
    DiffReply {
        found: true,
        runs,
        regressions: diff.regressions().count() as u32,
        text: diff.render(),
        json: diff.to_json(),
    }
}

/// Builds a [`HistoryReply`] from a shard's full series, finding `bench`
/// in each run by a scan of its records. The daemon answers from its
/// store's history columns instead ([`SegmentStore::history_reply`]);
/// this scan is the reference they are tested against.
///
/// [`SegmentStore::history_reply`]: super::SegmentStore::history_reply
pub fn history_reply(history: &[Baseline], bench: &str, metric: &str) -> HistoryReply {
    let records = history
        .iter()
        .enumerate()
        .filter_map(|(run, entry)| Some((run, entry.report.find(bench)?)));
    history_points(history, records, metric)
}

/// Builds a [`HistoryReply`] from a shard's series and `records`: the
/// bench's record in each run that has one, with that run's position,
/// oldest first. Runs whose record lacks `metric` are skipped.
fn history_points<'a>(
    history: &[Baseline],
    records: impl Iterator<Item = (usize, &'a BenchRecord)>,
    metric: &str,
) -> HistoryReply {
    let mut points = Vec::with_capacity(records.size_hint().1.unwrap_or(0));
    points.extend(records.filter_map(|(run, record)| {
        let m = record.metrics.iter().find(|m| m.label == metric)?;
        Some(HistoryPoint {
            unix_seconds: history[run].unix_seconds,
            shard_seq: run as u64 + 1,
            value: m.value,
            unit: m.unit.clone(),
        })
    }));
    HistoryReply {
        found: !history.is_empty(),
        points,
    }
}

/// Builds a [`TableReply`] from a shard's newest run.
pub fn table_reply(latest: Option<&Baseline>) -> TableReply {
    match latest {
        None => TableReply {
            found: false,
            text: String::new(),
        },
        Some(entry) => TableReply {
            found: true,
            text: match &entry.run {
                Some(run) => crate::report::full_report(Some(run)),
                None => entry.report.render(),
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmb_results::runreport::{BenchRecord, BenchStatus, MetricValue, RunReport};

    fn entry(seconds: u64, bench: &str, value: f64) -> Baseline {
        let mut b = Baseline::now(
            "host-0000000000000001",
            "host",
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
                    metrics: vec![MetricValue {
                        label: String::new(),
                        value,
                        unit: "us".into(),
                    }],
                    span: None,
                }],
                ..Default::default()
            },
        );
        b.unix_seconds = seconds;
        b
    }

    #[test]
    fn wire_round_trips_every_message() {
        let push = PushRequest {
            entry: entry(100, "lat_syscall", 4.0),
        };
        let back: PushRequest = from_wire(to_wire(&push)).unwrap();
        assert_eq!(back, push);

        let req = HistoryRequest {
            fingerprint: "host-1".into(),
            bench: "lat_syscall".into(),
            metric: String::new(),
        };
        let back: HistoryRequest = from_wire(to_wire(&req)).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn garbage_wire_bytes_are_an_error_not_a_panic() {
        assert!(from_wire::<PushRequest>(Bytes::from_static(b"\x00\x00\x00\x04oops")).is_err());
        assert!(from_wire::<PushRequest>(Bytes::from_static(b"xx")).is_err());
    }

    #[test]
    fn diff_reply_needs_two_runs() {
        assert!(!diff_reply(&[]).found);
        assert!(!diff_reply(&[entry(1, "lat_syscall", 4.0)]).found);
        let reply = diff_reply(&[entry(1, "lat_syscall", 4.0), entry(2, "lat_syscall", 4.1)]);
        assert!(reply.found);
        assert_eq!(reply.runs, 2);
        assert!(reply.text.contains("lat_syscall"));
    }

    #[test]
    fn diff_reply_flags_a_tenfold_regression() {
        let reply = diff_reply(&[entry(1, "lat_syscall", 4.0), entry(2, "lat_syscall", 40.0)]);
        assert!(reply.found);
        assert!(reply.regressions > 0, "{}", reply.text);
    }

    #[test]
    fn history_reply_walks_the_series_oldest_first() {
        let series = [
            entry(10, "lat_syscall", 4.0),
            entry(20, "other_bench", 9.0),
            entry(30, "lat_syscall", 5.0),
        ];
        let reply = history_reply(&series, "lat_syscall", "");
        assert!(reply.found);
        assert_eq!(reply.points.len(), 2, "runs without the metric skipped");
        assert_eq!(reply.points[0].value, 4.0);
        assert_eq!(reply.points[0].shard_seq, 1);
        assert_eq!(reply.points[1].value, 5.0);
        assert_eq!(reply.points[1].shard_seq, 3);
        assert!(!history_reply(&[], "lat_syscall", "").found);
    }

    #[test]
    fn table_reply_prefers_the_table_payload() {
        let plain = entry(10, "lat_syscall", 4.0);
        let reply = table_reply(Some(&plain));
        assert!(reply.found);
        assert!(reply.text.contains("lat_syscall"), "report fallback");

        let with_run = plain.clone().with_run(lmb_results::SuiteRun {
            syscall: Some(lmb_results::SyscallRow {
                system: "host".into(),
                syscall_us: 4.0,
            }),
            ..Default::default()
        });
        let reply = table_reply(Some(&with_run));
        assert!(reply.found);
        assert!(
            reply.text.contains("Table 7"),
            "paper tables regenerated: {}",
            &reply.text[..reply.text.len().min(400)]
        );
        assert!(!table_reply(None).found);
    }
}
