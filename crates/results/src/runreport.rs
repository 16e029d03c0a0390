//! Per-benchmark execution outcomes and measurement provenance.
//!
//! A suite run no longer succeeds or dies as a unit: the engine records one
//! [`BenchRecord`] per registry entry, whatever happened, and the resulting
//! [`RunReport`] travels next to the partial `SuiteRun` it annotates. This
//! is the machine-readable answer to "which numbers can I trust, and what
//! did the harness actually do to produce them?" (paper §3.4 discusses the
//! methodology; here we archive it per row).

use serde::{Cursor, DeError, Deserialize, Serialize, Writer};
use std::fmt;

/// What happened to one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchStatus {
    /// Ran to completion; its patches were applied to the `SuiteRun`.
    Ok,
    /// Panicked or reported an error; reason attached.
    Failed(String),
    /// Did not finish inside the engine's per-benchmark budget.
    TimedOut {
        /// The budget that was exceeded, milliseconds.
        limit_ms: u64,
    },
    /// Pre-flight probe found the substrate missing (no loopback, no
    /// writable temp dir, ...); reason attached.
    Skipped(String),
}

impl BenchStatus {
    /// Did the benchmark produce usable results?
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, BenchStatus::Ok)
    }

    /// Short fixed-width tag for tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            BenchStatus::Ok => "ok",
            BenchStatus::Failed(_) => "failed",
            BenchStatus::TimedOut { .. } => "timeout",
            BenchStatus::Skipped(_) => "skipped",
        }
    }

    /// Human-readable detail (empty for `Ok`).
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            BenchStatus::Ok => String::new(),
            BenchStatus::Failed(reason) | BenchStatus::Skipped(reason) => reason.clone(),
            BenchStatus::TimedOut { limit_ms } => format!("exceeded {limit_ms} ms budget"),
        }
    }
}

// Hand-written: the tuple variants `Failed`/`Skipped` carry their reason
// under a `reason` key, which no derive attribute expresses.
impl Serialize for BenchStatus {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        w.key("status");
        w.str(self.label());
        match self {
            BenchStatus::Ok => {}
            BenchStatus::Failed(reason) | BenchStatus::Skipped(reason) => {
                w.key("reason");
                w.str(reason);
            }
            BenchStatus::TimedOut { limit_ms } => {
                w.key("limit_ms");
                w.int(*limit_ms);
            }
        }
        w.end_object();
    }
}

impl Deserialize for BenchStatus {
    fn deserialize(c: &mut Cursor<'_>) -> Result<Self, DeError> {
        let tag = c.tag("status", "BenchStatus")?;
        // Only the payload key this status carries is read; the first of
        // a repeated key wins, and every other key is passed over.
        let (mut reason, mut limit_ms) = (None, None);
        while let Some(key) = c.next_key()? {
            match (&*tag, &*key) {
                ("failed" | "skipped", "reason") if reason.is_none() => {
                    reason = Some(String::deserialize(c).map_err(|e| e.in_field("reason"))?);
                }
                ("timeout", "limit_ms") if limit_ms.is_none() => {
                    limit_ms = Some(u64::deserialize(c).map_err(|e| e.in_field("limit_ms"))?);
                }
                _ => c.skip_value()?,
            }
        }
        let reason = || {
            reason
                .map_or_else(String::missing, Ok)
                .map_err(|e| e.in_field("reason"))
        };
        match &*tag {
            "ok" => Ok(BenchStatus::Ok),
            "failed" => Ok(BenchStatus::Failed(reason()?)),
            "skipped" => Ok(BenchStatus::Skipped(reason()?)),
            "timeout" => Ok(BenchStatus::TimedOut {
                limit_ms: limit_ms
                    .map_or_else(u64::missing, Ok)
                    .map_err(|e| e.in_field("limit_ms"))?,
            }),
            other => Err(DeError::new(format!("unknown BenchStatus tag `{other}`"))),
        }
    }
}

/// How a benchmark's headline numbers were obtained: the calibration
/// decisions and sample dispersion of its *noisiest* harness measurement,
/// plus how many measurements it made in total.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// Timed repetitions per measurement.
    pub repetitions: u32,
    /// Untimed warm-up runs before sampling.
    pub warmup_runs: u32,
    /// Calibrated loop iterations per timed interval.
    pub calibrated_iterations: u64,
    /// Probed clock resolution, ns.
    pub clock_resolution_ns: f64,
    /// Fastest repetition, ns per operation.
    pub sample_min_ns: f64,
    /// Median (p50) repetition, ns per operation.
    pub sample_median_ns: f64,
    /// 90th-percentile repetition, ns per operation.
    pub sample_p90_ns: f64,
    /// 99th-percentile repetition, ns per operation.
    pub sample_p99_ns: f64,
    /// Slowest repetition, ns per operation.
    pub sample_max_ns: f64,
    /// Median absolute deviation of the repetitions, ns.
    pub mad_ns: f64,
    /// `(median - min) / min` dispersion; near zero on a quiet machine.
    pub min_median_gap: f64,
    /// Coefficient of variation (stddev / mean) across repetitions. This
    /// is the noise band the regression differ judges deltas against.
    pub cv: f64,
    /// Repetitions outside the Tukey fences (`1.5·IQR` beyond the
    /// quartiles).
    pub iqr_outliers: u32,
    /// Quality grade derived from CV, outlier fraction and overhead
    /// clamping: `"good"`, `"noisy"` or `"suspect"` (see
    /// `lmb_timing::Quality`).
    pub quality: String,
    /// Harness measurements the benchmark performed in total.
    pub measure_calls: u32,
    /// Repetitions of the recorded measurement whose interval fell below
    /// the clock-read overhead and were clamped at 0.0 instead of going
    /// negative. Nonzero forces `quality` to `"suspect"`: the samples are
    /// floors, not measurements. Absent in reports that predate clamp
    /// accounting, which read as 0.
    #[serde(default)]
    pub clamped_samples: u32,
}

/// Kernel resource accounting across a benchmark's final attempt
/// (`getrusage`, thread scope).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// User CPU time spent, microseconds.
    pub utime_us: u64,
    /// System CPU time spent, microseconds.
    pub stime_us: u64,
    /// Peak resident set size, kilobytes.
    pub maxrss_kb: u64,
    /// Minor page faults taken.
    pub minor_faults: u64,
    /// Major page faults taken.
    pub major_faults: u64,
    /// Voluntary context switches.
    pub vol_ctx_switches: u64,
    /// Involuntary context switches — scheduler preemptions during the
    /// measurement, the disturbance §3.4 could only infer.
    pub invol_ctx_switches: u64,
    /// True when a benchmark thread leaked by an earlier timeout in the
    /// same run may still have been running while this attempt executed:
    /// the counts are this thread's own (`RUSAGE_THREAD`), but
    /// preemptions and faults reflect a contended machine, so consumers
    /// (the differ included) must not treat the delta as an isolated-run
    /// measurement. Absent in reports that predate the flag, which read
    /// as false.
    #[serde(default)]
    pub contended: bool,
}

/// Hardware-counter deltas across a benchmark's final attempt
/// (`perf_event_open` group, thread scope, overhead-compensated the way
/// §3.4 compensates clock reads).
///
/// Raw counts are archived; the derived figures of merit (IPC and
/// misses per kilo-instruction) are computed on demand so the archive
/// never disagrees with its own ratios.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterDelta {
    /// Core clock cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Mispredicted branches.
    pub branch_misses: u64,
    /// Last-level cache misses.
    pub cache_misses: u64,
    /// Data-TLB read misses.
    pub dtlb_misses: u64,
    /// Wall time the counter group was enabled, nanoseconds.
    pub enabled_ns: u64,
    /// Time the group actually counted on the PMU, nanoseconds.
    pub running_ns: u64,
}

impl CounterDelta {
    /// Instructions per cycle — the headline "what did the loop do"
    /// figure; `None` when no cycles were counted.
    #[must_use]
    pub fn ipc(&self) -> Option<f64> {
        if self.cycles == 0 {
            None
        } else {
            Some(self.instructions as f64 / self.cycles as f64)
        }
    }

    /// Branch misses per kilo-instruction; `None` without instructions.
    #[must_use]
    pub fn branch_miss_pki(&self) -> Option<f64> {
        self.per_kilo_instruction(self.branch_misses)
    }

    /// Cache misses per kilo-instruction; `None` without instructions.
    #[must_use]
    pub fn cache_miss_pki(&self) -> Option<f64> {
        self.per_kilo_instruction(self.cache_misses)
    }

    /// dTLB read misses per kilo-instruction; `None` without
    /// instructions.
    #[must_use]
    pub fn dtlb_miss_pki(&self) -> Option<f64> {
        self.per_kilo_instruction(self.dtlb_misses)
    }

    /// True when the kernel time-sliced the group (`running < enabled`):
    /// the counts are scaled samples, not exact totals, and consumers
    /// should distrust small differences.
    #[must_use]
    pub fn multiplexed(&self) -> bool {
        self.running_ns < self.enabled_ns
    }

    fn per_kilo_instruction(&self, count: u64) -> Option<f64> {
        if self.instructions == 0 {
            None
        } else {
            Some(count as f64 * 1000.0 / self.instructions as f64)
        }
    }
}

/// What the *harness itself* cost to produce a run: total suite wall time
/// with a per-phase breakdown, plus the trace sink's emission accounting.
/// This is the suite's self-budget — `lmbench diff` compares it run over
/// run (lower is better) so a measurement-infrastructure regression is as
/// visible as a kernel one.
///
/// Phases nest (probe/warmup/calibrate/attempt all run inside the suite,
/// and warm-up and calibration inside attempts), so the per-phase columns
/// are not additive; benchmarks run one at a time, so each fits inside
/// `suite_ms`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HarnessMetrics {
    /// Whole-suite wall time, `Engine::execute` entry to exit, ms.
    pub suite_ms: f64,
    /// Substrate probing across all benchmarks, ms.
    pub probe_ms: f64,
    /// Untimed warm-up loops across all measurements, ms.
    pub warmup_ms: f64,
    /// Iteration-count calibration across all measurements, ms.
    pub calibrate_ms: f64,
    /// First attempts: benchmark-thread lifetime across benchmarks, ms.
    pub attempt_ms: f64,
    /// Noise-retry attempts beyond the first, ms.
    pub retry_ms: f64,
    /// Events delivered to the run's trace (0 when untraced).
    pub trace_events: u64,
    /// Bytes the JSONL trace sink wrote.
    pub trace_bytes: u64,
    /// Batched writes the JSONL trace sink performed.
    pub trace_writes: u64,
    /// Trace events lost to serialization or write errors.
    pub trace_dropped: u64,
}

/// How a virtual (simulated) run was seeded: enough to re-run the exact
/// same suite — same scripted costs, same clock behaviour — from the
/// report alone. Absent on real-hardware runs, which is the common case,
/// so the field is omitted from the wire entirely when `None`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimProvenance {
    /// The seed every scripted cost model and clock derived from.
    pub seed: u64,
    /// Virtual clock tick granularity, ns.
    pub resolution_ns: f64,
    /// Virtual cost charged per clock read, ns.
    pub read_overhead_ns: f64,
    /// Virtual jitter spread added per clock read, ns.
    pub read_jitter_ns: f64,
}

/// One headline number a benchmark produced, archived so run-over-run
/// diffs need only the report JSON.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricValue {
    /// What was measured (`pipe`, `fork`, ...; may be empty).
    pub label: String,
    /// The value, in `unit`s.
    pub value: f64,
    /// Unit name (`MB/s`, `us`, `ns`, ...).
    pub unit: String,
}

/// One registry entry's outcome within a suite run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Registry name (`lat_syscall`, `bw_mem`, ...).
    pub name: String,
    /// What the benchmark produces ("Table 7", ...).
    pub produces: String,
    /// Outcome.
    pub status: BenchStatus,
    /// Attempts made (> 1 when the noise-retry policy re-ran it).
    pub attempts: u32,
    /// Wall-clock time spent across all attempts, milliseconds.
    pub wall_ms: f64,
    /// Whether the engine serialized this benchmark (interference-sensitive).
    pub exclusive: bool,
    /// Measurement provenance, when the benchmark ran far enough to record
    /// any (absent for skips and derived/model entries).
    pub provenance: Option<Provenance>,
    /// Kernel resource accounting across the final attempt (absent for
    /// skips and timeouts — an abandoned thread cannot be measured).
    pub rusage: Option<ResourceUsage>,
    /// Hardware-counter deltas across the final attempt (absent when the
    /// host denies `perf_event_open` — containers, strict
    /// `perf_event_paranoid` — and for skips and timeouts). Omitted
    /// from the wire when absent, so a counter-denied host writes the
    /// same bytes as a binary that predates counters.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub counters: Option<CounterDelta>,
    /// Headline metrics the benchmark reported, in display order. These
    /// are the values the regression differ compares run over run.
    pub metrics: Vec<MetricValue>,
    /// The benchmark's span id in the run's trace (when `--trace` was
    /// active), linking this row to its `span_start`/`span_end` events.
    pub span: Option<u64>,
}

/// Everything the engine can say about a suite run, beyond the results.
///
/// Every field after `records` arrived after the first archived reports,
/// so each either defaults when absent or is omitted when empty; a report
/// without them keeps its bytes across a parse and re-render.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema version this report was written with (see
    /// [`crate::store::SCHEMA_VERSION`]); reports that predate the field
    /// read as version 1.
    #[serde(default = "crate::store::legacy_schema_version")]
    pub schema_version: u32,
    /// One record per registry entry, in registry order.
    pub records: Vec<BenchRecord>,
    /// Load-scaling curves measured by `lmbench scale` (empty for plain
    /// suite runs and for reports archived before the scale subsystem).
    #[serde(default)]
    pub scaling: Vec<crate::scaling::ScalingCurve>,
    /// Open-/closed-loop throughput–latency sweeps measured by
    /// `lmbench load` (empty for other runs and for reports archived
    /// before open-loop load generation).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub rate_sweeps: Vec<crate::ratesweep::RateSweep>,
    /// The harness's own execution budget (absent in reports archived
    /// before self-budget tracking, and in hand-built reports).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub harness: Option<HarnessMetrics>,
    /// Virtual-run provenance: present only when the suite executed under
    /// a seeded virtual clock (`lmb-timing`'s `SimClock`) rather than
    /// hardware.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub sim: Option<SimProvenance>,
}

impl Default for RunReport {
    fn default() -> RunReport {
        RunReport {
            schema_version: crate::store::SCHEMA_VERSION,
            records: Vec::new(),
            scaling: Vec::new(),
            rate_sweeps: Vec::new(),
            harness: None,
            sim: None,
        }
    }
}

impl RunReport {
    /// Look up a record by benchmark name.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<&BenchRecord> {
        self.records.iter().find(|r| r.name == name)
    }

    /// Count of records with the given status label.
    #[must_use]
    pub fn count(&self, label: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.status.label() == label)
            .count()
    }

    /// Were all benchmarks that actually ran successful?
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.records
            .iter()
            .all(|r| matches!(r.status, BenchStatus::Ok | BenchStatus::Skipped(_)))
    }

    /// Serializes to pretty-printed JSON (the `--report-json` artifact).
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report types always serialize")
    }

    /// Parses a report back from [`RunReport::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Render the report as a fixed-width text table with a trailing
    /// status summary line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<16} {:<22} {:<8} {:>3} {:>9}  {}\n",
            "benchmark", "produces", "status", "try", "wall(ms)", "detail"
        ));
        for r in &self.records {
            let detail = r.status.detail();
            out.push_str(&format!(
                "{:<16} {:<22} {:<8} {:>3} {:>9.1}  {}\n",
                r.name,
                r.produces,
                r.status.label(),
                r.attempts,
                r.wall_ms,
                detail
            ));
        }
        out.push_str(&format!(
            "{} ok, {} failed, {} timeout, {} skipped of {} benchmarks\n",
            self.count("ok"),
            self.count("failed"),
            self.count("timeout"),
            self.count("skipped"),
            self.records.len()
        ));
        out
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn record(name: &str, status: BenchStatus) -> BenchRecord {
        BenchRecord {
            name: name.into(),
            produces: "Table 7".into(),
            status,
            attempts: 1,
            wall_ms: 12.5,
            exclusive: false,
            provenance: None,
            rusage: None,
            counters: None,
            metrics: Vec::new(),
            span: None,
        }
    }

    #[test]
    fn status_labels_and_details() {
        assert!(BenchStatus::Ok.is_ok());
        assert_eq!(BenchStatus::Ok.detail(), "");
        let failed = BenchStatus::Failed("index out of bounds".into());
        assert!(!failed.is_ok());
        assert_eq!(failed.label(), "failed");
        assert_eq!(
            BenchStatus::TimedOut { limit_ms: 500 }.detail(),
            "exceeded 500 ms budget"
        );
    }

    #[test]
    fn every_status_roundtrips_through_json() {
        let statuses = [
            BenchStatus::Ok,
            BenchStatus::Failed("boom".into()),
            BenchStatus::TimedOut { limit_ms: 1234 },
            BenchStatus::Skipped("no loopback".into()),
        ];
        for s in &statuses {
            let back = serde_json::from_str::<BenchStatus>(&serde_json::to_string(&s).unwrap())
                .expect("roundtrip");
            assert_eq!(&back, s);
        }
    }

    #[test]
    fn report_counts_and_render() {
        let report = RunReport {
            records: vec![
                record("lat_syscall", BenchStatus::Ok),
                record("bw_mem", BenchStatus::Failed("forced panic".into())),
                record("lat_ctx", BenchStatus::TimedOut { limit_ms: 100 }),
                record("lat_disk", BenchStatus::Skipped("no raw device".into())),
            ],
            ..Default::default()
        };
        assert_eq!(report.count("ok"), 1);
        assert_eq!(report.count("failed"), 1);
        assert!(!report.all_ok());
        assert!(report.find("bw_mem").is_some());
        let text = report.render();
        assert!(text.contains("forced panic"));
        assert!(text.contains("1 ok, 1 failed, 1 timeout, 1 skipped of 4"));
    }

    #[test]
    fn display_matches_render() {
        let report = RunReport {
            records: vec![
                record("lat_syscall", BenchStatus::Ok),
                record("lat_ctx", BenchStatus::Skipped("no loopback".into())),
            ],
            ..Default::default()
        };
        let shown = format!("{report}");
        assert_eq!(shown, report.render());
        assert!(shown.starts_with("benchmark"), "header row first: {shown}");
        assert!(shown.contains("no loopback"));
        assert!(shown.ends_with("of 2 benchmarks\n"));
    }

    #[test]
    fn report_json_roundtrips() {
        let report = RunReport {
            records: vec![
                record("lat_syscall", BenchStatus::Ok),
                record("bw_mem", BenchStatus::TimedOut { limit_ms: 77 }),
            ],
            ..Default::default()
        };
        let back = RunReport::from_json(&report.to_json()).expect("parse own JSON");
        assert_eq!(back, report);
    }

    #[test]
    fn span_link_roundtrips() {
        let mut rec = record("lat_syscall", BenchStatus::Ok);
        rec.span = Some(41);
        let report = RunReport {
            records: vec![rec.clone(), record("bw_mem", BenchStatus::Ok)],
            ..Default::default()
        };
        let back = serde_json::from_str::<RunReport>(&serde_json::to_string(&report).unwrap())
            .expect("roundtrip");
        assert_eq!(back.records[0].span, Some(41));
        assert_eq!(back.records[1].span, None);
        assert_eq!(back, report);
    }

    #[test]
    fn record_with_provenance_roundtrips() {
        let mut rec = record("lat_syscall", BenchStatus::Ok);
        rec.provenance = Some(Provenance {
            repetitions: 11,
            warmup_runs: 2,
            calibrated_iterations: 4096,
            clock_resolution_ns: 30.0,
            sample_min_ns: 100.0,
            sample_median_ns: 104.0,
            sample_p90_ns: 120.0,
            sample_p99_ns: 130.0,
            sample_max_ns: 131.0,
            mad_ns: 3.0,
            min_median_gap: 0.04,
            cv: 0.09,
            iqr_outliers: 1,
            quality: "good".into(),
            measure_calls: 3,
            clamped_samples: 2,
        });
        let report = RunReport {
            records: vec![rec.clone()],
            ..Default::default()
        };
        let back = serde_json::from_str::<RunReport>(&serde_json::to_string(&report).unwrap())
            .expect("roundtrip");
        assert_eq!(back.records[0], rec);
    }

    #[test]
    fn provenance_without_clamped_field_reads_as_unclamped() {
        // Reports archived before overhead-clamp accounting existed must
        // keep loading, with zero clamps assumed.
        let mut p = Provenance {
            repetitions: 5,
            warmup_runs: 1,
            calibrated_iterations: 256,
            clock_resolution_ns: 30.0,
            sample_min_ns: 10.0,
            sample_median_ns: 11.0,
            sample_p90_ns: 12.0,
            sample_p99_ns: 12.5,
            sample_max_ns: 13.0,
            mad_ns: 0.5,
            min_median_gap: 0.1,
            cv: 0.05,
            iqr_outliers: 0,
            quality: "good".into(),
            measure_calls: 1,
            clamped_samples: 7,
        };
        let mut value: Value = serde_json::from_str(&serde_json::to_string(&p).unwrap()).unwrap();
        value.set("clamped_samples", Value::Null);
        p.clamped_samples = 0;
        let json = serde_json::to_string(&value).unwrap();
        assert_eq!(
            serde_json::from_str::<Provenance>(&json).expect("tolerant"),
            p
        );
    }

    #[test]
    fn rusage_without_contended_field_reads_as_uncontended() {
        // Reports archived before the flag existed must keep loading.
        let mut usage = ResourceUsage {
            utime_us: 10,
            stime_us: 5,
            maxrss_kb: 100,
            minor_faults: 1,
            major_faults: 0,
            vol_ctx_switches: 2,
            invol_ctx_switches: 1,
            contended: true,
        };
        let mut value: Value =
            serde_json::from_str(&serde_json::to_string(&usage).unwrap()).unwrap();
        value.set("contended", Value::Null);
        usage.contended = false;
        let json = serde_json::to_string(&value).unwrap();
        assert_eq!(
            serde_json::from_str::<ResourceUsage>(&json).expect("tolerant"),
            usage
        );
    }

    #[test]
    fn counter_delta_derives_ipc_and_pki_figures() {
        let d = CounterDelta {
            cycles: 2_000,
            instructions: 4_000,
            branch_misses: 8,
            cache_misses: 2,
            dtlb_misses: 1,
            enabled_ns: 1_000,
            running_ns: 1_000,
        };
        assert_eq!(d.ipc(), Some(2.0));
        assert_eq!(d.branch_miss_pki(), Some(2.0));
        assert_eq!(d.cache_miss_pki(), Some(0.5));
        assert_eq!(d.dtlb_miss_pki(), Some(0.25));
        assert!(!d.multiplexed());
        // Degenerate deltas derive nothing rather than dividing by zero.
        let empty = CounterDelta::default();
        assert_eq!(empty.ipc(), None);
        assert_eq!(empty.branch_miss_pki(), None);
        assert_eq!(empty.cache_miss_pki(), None);
        assert_eq!(empty.dtlb_miss_pki(), None);
        let sliced = CounterDelta {
            enabled_ns: 100,
            running_ns: 40,
            ..CounterDelta::default()
        };
        assert!(sliced.multiplexed());
    }

    #[test]
    fn record_without_counters_field_reads_as_none() {
        // Reports archived before counters existed must keep loading.
        let rec = record("lat_syscall", BenchStatus::Ok);
        let rendered = serde_json::to_string(&rec).unwrap();
        assert!(
            !rendered.contains("counters"),
            "absent counters must be omitted, not null: {rendered}"
        );
        let back: BenchRecord = serde_json::from_str(&rendered).expect("tolerant");
        assert_eq!(back.counters, None);
        assert_eq!(back, rec);
    }

    #[test]
    fn counter_absence_survives_a_round_trip() {
        // A counter-denied host must write byte-identical record JSON to
        // a pre-counter binary: parse → re-serialize must not invent the
        // key.
        let report = RunReport {
            records: vec![record("lat_syscall", BenchStatus::Ok)],
            ..Default::default()
        };
        let json = report.to_json();
        let back = RunReport::from_json(&json).expect("roundtrip");
        assert_eq!(back.to_json(), json);
        assert!(!json.contains("counters"));
    }

    #[test]
    fn harness_absence_survives_a_round_trip() {
        // Reports without a self-budget (older binaries, hand-built
        // fixtures) must not grow the key on re-serialization.
        let report = RunReport {
            records: vec![record("lat_syscall", BenchStatus::Ok)],
            ..Default::default()
        };
        let json = report.to_json();
        assert!(!json.contains("harness"), "{json}");
        let back = RunReport::from_json(&json).expect("roundtrip");
        assert_eq!(back.harness, None);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn harness_budget_roundtrips() {
        let report = RunReport {
            records: vec![record("lat_syscall", BenchStatus::Ok)],
            harness: Some(HarnessMetrics {
                suite_ms: 1234.5,
                probe_ms: 1.25,
                warmup_ms: 40.0,
                calibrate_ms: 210.0,
                attempt_ms: 950.0,
                retry_ms: 120.0,
                trace_events: 4096,
                trace_bytes: 1_048_576,
                trace_writes: 16,
                trace_dropped: 1,
            }),
            ..Default::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"harness\""), "{json}");
        assert!(json.contains("calibrate_ms"), "{json}");
        let back = RunReport::from_json(&json).expect("roundtrip");
        assert_eq!(back, report);
    }

    #[test]
    fn record_with_counters_roundtrips() {
        let mut rec = record("bw_mem", BenchStatus::Ok);
        rec.counters = Some(CounterDelta {
            cycles: 1_200_000,
            instructions: 2_400_000,
            branch_misses: 310,
            cache_misses: 42,
            dtlb_misses: 5,
            enabled_ns: 500_000,
            running_ns: 400_000,
        });
        let report = RunReport {
            records: vec![rec.clone()],
            ..Default::default()
        };
        let json = report.to_json();
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("dtlb_misses"), "{json}");
        let back = RunReport::from_json(&json).expect("roundtrip");
        assert_eq!(back.records[0], rec);
        assert!(back.records[0].counters.unwrap().multiplexed());
    }

    #[test]
    fn record_with_rusage_and_metrics_roundtrips() {
        let mut rec = record("bw_pipe_tcp", BenchStatus::Ok);
        rec.rusage = Some(ResourceUsage {
            utime_us: 1500,
            stime_us: 900,
            maxrss_kb: 4096,
            minor_faults: 240,
            major_faults: 1,
            vol_ctx_switches: 12,
            invol_ctx_switches: 3,
            contended: true,
        });
        rec.metrics = vec![
            MetricValue {
                label: "pipe".into(),
                value: 330.4,
                unit: "MB/s".into(),
            },
            MetricValue {
                label: "TCP".into(),
                value: 280.0,
                unit: "MB/s".into(),
            },
        ];
        let report = RunReport {
            records: vec![rec.clone()],
            ..Default::default()
        };
        let json = report.to_json();
        assert!(json.contains("invol_ctx_switches"), "{json}");
        assert!(json.contains("MB/s"), "{json}");
        let back = RunReport::from_json(&json).expect("roundtrip");
        assert_eq!(back.records[0], rec);
    }
}
