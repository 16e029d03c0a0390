//! The trace event vocabulary: everything the suite can say about itself.
//!
//! One [`TraceEvent`] is one line of a JSONL trace. Events are flat — the
//! kind tag and its payload fields live next to the sequence number,
//! timestamp and owning span — so a consumer can `grep '"kind":"timeout"'`
//! a trace without a parser, and a parser can rebuild every event
//! losslessly (the round-trip is tested over every kind).

use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// What one trace line reports.
///
/// The variants mirror the engine's interesting decisions (paper §3.4
/// methodology — calibration, warm-up, dispersion — plus the fault
/// machinery added on top): span boundaries, scheduling, probes,
/// calibration, retries, timeouts, panics, skips, metrics, syscall counts
/// and final outcomes.
///
/// On the wire each kind is one object: its snake-case name under
/// `"kind"`, then its fields in declaration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum EventKind {
    /// A suite run began.
    SuiteStart {
        /// Registry entries about to execute.
        benchmarks: u32,
        /// Benchmarks measured at once; always 1, since the engine
        /// measures each benchmark alone.
        workers: u32,
    },
    /// The engine moved to a new scheduling phase (`pool`, `exclusive`,
    /// `derived`).
    PhaseStart {
        /// Phase name.
        phase: String,
    },
    /// A non-exclusive benchmark was scheduled in the `pool` phase. The
    /// engine schedules every benchmark on the thread that called it,
    /// worker 0.
    Schedule {
        /// Benchmark name.
        bench: String,
        /// Worker index that picked it up (always 0).
        worker: u32,
    },
    /// A span opened; the event's `span` field is the new span's id.
    SpanStart {
        /// Span name (`suite`, `bench:lat_syscall`, ...).
        name: String,
        /// Enclosing span, if any.
        parent: Option<u64>,
    },
    /// A span closed; the event's `span` field is the closing span's id.
    SpanEnd {
        /// Span name, repeated so JSONL consumers need not join.
        name: String,
        /// Wall-clock lifetime of the span, microseconds.
        elapsed_us: f64,
    },
    /// A substrate probe ran before a benchmark launched.
    Probe {
        /// Probed facility (`/dev/null`, `loopback networking`, ...).
        substrate: String,
        /// Whether the facility is usable.
        ok: bool,
        /// Failure reason when `ok` is false, empty otherwise.
        detail: String,
    },
    /// The harness ran its untimed warm-up (paper §3.4 "Caching").
    Warmup {
        /// Untimed runs performed.
        runs: u32,
    },
    /// The harness calibrated a timed loop (paper §3.4 "Clock resolution").
    Calibrated {
        /// Loop iterations chosen per timed interval.
        iterations: u64,
        /// Probed clock resolution, ns.
        clock_resolution_ns: f64,
    },
    /// One isolated execution attempt of a benchmark began.
    Attempt {
        /// 1-based attempt number.
        attempt: u32,
    },
    /// The engine re-ran a benchmark because its samples were too noisy.
    Retry {
        /// The attempt that was judged noisy.
        attempt: u32,
        /// The coefficient of variation that triggered the retry.
        cv: f64,
        /// The policy ceiling it exceeded.
        threshold: f64,
    },
    /// The watchdog abandoned a benchmark past its wall-clock budget.
    Timeout {
        /// The budget that was exceeded, milliseconds.
        limit_ms: u64,
    },
    /// The watchdog abandoned a benchmark's thread without joining it: the
    /// thread keeps running, holding its substrate (pipes, scratch files,
    /// CPU) and perturbing every later benchmark in the same process.
    ThreadLeak {
        /// Benchmark whose thread was abandoned.
        bench: String,
        /// Leaked threads alive in this run after this one, cumulative.
        leaked: u32,
    },
    /// A benchmark panicked and was contained.
    Panic {
        /// Rendered panic payload.
        message: String,
    },
    /// A benchmark was skipped (failed probe or mid-run self-report).
    Skip {
        /// Why it could not run here.
        reason: String,
    },
    /// A headline number a benchmark produced.
    Metric {
        /// What was measured (`pipe`, `fork`, ...; may be empty).
        label: String,
        /// The value, in `unit`s.
        value: f64,
        /// Unit name (`MB/s`, `us`, `ns`, ...).
        unit: String,
    },
    /// Syscalls observed at the `lmb-sys` wrapper layer during a benchmark
    /// (process-global counters; exact under serial execution, see
    /// `lmb_sys::count`).
    Syscalls {
        /// Nonzero per-class counts.
        counts: BTreeMap<String, u64>,
    },
    /// Kernel resource accounting (`getrusage`, thread scope) across one
    /// benchmark attempt: the paper's "benchmark disturbed by scheduler
    /// noise" made observable.
    Rusage {
        /// User CPU time spent, microseconds.
        utime_us: u64,
        /// System CPU time spent, microseconds.
        stime_us: u64,
        /// Peak resident set size, kilobytes.
        maxrss_kb: u64,
        /// Minor page faults taken.
        minor_faults: u64,
        /// Major page faults taken.
        major_faults: u64,
        /// Voluntary context switches.
        vol_ctx_switches: u64,
        /// Involuntary context switches (scheduler preemptions).
        invol_ctx_switches: u64,
        /// True when a thread leaked by an earlier timeout in the run may
        /// have run concurrently with this attempt, so the delta is not an
        /// isolated-run cost. Absent in traces that predate the flag,
        /// whose engine never flagged contention.
        #[serde(default)]
        contended: bool,
    },
    /// Hardware counter deltas across one benchmark attempt: the §5.1
    /// "the loop is load-bound" claim made observable. Counts are
    /// overhead-compensated (the measured cost of an empty bracket is
    /// subtracted, the §3.4 clock treatment applied to the PMU).
    Counters {
        /// Core clock cycles.
        cycles: u64,
        /// Retired instructions.
        instructions: u64,
        /// Mispredicted branches.
        branch_misses: u64,
        /// Last-level cache misses.
        cache_misses: u64,
        /// Data-TLB read misses.
        dtlb_misses: u64,
        /// Wall time the group was enabled, nanoseconds.
        enabled_ns: u64,
        /// Time the group actually counted on the PMU, nanoseconds
        /// (< `enabled_ns` means the kernel multiplexed the group).
        running_ns: u64,
    },
    /// Hardware counters could not be opened; emitted once per process,
    /// after which the run proceeds exactly as an uncounted run would.
    CountersUnavailable {
        /// Stable failure class (`denied`, `unsupported`, `io`).
        reason: String,
        /// `perf_event_paranoid` at failure time, when the denial was a
        /// permission problem and the level was readable.
        paranoid: Option<i64>,
    },
    /// A load-scaling sweep began for one benchmark.
    ScaleStart {
        /// Benchmark being swept.
        bench: String,
        /// Largest generator count the sweep will reach.
        max_p: u32,
    },
    /// One point of a scaling sweep finished: P generators ran together.
    ScalePoint {
        /// Concurrent generators at this point.
        p: u32,
        /// Aggregate throughput across all generators.
        throughput: f64,
        /// Throughput unit (`MB/s`, `ops/s`).
        unit: String,
        /// Median per-op latency across pooled samples, µs.
        p50_us: f64,
        /// 99th-percentile per-op latency across pooled samples, µs.
        p99_us: f64,
        /// Pooled-sample quality grade.
        quality: String,
    },
    /// One generator of a scaling point finished its timed run.
    Generator {
        /// The point's generator count.
        p: u32,
        /// This generator's index, `0..p`.
        index: u32,
        /// Operations this generator completed in timed repetitions.
        ops: u64,
        /// Wall-clock spent in the timed section, milliseconds.
        elapsed_ms: f64,
    },
    /// An open-/closed-loop rate sweep began for one benchmark.
    SweepStart {
        /// Benchmark being swept.
        bench: String,
        /// Pacing mode (`open`, `closed`).
        mode: String,
        /// Arrival process (`uniform`, `poisson`).
        process: String,
    },
    /// One offered-rate point of a load sweep finished.
    RatePoint {
        /// Scheduled arrival rate, ops/s.
        offered_per_s: f64,
        /// Completed-operation rate over the point's span, ops/s.
        achieved_per_s: f64,
        /// Pacing mode (`open`, `closed`).
        mode: String,
        /// Median latency, µs (from intended arrival in open mode).
        p50_us: f64,
        /// 99th-percentile latency, µs.
        p99_us: f64,
        /// Latency-sample quality grade.
        quality: String,
    },
    /// Arrivals fell behind their schedule during an open-loop point —
    /// the backlog a closed-loop generator would silently absorb.
    Backlog {
        /// Scheduled arrival rate of the point, ops/s.
        offered_per_s: f64,
        /// Arrivals whose service started after their intended time.
        late: u64,
        /// Worst start lag behind the schedule, µs.
        max_lag_us: f64,
    },
    /// The results service accepted one pushed run report into a shard.
    Ingest {
        /// Host fingerprint the report was sharded under.
        fingerprint: String,
        /// 1-based position of this run within its shard's time series.
        /// (Named distinctly from the event's own global `seq`, next to
        /// which it is flattened in the JSONL line.)
        shard_seq: u64,
        /// Size of the stored record's JSON encoding, bytes.
        bytes: u64,
    },
    /// The results service answered a query procedure.
    Query {
        /// Procedure name (`diff`, `history`, `table`).
        procedure: String,
        /// Host fingerprint the query targeted.
        fingerprint: String,
        /// Result rows (diff rows, history points, table lines) returned.
        rows: u64,
    },
    /// The results store merged a shard's on-disk segments.
    Compaction {
        /// Host fingerprint of the compacted shard.
        fingerprint: String,
        /// Sealed segment files before the merge.
        segments_before: u32,
        /// Sealed segment files after the merge.
        segments_after: u32,
        /// Stored runs carried through the merge.
        runs: u64,
    },
    /// A results-store file could not be read or parsed and was skipped.
    /// Skipping is correct (a corrupt baseline must read as "no baseline",
    /// never "no regression") but fleet operators need to see the loss.
    StoreWarning {
        /// Path of the offending file.
        path: String,
        /// Why it was skipped.
        detail: String,
    },
    /// A periodic dump of one serve daemon's own `lmb-metrics`
    /// instruments (it emits one every few seconds and one at shutdown),
    /// flattened to sorted `name -> value` rows so the audit JSONL carries
    /// uptime, latency histograms and connection gauges without a schema
    /// per instrument.
    MetricsSnapshot {
        /// Flattened instrument rows: counters as-is, gauges clamped at
        /// zero, histograms as `name.count` / `name.sum` / `name.ge_<lo>`.
        counters: BTreeMap<String, u64>,
    },
    /// A benchmark's final outcome, mirroring its `BenchRecord`.
    Outcome {
        /// Status label (`ok`, `failed`, `timeout`, `skipped`).
        status: String,
        /// Attempts made.
        attempts: u32,
        /// Wall-clock across all attempts, milliseconds.
        wall_ms: f64,
    },
    /// The suite run finished.
    SuiteEnd {
        /// Benchmarks that produced usable results.
        ok: u32,
        /// Benchmarks that failed.
        failed: u32,
        /// Benchmarks the watchdog abandoned.
        timeout: u32,
        /// Benchmarks that were skipped.
        skipped: u32,
    },
}

impl EventKind {
    /// One representative of every kind, for round-trip and rendering
    /// tests (kept here so adding a variant forces updating coverage).
    #[must_use]
    pub fn samples() -> Vec<EventKind> {
        let mut counts = BTreeMap::new();
        counts.insert("write".to_string(), 4096u64);
        counts.insert("fork".to_string(), 12u64);
        vec![
            EventKind::SuiteStart {
                benchmarks: 17,
                workers: 2,
            },
            EventKind::PhaseStart {
                phase: "pool".into(),
            },
            EventKind::Schedule {
                bench: "lat_syscall".into(),
                worker: 1,
            },
            EventKind::SpanStart {
                name: "bench:lat_syscall".into(),
                parent: Some(1),
            },
            EventKind::SpanEnd {
                name: "bench:lat_syscall".into(),
                elapsed_us: 1523.5,
            },
            EventKind::Probe {
                substrate: "/dev/null".into(),
                ok: false,
                detail: "unavailable".into(),
            },
            EventKind::Warmup { runs: 2 },
            EventKind::Calibrated {
                iterations: 4096,
                clock_resolution_ns: 30.0,
            },
            EventKind::Attempt { attempt: 1 },
            EventKind::Retry {
                attempt: 1,
                cv: 0.31,
                threshold: 0.25,
            },
            EventKind::Timeout { limit_ms: 500 },
            EventKind::ThreadLeak {
                bench: "lat_ctx".into(),
                leaked: 1,
            },
            EventKind::Panic {
                message: "index out of bounds".into(),
            },
            EventKind::Skip {
                reason: "no loopback".into(),
            },
            EventKind::Metric {
                label: "pipe".into(),
                value: 330.4,
                unit: "MB/s".into(),
            },
            EventKind::Syscalls { counts },
            EventKind::Rusage {
                utime_us: 1500,
                stime_us: 800,
                maxrss_kb: 3400,
                minor_faults: 120,
                major_faults: 1,
                vol_ctx_switches: 7,
                invol_ctx_switches: 2,
                contended: true,
            },
            EventKind::Counters {
                cycles: 1_200_000,
                instructions: 2_400_000,
                branch_misses: 310,
                cache_misses: 42,
                dtlb_misses: 5,
                enabled_ns: 500_000,
                running_ns: 500_000,
            },
            EventKind::CountersUnavailable {
                reason: "denied".into(),
                paranoid: Some(3),
            },
            EventKind::ScaleStart {
                bench: "bw_mem".into(),
                max_p: 4,
            },
            EventKind::ScalePoint {
                p: 2,
                throughput: 5120.5,
                unit: "MB/s".into(),
                p50_us: 310.25,
                p99_us: 402.75,
                quality: "good".into(),
            },
            EventKind::Generator {
                p: 2,
                index: 1,
                ops: 24,
                elapsed_ms: 18.5,
            },
            EventKind::SweepStart {
                bench: "lat_pipe".into(),
                mode: "open".into(),
                process: "uniform".into(),
            },
            EventKind::RatePoint {
                offered_per_s: 12_000.0,
                achieved_per_s: 11_400.0,
                mode: "open".into(),
                p50_us: 84.5,
                p99_us: 412.75,
                quality: "noisy".into(),
            },
            EventKind::Backlog {
                offered_per_s: 12_000.0,
                late: 37,
                max_lag_us: 5125.0,
            },
            EventKind::Ingest {
                fingerprint: "buildbox-00ab54cd12ef3401".into(),
                shard_seq: 17,
                bytes: 20480,
            },
            EventKind::Query {
                procedure: "diff".into(),
                fingerprint: "buildbox-00ab54cd12ef3401".into(),
                rows: 12,
            },
            EventKind::Compaction {
                fingerprint: "buildbox-00ab54cd12ef3401".into(),
                segments_before: 9,
                segments_after: 1,
                runs: 72,
            },
            EventKind::StoreWarning {
                path: ".lmbench/baselines/host-1.json".into(),
                detail: "expected JSON object for `Baseline`".into(),
            },
            EventKind::MetricsSnapshot {
                counters: {
                    let mut rows = BTreeMap::new();
                    rows.insert("rpc.requests".to_string(), 204u64);
                    rows.insert("service.uptime_ms".to_string(), 5210u64);
                    rows.insert("rpc.latency_us.ge_64".to_string(), 31u64);
                    rows
                },
            },
            EventKind::Outcome {
                status: "ok".into(),
                attempts: 2,
                wall_ms: 81.25,
            },
            EventKind::SuiteEnd {
                ok: 14,
                failed: 1,
                timeout: 1,
                skipped: 1,
            },
        ]
    }
}

/// One trace line: a sequenced, timestamped event, attributed to the span
/// it happened inside.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The trace's sequence number (total order across threads).
    pub seq: u64,
    /// Microseconds since the trace epoch (its creation).
    pub t_us: f64,
    /// The span this event belongs to. For `SpanStart`/`SpanEnd` this is
    /// the span being opened/closed itself.
    pub span: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

// Hand-written envelope: the sequencing fields come first, then the
// derived `kind` object's pairs (tag, payload) are flattened after them,
// so every line reads `seq, t_us, span, kind, ...` and greps like
// `"kind":"counters",` stay reliable. Reading back parses `kind` from the
// same flat object.
impl Serialize for TraceEvent {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("seq".to_owned(), Value::Int(i128::from(self.seq))),
            ("t_us".to_owned(), Value::Float(self.t_us)),
            ("span".to_owned(), self.span.to_value()),
        ];
        if let Value::Object(kind) = self.kind.to_value() {
            pairs.extend(kind);
        }
        Value::Object(pairs)
    }
}

impl Deserialize for TraceEvent {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Ok(TraceEvent {
            kind: EventKind::from_value(value)?,
            seq: u64::from_value(value.field("seq")).map_err(|e| e.in_field("seq"))?,
            t_us: f64::from_value(value.field("t_us")).map_err(|e| e.in_field("t_us"))?,
            span: Option::from_value(value.field("span")).map_err(|e| e.in_field("span"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_roundtrips_through_value() {
        for (i, kind) in EventKind::samples().into_iter().enumerate() {
            let event = TraceEvent {
                seq: i as u64,
                t_us: 12.5 * i as f64,
                span: if i % 2 == 0 { Some(7) } else { None },
                kind,
            };
            let back = TraceEvent::from_value(&event.to_value()).expect("roundtrip");
            assert_eq!(back, event);
        }
    }

    #[test]
    fn every_kind_roundtrips_through_jsonl_text() {
        for kind in EventKind::samples() {
            let event = TraceEvent {
                seq: 3,
                t_us: 99.25,
                span: Some(4),
                kind,
            };
            let line = serde_json::to_string(&event).expect("render");
            assert!(!line.contains('\n'), "JSONL line must be one line: {line}");
            let back: TraceEvent = serde_json::from_str(&line).expect("parse");
            assert_eq!(back, event);
        }
    }

    #[test]
    fn tags_are_unique_and_greppable() {
        let samples = EventKind::samples();
        let tags: std::collections::HashSet<String> = samples
            .iter()
            .map(|k| match k.to_value().get("kind") {
                Some(Value::Str(tag)) => tag.clone(),
                other => panic!("kind tag missing: {other:?}"),
            })
            .collect();
        assert_eq!(tags.len(), samples.len(), "duplicate kind tag");
        let event = TraceEvent {
            seq: 0,
            t_us: 0.0,
            span: None,
            kind: EventKind::Timeout { limit_ms: 500 },
        };
        let line = serde_json::to_string(&event).unwrap();
        assert!(line.contains("\"kind\":\"timeout\""), "{line}");
        assert!(line.contains("\"limit_ms\":500"), "{line}");
    }

    #[test]
    fn counters_tag_greps_distinctly_from_unavailable() {
        // CI greps traces for `"kind":"counters",` (note the comma) to
        // count real brackets without also matching the unavailable
        // marker; pin the rendered shapes that makes that reliable.
        let counted = TraceEvent {
            seq: 0,
            t_us: 0.0,
            span: Some(2),
            kind: EventKind::Counters {
                cycles: 1,
                instructions: 2,
                branch_misses: 0,
                cache_misses: 0,
                dtlb_misses: 0,
                enabled_ns: 10,
                running_ns: 10,
            },
        };
        let line = serde_json::to_string(&counted).unwrap();
        assert!(line.contains("\"kind\":\"counters\","), "{line}");
        let missing = TraceEvent {
            seq: 1,
            t_us: 0.0,
            span: None,
            kind: EventKind::CountersUnavailable {
                reason: "unsupported".into(),
                paranoid: None,
            },
        };
        let line = serde_json::to_string(&missing).unwrap();
        assert!(line.contains("\"kind\":\"counters_unavailable\""), "{line}");
        assert!(!line.contains("\"kind\":\"counters\","), "{line}");
    }

    #[test]
    fn unknown_kind_is_rejected() {
        let err = serde_json::from_str::<TraceEvent>(
            r#"{"seq":0,"t_us":0.0,"span":null,"kind":"frobnicate"}"#,
        );
        assert!(err.is_err());
    }
}
