//! Wire compatibility of the results service: one body of every message
//! type, as `proto::to_wire` rendered it before serialization stopped
//! going through a `Value` tree, must still render byte for byte and
//! decode back to an equal value. A daemon and a client built from either
//! side of that change therefore still understand each other.

use bytes::Bytes;
use lmbench::core::service::proto::{
    self, HistoryReply, ProcedureStats, PushRequest, StatsReply, StoreStats,
};
use lmbench::results::runreport::{
    BenchRecord, BenchStatus, CounterDelta, HarnessMetrics, MetricValue, Provenance, ResourceUsage,
    SimProvenance,
};
use lmbench::results::{dataset, Baseline, RunReport, SuiteRun};
use serde::{Deserialize, Serialize};
use std::fmt::Debug;
use std::path::PathBuf;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture_report(name: &str) -> RunReport {
    let path = fixture_path(name);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    RunReport::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Asserts `value` renders to the golden wire body byte for byte, and
/// that the golden decodes back to `value`.
fn assert_wire_golden<T>(name: &str, value: &T)
where
    T: Serialize + Deserialize + PartialEq + Debug,
{
    let path = fixture_path(&format!("golden/{name}"));
    let golden = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let wire = proto::to_wire(value);
    assert!(
        wire[..] == golden[..],
        "{name}: wire bytes drifted from the golden\n--- golden\n{}\n--- rendered\n{}",
        String::from_utf8_lossy(&golden),
        String::from_utf8_lossy(&wire)
    );
    let back: T = proto::from_wire(Bytes::from(golden)).expect("golden decodes");
    assert_eq!(&back, value, "{name}: golden decodes to a different value");
}

/// Record `i` of a 23-record report: every status, present and absent
/// optional blocks, zero to two metrics, and names that need escapes.
fn record(i: u32, scale: f64) -> BenchRecord {
    let status = match i % 4 {
        0 => BenchStatus::Ok,
        1 => BenchStatus::Failed(format!(
            "panicked: \"index {i}\" out of range\n\tat src\\lib.rs"
        )),
        2 => BenchStatus::TimedOut {
            limit_ms: 1_000 * u64::from(i),
        },
        _ => BenchStatus::Skipped("no loopback \u{e9}\u{1F600} \u{1}".into()),
    };
    let base = f64::from(i) * 1.25 + 0.1;
    BenchRecord {
        name: format!("bench_{i:02}"),
        produces: format!("Table {}", 2 + i % 16),
        status,
        attempts: 1 + i % 3,
        wall_ms: base * 10.0,
        exclusive: i.is_multiple_of(5),
        provenance: i.is_multiple_of(2).then(|| Provenance {
            repetitions: 11,
            warmup_runs: 1,
            calibrated_iterations: 1 << (i % 20),
            clock_resolution_ns: 30.0,
            sample_min_ns: base,
            sample_median_ns: base * 1.01,
            sample_p90_ns: base * 1.1,
            sample_p99_ns: base * 1.2,
            sample_max_ns: base * 1.3,
            mad_ns: base / 7.0,
            min_median_gap: 0.01,
            cv: 0.02 + f64::from(i) / 1000.0,
            iqr_outliers: i % 2,
            quality: "good".into(),
            measure_calls: 1 + i % 4,
            clamped_samples: i % 3,
        }),
        rusage: (i % 3 != 1).then(|| ResourceUsage {
            utime_us: 100 * u64::from(i),
            stime_us: 7,
            maxrss_kb: 2_048,
            minor_faults: 3,
            major_faults: 0,
            vol_ctx_switches: 1,
            invol_ctx_switches: u64::from(i),
            contended: i == 7,
        }),
        counters: i.is_multiple_of(3).then(|| CounterDelta {
            cycles: 2_000_000 + u64::from(i),
            instructions: 3_000_000,
            branch_misses: 17,
            cache_misses: 4,
            dtlb_misses: 1,
            enabled_ns: 1_000_000,
            running_ns: 1_000_000 - u64::from(i),
        }),
        metrics: (0..i % 3)
            .map(|m| MetricValue {
                label: if m == 0 {
                    String::new()
                } else {
                    format!("m{m}")
                },
                value: [base * scale, 1e21, 1e-7, -0.5][(m + i) as usize % 4],
                unit: ["us", "MB/s", "ns"][m as usize % 3].into(),
            })
            .collect(),
        span: (i % 2 == 1).then_some(u64::from(i) + 100),
    }
}

/// A 23-record report with a scaling curve, rate sweeps, harness and sim
/// blocks, its metrics scaled by `scale`.
fn report(scale: f64) -> RunReport {
    let mut report = fixture_report("v2-ratesweep.json");
    report.scaling = fixture_report("golden/scale-sim.json").scaling;
    report.records = (0..23).map(|i| record(i, scale)).collect();
    report.harness = Some(HarnessMetrics {
        suite_ms: 1234.5,
        probe_ms: 1.5,
        warmup_ms: 20.25,
        calibrate_ms: 3.0,
        attempt_ms: 1000.125,
        retry_ms: 0.0,
        trace_events: 900,
        trace_bytes: 123_456,
        trace_writes: 12,
        trace_dropped: 0,
    });
    report.sim = Some(SimProvenance {
        seed: 7,
        resolution_ns: 100.0,
        read_overhead_ns: 15.0,
        read_jitter_ns: 5.0,
    });
    report
}

/// A table payload with one row of every paper table.
fn suite_run() -> SuiteRun {
    SuiteRun {
        system: dataset::systems().into_iter().next(),
        mem_bw: dataset::mem_bw().into_iter().next(),
        ipc_bw: dataset::ipc_bw().into_iter().next(),
        remote_bw: dataset::remote_bw().into_iter().take(2).collect(),
        file_bw: dataset::file_bw().into_iter().next(),
        cache_lat: dataset::cache_lat().into_iter().next(),
        syscall: dataset::syscall().into_iter().next(),
        signal: dataset::signal().into_iter().next(),
        proc: dataset::proc().into_iter().next(),
        ctx: dataset::ctx().into_iter().next(),
        pipe_lat: dataset::pipe_lat().into_iter().next(),
        tcp_rpc: dataset::tcp_rpc().into_iter().next(),
        udp_rpc: dataset::udp_rpc().into_iter().next(),
        remote_lat: dataset::remote_lat().into_iter().take(2).collect(),
        connect: dataset::connect().into_iter().next(),
        fs_lat: dataset::fs_lat().into_iter().next(),
        disk: dataset::disk().into_iter().next(),
        ..SuiteRun::default()
    }
}

fn entry(seconds: u64, scale: f64) -> Baseline {
    let mut b = Baseline::now(
        "fleet-host-00ab54cd12ef3401",
        "Fleet \"Box\"",
        report(scale),
    );
    b.unix_seconds = seconds;
    b
}

#[test]
fn every_message_type_keeps_its_wire_bytes() {
    let pushed = entry(820_454_400, 1.0).with_run(suite_run());
    assert_eq!(pushed.report.records.len(), 23);
    assert_wire_golden("wire-push-request.xdr", &PushRequest { entry: pushed });

    let series: Vec<Baseline> = (0..40)
        .map(|i| entry(820_454_400 + 3_600 * i, 1.0 + i as f64 / 64.0))
        .collect();
    let history: HistoryReply = proto::history_reply(&series, "bench_04", "");
    assert_eq!(history.points.len(), 40);
    assert_wire_golden("wire-history-reply.xdr", &history);

    let diff = proto::diff_reply(&[entry(820_454_400, 1.0), entry(820_458_000, 3.0)]);
    assert!(diff.found && diff.regressions > 0, "{}", diff.text);
    assert_wire_golden("wire-diff-reply.xdr", &diff);

    let table = proto::table_reply(Some(&entry(820_454_400, 1.0).with_run(suite_run())));
    assert_wire_golden("wire-table-reply.xdr", &table);

    let rows = ["push", "diff", "history", "table", "stats"]
        .iter()
        .zip(1u64..)
        .map(|(name, n)| ProcedureStats {
            procedure: (*name).into(),
            calls: 1_000 * n,
            errors: n % 2,
            bytes_in: 26_000 * n,
        })
        .collect();
    let stats: StatsReply = proto::stats_reply(
        rows,
        StoreStats {
            hosts: 8,
            runs: 1_024,
            segments: 12,
            sealed_batches: 128,
            compactions: 24,
            replayed_runs: 1_000,
        },
    );
    assert_wire_golden("wire-stats-reply.xdr", &stats);
}
