//! Load-scaling integration drills: the `scale` subsystem end to end.
//!
//! Covers the acceptance contract: curves with at least three P-points
//! for a memory, a pipe, a Unix-socket and a TCP benchmark, each point
//! quality-graded; P = 1 agreeing with the plain benchmark's number
//! within a generous noise band; aggregate-throughput sanity under load;
//! fault isolation (a panicking generator fails only its point); JSON
//! round-tripping through [`RunReport`]; trace visibility; and the
//! noise-aware differ gating on latency-under-load regressions.

use lmbench::core::{find_scale_spec, FaultPlan, LoadRunner, LoadSpec, SimServerGen, SuiteConfig};
use lmbench::results::{
    BenchRecord, BenchStatus, MetricValue, Provenance, ReportDiff, RunReport, ScalingCurve,
};
use lmbench::timing::{CostModel, Harness, Quality, SimClock};
use lmbench::trace::{EventKind, MemorySink, Trace};
use std::path::Path;
use std::process::Command;

fn runner(max_p: u32) -> LoadRunner {
    LoadRunner::new(SuiteConfig::quick())
        .expect("quick config is valid")
        .with_max_p(max_p)
}

fn sweep(name: &str, max_p: u32) -> (ScalingCurve, BenchRecord) {
    let spec = find_scale_spec(name).expect(name);
    runner(max_p).scale(&spec)
}

#[test]
fn acceptance_four_transports_three_points_each_all_graded() {
    // One mem, one pipe, one Unix-socket and one TCP benchmark, ≥ 3
    // P-points each, every point quality-graded.
    for name in ["bw_mem", "lat_pipe", "lat_unix", "lat_tcp"] {
        let (curve, record) = sweep(name, 4);
        assert_eq!(record.status, BenchStatus::Ok, "{name}: {record:?}");
        assert!(
            curve.points.len() >= 3,
            "{name}: {} points",
            curve.points.len()
        );
        for pt in &curve.points {
            assert!(pt.is_ok(), "{name} P={}: {:?}", pt.p, pt.error);
            assert!(pt.throughput > 0.0, "{name} P={}", pt.p);
            assert!(
                pt.p50_us > 0.0 && pt.p99_us >= pt.p50_us,
                "{name} P={}",
                pt.p
            );
            assert!(
                Quality::from_label(&pt.quality).is_some(),
                "{name} P={}: ungraded `{}`",
                pt.p,
                pt.quality
            );
            assert_eq!(pt.generators.len(), pt.p as usize, "{name} P={}", pt.p);
        }
        // The P=1 point is the efficiency reference.
        let eff = curve.points[0]
            .efficiency
            .unwrap_or_else(|| panic!("{name}: P=1 efficiency unjudged"));
        assert!((eff - 1.0).abs() < 1e-9, "{name}");
    }
}

#[test]
fn p1_point_agrees_with_the_plain_benchmark() {
    // A single generator is the plain benchmark under the same harness;
    // the two must land within a generous noise band (scheduler noise and
    // separate buffer allocations make a tight band flaky by design).
    let config = SuiteConfig::quick();
    let (curve, _) = sweep("bw_mem", 1);
    let p1 = curve.baseline().expect("P=1 measured").throughput;
    let plain =
        lmbench::mem::bw::measure_bcopy_unrolled(&Harness::new(config.options), config.copy_bytes)
            .mb_per_s;
    assert!(p1 > 0.0 && plain > 0.0);
    let ratio = p1 / plain;
    assert!(
        (1.0 / 3.0..3.0).contains(&ratio),
        "P=1 {p1} MB/s vs plain {plain} MB/s (ratio {ratio})"
    );
}

#[test]
fn aggregate_memory_throughput_does_not_collapse_under_load() {
    // More copiers must not crater aggregate throughput: every measured
    // point stays above half the P=1 rate (real scaling keeps it at or
    // above 1x; 0.5x allows a saturated memory bus plus noise).
    let (curve, _) = sweep("bw_mem", 4);
    let base = curve.baseline().expect("P=1 measured").throughput;
    for pt in curve.ok_points() {
        assert!(
            pt.throughput >= 0.5 * base,
            "P={} aggregate {} MB/s collapsed below half of P=1 ({} MB/s)",
            pt.p,
            pt.throughput,
            base
        );
    }
}

#[test]
fn panicking_generator_fails_only_its_point() {
    let spec = find_scale_spec("bw_mem").unwrap();
    let (curve, record) = runner(4)
        .with_faults(FaultPlan {
            scale_panic_at: Some(("bw_mem".into(), 2)),
            ..FaultPlan::default()
        })
        .scale(&spec);
    let failed: Vec<u32> = curve
        .points
        .iter()
        .filter(|pt| !pt.is_ok())
        .map(|pt| pt.p)
        .collect();
    assert_eq!(failed, vec![2], "exactly the sabotaged point fails");
    let p2 = curve.points.iter().find(|pt| pt.p == 2).unwrap();
    assert!(
        p2.error.as_deref().unwrap().contains("injected fault"),
        "{:?}",
        p2.error
    );
    // The sweep as a whole still produced usable points.
    assert_eq!(record.status, BenchStatus::Ok);
    assert!(curve.baseline().is_some(), "P=1 survived");
    assert!(curve.points.iter().any(|pt| pt.p == 4 && pt.is_ok()));
}

#[test]
fn setup_failure_is_isolated_the_same_way() {
    // A spec whose generators can never be built: every point fails, the
    // record says so, and nothing deadlocks on the start barrier.
    let spec = LoadSpec {
        name: "no_dev",
        produces: "nothing",
        unit: "ops/s",
        requires: &[],
        bytes_per_op: |_| 0,
        ops_per_rep: |_| 1,
        make: |_| Err("device withheld".into()),
    };
    let (curve, record) = runner(2).scale(&spec);
    assert!(curve.points.iter().all(|pt| !pt.is_ok()));
    assert!(matches!(record.status, BenchStatus::Failed(_)));
}

#[test]
fn curves_roundtrip_through_runreport_json() {
    let (curve, record) = sweep("lat_pipe", 2);
    let report = RunReport {
        records: vec![record],
        scaling: vec![curve],
        ..Default::default()
    };
    let back = RunReport::from_json(&report.to_json()).expect("roundtrip");
    assert_eq!(back, report);
    assert_eq!(back.scaling[0].bench, "lat_pipe");
    assert_eq!(back.scaling[0].unit, "ops/s");
    // Pre-scale artifacts (no `scaling` field) still load.
    let legacy = r#"{"records": []}"#;
    let old = RunReport::from_json(legacy).expect("legacy report");
    assert!(old.scaling.is_empty());
}

#[test]
fn sweep_narrates_itself_into_the_trace() {
    let sink = MemorySink::shared();
    let trace = Trace::new(vec![Box::new(sink.clone())]);
    let ctx = trace.enter();
    let (curve, record) = sweep("bw_mem", 2);
    drop(ctx);

    let events = sink.events();
    assert_eq!(record.span, Some(1), "the sweep is the trace's first span");
    let starts: Vec<_> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ScaleStart { bench, max_p } => Some((bench.clone(), *max_p)),
            _ => None,
        })
        .collect();
    assert_eq!(starts, vec![("bw_mem".to_string(), 2)]);

    let points: Vec<u32> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::ScalePoint { p, .. } => Some(*p),
            _ => None,
        })
        .collect();
    assert_eq!(points, vec![1, 2], "one scale_point event per P");

    // Every generator of every point reported in.
    let generators = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Generator { .. }))
        .count();
    let expected: usize = curve.points.iter().map(|pt| pt.p as usize).sum();
    assert_eq!(generators, expected);

    // The sweep's events sit under a scale span.
    assert!(events.iter().any(|e| matches!(
        &e.kind,
        EventKind::SpanStart { name, .. } if name == "scale:bw_mem"
    )));
}

#[test]
fn virtual_scale_sweep_renders_to_its_golden() {
    // Every generator scripts its own server on a fresh virtual clock, so
    // the curve is a function of the cost model alone: thread interleaving
    // cannot move a byte. Only the host-timed wall clock and the span id
    // (allocated when the thread has a trace) are scrubbed.
    let spec = LoadSpec {
        name: "sim_server",
        produces: "virtual service rate under P scripted servers",
        unit: "ops/s",
        requires: &[],
        bytes_per_op: |_| 0,
        ops_per_rep: |_| 64,
        make: |_| {
            Ok(Box::new(SimServerGen::new(
                &SimClock::new(7),
                CostModel::Noisy {
                    base_ns: 50_000.0,
                    spread_ns: 5_000.0,
                },
            )))
        },
    };
    let (curve, mut record) = runner(3).scale(&spec);
    record.wall_ms = 0.0;
    record.span = None;
    let report = RunReport {
        records: vec![record],
        scaling: vec![curve],
        ..Default::default()
    };
    let rendered = report.to_json();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden/scale-sim.json");
    let golden =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(
        rendered == golden,
        "scale-sim.json: the virtual sweep drifted from the golden\n--- golden\n{golden}\n--- rendered\n{rendered}"
    );
}

#[test]
fn a_clamped_generator_grades_suspect() {
    // A 1 ns op read through a 5 ns clock spans about 6 ns per repetition,
    // under the generator harness's pinned 15 ns read overhead: every
    // sample clamps to a 0.0 floor. Identical zeros have no dispersion,
    // yet they measured nothing, so the generator, its point and the
    // record's provenance all grade suspect.
    let spec = LoadSpec {
        name: "sim_clamped",
        produces: "a service too fast for its clock",
        unit: "ops/s",
        requires: &[],
        bytes_per_op: |_| 0,
        ops_per_rep: |_| 1,
        make: |_| {
            let clock = SimClock::new(3).with_read_overhead_ns(5.0);
            Ok(Box::new(SimServerGen::new(
                &clock,
                CostModel::Constant { ns: 1.0 },
            )))
        },
    };
    let (curve, record) = runner(2).scale(&spec);
    assert_eq!(curve.points.len(), 2);
    for point in &curve.points {
        assert!(point.is_ok(), "P={}: {:?}", point.p, point.error);
        assert_eq!(point.quality, "suspect", "P={}", point.p);
        assert_eq!(point.generators.len(), point.p as usize);
        for generator in &point.generators {
            assert_eq!(
                generator.quality, "suspect",
                "P={} generator {}",
                point.p, generator.index
            );
        }
    }
    let provenance = record.provenance.expect("provenance");
    assert_eq!(provenance.quality, "suspect");
    assert!(provenance.clamped_samples > 0);
}

/// Runs the CLI with `TMPDIR` pointing nowhere (on the child only) and
/// returns its exit code and the single record's status.
fn cli_without_tmpdir(args: &[&str]) -> (Option<i32>, BenchStatus) {
    let out = Command::new(env!("CARGO_BIN_EXE_lmbench"))
        .args(args)
        .env("TMPDIR", "/nonexistent/lmbench-no-tmp")
        .output()
        .expect("spawn lmbench");
    let report = RunReport::from_json(&String::from_utf8_lossy(&out.stdout)).expect("JSON report");
    assert_eq!(report.records.len(), 1, "{args:?}");
    (out.status.code(), report.records[0].status.clone())
}

#[test]
fn scale_and_load_skip_a_missing_substrate_alike() {
    let scale = cli_without_tmpdir(&["scale", "lat_unix", "--max-p", "1", "--json"]);
    let load = cli_without_tmpdir(&["load", "lat_unix", "--json"]);
    assert_eq!(scale.0, Some(0));
    assert!(
        matches!(&scale.1, BenchStatus::Skipped(r) if r.contains("temp directory")),
        "{:?}",
        scale.1
    );
    assert_eq!(load, scale, "load skips with the same reason as scale");
}

#[test]
fn malformed_max_p_is_a_usage_error() {
    for bad in ["abc", "0", "-2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_lmbench"))
            .args(["scale", "bw_mem", "--max-p", bad])
            .output()
            .expect("spawn lmbench");
        assert_eq!(out.status.code(), Some(2), "--max-p {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("--max-p needs a positive integer, got {bad}")),
            "{stderr}"
        );
    }
}

/// A hand-built record with trustworthy provenance, so the differ's
/// quality gate does not mask the comparison under test.
fn scaled_record(p50_us: f64) -> BenchRecord {
    BenchRecord {
        name: "scale_lat_pipe".into(),
        produces: "pipe round-trip rate under P process pairs".into(),
        status: BenchStatus::Ok,
        attempts: 1,
        wall_ms: 10.0,
        exclusive: true,
        provenance: Some(Provenance {
            repetitions: 11,
            warmup_runs: 2,
            calibrated_iterations: 100,
            clock_resolution_ns: 30.0,
            sample_min_ns: 9_000.0,
            sample_median_ns: 10_000.0,
            sample_p90_ns: 10_500.0,
            sample_p99_ns: 11_000.0,
            sample_max_ns: 11_000.0,
            mad_ns: 200.0,
            min_median_gap: 0.1,
            cv: 0.05,
            iqr_outliers: 0,
            quality: "good".into(),
            measure_calls: 4,
            clamped_samples: 0,
        }),
        rusage: None,
        counters: None,
        metrics: vec![
            MetricValue {
                label: "p2 tput".into(),
                value: 150_000.0,
                unit: "ops/s".into(),
            },
            MetricValue {
                label: "p2 p50".into(),
                value: p50_us,
                unit: "us".into(),
            },
        ],
        span: None,
    }
}

#[test]
fn differ_gates_on_latency_under_load_regressions() {
    let base = RunReport {
        records: vec![scaled_record(12.0)],
        ..Default::default()
    };
    // Same throughput, 10x the p50 under load: a latency-under-load
    // regression the plain headline number would never show.
    let worse = RunReport {
        records: vec![scaled_record(120.0)],
        ..Default::default()
    };
    let diff = ReportDiff::between(&base, &worse);
    assert!(diff.has_regressions(), "{}", diff.render());
    let unchanged = ReportDiff::between(&base, &base);
    assert!(!unchanged.has_regressions(), "{}", unchanged.render());
}
