//! Schema-version compatibility: the checked-in v1 fixtures (written
//! before `schema_version` existed) must keep loading, report themselves
//! as version 1, and keep their version across a round trip — the
//! tolerance contract every store reader relies on.

use lmbench::results::{
    dataset, load_entry, Baseline, ReportDiff, RunReport, SimProvenance, SuiteRun, SCHEMA_VERSION,
};
use lmbench::trace::{parse_jsonl, EventKind, TraceEvent};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts `rendered` matches the checked-in golden byte for byte. The
/// goldens pin the wire format: any change to how a report, baseline or
/// trace line serializes shows up here as a diff, not as a silent drift
/// in archived artifacts.
fn assert_golden(name: &str, rendered: &str) {
    let golden = fixture(&format!("golden/{name}"));
    assert!(
        rendered == golden,
        "{name}: serialized bytes drifted from the golden\n--- golden\n{golden}\n--- rendered\n{rendered}"
    );
}

#[test]
fn fixture_reports_rerender_to_their_goldens() {
    for name in [
        "v1-runreport.json",
        "v2-runreport.json",
        "v2-ratesweep.json",
    ] {
        let report = RunReport::from_json(&fixture(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_golden(name, &report.to_json());
    }
    let baseline = Baseline::from_json(&fixture("v1-baseline.json")).expect("v1 baseline parses");
    assert_golden("v1-baseline.json", &baseline.to_json());

    let diff = ReportDiff::between(
        &RunReport::from_json(&fixture("v1-runreport.json")).unwrap(),
        &RunReport::from_json(&fixture("v2-runreport.json")).unwrap(),
    );
    assert_golden("diff-v1-v2.json", &diff.to_json());
}

/// A table payload with one row of every paper table, from the paper's
/// own dataset.
fn full_suite_run() -> SuiteRun {
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

#[test]
fn baseline_with_run_payload_renders_to_its_golden() {
    let report = RunReport::from_json(&fixture("v2-runreport.json")).expect("v2 report parses");
    let mut baseline = Baseline::now("fleet-host-00ab54cd12ef3401", "Paper Fleet Box", report)
        .with_run(full_suite_run());
    baseline.unix_seconds = 820_454_400;
    let json = baseline.to_json();
    assert_golden("baseline-with-run.json", &json);
    assert_eq!(Baseline::from_json(&json).expect("round trip"), baseline);
}

#[test]
fn every_trace_kind_renders_to_its_golden_line() {
    let events: Vec<TraceEvent> = EventKind::samples()
        .into_iter()
        .enumerate()
        .map(|(i, kind)| TraceEvent {
            seq: i as u64,
            t_us: 12.25 * i as f64,
            span: if i % 3 == 0 { None } else { Some(i as u64 + 1) },
            kind,
        })
        .collect();
    let text: String = events
        .iter()
        .map(|e| serde_json::to_string(e).expect("render") + "\n")
        .collect();
    assert_golden("trace-all-kinds.jsonl", &text);
    assert_eq!(parse_jsonl(&text).expect("golden parses"), events);
}

#[test]
fn null_scaling_and_rate_sweeps_read_as_empty() {
    // Explicit nulls (hand-edited or foreign-tool artifacts) are as
    // tolerable as absent keys.
    let report = RunReport::from_json(r#"{"records": [], "scaling": null, "rate_sweeps": null}"#)
        .expect("nulls tolerated");
    assert!(report.scaling.is_empty());
    assert!(report.rate_sweeps.is_empty());
    assert_eq!(report.schema_version, 1, "absent version reads as v1");
    assert!(
        !report.to_json().contains("rate_sweeps"),
        "an empty sweep list is omitted on the way back out"
    );
}

#[test]
fn v1_run_report_loads_and_keeps_its_version() {
    let text = fixture("v1-runreport.json");
    assert!(
        !text.contains("schema_version"),
        "fixture must predate versioning"
    );
    let report = RunReport::from_json(&text).expect("v1 report parses");
    assert_eq!(report.schema_version, 1, "missing field reads as v1");
    assert_eq!(report.records.len(), 1);
    let rec = report.find("lat_syscall").expect("fixture benchmark");
    assert!(rec.status.is_ok());
    assert_eq!(rec.metrics[0].value, 4.2);

    // Round trip: the version is preserved, not silently upgraded.
    let back = RunReport::from_json(&report.to_json()).expect("round trip");
    assert_eq!(back.schema_version, 1);
    assert_eq!(back.records, report.records);
}

#[test]
fn v1_baseline_envelope_loads_and_keeps_its_version() {
    let text = fixture("v1-baseline.json");
    let baseline = Baseline::from_json(&text).expect("v1 baseline parses");
    assert_eq!(baseline.schema_version, 1);
    assert_eq!(baseline.fingerprint, "fleet-host-00ab54cd12ef3401");
    assert_eq!(baseline.unix_seconds, 820454400);
    assert!(
        baseline.run.is_none(),
        "v1 envelopes carry no table payload"
    );
    assert_eq!(baseline.report.schema_version, 1);

    let back = Baseline::from_json(&baseline.to_json()).expect("round trip");
    assert_eq!(back.schema_version, 1);
    assert_eq!(back.report, baseline.report);
}

#[test]
fn v2_report_tolerates_records_with_and_without_counters() {
    // The counters field arrived mid-v2: reports archived by
    // counter-denied hosts (or before the field existed) simply lack the
    // key. Both shapes coexist in one fixture and both must survive a
    // round trip without the absent key being invented.
    let text = fixture("v2-runreport.json");
    let report = RunReport::from_json(&text).expect("v2 report parses");
    assert_eq!(report.schema_version, 2);

    let plain = report.find("lat_syscall").expect("counter-less record");
    assert!(plain.counters.is_none(), "missing key must read as None");

    let counted = report.find("bw_mem").expect("counted record");
    let delta = counted.counters.as_ref().expect("counters key must load");
    assert_eq!(delta.cycles, 2_400_000);
    assert_eq!(delta.instructions, 3_600_000);
    assert_eq!(delta.ipc(), Some(1.5));
    assert!(!delta.multiplexed());

    let rendered = report.to_json();
    let back = RunReport::from_json(&rendered).expect("round trip");
    assert_eq!(back.records, report.records);
    assert_eq!(
        rendered.matches("\"counters\"").count(),
        1,
        "round trip must neither drop the present key nor invent the absent one"
    );
}

#[test]
fn reports_predating_rate_sweeps_load_and_stay_sweepless() {
    // Open-loop rate sweeps arrived mid-v2: every report archived before
    // them lacks the key, must read back as empty, and must not have the
    // key invented by a round trip.
    for name in ["v1-runreport.json", "v2-runreport.json"] {
        let text = fixture(name);
        assert!(
            !text.contains("rate_sweeps"),
            "{name} must predate open-loop sweeps"
        );
        let report = RunReport::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            report.rate_sweeps.is_empty(),
            "{name}: missing key reads empty"
        );
        assert!(
            !report.to_json().contains("rate_sweeps"),
            "{name}: round trip invented the absent key"
        );
    }
}

#[test]
fn rate_sweep_reports_load_and_round_trip() {
    let text = fixture("v2-ratesweep.json");
    let report = RunReport::from_json(&text).expect("sweep report parses");
    assert_eq!(report.rate_sweeps.len(), 2);
    let open = &report.rate_sweeps[0];
    assert_eq!(
        (open.bench.as_str(), open.mode.as_str()),
        ("lat_pipe", "open")
    );
    assert_eq!(open.knee, Some(1));
    assert_eq!(open.points[1].late, 37);
    assert!(
        open.points[1].saturated(&open.points[0]),
        "the archived knee point still judges as saturated"
    );
    let gap_metric = &report.find("load_lat_pipe").expect("load record").metrics[0];
    assert_eq!(gap_metric.unit, "x");

    let back = RunReport::from_json(&report.to_json()).expect("round trip");
    assert_eq!(back.rate_sweeps, report.rate_sweeps);
    assert_eq!(back.records, report.records);
}

#[test]
fn reports_predating_sim_provenance_load_and_stay_simless() {
    // The `sim` block arrived with whole-engine virtual time: every
    // report archived before it (the v1 and v2 fixtures alike) lacks the
    // key, must read back as `None`, and must not have the key invented
    // by a round trip.
    for name in ["v1-runreport.json", "v2-runreport.json"] {
        let text = fixture(name);
        assert!(
            !text.contains("\"sim\""),
            "{name} must predate sim provenance"
        );
        let report = RunReport::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.sim.is_none(), "{name}: missing key must read None");
        let rendered = report.to_json();
        assert!(
            !rendered.contains("\"sim\""),
            "{name}: round trip invented the absent key"
        );
        let back = RunReport::from_json(&rendered).expect("round trip");
        assert_eq!(back.records, report.records);
    }

    // A virtual run's report carries the block and keeps it intact.
    let stamped = RunReport {
        sim: Some(SimProvenance {
            seed: 7,
            resolution_ns: 100.0,
            read_overhead_ns: 15.0,
            read_jitter_ns: 5.0,
        }),
        ..RunReport::default()
    };
    let back = RunReport::from_json(&stamped.to_json()).expect("stamped round trip");
    assert_eq!(back.sim, stamped.sim);
}

#[test]
fn load_entry_wraps_a_bare_v1_report_at_current_version() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-runreport.json");
    let entry = load_entry(&path).expect("bare report loads as an entry");
    // The synthesized envelope is new (current version); the payload
    // keeps the version it was written with.
    assert_eq!(entry.schema_version, SCHEMA_VERSION);
    assert_eq!(entry.report.schema_version, 1);
    assert!(entry.fingerprint.is_empty(), "no identity in a bare report");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1-baseline.json");
    let entry = load_entry(&path).expect("envelope loads as itself");
    assert_eq!(entry.schema_version, 1);
    assert_eq!(entry.fingerprint, "fleet-host-00ab54cd12ef3401");
}

#[test]
fn freshly_written_artifacts_carry_the_current_version() {
    let report = RunReport::default();
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    assert!(report.to_json().contains("\"schema_version\": 2"));
    let baseline = Baseline::now("fp", "host", report);
    assert_eq!(baseline.schema_version, SCHEMA_VERSION);
}

/// A whole virtual-time suite, run by the released CLI in its own process
/// (so no other test's trace sink or metrics flag can touch its report),
/// must reproduce its golden byte for byte. Seed 1 carries a retried
/// record and both the pool and exclusive phases; seed 7 is the CI seed.
#[test]
fn sim_suite_reports_match_their_goldens() {
    for seed in [1, 7] {
        let path = std::env::temp_dir().join(format!(
            "lmbench-suite-sim-{seed}-{}.json",
            std::process::id()
        ));
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_lmbench"))
            .args(["suite", "--sim-seed", &seed.to_string(), "--report-json"])
            .arg(&path)
            .output()
            .expect("spawn lmbench");
        assert!(out.status.success(), "seed {seed}: {out:?}");
        let rendered = std::fs::read_to_string(&path).expect("report written");
        let _ = std::fs::remove_file(&path);
        assert_golden(&format!("suite-sim-{seed}.json"), &rendered);
    }
}
