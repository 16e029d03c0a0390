//! End-to-end trace artifact tests: a CLI suite run with `--trace` and
//! `--report-json` must leave a valid JSONL flight recording whose spans
//! join back to the archived run report.

use lmbench::results::RunReport;
use lmbench::trace::{check_seq_order, check_spans, parse_jsonl, span_summaries, EventKind};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};

const BENCHES: [&str; 3] = ["sys_info", "lat_syscall", "lat_disk"];

/// A temp path unique to this call: the pid separates concurrent test
/// binaries, the counter separates concurrent tests within one.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("lmbench-capture-{}-{n}-{tag}", std::process::id()))
}

/// One CLI run shared by every assertion in this file (the suite takes
/// real wall-clock time, so run it once).
fn traced_run() -> (String, RunReport) {
    let trace = temp_path("trace.jsonl");
    let report = temp_path("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_lmbench"))
        .args(["suite", "--only", &BENCHES.join(",")])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--report-json", report.to_str().unwrap()])
        .output()
        .expect("spawn lmbench");
    assert!(
        out.status.success(),
        "suite failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The same artifacts must satisfy the bundled validator (what CI runs),
    // every record's span id resolving in the trace.
    let validate = Command::new(env!("CARGO_BIN_EXE_lmbench"))
        .args(["trace-validate", trace.to_str().unwrap()])
        .args(["--report", report.to_str().unwrap()])
        .output()
        .expect("spawn lmbench trace-validate");
    assert!(
        validate.status.success(),
        "trace-validate rejected the artifact:\n{}",
        String::from_utf8_lossy(&validate.stderr)
    );
    let summary = String::from_utf8_lossy(&validate.stdout).into_owned();
    assert!(summary.contains("events"), "no summary line: {summary}");

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let report_json = std::fs::read_to_string(&report).expect("report file written");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&report);
    let report = RunReport::from_json(&report_json).expect("report JSON parses");
    (text, report)
}

#[test]
fn trace_artifact_is_complete_and_links_to_the_run_report() {
    let (text, report) = traced_run();
    let events = parse_jsonl(&text).expect("trace is valid JSONL");
    assert!(!events.is_empty(), "empty trace");

    // Sequence numbers establish a total order: strictly monotonic as
    // written (single process, one sink).
    check_seq_order(&events).expect("seq strictly monotonic");

    // The run is bracketed by suite_start/suite_end with matching counts.
    assert!(
        events.iter().any(|e| matches!(
            e.kind,
            EventKind::SuiteStart { benchmarks, .. } if benchmarks == BENCHES.len() as u32
        )),
        "no suite_start for {} benchmarks",
        BENCHES.len()
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SuiteEnd { .. })),
        "no suite_end event"
    );
    // The final line is the suite span closing (emitted just after
    // suite_end, when the engine's root span drops).
    assert!(
        matches!(
            events.last().map(|e| &e.kind),
            Some(EventKind::SpanEnd { name, .. }) if name == "suite"
        ),
        "trace does not end with the suite span_end"
    );

    // Every executed benchmark opened and closed a span (plus the
    // enclosing suite span).
    let spans = span_summaries(&events);
    assert_eq!(spans.len(), BENCHES.len() + 1, "unexpected span count");
    check_spans(&events).expect("every span closes exactly once");
    assert!(
        spans.iter().all(|s| s.elapsed_us > 0.0),
        "a span took no time"
    );

    // The archived run report names the same spans: each record's `span`
    // id resolves to the trace's `bench:<name>` span_start.
    assert_eq!(report.records.len(), BENCHES.len());
    for record in &report.records {
        let id = record
            .span
            .unwrap_or_else(|| panic!("record {} has no span link", record.name));
        let span = spans
            .iter()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("record {} links unknown span {id}", record.name));
        assert_eq!(
            span.name,
            format!("bench:{}", record.name),
            "record/span name mismatch"
        );
    }
}

/// Runs `lmbench trace-validate` on a trace made of `lines`; returns the
/// exit code and stderr.
fn validate(tag: &str, lines: &[String]) -> (Option<i32>, String) {
    let path = temp_path(tag);
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_lmbench"))
        .args(["trace-validate", path.to_str().unwrap()])
        .output()
        .expect("spawn lmbench trace-validate");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

#[test]
fn trace_validate_rejects_out_of_order_seqs() {
    let line = |seq| format!(r#"{{"seq":{seq},"t_us":1.0,"span":null,"kind":"warmup","runs":1}}"#);
    let (code, stderr) = validate("swapped.jsonl", &[line(1), line(0)]);
    assert_eq!(code, Some(1), "swapped seqs must exit 1:\n{stderr}");
    assert!(stderr.contains("seq 0 does not follow seq 1"), "{stderr}");
}

#[test]
fn trace_validate_rejects_a_span_that_never_ends() {
    let start = r#"{"seq":0,"t_us":1.0,"span":7,"kind":"span_start","name":"suite","parent":null}"#;
    let (code, stderr) = validate("open-span.jsonl", &[start.to_string()]);
    assert_eq!(code, Some(1), "an unclosed span must exit 1:\n{stderr}");
    assert!(stderr.contains("span 7 `suite` never ends"), "{stderr}");
}

#[test]
fn trace_validate_resolves_report_span_ids() {
    let trace = temp_path("spans.jsonl");
    std::fs::write(
        &trace,
        concat!(
            r#"{"seq":0,"t_us":1.0,"span":7,"kind":"span_start","name":"bench:a","parent":null}"#,
            "\n",
            r#"{"seq":1,"t_us":2.0,"span":7,"kind":"span_end","name":"bench:a","elapsed_us":1.0}"#,
            "\n"
        ),
    )
    .unwrap();
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden/suite-sim-7.json");
    let mut report = RunReport::from_json(&std::fs::read_to_string(golden).unwrap()).unwrap();
    let run = |report: &RunReport| {
        let path = temp_path("spans-report.json");
        std::fs::write(&path, report.to_json()).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_lmbench"))
            .args(["trace-validate", trace.to_str().unwrap()])
            .args(["--report", path.to_str().unwrap()])
            .output()
            .expect("spawn lmbench trace-validate");
        let _ = std::fs::remove_file(&path);
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    // Null span ids (an untraced run) have nothing to resolve.
    assert_eq!(run(&report).0, Some(0));
    report.records[0].span = Some(7);
    let (code, stderr) = run(&report);
    assert_eq!(code, Some(0), "{stderr}");
    report.records[1].span = Some(9);
    let (code, stderr) = run(&report);
    let _ = std::fs::remove_file(&trace);
    assert_eq!(code, Some(1), "a dangling span id must exit 1:\n{stderr}");
    let name = &report.records[1].name;
    assert!(
        stderr.contains(&format!("record `{name}`: span 9 has no span_start")),
        "{stderr}"
    );
}
