//! Hardware-counter observability drills.
//!
//! Two worlds exist and both must work: hosts where `perf_event_open`
//! succeeds (every record carries a counter delta and derived IPC/miss
//! columns) and hosts where it is denied or unsupported (the suite runs
//! exactly as before, flagging the loss with ONE `counters_unavailable`
//! trace event per run). The suite-level tests here accept whichever world
//! they wake up in but pin the invariants of that world; the
//! kernel-validation tests self-skip when the PMU is absent.

use lmbench::core::{Engine, Registry, SuiteConfig};
use lmbench::mem::bw::{bcopy_unrolled, CopyBuffers};
use lmbench::mem::lat::{ChasePattern, ChaseRing};
use lmbench::timing::{estimate_clock, open_perf, use_result};
use lmbench::trace::{parse_jsonl, EventKind, MemorySink, Trace};
use std::process::Command;

/// A per-test artifact path under the system temp dir (pid-qualified so
/// parallel test binaries never collide).
fn artifact(tag: &str, ext: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "lmbench-counters-{tag}-{}.{ext}",
        std::process::id()
    ))
}

/// Runs the real binary and returns (exit_ok, stdout, stderr).
fn run_cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lmbench"))
        .args(args)
        .output()
        .expect("spawn lmbench");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn suite_counters_flow_end_to_end_or_degrade_with_one_event() {
    let trace = artifact("suite", "jsonl");
    let report_path = artifact("suite", "json");
    let (ok, _stdout, stderr) = run_cli(&[
        "suite",
        "--only",
        "sys_info,lat_syscall",
        "--trace",
        trace.to_str().unwrap(),
        "--report-json",
        report_path.to_str().unwrap(),
    ]);
    assert!(ok, "suite exited nonzero:\n{stderr}");

    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    let report_text = std::fs::read_to_string(&report_path).expect("report written");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&report_path);

    let events = parse_jsonl(&trace_text).expect("trace valid with counter kinds");
    let deltas = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Counters { .. }))
        .count();
    let unavailable = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CountersUnavailable { .. }))
        .count();

    let report = lmbench::results::RunReport::from_json(&report_text).expect("report parses");
    let ran: Vec<_> = report
        .records
        .iter()
        .filter(|r| matches!(r.status, lmbench::results::BenchStatus::Ok))
        .collect();
    assert!(!ran.is_empty(), "no benchmark completed");

    if deltas == 0 {
        // Degraded world: exactly one loss report for the whole run,
        // and the archived report is byte-for-byte free of counter keys —
        // a counter-denied host writes the same JSON it wrote before the
        // feature existed.
        assert_eq!(
            unavailable, 1,
            "want exactly one counters_unavailable event, got {unavailable}"
        );
        assert!(
            !report_text.contains("\"counters\""),
            "degraded report must omit the counters key:\n{report_text}"
        );
        assert!(
            report.records.iter().all(|r| r.counters.is_none()),
            "degraded records must carry no counter delta"
        );
    } else {
        // Counting world: no loss report, and every completed record
        // carries a delta plus the derived IPC column.
        assert_eq!(unavailable, 0, "counters worked yet loss was reported");
        for record in &ran {
            let delta = record
                .counters
                .as_ref()
                .unwrap_or_else(|| panic!("{} ran without a counter delta", record.name));
            assert!(delta.cycles > 0, "{}: zero cycles", record.name);
            assert!(
                record.metrics.iter().any(|m| m.label == "ipc"),
                "{}: no derived ipc metric",
                record.name
            );
        }
    }
}

#[test]
fn every_run_reports_its_own_counter_loss() {
    // Availability belongs to the run, not the process: a second run in
    // the same process reports a denied host again, into its own trace.
    let denied = usize::from(open_perf().is_err());
    for run in 0..2 {
        let sink = MemorySink::shared();
        let trace = Trace::new(vec![Box::new(sink.clone())]);
        let ctx = trace.enter();
        let registry = Registry::standard()
            .filtered(&["sys_info", "lat_syscall"])
            .expect("known benchmarks");
        Engine::new(registry, SuiteConfig::quick())
            .expect("quick config is valid")
            .execute();
        drop(ctx);
        let unavailable = sink
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CountersUnavailable { .. }))
            .count();
        assert_eq!(unavailable, denied, "run {run}");
    }
}

#[test]
fn virtual_runs_never_open_counters() {
    // A virtual run discards counter deltas, so it must not open the
    // counters either: its trace is the same on a PMU host and off one.
    let trace = artifact("sim", "jsonl");
    let (ok, _, stderr) = run_cli(&[
        "suite",
        "--sim-seed",
        "5",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "suite exited nonzero:\n{stderr}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let _ = std::fs::remove_file(&trace);
    assert!(
        !text.contains("\"kind\":\"counters"),
        "virtual trace carries a counter kind:\n{text}"
    );
}

#[test]
fn trace_validate_accepts_counter_kinds_and_rejects_unknown_kinds() {
    // A degraded-or-not suite trace contains at least one of the new
    // kinds (`counters` or `counters_unavailable`); trace-validate must
    // accept it.
    let trace = artifact("validate", "jsonl");
    let (ok, _, stderr) = run_cli(&[
        "suite",
        "--only",
        "lat_syscall",
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "suite exited nonzero:\n{stderr}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(
        text.contains("\"kind\":\"counters\",") || text.contains("counters_unavailable"),
        "trace carries neither counter kind:\n{text}"
    );
    let (ok, stdout, stderr) = run_cli(&["trace-validate", trace.to_str().unwrap()]);
    assert!(ok, "valid trace rejected:\n{stderr}");
    assert!(stdout.contains("events"), "no summary line:\n{stdout}");

    // One event from the future must fail closed (exit 1), not parse as
    // "probably fine".
    let mut tainted = text;
    tainted.push_str("{\"seq\":999999,\"t_us\":1.0,\"span\":null,\"kind\":\"quantum_flux\"}\n");
    std::fs::write(&trace, &tainted).expect("write tainted trace");
    let out = Command::new(env!("CARGO_BIN_EXE_lmbench"))
        .args(["trace-validate", trace.to_str().unwrap()])
        .output()
        .expect("spawn lmbench");
    let _ = std::fs::remove_file(&trace);
    assert_eq!(
        out.status.code(),
        Some(1),
        "unknown kind must exit 1:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Opens the counter group, or skips the calling test on PMU-less hosts
/// (VMs with `perf_event_paranoid` too high or no PMU virtualized).
macro_rules! counters_or_skip {
    ($test:literal) => {
        match open_perf() {
            Ok(c) => c,
            Err(e) => {
                eprintln!("skipping {}: {e}", $test);
                return;
            }
        }
    };
}

#[test]
fn counters_see_one_load_per_pointer_chase_iteration() {
    let mut counters = counters_or_skip!("pointer-chase validation");
    // A 4 KiB ring is L1-resident: the chase is one dependent load per
    // hop plus amortized loop bookkeeping, so instructions per load must
    // land near 1, far below 4.
    let ring = ChaseRing::build(4096, 64, ChasePattern::Stride);
    const LOADS: usize = 1_000_000;
    let (end, delta) = counters.bracket(|| ring.walk(LOADS));
    use_result(end);
    let delta = delta.expect("bracket closed");
    let per_load = delta.instructions as f64 / LOADS as f64;
    assert!(
        (0.9..4.0).contains(&per_load),
        "expected ~1-2 instructions per dependent load, got {per_load:.2} \
         ({} instructions / {LOADS} loads)",
        delta.instructions
    );
}

#[test]
fn counters_see_expected_instructions_per_copied_word() {
    let mut counters = counters_or_skip!("bcopy validation");
    // The unrolled copy moves 8-byte words in blocks of 8: a load and a
    // store per word plus bounds/loop overhead. Far below the ~10+ an
    // un-unrolled byte copy would need, far above 0.
    let mut bufs = CopyBuffers::new(256 * 1024);
    let words = bufs.bytes() / 8;
    const ROUNDS: usize = 64;
    let (_, delta) = counters.bracket(|| {
        for _ in 0..ROUNDS {
            bcopy_unrolled(&mut bufs);
        }
    });
    let delta = delta.expect("bracket closed");
    let per_word = delta.instructions as f64 / (words * ROUNDS) as f64;
    assert!(
        (0.5..10.0).contains(&per_word),
        "expected a few instructions per copied word, got {per_word:.2}"
    );
}

#[test]
fn cycle_counter_agrees_with_the_chase_derived_clock_estimate() {
    let mut counters = counters_or_skip!("clock cross-check");
    // Spin for a wall-clock interval long enough to swamp bracket
    // overhead; cycles / elapsed gives the clock the PMU saw, which must
    // agree with lmb-timing's §6.1-style chase-derived estimate.
    let (elapsed, delta) = counters.bracket(|| {
        let start = std::time::Instant::now();
        let mut x = 1u64;
        while start.elapsed() < std::time::Duration::from_millis(50) {
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
        }
        use_result(x);
        start.elapsed()
    });
    let delta = delta.expect("bracket closed");
    let pmu_mhz = delta.cycles as f64 * 1000.0 / elapsed.as_nanos() as f64;
    let est = estimate_clock(3);
    let ratio = pmu_mhz / est.mhz;
    assert!(
        (0.6..1.67).contains(&ratio),
        "PMU says {pmu_mhz:.0} MHz, chase estimate says {:.0} MHz",
        est.mhz
    );
}
