//! `suite_quick`: back-to-back real quick suites over the 17 paper-table
//! registry entries. Most of the time is in the timing harness and the
//! kernels.

use crate::cpu::Work;
use crate::gen::PAPER_BENCHES;
use crate::stats::{median, sorted};
use crate::trace::Tracer;
use crate::{Metric, Pass};
use lmb_core::registry::Registry;
use lmb_core::{Engine, SuiteConfig};
use lmb_results::RunReport;
use std::time::Instant;

/// Records whose wall time is reported per layer: the paper's slowest
/// and most mode-prone kernels.
const WATCHED: [&str; 6] = [
    "lat_mem_rd",
    "lat_tcp_rpc",
    "lat_udp_rpc",
    "lat_ctx",
    "bw_pipe_tcp",
    "lat_proc",
];

/// Builds the engine and runs one warm-up suite, so lazy set-up (thread
/// pools, page faults, first-touch buffers) is paid before timing.
pub fn setup() -> Result<Engine, String> {
    let registry = Registry::standard()
        .filtered(&PAPER_BENCHES)
        .map_err(|e| e.to_string())?;
    let engine = Engine::new(registry, SuiteConfig::quick()).map_err(|e| e.to_string())?;
    lmb_core::detect_host();
    let warm = engine.execute();
    if warm.report.records.len() != PAPER_BENCHES.len() {
        return Err("warm-up suite ran the wrong registry".into());
    }
    Ok(engine)
}

/// Runs suites until `deadline` (at least one).
pub fn measure(engine: &Engine, deadline: Instant, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut reports = Vec::new();
    loop {
        let t = Instant::now();
        let (outcome, work) =
            Work::measure(1, 16, || tracer.span("engine.suite", |_| engine.execute()));
        pass.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        pass.cpu.push(work);
        let report = outcome.report;
        pass.attempted += report.records.len() as u64;
        pass.failed += report.records.iter().filter(|r| !r.status.is_ok()).count() as u64;
        if report.records.len() != PAPER_BENCHES.len() {
            pass.failed += 1;
        }
        reports.push(report);
        if Instant::now() >= deadline {
            break;
        }
    }
    pass.layers = layer_metrics(&reports);
    pass
}

/// The engine's own budget and the watched kernels' wall times, as
/// medians over `reports`; plus the timing harness's quality guards.
pub fn layer_metrics(reports: &[RunReport]) -> Vec<Metric> {
    let n = reports.len();
    let med = |values: Vec<f64>| median(&sorted(&values)).unwrap_or(0.0);
    let harness = |f: fn(&lmb_results::runreport::HarnessMetrics) -> f64| {
        med(reports
            .iter()
            .filter_map(|r| r.harness.as_ref().map(f))
            .collect())
    };
    let mut out = vec![
        Metric::new("engine.warmup_ms", harness(|h| h.warmup_ms), "ms", n),
        Metric::new("engine.calibrate_ms", harness(|h| h.calibrate_ms), "ms", n),
        Metric::new("engine.attempt_ms", harness(|h| h.attempt_ms), "ms", n),
        Metric::new("engine.probe_ms", harness(|h| h.probe_ms), "ms", n),
    ];
    for name in WATCHED {
        let wall: Vec<f64> = reports
            .iter()
            .filter_map(|r| r.find(name).map(|b| b.wall_ms))
            .collect();
        let count = wall.len();
        out.push(Metric::new(
            format!("engine.bench_ms.{name}"),
            med(wall),
            "ms",
            count,
        ));
    }
    let graded: Vec<&lmb_results::runreport::Provenance> = reports
        .iter()
        .flat_map(|r| r.records.iter().filter_map(|b| b.provenance.as_ref()))
        .collect();
    let good = graded.iter().filter(|p| p.quality == "good").count();
    out.push(Metric::new(
        "timing.cv_p50",
        med(graded.iter().map(|p| p.cv).collect()),
        "ratio",
        graded.len(),
    ));
    out.push(Metric::new(
        "timing.good_frac",
        good as f64 / graded.len().max(1) as f64,
        "ratio",
        graded.len(),
    ));
    out
}
