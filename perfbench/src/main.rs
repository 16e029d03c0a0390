//! lmbench-rs's own benchmark: one command, four workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced one.
//! The end-to-end metrics are process CPU time scaled to an uncontended
//! core (`cpu.rs`); wall-clock figures are printed beside them.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_quick|sim_fuzz|serve_ingest|serve_query \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. All files
//! are written under `.perfbench/` in the working directory.

mod cpu;
mod fuzz;
mod gen;
mod layers;
mod openloop;
mod serve;
mod stats;
mod suite;
mod trace;

use stats::{median, sorted};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// One named number, printed with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub count: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, count: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            count,
        }
    }
}

/// What one measuring pass of a workload produced.
#[derive(Debug, Default)]
pub struct Pass {
    pub attempted: u64,
    pub failed: u64,
    /// Latency of each unit of work (a suite, a fuzz seed, a push, a
    /// query), ms.
    pub op_ms: Vec<f64>,
    /// Process CPU time of each measured piece: one suite, one fuzz seed,
    /// or one request of an unpaced serve step.
    pub cpu: Vec<cpu::Work>,
    /// Workload-specific end-to-end figures (printed, not in the JSON).
    pub named: Vec<Metric>,
    /// Per-layer figures this pass observed.
    pub layers: Vec<Metric>,
}

const WORKLOADS: [&str; 4] = ["suite_quick", "sim_fuzz", "serve_ingest", "serve_query"];

/// Set-up repetitions per run, `setup_s` being their median: at least
/// `SETUPS.0`, more while the set-ups so far took under a second of wall
/// time (cheap set-ups vary most), at most `SETUPS.1`.
const SETUPS: (usize, usize) = (5, 25);

/// Reference calls that measure the host's slowdown after each set-up.
const SETUP_REFERENCE_CALLS: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let num = |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("{k}: {e}")) };
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        },
    })
}

/// A workload's set-up product.
enum State {
    Suite(lmb_core::Engine),
    Fuzz(Vec<fuzz::Case>),
    Serve(serve::Serve),
}

fn setup(workload: &str, seed: u64, root: &Path) -> Result<State, String> {
    Ok(match workload {
        "suite_quick" => State::Suite(suite::setup()?),
        "sim_fuzz" => State::Fuzz(fuzz::setup(seed)?),
        "serve_ingest" => State::Serve(serve::setup_ingest(seed, root)?),
        _ => State::Serve(serve::setup_query(seed, root)?),
    })
}

/// One measuring pass. `full` sweeps the serve workloads' ladder for the
/// max rate; the trace comparison passes run only the reporting rate.
fn measure(state: &mut State, seconds: f64, full: bool, tracer: &mut Tracer) -> Pass {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    match state {
        State::Suite(engine) => suite::measure(engine, deadline, tracer),
        State::Fuzz(cases) => fuzz::measure(cases, deadline, tracer),
        State::Serve(s) if full => serve::measure(s, seconds, tracer),
        State::Serve(s) => serve::measure_reporting(s, seconds, tracer),
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn print_metric(m: &Metric) {
    println!(
        "{:<38} {:>14.4} {:<6} n={}",
        m.name, m.value, m.unit, m.count
    );
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {:?}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}

/// For each workload: what one op is, what the printed wall-clock p50 is
/// called in the workload notes, and the name of units per second at that
/// p50 where that is a throughput (the serve workloads print max rates).
fn aliases(workload: &str) -> (&'static str, &'static str, Option<&'static str>) {
    match workload {
        "suite_quick" => (
            "one suite (threads only, not forked children)",
            "suite_s x 1000",
            Some("suites/s at the median"),
        ),
        "sim_fuzz" => (
            "one fuzz seed's checks",
            "per fuzz seed",
            Some("fuzz_seeds_per_s"),
        ),
        "serve_ingest" => (
            "one push of an unpaced step, client and daemon",
            "push_p50_ms",
            None,
        ),
        _ => (
            "one request of an unpaced step, client and daemon",
            "query_p50_ms",
            None,
        ),
    }
}

fn run(args: &Args, root: &Path) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut setup_cpu = Vec::new();
    let mut setup_wall = Vec::new();
    let mut state = None;
    let started = Instant::now();
    while setup_cpu.len() < SETUPS.0
        || (setup_cpu.len() < SETUPS.1 && started.elapsed() < Duration::from_secs(1))
    {
        drop(state.take());
        let (made, work) = cpu::Work::measure(1, SETUP_REFERENCE_CALLS, || {
            let t = Instant::now();
            let made = setup(&args.workload, args.seed, root);
            setup_wall.push(t.elapsed().as_secs_f64());
            made
        });
        setup_cpu.push(work.scaled_s());
        state = Some(made?);
    }
    let mut state = state.expect("at least one set-up ran");
    let setup_s = median(&sorted(&setup_cpu)).expect("set-up ran");
    let seconds = args.seconds as f64;

    if !args.trace {
        let pass = measure(&mut state, seconds, true, &mut Tracer::new(false));
        let ops = sorted(&pass.op_ms);
        let p50 = median(&ops).ok_or("no operation completed")?;
        let n = ops.len();
        let (rank, tail) = stats::tail(&ops).ok_or("too few operations for a tail percentile")?;
        let per_op_ms: Vec<f64> = pass.cpu.iter().map(cpu::Work::ms_per_unit).collect();
        let cpu_ms = median(&sorted(&per_op_ms)).ok_or("no CPU time measured")?;
        let cpu_total: f64 = pass.cpu.iter().map(cpu::Work::scaled_s).sum();
        let units: usize = pass.cpu.iter().map(|w| w.units).sum();
        let med = |f: fn(&cpu::Work) -> f64| {
            median(&sorted(&pass.cpu.iter().map(f).collect::<Vec<_>>())).unwrap_or(f64::NAN)
        };
        let raw_ms = med(|w| w.cpu_s * 1e3 / w.units as f64);
        let slowdown = med(|w| w.slowdown);
        let (unit, p50_alias, rate_alias) = aliases(&args.workload);
        let metrics = vec![
            Metric::new("setup_s", setup_s, "s", setup_cpu.len()),
            Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1),
            Metric::new("cpu_ms_per_op", cpu_ms, "ms", pass.cpu.len()),
            Metric::new("ops_per_cpu_s", units as f64 / cpu_total, "1/s", units),
        ];
        println!("end-to-end ({}):", args.workload);
        metrics.iter().for_each(print_metric);
        println!(
            "  (an op is {unit}; CPU time is the process's, scaled to an uncontended core; \
             setup_s is the median over n set-ups)"
        );
        let fail_frac = pass.failed as f64 / pass.attempted.max(1) as f64;
        let printed = [
            Metric::new(
                "setup_wall_s",
                median(&sorted(&setup_wall)).expect("set-up ran"),
                "s",
                setup_wall.len(),
            ),
            Metric::new("cpu_ms_per_op (unscaled)", raw_ms, "ms", pass.cpu.len()),
            Metric::new("host_slowdown", slowdown, "x", pass.cpu.len()),
            Metric::new(format!("p50_ms (wall, {p50_alias})"), p50, "ms", n),
            Metric::new(format!("tail_ms (wall, p{rank})"), tail, "ms", n),
            Metric::new("fail_frac", fail_frac, "ratio", pass.attempted as usize),
        ];
        let throughput =
            rate_alias.map(|a| Metric::new(format!("throughput (wall, {a})"), 1e3 / p50, "1/s", n));
        printed
            .iter()
            .chain(&throughput)
            .chain(&pass.named)
            .for_each(print_metric);
        return Ok((pass.failed == 0, pass.attempted, pass.failed, metrics));
    }

    // Traced run: an untraced and a traced pass of the same length, then
    // the layer battery. Only the per-layer numbers come from here.
    let half = seconds / 2.0;
    let plain = measure(&mut state, half, false, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    let traced = measure(&mut state, half, false, &mut tracer);
    let mut layers: BTreeMap<String, Metric> = BTreeMap::new();
    let battery = layers::battery(args.seed, root, &mut tracer)?;
    let suite_layers = match &state {
        State::Suite(_) => Vec::new(),
        // Other workloads run one real quick suite for the engine rows.
        _ => {
            let engine = suite::setup()?;
            let t = tracer.span("battery.suite", |_| engine.execute());
            suite::layer_metrics(&[t.report])
        }
    };
    for m in battery
        .into_iter()
        .chain(suite_layers)
        .chain(traced.layers.iter().cloned())
    {
        layers.insert(m.name.clone(), m);
    }
    let p50 = |p: &Pass| median(&sorted(&p.op_ms)).unwrap_or(f64::NAN);
    let overhead = p50(&traced) / p50(&plain) - 1.0;
    layers.insert(
        "trace.overhead_frac".into(),
        Metric::new("trace.overhead_frac", overhead, "ratio", traced.op_ms.len()),
    );
    let spans = tracer.spans();
    println!(
        "{} spans; self time by name (traced pass and battery):",
        spans.len()
    );
    for (name, ms) in trace::self_ms_by_name(spans) {
        println!("  {name:<30} {ms:>12.3} ms");
    }
    let trace_dir = root.parent().unwrap_or(root).join("traces");
    std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
    let trace_path = trace_dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&trace_path).map_err(|e| e.to_string())?;
    println!("spans written to {}", trace_path.display());
    println!("per-layer ({}, traced):", args.workload);
    layers.values().for_each(print_metric);
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    Ok((
        failed == 0,
        attempted,
        failed,
        layers.into_values().collect(),
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Everything the run writes — the kernels' scratch files included —
    // stays under the working directory.
    let base = match std::env::current_dir() {
        Ok(d) => d.join(".perfbench"),
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(1);
        }
    };
    let root: PathBuf = base.join(format!("run-{}", std::process::id()));
    let tmp = root.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(1);
    }
    std::env::set_var("TMPDIR", &tmp);
    let result = run(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    match result {
        Ok((correct, attempted, failed, metrics)) => {
            let bad: Vec<&str> = metrics
                .iter()
                .filter(|m| !m.value.is_finite())
                .map(|m| m.name.as_str())
                .collect();
            if !bad.is_empty() {
                eprintln!("perfbench: metrics without a finite value: {bad:?}");
                return ExitCode::from(1);
            }
            println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
