//! The `lmbench` command-line tool.
//!
//! Mirrors the original suite's usage: individual benchmarks are runnable
//! by name (the `bw_*`/`lat_*` binaries of the C distribution), and the
//! whole suite runs through the fault-isolated execution engine.
//!
//! ```sh
//! lmbench list                       # every benchmark and what it produces
//! lmbench run lat_syscall            # one benchmark, quick settings
//! lmbench suite [--paper] [--only a,b]  # engine run -> JSON on stdout,
//!                                       # run report on stderr
//! lmbench scale bw_mem [--max-p 8]   # load-scaling sweep: P = 1, 2, 4, ...
//!                                    # generators, curve table (or --json)
//! lmbench load lat_pipe              # open- vs closed-loop rate sweep up to
//!                                    # the knee; the p99 gap between the two
//!                                    # is the coordinated omission the closed
//!                                    # loop hides
//! lmbench report [--paper]           # suite + all 17 tables + provenance
//! lmbench trace-validate trace.jsonl [--report run.json]
//!                                    # parse + seq-order + span checks (and
//!                                    # every report span id resolves), exit
//!                                    # 0 if valid
//! lmbench diff base.json new.json    # noise-aware regression table, exit 1
//!                                    # on significant regressions
//! ```
//!
//! The `suite` and `report` commands share the observability flags:
//! `--trace PATH` streams the run's event stream as JSONL, `--progress`
//! narrates it live on stderr, `--report-json PATH` archives the machine-
//! readable run report, and `--quiet`/`--verbose` set the stderr detail
//! (quiet wins). All stderr narration is a rendering of the same trace
//! events the JSONL artifact records.
//!
//! `suite` additionally takes `--baseline save` (archive this run's report
//! under `.lmbench/baselines/`, keyed by a host fingerprint) and
//! `--baseline check` (diff this run against the newest archived baseline
//! for this host; exit 1 on significant regressions). `LMBENCH_BASELINE_DIR`
//! overrides the store location.
//!
//! Exit codes: 0 success (including suites with failed benchmarks — see
//! the stderr report), 1 invalid trace artifact or significant regression
//! from `diff`/`--baseline check`, 2 usage, 3 invalid configuration or
//! unreadable input, 4 unknown benchmark.

use lmbench::core::service::{install_shutdown_handler, SegmentStore};
use lmbench::core::{
    detect_host, find_scale_spec, load_sim_rig, report, scale_registry, scenario_config,
    sim_provenance, Engine, EngineOutcome, FaultPlan, LoadGen, LoadMode, LoadRunner, LoadSpec,
    Registry, ReportClient, ResultsService, Scenario, ServiceConfig, SimServerGen, Substrate,
    SuiteConfig, SuiteError, Verbosity,
};
use lmbench::results::{
    fingerprint, load_entry, render_side_by_side, Baseline, ReportDiff, ReportStore, ResultsDb,
    RunReport,
};
use lmbench::timing::{ArrivalProcess, Clock, Harness};
use lmbench::trace::{
    check_seq_order, check_span_refs, check_spans, span_summaries, ContextGuard, Detail, JsonlSink,
    Progress, Sink, Trace,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: lmbench <list|run NAME|suite|scale BENCH|load BENCH|report|env|trace-validate PATH\n\
         \x20               |diff BASE NEW|serve|report push FILE|query diff|history|table|stats>\n\
         trace-validate:     PATH [--report RUN.json] (the report's span ids must start in PATH)\n\
         env:                clock + hardware-counter + baseline diagnosis for this host\n\
         suite/report flags: [--paper] [--only A,B] [--trace PATH] [--report-json PATH]\n\
         \x20                [--progress] [--quiet] [--verbose]\n\
         suite only:         [--baseline save|check] [--sim-seed N]\n\
         scale:              BENCH (bw_mem|bw_pipe|bw_tcp|lat_pipe|lat_unix|lat_tcp) or `all`,\n\
         \x20                [--max-p N] [--json] plus the shared suite/report flags\n\
         load:               BENCH (same set) or `all`, or --sim-seed N for a scripted server;\n\
         \x20                [--open|--closed] [--rate OPS_PER_S] [--poisson] [--json]\n\
         \x20                plus the shared suite/report flags\n\
         diff flags:         [--json]\n\
         serve:              [--dir PATH] [--trace PATH] [--batch N] [--compact N]\n\
         report push:        FILE --to HOST:PORT [--fingerprint FP] [--host-name NAME]\n\
         \x20                [--at SECONDS]\n\
         query:              diff|table --to HOST:PORT [--fingerprint FP] [--json],\n\
         \x20                history BENCH [METRIC] --to HOST:PORT [--fingerprint FP],\n\
         \x20                stats --to HOST:PORT [--json]"
    );
    ExitCode::from(2)
}

fn fail(err: &SuiteError) -> ExitCode {
    eprintln!("lmbench: {err}");
    ExitCode::from(err.exit_code())
}

/// The scalable benchmarks a `scale` or `load` target names: all of them
/// for `all`, else the one by that name.
fn load_specs(name: &str) -> Result<Vec<LoadSpec>, SuiteError> {
    if name == "all" {
        return Ok(scale_registry());
    }
    find_scale_spec(name)
        .map(|spec| vec![spec])
        .ok_or_else(|| SuiteError::UnknownBenchmark {
            name: name.to_string(),
        })
}

fn config_from_args(args: &[String]) -> SuiteConfig {
    let mut config = if args.iter().any(|a| a == "--paper") {
        SuiteConfig::paper()
    } else {
        SuiteConfig::quick()
    };
    // Fault-drill hook: lets tests shrink the per-benchmark budget without
    // a dedicated flag.
    if let Some(ms) = std::env::var("LMBENCH_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        config = config.with_timeout(Duration::from_millis(ms));
    }
    config
}

/// The registry, restricted by `--only a,b,c` when present; without it,
/// the default suite (no ablations).
fn registry_from_args(args: &[String]) -> Result<Registry, SuiteError> {
    let registry = Registry::standard();
    let Some(pos) = args.iter().position(|a| a == "--only") else {
        return Ok(registry.without_ablations());
    };
    let names: Vec<&str> = args
        .get(pos + 1)
        .map(|list| list.split(',').filter(|n| !n.is_empty()).collect())
        .unwrap_or_default();
    if names.is_empty() {
        return Err(SuiteError::InvalidConfig {
            what: "--only given without any benchmark names",
        });
    }
    registry.filtered(&names)
}

/// The value of a flag that takes a positive integer, or `default` when
/// the flag is absent; a value that is not one is a usage error (exit 2)
/// naming the flag.
fn positive_flag<T: std::str::FromStr + Default + PartialOrd>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, ExitCode> {
    let Some(value) = flag_value(args, flag) else {
        return Ok(default);
    };
    match value.parse::<T>() {
        Ok(n) if n > T::default() => Ok(n),
        _ => {
            eprintln!("lmbench: {flag} needs a positive integer, got {value}");
            Err(ExitCode::from(2))
        }
    }
}

/// The value following a `--flag`, when present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|pos| args.get(pos + 1))
        .map(String::as_str)
}

/// The observability surface of `suite` and `report`: the run's trace,
/// over the sinks the flags asked for, entered on this thread for the
/// duration of the engine run.
struct Observer {
    verbosity: Verbosity,
    progress: bool,
    report_json: Option<String>,
    traced: Option<ContextGuard>,
}

impl Observer {
    /// Parses the shared flags, builds the run's trace when any sink is
    /// asked for, and enters it. `None` after reporting an unopenable
    /// `--trace` path.
    fn start(args: &[String]) -> Option<Observer> {
        let verbosity = Verbosity::from_flags(
            args.iter().any(|a| a == "--quiet"),
            args.iter().any(|a| a == "--verbose"),
        );
        let mut sinks = jsonl_sinks(args)?;
        let wants_progress = args.iter().any(|a| a == "--progress");
        let progress = match (verbosity, wants_progress) {
            (Verbosity::Quiet, _) => None,
            (Verbosity::Verbose, _) => Some(Detail::Verbose),
            (Verbosity::Normal, true) => Some(Detail::Normal),
            (Verbosity::Normal, false) => None,
        };
        if let Some(detail) = progress {
            sinks.push(Box::new(Progress::new(std::io::stderr(), detail)));
        }
        Some(Observer {
            verbosity,
            progress: progress.is_some(),
            report_json: flag_value(args, "--report-json").map(String::from),
            traced: enter(sinks),
        })
    }

    /// Leaves the trace, which flushes its sinks, then writes the
    /// `--report-json` artifact.
    fn finish(self, report: &RunReport) {
        drop(self.traced);
        if let Some(path) = &self.report_json {
            if let Err(e) = std::fs::write(path, report.to_json()) {
                eprintln!("lmbench: cannot write run report {path}: {e}");
            }
        }
    }
}

/// The `--trace PATH` JSONL sink, if asked for; `None` after reporting an
/// unopenable path.
fn jsonl_sinks(args: &[String]) -> Option<Vec<Box<dyn Sink>>> {
    let Some(path) = flag_value(args, "--trace") else {
        return Some(Vec::new());
    };
    match JsonlSink::create(Path::new(path)) {
        Ok(sink) => Some(vec![Box::new(sink)]),
        Err(e) => {
            eprintln!("lmbench: cannot create trace file {path}: {e}");
            None
        }
    }
}

/// A trace over `sinks`, entered on the calling thread until the guard
/// drops; `None` (the run stays untraced) when there are no sinks.
fn enter(sinks: Vec<Box<dyn Sink>>) -> Option<ContextGuard> {
    (!sinks.is_empty()).then(|| Trace::new(sinks).enter())
}

/// Loads a run report from a `--report-json` artifact or a saved baseline
/// file (either shape is accepted, so archived baselines diff directly).
/// Both shapes route through the unified store loader.
fn load_report(path: &str) -> Result<RunReport, String> {
    load_entry(Path::new(path))
        .map(|entry| entry.report)
        .map_err(|e| format!("{path}: {e}"))
}

/// `lmbench diff BASE NEW [--json]`: the noise-aware regression table.
fn diff_reports(args: &[String]) -> ExitCode {
    let paths: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let [base_path, new_path] = paths.as_slice() else {
        eprintln!("lmbench diff: need exactly two report paths");
        return usage();
    };
    let (base, new) = match (
        load_report(base_path.as_str()),
        load_report(new_path.as_str()),
    ) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("lmbench: {e}");
            return ExitCode::from(3);
        }
    };
    let diff = ReportDiff::between(&base, &new);
    if args.iter().any(|a| a == "--json") {
        println!("{}", diff.to_json());
    } else {
        print!("{}", diff.render());
    }
    if diff.has_regressions() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `lmbench load BENCH|all [--open|--closed] [--rate R] [--poisson]
/// [--sim-seed N] [--json]`: open- vs closed-loop throughput–latency
/// sweeps for one load generator, rendered side by side so the
/// coordinated-omission gap is a visible number. By default the offered
/// rate is swept up a ladder of fractions of the probed peak until the
/// knee; `--rate` measures one offered rate instead. `--sim-seed N`
/// replaces the real generator with a scripted virtual server on a
/// seeded [`SimClock`], making the whole sweep — arrivals, queueing,
/// knee, report bytes — a deterministic function of N (the CI
/// `load-sweep` job `cmp`s exactly that).
fn load_command(args: &[String]) -> ExitCode {
    let sim_seed = match flag_value(args, "--sim-seed") {
        Some(value) => match value.parse::<u64>() {
            Ok(seed) => Some(seed),
            Err(_) => {
                eprintln!("lmbench: --sim-seed needs an unsigned integer, got {value}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let pos = positionals(args);
    let target = pos.get(1).copied();
    if target.is_none() && sim_seed.is_none() {
        eprintln!(
            "lmbench load: missing benchmark name (try `lmbench load all` or `--sim-seed N`)"
        );
        return usage();
    }
    let modes: Vec<LoadMode> = match (
        args.iter().any(|a| a == "--open"),
        args.iter().any(|a| a == "--closed"),
    ) {
        (true, false) => vec![LoadMode::Open],
        (false, true) => vec![LoadMode::Closed],
        // Both flags (or neither) mean both modes: the gap between them
        // is the point of the command.
        _ => vec![LoadMode::Open, LoadMode::Closed],
    };
    let rate = match flag_value(args, "--rate") {
        Some(value) => match value.parse::<f64>() {
            Ok(r) if r.is_finite() && r > 0.0 => Some(r),
            _ => {
                eprintln!("lmbench: --rate needs a positive ops/s value, got {value}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let config = config_from_args(args);
    let mut runner = match LoadRunner::new(config) {
        Ok(r) => r,
        Err(err) => return fail(&err),
    };
    // One (name, produces, requirements, builder) per target; the sim path
    // scripts a seeded virtual server and shares its clock with the runner
    // so the report's wall times are deterministic too.
    type Make = Box<dyn Fn() -> Result<Box<dyn LoadGen>, String>>;
    let mut targets: Vec<(&str, &str, &[Substrate], Make)> = Vec::new();
    let mut provenance = None;
    if let Some(seed) = sim_seed {
        let (sim, model) = load_sim_rig(seed);
        let clock = Clock::Sim(sim.clone());
        provenance = sim_provenance(&clock);
        runner = runner.with_clock(clock).with_ops(256);
        targets.push((
            "sim_server",
            "virtual service latency under offered load",
            &[],
            Box::new(move || Ok(Box::new(SimServerGen::new(&sim, model)) as Box<dyn LoadGen>)),
        ));
    } else {
        let specs = match load_specs(target.unwrap_or_default()) {
            Ok(specs) => specs,
            Err(err) => return fail(&err),
        };
        for spec in specs {
            targets.push((
                spec.name,
                spec.produces,
                spec.requires,
                Box::new(move || (spec.make)(&config)),
            ));
        }
    }
    if args.iter().any(|a| a == "--poisson") {
        // The rate inside the process is a placeholder the sweep replaces
        // per point; only the shape and seed matter here.
        runner = runner.with_process(ArrivalProcess::poisson(1.0, sim_seed.unwrap_or(42)));
    }
    let Some(observer) = Observer::start(args) else {
        return ExitCode::from(3);
    };
    let mut report = RunReport {
        sim: provenance,
        ..RunReport::default()
    };
    for &(bench, produces, requires, ref make) in &targets {
        match rate {
            // A pinned rate: one point per mode, no peak probe, no record.
            Some(r) => {
                for &mode in &modes {
                    report
                        .rate_sweeps
                        .push(runner.sweep(bench, make, mode, &[r]));
                }
            }
            None => {
                let (sweeps, record) = runner.run_target(bench, produces, requires, make, &modes);
                report.records.push(record);
                report.rate_sweeps.extend(sweeps);
            }
        }
    }
    if observer.verbosity > Verbosity::Quiet && !report.records.is_empty() {
        eprint!("{}", report.render());
    }
    observer.finish(&report);
    if args.iter().any(|a| a == "--json") {
        println!("{}", report.to_json());
    } else {
        for &(bench, ..) in &targets {
            let sweep_in = |mode: &str| {
                report
                    .rate_sweeps
                    .iter()
                    .find(|s| s.bench == bench && s.mode == mode)
            };
            match (sweep_in("open"), sweep_in("closed")) {
                (Some(open), Some(closed)) => print!("{}", render_side_by_side(open, closed)),
                (Some(only), None) | (None, Some(only)) => print!("{}", only.render()),
                (None, None) => {}
            }
        }
    }
    ExitCode::SUCCESS
}

/// Positional (non-flag) arguments, skipping the values of flags that
/// take one.
fn positionals(args: &[String]) -> Vec<&str> {
    const VALUE_FLAGS: &[&str] = &[
        "--to",
        "--fingerprint",
        "--host-name",
        "--at",
        "--dir",
        "--batch",
        "--compact",
        "--trace",
        "--report-json",
        "--only",
        "--max-p",
        "--rate",
        "--baseline",
        "--sim-seed",
    ];
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if VALUE_FLAGS.contains(&args[i].as_str()) {
            i += 2;
        } else if args[i].starts_with("--") {
            i += 1;
        } else {
            out.push(args[i].as_str());
            i += 1;
        }
    }
    out
}

/// `lmbench serve`: the fleet results daemon. Listens until SIGINT or
/// SIGTERM, then seals pending segments and exits cleanly.
fn serve_daemon(args: &[String]) -> ExitCode {
    let mut config = ServiceConfig::default();
    if let Some(dir) = flag_value(args, "--dir") {
        config.data_dir = dir.into();
    }
    let batch = positive_flag(args, "--batch", config.batch_size);
    let compact = positive_flag(args, "--compact", config.compact_threshold);
    match (batch, compact) {
        (Ok(b), Ok(c)) => (config.batch_size, config.compact_threshold) = (b, c),
        (Err(code), _) | (_, Err(code)) => return code,
    }
    // The daemon's audit log: every ingest, query, compaction and store
    // warning as trace JSONL.
    let Some(sinks) = jsonl_sinks(args) else {
        return ExitCode::from(3);
    };
    let traced = enter(sinks);
    let shutdown = match install_shutdown_handler() {
        Ok(flag) => flag,
        Err(e) => {
            eprintln!("lmbench: {e}");
            return ExitCode::from(3);
        }
    };
    let service = match ResultsService::start(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("lmbench: cannot start results service: {e}");
            return ExitCode::from(3);
        }
    };
    // The port line is the contract with scripts (and the E2E tests):
    // printed first, flushed immediately.
    println!("listening on 127.0.0.1:{}", service.tcp_port());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    // One snapshot every ~5 s of the 50 ms poll loop; a final one is
    // emitted by `shutdown()` so short-lived daemons still leave one.
    const SNAPSHOT_EVERY: u32 = 100;
    let mut ticks = 0u32;
    while !shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
        ticks += 1;
        if ticks.is_multiple_of(SNAPSHOT_EVERY) {
            service.emit_metrics_snapshot();
        }
    }
    eprintln!("lmbench: results service shutting down");
    let code = match service.shutdown() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lmbench: cannot flush results store: {e}");
            ExitCode::from(3)
        }
    };
    // The trace's last handle goes with the guard, flushing the log.
    drop(traced);
    code
}

/// `lmbench report push FILE --to HOST:PORT`: send a run report (or a
/// saved baseline) into a results daemon's shard for this host.
fn report_push(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let [_report, _push, file] = pos.as_slice() else {
        eprintln!("lmbench report push: need exactly one report file");
        return usage();
    };
    let Some(addr) = flag_value(args, "--to") else {
        eprintln!("lmbench report push: missing --to HOST:PORT");
        return usage();
    };
    let mut entry = match load_entry(Path::new(file)) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("lmbench: {file}: {e}");
            return ExitCode::from(3);
        }
    };
    if let Some(fp) = flag_value(args, "--fingerprint") {
        entry.fingerprint = fp.into();
    }
    if let Some(name) = flag_value(args, "--host-name") {
        entry.host = name.into();
    }
    if let Some(at) = flag_value(args, "--at").and_then(|v| v.parse().ok()) {
        entry.unix_seconds = at;
    }
    // Plain run reports carry no identity; default to this host's.
    if entry.fingerprint.is_empty() {
        let (fp, host) = host_fingerprint();
        entry.fingerprint = fp;
        if entry.host.is_empty() {
            entry.host = host;
        }
    }
    let mut client = ReportClient::new(addr);
    match client.push(entry) {
        Ok(reply) => {
            println!("pushed to {} as run {}", reply.fingerprint, reply.shard_seq);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lmbench: cannot push to {addr}: {e}");
            ExitCode::from(3)
        }
    }
}

/// `lmbench query diff|history|table --to HOST:PORT`: interrogate a
/// results daemon. `diff` exits 1 when the daemon flags significant
/// regressions, mirroring `lmbench diff`.
fn query_daemon(args: &[String]) -> ExitCode {
    let pos = positionals(args);
    let Some(&procedure) = pos.get(1) else {
        eprintln!("lmbench query: missing procedure (diff|history|table|stats)");
        return usage();
    };
    let Some(addr) = flag_value(args, "--to") else {
        eprintln!("lmbench query: missing --to HOST:PORT");
        return usage();
    };
    let fp = flag_value(args, "--fingerprint")
        .map(String::from)
        .unwrap_or_else(|| host_fingerprint().0);
    let mut client = ReportClient::new(addr);
    match procedure {
        "diff" => match client.diff(&fp) {
            Ok(reply) if !reply.found => {
                eprintln!(
                    "lmbench: fewer than two runs stored for {fp} ({} so far)",
                    reply.runs
                );
                ExitCode::from(3)
            }
            Ok(reply) => {
                if args.iter().any(|a| a == "--json") {
                    println!("{}", reply.json);
                } else {
                    print!("{}", reply.text);
                }
                if reply.regressions > 0 {
                    ExitCode::FAILURE
                } else {
                    ExitCode::SUCCESS
                }
            }
            Err(e) => {
                eprintln!("lmbench: cannot query {addr}: {e}");
                ExitCode::from(3)
            }
        },
        "history" => {
            let Some(&bench) = pos.get(2) else {
                eprintln!("lmbench query history: missing benchmark name");
                return usage();
            };
            let metric = pos.get(3).copied().unwrap_or("");
            match client.history(&fp, bench, metric) {
                Ok(reply) if !reply.found => {
                    eprintln!("lmbench: no runs stored for {fp}");
                    ExitCode::from(3)
                }
                Ok(reply) if reply.points.is_empty() => {
                    eprintln!("lmbench: no {bench} points labelled {metric:?} stored for {fp}");
                    ExitCode::from(3)
                }
                Ok(reply) => {
                    for p in &reply.points {
                        println!(
                            "{:>12} {:>6} {:>14} {}",
                            p.unix_seconds, p.shard_seq, p.value, p.unit
                        );
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("lmbench: cannot query {addr}: {e}");
                    ExitCode::from(3)
                }
            }
        }
        "table" => match client.table(&fp) {
            Ok(reply) if !reply.found => {
                eprintln!("lmbench: no runs stored for {fp}");
                ExitCode::from(3)
            }
            Ok(reply) => {
                print!("{}", reply.text);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lmbench: cannot query {addr}: {e}");
                ExitCode::from(3)
            }
        },
        "stats" => match client.stats() {
            Ok(reply) => {
                if args.iter().any(|a| a == "--json") {
                    println!("{}", reply.to_json());
                } else {
                    print!("{}", reply.render());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lmbench: cannot query {addr}: {e}");
                ExitCode::from(3)
            }
        },
        other => {
            eprintln!("lmbench query: unknown procedure `{other}` (diff|history|table|stats)");
            usage()
        }
    }
}

/// Where baselines live, honouring the `LMBENCH_BASELINE_DIR` override.
fn baseline_dir() -> PathBuf {
    match std::env::var("LMBENCH_BASELINE_DIR") {
        Ok(dir) if !dir.is_empty() => dir.into(),
        _ => PathBuf::from(".lmbench").join("baselines"),
    }
}

/// This host's baseline identity: the strings that must match for two
/// runs to be comparable.
fn host_fingerprint() -> (String, String) {
    let host = detect_host();
    let fp = fingerprint(&[&host.vendor_model, &host.name, &host.cpu, &host.os]);
    (fp, host.vendor_model)
}

/// The `lmbench env` doctor: answers "what will a measurement on this
/// host actually see" — clock quality, hardware-counter access, and
/// where baselines land — before any benchmark runs.
fn env_doctor() -> ExitCode {
    let host = detect_host();
    let (fp, _) = host_fingerprint();
    println!("=== Host ===");
    println!("  name          {}", host.name);
    println!("  machine       {}", host.vendor_model);
    println!("  cpu           {} ({} MHz)", host.cpu, host.mhz);
    println!("  os            {}", host.os);
    println!("  fingerprint   {fp}");

    println!("=== Clock ===");
    let clock = lmbench::timing::ClockInfo::probe(&Clock::Real);
    println!("  resolution    {:.1} ns", clock.resolution_ns);
    println!("  read overhead {:.1} ns", clock.overhead_ns);
    let est = lmbench::timing::estimate_clock(3);
    println!(
        "  cycle est.    {:.0} MHz ({:.3} ns/cycle)",
        est.mhz, est.cycle_ns
    );

    println!("=== Hardware counters ===");
    match lmbench::sys::perf_event_paranoid() {
        Some(level) => println!("  perf_event_paranoid {level}"),
        None => println!("  perf_event_paranoid unreadable"),
    }
    for kind in lmbench::sys::CounterKind::ALL {
        match lmbench::sys::probe_counter(kind) {
            Ok(()) => println!("  {:<14} ok", kind.label()),
            Err(e) => println!("  {:<14} unavailable ({})", kind.label(), e.reason()),
        }
    }
    match lmbench::timing::open_perf() {
        Ok(counters) => {
            let o = counters.overhead();
            println!(
                "  group         ok (bracket overhead: {} cycles, {} instructions)",
                o.cycles, o.instructions
            );
        }
        Err(e) => println!("  group         unavailable: {e}"),
    }

    println!("=== Results ===");
    println!("  baseline dir  {}", baseline_dir().display());
    println!("  schema        v{}", lmbench::results::SCHEMA_VERSION);
    ExitCode::SUCCESS
}

/// Applies `--baseline save|check` after a suite run; returns the exit
/// code (only `check` with significant regressions is nonzero).
fn baseline_action(mode: &str, outcome: &EngineOutcome) -> ExitCode {
    if !matches!(mode, "save" | "check") {
        eprintln!("lmbench suite: --baseline takes save|check, got `{mode}`");
        return ExitCode::from(2);
    }
    // The results daemon's store, with its batching and compaction.
    let defaults = ServiceConfig::default();
    let dir = baseline_dir();
    let mut store = match SegmentStore::open(&dir, defaults.batch_size, defaults.compact_threshold)
    {
        Ok(store) => store,
        Err(e) => {
            eprintln!("lmbench: cannot open baseline store {}: {e}", dir.display());
            return ExitCode::from(3);
        }
    };
    let (fp, host) = host_fingerprint();
    if mode == "save" {
        let baseline = Baseline::now(&fp, &host, outcome.report.clone());
        return match store.append(baseline).and_then(|_| store.flush_all()) {
            Ok(()) => {
                eprintln!("lmbench: baseline saved to {}", dir.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("lmbench: cannot save baseline: {e}");
                ExitCode::from(3)
            }
        };
    }
    match store.latest(&fp) {
        Ok(Some(baseline)) => {
            let diff = ReportDiff::between(&baseline.report, &outcome.report);
            eprint!("{}", diff.render());
            if diff.has_regressions() {
                eprintln!("lmbench: significant regressions vs baseline");
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Ok(None) => {
            eprintln!(
                "lmbench: no baseline for this host in {} (run `suite --baseline save` first)",
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lmbench: cannot read baseline store: {e}");
            ExitCode::from(3)
        }
    }
}

/// Validates a JSONL trace artifact, and with `report` that every span id
/// the run report names starts in it; prints a one-line summary on success.
fn trace_validate(path: &str, report: Option<&str>) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("lmbench: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match report.map(load_report).transpose() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lmbench: {e}");
            return ExitCode::from(3);
        }
    };
    match lmbench::trace::parse_jsonl(&text).and_then(|events| {
        check_seq_order(&events)?;
        check_spans(&events)?;
        if let Some(report) = &report {
            let refs = report
                .records
                .iter()
                .filter_map(|r| Some((r.name.as_str(), r.span?)));
            check_span_refs(&events, refs)?;
        }
        Ok(events)
    }) {
        Ok(events) => {
            let spans = span_summaries(&events);
            let complete = spans.iter().filter(|s| s.complete).count();
            println!(
                "{path}: {} events, {} spans ({complete} complete)",
                events.len(),
                spans.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("lmbench: {path}: invalid trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        return usage();
    };
    // One fault plan for every command that runs benchmarks (`suite`,
    // `report`, `scale`), read from the environment once.
    let faults = FaultPlan::from_env();
    match command {
        "list" => {
            let registry = Registry::standard();
            println!(
                "{:<16} {:<22} {:<10} exclusive",
                "name", "produces", "category"
            );
            for b in registry.all() {
                println!(
                    "{:<16} {:<22} {:<10} {}",
                    b.name,
                    b.produces,
                    format!("{:?}", b.category),
                    if b.exclusive { "yes" } else { "" }
                );
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let Some(name) = args.get(1) else {
                eprintln!("lmbench run: missing benchmark name (try `lmbench list`)");
                return usage();
            };
            let registry = Registry::standard();
            let Some(bench) = registry.find(name) else {
                return fail(&SuiteError::UnknownBenchmark { name: name.clone() });
            };
            let config = config_from_args(&args);
            if let Err(err) = config.validate() {
                return fail(&err);
            }
            let h = Harness::new(config.options);
            println!("{}: {}", bench.name, bench.run_line(&h, &config));
            ExitCode::SUCCESS
        }
        "suite" => {
            // `--sim-seed N` swaps the whole run onto virtual time: a
            // seeded scripted scenario replaces the registry, the engine
            // clock becomes the scenario's SimClock, and the run is a
            // deterministic function of N — two invocations with the same
            // seed produce byte-identical `--report-json` artifacts (the
            // CI determinism gate `cmp`s exactly that).
            let (registry, config, clock) = match flag_value(&args, "--sim-seed") {
                Some(value) => {
                    let Ok(seed) = value.parse::<u64>() else {
                        eprintln!("lmbench: --sim-seed needs an unsigned integer, got {value}");
                        return ExitCode::from(2);
                    };
                    let scenario = Scenario::from_seed(seed);
                    let sim = scenario.clock();
                    (scenario.registry(&sim), scenario_config(), Clock::Sim(sim))
                }
                None => {
                    let registry = match registry_from_args(&args) {
                        Ok(r) => r,
                        Err(err) => return fail(&err),
                    };
                    (registry, config_from_args(&args), Clock::Real)
                }
            };
            let engine = match Engine::new(registry, config) {
                Ok(e) => e,
                Err(err) => return fail(&err),
            };
            let engine = engine.with_clock(clock);
            let Some(observer) = Observer::start(&args) else {
                return ExitCode::from(3);
            };
            let outcome = engine.with_faults(faults).execute();
            // Per-benchmark outcomes to stderr; a failed benchmark costs
            // its own rows, not the run (exit stays 0 so harnesses can
            // collect the partial results).
            if observer.verbosity > Verbosity::Quiet {
                eprint!("{}", outcome.report.render());
            }
            observer.finish(&outcome.report);
            let name = outcome
                .run
                .system
                .as_ref()
                .map(|s| s.name.clone())
                .unwrap_or_else(|| "host".into());
            let mut db = ResultsDb::new();
            db.insert(name, outcome.run.clone());
            println!("{}", db.to_json());
            match flag_value(&args, "--baseline") {
                Some(mode) => baseline_action(mode, &outcome),
                None => ExitCode::SUCCESS,
            }
        }
        "scale" => {
            let Some(target) = args.get(1).filter(|a| !a.starts_with("--")) else {
                eprintln!("lmbench scale: missing benchmark name (try `lmbench scale all`)");
                return usage();
            };
            let max_p = match positive_flag(&args, "--max-p", 4u32) {
                Ok(p) => p,
                Err(code) => return code,
            };
            let specs = match load_specs(target) {
                Ok(specs) => specs,
                Err(err) => return fail(&err),
            };
            let config = config_from_args(&args);
            let runner = match LoadRunner::new(config) {
                Ok(r) => r,
                Err(err) => return fail(&err),
            }
            .with_max_p(max_p)
            .with_faults(faults);
            let Some(observer) = Observer::start(&args) else {
                return ExitCode::from(3);
            };
            let mut report = RunReport::default();
            for spec in &specs {
                let (curve, record) = runner.scale(spec);
                report.records.push(record);
                // Skipped sweeps produce an empty curve; keep only
                // measured ones so consumers need not re-filter.
                if !curve.points.is_empty() {
                    report.scaling.push(curve);
                }
            }
            // Statuses to stderr (like `suite`): a failed sweep costs its
            // own rows, not the run.
            if observer.verbosity > Verbosity::Quiet {
                eprint!("{}", report.render());
            }
            observer.finish(&report);
            if args.iter().any(|a| a == "--json") {
                println!("{}", report.to_json());
            } else {
                for curve in &report.scaling {
                    print!("{}", curve.render());
                }
            }
            ExitCode::SUCCESS
        }
        "load" => load_command(&args),
        "serve" => serve_daemon(&args),
        "query" => query_daemon(&args),
        "report" if args.get(1).is_some_and(|a| a == "push") => report_push(&args),
        "report" => {
            let config = config_from_args(&args);
            let engine = match Engine::new(Registry::standard().without_ablations(), config) {
                Ok(e) => e,
                Err(err) => return fail(&err),
            };
            let Some(observer) = Observer::start(&args) else {
                return ExitCode::from(3);
            };
            // The old hard-coded "running full suite..." stderr line is now
            // the reporter's suite_start rendering — same stream as --trace.
            if observer.verbosity == Verbosity::Normal && !observer.progress {
                eprintln!("running full suite...");
            }
            let outcome = engine.with_faults(faults).execute();
            observer.finish(&outcome.report);
            println!("{}", report::full_report(Some(&outcome.run)));
            println!("{}", report::provenance_section(&outcome.report));
            let counters = report::counters_section(&outcome.report);
            if !counters.is_empty() {
                println!("{counters}");
            }
            println!("=== This host vs the paper's 1995 fleet ===");
            for cmp in report::comparisons(&outcome.run) {
                println!("{}", cmp.summary());
            }
            ExitCode::SUCCESS
        }
        "trace-validate" => {
            let Some(path) = args.get(1) else {
                eprintln!("lmbench trace-validate: missing trace path");
                return usage();
            };
            let report = flag_value(&args, "--report");
            if report.is_none() && args.iter().any(|a| a == "--report") {
                eprintln!("lmbench trace-validate: --report needs a report path");
                return usage();
            }
            trace_validate(path, report)
        }
        "env" => env_doctor(),
        "diff" => diff_reports(&args),
        _ => usage(),
    }
}
