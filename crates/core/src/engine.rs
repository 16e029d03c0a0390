//! The suite execution engine: one uniform, fault-isolated path for every
//! registered benchmark.
//!
//! Each attempt runs behind `catch_unwind` and a time budget, so a
//! panicking or wedged benchmark costs its own result and nothing else: the
//! engine records a [`BenchStatus`] per registry entry, applies surviving
//! [`TablePatch`]es to a partial [`SuiteRun`], and returns both alongside a
//! [`RunReport`] with full measurement provenance. On the real clock an
//! attempt gets its own `bench-<name>` thread under a wall-clock watchdog;
//! under virtual time it runs inline on the engine's thread and is judged
//! against the virtual deadline, since scripted bodies always return.
//!
//! Every benchmark is measured alone, one at a time, as the paper's
//! methodology requires (§3.4). The registry metadata orders the run:
//! ordinary entries first, then those marked `exclusive` (memory sweeps,
//! context switching), each in registry order; `derived` entries run last
//! against a snapshot of the measured results, replacing the hard-coded
//! composition the old `run_suite` performed inline.

use crate::config::SuiteConfig;
use crate::error::SuiteError;
use crate::host::host_name;
use crate::registry::{Benchmark, Registry};
use lmb_results::{
    BenchRecord, BenchStatus, CounterDelta, HarnessMetrics, MetricValue, Provenance, ResourceUsage,
    RunReport, SimProvenance, SuiteRun, TablePatch,
};
use lmb_sys::{RusageDelta, RusageSnapshot};
use lmb_timing::{
    new_recorder, open_perf, take_events, Clock, ClockInfo, CounterValues, Counters, Harness,
    HarnessBudget, Measurement, PerfCounters, Quality,
};
use lmb_trace::{emit, emit_in, ContextGuard, EventKind, Span, SpanId, Trace};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The report's record of the sim clock's configuration, when `clock`
/// runs virtual time.
#[must_use]
pub fn sim_provenance(clock: &Clock) -> Option<SimProvenance> {
    clock.sim().map(|sim| SimProvenance {
        seed: sim.seed(),
        resolution_ns: sim.resolution_ns(),
        read_overhead_ns: sim.read_overhead_ns(),
        read_jitter_ns: sim.read_jitter_ns(),
    })
}

/// Per-execute phase accounting, in nanoseconds. Owned by one `execute`
/// call (never global), so concurrent engines — parallel tests, nested
/// harnesses — cannot pollute each other's budgets. Benchmarks run one at
/// a time, so the phase sums fit inside the suite's wall clock.
#[derive(Default)]
struct PhaseBudget {
    /// Warm-up and calibration time, billed by every attempt's harness.
    /// Shared through an `Arc` because on the real clock the harness
    /// runs on its `bench-<name>` thread, which may outlive the run.
    harness: Arc<HarnessBudget>,
    probe_ns: Cell<u64>,
    attempt_ns: Cell<u64>,
    retry_ns: Cell<u64>,
    /// Benchmark threads abandoned past their watchdog deadline that are
    /// still (possibly) running. A nonzero count means later records in
    /// the same run are `contended`: the zombie holds its substrate and
    /// competes for CPU with every benchmark that follows.
    leaked_threads: Cell<u32>,
    /// Set once this run's host denied hardware counters: later attempts
    /// stop opening them and the run has already said so in its trace.
    /// Shared with the bench threads, which open the counters.
    counters_unavailable: Arc<AtomicBool>,
}

/// Folds a region's elapsed time (read from the engine's clock, so virtual
/// under simulation) into a [`PhaseBudget`] field on drop, so every
/// `break`/`continue` path through the attempt loop is accounted.
struct PhaseTimer<'a> {
    sink: &'a Cell<u64>,
    clock: &'a Clock,
    started: f64,
}

impl<'a> PhaseTimer<'a> {
    fn start(clock: &'a Clock, sink: &'a Cell<u64>) -> Self {
        PhaseTimer {
            sink,
            clock,
            started: clock.now_ns(),
        }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        let elapsed = (self.clock.now_ns() - self.started).max(0.0) as u64;
        self.sink.set(self.sink.get() + elapsed);
    }
}

/// An OS facility a benchmark needs; probed before launch so a degraded
/// machine yields `Skipped` rows instead of mid-run crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// A writable `/dev/null` (the paper's "simplest nontrivial syscall").
    DevNull,
    /// A bindable loopback interface for TCP/UDP benchmarks.
    Loopback,
    /// A writable temp directory for file benchmarks.
    TempDir,
}

impl Substrate {
    /// Human name for skip reasons.
    #[must_use]
    pub fn describe(self) -> &'static str {
        match self {
            Substrate::DevNull => "/dev/null",
            Substrate::Loopback => "loopback networking",
            Substrate::TempDir => "writable temp directory",
        }
    }

    /// Cheap liveness probe; `Err` carries a skip reason.
    pub fn probe(self) -> Result<(), String> {
        let fail = |e: &dyn std::fmt::Display| Err(format!("{} unavailable: {e}", self.describe()));
        match self {
            Substrate::DevNull => {
                use std::io::Write;
                match std::fs::OpenOptions::new().write(true).open("/dev/null") {
                    Ok(mut f) => f.write_all(b"x").or_else(|e| fail(&e)),
                    Err(e) => fail(&e),
                }
            }
            Substrate::Loopback => std::net::TcpListener::bind(("127.0.0.1", 0))
                .map(drop)
                .or_else(|e| fail(&e)),
            Substrate::TempDir => {
                let path =
                    std::env::temp_dir().join(format!("lmbench-probe-{}", std::process::id()));
                match std::fs::write(&path, b"probe") {
                    Ok(()) => {
                        let _ = std::fs::remove_file(&path);
                        Ok(())
                    }
                    Err(e) => fail(&e),
                }
            }
        }
    }
}

/// Probes each required substrate in order, narrating every probe, and
/// stops at the first one missing; `Err` carries its skip reason.
pub(crate) fn probe_substrates(requires: &[Substrate]) -> Result<(), String> {
    for s in requires {
        let result = s.probe();
        emit(|| EventKind::Probe {
            substrate: s.describe().to_string(),
            ok: result.is_ok(),
            detail: result.clone().err().unwrap_or_default(),
        });
        result?;
    }
    Ok(())
}

/// Everything a benchmark runner may consult. Owned (no borrows) so the
/// engine can move it onto the watchdogged benchmark thread.
#[derive(Debug, Clone)]
pub struct RunCtx {
    /// Measurement harness on the engine's clock, pre-wired with the
    /// engine's provenance recorder and the run's harness budget.
    pub harness: Harness,
    /// Suite configuration.
    pub config: SuiteConfig,
    /// Host name for result rows.
    pub host: String,
    /// Results measured so far — empty in phase 1, populated for
    /// `derived` entries in phase 2.
    pub snapshot: SuiteRun,
}

/// Injected failures, for tests and fault drills. Each field names the
/// benchmark to sabotage; the engine reads the first three, the load
/// runner ([`crate::LoadRunner`]) the last.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Panic inside this benchmark's runner.
    pub panic_in: Option<String>,
    /// Hang this benchmark past any reasonable budget.
    pub hang_in: Option<String>,
    /// Make this benchmark's substrate probe report a missing facility.
    pub deny_substrate_in: Option<String>,
    /// Panic the last generator of this `(bench, p)` scaling point.
    pub scale_panic_at: Option<(String, u32)>,
}

impl FaultPlan {
    /// Reads the `LMBENCH_FAULT_PANIC`, `LMBENCH_FAULT_HANG` and
    /// `LMBENCH_FAULT_NOSUBSTRATE` environment variables (each naming a
    /// benchmark) and `LMBENCH_FAULT_SCALE_PANIC="bench@p"`, so fault
    /// drills can target a released binary.
    #[must_use]
    pub fn from_env() -> Self {
        FaultPlan {
            panic_in: std::env::var("LMBENCH_FAULT_PANIC").ok(),
            hang_in: std::env::var("LMBENCH_FAULT_HANG").ok(),
            deny_substrate_in: std::env::var("LMBENCH_FAULT_NOSUBSTRATE").ok(),
            scale_panic_at: std::env::var("LMBENCH_FAULT_SCALE_PANIC")
                .ok()
                .and_then(|v| parse_scale_point(&v)),
        }
    }

    /// Whether the plan panics the `(bench, p)` scaling point.
    pub(crate) fn scale_panic_hits(&self, bench: &str, p: u32) -> bool {
        self.scale_panic_at
            .as_ref()
            .is_some_and(|(b, fp)| b == bench && *fp == p)
    }

    fn names(&self, bench: &str) -> (bool, bool, bool) {
        let hit = |v: &Option<String>| v.as_deref() == Some(bench);
        (
            hit(&self.panic_in),
            hit(&self.hang_in),
            hit(&self.deny_substrate_in),
        )
    }
}

/// Parses a `bench@p` scaling point.
pub(crate) fn parse_scale_point(v: &str) -> Option<(String, u32)> {
    let (bench, p) = v.split_once('@')?;
    Some((bench.to_string(), p.parse().ok()?))
}

/// What [`Engine::execute`] produces.
#[derive(Debug, Clone)]
pub struct EngineOutcome {
    /// The (possibly partial) result set.
    pub run: SuiteRun,
    /// Per-benchmark outcomes and provenance, registry order.
    pub report: RunReport,
}

/// What one isolated benchmark run yields: its report record plus the
/// table patches to fold into the suite result.
type BenchResult = (BenchRecord, Vec<TablePatch>);

/// The suite execution engine.
pub struct Engine {
    registry: Registry,
    config: SuiteConfig,
    faults: FaultPlan,
    clock: Clock,
}

impl Engine {
    /// Builds an engine over a registry; rejects invalid configurations.
    pub fn new(registry: Registry, config: SuiteConfig) -> Result<Self, SuiteError> {
        config.validate()?;
        Ok(Engine {
            registry,
            config,
            faults: FaultPlan::default(),
            clock: Clock::Real,
        })
    }

    /// Installs a fault plan (tests, drills).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Installs the clock engine-level decisions and the benchmarks'
    /// harnesses read. Pass [`Clock::Sim`] with the same
    /// [`lmb_timing::SimClock`] the scripted benchmark bodies share to run
    /// the whole suite under virtual time.
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// Runs every registered benchmark and returns the partial result set
    /// plus the run report. Never panics on a benchmark's behalf.
    ///
    /// Benchmarks run one at a time on the calling thread, in three
    /// phases: ordinary entries, then `exclusive` ones, each in registry
    /// order, then `derived` ones against the measured snapshot. The trace
    /// vocabulary is pinned by a golden, so the first phase is named
    /// `pool`, every `schedule` event names worker 0 and `suite_start` one
    /// worker.
    pub fn execute(&self) -> EngineOutcome {
        let host = host_name();
        let benches = self.registry.all();
        // The self-budget brackets: wall clock here, and the run's trace
        // counts at the end. Phase times, the harness's warm-up and
        // calibration included, accumulate in this run's own budget.
        let suite_started = self.clock.now_ns();
        let budget = PhaseBudget::default();
        let suite_span = Span::enter("suite");
        let suite_id = suite_span.id();
        emit(|| EventKind::SuiteStart {
            benchmarks: benches.len() as u32,
            workers: 1,
        });
        let mut slots: Vec<Option<BenchResult>> = (0..benches.len()).map(|_| None).collect();

        // Phase 1a: measured entries not marked exclusive.
        let empty = SuiteRun::default();
        emit(|| EventKind::PhaseStart {
            phase: "pool".into(),
        });
        for (idx, bench) in benches.iter().enumerate() {
            if !bench.derived && !bench.exclusive {
                emit_in(suite_id, || EventKind::Schedule {
                    bench: bench.name.to_string(),
                    worker: 0,
                });
                slots[idx] = Some(self.run_one(bench, &host, &empty, suite_id, &budget));
            }
        }

        // Phase 1b: interference-sensitive benchmarks.
        emit(|| EventKind::PhaseStart {
            phase: "exclusive".into(),
        });
        for (idx, bench) in benches.iter().enumerate() {
            if bench.exclusive && !bench.derived {
                slots[idx] = Some(self.run_one(bench, &host, &empty, suite_id, &budget));
            }
        }

        // Apply measured patches in registry (= table) order.
        let mut run = SuiteRun::default();
        for (_, patches) in slots.iter_mut().flatten() {
            for patch in std::mem::take(patches) {
                patch.apply(&mut run);
            }
        }

        // Phase 2: derived entries see the measured snapshot; each one's
        // patches land before the next runs.
        emit(|| EventKind::PhaseStart {
            phase: "derived".into(),
        });
        for (idx, bench) in benches.iter().enumerate() {
            if bench.derived {
                let snapshot = run.clone();
                let (record, patches) = self.run_one(bench, &host, &snapshot, suite_id, &budget);
                for patch in patches {
                    patch.apply(&mut run);
                }
                slots[idx] = Some((record, Vec::new()));
            }
        }

        let harness = harness_budget(&self.clock, suite_started, &budget, suite_id);
        let report = RunReport {
            records: slots
                .into_iter()
                .map(|slot| slot.expect("every benchmark produced a record").0)
                .collect(),
            harness: Some(harness),
            sim: sim_provenance(&self.clock),
            ..Default::default()
        };
        emit(|| EventKind::SuiteEnd {
            ok: report.count("ok") as u32,
            failed: report.count("failed") as u32,
            timeout: report.count("timeout") as u32,
            skipped: report.count("skipped") as u32,
        });
        drop(suite_span);
        EngineOutcome { run, report }
    }

    /// Runs one benchmark through probes, isolation, timeout and retry,
    /// narrating every decision into the run's trace span.
    fn run_one(
        &self,
        bench: &Benchmark,
        host: &str,
        snapshot: &SuiteRun,
        suite_span: &SpanId,
        budget: &PhaseBudget,
    ) -> BenchResult {
        let started = self.clock.now_ns();
        let span = Span::enter_with_parent(format!("bench:{}", bench.name), suite_span);
        let mut record = BenchRecord {
            name: bench.name.to_string(),
            produces: bench.produces.to_string(),
            status: BenchStatus::Ok,
            attempts: 0,
            wall_ms: 0.0,
            exclusive: bench.exclusive,
            provenance: None,
            rusage: None,
            counters: None,
            metrics: Vec::new(),
            span: span.id().as_option(),
        };
        let (inject_panic, inject_hang, deny_substrate) = self.faults.names(bench.name);

        let probe_timer = PhaseTimer::start(&self.clock, &budget.probe_ns);
        let probe_failure = if deny_substrate {
            let reason = "injected fault: substrate reported missing".to_string();
            emit(|| EventKind::Probe {
                substrate: "injected".into(),
                ok: false,
                detail: reason.clone(),
            });
            Some(reason)
        } else {
            probe_substrates(bench.requires).err()
        };
        drop(probe_timer);
        if let Some(reason) = probe_failure {
            emit(|| EventKind::Skip {
                reason: reason.clone(),
            });
            record.status = BenchStatus::Skipped(reason);
            record.wall_ms = (self.clock.now_ns() - started).max(0.0) / 1e6;
            emit_outcome(&record);
            return (record, Vec::new());
        }

        let timeout = self.config.bench_timeout;
        let limit_ms = timeout.as_millis() as u64;
        let max_attempts = if bench.derived {
            1
        } else {
            self.config.retry.max_attempts.max(1)
        };
        let mut patches = Vec::new();
        loop {
            record.attempts += 1;
            // Drops at every exit from this iteration: the first attempt
            // bills the attempt phase, noise re-runs bill the retry one.
            let _attempt_timer = PhaseTimer::start(
                &self.clock,
                if record.attempts == 1 {
                    &budget.attempt_ns
                } else {
                    &budget.retry_ns
                },
            );
            emit(|| EventKind::Attempt {
                attempt: record.attempts,
            });
            // Process-global counters; exact because benchmarks run one at
            // a time (a thread leaked by an earlier timeout aside).
            let sys_before = lmb_sys::syscall_snapshot();
            let recorder = new_recorder();
            let bench_span = span.id().clone();
            // Under simulation the context harness runs on the engine's
            // own sim clock, pinned to the clock's scripted profile instead
            // of probed: scripted bodies measure with it directly, and no
            // wall-clock work or host-dependent number nears the report.
            let harness = match self.clock.sim() {
                Some(sim) => Harness::pinned(
                    self.config.options,
                    self.clock.clone(),
                    ClockInfo {
                        resolution_ns: sim.resolution_ns(),
                        overhead_ns: sim.read_overhead_ns(),
                    },
                ),
                None => Harness::new(self.config.options),
            };
            let ctx = RunCtx {
                harness: harness
                    .with_recorder(recorder.clone())
                    .with_budget(Arc::clone(&budget.harness)),
                config: self.config,
                host: host.to_string(),
                snapshot: snapshot.clone(),
            };
            let runner = bench.runner_fn();
            // Virtual attempts never open counters: their delta would be
            // discarded, and the open would make the trace host-dependent.
            let counters_unavailable =
                (!self.clock.is_virtual()).then(|| Arc::clone(&budget.counters_unavailable));
            // The injected hang sleeps on the engine's clock: real time on
            // hardware, an 86,400 s virtual advance (and an instant return)
            // under simulation.
            let hang_clock = self.clock.clone();
            // One attempt, self-contained so it can run on either thread.
            let attempt = move || {
                // The bench span is entered on the engine's thread; a bench
                // thread re-enters it so the harness's warmup/calibration
                // events land under the right benchmark.
                let _trace_ctx = ContextGuard::enter(&bench_span);
                // Thread-scope rusage brackets the runner so the delta is
                // exactly this attempt's cost; taken outside `catch_unwind`
                // so a panicking attempt still reports what it consumed.
                let usage_before = RusageSnapshot::thread();
                // The hardware-counter bracket nests just inside the rusage
                // one and around `catch_unwind`: a panicking attempt still
                // closes to a whole (never torn) delta, and the counts cover
                // exactly what the attempt ran. Opened on the attempt's own
                // thread because perf groups bind to the opener (`pid = 0`).
                let mut counters = counters_unavailable.as_deref().and_then(thread_counters);
                let counting = counters.as_mut().is_some_and(|c| c.begin());
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    if inject_panic {
                        panic!("injected fault: forced panic");
                    }
                    if inject_hang {
                        hang_clock.sleep(Duration::from_secs(86_400));
                    }
                    (*runner)(&ctx)
                }));
                let delta = if counting {
                    counters.as_mut().and_then(|c| c.end())
                } else {
                    None
                };
                let usage = usage_before.delta(&RusageSnapshot::thread());
                (outcome.map_err(panic_message), usage, delta)
            };

            // The watchdog. Under simulation scripted bodies always
            // terminate — virtual sleeps return instantly — so the attempt
            // runs inline and is then classified against the virtual
            // clock: deterministic timeouts, no thread, no leak. On
            // hardware it runs on a detached `bench-<name>` thread and
            // `recv_timeout` enforces the budget in real time; expiry
            // abandons a still-running thread (a tracked leak, below). It
            // cannot be cancelled, and only its result channel is dropped.
            let received = if self.clock.is_virtual() {
                let t0 = self.clock.now_ns();
                let result = attempt();
                ((self.clock.now_ns() - t0) <= timeout.as_nanos() as f64).then_some(result)
            } else {
                let (tx, rx) = mpsc::channel();
                std::thread::Builder::new()
                    .name(format!("bench-{}", bench.name))
                    .spawn(move || {
                        let _ = tx.send(attempt());
                    })
                    .expect("spawn benchmark thread");
                rx.recv_timeout(timeout).ok()
            };
            let (outcome, usage, counter_delta) = match received {
                None => {
                    emit(|| EventKind::Timeout { limit_ms });
                    if !self.clock.is_virtual() {
                        // The benchmark thread is abandoned, not dead: it
                        // keeps its substrate and its CPU until the body
                        // returns, so every later record in this run is
                        // measured on a contended machine.
                        let leaked = budget.leaked_threads.get() + 1;
                        budget.leaked_threads.set(leaked);
                        emit(|| EventKind::ThreadLeak {
                            bench: bench.name.to_string(),
                            leaked,
                        });
                    }
                    record.status = BenchStatus::TimedOut { limit_ms };
                    break;
                }
                Some(received) => received,
            };
            // Kernel-accounted costs and hardware counters are real-world
            // observations; under simulation they are nondeterministic
            // noise that would break same-seed byte identity, so the
            // record omits them (the tolerant schema already allows it).
            if !self.clock.is_virtual() {
                let leaked = budget.leaked_threads.get() > 0;
                record.rusage = Some(archive_rusage(&usage, leaked));
                record.counters = counter_delta.map(archive_counters);
            }
            record.provenance = provenance_from(&take_events(&recorder));
            emit_quality_metrics(record.provenance.as_ref());
            match outcome {
                Err(panic_msg) => {
                    emit(|| EventKind::Panic {
                        message: panic_msg.clone(),
                    });
                    record.status = BenchStatus::Failed(panic_msg);
                    break;
                }
                Ok(output) => {
                    emit(|| EventKind::Syscalls {
                        counts: sys_before.delta(&lmb_sys::syscall_snapshot()),
                    });
                    if let Some(reason) = output.skip {
                        emit(|| EventKind::Skip {
                            reason: reason.clone(),
                        });
                        record.status = BenchStatus::Skipped(reason);
                        break;
                    }
                    record.status = BenchStatus::Ok;
                    record.metrics = output
                        .metrics
                        .iter()
                        .map(|m| MetricValue {
                            label: m.label.to_string(),
                            value: m.value,
                            unit: m.unit.name().to_string(),
                        })
                        .collect();
                    record
                        .metrics
                        .extend(counter_metrics(record.counters.as_ref()));
                    for m in &record.metrics {
                        emit(|| EventKind::Metric {
                            label: m.label.clone(),
                            value: m.value,
                            unit: m.unit.clone(),
                        });
                    }
                    patches = output.patches;
                    let noisy_cv = record
                        .provenance
                        .as_ref()
                        .map(|p| p.cv)
                        .filter(|&cv| cv > self.config.retry.cv_threshold);
                    if let Some(cv) = noisy_cv {
                        if record.attempts < max_attempts {
                            emit(|| EventKind::Retry {
                                attempt: record.attempts,
                                cv,
                                threshold: self.config.retry.cv_threshold,
                            });
                            continue;
                        }
                    }
                    break;
                }
            }
        }
        record.wall_ms = (self.clock.now_ns() - started).max(0.0) / 1e6;
        emit_outcome(&record);
        (record, patches)
    }
}

/// Assembles the run's self-budget: wall clock, phase atomics (the
/// harness's warm-up and calibration among them) and the emission counts
/// of the suite span's trace (zero when the run is untraced).
fn harness_budget(
    clock: &Clock,
    suite_started: f64,
    budget: &PhaseBudget,
    suite_span: &SpanId,
) -> HarnessMetrics {
    let ns_to_ms = |ns: u64| ns as f64 / 1e6;
    let sink = suite_span.trace().map(Trace::stats).unwrap_or_default();
    HarnessMetrics {
        suite_ms: (clock.now_ns() - suite_started).max(0.0) / 1e6,
        probe_ms: ns_to_ms(budget.probe_ns.get()),
        warmup_ms: ns_to_ms(budget.harness.warmup_ns.load(Ordering::Relaxed)),
        calibrate_ms: ns_to_ms(budget.harness.calibrate_ns.load(Ordering::Relaxed)),
        attempt_ms: ns_to_ms(budget.attempt_ns.get()),
        retry_ms: ns_to_ms(budget.retry_ns.get()),
        trace_events: sink.events,
        trace_bytes: sink.bytes,
        trace_writes: sink.writes,
        trace_dropped: sink.dropped,
    }
}

/// Emits the per-benchmark closing event (the caller's thread still has the
/// bench span entered, so attribution is implicit).
fn emit_outcome(record: &BenchRecord) {
    emit(|| EventKind::Outcome {
        status: record.status.label().to_string(),
        attempts: record.attempts,
        wall_ms: record.wall_ms,
    });
}

/// Renders a panic payload as a failure reason.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Archives a kernel-accounted attempt cost into the report's shape,
/// narrating it into the trace on the way. The snapshots are taken on the
/// bench thread with thread scope, so the CPU-time and fault counts are
/// this attempt's own; `contended` records that a thread leaked by an
/// earlier timeout may still be running, which perturbs maxrss
/// (process-wide) and preemption counts, so contended deltas must not be
/// compared as isolated-run costs.
fn archive_rusage(delta: &RusageDelta, contended: bool) -> ResourceUsage {
    emit(|| EventKind::Rusage {
        utime_us: delta.utime_us,
        stime_us: delta.stime_us,
        maxrss_kb: delta.maxrss_kb,
        minor_faults: delta.minor_faults,
        major_faults: delta.major_faults,
        vol_ctx_switches: delta.vol_ctx_switches,
        invol_ctx_switches: delta.invol_ctx_switches,
        contended,
    });
    ResourceUsage {
        utime_us: delta.utime_us,
        stime_us: delta.stime_us,
        maxrss_kb: delta.maxrss_kb,
        minor_faults: delta.minor_faults,
        major_faults: delta.major_faults,
        vol_ctx_switches: delta.vol_ctx_switches,
        invol_ctx_switches: delta.invol_ctx_switches,
        contended,
    }
}

/// Opens a calibrated hardware-counter bracket on the calling bench
/// thread, or `None` where the host denies counters. A run's first
/// failure sets its `unavailable` flag and emits a single
/// `counters_unavailable` trace event for the run; after that every
/// attempt of the run runs exactly as an uncounted one would, with no
/// per-attempt open retries.
fn thread_counters(unavailable: &AtomicBool) -> Option<Counters<PerfCounters>> {
    if unavailable.load(Ordering::Relaxed) {
        return None;
    }
    open_perf()
        .map_err(|e| {
            if !unavailable.swap(true, Ordering::Relaxed) {
                emit(|| EventKind::CountersUnavailable {
                    reason: e.reason().to_string(),
                    paranoid: e.paranoid(),
                });
            }
        })
        .ok()
}

/// Archives a compensated hardware-counter delta into the report's shape,
/// narrating it into the trace on the way (the counter analog of
/// [`archive_rusage`]; the bracket ran on the bench thread, so the counts
/// are that attempt's own).
fn archive_counters(delta: CounterValues) -> CounterDelta {
    emit(|| EventKind::Counters {
        cycles: delta.cycles,
        instructions: delta.instructions,
        branch_misses: delta.branch_misses,
        cache_misses: delta.cache_misses,
        dtlb_misses: delta.dtlb_misses,
        enabled_ns: delta.enabled_ns,
        running_ns: delta.running_ns,
    });
    CounterDelta {
        cycles: delta.cycles,
        instructions: delta.instructions,
        branch_misses: delta.branch_misses,
        cache_misses: delta.cache_misses,
        dtlb_misses: delta.dtlb_misses,
        enabled_ns: delta.enabled_ns,
        running_ns: delta.running_ns,
    }
}

/// Derived counter metrics (IPC, misses per kilo-instruction) appended to
/// a record's metric rows, so they flow through `lmbench diff` under the
/// same noise-aware significance rules as the headline numbers.
fn counter_metrics(counters: Option<&CounterDelta>) -> Vec<MetricValue> {
    let Some(c) = counters else {
        return Vec::new();
    };
    let mut rows = Vec::new();
    let mut push = |label: &str, value: Option<f64>, unit: &str| {
        if let Some(value) = value {
            rows.push(MetricValue {
                label: label.into(),
                value,
                unit: unit.into(),
            });
        }
    };
    push("ipc", c.ipc(), "ipc");
    push("branch_miss_pki", c.branch_miss_pki(), "pki");
    push("cache_miss_pki", c.cache_miss_pki(), "pki");
    push("dtlb_miss_pki", c.dtlb_miss_pki(), "pki");
    rows
}

/// Emits the attempt's quality assessment as Metric events, so trace
/// consumers see the noise band next to the numbers it qualifies.
fn emit_quality_metrics(provenance: Option<&Provenance>) {
    let Some(p) = provenance else { return };
    let (cv, severity) = (
        p.cv,
        Quality::from_label(&p.quality)
            .unwrap_or(Quality::Suspect)
            .severity(),
    );
    emit(|| EventKind::Metric {
        label: "quality_cv".into(),
        value: cv,
        unit: "x".into(),
    });
    emit(|| EventKind::Metric {
        label: "quality_grade".into(),
        value: severity,
        unit: "severity".into(),
    });
}

/// Summarizes recorded measurements: calibration and samples of the
/// *worst* one (gravest quality grade, then highest CV, ties broken toward
/// the last), plus the total measurement count — the dispersion a reader
/// should worry about, not the prettiest.
///
/// Quality ranks before CV because an overhead-clamped measurement is a
/// set of identical zero floors: its CV is 0.0, and sorting by CV alone
/// would bury the suite's most broken measurement under ordinary noise.
pub(crate) fn provenance_from(measurements: &[Measurement]) -> Option<Provenance> {
    // Grade each measurement once: the key is built per measurement, not
    // per comparison, and `max_by` still resolves ties toward the last.
    let (_, quality, worst) = measurements
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let quality = m.quality();
            ((quality.severity(), m.samples().cv(), i), quality, m)
        })
        .max_by(|(a, ..), (b, ..)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))?;
    let samples = worst.samples();
    let sorted = samples.sorted();
    let min = samples.min().unwrap_or(f64::INFINITY);
    let max = samples.max().unwrap_or(f64::NEG_INFINITY);
    let median = midpoint_median(sorted.values());
    Some(Provenance {
        repetitions: samples.len() as u32,
        warmup_runs: worst.warmup_runs(),
        calibrated_iterations: worst.ops_per_sample(),
        clock_resolution_ns: worst.clock_resolution_ns(),
        sample_min_ns: min,
        sample_median_ns: median,
        sample_p90_ns: sorted.p90().unwrap_or(max),
        sample_p99_ns: sorted.p99().unwrap_or(max),
        sample_max_ns: max,
        mad_ns: samples.mad().unwrap_or(0.0),
        min_median_gap: if min > 0.0 { (median - min) / min } else { 0.0 },
        cv: samples.cv(),
        iqr_outliers: sorted.outliers() as u32,
        quality: quality.label().to_string(),
        measure_calls: measurements.len() as u32,
        clamped_samples: worst.clamped_samples(),
    })
}

/// The midpoint median archived reports hold; `Samples::median` can differ by an ulp.
fn midpoint_median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RetryPolicy;
    use lmb_timing::{Samples, SimClock, SummaryPolicy};
    use std::time::Instant;

    fn engine_for(names: &[&str], config: SuiteConfig) -> Engine {
        Engine::new(Registry::standard().filtered(names).unwrap(), config).unwrap()
    }

    #[test]
    fn invalid_config_is_rejected_at_construction() {
        let mut config = SuiteConfig::quick();
        config.copy_bytes = 1;
        assert!(matches!(
            Engine::new(Registry::standard(), config),
            Err(SuiteError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn clean_run_applies_patches_and_records_provenance() {
        let outcome = engine_for(&["sys_info", "lat_syscall"], SuiteConfig::quick()).execute();
        assert!(outcome.run.system.is_some(), "sys_info patch applied");
        assert!(outcome.run.syscall.is_some(), "lat_syscall patch applied");
        let rec = outcome.report.find("lat_syscall").unwrap();
        assert!(rec.status.is_ok());
        assert_eq!(rec.attempts, 1);
        let prov = rec.provenance.as_ref().expect("provenance recorded");
        assert!(prov.calibrated_iterations > 0);
        assert!(prov.sample_min_ns > 0.0);
        assert!(prov.sample_median_ns >= prov.sample_min_ns);
        assert!(prov.sample_p90_ns > 0.0);
        assert!(prov.sample_p99_ns >= prov.sample_p90_ns);
        assert!(prov.sample_max_ns >= prov.sample_p99_ns);
        assert!(prov.mad_ns >= 0.0);
        assert!(
            Quality::from_label(&prov.quality).is_some(),
            "unparseable quality {:?}",
            prov.quality
        );
        assert!(prov.measure_calls >= 1);
        let usage = rec.rusage.as_ref().expect("rusage recorded");
        assert!(usage.maxrss_kb > 0, "maxrss missing: {usage:?}");
        assert!(!rec.metrics.is_empty(), "metrics archived on the record");
        assert!(rec.metrics.iter().all(|m| !m.unit.is_empty()));
    }

    #[test]
    fn provenance_prefers_the_clamped_measurement_over_the_noisy_one() {
        let event = |per_op_ns: &[f64], iterations: u64, clamped: u32| {
            Measurement::from_per_op_samples(
                Samples::from_values(per_op_ns.iter().copied()),
                iterations,
                SummaryPolicy::Minimum,
            )
            .with_clamped_samples(clamped)
        };
        // A fully clamped measurement has CV 0.0 — sorting by CV alone
        // would bury it under ordinary noise. Quality severity must win.
        let noisy = event(&[100.0, 150.0, 90.0, 160.0], 100, 0);
        let clamped = event(&[0.0, 0.0, 0.0], 7, 3);
        let p = provenance_from(&[noisy.clone(), clamped]).expect("provenance");
        assert_eq!(p.quality, "suspect");
        assert_eq!(p.clamped_samples, 3);
        assert_eq!(p.calibrated_iterations, 7, "clamped event selected");
        // Without clamps anywhere, the highest-CV event is still the pick.
        let quiet = event(&[100.0, 101.0, 99.0, 100.5], 200, 0);
        let p = provenance_from(&[quiet, noisy.clone()]).expect("provenance");
        assert_eq!(p.calibrated_iterations, 100, "noisiest event selected");
        assert_eq!(p.clamped_samples, 0);
        // Equal grade and CV: the later event is the pick.
        let twin = event(&[100.0, 150.0, 90.0, 160.0], 300, 0);
        let p = provenance_from(&[noisy, twin]).expect("provenance");
        assert_eq!(p.calibrated_iterations, 300, "ties resolve toward the last");
        assert!(provenance_from(&[]).is_none());
    }

    /// The provenance formulas of the per-measurement event record this
    /// module once summarized, kept as a bit-for-bit reference.
    struct Reference {
        min: f64,
        max: f64,
        median: f64,
        gap: f64,
        cv: f64,
        quality: Quality,
    }

    fn reference(per_op_ns: &[f64], clamped: u32) -> Reference {
        let min = per_op_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let max = per_op_ns.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sorted = per_op_ns.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = match sorted.len() {
            0 => f64::NAN,
            n if n % 2 == 1 => sorted[n / 2],
            n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
        };
        let gap = if min > 0.0 { (median - min) / min } else { 0.0 };
        let n = per_op_ns.len();
        let mean = per_op_ns.iter().sum::<f64>() / n as f64;
        let cv = if n < 2 || mean <= 0.0 {
            0.0
        } else {
            let var = per_op_ns
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f64>()
                / (n - 1) as f64;
            var.sqrt() / mean
        };
        let quality = if clamped > 0 {
            Quality::Suspect
        } else {
            Quality::from_samples(&Samples::from_values(per_op_ns.iter().copied()))
        };
        Reference {
            min,
            max,
            median,
            gap,
            cv,
            quality,
        }
    }

    #[test]
    fn provenance_matches_the_reference_formulas_bit_for_bit() {
        let mut rng = lmb_timing::SplitMix::new(23);
        let mut interpolated_medians_differ = false;
        let cases = (1..=64usize).flat_map(|len| [(len, false), (len, true)].repeat(4));
        for (len, with_clamps) in cases {
            // Magnitudes spread over six decades, so sums, differences
            // and midpoints round.
            let mut values: Vec<f64> = (0..len)
                .map(|_| rng.uniform() * 10f64.powf(6.0 * rng.uniform()))
                .collect();
            let mut clamped = 0u32;
            if with_clamps {
                for v in values.iter_mut().filter(|_| rng.uniform() < 0.3) {
                    *v = 0.0;
                    clamped += 1;
                }
            }
            let m = Measurement::from_per_op_samples(
                Samples::from_values(values.iter().copied()),
                len as u64,
                SummaryPolicy::Minimum,
            )
            .with_clamped_samples(clamped);
            let p = provenance_from(std::slice::from_ref(&m)).expect("provenance");
            let want = reference(&values, clamped);
            let samples = m.samples();
            let bits = |got: f64, want: f64, field: &str| {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{field}, len {len}: {got} vs {want}"
                );
            };
            bits(p.sample_min_ns, want.min, "min");
            bits(p.sample_max_ns, want.max, "max");
            bits(p.sample_median_ns, want.median, "median");
            bits(p.min_median_gap, want.gap, "min_median_gap");
            bits(p.cv, want.cv, "cv");
            bits(p.sample_p90_ns, samples.p90().unwrap(), "p90");
            bits(p.sample_p99_ns, samples.p99().unwrap(), "p99");
            bits(p.mad_ns, samples.mad().unwrap(), "mad");
            assert_eq!(p.iqr_outliers as usize, samples.outliers());
            assert_eq!(p.quality, want.quality.label(), "len {len}");
            assert_eq!(p.clamped_samples, clamped);
            assert_eq!(p.repetitions as usize, len);
            assert_eq!(p.calibrated_iterations, len as u64);
            interpolated_medians_differ |=
                samples.median().unwrap().to_bits() != want.median.to_bits();
        }
        // Why provenance keeps its own midpoint median.
        assert!(interpolated_medians_differ, "Samples::median now agrees");

        // The harness context travels on the measurement into provenance.
        let sim = SimClock::new(23).with_read_overhead_ns(50.0);
        let body = sim.scripted_body(lmb_timing::CostModel::Constant { ns: 200.0 });
        let recorder = new_recorder();
        let pinned = ClockInfo {
            resolution_ns: 7.0,
            overhead_ns: 50.0,
        };
        Harness::pinned(lmb_timing::Options::quick(), Clock::Sim(sim), pinned)
            .with_recorder(recorder.clone())
            .measure_block(4, body);
        let p = provenance_from(&take_events(&recorder)).expect("provenance");
        assert_eq!(p.warmup_runs, lmb_timing::Options::quick().warmup_runs);
        assert_eq!(p.clock_resolution_ns, 7.0);
        assert_eq!(p.calibrated_iterations, 4);
    }

    #[test]
    fn injected_panic_becomes_failed_not_a_crash() {
        let engine =
            engine_for(&["sys_info", "lat_syscall"], SuiteConfig::quick()).with_faults(FaultPlan {
                panic_in: Some("lat_syscall".into()),
                ..FaultPlan::default()
            });
        let outcome = engine.execute();
        let rec = outcome.report.find("lat_syscall").unwrap();
        match &rec.status {
            BenchStatus::Failed(reason) => assert!(reason.contains("forced panic"), "{reason}"),
            other => panic!("want Failed, got {other:?}"),
        }
        assert!(outcome.run.syscall.is_none(), "no patch from a failed run");
        // The rest of the suite survived.
        assert!(outcome.report.find("sys_info").unwrap().status.is_ok());
        assert!(outcome.run.system.is_some());
    }

    #[test]
    fn injected_hang_becomes_timed_out_within_budget() {
        let config = SuiteConfig::quick().with_timeout(Duration::from_millis(150));
        let engine = engine_for(&["lat_syscall"], config).with_faults(FaultPlan {
            hang_in: Some("lat_syscall".into()),
            ..FaultPlan::default()
        });
        let started = Instant::now();
        let outcome = engine.execute();
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "engine blocked on the hung benchmark"
        );
        assert_eq!(
            outcome.report.find("lat_syscall").unwrap().status,
            BenchStatus::TimedOut { limit_ms: 150 }
        );
        assert!(outcome.run.syscall.is_none());
    }

    #[test]
    fn denied_substrate_becomes_skipped() {
        let engine = engine_for(&["lat_syscall"], SuiteConfig::quick()).with_faults(FaultPlan {
            deny_substrate_in: Some("lat_syscall".into()),
            ..FaultPlan::default()
        });
        let outcome = engine.execute();
        match &outcome.report.find("lat_syscall").unwrap().status {
            BenchStatus::Skipped(reason) => assert!(reason.contains("substrate"), "{reason}"),
            other => panic!("want Skipped, got {other:?}"),
        }
        assert!(outcome.run.syscall.is_none());
    }

    #[test]
    fn noisy_benchmark_is_retried_up_to_the_policy_limit() {
        // cv is always > -1, so every attempt looks noisy: the engine must
        // stop at max_attempts, keeping the final attempt's result.
        let config = SuiteConfig::quick().with_retry(RetryPolicy {
            max_attempts: 3,
            cv_threshold: -1.0,
        });
        let outcome = engine_for(&["lat_syscall"], config).execute();
        let rec = outcome.report.find("lat_syscall").unwrap();
        assert_eq!(rec.attempts, 3);
        assert!(rec.status.is_ok());
        assert!(outcome.run.syscall.is_some());
    }

    #[test]
    fn derived_entry_composes_from_measured_snapshot() {
        let outcome =
            engine_for(&["bw_pipe_tcp", "remote_bw_model"], SuiteConfig::quick()).execute();
        assert!(outcome.run.ipc_bw.is_some());
        let rec = outcome.report.find("remote_bw_model").unwrap();
        assert!(rec.status.is_ok(), "status {:?}", rec.status);
        assert!(!outcome.run.remote_bw.is_empty(), "Table 4 rows composed");
    }

    #[test]
    fn derived_entry_skips_when_its_input_failed() {
        // Sabotage the measured input; the model must degrade to Skipped.
        let engine = engine_for(&["bw_pipe_tcp", "remote_bw_model"], SuiteConfig::quick())
            .with_faults(FaultPlan {
                panic_in: Some("bw_pipe_tcp".into()),
                ..FaultPlan::default()
            });
        let outcome = engine.execute();
        assert!(matches!(
            outcome.report.find("remote_bw_model").unwrap().status,
            BenchStatus::Skipped(_)
        ));
        assert!(outcome.run.remote_bw.is_empty());
    }

    #[test]
    fn execute_attaches_a_harness_budget() {
        let outcome = engine_for(&["lat_syscall"], SuiteConfig::quick()).execute();
        let h = outcome.report.harness.expect("self-budget attached");
        assert!(h.suite_ms > 0.0, "{h:?}");
        assert!(h.probe_ms > 0.0, "substrate probes ran: {h:?}");
        assert!(h.attempt_ms > 0.0, "{h:?}");
        assert!(h.warmup_ms > 0.0, "the harness warmed up: {h:?}");
        assert!(h.calibrate_ms > 0.0, "the harness calibrated: {h:?}");
        // A single clean attempt bills nothing to the retry phase.
        assert_eq!(h.retry_ms, 0.0, "{h:?}");
        // Phases nest inside the suite; benchmarks run one at a time, so
        // each must fit inside the total wall time.
        assert!(h.attempt_ms <= h.suite_ms, "{h:?}");
    }

    #[test]
    fn retries_bill_the_retry_phase() {
        let config = SuiteConfig::quick().with_retry(RetryPolicy {
            max_attempts: 3,
            cv_threshold: -1.0,
        });
        let outcome = engine_for(&["lat_syscall"], config).execute();
        let h = outcome.report.harness.expect("self-budget attached");
        assert!(h.retry_ms > 0.0, "two noise re-runs happened: {h:?}");
    }

    #[test]
    fn traced_run_budgets_its_trace_emission() {
        let engine = engine_for(&["lat_syscall"], SuiteConfig::quick());
        let (outcome, events) = traced_execute(&engine);
        let h = outcome.report.harness.expect("self-budget attached");
        // The budget reads the run's own trace, sealed before the run's
        // closing events (`suite_end`, the suite `span_end`): it trails
        // the sink's final count by exactly those two.
        assert_eq!(h.trace_events + 2, events.len() as u64, "{h:?}");
    }

    #[test]
    fn report_covers_every_registry_entry_in_order() {
        let names = ["sys_info", "lat_syscall", "lat_disk"];
        let outcome = engine_for(&names, SuiteConfig::quick()).execute();
        let reported: Vec<&str> = outcome
            .report
            .records
            .iter()
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(reported, names);
    }

    fn traced_execute(engine: &Engine) -> (EngineOutcome, Vec<lmb_trace::TraceEvent>) {
        let sink = lmb_trace::MemorySink::shared();
        let trace = Trace::new(vec![Box::new(sink.clone())]);
        let ctx = trace.enter();
        let outcome = engine.execute();
        drop(ctx);
        (outcome, sink.events())
    }

    /// Events attributed to the named benchmark's span in this outcome.
    fn bench_events<'e>(
        outcome: &EngineOutcome,
        events: &'e [lmb_trace::TraceEvent],
        bench: &str,
    ) -> Vec<&'e lmb_trace::TraceEvent> {
        let span = outcome.report.find(bench).unwrap().span;
        assert!(span.is_some(), "{bench} record carries no span id");
        events.iter().filter(|e| e.span == span).collect()
    }

    #[test]
    fn traced_run_narrates_lifecycle_and_links_spans() {
        let engine = engine_for(&["sys_info", "lat_syscall"], SuiteConfig::quick());
        let (outcome, events) = traced_execute(&engine);
        assert!(
            events.iter().any(|e| matches!(
                e.kind,
                EventKind::SuiteStart {
                    benchmarks: 2,
                    workers: 1
                }
            )),
            "suite_start missing"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SuiteEnd { ok: 2, .. })));
        for phase in ["pool", "exclusive", "derived"] {
            assert!(
                events
                    .iter()
                    .any(|e| matches!(&e.kind, EventKind::PhaseStart { phase: p } if p == phase)),
                "phase_start {phase} missing"
            );
        }
        let mine = bench_events(&outcome, &events, "lat_syscall");
        let has = |pred: &dyn Fn(&EventKind) -> bool| mine.iter().any(|e| pred(&e.kind));
        assert!(
            has(&|k| matches!(k, EventKind::SpanStart { name, .. } if name == "bench:lat_syscall")),
            "span_start missing: {mine:?}"
        );
        assert!(has(&|k| matches!(k, EventKind::SpanEnd { .. })));
        assert!(has(&|k| matches!(k, EventKind::Probe { ok: true, .. })));
        assert!(has(&|k| matches!(k, EventKind::Attempt { attempt: 1 })));
        assert!(
            has(&|k| matches!(k, EventKind::Warmup { .. })),
            "harness warmup not attributed to the bench span (ContextGuard broken?)"
        );
        assert!(has(&|k| matches!(k, EventKind::Calibrated { .. })));
        assert!(has(&|k| matches!(k, EventKind::Metric { .. })));
        assert!(
            has(&|k| matches!(k, EventKind::Rusage { .. })),
            "attempt cost not narrated"
        );
        for label in ["quality_cv", "quality_grade"] {
            assert!(
                has(&|k| matches!(k, EventKind::Metric { label: l, .. } if l == label)),
                "{label} metric missing"
            );
        }
        assert!(
            has(&|k| matches!(k, EventKind::Syscalls { counts } if counts.contains_key("write"))),
            "lat_syscall writes /dev/null; write count missing"
        );
        assert!(has(
            &|k| matches!(k, EventKind::Outcome { status, .. } if status == "ok")
        ));
    }

    #[test]
    fn retry_on_noise_emits_retry_events_with_the_cv() {
        let config = SuiteConfig::quick().with_retry(RetryPolicy {
            max_attempts: 3,
            cv_threshold: -1.0,
        });
        let engine = engine_for(&["lat_syscall"], config);
        let (outcome, events) = traced_execute(&engine);
        let mine = bench_events(&outcome, &events, "lat_syscall");
        let retries: Vec<_> = mine
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Retry {
                    attempt,
                    cv,
                    threshold,
                } => Some((*attempt, *cv, *threshold)),
                _ => None,
            })
            .collect();
        // Attempts 1 and 2 look noisy and retry; attempt 3 hits the cap.
        assert_eq!(retries.len(), 2, "{retries:?}");
        assert_eq!(retries[0].0, 1);
        assert_eq!(retries[1].0, 2);
        for (_, cv, threshold) in retries {
            assert!(cv > threshold, "retry fired with cv {cv} <= {threshold}");
            assert_eq!(threshold, -1.0);
        }
        let attempts = mine
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Attempt { .. }))
            .count();
        assert_eq!(attempts, 3);
    }

    #[test]
    fn faulted_runs_emit_their_terminal_events() {
        let config = SuiteConfig::quick().with_timeout(Duration::from_millis(150));
        let engine =
            engine_for(&["lat_syscall", "lat_sig", "lat_fs"], config).with_faults(FaultPlan {
                panic_in: Some("lat_syscall".into()),
                hang_in: Some("lat_sig".into()),
                deny_substrate_in: Some("lat_fs".into()),
                ..FaultPlan::default()
            });
        let (outcome, events) = traced_execute(&engine);
        assert!(
            bench_events(&outcome, &events, "lat_syscall").iter().any(
                |e| matches!(&e.kind, EventKind::Panic { message } if message.contains("forced panic"))
            ),
            "panic event missing"
        );
        assert!(bench_events(&outcome, &events, "lat_sig")
            .iter()
            .any(|e| matches!(e.kind, EventKind::Timeout { limit_ms: 150 })));
        let fs = bench_events(&outcome, &events, "lat_fs");
        assert!(fs
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Probe { ok: false, .. })));
        assert!(fs.iter().any(|e| matches!(&e.kind, EventKind::Skip { .. })));
    }

    #[test]
    fn quick_preset_measures_every_benchmark_alone() {
        // None of these is exclusive: the quick preset must still measure
        // each alone, so no record may be flagged contended.
        let engine = engine_for(
            &["sys_info", "lat_syscall", "lat_sig"],
            SuiteConfig::quick(),
        );
        let (outcome, events) = traced_execute(&engine);
        assert_eq!(outcome.report.count("ok"), 3, "{:?}", outcome.report);
        for rec in &outcome.report.records {
            let usage = rec.rusage.as_ref().expect("real attempts archive rusage");
            assert!(!usage.contended, "{} measured beside a neighbour", rec.name);
        }
        let (mut starts, mut schedules) = (0, 0);
        for e in &events {
            match &e.kind {
                EventKind::SuiteStart { workers, .. } => {
                    starts += 1;
                    assert_eq!(*workers, 1);
                }
                EventKind::Schedule { bench, worker } => {
                    schedules += 1;
                    assert_eq!(*worker, 0, "{bench} scheduled on worker {worker}");
                }
                _ => {}
            }
        }
        assert_eq!((starts, schedules), (1, 3));
    }

    #[test]
    fn untraced_run_records_no_span_ids() {
        let outcome = engine_for(&["sys_info"], SuiteConfig::quick()).execute();
        assert_eq!(outcome.report.find("sys_info").unwrap().span, None);
    }

    /// Runs a pool entry and an exclusive entry whose bodies record the
    /// thread they ran on; returns (bench name, thread id, thread name).
    fn attempt_threads(clock: Clock) -> Vec<(&'static str, std::thread::ThreadId, String)> {
        use crate::output::BenchOutput;
        use crate::registry::{BenchRunner, Category};
        use std::sync::Mutex;
        let seen = Arc::new(Mutex::new(Vec::new()));
        let bench = |name: &'static str, exclusive: bool| {
            let seen = Arc::clone(&seen);
            let runner: BenchRunner = Arc::new(move |_| {
                let me = std::thread::current();
                let thread_name = me.name().unwrap_or_default().to_string();
                seen.lock().unwrap().push((name, me.id(), thread_name));
                BenchOutput::new()
            });
            Benchmark::scripted(name, "thread probe", Category::Latency, exclusive, runner)
        };
        let registry = Registry::custom(vec![bench("pooled", false), bench("alone", true)]);
        let outcome = Engine::new(registry, SuiteConfig::quick())
            .unwrap()
            .with_clock(clock)
            .execute();
        assert_eq!(outcome.report.count("ok"), 2, "{:?}", outcome.report);
        let seen = seen.lock().unwrap().clone();
        assert_eq!(seen.len(), 2, "{seen:?}");
        seen
    }

    #[test]
    fn virtual_attempts_run_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for (name, thread, _) in attempt_threads(Clock::Sim(SimClock::new(3))) {
            assert_eq!(thread, caller, "{name} left the thread that called execute");
        }
    }

    #[test]
    fn real_attempts_run_on_their_own_bench_thread() {
        let caller = std::thread::current().id();
        for (name, thread, thread_name) in attempt_threads(Clock::Real) {
            assert_ne!(thread, caller, "{name} ran on the calling thread");
            assert_eq!(thread_name, format!("bench-{name}"));
        }
    }

    /// Runs one scripted benchmark that measures with `ctx.harness` on a
    /// non-default sim profile; returns the record's provenance as JSON and
    /// what the runner saw of its harness: (pinned clock info, whether one
    /// read through the harness's clock was one read of the engine's sim).
    fn virtual_run(seed: u64) -> (String, ClockInfo, bool) {
        use crate::output::BenchOutput;
        use crate::registry::{BenchRunner, Category};
        use std::sync::Mutex;
        let sim = SimClock::new(seed)
            .with_resolution_ns(100.0)
            .with_read_overhead_ns(40.0)
            .with_read_jitter_ns(5.0);
        let seen = Arc::new(Mutex::new(None));
        let runner: BenchRunner = {
            let (sim, seen) = (sim.clone(), Arc::clone(&seen));
            Arc::new(move |ctx| {
                let before = sim.reads();
                ctx.harness.source().now_ns();
                let shared = sim.reads() == before + 1;
                *seen.lock().unwrap() = Some((ctx.harness.clock(), shared));
                let body = sim.scripted_body(lmb_timing::CostModel::Noisy {
                    base_ns: 900.0,
                    spread_ns: 300.0,
                });
                ctx.harness.measure(body);
                BenchOutput::new()
            })
        };
        let bench = Benchmark::scripted("scripted", "virtual", Category::Latency, false, runner);
        let outcome = Engine::new(Registry::custom(vec![bench]), SuiteConfig::quick())
            .unwrap()
            .with_clock(Clock::Sim(sim))
            .execute();
        let record = outcome.report.find("scripted").expect("record");
        assert_eq!(record.status, BenchStatus::Ok, "{record:?}");
        let provenance = serde_json::to_string(&record.provenance).unwrap();
        let (info, shared) = seen.lock().unwrap().take().expect("runner ran");
        (provenance, info, shared)
    }

    #[test]
    fn virtual_runs_measure_with_a_context_harness_on_the_engine_sim() {
        let (provenance, info, shared) = virtual_run(41);
        assert!(shared, "the context harness reads another clock");
        let pinned = ClockInfo {
            resolution_ns: 100.0,
            overhead_ns: 40.0,
        };
        assert_eq!(info, pinned, "the sim profile is pinned, not probed");
        assert!(
            provenance.contains("\"clock_resolution_ns\":100.0"),
            "{provenance}"
        );
        assert_eq!(virtual_run(41).0, provenance, "same seed, other provenance");
    }

    #[test]
    fn substrate_probes_pass_on_a_healthy_machine() {
        for s in [Substrate::DevNull, Substrate::Loopback, Substrate::TempDir] {
            assert_eq!(s.probe(), Ok(()), "{}", s.describe());
        }
    }
}
