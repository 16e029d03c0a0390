//! Load generation: the paper's numbers under concurrency and offered load.
//!
//! Every measurement in the paper is one client against one resource
//! (§3.2 "lmbench measures the performance of the primitive" — alone).
//! A [`LoadRunner`] asks what happens under load, driving the same
//! [`LoadGen`] generators through one point driver on two ladders:
//!
//! - the P ladder ([`LoadRunner::scale`]) releases P = 1, 2, 4, …
//!   generators together, each under its own [`Harness`], into a
//!   [`ScalingCurve`]: aggregate throughput, pooled p50/p99
//!   latency-under-load, parallel efficiency against P = 1, and a grade;
//! - the rate ladder ([`LoadRunner::run_target`]) offers one generator
//!   scheduled arrivals at fractions of its probed peak rate, open- and
//!   closed-loop, into [`RateSweep`]s that stop at the knee; the gap
//!   between the modes is the coordinated omission a closed loop hides.
//!
//! Fault isolation matches the engine's contract: a generator that
//! panics, cannot be built, or loses its transport fails only its own
//! point; the sweep continues and records the failure.

use crate::config::SuiteConfig;
use crate::engine::{panic_message, probe_substrates, provenance_from, EngineClock, Substrate};
use crate::error::SuiteError;
use lmb_results::{
    BenchRecord, BenchStatus, GeneratorSample, MetricValue, RatePoint, RateSweep, ScalePoint,
    ScalingCurve,
};
use lmb_timing::{
    new_recorder, take_events, ArrivalProcess, ClockInfo, CostModel, Harness, MeasureEvent,
    Options, Quality, Samples, SimClock, TimeSource,
};
use lmb_trace::{emit, ContextGuard, EventKind, Span};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::Duration;

/// One generator's repeated operation: the benchmark body a load point
/// multiplies. `Send` is a supertrait because generators past the first
/// of a point are moved onto their own threads.
pub trait LoadGen: Send {
    /// Performs one operation (one copy, one round trip, one chunk).
    fn op(&mut self);

    /// The virtual clock this generator advances, when it is a scripted
    /// simulation generator rather than a real one. A `Some` return makes
    /// the runner time this generator against that clock (pinned
    /// resolution, no hardware probe) so a whole sweep can run in virtual
    /// milliseconds.
    fn sim_clock(&self) -> Option<SimClock> {
        None
    }

    /// The first error this generator's `op()` hit, when its transport
    /// can fail transiently (a socket round trip, say). A failed
    /// generator must keep `op()` a cheap no-op — the runner polls this
    /// after (or between) operations and fail the point with the
    /// underlying error instead of panicking mid-measurement.
    fn failure(&self) -> Option<String> {
        None
    }
}

/// A scalable benchmark: how to build one load generator and how to
/// interpret what it does.
pub struct LoadSpec {
    /// Benchmark name (`bw_mem`, `lat_pipe`, ...), matching the suite
    /// registry where the plain benchmark exists.
    pub name: &'static str,
    /// What the curve reports, for humans.
    pub produces: &'static str,
    /// Throughput unit: `MB/s` when operations move bytes, `ops/s` for
    /// round trips.
    pub unit: &'static str,
    /// OS facilities every generator needs; probed before the sweep.
    pub requires: &'static [Substrate],
    /// Bytes one operation moves (0 for latency benchmarks).
    pub bytes_per_op: fn(&SuiteConfig) -> u64,
    /// Operations per timed repetition.
    pub ops_per_rep: fn(&SuiteConfig) -> u64,
    /// Builds one generator (its own buffers / pipe / socket / process),
    /// so P generators share nothing but the machine.
    pub make: fn(&SuiteConfig) -> Result<Box<dyn LoadGen>, String>,
}

struct MemCopyGen(lmb_mem::bw::CopyBuffers);

impl LoadGen for MemCopyGen {
    fn op(&mut self) {
        lmb_mem::bw::bcopy_unrolled(&mut self.0);
    }
}

struct PipeLatGen(lmb_ipc::PipeEchoPair);

impl LoadGen for PipeLatGen {
    fn op(&mut self) {
        self.0.round_trip();
    }
}

struct UnixLatGen {
    pair: lmb_ipc::UnixEchoPair,
    error: Option<String>,
}

impl LoadGen for UnixLatGen {
    fn op(&mut self) {
        // A transient socket error fails the point through `failure()`,
        // not a panic; once failed, further ops are no-ops.
        if self.error.is_none() {
            if let Err(e) = self.pair.round_trip() {
                self.error = Some(format!("unix round trip: {e}"));
            }
        }
    }

    fn failure(&self) -> Option<String> {
        self.error.clone()
    }
}

struct TcpLatGen {
    pair: lmb_ipc::TcpEchoPair,
    error: Option<String>,
}

impl LoadGen for TcpLatGen {
    fn op(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.pair.round_trip() {
                self.error = Some(format!("tcp round trip: {e}"));
            }
        }
    }

    fn failure(&self) -> Option<String> {
        self.error.clone()
    }
}

struct PipeBwGen(lmb_ipc::PipeSink);

impl LoadGen for PipeBwGen {
    fn op(&mut self) {
        self.0.write_chunk();
    }
}

struct TcpBwGen(lmb_ipc::TcpSink);

impl LoadGen for TcpBwGen {
    fn op(&mut self) {
        self.0.write_chunk();
    }
}

/// Round trips per repetition for the latency generators: enough to
/// resolve above clock noise, capped so a P-way sweep stays quick.
fn round_trip_ops(config: &SuiteConfig) -> u64 {
    (config.round_trips as u64).clamp(1, 500)
}

/// Chunks per repetition for the streaming generators.
fn stream_ops(config: &SuiteConfig, chunk: usize) -> u64 {
    ((config.stream_total / chunk) as u64).clamp(1, 256)
}

/// Every scalable benchmark: one byte mover per transport plus the
/// latency path of each IPC primitive the paper tables.
#[must_use]
pub fn scale_registry() -> Vec<LoadSpec> {
    vec![
        LoadSpec {
            name: "bw_mem",
            produces: "aggregate bcopy bandwidth under P copiers",
            unit: "MB/s",
            requires: &[],
            bytes_per_op: |c| c.copy_bytes as u64,
            ops_per_rep: |_| 8,
            make: |c| {
                Ok(Box::new(MemCopyGen(lmb_mem::bw::CopyBuffers::new(
                    c.copy_bytes,
                ))))
            },
        },
        LoadSpec {
            name: "lat_pipe",
            produces: "pipe round-trip rate under P process pairs",
            unit: "ops/s",
            requires: &[],
            bytes_per_op: |_| 0,
            ops_per_rep: round_trip_ops,
            make: |_| Ok(Box::new(PipeLatGen(lmb_ipc::PipeEchoPair::start()?))),
        },
        LoadSpec {
            name: "lat_unix",
            produces: "Unix-socket round-trip rate under P client/server pairs",
            unit: "ops/s",
            requires: &[Substrate::TempDir],
            bytes_per_op: |_| 0,
            ops_per_rep: round_trip_ops,
            make: |_| {
                let pair = lmb_ipc::UnixEchoPair::start().map_err(|e| format!("unix pair: {e}"))?;
                Ok(Box::new(UnixLatGen { pair, error: None }))
            },
        },
        LoadSpec {
            name: "lat_tcp",
            produces: "loopback TCP round-trip rate under P connections",
            unit: "ops/s",
            requires: &[Substrate::Loopback],
            bytes_per_op: |_| 0,
            ops_per_rep: round_trip_ops,
            make: |_| {
                let pair = lmb_ipc::TcpEchoPair::start().map_err(|e| format!("tcp pair: {e}"))?;
                Ok(Box::new(TcpLatGen { pair, error: None }))
            },
        },
        LoadSpec {
            name: "bw_pipe",
            produces: "aggregate pipe bandwidth under P writer/reader pairs",
            unit: "MB/s",
            requires: &[],
            bytes_per_op: |_| lmb_ipc::PIPE_CHUNK as u64,
            ops_per_rep: |c| stream_ops(c, lmb_ipc::PIPE_CHUNK),
            make: |_| {
                Ok(Box::new(PipeBwGen(lmb_ipc::PipeSink::start(
                    lmb_ipc::PIPE_CHUNK,
                )?)))
            },
        },
        LoadSpec {
            name: "bw_tcp",
            produces: "aggregate loopback TCP bandwidth under P connections",
            unit: "MB/s",
            requires: &[Substrate::Loopback],
            bytes_per_op: |_| lmb_ipc::TCP_CHUNK as u64,
            ops_per_rep: |c| stream_ops(c, lmb_ipc::TCP_CHUNK),
            make: |_| {
                let sink = lmb_ipc::TcpSink::start(lmb_ipc::TCP_CHUNK, lmb_ipc::TCP_SOCKBUF)?;
                Ok(Box::new(TcpBwGen(sink)))
            },
        },
    ]
}

/// Looks up one scalable benchmark by name.
#[must_use]
pub fn find_scale_spec(name: &str) -> Option<LoadSpec> {
    scale_registry().into_iter().find(|s| s.name == name)
}

/// Injected scaling failures, for tests and fault drills.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScaleFaultPlan {
    /// Panic the last generator of this `(bench, p)` point.
    pub panic_at: Option<(String, u32)>,
}

impl ScaleFaultPlan {
    /// Reads `LMBENCH_FAULT_SCALE_PANIC="bench@p"` so drills can target a
    /// released binary.
    #[must_use]
    pub fn from_env() -> Self {
        let panic_at = std::env::var("LMBENCH_FAULT_SCALE_PANIC")
            .ok()
            .and_then(|v| {
                let (bench, p) = v.split_once('@')?;
                Some((bench.to_string(), p.parse().ok()?))
            });
        ScaleFaultPlan { panic_at }
    }

    /// Targets one point directly.
    #[must_use]
    pub fn panic_at(bench: &str, p: u32) -> Self {
        ScaleFaultPlan {
            panic_at: Some((bench.to_string(), p)),
        }
    }

    fn hits(&self, bench: &str, p: u32) -> bool {
        self.panic_at
            .as_ref()
            .is_some_and(|(b, fp)| b == bench && *fp == p)
    }
}

/// Pacing discipline of a rate point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMode {
    /// Arrivals fire on a pre-computed schedule; each operation's latency
    /// is measured from its *intended* start time, so queueing delay when
    /// the service falls behind is counted, not dropped.
    Open,
    /// The next operation is paced from the previous one's *completion*:
    /// latency is service time only, and delays never accumulate. This is
    /// the coordinated-omission bug made explicit, kept as the comparison
    /// arm so the gap between the two modes is itself a metric.
    Closed,
}

impl LoadMode {
    /// Stable label for reports and trace lines.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            LoadMode::Open => "open",
            LoadMode::Closed => "closed",
        }
    }
}

/// Offered-rate ladder, as fractions of the probed peak service rate.
/// Fractions rather than absolute rates keep metric labels stable across
/// runs (the probed peak varies run to run on real hardware), so sweep
/// metrics stay diffable. The ladder crosses 1.0 because the omission gap
/// only opens once the offered rate approaches and passes what the
/// service can sustain.
pub const LADDER_FRACTIONS: [f64; 7] = [0.3, 0.5, 0.7, 0.85, 1.0, 1.15, 1.3];

/// Builds one fresh load generator per call, so a point's backlog (a full
/// pipe, a wedged socket) cannot leak into the next point.
pub type MakeGen<'a> = &'a dyn Fn() -> Result<Box<dyn LoadGen>, String>;

/// A scripted open-loop service for virtual sweeps: `op()` advances a
/// shared [`SimClock`] by a seeded service-time model, so a whole rate
/// sweep — arrivals, queueing, knee — runs in virtual milliseconds and is
/// a deterministic function of the seed.
pub struct SimServerGen {
    clock: SimClock,
    body: Box<dyn FnMut() + Send>,
}

impl SimServerGen {
    /// Scripts one server whose per-op service time follows `model`.
    #[must_use]
    pub fn new(clock: &SimClock, model: CostModel) -> Self {
        SimServerGen {
            clock: clock.clone(),
            body: Box::new(clock.scripted_body(model)),
        }
    }
}

impl LoadGen for SimServerGen {
    fn op(&mut self) {
        (self.body)();
    }

    fn sim_clock(&self) -> Option<SimClock> {
        Some(self.clock.clone())
    }
}

/// What each generator of a point does once the start barrier releases it.
#[derive(Clone, Copy)]
enum Body {
    /// `measure_block` repetitions of this many ops: a P-ladder point.
    Harness(u64),
    /// The runner's `ops` ops, unpaced, between exactly two clock reads:
    /// the peak probe.
    Burst,
    /// The runner's `ops` arrivals under a pacing discipline: a rate point.
    Paced(LoadMode, ArrivalProcess),
}

/// What one generator measured.
#[derive(Default)]
struct GenRun {
    /// Per-op latency samples, ns: per repetition (`Harness`) or per
    /// arrival (`Paced`).
    samples: Samples,
    /// Operations completed.
    ops: u64,
    /// Arrivals whose service started after their intended time.
    late: u64,
    /// Worst start lag behind the schedule, ns.
    max_lag_ns: f64,
    /// Span from release to the last completion, ns.
    elapsed_ns: f64,
    /// The harness's provenance events.
    events: Vec<MeasureEvent>,
}

/// Drives one generator through `ops` operations under the given pacing
/// discipline, timed against `source` (the generator's own virtual clock
/// for scripted runs, the host clock otherwise). Stops at the first
/// transport failure, which the caller reads back from the generator.
fn paced_run<T: TimeSource>(
    source: &T,
    gen: &mut dyn LoadGen,
    mode: LoadMode,
    process: &ArrivalProcess,
    ops: u64,
) -> GenRun {
    let mut schedule = process.schedule();
    let closed_gap_ns = 1e9 / process.rate_per_s();
    let mut latencies_ns = Vec::with_capacity(ops as usize);
    let mut late = 0u64;
    let mut max_lag_ns = 0.0f64;
    let t_base = source.now_ns();
    for i in 0..ops {
        let (origin_ns, done_ns) = match mode {
            LoadMode::Open => {
                let t_arr = t_base + schedule.next_arrival_ns();
                // The first arrival is scheduled at the epoch itself;
                // reading the clock again to check it would charge the
                // read's own overhead as a fake late start.
                let now = if i == 0 { t_base } else { source.now_ns() };
                if now < t_arr {
                    source.sleep(Duration::from_nanos((t_arr - now) as u64));
                } else if now > t_arr {
                    // The service is behind schedule: this arrival queues.
                    late += 1;
                    max_lag_ns = max_lag_ns.max(now - t_arr);
                }
                gen.op();
                (t_arr, source.now_ns())
            }
            LoadMode::Closed => {
                let start = source.now_ns();
                gen.op();
                let done = source.now_ns();
                // Pace from completion: the generator throttles itself to
                // the offered rate only while the service keeps up, and
                // never notices falling behind.
                let idle_ns = closed_gap_ns - (done - start);
                if idle_ns > 0.0 {
                    source.sleep(Duration::from_nanos(idle_ns as u64));
                }
                (start, done)
            }
        };
        if gen.failure().is_some() {
            break;
        }
        latencies_ns.push((done_ns - origin_ns).max(0.0));
    }
    GenRun {
        ops: latencies_ns.len() as u64,
        elapsed_ns: (source.now_ns() - t_base).max(0.0),
        samples: Samples::from_values(latencies_ns),
        late,
        max_lag_ns,
        events: Vec::new(),
    }
}

/// A generator's own harness, timed against its own clock: a scripted
/// generator's virtual clock with a pinned resolution (no hardware probe,
/// so the point is deterministic), the probed host clock otherwise.
fn generator_harness(gen: &dyn LoadGen, options: Options) -> Harness<EngineClock> {
    let (clock, info) = match gen.sim_clock() {
        Some(sim) => (
            EngineClock::Sim(sim),
            ClockInfo {
                resolution_ns: 1.0,
                overhead_ns: 15.0,
            },
        ),
        None => (EngineClock::default(), ClockInfo::probe()),
    };
    Harness::with_source_and_clock(options, clock, info).with_recorder(new_recorder())
}

/// A trace-only clock reading: virtual ground truth, which charges no
/// read and so leaves the measurement it brackets undisturbed, or the
/// host clock.
fn span_ns(clock: &EngineClock) -> f64 {
    clock
        .sim()
        .map_or_else(|| clock.now_ns(), SimClock::true_now_ns)
}

/// Sustained rate implied by a mean per-op time: MB/s when the op moves
/// bytes, ops/s otherwise; 0.0 when the clock could not resolve the op.
fn per_op_rate(mean_ns: f64, bytes_per_op: u64) -> f64 {
    if mean_ns <= 0.0 {
        return 0.0;
    }
    let ops_per_s = 1e9 / mean_ns;
    if bytes_per_op > 0 {
        ops_per_s * bytes_per_op as f64 / (1 << 20) as f64
    } else {
        ops_per_s
    }
}

/// A P-point that produced no numbers, only a reason.
fn failed_point(p: u32, reason: String) -> ScalePoint {
    ScalePoint {
        p,
        quality: Quality::Suspect.label().to_string(),
        error: Some(reason),
        ..ScalePoint::default()
    }
}

/// A rate point that produced no numbers, only a reason.
fn failed_rate_point(offered_per_s: f64, reason: String) -> RatePoint {
    RatePoint {
        offered_per_s,
        quality: Quality::Suspect.label().to_string(),
        error: Some(reason),
        ..RatePoint::default()
    }
}

/// Runs a benchmark's generators under load on two ladders: the P ladder
/// ([`LoadRunner::scale`]) and the rate ladder
/// ([`LoadRunner::run_target`]).
pub struct LoadRunner {
    config: SuiteConfig,
    clock: EngineClock,
    /// Arrival-process shape and seed; the rate is replaced per point.
    process: ArrivalProcess,
    /// Scheduled arrivals per rate point, and the peak probe's burst.
    ops: u64,
    /// Largest generator count the P ladder visits.
    max_p: u32,
    faults: ScaleFaultPlan,
}

impl LoadRunner {
    /// Builds a runner; rejects invalid configurations. Defaults: uniform
    /// arrivals, the config's round-trip count (at least 64 so p99 has
    /// tail samples to stand on) per rate point, P up to 4.
    pub fn new(config: SuiteConfig) -> Result<Self, SuiteError> {
        config.validate()?;
        let ops = round_trip_ops(&config).max(64);
        Ok(LoadRunner {
            config,
            clock: EngineClock::default(),
            process: ArrivalProcess::uniform(1.0),
            ops,
            max_p: 4,
            faults: ScaleFaultPlan::default(),
        })
    }

    /// Replaces the runner's wall clock (virtual runs pass
    /// [`EngineClock::Sim`] so report wall times are deterministic).
    #[must_use]
    pub fn with_clock(mut self, clock: EngineClock) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the arrival-process shape (and seed, for Poisson); its rate
    /// is a placeholder the sweep replaces per point.
    #[must_use]
    pub fn with_process(mut self, process: ArrivalProcess) -> Self {
        self.process = process;
        self
    }

    /// Sets scheduled arrivals per rate point (minimum 1).
    #[must_use]
    pub fn with_ops(mut self, ops: u64) -> Self {
        self.ops = ops.max(1);
        self
    }

    /// Sets the largest generator count (default 4, minimum 1).
    #[must_use]
    pub fn with_max_p(mut self, max_p: u32) -> Self {
        self.max_p = max_p.max(1);
        self
    }

    /// Installs a fault plan (tests, drills).
    #[must_use]
    pub fn with_faults(mut self, faults: ScaleFaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The P values the P ladder visits: powers of two up to `max_p`,
    /// plus `max_p` itself when it is not a power of two.
    #[must_use]
    pub fn points(&self) -> Vec<u32> {
        let mut ps = Vec::new();
        let mut p = 1u32;
        while p <= self.max_p {
            ps.push(p);
            p = p.saturating_mul(2);
        }
        if *ps.last().expect("at least P=1") != self.max_p {
            ps.push(self.max_p);
        }
        ps
    }

    /// The P ladder: sweeps one benchmark over [`LoadRunner::points`] and
    /// returns its curve plus a synthesized report record (so curves ride
    /// the existing report/diff machinery).
    pub fn scale(&self, spec: &LoadSpec) -> (ScalingCurve, BenchRecord) {
        let curve = ScalingCurve {
            bench: spec.name.to_string(),
            unit: spec.unit.to_string(),
            points: Vec::new(),
        };
        let run = |curve: &mut ScalingCurve, record: &mut BenchRecord| {
            emit(|| EventKind::ScaleStart {
                bench: spec.name.to_string(),
                max_p: self.max_p,
            });
            let mut events = Vec::new();
            for p in self.points() {
                let point = self.scale_point(spec, p, &mut events);
                if point.is_ok() {
                    emit(|| EventKind::ScalePoint {
                        p: point.p,
                        throughput: point.throughput,
                        unit: spec.unit.to_string(),
                        p50_us: point.p50_us,
                        p99_us: point.p99_us,
                        quality: point.quality.clone(),
                    });
                }
                curve.points.push(point);
            }
            curve.compute_efficiency();
            for pt in curve.ok_points() {
                for (label, value, unit) in [
                    ("tput", pt.throughput, spec.unit),
                    ("p50", pt.p50_us, "us"),
                    ("p99", pt.p99_us, "us"),
                ] {
                    record.metrics.push(MetricValue {
                        label: format!("p{} {label}", pt.p),
                        value,
                        unit: unit.to_string(),
                    });
                }
            }
            record.provenance = provenance_from(&events);
            Ok(())
        };
        self.ladder("scale", spec.name, spec.produces, spec.requires, curve, run)
    }

    /// One P-point: P generators under their own harnesses, folded into
    /// aggregate throughput and latency percentiles over the pooled
    /// cross-generator samples.
    fn scale_point(&self, spec: &LoadSpec, p: u32, events: &mut Vec<MeasureEvent>) -> ScalePoint {
        let make = || (spec.make)(&self.config);
        let ops = (spec.ops_per_rep)(&self.config).max(1);
        let runs = match self.drive(&make, p, Body::Harness(ops), self.faults.hits(spec.name, p)) {
            Ok(runs) => runs,
            Err(reason) => return failed_point(p, reason),
        };
        let bytes_per_op = (spec.bytes_per_op)(&self.config);
        let mut generators = Vec::with_capacity(runs.len());
        let mut pooled: Vec<f64> = Vec::new();
        let mut total_ops = 0u64;
        let mut aggregate = 0.0f64;
        for (index, run) in runs.into_iter().enumerate() {
            let rate = per_op_rate(run.samples.mean().unwrap_or(0.0), bytes_per_op);
            emit(|| EventKind::Generator {
                p,
                index: index as u32,
                ops: run.ops,
                elapsed_ms: run.elapsed_ns / 1e6,
            });
            generators.push(GeneratorSample {
                index: index as u32,
                throughput: rate,
                cv: run.samples.cv(),
                quality: Quality::from_samples(&run.samples).label().to_string(),
            });
            aggregate += rate;
            total_ops += run.ops;
            pooled.extend_from_slice(run.samples.values());
            events.extend(run.events);
        }

        let pool = Samples::from_values(pooled);
        let sorted = pool.sorted();
        // An empty pool has no percentiles. It must fail the point, never
        // emit p50/p99 = 0.0: a zero latency reads as "fastest ever" to
        // the lower-is-better differ and would mask a regression.
        let (Some(p50), Some(p99)) = (sorted.p50(), sorted.p99()) else {
            return failed_point(p, "no latency samples were collected".to_string());
        };
        ScalePoint {
            p,
            ops: total_ops,
            throughput: aggregate,
            p50_us: p50 / 1e3,
            p99_us: p99 / 1e3,
            cv: pool.cv(),
            quality: Quality::from_sorted(&sorted).label().to_string(),
            efficiency: None,
            generators,
            error: None,
        }
    }

    /// Peak closed-loop service rate, ops/s, from one unpaced burst of a
    /// fresh generator — the denominator the rate ladder scales.
    pub fn probe_peak(&self, make: MakeGen) -> Result<f64, String> {
        let run = self.drive(make, 1, Body::Burst, false)?.remove(0);
        if run.elapsed_ns <= 0.0 {
            return Err("service burst took no measurable time".to_string());
        }
        Ok(run.ops as f64 * 1e9 / run.elapsed_ns)
    }

    /// Measures one offered rate in one mode with a fresh generator.
    pub fn run_point(&self, make: MakeGen, mode: LoadMode, rate_per_s: f64) -> RatePoint {
        let body = Body::Paced(mode, self.process.at_rate(rate_per_s));
        let run = match self.drive(make, 1, body, false) {
            Ok(mut runs) => runs.remove(0),
            Err(reason) => return failed_rate_point(rate_per_s, reason),
        };
        let sorted = run.samples.sorted();
        // Same contract as the P ladder: no percentiles, no point — a
        // fabricated 0.0 latency would read as an improvement.
        let (Some(p50), Some(p99)) = (sorted.p50(), sorted.p99()) else {
            return failed_rate_point(rate_per_s, "no latency samples were collected".to_string());
        };
        let point = RatePoint {
            offered_per_s: rate_per_s,
            achieved_per_s: if run.elapsed_ns > 0.0 {
                run.ops as f64 * 1e9 / run.elapsed_ns
            } else {
                0.0
            },
            ops: run.ops,
            late: run.late,
            max_lag_us: run.max_lag_ns / 1e3,
            p50_us: p50 / 1e3,
            p99_us: p99 / 1e3,
            cv: run.samples.cv(),
            quality: Quality::from_sorted(&sorted).label().to_string(),
            error: None,
        };
        emit(|| EventKind::RatePoint {
            offered_per_s: point.offered_per_s,
            achieved_per_s: point.achieved_per_s,
            mode: mode.label().to_string(),
            p50_us: point.p50_us,
            p99_us: point.p99_us,
            quality: point.quality.clone(),
        });
        if point.late > 0 {
            emit(|| EventKind::Backlog {
                offered_per_s: point.offered_per_s,
                late: point.late,
                max_lag_us: point.max_lag_us,
            });
        }
        point
    }

    /// Sweeps one mode up the given rate ladder, stopping after the first
    /// saturated point (the knee is included, then the sweep ends).
    pub fn sweep(&self, bench: &str, make: MakeGen, mode: LoadMode, rates: &[f64]) -> RateSweep {
        emit(|| EventKind::SweepStart {
            bench: bench.to_string(),
            mode: mode.label().to_string(),
            process: self.process.label().to_string(),
        });
        let mut sweep = RateSweep {
            bench: bench.to_string(),
            mode: mode.label().to_string(),
            process: self.process.label().to_string(),
            points: Vec::new(),
            knee: None,
        };
        for &rate in rates {
            let point = self.run_point(make, mode, rate);
            sweep.points.push(point);
            sweep.mark_knee();
            if sweep.knee.is_some() {
                break;
            }
        }
        sweep
    }

    /// The rate ladder: probes the peak rate, sweeps every requested mode
    /// up the same fraction ladder, and synthesizes a report record whose
    /// metric rows (per-fraction throughput and p99, plus the omission gap
    /// when both modes ran) ride the existing report/diff machinery.
    pub fn run_target(
        &self,
        bench: &str,
        produces: &str,
        requires: &[Substrate],
        make: MakeGen,
        modes: &[LoadMode],
    ) -> (Vec<RateSweep>, BenchRecord) {
        let run = |sweeps: &mut Vec<RateSweep>, record: &mut BenchRecord| {
            let peak = self
                .probe_peak(make)
                .map_err(|e| format!("peak probe: {e}"))?;
            let rates: Vec<f64> = LADDER_FRACTIONS.iter().map(|f| peak * f).collect();
            for &mode in modes {
                sweeps.push(self.sweep(bench, make, mode, &rates));
            }
            for sweep in sweeps.iter() {
                for (pt, f) in sweep.points.iter().zip(LADDER_FRACTIONS) {
                    if !pt.is_ok() {
                        continue;
                    }
                    for (label, value, unit) in [
                        ("tput", pt.achieved_per_s, "ops/s"),
                        ("p99", pt.p99_us, "us"),
                    ] {
                        record.metrics.push(MetricValue {
                            label: format!("{} f{f:.2} {label}", sweep.mode),
                            value,
                            unit: unit.to_string(),
                        });
                    }
                }
            }
            if let Some((f, gap)) = omission_gap(sweeps) {
                record.metrics.push(MetricValue {
                    label: format!("omission gap f{f:.2}"),
                    value: gap,
                    unit: "x".to_string(),
                });
            }
            Ok(())
        };
        self.ladder("load", bench, produces, requires, Vec::new(), run)
    }

    /// The record skeleton both ladders share: a `{kind}:{bench}` span, a
    /// `{kind}_{bench}` record, a skip when a required substrate is
    /// missing, then `run` fills `out` and the record's metrics and
    /// provenance. A ladder that returns an error, or pushes no metric row
    /// (every point failed), fails the record.
    fn ladder<T>(
        &self,
        kind: &str,
        bench: &str,
        produces: &str,
        requires: &[Substrate],
        mut out: T,
        run: impl FnOnce(&mut T, &mut BenchRecord) -> Result<(), String>,
    ) -> (T, BenchRecord) {
        let started = self.clock.now_ns();
        let span = Span::enter(format!("{kind}:{bench}"));
        let mut record = BenchRecord {
            name: format!("{kind}_{bench}"),
            produces: produces.to_string(),
            status: BenchStatus::Ok,
            attempts: 1,
            wall_ms: 0.0,
            // A sweep owns the machine by design; never pooled.
            exclusive: true,
            provenance: None,
            rusage: None,
            counters: None,
            metrics: Vec::new(),
            span: span.id().as_option(),
        };
        let wall_ms = || (self.clock.now_ns() - started).max(0.0) / 1e6;
        if let Err(reason) = probe_substrates(requires) {
            record.status = BenchStatus::Skipped(reason);
            record.wall_ms = wall_ms();
            return (out, record);
        }
        match run(&mut out, &mut record) {
            Err(reason) => record.status = BenchStatus::Failed(reason),
            Ok(()) if record.metrics.is_empty() => {
                record.status = BenchStatus::Failed("every point failed".to_string());
            }
            Ok(()) => {}
        }
        record.wall_ms = wall_ms();
        emit(|| EventKind::Outcome {
            status: record.status.label().to_string(),
            attempts: 1,
            wall_ms: record.wall_ms,
        });
        (out, record)
    }

    /// The one point driver. Builds P generators serially on the calling
    /// thread, so a failed setup fails the point before anyone parks on
    /// the start barrier; then releases them together — generator 0 on
    /// the calling thread, 1..P-1 on scoped threads, so P = 1 spawns no
    /// thread — and runs `body` on each against its own harness. A panic
    /// or a transport failure fails the point; `fault` panics the last
    /// generator.
    fn drive(&self, make: MakeGen, p: u32, body: Body, fault: bool) -> Result<Vec<GenRun>, String> {
        // Errors name the generator only when there are several.
        let gens = (0..p as usize)
            .map(|index| {
                make().map_err(|e| match p {
                    1 => format!("generator setup failed: {e}"),
                    _ => format!("generator {index} setup failed: {e}"),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let barrier = Barrier::new(gens.len());
        let options = self.config.options;
        let run = |index: usize, mut gen: Box<dyn LoadGen>| {
            let harness = generator_harness(gen.as_ref(), options);
            barrier.wait();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if fault && index + 1 == p as usize {
                    panic!("injected fault: scale generator panic");
                }
                self.run_body(&harness, gen.as_mut(), body)
            }));
            // A generator that swallowed a transport error mid-run measured
            // no-ops after the failure; its numbers are void and the
            // underlying io error fails the point.
            outcome
                .map_err(panic_message)
                .and_then(|run| gen.failure().map_or(Ok(run), Err))
                .map_err(|e| match p {
                    1 => e,
                    _ => format!("generator {index}: {e}"),
                })
        };
        let run = &run;
        let span = &lmb_trace::current();
        let mut gens = gens.into_iter().enumerate();
        let (_, first) = gens.next().expect("at least one generator");
        std::thread::scope(|scope| {
            let others: Vec<_> = gens
                .map(|(index, gen)| {
                    scope.spawn(move || {
                        let _trace_ctx = ContextGuard::enter(span);
                        run(index, gen)
                    })
                })
                .collect();
            let joined = others
                .into_iter()
                .map(|h| h.join().expect("generator panics are caught inside"));
            std::iter::once(run(0, first)).chain(joined).collect()
        })
    }

    /// Runs one released generator's body against its harness's clock.
    fn run_body(&self, h: &Harness<EngineClock>, gen: &mut dyn LoadGen, body: Body) -> GenRun {
        let clock = h.source();
        match body {
            Body::Harness(ops) => {
                let t0 = span_ns(clock);
                let m = h.measure_block(ops, || {
                    for _ in 0..ops {
                        gen.op();
                    }
                });
                let samples = m.samples().clone();
                GenRun {
                    ops: ops * samples.len() as u64,
                    elapsed_ns: span_ns(clock) - t0,
                    events: take_events(&h.recorder().expect("generator harnesses record")),
                    samples,
                    ..GenRun::default()
                }
            }
            Body::Burst => {
                let t0 = clock.now_ns();
                for _ in 0..self.ops {
                    gen.op();
                }
                GenRun {
                    ops: self.ops,
                    elapsed_ns: clock.now_ns() - t0,
                    ..GenRun::default()
                }
            }
            Body::Paced(mode, process) => paced_run(clock, gen, mode, &process, self.ops),
        }
    }
}

/// The omission gap: open-loop p99 over closed-loop p99 at the highest
/// ladder fraction where both sweeps have an ok point, tagged with that
/// fraction. `None` unless both modes ran and the ratio is judgeable.
#[must_use]
pub fn omission_gap(sweeps: &[RateSweep]) -> Option<(f64, f64)> {
    let open = sweeps.iter().find(|s| s.mode == "open")?;
    let closed = sweeps.iter().find(|s| s.mode == "closed")?;
    (0..open.points.len().min(closed.points.len()))
        .rev()
        .find_map(|i| {
            let (o, c) = (&open.points[i], &closed.points[i]);
            (o.is_ok() && c.is_ok() && c.p99_us > 0.0)
                .then(|| (LADDER_FRACTIONS[i], o.p99_us / c.p99_us))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> SuiteConfig {
        SuiteConfig::quick()
    }

    #[test]
    fn points_are_powers_of_two_plus_the_cap() {
        let r = LoadRunner::new(quick_config()).unwrap();
        assert_eq!(r.with_max_p(4).points(), vec![1, 2, 4]);
        let r = LoadRunner::new(quick_config()).unwrap();
        assert_eq!(r.with_max_p(6).points(), vec![1, 2, 4, 6]);
        let r = LoadRunner::new(quick_config()).unwrap();
        assert_eq!(r.with_max_p(1).points(), vec![1]);
        let r = LoadRunner::new(quick_config()).unwrap();
        assert_eq!(r.with_max_p(0).points(), vec![1], "clamped to 1");
    }

    #[test]
    fn open_loop_measures_from_the_intended_arrival() {
        // Service 50 us, arrivals every 100 us: the server keeps up, no
        // arrival starts late, and latency is pure service time.
        let sim = SimClock::new(1);
        let mut gen = SimServerGen::new(&sim, CostModel::Constant { ns: 50_000.0 });
        let process = ArrivalProcess::uniform(10_000.0);
        let run = paced_run(&sim, &mut gen, LoadMode::Open, &process, 50);
        assert_eq!(run.ops, 50);
        assert_eq!(run.late, 0);
        assert_eq!(run.max_lag_ns, 0.0);
        for lat in run.samples.values() {
            assert!(
                (*lat - 50_000.0).abs() < 100.0,
                "underload latency is service time, got {lat}"
            );
        }

        // Service 50 us, arrivals every 25 us: arrival i queues behind
        // its predecessors and the measured latency grows linearly —
        // the queueing a closed loop would silently drop.
        let sim = SimClock::new(1);
        let mut gen = SimServerGen::new(&sim, CostModel::Constant { ns: 50_000.0 });
        let process = ArrivalProcess::uniform(40_000.0);
        let run = paced_run(&sim, &mut gen, LoadMode::Open, &process, 50);
        assert!(run.late > 40, "almost every arrival starts late");
        assert!(run.max_lag_ns > 1_000_000.0, "lag accumulates past 1 ms");
        let first = run.samples.values()[0];
        let last = *run.samples.values().last().unwrap();
        assert!(
            last > first + 1_000_000.0,
            "latency grows with the backlog ({first} -> {last})"
        );
    }

    #[test]
    fn closed_loop_hides_the_queue_by_design() {
        // The same overload as above, closed-loop: every sample still
        // reads as bare service time and nothing is ever late.
        let sim = SimClock::new(1);
        let mut gen = SimServerGen::new(&sim, CostModel::Constant { ns: 50_000.0 });
        let process = ArrivalProcess::uniform(40_000.0);
        let run = paced_run(&sim, &mut gen, LoadMode::Closed, &process, 50);
        assert_eq!(run.late, 0);
        assert_eq!(run.max_lag_ns, 0.0);
        for lat in run.samples.values() {
            assert!(
                (*lat - 50_000.0).abs() < 100.0,
                "closed-loop latency stays service time, got {lat}"
            );
        }
    }

    #[test]
    fn probe_peak_reports_the_service_rate() {
        let sim = SimClock::new(1);
        let runner = LoadRunner::new(quick_config()).unwrap().with_ops(100);
        let sim2 = sim.clone();
        let make = move || -> Result<Box<dyn LoadGen>, String> {
            Ok(Box::new(SimServerGen::new(
                &sim2,
                CostModel::Constant { ns: 100_000.0 },
            )))
        };
        let peak = runner.probe_peak(&make).unwrap();
        assert!(
            (9_000.0..10_100.0).contains(&peak),
            "100 us service probes near 10k ops/s, got {peak:.0}"
        );
        let broken = || -> Result<Box<dyn LoadGen>, String> { Err("nope".into()) };
        assert!(runner.probe_peak(&broken).is_err());
    }

    #[test]
    fn ladder_fractions_cross_the_knee() {
        assert!(LADDER_FRACTIONS.windows(2).all(|w| w[0] < w[1]));
        assert!(*LADDER_FRACTIONS.first().unwrap() < 1.0);
        assert!(
            *LADDER_FRACTIONS.last().unwrap() > 1.0,
            "the sweep must offer more than the service can sustain"
        );
    }

    #[test]
    fn fault_plan_parses_bench_at_p() {
        assert_eq!(
            ScaleFaultPlan::panic_at("bw_mem", 2),
            ScaleFaultPlan {
                panic_at: Some(("bw_mem".into(), 2)),
            }
        );
        assert!(ScaleFaultPlan::panic_at("bw_mem", 2).hits("bw_mem", 2));
        assert!(!ScaleFaultPlan::panic_at("bw_mem", 2).hits("bw_mem", 4));
        assert!(!ScaleFaultPlan::panic_at("bw_mem", 2).hits("lat_pipe", 2));
    }

    #[test]
    fn registry_names_are_unique_and_units_known() {
        let specs = scale_registry();
        let names: std::collections::HashSet<&str> = specs.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), specs.len());
        for spec in &specs {
            assert!(matches!(spec.unit, "MB/s" | "ops/s"), "{}", spec.name);
            // Byte movers report MB/s, round-trippers ops/s.
            let bytes = (spec.bytes_per_op)(&quick_config());
            assert_eq!(spec.unit == "MB/s", bytes > 0, "{}", spec.name);
            assert!((spec.ops_per_rep)(&quick_config()) >= 1, "{}", spec.name);
        }
        assert!(find_scale_spec("bw_mem").is_some());
        assert!(find_scale_spec("no_such_bench").is_none());
    }

    #[test]
    fn per_op_rate_converts_bytes_and_ops() {
        // 1 ms per 1 MB op = 1000 MB/s; 1 us per round trip = 1M ops/s.
        assert!((per_op_rate(1e6, 1 << 20) - 1000.0).abs() < 1e-9);
        assert!((per_op_rate(1e3, 0) - 1e6).abs() < 1e-6);
        assert_eq!(per_op_rate(0.0, 1 << 20), 0.0);
    }

    #[test]
    fn mem_sweep_produces_graded_points() {
        let runner = LoadRunner::new(quick_config()).unwrap().with_max_p(2);
        let spec = find_scale_spec("bw_mem").unwrap();
        let (curve, record) = runner.scale(&spec);
        assert_eq!(curve.points.len(), 2);
        for pt in curve.ok_points() {
            assert!(pt.throughput > 0.0, "P={}", pt.p);
            assert!(pt.p99_us >= pt.p50_us, "P={}", pt.p);
            assert!(Quality::from_label(&pt.quality).is_some(), "P={}", pt.p);
            assert_eq!(pt.generators.len(), pt.p as usize);
        }
        assert_eq!(record.status, BenchStatus::Ok);
        assert!(record.provenance.is_some());
        assert!(record
            .metrics
            .iter()
            .any(|m| m.label == "p1 tput" && m.unit == "MB/s"));
    }

    #[test]
    fn setup_failure_fails_the_point_without_deadlock() {
        let spec = LoadSpec {
            name: "always_fails",
            produces: "nothing",
            unit: "ops/s",
            requires: &[],
            bytes_per_op: |_| 0,
            ops_per_rep: |_| 1,
            make: |_| Err("no such device".into()),
        };
        let runner = LoadRunner::new(quick_config()).unwrap().with_max_p(2);
        let (curve, record) = runner.scale(&spec);
        assert!(curve.points.iter().all(|pt| !pt.is_ok()));
        assert!(curve.points[0]
            .error
            .as_deref()
            .unwrap()
            .contains("no such device"));
        assert!(matches!(record.status, BenchStatus::Failed(_)));
    }
}
