//! The benchmark harness: warm-up, calibration, repetition, summary.
//!
//! Composes the pieces of this crate into the measurement loop every
//! lmbench-rs benchmark uses:
//!
//! 1. probe the clock ([`crate::clock`]),
//! 2. warm caches by running the body a few times (paper §3.4 "Caching"),
//! 3. calibrate a loop count so each interval spans many clock ticks
//!    ([`crate::calibrate`]),
//! 4. repeat the timed interval N times, subtracting the probed clock-read
//!    overhead from each interval (clamped at zero, never negative),
//! 5. summarize with the benchmark's policy ([`crate::stats`]), minimum by
//!    default (paper §3.4 "Variability").
//!
//! A body that needs untimed work around each interval (a writer to start,
//! files to create, sockets to close) uses [`Harness::measure_staged`]: its
//! stage runs and its result is dropped with the clock stopped.
//!
//! A harness reads one [`Clock`]. Benchmarks use [`Clock::Real`]
//! (`Harness::new`); tests and virtual engine runs drive the same code
//! against a seeded [`crate::sim::SimClock`] as [`Clock::Sim`], which makes
//! every step above a deterministic, provable function of the scripted
//! clock.

use crate::calibrate::{calibrate_iterations, time_interval_ns};
use crate::clock::{Clock, ClockInfo};
use crate::result::{Comparison, Measurement};
use crate::stats::{Samples, SummaryPolicy};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tunable harness parameters.
///
/// Construct via [`Options::paper`] or [`Options::quick`] and refine with
/// the `with_*` builders; the struct is `#[non_exhaustive]` so future
/// engine knobs can be added without breaking downstream constructors.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct Options {
    /// Untimed runs of the body before measurement (cache warm-up).
    pub warmup_runs: u32,
    /// Timed repetitions to collect.
    pub repetitions: u32,
    /// Required ratio between a timed interval and the clock resolution.
    pub resolution_multiple: u32,
    /// Hard floor for each timed interval, whatever the clock says.
    pub min_interval: Duration,
    /// Default summary policy.
    pub policy: SummaryPolicy,
}

impl Options {
    /// Paper-faithful defaults: warm twice, eleven repetitions, each
    /// interval at least 10 000 clock resolutions and 5 ms.
    pub fn paper() -> Self {
        Self {
            warmup_runs: 2,
            repetitions: 11,
            resolution_multiple: 10_000,
            min_interval: Duration::from_millis(5),
            policy: SummaryPolicy::Minimum,
        }
    }

    /// Fast settings for tests and smoke runs: one warm-up, three
    /// repetitions, 200 µs intervals.
    pub fn quick() -> Self {
        Self {
            warmup_runs: 1,
            repetitions: 3,
            resolution_multiple: 100,
            min_interval: Duration::from_micros(200),
            policy: SummaryPolicy::Minimum,
        }
    }

    /// Replaces the summary policy.
    pub fn with_policy(mut self, policy: SummaryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replaces the repetition count.
    ///
    /// # Panics
    ///
    /// Panics if `repetitions` is zero.
    pub fn with_repetitions(mut self, repetitions: u32) -> Self {
        assert!(repetitions > 0, "need at least one repetition");
        self.repetitions = repetitions;
        self
    }

    /// Replaces the warm-up run count.
    pub fn with_warmup_runs(mut self, warmup_runs: u32) -> Self {
        self.warmup_runs = warmup_runs;
        self
    }

    /// Replaces the clock-resolution multiple each interval must span.
    pub fn with_resolution_multiple(mut self, resolution_multiple: u32) -> Self {
        self.resolution_multiple = resolution_multiple;
        self
    }

    /// Replaces the hard floor for each timed interval.
    pub fn with_min_interval(mut self, min_interval: Duration) -> Self {
        self.min_interval = min_interval;
        self
    }
}

impl Default for Options {
    fn default() -> Self {
        Self::paper()
    }
}

/// How long [`Harness::compare`] keeps adding pairs, on the harness's own
/// clock, while the interval of the increment still spans zero.
pub const COMPARE_BUDGET: Duration = Duration::from_secs(2);

/// Pairs [`Harness::compare`] times before it first asks for an interval.
/// Six already give one (the extremes cover the median at 97%), but a
/// verdict on so few pairs can rest on one transient, such as the first
/// wake-ups of a freshly started server.
const MIN_PAIRS: usize = 64;

/// One run's harness self-budget: nanoseconds spent warming up and
/// calibrating, read from each harness's own clock (virtual under
/// simulation).
///
/// Run-scoped, never process-wide: the run that wants the budget builds
/// one, attaches it to its harnesses with [`Harness::with_budget`] and
/// reads it back when the run ends, so concurrent runs cannot mix their
/// budgets. A harness without one performs no accounting clock reads, so
/// an unobserved measurement is not perturbed by its observer.
#[derive(Debug, Default)]
pub struct HarnessBudget {
    /// Time spent in warm-up runs.
    pub warmup_ns: AtomicU64,
    /// Time spent calibrating the loop count.
    pub calibrate_ns: AtomicU64,
}

/// Provenance sink: clone one end into a [`Harness`], keep the other to
/// read back every [`Measurement`] it took after the benchmark body
/// returns (or is abandoned on timeout; the sink stays readable either
/// way). The paper's §3.4 discusses clock resolution, warm-up and
/// run-to-run variability, but the original tools never recorded them;
/// each recorded measurement carries all three.
pub type Recorder = Arc<Mutex<Vec<Measurement>>>;

/// A fresh, empty recorder.
#[must_use]
pub fn new_recorder() -> Recorder {
    Arc::new(Mutex::new(Vec::new()))
}

/// Drains every measurement recorded so far.
#[must_use]
pub fn take_events(recorder: &Recorder) -> Vec<Measurement> {
    std::mem::take(&mut *recorder.lock().expect("recorder lock"))
}

/// A configured measurement harness over one [`Clock`].
#[derive(Debug, Clone)]
pub struct Harness {
    options: Options,
    info: ClockInfo,
    recorder: Option<Recorder>,
    budget: Option<Arc<HarnessBudget>>,
    clock: Clock,
}

impl Harness {
    /// Builds a real-clock harness, probing the clock once up front.
    pub fn new(options: Options) -> Self {
        Self::on_clock(options, Clock::Real)
    }

    /// Builds a harness over `clock`, probing it once up front exactly as
    /// [`Harness::new`] probes the host clock.
    pub fn on_clock(options: Options, clock: Clock) -> Self {
        let info = ClockInfo::probe(&clock);
        Self::pinned(options, clock, info)
    }

    /// Builds a harness over `clock` with a pinned [`ClockInfo`] instead of
    /// probing.
    ///
    /// For tests that need hand-computable results (the probe's estimates
    /// carry sub-nanosecond noise, a pinned value does not), for virtual
    /// runs that pin their sim clock's scripted profile, and to replay a
    /// previously probed clock.
    pub fn pinned(options: Options, clock: Clock, info: ClockInfo) -> Self {
        Self {
            options,
            info,
            recorder: None,
            budget: None,
            clock,
        }
    }

    /// Attaches a provenance recorder: every subsequent measurement pushes
    /// a copy of the [`Measurement`] it returns.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Attaches a run's [`HarnessBudget`]: every subsequent measurement
    /// bills its warm-up and calibration time to it, at the cost of two
    /// clock reads per billed phase.
    pub fn with_budget(mut self, budget: Arc<HarnessBudget>) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Runs one harness phase, billing its elapsed time to the `phase`
    /// field of the attached budget; without a budget the clock is not
    /// read at all.
    fn billed<R>(&self, phase: fn(&HarnessBudget) -> &AtomicU64, run: impl FnOnce() -> R) -> R {
        let Some(budget) = &self.budget else {
            return run();
        };
        let started = self.clock.now_ns();
        let result = run();
        let elapsed = (self.clock.now_ns() - started).max(0.0) as u64;
        phase(budget).fetch_add(elapsed, Ordering::Relaxed);
        result
    }

    /// The probed (or pinned) clock characteristics.
    pub fn clock(&self) -> ClockInfo {
        self.info
    }

    /// The clock measurements run against.
    pub fn source(&self) -> &Clock {
        &self.clock
    }

    /// The options in force.
    pub fn options(&self) -> Options {
        self.options
    }

    /// The interval each timed region must span.
    pub fn target_interval(&self) -> Duration {
        self.info
            .min_interval(self.options.resolution_multiple)
            .max(self.options.min_interval)
    }

    /// Announces the calibrated `ops` per interval, then times the
    /// configured repetitions of `interval_ns`, each interval less the
    /// clock-read overhead bracketed into it and divided by `ops`, and
    /// records the result: the one timing loop of every method.
    ///
    /// An interval shorter than the read overhead clamps to 0.0 and counts
    /// as clamped — the per-op time is a floor, not a measurement, and the
    /// quality grade downstream turns `Suspect` (never a negative latency).
    fn repeat(&self, ops: u64, mut interval_ns: impl FnMut() -> f64) -> Measurement {
        lmb_trace::emit(|| lmb_trace::EventKind::Calibrated {
            iterations: ops,
            clock_resolution_ns: self.info.resolution_ns,
        });
        let mut samples = Samples::new();
        let mut clamped = 0u32;
        for _ in 0..self.options.repetitions {
            let compensated = interval_ns() - self.info.overhead_ns;
            if compensated < 0.0 {
                clamped += 1;
                samples.push(0.0);
            } else {
                samples.push(compensated / ops as f64);
            }
        }
        let m = Measurement::from_per_op_samples(samples, ops, self.options.policy)
            .with_clamped_samples(clamped)
            .with_context(self.options.warmup_runs, self.info.resolution_ns);
        if let Some(recorder) = &self.recorder {
            recorder.lock().expect("recorder lock").push(m.clone());
        }
        m
    }

    /// Runs the configured warm-up, billed to the budget's warm-up phase.
    fn warm_up(&self, mut run: impl FnMut()) {
        lmb_trace::emit(|| lmb_trace::EventKind::Warmup {
            runs: self.options.warmup_runs,
        });
        self.billed(
            |b| &b.warmup_ns,
            || (0..self.options.warmup_runs).for_each(|_| run()),
        );
    }

    /// How many runs of `body` fill one [`Harness::target_interval`], as
    /// [`Harness::measure`] calibrates (billed to the budget); a staged body
    /// that batches its operations sizes the batch with it.
    pub fn calibrate(&self, body: impl FnMut()) -> u64 {
        self.billed(
            |b| &b.calibrate_ns,
            || calibrate_iterations(&self.clock, self.target_interval(), body).iterations,
        )
    }

    /// Measures the per-call cost of `body`.
    ///
    /// The harness adds the outer loop: `body` should perform exactly one
    /// operation (one syscall, one signal, ...). Use [`Harness::measure_block`]
    /// when the body is itself a loop.
    pub fn measure(&self, mut body: impl FnMut()) -> Measurement {
        self.warm_up(&mut body);
        let iterations = self.calibrate(&mut body);
        self.repeat(iterations, || {
            time_interval_ns(&self.clock, iterations, &mut body)
        })
    }

    /// Measures a body that internally performs `ops` operations per call
    /// (e.g. one pass over an 8 MB buffer counted as `ops` word reads):
    /// [`Harness::measure_staged`] with nothing to stage.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero.
    pub fn measure_block(&self, ops: u64, mut body: impl FnMut()) -> Measurement {
        self.measure_staged(ops, || (), |()| body())
    }

    /// Measures a body of `ops` operations with untimed work around each
    /// interval: `stage()` runs with the clock stopped, `body(staged)` is
    /// timed, and whatever `body` returns is dropped after the clock stops.
    /// No outer loop: one run per warm-up run and per repetition.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero.
    pub fn measure_staged<S, R>(
        &self,
        ops: u64,
        mut stage: impl FnMut() -> S,
        mut body: impl FnMut(S) -> R,
    ) -> Measurement {
        assert!(ops > 0, "measure_staged needs ops > 0");
        self.warm_up(|| drop(body(stage())));
        self.repeat(ops, || {
            let staged = stage();
            let started = self.clock.now_ns();
            let result = body(staged);
            let elapsed = self.clock.now_ns() - started;
            drop(result);
            elapsed
        })
    }

    /// Prices `b` over `a`, each a block of `ops` operations as in
    /// [`Harness::measure_block`]: the paired per-op increment of B over A.
    ///
    /// After warm-up the blocks run on this thread in ABBA order, and each
    /// adjacent A–B pair keeps its difference, so load or drift that both
    /// blocks of a pair share cancels, where two independently timed
    /// minima would each catch whatever else the host was doing. Pairs
    /// are added until the median difference's distribution-free 95%
    /// interval excludes zero or [`COMPARE_BUDGET`] has passed; an interval
    /// that still spans zero reads as unknown ([`Comparison::verdict`]).
    ///
    /// # Panics
    ///
    /// Panics if `ops` is zero.
    pub fn compare(&self, ops: u64, mut a: impl FnMut(), mut b: impl FnMut()) -> Comparison {
        assert!(ops > 0, "compare needs ops > 0");
        for _ in 0..self.options.warmup_runs {
            a();
            b();
        }
        let per_op = |body: &mut dyn FnMut()| time_interval_ns(&self.clock, 1, body) / ops as f64;
        let budget_ns = COMPARE_BUDGET.as_nanos() as f64;
        let started = self.clock.now_ns();
        let mut differences = Samples::new();
        // The interval is re-checked as the pair count grows by an eighth,
        // so a long comparison sorts O(log n) times, not once per pair.
        let mut next_check = MIN_PAIRS;
        loop {
            let (a1, b1) = (per_op(&mut a), per_op(&mut b));
            let (b2, a2) = (per_op(&mut b), per_op(&mut a));
            differences.push(b1 - a1);
            differences.push(b2 - a2);
            let out_of_time = self.clock.now_ns() - started >= budget_ns;
            if differences.len() >= next_check || out_of_time {
                next_check = differences.len() + differences.len() / 8;
                let comparison = Comparison::from_differences(differences.clone());
                if comparison.verdict().is_some() || out_of_time {
                    return comparison;
                }
            }
        }
    }
}

impl Default for Harness {
    fn default() -> Self {
        Self::new(Options::paper())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::Quality;
    use crate::sim::{CostModel, SimClock};

    #[test]
    fn measure_reports_positive_time_for_real_work() {
        let h = Harness::new(Options::quick());
        let m = h.measure(|| {
            let mut acc = 0u64;
            for i in 0..256u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
        });
        assert!(m.per_op_ns() > 0.0);
        assert_eq!(m.samples().len() as u32, Options::quick().repetitions);
        assert_eq!(m.clamped_samples(), 0, "real work must not clamp");
    }

    #[test]
    fn warmup_runs_happen_before_timing() {
        let count = AtomicU64::new(0);
        let h = Harness::new(Options::quick());
        h.measure(|| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        let calls = count.load(Ordering::Relaxed);
        assert!(
            calls > u64::from(Options::quick().warmup_runs),
            "body called only {calls} times"
        );
    }

    #[test]
    fn measure_block_divides_by_ops() {
        let h = Harness::new(Options::quick());
        let ops = 1u64 << 16;
        let m = h.measure_block(ops, || {
            let mut acc = 0u64;
            for i in 0..(1u64 << 16) {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
        });
        // Per-add cost must be well under a microsecond.
        assert!(m.per_op_ns() < 1_000.0, "per-op {}ns", m.per_op_ns());
    }

    #[test]
    fn target_interval_respects_floor() {
        let h = Harness::new(Options::quick());
        assert!(h.target_interval() >= Options::quick().min_interval);
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repetitions_rejected() {
        Options::quick().with_repetitions(0);
    }

    #[test]
    fn builders_replace_every_knob() {
        let o = Options::quick()
            .with_warmup_runs(7)
            .with_repetitions(9)
            .with_resolution_multiple(50)
            .with_min_interval(Duration::from_micros(123))
            .with_policy(SummaryPolicy::Median);
        assert_eq!(o.warmup_runs, 7);
        assert_eq!(o.repetitions, 9);
        assert_eq!(o.resolution_multiple, 50);
        assert_eq!(o.min_interval, Duration::from_micros(123));
        assert_eq!(o.policy, SummaryPolicy::Median);
    }

    #[test]
    fn measurements_emit_warmup_and_calibration_trace_events() {
        let sink = lmb_trace::MemorySink::shared();
        let trace = lmb_trace::Trace::new(vec![Box::new(sink.clone())]);
        let ctx = trace.enter();
        let h = Harness::new(Options::quick());
        h.measure(|| {
            std::hint::black_box(2u64 * 2);
        });
        h.measure_block(64, || {
            std::hint::black_box((0..64u64).product::<u64>());
        });
        drop(ctx);
        let events = sink.events();
        let warmups = events
            .iter()
            .filter(|e| matches!(e.kind, lmb_trace::EventKind::Warmup { .. }))
            .count();
        assert!(warmups >= 2, "warmup events: {warmups}");
        let block_cal = events.iter().any(
            |e| matches!(e.kind, lmb_trace::EventKind::Calibrated { iterations, .. } if iterations == 64),
        );
        assert!(block_cal, "measure_block calibration event missing");
    }

    #[test]
    fn recorder_captures_calibration_and_samples() {
        let recorder = new_recorder();
        let h = Harness::new(Options::quick()).with_recorder(recorder.clone());
        let measured = h.measure(|| {
            std::hint::black_box(1u64 + 1);
        });
        h.measure_block(512, || {
            std::hint::black_box((0..512u64).sum::<u64>());
        });
        let events = take_events(&recorder);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], measured, "the record is the returned value");
        assert!(events[0].ops_per_sample() > 0, "calibrated count missing");
        assert_eq!(events[1].ops_per_sample(), 512, "block ops recorded");
        for e in &events {
            assert_eq!(e.samples().len() as u32, Options::quick().repetitions);
            assert_eq!(e.warmup_runs(), Options::quick().warmup_runs);
            assert!(e.clock_resolution_ns() > 0.0);
        }
        assert!(take_events(&recorder).is_empty(), "take drains");
    }

    #[test]
    fn per_op_never_negative_even_when_overhead_dwarfs_the_interval() {
        // Satellite regression (sim reproduction): a body far cheaper than
        // the clock-read overhead used to report a negative per-op time
        // after compensation. The pinned ClockInfo exaggerates a coarse,
        // expensive clock; the sim body costs 100ns against a claimed
        // 10us read overhead.
        let sim = SimClock::new(77).with_read_overhead_ns(50.0);
        let body = sim.scripted_body(CostModel::Constant { ns: 100.0 });
        let pinned = ClockInfo {
            resolution_ns: 1.0,
            overhead_ns: 10_000.0,
        };
        let h = Harness::pinned(
            Options::quick().with_warmup_runs(0).with_repetitions(5),
            Clock::Sim(sim),
            pinned,
        );
        let m = h.measure_block(1, body);
        assert!(m.per_op_ns() >= 0.0, "negative per-op {}", m.per_op_ns());
        assert_eq!(m.per_op_ns(), 0.0, "clamped floor is exactly zero");
        assert_eq!(m.clamped_samples(), 5, "every repetition clamped");
        assert_eq!(m.quality(), Quality::Suspect, "clamps must taint quality");
    }

    #[test]
    fn clamped_count_reaches_the_recorder() {
        let sim = SimClock::new(78).with_read_overhead_ns(50.0);
        let body = sim.scripted_body(CostModel::Constant { ns: 10.0 });
        let recorder = new_recorder();
        let h = Harness::pinned(
            Options::quick().with_warmup_runs(0).with_repetitions(3),
            Clock::Sim(sim),
            ClockInfo {
                resolution_ns: 1.0,
                overhead_ns: 1_000.0,
            },
        )
        .with_recorder(recorder.clone());
        h.measure_block(1, body);
        let events = take_events(&recorder);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].clamped_samples(), 3);
        assert_eq!(events[0].quality(), Quality::Suspect);
    }

    #[test]
    fn a_budget_costs_clock_reads_only_when_attached() {
        // Two identical sim runs, one observed: the budgeted harness pays
        // exactly two reads per billed phase (warm-up and calibration for
        // `measure`, warm-up alone for `measure_block`); the bare one pays
        // none, so an unobserved run is not perturbed by accounting.
        let run = |budget: Option<Arc<HarnessBudget>>| {
            let sim = SimClock::new(80).with_read_overhead_ns(50.0);
            let clock = ClockInfo {
                resolution_ns: 1.0,
                overhead_ns: 50.0,
            };
            let mut h = Harness::pinned(Options::quick(), Clock::Sim(sim.clone()), clock);
            if let Some(budget) = budget {
                h = h.with_budget(budget);
            }
            let before = sim.reads();
            h.measure(sim.scripted_body(CostModel::Constant { ns: 200.0 }));
            let measure = sim.reads() - before;
            let before = sim.reads();
            h.measure_block(64, sim.scripted_body(CostModel::Constant { ns: 200.0 }));
            (measure, sim.reads() - before)
        };
        let budget = Arc::new(HarnessBudget::default());
        let (bare_measure, bare_block) = run(None);
        let (billed_measure, billed_block) = run(Some(Arc::clone(&budget)));
        assert_eq!(billed_measure, bare_measure + 4);
        assert_eq!(billed_block, bare_block + 2);
        assert!(budget.warmup_ns.load(Ordering::Relaxed) > 0);
        assert!(budget.calibrate_ns.load(Ordering::Relaxed) > 0);
    }

    fn pinned_sim_harness(sim: &SimClock) -> Harness {
        Harness::pinned(
            Options::quick(),
            Clock::Sim(sim.clone()),
            ClockInfo {
                resolution_ns: 1.0,
                overhead_ns: 50.0,
            },
        )
    }

    #[test]
    fn compare_prices_the_increment_and_stops_once_it_excludes_zero() {
        let sim = SimClock::new(81).with_read_overhead_ns(50.0);
        let h = pinned_sim_harness(&sim);
        let c = h.compare(
            4,
            sim.scripted_body(CostModel::Constant { ns: 1_000.0 }),
            sim.scripted_body(CostModel::Constant { ns: 1_400.0 }),
        );
        assert_eq!(c.increment_ns, 100.0, "400 ns more per 4-op block");
        assert_eq!(c.interval_ns, Some((100.0, 100.0)));
        assert_eq!(c.verdict(), Some(std::cmp::Ordering::Greater));
        assert_eq!(c.differences.len(), MIN_PAIRS, "stopped at the first check");

        let cheaper = h.compare(
            1,
            sim.scripted_body(CostModel::Constant { ns: 900.0 }),
            sim.scripted_body(CostModel::Constant { ns: 850.0 }),
        );
        assert_eq!(cheaper.increment_ns, -50.0);
        assert_eq!(cheaper.verdict(), Some(std::cmp::Ordering::Less));
    }

    #[test]
    fn compare_in_abba_order_cancels_shared_drift() {
        // Every block, A or B, costs 10 ns more than the block before it;
        // B costs 30 ns more than A. A then B gains +10 on the increment and
        // B then A loses 10, so the pair median is the 30 ns alone.
        let sim = SimClock::new(82).with_read_overhead_ns(50.0);
        let h = pinned_sim_harness(&sim);
        let drift = std::cell::Cell::new(0.0);
        let block = |extra_ns: f64| {
            let (sim, drift) = (sim.clone(), &drift);
            move || {
                drift.set(drift.get() + 10.0);
                sim.advance(1_000.0 + drift.get() + extra_ns);
            }
        };
        let c = h.compare(1, block(0.0), block(30.0));
        assert_eq!(c.increment_ns, 30.0);
        assert_eq!(c.interval_ns, Some((20.0, 40.0)));
        assert_eq!(c.verdict(), Some(std::cmp::Ordering::Greater));
    }

    #[test]
    fn compare_of_equal_costs_reads_unknown_once_the_budget_is_spent() {
        let sim = SimClock::new(83).with_read_overhead_ns(50.0);
        let h = pinned_sim_harness(&sim);
        // Two bodies of one cost, each with its own noise stream.
        let noisy = |seed: u64| {
            let (sim, mut rng) = (sim.clone(), crate::sim::SplitMix::new(seed));
            move || sim.advance(1_000_000.0 + 10_000.0 * rng.uniform())
        };
        let started = sim.true_now_ns();
        let c = h.compare(1, noisy(1), noisy(2));
        assert_eq!(c.verdict(), None, "{c}");
        let (low, high) = c.interval_ns.expect("hundreds of pairs");
        assert!(low < 0.0 && high > 0.0, "{c}");
        let spent_ns = sim.true_now_ns() - started;
        assert!(spent_ns >= COMPARE_BUDGET.as_nanos() as f64, "{spent_ns}");
        assert!(
            spent_ns < 1.1 * COMPARE_BUDGET.as_nanos() as f64,
            "{spent_ns}"
        );
    }

    #[test]
    #[should_panic(expected = "compare needs ops > 0")]
    fn compare_rejects_zero_ops() {
        Harness::new(Options::quick()).compare(0, || {}, || {});
    }

    #[test]
    fn staged_work_and_the_dropped_result_stay_off_the_clock() {
        // Each run's stage costs 7 us and dropping its result 3 us of
        // virtual time; only the 200 ns body may reach the samples.
        struct Teardown(SimClock);
        impl Drop for Teardown {
            fn drop(&mut self) {
                self.0.advance(3_000.0);
            }
        }
        let sim = SimClock::new(84).with_read_overhead_ns(50.0);
        let h = pinned_sim_harness(&sim);
        let started = sim.true_now_ns();
        let m = h.measure_staged(
            4,
            || sim.advance(7_000.0),
            |()| {
                sim.advance(800.0);
                Teardown(sim.clone())
            },
        );
        assert_eq!(m.per_op_ns(), 200.0, "800 ns over 4 ops");
        assert!(m.samples().values().iter().all(|&v| v == 200.0));
        assert_eq!(m.ops_per_sample(), 4);
        // Stage and teardown did run, once per warm-up run and repetition.
        let runs = f64::from(Options::quick().warmup_runs + Options::quick().repetitions);
        assert!(sim.true_now_ns() - started >= runs * 10_800.0);
    }

    #[test]
    fn measurements_read_the_clock_as_they_always_have() {
        // Bit patterns recorded before `measure_block` became a staged
        // measurement with nothing to stage: the probe, warm-up,
        // calibration and repetitions read a jittery sim clock in the same
        // order, so every sample and the clock's own state match.
        let sim = SimClock::new(91)
            .with_read_jitter_ns(25.0)
            .with_read_overhead_ns(40.0);
        let h = Harness::on_clock(
            Options::quick().with_repetitions(7),
            Clock::Sim(sim.clone()),
        );
        let block = h.measure_block(
            16,
            sim.scripted_body(CostModel::Noisy {
                base_ns: 5_000.0,
                spread_ns: 2_000.0,
            }),
        );
        let looped = h.measure(sim.scripted_body(CostModel::Noisy {
            base_ns: 300.0,
            spread_ns: 90.0,
        }));
        let bits = |m: &Measurement| -> Vec<u64> {
            m.samples().values().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(block.ops_per_sample(), 16);
        assert_eq!(block.clamped_samples(), 0);
        assert_eq!(block.per_op_ns().to_bits(), 0x4073db6800000000);
        assert_eq!(
            bits(&block),
            [
                0x4076be6800000000,
                0x4074756800000000,
                0x40749a6800000000,
                0x4076e86800000000,
                0x4073db6800000000,
                0x4074da6800000000,
                0x4079ad6800000000,
            ]
        );
        assert_eq!(looped.ops_per_sample(), 698);
        assert_eq!(looped.per_op_ns().to_bits(), 0x40757792e3647e2b);
        assert_eq!(
            bits(&looped),
            [
                0x40759a1863c2624b,
                0x4075950d63069a0a,
                0x4075968ad1c9b81d,
                0x407581916bd3fd11,
                0x40757792e3647e2b,
                0x40759c6913ce1ecf,
                0x40757dec60d34149,
            ]
        );
        assert_eq!(sim.reads(), 16594);
        assert_eq!(sim.true_now_ns().to_bits(), 0x414862cb9646f117);
    }

    #[test]
    #[should_panic(expected = "measure_staged needs ops > 0")]
    fn staged_measurement_rejects_zero_ops() {
        Harness::new(Options::quick()).measure_block(0, || {});
    }

    #[test]
    fn simulated_constant_body_measures_exactly() {
        // With a pinned clock matching the sim's read overhead, the
        // compensation algebra cancels exactly: elapsed = cost + overhead,
        // compensated = cost.
        let sim = SimClock::new(79).with_read_overhead_ns(50.0);
        let body = sim.scripted_body(CostModel::Constant { ns: 200.0 });
        let h = Harness::pinned(
            Options::quick().with_warmup_runs(1).with_repetitions(5),
            Clock::Sim(sim),
            ClockInfo {
                resolution_ns: 1.0,
                overhead_ns: 50.0,
            },
        );
        let m = h.measure_block(1, body);
        assert_eq!(m.per_op_ns(), 200.0, "exact sim fixture");
        assert_eq!(m.clamped_samples(), 0);
        assert_eq!(m.quality(), Quality::Good);
    }
}
