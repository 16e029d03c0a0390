//! A deterministic, seeded virtual clock for testing the timing machinery.
//!
//! Every number the suite reports flows through the same pipeline — clock
//! probe, warm-up, calibration, repetition, overhead subtraction, quality
//! grading — and all of it is deterministic logic over observed intervals
//! (§3.4). [`SimClock`] replays that logic against a scripted clock instead
//! of the wall clock, the way time-virtualized schedulers are tested: a
//! seeded simulation with configurable resolution (1 ns to the paper's
//! 10 ms `gettimeofday`), per-read overhead, per-read jitter, and scripted
//! benchmark-body cost models ([`CostModel`]). Same seed, same
//! measurements, byte for byte — so calibration convergence, negative-time
//! clamping and quality grades become provable properties instead of flaky
//! CI observations.
//!
//! A clock is configured once, before it is cloned, and then driven by one
//! thread at a time (see [`SimClock`]): that contract lets every read be a
//! few relaxed loads and stores instead of a lock, so the instrument's own
//! cost stays small next to the work it simulates.
//!
//! # Examples
//!
//! ```
//! use lmb_timing::{CostModel, Harness, Options, SimClock};
//!
//! let sim = SimClock::new(42).with_resolution_ns(100.0);
//! let body = sim.scripted_body(CostModel::Constant { ns: 250.0 });
//! let h = Harness::with_source(Options::quick(), sim.clone());
//! let m = h.measure(body);
//! // The simulated operation costs exactly 250 ns.
//! assert!((m.per_op_ns() - 250.0).abs() < 1.0);
//! ```

use crate::clock::TimeSource;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Scripted per-call cost of a simulated benchmark body, in nanoseconds.
///
/// The models mirror the shapes real benchmark bodies produce: flat
/// syscall-like costs, the cache-knee step a §6.1 memory walk shows when a
/// working set falls out of a cache level, scheduler-noise dispersion, and
/// thermal-drift style slow ramps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostModel {
    /// Every call costs exactly `ns`.
    Constant {
        /// Per-call cost, ns.
        ns: f64,
    },
    /// Calls before the `knee`-th cost `before_ns`, later ones `after_ns` —
    /// the §3.1 cache/paging step function.
    Step {
        /// First call index (0-based) that pays the post-knee cost.
        knee: u64,
        /// Cost while inside the fast regime, ns.
        before_ns: f64,
        /// Cost after falling off the knee, ns.
        after_ns: f64,
    },
    /// `base_ns` plus uniform noise in `[0, spread_ns)` drawn from the
    /// body's seeded generator.
    Noisy {
        /// Quiet-machine cost, ns.
        base_ns: f64,
        /// Width of the uniform disturbance band, ns.
        spread_ns: f64,
    },
    /// `start_ns` growing by `per_call_ns` every call (clock drift, cache
    /// pollution, heap growth).
    Drifting {
        /// Cost of call 0, ns.
        start_ns: f64,
        /// Additional cost per subsequent call, ns.
        per_call_ns: f64,
    },
}

impl CostModel {
    /// Cost of the `call`-th invocation (0-based), in nanoseconds.
    fn cost_ns(&self, call: u64, rng: &mut SplitMix) -> f64 {
        match *self {
            CostModel::Constant { ns } => ns,
            CostModel::Step {
                knee,
                before_ns,
                after_ns,
            } => {
                if call < knee {
                    before_ns
                } else {
                    after_ns
                }
            }
            CostModel::Noisy { base_ns, spread_ns } => base_ns + rng.uniform() * spread_ns,
            CostModel::Drifting {
                start_ns,
                per_call_ns,
            } => start_ns + per_call_ns * call as f64,
        }
    }
}

/// Minimal deterministic generator (splitmix64): dependency-free, with
/// streams that are stable across toolchains. Clock jitter, scripted-body
/// noise, Poisson inter-arrival draws ([`crate::arrival`]) and the scenario
/// fuzzer all draw from it; distinct seeds keep their streams
/// decorrelated.
#[derive(Debug, Clone)]
pub struct SplitMix {
    state: u64,
}

impl SplitMix {
    /// A generator whose stream is a function of `seed` alone.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 mantissa bits: the standard u64 -> f64 uniform construction.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Simulation state, shared by every clone of a [`SimClock`].
///
/// The profile is fixed once the clock is built. The three cells that
/// change are relaxed atomics updated by a plain load and store, never a
/// read-modify-write: the single-driver contract on [`SimClock`] makes
/// that exact, and it costs a fraction of a lock or an atomic RMW.
/// `Relaxed` suffices because each cell publishes only its own value; a
/// clone that changes threads is ordered by the spawn or join that moved
/// it.
#[derive(Debug)]
struct SimState {
    /// Reported-tick granularity, ns.
    resolution_ns: f64,
    /// Virtual cost of one clock read, ns.
    read_overhead_ns: f64,
    /// Uniform extra per-read cost in `[0, jitter)`, ns.
    read_jitter_ns: f64,
    /// Seed the clock (and its scripted bodies) derive streams from.
    seed: u64,
    /// True virtual time as `f64` bits, ns — what the simulated hardware
    /// has actually spent. Readings quantize this to `resolution_ns`.
    now_ns: AtomicU64,
    /// Clock reads performed so far.
    reads: AtomicU64,
    /// The read-jitter generator's state word.
    rng: AtomicU64,
    /// Set while a thread is inside `now_ns` or `advance`; debug builds
    /// only (see [`Driver`]).
    busy: AtomicBool,
}

impl SimState {
    fn now(&self) -> f64 {
        f64::from_bits(self.now_ns.load(Ordering::Relaxed))
    }

    fn set_now(&self, ns: f64) {
        self.now_ns.store(ns.to_bits(), Ordering::Relaxed);
    }
}

/// Debug-build check of the single-driver contract: marks the clock busy
/// for one `now_ns` or `advance`, so a second thread driving it at the same
/// moment panics instead of silently losing an update. Release builds
/// compile it to nothing.
struct Driver<'a>(&'a AtomicBool);

impl<'a> Driver<'a> {
    fn enter(state: &'a SimState) -> Self {
        if cfg!(debug_assertions) {
            assert!(
                !state.busy.swap(true, Ordering::Acquire),
                "SimClock driven by two threads at once; it takes one driver at a time"
            );
        }
        Driver(&state.busy)
    }
}

impl Drop for Driver<'_> {
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            self.0.store(false, Ordering::Release);
        }
    }
}

/// `x.floor()` for a finite `x >= +0.0`, without the library call the
/// baseline x86-64 target makes for `f64::floor` (it has no SSE4.1
/// `roundsd`). Below 2^52 the round trip through `u64` truncates toward
/// zero, which for a non-negative value is the floor; from 2^52 up every
/// `f64` is already an integer. Virtual time starts at `+0.0` and only
/// grows by finite, non-negative amounts, so every reading qualifies.
fn floor_non_negative(x: f64) -> f64 {
    const EXACT_INTEGERS: f64 = (1u64 << 52) as f64;
    if x < EXACT_INTEGERS {
        x as u64 as f64
    } else {
        x
    }
}

/// `d.as_nanos() as f64` without the `u128` library call when the count
/// fits in a `u64`: both conversions round to nearest, so they agree.
fn duration_ns(d: Duration) -> f64 {
    let ns = d.as_nanos();
    match u64::try_from(ns) {
        Ok(ns) => ns as f64,
        Err(_) => wide_ns(ns),
    }
}

/// The `u128` conversion, kept out of line so the compiler cannot hoist
/// the library call onto the common path.
#[cold]
#[inline(never)]
fn wide_ns(ns: u128) -> f64 {
    ns as f64
}

/// A seeded virtual monotonic clock.
///
/// Clones share state: hand one clone to a [`crate::Harness`] and keep
/// another to script body costs ([`SimClock::advance`],
/// [`SimClock::scripted_body`]) and inspect the simulation
/// ([`SimClock::true_now_ns`], [`SimClock::reads`]).
///
/// Reading the clock advances virtual time by the configured read overhead
/// (plus jitter) and returns the advanced time quantized down to the
/// configured resolution — the two imperfections §3.4's compensation
/// machinery exists to defeat. The defaults model a good modern clock:
/// 1 ns resolution, 15 ns reads, no jitter.
///
/// # One driver at a time
///
/// Configure the clock with the `with_*` builders before cloning it; a
/// builder on a shared clock panics. After that, one thread at a time may
/// drive it ([`TimeSource::now_ns`], [`SimClock::advance`],
/// [`TimeSource::sleep`], scripted bodies). Clones may move between
/// threads — spawn and join order the accesses — but two threads must not
/// drive clones of one clock concurrently: the updates are plain relaxed
/// loads and stores, so concurrent drivers would lose advances (and their
/// interleaving would break same-seed determinism anyway). Debug builds
/// panic when they catch a second driver; release builds do not check.
/// Inspecting ([`SimClock::true_now_ns`], [`SimClock::reads`]) from any
/// thread is fine.
#[derive(Debug, Clone)]
pub struct SimClock {
    state: Arc<SimState>,
}

impl SimClock {
    /// Creates a clock with the default profile, seeded for determinism.
    ///
    /// The same seed and the same sequence of operations yield bitwise
    /// identical readings, regardless of host speed or wall-clock time.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: Arc::new(SimState {
                resolution_ns: 1.0,
                read_overhead_ns: 15.0,
                read_jitter_ns: 0.0,
                seed,
                now_ns: AtomicU64::new(0.0f64.to_bits()),
                reads: AtomicU64::new(0),
                rng: AtomicU64::new(seed),
                busy: AtomicBool::new(false),
            }),
        }
    }

    /// The profile, for a builder; panics once the clock is shared.
    fn profile(&mut self) -> &mut SimState {
        Arc::get_mut(&mut self.state).expect("configure a SimClock before cloning it")
    }

    /// Sets the reported-tick granularity (1995 `gettimeofday`: `1e7`).
    ///
    /// # Panics
    ///
    /// Panics unless `resolution_ns` is finite and positive, or if the
    /// clock has already been cloned.
    #[must_use]
    pub fn with_resolution_ns(mut self, resolution_ns: f64) -> Self {
        assert!(
            resolution_ns.is_finite() && resolution_ns > 0.0,
            "resolution must be finite and positive"
        );
        self.profile().resolution_ns = resolution_ns;
        self
    }

    /// Sets the virtual cost of one clock read.
    ///
    /// # Panics
    ///
    /// Panics unless `overhead_ns` is finite and positive — a free read
    /// would let probe loops spin without ever advancing virtual time — or
    /// if the clock has already been cloned.
    #[must_use]
    pub fn with_read_overhead_ns(mut self, overhead_ns: f64) -> Self {
        assert!(
            overhead_ns.is_finite() && overhead_ns > 0.0,
            "read overhead must be finite and positive"
        );
        self.profile().read_overhead_ns = overhead_ns;
        self
    }

    /// Sets the uniform per-read jitter band `[0, jitter_ns)`.
    ///
    /// # Panics
    ///
    /// Panics unless `jitter_ns` is finite and non-negative, or if the
    /// clock has already been cloned.
    #[must_use]
    pub fn with_read_jitter_ns(mut self, jitter_ns: f64) -> Self {
        assert!(
            jitter_ns.is_finite() && jitter_ns >= 0.0,
            "jitter must be finite and non-negative"
        );
        self.profile().read_jitter_ns = jitter_ns;
        self
    }

    /// Advances virtual time by `ns` — the cost of simulated work.
    ///
    /// # Panics
    ///
    /// Panics unless `ns` is finite and non-negative (virtual time is
    /// monotonic by construction).
    pub fn advance(&self, ns: f64) {
        assert!(ns.is_finite() && ns >= 0.0, "advance must be >= 0, finite");
        let s = &*self.state;
        let _driver = Driver::enter(s);
        s.set_now(s.now() + ns);
    }

    /// Unquantized virtual time, ns — the simulation's ground truth, not
    /// what a [`TimeSource::now_ns`] reading reports.
    #[must_use]
    pub fn true_now_ns(&self) -> f64 {
        self.state.now()
    }

    /// Clock reads performed so far across all clones.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.state.reads.load(Ordering::Relaxed)
    }

    /// The seed this clock (and its scripted bodies) derive streams from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.state.seed
    }

    /// Configured reported-tick granularity, ns.
    #[must_use]
    pub fn resolution_ns(&self) -> f64 {
        self.state.resolution_ns
    }

    /// Configured virtual cost of one clock read, ns.
    #[must_use]
    pub fn read_overhead_ns(&self) -> f64 {
        self.state.read_overhead_ns
    }

    /// Configured uniform per-read jitter band width, ns.
    #[must_use]
    pub fn read_jitter_ns(&self) -> f64 {
        self.state.read_jitter_ns
    }

    /// A benchmark body whose per-call cost follows `model`.
    ///
    /// Each body owns a call counter and a generator derived from the
    /// clock's seed and the model, so two bodies with the same script are
    /// independent yet reproducible.
    pub fn scripted_body(&self, model: CostModel) -> impl FnMut() + Send + 'static {
        let clock = self.clone();
        // Derive the body stream from the seed so clock jitter and body
        // noise are decorrelated but both reproducible.
        let mut rng = SplitMix::new(self.state.seed ^ 0xB0D7_5EED_0000_0001);
        let mut call: u64 = 0;
        move || {
            let cost = model.cost_ns(call, &mut rng);
            clock.advance(cost);
            call += 1;
        }
    }
}

impl TimeSource for SimClock {
    fn now_ns(&self) -> f64 {
        let s = &*self.state;
        let _driver = Driver::enter(s);
        // Jitter is drawn before time advances, and the sum keeps its
        // grouping, so every reading is bitwise what it always was.
        let jitter = if s.read_jitter_ns > 0.0 {
            let mut rng = SplitMix {
                state: s.rng.load(Ordering::Relaxed),
            };
            let draw = rng.uniform();
            s.rng.store(rng.state, Ordering::Relaxed);
            draw * s.read_jitter_ns
        } else {
            0.0
        };
        let now = s.now() + (s.read_overhead_ns + jitter);
        s.set_now(now);
        s.reads
            .store(s.reads.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // Dividing and multiplying by 1.0 are exact, so the default
        // resolution skips both.
        if s.resolution_ns == 1.0 {
            floor_non_negative(now)
        } else {
            floor_non_negative(now / s.resolution_ns) * s.resolution_ns
        }
    }

    fn sleep(&self, d: Duration) {
        self.advance(duration_ns(d));
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{overhead_ns_of, resolution_ns_of, ClockInfo};

    #[test]
    fn readings_are_monotonic_and_cost_overhead() {
        let sim = SimClock::new(1).with_read_overhead_ns(10.0);
        let t0 = sim.now_ns();
        let t1 = sim.now_ns();
        assert!(t1 > t0);
        assert_eq!(t1 - t0, 10.0, "one read advances by its overhead");
        assert_eq!(sim.reads(), 2);
    }

    #[test]
    fn readings_quantize_to_resolution() {
        let sim = SimClock::new(2)
            .with_resolution_ns(1000.0)
            .with_read_overhead_ns(10.0);
        for _ in 0..200 {
            let t = sim.now_ns();
            assert_eq!(t % 1000.0, 0.0, "reading {t} is not a 1000ns tick");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let run = |seed| {
            let sim = SimClock::new(seed)
                .with_read_jitter_ns(25.0)
                .with_read_overhead_ns(5.0);
            let mut body = sim.scripted_body(CostModel::Noisy {
                base_ns: 100.0,
                spread_ns: 40.0,
            });
            (0..64)
                .map(|_| {
                    body();
                    sim.now_ns()
                })
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(7), run(7), "same seed diverged");
        assert_ne!(run(7), run(8), "different seeds agreed");
    }

    #[test]
    fn jittered_coarse_readings_are_pinned() {
        // Literals captured from the reference implementation: any
        // reordering of the per-read float arithmetic (jitter draw, sum,
        // quantization) moves at least the unquantized time.
        let sim = SimClock::new(13)
            .with_resolution_ns(100.0)
            .with_read_jitter_ns(8.0);
        let mut body = sim.scripted_body(CostModel::Noisy {
            base_ns: 130.0,
            spread_ns: 90.0,
        });
        let readings: Vec<f64> = (0..8)
            .map(|_| {
                body();
                sim.now_ns()
            })
            .collect();
        assert_eq!(
            readings,
            [100.0, 300.0, 500.0, 600.0, 800.0, 900.0, 1100.0, 1300.0]
        );
        assert_eq!(sim.true_now_ns().to_bits(), 0x4094_7b15_6e63_8972);
        assert_eq!(sim.reads(), 8);
    }

    #[test]
    fn fine_readings_of_fractional_time_are_pinned() {
        // Resolution 1 with fractional reads and jitter: every reading
        // floors a non-integral true time. Literals captured from the
        // reference implementation.
        let sim = SimClock::new(21)
            .with_read_overhead_ns(2.5)
            .with_read_jitter_ns(3.0);
        sim.advance(0.75);
        let readings: Vec<f64> = (0..6).map(|_| sim.now_ns()).collect();
        assert_eq!(readings, [3.0, 8.0, 12.0, 17.0, 19.0, 23.0]);
        assert_eq!(sim.true_now_ns().to_bits(), 0x4037_be1b_e30e_d9ee);
        assert_eq!(sim.reads(), 6);
    }

    #[test]
    fn sleeping_for_duration_max_advances_by_its_nanoseconds() {
        let sim = SimClock::new(4);
        sim.sleep(Duration::MAX);
        assert_eq!(
            sim.true_now_ns().to_bits(),
            (Duration::MAX.as_nanos() as f64).to_bits()
        );
        assert_eq!(sim.reads(), 0);
    }

    #[test]
    fn non_negative_floor_matches_floor() {
        let two52 = (1u64 << 52) as f64;
        for x in [
            0.0,
            0.5,
            1.0,
            2.999_999,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2.0 * two52 + 2.0,
            1e20,
            1e300,
            f64::MAX,
        ] {
            assert_eq!(floor_non_negative(x).to_bits(), x.floor().to_bits(), "{x}");
        }
        let mut rng = SplitMix::new(17);
        for _ in 0..10_000 {
            let x = rng.uniform() * 1e12;
            assert_eq!(floor_non_negative(x).to_bits(), x.floor().to_bits(), "{x}");
        }
    }

    #[test]
    fn clones_share_virtual_time() {
        let a = SimClock::new(3).with_read_overhead_ns(1.0);
        let b = a.clone();
        a.advance(500.0);
        assert_eq!(b.true_now_ns(), 500.0);
        b.advance(250.0);
        assert_eq!(a.true_now_ns(), 750.0);
    }

    #[test]
    fn a_clone_driven_on_another_thread_is_seen_after_join() {
        let sim = SimClock::new(3).with_read_overhead_ns(5.0);
        let driver = sim.clone();
        std::thread::spawn(move || {
            driver.advance(100.0);
            driver.now_ns();
        })
        .join()
        .expect("driver thread");
        assert_eq!(sim.true_now_ns(), 105.0);
        assert_eq!(sim.reads(), 1);
        assert_eq!(sim.now_ns(), 110.0, "the parent drives on from there");
    }

    #[test]
    #[should_panic(expected = "configure a SimClock before cloning it")]
    fn builder_on_a_shared_clock_panics() {
        let sim = SimClock::new(3);
        let _shared = sim.clone();
        let _ = sim.with_resolution_ns(100.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "SimClock driven by two threads at once")]
    fn debug_builds_catch_a_second_driver() {
        // Holding the busy flag stands in for another thread caught inside
        // `now_ns`; the overlap is deterministic this way.
        let sim = SimClock::new(3);
        let _other = Driver::enter(&sim.state);
        sim.advance(1.0);
    }

    #[test]
    fn sleep_advances_without_reading() {
        let sim = SimClock::new(4);
        sim.sleep(Duration::from_micros(3));
        assert_eq!(sim.true_now_ns(), 3000.0);
        assert_eq!(sim.reads(), 0);
    }

    #[test]
    fn cost_models_follow_their_scripts() {
        let sim = SimClock::new(5);
        let mut rng = SplitMix::new(9);
        let step = CostModel::Step {
            knee: 2,
            before_ns: 10.0,
            after_ns: 90.0,
        };
        assert_eq!(step.cost_ns(0, &mut rng), 10.0);
        assert_eq!(step.cost_ns(1, &mut rng), 10.0);
        assert_eq!(step.cost_ns(2, &mut rng), 90.0);
        let drift = CostModel::Drifting {
            start_ns: 100.0,
            per_call_ns: 7.0,
        };
        assert_eq!(drift.cost_ns(0, &mut rng), 100.0);
        assert_eq!(drift.cost_ns(10, &mut rng), 170.0);
        let mut body = sim.scripted_body(CostModel::Constant { ns: 42.0 });
        body();
        body();
        assert_eq!(sim.true_now_ns(), 84.0);
    }

    #[test]
    fn noisy_model_stays_inside_its_band() {
        let mut rng = SplitMix::new(11);
        let noisy = CostModel::Noisy {
            base_ns: 100.0,
            spread_ns: 30.0,
        };
        for call in 0..512 {
            let c = noisy.cost_ns(call, &mut rng);
            assert!((100.0..130.0).contains(&c), "cost {c} outside band");
        }
    }

    #[test]
    fn generic_probe_recovers_configured_clock_properties() {
        // Resolution far above read overhead: the probe must report the
        // quantization step, and the overhead probe the read cost.
        let sim = SimClock::new(6)
            .with_resolution_ns(10_000.0)
            .with_read_overhead_ns(20.0);
        let res = resolution_ns_of(&sim);
        assert_eq!(res, 10_000.0, "probed resolution {res}");
        // Overhead probing needs a clock fine enough to resolve single
        // reads; quantization noise is exactly what §3.4 warns about.
        let fine = SimClock::new(6).with_read_overhead_ns(20.0);
        let overhead = overhead_ns_of(&fine);
        assert!(
            (overhead - 20.0).abs() <= 1.0,
            "probed overhead {overhead}, configured 20"
        );
        let info = ClockInfo::probe_with(&SimClock::new(6).with_read_overhead_ns(50.0));
        assert!(info.overhead_ns > 0.0 && info.resolution_ns > 0.0);
    }

    #[test]
    #[should_panic(expected = "read overhead must be finite and positive")]
    fn zero_read_overhead_rejected() {
        let _ = SimClock::new(0).with_read_overhead_ns(0.0);
    }

    #[test]
    #[should_panic(expected = "advance must be >= 0")]
    fn negative_advance_rejected() {
        SimClock::new(0).advance(-1.0);
    }
}
