//! Monotonic-clock introspection and the [`Clock`] every measurement reads.
//!
//! The paper (§3.4, "Clock resolution") reads the system clock via
//! `gettimeofday`, whose resolution on some 1995 systems was 10 ms — a long
//! time relative to benchmarks measured in microseconds. lmbench compensates
//! by timing many operations per interval. We use `std::time::Instant`
//! (`CLOCK_MONOTONIC` on Linux) but keep the compensation machinery, because
//! even a nanosecond-granular clock has a *read overhead* of tens of
//! nanoseconds that would otherwise pollute sub-100ns measurements.
//!
//! Everything downstream of the clock — calibration, repetition, overhead
//! subtraction, quality grading — is deterministic logic over observed
//! intervals, so it is testable against a *simulated* clock. [`Clock`] is
//! the one seam: [`Clock::Real`] reads `Instant`, and [`Clock::Sim`]
//! replays a scripted [`SimClock`] (coarse resolution, expensive reads,
//! jitter). The harness, the engine, the load runner and the results
//! client all hold a `Clock`, so a virtual run advances one timeline.

use crate::sim::SimClock;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Anchor instant for [`Clock::Real`] readings; process-global so every
/// real clock shares an epoch.
fn real_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The monotonic clock the timing machinery reads.
///
/// Readings never decrease and are cheap enough for measurement loops.
/// The real arm costs one match on a fieldless discriminant over the bare
/// `Instant` read; the sim arm shares a seeded [`SimClock`] with the
/// scripted bodies that advance it.
#[derive(Debug, Clone)]
pub enum Clock {
    /// The host's monotonic clock (`std::time::Instant`).
    Real,
    /// A seeded virtual clock: reads and sleeps advance virtual time.
    Sim(SimClock),
}

impl Clock {
    /// Nanoseconds since an arbitrary fixed epoch.
    ///
    /// Readings are quantized to the clock's resolution and cost its read
    /// overhead — exactly the imperfections §3.4's machinery compensates
    /// for, which is why the simulated arm models both.
    #[inline(always)]
    pub fn now_ns(&self) -> f64 {
        match self {
            Clock::Real => real_epoch().elapsed().as_nanos() as f64,
            Clock::Sim(sim) => sim.now_ns(),
        }
    }

    /// Blocks for `d`, or under simulation advances virtual time by it.
    pub fn sleep(&self, d: Duration) {
        match self {
            Clock::Real => std::thread::sleep(d),
            Clock::Sim(sim) => sim.sleep(d),
        }
    }

    /// The virtual clock, when this one is simulated.
    #[must_use]
    pub fn sim(&self) -> Option<&SimClock> {
        match self {
            Clock::Real => None,
            Clock::Sim(sim) => Some(sim),
        }
    }

    /// Whether this clock advances virtual rather than wall-clock time.
    ///
    /// Engine-level machinery (watchdogs, retry backoff, phase budgets)
    /// branches on this to stay deterministic under simulation while
    /// keeping the real path unchanged.
    #[must_use]
    pub fn is_virtual(&self) -> bool {
        matches!(self, Clock::Sim(_))
    }
}

/// Observed properties of a monotonic clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockInfo {
    /// Smallest nonzero tick the clock can report, in nanoseconds.
    pub resolution_ns: f64,
    /// Median cost of one clock read, in nanoseconds.
    pub overhead_ns: f64,
}

impl ClockInfo {
    /// Probes `clock` and returns its resolution and read overhead.
    ///
    /// The probe is cheap (well under a millisecond on the host clock) and
    /// deterministic in structure, so it is safe to call at harness
    /// construction time.
    pub fn probe(clock: &Clock) -> Self {
        Self {
            resolution_ns: clock_resolution_ns(clock),
            overhead_ns: clock_overhead_ns(clock),
        }
    }

    /// Minimum interval a timed region should span so that clock
    /// quantization contributes at most `1/multiple` relative error.
    pub fn min_interval(&self, multiple: u32) -> Duration {
        let floor_ns = (self.resolution_ns.max(self.overhead_ns)) * f64::from(multiple);
        // Never time an interval shorter than 10us even on perfect clocks:
        // scheduler jitter dominates below that.
        Duration::from_nanos(floor_ns.max(10_000.0) as u64)
    }
}

impl Default for ClockInfo {
    fn default() -> Self {
        Self::probe(&Clock::Real)
    }
}

/// Upper bound on reads spent waiting for a clock to visibly advance; a
/// clock that stalls longer is treated as having already shown its
/// coarsest useful tick (guards against pathological simulated clocks).
const RESOLUTION_SPIN_LIMIT: u32 = 1 << 20;

/// Measures the smallest nonzero delta `clock` reports.
///
/// Spins reading the clock until it advances, many times, and returns the
/// smallest observed advance in nanoseconds. On modern Linux this is a few
/// tens of nanoseconds; on the paper's 1995 systems the analogous probe
/// would have reported 10 ms.
pub fn clock_resolution_ns(clock: &Clock) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..64 {
        let start = clock.now_ns();
        let mut now = clock.now_ns();
        // Spin until the clock visibly advances (bounded, so a broken or
        // frozen clock cannot hang the probe).
        let mut spins = 0;
        while now == start && spins < RESOLUTION_SPIN_LIMIT {
            now = clock.now_ns();
            spins += 1;
        }
        let delta = now - start;
        if delta > 0.0 && delta < best {
            best = delta;
        }
    }
    if best.is_finite() {
        best
    } else {
        // The clock never advanced during the probe; assume 1ns (the type's
        // granularity) rather than reporting an infinite resolution.
        1.0
    }
}

/// Measures the median cost of a single read of `clock`.
pub fn clock_overhead_ns(clock: &Clock) -> f64 {
    const BATCH: u32 = 1024;
    let mut samples = Vec::with_capacity(16);
    for _ in 0..16 {
        let start = clock.now_ns();
        for _ in 0..BATCH {
            std::hint::black_box(clock.now_ns());
        }
        let elapsed = clock.now_ns() - start;
        samples.push(elapsed / f64::from(BATCH));
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// A started stopwatch; reading it yields elapsed nanoseconds.
///
/// This is the direct analog of lmbench's `start()` / `stop()` pair.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[inline(always)]
    pub fn start() -> Self {
        Self {
            started: Instant::now(),
        }
    }

    /// Elapsed time since [`Stopwatch::start`], in nanoseconds.
    #[inline(always)]
    pub fn elapsed_ns(&self) -> f64 {
        self.started.elapsed().as_nanos() as f64
    }

    /// Elapsed time since [`Stopwatch::start`].
    #[inline(always)]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_is_positive_and_sane() {
        let r = clock_resolution_ns(&Clock::Real);
        assert!(r >= 1.0, "resolution {r} below 1ns");
        // Anything coarser than 10ms would break the suite the same way it
        // broke 1995 gettimeofday users; modern clocks are far better.
        assert!(r < 10_000_000.0, "resolution {r} ns is implausibly coarse");
    }

    #[test]
    fn overhead_is_positive_and_sane() {
        let o = clock_overhead_ns(&Clock::Real);
        assert!(o > 0.0);
        assert!(o < 100_000.0, "Instant::now() cost {o} ns is implausible");
    }

    #[test]
    fn min_interval_scales_with_multiple() {
        let info = ClockInfo {
            resolution_ns: 100.0,
            overhead_ns: 20.0,
        };
        let small = info.min_interval(100);
        let large = info.min_interval(10_000);
        assert!(large >= small);
        assert!(large >= Duration::from_nanos(100 * 10_000));
    }

    #[test]
    fn min_interval_has_floor() {
        let info = ClockInfo {
            resolution_ns: 1.0,
            overhead_ns: 1.0,
        };
        assert!(info.min_interval(1) >= Duration::from_micros(10));
    }

    #[test]
    fn stopwatch_measures_sleep() {
        let sw = Stopwatch::start();
        std::thread::sleep(Duration::from_millis(5));
        let ns = sw.elapsed_ns();
        assert!(ns >= 4_000_000.0, "slept 5ms but measured {ns}ns");
    }

    #[test]
    fn probe_populates_both_fields() {
        let info = ClockInfo::probe(&Clock::Real);
        assert!(info.resolution_ns >= 1.0);
        assert!(info.overhead_ns > 0.0);
    }

    #[test]
    fn real_clock_is_monotonic_and_shares_an_epoch() {
        let a = Clock::Real;
        let b = Clock::Real;
        let t0 = a.now_ns();
        let t1 = b.now_ns();
        let t2 = a.now_ns();
        assert!(t1 >= t0, "independent real clocks disagree: {t0} then {t1}");
        assert!(t2 >= t1);
    }

    #[test]
    fn real_clock_sleep_advances_the_reading() {
        let c = Clock::Real;
        let t0 = c.now_ns();
        c.sleep(Duration::from_millis(2));
        assert!(c.now_ns() - t0 >= 1_500_000.0);
    }

    #[test]
    fn real_path_read_overhead_is_not_inflated_by_the_trait() {
        // Dispatch-cost guard: timing a batch of reads through
        // `Clock::Real` must cost the same regime as raw `Instant::now()` —
        // if the enum's real arm ever gained dynamic dispatch or an
        // allocation, this ratio explodes.
        const BATCH: u32 = 4096;
        let median = |f: &mut dyn FnMut() -> f64| {
            let mut runs: Vec<f64> = (0..9).map(|_| f()).collect();
            runs.sort_by(|a, b| a.total_cmp(b));
            runs[runs.len() / 2]
        };
        let clock = Clock::Real;
        let mut via_clock = || {
            let sw = Stopwatch::start();
            for _ in 0..BATCH {
                std::hint::black_box(clock.now_ns());
            }
            sw.elapsed_ns() / f64::from(BATCH)
        };
        let mut via_instant = || {
            let sw = Stopwatch::start();
            for _ in 0..BATCH {
                std::hint::black_box(Instant::now());
            }
            sw.elapsed_ns() / f64::from(BATCH)
        };
        let generic = median(&mut via_clock);
        let direct = median(&mut via_instant);
        // Wide bound: now_ns adds a subtraction + f64 conversion over the
        // bare Instant read, and CI machines are noisy. Catching a 10x
        // blow-up is the point, not a 1.1x one.
        assert!(
            generic <= direct * 10.0 + 50.0,
            "clock read {generic}ns vs instant {direct}ns"
        );
    }
}
