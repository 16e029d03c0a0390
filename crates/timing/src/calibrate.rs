//! Loop calibration: choose how many operations to time per interval.
//!
//! This is the heart of the paper's clock-resolution compensation (§3.4):
//! "the benchmarks are hand-tuned to measure many operations within a single
//! time interval lasting for many clock ticks. Typically, this is done by
//! executing the operation in a small loop ... and then dividing the loop
//! time by the loop count." We automate the hand-tuning: a geometric ramp
//! doubles the loop count until one timed interval exceeds the target, with
//! a linear projection to land the final interval *near* the target instead
//! of far beyond it.

use crate::clock::Clock;
use std::time::Duration;

/// Result of calibrating a benchmark body against the clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Iterations per timed interval.
    pub iterations: u64,
    /// The interval the calibration aimed for.
    pub target: Duration,
    /// Elapsed nanoseconds of the final calibration probe — the interval
    /// `iterations` runs of the body actually took. Callers that need a
    /// per-iteration estimate before the first timed repetition (time
    /// budgeting, trace narration) can use this instead of re-timing blind.
    pub observed_ns: f64,
}

impl Calibration {
    /// Observed nanoseconds per iteration during the final probe (0.0 when
    /// the probe interval was below clock resolution).
    #[must_use]
    pub fn observed_per_iter_ns(&self) -> f64 {
        if self.iterations > 0 {
            self.observed_ns / self.iterations as f64
        } else {
            0.0
        }
    }
}

/// Upper bound on the calibration ramp; protects against a body that the
/// optimizer reduced to nothing (which would otherwise ramp forever).
pub const MAX_ITERATIONS: u64 = 1 << 34;

/// Cap on how far past the target one projection jump may aim, as a
/// multiple of the target interval.
///
/// The linear projection divides by the last observed elapsed time; when
/// that observation is a tiny nonzero value (a single coarse-clock tick, a
/// jitter artifact) the quotient can be wildly optimistic, and an uncapped
/// jump would time one enormous interval — long enough to trip the
/// engine's per-benchmark timeout. Bounding the *predicted interval* (not
/// just the iteration step) keeps the worst single probe near the target.
pub const MAX_PROJECTED_TARGET_MULTIPLE: f64 = 2.0;

/// Finds an iteration count such that `iterations` runs of `body` take at
/// least `target` time on `clock`.
///
/// The ramp starts at 1 and doubles until a probe lands within 2x of the
/// target; from there the final count is projected linearly from the last
/// observation (with a 1.2 fudge for loop overhead amortization), capped so
/// the predicted interval never exceeds [`MAX_PROJECTED_TARGET_MULTIPLE`]
/// times the target and the step never exceeds 16x. Projection waits for a
/// close-in observation because an interval spanning a single coarse clock
/// tick can under-read its true length by half, and a jump computed from it
/// overshoots accordingly.
///
/// # Examples
///
/// ```
/// use lmb_timing::{calibrate_iterations, Clock};
/// use std::time::Duration;
/// let cal = calibrate_iterations(&Clock::Real, Duration::from_micros(200), || {
///     std::hint::black_box((0..64u64).sum::<u64>());
/// });
/// assert!(cal.iterations >= 1);
/// assert!(cal.observed_ns > 0.0);
/// ```
pub fn calibrate_iterations(
    clock: &Clock,
    target: Duration,
    mut body: impl FnMut(),
) -> Calibration {
    let target_ns = target.as_nanos() as f64;
    let mut n: u64 = 1;
    loop {
        let elapsed = time_interval_ns(clock, n, &mut body);
        if elapsed >= target_ns {
            return Calibration {
                iterations: n,
                target,
                observed_ns: elapsed,
            };
        }
        if n >= MAX_ITERATIONS {
            // The body is unmeasurably fast; report the cap. Per-op times
            // computed with this count will read as ~0, matching the paper's
            // "reported time may be zero" convention.
            return Calibration {
                iterations: MAX_ITERATIONS,
                target,
                observed_ns: elapsed,
            };
        }
        let next = if elapsed * 2.0 >= target_ns {
            // Linear projection toward the target, 1.2 fudge for loop
            // overhead amortizing away. Projection is only trusted from
            // within 2x of the target: that close, the interval spans
            // enough clock ticks that the quantization error (under one
            // tick per endpoint) is a small fraction of the estimate.
            // Projecting from the first stray tick used to overshoot the
            // target by 2.4x on coarse clocks — a single tick can
            // under-read the true interval by half. The jump stays
            // double-bounded anyway: the predicted interval must sit
            // within MAX_PROJECTED_TARGET_MULTIPLE of the target, and the
            // count may grow at most 16x (and must grow at least 1).
            let per_iter = elapsed / n as f64;
            let projected = (target_ns / per_iter * 1.2).ceil() as u64;
            let interval_cap =
                (target_ns * MAX_PROJECTED_TARGET_MULTIPLE / per_iter).floor() as u64;
            projected
                .min(interval_cap)
                .clamp(n + 1, n.saturating_mul(16))
        } else {
            // No signal yet, or still far from the target: double blindly.
            // A doubling step lands at most 2x past the target.
            n.saturating_mul(2)
        };
        n = next.min(MAX_ITERATIONS);
    }
}

/// Times `iterations` runs of `body` on `clock` and returns the raw
/// elapsed interval in nanoseconds (no division, no compensation).
///
/// This is the primitive the harness builds on: it subtracts the probed
/// clock-read overhead itself so the clamping decision stays observable.
///
/// # Panics
///
/// Panics if `iterations` is zero.
pub fn time_interval_ns(clock: &Clock, iterations: u64, mut body: impl FnMut()) -> f64 {
    assert!(iterations > 0, "cannot time zero iterations");
    let start = clock.now_ns();
    for _ in 0..iterations {
        body();
    }
    clock.now_ns() - start
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{CostModel, SimClock};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn calibration_meets_target() {
        let target = Duration::from_micros(500);
        let cal = calibrate_iterations(&Clock::Real, target, || {
            std::hint::black_box((0..32u64).fold(0, |a, b| a ^ b));
        });
        // Re-run at the calibrated count; it should take at least ~half the
        // target (allowing for warm-up effects in the calibration pass).
        let total = time_interval_ns(&Clock::Real, cal.iterations, || {
            std::hint::black_box((0..32u64).fold(0, |a, b| a ^ b));
        });
        assert!(
            total >= target.as_nanos() as f64 * 0.25,
            "calibrated interval {total}ns far below target"
        );
        assert!(
            cal.observed_ns >= target.as_nanos() as f64,
            "observed {} below target",
            cal.observed_ns
        );
    }

    #[test]
    fn calibration_of_slow_body_stays_small() {
        let cal = calibrate_iterations(&Clock::Real, Duration::from_micros(100), || {
            std::thread::sleep(Duration::from_micros(200));
        });
        assert_eq!(cal.iterations, 1);
    }

    #[test]
    fn calibration_runs_body_at_least_once() {
        let count = AtomicU64::new(0);
        calibrate_iterations(&Clock::Real, Duration::from_nanos(1), || {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert!(count.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    #[should_panic(expected = "zero iterations")]
    fn zero_iterations_rejected() {
        time_interval_ns(&Clock::Real, 0, || {});
    }

    #[test]
    fn simulated_calibration_lands_near_the_target() {
        // Constant 80ns body, clean clock: the final probe must meet the
        // target without overshooting past the projection cap.
        let target = Duration::from_millis(5);
        let target_ns = target.as_nanos() as f64;
        let sim = SimClock::new(21).with_read_overhead_ns(20.0);
        let body = sim.scripted_body(CostModel::Constant { ns: 80.0 });
        let cal = calibrate_iterations(&Clock::Sim(sim), target, body);
        assert!(
            cal.observed_ns >= target_ns,
            "undershot: {}",
            cal.observed_ns
        );
        assert!(
            cal.observed_ns <= target_ns * 2.0,
            "overshot: {}ns for a {}ns target",
            cal.observed_ns,
            target_ns
        );
        assert!((cal.observed_per_iter_ns() - 80.0).abs() < 1.0);
    }

    #[test]
    fn projection_is_capped_when_the_first_signal_is_a_tiny_tick() {
        // Coarse 1ms clock, 50us body: early probes read 0 or one stray
        // tick, which used to project a single enormous interval. The
        // interval cap bounds the worst probe near the target.
        let target = Duration::from_millis(100);
        let target_ns = target.as_nanos() as f64;
        let sim = SimClock::new(22)
            .with_resolution_ns(1e6)
            .with_read_overhead_ns(100.0);
        let body = sim.scripted_body(CostModel::Constant { ns: 50_000.0 });
        let before = sim.true_now_ns();
        let cal = calibrate_iterations(&Clock::Sim(sim.clone()), target, body);
        assert!(cal.observed_ns >= target_ns);
        assert!(
            cal.observed_ns <= target_ns * (MAX_PROJECTED_TARGET_MULTIPLE + 0.1),
            "final probe {}ns blew past the cap for target {}ns",
            cal.observed_ns,
            target_ns
        );
        // The whole ramp (sum of all probes) stays bounded too: every
        // below-target probe is < target, there are O(log) of them, and the
        // final one is capped. 20x the target is a generous envelope that
        // still catches a multi-second runaway.
        let spent = sim.true_now_ns() - before;
        assert!(
            spent <= target_ns * 20.0,
            "calibration spent {spent}ns on a {target_ns}ns target"
        );
    }

    #[test]
    fn simulated_zero_elapsed_probes_double_until_signal() {
        // Body far below resolution: the ramp must double blindly, then
        // finish once intervals become visible.
        let sim = SimClock::new(23)
            .with_resolution_ns(10_000.0)
            .with_read_overhead_ns(5.0);
        let body = sim.scripted_body(CostModel::Constant { ns: 3.0 });
        let cal = calibrate_iterations(&Clock::Sim(sim), Duration::from_micros(100), body);
        assert!(cal.iterations > 1_000, "iterations {}", cal.iterations);
        assert!(cal.observed_ns >= 100_000.0);
    }
}
