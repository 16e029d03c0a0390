//! Cross-crate checks of the §3 measurement methodology itself — the
//! paper's "Benchmarking notes" as executable claims.

use lmbench::timing::{
    calibrate_iterations, clock_overhead_ns, clock_resolution_ns, probe_available_memory, Clock,
    Harness, MemorySizer, Options, Samples, SummaryPolicy,
};
use std::time::Duration;

#[test]
fn clock_compensation_keeps_relative_error_small() {
    // §3.4: intervals must span many ticks. Measure a known-duration body
    // (a spin of fixed work) twice with wildly different target intervals;
    // the calibrated results must agree within noise even though the raw
    // clock could not time one iteration.
    let work = || {
        let mut acc = 0u64;
        for i in 0..512u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
    };
    let short = Harness::new(
        Options::quick()
            .with_warmup_runs(1)
            .with_repetitions(5)
            .with_resolution_multiple(100)
            .with_min_interval(Duration::from_micros(100))
            .with_policy(SummaryPolicy::Minimum),
    )
    .measure(work)
    .per_op_ns();
    let long = Harness::new(
        Options::quick()
            .with_warmup_runs(1)
            .with_repetitions(5)
            .with_resolution_multiple(10_000)
            .with_min_interval(Duration::from_millis(10))
            .with_policy(SummaryPolicy::Minimum),
    )
    .measure(work)
    .per_op_ns();
    assert!(short > 0.0 && long > 0.0);
    let ratio = short / long;
    assert!(
        (0.5..2.0).contains(&ratio),
        "interval choice changed the answer: {short} vs {long} ns"
    );
}

#[test]
fn calibration_scales_iterations_with_target() {
    let body = || {
        std::hint::black_box((0..64u64).fold(0u64, |a, b| a ^ b));
    };
    let small = calibrate_iterations(&Clock::Real, Duration::from_micros(100), body).iterations;
    let large = calibrate_iterations(&Clock::Real, Duration::from_millis(20), body).iterations;
    assert!(
        large > small,
        "20ms target calibrated to {large} <= 100us target's {small}"
    );
}

#[test]
fn min_of_n_suppresses_injected_noise() {
    // §3.4 "Variability": simulate 11 runs where some are disturbed; the
    // minimum recovers the quiet value, the mean does not.
    let quiet = 100.0;
    let samples = Samples::from_values([
        quiet,
        quiet * 1.28,
        quiet * 1.01,
        quiet * 1.15,
        quiet,
        quiet * 1.30,
        quiet * 1.02,
        quiet,
        quiet * 1.22,
        quiet * 1.05,
        quiet * 1.01,
    ]);
    let min = samples.summarize(SummaryPolicy::Minimum).unwrap();
    let mean = samples.summarize(SummaryPolicy::Mean).unwrap();
    assert_eq!(min, quiet);
    assert!(mean > quiet * 1.05, "mean {mean} did not absorb the noise");
    // The paper's "up to 30%" spread statistic.
    assert!(samples.relative_spread() > 0.25);
}

#[test]
fn memory_probe_finds_usable_memory_and_sizer_uses_it() {
    // §3.1: "A small test program allocates as much memory as it can ...".
    let got = probe_available_memory(1 << 20, 64 << 20);
    assert!(got >= 1 << 20, "probe found only {got} bytes");
    let sizer = MemorySizer::with_available(got);
    let copy = sizer.copy_buffer_size();
    assert!((1 << 20..=8 << 20).contains(&copy), "copy size {copy}");
}

#[test]
fn clock_probe_is_stable_across_calls() {
    let r1 = clock_resolution_ns(&Clock::Real);
    let r2 = clock_resolution_ns(&Clock::Real);
    // Same clock hardware: within 100x of each other (probes are noisy
    // but not regime-changing).
    assert!(r1 / r2 < 100.0 && r2 / r1 < 100.0, "{r1} vs {r2}");
    let o = clock_overhead_ns(&Clock::Real);
    assert!(o > 0.0 && o < 100_000.0);
}

#[test]
fn warm_cache_policy_makes_second_run_no_slower_systematically() {
    // §3.4 "Caching": a warm re-read of the same buffer must not be slower
    // than the cold first touch (which pays page faults).
    let h = Harness::new(Options::quick());
    let buf = vec![1u64; (8 << 20) / 8];
    // Cold pass by hand:
    let sw = lmbench::timing::clock::Stopwatch::start();
    std::hint::black_box(lmbench::mem::bw::read_sum(&buf));
    let cold_ns = sw.elapsed_ns();
    // Harness-managed warm passes:
    let warm = h.measure_block(1, || {
        std::hint::black_box(lmbench::mem::bw::read_sum(&buf));
    });
    assert!(
        warm.per_op_ns() <= cold_ns * 2.0,
        "warm {} vs cold {}",
        warm.per_op_ns(),
        cold_ns
    );
}
