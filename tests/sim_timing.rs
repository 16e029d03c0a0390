//! Deterministic virtual-time tests for the measurement substrate.
//!
//! Every test here drives the real harness/calibration/sizing code against
//! a seeded `SimClock` instead of the host clock, so the assertions are
//! exact functions of the scripted inputs: no host-speed dependence, no
//! flaky tolerances, and two runs with the same seed must produce
//! byte-identical measurements (the determinism test at the bottom, which
//! CI runs twice and compares).

use lmbench::timing::{calibrate_iterations, Clock, ClockInfo, Quality};
use lmbench::timing::{paged_out_fraction, CostModel, Harness, Options, SimClock, SummaryPolicy};
use std::time::Duration;

/// A pinned ClockInfo whose overhead matches the sim's read overhead, so
/// compensation cancels the reads exactly and per-op times equal the
/// scripted body costs.
fn pinned(overhead_ns: f64) -> ClockInfo {
    ClockInfo {
        resolution_ns: 1.0,
        overhead_ns,
    }
}

#[test]
fn calibration_converges_within_2x_of_target_across_clock_resolutions() {
    // Clock resolutions spanning seven orders of magnitude, 1ns to 10ms —
    // the paper's §3.4 range from modern monotonic clocks back to 1995-era
    // gettimeofday. The target scales with the resolution so each interval
    // can span many ticks (the same rule the harness itself applies via
    // `resolution_multiple`).
    for (seed, res_ns) in [
        (1u64, 1.0f64),
        (2, 30.0),
        (3, 1_000.0),
        (4, 100_000.0),
        (5, 1_000_000.0),
        (6, 10_000_000.0),
    ] {
        let target_ns = (20.0 * res_ns).max(5_000_000.0);
        let target = Duration::from_nanos(target_ns as u64);
        let sim = SimClock::new(seed)
            .with_resolution_ns(res_ns)
            .with_read_overhead_ns(20.0);
        let body = sim.scripted_body(CostModel::Constant { ns: 750.0 });
        let cal = calibrate_iterations(&Clock::Sim(sim), target, body);
        assert!(
            cal.observed_ns >= target_ns,
            "res {res_ns}ns: undershot target ({} < {target_ns})",
            cal.observed_ns
        );
        assert!(
            cal.observed_ns <= target_ns * 2.0,
            "res {res_ns}ns: final interval {}ns more than 2x the {target_ns}ns target",
            cal.observed_ns
        );
        assert!(cal.iterations >= 1);
    }
}

#[test]
fn per_op_times_are_never_negative_after_compensation() {
    // Property sweep: whatever the relation between body cost and claimed
    // clock overhead — including overheads that dwarf the interval — no
    // sample and no summary may ever go negative.
    let models = [
        CostModel::Constant { ns: 5.0 },
        CostModel::Constant { ns: 5_000.0 },
        CostModel::Step {
            knee: 3,
            before_ns: 10.0,
            after_ns: 9_000.0,
        },
        CostModel::Noisy {
            base_ns: 50.0,
            spread_ns: 400.0,
        },
        CostModel::Drifting {
            start_ns: 1.0,
            per_call_ns: 40.0,
        },
    ];
    for seed in 0..8u64 {
        for (mi, model) in models.iter().enumerate() {
            for claimed_overhead in [0.0, 30.0, 2_000.0, 50_000.0] {
                let sim = SimClock::new(seed * 100 + mi as u64).with_read_overhead_ns(25.0);
                let body = sim.scripted_body(*model);
                let h = Harness::pinned(
                    Options::quick().with_warmup_runs(0).with_repetitions(5),
                    Clock::Sim(sim),
                    pinned(claimed_overhead),
                );
                let m = h.measure_block(1, body);
                assert!(
                    m.per_op_ns() >= 0.0,
                    "seed {seed} model {mi} overhead {claimed_overhead}: {}",
                    m.per_op_ns()
                );
                for &s in m.samples().values() {
                    assert!(s >= 0.0, "negative sample {s}");
                }
                if m.clamped_samples() > 0 {
                    assert_eq!(m.quality(), Quality::Suspect, "clamps must taint");
                }
            }
        }
    }
}

#[test]
fn min_and_median_summaries_match_hand_computed_fixture() {
    // Drifting body, one warm-up call (cost 100), five repetitions of one
    // call each (costs 110..150 by tens). The pinned overhead matches the
    // sim's read overhead, so compensation cancels exactly and the sample
    // set is precisely {110, 120, 130, 140, 150}.
    let sim = SimClock::new(42).with_read_overhead_ns(60.0);
    let body = sim.scripted_body(CostModel::Drifting {
        start_ns: 100.0,
        per_call_ns: 10.0,
    });
    let h = Harness::pinned(
        Options::quick().with_warmup_runs(1).with_repetitions(5),
        Clock::Sim(sim),
        pinned(60.0),
    );
    let m = h.measure_block(1, body);
    assert_eq!(m.per_op_ns(), 110.0, "Minimum policy picks the first call");
    assert_eq!(
        m.clone().with_policy(SummaryPolicy::Median).per_op_ns(),
        130.0
    );
    assert_eq!(m.samples().min(), Some(110.0));
    assert_eq!(m.samples().max(), Some(150.0));
    // Sample CV: mean 130, sample variance (400+100+0+100+400)/4 = 250,
    // stddev sqrt(250) -> cv = sqrt(250)/130 ~ 0.1216: between the 0.10
    // Good bound and the 0.30 Suspect bound.
    let expected_cv = 250.0_f64.sqrt() / 130.0;
    assert!((m.samples().cv() - expected_cv).abs() < 1e-12);
    assert_eq!(m.quality(), Quality::Noisy, "cv 12% grades Noisy exactly");
    assert_eq!(m.clamped_samples(), 0);
}

#[test]
fn quality_grades_follow_cv_bands_exactly() {
    // Constant body: zero dispersion, Good.
    let sim = SimClock::new(43).with_read_overhead_ns(10.0);
    let body = sim.scripted_body(CostModel::Constant { ns: 400.0 });
    let h = Harness::pinned(
        Options::quick().with_warmup_runs(0).with_repetitions(7),
        Clock::Sim(sim),
        pinned(10.0),
    );
    let m = h.measure_block(1, body);
    assert_eq!(m.per_op_ns(), 400.0);
    assert_eq!(m.samples().cv(), 0.0);
    assert_eq!(m.quality(), Quality::Good);

    // Step body falling off a knee mid-measurement: 2 cheap samples, 3
    // expensive ones -> huge dispersion, Suspect. Set {10, 10, 5000,
    // 5000, 5000}: mean 3004, stddev ~2732, cv ~0.91 > 0.30.
    let sim = SimClock::new(44).with_read_overhead_ns(10.0);
    let body = sim.scripted_body(CostModel::Step {
        knee: 2,
        before_ns: 10.0,
        after_ns: 5_000.0,
    });
    let h = Harness::pinned(
        Options::quick().with_warmup_runs(0).with_repetitions(5),
        Clock::Sim(sim),
        pinned(10.0),
    );
    let m = h.measure_block(1, body);
    assert_eq!(m.samples().min(), Some(10.0));
    assert_eq!(m.samples().max(), Some(5_000.0));
    assert!(m.samples().cv() > 0.30, "cv {}", m.samples().cv());
    assert_eq!(m.quality(), Quality::Suspect);
}

#[test]
fn overhead_larger_than_interval_clamps_and_grades_suspect() {
    // The original negative-time bug, reproduced end to end: claimed
    // overhead 10us around a 100ns body used to yield -9.9us per op.
    let sim = SimClock::new(45).with_read_overhead_ns(40.0);
    let body = sim.scripted_body(CostModel::Constant { ns: 100.0 });
    let h = Harness::pinned(
        Options::quick().with_warmup_runs(0).with_repetitions(5),
        Clock::Sim(sim),
        pinned(10_000.0),
    );
    let m = h.measure_block(1, body);
    assert_eq!(m.per_op_ns(), 0.0);
    assert_eq!(m.clamped_samples(), 5);
    assert_eq!(m.quality(), Quality::Suspect);
}

#[test]
fn sizing_probe_classifies_simulated_residency_correctly() {
    // Resident region behind an expensive clock: every touch costs 200ns,
    // each read 6us. Uncompensated timing would see 6.2us > the 4us
    // threshold on every page and declare the whole region paged out.
    let sim = SimClock::new(46).with_read_overhead_ns(6_000.0);
    let clock = pinned(6_000.0);
    let mut touch = sim.scripted_body(CostModel::Constant { ns: 200.0 });
    let fraction = paged_out_fraction(&Clock::Sim(sim), &clock, 128, |_| touch());
    assert_eq!(fraction, 0.0, "resident region misclassified");

    // Genuinely paged-out region: every 5th page faults at 80us.
    let sim = SimClock::new(47).with_read_overhead_ns(30.0);
    let clock = pinned(30.0);
    let mut fast = sim.scripted_body(CostModel::Constant { ns: 150.0 });
    let fraction = paged_out_fraction(&Clock::Sim(sim.clone()), &clock, 200, |p| {
        if p % 5 == 0 {
            sim.advance(80_000.0);
        } else {
            fast();
        }
    });
    assert!((fraction - 0.2).abs() < 1e-9, "fraction {fraction}");
}

#[test]
fn percentile_edges_hold_on_sim_measured_samples() {
    // Even repetition count from a drifting body: sample set {200, 210,
    // 220, 230, 240, 250}.
    let sim = SimClock::new(48).with_read_overhead_ns(20.0);
    let body = sim.scripted_body(CostModel::Drifting {
        start_ns: 200.0,
        per_call_ns: 10.0,
    });
    let h = Harness::pinned(
        Options::quick().with_warmup_runs(0).with_repetitions(6),
        Clock::Sim(sim),
        pinned(20.0),
    );
    let m = h.measure_block(1, body);
    let s = m.samples();
    assert_eq!(s.len(), 6);
    assert_eq!(s.percentile(0.0), s.min(), "p0 is the exact minimum");
    assert_eq!(s.percentile(100.0), s.max(), "p100 is the exact maximum");
    assert_eq!(s.p50(), s.median(), "p50 and median agree on even sets");
    assert_eq!(s.median(), Some(225.0), "midpoint of 220 and 230");
    assert_eq!(s.percentile(101.0), None);

    // All-equal set from a constant body: every percentile collapses.
    let sim = SimClock::new(49).with_read_overhead_ns(20.0);
    let body = sim.scripted_body(CostModel::Constant { ns: 333.0 });
    let h = Harness::pinned(
        Options::quick().with_warmup_runs(0).with_repetitions(5),
        Clock::Sim(sim),
        pinned(20.0),
    );
    let m = h.measure_block(1, body);
    for p in [0.0, 25.0, 50.0, 75.0, 99.0, 100.0] {
        assert_eq!(m.samples().percentile(p), Some(333.0), "p{p}");
    }

    // Single repetition: the lone sample is every percentile, and the
    // measurement honestly grades Suspect (no dispersion information).
    let sim = SimClock::new(50).with_read_overhead_ns(20.0);
    let body = sim.scripted_body(CostModel::Constant { ns: 777.0 });
    let h = Harness::pinned(
        Options::quick().with_warmup_runs(0).with_repetitions(1),
        Clock::Sim(sim),
        pinned(20.0),
    );
    let m = h.measure_block(1, body);
    assert_eq!(m.samples().p50(), Some(777.0));
    assert_eq!(m.samples().p99(), Some(777.0));
    assert_eq!(m.quality(), Quality::Suspect);
}

#[test]
fn full_harness_run_on_sim_clock_is_self_consistent() {
    // End-to-end through the probing constructor (no pinned ClockInfo):
    // the harness probes the sim clock, calibrates against it, and the
    // measured per-op time must land on the scripted cost within the
    // probe's own estimation error.
    let sim = SimClock::new(51).with_read_overhead_ns(15.0);
    let body = sim.scripted_body(CostModel::Constant { ns: 2_000.0 });
    let h = Harness::on_clock(Options::quick().with_warmup_runs(1), Clock::Sim(sim));
    assert!(h.clock().resolution_ns > 0.0);
    let m = h.measure(body);
    assert!(
        (m.per_op_ns() - 2_000.0).abs() < 20.0,
        "per-op {}ns, scripted 2000ns",
        m.per_op_ns()
    );
    assert_eq!(m.clamped_samples(), 0);
}

/// The capture scenario for the CI determinism gate: a fixed-seed sim run
/// whose every measured quantity is serialized to JSON text.
fn capture_measurements(seed: u64) -> String {
    let mut out = String::from("[\n");
    let scenarios: [(&str, CostModel); 4] = [
        ("constant", CostModel::Constant { ns: 640.0 }),
        (
            "step",
            CostModel::Step {
                knee: 8,
                before_ns: 90.0,
                after_ns: 2_600.0,
            },
        ),
        (
            "noisy",
            CostModel::Noisy {
                base_ns: 500.0,
                spread_ns: 700.0,
            },
        ),
        (
            "drifting",
            CostModel::Drifting {
                start_ns: 300.0,
                per_call_ns: 12.0,
            },
        ),
    ];
    for (i, (name, model)) in scenarios.iter().enumerate() {
        let sim = SimClock::new(seed + i as u64)
            .with_read_overhead_ns(35.0)
            .with_read_jitter_ns(8.0);
        let body = sim.scripted_body(*model);
        let h = Harness::pinned(
            Options::quick().with_warmup_runs(1).with_repetitions(9),
            Clock::Sim(sim.clone()),
            pinned(35.0),
        );
        let m = h.measure_block(1, body);
        let samples: Vec<String> = m
            .samples()
            .values()
            .iter()
            .map(|v| format!("{v:?}"))
            .collect();
        out.push_str(&format!(
            "  {{\"scenario\": \"{name}\", \"per_op_ns\": {:?}, \"clamped\": {}, \"quality\": \"{}\", \"reads\": {}, \"samples\": [{}]}}{}\n",
            m.per_op_ns(),
            m.clamped_samples(),
            m.quality().label(),
            sim.reads(),
            samples.join(", "),
            if i + 1 < scenarios.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

#[test]
fn same_seed_runs_produce_byte_identical_measurements() {
    // In-process half of the determinism gate: two independent clocks and
    // bodies built from the same seed must replay the exact same virtual
    // timeline. CI repeats this across *processes* by setting
    // LMBENCH_SIM_CAPTURE to two different paths on two runs of this test
    // binary and comparing the files byte for byte.
    let first = capture_measurements(1996);
    let second = capture_measurements(1996);
    assert_eq!(first, second, "same seed must replay identically");
    let different = capture_measurements(2026);
    assert_ne!(first, different, "different seed must actually differ");
    if let Ok(path) = std::env::var("LMBENCH_SIM_CAPTURE") {
        std::fs::write(&path, &first).expect("write capture file");
    }
}

#[test]
fn sim_sleep_advances_virtual_time_without_waiting() {
    let sim = SimClock::new(52);
    let before = sim.true_now_ns();
    let wall = std::time::Instant::now();
    sim.sleep(Duration::from_secs(3600));
    assert!(
        wall.elapsed() < Duration::from_secs(5),
        "sim sleep must not block the host"
    );
    assert!(sim.true_now_ns() - before >= 3.6e12, "an hour passed");
}
