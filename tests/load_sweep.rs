//! Open-loop load integration drills: coordinated omission end to end.
//!
//! Covers the acceptance contract: a scripted virtual server whose
//! service time exceeds the inter-arrival gap past the knee must show an
//! open-loop p99 at least 5x the closed-loop p99 at the same offered
//! rate; two same-seed sweeps reproduce the report byte for byte; the
//! sweep finds a knee and stops there; a generator whose transport dies
//! fails its point (not the run) with the underlying error; and rate
//! sweeps round-trip through [`RunReport`] JSON and reach the trace
//! stream as typed events.

use lmbench::core::{
    load_sim_rig, omission_gap, run_load_scenario, LoadGen, LoadMode, LoadRunner, SimServerGen,
    SuiteConfig, LADDER_FRACTIONS,
};
use lmbench::results::{RateSweep, RunReport};
use lmbench::timing::{ArrivalProcess, Clock, CostModel, SimClock};
use lmbench::trace::{EventKind, MemorySink, Trace};

/// A sim-clocked runner over a constant-cost scripted server.
fn sim_runner(seed: u64, service_ns: f64) -> (LoadRunner, SimClock, CostModel) {
    let sim = SimClock::new(seed);
    let model = CostModel::Constant { ns: service_ns };
    let runner = LoadRunner::new(SuiteConfig::quick())
        .expect("quick config is valid")
        .with_clock(Clock::Sim(sim.clone()))
        .with_ops(256);
    (runner, sim, model)
}

#[test]
fn acceptance_open_loop_p99_blows_past_closed_loop_at_the_same_rate() {
    // Service time 80 us; past the knee the inter-arrival gap is shorter,
    // so arrivals queue. The closed loop paces from completion and never
    // sees the queue; the open loop measures from the scheduled arrival
    // and must report it — at least 5x at the same offered rate.
    let (runner, sim, model) = sim_runner(11, 80_000.0);
    let make = move || -> Result<Box<dyn LoadGen>, String> {
        Ok(Box::new(SimServerGen::new(&sim, model)))
    };
    let (sweeps, record) = runner.run_target(
        "sim_server",
        "virtual service latency under offered load",
        &[],
        &make,
        &[LoadMode::Open, LoadMode::Closed],
    );
    assert_eq!(record.status.label(), "ok", "{record:?}");
    let (fraction, gap) = omission_gap(&sweeps).expect("a comparable open/closed point");
    assert!(
        gap >= 5.0,
        "open p99 must be >= 5x closed p99 past the knee, got {gap:.1}x at f{fraction:.2}"
    );
    assert!(fraction > 1.0, "the gap opens past the service rate");
    // The gap is also a report metric (unit `x`, lower is better), so the
    // differ can gate on it.
    let metric = record
        .metrics
        .iter()
        .find(|m| m.label.starts_with("omission gap"))
        .expect("omission gap metric");
    assert_eq!(metric.unit, "x");
    assert!((metric.value - gap).abs() < 1e-9);
}

#[test]
fn same_seed_sweeps_reproduce_byte_for_byte() {
    let a = run_load_scenario(23).to_json();
    let b = run_load_scenario(23).to_json();
    assert_eq!(
        a, b,
        "virtual sweeps are a deterministic function of the seed"
    );
    assert_ne!(
        a,
        run_load_scenario(24).to_json(),
        "a different seed draws a different service cost"
    );
}

#[test]
fn poisson_arrivals_are_seeded_and_reproducible_too() {
    let run = |seed: u64| {
        let (runner, sim, model) = sim_runner(5, 80_000.0);
        let runner = runner.with_process(ArrivalProcess::poisson(1.0, seed));
        let make = move || -> Result<Box<dyn LoadGen>, String> {
            Ok(Box::new(SimServerGen::new(&sim, model)))
        };
        runner.sweep("sim_server", &make, LoadMode::Open, &[10_000.0])
    };
    assert_eq!(run(9).points, run(9).points);
    let a = &run(9).points[0];
    let b = &run(10).points[0];
    assert!(
        (a.p99_us - b.p99_us).abs() > f64::EPSILON,
        "different arrival seeds draw different schedules"
    );
}

#[test]
fn the_sweep_stops_at_the_knee() {
    let (runner, sim, model) = sim_runner(3, 100_000.0);
    let make = move || -> Result<Box<dyn LoadGen>, String> {
        Ok(Box::new(SimServerGen::new(&sim, model)))
    };
    let peak = runner.probe_peak(&make).expect("probe");
    // A constant 100 us service sustains ~10k ops/s.
    assert!((8_000.0..12_000.0).contains(&peak), "peak {peak:.0}");
    let rates: Vec<f64> = LADDER_FRACTIONS.iter().map(|f| peak * f).collect();
    let sweep = runner.sweep("sim_server", &make, LoadMode::Open, &rates);
    let knee = sweep.knee.expect("an overloaded ladder has a knee") as usize;
    assert_eq!(
        sweep.points.len(),
        knee + 1,
        "the sweep includes the knee point and then stops"
    );
    assert!(
        LADDER_FRACTIONS[knee] > 1.0,
        "a constant-cost server saturates past its own peak, not before"
    );
    let last = &sweep.points[knee];
    assert!(last.late > 0, "past the knee, arrivals start late");
    assert!(last.max_lag_us > 0.0);
}

#[test]
fn a_dying_transport_fails_its_point_with_the_reason() {
    // A generator whose op reports failure must fail the rate point via
    // the failure() path — no panic, no fabricated percentiles.
    struct DyingGen {
        sim: SimClock,
        ops: u32,
    }
    impl LoadGen for DyingGen {
        fn op(&mut self) {
            self.sim.advance(10_000.0);
            self.ops += 1;
        }
        fn sim_clock(&self) -> Option<SimClock> {
            Some(self.sim.clone())
        }
        fn failure(&self) -> Option<String> {
            (self.ops >= 3).then(|| "tcp round trip: broken pipe".to_string())
        }
    }
    let (runner, sim, _) = sim_runner(2, 10_000.0);
    let make = move || -> Result<Box<dyn LoadGen>, String> {
        Ok(Box::new(DyingGen {
            sim: sim.clone(),
            ops: 0,
        }))
    };
    let point = runner.run_point(&make, LoadMode::Open, 1_000.0);
    assert!(!point.is_ok());
    assert_eq!(point.error.as_deref(), Some("tcp round trip: broken pipe"));
    assert_eq!(point.p99_us, 0.0, "a failed point carries no percentiles");

    // And a generator that cannot even be built fails the same way.
    let broken = || -> Result<Box<dyn LoadGen>, String> { Err("no socket".to_string()) };
    let point = runner.run_point(&broken, LoadMode::Closed, 1_000.0);
    assert!(point
        .error
        .as_deref()
        .is_some_and(|e| e.contains("no socket")));
}

#[test]
fn rate_sweeps_round_trip_through_the_run_report() {
    let report = run_load_scenario(31);
    assert!(!report.rate_sweeps.is_empty());
    let back = RunReport::from_json(&report.to_json()).expect("parse");
    assert_eq!(back.rate_sweeps, report.rate_sweeps);
    assert_eq!(back.records, report.records);
    // A sweep-less report omits the field entirely, keeping old readers'
    // byte-for-byte expectations.
    let empty = RunReport::default();
    assert!(!empty.to_json().contains("rate_sweeps"));
}

#[test]
fn sweeps_emit_typed_trace_events() {
    let sink = MemorySink::shared();
    let trace = Trace::new(vec![Box::new(sink.clone())]);
    let ctx = trace.enter();
    let (runner, sim, model) = sim_runner(13, 80_000.0);
    let make = move || -> Result<Box<dyn LoadGen>, String> {
        Ok(Box::new(SimServerGen::new(&sim, model)))
    };
    let (_, record) = runner.run_target(
        "sim_server",
        "virtual service latency under offered load",
        &[],
        &make,
        &[LoadMode::Open, LoadMode::Closed],
    );
    drop(ctx);
    let events = sink.events();
    assert_eq!(record.span, Some(1), "the sweep is the trace's first span");
    let sweep_starts = events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::SweepStart { bench, .. } if bench == "sim_server"))
        .count();
    assert_eq!(sweep_starts, 2, "one sweep_start per mode");
    assert!(
        events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::RatePoint { mode, .. } if mode == "open")),
        "rate points are on the stream"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Backlog { late, .. } if *late > 0)),
        "an overloaded open sweep reports its backlog"
    );
}

#[test]
fn the_cli_rig_matches_the_fuzzer_rig() {
    // The CLI's --sim-seed path and the fuzzer derive the same scripted
    // server from the same seed, so `lmbench load --sim-seed N` exercises
    // exactly the property the fuzzer pins.
    let (_, model_a) = load_sim_rig(17);
    let (_, model_b) = load_sim_rig(17);
    assert_eq!(model_a, model_b);
    let sweeps: Vec<RateSweep> = run_load_scenario(17).rate_sweeps;
    assert_eq!(sweeps.len(), 2);
    assert_eq!(sweeps[0].mode, "open");
    assert_eq!(sweeps[1].mode, "closed");
}

/// Runs `lmbench load --sim-seed 7` with `extra` args in its own process
/// and asserts its report reproduces the named golden byte for byte.
fn assert_sim_load_sweep_matches(extra: &[&str], golden: &str) {
    let path = std::env::temp_dir().join(format!("lmbench-{}-{}", golden, std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lmbench"))
        .args(["load", "--sim-seed", "7"])
        .args(extra)
        .arg("--report-json")
        .arg(&path)
        .output()
        .expect("spawn lmbench");
    assert!(out.status.success(), "{out:?}");
    let rendered = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden")
        .join(golden);
    let expected = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
    assert!(
        rendered == expected,
        "{golden}: serialized bytes drifted from the golden\n--- golden\n{expected}\n--- rendered\n{rendered}"
    );
}

/// The CLI's whole virtual rate sweep, run in its own process, must
/// reproduce its golden byte for byte — the load-side twin of the suite
/// goldens in `tests/schema_fixtures.rs`.
#[test]
fn sim_load_sweep_report_matches_its_golden() {
    assert_sim_load_sweep_matches(&[], "load-sim-7.json");
}

/// The same sweep under Poisson arrivals: bursty, unsorted latency sets
/// whose percentiles and grades must come out byte for byte the same.
#[test]
fn sim_poisson_load_sweep_report_matches_its_golden() {
    assert_sim_load_sweep_matches(&["--poisson"], "load-sim-7-poisson.json");
}
