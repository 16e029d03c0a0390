//! Scenario-space fuzzing over the whole engine under virtual time.
//!
//! `lmb_core::simfuzz` derives seeded scenarios — scripted cost models on
//! a scripted clock — and drives each through the *full* engine path:
//! scheduling, substrate probes, watchdog, retry policy, phase budgets,
//! report assembly. The properties checked here are the suite's grading
//! contract; any seed that violates one is a counterexample and gets
//! pinned below next to its fix.

use lmbench::core::simfuzz::{
    check_clean_run, check_determinism, fuzz, run_scenario, scenario_config, Scenario,
};
use lmbench::core::{Engine, FaultPlan};
use lmbench::results::BenchStatus;
use lmbench::timing::{Clock, CostModel};
use lmbench::trace::{check_seq_order, check_span_refs, check_spans, EventKind, MemorySink, Trace};

/// Sweep a band of the scenario space: every property over a run of
/// consecutive seeds, through the complete engine, in virtual time. Each
/// seed exercises seven full suite runs (clean grading, two determinism
/// runs, two noise-diff runs, two regression-diff runs).
#[test]
fn fuzzed_scenario_space_holds_all_properties() {
    let counterexamples = fuzz(0, 16);
    assert!(
        counterexamples.is_empty(),
        "scenario fuzzing found counterexamples:\n{}",
        counterexamples.join("\n")
    );
}

/// Pinned development counterexample: under real time a hung benchmark
/// burns its whole wall-clock budget and leaks its thread; under virtual
/// time the same drill must classify as `timeout` instantly (the hang is
/// one scripted advance) and reproduce byte for byte.
#[test]
fn pinned_hang_drill_times_out_instantly_under_virtual_time() {
    let scenario = Scenario::from_seed(42);
    let hung = scenario.benches[0].name;
    let run = |sab: &str| {
        let sim = scenario.clock();
        Engine::new(scenario.registry(&sim), scenario_config())
            .expect("quick preset validates")
            .with_clock(Clock::Sim(sim))
            .with_faults(FaultPlan {
                hang_in: Some(sab.into()),
                ..FaultPlan::default()
            })
            .execute()
    };
    let started = std::time::Instant::now();
    let outcome = run(hung);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "virtual hang consumed real time"
    );
    for record in &outcome.report.records {
        if record.name == hung {
            assert!(
                matches!(record.status, BenchStatus::TimedOut { .. }),
                "hung {} ended {:?}",
                hung,
                record.status
            );
        } else {
            assert_eq!(record.status, BenchStatus::Ok, "{}", record.name);
        }
    }
    // The drill itself is deterministic: a second run is byte-identical.
    assert_eq!(outcome.report.to_json(), run(hung).report.to_json());
}

/// Pinned scenario: a 10 us clock tick (the paper's §3.4 problem clock,
/// scaled down) with costs near the tick must still calibrate out to a
/// clean grade — the calibrator's whole job is making coarse clocks
/// usable.
#[test]
fn pinned_coarse_tick_scenario_grades_clean() {
    let mut scenario = Scenario::clean(9);
    scenario.resolution_ns = 10_000.0;
    let outcome = run_scenario(&scenario);
    check_clean_run(&scenario, &outcome).unwrap();
    check_determinism(&scenario).unwrap();
}

/// Pinned scenario: a cache-knee cost model (flat, then 1.8x past the
/// knee) runs to completion with an `ok` grade — a knee inside one
/// measurement is drift the summary policy absorbs, not a failure.
#[test]
fn pinned_knee_scenario_completes_ok() {
    let mut scenario = Scenario::clean(3);
    scenario.benches.truncate(2);
    scenario.benches[1].model = CostModel::Step {
        knee: 500,
        before_ns: 400.0,
        after_ns: 720.0,
    };
    let outcome = run_scenario(&scenario);
    for record in &outcome.report.records {
        assert_eq!(record.status, BenchStatus::Ok, "{}", record.name);
    }
    check_determinism(&scenario).unwrap();
}

/// Concurrent same-seed suites in one process must each reproduce their
/// serial report byte for byte: a run's harness budget, its clock reads
/// and its trace belong to that run, so neighbours can neither mix
/// budgets, switch off each other's accounting, nor stamp span ids into
/// or swallow events from an untraced run. A fourth thread runs each
/// round under its own fresh trace. No lock serializes the threads.
#[test]
fn concurrent_sim_suites_match_their_serial_runs() {
    let scenarios = [
        Scenario::from_seed(3),
        Scenario::from_seed(3),
        Scenario::from_seed(4),
    ];
    let references: Vec<String> = scenarios
        .iter()
        .map(|s| run_scenario(s).report.to_json())
        .collect();
    let traced = Scenario::from_seed(5);
    let rounds = std::thread::scope(|scope| {
        for (scenario, reference) in scenarios.iter().zip(&references) {
            scope.spawn(move || {
                for round in 0..16 {
                    let json = run_scenario(scenario).report.to_json();
                    assert!(
                        json == *reference,
                        "seed {} diverged from its serial run in round {round}",
                        scenario.seed
                    );
                }
            });
        }
        scope
            .spawn(|| {
                (0..16)
                    .map(|_| {
                        let sink = MemorySink::shared();
                        let trace = Trace::new(vec![Box::new(sink.clone())]);
                        let _ctx = trace.enter();
                        (run_scenario(&traced).report, sink.events())
                    })
                    .collect::<Vec<_>>()
            })
            .join()
            .expect("the traced thread ran")
    });
    let (first, first_events) = &rounds[0];
    assert!(first.records.iter().all(|r| r.span.is_some()));
    for (round, (report, events)) in rounds.iter().enumerate() {
        assert!(
            report.to_json() == first.to_json(),
            "traced round {round} diverged from round 0"
        );
        let suites = events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::SpanStart { name, .. } if name == "suite"))
            .count();
        assert_eq!(suites, 1, "round {round} trace holds {suites} suite spans");
        assert_eq!(
            events.len(),
            first_events.len(),
            "round {round} event count"
        );
        let refs = report
            .records
            .iter()
            .filter_map(|r| Some((r.name.as_str(), r.span?)));
        check_seq_order(events)
            .and_then(|()| check_spans(events))
            .and_then(|()| check_span_refs(events, refs))
            .unwrap_or_else(|e| panic!("round {round} trace: {e}"));
    }
}
