//! `sim_fuzz`: the public simfuzz property checks over a seed range
//! derived from `--seed`. On virtual time the kernels cost nothing, so the
//! time is engine and timing bookkeeping plus results serde and diff.

use crate::cpu::{self, Work};
use crate::trace::Tracer;
use crate::Pass;
use lmb_core::simfuzz::{
    check_clean_run, check_determinism, check_noise_no_alarm, check_omission_gap,
    check_regression_alarms, check_sweep_determinism,
};
use lmb_core::{run_scenario, Scenario};
use std::time::Instant;

/// Fuzz seeds derived per run; more than a run can check at today's speed.
const RANGE: u64 = 8192;

/// Property checks per fuzz seed.
const CHECKS: u64 = 6;

/// Back-to-back runs of each fuzz seed; its CPU time is the fastest.
const REPEATS: usize = 3;

/// One fuzz seed's derived scenarios.
pub struct Case {
    seed: u64,
    clean: Scenario,
    scenario: Scenario,
}

impl Case {
    fn new(seed: u64) -> Case {
        Case {
            seed,
            clean: Scenario::clean(seed),
            scenario: Scenario::from_seed(seed),
        }
    }
}

/// Fuzz seed checked once at set-up, so lazy set-up is paid before
/// timing. Fixed, because fuzz seeds differ several-fold in cost and the
/// set-up time should not depend on which one `--seed` makes first.
const WARM_UP_SEED: u64 = 1;

/// Derives the seed range's scenarios and checks the warm-up seed.
pub fn setup(seed: u64) -> Result<Vec<Case>, String> {
    let first = seed.wrapping_mul(RANGE);
    let cases: Vec<Case> = (0..RANGE)
        .map(|i| Case::new(first.wrapping_add(i)))
        .collect();
    if check(&Case::new(WARM_UP_SEED), &mut Tracer::new(false)) > 0 {
        return Err(format!("seed {WARM_UP_SEED} fails a property at set-up"));
    }
    Ok(cases)
}

/// Checks every property of one seed; returns the counterexample count.
fn check(case: &Case, tracer: &mut Tracer) -> u64 {
    let results = [
        tracer.span("simfuzz.clean", |t| {
            let outcome = t.span("engine.run_scenario", |_| run_scenario(&case.clean));
            check_clean_run(&case.clean, &outcome)
        }),
        tracer.span("simfuzz.determinism", |_| check_determinism(&case.scenario)),
        tracer.span("simfuzz.noise", |_| check_noise_no_alarm(&case.scenario)),
        tracer.span("simfuzz.regression", |_| {
            check_regression_alarms(&case.scenario)
        }),
        tracer.span("simfuzz.omission_gap", |_| check_omission_gap(case.seed)),
        tracer.span("simfuzz.sweep_determinism", |_| {
            check_sweep_determinism(case.seed)
        }),
    ];
    results.iter().filter(|r| r.is_err()).count() as u64
}

/// Checks seeds in order until `deadline` (at least one), each
/// [`REPEATS`] times.
pub fn measure(cases: &[Case], deadline: Instant, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    for case in cases.iter().cycle() {
        let mut runs = [0.0; REPEATS];
        for run in &mut runs {
            let t = Instant::now();
            let (failed, cpu_s) = cpu::timed(|| tracer.span("fuzz.seed", |t| check(case, t)));
            pass.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
            pass.failed += failed;
            pass.attempted += CHECKS;
            *run = cpu_s;
        }
        pass.cpu
            .push(Work::fastest(&runs, 1, cpu::least_slowdown(REPEATS)));
        if Instant::now() >= deadline {
            break;
        }
    }
    pass
}
