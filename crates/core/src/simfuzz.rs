//! Scenario fuzzing for whole-engine virtual time.
//!
//! The sim seam ([`Clock::Sim`], scripted registries) makes a *full*
//! suite run — scheduling, probes, watchdog, retries, phase budgets,
//! report, diff — a deterministic function of a seed. This module turns
//! that seam into a property fuzzer: a [`Scenario`] is a seeded random
//! point in the space of cost-model shapes (flat costs, cache knees,
//! drift, noise bursts, coarse clock ticks), [`run_scenario`] drives it
//! through the real [`Engine`], and the `check_*` properties assert what
//! must hold for *every* point:
//!
//! 1. clean (constant-cost, jitter-free) runs are never graded `suspect`;
//! 2. the calibrator converges below its ramp cap;
//! 3. `diff` never alarms on scripted noise, and always alarms on a
//!    scripted 10x regression;
//! 4. the same seed reproduces the report byte for byte.
//!
//! A seed that violates a property is a counterexample: it gets pinned as
//! a named regression scenario in `tests/sim_fuzz.rs` alongside the fix.

use crate::config::{RetryPolicy, SuiteConfig};
use crate::engine::{sim_provenance, Engine, EngineOutcome};
use crate::output::{BenchOutput, Unit};
use crate::registry::{BenchRunner, Benchmark, Category, Registry};
use crate::scale::{omission_gap, LoadGen, LoadMode, LoadRunner, SimServerGen};
use lmb_results::{ReportDiff, RunReport};
use lmb_timing::{Clock, CostModel, SimClock, SplitMix, TimeUnit};
use std::sync::Arc;

/// The scripted benchmark names a scenario draws from. Static because
/// [`Benchmark`] names are `&'static str` (registry names are normally
/// compiled in); the pool bounds a scenario at eight benchmarks.
const NAMES: [&str; 8] = [
    "sim_alpha",
    "sim_beta",
    "sim_gamma",
    "sim_delta",
    "sim_epsilon",
    "sim_zeta",
    "sim_eta",
    "sim_theta",
];

/// The clock-tick granularities a scenario may draw: a modern 1 ns
/// counter, a 100 ns TSC-ish clock, and the coarse 10 us tick that forces
/// the calibrator to earn its keep (the paper's §3.4 starting point was a
/// 10 ms `gettimeofday`).
const RESOLUTIONS: [f64; 3] = [1.0, 100.0, 10_000.0];

/// A uniform index in `0..n` from the shared splitmix64 stream. Scenario
/// derivation and clock jitter draw from different seeds, so sharing the
/// algorithm does not correlate them.
fn pick(rng: &mut SplitMix, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// One scripted benchmark inside a scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScriptedBench {
    /// Registry name (drawn from the static pool).
    pub name: &'static str,
    /// Per-call cost script.
    pub model: CostModel,
    /// Scheduled through the engine's exclusive phase when set.
    pub exclusive: bool,
    /// `Some(ops)` measures one un-calibrated block of `ops` operations
    /// (the clamp-inducing short-interval shape); `None` runs the full
    /// calibrated `measure` path.
    pub block_ops: Option<u64>,
}

/// A seeded point in the scenario space: a virtual clock profile plus a
/// handful of scripted benchmarks, all derived deterministically from
/// `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Seed for the clock, the body noise streams, and (via
    /// [`Scenario::from_seed`]) the scenario's own shape.
    pub seed: u64,
    /// Virtual clock tick granularity, ns.
    pub resolution_ns: f64,
    /// Virtual cost per clock read, ns.
    pub read_overhead_ns: f64,
    /// Uniform per-read jitter band width, ns.
    pub read_jitter_ns: f64,
    /// The scripted registry, in registry order.
    pub benches: Vec<ScriptedBench>,
}

impl Scenario {
    /// Derives a random scenario from `seed`: clock resolution, read
    /// jitter, 4–7 benchmarks with mixed cost-model shapes. Costs are
    /// scaled to the drawn resolution so calibration converges in a
    /// bounded number of virtual (and real) operations.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = SplitMix::new(seed ^ 0x5CE2_A210_F022_D00D);
        let resolution_ns = RESOLUTIONS[pick(&mut rng, RESOLUTIONS.len())];
        let read_jitter_ns = if rng.uniform() < 0.5 { 0.0 } else { 5.0 };
        let floor = resolution_ns.max(50.0);
        let count = 4 + pick(&mut rng, 4);
        let benches = (0..count)
            .map(|i| {
                let base_ns = floor * (2.0 + 30.0 * rng.uniform());
                let model = match pick(&mut rng, 4) {
                    0 => CostModel::Constant { ns: base_ns },
                    1 => CostModel::Step {
                        knee: 64 + pick(&mut rng, 1000) as u64,
                        before_ns: base_ns,
                        after_ns: base_ns * (1.2 + rng.uniform()),
                    },
                    2 => CostModel::Noisy {
                        base_ns,
                        spread_ns: base_ns * 0.5 * rng.uniform(),
                    },
                    _ => CostModel::Drifting {
                        start_ns: base_ns,
                        per_call_ns: base_ns * 1e-5 * rng.uniform(),
                    },
                };
                ScriptedBench {
                    name: NAMES[i],
                    model,
                    exclusive: rng.uniform() < 0.25,
                    block_ops: None,
                }
            })
            .collect();
        Scenario {
            seed,
            resolution_ns,
            read_overhead_ns: 15.0,
            read_jitter_ns,
            benches,
        }
    }

    /// A scenario with only flat, jitter-free cost models: the "quiet
    /// machine" every grader property is anchored to. Costs still vary
    /// with the seed.
    #[must_use]
    pub fn clean(seed: u64) -> Self {
        let mut s = Scenario::from_seed(seed);
        s.read_jitter_ns = 0.0;
        let mut rng = SplitMix::new(seed ^ 0xC1EA_4000_0000_0001);
        let floor = s.resolution_ns.max(50.0);
        for b in &mut s.benches {
            b.model = CostModel::Constant {
                ns: floor * (2.0 + 30.0 * rng.uniform()),
            };
        }
        s
    }

    /// The same scenario shape driven by a different seed: identical
    /// models and clock profile, fresh noise and jitter streams. This is
    /// what "the same machine on a different day" looks like in the
    /// simulation, and what the diff must *not* alarm on.
    #[must_use]
    pub fn reseeded(&self, seed: u64) -> Self {
        Scenario {
            seed,
            ..self.clone()
        }
    }

    /// The same scenario with every cost scaled by `factor`: a scripted,
    /// unambiguous regression (for `factor` well above the diff's noise
    /// band) that the diff *must* alarm on.
    #[must_use]
    pub fn amplified(&self, factor: f64) -> Self {
        let mut s = self.clone();
        for b in &mut s.benches {
            b.model = match b.model {
                CostModel::Constant { ns } => CostModel::Constant { ns: ns * factor },
                CostModel::Step {
                    knee,
                    before_ns,
                    after_ns,
                } => CostModel::Step {
                    knee,
                    before_ns: before_ns * factor,
                    after_ns: after_ns * factor,
                },
                CostModel::Noisy { base_ns, spread_ns } => CostModel::Noisy {
                    base_ns: base_ns * factor,
                    spread_ns: spread_ns * factor,
                },
                CostModel::Drifting {
                    start_ns,
                    per_call_ns,
                } => CostModel::Drifting {
                    start_ns: start_ns * factor,
                    per_call_ns: per_call_ns * factor,
                },
            };
        }
        s
    }

    /// The seeded virtual clock this scenario runs on.
    #[must_use]
    pub fn clock(&self) -> SimClock {
        let mut sim = SimClock::new(self.seed)
            .with_resolution_ns(self.resolution_ns)
            .with_read_overhead_ns(self.read_overhead_ns);
        if self.read_jitter_ns > 0.0 {
            sim = sim.with_read_jitter_ns(self.read_jitter_ns);
        }
        sim
    }

    /// The scripted registry: every benchmark body advances `sim` by its
    /// cost model instead of doing real work, and measures itself with the
    /// engine's context harness, which runs on `sim` when the engine does.
    #[must_use]
    pub fn registry(&self, sim: &SimClock) -> Registry {
        let benches = self
            .benches
            .iter()
            .map(|b| scripted_benchmark(b, sim))
            .collect();
        Registry::custom(benches)
    }
}

/// Builds one scripted registry entry around a shared [`SimClock`].
fn scripted_benchmark(bench: &ScriptedBench, sim: &SimClock) -> Benchmark {
    let sim = sim.clone();
    let model = bench.model;
    let block_ops = bench.block_ops;
    let runner: BenchRunner = Arc::new(move |ctx| {
        // Under `Clock::Sim(sim)` the engine pins the context harness to
        // the sim's scripted profile, so calibration and overhead
        // compensation see exactly the clock the scenario scripted.
        let body = sim.scripted_body(model);
        let m = match block_ops {
            Some(ops) => ctx.harness.measure_block(ops, body),
            None => ctx.harness.measure(body),
        };
        BenchOutput::new().metric("op", m.per_op(TimeUnit::Micros), Unit::Micros)
    });
    Benchmark::scripted(
        bench.name,
        "virtual cost model",
        Category::Latency,
        bench.exclusive,
        runner,
    )
}

/// The suite configuration scenarios run under: quick sizing and the
/// noise-retry policy armed, so the retry path is inside the fuzzed
/// surface.
#[must_use]
pub fn scenario_config() -> SuiteConfig {
    SuiteConfig::quick().with_retry(RetryPolicy::on_noise())
}

/// Drives one scenario through the full engine under virtual time.
///
/// # Panics
///
/// Panics only if the quick preset stops validating — a build error, not
/// a scenario outcome.
#[must_use]
pub fn run_scenario(scenario: &Scenario) -> EngineOutcome {
    let sim = scenario.clock();
    let engine = Engine::new(scenario.registry(&sim), scenario_config())
        .expect("quick preset validates")
        .with_clock(Clock::Sim(sim));
    engine.execute()
}

/// Property 1 + 2: a clean scenario's run has every record `Ok`, no
/// measurement graded `suspect`, and every calibration converged below
/// the ramp cap. `Err` carries the counterexample detail.
pub fn check_clean_run(scenario: &Scenario, outcome: &EngineOutcome) -> Result<(), String> {
    for record in &outcome.report.records {
        if record.status.label() != "ok" {
            return Err(format!(
                "seed {}: {} ended {} instead of ok",
                scenario.seed,
                record.name,
                record.status.label()
            ));
        }
        let Some(p) = record.provenance.as_ref() else {
            return Err(format!(
                "seed {}: {} has no provenance",
                scenario.seed, record.name
            ));
        };
        if p.quality == "suspect" {
            return Err(format!(
                "seed {}: clean {} graded suspect (cv {:.4}, clamped {})",
                scenario.seed, record.name, p.cv, p.clamped_samples
            ));
        }
        if p.calibrated_iterations >= lmb_timing::MAX_ITERATIONS {
            return Err(format!(
                "seed {}: {} calibration hit the ramp cap",
                scenario.seed, record.name
            ));
        }
    }
    Ok(())
}

/// Property 3a: two runs of the same shape under different seeds — pure
/// scripted noise — must not produce a benchmark-row regression. (The
/// harness self-budget rows are judged by their own wider band and are
/// not a benchmark grading property.)
pub fn check_noise_no_alarm(scenario: &Scenario) -> Result<(), String> {
    let base = run_scenario(scenario).report;
    let noisy = run_scenario(&scenario.reseeded(scenario.seed.wrapping_add(0x9E37))).report;
    let diff = ReportDiff::between(&base, &noisy);
    if let Some(row) = diff.regressions().find(|r| r.bench != "(harness)") {
        return Err(format!(
            "seed {}: scripted noise alarmed on {}/{} ({:+.1}% vs band {:.1}%)",
            scenario.seed,
            row.bench,
            row.metric,
            row.delta_frac * 100.0,
            row.band_frac * 100.0
        ));
    }
    Ok(())
}

/// Property 3b: a scripted 10x slowdown of every benchmark must alarm on
/// every benchmark row.
pub fn check_regression_alarms(scenario: &Scenario) -> Result<(), String> {
    let base = run_scenario(scenario).report;
    let slower = run_scenario(&scenario.amplified(10.0)).report;
    let diff = ReportDiff::between(&base, &slower);
    for bench in &scenario.benches {
        let alarmed = diff
            .regressions()
            .any(|r| r.bench == bench.name && r.metric == "op");
        if !alarmed {
            return Err(format!(
                "seed {}: 10x regression in {} raised no alarm",
                scenario.seed, bench.name
            ));
        }
    }
    Ok(())
}

/// Property 4: the same seed reproduces the run byte for byte.
pub fn check_determinism(scenario: &Scenario) -> Result<(), String> {
    let a = run_scenario(scenario).report.to_json();
    let b = run_scenario(scenario).report.to_json();
    if a != b {
        let at = a
            .lines()
            .zip(b.lines())
            .position(|(x, y)| x != y)
            .unwrap_or(0);
        return Err(format!(
            "seed {}: same-seed reports diverge (first differing line {at})",
            scenario.seed
        ));
    }
    Ok(())
}

/// Floor on the open-over-closed p99 ratio a load scenario must show
/// past the knee: closed-loop pacing hides at least this much queueing.
pub const OMISSION_GAP_FLOOR: f64 = 5.0;

/// The scripted rig behind [`run_load_scenario`]: the shared virtual
/// clock plus the seeded constant service-cost model, exposed so the CLI
/// can drive the same rig under user-chosen modes and arrival processes.
#[must_use]
pub fn load_sim_rig(seed: u64) -> (SimClock, CostModel) {
    let mut rng = SplitMix::new(seed ^ 0x10AD_0000_0BAD_C0DE);
    let service_ns = 40_000.0 * (1.0 + 2.0 * rng.uniform());
    (SimClock::new(seed), CostModel::Constant { ns: service_ns })
}

/// One virtual load run for `seed`: a scripted server whose constant
/// per-op service time is drawn from the seed (40–120 µs — far above the
/// clock-read overhead, small enough that a 256-arrival sweep finishes in
/// virtual milliseconds), swept open- and closed-loop up the shared
/// fraction ladder on one [`SimClock`]. Past the knee the inter-arrival
/// gap drops below the service time, so the open loop must observe the
/// queueing that closed-loop pacing absorbs. Returns the full report
/// (record plus sweeps) so callers can check both the gap and byte
/// determinism.
#[must_use]
pub fn run_load_scenario(seed: u64) -> RunReport {
    let (sim, model) = load_sim_rig(seed);
    let clock = Clock::Sim(sim.clone());
    let provenance = sim_provenance(&clock);
    let runner = LoadRunner::new(SuiteConfig::quick())
        .expect("quick preset validates")
        .with_clock(clock)
        .with_ops(256);
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
    RunReport {
        records: vec![record],
        rate_sweeps: sweeps,
        sim: provenance,
        ..RunReport::default()
    }
}

/// Property 5: when the offered rate passes the service rate, the
/// open-loop p99 must exceed the closed-loop p99 by at least
/// [`OMISSION_GAP_FLOOR`] at the same offered rate — the coordinated
/// omission the closed loop is scripted to hide.
pub fn check_omission_gap(seed: u64) -> Result<(), String> {
    let report = run_load_scenario(seed);
    let Some((fraction, gap)) = omission_gap(&report.rate_sweeps) else {
        return Err(format!(
            "seed {seed}: load sweeps produced no comparable open/closed point"
        ));
    };
    if gap < OMISSION_GAP_FLOOR {
        return Err(format!(
            "seed {seed}: omission gap only {gap:.1}x at f{fraction:.2} \
             (expected >= {OMISSION_GAP_FLOOR}x past the knee)"
        ));
    }
    Ok(())
}

/// Property 6: the same seed reproduces the load report byte for byte —
/// arrivals, queueing, knee and all.
pub fn check_sweep_determinism(seed: u64) -> Result<(), String> {
    let a = run_load_scenario(seed).to_json();
    let b = run_load_scenario(seed).to_json();
    if a != b {
        let at = a
            .lines()
            .zip(b.lines())
            .position(|(x, y)| x != y)
            .unwrap_or(0);
        return Err(format!(
            "seed {seed}: same-seed load reports diverge (first differing line {at})"
        ));
    }
    Ok(())
}

/// Runs every property over `count` seeds starting at `first_seed` and
/// returns the counterexamples (empty means the space held). This is the
/// entry the `sim-fuzz` CI job calls through `tests/sim_fuzz.rs`.
#[must_use]
pub fn fuzz(first_seed: u64, count: u64) -> Vec<String> {
    let mut counterexamples = Vec::new();
    for seed in first_seed..first_seed.saturating_add(count) {
        let clean = Scenario::clean(seed);
        if let Err(e) = check_clean_run(&clean, &run_scenario(&clean)) {
            counterexamples.push(e);
        }
        let scenario = Scenario::from_seed(seed);
        for check in [
            check_determinism,
            check_noise_no_alarm,
            check_regression_alarms,
        ] {
            if let Err(e) = check(&scenario) {
                counterexamples.push(e);
            }
        }
        for check in [check_omission_gap, check_sweep_determinism] {
            if let Err(e) = check(seed) {
                counterexamples.push(e);
            }
        }
    }
    counterexamples
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmb_results::BenchStatus;

    #[test]
    fn scenario_derivation_is_deterministic_and_seed_sensitive() {
        assert_eq!(Scenario::from_seed(11), Scenario::from_seed(11));
        assert_ne!(Scenario::from_seed(11), Scenario::from_seed(12));
        let s = Scenario::from_seed(11);
        assert!((4..=7).contains(&s.benches.len()));
        assert!(RESOLUTIONS.contains(&s.resolution_ns));
    }

    #[test]
    fn reseeding_keeps_shape_and_amplifying_scales_costs() {
        let s = Scenario::from_seed(3);
        let r = s.reseeded(99);
        assert_eq!(r.benches, s.benches);
        assert_eq!(r.resolution_ns, s.resolution_ns);
        assert_eq!(r.seed, 99);
        let a = s.amplified(10.0);
        for (orig, amp) in s.benches.iter().zip(&a.benches) {
            let ns = |m: &CostModel| match *m {
                CostModel::Constant { ns } => ns,
                CostModel::Step { before_ns, .. } => before_ns,
                CostModel::Noisy { base_ns, .. } => base_ns,
                CostModel::Drifting { start_ns, .. } => start_ns,
            };
            assert!((ns(&amp.model) - 10.0 * ns(&orig.model)).abs() < 1e-9);
        }
    }

    #[test]
    fn a_scenario_runs_the_full_engine_virtually() {
        let scenario = Scenario::from_seed(1);
        let outcome = run_scenario(&scenario);
        assert_eq!(outcome.report.records.len(), scenario.benches.len());
        for r in &outcome.report.records {
            assert_eq!(r.status, BenchStatus::Ok, "{}", r.name);
            assert!(r.rusage.is_none(), "virtual runs carry no rusage");
            assert!(r.counters.is_none(), "virtual runs carry no counters");
        }
        let sim = outcome.report.sim.expect("sim provenance present");
        assert_eq!(sim.seed, 1);
        assert_eq!(sim.resolution_ns, scenario.resolution_ns);
    }

    #[test]
    fn load_scenario_pins_the_omission_gap() {
        // The acceptance pin: service time above the inter-arrival gap
        // past the knee must open a >= 5x open-over-closed p99 gap.
        let report = run_load_scenario(7);
        let (fraction, gap) = omission_gap(&report.rate_sweeps).expect("comparable point");
        assert!(
            gap >= OMISSION_GAP_FLOOR,
            "open p99 only {gap:.1}x closed p99 at f{fraction:.2}"
        );
        assert!(fraction > 1.0, "the gap should open past the knee");
        let record = &report.records[0];
        assert_eq!(record.name, "load_sim_server");
        assert_eq!(record.status.label(), "ok");
        let metric = record
            .metrics
            .iter()
            .find(|m| m.label.starts_with("omission gap"))
            .expect("gap metric");
        assert_eq!(metric.unit, "x");
        assert!((metric.value - gap).abs() < 1e-9);
        check_omission_gap(7).expect("property 5 holds for seed 7");
    }

    #[test]
    fn load_scenario_reproduces_byte_for_byte() {
        check_sweep_determinism(7).expect("property 6 holds for seed 7");
        assert_ne!(
            run_load_scenario(7).to_json(),
            run_load_scenario(8).to_json(),
            "different seeds draw different service costs"
        );
    }

    #[test]
    fn clamped_block_measurement_is_graded_suspect_not_clean() {
        // The grader-side half of property 1: an interval shorter than
        // the clock-read overhead measures nothing, and the quality
        // pipeline must say so rather than report a confident zero.
        let mut scenario = Scenario::clean(5);
        scenario.benches.truncate(1);
        scenario.benches[0].model = CostModel::Constant { ns: 1.0 };
        scenario.benches[0].block_ops = Some(1);
        let outcome = run_scenario(&scenario);
        let p = outcome.report.records[0]
            .provenance
            .as_ref()
            .expect("provenance");
        assert!(p.clamped_samples > 0, "1ns op under a 15ns clock clamps");
        assert_eq!(p.quality, "suspect");
    }
}
