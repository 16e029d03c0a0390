//! The lmbench-rs suite: configuration, host detection, orchestration and
//! report generation.
//!
//! This crate is the paper's *product*: a portable micro-benchmark suite
//! you point at a machine, which runs every experiment (§5 bandwidth, §6
//! latency), appends the host to the results database, and regenerates the
//! paper's tables and figures with the new row in place.
//!
//! Every benchmark reaches the machine through the execution [`engine`]:
//! substrate probes, per-benchmark panic/timeout isolation, retry-on-noise
//! and measurement provenance, producing a partial result set plus a
//! [`lmb_results::RunReport`] instead of an all-or-nothing run.
//!
//! # Examples
//!
//! ```no_run
//! use lmb_core::{SuiteConfig, run_suite};
//!
//! let run = run_suite(&SuiteConfig::quick()).expect("valid config");
//! println!("{}", lmb_core::report::full_report(Some(&run)));
//! ```

pub mod config;
pub mod engine;
pub mod error;
pub mod host;
pub mod output;
pub mod registry;
pub mod report;
pub mod scale;
pub mod service;
pub mod simfuzz;
pub mod suite;

pub use config::{RetryPolicy, SuiteConfig, Verbosity};
pub use engine::{sim_provenance, Engine, EngineOutcome, FaultPlan, RunCtx, Substrate};
pub use error::SuiteError;
pub use host::detect_host;
pub use output::{BenchOutput, Metric, Unit};
pub use registry::{BenchRunner, Benchmark, Category, Registry};
pub use scale::{
    find_scale_spec, omission_gap, scale_registry, LoadGen, LoadMode, LoadRunner, LoadSpec,
    SimServerGen, LADDER_FRACTIONS,
};
pub use service::{ReportClient, ResultsService, ServiceConfig};
pub use simfuzz::{
    load_sim_rig, run_load_scenario, run_scenario, scenario_config, Scenario, ScriptedBench,
};
pub use suite::{run_suite, run_suite_with_report};
