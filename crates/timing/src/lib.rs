//! Timing harness substrate for the lmbench-rs suite.
//!
//! The original lmbench paper (McVoy & Staelin, USENIX 1996, section 3)
//! spends considerable effort on *how* to time micro-operations correctly:
//!
//! * **Clock resolution** (§3.4): `gettimeofday` had 10 ms resolution on
//!   some 1995 systems, so each timed interval must span many clock ticks.
//!   This crate probes the real resolution of the monotonic clock and
//!   auto-scales loop iteration counts so that every timed interval covers
//!   at least a configurable multiple of that resolution.
//! * **Caching** (§3.4): benchmarks that expect warm caches are run several
//!   times and only the final (or best) result is kept.
//! * **Variability** (§3.4): context-switch style benchmarks vary by up to
//!   30%; lmbench compensates by running in a loop and taking the minimum.
//! * **Sizing** (§3.1): parameters must be large enough to defeat caches
//!   (or small enough to stay inside them) and small enough not to page.
//!
//! All of that machinery lives here, shared by every benchmark crate.
//!
//! # Examples
//!
//! ```
//! use lmb_timing::{Harness, Options};
//!
//! let harness = Harness::new(Options::quick());
//! let m = harness.measure(|| {
//!     std::hint::black_box(2u64 + 2);
//! });
//! assert!(m.per_op_ns() >= 0.0);
//! ```

pub mod arrival;
pub mod calibrate;
pub mod clock;
pub mod counters;
pub mod cycle;
pub mod harness;
pub mod quality;
pub mod result;
pub mod sim;
pub mod sizing;
pub mod stats;

pub use arrival::{ArrivalProcess, ArrivalSchedule};
pub use calibrate::{
    calibrate_iterations, time_interval_ns, Calibration, MAX_ITERATIONS,
    MAX_PROJECTED_TARGET_MULTIPLE,
};
pub use clock::{clock_overhead_ns, clock_resolution_ns, Clock, ClockInfo};
pub use counters::{
    open_perf, CounterSource, CounterValues, Counters, PerfCounters, PerfError, SimCounters,
};
pub use cycle::{estimate_clock, ClockEstimate};
pub use harness::{new_recorder, take_events, Harness, HarnessBudget, Options, Recorder};
pub use quality::Quality;
pub use result::{Bandwidth, Comparison, Latency, Measurement, TimeUnit};
pub use sim::{CostModel, SimClock, SplitMix};
pub use sizing::{paged_out_fraction, probe_available_memory, MemorySizer};
pub use stats::{Samples, Sorted, SummaryPolicy};

/// Consumes a computed value so the optimizer cannot elide the loop that
/// produced it.
///
/// The original C code passed the running sum as an unused argument to the
/// "finish timing" function for exactly this purpose (paper §5.1); the modern
/// equivalent is [`std::hint::black_box`].
#[inline(always)]
pub fn use_result<T>(value: T) -> T {
    std::hint::black_box(value)
}
