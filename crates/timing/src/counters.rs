//! Hardware-counter brackets with §3.4-style overhead compensation.
//!
//! The clock machinery in this crate never trusts a raw reading: §3.4
//! taught it to probe the clock's resolution and read overhead and
//! compensate. Counters get the identical treatment. Reading a perf
//! group is not free — the enable/disable ioctls and the group read
//! execute a few thousand instructions of their own — so [`Counters`]
//! measures an *empty* bracket several times at construction, keeps the
//! field-wise minimum as the bracket overhead, and subtracts it
//! (saturating) from every measured delta.
//!
//! Like the clock ([`crate::Clock`], real or simulated), the counter
//! backend is a seam: [`CounterSource`] is implemented by [`PerfCounters`]
//! (a real `perf_event_open` group via `lmb-sys`) and by [`SimCounters`]
//! (scripted readings), so all of the compensation and delta logic is
//! testable with no PMU at all — which is also the only way to test it in
//! CI containers, where `perf_event_paranoid` denies the real thing.

use std::collections::VecDeque;

use lmb_sys::perf::PerfGroup;
pub use lmb_sys::perf::{CounterKind, CounterValues, PerfError};

/// A startable/stoppable counter group; the counter analog of
/// [`crate::Clock`].
///
/// `start` zeroes and begins counting; `stop` ends the bracket and
/// yields the raw (uncompensated) counts, or `None` if the backend tore.
pub trait CounterSource {
    /// Zeroes the counters and starts counting. Returns `false` when the
    /// backend cannot count (the bracket then yields no delta).
    fn start(&mut self) -> bool;

    /// Stops counting and returns the raw accumulated counts.
    fn stop(&mut self) -> Option<CounterValues>;
}

/// Empty brackets measured at calibration time to learn the read
/// overhead; mirrors the clock probe's sample count.
pub const OVERHEAD_PROBE_ROUNDS: usize = 16;

/// A calibrated counter bracket: a [`CounterSource`] plus the measured
/// cost of an empty bracket, subtracted from every reading.
#[derive(Debug)]
pub struct Counters<C: CounterSource> {
    source: C,
    overhead: CounterValues,
    active: bool,
}

impl<C: CounterSource> Counters<C> {
    /// Probes `source` with [`OVERHEAD_PROBE_ROUNDS`] empty brackets and
    /// keeps the field-wise minimum as the overhead — the smallest cost
    /// a bracket was ever observed to have, exactly how the clock probe
    /// keeps its smallest observed tick.
    pub fn calibrated(mut source: C) -> Self {
        let mut overhead: Option<CounterValues> = None;
        for _ in 0..OVERHEAD_PROBE_ROUNDS {
            if !source.start() {
                break;
            }
            let Some(read) = source.stop() else { break };
            overhead = Some(match overhead {
                Some(best) => best.field_min(&read),
                None => read,
            });
        }
        Counters {
            source,
            overhead: overhead.unwrap_or_default(),
            active: false,
        }
    }

    /// Builds a bracket with a known overhead, skipping the probe. Tests
    /// use this to pin the compensation arithmetic exactly.
    pub fn with_overhead(source: C, overhead: CounterValues) -> Self {
        Counters {
            source,
            overhead,
            active: false,
        }
    }

    /// The probed (or injected) cost of an empty bracket.
    #[must_use]
    pub fn overhead(&self) -> CounterValues {
        self.overhead
    }

    /// Opens a bracket. Safe to call around code that may unwind: a
    /// panic between [`Counters::begin`] and [`Counters::end`] leaves
    /// the bracket consistent — the next `begin` resets the counters,
    /// and the interrupted bracket can still be closed for a well-formed
    /// (never torn) delta.
    pub fn begin(&mut self) -> bool {
        self.active = self.source.start();
        self.active
    }

    /// Closes the bracket and returns the compensated delta: the raw
    /// counts minus the empty-bracket overhead, saturating at zero so a
    /// short attempt can never go negative. `None` if no bracket is
    /// open or the backend tore.
    pub fn end(&mut self) -> Option<CounterValues> {
        if !self.active {
            return None;
        }
        self.active = false;
        let raw = self.source.stop()?;
        Some(raw.saturating_sub(&self.overhead))
    }

    /// Runs `f` inside a bracket and returns its result with the
    /// compensated delta.
    pub fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, Option<CounterValues>) {
        let counting = self.begin();
        let result = f();
        let delta = if counting { self.end() } else { None };
        (result, delta)
    }
}

/// The real backend: a five-event `perf_event_open` group on the thread
/// that opened it.
#[derive(Debug)]
pub struct PerfCounters {
    group: PerfGroup,
}

impl PerfCounters {
    /// Opens the group on the calling thread; the error says why not
    /// (denied vs unsupported), for the one-shot unavailability report.
    pub fn open() -> Result<Self, PerfError> {
        Ok(PerfCounters {
            group: PerfGroup::open_thread()?,
        })
    }
}

impl CounterSource for PerfCounters {
    fn start(&mut self) -> bool {
        self.group.reset_and_enable().is_ok()
    }

    fn stop(&mut self) -> Option<CounterValues> {
        self.group.disable_and_read().ok()
    }
}

/// Opens and calibrates a real counter bracket on the calling thread.
///
/// This is the one call the engine makes per bench thread; everything
/// after it is backend-agnostic.
pub fn open_perf() -> Result<Counters<PerfCounters>, PerfError> {
    Ok(Counters::calibrated(PerfCounters::open()?))
}

/// Scripted counter backend, mirroring [`crate::SimClock`]: `stop`
/// replays queued readings, and an empty queue reads as exactly the
/// scripted overhead (what a real empty bracket would show). With
/// `available = false` it models a host where the group never opens.
#[derive(Debug, Clone)]
pub struct SimCounters {
    overhead: CounterValues,
    script: VecDeque<CounterValues>,
    available: bool,
    starts: u64,
    stops: u64,
}

impl SimCounters {
    /// A backend whose empty brackets cost `overhead` and whose
    /// subsequent brackets read the queued values (raw, overhead
    /// included — the script models what the hardware would report).
    #[must_use]
    pub fn scripted(overhead: CounterValues, reads: Vec<CounterValues>) -> Self {
        SimCounters {
            overhead,
            script: reads.into(),
            available: true,
            starts: 0,
            stops: 0,
        }
    }

    /// A backend that never counts: `start` always fails, like a host
    /// with `perf_event_paranoid` above the admissible level.
    #[must_use]
    pub fn unavailable() -> Self {
        SimCounters {
            overhead: CounterValues::default(),
            script: VecDeque::new(),
            available: false,
            starts: 0,
            stops: 0,
        }
    }

    /// How many brackets were opened against this backend.
    #[must_use]
    pub fn starts(&self) -> u64 {
        self.starts
    }

    /// How many brackets were read back.
    #[must_use]
    pub fn stops(&self) -> u64 {
        self.stops
    }
}

impl CounterSource for SimCounters {
    fn start(&mut self) -> bool {
        if !self.available {
            return false;
        }
        self.starts += 1;
        true
    }

    fn stop(&mut self) -> Option<CounterValues> {
        self.stops += 1;
        Some(self.script.pop_front().unwrap_or(self.overhead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(cycles: u64, instructions: u64) -> CounterValues {
        CounterValues {
            cycles,
            instructions,
            enabled_ns: cycles, // 1 cycle/ns keeps fixtures easy to read
            running_ns: cycles,
            ..CounterValues::default()
        }
    }

    #[test]
    fn calibration_takes_the_field_min_of_probe_rounds() {
        // Probe readings jitter; the overhead kept must be the smallest
        // each field ever showed, not the first or the mean.
        let mut reads = vec![vals(120, 300); OVERHEAD_PROBE_ROUNDS];
        reads[3] = vals(100, 340); // cheapest cycles in round 3...
        reads[7] = vals(130, 280); // ...cheapest instructions in round 7
        let counters = Counters::calibrated(SimCounters::scripted(vals(0, 0), reads));
        assert_eq!(counters.overhead().cycles, 100);
        assert_eq!(counters.overhead().instructions, 280);
    }

    #[test]
    fn bracket_subtracts_the_probed_overhead_exactly() {
        let overhead = vals(100, 250);
        // The measured region really cost 5000 cycles / 9000 insns; the
        // hardware reports that plus the bracket overhead.
        let raw = vals(5_100, 9_250);
        let mut counters =
            Counters::with_overhead(SimCounters::scripted(overhead, vec![raw]), overhead);
        let (value, delta) = counters.bracket(|| 7);
        assert_eq!(value, 7);
        let delta = delta.expect("counting backend yields a delta");
        assert_eq!(delta.cycles, 5_000);
        assert_eq!(delta.instructions, 9_000);
    }

    #[test]
    fn compensation_saturates_at_zero_for_tiny_brackets() {
        // A bracket shorter than the probed overhead (possible when the
        // probe raced a migration) must clamp, never wrap.
        let overhead = vals(1_000, 2_000);
        let raw = vals(400, 2_500);
        let mut counters =
            Counters::with_overhead(SimCounters::scripted(overhead, vec![raw]), overhead);
        let (_, delta) = counters.bracket(|| ());
        let delta = delta.unwrap();
        assert_eq!(delta.cycles, 0, "clamped, not wrapped");
        assert_eq!(delta.instructions, 500);
    }

    #[test]
    fn empty_bracket_reads_as_zero_after_compensation() {
        // The defining property of the compensation: an empty bracket's
        // delta is (approximately, here exactly) nothing.
        let overhead = vals(100, 250);
        let mut counters =
            Counters::with_overhead(SimCounters::scripted(overhead, vec![]), overhead);
        let (_, delta) = counters.bracket(|| ());
        assert_eq!(delta.unwrap(), CounterValues::default());
    }

    #[test]
    fn unavailable_backend_yields_no_delta_and_no_panic() {
        let mut counters = Counters::calibrated(SimCounters::unavailable());
        assert_eq!(counters.overhead(), CounterValues::default());
        let (value, delta) = counters.bracket(|| 42);
        assert_eq!(value, 42);
        assert!(delta.is_none());
        assert!(!counters.begin());
        assert!(counters.end().is_none());
    }

    #[test]
    fn end_without_begin_is_none_not_torn() {
        let mut counters = Counters::with_overhead(
            SimCounters::scripted(vals(1, 1), vec![vals(9, 9)]),
            vals(1, 1),
        );
        assert!(counters.end().is_none(), "no open bracket, no delta");
    }

    #[test]
    fn panicking_region_still_closes_to_a_well_formed_delta() {
        // The engine brackets catch_unwind with begin/end; a panic in
        // the measured region must leave the delta whole or absent,
        // never half-updated.
        let overhead = vals(100, 200);
        let raw = vals(600, 1_200);
        let mut counters =
            Counters::with_overhead(SimCounters::scripted(overhead, vec![raw]), overhead);
        assert!(counters.begin());
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            panic!("injected");
        }));
        assert!(caught.is_err());
        let delta = counters.end().expect("bracket closes across a panic");
        assert_eq!(delta.cycles, 500);
        assert_eq!(delta.instructions, 1_000);
    }

    #[test]
    fn multiplexed_reads_survive_compensation_flagged() {
        let overhead = CounterValues::default();
        let raw = CounterValues {
            cycles: 1_000,
            instructions: 2_000,
            enabled_ns: 10_000,
            running_ns: 4_000,
            ..CounterValues::default()
        };
        let mut counters =
            Counters::with_overhead(SimCounters::scripted(overhead, vec![raw]), overhead);
        let (_, delta) = counters.bracket(|| ());
        assert!(delta.unwrap().multiplexed());
    }

    #[test]
    fn real_backend_opens_or_fails_classified() {
        // Mirrors the lmb-sys contract at this layer: whichever way the
        // host swings, the calibrated bracket must behave.
        match open_perf() {
            Ok(mut counters) => {
                let (acc, delta) = counters.bracket(|| {
                    let mut acc = 0u64;
                    for i in 0..100_000u64 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
                    }
                    acc
                });
                std::hint::black_box(acc);
                let delta = delta.expect("open group counts");
                // 100k iterations of mul+add cannot retire in fewer
                // instructions than iterations.
                assert!(
                    delta.instructions > 100_000,
                    "implausibly few instructions: {delta:?}"
                );
            }
            Err(e) => assert!(!e.reason().is_empty()),
        }
    }

    #[test]
    fn sim_counts_brackets_for_callers_that_audit() {
        let mut sim = SimCounters::scripted(vals(1, 1), vec![]);
        assert!(sim.start());
        let _ = sim.stop();
        assert_eq!(sim.starts(), 1);
        assert_eq!(sim.stops(), 1);
    }
}
