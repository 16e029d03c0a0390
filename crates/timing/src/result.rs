//! Measurement result types with units.
//!
//! The paper reports bandwidth in MB/s (Tables 2–5) and latency in
//! microseconds or nanoseconds (Tables 6–17). These types carry the raw
//! per-operation time together with the repetition samples so downstream
//! consumers (tables, plots, the results database) can re-summarize.

use crate::quality::Quality;
use crate::stats::{Samples, SummaryPolicy};
use std::fmt;

/// Unit in which a latency should be displayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeUnit {
    /// Nanoseconds — memory/cache latencies (Table 6).
    Nanos,
    /// Microseconds — OS primitive latencies (Tables 7–17).
    Micros,
    /// Milliseconds — process creation (Table 9).
    Millis,
}

impl TimeUnit {
    /// Nanoseconds per one of this unit.
    pub fn ns_per_unit(self) -> f64 {
        match self {
            TimeUnit::Nanos => 1.0,
            TimeUnit::Micros => 1e3,
            TimeUnit::Millis => 1e6,
        }
    }

    /// Short suffix used in tables ("ns", "us", "ms").
    pub fn suffix(self) -> &'static str {
        match self {
            TimeUnit::Nanos => "ns",
            TimeUnit::Micros => "us",
            TimeUnit::Millis => "ms",
        }
    }
}

/// A timed quantity: total elapsed nanoseconds across `ops` operations,
/// repeated `samples.len()` times.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Per-operation elapsed time of each repetition, in nanoseconds.
    samples: Samples,
    /// Operations per timed interval (the loop count).
    ops_per_sample: u64,
    /// Policy used by [`Measurement::per_op_ns`].
    policy: SummaryPolicy,
    /// Repetitions whose interval fell below the clock-read overhead and
    /// were clamped to 0.0 instead of reporting a negative time.
    clamped_samples: u32,
    /// Untimed warm-up runs before the first sample.
    warmup_runs: u32,
    /// Probed clock resolution at measurement time, ns.
    clock_resolution_ns: f64,
}

impl Measurement {
    /// Builds a measurement from per-operation samples (nanoseconds per op).
    pub fn from_per_op_samples(
        samples: Samples,
        ops_per_sample: u64,
        policy: SummaryPolicy,
    ) -> Self {
        Self {
            samples,
            ops_per_sample,
            policy,
            clamped_samples: 0,
            warmup_runs: 0,
            clock_resolution_ns: 0.0,
        }
    }

    /// Stamps the harness context this measurement was taken under.
    pub(crate) fn with_context(mut self, warmup_runs: u32, clock_resolution_ns: f64) -> Self {
        self.warmup_runs = warmup_runs;
        self.clock_resolution_ns = clock_resolution_ns;
        self
    }

    /// Marks `clamped` repetitions as overhead-clamped (interval shorter
    /// than the clock-read overhead, reported as 0.0 rather than negative).
    #[must_use]
    pub fn with_clamped_samples(mut self, clamped: u32) -> Self {
        self.clamped_samples = clamped;
        self
    }

    /// Repetitions clamped at 0.0 by overhead compensation.
    ///
    /// A nonzero count means the operation was too fast for this clock:
    /// the summary is a floor, not a measurement, and
    /// [`Measurement::quality`] grades the set `Suspect`.
    pub fn clamped_samples(&self) -> u32 {
        self.clamped_samples
    }

    /// Untimed warm-up runs the harness made before the first sample (0
    /// for a measurement not taken by a harness).
    pub fn warmup_runs(&self) -> u32 {
        self.warmup_runs
    }

    /// Clock resolution the harness probed (or was pinned to), ns; 0.0 for
    /// a measurement not taken by a harness.
    pub fn clock_resolution_ns(&self) -> f64 {
        self.clock_resolution_ns
    }

    /// Grades this measurement's repetition set (see [`Quality`]): every
    /// harness grade comes from here.
    ///
    /// Overhead-clamped samples force `Suspect` regardless of dispersion:
    /// a set of identical zeros looks perfectly quiet but measures nothing.
    pub fn quality(&self) -> Quality {
        if self.clamped_samples > 0 {
            return Quality::Suspect;
        }
        Quality::from_samples(&self.samples)
    }

    /// Per-operation time in nanoseconds under the configured policy.
    ///
    /// Returns 0.0 for an empty measurement (an operation the harness could
    /// not resolve above clock noise — matching the paper's convention that
    /// "the time reported ... may be zero", §6.2).
    pub fn per_op_ns(&self) -> f64 {
        self.samples.summarize(self.policy).unwrap_or(0.0)
    }

    /// Per-operation time converted to `unit`.
    pub fn per_op(&self, unit: TimeUnit) -> f64 {
        self.per_op_ns() / unit.ns_per_unit()
    }

    /// Raw repetition samples (ns per operation).
    pub fn samples(&self) -> &Samples {
        &self.samples
    }

    /// Loop count used inside each timed interval.
    pub fn ops_per_sample(&self) -> u64 {
        self.ops_per_sample
    }

    /// The summary policy in force.
    pub fn policy(&self) -> SummaryPolicy {
        self.policy
    }

    /// Re-summarizes under a different policy without re-measuring.
    pub fn with_policy(mut self, policy: SummaryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Interprets the measurement as a latency in `unit`.
    pub fn latency(&self, unit: TimeUnit) -> Latency {
        Latency {
            value: self.per_op(unit),
            unit,
        }
    }

    /// Converts a per-operation time over `bytes_per_op` bytes into a
    /// bandwidth figure.
    pub fn bandwidth(&self, bytes_per_op: u64) -> Bandwidth {
        let ns = self.per_op_ns();
        Bandwidth {
            mb_per_s: if ns > 0.0 {
                // Paper convention: MB = 2^20 bytes.
                (bytes_per_op as f64 / (1 << 20) as f64) / (ns / 1e9)
            } else {
                f64::INFINITY
            },
        }
    }
}

/// A latency with its display unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Magnitude in `unit`s.
    pub value: f64,
    /// Display unit.
    pub unit: TimeUnit,
}

impl Latency {
    /// Creates a latency from nanoseconds, displayed in `unit`.
    pub fn from_ns(ns: f64, unit: TimeUnit) -> Self {
        Self {
            value: ns / unit.ns_per_unit(),
            unit,
        }
    }

    /// This latency in nanoseconds.
    pub fn as_ns(&self) -> f64 {
        self.value * self.unit.ns_per_unit()
    }

    /// This latency in microseconds.
    pub fn as_micros(&self) -> f64 {
        self.as_ns() / 1e3
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.value >= 100.0 {
            write!(f, "{:.0}{}", self.value, self.unit.suffix())
        } else if self.value >= 10.0 {
            write!(f, "{:.1}{}", self.value, self.unit.suffix())
        } else {
            write!(f, "{:.2}{}", self.value, self.unit.suffix())
        }
    }
}

/// A bandwidth in the paper's MB/s (MB = 2^20 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bandwidth {
    /// Megabytes per second.
    pub mb_per_s: f64,
}

impl Bandwidth {
    /// Creates a bandwidth from bytes moved in a duration of `ns`.
    pub fn from_bytes_ns(bytes: u64, ns: f64) -> Self {
        Self {
            mb_per_s: if ns > 0.0 {
                (bytes as f64 / (1 << 20) as f64) / (ns / 1e9)
            } else {
                f64::INFINITY
            },
        }
    }

    /// Bytes per second.
    pub fn bytes_per_s(&self) -> f64 {
        self.mb_per_s * (1 << 20) as f64
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.mb_per_s >= 10.0 {
            write!(f, "{:.0} MB/s", self.mb_per_s)
        } else {
            write!(f, "{:.2} MB/s", self.mb_per_s)
        }
    }
}

/// A paired price of B over A from [`crate::Harness::compare`]: the
/// median of the per-op differences B − A, one per adjacent A–B pair, and
/// that median's distribution-free 95% interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Median per-op increment of B over A, ns (negative if B is cheaper).
    pub increment_ns: f64,
    /// The increment's 95% interval, ns; `None` with fewer than six pairs.
    pub interval_ns: Option<(f64, f64)>,
    /// Per-op differences B − A, ns, in the order the pairs were timed.
    pub differences: Samples,
}

impl Comparison {
    /// Summarizes per-op pair differences B − A.
    pub(crate) fn from_differences(differences: Samples) -> Self {
        let sorted = differences.sorted();
        let increment_ns = sorted.p50().unwrap_or(f64::NAN);
        let interval_ns = sorted.median_interval();
        Self {
            increment_ns,
            interval_ns,
            differences,
        }
    }

    /// `Greater` when B costs more than A, `Less` when it costs less, and
    /// `None` (unknown) while the interval is missing or spans zero.
    pub fn verdict(&self) -> Option<std::cmp::Ordering> {
        match self.interval_ns {
            Some((low, _)) if low > 0.0 => Some(std::cmp::Ordering::Greater),
            Some((_, high)) if high < 0.0 => Some(std::cmp::Ordering::Less),
            _ => None,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.1} ns", self.increment_ns)?;
        match self.interval_ns {
            Some((low, high)) => write!(f, " [{low:.1}, {high:.1}]")?,
            None => write!(f, " [no interval]")?,
        }
        write!(f, " over {} pairs", self.differences.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meas(per_op_ns: &[f64]) -> Measurement {
        Measurement::from_per_op_samples(
            Samples::from_values(per_op_ns.iter().copied()),
            1000,
            SummaryPolicy::Minimum,
        )
    }

    #[test]
    fn per_op_respects_policy() {
        let m = meas(&[100.0, 150.0, 120.0]);
        assert_eq!(m.per_op_ns(), 100.0);
        assert_eq!(
            m.clone().with_policy(SummaryPolicy::Median).per_op_ns(),
            120.0
        );
    }

    #[test]
    fn clamped_samples_force_suspect_even_when_quiet() {
        // All-zero (all-clamped) sets are the pathological case: zero CV
        // would grade Good, but nothing was actually measured.
        let zeros = meas(&[0.0; 5]);
        assert_eq!(zeros.quality(), Quality::Good);
        assert_eq!(zeros.with_clamped_samples(5).quality(), Quality::Suspect);
        // One clamped sample in an otherwise quiet set still taints it.
        let mostly_fine = meas(&[0.0, 100.0, 101.0, 99.0, 100.5]).with_clamped_samples(1);
        assert_eq!(mostly_fine.quality(), Quality::Suspect);
        // No clamps: the plain repetition-set grade.
        let quiet = meas(&[100.0, 101.0, 99.5]);
        assert_eq!(quiet.quality(), Quality::from_samples(quiet.samples()));
    }

    #[test]
    fn empty_measurement_reports_zero() {
        let m = meas(&[]);
        assert_eq!(m.per_op_ns(), 0.0);
    }

    #[test]
    fn unit_conversion() {
        let m = meas(&[2_500.0]);
        assert!((m.per_op(TimeUnit::Micros) - 2.5).abs() < 1e-12);
        assert!((m.per_op(TimeUnit::Millis) - 0.0025).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_math_uses_binary_megabytes() {
        // 1 MiB moved in 1 ms -> 1000 MB/s.
        let bw = Bandwidth::from_bytes_ns(1 << 20, 1e6);
        assert!((bw.mb_per_s - 1000.0).abs() < 1e-9);
        assert!((bw.bytes_per_s() - 1000.0 * (1 << 20) as f64).abs() < 1.0);
    }

    #[test]
    fn measurement_bandwidth_agrees_with_direct() {
        // 8 MiB per op, 10ms per op -> 800 MB/s.
        let m = meas(&[1e7]);
        let bw = m.bandwidth(8 << 20);
        assert!((bw.mb_per_s - 800.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_bandwidth_is_infinite_not_nan() {
        let bw = Bandwidth::from_bytes_ns(1024, 0.0);
        assert!(bw.mb_per_s.is_infinite());
    }

    #[test]
    fn latency_round_trip() {
        let l = Latency::from_ns(42_000.0, TimeUnit::Micros);
        assert!((l.value - 42.0).abs() < 1e-12);
        assert!((l.as_ns() - 42_000.0).abs() < 1e-9);
        assert!((l.as_micros() - 42.0).abs() < 1e-12);
    }

    #[test]
    fn display_precision_varies_with_magnitude() {
        assert_eq!(
            Latency {
                value: 123.4,
                unit: TimeUnit::Micros
            }
            .to_string(),
            "123us"
        );
        assert_eq!(
            Latency {
                value: 12.34,
                unit: TimeUnit::Micros
            }
            .to_string(),
            "12.3us"
        );
        assert_eq!(
            Latency {
                value: 1.234,
                unit: TimeUnit::Micros
            }
            .to_string(),
            "1.23us"
        );
        assert_eq!(Bandwidth { mb_per_s: 171.4 }.to_string(), "171 MB/s");
        assert_eq!(Bandwidth { mb_per_s: 0.9 }.to_string(), "0.90 MB/s");
    }
}
