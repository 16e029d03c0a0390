//! Scheduled arrival processes for open-loop load generation.
//!
//! A closed-loop generator issues its next operation when the previous
//! one completes, so at saturation it silently slows its own offered load
//! and never observes queueing delay — the coordinated-omission bug. An
//! open-loop generator instead decides *in advance* when every operation
//! should start and measures each one from that intended start time.
//! This module provides the "in advance" part: an [`ArrivalProcess`]
//! describes the offered load (a deterministic fixed rate, or a seeded
//! memoryless Poisson stream), and its [`ArrivalSchedule`] yields the
//! intended start offsets one arrival at a time.
//!
//! Offsets are plain `f64` nanoseconds from an epoch the caller picks
//! (usually a [`crate::Clock::now_ns`] reading), so the same schedule
//! drives [`crate::Clock::Real`] or [`crate::Clock::Sim`] identically —
//! and the Poisson stream draws from the same splitmix64 generator as the
//! sim clock's jitter, so a seeded schedule is bitwise reproducible.
//!
//! # Examples
//!
//! ```
//! use lmb_timing::ArrivalProcess;
//!
//! // 1000 arrivals per second: one every millisecond, starting at 0.
//! let mut s = ArrivalProcess::uniform(1000.0).schedule();
//! assert_eq!(s.next_arrival_ns(), 0.0);
//! assert_eq!(s.next_arrival_ns(), 1_000_000.0);
//!
//! // A seeded Poisson stream with the same mean rate reproduces exactly.
//! let mut a = ArrivalProcess::poisson(1000.0, 7).schedule();
//! let mut b = ArrivalProcess::poisson(1000.0, 7).schedule();
//! assert_eq!(a.next_arrival_ns(), b.next_arrival_ns());
//! ```

use crate::sim::SplitMix;

/// How offered load arrives: the paper's "measure the primitive" clients,
/// multiplied into a stream with a defined rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Deterministic arrivals exactly `1e9 / rate_per_s` ns apart — the
    /// metronome a throughput sweep is calibrated against.
    Uniform {
        /// Offered arrival rate, operations per second.
        rate_per_s: f64,
    },
    /// Memoryless arrivals: exponentially distributed inter-arrival gaps
    /// with mean `1e9 / rate_per_s` ns, drawn from a seeded stream — the
    /// "millions of independent users" shape, with bursts.
    Poisson {
        /// Mean offered arrival rate, operations per second.
        rate_per_s: f64,
        /// Seed for the gap stream; same seed, same schedule, bitwise.
        seed: u64,
    },
}

impl ArrivalProcess {
    /// A deterministic fixed-rate process.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_s` is finite and positive.
    #[must_use]
    pub fn uniform(rate_per_s: f64) -> Self {
        assert!(
            rate_per_s.is_finite() && rate_per_s > 0.0,
            "arrival rate must be finite and positive"
        );
        ArrivalProcess::Uniform { rate_per_s }
    }

    /// A seeded Poisson process with the given mean rate.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_s` is finite and positive.
    #[must_use]
    pub fn poisson(rate_per_s: f64, seed: u64) -> Self {
        assert!(
            rate_per_s.is_finite() && rate_per_s > 0.0,
            "arrival rate must be finite and positive"
        );
        ArrivalProcess::Poisson { rate_per_s, seed }
    }

    /// The process's (mean) offered rate, operations per second.
    #[must_use]
    pub fn rate_per_s(&self) -> f64 {
        match *self {
            ArrivalProcess::Uniform { rate_per_s } | ArrivalProcess::Poisson { rate_per_s, .. } => {
                rate_per_s
            }
        }
    }

    /// The same process shape at a different offered rate (a sweep moves
    /// the rate, not the seed, so Poisson burst structure stays pinned).
    #[must_use]
    pub fn at_rate(&self, rate_per_s: f64) -> Self {
        match *self {
            ArrivalProcess::Uniform { .. } => ArrivalProcess::uniform(rate_per_s),
            ArrivalProcess::Poisson { seed, .. } => ArrivalProcess::poisson(rate_per_s, seed),
        }
    }

    /// Stable label for reports and trace lines.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ArrivalProcess::Uniform { .. } => "uniform",
            ArrivalProcess::Poisson { .. } => "poisson",
        }
    }

    /// Starts the schedule: arrival 0 is at offset 0, later arrivals
    /// follow the process's gaps.
    #[must_use]
    pub fn schedule(&self) -> ArrivalSchedule {
        let mean_gap_ns = 1e9 / self.rate_per_s();
        ArrivalSchedule {
            next_ns: 0.0,
            mean_gap_ns,
            rng: match *self {
                ArrivalProcess::Uniform { .. } => None,
                ArrivalProcess::Poisson { seed, .. } => Some(SplitMix::new(seed)),
            },
        }
    }
}

/// A stream of intended arrival offsets (ns from the schedule's epoch),
/// produced by [`ArrivalProcess::schedule`]. The first arrival is at 0.
#[derive(Debug, Clone)]
pub struct ArrivalSchedule {
    next_ns: f64,
    mean_gap_ns: f64,
    /// `Some` draws exponential gaps (Poisson); `None` is the metronome.
    rng: Option<SplitMix>,
}

impl ArrivalSchedule {
    /// The next intended arrival offset, in ns from the epoch. Offsets
    /// are non-decreasing; the caller adds its own epoch reading.
    pub fn next_arrival_ns(&mut self) -> f64 {
        let at = self.next_ns;
        let gap = match &mut self.rng {
            // Inverse-CDF exponential draw; uniform() < 1 keeps ln finite.
            Some(rng) => -self.mean_gap_ns * (1.0 - rng.uniform()).ln(),
            None => self.mean_gap_ns,
        };
        self.next_ns += gap;
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_schedule_is_an_exact_metronome() {
        let mut s = ArrivalProcess::uniform(1000.0).schedule();
        for i in 0..100u64 {
            assert_eq!(s.next_arrival_ns(), i as f64 * 1_000_000.0, "arrival {i}");
        }
    }

    #[test]
    fn poisson_same_seed_reproduces_bitwise_and_seeds_differ() {
        let draw = |seed| {
            let mut s = ArrivalProcess::poisson(5000.0, seed).schedule();
            (0..256).map(|_| s.next_arrival_ns()).collect::<Vec<f64>>()
        };
        assert_eq!(draw(42), draw(42), "same seed diverged");
        assert_ne!(draw(42), draw(43), "different seeds agreed");
    }

    #[test]
    fn poisson_gaps_average_the_mean_and_stay_positive() {
        let rate = 10_000.0;
        let mut s = ArrivalProcess::poisson(rate, 9).schedule();
        let n = 20_000;
        let mut prev = s.next_arrival_ns();
        assert_eq!(prev, 0.0, "first arrival is at the epoch");
        let mut last = prev;
        for _ in 0..n {
            let at = s.next_arrival_ns();
            assert!(at >= prev, "offsets must be non-decreasing");
            prev = at;
            last = at;
        }
        let mean_gap = last / n as f64;
        let expected = 1e9 / rate;
        assert!(
            (mean_gap - expected).abs() < expected * 0.05,
            "mean gap {mean_gap} ns vs expected {expected} ns"
        );
    }

    #[test]
    fn at_rate_keeps_shape_and_seed() {
        let p = ArrivalProcess::poisson(100.0, 3);
        let q = p.at_rate(200.0);
        assert_eq!(
            q,
            ArrivalProcess::Poisson {
                rate_per_s: 200.0,
                seed: 3
            }
        );
        assert_eq!(q.label(), "poisson");
        let u = ArrivalProcess::uniform(100.0).at_rate(50.0);
        assert_eq!(u.rate_per_s(), 50.0);
        assert_eq!(u.label(), "uniform");
    }

    #[test]
    #[should_panic(expected = "arrival rate must be finite and positive")]
    fn zero_rate_rejected() {
        let _ = ArrivalProcess::uniform(0.0);
    }
}
