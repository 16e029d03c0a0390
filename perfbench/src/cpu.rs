//! CPU time of the whole process — every thread, the in-process daemon's
//! included — as the kernel accounts it, scaled to the speed of an
//! uncontended core.
//!
//! On a shared host, wall time measures the neighbours as much as the
//! program: time the hypervisor gives to other guests (steal) stretches
//! every operation. With paravirtual steal-time accounting that time is
//! not charged to the process, so CPU time drops it — but a busy sibling
//! hyperthread or a cold cache after a deschedule still slows each
//! instruction. A fixed reference workload run beside the measured work
//! sees the same slowdown, and dividing by it leaves the program's own
//! cost.

use crate::stats::{median, sorted};
use lmb_sys::RusageSnapshot;

/// CPU ms of one [`reference`] call on an undisturbed core of the host
/// the benchmark was written on (a 2-vCPU Intel Xeon guest): the fast
/// mode of its calls while the host was quiet. Under load the calls ran
/// in a second mode 1.7x slower, and slower still.
const REFERENCE_MS: f64 = 0.45;

/// Process CPU seconds (user + system) so far. Forked children are not
/// included.
fn process_s() -> f64 {
    let s = RusageSnapshot::process();
    (s.utime_us + s.stime_us) as f64 / 1e6
}

/// Runs `f` and returns its result with the process CPU seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = process_s();
    let out = f();
    (out, process_s() - before)
}

/// A fixed, std-only piece of the kinds of work the program does:
/// allocation, number formatting and parsing, ordered maps, sorting.
fn reference() -> f64 {
    let mut map = std::collections::BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..1500u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = (x >> 11) as f64 / (1u64 << 53) as f64 * 1e3;
        let s = format!("{{\"name\": \"bench_{}\", \"value\": {v}}}", i % 97);
        let end = s.len() - 1;
        let parsed: f64 = s[s.rfind(' ').map_or(0, |p| p + 1)..end]
            .parse()
            .unwrap_or(0.0);
        *map.entry(s[..s.find(',').unwrap_or(0)].to_string())
            .or_insert(0.0) += parsed;
    }
    let mut vals: Vec<f64> = map.values().copied().collect();
    vals.sort_by(f64::total_cmp);
    std::hint::black_box(vals.iter().sum())
}

/// How much slower than [`REFERENCE_MS`] each of `calls` reference
/// calls (at least one) ran right now.
fn reference_ratios(calls: usize) -> Vec<f64> {
    (0..calls.max(1))
        .map(|_| timed(reference).1 * 1e3 / REFERENCE_MS)
        .collect()
}

/// The host's slowdown right now: the median over `calls` reference
/// calls.
pub fn slowdown(calls: usize) -> f64 {
    median(&sorted(&reference_ratios(calls))).expect("at least one call")
}

/// The host's slowdown in its least-disturbed moment: the fastest of
/// `calls` reference calls.
pub fn least_slowdown(calls: usize) -> f64 {
    reference_ratios(calls)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
}

/// One measured piece of work: its process CPU seconds, the units of work
/// it did, and the host's slowdown measured beside it.
#[derive(Debug, Clone, Copy)]
pub struct Work {
    pub cpu_s: f64,
    pub units: usize,
    pub slowdown: f64,
}

impl Work {
    /// Runs `f`, which does `units` units of work, then measures the
    /// slowdown over `calls` reference calls.
    pub fn measure<T>(units: usize, calls: usize, f: impl FnOnce() -> T) -> (T, Work) {
        let (out, cpu_s) = timed(f);
        let slowdown = slowdown(calls);
        (
            out,
            Work {
                cpu_s,
                units,
                slowdown,
            },
        )
    }

    /// The fastest of several runs of the same work, `units` units each,
    /// to be scaled by the fastest of as many reference calls: the
    /// least-disturbed run of each, as lmbench keeps the best of its
    /// repetitions. Under contention a busy sibling hyperthread or a
    /// deschedule that leaves caches cold slows whichever run it hits.
    pub fn fastest(runs_cpu_s: &[f64], units: usize, slowdown: f64) -> Work {
        Work {
            cpu_s: runs_cpu_s.iter().copied().fold(f64::INFINITY, f64::min),
            units,
            slowdown,
        }
    }

    /// CPU seconds at the speed of an uncontended core.
    pub fn scaled_s(&self) -> f64 {
        self.cpu_s / self.slowdown
    }

    /// Scaled CPU ms per unit of work.
    pub fn ms_per_unit(&self) -> f64 {
        self.scaled_s() * 1e3 / self.units as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleeping_costs_no_cpu_and_spinning_does() {
        let ((), slept) = timed(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(slept < 0.02, "a 50 ms sleep cost {slept} CPU s");
        let ((), spun) = timed(|| {
            let t = std::time::Instant::now();
            while t.elapsed().as_millis() < 30 {
                std::hint::spin_loop();
            }
        });
        assert!(spun > 0.01, "a 30 ms spin cost only {spun} CPU s");
    }

    #[test]
    fn scaling_divides_by_the_slowdown() {
        let w = Work {
            cpu_s: 0.006,
            units: 3,
            slowdown: 2.0,
        };
        assert!((w.scaled_s() - 0.003).abs() < 1e-12);
        assert!((w.ms_per_unit() - 1.0).abs() < 1e-9);
        let best = Work::fastest(&[0.009, 0.004, 0.007], 2, 1.0);
        assert_eq!(best.cpu_s, 0.004);
        for s in [least_slowdown(2), slowdown(3)] {
            assert!(s.is_finite() && s > 0.0, "slowdown {s}");
        }
    }
}
