//! Benchmark sizing: making sure parameters fit memory but defeat caches.
//!
//! Paper §3.1: "The proper sizing of various benchmark parameters is crucial
//! ... if the size parameter is too small so the data is in a cache, then the
//! performance may be as much as ten times faster than if the data is in
//! memory. On the other hand, if the memory size parameter is too big so the
//! data is paged to disk, then performance may be slowed to such an extent
//! that the benchmark seems to 'never finish.'"
//!
//! lmbench's answer is a probe that "allocates as much memory as it can,
//! clears the memory, and then strides through that memory a page at a time,
//! timing each reference. If any reference takes more than a few
//! microseconds, the page is no longer in memory." [`probe_available_memory`]
//! implements that probe; [`MemorySizer`] turns its answer into concrete
//! benchmark sizes (8 MB copies shrunk to 4 MB on small machines — the
//! paper's own footnote 1 behaviour).

use crate::clock::{Clock, ClockInfo};

/// Page size used by the touch probe; 4 KiB matches every platform the
/// suite targets (and over-striding merely touches more often, which is
/// safe).
pub const PROBE_PAGE: usize = 4096;

/// A page reference slower than this is treated as "no longer in memory"
/// (the paper's "more than a few microseconds").
pub const PAGED_OUT_THRESHOLD_NS: f64 = 4_000.0;

/// Fraction of pages allowed over the threshold before a size counts as
/// "no longer in memory".
///
/// Paging evicts *swaths* of pages; scheduler preemption mid-probe inflates
/// a stray *few*. Tolerating a small fraction keeps the probe correct on
/// loaded machines while still catching real thrashing.
pub const PAGED_OUT_FRACTION: f64 = 0.01;

/// Probes how much memory can be touched while staying resident.
///
/// Starting from `start` bytes the probe doubles the allocation, writes one
/// word per page, then strides back through timing each page reference. The
/// largest size where at most [`PAGED_OUT_FRACTION`] of references exceed
/// [`PAGED_OUT_THRESHOLD_NS`] is returned. The probe never exceeds `limit`.
///
/// # Panics
///
/// Panics if `start` is zero or `limit < start`.
pub fn probe_available_memory(start: usize, limit: usize) -> usize {
    assert!(start > 0, "start must be nonzero");
    assert!(limit >= start, "limit below start");
    // Probe the clock once: every timed page reference below compensates
    // for the read overhead, so an expensive clock no longer masquerades
    // as a slow page (which used to misclassify resident memory as paged
    // out on hosts where a clock read costs microseconds).
    let clock = ClockInfo::probe(&Clock::Real);
    let mut good = 0usize;
    let mut size = start;
    loop {
        match try_touch(&clock, size) {
            Some(slow_fraction) if slow_fraction <= PAGED_OUT_FRACTION => good = size,
            _ => break,
        }
        if size >= limit {
            break;
        }
        size = (size * 2).min(limit);
    }
    good
}

/// Times one reference per page via `touch(page_index)` on `clock`,
/// subtracts the clock-read overhead from each interval (clamped at zero),
/// and returns the fraction slower than [`PAGED_OUT_THRESHOLD_NS`].
///
/// This is the classification core of the paper's §3.1 probe, factored out
/// so a simulated clock can drive it with scripted page costs. The real
/// probe ([`probe_available_memory`]) calls it with a buffer-backed touch.
pub fn paged_out_fraction(
    clock: &Clock,
    info: &ClockInfo,
    pages: usize,
    mut touch: impl FnMut(usize),
) -> f64 {
    if pages == 0 {
        return 0.0;
    }
    let mut slow = 0usize;
    for p in 0..pages {
        let start = clock.now_ns();
        touch(p);
        let dt = (clock.now_ns() - start - info.overhead_ns).max(0.0);
        if dt > PAGED_OUT_THRESHOLD_NS {
            slow += 1;
        }
    }
    slow as f64 / pages as f64
}

/// Allocates `size` bytes, touches each page, and returns the fraction of
/// page references slower than [`PAGED_OUT_THRESHOLD_NS`] after clock
/// compensation (or `None` if the allocation failed).
fn try_touch(clock: &ClockInfo, size: usize) -> Option<f64> {
    let pages = size / PROBE_PAGE;
    if pages == 0 {
        return Some(0.0);
    }
    // A failed allocation aborts in Rust; stay well under by using
    // try_reserve on a Vec.
    let mut buf: Vec<u8> = Vec::new();
    buf.try_reserve_exact(size).ok()?;
    buf.resize(size, 0);
    // Clear pass (forces physical backing), then the timed stride pass.
    for p in 0..pages {
        buf[p * PROBE_PAGE] = 1;
    }
    Some(paged_out_fraction(&Clock::Real, clock, pages, |p| {
        std::hint::black_box(buf[p * PROBE_PAGE]);
    }))
}

/// Concrete sizes for the suite's memory-hungry benchmarks, derived from the
/// available-memory probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemorySizer {
    /// Memory the probe found usable, in bytes.
    pub available: usize,
}

impl MemorySizer {
    /// Builds a sizer from a probe capped at `limit` bytes.
    pub fn probe(limit: usize) -> Self {
        Self {
            available: probe_available_memory(1 << 20, limit),
        }
    }

    /// Builds a sizer from a known amount of available memory (tests,
    /// configuration overrides).
    pub fn with_available(available: usize) -> Self {
        Self { available }
    }

    /// Size of each side of the default `bcopy` benchmark.
    ///
    /// The paper copies "an 8M area to another 8M area" to defeat 1995-era
    /// second-level caches, and notes both that small PCs fell back to 4M
    /// (footnote 1) and that "as secondary caches reach 16M, these
    /// benchmarks will have to be resized". We honour both: default 8 MiB,
    /// shrink when memory is tight (need 2 buffers plus slack), and callers
    /// that detected a bigger cache pass it through `grow_past_cache`.
    pub fn copy_buffer_size(&self) -> usize {
        let want = 8 << 20;
        if self.available >= want * 3 {
            want
        } else {
            floor_pow2(self.available / 3).max(1 << 20)
        }
    }

    /// Grows `size` until it is at least four times `cache_bytes` (the
    /// resizing rule the paper anticipated), capped by available memory.
    pub fn grow_past_cache(&self, size: usize, cache_bytes: usize) -> usize {
        let mut s = size.max(1);
        while s < cache_bytes.saturating_mul(4) && s * 3 < self.available {
            s *= 2;
        }
        s
    }

    /// Default total bytes a streaming benchmark (pipe/TCP bandwidth)
    /// should move: enough to swamp per-call overhead, bounded by memory.
    pub fn stream_total(&self) -> usize {
        (50 << 20).min(self.available / 2).max(1 << 20)
    }
}

/// Largest power of two less than or equal to `n` (0 for `n == 0`).
fn floor_pow2(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        1 << (usize::BITS - 1 - n.leading_zeros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_pow2_basics() {
        assert_eq!(floor_pow2(0), 0);
        assert_eq!(floor_pow2(1), 1);
        assert_eq!(floor_pow2(7), 4);
        assert_eq!(floor_pow2(8), 8);
        assert_eq!(floor_pow2((4 << 20) + 1), 4 << 20);
    }

    #[test]
    fn probe_finds_at_least_the_start_size() {
        // 1 MiB must always be touchable in any environment running tests.
        let got = probe_available_memory(1 << 20, 4 << 20);
        assert!(got >= 1 << 20, "probe reported {got}");
    }

    #[test]
    fn probe_respects_limit() {
        let got = probe_available_memory(1 << 20, 2 << 20);
        assert!(got <= 2 << 20);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn probe_rejects_zero_start() {
        probe_available_memory(0, 1 << 20);
    }

    #[test]
    fn sizer_defaults_to_8m_when_roomy() {
        let s = MemorySizer::with_available(256 << 20);
        assert_eq!(s.copy_buffer_size(), 8 << 20);
    }

    #[test]
    fn sizer_shrinks_on_small_machines() {
        // 12 MiB available: cannot hold two 8 MiB buffers; must shrink.
        let s = MemorySizer::with_available(12 << 20);
        let sz = s.copy_buffer_size();
        assert!(sz < 8 << 20);
        assert!(sz >= 1 << 20);
        assert!(sz.is_power_of_two());
    }

    #[test]
    fn grow_past_cache_quadruples_cache() {
        let s = MemorySizer::with_available(1 << 30);
        let grown = s.grow_past_cache(8 << 20, 16 << 20);
        assert!(grown >= 64 << 20, "grown to {grown}");
    }

    #[test]
    fn grow_past_cache_bounded_by_memory() {
        let s = MemorySizer::with_available(32 << 20);
        let grown = s.grow_past_cache(8 << 20, 1 << 30);
        assert!(grown * 3 >= s.available || grown >= 4 << 30 || grown <= 32 << 20);
        assert!(grown <= 32 << 20);
    }

    #[test]
    fn expensive_clock_reads_no_longer_fake_paging() {
        // Regression (sim reproduction): a 5µs clock read around a 100ns
        // page touch used to read as 5.1µs > threshold, classifying every
        // resident page as paged out. With compensation the probe sees
        // 100ns and the region is resident.
        use crate::sim::{CostModel, SimClock};
        let sim = SimClock::new(31).with_read_overhead_ns(5_000.0);
        let clock = ClockInfo {
            resolution_ns: 1.0,
            overhead_ns: 5_000.0,
        };
        let mut touch = sim.scripted_body(CostModel::Constant { ns: 100.0 });
        let fraction = paged_out_fraction(&Clock::Sim(sim), &clock, 64, |_| touch());
        assert_eq!(fraction, 0.0, "resident pages misread as paged out");
    }

    #[test]
    fn simulated_paged_out_region_is_classified_as_such() {
        // A quarter of the pages fault at 50µs apiece: far over the
        // threshold even after compensation, and far over the tolerated
        // fraction.
        use crate::sim::{CostModel, SimClock};
        let sim = SimClock::new(32).with_read_overhead_ns(30.0);
        let clock = ClockInfo {
            resolution_ns: 1.0,
            overhead_ns: 30.0,
        };
        let mut fast = sim.scripted_body(CostModel::Constant { ns: 120.0 });
        let fraction = paged_out_fraction(&Clock::Sim(sim.clone()), &clock, 100, |p| {
            if p % 4 == 0 {
                sim.advance(50_000.0);
            } else {
                fast();
            }
        });
        assert!(
            (fraction - 0.25).abs() < 1e-9,
            "slow fraction {fraction}, expected 0.25"
        );
        assert!(fraction > PAGED_OUT_FRACTION, "must classify as paged out");
    }

    #[test]
    fn empty_region_has_no_slow_pages() {
        use crate::sim::SimClock;
        let sim = SimClock::new(33);
        let clock = ClockInfo {
            resolution_ns: 1.0,
            overhead_ns: 15.0,
        };
        assert_eq!(paged_out_fraction(&Clock::Sim(sim), &clock, 0, |_| {}), 0.0);
    }

    #[test]
    fn stream_total_bounds() {
        assert_eq!(
            MemorySizer::with_available(1 << 30).stream_total(),
            50 << 20
        );
        let tiny = MemorySizer::with_available(2 << 20).stream_total();
        assert_eq!(tiny, 1 << 20);
    }
}
