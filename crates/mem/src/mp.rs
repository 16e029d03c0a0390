//! Multiprocessor cache-to-cache transfers (paper §7 future work).
//!
//! "None of the benchmarks in lmbench is designed to measure any
//! multiprocessor features directly. At a minimum, we could measure
//! cache-to-cache latency as well as cache-to-cache bandwidth."
//!
//! * **Latency**: two threads ping-pong a single cache line holding an
//!   atomic counter. Each half-trip is one coherence transfer — the line
//!   migrates Modified→Invalid between the two cores.
//! * **Bandwidth**: a producer fills a buffer, a consumer sums it, in
//!   strict generations — every consumer read pulls lines from the
//!   producer's cache.
//!
//! On a single-core machine both degenerate to scheduler ping-pong; the
//! results are still well-defined, just not about coherence hardware.

use lmb_timing::{Bandwidth, Harness, Latency, TimeUnit};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Spin briefly, then yield: on multi-core machines the wait resolves in
/// the spin phase (pure coherence traffic); on single-core machines the
/// yield hands the CPU to the partner instead of burning the timeslice
/// (without it, this benchmark livelocks into scheduler-quantum time).
#[inline]
fn wait_until(cond: impl Fn() -> bool) {
    let mut spins = 0u32;
    while !cond() {
        spins += 1;
        if spins > 1 << 10 {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Pads a value to its own cache line so false sharing cannot pollute the
/// measurement (128 covers the common 64B line plus adjacent-line
/// prefetchers).
#[repr(align(128))]
struct Line(AtomicU64);

/// The turn value that tells a [`Partner`] to exit.
const STOP: u64 = u64::MAX;

/// A partner thread that takes the odd turns of a shared counter on its
/// own cache line until dropped. Each [`Partner::round_trip`] hands it a
/// turn and waits for the turn back, so the partner is idle whenever the
/// measuring thread holds the line, and a stop never lands mid-turn.
struct Partner {
    turn: Arc<Line>,
    next: u64,
    thread: Option<JoinHandle<()>>,
}

impl Partner {
    /// Starts the partner; it runs `work` with the turn number on each turn.
    fn start(mut work: impl FnMut(u64) + Send + 'static) -> Self {
        let turn = Arc::new(Line(AtomicU64::new(0)));
        let shared = Arc::clone(&turn);
        let thread = std::thread::spawn(move || {
            let mut mine = 1u64;
            loop {
                wait_until(|| shared.0.load(Ordering::Acquire) >= mine);
                if shared.0.load(Ordering::Acquire) == STOP {
                    return;
                }
                work(mine);
                shared.0.store(mine + 1, Ordering::Release);
                mine += 2;
            }
        });
        Self {
            turn,
            next: 0,
            thread: Some(thread),
        }
    }

    /// Hands the partner its next turn and waits until it passes it back:
    /// the line crosses to the partner's core and back.
    fn round_trip(&mut self) {
        self.turn.0.store(self.next + 1, Ordering::Release);
        wait_until(|| self.turn.0.load(Ordering::Acquire) >= self.next + 2);
        self.next += 2;
    }
}

impl Drop for Partner {
    fn drop(&mut self) {
        self.turn.0.store(STOP, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Measures cache-line ping-pong between two threads: each harness
/// operation is one round trip, and the result is the *half* round trip
/// (one line transfer), as hardware specs quote it.
pub fn measure_line_pingpong(h: &Harness) -> Latency {
    let mut partner = Partner::start(|_| {});
    let round_trip = h.measure(|| partner.round_trip());
    Latency::from_ns(round_trip.per_op_ns() / 2.0, TimeUnit::Nanos)
}

/// Measures producer→consumer cache-to-cache bandwidth over a
/// `bytes`-sized buffer: each harness operation is one generation, in
/// which a partner thread fills the buffer and this thread sums it, so
/// every consumer read pulls lines from the producer's cache.
///
/// # Panics
///
/// Panics if `bytes < 4096`.
pub fn measure_cache_to_cache_bw(h: &Harness, bytes: usize) -> Bandwidth {
    assert!(bytes >= 4096, "buffer too small to measure");
    let words = bytes / 8;
    // SAFETY-free sharing: the buffer is a Vec of atomics so both threads
    // may touch it without unsafe; relaxed ops compile to plain loads and
    // stores on every target we run on.
    let buf: Arc<Vec<AtomicU64>> = Arc::new((0..words).map(|_| AtomicU64::new(0)).collect());
    let producer_buf = Arc::clone(&buf);
    let mut producer = Partner::start(move |turn| {
        for w in producer_buf.iter() {
            w.store(turn / 2 + 1, Ordering::Relaxed);
        }
    });
    let mut checksum = 0u64;
    let per_generation = h.measure(|| {
        producer.round_trip();
        let mut sum = 0u64;
        for w in buf.iter() {
            sum = sum.wrapping_add(w.load(Ordering::Relaxed));
        }
        checksum = checksum.wrapping_add(sum);
    });
    std::hint::black_box(checksum);
    // Count consumer-side bytes read per generation.
    per_generation.bandwidth((words * 8) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmb_timing::Options;

    fn harness() -> Harness {
        Harness::new(Options::quick().with_repetitions(2))
    }

    #[test]
    fn pingpong_latency_is_positive_and_bounded() {
        let lat = measure_line_pingpong(&harness());
        let ns = lat.as_ns();
        assert!(ns > 0.0);
        // Coherence transfers are tens-to-hundreds of ns; single-core
        // boxes legitimately measure the scheduler instead (microseconds)
        // — cap generously above both regimes.
        assert!(ns < 10_000_000.0, "ping-pong {ns} ns");
    }

    #[test]
    fn pingpong_counter_protocol_terminates() {
        // Small run that would hang on any protocol bug.
        let _ = measure_line_pingpong(&harness());
    }

    #[test]
    fn cache_to_cache_bw_positive() {
        let bw = measure_cache_to_cache_bw(&harness(), 256 << 10);
        assert!(bw.mb_per_s > 0.0);
        assert!(bw.mb_per_s.is_finite());
    }

    #[test]
    fn line_is_cacheline_aligned() {
        assert!(std::mem::align_of::<Line>() >= 128);
        assert!(std::mem::size_of::<Line>() >= 128);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_bw_buffer_rejected() {
        measure_cache_to_cache_bw(&harness(), 128);
    }
}
