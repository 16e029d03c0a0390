//! Resource-usage snapshots around a benchmark attempt.
//!
//! The paper's §3.4 blames run-to-run variability on "cache conflicts,
//! daemons and scheduler noise" but could only infer the disturbance from
//! the numbers. `getrusage(2)` makes it observable directly: a snapshot
//! before and after an attempt yields the involuntary context switches
//! (the scheduler preempted the benchmark), minor/major page faults (the
//! benchmark fought for memory) and peak RSS that the attempt actually
//! experienced. The engine archives the delta next to each result.

/// A point-in-time `getrusage` reading for one scope (thread or process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RusageSnapshot {
    /// User CPU time, microseconds.
    pub utime_us: u64,
    /// System CPU time, microseconds.
    pub stime_us: u64,
    /// Peak resident set size, kilobytes (process-wide even for thread
    /// scope — Linux tracks the high-water mark per process).
    pub maxrss_kb: u64,
    /// Minor page faults (resolved without I/O).
    pub minor_faults: u64,
    /// Major page faults (required I/O).
    pub major_faults: u64,
    /// Voluntary context switches (blocked on I/O, pipes, futexes).
    pub vol_ctx_switches: u64,
    /// Involuntary context switches (preempted by the scheduler — the
    /// paper's "benchmark disturbed by other activity", made countable).
    pub invol_ctx_switches: u64,
}

impl RusageSnapshot {
    fn capture(who: libc::c_int) -> RusageSnapshot {
        // SAFETY: zeroed rusage is a valid out-parameter; on error the
        // zeros stand (degrades to an all-zero snapshot, never UB).
        let usage = unsafe {
            let mut usage: libc::rusage = std::mem::zeroed();
            let _ = libc::getrusage(who, &mut usage);
            usage
        };
        let us =
            |tv: libc::timeval| (tv.tv_sec.max(0) as u64) * 1_000_000 + tv.tv_usec.max(0) as u64;
        let n = |v: libc::c_long| v.max(0) as u64;
        RusageSnapshot {
            utime_us: us(usage.ru_utime),
            stime_us: us(usage.ru_stime),
            maxrss_kb: n(usage.ru_maxrss),
            minor_faults: n(usage.ru_minflt),
            major_faults: n(usage.ru_majflt),
            vol_ctx_switches: n(usage.ru_nvcsw),
            invol_ctx_switches: n(usage.ru_nivcsw),
        }
    }

    /// Usage of the calling thread (Linux `RUSAGE_THREAD`): exact even
    /// when other threads of the process are running.
    #[must_use]
    pub fn thread() -> RusageSnapshot {
        RusageSnapshot::capture(libc::RUSAGE_THREAD)
    }

    /// Usage of the whole process.
    #[must_use]
    pub fn process() -> RusageSnapshot {
        RusageSnapshot::capture(libc::RUSAGE_SELF)
    }

    /// The change from `self` (earlier) to `later`. Counters saturate at
    /// zero rather than wrapping if the kernel ever reports a regression;
    /// `maxrss_kb` carries the later high-water mark, not a difference.
    #[must_use]
    pub fn delta(&self, later: &RusageSnapshot) -> RusageDelta {
        let d = |a: u64, b: u64| b.saturating_sub(a);
        RusageDelta {
            utime_us: d(self.utime_us, later.utime_us),
            stime_us: d(self.stime_us, later.stime_us),
            maxrss_kb: later.maxrss_kb,
            minor_faults: d(self.minor_faults, later.minor_faults),
            major_faults: d(self.major_faults, later.major_faults),
            vol_ctx_switches: d(self.vol_ctx_switches, later.vol_ctx_switches),
            invol_ctx_switches: d(self.invol_ctx_switches, later.invol_ctx_switches),
        }
    }
}

/// What one benchmark attempt cost, as the kernel accounted it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RusageDelta {
    /// User CPU time spent, microseconds.
    pub utime_us: u64,
    /// System CPU time spent, microseconds.
    pub stime_us: u64,
    /// Peak resident set size at the end of the attempt, kilobytes.
    pub maxrss_kb: u64,
    /// Minor page faults taken.
    pub minor_faults: u64,
    /// Major page faults taken.
    pub major_faults: u64,
    /// Voluntary context switches.
    pub vol_ctx_switches: u64,
    /// Involuntary context switches (scheduler preemptions).
    pub invol_ctx_switches: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_snapshot_reports_live_numbers() {
        let s = RusageSnapshot::process();
        assert!(s.maxrss_kb > 0, "a running process has a resident set");
        assert!(s.minor_faults > 0, "a running process has faulted pages");
    }

    #[test]
    fn thread_scope_counts_this_threads_work() {
        let before = RusageSnapshot::thread();
        // Burn a little user CPU and force at least one voluntary switch.
        let mut acc = 0u64;
        for i in 0..5_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let after = RusageSnapshot::thread();
        let delta = before.delta(&after);
        assert!(
            delta.utime_us > 0 || delta.stime_us > 0,
            "CPU burn invisible: {delta:?}"
        );
        assert!(
            delta.vol_ctx_switches >= 1,
            "sleep produced no voluntary switch: {delta:?}"
        );
    }

    #[test]
    fn delta_saturates_instead_of_wrapping() {
        let hi = RusageSnapshot {
            minor_faults: 10,
            ..RusageSnapshot::default()
        };
        let lo = RusageSnapshot::default();
        assert_eq!(hi.delta(&lo).minor_faults, 0);
        let d = lo.delta(&hi);
        assert_eq!(d.minor_faults, 10);
    }

    #[test]
    fn touching_fresh_pages_shows_up_as_minor_faults() {
        let before = RusageSnapshot::thread();
        // 4 MB of fresh pages, written so they must actually be mapped in.
        let mut buf = vec![0u8; 4 << 20];
        for page in buf.chunks_mut(4096) {
            page[0] = 1;
        }
        std::hint::black_box(&buf);
        let delta = before.delta(&RusageSnapshot::thread());
        assert!(
            delta.minor_faults >= 100,
            "expected hundreds of faults, saw {}",
            delta.minor_faults
        );
    }
}
