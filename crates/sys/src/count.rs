//! Process-global syscall counters at the wrapper layer.
//!
//! Every wrapper in this crate notes which syscall class it exercised, so
//! the suite engine can report how many kernel entries a benchmark made —
//! the trace's answer to "what did this number actually exercise?". The
//! cost is one uncontended relaxed `fetch_add` per wrapper call (~1 ns
//! against syscalls that cost ≥100 ns), which keeps the wrappers within
//! their zero-overhead contract.
//!
//! The counters are process-global and monotonic: take a [`snapshot`]
//! before a region and [`SyscallSnapshot::delta`] after it. The engine
//! measures one benchmark at a time, so a delta around an attempt counts
//! that attempt's calls (plus any from a thread a timed-out attempt
//! leaked, which its records flag as `contended`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The syscall classes the wrappers distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum SyscallClass {
    /// `read(2)`.
    Read,
    /// `write(2)`.
    Write,
    /// `open(2)`.
    Open,
    /// `lseek(2)`.
    Seek,
    /// `pipe(2)`.
    Pipe,
    /// `fork(2)`.
    Fork,
    /// `execv(3)` and friends.
    Exec,
    /// `waitpid(2)`.
    Wait,
    /// `getpid(2)`.
    GetPid,
    /// `sigaction(2)`.
    Sigaction,
    /// `raise(3)` / `kill(2)`.
    Kill,
    /// `mmap(2)` / `munmap(2)`.
    Mmap,
    /// `setsockopt(2)` / `getsockopt(2)`.
    Sockopt,
}

impl SyscallClass {
    /// Every class, in counter order.
    pub const ALL: [SyscallClass; 13] = [
        SyscallClass::Read,
        SyscallClass::Write,
        SyscallClass::Open,
        SyscallClass::Seek,
        SyscallClass::Pipe,
        SyscallClass::Fork,
        SyscallClass::Exec,
        SyscallClass::Wait,
        SyscallClass::GetPid,
        SyscallClass::Sigaction,
        SyscallClass::Kill,
        SyscallClass::Mmap,
        SyscallClass::Sockopt,
    ];

    /// Stable name used in traces and reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SyscallClass::Read => "read",
            SyscallClass::Write => "write",
            SyscallClass::Open => "open",
            SyscallClass::Seek => "seek",
            SyscallClass::Pipe => "pipe",
            SyscallClass::Fork => "fork",
            SyscallClass::Exec => "exec",
            SyscallClass::Wait => "wait",
            SyscallClass::GetPid => "getpid",
            SyscallClass::Sigaction => "sigaction",
            SyscallClass::Kill => "kill",
            SyscallClass::Mmap => "mmap",
            SyscallClass::Sockopt => "sockopt",
        }
    }
}

const CLASSES: usize = SyscallClass::ALL.len();

#[allow(clippy::declare_interior_mutable_const)] // inline const used as array initializer only
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTS: [AtomicU64; CLASSES] = [ZERO; CLASSES];

/// Notes one syscall of the given class. Called by the wrappers; callers
/// outside this crate normally only read [`snapshot`]s.
#[inline]
pub fn note(class: SyscallClass) {
    COUNTS[class as usize].fetch_add(1, Ordering::Relaxed);
}

/// A point-in-time copy of every counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyscallSnapshot {
    counts: [u64; CLASSES],
}

/// Reads every counter.
#[must_use]
pub fn snapshot() -> SyscallSnapshot {
    let mut counts = [0u64; CLASSES];
    for (slot, counter) in counts.iter_mut().zip(COUNTS.iter()) {
        *slot = counter.load(Ordering::Relaxed);
    }
    SyscallSnapshot { counts }
}

impl SyscallSnapshot {
    /// Calls of one class seen so far.
    #[must_use]
    pub fn get(&self, class: SyscallClass) -> u64 {
        self.counts[class as usize]
    }

    /// Per-class growth from `self` to `later`, omitting zero rows.
    /// Saturating, so a snapshot pair taken out of order reads as empty
    /// rather than garbage.
    #[must_use]
    pub fn delta(&self, later: &SyscallSnapshot) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for class in SyscallClass::ALL {
            let grew = later.get(class).saturating_sub(self.get(class));
            if grew > 0 {
                out.insert(class.name().to_string(), grew);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<&str> =
            SyscallClass::ALL.iter().map(|c| c.name()).collect();
        assert_eq!(names.len(), SyscallClass::ALL.len());
    }

    #[test]
    fn note_grows_exactly_one_class() {
        let before = snapshot();
        for _ in 0..5 {
            note(SyscallClass::Seek);
        }
        let after = snapshot();
        let delta = before.delta(&after);
        // Other tests run concurrently and bump I/O classes; seek is quiet
        // enough to assert a lower bound on.
        assert!(delta.get("seek").copied().unwrap_or(0) >= 5, "{delta:?}");
    }

    #[test]
    fn real_wrapper_calls_are_counted() {
        let before = snapshot();
        let fd = crate::Fd::open_dev_null().expect("open /dev/null");
        fd.write_all(b"counted").expect("write");
        let after = snapshot();
        let delta = before.delta(&after);
        assert!(delta.get("open").copied().unwrap_or(0) >= 1, "{delta:?}");
        assert!(delta.get("write").copied().unwrap_or(0) >= 1, "{delta:?}");
    }

    #[test]
    fn out_of_order_snapshots_read_empty() {
        let before = snapshot();
        note(SyscallClass::Pipe);
        let after = snapshot();
        assert!(after.delta(&before).is_empty());
    }
}
