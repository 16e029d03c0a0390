//! Signal installation and delivery (`sigaction`, `kill`, `raise`).
//!
//! Backs the paper's §6.4: "lmbench measures both signal installation and
//! signal dispatching in two separate loops, within the context of one
//! process. It measures signal handling by installing a signal handler and
//! then repeatedly sending itself the signal."

use crate::count::{note, SyscallClass};
use crate::error::{check_int, Result};
use crate::process::Pid;

/// The signals the suite uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Signal {
    /// `SIGUSR1` — the benchmark's self-signal.
    Usr1,
    /// `SIGUSR2` — secondary, for install-cost alternation.
    Usr2,
    /// `SIGINT` — interactive interrupt; the results daemon treats it as
    /// a graceful-shutdown request.
    Int,
    /// `SIGTERM` — polite termination; same graceful-shutdown path.
    Term,
}

impl Signal {
    /// The raw signal number.
    pub fn raw(self) -> i32 {
        match self {
            Signal::Usr1 => libc::SIGUSR1,
            Signal::Usr2 => libc::SIGUSR2,
            Signal::Int => libc::SIGINT,
            Signal::Term => libc::SIGTERM,
        }
    }
}

/// A C-ABI signal handler.
pub type Handler = extern "C" fn(i32);

/// Installs `handler` for `sig` via `sigaction(2)` with an empty mask and no
/// flags — the exact operation whose cost Table 8's "sigaction" column
/// reports.
///
/// # Safety contract (upheld internally)
///
/// The handler must be async-signal-safe; the benchmark handlers only
/// increment an atomic.
pub fn install_handler(sig: Signal, handler: Handler) -> Result<()> {
    note(SyscallClass::Sigaction);
    // SAFETY: zero-initialized sigaction is a valid starting state; we then
    // set the handler pointer and an emptied mask before passing it to the
    // kernel. `sigemptyset` initializes the mask field it is given.
    unsafe {
        let mut action: libc::sigaction = std::mem::zeroed();
        libc::sigemptyset(&mut action.sa_mask);
        action.sa_sigaction = handler as usize;
        action.sa_flags = 0;
        check_int(libc::sigaction(sig.raw(), &action, std::ptr::null_mut()))?;
    }
    Ok(())
}

/// Resets `sig` to its default disposition.
pub fn reset_default(sig: Signal) -> Result<()> {
    note(SyscallClass::Sigaction);
    // SAFETY: as in `install_handler`, with SIG_DFL as the handler.
    unsafe {
        let mut action: libc::sigaction = std::mem::zeroed();
        libc::sigemptyset(&mut action.sa_mask);
        action.sa_sigaction = libc::SIG_DFL;
        check_int(libc::sigaction(sig.raw(), &action, std::ptr::null_mut()))?;
    }
    Ok(())
}

/// Sends `sig` to the calling process (`kill(getpid(), sig)`), which is how
/// the dispatch benchmark generates its signals.
#[inline]
pub fn raise(sig: Signal) -> Result<()> {
    note(SyscallClass::Kill);
    // SAFETY: raise takes a plain signal number.
    check_int(unsafe { libc::raise(sig.raw()) })?;
    Ok(())
}

/// Sends `sig` to another process.
#[inline]
pub fn kill(pid: Pid, sig: Signal) -> Result<()> {
    note(SyscallClass::Kill);
    // SAFETY: kill takes plain integers.
    check_int(unsafe { libc::kill(pid.0, sig.raw()) })?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static HITS: AtomicU64 = AtomicU64::new(0);
    static USR2_HITS: AtomicU64 = AtomicU64::new(0);

    extern "C" fn count_hit(_sig: i32) {
        HITS.fetch_add(1, Ordering::Relaxed);
    }

    extern "C" fn count_usr2(_sig: i32) {
        USR2_HITS.fetch_add(1, Ordering::Relaxed);
    }

    #[test]
    fn install_raise_dispatch_roundtrip() {
        install_handler(Signal::Usr1, count_hit).unwrap();
        let before = HITS.load(Ordering::Relaxed);
        for _ in 0..10 {
            raise(Signal::Usr1).unwrap();
        }
        let after = HITS.load(Ordering::Relaxed);
        assert!(after >= before + 10, "handler ran {} times", after - before);
        reset_default(Signal::Usr1).unwrap();
    }

    #[test]
    fn kill_self_equals_raise() {
        install_handler(Signal::Usr2, count_usr2).unwrap();
        kill(crate::process::getpid(), Signal::Usr2).unwrap();
        // kill() signals the process, not this thread: while other test
        // threads leave SIGUSR2 unblocked, the kernel may run the handler
        // on one of them after kill returns. Wait for that delivery before
        // restoring the default action, which would kill the process.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while USR2_HITS.load(Ordering::Relaxed) == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(USR2_HITS.load(Ordering::Relaxed), 1);
        reset_default(Signal::Usr2).unwrap();
    }

    #[test]
    fn signal_numbers_are_distinct() {
        assert_ne!(Signal::Usr1.raw(), Signal::Usr2.raw());
    }
}
