//! Process primitives: `fork`, `execve`, `waitpid`, `getpid`, `_exit`,
//! and pinning a thread to one CPU.
//!
//! These back the paper's §6.5 process-creation benchmarks: "Unix starts any
//! new process with a `fork` and/or `fork`/`execve`. Starting programs this
//! way should be fast and 'light'."

use crate::count::{note, SyscallClass};
use crate::error::{check_int, Errno, Result};
use std::ffi::CString;

/// A process id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pid(pub i32);

/// Which side of a `fork` we are on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkResult {
    /// In the parent; carries the child's pid.
    Parent(Pid),
    /// In the child.
    Child,
}

/// How a waited-for child terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitStatus {
    /// Normal exit with this code.
    Exited(i32),
    /// Killed by this signal number.
    Signaled(i32),
    /// Neither (stopped/continued); carries the raw wait status.
    Other(i32),
}

impl ExitStatus {
    /// True for a clean `exit(0)`.
    pub fn success(self) -> bool {
        self == ExitStatus::Exited(0)
    }
}

/// `fork(2)`.
///
/// # Safety
///
/// This is safe to *call*, but the child of a multi-threaded process may
/// only use async-signal-safe operations before `exec`/`_exit` (other
/// threads' locks — including the allocator's — may be held at fork time).
/// The benchmark children here confine themselves to `read`/`write`/
/// `execve`/`_exit`, which is exactly the allowed set.
#[inline]
pub fn fork() -> Result<ForkResult> {
    note(SyscallClass::Fork);
    // SAFETY: fork takes no pointers. The child-side restrictions above are
    // documented for callers; nothing here violates them.
    let pid = check_int(unsafe { libc::fork() })?;
    if pid == 0 {
        Ok(ForkResult::Child)
    } else {
        Ok(ForkResult::Parent(Pid(pid)))
    }
}

/// `getpid(2)` — the paper's example of a "trivial" (often user-cached)
/// system call, measured alongside the nontrivial `/dev/null` write.
#[inline]
pub fn getpid() -> Pid {
    note(SyscallClass::GetPid);
    // SAFETY: getpid has no failure modes and takes no pointers.
    Pid(unsafe { libc::getpid() })
}

/// `waitpid(2)` on a specific child, restarted on `EINTR`.
pub fn waitpid(pid: Pid) -> Result<ExitStatus> {
    note(SyscallClass::Wait);
    let mut status: i32 = 0;
    loop {
        // SAFETY: `status` is a valid out-pointer for the duration of the
        // call; flags 0 requests a blocking wait.
        let ret = unsafe { libc::waitpid(pid.0, &mut status, 0) };
        if ret < 0 {
            let err = Errno::last();
            if err.is_interrupted() {
                continue;
            }
            return Err(err);
        }
        break;
    }
    Ok(decode_wait_status(status))
}

/// Decodes a raw `wait` status word.
pub fn decode_wait_status(status: i32) -> ExitStatus {
    if libc::WIFEXITED(status) {
        ExitStatus::Exited(libc::WEXITSTATUS(status))
    } else if libc::WIFSIGNALED(status) {
        ExitStatus::Signaled(libc::WTERMSIG(status))
    } else {
        ExitStatus::Other(status)
    }
}

/// `_exit(2)` — exits the calling process *without* running atexit handlers
/// or flushing stdio; the only correct way for a benchmark fork-child to
/// leave.
pub fn exit_immediately(code: i32) -> ! {
    // SAFETY: _exit never returns and takes a plain integer.
    unsafe { libc::_exit(code) }
}

/// `execv(3)` with a NUL-safe argv. On success this never returns.
///
/// Returns the errno on failure so the child can `_exit` with a marker.
pub fn execv(path: &str, argv: &[&str]) -> Errno {
    note(SyscallClass::Exec);
    let cpath = match CString::new(path) {
        Ok(c) => c,
        Err(_) => return Errno(libc::EINVAL),
    };
    let cargs: Vec<CString> = match argv.iter().map(|a| CString::new(*a)).collect() {
        Ok(v) => v,
        Err(_) => return Errno(libc::EINVAL),
    };
    let mut ptrs: Vec<*const libc::c_char> = cargs.iter().map(|c| c.as_ptr()).collect();
    ptrs.push(std::ptr::null());
    // SAFETY: `cpath` and every argv entry are valid NUL-terminated strings
    // that outlive the call; the argv array is NULL-terminated as execv
    // requires.
    unsafe {
        libc::execv(cpath.as_ptr(), ptrs.as_ptr());
    }
    Errno::last()
}

/// Pins the calling thread to the CPU it is running on and returns that
/// CPU; threads it spawns afterwards inherit the pin.
///
/// A paired comparison of two loopback round trips pins its client and
/// both echo servers this way. Left free, the scheduler may wake one
/// server on the client's CPU and the other on a CPU busy with other work,
/// and under load that choice, not the code, sets the difference.
pub fn pin_to_current_cpu() -> Result<usize> {
    // SAFETY: sched_getcpu takes no arguments.
    let cpu = check_int(unsafe { libc::sched_getcpu() })? as usize;
    // A 1024-CPU `cpu_set_t`, the C library's default size.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64).ok_or(Errno(libc::EINVAL))? |= 1 << (cpu % 64);
    // SAFETY: `mask` outlives the call and is exactly the size passed.
    check_int(unsafe {
        libc::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr().cast())
    })?;
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_and_the_threads_it_spawns_stay_on_its_cpu() {
        let cpu = pin_to_current_cpu().unwrap();
        for _ in 0..3 {
            // A thread spawned now inherits the pin, so pinning it again
            // finds it on the same CPU.
            let spawned = std::thread::spawn(pin_to_current_cpu).join().unwrap();
            assert_eq!(spawned, Ok(cpu));
            assert_eq!(pin_to_current_cpu(), Ok(cpu));
        }
    }

    #[test]
    fn getpid_is_stable() {
        assert_eq!(getpid(), getpid());
        assert!(getpid().0 > 0);
    }

    #[test]
    fn fork_exit_wait_roundtrip() {
        match fork().unwrap() {
            ForkResult::Child => exit_immediately(42),
            ForkResult::Parent(pid) => {
                assert_eq!(waitpid(pid).unwrap(), ExitStatus::Exited(42));
            }
        }
    }

    #[test]
    fn fork_exec_true_succeeds() {
        match fork().unwrap() {
            ForkResult::Child => {
                execv("/bin/true", &["true"]);
                // Fallback path if /bin/true is missing.
                execv("/usr/bin/true", &["true"]);
                exit_immediately(127);
            }
            ForkResult::Parent(pid) => {
                let status = waitpid(pid).unwrap();
                assert!(status.success(), "child status {status:?}");
            }
        }
    }

    #[test]
    fn exec_of_missing_binary_reports_enoent() {
        match fork().unwrap() {
            ForkResult::Child => {
                let err = execv("/no/such/binary", &["x"]);
                exit_immediately(if err.raw() == libc::ENOENT { 99 } else { 98 });
            }
            ForkResult::Parent(pid) => {
                assert_eq!(waitpid(pid).unwrap(), ExitStatus::Exited(99));
            }
        }
    }

    #[test]
    fn decode_distinguishes_signal_deaths() {
        match fork().unwrap() {
            ForkResult::Child => {
                // SAFETY: killing ourselves with SIGKILL has no pointer
                // arguments and never returns control.
                unsafe {
                    libc::kill(libc::getpid(), libc::SIGKILL);
                }
                exit_immediately(0);
            }
            ForkResult::Parent(pid) => {
                assert_eq!(waitpid(pid).unwrap(), ExitStatus::Signaled(libc::SIGKILL));
            }
        }
    }

    #[test]
    fn wait_status_decoder_pure_cases() {
        // Synthetic status words: exit code 7 is (7 << 8), SIGTERM death is
        // the low 7 bits.
        assert_eq!(decode_wait_status(7 << 8), ExitStatus::Exited(7));
        assert_eq!(
            decode_wait_status(libc::SIGTERM),
            ExitStatus::Signaled(libc::SIGTERM)
        );
    }
}
