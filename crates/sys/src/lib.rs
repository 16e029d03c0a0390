//! Zero-overhead, `Result`-based wrappers over the raw Unix syscalls the
//! lmbench-rs suite exercises.
//!
//! The benchmarks in the paper are deliberately thin shells around system
//! interfaces — `write(2)` to `/dev/null`, `fork(2)`, `pipe(2)`, signal
//! delivery, `mmap(2)` — so any wrapper fat would show up *in the measured
//! numbers*. Every hot-path function here is `#[inline]`, performs no
//! allocation, and returns [`Errno`] errors instead of panicking.
//!
//! All `unsafe` in the workspace outside of the memory kernels lives in this
//! crate, each block carrying a `// SAFETY:` justification per the kernel
//! Rust coding guidelines.

pub mod count;
pub mod error;
pub mod fd;
pub mod mem;
pub mod perf;
pub mod pipe;
pub mod process;
pub mod rusage;
pub mod signal;
pub mod sock;

pub use count::{snapshot as syscall_snapshot, SyscallClass, SyscallSnapshot};
pub use error::{Errno, Result};
pub use fd::Fd;
pub use mem::FileMapping;
pub use perf::{
    perf_event_paranoid, probe_counter, CounterKind, CounterValues, PerfError, PerfGroup,
};
pub use pipe::Pipe;
pub use process::{fork, getpid, pin_to_current_cpu, waitpid, ExitStatus, ForkResult, Pid};
pub use rusage::{RusageDelta, RusageSnapshot};
pub use signal::{install_handler, raise, Signal};
