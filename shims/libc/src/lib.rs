//! Offline stand-in for the `libc` crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! crate declares exactly the POSIX surface lmbench-rs uses: raw syscall
//! wrappers, the constants they take, and the handful of C types involved.
//! Layouts and constant values target `x86_64-unknown-linux-gnu` (glibc),
//! the platform the suite is developed and tested on; other Linux targets
//! share these values for everything declared here.
#![allow(non_camel_case_types)]

// ---------------------------------------------------------------------------
// C type aliases
// ---------------------------------------------------------------------------

pub type c_char = i8;
pub type c_short = i16;
pub type c_int = i32;
pub type c_long = i64;
pub type c_uint = u32;
pub type c_ulong = u64;
pub type c_void = core::ffi::c_void;
pub type size_t = usize;
pub type ssize_t = isize;
pub type off_t = i64;
pub type mode_t = u32;
pub type pid_t = i32;
pub type nfds_t = c_ulong;
pub type socklen_t = u32;
pub type sighandler_t = usize;

// ---------------------------------------------------------------------------
// errno values (asm-generic, shared by every Linux architecture)
// ---------------------------------------------------------------------------

pub const EPERM: c_int = 1;
pub const ENOENT: c_int = 2;
pub const EINTR: c_int = 4;
pub const EIO: c_int = 5;
pub const EBADF: c_int = 9;
pub const EACCES: c_int = 13;
pub const ENODEV: c_int = 19;
pub const EINVAL: c_int = 22;
pub const ENOSYS: c_int = 38;
pub const EOPNOTSUPP: c_int = 95;

// ---------------------------------------------------------------------------
// open(2) / lseek(2)
// ---------------------------------------------------------------------------

pub const O_RDONLY: c_int = 0;
pub const O_WRONLY: c_int = 1;
pub const O_CREAT: c_int = 0o100;
pub const O_TRUNC: c_int = 0o1000;
pub const SEEK_SET: c_int = 0;

// ---------------------------------------------------------------------------
// mmap(2)
// ---------------------------------------------------------------------------

pub const PROT_READ: c_int = 1;
pub const MAP_SHARED: c_int = 1;
pub const MAP_FAILED: *mut c_void = !0 as *mut c_void;

// ---------------------------------------------------------------------------
// poll(2)
// ---------------------------------------------------------------------------

pub const POLLIN: c_short = 1;

#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct pollfd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

// ---------------------------------------------------------------------------
// sockets
// ---------------------------------------------------------------------------

pub const SOL_SOCKET: c_int = 1;
pub const SO_SNDBUF: c_int = 7;
pub const SO_RCVBUF: c_int = 8;

// ---------------------------------------------------------------------------
// signals
// ---------------------------------------------------------------------------

pub const SIGINT: c_int = 2;
pub const SIGKILL: c_int = 9;
pub const SIGUSR1: c_int = 10;
pub const SIGUSR2: c_int = 12;
pub const SIGTERM: c_int = 15;
pub const SIG_DFL: sighandler_t = 0;

// wait options
pub const WNOHANG: c_int = 1;

/// glibc's userspace signal set: 1024 bits.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct sigset_t {
    __val: [c_ulong; 16],
}

/// glibc's `struct sigaction` for x86_64: handler union first, then the
/// mask, flags and the (unused here) restorer pointer.
#[repr(C)]
pub struct sigaction {
    pub sa_sigaction: sighandler_t,
    pub sa_mask: sigset_t,
    pub sa_flags: c_int,
    pub sa_restorer: Option<extern "C" fn()>,
}

// ---------------------------------------------------------------------------
// getrusage(2)
// ---------------------------------------------------------------------------

pub const RUSAGE_SELF: c_int = 0;
/// Linux-specific: usage of the calling thread only.
pub const RUSAGE_THREAD: c_int = 1;

#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct timeval {
    pub tv_sec: c_long,
    pub tv_usec: c_long,
}

/// glibc's `struct rusage` for x86_64: the two timevals, then sixteen
/// longs (of which Linux fills maxrss, the fault counters and the context
/// switch counters; the rest read zero).
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct rusage {
    pub ru_utime: timeval,
    pub ru_stime: timeval,
    pub ru_maxrss: c_long,
    pub ru_ixrss: c_long,
    pub ru_idrss: c_long,
    pub ru_isrss: c_long,
    pub ru_minflt: c_long,
    pub ru_majflt: c_long,
    pub ru_nswap: c_long,
    pub ru_inblock: c_long,
    pub ru_oublock: c_long,
    pub ru_msgsnd: c_long,
    pub ru_msgrcv: c_long,
    pub ru_nsignals: c_long,
    pub ru_nvcsw: c_long,
    pub ru_nivcsw: c_long,
}

// ---------------------------------------------------------------------------
// perf_event_open(2)
// ---------------------------------------------------------------------------

/// x86_64 syscall number for `perf_event_open`; glibc exposes no wrapper,
/// so callers go through `syscall(SYS_perf_event_open, ...)`. (Named as
/// the real libc crate names it, hence the style exception.)
#[allow(non_upper_case_globals)]
pub const SYS_perf_event_open: c_long = 298;

// perf_event_attr.type_
pub const PERF_TYPE_HARDWARE: u32 = 0;
pub const PERF_TYPE_SOFTWARE: u32 = 1;
pub const PERF_TYPE_HW_CACHE: u32 = 3;

// PERF_TYPE_HARDWARE configs
pub const PERF_COUNT_HW_CPU_CYCLES: u64 = 0;
pub const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
pub const PERF_COUNT_HW_CACHE_MISSES: u64 = 3;
pub const PERF_COUNT_HW_BRANCH_MISSES: u64 = 5;

// PERF_TYPE_SOFTWARE configs (used by probes where no PMU exists)
pub const PERF_COUNT_SW_TASK_CLOCK: u64 = 1;

// PERF_TYPE_HW_CACHE config is `id | (op << 8) | (result << 16)`.
pub const PERF_COUNT_HW_CACHE_DTLB: u64 = 3;
pub const PERF_COUNT_HW_CACHE_OP_READ: u64 = 0;
pub const PERF_COUNT_HW_CACHE_RESULT_MISS: u64 = 1;

// perf_event_attr.read_format bits
pub const PERF_FORMAT_TOTAL_TIME_ENABLED: u64 = 1;
pub const PERF_FORMAT_TOTAL_TIME_RUNNING: u64 = 2;
pub const PERF_FORMAT_GROUP: u64 = 8;

// ioctl requests on perf fds
pub const PERF_EVENT_IOC_ENABLE: c_ulong = 0x2400;
pub const PERF_EVENT_IOC_DISABLE: c_ulong = 0x2401;
pub const PERF_EVENT_IOC_RESET: c_ulong = 0x2403;
/// ioctl arg: apply the request to the whole group, not just one fd.
pub const PERF_IOC_FLAG_GROUP: c_ulong = 1;

// perf_event_attr flag bits (the kernel's C bitfield, as a plain word)
pub const PERF_ATTR_FLAG_DISABLED: u64 = 1 << 0;
pub const PERF_ATTR_FLAG_EXCLUDE_KERNEL: u64 = 1 << 5;
pub const PERF_ATTR_FLAG_EXCLUDE_HV: u64 = 1 << 6;

/// `struct perf_event_attr`, size 128 (`PERF_ATTR_SIZE_VER7`).
///
/// The kernel's bitfield block (`disabled`, `exclude_kernel`, ...) is a
/// single little-endian u64 here (`flags`); use the `PERF_ATTR_FLAG_*`
/// bits. Later kernel versions append fields — passing the VER7 size is
/// valid on every kernel that has the events we ask for.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct perf_event_attr {
    pub type_: u32,
    pub size: u32,
    pub config: u64,
    pub sample_period: u64,
    pub sample_type: u64,
    pub read_format: u64,
    pub flags: u64,
    pub wakeup_events: u32,
    pub bp_type: u32,
    pub config1: u64,
    pub config2: u64,
    pub branch_sample_type: u64,
    pub sample_regs_user: u64,
    pub sample_stack_user: u32,
    pub clockid: i32,
    pub sample_regs_intr: u64,
    pub aux_watermark: u32,
    pub sample_max_stack: u16,
    pub __reserved_2: u16,
    pub aux_sample_size: u32,
    pub __reserved_3: u32,
    pub sig_data: u64,
}

pub const PERF_ATTR_SIZE_VER7: u32 = 128;

// ---------------------------------------------------------------------------
// wait(2) status decoding (glibc macro equivalents)
// ---------------------------------------------------------------------------

#[allow(non_snake_case)]
#[must_use]
pub fn WIFEXITED(status: c_int) -> bool {
    (status & 0x7f) == 0
}

#[allow(non_snake_case)]
#[must_use]
pub fn WEXITSTATUS(status: c_int) -> c_int {
    (status >> 8) & 0xff
}

#[allow(non_snake_case)]
#[must_use]
pub fn WIFSIGNALED(status: c_int) -> bool {
    ((status & 0x7f) + 1) >> 1 > 0
}

#[allow(non_snake_case)]
#[must_use]
pub fn WTERMSIG(status: c_int) -> c_int {
    status & 0x7f
}

// ---------------------------------------------------------------------------
// function declarations (resolved by the system C library at link time)
// ---------------------------------------------------------------------------

extern "C" {
    pub fn open(path: *const c_char, oflag: c_int, ...) -> c_int;
    pub fn close(fd: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    pub fn write(fd: c_int, buf: *const c_void, count: size_t) -> ssize_t;
    pub fn lseek(fd: c_int, offset: off_t, whence: c_int) -> off_t;
    pub fn pipe(fds: *mut c_int) -> c_int;
    pub fn mkfifo(path: *const c_char, mode: mode_t) -> c_int;
    pub fn mmap(
        addr: *mut c_void,
        len: size_t,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: off_t,
    ) -> *mut c_void;
    pub fn munmap(addr: *mut c_void, len: size_t) -> c_int;
    pub fn poll(fds: *mut pollfd, nfds: nfds_t, timeout: c_int) -> c_int;
    pub fn fork() -> pid_t;
    pub fn getpid() -> pid_t;
    pub fn execv(prog: *const c_char, argv: *const *const c_char) -> c_int;
    pub fn waitpid(pid: pid_t, status: *mut c_int, options: c_int) -> pid_t;
    pub fn _exit(status: c_int) -> !;
    pub fn kill(pid: pid_t, sig: c_int) -> c_int;
    pub fn raise(sig: c_int) -> c_int;
    pub fn sigaction(signum: c_int, act: *const sigaction, oldact: *mut sigaction) -> c_int;
    pub fn sigemptyset(set: *mut sigset_t) -> c_int;
    pub fn getrusage(who: c_int, usage: *mut rusage) -> c_int;
    pub fn sched_getcpu() -> c_int;
    pub fn sched_setaffinity(pid: pid_t, cpusetsize: size_t, mask: *const c_void) -> c_int;
    pub fn getsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *mut c_void,
        optlen: *mut socklen_t,
    ) -> c_int;
    pub fn setsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: socklen_t,
    ) -> c_int;
    pub fn syscall(num: c_long, ...) -> c_long;
    pub fn ioctl(fd: c_int, request: c_ulong, ...) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn getpid_is_live() {
        // SAFETY: getpid takes no pointers and cannot fail.
        let pid = unsafe { getpid() };
        assert!(pid > 0);
        assert_eq!(pid, std::process::id() as pid_t);
    }

    #[test]
    fn wait_macros_decode_exit_status() {
        // Raw wait status 0x1700 = clean exit(23).
        let status = 23 << 8;
        assert!(WIFEXITED(status));
        assert!(!WIFSIGNALED(status));
        assert_eq!(WEXITSTATUS(status), 23);
        // Raw status 9 = killed by SIGKILL.
        assert!(WIFSIGNALED(SIGKILL));
        assert_eq!(WTERMSIG(SIGKILL), SIGKILL);
    }

    #[test]
    fn open_write_devnull_roundtrip() {
        let path = std::ffi::CString::new("/dev/null").unwrap();
        // SAFETY: valid NUL-terminated path; fd checked before use.
        let fd = unsafe { open(path.as_ptr(), O_WRONLY) };
        assert!(fd >= 0);
        let buf = [0u8; 4];
        // SAFETY: buf outlives the call and len matches.
        let n = unsafe { write(fd, buf.as_ptr().cast(), buf.len()) };
        assert_eq!(n, 4);
        // SAFETY: fd was returned by open above.
        assert_eq!(unsafe { close(fd) }, 0);
    }

    #[test]
    fn getrusage_reports_a_live_process() {
        // SAFETY: zeroed rusage is a valid out-parameter.
        let usage = unsafe {
            let mut usage: rusage = std::mem::zeroed();
            assert_eq!(getrusage(RUSAGE_SELF, &mut usage), 0);
            usage
        };
        // A running test process has touched memory and been scheduled.
        assert!(usage.ru_maxrss > 0, "maxrss {}", usage.ru_maxrss);
        assert!(usage.ru_minflt > 0, "minflt {}", usage.ru_minflt);
    }

    #[test]
    fn perf_event_attr_layout_matches_ver7() {
        // The kernel validates `size` against the struct it copies in; a
        // layout drift here would surface as E2BIG at open time.
        assert_eq!(
            std::mem::size_of::<perf_event_attr>(),
            PERF_ATTR_SIZE_VER7 as usize
        );
        assert_eq!(std::mem::align_of::<perf_event_attr>(), 8);
    }

    #[test]
    fn sigaction_layout_matches_glibc() {
        // If the struct layout drifted, installing a handler would corrupt
        // the stack or silently fail; a full install/restore round trip on
        // a spare signal exercises the real ABI.
        // SAFETY: zeroed sigaction is valid input; SIG_DFL disposition.
        unsafe {
            let mut act: sigaction = std::mem::zeroed();
            sigemptyset(&mut act.sa_mask);
            act.sa_sigaction = SIG_DFL;
            let mut old: sigaction = std::mem::zeroed();
            assert_eq!(sigaction(SIGUSR2, &act, &mut old), 0);
        }
    }
}
