//! # lmbench-rs
//!
//! A from-scratch Rust reproduction of **lmbench: Portable Tools for
//! Performance Analysis** (Larry McVoy & Carl Staelin, USENIX Annual
//! Technical Conference, 1996) — the micro-benchmark suite that measures
//! "a system's ability to transfer data between processor, cache, memory,
//! network, and disk".
//!
//! This facade re-exports the workspace's crates:
//!
//! | Module | Paper role |
//! |---|---|
//! | [`timing`] | §3 methodology: clock probing, loop calibration, min-of-N |
//! | [`sys`] | zero-overhead syscall wrappers the benchmarks time |
//! | [`mem`] | §5.1 memory bandwidth, §6.1–6.2 latency, Table 6 analysis |
//! | [`proc`] | §6.3–6.6 syscalls, signals, process creation, ctx switch |
//! | [`ipc`] | §5.2/§6.7 pipes, TCP, UDP, connect |
//! | [`rpc`] | Sun-RPC substrate for the Tables 12–13 layering experiment |
//! | [`fs`] | §5.3/§6.8 file reread, mmap, create/delete, plus `lmdd` |
//! | [`disk`] | §6.9 simulated SCSI disk and overhead experiment |
//! | [`net`] | link models for the remote Tables 4/14 |
//! | [`results`] | results database, paper dataset, tables, plots |
//! | [`trace`] | structured tracing: spans, events, JSONL artifacts |
//! | [`core`] | suite orchestration and report generation |
//!
//! # Examples
//!
//! ```
//! use lmbench::timing::{Harness, Options};
//!
//! // Measure one real kernel entry the way the paper does (§6.3).
//! let h = Harness::new(Options::quick());
//! let us = lmbench::proc::syscall::measure_write_devnull(&h).as_micros();
//! assert!(us > 0.0);
//! ```

pub use lmb_core as core;
pub use lmb_disk as disk;
pub use lmb_fs as fs;
pub use lmb_ipc as ipc;
pub use lmb_mem as mem;
pub use lmb_net as net;
pub use lmb_proc as proc;
pub use lmb_results as results;
pub use lmb_rpc as rpc;
pub use lmb_sys as sys;
pub use lmb_timing as timing;
pub use lmb_trace as trace;

/// Suite version, matching the workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_every_subsystem() {
        // Touch one symbol per crate so a broken re-export fails to build.
        let _ = crate::timing::Options::quick();
        let _ = crate::sys::getpid();
        let _ = crate::mem::lat::default_strides();
        let _ = crate::proc::ctx::CtxOptions::quick();
        let _ = crate::ipc::WORD;
        let _ = crate::rpc::ECHO_PROGRAM;
        let _ = crate::fs::lmdd::SeekMode::Sequential;
        let _ = crate::disk::SimDisk::classic_1995();
        let _ = crate::net::standard_links();
        let _ = crate::results::dataset::systems();
        let _ = crate::trace::enabled();
        let _ = crate::core::SuiteConfig::quick();
        assert!(!crate::VERSION.is_empty());
    }
}
