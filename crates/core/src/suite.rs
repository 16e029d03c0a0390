//! Running the full suite and filling a [`SuiteRun`].
//!
//! [`run_suite`] delegates to the execution engine ([`crate::engine`]):
//! every registered benchmark runs through the same fault-isolated,
//! timeout-guarded path, and the remote tables (4 and 14) are composed by
//! the registry's `derived` model entries instead of inline glue here.
//! The `measure_*` functions below remain the suite's measurement
//! vocabulary, called by the registry runners and usable standalone.

use crate::config::SuiteConfig;
use crate::engine::{Engine, EngineOutcome};
use crate::error::SuiteError;
use crate::registry::Registry;
use lmb_results::*;
use lmb_timing::Harness;

/// Runs every benchmark in the suite at the configured scale and returns
/// the host's (possibly partial) result set. Individual benchmark
/// failures, timeouts and skips cost their own rows only; use
/// [`run_suite_with_report`] to see per-benchmark outcomes.
pub fn run_suite(config: &SuiteConfig) -> Result<SuiteRun, SuiteError> {
    run_suite_with_report(config).map(|outcome| outcome.run)
}

/// Like [`run_suite`], also returning the per-benchmark
/// [`lmb_results::RunReport`] with statuses and measurement provenance.
pub fn run_suite_with_report(config: &SuiteConfig) -> Result<EngineOutcome, SuiteError> {
    Ok(Engine::new(Registry::standard().without_ablations(), *config)?.execute())
}

/// Table 2 row for this host.
pub fn measure_mem_bw(h: &Harness, config: &SuiteConfig, name: &str) -> MemBwRow {
    let r = lmb_mem::bw::measure_all(h, config.copy_bytes);
    MemBwRow {
        system: name.into(),
        bcopy_unrolled: r.bcopy_unrolled.mb_per_s,
        bcopy_libc: r.bcopy_libc.mb_per_s,
        read: r.read.mb_per_s,
        write: r.write.mb_per_s,
    }
}

/// Table 3 row.
pub fn measure_ipc_bw(h: &Harness, config: &SuiteConfig, name: &str) -> IpcBwRow {
    let total = config.stream_total;
    IpcBwRow {
        system: name.into(),
        bcopy_libc: lmb_mem::bw::measure_bcopy_libc(h, config.copy_bytes).mb_per_s,
        pipe: lmb_ipc::measure_pipe_bw(h, total, lmb_ipc::PIPE_CHUNK).mb_per_s,
        tcp: Some(
            lmb_ipc::measure_tcp_bw(h, total, lmb_ipc::TCP_CHUNK, lmb_ipc::TCP_SOCKBUF).mb_per_s,
        ),
    }
}

/// Table 5 row.
pub fn measure_file_bw(h: &Harness, config: &SuiteConfig, name: &str) -> FileBwRow {
    let scratch = lmb_fs::ScratchFile::create("suite", config.file_bytes).expect("scratch file");
    FileBwRow {
        system: name.into(),
        bcopy_libc: lmb_mem::bw::measure_bcopy_libc(h, config.copy_bytes).mb_per_s,
        file_read: lmb_fs::measure_file_reread(h, scratch.path()).mb_per_s,
        file_mmap: lmb_fs::measure_mmap_reread(h, scratch.path()).mb_per_s,
        mem_read: lmb_mem::bw::measure_read(h, config.copy_bytes).mb_per_s,
    }
}

/// Table 6 row, via the latency sweep and hierarchy analyzer.
pub fn measure_cache_lat(h: &Harness, config: &SuiteConfig, name: &str) -> CacheLatRow {
    let hier =
        lmb_mem::hierarchy::measure_hierarchy(h, config.sweep_max, 64).expect("hierarchy analysis");
    let l1 = hier.l1();
    let l2 = hier.l2();
    CacheLatRow {
        system: name.into(),
        clock_ns: 0.0, // Modern CPUs scale frequency; a fixed clock is fiction.
        l1_ns: l1.map(|l| l.latency_ns),
        l1_size: l1.and_then(|l| l.capacity).map(|c| c as u64),
        l2_ns: l2.map(|l| l.latency_ns),
        l2_size: l2.and_then(|l| l.capacity).map(|c| c as u64),
        memory_ns: hier.memory_latency_ns().unwrap_or(0.0),
    }
}

/// Table 7 row.
pub fn measure_syscall(h: &Harness, name: &str) -> SyscallRow {
    SyscallRow {
        system: name.into(),
        syscall_us: lmb_proc::syscall::measure_write_devnull(h).as_micros(),
    }
}

/// Table 8 row.
pub fn measure_signal(h: &Harness, name: &str) -> SignalRow {
    let c = lmb_proc::signal::measure_all(h);
    SignalRow {
        system: name.into(),
        sigaction_us: c.install.as_micros(),
        handler_us: c.dispatch.as_micros(),
    }
}

/// Table 9 row.
pub fn measure_proc(h: &Harness, name: &str) -> ProcRow {
    let c = lmb_proc::proc::measure_all(h);
    ProcRow {
        system: name.into(),
        fork_ms: c.fork_exit.value,
        fork_exec_ms: c.fork_exec.value,
        fork_sh_ms: c.fork_sh.value,
    }
}

/// Table 10 row: the four corner configurations.
pub fn measure_ctx(h: &Harness, config: &SuiteConfig, name: &str) -> CtxRow {
    let cell = |processes: usize, footprint_bytes: usize| {
        lmb_proc::ctx::measure(
            h,
            &lmb_proc::ctx::CtxOptions {
                processes,
                footprint_bytes,
                passes: config.ctx_passes,
            },
        )
        .per_switch
        .as_micros()
    };
    CtxRow {
        system: name.into(),
        p2_0k: cell(2, 0),
        p2_32k: cell(2, 32 << 10),
        p8_0k: cell(8, 0),
        p8_32k: cell(8, 32 << 10),
    }
}

/// Table 11 row.
pub fn measure_pipe_lat(h: &Harness, config: &SuiteConfig, name: &str) -> PipeLatRow {
    PipeLatRow {
        system: name.into(),
        pipe_us: lmb_ipc::measure_pipe_latency(h, config.round_trips).as_micros(),
    }
}

/// Table 12 row: raw TCP and RPC/TCP.
pub fn measure_tcp_rpc(h: &Harness, config: &SuiteConfig, name: &str) -> TcpRpcRow {
    let tcp = lmb_ipc::measure_tcp_latency(h, config.round_trips).as_micros();
    let registry = lmb_rpc::Registry::new();
    let server = lmb_rpc::RpcServer::start(registry.clone()).expect("rpc server");
    server.register(
        lmb_rpc::ECHO_PROGRAM,
        lmb_rpc::ECHO_VERSION,
        lmb_rpc::ECHO_PROC,
        Box::new(Ok),
    );
    let rpc = lmb_rpc::client::measure_rpc_latency(
        h,
        &registry,
        lmb_rpc::Protocol::Tcp,
        config.round_trips,
    )
    .as_micros();
    TcpRpcRow {
        system: name.into(),
        tcp_us: tcp,
        rpc_tcp_us: rpc,
    }
}

/// Table 13 row: raw UDP and RPC/UDP.
pub fn measure_udp_rpc(h: &Harness, config: &SuiteConfig, name: &str) -> UdpRpcRow {
    let udp = lmb_ipc::measure_udp_latency(h, config.round_trips).as_micros();
    let registry = lmb_rpc::Registry::new();
    let server = lmb_rpc::RpcServer::start(registry.clone()).expect("rpc server");
    server.register(
        lmb_rpc::ECHO_PROGRAM,
        lmb_rpc::ECHO_VERSION,
        lmb_rpc::ECHO_PROC,
        Box::new(Ok),
    );
    let rpc = lmb_rpc::client::measure_rpc_latency(
        h,
        &registry,
        lmb_rpc::Protocol::Udp,
        config.round_trips,
    )
    .as_micros();
    UdpRpcRow {
        system: name.into(),
        udp_us: udp,
        rpc_udp_us: rpc,
    }
}

/// Table 15 row.
pub fn measure_connect(h: &Harness, name: &str) -> ConnectRow {
    ConnectRow {
        system: name.into(),
        connect_us: lmb_ipc::measure_tcp_connect(h).as_micros(),
    }
}

/// Table 16 row.
pub fn measure_fs_lat(h: &Harness, config: &SuiteConfig, name: &str) -> FsLatRow {
    let r = lmb_fs::create_delete::measure_in_tempdir(h, config.fs_files);
    FsLatRow {
        system: name.into(),
        fs: detect_fs_type(),
        create_us: r.create.as_micros(),
        delete_us: r.delete.as_micros(),
    }
}

/// Table 17 row against the simulated classic drive.
pub fn measure_disk(h: &Harness, config: &SuiteConfig, name: &str) -> DiskRow {
    let mut disk = lmb_disk::SimDisk::classic_1995();
    let r = lmb_disk::measure_overhead(h, &mut disk, config.disk_ops);
    DiskRow {
        system: name.into(),
        overhead_us: r.service.as_micros() + r.host_cpu.as_micros(),
    }
}

/// Best-effort file-system type of the temp directory.
fn detect_fs_type() -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let tmp = std::env::temp_dir();
    let mut best: (usize, &str) = (0, "unknown");
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_dev), Some(mount), Some(fstype)) = (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        if tmp.starts_with(mount) && mount.len() >= best.0 {
            best = (mount.len(), fstype);
        }
    }
    best.1.to_uppercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> (Harness, SuiteConfig) {
        let c = SuiteConfig::quick();
        (Harness::new(c.options), c)
    }

    #[test]
    fn syscall_row_is_sane() {
        let (h, _) = quick();
        let r = measure_syscall(&h, "host");
        assert!(r.syscall_us > 0.0 && r.syscall_us < 1000.0);
    }

    #[test]
    fn mem_bw_row_is_sane() {
        let (h, c) = quick();
        let r = measure_mem_bw(&h, &c, "host");
        for v in [r.bcopy_unrolled, r.bcopy_libc, r.read, r.write] {
            assert!(v > 0.0 && v.is_finite());
        }
    }

    #[test]
    fn fs_type_detection_returns_something() {
        let t = detect_fs_type();
        assert!(!t.is_empty());
    }

    #[test]
    fn disk_row_is_paper_scale() {
        let (h, c) = quick();
        let r = measure_disk(&h, &c, "host");
        // Command overhead constant is 100us; total must exceed it.
        assert!(r.overhead_us > 100.0, "{}", r.overhead_us);
        assert!(r.overhead_us < 10_000.0);
    }

    #[test]
    fn tcp_rpc_row_shows_rpc_tax() {
        let (h, mut c) = quick();
        c.round_trips = 30;
        let r = measure_tcp_rpc(&h, &c, "host");
        assert!(r.tcp_us > 0.0);
        assert!(
            r.rpc_tcp_us > r.tcp_us * 0.8,
            "RPC {} implausibly below raw TCP {}",
            r.rpc_tcp_us,
            r.tcp_us
        );
    }
}
