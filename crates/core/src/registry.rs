//! A name-addressable registry of the suite's benchmarks.
//!
//! Lets callers (CLI, examples, harnesses) run one benchmark by name —
//! the lmbench idiom of individual `bw_*`/`lat_*` binaries — and gives
//! the execution engine everything it needs to order them: substrate
//! requirements, interference sensitivity (`exclusive`), the [`SuiteRun`]
//! fields each entry fills, and whether the entry derives its rows from
//! other entries' measurements instead of measuring itself.

use crate::config::SuiteConfig;
use crate::engine::{RunCtx, Substrate};
use crate::error::SuiteError;
use crate::host::detect_host;
use crate::output::{BenchOutput, Unit};
use crate::suite;
use lmb_mem::{bw, ChasePattern};
use lmb_results::{RemoteBwRow, RemoteLatRow, SuiteField, SuiteRun, TablePatch};
use lmb_timing::{Harness, Samples, SummaryPolicy};
use std::sync::Arc;

/// A benchmark body the engine can move onto a watchdogged thread.
///
/// `Arc`'d so scripted simulation benchmarks can capture state (a shared
/// `SimClock`, a cost model) while the standard registry keeps paying only
/// a pointer per entry via `arc_runner`.
pub type BenchRunner = Arc<dyn Fn(&RunCtx) -> BenchOutput + Send + Sync>;

/// Wraps a plain function pointer as a [`BenchRunner`]. Taking `fn` rather
/// than a generic closure keeps the standard-registry literals coercing
/// without type annotations.
fn arc_runner(f: fn(&RunCtx) -> BenchOutput) -> BenchRunner {
    Arc::new(f)
}

/// The paper section a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// §5: data movement rates.
    Bandwidth,
    /// §6: operation latencies.
    Latency,
    /// Identity data (Table 1), not a measurement.
    Identity,
    /// A methodology choice of the paper, swept; runs by name only, never
    /// in the default suite.
    Ablation,
}

/// One runnable benchmark.
pub struct Benchmark {
    /// CLI-style name ("lat_syscall", "bw_pipe").
    pub name: &'static str,
    /// Which table/figure it feeds.
    pub produces: &'static str,
    /// Paper section.
    pub category: Category,
    /// Interference-sensitive (memory sweeps, context switching). The
    /// engine measures every entry alone; this flag orders the run
    /// (exclusive entries go after the others) and is archived on the
    /// entry's record.
    pub exclusive: bool,
    /// OS facilities probed before launch; missing ones skip the benchmark
    /// instead of crashing it.
    pub requires: &'static [Substrate],
    /// [`SuiteRun`] fields this entry's patches populate.
    pub fills: &'static [SuiteField],
    /// Derives its rows from earlier entries' results (runs in the
    /// engine's second phase with a populated snapshot, never retried).
    pub derived: bool,
    runner: BenchRunner,
}

impl Benchmark {
    /// Builds a benchmark around an arbitrary (possibly capturing) runner —
    /// the constructor the simulation registry uses for scripted bodies.
    pub fn scripted(
        name: &'static str,
        produces: &'static str,
        category: Category,
        exclusive: bool,
        runner: BenchRunner,
    ) -> Self {
        Self {
            name,
            produces,
            category,
            exclusive,
            requires: &[],
            fills: &[],
            derived: false,
            runner,
        }
    }

    /// Runs the benchmark against an execution context.
    pub fn run(&self, ctx: &RunCtx) -> BenchOutput {
        (*self.runner)(ctx)
    }

    /// The shared runner, for the engine to move onto a watchdogged thread
    /// (the `Arc` is `'static`; `&Benchmark` is not).
    pub(crate) fn runner_fn(&self) -> BenchRunner {
        self.runner.clone()
    }

    /// Compatibility wrapper for the pre-engine API: runs with an empty
    /// snapshot and returns the one-line human-readable result.
    pub fn run_line(&self, h: &Harness, config: &SuiteConfig) -> String {
        let ctx = RunCtx {
            harness: h.clone(),
            config: *config,
            host: "host".into(),
            snapshot: SuiteRun::default(),
        };
        self.run(&ctx).run_line()
    }
}

/// The full benchmark registry.
pub struct Registry {
    benchmarks: Vec<Benchmark>,
}

impl Registry {
    /// Builds the registry with every suite benchmark, in table order.
    pub fn standard() -> Self {
        let benchmarks = vec![
            Benchmark {
                name: "sys_info",
                produces: "Table 1",
                category: Category::Identity,
                exclusive: false,
                requires: &[],
                fills: &[SuiteField::System],
                derived: false,
                runner: arc_runner(|_| {
                    let info = detect_host();
                    BenchOutput::new()
                        .metric("cpu MHz", f64::from(info.mhz), Unit::Count)
                        .patch(TablePatch::System(info))
                }),
            },
            Benchmark {
                name: "bw_mem",
                produces: "Table 2",
                category: Category::Bandwidth,
                exclusive: true,
                requires: &[],
                fills: &[SuiteField::MemBw],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_mem_bw(&ctx.harness, &ctx.config, &ctx.host);
                    BenchOutput::new()
                        .metric("bcopy unrolled", r.bcopy_unrolled, Unit::MbPerSec)
                        .metric("bcopy libc", r.bcopy_libc, Unit::MbPerSec)
                        .metric("read", r.read, Unit::MbPerSec)
                        .metric("write", r.write, Unit::MbPerSec)
                        .patch(TablePatch::MemBw(r))
                }),
            },
            Benchmark {
                name: "bw_pipe_tcp",
                produces: "Table 3",
                category: Category::Bandwidth,
                exclusive: false,
                requires: &[Substrate::Loopback],
                fills: &[SuiteField::IpcBw],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_ipc_bw(&ctx.harness, &ctx.config, &ctx.host);
                    BenchOutput::new()
                        .metric("pipe", r.pipe, Unit::MbPerSec)
                        .metric("TCP", r.tcp.unwrap_or(0.0), Unit::MbPerSec)
                        .patch(TablePatch::IpcBw(r))
                }),
            },
            Benchmark {
                name: "remote_bw_model",
                produces: "Table 4",
                category: Category::Bandwidth,
                exclusive: false,
                requires: &[],
                fills: &[SuiteField::RemoteBw],
                derived: true,
                runner: arc_runner(|ctx| {
                    let Some(tcp_bw) = ctx.snapshot.ipc_bw.as_ref().and_then(|r| r.tcp) else {
                        return BenchOutput::skipped("needs a measured Table 3 TCP bandwidth");
                    };
                    let rows: Vec<RemoteBwRow> = lmb_net::remote::bandwidth_table(tcp_bw)
                        .into_iter()
                        .map(|r| RemoteBwRow {
                            system: ctx.host.clone(),
                            network: r.link.name.into(),
                            tcp: r.total_mb_s,
                        })
                        .collect();
                    BenchOutput::new()
                        .metric("links modeled", rows.len() as f64, Unit::Count)
                        .patch(TablePatch::RemoteBw(rows))
                }),
            },
            Benchmark {
                name: "bw_file",
                produces: "Table 5",
                category: Category::Bandwidth,
                exclusive: true,
                requires: &[Substrate::TempDir],
                fills: &[SuiteField::FileBw],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_file_bw(&ctx.harness, &ctx.config, &ctx.host);
                    BenchOutput::new()
                        .metric("file read", r.file_read, Unit::MbPerSec)
                        .metric("mmap", r.file_mmap, Unit::MbPerSec)
                        .metric("mem read", r.mem_read, Unit::MbPerSec)
                        .patch(TablePatch::FileBw(r))
                }),
            },
            Benchmark {
                name: "lat_mem_rd",
                produces: "Table 6 / Figure 1",
                category: Category::Latency,
                exclusive: true,
                requires: &[],
                fills: &[SuiteField::CacheLat],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_cache_lat(&ctx.harness, &ctx.config, &ctx.host);
                    BenchOutput::new()
                        .metric("L1", r.l1_ns.unwrap_or(0.0), Unit::Nanos)
                        .metric("L2", r.l2_ns.unwrap_or(0.0), Unit::Nanos)
                        .metric("memory", r.memory_ns, Unit::Nanos)
                        .patch(TablePatch::CacheLat(r))
                }),
            },
            Benchmark {
                name: "lat_syscall",
                produces: "Table 7",
                category: Category::Latency,
                exclusive: false,
                requires: &[Substrate::DevNull],
                fills: &[SuiteField::Syscall],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_syscall(&ctx.harness, &ctx.host);
                    BenchOutput::new()
                        .metric("", r.syscall_us, Unit::Micros)
                        .patch(TablePatch::Syscall(r))
                }),
            },
            Benchmark {
                name: "lat_sig",
                produces: "Table 8",
                category: Category::Latency,
                exclusive: false,
                requires: &[],
                fills: &[SuiteField::Signal],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_signal(&ctx.harness, &ctx.host);
                    BenchOutput::new()
                        .metric("install", r.sigaction_us, Unit::Micros)
                        .metric("dispatch", r.handler_us, Unit::Micros)
                        .patch(TablePatch::Signal(r))
                }),
            },
            Benchmark {
                name: "lat_proc",
                produces: "Table 9",
                category: Category::Latency,
                exclusive: false,
                requires: &[],
                fills: &[SuiteField::Proc],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_proc(&ctx.harness, &ctx.host);
                    BenchOutput::new()
                        .metric("fork", r.fork_ms, Unit::Millis)
                        .metric("exec", r.fork_exec_ms, Unit::Millis)
                        .metric("sh", r.fork_sh_ms, Unit::Millis)
                        .patch(TablePatch::Proc(r))
                }),
            },
            Benchmark {
                name: "lat_ctx",
                produces: "Table 10 / Figure 2",
                category: Category::Latency,
                exclusive: true,
                requires: &[],
                fills: &[SuiteField::Ctx],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_ctx(&ctx.harness, &ctx.config, &ctx.host);
                    BenchOutput::new()
                        .metric("2p/0K", r.p2_0k, Unit::Micros)
                        .metric("8p/32K", r.p8_32k, Unit::Micros)
                        .patch(TablePatch::Ctx(r))
                }),
            },
            Benchmark {
                name: "lat_pipe",
                produces: "Table 11",
                category: Category::Latency,
                exclusive: false,
                requires: &[],
                fills: &[SuiteField::PipeLat],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_pipe_lat(&ctx.harness, &ctx.config, &ctx.host);
                    BenchOutput::new()
                        .metric("", r.pipe_us, Unit::Micros)
                        .patch(TablePatch::PipeLat(r))
                }),
            },
            Benchmark {
                name: "lat_tcp_rpc",
                produces: "Table 12",
                category: Category::Latency,
                exclusive: false,
                requires: &[Substrate::Loopback],
                fills: &[SuiteField::TcpRpc],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_tcp_rpc(&ctx.harness, &ctx.config, &ctx.host);
                    BenchOutput::new()
                        .metric("TCP", r.tcp_us, Unit::Micros)
                        .metric("RPC/TCP", r.rpc_tcp_us, Unit::Micros)
                        .patch(TablePatch::TcpRpc(r))
                }),
            },
            Benchmark {
                name: "lat_udp_rpc",
                produces: "Table 13",
                category: Category::Latency,
                exclusive: false,
                requires: &[Substrate::Loopback],
                fills: &[SuiteField::UdpRpc],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_udp_rpc(&ctx.harness, &ctx.config, &ctx.host);
                    BenchOutput::new()
                        .metric("UDP", r.udp_us, Unit::Micros)
                        .metric("RPC/UDP", r.rpc_udp_us, Unit::Micros)
                        .patch(TablePatch::UdpRpc(r))
                }),
            },
            Benchmark {
                name: "remote_lat_model",
                produces: "Table 14",
                category: Category::Latency,
                exclusive: false,
                requires: &[],
                fills: &[SuiteField::RemoteLat],
                derived: true,
                runner: arc_runner(|ctx| {
                    let (Some(tcp_rpc), Some(udp_rpc)) =
                        (&ctx.snapshot.tcp_rpc, &ctx.snapshot.udp_rpc)
                    else {
                        return BenchOutput::skipped(
                            "needs measured Table 12 and 13 round-trip latencies",
                        );
                    };
                    let rows: Vec<RemoteLatRow> = lmb_net::remote::latency_table(tcp_rpc.tcp_us)
                        .into_iter()
                        .map(|r| {
                            let udp = lmb_net::remote::remote_latency(r.link, udp_rpc.udp_us);
                            RemoteLatRow {
                                system: ctx.host.clone(),
                                network: r.link.name.into(),
                                tcp_us: r.total_us,
                                udp_us: udp.total_us,
                            }
                        })
                        .collect();
                    BenchOutput::new()
                        .metric("links modeled", rows.len() as f64, Unit::Count)
                        .patch(TablePatch::RemoteLat(rows))
                }),
            },
            Benchmark {
                name: "lat_connect",
                produces: "Table 15",
                category: Category::Latency,
                exclusive: false,
                requires: &[Substrate::Loopback],
                fills: &[SuiteField::Connect],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_connect(&ctx.harness, &ctx.host);
                    BenchOutput::new()
                        .metric("", r.connect_us, Unit::Micros)
                        .patch(TablePatch::Connect(r))
                }),
            },
            Benchmark {
                name: "lat_fs",
                produces: "Table 16",
                category: Category::Latency,
                exclusive: false,
                requires: &[Substrate::TempDir],
                fills: &[SuiteField::FsLat],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_fs_lat(&ctx.harness, &ctx.config, &ctx.host);
                    BenchOutput::new()
                        .metric("create", r.create_us, Unit::Micros)
                        .metric("delete", r.delete_us, Unit::Micros)
                        .patch(TablePatch::FsLat(r))
                }),
            },
            Benchmark {
                name: "lat_disk",
                produces: "Table 17",
                category: Category::Latency,
                exclusive: false,
                requires: &[],
                fills: &[SuiteField::Disk],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = suite::measure_disk(&ctx.harness, &ctx.config, &ctx.host);
                    BenchOutput::new()
                        .metric("", r.overhead_us, Unit::Micros)
                        .patch(TablePatch::Disk(r))
                }),
            },
            // Extensions: the paper's §7 future-work items and the §1
            // aliasing pathology, runnable like any other benchmark. They
            // fill no SuiteRun field (no 1995 table to regenerate).
            Benchmark {
                name: "bw_unix",
                produces: "extension (later lmbench bw_unix)",
                category: Category::Bandwidth,
                exclusive: false,
                requires: &[],
                fills: &[],
                derived: false,
                runner: arc_runner(|ctx| {
                    let bw = lmb_ipc::measure_unix_bw(
                        &ctx.harness,
                        ctx.config.stream_total,
                        lmb_ipc::PIPE_CHUNK,
                    );
                    BenchOutput::new().metric("unix socket", bw.mb_per_s, Unit::MbPerSec)
                }),
            },
            Benchmark {
                name: "lat_mem_dirty",
                produces: "extension (paper \u{a7}7 dirty-read latency)",
                category: Category::Latency,
                exclusive: true,
                requires: &[],
                fills: &[],
                derived: false,
                runner: arc_runner(|ctx| {
                    let clean = lmb_mem::lat::measure_point(
                        &ctx.harness,
                        ctx.config.sweep_max,
                        64,
                        lmb_mem::ChasePattern::Random,
                    );
                    let dirty = lmb_mem::measure_dirty_point(
                        &ctx.harness,
                        ctx.config.sweep_max,
                        64,
                        lmb_mem::ChasePattern::Random,
                    );
                    BenchOutput::new()
                        .metric("clean", clean.ns_per_load, Unit::Nanos)
                        .metric("dirty", dirty.ns_per_load, Unit::Nanos)
                }),
            },
            Benchmark {
                name: "lat_mp_c2c",
                produces: "extension (paper \u{a7}7 MP cache-to-cache)",
                category: Category::Latency,
                exclusive: true,
                requires: &[],
                fills: &[],
                derived: false,
                runner: arc_runner(|ctx| {
                    let line = lmb_mem::measure_line_pingpong(&ctx.harness);
                    let bw = lmb_mem::measure_cache_to_cache_bw(&ctx.harness, 256 << 10);
                    BenchOutput::new()
                        .metric("line transfer", line.as_micros(), Unit::Micros)
                        .metric("c2c bandwidth", bw.mb_per_s, Unit::MbPerSec)
                }),
            },
            Benchmark {
                name: "lat_poll",
                produces: "extension (later lmbench lat_select)",
                category: Category::Latency,
                exclusive: false,
                requires: &[],
                fills: &[],
                derived: false,
                runner: arc_runner(|ctx| {
                    let few = lmb_proc::measure_poll(&ctx.harness, 8).latency;
                    let many = lmb_proc::measure_poll(&ctx.harness, 1024).latency;
                    BenchOutput::new()
                        .metric("8 fds", few.as_micros(), Unit::Micros)
                        .metric("1024 fds", many.as_micros(), Unit::Micros)
                }),
            },
            Benchmark {
                name: "lat_mlp",
                produces: "extension (\u{a7}6.1 load-in-a-vacuum vs back-to-back)",
                category: Category::Latency,
                exclusive: true,
                requires: &[],
                fills: &[],
                derived: false,
                runner: arc_runner(|ctx| {
                    let pts = lmb_mem::mlp::sweep(&ctx.harness, 4, ctx.config.sweep_max, 64);
                    BenchOutput::new()
                        .metric("1 chain", pts[0].ns_per_load, Unit::Nanos)
                        .metric("4 chains", pts[3].ns_per_load, Unit::Nanos)
                        .metric("MLP", lmb_mem::mlp::effective_mlp(&pts), Unit::Ratio)
                }),
            },
            Benchmark {
                name: "lat_alias",
                produces: "extension (paper \u{a7}1 cache-aliasing check)",
                category: Category::Latency,
                exclusive: true,
                requires: &[],
                fills: &[],
                derived: false,
                runner: arc_runner(|ctx| {
                    let r = lmb_mem::measure_alias(&ctx.harness, 512, 256 << 10);
                    BenchOutput::new()
                        .metric("packed", r.compact_ns, Unit::Nanos)
                        .metric("aliased", r.aliased_ns, Unit::Nanos)
                        .metric("slowdown", r.slowdown(), Unit::Ratio)
                }),
            },
            // Ablations: the paper's fixed methodology choices, swept.
            // They fill no SuiteRun field and sit outside the default
            // suite (see `without_ablations`).
            Benchmark {
                name: "ablation_timing",
                produces: "ablation (\u{a7}3.4 min-of-N vs median vs mean)",
                category: Category::Ablation,
                exclusive: false,
                requires: &[],
                fills: &[],
                derived: false,
                runner: arc_runner(|_| {
                    BenchOutput::new()
                        .metric(
                            "minimum",
                            summary_error(SummaryPolicy::Minimum),
                            Unit::Ratio,
                        )
                        .metric("median", summary_error(SummaryPolicy::Median), Unit::Ratio)
                        .metric("mean", summary_error(SummaryPolicy::Mean), Unit::Ratio)
                }),
            },
            Benchmark {
                name: "ablation_unroll",
                produces: "ablation (\u{a7}5.1 unrolled vs naive kernels)",
                category: Category::Ablation,
                exclusive: true,
                requires: &[],
                fills: &[],
                derived: false,
                runner: arc_runner(|ctx| {
                    let (h, bytes) = (&ctx.harness, ctx.config.copy_bytes);
                    let mb_s = |measure: fn(&Harness, usize) -> lmb_timing::Bandwidth| {
                        measure(h, bytes).mb_per_s
                    };
                    BenchOutput::new()
                        .metric("read unrolled", mb_s(bw::measure_read), Unit::MbPerSec)
                        .metric("read naive", mb_s(bw::measure_read_naive), Unit::MbPerSec)
                        .metric(
                            "copy unrolled",
                            mb_s(bw::measure_bcopy_unrolled),
                            Unit::MbPerSec,
                        )
                        .metric("copy naive", mb_s(bw::measure_bcopy_naive), Unit::MbPerSec)
                        .metric("copy libc", mb_s(bw::measure_bcopy_libc), Unit::MbPerSec)
                }),
            },
            Benchmark {
                name: "ablation_transfer_size",
                produces: "ablation (\u{a7}5.2 IPC transfer size)",
                category: Category::Ablation,
                exclusive: false,
                requires: &[Substrate::Loopback],
                fills: &[],
                derived: false,
                runner: arc_runner(|ctx| {
                    let (h, total) = (&ctx.harness, ctx.config.stream_total);
                    let pipe = |chunk| lmb_ipc::measure_pipe_bw(h, total, chunk).mb_per_s;
                    let tcp = |chunk| {
                        lmb_ipc::measure_tcp_bw(h, total, chunk, lmb_ipc::TCP_SOCKBUF).mb_per_s
                    };
                    BenchOutput::new()
                        .metric("pipe 512B", pipe(512), Unit::MbPerSec)
                        .metric("pipe 4KB", pipe(4 << 10), Unit::MbPerSec)
                        .metric("pipe 64KB", pipe(64 << 10), Unit::MbPerSec)
                        .metric("pipe 256KB", pipe(256 << 10), Unit::MbPerSec)
                        .metric("TCP 4KB", tcp(4 << 10), Unit::MbPerSec)
                        .metric("TCP 64KB", tcp(64 << 10), Unit::MbPerSec)
                        .metric("TCP 1MB", tcp(1 << 20), Unit::MbPerSec)
                }),
            },
            Benchmark {
                name: "ablation_stride",
                produces: "ablation (\u{a7}6.2 stride vs random walk)",
                category: Category::Ablation,
                exclusive: true,
                requires: &[],
                fills: &[],
                derived: false,
                runner: arc_runner(|ctx| {
                    let ns = |stride, pattern| {
                        lmb_mem::lat::measure_point(
                            &ctx.harness,
                            ctx.config.sweep_max,
                            stride,
                            pattern,
                        )
                        .ns_per_load
                    };
                    let mut out = BenchOutput::new();
                    for (stride, walk, random) in STRIDES {
                        out = out
                            .metric(walk, ns(stride, ChasePattern::Stride), Unit::Nanos)
                            .metric(random, ns(stride, ChasePattern::Random), Unit::Nanos);
                    }
                    out
                }),
            },
            Benchmark {
                name: "ablation_fs_scaling",
                produces: "ablation (Table 16 name length and population)",
                category: Category::Ablation,
                exclusive: false,
                requires: &[Substrate::TempDir],
                fills: &[],
                derived: false,
                runner: arc_runner(|ctx| {
                    let (h, files) = (&ctx.harness, ctx.config.fs_files);
                    let by_len =
                        lmb_fs::create_delete::name_length_sweep(h, &[2, 16, 64, 200], files);
                    let by_pop =
                        lmb_fs::create_delete::population_sweep(h, &[0, 1000, 10_000], files);
                    let mut out = BenchOutput::new();
                    for (p, [create, delete]) in by_len.iter().chain(&by_pop).zip(FS_POINTS) {
                        out = out
                            .metric(create, p.create.as_micros(), Unit::Micros)
                            .metric(delete, p.delete.as_micros(), Unit::Micros);
                    }
                    out
                }),
            },
        ];
        Self { benchmarks }
    }

    /// Drops the [`Category::Ablation`] entries, leaving the default suite
    /// that `lmbench suite`, `lmbench report` and [`crate::run_suite`] run.
    #[must_use]
    pub fn without_ablations(mut self) -> Self {
        self.benchmarks.retain(|b| b.category != Category::Ablation);
        self
    }

    /// Builds a registry from an arbitrary benchmark list — the entry
    /// point for scripted simulation suites whose bodies are synthesized
    /// per scenario rather than drawn from the standard table set.
    pub fn custom(benchmarks: Vec<Benchmark>) -> Self {
        Self { benchmarks }
    }

    /// Restricts the registry to the named benchmarks, preserving registry
    /// order; errors on the first unknown name.
    pub fn filtered(self, names: &[&str]) -> Result<Self, SuiteError> {
        for name in names {
            if !self.benchmarks.iter().any(|b| b.name == *name) {
                return Err(SuiteError::UnknownBenchmark {
                    name: (*name).to_string(),
                });
            }
        }
        Ok(Self {
            benchmarks: self
                .benchmarks
                .into_iter()
                .filter(|b| names.contains(&b.name))
                .collect(),
        })
    }

    /// All benchmarks.
    pub fn all(&self) -> &[Benchmark] {
        &self.benchmarks
    }

    /// Finds one by name.
    pub fn find(&self, name: &str) -> Option<&Benchmark> {
        self.benchmarks.iter().find(|b| b.name == name)
    }

    /// Benchmark names, registry order.
    pub fn names(&self) -> Vec<&'static str> {
        self.benchmarks.iter().map(|b| b.name).collect()
    }
}

/// `ablation_stride`'s strides, with their stride-walk and random-walk labels.
const STRIDES: [(usize, &str, &str); 8] = [
    (8, "stride 8B", "random 8B"),
    (16, "stride 16B", "random 16B"),
    (32, "stride 32B", "random 32B"),
    (64, "stride 64B", "random 64B"),
    (128, "stride 128B", "random 128B"),
    (256, "stride 256B", "random 256B"),
    (1024, "stride 1KB", "random 1KB"),
    (4096, "stride 4KB", "random 4KB"),
];

/// `ablation_fs_scaling`'s create/delete labels: four name lengths at an
/// empty directory, then three directory populations at 8-byte names.
const FS_POINTS: [[&str; 2]; 7] = [
    ["create len 2", "delete len 2"],
    ["create len 16", "delete len 16"],
    ["create len 64", "delete len 64"],
    ["create len 200", "delete len 200"],
    ["create pop 0", "delete pop 0"],
    ["create pop 1000", "delete pop 1000"],
    ["create pop 10000", "delete pop 10000"],
];

/// Worst relative error of `policy` over 20 seeded runs of 11 samples: a
/// known truth (1.0) plus one-sided noise, 70% of runs within 1% and the
/// rest up to 30% slow — the §3.4 spread that motivates taking the minimum.
fn summary_error(policy: SummaryPolicy) -> f64 {
    (1..=20u64)
        .map(|seed| {
            let mut state = seed;
            let samples = Samples::from_values((0..11).map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let unit = (state % 1000) as f64 / 1000.0;
                1.0 + if unit < 0.7 { unit * 0.01 } else { unit - 0.7 }
            }));
            (samples.summarize(policy).unwrap_or(f64::NAN) - 1.0).abs()
        })
        .fold(0.0, f64::max)
}

impl Default for Registry {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_categories() {
        let r = Registry::standard();
        assert!(r.all().iter().any(|b| b.category == Category::Bandwidth));
        assert!(r.all().iter().any(|b| b.category == Category::Latency));
        assert!(r.all().iter().any(|b| b.category == Category::Identity));
        assert!(r.all().len() >= 14);
    }

    #[test]
    fn names_are_unique() {
        let names = Registry::standard().names();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    #[test]
    fn find_works_and_misses_cleanly() {
        let r = Registry::standard();
        assert!(r.find("lat_syscall").is_some());
        assert!(r.find("lat_nonexistent").is_none());
    }

    #[test]
    fn every_paper_table_is_produced() {
        let r = Registry::standard();
        let produced: String = r
            .all()
            .iter()
            .map(|b| b.produces)
            .collect::<Vec<_>>()
            .join(" ");
        // With sys_info and the remote link models in the registry, every
        // table of the paper has exactly one producing entry.
        for t in 1..=17 {
            assert!(
                produced.contains(&format!("Table {t}")),
                "Table {t} unproduced"
            );
        }
    }

    #[test]
    fn every_suite_field_is_filled_by_exactly_one_entry() {
        let r = Registry::standard();
        for field in SuiteField::ALL {
            let fillers: Vec<&str> = r
                .all()
                .iter()
                .filter(|b| b.fills.contains(&field))
                .map(|b| b.name)
                .collect();
            assert_eq!(
                fillers.len(),
                1,
                "{field:?} filled by {fillers:?}, want exactly one entry"
            );
        }
    }

    #[test]
    fn derived_entries_come_after_their_inputs() {
        let r = Registry::standard();
        let pos = |name: &str| r.all().iter().position(|b| b.name == name).unwrap();
        assert!(pos("remote_bw_model") > pos("bw_pipe_tcp"));
        assert!(pos("remote_lat_model") > pos("lat_udp_rpc"));
    }

    #[test]
    fn filtered_preserves_order_and_rejects_unknown() {
        let r = Registry::standard()
            .filtered(&["lat_syscall", "bw_mem"])
            .unwrap();
        // Registry order, not argument order.
        assert_eq!(r.names(), vec!["bw_mem", "lat_syscall"]);
        let err = match Registry::standard().filtered(&["lat_warp"]) {
            Err(e) => e,
            Ok(_) => panic!("unknown name accepted"),
        };
        assert!(matches!(err, SuiteError::UnknownBenchmark { .. }));
    }

    #[test]
    fn a_cheap_benchmark_runs_end_to_end() {
        let r = Registry::standard();
        let h = Harness::new(lmb_timing::Options::quick());
        let out = r
            .find("lat_syscall")
            .unwrap()
            .run_line(&h, &SuiteConfig::quick());
        assert!(out.contains("us"), "{out}");
    }

    #[test]
    fn derived_entry_skips_on_empty_snapshot() {
        let r = Registry::standard();
        let h = Harness::new(lmb_timing::Options::quick());
        let out = r
            .find("remote_bw_model")
            .unwrap()
            .run_line(&h, &SuiteConfig::quick());
        assert!(out.starts_with("skipped:"), "{out}");
    }
}
