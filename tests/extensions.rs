//! Integration tests for the beyond-the-paper extensions: each one must
//! interoperate with the rest of the suite and reproduce its motivating
//! claim.

use lmbench::timing::{Harness, Options};

fn harness() -> Harness {
    Harness::new(Options::quick().with_repetitions(2))
}

#[test]
fn clock_estimate_agrees_with_proc_cpuinfo_order_of_magnitude() {
    let est = lmbench::timing::estimate_clock(3);
    assert!(est.mhz > 100.0 && est.mhz < 10_000.0, "{} MHz", est.mhz);
    // Converting the measured L1 latency to cycles must give a small
    // number (L1 hits are a few cycles on everything).
    let h = harness();
    let l1 = lmbench::mem::lat::measure_point(&h, 8 << 10, 64, lmbench::mem::ChasePattern::Stride);
    let cycles = est.cycles(l1.ns_per_load);
    assert!(
        cycles < 100.0,
        "L1 hit at {cycles} 'cycles' — clock estimate or chase broken"
    );
}

#[test]
fn mlp_extension_never_makes_memory_slower() {
    let h = harness();
    let pts = lmbench::mem::mlp::sweep(&h, 4, 16 << 20, 64);
    assert_eq!(pts.len(), 4);
    let mlp = lmbench::mem::mlp::effective_mlp(&pts);
    // Effective MLP is >= ~1 by construction (overlap can only help).
    assert!(mlp > 0.6, "effective MLP {mlp}");
}

#[test]
fn poll_cost_is_linear_ish_in_descriptors() {
    let h = harness();
    let pts = lmbench::proc::select::sweep(&h, &[16, 1024]);
    let small = pts[0].latency.as_micros();
    let large = pts[1].latency.as_micros();
    // 64x the descriptors must cost visibly more — and not *more* than
    // ~64x plus constant (it's one kernel walk, not a quadratic scan).
    assert!(large > small, "poll(1024) {large}us <= poll(16) {small}us");
    assert!(
        large < small * 640.0 + 100.0,
        "poll scaling implausibly superlinear: {small}us -> {large}us"
    );
}

#[test]
fn unix_socket_sits_between_nothing_and_tcp() {
    let h = harness();
    let unix = lmbench::ipc::measure_unix_latency(&h, 100).as_micros();
    let tcp = lmbench::ipc::measure_tcp_latency(&h, 100).as_micros();
    assert!(unix > 0.0);
    // AF_UNIX skips the TCP/IP protocol work; it should not be clearly
    // slower than TCP.
    assert!(
        unix < tcp * 3.0 + 10.0,
        "AF_UNIX {unix}us far above TCP {tcp}us"
    );
}

#[test]
fn fifo_and_unix_bandwidth_extensions_move_real_data() {
    let h = harness();
    let bw = lmbench::ipc::measure_unix_bw(&h, 4 << 20, 64 << 10);
    assert!(bw.mb_per_s > 1.0, "AF_UNIX stream {bw}");
    let fifo = lmbench::ipc::fifo_lat::measure_fifo_latency(&h, 30);
    assert!(fifo.as_micros() > 0.0);
}

#[test]
fn zoned_disk_staircase_has_the_documented_steps() {
    let d = lmbench::disk::ZonedDisk::classic_zoned();
    let chunk = 1u64 << 20;
    let outer = chunk as f64 / d.stream_us(0, chunk);
    let inner = chunk as f64 / d.stream_us(d.capacity() - chunk, chunk);
    assert!(
        outer / inner > 1.5,
        "no staircase: outer {outer} vs inner {inner} bytes/us"
    );
}

#[test]
fn dirty_chase_extension_composes_with_hierarchy_analysis() {
    // Dirty-mode points feed the same LatencyPoint type the analyzer
    // consumes; a synthetic curve built from them must analyze cleanly.
    let h = harness();
    let points: Vec<lmbench::mem::LatencyPoint> = [16usize << 10, 1 << 20, 16 << 20]
        .iter()
        .map(|&size| {
            lmbench::mem::measure_dirty_point(&h, size, 64, lmbench::mem::ChasePattern::Random)
        })
        .collect();
    let curve = lmbench::mem::LatencyCurve { stride: 64, points };
    let hier = lmbench::mem::hierarchy::analyze(&curve).expect("analyzable");
    assert!(!hier.levels.is_empty());
}

#[test]
fn summary_renders_a_full_suite_run() {
    let run = lmbench::core::run_suite(&lmbench::core::SuiteConfig::quick()).expect("valid config");
    let name = run.system.as_ref().unwrap().name.clone();
    let text = lmbench::results::summary::host_summary(&name, &run);
    assert!(text.contains(&format!("SUMMARY for {name}")));
    // Every section header present.
    for section in [
        "Processor, Processes",
        "Communication latencies",
        "File & VM latencies",
        "Bandwidths",
        "Memory latencies",
    ] {
        assert!(text.contains(section), "missing section {section}:\n{text}");
    }
    // No dashes: a full run fills every line.
    let dash_lines = text
        .lines()
        .filter(|l| l.trim_end().ends_with(" -"))
        .count();
    assert_eq!(dash_lines, 0, "unfilled summary lines:\n{text}");
}

const ABLATIONS: [&str; 5] = [
    "ablation_timing",
    "ablation_unroll",
    "ablation_transfer_size",
    "ablation_stride",
    "ablation_fs_scaling",
];

#[test]
fn registry_extensions_run_end_to_end() {
    let registry = lmbench::core::Registry::standard();
    let h = harness();
    let mut config = lmbench::core::SuiteConfig::quick();
    config.sweep_max = 2 << 20; // Keep lat_mlp and ablation_stride cheap.
    for name in ["lat_poll", "lat_alias"].into_iter().chain(ABLATIONS) {
        let bench = registry
            .find(name)
            .unwrap_or_else(|| panic!("{name} not registered"));
        let out = bench.run_line(&h, &config);
        assert!(!out.is_empty(), "{name} produced nothing");
        if bench.requires.iter().all(|s| s.probe().is_ok()) {
            assert!(!out.starts_with("skipped:"), "{name}: {out}");
        }
    }
}

#[test]
fn every_timed_record_is_graded() {
    // The benchmarks that once timed themselves outside the harness now
    // carry its provenance and grade, like every other timed record.
    use lmbench::core::{Engine, Registry, SuiteConfig};
    use lmbench::results::BenchStatus;
    let names = [
        "bw_pipe_tcp",
        "bw_unix",
        "lat_connect",
        "lat_fs",
        "lat_mp_c2c",
    ];
    let registry = Registry::standard()
        .filtered(&names)
        .expect("known benchmarks");
    let outcome = Engine::new(registry, SuiteConfig::quick())
        .expect("quick config is valid")
        .execute();
    assert_eq!(outcome.report.records.len(), names.len());
    for record in &outcome.report.records {
        if matches!(record.status, BenchStatus::Skipped(_)) {
            continue; // No loopback or temp dir on this host.
        }
        assert_eq!(record.status, BenchStatus::Ok, "{}", record.name);
        let provenance = record
            .provenance
            .as_ref()
            .unwrap_or_else(|| panic!("{} carries no provenance", record.name));
        assert!(
            lmbench::timing::Quality::from_label(&provenance.quality).is_some(),
            "{}: grade {:?}",
            record.name,
            provenance.quality
        );
        if record.name == "bw_pipe_tcp" {
            // bcopy_libc, then the pipe and the TCP streams.
            assert_eq!(provenance.measure_calls, 3, "bw_pipe_tcp measurements");
        }
    }
}

#[test]
fn default_suite_is_the_standard_registry_minus_ablations() {
    use lmbench::core::{Category, Registry};
    let default = Registry::standard().without_ablations();
    assert_eq!(
        default.names(),
        [
            "sys_info",
            "bw_mem",
            "bw_pipe_tcp",
            "remote_bw_model",
            "bw_file",
            "lat_mem_rd",
            "lat_syscall",
            "lat_sig",
            "lat_proc",
            "lat_ctx",
            "lat_pipe",
            "lat_tcp_rpc",
            "lat_udp_rpc",
            "remote_lat_model",
            "lat_connect",
            "lat_fs",
            "lat_disk",
            "bw_unix",
            "lat_mem_dirty",
            "lat_mp_c2c",
            "lat_poll",
            "lat_mlp",
            "lat_alias",
        ]
    );
    assert!(default
        .all()
        .iter()
        .all(|b| b.category != Category::Ablation));
    for name in ABLATIONS {
        let one = Registry::standard()
            .filtered(&[name])
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(one.all()[0].category, Category::Ablation, "{name}");
    }
}
