//! Live shape checks: the orderings and crossovers the paper reports must
//! hold on this host too (magnitudes shifted three decades, shapes not).

use lmbench::core::SuiteConfig;
use lmbench::timing::{Harness, Options};

fn harness() -> Harness {
    Harness::new(Options::quick().with_repetitions(2))
}

#[test]
fn process_creation_ladder_fork_exec_shell() {
    // Table 9's universal ordering. Neighbouring rungs sit close enough
    // that scheduler noise on a loaded single-core host can invert one
    // measurement, so the ladder gets three tries: the *shape* must hold
    // on at least one quiet run, and magnitudes must be sane on all.
    let h = harness();
    let mut last = (0.0, 0.0, 0.0);
    for attempt in 1..=3 {
        let p = lmbench::proc::proc::measure_all(&h);
        let (fork, exec, sh) = (
            p.fork_exit.as_micros(),
            p.fork_exec.as_micros(),
            p.fork_sh.as_micros(),
        );
        assert!(fork > 0.0 && exec > 0.0 && sh > 0.0);
        last = (fork, exec, sh);
        if exec > fork && sh >= exec {
            return;
        }
        eprintln!("attempt {attempt}: ladder inverted (fork {fork}us, exec {exec}us, sh {sh}us)");
    }
    panic!(
        "ladder never held: fork {}us, exec {}us, sh {}us",
        last.0, last.1, last.2
    );
}

#[test]
fn syscall_is_cheaper_than_signal_dispatch() {
    // A delivered signal is at least a kernel entry plus frame setup.
    let h = harness();
    let syscall = lmbench::proc::syscall::measure_write_devnull(&h).as_micros();
    let dispatch = lmbench::proc::signal::measure_dispatch(&h).as_micros();
    assert!(
        dispatch > syscall,
        "signal dispatch {dispatch}us not above syscall {syscall}us"
    );
}

#[test]
fn pipe_latency_tracks_the_two_process_context_switch() {
    // §6.7: the pipe latency benchmark "is identical to the two-process,
    // zero-sized context switch benchmark, except that it includes both
    // the context switching time and the pipe overhead" — so a pipe round
    // trip can never be cheaper than two overhead-free switches by more
    // than noise.
    let h = harness();
    let pipe_rtt = lmbench::ipc::measure_pipe_latency(&h, 200).as_micros();
    let ctx = lmbench::proc::ctx::measure(&h, &lmbench::proc::ctx::CtxOptions::quick());
    let two_switches = ctx.per_switch.as_micros() * 2.0;
    assert!(
        pipe_rtt * 3.0 > two_switches,
        "pipe RTT {pipe_rtt}us vs 2 switches {two_switches}us"
    );
}

#[test]
fn cached_file_reread_is_slower_than_memory_read() {
    // Table 5: read() adds a kernel copy over a pure memory read.
    let h = harness();
    let scratch = lmbench::fs::ScratchFile::create("shape", 2 << 20).unwrap();
    let file = lmbench::fs::measure_file_reread(&h, scratch.path()).mb_per_s;
    let mem = lmbench::mem::bw::measure_read(&h, 2 << 20).mb_per_s;
    assert!(file > 0.0 && mem > 0.0);
    assert!(
        mem > file * 0.5,
        "memory read {mem} implausibly below file reread {file}"
    );
}

#[test]
fn remote_composition_preserves_the_papers_ordering() {
    // Compose live loopback numbers with the four link models; the Table 4
    // and Table 14 orderings must come out.
    use lmbench::net::remote::{bandwidth_table, latency_table};
    let h = harness();
    let loop_tcp_bw = lmbench::ipc::measure_tcp_bw(&h, 8 << 20, 1 << 20, 1 << 20).mb_per_s;
    let loop_rtt = lmbench::ipc::measure_tcp_latency(&h, 200).as_micros();

    let bw = bandwidth_table(loop_tcp_bw);
    let get_bw = |n: &str| bw.iter().find(|r| r.link.name == n).unwrap().total_mb_s;
    assert!(get_bw("hippi") > get_bw("fddi"));
    assert!(get_bw("hippi") > get_bw("100baseT"));
    assert!(get_bw("100baseT") > get_bw("10baseT") * 5.0);

    let lat = latency_table(loop_rtt);
    let get_lat = |n: &str| lat.iter().find(|r| r.link.name == n).unwrap().total_us;
    assert!(get_lat("10baseT") > get_lat("100baseT"));
    assert!(get_lat("10baseT") > get_lat("hippi"));
    // Every remote latency exceeds loopback: the wire only adds.
    for r in &lat {
        assert!(
            r.total_us > loop_rtt,
            "{} lost time on the wire",
            r.link.name
        );
    }
}

#[test]
fn simulated_disk_meets_the_papers_throughput_claims() {
    // §6.9: >1000 sequential 512B ops/s from the track buffer, versus
    // "disks under database load typically run at 20-80 operations per
    // second" for random I/O.
    let h = harness();
    let mut disk = lmbench::disk::SimDisk::classic_1995();
    let seq = lmbench::disk::measure_overhead(&h, &mut disk, 4096);
    assert!(
        seq.ops_per_sec > 1000.0,
        "sequential {} ops/s",
        seq.ops_per_sec
    );

    // Random 512B reads across the whole platter: mechanical rates.
    let mut disk = lmbench::disk::SimDisk::classic_1995();
    let cap = disk.geometry.capacity();
    let mut state = 0xdead_beef_cafe_f00du64;
    let before = disk.now_us();
    let ops = 500;
    for _ in 0..ops {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let offset = (state % (cap / 512)) * 512;
        disk.read(offset.min(cap - 512), 512);
    }
    let random_ops_per_sec = f64::from(ops) / ((disk.now_us() - before) / 1e6);
    assert!(
        (10.0..200.0).contains(&random_ops_per_sec),
        "random load at {random_ops_per_sec} ops/s is outside the database-era range"
    );
    assert!(seq.ops_per_sec > random_ops_per_sec * 5.0);
}

#[test]
fn context_switch_cost_grows_with_cache_footprint() {
    // Figure 2's main effect, on the raw (pre-subtraction) transfer cost:
    // bigger per-process arrays mean slower transfers around the ring.
    let h = harness();
    let small = lmbench::proc::ctx::measure(
        &h,
        &lmbench::proc::ctx::CtxOptions {
            processes: 2,
            footprint_bytes: 0,
            passes: 80,
        },
    );
    let big = lmbench::proc::ctx::measure(
        &h,
        &lmbench::proc::ctx::CtxOptions {
            processes: 2,
            footprint_bytes: 128 << 10,
            passes: 80,
        },
    );
    assert!(
        big.raw_per_transfer.as_micros() > small.raw_per_transfer.as_micros(),
        "footprint did not slow transfers: big {} vs small {}",
        big.raw_per_transfer,
        small.raw_per_transfer
    );
}

#[test]
fn quick_suite_config_is_consistent_with_its_harness() {
    let config = SuiteConfig::quick();
    config.validate().expect("quick preset is valid");
    let h = Harness::new(config.options);
    assert!(h.target_interval() >= config.options.min_interval);
}
