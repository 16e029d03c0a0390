//! The layer battery of the traced run: each layer timed from outside
//! through its public functions, on the same seeded inputs the workloads
//! use, plus the paper's Tables 12–13 ladder turned on this stack.

use crate::gen::{self, Rng, FINGERPRINTS, FULL_RECORDS};
use crate::serve::{PRELOAD_DEPTH, STEP_REQUESTS};
use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::{openloop, Metric};
use bytes::Bytes;
use lmb_core::service::proto::{self, PushRequest};
use lmb_core::service::SegmentStore;
use lmb_core::{
    run_load_scenario, run_scenario, ReportClient, ResultsService, Scenario, ServiceConfig,
};
use lmb_results::{Baseline, ReportDiff, ReportStore};
use lmb_timing::{Harness, Options};
use std::collections::BTreeSet;
use std::fs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions behind each micro-timing's median.
const REPS: usize = 64;

/// Times `f` `n` times; returns every duration in µs.
fn time_us<T>(n: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

fn med(values: &[f64]) -> f64 {
    median(&sorted(values)).unwrap_or(f64::NAN)
}

type Out = Result<Vec<Metric>, String>;

fn err(e: impl std::fmt::Debug) -> String {
    format!("{e:?}")
}

/// `results` and `proto` on the 23-record (~27 KB) payload.
fn serde(seed: u64) -> Out {
    let mut rng = Rng::new(seed ^ 0x5E2D);
    let a = Baseline::now(
        &gen::fingerprint(0),
        "perfbench-host",
        gen::report(&mut rng, FULL_RECORDS),
    );
    let mut b = a.clone();
    for (i, r) in b.report.records.iter_mut().enumerate() {
        for m in &mut r.metrics {
            // A mix of unchanged, slightly moved and regressed rows.
            m.value *= [1.0, 1.02, 3.0][i % 3];
        }
    }
    let json = a.report.to_json();
    let diff = ReportDiff::between(&a.report, &b.report);
    let wire = proto::to_wire(&PushRequest { entry: a.clone() });
    let push_decode = time_us(REPS, || {
        proto::from_wire::<PushRequest>(wire.clone()).is_ok()
    });
    Ok(vec![
        Metric::new(
            "results.to_json_us",
            med(&time_us(REPS, || a.report.to_json())),
            "us",
            REPS,
        ),
        Metric::new(
            "results.from_json_us",
            med(&time_us(REPS, || {
                lmb_results::RunReport::from_json(&json).is_ok()
            })),
            "us",
            REPS,
        ),
        Metric::new(
            "results.diff_us",
            med(&time_us(REPS, || ReportDiff::between(&a.report, &b.report))),
            "us",
            REPS,
        ),
        Metric::new(
            "results.diff_render_us",
            med(&time_us(REPS, || diff.render())),
            "us",
            REPS,
        ),
        Metric::new(
            "proto.push_encode_us",
            med(&time_us(REPS, || {
                proto::to_wire(&PushRequest { entry: a.clone() })
            })),
            "us",
            REPS,
        ),
        Metric::new("proto.push_decode_us", med(&push_decode), "us", REPS),
    ])
}

fn segment_files(dir: &Path) -> Result<BTreeSet<(String, u64)>, String> {
    let mut out = BTreeSet::new();
    for e in fs::read_dir(dir).map_err(err)? {
        let e = e.map_err(err)?;
        out.insert((
            e.file_name().to_string_lossy().into_owned(),
            e.metadata().map_err(err)?.len(),
        ));
    }
    Ok(out)
}

/// `store`: direct `SegmentStore::append` of the ingest sequence with the
/// daemon's default batching; a seal or compaction is recognized from the
/// change in `stats()`. Then replay and depth-128 reads on the result,
/// and the reply builders over that series. Leaves the store in `dir`.
fn store(seed: u64, dir: &Path) -> Out {
    let pushes = gen::push_sequence(seed, STEP_REQUESTS / FINGERPRINTS);
    let defaults = ServiceConfig::default();
    let mut store =
        SegmentStore::open(dir, defaults.batch_size, defaults.compact_threshold).map_err(err)?;
    let (mut plain, mut seal, mut compact) = (Vec::new(), Vec::new(), Vec::new());
    let (mut user_bytes, mut written) = (0u64, 0u64);
    let mut files = segment_files(dir)?;
    for p in pushes {
        user_bytes += p.entry.to_json_compact().len() as u64;
        let before = store.stats();
        let t = Instant::now();
        store.append(p.entry).map_err(err)?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        let after = store.stats();
        if after.compactions > before.compactions {
            compact.push(us);
        } else if after.sealed_batches > before.sealed_batches {
            seal.push(us);
        } else {
            plain.push(us);
        }
        if after != before {
            let now = segment_files(dir)?;
            written += now.difference(&files).map(|(_, len)| len).sum::<u64>();
            files = now;
        }
    }
    let stats = store.stats();
    store.flush_all().map_err(err)?;
    drop(store);
    let all: Vec<f64> = sorted(&[plain.clone(), seal.clone(), compact.clone()].concat());
    let replay = time_us(3, || {
        SegmentStore::open(dir, 1, 1).map(|s| s.len()).unwrap_or(0)
    });
    let store = SegmentStore::open(dir, 1, 1).map_err(err)?;
    let fp = gen::fingerprint(0);
    let history = store.history(&fp).map_err(err)?;
    if history.len() != PRELOAD_DEPTH {
        return Err(format!(
            "shard depth {} after replay, expected {PRELOAD_DEPTH}",
            history.len()
        ));
    }
    let latest = store.latest(&fp).map_err(err)?;
    let n = all.len();
    Ok(vec![
        Metric::new(
            "store.append_us.p50",
            median(&all).unwrap_or(f64::NAN),
            "us",
            n,
        ),
        Metric::new(
            "store.append_us.p99",
            percentile(&all, 99.0).unwrap_or(f64::NAN),
            "us",
            n,
        ),
        Metric::new("store.seal_ms", med(&seal) / 1e3, "ms", seal.len()),
        Metric::new("store.compact_ms", med(&compact) / 1e3, "ms", compact.len()),
        Metric::new("store.seals", stats.sealed_batches as f64, "count", 1),
        Metric::new("store.compactions", stats.compactions as f64, "count", 1),
        Metric::new(
            "store.bytes_written_per_user_byte",
            written as f64 / user_bytes as f64,
            "ratio",
            n,
        ),
        Metric::new("store.replay_ms", med(&replay) / 1e3, "ms", replay.len()),
        Metric::new(
            "store.history_us",
            med(&time_us(REPS, || store.history(&fp).map(|h| h.len()))),
            "us",
            REPS,
        ),
        Metric::new(
            "store.latest_us",
            med(&time_us(REPS, || store.latest(&fp).is_ok())),
            "us",
            REPS,
        ),
        Metric::new(
            "proto.history_reply_us",
            med(&time_us(REPS, || {
                proto::history_reply(&history, "lat_syscall", "")
                    .points
                    .len()
            })),
            "us",
            REPS,
        ),
        Metric::new(
            "proto.diff_reply_us",
            med(&time_us(REPS, || proto::diff_reply(&history).runs)),
            "us",
            REPS,
        ),
        Metric::new(
            "proto.table_reply_us",
            med(&time_us(REPS, || proto::table_reply(latest.as_ref()).found)),
            "us",
            REPS,
        ),
    ])
}

/// `query.*`: unloaded, closed-loop calls per operation against a daemon
/// over the store [`store`] left behind (depth 128).
fn queries(dir: &Path) -> Out {
    let service = ResultsService::start(ServiceConfig {
        data_dir: dir.to_path_buf(),
        ..ServiceConfig::default()
    })
    .map_err(err)?;
    let mut client = ReportClient::new(format!("127.0.0.1:{}", service.tcp_port()));
    let fp = gen::fingerprint(1);
    let n = REPS / 2;
    let ms = |v: Vec<f64>| med(&v) / 1e3;
    let out = vec![
        Metric::new(
            "query.history_p50_ms",
            ms(time_us(n, || {
                client.history(&fp, "lat_syscall", "").is_ok()
            })),
            "ms",
            n,
        ),
        Metric::new(
            "query.diff_p50_ms",
            ms(time_us(n, || client.diff(&fp).is_ok())),
            "ms",
            n,
        ),
        Metric::new(
            "query.table_p50_ms",
            ms(time_us(n, || client.table(&fp).is_ok())),
            "ms",
            n,
        ),
    ];
    drop(client);
    service.shutdown().map_err(err)?;
    Ok(out)
}

/// The ladder: null syscall → TCP round trip → RPC round trip → push →
/// push + flush, each rung with its increment over the one below.
fn ladder(seed: u64, dir: &Path) -> Out {
    let h = Harness::new(Options::quick());
    let syscall = lmb_proc::syscall::measure_write_devnull(&h).as_micros();
    let tcp = lmb_ipc::measure_tcp_latency(&h, 500).as_micros();
    let registry = lmb_rpc::Registry::new();
    let server = lmb_rpc::RpcServer::start(registry.clone()).map_err(err)?;
    server.register(
        lmb_rpc::ECHO_PROGRAM,
        lmb_rpc::ECHO_VERSION,
        lmb_rpc::ECHO_PROC,
        Box::new(Ok::<Bytes, ()>),
    );
    let rpc = lmb_rpc::client::measure_rpc_latency(&h, &registry, lmb_rpc::Protocol::Tcp, 500)
        .as_micros();
    drop(server);

    let service = ResultsService::start(ServiceConfig {
        data_dir: dir.to_path_buf(),
        ..ServiceConfig::default()
    })
    .map_err(err)?;
    let mut client = ReportClient::new(format!("127.0.0.1:{}", service.tcp_port()));
    let mut rng = Rng::new(seed ^ 0x1ADD);
    let entry = Baseline::now(
        &gen::fingerprint(0),
        "perfbench-host",
        gen::report(&mut rng, 1),
    );
    client.stats().map_err(err)?;
    let push = med(&time_us(REPS, || client.push(entry.clone()).is_ok()));
    let push_flush = med(&time_us(REPS / 2, || {
        client.push(entry.clone()).is_ok() && service.flush().is_ok()
    }));
    drop(client);
    service.shutdown().map_err(err)?;

    let rungs = [
        ("syscall", syscall),
        ("tcp_rtt", tcp),
        ("rpc_rtt", rpc),
        ("push", push),
        ("push_flush", push_flush),
    ];
    let mut out = vec![Metric::new("ladder.syscall_us", syscall, "us", 1)];
    for pair in rungs.windows(2) {
        let ((_, below), (name, us)) = (pair[0], pair[1]);
        out.push(Metric::new(format!("ladder.{name}_us"), us, "us", 1));
        out.push(Metric::new(
            format!("ladder.{name}_inc_us"),
            us - below,
            "us",
            1,
        ));
    }
    Ok(out)
}

/// `engine` and `scale` on virtual time: one `run_scenario` and one
/// `run_load_scenario`.
fn sim(seed: u64) -> Out {
    let first = seed.wrapping_mul(1 << 20);
    let mut s = first;
    let suite = time_us(REPS / 2, || {
        s = s.wrapping_add(1);
        run_scenario(&Scenario::from_seed(s)).report.records.len()
    });
    let mut s = first;
    let sweep = time_us(REPS / 4, || {
        s = s.wrapping_add(1);
        run_load_scenario(s).records.len()
    });
    Ok(vec![
        Metric::new("engine.sim_suite_us", med(&suite), "us", suite.len()),
        Metric::new("scale.sim_sweep_us", med(&sweep), "us", sweep.len()),
    ])
}

/// The generator's own health with a no-op request: how late a step's
/// sends run when the server costs nothing.
fn generator(tracer: &mut Tracer) -> Vec<Metric> {
    let samples = openloop::run(2000.0, 512, false, tracer, |_, _| true);
    let v = crate::stats::judge(2000.0, &samples, f64::INFINITY);
    vec![
        Metric::new("gen.late_frac", v.late_frac, "ratio", v.samples),
        Metric::new("gen.max_lag_ms", v.max_lag_ms, "ms", v.samples),
    ]
}

/// Runs every layer probe inside its own span.
pub fn battery(seed: u64, root: &Path, tracer: &mut Tracer) -> Out {
    let store_dir = root.join("battery-store");
    let ladder_dir = root.join("battery-ladder");
    let mut out = Vec::new();
    out.extend(tracer.span("battery.results", |_| serde(seed))?);
    out.extend(tracer.span("battery.store", |_| store(seed, &store_dir))?);
    out.extend(tracer.span("battery.query", |_| queries(&store_dir))?);
    out.extend(tracer.span("battery.ladder", |_| ladder(seed, &ladder_dir))?);
    out.extend(tracer.span("battery.sim", |_| sim(seed))?);
    out.extend(tracer.span("battery.gen", generator));
    for dir in [store_dir, ladder_dir] {
        let _ = fs::remove_dir_all(dir);
    }
    Ok(out)
}
