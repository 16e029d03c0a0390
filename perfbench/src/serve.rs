//! `serve_ingest` and `serve_query`: open-loop pushes and queries from
//! one generator thread over one `ReportClient` connection to an
//! in-process `ResultsService` with `ServiceConfig::default()` (batch 8,
//! compact at 4, fsync on every seal). Every step starts from the same
//! state — an empty store for ingest, the same preloaded store for query —
//! and replays the same seeded request sequence at one fixed rate.

use crate::cpu;
use crate::gen::{self, Push, Rng, FINGERPRINTS, FULL_RECORDS, METRIC_LABELS};
use crate::openloop;
use crate::stats::{self, judge, median, sorted, Sample, StepVerdict};
use crate::trace::Tracer;
use crate::{Metric, Pass};
use lmb_core::service::SegmentStore;
use lmb_core::{ReportClient, ResultsService, ServiceConfig};
use lmb_results::{Baseline, ReportStore};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Requests per step: p99 with ten samples beyond it.
pub const STEP_REQUESTS: usize = 1024;

/// Pushes per shard in an ingest step (8 × 128 = [`STEP_REQUESTS`]):
/// 16 seals and 3 compactions per shard.
const INGEST_PER_SHARD: usize = STEP_REQUESTS / FINGERPRINTS;

/// Depth of every shard in the query workload's preloaded store.
pub const PRELOAD_DEPTH: usize = 128;

/// One workload's fixed, absolute offered-rate ladder (requests/s), its
/// reporting rate (the first rung) and its p99 limit.
struct Ladder {
    rates: &'static [f64],
    limit_ms: f64,
}

/// Pushes/s: the reporting rate, then ~10% steps through the knee with
/// headroom above it for faster code. Compaction stalls and fsync, not
/// mean service time, set the knee: one connection held 300–440/s when
/// this was written, and fsync on the shared host drove p99 at 300/s
/// anywhere from 25 to 90 ms, so the limit is 100 ms rather than 50.
const PUSH_LADDER: Ladder = Ladder {
    rates: &[
        300.0, 330.0, 365.0, 400.0, 440.0, 485.0, 535.0, 590.0, 650.0, 715.0, 785.0, 865.0, 950.0,
        1050.0, 1150.0, 1270.0, 1400.0, 1540.0, 1700.0,
    ],
    limit_ms: 100.0,
};

/// Queries/s, the same way (400–440/s met the limit when this was
/// written). The limit is 25 ms: host stalls alone put single steps at
/// 250/s past 10 ms.
const QUERY_LADDER: Ladder = Ladder {
    rates: &[
        250.0, 330.0, 365.0, 400.0, 440.0, 485.0, 535.0, 590.0, 650.0, 715.0, 785.0, 865.0, 950.0,
        1050.0, 1150.0, 1270.0, 1400.0,
    ],
    limit_ms: 25.0,
};

/// Unpaced CPU steps per reporting step.
const CPU_STEPS: usize = 4;

/// What one step saw.
struct Step {
    verdict: StepVerdict,
    samples: Vec<Sample>,
    /// Wrong acks or replies, RPC errors, replay mismatches.
    failed: u64,
    attempted: u64,
    /// Segment-directory bytes after the step ÷ pushed report bytes.
    bytes_per_user_byte: Option<f64>,
}

/// One query-workload request and the reply the generator's model
/// expects.
enum Request {
    History {
        fp: String,
        bench: &'static str,
        metric: &'static str,
        points: usize,
    },
    Diff {
        fp: String,
        runs: u64,
    },
    Table {
        fp: String,
    },
    Push(Box<Push>),
}

impl Request {
    fn kind(&self) -> &'static str {
        match self {
            Request::History { .. } => "history",
            Request::Diff { .. } => "diff",
            Request::Table { .. } => "table",
            Request::Push(_) => "push",
        }
    }
}

/// A workload's inputs, generated at set-up.
pub struct Serve {
    root: PathBuf,
    kind: Kind,
    steps: usize,
}

enum Kind {
    Ingest {
        pushes: Vec<Push>,
        user_bytes: u64,
    },
    Query {
        template: PathBuf,
        requests: Vec<Request>,
    },
}

fn service(dir: &Path) -> io::Result<(ResultsService, ReportClient)> {
    let service = ResultsService::start(ServiceConfig {
        data_dir: dir.to_path_buf(),
        ..ServiceConfig::default()
    })?;
    let mut client = ReportClient::new(format!("127.0.0.1:{}", service.tcp_port()));
    // Dial before the schedule starts; the connection is reused after.
    client
        .stats()
        .map_err(|e| io::Error::other(format!("{e:?}")))?;
    Ok((service, client))
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}

/// `serve_ingest` set-up: the seeded push sequence, and one service
/// start on an empty store.
pub fn setup_ingest(seed: u64, root: &Path) -> Result<Serve, String> {
    let pushes = gen::push_sequence(seed, INGEST_PER_SHARD);
    let user_bytes = pushes
        .iter()
        .map(|p| p.entry.to_json_compact().len() as u64)
        .sum();
    let dir = root.join("setup");
    let (service, client) = service(&dir).map_err(|e| e.to_string())?;
    drop(client);
    service.shutdown().map_err(|e| e.to_string())?;
    fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(Serve {
        root: root.to_path_buf(),
        kind: Kind::Ingest { pushes, user_bytes },
        steps: 0,
    })
}

/// The query workload's model of the store: series length per shard, and
/// runs per (shard, bench) — what `diff.runs` and `history` point counts
/// must be.
#[derive(Default)]
struct Model {
    runs: [u64; FINGERPRINTS],
    has: BTreeMap<(usize, &'static str), usize>,
}

impl Model {
    fn note(&mut self, shard: usize, entry: &Baseline) {
        self.runs[shard] += 1;
        for r in &entry.report.records {
            let name = (0..FULL_RECORDS)
                .map(gen::bench_name)
                .find(|n| *n == r.name)
                .expect("generated names come from the registry list");
            *self.has.entry((shard, name)).or_default() += 1;
        }
    }
}

/// `serve_query` set-up: a store preloaded with 8 fingerprints × 128
/// seeded reports (written through `SegmentStore` directly, one sealed
/// segment per shard), and the seeded request mix with the replies the
/// model expects: 45% history, 30% diff, 15% table, 10% push.
pub fn setup_query(seed: u64, root: &Path) -> Result<Serve, String> {
    let template = root.join("template");
    // A template left by an earlier set-up would be replayed into this one.
    let _ = fs::remove_dir_all(&template);
    let preload = gen::push_sequence(seed, PRELOAD_DEPTH);
    let mut store =
        SegmentStore::open(&template, STEP_REQUESTS, STEP_REQUESTS).map_err(|e| e.to_string())?;
    let mut model = Model::default();
    for p in preload {
        model.note(p.shard, &p.entry);
        store.append(p.entry).map_err(|e| e.to_string())?;
    }
    store.flush_all().map_err(|e| e.to_string())?;
    drop(store);

    let mut rng = Rng::new(seed ^ 0x0051_0E27);
    let first_push_time = 1_700_000_000 + (PRELOAD_DEPTH * FINGERPRINTS) as u64;
    let requests = (0..STEP_REQUESTS)
        .map(|i| {
            let shard = rng.below(FINGERPRINTS);
            let fp = gen::fingerprint(shard);
            let roll = rng.below(100);
            if roll < 45 {
                let bench = gen::bench_name(rng.below(FULL_RECORDS));
                Request::History {
                    fp,
                    bench,
                    metric: METRIC_LABELS[rng.below(METRIC_LABELS.len())],
                    points: model.has.get(&(shard, bench)).copied().unwrap_or(0),
                }
            } else if roll < 75 {
                Request::Diff {
                    fp,
                    runs: model.runs[shard],
                }
            } else if roll < 90 {
                Request::Table { fp }
            } else {
                let records = if rng.below(2) == 0 { 1 } else { FULL_RECORDS };
                let mut entry =
                    Baseline::now(&fp, "perfbench-host", gen::report(&mut rng, records));
                entry.unix_seconds = first_push_time + i as u64;
                model.note(shard, &entry);
                Request::Push(Box::new(Push {
                    entry,
                    shard,
                    expected_seq: model.runs[shard],
                }))
            }
        })
        .collect();

    // One start over the preloaded store: replay is part of set-up.
    let dir = root.join("setup");
    copy_dir(&template, &dir).map_err(|e| e.to_string())?;
    let (service, client) = service(&dir).map_err(|e| e.to_string())?;
    drop(client);
    service.shutdown().map_err(|e| e.to_string())?;
    fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(Serve {
        root: root.to_path_buf(),
        kind: Kind::Query { template, requests },
        steps: 0,
    })
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

impl Serve {
    fn ladder(&self) -> &'static Ladder {
        match self.kind {
            Kind::Ingest { .. } => &PUSH_LADDER,
            Kind::Query { .. } => &QUERY_LADDER,
        }
    }

    fn kinds(&self) -> Vec<&'static str> {
        match &self.kind {
            Kind::Ingest { pushes, .. } => vec!["push"; pushes.len()],
            Kind::Query { requests, .. } => requests.iter().map(Request::kind).collect(),
        }
    }

    /// Runs one step at `rate`, from fresh state; `paired` follows each
    /// request with a call of the CPU reference.
    fn step(&mut self, rate: f64, paired: bool, tracer: &mut Tracer) -> Step {
        self.steps += 1;
        let dir = self.root.join(format!("step-{}", self.steps));
        let limit_ms = self.ladder().limit_ms;
        let out = tracer.span("step", |t| match &self.kind {
            Kind::Ingest { pushes, user_bytes } => {
                ingest_step(pushes, *user_bytes, &dir, rate, paired, t)
            }
            Kind::Query { template, requests } => {
                query_step(template, requests, &dir, rate, paired, t)
            }
        });
        let _ = fs::remove_dir_all(&dir);
        let (samples, failed, attempted, bytes_per_user_byte) = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("perfbench: step at {rate}/s failed: {e}");
                (Vec::new(), 1, 1, None)
            }
        };
        let verdict = judge(rate, &samples, limit_ms);
        Step {
            attempted,
            verdict: StepVerdict {
                meets: verdict.meets && failed == 0,
                ..verdict
            },
            samples,
            failed,
            bytes_per_user_byte,
        }
    }
}

/// A step's samples, failed and attempted checks, and (ingest) the
/// segment-directory bytes per pushed report byte.
type StepResult = io::Result<(Vec<Sample>, u64, u64, Option<f64>)>;

fn ingest_step(
    pushes: &[Push],
    user_bytes: u64,
    dir: &Path,
    rate: f64,
    paired: bool,
    t: &mut Tracer,
) -> StepResult {
    let (service, mut client) = t.span("step.start", |_| service(dir))?;
    // Owned entries built before the schedule starts, so the clone is
    // not timed as part of a push.
    let mut entries: Vec<Option<Baseline>> = pushes.iter().map(|p| Some(p.entry.clone())).collect();
    let samples = openloop::run(rate, pushes.len(), paired, t, |i, t| {
        let entry = entries[i].take().expect("each push is sent once");
        match t.span("client.push", |_| client.push(entry)) {
            Ok(ack) => {
                ack.shard_seq == pushes[i].expected_seq
                    && ack.fingerprint == pushes[i].entry.fingerprint
            }
            Err(_) => false,
        }
    });
    drop(client);
    t.span("step.shutdown", |_| service.shutdown())?;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64
        + t.span("step.verify", |_| verify_replay(pushes, dir))?;
    let attempted = (samples.len() + FINGERPRINTS) as u64;
    let bytes = dir_bytes(dir)? as f64 / user_bytes as f64;
    Ok((samples, failed, attempted, Some(bytes)))
}

/// Reopens the step's directory and checks each shard replays exactly
/// the acked series, in order. Returns the mismatching shard count.
fn verify_replay(pushes: &[Push], dir: &Path) -> io::Result<u64> {
    let store = SegmentStore::open(dir, 1, 1)?;
    let mut bad = 0;
    for shard in 0..FINGERPRINTS {
        let fp = gen::fingerprint(shard);
        let want: Vec<(u64, usize)> = pushes
            .iter()
            .filter(|p| p.shard == shard)
            .map(|p| (p.entry.unix_seconds, p.entry.report.records.len()))
            .collect();
        let got: Vec<(u64, usize)> = store
            .history(&fp)?
            .iter()
            .map(|e| (e.unix_seconds, e.report.records.len()))
            .collect();
        if got != want {
            bad += 1;
        }
    }
    Ok(bad)
}

fn query_step(
    template: &Path,
    requests: &[Request],
    dir: &Path,
    rate: f64,
    paired: bool,
    t: &mut Tracer,
) -> StepResult {
    t.span("step.copy", |_| copy_dir(template, dir))?;
    let (service, mut client) = t.span("step.start", |_| service(dir))?;
    let mut entries: Vec<Option<Baseline>> = requests
        .iter()
        .map(|r| match r {
            Request::Push(p) => Some(p.entry.clone()),
            _ => None,
        })
        .collect();
    let samples = openloop::run(rate, requests.len(), paired, t, |i, t| match &requests[i] {
        Request::History {
            fp,
            bench,
            metric,
            points,
        } => t
            .span("client.history", |_| client.history(fp, bench, metric))
            .is_ok_and(|r| r.found && r.points.len() == *points),
        Request::Diff { fp, runs } => t
            .span("client.diff", |_| client.diff(fp))
            .is_ok_and(|r| r.found && r.runs == *runs),
        Request::Table { fp } => t
            .span("client.table", |_| client.table(fp))
            .is_ok_and(|r| r.found),
        Request::Push(p) => {
            let entry = entries[i].take().expect("each push is sent once");
            t.span("client.push", |_| client.push(entry))
                .is_ok_and(|ack| ack.shard_seq == p.expected_seq)
        }
    });
    drop(client);
    t.span("step.shutdown", |_| service.shutdown())?;
    let failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let attempted = samples.len() as u64;
    Ok((samples, failed, attempted, None))
}

/// Latencies (ms) of the successful samples whose request kind passes
/// `keep`, in request order.
fn latencies<'a>(
    samples: &'a [Sample],
    kinds: &'a [&'static str],
    keep: &'a dyn Fn(&str) -> bool,
) -> impl Iterator<Item = f64> + 'a {
    samples
        .iter()
        .zip(kinds)
        .filter(move |(s, k)| s.ok && keep(k))
        .map(|(s, _)| s.latency_ms())
}

fn step_line(tag: &str, v: &StepVerdict) {
    println!(
        "  {tag:<9} rate {:>7.1}/s  p50 {:>8.3} ms  p99 {:>8.3} ms  late {:>5.3}  max_lag {:>8.3} ms  backlog {:<5}  failed {}  {}",
        v.rate,
        v.p50_ms,
        v.p99_ms,
        v.late_frac,
        v.max_lag_ms,
        v.backlog,
        v.failed,
        if v.meets { "meets" } else { "misses" }
    );
}

/// Untraced measurement: bisects the fixed ladder for the highest rate
/// meeting the p99 limit, then until `seconds` from the start are up (at
/// least one round) alternates a reporting-rate step, whose samples pool
/// into p50/p99, with unpaced CPU steps.
pub fn measure(serve: &mut Serve, seconds: f64, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let ladder = serve.ladder();
    let mut byte_ratios = Vec::new();
    let max_rate = stats::max_rate(ladder.rates, |rate| {
        let step = serve.step(rate, false, tracer);
        step_line("ladder", &step.verdict);
        pass.attempted += step.attempted;
        pass.failed += step.failed;
        byte_ratios.extend(step.bytes_per_user_byte);
        step.verdict.meets
    });
    // None when even the lowest rung misses: printed as 0, never NaN.
    let max_rate = max_rate.unwrap_or(0.0);
    let name = if matches!(serve.kind, Kind::Query { .. }) {
        "query_max_rate"
    } else {
        "push_max_rate"
    };
    pass.named
        .push(Metric::new(name, max_rate, "1/s", ladder.rates.len()));
    reporting(
        serve,
        deadline,
        CPU_STEPS,
        tracer,
        &mut pass,
        &mut byte_ratios,
    );
    pass
}

/// Reporting-rate steps only, for `seconds` (the trace comparison).
pub fn measure_reporting(serve: &mut Serve, seconds: f64, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    reporting(serve, deadline, 0, tracer, &mut pass, &mut Vec::new());
    pass
}

fn reporting(
    serve: &mut Serve,
    deadline: Instant,
    cpu_steps_per_round: usize,
    tracer: &mut Tracer,
    pass: &mut Pass,
    byte_ratios: &mut Vec<f64>,
) {
    let rate = serve.ladder().rates[0];
    let kinds = serve.kinds();
    let mut samples = Vec::new();
    let mut late = Vec::new();
    let mut max_lag: f64 = 0.0;
    let mut cpu_steps = 0;
    'run: loop {
        let step = serve.step(rate, false, tracer);
        step_line("report", &step.verdict);
        pass.attempted += step.attempted;
        pass.failed += step.failed;
        byte_ratios.extend(step.bytes_per_user_byte);
        late.push(step.verdict.late_frac);
        max_lag = max_lag.max(step.verdict.max_lag_ms);
        // Step samples are in request order, so kinds line up per step.
        samples.push(step.samples);
        // The same sequence unpaced, each request followed by one call of
        // the CPU reference, so every request's CPU time is scaled by the
        // host's speed within a millisecond of it: the host's slow and fast
        // modes flip faster than a step lasts. The CPU time counts every
        // seal, compaction and stall.
        for _ in 0..cpu_steps_per_round {
            let step = serve.step(f64::INFINITY, true, tracer);
            pass.attempted += step.attempted;
            pass.failed += step.failed;
            let work: Vec<cpu::Work> = step
                .samples
                .iter()
                .filter_map(|s| {
                    s.slowdown.map(|slowdown| cpu::Work {
                        cpu_s: s.cpu_s,
                        units: 1,
                        slowdown,
                    })
                })
                .collect();
            let raw_ms = work.iter().map(|w| w.cpu_s).sum::<f64>() * 1e3 / work.len() as f64;
            let scaled_ms =
                work.iter().map(cpu::Work::scaled_s).sum::<f64>() * 1e3 / work.len() as f64;
            println!("  cpu       {raw_ms:.4} CPU ms per request, {scaled_ms:.4} scaled");
            pass.cpu.extend(work);
            cpu_steps += 1;
            if Instant::now() >= deadline && cpu_steps >= cpu_steps_per_round {
                break 'run;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    for kind in ["history", "diff", "table", "push"] {
        let ms: Vec<f64> = pass
            .cpu
            .iter()
            .zip(kinds.iter().cycle())
            .filter(|(_, k)| **k == kind)
            .map(|(w, _)| w.ms_per_unit())
            .collect();
        if let Some(m) = median(&sorted(&ms)) {
            pass.named
                .push(Metric::new(format!("cpu_ms_per_{kind}"), m, "ms", ms.len()));
        }
    }
    let pooled = |keep: &dyn Fn(&str) -> bool| -> Vec<f64> {
        sorted(
            &samples
                .iter()
                .flat_map(|s| latencies(s, &kinds, keep))
                .collect::<Vec<_>>(),
        )
    };
    let is_query = matches!(serve.kind, Kind::Query { .. });
    // The workload's own request: a push for ingest, a query for query.
    pass.op_ms = pooled(&|k| (k == "push") != is_query);
    let n = late.len();
    pass.layers.push(Metric::new(
        "gen.late_frac",
        late.iter().sum::<f64>() / n as f64,
        "ratio",
        n,
    ));
    pass.layers
        .push(Metric::new("gen.max_lag_ms", max_lag, "ms", n));
    if is_query {
        // The 10% pushes beside the reads.
        let pushes = pooled(&|k| k == "push");
        for (name, v) in [
            ("push_p50_ms", median(&pushes)),
            ("push_p99_ms", stats::percentile(&pushes, 99.0)),
        ] {
            pass.named
                .push(Metric::new(name, v.unwrap_or(f64::NAN), "ms", pushes.len()));
        }
        for kind in ["history", "diff", "table"] {
            let v = pooled(&|k| k == kind);
            pass.layers.push(Metric::new(
                format!("query.{kind}_p50_ms"),
                median(&v).unwrap_or(f64::NAN),
                "ms",
                v.len(),
            ));
        }
    } else if let Some(b) = median(&sorted(byte_ratios)) {
        pass.named.push(Metric::new(
            "store_bytes_per_user_byte",
            b,
            "ratio",
            byte_ratios.len(),
        ));
    }
}
