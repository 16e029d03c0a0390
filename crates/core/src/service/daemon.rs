//! The results daemon: lmb-rpc dispatch wired to the segment store.

use super::proto::{
    self, DiffRequest, HistoryRequest, ProcedureStats, PushReply, PushRequest, StatsRequest,
    TableRequest,
};
use super::store::SegmentStore;
use bytes::Bytes;
use lmb_metrics::{Counter, Histogram, Rows};
use lmb_results::{Baseline, ReportStore};
use lmb_rpc::{
    Registry, RpcMetrics, RpcServer, RESULTS_PROC_DIFF, RESULTS_PROC_HISTORY, RESULTS_PROC_PUSH,
    RESULTS_PROC_STATS, RESULTS_PROC_TABLE, RESULTS_PROGRAM, RESULTS_VERSION,
};
use lmb_sys::signal::{install_handler, Signal};
use lmb_trace::{ContextGuard, EventKind, SpanId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One procedure's books: request accounting for the versioned `query
/// stats` reply, and handler latency for the audit log. The daemon's
/// `register` wrapper records every call into them.
#[derive(Default)]
struct ProcCounters {
    calls: Counter,
    errors: Counter,
    bytes_in: Counter,
    latency_us: Histogram,
}

impl ProcCounters {
    fn row(&self, procedure: &str) -> ProcedureStats {
        ProcedureStats {
            procedure: procedure.to_string(),
            calls: self.calls.get(),
            errors: self.errors.get(),
            bytes_in: self.bytes_in.get(),
        }
    }
}

/// The daemon's one metrics value: its procedures' books and the
/// instruments of the RPC server it runs. Owned by the service, so two
/// daemons in one process never mix their stats replies or audit logs.
#[derive(Default)]
struct ServiceMetrics {
    push: Arc<ProcCounters>,
    diff: Arc<ProcCounters>,
    history: Arc<ProcCounters>,
    table: Arc<ProcCounters>,
    stats: Arc<ProcCounters>,
    rpc: Arc<RpcMetrics>,
}

impl ServiceMetrics {
    fn procedures(&self) -> [(&'static str, &ProcCounters); 5] {
        [
            ("push", &self.push),
            ("diff", &self.diff),
            ("history", &self.history),
            ("table", &self.table),
            ("stats", &self.stats),
        ]
    }

    fn procedure_rows(&self) -> Vec<ProcedureStats> {
        self.procedures()
            .into_iter()
            .map(|(name, p)| p.row(name))
            .collect()
    }
}

/// A shard's `diff` and `table` replies, already encoded for the wire,
/// each with the count its `query` trace event carries, and the length of
/// the series they answer.
#[derive(Default)]
struct CachedReplies {
    runs: usize,
    diff: Option<(Bytes, u64)>,
    table: Option<(Bytes, u64)>,
}

/// What the request handlers share under one lock: the store, and the
/// newest encoded `diff` and `table` replies per shard.
struct Shared {
    store: SegmentStore,
    replies: HashMap<String, CachedReplies>,
}

impl Shared {
    /// The wire `diff` reply for `fingerprint` and its regression count.
    fn diff(&mut self, fingerprint: &str) -> io::Result<(Bytes, u64)> {
        self.memo(
            fingerprint,
            |c| &mut c.diff,
            |history| {
                let reply = proto::diff_reply(history);
                (proto::to_wire(&reply), u64::from(reply.regressions))
            },
        )
    }

    /// The wire `table` reply for `fingerprint` and its line count.
    fn table(&mut self, fingerprint: &str) -> io::Result<(Bytes, u64)> {
        self.memo(
            fingerprint,
            |c| &mut c.table,
            |history| {
                let reply = proto::table_reply(history.last());
                (proto::to_wire(&reply), reply.text.lines().count() as u64)
            },
        )
    }

    /// The reply `build` makes from `fingerprint`'s series, kept in `slot`
    /// of the shard's cached replies.
    ///
    /// The store is append-only, so a shard's length names its state:
    /// every push, even one that sorts into the middle of the series,
    /// grows it. [`proto::diff_reply`] and [`proto::table_reply`] are pure
    /// functions of the series, so a reply cached at the same length is
    /// byte-identical to a fresh one. Only shards that exist get an entry;
    /// unknown fingerprints from clients never grow the map.
    fn memo(
        &mut self,
        fingerprint: &str,
        slot: fn(&mut CachedReplies) -> &mut Option<(Bytes, u64)>,
        build: fn(&[Baseline]) -> (Bytes, u64),
    ) -> io::Result<(Bytes, u64)> {
        let history = self.store.history(fingerprint)?;
        let runs = history.len();
        if runs == 0 {
            return Ok(build(history));
        }
        let cached = match self.replies.get_mut(fingerprint) {
            Some(cached) => cached,
            None => self.replies.entry(fingerprint.to_string()).or_default(),
        };
        if cached.runs != runs {
            *cached = CachedReplies {
                runs,
                ..CachedReplies::default()
            };
        }
        Ok(slot(cached).get_or_insert_with(|| build(history)).clone())
    }
}

/// Tunables for [`ResultsService::start`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Where segment files live.
    pub data_dir: PathBuf,
    /// Pushes buffered per shard before sealing a segment.
    pub batch_size: usize,
    /// Sealed segments per shard before they merge into one.
    pub compact_threshold: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            data_dir: PathBuf::from(".lmbench/service"),
            batch_size: 8,
            compact_threshold: 4,
        }
    }
}

/// A running ingest/query daemon. Dropping it stops the RPC server;
/// [`ResultsService::shutdown`] additionally seals pending batches first.
pub struct ResultsService {
    server: RpcServer,
    shared: Arc<Mutex<Shared>>,
    metrics: Arc<ServiceMetrics>,
    started: Instant,
    /// The trace [`ResultsService::start`] ran in.
    ctx: SpanId,
}

impl ResultsService {
    /// Opens the store, binds an ephemeral TCP port, and registers the
    /// results procedures on an [`RpcServer`] that records into the
    /// daemon's metrics. The calling thread's trace, if any, is the
    /// daemon's audit log.
    pub fn start(config: ServiceConfig) -> io::Result<ResultsService> {
        let ctx = lmb_trace::current();
        let shared = Arc::new(Mutex::new(Shared {
            store: SegmentStore::open(
                &config.data_dir,
                config.batch_size,
                config.compact_threshold,
            )?,
            replies: HashMap::new(),
        }));
        let metrics = Arc::new(ServiceMetrics::default());
        let server = RpcServer::start_with(Registry::new(), metrics.rpc.clone())?;

        let m = &metrics;
        let s = shared.clone();
        register(&server, &ctx, RESULTS_PROC_PUSH, &m.push, move |args| {
            let bytes = args.len() as u64;
            let req: PushRequest = proto::from_wire(args)?;
            let fingerprint = req.entry.fingerprint.clone();
            let shard_seq = s.lock().store.append(req.entry).map_err(|_| ())?;
            lmb_trace::emit(|| EventKind::Ingest {
                fingerprint: fingerprint.clone(),
                shard_seq,
                bytes,
            });
            Ok(proto::to_wire(&PushReply {
                fingerprint,
                shard_seq,
            }))
        });

        let s = shared.clone();
        register(&server, &ctx, RESULTS_PROC_DIFF, &m.diff, move |args| {
            let req: DiffRequest = proto::from_wire(args)?;
            let (wire, regressions) = s.lock().diff(&req.fingerprint).map_err(|_| ())?;
            note_query("diff", &req.fingerprint, regressions);
            Ok(wire)
        });

        let s = shared.clone();
        register(
            &server,
            &ctx,
            RESULTS_PROC_HISTORY,
            &m.history,
            move |args| {
                let req: HistoryRequest = proto::from_wire(args)?;
                let reply = s
                    .lock()
                    .store
                    .history_reply(&req.fingerprint, &req.bench, &req.metric);
                note_query("history", &req.fingerprint, reply.points.len() as u64);
                Ok(proto::to_wire(&reply))
            },
        );

        let s = shared.clone();
        register(&server, &ctx, RESULTS_PROC_TABLE, &m.table, move |args| {
            let req: TableRequest = proto::from_wire(args)?;
            let (wire, lines) = s.lock().table(&req.fingerprint).map_err(|_| ())?;
            note_query("table", &req.fingerprint, lines);
            Ok(wire)
        });

        let s = shared.clone();
        let books = metrics.clone();
        // `register` counts this call before the handler snapshots, so the
        // reply reflects it: a client that asks twice sees calls go 1 -> 2.
        register(&server, &ctx, RESULTS_PROC_STATS, &m.stats, move |args| {
            let _req: StatsRequest = proto::from_wire(args)?;
            let store_stats = s.lock().store.stats();
            let reply = proto::stats_reply(books.procedure_rows(), store_stats);
            note_query("stats", "", reply.procedures.len() as u64);
            Ok(proto::to_wire(&reply))
        });

        Ok(ResultsService {
            server,
            shared,
            metrics,
            started: Instant::now(),
            ctx,
        })
    }

    /// The TCP port the daemon listens on.
    pub fn tcp_port(&self) -> u16 {
        self.server.tcp_port()
    }

    /// Seals every shard's pending batch to disk.
    pub fn flush(&self) -> io::Result<()> {
        self.shared.lock().store.flush_all()
    }

    /// Emits a `metrics_snapshot` event into the daemon's trace: this
    /// daemon's RPC server (rpc.*), store and procedures (service.*), its
    /// trace's own counts (trace.*) and its uptime. Wall-clock rows live
    /// here — in the audit log — and never in the versioned `query stats`
    /// reply, which stays deterministic.
    pub fn emit_metrics_snapshot(&self) {
        let Some(trace) = self.ctx.trace() else {
            return;
        };
        let mut counters = Rows::new();
        self.metrics.rpc.flatten_into(&mut counters);
        self.shared.lock().store.flatten_into(&mut counters);
        for (name, p) in self.metrics.procedures() {
            p.calls
                .flatten_into(&format!("service.{name}.calls"), &mut counters);
            p.errors
                .flatten_into(&format!("service.{name}.errors"), &mut counters);
            p.bytes_in
                .flatten_into(&format!("service.{name}.bytes_in"), &mut counters);
            p.latency_us
                .flatten_into(&format!("service.{name}.latency_us"), &mut counters);
        }
        let t = trace.stats();
        let own = [t.events, t.bytes, t.writes, t.dropped];
        for (name, value) in ["events", "bytes", "writes", "dropped"]
            .into_iter()
            .zip(own)
        {
            counters.insert(format!("trace.{name}"), value);
        }
        counters.insert(
            "service.uptime_ms".into(),
            self.started.elapsed().as_millis() as u64,
        );
        lmb_trace::emit_in(&self.ctx, || EventKind::MetricsSnapshot { counters });
    }

    /// Flushes, then stops the server (joining its connection threads).
    pub fn shutdown(self) -> io::Result<()> {
        self.emit_metrics_snapshot();
        self.flush()
        // `self.server` drops here, stopping accept/connection threads.
    }
}

/// Registers a results procedure whose handler runs inside `ctx` on
/// whichever connection thread serves the call, booking every call into
/// `books`: calls and bytes before the handler runs, then its error and
/// latency.
fn register(
    server: &RpcServer,
    ctx: &SpanId,
    procedure: u32,
    books: &Arc<ProcCounters>,
    handler: impl Fn(Bytes) -> Result<Bytes, ()> + Send + Sync + 'static,
) {
    let ctx = ctx.clone();
    let books = Arc::clone(books);
    server.register(
        RESULTS_PROGRAM,
        RESULTS_VERSION,
        procedure,
        Box::new(move |args| {
            let _ctx = ContextGuard::enter(&ctx);
            let started = Instant::now();
            books.calls.add(1);
            books.bytes_in.add(args.len() as u64);
            let handled = handler(args);
            if handled.is_err() {
                books.errors.add(1);
            }
            books
                .latency_us
                .record(started.elapsed().as_micros() as u64);
            handled
        }),
    );
}

/// Emits a `query` event; an untraced daemon allocates nothing for it.
fn note_query(procedure: &str, fingerprint: &str, rows: u64) {
    lmb_trace::emit(|| EventKind::Query {
        procedure: procedure.to_string(),
        fingerprint: fingerprint.to_string(),
        rows,
    });
}

/// Set by [`request_shutdown`] when SIGINT or SIGTERM arrives.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn request_shutdown(_sig: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGINT/SIGTERM handlers that flip a flag instead of killing
/// the process, so `lmbench serve` can seal pending segments on the way
/// out. Returns the flag to poll.
pub fn install_shutdown_handler() -> io::Result<&'static AtomicBool> {
    for sig in [Signal::Int, Signal::Term] {
        install_handler(sig, request_shutdown)
            .map_err(|e| io::Error::other(format!("installing {sig:?} handler: {e}")))?;
    }
    Ok(&SHUTDOWN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmb_results::{Baseline, RunReport};
    use lmb_rpc::{CallError, RpcClient, RpcFault};
    use std::sync::atomic::AtomicU64;

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch_config() -> ServiceConfig {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        ServiceConfig {
            data_dir: std::env::temp_dir().join(format!("lmb-daemon-{}-{n}", std::process::id())),
            batch_size: 2,
            compact_threshold: 3,
        }
    }

    fn entry(fingerprint: &str, seconds: u64) -> Baseline {
        let mut b = Baseline::now(fingerprint, "host", RunReport::default());
        b.unix_seconds = seconds;
        b
    }

    #[test]
    fn push_then_query_round_trip() {
        let config = scratch_config();
        let dir = config.data_dir.clone();
        let service = ResultsService::start(config).unwrap();
        let mut client = RpcClient::connect_tcp(
            ("127.0.0.1", service.tcp_port()),
            RESULTS_PROGRAM,
            RESULTS_VERSION,
        )
        .unwrap();

        for s in [10, 20] {
            let reply = client
                .call(
                    RESULTS_PROC_PUSH,
                    proto::to_wire(&PushRequest {
                        entry: entry("fp-a", s),
                    }),
                )
                .unwrap();
            let reply: PushReply = proto::from_wire(reply).unwrap();
            assert_eq!(reply.fingerprint, "fp-a");
            assert_eq!(reply.shard_seq, s / 10);
        }

        let reply = client
            .call(
                RESULTS_PROC_DIFF,
                proto::to_wire(&DiffRequest {
                    fingerprint: "fp-a".into(),
                }),
            )
            .unwrap();
        let diff: super::super::proto::DiffReply = proto::from_wire(reply).unwrap();
        assert!(diff.found);
        assert_eq!(diff.runs, 2);

        let reply = client
            .call(
                RESULTS_PROC_TABLE,
                proto::to_wire(&TableRequest {
                    fingerprint: "missing".into(),
                }),
            )
            .unwrap();
        let table: super::super::proto::TableReply = proto::from_wire(reply).unwrap();
        assert!(!table.found);

        drop(client);
        service.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_reports_per_procedure_and_store_totals() {
        let config = scratch_config();
        let dir = config.data_dir.clone();
        let service = ResultsService::start(config).unwrap();
        let mut client = RpcClient::connect_tcp(
            ("127.0.0.1", service.tcp_port()),
            RESULTS_PROGRAM,
            RESULTS_VERSION,
        )
        .unwrap();

        let mut push_bytes = 0u64;
        for s in [10, 20, 30] {
            let wire = proto::to_wire(&PushRequest {
                entry: entry("fp-s", s),
            });
            push_bytes += wire.len() as u64;
            client.call(RESULTS_PROC_PUSH, wire).unwrap();
        }
        client
            .call(
                RESULTS_PROC_DIFF,
                proto::to_wire(&DiffRequest {
                    fingerprint: "fp-s".into(),
                }),
            )
            .unwrap();

        let ask = || proto::to_wire(&StatsRequest::default());
        let reply = client.call(RESULTS_PROC_STATS, ask()).unwrap();
        let stats: super::super::proto::StatsReply = proto::from_wire(reply).unwrap();
        assert_eq!(stats.schema_version, lmb_results::SCHEMA_VERSION);

        let row = |name: &str| {
            stats
                .procedures
                .iter()
                .find(|p| p.procedure == name)
                .unwrap_or_else(|| panic!("no {name} row"))
                .clone()
        };
        assert_eq!(row("push").calls, 3);
        assert_eq!(row("push").errors, 0);
        assert_eq!(row("push").bytes_in, push_bytes);
        assert_eq!(row("diff").calls, 1);
        // The stats handler counts itself before replying.
        assert_eq!(row("stats").calls, 1);
        assert_eq!(stats.store.hosts, 1);
        assert_eq!(stats.store.runs, 3);
        // batch_size = 2: one sealed batch, one run still pending.
        assert_eq!(stats.store.sealed_batches, 1);

        // A second identical ask advances only the stats row, and the
        // rendered table is deterministic text.
        let reply = client.call(RESULTS_PROC_STATS, ask()).unwrap();
        let again: super::super::proto::StatsReply = proto::from_wire(reply).unwrap();
        assert_eq!(
            again
                .procedures
                .iter()
                .find(|p| p.procedure == "stats")
                .unwrap()
                .calls,
            2
        );
        assert!(again.render().contains("results-service stats"));

        // Malformed stats args count as an error on the stats row.
        match client.call(RESULTS_PROC_STATS, Bytes::from_static(b"garbage!")) {
            Err(CallError::Fault(RpcFault::GarbageArguments)) => {}
            other => panic!("expected GARBAGE_ARGS, got {other:?}"),
        }
        let reply = client.call(RESULTS_PROC_STATS, ask()).unwrap();
        let last: super::super::proto::StatsReply = proto::from_wire(reply).unwrap();
        let stats_row = last
            .procedures
            .iter()
            .find(|p| p.procedure == "stats")
            .unwrap();
        assert_eq!(stats_row.calls, 4);
        assert_eq!(stats_row.errors, 1);

        drop(client);
        service.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run whose one metric is its own capture time, so every pair of
    /// runs diffs to a different table.
    fn timed_entry(fingerprint: &str, seconds: u64) -> Baseline {
        use lmb_results::runreport::{BenchRecord, BenchStatus, MetricValue};
        let mut b = entry(fingerprint, seconds);
        b.report.records.push(BenchRecord {
            name: "lat_syscall".into(),
            produces: "Table 7".into(),
            status: BenchStatus::Ok,
            attempts: 1,
            wall_ms: 1.0,
            exclusive: false,
            provenance: None,
            rusage: None,
            counters: None,
            metrics: vec![MetricValue {
                label: String::new(),
                value: seconds as f64,
                unit: "us".into(),
            }],
            span: None,
        });
        b
    }

    /// Starts a daemon, pushes `seconds` into one shard in order, and
    /// returns it with a connected client.
    fn daemon_with(fingerprint: &str, seconds: &[u64]) -> (ResultsService, RpcClient, PathBuf) {
        let config = scratch_config();
        let dir = config.data_dir.clone();
        let service = ResultsService::start(config).unwrap();
        let mut client = RpcClient::connect_tcp(
            ("127.0.0.1", service.tcp_port()),
            RESULTS_PROGRAM,
            RESULTS_VERSION,
        )
        .unwrap();
        for &s in seconds {
            push(&mut client, timed_entry(fingerprint, s));
        }
        (service, client, dir)
    }

    fn push(client: &mut RpcClient, entry: Baseline) {
        client
            .call(RESULTS_PROC_PUSH, proto::to_wire(&PushRequest { entry }))
            .unwrap();
    }

    fn diff(client: &mut RpcClient, fingerprint: &str) -> Bytes {
        client
            .call(
                RESULTS_PROC_DIFF,
                proto::to_wire(&DiffRequest {
                    fingerprint: fingerprint.into(),
                }),
            )
            .unwrap()
    }

    fn table(client: &mut RpcClient, fingerprint: &str) -> Bytes {
        client
            .call(
                RESULTS_PROC_TABLE,
                proto::to_wire(&TableRequest {
                    fingerprint: fingerprint.into(),
                }),
            )
            .unwrap()
    }

    #[test]
    fn a_mid_series_push_invalidates_the_cached_diff() {
        let (service, mut client, dir) = daemon_with("fp-m", &[100, 300]);
        let stale = diff(&mut client, "fp-m");
        assert_eq!(
            diff(&mut client, "fp-m"),
            stale,
            "unchanged tip, same bytes"
        );
        assert_eq!(service.shared.lock().replies.len(), 1);

        // t=200 sorts between the two: the tip is still t=300, but the
        // run before it is not, and the series grew.
        push(&mut client, timed_entry("fp-m", 200));
        let after = diff(&mut client, "fp-m");
        assert_ne!(after, stale, "served a diff of the old series");
        let reply: super::super::proto::DiffReply = proto::from_wire(after.clone()).unwrap();
        assert!(reply.found);
        assert_eq!(reply.runs, 3);
        let series = [100, 200, 300].map(|s| timed_entry("fp-m", s));
        assert_eq!(
            after,
            proto::to_wire(&proto::diff_reply(&series)),
            "previous must be the t=200 run"
        );

        let (fresh, mut fresh_client, fresh_dir) = daemon_with("fp-m", &[100, 300, 200]);
        assert_eq!(after, diff(&mut fresh_client, "fp-m"), "cached != fresh");

        for (svc, c, d) in [(service, client, dir), (fresh, fresh_client, fresh_dir)] {
            drop(c);
            svc.shutdown().unwrap();
            let _ = std::fs::remove_dir_all(&d);
        }
    }

    #[test]
    fn a_cached_table_answers_as_a_fresh_one_after_each_push() {
        let (service, mut client, dir) = daemon_with("fp-tb", &[100, 300]);
        let first = table(&mut client, "fp-tb");
        assert_eq!(
            table(&mut client, "fp-tb"),
            first,
            "unchanged series, same bytes"
        );
        assert!(service.shared.lock().replies["fp-tb"].table.is_some());

        // A tail push of more records changes the newest run's table; a
        // mid-series push does not, but grows the series all the same.
        let mut series = vec![timed_entry("fp-tb", 100), timed_entry("fp-tb", 300)];
        for (seconds, entry) in [
            (400, labelled_entry("fp-tb", 400)),
            (200, timed_entry("fp-tb", 200)),
        ] {
            push(&mut client, entry.clone());
            series.push(entry);
            series.sort_by_key(|e| e.unix_seconds);
            let fresh = proto::to_wire(&proto::table_reply(series.last()));
            assert_eq!(
                table(&mut client, "fp-tb"),
                fresh,
                "after the push at t={seconds}"
            );
        }
        assert_ne!(first, proto::to_wire(&proto::table_reply(series.last())));

        drop(client);
        service.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A run whose `lat_syscall` record comes twice, its `p99` only in the
    /// second, beside a `bw_mem` record with two labels in another unit.
    fn labelled_entry(fingerprint: &str, seconds: u64) -> Baseline {
        use lmb_results::runreport::MetricValue;
        let mut b = timed_entry(fingerprint, seconds);
        let mut second = b.report.records[0].clone();
        second.metrics[0].label = "p99".into();
        let mut bw = b.report.records[0].clone();
        bw.name = "bw_mem".into();
        bw.metrics[0].unit = "MB/s".into();
        bw.metrics.push(MetricValue {
            label: "p50".into(),
            value: seconds as f64 / 2.0,
            unit: "MB/s".into(),
        });
        b.report.records.extend([second, bw]);
        b
    }

    /// Asks `service` for every (bench, label) history of `fp-h` and
    /// compares each reply with the scan over `series`.
    fn assert_history_matches_the_scan(service: &ResultsService, series: &[Baseline]) {
        let mut client =
            crate::service::ReportClient::new(format!("127.0.0.1:{}", service.tcp_port()));
        for bench in ["lat_syscall", "bw_mem", "lat_missing"] {
            for label in ["", "p50", "p99"] {
                let reply = client.history("fp-h", bench, label).unwrap();
                let scanned = proto::history_reply(series, bench, label);
                assert_eq!(reply, scanned, "{bench}/{label:?}");
            }
        }
    }

    #[test]
    fn history_over_rpc_answers_as_the_scan_after_a_mid_series_push_and_a_reopen() {
        let config = scratch_config();
        let dir = config.data_dir.clone();
        let service = ResultsService::start(config.clone()).unwrap();
        let mut client = RpcClient::connect_tcp(
            ("127.0.0.1", service.tcp_port()),
            RESULTS_PROGRAM,
            RESULTS_VERSION,
        )
        .unwrap();
        for seconds in [100, 300, 400] {
            push(&mut client, labelled_entry("fp-h", seconds));
        }
        // Sorts between the first two runs: every later run moves.
        push(&mut client, labelled_entry("fp-h", 200));
        let series = [100, 200, 300, 400].map(|s| labelled_entry("fp-h", s));
        assert_history_matches_the_scan(&service, &series);
        drop(client);
        service.shutdown().unwrap();

        let reopened = ResultsService::start(config).unwrap();
        assert_history_matches_the_scan(&reopened, &series);
        reopened.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_fingerprints_never_enter_the_diff_cache() {
        let (service, mut client, dir) = daemon_with("fp-k", &[100, 200]);
        for _ in 0..2 {
            let reply: super::super::proto::DiffReply =
                proto::from_wire(diff(&mut client, "fp-nobody")).unwrap();
            assert!(!reply.found);
            assert_eq!(reply.runs, 0);
            assert_eq!(
                table(&mut client, "fp-nobody"),
                proto::to_wire(&proto::table_reply(None))
            );
        }
        assert!(service.shared.lock().replies.is_empty());
        drop(client);
        service.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Records the thread each event was delivered on.
    #[derive(Clone, Default)]
    struct Threads(Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>);

    impl lmb_trace::Sink for Threads {
        fn event(&mut self, _: &lmb_trace::TraceEvent) {
            self.0.lock().unwrap().push(std::thread::current().id());
        }
    }

    #[test]
    fn handler_events_reach_the_trace_the_daemon_started_in() {
        let (sink, threads) = (lmb_trace::MemorySink::shared(), Threads::default());
        let trace = lmb_trace::Trace::new(vec![Box::new(sink.clone()), Box::new(threads.clone())]);
        let config = scratch_config();
        let dir = config.data_dir.clone();
        let service = {
            let _ctx = trace.enter();
            ResultsService::start(config).unwrap()
        };
        let mut client =
            crate::service::ReportClient::new(format!("127.0.0.1:{}", service.tcp_port()));
        client.push(entry("fp-t", 10)).unwrap();
        client.diff("fp-t").unwrap();
        let events = sink.events();
        let count = |want: fn(&EventKind) -> bool| events.iter().filter(|e| want(&e.kind)).count();
        assert_eq!(
            count(|k| matches!(k, EventKind::Ingest { .. })),
            1,
            "{events:?}"
        );
        assert_eq!(
            count(|k| matches!(k, EventKind::Query { .. })),
            1,
            "{events:?}"
        );
        let me = std::thread::current().id();
        assert!(
            threads.0.lock().unwrap().iter().all(|&t| t != me),
            "every event came from an RPC connection thread"
        );

        drop(client);
        service.shutdown().unwrap();
        match &sink.events().last().unwrap().kind {
            EventKind::MetricsSnapshot { counters } => {
                assert_eq!(counters["trace.events"], events.len() as u64);
            }
            other => panic!("want the shutdown metrics_snapshot, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Starts a daemon over `config` in a trace of its own, pushes
    /// `pushes` entries, shuts it down and returns its shutdown
    /// `metrics_snapshot` rows.
    fn audited_run(config: ServiceConfig, pushes: u64) -> lmb_metrics::Rows {
        let sink = lmb_trace::MemorySink::shared();
        let trace = lmb_trace::Trace::new(vec![Box::new(sink.clone())]);
        let service = {
            let _ctx = trace.enter();
            ResultsService::start(config).unwrap()
        };
        let mut client = RpcClient::connect_tcp(
            ("127.0.0.1", service.tcp_port()),
            RESULTS_PROGRAM,
            RESULTS_VERSION,
        )
        .unwrap();
        for s in 1..=pushes {
            push(&mut client, entry("fp-audit", s));
        }
        drop(client);
        service.shutdown().unwrap();
        match sink.events().pop().map(|e| e.kind) {
            Some(EventKind::MetricsSnapshot { counters }) => counters,
            other => panic!("want the shutdown metrics_snapshot, got {other:?}"),
        }
    }

    #[test]
    fn two_daemons_in_one_process_keep_separate_books() {
        let (config_a, config_b) = (scratch_config(), scratch_config());
        let dirs = [config_a.data_dir.clone(), config_b.data_dir.clone()];
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| audited_run(config_a, 3));
            let b = s.spawn(|| audited_run(config_b, 5));
            (a.join().unwrap(), b.join().unwrap())
        });
        for (rows, pushes) in [(&a, 3), (&b, 5)] {
            assert_eq!(rows["rpc.requests"], pushes, "{rows:?}");
            assert_eq!(rows["rpc.connections"], 1, "{rows:?}");
            assert_eq!(rows["service.push.calls"], pushes, "{rows:?}");
            assert_eq!(rows["service.push.latency_us.count"], pushes, "{rows:?}");
            // batch_size = 2, and the snapshot precedes the shutdown flush.
            assert_eq!(rows["service.batch_runs.count"], pushes / 2, "{rows:?}");
        }
        for dir in dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_reopened_store_books_its_replay() {
        let config = scratch_config();
        let dir = config.data_dir.clone();
        let first = audited_run(config.clone(), 4);
        assert_eq!(
            first["service.replay_ms.count"], 1,
            "an empty dir replays too"
        );
        let second = audited_run(config, 0);
        assert_eq!(second["service.replay_ms.count"], 1, "{second:?}");
        assert_eq!(second["service.push.calls"], 0, "{second:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sorted file names in `dir`.
    fn names(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|d| d.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_fingerprint_that_is_no_file_name_is_refused() {
        let mut config = scratch_config();
        let root = config.data_dir.clone();
        config.data_dir = root.join("data");
        let service = ResultsService::start(config).unwrap();
        let mut client = RpcClient::connect_tcp(
            ("127.0.0.1", service.tcp_port()),
            RESULTS_PROGRAM,
            RESULTS_VERSION,
        )
        .unwrap();
        let refused = ["../escaped", "", ".hidden", "a/b"];
        for fingerprint in refused {
            let wire = proto::to_wire(&PushRequest {
                entry: entry(fingerprint, 10),
            });
            match client.call(RESULTS_PROC_PUSH, wire) {
                Err(CallError::Fault(RpcFault::GarbageArguments)) => {}
                other => panic!("{fingerprint:?}: expected a refusal, got {other:?}"),
            }
        }
        // The daemon keeps answering, and books each refusal as an error.
        push(&mut client, entry("fp-ok_1.a", 10));
        let reply = client
            .call(RESULTS_PROC_STATS, proto::to_wire(&StatsRequest::default()))
            .unwrap();
        let stats: super::super::proto::StatsReply = proto::from_wire(reply).unwrap();
        let row = stats.procedures.iter().find(|p| p.procedure == "push");
        let row = row.expect("push row");
        assert_eq!(
            (row.calls, row.errors),
            (refused.len() as u64 + 1, refused.len() as u64)
        );
        assert_eq!((stats.store.hosts, stats.store.runs), (1, 1));

        // Shutdown seals every pending batch: only the accepted one lands.
        drop(client);
        service.shutdown().unwrap();
        assert_eq!(names(&root), ["data"]);
        assert_eq!(names(&root.join("data")), ["fp-ok_1.a.000000.seg.jsonl"]);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_push_nested_too_deep_is_garbage_and_the_daemon_answers_on() {
        let config = scratch_config();
        let dir = config.data_dir.clone();
        let service = ResultsService::start(config).unwrap();
        let mut client = RpcClient::connect_tcp(
            ("127.0.0.1", service.tcp_port()),
            RESULTS_PROGRAM,
            RESULTS_VERSION,
        )
        .unwrap();
        let deep = "[".repeat(100_000);
        // Nested where the entry belongs, and under a key no type reads.
        for body in [deep.clone(), format!(r#"{{"entry":{{"junk":{deep}"#)] {
            let mut e = lmb_rpc::XdrEncoder::new();
            e.put_string(&body);
            match client.call(RESULTS_PROC_PUSH, e.finish()) {
                Err(CallError::Fault(RpcFault::GarbageArguments)) => {}
                other => panic!("expected GARBAGE_ARGS, got {other:?}"),
            }
            push(&mut client, entry("fp-deep", 10));
        }
        drop(client);
        service.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_args_fault_instead_of_crashing() {
        let config = scratch_config();
        let dir = config.data_dir.clone();
        let service = ResultsService::start(config).unwrap();
        let mut client = RpcClient::connect_tcp(
            ("127.0.0.1", service.tcp_port()),
            RESULTS_PROGRAM,
            RESULTS_VERSION,
        )
        .unwrap();
        // Aligned (the transport checks that) but meaningless as a body.
        match client.call(RESULTS_PROC_PUSH, Bytes::from_static(b"garbage!")) {
            Err(CallError::Fault(RpcFault::GarbageArguments)) => {}
            other => panic!("expected GARBAGE_ARGS, got {other:?}"),
        }
        drop(client);
        service.shutdown().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
