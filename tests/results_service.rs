//! End-to-end drills for the fleet results service: a real `lmbench
//! serve` daemon on an ephemeral port, fed concurrently by many
//! simulated hosts through [`ReportClient`], interrogated through both
//! the client library and the `query` subcommands, and shut down
//! gracefully with a real signal.

use lmbench::core::service::proto::{to_wire, PushRequest};
use lmbench::core::ReportClient;
use lmbench::results::{Baseline, RunReport};
use lmbench::sys::signal::{kill, Signal};
use lmbench::sys::Pid;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lmbench-service-{tag}-{}", std::process::id()))
}

/// A live `lmbench serve` child process.
struct Daemon {
    child: Child,
    port: u16,
}

impl Daemon {
    /// Spawns the daemon on an ephemeral port, reading the port from its
    /// announced `listening on 127.0.0.1:PORT` line.
    fn start(dir: &Path, extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lmbench"))
            .args(["serve", "--dir", dir.to_str().unwrap()])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn lmbench serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("daemon announces its port");
        let port: u16 = line
            .trim()
            .rsplit(':')
            .next()
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("unparseable announce line {line:?}"));
        Daemon { child, port }
    }

    fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// SIGTERM, then wait: graceful shutdown must flush and exit 0.
    fn stop(mut self) {
        kill(Pid(self.child.id() as i32), Signal::Term).expect("signal the daemon");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait().expect("wait on daemon") {
                Some(status) => {
                    assert!(status.success(), "daemon exited {status:?}");
                    break;
                }
                None if Instant::now() > deadline => panic!("daemon ignored SIGTERM"),
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The checked-in v1 report, the payload every simulated host pushes.
fn fixture_report() -> RunReport {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/v1-runreport.json"
    );
    RunReport::from_json(&std::fs::read_to_string(path).expect("fixture readable"))
        .expect("fixture parses")
}

/// One simulated run: the fixture report with the syscall latency scaled,
/// stamped with a synthetic fingerprint and capture time.
fn entry(fingerprint: &str, seconds: u64, scale: f64) -> Baseline {
    let mut report = fixture_report();
    for rec in &mut report.records {
        for m in &mut rec.metrics {
            m.value *= scale;
        }
        // Pin the quality grade so the differ gates on value, not on how
        // noisy the machine that generated the fixture was.
        if let Some(p) = rec.provenance.as_mut() {
            p.quality = "good".into();
            p.cv = p.cv.min(0.05);
        }
    }
    let mut b = Baseline::now(fingerprint, &format!("sim-{fingerprint}"), report);
    b.unix_seconds = seconds;
    b
}

fn query(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lmbench"))
        .arg("query")
        .args(args)
        .output()
        .expect("spawn lmbench query")
}

const HOSTS: usize = 50;
const RUNS_PER_HOST: u64 = 4;

#[test]
fn fleet_ingest_is_complete_ordered_and_survives_restart() {
    let dir = temp_path("fleet");
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(&dir, &["--batch", "2", "--compact", "3"]);
    let addr = daemon.addr();

    // 50 hosts x 4 runs = 200 concurrent pushes, 10 client threads each
    // owning 5 hosts. Per host the pushes are serial, so the daemon's
    // acks must count that host's shard 1..=4 with no loss or tearing.
    let threads: Vec<_> = (0..10)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = ReportClient::new(addr);
                for h in 0..HOSTS / 10 {
                    let fp = format!("sim-{:02}-{h}", t);
                    for run in 1..=RUNS_PER_HOST {
                        let reply = client
                            .push(entry(&fp, run * 100, 1.0))
                            .expect("push succeeds");
                        assert_eq!(reply.fingerprint, fp);
                        assert_eq!(reply.shard_seq, run, "acks count the shard");
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    // Every host's series is complete and time-ordered.
    let mut client = ReportClient::new(addr.clone());
    for t in 0..10 {
        for h in 0..HOSTS / 10 {
            let fp = format!("sim-{:02}-{h}", t);
            let diff = client.diff(&fp).expect("diff answers");
            assert!(diff.found, "{fp}: diff needs two runs");
            assert_eq!(diff.runs, RUNS_PER_HOST, "{fp}: lost writes");
            assert_eq!(diff.regressions, 0, "{fp}: identical payloads");
            let hist = client
                .history(&fp, "lat_syscall", "")
                .expect("history answers");
            let seconds: Vec<u64> = hist.points.iter().map(|p| p.unix_seconds).collect();
            assert_eq!(seconds, vec![100, 200, 300, 400], "{fp}");
        }
    }

    // The daemon's own accounting reconciles exactly with what the fleet
    // sent: 200 pushes whose wire bytes we can recompute client-side,
    // plus the 50 diff and 50 history queries above, zero errors.
    let expected_push_bytes: u64 = (0..10)
        .flat_map(|t| (0..HOSTS / 10).map(move |h| format!("sim-{:02}-{h}", t)))
        .flat_map(|fp| {
            (1..=RUNS_PER_HOST).map(move |run| {
                to_wire(&PushRequest {
                    entry: entry(&fp, run * 100, 1.0),
                })
                .len() as u64
            })
        })
        .sum();
    let stats = client.stats().expect("stats answers");
    let row = |name: &str| {
        stats
            .procedures
            .iter()
            .find(|p| p.procedure == name)
            .unwrap_or_else(|| panic!("no {name} row"))
    };
    assert_eq!(row("push").calls, (HOSTS as u64) * RUNS_PER_HOST);
    assert_eq!(row("push").errors, 0);
    assert_eq!(
        row("push").bytes_in,
        expected_push_bytes,
        "daemon byte accounting disagrees with what clients sent"
    );
    assert_eq!(row("diff").calls, HOSTS as u64);
    assert_eq!(row("history").calls, HOSTS as u64);
    assert_eq!(row("table").calls, 0);
    assert_eq!(row("stats").calls, 1, "the stats call counts itself");
    assert_eq!(stats.store.hosts, HOSTS as u64);
    assert_eq!(stats.store.runs, (HOSTS as u64) * RUNS_PER_HOST);
    assert_eq!(stats.store.replayed_runs, 0, "fresh store replayed nothing");
    drop(client);

    // Graceful SIGTERM: pending batches sealed, exit 0.
    daemon.stop();

    // Compaction kept every shard's on-disk footprint bounded.
    for t in 0..10 {
        for h in 0..HOSTS / 10 {
            let fp = format!("sim-{:02}-{h}", t);
            let segments = std::fs::read_dir(&dir)
                .expect("data dir")
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_string_lossy()
                        .starts_with(&format!("{fp}."))
                })
                .count();
            assert!(segments >= 1, "{fp}: flushed to disk");
            assert!(segments <= 4, "{fp}: segments unbounded ({segments})");
        }
    }

    // A restarted daemon replays the directory into the same fleet.
    let daemon = Daemon::start(&dir, &["--batch", "2", "--compact", "3"]);
    let mut client = ReportClient::new(daemon.addr());
    for t in 0..10 {
        for h in 0..HOSTS / 10 {
            let fp = format!("sim-{:02}-{h}", t);
            let hist = client
                .history(&fp, "lat_syscall", "")
                .expect("history after restart");
            assert_eq!(hist.points.len(), RUNS_PER_HOST as usize, "{fp}");
        }
    }
    // Request counters start over with the process; the store stats
    // remember the replayed fleet.
    let stats = client.stats().expect("stats after restart");
    let push_row = stats
        .procedures
        .iter()
        .find(|p| p.procedure == "push")
        .expect("push row");
    assert_eq!(push_row.calls, 0, "a fresh daemon has taken no pushes");
    assert_eq!(stats.store.hosts, HOSTS as u64);
    assert_eq!(stats.store.runs, (HOSTS as u64) * RUNS_PER_HOST);
    assert_eq!(
        stats.store.replayed_runs,
        (HOSTS as u64) * RUNS_PER_HOST,
        "restart replays the whole directory"
    );
    drop(client);
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_ingest_sequences_answer_byte_identically() {
    // Two fresh daemons fed the same sequential pushes must answer every
    // query with the same bytes: nothing in a reply may depend on daemon
    // wall-clock, port, or process identity.
    let answers: Vec<Vec<u8>> = (0..2)
        .map(|instance| {
            let dir = temp_path(&format!("determinism-{instance}"));
            let _ = std::fs::remove_dir_all(&dir);
            let daemon = Daemon::start(&dir, &["--batch", "2", "--compact", "3"]);
            let mut client = ReportClient::new(daemon.addr());
            for h in 0..3 {
                let fp = format!("det-{h}");
                for run in 1..=4u64 {
                    let scale = if run == 4 { 10.0 } else { 1.0 };
                    client.push(entry(&fp, run * 100, scale)).expect("push");
                }
            }
            drop(client);
            let mut transcript = Vec::new();
            for h in 0..3 {
                let fp = format!("det-{h}");
                for args in [
                    vec!["diff", "--json", "--fingerprint", &fp],
                    vec!["diff", "--fingerprint", &fp],
                    vec!["history", "lat_syscall", "--fingerprint", &fp],
                    vec!["table", "--fingerprint", &fp],
                ] {
                    let mut full = args.clone();
                    let addr = daemon.addr();
                    full.extend(["--to", &addr]);
                    transcript.extend_from_slice(&query(&full).stdout);
                }
            }
            // The stats reply is part of the determinism contract too: it
            // is built only from request counters and store totals, so two
            // daemons that served the same sequence must agree on it —
            // including the stats call counting itself.
            let addr = daemon.addr();
            for args in [
                vec!["stats", "--to", &addr],
                vec!["stats", "--json", "--to", &addr],
            ] {
                transcript.extend_from_slice(&query(&args).stdout);
            }
            daemon.stop();
            let _ = std::fs::remove_dir_all(&dir);
            transcript
        })
        .collect();
    assert!(!answers[0].is_empty(), "queries produced output");
    assert_eq!(
        answers[0], answers[1],
        "same ingest sequence, different answers"
    );
}

#[test]
fn query_diff_gates_a_scripted_regression() {
    let dir = temp_path("gate");
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(&dir, &[]);
    let addr = daemon.addr();

    let mut client = ReportClient::new(addr.clone());
    client.push(entry("gate-fp", 100, 1.0)).expect("base push");
    client
        .push(entry("gate-fp", 200, 10.0))
        .expect("regressed push");
    drop(client);

    // 10x slower latest run: the daemon's diff gates like `lmbench diff`.
    let out = query(&["diff", "--to", &addr, "--fingerprint", "gate-fp"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "regression not gated:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("regressed"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Unknown fingerprints and too-short series are a distinct exit code.
    let out = query(&["diff", "--to", &addr, "--fingerprint", "nobody"]);
    assert_eq!(out.status.code(), Some(3));
    let out = query(&[
        "history",
        "lat_syscall",
        "--to",
        &addr,
        "--fingerprint",
        "nobody",
    ]);
    assert_eq!(out.status.code(), Some(3));

    // An unreachable daemon is an error, not a hang: the client's bounded
    // retry/backoff gives up and the CLI reports it.
    daemon.stop();
    let out = query(&["table", "--to", &addr, "--fingerprint", "gate-fp"]);
    assert_eq!(out.status.code(), Some(3));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn push_subcommand_round_trips_a_report_file() {
    let dir = temp_path("pushfile");
    let _ = std::fs::remove_dir_all(&dir);
    let daemon = Daemon::start(&dir, &[]);
    let addr = daemon.addr();

    // The v1 fixture file pushes as-is: tolerant deserialize on the way
    // in, identity defaulted from --fingerprint.
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/v1-runreport.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_lmbench"))
        .args(["report", "push", fixture])
        .args(["--to", &addr])
        .args(["--fingerprint", "file-fp", "--at", "100"])
        .output()
        .expect("spawn lmbench report push");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("pushed to file-fp as run 1"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );

    let out = query(&["table", "--to", &addr, "--fingerprint", "file-fp"]);
    assert!(out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("lat_syscall"),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pushed fingerprint names the shard's segment files, so one that is
/// not a plain file name must be refused, not written outside `--dir`.
#[test]
fn push_with_an_escaping_fingerprint_fails_and_writes_nothing() {
    let root = temp_path("escape");
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("data");
    let daemon = Daemon::start(&dir, &["--batch", "2"]);
    let addr = daemon.addr();
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/v1-runreport.json"
    );
    let push = |fingerprint: &str| {
        Command::new(env!("CARGO_BIN_EXE_lmbench"))
            .args(["report", "push", fixture, "--to", &addr])
            .args(["--fingerprint", fingerprint])
            .output()
            .expect("spawn lmbench report push")
    };
    let out = push("../escaped");
    assert!(!out.status.success(), "{out:?}");
    assert!(push("fleet-host-00ab54cd12ef3401").status.success());
    // Shutdown seals the pending batch, which an accepted escape would
    // have joined.
    daemon.stop();
    let names = |dir: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|d| d.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    assert_eq!(names(&root), ["data"]);
    assert_eq!(
        names(&dir),
        ["fleet-host-00ab54cd12ef3401.000000.seg.jsonl"]
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn the_audit_log_ends_with_the_daemons_own_books() {
    let dir = temp_path("audit");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let log = dir.join("audit.jsonl");
    let daemon = Daemon::start(&dir.join("data"), &["--trace", log.to_str().unwrap()]);

    // One client, one dial, every call on that connection.
    let (pushes, diffs, histories, tables, stats) = (3u64, 2u64, 1u64, 1u64, 1u64);
    let mut client = ReportClient::new(daemon.addr());
    for run in 1..=pushes {
        client
            .push(entry("audit-fp", run * 100, 1.0))
            .expect("push");
    }
    for _ in 0..diffs {
        client.diff("audit-fp").expect("diff");
    }
    for _ in 0..histories {
        client
            .history("audit-fp", "lat_syscall", "")
            .expect("history");
    }
    for _ in 0..tables {
        client.table("audit-fp").expect("table");
    }
    for _ in 0..stats {
        client.stats().expect("stats");
    }
    drop(client);
    daemon.stop();

    let text = std::fs::read_to_string(&log).expect("audit log written");
    let events = lmbench::trace::parse_jsonl(&text).expect("audit log parses");
    let last = events.last().expect("audit log is not empty");
    let lmbench::trace::EventKind::MetricsSnapshot { counters } = &last.kind else {
        panic!("the last line is {:?}, not a metrics_snapshot", last.kind);
    };
    let row = |name: &str| {
        *counters
            .get(name)
            .unwrap_or_else(|| panic!("no {name} row"))
    };
    assert_eq!(row("rpc.connections"), 1, "the client dialled once");
    assert_eq!(
        row("rpc.requests"),
        pushes + diffs + histories + tables + stats
    );
    assert_eq!(row("rpc.faults"), 0);
    for (procedure, calls) in [
        ("push", pushes),
        ("diff", diffs),
        ("history", histories),
        ("table", tables),
        ("stats", stats),
    ] {
        assert_eq!(
            row(&format!("service.{procedure}.calls")),
            calls,
            "{procedure}"
        );
        assert_eq!(
            row(&format!("service.{procedure}.errors")),
            0,
            "{procedure}"
        );
        assert_eq!(
            row(&format!("service.{procedure}.latency_us.count")),
            calls,
            "{procedure}"
        );
    }
    assert_eq!(
        row("service.replay_ms.count"),
        1,
        "the store replays at open"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_rejects_a_zero_batch_and_a_non_numeric_compaction_threshold() {
    for (flag, value) in [("--batch", "0"), ("--compact", "x")] {
        let dir = temp_path(&format!("bad-flag{flag}"));
        let mut child = Command::new(env!("CARGO_BIN_EXE_lmbench"))
            .args(["serve", "--dir", dir.to_str().unwrap(), flag, value])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn lmbench serve");
        // A daemon that accepted the value would listen until killed.
        let deadline = Instant::now() + Duration::from_secs(5);
        let status = loop {
            match child.try_wait().expect("wait on serve") {
                Some(status) => break Some(status),
                None if Instant::now() > deadline => break None,
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        };
        let Some(status) = status else {
            let _ = child.kill();
            let _ = child.wait();
            panic!("serve {flag} {value} started instead of exiting");
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
        assert_eq!(status.code(), Some(2), "serve {flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{stderr}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
