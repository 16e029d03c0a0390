//! The fleet-side client: pushes reports and runs queries against a
//! results daemon, retrying transport failures the way the engine
//! retries noisy samples — bounded attempts, growing intervals, then an
//! honest error.

use super::proto::{
    self, DiffReply, DiffRequest, HistoryReply, HistoryRequest, PushReply, PushRequest, StatsReply,
    StatsRequest, TableReply, TableRequest,
};
use bytes::Bytes;
use lmb_results::Baseline;
use lmb_rpc::{
    CallError, RpcClient, RESULTS_PROC_DIFF, RESULTS_PROC_HISTORY, RESULTS_PROC_PUSH,
    RESULTS_PROC_STATS, RESULTS_PROC_TABLE, RESULTS_PROGRAM, RESULTS_VERSION,
};
use lmb_timing::Clock;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How many times a call is attempted before its transport error is
/// surfaced. Mirrors the engine's [`crate::RetryPolicy`] discipline:
/// retries are bounded and visible, never silent and unbounded.
const MAX_ATTEMPTS: u32 = 4;

/// Backoff before attempt `n` (1-based retry): 50ms, 100ms, 200ms.
const BACKOFF_BASE_MS: u64 = 50;

/// Ceiling on any single backoff interval. The exponential schedule is
/// derived from the attempt number, so a raised [`MAX_ATTEMPTS`] must
/// widen the retry window, not the intervals without bound.
const BACKOFF_CAP_MS: u64 = 2_000;

/// Backoff before 1-based retry `attempt`: exponential from
/// [`BACKOFF_BASE_MS`], with the shift exponent clamped (an unclamped
/// `<< (attempt - 1)` overflows — a debug panic or a wrapped, effectively
/// random sleep — as soon as attempts exceed 64) and the interval capped
/// at [`BACKOFF_CAP_MS`].
fn backoff_ms(attempt: u32) -> u64 {
    let shift = (attempt - 1).min(32);
    (BACKOFF_BASE_MS << shift).min(BACKOFF_CAP_MS)
}

/// A connection to a results daemon, lazily established and re-dialed
/// after transport errors.
pub struct ReportClient {
    addr: String,
    conn: Option<RpcClient>,
    clock: Clock,
}

impl ReportClient {
    /// Creates a client for `addr` (`host:port`). No connection is made
    /// until the first call, so constructing one cannot fail.
    pub fn new(addr: impl Into<String>) -> ReportClient {
        ReportClient {
            addr: addr.into(),
            conn: None,
            clock: Clock::Real,
        }
    }

    /// Replaces the clock that paces retry backoff (virtual runs pass
    /// [`Clock::Sim`] so the retry schedule is testable without
    /// real sleeps).
    #[must_use]
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = clock;
        self
    }

    /// The address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Pushes one entry into its host's shard; returns the daemon's ack.
    pub fn push(&mut self, entry: Baseline) -> Result<PushReply, CallError> {
        self.call_json(RESULTS_PROC_PUSH, &PushRequest { entry })
    }

    /// Asks for the newest-vs-previous diff of a host's series.
    pub fn diff(&mut self, fingerprint: &str) -> Result<DiffReply, CallError> {
        self.call_json(
            RESULTS_PROC_DIFF,
            &DiffRequest {
                fingerprint: fingerprint.into(),
            },
        )
    }

    /// Asks for one metric's value across a host's series.
    pub fn history(
        &mut self,
        fingerprint: &str,
        bench: &str,
        metric: &str,
    ) -> Result<HistoryReply, CallError> {
        self.call_json(
            RESULTS_PROC_HISTORY,
            &HistoryRequest {
                fingerprint: fingerprint.into(),
                bench: bench.into(),
                metric: metric.into(),
            },
        )
    }

    /// Asks for the paper tables regenerated from a host's newest run.
    pub fn table(&mut self, fingerprint: &str) -> Result<TableReply, CallError> {
        self.call_json(
            RESULTS_PROC_TABLE,
            &TableRequest {
                fingerprint: fingerprint.into(),
            },
        )
    }

    /// Asks for the daemon's operational statistics: per-procedure request
    /// accounting plus the segment store's ingest-derived totals.
    pub fn stats(&mut self) -> Result<StatsReply, CallError> {
        self.call_json(RESULTS_PROC_STATS, &StatsRequest::default())
    }

    /// Encodes `request`, calls `procedure`, decodes the reply. Transport
    /// errors drop the cached connection, back off, re-dial, and retry up
    /// to [`MAX_ATTEMPTS`]; RPC faults and decode failures are final (the
    /// daemon answered — asking again would get the same answer).
    fn call_json<Req: Serialize, Reply: Deserialize>(
        &mut self,
        procedure: u32,
        request: &Req,
    ) -> Result<Reply, CallError> {
        let wire = proto::to_wire(request);
        let reply = self.call_retrying(procedure, wire)?;
        proto::from_wire(reply).map_err(|_| CallError::BadReply)
    }

    fn call_retrying(&mut self, procedure: u32, args: Bytes) -> Result<Bytes, CallError> {
        let mut last = None;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.clock.sleep(Duration::from_millis(backoff_ms(attempt)));
            }
            let conn = match self.connection() {
                Ok(conn) => conn,
                Err(err) => {
                    last = Some(err);
                    continue;
                }
            };
            match conn.call(procedure, args.clone()) {
                Ok(reply) => return Ok(reply),
                Err(CallError::Io(err)) => {
                    // The connection is in an unknown state; dial fresh.
                    self.conn = None;
                    last = Some(CallError::Io(err));
                }
                Err(final_err) => return Err(final_err),
            }
        }
        Err(last.unwrap_or(CallError::BadReply))
    }

    fn connection(&mut self) -> Result<&mut RpcClient, CallError> {
        if self.conn.is_none() {
            self.conn = Some(RpcClient::connect_tcp(
                self.addr.as_str(),
                RESULTS_PROGRAM,
                RESULTS_VERSION,
            )?);
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmb_rpc::{read_record, write_record, RpcMessage};
    use std::io::Write;
    use std::net::TcpListener;

    #[test]
    fn backoff_exponent_is_clamped_and_capped() {
        assert_eq!(backoff_ms(1), 50);
        assert_eq!(backoff_ms(2), 100);
        assert_eq!(backoff_ms(3), 200);
        assert_eq!(backoff_ms(7), BACKOFF_CAP_MS);
        // Before the clamp this shifted by 199 — an overflow panic in
        // debug builds, a wrapped sleep in release builds.
        assert_eq!(backoff_ms(200), BACKOFF_CAP_MS);
    }

    #[test]
    fn retry_schedule_is_exact_under_virtual_time() {
        // A port that refuses: every attempt fails at dial time, so the
        // only time that passes on a virtual clock is the backoff itself.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let sim = lmb_timing::SimClock::new(7);
        let mut client =
            ReportClient::new(format!("127.0.0.1:{port}")).with_clock(Clock::Sim(sim.clone()));
        assert!(client.diff("fp-a").is_err());
        // 4 attempts sleep 50 + 100 + 200 ms between them, exactly.
        assert_eq!(sim.true_now_ns(), 350.0 * 1e6);
    }

    #[test]
    fn unreachable_daemon_fails_after_bounded_attempts() {
        // A listener that is bound then dropped: the port refuses.
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let mut client = ReportClient::new(format!("127.0.0.1:{port}"));
        match client.diff("fp-a") {
            Err(CallError::Io(_)) => {}
            other => panic!("expected Io after retries, got {other:?}"),
        }
    }

    #[test]
    fn client_survives_a_dropped_first_connection() {
        // A daemon stand-in that accepts, drops the first connection cold,
        // then serves the second properly — the client must reconnect and
        // succeed without the caller noticing.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let server = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            drop(conn); // First connection torn down before any reply.
            let (mut conn, _) = listener.accept().unwrap();
            let call = RpcMessage::decode(read_record(&mut conn).unwrap()).unwrap();
            let xid = call.xid;
            let args = match call.body {
                lmb_rpc::Body::Call(c) => c.args,
                _ => panic!("expected a call"),
            };
            let req: DiffRequest = proto::from_wire(args).unwrap();
            assert_eq!(req.fingerprint, "fp-a");
            let reply = RpcMessage::reply_success(xid, proto::to_wire(&proto::diff_reply(&[])));
            write_record(&mut conn, &reply.encode()).unwrap();
            conn.flush().unwrap();
        });

        let mut client = ReportClient::new(format!("127.0.0.1:{port}"));
        let reply = client.diff("fp-a").unwrap();
        assert!(!reply.found, "empty shard diff from the stand-in");
        server.join().unwrap();
    }
}
