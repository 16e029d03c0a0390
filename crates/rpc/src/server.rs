//! RPC server: dispatch loop over TCP and UDP.
//!
//! A server owns a set of [`Procedure`] handlers keyed by (program,
//! version, procedure); each incoming call is decoded, dispatched, and
//! answered with a success or fault reply. Two TCP service disciplines
//! are available through [`ServerOptions`]:
//!
//! * **Serial** (the default): one connection at a time, matching the
//!   paper's strictly request/response benchmark setup — no thread churn
//!   in the measured path.
//! * **Concurrent**: a thread per accepted connection, for the results
//!   daemon's many-hosts ingest workload, with an optional per-record
//!   byte cap so a buggy or hostile peer cannot balloon memory.

use crate::message::{Body, RpcFault, RpcMessage};
use crate::record::{read_record_limited, write_record};
use crate::registry::{Protocol, Registry};
use bytes::Bytes;
use lmb_metrics::{Counter, Gauge, Histogram, Rows};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::io;
use std::net::{TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A procedure implementation: XDR-encoded args in, XDR-encoded result out.
///
/// Returning `Err` produces a `GARBAGE_ARGS` fault.
pub type Procedure = Box<dyn Fn(Bytes) -> Result<Bytes, ()> + Send + Sync>;

/// A server's own instruments, under `rpc.*` row names. Only a server
/// started with [`ServerOptions::metrics`] set records into them; the
/// benchmark servers (Tables 12–13) carry none, so their echo path
/// touches no instrument at all.
#[derive(Debug, Default)]
pub struct RpcMetrics {
    /// Decoded calls for a known RPC version, answered or faulted.
    pub(crate) requests: Counter,
    /// Fault replies of every kind.
    pub(crate) faults: Counter,
    /// Call bytes received (reassembled records and datagrams).
    pub(crate) bytes_in: Counter,
    /// Reply bytes sent.
    pub(crate) bytes_out: Counter,
    /// TCP connections accepted.
    pub(crate) connections: Counter,
    /// TCP connections being served right now.
    pub(crate) active: Gauge,
    /// Handler time of calls that reached a registered procedure.
    pub(crate) latency_us: Histogram,
}

impl RpcMetrics {
    /// Renders every instrument as `rpc.*` rows.
    pub fn flatten_into(&self, rows: &mut Rows) {
        self.requests.flatten_into("rpc.requests", rows);
        self.faults.flatten_into("rpc.faults", rows);
        self.bytes_in.flatten_into("rpc.bytes_in", rows);
        self.bytes_out.flatten_into("rpc.bytes_out", rows);
        self.connections.flatten_into("rpc.connections", rows);
        self.active.flatten_into("rpc.active_connections", rows);
        self.latency_us.flatten_into("rpc.latency_us", rows);
    }
}

#[derive(Default)]
struct Dispatch {
    procs: HashMap<(u32, u32, u32), Procedure>,
    versions: HashMap<u32, Vec<u32>>,
}

impl Dispatch {
    fn add(&mut self, program: u32, version: u32, procedure: u32, handler: Procedure) {
        self.procs.insert((program, version, procedure), handler);
        let versions = self.versions.entry(program).or_default();
        if !versions.contains(&version) {
            versions.push(version);
        }
    }

    fn answer(&self, call: RpcMessage, metrics: Option<&RpcMetrics>) -> RpcMessage {
        let xid = call.xid;
        let fault = |f: RpcFault| {
            if let Some(m) = metrics {
                m.faults.add(1);
            }
            RpcMessage::reply_fault(xid, f)
        };
        let c = match call.body {
            Body::Call(c) => c,
            Body::Reply(_) => return fault(RpcFault::GarbageArguments),
        };
        if c.program == 0 {
            // The decoder marks wrong-rpc-version calls with program 0.
            return fault(RpcFault::RpcMismatch);
        }
        if let Some(m) = metrics {
            m.requests.add(1);
        }
        let Some(handler) = self.procs.get(&(c.program, c.version, c.procedure)) else {
            return fault(match self.versions.get(&c.program) {
                None => RpcFault::ProgramUnavailable,
                Some(vs) if !vs.contains(&c.version) => RpcFault::VersionMismatch,
                Some(_) => RpcFault::ProcedureUnavailable,
            });
        };
        let started = metrics.map(|_| Instant::now());
        let reply = match handler(c.args) {
            Ok(result) => RpcMessage::reply_success(xid, result),
            Err(()) => fault(RpcFault::GarbageArguments),
        };
        if let (Some(m), Some(t)) = (metrics, started) {
            m.latency_us.record(t.elapsed().as_micros() as u64);
        }
        reply
    }
}

/// Service-discipline knobs for [`RpcServer::start_with`].
#[derive(Debug, Clone, Default)]
pub struct ServerOptions {
    /// Serve each accepted TCP connection on its own thread instead of
    /// one at a time. Connection threads are joined on shutdown.
    pub concurrent: bool,
    /// Largest reassembled TCP record accepted from a peer; larger
    /// records close the connection without being buffered. `None`
    /// keeps the per-fragment cap only (the benchmark default).
    pub max_record_bytes: Option<usize>,
    /// Instruments to record into. `None` (the benchmark default)
    /// records nothing.
    pub metrics: Option<Arc<RpcMetrics>>,
}

/// An RPC server serving registered programs over loopback TCP and UDP.
pub struct RpcServer {
    dispatch: Arc<RwLock<Dispatch>>,
    registry: Registry,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    tcp_port: u16,
    udp_port: u16,
}

impl RpcServer {
    /// Binds loopback TCP and UDP transports and starts their service
    /// threads with the default (serial) discipline. Registered programs
    /// are announced in `registry`.
    pub fn start(registry: Registry) -> io::Result<Self> {
        Self::start_with(registry, ServerOptions::default())
    }

    /// [`RpcServer::start`] with explicit [`ServerOptions`].
    pub fn start_with(registry: Registry, options: ServerOptions) -> io::Result<Self> {
        let dispatch = Arc::new(RwLock::new(Dispatch::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));

        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tcp_port = listener.local_addr()?.port();
        let udp = UdpSocket::bind("127.0.0.1:0")?;
        let udp_port = udp.local_addr()?.port();
        udp.set_read_timeout(Some(std::time::Duration::from_millis(50)))?;

        let udp_metrics = options.metrics.clone();
        let mut threads = Vec::new();
        {
            let dispatch = Arc::clone(&dispatch);
            let stop = Arc::clone(&stop);
            let conn_threads = Arc::clone(&conn_threads);
            threads.push(std::thread::spawn(move || {
                if options.concurrent {
                    tcp_accept_concurrent(&listener, &dispatch, &stop, &conn_threads, &options);
                } else {
                    tcp_loop(&listener, &dispatch, &stop, &options);
                }
            }));
        }
        {
            let dispatch = Arc::clone(&dispatch);
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                udp_loop(&udp, &dispatch, &stop, udp_metrics.as_deref());
            }));
        }

        Ok(Self {
            dispatch,
            registry,
            stop,
            threads,
            conn_threads,
            tcp_port,
            udp_port,
        })
    }

    /// Registers a procedure and announces the program in the registry.
    pub fn register(&self, program: u32, version: u32, procedure: u32, handler: Procedure) {
        let mut d = self.dispatch.write();
        d.add(program, version, procedure, handler);
        drop(d);
        self.registry
            .register(program, version, Protocol::Tcp, self.tcp_port);
        self.registry
            .register(program, version, Protocol::Udp, self.udp_port);
    }

    /// TCP port of this server.
    pub fn tcp_port(&self) -> u16 {
        self.tcp_port
    }

    /// UDP port of this server.
    pub fn udp_port(&self) -> u16 {
        self.udp_port
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the TCP accept with a dummy connection.
        let _ = std::net::TcpStream::connect(("127.0.0.1", self.tcp_port));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Concurrent-mode connection threads notice the stop flag at
        // their next read timeout (bounded at 100 ms).
        for t in self.conn_threads.lock().drain(..) {
            let _ = t.join();
        }
    }
}

fn tcp_loop(
    listener: &TcpListener,
    dispatch: &Arc<RwLock<Dispatch>>,
    stop: &Arc<AtomicBool>,
    options: &ServerOptions,
) {
    while !stop.load(Ordering::Relaxed) {
        let (mut conn, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => continue,
        };
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let _ = conn.set_nodelay(true);
        let _active = ActiveGuard::open(options.metrics.as_deref());
        // Serve this connection until it closes; benchmark clients hold one
        // connection for the whole run.
        let max = options.max_record_bytes.unwrap_or(usize::MAX);
        while let Ok(record) = read_record_limited(&mut conn, max) {
            let Some(encoded) = serve_record(dispatch, options.metrics.as_deref(), record) else {
                break;
            };
            if write_record(&mut conn, &encoded).is_err() {
                break;
            }
        }
    }
}

fn tcp_accept_concurrent(
    listener: &TcpListener,
    dispatch: &Arc<RwLock<Dispatch>>,
    stop: &Arc<AtomicBool>,
    conn_threads: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    options: &ServerOptions,
) {
    while !stop.load(Ordering::Relaxed) {
        let (conn, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => continue,
        };
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let dispatch = Arc::clone(dispatch);
        let stop = Arc::clone(stop);
        let max = options.max_record_bytes.unwrap_or(usize::MAX);
        let metrics = options.metrics.clone();
        conn_threads.lock().push(std::thread::spawn(move || {
            serve_connection(conn, &dispatch, &stop, max, metrics.as_deref());
        }));
    }
}

/// Serves one concurrent-mode connection until the peer closes it, an
/// unrecoverable framing error occurs, or the server stops. The read
/// timeout is only ever hit while *idle between records* with a
/// well-formed peer (a record, once its header arrives, follows
/// immediately on loopback), so timing out and re-checking the stop flag
/// cannot tear a record in practice.
fn serve_connection(
    mut conn: TcpStream,
    dispatch: &Arc<RwLock<Dispatch>>,
    stop: &Arc<AtomicBool>,
    max_record_bytes: usize,
    metrics: Option<&RpcMetrics>,
) {
    let _ = conn.set_nodelay(true);
    let _ = conn.set_read_timeout(Some(std::time::Duration::from_millis(100)));
    let _active = ActiveGuard::open(metrics);
    while !stop.load(Ordering::Relaxed) {
        let record = match read_record_limited(&mut conn, max_record_bytes) {
            Ok(record) => record,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // Idle: re-check the stop flag.
            }
            Err(_) => return, // Closed, torn or oversized: drop the peer.
        };
        let Some(encoded) = serve_record(dispatch, metrics, record) else {
            return;
        };
        if write_record(&mut conn, &encoded).is_err() {
            return;
        }
    }
}

fn udp_loop(
    udp: &UdpSocket,
    dispatch: &Arc<RwLock<Dispatch>>,
    stop: &Arc<AtomicBool>,
    metrics: Option<&RpcMetrics>,
) {
    let mut buf = vec![0u8; 64 << 10];
    while !stop.load(Ordering::Relaxed) {
        let (n, peer) = match udp.recv_from(&mut buf) {
            Ok(x) => x,
            Err(_) => continue, // Timeout: re-check stop flag.
        };
        let datagram = Bytes::copy_from_slice(&buf[..n]);
        // An undecodable datagram is dropped, as real servers do.
        if let Some(encoded) = serve_record(dispatch, metrics, datagram) {
            let _ = udp.send_to(&encoded, peer);
        }
    }
}

/// Decodes one call record, answers it and encodes the reply; `None`
/// when the record does not decode.
fn serve_record(
    dispatch: &RwLock<Dispatch>,
    metrics: Option<&RpcMetrics>,
    record: Bytes,
) -> Option<Bytes> {
    if let Some(m) = metrics {
        m.bytes_in.add(record.len() as u64);
    }
    let call = RpcMessage::decode(record).ok()?;
    let encoded = dispatch.read().answer(call, metrics).encode();
    if let Some(m) = metrics {
        m.bytes_out.add(encoded.len() as u64);
    }
    Some(encoded)
}

/// Counts an accepted TCP connection and holds it in the `active` gauge
/// until dropped, on every exit path of the serving loop.
struct ActiveGuard<'a>(Option<&'a RpcMetrics>);

impl<'a> ActiveGuard<'a> {
    fn open(metrics: Option<&'a RpcMetrics>) -> Self {
        if let Some(m) = metrics {
            m.connections.add(1);
            m.active.add(1);
        }
        ActiveGuard(metrics)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        if let Some(m) = self.0 {
            m.active.add(-1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ReplyBody, RpcFault};

    fn echo_server() -> (RpcServer, Registry) {
        let registry = Registry::new();
        let server = RpcServer::start(registry.clone()).unwrap();
        server.register(
            crate::ECHO_PROGRAM,
            crate::ECHO_VERSION,
            crate::ECHO_PROC,
            Box::new(Ok),
        );
        (server, registry)
    }

    #[test]
    fn server_announces_itself() {
        let (server, registry) = echo_server();
        assert_eq!(
            registry.lookup(crate::ECHO_PROGRAM, crate::ECHO_VERSION, Protocol::Tcp),
            Some(server.tcp_port())
        );
        assert_eq!(
            registry.lookup(crate::ECHO_PROGRAM, crate::ECHO_VERSION, Protocol::Udp),
            Some(server.udp_port())
        );
    }

    #[test]
    fn dispatch_faults_are_specific() {
        let d = {
            let mut d = Dispatch::default();
            d.add(5, 1, 0, Box::new(Ok));
            d
        };
        let fault = |msg: RpcMessage| match d.answer(msg, None).body {
            Body::Reply(ReplyBody::Fault(f)) => f,
            other => panic!("expected fault, got {other:?}"),
        };
        assert_eq!(
            fault(RpcMessage::call(1, 999, 1, 0, Bytes::new())),
            RpcFault::ProgramUnavailable
        );
        assert_eq!(
            fault(RpcMessage::call(1, 5, 9, 0, Bytes::new())),
            RpcFault::VersionMismatch
        );
        assert_eq!(
            fault(RpcMessage::call(1, 5, 1, 7, Bytes::new())),
            RpcFault::ProcedureUnavailable
        );
    }

    #[test]
    fn dispatch_success_echoes() {
        let mut d = Dispatch::default();
        d.add(5, 1, 0, Box::new(Ok));
        let args = Bytes::from_static(b"1234");
        let reply = d.answer(RpcMessage::call(77, 5, 1, 0, args.clone()), None);
        assert_eq!(reply.xid, 77);
        assert_eq!(reply.body, Body::Reply(ReplyBody::Success(args)));
    }

    #[test]
    fn handler_error_becomes_garbage_args() {
        let mut d = Dispatch::default();
        d.add(5, 1, 0, Box::new(|_| Err(())));
        let reply = d.answer(RpcMessage::call(1, 5, 1, 0, Bytes::new()), None);
        assert_eq!(
            reply.body,
            Body::Reply(ReplyBody::Fault(RpcFault::GarbageArguments))
        );
    }

    #[test]
    fn a_server_with_metrics_counts_its_own_traffic() {
        for concurrent in [false, true] {
            let metrics = Arc::new(RpcMetrics::default());
            let server = RpcServer::start_with(
                Registry::new(),
                ServerOptions {
                    concurrent,
                    metrics: Some(Arc::clone(&metrics)),
                    ..ServerOptions::default()
                },
            )
            .unwrap();
            server.register(5, 1, 0, Box::new(Ok));
            let addr = ("127.0.0.1", server.tcp_port());

            let args = Bytes::from_static(b"1234");
            let mut client = crate::RpcClient::connect_tcp(addr, 5, 1).unwrap();
            assert_eq!(client.call(0, args.clone()).unwrap(), args);
            assert!(client.call(7, Bytes::new()).is_err(), "unknown procedure");
            drop(client);
            // A peer that connects and leaves without a call.
            drop(TcpStream::connect(addr).unwrap());

            let deadline = Instant::now() + std::time::Duration::from_secs(10);
            while metrics.connections.get() < 2 || metrics.active.get() != 0 {
                assert!(Instant::now() < deadline, "connections never closed");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let len = |m: RpcMessage| m.encode().len() as u64;
            let calls = len(RpcMessage::call(1, 5, 1, 0, args.clone()))
                + len(RpcMessage::call(2, 5, 1, 7, Bytes::new()));
            let replies = len(RpcMessage::reply_success(1, args))
                + len(RpcMessage::reply_fault(2, RpcFault::ProcedureUnavailable));
            assert_eq!(metrics.requests.get(), 2, "concurrent={concurrent}");
            assert_eq!(metrics.faults.get(), 1);
            assert_eq!(metrics.bytes_in.get(), calls);
            assert_eq!(metrics.bytes_out.get(), replies);
            assert_eq!(metrics.connections.get(), 2);
            assert_eq!(metrics.latency_us.count(), 1, "only the answered call");
        }
    }

    #[test]
    fn server_shuts_down_cleanly() {
        let (server, _registry) = echo_server();
        drop(server); // Must not hang.
    }
}
