//! RPC client over TCP and UDP, plus the Table 12/13 latency measurements.
//!
//! A client looks the server up in the [`Registry`] (the portmapper step),
//! connects, and then issues calls: build envelope → XDR-encode → frame
//! (TCP) or send datagram (UDP) → await the xid-matched reply → decode.
//! Every one of those steps is real work per call; their sum is the "RPC
//! adds hundreds of microseconds" overhead of the paper's Tables 12–13.

use crate::message::{Body, ReplyBody, RpcFault, RpcMessage};
use crate::record::{read_record, write_record, READ_BUFFER_BYTES};
use crate::registry::{Protocol, Registry};
use bytes::Bytes;
use lmb_timing::{Harness, Latency, TimeUnit};
use std::io::{self, BufReader};
use std::net::{TcpStream, UdpSocket};

/// Client-side call failures.
#[derive(Debug)]
pub enum CallError {
    /// Service not found in the registry.
    NotRegistered,
    /// Transport failure.
    Io(io::Error),
    /// Server answered with an RPC-layer fault.
    Fault(RpcFault),
    /// Reply was undecodable or mismatched.
    BadReply,
}

impl From<io::Error> for CallError {
    fn from(e: io::Error) -> Self {
        CallError::Io(e)
    }
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::NotRegistered => write!(f, "program not registered"),
            CallError::Io(e) => write!(f, "transport: {e}"),
            CallError::Fault(fault) => write!(f, "rpc fault: {fault:?}"),
            CallError::BadReply => write!(f, "undecodable or mismatched reply"),
        }
    }
}

impl std::error::Error for CallError {}

enum Transport {
    /// Replies are read through one buffer per connection.
    Tcp(BufReader<TcpStream>),
    Udp(UdpSocket),
}

/// A connected RPC client for one (program, version).
pub struct RpcClient {
    transport: Transport,
    program: u32,
    version: u32,
    next_xid: u32,
    udp_buf: Vec<u8>,
}

impl RpcClient {
    /// Looks the service up in `registry` and connects over `protocol`.
    pub fn connect(
        registry: &Registry,
        program: u32,
        version: u32,
        protocol: Protocol,
    ) -> Result<Self, CallError> {
        let port = registry
            .lookup(program, version, protocol)
            .ok_or(CallError::NotRegistered)?;
        let transport = match protocol {
            Protocol::Tcp => {
                let stream = TcpStream::connect(("127.0.0.1", port))?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
                Transport::Tcp(BufReader::with_capacity(READ_BUFFER_BYTES, stream))
            }
            Protocol::Udp => {
                let sock = UdpSocket::bind("127.0.0.1:0")?;
                sock.connect(("127.0.0.1", port))?;
                sock.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
                Transport::Udp(sock)
            }
        };
        Ok(Self {
            transport,
            program,
            version,
            next_xid: 1,
            udp_buf: vec![0u8; 64 << 10],
        })
    }

    /// Connects straight to a TCP endpoint, bypassing the registry — for
    /// clients that were handed an address out of band, the way
    /// `lmbench report push --to host:port` is. `addr` is anything
    /// `ToSocketAddrs` accepts (`"127.0.0.1:4045"`, a `SocketAddr`, ...).
    pub fn connect_tcp(
        addr: impl std::net::ToSocketAddrs,
        program: u32,
        version: u32,
    ) -> Result<Self, CallError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(std::time::Duration::from_secs(30)))?;
        Ok(Self {
            transport: Transport::Tcp(BufReader::with_capacity(READ_BUFFER_BYTES, stream)),
            program,
            version,
            next_xid: 1,
            udp_buf: Vec::new(),
        })
    }

    /// One remote procedure call; `args` must be XDR-encoded (4-aligned).
    pub fn call(&mut self, procedure: u32, args: Bytes) -> Result<Bytes, CallError> {
        let xid = self.next_xid;
        self.next_xid = self.next_xid.wrapping_add(1);
        let wire = RpcMessage::call(xid, self.program, self.version, procedure, args).encode();

        let reply_bytes = match &mut self.transport {
            Transport::Tcp(conn) => {
                write_record(conn.get_mut(), &wire)?;
                read_record(conn)?
            }
            Transport::Udp(sock) => {
                sock.send(&wire)?;
                let n = sock.recv(&mut self.udp_buf)?;
                Bytes::copy_from_slice(&self.udp_buf[..n])
            }
        };

        let reply = RpcMessage::decode(reply_bytes).map_err(|_| CallError::BadReply)?;
        if reply.xid != xid {
            return Err(CallError::BadReply);
        }
        match reply.body {
            Body::Reply(ReplyBody::Success(result)) => Ok(result),
            Body::Reply(ReplyBody::Fault(fault)) => Err(CallError::Fault(fault)),
            Body::Call(_) => Err(CallError::BadReply),
        }
    }
}

/// Measures RPC echo round-trip latency over `protocol` against an already
/// running echo service; each repetition times `round_trips` calls.
///
/// # Panics
///
/// Panics if `round_trips` is zero or the service is unreachable.
pub fn measure_rpc_latency(
    h: &Harness,
    registry: &Registry,
    protocol: Protocol,
    round_trips: usize,
) -> Latency {
    assert!(round_trips > 0, "need at least one round trip");
    let mut client =
        RpcClient::connect(registry, crate::ECHO_PROGRAM, crate::ECHO_VERSION, protocol)
            .expect("connect to echo service");
    let word = Bytes::from_static(b"lmbw");
    h.measure_block(round_trips as u64, || {
        for _ in 0..round_trips {
            let reply = client
                .call(crate::ECHO_PROC, word.clone())
                .expect("echo call");
            debug_assert_eq!(reply, word);
        }
    })
    .latency(TimeUnit::Micros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::RpcServer;
    use crate::{ECHO_PROC, ECHO_PROGRAM, ECHO_VERSION};
    use lmb_timing::Options;

    fn echo_setup() -> (RpcServer, Registry) {
        let registry = Registry::new();
        let server = RpcServer::start(registry.clone()).unwrap();
        server.register(ECHO_PROGRAM, ECHO_VERSION, ECHO_PROC, Box::new(Ok));
        (server, registry)
    }

    #[test]
    fn tcp_call_round_trips() {
        let (_server, registry) = echo_setup();
        let mut client =
            RpcClient::connect(&registry, ECHO_PROGRAM, ECHO_VERSION, Protocol::Tcp).unwrap();
        let reply = client.call(ECHO_PROC, Bytes::from_static(b"ping")).unwrap();
        assert_eq!(reply.as_ref(), b"ping");
    }

    #[test]
    fn udp_call_round_trips() {
        let (_server, registry) = echo_setup();
        let mut client =
            RpcClient::connect(&registry, ECHO_PROGRAM, ECHO_VERSION, Protocol::Udp).unwrap();
        let reply = client.call(ECHO_PROC, Bytes::from_static(b"pong")).unwrap();
        assert_eq!(reply.as_ref(), b"pong");
    }

    #[test]
    fn many_sequential_calls_share_one_connection() {
        let (_server, registry) = echo_setup();
        let mut client =
            RpcClient::connect(&registry, ECHO_PROGRAM, ECHO_VERSION, Protocol::Tcp).unwrap();
        for i in 0..100u32 {
            let mut e = crate::xdr::XdrEncoder::new();
            e.put_u32(i);
            let reply = client.call(ECHO_PROC, e.finish()).unwrap();
            let mut d = crate::xdr::XdrDecoder::new(reply);
            assert_eq!(d.get_u32().unwrap(), i);
        }
    }

    #[test]
    fn unknown_program_is_not_registered() {
        let registry = Registry::new();
        assert!(matches!(
            RpcClient::connect(&registry, 12345, 1, Protocol::Tcp),
            Err(CallError::NotRegistered)
        ));
    }

    #[test]
    fn wrong_procedure_faults() {
        let (_server, registry) = echo_setup();
        let mut client =
            RpcClient::connect(&registry, ECHO_PROGRAM, ECHO_VERSION, Protocol::Tcp).unwrap();
        match client.call(99, Bytes::new()) {
            Err(CallError::Fault(RpcFault::ProcedureUnavailable)) => {}
            other => panic!("expected PROC_UNAVAIL, got {other:?}"),
        }
    }

    #[test]
    fn rpc_latency_exceeds_raw_word_exchange() {
        // The paper's whole point: the RPC layer adds real cost over the
        // bare transport. We can't compare to lmb-ipc here (dependency
        // direction), but the latency must at least be positive & bounded.
        let (_server, registry) = echo_setup();
        let h = Harness::new(Options::quick().with_repetitions(2));
        let lat = measure_rpc_latency(&h, &registry, Protocol::Tcp, 50);
        assert!(lat.as_micros() > 0.0);
        assert!(lat.as_micros() < 50_000.0);
        let lat_udp = measure_rpc_latency(&h, &registry, Protocol::Udp, 50);
        assert!(lat_udp.as_micros() > 0.0);
    }
}
