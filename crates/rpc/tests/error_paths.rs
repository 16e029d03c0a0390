//! Error-path drills for the RPC substrate the results daemon leans on.
//!
//! A benchmark client and server trust each other; a long-running ingest
//! daemon cannot. These tests exercise the failure modes a fleet will
//! produce: torn records, wrong program/version/procedure targeting,
//! oversized payloads, stale RPC versions, and connections that die
//! mid-conversation.

use bytes::Bytes;
use lmb_rpc::{
    read_record, write_record, Body, CallError, Protocol, Registry, ReplyBody, RpcClient, RpcFault,
    RpcMessage, RpcServer, XdrEncoder, ECHO_PROC, ECHO_PROGRAM, ECHO_VERSION, MAX_RECORD_BYTES,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};

fn echo_server() -> (RpcServer, Registry) {
    let registry = Registry::new();
    let server = RpcServer::start(registry.clone()).unwrap();
    server.register(ECHO_PROGRAM, ECHO_VERSION, ECHO_PROC, Box::new(Ok));
    (server, registry)
}

#[test]
fn truncated_record_mark_does_not_wedge_the_server() {
    let (server, _registry) = echo_server();

    // A peer declares a 100-byte record, sends 10 bytes, and vanishes.
    {
        let mut conn = TcpStream::connect(("127.0.0.1", server.tcp_port())).unwrap();
        conn.write_all(&(100u32 | 0x8000_0000).to_be_bytes())
            .unwrap();
        conn.write_all(&[0u8; 10]).unwrap();
    } // Dropped: server sees EOF mid-record and must abandon the peer.

    // The next, well-formed client still gets service.
    let mut client =
        RpcClient::connect_tcp(("127.0.0.1", server.tcp_port()), ECHO_PROGRAM, ECHO_VERSION)
            .unwrap();
    let reply = client.call(ECHO_PROC, Bytes::from_static(b"pong")).unwrap();
    assert_eq!(reply.as_ref(), b"pong");
}

#[test]
fn truncated_reply_surfaces_as_client_io_error() {
    // A "server" that reads the call, then answers with a record header
    // promising more bytes than it ever sends.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let port = listener.local_addr().unwrap().port();
    let handle = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let _ = read_record(&mut conn).unwrap();
        conn.write_all(&(64u32 | 0x8000_0000).to_be_bytes())
            .unwrap();
        conn.write_all(&[0u8; 8]).unwrap();
        // Dropping the connection truncates the promised record.
    });

    let mut client =
        RpcClient::connect_tcp(("127.0.0.1", port), ECHO_PROGRAM, ECHO_VERSION).unwrap();
    match client.call(ECHO_PROC, Bytes::from_static(b"ping")) {
        Err(CallError::Io(_)) => {}
        other => panic!("expected Io error from torn reply, got {other:?}"),
    }
    handle.join().unwrap();
}

#[test]
fn unknown_targets_fault_specifically() {
    let (server, _registry) = echo_server();
    let addr = ("127.0.0.1", server.tcp_port());

    {
        let mut client = RpcClient::connect_tcp(addr, 0xdead_beef, 1).unwrap();
        match client.call(0, Bytes::new()) {
            Err(CallError::Fault(RpcFault::ProgramUnavailable)) => {}
            other => panic!("expected PROG_UNAVAIL, got {other:?}"),
        }
    }
    {
        let mut client = RpcClient::connect_tcp(addr, ECHO_PROGRAM, 99).unwrap();
        match client.call(ECHO_PROC, Bytes::new()) {
            Err(CallError::Fault(RpcFault::VersionMismatch)) => {}
            other => panic!("expected PROG_MISMATCH, got {other:?}"),
        }
    }
    {
        let mut client = RpcClient::connect_tcp(addr, ECHO_PROGRAM, ECHO_VERSION).unwrap();
        match client.call(77, Bytes::new()) {
            Err(CallError::Fault(RpcFault::ProcedureUnavailable)) => {}
            other => panic!("expected PROC_UNAVAIL, got {other:?}"),
        }
    }
}

#[test]
fn wrong_rpc_version_is_denied_not_served() {
    let (server, _registry) = echo_server();
    let mut conn = TcpStream::connect(("127.0.0.1", server.tcp_port())).unwrap();

    // Hand-encode a call claiming RPC version 3.
    let mut e = XdrEncoder::new();
    e.put_u32(7); // xid
    e.put_u32(0); // CALL
    e.put_u32(3); // rpcvers: not 2
    e.put_u32(ECHO_PROGRAM);
    e.put_u32(ECHO_VERSION);
    e.put_u32(ECHO_PROC);
    e.put_u32(0).put_u32(0); // cred AUTH_NULL
    e.put_u32(0).put_u32(0); // verf AUTH_NULL
    write_record(&mut conn, &e.finish()).unwrap();

    let reply = RpcMessage::decode(read_record(&mut conn).unwrap()).unwrap();
    assert_eq!(reply.xid, 7);
    assert_eq!(
        reply.body,
        Body::Reply(ReplyBody::Fault(RpcFault::RpcMismatch))
    );
}

/// A framed echo call with transaction id `xid` and argument `word`.
fn framed_echo_call(xid: u32, word: &'static [u8]) -> Vec<u8> {
    let call = RpcMessage::call(
        xid,
        ECHO_PROGRAM,
        ECHO_VERSION,
        ECHO_PROC,
        Bytes::from_static(word),
    );
    let mut framed = Vec::new();
    write_record(&mut framed, &call.encode()).unwrap();
    framed
}

fn read_echo_reply(conn: &mut impl std::io::Read) -> (u32, Bytes) {
    let reply = RpcMessage::decode(read_record(conn).unwrap()).unwrap();
    match reply.body {
        Body::Reply(ReplyBody::Success(result)) => (reply.xid, result),
        other => panic!("expected a success reply, got {other:?}"),
    }
}

#[test]
fn pipelined_calls_in_one_write_are_answered_in_order() {
    let (server, _registry) = echo_server();
    let mut conn = TcpStream::connect(("127.0.0.1", server.tcp_port())).unwrap();
    conn.write_all(&[framed_echo_call(1, b"one!"), framed_echo_call(2, b"two!")].concat())
        .unwrap();
    let mut replies = std::io::BufReader::new(conn);
    assert_eq!(
        read_echo_reply(&mut replies),
        (1, Bytes::from_static(b"one!"))
    );
    assert_eq!(
        read_echo_reply(&mut replies),
        (2, Bytes::from_static(b"two!"))
    );
}

#[test]
fn a_call_dribbled_one_byte_per_write_is_answered() {
    let (server, _registry) = echo_server();
    let mut conn = TcpStream::connect(("127.0.0.1", server.tcp_port())).unwrap();
    conn.set_nodelay(true).unwrap();
    for byte in framed_echo_call(9, b"drip") {
        conn.write_all(&[byte]).unwrap();
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert_eq!(read_echo_reply(&mut conn), (9, Bytes::from_static(b"drip")));
}

#[test]
fn oversized_payload_drops_the_connection() {
    let (server, _registry) = echo_server();
    let addr = ("127.0.0.1", server.tcp_port());

    // A payload that fits under the cap with its envelope is echoed.
    let mut client = RpcClient::connect_tcp(addr, ECHO_PROGRAM, ECHO_VERSION).unwrap();
    let fits = Bytes::from(vec![7u8; MAX_RECORD_BYTES - 1024]);
    assert_eq!(client.call(ECHO_PROC, fits.clone()).unwrap(), fits);

    // A payload of exactly the cap makes a record just over it once the
    // envelope is added: the server refuses to buffer it and hangs up,
    // which the client sees as a transport error.
    let big = Bytes::from(vec![0u8; MAX_RECORD_BYTES]);
    match client.call(ECHO_PROC, big) {
        Err(CallError::Io(_)) => {}
        other => panic!("expected Io error for oversized record, got {other:?}"),
    }

    // The daemon itself is unharmed: fresh connections still served.
    let mut client = RpcClient::connect_tcp(addr, ECHO_PROGRAM, ECHO_VERSION).unwrap();
    let reply = client.call(ECHO_PROC, Bytes::from_static(b"okay")).unwrap();
    assert_eq!(reply.as_ref(), b"okay");
}

#[test]
fn server_interleaves_connections() {
    // Each connection has its own thread, so a second connection does
    // not wait for the first to close.
    let (server, _registry) = echo_server();
    let addr = ("127.0.0.1", server.tcp_port());

    let mut first = RpcClient::connect_tcp(addr, ECHO_PROGRAM, ECHO_VERSION).unwrap();
    assert_eq!(
        first
            .call(ECHO_PROC, Bytes::from_static(b"one!"))
            .unwrap()
            .as_ref(),
        b"one!"
    );
    // First connection stays open while the second is served.
    let mut second = RpcClient::connect_tcp(addr, ECHO_PROGRAM, ECHO_VERSION).unwrap();
    assert_eq!(
        second
            .call(ECHO_PROC, Bytes::from_static(b"two!"))
            .unwrap()
            .as_ref(),
        b"two!"
    );
    // And the first is still live afterwards.
    assert_eq!(
        first
            .call(ECHO_PROC, Bytes::from_static(b"more"))
            .unwrap()
            .as_ref(),
        b"more"
    );
}

#[test]
fn server_survives_a_thundering_herd() {
    let (server, _registry) = echo_server();
    let port = server.tcp_port();
    let threads: Vec<_> = (0..16u32)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client =
                    RpcClient::connect_tcp(("127.0.0.1", port), ECHO_PROGRAM, ECHO_VERSION)
                        .unwrap();
                for i in 0..25u32 {
                    let mut e = XdrEncoder::new();
                    e.put_u32(t * 1000 + i);
                    let reply = client.call(ECHO_PROC, e.finish()).unwrap();
                    let mut d = lmb_rpc::XdrDecoder::new(reply);
                    assert_eq!(d.get_u32().unwrap(), t * 1000 + i);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn registry_lookup_still_guards_connect() {
    // The registry path keeps its NotRegistered error even now that
    // direct connects exist.
    let registry = Registry::new();
    assert!(matches!(
        RpcClient::connect(&registry, 0x4444_4444, 1, Protocol::Tcp),
        Err(CallError::NotRegistered)
    ));
}
