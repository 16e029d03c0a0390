//! The Tables 12–13 experiment, live: the RPC layer must add measurable
//! latency over the raw transport ("the RPC layer frequently adds hundreds
//! of microseconds of additional latency" — on 1995 hardware; here we
//! assert the *direction*, not the magnitude).

use bytes::Bytes;
use lmbench::ipc;
use lmbench::rpc::{client, Protocol, Registry, RpcServer, ECHO_PROC, ECHO_PROGRAM, ECHO_VERSION};
use lmbench::timing::{Comparison, Harness, Options};

fn echo_registry() -> (RpcServer, Registry) {
    let registry = Registry::new();
    let server = RpcServer::start(registry.clone()).expect("rpc server");
    server.register(ECHO_PROGRAM, ECHO_VERSION, ECHO_PROC, Box::new(Ok));
    (server, registry)
}

/// Pins this test's thread, and so every echo server it starts after, to
/// the CPU it runs on. Unpinned, the scheduler can wake one server on the
/// client's CPU and the other on a CPU busy with other work; under a
/// concurrent build that made the raw exchange several µs per call slower
/// than the RPC call, for whole comparisons.
fn pin_to_one_cpu() {
    lmbench::sys::pin_to_current_cpu().expect("pin the test thread to one CPU");
}

/// Prices an RPC echo call over `protocol` against the raw word exchange
/// `raw_round_trip` on the same transport. Single calls of each alternate
/// in ABBA order on this thread, so whatever else the host runs (the other
/// tests of this binary included) loads both sides of every pair alike.
fn rpc_over_raw(protocol: Protocol, raw_round_trip: impl FnMut()) -> Comparison {
    let (_server, registry) = echo_registry();
    let mut rpc = client::RpcClient::connect(&registry, ECHO_PROGRAM, ECHO_VERSION, protocol)
        .expect("rpc client");
    let word = Bytes::from_static(b"lmbw");
    // Warm both servers past their first wake-ups before any pair counts.
    let options = Options::quick().with_warmup_runs(200);
    Harness::new(options).compare(1, raw_round_trip, || {
        rpc.call(ECHO_PROC, word.clone()).expect("rpc call");
    })
}

/// The layering cost is real: the increment's 95% interval lies above 0.
fn assert_rpc_costs_more(layer: &str, c: &Comparison) {
    let low = c.interval_ns.map_or(f64::NAN, |(low, _)| low);
    assert!(
        low > 0.0,
        "{layer} over raw: {c} does not exclude 0 — the layering cost vanished"
    );
}

#[test]
fn rpc_over_tcp_costs_more_than_raw_tcp() {
    pin_to_one_cpu();
    let mut raw = ipc::TcpEchoPair::start().expect("tcp echo pair");
    let c = rpc_over_raw(Protocol::Tcp, || raw.round_trip().expect("tcp round trip"));
    assert_rpc_costs_more("RPC/TCP", &c);
}

#[test]
fn rpc_over_udp_costs_more_than_raw_udp() {
    pin_to_one_cpu();
    let raw = ipc::UdpEchoPair::start().expect("udp echo pair");
    let c = rpc_over_raw(Protocol::Udp, || raw.round_trip().expect("udp round trip"));
    assert_rpc_costs_more("RPC/UDP", &c);
}

#[test]
fn rpc_payloads_round_trip_through_both_transports() {
    let (_server, registry) = echo_registry();
    for protocol in [Protocol::Tcp, Protocol::Udp] {
        let mut cli =
            client::RpcClient::connect(&registry, ECHO_PROGRAM, ECHO_VERSION, protocol).unwrap();
        for len in [0usize, 4, 64, 4096] {
            let payload = bytes_of(len);
            let reply = cli.call(ECHO_PROC, payload.clone()).unwrap();
            assert_eq!(
                reply, payload,
                "{protocol:?} corrupted a {len}-byte payload"
            );
        }
    }
}

fn bytes_of(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

/// Runs `f` on its own thread and waits up to 2 s for it to finish.
fn within_two_seconds<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(std::time::Duration::from_secs(2)).ok()
}

fn connect_and_ping(registry: &Registry) -> client::RpcClient {
    let mut cli =
        client::RpcClient::connect(registry, ECHO_PROGRAM, ECHO_VERSION, Protocol::Tcp).unwrap();
    let ping = bytes_of(4);
    assert_eq!(cli.call(ECHO_PROC, ping.clone()).unwrap(), ping);
    cli
}

#[test]
fn a_second_tcp_client_is_served_while_the_first_stays_idle() {
    let (_server, registry) = echo_registry();
    let _idle = connect_and_ping(&registry);
    let second = within_two_seconds(move || drop(connect_and_ping(&registry)));
    assert!(
        second.is_some(),
        "second client got no reply while the first stayed connected"
    );
}

#[test]
fn dropping_the_server_is_bounded_while_a_client_stays_connected() {
    let (server, registry) = echo_registry();
    let _idle = connect_and_ping(&registry);
    assert!(
        within_two_seconds(move || drop(server)).is_some(),
        "dropping the server waited on a connected client"
    );
}
