//! The Tables 12–13 experiment, live: the RPC layer must add measurable
//! latency over the raw transport ("the RPC layer frequently adds hundreds
//! of microseconds of additional latency" — on 1995 hardware; here we
//! assert the *direction*, not the magnitude).

use lmbench::ipc;
use lmbench::rpc::{client, Protocol, Registry, RpcServer, ECHO_PROC, ECHO_PROGRAM, ECHO_VERSION};
use lmbench::timing::{Harness, Options};

fn echo_registry() -> (RpcServer, Registry) {
    let registry = Registry::new();
    let server = RpcServer::start(registry.clone()).expect("rpc server");
    server.register(ECHO_PROGRAM, ECHO_VERSION, ECHO_PROC, Box::new(Ok));
    (server, registry)
}

#[test]
fn rpc_over_tcp_costs_more_than_raw_tcp() {
    let h = Harness::new(Options::quick().with_repetitions(3));
    let (_server, registry) = echo_registry();
    let raw = ipc::measure_tcp_latency(&h, 200).as_micros();
    let rpc = client::measure_rpc_latency(&h, &registry, Protocol::Tcp, 200).as_micros();
    assert!(raw > 0.0 && rpc > 0.0);
    assert!(
        rpc > raw,
        "RPC/TCP {rpc}us not above raw TCP {raw}us — the layering cost vanished"
    );
}

#[test]
fn rpc_over_udp_costs_more_than_raw_udp() {
    let h = Harness::new(Options::quick().with_repetitions(3));
    let (_server, registry) = echo_registry();
    let raw = ipc::measure_udp_latency(&h, 200).as_micros();
    let rpc = client::measure_rpc_latency(&h, &registry, Protocol::Udp, 200).as_micros();
    assert!(raw > 0.0 && rpc > 0.0);
    assert!(
        rpc > raw,
        "RPC/UDP {rpc}us not above raw UDP {raw}us — the layering cost vanished"
    );
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

fn bytes_of(len: usize) -> bytes::Bytes {
    bytes::Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
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
