//! Loopback UDP latency (paper §6.7, Table 13).
//!
//! "UDP sockets are unreliable messages that leave the retransmission
//! issues to the application. ... Like TCP latency, UDP latency is measured
//! by having a server process that waits for connections and a client
//! process that connects to the server. The two processes then exchange a
//! word between them in a loop." NFS was the era's canonical RPC/UDP user.
//!
//! Because UDP is lossy even on loopback (socket-buffer pressure can shed
//! datagrams), the client treats each exchange as an application-level
//! retransmission unit: a short receive timeout plus a bounded number of
//! resends, exactly the "retransmission issues left to the application"
//! the paper describes. Without this a single dropped datagram wedged the
//! whole benchmark in `recv` until the 30s watchdog fired.

use crate::WORD;
use lmb_timing::{Harness, Latency, TimeUnit};
use std::io::ErrorKind;
use std::net::UdpSocket;
use std::time::Duration;

/// How long one receive waits before the client retransmits.
const RECV_TIMEOUT: Duration = Duration::from_millis(250);

/// Send attempts per round trip before giving up: the benchmark should
/// ride out an isolated drop but fail fast, not hang, when the path is
/// actually dead.
const MAX_ATTEMPTS: u32 = 3;

/// A UDP echo server thread plus a connected client socket.
pub struct UdpEchoPair {
    client: UdpSocket,
    server: Option<std::thread::JoinHandle<()>>,
}

impl UdpEchoPair {
    /// Starts the loopback echo pair. Both sockets are `connect`ed so each
    /// exchange is a bare `send`/`recv` pair — the cheapest UDP path.
    pub fn start() -> std::io::Result<Self> {
        Self::start_with_drops(0)
    }

    /// Starts a pair whose server deliberately swallows the first
    /// `drop_first` datagrams instead of echoing them — fault injection
    /// for the client's retransmission path.
    pub fn start_with_drops(drop_first: u32) -> std::io::Result<Self> {
        let server_sock = UdpSocket::bind("127.0.0.1:0")?;
        let server_addr = server_sock.local_addr()?;
        let client = UdpSocket::bind("127.0.0.1:0")?;
        let client_addr = client.local_addr()?;
        client.connect(server_addr)?;
        client.set_read_timeout(Some(RECV_TIMEOUT))?;
        server_sock.connect(client_addr)?;
        let server = std::thread::spawn(move || {
            let mut word = [0u8; WORD.len()];
            let mut to_drop = drop_first;
            loop {
                match server_sock.recv(&mut word) {
                    // A zero-length datagram is the shutdown signal.
                    Ok(0) => break,
                    Ok(_) => {
                        if to_drop > 0 {
                            to_drop -= 1;
                            continue;
                        }
                        if server_sock.send(&word).is_err() {
                            break;
                        }
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(Self {
            client,
            server: Some(server),
        })
    }

    /// One word round trip. A datagram that is not echoed within
    /// `RECV_TIMEOUT` is retransmitted, up to `MAX_ATTEMPTS` sends;
    /// after that the exchange fails with `TimedOut` rather than wedging
    /// the benchmark in `recv`.
    pub fn round_trip(&self) -> std::io::Result<()> {
        let mut word = WORD;
        for _ in 0..MAX_ATTEMPTS {
            self.client.send(&word)?;
            match self.client.recv(&mut word) {
                Ok(_) => return Ok(()),
                // Timeout surfaces as WouldBlock or TimedOut depending on
                // platform; both mean "resend".
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => return Err(e),
            }
        }
        Err(std::io::Error::new(
            ErrorKind::TimedOut,
            format!("no echo after {MAX_ATTEMPTS} sends"),
        ))
    }
}

impl Drop for UdpEchoPair {
    fn drop(&mut self) {
        let _ = self.client.send(&[]);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

/// Measures loopback UDP round-trip latency; each repetition times
/// `round_trips` exchanges.
///
/// # Panics
///
/// Panics if `round_trips` is zero or the pair cannot be built.
pub fn measure_udp_latency(h: &Harness, round_trips: usize) -> Latency {
    assert!(round_trips > 0, "need at least one round trip");
    let pair = UdpEchoPair::start().expect("echo pair");
    h.measure_block(round_trips as u64, || {
        for _ in 0..round_trips {
            pair.round_trip().expect("round trip");
        }
    })
    .latency(TimeUnit::Micros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmb_timing::Options;
    use std::time::Instant;

    #[test]
    fn echo_pair_round_trips() {
        let pair = UdpEchoPair::start().unwrap();
        for _ in 0..10 {
            pair.round_trip().unwrap();
        }
    }

    #[test]
    fn one_dropped_datagram_is_retransmitted_not_wedged() {
        let pair = UdpEchoPair::start_with_drops(1).unwrap();
        let begin = Instant::now();
        // First exchange eats one timeout, then the resend gets echoed.
        pair.round_trip().expect("recovered by retransmission");
        pair.round_trip().expect("steady state after recovery");
        let waited = begin.elapsed();
        assert!(waited >= RECV_TIMEOUT, "drop cost a timeout: {waited:?}");
        assert!(waited < RECV_TIMEOUT * 4, "recovered promptly: {waited:?}");
    }

    #[test]
    fn dead_path_fails_bounded_instead_of_hanging() {
        // Server swallows everything: the old code sat in recv for 30s.
        let pair = UdpEchoPair::start_with_drops(u32::MAX).unwrap();
        let begin = Instant::now();
        let err = pair.round_trip().expect_err("no echo ever comes");
        assert_eq!(err.kind(), ErrorKind::TimedOut);
        let waited = begin.elapsed();
        assert!(
            waited < RECV_TIMEOUT * (MAX_ATTEMPTS + 2),
            "bounded failure: {waited:?}"
        );
    }

    #[test]
    fn latency_positive_and_bounded() {
        let h = Harness::new(Options::quick().with_repetitions(2));
        let lat = measure_udp_latency(&h, 50);
        let us = lat.as_micros();
        assert!(us > 0.0);
        assert!(us < 50_000.0, "UDP RTT {us}us");
    }

    #[test]
    fn udp_and_tcp_latencies_are_same_order() {
        // Loopback word exchange costs are within a small factor of each
        // other on modern stacks (Table 12 vs 13 shows the same).
        let h = Harness::new(Options::quick().with_repetitions(2));
        let udp = measure_udp_latency(&h, 50).as_micros();
        let tcp = crate::measure_tcp_latency(&h, 50).as_micros();
        assert!(udp < tcp * 20.0 + 100.0);
        assert!(tcp < udp * 20.0 + 100.0);
    }
}
