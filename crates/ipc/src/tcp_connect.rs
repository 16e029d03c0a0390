//! TCP connection-establishment latency (paper §6.7, Table 15).
//!
//! "Connection cost is measured by having a server, registered using the
//! port mapper, waiting for connections. The client figures out where the
//! server is registered and then repeatedly times a `connect` system call to
//! the server. The socket is closed after each connect. Twenty connects are
//! completed and the fastest of them is used as the result."
//!
//! Here the harness times calibrated batches of connects instead, each
//! batch's sockets closed after the clock stops, and reports its summary
//! over the repetitions.

use lmb_timing::{Harness, Latency, TimeUnit};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A loopback accept-and-drop server for connect timing.
pub struct ConnectServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ConnectServer {
    /// Starts the server; it accepts and immediately closes connections
    /// until dropped.
    pub fn start() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                // Accepted connection drops immediately — connect cost only.
                let _ = listener.accept();
            }
        });
        Ok(Self {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// Where clients should connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ConnectServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the final accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Most connects timed in one interval: the accept thread must keep the
/// listener's backlog (128 in std) from filling while the batch's streams
/// stay open, or a connect waits out a SYN retransmit.
const MAX_BATCH: u64 = 64;

/// Times connects to a loopback accept-and-drop server, summarized by the
/// harness's policy (minimum by default: the three-way handshake's two
/// local packets with the least scheduling noise).
///
/// Each interval times a batch of connects, sized by the harness's
/// calibration; the batch's streams close after the clock stops.
///
/// # Panics
///
/// Panics if the server cannot be started or a connect fails.
pub fn measure_tcp_connect(h: &Harness) -> Latency {
    let server = ConnectServer::start().expect("connect server");
    let addr = server.addr();
    let connect = || TcpStream::connect(addr).expect("connect");
    let batch = h.calibrate(|| drop(connect())).min(MAX_BATCH);
    h.measure_staged(
        batch,
        || Vec::with_capacity(batch as usize),
        |mut open| {
            open.extend((0..batch).map(|_| connect()));
            open
        },
    )
    .latency(TimeUnit::Micros)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmb_timing::Options;

    fn harness() -> Harness {
        Harness::new(Options::quick().with_repetitions(2))
    }

    #[test]
    fn connect_latency_positive_and_bounded() {
        let lat = measure_tcp_connect(&harness());
        let us = lat.as_micros();
        assert!(us > 0.0);
        // Table 15 spans 238-3047us in 1995; loopback today is tens of us.
        assert!(us < 100_000.0, "connect {us}us");
    }

    #[test]
    fn server_survives_many_connects() {
        let server = ConnectServer::start().unwrap();
        for _ in 0..50 {
            let _ = TcpStream::connect(server.addr()).unwrap();
        }
    }

    #[test]
    fn connect_costs_more_than_nothing_less_than_a_second() {
        let lat = measure_tcp_connect(&harness());
        assert!(lat.as_ns() > 100.0);
        assert!(lat.as_ns() < 1e9);
    }
}
