//! Loopback TCP bandwidth (paper §5.2, Table 3).
//!
//! "TCP bandwidth is measured similarly [to pipes], except the data is
//! transferred in 1M page aligned transfers instead of 64K transfers. If the
//! TCP implementation supports it, the send and receive socket buffers are
//! enlarged to 1M. ... All of the TCP results are in loopback mode."

use crate::stream::{measure_stream, Stream, Writer};
use lmb_sys::sock::set_socket_buffers;
use lmb_timing::{Bandwidth, Harness};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// Measures sender-thread-to-receiver bandwidth over loopback TCP: `total`
/// bytes in `chunk`-sized writes per connection, with `sockbuf`-byte socket
/// buffers, summarized by the harness's policy.
///
/// # Panics
///
/// Panics if `chunk` is zero or `total < chunk`, or on socket failures.
pub fn measure_tcp_bw(h: &Harness, total: usize, chunk: usize, sockbuf: usize) -> Bandwidth {
    let start = |chunks| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        set_socket_buffers(&listener, sockbuf).expect("sockbuf");
        let addr = listener.local_addr().expect("addr");
        let sender = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            set_socket_buffers(&stream, sockbuf).expect("sockbuf");
            let out = vec![0x5Au8; chunk];
            for _ in 0..chunks {
                stream.write_all(&out).expect("tcp write");
            }
        });
        let (reader, _) = listener.accept().expect("accept");
        Stream {
            reader,
            _writer: Writer::Thread(Some(sender)),
        }
    };
    measure_stream(h, total, chunk, start, |conn: &mut TcpStream, buf| {
        conn.read(buf).expect("tcp read")
    })
}

/// A discard server thread on the far end of a loopback TCP connection:
/// the parent writes chunks, the server reads and drops them until the
/// client closes. The TCP-bandwidth load generator for the scaling
/// harness — each sink is its own connection, so P sinks drive P
/// independent loopback streams.
pub struct TcpSink {
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    server: Option<std::thread::JoinHandle<()>>,
}

impl TcpSink {
    /// Starts the discard server and connects; each
    /// [`TcpSink::write_chunk`] moves `chunk` bytes.
    pub fn start(chunk: usize, sockbuf: usize) -> Result<Self, String> {
        assert!(chunk > 0, "chunk must be nonzero");
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        set_socket_buffers(&listener, sockbuf).map_err(|e| format!("sockbuf: {e:?}"))?;
        let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
        let server = std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            let mut drain = vec![0u8; 64 << 10];
            while matches!(conn.read(&mut drain), Ok(n) if n > 0) {}
        });
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        set_socket_buffers(&stream, sockbuf).map_err(|e| format!("sockbuf: {e:?}"))?;
        Ok(Self {
            stream: Some(stream),
            buf: vec![0x5Au8; chunk],
            server: Some(server),
        })
    }

    /// Bytes one [`TcpSink::write_chunk`] moves.
    #[must_use]
    pub fn chunk_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Streams one chunk into the connection.
    ///
    /// # Panics
    ///
    /// Panics if the discard server died (connection reset).
    pub fn write_chunk(&mut self) {
        self.stream
            .as_mut()
            .expect("sink not shut down")
            .write_all(&self.buf)
            .expect("tcp write");
    }
}

impl Drop for TcpSink {
    fn drop(&mut self) {
        // Closing the client socket EOFs the server thread's read loop.
        drop(self.stream.take());
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TCP_CHUNK, TCP_SOCKBUF};
    use lmb_timing::Options;

    fn harness() -> Harness {
        Harness::new(Options::quick().with_repetitions(2))
    }

    #[test]
    fn loopback_tcp_moves_data() {
        let bw = measure_tcp_bw(&harness(), 8 << 20, TCP_CHUNK, TCP_SOCKBUF);
        assert!(bw.mb_per_s > 0.0);
        assert!(bw.mb_per_s.is_finite());
    }

    #[test]
    fn measure_summarizes_repetitions() {
        let bw = measure_tcp_bw(&harness(), 2 << 20, 1 << 20, TCP_SOCKBUF);
        assert!(bw.mb_per_s > 0.0);
    }

    #[test]
    fn tiny_chunks_pay_syscall_tax() {
        let h = harness();
        let small = measure_tcp_bw(&h, 1 << 20, 512, TCP_SOCKBUF);
        let big = measure_tcp_bw(&h, 8 << 20, TCP_CHUNK, TCP_SOCKBUF);
        assert!(
            big.mb_per_s > small.mb_per_s,
            "1M chunks ({}) not faster than 512B chunks ({})",
            big.mb_per_s,
            small.mb_per_s
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_chunk_rejected() {
        measure_tcp_bw(&harness(), 1 << 20, 0, TCP_SOCKBUF);
    }

    #[test]
    fn tcp_sink_drains_chunks_and_joins_on_drop() {
        let mut sink = TcpSink::start(64 << 10, TCP_SOCKBUF).unwrap();
        assert_eq!(sink.chunk_bytes(), 64 << 10);
        for _ in 0..32 {
            sink.write_chunk();
        }
        drop(sink); // Must not hang: close EOFs the server thread.
    }
}
