//! Interprocess-communication benchmarks (paper §5.2, §6.7).
//!
//! Bandwidth side (Table 3): pipe transfers of 50 MB in 64 KB chunks
//! between two *processes*; loopback TCP in 1 MB aligned transfers with
//! 1 MB socket buffers. Latency side (Tables 11–13, 15): word-sized
//! hot-potato round trips over pipes, TCP and UDP, plus TCP connection
//! establishment cost.
//!
//! Pipes use real `fork`ed processes — the paper's pipe numbers include the
//! scheduler, and a thread-based shortcut would measure something else. The
//! socket benchmarks use a server thread: loopback TCP/UDP cost lives in the
//! kernel's network stack, which is identical either way.

pub mod fifo_lat;
pub mod pipe_bw;
pub mod pipe_lat;
mod stream;
pub mod tcp_bw;
pub mod tcp_connect;
pub mod tcp_lat;
pub mod udp_lat;
pub mod unix_bw;
pub mod unix_lat;

pub use fifo_lat::measure_fifo_latency;
pub use pipe_bw::{measure_pipe_bw, PipeSink};
pub use pipe_lat::{measure_pipe_latency, PipeEchoPair};
pub use tcp_bw::{measure_tcp_bw, TcpSink};
pub use tcp_connect::measure_tcp_connect;
pub use tcp_lat::{measure_tcp_latency, TcpEchoPair};
pub use udp_lat::{measure_udp_latency, UdpEchoPair};
pub use unix_bw::measure_unix_bw;
pub use unix_lat::{measure_unix_latency, UnixEchoPair};

/// The word exchanged by all latency benchmarks ("pass a small message (a
/// byte or so) back and forth"; we use 4 bytes like the C suite's `int`).
pub const WORD: [u8; 4] = *b"lmbw";

/// Default chunk size for pipe bandwidth: 64 KB, "chosen so that the
/// overhead of system calls and context switching would not dominate".
pub const PIPE_CHUNK: usize = 64 << 10;

/// Default transfer size for TCP bandwidth: 1 MB page-aligned transfers.
pub const TCP_CHUNK: usize = 1 << 20;

/// Default socket buffer request for TCP bandwidth: 1 MB.
pub const TCP_SOCKBUF: usize = 1 << 20;
