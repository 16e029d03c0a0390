//! AF_UNIX stream bandwidth — companion to [`crate::unix_lat`].
//!
//! Sits between pipes (Table 3's fastest local IPC) and loopback TCP
//! (protocol work included): the socket layer without IP. Later lmbench
//! releases added exactly this measurement (`bw_unix`).

use crate::stream::{measure_stream, Stream, Writer};
use lmb_timing::{Bandwidth, Harness};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;

/// Measures writer-thread-to-reader bandwidth over a socketpair: `total`
/// bytes in `chunk`-sized writes per transfer, summarized by the harness's
/// policy.
///
/// # Panics
///
/// Panics if `chunk` is zero or `total < chunk`, or on socket failures.
pub fn measure_unix_bw(h: &Harness, total: usize, chunk: usize) -> Bandwidth {
    let start = |chunks| {
        let (reader, mut writer) = UnixStream::pair().expect("socketpair");
        let sender = std::thread::spawn(move || {
            let out = vec![0xC3u8; chunk];
            for _ in 0..chunks {
                writer.write_all(&out).expect("unix write");
            }
        });
        Stream {
            reader,
            _writer: Writer::Thread(Some(sender)),
        }
    };
    measure_stream(h, total, chunk, start, |reader: &mut UnixStream, buf| {
        reader.read(buf).expect("unix read")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmb_timing::Options;

    fn harness() -> Harness {
        Harness::new(Options::quick().with_repetitions(2))
    }

    #[test]
    fn unix_stream_moves_data() {
        let bw = measure_unix_bw(&harness(), 4 << 20, 64 << 10);
        assert!(bw.mb_per_s > 0.0);
        assert!(bw.mb_per_s.is_finite());
    }

    #[test]
    fn summary_policies_apply() {
        let bw = measure_unix_bw(&harness(), 2 << 20, 64 << 10);
        assert!(bw.mb_per_s > 0.0);
    }

    #[test]
    #[should_panic(expected = "total below one chunk")]
    fn undersized_total_rejected() {
        measure_unix_bw(&harness(), 100, 64 << 10);
    }
}
