//! Pipe bandwidth (paper §5.2, Table 3).
//!
//! "Pipe bandwidth is measured by creating two processes, a writer and a
//! reader, which transfer 50M of data in 64K transfers. ... The reader
//! prints the timing results, which guarantees that all data has been moved
//! before the timing is finished."

use crate::stream::{measure_stream, Stream, Writer};
use lmb_sys::pipe::Pipe;
use lmb_sys::process::{exit_immediately, fork, waitpid, ForkResult, Pid};
use lmb_sys::Fd;
use lmb_timing::{Bandwidth, Harness};

/// Measures writer-process-to-reader-process pipe bandwidth: `total`
/// bytes in `chunk`-sized writes per transfer, a fresh writer forked for
/// each, summarized by the harness's policy.
///
/// # Panics
///
/// Panics if `chunk` is zero or `total < chunk`, or on process failures —
/// including a writer that dies early, which surfaces as a prompt
/// "writer hung up early" panic (EOF on the pipe), never a hang.
pub fn measure_pipe_bw(h: &Harness, total: usize, chunk: usize) -> Bandwidth {
    measure_inner(h, total, chunk, false)
}

/// [`measure_pipe_bw`] with the writer-death fault injectable, for tests.
fn measure_inner(h: &Harness, total: usize, chunk: usize, child_fail: bool) -> Bandwidth {
    let start = |chunks| {
        // Allocated pre-fork: the writer child must not allocate.
        let out = vec![0xA5u8; chunk];
        let (read_end, write_end) = Pipe::new().expect("pipe").split();
        match fork().expect("fork writer") {
            ForkResult::Child => {
                // Writer: stream all chunks, then exit. Only read/write/_exit.
                drop(read_end);
                for i in 0..chunks {
                    if write_end.write_all(&out).is_err() {
                        exit_immediately(2);
                    }
                    if child_fail && i == 0 {
                        // Injected fault: die after the first chunk, as a
                        // crashed writer would.
                        exit_immediately(1);
                    }
                }
                exit_immediately(0);
            }
            ForkResult::Parent(pid) => {
                // Only the child may hold a write end, or a dead writer
                // would leave the reader waiting instead of at EOF.
                drop(write_end);
                Stream {
                    reader: read_end,
                    _writer: Writer::Process(pid),
                }
            }
        }
    };
    measure_stream(h, total, chunk, start, |fd: &mut Fd, buf| {
        fd.read(buf).expect("pipe read")
    })
}

/// A forked drain child on the far end of a pipe: the parent writes
/// chunks, the child reads and discards until EOF, then `_exit`s. The
/// pipe-bandwidth load generator for the scaling harness — each sink is
/// its own kernel pipe plus reader process, so P sinks exercise P
/// independent pipe data paths.
pub struct PipeSink {
    write_end: Option<Fd>,
    buf: Vec<u8>,
    child: Option<Pid>,
}

impl PipeSink {
    /// Forks the drain child; parent-side writes move `chunk` bytes each.
    pub fn start(chunk: usize) -> Result<Self, String> {
        assert!(chunk > 0, "chunk must be nonzero");
        // Both buffers exist before fork; the child only reads into its
        // inherited copy and exits.
        let buf = vec![0xA5u8; chunk];
        let mut drain = vec![0u8; chunk];
        let (read_end, write_end) = Pipe::new().map_err(|e| format!("pipe: {e:?}"))?.split();
        match fork().map_err(|e| format!("fork: {e:?}"))? {
            ForkResult::Child => {
                // Drain until the parent closes its end. No allocation, no
                // panics — raw syscalls and _exit only.
                drop(write_end);
                loop {
                    match read_end.read(&mut drain) {
                        Ok(0) => exit_immediately(0),
                        Ok(_) => {}
                        Err(_) => exit_immediately(2),
                    }
                }
            }
            ForkResult::Parent(pid) => {
                drop(read_end);
                Ok(Self {
                    write_end: Some(write_end),
                    buf,
                    child: Some(pid),
                })
            }
        }
    }

    /// Bytes one [`PipeSink::write_chunk`] moves.
    #[must_use]
    pub fn chunk_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Streams one chunk into the pipe.
    ///
    /// # Panics
    ///
    /// Panics if the drain child died (broken pipe).
    pub fn write_chunk(&mut self) {
        self.write_end
            .as_ref()
            .expect("sink not shut down")
            .write_all(&self.buf)
            .expect("pipe write");
    }
}

impl Drop for PipeSink {
    fn drop(&mut self) {
        // Closing the write end EOFs the child; reap it best-effort.
        drop(self.write_end.take());
        if let Some(pid) = self.child.take() {
            let _ = waitpid(pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmb_timing::Options;

    fn harness() -> Harness {
        Harness::new(Options::quick().with_repetitions(2))
    }

    #[test]
    fn transfers_complete_and_report_positive_bandwidth() {
        let bw = measure_pipe_bw(&harness(), 4 << 20, 64 << 10);
        assert!(bw.mb_per_s > 0.0);
        assert!(bw.mb_per_s.is_finite());
    }

    #[test]
    fn small_chunks_are_slower_than_big_chunks() {
        // Per-syscall overhead dominates at tiny chunk sizes — the very
        // reason the paper picked 64K. Compare 256-byte vs 64K chunks.
        let h = harness();
        let small = measure_pipe_bw(&h, 2 << 20, 256);
        let big = measure_pipe_bw(&h, 8 << 20, 64 << 10);
        assert!(
            big.mb_per_s > small.mb_per_s,
            "64K chunks ({}) not faster than 256B chunks ({})",
            big.mb_per_s,
            small.mb_per_s
        );
    }

    #[test]
    #[should_panic(expected = "total below one chunk")]
    fn rejects_total_smaller_than_chunk() {
        measure_pipe_bw(&harness(), 1024, 64 << 10);
    }

    #[test]
    fn non_multiple_totals_round_down() {
        let bw = measure_pipe_bw(&harness(), (1 << 20) + 5000, 64 << 10);
        assert!(bw.mb_per_s > 0.0);
    }

    #[test]
    fn dead_writer_surfaces_as_prompt_failure_not_a_hang() {
        let begin = std::time::Instant::now();
        let result = std::panic::catch_unwind(|| {
            measure_inner(&harness(), 4 << 20, 64 << 10, /* child_fail= */ true)
        });
        let err = result.expect_err("dead writer must fail the run");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic".into());
        assert!(msg.contains("writer hung up early"), "{msg}");
        assert!(
            begin.elapsed() < std::time::Duration::from_secs(5),
            "failure must be prompt, not a watchdog timeout"
        );
    }

    #[test]
    fn pipe_sink_drains_chunks_and_reaps_on_drop() {
        let mut sink = PipeSink::start(64 << 10).unwrap();
        assert_eq!(sink.chunk_bytes(), 64 << 10);
        for _ in 0..32 {
            sink.write_chunk();
        }
        drop(sink); // Must not hang: EOF stops the child, waitpid reaps.
    }
}
