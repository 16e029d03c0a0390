//! Timed stream transfers: the one body behind the pipe, TCP and AF_UNIX
//! bandwidths.
//!
//! Each transfer is a [`Harness::measure_staged`] run. The stage starts the
//! writer with the clock stopped; the timed body reads the payload, so the
//! interval ends when the reader holds the last byte ("the reader prints the
//! timing results, which guarantees that all data has been moved before the
//! timing is finished", §5.2); the writer is joined or reaped after the
//! clock stops.

use lmb_sys::process::{waitpid, Pid};
use lmb_timing::{Bandwidth, Harness};
use std::thread::JoinHandle;

/// A started transfer: the reader the timed body drains and the writer
/// feeding it. Fields drop in order, so the reader closes first and a
/// writer still blocked on a full buffer fails out instead of hanging the
/// join.
pub(crate) struct Stream<R> {
    pub(crate) reader: R,
    pub(crate) _writer: Writer,
}

/// The sending side of a [`Stream`], joined (thread) or reaped (process)
/// when dropped.
pub(crate) enum Writer {
    Thread(Option<JoinHandle<()>>),
    Process(Pid),
}

impl Drop for Writer {
    fn drop(&mut self) {
        // A writer that failed has already cut the stream short, which the
        // reader reports; its exit status adds nothing.
        match self {
            Writer::Thread(handle) => {
                if let Some(handle) = handle.take() {
                    let _ = handle.join();
                }
            }
            Writer::Process(pid) => {
                let _ = waitpid(*pid);
            }
        }
    }
}

/// Measures the bandwidth of the whole `chunk`s of `total` bytes streamed
/// through each transfer `start(chunks)` opens.
///
/// # Panics
///
/// Panics if `chunk` is zero or `total < chunk`, and with "writer hung up
/// early" if a stream ends before its payload arrives.
pub(crate) fn measure_stream<R>(
    h: &Harness,
    total: usize,
    chunk: usize,
    mut start: impl FnMut(usize) -> Stream<R>,
    mut read: impl FnMut(&mut R, &mut [u8]) -> usize,
) -> Bandwidth {
    assert!(chunk > 0, "chunk must be nonzero");
    assert!(total >= chunk, "total below one chunk");
    let chunks = total / chunk;
    let payload = chunks * chunk;
    let mut buf = vec![0u8; chunk];
    h.measure_staged(
        1,
        || start(chunks),
        |mut stream| {
            let mut received = 0usize;
            while received < payload {
                let want = chunk.min(payload - received);
                let n = read(&mut stream.reader, &mut buf[..want]);
                assert!(n > 0, "writer hung up early at {received}/{payload}");
                received += n;
            }
            stream
        },
    )
    .bandwidth(payload as u64)
}
