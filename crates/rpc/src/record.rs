//! TCP record marking (RFC 1057 §10).
//!
//! RPC messages over TCP are framed into records; each fragment is preceded
//! by a 4-byte big-endian header whose top bit marks the final fragment and
//! whose low 31 bits give the fragment length. As Sun RPC's `xdrrec` stream
//! does, a fragment leaves with its mark in one send, and a connection reads
//! records through one buffer, so a record that arrives whole costs one
//! read. The framing's own cost is then one length check per fragment, not
//! an extra write and read per message.

use bytes::{Buf, Bytes, BytesMut};
use std::io::{self, Read, Write};

/// Largest fragment this implementation emits or accepts.
pub const MAX_FRAGMENT: usize = 1 << 24;

/// Capacity of a connection's read buffer: a mark and a small record (an
/// echo call, a table reply) arrive in one read, and a record larger than
/// what is left of the buffer is read straight into its own allocation.
pub(crate) const READ_BUFFER_BYTES: usize = 8 << 10;

/// Writes `payload` as one or more record fragments, each fragment and its
/// mark copied into one buffer and handed to the writer in one `write_all`
/// (one `write` on a socket that takes it whole).
pub fn write_record<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut fragment = Vec::with_capacity(4 + payload.len().min(MAX_FRAGMENT));
    // A zero-length record is still one (final, empty) fragment.
    let mut rest = payload;
    loop {
        let (chunk, tail) = rest.split_at(rest.len().min(MAX_FRAGMENT));
        let last = tail.is_empty();
        let mark = chunk.len() as u32 | if last { 0x8000_0000 } else { 0 };
        fragment.clear();
        fragment.extend_from_slice(&mark.to_be_bytes());
        fragment.extend_from_slice(chunk);
        w.write_all(&fragment)?;
        if last {
            return Ok(());
        }
        rest = tail;
    }
}

/// Reads one complete record (possibly multiple fragments). Give it the
/// connection's buffered reader, not the bare socket: the mark and the body
/// then come out of one read, and bytes past the record stay buffered for
/// the next call.
pub fn read_record<R: Read>(r: &mut R) -> io::Result<Bytes> {
    read_record_limited(r, usize::MAX)
}

/// Reads one complete record, rejecting any record whose *total*
/// reassembled size exceeds `max_total` bytes.
///
/// [`read_record`] caps each fragment at [`MAX_FRAGMENT`] but places no
/// bound on how many fragments a record may span — fine between trusted
/// benchmark processes, not for a long-running daemon whose peers can be
/// buggy. The check runs against the declared fragment lengths *before*
/// buffering, so an oversized record is refused without allocating for it.
pub fn read_record_limited<R: Read>(r: &mut R, max_total: usize) -> io::Result<Bytes> {
    let mut out = BytesMut::new();
    loop {
        let mut hdr = [0u8; 4];
        r.read_exact(&mut hdr)?;
        let word = u32::from_be_bytes(hdr);
        let last = word & 0x8000_0000 != 0;
        let len = (word & 0x7FFF_FFFF) as usize;
        if len > MAX_FRAGMENT {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("fragment of {len} bytes exceeds cap"),
            ));
        }
        if out.len().saturating_add(len) > max_total {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "record exceeds {max_total}-byte cap ({} buffered + {len} declared)",
                    out.len()
                ),
            ));
        }
        let start = out.len();
        out.resize(start + len, 0);
        r.read_exact(&mut out[start..])?;
        if last {
            return Ok(out.freeze());
        }
    }
}

/// In-memory framing helper for datagram-over-stream tests: frames
/// `payload` and returns the raw stream bytes.
pub fn frame(payload: &[u8]) -> Bytes {
    let mut buf = Vec::with_capacity(payload.len() + 8);
    write_record(&mut buf, payload).expect("vec write cannot fail");
    Bytes::from(buf)
}

/// Parses all records out of a contiguous stream buffer (test helper).
pub fn deframe_all(mut stream: Bytes) -> io::Result<Vec<Bytes>> {
    let mut out = Vec::new();
    while stream.has_remaining() {
        let mut cursor = io::Cursor::new(stream.as_ref());
        let record = read_record(&mut cursor)?;
        let consumed = cursor.position() as usize;
        stream.advance(consumed);
        out.push(record);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// Passes writes through to `inner`, keeping each call's byte count.
    struct CountingWriter<W> {
        inner: W,
        calls: Vec<usize>,
    }

    impl<W: Write> Write for CountingWriter<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.inner.write(buf)?;
            self.calls.push(n);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    /// Passes reads through to `inner`, counting the calls.
    struct CountingReader<R> {
        inner: R,
        reads: usize,
    }

    impl<R: Read> Read for CountingReader<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    #[test]
    fn a_single_fragment_record_is_one_write() {
        let mut w = CountingWriter {
            inner: Vec::new(),
            calls: Vec::new(),
        };
        write_record(&mut w, b"hello rpc").unwrap();
        assert_eq!(w.calls, vec![4 + 9], "mark and fragment in one call");
        write_record(&mut w, b"").unwrap();
        assert_eq!(w.calls, vec![13, 4], "an empty record is its mark alone");
        assert_eq!(
            w.inner,
            [frame(b"hello rpc").as_ref(), frame(b"").as_ref()].concat()
        );
    }

    #[test]
    fn a_record_past_max_fragment_is_one_write_per_fragment() {
        // Zeroed and only ever read, the payload stays on Linux's
        // shared zero page; only the one fragment buffer is touched.
        let payload = vec![0u8; MAX_FRAGMENT + 1];
        let mut w = CountingWriter {
            inner: io::sink(),
            calls: Vec::new(),
        };
        write_record(&mut w, &payload).unwrap();
        assert_eq!(w.calls, vec![4 + MAX_FRAGMENT, 4 + 1]);
    }

    #[test]
    fn a_buffered_connection_reads_a_whole_record_in_one_read() {
        let stream = [frame(b"first").as_ref(), frame(b"second message").as_ref()].concat();
        let mut conn = BufReader::with_capacity(
            READ_BUFFER_BYTES,
            CountingReader {
                inner: io::Cursor::new(stream),
                reads: 0,
            },
        );
        assert_eq!(read_record(&mut conn).unwrap().as_ref(), b"first");
        assert_eq!(conn.get_ref().reads, 1, "mark and body from one read");
        // The pipelined second record was buffered by that same read.
        assert_eq!(read_record(&mut conn).unwrap().as_ref(), b"second message");
        assert_eq!(conn.get_ref().reads, 1);
        assert!(read_record(&mut conn).is_err(), "end of stream");
    }

    #[test]
    fn a_buffered_connection_refuses_an_oversized_mark_before_reading_its_body() {
        let mut stream = ((MAX_FRAGMENT as u32 + 1) | 0x8000_0000)
            .to_be_bytes()
            .to_vec();
        stream.extend_from_slice(b"body");
        let mut conn = BufReader::with_capacity(READ_BUFFER_BYTES, io::Cursor::new(stream));
        let err = read_record(&mut conn).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn single_fragment_round_trip() {
        let framed = frame(b"hello rpc");
        let records = deframe_all(framed).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].as_ref(), b"hello rpc");
    }

    #[test]
    fn empty_record_round_trips() {
        let framed = frame(b"");
        assert_eq!(framed.as_ref(), &[0x80, 0, 0, 0]);
        let records = deframe_all(framed).unwrap();
        assert_eq!(records.len(), 1);
        assert!(records[0].is_empty());
    }

    #[test]
    fn back_to_back_records_separate_cleanly() {
        let mut stream = Vec::new();
        write_record(&mut stream, b"first").unwrap();
        write_record(&mut stream, b"second message").unwrap();
        write_record(&mut stream, b"").unwrap();
        let records = deframe_all(Bytes::from(stream)).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].as_ref(), b"first");
        assert_eq!(records[1].as_ref(), b"second message");
        assert!(records[2].is_empty());
    }

    #[test]
    fn header_carries_last_bit_and_length() {
        let framed = frame(b"abc");
        assert_eq!(framed[0], 0x80);
        assert_eq!(framed[3], 3);
    }

    #[test]
    fn truncated_stream_errors_not_panics() {
        let framed = frame(b"full message");
        let cut = framed.slice(0..6);
        let mut cursor = std::io::Cursor::new(cut.as_ref());
        assert!(read_record(&mut cursor).is_err());
    }

    #[test]
    fn limited_read_rejects_oversized_records_before_buffering() {
        let framed = frame(b"twelve bytes");
        let mut cursor = std::io::Cursor::new(framed.as_ref());
        let err = read_record_limited(&mut cursor, 5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // A record at exactly the cap passes.
        let mut cursor = std::io::Cursor::new(framed.as_ref());
        let record = read_record_limited(&mut cursor, 12).unwrap();
        assert_eq!(record.as_ref(), b"twelve bytes");
    }

    #[test]
    fn limited_read_caps_the_fragment_total_not_each_fragment() {
        // Two 3-byte fragments: total 6 exceeds a 5-byte cap even though
        // each fragment alone fits.
        let mut stream = Vec::new();
        stream.extend_from_slice(&3u32.to_be_bytes());
        stream.extend_from_slice(b"abc");
        stream.extend_from_slice(&(3u32 | 0x8000_0000).to_be_bytes());
        stream.extend_from_slice(b"def");
        let mut cursor = std::io::Cursor::new(stream.as_slice());
        assert!(read_record_limited(&mut cursor, 5).is_err());
        let mut cursor = std::io::Cursor::new(stream.as_slice());
        assert_eq!(
            read_record_limited(&mut cursor, 6).unwrap().as_ref(),
            b"abcdef"
        );
    }

    #[test]
    fn multi_fragment_records_reassemble() {
        // Hand-build two fragments: "abc" (not last) + "def" (last).
        let mut stream = Vec::new();
        stream.extend_from_slice(&3u32.to_be_bytes());
        stream.extend_from_slice(b"abc");
        stream.extend_from_slice(&(3u32 | 0x8000_0000).to_be_bytes());
        stream.extend_from_slice(b"def");
        let mut cursor = std::io::Cursor::new(stream.as_slice());
        let record = read_record(&mut cursor).unwrap();
        assert_eq!(record.as_ref(), b"abcdef");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn any_payload_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let records = deframe_all(frame(&data)).unwrap();
            prop_assert_eq!(records.len(), 1);
            prop_assert_eq!(records[0].as_ref(), data.as_slice());
        }

        #[test]
        fn framing_is_the_mark_then_the_payload(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let mut expected = (data.len() as u32 | 0x8000_0000).to_be_bytes().to_vec();
            expected.extend_from_slice(&data);
            let framed = frame(&data);
            prop_assert_eq!(framed.as_ref(), expected.as_slice());
        }

        #[test]
        fn concatenated_payloads_stay_separate(
            a in proptest::collection::vec(any::<u8>(), 0..512),
            b in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let mut stream = Vec::new();
            write_record(&mut stream, &a).unwrap();
            write_record(&mut stream, &b).unwrap();
            let records = deframe_all(Bytes::from(stream)).unwrap();
            prop_assert_eq!(records.len(), 2);
            prop_assert_eq!(records[0].as_ref(), a.as_slice());
            prop_assert_eq!(records[1].as_ref(), b.as_slice());
        }
    }
}
