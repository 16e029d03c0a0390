//! JSONL trace artifacts: one serialized [`TraceEvent`] per line.
//!
//! The trace file is the run's machine-readable flight recorder: append
//! only, valid after a crash up to the last flushed line, and parseable
//! back into the exact event structs that produced it ([`parse_jsonl`]).

use crate::event::{EventKind, TraceEvent};
use crate::sink::{Sink, SinkStatsSnapshot};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Serialized lines accumulate in the sink's own buffer until it holds this
/// many bytes; the underlying writer then sees one large write instead of
/// one small write per event (the ROADMAP "raw-speed" batching item).
const BATCH_BYTES: usize = 64 * 1024;

/// Streams events as JSONL to any writer (file, stderr, a test buffer).
///
/// Emission is batched: events append to an in-memory buffer which is
/// written out when it reaches `BATCH_BYTES` (64 KiB) or when the sink is
/// flushed (its trace flushes every sink on span close and when the trace
/// drops — so the artifact is valid up to the last closed span even after
/// a crash).
///
/// Write errors are never allowed to panic the benchmark being observed;
/// instead every event lost to a failed write or serialization is counted
/// in the sink's [`Sink::stats`], which its trace reports as `dropped`,
/// and reported once on stderr when the sink is dropped.
pub struct JsonlSink<W: Write + Send> {
    out: W,
    buf: Vec<u8>,
    /// Events currently sitting in `buf` (lost in one batch if a write fails).
    buffered: u64,
    /// Bytes and batches written, and events lost to failed
    /// serialization or I/O.
    stats: SinkStatsSnapshot,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            buf: Vec::new(),
            buffered: 0,
            stats: SinkStatsSnapshot::default(),
        }
    }

    /// Pushes the line buffer to the writer (one batched write).
    fn write_batch(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        match self.out.write_all(&self.buf) {
            Ok(()) => {
                self.stats.writes += 1;
                self.stats.bytes += self.buf.len() as u64;
            }
            Err(_) => {
                // Best-effort, like any flight recorder with a dying disk:
                // the whole batch is lost, counted, and reported at drop.
                self.stats.dropped += self.buffered;
            }
        }
        self.buf.clear();
        self.buffered = 0;
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn event(&mut self, event: &TraceEvent) {
        match serde_json::to_string(event) {
            Ok(line) => {
                self.buf.extend_from_slice(line.as_bytes());
                self.buf.push(b'\n');
                self.buffered += 1;
            }
            Err(_) => self.stats.dropped += 1,
        }
        if self.buf.len() >= BATCH_BYTES {
            self.write_batch();
        }
    }

    fn flush(&mut self) {
        self.write_batch();
        let _ = self.out.flush();
    }

    fn stats(&self) -> SinkStatsSnapshot {
        self.stats
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        self.flush();
        if self.stats.dropped > 0 {
            eprintln!(
                "lmb-trace: warning: {} trace event(s) dropped on write errors",
                self.stats.dropped
            );
        }
    }
}

/// Collects events in memory; cloneable handle for reading them back after
/// the traced code finished. Used by tests and the engine's unit drills.
#[derive(Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl MemorySink {
    /// A fresh, empty shared sink.
    #[must_use]
    pub fn shared() -> Self {
        Self::default()
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("memory sink lock").clone()
    }
}

impl Sink for MemorySink {
    fn event(&mut self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("memory sink lock")
            .push(event.clone());
    }
}

/// Parses a JSONL trace back into events; `Err` carries the offending line
/// number (1-based) and the parse error.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str::<TraceEvent>(line).map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// Checks that `seq` strictly increases down an event stream, as it does
/// in any trace one process wrote through one sink; `Err` names the first
/// out-of-order event (1-based) and both sequence numbers.
pub fn check_seq_order(events: &[TraceEvent]) -> Result<(), String> {
    match events
        .windows(2)
        .position(|pair| pair[0].seq >= pair[1].seq)
    {
        None => Ok(()),
        Some(i) => Err(format!(
            "event {}: seq {} does not follow seq {}",
            i + 2,
            events[i + 1].seq,
            events[i].seq
        )),
    }
}

/// Checks that every span in an event stream closes exactly once; `Err`
/// names the first `span_end` with no earlier `span_start`, the first span
/// that ends twice, or the first-started span that never ends.
pub fn check_spans(events: &[TraceEvent]) -> Result<(), String> {
    let mut started: Vec<(u64, &str)> = Vec::new();
    // Span id -> whether its span_end has been seen.
    let mut ended: HashMap<u64, bool> = HashMap::new();
    for (i, event) in events.iter().enumerate() {
        match (&event.kind, event.span) {
            (EventKind::SpanStart { name, .. }, Some(id)) => {
                started.push((id, name));
                ended.insert(id, false);
            }
            (EventKind::SpanEnd { name, .. }, id) => match id.and_then(|id| ended.get_mut(&id)) {
                None => {
                    return Err(format!(
                        "event {}: span_end `{name}` has no span_start",
                        i + 1
                    ))
                }
                Some(true) => return Err(format!("event {}: span `{name}` ends twice", i + 1)),
                Some(done) => *done = true,
            },
            _ => {}
        }
    }
    match started.iter().find(|(id, _)| !ended[id]) {
        None => Ok(()),
        Some((id, name)) => Err(format!("span {id} `{name}` never ends")),
    }
}

/// Checks that every span id a run report names has a `span_start` in the
/// trace; `refs` pairs each record's name with its non-null span id, and
/// `Err` names the first record whose span never started.
pub fn check_span_refs<'a>(
    events: &[TraceEvent],
    refs: impl IntoIterator<Item = (&'a str, u64)>,
) -> Result<(), String> {
    let started: HashSet<u64> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SpanStart { .. }))
        .filter_map(|e| e.span)
        .collect();
    match refs.into_iter().find(|(_, id)| !started.contains(id)) {
        None => Ok(()),
        Some((name, id)) => Err(format!(
            "record `{name}`: span {id} has no span_start in the trace"
        )),
    }
}

/// A span that appeared in a trace, with both endpoints when complete.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span id.
    pub id: u64,
    /// Span name (from `span_start`).
    pub name: String,
    /// Whether a matching `span_end` was seen.
    pub complete: bool,
    /// Lifetime from `span_end`, microseconds (0 when incomplete).
    pub elapsed_us: f64,
}

/// Summarizes every span in an event stream, in `span_start` order.
#[must_use]
pub fn span_summaries(events: &[TraceEvent]) -> Vec<SpanSummary> {
    let mut spans: Vec<SpanSummary> = Vec::new();
    for event in events {
        match &event.kind {
            EventKind::SpanStart { name, .. } => {
                if let Some(id) = event.span {
                    spans.push(SpanSummary {
                        id,
                        name: name.clone(),
                        complete: false,
                        elapsed_us: 0.0,
                    });
                }
            }
            EventKind::SpanEnd { elapsed_us, .. } => {
                if let Some(summary) = spans.iter_mut().find(|s| Some(s.id) == event.span) {
                    summary.complete = true;
                    summary.elapsed_us = *elapsed_us;
                }
            }
            _ => {}
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, span: Option<u64>, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            t_us: seq as f64,
            span,
            kind,
        }
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        for (i, kind) in EventKind::samples().into_iter().enumerate() {
            let e = event(i as u64, Some(1), kind);
            sink.event(&e);
        }
        sink.flush();
        let text = String::from_utf8(sink.out.clone()).unwrap();
        let parsed = parse_jsonl(&text).expect("every line parses");
        assert_eq!(parsed.len(), EventKind::samples().len());
        assert_eq!(parsed[0].seq, 0);
    }

    #[test]
    fn emission_batches_until_flush() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.event(&event(0, None, EventKind::Warmup { runs: 1 }));
        assert!(
            sink.out.is_empty(),
            "one small event must not reach the writer before a flush"
        );
        assert_eq!(sink.buffered, 1);
        sink.flush();
        assert!(!sink.out.is_empty(), "flush pushes the batch through");
        assert_eq!(sink.buffered, 0);
        let parsed = parse_jsonl(&String::from_utf8(sink.out.clone()).unwrap()).unwrap();
        assert_eq!(parsed.len(), 1);
    }

    #[test]
    fn a_full_buffer_writes_itself_out() {
        let mut sink = JsonlSink::new(Vec::new());
        let mut n = 0u64;
        while sink.out.is_empty() {
            sink.event(&event(n, None, EventKind::Warmup { runs: 1 }));
            n += 1;
            assert!(n < 1_000_000, "batch never spilled");
        }
        assert!(n > 1, "batching collapsed to per-event writes");
    }

    /// A writer that fails every write, for the dropped-event accounting.
    struct BrokenWriter;
    impl Write for BrokenWriter {
        fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("disk on fire"))
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    // Send is auto-derived for the field-less struct.

    #[test]
    fn failed_writes_count_dropped_events_instead_of_panicking() {
        let mut sink = JsonlSink::new(BrokenWriter);
        sink.event(&event(0, None, EventKind::Warmup { runs: 1 }));
        sink.event(&event(1, None, EventKind::Warmup { runs: 2 }));
        sink.flush();
        assert_eq!(
            sink.stats().dropped,
            2,
            "both buffered events lost in one batch"
        );
        assert_eq!(sink.buffered, 0);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = parse_jsonl(
            "{\"seq\":0,\"t_us\":0.0,\"span\":null,\"kind\":\"warmup\",\"runs\":1}\nnot json\n",
        )
        .unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn seq_order_check_names_the_first_regression() {
        let warm = || EventKind::Warmup { runs: 1 };
        assert_eq!(check_seq_order(&[]), Ok(()));
        assert_eq!(
            check_seq_order(&[event(0, None, warm()), event(5, None, warm())]),
            Ok(())
        );
        let err = check_seq_order(&[
            event(0, None, warm()),
            event(2, None, warm()),
            event(1, None, warm()),
        ])
        .unwrap_err();
        assert_eq!(err, "event 3: seq 1 does not follow seq 2");
        assert!(check_seq_order(&[event(4, None, warm()), event(4, None, warm())]).is_err());
    }

    #[test]
    fn span_check_catches_orphan_double_and_open_spans() {
        let start = |seq, id| {
            let name = "bench:x".into();
            event(seq, Some(id), EventKind::SpanStart { name, parent: None })
        };
        let end = |seq, id| {
            let name = "bench:x".into();
            event(
                seq,
                Some(id),
                EventKind::SpanEnd {
                    name,
                    elapsed_us: 1.0,
                },
            )
        };
        assert_eq!(check_spans(&[start(0, 1), end(1, 1)]), Ok(()));
        let err = check_spans(&[end(0, 1)]).unwrap_err();
        assert_eq!(err, "event 1: span_end `bench:x` has no span_start");
        let err = check_spans(&[start(0, 1), end(1, 1), end(2, 1)]).unwrap_err();
        assert_eq!(err, "event 3: span `bench:x` ends twice");
        let err = check_spans(&[start(0, 1), start(1, 2), end(2, 1)]).unwrap_err();
        assert_eq!(err, "span 2 `bench:x` never ends");
    }

    #[test]
    fn span_refs_resolve_against_span_starts() {
        let start = |seq, id| {
            let name = "bench:x".into();
            event(seq, Some(id), EventKind::SpanStart { name, parent: None })
        };
        // A warmup attributed to span 3 does not make span 3 exist.
        let events = [
            start(0, 1),
            start(1, 2),
            event(2, Some(3), EventKind::Warmup { runs: 1 }),
        ];
        assert_eq!(check_span_refs(&events, [("a", 1), ("b", 2)]), Ok(()));
        let err = check_span_refs(&events, [("a", 1), ("c", 3)]).unwrap_err();
        assert_eq!(err, "record `c`: span 3 has no span_start in the trace");
    }

    #[test]
    fn blank_lines_are_tolerated() {
        let events = parse_jsonl("\n\n").unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn span_summaries_pair_starts_and_ends() {
        let events = vec![
            event(
                0,
                Some(1),
                EventKind::SpanStart {
                    name: "suite".into(),
                    parent: None,
                },
            ),
            event(
                1,
                Some(2),
                EventKind::SpanStart {
                    name: "bench:lat_syscall".into(),
                    parent: Some(1),
                },
            ),
            event(
                2,
                Some(2),
                EventKind::SpanEnd {
                    name: "bench:lat_syscall".into(),
                    elapsed_us: 42.0,
                },
            ),
        ];
        let spans = span_summaries(&events);
        assert_eq!(spans.len(), 2);
        assert!(!spans[0].complete, "suite span never ended");
        assert!(spans[1].complete);
        assert_eq!(spans[1].elapsed_us, 42.0);
        assert_eq!(spans[1].name, "bench:lat_syscall");
    }
}
