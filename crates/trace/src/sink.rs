//! A run's trace and the zero-overhead emit path.
//!
//! Benchmarks must not pay for their own observability (nanoBench's rule:
//! the harness may not perturb the measurement). On a thread with no
//! trace the entire cost of [`emit`] is one thread-local read and a
//! branch — the event closure is never called, nothing allocates, no lock
//! is touched. A guard test in `tests/overhead.rs` holds this crate to
//! that claim with a calibrated timing loop.
//!
//! A [`Trace`] belongs to one run. Its events fan out to its own sinks
//! under its lock, stamped with its own sequence number and a microsecond
//! timestamp relative to its creation.

use crate::event::{EventKind, TraceEvent};
use crate::span::{current, SpanId, TRACED};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A consumer of trace events. Implementations must tolerate events from
/// multiple threads (delivery is serialized by the trace's lock).
pub trait Sink: Send {
    /// One event, in sequence order.
    fn event(&mut self, event: &TraceEvent);
    /// Flush any buffered output (called on every span end, on
    /// [`Trace::flush`] and when the trace drops).
    fn flush(&mut self) {}
    /// What this sink wrote and lost so far (its `events` field unused);
    /// zero for sinks that write no artifact.
    fn stats(&self) -> SinkStatsSnapshot {
        SinkStatsSnapshot::default()
    }
}

/// Cumulative activity of one [`Trace`], readable at any time (the engine
/// reads its run's trace for the harness budget).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStatsSnapshot {
    /// Events delivered (counted once, not per sink).
    pub events: u64,
    /// JSONL bytes successfully written.
    pub bytes: u64,
    /// Batched writes issued.
    pub writes: u64,
    /// Events dropped on errors.
    pub dropped: u64,
}

/// One run's trace: a cloneable handle to its sinks and counters.
/// Dropping the last handle flushes the sinks.
#[derive(Clone)]
pub struct Trace(Arc<Tracer>);

struct Tracer {
    epoch: Instant,
    // Span 0 is reserved as "no span".
    next_span: AtomicU64,
    out: Mutex<Out>,
}

/// The lock-protected half: `next_seq` is stamped under the same lock
/// that delivers, and doubles as the count of delivered events.
struct Out {
    next_seq: u64,
    sinks: Vec<Box<dyn Sink>>,
}

impl Trace {
    /// A trace fanning out to `sinks`, with `seq` starting at 0 and span
    /// ids at 1.
    #[must_use]
    pub fn new(sinks: Vec<Box<dyn Sink>>) -> Trace {
        Trace(Arc::new(Tracer {
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
            out: Mutex::new(Out { next_seq: 0, sinks }),
        }))
    }

    /// Makes this trace current on the calling thread, outside any span,
    /// until the guard drops. The thread holds a handle meanwhile, so a
    /// trace built only to be entered flushes when the guard drops.
    pub fn enter(&self) -> crate::ContextGuard {
        crate::ContextGuard::enter(&SpanId {
            trace: Some(self.clone()),
            id: 0,
        })
    }

    /// Events delivered so far, plus what the sinks wrote and lost.
    #[must_use]
    pub fn stats(&self) -> SinkStatsSnapshot {
        let out = self.0.out.lock().expect("trace sinks lock");
        let mut total = SinkStatsSnapshot {
            events: out.next_seq,
            ..SinkStatsSnapshot::default()
        };
        for s in out.sinks.iter().map(|s| s.stats()) {
            total.bytes += s.bytes;
            total.writes += s.writes;
            total.dropped += s.dropped;
        }
        total
    }

    /// Flushes every sink (e.g. at a durability point).
    pub fn flush(&self) {
        for sink in &mut self.0.out.lock().expect("trace sinks lock").sinks {
            sink.flush();
        }
    }

    pub(crate) fn next_span_id(&self) -> u64 {
        self.0.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Slow path: stamp and fan out.
    fn deliver(&self, span: Option<u64>, kind: EventKind) {
        // A closing span is the batching boundary: sinks buffer freely
        // between span ends, and the artifact on disk is valid up to the
        // last one.
        let span_closed = matches!(kind, EventKind::SpanEnd { .. });
        let mut out = self.0.out.lock().expect("trace sinks lock");
        // Stamped under the lock, so delivery order is sequence order: a
        // thread preempted between stamping and locking could otherwise
        // land its line after a later-numbered one.
        let event = TraceEvent {
            seq: out.next_seq,
            t_us: self.0.epoch.elapsed().as_secs_f64() * 1e6,
            span,
            kind,
        };
        out.next_seq += 1;
        for sink in &mut out.sinks {
            sink.event(&event);
            if span_closed {
                sink.flush();
            }
        }
    }
}

impl Drop for Tracer {
    fn drop(&mut self) {
        if let Ok(out) = self.out.get_mut() {
            out.sinks.iter_mut().for_each(|sink| sink.flush());
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace").finish_non_exhaustive()
    }
}

/// Does the calling thread have a trace? The fast path every
/// instrumentation site checks first: one thread-local read and a branch.
#[inline(always)]
#[must_use]
pub fn enabled() -> bool {
    TRACED.with(|t| t.load(Ordering::Relaxed))
}

/// Emits an event attributed to the calling thread's current span. The
/// closure is only evaluated when the thread has a trace, so callers can
/// build payloads (allocate strings, snapshot counters) for free when it
/// has not.
#[inline]
pub fn emit(kind: impl FnOnce() -> EventKind) {
    if enabled() {
        emit_in(&current(), kind);
    }
}

/// Emits an event attributed to an explicit span, into that span's trace
/// (for code that holds a span but runs on a thread that never entered
/// it).
#[inline]
pub fn emit_in(span: &SpanId, kind: impl FnOnce() -> EventKind) {
    if let Some(trace) = span.trace() {
        trace.deliver(span.as_option(), kind());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonl::{JsonlSink, MemorySink};

    fn traced(sinks: &[&MemorySink]) -> Trace {
        Trace::new(
            sinks
                .iter()
                .map(|s| Box::new((*s).clone()) as Box<dyn Sink>)
                .collect(),
        )
    }

    #[test]
    fn disabled_tracer_never_evaluates_the_closure() {
        assert!(!enabled());
        let mut called = false;
        emit(|| {
            called = true;
            EventKind::Warmup { runs: 1 }
        });
        assert!(!called, "closure ran with tracing disabled");
    }

    #[test]
    fn enter_enables_and_the_guard_disables() {
        let sink = MemorySink::shared();
        let trace = traced(&[&sink]);
        {
            let _ctx = trace.enter();
            assert!(enabled());
            emit(|| EventKind::Warmup { runs: 3 });
        }
        assert!(!enabled());
        emit(|| EventKind::Warmup { runs: 9 });
        let events = sink.events();
        assert_eq!(events.len(), 1, "exactly the enabled-window event");
        assert!(matches!(events[0].kind, EventKind::Warmup { runs: 3 }));
        assert_eq!(events[0].span, None, "outside any span");
    }

    #[test]
    fn events_are_sequenced_from_zero_and_timestamped() {
        let sink = MemorySink::shared();
        let trace = traced(&[&sink]);
        let _ctx = trace.enter();
        for phase in ["seq-a", "seq-b"] {
            emit(|| EventKind::PhaseStart {
                phase: phase.into(),
            });
        }
        let events = sink.events();
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1]);
        assert!(
            events[0].t_us <= events[1].t_us,
            "time must not go backwards"
        );
        assert_eq!(trace.stats().events, 2);
    }

    #[test]
    fn concurrent_emitters_deliver_in_sequence_order() {
        let sink = MemorySink::shared();
        let trace = traced(&[&sink]);
        let ctx = trace.enter();
        let root = current();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let root = &root;
                scope.spawn(move || {
                    let _ctx = crate::ContextGuard::enter(root);
                    for _ in 0..1000 {
                        emit(|| EventKind::Attempt { attempt: worker });
                    }
                });
            }
        });
        drop(ctx);
        let events = sink.events();
        assert_eq!(events.len(), 4000);
        crate::check_seq_order(&events).expect("delivery order is seq order");
        assert!(events.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn two_sinks_both_see_events() {
        let (a, b) = (MemorySink::shared(), MemorySink::shared());
        let trace = traced(&[&a, &b]);
        let _ctx = trace.enter();
        emit(|| EventKind::Warmup { runs: 77 });
        for sink in [a, b] {
            assert!(matches!(
                sink.events()[..],
                [TraceEvent {
                    kind: EventKind::Warmup { runs: 77 },
                    ..
                }]
            ));
        }
    }

    #[test]
    fn traces_side_by_side_keep_their_own_events_and_counts() {
        let (a, b) = (MemorySink::shared(), MemorySink::shared());
        let (ta, tb) = (traced(&[&a]), traced(&[&b]));
        std::thread::scope(|scope| {
            for (trace, runs) in [(&ta, 1), (&tb, 2)] {
                scope.spawn(move || {
                    let _ctx = trace.enter();
                    let _span = crate::Span::enter("mine");
                    emit(|| EventKind::Warmup { runs });
                });
            }
        });
        for (sink, trace, runs) in [(a, ta, 1), (b, tb, 2)] {
            let events = sink.events();
            assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), [0, 1, 2]);
            assert!(events.iter().all(|e| e.span == Some(1)), "{events:?}");
            assert!(matches!(events[1].kind, EventKind::Warmup { runs: r } if r == runs));
            assert_eq!(trace.stats().events, 3);
        }
    }

    #[test]
    fn a_trace_counts_its_jsonl_writes_and_flushes_on_drop() {
        let path =
            std::env::temp_dir().join(format!("lmb-trace-drop-{}.jsonl", std::process::id()));
        let trace = Trace::new(vec![Box::new(JsonlSink::create(&path).unwrap())]);
        let ctx = trace.enter();
        emit(|| EventKind::Warmup { runs: 5 });
        let buffered = SinkStatsSnapshot {
            events: 1,
            ..SinkStatsSnapshot::default()
        };
        assert_eq!(trace.stats(), buffered, "buffered, not yet written");
        trace.flush();
        let written = std::fs::read_to_string(&path).unwrap().len() as u64;
        let flushed = SinkStatsSnapshot {
            bytes: written,
            writes: 1,
            ..buffered
        };
        assert_eq!(trace.stats(), flushed);
        emit(|| EventKind::Warmup { runs: 6 });
        drop(ctx);
        drop(trace);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            crate::parse_jsonl(&text).unwrap().len(),
            2,
            "the drop flushed"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
