//! Spans: named intervals that give events a place in the run's tree.
//!
//! A [`Span`] is an RAII guard — entering emits `span_start`, dropping
//! emits `span_end` with the measured lifetime. Span ids come from the
//! span's own [`Trace`], so every run numbers its spans from 1; on a
//! thread with no trace a span is [`SpanId::NONE`].
//!
//! The current span is a *thread-local* that carries its trace. A thread
//! that runs work for a span it never entered (the engine's watchdogged
//! benchmark thread, a load generator, an RPC handler) re-enters it with
//! a [`ContextGuard`]. Instrumentation deeper down (the timing harness,
//! for instance) then attributes its events to the right span of the
//! right trace without ever naming either.

use crate::event::EventKind;
use crate::sink::{emit_in, Trace};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

thread_local! {
    static CURRENT: RefCell<SpanId> = const { RefCell::new(SpanId::NONE) };
    /// Whether `CURRENT` carries a trace: the disabled fast path reads
    /// only this flag, never the handle. Atomic though thread-local, so
    /// the check stays one load and a branch at each site instead of
    /// being hoisted out of (and duplicating) the caller's loop.
    pub(crate) static TRACED: AtomicBool = const { AtomicBool::new(false) };
}

/// A span in a trace: the handle that carries a run's trace from thread
/// to thread. [`SpanId::NONE`] means "not traced".
#[derive(Debug, Clone)]
pub struct SpanId {
    pub(crate) trace: Option<Trace>,
    // 0 is the trace's root: inside the trace, outside any span.
    pub(crate) id: u64,
}

impl SpanId {
    /// The null span, in no trace.
    pub const NONE: SpanId = SpanId { trace: None, id: 0 };

    /// The id as an optional raw value (`None` outside any span).
    #[must_use]
    pub fn as_option(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }

    /// The trace this span belongs to (`None` when untraced).
    #[must_use]
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }
}

/// The calling thread's current span, trace included.
#[must_use]
pub fn current() -> SpanId {
    CURRENT.with(|c| c.borrow().clone())
}

/// Makes `span` current and returns the span it replaced.
fn swap_current(span: SpanId) -> SpanId {
    TRACED.with(|t| t.store(span.trace.is_some(), Ordering::Relaxed));
    CURRENT.with(|c| c.replace(span))
}

/// A live span; ends (and emits `span_end`) on drop.
#[derive(Debug)]
pub struct Span {
    id: SpanId,
    name: String,
    started: Instant,
    entered_from: SpanId,
}

impl Span {
    /// Opens a span under the calling thread's current span and makes it
    /// current for this thread until the guard drops.
    pub fn enter(name: impl Into<String>) -> Span {
        Self::enter_with_parent(name, &current())
    }

    /// Opens a span under an explicit parent, in the parent's trace (none
    /// when the parent is untraced), and makes it current for this thread
    /// (for worker threads holding a parent they never entered).
    pub fn enter_with_parent(name: impl Into<String>, parent: &SpanId) -> Span {
        let id = SpanId {
            trace: parent.trace.clone(),
            id: parent.trace().map_or(0, Trace::next_span_id),
        };
        let name = name.into();
        emit_in(&id, || EventKind::SpanStart {
            name: name.clone(),
            parent: parent.as_option(),
        });
        Span {
            entered_from: swap_current(id.clone()),
            id,
            name,
            started: Instant::now(),
        }
    }

    /// This span (persist [`SpanId::as_option`] to link other records to
    /// the trace).
    #[must_use]
    pub fn id(&self) -> &SpanId {
        &self.id
    }

    /// This span's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        swap_current(std::mem::replace(&mut self.entered_from, SpanId::NONE));
        emit_in(&self.id, || EventKind::SpanEnd {
            name: std::mem::take(&mut self.name),
            elapsed_us: self.started.elapsed().as_secs_f64() * 1e6,
        });
    }
}

/// Re-enters an existing span, and so its trace, on the calling thread
/// (no events emitted); restores the previous current span on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: SpanId,
}

impl ContextGuard {
    /// Makes `span` the calling thread's current span.
    pub fn enter(span: &SpanId) -> ContextGuard {
        ContextGuard {
            prev: swap_current(span.clone()),
        }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        swap_current(std::mem::replace(&mut self.prev, SpanId::NONE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::jsonl::MemorySink;

    fn traced() -> (Trace, MemorySink) {
        let sink = MemorySink::shared();
        (Trace::new(vec![Box::new(sink.clone())]), sink)
    }

    fn span_events(events: &[TraceEvent], name: &str) -> Vec<TraceEvent> {
        events
            .iter()
            .filter(|e| {
                matches!(&e.kind,
                    EventKind::SpanStart { name: n, .. } | EventKind::SpanEnd { name: n, .. }
                        if n == name)
            })
            .cloned()
            .collect()
    }

    #[test]
    fn disabled_spans_are_none_and_silent() {
        let span = Span::enter("quiet");
        assert!(span.id().trace().is_none());
        assert_eq!(span.id().as_option(), None);
        drop(span);
        assert!(current().trace().is_none());
    }

    #[test]
    fn span_start_and_end_pair_with_elapsed() {
        let (trace, sink) = traced();
        {
            let _ctx = trace.enter();
            let span = Span::enter("outer-test-span");
            assert_eq!(span.id().as_option(), Some(1), "ids start at 1");
            assert_eq!(current().as_option(), span.id().as_option());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let events = sink.events();
        assert_eq!(span_events(&events, "outer-test-span"), events);
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(events[0].span, events[1].span);
        match &events[1].kind {
            EventKind::SpanEnd { elapsed_us, .. } => {
                assert!(*elapsed_us >= 1000.0, "elapsed {elapsed_us}")
            }
            other => panic!("want SpanEnd, got {other:?}"),
        }
    }

    #[test]
    fn nesting_restores_the_parent_and_records_it() {
        let (trace, sink) = traced();
        let ctx = trace.enter();
        let outer = Span::enter("nest-outer");
        let outer_id = outer.id().as_option();
        {
            let inner = Span::enter("nest-inner");
            assert_eq!(current().as_option(), inner.id().as_option());
        }
        assert_eq!(current().as_option(), outer_id);
        drop(outer);
        drop(ctx);
        assert!(current().trace().is_none(), "the guard left the trace");
        let inner_start = &span_events(&sink.events(), "nest-inner")[0];
        match &inner_start.kind {
            EventKind::SpanStart { parent, .. } => assert_eq!(*parent, outer_id),
            other => panic!("want SpanStart, got {other:?}"),
        }
    }

    #[test]
    fn context_guard_carries_a_span_and_its_trace_across_threads() {
        let (trace, sink) = traced();
        let ctx = trace.enter();
        let span = Span::enter("cross-thread");
        let id = span.id().clone();
        std::thread::spawn(move || {
            crate::emit(|| EventKind::Warmup { runs: 1 });
            let _ctx = ContextGuard::enter(&id);
            crate::emit(|| EventKind::Warmup { runs: 123 });
        })
        .join()
        .unwrap();
        drop(span);
        drop(ctx);
        let warmups: Vec<_> = sink
            .events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::Warmup { .. }))
            .collect();
        assert_eq!(warmups.len(), 1, "a thread without the guard is untraced");
        assert!(matches!(warmups[0].kind, EventKind::Warmup { runs: 123 }));
        assert_eq!(warmups[0].span, Some(1));
    }
}
