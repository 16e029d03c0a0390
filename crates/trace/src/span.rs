//! Spans: named intervals that give events a place in the run's tree.
//!
//! A [`Span`] is an RAII guard — entering emits `span_start`, dropping
//! emits `span_end` with the measured lifetime. Span ids are allocated
//! from a process-global counter only while tracing is enabled; when it is
//! disabled a span is [`SpanId::NONE`] and costs the usual relaxed load.
//!
//! On the real clock the engine runs a benchmark's body on a separate
//! watchdogged thread, so the current span is a *thread-local* that such a
//! thread re-enters with a [`ContextGuard`] around the body. Instrumentation deeper down (the
//! timing harness, for instance) then attributes its events correctly
//! without ever naming the span.

use crate::event::EventKind;
use crate::sink;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

// Span 0 is reserved as "no span".
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// A span identifier; `NONE` (id 0) means "not traced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The null span: tracing was disabled when the span was created.
    pub const NONE: SpanId = SpanId(0);

    /// The id as an optional raw value (`None` for [`SpanId::NONE`]).
    #[must_use]
    pub fn as_option(self) -> Option<u64> {
        (self.0 != 0).then_some(self.0)
    }
}

/// The calling thread's current span.
#[must_use]
pub fn current() -> SpanId {
    SpanId(CURRENT.with(Cell::get))
}

/// A live span; ends (and emits `span_end`) on drop.
#[derive(Debug)]
pub struct Span {
    id: SpanId,
    name: String,
    started: Instant,
    entered_from: u64,
}

impl Span {
    /// Opens a span under the calling thread's current span and makes it
    /// current for this thread until the guard drops.
    pub fn enter(name: impl Into<String>) -> Span {
        Self::enter_with_parent(name, current())
    }

    /// Opens a span under an explicit parent (for worker threads holding a
    /// parent id they never entered) and makes it current for this thread.
    pub fn enter_with_parent(name: impl Into<String>, parent: SpanId) -> Span {
        let name = name.into();
        let prev = CURRENT.with(Cell::get);
        if !sink::enabled() {
            return Span {
                id: SpanId::NONE,
                name,
                started: Instant::now(),
                entered_from: prev,
            };
        }
        let id = SpanId(NEXT_SPAN.fetch_add(1, Ordering::Relaxed));
        sink::deliver(
            id.as_option(),
            EventKind::SpanStart {
                name: name.clone(),
                parent: parent.as_option(),
            },
        );
        CURRENT.with(|c| c.set(id.0));
        Span {
            id,
            name,
            started: Instant::now(),
            entered_from: prev,
        }
    }

    /// This span's id (persist it to link other records to the trace).
    #[must_use]
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// This span's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.id == SpanId::NONE {
            return;
        }
        CURRENT.with(|c| c.set(self.entered_from));
        // Sinks may have been uninstalled since the span opened; emit the
        // end anyway only if tracing is still live so a trailing JSONL
        // flush never blocks on a dead registry. An unclosed span in the
        // artifact is the honest record of that race.
        if sink::enabled() {
            sink::deliver(
                self.id.as_option(),
                EventKind::SpanEnd {
                    name: std::mem::take(&mut self.name),
                    elapsed_us: self.started.elapsed().as_secs_f64() * 1e6,
                },
            );
        }
    }
}

/// Re-enters an existing span on the calling thread (no events emitted);
/// restores the previous current span on drop.
#[derive(Debug)]
pub struct ContextGuard {
    prev: u64,
}

impl ContextGuard {
    /// Makes `span` the calling thread's current span.
    pub fn enter(span: SpanId) -> ContextGuard {
        let prev = CURRENT.with(|c| c.replace(span.0));
        ContextGuard { prev }
    }
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::jsonl::MemorySink;
    use crate::test_lock;

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
        let _guard = test_lock();
        let span = Span::enter("quiet");
        assert_eq!(span.id(), SpanId::NONE);
        assert_eq!(span.id().as_option(), None);
        drop(span);
        assert_eq!(current(), SpanId::NONE);
    }

    #[test]
    fn span_start_and_end_pair_with_elapsed() {
        let _guard = test_lock();
        let sink = MemorySink::shared();
        let handle = crate::install(Box::new(sink.clone()));
        {
            let span = Span::enter("outer-test-span");
            assert_eq!(current(), span.id());
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        crate::uninstall(handle);
        let events = span_events(&sink.events(), "outer-test-span");
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
        let _guard = test_lock();
        let sink = MemorySink::shared();
        let handle = crate::install(Box::new(sink.clone()));
        let outer = Span::enter("nest-outer");
        let outer_id = outer.id().as_option();
        {
            let inner = Span::enter("nest-inner");
            assert_eq!(current(), inner.id());
        }
        assert_eq!(current(), outer.id());
        drop(outer);
        crate::uninstall(handle);
        let inner_start = &span_events(&sink.events(), "nest-inner")[0];
        match &inner_start.kind {
            EventKind::SpanStart { parent, .. } => assert_eq!(*parent, outer_id),
            other => panic!("want SpanStart, got {other:?}"),
        }
    }

    #[test]
    fn context_guard_carries_a_span_across_threads() {
        let _guard = test_lock();
        let sink = MemorySink::shared();
        let handle = crate::install(Box::new(sink.clone()));
        let span = Span::enter_with_parent("cross-thread", SpanId::NONE);
        let id = span.id();
        std::thread::spawn(move || {
            let _ctx = ContextGuard::enter(id);
            crate::emit(|| EventKind::Warmup { runs: 123 });
        })
        .join()
        .unwrap();
        drop(span);
        crate::uninstall(handle);
        let warmup = sink
            .events()
            .into_iter()
            .find(|e| matches!(e.kind, EventKind::Warmup { runs: 123 }))
            .expect("cross-thread event recorded");
        assert_eq!(warmup.span, id.as_option());
    }
}
