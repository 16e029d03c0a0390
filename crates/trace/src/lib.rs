//! `lmb-trace`: structured tracing for a benchmark suite that must not
//! perturb what it measures.
//!
//! The paper's methodology (§3.4) makes every number a product of
//! decisions — warm-up runs, calibrated iteration counts, min-of-N
//! summaries — and the execution engine adds more (retries, watchdog
//! timeouts, panic containment, scheduling). This crate records all of it
//! as a single ordered event stream that fans out to any number of sinks:
//! a JSONL artifact ([`JsonlSink`]), a live progress reporter
//! ([`Progress`]), or an in-memory buffer for tests ([`MemorySink`]).
//!
//! Design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** Every instrumentation site costs
//!    one relaxed atomic load and a predictable branch when no sink is
//!    installed ([`enabled`]); event payloads are built inside closures
//!    that are never called. `tests/overhead.rs` holds the crate to this
//!    with a calibrated timing loop.
//! 2. **No dependencies.** There is no external `tracing` crate here; the
//!    event model is built on the workspace's own `serde`/`serde_json`
//!    stand-ins, and a trace line is plain JSON.
//! 3. **One stream, many views.** The human report, the live progress
//!    lines and the JSONL artifact are renderings of the same
//!    [`TraceEvent`] sequence, so they can never disagree about what the
//!    engine did.
//!
//! # Example
//!
//! ```
//! use lmb_trace::{EventKind, MemorySink, Span};
//!
//! let sink = MemorySink::shared();
//! let handle = lmb_trace::install(Box::new(sink.clone()));
//! {
//!     let _span = Span::enter("bench:example");
//!     lmb_trace::emit(|| EventKind::Warmup { runs: 2 });
//! }
//! lmb_trace::uninstall(handle);
//! assert_eq!(sink.events().len(), 3); // span_start, warmup, span_end
//! ```

pub mod event;
pub mod jsonl;
pub mod progress;
pub mod sink;
pub mod span;

pub use event::{EventKind, TraceEvent};
pub use jsonl::{
    check_seq_order, check_span_refs, check_spans, parse_jsonl, span_summaries, JsonlSink,
    MemorySink, SpanSummary,
};
pub use progress::{Detail, Progress};
pub use sink::{
    emit, emit_in, enabled, flush_all, install, sink_stats, stats, uninstall, Sink, SinkHandle,
    SinkStatsSnapshot, TraceStats,
};
pub use span::{current, ContextGuard, Span, SpanId};

/// Serializes unit tests that install global sinks, so parallel tests in
/// this crate never observe each other's events or enabled-flag flips.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
