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
//! 1. **A trace belongs to its run.** A [`Trace`] owns its sinks, its
//!    `seq` and span-id counters and its activity counts. It reaches code
//!    through the calling thread's current span, which carries it
//!    ([`Trace::enter`], [`ContextGuard`], [`current`]), so two runs in
//!    one process never stamp, count or swallow each other's events.
//! 2. **Zero overhead when disabled.** On a thread with no trace, every
//!    instrumentation site costs one thread-local read and a predictable
//!    branch ([`enabled`]); event payloads are built inside closures
//!    that are never called. `tests/overhead.rs` holds the crate to this
//!    with a calibrated timing loop.
//! 3. **No dependencies.** There is no external `tracing` crate here; the
//!    event model is built on the workspace's own `serde`/`serde_json`
//!    stand-ins, and a trace line is plain JSON.
//! 4. **One stream, many views.** The human report, the live progress
//!    lines and the JSONL artifact are renderings of the same
//!    [`TraceEvent`] sequence, so they can never disagree about what the
//!    engine did.
//!
//! # Example
//!
//! ```
//! use lmb_trace::{EventKind, MemorySink, Span, Trace};
//!
//! let sink = MemorySink::shared();
//! let trace = Trace::new(vec![Box::new(sink.clone())]);
//! {
//!     let _ctx = trace.enter();
//!     let _span = Span::enter("bench:example");
//!     lmb_trace::emit(|| EventKind::Warmup { runs: 2 });
//! }
//! lmb_trace::emit(|| EventKind::Warmup { runs: 9 }); // no trace here
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
pub use sink::{emit, emit_in, enabled, Sink, SinkStatsSnapshot, Trace};
pub use span::{current, ContextGuard, Span, SpanId};
