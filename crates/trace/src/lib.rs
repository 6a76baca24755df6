//! # qca-trace
//!
//! Lightweight hierarchical span/event tracing for the SAT-based quantum
//! circuit adaptation pipeline (Brandhofer et al., DATE 2023).
//!
//! The pipeline (preprocess → rule evaluation → SMT encoding → OMT search →
//! circuit extraction) runs deep inside nested solver loops; this crate gives
//! every layer a uniform, allocation-free way to report *where time goes*
//! without threading ad-hoc stats structs through the call graph.
//!
//! Design points:
//!
//! * [`Tracer`] is a cheap cloneable handle. A disabled tracer is a `None`
//!   internally, so every instrumentation site reduces to a null check — the
//!   hot CDCL path pays near-zero overhead when tracing is off.
//! * Spans are RAII guards ([`Span`]) with monotonic nanosecond timestamps
//!   relative to a process-wide epoch. Parent/child links are inferred from a
//!   thread-local span stack, so instrumentation sites never pass span ids.
//! * Counter and gauge events attach to the innermost open span of the
//!   emitting thread.
//! * Sinks implement [`TraceSink`] and must be `Send + Sync`; provided sinks
//!   are [`MemorySink`] (tests), [`JsonlSink`] (machine-readable traces) and
//!   [`FanoutSink`] (tee to several sinks, e.g. a JSONL file plus a live
//!   metrics registry).
//! * [`report`] renders a trace into a per-phase time breakdown and a span
//!   tree with self/total times, and validates structural well-formedness.
//!
//! # Example
//!
//! ```
//! use qca_trace::{Tracer, MemorySink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let tracer = Tracer::new(sink.clone());
//! {
//!     let _solve = tracer.span("solve");
//!     {
//!         let mut probe = tracer.span_with("probe", || "bound=3".to_string());
//!         probe.set_note("sat");
//!         tracer.counter("probes", 1);
//!     }
//! }
//! let events = sink.take();
//! assert_eq!(events.len(), 5); // 2 enters, 1 counter, 2 exits
//! qca_trace::report::validate_forest(&events).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod json;
pub mod jsonl;
pub mod report;
mod sink;

pub use sink::{FanoutSink, JsonlSink, MemorySink, ScopeGuard, ScopedSink};

use std::borrow::Cow;
use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A single trace record.
///
/// All timestamps are nanoseconds since a process-wide monotonic epoch (the
/// first time any event is stamped), so events from different threads share
/// one time base. Span ids are unique across the whole process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A span was opened.
    SpanEnter {
        /// Process-unique span id.
        id: u64,
        /// Id of the enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Sequential id of the emitting thread.
        thread: u64,
        /// Nanoseconds since the trace epoch.
        t_ns: u64,
        /// Span name (a static site label such as `"omt.probe"`).
        name: Cow<'static, str>,
        /// Optional per-instance detail (e.g. `"bound=5"`).
        detail: Option<String>,
    },
    /// A span was closed.
    SpanExit {
        /// Id of the span being closed.
        id: u64,
        /// Sequential id of the emitting thread.
        thread: u64,
        /// Nanoseconds since the trace epoch.
        t_ns: u64,
        /// Optional outcome note set via [`Span::set_note`] (e.g. `"unsat"`).
        note: Option<String>,
    },
    /// A monotonic counter increment.
    Counter {
        /// Counter name.
        name: Cow<'static, str>,
        /// Innermost open span on the emitting thread, if any.
        span: Option<u64>,
        /// Sequential id of the emitting thread.
        thread: u64,
        /// Nanoseconds since the trace epoch.
        t_ns: u64,
        /// Amount added to the counter.
        value: u64,
    },
    /// A point-in-time measurement.
    Gauge {
        /// Gauge name.
        name: Cow<'static, str>,
        /// Innermost open span on the emitting thread, if any.
        span: Option<u64>,
        /// Sequential id of the emitting thread.
        thread: u64,
        /// Nanoseconds since the trace epoch.
        t_ns: u64,
        /// Observed value.
        value: i64,
    },
}

impl TraceEvent {
    /// The timestamp of this event, nanoseconds since the trace epoch.
    pub fn t_ns(&self) -> u64 {
        match self {
            TraceEvent::SpanEnter { t_ns, .. }
            | TraceEvent::SpanExit { t_ns, .. }
            | TraceEvent::Counter { t_ns, .. }
            | TraceEvent::Gauge { t_ns, .. } => *t_ns,
        }
    }

    /// The sequential thread id of the emitting thread.
    pub fn thread(&self) -> u64 {
        match self {
            TraceEvent::SpanEnter { thread, .. }
            | TraceEvent::SpanExit { thread, .. }
            | TraceEvent::Counter { thread, .. }
            | TraceEvent::Gauge { thread, .. } => *thread,
        }
    }
}

/// Destination for trace events. Implementations must be cheap and
/// non-blocking where possible: sinks are invoked inline from solver loops.
pub trait TraceSink: Send + Sync {
    /// Record one event. Called from arbitrary threads.
    fn record(&self, event: &TraceEvent);
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// Cheap cloneable handle used by instrumentation sites.
///
/// A default-constructed (or [`Tracer::disabled`]) tracer drops every event
/// without stamping a timestamp; `span`/`counter`/`gauge` then cost a single
/// branch, and detail closures passed to [`Tracer::span_with`] are never run.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<dyn TraceSink>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that discards everything (the default).
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// A tracer that forwards every event to `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer { inner: Some(sink) }
    }

    /// A tracer that records into a fresh in-memory buffer; returns the
    /// tracer together with the sink so tests can inspect the events.
    pub fn to_memory() -> (Self, Arc<MemorySink>) {
        let sink = Arc::new(MemorySink::new());
        (Tracer::new(sink.clone()), sink)
    }

    /// This tracer plus one more sink. Used by the engine to tee a
    /// caller-provided tracer into its metrics registry.
    pub fn with_extra_sink(&self, extra: Arc<dyn TraceSink>) -> Self {
        match &self.inner {
            None => Tracer::new(extra),
            Some(sink) => Tracer::new(Arc::new(FanoutSink::new(vec![sink.clone(), extra]))),
        }
    }

    /// Whether events are being recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span. Close it by dropping the returned guard; guards must be
    /// dropped in LIFO order on the thread that opened them.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span(&self, name: &'static str) -> Span {
        self.span_inner(name, None)
    }

    /// Open a span with a lazily-computed detail string. The closure only
    /// runs when the tracer is enabled.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span_with<F>(&self, name: &'static str, detail: F) -> Span
    where
        F: FnOnce() -> String,
    {
        if self.inner.is_none() {
            return Span {
                active: None,
                note: None,
            };
        }
        self.span_inner(name, Some(detail()))
    }

    fn span_inner(&self, name: &'static str, detail: Option<String>) -> Span {
        let Some(sink) = &self.inner else {
            return Span {
                active: None,
                note: None,
            };
        };
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let thread = thread_id();
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        sink.record(&TraceEvent::SpanEnter {
            id,
            parent,
            thread,
            t_ns: now_ns(),
            name: Cow::Borrowed(name),
            detail,
        });
        Span {
            active: Some((sink.clone(), id)),
            note: None,
        }
    }

    /// Add `value` to the counter `name`.
    pub fn counter(&self, name: &'static str, value: u64) {
        if let Some(sink) = &self.inner {
            sink.record(&TraceEvent::Counter {
                name: Cow::Borrowed(name),
                span: current_span(),
                thread: thread_id(),
                t_ns: now_ns(),
                value,
            });
        }
    }

    /// Record the gauge `name` at `value`.
    pub fn gauge(&self, name: &'static str, value: i64) {
        if let Some(sink) = &self.inner {
            sink.record(&TraceEvent::Gauge {
                name: Cow::Borrowed(name),
                span: current_span(),
                thread: thread_id(),
                t_ns: now_ns(),
                value,
            });
        }
    }
}

fn current_span() -> Option<u64> {
    SPAN_STACK.with(|s| s.borrow().last().copied())
}

/// RAII guard for an open span; emits the exit event on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct Span {
    active: Option<(Arc<dyn TraceSink>, u64)>,
    note: Option<String>,
}

impl fmt::Debug for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Span").field("id", &self.id()).finish()
    }
}

impl Span {
    /// The span id, or `None` when the tracer was disabled.
    pub fn id(&self) -> Option<u64> {
        self.active.as_ref().map(|(_, id)| *id)
    }

    /// Attach an outcome note emitted with the exit event (e.g. an OMT probe
    /// recording `"sat"` / `"unsat"` / `"unknown"`).
    pub fn set_note(&mut self, note: impl Into<String>) {
        if self.active.is_some() {
            self.note = Some(note.into());
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((sink, id)) = self.active.take() {
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                // Guards should unwind LIFO; tolerate (but fix up) stragglers.
                if let Some(pos) = s.iter().rposition(|&x| x == id) {
                    s.truncate(pos + 1);
                    s.pop();
                }
            });
            sink.record(&TraceEvent::SpanExit {
                id,
                thread: thread_id(),
                t_ns: now_ns(),
                note: self.note.take(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        let mut ran = false;
        {
            let _s = tracer.span_with("x", || {
                ran = true;
                String::new()
            });
            tracer.counter("c", 1);
            tracer.gauge("g", -3);
        }
        assert!(!ran, "detail closure must not run when disabled");
    }

    #[test]
    fn span_nesting_and_events() {
        let (tracer, sink) = Tracer::to_memory();
        {
            let _outer = tracer.span("outer");
            tracer.counter("ticks", 2);
            {
                let mut inner = tracer.span_with("inner", || "k=1".into());
                inner.set_note("done");
            }
        }
        let events = sink.take();
        assert_eq!(events.len(), 5);
        let (outer_id, inner_id) = match (&events[0], &events[2]) {
            (
                TraceEvent::SpanEnter {
                    id: o,
                    parent: None,
                    name,
                    ..
                },
                TraceEvent::SpanEnter {
                    id: i,
                    parent: Some(p),
                    ..
                },
            ) => {
                assert_eq!(name, "outer");
                assert_eq!(p, o);
                (*o, *i)
            }
            other => panic!("unexpected head events: {other:?}"),
        };
        match &events[1] {
            TraceEvent::Counter {
                name, span, value, ..
            } => {
                assert_eq!(name, "ticks");
                assert_eq!(*span, Some(outer_id));
                assert_eq!(*value, 2);
            }
            other => panic!("expected counter, got {other:?}"),
        }
        match &events[3] {
            TraceEvent::SpanExit { id, note, .. } => {
                assert_eq!(*id, inner_id);
                assert_eq!(note.as_deref(), Some("done"));
            }
            other => panic!("expected inner exit, got {other:?}"),
        }
        report::validate_forest(&events).unwrap();
    }

    #[test]
    fn with_extra_sink_tees() {
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        let base = Tracer::new(a.clone());
        let teed = base.with_extra_sink(b.clone());
        teed.gauge("g", 7);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        let from_disabled = Tracer::disabled().with_extra_sink(b.clone());
        from_disabled.gauge("g", 8);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let (tracer, sink) = Tracer::to_memory();
        for _ in 0..50 {
            let _s = tracer.span("tick");
        }
        let events = sink.take();
        let mut last = 0;
        for ev in &events {
            assert!(ev.t_ns() >= last);
            last = ev.t_ns();
        }
    }
}
