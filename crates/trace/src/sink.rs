//! Provided [`TraceSink`] implementations.

use crate::{jsonl, TraceEvent, TraceSink};
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Buffers every event in memory. Intended for tests and for rendering a
/// report at the end of a run without touching the filesystem.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Drain and return all recorded events.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("memory sink poisoned"))
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn record(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// Writes one JSON object per line (JSONL). Each line is flushed as it is
/// written so a trace file is readable even after a crash or mid-run.
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink").finish_non_exhaustive()
    }
}

impl JsonlSink {
    /// Wrap an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(writer),
        }
    }

    /// Create (truncate) `path` and write the trace there.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink::new(Box::new(BufWriter::new(file))))
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let line = jsonl::to_jsonl(event);
        let mut out = self.out.lock().expect("jsonl sink poisoned");
        // Tracing is best-effort: I/O errors must not abort a solve.
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// Routes events to whatever sink the *emitting thread* has entered via
/// [`ScopedSink::enter`], discarding events from a thread with no active
/// scope.
///
/// This is how `qca-serve` gets per-request traces out of a shared engine:
/// the engine is built once with a `ScopedSink`-backed tracer, and each
/// worker wraps one request's solve in a scope pointing at that request's
/// buffer. The scope stack is thread-local and process-wide — every
/// `ScopedSink` instance consults the same stack — so a single scoped
/// tracer can serve any number of concurrently traced requests, one per
/// thread at a time. Scopes nest: the innermost `enter` on a thread wins
/// until its guard drops.
///
/// # Examples
///
/// ```
/// use qca_trace::{MemorySink, ScopedSink, Tracer};
/// use std::sync::Arc;
///
/// let tracer = Tracer::new(Arc::new(ScopedSink::new()));
/// let request_buf = Arc::new(MemorySink::new());
/// tracer.counter("dropped", 1); // no scope: discarded
/// {
///     let _scope = ScopedSink::enter(request_buf.clone());
///     tracer.counter("kept", 1);
/// }
/// assert_eq!(request_buf.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct ScopedSink;

thread_local! {
    static SCOPE_STACK: std::cell::RefCell<Vec<Arc<dyn TraceSink>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl ScopedSink {
    /// A scoped sink that discards events emitted outside any scope.
    pub fn new() -> Self {
        ScopedSink
    }

    /// Directs this thread's events into `target` until the returned guard
    /// drops. Guards must drop in LIFO order on the entering thread.
    #[must_use = "dropping the guard immediately ends the scope"]
    pub fn enter(target: Arc<dyn TraceSink>) -> ScopeGuard {
        SCOPE_STACK.with(|s| s.borrow_mut().push(target));
        ScopeGuard { _private: () }
    }
}

impl TraceSink for ScopedSink {
    fn record(&self, event: &TraceEvent) {
        // Clone the target out of the thread-local borrow before recording,
        // so a sink that itself enters/leaves scopes cannot re-borrow.
        let target = SCOPE_STACK.with(|s| s.borrow().last().cloned());
        if let Some(sink) = target {
            sink.record(event);
        }
    }
}

/// Guard returned by [`ScopedSink::enter`]; ends the scope on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    _private: (),
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPE_STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Tees every event to several sinks in order.
pub struct FanoutSink {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FanoutSink")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl FanoutSink {
    /// A sink forwarding to all of `sinks`.
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn record(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    #[test]
    fn scoped_sink_routes_per_thread() {
        let tracer = Tracer::new(Arc::new(ScopedSink::new()));
        let a = Arc::new(MemorySink::new());
        let b = Arc::new(MemorySink::new());
        tracer.counter("outside", 1); // no scope anywhere: dropped
        {
            let _scope = ScopedSink::enter(a.clone());
            tracer.counter("for_a", 1);
            {
                let _nested = ScopedSink::enter(b.clone());
                tracer.counter("for_b", 1);
            }
            tracer.counter("for_a", 1);
        }
        // Another thread with its own scope is isolated from this one.
        let c = Arc::new(MemorySink::new());
        let t = {
            let tracer = tracer.clone();
            let c = c.clone();
            std::thread::spawn(move || {
                let _scope = ScopedSink::enter(c);
                tracer.counter("for_c", 1);
            })
        };
        t.join().unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn jsonl_sink_round_trips() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let tracer = Tracer::new(Arc::new(JsonlSink::new(Box::new(Shared(buf.clone())))));
        {
            let mut s = tracer.span_with("phase", || "q=3 \"quoted\"".into());
            s.set_note("ok");
            tracer.counter("n", 42);
        }
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let events = jsonl::parse_jsonl(&text).unwrap();
        assert_eq!(events.len(), 3);
        crate::report::validate_forest(&events).unwrap();
    }
}
