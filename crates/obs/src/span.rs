//! Wall-clock stage timers.
//!
//! A span marks one pipeline stage: creating it increments the
//! deterministic counter `<name>_calls_total` and starts a timer;
//! dropping the guard records the elapsed wall-clock seconds into the
//! histogram `<name>_seconds`. Call counters are bit-reproducible
//! across identically-seeded runs; the `_seconds` histograms are the
//! only nondeterministic metrics the layer produces, and every
//! determinism comparison excludes them by construction (counters
//! only).
//!
//! Spans nest: a thread-local stack tracks the active span names so
//! tests (and debugging) can assert the instrumentation structure, e.g.
//! `["summit_core_run_telemetry", "summit_core_stream_consume"]` while
//! the consumer stage runs inside the telemetry path.

use crate::registry::{Counter, Histogram};
use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static ACTIVE: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Starts a span named `name` on the current registry (see
/// [`crate::current`]). Hold the returned guard for the duration of the
/// stage: `let _obs = obs::span("summit_core_run_telemetry");`.
#[must_use = "dropping the guard immediately records a ~zero duration"]
pub fn span(name: &str) -> SpanGuard {
    let registry = crate::current();
    let calls = registry.counter(&format!("{name}_calls_total"));
    calls.inc();
    let seconds = registry.histogram(&format!("{name}_seconds"));
    ACTIVE.with(|stack| stack.borrow_mut().push(name.to_string()));
    crate::trace::span_open(name);
    SpanGuard {
        _calls: calls,
        seconds,
        start: Instant::now(),
        name: name.to_string(),
    }
}

/// Names of the spans currently active on this thread, outermost first.
pub fn active_spans() -> Vec<String> {
    ACTIVE.with(|stack| stack.borrow().clone())
}

/// Calls `f` with the innermost active span name on this thread (or
/// `None` outside any span) without cloning the stack — the
/// allocation-free variant of [`active_spans`] for per-execution hot
/// paths such as the thread pool's busy-time attribution.
pub fn with_innermost_span<R>(f: impl FnOnce(Option<&str>) -> R) -> R {
    ACTIVE.with(|stack| {
        let stack = stack.borrow();
        f(stack.last().map(String::as_str))
    })
}

/// Nesting depth of the innermost active span on this thread.
pub fn span_depth() -> usize {
    ACTIVE.with(|stack| stack.borrow().len())
}

/// Pushes `name` onto this thread's active-span stack without recording
/// any metric or trace event. The thread pool uses this on worker threads
/// so that spans opened inside parallel chunks (and the pool's own
/// busy-time attribution) see the dispatching stage as their parent
/// instead of an orphan root.
#[must_use = "the stage label pops when the guard drops"]
pub fn stage_scope(name: &str) -> StageScope {
    ACTIVE.with(|stack| stack.borrow_mut().push(name.to_string()));
    StageScope {
        name: name.to_string(),
    }
}

/// RAII guard returned by [`stage_scope`]; pops the label on drop.
#[derive(Debug)]
pub struct StageScope {
    name: String,
}

impl Drop for StageScope {
    fn drop(&mut self) {
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(i) = stack.iter().rposition(|n| n == &self.name) {
                stack.remove(i);
            }
        });
    }
}

/// Live timer for one stage; records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    _calls: Counter,
    seconds: Histogram,
    start: Instant,
    name: String,
}

impl SpanGuard {
    /// The span's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Seconds elapsed since the span started (the guard keeps running
    /// until dropped; this is a mid-flight reading).
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.seconds.observe(self.start.elapsed().as_secs_f64());
        crate::trace::span_close(&self.name);
        ACTIVE.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards drop LIFO in straight-line code; tolerate an
            // out-of-order drop by removing the matching name.
            if let Some(i) = stack.iter().rposition(|n| n == &self.name) {
                stack.remove(i);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn span_records_calls_and_duration() {
        let r = Registry::new();
        let _scope = r.install();
        {
            let g = span("summit_test_stage");
            assert_eq!(g.name(), "summit_test_stage");
            assert!(g.elapsed_s() >= 0.0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("summit_test_stage_calls_total"), Some(1));
        let h = snap.histogram("summit_test_stage_seconds").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.sum >= 0.0);
    }

    #[test]
    fn spans_nest_and_unwind() {
        let r = Registry::new();
        let _scope = r.install();
        assert_eq!(span_depth(), 0);
        let outer = span("summit_test_outer");
        {
            let _inner = span("summit_test_inner");
            assert_eq!(
                active_spans(),
                vec![
                    "summit_test_outer".to_string(),
                    "summit_test_inner".to_string()
                ]
            );
            assert_eq!(span_depth(), 2);
        }
        assert_eq!(active_spans(), vec!["summit_test_outer".to_string()]);
        drop(outer);
        assert_eq!(span_depth(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("summit_test_outer_calls_total"), Some(1));
        assert_eq!(snap.counter("summit_test_inner_calls_total"), Some(1));
    }

    #[test]
    fn with_innermost_span_sees_the_deepest_active_span() {
        let r = Registry::new();
        let _scope = r.install();
        with_innermost_span(|name| assert_eq!(name, None));
        let _outer = span("summit_test_outer");
        with_innermost_span(|name| assert_eq!(name, Some("summit_test_outer")));
        {
            let _inner = span("summit_test_inner");
            with_innermost_span(|name| assert_eq!(name, Some("summit_test_inner")));
        }
        with_innermost_span(|name| assert_eq!(name, Some("summit_test_outer")));
    }

    #[test]
    fn stage_scope_labels_without_metrics() {
        let r = Registry::new();
        let _scope = r.install();
        {
            let _stage = stage_scope("summit_test_dispatched");
            with_innermost_span(|name| assert_eq!(name, Some("summit_test_dispatched")));
        }
        assert_eq!(span_depth(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("summit_test_dispatched_calls_total"), None);
        assert!(snap.histogram("summit_test_dispatched_seconds").is_none());
    }

    #[test]
    fn out_of_order_drop_unwinds_by_name() {
        let r = Registry::new();
        let _scope = r.install();
        let a = span("summit_test_a");
        let b = span("summit_test_b");
        drop(a); // dropped before the inner span
        assert_eq!(active_spans(), vec!["summit_test_b".to_string()]);
        drop(b);
        assert_eq!(span_depth(), 0);
    }
}
