//! RAII timing spans with parent/child nesting.
//!
//! A [`Span`] measures the wall-clock time between its creation and drop
//! on the monotonic clock, and records it under a key built from the
//! per-thread stack of active span names:
//!
//! ```text
//! span("core", "analyze")                → core.analyze
//!   span("htm", "closed_loop")           → htm.analyze/closed_loop
//!     span_labeled("num", "lu", ||"n=5") → num.analyze/closed_loop/lu{n=5}
//! ```
//!
//! so solver time can be attributed to the pipeline stage that asked for
//! it. When the site is disabled the constructor returns an inert guard
//! without touching the clock, the thread-local stack, or the registry.
//!
//! While a trace session is active ([`crate::trace_start`]) every live
//! span additionally emits begin/end events onto the thread's timeline.
//!
//! ## Reset epochs
//!
//! [`crate::reset`]/[`crate::clear`] bump a global epoch. A per-thread
//! stack whose epoch is stale is drained before the next span opens, so
//! spans opened *after* a reset never inherit parent segments from spans
//! that were already open *before* it (stale parent linkage). A span that
//! itself straddles a reset records nothing on drop: its start time
//! belongs to the epoch the reset discarded.

use crate::events::{record_event_named, trace_active, TracePhase};
use crate::filter::{enabled, Level};
use crate::registry::{cell, MetricKind};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Bumped by `reset`/`clear`; stacks and spans from older epochs are
/// stale.
static EPOCH: AtomicU64 = AtomicU64::new(0);

pub(crate) fn bump_epoch() {
    EPOCH.fetch_add(1, Ordering::Relaxed);
}

fn current_epoch() -> u64 {
    EPOCH.load(Ordering::Relaxed)
}

#[derive(Debug)]
struct SpanStack {
    epoch: u64,
    names: Vec<String>,
}

thread_local! {
    /// Names (with labels) of the spans currently open on this thread.
    static STACK: RefCell<SpanStack> = const {
        RefCell::new(SpanStack { epoch: 0, names: Vec::new() })
    };
}

/// An RAII span guard; records its duration when dropped.
#[derive(Debug)]
#[must_use = "a span measures the time until it is dropped; bind it to a variable"]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    key: String,
    start: Instant,
    epoch: u64,
    target: &'static str,
    /// Leaf segment, kept only when a trace session saw the begin event
    /// (the end event must carry the same name).
    trace_name: Option<String>,
}

fn open(target: &'static str, name: &str, label: Option<String>, level: Level) -> Span {
    if !enabled(target, level) {
        return Span { inner: None };
    }
    let segment = match label {
        Some(l) if !l.is_empty() => format!("{name}{{{l}}}"),
        _ => name.to_string(),
    };
    let epoch = current_epoch();
    let trace_name = trace_active().then(|| segment.clone());
    let key = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        if stack.epoch != epoch {
            // A reset happened since this thread last opened a span: any
            // names still on the stack belong to spans from the drained
            // epoch and must not become parents in the new one.
            stack.names.clear();
            stack.epoch = epoch;
        }
        let mut path = String::with_capacity(target.len() + 1 + 16 * (stack.names.len() + 1));
        path.push_str(target);
        path.push('.');
        for parent in stack.names.iter() {
            path.push_str(parent);
            path.push('/');
        }
        path.push_str(&segment);
        stack.names.push(segment);
        path
    });
    if let Some(leaf) = &trace_name {
        // The timeline carries leaf names; nesting reconstructs the path.
        record_event_named(TracePhase::Begin, target, leaf.clone());
    }
    Span {
        inner: Some(SpanInner {
            key,
            start: Instant::now(),
            epoch,
            target,
            trace_name,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let ns = inner.start.elapsed().as_secs_f64() * 1e9;
            STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                // Only unwind a stack from our own epoch; a reset already
                // drained stale entries (or will, on the next open).
                if stack.epoch == inner.epoch {
                    stack.names.pop();
                }
            });
            if let Some(name) = inner.trace_name {
                record_event_named(TracePhase::End, inner.target, name);
            }
            if current_epoch() == inner.epoch {
                cell(&inner.key, MetricKind::Span).observe(ns);
            }
        }
    }
}

/// Opens an `Info`-level span.
pub fn span(target: &'static str, name: &'static str) -> Span {
    open(target, name, None, Level::Info)
}

/// Opens a span at an explicit level.
pub fn span_at(target: &'static str, name: &'static str, level: Level) -> Span {
    open(target, name, None, level)
}

/// Opens an `Info`-level span with a label (e.g. `dim=21`). The label
/// closure runs only when the site is enabled.
pub fn span_labeled<F: FnOnce() -> String>(
    target: &'static str,
    name: &'static str,
    label: F,
) -> Span {
    if !enabled(target, Level::Info) {
        return Span { inner: None };
    }
    open(target, name, Some(label()), Level::Info)
}

/// Opens a labeled span at an explicit level.
pub fn span_labeled_at<F: FnOnce() -> String>(
    target: &'static str,
    name: &'static str,
    level: Level,
    label: F,
) -> Span {
    if !enabled(target, level) {
        return Span { inner: None };
    }
    open(target, name, Some(label()), level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::override_filter;
    use crate::registry::{reset, snapshot, test_lock};

    fn keys_with_prefix(prefix: &str) -> Vec<String> {
        snapshot()
            .into_iter()
            .map(|m| m.key)
            .filter(|k| k.starts_with(prefix))
            .collect()
    }

    #[test]
    fn nesting_builds_paths() {
        let _g = test_lock();
        override_filter("spantest=debug");
        {
            let _a = span("spantest", "outer");
            {
                let _b = span("spantest", "mid");
                let _c = span_labeled("spantest", "leaf", || "k=3".to_string());
            }
            let _d = span("spantest", "sibling");
        }
        let keys = keys_with_prefix("spantest.");
        assert!(keys.contains(&"spantest.outer".to_string()), "{keys:?}");
        assert!(keys.contains(&"spantest.outer/mid".to_string()), "{keys:?}");
        assert!(
            keys.contains(&"spantest.outer/mid/leaf{k=3}".to_string()),
            "{keys:?}"
        );
        assert!(
            keys.contains(&"spantest.outer/sibling".to_string()),
            "{keys:?}"
        );
        override_filter("off");
    }

    #[test]
    fn durations_are_positive_and_ordered() {
        let _g = test_lock();
        override_filter("spantest=debug");
        {
            let _a = span("spantest", "timed_outer");
            let _b = span("spantest", "timed_inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snaps = snapshot();
        let outer = snaps
            .iter()
            .find(|m| m.key == "spantest.timed_outer")
            .unwrap();
        let inner = snaps
            .iter()
            .find(|m| m.key == "spantest.timed_outer/timed_inner")
            .unwrap();
        assert_eq!(outer.kind, crate::MetricKind::Span);
        assert!(outer.sum > 0.0 && inner.sum > 0.0);
        // The outer span closes after the inner one.
        assert!(outer.sum >= inner.sum, "{} < {}", outer.sum, inner.sum);
        override_filter("off");
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _g = test_lock();
        override_filter("off");
        let before = snapshot().len();
        {
            let s = span("spantest", "inert");
            assert!(s.inner.is_none());
            let mut ran = false;
            let _l = span_labeled("spantest", "inert_labeled", || {
                ran = true;
                "x=1".to_string()
            });
            assert!(!ran, "label closure must not run while disabled");
        }
        assert_eq!(snapshot().len(), before);
    }

    #[test]
    fn stack_unwinds_across_disabled_parents() {
        let _g = test_lock();
        // A disabled parent contributes nothing to the path of an enabled
        // child of a *different* target.
        override_filter("spanchild=info");
        {
            let _p = span("spanparent", "off_parent"); // disabled target
            let _c = span("spanchild", "on_child");
        }
        let keys = keys_with_prefix("spanchild.");
        assert!(keys.contains(&"spanchild.on_child".to_string()), "{keys:?}");
        override_filter("off");
    }

    #[test]
    fn reset_drains_live_span_parentage() {
        // Regression: a Span alive across `reset()` used to stay on the
        // thread stack, so spans opened after the reset were filed under
        // a parent from the drained epoch.
        let _g = test_lock();
        override_filter("spanepoch=debug");
        let straddler = span("spanepoch", "straddler");
        reset();
        {
            let _fresh = span("spanepoch", "fresh");
        }
        let keys = keys_with_prefix("spanepoch.");
        assert!(
            keys.contains(&"spanepoch.fresh".to_string()),
            "post-reset span must have no stale parent: {keys:?}"
        );
        assert!(
            !keys.iter().any(|k| k.contains("straddler/")),
            "stale parent linkage survived reset: {keys:?}"
        );
        drop(straddler);
        // The straddling span itself records nothing: its start time
        // belongs to the epoch the reset discarded.
        let keys = keys_with_prefix("spanepoch.");
        assert!(
            !keys.contains(&"spanepoch.straddler".to_string()),
            "straddling span leaked into the fresh epoch: {keys:?}"
        );
        override_filter("off");
    }

    #[test]
    fn reset_mid_nest_keeps_stack_balanced() {
        let _g = test_lock();
        override_filter("spanepoch2=debug");
        {
            let _outer = span("spanepoch2", "outer");
            reset();
            let _post = span("spanepoch2", "post"); // clears stale stack
            let _child = span("spanepoch2", "child");
            // outer drops last; it must not pop the new epoch's stack.
        }
        {
            let _after = span("spanepoch2", "after");
        }
        let keys = keys_with_prefix("spanepoch2.");
        assert!(keys.contains(&"spanepoch2.post".to_string()), "{keys:?}");
        assert!(
            keys.contains(&"spanepoch2.post/child".to_string()),
            "{keys:?}"
        );
        assert!(
            keys.contains(&"spanepoch2.after".to_string()),
            "unbalanced stack after straddling drop: {keys:?}"
        );
        override_filter("off");
    }

    #[test]
    fn spans_emit_trace_events_when_session_active() {
        let _g = test_lock();
        override_filter("spantrace=debug");
        crate::events::trace_start(256);
        {
            let _a = span("spantrace", "outer");
            let _b = span_labeled("spantrace", "inner", || "k=2".into());
        }
        let trace = crate::events::trace_stop();
        let seq: Vec<(&str, TracePhase)> = trace
            .events
            .iter()
            .filter(|e| e.cat == "spantrace")
            .map(|e| (e.name.as_str(), e.phase))
            .collect();
        assert_eq!(
            seq,
            vec![
                ("outer", TracePhase::Begin),
                ("inner{k=2}", TracePhase::Begin),
                ("inner{k=2}", TracePhase::End),
                ("outer", TracePhase::End),
            ]
        );
        override_filter("off");
    }
}
