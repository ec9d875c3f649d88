//! Hierarchical wall-clock span timers.
//!
//! A span measures the wall-clock time between its creation and its drop
//! and records the duration (nanoseconds) into the global registry's
//! histogram named `span.<path>`, where the path reflects nesting:
//! `span!("quantum")` inside nothing is `quantum`; a `child("solve")` of
//! it — or a fresh `span!("solve")` opened while `quantum` is the
//! innermost live span on this thread — is `quantum/solve`.
//!
//! Aggregation is by path only; `span!("quantum", q)` accepts trailing
//! label expressions for call-site readability, but labels do not split
//! the histogram (per-label cardinality would swamp the registry).
//!
//! # Cost and robustness
//!
//! When telemetry is disabled the constructor is one relaxed load and one
//! branch, returning an inert guard. Guards are removed from the
//! per-thread nesting stack *by identity*, so dropping spans out of order
//! (e.g. moving a guard into an outliving struct) never panics and never
//! corrupts another span's path — the stale entry is simply excised
//! wherever it sits.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Unique id per live span, used for order-independent stack removal.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// What every span's histogram name starts with, before its path.
const PREFIX: &str = "span.";

thread_local! {
    /// Innermost-last stack of `(id, key)` for the current thread.
    static STACK: RefCell<Vec<(u64, Arc<str>)>> = const { RefCell::new(Vec::new()) };
}

/// A live span; records its duration on drop. Inert when telemetry was
/// disabled at creation.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    id: u64,
    /// The histogram name, `span.<path>`, built once at open and shared
    /// with the stack entry.
    key: Arc<str>,
    start: Instant,
}

/// Opens a span named `name`, nested under the innermost live span of the
/// current thread (if any). Prefer the [`crate::span!`] macro.
pub fn span(name: &str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { inner: None };
    }
    let parent = STACK.with(|s| s.borrow().last().map(|(_, key)| Arc::clone(key)));
    open(parent.as_deref(), name)
}

/// Opens a span named `name` under the span whose key is `parent`.
fn open(parent: Option<&str>, name: &str) -> SpanGuard {
    let (head, slash) = parent.map_or((PREFIX, ""), |key| (key, "/"));
    let key: Arc<str> = [head, slash, name].concat().into();
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    STACK.with(|s| s.borrow_mut().push((id, Arc::clone(&key))));
    SpanGuard {
        inner: Some(ActiveSpan {
            id,
            key,
            start: Instant::now(),
        }),
    }
}

impl SpanGuard {
    /// Opens a child span nested under this one (regardless of what else
    /// is on the thread's stack). Inert if this guard is inert.
    pub fn child(&self, name: &str) -> SpanGuard {
        match &self.inner {
            Some(active) if crate::enabled() => open(Some(&active.key), name),
            _ => SpanGuard { inner: None },
        }
    }

    /// The span's full path, if live (for tests).
    pub fn path(&self) -> Option<&str> {
        self.inner.as_ref().map(|a| &a.key[PREFIX.len()..])
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        let nanos = active.start.elapsed().as_nanos();
        let nanos = u64::try_from(nanos).unwrap_or(u64::MAX);
        // Remove by id, wherever the entry sits: out-of-order drops leave
        // the other entries' paths untouched.
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack.iter().rposition(|(id, _)| *id == active.id) {
                stack.remove(pos);
            }
        });
        // Record even if telemetry was disabled mid-span: the guard was
        // created under an enabled switch, and dropping data on a racy
        // flag read would make overhead measurements flaky.
        crate::global()
            .registry
            .histogram(&active.key)
            .record(nanos);
    }
}

/// Opens a [`SpanGuard`] named by the first argument. Trailing expressions
/// are accepted as call-site annotations (e.g. the quantum index) but do
/// not affect aggregation, which is by span path only.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::span($name)
    };
    ($name:expr, $($label:expr),+ $(,)?) => {{
        $(let _ = &$label;)+
        $crate::span::span($name)
    }};
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::switch::with_enabled;

    #[test]
    fn disabled_spans_are_inert() {
        let _held = crate::switch::hold();
        let g = span("nothing");
        assert!(g.path().is_none());
        let c = g.child("also-nothing");
        assert!(c.path().is_none());
    }

    #[test]
    fn nesting_builds_paths() {
        with_enabled(|| {
            let outer = span!("quantum", 3usize);
            assert_eq!(outer.path(), Some("quantum"));
            let child = outer.child("solve");
            assert_eq!(child.path(), Some("quantum/solve"));
            // A free-standing span nests under the innermost live span.
            let implicit = span("metrics");
            assert_eq!(implicit.path(), Some("quantum/solve/metrics"));
        });
    }

    #[test]
    fn unbalanced_drop_order_is_safe() {
        with_enabled(|| {
            let a = span("a");
            let b = span("b");
            let c = span("c");
            // Drop the middle span first, then outermost, then innermost.
            drop(b);
            drop(a);
            let d = span("d");
            // `c` is still the innermost live span.
            assert_eq!(d.path(), Some("a/b/c/d"));
            drop(c);
            drop(d);
            // The stack fully drains: a new root span has a bare path.
            let fresh = span("fresh");
            assert_eq!(fresh.path(), Some("fresh"));
        });
    }

    #[test]
    fn durations_land_in_registry_histograms() {
        with_enabled(|| {
            {
                let g = span("timed-unit");
                let _inner = g.child("inner");
            }
            for name in ["span.timed-unit", "span.timed-unit/inner"] {
                let snap = crate::global().registry.histogram(name).snapshot();
                assert!(snap.count >= 1, "drop recorded a duration in {name}");
            }
        });
    }
}
