//! Observability for the ReBudget stack: metrics, spans, and a trace
//! journal — with a one-branch fast path when disabled.
//!
//! The paper's mechanism is driven entirely by runtime observation
//! (per-interval utility monitoring feeds the budget re-assignment
//! decisions), yet diagnosing *why* a solve converged slowly or a round
//! rolled back needs visibility into solver internals that end-of-run
//! counters cannot provide. This crate supplies that layer without adding
//! any dependency:
//!
//! * [`metrics`] — a [`metrics::MetricsRegistry`] of named counters,
//!   gauges, and mergeable log-scale histograms. All mutation is lock-free
//!   (atomics), so the threaded Jacobi fan-out can record contention-free;
//!   only name registration takes a lock.
//! * [`mod@span`] — hierarchical wall-clock span timers
//!   (`span!("quantum").child("solve")`). Durations aggregate into
//!   registry histograms keyed by the span path.
//! * [`journal`] — a structured JSONL event journal (per-iteration solver
//!   residuals and prices, guardrail recoveries, ReBudget round budgets,
//!   per-quantum allocations), each event written to the trace file as
//!   it is recorded, so a killed run keeps every line but a torn last
//!   one.
//! * [`schema`] — a hand-rolled JSON parser and the closed event schema,
//!   shared by the test suite and the `trace_check` bin so CI can validate
//!   every emitted line.
//!
//! # Cost model
//!
//! Telemetry is compiled in unconditionally but *off* by default. Every
//! instrumentation site is guarded by [`enabled()`] — a single relaxed
//! atomic load and branch — so the disabled path costs one predictable
//! branch per site (measured ≤ 1% on the robustness bench; see
//! EXPERIMENTS.md). Enabling tracing records events and timings but never
//! participates in any numeric computation: a traced run is bit-identical
//! to an untraced run, and the determinism suite pins that.
//!
//! # Determinism
//!
//! Journal events must be emitted only from deterministic serial sections
//! (e.g. the solver's post-sweep main loop), never from inside a parallel
//! fan-out, so the event order is a pure function of the inputs. Metrics
//! and spans are unordered aggregates and may be recorded anywhere.

pub mod journal;
pub mod metrics;
pub mod schema;
pub mod span;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use journal::{push_json_str, Event, Journal};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use span::SpanGuard;

/// The process-wide telemetry sinks.
///
/// A global is the only channel that reaches every instrumentation site:
/// options structs like `EquilibriumOptions` derive `PartialEq`/`Copy`
/// semantics that a sink handle would break, and the `Mechanism` trait
/// offers no configuration path into nested solves.
pub struct Telemetry {
    /// Process-wide metrics registry (counters, gauges, histograms).
    pub registry: MetricsRegistry,
    /// Process-wide trace journal (structured JSONL events).
    pub journal: Journal,
}

/// Master switch. Separate from [`Telemetry`] so the disabled fast path is
/// exactly one relaxed load + branch, with no `OnceLock` indirection.
static ENABLED: AtomicBool = AtomicBool::new(false);

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();

/// The global telemetry sinks. Lazily initialised; cheap after first use.
pub fn global() -> &'static Telemetry {
    GLOBAL.get_or_init(|| Telemetry {
        registry: MetricsRegistry::new(),
        journal: Journal::new(),
    })
}

/// Whether telemetry is recording. Instrumentation sites guard on this;
/// when `false` the site costs one relaxed atomic load and one branch.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off. Off is the default; flipping the switch
/// never changes any computed result, only whether observations are kept.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clears all recorded state (metrics, sequence numbers) and drops any
/// open trace file without touching the enabled switch. Callers that own a "run" (the CLI, tests)
/// reset before recording so output reflects that run alone.
pub fn reset() {
    let t = global();
    t.registry.reset();
    t.journal.reset();
}

/// Records `event` in the global journal if telemetry is enabled.
///
/// The `Event` is only built by the caller when [`enabled()`] is true
/// (construction is inside the guard), so the disabled cost stays at one
/// branch.
pub fn record(event: Event) {
    global().journal.record(event);
}

/// The one lock every unit test that touches the process-wide enabled
/// switch holds, so parallel tests never see each other's toggles.
#[cfg(test)]
pub(crate) mod switch {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static GATE: Mutex<()> = Mutex::new(());

    /// Holds the switch for the guard's lifetime, leaving it off.
    pub(crate) fn hold() -> MutexGuard<'static, ()> {
        let guard = GATE.lock().unwrap_or_else(PoisonError::into_inner);
        crate::set_enabled(false);
        guard
    }

    /// Runs `f` with telemetry on, holding the switch; off again after.
    pub(crate) fn with_enabled<R>(f: impl FnOnce() -> R) -> R {
        let _held = hold();
        crate::set_enabled(true);
        let r = f();
        crate::set_enabled(false);
        r
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_toggles() {
        let _held = switch::hold();
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn global_is_a_singleton() {
        let a = global() as *const Telemetry;
        let b = global() as *const Telemetry;
        assert_eq!(a, b);
    }
}
