//! Shared helpers for the integration tests under `tests/`, which
//! exercise the ReBudget reproduction across crate boundaries (theory ↔
//! market ↔ simulator).

use rebudget_telemetry as telemetry;
use rebudget_telemetry::schema::{parse_json, Json};

/// One `solver_iteration` event read back from a trace file.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedIteration {
    /// The 1-based iteration number.
    pub iteration: u64,
    /// The residual after the iteration (NaN where the trace has `null`).
    pub residual: f64,
    /// The unit prices after the iteration.
    pub prices: Vec<f64>,
}

/// Runs `solve` with telemetry on and a fresh trace file open, then
/// returns its result and the `solver_iteration` events it wrote, in
/// order.
///
/// The journal is process-global: a test that calls this must be the
/// only test in its binary, or another test's events interleave.
///
/// # Panics
///
/// If the trace file cannot be written or read back, or an event lacks
/// its fields.
#[allow(clippy::expect_used)]
pub fn traced_iterations<R>(tag: &str, solve: impl FnOnce() -> R) -> (R, Vec<TracedIteration>) {
    let path = std::env::temp_dir().join(format!("rebudget-{tag}-{}.jsonl", std::process::id()));
    telemetry::reset();
    telemetry::global().journal.open(&path).expect("trace file");
    telemetry::set_enabled(true);
    let out = solve();
    telemetry::set_enabled(false);
    telemetry::global().journal.finish().expect("trace written");
    let text = std::fs::read_to_string(&path).expect("trace readable");
    let _ = std::fs::remove_file(&path);
    let number = |v: &Json| match v {
        Json::Number(x) => *x,
        Json::Null => f64::NAN,
        other => panic!("not a number: {other:?}"),
    };
    let events = text
        .lines()
        .filter_map(|line| {
            let Json::Object(event) = parse_json(line).expect("valid JSON") else {
                panic!("not an object: {line}");
            };
            (event["event"].as_str() == Some("solver_iteration")).then(|| {
                let Json::Array(prices) = &event["prices"] else {
                    panic!("prices not an array: {line}");
                };
                TracedIteration {
                    iteration: event["iteration"].as_u64().expect("iteration"),
                    residual: number(&event["residual"]),
                    prices: prices.iter().map(number).collect(),
                }
            })
        })
        .collect();
    (out, events)
}
