//! The trace schema and a dependency-free JSON validator.
//!
//! Every journal line must parse as a JSON object with `"seq"` (a
//! non-negative integer) and `"event"` (one of the known event names),
//! carry that event's required fields with the right types, and — across
//! a stream — use strictly increasing sequence numbers starting at 0.
//! The schema is *closed*: unknown event names fail validation, so a new
//! event type must be added here (and documented in DESIGN.md) before it
//! can ship.
//!
//! The parser is a minimal recursive-descent JSON reader (objects,
//! arrays, strings, numbers, booleans, null). It exists so the test
//! suite and the `trace_check` CI bin can validate traces without adding
//! a serde dependency to the workspace.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object (duplicate keys rejected at parse time).
    Object(BTreeMap<String, Json>),
}

impl Json {
    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s.as_str()),
            _ => None,
        }
    }
}

/// A schema violation or parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for SchemaError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SchemaError> {
    Err(SchemaError(msg.into()))
}

/// Parses one JSON document, rejecting trailing garbage and duplicate
/// object keys.
///
/// # Errors
///
/// [`SchemaError`] describing the first syntax problem.
pub fn parse_json(text: &str) -> Result<Json, SchemaError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), SchemaError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, SchemaError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Json,
) -> Result<Json, SchemaError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, SchemaError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| SchemaError(format!("invalid utf-8 in number at byte {start}")))?;
    match text.parse::<f64>() {
        Ok(n) if n.is_finite() => Ok(Json::Number(n)),
        _ => err(format!("invalid number '{text}' at byte {start}")),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, SchemaError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return err("unterminated string"),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| SchemaError("truncated \\u escape".into()))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| SchemaError("invalid \\u escape".into()))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| SchemaError("invalid \\u escape".into()))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return err("invalid escape"),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so
                // boundaries are valid).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| SchemaError("invalid utf-8 in string".into()))?;
                let c = rest
                    .chars()
                    .next()
                    .ok_or_else(|| SchemaError("unterminated string".into()))?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, SchemaError> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            _ => return err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, SchemaError> {
    expect(bytes, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(map));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        if map.insert(key.clone(), value).is_some() {
            return err(format!("duplicate key \"{key}\""));
        }
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(map));
            }
            _ => return err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// The type a required field must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Non-negative integer.
    U64,
    /// Any number, or `null` (non-finite values render as null).
    Num,
    /// Boolean.
    Bool,
    /// String.
    Str,
    /// Array of numbers/nulls.
    NumArray,
    /// Array of arrays of numbers/nulls.
    RowArray,
}

/// The closed event schema: every event name the journal may emit, with
/// its required fields. Extra fields are allowed; missing or mistyped
/// required fields are not.
pub const EVENTS: &[(&str, &[(&str, Kind)])] = &[
    (
        "trace_meta",
        &[("version", Kind::U64), ("command", Kind::Str)],
    ),
    (
        "solve_start",
        &[("players", Kind::U64), ("resources", Kind::U64)],
    ),
    (
        "solver_iteration",
        &[
            ("iteration", Kind::U64),
            ("residual", Kind::Num),
            ("prices", Kind::NumArray),
        ],
    ),
    (
        "recovery",
        &[("iteration", Kind::U64), ("action", Kind::Str)],
    ),
    (
        "solve_end",
        &[
            ("iterations", Kind::U64),
            ("converged", Kind::Bool),
            ("residual", Kind::Num),
            ("timed_out", Kind::Bool),
        ],
    ),
    (
        "retry_attempt",
        &[
            ("attempt", Kind::U64),
            ("converged", Kind::Bool),
            ("timed_out", Kind::Bool),
        ],
    ),
    (
        "oracle_pass",
        &[("pass", Kind::U64), ("efficiency", Kind::Num)],
    ),
    (
        "rebudget_round",
        &[
            ("round", Kind::U64),
            ("efficiency", Kind::Num),
            ("budgets", Kind::NumArray),
        ],
    ),
    (
        "floor_check",
        &[
            ("round", Kind::U64),
            ("floor", Kind::Num),
            ("efficiency", Kind::Num),
            ("ok", Kind::Bool),
        ],
    ),
    ("rollback", &[("round", Kind::U64), ("cause", Kind::Str)]),
    (
        "quantum",
        &[
            ("quantum", Kind::U64),
            ("mechanism", Kind::Str),
            ("efficiency", Kind::Num),
            ("degraded", Kind::Bool),
            ("fallback", Kind::Bool),
        ],
    ),
    (
        "quantum_alloc",
        &[("quantum", Kind::U64), ("allocation", Kind::RowArray)],
    ),
    (
        "degradation",
        &[
            ("quantum", Kind::U64),
            ("from", Kind::Str),
            ("to", Kind::Str),
        ],
    ),
    (
        "server_request",
        &[("cmd", Kind::Str), ("outcome", Kind::Str)],
    ),
    (
        "server_tick",
        &[
            ("tick", Kind::U64),
            ("players", Kind::U64),
            ("admitted", Kind::U64),
            ("converged", Kind::Bool),
            ("fallback", Kind::Bool),
        ],
    ),
];

fn kind_matches(kind: Kind, value: &Json) -> bool {
    match kind {
        Kind::U64 => value.as_u64().is_some(),
        Kind::Num => matches!(value, Json::Number(_) | Json::Null),
        Kind::Bool => matches!(value, Json::Bool(_)),
        Kind::Str => matches!(value, Json::String(_)),
        Kind::NumArray => matches!(value, Json::Array(items)
            if items.iter().all(|v| matches!(v, Json::Number(_) | Json::Null))),
        Kind::RowArray => matches!(value, Json::Array(rows)
            if rows.iter().all(|r| kind_matches(Kind::NumArray, r))),
    }
}

/// Validates one journal line against the schema and returns its `seq`.
///
/// # Errors
///
/// [`SchemaError`] naming the first violation (parse error, missing
/// `seq`/`event`, unknown event, or missing/mistyped required field).
pub fn validate_line(line: &str) -> Result<u64, SchemaError> {
    let value = parse_json(line)?;
    let Json::Object(map) = &value else {
        return err("line is not a JSON object");
    };
    let seq = map
        .get("seq")
        .and_then(Json::as_u64)
        .ok_or_else(|| SchemaError("missing or invalid \"seq\"".into()))?;
    let event = map
        .get("event")
        .and_then(Json::as_str)
        .ok_or_else(|| SchemaError("missing or invalid \"event\"".into()))?;
    let Some((_, required)) = EVENTS.iter().find(|(name, _)| *name == event) else {
        return err(format!("unknown event \"{event}\""));
    };
    for (field, kind) in *required {
        match map.get(*field) {
            None => return err(format!("event \"{event}\" missing field \"{field}\"")),
            Some(v) if !kind_matches(*kind, v) => {
                return err(format!(
                    "event \"{event}\" field \"{field}\" has wrong type (expected {kind:?})"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(seq)
}

/// What [`validate_stream`] found in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Complete lines, each a valid event.
    pub events: usize,
    /// Length of a final line cut before its newline, as a killed run
    /// leaves it; 0 when the trace ends at a line end. Not validated and
    /// not counted.
    pub torn_bytes: usize,
}

/// Validates a whole JSONL stream: every complete line against the
/// schema, and `seq` running densely from 0. A final line without its
/// newline is torn (a killed run): it is reported, not validated.
///
/// # Errors
///
/// [`SchemaError`] prefixed with the 1-based line number.
pub fn validate_stream(text: &[u8]) -> Result<StreamSummary, SchemaError> {
    let complete = text.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let mut events = 0usize;
    for (i, line) in text[..complete].split(|&b| b == b'\n').enumerate() {
        if line.is_empty() {
            continue;
        }
        let at = |e: String| SchemaError(format!("line {}: {e}", i + 1));
        let line = std::str::from_utf8(line).map_err(|e| at(e.to_string()))?;
        let seq = validate_line(line).map_err(|e| at(e.0))?;
        if seq != events as u64 {
            return Err(at(format!("seq {seq} out of order (expected {events})")));
        }
        events += 1;
    }
    Ok(StreamSummary {
        events,
        torn_bytes: text.len() - complete,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::journal::{Event, Journal, TRACE_VERSION};

    #[test]
    fn parser_round_trips_values() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2,null],"b":"x\"y","c":true,"d":{}}"#).unwrap();
        let Json::Object(map) = v else {
            panic!("object")
        };
        assert_eq!(map.get("b").unwrap().as_str(), Some("x\"y"));
        assert_eq!(
            map.get("a"),
            Some(&Json::Array(vec![
                Json::Number(1.0),
                Json::Number(2.5),
                Json::Number(-300.0),
                Json::Null
            ]))
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("{}extra").is_err());
        assert!(parse_json(r#"{"a":1,"a":2}"#).is_err(), "duplicate keys");
        assert!(parse_json("NaN").is_err());
        assert!(parse_json("[1,]").is_err());
    }

    #[test]
    fn journal_output_validates() {
        let dir = std::env::temp_dir().join(format!("rebudget-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let j = Journal::new();
        j.open(&path).unwrap();
        j.record(
            Event::new("trace_meta")
                .field_u64("version", TRACE_VERSION)
                .field_str("command", "simulate"),
        );
        j.record(
            Event::new("solver_iteration")
                .field_u64("iteration", 1)
                .field_f64("residual", f64::NAN)
                .field_f64s("prices", &[1.0, f64::INFINITY]),
        );
        j.record(
            Event::new("quantum_alloc")
                .field_u64("quantum", 0)
                .field_rows("allocation", [&[1.0][..], &[2.0]]),
        );
        j.finish().unwrap();
        let text = std::fs::read(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let summary = validate_stream(&text).unwrap();
        assert_eq!(
            summary,
            StreamSummary {
                events: 3,
                torn_bytes: 0
            }
        );
    }

    #[test]
    fn a_cut_trace_counts_its_complete_lines_and_reports_the_torn_one() {
        let text = concat!(
            "{\"seq\":0,\"event\":\"trace_meta\",\"version\":1,\"command\":\"caf\u{e9}\"}\n",
            "{\"seq\":1,\"event\":\"rollback\",\"round\":1,\"cause\":\"floor\"}\n",
            "{\"seq\":2,\"event\":\"solve_start\",\"players\":2,\"resources\":3}\n",
        )
        .as_bytes();
        for cut in 0..=text.len() {
            let kept = &text[..cut];
            let complete = kept.iter().filter(|&&b| b == b'\n').count();
            let torn_bytes = cut - kept.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
            assert_eq!(
                validate_stream(kept).unwrap(),
                StreamSummary {
                    events: complete,
                    torn_bytes
                },
                "cut at byte {cut}"
            );
        }
        // A malformed complete line still fails, torn tail or not.
        let bad = [&text[..20], b"\n", &text[20..40]].concat();
        let e = validate_stream(&bad).unwrap_err();
        assert!(e.0.starts_with("line 1:"), "{e}");
        let e = validate_stream(&text[1..]).unwrap_err();
        assert!(e.0.starts_with("line 1:"), "{e}");
    }

    #[test]
    fn unknown_event_is_rejected() {
        let e = validate_line(r#"{"seq":0,"event":"mystery"}"#).unwrap_err();
        assert!(e.0.contains("unknown event"), "{e}");
    }

    #[test]
    fn missing_and_mistyped_fields_are_rejected() {
        let missing = validate_line(r#"{"seq":0,"event":"rollback","round":1}"#).unwrap_err();
        assert!(missing.0.contains("missing field \"cause\""), "{missing}");
        let mistyped =
            validate_line(r#"{"seq":0,"event":"rollback","round":"one","cause":"floor"}"#)
                .unwrap_err();
        assert!(mistyped.0.contains("wrong type"), "{mistyped}");
    }

    #[test]
    fn stream_sequencing_is_enforced() {
        let good = concat!(
            "{\"seq\":0,\"event\":\"trace_meta\",\"version\":1,\"command\":\"x\"}\n",
            "{\"seq\":1,\"event\":\"rollback\",\"round\":1,\"cause\":\"floor\"}\n",
        );
        assert_eq!(validate_stream(good.as_bytes()).unwrap().events, 2);
        let skipped = good.replace("\"seq\":1", "\"seq\":2");
        let e = validate_stream(skipped.as_bytes()).unwrap_err();
        assert!(e.0.contains("out of order"), "{e}");
    }

    #[test]
    fn server_events_validate() {
        let req = r#"{"seq":0,"event":"server_request","cmd":"arrive","outcome":"accepted"}"#;
        assert_eq!(validate_line(req).unwrap(), 0);
        let tick = concat!(
            r#"{"seq":1,"event":"server_tick","tick":3,"players":100,"#,
            r#""admitted":2,"converged":true,"fallback":false}"#,
        );
        assert_eq!(validate_line(tick).unwrap(), 1);
        let bad = r#"{"seq":0,"event":"server_tick","tick":3,"players":100,"admitted":2}"#;
        let e = validate_line(bad).unwrap_err();
        assert!(e.0.contains("missing field \"converged\""), "{e}");
    }

    #[test]
    fn every_schema_event_name_is_unique() {
        for (i, (name, _)) in EVENTS.iter().enumerate() {
            assert!(
                EVENTS.iter().skip(i + 1).all(|(other, _)| other != name),
                "duplicate schema entry for {name}"
            );
        }
    }
}
