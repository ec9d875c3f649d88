//! The daemon's wire protocol: newline-delimited JSON requests and
//! responses.
//!
//! One request per line, one response line per request, in order. The
//! request grammar (fields beyond these are ignored):
//!
//! ```text
//! {"cmd":"arrive","id":ID,"budget":B,"interests":[[RES,WEIGHT],...]}
//! {"cmd":"update","id":ID,"interests":[[RES,WEIGHT],...]}
//! {"cmd":"depart","id":ID}
//! {"cmd":"tick"}
//! {"cmd":"stats"}
//! {"cmd":"shutdown"}
//! ```
//!
//! `ID` is 1–64 characters of `[A-Za-z0-9_.-]` (it is embedded verbatim
//! in snapshot lines, so the alphabet is deliberately narrow). `B` is a
//! finite non-negative budget; each interest pairs a resource index with
//! a finite positive weight, no duplicates.
//!
//! Responses are `{"ok":true,...}` or
//! `{"ok":false,"reason":R,"error":DETAIL}` where `R` is a stable
//! machine-readable word: `malformed`, `oversized`, `shed`, `rejected`,
//! `timeout`. Parsing reuses the telemetry crate's dependency-free JSON
//! reader, so the workspace still builds offline with zero new deps.

use rebudget_telemetry::push_json_str;
use rebudget_telemetry::schema::{parse_json, Json};

/// Longest accepted player id.
pub const MAX_ID_LEN: usize = 64;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A new player asks to join the market at the next tick.
    Arrive {
        /// Player id (unique among live players).
        id: String,
        /// The player's budget.
        budget: f64,
        /// `(resource, weight)` interests, sorted by resource.
        interests: Vec<(u32, f64)>,
    },
    /// A live player replaces its utility (interest weights).
    Update {
        /// Player id.
        id: String,
        /// The replacement interests.
        interests: Vec<(u32, f64)>,
    },
    /// A live player leaves at the next tick.
    Depart {
        /// Player id.
        id: String,
    },
    /// Run one market quantum now, admitting all queued commands first.
    Tick,
    /// Report daemon state (tick, live players, counters).
    Stats,
    /// Seal the ledger and exit gracefully.
    Shutdown,
}

impl Request {
    /// Stable command name, matching the wire `cmd` field.
    pub fn cmd(&self) -> &'static str {
        match self {
            Request::Arrive { .. } => "arrive",
            Request::Update { .. } => "update",
            Request::Depart { .. } => "depart",
            Request::Tick => "tick",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// Whether this request mutates the player set (and is therefore
    /// queued behind the bounded admission gate rather than handled
    /// immediately).
    pub fn is_admission(&self) -> bool {
        matches!(
            self,
            Request::Arrive { .. } | Request::Update { .. } | Request::Depart { .. }
        )
    }

    /// Renders the request back to its canonical wire line (no trailing
    /// newline). Used by the seeded workload generator and the chaos
    /// client.
    #[must_use]
    pub fn to_line(&self) -> String {
        let mut out = format!("{{\"cmd\":\"{}\"", self.cmd());
        if let Request::Arrive { id, .. } | Request::Update { id, .. } | Request::Depart { id } =
            self
        {
            out.push_str(",\"id\":");
            push_json_str(&mut out, id);
        }
        if let Request::Arrive { budget, .. } = self {
            out.push_str(&format!(",\"budget\":{}", json_f64(*budget)));
        }
        if let Request::Arrive { interests, .. } | Request::Update { interests, .. } = self {
            let items: Vec<String> = interests
                .iter()
                .map(|&(c, w)| format!("[{c},{}]", json_f64(w)))
                .collect();
            out.push_str(&format!(",\"interests\":[{}]", items.join(",")));
        }
        out.push('}');
        out
    }
}

/// A malformed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtoError {}

fn bad<T>(msg: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError(msg.into()))
}

fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= MAX_ID_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn field_str<'a>(map: &'a Json, key: &str) -> Result<&'a str, ProtoError> {
    let Json::Object(map) = map else {
        return bad("request is not a JSON object");
    };
    map.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError(format!("missing or non-string \"{key}\"")))
}

fn field_id(map: &Json) -> Result<String, ProtoError> {
    let id = field_str(map, "id")?;
    if !valid_id(id) {
        return bad(format!(
            "invalid id {id:?} (1-{MAX_ID_LEN} chars of [A-Za-z0-9_.-])"
        ));
    }
    Ok(id.to_string())
}

fn field_interests(map: &Json) -> Result<Vec<(u32, f64)>, ProtoError> {
    let Json::Object(obj) = map else {
        return bad("request is not a JSON object");
    };
    let Some(Json::Array(items)) = obj.get("interests") else {
        return bad("missing or non-array \"interests\"");
    };
    if items.is_empty() {
        return bad("\"interests\" must name at least one resource");
    }
    let mut interests = Vec::with_capacity(items.len());
    for item in items {
        let Json::Array(pair) = item else {
            return bad("each interest must be a [resource, weight] pair");
        };
        let [res, weight] = pair.as_slice() else {
            return bad("each interest must be a [resource, weight] pair");
        };
        let Some(c) = res.as_u64().filter(|&c| c <= u64::from(u32::MAX)) else {
            return bad("interest resource must be a non-negative integer");
        };
        let Json::Number(w) = weight else {
            return bad("interest weight must be a number");
        };
        if !w.is_finite() || *w <= 0.0 {
            return bad(format!("interest weight {w} must be finite and positive"));
        }
        interests.push((c as u32, *w));
    }
    interests.sort_by_key(|&(c, _)| c);
    if interests.windows(2).any(|w| w[0].0 == w[1].0) {
        return bad("duplicate resource in \"interests\"");
    }
    Ok(interests)
}

/// Parses one request line.
///
/// # Errors
///
/// [`ProtoError`] describing the first problem (JSON syntax, unknown
/// command, missing/invalid field).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let value = parse_json(line).map_err(|e| ProtoError(e.0))?;
    match field_str(&value, "cmd")? {
        "arrive" => {
            let id = field_id(&value)?;
            let Json::Object(obj) = &value else {
                unreachable!("field_str verified the object shape")
            };
            let Some(Json::Number(budget)) = obj.get("budget") else {
                return bad("missing or non-numeric \"budget\"");
            };
            if !budget.is_finite() || *budget < 0.0 {
                return bad(format!("budget {budget} must be finite and non-negative"));
            }
            Ok(Request::Arrive {
                id,
                budget: *budget,
                interests: field_interests(&value)?,
            })
        }
        "update" => Ok(Request::Update {
            id: field_id(&value)?,
            interests: field_interests(&value)?,
        }),
        "depart" => Ok(Request::Depart {
            id: field_id(&value)?,
        }),
        "tick" => Ok(Request::Tick),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        other => bad(format!(
            "unknown cmd {other:?} (arrive | update | depart | tick | stats | shutdown)"
        )),
    }
}

/// JSON float: finite values via the shortest round-trip `{x}` form,
/// non-finite as `null` (JSON has no NaN/Infinity).
#[must_use]
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // Bare integers are valid JSON numbers; keep them as-is.
        s
    } else {
        "null".to_string()
    }
}

/// Builds an `{"ok":true,...}` response line from pre-rendered fields
/// (each `(key, json-value)`; values must already be valid JSON).
#[must_use]
pub fn ok_response(fields: &[(&str, String)]) -> String {
    let mut out = String::from("{\"ok\":true");
    for (key, value) in fields {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        out.push_str(value);
    }
    out.push('}');
    out
}

/// Builds an `{"ok":false,...}` response with a stable `reason` word and
/// a human-readable `error` detail.
#[must_use]
pub fn err_response(reason: &str, detail: &str) -> String {
    let mut out = String::from("{\"ok\":false,\"reason\":");
    push_json_str(&mut out, reason);
    out.push_str(",\"error\":");
    push_json_str(&mut out, detail);
    out.push('}');
    out
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_their_wire_lines() {
        let reqs = [
            Request::Arrive {
                id: "p0".into(),
                budget: 100.5,
                interests: vec![(0, 1.0), (3, 2.25)],
            },
            Request::Update {
                id: "p0".into(),
                interests: vec![(1, 0.5)],
            },
            Request::Depart { id: "p0".into() },
            Request::Tick,
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_line();
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn malformed_lines_are_named_errors() {
        for (line, needle) in [
            ("not json", "invalid"),
            ("{\"cmd\":\"explode\"}", "unknown cmd"),
            ("{\"id\":\"p\"}", "\"cmd\""),
            ("{\"cmd\":\"depart\"}", "\"id\""),
            ("{\"cmd\":\"depart\",\"id\":\"bad id\"}", "invalid id"),
            ("{\"cmd\":\"arrive\",\"id\":\"p\"}", "budget"),
            (
                "{\"cmd\":\"arrive\",\"id\":\"p\",\"budget\":-1,\"interests\":[[0,1]]}",
                "non-negative",
            ),
            (
                "{\"cmd\":\"arrive\",\"id\":\"p\",\"budget\":1,\"interests\":[]}",
                "at least one",
            ),
            (
                "{\"cmd\":\"arrive\",\"id\":\"p\",\"budget\":1,\"interests\":[[0,1],[0,2]]}",
                "duplicate",
            ),
            (
                "{\"cmd\":\"arrive\",\"id\":\"p\",\"budget\":1,\"interests\":[[0,0]]}",
                "positive",
            ),
        ] {
            let e = parse_request(line).unwrap_err();
            assert!(
                e.0.to_lowercase().contains(&needle.to_lowercase()),
                "{line}: {e}"
            );
        }
        // Ids at the boundary.
        assert!(valid_id(&"x".repeat(MAX_ID_LEN)));
        assert!(!valid_id(&"x".repeat(MAX_ID_LEN + 1)));
        assert!(!valid_id(""));
    }

    #[test]
    fn interests_are_sorted_on_parse() {
        let req = parse_request(
            "{\"cmd\":\"arrive\",\"id\":\"p\",\"budget\":1,\"interests\":[[5,1],[2,3]]}",
        )
        .unwrap();
        let Request::Arrive { interests, .. } = req else {
            panic!("arrive")
        };
        assert_eq!(interests, vec![(2, 3.0), (5, 1.0)]);
    }

    #[test]
    fn responses_are_valid_json() {
        let ok = ok_response(&[("tick", "3".into()), ("players", "10".into())]);
        assert_eq!(ok, "{\"ok\":true,\"tick\":3,\"players\":10}");
        parse_json(&ok).unwrap();
        let err = err_response("shed", "queue full (cap 128)");
        assert!(err.contains("\"reason\":\"shed\""));
        parse_json(&err).unwrap();
        parse_json(&err_response("malformed", "quote \" and \\ backslash")).unwrap();
    }
}
