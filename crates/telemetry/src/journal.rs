//! The structured JSONL event journal.
//!
//! Events are built with [`Event`] (a name plus typed fields), rendered
//! to one JSON object per line at record time, and buffered in memory
//! until [`Journal::flush_to`] writes them out. Every line carries a
//! process-unique monotonically increasing `seq` so a reader can detect
//! reordering or loss; [`crate::schema`] validates both the per-line
//! shape and the stream-level sequencing.
//!
//! # Crash atomicity
//!
//! `flush_to` writes the full journal to `<path>.tmp`, fsyncs it, then
//! renames it over `<path>`. A crash mid-flush leaves either
//! the previous complete journal or the new complete journal, never a
//! torn file.
//!
//! # Determinism
//!
//! Rendering is a pure function of the event; `seq` assignment and buffer
//! order follow record order. Callers keep that deterministic by emitting
//! only from serial sections (see the crate docs).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Schema version stamped on the `trace_meta` line.
pub const TRACE_VERSION: u64 = 1;

/// One field value of an [`Event`].
#[derive(Debug, Clone, PartialEq)]
enum Value {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
    F64s(Vec<f64>),
    Rows(Vec<Vec<f64>>),
}

/// A structured event under construction. Build with the chainable
/// `field_*` methods, then hand to [`crate::record`] /
/// [`Journal::record`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    name: &'static str,
    fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// A new event named `name` (must be one of the schema's event names
    /// for the trace to validate).
    pub fn new(name: &'static str) -> Self {
        Event {
            name,
            fields: Vec::new(),
        }
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn field_u64(mut self, key: &'static str, value: u64) -> Self {
        self.fields.push((key, Value::U64(value)));
        self
    }

    /// Adds a float field (non-finite values render as `null`).
    #[must_use]
    pub fn field_f64(mut self, key: &'static str, value: f64) -> Self {
        self.fields.push((key, Value::F64(value)));
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn field_bool(mut self, key: &'static str, value: bool) -> Self {
        self.fields.push((key, Value::Bool(value)));
        self
    }

    /// Adds a string field.
    #[must_use]
    pub fn field_str(mut self, key: &'static str, value: &str) -> Self {
        self.fields.push((key, Value::Str(value.to_owned())));
        self
    }

    /// Adds an array-of-numbers field (e.g. a price or budget vector).
    #[must_use]
    pub fn field_f64s(mut self, key: &'static str, values: &[f64]) -> Self {
        self.fields.push((key, Value::F64s(values.to_vec())));
        self
    }

    /// Adds an array-of-arrays field (e.g. an allocation matrix).
    #[must_use]
    pub fn field_rows(mut self, key: &'static str, rows: Vec<Vec<f64>>) -> Self {
        self.fields.push((key, Value::Rows(rows)));
        self
    }

    /// Renders the event as one JSON line with the given sequence number.
    fn render(&self, seq: u64) -> String {
        let mut out = String::with_capacity(64);
        out.push_str("{\"seq\":");
        out.push_str(&seq.to_string());
        out.push_str(",\"event\":");
        push_json_str(&mut out, self.name);
        for (key, value) in &self.fields {
            out.push(',');
            push_json_str(&mut out, key);
            out.push(':');
            push_value(&mut out, value);
        }
        out.push('}');
        out
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string — the one JSON
/// string escaper in the workspace (journal events and the server's wire
/// protocol both render with it).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` prints a shortest round-trip representation that is
        // valid JSON for finite values ("1.5", "1e300", "-0.0").
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

fn push_value(out: &mut String, value: &Value) {
    match value {
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => push_f64(out, *v),
        Value::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        Value::Str(v) => push_json_str(out, v),
        Value::F64s(vs) => {
            out.push('[');
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_f64(out, *v);
            }
            out.push(']');
        }
        Value::Rows(rows) => {
            out.push('[');
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, v) in row.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    push_f64(out, *v);
                }
                out.push(']');
            }
            out.push(']');
        }
    }
}

/// In-memory buffer of rendered JSONL lines plus the sequence counter.
#[derive(Debug, Default)]
pub struct Journal {
    seq: AtomicU64,
    lines: Mutex<Vec<String>>,
}

fn lock(m: &Mutex<Vec<String>>) -> MutexGuard<'_, Vec<String>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assigns the next sequence number, renders, and buffers `event`.
    pub fn record(&self, event: Event) {
        // Hold the buffer lock across seq assignment so buffer order and
        // seq order can never disagree, even under (discouraged)
        // concurrent recording.
        let mut lines = lock(&self.lines);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        lines.push(event.render(seq));
    }

    /// Number of buffered lines.
    pub fn len(&self) -> usize {
        lock(&self.lines).len()
    }

    /// Whether the journal holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the buffered lines, in record order.
    pub fn lines(&self) -> Vec<String> {
        lock(&self.lines).clone()
    }

    /// Clears the buffer and restarts sequencing at 0.
    pub fn reset(&self) {
        let mut lines = lock(&self.lines);
        lines.clear();
        self.seq.store(0, Ordering::Relaxed);
    }

    /// Writes the journal to `path` crash-atomically (tmp + fsync +
    /// rename). The buffer is left intact so later flushes rewrite the
    /// longer journal over the same path.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating, writing, syncing, or renaming the
    /// temporary file.
    pub fn flush_to(&self, path: &Path) -> io::Result<()> {
        let lines = self.lines();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)?;
            for line in &lines {
                f.write_all(line.as_bytes())?;
                f.write_all(b"\n")?;
            }
            f.sync_all()?;
        }
        fs::rename(&tmp, path)?;
        // Best-effort directory sync so the rename itself is durable.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn events_render_as_json_lines() {
        let j = Journal::new();
        j.record(
            Event::new("solver_iteration")
                .field_u64("iteration", 3)
                .field_f64("residual", 0.25)
                .field_f64s("prices", &[1.0, 2.5]),
        );
        j.record(Event::new("rollback").field_str("cause", "floor \"check\""));
        let lines = j.lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"seq\":0,\"event\":\"solver_iteration\",\"iteration\":3,\"residual\":0.25,\"prices\":[1.0,2.5]}"
        );
        assert_eq!(
            lines[1],
            "{\"seq\":1,\"event\":\"rollback\",\"cause\":\"floor \\\"check\\\"\"}"
        );
    }

    #[test]
    fn non_finite_floats_render_null() {
        let j = Journal::new();
        j.record(
            Event::new("solve_end")
                .field_f64("residual", f64::NAN)
                .field_f64s("prices", &[f64::INFINITY, 1.0]),
        );
        let line = j.lines().remove(0);
        assert!(line.contains("\"residual\":null"));
        assert!(line.contains("[null,1.0]"));
    }

    #[test]
    fn allocation_rows_render_nested_arrays() {
        let j = Journal::new();
        j.record(
            Event::new("quantum_alloc")
                .field_u64("quantum", 0)
                .field_rows("allocation", vec![vec![1.0, 2.0], vec![3.0, 4.0]]),
        );
        let line = j.lines().remove(0);
        assert!(line.contains("\"allocation\":[[1.0,2.0],[3.0,4.0]]"));
    }

    #[test]
    fn reset_restarts_sequencing() {
        let j = Journal::new();
        j.record(Event::new("trace_meta"));
        j.record(Event::new("trace_meta"));
        j.reset();
        assert!(j.is_empty());
        j.record(Event::new("trace_meta"));
        assert!(j.lines()[0].starts_with("{\"seq\":0,"));
    }

    #[test]
    fn flush_is_atomic_and_repeatable() {
        let dir =
            std::env::temp_dir().join(format!("rebudget-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let j = Journal::new();
        j.record(Event::new("trace_meta").field_u64("version", TRACE_VERSION));
        j.flush_to(&path).unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first.lines().count(), 1);
        j.record(Event::new("solve_start").field_u64("players", 2));
        j.flush_to(&path).unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(second.lines().count(), 2);
        assert!(second.starts_with(&first), "flush rewrites a superset");
        assert!(
            !path.with_extension("jsonl.tmp").exists(),
            "tmp renamed away"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
