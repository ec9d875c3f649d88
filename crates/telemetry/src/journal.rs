//! The structured JSONL event journal.
//!
//! An [`Event`] is the JSON text it will be written as: [`Event::new`]
//! and the `field_*` methods append each field to one string as it is
//! added. [`Journal::record`] stamps the event with a process-unique,
//! dense `seq` and writes the line straight to the trace file that
//! [`Journal::open`] opened, so a reader can detect reordering or loss;
//! [`crate::schema`] validates both the per-line shape and the
//! stream-level sequencing.
//!
//! # Durability
//!
//! Each line reaches the file with one `write_all` before `record`
//! returns, so it is in the page cache from then on: a killed run loses
//! at most a torn final line, which [`crate::schema::validate_stream`]
//! reports as such. [`Journal::finish`] syncs the file and its directory
//! at a clean exit. Memory stays flat however long the run: the journal
//! holds a counter and the open file, never the lines.
//!
//! # Determinism
//!
//! Rendering is a pure function of the event; `seq` assignment and file
//! order follow record order. Callers keep that deterministic by emitting
//! only from serial sections (see the crate docs).

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// Schema version stamped on the `trace_meta` line.
pub const TRACE_VERSION: u64 = 1;

/// A structured event: its name and fields, rendered as the body of one
/// JSON object line (`"event":…,"key":value…`). Build with the chainable
/// `field_*` methods, then hand to [`crate::record`] /
/// [`Journal::record`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    body: String,
}

impl Event {
    /// A new event named `name` (must be one of the schema's event names
    /// for the trace to validate).
    pub fn new(name: &'static str) -> Self {
        let mut body = String::with_capacity(64);
        body.push_str("\"event\":");
        push_json_str(&mut body, name);
        Event { body }
    }

    /// Appends `,"key":`, ready for the value.
    fn key(&mut self, key: &'static str) -> &mut String {
        self.body.push(',');
        push_json_str(&mut self.body, key);
        self.body.push(':');
        &mut self.body
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn field_u64(mut self, key: &'static str, value: u64) -> Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    /// Adds a float field (non-finite values render as `null`).
    #[must_use]
    pub fn field_f64(mut self, key: &'static str, value: f64) -> Self {
        push_f64(self.key(key), value);
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn field_bool(mut self, key: &'static str, value: bool) -> Self {
        self.key(key).push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a string field.
    #[must_use]
    pub fn field_str(mut self, key: &'static str, value: &str) -> Self {
        push_json_str(self.key(key), value);
        self
    }

    /// Adds an array-of-numbers field (e.g. a price or budget vector).
    #[must_use]
    pub fn field_f64s(mut self, key: &'static str, values: &[f64]) -> Self {
        push_list(self.key(key), values, |out, v| push_f64(out, *v));
        self
    }

    /// Adds an array-of-arrays field (e.g. an allocation matrix, one
    /// slice per row).
    #[must_use]
    pub fn field_rows<'r>(
        mut self,
        key: &'static str,
        rows: impl IntoIterator<Item = &'r [f64]>,
    ) -> Self {
        push_list(self.key(key), rows, |out, row| {
            push_list(out, row, |out, v| push_f64(out, *v));
        });
        self
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
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

/// Appends `items` as a JSON array, each rendered by `push`.
fn push_list<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    push: impl Fn(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// The sequence counter and, once [`Journal::open`] has run, the trace
/// file every recorded event is written to.
#[derive(Debug, Default)]
pub struct Journal {
    sink: Mutex<Sink>,
}

#[derive(Debug, Default)]
struct Sink {
    seq: u64,
    /// The open trace file and its path, or the first write error, after
    /// which nothing more is written.
    file: Option<io::Result<(File, PathBuf)>>,
}

impl Journal {
    /// A journal with no file open: it only counts.
    pub fn new() -> Self {
        Self::default()
    }

    fn sink(&self) -> MutexGuard<'_, Sink> {
        self.sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Starts a new trace at `path`: creates or truncates the file,
    /// restarts sequencing at 0, and writes every event recorded from
    /// now on to it. A file opened before is dropped unsynced.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the file.
    pub fn open(&self, path: &Path) -> io::Result<()> {
        let file = File::create(path)?;
        *self.sink() = Sink {
            seq: 0,
            file: Some(Ok((file, path.to_path_buf()))),
        };
        Ok(())
    }

    /// Assigns the next sequence number and writes `event` as one line
    /// to the open file, if any.
    pub fn record(&self, event: Event) {
        // One lock over seq assignment and the write, so file order and
        // seq order can never disagree, even under (discouraged)
        // concurrent recording.
        let mut sink = self.sink();
        let seq = sink.seq;
        sink.seq += 1;
        if let Some(Ok((file, _))) = &mut sink.file {
            let line = format!("{{\"seq\":{seq},{}}}\n", event.body);
            if let Err(e) = file.write_all(line.as_bytes()) {
                sink.file = Some(Err(e));
            }
        }
    }

    /// Events recorded since the journal was opened or reset.
    pub fn recorded(&self) -> u64 {
        self.sink().seq
    }

    /// Closes the trace file: returns the first write error, else syncs
    /// the file and (best effort) its directory, so a finished trace is
    /// durable. `Ok` when no file was open; recording then only counts.
    ///
    /// # Errors
    ///
    /// The first error writing an event, or the error syncing the file.
    pub fn finish(&self) -> io::Result<()> {
        let Some(open) = self.sink().file.take() else {
            return Ok(());
        };
        let (file, path) = open?;
        file.sync_all()?;
        let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
        if let Ok(dir) = File::open(dir.unwrap_or(Path::new("."))) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Drops any open file unsynced and restarts sequencing at 0.
    pub fn reset(&self) {
        *self.sink() = Sink::default();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// A fresh path for test `tag`'s trace file.
    fn trace_path(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rebudget-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("trace.jsonl")
    }

    /// Records `events` into a journal writing to a fresh file and
    /// returns the file's lines.
    fn written(tag: &str, events: Vec<Event>) -> Vec<String> {
        let path = trace_path(tag);
        let j = Journal::new();
        j.open(&path).unwrap();
        for event in events {
            j.record(event);
        }
        j.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
        assert!(text.ends_with('\n'), "every line is complete");
        text.lines().map(str::to_owned).collect()
    }

    #[test]
    fn events_render_as_json_lines() {
        let lines = written(
            "render",
            vec![
                Event::new("solver_iteration")
                    .field_u64("iteration", 3)
                    .field_f64("residual", 0.25)
                    .field_f64s("prices", &[1.0, 2.5]),
                Event::new("rollback").field_str("cause", "floor \"check\""),
            ],
        );
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
        let lines = written(
            "null",
            vec![Event::new("solve_end")
                .field_f64("residual", f64::NAN)
                .field_f64s("prices", &[f64::INFINITY, 1.0])],
        );
        assert!(lines[0].contains("\"residual\":null"));
        assert!(lines[0].contains("[null,1.0]"));
    }

    #[test]
    fn allocation_rows_render_nested_arrays() {
        let allocation = [1.0, 2.0, 3.0, 4.0];
        let lines = written(
            "rows",
            vec![Event::new("quantum_alloc")
                .field_u64("quantum", 0)
                .field_rows("allocation", allocation.chunks(2))],
        );
        assert!(lines[0].contains("\"allocation\":[[1.0,2.0],[3.0,4.0]]"));
    }

    #[test]
    fn reset_restarts_sequencing() {
        let path = trace_path("reset");
        let j = Journal::new();
        j.record(Event::new("trace_meta"));
        j.record(Event::new("trace_meta"));
        assert_eq!(j.recorded(), 2, "with no file open it only counts");
        j.reset();
        assert_eq!(j.recorded(), 0);
        j.open(&path).unwrap();
        j.record(Event::new("trace_meta"));
        j.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\"seq\":0,"), "{text}");
        assert_eq!(text.lines().count(), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn record_writes_each_event_before_it_returns() {
        let path = trace_path("stream");
        let j = Journal::new();
        j.open(&path).unwrap();
        let mut expected = String::new();
        for i in 0..3 {
            j.record(Event::new("solve_start").field_u64("players", i));
            let _ = writeln!(
                expected,
                "{{\"seq\":{i},\"event\":\"solve_start\",\"players\":{i}}}"
            );
            // Nothing is held back for `finish`: a kill now keeps it all.
            assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        }
        j.finish().unwrap();
        j.record(Event::new("solve_start").field_u64("players", 9));
        assert_eq!(j.recorded(), 4, "after finish it counts, writing nothing");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_first_write_error_stops_writing_and_is_returned_by_finish() {
        let j = Journal::new();
        j.open(Path::new("/dev/full")).unwrap();
        j.record(Event::new("trace_meta"));
        j.record(Event::new("trace_meta"));
        assert_eq!(j.recorded(), 2);
        let e = j.finish().unwrap_err();
        assert_eq!(e.raw_os_error(), Some(28), "ENOSPC: {e}");
        assert!(j.finish().is_ok(), "the error is reported once");
    }
}
