//! The workspace's one durable text codec (DESIGN.md, "Durable codec").
//!
//! Sim and sweep checkpoints ([`crate::checkpoint`]), scenario and server
//! ledgers (`rebudget_scenario::ledger`) and the server's tick snapshots
//! (`rebudget_server::state`) are all schemas over one grammar: a header
//! line, then `[section]` and `key=value` lines. Every `f64` is the
//! 16-hex-digit rendering of its IEEE-754 bits, so round trips are exact
//! (negative zero, subnormals, infinities and NaN payloads included), and
//! integrity is 64-bit FNV-1a, whose running state after N bytes *is* the
//! hash of those N bytes.
//!
//! [`Writer`] writes that grammar and carries the running hash;
//! [`lines`]/[`read_lines`] scan it back with the hash before each line;
//! [`Document`] checks a [`Trailer`] and hands out borrowed [`Section`]s;
//! [`write_atomic`]/[`write_atomic_with`] and [`load_with_fallback`] keep
//! a `.prev` generation.

use std::fmt::{self, Display, Write as _};
use std::fs;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// FNV-1a's initial state: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Folds `bytes` into a running FNV-1a state:
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)`, so a hash chain over a
/// growing file costs O(new bytes) per link.
#[must_use]
pub fn fnv1a_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A malformed, corrupt or unreadable durable file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Reading or writing the file failed.
    Io {
        /// The file involved.
        path: String,
        /// The OS error rendered as text.
        message: String,
    },
    /// The text breaks the grammar or its schema.
    Format {
        /// 1-based line of the offence (0 for the file as a whole).
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The trailer's digest does not match the bytes it covers.
    Checksum {
        /// Digest recorded in the file.
        expected: u64,
        /// Digest of the actual bytes.
        found: u64,
    },
}

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Io { path, message } => write!(f, "i/o failed for {path}: {message}"),
            Error::Format { line, reason } => write!(f, "line {line}: {reason}"),
            Error::Checksum { expected, found } => write!(
                f,
                "checksum mismatch: recorded {expected:016x}, computed {found:016x} \
                 (file truncated or corrupted)"
            ),
        }
    }
}

impl std::error::Error for Error {}

fn format_err(line: usize, reason: String) -> Error {
    Error::Format { line, reason }
}

fn io_err(path: &Path, e: &std::io::Error) -> Error {
    Error::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Each byte's hex-digit value, or `0xff` for a byte not in [`HEX_DIGITS`].
const HEX_VALUES: [u8; 256] = {
    let mut values = [0xff; 256];
    let mut digit = 0;
    while digit < 16 {
        values[HEX_DIGITS[digit] as usize] = digit as u8;
        digit += 1;
    }
    values
};

/// A word of exactly 16 lowercase hex digits (a digest or an `f64`'s
/// bits), or `None`.
#[must_use]
pub fn parse_hex(word: impl AsRef<[u8]>) -> Option<u64> {
    let word: &[u8; 16] = word.as_ref().try_into().ok()?;
    let (mut value, mut invalid) = (0u64, 0u8);
    for &c in word {
        let digit = HEX_VALUES[usize::from(c)];
        invalid |= digit;
        value = value << 4 | u64::from(digit & 0xf);
    }
    (invalid < 16).then_some(value)
}

/// An `f64` from its 16-hex-digit bits word.
#[must_use]
pub fn parse_f64(word: &str) -> Option<f64> {
    parse_hex(word).map(f64::from_bits)
}

/// `v`'s 16 lowercase hex digits, eight at a time: each half's nibbles
/// are spread one per byte, most significant first, then shifted into
/// `'0'..='9'` or `'a'..='f'` without a branch or a table.
fn hex_digits(v: u64) -> [u8; 16] {
    fn eight(half: u64) -> [u8; 8] {
        let x = (half | half << 16) & 0x0000_ffff_0000_ffff;
        let x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
        let x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
        // 0x01 in each byte whose nibble is 10 or more.
        let letters = ((x + 0x0606_0606_0606_0606) >> 4) & 0x0101_0101_0101_0101;
        (x + 0x3030_3030_3030_3030 + letters * (b'a' - b'0' - 10) as u64).to_be_bytes()
    }
    let mut digits = [0u8; 16];
    digits[..8].copy_from_slice(&eight(v >> 32));
    digits[8..].copy_from_slice(&eight(v & 0xffff_ffff));
    digits
}

/// FNV-1a of `parts` joined by `separator`, computed without joining
/// them.
#[must_use]
pub fn fnv1a_joined<'a>(parts: impl IntoIterator<Item = &'a str>, separator: &str) -> u64 {
    parts
        .into_iter()
        .enumerate()
        .fold(FNV_OFFSET, |hash, (i, part)| {
            let hash = if i > 0 {
                fnv1a_extend(hash, separator.as_bytes())
            } else {
                hash
            };
            fnv1a_extend(hash, part.as_bytes())
        })
}

/// FNV-1a of `values` rendered as [`Writer::f64_words`] renders them,
/// computed without rendering them into a buffer.
#[must_use]
pub fn fnv1a_f64_words(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut word = [b' '; 17];
    let mut hash = FNV_OFFSET;
    for (i, v) in values.into_iter().enumerate() {
        word[1..].copy_from_slice(&hex_digits(v.to_bits()));
        hash = fnv1a_extend(hash, &word[usize::from(i == 0)..]);
    }
    hash
}

/// Formats durable text into one buffer, allocating nothing per value,
/// and folds every byte into the running hash as it is written: the hash
/// chain is latency-bound, so it runs alongside the formatting rather
/// than in a second pass over the text.
#[derive(Debug, Clone)]
pub struct Writer {
    buf: String,
    /// FNV-1a state over every byte written, drained or not.
    state: u64,
}

impl Default for Writer {
    fn default() -> Self {
        Self::resume(FNV_OFFSET)
    }
}

impl Writer {
    /// A writer continuing a file whose bytes so far hash to `state`.
    #[must_use]
    pub fn resume(state: u64) -> Self {
        Self {
            buf: String::new(),
            state,
        }
    }

    /// Appends `text` and folds it into the hash.
    fn push(&mut self, text: &str) {
        self.state = fnv1a_extend(self.state, text.as_bytes());
        self.buf.push_str(text);
    }

    /// Appends ASCII `bytes` (digits, so the UTF-8 check always passes)
    /// and folds them into the hash.
    fn push_ascii(&mut self, bytes: &[u8]) {
        if let Ok(text) = std::str::from_utf8(bytes) {
            self.push(text);
        }
    }

    /// Folds the bytes written since `start` by `write!`, which bypasses
    /// [`Writer::push`], into the hash.
    fn fold_from(&mut self, start: usize) {
        self.state = fnv1a_extend(self.state, &self.buf.as_bytes()[start..]);
    }

    /// Appends `value`'s `Display` form.
    pub fn word(&mut self, value: impl Display) {
        let start = self.buf.len();
        let _ = write!(self.buf, "{value}");
        self.fold_from(start);
    }

    /// Appends `v` in decimal, as [`Writer::word`] would, without going
    /// through `fmt`.
    fn uint_word(&mut self, v: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = v;
        loop {
            at -= 1;
            digits[at] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        self.push_ascii(&digits[at..]);
    }

    /// Appends `values` as space-separated bits words.
    pub fn f64_words(&mut self, values: &[f64]) {
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                self.push(" ");
            }
            self.push_ascii(&hex_digits(v.to_bits()));
        }
    }

    /// Writes `text` as a whole line.
    pub fn line(&mut self, text: impl Display) {
        self.word(text);
        self.end();
    }

    /// Ends the current line.
    pub fn end(&mut self) {
        self.push("\n");
    }

    /// Writes `[name]`.
    pub fn section(&mut self, name: impl Display) {
        self.line(format_args!("[{name}]"));
    }

    /// Writes `[name index]`, as `section(format_args!("{name} {index}"))`
    /// would, without going through `fmt`.
    pub fn indexed_section(&mut self, name: &str, index: u64) {
        self.push("[");
        self.push(name);
        self.push(" ");
        self.uint_word(index);
        self.push("]\n");
    }

    /// Starts a `key=` line for the caller to [`Writer::end`].
    pub fn key(&mut self, key: &str) {
        debug_assert!(!key.is_empty() && !key.contains(['=', '\n', '[']));
        self.push(key);
        self.push("=");
    }

    /// `key=value` in `value`'s `Display` form.
    ///
    /// # Panics
    ///
    /// If the value renders with a newline, which would break the grammar.
    pub fn kv(&mut self, key: &str, value: impl Display) {
        self.key(key);
        let start = self.buf.len();
        self.word(value);
        assert!(
            !self.buf[start..].contains('\n'),
            "`{key}` value has a newline"
        );
        self.end();
    }

    /// `key=value` for a value that must not hold a newline; the same
    /// bytes as [`Writer::kv`], without going through `fmt`.
    ///
    /// # Panics
    ///
    /// If `value` holds a newline, which would break the grammar.
    pub fn str(&mut self, key: &str, value: &str) {
        assert!(!value.contains('\n'), "`{key}` value has a newline");
        self.key(key);
        self.push(value);
        self.end();
    }

    /// `key=` and space-separated `index:bits` words.
    pub fn indexed_f64_list(&mut self, key: &str, items: impl IntoIterator<Item = (u64, f64)>) {
        self.key(key);
        for (i, (index, v)) in items.into_iter().enumerate() {
            if i > 0 {
                self.push(" ");
            }
            self.uint_word(index);
            self.push(":");
            self.push_ascii(&hex_digits(v.to_bits()));
        }
        self.end();
    }

    /// `key=` and `v`'s bits word.
    pub fn f64(&mut self, key: &str, v: f64) {
        self.f64_list(key, &[v]);
    }

    /// `key=` and space-separated bits words.
    pub fn f64_list(&mut self, key: &str, values: &[f64]) {
        self.key(key);
        self.f64_words(values);
        self.end();
    }

    /// `key=0` or `key=1`.
    pub fn bool(&mut self, key: &str, v: bool) {
        self.kv(key, u8::from(v));
    }

    /// `key=` and `v` as 16 hex digits (digests and chain links).
    pub fn hex(&mut self, key: &str, v: u64) {
        self.kv(key, format_args!("{v:016x}"));
    }

    /// Closes the file with `trailer`'s `[name]` and `fnv1a=` lines.
    pub fn seal(&mut self, trailer: Trailer) {
        let before = self.hash();
        self.section(trailer.name());
        let digest = match trailer {
            Trailer::Before(_) => before,
            Trailer::Through(_) => self.hash(),
        };
        self.hex("fnv1a", digest);
    }

    /// FNV-1a of every byte written so far, drained or not.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.state
    }

    /// The bytes not yet drained.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.buf
    }

    /// The bytes written, as one string.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }

    /// Hands the held bytes to `out` with one `write_all` and drops them;
    /// the hash runs on. On error the bytes stay held.
    ///
    /// # Errors
    ///
    /// Whatever `out.write_all` returns.
    pub fn drain_to(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(self.buf.as_bytes())?;
        self.buf.clear();
        Ok(())
    }
}

/// One scanned line of durable text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line<'a> {
    /// 1-based line number.
    pub number: usize,
    /// Byte offset of the line's first byte.
    pub offset: usize,
    /// Byte offset just past the line, its newline included.
    pub end: usize,
    /// FNV-1a of every byte before the line.
    pub hash_before: u64,
    /// FNV-1a of every byte before [`Line::end`].
    pub hash_after: u64,
    /// The line's bytes without its newline. From [`lines`] they are
    /// `text[offset..offset + bytes.len()]`, a `&str` slice on char
    /// boundaries; a reader's bytes need not be UTF-8.
    pub bytes: &'a [u8],
    /// Whether the line ends in a newline: only a torn last line does not.
    pub complete: bool,
}

/// The position after the lines scanned so far.
#[derive(Debug, Clone, Copy)]
struct Scanner {
    number: usize,
    offset: usize,
    hash: u64,
}

impl Scanner {
    fn new() -> Self {
        Self {
            number: 0,
            offset: 0,
            hash: FNV_OFFSET,
        }
    }

    /// Steps over `raw`: one line, its newline included when complete.
    fn feed<'a>(&mut self, raw: &'a [u8]) -> Line<'a> {
        let before = *self;
        self.number += 1;
        self.offset += raw.len();
        self.hash = fnv1a_extend(self.hash, raw);
        Line {
            number: self.number,
            offset: before.offset,
            end: self.offset,
            hash_before: before.hash,
            hash_after: self.hash,
            bytes: raw.strip_suffix(b"\n").unwrap_or(raw),
            complete: raw.last() == Some(&b'\n'),
        }
    }
}

/// The lines of `text`, in order.
pub fn lines(text: &str) -> impl Iterator<Item = Line<'_>> {
    let mut scanner = Scanner::new();
    text.split_inclusive('\n')
        .map(move |raw| scanner.feed(raw.as_bytes()))
}

/// Feeds the lines of `reader` to `visit`, holding one line at a time,
/// until the input ends or `visit` returns `false`.
///
/// # Errors
///
/// Whatever reading `reader` returns.
pub fn read_lines(
    mut reader: impl BufRead,
    mut visit: impl FnMut(Line<'_>) -> bool,
) -> std::io::Result<()> {
    let mut scanner = Scanner::new();
    let mut raw = Vec::new();
    while reader.read_until(b'\n', &mut raw)? > 0 && visit(scanner.feed(&raw)) {
        raw.clear();
    }
    Ok(())
}

/// A format's closing `[name]` line and `fnv1a=` digest, by what the
/// digest covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trailer {
    /// Every byte before the `[name]` line.
    Before(&'static str),
    /// Every byte before the `fnv1a=` line, the `[name]` line included.
    Through(&'static str),
}

impl Trailer {
    fn name(self) -> &'static str {
        match self {
            Trailer::Before(name) | Trailer::Through(name) => name,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry<'a> {
    key: &'a str,
    value: &'a str,
    line: usize,
}

/// A sealed durable file whose trailer checked out, split into sections.
#[derive(Debug)]
pub struct Document<'a> {
    header: &'a str,
    /// `(name, line, first entry)` per section, in file order.
    sections: Vec<(&'a str, usize, usize)>,
    entries: Vec<Entry<'a>>,
}

impl<'a> Document<'a> {
    /// Checks `text`'s trailer, then splits its body into sections.
    ///
    /// # Errors
    ///
    /// [`Error::Checksum`] for a wrong digest, else [`Error::Format`] for
    /// a missing header or trailer or a malformed body line — trailer
    /// faults first, so a damaged file reports the damage.
    pub fn open(text: &'a str, trailer: Trailer) -> Result<Self, Error> {
        let name = trailer.name();
        let header = text
            .split_once('\n')
            .ok_or_else(|| format_err(1, "empty or headerless file".into()))?
            .0;
        let tag = format!("[{name}]\n");
        let at = text
            .rfind(&tag)
            .filter(|&at| at > header.len() && text.as_bytes()[at - 1] == b'\n')
            .ok_or_else(|| format_err(0, format!("missing [{name}] trailer (file truncated?)")))?;
        let recorded = text[at + tag.len()..]
            .strip_prefix("fnv1a=")
            .and_then(|digest| parse_hex(digest.strip_suffix('\n')?))
            .ok_or_else(|| format_err(0, format!("[{name}] trailer has no fnv1a digest")))?;
        let mut doc = Self {
            header,
            sections: Vec::new(),
            entries: Vec::new(),
        };
        let mut computed = FNV_OFFSET;
        let mut body_fault = None;
        for line in lines(&text[..at]) {
            computed = line.hash_after;
            if line.number > 1 && body_fault.is_none() {
                let line_text = &text[line.offset..line.offset + line.bytes.len()];
                body_fault = doc.push(line_text, line.number).err();
            }
        }
        if let Trailer::Through(_) = trailer {
            computed = fnv1a_extend(computed, tag.as_bytes());
        }
        if recorded != computed {
            return Err(Error::Checksum {
                expected: recorded,
                found: computed,
            });
        }
        body_fault.map_or(Ok(doc), Err)
    }

    /// Files body line `number`, `line`, under the current section.
    fn push(&mut self, line: &'a str, number: usize) -> Result<(), Error> {
        let fault = |reason: String| Err(format_err(number, reason));
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            self.sections.push((name, number, self.entries.len()));
            return Ok(());
        }
        match line.split_once('=') {
            None => fault(format!("unrecognized line `{line}`")),
            Some(_) if self.sections.is_empty() => fault("key=value before any [section]".into()),
            Some((key, value)) => {
                self.entries.push(Entry {
                    key,
                    value,
                    line: number,
                });
                Ok(())
            }
        }
    }

    /// The header line.
    #[must_use]
    pub fn header(&self) -> &'a str {
        self.header
    }

    /// Every section, in file order.
    pub fn sections(&self) -> impl Iterator<Item = Section<'_>> {
        let ends = self.sections.iter().skip(1).map(|s| s.2);
        self.sections
            .iter()
            .zip(ends.chain([self.entries.len()]))
            .map(|(&(name, line, start), end)| Section {
                name,
                line,
                entries: &self.entries[start..end],
            })
    }

    /// The one section called `name`.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] when the section is missing or repeated.
    pub fn section(&self, name: &str) -> Result<Section<'_>, Error> {
        let mut found = self.sections().filter(|s| s.name == name);
        match (found.next(), found.next()) {
            (_, Some(again)) => Err(format_err(again.line, format!("repeated [{name}] section"))),
            (first, None) => {
                first.ok_or_else(|| format_err(0, format!("missing [{name}] section")))
            }
        }
    }
}

/// One `[name]` section's `key=value` records, borrowed from the text.
/// Every getter fails with a line-numbered [`Error::Format`] when its key
/// is repeated, and all but [`Section::optional`] when it is missing.
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    /// The name between the brackets.
    pub name: &'a str,
    /// 1-based line of the `[name]` line.
    pub line: usize,
    entries: &'a [Entry<'a>],
}

impl<'a> Section<'a> {
    fn entry(&self, key: &str) -> Result<Option<&'a Entry<'a>>, Error> {
        let mut found = self.entries.iter().filter(|e| e.key == key);
        match (found.next(), found.next()) {
            (_, Some(again)) => Err(format_err(
                again.line,
                format!("section [{}] repeats key `{key}`", self.name),
            )),
            (first, None) => Ok(first),
        }
    }

    fn required(&self, key: &str) -> Result<&'a Entry<'a>, Error> {
        self.entry(key)?.ok_or_else(|| {
            format_err(
                self.line,
                format!("section [{}] is missing key `{key}`", self.name),
            )
        })
    }

    /// Fails on the first key that is not in `known`.
    pub fn only(&self, known: &[&str]) -> Result<(), Error> {
        match self.entries.iter().find(|e| !known.contains(&e.key)) {
            Some(e) => Err(format_err(
                e.line,
                format!("section [{}] has unknown key `{}`", self.name, e.key),
            )),
            None => Ok(()),
        }
    }

    /// The value of `key`, if present.
    pub fn optional(&self, key: &str) -> Result<Option<&'a str>, Error> {
        Ok(self.entry(key)?.map(|e| e.value))
    }

    /// The value of `key`.
    pub fn get(&self, key: &str) -> Result<&'a str, Error> {
        Ok(self.required(key)?.value)
    }

    /// The value of `key` parsed with [`FromStr`].
    pub fn parse<T: FromStr>(&self, key: &str) -> Result<T, Error> {
        let e = self.required(key)?;
        e.value.parse().map_err(|_| {
            format_err(
                e.line,
                format!("key `{key}` has unparsable value `{}`", e.value),
            )
        })
    }

    /// The value of `key` as one `f64` bits word.
    pub fn f64(&self, key: &str) -> Result<f64, Error> {
        let e = self.required(key)?;
        parse_f64(e.value).ok_or_else(|| {
            format_err(
                e.line,
                format!("key `{key}` is not a 16-hex-digit f64: `{}`", e.value),
            )
        })
    }

    /// The value of `key` as `0` (false) or `1` (true).
    pub fn bool(&self, key: &str) -> Result<bool, Error> {
        let e = self.required(key)?;
        match e.value {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format_err(
                e.line,
                format!("key `{key}` must be 0 or 1, got `{other}`"),
            )),
        }
    }

    /// The value of `key` as single-space-separated `f64` bits words.
    pub fn f64_list(&self, key: &str) -> Result<Vec<f64>, Error> {
        let e = self.required(key)?;
        let mut values = Vec::with_capacity((e.value.len() + 1) / 17);
        let words = e.value.split(' ').filter(|_| !e.value.is_empty());
        for word in words {
            values.push(parse_f64(word).ok_or_else(|| {
                format_err(e.line, format!("key `{key}` has a bad f64 `{word}`"))
            })?);
        }
        Ok(values)
    }
}

/// Path of the rotated previous generation of `path`.
#[must_use]
pub fn prev_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".prev");
    PathBuf::from(name)
}

/// Writes `contents` to `path` atomically: into `<path>.tmp`, then the
/// live file is renamed to [`prev_path`] and the temp file onto `path`.
/// A killed process leaves the old file, possibly with a stray `.tmp`, or
/// the new one — never a half-written `path`. There is no fsync: this is
/// process-kill safety, not power-cut safety.
///
/// The stale `.prev` is unlinked *before* the rotation rename: renaming
/// over an existing target trips ext4's `auto_da_alloc` writeback stall
/// (~100 µs per save), an order of magnitude more than unlink + rename
/// onto a free name. A crash in the gap still leaves the live file.
///
/// # Errors
///
/// [`Error::Io`] naming the file an operation failed on.
pub fn write_atomic(path: &Path, contents: &str) -> Result<(), Error> {
    write_atomic_with(path, |file| file.write_all(contents.as_bytes()))
}

/// [`write_atomic`] for contents that `write` streams into the temp file,
/// so a large file never has to be held whole in memory.
///
/// # Errors
///
/// [`Error::Io`] naming the file an operation, `write` included, failed
/// on.
pub fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&mut fs::File) -> std::io::Result<()>,
) -> Result<(), Error> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::File::create(&tmp)
        .and_then(|mut file| write(&mut file))
        .map_err(|e| io_err(&tmp, &e))?;
    if path.exists() {
        let prev = prev_path(path);
        if prev.exists() {
            fs::remove_file(&prev).map_err(|e| io_err(&prev, &e))?;
        }
        fs::rename(path, &prev).map_err(|e| io_err(path, &e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, &e))
}

/// Reads `path` as text.
///
/// # Errors
///
/// [`Error::Io`] when the file is unreadable or not UTF-8.
pub fn read(path: &Path) -> Result<String, Error> {
    fs::read_to_string(path).map_err(|e| io_err(path, &e))
}

/// Loads `path` with `load`, falling back to [`prev_path`]; returns the
/// value and whether the `.prev` generation served it.
///
/// # Errors
///
/// The *live* file's error when both fail, so the caller sees why the
/// live generation was rejected.
pub fn load_with_fallback<T, E>(
    path: &Path,
    mut load: impl FnMut(&Path) -> Result<T, E>,
) -> Result<(T, bool), E> {
    match load(path) {
        Ok(value) => Ok((value, false)),
        Err(live) => load(&prev_path(path))
            .map(|value| (value, true))
            .map_err(|_| live),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv1a_extend_is_split_invariant() {
        let bytes = b"rebudget-ledger v1\n[quantum 0]\nchain=0123456789abcdef\n";
        let whole = fnv1a(bytes);
        assert_eq!(fnv1a_extend(FNV_OFFSET, bytes), whole);
        for cut in 0..=bytes.len() {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(fnv1a_extend(fnv1a(a), b), whole, "split at {cut}");
            for cut2 in cut..=bytes.len() {
                let (b, c) = bytes[cut..].split_at(cut2 - cut);
                let state = fnv1a_extend(fnv1a_extend(fnv1a(a), b), c);
                assert_eq!(state, whole, "splits at {cut} and {cut2}");
            }
        }
    }

    #[test]
    fn hex_helpers_are_bit_exact() {
        let mut w = Writer::default();
        w.f64("one", 1.0);
        w.f64("negzero", -0.0);
        w.f64_list("none", &[]);
        w.f64_list("two", &[1.0, 2.0]);
        w.hex("digest", 0xab);
        assert_eq!(
            w.text(),
            "one=3ff0000000000000\nnegzero=8000000000000000\nnone=\n\
             two=3ff0000000000000 4000000000000000\ndigest=00000000000000ab\n"
        );
        for v in [
            1.0,
            -0.0,
            f64::NAN,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 8.0,
        ] {
            let word = format!("{:016x}", v.to_bits());
            assert_eq!(parse_f64(&word).unwrap().to_bits(), v.to_bits());
        }
        for bad in [
            "3ff",
            "3FF0000000000000",
            "+ff0000000000000",
            "3ff00000000000000",
        ] {
            assert_eq!(parse_f64(bad), None, "{bad}");
        }
    }

    #[test]
    fn hex_digits_match_fmt() {
        let mut v = 0x0123_4567_89ab_cdefu64;
        for edge in [0, 9, 10, 15, 16, 0xa0, 0x9f, u64::MAX, 1 << 63] {
            assert_eq!(hex_digits(edge), format!("{edge:016x}").as_bytes());
        }
        for _ in 0..10_000 {
            // xorshift64: every nibble value lands in every position.
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            assert_eq!(hex_digits(v), format!("{v:016x}").as_bytes());
        }
    }

    #[test]
    fn fmt_free_paths_write_the_fmt_bytes() {
        let values = [1.0, -0.0, f64::NAN, 1e-310, f64::INFINITY];
        let (mut fast, mut slow) = (Writer::default(), Writer::default());
        for v in [0, 7, 10, 4_096, u64::MAX] {
            fast.indexed_section("player", v);
            slow.section(format_args!("player {v}"));
        }
        fast.str("id", "p42");
        slow.kv("id", "p42");
        fast.indexed_f64_list("interests", [(3, 0.5), (63, 2.0)]);
        slow.key("interests");
        slow.word("3:");
        slow.f64_words(&[0.5]);
        slow.word(" 63:");
        slow.f64_words(&[2.0]);
        slow.end();
        fast.indexed_f64_list("none", []);
        slow.kv("none", "");
        assert_eq!(fast.text(), slow.text());
        let mut words = Writer::default();
        words.f64_words(&values);
        assert_eq!(fnv1a_f64_words(values), words.hash());
        assert_eq!(fnv1a_f64_words([]), FNV_OFFSET);
        let ids = ["p1", "p10", "", "p2"];
        assert_eq!(fnv1a_joined(ids, ";"), fnv1a(ids.join(";").as_bytes()));
        assert_eq!(fnv1a_joined([], ";"), fnv1a(b""));
    }

    #[test]
    fn writer_hash_spans_drained_bytes() {
        let mut drained = Vec::new();
        let mut w = Writer::default();
        w.line("header v1");
        w.section(format_args!("quantum {}", 3));
        w.kv("players", 17);
        w.drain_to(&mut drained).unwrap();
        assert!(w.text().is_empty());
        w.bool("converged", true);
        let text = format!("{}{}", String::from_utf8(drained).unwrap(), w.text());
        assert_eq!(text, "header v1\n[quantum 3]\nplayers=17\nconverged=1\n");
        assert_eq!(w.hash(), fnv1a(text.as_bytes()));
        let mut resumed = Writer::resume(fnv1a(b"abc"));
        resumed.word("def");
        assert_eq!(resumed.hash(), fnv1a(b"abcdef"));
    }

    #[test]
    fn scanners_agree_on_numbers_offsets_and_hashes() {
        let text = "head\n[a]\nk=v\ntorn";
        let from_str: Vec<Line<'_>> = lines(text).collect();
        let mut from_reader = Vec::new();
        read_lines(text.as_bytes(), |l| {
            from_reader.push((l.number, l.offset, l.end, l.hash_before, l.complete));
            true
        })
        .unwrap();
        let summary: Vec<_> = from_str
            .iter()
            .map(|l| (l.number, l.offset, l.end, l.hash_before, l.complete))
            .collect();
        assert_eq!(summary, from_reader);
        assert_eq!(from_str[2].bytes, b"k=v");
        assert_eq!(from_str[2].hash_before, fnv1a(b"head\n[a]\n"));
        assert_eq!(from_str[2].hash_after, fnv1a(b"head\n[a]\nk=v\n"));
        assert!(!from_str[3].complete);
        assert_eq!(from_str[3].end, text.len());
    }

    fn sealed(trailer: Trailer, body: &str) -> String {
        let mut w = Writer::default();
        w.line("doc v1");
        w.word(body);
        w.seal(trailer);
        w.finish()
    }

    #[test]
    fn sections_read_back_what_the_writer_wrote() {
        for trailer in [Trailer::Before("checksum"), Trailer::Through("seal")] {
            let mut w = Writer::default();
            w.section("meta");
            w.kv("name", "x");
            w.f64("budget", 0.1 + 0.2);
            w.bool("on", true);
            w.f64_list("steps", &[0.0, 5.0]);
            w.section("point 0");
            w.kv("n", 3);
            let text = sealed(trailer, w.text());
            let doc = Document::open(&text, trailer).unwrap();
            assert_eq!(doc.header(), "doc v1");
            let meta = doc.section("meta").unwrap();
            assert_eq!(meta.get("name").unwrap(), "x");
            assert_eq!(
                meta.f64("budget").unwrap().to_bits(),
                (0.1f64 + 0.2).to_bits()
            );
            assert!(meta.bool("on").unwrap());
            assert_eq!(meta.f64_list("steps").unwrap(), vec![0.0, 5.0]);
            assert_eq!(meta.optional("absent").unwrap(), None);
            assert_eq!(
                doc.section("point 0").unwrap().parse::<u32>("n").unwrap(),
                3
            );
            assert_eq!(doc.sections().count(), 2);
        }
    }

    #[test]
    fn getters_reject_missing_repeated_and_malformed_keys() {
        let body = "[s]\nk=1\nk=2\nb=7\nf=3ff\nl=3ff0000000000000  4000000000000000\n[s]\n";
        let text = sealed(Trailer::Through("seal"), body);
        let doc = Document::open(&text, Trailer::Through("seal")).unwrap();
        assert!(matches!(
            doc.section("s"),
            Err(Error::Format { line: 8, .. })
        ));
        let s = doc.sections().next().unwrap();
        assert!(matches!(s.get("k"), Err(Error::Format { line: 4, .. })));
        assert!(matches!(
            s.get("missing"),
            Err(Error::Format { line: 2, .. })
        ));
        assert!(matches!(s.bool("b"), Err(Error::Format { line: 5, .. })));
        assert!(matches!(s.f64("f"), Err(Error::Format { line: 6, .. })));
        assert!(matches!(
            s.f64_list("l"),
            Err(Error::Format { line: 7, .. })
        ));
    }

    #[test]
    fn trailer_faults_win_over_body_faults() {
        let trailer = Trailer::Before("checksum");
        let text = sealed(trailer, "[s]\nk=v\n");
        assert!(Document::open(&text, trailer).is_ok());
        // The other trailer rule hashes different bytes.
        assert!(matches!(
            Document::open(&text, Trailer::Through("checksum")),
            Err(Error::Checksum { .. })
        ));
        // A broken body line under a stale digest reports the digest.
        let broken = text.replacen("k=v", "k~v", 1);
        assert!(matches!(
            Document::open(&broken, trailer),
            Err(Error::Checksum { .. })
        ));
        // Under a valid digest it reports the line.
        let resealed = sealed(trailer, "[s]\nk~v\n");
        assert!(matches!(
            Document::open(&resealed, trailer),
            Err(Error::Format { line: 3, .. })
        ));
        let cut = text.rfind("fnv1a=").unwrap();
        assert!(matches!(
            Document::open(&text[..cut], trailer),
            Err(Error::Format { line: 0, reason }) if reason.contains("fnv1a")
        ));
        assert!(matches!(
            Document::open(&format!("{text}more\n"), trailer),
            Err(Error::Format { .. })
        ));
        assert!(matches!(
            Document::open("", trailer),
            Err(Error::Format { line: 1, .. })
        ));
    }

    #[test]
    fn fallback_serves_the_prev_generation() {
        let dir = std::env::temp_dir().join(format!("rebudget-durable-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file");
        write_atomic(&path, "one").unwrap();
        assert!(!prev_path(&path).exists());
        write_atomic_with(&path, |file| {
            file.write_all(b"t")?;
            file.write_all(b"wo")
        })
        .unwrap();
        assert_eq!(read(&prev_path(&path)).unwrap(), "one");
        assert_eq!(read(&path).unwrap(), "two");
        // A loader that rejects the live generation's contents.
        let reject_two = |p: &Path| match read(p)? {
            t if t == "two" => Err(format_err(0, "rejected".into())),
            t => Ok(t),
        };
        assert_eq!(
            load_with_fallback(&path, reject_two).unwrap(),
            ("one".to_string(), true)
        );
        assert_eq!(
            load_with_fallback(&path, read).unwrap(),
            ("two".to_string(), false)
        );
        // Both generations fail: the live file's error surfaces.
        fs::remove_file(prev_path(&path)).unwrap();
        assert!(matches!(
            load_with_fallback(&path, reject_two),
            Err(Error::Format { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
