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
//! [`Writer`] writes that grammar and carries the running hash. Every
//! reader runs on one line source, `each_line`: one reused 64 KiB buffer,
//! a newline search eight bytes at a time, and FNV-1a folded line by
//! line, so no file is ever held whole. It has two visitors.
//! [`read_sealed`] checks a sealed file (one closed by [`Writer::seal`])
//! against its trailer and hands each line, read as an [`Item`], to its
//! caller. The log scan behind [`LogFormat`] applies the chain rules, and
//! [`LogFormat::read_records`] hands on each `[name]` [`Section`] of the
//! chain-valid prefix as it validates. A [`Field`]'s readers — its list
//! readers ([`Field::f64_list_into`], [`Field::indexed_f64_list_into`])
//! append straight into caller-owned columns — take only the form the
//! writer emits, so whatever decodes re-encodes to the same bytes.
//!
//! Every file that grows is an append-only, hash-chained log
//! ([`LogFormat`]): a header, a meta section, then one record per step,
//! each closed by `chain=`, the hash of every byte before it. A record
//! costs O(record) to append ([`Ledger`], [`LogFile`]), and one pass finds
//! the longest chain-valid prefix ([`LogFormat::valid_prefix`]), which is
//! where a killed writer resumes. The server's snapshot, the one file
//! rewritten whole, is a sealed file that its owner writes into one of
//! two slots in turn and reads back with [`read_sealed`]
//! (`rebudget_server::state`).

use std::fmt::{self, Display};
use std::fs;
use std::io::{Read, Write};
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
    /// A ledger that must be new already exists: ledgers are immutable,
    /// so an existing file is never overwritten.
    Exists {
        /// The path that already holds a file.
        path: String,
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
            Error::Exists { path } => write!(
                f,
                "ledger '{path}' already exists (ledgers are immutable; \
                 pick a new path or move the old ledger aside)"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// The fault of a file with no complete first line.
const HEADERLESS: &str = "empty or headerless file";

fn format_err(line: usize, reason: String) -> Error {
    Error::Format { line, reason }
}

fn io_err(path: &Path, e: &std::io::Error) -> Error {
    Error::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// A word of exactly 16 lowercase hex digits (a digest or an `f64`'s
/// bits), or `None`.
#[must_use]
pub fn parse_hex(word: impl AsRef<[u8]>) -> Option<u64> {
    let word: &[u8; 16] = word.as_ref().try_into().ok()?;
    let (high, low) = word.split_at(8);
    Some(hex_eight(high)? << 32 | hex_eight(low)?)
}

/// The value of eight lowercase hex digits, or `None`, the reverse of
/// [`hex_digits`]: the digits are checked and packed as one word, with
/// no branch per digit and no table.
fn hex_eight(digits: &[u8]) -> Option<u64> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = ONES << 7;
    let x = u64::from_be_bytes(digits.try_into().ok()?);
    // 0x80 in each byte that is at least `k`. Every byte is below 0x80
    // (else `x` is refused), so no sum carries into the next byte.
    let at_least = |k: u8| x.wrapping_add(ONES * u64::from(0x80 - k)) & HIGH;
    let letters = at_least(b'a') & !at_least(b'f' + 1);
    let decimals = at_least(b'0') & !at_least(b'9' + 1);
    if x & HIGH != 0 || letters | decimals != HIGH {
        return None;
    }
    // Each digit's value is its low nibble, plus 9 for a letter; then
    // the nibbles are packed pairwise, most significant first.
    let v = (x & (ONES * 0xf)) + (letters >> 7) * 9;
    let v = (v | v >> 4) & 0x00ff_00ff_00ff_00ff;
    let v = (v | v >> 8) & 0x0000_ffff_0000_ffff;
    Some((v | v >> 16) & 0xffff_ffff)
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

/// Formats durable text into one byte buffer, allocating nothing per
/// value, and folds the bytes into the running hash a value (or list
/// item) at a time: the hash chain is latency-bound, so each short fold
/// runs alongside the formatting of the next value instead of in a
/// second pass over the text.
#[derive(Debug, Clone)]
pub struct Writer {
    /// Only ever extended with `&str` bytes or ASCII, so always UTF-8.
    buf: Vec<u8>,
    /// Bytes of `buf` folded into `state`.
    folded: usize,
    /// FNV-1a state over every byte drained or folded.
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
            buf: Vec::new(),
            folded: 0,
            state,
        }
    }

    /// Appends `text`.
    fn push(&mut self, text: &str) {
        self.buf.extend_from_slice(text.as_bytes());
    }

    /// Appends ASCII `bytes`.
    fn push_ascii(&mut self, bytes: &[u8]) {
        debug_assert!(bytes.is_ascii());
        self.buf.extend_from_slice(bytes);
    }

    /// Folds the bytes written since the last fold into the hash.
    fn fold(&mut self) {
        self.state = fnv1a_extend(self.state, &self.buf[self.folded..]);
        self.folded = self.buf.len();
    }

    /// Appends `value`'s `Display` form.
    pub fn word(&mut self, value: impl Display) {
        let _ = write!(self.buf, "{value}");
        self.fold();
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
            self.fold();
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
        self.fold();
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
            !self.buf[start..].contains(&b'\n'),
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
        self.fold();
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
            self.fold();
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

    /// Closes the file with a `[seal]` line and `fnv1a=`, the hash of
    /// every byte before that line.
    pub fn seal(&mut self) {
        self.section("seal");
        let digest = self.hash();
        self.hex("fnv1a", digest);
    }

    /// FNV-1a of every byte written so far, drained or not.
    #[must_use]
    pub fn hash(&self) -> u64 {
        fnv1a_extend(self.state, &self.buf[self.folded..])
    }

    /// How many bytes are held, not yet drained.
    #[must_use]
    pub fn held(&self) -> usize {
        self.buf.len()
    }

    /// The bytes not yet drained.
    #[must_use]
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.buf).expect("a Writer holds only UTF-8")
    }

    /// Hands the held bytes to `out` with one `write_all` and drops them;
    /// the hash runs on. On error the bytes stay held.
    ///
    /// # Errors
    ///
    /// Whatever `out.write_all` returns.
    pub fn drain_to(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(&self.buf)?;
        self.fold();
        self.buf.clear();
        self.folded = 0;
        Ok(())
    }
}

/// One line of durable text as [`each_line`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line<'a> {
    /// 1-based line number.
    number: usize,
    /// Byte offset just past the line, its newline included.
    end: usize,
    /// FNV-1a of every byte before the line.
    hash_before: u64,
    /// FNV-1a of every byte before [`Line::end`].
    hash_after: u64,
    /// The line's bytes without its newline; they need not be UTF-8.
    bytes: &'a [u8],
    /// Whether the line ends in a newline: only a torn last line does not.
    complete: bool,
}

/// Bytes [`each_line`] asks its reader for at a time.
const READ_CHUNK: usize = 64 * 1024;

/// The codec's one line source: hands the lines of `reader` to `visit`,
/// in order, until the input ends or `visit` returns `false`. It reads
/// through one reused buffer of 64 KiB, grown only for a line longer than
/// it, finds each newline eight bytes at a time and folds each line into
/// the running hash, so a line costs one pass over its bytes and no
/// allocation. A last line with no newline is handed over as torn.
///
/// # Errors
///
/// Whatever reading `reader` returns.
fn each_line(
    mut reader: impl Read,
    mut visit: impl FnMut(Line<'_>) -> bool,
) -> std::io::Result<()> {
    let (mut number, mut end, mut hash) = (0, 0, FNV_OFFSET);
    // Takes one line, its newline included when it has one.
    let mut take = |raw: &[u8]| {
        let complete = raw.last() == Some(&b'\n');
        let hash_before = hash;
        (number, end, hash) = (number + 1, end + raw.len(), fnv1a_extend(hash, raw));
        visit(Line {
            number,
            end,
            hash_before,
            hash_after: hash,
            bytes: &raw[..raw.len() - usize::from(complete)],
            complete,
        })
    };
    let mut buf = vec![0; READ_CHUNK];
    // `buf[start..filled]` is the line being read, with no newline in
    // `buf[start..scanned]`.
    let (mut start, mut scanned, mut filled) = (0, 0, 0);
    loop {
        while let Some(at) = find_newline(&buf[scanned..filled]) {
            let end = scanned + at + 1;
            if !take(&buf[start..end]) {
                return Ok(());
            }
            (start, scanned) = (end, end);
        }
        // What is left is the start of a line: keep it at the front.
        if start > 0 {
            buf.copy_within(start..filled, 0);
            (filled, start) = (filled - start, 0);
        }
        scanned = filled;
        if filled == buf.len() {
            buf.resize(2 * filled, 0);
        }
        match reader.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if filled > 0 {
        take(&buf[..filled]);
    }
    Ok(())
}

/// The offset of the first newline in `bytes`, found eight bytes at a
/// time.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const LOW: u64 = ONES * 0x7f;
    let mut words = bytes.chunks_exact(8);
    for (k, word) in words.by_ref().enumerate() {
        // 0x80 in each byte that is a newline: a byte of `x` is zero
        // exactly when neither its high bit nor its low seven are set.
        let x = u64::from_le_bytes(word.try_into().expect("a word of eight bytes"))
            ^ (ONES * u64::from(b'\n'));
        let newlines = !(((x & LOW) + LOW) | x | LOW);
        if newlines != 0 {
            return Some(k * 8 + newlines.trailing_zeros() as usize / 8);
        }
    }
    let at = bytes.len() - words.remainder().len();
    let tail = words.remainder().iter().position(|&b| b == b'\n');
    tail.map(|i| at + i)
}

/// One line of durable text as the grammar reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item<'a> {
    /// Line 1: the schema's name and version.
    Header(&'a [u8]),
    /// A `[name]` line.
    Section {
        /// 1-based line number.
        line: usize,
        /// The bytes between the brackets.
        name: &'a [u8],
    },
    /// A `key=value` line under a section.
    Field(Field<'a>),
}

impl<'a> Item<'a> {
    /// Reads line `number`, `bytes` without its newline; `sectioned`
    /// says whether a `[name]` line came before it.
    fn read(number: usize, bytes: &'a [u8], sectioned: bool) -> Result<Self, Error> {
        if number == 1 {
            return Ok(Item::Header(bytes));
        }
        if let Some(name) = bytes.strip_prefix(b"[").and_then(|l| l.strip_suffix(b"]")) {
            return Ok(Item::Section { line: number, name });
        }
        // Keys are short: a plain scan finds the `=` sooner than a
        // `memchr` call is set up.
        match bytes.iter().position(|&b| b == b'=') {
            None => Err(format_err(
                number,
                format!("unrecognized line `{}`", String::from_utf8_lossy(bytes)),
            )),
            Some(_) if !sectioned => {
                Err(format_err(number, "key=value before any [section]".into()))
            }
            Some(eq) => Ok(Item::Field(Field {
                line: number,
                key: &bytes[..eq],
                value: &bytes[eq + 1..],
            })),
        }
    }
}

/// One `key=value` line: the bytes before its first `=` and after it.
/// A value's readers take only the form [`Writer`] emits, so whatever
/// decodes re-encodes to the same bytes, and fail with an
/// [`Error::Format`] on the field's line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Field<'a> {
    /// 1-based line number.
    pub line: usize,
    /// The bytes before the first `=`.
    pub key: &'a [u8],
    /// The bytes after it.
    pub value: &'a [u8],
}

impl<'a> Field<'a> {
    /// An [`Error::Format`] on this field's line, naming its key before
    /// `what`.
    #[must_use]
    pub fn fault(&self, what: impl Display) -> Error {
        let key = String::from_utf8_lossy(self.key);
        format_err(self.line, format!("key `{key}` {what}"))
    }

    /// The value as text.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] when it is not UTF-8.
    pub fn text(&self) -> Result<&'a str, Error> {
        std::str::from_utf8(self.value).map_err(|_| self.fault("is not UTF-8"))
    }

    /// The value parsed with [`FromStr`].
    ///
    /// # Errors
    ///
    /// [`Error::Format`] when it does not parse.
    pub fn parse<T: FromStr>(&self) -> Result<T, Error> {
        let value = || String::from_utf8_lossy(self.value);
        let parsed = self.text().ok().and_then(|text| text.parse().ok());
        parsed.ok_or_else(|| self.fault(format_args!("has unparsable value `{}`", value())))
    }

    /// The value as one `f64` bits word.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] for anything but 16 lowercase hex digits.
    pub fn f64(&self) -> Result<f64, Error> {
        parse_hex(self.value).map(f64::from_bits).ok_or_else(|| {
            let value = String::from_utf8_lossy(self.value);
            self.fault(format_args!("is not a 16-hex-digit f64: `{value}`"))
        })
    }

    /// The value as `0` (false) or `1` (true).
    ///
    /// # Errors
    ///
    /// [`Error::Format`] for any other value.
    pub fn bool(&self) -> Result<bool, Error> {
        match self.value {
            b"0" => Ok(false),
            b"1" => Ok(true),
            other => {
                let other = String::from_utf8_lossy(other);
                Err(self.fault(format_args!("must be 0 or 1, got `{other}`")))
            }
        }
    }

    /// Appends the value, read in the one form [`Writer::f64_list`]
    /// writes, to `values`; returns how many it appended.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] at the first malformed item; `values` is then as
    /// it was.
    pub fn f64_list_into(&self, values: &mut Vec<f64>) -> Result<usize, Error> {
        let start = values.len();
        self.read_list(|word| {
            values.push(f64::from_bits(parse_hex(word.get(..16)?)?));
            Some(16)
        })
        .inspect_err(|_| values.truncate(start))?;
        Ok(values.len() - start)
    }

    /// Appends the value, read in the one form
    /// [`Writer::indexed_f64_list`] writes, to `indices` and `values`;
    /// returns how many pairs it appended. An index is decimal with no
    /// sign and no leading zero, and must fit a `u32`.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] at the first malformed item; both columns are
    /// then as they were.
    pub fn indexed_f64_list_into(
        &self,
        indices: &mut Vec<u32>,
        values: &mut Vec<f64>,
    ) -> Result<usize, Error> {
        let start = (indices.len(), values.len());
        self.read_list(|item| {
            let colon = item.iter().take(11).position(|&b| b == b':')?;
            let index = parse_index(&item[..colon])?;
            let bits = parse_hex(item.get(colon + 1..colon + 17)?)?;
            indices.push(index);
            values.push(f64::from_bits(bits));
            Some(colon + 17)
        })
        .inspect_err(|_| {
            indices.truncate(start.0);
            values.truncate(start.1);
        })?;
        Ok(values.len() - start.1)
    }

    /// Hands the value to `item` an item at a time: items are joined by
    /// single spaces, and the empty value is the empty list. `item` takes
    /// the item at the front of the bytes it is given and returns its
    /// length, or `None` when it is malformed.
    fn read_list(&self, mut item: impl FnMut(&[u8]) -> Option<usize>) -> Result<(), Error> {
        let list = self.value;
        let fault = |at: usize| self.fault(format_args!("has a malformed list item at byte {at}"));
        if list.is_empty() {
            return Ok(());
        }
        let mut at = 0;
        loop {
            at += item(&list[at..]).ok_or_else(|| fault(at))?;
            match list.get(at) {
                None => return Ok(()),
                Some(b' ') => at += 1,
                Some(_) => return Err(fault(at)),
            }
        }
    }
}

/// A list index as [`Writer::indexed_f64_list`] writes it: decimal
/// digits with no sign and no leading zero, or `None`; also `None`
/// past `u32::MAX`.
fn parse_index(digits: &[u8]) -> Option<u32> {
    if digits.is_empty() || (digits[0] == b'0' && digits.len() > 1) {
        return None;
    }
    let mut value = 0u64;
    for &d in digits {
        if !d.is_ascii_digit() {
            return None;
        }
        value = value * 10 + u64::from(d - b'0');
    }
    u32::try_from(value).ok()
}

/// Reads a sealed file ([`Writer::seal`]) from `reader` in one pass of
/// the codec's line source. Each line, unless it belongs to the trailer, is read as
/// an [`Item`] and handed to `visit`. The trailer is the last `[seal]`
/// line, then `fnv1a=` and the hash of every byte before that line, then
/// the end.
///
/// # Errors
///
/// [`Error::Io`] (with an empty path: the caller knows the file) when a
/// read fails. Then the file as a whole: [`Error::Format`] at line 1 with
/// no complete line, at line 0 for a missing or malformed trailer, then
/// [`Error::Checksum`] for a wrong digest. Only a sealed file reports its
/// first malformed line or `visit`'s first error — the first fault ends
/// the visits but not the hash — so a damaged file reports the damage.
pub fn read_sealed(
    reader: impl Read,
    visit: impl FnMut(Item<'_>) -> Result<(), Error>,
) -> Result<(), Error> {
    let mut scan = SealScan {
        visit,
        lines: 0,
        sectioned: false,
        seal: None,
        digest: None,
        held: Vec::new(),
        fault: None,
    };
    each_line(reader, |line| {
        scan.take(line);
        true
    })
    .map_err(|e| io_err(Path::new(""), &e))?;
    scan.finish()
}

/// [`read_sealed`]'s visitor of [`each_line`]: it holds back what may be
/// the trailer, and keeps the first fault until the seal's verdict.
struct SealScan<V> {
    visit: V,
    /// Complete lines taken.
    lines: usize,
    /// Whether a `[name]` line has been visited.
    sectioned: bool,
    /// The number of a held `[seal]` line: the trailer's, if the file
    /// ends one digest line after it.
    seal: Option<usize>,
    /// The hash before the held `fnv1a=` line after it, in `held`.
    digest: Option<u64>,
    held: Vec<u8>,
    fault: Option<Error>,
}

impl<V: FnMut(Item<'_>) -> Result<(), Error>> SealScan<V> {
    /// Takes the next line.
    fn take(&mut self, line: Line<'_>) {
        if !line.complete {
            // A torn last line: the file ends in no digest.
            self.digest = None;
            return;
        }
        self.lines = line.number;
        if let Some(seal) = self.seal {
            if self.digest.is_none() && line.bytes.starts_with(b"fnv1a=") {
                self.held.clear();
                self.held.extend_from_slice(line.bytes);
                self.digest = Some(line.hash_before);
                return;
            }
            // Lines follow: the held ones were body lines after all.
            self.seal = None;
            self.deliver(seal, b"[seal]");
            if self.digest.take().is_some() {
                let held = std::mem::take(&mut self.held);
                self.deliver(seal + 1, &held);
                self.held = held;
            }
        }
        if line.bytes == b"[seal]" && line.number > 1 {
            self.seal = Some(line.number);
        } else {
            self.deliver(line.number, line.bytes);
        }
    }

    /// Hands line `number` to the visitor, up to the first fault.
    fn deliver(&mut self, number: usize, line: &[u8]) {
        if self.fault.is_some() {
            return;
        }
        let visited = Item::read(number, line, self.sectioned).and_then(|item| {
            self.sectioned |= matches!(item, Item::Section { .. });
            (self.visit)(item)
        });
        self.fault = visited.err();
    }

    /// The verdict once the input has ended.
    fn finish(self) -> Result<(), Error> {
        if self.lines == 0 {
            return Err(format_err(1, HEADERLESS.into()));
        }
        if self.seal.is_none() {
            return Err(format_err(
                0,
                "missing [seal] trailer (file truncated?)".into(),
            ));
        }
        let recorded = self
            .digest
            .and_then(|_| parse_hex(&self.held[b"fnv1a=".len()..]));
        let (Some(computed), Some(recorded)) = (self.digest, recorded) else {
            return Err(format_err(0, "[seal] trailer has no fnv1a digest".into()));
        };
        if recorded != computed {
            return Err(Error::Checksum {
                expected: recorded,
                found: computed,
            });
        }
        self.fault.map_or(Ok(()), Err)
    }
}

/// One `[name]` section of a log's chain-valid prefix, as
/// [`LogFormat::read_records`] hands it over, its lines borrowed. Every
/// getter fails with a line-numbered [`Error::Format`] when its key is
/// repeated or missing.
#[derive(Debug, Clone, Copy)]
pub struct Section<'a> {
    /// The name between the brackets.
    pub name: &'a str,
    /// 1-based line of the `[name]` line.
    pub line: usize,
    /// Its `key=value` lines, in file order.
    pub fields: &'a [Field<'a>],
}

impl<'a> Section<'a> {
    /// The one `key=` line.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] when the key is missing or repeated.
    pub fn field(&self, key: &str) -> Result<Field<'a>, Error> {
        let mut found = self.fields.iter().filter(|f| f.key == key.as_bytes());
        let fault =
            |line, what| format_err(line, format!("section [{}] {what} `{key}`", self.name));
        match (found.next(), found.next()) {
            (_, Some(again)) => Err(fault(again.line, "repeats key")),
            (first, None) => first
                .copied()
                .ok_or_else(|| fault(self.line, "is missing key")),
        }
    }
}

/// The shape of one append-only, hash-chained log. A log is the header
/// line, a `[meta]` section, then one `[<record> N]` section per record,
/// each closed by `chain=`, the FNV-1a of every byte before that line, so
/// an edit or cut fails at the first record it touches; a log that is
/// final ends with a seal, `[seal]`, `records=N` and `fnv1a=`, the hash
/// of every byte before that line. Meta lines carry no checksum of their
/// own; the first record's chain covers them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogFormat {
    /// The first line: the schema's name and version.
    pub header: &'static str,
    /// Each record's section name, before its index.
    pub record: &'static str,
}

/// The allocation ledger's format, shared by the scenario engine's
/// ledger (`rebudget_scenario::ledger`) and the online server's: one
/// `[quantum N]` record per quantum or tick.
pub const LEDGER: LogFormat = LogFormat {
    header: "rebudget-ledger v1",
    record: "quantum",
};

/// An in-progress or sealed log in some [`LogFormat`].
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Log bytes not yet handed to [`Ledger::write_pending`] (the whole
    /// log for a producer that never drains it), and the hash of every
    /// byte so far — the value the next `chain=` or `fnv1a=` line
    /// carries.
    out: Writer,
    record: &'static str,
    records: usize,
    sealed: bool,
}

impl Ledger {
    /// Starts a log with its header, a `[meta]` line and the meta
    /// `key=value` lines that `meta` writes.
    #[must_use]
    pub fn new(format: LogFormat, meta: impl FnOnce(&mut Writer)) -> Self {
        let mut out = Writer::default();
        out.line(format.header);
        out.section("meta");
        meta(&mut out);
        Self {
            out,
            record: format.record,
            records: 0,
            sealed: false,
        }
    }

    /// Appends one `[<record> index]` section whose `key=value` fields
    /// `fields` writes, closing it with the chain hash of all preceding
    /// bytes. Only the new record's bytes are hashed.
    ///
    /// # Panics
    ///
    /// Panics if the log is sealed: records are append-only and the seal
    /// is final.
    pub fn append_section(&mut self, index: usize, fields: impl FnOnce(&mut Writer)) {
        assert!(!self.sealed, "cannot append to a sealed ledger");
        self.out.indexed_section(self.record, index as u64);
        fields(&mut self.out);
        let chain = self.out.hash();
        self.out.hex("chain", chain);
        self.records += 1;
    }

    /// Seals the log with its record count and whole-file checksum.
    /// Idempotent no-op if already sealed.
    pub fn seal(&mut self) {
        if self.sealed {
            return;
        }
        self.out.section("seal");
        self.out.kv("records", self.records);
        let digest = self.out.hash();
        self.out.hex("fnv1a", digest);
        self.sealed = true;
    }

    /// The log bytes this value holds: everything since it was created
    /// or resumed, minus what [`Ledger::write_pending`] has drained.
    #[must_use]
    pub fn text(&self) -> &str {
        self.out.text()
    }

    /// Records appended so far.
    #[must_use]
    pub fn records(&self) -> usize {
        self.records
    }

    /// Hands the held bytes to `out` with one `write_all` and drops them,
    /// so a producer streaming its log to a file keeps only the chain
    /// state in memory. The chain continues unchanged. On error the bytes
    /// stay held.
    ///
    /// # Errors
    ///
    /// Whatever `out.write_all` returns.
    pub fn write_pending(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        self.out.drain_to(out)
    }

    /// Continues a log cut to its first `records` valid records — the
    /// file truncated to [`LedgerPrefix::cut`]`(records)` — from the chain
    /// state its [`LedgerPrefix`] recorded, without the log's text. The
    /// result holds no bytes; new records are written with
    /// [`Ledger::write_pending`].
    ///
    /// # Errors
    ///
    /// [`Error::Format`] when the prefix has no valid header or holds
    /// fewer than `records` records.
    pub fn resume_at(
        format: LogFormat,
        prefix: &LedgerPrefix,
        records: usize,
    ) -> Result<Self, Error> {
        if prefix.header_bytes == 0 {
            return Err(format_err(
                1,
                "cannot resume: missing or malformed ledger header".into(),
            ));
        }
        let Some(&chain) = prefix.chains.get(records) else {
            return Err(format_err(
                1,
                format!(
                    "cannot resume at record {records}: only {} valid record(s)",
                    prefix.records
                ),
            ));
        };
        Ok(Self {
            out: Writer::resume(chain),
            record: format.record,
            records,
            sealed: false,
        })
    }
}

/// Opens `path` with `create_new`, mapping an existing-file collision to
/// the named [`Error::Exists`], so every ledger producer (scenario runs,
/// the online server) reports it the same way.
///
/// # Errors
///
/// [`Error::Exists`] when `path` exists, else [`Error::Io`].
pub fn create_new_ledger_file(path: &Path) -> Result<fs::File, Error> {
    fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::AlreadyExists => Error::Exists {
                path: path.display().to_string(),
            },
            _ => io_err(path, &e),
        })
}

/// A [`Ledger`] streamed to its file: each record is written with one
/// `write_all` as it is appended, so the process holds only the chain
/// state, and a killed process leaves at worst a torn last record, which
/// the next [`LogFormat::valid_prefix`] cuts off.
#[derive(Debug)]
pub struct LogFile {
    log: Ledger,
    file: fs::File,
    path: PathBuf,
}

impl LogFile {
    /// Starts the log at `path` anew, truncating any file there: its
    /// header, `[meta]` and the meta lines `meta` writes.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] naming `path`.
    pub fn create(
        path: &Path,
        format: LogFormat,
        meta: impl FnOnce(&mut Writer),
    ) -> Result<Self, Error> {
        let file = fs::File::create(path).map_err(|e| io_err(path, &e))?;
        Self::start(file, path, Ledger::new(format, meta))
    }

    /// Continues the log at `path` from the first `records` records of
    /// its valid `prefix`: the file is cut to
    /// [`LedgerPrefix::cut`]`(records)`, dropping any torn tail, and the
    /// chain goes on from there.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] as [`Ledger::resume_at`] returns it, before any
    /// byte of the file changes, else [`Error::Io`].
    pub fn resume(
        path: &Path,
        format: LogFormat,
        prefix: &LedgerPrefix,
        records: usize,
    ) -> Result<Self, Error> {
        let log = Ledger::resume_at(format, prefix, records)?;
        let file = fs::OpenOptions::new()
            .append(true)
            .open(path)
            .and_then(|file| file.set_len(prefix.cut(records) as u64).map(|()| file))
            .map_err(|e| io_err(path, &e))?;
        Self::start(file, path, log)
    }

    /// Writes what `log` holds to `file` and keeps both.
    fn start(file: fs::File, path: &Path, log: Ledger) -> Result<Self, Error> {
        let mut started = Self {
            log,
            file,
            path: path.to_path_buf(),
        };
        started.write_pending()?;
        Ok(started)
    }

    fn write_pending(&mut self) -> Result<(), Error> {
        self.log
            .write_pending(&mut self.file)
            .map_err(|e| io_err(&self.path, &e))
    }

    /// Appends and writes one record ([`Ledger::append_section`]).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] naming the file; the record stays held and goes out
    /// with the next write.
    pub fn append(&mut self, index: usize, fields: impl FnOnce(&mut Writer)) -> Result<(), Error> {
        self.log.append_section(index, fields);
        self.write_pending()
    }

    /// Seals the log, writes the seal and syncs the file; returns the
    /// record count.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] naming the file.
    pub fn seal(&mut self) -> Result<usize, Error> {
        self.log.seal();
        self.write_pending()?;
        self.file.sync_all().map_err(|e| io_err(&self.path, &e))?;
        Ok(self.log.records())
    }

    /// Records in the file, those it was resumed at included.
    #[must_use]
    pub fn records(&self) -> usize {
        self.log.records()
    }
}

/// The longest cryptographically-consistent prefix of a log file: the
/// header/meta section plus every leading record whose `chain=` hash
/// matches the bytes before it, stopping at the first torn, tampered, or
/// malformed line.
///
/// This is the crash-recovery primitive: a producer killed mid-append
/// leaves a torn tail, and because each chain hashes *all* preceding
/// bytes, truncating to `bytes` restores a valid log that
/// [`Ledger::resume_at`] can continue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LedgerPrefix {
    /// Bytes in the valid prefix (a safe truncation point).
    pub bytes: usize,
    /// Whole records inside the valid prefix.
    pub records: usize,
    /// Byte length of the header + meta section (the valid prefix with
    /// zero records). Zero when even the header line is bad.
    pub header_bytes: usize,
    /// Byte offset just past each valid record's `chain=` line —
    /// `record_ends[k]` truncates the log to `k + 1` records.
    pub record_ends: Vec<usize>,
    /// FNV-1a chain state at each truncation point: `chains[k]` is the
    /// hash of the log cut to `k` records ([`LedgerPrefix::cut`]).
    /// Empty when the header is bad.
    pub chains: Vec<u64>,
    /// Whether the prefix ends in a complete, checksum-valid seal.
    pub sealed: bool,
}

impl LedgerPrefix {
    /// Byte length of the log cut to its first `records` records
    /// (`records <= self.records`).
    #[must_use]
    pub fn cut(&self, records: usize) -> usize {
        match records {
            0 => self.header_bytes,
            k => self.record_ends[k - 1],
        }
    }
}

/// A log's line rules, the visitor of [`each_line`] behind
/// [`LogFormat::valid_prefix`], [`LogFormat::read_valid_prefix`],
/// [`LogFormat::read_records`] and [`LogFormat::verify`], so bytes in
/// memory and a file reader share it.
#[derive(Default)]
struct PrefixScan {
    prefix: LedgerPrefix,
    /// Are we past the header/meta section (at or after the first record)?
    in_records: bool,
    /// The seal's `records=` count, once one parses.
    seal_records: Option<usize>,
    /// The seal's digest, once it matches.
    digest: u64,
    /// Number of the last line taken.
    last_line: usize,
    /// The first offence against the line rules: its line and reason.
    offence: Option<(usize, String)>,
}

impl PrefixScan {
    /// Takes the next line. Returns `false` once the prefix is final and
    /// further lines cannot change it.
    fn feed(&mut self, format: LogFormat, line: Line<'_>) -> bool {
        let (n, content, hash) = (line.number, line.bytes, line.hash_before);
        let lossy = String::from_utf8_lossy;
        self.last_line = n;
        if n == 1 && content != format.header.as_bytes() {
            let reason = format!(
                "bad header '{}' (expected '{}')",
                lossy(content),
                format.header
            );
            return self.offend(n, reason);
        }
        if !line.complete {
            // Torn final line: everything before it already stands.
            return false;
        }
        if let Some(rest) = content.strip_prefix(b"records=") {
            // Seal in progress; only a valid fnv1a line below completes it.
            self.seal_records = std::str::from_utf8(rest).ok().and_then(|r| r.parse().ok());
            if self.seal_records.is_none() {
                self.offend(n, format!("malformed record count '{}'", lossy(rest)));
            }
        } else if let Some(rest) = content.strip_prefix(b"fnv1a=") {
            return match parse_hex(rest) {
                Some(want) if want == hash => {
                    self.prefix.bytes = line.end;
                    self.prefix.sealed = true;
                    self.digest = want;
                    false
                }
                Some(want) => self.offend(
                    n,
                    format!("seal mismatch: ledger hashes to {hash:016x}, seal says {want:016x}"),
                ),
                None => self.offend(n, format!("malformed seal hash '{}'", lossy(rest))),
            };
        } else if let Some(rest) = content.strip_prefix(b"chain=") {
            let p = &mut self.prefix;
            match parse_hex(rest) {
                Some(want) if want == hash => {
                    p.bytes = line.end;
                    p.records += 1;
                    p.record_ends.push(line.end);
                    p.chains.push(line.hash_after);
                }
                Some(want) => {
                    let reason = format!(
                        "chain mismatch: record {} hashes to {hash:016x}, ledger says \
                         {want:016x} (tampered or truncated upstream)",
                        p.records
                    );
                    return self.offend(n, reason);
                }
                None => return self.offend(n, format!("malformed chain hash '{}'", lossy(rest))),
            }
        } else if opens_record(format, content) {
            self.in_records = true;
        } else if !self.in_records && content != b"[seal]" {
            // Meta lines carry no checksum; they stand with the header.
            let p = &mut self.prefix;
            p.bytes = line.end;
            p.header_bytes = line.end;
            match p.chains.first_mut() {
                Some(at_header) => *at_header = line.hash_after,
                None => p.chains.push(line.hash_after),
            }
        }
        // Record lines stay provisional until their chain validates.
        true
    }

    /// Keeps the first offence; returns `false`, for the scans that stop
    /// there.
    fn offend(&mut self, line: usize, reason: String) -> bool {
        self.offence.get_or_insert((line, reason));
        false
    }
}

/// Whether `content` is a `[<record> ...` line of `format`.
fn opens_record(format: LogFormat, content: &[u8]) -> bool {
    content
        .strip_prefix(b"[")
        .and_then(|rest| rest.strip_prefix(format.record.as_bytes()))
        .is_some_and(|rest| rest.first() == Some(&b' '))
}

impl LogFormat {
    /// Scans `reader` until its prefix is final, handing each line, and
    /// the length of the prefix cut to whole records after it, to `then`,
    /// which may stop the scan.
    fn scan(
        self,
        reader: impl Read,
        mut then: impl FnMut(usize, Line<'_>) -> bool,
    ) -> std::io::Result<PrefixScan> {
        let mut scan = PrefixScan::default();
        each_line(reader, |line| {
            scan.feed(self, line) && then(scan.prefix.cut(scan.prefix.records), line)
        })?;
        Ok(scan)
    }

    /// The [`LedgerPrefix`] of a log held in memory, in one pass. Never
    /// errors: a hopeless input simply yields a zero-byte prefix.
    #[must_use]
    pub fn valid_prefix(self, bytes: &[u8]) -> LedgerPrefix {
        self.read_valid_prefix(bytes).unwrap_or_default()
    }

    /// [`LogFormat::valid_prefix`] of a log streamed from `reader`
    /// through the codec's one line buffer: recovery never loads the
    /// whole log.
    ///
    /// # Errors
    ///
    /// Whatever reading `reader` returns.
    pub fn read_valid_prefix(self, reader: impl Read) -> std::io::Result<LedgerPrefix> {
        Ok(self.scan(reader, |_, _| true)?.prefix)
    }

    /// Decodes the valid prefix of the log in `reader`, cut to its whole
    /// records (a seal left out), as it streams: `[meta]` with
    /// `parse_meta` as the first record opens (or the input ends), then
    /// each record `k` with `record` as its `chain=` validates. The log is
    /// read once, through the codec's one line buffer, holding one
    /// section's lines. Records must be `[<record> 0]`, `[<record> 1]`, …
    /// in order after `[meta]`; one before `[meta]` is never decoded, as
    /// `[meta]` then fails that order.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] (with an empty path) when a read fails. Then the
    /// first of these, each a check of the whole prefix: [`Error::Format`]
    /// naming the header when it is not this format's; at line 0 when the
    /// prefix is not text; at its first malformed line; at a repeated
    /// `[meta]` section, or line 0 for none; `parse_meta`'s error; at the
    /// first record out of order, or `record`'s first error.
    pub fn read_records<M>(
        self,
        reader: impl Read,
        parse_meta: impl FnOnce(&Section<'_>) -> Result<M, Error>,
        record: impl FnMut(&M, usize, &Section<'_>) -> Result<(), Error>,
    ) -> Result<(M, LedgerPrefix), Error> {
        let mut read = RecordScan {
            record_name: self.record,
            pending: Vec::new(),
            lines: 0,
            opened: 0,
            line: 0,
            held: String::new(),
            spans: Vec::new(),
            parse_meta: Some(parse_meta),
            meta: None,
            record,
            faults: Default::default(),
        };
        let scan = self.scan(reader, |cut, line| read.feed(cut, line));
        let scan = scan.map_err(|e| io_err(Path::new(""), &e))?;
        read.close();
        if scan.prefix.header_bytes == 0 {
            let (line, reason) = scan.offence.unwrap_or((1, HEADERLESS.into()));
            return Err(format_err(line, reason));
        }
        match (read.faults.into_iter().flatten().next(), read.meta) {
            (Some(e), _) => Err(e),
            (None, Some(meta)) => Ok((meta, scan.prefix)),
            (None, None) => Err(format_err(0, "missing [meta] section".into())),
        }
    }

    /// Verifies a whole log: its scan found no offence, ends in a seal,
    /// covers every byte of `bytes`, and holds as many records as the
    /// seal claims. Returns the prefix (the whole log) and the seal's
    /// digest.
    ///
    /// Any truncation or in-place edit fails at the first record whose
    /// chain no longer matches the bytes before it; bytes after the seal
    /// fail at the first line after it.
    ///
    /// # Errors
    ///
    /// [`Error::Format`] with the 1-based line of the first offence.
    pub fn verify(self, bytes: &[u8]) -> Result<(LedgerPrefix, u64), Error> {
        // Reading a slice never fails.
        let scan = self.scan(bytes, |_, _| true).unwrap_or_default();
        let (p, last) = (&scan.prefix, scan.last_line.max(1));
        if let Some((line, reason)) = scan.offence {
            return Err(format_err(line, reason));
        }
        if !p.sealed {
            return Err(format_err(last, "ledger is not sealed (truncated?)".into()));
        }
        if p.bytes != bytes.len() {
            return Err(format_err(last + 1, "bytes after the seal".into()));
        }
        match scan.seal_records {
            Some(n) if n == p.records => Ok((scan.prefix, scan.digest)),
            Some(n) => Err(format_err(
                last,
                format!("seal claims {n} records, ledger holds {}", p.records),
            )),
            None => Err(format_err(last, "seal is missing its record count".into())),
        }
    }
}

/// [`LogFormat::read_records`]'s reader of the lines its scan takes:
/// those past the prefix are held (a record until its chain validates),
/// those in it are read as sections, one held at a time.
struct RecordScan<M, P, R> {
    /// The log's record name, a word with no space.
    record_name: &'static str,
    /// Complete lines past the prefix.
    pending: Vec<u8>,
    /// Lines of the prefix read.
    lines: usize,
    /// Sections opened so far; the open one's line, and its name then
    /// its `key=value` lines, with each one's line, start, `=` and end in
    /// that text.
    opened: usize,
    line: usize,
    held: String,
    spans: Vec<(usize, usize, usize, usize)>,
    /// `[meta]`'s decoder until it runs, then the meta it decoded.
    parse_meta: Option<P>,
    meta: Option<M>,
    record: R,
    /// The first fault of each rank: 0 bytes that are not text, 1 a
    /// malformed line, 2 a repeated `[meta]`, 3 the meta's, 4 a record's.
    /// A lower rank wins wherever it comes, as each was once checked over
    /// the whole prefix before the next.
    faults: [Option<Error>; 5],
}

impl<M, P, R> RecordScan<M, P, R>
where
    P: FnOnce(&Section<'_>) -> Result<M, Error>,
    R: FnMut(&M, usize, &Section<'_>) -> Result<(), Error>,
{
    /// Takes the next line, after which the prefix cut to whole records
    /// is `cut` bytes long; returns `false` once nothing further can
    /// change the outcome.
    fn feed(&mut self, cut: usize, line: Line<'_>) -> bool {
        self.pending.extend_from_slice(line.bytes);
        self.pending.push(b'\n');
        // The prefix only ever grows to the end of the line just taken.
        if cut < line.end {
            return true;
        }
        let pending = std::mem::take(&mut self.pending);
        match std::str::from_utf8(&pending) {
            Ok(text) => text.split_inclusive('\n').for_each(|line| self.take(line)),
            Err(e) => {
                // A newline ends any sequence, so the error has a length.
                let (n, at) = (e.error_len().unwrap_or_default(), e.valid_up_to());
                let at = line.end - pending.len() + at;
                let reason =
                    format!("not text: invalid utf-8 sequence of {n} bytes from index {at}");
                self.faults[0].get_or_insert(format_err(0, reason));
                return false;
            }
        }
        self.pending = pending;
        self.pending.clear();
        true
    }

    /// Takes the prefix's next line, `raw` with its newline.
    fn take(&mut self, raw: &str) {
        self.lines += 1;
        let line = &raw[..raw.len() - 1];
        match Item::read(self.lines, line.as_bytes(), self.opened > 0) {
            Err(e) => _ = self.faults[1].get_or_insert(e),
            Ok(Item::Header(_)) => {}
            Ok(Item::Section { name, .. }) => {
                self.close();
                (self.opened, self.line) = (self.opened + 1, self.lines);
                self.held.replace_range(.., &line[1..=name.len()]);
                self.spans.clear();
            }
            Ok(Item::Field(field)) => {
                let (at, eq) = (self.held.len(), self.held.len() + field.key.len());
                self.held.push_str(line);
                self.spans.push((self.lines, at, eq, self.held.len()));
            }
        }
    }

    /// Decodes the open section: `[meta]`, or record `k` once `[meta]`
    /// has decoded and while no fault has come.
    fn close(&mut self) {
        let held = self.held.as_bytes();
        let fields: Vec<Field<'_>> = (self.spans.iter())
            .map(|&(line, at, eq, end)| Field {
                line,
                key: &held[at..eq],
                value: &held[eq + 1..end],
            })
            .collect();
        let section = Section {
            name: &self.held[..self.spans.first().map_or(held.len(), |s| s.1)],
            line: self.line,
            fields: &fields,
        };
        if section.name == "meta" {
            let (rank, decoded) = match self.parse_meta.take() {
                Some(parse) => (3, parse(&section).map(|meta| self.meta = Some(meta))),
                None => (
                    2,
                    Err(format_err(self.line, "repeated [meta] section".into())),
                ),
            };
            if let Err(e) = decoded {
                self.faults[rank].get_or_insert(e);
            }
        }
        let clean = self.faults.iter().all(Option::is_none);
        let (Some(meta), true, Some(k)) = (&self.meta, clean, self.opened.checked_sub(2)) else {
            return;
        };
        let record = self.record_name;
        let at = section.name.split_once(' ').map(|(r, n)| (r, n.parse()));
        let decoded = if at == Some((record, Ok(k))) {
            (self.record)(meta, k, &section)
        } else {
            let reason = format!(
                "{record} sections out of order: expected [{record} {k}], got [{}]",
                section.name
            );
            Err(format_err(section.line, reason))
        };
        if let Err(e) = decoded {
            self.faults[4].get_or_insert(e);
        }
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
            assert_eq!(parse_hex(&word).unwrap(), v.to_bits());
        }
        for bad in [
            "3ff",
            "3FF0000000000000",
            "+ff0000000000000",
            "3ff00000000000000",
        ] {
            assert_eq!(parse_hex(bad), None, "{bad}");
        }
    }

    #[test]
    fn parse_hex_refuses_every_byte_but_a_lowercase_digit() {
        let word = *b"0123456789abcdef";
        assert_eq!(parse_hex(word), Some(0x0123_4567_89ab_cdef));
        for at in 0..16 {
            for b in 0..=255u8 {
                let mut edited = word;
                edited[at] = b;
                let lowercase = b.is_ascii_digit() || (b'a'..=b'f').contains(&b);
                let text = std::str::from_utf8(&edited).ok();
                let want = text
                    .filter(|_| lowercase)
                    .map(|t| u64::from_str_radix(t, 16).unwrap());
                assert_eq!(parse_hex(edited), want, "byte {b:#04x} at {at}");
            }
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
            assert_eq!(parse_hex(hex_digits(v)), Some(v));
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
    fn line_source_yields_numbers_offsets_and_hashes() {
        let text = "head\n[a]\nk=v\ntorn";
        // The same lines whatever size of read hands over the bytes.
        for step in [1, 3, text.len()] {
            let mut seen = Vec::new();
            let reader = Chunked {
                bytes: text.as_bytes(),
                step,
            };
            each_line(reader, |l| {
                let bytes = l.bytes.to_vec();
                seen.push((l.number, l.end, l.hash_before, l.hash_after, bytes));
                assert_eq!(l.complete, l.number < 4);
                true
            })
            .unwrap();
            let at = |prefix: &str| fnv1a(prefix.as_bytes());
            assert_eq!(seen.len(), 4, "reads of {step} bytes");
            let (k_v, before) = ("head\n[a]\nk=v\n", at("head\n[a]\n"));
            let third = (3, 13, before, at(k_v), b"k=v".to_vec());
            assert_eq!(seen[2], third, "reads of {step} bytes");
            let torn = (4, 17, at(k_v), at(text), b"torn".to_vec());
            assert_eq!(seen[3], torn, "reads of {step} bytes");
        }
        // A visitor that returns `false` takes no further line.
        let mut taken = 0;
        each_line(text.as_bytes(), |_| {
            taken += 1;
            taken < 2
        })
        .unwrap();
        assert_eq!(taken, 2);
    }

    fn sealed(body: &str) -> String {
        let mut w = Writer::default();
        w.line("doc v1");
        w.word(body);
        w.seal();
        w.text().to_string()
    }

    #[test]
    fn sections_read_back_what_the_writer_wrote() {
        let meta = |w: &mut Writer| {
            w.kv("name", "x");
            w.f64("budget", 0.1 + 0.2);
            w.bool("on", true);
            w.f64_list("steps", &[0.0, 5.0]);
        };
        let mut log = Ledger::new(STEPS, meta);
        log.append_section(0, |w| w.kv("n", 3));
        let mut seen = Vec::new();
        let meta_of = |s: &Section<'_>| {
            assert_eq!((s.name, s.line), ("meta", 2));
            assert_eq!(s.field("name")?.text()?, "x");
            assert_eq!(
                s.field("budget")?.f64()?.to_bits(),
                (0.1f64 + 0.2).to_bits()
            );
            assert!(s.field("on")?.bool()?);
            assert!(s.field("absent").is_err());
            let mut steps = Vec::new();
            s.field("steps")?.f64_list_into(&mut steps)?;
            Ok(steps)
        };
        let (steps, prefix) = STEPS
            .read_records(log.text().as_bytes(), meta_of, |steps, k, s| {
                seen.push((k, s.name.to_string(), s.line, steps.len()));
                assert_eq!(s.field("n")?.parse::<u32>()?, 3);
                Ok(())
            })
            .unwrap();
        assert_eq!((steps, prefix.records), (vec![0.0, 5.0], 1));
        assert_eq!(seen, [(0, "step 0".to_string(), 7, 2)]);
        // A sealed read visits the same lines, the trailer left out.
        let mut w = Writer::default();
        w.section("meta");
        meta(&mut w);
        w.section("point 0");
        w.kv("n", 3);
        let text = sealed(w.text());
        let mut visited = Vec::new();
        read_sealed(text.as_bytes(), |item| {
            visited.push(format!("{item:?}"));
            Ok(())
        })
        .unwrap();
        assert_eq!(visited, items(&format!("doc v1\n{}", w.text())));
        // So does the sealed golden snapshot (a log's seal also counts
        // its records).
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/durable");
        let mut files = 0;
        for entry in fs::read_dir(&dir).unwrap() {
            let text = fs::read_to_string(entry.unwrap().path()).unwrap();
            let Some(at) = text.rfind("[seal]\nfnv1a=") else {
                continue;
            };
            files += 1;
            let mut visited = Vec::new();
            read_sealed(text.as_bytes(), |item| {
                visited.push(format!("{item:?}"));
                Ok(())
            })
            .unwrap();
            assert_eq!(visited, items(&text[..at]));
        }
        assert!(
            files >= 1,
            "{files} sealed golden files under {}",
            dir.display()
        );
    }

    /// Every line of `text`, whose lines are all complete, as
    /// [`read_sealed`] would visit it.
    fn items(text: &str) -> Vec<String> {
        let mut sectioned = false;
        text.split_terminator('\n')
            .enumerate()
            .map(|(k, line)| {
                let item = Item::read(k + 1, line.as_bytes(), sectioned).unwrap();
                sectioned |= matches!(item, Item::Section { .. });
                format!("{item:?}")
            })
            .collect()
    }

    /// A reader that hands out at most `step` bytes per `read`.
    struct Chunked<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl std::io::Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn sealed_reads_are_independent_of_read_sizes() {
        // Lines longer than the read buffer, at and past its size, and a
        // short one after them.
        let mut w = Writer::default();
        w.section("s");
        for len in [READ_CHUNK - 3, READ_CHUNK, 3 * READ_CHUNK + 5] {
            w.str("long", &"x".repeat(len));
        }
        w.kv("k", 7);
        let text = sealed(w.text());
        let want = items(&format!("doc v1\n{}", w.text()));
        for step in [1, 7, 4096, READ_CHUNK + 1, text.len()] {
            let mut visited = Vec::new();
            let reader = Chunked {
                bytes: text.as_bytes(),
                step,
            };
            read_sealed(reader, |item| {
                visited.push(format!("{item:?}"));
                Ok(())
            })
            .unwrap();
            assert!(visited == want, "reads of {step} bytes");
        }
        // So are a log's valid prefix and a checkpoint's decode, whole and
        // torn, with allocation lines longer than the buffer.
        use crate::checkpoint::{write_quantum, SimCheckpoint, SimCounters, SimMeta, SIM_LOG};
        let cores = 2048;
        let meta = SimMeta {
            mechanism: "ReBudget-40".into(),
            cores,
            resources: 2,
            apps: (0..cores).map(|i| format!("mcf#{i}")).collect(),
            seed: 17,
            budget: 100.0,
            accesses_per_quantum: 8000,
            use_monitors: true,
            execution: "analytic".into(),
            max_consecutive_failures: 3,
            faults: None,
        };
        let mut log = Ledger::new(SIM_LOG, |w| meta.render(w));
        for q in 0..2 {
            let allocation: Vec<f64> = (0..2 * cores).map(|i| (i * (q + 1)) as f64).collect();
            log.append_section(q, |w| {
                write_quantum(w, &allocation, 1.5, &SimCounters::default());
            });
        }
        let whole = log.text().as_bytes();
        assert!(whole.len() > 2 * READ_CHUNK);
        for bytes in [whole, &whole[..whole.len() - 40]] {
            let (prefix, decoded) = (SIM_LOG.valid_prefix(bytes), SimCheckpoint::parse(bytes));
            let records = if bytes == whole { 2 } else { 1 };
            assert_eq!(prefix.records, records);
            assert_eq!(decoded.as_ref().unwrap().quanta.len(), records);
            for step in [1, 7, READ_CHUNK + 1, bytes.len()] {
                let reader = || Chunked { bytes, step };
                assert_eq!(SIM_LOG.read_valid_prefix(reader()).unwrap(), prefix);
                assert_eq!(
                    SimCheckpoint::parse(reader()),
                    decoded,
                    "reads of {step} bytes"
                );
            }
        }
    }

    /// The `key=value` lines of `body`, the first on line `line + 1`.
    fn fields_of(line: usize, body: &str) -> Vec<Field<'_>> {
        let lines = (line + 1..).zip(body.split_terminator('\n'));
        lines
            .map(|(line, text)| {
                let (key, value) = text.split_once('=').unwrap();
                let (key, value) = (key.as_bytes(), value.as_bytes());
                Field { line, key, value }
            })
            .collect()
    }

    #[test]
    fn getters_reject_missing_repeated_and_malformed_keys() {
        let fields = fields_of(
            2,
            "k=1\nk=2\nb=7\nf=3ff\nl=3ff0000000000000  4000000000000000\n",
        );
        let s = Section {
            name: "s",
            line: 2,
            fields: &fields,
        };
        let line_of = |e: Error| match e {
            Error::Format { line, .. } => line,
            other => panic!("{other}"),
        };
        assert_eq!(line_of(s.field("k").unwrap_err()), 4);
        assert_eq!(line_of(s.field("missing").unwrap_err()), 2);
        assert_eq!(line_of(s.field("b").unwrap().bool().unwrap_err()), 5);
        assert_eq!(line_of(s.field("f").unwrap().f64().unwrap_err()), 6);
        let mut values = Vec::new();
        let list = s.field("l").unwrap().f64_list_into(&mut values);
        assert_eq!(line_of(list.unwrap_err()), 7);
        // A key is the whole of what comes before the first `=`.
        let fields = fields_of(2, "kk=1\nk==2\n");
        let s = Section {
            fields: &fields,
            ..s
        };
        assert_eq!(s.field("k").unwrap().line, 4);
        assert_eq!(s.field("k").unwrap().text().unwrap(), "=2");
    }

    #[test]
    fn trailer_faults_win_over_body_faults() {
        let open = |text: &str| read_sealed(text.as_bytes(), |_| Ok(()));
        let text = sealed("[s]\nk=v\n");
        assert!(open(&text).is_ok());
        // A trailer of another name is missing.
        assert!(matches!(
            open(&text.replacen("[seal]", "[checksum]", 1)),
            Err(Error::Format { line: 0, reason }) if reason.contains("missing [seal]")
        ));
        // A broken body line under a stale digest reports the digest.
        let broken = text.replacen("k=v", "k~v", 1);
        assert!(matches!(open(&broken), Err(Error::Checksum { .. })));
        // Under a valid digest it reports the line.
        let resealed = sealed("[s]\nk~v\n");
        assert!(matches!(
            open(&resealed),
            Err(Error::Format { line: 3, .. })
        ));
        // So with the visitor's own faults: the first one, after the seal.
        let refuse = |text: &str| {
            read_sealed(text.as_bytes(), |item| match item {
                Item::Field(field) => Err(field.fault("is refused")),
                _ => Ok(()),
            })
        };
        assert!(matches!(refuse(&broken), Err(Error::Checksum { .. })));
        let twice = sealed("[s]\nk=v\nj=w\n");
        assert!(matches!(
            refuse(&twice),
            Err(Error::Format { line: 3, reason }) if reason.contains("`k`")
        ));
        let cut = text.rfind("fnv1a=").unwrap();
        assert!(matches!(
            open(&text[..cut]),
            Err(Error::Format { line: 0, reason }) if reason.contains("fnv1a")
        ));
        // A torn digest line has no digest either.
        assert!(matches!(
            open(&text[..text.len() - 1]),
            Err(Error::Format { line: 0, reason }) if reason.contains("fnv1a")
        ));
        assert!(matches!(
            open(&format!("{text}more\n")),
            Err(Error::Format { .. })
        ));
        // A `[seal]` and digest inside the body are body lines.
        let inner = sealed(&format!(
            "[s]\n{}k=v\n",
            &text[text.rfind("[seal]").unwrap()..]
        ));
        assert!(open(&inner).is_ok());
        let no_log = STEPS.read_records(&b""[..], |_| Ok(()), |(), _, _| Ok(()));
        let no_log = no_log.map(|_| ());
        for empty in [open(""), open("doc v1"), no_log] {
            assert!(matches!(empty, Err(Error::Format { line: 1, .. })));
        }
    }

    #[test]
    fn list_readers_take_only_the_writers_form() {
        let mut w = Writer::default();
        w.f64_list("none", &[]);
        w.f64_list("two", &[1.0, -0.0]);
        w.indexed_f64_list("pairs", [(0, 0.5), (10, 2.0), (u64::from(u32::MAX), 1.0)]);
        w.indexed_f64_list("empty", []);
        let canonical = w.text().to_string();
        let section = |body: &str, check: &dyn Fn(Section<'_>)| {
            check(Section {
                name: "s",
                line: 2,
                fields: &fields_of(2, body),
            });
        };
        section(&canonical, &|s| {
            let mut values = vec![9.0];
            let list = |key: &str, values: &mut Vec<f64>| s.field(key)?.f64_list_into(values);
            assert_eq!(list("none", &mut values).unwrap(), 0);
            assert_eq!(list("two", &mut values).unwrap(), 2);
            assert_eq!(
                values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                [9.0f64, 1.0, -0.0].map(f64::to_bits)
            );
            let (mut indices, mut values) = (vec![7], vec![9.0]);
            let pairs = |key: &str, indices: &mut Vec<u32>, values: &mut Vec<f64>| {
                s.field(key)?.indexed_f64_list_into(indices, values)
            };
            assert_eq!(pairs("pairs", &mut indices, &mut values).unwrap(), 3);
            assert_eq!(pairs("empty", &mut indices, &mut values).unwrap(), 0);
            assert_eq!(indices, [7, 0, 10, u32::MAX]);
            assert_eq!(values, [9.0, 0.5, 2.0, 1.0]);
        });
        let bad_lists = [
            ("two=3ff0000000000000  8000000000000000", "two"),
            ("two=3ff0000000000000 8000000000000000 ", "two"),
            ("two= 3ff0000000000000", "two"),
            ("two=3ff000000000000 8000000000000000", "two"),
            ("two=3ff00000000000000 8000000000000000", "two"),
            ("two=3FF0000000000000", "two"),
            ("pairs=+0:3fe0000000000000", "pairs"),
            ("pairs=00:3fe0000000000000", "pairs"),
            ("pairs=010:3fe0000000000000", "pairs"),
            ("pairs=4294967296:3fe0000000000000", "pairs"),
            ("pairs=0:3fe0000000000000  10:4000000000000000", "pairs"),
            ("pairs=0;3fe0000000000000", "pairs"),
            ("pairs=:3fe0000000000000", "pairs"),
            ("pairs=0:3fe000000000000", "pairs"),
            ("pairs=0:3fe0000000000000 ", "pairs"),
            ("pairs=0:3fe0000000000000 1", "pairs"),
        ];
        for (line, key) in bad_lists {
            let old = canonical
                .lines()
                .find(|l| l.starts_with(&format!("{key}=")))
                .unwrap();
            section(&canonical.replacen(old, line, 1), &|s| {
                // A refused list leaves the columns as they were.
                let (mut indices, mut values) = (vec![7], vec![9.0]);
                let field = s.field(key).unwrap();
                let err = if key == "two" {
                    field.f64_list_into(&mut values).unwrap_err()
                } else {
                    field
                        .indexed_f64_list_into(&mut indices, &mut values)
                        .unwrap_err()
                };
                assert!(matches!(err, Error::Format { .. }), "{line}: {err}");
                assert_eq!((indices, values), (vec![7], vec![9.0]), "{line}");
            });
        }
    }

    const STEPS: LogFormat = LogFormat {
        header: "steps v1",
        record: "step",
    };

    fn step(w: &mut Writer, k: usize) {
        w.kv("k", k);
        w.f64("x", 1.0 / (k as f64 + 3.0));
    }

    #[test]
    fn log_file_continues_a_cut_file_byte_identically() {
        let dir = std::env::temp_dir().join(format!("rebudget-log-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("steps.log");
        let mut whole = Ledger::new(STEPS, |w| w.kv("name", "demo"));
        for k in 0..4 {
            whole.append_section(k, |w| step(w, k));
        }
        // A log file holds no log bytes once a call returns: each record
        // goes to the file as it is appended, so memory is O(record).
        let mut log = LogFile::create(&path, STEPS, |w| w.kv("name", "demo")).unwrap();
        assert!(log.log.text().is_empty());
        for k in 0..3 {
            log.append(k, |w| step(w, k)).unwrap();
            assert!(log.log.text().is_empty());
        }
        drop(log);
        // A torn fourth record: the valid prefix stops at three.
        let mut torn = fs::read(&path).unwrap();
        torn.extend_from_slice(b"[step 3]\nk=3\nx=3f");
        fs::write(&path, &torn).unwrap();
        let prefix = STEPS.valid_prefix(&torn);
        assert_eq!(prefix.records, 3);
        let mut log = LogFile::resume(&path, STEPS, &prefix, prefix.records).unwrap();
        assert!(log.log.text().is_empty());
        log.append(3, |w| step(w, 3)).unwrap();
        assert!(log.log.text().is_empty());
        assert_eq!(log.records(), 4);
        drop(log);
        assert_eq!(fs::read_to_string(&path).unwrap(), whole.text());
        // A log of another format is refused at its header, unchanged.
        let other = LogFormat {
            header: "steps v2",
            ..STEPS
        };
        let err = other
            .read_records(&torn[..], |_| Ok(()), |(), _, _| Ok(()))
            .unwrap_err();
        assert!(
            matches!(&err, Error::Format { line: 1, reason } if reason.contains("'steps v1'")),
            "{err}"
        );
        assert!(LogFile::resume(&path, other, &other.valid_prefix(&torn), 0).is_err());
        assert_eq!(fs::read_to_string(&path).unwrap(), whole.text());
        // The sections of the valid prefix: meta, then each record.
        let mut names = vec!["meta".to_string()];
        let ((), prefix) = STEPS
            .read_records(
                whole.text().as_bytes(),
                |_| Ok(()),
                |(), _, s| {
                    names.push(s.name.to_string());
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(prefix.records, 4);
        assert_eq!(names, ["meta", "step 0", "step 1", "step 2", "step 3"]);
        // A ledger is never overwritten.
        assert!(matches!(
            create_new_ledger_file(&path),
            Err(Error::Exists { .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
