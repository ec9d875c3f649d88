//! The append-only, hash-chained allocation ledger.
//!
//! Every scenario run produces a ledger: one `[quantum N]` record per
//! quantum holding the enforced allocation, the effective budgets, the
//! fired events and the health flags, then a seal. It is a schema over
//! `rebudget_sim::durable` (DESIGN.md, "Durable codec") with two rules of
//! its own: each record ends with `chain=`, the FNV-1a of every byte
//! before that line, so an edit or cut fails at the first record it
//! touches; and the seal is `[seal]`, `records=N` and `fnv1a=`, the hash
//! of every byte before it. Links and seals cost O(record); [`verify`]
//! and [`valid_prefix`] are one O(file) pass.
//!
//! Because the whole pipeline is deterministic, re-running a scenario
//! reproduces its ledger byte for byte — the `ledger-replay` property —
//! which makes the ledger an audit artifact: any holder can re-derive it
//! from the scenario file and diff.

use std::io::{BufRead, Write};
use std::path::Path;

use rebudget_sim::durable::{self, parse_hex, Line, Writer};

use crate::ScenarioError;

const HEADER: &str = "rebudget-ledger v1";

/// Metadata stamped into the ledger header.
#[derive(Debug, Clone)]
pub struct LedgerMeta {
    /// Scenario name.
    pub scenario: String,
    /// Simulation seed.
    pub seed: u64,
    /// Mechanism name (as declared in the scenario).
    pub mechanism: String,
    /// Workload name.
    pub workload: String,
    /// Core count.
    pub cores: usize,
    /// Resource count.
    pub resources: usize,
    /// Total quanta the scenario runs.
    pub quanta: usize,
    /// Per-player budget.
    pub budget: f64,
    /// Base fault spec in `--faults` grammar (empty when none).
    pub faults: String,
}

/// One quantum's ledger entry.
#[derive(Debug, Clone)]
pub struct LedgerRecord<'a> {
    /// Quantum index.
    pub quantum: usize,
    /// Phase the quantum ran in.
    pub phase: &'a str,
    /// Events that fired this quantum, in declaration order.
    pub events: &'a [String],
    /// Player presence this quantum.
    pub active: &'a [bool],
    /// Effective budgets of the active players.
    pub budgets: &'a [f64],
    /// Row-major full allocation (zero rows for inactive players).
    pub allocation: &'a [f64],
    /// Instantaneous weighted speedup.
    pub efficiency: f64,
    /// Envy-freeness of the quantum's allocation.
    pub envy_freeness: f64,
    /// Whether the solve degraded.
    pub degraded: bool,
    /// Whether the quantum fell back to EqualShare.
    pub fallback: bool,
    /// Whether the solve converged.
    pub converged: bool,
}

/// An in-progress or sealed ledger.
#[derive(Debug, Clone)]
pub struct Ledger {
    /// Ledger bytes not yet handed to [`Ledger::write_pending`] (the
    /// whole ledger for a producer that never drains it), and the hash of
    /// every byte so far — the value the next `chain=` or `fnv1a=` line
    /// carries.
    out: Writer,
    records: usize,
    sealed: bool,
}

impl Ledger {
    /// Starts a ledger with its header and meta section.
    #[must_use]
    pub fn new(meta: &LedgerMeta) -> Self {
        let mut out = Writer::default();
        out.line(HEADER);
        out.section("meta");
        out.kv("scenario", &meta.scenario);
        out.kv("seed", meta.seed);
        out.kv("mechanism", &meta.mechanism);
        out.kv("workload", &meta.workload);
        out.kv("cores", meta.cores);
        out.kv("resources", meta.resources);
        out.kv("quanta", meta.quanta);
        out.f64("budget", meta.budget);
        if !meta.faults.is_empty() {
            out.kv("faults", &meta.faults);
        }
        Self {
            out,
            records: 0,
            sealed: false,
        }
    }

    /// Appends one quantum record, closing it with the chain hash of all
    /// preceding bytes.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is already sealed — records are append-only
    /// and the seal is final — or if the phase or an event name holds a
    /// newline.
    pub fn append(&mut self, record: &LedgerRecord) {
        self.append_section(record.quantum, |w| {
            w.kv("phase", record.phase);
            if !record.events.is_empty() {
                w.kv("events", record.events.join(";"));
            }
            w.key("active");
            for &a in record.active {
                w.word(u8::from(a));
            }
            w.end();
            w.f64_list("budgets", record.budgets);
            w.f64_list("alloc", record.allocation);
            w.f64("eff", record.efficiency);
            w.f64("envy", record.envy_freeness);
            w.bool("degraded", record.degraded);
            w.bool("fallback", record.fallback);
            w.bool("converged", record.converged);
        });
    }

    /// Appends one `[quantum N]` record whose `key=value` fields `fields`
    /// writes, closing it with the chain hash of all preceding bytes.
    ///
    /// This is the raw record surface behind [`Ledger::append`]: other
    /// producers (the online server's tick records) write their own field
    /// sets while staying inside the chained, auditable format that
    /// [`verify`] checks. Only the new record's bytes are hashed.
    ///
    /// # Panics
    ///
    /// Panics if the ledger is sealed.
    pub fn append_section(&mut self, quantum: usize, fields: impl FnOnce(&mut Writer)) {
        assert!(!self.sealed, "cannot append to a sealed ledger");
        self.out.section(format_args!("quantum {quantum}"));
        fields(&mut self.out);
        let chain = self.out.hash();
        self.out.hex("chain", chain);
        self.records += 1;
    }

    /// Seals the ledger with its record count and whole-file checksum.
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

    /// The ledger bytes this value holds: everything since it was created
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
    /// so a producer streaming its ledger to a file keeps only the chain
    /// state in memory. The chain continues unchanged. On error the bytes
    /// stay held.
    ///
    /// # Errors
    ///
    /// Whatever `out.write_all` returns.
    pub fn write_pending(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        self.out.drain_to(out)
    }

    /// Writes the sealed ledger to a **new** file — an existing file is an
    /// error, because ledgers are immutable audit artifacts, never
    /// overwritten.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::LedgerExists`] naming the offending path when the
    /// file already exists; [`ScenarioError::Io`] for any other
    /// filesystem failure.
    pub fn write_new(&self, path: &Path) -> Result<(), ScenarioError> {
        let mut f = create_new_ledger_file(path)?;
        f.write_all(self.text().as_bytes())?;
        f.sync_all()?;
        Ok(())
    }

    /// Reconstructs an **unsealed** ledger from previously written text,
    /// so an interrupted producer (the online server after a crash) can
    /// keep appending where it left off.
    ///
    /// The text must be a fully chain-valid, unsealed ledger — i.e.
    /// exactly the [`valid_prefix`] of itself. Callers recovering from a
    /// torn tail should truncate to `valid_prefix(text)` first, or use
    /// [`Ledger::resume_at`], which needs no text at all.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Ledger`] when the text is sealed, has a torn or
    /// tampered tail, or lacks a valid header.
    pub fn resume(text: &str) -> Result<Self, ScenarioError> {
        let prefix = valid_prefix(text);
        if prefix.sealed {
            return Err(ScenarioError::Ledger {
                line: text.lines().count(),
                reason: "cannot resume a sealed ledger (the seal is final)".into(),
            });
        }
        if prefix.header_bytes > 0 && prefix.bytes != text.len() {
            return Err(ScenarioError::Ledger {
                line: text[..prefix.bytes].lines().count() + 1,
                reason: format!(
                    "cannot resume: torn or tampered tail after byte {} \
                     (truncate to the valid prefix first)",
                    prefix.bytes
                ),
            });
        }
        let mut ledger = Self::resume_at(&prefix, prefix.records)?;
        ledger.out = Writer::default();
        ledger.out.word(text);
        Ok(ledger)
    }

    /// Continues a ledger cut to its first `records` valid records — the
    /// file truncated to [`LedgerPrefix::cut`]`(records)` — from the chain
    /// state its [`LedgerPrefix`] recorded, without the ledger's text.
    /// The result holds no bytes; new records are written with
    /// [`Ledger::write_pending`].
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Ledger`] when the prefix has no valid header or
    /// holds fewer than `records` records.
    pub fn resume_at(prefix: &LedgerPrefix, records: usize) -> Result<Self, ScenarioError> {
        if prefix.header_bytes == 0 {
            return Err(ScenarioError::Ledger {
                line: 1,
                reason: "cannot resume: missing or malformed ledger header".into(),
            });
        }
        let Some(&chain) = prefix.chains.get(records) else {
            return Err(ScenarioError::Ledger {
                line: 1,
                reason: format!(
                    "cannot resume at record {records}: only {} valid record(s)",
                    prefix.records
                ),
            });
        };
        Ok(Self {
            out: Writer::resume(chain),
            records,
            sealed: false,
        })
    }
}

/// Opens `path` with `create_new`, mapping an existing-file collision to
/// the named [`ScenarioError::LedgerExists`]. Shared by every ledger
/// producer (scenario runs, the online server) so the collision is always
/// a typed, actionable error rather than a raw [`ScenarioError::Io`].
pub fn create_new_ledger_file(path: &Path) -> Result<std::fs::File, ScenarioError> {
    std::fs::OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(path)
        .map_err(|e| {
            if e.kind() == std::io::ErrorKind::AlreadyExists {
                ScenarioError::LedgerExists {
                    path: path.to_path_buf(),
                }
            } else {
                ScenarioError::Io(e)
            }
        })
}

/// The longest cryptographically-consistent prefix of a ledger file: the
/// header/meta section plus every leading record whose `chain=` hash
/// matches the bytes before it, stopping at the first torn, tampered, or
/// malformed line.
///
/// This is the crash-recovery primitive: a producer killed mid-append
/// leaves a torn tail, and because each chain hashes *all* preceding
/// bytes, truncating to `bytes` restores a valid ledger that
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
    /// `record_ends[k]` truncates the ledger to `k + 1` records.
    pub record_ends: Vec<usize>,
    /// FNV-1a chain state at each truncation point: `chains[k]` is the
    /// hash of the ledger cut to `k` records ([`LedgerPrefix::cut`]).
    /// Empty when the header is bad.
    pub chains: Vec<u64>,
    /// Whether the prefix ends in a complete, checksum-valid seal.
    pub sealed: bool,
}

impl LedgerPrefix {
    /// Byte length of the ledger cut to its first `records` records
    /// (`records <= self.records`).
    #[must_use]
    pub fn cut(&self, records: usize) -> usize {
        match records {
            0 => self.header_bytes,
            k => self.record_ends[k - 1],
        }
    }
}

/// One pass of [`valid_prefix`]'s line rules over the codec's scanned
/// lines, so a string and a file reader share it.
struct PrefixScan {
    prefix: LedgerPrefix,
    /// Are we inside the header/meta section (before the first record)?
    in_meta: bool,
}

impl PrefixScan {
    fn new() -> Self {
        Self {
            prefix: LedgerPrefix::default(),
            in_meta: true,
        }
    }

    /// Takes the next line. Returns `false` once the prefix is final and
    /// further lines cannot change it.
    fn feed(&mut self, line: Line<'_>) -> bool {
        if !line.complete {
            // Torn final line: everything before it already stands.
            return false;
        }
        let content = line.bytes;
        let p = &mut self.prefix;
        if line.number == 1 {
            if content != HEADER.as_bytes() {
                return false;
            }
            self.mark_meta(&line);
            return true;
        }
        if content == b"[seal]" || content.starts_with(b"records=") {
            // Seal in progress; only a valid fnv1a line below completes it.
            return true;
        }
        if let Some(rest) = content.strip_prefix(b"fnv1a=") {
            if parse_hex(rest) == Some(line.hash_before) {
                p.bytes = line.end;
                p.sealed = true;
            }
            return false;
        }
        if let Some(rest) = content.strip_prefix(b"chain=") {
            if parse_hex(rest) != Some(line.hash_before) {
                return false;
            }
            p.bytes = line.end;
            p.records += 1;
            p.record_ends.push(line.end);
            p.chains.push(line.hash_after);
            return true;
        }
        if content.starts_with(b"[quantum ") {
            self.in_meta = false;
        } else if self.in_meta {
            // Meta lines carry no checksum; they stand with the header.
            self.mark_meta(&line);
        }
        // Record lines stay provisional until their chain validates.
        true
    }

    /// Extends the header/meta section through `line`.
    fn mark_meta(&mut self, line: &Line<'_>) {
        let p = &mut self.prefix;
        p.bytes = line.end;
        p.header_bytes = line.end;
        match p.chains.first_mut() {
            Some(at_header) => *at_header = line.hash_after,
            None => p.chains.push(line.hash_after),
        }
    }
}

/// Computes the [`LedgerPrefix`] of `text` in one pass. Never errors: a
/// hopeless input simply yields a zero-byte prefix.
#[must_use]
pub fn valid_prefix(text: &str) -> LedgerPrefix {
    let mut scan = PrefixScan::new();
    for line in durable::lines(text) {
        if !scan.feed(line) {
            break;
        }
    }
    scan.prefix
}

/// [`valid_prefix`] of a ledger read line by line from `reader`, holding
/// one line at a time: recovery never loads the whole ledger.
///
/// # Errors
///
/// Whatever reading `reader` returns.
pub fn read_valid_prefix(reader: impl BufRead) -> std::io::Result<LedgerPrefix> {
    let mut scan = PrefixScan::new();
    durable::read_lines(reader, |line| scan.feed(line))?;
    Ok(scan.prefix)
}

/// What [`verify`] found in a well-formed ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerSummary {
    /// Scenario name from the meta section.
    pub scenario: String,
    /// Number of quantum records.
    pub records: usize,
    /// The seal checksum.
    pub fnv1a: u64,
}

/// Verifies a ledger's header, every chain hash, and the seal, in one
/// pass that carries the running hash from line to line.
///
/// Any truncation or in-place edit fails at the first record whose chain
/// no longer matches the bytes before it.
///
/// # Errors
///
/// [`ScenarioError::Ledger`] with the 1-based line of the first offence.
pub fn verify(text: &str) -> Result<LedgerSummary, ScenarioError> {
    let bad = |line: usize, reason: String| ScenarioError::Ledger { line, reason };
    let mut scenario = String::new();
    let mut records = 0usize;
    let mut sealed_records: Option<usize> = None;
    let mut seal_sum: Option<u64> = None;
    let mut lines = 0usize;
    for line in durable::lines(text) {
        let content = &text[line.offset..line.offset + line.bytes.len()];
        let (lineno, hash) = (line.number, line.hash_before);
        lines = lineno;
        if lineno == 1 {
            if content != HEADER {
                return Err(bad(
                    1,
                    format!("bad header '{content}' (expected '{HEADER}')"),
                ));
            }
        } else if let Some(rest) = content.strip_prefix("scenario=") {
            scenario = rest.to_string();
        } else if content.starts_with("[quantum ") {
            records += 1;
        } else if let Some(rest) = content.strip_prefix("chain=") {
            let want = parse_hex(rest)
                .ok_or_else(|| bad(lineno, format!("malformed chain hash '{rest}'")))?;
            if hash != want {
                return Err(bad(
                    lineno,
                    format!(
                        "chain mismatch: record {} hashes to {hash:016x}, ledger says \
                         {want:016x} (tampered or truncated upstream)",
                        records.saturating_sub(1)
                    ),
                ));
            }
        } else if let Some(rest) = content.strip_prefix("records=") {
            sealed_records = Some(
                rest.parse()
                    .map_err(|_| bad(lineno, format!("malformed record count '{rest}'")))?,
            );
        } else if let Some(rest) = content.strip_prefix("fnv1a=") {
            let want = parse_hex(rest)
                .ok_or_else(|| bad(lineno, format!("malformed seal hash '{rest}'")))?;
            if hash != want {
                return Err(bad(
                    lineno,
                    format!("seal mismatch: ledger hashes to {hash:016x}, seal says {want:016x}"),
                ));
            }
            seal_sum = Some(want);
        }
    }
    let Some(sum) = seal_sum else {
        return Err(bad(
            lines.max(1),
            "ledger is not sealed (truncated?)".into(),
        ));
    };
    match sealed_records {
        Some(n) if n == records => Ok(LedgerSummary {
            scenario,
            records,
            fnv1a: sum,
        }),
        Some(n) => Err(bad(
            lines.max(1),
            format!("seal claims {n} records, ledger holds {records}"),
        )),
        None => Err(bad(lines.max(1), "seal is missing its record count".into())),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rebudget_sim::durable::fnv1a;

    fn sample() -> Ledger {
        let mut ledger = Ledger::new(&LedgerMeta {
            scenario: "test".into(),
            seed: 7,
            mechanism: "rebudget".into(),
            workload: "cpbn".into(),
            cores: 2,
            resources: 2,
            quanta: 2,
            budget: 100.0,
            faults: String::new(),
        });
        for q in 0..2 {
            ledger.append(&LedgerRecord {
                quantum: q,
                phase: "steady",
                events: &[],
                active: &[true, true],
                budgets: &[100.0, 100.0],
                allocation: &[8.0, 40.0, 8.0, 40.0],
                efficiency: 1.5,
                envy_freeness: 1.0,
                degraded: false,
                fallback: false,
                converged: true,
            });
        }
        ledger.seal();
        ledger
    }

    #[test]
    fn verify_accepts_a_sealed_ledger() {
        let ledger = sample();
        let summary = verify(ledger.text()).unwrap();
        assert_eq!(summary.scenario, "test");
        assert_eq!(summary.records, 2);
    }

    #[test]
    fn verify_rejects_tampering_and_truncation() {
        let ledger = sample();
        let text = ledger.text();

        // Flip one hex digit of the first allocation value.
        let tampered = text.replacen("alloc=4020", "alloc=4021", 1);
        assert_ne!(tampered, text);
        match verify(&tampered).unwrap_err() {
            ScenarioError::Ledger { reason, .. } => {
                assert!(reason.contains("chain mismatch"), "{reason}");
            }
            other => panic!("expected Ledger, got {other:?}"),
        }

        // Drop the seal.
        let truncated = &text[..text.rfind("[seal]").unwrap()];
        assert!(matches!(
            verify(truncated).unwrap_err(),
            ScenarioError::Ledger { .. }
        ));

        // Remove a whole record (chain of the next record breaks).
        let second = text.find("[quantum 1]").unwrap();
        let seal = text.find("[seal]").unwrap();
        let gutted = format!("{}{}", &text[..second], &text[seal..]);
        assert!(matches!(
            verify(&gutted).unwrap_err(),
            ScenarioError::Ledger { .. }
        ));

        // Bad header.
        assert!(matches!(
            verify("nonsense\n").unwrap_err(),
            ScenarioError::Ledger { line: 1, .. }
        ));
    }

    #[test]
    fn write_new_collision_is_a_named_error() {
        let dir = std::env::temp_dir().join(format!("rebudget-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collision.ledger");
        let ledger = sample();
        ledger.write_new(&path).unwrap();
        // Regression: the second write used to surface a raw io::Error;
        // it must name the colliding path instead.
        match ledger.write_new(&path).unwrap_err() {
            ScenarioError::LedgerExists { path: p } => assert_eq!(p, path),
            other => panic!("expected LedgerExists, got {other}"),
        }
        let msg = ledger.write_new(&path).unwrap_err().to_string();
        assert!(msg.contains("collision.ledger"), "{msg}");
        assert!(msg.contains("immutable"), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_section_matches_typed_append_bytes() {
        let meta = LedgerMeta {
            scenario: "raw".into(),
            seed: 1,
            mechanism: "m".into(),
            workload: "w".into(),
            cores: 1,
            resources: 1,
            quanta: 1,
            budget: 1.0,
            faults: String::new(),
        };
        let mut typed = Ledger::new(&meta);
        typed.append(&LedgerRecord {
            quantum: 0,
            phase: "p",
            events: &[],
            active: &[true],
            budgets: &[1.0],
            allocation: &[1.0],
            efficiency: 1.0,
            envy_freeness: 1.0,
            degraded: false,
            fallback: false,
            converged: true,
        });
        let mut raw = Ledger::new(&meta);
        raw.append_section(0, |w| {
            w.kv("phase", "p");
            w.kv("active", "1");
            w.f64_list("budgets", &[1.0]);
            w.f64("alloc", 1.0);
            w.f64("eff", 1.0);
            w.f64("envy", 1.0);
            w.kv("degraded", 0);
            w.kv("fallback", 0);
            w.kv("converged", 1);
        });
        assert_eq!(typed.text(), raw.text());
        assert_eq!(typed.records(), raw.records());
    }

    #[test]
    fn valid_prefix_finds_truncation_points() {
        let mut ledger = sample();
        let sealed_text = ledger.text().to_string();
        // Sealed ledger: the whole file is the prefix.
        let p = valid_prefix(&sealed_text);
        assert_eq!(p.bytes, sealed_text.len());
        assert_eq!(p.records, 2);
        assert!(p.sealed);
        assert_eq!(p.record_ends.len(), 2);

        // An unsealed ledger with a torn tail (mid-record kill): the
        // prefix stops at the last complete record.
        ledger = {
            let mut l = Ledger::new(&LedgerMeta {
                scenario: "torn".into(),
                seed: 7,
                mechanism: "rebudget".into(),
                workload: "cpbn".into(),
                cores: 2,
                resources: 2,
                quanta: 2,
                budget: 100.0,
                faults: String::new(),
            });
            for q in 0..2 {
                l.append(&LedgerRecord {
                    quantum: q,
                    phase: "steady",
                    events: &[],
                    active: &[true, true],
                    budgets: &[100.0, 100.0],
                    allocation: &[8.0, 40.0, 8.0, 40.0],
                    efficiency: 1.5,
                    envy_freeness: 1.0,
                    degraded: false,
                    fallback: false,
                    converged: true,
                });
            }
            l
        };
        let clean = ledger.text().to_string();
        let p = valid_prefix(&clean);
        assert_eq!(p.bytes, clean.len());
        assert_eq!(p.records, 2);
        assert!(!p.sealed);
        // Tear the file mid-second-record: prefix = exactly record 1.
        let torn = &clean[..p.record_ends[0] + 17];
        let tp = valid_prefix(torn);
        assert_eq!(tp.bytes, p.record_ends[0]);
        assert_eq!(tp.records, 1);
        // Truncating to any record count reproduces a resumable ledger.
        let resumed = Ledger::resume(&clean[..tp.bytes]).unwrap();
        assert_eq!(resumed.records(), 1);
        // Header + meta only: still resumable with zero records.
        let meta_only = &clean[..p.header_bytes];
        let mp = valid_prefix(meta_only);
        assert_eq!(mp.bytes, meta_only.len());
        assert_eq!(mp.records, 0);
        assert_eq!(Ledger::resume(meta_only).unwrap().records(), 0);
        // Garbage: zero-byte prefix.
        assert_eq!(valid_prefix("nonsense\n").bytes, 0);
        assert_eq!(valid_prefix("").bytes, 0);
    }

    #[test]
    fn resume_continues_the_chain_byte_identically() {
        // Reference: three records appended in one sitting.
        let meta = LedgerMeta {
            scenario: "resume".into(),
            seed: 7,
            mechanism: "rebudget".into(),
            workload: "cpbn".into(),
            cores: 2,
            resources: 2,
            quanta: 3,
            budget: 100.0,
            faults: String::new(),
        };
        let record = |q: usize| LedgerRecord {
            quantum: q,
            phase: "steady",
            events: &[],
            active: &[true, true],
            budgets: &[100.0, 100.0],
            allocation: &[8.0, 40.0, 8.0, 40.0],
            efficiency: 1.5,
            envy_freeness: 1.0,
            degraded: false,
            fallback: false,
            converged: true,
        };
        let mut reference = Ledger::new(&meta);
        for q in 0..3 {
            reference.append(&record(q));
        }
        reference.seal();
        // Interrupted: two records, "crash", resume, third record, seal.
        let mut before = Ledger::new(&meta);
        before.append(&record(0));
        before.append(&record(1));
        let mut after = Ledger::resume(before.text()).unwrap();
        after.append(&record(2));
        after.seal();
        assert_eq!(reference.text(), after.text());
        verify(after.text()).unwrap();
    }

    /// The whole-prefix `valid_prefix` the streaming scan replaced: it
    /// rehashes every prefix from byte zero, O(file²), and serves as the
    /// reference the one-pass scan must match exactly.
    fn reference_valid_prefix(text: &str) -> LedgerPrefix {
        let mut prefix = LedgerPrefix {
            bytes: 0,
            records: 0,
            header_bytes: 0,
            record_ends: Vec::new(),
            chains: Vec::new(),
            sealed: false,
        };
        let bytes = text.as_bytes();
        let finish = |mut p: LedgerPrefix| {
            if p.header_bytes > 0 {
                p.chains = std::iter::once(p.header_bytes)
                    .chain(p.record_ends.iter().copied())
                    .map(|end| fnv1a(&bytes[..end]))
                    .collect();
            }
            p
        };
        let mut offset = 0usize;
        let mut first = true;
        let mut in_meta = true;
        for line in text.split_inclusive('\n') {
            let complete = line.ends_with('\n');
            let content = line.trim_end_matches('\n');
            if first {
                if !(complete && content == HEADER) {
                    return finish(prefix);
                }
                first = false;
                offset += line.len();
                prefix.bytes = offset;
                prefix.header_bytes = offset;
                continue;
            }
            if !complete {
                return finish(prefix);
            }
            if content == "[seal]" || content.starts_with("records=") {
                offset += line.len();
                continue;
            }
            if let Some(rest) = content.strip_prefix("fnv1a=") {
                let valid = u64::from_str_radix(rest, 16)
                    .map(|want| fnv1a(&bytes[..offset]) == want)
                    .unwrap_or(false);
                if valid {
                    offset += line.len();
                    prefix.bytes = offset;
                    prefix.sealed = true;
                }
                return finish(prefix);
            }
            if let Some(rest) = content.strip_prefix("chain=") {
                let valid = u64::from_str_radix(rest, 16)
                    .map(|want| fnv1a(&bytes[..offset]) == want)
                    .unwrap_or(false);
                if !valid {
                    return finish(prefix);
                }
                offset += line.len();
                prefix.bytes = offset;
                prefix.records += 1;
                prefix.record_ends.push(offset);
                continue;
            }
            if content.starts_with("[quantum ") {
                in_meta = false;
            } else if in_meta {
                offset += line.len();
                prefix.bytes = offset;
                prefix.header_bytes = offset;
                continue;
            }
            offset += line.len();
        }
        finish(prefix)
    }

    /// The whole-prefix `verify` the one-pass check replaced (reference).
    fn reference_verify(text: &str) -> Result<LedgerSummary, ScenarioError> {
        let bad = |line: usize, reason: String| ScenarioError::Ledger { line, reason };
        let mut scenario = String::new();
        let mut records = 0usize;
        let mut sealed_records: Option<usize> = None;
        let mut seal_sum: Option<u64> = None;
        let mut offset = 0usize;
        for (idx, line) in text.split_inclusive('\n').enumerate() {
            let lineno = idx + 1;
            let content = line.trim_end_matches('\n');
            if idx == 0 {
                if content != HEADER {
                    return Err(bad(1, format!("bad header '{content}'")));
                }
            } else if let Some(rest) = content.strip_prefix("scenario=") {
                scenario = rest.to_string();
            } else if content.starts_with("[quantum ") {
                records += 1;
            } else if let Some(rest) = content.strip_prefix("chain=") {
                let want = u64::from_str_radix(rest, 16)
                    .map_err(|_| bad(lineno, format!("malformed chain hash '{rest}'")))?;
                if fnv1a(&text.as_bytes()[..offset]) != want {
                    return Err(bad(lineno, "chain mismatch".into()));
                }
            } else if let Some(rest) = content.strip_prefix("records=") {
                sealed_records = Some(
                    rest.parse()
                        .map_err(|_| bad(lineno, format!("malformed record count '{rest}'")))?,
                );
            } else if let Some(rest) = content.strip_prefix("fnv1a=") {
                let want = u64::from_str_radix(rest, 16)
                    .map_err(|_| bad(lineno, format!("malformed seal hash '{rest}'")))?;
                if fnv1a(&text.as_bytes()[..offset]) != want {
                    return Err(bad(lineno, "seal mismatch".into()));
                }
                seal_sum = Some(want);
            }
            offset += line.len();
        }
        let lines = text.lines().count().max(1);
        let Some(sum) = seal_sum else {
            return Err(bad(lines, "not sealed".into()));
        };
        match sealed_records {
            Some(n) if n == records => Ok(LedgerSummary {
                scenario,
                records,
                fnv1a: sum,
            }),
            _ => Err(bad(lines, "bad record count".into())),
        }
    }

    /// `Ok` summaries equal, or `Err`s on the same line.
    fn same_verdict(
        got: &Result<LedgerSummary, ScenarioError>,
        want: &Result<LedgerSummary, ScenarioError>,
    ) -> bool {
        match (got, want) {
            (Ok(a), Ok(b)) => a == b,
            (
                Err(ScenarioError::Ledger { line: a, .. }),
                Err(ScenarioError::Ledger { line: b, .. }),
            ) => a == b,
            _ => false,
        }
    }

    /// A four-record ledger with events, inactive players and a faults
    /// meta line, unsealed; `step` runs after the header and each record.
    fn multi_record(mut step: impl FnMut(&mut Ledger)) -> Ledger {
        let mut ledger = Ledger::new(&LedgerMeta {
            scenario: "equiv".into(),
            seed: 3,
            mechanism: "rebudget".into(),
            workload: "cpbn".into(),
            cores: 2,
            resources: 2,
            quanta: 4,
            budget: 100.0,
            faults: "noise=0.1,seed=3".into(),
        });
        step(&mut ledger);
        let events = vec!["shock".to_string()];
        for q in 0..4 {
            ledger.append(&LedgerRecord {
                quantum: q,
                phase: "steady",
                events: if q == 2 { &events } else { &[] },
                active: &[true, q != 1],
                budgets: &[100.0, 50.0 + q as f64],
                allocation: &[8.0, 40.0, 8.0 * q as f64, 1.0 / 3.0],
                efficiency: 1.5,
                envy_freeness: 0.9,
                degraded: q == 3,
                fallback: false,
                converged: true,
            });
            step(&mut ledger);
        }
        ledger
    }

    #[test]
    fn streaming_chain_matches_whole_prefix_reference() {
        let mut ledger = multi_record(|_| {});
        let unsealed = ledger.text().to_string();
        ledger.seal();
        let sealed = ledger.text().to_string();
        for text in [&unsealed, &sealed] {
            let mut variants: Vec<String> =
                (0..=text.len()).map(|cut| text[..cut].into()).collect();
            variants.extend((0..text.len()).map(|at| {
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] ^= 1; // ASCII stays ASCII, so the text stays UTF-8
                String::from_utf8(bytes).unwrap()
            }));
            for v in &variants {
                let want = reference_valid_prefix(v);
                assert_eq!(valid_prefix(v), want, "valid_prefix of {v:?}");
                assert_eq!(
                    read_valid_prefix(v.as_bytes()).unwrap(),
                    want,
                    "reader {v:?}"
                );
                let (got, want) = (verify(v), reference_verify(v));
                assert!(
                    same_verdict(&got, &want),
                    "verify {v:?}: {got:?} vs {want:?}"
                );
            }
        }
        // The chain states continue a cut ledger byte-identically.
        let prefix = valid_prefix(&unsealed);
        assert_eq!(prefix.chains.len(), prefix.records + 1);
        for k in 0..=prefix.records {
            let cut = &unsealed[..prefix.cut(k)];
            assert_eq!(prefix.chains[k], fnv1a(cut.as_bytes()));
            let mut resumed = Ledger::resume_at(&prefix, k).unwrap();
            assert!(resumed.text().is_empty());
            resumed.seal();
            let mut whole = Ledger::resume(cut).unwrap();
            whole.seal();
            assert_eq!(format!("{cut}{}", resumed.text()), whole.text());
            verify(whole.text()).unwrap();
        }
        assert!(Ledger::resume_at(&prefix, prefix.records + 1).is_err());
    }

    #[test]
    fn write_pending_drains_without_breaking_the_chain() {
        let mut reference = multi_record(|_| {});
        reference.seal();
        let mut file = Vec::new();
        let mut ledger = multi_record(|l| {
            l.write_pending(&mut file).unwrap();
            assert!(l.text().is_empty());
        });
        ledger.seal();
        ledger.write_pending(&mut file).unwrap();
        assert_eq!(String::from_utf8(file).unwrap(), reference.text());
    }

    #[test]
    fn resume_rejects_sealed_and_torn_ledgers() {
        let sealed = sample();
        assert!(matches!(
            Ledger::resume(sealed.text()).unwrap_err(),
            ScenarioError::Ledger { .. }
        ));
        let unsealed = {
            let mut l = Ledger::new(&LedgerMeta {
                scenario: "t".into(),
                seed: 1,
                mechanism: "m".into(),
                workload: "w".into(),
                cores: 1,
                resources: 1,
                quanta: 1,
                budget: 1.0,
                faults: String::new(),
            });
            l.append(&LedgerRecord {
                quantum: 0,
                phase: "p",
                events: &[],
                active: &[true],
                budgets: &[1.0],
                allocation: &[1.0],
                efficiency: 1.0,
                envy_freeness: 1.0,
                degraded: false,
                fallback: false,
                converged: true,
            });
            l
        };
        // Torn tail: drop the last 3 bytes.
        let torn = &unsealed.text()[..unsealed.text().len() - 3];
        assert!(matches!(
            Ledger::resume(torn).unwrap_err(),
            ScenarioError::Ledger { .. }
        ));
        assert!(matches!(
            Ledger::resume("junk\n").unwrap_err(),
            ScenarioError::Ledger { line: 1, .. }
        ));
    }

    #[test]
    fn floats_are_bit_exact_and_event_lines_optional() {
        let mut ledger = Ledger::new(&LedgerMeta {
            scenario: "t".into(),
            seed: 1,
            mechanism: "balanced".into(),
            workload: "ccpp".into(),
            cores: 2,
            resources: 2,
            quanta: 1,
            budget: 0.1 + 0.2, // not representable exactly in decimal
            faults: "noise=0.1,seed=3".into(),
        });
        let events = vec!["onset".to_string(), "shock".to_string()];
        ledger.append(&LedgerRecord {
            quantum: 0,
            phase: "p",
            events: &events,
            active: &[true, false],
            budgets: &[100.0],
            allocation: &[16.0, 80.0, 0.0, 0.0],
            efficiency: std::f64::consts::PI,
            envy_freeness: f64::INFINITY,
            degraded: true,
            fallback: false,
            converged: false,
        });
        ledger.seal();
        let text = ledger.text();
        let hex = |v: f64| format!("{:016x}", v.to_bits());
        assert!(text.contains(&format!("budget={}", hex(0.1 + 0.2))));
        assert!(text.contains("events=onset;shock"));
        assert!(text.contains("active=10"));
        assert!(text.contains(&format!("envy={}", hex(f64::INFINITY))));
        verify(text).unwrap();
    }
}
