//! The append-only, hash-chained allocation ledger.
//!
//! Every scenario run produces a ledger: one `[quantum N]` record per
//! quantum holding the enforced allocation, the effective budgets, the
//! fired events and the health flags, then a seal. This module is the
//! ledger's schema: its [`HEADER`], [`LedgerMeta`] and [`LedgerRecord`].
//! The log itself — the `chain=` link closing each record, the seal, and
//! the one-pass valid-prefix scan behind [`valid_prefix`] and [`verify`]
//! — is `rebudget_sim::durable`'s (DESIGN.md, "Durable codec"), which the
//! simulator's checkpoints and the online server's ledger share.
//!
//! Because the whole pipeline is deterministic, re-running a scenario
//! reproduces its ledger byte for byte — the `ledger-replay` property —
//! which makes the ledger an audit artifact: any holder can re-derive it
//! from the scenario file and diff.

use rebudget_sim::durable::{self, LogFormat};
pub use rebudget_sim::durable::{Ledger, LedgerPrefix};

use crate::ScenarioError;

/// The ledger's header line.
pub const HEADER: &str = FORMAT.header;

/// The ledger's log format: one `[quantum N]` record per quantum.
pub const FORMAT: LogFormat = durable::LEDGER;

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

impl LedgerMeta {
    /// Starts a ledger with its header and this meta section.
    #[must_use]
    pub fn start(&self) -> Ledger {
        Ledger::new(FORMAT, |w| {
            w.kv("scenario", &self.scenario);
            w.kv("seed", self.seed);
            w.kv("mechanism", &self.mechanism);
            w.kv("workload", &self.workload);
            w.kv("cores", self.cores);
            w.kv("resources", self.resources);
            w.kv("quanta", self.quanta);
            w.f64("budget", self.budget);
            if !self.faults.is_empty() {
                w.kv("faults", &self.faults);
            }
        })
    }
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

/// Appends one quantum record to `ledger`, closing it with the chain hash
/// of all preceding bytes.
///
/// # Panics
///
/// Panics if the ledger is already sealed — records are append-only and
/// the seal is final — or if the phase or an event name holds a newline.
pub fn append(ledger: &mut Ledger, record: &LedgerRecord) {
    ledger.append_section(record.quantum, |w| {
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

/// The [`LedgerPrefix`] of `text` in one pass. Never errors: a hopeless
/// input simply yields a zero-byte prefix.
#[must_use]
pub fn valid_prefix(text: &str) -> LedgerPrefix {
    FORMAT.valid_prefix(text.as_bytes())
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

/// Verifies a whole ledger: its [`valid_prefix`] scan found no offence,
/// ends in a seal, covers every byte of `text`, and holds as many
/// records as the seal claims.
///
/// Any truncation or in-place edit fails at the first record whose chain
/// no longer matches the bytes before it; bytes after the seal fail at
/// the first line after it.
///
/// # Errors
///
/// [`ScenarioError::Ledger`] with the 1-based line of the first offence.
pub fn verify(text: &str) -> Result<LedgerSummary, ScenarioError> {
    let (prefix, fnv1a) = FORMAT.verify(text.as_bytes()).map_err(|e| match e {
        durable::Error::Format { line, reason } => ScenarioError::Ledger { line, reason },
        other => ScenarioError::Ledger {
            line: 0,
            reason: other.to_string(),
        },
    })?;
    let scenario = text[..prefix.header_bytes]
        .lines()
        .rev()
        .find_map(|line| line.strip_prefix("scenario="))
        .unwrap_or_default();
    Ok(LedgerSummary {
        scenario: scenario.to_string(),
        records: prefix.records,
        fnv1a,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rebudget_sim::durable::{create_new_ledger_file, fnv1a};
    use std::io::Write;

    fn sample() -> Ledger {
        let mut ledger = LedgerMeta {
            scenario: "test".into(),
            seed: 7,
            mechanism: "rebudget".into(),
            workload: "cpbn".into(),
            cores: 2,
            resources: 2,
            quanta: 2,
            budget: 100.0,
            faults: String::new(),
        }
        .start();
        for q in 0..2 {
            append(
                &mut ledger,
                &LedgerRecord {
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
                },
            );
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

        // Bytes after the seal fail at the first line after it, and a seal
        // whose final newline is cut is torn, so the ledger is unsealed.
        let seal_line = text.lines().count();
        let after = seal_line + 1;
        for (variant, line, why) in [
            (format!("{text}x"), after, "bytes after the seal"),
            (
                format!("{text}tampered=1\nmore junk\n"),
                after,
                "bytes after the seal",
            ),
            (text[..text.len() - 1].to_string(), seal_line, "not sealed"),
        ] {
            match verify(&variant).unwrap_err() {
                ScenarioError::Ledger { line: at, reason } => {
                    assert_eq!(at, line, "{reason}");
                    assert!(reason.contains(why), "{reason}");
                }
                other => panic!("expected Ledger, got {other:?}"),
            }
        }
    }

    #[test]
    fn create_new_ledger_file_collision_is_a_named_error() {
        let dir = std::env::temp_dir().join(format!("rebudget-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("collision.ledger");
        let ledger = sample();
        let mut file = create_new_ledger_file(&path).unwrap();
        file.write_all(ledger.text().as_bytes()).unwrap();
        drop(file);
        // Regression: the second open used to surface a raw io::Error;
        // it must name the colliding path instead.
        match create_new_ledger_file(&path).unwrap_err() {
            durable::Error::Exists { path: p } => assert_eq!(p, path.display().to_string()),
            other => panic!("expected Exists, got {other}"),
        }
        let msg = create_new_ledger_file(&path).unwrap_err().to_string();
        assert!(msg.contains("collision.ledger"), "{msg}");
        assert!(msg.contains("immutable"), "{msg}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), ledger.text());
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
        let mut typed = meta.start();
        append(
            &mut typed,
            &LedgerRecord {
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
            },
        );
        let mut raw = meta.start();
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
            let mut l = LedgerMeta {
                scenario: "torn".into(),
                seed: 7,
                mechanism: "rebudget".into(),
                workload: "cpbn".into(),
                cores: 2,
                resources: 2,
                quanta: 2,
                budget: 100.0,
                faults: String::new(),
            }
            .start();
            for q in 0..2 {
                append(
                    &mut l,
                    &LedgerRecord {
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
                    },
                );
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
        let resumed = Ledger::resume_at(FORMAT, &tp, tp.records).unwrap();
        assert_eq!(resumed.records(), 1);
        // Header + meta only: still resumable with zero records.
        let meta_only = &clean[..p.header_bytes];
        let mp = valid_prefix(meta_only);
        assert_eq!(mp.bytes, meta_only.len());
        assert_eq!(mp.records, 0);
        assert_eq!(Ledger::resume_at(FORMAT, &mp, 0).unwrap().records(), 0);
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
        let mut reference = meta.start();
        for q in 0..3 {
            append(&mut reference, &record(q));
        }
        reference.seal();
        // Interrupted: two records, "crash", resume, third record, seal.
        let mut before = meta.start();
        append(&mut before, &record(0));
        append(&mut before, &record(1));
        let text = before.text();
        let mut after = Ledger::resume_at(FORMAT, &valid_prefix(text), 2).unwrap();
        append(&mut after, &record(2));
        after.seal();
        let resumed = format!("{text}{}", after.text());
        assert_eq!(reference.text(), resumed);
        verify(&resumed).unwrap();
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

    /// Whether [`valid_prefix`] reads `text` as one whole sealed ledger:
    /// sealed, covering every byte, with the seal's count matching.
    fn whole_and_sealed(text: &str) -> bool {
        let p = valid_prefix(text);
        let claimed = text[..p.bytes]
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("records="));
        p.sealed && p.bytes == text.len() && claimed == Some(p.records.to_string().as_str())
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
        let mut ledger = LedgerMeta {
            scenario: "equiv".into(),
            seed: 3,
            mechanism: "rebudget".into(),
            workload: "cpbn".into(),
            cores: 2,
            resources: 2,
            quanta: 4,
            budget: 100.0,
            faults: "noise=0.1,seed=3".into(),
        }
        .start();
        step(&mut ledger);
        let events = vec!["shock".to_string()];
        for q in 0..4 {
            append(
                &mut ledger,
                &LedgerRecord {
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
                },
            );
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
        let seal_block = |text: &str, records: usize| {
            let head = format!("[seal]\nrecords={records}\n");
            let digest = fnv1a(format!("{text}{head}").as_bytes());
            format!("{head}fnv1a={digest:016x}\n")
        };
        for text in [&unsealed, &sealed] {
            let mut variants: Vec<String> =
                (0..=text.len()).map(|cut| text[..cut].into()).collect();
            variants.extend((0..text.len()).map(|at| {
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] ^= 1; // ASCII stays ASCII, so the text stays UTF-8
                String::from_utf8(bytes).unwrap()
            }));
            let compared = variants.len();
            // Appended suffixes: a byte, a line, and a seal block (a
            // second one after the sealed text) claiming the right or a
            // wrong record count.
            let suffixes = [
                "x".into(),
                "x\n".into(),
                seal_block(text, 4),
                seal_block(text, 5),
            ];
            variants.extend(suffixes.iter().map(|s: &String| format!("{text}{s}")));
            for (i, v) in variants.iter().enumerate() {
                let want = reference_valid_prefix(v);
                assert_eq!(valid_prefix(v), want, "valid_prefix of {v:?}");
                assert_eq!(
                    FORMAT.read_valid_prefix(v.as_bytes()).unwrap(),
                    want,
                    "reader {v:?}"
                );
                let got = verify(v);
                assert_eq!(got.is_ok(), whole_and_sealed(v), "verify {v:?}: {got:?}");
                if i >= compared {
                    continue;
                }
                let want = reference_verify(v);
                if *v == sealed[..sealed.len() - 1] {
                    // The reference accepts a seal whose final newline is
                    // cut; that line is torn, so the ledger is unsealed.
                    assert!(want.is_ok() && got.is_err(), "{got:?} vs {want:?}");
                } else {
                    assert!(
                        same_verdict(&got, &want),
                        "verify {v:?}: {got:?} vs {want:?}"
                    );
                }
            }
        }
        // The chain states continue a cut ledger byte-identically.
        let prefix = valid_prefix(&unsealed);
        assert_eq!(prefix.chains.len(), prefix.records + 1);
        for k in 0..=prefix.records {
            let cut = &unsealed[..prefix.cut(k)];
            assert_eq!(prefix.chains[k], fnv1a(cut.as_bytes()));
            let mut resumed = Ledger::resume_at(FORMAT, &prefix, k).unwrap();
            assert!(resumed.text().is_empty());
            resumed.seal();
            let whole = format!("{cut}{}", resumed.text());
            assert_eq!(verify(&whole).unwrap().records, k);
        }
        assert!(Ledger::resume_at(FORMAT, &prefix, prefix.records + 1).is_err());
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
    fn resume_at_rejects_torn_records_and_a_bad_header() {
        let unsealed = {
            let mut l = LedgerMeta {
                scenario: "t".into(),
                seed: 1,
                mechanism: "m".into(),
                workload: "w".into(),
                cores: 1,
                resources: 1,
                quanta: 1,
                budget: 1.0,
                faults: String::new(),
            }
            .start();
            append(
                &mut l,
                &LedgerRecord {
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
                },
            );
            l
        };
        // Torn tail: drop the last 3 bytes. The torn record cannot be
        // resumed after; the header before it can.
        let torn = valid_prefix(&unsealed.text()[..unsealed.text().len() - 3]);
        assert!(matches!(
            Ledger::resume_at(FORMAT, &torn, 1).unwrap_err(),
            durable::Error::Format { .. }
        ));
        assert_eq!(Ledger::resume_at(FORMAT, &torn, 0).unwrap().records(), 0);
        assert!(matches!(
            Ledger::resume_at(FORMAT, &valid_prefix("junk\n"), 0).unwrap_err(),
            durable::Error::Format { line: 1, .. }
        ));
    }

    #[test]
    fn floats_are_bit_exact_and_event_lines_optional() {
        let mut ledger = LedgerMeta {
            scenario: "t".into(),
            seed: 1,
            mechanism: "balanced".into(),
            workload: "ccpp".into(),
            cores: 2,
            resources: 2,
            quanta: 1,
            budget: 0.1 + 0.2, // not representable exactly in decimal
            faults: "noise=0.1,seed=3".into(),
        }
        .start();
        let events = vec!["onset".to_string(), "shock".to_string()];
        append(
            &mut ledger,
            &LedgerRecord {
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
            },
        );
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
