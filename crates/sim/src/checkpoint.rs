//! Durable checkpoint/restore for simulations and sweeps.
//!
//! Long runs die: machines reboot, jobs get preempted, batch schedulers
//! kill over-quota work. This module makes the quantum loop of
//! [`crate::simulation`] and the knob sweep of [`rebudget_core::sweep`]
//! *resumable*: state is snapshotted to disk at quantum (or sweep-point)
//! boundaries, and a later process can pick the run back up and produce
//! **bit-identical** results to an uninterrupted run.
//!
//! # Format
//!
//! Snapshots are a versioned, line-oriented text format — deliberately
//! hand-rolled (the workspace carries no serialization dependency) and
//! human-inspectable:
//!
//! ```text
//! rebudget-checkpoint v1 sim
//! [meta]
//! mechanism=EqualBudget
//! cores=8
//! ...
//! [counters]
//! total_rounds=12
//! ...
//! [quantum 0]
//! alloc=4000000000000000 4024000000000000 ...
//! eff=3fe6666666666666
//! [checksum]
//! fnv1a=c3a5c85c97cb3127
//! ```
//!
//! Every `f64` is stored as the 16-hex-digit big-endian rendering of its
//! IEEE-754 bits ([`f64::to_bits`]), so round-trips are exact for every
//! value including negative zero, subnormals, infinities, and NaN
//! payloads. The final section is a 64-bit FNV-1a checksum over every
//! byte that precedes the `[checksum]` line; a truncated or bit-flipped
//! file fails validation with a typed [`CheckpointError`] instead of
//! producing a silently wrong resume.
//!
//! # Atomicity and rotation
//!
//! [`SimCheckpoint::save`] (and the sweep equivalent) never overwrite the
//! live snapshot in place. The new snapshot is written to `<path>.tmp`,
//! the previous snapshot (if any) is renamed to `<path>.prev`, and the
//! temp file is renamed onto `<path>`. A crash at any point leaves either
//! the old snapshot, the old snapshot plus a stray `.tmp`, or the new
//! snapshot — never a half-written file at the load path. Loaders that
//! use [`SimCheckpoint::load_with_fallback`] additionally fall back to
//! `<path>.prev` when the primary file is corrupt, so one torn write
//! costs at most one checkpoint interval of progress.
//!
//! # Why replay instead of deep state serialization
//!
//! A simulation quantum's inputs split cleanly in two: the *monitors*
//! (UMON shadow tags, synthetic trace RNGs) evolve independently of the
//! allocation decisions, while the *machine* (thermal grid, energy,
//! per-core progress) depends only on the allocation applied each
//! quantum. A snapshot therefore records just the per-quantum allocations
//! and aggregate counters; resume re-runs monitors and machine through
//! the recorded quanta — skipping the expensive market solves — and the
//! deterministic pipeline reproduces the exact pre-crash state. The
//! recorded per-quantum efficiency doubles as a replay-divergence check.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use rebudget_core::sweep::{SolveSummary, SweepPoint};
use rebudget_market::FaultPlan;

/// Snapshot format version. Bump when the on-disk layout changes; loaders
/// reject other versions with [`CheckpointError::Version`].
pub const FORMAT_VERSION: u32 = 1;

const HEADER_PREFIX: &str = "rebudget-checkpoint";
/// FNV-1a's initial state: the hash of no bytes.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, bytes)
}

/// Folds `bytes` into a running FNV-1a state. The state after N bytes
/// *is* the hash of those N bytes, so
/// `fnv1a_extend(fnv1a(a), b) == fnv1a(a ++ b)` and
/// `fnv1a(b) == fnv1a_extend(FNV_OFFSET, b)`: a hash chain over a growing
/// file costs O(new bytes) per link, never a rehash of the prefix.
#[must_use]
pub fn fnv1a_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// An `f64` as the 16-hex-digit rendering of its IEEE-754 bits — the
/// bit-exact value encoding of every durable format in the workspace.
#[must_use]
pub fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// `values` as space-separated [`f64_hex`] words.
#[must_use]
pub fn hex_list(values: &[f64]) -> String {
    values
        .iter()
        .map(|&v| f64_hex(v))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Errors from snapshot parsing, validation, and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Reading or writing the snapshot file failed.
    Io {
        /// The file involved.
        path: String,
        /// The OS error rendered as text.
        message: String,
    },
    /// The file is not a well-formed snapshot (bad header, missing
    /// section or key, unparsable value, or truncation).
    Format {
        /// 1-based line of the offending content (0 when the problem is
        /// the file as a whole, e.g. a missing trailer).
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The snapshot is a different format version than this build writes.
    Version {
        /// The version found in the header.
        found: u32,
    },
    /// The snapshot is of a different kind (`sim` vs `sweep`).
    Kind {
        /// The kind expected by the loader.
        expected: &'static str,
        /// The kind found in the header.
        found: String,
    },
    /// The stored checksum does not match the file contents — the file
    /// was truncated or corrupted after it was written.
    Checksum {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the actual contents.
        found: u64,
    },
    /// The snapshot was taken under a different configuration than the
    /// resuming run (different mechanism, seed, workload, fault plan, …).
    ConfigMismatch {
        /// The field that disagreed.
        what: String,
        /// Value in the resuming run's configuration.
        expected: String,
        /// Value recorded in the snapshot.
        found: String,
    },
    /// Replaying the recorded quanta produced different machine state
    /// than the run that wrote the snapshot — the snapshot belongs to a
    /// different binary or an incompatible configuration.
    ReplayDivergence {
        /// The quantum whose replayed efficiency differed.
        quantum: usize,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint i/o failed for {path}: {message}")
            }
            CheckpointError::Format { line, reason } => {
                write!(f, "malformed checkpoint (line {line}): {reason}")
            }
            CheckpointError::Version { found } => write!(
                f,
                "unsupported checkpoint version {found} (this build reads v{FORMAT_VERSION})"
            ),
            CheckpointError::Kind { expected, found } => {
                write!(
                    f,
                    "checkpoint kind mismatch: expected {expected}, found {found}"
                )
            }
            CheckpointError::Checksum { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: recorded {expected:016x}, computed {found:016x} \
                 (file truncated or corrupted)"
            ),
            CheckpointError::ConfigMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "checkpoint does not match this run: {what} is {found} in the snapshot \
                 but {expected} here"
            ),
            CheckpointError::ReplayDivergence { quantum } => write!(
                f,
                "replay diverged from the snapshot at quantum {quantum} \
                 (snapshot from an incompatible build or configuration)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

type Result<T> = std::result::Result<T, CheckpointError>;

fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

// ---------------------------------------------------------------------------
// Low-level text layer: sections of key=value records + checksum trailer.
// ---------------------------------------------------------------------------

struct Section {
    name: String,
    line: usize,
    entries: Vec<(String, String, usize)>,
}

impl Section {
    fn get(&self, key: &str) -> Result<&str> {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, v, _)| v.as_str())
            .ok_or_else(|| CheckpointError::Format {
                line: self.line,
                reason: format!("section [{}] is missing key `{key}`", self.name),
            })
    }

    fn parse<T: std::str::FromStr>(&self, key: &str) -> Result<T> {
        let raw = self.get(key)?;
        raw.parse().map_err(|_| CheckpointError::Format {
            line: self.line,
            reason: format!("key `{key}` has unparsable value `{raw}`"),
        })
    }

    fn parse_f64_bits(&self, key: &str) -> Result<f64> {
        let raw = self.get(key)?;
        u64::from_str_radix(raw, 16)
            .map(f64::from_bits)
            .map_err(|_| CheckpointError::Format {
                line: self.line,
                reason: format!("key `{key}` is not a 16-hex-digit f64: `{raw}`"),
            })
    }

    fn parse_bool(&self, key: &str) -> Result<bool> {
        match self.get(key)? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(CheckpointError::Format {
                line: self.line,
                reason: format!("key `{key}` must be 0 or 1, got `{other}`"),
            }),
        }
    }
}

/// Renders the header + body, appends the checksum trailer.
fn seal(kind: &str, body: &str) -> String {
    let mut text = format!("{HEADER_PREFIX} v{FORMAT_VERSION} {kind}\n");
    text.push_str(body);
    let sum = fnv1a(text.as_bytes());
    text.push_str(&format!("[checksum]\nfnv1a={sum:016x}\n"));
    text
}

/// Validates header + checksum and splits the body into sections.
fn open(text: &str, expected_kind: &'static str) -> Result<Vec<Section>> {
    let header_end = text.find('\n').ok_or(CheckpointError::Format {
        line: 1,
        reason: "empty or headerless file".into(),
    })?;
    let header = &text[..header_end];
    let mut parts = header.split(' ');
    if parts.next() != Some(HEADER_PREFIX) {
        return Err(CheckpointError::Format {
            line: 1,
            reason: format!("not a rebudget checkpoint (header `{header}`)"),
        });
    }
    let version: u32 = parts
        .next()
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse().ok())
        .ok_or(CheckpointError::Format {
            line: 1,
            reason: "header has no version field".into(),
        })?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::Version { found: version });
    }
    let kind = parts.next().unwrap_or("");
    if kind != expected_kind {
        return Err(CheckpointError::Kind {
            expected: expected_kind,
            found: kind.to_string(),
        });
    }

    // Locate the checksum trailer and verify it over the preceding bytes.
    let trailer_tag = "[checksum]\n";
    let trailer_at = text.rfind(trailer_tag).ok_or(CheckpointError::Format {
        line: 0,
        reason: "missing [checksum] trailer (file truncated?)".into(),
    })?;
    let body_bytes = &text.as_bytes()[..trailer_at];
    let trailer = &text[trailer_at + trailer_tag.len()..];
    let recorded = trailer
        .lines()
        .find_map(|l| l.strip_prefix("fnv1a="))
        .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
        .ok_or(CheckpointError::Format {
            line: 0,
            reason: "checksum trailer has no fnv1a record".into(),
        })?;
    let computed = fnv1a(body_bytes);
    if recorded != computed {
        return Err(CheckpointError::Checksum {
            expected: recorded,
            found: computed,
        });
    }

    // Parse the body into sections.
    let mut sections: Vec<Section> = Vec::new();
    for (idx, line) in text[..trailer_at].lines().enumerate().skip(1) {
        let lineno = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            sections.push(Section {
                name: name.to_string(),
                line: lineno,
                entries: Vec::new(),
            });
        } else if let Some((k, v)) = line.split_once('=') {
            let section = sections.last_mut().ok_or(CheckpointError::Format {
                line: lineno,
                reason: "key=value record before any [section]".into(),
            })?;
            section.entries.push((k.to_string(), v.to_string(), lineno));
        } else {
            return Err(CheckpointError::Format {
                line: lineno,
                reason: format!("unrecognized line `{line}`"),
            });
        }
    }
    Ok(sections)
}

/// Path of the rotated previous-generation snapshot for `path`.
#[must_use]
pub fn prev_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".prev");
    PathBuf::from(name)
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Writes `contents` to `path` atomically, rotating any existing snapshot
/// to `<path>.prev` first.
///
/// The stale `.prev` generation is unlinked *before* the rotation rename:
/// renaming over an existing target trips ext4's `auto_da_alloc`
/// writeback stall (~100 µs per save), an order of magnitude more than
/// unlink + rename onto a free name. A crash in the gap still leaves the
/// sealed live snapshot at `path`, so no recovery point is ever lost.
///
/// Public because every durable writer in the workspace (sim checkpoints,
/// sweep checkpoints, the online server's tick snapshots) shares this one
/// crash-atomic primitive and its `.prev` rotation contract.
pub fn write_atomic(path: &Path, contents: &str) -> Result<()> {
    let tmp = tmp_path(path);
    fs::write(&tmp, contents).map_err(|e| io_err(&tmp, &e))?;
    if path.exists() {
        let prev = prev_path(path);
        if prev.exists() {
            fs::remove_file(&prev).map_err(|e| io_err(&prev, &e))?;
        }
        fs::rename(path, &prev).map_err(|e| io_err(path, &e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err(path, &e))?;
    Ok(())
}

fn read_file(path: &Path) -> Result<String> {
    fs::read_to_string(path).map_err(|e| io_err(path, &e))
}

// ---------------------------------------------------------------------------
// Fault-plan serialization (bit-exact).
// ---------------------------------------------------------------------------

fn render_faults(out: &mut String, plan: Option<&FaultPlan>) {
    match plan {
        None => out.push_str("faults=0\n"),
        Some(p) => {
            out.push_str("faults=1\n");
            out.push_str(&format!("fault.seed={}\n", p.seed));
            out.push_str(&format!("fault.noise_sigma={}\n", f64_hex(p.noise_sigma)));
            out.push_str(&format!(
                "fault.spike_probability={}\n",
                f64_hex(p.spike_probability)
            ));
            out.push_str(&format!(
                "fault.spike_probability_magnitude={}\n",
                f64_hex(p.spike_probability_magnitude)
            ));
            out.push_str(&format!(
                "fault.stale_probability={}\n",
                f64_hex(p.stale_probability)
            ));
            out.push_str(&format!("fault.stale_depth={}\n", p.stale_depth));
            out.push_str(&format!(
                "fault.drop_probability={}\n",
                f64_hex(p.drop_probability)
            ));
            out.push_str(&format!(
                "fault.nan_probability={}\n",
                f64_hex(p.nan_probability)
            ));
            out.push_str(&format!("fault.liars={}\n", p.liars));
            out.push_str(&format!(
                "fault.liar_exaggeration={}\n",
                f64_hex(p.liar_exaggeration)
            ));
        }
    }
}

fn parse_faults(meta: &Section) -> Result<Option<FaultPlan>> {
    if !meta.parse_bool("faults")? {
        return Ok(None);
    }
    Ok(Some(FaultPlan {
        seed: meta.parse("fault.seed")?,
        noise_sigma: meta.parse_f64_bits("fault.noise_sigma")?,
        spike_probability: meta.parse_f64_bits("fault.spike_probability")?,
        spike_probability_magnitude: meta.parse_f64_bits("fault.spike_probability_magnitude")?,
        stale_probability: meta.parse_f64_bits("fault.stale_probability")?,
        stale_depth: meta.parse("fault.stale_depth")?,
        drop_probability: meta.parse_f64_bits("fault.drop_probability")?,
        nan_probability: meta.parse_f64_bits("fault.nan_probability")?,
        liars: meta.parse("fault.liars")?,
        liar_exaggeration: meta.parse_f64_bits("fault.liar_exaggeration")?,
    }))
}

// ---------------------------------------------------------------------------
// Simulation snapshots.
// ---------------------------------------------------------------------------

/// The run configuration a simulation snapshot was taken under. Resume
/// validates every field against the resuming run's configuration and
/// refuses to mix snapshots across configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMeta {
    /// Mechanism display name.
    pub mechanism: String,
    /// Core count of the simulated system.
    pub cores: usize,
    /// Market resource dimensions (cache + power = 2).
    pub resources: usize,
    /// Application names, one per core, in core order.
    pub apps: Vec<String>,
    /// Trace RNG seed.
    pub seed: u64,
    /// Per-player budget.
    pub budget: f64,
    /// Synthetic accesses per core per quantum.
    pub accesses_per_quantum: usize,
    /// Whether utilities are rebuilt from UMON monitors each quantum.
    pub use_monitors: bool,
    /// Execution model: `analytic` or `trace`.
    pub execution: String,
    /// Consecutive-failure threshold for the EqualShare fallback.
    pub max_consecutive_failures: usize,
    /// The fault-injection plan, if any (all knobs bit-exact).
    pub faults: Option<FaultPlan>,
}

impl SimMeta {
    fn render(&self, out: &mut String) {
        out.push_str("[meta]\n");
        out.push_str(&format!("mechanism={}\n", self.mechanism));
        out.push_str(&format!("cores={}\n", self.cores));
        out.push_str(&format!("resources={}\n", self.resources));
        for (i, app) in self.apps.iter().enumerate() {
            out.push_str(&format!("app.{i}={app}\n"));
        }
        out.push_str(&format!("seed={}\n", self.seed));
        out.push_str(&format!("budget={}\n", f64_hex(self.budget)));
        out.push_str(&format!(
            "accesses_per_quantum={}\n",
            self.accesses_per_quantum
        ));
        out.push_str(&format!("use_monitors={}\n", u8::from(self.use_monitors)));
        out.push_str(&format!("execution={}\n", self.execution));
        out.push_str(&format!(
            "max_consecutive_failures={}\n",
            self.max_consecutive_failures
        ));
        render_faults(out, self.faults.as_ref());
    }

    fn parse(meta: &Section) -> Result<Self> {
        let cores: usize = meta.parse("cores")?;
        let mut apps = Vec::with_capacity(cores);
        for i in 0..cores {
            apps.push(meta.get(&format!("app.{i}"))?.to_string());
        }
        Ok(Self {
            mechanism: meta.get("mechanism")?.to_string(),
            cores,
            resources: meta.parse("resources")?,
            apps,
            seed: meta.parse("seed")?,
            budget: meta.parse_f64_bits("budget")?,
            accesses_per_quantum: meta.parse("accesses_per_quantum")?,
            use_monitors: meta.parse_bool("use_monitors")?,
            execution: meta.get("execution")?.to_string(),
            max_consecutive_failures: meta.parse("max_consecutive_failures")?,
            faults: parse_faults(meta)?,
        })
    }

    /// Checks that `self` (the resuming run) matches `snapshot` and names
    /// the first disagreeing field otherwise.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ConfigMismatch`] naming the first field that
    /// differs between the two configurations.
    pub fn ensure_matches(&self, snapshot: &SimMeta) -> Result<()> {
        fn check(
            what: &str,
            expected: impl fmt::Debug,
            found: impl fmt::Debug,
            same: bool,
        ) -> Result<()> {
            if same {
                Ok(())
            } else {
                Err(CheckpointError::ConfigMismatch {
                    what: what.to_string(),
                    expected: format!("{expected:?}"),
                    found: format!("{found:?}"),
                })
            }
        }
        check(
            "mechanism",
            &self.mechanism,
            &snapshot.mechanism,
            self.mechanism == snapshot.mechanism,
        )?;
        check(
            "cores",
            self.cores,
            snapshot.cores,
            self.cores == snapshot.cores,
        )?;
        check(
            "resources",
            self.resources,
            snapshot.resources,
            self.resources == snapshot.resources,
        )?;
        check(
            "apps",
            &self.apps,
            &snapshot.apps,
            self.apps == snapshot.apps,
        )?;
        check("seed", self.seed, snapshot.seed, self.seed == snapshot.seed)?;
        check(
            "budget",
            self.budget,
            snapshot.budget,
            self.budget.to_bits() == snapshot.budget.to_bits(),
        )?;
        check(
            "accesses_per_quantum",
            self.accesses_per_quantum,
            snapshot.accesses_per_quantum,
            self.accesses_per_quantum == snapshot.accesses_per_quantum,
        )?;
        check(
            "use_monitors",
            self.use_monitors,
            snapshot.use_monitors,
            self.use_monitors == snapshot.use_monitors,
        )?;
        check(
            "execution",
            &self.execution,
            &snapshot.execution,
            self.execution == snapshot.execution,
        )?;
        check(
            "max_consecutive_failures",
            self.max_consecutive_failures,
            snapshot.max_consecutive_failures,
            self.max_consecutive_failures == snapshot.max_consecutive_failures,
        )?;
        let faults_match = match (&self.faults, &snapshot.faults) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.seed == b.seed
                    && a.noise_sigma.to_bits() == b.noise_sigma.to_bits()
                    && a.spike_probability.to_bits() == b.spike_probability.to_bits()
                    && a.spike_probability_magnitude.to_bits()
                        == b.spike_probability_magnitude.to_bits()
                    && a.stale_probability.to_bits() == b.stale_probability.to_bits()
                    && a.stale_depth == b.stale_depth
                    && a.drop_probability.to_bits() == b.drop_probability.to_bits()
                    && a.nan_probability.to_bits() == b.nan_probability.to_bits()
                    && a.liars == b.liars
                    && a.liar_exaggeration.to_bits() == b.liar_exaggeration.to_bits()
            }
            _ => false,
        };
        check("faults", &self.faults, &snapshot.faults, faults_match)?;
        Ok(())
    }
}

/// Aggregate run counters captured at the snapshot boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimCounters {
    /// Equilibrium rounds across all recorded quanta.
    pub total_rounds: u64,
    /// Bidding–pricing iterations across all recorded quanta.
    pub total_iterations: u64,
    /// Whether every recorded quantum's solve converged.
    pub always_converged: bool,
    /// Consecutive failed quanta at the snapshot boundary (feeds the
    /// EqualShare fallback trigger).
    pub consecutive_failures: usize,
    /// Quanta that fell back to EqualShare.
    pub fallback_quanta: usize,
    /// Quanta whose solve failed or hit the fail-safe.
    pub degraded_quanta: usize,
    /// Solver guardrail recoveries across all recorded quanta.
    pub solver_recoveries: u64,
    /// Retry-ladder attempts beyond the first solve.
    pub retried_solves: u64,
    /// Solves that hit their deadline budget.
    pub timed_out_solves: u64,
}

impl SimCounters {
    fn render(&self, out: &mut String) {
        out.push_str("[counters]\n");
        out.push_str(&format!("total_rounds={}\n", self.total_rounds));
        out.push_str(&format!("total_iterations={}\n", self.total_iterations));
        out.push_str(&format!(
            "always_converged={}\n",
            u8::from(self.always_converged)
        ));
        out.push_str(&format!(
            "consecutive_failures={}\n",
            self.consecutive_failures
        ));
        out.push_str(&format!("fallback_quanta={}\n", self.fallback_quanta));
        out.push_str(&format!("degraded_quanta={}\n", self.degraded_quanta));
        out.push_str(&format!("solver_recoveries={}\n", self.solver_recoveries));
        out.push_str(&format!("retried_solves={}\n", self.retried_solves));
        out.push_str(&format!("timed_out_solves={}\n", self.timed_out_solves));
    }

    fn parse(section: &Section) -> Result<Self> {
        Ok(Self {
            total_rounds: section.parse("total_rounds")?,
            total_iterations: section.parse("total_iterations")?,
            always_converged: section.parse_bool("always_converged")?,
            consecutive_failures: section.parse("consecutive_failures")?,
            fallback_quanta: section.parse("fallback_quanta")?,
            degraded_quanta: section.parse("degraded_quanta")?,
            solver_recoveries: section.parse("solver_recoveries")?,
            retried_solves: section.parse("retried_solves")?,
            timed_out_solves: section.parse("timed_out_solves")?,
        })
    }
}

/// One completed quantum: the allocation that was enforced and the
/// measured instantaneous efficiency (used as a replay-divergence check).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumRecord {
    /// Row-major `cores × resources` allocation applied this quantum.
    pub allocation: Vec<f64>,
    /// Instantaneous weighted speedup the quantum produced.
    pub efficiency: f64,
}

/// A durable snapshot of a simulation run at a quantum boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint {
    /// The configuration the run was started with.
    pub meta: SimMeta,
    /// Aggregate counters at the boundary.
    pub counters: SimCounters,
    /// One record per completed quantum, in order.
    pub quanta: Vec<QuantumRecord>,
}

impl SimCheckpoint {
    /// Renders the snapshot to its on-disk text form (checksum included).
    #[must_use]
    pub fn render(&self) -> String {
        Self::render_parts(&self.meta, &self.counters, &self.quanta)
    }

    /// [`render`](Self::render) over borrowed parts — the per-quantum
    /// save path uses this to avoid cloning the run's record history.
    #[must_use]
    pub fn render_parts(
        meta: &SimMeta,
        counters: &SimCounters,
        quanta: &[QuantumRecord],
    ) -> String {
        let mut body = String::new();
        meta.render(&mut body);
        counters.render(&mut body);
        for (q, record) in quanta.iter().enumerate() {
            body.push_str(&format!("[quantum {q}]\n"));
            body.push_str(&format!("alloc={}\n", hex_list(&record.allocation)));
            body.push_str(&format!("eff={}\n", f64_hex(record.efficiency)));
        }
        seal("sim", &body)
    }

    /// Parses a snapshot from its on-disk text form, validating version,
    /// kind, structure, and checksum.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] variant except `Io`/`ConfigMismatch`.
    pub fn parse(text: &str) -> Result<Self> {
        let sections = open(text, "sim")?;
        let meta_section =
            sections
                .iter()
                .find(|s| s.name == "meta")
                .ok_or(CheckpointError::Format {
                    line: 0,
                    reason: "missing [meta] section".into(),
                })?;
        let counters_section =
            sections
                .iter()
                .find(|s| s.name == "counters")
                .ok_or(CheckpointError::Format {
                    line: 0,
                    reason: "missing [counters] section".into(),
                })?;
        let meta = SimMeta::parse(meta_section)?;
        let counters = SimCounters::parse(counters_section)?;
        let mut quanta = Vec::new();
        for section in sections.iter().filter(|s| s.name.starts_with("quantum ")) {
            let index: usize =
                section.name["quantum ".len()..]
                    .parse()
                    .map_err(|_| CheckpointError::Format {
                        line: section.line,
                        reason: format!("bad quantum section name `{}`", section.name),
                    })?;
            if index != quanta.len() {
                return Err(CheckpointError::Format {
                    line: section.line,
                    reason: format!(
                        "quantum sections out of order: expected {}, got {index}",
                        quanta.len()
                    ),
                });
            }
            let alloc_raw = section.get("alloc")?;
            let mut allocation = Vec::with_capacity(meta.cores * meta.resources);
            for word in alloc_raw.split_whitespace() {
                let bits = u64::from_str_radix(word, 16).map_err(|_| CheckpointError::Format {
                    line: section.line,
                    reason: format!("bad allocation word `{word}`"),
                })?;
                allocation.push(f64::from_bits(bits));
            }
            if allocation.len() != meta.cores * meta.resources {
                return Err(CheckpointError::Format {
                    line: section.line,
                    reason: format!(
                        "quantum {index} has {} allocation words, expected {}",
                        allocation.len(),
                        meta.cores * meta.resources
                    ),
                });
            }
            quanta.push(QuantumRecord {
                allocation,
                efficiency: section.parse_f64_bits("eff")?,
            });
        }
        Ok(Self {
            meta,
            counters,
            quanta,
        })
    }

    /// Writes the snapshot to `path` atomically, rotating any existing
    /// snapshot to `<path>.prev`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        write_atomic(path, &self.render())
    }

    /// [`save`](Self::save) over borrowed parts, avoiding any clone of
    /// the (growing) quantum history on the simulation hot path.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save_parts(
        path: &Path,
        meta: &SimMeta,
        counters: &SimCounters,
        quanta: &[QuantumRecord],
    ) -> Result<()> {
        write_atomic(path, &Self::render_parts(meta, counters, quanta))
    }

    /// Loads and validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// I/O, format, version, kind, or checksum errors.
    pub fn load(path: &Path) -> Result<Self> {
        Self::parse(&read_file(path)?)
    }

    /// Loads `path`, falling back to `<path>.prev` when the primary file
    /// is unreadable or fails validation. Returns the snapshot and
    /// whether the fallback generation was used.
    ///
    /// # Errors
    ///
    /// The *primary* file's error when the fallback also fails, so the
    /// caller sees why the live snapshot was rejected.
    pub fn load_with_fallback(path: &Path) -> Result<(Self, bool)> {
        match Self::load(path) {
            Ok(cp) => Ok((cp, false)),
            Err(primary) => match Self::load(&prev_path(path)) {
                Ok(cp) => Ok((cp, true)),
                Err(_) => Err(primary),
            },
        }
    }
}

// ---------------------------------------------------------------------------
// Sweep snapshots.
// ---------------------------------------------------------------------------

/// The configuration a sweep snapshot was taken under.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepMeta {
    /// Workload category label.
    pub category: String,
    /// Core count.
    pub cores: usize,
    /// Base per-player budget.
    pub base_budget: f64,
    /// Whether points normalize to the MaxEfficiency oracle.
    pub normalize: bool,
    /// The step values being swept, in order.
    pub steps: Vec<f64>,
}

impl SweepMeta {
    /// Checks that `self` (the resuming sweep) matches `snapshot`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ConfigMismatch`] naming the first disagreeing
    /// field.
    pub fn ensure_matches(&self, snapshot: &SweepMeta) -> Result<()> {
        let mismatch =
            |what: &str, expected: String, found: String| CheckpointError::ConfigMismatch {
                what: what.to_string(),
                expected,
                found,
            };
        if self.category != snapshot.category {
            return Err(mismatch(
                "category",
                self.category.clone(),
                snapshot.category.clone(),
            ));
        }
        if self.cores != snapshot.cores {
            return Err(mismatch(
                "cores",
                self.cores.to_string(),
                snapshot.cores.to_string(),
            ));
        }
        if self.base_budget.to_bits() != snapshot.base_budget.to_bits() {
            return Err(mismatch(
                "base_budget",
                self.base_budget.to_string(),
                snapshot.base_budget.to_string(),
            ));
        }
        if self.normalize != snapshot.normalize {
            return Err(mismatch(
                "normalize",
                self.normalize.to_string(),
                snapshot.normalize.to_string(),
            ));
        }
        let steps_match = self.steps.len() == snapshot.steps.len()
            && self
                .steps
                .iter()
                .zip(&snapshot.steps)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !steps_match {
            return Err(mismatch(
                "steps",
                format!("{:?}", self.steps),
                format!("{:?}", snapshot.steps),
            ));
        }
        Ok(())
    }
}

/// A durable snapshot of a knob sweep at a point boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// The sweep configuration.
    pub meta: SweepMeta,
    /// The MaxEfficiency oracle value, once computed.
    pub oracle: Option<f64>,
    /// Completed points, indexed like `meta.steps` (`None` = not yet run).
    pub points: Vec<Option<SweepPoint>>,
}

impl SweepCheckpoint {
    /// Creates an empty snapshot for a sweep configuration.
    #[must_use]
    pub fn new(meta: SweepMeta) -> Self {
        let n = meta.steps.len();
        Self {
            meta,
            oracle: None,
            points: vec![None; n],
        }
    }

    /// Indices of steps that still need computing.
    #[must_use]
    pub fn missing(&self) -> Vec<usize> {
        self.points
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.is_none().then_some(i))
            .collect()
    }

    /// Renders the snapshot to its on-disk text form (checksum included).
    #[must_use]
    pub fn render(&self) -> String {
        let mut body = String::new();
        body.push_str("[meta]\n");
        body.push_str(&format!("category={}\n", self.meta.category));
        body.push_str(&format!("cores={}\n", self.meta.cores));
        body.push_str(&format!("base_budget={}\n", f64_hex(self.meta.base_budget)));
        body.push_str(&format!("normalize={}\n", u8::from(self.meta.normalize)));
        body.push_str(&format!("steps={}\n", hex_list(&self.meta.steps)));
        if let Some(oracle) = self.oracle {
            body.push_str("[oracle]\n");
            body.push_str(&format!("value={}\n", f64_hex(oracle)));
        }
        for (k, point) in self.points.iter().enumerate() {
            let Some(p) = point else { continue };
            body.push_str(&format!("[point {k}]\n"));
            body.push_str(&format!("step={}\n", f64_hex(p.step)));
            body.push_str(&format!("efficiency={}\n", f64_hex(p.efficiency)));
            match p.normalized_efficiency {
                Some(v) => body.push_str(&format!("normalized={}\n", f64_hex(v))),
                None => body.push_str("normalized=none\n"),
            }
            body.push_str(&format!("envy_freeness={}\n", f64_hex(p.envy_freeness)));
            body.push_str(&format!("mur={}\n", f64_hex(p.mur)));
            body.push_str(&format!("mbr={}\n", f64_hex(p.mbr)));
            body.push_str(&format!("ef_floor={}\n", f64_hex(p.ef_floor)));
            body.push_str(&format!("converged={}\n", u8::from(p.solve.converged)));
            body.push_str(&format!("rounds={}\n", p.solve.rounds));
            body.push_str(&format!("iterations={}\n", p.solve.iterations));
            body.push_str(&format!("recoveries={}\n", p.solve.recoveries));
            body.push_str(&format!("retries={}\n", p.solve.retries));
            body.push_str(&format!("timed_out={}\n", p.solve.timed_out));
        }
        seal("sweep", &body)
    }

    /// Parses a snapshot from its on-disk text form.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] variant except `Io`/`ConfigMismatch`.
    pub fn parse(text: &str) -> Result<Self> {
        let sections = open(text, "sweep")?;
        let meta_section =
            sections
                .iter()
                .find(|s| s.name == "meta")
                .ok_or(CheckpointError::Format {
                    line: 0,
                    reason: "missing [meta] section".into(),
                })?;
        let steps_raw = meta_section.get("steps")?;
        let mut steps = Vec::new();
        for word in steps_raw.split_whitespace() {
            let bits = u64::from_str_radix(word, 16).map_err(|_| CheckpointError::Format {
                line: meta_section.line,
                reason: format!("bad step word `{word}`"),
            })?;
            steps.push(f64::from_bits(bits));
        }
        let meta = SweepMeta {
            category: meta_section.get("category")?.to_string(),
            cores: meta_section.parse("cores")?,
            base_budget: meta_section.parse_f64_bits("base_budget")?,
            normalize: meta_section.parse_bool("normalize")?,
            steps,
        };
        let oracle = match sections.iter().find(|s| s.name == "oracle") {
            Some(s) => Some(s.parse_f64_bits("value")?),
            None => None,
        };
        let mut points: Vec<Option<SweepPoint>> = vec![None; meta.steps.len()];
        for section in sections.iter().filter(|s| s.name.starts_with("point ")) {
            let index: usize =
                section.name["point ".len()..]
                    .parse()
                    .map_err(|_| CheckpointError::Format {
                        line: section.line,
                        reason: format!("bad point section name `{}`", section.name),
                    })?;
            if index >= points.len() {
                return Err(CheckpointError::Format {
                    line: section.line,
                    reason: format!("point index {index} beyond {} steps", points.len()),
                });
            }
            let normalized =
                match section.get("normalized")? {
                    "none" => None,
                    word => Some(u64::from_str_radix(word, 16).map(f64::from_bits).map_err(
                        |_| CheckpointError::Format {
                            line: section.line,
                            reason: format!("bad normalized word `{word}`"),
                        },
                    )?),
                };
            points[index] = Some(SweepPoint {
                step: section.parse_f64_bits("step")?,
                efficiency: section.parse_f64_bits("efficiency")?,
                normalized_efficiency: normalized,
                envy_freeness: section.parse_f64_bits("envy_freeness")?,
                mur: section.parse_f64_bits("mur")?,
                mbr: section.parse_f64_bits("mbr")?,
                ef_floor: section.parse_f64_bits("ef_floor")?,
                solve: SolveSummary {
                    converged: section.parse_bool("converged")?,
                    rounds: section.parse("rounds")?,
                    iterations: section.parse("iterations")?,
                    recoveries: section.parse("recoveries")?,
                    retries: section.parse("retries")?,
                    timed_out: section.parse("timed_out")?,
                },
            });
        }
        Ok(Self {
            meta,
            oracle,
            points,
        })
    }

    /// Writes the snapshot to `path` atomically, rotating any existing
    /// snapshot to `<path>.prev`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        write_atomic(path, &self.render())
    }

    /// Loads and validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// I/O, format, version, kind, or checksum errors.
    pub fn load(path: &Path) -> Result<Self> {
        Self::parse(&read_file(path)?)
    }

    /// Loads `path`, falling back to `<path>.prev` when the primary file
    /// fails. Returns the snapshot and whether the fallback was used.
    ///
    /// # Errors
    ///
    /// The primary file's error when the fallback also fails.
    pub fn load_with_fallback(path: &Path) -> Result<(Self, bool)> {
        match Self::load(path) {
            Ok(cp) => Ok((cp, false)),
            Err(primary) => match Self::load(&prev_path(path)) {
                Ok(cp) => Ok((cp, true)),
                Err(_) => Err(primary),
            },
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn sample_sim() -> SimCheckpoint {
        SimCheckpoint {
            meta: SimMeta {
                mechanism: "ReBudget-40".into(),
                cores: 2,
                resources: 2,
                apps: vec!["mcf#0".into(), "bzip2#1".into()],
                seed: 17,
                budget: 100.0,
                accesses_per_quantum: 8000,
                use_monitors: true,
                execution: "analytic".into(),
                max_consecutive_failures: 3,
                faults: Some(FaultPlan {
                    noise_sigma: 0.15,
                    drop_probability: 0.2,
                    liars: 1,
                    ..FaultPlan::new(9)
                }),
            },
            counters: SimCounters {
                total_rounds: 6,
                total_iterations: 120,
                always_converged: true,
                consecutive_failures: 1,
                fallback_quanta: 0,
                degraded_quanta: 1,
                solver_recoveries: 2,
                retried_solves: 1,
                timed_out_solves: 0,
            },
            quanta: vec![
                QuantumRecord {
                    allocation: vec![8.0, 40.0, 8.0, 40.0],
                    efficiency: 1.75,
                },
                QuantumRecord {
                    allocation: vec![10.5, 35.25, 5.5, 44.75],
                    efficiency: f64::from_bits(0x3ffc_cccc_cccc_cccd),
                },
            ],
        }
    }

    #[test]
    fn sim_round_trip_is_bit_exact() {
        let cp = sample_sim();
        let parsed = SimCheckpoint::parse(&cp.render()).unwrap();
        assert_eq!(parsed, cp);
        for (a, b) in parsed.quanta.iter().zip(&cp.quanta) {
            assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
            for (x, y) in a.allocation.iter().zip(&b.allocation) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn special_floats_round_trip() {
        let mut cp = sample_sim();
        cp.quanta[0].allocation = vec![f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE / 8.0];
        cp.quanta[0].efficiency = f64::NEG_INFINITY;
        let parsed = SimCheckpoint::parse(&cp.render()).unwrap();
        for (a, b) in parsed.quanta[0]
            .allocation
            .iter()
            .zip(&cp.quanta[0].allocation)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            parsed.quanta[0].efficiency.to_bits(),
            cp.quanta[0].efficiency.to_bits()
        );
    }

    #[test]
    fn corruption_is_detected() {
        let text = sample_sim().render();
        // Flip a digit inside the body (not the checksum line).
        let idx = text.find("total_iterations=120").unwrap() + "total_iterations=".len();
        let mut corrupt = text.clone();
        corrupt.replace_range(idx..idx + 3, "121");
        assert!(matches!(
            SimCheckpoint::parse(&corrupt),
            Err(CheckpointError::Checksum { .. })
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let text = sample_sim().render();
        // Cut mid-file: the checksum trailer disappears entirely.
        let cut = &text[..text.len() / 2];
        assert!(matches!(
            SimCheckpoint::parse(cut),
            Err(CheckpointError::Format { .. })
        ));
        // Cut right after the trailer tag: checksum record missing.
        let at = text.rfind("[checksum]").unwrap() + "[checksum]\n".len();
        assert!(matches!(
            SimCheckpoint::parse(&text[..at]),
            Err(CheckpointError::Format { .. })
        ));
    }

    #[test]
    fn wrong_version_and_kind_are_rejected() {
        let text = sample_sim().render();
        let v9 = text.replace("rebudget-checkpoint v1 sim", "rebudget-checkpoint v9 sim");
        assert!(matches!(
            SimCheckpoint::parse(&v9),
            Err(CheckpointError::Version { found: 9 })
        ));
        assert!(matches!(
            SweepCheckpoint::parse(&text),
            Err(CheckpointError::Kind {
                expected: "sweep",
                ..
            })
        ));
        assert!(matches!(
            SimCheckpoint::parse("#!/bin/sh\necho hello\n"),
            Err(CheckpointError::Format { line: 1, .. })
        ));
    }

    #[test]
    fn config_mismatch_names_the_field() {
        let cp = sample_sim();
        let mut other = cp.meta.clone();
        other.seed = 18;
        let err = other.ensure_matches(&cp.meta).unwrap_err();
        match err {
            CheckpointError::ConfigMismatch { what, .. } => assert_eq!(what, "seed"),
            other => panic!("unexpected {other:?}"),
        }
        let mut faulted = cp.meta.clone();
        faulted.faults = None;
        assert!(matches!(
            faulted.ensure_matches(&cp.meta),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        cp.meta.clone().ensure_matches(&cp.meta).unwrap();
    }

    #[test]
    fn atomic_save_rotates_generations() {
        let dir = std::env::temp_dir().join(format!("rebudget-cp-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rotate.ckpt");
        let mut cp = sample_sim();
        cp.save(&path).unwrap();
        assert!(!prev_path(&path).exists(), "no prev after first save");
        let first = cp.clone();
        cp.counters.total_rounds += 1;
        cp.save(&path).unwrap();
        assert_eq!(SimCheckpoint::load(&path).unwrap(), cp);
        assert_eq!(SimCheckpoint::load(&prev_path(&path)).unwrap(), first);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_with_fallback_uses_prev_generation() {
        let dir = std::env::temp_dir().join(format!("rebudget-cp-fb-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fallback.ckpt");
        let mut cp = sample_sim();
        cp.save(&path).unwrap();
        let first = cp.clone();
        cp.counters.total_rounds += 1;
        cp.save(&path).unwrap();
        // Corrupt the live generation; the previous one must be served.
        let mut text = fs::read_to_string(&path).unwrap();
        text.truncate(text.len() / 3);
        fs::write(&path, text).unwrap();
        let (loaded, used_prev) = SimCheckpoint::load_with_fallback(&path).unwrap();
        assert!(used_prev);
        assert_eq!(loaded, first);
        // Corrupt both: the primary error surfaces.
        fs::write(prev_path(&path), "garbage").unwrap();
        assert!(SimCheckpoint::load_with_fallback(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = SimCheckpoint::load(Path::new("/nonexistent/rebudget.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn sweep_round_trip_with_partial_points() {
        let meta = SweepMeta {
            category: "cpbn".into(),
            cores: 8,
            base_budget: 100.0,
            normalize: true,
            steps: vec![0.0, 20.0, 40.0],
        };
        let mut cp = SweepCheckpoint::new(meta);
        assert_eq!(cp.missing(), vec![0, 1, 2]);
        cp.oracle = Some(7.25);
        cp.points[1] = Some(SweepPoint {
            step: 20.0,
            efficiency: 6.5,
            normalized_efficiency: Some(6.5 / 7.25),
            envy_freeness: 0.93,
            mur: 1.4,
            mbr: 2.0,
            ef_floor: 0.83,
            solve: SolveSummary {
                converged: true,
                rounds: 3,
                iterations: 57,
                recoveries: 0,
                retries: 1,
                timed_out: 0,
            },
        });
        let parsed = SweepCheckpoint::parse(&cp.render()).unwrap();
        assert_eq!(parsed, cp);
        assert_eq!(parsed.missing(), vec![0, 2]);
        assert_eq!(parsed.oracle.unwrap().to_bits(), 7.25f64.to_bits());
        // Meta self-check and mismatch detection.
        parsed.meta.ensure_matches(&cp.meta).unwrap();
        let mut other = cp.meta.clone();
        other.steps = vec![0.0, 20.0];
        assert!(matches!(
            other.ensure_matches(&cp.meta),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

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
        assert_eq!(f64_hex(1.0), "3ff0000000000000");
        assert_eq!(f64_hex(-0.0), "8000000000000000");
        assert_eq!(hex_list(&[]), "");
        assert_eq!(hex_list(&[1.0, 2.0]), "3ff0000000000000 4000000000000000");
    }

    #[test]
    fn display_messages_are_informative() {
        let errors: Vec<CheckpointError> = vec![
            CheckpointError::Io {
                path: "x".into(),
                message: "denied".into(),
            },
            CheckpointError::Format {
                line: 3,
                reason: "bad".into(),
            },
            CheckpointError::Version { found: 2 },
            CheckpointError::Kind {
                expected: "sim",
                found: "sweep".into(),
            },
            CheckpointError::Checksum {
                expected: 1,
                found: 2,
            },
            CheckpointError::ConfigMismatch {
                what: "seed".into(),
                expected: "1".into(),
                found: "2".into(),
            },
            CheckpointError::ReplayDivergence { quantum: 4 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}
