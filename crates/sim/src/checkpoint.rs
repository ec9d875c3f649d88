//! Durable checkpoint/restore for simulations and sweeps.
//!
//! Long runs die: machines reboot, jobs get preempted, batch schedulers
//! kill over-quota work. This module makes the quantum loop of
//! [`crate::simulation`] and the knob sweep of [`rebudget_core::sweep`]
//! *resumable*: each completed quantum (or sweep point) is appended to a
//! log on disk, and a later process can pick the run back up and produce
//! **bit-identical** results to an uninterrupted run.
//!
//! # Format
//!
//! A checkpoint is an append-only, hash-chained log over
//! [`crate::durable`] (DESIGN.md, "Durable codec"), the machinery the
//! scenario and server ledgers use: a `rebudget-checkpoint v2 <sim|sweep>`
//! header, `[meta]` with the run's configuration, then one `[quantum N]`
//! (or `[point N]`) record per completed step, each closed by `chain=`.
//! Appending a record costs O(record). A resume reads the longest
//! chain-valid prefix, so a torn tail or a damaged record costs only the
//! records from the damage on; a run that checkpoints into the file it
//! resumed from cuts that tail off and continues the chain. The resume
//! streams the file once through the codec's one read buffer
//! ([`durable::LogFormat::read_records`]) and decodes each record as its
//! chain validates, so it holds one record's text at a time and the
//! decoded records, never the file. The meta
//! lines carry no checksum of their own (the first record's chain covers
//! them): damage there leaves no valid record and a meta that is not the
//! run's, so the resume is refused by [`SimMeta::ensure_matches`] or a
//! format error, before the file changes.
//!
//! # Why replay instead of deep state serialization
//!
//! A simulation quantum's inputs split cleanly in two: the *monitors*
//! (UMON shadow tags, synthetic trace RNGs) evolve independently of the
//! allocation decisions, while the *machine* (thermal grid, energy,
//! per-core progress) depends only on the allocation applied each
//! quantum. A record therefore holds just the quantum's allocation, its
//! efficiency and the run's O(1) counters after it; resume re-runs
//! monitors and machine through the recorded quanta — skipping the
//! expensive market solves — and the deterministic pipeline reproduces
//! the exact pre-crash state. The recorded per-quantum efficiency doubles
//! as a replay-divergence check.

use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::Path;

use rebudget_core::mechanisms::SolveSummary;
use rebudget_core::sweep::SweepPoint;
use rebudget_market::FaultPlan;

use crate::durable::{self, LedgerPrefix, LogFile, LogFormat, Section, Writer};

/// The simulation checkpoint log: one `[quantum N]` record per quantum.
pub const SIM_LOG: LogFormat = LogFormat {
    header: "rebudget-checkpoint v2 sim",
    record: "quantum",
};

/// The sweep checkpoint log: one `[point N]` record per sweep step.
pub const SWEEP_LOG: LogFormat = LogFormat {
    header: "rebudget-checkpoint v2 sweep",
    record: "point",
};

/// Opens the `format` log a run checkpoints into at `path`. When the
/// run resumed from that same file (`resumed`: its path, valid prefix
/// and the records to keep), the file is cut to those records and
/// continued; any other file starts anew with the header and the meta
/// lines `meta` writes, and the run appends its reused records to it.
///
/// # Errors
///
/// As [`LogFile::resume`] or [`LogFile::create`].
pub fn open_log(
    path: &Path,
    format: LogFormat,
    resumed: Option<(&Path, &LedgerPrefix, usize)>,
    meta: impl FnOnce(&mut Writer),
) -> std::result::Result<LogFile, durable::Error> {
    match resumed {
        Some((from, prefix, records)) if from == path => {
            LogFile::resume(path, format, prefix, records)
        }
        _ => LogFile::create(path, format, meta),
    }
}

/// Errors from checkpoint parsing, validation, and I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The file involved.
        path: String,
        /// The OS error rendered as text.
        message: String,
    },
    /// The file is not a checkpoint of the expected kind and version
    /// (its header is named), or a chain-valid record is malformed.
    Format {
        /// 1-based line of the offending content (0 when the problem is
        /// the file as a whole).
        line: usize,
        /// What was wrong.
        reason: String,
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

impl From<durable::Error> for CheckpointError {
    fn from(e: durable::Error) -> Self {
        match e {
            durable::Error::Io { path, message } => CheckpointError::Io { path, message },
            durable::Error::Format { line, reason } => CheckpointError::Format { line, reason },
            other => CheckpointError::Format {
                line: 0,
                reason: other.to_string(),
            },
        }
    }
}

type Result<T> = std::result::Result<T, CheckpointError>;

/// A decode's result: every decode fault is a line-numbered
/// [`durable::Error::Format`].
type DecodeResult<T> = std::result::Result<T, durable::Error>;

/// Opens the log at `path` and decodes it with `parse`, naming the file
/// in an I/O error.
fn load<T>(path: &Path, parse: impl FnOnce(File) -> Result<T>) -> Result<T> {
    let io = |message: String| CheckpointError::Io {
        path: path.display().to_string(),
        message,
    };
    let file = File::open(path).map_err(|e| io(e.to_string()))?;
    parse(file).map_err(|e| match e {
        CheckpointError::Io { message, .. } => io(message),
        other => other,
    })
}

// ---------------------------------------------------------------------------
// Fault-plan serialization (bit-exact).
// ---------------------------------------------------------------------------

fn render_faults(w: &mut Writer, plan: Option<&FaultPlan>) {
    w.bool("faults", plan.is_some());
    let Some(p) = plan else { return };
    w.kv("fault.seed", p.seed);
    w.f64("fault.noise_sigma", p.noise_sigma);
    w.f64("fault.spike_probability", p.spike_probability);
    w.f64(
        "fault.spike_probability_magnitude",
        p.spike_probability_magnitude,
    );
    w.f64("fault.stale_probability", p.stale_probability);
    w.kv("fault.stale_depth", p.stale_depth);
    w.f64("fault.drop_probability", p.drop_probability);
    w.f64("fault.nan_probability", p.nan_probability);
    w.kv("fault.liars", p.liars);
    w.f64("fault.liar_exaggeration", p.liar_exaggeration);
}

fn parse_faults(meta: &Section<'_>) -> DecodeResult<Option<FaultPlan>> {
    if !meta.field("faults")?.bool()? {
        return Ok(None);
    }
    Ok(Some(FaultPlan {
        seed: meta.field("fault.seed")?.parse()?,
        noise_sigma: meta.field("fault.noise_sigma")?.f64()?,
        spike_probability: meta.field("fault.spike_probability")?.f64()?,
        spike_probability_magnitude: meta.field("fault.spike_probability_magnitude")?.f64()?,
        stale_probability: meta.field("fault.stale_probability")?.f64()?,
        stale_depth: meta.field("fault.stale_depth")?.parse()?,
        drop_probability: meta.field("fault.drop_probability")?.f64()?,
        nan_probability: meta.field("fault.nan_probability")?.f64()?,
        liars: meta.field("fault.liars")?.parse()?,
        liar_exaggeration: meta.field("fault.liar_exaggeration")?.f64()?,
    }))
}

// ---------------------------------------------------------------------------
// Simulation checkpoints.
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
    /// Writes the meta section's `key=value` lines.
    pub fn render(&self, w: &mut Writer) {
        w.kv("mechanism", &self.mechanism);
        w.kv("cores", self.cores);
        w.kv("resources", self.resources);
        for (i, app) in self.apps.iter().enumerate() {
            w.kv(&format!("app.{i}"), app);
        }
        w.kv("seed", self.seed);
        w.f64("budget", self.budget);
        w.kv("accesses_per_quantum", self.accesses_per_quantum);
        w.bool("use_monitors", self.use_monitors);
        w.kv("execution", &self.execution);
        w.kv("max_consecutive_failures", self.max_consecutive_failures);
        render_faults(w, self.faults.as_ref());
    }

    fn parse(meta: &Section<'_>) -> DecodeResult<Self> {
        let cores: usize = meta.field("cores")?.parse()?;
        // No capacity from a count read from the file: a hostile count
        // fails at the first missing `app.` key instead.
        let mut apps = Vec::new();
        for i in 0..cores {
            apps.push(meta.field(&format!("app.{i}"))?.text()?.to_string());
        }
        let parsed = Self {
            mechanism: meta.field("mechanism")?.text()?.to_string(),
            cores,
            resources: meta.field("resources")?.parse()?,
            apps,
            seed: meta.field("seed")?.parse()?,
            budget: meta.field("budget")?.f64()?,
            accesses_per_quantum: meta.field("accesses_per_quantum")?.parse()?,
            use_monitors: meta.field("use_monitors")?.bool()?,
            execution: meta.field("execution")?.text()?.to_string(),
            max_consecutive_failures: meta.field("max_consecutive_failures")?.parse()?,
            faults: parse_faults(meta)?,
        };
        // A record's allocation width is a product that must not overflow.
        let resources = parsed.resources;
        if cores.checked_mul(resources).is_none() {
            let reason = format!("{cores} cores of {resources} resources overflow an allocation");
            return Err(durable::Error::Format {
                line: meta.line,
                reason,
            });
        }
        Ok(parsed)
    }

    /// Checks that `self` (the resuming run) matches `snapshot` and names
    /// the first disagreeing field otherwise.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ConfigMismatch`] naming the first field that
    /// differs between the two configurations.
    pub fn ensure_matches(&self, snapshot: &SimMeta) -> Result<()> {
        ensure_same_rendering(|w| self.render(w), |w| snapshot.render(w))
    }
}

/// Compares two meta sections by their bit-exact renderings and names
/// the first `key=value` line that differs: equal lines mean equal
/// fields, floats bit for bit.
fn ensure_same_rendering(
    resuming: impl FnOnce(&mut Writer),
    snapshot: impl FnOnce(&mut Writer),
) -> Result<()> {
    let (mut ours, mut theirs) = (Writer::default(), Writer::default());
    resuming(&mut ours);
    snapshot(&mut theirs);
    let (mut ours, mut theirs) = (ours.text().lines(), theirs.text().lines());
    loop {
        let (expected, found) = match (ours.next(), theirs.next()) {
            (None, None) => return Ok(()),
            (a, b) if a == b => continue,
            (a, b) => (
                a.and_then(|l| l.split_once('=')),
                b.and_then(|l| l.split_once('=')),
            ),
        };
        let value = |kv: Option<(&str, &str)>| kv.map_or("(absent)", |(_, v)| v).to_string();
        return Err(CheckpointError::ConfigMismatch {
            what: expected.or(found).map_or("meta", |(k, _)| k).to_string(),
            expected: value(expected),
            found: value(found),
        });
    }
}

/// The run's aggregate counters after a quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimCounters {
    /// Health of every solve so far. A fallback quantum clears
    /// `converged` without tallying a solve.
    pub solve: SolveSummary,
    /// Consecutive failed quanta so far (feeds the EqualShare fallback
    /// trigger).
    pub consecutive_failures: usize,
    /// Quanta that fell back to EqualShare.
    pub fallback_quanta: usize,
    /// Quanta whose solve failed or hit the fail-safe.
    pub degraded_quanta: usize,
}

impl SimCounters {
    fn render(&self, w: &mut Writer) {
        w.kv("total_rounds", self.solve.rounds);
        w.kv("total_iterations", self.solve.iterations);
        w.bool("always_converged", self.solve.converged);
        w.kv("consecutive_failures", self.consecutive_failures);
        w.kv("fallback_quanta", self.fallback_quanta);
        w.kv("degraded_quanta", self.degraded_quanta);
        w.kv("solver_recoveries", self.solve.recoveries);
        w.kv("retried_solves", self.solve.retries);
        w.kv("timed_out_solves", self.solve.timed_out);
    }

    fn parse(section: &Section<'_>) -> DecodeResult<Self> {
        Ok(Self {
            solve: SolveSummary {
                rounds: section.field("total_rounds")?.parse()?,
                iterations: section.field("total_iterations")?.parse()?,
                converged: section.field("always_converged")?.bool()?,
                recoveries: section.field("solver_recoveries")?.parse()?,
                retries: section.field("retried_solves")?.parse()?,
                timed_out: section.field("timed_out_solves")?.parse()?,
            },
            consecutive_failures: section.field("consecutive_failures")?.parse()?,
            fallback_quanta: section.field("fallback_quanta")?.parse()?,
            degraded_quanta: section.field("degraded_quanta")?.parse()?,
        })
    }
}

/// One completed quantum: the allocation that was enforced, the measured
/// instantaneous efficiency (used as a replay-divergence check) and the
/// run's counters after it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumRecord {
    /// Row-major `cores × resources` allocation applied this quantum.
    pub allocation: Vec<f64>,
    /// Instantaneous weighted speedup the quantum produced.
    pub efficiency: f64,
    /// The run's counters after this quantum.
    pub counters: SimCounters,
}

/// Writes one `[quantum N]` record's fields.
pub fn write_quantum(w: &mut Writer, allocation: &[f64], efficiency: f64, counters: &SimCounters) {
    w.f64_list("alloc", allocation);
    w.f64("eff", efficiency);
    counters.render(w);
}

/// The chain-valid prefix of a simulation checkpoint log.
#[derive(Debug, Clone, PartialEq)]
pub struct SimCheckpoint {
    /// The configuration the run was started with.
    pub meta: SimMeta,
    /// One record per completed quantum, in order.
    pub quanta: Vec<QuantumRecord>,
    /// The log's valid prefix, where a run checkpointing into the same
    /// file continues it.
    pub prefix: LedgerPrefix,
}

impl SimCheckpoint {
    /// Loads the chain-valid prefix of the checkpoint log at `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] for an unreadable file, else as
    /// [`SimCheckpoint::parse`].
    pub fn load(path: &Path) -> Result<Self> {
        load(path, Self::parse)
    }

    /// Decodes the chain-valid prefix of the checkpoint log in `reader`
    /// as it streams: a torn tail or a damaged record drops only the
    /// records from the damage on (damaged meta lines parse as they read).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] (with an empty path) when a read fails,
    /// else [`CheckpointError::Format`] for a header that is not this
    /// version's (it is named) or a malformed meta section or record.
    pub fn parse(reader: impl Read) -> Result<Self> {
        let mut quanta = Vec::new();
        let (meta, prefix) = SIM_LOG.read_records(reader, SimMeta::parse, |meta, _, section| {
            quantum(meta, section).map(|record| quanta.push(record))
        })?;
        Ok(Self {
            meta,
            quanta,
            prefix,
        })
    }
}

/// One `[quantum N]` record under `meta`.
fn quantum(meta: &SimMeta, section: &Section<'_>) -> DecodeResult<QuantumRecord> {
    let width = meta.cores * meta.resources;
    let mut allocation = Vec::new();
    section.field("alloc")?.f64_list_into(&mut allocation)?;
    if allocation.len() != width {
        return Err(durable::Error::Format {
            line: section.line,
            reason: format!(
                "[{}] has {} allocation words, expected {width}",
                section.name,
                allocation.len()
            ),
        });
    }
    Ok(QuantumRecord {
        allocation,
        efficiency: section.field("eff")?.f64()?,
        counters: SimCounters::parse(section)?,
    })
}

// ---------------------------------------------------------------------------
// Sweep checkpoints.
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
    /// Writes the meta section's `key=value` lines.
    pub fn render(&self, w: &mut Writer) {
        w.kv("category", &self.category);
        w.kv("cores", self.cores);
        w.f64("base_budget", self.base_budget);
        w.bool("normalize", self.normalize);
        w.f64_list("steps", &self.steps);
    }

    /// Checks that `self` (the resuming sweep) matches `snapshot`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::ConfigMismatch`] naming the first disagreeing
    /// field.
    pub fn ensure_matches(&self, snapshot: &SweepMeta) -> Result<()> {
        ensure_same_rendering(|w| self.render(w), |w| snapshot.render(w))
    }
}

/// Writes one `[point N]` record's fields: the point and the
/// MaxEfficiency oracle it was normalized against.
pub fn write_point(w: &mut Writer, oracle: f64, p: &SweepPoint) {
    w.f64("oracle", oracle);
    w.f64("step", p.step);
    w.f64("efficiency", p.efficiency);
    match p.normalized_efficiency {
        Some(v) => w.f64("normalized", v),
        None => w.kv("normalized", "none"),
    }
    w.f64("envy_freeness", p.envy_freeness);
    w.f64("mur", p.mur);
    w.f64("mbr", p.mbr);
    w.f64("ef_floor", p.ef_floor);
    w.bool("converged", p.solve.converged);
    w.kv("rounds", p.solve.rounds);
    w.kv("iterations", p.solve.iterations);
    w.kv("recoveries", p.solve.recoveries);
    w.kv("retries", p.solve.retries);
    w.kv("timed_out", p.solve.timed_out);
}

/// The chain-valid prefix of a sweep checkpoint log.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCheckpoint {
    /// The sweep configuration.
    pub meta: SweepMeta,
    /// The MaxEfficiency oracle the points were normalized against
    /// (`None` before the first point).
    pub oracle: Option<f64>,
    /// The completed points: the first `points.len()` steps, in order.
    pub points: Vec<SweepPoint>,
    /// The log's valid prefix, where a sweep checkpointing into the same
    /// file continues it.
    pub prefix: LedgerPrefix,
}

impl SweepCheckpoint {
    /// Loads the chain-valid prefix of the sweep log at `path`.
    ///
    /// # Errors
    ///
    /// As [`SimCheckpoint::load`].
    pub fn load(path: &Path) -> Result<Self> {
        load(path, Self::parse)
    }

    /// Decodes the chain-valid prefix of the sweep log in `reader` as it
    /// streams.
    ///
    /// # Errors
    ///
    /// As [`SimCheckpoint::parse`].
    pub fn parse(reader: impl Read) -> Result<Self> {
        let (mut oracle, mut points) = (None, Vec::new());
        let (meta, prefix) = SWEEP_LOG.read_records(reader, sweep_meta, |meta, k, section| {
            let (at, point) = point(meta, section, k)?;
            oracle = Some(at);
            points.push(point);
            Ok(())
        })?;
        Ok(Self {
            meta,
            oracle,
            points,
            prefix,
        })
    }
}

fn sweep_meta(m: &Section<'_>) -> DecodeResult<SweepMeta> {
    let mut meta = SweepMeta {
        category: m.field("category")?.text()?.to_string(),
        cores: m.field("cores")?.parse()?,
        base_budget: m.field("base_budget")?.f64()?,
        normalize: m.field("normalize")?.bool()?,
        steps: Vec::new(),
    };
    m.field("steps")?.f64_list_into(&mut meta.steps)?;
    Ok(meta)
}

/// Record `k` of a sweep log: the MaxEfficiency oracle and the point.
fn point(meta: &SweepMeta, section: &Section<'_>, k: usize) -> DecodeResult<(f64, SweepPoint)> {
    if k == meta.steps.len() {
        return Err(durable::Error::Format {
            line: section.line,
            reason: format!("more points than the {} steps", meta.steps.len()),
        });
    }
    let normalized = section.field("normalized")?;
    let normalized_efficiency = (normalized.value != b"none").then(|| normalized.f64());
    let normalized_efficiency = normalized_efficiency.transpose()?;
    let oracle = section.field("oracle")?.f64()?;
    let point = SweepPoint {
        step: section.field("step")?.f64()?,
        efficiency: section.field("efficiency")?.f64()?,
        normalized_efficiency,
        envy_freeness: section.field("envy_freeness")?.f64()?,
        mur: section.field("mur")?.f64()?,
        mbr: section.field("mbr")?.f64()?,
        ef_floor: section.field("ef_floor")?.f64()?,
        solve: SolveSummary {
            converged: section.field("converged")?.bool()?,
            rounds: section.field("rounds")?.parse()?,
            iterations: section.field("iterations")?.parse()?,
            recoveries: section.field("recoveries")?.parse()?,
            retries: section.field("retries")?.parse()?,
            timed_out: section.field("timed_out")?.parse()?,
        },
    };
    Ok((oracle, point))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::durable::{Field, Ledger, LEDGER};

    fn sample_meta() -> SimMeta {
        SimMeta {
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
        }
    }

    fn sample_quanta() -> Vec<QuantumRecord> {
        let counters = |rounds: u64| SimCounters {
            solve: SolveSummary {
                converged: true,
                rounds,
                iterations: 60 * rounds,
                recoveries: 2,
                retries: 1,
                timed_out: 0,
            },
            consecutive_failures: 1,
            fallback_quanta: 0,
            degraded_quanta: 1,
        };
        vec![
            QuantumRecord {
                allocation: vec![8.0, 40.0, 8.0, 40.0],
                efficiency: 1.75,
                counters: counters(3),
            },
            QuantumRecord {
                allocation: vec![10.5, 35.25, 5.5, 44.75],
                efficiency: f64::from_bits(0x3ffc_cccc_cccc_cccd),
                counters: counters(6),
            },
        ]
    }

    /// The log text a run with `meta` writes for `quanta`.
    fn sim_log(meta: &SimMeta, quanta: &[QuantumRecord]) -> String {
        let mut log = Ledger::new(SIM_LOG, |w| meta.render(w));
        for (q, r) in quanta.iter().enumerate() {
            log.append_section(q, |w| {
                write_quantum(w, &r.allocation, r.efficiency, &r.counters);
            });
        }
        log.text().to_string()
    }

    fn assert_same_bits(a: &[QuantumRecord], b: &[QuantumRecord]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.efficiency.to_bits(), y.efficiency.to_bits());
            assert_eq!(x.counters, y.counters);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.allocation), bits(&y.allocation));
        }
    }

    #[test]
    fn sim_round_trip_is_bit_exact() {
        let (meta, quanta) = (sample_meta(), sample_quanta());
        let text = sim_log(&meta, &quanta);
        let parsed = SimCheckpoint::parse(text.as_bytes()).unwrap();
        assert_eq!(parsed.meta, meta);
        assert_same_bits(&parsed.quanta, &quanta);
        assert_eq!(parsed.prefix.records, 2);
        assert_eq!(parsed.prefix.bytes, text.len());
    }

    #[test]
    fn special_floats_round_trip() {
        let mut quanta = sample_quanta();
        quanta[0].allocation = vec![f64::NAN, f64::INFINITY, -0.0, f64::MIN_POSITIVE / 8.0];
        quanta[0].efficiency = f64::NEG_INFINITY;
        let text = sim_log(&sample_meta(), &quanta);
        assert_same_bits(
            &SimCheckpoint::parse(text.as_bytes()).unwrap().quanta,
            &quanta,
        );
    }

    #[test]
    fn corruption_is_detected() {
        // Every truncation and every single-bit flip of a sim and a sweep
        // log is a typed error or parses to a prefix of the records, cut
        // at or before the damage; none panics. Meta lines carry no
        // checksum of their own, so damage there costs every record, and
        // the damaged meta then fails the resuming run's config check.
        let (meta, quanta) = (sample_meta(), sample_quanta());
        let text = sim_log(&meta, &quanta);
        let whole = SimCheckpoint::parse(text.as_bytes()).unwrap();
        for_each_damaged(&text, |v, at| match same_as_reference(v, at) {
            Ok(cp) => {
                assert!(cp.meta == meta || at < whole.prefix.header_bytes, "{at}");
                let end = cp.prefix.record_ends.last();
                assert!(
                    end.is_none_or(|&end| end <= at),
                    "a record past the damage at {at}"
                );
                assert_same_bits(&cp.quanta, &quanta[..cp.quanta.len()]);
                assert_eq!(
                    cp.prefix.record_ends[..],
                    whole.prefix.record_ends[..cp.quanta.len()]
                );
            }
            Err(e) => assert!(matches!(e, CheckpointError::Format { .. }), "{at}: {e}"),
        });
        let (sweep, points) = sample_sweep();
        let text = sweep_log(&sweep, &points);
        for_each_damaged(&text, |v, at| match same_as_reference_sweep(v, at) {
            Ok(cp) => {
                let end = cp.prefix.record_ends.last();
                assert!(
                    end.is_none_or(|&end| end <= at),
                    "a record past the damage at {at}"
                );
                assert_eq!(cp.points[..], points[..cp.points.len()]);
            }
            Err(e) => assert!(matches!(e, CheckpointError::Format { .. }), "{at}: {e}"),
        });
    }

    /// The streaming decode of `bytes`, once checked to return what the
    /// [`reference_sim`] decode returns, value or error.
    fn same_as_reference(bytes: &[u8], what: impl fmt::Debug) -> Result<SimCheckpoint> {
        let got = SimCheckpoint::parse(bytes);
        let want = reference_sim(bytes);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what:?}");
        got
    }

    /// [`same_as_reference`] for a sweep log.
    fn same_as_reference_sweep(bytes: &[u8], what: impl fmt::Debug) -> Result<SweepCheckpoint> {
        let got = SweepCheckpoint::parse(bytes);
        let want = reference_sweep(bytes);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what:?}");
        got
    }

    /// A log's text split into its `[name]` sections, as the whole-prefix
    /// decode once did before the streaming
    /// [`durable::LogFormat::read_records`] replaced it.
    struct Document<'a> {
        /// Each section's name, line and `key=value` lines.
        sections: Vec<(&'a str, usize, Vec<Field<'a>>)>,
    }

    impl<'a> Document<'a> {
        /// Splits `text`, a header line and then its sections.
        fn parse(text: &'a str) -> Result<Self> {
            let mut sections: Vec<(&'a str, usize, Vec<Field<'a>>)> = Vec::new();
            for (k, line) in text.split_inclusive('\n').enumerate() {
                let number = k + 1;
                let content = line.strip_suffix('\n').unwrap_or(line);
                let fault = |reason: String| CheckpointError::Format {
                    line: number,
                    reason,
                };
                let name = content.strip_prefix('[').and_then(|l| l.strip_suffix(']'));
                let field = content.split_once('=');
                match (number, name, field, sections.last_mut()) {
                    (1, _, _, _) => {}
                    (_, Some(name), _, _) => sections.push((name, number, Vec::new())),
                    (_, None, None, _) => {
                        return Err(fault(format!("unrecognized line `{content}`")));
                    }
                    (_, None, _, None) => {
                        return Err(fault("key=value before any [section]".into()));
                    }
                    (_, None, Some((key, value)), Some((_, _, fields))) => fields.push(Field {
                        line: number,
                        key: key.as_bytes(),
                        value: value.as_bytes(),
                    }),
                }
            }
            Ok(Self { sections })
        }

        /// Every section, in file order.
        fn sections(&self) -> impl Iterator<Item = Section<'_>> + use<'_, 'a> {
            (self.sections.iter()).map(|(name, line, fields)| Section {
                name,
                line: *line,
                fields,
            })
        }

        /// The one section called `name`.
        fn section(&self, name: &str) -> Result<Section<'_>> {
            let mut found = self.sections().filter(|s| s.name == name);
            match (found.next(), found.next()) {
                (_, Some(again)) => Err(CheckpointError::Format {
                    line: again.line,
                    reason: format!("repeated [{name}] section"),
                }),
                (first, None) => first.ok_or_else(|| CheckpointError::Format {
                    line: 0,
                    reason: format!("missing [{name}] section"),
                }),
            }
        }

        /// The records after the first section, checked to be
        /// `[<record> 0]`, `[<record> 1]`, … in order.
        fn records(
            &self,
            format: LogFormat,
        ) -> impl Iterator<Item = Result<Section<'_>>> + use<'_, 'a> {
            self.sections()
                .skip(1)
                .enumerate()
                .map(move |(k, section)| {
                    let index = section
                        .name
                        .strip_prefix(format.record)
                        .and_then(|rest| rest.strip_prefix(' '))
                        .and_then(|n| n.parse::<usize>().ok());
                    if index == Some(k) {
                        return Ok(section);
                    }
                    Err(CheckpointError::Format {
                        line: section.line,
                        reason: format!(
                            "{} sections out of order: expected [{} {k}], got [{}]",
                            format.record, format.record, section.name
                        ),
                    })
                })
        }
    }

    /// The valid prefix of the `format` log `bytes` cut to its whole
    /// records, read whole and split into a [`Document`].
    fn reference_records(format: LogFormat, bytes: &[u8]) -> Result<(LedgerPrefix, Document<'_>)> {
        let prefix = format.valid_prefix(bytes);
        if prefix.header_bytes == 0 {
            let first = bytes.split(|&b| b == b'\n').next().unwrap_or_default();
            if bytes.is_empty() || first == format.header.as_bytes() {
                let reason = "empty or headerless file".into();
                return Err(CheckpointError::Format { line: 1, reason });
            }
            let reason = format!(
                "bad header '{}' (expected '{}')",
                String::from_utf8_lossy(first),
                format.header
            );
            return Err(CheckpointError::Format { line: 1, reason });
        }
        let text = std::str::from_utf8(&bytes[..prefix.cut(prefix.records)]).map_err(|e| {
            let reason = format!("not text: {e}");
            CheckpointError::Format { line: 0, reason }
        })?;
        Ok((prefix, Document::parse(text)?))
    }

    /// The whole-prefix decode of a sim log: the reference the streaming
    /// [`SimCheckpoint::parse`] must match, value and error alike.
    fn reference_sim(bytes: &[u8]) -> Result<SimCheckpoint> {
        let (prefix, doc) = reference_records(SIM_LOG, bytes)?;
        let meta = SimMeta::parse(&doc.section("meta")?)?;
        let mut quanta = Vec::new();
        for section in doc.records(SIM_LOG) {
            quanta.push(quantum(&meta, &section?)?);
        }
        Ok(SimCheckpoint {
            meta,
            quanta,
            prefix,
        })
    }

    /// [`reference_sim`] for a sweep log.
    fn reference_sweep(bytes: &[u8]) -> Result<SweepCheckpoint> {
        let (prefix, doc) = reference_records(SWEEP_LOG, bytes)?;
        let meta = sweep_meta(&doc.section("meta")?)?;
        let (mut oracle, mut points) = (None, Vec::new());
        for (k, section) in doc.records(SWEEP_LOG).enumerate() {
            let (at, point) = point(&meta, &section?, k)?;
            oracle = Some(at);
            points.push(point);
        }
        Ok(SweepCheckpoint {
            meta,
            oracle,
            points,
            prefix,
        })
    }

    #[test]
    fn stream_matches_the_document_reference_on_every_golden_file() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/durable");
        let mut files = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let text = std::fs::read_to_string(entry.unwrap().path()).unwrap();
            files += 1;
            // The whole file, every cut of it (a torn last line included),
            // every line replaced by one without `=` and every line
            // repeated.
            let mut inputs: Vec<String> = (0..=text.len()).map(|cut| text[..cut].into()).collect();
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            for k in 0..lines.len() {
                let mut edited = lines.clone();
                edited[k] = "bad line\n";
                inputs.push(edited.concat());
                edited[k] = lines[k];
                edited.insert(k, lines[k]);
                inputs.push(edited.concat());
            }
            for input in &inputs {
                let bytes = input.as_bytes();
                same_as_reference(bytes, input).ok();
                same_as_reference_sweep(bytes, input).ok();
                // Every log format's sections, in order.
                for format in [SIM_LOG, SWEEP_LOG, LEDGER] {
                    let mut got = Vec::new();
                    let streamed = format
                        .read_records(
                            bytes,
                            |m| Ok(format!("{m:?}")),
                            |_, k, s| {
                                got.push(format!("{k} {s:?}"));
                                Ok(())
                            },
                        )
                        .map_err(CheckpointError::from)
                        .map(|(meta, prefix)| (prefix, meta, got));
                    let reference = reference_records(format, bytes).and_then(|(prefix, doc)| {
                        let meta = format!("{:?}", doc.section("meta")?);
                        let records = doc.records(format).enumerate();
                        let records = records.map(|(k, s)| s.map(|s| format!("{k} {s:?}")));
                        Ok((prefix, meta, records.collect::<Result<Vec<_>>>()?))
                    });
                    assert_eq!(streamed, reference, "{} {input:?}", format.header);
                }
            }
        }
        assert!(files >= 6, "{files} golden files under {}", dir.display());
    }

    #[test]
    fn hostile_meta_counts_are_errors_not_panics() {
        // A count read from the file sizes nothing, and the allocation
        // width is a checked product: each is a format error on the
        // `[meta]` line.
        let text = sim_log(&sample_meta(), &sample_quanta());
        let three = text.replacen("cores=2", "cores=3", 1).replacen(
            "app.1=bzip2#1\n",
            "app.1=bzip2#1\napp.2=lbm#2\n",
            1,
        );
        let hostile = [
            text.replacen("cores=2", "cores=4611686018427387904", 1),
            text.replacen("resources=2", "resources=18446744073709551615", 1),
            three.replacen("resources=2", "resources=6148914691236517206", 1),
        ];
        for log in &hostile {
            let err = SimCheckpoint::parse(log.as_bytes()).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Format { line: 2, .. }),
                "{err}"
            );
        }
        assert!(SimCheckpoint::parse(three.as_bytes()).is_ok());
    }

    /// One damage of a fuzzed input.
    #[derive(Debug, Clone, Copy)]
    enum Mutation {
        Cut(usize),
        Flip(usize, u8),
        Duplicate(usize),
        Swap(usize, usize),
        Delete(usize),
    }

    impl Mutation {
        /// A damage of `bytes`, drawn with `draw`.
        fn draw(bytes: &[u8], draw: &mut impl FnMut(usize) -> usize) -> Self {
            let lines = bytes.split_inclusive(|&b| b == b'\n').count();
            let (byte, line) = (draw(bytes.len()), draw(lines));
            match draw(5) {
                0 => Mutation::Cut(byte),
                1 => Mutation::Flip(byte, 1 << draw(8)),
                2 => Mutation::Duplicate(line),
                3 => Mutation::Swap(line, draw(lines)),
                _ => Mutation::Delete(line),
            }
        }

        fn apply(self, bytes: &[u8]) -> Vec<u8> {
            let mut lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
            let n = lines.len();
            match self {
                Mutation::Cut(at) => return bytes[..at.min(bytes.len())].to_vec(),
                Mutation::Flip(at, bit) => {
                    let mut flipped = bytes.to_vec();
                    if let Some(b) = flipped.get_mut(at) {
                        *b ^= bit;
                    }
                    return flipped;
                }
                Mutation::Duplicate(k) if k < n => lines.insert(k, lines[k]),
                Mutation::Swap(a, b) if a.max(b) < n => lines.swap(a, b),
                Mutation::Delete(k) if k < n => drop(lines.remove(k)),
                _ => {}
            }
            lines.concat()
        }
    }

    #[test]
    fn fuzzed_logs_keep_only_undamaged_records() {
        // Up to four cuts, bit flips and duplicated, swapped or deleted
        // lines of a sim log, a sweep log, a sealed scenario ledger and a
        // sealed server snapshot. No reader panics; the part of a log's
        // valid prefix that a hash vouches for (its records and seal) ends
        // at or before the first damaged byte; every record kept decodes
        // to the undamaged one, as the reference decodes it.
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/durable");
        let read = |name: &str| std::fs::read(golden.join(name)).unwrap();
        let (meta, quanta) = (sample_meta(), sample_quanta());
        let (sweep, points) = sample_sweep();
        let inputs = [
            ("sim", Some(SIM_LOG), sim_log(&meta, &quanta).into_bytes()),
            (
                "sweep",
                Some(SWEEP_LOG),
                sweep_log(&sweep, &points).into_bytes(),
            ),
            ("ledger", Some(LEDGER), read("scenario.ledger")),
            ("snapshot", None, read("server.snapshot")),
        ];
        let sealed_items = |bytes: &[u8]| {
            let mut items = Vec::new();
            let sealed = crate::durable::read_sealed(bytes, |item| {
                items.push(format!("{item:?}"));
                Ok(())
            });
            sealed.map(|()| items)
        };
        for seed in 0..2_000u64 {
            for (i, (name, format, original)) in inputs.iter().enumerate() {
                let mut state = rebudget_market::splitmix64(seed << 2 | i as u64);
                let mut draw = |n: usize| {
                    state = rebudget_market::splitmix64(state);
                    (state % n.max(1) as u64) as usize
                };
                let mut damaged = original.clone();
                let mutations: Vec<Mutation> = (0..=draw(4))
                    .map(|_| {
                        let m = Mutation::draw(&damaged, &mut draw);
                        damaged = m.apply(&damaged);
                        m
                    })
                    .collect();
                let what = format!("seed {seed}, {name}: {mutations:?}");
                let first = original.iter().zip(&damaged).position(|(a, b)| a != b);
                let first = first.unwrap_or(original.len().min(damaged.len()));
                let checked = std::panic::catch_unwind(|| {
                    if let Ok(items) = sealed_items(&damaged) {
                        assert_eq!(Ok(items), sealed_items(original), "{what}");
                    }
                    let Some(format) = *format else { return };
                    let prefix = format.valid_prefix(&damaged);
                    let vouched = prefix.record_ends.last().copied().unwrap_or(0);
                    let vouched = if prefix.sealed { prefix.bytes } else { vouched };
                    assert!(
                        vouched <= first,
                        "{what}: vouches to {vouched}, damage at {first}"
                    );
                    let whole = format.valid_prefix(original);
                    assert_eq!(
                        prefix.record_ends,
                        whole.record_ends[..prefix.records],
                        "{what}"
                    );
                    if format.verify(&damaged).is_ok() {
                        assert_eq!(&damaged, original, "{what}");
                    }
                    if *name == "sim" {
                        if let Ok(cp) = same_as_reference(&damaged, &what) {
                            assert_same_bits(&cp.quanta, &quanta[..cp.quanta.len()]);
                        }
                    } else if *name == "sweep" {
                        if let Ok(cp) = same_as_reference_sweep(&damaged, &what) {
                            assert_eq!(cp.points[..], points[..cp.points.len()], "{what}");
                        }
                    }
                });
                assert!(checked.is_ok(), "{what}: a reader panicked");
            }
        }
    }

    /// Calls `check` on every truncation and every single-bit flip of
    /// `text`, with the offset of the first damaged byte.
    fn for_each_damaged(text: &str, mut check: impl FnMut(&[u8], usize)) {
        let bytes = text.as_bytes();
        for cut in 0..=bytes.len() {
            check(&bytes[..cut], cut);
        }
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.to_vec();
                flipped[at] ^= 1 << bit;
                check(&flipped, at);
            }
        }
    }

    #[test]
    fn truncation_is_detected() {
        let text = sim_log(&sample_meta(), &sample_quanta());
        let second = text.find("[quantum 1]").unwrap();
        // Cut inside the second record: only the first stands.
        for cut in [second, second + 1, text.len() - 1] {
            let cp = SimCheckpoint::parse(&text.as_bytes()[..cut]).unwrap();
            assert_eq!((cp.quanta.len(), cp.prefix.bytes), (1, second));
        }
        // Cut inside the header: not a checkpoint at all.
        assert!(matches!(
            SimCheckpoint::parse(&text.as_bytes()[..5]),
            Err(CheckpointError::Format { line: 1, .. })
        ));
    }

    #[test]
    fn wrong_version_and_kind_are_rejected() {
        let text = sim_log(&sample_meta(), &sample_quanta());
        let v1 = text.replacen(
            "rebudget-checkpoint v2 sim",
            "rebudget-checkpoint v1 sim",
            1,
        );
        let named = |e: CheckpointError, header: &str| matches!(&e, CheckpointError::Format { line: 1, reason } if reason.contains(header));
        let err = SimCheckpoint::parse(v1.as_bytes()).unwrap_err();
        assert!(named(err, "'rebudget-checkpoint v1 sim'"));
        let err = SweepCheckpoint::parse(text.as_bytes()).unwrap_err();
        assert!(named(err, "'rebudget-checkpoint v2 sim'"));
        let err = SimCheckpoint::parse(&b"#!/bin/sh\necho hello\n"[..]).unwrap_err();
        assert!(named(err, "'#!/bin/sh'"));
    }

    #[test]
    fn config_mismatch_names_the_field() {
        let meta = sample_meta();
        let mut other = meta.clone();
        other.seed = 18;
        let err = other.ensure_matches(&meta).unwrap_err();
        match err {
            CheckpointError::ConfigMismatch { what, .. } => assert_eq!(what, "seed"),
            other => panic!("unexpected {other:?}"),
        }
        let mut faulted = meta.clone();
        faulted.faults = None;
        assert!(matches!(
            faulted.ensure_matches(&meta),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        meta.clone().ensure_matches(&meta).unwrap();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = SimCheckpoint::load(Path::new("/nonexistent/rebudget.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
        assert!(!err.to_string().is_empty());
    }

    fn sample_sweep() -> (SweepMeta, Vec<SweepPoint>) {
        let meta = SweepMeta {
            category: "cpbn".into(),
            cores: 8,
            base_budget: 100.0,
            normalize: true,
            steps: vec![0.0, 20.0, 40.0],
        };
        let point = |step: f64| SweepPoint {
            step,
            efficiency: 6.5,
            normalized_efficiency: (step > 0.0).then_some(6.5 / 7.25),
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
        };
        (meta, vec![point(0.0), point(20.0)])
    }

    fn sweep_log(meta: &SweepMeta, points: &[SweepPoint]) -> String {
        let mut log = Ledger::new(SWEEP_LOG, |w| meta.render(w));
        for (k, p) in points.iter().enumerate() {
            log.append_section(k, |w| write_point(w, 7.25, p));
        }
        log.text().to_string()
    }

    #[test]
    fn sweep_round_trip_with_partial_points() {
        let (meta, points) = sample_sweep();
        let empty = SweepCheckpoint::parse(sweep_log(&meta, &[]).as_bytes()).unwrap();
        assert_eq!((empty.oracle, empty.points.len()), (None, 0));
        let parsed = SweepCheckpoint::parse(sweep_log(&meta, &points).as_bytes()).unwrap();
        assert_eq!(parsed.meta, meta);
        assert_eq!(parsed.points, points);
        assert_eq!(parsed.oracle.unwrap().to_bits(), 7.25f64.to_bits());
        // Meta self-check and mismatch detection.
        parsed.meta.ensure_matches(&meta).unwrap();
        let mut other = meta.clone();
        other.steps = vec![0.0, 20.0];
        assert!(matches!(
            other.ensure_matches(&meta),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
        // More points than steps is malformed, even with a valid chain.
        let four = [points.clone(), points].concat();
        assert!(matches!(
            SweepCheckpoint::parse(sweep_log(&meta, &four).as_bytes()),
            Err(CheckpointError::Format { .. })
        ));
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
