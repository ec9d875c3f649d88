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
//! resumed from cuts that tail off and continues the chain. The meta
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

/// The bytes of the checkpoint log at `path`.
fn read(path: &Path) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|e| CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })
}

/// The records of a parsed log, checked to be `[<record> 0]`, `[<record>
/// 1]`, … in order after `[meta]`.
fn records<'a>(
    doc: &'a durable::Document<'_>,
    format: LogFormat,
) -> impl Iterator<Item = Result<Section<'a>>> {
    doc.sections().skip(1).enumerate().map(move |(k, section)| {
        let index = section
            .name
            .strip_prefix(format.record)
            .and_then(|rest| rest.strip_prefix(' '))
            .and_then(|n| n.parse::<usize>().ok());
        if index == Some(k) {
            Ok(section)
        } else {
            Err(CheckpointError::Format {
                line: section.line,
                reason: format!(
                    "{} sections out of order: expected [{} {k}], got [{}]",
                    format.record, format.record, section.name
                ),
            })
        }
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

fn parse_faults(meta: &Section<'_>) -> Result<Option<FaultPlan>> {
    if !meta.bool("faults")? {
        return Ok(None);
    }
    Ok(Some(FaultPlan {
        seed: meta.parse("fault.seed")?,
        noise_sigma: meta.f64("fault.noise_sigma")?,
        spike_probability: meta.f64("fault.spike_probability")?,
        spike_probability_magnitude: meta.f64("fault.spike_probability_magnitude")?,
        stale_probability: meta.f64("fault.stale_probability")?,
        stale_depth: meta.parse("fault.stale_depth")?,
        drop_probability: meta.f64("fault.drop_probability")?,
        nan_probability: meta.f64("fault.nan_probability")?,
        liars: meta.parse("fault.liars")?,
        liar_exaggeration: meta.f64("fault.liar_exaggeration")?,
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

    fn parse(meta: &Section<'_>) -> Result<Self> {
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
            budget: meta.f64("budget")?,
            accesses_per_quantum: meta.parse("accesses_per_quantum")?,
            use_monitors: meta.bool("use_monitors")?,
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

    fn parse(section: &Section<'_>) -> Result<Self> {
        Ok(Self {
            solve: SolveSummary {
                rounds: section.parse("total_rounds")?,
                iterations: section.parse("total_iterations")?,
                converged: section.bool("always_converged")?,
                recoveries: section.parse("solver_recoveries")?,
                retries: section.parse("retried_solves")?,
                timed_out: section.parse("timed_out_solves")?,
            },
            consecutive_failures: section.parse("consecutive_failures")?,
            fallback_quanta: section.parse("fallback_quanta")?,
            degraded_quanta: section.parse("degraded_quanta")?,
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
        Self::parse(&read(path)?)
    }

    /// Parses the chain-valid prefix of the checkpoint log `bytes`: a
    /// torn tail or a damaged record drops only the records from the
    /// damage on (damaged meta lines parse as they read).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Format`] for a header that is not this
    /// version's (it is named) or a malformed meta section or record.
    pub fn parse(bytes: &[u8]) -> Result<Self> {
        let (prefix, doc) = SIM_LOG.read_records(bytes)?;
        let meta = SimMeta::parse(&doc.section("meta")?)?;
        let width = meta.cores * meta.resources;
        let mut quanta = Vec::with_capacity(prefix.records);
        for section in records(&doc, SIM_LOG) {
            let section = section?;
            let allocation = section.f64_list("alloc")?;
            if allocation.len() != width {
                return Err(CheckpointError::Format {
                    line: section.line,
                    reason: format!(
                        "[{}] has {} allocation words, expected {width}",
                        section.name,
                        allocation.len()
                    ),
                });
            }
            quanta.push(QuantumRecord {
                allocation,
                efficiency: section.f64("eff")?,
                counters: SimCounters::parse(&section)?,
            });
        }
        Ok(Self {
            meta,
            quanta,
            prefix,
        })
    }
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
        Self::parse(&read(path)?)
    }

    /// Parses the chain-valid prefix of the sweep log `bytes`.
    ///
    /// # Errors
    ///
    /// As [`SimCheckpoint::parse`].
    pub fn parse(bytes: &[u8]) -> Result<Self> {
        let (prefix, doc) = SWEEP_LOG.read_records(bytes)?;
        let m = doc.section("meta")?;
        let meta = SweepMeta {
            category: m.get("category")?.to_string(),
            cores: m.parse("cores")?,
            base_budget: m.f64("base_budget")?,
            normalize: m.bool("normalize")?,
            steps: m.f64_list("steps")?,
        };
        let (mut oracle, mut points) = (None, Vec::with_capacity(prefix.records));
        for section in records(&doc, SWEEP_LOG) {
            let section = section?;
            if points.len() == meta.steps.len() {
                return Err(CheckpointError::Format {
                    line: section.line,
                    reason: format!("more points than the {} steps", meta.steps.len()),
                });
            }
            let normalized_efficiency = match section.get("normalized")? {
                "none" => None,
                _ => Some(section.f64("normalized")?),
            };
            oracle = Some(section.f64("oracle")?);
            points.push(SweepPoint {
                step: section.f64("step")?,
                efficiency: section.f64("efficiency")?,
                normalized_efficiency,
                envy_freeness: section.f64("envy_freeness")?,
                mur: section.f64("mur")?,
                mbr: section.f64("mbr")?,
                ef_floor: section.f64("ef_floor")?,
                solve: SolveSummary {
                    converged: section.bool("converged")?,
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
            prefix,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::durable::Ledger;

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
        for_each_damaged(&text, |v, at| match SimCheckpoint::parse(v) {
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
        for_each_damaged(&text, |v, at| match SweepCheckpoint::parse(v) {
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
        let err = SimCheckpoint::parse(b"#!/bin/sh\necho hello\n").unwrap_err();
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
