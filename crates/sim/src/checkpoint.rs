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
//! A checkpoint is a schema over [`crate::durable`] (DESIGN.md, "Durable
//! codec"): a `rebudget-checkpoint v1 <sim|sweep>` header, `[meta]`,
//! `[counters]` and one `[quantum N]` (or `[point N]`) section each, and
//! a `[checksum]` trailer hashing every byte before it. Saves rotate the
//! live file to `.prev`; resumes fall back to it.
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
use std::path::Path;

use rebudget_core::mechanisms::SolveSummary;
use rebudget_core::sweep::SweepPoint;
use rebudget_market::FaultPlan;

use crate::durable::{self, Document, Section, Trailer, Writer};

/// Snapshot format version. Bump when the on-disk layout changes; loaders
/// reject other versions with [`CheckpointError::Version`].
pub const FORMAT_VERSION: u32 = 1;

const HEADER_PREFIX: &str = "rebudget-checkpoint";
/// The trailer: `[checksum]` and the FNV-1a of every byte before it.
const TRAILER: Trailer = Trailer::Before("checksum");
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

impl From<durable::Error> for CheckpointError {
    fn from(e: durable::Error) -> Self {
        match e {
            durable::Error::Io { path, message } => CheckpointError::Io { path, message },
            durable::Error::Format { line, reason } => CheckpointError::Format { line, reason },
            durable::Error::Checksum { expected, found } => {
                CheckpointError::Checksum { expected, found }
            }
        }
    }
}

type Result<T> = std::result::Result<T, CheckpointError>;

/// Starts a checkpoint of `kind` with its header line.
fn writer(kind: &str) -> Writer {
    let mut w = Writer::default();
    w.line(format_args!("{HEADER_PREFIX} v{FORMAT_VERSION} {kind}"));
    w
}

/// Checks the header's version and kind, then the trailer, and splits
/// the body into sections.
fn open<'a>(text: &'a str, expected_kind: &'static str) -> Result<Document<'a>> {
    let header = text.split_once('\n').map_or("", |(h, _)| h);
    let (version, kind) = header
        .strip_prefix(HEADER_PREFIX)
        .and_then(|rest| rest.strip_prefix(" v"))
        .and_then(|rest| {
            let (version, kind) = rest.split_once(' ').unwrap_or((rest, ""));
            Some((version.parse::<u32>().ok()?, kind))
        })
        .ok_or_else(|| CheckpointError::Format {
            line: 1,
            reason: format!("not a rebudget checkpoint (header `{header}`)"),
        })?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::Version { found: version });
    }
    if kind != expected_kind {
        return Err(CheckpointError::Kind {
            expected: expected_kind,
            found: kind.to_string(),
        });
    }
    Ok(Document::open(text, TRAILER)?)
}

/// The index `N` of a `[<prefix> N]` section.
fn section_index(section: &Section<'_>, prefix: &str) -> Result<usize> {
    section.name[prefix.len()..]
        .parse()
        .map_err(|_| CheckpointError::Format {
            line: section.line,
            reason: format!("bad {}section name `{}`", prefix, section.name),
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
    fn render(&self, w: &mut Writer) {
        w.section("meta");
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

/// Aggregate run counters captured at the snapshot boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimCounters {
    /// Health of every solve across all recorded quanta. A fallback
    /// quantum clears `converged` without tallying a solve.
    pub solve: SolveSummary,
    /// Consecutive failed quanta at the snapshot boundary (feeds the
    /// EqualShare fallback trigger).
    pub consecutive_failures: usize,
    /// Quanta that fell back to EqualShare.
    pub fallback_quanta: usize,
    /// Quanta whose solve failed or hit the fail-safe.
    pub degraded_quanta: usize,
}

impl SimCounters {
    fn render(&self, w: &mut Writer) {
        w.section("counters");
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
        let mut w = writer("sim");
        meta.render(&mut w);
        counters.render(&mut w);
        for (q, record) in quanta.iter().enumerate() {
            w.section(format_args!("quantum {q}"));
            w.f64_list("alloc", &record.allocation);
            w.f64("eff", record.efficiency);
        }
        w.seal(TRAILER);
        w.finish()
    }

    /// Parses a snapshot from its on-disk text form, validating version,
    /// kind, structure, and checksum.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] variant except `Io`/`ConfigMismatch`.
    pub fn parse(text: &str) -> Result<Self> {
        let doc = open(text, "sim")?;
        let meta = SimMeta::parse(&doc.section("meta")?)?;
        let counters = SimCounters::parse(&doc.section("counters")?)?;
        let width = meta.cores * meta.resources;
        let mut quanta = Vec::new();
        for section in doc.sections().filter(|s| s.name.starts_with("quantum ")) {
            let index = section_index(&section, "quantum ")?;
            let format = |reason: String| CheckpointError::Format {
                line: section.line,
                reason,
            };
            if index != quanta.len() {
                return Err(format(format!(
                    "quantum sections out of order: expected {}, got {index}",
                    quanta.len()
                )));
            }
            let allocation = section.f64_list("alloc")?;
            if allocation.len() != width {
                return Err(format(format!(
                    "quantum {index} has {} allocation words, expected {width}",
                    allocation.len()
                )));
            }
            quanta.push(QuantumRecord {
                allocation,
                efficiency: section.f64("eff")?,
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
        Ok(durable::write_atomic(path, &self.render())?)
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
        Ok(durable::write_atomic(
            path,
            &Self::render_parts(meta, counters, quanta),
        )?)
    }

    /// Loads and validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// I/O, format, version, kind, or checksum errors.
    pub fn load(path: &Path) -> Result<Self> {
        Self::parse(&durable::read(path)?)
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
    fn render(&self, w: &mut Writer) {
        w.section("meta");
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
        let mut w = writer("sweep");
        self.meta.render(&mut w);
        if let Some(oracle) = self.oracle {
            w.section("oracle");
            w.f64("value", oracle);
        }
        for (k, point) in self.points.iter().enumerate() {
            let Some(p) = point else { continue };
            w.section(format_args!("point {k}"));
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
        w.seal(TRAILER);
        w.finish()
    }

    /// Parses a snapshot from its on-disk text form.
    ///
    /// # Errors
    ///
    /// Any [`CheckpointError`] variant except `Io`/`ConfigMismatch`.
    pub fn parse(text: &str) -> Result<Self> {
        let doc = open(text, "sweep")?;
        let m = doc.section("meta")?;
        let meta = SweepMeta {
            category: m.get("category")?.to_string(),
            cores: m.parse("cores")?,
            base_budget: m.f64("base_budget")?,
            normalize: m.bool("normalize")?,
            steps: m.f64_list("steps")?,
        };
        let oracle = match doc.sections().find(|s| s.name == "oracle") {
            Some(s) => Some(s.f64("value")?),
            None => None,
        };
        let mut points: Vec<Option<SweepPoint>> = vec![None; meta.steps.len()];
        for section in doc.sections().filter(|s| s.name.starts_with("point ")) {
            let index = section_index(&section, "point ")?;
            let Some(slot) = points.get_mut(index) else {
                return Err(CheckpointError::Format {
                    line: section.line,
                    reason: format!("point index {index} beyond {} steps", meta.steps.len()),
                });
            };
            let normalized_efficiency = match section.get("normalized")? {
                "none" => None,
                _ => Some(section.f64("normalized")?),
            };
            *slot = Some(SweepPoint {
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
        })
    }

    /// Writes the snapshot to `path` atomically, rotating any existing
    /// snapshot to `<path>.prev`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<()> {
        Ok(durable::write_atomic(path, &self.render())?)
    }

    /// Loads and validates a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// I/O, format, version, kind, or checksum errors.
    pub fn load(path: &Path) -> Result<Self> {
        Self::parse(&durable::read(path)?)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::durable::prev_path;
    use std::fs;

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
                solve: SolveSummary {
                    converged: true,
                    rounds: 6,
                    iterations: 120,
                    recoveries: 2,
                    retries: 1,
                    timed_out: 0,
                },
                consecutive_failures: 1,
                fallback_quanta: 0,
                degraded_quanta: 1,
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
        // Every truncation and every single-bit flip of a sim and a sweep
        // checkpoint is a typed error or decodes to the identical value;
        // none panics. Flips that leave UTF-8 are rejected by the file
        // read before any parse.
        let sweep = sample_sweep();
        for_each_damaged(&text, |v| match SimCheckpoint::parse(v) {
            Ok(cp) => assert_eq!(cp.render(), text, "{v:?}"),
            Err(e) => assert!(!matches!(e, CheckpointError::Io { .. }), "{v:?}"),
        });
        let text = sweep.render();
        for_each_damaged(&text, |v| match SweepCheckpoint::parse(v) {
            Ok(cp) => assert_eq!(cp.render(), text, "{v:?}"),
            Err(e) => assert!(!matches!(e, CheckpointError::Io { .. }), "{v:?}"),
        });
    }

    /// Calls `check` on every truncation and every UTF-8 single-bit flip
    /// of `text`.
    fn for_each_damaged(text: &str, mut check: impl FnMut(&str)) {
        for cut in 0..=text.len() {
            check(&text[..cut]);
        }
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] ^= 1 << bit;
                if let Ok(v) = String::from_utf8(bytes) {
                    check(&v);
                }
            }
        }
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
        cp.counters.solve.rounds += 1;
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
        cp.counters.solve.rounds += 1;
        cp.save(&path).unwrap();
        // Corrupt the live generation; the previous one must be served.
        let mut text = fs::read_to_string(&path).unwrap();
        text.truncate(text.len() / 3);
        fs::write(&path, text).unwrap();
        let (loaded, used_prev) = durable::load_with_fallback(&path, SimCheckpoint::load).unwrap();
        assert!(used_prev);
        assert_eq!(loaded, first);
        // Corrupt both: the primary error surfaces.
        fs::write(prev_path(&path), "garbage").unwrap();
        assert!(durable::load_with_fallback(&path, SimCheckpoint::load).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = SimCheckpoint::load(Path::new("/nonexistent/rebudget.ckpt")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io { .. }));
        assert!(!err.to_string().is_empty());
    }

    fn sample_sweep() -> SweepCheckpoint {
        let meta = SweepMeta {
            category: "cpbn".into(),
            cores: 8,
            base_budget: 100.0,
            normalize: true,
            steps: vec![0.0, 20.0, 40.0],
        };
        let mut cp = SweepCheckpoint::new(meta);
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
        cp
    }

    #[test]
    fn sweep_round_trip_with_partial_points() {
        let cp = sample_sweep();
        assert_eq!(
            SweepCheckpoint::new(cp.meta.clone()).missing(),
            vec![0, 1, 2]
        );
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
