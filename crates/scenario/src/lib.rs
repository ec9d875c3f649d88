//! Declarative scenario engine for the ReBudget reproduction.
//!
//! Scenario coverage used to mean hand-coded binaries plus ad-hoc
//! `--faults` specs. This crate replaces that with **data**: a
//! `scenarios/*.toml` file declares phases, event triggers (time,
//! metric thresholds, arrivals/departures, composable `all`/`any`),
//! effects (fault onsets, budget shocks, utility-shape drift, player
//! churn), and **properties to verify** (the paper's Theorem-1/2
//! fairness floors, convergence, no-NaN, ledger-replay bit-identity).
//!
//! The engine executes scenarios against the *real* simulation loop via
//! [`rebudget_sim::run_simulation_hooked`], appends every quantum to an
//! immutable, hash-chained allocation [`ledger`], and checks the declared
//! properties post-run. A violated property exits the CLI with
//! `EXIT_PROPERTY` and a structured report naming the property.
//!
//! Everything here is deterministic: the same scenario file produces a
//! byte-identical ledger on every run, serial or parallel, traced or
//! untraced — which is what makes the ledger an audit artifact rather
//! than a log.

pub mod effect;
pub mod engine;
pub mod ledger;
pub mod model;
pub mod properties;
pub mod toml;
pub mod trigger;

pub use effect::Effect;
pub use engine::{run_scenario, ScenarioOutcome};
pub use ledger::{valid_prefix, Ledger, LedgerMeta, LedgerPrefix};
pub use model::{Event, Phase, Scenario};
pub use properties::{Property, PropertyReport};
pub use trigger::{Metric, Trigger};

use std::fmt;

/// Errors from scenario parsing, execution, or ledger verification.
#[derive(Debug)]
#[non_exhaustive]
pub enum ScenarioError {
    /// A malformed scenario file — 1-based line plus reason, mirroring
    /// the checkpoint crate's `CheckpointError::Format`.
    Format {
        /// 1-based line number of the offence.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A malformed or tampered ledger — 1-based line plus reason.
    Ledger {
        /// 1-based line number of the offence.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// Filesystem trouble reading a scenario or writing a ledger.
    Io(std::io::Error),
    /// The simulation itself failed.
    Sim(rebudget_sim::simulation::SimError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Format { line, reason } => {
                write!(f, "scenario format error at line {line}: {reason}")
            }
            ScenarioError::Ledger { line, reason } => {
                write!(f, "ledger error at line {line}: {reason}")
            }
            ScenarioError::Io(e) => write!(f, "io error: {e}"),
            ScenarioError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

impl From<rebudget_sim::simulation::SimError> for ScenarioError {
    fn from(e: rebudget_sim::simulation::SimError) -> Self {
        ScenarioError::Sim(e)
    }
}
