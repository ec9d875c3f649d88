#![warn(missing_docs)]

//! The multicore simulator substrate (the paper's SESC stand-in).
//!
//! The paper evaluates ReBudget with SESC, a cycle-level execution-driven
//! simulator, in two phases (§6): an *analytical* phase over profiled,
//! convexified utilities (240 bundles), and a *simulation* phase where
//! utilities are monitored online with the hardware of §4.1.1 (UMON +
//! critical-path predictor + power model) while the budget re-assignment
//! runs every 1 ms.
//!
//! We reproduce both phases on a quantum-based performance model:
//!
//! * [`config`] — the Table 1 system configurations (8 and 64 cores);
//! * [`dram`] — Micron DDR3-1600 timing, yielding the effective memory
//!   latency the phase model consumes;
//! * [`utility_model`] — the paper's 90-point (cache × frequency) utility
//!   profiling, concave-hull convexification per Figure 2, and the mapping
//!   from frequency to discretionary Watts that turns a profile into a
//!   market [`rebudget_market::utility::GridUtility`];
//! * [`analytic`] — phase-1 evaluation: build a [`rebudget_market::Market`]
//!   straight from application models;
//! * [`monitor`] — phase-2 runtime monitoring: per-core UMON shadow tags
//!   over synthetic traces produce the miss curve online;
//! * [`machine`] and [`simulation`] — the 1 ms allocation quantum loop:
//!   monitor → market → DVFS/partition enforcement → execute → thermals.

pub mod analytic;
pub mod checkpoint;
pub mod config;
pub mod dram;
pub mod durable;
pub mod groups;
pub mod machine;
pub mod monitor;
pub mod simulation;
pub mod trace_machine;
pub mod utility_model;

pub use checkpoint::{CheckpointError, SimCheckpoint, SweepCheckpoint};
pub use config::{system_for, SystemConfig};
pub use dram::DramConfig;
pub use simulation::{
    run_simulation, run_simulation_hooked, run_simulation_recoverable, QuantumControls,
    QuantumHook, QuantumObservation, RecoveryOptions, SimOptions, SimResult,
};
