//! The phase-2 simulation loop (§6.3): monitor → market → enforce →
//! execute, once per 1 ms quantum.

use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use rebudget_core::mechanisms::{EqualShare, Mechanism, MechanismOutcome, SolveSummary};
use rebudget_market::{metrics, AllocationMatrix, FaultPlan, Market, MarketError, Player, Utility};
use rebudget_workloads::Bundle;

use crate::analytic::resource_space;
use rebudget_telemetry as telemetry;

use crate::checkpoint::{CheckpointError, QuantumRecord, SimCheckpoint, SimCounters, SimMeta};
use crate::config::SystemConfig;
use crate::dram::DramConfig;
use crate::durable;
use crate::machine::Machine;
use crate::monitor::CoreMonitor;
use crate::utility_model::{
    alone_instruction_rate, app_utility_grid, perturbed_mpki_curve, utility_grid_from_mpki,
};

/// Errors from the simulation driver.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The underlying market failed (degenerate inputs).
    Market(MarketError),
    /// The bundle does not match the system's core count.
    BundleMismatch {
        /// Cores in the system.
        cores: usize,
        /// Applications in the bundle.
        apps: usize,
    },
    /// A checkpoint could not be written, read, or applied.
    Checkpoint(CheckpointError),
    /// A [`QuantumHook`] produced malformed controls (wrong lengths,
    /// non-positive scales, or no active player).
    Hook(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Market(e) => write!(f, "market error: {e}"),
            SimError::BundleMismatch { cores, apps } => {
                write!(f, "bundle has {apps} apps for {cores} cores")
            }
            SimError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            SimError::Hook(reason) => write!(f, "hook error: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MarketError> for SimError {
    fn from(e: MarketError) -> Self {
        SimError::Market(e)
    }
}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Checkpoint(e)
    }
}

/// How allocations are realized and executed each quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionModel {
    /// Analytic timing over the Talus hull of each app's miss curve
    /// (fast; the default).
    #[default]
    Analytic,
    /// Drive a real Futility-Scaling shared cache with each core's
    /// synthetic address stream and time cores by their *measured* miss
    /// rates (see [`crate::trace_machine`]). Slower but captures
    /// enforcement transients and inter-core contention.
    TraceDriven,
}

/// Simulation options.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Number of 1 ms quanta to simulate.
    pub quanta: usize,
    /// Synthetic L2 references observed per core per quantum (drives the
    /// UMON monitors, and the shared cache in trace-driven mode).
    pub accesses_per_quantum: usize,
    /// Per-player budget handed to market mechanisms.
    pub budget: f64,
    /// When `true` (phase 2), utilities are rebuilt every quantum from the
    /// UMON monitors; when `false`, the analytic (phase 1) surfaces are
    /// used throughout.
    pub use_monitors: bool,
    /// RNG seed for the synthetic traces.
    pub seed: u64,
    /// Execution model (see [`ExecutionModel`]).
    pub execution: ExecutionModel,
    /// Optional fault-injection plan. `None` (the default) runs the clean
    /// pipeline and lets market errors propagate; with a plan installed,
    /// telemetry faults are injected every quantum and solver failures
    /// degrade gracefully instead of aborting the run.
    pub faults: Option<FaultPlan>,
    /// After this many consecutive quanta whose solve failed or hit the
    /// fail-safe, the next quantum falls back to [`EqualShare`] (logged and
    /// counted), then the market is re-attempted. Only under a fault plan.
    pub max_consecutive_failures: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            quanta: 10,
            accesses_per_quantum: 20_000,
            budget: 100.0,
            use_monitors: true,
            seed: 1,
            execution: ExecutionModel::Analytic,
            faults: None,
            max_consecutive_failures: 3,
        }
    }
}

/// Durability knobs for [`run_simulation_recoverable`]: where to write
/// quantum-boundary snapshots and where to resume from.
///
/// All fields default to off; the default value makes
/// [`run_simulation_recoverable`] behave exactly like [`run_simulation`].
#[derive(Debug, Clone, Default)]
pub struct RecoveryOptions {
    /// Write a snapshot of the run to this path at quantum boundaries
    /// (atomic rename with a rotating `.prev` generation).
    pub checkpoint: Option<PathBuf>,
    /// Quanta between snapshots (`0` is treated as `1`). The final
    /// quantum is always snapshotted when `checkpoint` is set.
    pub checkpoint_every: usize,
    /// Resume from the snapshot at this path: its recorded quanta are
    /// replayed (monitors and machine re-run deterministically with the
    /// recorded allocations, skipping the market solves) and the run
    /// continues from the snapshot boundary. The snapshot's configuration
    /// must match this run's exactly.
    pub resume: Option<PathBuf>,
}

/// The per-quantum control surface a [`QuantumHook`] may mutate before a
/// quantum's market is built. Neutral controls (the values the hook is
/// handed) reproduce the un-hooked pipeline **bit for bit**: no wrapper is
/// installed for a unit utility scale, a unit budget scale multiplies
/// exactly, and a fully-active player set takes the ordinary market path.
#[derive(Debug, Clone)]
pub struct QuantumControls {
    /// Fault plan in force this quantum. Starts as the run's base plan
    /// ([`SimOptions::faults`]); a hook may install, replace, or clear it
    /// (fault *onsets* in scenario terms).
    pub faults: Option<FaultPlan>,
    /// Per-player budget multipliers (budget shocks). `1.0` leaves the
    /// configured [`SimOptions::budget`] untouched.
    pub budget_scale: Vec<f64>,
    /// Per-player multiplicative utility re-shaping (demand drift). `1.0`
    /// leaves the monitored surface untouched.
    pub utility_scale: Vec<f64>,
    /// Player presence (churn). A `false` entry removes the player from
    /// this quantum's market; its allocation row is zero, like a dropped
    /// bid. At least one player must stay active.
    pub active: Vec<bool>,
}

impl QuantumControls {
    /// Neutral controls for `n` players with the run's base fault plan.
    #[must_use]
    pub fn neutral(n: usize, faults: Option<FaultPlan>) -> Self {
        Self {
            faults,
            budget_scale: vec![1.0; n],
            utility_scale: vec![1.0; n],
            active: vec![true; n],
        }
    }

    fn validate(&self, n: usize) -> Result<(), SimError> {
        if self.budget_scale.len() != n || self.utility_scale.len() != n || self.active.len() != n {
            return Err(SimError::Hook(format!(
                "control vectors must have one entry per player ({n})"
            )));
        }
        for (what, scales) in [
            ("budget_scale", &self.budget_scale),
            ("utility_scale", &self.utility_scale),
        ] {
            if let Some(bad) = scales.iter().find(|s| !(s.is_finite() && **s > 0.0)) {
                return Err(SimError::Hook(format!(
                    "{what} entries must be finite and positive (got {bad})"
                )));
            }
        }
        if !self.active.iter().any(|&a| a) {
            return Err(SimError::Hook("at least one player must be active".into()));
        }
        Ok(())
    }
}

/// What one completed quantum looked like, as reported to a
/// [`QuantumHook`]. Metric-threshold triggers evaluate against the
/// *previous* quantum's observation (the hook stores it).
#[derive(Debug, Clone)]
pub struct QuantumObservation {
    /// The quantum index.
    pub quantum: usize,
    /// Instantaneous weighted speedup this quantum produced.
    pub efficiency: f64,
    /// Envy-freeness of this quantum's allocation over the clean (scaled,
    /// un-faulted) market of active players.
    pub envy_freeness: f64,
    /// Whether the solve failed or hit the fail-safe this quantum.
    pub degraded: bool,
    /// Whether this quantum fell back to EqualShare.
    pub fallback: bool,
    /// Whether every solve this quantum met the convergence test.
    pub converged: bool,
    /// Worst relative price-gap residual across this quantum's solves
    /// (`0` for non-market mechanisms and replayed quanta).
    pub residual: f64,
    /// Market Utility Range at the final equilibrium, if a market ran.
    pub mur: Option<f64>,
    /// Market Budget Range of the final budgets, if a market ran.
    pub mbr: Option<f64>,
    /// Effective budgets of the active players, in player order.
    pub budgets: Vec<f64>,
    /// Row-major `cores × resources` allocation enforced this quantum
    /// (zero rows for inactive/dropped players).
    pub allocation: Vec<f64>,
    /// Cumulative degraded quanta so far (including this one). On a
    /// replayed quantum it is the checkpoint's total at the resume point,
    /// not the running total an uninterrupted run saw at this quantum.
    pub cumulative_degraded: usize,
    /// Cumulative fallback quanta so far (including this one). On a
    /// replayed quantum it is the checkpoint's total at the resume point,
    /// as for [`QuantumObservation::cumulative_degraded`].
    pub cumulative_fallback: usize,
    /// `true` when this quantum was replayed from a checkpoint: solver
    /// health fields (`degraded`, `residual`, `mur`, …) are not recorded
    /// in snapshots and carry their neutral values, and the two
    /// `cumulative_*` counts hold the checkpoint's totals. A hook that
    /// must act the same on a resumed run reads neither; this is why a
    /// scenario's `resume-identity` property requires time-only triggers
    /// (`Scenario::is_time_only` in `rebudget-scenario`).
    pub replayed: bool,
}

/// Observer/controller driven once per quantum by
/// [`run_simulation_hooked`] — the attachment surface for the declarative
/// scenario engine (`rebudget-scenario`) and for ad-hoc experiments.
///
/// Hooks must be **deterministic** functions of what they have observed:
/// the checkpoint-resume path re-drives the hook through replayed quanta,
/// so a hook that consults wall clocks or ambient randomness breaks the
/// bit-identical-resume guarantee.
pub trait QuantumHook {
    /// Called before quantum `quantum` is built. Mutate `controls` to
    /// inject fault onsets, budget shocks, utility re-shaping, or churn.
    fn control(&mut self, quantum: usize, controls: &mut QuantumControls);
    /// Whether per-quantum [`QuantumObservation`]s should be produced.
    /// Building one costs an `O(players²)` envy evaluation per quantum,
    /// so the no-op hook opts out and un-hooked runs pay nothing extra.
    fn observing(&self) -> bool {
        true
    }
    /// Called after each quantum completes.
    fn observe(&mut self, observation: &QuantumObservation);
    /// Called once after the final quantum with the clean market of
    /// active players and the allocation they received — the audit
    /// surface for post-run property verification (fairness floors need
    /// the actual utility surfaces, not just the scalar trajectory).
    fn observe_final(&mut self, _market: &Market, _allocation: &AllocationMatrix) {}
}

/// A no-op hook: [`run_simulation_recoverable`] runs through the same
/// code path as hooked runs with this installed.
struct NoopHook;

impl QuantumHook for NoopHook {
    fn control(&mut self, _quantum: usize, _controls: &mut QuantumControls) {}
    fn observing(&self) -> bool {
        false
    }
    fn observe(&mut self, _observation: &QuantumObservation) {}
}

/// A utility wrapper scaling value and marginals by a constant factor —
/// the hook surface's "utility-shape drift" effect. Unlike the fault
/// layer's liar wrapper this is *declared* behaviour: fairness is judged
/// on the scaled surface.
struct ScaledUtility {
    inner: Arc<dyn Utility>,
    factor: f64,
}

impl Utility for ScaledUtility {
    fn value(&self, r: &[f64]) -> f64 {
        self.factor * self.inner.value(r)
    }
    fn marginal(&self, r: &[f64], j: usize) -> f64 {
        self.factor * self.inner.marginal(r, j)
    }
}

/// The result of simulating one bundle under one mechanism.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Mechanism display name.
    pub mechanism: String,
    /// Measured system efficiency: `Σ_i (IPS_i / IPS_i^alone)` over the
    /// whole run — weighted speedup (Eq. 5 of the paper).
    pub efficiency: f64,
    /// Envy-freeness of the final allocation, evaluated with the final
    /// monitored utility surfaces.
    pub envy_freeness: f64,
    /// Measured per-core normalized performance.
    pub utilities: Vec<f64>,
    /// Quanta simulated.
    pub quanta: usize,
    /// Mean market-equilibrium solves per quantum.
    pub avg_equilibrium_rounds: f64,
    /// Mean bidding–pricing iterations per quantum.
    pub avg_iterations: f64,
    /// Health of every solve across the run, replayed quanta included.
    /// `converged` is also cleared by an EqualShare fallback quantum.
    pub solve: SolveSummary,
    /// Instantaneous weighted speedup per quantum (the efficiency
    /// trajectory — useful for phase-change and warm-up studies).
    pub efficiency_history: Vec<f64>,
    /// Quanta that fell back to [`EqualShare`] after repeated solver
    /// failures (always 0 without a fault plan).
    pub fallback_quanta: usize,
    /// Quanta whose allocation is best-effort: the mechanism reported a
    /// degraded outcome (a solve hit the iteration fail-safe or its
    /// deadline), or, under a fault plan, the solve failed outright.
    /// Counted with or without a fault plan; only under one does it feed
    /// the EqualShare fallback trigger.
    pub degraded_quanta: usize,
    /// Quanta replayed from a checkpoint instead of solved (0 for a
    /// fresh run).
    pub replayed_quanta: usize,
    /// Whether resume had to fall back to the rotated `.prev` snapshot
    /// generation because the live snapshot failed validation.
    pub used_prev_generation: bool,
}

/// Builds this quantum's per-core utility surfaces, honouring stale-reading
/// and curve-noise faults. Returns one grid per core; the caller keeps them
/// as history so stale faults at quantum `q` can reuse interval `q − k`.
// `faults` is passed separately from `opts.faults` because a scenario hook
// may swap the plan mid-run.
#[allow(clippy::too_many_arguments)]
fn quantum_grids(
    bundle: &Bundle,
    sys: &SystemConfig,
    dram: &DramConfig,
    monitors: &[CoreMonitor],
    faults: Option<&FaultPlan>,
    opts: &SimOptions,
    interval: u64,
    history: &[Vec<Arc<dyn Utility>>],
) -> Vec<Arc<dyn Utility>> {
    bundle
        .apps
        .iter()
        .enumerate()
        .map(|(core, app)| {
            if let Some(plan) = faults {
                if let Some(k) = plan.stale_depth_for(interval, core) {
                    if let Some(old) = history.len().checked_sub(k).map(|q| &history[q][core]) {
                        return Arc::clone(old);
                    }
                }
            }
            let grid = if opts.use_monitors {
                match monitors[core].mpki_curve() {
                    Some(curve) => {
                        let curve = match faults {
                            Some(plan) if plan.noise_sigma > 0.0 => {
                                let salt = plan.seed
                                    ^ interval.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                    ^ (core as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                                perturbed_mpki_curve(&curve, plan.noise_sigma, salt)
                            }
                            _ => curve,
                        };
                        utility_grid_from_mpki(
                            &curve,
                            app.base_cpi,
                            app.mlp,
                            app.activity,
                            sys,
                            dram,
                        )
                    }
                    None => app_utility_grid(app, sys, dram),
                }
            } else {
                app_utility_grid(app, sys, dram)
            };
            Arc::new(grid) as Arc<dyn Utility>
        })
        .collect()
}

/// Builds the quantum's market under the hook controls: inactive players
/// are omitted, budgets are scaled, and non-unit utility scales install a
/// [`ScaledUtility`] wrapper. Returns the market plus the original player
/// indices it contains, in order. Neutral controls reproduce the
/// un-hooked market exactly (same players, budgets, and `Arc` clones).
fn market_from_grids(
    bundle: &Bundle,
    sys: &SystemConfig,
    budget: f64,
    grids: &[Arc<dyn Utility>],
    ctl: &QuantumControls,
) -> Result<(Market, Vec<usize>), MarketError> {
    let resources = resource_space(bundle, sys)?;
    let kept: Vec<usize> = (0..bundle.apps.len())
        .filter(|&core| ctl.active[core])
        .collect();
    let players: Vec<Player> = kept
        .iter()
        .map(|&core| {
            let app = &bundle.apps[core];
            let mut utility: Arc<dyn Utility> = Arc::clone(&grids[core]);
            let scale = ctl.utility_scale[core];
            if scale != 1.0 {
                utility = Arc::new(ScaledUtility {
                    inner: utility,
                    factor: scale,
                });
            }
            Player::new(
                format!("{}#{core}", app.name),
                budget * ctl.budget_scale[core],
                utility,
            )
        })
        .collect();
    Market::new(resources, players).map(|m| (m, kept))
}

/// Expands an allocation over the active players back to the full player
/// count: active players keep their rows, inactive players get zero rows.
fn expand_rows(
    alloc: &AllocationMatrix,
    kept: &[usize],
    players: usize,
) -> Result<AllocationMatrix, MarketError> {
    let m = alloc.resources();
    let mut full = AllocationMatrix::zeros(players, m)?;
    for (row, &i) in kept.iter().enumerate() {
        for j in 0..m {
            full.set(i, j, alloc.get(row, j));
        }
    }
    Ok(full)
}

/// How a quantum's allocation was reached: the fields of its trace event
/// and hook observation that a replayed quantum leaves neutral.
struct Verdict {
    degraded: bool,
    fallback: bool,
    converged: bool,
    residual: f64,
    mur: Option<f64>,
    mbr: Option<f64>,
}

impl Verdict {
    /// A replayed quantum: snapshots record no per-quantum solver health.
    const REPLAYED: Self = Self {
        degraded: false,
        fallback: false,
        converged: true,
        residual: 0.0,
        mur: None,
        mbr: None,
    };

    fn of(out: &MechanismOutcome) -> Self {
        Self {
            degraded: out.degraded,
            fallback: false,
            converged: out.solve.converged,
            residual: out.worst_residual,
            mur: out.mur,
            mbr: out.mbr,
        }
    }

    fn fallback(degraded: bool) -> Self {
        Self {
            degraded,
            fallback: true,
            converged: false,
            ..Self::REPLAYED
        }
    }
}

/// Allocates live quantum `q` over the active players of `market` and
/// tallies its solve health into `c`. Without a fault plan, market errors
/// propagate. With one, the market-level faults are injected, and a
/// failed solve (or a run of `max_failures` degraded ones) falls back to
/// [`EqualShare`] instead of aborting.
fn live_allocation(
    mechanism: &dyn Mechanism,
    market: &Market,
    kept: usize,
    plan: Option<&FaultPlan>,
    q: usize,
    max_failures: usize,
    c: &mut SimCounters,
) -> Result<(AllocationMatrix, Verdict), SimError> {
    let Some(plan) = plan else {
        let out = mechanism.allocate(market)?;
        c.solve.add(&out.solve);
        c.degraded_quanta += usize::from(out.degraded);
        let verdict = Verdict::of(&out);
        return Ok((out.allocation, verdict));
    };
    // Noise and staleness were already injected at the curve / history
    // level; zero them here so the market-level pass only adds drops,
    // spikes, NaNs, and liars.
    let market_plan = FaultPlan {
        noise_sigma: 0.0,
        stale_probability: 0.0,
        ..plan.clone()
    };
    let faulted = market_plan.apply(market, q as u64)?;
    if c.consecutive_failures >= max_failures.max(1) {
        // Safe mode for this interval: equal shares, no market.
        // Re-attempt the market next interval.
        let out = EqualShare.allocate(market)?;
        c.fallback_quanta += 1;
        c.consecutive_failures = 0;
        c.solve.converged = false;
        return Ok((out.allocation, Verdict::fallback(false)));
    }
    match mechanism.allocate(&faulted.market) {
        Ok(out) => {
            c.solve.add(&out.solve);
            if out.degraded {
                c.degraded_quanta += 1;
                c.consecutive_failures += 1;
            } else {
                c.consecutive_failures = 0;
            }
            let alloc = faulted.expand_allocation(&out.allocation, kept)?;
            Ok((alloc, Verdict::of(&out)))
        }
        Err(_) => {
            // The solve blew up outright: count the failure and take the
            // safe path for this interval.
            c.degraded_quanta += 1;
            c.consecutive_failures += 1;
            c.fallback_quanta += 1;
            c.solve.converged = false;
            let alloc = EqualShare.allocate(market)?.allocation;
            Ok((alloc, Verdict::fallback(true)))
        }
    }
}

/// Runs a bundle under a mechanism for `opts.quanta` quanta and reports
/// measured efficiency and fairness.
///
/// # Errors
///
/// Returns [`SimError::BundleMismatch`] if the bundle size differs from
/// the configured cores, or propagates market errors.
pub fn run_simulation(
    sys: &SystemConfig,
    dram: &DramConfig,
    bundle: &Bundle,
    mechanism: &dyn Mechanism,
    opts: &SimOptions,
) -> Result<SimResult, SimError> {
    run_simulation_recoverable(
        sys,
        dram,
        bundle,
        mechanism,
        opts,
        &RecoveryOptions::default(),
    )
}

fn execution_label(execution: ExecutionModel) -> &'static str {
    match execution {
        ExecutionModel::Analytic => "analytic",
        ExecutionModel::TraceDriven => "trace",
    }
}

/// Runs a bundle under a mechanism with durable checkpointing and/or
/// resume-from-snapshot, per `recovery`.
///
/// The pipeline is deterministic, so a run that is killed and resumed
/// from its latest snapshot produces **bit-identical** results to an
/// uninterrupted run: monitors evolve independently of allocations and
/// the machine depends only on the allocation applied each quantum, so
/// replaying the recorded allocations reconstructs the exact pre-crash
/// state without re-running any market solve.
///
/// # Errors
///
/// [`SimError::BundleMismatch`] for a mis-sized bundle, market errors
/// from degenerate inputs, and [`SimError::Checkpoint`] when a snapshot
/// cannot be written, fails validation (corrupt/stale/mismatched), or
/// replays to different machine state than it recorded.
pub fn run_simulation_recoverable(
    sys: &SystemConfig,
    dram: &DramConfig,
    bundle: &Bundle,
    mechanism: &dyn Mechanism,
    opts: &SimOptions,
    recovery: &RecoveryOptions,
) -> Result<SimResult, SimError> {
    let mut noop = NoopHook;
    run_simulation_hooked(sys, dram, bundle, mechanism, opts, recovery, &mut noop)
}

/// Runs a bundle under a mechanism with a [`QuantumHook`] attached: the
/// hook steers each quantum's controls (fault onsets, budget shocks,
/// utility re-shaping, churn) and observes each quantum's outcome.
///
/// With a no-op hook this is exactly [`run_simulation_recoverable`] — the
/// neutral-control path is bit-identical to the un-hooked pipeline, which
/// the golden-output suite pins.
///
/// # Errors
///
/// Everything [`run_simulation_recoverable`] can return, plus
/// [`SimError::Hook`] when the hook produces malformed controls.
pub fn run_simulation_hooked(
    sys: &SystemConfig,
    dram: &DramConfig,
    bundle: &Bundle,
    mechanism: &dyn Mechanism,
    opts: &SimOptions,
    recovery: &RecoveryOptions,
    hook: &mut dyn QuantumHook,
) -> Result<SimResult, SimError> {
    if bundle.cores() != sys.cores {
        return Err(SimError::BundleMismatch {
            cores: sys.cores,
            apps: bundle.cores(),
        });
    }
    enum Exec {
        Analytic(Box<Machine>),
        Trace(Box<crate::trace_machine::TraceDrivenMachine>),
    }
    let mut machine = match opts.execution {
        ExecutionModel::Analytic => {
            Exec::Analytic(Box::new(Machine::new(sys.clone(), *dram, bundle)))
        }
        ExecutionModel::TraceDriven => {
            Exec::Trace(Box::new(crate::trace_machine::TraceDrivenMachine::new(
                sys.clone(),
                *dram,
                bundle,
                opts.seed ^ 0xface,
            )?))
        }
    };
    let mut monitors: Vec<CoreMonitor> = bundle
        .apps
        .iter()
        .enumerate()
        .map(|(core, app)| CoreMonitor::new(app, sys, core, opts.seed))
        .collect();
    if opts.use_monitors {
        // One warm-up epoch so quantum 0's curves reflect steady state.
        for monitor in &mut monitors {
            monitor.warm_up(opts.accesses_per_quantum);
        }
    }

    let n = sys.cores;
    let alone_rates: Vec<f64> = bundle
        .apps
        .iter()
        .map(|app| alone_instruction_rate(app, sys, dram))
        .collect();
    let plan = opts.faults.clone().filter(FaultPlan::is_active);
    let meta = SimMeta {
        mechanism: mechanism.name(),
        cores: n,
        resources: 2,
        apps: bundle.apps.iter().map(|a| a.name.to_string()).collect(),
        seed: opts.seed,
        budget: opts.budget,
        accesses_per_quantum: opts.accesses_per_quantum,
        use_monitors: opts.use_monitors,
        execution: execution_label(opts.execution).to_string(),
        max_consecutive_failures: opts.max_consecutive_failures,
        faults: plan.clone(),
    };

    // Load and validate the snapshot we are resuming from, if any.
    let (mut records, mut c, used_prev_generation) = match &recovery.resume {
        Some(path) => {
            let (cp, used_prev) = durable::load_with_fallback(path, SimCheckpoint::load)?;
            meta.ensure_matches(&cp.meta)?;
            if cp.quanta.len() > opts.quanta {
                return Err(SimError::Checkpoint(CheckpointError::ConfigMismatch {
                    what: "quanta".into(),
                    expected: format!("at most {}", opts.quanta),
                    found: cp.quanta.len().to_string(),
                }));
            }
            (cp.quanta, cp.counters, used_prev)
        }
        None => (Vec::new(), SimCounters::default(), false),
    };
    let replayed_quanta = records.len();

    let mut efficiency_history = Vec::with_capacity(opts.quanta);
    let mut last: Option<(Market, AllocationMatrix)> = None;
    let mut grid_history: Vec<Vec<Arc<dyn Utility>>> = Vec::new();
    // Per-quantum health state for the `degradation` trace event: the
    // previous quantum's verdict, so transitions are emitted exactly once.
    let mut health = "normal";
    // Replayed quanta (those the snapshot recorded) re-run monitors and
    // machine deterministically with the recorded allocations and skip the
    // market solve; the recorded efficiency doubles as a divergence check.
    // They open no span, emit no telemetry, and append no record.
    for q in 0..opts.quanta {
        let replayed = q < replayed_quanta;
        let _quantum_span = (!replayed).then(|| telemetry::span!("quantum", q));
        let mut ctl = QuantumControls::neutral(n, plan.clone());
        hook.control(q, &mut ctl);
        ctl.validate(n)?;
        let qplan = ctl.faults.clone().filter(FaultPlan::is_active);
        if opts.use_monitors {
            for monitor in &mut monitors {
                monitor.observe_quantum(opts.accesses_per_quantum);
            }
        }
        let grids = quantum_grids(
            bundle,
            sys,
            dram,
            &monitors,
            qplan.as_ref(),
            opts,
            q as u64,
            &grid_history,
        );
        let (market, kept) = market_from_grids(bundle, sys, opts.budget, &grids, &ctl)?;
        grid_history.push(grids);

        // The one branch: where this quantum's allocation comes from.
        let (alloc, alloc_kept, verdict) = if replayed {
            let mut alloc = AllocationMatrix::zeros(n, 2)?;
            for (i, row) in records[q].allocation.chunks_exact(2).enumerate() {
                alloc.set_row(i, row);
            }
            // Restrict the recorded allocation to the active players so
            // the final fairness verdict (and the hook's view) matches what
            // a live run of this quantum stored.
            let mut alloc_kept = AllocationMatrix::zeros(kept.len(), 2)?;
            for (row, &i) in kept.iter().enumerate() {
                alloc_kept.set_row(row, alloc.row(i));
            }
            (alloc, alloc_kept, Verdict::REPLAYED)
        } else {
            let (alloc_kept, verdict) = live_allocation(
                mechanism,
                &market,
                kept.len(),
                qplan.as_ref(),
                q,
                opts.max_consecutive_failures,
                &mut c,
            )?;
            (expand_rows(&alloc_kept, &kept, n)?, alloc_kept, verdict)
        };

        let regions: Vec<f64> = (0..n).map(|i| alloc.get(i, 0)).collect();
        let watts: Vec<f64> = (0..n).map(|i| alloc.get(i, 1)).collect();
        let stats = match &mut machine {
            Exec::Analytic(m) => m.run_quantum(&regions, &watts),
            Exec::Trace(m) => m.run_quantum(&regions, &watts, opts.accesses_per_quantum),
        };
        let quantum_eff: f64 = stats
            .instructions
            .iter()
            .zip(&alone_rates)
            .map(|(&instr, &alone)| (instr / crate::config::QUANTUM_SECONDS) / alone)
            .sum();
        if replayed && quantum_eff.to_bits() != records[q].efficiency.to_bits() {
            return Err(SimError::Checkpoint(CheckpointError::ReplayDivergence {
                quantum: q,
            }));
        }
        efficiency_history.push(quantum_eff);
        // Row-major `cores × resources`, as records and observations hold it.
        let allocation: Vec<f64> = (0..n).flat_map(|i| alloc.row(i)).copied().collect();
        if !replayed && telemetry::enabled() {
            telemetry::record(
                telemetry::Event::new("quantum")
                    .field_u64("quantum", q as u64)
                    .field_str("mechanism", &mechanism.name())
                    .field_f64("efficiency", quantum_eff)
                    .field_bool("degraded", verdict.degraded)
                    .field_bool("fallback", verdict.fallback),
            );
            telemetry::record(
                telemetry::Event::new("quantum_alloc")
                    .field_u64("quantum", q as u64)
                    .field_rows(
                        "allocation",
                        allocation.chunks(2).map(<[f64]>::to_vec).collect(),
                    ),
            );
            let now = if verdict.fallback {
                "fallback"
            } else if verdict.degraded {
                "degraded"
            } else {
                "normal"
            };
            if now != health {
                telemetry::record(
                    telemetry::Event::new("degradation")
                        .field_u64("quantum", q as u64)
                        .field_str("from", health)
                        .field_str("to", now),
                );
                health = now;
            }
            let registry = &telemetry::global().registry;
            registry.counter("sim.quanta").incr();
            if verdict.degraded {
                registry.counter("sim.degraded_quanta").incr();
            }
            if verdict.fallback {
                registry.counter("sim.fallback_quanta").incr();
            }
        }
        if let Some(path) = recovery.checkpoint.as_ref().filter(|_| !replayed) {
            records.push(QuantumRecord {
                allocation: allocation.clone(),
                efficiency: quantum_eff,
            });
            let every = recovery.checkpoint_every.max(1);
            if (q + 1) % every == 0 || q + 1 == opts.quanta {
                SimCheckpoint::save_parts(path, &meta, &c, &records)?;
            }
        }
        if hook.observing() {
            let envy = metrics::envy_freeness(&market, &alloc_kept);
            hook.observe(&QuantumObservation {
                quantum: q,
                efficiency: quantum_eff,
                envy_freeness: envy,
                degraded: verdict.degraded,
                fallback: verdict.fallback,
                converged: verdict.converged,
                residual: verdict.residual,
                mur: verdict.mur,
                mbr: verdict.mbr,
                budgets: market.players().iter().map(|p| p.budget()).collect(),
                allocation,
                cumulative_degraded: c.degraded_quanta,
                cumulative_fallback: c.fallback_quanta,
                replayed,
            });
        }
        last = Some((market, alloc_kept));
    }

    let (last_market, last_alloc) = last.expect("at least one quantum");
    hook.observe_final(&last_market, &last_alloc);
    let (elapsed, per_core_instructions): (f64, Vec<f64>) = match &machine {
        Exec::Analytic(m) => (
            m.elapsed_seconds(),
            m.cores().iter().map(|c| c.instructions).collect(),
        ),
        Exec::Trace(m) => (
            m.elapsed_seconds(),
            (0..n).map(|i| m.instructions(i)).collect(),
        ),
    };
    let utilities: Vec<f64> = alone_rates
        .iter()
        .zip(&per_core_instructions)
        .map(|(&alone, &instr)| (instr / elapsed) / alone)
        .collect();
    let efficiency = utilities.iter().sum();
    // Fairness is judged over all players with the un-wrapped utility
    // surfaces — liar exaggeration and NaN/spike wrappers don't distort
    // the verdict, and dropped players' zero rows count as real envy.
    let envy_freeness = metrics::envy_freeness(&last_market, &last_alloc);

    Ok(SimResult {
        mechanism: mechanism.name(),
        efficiency,
        envy_freeness,
        utilities,
        quanta: opts.quanta,
        avg_equilibrium_rounds: c.solve.rounds as f64 / opts.quanta as f64,
        avg_iterations: c.solve.iterations as f64 / opts.quanta as f64,
        solve: c.solve,
        efficiency_history,
        fallback_quanta: c.fallback_quanta,
        degraded_quanta: c.degraded_quanta,
        replayed_quanta,
        used_prev_generation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebudget_core::mechanisms::{EqualBudget, EqualShare, MaxEfficiency, ReBudget};
    use rebudget_workloads::paper_bbpc_8core;

    fn fast_opts() -> SimOptions {
        SimOptions {
            quanta: 4,
            accesses_per_quantum: 8_000,
            budget: 100.0,
            use_monitors: true,
            seed: 11,
            ..SimOptions::default()
        }
    }

    #[test]
    fn bundle_mismatch_is_an_error() {
        let sys = SystemConfig::paper_64core();
        let dram = DramConfig::ddr3_1600();
        let err = run_simulation(&sys, &dram, &paper_bbpc_8core(), &EqualShare, &fast_opts())
            .unwrap_err();
        assert!(matches!(err, SimError::BundleMismatch { .. }));
    }

    #[test]
    fn equal_budget_simulation_runs_and_is_sane() {
        let sys = SystemConfig::paper_8core();
        let dram = DramConfig::ddr3_1600();
        let r = run_simulation(
            &sys,
            &dram,
            &paper_bbpc_8core(),
            &EqualBudget::new(100.0),
            &fast_opts(),
        )
        .unwrap();
        assert_eq!(r.utilities.len(), 8);
        assert!(r.efficiency > 0.0 && r.efficiency <= 8.0 + 1e-6);
        assert!(r.utilities.iter().all(|&u| u > 0.0 && u <= 1.0 + 1e-6));
        assert!(r.avg_equilibrium_rounds >= 1.0);
        // The efficiency trajectory averages to the reported efficiency.
        assert_eq!(r.efficiency_history.len(), r.quanta);
        let mean: f64 = r.efficiency_history.iter().sum::<f64>() / r.quanta as f64;
        assert!(
            (mean - r.efficiency).abs() < 1e-6,
            "{mean} vs {}",
            r.efficiency
        );
    }

    #[test]
    fn mechanism_ordering_matches_paper() {
        // MaxEfficiency ≥ ReBudget-40 ≥ EqualBudget in efficiency;
        // EqualBudget ≥ ReBudget-40 in envy-freeness (§6.3).
        let sys = SystemConfig::paper_8core();
        let dram = DramConfig::ddr3_1600();
        let opts = fast_opts();
        let bundle = paper_bbpc_8core();
        let eq = run_simulation(&sys, &dram, &bundle, &EqualBudget::new(100.0), &opts).unwrap();
        let rb = run_simulation(
            &sys,
            &dram,
            &bundle,
            &ReBudget::with_step(100.0, 40.0),
            &opts,
        )
        .unwrap();
        let opt = run_simulation(&sys, &dram, &bundle, &MaxEfficiency::default(), &opts).unwrap();
        assert!(
            opt.efficiency >= rb.efficiency - 0.05,
            "oracle {} vs ReBudget {}",
            opt.efficiency,
            rb.efficiency
        );
        assert!(
            rb.efficiency >= eq.efficiency - 0.05,
            "ReBudget {} vs EqualBudget {}",
            rb.efficiency,
            eq.efficiency
        );
        assert!(
            eq.envy_freeness >= rb.envy_freeness - 0.05,
            "EqualBudget EF {} vs ReBudget EF {}",
            eq.envy_freeness,
            rb.envy_freeness
        );
    }

    #[test]
    fn trace_driven_mode_tracks_analytic_mode() {
        let sys = SystemConfig::scaled(4);
        let dram = DramConfig::ddr3_1600();
        let bundle =
            rebudget_workloads::generate_bundle(rebudget_workloads::Category::Cpbn, 4, 0, 5)
                .expect("4 cores");
        let mut opts = fast_opts();
        opts.quanta = 6;
        let analytic =
            run_simulation(&sys, &dram, &bundle, &EqualBudget::new(100.0), &opts).unwrap();
        opts.execution = ExecutionModel::TraceDriven;
        let traced = run_simulation(&sys, &dram, &bundle, &EqualBudget::new(100.0), &opts).unwrap();
        assert!(traced.efficiency > 0.0);
        // Trace-driven execution pays for enforcement transients and real
        // contention; it must stay in the same ballpark, below-or-near the
        // analytic ideal.
        let ratio = traced.efficiency / analytic.efficiency;
        assert!(
            (0.4..=1.15).contains(&ratio),
            "trace-driven {} vs analytic {} (ratio {ratio})",
            traced.efficiency,
            analytic.efficiency
        );
    }

    /// An observing hook that keeps each quantum's `degraded` flag.
    struct DegradedFlags(Vec<bool>);

    impl QuantumHook for DegradedFlags {
        fn control(&mut self, _quantum: usize, _controls: &mut QuantumControls) {}
        fn observe(&mut self, observation: &QuantumObservation) {
            self.0.push(observation.degraded);
        }
    }

    #[test]
    fn unfaulted_degraded_quanta_are_counted() {
        // Without a fault plan, a solve cut short by its deadline still
        // degrades its quantum: the run's count must agree with the
        // per-quantum flags the hook saw.
        let sys = SystemConfig::paper_8core();
        let dram = DramConfig::ddr3_1600();
        let mut mech = ReBudget::with_step(100.0, 20.0);
        mech.options.deadline = rebudget_market::DeadlineBudget::iterations(2).unwrap();
        let mut hook = DegradedFlags(Vec::new());
        let r = run_simulation_hooked(
            &sys,
            &dram,
            &paper_bbpc_8core(),
            &mech,
            &fast_opts(),
            &RecoveryOptions::default(),
            &mut hook,
        )
        .unwrap();
        let flagged = hook.0.iter().filter(|&&d| d).count();
        assert!(flagged > 0, "a 2-iteration deadline degrades a quantum");
        assert_eq!(r.degraded_quanta, flagged);
        assert_eq!(r.fallback_quanta, 0, "fallback stays fault-plan-only");
    }

    #[test]
    fn faulted_simulation_survives_and_stays_sane() {
        let sys = SystemConfig::paper_8core();
        let dram = DramConfig::ddr3_1600();
        let mut opts = fast_opts();
        opts.faults = Some(
            FaultPlan::parse("noise=0.15,drop=0.2,nan=0.05,stale=0.3,liars=2,seed=3").unwrap(),
        );
        let r = run_simulation(
            &sys,
            &dram,
            &paper_bbpc_8core(),
            &EqualBudget::new(100.0),
            &opts,
        )
        .unwrap();
        assert!(r.efficiency.is_finite() && r.efficiency > 0.0);
        assert!(r.envy_freeness.is_finite());
        assert!(r.utilities.iter().all(|&u| u.is_finite() && u >= 0.0));
        assert!(r.fallback_quanta <= r.quanta);
        assert!(r.degraded_quanta <= r.quanta);
    }

    #[test]
    fn faulted_simulation_is_deterministic() {
        let sys = SystemConfig::paper_8core();
        let dram = DramConfig::ddr3_1600();
        let mut opts = fast_opts();
        opts.faults = Some(FaultPlan::parse("noise=0.2,drop=0.15,liars=1,seed=17").unwrap());
        let run = || {
            run_simulation(
                &sys,
                &dram,
                &paper_bbpc_8core(),
                &EqualBudget::new(100.0),
                &opts,
            )
            .unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
        assert_eq!(a.envy_freeness.to_bits(), b.envy_freeness.to_bits());
        assert_eq!(a.fallback_quanta, b.fallback_quanta);
        assert_eq!(a.degraded_quanta, b.degraded_quanta);
    }

    #[test]
    fn total_drop_falls_back_without_panicking() {
        // Every bid dropped every quantum: the faulted market keeps one
        // player; the run must complete with finite outputs.
        let sys = SystemConfig::paper_8core();
        let dram = DramConfig::ddr3_1600();
        let mut opts = fast_opts();
        opts.faults = Some(FaultPlan::parse("drop=1.0,seed=5").unwrap());
        let r = run_simulation(
            &sys,
            &dram,
            &paper_bbpc_8core(),
            &EqualBudget::new(100.0),
            &opts,
        )
        .unwrap();
        assert!(r.efficiency.is_finite() && r.efficiency > 0.0);
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let sys = SystemConfig::paper_8core();
        let dram = DramConfig::ddr3_1600();
        let bundle = paper_bbpc_8core();
        let opts = fast_opts();
        let dir = std::env::temp_dir().join(format!("rebudget-sim-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("resume.ckpt");

        let mech = EqualBudget::new(100.0);
        let reference = run_simulation(&sys, &dram, &bundle, &mech, &opts).unwrap();

        // Simulate a crash after 2 of 4 quanta: run a truncated copy with
        // checkpointing on, then resume the full run from its snapshot.
        let mut partial = opts.clone();
        partial.quanta = 2;
        run_simulation_recoverable(
            &sys,
            &dram,
            &bundle,
            &mech,
            &partial,
            &RecoveryOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 1,
                resume: None,
            },
        )
        .unwrap();
        let resumed = run_simulation_recoverable(
            &sys,
            &dram,
            &bundle,
            &mech,
            &opts,
            &RecoveryOptions {
                resume: Some(path.clone()),
                ..RecoveryOptions::default()
            },
        )
        .unwrap();

        assert_eq!(resumed.replayed_quanta, 2);
        assert!(!resumed.used_prev_generation);
        assert_eq!(resumed.efficiency.to_bits(), reference.efficiency.to_bits());
        assert_eq!(
            resumed.envy_freeness.to_bits(),
            reference.envy_freeness.to_bits()
        );
        for (a, b) in resumed
            .efficiency_history
            .iter()
            .zip(&reference.efficiency_history)
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in resumed.utilities.iter().zip(&reference.utilities) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_configuration() {
        let sys = SystemConfig::paper_8core();
        let dram = DramConfig::ddr3_1600();
        let bundle = paper_bbpc_8core();
        let opts = fast_opts();
        let dir = std::env::temp_dir().join(format!("rebudget-sim-mis-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mismatch.ckpt");
        run_simulation_recoverable(
            &sys,
            &dram,
            &bundle,
            &EqualBudget::new(100.0),
            &opts,
            &RecoveryOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 2,
                resume: None,
            },
        )
        .unwrap();
        // Different seed: the snapshot must be refused, not silently used.
        let mut other = opts.clone();
        other.seed += 1;
        let err = run_simulation_recoverable(
            &sys,
            &dram,
            &bundle,
            &EqualBudget::new(100.0),
            &other,
            &RecoveryOptions {
                resume: Some(path.clone()),
                ..RecoveryOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::Checkpoint(crate::checkpoint::CheckpointError::ConfigMismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn analytic_mode_skips_monitors() {
        let sys = SystemConfig::paper_8core();
        let dram = DramConfig::ddr3_1600();
        let mut opts = fast_opts();
        opts.use_monitors = false;
        opts.accesses_per_quantum = 0;
        let r = run_simulation(
            &sys,
            &dram,
            &paper_bbpc_8core(),
            &EqualBudget::new(100.0),
            &opts,
        )
        .unwrap();
        assert!(r.efficiency > 0.0);
    }
}
