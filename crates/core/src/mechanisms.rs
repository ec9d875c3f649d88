//! The allocation mechanisms compared in the paper's evaluation (§6):
//!
//! * [`EqualShare`] — resources split equally among cores, no market.
//! * [`EqualBudget`] — the XChange market with identical budgets.
//! * [`Balanced`] — XChange's wealth-redistribution heuristic: budgets
//!   proportional to each player's utility "potential".
//! * [`ReBudget`] — the paper's iterative budget re-assignment with
//!   exponential back-off (§4.2).
//! * [`MaxEfficiency`] — the infeasible welfare-maximizing oracle used to
//!   normalize results.
//!
//! All implement [`Mechanism`] and return a [`MechanismOutcome`] carrying
//! the allocation plus every metric the paper reports (efficiency,
//! envy-freeness, MUR, MBR, iteration counts).

use rebudget_telemetry as telemetry;

use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::metrics;
use rebudget_market::optimal::{max_efficiency, OptimalOptions};
use rebudget_market::{
    solve_with_retry, AllocationMatrix, Market, MarketError, ParallelPolicy, Result, RetryPolicy,
};

use crate::theory::min_mbr_for_ef;

/// The result of running an allocation mechanism on a market.
#[derive(Debug, Clone)]
pub struct MechanismOutcome {
    /// Mechanism display name (e.g. `"ReBudget-20"`).
    pub mechanism: String,
    /// The final allocation (exhaustive over capacities).
    pub allocation: AllocationMatrix,
    /// Final per-player budgets; empty for non-market mechanisms
    /// (EqualShare, MaxEfficiency).
    pub budgets: Vec<f64>,
    /// Per-player utilities at the final allocation.
    pub utilities: Vec<f64>,
    /// Per-player marginal utility of money `λ_i` at the final equilibrium;
    /// empty for non-market mechanisms.
    pub lambdas: Vec<f64>,
    /// System efficiency `Σ_i U_i(r_i)` (weighted speedup).
    pub efficiency: f64,
    /// Envy-freeness of the allocation (Definition 3).
    pub envy_freeness: f64,
    /// Market Utility Range at the final equilibrium, if a market ran.
    pub mur: Option<f64>,
    /// Market Budget Range of the final budgets, if a market ran.
    pub mbr: Option<f64>,
    /// Number of market-equilibrium solves (ReBudget re-converges once per
    /// budget adjustment; single-shot markets report 1, oracles 0).
    pub equilibrium_rounds: u64,
    /// Total bidding–pricing iterations summed over all solves.
    pub total_iterations: u64,
    /// Whether every equilibrium solve met the price-convergence test
    /// before the fail-safe. `true` for non-market mechanisms.
    pub converged: bool,
    /// Total solver guardrail interventions
    /// ([`rebudget_market::RecoveryAction`]) summed over all equilibrium
    /// solves — 0 for a fully clean run.
    pub solver_recoveries: u64,
    /// Number of ReBudget reassignment rounds that were rolled back
    /// because the realized efficiency fell below the Theorem-1 floor
    /// (always 0 for other mechanisms).
    pub rolled_back_rounds: u64,
    /// `true` when this outcome is best-effort rather than a certified
    /// equilibrium: some solve hit the iteration fail-safe without
    /// converging. Metrics are still valid measurements of the returned
    /// allocation, but the theorem bounds tied to equilibrium need not
    /// hold.
    pub degraded: bool,
    /// Solves that stopped because their
    /// [`rebudget_market::DeadlineBudget`] ran out (0 with the default
    /// unbounded deadline).
    pub timed_out_solves: u64,
    /// Extra solve attempts taken by the [`RetryPolicy`] ladder beyond
    /// the first, summed over all equilibrium rounds (0 without a retry
    /// policy).
    pub retry_attempts: u64,
    /// Worst (largest) final solve residual across all equilibrium
    /// rounds, in the workspace-wide relative-excess-demand semantics of
    /// [`rebudget_market::SolveReport::residual`] — identical for every
    /// [`rebudget_market::SolverKind`]. `0.0` for non-market mechanisms.
    pub worst_residual: f64,
}

/// An allocation mechanism: anything that maps a market to an allocation.
pub trait Mechanism {
    /// Display name used in reports and figures.
    fn name(&self) -> String;

    /// Runs the mechanism.
    ///
    /// # Errors
    ///
    /// Propagates [`MarketError`]s from degenerate inputs; a market that
    /// merely fails to converge is *not* an error (see
    /// [`MechanismOutcome::converged`]).
    fn allocate(&self, market: &Market) -> Result<MechanismOutcome>;
}

fn outcome_from_allocation(
    name: String,
    market: &Market,
    allocation: AllocationMatrix,
) -> MechanismOutcome {
    let utilities: Vec<f64> = market
        .players()
        .iter()
        .enumerate()
        .map(|(i, p)| p.utility_of(allocation.row(i)))
        .collect();
    let efficiency = utilities.iter().sum();
    let envy_freeness = metrics::envy_freeness(market, &allocation);
    MechanismOutcome {
        mechanism: name,
        allocation,
        budgets: Vec::new(),
        utilities,
        lambdas: Vec::new(),
        efficiency,
        envy_freeness,
        mur: None,
        mbr: None,
        equilibrium_rounds: 0,
        total_iterations: 0,
        converged: true,
        solver_recoveries: 0,
        rolled_back_rounds: 0,
        degraded: false,
        timed_out_solves: 0,
        retry_attempts: 0,
        worst_residual: 0.0,
    }
}

/// Resources equally partitioned among all players — no market (§6).
#[derive(Debug, Clone, Default)]
pub struct EqualShare;

impl Mechanism for EqualShare {
    fn name(&self) -> String {
        "EqualShare".to_string()
    }

    fn allocate(&self, market: &Market) -> Result<MechanismOutcome> {
        let allocation =
            AllocationMatrix::equal_share(market.len(), market.resources().capacities())?;
        Ok(outcome_from_allocation(self.name(), market, allocation))
    }
}

/// The XChange market with the same budget for every player (§6).
#[derive(Debug, Clone)]
pub struct EqualBudget {
    /// The budget each player receives (paper: 100).
    pub budget: f64,
    /// Equilibrium-search options.
    pub options: EquilibriumOptions,
    /// Optional bounded retry ladder for non-converged / timed-out
    /// solves. `None` (the default) solves exactly once.
    pub retry: Option<RetryPolicy>,
}

impl EqualBudget {
    /// Creates the mechanism with the given per-player budget and default
    /// equilibrium options.
    pub fn new(budget: f64) -> Self {
        Self {
            budget,
            options: EquilibriumOptions::default(),
            retry: None,
        }
    }

    /// Sets the parallel policy for the inner equilibrium solves.
    #[must_use]
    pub fn with_parallel(mut self, policy: ParallelPolicy) -> Self {
        self.options.parallel = policy;
        self
    }
}

impl Default for EqualBudget {
    fn default() -> Self {
        Self::new(100.0)
    }
}

impl Mechanism for EqualBudget {
    fn name(&self) -> String {
        "EqualBudget".to_string()
    }

    fn allocate(&self, market: &Market) -> Result<MechanismOutcome> {
        let budgets = vec![self.budget; market.len()];
        run_market(
            self.name(),
            market,
            budgets,
            &self.options,
            self.retry.as_ref(),
        )
    }
}

/// XChange's *Balanced* wealth redistribution (§6): each player's budget is
/// proportional to `(U_max − U_min) / U_max`, where `U_max` is its utility
/// owning all discretionary resources and `U_min` its utility owning none.
/// Budgets are scaled so their mean equals `base_budget`.
#[derive(Debug, Clone)]
pub struct Balanced {
    /// Mean budget after scaling (paper: 100).
    pub base_budget: f64,
    /// Equilibrium-search options.
    pub options: EquilibriumOptions,
    /// Optional bounded retry ladder for non-converged / timed-out
    /// solves. `None` (the default) solves exactly once.
    pub retry: Option<RetryPolicy>,
}

impl Balanced {
    /// Creates the mechanism with the given mean budget and default
    /// equilibrium options.
    pub fn new(base_budget: f64) -> Self {
        Self {
            base_budget,
            options: EquilibriumOptions::default(),
            retry: None,
        }
    }

    /// Sets the parallel policy for the inner equilibrium solves.
    #[must_use]
    pub fn with_parallel(mut self, policy: ParallelPolicy) -> Self {
        self.options.parallel = policy;
        self
    }

    /// The budget vector this mechanism would assign on `market`.
    pub fn budgets(&self, market: &Market) -> Vec<f64> {
        let caps = market.resources().capacities();
        let zeros = vec![0.0; caps.len()];
        let potentials: Vec<f64> = market
            .players()
            .iter()
            .map(|p| {
                let umax = p.utility_of(caps);
                let umin = p.utility_of(&zeros);
                if umax > 0.0 {
                    ((umax - umin) / umax).max(0.0)
                } else {
                    0.0
                }
            })
            .collect();
        let mean = potentials.iter().sum::<f64>() / potentials.len() as f64;
        if mean <= 0.0 {
            return vec![self.base_budget; market.len()];
        }
        potentials
            .iter()
            .map(|&p| self.base_budget * p / mean)
            .collect()
    }
}

impl Default for Balanced {
    fn default() -> Self {
        Self::new(100.0)
    }
}

impl Mechanism for Balanced {
    fn name(&self) -> String {
        "Balanced".to_string()
    }

    fn allocate(&self, market: &Market) -> Result<MechanismOutcome> {
        let budgets = self.budgets(market);
        run_market(
            self.name(),
            market,
            budgets,
            &self.options,
            self.retry.as_ref(),
        )
    }
}

/// **ReBudget** (§4.2): iterative budget re-assignment with exponential
/// back-off.
///
/// Starting from equal budgets `B`, the mechanism repeatedly (1) finds a
/// market equilibrium, (2) collects each player's marginal utility of money
/// `λ_i`, (3) cuts the budget of every player whose `λ_i` is below
/// `lambda_threshold × max_i λ_i` by `step`, and (4) halves `step`. It
/// stops when `step` falls below 1% of `B` or no budget was cut, and the
/// last equilibrium is the outcome.
///
/// Because the cuts form a geometric series, a player's budget never drops
/// below `B − 2·step₀`; choosing `step₀ = (1 − MBR)·B/2` therefore
/// guarantees the configured Market Budget Range, and with it the Theorem-2
/// fairness floor.
#[derive(Debug, Clone)]
pub struct ReBudget {
    /// Initial (equal) budget `B` (paper: 100).
    pub base_budget: f64,
    /// First-round budget cut `step₀` (paper evaluates 20 and 40).
    pub initial_step: f64,
    /// A player is "low λ" when `λ_i < lambda_threshold · max λ`
    /// (paper: 0.5, tied to the knee of Theorem 1).
    pub lambda_threshold: f64,
    /// Stop when `step` falls below this fraction of `base_budget`
    /// (paper: 1%).
    pub min_step_fraction: f64,
    /// Hard floor on any budget, as a fraction of `base_budget`
    /// (`Some(MBR)` when constructed from a fairness target).
    pub budget_floor: Option<f64>,
    /// Equilibrium-search options.
    pub options: EquilibriumOptions,
    /// Optional bounded retry ladder for non-converged / timed-out
    /// solves, applied to every reassignment round. `None` (the default)
    /// solves each round exactly once.
    pub retry: Option<RetryPolicy>,
}

impl ReBudget {
    /// `ReBudget-step`: explicit first-round cut, as in the paper's
    /// evaluation (`ReBudget-20`, `ReBudget-40`).
    ///
    /// ```
    /// use rebudget_core::mechanisms::ReBudget;
    /// let mech = ReBudget::with_step(100.0, 20.0);
    /// assert_eq!(mech.name(), "ReBudget-20");
    /// // Cuts form a geometric series: budgets never fall below B − 2·step.
    /// assert!((mech.guaranteed_mbr() - 0.6).abs() < 1e-12);
    /// # use rebudget_core::mechanisms::Mechanism;
    /// ```
    pub fn with_step(base_budget: f64, initial_step: f64) -> Self {
        Self {
            base_budget,
            initial_step,
            lambda_threshold: 0.5,
            min_step_fraction: 0.01,
            budget_floor: None,
            options: EquilibriumOptions::default(),
            retry: None,
        }
    }

    /// Derives the step from an administrator-set envy-freeness floor:
    /// Theorem 2 yields the minimum MBR, and
    /// `step₀ = (1 − MBR)·B/2` guarantees budgets stay within it.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::InvalidValue`] if `min_ef` is outside
    /// `[0, 2√2 − 2]` — no budget assignment can guarantee more.
    pub fn with_fairness_floor(base_budget: f64, min_ef: f64) -> Result<Self> {
        let mbr = min_mbr_for_ef(min_ef).ok_or(MarketError::InvalidValue {
            what: "envy-freeness floor",
            value: min_ef,
        })?;
        let mut this = Self::with_step(base_budget, (1.0 - mbr) * base_budget / 2.0);
        this.budget_floor = Some(mbr);
        Ok(this)
    }

    /// Sets the parallel policy for the inner equilibrium solves.
    #[must_use]
    pub fn with_parallel(mut self, policy: ParallelPolicy) -> Self {
        self.options.parallel = policy;
        self
    }

    /// The guaranteed Market Budget Range of this configuration:
    /// `1 − 2·step₀/B` (or the explicit floor if set).
    pub fn guaranteed_mbr(&self) -> f64 {
        let geometric = 1.0 - 2.0 * self.initial_step / self.base_budget;
        self.budget_floor.unwrap_or(geometric).clamp(0.0, 1.0)
    }
}

impl Mechanism for ReBudget {
    fn name(&self) -> String {
        format!("ReBudget-{:.0}", self.initial_step)
    }

    fn allocate(&self, market: &Market) -> Result<MechanismOutcome> {
        let n = market.len();
        let mut budgets = vec![self.base_budget; n];
        let floor = self.budget_floor.map(|f| f * self.base_budget);
        let mut step = self.initial_step;
        let min_step = self.min_step_fraction * self.base_budget;

        let _rebudget_span = telemetry::span!("rebudget");
        let mut rounds = 0u64;
        let mut total_iterations = 0u64;
        let mut all_converged = true;
        let mut recoveries = 0u64;
        let mut rollbacks = 0u64;
        let mut retries = 0u64;
        let mut timeouts = 0u64;
        let mut worst_residual = 0.0_f64;

        let solve = |budgets: &[f64]| {
            solve_with_retry(&self.options, self.retry.as_ref(), |o| {
                market.equilibrium_with_budgets(budgets, o)
            })
        };
        let (mut eq, retry) = solve(&budgets)?;
        rounds += 1;
        total_iterations += eq.iterations;
        all_converged &= eq.converged();
        recoveries += eq.report.recovery.len() as u64;
        retries += retry.retries();
        timeouts += retry.timed_out_attempts;
        worst_residual = worst_residual.max(eq.report.residual);
        if telemetry::enabled() {
            telemetry::record(
                telemetry::Event::new("rebudget_round")
                    .field_u64("round", rounds)
                    .field_f64("efficiency", eq.efficiency())
                    .field_f64s("budgets", &budgets),
            );
        }

        loop {
            if step < min_step {
                break;
            }

            let max_lambda = eq.lambdas.iter().cloned().fold(0.0_f64, f64::max);
            let mut cut_any = false;
            let checkpoint = budgets.clone();
            if max_lambda > 0.0 {
                for (i, &l) in eq.lambdas.iter().enumerate() {
                    if l < self.lambda_threshold * max_lambda {
                        let mut next = budgets[i] - step;
                        if let Some(fl) = floor {
                            next = next.max(fl);
                        }
                        next = next.max(0.0);
                        if next < budgets[i] {
                            budgets[i] = next;
                            cut_any = true;
                        }
                    }
                }
            }
            if !cut_any {
                break;
            }
            step *= 0.5;

            let (next_eq, retry) = solve(&budgets)?;
            rounds += 1;
            total_iterations += next_eq.iterations;
            all_converged &= next_eq.converged();
            recoveries += next_eq.report.recovery.len() as u64;
            retries += retry.retries();
            timeouts += retry.timed_out_attempts;
            worst_residual = worst_residual.max(next_eq.report.residual);
            if telemetry::enabled() {
                telemetry::record(
                    telemetry::Event::new("rebudget_round")
                        .field_u64("round", rounds)
                        .field_f64("efficiency", next_eq.efficiency())
                        .field_f64s("budgets", &budgets),
                );
            }

            // Graceful degradation: a reassignment step must not push the
            // realized efficiency below the Theorem-1 floor for the *new*
            // MUR, taking the pre-step efficiency as a (conservative)
            // stand-in for OPT. Under clean inputs ReBudget steps improve
            // efficiency and this never fires; under noisy/adversarial
            // inputs it rolls the budgets back to the last-good checkpoint
            // and retries with the already-halved step.
            let eff_prev = eq.efficiency();
            let eff_new = next_eq.efficiency();
            let theorem_floor = crate::theory::poa_lower_bound(metrics::mur(&next_eq.lambdas));
            let below_floor = eff_new < theorem_floor * eff_prev - 1e-12;
            if telemetry::enabled() {
                telemetry::record(
                    telemetry::Event::new("floor_check")
                        .field_u64("round", rounds)
                        .field_f64("floor", theorem_floor)
                        .field_f64("efficiency", eff_new)
                        .field_f64("previous", eff_prev)
                        .field_bool("ok", !below_floor),
                );
            }
            if below_floor {
                budgets = checkpoint;
                rollbacks += 1;
                if telemetry::enabled() {
                    telemetry::record(
                        telemetry::Event::new("rollback")
                            .field_u64("round", rounds)
                            .field_str("cause", "theorem1_floor")
                            .field_f64("efficiency", eff_new)
                            .field_f64("floor", theorem_floor * eff_prev),
                    );
                    telemetry::global()
                        .registry
                        .counter("rebudget.rollbacks")
                        .incr();
                }
                // Keep the checkpoint equilibrium as the current state.
            } else {
                eq = next_eq;
            }
        }

        if telemetry::enabled() {
            let registry = &telemetry::global().registry;
            registry.counter("rebudget.rounds").add(rounds);
            registry
                .histogram("rebudget.rounds_per_allocate")
                .record(rounds);
        }
        let mut out = finish(
            self.name(),
            market,
            budgets,
            eq,
            rounds,
            total_iterations,
            all_converged,
        );
        out.solver_recoveries = recoveries;
        out.rolled_back_rounds = rollbacks;
        out.retry_attempts = retries;
        out.timed_out_solves = timeouts;
        // A rolled-back round's solve still counts toward the worst
        // residual: the number describes every solve taken, not just the
        // surviving equilibrium.
        out.worst_residual = worst_residual;
        Ok(out)
    }
}

fn finish(
    name: String,
    market: &Market,
    budgets: Vec<f64>,
    eq: rebudget_market::equilibrium::EquilibriumOutcome,
    rounds: u64,
    total_iterations: u64,
    converged: bool,
) -> MechanismOutcome {
    let efficiency = eq.efficiency();
    let envy_freeness = metrics::envy_freeness(market, &eq.allocation);
    let mur = metrics::mur(&eq.lambdas);
    let mbr = metrics::mbr(&budgets);
    let eq_residual = eq.report.residual;
    MechanismOutcome {
        mechanism: name,
        allocation: eq.allocation,
        budgets,
        utilities: eq.utilities,
        lambdas: eq.lambdas,
        efficiency,
        envy_freeness,
        mur: Some(mur),
        mbr: Some(mbr),
        equilibrium_rounds: rounds,
        total_iterations,
        converged,
        solver_recoveries: 0,
        rolled_back_rounds: 0,
        degraded: !converged,
        timed_out_solves: 0,
        retry_attempts: 0,
        worst_residual: eq_residual,
    }
}

fn run_market(
    name: String,
    market: &Market,
    budgets: Vec<f64>,
    options: &EquilibriumOptions,
    retry: Option<&RetryPolicy>,
) -> Result<MechanismOutcome> {
    let (eq, retry) = solve_with_retry(options, retry, |o| {
        market.equilibrium_with_budgets(&budgets, o)
    })?;
    let iterations = eq.iterations;
    let converged = eq.converged();
    let recoveries = eq.report.recovery.len() as u64;
    let mut out = finish(name, market, budgets, eq, 1, iterations, converged);
    out.solver_recoveries = recoveries;
    out.retry_attempts = retry.retries();
    out.timed_out_solves = retry.timed_out_attempts;
    Ok(out)
}

/// The welfare-maximizing oracle used as the normalizer in the paper's
/// figures (§6).
#[derive(Debug, Clone, Default)]
pub struct MaxEfficiency {
    /// Hill-climb granularity options.
    pub options: OptimalOptions,
}

impl MaxEfficiency {
    /// Sets the parallel policy for the marginal-table construction.
    #[must_use]
    pub fn with_parallel(mut self, policy: ParallelPolicy) -> Self {
        self.options.parallel = policy;
        self
    }
}

impl Mechanism for MaxEfficiency {
    fn name(&self) -> String {
        "MaxEfficiency".to_string()
    }

    fn allocate(&self, market: &Market) -> Result<MechanismOutcome> {
        let out = max_efficiency(market, &self.options)?;
        let timed_out = u64::from(out.timed_out);
        let mut outcome = outcome_from_allocation(self.name(), market, out.allocation);
        outcome.timed_out_solves = timed_out;
        outcome.degraded |= timed_out > 0;
        Ok(outcome)
    }
}

/// The lowercase names [`by_name`] accepts, one per mechanism of §6.
pub const NAMES: [&str; 5] = [
    "equalshare",
    "equalbudget",
    "balanced",
    "rebudget",
    "maxefficiency",
];

/// The mechanism called `name` (one of [`NAMES`], exact lowercase) with
/// per-player budget `budget`. The market mechanisms solve under
/// `options` and `retry`; [`MaxEfficiency`] takes only the deadline.
/// ReBudget's first-round cut is `step`, or 20 when it is `None`.
///
/// # Errors
///
/// A message for an unknown name, or for a `step` that is given but not
/// positive and finite.
pub fn by_name(
    name: &str,
    budget: f64,
    step: Option<f64>,
    options: &EquilibriumOptions,
    retry: Option<RetryPolicy>,
) -> std::result::Result<Box<dyn Mechanism>, String> {
    if let Some(step) = step.filter(|s| !(s.is_finite() && *s > 0.0)) {
        return Err(format!(
            "ReBudget step must be positive and finite, got {step}"
        ));
    }
    let options = options.clone();
    Ok(match name {
        "equalshare" => Box::new(EqualShare),
        "equalbudget" => Box::new(EqualBudget {
            budget,
            options,
            retry,
        }),
        "balanced" => Box::new(Balanced {
            base_budget: budget,
            options,
            retry,
        }),
        "rebudget" => Box::new(ReBudget {
            options,
            retry,
            ..ReBudget::with_step(budget, step.unwrap_or(20.0))
        }),
        "maxefficiency" => {
            let mut m = MaxEfficiency::default();
            m.options.deadline = options.deadline;
            Box::new(m)
        }
        other => return Err(format!("unknown mechanism '{other}'")),
    })
}

/// Runs several mechanisms on the same market and collects their outcomes.
///
/// # Errors
///
/// Propagates the first mechanism error encountered.
pub fn compare(market: &Market, mechanisms: &[&dyn Mechanism]) -> Result<Vec<MechanismOutcome>> {
    mechanisms.iter().map(|m| m.allocate(market)).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rebudget_market::utility::SeparableUtility;
    use rebudget_market::{Player, ResourceSpace, SolverKind};
    use std::sync::Arc;

    const CAPS: [f64; 2] = [16.0, 80.0];

    fn player(name: &str, w: [f64; 2]) -> Player {
        Player::new(
            name,
            100.0,
            Arc::new(SeparableUtility::proportional(&w, &CAPS).unwrap()),
        )
    }

    /// A small BBPC-flavoured market: a "both" player, an insensitive
    /// "none" player (whose λ will be low — the over-budgeted *swim* of the
    /// paper's Figure 3), a cache-lover, and a power-lover.
    fn bbpc_market() -> Market {
        Market::new(
            ResourceSpace::new(CAPS.to_vec()).unwrap(),
            vec![
                player("both", [0.5, 0.5]),
                player("none", [0.04, 0.06]),
                player("cache", [0.95, 0.05]),
                player("power", [0.05, 0.95]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn equal_share_is_fair_and_exhaustive() {
        let market = bbpc_market();
        let out = EqualShare.allocate(&market).unwrap();
        assert!(out.allocation.is_exhaustive(&CAPS, 1e-12));
        assert!(out.envy_freeness >= 1.0 - 1e-9, "equal share is envy-free");
        assert!(out.mur.is_none());
        assert_eq!(out.equilibrium_rounds, 0);
    }

    #[test]
    fn equal_budget_reports_full_metrics() {
        let market = bbpc_market();
        let out = EqualBudget::new(100.0).allocate(&market).unwrap();
        assert_eq!(out.budgets, vec![100.0; 4]);
        assert_eq!(out.mbr, Some(1.0));
        assert!(out.mur.unwrap() > 0.0 && out.mur.unwrap() <= 1.0);
        assert_eq!(out.equilibrium_rounds, 1);
        assert!(out.converged);
        assert!(out.allocation.is_exhaustive(&CAPS, 1e-9));
    }

    #[test]
    fn solver_selection_flows_through_mechanisms() {
        // The same mechanism solved with the first-order engine reaches a
        // price-taking equilibrium with full metrics, and the outcome
        // carries the worst solve residual in the unified semantics.
        let market = bbpc_market();
        let jac = EqualBudget::new(100.0).allocate(&market).unwrap();
        let mut pr = EqualBudget::new(100.0);
        pr.options.solver = SolverKind::ProportionalResponse;
        let pr = pr.allocate(&market).unwrap();
        assert!(pr.converged);
        assert!(pr.allocation.is_exhaustive(&CAPS, 1e-6));
        assert!(pr.worst_residual.is_finite() && pr.worst_residual >= 0.0);
        assert!(jac.worst_residual.is_finite());
        // Multi-round ReBudget tracks the max over every round's solve.
        let mut rb = ReBudget::with_step(100.0, 40.0);
        rb.options.solver = SolverKind::MirrorDescent;
        let rb = rb.allocate(&market).unwrap();
        assert!(rb.equilibrium_rounds >= 1);
        assert!(rb.worst_residual.is_finite() && rb.worst_residual >= 0.0);
    }

    #[test]
    fn equal_budget_nearly_envy_free() {
        // Lemma 3: equal budgets ⇒ ≥0.828-approximate envy-free; in
        // practice the paper observes ≥0.93.
        let market = bbpc_market();
        let out = EqualBudget::new(100.0).allocate(&market).unwrap();
        assert!(
            out.envy_freeness >= 0.828,
            "EF {} below Zhang's bound",
            out.envy_freeness
        );
    }

    #[test]
    fn balanced_budgets_track_potential() {
        let market = Market::new(
            ResourceSpace::new(CAPS.to_vec()).unwrap(),
            vec![
                player("hungry", [0.6, 0.4]),
                // "N"-type: barely sensitive to anything — simulate by tiny
                // weights (low max utility but also low potential since
                // utility range is compressed).
                Player::new(
                    "insensitive",
                    100.0,
                    Arc::new(
                        SeparableUtility::new(vec![
                            rebudget_market::utility::Concave1d::Linear { slope: 1e-3 },
                            rebudget_market::utility::Concave1d::Linear { slope: 1e-3 },
                        ])
                        .unwrap(),
                    ),
                ),
            ],
        )
        .unwrap();
        let b = Balanced::new(100.0);
        let budgets = b.budgets(&market);
        // Both players have potential 1 here ((U_max-0)/U_max); with the
        // sqrt utility everyone's potential is 1, so budgets equalize.
        assert!((budgets[0] - budgets[1]).abs() < 1e-9);
        let out = b.allocate(&market).unwrap();
        assert_eq!(out.equilibrium_rounds, 1);
    }

    #[test]
    fn rebudget_respects_guaranteed_mbr() {
        let market = bbpc_market();
        let mech = ReBudget::with_step(100.0, 20.0);
        let out = mech.allocate(&market).unwrap();
        let min_b = out.budgets.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_b = out.budgets.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max_b <= 100.0 + 1e-9);
        // Geometric series: cuts sum to < 2·step₀ = 40.
        assert!(min_b >= 100.0 - 40.0 - 1e-9, "min budget {min_b}");
        assert!(out.mbr.unwrap() >= mech.guaranteed_mbr() - 1e-9);
    }

    #[test]
    fn rebudget_improves_efficiency_over_equal_budget() {
        let market = bbpc_market();
        let eq = EqualBudget::new(100.0).allocate(&market).unwrap();
        let rb = ReBudget::with_step(100.0, 40.0).allocate(&market).unwrap();
        assert!(
            rb.efficiency >= eq.efficiency - 1e-6,
            "ReBudget-40 ({}) should not lose to EqualBudget ({})",
            rb.efficiency,
            eq.efficiency
        );
        // And it needed more equilibrium rounds to get there.
        assert!(rb.equilibrium_rounds > eq.equilibrium_rounds);
    }

    #[test]
    fn rebudget_raises_mur() {
        let market = bbpc_market();
        let eq = EqualBudget::new(100.0).allocate(&market).unwrap();
        let rb = ReBudget::with_step(100.0, 40.0).allocate(&market).unwrap();
        assert!(
            rb.mur.unwrap() >= eq.mur.unwrap() - 0.05,
            "MUR should move toward 1: {} vs {}",
            rb.mur.unwrap(),
            eq.mur.unwrap()
        );
    }

    #[test]
    fn fairness_floor_constructor_matches_theory() {
        let mech = ReBudget::with_fairness_floor(100.0, 0.5).unwrap();
        let mbr = crate::theory::min_mbr_for_ef(0.5).unwrap();
        assert!((mech.guaranteed_mbr() - mbr).abs() < 1e-12);
        assert!((mech.initial_step - (1.0 - mbr) * 50.0).abs() < 1e-12);
        assert!(ReBudget::with_fairness_floor(100.0, 0.9).is_err());
    }

    #[test]
    fn max_efficiency_dominates_all_market_mechanisms() {
        let market = bbpc_market();
        let opt = MaxEfficiency::default().allocate(&market).unwrap();
        for mech in [
            &EqualShare as &dyn Mechanism,
            &EqualBudget::new(100.0),
            &ReBudget::with_step(100.0, 20.0),
        ] {
            let out = mech.allocate(&market).unwrap();
            assert!(
                opt.efficiency >= out.efficiency - 1e-6,
                "{} beat the oracle: {} > {}",
                out.mechanism,
                out.efficiency,
                opt.efficiency
            );
        }
    }

    #[test]
    fn mechanism_names() {
        assert_eq!(EqualShare.name(), "EqualShare");
        assert_eq!(ReBudget::with_step(100.0, 20.0).name(), "ReBudget-20");
        assert_eq!(ReBudget::with_step(100.0, 40.0).name(), "ReBudget-40");
    }

    #[test]
    fn compare_runs_everything() {
        let market = bbpc_market();
        let outs = compare(
            &market,
            &[
                &EqualShare,
                &EqualBudget::new(100.0),
                &MaxEfficiency::default(),
            ],
        )
        .unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].mechanism, "EqualShare");
    }
}
