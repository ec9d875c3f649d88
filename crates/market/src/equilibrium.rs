//! Iterative bidding–pricing equilibrium search (§2.1 and §6.4).
//!
//! The market repeatedly (1) broadcasts the current prices and (2) lets each
//! player adjust its bids with the hill climber in [`crate::bidding`]. The
//! process stops when prices fluctuate by less than
//! [`EquilibriumOptions::price_tolerance`] between consecutive iterations
//! (the paper monitors prices and assumes convergence "when they fluctuate
//! within 1%"), or when the
//! [`EquilibriumOptions::max_iterations`] fail-safe trips (the paper
//! "simply terminate\[s\] the equilibrium finding algorithm after 30
//! iterations").
//!
//! # Sweep scheme and parallelism
//!
//! Within one iteration every player best-responds to a *snapshot* of the
//! bids from the end of the previous iteration (a Jacobi sweep). This
//! mirrors the paper's architecture — "each core … is actively optimizing
//! its resource assignment largely independently", reconciled only through
//! pricing — and makes the `N` per-player responses of an iteration
//! mutually independent, so [`EquilibriumOptions::parallel`] can fan them
//! out across threads. Because each response is a pure function of the
//! snapshot, and rows are reassembled in player order, the outcome is
//! **bit-identical** under [`ParallelPolicy::Serial`], `Auto`, and any
//! `Threads(n)` (asserted by the `parallel_determinism` integration
//! tests).
//!
//! The per-iteration cost is `O(N·M)` plus the hill climbs: the `Σ_i b_ij`
//! column totals are memoized once per iteration instead of being re-summed
//! per player, and each best response runs allocation-free against a
//! per-worker [`crate::bidding::BidScratch`].

use std::sync::Arc;

use rebudget_telemetry as telemetry;

use crate::bidding::{best_response_into, BidScratch, BiddingOptions};
use crate::deadline::DeadlineBudget;
use crate::par::{self, ParallelPolicy};
use crate::pricing;
use crate::{AllocationMatrix, BidMatrix, Market, MarketError, Result};

/// Damping factors below this floor stop halving — at 1/8 the sweep is
/// already heavily smoothed and further back-off only slows progress.
/// Shared with the first-order engines in [`crate::first_order`].
pub(crate) const MIN_DAMPING: f64 = 0.125;

/// A fluctuation this many times worse than the best stable iterate (or
/// the tolerance, whichever is larger) counts as divergence and triggers
/// a restart from the last stable price vector.
pub(crate) const DIVERGENCE_FACTOR: f64 = 8.0;

/// Fail-safe on restarts so a pathological market cannot livelock the
/// solver by diverging immediately after every restart.
pub(crate) const MAX_RESTARTS: usize = 2;

/// Which equilibrium engine a solve runs on.
///
/// All engines report the same residual semantics (see
/// [`crate::residual`]) and flow through the same
/// [`SolveReport`]/[`DeadlineBudget`]/telemetry plumbing, but they answer
/// slightly different questions:
///
/// * [`SolverKind::Jacobi`] — the paper's engine: each player runs the
///   §4.1.2 hill climb *anticipating* how its own bid moves prices
///   (Eq. 2). Computes the price-anticipating Nash equilibrium; `O(N·M)`
///   per iteration over a dense bid matrix. The solver of record for the
///   paper's 8–64-core markets and the small-N oracle.
/// * [`SolverKind::ProportionalResponse`] — proportional response
///   dynamics on the Eisenberg–Gale program: players are *price takers*.
///   Linear-time in the number of nonzero (player, resource) interests;
///   converges at `10⁵`–`10⁶` players.
/// * [`SolverKind::MirrorDescent`] — entropic mirror descent on the same
///   program: a damped generalization of proportional response.
///
/// The two first-order engines are one multiplicative update at
/// different steps γ (1 and 0.7). Over sparse bids they run through
/// [`crate::SparseMarket::solve`], whose iterations are `O(nnz)` and
/// allocation-free; over dense bids through [`crate::fisher`]. Both share
/// the private `first_order` module's outer loop (deadline, guardrails,
/// telemetry) and the workspace residual semantics.
///
/// The price-anticipating and price-taking equilibria coincide as
/// `N → ∞` (each player's bid stops moving prices) but differ at small
/// `N`; cross-validation against Jacobi therefore goes through the dense
/// first-order reference in [`crate::fisher`], which computes the same
/// price-taking equilibrium on dense storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKind {
    /// Dense Jacobi best-response hill climbing (the paper's engine).
    #[default]
    Jacobi,
    /// First-order proportional response dynamics (price-taking; Wu &
    /// Zhang, analyzed at scale by Gao & Kroer, *First-Order Methods for
    /// Large-Scale Market Equilibrium Computation*): each player splits
    /// its budget across goods **in proportion to the utility each good
    /// currently earns it**. For linear utilities, with per-good money
    /// `p̂_j = Σ_i b_ij` and allocation `x_ij = b_ij·C_j/p̂_j`:
    ///
    /// ```text
    /// b'_ij = B_i · (v_ij·x_ij) / Σ_k (v_ik·x_ik)
    /// ```
    ///
    /// which is entropic mirror descent on the Shmyrev reformulation of
    /// the Eisenberg–Gale program with step γ = 1. For Leontief utilities
    /// the response spends proportionally to `a_ij·p_j`, the equilibrium
    /// spending profile of a perfect-complements player.
    ProportionalResponse,
    /// First-order entropic mirror descent (price-taking, damped step).
    /// The entropy mirror map on the Shmyrev (bid-space) reformulation of
    /// Eisenberg–Gale yields a *multiplicative* update over each player's
    /// bids — for linear utilities, with bang-per-buck `q_ij = v_ij·C_j/p̂_j`:
    ///
    /// ```text
    /// b'_ij ∝ b_ij · q_ij^γ        (normalized to Σ_j b'_ij = B_i)
    /// ```
    ///
    /// at γ = 0.7. The step `γ ∈ (0, 1]` interpolates between standing
    /// still (γ → 0) and full proportional response (γ = 1, bit-identical
    /// to [`SolverKind::ProportionalResponse`]: the two share one kernel).
    /// Every γ in the range has the same fixed points — bang-per-buck
    /// equalized across each player's support, the Eisenberg–Gale
    /// first-order condition — so the solvers agree on the equilibrium
    /// and differ only in trajectory: smaller steps damp the oscillations
    /// that full proportional response can exhibit on hard instances
    /// (Leontief complements especially), at the cost of more iterations.
    MirrorDescent,
}

/// Mirror descent's step: damped enough to stabilize Leontief
/// complements, close enough to 1 to keep iteration counts near
/// proportional response's.
const MIRROR_STEP: f64 = 0.7;

impl SolverKind {
    /// Parses the CLI spelling (`jacobi` | `propresp` | `mirror`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "jacobi" => Some(SolverKind::Jacobi),
            "propresp" => Some(SolverKind::ProportionalResponse),
            "mirror" => Some(SolverKind::MirrorDescent),
            _ => None,
        }
    }

    /// Stable machine-readable name (CLI flag value, bench JSON field).
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Jacobi => "jacobi",
            SolverKind::ProportionalResponse => "propresp",
            SolverKind::MirrorDescent => "mirror",
        }
    }

    /// The multiplicative step γ of a first-order engine: 1 for
    /// proportional response, 0.7 for mirror descent, and `None` for
    /// Jacobi, which is not a first-order engine.
    pub(crate) fn first_order_step(self) -> Option<f64> {
        match self {
            SolverKind::Jacobi => None,
            SolverKind::ProportionalResponse => Some(1.0),
            SolverKind::MirrorDescent => Some(MIRROR_STEP),
        }
    }
}

/// A bid seed carried from a previous solve, so an online re-solve starts
/// from the last quantum's equilibrium instead of from scratch.
///
/// The layout matches the engine that consumes it:
///
/// * dense engines (Jacobi and the dense first-order reference) expect a
///   row-major `n × m` matrix — [`WarmStart::from_outcome`];
/// * the sparse engines expect the CSR value array of the market's
///   interest pattern, `nnz` entries — [`WarmStart::from_sparse`].
///
/// Warm starting is **best effort and row-local**: a seed whose length
/// does not match the market is ignored wholesale, and any individual row
/// that is unusable (non-finite or negative entries, or a non-positive
/// row sum) falls back to the cold equal-split start for that player
/// only. Usable rows are rescaled to the player's *current* budget, so a
/// budget change between quanta keeps the seed feasible.
///
/// The multiplicative first-order engines additionally **lift** exact-zero
/// seed entries to a tiny positive fraction of the budget before seeding:
/// a converged multiplicative run underflows unattractive bids to exact
/// `0.0`, and a zero bid can never revive under the multiplicative step —
/// rejecting such rows outright would cold-start nearly every player and
/// forfeit the warm start precisely where it matters (the online server's
/// tick-to-tick re-solves). A warm-started solve is still a pure function
/// of `(market, budgets, options)` — determinism and the bit-identical
/// parallel-policy guarantee are unaffected.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WarmStart {
    /// The seed bids (dense row-major `n × m`, or sparse CSR values).
    pub bids: Vec<f64>,
}

impl WarmStart {
    /// Seeds the next dense solve from a previous outcome's final bids.
    pub fn from_outcome(outcome: &EquilibriumOutcome) -> Self {
        Self {
            bids: outcome.bids.as_slice().to_vec(),
        }
    }

    /// Seeds the next sparse solve from a previous sparse outcome's final
    /// CSR bid values (the interest pattern must be unchanged; a changed
    /// pattern makes the lengths disagree and the seed is ignored).
    pub fn from_sparse(outcome: &crate::sparse::SparseOutcome) -> Self {
        Self {
            bids: outcome.bids.vals().to_vec(),
        }
    }

    /// Wraps the seed for [`EquilibriumOptions::warm_start`].
    pub fn shared(self) -> Option<Arc<Self>> {
        Some(Arc::new(self))
    }
}

/// Validates one warm row: every entry finite and ≥ the floor, with a
/// strictly positive finite sum. `floor` is `0.0` everywhere today:
/// Jacobi tolerates zero bids outright, and the multiplicative engines
/// lift zeros via [`warm_overlay_multiplicative`] instead of rejecting
/// the row.
pub(crate) fn warm_row_usable(row: &[f64], floor: f64) -> bool {
    let mut sum = 0.0;
    for &b in row {
        if !b.is_finite() || b < floor {
            return false;
        }
        sum += b;
    }
    sum.is_finite() && sum > 0.0
}

/// Fraction of a player's budget (spread over the row) used to lift a
/// zero seed bid back to strictly positive before a multiplicative
/// solve. Small enough that a lifted entry contributes nothing to the
/// seeded prices, large enough that the multiplicative step can grow it
/// back if the new market wants that bid nonzero.
const WARM_LIFT: f64 = 1e-12;

/// Overlays one warm seed row for a multiplicative engine: every entry
/// is lifted to at least `budget · WARM_LIFT / len`, then the row is
/// rescaled to sum to the player's current budget — strictly positive
/// throughout, as the multiplicative step requires. Returns `false`
/// (leaving `dst` at its cold start) when the seed is unusable: empty
/// row, zero budget, non-finite or negative entries, or a non-positive
/// sum.
pub(crate) fn warm_overlay_multiplicative(dst: &mut [f64], seed: &[f64], budget: f64) -> bool {
    if seed.is_empty() || budget <= 0.0 || !warm_row_usable(seed, 0.0) {
        return false;
    }
    let floor = budget * WARM_LIFT / seed.len() as f64;
    let sum: f64 = seed.iter().map(|&b| b.max(floor)).sum();
    let scale = budget / sum;
    for (dst, &b) in dst.iter_mut().zip(seed) {
        *dst = b.max(floor) * scale;
    }
    true
}

/// Options for the equilibrium search.
#[derive(Debug, Clone, PartialEq)]
pub struct EquilibriumOptions {
    /// Fail-safe iteration cap (paper: 30).
    pub max_iterations: usize,
    /// Relative price-fluctuation threshold for convergence (paper: 1%).
    ///
    /// The residual compared against this threshold is the relative
    /// excess demand of [`crate::residual::relative_price_gap`] for every
    /// [`SolverKind`].
    pub price_tolerance: f64,
    /// Options forwarded to each player's hill-climbing best response
    /// (Jacobi engine only; first-order engines have no hill climb).
    pub bidding: BiddingOptions,
    /// How the per-player best-response fan-out executes. Purely an
    /// execution knob: results are bit-identical under every policy.
    pub parallel: ParallelPolicy,
    /// Wall-clock / iteration budget for the solve. When exhausted the
    /// search stops and returns its best-effort iterate with
    /// [`SolveReport::timed_out`] set — it never spins past the budget.
    /// The default is unbounded, which changes nothing.
    pub deadline: DeadlineBudget,
    /// Which engine runs the solve. The default ([`SolverKind::Jacobi`])
    /// reproduces the paper's behaviour exactly.
    pub solver: SolverKind,
    /// Bid seed from a previous solve (see [`WarmStart`]). `None` — the
    /// default — is the cold equal-split start and changes nothing.
    /// Behind an `Arc` so cloning options (the retry ladder does this per
    /// rung) never copies a large seed.
    pub warm_start: Option<Arc<WarmStart>>,
}

impl Default for EquilibriumOptions {
    fn default() -> Self {
        Self {
            max_iterations: 30,
            price_tolerance: 0.01,
            bidding: BiddingOptions::default(),
            parallel: ParallelPolicy::Auto,
            deadline: DeadlineBudget::UNBOUNDED,
            solver: SolverKind::Jacobi,
            warm_start: None,
        }
    }
}

impl EquilibriumOptions {
    /// A high-precision variant: finer bid steps and a tighter price
    /// tolerance than the defaults. Only tests use it; the analytical
    /// evaluation phase runs on the defaults.
    pub fn precise() -> Self {
        Self {
            max_iterations: 60,
            price_tolerance: 0.002,
            bidding: BiddingOptions {
                lambda_tolerance: 0.02,
                min_step_fraction: 0.001,
            },
            parallel: ParallelPolicy::Auto,
            deadline: DeadlineBudget::UNBOUNDED,
            solver: SolverKind::Jacobi,
            warm_start: None,
        }
    }

    /// The configuration for production-scale markets: proportional
    /// response to paper-grade precision (`1e-6` relative excess demand)
    /// with an iteration cap sized for `10⁶`-player markets.
    pub fn large_scale() -> Self {
        Self {
            max_iterations: 20_000,
            price_tolerance: 1e-6,
            bidding: BiddingOptions::default(),
            parallel: ParallelPolicy::Auto,
            deadline: DeadlineBudget::UNBOUNDED,
            solver: SolverKind::ProportionalResponse,
            warm_start: None,
        }
    }

    /// Returns `self` with the parallel policy replaced — convenience for
    /// mechanism/bench plumbing.
    #[must_use]
    pub fn with_parallel(mut self, policy: ParallelPolicy) -> Self {
        self.parallel = policy;
        self
    }

    /// Returns `self` with the solver engine replaced.
    #[must_use]
    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    /// Returns `self` with the warm-start seed replaced (`None` clears
    /// it back to the cold equal-split start).
    #[must_use]
    pub fn with_warm_start(mut self, warm: Option<Arc<WarmStart>>) -> Self {
        self.warm_start = warm;
        self
    }
}

/// A guardrail intervention taken during the equilibrium search.
///
/// Every action is recorded in [`SolveReport::recovery`] so callers can
/// distinguish a clean solve from one the guardrails had to rescue.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RecoveryAction {
    /// Prices stopped improving (oscillation/stall), so the Jacobi sweep
    /// was damped: new bids become `(1−d)·old + d·new`. Damping backs off
    /// exponentially (`d ← d/2`, floored at 1/8), mirroring ReBudget's own
    /// step back-off idiom.
    OscillationDamped {
        /// Iteration at which damping was tightened.
        iteration: u64,
        /// The damping factor `d` in effect after tightening.
        damping: f64,
    },
    /// Prices diverged (or went non-finite), so the search was restarted
    /// from the lowest-residual stable bid matrix seen so far.
    RestartedFromStable {
        /// Iteration at which the restart happened.
        iteration: u64,
    },
    /// A non-finite value (NaN/∞) appeared and was repaired in place —
    /// e.g. a best-response row from a faulty utility was replaced by the
    /// player's previous bids, or a non-finite utility was zeroed.
    NonFiniteSanitized {
        /// Iteration at which the repair happened (0 = after the loop).
        iteration: u64,
        /// Which quantity went non-finite.
        what: &'static str,
    },
}

impl RecoveryAction {
    /// Stable machine-readable name (the journal's `recovery.action`).
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryAction::OscillationDamped { .. } => "oscillation_damped",
            RecoveryAction::RestartedFromStable { .. } => "restarted_from_stable",
            RecoveryAction::NonFiniteSanitized { .. } => "non_finite_sanitized",
        }
    }

    /// Iteration the action fired at.
    pub fn iteration(&self) -> u64 {
        match self {
            RecoveryAction::OscillationDamped { iteration, .. }
            | RecoveryAction::RestartedFromStable { iteration }
            | RecoveryAction::NonFiniteSanitized { iteration, .. } => *iteration,
        }
    }
}

/// Structured description of how an equilibrium solve went.
///
/// Replaces the bare `converged: bool` the solver used to return: callers
/// can now see the final residual, every guardrail intervention, and turn
/// non-convergence into a typed error via [`SolveReport::ensure_converged`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveReport {
    /// Whether prices met the fluctuation threshold before the fail-safe.
    pub converged: bool,
    /// Bidding–pricing iterations executed. All iteration/round counts in
    /// this workspace are `u64` (see DESIGN.md "Observability"): counts
    /// are data that cross serialization and telemetry boundaries, so
    /// they must not vary with the host's pointer width.
    pub iterations: u64,
    /// Final convergence residual: the **relative excess demand** between
    /// the last two iterates, `max_j |p'_j − p_j| / max(|p_j|, |p'_j|)`
    /// over per-good prices (see [`crate::residual::relative_price_gap`]).
    /// Identical semantics for every [`SolverKind`] — ≤ tolerance iff
    /// `converged`; for non-converged solves this is the residual of the
    /// iterate that was actually returned, i.e. the best stable one.
    pub residual: f64,
    /// Guardrail interventions, in the order they fired.
    pub recovery: Vec<RecoveryAction>,
    /// The solve stopped because its [`crate::DeadlineBudget`] ran out,
    /// not because it converged or hit the iteration fail-safe.
    pub timed_out: bool,
}

impl SolveReport {
    /// `true` when the solve converged without any guardrail intervention.
    pub fn is_clean(&self) -> bool {
        self.converged && self.recovery.is_empty() && !self.timed_out
    }

    /// Converts a deadline overrun into a typed error; `Ok(())` otherwise.
    pub fn ensure_within_deadline(&self) -> Result<()> {
        if self.timed_out {
            Err(MarketError::DeadlineExceeded {
                iterations: self.iterations,
                residual: self.residual,
            })
        } else {
            Ok(())
        }
    }

    /// Converts non-convergence into a typed error; `Ok(())` otherwise.
    pub fn ensure_converged(&self) -> Result<()> {
        if self.converged {
            Ok(())
        } else {
            Err(MarketError::NonConvergence {
                iterations: self.iterations,
                residual: self.residual,
            })
        }
    }
}

/// The result of an equilibrium search.
#[derive(Debug, Clone)]
pub struct EquilibriumOutcome {
    /// Final bids.
    pub bids: BidMatrix,
    /// Final proportional prices.
    pub prices: Vec<f64>,
    /// Final allocation (exhaustive: columns sum to capacities).
    pub allocation: AllocationMatrix,
    /// Per-player utility at the final allocation.
    pub utilities: Vec<f64>,
    /// Per-player marginal utility of money `λ_i` at the final bids.
    pub lambdas: Vec<f64>,
    /// Bidding–pricing iterations executed.
    pub iterations: u64,
    /// How the solve went: convergence, residual, and every guardrail
    /// intervention ([`RecoveryAction`]) taken along the way.
    pub report: SolveReport,
}

impl EquilibriumOutcome {
    /// System efficiency (social welfare) at this equilibrium:
    /// `Σ_i U_i(r_i)` — Definition 1 of the paper. When utilities are
    /// normalized IPC this is exactly *weighted speedup* (Eq. 5).
    pub fn efficiency(&self) -> f64 {
        self.utilities.iter().sum()
    }

    /// Whether prices met the fluctuation threshold before the fail-safe
    /// (shorthand for `report.converged`).
    pub fn converged(&self) -> bool {
        self.report.converged
    }
}

impl AsRef<SolveReport> for EquilibriumOutcome {
    fn as_ref(&self) -> &SolveReport {
        &self.report
    }
}

/// Records `action` in the solve's recovery trace and, when telemetry is
/// enabled, mirrors it into the journal. Called only from the solvers'
/// serial post-sweep sections, so the event order is deterministic.
/// Shared with the first-order engines (`fisher`, `first_order`).
pub(crate) fn push_recovery(recovery: &mut Vec<RecoveryAction>, action: RecoveryAction) {
    if telemetry::enabled() {
        let mut event = telemetry::Event::new("recovery")
            .field_u64("iteration", action.iteration())
            .field_str("action", action.label());
        if let RecoveryAction::NonFiniteSanitized { what, .. } = &action {
            event = event.field_str("what", what);
        }
        telemetry::record(event);
    }
    recovery.push(action);
}

/// Entry point shared by [`crate::Market::equilibrium`] and friends:
/// dispatches on [`EquilibriumOptions::solver`].
pub(crate) fn find_equilibrium(
    market: &Market,
    budgets: &[f64],
    options: &EquilibriumOptions,
) -> Result<EquilibriumOutcome> {
    match options.solver {
        SolverKind::Jacobi => find_equilibrium_jacobi(market, budgets, options),
        kind => crate::fisher::find_equilibrium_first_order(market, budgets, options, kind),
    }
}

/// The paper's engine: Jacobi sweeps of price-anticipating best responses.
fn find_equilibrium_jacobi(
    market: &Market,
    budgets: &[f64],
    options: &EquilibriumOptions,
) -> Result<EquilibriumOutcome> {
    let n = market.len();
    let m = market.resources().len();
    let capacities = market.resources().capacities();

    let _solve_span = telemetry::span!("solve");
    crate::first_order::emit_solve_start(n, m);

    let mut bids = BidMatrix::equal_split(budgets, m)?;
    // Warm start: overlay usable seed rows over the equal-split baseline,
    // rescaled to each player's current budget (Jacobi tolerates zero
    // bids, so the row floor is 0).
    if let Some(warm) = options.warm_start.as_deref() {
        if warm.bids.len() == n * m {
            for i in 0..n {
                let row = &warm.bids[i * m..(i + 1) * m];
                if budgets[i] > 0.0 && warm_row_usable(row, 0.0) {
                    let scale = budgets[i] / row.iter().sum::<f64>();
                    for (j, &b) in row.iter().enumerate() {
                        bids.set(i, j, b * scale);
                    }
                }
            }
        }
    }
    // Double buffer for the Jacobi sweep: responses for iteration k+1 are
    // written into `next` while `bids` holds the iteration-k snapshot.
    let mut next = bids.clone();
    let mut col_sums = vec![0.0; m];
    let mut prices = pricing::prices(&bids, market.resources());
    let mut iterations: u64 = 0;
    let mut converged = false;
    let threads = options.parallel.resolved_threads(n);

    // Guardrail state. Every guardrail decision below is a deterministic
    // function of the fully-assembled post-sweep state, so the outcome
    // stays bit-identical under every `ParallelPolicy`.
    let mut recovery: Vec<RecoveryAction> = Vec::new();
    let mut damping = 1.0_f64; // 1.0 = undamped Jacobi sweep
    let mut restarts = 0usize;
    // Lowest-residual stable iterate seen so far (restart target and the
    // fallback result for non-converged solves).
    let mut best_bids = bids.clone();
    let mut best_residual = f64::INFINITY;
    let mut prev_fluctuation = f64::INFINITY;
    let mut residual = f64::INFINITY;
    let mut timed_out = false;
    let mut clock = options.deadline.start();

    while iterations < options.max_iterations as u64 {
        iterations += 1;
        // Deadline accounting: charge the iteration up front; the verdict
        // is applied after the sweep so at least one iteration always runs
        // and a convergence reached on the final iteration still counts.
        let deadline_hit = clock.charge(1);
        // Step 2: every player best-responds to the snapshot. The column
        // totals are memoized once, so each player's `y_ij = Σ b_kj − b_ij`
        // costs O(M) instead of O(N·M).
        for (j, sum) in col_sums.iter_mut().enumerate() {
            *sum = bids.column_sum(j);
        }
        {
            let snapshot = &bids;
            let col_sums = &col_sums;
            par::for_each_row(
                threads,
                next.as_mut_slice(),
                m,
                || (BidScratch::new(m), vec![0.0; m]),
                |(scratch, others), i, row| {
                    for (j, y) in others.iter_mut().enumerate() {
                        *y = col_sums[j] - snapshot.get(i, j);
                    }
                    best_response_into(
                        market.players()[i].utility().as_ref(),
                        budgets[i],
                        others,
                        capacities,
                        &options.bidding,
                        scratch,
                        row,
                    );
                },
            );
        }
        // Guardrail: a faulty utility (NaN/∞ evaluations) can poison a
        // best-response row. Replace any non-finite row with the player's
        // previous bids — that row is feasible by construction.
        for i in 0..n {
            if next.row(i).iter().any(|b| !b.is_finite()) {
                for j in 0..m {
                    let prev = bids.get(i, j);
                    next.set(i, j, prev);
                }
                push_recovery(
                    &mut recovery,
                    RecoveryAction::NonFiniteSanitized {
                        iteration: iterations,
                        what: "bid row",
                    },
                );
            }
        }
        // Guardrail: damped sweep. Both rows are budget-feasible, so the
        // convex combination is too.
        if damping < 1.0 {
            for i in 0..n {
                for j in 0..m {
                    let blended = (1.0 - damping) * bids.get(i, j) + damping * next.get(i, j);
                    next.set(i, j, blended);
                }
            }
        }
        std::mem::swap(&mut bids, &mut next);
        let new_prices = pricing::prices(&bids, market.resources());
        let fluctuation = crate::residual::relative_price_gap(&prices, &new_prices);
        prices = new_prices;
        residual = fluctuation;
        if telemetry::enabled() {
            // Serial section (post-sweep): the per-iteration residual and
            // price trace is a deterministic function of the inputs.
            telemetry::record(
                telemetry::Event::new("solver_iteration")
                    .field_u64("iteration", iterations)
                    .field_f64("residual", fluctuation)
                    .field_f64s("prices", &prices),
            );
        }
        if fluctuation <= options.price_tolerance {
            converged = true;
            break;
        }
        // Deadline: stop spinning, keep the best-effort iterate. Checked
        // again here (not only at the charge) so a wall clock that expired
        // *during* the sweep is honoured before another sweep starts.
        if deadline_hit || clock.expired() {
            timed_out = true;
            break;
        }
        // Guardrail: divergence ⇒ restart from the last stable iterate,
        // with the sweep damped so the same blow-up does not repeat.
        let diverged = !fluctuation.is_finite()
            || fluctuation > DIVERGENCE_FACTOR * best_residual.max(options.price_tolerance);
        if diverged && restarts < MAX_RESTARTS && best_residual.is_finite() {
            restarts += 1;
            bids.clone_from(&best_bids);
            prices = pricing::prices(&bids, market.resources());
            damping = (damping * 0.5).max(MIN_DAMPING);
            push_recovery(
                &mut recovery,
                RecoveryAction::RestartedFromStable {
                    iteration: iterations,
                },
            );
            prev_fluctuation = f64::INFINITY;
            continue;
        }
        // Guardrail: oscillation/stall ⇒ exponential back-off on the
        // damping factor, echoing ReBudget's own step back-off.
        if fluctuation >= prev_fluctuation && damping > MIN_DAMPING {
            damping = (damping * 0.5).max(MIN_DAMPING);
            push_recovery(
                &mut recovery,
                RecoveryAction::OscillationDamped {
                    iteration: iterations,
                    damping,
                },
            );
        }
        if fluctuation.is_finite() && fluctuation < best_residual {
            best_residual = fluctuation;
            best_bids.clone_from(&bids);
        }
        prev_fluctuation = fluctuation;
    }

    // Non-converged fail-safe: return the lowest-residual stable iterate
    // instead of whatever the last sweep produced.
    if !converged && best_residual < residual {
        bids.clone_from(&best_bids);
        prices = pricing::prices(&bids, market.resources());
        residual = best_residual;
    }

    let allocation = pricing::allocate(&bids, market.resources());
    let mut utilities: Vec<f64> = (0..n)
        .map(|i| market.players()[i].utility_of(allocation.row(i)))
        .collect();
    // Final guardrail: a faulty utility can still evaluate non-finite at
    // the settled allocation. Zero it (pessimistic) rather than poisoning
    // efficiency/EF metrics downstream.
    for u in &mut utilities {
        if !u.is_finite() {
            *u = 0.0;
            push_recovery(
                &mut recovery,
                RecoveryAction::NonFiniteSanitized {
                    iteration: iterations,
                    what: "utility",
                },
            );
        }
    }
    let mut lambdas: Vec<f64> = (0..n)
        .map(|i| lambda_at(market, &bids, i, capacities))
        .collect();
    for l in &mut lambdas {
        if !l.is_finite() {
            *l = 0.0;
            push_recovery(
                &mut recovery,
                RecoveryAction::NonFiniteSanitized {
                    iteration: iterations,
                    what: "lambda",
                },
            );
        }
    }

    let report = SolveReport {
        converged,
        iterations,
        residual,
        recovery,
        timed_out,
    };
    crate::first_order::emit_solve_end(&report);
    Ok(EquilibriumOutcome {
        bids,
        prices,
        allocation,
        utilities,
        lambdas,
        iterations,
        report,
    })
}

/// Marginal utility of money for player `i` at the current bids: the best
/// rate `∂U_i/∂b_ij` available across resources (Eq. 4 / Eq. 7).
pub fn lambda_at(market: &Market, bids: &BidMatrix, i: usize, capacities: &[f64]) -> f64 {
    let m = capacities.len();
    let allocation: Vec<f64> = (0..m)
        .map(|j| {
            let y = bids.others_sum(i, j);
            crate::pricing::predicted_share(bids.get(i, j), y, capacities[j])
        })
        .collect();
    let utility = market.players()[i].utility();
    (0..m)
        .map(|j| {
            let b = bids.get(i, j);
            let y = bids.others_sum(i, j);
            let denom = (b + y).max(1e-12);
            let dr_db = y * capacities[j] / (denom * denom);
            utility.marginal(&allocation, j) * dr_db
        })
        .fold(0.0_f64, f64::max)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::utility::SeparableUtility;
    use crate::{Player, ResourceSpace};
    use std::sync::Arc;

    fn two_player_market(w0: [f64; 2], w1: [f64; 2]) -> Market {
        let caps = [16.0, 80.0];
        let resources = ResourceSpace::new(caps.to_vec()).unwrap();
        Market::new(
            resources,
            vec![
                Player::new(
                    "a",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&w0, &caps).unwrap()),
                ),
                Player::new(
                    "b",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&w1, &caps).unwrap()),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn converges_and_exhausts_resources() {
        let market = two_player_market([0.8, 0.2], [0.2, 0.8]);
        let out = market.equilibrium(&EquilibriumOptions::default()).unwrap();
        assert!(out.converged(), "took {} iterations", out.iterations);
        assert!(out.report.is_clean(), "recovery: {:?}", out.report.recovery);
        assert!(out.report.residual <= 0.01);
        assert!(out.report.ensure_converged().is_ok());
        assert!(out.iterations <= 30);
        assert!(out
            .allocation
            .is_exhaustive(market.resources().capacities(), 1e-9));
        assert_eq!(out.utilities.len(), 2);
        assert!(out.efficiency() > 0.0);
    }

    #[test]
    fn complementary_players_get_their_preferred_resource() {
        let market = two_player_market([0.9, 0.1], [0.1, 0.9]);
        let out = market.equilibrium(&EquilibriumOptions::precise()).unwrap();
        // Player a should end up with most of resource 0, player b with most
        // of resource 1.
        assert!(out.allocation.get(0, 0) > out.allocation.get(1, 0));
        assert!(out.allocation.get(1, 1) > out.allocation.get(0, 1));
    }

    #[test]
    fn symmetric_players_split_evenly() {
        let market = two_player_market([0.5, 0.5], [0.5, 0.5]);
        let out = market.equilibrium(&EquilibriumOptions::precise()).unwrap();
        for j in 0..2 {
            let a = out.allocation.get(0, j);
            let b = out.allocation.get(1, j);
            assert!(
                (a - b).abs() / (a + b) < 0.05,
                "resource {j}: {a} vs {b} not symmetric"
            );
        }
        // Symmetric market ⇒ λs agree ⇒ MUR ≈ 1.
        let (lo, hi) = (
            out.lambdas.iter().cloned().fold(f64::INFINITY, f64::min),
            out.lambdas.iter().cloned().fold(0.0_f64, f64::max),
        );
        assert!(lo / hi > 0.9, "λs {:?}", out.lambdas);
    }

    #[test]
    fn budget_override_shifts_allocation() {
        let market = two_player_market([0.5, 0.5], [0.5, 0.5]);
        let out = market
            .equilibrium_with_budgets(&[150.0, 50.0], &EquilibriumOptions::precise())
            .unwrap();
        // The richer symmetric player gets more of everything.
        assert!(out.allocation.get(0, 0) > out.allocation.get(1, 0));
        assert!(out.allocation.get(0, 1) > out.allocation.get(1, 1));
    }

    #[test]
    fn prices_reflect_contention() {
        // Both players want resource 0 badly; its price should exceed the
        // price of the unloved resource 1 (per unit).
        let market = two_player_market([0.9, 0.1], [0.9, 0.1]);
        let out = market.equilibrium(&EquilibriumOptions::default()).unwrap();
        assert!(out.prices[0] > out.prices[1]);
    }

    #[test]
    fn zero_budget_player_gets_only_free_leftovers() {
        let caps = [16.0, 80.0];
        let resources = ResourceSpace::new(caps.to_vec()).unwrap();
        let market = Market::new(
            resources,
            vec![
                Player::new(
                    "rich",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.5, 0.5], &caps).unwrap()),
                ),
                Player::new(
                    "broke",
                    0.0,
                    Arc::new(SeparableUtility::proportional(&[0.5, 0.5], &caps).unwrap()),
                ),
            ],
        )
        .unwrap();
        let out = market.equilibrium(&EquilibriumOptions::default()).unwrap();
        assert!(out.allocation.get(1, 0) < 1e-9);
        assert!((out.allocation.get(0, 0) - caps[0]).abs() < 1e-9);
    }

    /// A utility that always evaluates NaN — the pathological case the
    /// non-finite guardrails exist for.
    #[derive(Debug)]
    struct NanUtility;
    impl crate::Utility for NanUtility {
        fn value(&self, _r: &[f64]) -> f64 {
            f64::NAN
        }
        fn marginal(&self, _r: &[f64], _j: usize) -> f64 {
            f64::NAN
        }
    }

    #[test]
    fn nan_utility_is_sanitized_not_propagated() {
        let caps = [16.0, 80.0];
        let resources = ResourceSpace::new(caps.to_vec()).unwrap();
        let market = Market::new(
            resources,
            vec![
                Player::new(
                    "sane",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.5, 0.5], &caps).unwrap()),
                ),
                Player::new("broken", 100.0, Arc::new(NanUtility)),
            ],
        )
        .unwrap();
        let out = market.equilibrium(&EquilibriumOptions::default()).unwrap();
        // Everything the caller sees is finite...
        assert!(out.prices.iter().all(|p| p.is_finite()));
        assert!(out.utilities.iter().all(|u| u.is_finite()));
        assert!(out.lambdas.iter().all(|l| l.is_finite()));
        assert!(out.bids.as_slice().iter().all(|b| b.is_finite()));
        assert!(out
            .allocation
            .is_exhaustive(market.resources().capacities(), 1e-9));
        // ...and the repairs are visible in the report.
        assert!(
            out.report
                .recovery
                .iter()
                .any(|a| matches!(a, RecoveryAction::NonFiniteSanitized { .. })),
            "expected sanitization actions, got {:?}",
            out.report.recovery
        );
    }

    #[test]
    fn warm_start_from_converged_outcome_restarts_cheaply() {
        let market = two_player_market([0.8, 0.2], [0.2, 0.8]);
        let opts = EquilibriumOptions::default();
        let cold = market.equilibrium(&opts).unwrap();
        assert!(cold.converged());
        let warm_opts = opts
            .clone()
            .with_warm_start(WarmStart::from_outcome(&cold).shared());
        let warm = market.equilibrium(&warm_opts).unwrap();
        assert!(warm.converged());
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        // Warm solves are deterministic: same seed, same bits.
        let again = market.equilibrium(&warm_opts).unwrap();
        assert_eq!(warm.iterations, again.iterations);
        for (a, b) in warm.prices.iter().zip(&again.prices) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mismatched_or_poisoned_warm_seed_falls_back_to_cold() {
        let market = two_player_market([0.8, 0.2], [0.2, 0.8]);
        let opts = EquilibriumOptions::default();
        let cold = market.equilibrium(&opts).unwrap();
        // Wrong length: ignored wholesale.
        let short = opts.clone().with_warm_start(
            WarmStart {
                bids: vec![1.0, 2.0, 3.0],
            }
            .shared(),
        );
        // NaN row: that row (and here, every row) cold-starts.
        let poisoned = opts.clone().with_warm_start(
            WarmStart {
                bids: vec![f64::NAN, 1.0, f64::NAN, 1.0],
            }
            .shared(),
        );
        for bad in [short, poisoned] {
            let out = market.equilibrium(&bad).unwrap();
            assert_eq!(out.iterations, cold.iterations);
            for (a, b) in out.prices.iter().zip(&cold.prices) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn warm_seed_rescales_to_changed_budgets() {
        let market = two_player_market([0.5, 0.5], [0.5, 0.5]);
        let opts = EquilibriumOptions::precise();
        let cold = market.equilibrium(&opts).unwrap();
        // Re-solve with shifted budgets, seeded from the old equilibrium:
        // the seed must be rescaled to the new budgets (stay feasible),
        // and the richer player ends up ahead as usual.
        let warm_opts = opts
            .clone()
            .with_warm_start(WarmStart::from_outcome(&cold).shared());
        let out = market
            .equilibrium_with_budgets(&[150.0, 50.0], &warm_opts)
            .unwrap();
        assert!(out.converged());
        for (i, budget) in [150.0, 50.0].iter().enumerate() {
            let spent: f64 = (0..2).map(|j| out.bids.get(i, j)).sum();
            assert!(spent <= budget + 1e-9, "player {i} spent {spent}");
        }
        assert!(out.allocation.get(0, 0) > out.allocation.get(1, 0));
    }

    #[test]
    fn non_convergence_surfaces_typed_error() {
        let report = SolveReport {
            converged: false,
            iterations: 30,
            residual: 0.25,
            recovery: Vec::new(),
            timed_out: false,
        };
        match report.ensure_converged() {
            Err(MarketError::NonConvergence {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, 30);
                assert!((residual - 0.25).abs() < 1e-12);
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }
}
