//! The *MaxEfficiency* oracle: direct social-welfare maximization.
//!
//! The paper's evaluation normalizes every mechanism against
//! `MaxEfficiency`, "the resource allocation maximizing system efficiency …
//! obtained by running an infeasible very fine-grained hill-climbing search
//! (recall that all utilities are concave)" (§6). This module implements
//! that search: an exchange hill climb that repeatedly moves a shrinking
//! quantum of each resource from the player with the smallest marginal
//! utility to the player with the largest, accepting only moves that
//! actually increase welfare.
//!
//! For concave utilities the continuous problem has no spurious local
//! optima, so the exchange climb converges to the global optimum up to the
//! final step granularity.
//!
//! # Cost model and parallelism
//!
//! The search keeps an `N × M` table of marginal utilities. It is built
//! once up front — in parallel under [`OptimalOptions::parallel`], since
//! each player's marginals depend only on that player's row — and then
//! *patched*: an accepted exchange changes exactly two players' rows, so
//! only those `2·M` entries are re-evaluated. Rejected moves restore the
//! exact prior allocation values (not `x − δ + δ`, which can drift in
//! floating point), keeping the table bit-exact against a fresh rebuild.
//! This turns the per-attempt scan cost from `O(N)` utility evaluations
//! into `O(N)` table reads, and makes the search's result independent of
//! the parallel policy. The pairwise swap pass remains serial: each
//! candidate trade is evaluated against the allocation left by the
//! previous one, a chain with no safe fan-out.

use rebudget_telemetry as telemetry;

use crate::deadline::DeadlineBudget;
use crate::par::{self, ParallelPolicy};
use crate::{AllocationMatrix, Market, MarketError, Result};

/// First exchange quantum, as a fraction of each capacity.
const INITIAL_STEP_FRACTION: f64 = 0.25;

/// Final (finest) exchange quantum, as a fraction of each capacity.
const MIN_STEP_FRACTION: f64 = 1e-4;

/// Maximum full sweeps over the resources per step level.
const MAX_PASSES_PER_LEVEL: usize = 64;

/// Execution and budget settings for the welfare-maximizing search.
///
/// Each step level also runs a pass of pairwise cross-resource *swaps*
/// (player A gives δ of one resource to player B in exchange for δ' of
/// another) while the quantum is at least 8× the finest. Utilities that
/// are concave per axis but not jointly concave (e.g. bilinear
/// interpolations of profiled surfaces) stall single-resource exchange at
/// non-optimal points; swaps break those deadlocks. O(N²) per pass.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalOptions {
    /// How the marginal-utility table build executes. Purely an execution
    /// knob: results are bit-identical under every policy.
    pub parallel: ParallelPolicy,
    /// Wall-clock / iteration budget for the climb (one "iteration" = one
    /// pass over the resources at some step level). When it runs out the
    /// climb stops and returns its current allocation with
    /// [`OptimalOutcome::timed_out`] set. The default is unbounded.
    pub deadline: DeadlineBudget,
}

impl Default for OptimalOptions {
    fn default() -> Self {
        Self {
            parallel: ParallelPolicy::Auto,
            deadline: DeadlineBudget::UNBOUNDED,
        }
    }
}

/// Result of the welfare-maximizing search.
#[derive(Debug, Clone)]
pub struct OptimalOutcome {
    /// The welfare-maximizing allocation found.
    pub allocation: AllocationMatrix,
    /// `Σ_i U_i(r_i)` at that allocation.
    pub efficiency: f64,
    /// Number of accepted exchange moves.
    pub moves: usize,
    /// The climb stopped early because its [`DeadlineBudget`] ran out;
    /// the allocation is the best found so far, not the refined optimum.
    pub timed_out: bool,
}

/// Finds the allocation maximizing `Σ_i U_i(r_i)` subject to
/// `Σ_i r_ij = C_j`, starting from an equal share.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use rebudget_market::{Market, Player, ResourceSpace};
/// use rebudget_market::optimal::{max_efficiency, OptimalOptions};
/// use rebudget_market::utility::LinearUtility;
///
/// # fn main() -> Result<(), rebudget_market::MarketError> {
/// let market = Market::new(
///     ResourceSpace::new(vec![10.0])?,
///     vec![
///         Player::new("low", 1.0, Arc::new(LinearUtility::new(vec![1.0])?)),
///         Player::new("high", 1.0, Arc::new(LinearUtility::new(vec![3.0])?)),
///     ],
/// )?;
/// let opt = max_efficiency(&market, &OptimalOptions::default())?;
/// // Linear utilities: the whole resource goes to its top valuer.
/// assert!(opt.allocation.get(1, 0) > 9.9);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`MarketError::Empty`] only for degenerate markets, which
/// [`Market::new`] already prevents; the error path exists because the
/// allocation constructors are fallible.
pub fn max_efficiency(market: &Market, options: &OptimalOptions) -> Result<OptimalOutcome> {
    let start = AllocationMatrix::equal_share(market.len(), market.resources().capacities())?;
    max_efficiency_from(market, options, start)
}

/// Like [`max_efficiency`], but climbing from an explicit starting
/// allocation — e.g. to polish a market-equilibrium allocation, since the
/// optimum is a maximum over *all* allocations and a good warm start can
/// only raise the result.
///
/// # Errors
///
/// Returns [`MarketError::DimensionMismatch`] if `start` does not match
/// the market's shape.
pub fn max_efficiency_from(
    market: &Market,
    options: &OptimalOptions,
    start: AllocationMatrix,
) -> Result<OptimalOutcome> {
    let n = market.len();
    let m = market.resources().len();
    if n == 0 {
        return Err(MarketError::Empty { what: "players" });
    }
    if start.players() != n || start.resources() != m {
        return Err(MarketError::DimensionMismatch {
            what: "starting allocation",
            expected: n * m,
            actual: start.players() * start.resources(),
        });
    }
    let capacities = market.resources().capacities();
    let mut alloc = start;
    let mut moves = 0usize;
    let mut timed_out = false;
    let mut clock = options.deadline.start();
    let _oracle_span = telemetry::span!("oracle");
    let mut passes: u64 = 0;

    let mut marginals = MarginalTable::build(market, &alloc, options.parallel);

    let mut frac = INITIAL_STEP_FRACTION;
    'climb: while frac >= MIN_STEP_FRACTION {
        for _pass in 0..MAX_PASSES_PER_LEVEL {
            let mut accepted_any = false;
            for j in 0..m {
                let step = frac * capacities[j];
                if try_exchange(market, &mut alloc, &mut marginals, j, step) {
                    moves += 1;
                    accepted_any = true;
                }
            }
            passes += 1;
            if telemetry::enabled() {
                telemetry::record(
                    telemetry::Event::new("oracle_pass")
                        .field_u64("pass", passes)
                        .field_f64("efficiency", crate::metrics::efficiency(market, &alloc))
                        .field_f64("step_fraction", frac),
                );
            }
            // Deadline: one resource pass = one charged iteration. The
            // allocation is feasible after every pass, so stopping here
            // returns a valid (coarser) optimum instead of spinning.
            if clock.charge(1) {
                timed_out = true;
                break 'climb;
            }
            if !accepted_any {
                break;
            }
        }
        if m >= 2 && frac >= MIN_STEP_FRACTION * 8.0 {
            moves += swap_pass(market, &mut alloc, &mut marginals, capacities, frac);
            if clock.charge(1) {
                timed_out = true;
                break 'climb;
            }
        }
        frac *= 0.5;
    }

    let efficiency = crate::metrics::efficiency(market, &alloc);
    if telemetry::enabled() {
        let registry = &telemetry::global().registry;
        registry.counter("oracle.climbs").incr();
        registry.counter("oracle.passes").add(passes);
        registry.counter("oracle.moves").add(moves as u64);
    }
    Ok(OptimalOutcome {
        allocation: alloc,
        efficiency,
        moves,
        timed_out,
    })
}

/// The cached `N × M` table of marginal utilities
/// `∂U_i/∂r_ij` at the current allocation.
///
/// Built in parallel (each row depends only on that player's allocation
/// row), then kept exact by patching the two affected rows after every
/// accepted move. See the module docs for why this is both the serial
/// speedup and the parallelization point of the oracle.
#[derive(Debug)]
struct MarginalTable {
    m: usize,
    values: Vec<f64>,
}

impl MarginalTable {
    fn build(market: &Market, alloc: &AllocationMatrix, policy: ParallelPolicy) -> Self {
        let n = market.len();
        let m = market.resources().len();
        let threads = policy.resolved_threads(n);
        let rows = par::map_indexed(threads, n, |i| {
            let utility = market.players()[i].utility();
            let row = alloc.row(i);
            (0..m)
                .map(|j| utility.marginal(row, j))
                .collect::<Vec<f64>>()
        });
        Self {
            m,
            values: rows.concat(),
        }
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.m + j]
    }

    /// Re-evaluates player `i`'s marginals after its allocation row
    /// changed.
    fn refresh_row(&mut self, market: &Market, alloc: &AllocationMatrix, i: usize) {
        let utility = market.players()[i].utility();
        let row = alloc.row(i);
        for j in 0..self.m {
            self.values[i * self.m + j] = utility.marginal(row, j);
        }
    }
}

/// One full pass of pairwise cross-resource swaps at quantum fraction
/// `frac`: for every ordered player pair `(a, b)` and resource pair
/// `(j, k)`, try trading `frac·C_j` of `j` (a→b) for `frac·C_k` of `k`
/// (b→a), keeping only welfare-improving trades. Returns accepted swaps.
fn swap_pass(
    market: &Market,
    alloc: &mut AllocationMatrix,
    marginals: &mut MarginalTable,
    capacities: &[f64],
    frac: f64,
) -> usize {
    let n = market.len();
    let m = capacities.len();
    let mut accepted = 0usize;
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            for j in 0..m {
                for k in 0..m {
                    if j == k {
                        continue;
                    }
                    let aj0 = alloc.get(a, j);
                    let ak0 = alloc.get(a, k);
                    let bj0 = alloc.get(b, j);
                    let bk0 = alloc.get(b, k);
                    let dj = (frac * capacities[j]).min(aj0);
                    let dk = (frac * capacities[k]).min(bk0);
                    if dj <= 0.0 || dk <= 0.0 {
                        continue;
                    }
                    let ua0 = market.players()[a].utility_of(alloc.row(a));
                    let ub0 = market.players()[b].utility_of(alloc.row(b));
                    alloc.set(a, j, aj0 - dj);
                    alloc.set(b, j, bj0 + dj);
                    alloc.set(b, k, bk0 - dk);
                    alloc.set(a, k, ak0 + dk);
                    let ua1 = market.players()[a].utility_of(alloc.row(a));
                    let ub1 = market.players()[b].utility_of(alloc.row(b));
                    let gain = (ua1 + ub1) - (ua0 + ub0);
                    if gain.is_finite() && gain > 0.0 {
                        accepted += 1;
                        marginals.refresh_row(market, alloc, a);
                        marginals.refresh_row(market, alloc, b);
                    } else {
                        // Restore the exact prior values (adding dj back to
                        // a subtracted value can drift in floating point).
                        alloc.set(a, j, aj0);
                        alloc.set(b, j, bj0);
                        alloc.set(b, k, bk0);
                        alloc.set(a, k, ak0);
                    }
                }
            }
        }
    }
    accepted
}

/// Attempts one exchange of `step` units of resource `j` from the player
/// with the smallest marginal utility (that still holds at least some of
/// `j`) to the player with the largest. Returns whether the move was
/// accepted (i.e. it strictly improved welfare).
fn try_exchange(
    market: &Market,
    alloc: &mut AllocationMatrix,
    marginals: &mut MarginalTable,
    j: usize,
    step: f64,
) -> bool {
    let n = market.len();
    let mut hi = 0usize;
    let mut hi_m = f64::NEG_INFINITY;
    let mut lo = usize::MAX;
    let mut lo_m = f64::INFINITY;
    for i in 0..n {
        let marginal = marginals.get(i, j);
        // Guardrail: a faulty utility can report NaN/∞ marginals; those
        // players are excluded from the exchange scan so a single bad
        // evaluation cannot poison the climb.
        if !marginal.is_finite() {
            continue;
        }
        if marginal > hi_m {
            hi_m = marginal;
            hi = i;
        }
        if alloc.get(i, j) > 0.0 && marginal < lo_m {
            lo_m = marginal;
            lo = i;
        }
    }
    if lo == usize::MAX || lo == hi || hi_m <= lo_m {
        return false;
    }
    let lo_before = alloc.get(lo, j);
    let hi_before = alloc.get(hi, j);
    let amount = step.min(lo_before);
    if amount <= 0.0 {
        return false;
    }

    let u_lo_before = market.players()[lo].utility_of(alloc.row(lo));
    let u_hi_before = market.players()[hi].utility_of(alloc.row(hi));
    alloc.set(lo, j, lo_before - amount);
    alloc.set(hi, j, hi_before + amount);
    let u_lo_after = market.players()[lo].utility_of(alloc.row(lo));
    let u_hi_after = market.players()[hi].utility_of(alloc.row(hi));

    let delta = (u_lo_after - u_lo_before) + (u_hi_after - u_hi_before);
    // `delta > 0.0` is false for NaN, so a non-finite evaluation rejects
    // the move and restores the exact prior allocation below.
    if delta.is_finite() && delta > 0.0 {
        marginals.refresh_row(market, alloc, lo);
        marginals.refresh_row(market, alloc, hi);
        true
    } else {
        // Restore the exact prior values (adding `amount` back to a
        // subtracted value can drift in floating point).
        alloc.set(lo, j, lo_before);
        alloc.set(hi, j, hi_before);
        false
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::utility::{LinearUtility, SeparableUtility};
    use crate::{Player, ResourceSpace};
    use std::sync::Arc;

    #[test]
    fn linear_utilities_winner_takes_all() {
        // OPT for linear utilities gives each resource wholly to the player
        // valuing it most (see the proof of Theorem 1 in the appendix).
        let caps = [10.0, 10.0];
        let resources = ResourceSpace::new(caps.to_vec()).unwrap();
        let market = Market::new(
            resources,
            vec![
                Player::new(
                    "a",
                    1.0,
                    Arc::new(LinearUtility::new(vec![3.0, 1.0]).unwrap()),
                ),
                Player::new(
                    "b",
                    1.0,
                    Arc::new(LinearUtility::new(vec![1.0, 2.0]).unwrap()),
                ),
            ],
        )
        .unwrap();
        let out = max_efficiency(&market, &OptimalOptions::default()).unwrap();
        assert!(
            (out.efficiency - (30.0 + 20.0)).abs() / 50.0 < 0.01,
            "efficiency {} should approach 50",
            out.efficiency
        );
        assert!(out.allocation.get(0, 0) > 9.9);
        assert!(out.allocation.get(1, 1) > 9.9);
    }

    #[test]
    fn symmetric_concave_stays_balanced() {
        let caps = [8.0];
        let resources = ResourceSpace::new(caps.to_vec()).unwrap();
        let u = || Arc::new(SeparableUtility::proportional(&[1.0], &caps).unwrap());
        let market = Market::new(
            resources,
            vec![Player::new("a", 1.0, u()), Player::new("b", 1.0, u())],
        )
        .unwrap();
        let out = max_efficiency(&market, &OptimalOptions::default()).unwrap();
        // sqrt is strictly concave: equal split is optimal.
        assert!((out.allocation.get(0, 0) - 4.0).abs() < 0.1);
        assert!((out.allocation.get(1, 0) - 4.0).abs() < 0.1);
        assert!((out.efficiency - 2.0 * (0.5f64).sqrt()).abs() < 1e-3);
    }

    #[test]
    fn allocation_remains_exhaustive() {
        let caps = [16.0, 80.0];
        let resources = ResourceSpace::new(caps.to_vec()).unwrap();
        let market = Market::new(
            resources,
            vec![
                Player::new(
                    "a",
                    1.0,
                    Arc::new(SeparableUtility::proportional(&[0.9, 0.1], &caps).unwrap()),
                ),
                Player::new(
                    "b",
                    1.0,
                    Arc::new(SeparableUtility::proportional(&[0.2, 0.8], &caps).unwrap()),
                ),
                Player::new(
                    "c",
                    1.0,
                    Arc::new(SeparableUtility::proportional(&[0.5, 0.5], &caps).unwrap()),
                ),
            ],
        )
        .unwrap();
        let out = max_efficiency(&market, &OptimalOptions::default()).unwrap();
        assert!(out.allocation.is_exhaustive(&caps, 1e-9));
    }

    #[test]
    fn result_is_independent_of_parallel_policy() {
        let caps = [16.0, 80.0];
        let resources = ResourceSpace::new(caps.to_vec()).unwrap();
        let players = (0..40)
            .map(|i| {
                let w0 = 0.05 + 0.9 * (i as f64 * 0.31).fract();
                Player::new(
                    format!("p{i}"),
                    1.0,
                    Arc::new(SeparableUtility::proportional(&[w0, 1.0 - w0], &caps).unwrap())
                        as Arc<dyn crate::Utility>,
                )
            })
            .collect::<Vec<_>>();
        let market = Market::new(resources, players).unwrap();
        let run = |policy: ParallelPolicy| {
            let options = OptimalOptions {
                parallel: policy,
                ..OptimalOptions::default()
            };
            max_efficiency(&market, &options).unwrap()
        };
        let serial = run(ParallelPolicy::Serial);
        let threaded = run(ParallelPolicy::Threads(4));
        assert_eq!(serial.moves, threaded.moves);
        assert_eq!(
            serial.efficiency.to_bits(),
            threaded.efficiency.to_bits(),
            "oracle must be bit-identical across policies"
        );
        for i in 0..market.len() {
            for j in 0..caps.len() {
                assert_eq!(
                    serial.allocation.get(i, j).to_bits(),
                    threaded.allocation.get(i, j).to_bits()
                );
            }
        }
    }

    #[test]
    fn beats_equal_share_for_asymmetric_tastes() {
        let caps = [16.0, 80.0];
        let resources = ResourceSpace::new(caps.to_vec()).unwrap();
        let market = Market::new(
            resources,
            vec![
                Player::new(
                    "a",
                    1.0,
                    Arc::new(SeparableUtility::proportional(&[1.0, 0.0], &caps).unwrap()),
                ),
                Player::new(
                    "b",
                    1.0,
                    Arc::new(SeparableUtility::proportional(&[0.0, 1.0], &caps).unwrap()),
                ),
            ],
        )
        .unwrap();
        let equal = AllocationMatrix::equal_share(2, &caps).unwrap();
        let equal_eff = crate::metrics::efficiency(&market, &equal);
        let out = max_efficiency(&market, &OptimalOptions::default()).unwrap();
        assert!(out.efficiency > equal_eff);
    }
}
