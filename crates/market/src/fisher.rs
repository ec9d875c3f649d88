//! Dense first-order reference: the price-taking (Fisher) equilibrium on
//! dense storage.
//!
//! This is the same multiplicative dynamics as
//! [`crate::proportional_response`]/[`crate::mirror_descent`], run over a
//! dense bid matrix against the crate's full [`crate::Utility`] zoo: each
//! player re-spends its budget in proportion to
//! `b_ij · (∂U_i/∂x_ij · C_j / p̂_j)^γ` — bang-per-buck-weighted bids —
//! whose fixed point equalizes marginal utility per unit money across
//! each player's support, the Fisher-market first-order condition.
//!
//! # Why it exists
//!
//! The dense Jacobi engine computes the **price-anticipating** Nash
//! equilibrium of the paper (each player predicts how its bid moves
//! prices, Eq. 2); the sparse first-order solvers compute the
//! **price-taking** Fisher equilibrium. The two coincide as `N → ∞` but
//! differ at small `N`, so tight cross-validation of the sparse solvers
//! needs a dense engine that answers the *same* question — this module.
//! It is wired into [`crate::equilibrium::SolverKind`] dispatch, so
//! `Market::equilibrium` with `ProportionalResponse`/`MirrorDescent`
//! runs here and flows through the identical
//! `SolveReport`/deadline/telemetry plumbing as Jacobi (via
//! the private `first_order::drive`).

use rebudget_telemetry as telemetry;

use crate::equilibrium::{
    push_recovery, EquilibriumOptions, EquilibriumOutcome, RecoveryAction, SolverKind,
};
use crate::par;
use crate::pricing;
use crate::{BidMatrix, Market, MarketError, Result};

/// Dense first-order solve: the entry point `equilibrium::find_equilibrium`
/// dispatches to for the non-Jacobi [`SolverKind`]s.
pub(crate) fn find_equilibrium_first_order(
    market: &Market,
    budgets: &[f64],
    options: &EquilibriumOptions,
    kind: SolverKind,
) -> Result<EquilibriumOutcome> {
    let gamma = match kind {
        SolverKind::ProportionalResponse => 1.0,
        SolverKind::MirrorDescent => crate::mirror_descent::DEFAULT_STEP,
        SolverKind::Jacobi => {
            // `find_equilibrium` routes Jacobi to its own engine; reaching
            // here means a caller bypassed the dispatch.
            return Err(MarketError::UnsupportedSolver {
                solver: SolverKind::Jacobi.label(),
                context: "the dense first-order reference",
            });
        }
    };
    let n = market.len();
    let m = market.resources().len();
    let capacities = market.resources().capacities();

    let _solve_span = telemetry::span!("solve");
    crate::first_order::emit_solve_start(n, m);

    // Row layout: m bids plus one sanitize-flag slot, so the parallel
    // sweep can report a poisoned row without shared mutable state.
    let stride = m + 1;
    let mut vals = vec![0.0; n * stride];
    for (i, row) in vals.chunks_exact_mut(stride).enumerate() {
        if m > 0 && budgets[i] > 0.0 {
            row[..m].fill(budgets[i] / m as f64);
        }
    }
    // Warm start: overlay usable seed rows, rescaled to the current
    // budget. Exact-zero seed entries are lifted to a tiny positive
    // floor (the multiplicative step can never revive a zero bid);
    // unusable rows keep the cold equal-split row.
    if let Some(warm) = options.warm_start.as_deref() {
        if warm.bids.len() == n * m {
            for (i, row) in vals.chunks_exact_mut(stride).enumerate() {
                crate::equilibrium::warm_overlay_multiplicative(
                    &mut row[..m],
                    &warm.bids[i * m..(i + 1) * m],
                    budgets[i],
                );
            }
        }
    }
    let mut init_money = vec![0.0; m];
    for row in vals.chunks_exact(stride) {
        for (sum, &b) in init_money.iter_mut().zip(row) {
            *sum += b;
        }
    }
    let threads = options.parallel.resolved_threads(n);

    let mut run = crate::first_order::drive(
        capacities,
        vals,
        init_money,
        options,
        |vals, money, damping, new_money| {
            par::for_each_row(
                threads,
                vals,
                stride,
                || (vec![0.0; m], vec![0.0; m]),
                |(x, w), i, row| {
                    row[m] = 0.0;
                    // Price-taking demand at the money snapshot.
                    for j in 0..m {
                        x[j] = if money[j] > 0.0 {
                            row[j] * capacities[j] / money[j]
                        } else {
                            0.0
                        };
                    }
                    let utility = market.players()[i].utility();
                    let mut w_sum = 0.0;
                    for j in 0..m {
                        let q = if money[j] > 0.0 {
                            utility.marginal(x, j).max(0.0) * capacities[j] / money[j]
                        } else {
                            0.0
                        };
                        w[j] = if gamma == 1.0 {
                            row[j] * q
                        } else {
                            row[j] * q.powf(gamma)
                        };
                        w_sum += w[j];
                    }
                    if !w_sum.is_finite() {
                        // Keep the old bids; flag the row for the report.
                        row[m] = 1.0;
                        return;
                    }
                    if w_sum <= 0.0 {
                        // Satiated or broke: nothing to re-spend.
                        return;
                    }
                    let scale = budgets[i] / w_sum;
                    for j in 0..m {
                        let target = scale * w[j];
                        row[j] = if damping < 1.0 {
                            (1.0 - damping) * row[j] + damping * target
                        } else {
                            target
                        };
                    }
                },
            );
            // Serial column totals in player order: deterministic under
            // every thread count.
            new_money.fill(0.0);
            let mut sanitized = 0u64;
            for row in vals.chunks_exact(stride) {
                for (sum, &b) in new_money.iter_mut().zip(row) {
                    *sum += b;
                }
                sanitized += row[m] as u64;
            }
            sanitized
        },
    );

    let mut bids = BidMatrix::zeros(n, m)?;
    for (i, row) in run.vals.chunks_exact(stride).enumerate() {
        for (j, &b) in row[..m].iter().enumerate() {
            bids.set(i, j, b);
        }
    }
    let prices = pricing::prices(&bids, market.resources());
    let allocation = pricing::allocate(&bids, market.resources());
    let mut utilities: Vec<f64> = (0..n)
        .map(|i| market.players()[i].utility_of(allocation.row(i)))
        .collect();
    for u in &mut utilities {
        if !u.is_finite() {
            *u = 0.0;
            push_recovery(
                &mut run.report.recovery,
                RecoveryAction::NonFiniteSanitized {
                    iteration: run.report.iterations,
                    what: "utility",
                },
            );
        }
    }
    // Price-taking marginal utility of money: the best bang-per-buck
    // available at the final allocation (the price-anticipating λ of the
    // Jacobi engine includes the player's own price impact; here players
    // are price takers by definition).
    let mut lambdas: Vec<f64> = (0..n)
        .map(|i| {
            let utility = market.players()[i].utility();
            (0..m)
                .map(|j| {
                    if run.money[j] > 0.0 {
                        utility.marginal(allocation.row(i), j) * capacities[j] / run.money[j]
                    } else {
                        0.0
                    }
                })
                .fold(0.0_f64, f64::max)
        })
        .collect();
    for l in &mut lambdas {
        if !l.is_finite() {
            *l = 0.0;
            push_recovery(
                &mut run.report.recovery,
                RecoveryAction::NonFiniteSanitized {
                    iteration: run.report.iterations,
                    what: "lambda",
                },
            );
        }
    }

    crate::first_order::emit_solve_end(&run.report);
    Ok(EquilibriumOutcome {
        bids,
        prices,
        allocation,
        utilities,
        lambdas,
        iterations: run.report.iterations,
        report: run.report,
        price_history: run.price_history,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::utility::{LinearUtility, SeparableUtility};
    use crate::{Player, ResourceSpace};
    use std::sync::Arc;

    fn tight(solver: SolverKind) -> EquilibriumOptions {
        let mut opts = EquilibriumOptions::large_scale().with_solver(solver);
        opts.max_iterations = 10_000;
        opts.price_tolerance = 1e-10;
        opts
    }

    fn linear_two_player() -> Market {
        // Asymmetric weights: a perfectly symmetric instance keeps the
        // aggregate money vector stationary while bids still move, which
        // would satisfy the price residual prematurely.
        let resources = ResourceSpace::new(vec![1.0, 1.0]).unwrap();
        Market::new(
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
        .unwrap()
    }

    #[test]
    fn linear_market_hits_the_known_fisher_equilibrium() {
        let market = linear_two_player();
        let out = market
            .equilibrium(&tight(SolverKind::ProportionalResponse))
            .unwrap();
        assert!(out.converged(), "residual {}", out.report.residual);
        // Each player spends everything on its favorite good: p = (1, 1).
        assert!((out.prices[0] - 1.0).abs() < 1e-6, "{:?}", out.prices);
        assert!((out.prices[1] - 1.0).abs() < 1e-6, "{:?}", out.prices);
        assert!((out.allocation.get(0, 0) - 1.0).abs() < 1e-6);
        assert!((out.allocation.get(1, 1) - 1.0).abs() < 1e-6);
        // λ = best bang-per-buck at p = (1, 1): 3 for player a, 2 for b.
        assert!((out.lambdas[0] - 3.0).abs() < 1e-5, "{:?}", out.lambdas);
        assert!((out.lambdas[1] - 2.0).abs() < 1e-5, "{:?}", out.lambdas);
    }

    #[test]
    fn mirror_kind_reaches_the_same_equilibrium() {
        let market = linear_two_player();
        let pr = market
            .equilibrium(&tight(SolverKind::ProportionalResponse))
            .unwrap();
        let md = market
            .equilibrium(&tight(SolverKind::MirrorDescent))
            .unwrap();
        assert!(md.converged());
        for (a, b) in pr.prices.iter().zip(&md.prices) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn concave_separable_market_converges_cleanly() {
        let caps = [16.0, 80.0];
        let resources = ResourceSpace::new(caps.to_vec()).unwrap();
        let market = Market::new(
            resources,
            vec![
                Player::new(
                    "a",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.8, 0.2], &caps).unwrap()),
                ),
                Player::new(
                    "b",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.3, 0.7], &caps).unwrap()),
                ),
            ],
        )
        .unwrap();
        let out = market
            .equilibrium(&tight(SolverKind::ProportionalResponse))
            .unwrap();
        assert!(out.converged(), "residual {}", out.report.residual);
        assert!(out
            .allocation
            .is_exhaustive(market.resources().capacities(), 1e-9));
        assert!(out.efficiency() > 0.0);
        assert!(out.utilities.iter().all(|u| u.is_finite()));
        assert!(out.lambdas.iter().all(|l| l.is_finite() && *l >= 0.0));
    }

    #[test]
    fn report_flows_like_the_jacobi_engine() {
        let market = linear_two_player();
        let mut opts = tight(SolverKind::ProportionalResponse);
        opts.record_history = true;
        let out = market.equilibrium(&opts).unwrap();
        assert_eq!(out.price_history.len() as u64, out.iterations);
        assert_eq!(out.price_history.last().unwrap(), &out.prices);
        assert!(out.report.residual <= opts.price_tolerance);
        assert!(out.report.ensure_converged().is_ok());
        assert!(out.report.ensure_within_deadline().is_ok());
    }

    #[test]
    fn jacobi_bypass_is_rejected() {
        let market = linear_two_player();
        let err = find_equilibrium_first_order(
            &market,
            &[1.0, 1.0],
            &EquilibriumOptions::default(),
            SolverKind::Jacobi,
        )
        .unwrap_err();
        assert!(matches!(err, MarketError::UnsupportedSolver { .. }));
    }
}
