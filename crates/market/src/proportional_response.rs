//! Proportional response dynamics over sparse bids.
//!
//! The classic first-order method for large Fisher markets (Wu & Zhang;
//! analyzed at scale by Gao & Kroer, *First-Order Methods for Large-Scale
//! Market Equilibrium Computation*): each player splits its budget across
//! goods **in proportion to the utility each good currently earns it**.
//! For linear utilities, with per-good money `p̂_j = Σ_i b_ij` and
//! allocation `x_ij = b_ij·C_j/p̂_j`:
//!
//! ```text
//! b'_ij = B_i · (v_ij·x_ij) / Σ_k (v_ik·x_ik)
//! ```
//!
//! which is entropic mirror descent on the Shmyrev reformulation of the
//! Eisenberg–Gale program with step γ = 1 (see [`crate::mirror_descent`]
//! for γ < 1). For Leontief utilities the response spends proportionally
//! to `a_ij·p_j`, the equilibrium spending profile of a
//! perfect-complements player.
//!
//! Each iteration costs `O(nnz)` — linear in the number of (player,
//! resource) interests, not `N·M` — with no allocation in the inner loop,
//! which is what makes `10⁶`-player markets tractable (see the
//! scalability bench and EXPERIMENTS.md). The solve is driven by
//! the private `first_order` module, so deadline budgets, damping/restart
//! guardrails, the telemetry schema, and the residual semantics
//! ([`crate::residual`]) are exactly those of the dense engine.
//!
//! Proportional response computes the **price-taking** (Fisher/Walrasian)
//! equilibrium. The dense Jacobi engine computes the *price-anticipating*
//! Nash equilibrium of the paper; the two coincide as `N → ∞` but differ
//! at small `N` — cross-validation therefore runs against the dense
//! price-taking reference in [`crate::fisher`] (see DESIGN.md
//! "Large-scale solvers").

use crate::equilibrium::EquilibriumOptions;
use crate::sparse::{SparseMarket, SparseOutcome};
use crate::Result;

/// Solves `market` with proportional response dynamics.
///
/// Honors [`EquilibriumOptions::max_iterations`], `price_tolerance`,
/// `record_history`, `parallel`, and `deadline`
/// ([`EquilibriumOptions::solver`] is ignored — calling this function
/// *is* the solver choice; use [`SparseMarket::solve`] to dispatch on the
/// option instead). Non-convergence is reported via
/// [`SparseOutcome::report`], not an error.
///
/// # Errors
///
/// Only degenerate-input errors propagate ([`crate::MarketError`]).
pub fn solve(market: &SparseMarket, options: &EquilibriumOptions) -> Result<SparseOutcome> {
    crate::first_order::solve_sparse(market, options, 1.0)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::sparse::SynthSpec;

    #[test]
    fn converges_on_a_synthetic_market_to_paper_grade_residual() {
        let market = SynthSpec::new(1000, 16, 1).generate().unwrap();
        let out = solve(&market, &EquilibriumOptions::large_scale()).unwrap();
        assert!(out.converged(), "residual {}", out.report.residual);
        assert!(out.report.residual <= 1e-6);
        assert!(out.report.is_clean(), "{:?}", out.report.recovery);
        assert!(out.efficiency() > 0.0);
    }

    #[test]
    fn dispatch_through_solve_matches_direct_call() {
        let market = SynthSpec::new(200, 8, 4).generate().unwrap();
        let opts = EquilibriumOptions::large_scale();
        let direct = solve(&market, &opts).unwrap();
        let dispatched = market.solve(&opts).unwrap();
        assert_eq!(direct.prices, dispatched.prices);
        assert_eq!(direct.iterations, dispatched.iterations);
    }
}
