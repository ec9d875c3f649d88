//! Entropic mirror descent on the Eisenberg–Gale program.
//!
//! Mirror descent with the entropy mirror map on the Shmyrev (bid-space)
//! reformulation of Eisenberg–Gale yields a *multiplicative* update over
//! each player's bids — for linear utilities, with bang-per-buck
//! `q_ij = v_ij·C_j/p̂_j`:
//!
//! ```text
//! b'_ij ∝ b_ij · q_ij^γ        (normalized to Σ_j b'_ij = B_i)
//! ```
//!
//! The step `γ ∈ (0, 1]` interpolates between standing still (γ → 0) and
//! full proportional response (γ = 1, exactly
//! [`crate::proportional_response`] — the two share one kernel, so γ = 1
//! is *bit-identical* to PR). Every γ in the range has the same fixed
//! points — bang-per-buck equalized across each player's support, the
//! Eisenberg–Gale first-order condition — so the solvers agree on the
//! equilibrium and differ only in trajectory: smaller steps damp the
//! oscillations that full PR can exhibit on hard instances (Leontief
//! complements especially), at the cost of more iterations.
//!
//! Shares everything with [`crate::proportional_response`]: `O(nnz)`
//! allocation-free iterations, deadline/guardrail/telemetry plumbing from
//! the private `first_order` module, and the workspace residual semantics
//! ([`crate::residual`]).

use crate::equilibrium::EquilibriumOptions;
use crate::sparse::{SparseMarket, SparseOutcome};
use crate::{MarketError, Result};

/// Default mirror-descent step: damped enough to stabilize Leontief
/// complements, close enough to 1 to keep iteration counts near PR's.
pub const DEFAULT_STEP: f64 = 0.7;

/// Solves `market` with entropic mirror descent at [`DEFAULT_STEP`].
///
/// Honors the same [`EquilibriumOptions`] fields as
/// [`crate::proportional_response::solve`]; non-convergence is reported
/// via [`SparseOutcome::report`], not an error.
///
/// # Errors
///
/// Only degenerate-input errors propagate ([`crate::MarketError`]).
pub fn solve(market: &SparseMarket, options: &EquilibriumOptions) -> Result<SparseOutcome> {
    solve_with_step(market, options, DEFAULT_STEP)
}

/// Solves `market` with entropic mirror descent at step `gamma`.
///
/// # Errors
///
/// [`MarketError::InvalidValue`] unless `gamma ∈ (0, 1]`; otherwise as
/// [`solve`].
pub fn solve_with_step(
    market: &SparseMarket,
    options: &EquilibriumOptions,
    gamma: f64,
) -> Result<SparseOutcome> {
    if !gamma.is_finite() || gamma <= 0.0 || gamma > 1.0 {
        return Err(MarketError::InvalidValue {
            what: "mirror descent step",
            value: gamma,
        });
    }
    crate::first_order::solve_sparse(market, options, gamma)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::sparse::SynthSpec;

    #[test]
    fn step_outside_unit_interval_is_rejected() {
        let market = SynthSpec::new(16, 4, 0).generate().unwrap();
        let opts = EquilibriumOptions::large_scale();
        for gamma in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(
                solve_with_step(&market, &opts, gamma).is_err(),
                "gamma {gamma} must be rejected"
            );
        }
    }

    #[test]
    fn agrees_with_proportional_response_on_the_equilibrium() {
        let market = SynthSpec::new(400, 8, 21).generate().unwrap();
        let mut opts = EquilibriumOptions::large_scale();
        opts.max_iterations = 100_000;
        opts.price_tolerance = 1e-10;
        let md = solve(&market, &opts).unwrap();
        let pr = crate::proportional_response::solve(&market, &opts).unwrap();
        assert!(md.converged() && pr.converged());
        for (a, b) in md.prices.iter().zip(&pr.prices) {
            assert!(
                (a - b).abs() / a.max(*b).max(1e-12) < 1e-6,
                "prices diverge: {a} vs {b}"
            );
        }
    }

    #[test]
    fn smaller_steps_take_more_iterations() {
        let market = SynthSpec::new(400, 8, 22).generate().unwrap();
        let mut opts = EquilibriumOptions::large_scale();
        opts.max_iterations = 100_000;
        opts.price_tolerance = 1e-8;
        let fast = solve_with_step(&market, &opts, 1.0).unwrap();
        let slow = solve_with_step(&market, &opts, 0.3).unwrap();
        assert!(fast.converged() && slow.converged());
        assert!(
            slow.iterations > fast.iterations,
            "γ=0.3 took {} vs γ=1 {}",
            slow.iterations,
            fast.iterations
        );
    }
}
