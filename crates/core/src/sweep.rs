//! Sweeping the ReBudget aggressiveness knob.
//!
//! §6.2 of the paper concludes that "system designers and administrators
//! can use the *step* as a 'knob' to trade off" efficiency for fairness.
//! This module tabulates that knob: it runs `ReBudget-step` across a set of
//! step values (plus the `EqualBudget` endpoint at step 0) and reports
//! efficiency — optionally normalized to the `MaxEfficiency` oracle — next
//! to measured envy-freeness and the Theorem-2 floor.
//!
//! The step values are mutually independent (each runs its own mechanism
//! from scratch on the shared market), so [`sweep_steps_with`] fans them
//! out across worker threads. Every mechanism run produces values that are
//! a pure function of its inputs, so the sweep is bit-identical under any
//! [`ParallelPolicy`] and points always come back in input order. When the
//! outer sweep is parallel, the nested equilibrium solves are forced
//! serial — the coarse-grained fan-out is where the win is, and nesting
//! thread pools would oversubscribe.

use rebudget_market::par::{self, ParallelPolicy};
use rebudget_market::{Market, Result};

use crate::mechanisms::{EqualBudget, MaxEfficiency, Mechanism, ReBudget, SolveSummary};
use crate::theory::ef_lower_bound;

/// One point of a knob sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The first-round budget cut (0 = EqualBudget).
    pub step: f64,
    /// Absolute efficiency `Σ_i U_i`.
    pub efficiency: f64,
    /// Efficiency normalized to the MaxEfficiency oracle, if requested.
    pub normalized_efficiency: Option<f64>,
    /// Measured envy-freeness.
    pub envy_freeness: f64,
    /// Measured Market Utility Range.
    pub mur: f64,
    /// Measured Market Budget Range.
    pub mbr: f64,
    /// Worst-case envy-freeness floor from Theorem 2 at the measured MBR.
    pub ef_floor: f64,
    /// Solver health behind this point: one solve for EqualBudget, one per
    /// reassignment round for ReBudget.
    pub solve: SolveSummary,
}

impl SweepPoint {
    /// Whether every equilibrium solve behind this point converged.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.solve.converged
    }
}

/// Sweeps `ReBudget-step` over `steps` on `market`, with
/// [`ParallelPolicy::Auto`]. See [`sweep_steps_with`].
///
/// # Errors
///
/// Propagates mechanism errors (degenerate markets).
pub fn sweep_steps(
    market: &Market,
    base_budget: f64,
    steps: &[f64],
    normalize: bool,
) -> Result<Vec<SweepPoint>> {
    sweep_steps_with(market, base_budget, steps, normalize, ParallelPolicy::Auto)
}

/// Sweeps `ReBudget-step` over `steps` on `market` under an explicit
/// [`ParallelPolicy`].
///
/// A step of exactly `0.0` runs plain `EqualBudget`. When `normalize` is
/// true, the `MaxEfficiency` oracle runs once and every point reports
/// `efficiency / OPT`. Points are returned in the order of `steps`, and the
/// values are identical under every policy.
///
/// # Errors
///
/// Propagates mechanism errors (degenerate markets).
pub fn sweep_steps_with(
    market: &Market,
    base_budget: f64,
    steps: &[f64],
    normalize: bool,
    policy: ParallelPolicy,
) -> Result<Vec<SweepPoint>> {
    let threads = policy.resolved_threads_coarse(steps.len());
    // When the sweep itself is parallel, keep the nested equilibrium solves
    // serial; their values do not depend on the policy.
    let inner = if threads > 1 {
        ParallelPolicy::Serial
    } else {
        policy
    };
    let opt = if normalize {
        Some(sweep_oracle(market, inner)?)
    } else {
        None
    };
    let points = par::map_indexed(threads, steps.len(), |k| -> Result<SweepPoint> {
        sweep_point(market, base_budget, steps[k], opt, inner)
    });
    points.into_iter().collect()
}

/// Computes a single sweep point — the unit of work behind
/// [`sweep_steps_with`], exposed so resumable sweeps can recompute exactly
/// the points a checkpoint is missing.
///
/// `opt` is the `MaxEfficiency` oracle value to normalize against (`None`
/// for absolute efficiency); `policy` governs the nested equilibrium solve.
/// The result is a pure function of the arguments, so recomputing a point
/// after a crash yields bit-identical values.
///
/// # Errors
///
/// Propagates mechanism errors (degenerate markets).
pub fn sweep_point(
    market: &Market,
    base_budget: f64,
    step: f64,
    opt: Option<f64>,
    policy: ParallelPolicy,
) -> Result<SweepPoint> {
    let out = if step <= 0.0 {
        EqualBudget::new(base_budget)
            .with_parallel(policy)
            .allocate(market)?
    } else {
        ReBudget::with_step(base_budget, step)
            .with_parallel(policy)
            .allocate(market)?
    };
    let mbr = out.mbr.unwrap_or(1.0);
    Ok(SweepPoint {
        step,
        efficiency: out.efficiency,
        normalized_efficiency: opt.map(|o| if o > 0.0 { out.efficiency / o } else { 1.0 }),
        envy_freeness: out.envy_freeness,
        mur: out.mur.unwrap_or(1.0),
        mbr,
        ef_floor: ef_lower_bound(mbr),
        solve: out.solve,
    })
}

/// Computes the `MaxEfficiency` normalizer for a sweep, if requested.
///
/// Exposed so resumable sweeps can recompute the oracle value with the same
/// policy discipline as [`sweep_steps_with`].
///
/// # Errors
///
/// Propagates mechanism errors (degenerate markets).
pub fn sweep_oracle(market: &Market, policy: ParallelPolicy) -> Result<f64> {
    Ok(MaxEfficiency::default()
        .with_parallel(policy)
        .allocate(market)?
        .efficiency)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rebudget_market::utility::SeparableUtility;
    use rebudget_market::{Player, ResourceSpace};
    use std::sync::Arc;

    fn market() -> Market {
        let caps = [16.0, 80.0];
        Market::new(
            ResourceSpace::new(caps.to_vec()).unwrap(),
            vec![
                Player::new(
                    "a",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.9, 0.1], &caps).unwrap()),
                ),
                Player::new(
                    "b",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.5, 0.5], &caps).unwrap()),
                ),
                Player::new(
                    "c",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.1, 0.9], &caps).unwrap()),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn sweep_produces_one_point_per_step() {
        let pts = sweep_steps(&market(), 100.0, &[0.0, 20.0, 40.0], true).unwrap();
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].step, 0.0);
        assert_eq!(pts[0].mbr, 1.0);
        assert!(pts.iter().all(|p| p.converged()), "clean market converges");
        assert!(
            pts.iter()
                .all(|p| p.solve.timed_out == 0 && p.solve.retries == 0),
            "no deadlines or retries configured"
        );
        assert!(pts.iter().all(|p| p.solve.rounds >= 1));
        for p in &pts {
            assert!(p.normalized_efficiency.unwrap() <= 1.0 + 1e-6);
            assert!(p.ef_floor <= 0.8285);
            // Theorem 2 must hold: measured EF at or above the floor.
            assert!(
                p.envy_freeness >= p.ef_floor - 1e-9,
                "step {}: EF {} below floor {}",
                p.step,
                p.envy_freeness,
                p.ef_floor
            );
        }
    }

    #[test]
    fn sweep_is_independent_of_parallel_policy() {
        let m = market();
        let steps = [0.0, 10.0, 20.0, 40.0];
        let serial = sweep_steps_with(&m, 100.0, &steps, true, ParallelPolicy::Serial).unwrap();
        let threaded =
            sweep_steps_with(&m, 100.0, &steps, true, ParallelPolicy::Threads(4)).unwrap();
        assert_eq!(serial.len(), threaded.len());
        for (a, b) in serial.iter().zip(&threaded) {
            assert_eq!(a.step, b.step);
            assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
            assert_eq!(a.envy_freeness.to_bits(), b.envy_freeness.to_bits());
            assert_eq!(a.mur.to_bits(), b.mur.to_bits());
            assert_eq!(a.mbr.to_bits(), b.mbr.to_bits());
            assert_eq!(
                a.normalized_efficiency.unwrap().to_bits(),
                b.normalized_efficiency.unwrap().to_bits()
            );
            assert_eq!(a.solve, b.solve);
        }
    }

    #[test]
    fn more_aggressive_steps_never_raise_mbr() {
        let pts = sweep_steps(&market(), 100.0, &[0.0, 10.0, 40.0], false).unwrap();
        assert!(pts[0].normalized_efficiency.is_none());
        assert!(pts.windows(2).all(|w| w[1].mbr <= w[0].mbr + 1e-9));
    }
}
