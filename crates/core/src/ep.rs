//! *Elasticities Proportional* (EP) — Zahedi & Lee's REF mechanism
//! (ASPLOS 2014), the curve-fitting baseline the paper discusses in §1:
//!
//! > "such guarantees rely on the assumption that an application's utility
//! > can be accurately curve-fitted to a Cobb-Douglas function, where the
//! > coefficients are used as the 'elasticities' of resources. Our XChange
//! > work shows that EP can in fact perform worse than expected when such
//! > curve-fitting is not well suited to the applications."
//!
//! EP fits each player's utility to `U_i(r) = s_i · Π_j r_j^{e_ij}` and
//! allocates each resource in proportion to the fitted elasticities:
//! `r_ij = C_j · ê_ij / Σ_k ê_kj`, where `ê_ij` is player `i`'s elasticity
//! normalized so its own elasticities sum to 1 (each player "spends" one
//! unit of entitlement across resources according to its tastes). For
//! genuinely Cobb-Douglas players this is the market equilibrium of an
//! equal-budget Fisher market, hence Pareto-efficient and envy-free; for
//! cliffy multicore utilities the fit — and therefore the allocation —
//! degrades, which the `ep_quality` ablation demonstrates.

use rebudget_market::fit::{fit_cobb_douglas, sample_utility, CobbDouglasFit};
use rebudget_market::{AllocationMatrix, Market, Result};

use crate::mechanisms::{outcome_from_allocation, Mechanism, MechanismOutcome};

/// The EP (elasticities proportional) mechanism.
#[derive(Debug, Clone)]
pub struct ElasticitiesProportional {
    /// Samples per axis for the utility fit (default 6).
    pub fit_points_per_axis: usize,
}

impl ElasticitiesProportional {
    /// Creates the mechanism with default fitting granularity.
    pub fn new() -> Self {
        Self {
            fit_points_per_axis: 6,
        }
    }

    /// Fits every player's utility, returning the per-player fits (useful
    /// for inspecting fit quality).
    ///
    /// # Errors
    ///
    /// Propagates fitting failures (degenerate utilities).
    pub fn fit_players(&self, market: &Market) -> Result<Vec<CobbDouglasFit>> {
        let caps = market.resources().capacities();
        let ranges: Vec<(f64, f64)> = caps.iter().map(|&c| (c * 0.02, c)).collect();
        market
            .players()
            .iter()
            .map(|p| {
                let samples =
                    sample_utility(p.utility().as_ref(), &ranges, self.fit_points_per_axis);
                fit_cobb_douglas(&samples)
            })
            .collect()
    }
}

impl Default for ElasticitiesProportional {
    fn default() -> Self {
        Self::new()
    }
}

impl Mechanism for ElasticitiesProportional {
    fn name(&self) -> String {
        "EP".to_string()
    }

    fn allocate(&self, market: &Market) -> Result<MechanismOutcome> {
        let n = market.len();
        let m = market.resources().len();
        let caps = market.resources().capacities();
        let fits = self.fit_players(market)?;

        // Normalize each player's elasticities to sum to 1 (its "spend"),
        // then hand out each resource proportionally.
        let mut shares = vec![vec![0.0; m]; n];
        for (i, fit) in fits.iter().enumerate() {
            let es = fit.fitted.elasticities();
            let sum: f64 = es.iter().sum();
            for j in 0..m {
                shares[i][j] = if sum > 0.0 {
                    es[j] / sum
                } else {
                    1.0 / m as f64
                };
            }
        }
        let mut allocation = AllocationMatrix::zeros(n, m)?;
        for j in 0..m {
            let total: f64 = (0..n).map(|i| shares[i][j]).sum();
            for i in 0..n {
                let frac = if total > 0.0 {
                    shares[i][j] / total
                } else {
                    1.0 / n as f64
                };
                allocation.set(i, j, frac * caps[j]);
            }
        }

        Ok(outcome_from_allocation(self.name(), market, allocation))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use rebudget_market::utility::CobbDouglas;
    use rebudget_market::{Player, ResourceSpace};
    use std::sync::Arc;

    fn cobb_market() -> Market {
        let resources = ResourceSpace::new(vec![100.0, 50.0]).unwrap();
        Market::new(
            resources,
            vec![
                Player::new(
                    "a",
                    100.0,
                    Arc::new(CobbDouglas::new(1.0, vec![0.8, 0.2]).unwrap()),
                ),
                Player::new(
                    "b",
                    100.0,
                    Arc::new(CobbDouglas::new(1.0, vec![0.2, 0.8]).unwrap()),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn ep_is_exact_for_cobb_douglas_players() {
        let market = cobb_market();
        let out = ElasticitiesProportional::new().allocate(&market).unwrap();
        assert!(out.allocation.is_exhaustive(&[100.0, 50.0], 1e-9));
        // a's normalized elasticities (0.8, 0.2) against b's (0.2, 0.8):
        // resource 0 splits 0.8 : 0.2.
        assert!((out.allocation.get(0, 0) - 80.0).abs() < 1.0);
        assert!((out.allocation.get(1, 1) - 40.0).abs() < 1.0);
        // For true Cobb-Douglas players EP is envy-free.
        assert!(out.envy_freeness >= 1.0 - 1e-6, "EF {}", out.envy_freeness);
    }

    #[test]
    fn ep_fit_quality_is_inspectable() {
        let market = cobb_market();
        let fits = ElasticitiesProportional::new()
            .fit_players(&market)
            .unwrap();
        assert_eq!(fits.len(), 2);
        assert!(fits.iter().all(|f| f.log_rmse < 1e-6));
    }

    #[test]
    fn ep_runs_on_non_cobb_douglas_players() {
        use rebudget_market::utility::SeparableUtility;
        let caps = [16.0, 80.0];
        let market = Market::new(
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
                    Arc::new(SeparableUtility::proportional(&[0.3, 0.7], &caps).unwrap()),
                ),
            ],
        )
        .unwrap();
        let out = ElasticitiesProportional::new().allocate(&market).unwrap();
        assert!(out.allocation.is_exhaustive(&caps, 1e-9));
        assert!(out.efficiency > 0.0);
    }
}
