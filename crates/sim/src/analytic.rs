//! Phase-1 ("analytical") evaluation support: build a market directly from
//! application models (§6: "we extensively profile each application … and
//! analytically evaluate the system efficiency and fairness").

use std::sync::Arc;

use rebudget_market::par::{self, ParallelPolicy};
use rebudget_market::{Market, Player, ResourceSpace, Result};
use rebudget_workloads::Bundle;

use crate::config::SystemConfig;
use crate::dram::DramConfig;
use crate::utility_model::{
    app_utility_grid, core_power_model, discretionary_watts_at, NOMINAL_TEMP_K,
};

/// Total discretionary Watts on the chip: TDP minus every core's 800 MHz
/// floor at nominal temperature.
pub fn discretionary_watts(bundle: &Bundle, sys: &SystemConfig) -> f64 {
    let floors: f64 = bundle
        .apps
        .iter()
        .map(|app| core_power_model(app).floor_power(NOMINAL_TEMP_K))
        .sum();
    (sys.power.total_watts - floors).max(0.0)
}

/// The two-resource space the multicore market trades: discretionary cache
/// regions and discretionary Watts.
pub fn resource_space(bundle: &Bundle, sys: &SystemConfig) -> Result<ResourceSpace> {
    ResourceSpace::with_names(vec![
        (
            "cache-regions".to_string(),
            sys.discretionary_regions() as f64,
        ),
        ("watts".to_string(), discretionary_watts(bundle, sys)),
    ])
}

/// Builds the phase-1 market for a bundle: one player per core, utilities
/// from the profiled + convexified surfaces, equal budgets.
///
/// # Examples
///
/// ```
/// use rebudget_core::mechanisms::{EqualBudget, Mechanism};
/// use rebudget_sim::analytic::build_market;
/// use rebudget_sim::{DramConfig, SystemConfig};
/// use rebudget_workloads::paper_bbpc_8core;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let market = build_market(
///     &paper_bbpc_8core(),
///     &SystemConfig::paper_8core(),
///     &DramConfig::ddr3_1600(),
///     100.0,
/// )?;
/// let outcome = EqualBudget::new(100.0).allocate(&market)?;
/// assert!(outcome.solve.converged);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Propagates construction errors (cannot occur for valid bundles).
pub fn build_market(
    bundle: &Bundle,
    sys: &SystemConfig,
    dram: &DramConfig,
    budget: f64,
) -> Result<Market> {
    build_market_with(bundle, sys, dram, budget, ParallelPolicy::Auto)
}

/// [`build_market`] under an explicit [`ParallelPolicy`].
///
/// Profiling + convexifying one application's utility surface walks the
/// full cache×power grid and is the dominant cost of market construction,
/// so the per-core surfaces are built across worker threads. Each surface
/// depends only on its own app model; the resulting market is identical
/// under every policy.
///
/// # Errors
///
/// Propagates construction errors (cannot occur for valid bundles).
pub fn build_market_with(
    bundle: &Bundle,
    sys: &SystemConfig,
    dram: &DramConfig,
    budget: f64,
    policy: ParallelPolicy,
) -> Result<Market> {
    let resources = resource_space(bundle, sys)?;
    let threads = policy.resolved_threads_coarse(bundle.apps.len());
    let players = par::map_indexed(threads, bundle.apps.len(), |core| {
        let app = &bundle.apps[core];
        Player::new(
            format!("{}#{core}", app.name),
            budget,
            Arc::new(app_utility_grid(app, sys, dram)) as Arc<dyn rebudget_market::Utility>,
        )
    });
    Market::new(resources, players)
}

/// Sanity helper: the maximum discretionary Watts any single core could
/// usefully consume (running at `f_max`).
pub fn max_useful_watts_per_core(bundle: &Bundle, sys: &SystemConfig) -> Vec<f64> {
    bundle
        .apps
        .iter()
        .map(|app| {
            let m = core_power_model(app);
            discretionary_watts_at(&m, sys.dvfs.f_max)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebudget_core::mechanisms::{EqualBudget, EqualShare, Mechanism};
    use rebudget_workloads::paper_bbpc_8core;

    fn setup() -> (SystemConfig, DramConfig, Bundle) {
        (
            SystemConfig::paper_8core(),
            DramConfig::ddr3_1600(),
            paper_bbpc_8core(),
        )
    }

    #[test]
    fn resource_space_is_sane() {
        let (sys, _dram, bundle) = setup();
        let space = resource_space(&bundle, &sys).unwrap();
        assert_eq!(space.len(), 2);
        assert_eq!(space.capacity(0), 24.0, "4 MB − 8 free regions");
        let watts = space.capacity(1);
        assert!(
            watts > 40.0 && watts < 80.0,
            "discretionary Watts {watts} should be TDP minus floors"
        );
    }

    #[test]
    fn market_runs_equal_budget_end_to_end() {
        let (sys, dram, bundle) = setup();
        let market = build_market(&bundle, &sys, &dram, 100.0).unwrap();
        assert_eq!(market.len(), 8);
        let out = EqualBudget::new(100.0).allocate(&market).unwrap();
        assert!(out.solve.converged, "BBPC market should converge");
        assert!(out.efficiency > 0.0);
        // Weighted speedup cannot exceed N (utilities ≤ 1 each).
        assert!(out.efficiency <= 8.0 + 1e-6);
        assert!(out
            .allocation
            .is_exhaustive(market.resources().capacities(), 1e-6));
    }

    #[test]
    fn market_beats_equal_share_for_heterogeneous_bundle() {
        let (sys, dram, bundle) = setup();
        let market = build_market(&bundle, &sys, &dram, 100.0).unwrap();
        let share = EqualShare.allocate(&market).unwrap();
        let eq = EqualBudget::new(100.0).allocate(&market).unwrap();
        assert!(
            eq.efficiency >= share.efficiency * 0.98,
            "market {} should be at least comparable to equal share {}",
            eq.efficiency,
            share.efficiency
        );
    }

    #[test]
    fn max_useful_watts_below_capacity_each() {
        let (sys, _dram, bundle) = setup();
        for w in max_useful_watts_per_core(&bundle, &sys) {
            assert!(w > 0.0 && w < 20.0);
        }
        // Power must be scarce overall: the sum of what cores could
        // usefully burn exceeds the discretionary supply.
        let total: f64 = max_useful_watts_per_core(&bundle, &sys).iter().sum();
        assert!(
            total > discretionary_watts(&bundle, &sys),
            "power should be contended"
        );
    }
}
