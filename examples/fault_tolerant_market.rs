//! A market surviving hostile telemetry: Gaussian monitor noise, NaN
//! readings, dropped bids, and two adversarial "liar" bidders that
//! overstate their utility 3×. The solver's guardrails (adaptive damping,
//! restart-from-stable, non-finite sanitization) keep the allocation
//! valid, and the `SolveReport` / `MechanismOutcome` surface every
//! recovery action taken along the way.
//!
//! Run with: `cargo run -p rebudget-examples --bin fault_tolerant_market`

use std::error::Error;

use rebudget_core::mechanisms::{EqualBudget, Mechanism};
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{metrics, FaultPlan, RecoveryAction};
use rebudget_sim::analytic::build_market;
use rebudget_sim::{DramConfig, SystemConfig};
use rebudget_workloads::paper_bbpc_8core;

fn main() -> Result<(), Box<dyn Error>> {
    let sys = SystemConfig::paper_8core();
    let dram = DramConfig::ddr3_1600();
    let bundle = paper_bbpc_8core();
    let market = build_market(&bundle, &sys, &dram, 100.0)?;

    // The hostile interval: ±20% noise on every utility evaluation, 2% NaN
    // readings, a 10% chance each bid never arrives, and two liars.
    let plan = FaultPlan::parse("noise=0.2,nan=0.02,drop=0.1,liars=2,liar-factor=3,seed=7")?;
    let faulted = plan.apply(&market, 0)?;
    println!("bundle          {}", bundle.label());
    println!(
        "faults          noise=20% nan=2% drop=10% liars={:?} (3x)",
        faulted.liars
    );
    println!("dropped bids    {:?}", faulted.dropped);
    println!();

    // Solve the faulted market directly to see the raw SolveReport…
    let eq = faulted.market.equilibrium(&EquilibriumOptions::default())?;
    println!(
        "equilibrium     converged={} after {} iterations (residual {:.2e})",
        eq.converged(),
        eq.report.iterations,
        eq.report.residual
    );
    if eq.report.recovery.is_empty() {
        println!("recovery        (none needed)");
    } else {
        for action in &eq.report.recovery {
            let line = match action {
                RecoveryAction::OscillationDamped { iteration, damping } => {
                    format!("iteration {iteration}: oscillation damped to {damping:.3}")
                }
                RecoveryAction::RestartedFromStable { iteration } => {
                    format!("iteration {iteration}: diverged, restarted from stable iterate")
                }
                RecoveryAction::NonFiniteSanitized { iteration, what } => {
                    format!("iteration {iteration}: non-finite {what} sanitized")
                }
                other => format!("{other:?}"),
            };
            println!("recovery        {line}");
        }
    }
    println!();

    // …then run a full mechanism and score the allocation with the CLEAN
    // utilities: what did the faults actually cost?
    let clean = EqualBudget::new(100.0).allocate(&market)?;
    let out = EqualBudget::new(100.0).allocate(&faulted.market)?;
    let full = faulted.expand_allocation(&out.allocation, market.len())?;
    let eff = metrics::efficiency(&market, &full);
    let ef = metrics::envy_freeness(&market, &full);
    println!(
        "clean run       efficiency {:.4}  envy-freeness {:.4}",
        clean.efficiency, clean.envy_freeness
    );
    println!(
        "faulted run     efficiency {eff:.4}  envy-freeness {ef:.4}  \
         (retention {:.1}% / {:.1}%)",
        100.0 * eff / clean.efficiency,
        100.0 * ef / clean.envy_freeness
    );
    println!(
        "outcome         degraded={} solver_recoveries={} rolled_back_rounds={}",
        out.degraded, out.solve.recoveries, out.rolled_back_rounds
    );
    assert!(full.is_exhaustive(market.resources().capacities(), 1e-6));
    println!();
    println!("The allocation stayed exhaustive, finite, and non-negative — the");
    println!("guardrails degraded quality, never validity.");
    Ok(())
}
