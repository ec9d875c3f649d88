//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. the ReBudget **step knob** (the paper evaluates 20 and 40; we sweep
//!    5–80 to show the full efficiency-vs-fairness frontier);
//! 2. **Talus convexification on/off** (paper footnote 4: convexified
//!    utilities improve even the XChange baselines);
//! 3. the **λ-threshold** of the re-assignment rule (paper: 50%, tied to
//!    the knee of Theorem 1);
//! 4. the **price-convergence tolerance** of the equilibrium search
//!    (paper: 1%).
//!
//! Usage: `ablation [cores] [seed] [policy]` (defaults: 8, 1, auto;
//! policy: `auto`, `serial`, or a thread count — the sweep fans step
//! values out across worker threads).

use std::sync::Arc;

use rebudget_bench::{exit_on_error, policy_arg, PAPER_BUDGET};
use rebudget_core::mechanisms::{EqualBudget, MaxEfficiency, Mechanism, ReBudget};
use rebudget_core::sweep::sweep_steps_with;
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{Market, Player, ResourceSpace, Utility};
use rebudget_sim::analytic::{build_market, resource_space};
use rebudget_sim::system_for;
use rebudget_sim::utility_model::app_utility_grid_with;
use rebudget_workloads::paper_bbpc_8core;

fn main() {
    let cores: usize = rebudget_bench::arg_or(1, 8);
    let seed: u64 = rebudget_bench::arg_or(2, 1);
    let policy = policy_arg(3);
    let (sys, dram) = system_for(8);
    let _ = (cores, seed); // the case-study bundle is fixed at 8 cores
    let bundle = paper_bbpc_8core();
    let market = exit_on_error(build_market(&bundle, &sys, &dram, PAPER_BUDGET));

    // ---- 1. Step knob sweep -------------------------------------------
    println!("# Ablation 1: ReBudget step knob (BBPC bundle, analytical)");
    println!(
        "{:>6} {:>10} {:>10} {:>8} {:>8} {:>10}",
        "step", "eff/OPT", "envy-free", "MUR", "MBR", "EF-floor"
    );
    let steps = [0.0, 5.0, 10.0, 20.0, 40.0, 80.0];
    let points = exit_on_error(sweep_steps_with(
        &market,
        PAPER_BUDGET,
        &steps,
        true,
        policy,
    ));
    for p in &points {
        println!(
            "{:>6.0} {:>10.3} {:>10.3} {:>8.3} {:>8.3} {:>10.3}",
            p.step,
            p.normalized_efficiency.unwrap_or(f64::NAN),
            p.envy_freeness,
            p.mur,
            p.mbr,
            p.ef_floor
        );
    }

    // ---- 2. Talus convexification on/off ------------------------------
    println!();
    println!("# Ablation 2: Talus convexification of utilities");
    for convexify in [true, false] {
        let resources = exit_on_error(resource_space(&bundle, &sys));
        let players: Vec<Player> = bundle
            .apps
            .iter()
            .enumerate()
            .map(|(core, app)| {
                Player::new(
                    format!("{}#{core}", app.name),
                    PAPER_BUDGET,
                    Arc::new(app_utility_grid_with(app, &sys, &dram, convexify))
                        as Arc<dyn Utility>,
                )
            })
            .collect();
        let m = exit_on_error(resources_market(resources, players));
        let opt = exit_on_error(MaxEfficiency::default().allocate(&m));
        let eq = exit_on_error(EqualBudget::new(PAPER_BUDGET).allocate(&m));
        let rb = exit_on_error(ReBudget::with_step(PAPER_BUDGET, 40.0).allocate(&m));
        println!(
            "convexify={:<5}  EqualBudget eff/OPT={:.3}  ReBudget-40 eff/OPT={:.3}  (converged: {} / {})",
            convexify,
            eq.efficiency / opt.efficiency,
            rb.efficiency / opt.efficiency,
            eq.solve.converged,
            rb.solve.converged,
        );
    }

    // ---- 3. λ threshold of the re-assignment rule ---------------------
    println!();
    println!("# Ablation 3: ReBudget λ threshold (paper: 0.5)");
    println!(
        "{:>10} {:>10} {:>10} {:>8}",
        "threshold", "eff/OPT", "envy-free", "rounds"
    );
    let opt = exit_on_error(MaxEfficiency::default().allocate(&market));
    for thr in [0.25, 0.5, 0.75, 0.9] {
        let mut mech = ReBudget::with_step(PAPER_BUDGET, 40.0);
        mech.lambda_threshold = thr;
        let out = exit_on_error(mech.allocate(&market));
        println!(
            "{thr:>10.2} {:>10.3} {:>10.3} {:>8}",
            out.efficiency / opt.efficiency,
            out.envy_freeness,
            out.solve.rounds
        );
    }

    // ---- 4. Price-convergence tolerance --------------------------------
    println!();
    println!("# Ablation 4: equilibrium price tolerance (paper: 1%)");
    println!("{:>10} {:>10} {:>10}", "tolerance", "eff/OPT", "iterations");
    for tol in [0.05, 0.01, 0.002] {
        let mut mech = EqualBudget::new(PAPER_BUDGET);
        mech.options = EquilibriumOptions {
            price_tolerance: tol,
            ..EquilibriumOptions::default()
        };
        let out = exit_on_error(mech.allocate(&market));
        println!(
            "{tol:>10.3} {:>10.3} {:>10}",
            out.efficiency / opt.efficiency,
            out.solve.iterations
        );
    }
}

fn resources_market(
    resources: ResourceSpace,
    players: Vec<Player>,
) -> rebudget_market::Result<Market> {
    Market::new(resources, players)
}
