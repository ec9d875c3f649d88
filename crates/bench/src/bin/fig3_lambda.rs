//! Regenerates **Figure 3** of the paper: the marginal utility λᵢ of each
//! application in the 8-core BBPC case-study bundle (apsi×2, swim×2,
//! mcf×2, hmmer, sixtrack), normalized to the bundle's maximum λ, under
//! EqualBudget, ReBudget-20, and ReBudget-40 — with the MUR of each.
//!
//! The paper reports MUR = 0.40 / 0.46 / 0.59 for the three mechanisms and
//! shows the over-budgeted *swim* rising and budget-starved apps
//! requesting money.

use rebudget_bench::{exit_on_error, PAPER_BUDGET};
use rebudget_core::mechanisms::{EqualBudget, Mechanism, ReBudget};
use rebudget_sim::analytic::build_market;
use rebudget_sim::system_for;
use rebudget_workloads::paper_bbpc_8core;

fn main() {
    let (sys, dram) = system_for(8);
    let bundle = paper_bbpc_8core();
    let market = exit_on_error(build_market(&bundle, &sys, &dram, PAPER_BUDGET));

    let mechanisms: Vec<Box<dyn Mechanism>> = vec![
        Box::new(EqualBudget::new(PAPER_BUDGET)),
        Box::new(ReBudget::with_step(PAPER_BUDGET, 20.0)),
        Box::new(ReBudget::with_step(PAPER_BUDGET, 40.0)),
    ];

    println!("# Figure 3: normalized marginal utility λ_i per application");
    println!("# Bundle: {:?}", bundle.app_names());
    println!();
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "app", "EqualBudget", "ReBudget-20", "ReBudget-40"
    );

    let mut columns = Vec::new();
    let mut murs = Vec::new();
    let mut budgets = Vec::new();
    for mech in &mechanisms {
        let out = exit_on_error(mech.allocate(&market));
        let max_l = out.lambdas.iter().cloned().fold(1e-12, f64::max);
        columns.push(out.lambdas.iter().map(|l| l / max_l).collect::<Vec<_>>());
        murs.push(out.mur.unwrap_or(f64::NAN));
        budgets.push(out.budgets.clone());
    }

    // "The multiple copies of the same application behave essentially the
    // same way, so only one of each is shown."
    let mut seen = std::collections::HashSet::new();
    for (i, app) in bundle.apps.iter().enumerate() {
        if !seen.insert(app.name) {
            continue;
        }
        println!(
            "{:<14} {:>12.3} {:>12.3} {:>12.3}",
            app.name, columns[0][i], columns[1][i], columns[2][i]
        );
    }
    println!();
    println!(
        "{:<14} {:>12.3} {:>12.3} {:>12.3}",
        "MUR", murs[0], murs[1], murs[2]
    );
    println!();
    println!("# Final budgets per mechanism:");
    for (k, mech) in ["EqualBudget", "ReBudget-20", "ReBudget-40"]
        .iter()
        .enumerate()
    {
        let b: Vec<String> = bundle
            .apps
            .iter()
            .zip(&budgets[k])
            .map(|(a, b)| format!("{}={b:.2}", a.name))
            .collect();
        println!("#   {mech:<12} {}", b.join(" "));
    }
    println!();
    println!("# Paper reference: MUR 0.40 (EqualBudget) -> 0.46 (ReBudget-20) -> 0.59");
    println!("# (ReBudget-40); swim's budget falls to 61.25 under ReBudget-20.");
}
