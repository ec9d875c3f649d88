//! Regenerates the **§6.4 convergence** study: how many bidding–pricing
//! iterations the market needs to reach equilibrium, per mechanism, across
//! the bundle suite — including the 30-iteration fail-safe count.
//!
//! The paper: "EqualBudget and XChange-Balanced converge within 3
//! iterations for 95% of the bundles. ReBudget spends a few more
//! iterations, because it needs to re-converge after budget adjustment."
//!
//! Usage: `convergence [cores] [bundles_per_category] [seed] [policy]`
//! (defaults: 64, 10, 1, auto; policy: `auto`, `serial`, or a thread
//! count for the per-player best-response fan-out).

use rebudget_bench::{
    exit_on_error, paper_mechanisms, paper_mechanisms_with, policy_arg, PAPER_BUDGET,
};
use rebudget_sim::analytic::build_market_with;
use rebudget_sim::system_for;
use rebudget_workloads::{generate_bundle, Category};

fn main() {
    let cores: usize = rebudget_bench::arg_or(1, 64);
    let per_category: usize = rebudget_bench::arg_or(2, 10);
    let seed: u64 = rebudget_bench::arg_or(3, 1);
    let policy = policy_arg(4);
    let (sys, dram) = system_for(cores);

    // Per-mechanism: iteration counts of the *final* equilibrium solve
    // plus totals across budget-adjustment rounds.
    let names: Vec<String> = paper_mechanisms().iter().map(|m| m.name()).collect();
    let mut per_solve: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut rounds: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut failsafe = vec![0usize; names.len()];

    for category in Category::ALL {
        for index in 0..per_category {
            let bundle = generate_bundle(category, cores, index, seed).expect("valid cores");
            let market = exit_on_error(build_market_with(
                &bundle,
                &sys,
                &dram,
                PAPER_BUDGET,
                policy,
            ));
            for (k, mech) in paper_mechanisms_with(policy).iter().enumerate() {
                let out = exit_on_error(mech.allocate(&market));
                if out.equilibrium_rounds > 0 {
                    per_solve[k].push(out.total_iterations as f64 / out.equilibrium_rounds as f64);
                    rounds[k].push(out.equilibrium_rounds as f64);
                    if !out.converged {
                        failsafe[k] += 1;
                    }
                }
            }
        }
    }

    println!(
        "# Convergence over {} bundles, {} cores (iterations per equilibrium solve)",
        per_category * Category::ALL.len(),
        cores
    );
    println!(
        "{:<14} {:>10} {:>10} {:>12} {:>12} {:>10}",
        "mechanism", "mean-iters", "p95-iters", "<=3 iters", "mean-rounds", "failsafe"
    );
    for (k, name) in names.iter().enumerate() {
        if per_solve[k].is_empty() {
            println!("{name:<14} {:>10} (no market)", "-");
            continue;
        }
        let mut sorted = per_solve[k].clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
        let p95 = sorted[(sorted.len() as f64 * 0.95) as usize % sorted.len()];
        let within3 =
            sorted.iter().filter(|&&x| x <= 3.0).count() as f64 / sorted.len() as f64 * 100.0;
        let mean_rounds = rounds[k].iter().sum::<f64>() / rounds[k].len() as f64;
        println!(
            "{name:<14} {mean:>10.2} {p95:>10.2} {:>11.1}% {mean_rounds:>12.2} {:>10}",
            within3, failsafe[k]
        );
    }
    println!();
    println!("# Paper reference: EqualBudget/Balanced <=3 iterations for 95% of bundles;");
    println!("# ReBudget needs a few more (one re-convergence per budget step); fail-safe");
    println!("# terminates the search after 30 iterations in rare non-converging cases.");
}
