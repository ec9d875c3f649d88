//! Regenerates **Figure 5** of the paper: the phase-2 (execution-driven)
//! evaluation — one randomly selected bundle per category, utilities
//! monitored online with UMON shadow tags, the market re-run every 1 ms
//! quantum. Reports system efficiency normalized to the MaxEfficiency run
//! (5a) and envy-freeness (5b).
//!
//! Usage: `fig5_simulation [cores] [quanta] [accesses_per_quantum] [seed] [trace]`
//! (defaults: 64, 10, 20000, 1; pass `trace` as the 5th argument to run
//! the trace-driven execution model — real shared-cache contention —
//! instead of the analytic one).

use rebudget_bench::{paper_mechanisms, PAPER_BUDGET};
use rebudget_core::mechanisms::MaxEfficiency;
use rebudget_sim::simulation::ExecutionModel;
use rebudget_sim::{run_simulation, system_for, SimOptions};
use rebudget_workloads::{generate_bundle, Category};

fn main() {
    let cores: usize = rebudget_bench::arg_or(1, 64);
    let quanta: usize = rebudget_bench::arg_or(2, 10);
    let accesses: usize = rebudget_bench::arg_or(3, 20_000);
    let seed: u64 = rebudget_bench::arg_or(4, 1);
    let execution = match std::env::args().nth(5).as_deref() {
        Some("trace") => ExecutionModel::TraceDriven,
        _ => ExecutionModel::Analytic,
    };
    let (sys, dram) = system_for(cores);
    let opts = SimOptions {
        quanta,
        accesses_per_quantum: accesses,
        budget: PAPER_BUDGET,
        use_monitors: true,
        seed,
        execution,
        ..SimOptions::default()
    };

    println!(
        "# Figure 5: execution-driven phase ({} cores, {} quanta of 1 ms, online UMON)",
        cores, quanta
    );
    println!(
        "{:<10} {:<14} {:>12} {:>12} {:>8} {:>8}",
        "bundle", "mechanism", "eff/OPT", "envy-free", "rounds", "iters"
    );

    for category in Category::ALL {
        // "We randomly select one application bundle per category" (§6).
        let bundle = generate_bundle(category, cores, 0, seed).expect("divisible core count");
        let oracle = match run_simulation(&sys, &dram, &bundle, &MaxEfficiency::default(), &opts) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: oracle failed: {e}", bundle.label());
                continue;
            }
        };
        let norm = oracle.efficiency.max(1e-12);
        println!(
            "{:<10} {:<14} {:>12.3} {:>12.3} {:>8.1} {:>8.1}",
            bundle.label(),
            "MaxEfficiency",
            1.0,
            oracle.envy_freeness,
            oracle.avg_equilibrium_rounds,
            oracle.avg_iterations
        );
        for mech in paper_mechanisms() {
            match run_simulation(&sys, &dram, &bundle, mech.as_ref(), &opts) {
                Ok(r) => println!(
                    "{:<10} {:<14} {:>12.3} {:>12.3} {:>8.1} {:>8.1}",
                    bundle.label(),
                    r.mechanism,
                    r.efficiency / norm,
                    r.envy_freeness,
                    r.avg_equilibrium_rounds,
                    r.avg_iterations
                ),
                Err(e) => eprintln!("{}: {} failed: {e}", bundle.label(), mech.name()),
            }
        }
        println!();
    }
    println!("# Expected ranking (paper §6.3): MaxEfficiency highest efficiency but worst");
    println!("# fairness; EqualBudget highest envy-freeness; ReBudget-20/40 in between,");
    println!("# with aggressiveness trading efficiency for fairness.");
}
