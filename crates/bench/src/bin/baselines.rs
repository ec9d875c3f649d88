//! Extended baseline comparison (the mechanisms §1 of the paper argues
//! against):
//!
//! * **EP** (elasticities proportional / REF, Zahedi & Lee) — exact for
//!   Cobb–Douglas utilities, degrades when the fit is poor ("EP can in
//!   fact perform worse than expected when such curve-fitting is not well
//!   suited to the applications");
//! * **UCP+EqualPower** — uncoordinated single-resource allocation
//!   ("single-resource … allocation can be significantly suboptimal");
//! * the coordinated market mechanisms, for reference.
//!
//! Usage: `baselines [cores] [bundles_per_category] [seed]`
//! (defaults: 8, 2, 1).

use rebudget_bench::{exit_on_error, PAPER_BUDGET};
use rebudget_core::ep::ElasticitiesProportional;
use rebudget_core::mechanisms::{EqualBudget, EqualShare, MaxEfficiency, Mechanism, ReBudget};
use rebudget_core::uncoordinated::Uncoordinated;
use rebudget_sim::analytic::build_market;
use rebudget_sim::system_for;
use rebudget_workloads::{generate_bundle, Category};

fn main() {
    let cores: usize = rebudget_bench::arg_or(1, 8);
    let per_category: usize = rebudget_bench::arg_or(2, 2);
    let seed: u64 = rebudget_bench::arg_or(3, 1);
    let (sys, dram) = system_for(cores);

    let mechanisms: Vec<Box<dyn Mechanism>> = vec![
        Box::new(EqualShare),
        Box::new(Uncoordinated),
        Box::new(ElasticitiesProportional::new()),
        Box::new(EqualBudget::new(PAPER_BUDGET)),
        Box::new(ReBudget::with_step(PAPER_BUDGET, 40.0)),
    ];
    let names: Vec<String> = mechanisms.iter().map(|m| m.name()).collect();

    let mut sums = vec![0.0; names.len()];
    let mut ef_min = vec![f64::INFINITY; names.len()];
    let mut count = 0usize;

    println!("# Baseline comparison: efficiency normalized to MaxEfficiency");
    print!("{:<10}", "bundle");
    for n in &names {
        print!(" {n:>15}");
    }
    println!();
    for category in Category::ALL {
        for index in 0..per_category {
            let bundle = generate_bundle(category, cores, index, seed).expect("valid cores");
            let market = exit_on_error(build_market(&bundle, &sys, &dram, PAPER_BUDGET));
            let opt = exit_on_error(MaxEfficiency::default().allocate(&market));
            print!("{:<10}", bundle.label());
            for (k, mech) in mechanisms.iter().enumerate() {
                let out = exit_on_error(mech.allocate(&market));
                let norm = out.efficiency / opt.efficiency.max(1e-12);
                sums[k] += norm;
                ef_min[k] = ef_min[k].min(out.envy_freeness);
                print!(" {norm:>15.3}");
            }
            println!();
            count += 1;
        }
    }
    println!();
    println!("{:<10}", "mean");
    for (k, n) in names.iter().enumerate() {
        println!(
            "{:<18} mean eff/OPT {:>6.3}   worst EF {:>6.3}",
            n,
            sums[k] / count as f64,
            ef_min[k]
        );
    }
    println!();
    println!("# Expected shape (paper §1): the coordinated market beats the");
    println!("# uncoordinated single-resource allocator; EP trails the market when");
    println!("# utilities (mcf's cliff!) defy Cobb-Douglas fitting.");
}
