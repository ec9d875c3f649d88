//! Regenerates **Figure 4** of the paper: the phase-1 (analytical)
//! evaluation over the full bundle suite — efficiency normalized to
//! MaxEfficiency (4a) and envy-freeness (4b) for EqualShare, EqualBudget,
//! XChange-Balanced, ReBudget-20, and ReBudget-40 — plus the §6.1/§6.2
//! summary numbers.
//!
//! Usage: `fig4_analytical [cores] [bundles_per_category] [seed] [csv_path]`
//! (defaults: 64, 40, 1 — i.e. the paper's 240-bundle sweep; pass a path
//! as the 4th argument to also write the sweep as CSV).

use rebudget_bench::{
    evaluate_bundle_analytic, fraction_at_least, median_envy_freeness, sort_by_equal_share,
    worst_envy_freeness,
};
use rebudget_core::theory::ef_lower_bound;
use rebudget_sim::system_for;
use rebudget_workloads::{generate_bundle, Category};

fn main() {
    let cores: usize = rebudget_bench::arg_or(1, 64);
    let per_category: usize = rebudget_bench::arg_or(2, 40);
    let seed: u64 = rebudget_bench::arg_or(3, 1);
    let (sys, dram) = system_for(cores);

    let mut results = Vec::new();
    for category in Category::ALL {
        for index in 0..per_category {
            let bundle = generate_bundle(category, cores, index, seed)
                .expect("core count is divisible by 4");
            match evaluate_bundle_analytic(&bundle, &sys, &dram) {
                Ok(r) => results.push(r),
                Err(e) => eprintln!("bundle {} failed: {e}", bundle.label()),
            }
        }
    }
    sort_by_equal_share(&mut results);

    if let Some(csv_path) = std::env::args().nth(4) {
        match rebudget_bench::export::write_fig4_csv(std::path::Path::new(&csv_path), &results) {
            Ok(()) => eprintln!("wrote {csv_path}"),
            Err(e) => eprintln!("failed to write {csv_path}: {e}"),
        }
    }

    let mechanisms = [
        "EqualShare",
        "EqualBudget",
        "Balanced",
        "ReBudget-20",
        "ReBudget-40",
        "MaxEfficiency",
    ];

    println!(
        "# Figure 4a: efficiency normalized to MaxEfficiency ({} cores, {} bundles)",
        cores,
        results.len()
    );
    print!("{:<10}", "bundle");
    for m in &mechanisms[..5] {
        print!(" {m:>12}");
    }
    println!();
    for r in &results {
        print!("{:<10}", r.label);
        for m in &mechanisms[..5] {
            print!(
                " {:>12.3}",
                r.row(m).map_or(f64::NAN, |x| x.normalized_efficiency)
            );
        }
        println!();
    }

    println!();
    println!("# Figure 4b: envy-freeness (same ordering)");
    print!("{:<10}", "bundle");
    for m in &mechanisms {
        print!(" {m:>13}");
    }
    println!();
    for r in &results {
        print!("{:<10}", r.label);
        for m in &mechanisms {
            print!(" {:>13.3}", r.row(m).map_or(f64::NAN, |x| x.envy_freeness));
        }
        println!();
    }

    println!();
    println!("# ---- Summary (paper §6.1, §6.2) ----");
    println!(
        "EqualBudget bundles >=95% of MaxEfficiency: {:>5.1}%   (paper: 37%)",
        100.0 * fraction_at_least(&results, "EqualBudget", 0.95)
    );
    println!(
        "EqualBudget bundles >=90% of MaxEfficiency: {:>5.1}%   (paper: >90%)",
        100.0 * fraction_at_least(&results, "EqualBudget", 0.90)
    );
    println!(
        "ReBudget-40 bundles >=95% of MaxEfficiency: {:>5.1}%   (paper: 100%)",
        100.0 * fraction_at_least(&results, "ReBudget-40", 0.95)
    );
    println!(
        "EqualBudget worst-case envy-freeness:      {:>6.3}   (paper: 0.93)",
        worst_envy_freeness(&results, "EqualBudget")
    );
    println!(
        "Balanced worst-case envy-freeness:         {:>6.3}   (paper: 0.86)",
        worst_envy_freeness(&results, "Balanced")
    );
    println!(
        "MaxEfficiency typical envy-freeness:       {:>6.3}   (paper: ~0.35)",
        median_envy_freeness(&results, "MaxEfficiency")
    );
    println!(
        "ReBudget-20 typical envy-freeness:         {:>6.3}   (paper: ~0.8, floor {:.2})",
        median_envy_freeness(&results, "ReBudget-20"),
        ef_lower_bound(1.0 - 2.0 * 20.0 / 100.0)
    );
    println!(
        "ReBudget-40 typical envy-freeness:         {:>6.3}   (paper: ~0.5, floor {:.2})",
        median_envy_freeness(&results, "ReBudget-40"),
        ef_lower_bound(1.0 - 2.0 * 40.0 / 100.0)
    );
    // Theorem-2 floors must never be violated.
    let mut violations = 0;
    for r in &results {
        for (m, step) in [("ReBudget-20", 20.0), ("ReBudget-40", 40.0)] {
            if let Some(row) = r.row(m) {
                let floor = ef_lower_bound(1.0 - 2.0 * step / 100.0);
                if row.envy_freeness < floor - 1e-9 {
                    violations += 1;
                }
            }
        }
    }
    println!("Theorem-2 floor violations:                {violations:>6}   (paper: none)");
}
