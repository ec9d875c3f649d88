#![warn(missing_docs)]

//! Shared harness code for the figure/table regeneration binaries and the
//! Criterion benches.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `DESIGN.md` for the experiment index):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig1_theory` | Figure 1 (theory curves) |
//! | `fig2_cache_utility` | Figure 2 (mcf/vpr cache utility + Talus hull) |
//! | `fig3_lambda` | Figure 3 (per-app λ under EqualBudget/ReBudget-20/40) |
//! | `fig4_analytical` | Figure 4a/4b (240-bundle analytical sweep) |
//! | `fig5_simulation` | Figure 5a/5b (execution-driven phase) |
//! | `table1_config` | Table 1 (system configuration) |
//! | `convergence` | §6.4 (equilibrium convergence statistics) |
//! | `ablation` | Design-choice ablations (step knob, Talus on/off, thresholds) |

pub mod export;

use rebudget_core::mechanisms::{
    Balanced, EqualBudget, EqualShare, MaxEfficiency, Mechanism, ReBudget,
};
use rebudget_market::{ParallelPolicy, Result};
use rebudget_sim::analytic::build_market;
use rebudget_sim::{DramConfig, SystemConfig};
use rebudget_workloads::Bundle;

/// Per-player starting budget used throughout the paper's evaluation (§6).
pub const PAPER_BUDGET: f64 = 100.0;

/// The market mechanisms of Figure 4/5, in the paper's order
/// (MaxEfficiency is handled separately as the normalizer).
pub fn paper_mechanisms() -> Vec<Box<dyn Mechanism>> {
    paper_mechanisms_with(ParallelPolicy::Auto)
}

/// [`paper_mechanisms`] with an explicit [`ParallelPolicy`] for the inner
/// equilibrium solves (mechanism outcomes are identical under every
/// policy; only wall-clock changes).
pub fn paper_mechanisms_with(policy: ParallelPolicy) -> Vec<Box<dyn Mechanism>> {
    vec![
        Box::new(EqualShare),
        Box::new(EqualBudget::new(PAPER_BUDGET).with_parallel(policy)),
        Box::new(Balanced::new(PAPER_BUDGET).with_parallel(policy)),
        Box::new(ReBudget::with_step(PAPER_BUDGET, 20.0).with_parallel(policy)),
        Box::new(ReBudget::with_step(PAPER_BUDGET, 40.0).with_parallel(policy)),
    ]
}

/// Parses a CLI/harness policy spec: `auto`, `serial`, or a positive
/// thread count (e.g. `4`; `1` means `serial`), case-insensitively.
/// `None` for anything else.
pub fn parse_policy(spec: &str) -> Option<ParallelPolicy> {
    match spec.to_ascii_lowercase().as_str() {
        "serial" | "1" => Some(ParallelPolicy::Serial),
        "auto" => Some(ParallelPolicy::Auto),
        s => s
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .map(ParallelPolicy::Threads),
    }
}

/// Positional CLI argument `n` parsed as a [`ParallelPolicy`]
/// (default `Auto` when absent). An unparseable spec is a usage error:
/// one `error:` line on stderr and exit status 2.
pub fn policy_arg(n: usize) -> ParallelPolicy {
    let Some(spec) = std::env::args().nth(n) else {
        return ParallelPolicy::Auto;
    };
    parse_policy(&spec).unwrap_or_else(|| {
        eprintln!("error: bad policy '{spec}' (expected auto, serial or a positive thread count)");
        std::process::exit(2);
    })
}

/// One mechanism's result on one bundle.
#[derive(Debug, Clone)]
pub struct MechanismRow {
    /// Mechanism display name.
    pub mechanism: String,
    /// Efficiency normalized to the MaxEfficiency oracle.
    pub normalized_efficiency: f64,
    /// Envy-freeness of the allocation.
    pub envy_freeness: f64,
    /// Market Utility Range at equilibrium (NaN for non-market mechanisms).
    pub mur: f64,
    /// Market Budget Range of final budgets (NaN for non-market mechanisms).
    pub mbr: f64,
}

/// All mechanisms evaluated on one bundle (phase-1, analytical).
#[derive(Debug, Clone)]
pub struct BundleResult {
    /// Bundle label, e.g. `"CPBB#07"`.
    pub label: String,
    /// The oracle's absolute efficiency (the normalizer).
    pub max_efficiency: f64,
    /// Per-mechanism rows, in [`paper_mechanisms`] order.
    pub rows: Vec<MechanismRow>,
}

impl BundleResult {
    /// The row for a mechanism by name.
    pub fn row(&self, mechanism: &str) -> Option<&MechanismRow> {
        self.rows.iter().find(|r| r.mechanism == mechanism)
    }
}

/// Runs the phase-1 (analytical) evaluation of one bundle: profiled,
/// convexified utilities; every paper mechanism; normalized to the oracle.
///
/// # Errors
///
/// Propagates [`rebudget_market::MarketError`]s (cannot occur for valid
/// bundles).
pub fn evaluate_bundle_analytic(
    bundle: &Bundle,
    sys: &SystemConfig,
    dram: &DramConfig,
) -> Result<BundleResult> {
    let market = build_market(bundle, sys, dram, PAPER_BUDGET)?;
    // Run the mechanisms first; the best of them warm-starts the oracle
    // (OPT is a maximum over all allocations, so polishing the best
    // equilibrium can only tighten the normalizer).
    let outcomes: Vec<_> = paper_mechanisms()
        .iter()
        .map(|m| m.allocate(&market))
        .collect::<Result<_>>()?;
    let oracle = MaxEfficiency::default().allocate(&market)?;
    // Normalize by the best welfare found anywhere: the raw climb, or a
    // climb polished from the best equilibrium.
    let mut max_efficiency = oracle.efficiency;
    if let Some(best) = outcomes
        .iter()
        .max_by(|a, b| a.efficiency.partial_cmp(&b.efficiency).expect("finite"))
    {
        let polished = rebudget_market::optimal::max_efficiency_from(
            &market,
            &rebudget_market::optimal::OptimalOptions::default(),
            best.allocation.clone(),
        )?;
        max_efficiency = max_efficiency.max(polished.efficiency);
    }
    let max_efficiency = max_efficiency.max(1e-12);
    let mut rows: Vec<MechanismRow> = outcomes
        .iter()
        .map(|out| MechanismRow {
            mechanism: out.mechanism.clone(),
            normalized_efficiency: out.efficiency / max_efficiency,
            envy_freeness: out.envy_freeness,
            mur: out.mur.unwrap_or(f64::NAN),
            mbr: out.mbr.unwrap_or(f64::NAN),
        })
        .collect();
    // The oracle itself, for the fairness comparison of Figure 4b.
    rows.push(MechanismRow {
        mechanism: oracle.mechanism.clone(),
        normalized_efficiency: 1.0,
        envy_freeness: oracle.envy_freeness,
        mur: f64::NAN,
        mbr: f64::NAN,
    });
    Ok(BundleResult {
        label: bundle.label(),
        max_efficiency,
        rows,
    })
}

/// Sorts bundle results by EqualShare efficiency, the x-axis ordering of
/// Figure 4 ("workloads are ordered by the efficiency of EqualShare").
pub fn sort_by_equal_share(results: &mut [BundleResult]) {
    results.sort_by(|a, b| {
        let ea = a.row("EqualShare").map_or(0.0, |r| r.normalized_efficiency);
        let eb = b.row("EqualShare").map_or(0.0, |r| r.normalized_efficiency);
        ea.partial_cmp(&eb).expect("finite efficiencies")
    });
}

/// Fraction of bundles on which `mechanism` reaches at least `threshold`
/// of the oracle's efficiency (§6.1.1 reports these for EqualBudget).
pub fn fraction_at_least(results: &[BundleResult], mechanism: &str, threshold: f64) -> f64 {
    let hits = results
        .iter()
        .filter(|r| {
            r.row(mechanism)
                .is_some_and(|m| m.normalized_efficiency >= threshold)
        })
        .count();
    hits as f64 / results.len().max(1) as f64
}

/// Worst-case (minimum) envy-freeness across bundles for a mechanism.
pub fn worst_envy_freeness(results: &[BundleResult], mechanism: &str) -> f64 {
    results
        .iter()
        .filter_map(|r| r.row(mechanism).map(|m| m.envy_freeness))
        .fold(f64::INFINITY, f64::min)
}

/// Median envy-freeness across bundles for a mechanism ("typical" in §6.2).
pub fn median_envy_freeness(results: &[BundleResult], mechanism: &str) -> f64 {
    let mut efs: Vec<f64> = results
        .iter()
        .filter_map(|r| r.row(mechanism).map(|m| m.envy_freeness))
        .collect();
    if efs.is_empty() {
        return f64::NAN;
    }
    efs.sort_by(|a, b| a.partial_cmp(b).expect("finite EF"));
    efs[efs.len() / 2]
}

/// Positional CLI argument `n` parsed as a `T` (`default` when absent).
/// An unparseable argument is a usage error: one `error:` line on stderr
/// and exit status 2.
pub fn arg_or<T: std::str::FromStr>(n: usize, default: T) -> T {
    let arg = std::env::args().nth(n);
    parse_arg(arg.as_deref(), default).unwrap_or_else(|| {
        eprintln!("error: bad argument {n} '{}'", arg.unwrap_or_default());
        std::process::exit(2);
    })
}

/// `arg` parsed as a `T`: `default` when absent, `None` when it does not
/// parse.
fn parse_arg<T: std::str::FromStr>(arg: Option<&str>, default: T) -> Option<T> {
    match arg {
        None => Some(default),
        Some(s) => s.parse().ok(),
    }
}

/// Converts an error (a [`rebudget_market::MarketError`] chain, an I/O
/// error) into a process exit with a message — for binary main functions.
pub fn exit_on_error<T, E: std::fmt::Display>(result: std::result::Result<T, E>) -> T {
    match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebudget_sim::system_for;
    use rebudget_workloads::paper_bbpc_8core;

    #[test]
    fn evaluate_bundle_produces_all_rows() {
        let (sys, dram) = system_for(8);
        let r = evaluate_bundle_analytic(&paper_bbpc_8core(), &sys, &dram).unwrap();
        assert_eq!(r.rows.len(), 6);
        assert!(r.row("EqualBudget").is_some());
        assert!(r.row("ReBudget-40").is_some());
        assert!(r.row("MaxEfficiency").is_some());
        for row in &r.rows {
            assert!(
                row.normalized_efficiency > 0.2 && row.normalized_efficiency <= 1.05,
                "{}: {}",
                row.mechanism,
                row.normalized_efficiency
            );
        }
    }

    #[test]
    fn summary_statistics() {
        let (sys, dram) = system_for(8);
        let r = evaluate_bundle_analytic(&paper_bbpc_8core(), &sys, &dram).unwrap();
        let results = vec![r];
        assert!(fraction_at_least(&results, "MaxEfficiency", 0.99) >= 1.0);
        assert!(worst_envy_freeness(&results, "EqualBudget") > 0.5);
        let med = median_envy_freeness(&results, "EqualBudget");
        assert!(med.is_finite());
    }

    #[test]
    fn policy_spec_parsing() {
        assert_eq!(parse_policy("serial"), Some(ParallelPolicy::Serial));
        assert_eq!(parse_policy("Auto"), Some(ParallelPolicy::Auto));
        assert_eq!(parse_policy("4"), Some(ParallelPolicy::Threads(4)));
        for bogus in ["bogus", "seriall", "0", "-2", ""] {
            assert_eq!(parse_policy(bogus), None, "{bogus:?}");
        }
    }

    #[test]
    fn positional_argument_parsing() {
        assert_eq!(parse_arg(None, 21usize), Some(21));
        assert_eq!(parse_arg(Some("7"), 21usize), Some(7));
        assert_eq!(parse_arg(Some("1e-4"), 1e-6), Some(1e-4));
        for bogus in ["2l", "", "-3", "1.5"] {
            assert_eq!(parse_arg(Some(bogus), 21usize), None, "{bogus:?}");
        }
        assert_eq!(parse_arg(Some("fast"), 1e-6), None);
    }

    #[test]
    fn sorting_by_equal_share() {
        let (sys, dram) = system_for(8);
        let a = evaluate_bundle_analytic(&paper_bbpc_8core(), &sys, &dram).unwrap();
        let mut b = a.clone();
        b.rows[0].normalized_efficiency = 0.01;
        let mut v = vec![a, b];
        sort_by_equal_share(&mut v);
        assert!(v[0].rows[0].normalized_efficiency <= v[1].rows[0].normalized_efficiency);
    }
}
