//! Scalability of the market mechanisms with player count — the paper's
//! claim that the largely distributed bidding–pricing process "is scalable
//! … to deal with large-scale systems" (§1, §4.2).
//!
//! Prints wall-clock time per allocation decision at 8–256 players, for
//! EqualBudget (one equilibrium) and ReBudget-40 (several), plus the
//! per-player iteration statistics. Each timing reports the **minimum**
//! (the least-noise estimate of the true cost) and the **median** (the
//! typical run) over the repeats, and the number of worker threads the
//! chosen parallel policy resolves to at that player count. The
//! per-decision work grows linearly in N per iteration, and the iteration
//! count stays flat.
//!
//! A second arm benchmarks the **first-order sparse solvers**
//! (`propresp`, `mirror`) on synthetic power-law markets at
//! N ∈ {10³, 10⁴, …, max_sparse} with M = 64 resources, reporting the
//! final residual of every solve in the workspace's unified
//! relative-excess-demand semantics and writing a machine-readable
//! `BENCH_scalability.json` artifact. The binary **exits non-zero** if any
//! first-order solve finishes with a residual above the configured
//! tolerance — CI treats an inaccurate fast solver as a failure, not a
//! result.
//!
//! Usage: `scalability [max_players] [repeats] [policy] [max_sparse] [json] [tol]`
//! (defaults: 256, 5, auto, 1000000, BENCH_scalability.json, 1e-6;
//! policy: `auto`, `serial`, or a thread count).

use std::path::Path;
use std::time::Instant;

use rebudget_bench::export::{write_scalability_json, ScalabilityPoint};
use rebudget_bench::{exit_on_error, policy_arg, PAPER_BUDGET};
use rebudget_core::mechanisms::{EqualBudget, Mechanism, ReBudget};
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{SolverKind, SynthSpec};
use rebudget_sim::analytic::build_market;
use rebudget_sim::{DramConfig, SystemConfig};
use rebudget_workloads::{generate_bundle, Category};

/// Times one closure `repeats` times; returns (min ms, median ms).
fn time_ms(repeats: usize, mut f: impl FnMut()) -> (f64, f64) {
    let mut samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[samples.len() / 2])
}

fn main() {
    let max_players: usize = rebudget_bench::arg_or(1, 256);
    let repeats: usize = rebudget_bench::arg_or(2, 5);
    let policy = policy_arg(3);
    let dram = DramConfig::ddr3_1600();

    println!(
        "# Allocation latency vs. player count (min/median of {repeats} runs, policy {policy:?})"
    );
    println!(
        "{:>8} {:>8} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "players",
        "threads",
        "EqB-min(ms)",
        "EqB-med(ms)",
        "RB40-min",
        "RB40-med",
        "eq-iters",
        "rb-rounds"
    );
    let mut n = 8usize;
    while n <= max_players {
        let sys = SystemConfig::scaled(n);
        let bundle = generate_bundle(Category::Cpbn, n, 0, 1).expect("divisible by 4");
        let market = exit_on_error(build_market(&bundle, &sys, &dram, PAPER_BUDGET));

        let threads = policy.resolved_threads(n);
        let equal = EqualBudget::new(PAPER_BUDGET).with_parallel(policy);
        let rebudget = ReBudget::with_step(PAPER_BUDGET, 40.0).with_parallel(policy);

        let mut eq_iters = 0u64;
        let mut rb_rounds = 0u64;
        let (eq_min, eq_med) = time_ms(repeats, || {
            eq_iters = exit_on_error(equal.allocate(&market)).solve.iterations;
        });
        let (rb_min, rb_med) = time_ms(repeats, || {
            rb_rounds = exit_on_error(rebudget.allocate(&market)).solve.rounds;
        });
        println!(
            "{n:>8} {threads:>8} {eq_min:>12.2} {eq_med:>12.2} {rb_min:>12.2} {rb_med:>12.2} {eq_iters:>10} {rb_rounds:>10}"
        );
        n *= 2;
    }
    println!();
    println!("# The per-decision cost is dominated by N independent best responses per");
    println!("# iteration (fanned out across the worker threads above); iteration counts");
    println!("# stay flat with N (the distributed-market scalability argument of the paper).");

    let max_sparse: usize = rebudget_bench::arg_or(4, 1_000_000);
    let json_path = std::env::args()
        .nth(5)
        .unwrap_or_else(|| "BENCH_scalability.json".to_string());
    let tolerance: f64 = rebudget_bench::arg_or(6, 1e-6);

    const SPARSE_RESOURCES: usize = 64;
    println!();
    println!(
        "# First-order solvers on sparse synthetic markets (M={SPARSE_RESOURCES}, \
         power-law degrees, tol {tolerance:e})"
    );
    println!(
        "{:>9} {:>10} {:>8} {:>9} {:>12} {:>12} {:>7} {:>10} {:>5}",
        "players", "nnz", "threads", "solver", "min(ms)", "med(ms)", "iters", "residual", "conv"
    );
    let mut points: Vec<ScalabilityPoint> = Vec::new();
    let mut over_tolerance = false;
    let mut n = 1_000usize;
    while n <= max_sparse {
        let market = exit_on_error(SynthSpec::new(n, SPARSE_RESOURCES, 1).generate());
        for solver in [SolverKind::ProportionalResponse, SolverKind::MirrorDescent] {
            let mut opts = EquilibriumOptions::large_scale().with_solver(solver);
            opts.parallel = policy;
            opts.price_tolerance = tolerance;
            let threads = policy.resolved_threads(n);
            let mut iterations = 0u64;
            let mut residual = f64::NAN;
            let mut converged = false;
            let (min_ms, med_ms) = time_ms(repeats, || {
                let o = exit_on_error(market.solve(&opts));
                iterations = o.iterations;
                residual = o.report.residual;
                converged = o.converged();
            });
            println!(
                "{n:>9} {:>10} {threads:>8} {:>9} {min_ms:>12.2} {med_ms:>12.2} \
                 {iterations:>7} {residual:>10.2e} {:>5}",
                market.nnz(),
                solver.label(),
                if converged { "yes" } else { "NO" }
            );
            if residual.is_nan() || residual > tolerance {
                eprintln!(
                    "error: {} at N={n} finished with residual {residual:e} > tolerance \
                     {tolerance:e}",
                    solver.label()
                );
                over_tolerance = true;
            }
            points.push(ScalabilityPoint {
                solver: solver.label().to_string(),
                players: n,
                resources: SPARSE_RESOURCES,
                nnz: market.nnz(),
                threads,
                min_ns: (min_ms * 1e6) as u64,
                median_ns: (med_ms * 1e6) as u64,
                iterations,
                residual,
                converged,
            });
        }
        n = n.saturating_mul(10);
    }
    if let Err(e) = write_scalability_json(Path::new(&json_path), tolerance, &points) {
        eprintln!("error: cannot write {json_path}: {e}");
        std::process::exit(1);
    }
    println!();
    println!("# wrote {json_path} ({} points)", points.len());
    if over_tolerance {
        std::process::exit(1);
    }
}
