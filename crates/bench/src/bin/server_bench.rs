//! Warm-vs-cold online re-solve throughput — the server crate's claim
//! that warm-starting each tick's equilibrium from the previous
//! quantum's bids makes high-churn online serving tractable.
//!
//! Models the daemon's steady state: a large sparse market whose
//! *interest structure is fixed* while a small fraction of player
//! budgets change every tick (deterministic, seeded churn). Two arms
//! re-solve the same tick stream:
//!
//! * **cold** — every tick solves from the equal-split initial bids,
//!   as a daemon without warm starting would;
//! * **warm** — every tick seeds the solver with the previous tick's
//!   final bids via [`WarmStart`], as `rebudget serve` does.
//!
//! Both arms solve tick 0 outside the timer (the warm arm needs a seed;
//! the cold arm gets the same cache warm-up), then run the timed churn
//! ticks. Every solve must converge under the tolerance — the binary
//! **exits non-zero** on any over-tolerance residual, and on a speedup
//! below the configured floor (the acceptance gate is warm ≥ 2× cold).
//! Results land in a machine-readable `BENCH_server.json`.
//!
//! The tolerance defaults to the serve subcommand's online operating
//! point (1e-4): there the warm start converges in a fraction of the
//! cold iterations. At the batch pipeline's 1e-6 the slow geometric
//! tail of the first-order dynamics dominates both arms and the warm
//! advantage vanishes — measured, not assumed; see EXPERIMENTS.md.
//!
//! Usage: `server_bench [players] [ticks] [churn_percent] [json] [tol] [min_speedup] [solver]`
//! (defaults: 10000, 12, 1.0, BENCH_server.json, 1e-4, 2.0, propresp).

use std::path::Path;
use std::time::Instant;

use rebudget_bench::exit_on_error;
use rebudget_bench::export::{write_server_json, ServerBenchSummary};
use rebudget_market::equilibrium::{EquilibriumOptions, WarmStart};
use rebudget_market::{splitmix64, SolverKind, SparseMarket, SynthSpec};

/// The fixed resource count, matching the scalability bench's sparse arm.
const RESOURCES: usize = 64;

/// Applies tick `t`'s deterministic churn: roughly `churn_percent` of
/// players get their budget rescaled into `[0.5, 1.5)` of the base.
/// Interests are untouched, so the CSR structure (and hence the warm
/// bid vector's shape) is constant across ticks.
fn churn_budgets(base: &[f64], churn_percent: f64, tick: u64) -> Vec<f64> {
    let threshold = (churn_percent * 100.0).round() as u64; // out of 10_000
    base.iter()
        .enumerate()
        .map(|(i, &b)| {
            let h = splitmix64(tick.wrapping_mul(0x5151_5151).wrapping_add(i as u64));
            if h % 10_000 < threshold {
                let frac = (splitmix64(h) % 1_000) as f64 / 1_000.0;
                b * (0.5 + frac)
            } else {
                b
            }
        })
        .collect()
}

/// One arm's timed result.
struct Arm {
    elapsed_s: f64,
    iterations: u64,
    max_residual: f64,
    converged: bool,
}

/// Runs `ticks` churn re-solves. `warm` seeds each tick from the
/// previous outcome's bids; tick 0 (untimed) provides the first seed.
fn run_arm(
    template: &SparseMarket,
    opts: &EquilibriumOptions,
    ticks: usize,
    churn_percent: f64,
    warm: bool,
) -> Arm {
    let base = template.budgets().to_vec();
    let tick0 = exit_on_error(template.solve(opts));
    let mut seed_bids = tick0.bids.vals().to_vec();

    let mut iterations = 0u64;
    let mut max_residual = 0.0f64;
    let mut converged = true;
    let t = Instant::now();
    for tick in 1..=ticks as u64 {
        let budgets = churn_budgets(&base, churn_percent, tick);
        let market = exit_on_error(SparseMarket::new(
            template.capacities().to_vec(),
            budgets,
            template.interests().clone(),
            template.kind(),
        ));
        let tick_opts = if warm {
            opts.clone().with_warm_start(
                WarmStart {
                    bids: seed_bids.clone(),
                }
                .shared(),
            )
        } else {
            opts.clone()
        };
        let out = exit_on_error(market.solve(&tick_opts));
        iterations += out.iterations;
        if out.report.residual.is_nan() || out.report.residual > max_residual {
            max_residual = out.report.residual;
        }
        converged &= out.converged();
        if warm {
            seed_bids = out.bids.vals().to_vec();
        }
    }
    Arm {
        elapsed_s: t.elapsed().as_secs_f64(),
        iterations,
        max_residual,
        converged,
    }
}

fn main() {
    let players: usize = rebudget_bench::arg_or(1, 10_000);
    let ticks: usize = rebudget_bench::arg_or(2, 12);
    let churn_percent: f64 = rebudget_bench::arg_or(3, 1.0);
    let json_path = std::env::args()
        .nth(4)
        .unwrap_or_else(|| "BENCH_server.json".to_string());
    let tolerance: f64 = rebudget_bench::arg_or(5, 1e-4);
    let min_speedup: f64 = rebudget_bench::arg_or(6, 2.0);
    let solver = match std::env::args().nth(7).as_deref() {
        None | Some("propresp") => SolverKind::ProportionalResponse,
        Some("mirror") => SolverKind::MirrorDescent,
        Some(other) => {
            eprintln!("error: unknown solver '{other}' (propresp | mirror)");
            std::process::exit(1);
        }
    };

    let template = exit_on_error(SynthSpec::new(players, RESOURCES, 1).generate());
    let mut opts = EquilibriumOptions::large_scale().with_solver(solver);
    opts.price_tolerance = tolerance;

    println!(
        "# Online re-solve throughput: N={players} M={RESOURCES} nnz={} \
         {ticks} ticks, {churn_percent}% budget churn, {} @ tol {tolerance:e}",
        template.nnz(),
        solver.label()
    );

    let cold = run_arm(&template, &opts, ticks, churn_percent, false);
    let warm = run_arm(&template, &opts, ticks, churn_percent, true);

    let cold_tps = ticks as f64 / cold.elapsed_s;
    let warm_tps = ticks as f64 / warm.elapsed_s;
    let speedup = warm_tps / cold_tps;
    let max_residual = cold.max_residual.max(warm.max_residual);
    let converged = cold.converged && warm.converged;

    println!(
        "{:>6} {:>12} {:>10} {:>12} {:>5}",
        "arm", "ticks/sec", "iters", "residual", "conv"
    );
    for (label, arm, tps) in [("cold", &cold, cold_tps), ("warm", &warm, warm_tps)] {
        println!(
            "{label:>6} {tps:>12.2} {:>10} {:>12.2e} {:>5}",
            arm.iterations,
            arm.max_residual,
            if arm.converged { "yes" } else { "NO" }
        );
    }
    println!("# speedup: {speedup:.2}x (gate: >= {min_speedup:.2}x)");

    let summary = ServerBenchSummary {
        players,
        resources: RESOURCES,
        nnz: template.nnz(),
        ticks,
        churn_percent,
        solver: solver.label().to_string(),
        cold_ticks_per_sec: cold_tps,
        warm_ticks_per_sec: warm_tps,
        speedup,
        cold_iterations: cold.iterations,
        warm_iterations: warm.iterations,
        max_residual,
        converged,
    };
    if let Err(e) = write_server_json(Path::new(&json_path), tolerance, min_speedup, &summary) {
        eprintln!("error: cannot write {json_path}: {e}");
        std::process::exit(1);
    }
    println!("# wrote {json_path}");

    if !converged || max_residual.is_nan() || max_residual > tolerance {
        eprintln!("error: a solve finished over tolerance {tolerance:e} (max {max_residual:e})");
        std::process::exit(1);
    }
    if speedup < min_speedup {
        eprintln!("error: warm speedup {speedup:.2}x below the {min_speedup:.2}x gate");
        std::process::exit(1);
    }
}
