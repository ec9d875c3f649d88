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
//! A third arm times the daemon's whole tick, not just its solve: one
//! `ServerCore` driven in process through serve-churn's workload
//! (`players` initial players over 64 goods, 1% of them arriving and
//! 1% updating each tick, mean lifetime 100 ticks, seed 7304, tolerance
//! `tol`) for 100 ticks. Telemetry is on and each tick runs inside a
//! `tick` span, so the core's `market`, `ledger` and `snapshot` spans and
//! the solver's `solve` span nest under it; the bin reports tick p50/p90
//! and each stage's p50, and exits non-zero if a tick fails to converge.
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
use rebudget_bench::export::{write_server_json, CoreArmSummary, ServerBenchSummary};
use rebudget_market::equilibrium::{EquilibriumOptions, WarmStart};
use rebudget_market::{splitmix64, RetryPolicy, SolverKind, SparseMarket, SynthSpec};
use rebudget_server::state::{ServerConfig, ServerCore};
use rebudget_server::workload::WorkloadSpec;
use rebudget_telemetry as telemetry;

/// The fixed resource count, matching the scalability bench's sparse arm.
const RESOURCES: usize = 64;

/// The daemon arm's workload seed and tick count (serve-churn's).
const CORE_SEED: u64 = 7304;
const CORE_TICKS: u64 = 100;

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

/// `result`'s value, or exit 1 with its error.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    })
}

/// `samples`' `p`-th percentile (nearest rank).
fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Drives one in-process `ServerCore` through serve-churn's workload
/// with `players` initial players; see the module docs. `None` if a
/// tick failed to converge cleanly.
fn run_core_arm(players: usize, options: &EquilibriumOptions) -> Option<CoreArmSummary> {
    let spec = WorkloadSpec {
        seed: CORE_SEED,
        initial_players: players,
        resources: RESOURCES,
        arrivals_per_tick: (players / 100).max(1),
        mean_lifetime: 100,
        update_percent: 1,
    };
    let config = ServerConfig {
        capacities: vec![100.0; RESOURCES],
        solver: options.solver,
        options: options.clone(),
        retry: RetryPolicy::default(),
        fallback_after: 3,
        seed: CORE_SEED,
        commit_delay_ms: 0,
    };
    // Every tick's commands, generated before any timing.
    let commands: Vec<_> = (0..CORE_TICKS).map(|t| spec.commands_for_tick(t)).collect();
    let dir = std::env::temp_dir().join(format!("rebudget-server-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut core = or_exit(ServerCore::open(config, &dir));
    let stages = ["market", "solve", "ledger", "snapshot"];
    let registry = &telemetry::global().registry;
    let span_ms = |name: &str| registry.histogram(name).snapshot().sum as f64 / 1e6;
    let (mut ticks, mut stage_ms) = (Vec::new(), vec![Vec::new(); stages.len()]);
    let (mut iterations, mut clean) = (0, true);
    telemetry::reset();
    for (t, batch) in commands.iter().enumerate() {
        for req in batch {
            or_exit(core.apply(req));
        }
        telemetry::set_enabled(true);
        let before: Vec<f64> = stages
            .iter()
            .map(|s| span_ms(&format!("span.tick/{s}")))
            .collect();
        let started = Instant::now();
        let report = {
            let _tick = telemetry::span!("tick");
            core.tick(batch.len())
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        telemetry::set_enabled(false);
        let report = or_exit(report);
        clean &= report.converged && !report.fallback;
        if t == 0 {
            continue;
        }
        ticks.push(ms);
        iterations += report.iterations;
        for (k, stage) in stages.iter().enumerate() {
            stage_ms[k].push(span_ms(&format!("span.tick/{stage}")) - before[k]);
        }
    }
    drop(core);
    telemetry::reset();
    let _ = std::fs::remove_dir_all(&dir);
    let commits: Vec<f64> = ticks.iter().zip(&stage_ms[1]).map(|(t, s)| t - s).collect();
    clean.then(|| CoreArmSummary {
        players,
        seed: CORE_SEED,
        ticks: ticks.len(),
        tick_p50_ms: percentile(&ticks, 50.0),
        tick_p90_ms: percentile(&ticks, 90.0),
        stage_p50_ms: std::array::from_fn(|k| (stages[k], percentile(&stage_ms[k], 50.0))),
        commit_p50_ms: percentile(&commits, 50.0),
        iterations,
    })
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

    let Some(core) = run_core_arm(players, &opts) else {
        eprintln!("error: an in-process daemon tick did not converge cleanly");
        std::process::exit(1);
    };
    println!(
        "# daemon tick in process: {} players, {} warm ticks, {} iterations",
        core.players, core.ticks, core.iterations
    );
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "", "tick p50", "tick p90", "market", "solve", "ledger", "snapshot", "commit"
    );
    let stage = |k: usize| core.stage_p50_ms[k].1;
    println!(
        "{:>10} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
        "ms",
        core.tick_p50_ms,
        core.tick_p90_ms,
        stage(0),
        stage(1),
        stage(2),
        stage(3),
        core.commit_p50_ms
    );

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
        core,
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
