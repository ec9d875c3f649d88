//! Regenerates the **robustness** study: how much efficiency and
//! envy-freeness the market pipeline retains as fault intensity rises.
//!
//! Three sections:
//!
//! 1. **Market level** — a static market is solved under a faulted view
//!    (noise, spikes, NaNs, dropped bids, liar bidders at increasing
//!    intensity); the resulting allocation is then scored with the *clean*
//!    utilities, so the numbers measure what the faults actually cost,
//!    not what the faulted telemetry claims.
//! 2. **Simulation level** — the full monitor → market → enforce loop of
//!    `rebudget-sim` with the same plan installed, reporting degraded /
//!    fallback quanta and solver recovery actions alongside retention.
//! 3. **Checkpoint overhead** — the same simulation with durable
//!    checkpointing every quantum vs. without, reporting time per quantum
//!    and the relative overhead (target: < 5%).
//! 4. **Tracing overhead** — the same simulation with telemetry compiled
//!    in but disabled (target: < 1%) and with the full JSONL journal +
//!    metrics recording enabled (target: < 5%), against the same
//!    interleaved median-of-paired-differences protocol.
//!
//! Usage: `robustness [cores] [quanta] [seed]` (defaults: 8, 8, 1).

use std::time::Instant;

use rebudget_bench::{exit_on_error, PAPER_BUDGET};
use rebudget_core::mechanisms::{EqualBudget, Mechanism, ReBudget};
use rebudget_market::{metrics, FaultPlan};
use rebudget_sim::analytic::build_market;
use rebudget_sim::simulation::run_simulation_recoverable;
use rebudget_sim::{run_simulation, system_for, RecoveryOptions, SimOptions};
use rebudget_workloads::paper_bbpc_8core;

/// The base (intensity 1.0) fault plan the sweep scales.
fn base_plan(seed: u64) -> FaultPlan {
    exit_on_error(FaultPlan::parse(
        "noise=0.2,spike=0.05,stale=0.3,drop=0.1,nan=0.02,liars=2",
    ))
    .with_seed(seed)
}

const INTENSITIES: [f64; 7] = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0];

fn main() {
    let cores: usize = rebudget_bench::arg_or(1, 8);
    let quanta: usize = rebudget_bench::arg_or(2, 8);
    let seed: u64 = rebudget_bench::arg_or(3, 1);
    let (sys, dram) = system_for(cores);
    let bundle = if cores == 8 {
        paper_bbpc_8core()
    } else {
        rebudget_workloads::generate_bundle(rebudget_workloads::Category::Bbpn, cores, 0, seed)
            .expect("valid cores")
    };
    let plan = base_plan(seed);

    // ---- 1. Market level: clean-utility scoring of faulted solves ------
    println!(
        "# Robustness sweep: {} cores, bundle {}, seed {seed}",
        cores,
        bundle.label()
    );
    println!("# Base plan (intensity 1.0): {plan:?}");
    println!();
    println!("# Market level — allocations solved under faulted telemetry,");
    println!("# scored with clean utilities (retention relative to intensity 0).");
    println!(
        "{:<14} {:>9} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "mechanism", "intensity", "efficiency", "eff-ret", "envy-free", "EF-ret", "recoveries"
    );
    let market = exit_on_error(build_market(&bundle, &sys, &dram, PAPER_BUDGET));
    let mechanisms: Vec<Box<dyn Mechanism>> = vec![
        Box::new(EqualBudget::new(PAPER_BUDGET)),
        Box::new(ReBudget::with_step(PAPER_BUDGET, 40.0)),
    ];
    for mech in &mechanisms {
        let mut clean_eff = f64::NAN;
        let mut clean_ef = f64::NAN;
        for &x in &INTENSITIES {
            let scaled = plan.at_intensity(x);
            let faulted = exit_on_error(scaled.apply(&market, 0));
            let out = exit_on_error(mech.allocate(&faulted.market));
            let full = exit_on_error(faulted.expand_allocation(&out.allocation, market.len()));
            let eff = metrics::efficiency(&market, &full);
            let ef = metrics::envy_freeness(&market, &full);
            if x == 0.0 {
                clean_eff = eff;
                clean_ef = ef;
            }
            println!(
                "{:<14} {:>9.2} {:>10.4} {:>9.3} {:>9.4} {:>9.3} {:>10}",
                out.mechanism,
                x,
                eff,
                eff / clean_eff,
                ef,
                ef / clean_ef,
                out.solver_recoveries
            );
        }
        println!();
    }

    // ---- 2. Simulation level: the full loop under the same plan --------
    println!("# Simulation level — monitor → market → enforce for {quanta} quanta;");
    println!("# degraded/fallback count quanta, recoveries count solver actions.");
    println!(
        "{:<14} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "mechanism",
        "intensity",
        "efficiency",
        "eff-ret",
        "envy-free",
        "EF-ret",
        "degraded",
        "fallback",
        "recoveries"
    );
    for mech in &mechanisms {
        let mut clean_eff = f64::NAN;
        let mut clean_ef = f64::NAN;
        for &x in &INTENSITIES {
            let scaled = plan.at_intensity(x);
            let opts = SimOptions {
                quanta,
                accesses_per_quantum: 10_000,
                budget: PAPER_BUDGET,
                use_monitors: true,
                seed,
                faults: if scaled.is_active() {
                    Some(scaled)
                } else {
                    None
                },
                ..SimOptions::default()
            };
            let r = match run_simulation(&sys, &dram, &bundle, mech.as_ref(), &opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            };
            if x == 0.0 {
                clean_eff = r.efficiency;
                clean_ef = r.envy_freeness;
            }
            println!(
                "{:<14} {:>9.2} {:>10.4} {:>9.3} {:>9.4} {:>9.3} {:>9} {:>9} {:>10}",
                r.mechanism,
                x,
                r.efficiency,
                r.efficiency / clean_eff,
                r.envy_freeness,
                r.envy_freeness / clean_ef,
                r.degraded_quanta,
                r.fallback_quanta,
                r.solver_recoveries
            );
        }
        println!();
    }
    println!("# Reading: retention near 1.0 means the guardrails held; degraded > 0");
    println!("# marks best-effort quanta; fallback > 0 marks EqualShare safe-mode");
    println!("# intervals after repeated solver failures (ISSUE-3 degradation policy).");
    println!();

    // ---- 3. Checkpoint overhead: durable snapshots every quantum -------
    println!("# Checkpoint overhead — ReBudget-40 under the intensity-1.0 plan,");
    println!("# durable snapshot after every quantum vs. no checkpointing");
    println!("# ({CHECKPOINT_REPS} interleaved pairs, median paired difference; target < 5%).");
    checkpoint_overhead(&sys, &dram, &bundle, &plan, quanta, seed);
    println!();

    // ---- 4. Tracing overhead: disabled vs full journal + metrics -------
    println!("# Tracing overhead — same run with telemetry disabled (the compiled-in");
    println!("# one-branch fast path; target < 1%) and fully enabled (JSONL journal,");
    println!("# metrics, spans; target < 5%). {TRACE_REPS} interleaved reps each.");
    tracing_overhead(&sys, &dram, &bundle, &plan, quanta, seed);
}

const CHECKPOINT_REPS: usize = 5;

/// Times the full simulation loop with and without per-quantum durable
/// checkpointing and reports the relative overhead. Also asserts the
/// recovery layer's core invariant: checkpointing must not perturb the
/// simulated results by a single bit.
fn checkpoint_overhead(
    sys: &rebudget_sim::SystemConfig,
    dram: &rebudget_sim::DramConfig,
    bundle: &rebudget_workloads::Bundle,
    plan: &FaultPlan,
    quanta: usize,
    seed: u64,
) {
    let mech = ReBudget::with_step(PAPER_BUDGET, 40.0);
    let opts = SimOptions {
        quanta,
        accesses_per_quantum: 10_000,
        budget: PAPER_BUDGET,
        use_monitors: true,
        seed,
        faults: Some(plan.clone()),
        ..SimOptions::default()
    };
    let dir = std::env::temp_dir().join(format!("rebudget-ckpt-bench-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let recovery = RecoveryOptions {
        checkpoint: Some(dir.join("bench.ckpt")),
        checkpoint_every: 1,
        resume: None,
    };

    let timed = |rec: &RecoveryOptions| {
        let t0 = Instant::now();
        let r = match run_simulation_recoverable(sys, dram, bundle, &mech, &opts, rec) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        (t0.elapsed().as_secs_f64(), r)
    };

    // Interleave the two configurations so machine-load drift hits both
    // equally, then estimate the overhead from the *median of paired
    // differences* over the fastest plain rep — robust against the odd
    // rep that lands on a noisy scheduler interval.
    let plain_opts = RecoveryOptions::default();
    let mut plain_s = f64::INFINITY;
    let mut diffs = Vec::with_capacity(CHECKPOINT_REPS);
    let (mut plain, mut ckpt) = (None, None);
    for _ in 0..CHECKPOINT_REPS {
        let (ps, pr) = timed(&plain_opts);
        let (cs, cr) = timed(&recovery);
        plain_s = plain_s.min(ps);
        diffs.push(cs - ps);
        plain = Some(pr);
        ckpt = Some(cr);
    }
    diffs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let ckpt_s = plain_s + diffs[diffs.len() / 2];
    let (plain, ckpt) = (plain.expect("reps > 0"), ckpt.expect("reps > 0"));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        plain.efficiency.to_bits(),
        ckpt.efficiency.to_bits(),
        "checkpointing must not perturb the simulation"
    );

    let per_quantum = |s: f64| s * 1e3 / quanta as f64;
    let overhead = (ckpt_s - plain_s) / plain_s * 100.0;
    println!(
        "{:<24} {:>12} {:>12}",
        "configuration", "ms/quantum", "overhead"
    );
    println!(
        "{:<24} {:>12.3} {:>12}",
        "no checkpointing",
        per_quantum(plain_s),
        "-"
    );
    println!(
        "{:<24} {:>12.3} {:>11.2}%",
        "snapshot every quantum",
        per_quantum(ckpt_s),
        overhead
    );
    println!(
        "# Verdict: {} (results bit-identical with and without snapshots).",
        if overhead < 5.0 {
            "within the < 5% budget"
        } else {
            "OVER the 5% budget"
        }
    );
}

const TRACE_REPS: usize = 7;

/// Times the simulation loop with telemetry (a) compiled in but disabled
/// — the cost every untraced run pays for the `enabled()` branches — and
/// (b) fully enabled (journal + metrics + spans). Asserts the tracing
/// invariant along the way: the observed run's results are bit-identical
/// to the unobserved one.
fn tracing_overhead(
    sys: &rebudget_sim::SystemConfig,
    dram: &rebudget_sim::DramConfig,
    bundle: &rebudget_workloads::Bundle,
    plan: &FaultPlan,
    quanta: usize,
    seed: u64,
) {
    let mech = ReBudget::with_step(PAPER_BUDGET, 40.0);
    let opts = SimOptions {
        quanta,
        accesses_per_quantum: 10_000,
        budget: PAPER_BUDGET,
        use_monitors: true,
        seed,
        faults: Some(plan.clone()),
        ..SimOptions::default()
    };
    let timed = |traced: bool| {
        if traced {
            rebudget_telemetry::reset();
            rebudget_telemetry::set_enabled(true);
        }
        let t0 = Instant::now();
        let r = run_simulation(sys, dram, bundle, &mech, &opts);
        let s = t0.elapsed().as_secs_f64();
        if traced {
            rebudget_telemetry::set_enabled(false);
        }
        match r {
            Ok(r) => (s, r),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    };

    // Interleaved reps, median of paired differences over the fastest
    // disabled rep — the same drift-resistant protocol as section 3.
    let mut disabled_s = f64::INFINITY;
    let mut diffs = Vec::with_capacity(TRACE_REPS);
    let (mut plain, mut traced) = (None, None);
    for _ in 0..TRACE_REPS {
        let (ds, dr) = timed(false);
        let (ts, tr) = timed(true);
        disabled_s = disabled_s.min(ds);
        diffs.push(ts - ds);
        plain = Some(dr);
        traced = Some(tr);
    }
    diffs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let traced_s = disabled_s + diffs[diffs.len() / 2];
    let (plain, traced) = (plain.expect("reps > 0"), traced.expect("reps > 0"));
    assert_eq!(
        plain.efficiency.to_bits(),
        traced.efficiency.to_bits(),
        "tracing must not perturb the simulation"
    );
    let events = rebudget_telemetry::global().journal.len();

    let per_quantum = |s: f64| s * 1e3 / quanta as f64;
    let overhead = (traced_s - disabled_s) / disabled_s * 100.0;
    println!(
        "{:<24} {:>12} {:>12} {:>10}",
        "configuration", "ms/quantum", "overhead", "events"
    );
    println!(
        "{:<24} {:>12.3} {:>12} {:>10}",
        "telemetry disabled",
        per_quantum(disabled_s),
        "-",
        0
    );
    println!(
        "{:<24} {:>12.3} {:>11.2}% {:>10}",
        "full tracing",
        per_quantum(traced_s),
        overhead,
        events
    );
    // The disabled fast path is one relaxed atomic load + branch. Time it
    // directly, then scale by how often the hot loop consults it (each
    // journal event of the traced run ≈ one guarded site) to bound what
    // compiling telemetry in costs an untraced run.
    let checks: u64 = 100_000_000;
    let t0 = Instant::now();
    let mut live = 0u64;
    for _ in 0..checks {
        live = live.wrapping_add(u64::from(std::hint::black_box(
            rebudget_telemetry::enabled(),
        )));
    }
    let ns_per_check = t0.elapsed().as_secs_f64() * 1e9 / checks as f64;
    std::hint::black_box(live);
    let sites_per_quantum = events as f64 / quanta as f64;
    let disabled_pct = sites_per_quantum * ns_per_check / (per_quantum(disabled_s) * 1e6) * 100.0;
    println!(
        "# Disabled-path cost: {ns_per_check:.2} ns/check × {sites_per_quantum:.0} guarded \
         sites/quantum = {disabled_pct:.4}% of a quantum ({}).",
        if disabled_pct < 1.0 {
            "within the < 1% budget"
        } else {
            "OVER the 1% budget"
        }
    );
    println!(
        "# Verdict: {} (results bit-identical traced vs untraced).",
        if overhead < 5.0 {
            "within the < 5% budget"
        } else {
            "OVER the 5% budget"
        }
    );
}
