//! The scenario library, part of both workloads' traced runs: every
//! shipped scenario under `scenarios/` (not `fixtures/`) through
//! `run_scenario`, properties checked — the paper's own pipeline of
//! simulator quanta, ReBudget rounds, the Jacobi equilibrium and the
//! MaxEfficiency oracle.
//!
//! These are per-layer numbers only. The library is not a workload of
//! its own: every workload must report every end-to-end metric, and the
//! daemon's tick, ack and recovery times have no counterpart here.

use std::path::PathBuf;
use std::time::Instant;

use rebudget_scenario::{run_scenario, Scenario};
use rebudget_telemetry as telemetry;
use rebudget_telemetry::MetricsSnapshot;

use crate::report::{cpu_s, note, CpuClock, Report};
use crate::stats::{best_of, median, self_time};
use crate::{shuffled, Args, Size};

/// Scenario files in load order.
fn library(args: &Args) -> Result<Vec<PathBuf>, String> {
    let dir = args.root.join("scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Untraced, and again traced, passes per full-size run.
const PASSES: usize = 2;

/// Loads and validates every scenario file.
fn load(paths: &[PathBuf]) -> Result<Vec<Scenario>, String> {
    paths
        .iter()
        .map(|p| Scenario::load(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// One pass over the library: per-scenario wall times in ms, and the
/// pass's on-CPU time in seconds (printed as a note).
fn pass(scenarios: &[Scenario], report: &mut Report) -> Result<(Vec<f64>, f64), String> {
    let mut times = Vec::with_capacity(scenarios.len());
    let cpu0 = cpu_s(CpuClock::Process);
    for scenario in scenarios {
        let t0 = Instant::now();
        let outcome = run_scenario(scenario).map_err(|e| format!("{}: {e}", scenario.name))?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        report.op(outcome.passed());
        report.gate(outcome.passed(), || {
            let names: Vec<&str> = outcome
                .violations()
                .iter()
                .map(|r| r.property.as_str())
                .collect();
            format!("scenario {} violated {names:?}", scenario.name)
        });
    }
    Ok((times, cpu_s(CpuClock::Process) - cpu0))
}

/// Per-layer totals (ms, counts) of one traced pass, read from the
/// telemetry registry.
struct Layers {
    quantum_ms: f64,
    rebudget_ms: f64,
    solve_ms: f64,
    oracle_ms: f64,
    quanta: f64,
    rounds: f64,
    iterations: f64,
    oracle_passes: f64,
}

/// Total ms of every span named `leaf`, counting only the outermost one
/// where such spans nest, so no interval is counted twice.
fn span_ms(snap: &MetricsSnapshot, leaf: &str) -> f64 {
    snap.histograms
        .iter()
        .filter_map(|(name, h)| {
            let segments: Vec<&str> = name.strip_prefix("span.")?.split('/').collect();
            let (last, ancestors) = segments.split_last()?;
            (*last == leaf && !ancestors.contains(&leaf)).then_some(h.sum as f64 / 1e6)
        })
        .sum()
}

fn layers(snap: &MetricsSnapshot) -> Layers {
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    Layers {
        quantum_ms: span_ms(snap, "quantum"),
        rebudget_ms: span_ms(snap, "rebudget"),
        solve_ms: span_ms(snap, "solve"),
        oracle_ms: span_ms(snap, "oracle"),
        quanta: counter("sim.quanta"),
        rounds: counter("rebudget.rounds"),
        iterations: counter("solver.iterations"),
        oracle_passes: counter("oracle.passes"),
    }
}

/// Wall time in seconds of one pass at its best: the sum over scenarios
/// of each scenario's fastest time across the passes in `runs` (ms per
/// scenario, one row per pass). The host the benchmark was built on
/// slowed whole passes by up to 40% for seconds at a time; the fastest
/// of a scenario's runs, spread over the whole run, mostly escapes that.
fn best_pass(runs: &[Vec<f64>]) -> f64 {
    best_of(runs).iter().sum::<f64>() / 1e3
}

/// The scenario pipeline's per-layer metrics: untraced passes over the
/// library for the per-scenario times, then as many traced passes for the
/// registry's spans and counters; each pass's scenario order is set by
/// the seed.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    // The scenarios are fixed files; the seed sets the order they run in.
    let sorted = library(args)?;
    report.gate(!sorted.is_empty(), || "no scenarios found".into());
    let paths: Vec<PathBuf> = shuffled(sorted.len(), args.seed)
        .into_iter()
        .map(|k| sorted[k].clone())
        .collect();
    let mut scenarios = load(&paths)?;
    // Smoke size: the three cheapest-looking scenarios by quanta.
    if args.size == Size::Smoke {
        scenarios.sort_by_key(Scenario::total_quanta);
        scenarios.truncate(3);
    }

    let passes = match args.size {
        Size::Full => PASSES,
        Size::Smoke => 1,
    };
    let mut runs: Vec<Vec<f64>> = Vec::new();
    for _ in 0..passes {
        let (times, cpu) = pass(&scenarios, report)?;
        note(&format!(
            "library pass: {:.3} s wall, {cpu:.3} s on CPU",
            times.iter().sum::<f64>() / 1e3
        ));
        runs.push(times);
    }
    let library_s = best_pass(&runs);
    note(&format!(
        "{} scenarios, {passes} passes, best pass {library_s:.4} s",
        scenarios.len()
    ));

    // Traced passes: telemetry on, one registry snapshot per pass.
    let mut traced_runs = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..passes {
        telemetry::reset();
        telemetry::set_enabled(true);
        let (times, _) = pass(&scenarios, report)?;
        telemetry::set_enabled(false);
        let snap = telemetry::global().registry.snapshot();
        traced.push((layers(&snap), times.iter().sum()));
        traced_runs.push(times);
    }
    telemetry::reset();

    let per_scenario: Vec<f64> = (0..scenarios.len())
        .map(|k| median(&runs.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .collect();
    for (s, ms) in scenarios.iter().zip(&per_scenario) {
        note(&format!("scenario.run_ms {:<28} {ms:.2}", s.name));
    }
    let med = |f: &dyn Fn(&Layers, f64) -> f64| {
        median(
            &traced
                .iter()
                .map(|(l, total)| f(l, *total))
                .collect::<Vec<_>>(),
        )
    };
    report.metric("scenario.run_ms", median(&per_scenario), "ms");
    report.metric(
        "scenario.run_max_ms",
        per_scenario.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    report.metric("sim.quantum_ms", med(&|l, _| l.quantum_ms), "ms");
    report.metric("sim.quanta", med(&|l, _| l.quanta), "count");
    report.metric("core.rebudget_ms", med(&|l, _| l.rebudget_ms), "ms");
    report.metric("rebudget.rounds", med(&|l, _| l.rounds), "count");
    report.metric("market.solve_ms", med(&|l, _| l.solve_ms), "ms");
    report.metric("market.iterations", med(&|l, _| l.iterations), "count");
    report.metric("market.oracle_ms", med(&|l, _| l.oracle_ms), "ms");
    report.metric("oracle.passes", med(&|l, _| l.oracle_passes), "count");
    report.metric(
        "scenario.self_ms",
        med(&|l, total| self_time(total, &[l.quantum_ms])),
        "ms",
    );
    report.metric(
        "trace.overhead_library",
        best_pass(&traced_runs) / library_s,
        "ratio",
    );
    Ok(())
}
