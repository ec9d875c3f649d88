#![warn(missing_docs)]

//! Argument handling and command implementations for the `rebudget` CLI.
//!
//! The binary (`src/main.rs`) is a thin shell over [`run`], so everything
//! is unit-testable. Subcommands:
//!
//! ```text
//! rebudget apps                          list the 24 application models
//! rebudget workloads <CATEGORY> <CORES>  print generated bundles
//! rebudget solve <CATEGORY|bbpc> <CORES> [MECHANISM] [STEP]
//! rebudget sweep <CATEGORY|bbpc> <CORES> sweep the ReBudget step knob
//! rebudget simulate <CATEGORY|bbpc> <CORES> [QUANTA]
//! rebudget synth <PLAYERS> <RESOURCES>   solve a synthetic sparse market
//! rebudget theory <MUR> <MBR>            evaluate the Theorem 1/2 bounds
//! rebudget scenario <list|check|run|audit> declarative adversarial scenarios
//! rebudget serve --state-dir=DIR ...     run the online market daemon
//! ```
//!
//! [`run`] dispatches on the first argument to one function per
//! subcommand, which pulls out only the flags it reads.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use rebudget_apps::classify::{sensitivity, Envelope};
use rebudget_apps::perf::PerfEnv;
use rebudget_apps::spec::all_apps;
use rebudget_core::mechanisms::{by_name, Mechanism};
use rebudget_core::sweep::{sweep_oracle, sweep_point, sweep_steps, SweepPoint};
use rebudget_core::theory::{ef_lower_bound, poa_lower_bound};
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{
    DeadlineBudget, FaultPlan, Market, ParallelPolicy, RetryPolicy, SolverKind, SparseUtilityKind,
    SynthSpec,
};
use rebudget_scenario::{run_scenario, Scenario, ScenarioError};
use rebudget_sim::analytic::build_market;
use rebudget_sim::checkpoint::{open_log, write_point, SweepCheckpoint, SweepMeta, SWEEP_LOG};
use rebudget_sim::durable::{self, fnv1a};
use rebudget_sim::{
    run_simulation_recoverable, system_for, RecoveryOptions, SimOptions, SimResult,
};
use rebudget_telemetry as telemetry;
use rebudget_workloads::{bundle_by_name, generate_bundle, Bundle, Category};

pub mod exit;

pub use exit::{EXIT_CHECKPOINT, EXIT_PROPERTY, EXIT_SERVER, EXIT_USAGE};

/// CLI-level error: a message for the user plus the exit code.
#[derive(Debug)]
pub struct CliError {
    /// Message printed to stderr.
    pub message: String,
    /// Process exit code ([`EXIT_USAGE`] or [`EXIT_CHECKPOINT`]).
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: EXIT_USAGE,
    }
}

fn checkpoint_err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: EXIT_CHECKPOINT,
    }
}

fn property_err(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: EXIT_PROPERTY,
    }
}

fn server_err(e: &rebudget_server::ServerError) -> CliError {
    match e {
        // A bad serve configuration is a usage slip, not a daemon fault.
        rebudget_server::ServerError::Config { reason } => err(reason.clone()),
        other => CliError {
            message: other.to_string(),
            code: EXIT_SERVER,
        },
    }
}

/// Usage text.
pub const USAGE: &str = "\
rebudget — market-based multicore resource allocation (ReBudget, ASPLOS'16)

USAGE:
    rebudget apps
    rebudget workloads <CATEGORY> <CORES> [SEED]
    rebudget solve <CATEGORY|bbpc> <CORES> [MECHANISM] [STEP] [--solver=NAME]
                   [--deadline-ms=N] [--solve-iters=N] [--retries=N]
    rebudget sweep <CATEGORY|bbpc> <CORES> [--checkpoint=PATH] [--resume=PATH]
    rebudget simulate <CATEGORY|bbpc> <CORES> [QUANTA] [--seed=N] [--faults=SPEC]
                      [--mechanism=NAME] [--checkpoint=PATH] [--resume=PATH]
                      [--solver=NAME] [--deadline-ms=N] [--solve-iters=N]
                      [--retries=N]
    rebudget synth <PLAYERS> <RESOURCES> [--seed=N] [--tol=X] [--leontief]
                   [--solver=NAME] [--deadline-ms=N] [--solve-iters=N]
    rebudget theory <MUR> <MBR>
    rebudget scenario list <DIR|FILE>...
    rebudget scenario check <DIR|FILE>...
    rebudget scenario run <DIR|FILE>... [--ledger=DIR]
    rebudget scenario audit <LEDGER>...
    rebudget serve (--socket=PATH | --tcp=ADDR) --state-dir=DIR
                   [--resources=N] [--capacity=X] [--solver=NAME] [--seed=N]
                   [--tick-ms=N] [--max-ticks=N] [--queue-cap=N] [--frame-cap=N]
                   [--read-timeout-ms=N] [--fallback-after=K] [--commit-delay-ms=N]
                   [--tol=X] [--deadline-ms=N] [--solve-iters=N] [--retries=N]

CATEGORY:   CPBN | CCPP | CPBB | BBNN | BBPN | BBCN (case-insensitive)
MECHANISM:  equalshare | equalbudget | balanced | rebudget | maxefficiency
            (case-insensitive)
STEP:       ReBudget's first-round budget cut (default 20); a positive,
            finite number, or a usage error
SOLVER:     solve, simulate, synth and serve accept --solver=NAME selecting
            the equilibrium engine: jacobi (dense best-response, the
            paper's engine, the default), propresp (first-order
            proportional response), mirror (first-order entropic mirror
            descent). synth and serve are sparse-only: they default to
            propresp and reject jacobi.
FAULTS:     comma-separated spec injecting telemetry/solver faults, e.g.
            --faults=noise=0.1,drop=0.05,liars=2 — keys: noise, spike,
            spike-mag, stale, stale-depth, drop, nan, liars, liar-factor,
            seed (defaults to --seed)
RECOVERY:   --checkpoint appends every quantum (sweep: every point) to a
            hash-chained log; --resume replays the log's valid records and
            continues, after a torn or damaged tail too, appending to the
            resumed log unless --checkpoint names another. simulate logs
            cover one mechanism, so --checkpoint/--resume require
            --mechanism.
DEADLINES:  --solve-iters bounds each equilibrium solve's iterations,
            --deadline-ms bounds its wall-clock time (non-deterministic;
            prefer --solve-iters for reproducible runs), --retries enables
            a bounded retry ladder for failed or timed-out solves.
SCENARIOS:  TOML files declaring phases, triggered adversarial events,
            and properties to verify (Theorem-1/2 floors, convergence,
            no-NaN, ledger replay, resume identity). `list` summarises,
            `check` parses and validates without running, `run` executes
            against the real simulation loop (writing a hash-chained
            allocation ledger per scenario with --ledger=DIR) and exits 4
            naming each violated property, `audit` re-verifies a ledger
            file's hash chain and seal.
SERVER:     `serve` runs the fault-tolerant online market daemon:
            newline-delimited JSON requests (arrive | update | depart |
            tick | stats | shutdown) over a Unix socket (--socket) or TCP
            (--tcp). Mutations are admission-batched behind a bounded
            queue (--queue-cap, overflow is shed) and applied at ticks —
            explicit `tick` commands by default, or every --tick-ms.
            Each tick re-solves the market warm-started from the previous
            quantum and commits a hash-chained ledger plus a snapshot in
            one of two slots under --state-dir, so `kill -9` at any
            point resumes byte-identically. After --fallback-after
            consecutive failed solves the daemon degrades to EqualShare
            until one converges.
            `scenario audit` verifies the sealed ledger. Exit code 5 for
            daemon failures.
OBSERVING:  every subcommand also accepts --trace=PATH (write a JSONL
            event journal, each event as it happens, without touching
            stdout; a killed run keeps its trace),
            --metrics (append a counters/gauges/histograms section), and
            --profile (append per-span wall-clock timings). Tracing never
            changes allocations: a traced run is bit-identical to an
            untraced one. Any other flag a subcommand does not read is a
            usage error.
";

/// The mechanism `name` names, in any letter case, with budget 100 (see
/// [`by_name`]).
fn mechanism(
    name: &str,
    step: Option<f64>,
    options: &EquilibriumOptions,
    retry: Option<RetryPolicy>,
) -> Result<Box<dyn Mechanism>, CliError> {
    by_name(&name.to_ascii_lowercase(), 100.0, step, options, retry).map_err(err)
}

/// The bundle for `category` (seed 1) and its market on a `cores`-core
/// system.
fn bundle_market(category: &str, cores: usize) -> Result<(Bundle, Market), CliError> {
    let bundle = bundle_by_name(category, cores, 1).map_err(|e| err(e.to_string()))?;
    let (sys, dram) = system_for(cores);
    let market = build_market(&bundle, &sys, &dram, 100.0).map_err(|e| err(e.to_string()))?;
    Ok((bundle, market))
}

fn parse<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse().map_err(|_| err(format!("invalid {what}: '{s}'")))
}

/// Parses the positional argument at `index`; a missing one is a usage
/// error.
fn positional<T: std::str::FromStr>(
    args: &[String],
    index: usize,
    what: &str,
) -> Result<T, CliError> {
    parse(args.get(index).ok_or_else(|| err(USAGE))?, what)
}

/// Removes a bare boolean `--name` switch from `args`; true if present.
fn extract_switch(args: &mut Vec<String>, name: &str) -> bool {
    let bare = format!("--{name}");
    let before = args.len();
    args.retain(|a| *a != bare);
    args.len() != before
}

/// Removes `--name=value` (or `--name value`) from `args`, returning the
/// value if the flag was present.
fn extract_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, CliError> {
    let prefix = format!("--{name}=");
    let bare = format!("--{name}");
    for i in 0..args.len() {
        if let Some(v) = args[i].strip_prefix(&prefix) {
            let v = v.to_string();
            args.remove(i);
            return Ok(Some(v));
        }
        if args[i] == bare {
            if i + 1 >= args.len() {
                return Err(err(format!("--{name} requires a value")));
            }
            let v = args.remove(i + 1);
            args.remove(i);
            return Ok(Some(v));
        }
    }
    Ok(None)
}

/// Removes `--name` from `args` like [`extract_flag`] and parses its value
/// as `what`.
fn flag<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
    what: &str,
) -> Result<Option<T>, CliError> {
    extract_flag(args, name)?
        .map(|s| parse(&s, what))
        .transpose()
}

/// Rejects the first `--flag` left in `args`: one `command` does not read.
fn reject_unread_flags(command: &str, args: &[String]) -> Result<(), CliError> {
    match args.iter().find(|a| a.starts_with("--")) {
        Some(flag) => Err(err(format!("unexpected {command} argument '{flag}'"))),
        None => Ok(()),
    }
}

/// Removes the solver flags from `args` and applies them to `base`:
/// `--deadline-ms`, `--solve-iters` and `--solver` (`base`'s if absent).
/// Only if `retries`, `--retries` gives the returned retry ladder.
fn solver_knobs(
    args: &mut Vec<String>,
    mut base: EquilibriumOptions,
    retries: bool,
) -> Result<(EquilibriumOptions, Option<RetryPolicy>), CliError> {
    let deadline_ms: Option<u64> = flag(args, "deadline-ms", "deadline (ms)")?;
    let solve_iters: Option<usize> = flag(args, "solve-iters", "solve iteration budget")?;
    let retries: Option<usize> = if retries {
        flag(args, "retries", "retry count")?
    } else {
        None
    };
    if let Some(name) = extract_flag(args, "solver")? {
        base.solver = SolverKind::parse(&name).ok_or_else(|| {
            err(format!(
                "unknown solver '{name}' (expected jacobi | propresp | mirror)"
            ))
        })?;
    }
    // `checked` rejects zero budgets (they admit no work) as a usage
    // error before any solve runs.
    base.deadline =
        DeadlineBudget::checked(deadline_ms, solve_iters).map_err(|e| err(e.to_string()))?;
    let retry = retries.map(|n| RetryPolicy::with_attempts(n.saturating_add(1)));
    Ok((base, retry))
}

/// Removes `--tol` from `args`; it must be a positive number.
fn tolerance(args: &mut Vec<String>) -> Result<Option<f64>, CliError> {
    let tol: Option<f64> = flag(args, "tol", "tolerance")?;
    if tol.is_some_and(|t| !(t.is_finite() && t > 0.0)) {
        return Err(err("--tol must be a positive number"));
    }
    Ok(tol)
}

/// Expands scenario arguments: a directory contributes every `*.toml`
/// directly inside it (sorted by name, so CI matrices are order-stable);
/// a file contributes itself.
fn scenario_paths(args: &[String]) -> Result<Vec<PathBuf>, CliError> {
    let mut paths = Vec::new();
    for arg in args {
        let p = PathBuf::from(arg);
        if p.is_dir() {
            let entries =
                std::fs::read_dir(&p).map_err(|e| err(format!("cannot read '{arg}': {e}")))?;
            let mut found = Vec::new();
            for entry in entries {
                let path = entry
                    .map_err(|e| err(format!("cannot read '{arg}': {e}")))?
                    .path();
                if path.is_file() && path.extension().is_some_and(|x| x == "toml") {
                    found.push(path);
                }
            }
            if found.is_empty() {
                return Err(err(format!("no .toml scenarios in '{arg}'")));
            }
            found.sort();
            paths.extend(found);
        } else if p.is_file() {
            paths.push(p);
        } else {
            return Err(err(format!("no such scenario file or directory: '{arg}'")));
        }
    }
    if paths.is_empty() {
        return Err(err(
            "scenario subcommands need at least one file or directory",
        ));
    }
    Ok(paths)
}

fn load_scenario(path: &Path) -> Result<Scenario, CliError> {
    Scenario::load(path).map_err(|e| scenario_err(path, &e))
}

fn scenario_err(path: &Path, e: &ScenarioError) -> CliError {
    let message = format!("{}: {e}", path.display());
    match e {
        // A bad ledger is an integrity violation, not a usage slip.
        ScenarioError::Ledger { .. } => property_err(message),
        _ => err(message),
    }
}

fn sim_err(e: &rebudget_sim::simulation::SimError) -> CliError {
    match e {
        rebudget_sim::simulation::SimError::Checkpoint(c) => checkpoint_err(c.to_string()),
        other => err(other.to_string()),
    }
}

/// FNV-1a fingerprint over the bit patterns of a run's final metrics.
/// Two runs fingerprint identically iff their efficiency, envy-freeness,
/// per-core utilities, and full efficiency trajectory are bit-identical —
/// the CI interrupt/resume job diffs this line.
fn result_fingerprint(r: &SimResult) -> u64 {
    let mut bytes = Vec::with_capacity(16 + 8 * (r.utilities.len() + r.efficiency_history.len()));
    bytes.extend_from_slice(&r.efficiency.to_bits().to_be_bytes());
    bytes.extend_from_slice(&r.envy_freeness.to_bits().to_be_bytes());
    for u in &r.utilities {
        bytes.extend_from_slice(&u.to_bits().to_be_bytes());
    }
    for e in &r.efficiency_history {
        bytes.extend_from_slice(&e.to_bits().to_be_bytes());
    }
    fnv1a(&bytes)
}

/// Runs the CLI with `args` (excluding the program name); returns the
/// text to print on stdout.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message for bad input.
pub fn run(args: &[String]) -> Result<String, CliError> {
    run_with_notes(args).map(|(out, _)| out)
}

/// Like [`run`], additionally returning progress/resume notes that the
/// binary prints to **stderr** — keeping stdout byte-stable so a resumed
/// run can be diffed against an uninterrupted reference.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message for bad input.
pub fn run_with_notes(args: &[String]) -> Result<(String, Vec<String>), CliError> {
    let mut notes = Vec::new();
    let out = run_inner(args, &mut notes)?;
    Ok((out, notes))
}

fn run_inner(args: &[String], notes: &mut Vec<String>) -> Result<String, CliError> {
    let mut args = args.to_vec();
    let trace: Option<PathBuf> = extract_flag(&mut args, "trace")?.map(PathBuf::from);
    let metrics = extract_switch(&mut args, "metrics");
    let profile = extract_switch(&mut args, "profile");
    let observing = trace.is_some() || metrics || profile;
    let trace_err = |e: std::io::Error| {
        let path = trace.as_deref().unwrap_or(Path::new(""));
        err(format!("cannot write trace to '{}': {e}", path.display()))
    };
    if observing {
        telemetry::reset();
        if let Some(path) = &trace {
            telemetry::global().journal.open(path).map_err(trace_err)?;
        }
        telemetry::set_enabled(true);
        telemetry::record(
            telemetry::Event::new("trace_meta")
                .field_u64("version", telemetry::journal::TRACE_VERSION)
                .field_str("command", &args.join(" ")),
        );
    }
    let result = dispatch(&args, notes);
    let traced = if observing {
        telemetry::set_enabled(false);
        telemetry::global().journal.finish().map_err(trace_err)
    } else {
        Ok(())
    };
    let mut out = result?;
    traced?;
    if metrics {
        out.push_str(
            "
metrics:
",
        );
        for line in telemetry::global()
            .registry
            .snapshot()
            .render_table()
            .lines()
        {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
    }
    if profile {
        let snap = telemetry::global().registry.snapshot();
        out.push_str(
            "
profile (wall-clock per span):
",
        );
        let mut any = false;
        for (name, h) in &snap.histograms {
            if let Some(path) = name.strip_prefix("span.") {
                any = true;
                out.push_str(&format!(
                    "  {path:<40} n={:<6} mean={:.3}ms max≈{:.3}ms
",
                    h.count,
                    h.mean() / 1e6,
                    h.max_bucket_floor() as f64 / 1e6,
                ));
            }
        }
        if !any {
            out.push_str(
                "  (no spans recorded)
",
            );
        }
    }
    Ok(out)
}

fn dispatch(args: &[String], notes: &mut Vec<String>) -> Result<String, CliError> {
    let rest = args.get(1..).unwrap_or_default().to_vec();
    match args.first().map(String::as_str) {
        Some("apps") => apps(&rest),
        Some("workloads") => workloads(&rest),
        Some("solve") => solve(rest),
        Some("sweep") => sweep(rest, notes),
        Some("simulate") => simulate(rest, notes),
        Some("synth") => synth(rest, notes),
        Some("theory") => theory(&rest),
        Some("scenario") => scenario(rest),
        Some("serve") => serve(rest),
        Some("help" | "--help" | "-h") | None => Ok(USAGE.to_string()),
        Some(other) => Err(err(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}

fn apps(args: &[String]) -> Result<String, CliError> {
    reject_unread_flags("apps", args)?;
    let mut out = String::new();
    writeln!(
        out,
        "{:<12} {:<14} {:<6} {:>10} {:>11} {:>9}",
        "name", "suite", "class", "cache-gain", "power-gain", "activity"
    )
    .expect("writing to String cannot fail");
    for app in all_apps() {
        let s = sensitivity(app, &PerfEnv::paper(), &Envelope::paper());
        writeln!(
            out,
            "{:<12} {:<14} {:<6} {:>10.3} {:>11.3} {:>9.2}",
            app.name,
            format!("{:?}", app.suite),
            app.class.letter(),
            s.cache_gain,
            s.power_gain,
            app.activity
        )
        .expect("writing to String cannot fail");
    }
    Ok(out)
}

fn workloads(args: &[String]) -> Result<String, CliError> {
    reject_unread_flags("workloads", args)?;
    let category = args.first().ok_or_else(|| err(USAGE))?;
    let cores: usize = positional(args, 1, "core count")?;
    let seed: u64 = args
        .get(2)
        .map(|s| parse(s, "seed"))
        .transpose()?
        .unwrap_or(1);
    let cat = Category::from_name(category)
        .ok_or_else(|| err(format!("unknown category '{category}'")))?;
    let mut out = String::new();
    for index in 0..5 {
        let b = generate_bundle(cat, cores, index, seed).map_err(|e| err(e.to_string()))?;
        writeln!(out, "{}: {}", b.label(), b.app_names().join(" "))
            .expect("writing to String cannot fail");
    }
    Ok(out)
}

fn solve(mut args: Vec<String>) -> Result<String, CliError> {
    let (options, retry) = solver_knobs(&mut args, EquilibriumOptions::default(), true)?;
    reject_unread_flags("solve", &args)?;
    let category = args.first().ok_or_else(|| err(USAGE))?;
    let cores: usize = positional(&args, 1, "core count")?;
    let step: Option<f64> = args.get(3).map(|s| parse(s, "step")).transpose()?;
    let name = args.get(2).map_or("rebudget", String::as_str);
    let mech = mechanism(name, step, &options, retry)?;
    let (bundle, market) = bundle_market(category, cores)?;
    let o = mech.allocate(&market).map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    writeln!(out, "bundle      {}", bundle.label()).expect("infallible");
    writeln!(out, "mechanism   {}", o.mechanism).expect("infallible");
    writeln!(
        out,
        "efficiency  {:.4} (weighted speedup, max {})",
        o.efficiency, cores
    )
    .expect("infallible");
    writeln!(out, "envy-free   {:.4}", o.envy_freeness).expect("infallible");
    if let (Some(mur), Some(mbr)) = (o.mur, o.mbr) {
        writeln!(
            out,
            "MUR         {mur:.4}  (PoA floor {:.4})",
            poa_lower_bound(mur)
        )
        .expect("infallible");
        writeln!(
            out,
            "MBR         {mbr:.4}  (EF floor {:.4})",
            ef_lower_bound(mbr)
        )
        .expect("infallible");
        writeln!(
            out,
            "rounds      {} ({} iterations)",
            o.solve.rounds, o.solve.iterations
        )
        .expect("infallible");
    }
    Ok(out)
}

fn sweep(mut args: Vec<String>, notes: &mut Vec<String>) -> Result<String, CliError> {
    let checkpoint: Option<PathBuf> = extract_flag(&mut args, "checkpoint")?.map(PathBuf::from);
    let resume: Option<PathBuf> = extract_flag(&mut args, "resume")?.map(PathBuf::from);
    reject_unread_flags("sweep", &args)?;
    let category = args.first().ok_or_else(|| err(USAGE))?;
    let cores: usize = positional(&args, 1, "core count")?;
    if cores == 0 {
        return Err(err("core count must be at least 1"));
    }
    let (_, market) = bundle_market(category, cores)?;
    let steps = [0.0, 5.0, 10.0, 20.0, 40.0, 80.0];
    let pts: Vec<SweepPoint> = if let Some(path) = checkpoint.as_ref().or(resume.as_ref()) {
        // Durable sweep: one log record per completed point, so a killed
        // sweep resumes at the point boundary. Per-point values are a
        // pure function of the inputs, so reused and recomputed points
        // are bit-identical.
        let meta = SweepMeta {
            category: category.to_ascii_lowercase(),
            cores,
            base_budget: 100.0,
            normalize: true,
            steps: steps.to_vec(),
        };
        let ckpt = |e: &dyn std::fmt::Display| checkpoint_err(e.to_string());
        let (mut oracle, mut pts, mut resumed) = (None, Vec::new(), None);
        if let Some(from) = &resume {
            let cp = SweepCheckpoint::load(from).map_err(|e| ckpt(&e))?;
            meta.ensure_matches(&cp.meta).map_err(|e| ckpt(&e))?;
            notes.push(format!(
                "resumed sweep: {} of {} points reused from the checkpoint",
                cp.points.len(),
                steps.len()
            ));
            (oracle, pts, resumed) = (cp.oracle, cp.points, Some((from.as_path(), cp.prefix)));
        }
        let from = resumed
            .as_ref()
            .map(|(from, prefix)| (*from, prefix, pts.len()));
        let mut log = open_log(path, SWEEP_LOG, from, |w| meta.render(w)).map_err(|e| ckpt(&e))?;
        let oracle = match oracle {
            Some(oracle) => oracle,
            None => sweep_oracle(&market, ParallelPolicy::Auto).map_err(|e| err(e.to_string()))?,
        };
        for (k, &step) in steps.iter().enumerate() {
            if k == pts.len() {
                let p = sweep_point(&market, 100.0, step, Some(oracle), ParallelPolicy::Auto)
                    .map_err(|e| err(e.to_string()))?;
                pts.push(p);
            }
            if k >= log.records() {
                log.append(k, |w| write_point(w, oracle, &pts[k]))
                    .map_err(|e| ckpt(&e))?;
            }
        }
        pts
    } else {
        sweep_steps(&market, 100.0, &steps, true).map_err(|e| err(e.to_string()))?
    };
    let mut out = String::new();
    writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>8} {:>8} {:>10} {:>5} {:>6} {:>6} {:>4} {:>6} {:>4}",
        "step",
        "eff/OPT",
        "envy-free",
        "MUR",
        "MBR",
        "EF-floor",
        "conv",
        "rounds",
        "iters",
        "rec",
        "retry",
        "t/o"
    )
    .expect("infallible");
    for p in pts {
        writeln!(
            out,
            "{:>6.0} {:>10.3} {:>10.3} {:>8.3} {:>8.3} {:>10.3} {:>5} {:>6} {:>6} {:>4} {:>6} {:>4}",
            p.step,
            p.normalized_efficiency.unwrap_or(f64::NAN),
            p.envy_freeness,
            p.mur,
            p.mbr,
            p.ef_floor,
            if p.solve.converged { "yes" } else { "NO" },
            p.solve.rounds,
            p.solve.iterations,
            p.solve.recoveries,
            p.solve.retries,
            p.solve.timed_out
        )
        .expect("infallible");
    }
    Ok(out)
}

fn simulate(mut args: Vec<String>, notes: &mut Vec<String>) -> Result<String, CliError> {
    let seed: Option<u64> = flag(&mut args, "seed", "seed")?;
    let mechanism_flag: Option<String> = extract_flag(&mut args, "mechanism")?;
    let checkpoint: Option<PathBuf> = extract_flag(&mut args, "checkpoint")?.map(PathBuf::from);
    let resume: Option<PathBuf> = extract_flag(&mut args, "resume")?.map(PathBuf::from);
    let (options, retry) = solver_knobs(&mut args, EquilibriumOptions::default(), true)?;
    let faults: Option<FaultPlan> = match extract_flag(&mut args, "faults")? {
        Some(spec) => {
            let plan = FaultPlan::parse(&spec)
                .map_err(|e| err(format!("invalid --faults spec {spec:?}: {e}")))?;
            // --seed doubles as the fault seed unless the spec pins one.
            let plan = match seed {
                Some(n) if !spec.contains("seed=") => plan.with_seed(n),
                _ => plan,
            };
            Some(plan)
        }
        None => None,
    };
    reject_unread_flags("simulate", &args)?;
    let category = args.first().ok_or_else(|| err(USAGE))?;
    let cores: usize = positional(&args, 1, "core count")?;
    if cores == 0 {
        return Err(err("core count must be at least 1"));
    }
    let quanta: usize = args
        .get(2)
        .map(|s| parse(s, "quanta"))
        .transpose()?
        .unwrap_or(5);
    if quanta == 0 {
        return Err(err("quanta must be at least 1"));
    }
    let bundle = bundle_by_name(category, cores, 1).map_err(|e| err(e.to_string()))?;
    let (sys, dram) = system_for(cores);
    let injecting = faults.as_ref().is_some_and(FaultPlan::is_active);
    let opts = SimOptions {
        quanta,
        accesses_per_quantum: 10_000,
        budget: 100.0,
        use_monitors: true,
        seed: seed.unwrap_or(1),
        faults,
        ..SimOptions::default()
    };
    if (checkpoint.is_some() || resume.is_some()) && mechanism_flag.is_none() {
        return Err(err(
            "--checkpoint/--resume snapshot a single mechanism's run; \
             pick one with --mechanism",
        ));
    }
    // A resumed run logs into the file it resumed unless told otherwise,
    // as `sweep` does, so a second kill loses nothing the first resume
    // ran.
    let recovery = RecoveryOptions {
        checkpoint: checkpoint.or_else(|| resume.clone()),
        resume,
    };
    let bounded = options.deadline.is_bounded() || retry.is_some();
    let mech_names: Vec<&str> = match &mechanism_flag {
        Some(name) => vec![name.as_str()],
        None => vec!["equalshare", "equalbudget", "rebudget", "maxefficiency"],
    };
    let mut out = String::new();
    write!(
        out,
        "{:<14} {:>14} {:>10}",
        "mechanism", "weighted-speedup", "envy-free"
    )
    .expect("infallible");
    if injecting {
        write!(
            out,
            " {:>9} {:>9} {:>10}",
            "degraded", "fallback", "recoveries"
        )
        .expect("infallible");
    }
    if bounded {
        write!(out, " {:>7} {:>8}", "retries", "timeouts").expect("infallible");
    }
    writeln!(out).expect("infallible");
    let mut fingerprint = None;
    for mech_name in &mech_names {
        let mech = mechanism(mech_name, Some(40.0), &options, retry)?;
        let r = run_simulation_recoverable(&sys, &dram, &bundle, mech.as_ref(), &opts, &recovery)
            .map_err(|e| sim_err(&e))?;
        if r.replayed_quanta > 0 {
            notes.push(format!(
                "{}: resumed — replayed {} of {} quanta from the checkpoint",
                r.mechanism, r.replayed_quanta, quanta
            ));
        }
        write!(
            out,
            "{:<14} {:>14.3} {:>10.3}",
            r.mechanism, r.efficiency, r.envy_freeness
        )
        .expect("infallible");
        if injecting {
            write!(
                out,
                " {:>9} {:>9} {:>10}",
                r.degraded_quanta, r.fallback_quanta, r.solve.recoveries
            )
            .expect("infallible");
        }
        if bounded {
            write!(out, " {:>7} {:>8}", r.solve.retries, r.solve.timed_out).expect("infallible");
        }
        writeln!(out).expect("infallible");
        fingerprint = Some(result_fingerprint(&r));
    }
    if mech_names.len() == 1 {
        if let Some(fp) = fingerprint {
            // Bit-exact digest of the run's final state; identical
            // between an uninterrupted run and a killed-and-resumed
            // one. CI diffs this line.
            writeln!(out, "fingerprint {fp:016x}").expect("infallible");
        }
    }
    Ok(out)
}

fn synth(mut args: Vec<String>, notes: &mut Vec<String>) -> Result<String, CliError> {
    let seed: Option<u64> = flag(&mut args, "seed", "seed")?;
    let leontief = extract_switch(&mut args, "leontief");
    let tol = tolerance(&mut args)?;
    // Sparse-only path: the dense Jacobi engine would need an n×m bid
    // matrix, which defeats the point at 10⁶ players. Nor is there a
    // retry ladder around the single solve.
    let (mut opts, _) = solver_knobs(&mut args, EquilibriumOptions::large_scale(), false)?;
    reject_unread_flags("synth", &args)?;
    let players: usize = positional(&args, 0, "player count")?;
    let resources: usize = positional(&args, 1, "resource count")?;
    if players == 0 || resources == 0 {
        return Err(err("player and resource counts must be at least 1"));
    }
    if opts.solver == SolverKind::Jacobi {
        return Err(err(
            "synth markets are sparse; pick --solver=propresp or --solver=mirror",
        ));
    }
    let mut spec = SynthSpec::new(players, resources, seed.unwrap_or(1));
    if leontief {
        spec.kind = SparseUtilityKind::Leontief;
    }
    let market = spec.generate().map_err(|e| err(e.to_string()))?;
    if let Some(t) = tol {
        opts.price_tolerance = t;
    }
    let started = std::time::Instant::now();
    let o = market.solve(&opts).map_err(|e| err(e.to_string()))?;
    // Wall-clock goes to stderr: stdout stays byte-stable across
    // machines (and across --trace on/off).
    notes.push(format!(
        "solved in {:.3}s ({} iterations)",
        started.elapsed().as_secs_f64(),
        o.iterations
    ));
    let mut out = String::new();
    writeln!(out, "players     {players}").expect("infallible");
    writeln!(out, "resources   {resources}").expect("infallible");
    writeln!(out, "nnz         {}", market.nnz()).expect("infallible");
    writeln!(out, "kind        {}", market.kind().label()).expect("infallible");
    writeln!(out, "solver      {}", opts.solver.label()).expect("infallible");
    writeln!(out, "iterations  {}", o.iterations).expect("infallible");
    writeln!(
        out,
        "converged   {}",
        if o.converged() { "yes" } else { "NO" }
    )
    .expect("infallible");
    writeln!(out, "residual    {:.3e}", o.report.residual).expect("infallible");
    writeln!(out, "efficiency  {:.4}", o.efficiency()).expect("infallible");
    Ok(out)
}

fn theory(args: &[String]) -> Result<String, CliError> {
    reject_unread_flags("theory", args)?;
    let mur: f64 = positional(args, 0, "MUR")?;
    let mbr: f64 = positional(args, 1, "MBR")?;
    let mut out = String::new();
    writeln!(
        out,
        "PoA >= {:.4}  (Theorem 1 at MUR {mur:.3})",
        poa_lower_bound(mur)
    )
    .expect("infallible");
    writeln!(
        out,
        "EF  >= {:.4}  (Theorem 2 at MBR {mbr:.3})",
        ef_lower_bound(mbr)
    )
    .expect("infallible");
    Ok(out)
}

fn scenario(mut args: Vec<String>) -> Result<String, CliError> {
    let sub = args.first().cloned().ok_or_else(|| err(USAGE))?;
    let ledger_dir: Option<PathBuf> = match sub.as_str() {
        "run" => extract_flag(&mut args, "ledger")?.map(PathBuf::from),
        "list" | "check" | "audit" => None,
        other => {
            return Err(err(format!(
                "unknown scenario subcommand '{other}' (list | check | run | audit)"
            )))
        }
    };
    reject_unread_flags(&format!("scenario {sub}"), &args)?;
    let rest = &args[1..];
    let mut out = String::new();
    match sub.as_str() {
        "list" => {
            let paths = scenario_paths(rest)?;
            writeln!(
                out,
                "{:<28} {:<9} {:<14} {:>5} {:>7} {:>6} {:>10}",
                "scenario", "workload", "mechanism", "cores", "quanta", "events", "properties"
            )
            .expect("infallible");
            for path in &paths {
                let s = load_scenario(path)?;
                writeln!(
                    out,
                    "{:<28} {:<9} {:<14} {:>5} {:>7} {:>6} {:>10}",
                    s.name,
                    s.workload,
                    s.mechanism,
                    s.cores,
                    s.total_quanta(),
                    s.events.len(),
                    s.properties.len()
                )
                .expect("infallible");
            }
        }
        "check" => {
            let paths = scenario_paths(rest)?;
            for path in &paths {
                let s = load_scenario(path)?;
                writeln!(out, "ok {:<28} {}", s.name, path.display()).expect("infallible");
            }
            writeln!(out, "{} scenario(s) valid", paths.len()).expect("infallible");
        }
        "run" => return scenario_run(rest, ledger_dir.as_deref()),
        _ => {
            if rest.is_empty() {
                return Err(err("scenario audit needs at least one ledger file"));
            }
            for arg in rest {
                let text = std::fs::read_to_string(arg)
                    .map_err(|e| err(format!("cannot read '{arg}': {e}")))?;
                let summary = rebudget_scenario::ledger::verify(&text)
                    .map_err(|e| property_err(format!("{arg}: {e}")))?;
                writeln!(
                    out,
                    "ok {:<28} {} record(s), fnv1a {:016x}",
                    summary.scenario, summary.records, summary.fnv1a
                )
                .expect("infallible");
            }
        }
    }
    Ok(out)
}

fn scenario_run(args: &[String], ledger_dir: Option<&Path>) -> Result<String, CliError> {
    let paths = scenario_paths(args)?;
    let mut violations: Vec<String> = Vec::new();
    let mut out = String::new();
    writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>6} {:>10}",
        "scenario", "efficiency", "envy-free", "events", "properties"
    )
    .expect("infallible");
    for path in &paths {
        let s = load_scenario(path)?;
        let outcome = run_scenario(&s).map_err(|e| scenario_err(path, &e))?;
        if let Some(dir) = ledger_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| err(format!("cannot create '{}': {e}", dir.display())))?;
            let lp = dir.join(format!("{}.ledger", s.name));
            // Ledgers are immutable artifacts: the collision with an
            // existing one is a named error, not an overwrite.
            use std::io::Write as _;
            let write_err = |e: &dyn std::fmt::Display| {
                err(format!("cannot write ledger '{}': {e}", lp.display()))
            };
            durable::create_new_ledger_file(&lp)
                .map_err(|e| write_err(&e))?
                .write_all(outcome.ledger.as_bytes())
                .map_err(|e| write_err(&e))?;
        }
        let passed = outcome.reports.iter().filter(|r| r.passed).count();
        writeln!(
            out,
            "{:<28} {:>10.3} {:>10.3} {:>6} {:>7}/{:<2}",
            outcome.name,
            outcome.result.efficiency,
            outcome.result.envy_freeness,
            outcome.fired.len(),
            passed,
            outcome.reports.len()
        )
        .expect("infallible");
        for report in outcome.violations() {
            violations.push(format!(
                "{}: property '{}' violated: {}",
                outcome.name, report.property, report.detail
            ));
        }
    }
    if violations.is_empty() {
        Ok(out)
    } else {
        Err(property_err(format!(
            "{} scenario property violation(s):\n  {}",
            violations.len(),
            violations.join("\n  ")
        )))
    }
}

fn serve(mut args: Vec<String>) -> Result<String, CliError> {
    let socket: Option<PathBuf> = extract_flag(&mut args, "socket")?.map(PathBuf::from);
    let tcp: Option<String> = extract_flag(&mut args, "tcp")?;
    let state_dir: PathBuf = extract_flag(&mut args, "state-dir")?
        .map(PathBuf::from)
        .ok_or_else(|| err("serve needs --state-dir=DIR for its ledger and snapshot"))?;
    let resources: usize = flag(&mut args, "resources", "resource count")?.unwrap_or(16);
    let capacity: f64 = flag(&mut args, "capacity", "capacity")?.unwrap_or(100.0);
    let tick_ms: Option<u64> = flag(&mut args, "tick-ms", "tick interval (ms)")?;
    let max_ticks: Option<u64> = flag(&mut args, "max-ticks", "tick limit")?;
    let queue_cap: usize = flag(&mut args, "queue-cap", "admission queue bound")?.unwrap_or(1024);
    let frame_cap: usize = flag(&mut args, "frame-cap", "frame byte cap")?.unwrap_or(64 * 1024);
    let read_timeout_ms: u64 =
        flag(&mut args, "read-timeout-ms", "read timeout (ms)")?.unwrap_or(5_000);
    let fallback_after: usize =
        flag(&mut args, "fallback-after", "fallback threshold")?.unwrap_or(3);
    let commit_delay_ms: u64 =
        flag(&mut args, "commit-delay-ms", "commit delay (ms)")?.unwrap_or(0);
    let seed: u64 = flag(&mut args, "seed", "seed")?.unwrap_or(0);
    // Online re-solves run at a looser tolerance than the batch
    // pipeline's 1e-6 default: at 1e-4 the warm start converges in a
    // fraction of the cold iterations (see the server bench), while at
    // 1e-6 the slow geometric tail dominates both arms and the
    // advantage vanishes.
    let tol = tolerance(&mut args)?.unwrap_or(1e-4);
    // The daemon's market is sparse: it defaults to the first-order
    // engine, and `ServerConfig::validate` refuses --solver=jacobi.
    let (mut options, retry) = solver_knobs(&mut args, EquilibriumOptions::large_scale(), true)?;
    if let Some(extra) = args.first() {
        return Err(err(format!("unexpected serve argument '{extra}'")));
    }
    let endpoint = match (socket, tcp) {
        (Some(p), None) => rebudget_server::Endpoint::Unix(p),
        (None, Some(a)) => rebudget_server::Endpoint::Tcp(a),
        (None, None) => return Err(err("serve needs --socket=PATH or --tcp=ADDR")),
        (Some(_), Some(_)) => return Err(err("serve takes --socket or --tcp, not both")),
    };
    options.price_tolerance = tol;
    let config = rebudget_server::ServerConfig {
        capacities: vec![capacity; resources],
        solver: options.solver,
        options,
        retry: retry.unwrap_or_default(),
        fallback_after,
        seed,
        commit_delay_ms,
    };
    let dconfig = rebudget_server::DaemonConfig {
        queue_cap,
        frame_cap,
        read_timeout: std::time::Duration::from_millis(read_timeout_ms),
        tick_interval: tick_ms.map(std::time::Duration::from_millis),
        max_ticks,
    };
    let core = rebudget_server::ServerCore::open(config, &state_dir).map_err(|e| server_err(&e))?;
    let daemon = rebudget_server::Daemon::new(core, dconfig);
    let listener = rebudget_server::Listener::bind(&endpoint).map_err(|e| server_err(&e))?;
    // Readiness goes straight to stderr: notes only print after the
    // (long-running) serve loop returns, and stdout stays reserved for
    // the final summary.
    eprintln!(
        "serving on {} at tick {} ({} player(s))",
        listener.local_addr,
        daemon.core().tick_index(),
        daemon.core().players(),
    );
    let summary = daemon.serve(listener).map_err(|e| server_err(&e))?;
    let s = summary.stats;
    let mut out = String::new();
    writeln!(
        out,
        "sealed {} record(s) after {} tick(s)",
        summary.records, summary.ticks
    )
    .expect("infallible");
    writeln!(
        out,
        "requests {} = accepted {} + rejected {} + shed {} + malformed {} + control {}",
        s.requests, s.accepted, s.rejected, s.shed, s.malformed, s.control
    )
    .expect("infallible");
    writeln!(
        out,
        "oversized {} slowloris {} disconnects {} fallback-ticks {}",
        s.oversized, s.slowloris, s.disconnects, s.fallback_ticks
    )
    .expect("infallible");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_ok(args: &[&str]) -> String {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v).expect("command succeeds")
    }

    #[test]
    fn help_and_unknown() {
        assert!(run_ok(&[]).contains("USAGE"));
        assert!(run_ok(&["help"]).contains("USAGE"));
        let e = run(&["frobnicate".to_string()]).unwrap_err();
        assert!(e.message.contains("unknown command"));
    }

    #[test]
    fn apps_lists_24() {
        let out = run_ok(&["apps"]);
        assert_eq!(out.lines().count(), 25, "header + 24 apps");
        assert!(out.contains("mcf"));
        assert!(out.contains("sixtrack"));
    }

    #[test]
    fn workloads_prints_bundles() {
        let out = run_ok(&["workloads", "cpbn", "8"]);
        assert_eq!(out.lines().count(), 5);
        assert!(out.contains("CPBN#00"));
        assert!(run(&["workloads".into(), "zzz".into(), "8".into()]).is_err());
        assert!(run(&["workloads".into(), "cpbn".into(), "7".into()]).is_err());
    }

    #[test]
    fn solve_reports_metrics() {
        let out = run_ok(&["solve", "bbpc", "8", "rebudget", "20"]);
        assert!(out.contains("ReBudget-20"));
        assert!(out.contains("MUR"));
        assert!(out.contains("PoA floor"));
        let out = run_ok(&["solve", "bbpc", "8", "equalshare"]);
        assert!(out.contains("EqualShare"));
        assert!(!out.contains("MUR"), "no market metrics without a market");
    }

    #[test]
    fn sweep_produces_six_rows() {
        let out = run_ok(&["sweep", "bbpc", "8"]);
        assert_eq!(out.lines().count(), 7, "header + 6 steps");
    }

    #[test]
    fn synth_solves_a_sparse_market_deterministically() {
        let out = run_ok(&["synth", "1000", "16", "--seed=3"]);
        assert!(out.contains("players     1000"), "{out}");
        assert!(out.contains("solver      propresp"), "{out}");
        assert!(out.contains("kind        linear"), "{out}");
        assert!(out.contains("converged   yes"), "{out}");
        // Deterministic stdout: same args, same bytes.
        assert_eq!(out, run_ok(&["synth", "1000", "16", "--seed=3"]));
        // Mirror and Leontief variants run through the same plumbing.
        let md = run_ok(&["synth", "500", "8", "--solver=mirror", "--leontief"]);
        assert!(md.contains("solver      mirror"), "{md}");
        assert!(md.contains("kind        leontief"), "{md}");
    }

    #[test]
    fn synth_rejects_bad_arguments() {
        assert!(run_err(&["synth", "0", "16"])
            .message
            .contains("at least 1"));
        assert!(run_err(&["synth", "100", "8", "--solver=jacobi"])
            .message
            .contains("sparse"));
        assert!(run_err(&["synth", "100", "8", "--solver=magic"])
            .message
            .contains("unknown solver"));
        assert!(run_err(&["synth", "100", "8", "--tol=-1"])
            .message
            .contains("--tol"));
    }

    #[test]
    fn serve_rejects_the_dense_solver() {
        let dir = std::env::temp_dir().join(format!("rebudget-cli-jacobi-{}", std::process::id()));
        let socket = format!("--socket={}", dir.join("sock").display());
        let state = format!("--state-dir={}", dir.display());
        let e = run_err(&["serve", &socket, &state, "--solver=jacobi"]);
        assert_eq!(e.code, EXIT_USAGE, "{}", e.message);
        assert!(e.message.contains("sparse"), "{}", e.message);
        assert!(!dir.exists(), "a refused serve creates no state");
    }

    #[test]
    fn solve_accepts_a_solver_flag() {
        let jac = run_ok(&["solve", "bbpc", "8", "equalbudget"]);
        let pr = run_ok(&["solve", "bbpc", "8", "equalbudget", "--solver=propresp"]);
        assert!(pr.contains("EqualBudget"), "{pr}");
        assert!(pr.contains("MUR"), "{pr}");
        // Different engines, same market: both produce full metric blocks
        // (values may differ — price-taking vs price-anticipating).
        assert_eq!(jac.lines().count(), pr.lines().count());
    }

    #[test]
    fn theory_evaluates_bounds() {
        let out = run_ok(&["theory", "1.0", "1.0"]);
        assert!(out.contains("0.7500"));
        assert!(out.contains("0.8284"));
    }

    #[test]
    fn mechanism_parsing() {
        let options = EquilibriumOptions::default();
        assert!(by_name("balanced", 100.0, None, &options, None).is_ok());
        assert!(by_name("rebudget", 100.0, Some(40.0), &options, None).is_ok());
        assert!(by_name("REBUDGET", 100.0, Some(40.0), &options, None).is_err());
        assert!(mechanism("REBUDGET", Some(40.0), &options, None).is_ok());
        assert!(by_name("magic", 100.0, None, &options, None).is_err());
    }

    #[test]
    fn bbpc_requires_8_cores() {
        assert!(run(&["solve".into(), "bbpc".into(), "64".into()]).is_err());
    }

    #[test]
    fn simulate_with_faults_reports_degradation_columns() {
        let out = run_ok(&[
            "simulate",
            "bbpc",
            "8",
            "2",
            "--faults=noise=0.2,drop=0.3",
            "--seed=7",
        ]);
        assert!(out.contains("degraded"));
        assert!(out.contains("fallback"));
        assert!(out.contains("ReBudget-40"));
        // Without faults the extra columns stay hidden.
        let plain = run_ok(&["simulate", "bbpc", "8", "2"]);
        assert!(!plain.contains("degraded"));
    }

    #[test]
    fn bad_fault_spec_is_rejected() {
        let e = run(&[
            "simulate".into(),
            "bbpc".into(),
            "8".into(),
            "--faults=bogus=1".into(),
        ])
        .unwrap_err();
        assert!(e.message.contains("invalid --faults spec"));
    }

    fn run_err(args: &[&str]) -> CliError {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&v).expect_err("command fails")
    }

    #[test]
    fn invalid_values_are_one_line_usage_errors() {
        for bad in [
            vec!["simulate", "bbpc", "8", "--seed=banana"],
            vec!["simulate", "bbpc", "zero", "2"],
            vec!["simulate", "bbpc", "0", "2"],
            vec!["simulate", "bbpc", "8", "0"],
            vec!["simulate", "bbpc", "8", "-3"],
            vec!["simulate", "bbpc", "8", "2", "--deadline-ms=soon"],
            vec!["simulate", "bbpc", "8", "2", "--solve-iters=0"],
            vec!["simulate", "bbpc", "8", "2", "--retries=many"],
            vec!["sweep", "bbpc", "0"],
            vec!["theory", "one", "1.0"],
        ] {
            let e = run_err(&bad);
            assert_eq!(e.code, EXIT_USAGE, "{bad:?}");
            assert!(!e.message.is_empty(), "{bad:?}");
            assert!(
                !e.message.contains('\n') || e.message.contains("USAGE"),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn unused_flags_are_usage_errors() {
        let dir = scenario_dir("unused", SCENARIO_MINIMAL);
        let dir_s = dir.display().to_string();
        for (args, flag) in [
            (vec!["sweep", "bbpc", "8", "--solver=mirror"], "--solver"),
            (
                vec!["sweep", "bbpc", "8", "--checkpoint-every=2"],
                "--checkpoint-every",
            ),
            (
                vec![
                    "simulate",
                    "bbpc",
                    "8",
                    "2",
                    "--mechanism=rebudget",
                    "--checkpoint-every=1",
                ],
                "--checkpoint-every",
            ),
            (vec!["synth", "50", "4", "--retries=2"], "--retries"),
            (vec!["solve", "bbpc", "8", "--seed=3"], "--seed"),
            (vec!["theory", "1", "1", "--faults=noise=0.1"], "--faults"),
            (vec!["apps", "--ledger=x"], "--ledger"),
            (vec!["scenario", "check", &dir_s, "--ledger=x"], "--ledger"),
        ] {
            let e = run_err(&args);
            assert_eq!(e.code, EXIT_USAGE, "{args:?}: {}", e.message);
            assert!(e.message.contains(flag), "{args:?}: {}", e.message);
            assert!(!e.message.contains('\n'), "{args:?}: {}", e.message);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_rebudget_steps_are_usage_errors() {
        for step in ["nan", "inf", "-5", "0"] {
            let e = run_err(&["solve", "cpbn", "8", "rebudget", step]);
            assert_eq!(e.code, EXIT_USAGE, "{step}: {}", e.message);
            assert!(
                e.message.contains("step must be positive and finite"),
                "{step}: {}",
                e.message
            );
            assert!(!e.message.contains('\n'), "{step}: {}", e.message);
        }
    }

    #[test]
    fn unreadable_resume_path_is_a_checkpoint_error() {
        let e = run_err(&[
            "simulate",
            "bbpc",
            "8",
            "2",
            "--mechanism=equalbudget",
            "--resume=/nonexistent/rebudget.ckpt",
        ]);
        assert_eq!(e.code, EXIT_CHECKPOINT);
        assert!(e.message.contains("checkpoint"), "{}", e.message);
        let e = run_err(&["sweep", "bbpc", "8", "--resume=/nonexistent/rebudget.ckpt"]);
        assert_eq!(e.code, EXIT_CHECKPOINT);
    }

    #[test]
    fn checkpoint_flags_require_a_single_mechanism() {
        let e = run_err(&["simulate", "bbpc", "8", "2", "--checkpoint=/tmp/x.ckpt"]);
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.message.contains("--mechanism"), "{}", e.message);
    }

    #[test]
    fn single_mechanism_simulate_prints_fingerprint() {
        let out = run_ok(&["simulate", "bbpc", "8", "2", "--mechanism=equalbudget"]);
        assert_eq!(out.lines().count(), 3, "header + row + fingerprint: {out}");
        let fp = out
            .lines()
            .last()
            .unwrap()
            .strip_prefix("fingerprint ")
            .expect("fingerprint line");
        assert_eq!(fp.len(), 16);
        assert!(fp.chars().all(|c| c.is_ascii_hexdigit()));
        // All-mechanism mode keeps the old table shape: no fingerprint.
        let all = run_ok(&["simulate", "bbpc", "8", "2"]);
        assert!(!all.contains("fingerprint"));
    }

    #[test]
    fn simulate_checkpoint_resume_round_trip_is_byte_stable() {
        let dir = std::env::temp_dir().join(format!("rebudget-cli-cp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sim.ckpt");
        let ckpt_flag = format!("--checkpoint={}", ckpt.display());
        let resume_flag = format!("--resume={}", ckpt.display());
        let base = [
            "simulate",
            "bbpc",
            "8",
            "3",
            "--mechanism=rebudget",
            "--seed=7",
        ];

        let reference = run_ok(&base);
        // "Crash" after 2 of 3 quanta: truncated run with checkpointing on.
        let mut partial: Vec<&str> = base.to_vec();
        partial[3] = "2";
        partial.push(&ckpt_flag);
        run_ok(&partial);
        // Resume to the full horizon: stdout must match the reference
        // byte-for-byte, and the resume note must be off-stdout.
        let mut resumed_args: Vec<String> = base.iter().map(|s| s.to_string()).collect();
        resumed_args.push(resume_flag);
        let (resumed, resume_notes) = run_with_notes(&resumed_args).unwrap();
        assert_eq!(resumed, reference);
        assert!(
            resume_notes.iter().any(|n| n.contains("replayed 2 of 3")),
            "{resume_notes:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resumed_simulation_keeps_logging_into_the_resumed_file() {
        let dir = std::env::temp_dir().join(format!("rebudget-cli-relog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sim.ckpt");
        let run = |quanta: &str, flag: &str| {
            let flag = format!("{flag}={}", ckpt.display());
            let args = [
                "simulate",
                "bbpc",
                "8",
                quanta,
                "--mechanism=rebudget",
                "--seed=7",
            ];
            let mut args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            args.push(flag);
            run_with_notes(&args).unwrap()
        };
        let reference = run_ok(&[
            "simulate",
            "bbpc",
            "8",
            "5",
            "--mechanism=rebudget",
            "--seed=7",
        ]);
        // Killed after 2 quanta, resumed with no --checkpoint and killed
        // again after 4: the second resume replays all 4, so nothing
        // the first resume ran is lost.
        run("2", "--checkpoint");
        let (_, notes) = run("4", "--resume");
        assert!(
            notes.iter().any(|n| n.contains("replayed 2 of 4")),
            "{notes:?}"
        );
        let (resumed, notes) = run("5", "--resume");
        assert!(
            notes.iter().any(|n| n.contains("replayed 4 of 5")),
            "{notes:?}"
        );
        assert_eq!(resumed, reference);
        let log = std::fs::read_to_string(&ckpt).unwrap();
        assert_eq!(log.matches("\n[quantum ").count(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_checkpoint_resume_round_trip_is_byte_stable() {
        let dir = std::env::temp_dir().join(format!("rebudget-cli-sw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("sweep.ckpt");
        let ckpt_flag = format!("--checkpoint={}", ckpt.display());
        let resume_flag = format!("--resume={}", ckpt.display());

        let reference = run_ok(&["sweep", "bbpc", "8"]);
        let checkpointed = run_ok(&["sweep", "bbpc", "8", &ckpt_flag]);
        assert_eq!(
            checkpointed, reference,
            "checkpointing must not change values"
        );
        // Resuming a complete sweep reuses every point, bit-identically.
        let (resumed, notes) =
            run_with_notes(&["sweep".into(), "bbpc".into(), "8".into(), resume_flag]).unwrap();
        assert_eq!(resumed, reference);
        assert!(
            notes.iter().any(|n| n.contains("6 of 6 points reused")),
            "{notes:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_renders_solver_health_columns() {
        let out = run_ok(&["sweep", "bbpc", "8"]);
        let header = out.lines().next().unwrap();
        for col in ["conv", "rounds", "iters", "retry", "t/o"] {
            assert!(header.contains(col), "missing {col} in {header}");
        }
        assert!(out.contains("yes"), "clean bbpc sweep converges");
    }

    #[test]
    fn deadline_flags_bound_solves_and_report_timeouts() {
        // A 1-iteration budget cannot converge: the run must still finish
        // (best-effort allocations) and report the timeouts.
        let out = run_ok(&[
            "simulate",
            "bbpc",
            "8",
            "2",
            "--mechanism=equalbudget",
            "--solve-iters=1",
        ]);
        assert!(out.contains("timeouts"), "{out}");
        let row = out.lines().nth(1).unwrap();
        let cols: Vec<&str> = row.split_whitespace().collect();
        let timeouts: usize = cols.last().unwrap().parse().unwrap();
        assert_eq!(timeouts, 2, "one timed-out solve per quantum: {row}");
        // With a generous budget nothing times out.
        let ok = run_ok(&[
            "simulate",
            "bbpc",
            "8",
            "2",
            "--mechanism=equalbudget",
            "--solve-iters=500",
            "--retries=2",
        ]);
        let row = ok.lines().nth(1).unwrap();
        let cols: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cols[cols.len() - 1], "0", "timeouts: {row}");
        assert_eq!(cols[cols.len() - 2], "0", "retries: {row}");
    }

    // Observability tests toggle the process-global telemetry switch;
    // serialise them so resets don't interleave.
    fn observed<R>(f: impl FnOnce() -> R) -> R {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _g = GATE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f()
    }

    #[test]
    fn trace_flag_writes_schema_valid_journal_without_touching_stdout() {
        observed(|| {
            let dir = std::env::temp_dir().join(format!("rebudget-cli-tr-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            let trace = dir.join("sim.jsonl");
            let base = [
                "simulate",
                "bbpc",
                "8",
                "2",
                "--mechanism=rebudget",
                "--seed=3",
            ];
            let reference = run_ok(&base);
            let trace_flag = format!("--trace={}", trace.display());
            let mut traced_args: Vec<&str> = base.to_vec();
            traced_args.push(&trace_flag);
            let traced = run_ok(&traced_args);
            assert_eq!(traced, reference, "tracing must not touch stdout");
            let text = std::fs::read_to_string(&trace).unwrap();
            let summary =
                rebudget_telemetry::schema::validate_stream(text.as_bytes()).expect("schema-valid");
            assert!(summary.events >= 3, "expected events, got {summary:?}");
            assert_eq!(summary.torn_bytes, 0);
            assert!(text.lines().next().unwrap().contains("trace_meta"));
            assert!(text.contains("\"event\":\"quantum\""), "{text}");
            assert!(text.contains("\"event\":\"rebudget_round\""), "{text}");
            assert!(text.contains("\"event\":\"solve_end\""), "{text}");
            let _ = std::fs::remove_dir_all(&dir);
        });
    }

    #[test]
    fn an_unwritable_trace_fails_before_the_run() {
        observed(|| {
            let dir = std::env::temp_dir().join(format!("rebudget-cli-nt-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let log = dir.join("sweep.log");
            let missing = dir.join("missing").join("t.jsonl");
            let e = run_err(&[
                "sweep",
                "bbpc",
                "8",
                &format!("--checkpoint={}", log.display()),
                &format!("--trace={}", missing.display()),
            ]);
            assert!(
                e.message
                    .starts_with(&format!("cannot write trace to '{}'", missing.display())),
                "{e:?}"
            );
            assert!(!log.exists(), "no work before the trace is open");
            let _ = std::fs::remove_dir_all(&dir);
        });
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_trace_write_error_fails_the_command() {
        observed(|| {
            let e = run_err(&["simulate", "bbpc", "8", "2", "--trace=/dev/full"]);
            assert!(
                e.message.starts_with("cannot write trace to '/dev/full'"),
                "{e:?}"
            );
            // The command's own error wins over the trace's.
            let e = run_err(&["simulate", "bbpc", "0", "--trace=/dev/full"]);
            assert!(!e.message.contains("trace"), "{e:?}");
        });
    }

    #[test]
    fn metrics_and_profile_flags_append_sections() {
        observed(|| {
            let out = run_ok(&[
                "simulate",
                "bbpc",
                "8",
                "2",
                "--mechanism=equalbudget",
                "--metrics",
                "--profile",
            ]);
            assert!(out.contains("metrics:"), "{out}");
            assert!(out.contains("counters:"), "{out}");
            assert!(out.contains("solver.solves"), "{out}");
            assert!(out.contains("profile (wall-clock per span):"), "{out}");
            assert!(out.contains("quantum"), "{out}");
            // The table rows stay untouched in front of the sections.
            let plain = run_ok(&["simulate", "bbpc", "8", "2", "--mechanism=equalbudget"]);
            assert!(out.starts_with(plain.trim_end_matches('\n')) || out.starts_with(&plain));
        });
    }

    const SCENARIO_MINIMAL: &str = r#"[scenario]
name = "cli-smoke"
cores = 8
workload = "cpbn"
mechanism = "rebudget"
seed = 5

[[phases]]
name = "steady"
quanta = 3

[[properties]]
kind = "no-nan"
"#;

    fn scenario_dir(tag: &str, body: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rebudget-cli-sc-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("smoke.toml"), body).unwrap();
        dir
    }

    #[test]
    fn scenario_list_check_run_and_audit_round_trip() {
        let dir = scenario_dir("ok", SCENARIO_MINIMAL);
        let dir_s = dir.display().to_string();

        let listed = run_ok(&["scenario", "list", &dir_s]);
        assert!(listed.contains("cli-smoke"), "{listed}");
        assert!(listed.contains("rebudget"), "{listed}");

        let checked = run_ok(&["scenario", "check", &dir_s]);
        assert!(checked.contains("ok cli-smoke"), "{checked}");
        assert!(checked.contains("1 scenario(s) valid"), "{checked}");

        let ledgers = dir.join("ledgers");
        let ledger_flag = format!("--ledger={}", ledgers.display());
        let ran = run_ok(&["scenario", "run", &dir_s, &ledger_flag]);
        assert!(ran.contains("cli-smoke"), "{ran}");
        assert!(ran.contains("1/1"), "{ran}");

        // The written ledger audits cleanly; a tampered copy does not.
        let ledger_path = ledgers.join("cli-smoke.ledger");
        let ledger_s = ledger_path.display().to_string();
        let audited = run_ok(&["scenario", "audit", &ledger_s]);
        assert!(audited.contains("ok cli-smoke"), "{audited}");
        let text = std::fs::read_to_string(&ledger_path).unwrap();
        let tampered = dir.join("tampered.ledger");
        std::fs::write(&tampered, text.replacen("eff=", "eff=f", 1)).unwrap();
        let e = run_err(&["scenario", "audit", &tampered.display().to_string()]);
        assert_eq!(e.code, EXIT_PROPERTY);
        // So do a copy with a line after the seal and one with its last
        // byte (the seal's newline) cut.
        let seal_line = text.lines().count();
        for (name, copy, line) in [
            ("appended", format!("{text}tampered=1\n"), seal_line + 1),
            ("cut", text[..text.len() - 1].to_string(), seal_line),
        ] {
            let path = dir.join(format!("{name}.ledger"));
            std::fs::write(&path, copy).unwrap();
            let e = run_err(&["scenario", "audit", &path.display().to_string()]);
            assert_eq!(e.code, EXIT_PROPERTY, "{name}: {}", e.message);
            let at = format!("at line {line}:");
            assert!(e.message.contains(&at), "{name}: {}", e.message);
        }

        // Ledgers are immutable: a second run into the same directory
        // refuses to overwrite.
        let e = run_err(&["scenario", "run", &dir_s, &ledger_flag]);
        assert!(e.message.contains("cannot write ledger"), "{}", e.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_violation_exits_with_the_property_code() {
        let body = SCENARIO_MINIMAL.replace(
            "kind = \"no-nan\"\n",
            "kind = \"no-nan\"\n\n[[properties]]\nkind = \"min-efficiency\"\nvalue = 9999.0\n",
        );
        let dir = scenario_dir("viol", &body);
        let e = run_err(&["scenario", "run", &dir.display().to_string()]);
        assert_eq!(e.code, EXIT_PROPERTY, "{}", e.message);
        assert!(e.message.contains("min-efficiency"), "{}", e.message);
        assert!(e.message.contains("violated"), "{}", e.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_bad_arguments_are_usage_errors() {
        for bad in [
            vec!["scenario"],
            vec!["scenario", "frobnicate", "x"],
            vec!["scenario", "run"],
            vec!["scenario", "run", "/nonexistent/path.toml"],
            vec!["scenario", "audit"],
        ] {
            let e = run_err(&bad);
            assert_eq!(e.code, EXIT_USAGE, "{bad:?}: {}", e.message);
        }
        // A malformed scenario file is a usage error naming the line.
        let body = SCENARIO_MINIMAL.replace("seed = 5\n", "seed = 5\nbogus = 1\n");
        let dir = scenario_dir("bad", &body);
        let e = run_err(&["scenario", "check", &dir.display().to_string()]);
        assert_eq!(e.code, EXIT_USAGE);
        assert!(e.message.contains("line 7"), "{}", e.message);
        assert!(e.message.contains("unknown key 'bogus'"), "{}", e.message);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn switch_extraction_removes_only_the_switch() {
        let mut a: Vec<String> = vec!["simulate".into(), "--metrics".into(), "bbpc".into()];
        assert!(extract_switch(&mut a, "metrics"));
        assert!(!extract_switch(&mut a, "metrics"));
        assert_eq!(a, vec!["simulate".to_string(), "bbpc".to_string()]);
    }

    #[test]
    fn flag_extraction_handles_both_forms() {
        let mut a: Vec<String> = vec!["simulate".into(), "--seed=9".into(), "bbpc".into()];
        assert_eq!(extract_flag(&mut a, "seed").unwrap().as_deref(), Some("9"));
        assert_eq!(a, vec!["simulate".to_string(), "bbpc".to_string()]);
        let mut b: Vec<String> = vec!["--faults".into(), "noise=0.1".into()];
        assert_eq!(
            extract_flag(&mut b, "faults").unwrap().as_deref(),
            Some("noise=0.1")
        );
        assert!(b.is_empty());
        let mut c: Vec<String> = vec!["--faults".into()];
        assert!(extract_flag(&mut c, "faults").is_err());
    }
}
