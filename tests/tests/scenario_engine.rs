//! Cross-crate integration tests for the declarative scenario engine:
//! the shipped scenario library stays valid, the allocation ledger is
//! byte-deterministic across threading policies and tracing, parser
//! rejections carry line numbers, and the CLI exits with
//! `EXIT_PROPERTY` on a violated property.

use std::path::PathBuf;

use rebudget_core::mechanisms::ReBudget;
use rebudget_market::ParallelPolicy;
use rebudget_scenario::ledger::{append, verify, Ledger, LedgerMeta, LedgerRecord};
use rebudget_scenario::{run_scenario, Scenario, ScenarioError};
use rebudget_sim::{
    run_simulation_hooked, DramConfig, QuantumControls, QuantumHook, QuantumObservation,
    RecoveryOptions, SimOptions, SystemConfig,
};
use rebudget_workloads::paper_bbpc_8core;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../scenarios"))
}

fn shipped_scenarios() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn the_shipped_scenario_library_is_valid_and_big_enough() {
    let paths = shipped_scenarios();
    assert!(
        paths.len() >= 15,
        "the library must ship at least 15 scenarios, found {}",
        paths.len()
    );
    let mut names = std::collections::HashSet::new();
    for path in &paths {
        let s = Scenario::load(path)
            .unwrap_or_else(|e| panic!("{} fails validation: {e}", path.display()));
        assert!(
            names.insert(s.name.clone()),
            "duplicate scenario name '{}'",
            s.name
        );
    }
}

#[test]
fn the_violating_fixture_is_still_violating() {
    let path = scenarios_dir().join("fixtures/violating_floor.toml");
    let s = Scenario::load(&path).expect("fixture parses");
    let outcome = run_scenario(&s).expect("fixture runs");
    assert!(!outcome.passed(), "the fixture must keep failing");
    assert!(outcome
        .violations()
        .iter()
        .any(|r| r.property == "min-efficiency"));
}

/// A minimal hook that appends every quantum to a ledger — used to pin
/// ledger bytes across configurations the scenario engine itself never
/// varies (threading policy, tracing).
struct LedgerHook {
    ledger: Ledger,
    active: Vec<bool>,
}

impl LedgerHook {
    fn new(quanta: usize, cores: usize) -> Self {
        LedgerHook {
            ledger: LedgerMeta {
                scenario: "determinism-probe".into(),
                seed: 7,
                mechanism: "rebudget".into(),
                workload: "bbpc".into(),
                cores,
                resources: 2,
                quanta,
                budget: 100.0,
                faults: String::new(),
            }
            .start(),
            active: vec![true; cores],
        }
    }
}

impl QuantumHook for LedgerHook {
    fn control(&mut self, _quantum: usize, _controls: &mut QuantumControls) {}

    fn observe(&mut self, obs: &QuantumObservation) {
        append(
            &mut self.ledger,
            &LedgerRecord {
                quantum: obs.quantum,
                phase: "run",
                events: &[],
                active: &self.active,
                budgets: &obs.budgets,
                allocation: &obs.allocation,
                efficiency: obs.efficiency,
                envy_freeness: obs.envy_freeness,
                degraded: obs.degraded,
                fallback: obs.fallback,
                converged: obs.converged,
            },
        );
    }
}

fn ledger_under_policy(policy: ParallelPolicy) -> String {
    let sys = SystemConfig::paper_8core();
    let dram = DramConfig::ddr3_1600();
    let bundle = paper_bbpc_8core();
    let mut mech = ReBudget::with_step(100.0, 20.0);
    mech.options.parallel = policy;
    let opts = SimOptions {
        quanta: 4,
        seed: 7,
        ..SimOptions::default()
    };
    let mut hook = LedgerHook::new(4, 8);
    run_simulation_hooked(
        &sys,
        &dram,
        &bundle,
        &mech,
        &opts,
        &RecoveryOptions::default(),
        &mut hook,
    )
    .expect("simulation succeeds");
    hook.ledger.seal();
    hook.ledger.text().to_string()
}

#[test]
fn ledger_is_byte_identical_serial_vs_parallel() {
    let serial = ledger_under_policy(ParallelPolicy::Serial);
    let threaded = ledger_under_policy(ParallelPolicy::Threads(4));
    let auto = ledger_under_policy(ParallelPolicy::Auto);
    assert_eq!(serial, threaded, "threading must not change ledger bytes");
    assert_eq!(serial, auto);
    let summary = verify(&serial).expect("ledger verifies");
    assert_eq!(summary.records, 4);
}

#[test]
fn ledger_is_byte_identical_traced_vs_untraced() {
    let scenario = Scenario::load(&scenarios_dir().join("quiet_baseline.toml"))
        .expect("shipped scenario loads");
    let untraced = run_scenario(&scenario).expect("untraced run");
    rebudget_telemetry::reset();
    rebudget_telemetry::set_enabled(true);
    let traced = run_scenario(&scenario);
    rebudget_telemetry::set_enabled(false);
    let traced = traced.expect("traced run");
    assert_eq!(
        untraced.ledger, traced.ledger,
        "tracing must not change ledger bytes"
    );
    assert_eq!(
        untraced.result.efficiency.to_bits(),
        traced.result.efficiency.to_bits()
    );
    assert_eq!(
        untraced.result.envy_freeness.to_bits(),
        traced.result.envy_freeness.to_bits()
    );
}

fn format_line(doc: &str) -> (usize, String) {
    match Scenario::parse(doc).expect_err("document must be rejected") {
        ScenarioError::Format { line, reason } => (line, reason),
        other => panic!("expected a Format error, got {other:?}"),
    }
}

const VALID_HEAD: &str = "[scenario]
name = \"probe\"
cores = 8
workload = \"cpbn\"
mechanism = \"rebudget\"
";

#[test]
fn parser_rejects_unknown_keys_with_line_numbers() {
    let doc = format!("{VALID_HEAD}zeal = 11\n\n[[phases]]\nname = \"p\"\nquanta = 2\n");
    let (line, reason) = format_line(&doc);
    assert_eq!(line, 6);
    assert!(reason.contains("unknown key 'zeal'"), "{reason}");
}

#[test]
fn parser_rejects_malformed_triggers() {
    let doc = format!(
        "{VALID_HEAD}\n[[phases]]\nname = \"p\"\nquanta = 4\n\n\
         [[events]]\nname = \"e\"\ntrigger = {{ wat = 1 }}\neffects = [{{ reset = true }}]\n"
    );
    let (line, reason) = format_line(&doc);
    assert_eq!(line, 13, "{reason}");
    assert!(
        reason.contains("trigger") || reason.contains("unknown key"),
        "{reason}"
    );

    // Contradictory threshold bounds are rejected too.
    let doc = format!(
        "{VALID_HEAD}\n[[phases]]\nname = \"p\"\nquanta = 4\n\n\
         [[events]]\nname = \"e\"\n\
         trigger = {{ metric = \"residual\", at-least = 0.1, at-most = 0.2 }}\n\
         effects = [{{ reset = true }}]\n"
    );
    let (line, _) = format_line(&doc);
    assert_eq!(line, 13);
}

#[test]
fn parser_rejects_cyclic_and_over_long_phase_lists() {
    // A phase name that repeats would make `phase(...)` triggers loop.
    let doc = format!(
        "{VALID_HEAD}\n[[phases]]\nname = \"p\"\nquanta = 2\n\n[[phases]]\nname = \"p\"\nquanta = 2\n"
    );
    let (line, reason) = format_line(&doc);
    assert_eq!(line, 11, "{reason}");
    assert!(reason.contains("cyclic"), "{reason}");

    // More than MAX_PHASES phases is rejected as over-long.
    let mut doc = VALID_HEAD.to_string();
    for i in 0..40 {
        doc.push_str(&format!("\n[[phases]]\nname = \"p{i}\"\nquanta = 1\n"));
    }
    let (_, reason) = format_line(&doc);
    assert!(reason.contains("over-long"), "{reason}");
}

#[test]
fn parser_rejects_non_finite_numeric_literals() {
    let doc = format!("{VALID_HEAD}budget = 1e999\n\n[[phases]]\nname = \"p\"\nquanta = 2\n");
    let (line, reason) = format_line(&doc);
    assert_eq!(line, 6);
    assert!(reason.contains("non-finite"), "{reason}");

    let doc = format!("{VALID_HEAD}budget = inf\n\n[[phases]]\nname = \"p\"\nquanta = 2\n");
    let (line, reason) = format_line(&doc);
    assert_eq!(line, 6);
    assert!(
        reason.contains("non-finite") || reason.contains("unrecognised"),
        "{reason}"
    );
}

#[test]
fn cli_exits_with_the_property_code_on_the_fixture() {
    let fixture = scenarios_dir().join("fixtures/violating_floor.toml");
    let e = rebudget_cli::run(&[
        "scenario".into(),
        "run".into(),
        fixture.display().to_string(),
    ])
    .expect_err("fixture must fail");
    assert_eq!(e.code, rebudget_cli::EXIT_PROPERTY);
    assert!(e.message.contains("min-efficiency"), "{}", e.message);
}
