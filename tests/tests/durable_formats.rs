//! Byte pins of every durable format in the workspace.
//!
//! Each file under `tests/golden/durable/` is one durable artifact — a
//! sim checkpoint, a sweep checkpoint, a server snapshot, a sealed server
//! ledger and a sealed scenario ledger — rendered from fixed inputs. Each
//! test re-renders its artifact from the same inputs, requires the bytes
//! to match the fixture exactly, and decodes the fixture back. A codec
//! change that moves a single byte of any format fails here.

use std::path::{Path, PathBuf};

use rebudget_core::sweep::{SolveSummary, SweepPoint};
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{FaultPlan, RetryPolicy, SolverKind};
use rebudget_scenario::ledger::{verify, Ledger, LedgerMeta, LedgerRecord};
use rebudget_scenario::valid_prefix;
use rebudget_server::{Request, ServerConfig, ServerCore, WorkloadSpec};
use rebudget_sim::checkpoint::{
    QuantumRecord, SimCheckpoint, SimCounters, SimMeta, SweepCheckpoint, SweepMeta,
};

#[allow(clippy::expect_used)]
fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden/durable")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rebudget-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_bytes(name: &str, rendered: &str) -> String {
    let want = fixture(name);
    assert!(
        rendered == want,
        "{name}: rendered bytes differ from the fixture\n--- rendered\n{rendered}\n--- fixture\n{want}"
    );
    want
}

#[test]
#[allow(clippy::expect_used)]
fn sim_checkpoint_fixture_is_byte_stable() {
    let cp = SimCheckpoint {
        meta: SimMeta {
            mechanism: "ReBudget-40".into(),
            cores: 2,
            resources: 2,
            apps: vec!["mcf#0".into(), "bzip2#1".into()],
            seed: 23,
            budget: 100.0,
            accesses_per_quantum: 4_000,
            use_monitors: true,
            execution: "analytic".into(),
            max_consecutive_failures: 3,
            faults: Some(
                FaultPlan::parse("noise=0.15,drop=0.1,stale=0.2,liars=2,seed=23")
                    .expect("valid spec"),
            ),
        },
        counters: SimCounters {
            total_rounds: 9,
            total_iterations: 5_000_000_123,
            always_converged: false,
            consecutive_failures: 1,
            fallback_quanta: 0,
            degraded_quanta: 1,
            solver_recoveries: 2,
            retried_solves: 1,
            timed_out_solves: 0,
        },
        quanta: vec![
            QuantumRecord {
                allocation: vec![8.0, 40.0, 8.0, 40.0],
                efficiency: 1.75,
            },
            QuantumRecord {
                allocation: vec![10.5, 35.25, -0.0, f64::MIN_POSITIVE / 8.0],
                efficiency: 0.1 + 0.2,
            },
            QuantumRecord {
                allocation: vec![1.0 / 3.0, 2.0 / 3.0, f64::INFINITY, 1e300],
                efficiency: std::f64::consts::PI,
            },
        ],
    };
    let text = assert_bytes("sim.ckpt", &cp.render());
    let parsed = SimCheckpoint::parse(&text).expect("fixture decodes");
    assert_eq!(parsed, cp);
    assert_eq!(parsed.render(), text);
}

#[test]
#[allow(clippy::expect_used)]
fn sweep_checkpoint_fixture_is_byte_stable() {
    let point = |step: f64, normalized: Option<f64>| SweepPoint {
        step,
        efficiency: 6.5 + step / 100.0,
        normalized_efficiency: normalized,
        envy_freeness: 0.93,
        mur: 1.4,
        mbr: 2.0 + step / 40.0,
        ef_floor: 0.83,
        solve: SolveSummary {
            converged: step < 20.0,
            rounds: 3,
            iterations: 57,
            recoveries: 0,
            retries: 1,
            timed_out: 0,
        },
    };
    let mut cp = SweepCheckpoint::new(SweepMeta {
        category: "cpbn".into(),
        cores: 8,
        base_budget: 100.0,
        normalize: true,
        steps: vec![0.0, 5.0, 10.0, 20.0],
    });
    cp.oracle = Some(7.25);
    cp.points[0] = Some(point(0.0, None));
    cp.points[1] = Some(point(5.0, Some(6.55 / 7.25)));
    cp.points[3] = Some(point(20.0, Some(6.7 / 7.25)));
    let text = assert_bytes("sweep.ckpt", &cp.render());
    let parsed = SweepCheckpoint::parse(&text).expect("fixture decodes");
    assert_eq!(parsed, cp);
    assert_eq!(parsed.missing(), vec![2]);
    assert_eq!(parsed.render(), text);
}

fn server_config(capacities: Vec<f64>) -> ServerConfig {
    ServerConfig {
        capacities,
        solver: SolverKind::ProportionalResponse,
        options: EquilibriumOptions::large_scale(),
        retry: RetryPolicy::default(),
        fallback_after: 2,
        seed: 11,
        commit_delay_ms: 0,
    }
}

/// A configuration whose every solve fails, so a tick keeps the stored
/// bids of players whose interests did not change.
fn failing_config(capacities: Vec<f64>) -> ServerConfig {
    let mut cfg = server_config(capacities);
    cfg.options.max_iterations = 1;
    cfg.options.price_tolerance = 0.0;
    cfg.retry = RetryPolicy {
        max_attempts: 1,
        tighten: 1.0,
        relax: 1.0,
        backoff: 1.0,
    };
    cfg
}

#[test]
#[allow(clippy::expect_used)]
fn server_snapshot_fixture_is_byte_stable() {
    let dir = tmp_dir("snapshot");
    let capacities = vec![8.0; 3];
    // Tick 0 converges: both players store warm bids.
    let mut core = ServerCore::open(server_config(capacities.clone()), &dir).expect("open");
    for (id, budget, interests) in [
        ("alpha", 10.0, vec![(0, 1.0), (2, 0.5)]),
        ("beta", 30.0, vec![(0, 1.0), (1, 2.0)]),
    ] {
        core.apply(&Request::Arrive {
            id: id.into(),
            budget,
            interests,
        })
        .expect("arrive");
    }
    assert!(core.tick(2).expect("tick 0").converged);
    drop(core);
    // Tick 1 fails after beta changes its interests: alpha keeps its
    // bids, beta's are cleared, so the snapshot holds one of each.
    let mut core = ServerCore::open(failing_config(capacities.clone()), &dir).expect("reopen");
    core.apply(&Request::Update {
        id: "beta".into(),
        interests: vec![(1, 1.5), (2, 1.0)],
    })
    .expect("update");
    assert!(!core.tick(1).expect("tick 1").converged);
    drop(core);
    let path = dir.join("server.snapshot");
    let rendered = std::fs::read_to_string(&path).expect("snapshot written");
    let text = assert_bytes("server.snapshot", &rendered);
    assert!(text.contains("bids=") && text.matches("bids=").count() == 1);
    // Decode the fixture itself: recovery resumes at its tick.
    std::fs::write(&path, &text).expect("install fixture");
    let core = ServerCore::open(failing_config(capacities), &dir).expect("fixture decodes");
    assert_eq!(core.tick_index(), 2);
    assert_eq!(core.players(), 2);
    assert!(!core.recovered_from_prev());
    assert!(!core.degraded());
    drop(core);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[allow(clippy::expect_used)]
fn server_ledger_fixture_is_byte_stable() {
    let dir = tmp_dir("server-ledger");
    let spec = WorkloadSpec::small(11, 6);
    let mut core = ServerCore::open(server_config(vec![8.0; 6]), &dir).expect("open");
    for tick in 0..4 {
        let commands = spec.commands_for_tick(tick);
        for cmd in &commands {
            core.apply(cmd).expect("workload command applies");
        }
        core.tick(commands.len()).expect("tick");
    }
    assert_eq!(core.seal().expect("seal"), 4);
    drop(core);
    let rendered = std::fs::read_to_string(dir.join("server.ledger")).expect("ledger");
    let text = assert_bytes("server.ledger", &rendered);
    let summary = verify(&text).expect("fixture verifies");
    assert_eq!((summary.scenario.as_str(), summary.records), ("server", 4));
    let prefix = valid_prefix(&text);
    assert!(prefix.sealed);
    assert_eq!((prefix.bytes, prefix.records), (text.len(), 4));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[allow(clippy::expect_used)]
fn scenario_ledger_fixture_is_byte_stable() {
    let mut ledger = Ledger::new(&LedgerMeta {
        scenario: "fixture".into(),
        seed: 3,
        mechanism: "rebudget".into(),
        workload: "cpbn".into(),
        cores: 2,
        resources: 2,
        quanta: 3,
        budget: 0.1 + 0.2,
        faults: "noise=0.1,seed=3".into(),
    });
    let events = vec!["onset".to_string(), "shock".to_string()];
    for q in 0..3 {
        ledger.append(&LedgerRecord {
            quantum: q,
            phase: if q < 2 { "warmup" } else { "steady" },
            events: if q == 1 { &events } else { &[] },
            active: &[true, q != 2],
            budgets: &[100.0, 50.0 + q as f64],
            allocation: &[8.0, 40.0, 8.0 * q as f64, 1.0 / 3.0],
            efficiency: 1.5 + q as f64,
            envy_freeness: if q == 2 { f64::INFINITY } else { 0.9 },
            degraded: q == 2,
            fallback: false,
            converged: q != 2,
        });
    }
    ledger.seal();
    let text = assert_bytes("scenario.ledger", ledger.text());
    let summary = verify(&text).expect("fixture verifies");
    assert_eq!((summary.scenario.as_str(), summary.records), ("fixture", 3));
    assert!(valid_prefix(&text).sealed);
}
