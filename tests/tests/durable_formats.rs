//! Byte pins of every durable format in the workspace.
//!
//! Each file under `tests/golden/durable/` is one durable artifact — a
//! sim checkpoint log, a sweep checkpoint log, a server snapshot, a
//! sealed server ledger and a sealed scenario ledger — rendered from
//! fixed inputs. Each test re-renders its artifact from the same inputs,
//! requires the bytes to match the fixture exactly, and decodes the
//! fixture back. A codec change that moves a single byte of any format
//! fails here. (`sim-v1.ckpt` is the retired whole-file checkpoint
//! format, kept to show that it is refused.)

use std::path::{Path, PathBuf};

use rebudget_core::mechanisms::SolveSummary;
use rebudget_core::sweep::SweepPoint;
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{FaultPlan, RetryPolicy, SolverKind};
use rebudget_scenario::ledger::{append, verify, LedgerMeta, LedgerRecord};
use rebudget_scenario::valid_prefix;
use rebudget_server::{Request, ServerConfig, ServerCore, WorkloadSpec};
use rebudget_sim::checkpoint::{
    write_point, write_quantum, QuantumRecord, SimCheckpoint, SimCounters, SimMeta,
    SweepCheckpoint, SweepMeta, SIM_LOG, SWEEP_LOG,
};
use rebudget_sim::durable::Ledger;

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
    let meta = SimMeta {
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
            FaultPlan::parse("noise=0.15,drop=0.1,stale=0.2,liars=2,seed=23").expect("valid spec"),
        ),
    };
    let counters = |rounds: u64, iterations: u64, degraded: usize| SimCounters {
        solve: SolveSummary {
            converged: degraded == 0,
            rounds,
            iterations,
            recoveries: 2,
            retries: 1,
            timed_out: 0,
        },
        consecutive_failures: degraded,
        fallback_quanta: 0,
        degraded_quanta: degraded,
    };
    let quanta = vec![
        QuantumRecord {
            allocation: vec![8.0, 40.0, 8.0, 40.0],
            efficiency: 1.75,
            counters: counters(3, 41, 0),
        },
        QuantumRecord {
            allocation: vec![10.5, 35.25, -0.0, f64::MIN_POSITIVE / 8.0],
            efficiency: 0.1 + 0.2,
            counters: counters(6, 90, 1),
        },
        QuantumRecord {
            allocation: vec![1.0 / 3.0, 2.0 / 3.0, f64::INFINITY, 1e300],
            efficiency: std::f64::consts::PI,
            counters: counters(9, 5_000_000_123, 1),
        },
    ];
    let mut log = Ledger::new(SIM_LOG, |w| meta.render(w));
    for (q, r) in quanta.iter().enumerate() {
        log.append_section(q, |w| {
            write_quantum(w, &r.allocation, r.efficiency, &r.counters);
        });
    }
    let text = assert_bytes("sim.ckpt", log.text());
    let parsed = SimCheckpoint::parse(text.as_bytes()).expect("fixture decodes");
    assert_eq!((parsed.meta, parsed.quanta), (meta, quanta));
    assert_eq!(
        (parsed.prefix.records, parsed.prefix.bytes),
        (3, text.len())
    );
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
            converged: step < 10.0,
            rounds: 3,
            iterations: 57,
            recoveries: 0,
            retries: 1,
            timed_out: 0,
        },
    };
    let meta = SweepMeta {
        category: "cpbn".into(),
        cores: 8,
        base_budget: 100.0,
        normalize: true,
        steps: vec![0.0, 5.0, 10.0, 20.0],
    };
    // Three of the four points: the log of a sweep killed before its
    // last point.
    let points = vec![
        point(0.0, None),
        point(5.0, Some(6.55 / 7.25)),
        point(10.0, Some(6.6 / 7.25)),
    ];
    let mut log = Ledger::new(SWEEP_LOG, |w| meta.render(w));
    for (k, p) in points.iter().enumerate() {
        log.append_section(k, |w| write_point(w, 7.25, p));
    }
    let text = assert_bytes("sweep.ckpt", log.text());
    let parsed = SweepCheckpoint::parse(text.as_bytes()).expect("fixture decodes");
    assert_eq!((parsed.meta, parsed.points), (meta, points));
    assert_eq!(parsed.oracle, Some(7.25));
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
    let mut ledger = LedgerMeta {
        scenario: "fixture".into(),
        seed: 3,
        mechanism: "rebudget".into(),
        workload: "cpbn".into(),
        cores: 2,
        resources: 2,
        quanta: 3,
        budget: 0.1 + 0.2,
        faults: "noise=0.1,seed=3".into(),
    }
    .start();
    let events = vec!["onset".to_string(), "shock".to_string()];
    for q in 0..3 {
        append(
            &mut ledger,
            &LedgerRecord {
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
            },
        );
    }
    ledger.seal();
    let text = assert_bytes("scenario.ledger", ledger.text());
    let summary = verify(&text).expect("fixture verifies");
    assert_eq!((summary.scenario.as_str(), summary.records), ("fixture", 3));
    assert!(valid_prefix(&text).sealed);
}

/// SHA-256 of `bytes`, as 64 lowercase hex digits (FIPS 180-4); matches
/// `sha256sum`, so a pinned digest can be checked from the shell.
fn sha256_hex(bytes: &[u8]) -> String {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut msg = bytes.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&(bytes.len() as u64 * 8).to_be_bytes());
    for block in msg.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (t, word) in block.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            (hh, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (state, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *state = state.wrapping_add(v);
        }
    }
    h.iter().map(|v| format!("{v:08x}")).collect()
}

#[test]
fn sha256_matches_reference_vectors() {
    assert_eq!(
        sha256_hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    let long = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
    assert_eq!(
        sha256_hex(long),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

/// A mid-size daemon state dir: 20 ticks of a 2000-player churn workload
/// with interest updates, over 64 resources. Pins the ledger and the
/// final snapshot by SHA-256, so any change to the per-tick solve, the
/// record or the snapshot encoding at a realistic size fails here.
#[test]
#[allow(clippy::expect_used)]
fn mid_size_daemon_state_dir_is_byte_stable() {
    let dir = tmp_dir("mid-size");
    let spec = WorkloadSpec {
        seed: 2024,
        initial_players: 2_000,
        resources: 64,
        arrivals_per_tick: 20,
        mean_lifetime: 20,
        update_percent: 2,
    };
    let mut config = server_config(vec![100.0; spec.resources]);
    config.options.price_tolerance = 1e-4;
    let mut core = ServerCore::open(config, &dir).expect("open");
    let (mut updates, mut departures) = (0, 0);
    for tick in 0..20 {
        let commands = spec.commands_for_tick(tick);
        for cmd in &commands {
            updates += usize::from(cmd.cmd() == "update");
            departures += usize::from(cmd.cmd() == "depart");
            core.apply(cmd).expect("workload command applies");
        }
        assert!(core.tick(commands.len()).expect("tick").converged);
    }
    assert!(updates > 0 && departures > 0, "the workload must churn");
    drop(core);
    let read = |name: &str| std::fs::read(dir.join(name)).expect("state file");
    let (ledger, snapshot) = (read("server.ledger"), read("server.snapshot"));
    assert_eq!(
        (sha256_hex(&ledger), sha256_hex(&snapshot)),
        (
            "5435aa33d4cb7e0a9e7dc6cae41d76334d9c666b096f17353a4eb30b403f3723".to_string(),
            "9fad66e35031c6ce51f049ccf07020052d21364810fa4a31a1b12aa30f391a14".to_string()
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}
