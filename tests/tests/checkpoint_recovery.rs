//! Crash-recovery properties of the durable checkpoint layer: a faulted
//! 24-app simulation that is killed at **any** quantum boundary and
//! resumed from its latest snapshot must produce bit-identical results to
//! an uninterrupted run; corrupt snapshots must be rejected with typed
//! errors (never a panic) and the rotated `.prev` generation must take
//! over; and all of it must hold under every thread count (CI runs the
//! suite with `RAYON_NUM_THREADS` unset and set to 1).

use std::path::PathBuf;

use rebudget_core::mechanisms::{by_name, Mechanism, ReBudget};
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{DeadlineBudget, FaultPlan, RetryPolicy};
use rebudget_sim::checkpoint::CheckpointError;
use rebudget_sim::simulation::{
    run_simulation, run_simulation_recoverable, RecoveryOptions, SimError, SimOptions, SimResult,
};
use rebudget_sim::{DramConfig, SystemConfig};
use rebudget_workloads::{generate_bundle, Bundle, Category};

const QUANTA: usize = 5;

fn system() -> (SystemConfig, DramConfig) {
    (SystemConfig::scaled(24), DramConfig::ddr3_1600())
}

fn bundle_24() -> Bundle {
    generate_bundle(Category::Cpbn, 24, 0, 7).expect("24-core bundle")
}

fn opts() -> SimOptions {
    SimOptions {
        quanta: QUANTA,
        accesses_per_quantum: 4_000,
        budget: 100.0,
        use_monitors: true,
        seed: 23,
        faults: Some(
            FaultPlan::parse("noise=0.15,drop=0.1,stale=0.2,liars=2,seed=23").expect("valid spec"),
        ),
        ..SimOptions::default()
    }
}

fn mechanism() -> ReBudget {
    ReBudget::with_step(100.0, 40.0)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rebudget-recovery-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn assert_bit_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(
        a.efficiency.to_bits(),
        b.efficiency.to_bits(),
        "{what}: efficiency"
    );
    assert_eq!(
        a.envy_freeness.to_bits(),
        b.envy_freeness.to_bits(),
        "{what}: envy-freeness"
    );
    assert_eq!(
        a.efficiency_history.len(),
        b.efficiency_history.len(),
        "{what}: history"
    );
    for (q, (x, y)) in a
        .efficiency_history
        .iter()
        .zip(&b.efficiency_history)
        .enumerate()
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: history[{q}]");
    }
    for (i, (x, y)) in a.utilities.iter().zip(&b.utilities).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: utility[{i}]");
    }
    assert_eq!(a.fallback_quanta, b.fallback_quanta, "{what}: fallbacks");
    assert_eq!(a.degraded_quanta, b.degraded_quanta, "{what}: degraded");
    assert_eq!(a.solve, b.solve, "{what}: solve tally");
    assert_eq!(
        a.avg_equilibrium_rounds.to_bits(),
        b.avg_equilibrium_rounds.to_bits(),
        "{what}: mean rounds"
    );
    assert_eq!(
        a.avg_iterations.to_bits(),
        b.avg_iterations.to_bits(),
        "{what}: mean iterations"
    );
}

/// Kill-at-every-quantum: for each cut point `q`, emulate a crash right
/// after quantum `q`'s snapshot by running a truncated copy of the run
/// with checkpointing on, then resume the full run from that snapshot.
/// Every resumed run must be bit-identical to the uninterrupted
/// reference — this also proves the snapshot format round-trips the
/// fault plan, counters, and allocations exactly.
#[test]
fn kill_at_every_quantum_resume_is_bit_identical() {
    let reference = kill_at_every_quantum(&mechanism(), "every-quantum");
    assert!(
        reference.fallback_quanta + reference.degraded_quanta > 0
            || reference.solve.recoveries > 0
            || !reference.solve.converged
            || reference.efficiency > 0.0,
        "reference run completed"
    );
}

/// The same kill-and-resume sweep under an iteration deadline and a
/// two-attempt retry ladder, so the snapshot must carry non-zero retry
/// and timeout counts across the crash, not just the all-zero defaults.
#[test]
fn kill_at_every_quantum_resume_keeps_the_solve_tally() {
    let options = EquilibriumOptions {
        deadline: DeadlineBudget::iterations(3).expect("non-zero"),
        ..EquilibriumOptions::default()
    };
    let retry = Some(RetryPolicy::with_attempts(2));
    let mech = by_name("rebudget", 100.0, Some(40.0), &options, retry).expect("catalogue name");
    let reference = kill_at_every_quantum(mech.as_ref(), "every-quantum-bounded");
    let solve = reference.solve;
    assert!(
        solve.retries > 0 && solve.timed_out > 0 && !solve.converged,
        "the deadline and ladder must do work: {solve:?}"
    );
    assert!(reference.degraded_quanta > 0, "{reference:?}");
}

/// Runs the faulted reference, then kills and resumes it after every
/// quantum; each resumed run must match the reference bit for bit.
/// Returns the reference.
fn kill_at_every_quantum(mech: &dyn Mechanism, tag: &str) -> SimResult {
    let (sys, dram) = system();
    let bundle = bundle_24();
    let opts = opts();
    let dir = tmp_dir(tag);

    let reference = run_simulation(&sys, &dram, &bundle, mech, &opts).expect("reference run");
    for cut in 1..QUANTA {
        let path = dir.join(format!("cut-{cut}.ckpt"));
        let mut partial = opts.clone();
        partial.quanta = cut;
        run_simulation_recoverable(
            &sys,
            &dram,
            &bundle,
            mech,
            &partial,
            &RecoveryOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 1,
                resume: None,
            },
        )
        .expect("partial run");

        let resumed = run_simulation_recoverable(
            &sys,
            &dram,
            &bundle,
            mech,
            &opts,
            &RecoveryOptions {
                resume: Some(path),
                ..RecoveryOptions::default()
            },
        )
        .expect("resumed run");
        assert_eq!(resumed.replayed_quanta, cut, "cut at {cut}");
        assert!(
            !resumed.used_prev_generation,
            "cut at {cut}: live snapshot valid"
        );
        assert_bit_identical(&resumed, &reference, &format!("{tag}, cut at {cut}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    reference
}

/// Checkpointing itself must not perturb the run: a fully checkpointed
/// run reports the same bits as a plain one.
#[test]
fn checkpointing_does_not_perturb_results() {
    let (sys, dram) = system();
    let bundle = bundle_24();
    let opts = opts();
    let mech = mechanism();
    let dir = tmp_dir("no-perturb");
    let path = dir.join("full.ckpt");

    let plain = run_simulation(&sys, &dram, &bundle, &mech, &opts).expect("plain run");
    let checkpointed = run_simulation_recoverable(
        &sys,
        &dram,
        &bundle,
        &mech,
        &opts,
        &RecoveryOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every: 2,
            resume: None,
        },
    )
    .expect("checkpointed run");
    assert_bit_identical(&checkpointed, &plain, "checkpointed vs plain");

    // Resuming from the *final* snapshot replays the whole run without a
    // single market solve and still reports identical bits.
    let replayed = run_simulation_recoverable(
        &sys,
        &dram,
        &bundle,
        &mech,
        &opts,
        &RecoveryOptions {
            resume: Some(path),
            ..RecoveryOptions::default()
        },
    )
    .expect("full replay");
    assert_eq!(replayed.replayed_quanta, QUANTA);
    assert_bit_identical(&replayed, &plain, "full replay vs plain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted live snapshot must be rejected with a typed error and the
/// rotated `.prev` generation must seamlessly take over; with both
/// generations corrupt, resume fails with a typed error — never a panic.
#[test]
fn corrupt_snapshot_falls_back_to_prev_generation() {
    let (sys, dram) = system();
    let bundle = bundle_24();
    let opts = opts();
    let mech = mechanism();
    let dir = tmp_dir("corrupt");
    let path = dir.join("sim.ckpt");
    let prev = {
        let mut name = path.as_os_str().to_os_string();
        name.push(".prev");
        PathBuf::from(name)
    };

    let reference = run_simulation(&sys, &dram, &bundle, &mech, &opts).expect("reference run");

    // Checkpoint every quantum for 3 quanta: live snapshot holds 3, the
    // rotated generation holds 2.
    let mut partial = opts.clone();
    partial.quanta = 3;
    run_simulation_recoverable(
        &sys,
        &dram,
        &bundle,
        &mech,
        &partial,
        &RecoveryOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every: 1,
            resume: None,
        },
    )
    .expect("partial run");
    assert!(prev.exists(), "rotation produced a .prev generation");

    // Truncate the live snapshot mid-file (torn write).
    let text = std::fs::read_to_string(&path).expect("read snapshot");
    std::fs::write(&path, &text[..text.len() / 2]).expect("corrupt snapshot");

    let resumed = run_simulation_recoverable(
        &sys,
        &dram,
        &bundle,
        &mech,
        &opts,
        &RecoveryOptions {
            resume: Some(path.clone()),
            ..RecoveryOptions::default()
        },
    )
    .expect("resume from .prev");
    assert!(resumed.used_prev_generation, "fallback generation used");
    assert_eq!(resumed.replayed_quanta, 2, "prev generation holds 2 quanta");
    assert_bit_identical(&resumed, &reference, "resume via .prev");

    // Corrupt the fallback too: typed error, no panic, and the *live*
    // file's failure is what gets reported.
    std::fs::write(&prev, "not a checkpoint at all").expect("corrupt prev");
    let errr = run_simulation_recoverable(
        &sys,
        &dram,
        &bundle,
        &mech,
        &opts,
        &RecoveryOptions {
            resume: Some(path),
            ..RecoveryOptions::default()
        },
    )
    .expect_err("both generations corrupt");
    match errr {
        SimError::Checkpoint(CheckpointError::Format { .. } | CheckpointError::Checksum { .. }) => {
        }
        other => panic!("expected a format/checksum error, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A bit-flip (rather than truncation) anywhere in the body is caught by
/// the FNV-1a trailer.
#[test]
fn bitflip_is_caught_by_the_checksum() {
    let (sys, dram) = system();
    let bundle = bundle_24();
    let mut opts = opts();
    opts.quanta = 2;
    let dir = tmp_dir("bitflip");
    let path = dir.join("sim.ckpt");
    // checkpoint_every = quanta: exactly one snapshot is written, so no
    // .prev generation exists and the checksum error must surface.
    run_simulation_recoverable(
        &sys,
        &dram,
        &bundle,
        &mechanism(),
        &opts,
        &RecoveryOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every: 2,
            resume: None,
        },
    )
    .expect("checkpointed run");

    let mut text = std::fs::read_to_string(&path).expect("read snapshot");
    let at = text.find("eff=").expect("an efficiency record") + "eff=".len();
    let original = text.as_bytes()[at];
    let flipped = if original == b'0' { '1' } else { '0' };
    text.replace_range(at..at + 1, &flipped.to_string());
    std::fs::write(&path, &text).expect("write corrupted");
    // No .prev here (first generation): the typed checksum error surfaces.
    let errr = run_simulation_recoverable(
        &sys,
        &dram,
        &bundle,
        &mechanism(),
        &opts,
        &RecoveryOptions {
            resume: Some(path),
            ..RecoveryOptions::default()
        },
    )
    .expect_err("bit-flipped snapshot");
    assert!(
        matches!(errr, SimError::Checkpoint(CheckpointError::Checksum { .. })),
        "got {errr:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Helper for corruption tests that must keep the checksum valid: strips
/// the `[checksum]` trailer, applies `edit` to the body, and re-seals
/// with a freshly computed FNV-1a — so the *structural* validation layer
/// (not the checksum) is what gets exercised.
fn reseal(text: &str, edit: impl FnOnce(&mut String)) -> String {
    let trailer_at = text.rfind("[checksum]\n").expect("trailer present");
    let mut body = text[..trailer_at].to_string();
    edit(&mut body);
    let sum = rebudget_sim::durable::fnv1a(body.as_bytes());
    body.push_str(&format!("[checksum]\nfnv1a={sum:016x}\n"));
    body
}

fn checkpoint_after(quanta: usize, dir: &std::path::Path) -> PathBuf {
    let (sys, dram) = system();
    let bundle = bundle_24();
    let mut partial = opts();
    partial.quanta = quanta;
    let path = dir.join(format!("seed-{quanta}.ckpt"));
    run_simulation_recoverable(
        &sys,
        &dram,
        &bundle,
        &mechanism(),
        &partial,
        &RecoveryOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every: quanta,
            resume: None,
        },
    )
    .expect("seed run");
    path
}

/// Chopping the file inside the `[checksum]` trailer itself (after the
/// tag but before the digest) must be reported as a *format* error — a
/// torn write at the very last line, the most likely real-world tear.
#[test]
fn truncated_trailer_is_a_typed_format_error() {
    let dir = tmp_dir("trailer");
    let path = checkpoint_after(2, &dir);
    let text = std::fs::read_to_string(&path).expect("read snapshot");

    // Cut right after the "[checksum]\n" tag: tag present, digest gone.
    let cut = text.rfind("[checksum]\n").expect("trailer") + "[checksum]\n".len();
    std::fs::write(&path, &text[..cut]).expect("truncate trailer");
    let err = rebudget_sim::checkpoint::SimCheckpoint::load(&path)
        .expect_err("digestless trailer rejected");
    match &err {
        CheckpointError::Format { reason, .. } => {
            assert!(
                reason.contains("fnv1a"),
                "reason names the digest: {reason}"
            )
        }
        other => panic!("expected Format, got {other:?}"),
    }

    // Cut *before* the tag: no trailer at all.
    std::fs::write(&path, &text[..cut - "[checksum]\n".len()]).expect("drop trailer");
    let err = rebudget_sim::checkpoint::SimCheckpoint::load(&path).expect_err("missing trailer");
    match &err {
        CheckpointError::Format { reason, .. } => {
            assert!(reason.contains("truncated"), "{reason}")
        }
        other => panic!("expected Format, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A duplicated `[quantum N]` section with a *valid* checksum must be
/// caught by the structural pass (sections must be dense and in order),
/// not waved through to corrupt a resume.
#[test]
fn duplicated_quantum_section_is_rejected_despite_valid_checksum() {
    let dir = tmp_dir("dup-quantum");
    let path = checkpoint_after(2, &dir);
    let text = std::fs::read_to_string(&path).expect("read snapshot");

    let start = text.find("[quantum 1]").expect("second quantum section");
    let end = text.rfind("[checksum]\n").expect("trailer");
    let section = text[start..end].to_string();
    let resealed = reseal(&text, |body| body.push_str(&section));
    std::fs::write(&path, resealed).expect("write duplicated");

    let err = rebudget_sim::checkpoint::SimCheckpoint::load(&path)
        .expect_err("duplicate section rejected");
    match &err {
        CheckpointError::Format { reason, .. } => {
            assert!(reason.contains("out of order"), "{reason}")
        }
        other => panic!("expected Format (not checksum!), got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Structurally-corrupt-but-checksum-valid primaries must also trigger
/// the `.prev` fallback, exactly like checksum failures do.
#[test]
fn prev_fallback_covers_structural_corruption_too() {
    let (sys, dram) = system();
    let bundle = bundle_24();
    let opts = opts();
    let dir = tmp_dir("dup-fallback");
    let path = dir.join("sim.ckpt");

    // Snapshot every quantum for 3: live holds 3 quanta, .prev holds 2.
    let mut partial = opts.clone();
    partial.quanta = 3;
    run_simulation_recoverable(
        &sys,
        &dram,
        &bundle,
        &mechanism(),
        &partial,
        &RecoveryOptions {
            checkpoint: Some(path.clone()),
            checkpoint_every: 1,
            resume: None,
        },
    )
    .expect("seed run");

    let text = std::fs::read_to_string(&path).expect("read snapshot");
    let start = text.find("[quantum 1]").expect("quantum section");
    let end = text.rfind("[checksum]\n").expect("trailer");
    let section = text[start..end].to_string();
    std::fs::write(&path, reseal(&text, |body| body.push_str(&section))).expect("write duplicated");

    let reference = run_simulation(&sys, &dram, &bundle, &mechanism(), &opts).expect("reference");
    let resumed = run_simulation_recoverable(
        &sys,
        &dram,
        &bundle,
        &mechanism(),
        &opts,
        &RecoveryOptions {
            resume: Some(path),
            ..RecoveryOptions::default()
        },
    )
    .expect("resume via .prev");
    assert!(resumed.used_prev_generation, "fallback generation used");
    assert_eq!(resumed.replayed_quanta, 2, "prev generation holds 2 quanta");
    assert_bit_identical(&resumed, &reference, "resume after structural corruption");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The iteration/round counters are 64-bit end to end: a snapshot whose
/// counters exceed `u32::MAX` round-trips exactly (pointer width or a
/// careless narrowing cast must never clip long-horizon runs).
#[test]
fn counters_beyond_u32_round_trip_through_the_snapshot() {
    let dir = tmp_dir("u64-counters");
    let path = checkpoint_after(2, &dir);
    let text = std::fs::read_to_string(&path).expect("read snapshot");

    const BIG: u64 = 5_000_000_123; // > u32::MAX
    let resealed = reseal(&text, |body| {
        let at = body.find("total_iterations=").expect("counter record");
        let nl = body[at..].find('\n').expect("line end") + at;
        body.replace_range(at..nl, &format!("total_iterations={BIG}"));
    });
    std::fs::write(&path, resealed).expect("write big counters");

    let cp = rebudget_sim::checkpoint::SimCheckpoint::load(&path).expect("valid snapshot");
    assert_eq!(cp.counters.solve.iterations, BIG);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sweep killed after three of its six points resumes from its sweep
/// checkpoint: the resumed run reuses exactly those three points,
/// recomputes the rest, and prints the uninterrupted golden table byte
/// for byte.
#[test]
fn sweep_resume_from_partial_checkpoint_matches_golden() {
    use rebudget_sim::checkpoint::SweepCheckpoint;
    let dir = tmp_dir("sweep-resume");
    let path = dir.join("sweep.ckpt");
    let args = |flag: &str| -> Vec<String> {
        ["sweep", "cpbn", "8", flag]
            .iter()
            .map(|s| s.to_string())
            .collect()
    };
    rebudget_cli::run(&args(&format!("--checkpoint={}", path.display())))
        .expect("checkpointed sweep");

    // Simulate a kill after point 2: drop every later point.
    let mut cp = SweepCheckpoint::load(&path).expect("sweep checkpoint");
    assert_eq!(cp.points.len(), 6);
    for point in &mut cp.points[3..] {
        *point = None;
    }
    cp.save(&path).expect("save partial checkpoint");

    let (out, notes) = rebudget_cli::run_with_notes(&args(&format!("--resume={}", path.display())))
        .expect("resumed sweep");
    let golden = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/sweep_cpbn.txt"),
    )
    .expect("golden sweep table");
    assert!(out == golden, "resumed stdout:\n{out}\ngolden:\n{golden}");
    assert!(
        notes.iter().any(|n| n.contains("3 of 6 points reused")),
        "{notes:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
