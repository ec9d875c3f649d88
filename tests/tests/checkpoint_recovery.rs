//! Crash-recovery properties of the durable checkpoint log: a faulted
//! 24-app simulation that is killed at **any** quantum boundary and
//! resumed from its log must produce bit-identical results to an
//! uninterrupted run; a log cut at any byte or with any record damaged
//! resumes from the records before the damage, bit-identically, and a
//! run checkpointing into it restores its bytes; a damaged meta section
//! is refused; appends cost O(record);
//! and all of it must hold under every thread count (CI runs the suite
//! with `RAYON_NUM_THREADS` unset and set to 1).

use std::path::{Path, PathBuf};

use rebudget_core::mechanisms::{by_name, Mechanism, ReBudget};
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{AllocationMatrix, DeadlineBudget, FaultPlan, Market, RetryPolicy};
use rebudget_sim::checkpoint::{CheckpointError, SimCheckpoint, SIM_LOG, SWEEP_LOG};
use rebudget_sim::simulation::{
    run_simulation, run_simulation_hooked, run_simulation_recoverable, QuantumControls,
    QuantumHook, QuantumObservation, RecoveryOptions, SimError, SimOptions, SimResult,
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

/// A small faulted run for the byte-level damage tests: four cores and
/// six quanta, so every damaged copy resumes in milliseconds.
struct Small {
    sys: SystemConfig,
    dram: DramConfig,
    bundle: Bundle,
    opts: SimOptions,
}

const SMALL_QUANTA: usize = 6;

impl Small {
    fn new() -> Self {
        let mut opts = opts();
        opts.quanta = SMALL_QUANTA;
        opts.accesses_per_quantum = 2_000;
        Self {
            sys: SystemConfig::scaled(4),
            dram: DramConfig::ddr3_1600(),
            bundle: generate_bundle(Category::Cpbn, 4, 0, 7).expect("4-core bundle"),
            opts,
        }
    }

    /// Runs the first `quanta` quanta under `recovery`.
    fn run(&self, quanta: usize, recovery: &RecoveryOptions) -> Result<SimResult, SimError> {
        let mut opts = self.opts.clone();
        opts.quanta = quanta;
        run_simulation_recoverable(
            &self.sys,
            &self.dram,
            &self.bundle,
            &mechanism(),
            &opts,
            recovery,
        )
    }

    /// Writes the uninterrupted run's checkpoint log to `path` and returns
    /// the run and the log's bytes.
    fn checkpointed(&self, path: &Path) -> (SimResult, Vec<u8>) {
        let run = self
            .run(SMALL_QUANTA, &checkpoint_into(path))
            .expect("checkpointed run");
        (run, std::fs::read(path).expect("checkpoint log"))
    }

    /// Resumes the full run from `path`, checkpointing back into it.
    fn resume_in_place(&self, path: &Path) -> Result<SimResult, SimError> {
        self.run(
            SMALL_QUANTA,
            &RecoveryOptions {
                checkpoint: Some(path.to_path_buf()),
                resume: Some(path.to_path_buf()),
            },
        )
    }
}

fn checkpoint_into(path: &Path) -> RecoveryOptions {
    RecoveryOptions {
        checkpoint: Some(path.to_path_buf()),
        resume: None,
    }
}

/// A run killed mid-append leaves a torn last record. Cut at every byte
/// offset inside the last two records, the log resumes from the records
/// before the cut, bit-identically, and checkpointing back into it
/// restores the uninterrupted log byte for byte.
#[test]
fn torn_tail_resumes_bit_identically() {
    let small = Small::new();
    let dir = tmp_dir("torn-tail");
    let path = dir.join("run.ckpt");
    let (reference, log) = small.checkpointed(&path);
    let prefix = SIM_LOG.valid_prefix(&log);
    assert_eq!((prefix.records, prefix.bytes), (SMALL_QUANTA, log.len()));
    for cut in prefix.cut(SMALL_QUANTA - 2)..log.len() {
        std::fs::write(&path, &log[..cut]).expect("torn copy");
        let whole = prefix.record_ends.iter().filter(|&&end| end <= cut).count();
        let resumed = small.resume_in_place(&path).expect("resume");
        assert_eq!(resumed.replayed_quanta, whole, "cut at byte {cut}");
        assert_bit_identical(&resumed, &reference, &format!("cut at byte {cut}"));
        assert!(
            std::fs::read(&path).expect("log") == log,
            "cut at byte {cut}: the continued log differs"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte inside any record breaks that record's chain: the
/// resume replays exactly the records before it, bit-identically, and
/// checkpointing back into the file rewrites the damaged tail.
#[test]
fn bitflip_is_caught_by_the_checksum() {
    let small = Small::new();
    let dir = tmp_dir("bitflip");
    let path = dir.join("run.ckpt");
    let (reference, log) = small.checkpointed(&path);
    let prefix = SIM_LOG.valid_prefix(&log);
    for record in 0..SMALL_QUANTA {
        // A digit in the middle of the record's allocation words.
        let at = (prefix.cut(record) + prefix.cut(record + 1)) / 2;
        let mut damaged = log.clone();
        damaged[at] ^= 1;
        std::fs::write(&path, &damaged).expect("damaged copy");
        let resumed = small.resume_in_place(&path).expect("resume");
        assert_eq!(resumed.replayed_quanta, record, "flip in record {record}");
        assert_bit_identical(&resumed, &reference, &format!("flip in record {record}"));
        assert!(std::fs::read(&path).expect("log") == log, "record {record}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint in the retired whole-file format (`rebudget-checkpoint v1
/// sim`, rewritten and rotated to `.prev` on every quantum) is refused
/// with a typed error naming its header, and the file is left as it was,
/// even by a run told to checkpoint into it.
#[test]
fn v1_checkpoint_is_refused_unchanged() {
    let v1 =
        std::fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("golden/durable/sim-v1.ckpt"))
            .expect("v1 fixture");
    let dir = tmp_dir("v1");
    let path = dir.join("old.ckpt");
    std::fs::write(&path, &v1).expect("install v1 checkpoint");
    let err = Small::new().resume_in_place(&path).expect_err("v1 refused");
    match &err {
        SimError::Checkpoint(CheckpointError::Format { line: 1, reason }) => assert!(
            reason.contains("'rebudget-checkpoint v1 sim'")
                && reason.contains("'rebudget-checkpoint v2 sim'"),
            "{reason}"
        ),
        other => panic!("expected a header error, got {other:?}"),
    }
    assert!(
        err.to_string().contains("rebudget-checkpoint v1 sim"),
        "{err}"
    );
    assert_eq!(std::fs::read(&path).expect("file kept"), v1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Meta lines carry no checksum of their own; the first record's chain
/// covers them. Damage there, or in the first record's opener (whose
/// lines are then read as meta), leaves no valid record and a meta that
/// is not the run's: the resume is refused with a typed error and the
/// file is left as it was, even by a run told to checkpoint into it.
#[test]
fn damaged_meta_is_refused_unchanged() {
    let small = Small::new();
    let dir = tmp_dir("meta");
    let path = dir.join("run.ckpt");
    let (_, log) = small.checkpointed(&path);
    let text = std::str::from_utf8(&log).expect("utf-8 log");
    let mechanism = text.find("mechanism=").expect("mechanism key") + "mechanism=".len();
    let opener = text.find("[quantum 0]").expect("first record") + 1;
    for at in [mechanism, opener] {
        let mut damaged = log.clone();
        damaged[at] ^= 1;
        std::fs::write(&path, &damaged).expect("damaged copy");
        let err = small
            .resume_in_place(&path)
            .expect_err("damaged meta refused");
        assert!(
            matches!(
                err,
                SimError::Checkpoint(
                    CheckpointError::ConfigMismatch { .. } | CheckpointError::Format { .. }
                )
            ),
            "flip at byte {at}: {err:?}"
        );
        assert!(
            std::fs::read(&path).expect("file kept") == damaged,
            "flip at byte {at}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Records the checkpoint file's size and inode after every quantum (a
/// hook observes a quantum after its record is appended).
struct FileSizes {
    path: PathBuf,
    seen: Vec<(u64, u64)>,
}

impl QuantumHook for FileSizes {
    fn control(&mut self, _quantum: usize, _controls: &mut QuantumControls) {}
    fn observe(&mut self, _observation: &QuantumObservation) {
        use std::os::unix::fs::MetadataExt;
        let meta = std::fs::metadata(&self.path).expect("checkpoint file");
        self.seen.push((meta.len(), meta.ino()));
    }
    fn observe_final(&mut self, _market: &Market, _allocation: &AllocationMatrix) {}
}

/// Appends are O(record): from quantum N to 2N the file, never replaced,
/// grows by exactly the bytes of the records appended, one record per
/// quantum, and a record's size does not grow with the quantum index.
#[test]
fn appends_grow_the_file_by_one_record() {
    let small = Small::new();
    let dir = tmp_dir("append-cost");
    let path = dir.join("run.ckpt");
    let mut hook = FileSizes {
        path: path.clone(),
        seen: Vec::new(),
    };
    run_simulation_hooked(
        &small.sys,
        &small.dram,
        &small.bundle,
        &mechanism(),
        &small.opts,
        &checkpoint_into(&path),
        &mut hook,
    )
    .expect("checkpointed run");
    let log = std::fs::read(&path).expect("checkpoint log");
    let prefix = SIM_LOG.valid_prefix(&log);
    let n = SMALL_QUANTA / 2;
    let (sizes, inodes): (Vec<u64>, Vec<u64>) = hook.seen.into_iter().unzip();
    assert!(inodes.iter().all(|&ino| ino == inodes[0]), "{inodes:?}");
    for q in 0..SMALL_QUANTA {
        assert_eq!(sizes[q] as usize, prefix.cut(q + 1), "after quantum {q}");
    }
    assert_eq!(
        (sizes[2 * n - 1] - sizes[n - 1]) as usize,
        prefix.cut(2 * n) - prefix.cut(n)
    );
    let lengths: Vec<usize> = (0..SMALL_QUANTA)
        .map(|q| prefix.cut(q + 1) - prefix.cut(q))
        .collect();
    let (shortest, longest) = (lengths.iter().min(), lengths.iter().max());
    assert!(
        longest.zip(shortest).is_some_and(|(l, s)| l - s <= 16),
        "{lengths:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resuming into a file other than the one resumed from starts it anew
/// and writes the replayed records there first: it ends byte-identical
/// to an uninterrupted run's log, and the source file is not touched.
#[test]
fn resume_into_another_file_copies_the_replayed_records() {
    let small = Small::new();
    let dir = tmp_dir("other-file");
    let (whole, partial, copy) = (
        dir.join("whole.ckpt"),
        dir.join("partial.ckpt"),
        dir.join("copy.ckpt"),
    );
    let (reference, log) = small.checkpointed(&whole);
    small
        .run(3, &checkpoint_into(&partial))
        .expect("partial run");
    let partial_bytes = std::fs::read(&partial).expect("partial log");
    let resumed = small
        .run(
            SMALL_QUANTA,
            &RecoveryOptions {
                checkpoint: Some(copy.clone()),
                resume: Some(partial.clone()),
            },
        )
        .expect("resume into another file");
    assert_eq!(resumed.replayed_quanta, 3);
    assert_bit_identical(&resumed, &reference, "resumed into another file");
    assert!(std::fs::read(&copy).expect("copy") == log);
    assert!(std::fs::read(&partial).expect("partial") == partial_bytes);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `body`, a log up to a record's `chain=` line, closed with a valid
/// link, so only the structural checks (not the chain) can reject it.
fn close_record(body: &str) -> String {
    let link = rebudget_sim::durable::fnv1a(body.as_bytes());
    format!("{body}chain={link:016x}\n")
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
        &checkpoint_into(&path),
    )
    .expect("seed run");
    path
}

/// A duplicated `[quantum N]` record with a *valid* chain must be caught
/// by the structural pass (records must be dense and in order), not
/// waved through to corrupt a resume.
#[test]
fn duplicated_quantum_section_is_rejected_despite_valid_checksum() {
    let dir = tmp_dir("dup-quantum");
    let path = checkpoint_after(2, &dir);
    let text = std::fs::read_to_string(&path).expect("read log");

    let start = text.find("[quantum 1]").expect("second quantum record");
    let record = &text[start..text.rfind("chain=").expect("its chain")];
    let duplicated = close_record(&format!("{text}{record}"));
    assert_eq!(SIM_LOG.valid_prefix(duplicated.as_bytes()).records, 3);
    std::fs::write(&path, duplicated).expect("write duplicated");

    let err = SimCheckpoint::load(&path).expect_err("duplicate record rejected");
    match &err {
        CheckpointError::Format { reason, .. } => {
            assert!(reason.contains("out of order"), "{reason}")
        }
        other => panic!("expected Format, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The iteration/round counters are 64-bit end to end: a record whose
/// counters exceed `u32::MAX` round-trips exactly (pointer width or a
/// careless narrowing cast must never clip long-horizon runs).
#[test]
fn counters_beyond_u32_round_trip_through_the_snapshot() {
    let dir = tmp_dir("u64-counters");
    let path = checkpoint_after(2, &dir);
    let text = std::fs::read_to_string(&path).expect("read log");

    const BIG: u64 = 5_000_000_123; // > u32::MAX
    let mut body = text[..text.rfind("chain=").expect("a record")].to_string();
    let at = body.rfind("total_iterations=").expect("counter line");
    let nl = body[at..].find('\n').expect("line end") + at;
    body.replace_range(at..nl, &format!("total_iterations={BIG}"));
    let rechained = close_record(&body);
    std::fs::write(&path, rechained).expect("write big counters");

    let cp = SimCheckpoint::load(&path).expect("valid log");
    assert_eq!(cp.quanta.len(), 2);
    assert_eq!(cp.quanta[1].counters.solve.iterations, BIG);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A sweep killed while appending its fourth point resumes from its
/// checkpoint log: the resumed run reuses exactly the three whole
/// points, recomputes the rest, and prints the uninterrupted golden
/// table byte for byte.
#[test]
fn sweep_resume_from_partial_checkpoint_matches_golden() {
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

    // Simulate a kill mid-way through appending point 3.
    let log = std::fs::read(&path).expect("sweep log");
    let prefix = SWEEP_LOG.valid_prefix(&log);
    assert_eq!(prefix.records, 6);
    std::fs::write(&path, &log[..prefix.cut(3) + 40]).expect("torn log");

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
    // The resumed sweep continued its own log back to the whole thing.
    assert!(std::fs::read(&path).expect("sweep log") == log);
    let _ = std::fs::remove_dir_all(&dir);
}
