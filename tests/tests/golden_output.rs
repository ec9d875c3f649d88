//! Golden-output regression tests for the CLI.
//!
//! Each file under `tests/golden/` is the reference stdout of one CLI
//! invocation on a fixed seed. The harness re-runs the command in-process
//! via [`rebudget_cli::run`] and diffs byte-for-byte, so ANY change to
//! the rendered numbers, column layout, or fingerprints fails loudly and
//! has to be re-blessed by regenerating the file.
//!
//! The same files hold under every thread count: the parallel fan-out
//! is bit-identical to the serial path by construction, so one set of
//! goldens covers any `RAYON_NUM_THREADS`. The `--mechanism=rebudget` goldens end in a `fingerprint` line
//! — an FNV-1a digest over the run's full bit patterns — which upgrades
//! the textual diff to a bit-exactness proof for the allocations.

use std::path::{Path, PathBuf};

#[allow(clippy::expect_used)]
fn run_cli(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    rebudget_cli::run(&argv).expect("golden command succeeds")
}

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

#[allow(clippy::expect_used)]
fn golden(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()))
}

/// The golden commands: (file, argv). Three fixed seeds for simulate,
/// one all-mechanism table, and two sweep categories.
const GOLDENS: &[(&str, &[&str])] = &[
    (
        "simulate_bbpc_rebudget_seed1.txt",
        &[
            "simulate",
            "bbpc",
            "8",
            "3",
            "--mechanism=rebudget",
            "--seed=1",
        ],
    ),
    (
        "simulate_bbpc_rebudget_seed7.txt",
        &[
            "simulate",
            "bbpc",
            "8",
            "3",
            "--mechanism=rebudget",
            "--seed=7",
        ],
    ),
    (
        "simulate_cpbn_rebudget_seed42.txt",
        &[
            "simulate",
            "cpbn",
            "8",
            "4",
            "--mechanism=rebudget",
            "--seed=42",
        ],
    ),
    ("simulate_bbpc_all.txt", &["simulate", "bbpc", "8", "2"]),
    ("sweep_bbpc.txt", &["sweep", "bbpc", "8"]),
    ("sweep_cpbn.txt", &["sweep", "cpbn", "8"]),
];

#[test]
fn cli_output_matches_goldens_byte_for_byte() {
    for (file, args) in GOLDENS {
        let expected = golden(file);
        let actual = run_cli(args);
        assert_eq!(
            actual, expected,
            "stdout for {args:?} diverged from tests/golden/{file}; \
             if the change is intentional, regenerate the golden file"
        );
    }
}

/// Tracing is pure observation: running every simulate golden with
/// `--trace` must leave stdout — including the bit-exact fingerprint
/// line — byte-identical to the untraced golden, and the journal must
/// validate against the closed event schema.
#[test]
#[allow(clippy::expect_used)]
fn traced_runs_match_goldens_bit_for_bit() {
    let dir = std::env::temp_dir().join(format!("rebudget-golden-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (file, args) in GOLDENS {
        if args[0] != "simulate" {
            continue;
        }
        let trace = dir.join(format!("{file}.jsonl"));
        let trace_flag = format!("--trace={}", trace.display());
        let mut traced_args: Vec<&str> = args.to_vec();
        traced_args.push(&trace_flag);
        let out = run_cli(&traced_args);
        assert_eq!(
            out,
            golden(file),
            "tracing changed stdout for {args:?} (fingerprint = allocation bits)"
        );
        let text = std::fs::read(&trace).expect("trace written");
        let summary =
            rebudget_telemetry::schema::validate_stream(&text).expect("schema-valid journal");
        assert!(summary.events > 0, "journal for {args:?} is empty");
        assert_eq!(
            summary.torn_bytes, 0,
            "a finished run's trace ends at a line end"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The golden table must keep covering every command shape it was born
/// with — deleting a golden file cannot silently shrink coverage.
#[test]
fn golden_directory_and_table_agree() {
    #[allow(clippy::expect_used)]
    let on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("golden dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".txt"))
        .collect();
    for (file, _) in GOLDENS {
        assert!(
            on_disk.iter().any(|n| n == file),
            "golden file {file} listed in the table but missing on disk"
        );
    }
    assert_eq!(
        on_disk.len(),
        GOLDENS.len(),
        "tests/golden/ has files the table doesn't check: {on_disk:?}"
    );
}
