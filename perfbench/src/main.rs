//! The repository's benchmark driver: one workload per invocation, its
//! correctness gates, and one JSON result line.
//!
//! `perfbench/run.py` builds this binary and the `rebudget` daemon, then
//! runs
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --root DIR --daemon PATH [--size full|smoke]
//! ```
//!
//! from the repository root. With `--trace 0` the last stdout line carries
//! the workload's end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics, every one on either workload, measured in a
//! separate run.
//! Every other stdout line is a human-readable note. The exit code is 0
//! only when every correctness gate held.

mod library;
mod report;
mod roofline;
mod serve;
mod stats;

use std::path::PathBuf;

use report::Report;

/// Workload size: `Full` is the benchmark proper; `Smoke` runs every code
/// path in seconds, for checking the driver itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Repository root (holds `scenarios/`); scratch files go under it.
    pub root: PathBuf,
    /// The `rebudget` binary that serves the daemon workloads.
    pub daemon: PathBuf,
    pub size: Size,
}

const USAGE: &str = "usage: perfbench --workload serve-churn|serve-uptime \
--seed N --seconds S --trace 0|1 --root DIR --daemon PATH [--size full|smoke]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        root: PathBuf::from("."),
        daemon: PathBuf::new(),
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?.max(1),
            "--trace" => args.trace = number(&value)? != 0,
            "--root" => args.root = PathBuf::from(value),
            "--daemon" => args.daemon = PathBuf::from(value),
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    other => return Err(format!("--size: unknown size {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    args.root = std::fs::canonicalize(&args.root)
        .map_err(|e| format!("--root {}: {e}", args.root.display()))?;
    Ok(args)
}

/// A seeded Fisher–Yates permutation of `0..n`.
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut next = || {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = state;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        perm.swap(k, (next() % (k as u64 + 1)) as usize);
    }
    perm
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "serve-churn" | "serve-uptime" => serve::run(&args, &mut report),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        report.fail(format!("workload aborted: {e}"));
    }
    report.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffled_is_a_seeded_permutation() {
        let a = shuffled(50, 7);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(a, shuffled(50, 7));
        assert_ne!(a, shuffled(50, 8));
    }

    #[test]
    fn smoke_library_passes_its_gates() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("perfbench sits in the repository root")
            .to_path_buf();
        let args = Args {
            workload: "serve-churn".into(),
            seed: 3,
            seconds: 1,
            trace: false,
            root,
            daemon: PathBuf::new(),
            size: Size::Smoke,
        };
        let mut report = Report::default();
        library::run(&args, &mut report).expect("library smoke run");
        assert!(report.correct());
    }
}
