//! CSV/JSON export of experiment results (for external plotting and CI
//! artifacts).

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

use crate::BundleResult;

/// One measured point of the scalability bench's first-order arm
/// (`src/bin/scalability.rs`), serialized into `BENCH_scalability.json`.
#[derive(Debug, Clone)]
pub struct ScalabilityPoint {
    /// Solver label ([`rebudget_market::SolverKind::label`]).
    pub solver: String,
    /// Player count `N`.
    pub players: usize,
    /// Resource count `M`.
    pub resources: usize,
    /// Non-zero (player, resource) interests in the generated market.
    pub nnz: usize,
    /// Worker threads the parallel policy resolved to.
    pub threads: usize,
    /// Fastest solve over the repeats, in nanoseconds.
    pub min_ns: u64,
    /// Median solve over the repeats, in nanoseconds.
    pub median_ns: u64,
    /// Iterations of the (deterministic) solve.
    pub iterations: u64,
    /// Final residual in the unified relative-excess-demand semantics.
    pub residual: f64,
    /// Whether the solve met the tolerance.
    pub converged: bool,
}

/// JSON float: finite values in exponent notation, non-finite as `null`
/// (JSON has no NaN/Infinity).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".to_string()
    }
}

/// Writes the scalability bench's machine-readable artifact — a JSON
/// document with one entry per (solver, N) point. Hand-rolled writer: the
/// workspace has no JSON dependency, and the schema is flat.
///
/// # Errors
///
/// Propagates I/O errors from file creation and writing.
pub fn write_scalability_json(
    path: &Path,
    tolerance: f64,
    points: &[ScalabilityPoint],
) -> io::Result<()> {
    let mut f = File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"scalability\",")?;
    writeln!(f, "  \"tolerance\": {},", json_f64(tolerance))?;
    writeln!(f, "  \"points\": [")?;
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        writeln!(
            f,
            "    {{\"solver\": \"{}\", \"players\": {}, \"resources\": {}, \
             \"nnz\": {}, \"threads\": {}, \"min_ns\": {}, \"median_ns\": {}, \
             \"iterations\": {}, \"residual\": {}, \"converged\": {}}}{comma}",
            p.solver,
            p.players,
            p.resources,
            p.nnz,
            p.threads,
            p.min_ns,
            p.median_ns,
            p.iterations,
            json_f64(p.residual),
            p.converged,
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

/// The warm-vs-cold online re-solve measurement of the server bench
/// (`src/bin/server_bench.rs`), serialized into `BENCH_server.json`.
#[derive(Debug, Clone)]
pub struct ServerBenchSummary {
    /// Player count `N`.
    pub players: usize,
    /// Resource count `M`.
    pub resources: usize,
    /// Non-zero (player, resource) interests in the generated market.
    pub nnz: usize,
    /// Timed churn ticks per arm.
    pub ticks: usize,
    /// Percent of players whose budget is perturbed each tick.
    pub churn_percent: f64,
    /// Solver label ([`rebudget_market::SolverKind::label`]).
    pub solver: String,
    /// Cold-start re-solve throughput (ticks per second).
    pub cold_ticks_per_sec: f64,
    /// Warm-started re-solve throughput (ticks per second).
    pub warm_ticks_per_sec: f64,
    /// `warm_ticks_per_sec / cold_ticks_per_sec`.
    pub speedup: f64,
    /// Total solver iterations across the cold arm's ticks.
    pub cold_iterations: u64,
    /// Total solver iterations across the warm arm's ticks.
    pub warm_iterations: u64,
    /// Worst final residual seen in either arm.
    pub max_residual: f64,
    /// Whether every solve in both arms converged under the tolerance.
    pub converged: bool,
}

/// Writes the server bench's machine-readable artifact. Flat JSON via
/// the same hand-rolled writer as [`write_scalability_json`].
///
/// # Errors
///
/// Propagates I/O errors from file creation and writing.
pub fn write_server_json(
    path: &Path,
    tolerance: f64,
    min_speedup: f64,
    s: &ServerBenchSummary,
) -> io::Result<()> {
    let mut f = File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"bench\": \"server\",")?;
    writeln!(f, "  \"tolerance\": {},", json_f64(tolerance))?;
    writeln!(f, "  \"min_speedup\": {},", json_f64(min_speedup))?;
    writeln!(f, "  \"players\": {},", s.players)?;
    writeln!(f, "  \"resources\": {},", s.resources)?;
    writeln!(f, "  \"nnz\": {},", s.nnz)?;
    writeln!(f, "  \"ticks\": {},", s.ticks)?;
    writeln!(f, "  \"churn_percent\": {},", json_f64(s.churn_percent))?;
    writeln!(f, "  \"solver\": \"{}\",", s.solver)?;
    writeln!(
        f,
        "  \"cold_ticks_per_sec\": {},",
        json_f64(s.cold_ticks_per_sec)
    )?;
    writeln!(
        f,
        "  \"warm_ticks_per_sec\": {},",
        json_f64(s.warm_ticks_per_sec)
    )?;
    writeln!(f, "  \"speedup\": {},", json_f64(s.speedup))?;
    writeln!(f, "  \"cold_iterations\": {},", s.cold_iterations)?;
    writeln!(f, "  \"warm_iterations\": {},", s.warm_iterations)?;
    writeln!(f, "  \"max_residual\": {},", json_f64(s.max_residual))?;
    writeln!(f, "  \"converged\": {}", s.converged)?;
    writeln!(f, "}}")?;
    Ok(())
}

/// Writes a generic CSV: one header row, then data rows.
///
/// # Errors
///
/// Propagates I/O errors from file creation and writing.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let mut f = File::create(path)?;
    writeln!(f, "{}", headers.join(","))?;
    for row in rows {
        writeln!(f, "{}", row.join(","))?;
    }
    Ok(())
}

/// Writes the Figure-4 sweep as CSV: one row per bundle with normalized
/// efficiency and envy-freeness for every mechanism.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_fig4_csv(path: &Path, results: &[BundleResult]) -> io::Result<()> {
    let mechanisms: Vec<&str> = results
        .first()
        .map(|r| r.rows.iter().map(|m| m.mechanism.as_str()).collect())
        .unwrap_or_default();
    let mut headers = vec!["bundle".to_string()];
    for m in &mechanisms {
        headers.push(format!("{m}_eff"));
        headers.push(format!("{m}_ef"));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let mut row = vec![r.label.clone()];
            for m in &mechanisms {
                if let Some(x) = r.row(m) {
                    row.push(format!("{:.6}", x.normalized_efficiency));
                    row.push(format!("{:.6}", x.envy_freeness));
                } else {
                    row.push(String::new());
                    row.push(String::new());
                }
            }
            row
        })
        .collect();
    write_csv(path, &header_refs, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_bundle_analytic;
    use rebudget_sim::system_for;
    use rebudget_workloads::paper_bbpc_8core;

    #[test]
    fn generic_csv_round_trips() {
        let path = std::env::temp_dir().join("rebudget_test_generic.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        assert_eq!(text, "a,b\n1,2\n3,4\n");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scalability_json_is_well_formed() {
        let path = std::env::temp_dir().join("rebudget_test_scalability.json");
        let points = vec![
            ScalabilityPoint {
                solver: "propresp".into(),
                players: 1000,
                resources: 64,
                nnz: 8192,
                threads: 8,
                min_ns: 1_234_567,
                median_ns: 2_000_000,
                iterations: 321,
                residual: 3.2e-7,
                converged: true,
            },
            ScalabilityPoint {
                solver: "mirror".into(),
                players: 1000,
                resources: 64,
                nnz: 8192,
                threads: 8,
                min_ns: 1,
                median_ns: 2,
                iterations: 5,
                residual: f64::NAN,
                converged: false,
            },
        ];
        write_scalability_json(&path, 1e-6, &points).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        assert!(text.contains("\"bench\": \"scalability\""));
        assert!(text.contains("\"solver\": \"propresp\""));
        assert!(text.contains("\"residual\": 3.2e-7"), "{text}");
        assert!(text.contains("\"residual\": null"), "{text}");
        // Exactly one trailing-comma-free last element: count rows.
        assert_eq!(text.matches("\"solver\"").count(), 2);
        assert!(text.trim_end().ends_with('}'));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fig4_csv_has_bundle_rows_and_mechanism_columns() {
        let (sys, dram) = system_for(8);
        let result = evaluate_bundle_analytic(&paper_bbpc_8core(), &sys, &dram).expect("runs");
        let path = std::env::temp_dir().join("rebudget_test_fig4.csv");
        write_fig4_csv(&path, &[result]).expect("writes");
        let text = std::fs::read_to_string(&path).expect("reads");
        let mut lines = text.lines();
        let header = lines.next().expect("header");
        assert!(header.starts_with("bundle,"));
        assert!(header.contains("EqualBudget_eff"));
        assert!(header.contains("MaxEfficiency_ef"));
        assert_eq!(lines.count(), 1);
        std::fs::remove_file(&path).ok();
    }
}
