//! The first-order solver's roofline, part of serve-churn's traced run:
//! cold single-thread solves to `1e-6` of synthetic sparse markets — no
//! daemon, no disk — with ns per nonzero per iteration set against a
//! streaming memory-bandwidth floor taken in the same run, and Serial
//! against Auto compared bit for bit.
//!
//! These are per-layer numbers only. As a workload of its own, with its
//! solve times as end-to-end metrics, the same solves swung 20–28% from
//! run to run on the shared VM the benchmark was built on, even in
//! on-CPU time — more than any bound allows.

use std::process::Command;
use std::time::Instant;

use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{ParallelPolicy, SolverKind, SparseBids, SparseMarket, SynthSpec};

use crate::report::{cpu_s, note, CpuClock, Report};
use crate::stats::median;
use crate::{shuffled, Args, Size};

const RESOURCES: usize = 64;
const TOL: f64 = 1e-6;
/// Iterations of the capped Serial-vs-Auto runs.
const CAPPED_ITERATIONS: usize = 20;

/// `(solver, players)` per arm.
fn arms(size: Size) -> [(SolverKind, usize); 2] {
    match size {
        Size::Full => [
            (SolverKind::ProportionalResponse, 100_000),
            (SolverKind::MirrorDescent, 5_000),
        ],
        Size::Smoke => [
            (SolverKind::ProportionalResponse, 5_000),
            (SolverKind::MirrorDescent, 2_000),
        ],
    }
}

/// The arm's market. Its structure is `SynthSpec` seed 1 at every run
/// seed, so every run does the same solver work: a different synthetic
/// market changes the iterations to `1e-6` by up to ±10%. `seed`
/// shuffles the player rows and relabels the resources, so the input
/// each run presents still differs.
fn market(players: usize, seed: u64) -> Result<SparseMarket, String> {
    let base = SynthSpec::new(players, RESOURCES, 1)
        .generate()
        .map_err(|e| e.to_string())?;
    let order = shuffled(players, seed);
    let labels = shuffled(RESOURCES, !seed);
    let bids = base.interests();
    let rows = order
        .iter()
        .map(|&i| {
            bids.row_cols(i)
                .iter()
                .zip(bids.row_vals(i))
                .map(|(&c, &v)| (labels[c as usize], v))
                .collect()
        })
        .collect();
    let budgets = order.iter().map(|&i| base.budgets()[i]).collect();
    let mut capacities = vec![0.0; RESOURCES];
    for (j, &c) in base.capacities().iter().enumerate() {
        capacities[labels[j]] = c;
    }
    let interests = SparseBids::from_rows(RESOURCES, rows).map_err(|e| e.to_string())?;
    SparseMarket::new(capacities, budgets, interests, base.kind()).map_err(|e| e.to_string())
}

/// Bytes one sweep moves per nonzero, computed from the array element
/// sizes: the bid (f64) read and written, its column (u32) and weight
/// (f64) read, plus each row's offset (usize) and budget (f64) spread
/// over the row. Pass 2 re-reads a row that pass 1 just brought into
/// cache, so it adds no memory traffic.
fn bytes_per_nnz_iter(market: &SparseMarket) -> f64 {
    let per_nnz = 8.0 + 8.0 + 4.0 + 8.0;
    let per_row = 8.0 + 8.0;
    per_nnz + per_row * market.players() as f64 / market.nnz() as f64
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    note(&format!("roofline: {threads} thread(s) available"));
    let (stream_gbps, llc_bytes, array_bytes) = stream_bandwidth();
    report.metric("mem.stream_gbps", stream_gbps, "GB/s");
    report.metric("mem.llc_bytes", llc_bytes as f64, "B");
    report.metric("mem.stream_array_bytes", array_bytes as f64, "B");

    for (solver, players) in arms(args.size) {
        let market = market(players, args.seed)?;
        let label = solver.label();
        let opts = EquilibriumOptions::large_scale().with_solver(solver);
        // Single-thread, in on-CPU time: the ROADMAP's one-core
        // reference, and not charged the time the host steals.
        let cpu0 = cpu_s(CpuClock::Thread);
        let out = market
            .solve(&opts.clone().with_parallel(ParallelPolicy::Serial))
            .map_err(|e| e.to_string())?;
        let secs = cpu_s(CpuClock::Thread) - cpu0;
        let ok = out.converged() && out.report.residual <= TOL;
        report.op(ok);
        report.gate(ok, || {
            format!(
                "{label}: residual {:e} after {} iterations",
                out.report.residual, out.iterations
            )
        });
        note(&format!(
            "{label}: N={} nnz={} {} iterations, {secs:.3} s on CPU",
            market.players(),
            market.nnz(),
            out.iterations
        ));

        // Serial and Auto must agree bit for bit; capped runs keep the
        // check cheap and double as the parallel-speedup measurement.
        let capped = |policy| {
            let mut o = opts.clone().with_parallel(policy);
            o.max_iterations = CAPPED_ITERATIONS;
            let t0 = Instant::now();
            let out = market.solve(&o).map_err(|e| e.to_string())?;
            Ok::<_, String>((t0.elapsed().as_secs_f64(), out.prices))
        };
        let (serial_s, serial_prices) = capped(ParallelPolicy::Serial)?;
        let (auto_s, auto_prices) = capped(ParallelPolicy::Auto)?;
        let identical = serial_prices.len() == auto_prices.len()
            && serial_prices
                .iter()
                .zip(&auto_prices)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        report.op(identical);
        report.gate(identical, || {
            format!("{label}: Serial and Auto prices differ")
        });

        let nnz = market.nnz() as f64;
        let work = nnz * out.iterations as f64;
        report.metric(
            &format!("solver.{label}.iterations"),
            out.iterations as f64,
            "count",
        );
        report.metric(
            &format!("solver.{label}.ns_per_nnz_iter"),
            secs * 1e9 / work,
            "ns",
        );
        if solver == SolverKind::ProportionalResponse {
            let bytes = bytes_per_nnz_iter(&market);
            let gbps = bytes * work / secs / 1e9;
            report.metric("solver.bytes_per_nnz_iter", bytes, "B");
            report.metric("solver.achieved_gbps", gbps, "GB/s");
            report.metric("solver.bw_ratio", gbps / stream_gbps, "ratio");
            report.metric(
                "solver.serial_ns_per_nnz_iter",
                serial_s * 1e9 / (nnz * CAPPED_ITERATIONS as f64),
                "ns",
            );
            report.metric("solver.parallel_speedup", serial_s / auto_s, "ratio");
        }
    }
    Ok(())
}

/// Last-level cache size in bytes as `lscpu` reports it (the highest
/// cache level listed, all instances together).
fn llc_bytes() -> Option<u64> {
    let out = Command::new("lscpu").env("LC_ALL", "C").output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    ["L3 cache:", "L2 cache:"].iter().find_map(|key| {
        let line = text.lines().find_map(|l| l.trim().strip_prefix(key))?;
        let mut words = line.split_whitespace();
        let value: f64 = words.next()?.parse().ok()?;
        let scale = match words.next()? {
            "KiB" | "K" => 1u64 << 10,
            "MiB" | "M" => 1 << 20,
            "GiB" | "G" => 1 << 30,
            _ => return None,
        };
        Some((value * scale as f64) as u64)
    })
}

/// Single-thread streaming-read bandwidth in GB/s (the timed solves are
/// single-threaded too) over an array four times the LLC. Returns
/// `(GB/s, LLC bytes, array bytes)`; the median of three passes.
fn stream_bandwidth() -> (f64, u64, u64) {
    let llc = llc_bytes().unwrap_or_else(|| {
        note("lscpu reported no cache size; assuming a 64 MiB LLC");
        64 << 20
    });
    let words = (4 * llc / 8) as usize;
    let data: Vec<u64> = (0..words as u64).collect();
    let mut rates = Vec::new();
    let mut checksum = 0u64;
    for _ in 0..3 {
        let t0 = Instant::now();
        let sum = std::hint::black_box(&data)
            .iter()
            .fold(0u64, |a, &x| a.wrapping_add(x));
        rates.push((words * 8) as f64 / t0.elapsed().as_secs_f64() / 1e9);
        checksum = checksum.wrapping_add(std::hint::black_box(sum));
    }
    note(&format!(
        "stream read: {} MiB array (LLC {} MiB), checksum {checksum:x}",
        (words * 8) >> 20,
        llc >> 20
    ));
    (median(&rates), llc, (words * 8) as u64)
}
