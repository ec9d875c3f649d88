//! The first-order sweep kernel at the daemon's serve-churn shape, in
//! nanoseconds per nonzero per sweep.
//!
//! The market mirrors one `rebudget serve` tick of the serve-churn
//! workload: 11 800 players with 1–6 interests each over 64 goods,
//! weights in `[0.1, 10.1)`, budgets in `[50, 150)`, capacity 100. Each
//! arm is solved cold once (untimed) to get a converged seed. Then 1% of
//! budgets are rescaled and 1% of seed rows are reset to the equal split,
//! as the daemon's churn does, and the warm-started re-solve to the
//! online tolerance 1e-4 is what gets timed.
//!
//! A solve also pays per-solve set-up (initial bids, warm overlay,
//! final utilities), so the per-sweep cost is the difference between the
//! full warm solve (`I` sweeps) and the same solve capped at one sweep,
//! divided by `(I − 1) · nnz`. Both are also reported through the
//! criterion harness.
//!
//! `BENCH_SAMPLES=10 BENCH_BATCH_MS=20 BENCH_WARMUP_MS=20 cargo bench -p
//! rebudget-bench --bench sweep` keeps a run short.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use rebudget_market::equilibrium::{EquilibriumOptions, WarmStart};
use rebudget_market::{splitmix64, SolverKind, SparseBids, SparseMarket, SparseUtilityKind};

const PLAYERS: usize = 11_800;
const RESOURCES: usize = 64;
const TOLERANCE: f64 = 1e-4;

/// The serve-churn market shape, seeded.
fn churn_market(seed: u64) -> SparseMarket {
    let hash = |k: usize, salt: u64| splitmix64(seed ^ splitmix64(k as u64) ^ salt);
    let rows: Vec<Vec<(usize, f64)>> = (0..PLAYERS)
        .map(|k| {
            let count = 1 + (hash(k, 1) % 6) as usize;
            let mut cols: Vec<usize> = Vec::with_capacity(count);
            let mut probe = 0;
            while cols.len() < count {
                let c = (hash(k, 100 + probe) % RESOURCES as u64) as usize;
                if !cols.contains(&c) {
                    cols.push(c);
                }
                probe += 1;
            }
            cols.into_iter()
                .map(|c| (c, 0.1 + (hash(k, 200 + c as u64) % 10_000) as f64 / 1_000.0))
                .collect()
        })
        .collect();
    let budgets = (0..PLAYERS)
        .map(|k| 50.0 + (hash(k, 3) % 10_000) as f64 / 100.0)
        .collect();
    let interests = SparseBids::from_rows(RESOURCES, rows).expect("valid rows");
    SparseMarket::new(
        vec![100.0; RESOURCES],
        budgets,
        interests,
        SparseUtilityKind::Linear,
    )
    .expect("valid market")
}

/// `market` with 1% of its budgets rescaled into `[0.5, 1.5)` of their
/// value.
fn churned(market: &SparseMarket) -> SparseMarket {
    let budgets = market
        .budgets()
        .iter()
        .enumerate()
        .map(|(i, &b)| {
            let h = splitmix64(0xc0ff_ee00 ^ i as u64);
            if h.is_multiple_of(100) {
                b * (0.5 + (splitmix64(h) % 1_000) as f64 / 1_000.0)
            } else {
                b
            }
        })
        .collect();
    SparseMarket::new(
        market.capacities().to_vec(),
        budgets,
        market.interests().clone(),
        market.kind(),
    )
    .expect("valid market")
}

/// `seed` with 1% of its rows reset to the equal split, the cold seed
/// the daemon gives a player that arrived or changed its interests.
fn arrivals(market: &SparseMarket, mut seed: WarmStart) -> WarmStart {
    let row_ptr = market.interests().row_ptr();
    for (i, budget) in market.budgets().iter().enumerate() {
        if splitmix64(0xa1 ^ i as u64).is_multiple_of(100) {
            let row = &mut seed.bids[row_ptr[i]..row_ptr[i + 1]];
            let share = budget / row.len() as f64;
            row.fill(share);
        }
    }
    seed
}

/// Fastest of `samples` wall-clock runs of `f`, in seconds.
fn fastest(samples: usize, mut f: impl FnMut()) -> f64 {
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench_sweep(c: &mut Criterion) {
    let samples = std::env::var("BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n: &usize| n > 0)
        .unwrap_or(15);
    let base = churn_market(7101);
    let mut group = c.benchmark_group("sweep");
    for (label, solver) in [
        ("propresp", SolverKind::ProportionalResponse),
        ("mirror", SolverKind::MirrorDescent),
    ] {
        let mut options = EquilibriumOptions::large_scale().with_solver(solver);
        options.price_tolerance = TOLERANCE;
        let seed = base.solve(&options).expect("cold solve");
        assert!(seed.converged(), "{label}: the seed solve converges");
        let market = churned(&base);
        let warm = options
            .clone()
            .with_warm_start(arrivals(&market, WarmStart::from_sparse(&seed)).shared());
        let full = market.solve(&warm).expect("warm solve");
        assert!(full.converged(), "{label}: the warm solve converges");
        let sweeps = full.iterations;
        let mut one = warm.clone();
        one.max_iterations = 1;
        let solve = |opts: &EquilibriumOptions| black_box(market.solve(opts).expect("solve"));

        group.bench_function(format!("{label}/warm_solve_{sweeps}_sweeps"), |b| {
            b.iter(|| solve(&warm))
        });
        group.bench_function(format!("{label}/warm_solve_1_sweep"), |b| {
            b.iter(|| solve(&one))
        });
        let t_full = fastest(samples, || {
            solve(&warm);
        });
        let t_one = fastest(samples, || {
            solve(&one);
        });
        let nnz = market.nnz() as f64;
        let per_sweep = (t_full - t_one) / (sweeps.saturating_sub(1).max(1)) as f64;
        println!(
            "sweep/{label}: {:.2} ns/nnz per sweep ({:.1} µs per sweep, {} sweeps, {} nnz)",
            per_sweep / nnz * 1e9,
            per_sweep * 1e6,
            sweeps,
            market.nnz()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
