//! Warm-start determinism and efficiency across every solver engine.
//!
//! The online server re-solves the market every tick, seeding each solve
//! with the previous quantum's bids ([`rebudget_market::WarmStart`]).
//! That optimization is only sound if warm starting (1) never *costs*
//! iterations relative to the cold equal-split start when re-solving the
//! same market, and (2) stays perfectly deterministic — a warm-started
//! solve repeated with the same seed must be bit-identical, or the
//! daemon's kill-safe replay guarantee collapses. Both properties are
//! pinned here for each [`SolverKind`], including the dense first-order
//! reference (the dense `Market` path with a first-order solver).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rebudget_market::equilibrium::{EquilibriumOptions, WarmStart};
use rebudget_market::{SolverKind, SparseBids, SparseMarket, SparseUtilityKind, SynthSpec};

/// Seeded markets in the property sweep (the issue's acceptance bar).
const CASES: u64 = 50;

fn sparse_opts(solver: SolverKind) -> EquilibriumOptions {
    let mut opts = EquilibriumOptions::large_scale().with_solver(solver);
    opts.price_tolerance = 1e-5;
    opts
}

/// Warm ≤ cold iterations and bit-identical warm repeats, across 50
/// seeded synthetic markets for each sparse first-order solver. The
/// previous outcome's bids contain exact zeros (underflow at
/// convergence); the warm overlay must lift them rather than silently
/// cold-starting those rows, so the warm solve lands in a handful of
/// iterations instead of re-running the whole transient.
#[test]
fn sparse_warm_start_property_sweep() {
    for case in 0..CASES {
        let players = 200 + (case as usize) * 13;
        let market = SynthSpec::new(players, 16, 0xAB0 + case)
            .generate()
            .expect("synth market");
        for solver in [SolverKind::ProportionalResponse, SolverKind::MirrorDescent] {
            let opts = sparse_opts(solver);
            let cold = market.solve(&opts).expect("cold solves");
            assert!(cold.converged(), "case {case}: {} cold", solver.label());

            let warm_opts = opts
                .clone()
                .with_warm_start(WarmStart::from_sparse(&cold).shared());
            let warm = market.solve(&warm_opts).expect("warm solves");
            assert!(warm.converged(), "case {case}: {} warm", solver.label());
            assert!(
                warm.iterations <= cold.iterations,
                "case {case}: {} warm {} > cold {}",
                solver.label(),
                warm.iterations,
                cold.iterations
            );

            let again = market.solve(&warm_opts).expect("warm repeat solves");
            assert_eq!(warm.prices, again.prices, "case {case}: {}", solver.label());
            assert_eq!(warm.bids, again.bids, "case {case}: {}", solver.label());
            assert_eq!(warm.iterations, again.iterations);
        }
    }
}

/// The online scenario: budgets churn between quanta while the interest
/// pattern stays fixed. Warm starting from the pre-churn equilibrium
/// must still converge, still beat the cold start, and stay bitwise
/// repeatable — budget rescaling of the seed is part of the overlay.
#[test]
fn sparse_warm_start_survives_budget_churn() {
    let market = SynthSpec::new(2_000, 32, 7).generate().expect("synth");
    let mut opts = EquilibriumOptions::large_scale();
    opts.price_tolerance = 1e-4;
    let before = market.solve(&opts).expect("pre-churn solves");
    assert!(before.converged());

    // Rescale ~2% of budgets deterministically, keeping the CSR pattern.
    let mut budgets = market.budgets().to_vec();
    for (i, b) in budgets.iter_mut().enumerate() {
        if i % 50 == 3 {
            *b *= 1.4;
        }
    }
    let churned = SparseMarket::new(
        market.capacities().to_vec(),
        budgets,
        market.interests().clone(),
        SparseUtilityKind::Linear,
    )
    .expect("churned market");

    let cold = churned.solve(&opts).expect("cold solves");
    let warm_opts = opts
        .clone()
        .with_warm_start(WarmStart::from_sparse(&before).shared());
    let warm = churned.solve(&warm_opts).expect("warm solves");
    assert!(cold.converged() && warm.converged());
    assert!(
        warm.iterations <= cold.iterations,
        "warm {} > cold {}",
        warm.iterations,
        cold.iterations
    );
    let again = churned.solve(&warm_opts).expect("warm repeat");
    assert_eq!(warm.prices, again.prices);
    assert_eq!(warm.bids, again.bids);
}

/// A random dense-representable sparse market (every player interested
/// in every good, so Jacobi and the dense first-order reference both
/// apply after densification).
fn random_full_market(rng: &mut StdRng) -> SparseMarket {
    let n: usize = rng.random_range(4..=10);
    let m: usize = rng.random_range(2..=4);
    let capacities: Vec<f64> = (0..m).map(|_| rng.random_range(0.5..2.0)).collect();
    let budgets: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..1.5)).collect();
    let rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|_| (0..m).map(|j| (j, rng.random_range(0.1..1.0))).collect())
        .collect();
    let interests = SparseBids::from_rows(m, rows).expect("rows valid");
    SparseMarket::new(capacities, budgets, interests, SparseUtilityKind::Linear)
        .expect("market valid")
}

/// Warm ≤ cold iterations and bit-identical warm repeats for the dense
/// engines, seeded through [`WarmStart::from_outcome`].
///
/// The iteration inequality is asserted for the Jacobi engine alone.
/// The dense first-order
/// reference is held to convergence and bitwise determinism only: its
/// outer loop does not carry the adaptive damping state across solves,
/// so on a small oscillatory market a warm restart at full damping can
/// legitimately spend more iterations re-finding the stable step than
/// the cold run did — the sparse sweep above covers the first-order
/// warm ≤ cold property on the markets the server serves.
#[test]
fn dense_warm_start_is_deterministic_and_no_slower() {
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xDE5E + case);
        let dense = random_full_market(&mut rng)
            .to_market()
            .expect("linear markets densify");
        for solver in [
            SolverKind::Jacobi,
            SolverKind::ProportionalResponse,
            SolverKind::MirrorDescent,
        ] {
            let mut opts = EquilibriumOptions::default().with_solver(solver);
            if solver != SolverKind::Jacobi {
                opts.max_iterations = 200_000;
                opts.price_tolerance = 1e-6;
            }
            let cold = dense.equilibrium(&opts).expect("cold solves");
            assert!(cold.converged(), "case {case}: {} cold", solver.label());

            let warm_opts = opts
                .clone()
                .with_warm_start(WarmStart::from_outcome(&cold).shared());
            let warm = dense.equilibrium(&warm_opts).expect("warm solves");
            assert!(warm.converged(), "case {case}: {} warm", solver.label());
            if solver == SolverKind::Jacobi {
                assert!(
                    warm.iterations <= cold.iterations,
                    "case {case}: jacobi warm {} > cold {}",
                    warm.iterations,
                    cold.iterations
                );
            }

            let again = dense.equilibrium(&warm_opts).expect("warm repeat");
            assert_eq!(warm.prices, again.prices, "case {case}: {}", solver.label());
            assert_eq!(
                warm.bids.as_slice(),
                again.bids.as_slice(),
                "case {case}: {}",
                solver.label()
            );
        }
    }
}
