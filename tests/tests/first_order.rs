//! Cross-validation of the first-order equilibrium solvers against each
//! other and against the dense engines.
//!
//! The sparse proportional-response and mirror-descent solvers, and the
//! dense first-order reference behind `SolverKind::ProportionalResponse`
//! on `Market`, all compute the **price-taking** (Fisher) equilibrium —
//! their prices and equilibrium utilities must agree to well within any
//! honest tolerance on random markets. The dense Jacobi engine computes
//! the **price-anticipating** Nash equilibrium, which only converges to
//! the Fisher point as the market grows — checked qualitatively here.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::residual::relative_price_gap;
use rebudget_market::utility::LinearUtility;
use rebudget_market::{
    Market, Player, ResourceSpace, SolverKind, SparseBids, SparseMarket, SparseUtilityKind,
};

/// Markets for the cross-validation sweep (the issue's acceptance bar).
const CASES: u64 = 200;

/// Agreement tolerance between solvers on prices and utilities.
const AGREE: f64 = 1e-6;

/// Options tight enough that the per-iteration residual leaves real
/// margin under [`AGREE`]: the successive-iterate gap underestimates the
/// distance to the limit by the geometric factor `ρ/(1−ρ)`, so solve a
/// few orders deeper than the comparison.
fn tight(solver: SolverKind) -> EquilibriumOptions {
    let mut opts = EquilibriumOptions::large_scale().with_solver(solver);
    opts.max_iterations = 200_000;
    opts.price_tolerance = 1e-10;
    opts
}

/// A random sparse linear market: N ≤ 32 players, M ∈ 2..=6 resources,
/// random interest sets (1..=M goods each), weights in 0.1..1.
fn random_sparse_market(rng: &mut StdRng) -> SparseMarket {
    let n: usize = rng.random_range(2..=32);
    let m: usize = rng.random_range(2..=6);
    let capacities: Vec<f64> = (0..m).map(|_| rng.random_range(0.5..2.0)).collect();
    let budgets: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..1.5)).collect();
    let rows: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|_| {
            let degree = rng.random_range(1..=m);
            let mut goods: Vec<usize> = (0..m).collect();
            for k in 0..degree {
                let pick = rng.random_range(k..m);
                goods.swap(k, pick);
            }
            goods[..degree]
                .iter()
                .map(|&j| (j, rng.random_range(0.1..1.0)))
                .collect()
        })
        .collect();
    let interests = SparseBids::from_rows(m, rows).expect("rows valid");
    SparseMarket::new(capacities, budgets, interests, SparseUtilityKind::Linear)
        .expect("market valid")
}

fn assert_close(label: &str, case: u64, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (j, (x, y)) in a.iter().zip(b).enumerate() {
        let gap = (x - y).abs() / x.abs().max(y.abs()).max(1e-9);
        assert!(
            gap < AGREE,
            "case {case}: {label}[{j}] disagree: {x} vs {y} (rel {gap:e})"
        );
    }
}

/// The issue's acceptance test: 200 seeded random small markets, solved
/// by sparse proportional response, sparse mirror descent, and the dense
/// first-order reference (through `Market::equilibrium`); prices and
/// equilibrium utilities agree within 1e-6. (Raw allocations are compared
/// through utilities: under near-indifference the optimal bundle is not
/// unique, but the equilibrium utilities and prices are.)
#[test]
fn sparse_and_dense_first_order_solvers_agree_on_200_random_markets() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF15C_A000 + case);
        let market = random_sparse_market(&mut rng);

        let pr = market
            .solve(&tight(SolverKind::ProportionalResponse))
            .expect("pr solves");
        let md = market
            .solve(&tight(SolverKind::MirrorDescent))
            .expect("md solves");
        let dense = market.to_market().expect("linear markets densify");
        let dn = dense
            .equilibrium(&tight(SolverKind::ProportionalResponse))
            .expect("dense solves");

        for (label, out) in [("pr", &pr), ("md", &md)] {
            assert!(
                out.converged(),
                "case {case}: {label} residual {}",
                out.report.residual
            );
        }
        assert!(dn.converged(), "case {case}: dense {}", dn.report.residual);

        assert_close("pr/md price", case, &pr.prices, &md.prices);
        assert_close("pr/dense price", case, &pr.prices, &dn.prices);
        assert_close("pr/md utility", case, &pr.utilities, &md.utilities);
        assert_close("pr/dense utility", case, &pr.utilities, &dn.utilities);
    }
}

/// Price-anticipating (Jacobi) and price-taking (first-order) equilibria
/// coincide only in the large-market limit: replicating every player
/// shrinks each one's price impact, so the gap between the two engines'
/// prices must shrink as the economy is replicated.
#[test]
fn jacobi_approaches_the_fisher_equilibrium_as_the_market_grows() {
    let price_gap_at = |copies: usize| -> f64 {
        let caps = vec![copies as f64, copies as f64];
        let mut players = Vec::new();
        for c in 0..copies {
            players.push(Player::new(
                format!("a{c}"),
                1.0,
                Arc::new(LinearUtility::new(vec![3.0, 1.0]).expect("weights"))
                    as Arc<dyn rebudget_market::Utility>,
            ));
            players.push(Player::new(
                format!("b{c}"),
                1.0,
                Arc::new(LinearUtility::new(vec![1.0, 2.0]).expect("weights")),
            ));
        }
        let market = Market::new(ResourceSpace::new(caps).expect("caps"), players).expect("market");
        let jac = market
            .equilibrium(&EquilibriumOptions::default())
            .expect("jacobi solves");
        let fisher = market
            .equilibrium(&tight(SolverKind::ProportionalResponse))
            .expect("fisher solves");
        relative_price_gap(&jac.prices, &fisher.prices)
    };

    let small = price_gap_at(1);
    let large = price_gap_at(8);
    assert!(
        large < small,
        "gap must shrink with replication: {small} (×1) vs {large} (×8)"
    );
}
