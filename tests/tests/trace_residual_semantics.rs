//! The workspace-wide residual contract, read from the trace: every
//! solver's `SolveReport::residual` is the same function
//! (`residual::relative_price_gap`) of its own last two price iterates,
//! as its `solver_iteration` events record them.
//!
//! The trace journal is process-global, so this test is alone in its
//! binary: a second test could interleave its own solver events.

use std::sync::Arc;

use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::residual::relative_price_gap;
use rebudget_market::utility::LinearUtility;
use rebudget_market::{
    Market, Player, ResourceSpace, SolverKind, SparseBids, SparseMarket, SparseUtilityKind,
};
use rebudget_tests::{traced_iterations, TracedIteration};

/// Options tight enough for the first-order engines to converge to well
/// under any comparison tolerance.
fn tight(solver: SolverKind) -> EquilibriumOptions {
    let mut opts = EquilibriumOptions::large_scale().with_solver(solver);
    opts.max_iterations = 200_000;
    opts.price_tolerance = 1e-10;
    opts
}

/// Residual semantics are identical across every solver: the reported
/// residual is `relative_price_gap` of the solver's own last two price
/// iterates — for dense Jacobi, dense first-order, and sparse
/// first-order alike. A solver that switched to a different error measure
/// (absolute gap, ∞-norm of excess demand, …) would break this.
#[test]
fn all_solvers_report_the_same_residual_semantics() {
    let resources = ResourceSpace::new(vec![1.0, 1.0]).expect("caps");
    let dense = Market::new(
        resources,
        vec![
            Player::new(
                "a",
                1.0,
                Arc::new(LinearUtility::new(vec![3.0, 1.0]).expect("weights")),
            ),
            Player::new(
                "b",
                1.0,
                Arc::new(LinearUtility::new(vec![1.0, 2.0]).expect("weights")),
            ),
        ],
    )
    .expect("market");

    let check = |label: &str, residual: f64, trace: &[TracedIteration], tolerance: f64| {
        assert!(
            residual <= tolerance,
            "{label}: residual {residual} over tolerance"
        );
        assert!(trace.len() >= 2, "{label}: trace too short");
        let recomputed = relative_price_gap(
            &trace[trace.len() - 2].prices,
            &trace[trace.len() - 1].prices,
        );
        // Unit prices divide the per-good money by the capacity; the
        // per-coordinate *relative* gap is identical up to rounding.
        let gap = (residual - recomputed).abs() / residual.abs().max(recomputed.abs()).max(1e-300);
        assert!(
            gap < 1e-9,
            "{label}: reported {residual:e} vs recomputed {recomputed:e}"
        );
    };

    for solver in [
        SolverKind::Jacobi,
        SolverKind::ProportionalResponse,
        SolverKind::MirrorDescent,
    ] {
        let mut opts = EquilibriumOptions::default().with_solver(solver);
        if solver != SolverKind::Jacobi {
            opts = tight(solver);
        }
        let (out, trace) = traced_iterations("residual-dense", || {
            dense.equilibrium(&opts).expect("solves")
        });
        assert!(out.converged(), "{}", solver.label());
        check(
            solver.label(),
            out.report.residual,
            &trace,
            opts.price_tolerance,
        );
    }

    // Sparse solvers report through the same contract.
    let interests =
        SparseBids::from_rows(2, vec![vec![(0, 3.0), (1, 1.0)], vec![(0, 1.0), (1, 2.0)]])
            .expect("rows");
    let sparse = SparseMarket::new(
        vec![1.0, 1.0],
        vec![1.0, 1.0],
        interests,
        SparseUtilityKind::Linear,
    )
    .expect("market");
    for solver in [SolverKind::ProportionalResponse, SolverKind::MirrorDescent] {
        let opts = tight(solver);
        let (out, trace) =
            traced_iterations("residual-sparse", || sparse.solve(&opts).expect("solves"));
        assert!(out.converged(), "sparse {}", solver.label());
        check(
            solver.label(),
            out.report.residual,
            &trace,
            opts.price_tolerance,
        );
    }
}
