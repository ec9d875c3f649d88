//! The trace is the one per-iteration record of a solve: each traced
//! solve writes one `solver_iteration` event per iteration, numbered
//! `1..=iterations`, and the last one carries the outcome's prices and
//! residual bit for bit — on every engine, dense and sparse.
//!
//! The trace journal is process-global, so this test is alone in its
//! binary: a second test could interleave its own solver events.

use std::sync::Arc;

use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::utility::SeparableUtility;
use rebudget_market::{Market, Player, ResourceSpace, SolveReport, SolverKind, SynthSpec};
use rebudget_tests::{traced_iterations, TracedIteration};

fn check(label: &str, report: &SolveReport, prices: &[f64], trace: &[TracedIteration]) {
    assert!(report.converged, "{label}: residual {}", report.residual);
    let numbers: Vec<u64> = trace.iter().map(|t| t.iteration).collect();
    assert_eq!(
        numbers,
        (1..=report.iterations).collect::<Vec<_>>(),
        "{label}: iteration numbers"
    );
    let last = trace.last().expect("at least one iteration");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&last.prices), bits(prices), "{label}: last prices");
    assert_eq!(
        last.residual.to_bits(),
        report.residual.to_bits(),
        "{label}: last residual"
    );
}

#[test]
fn traced_iterations_are_numbered_and_end_on_the_outcome_prices() {
    let caps = [16.0, 80.0];
    let resources = ResourceSpace::new(caps.to_vec()).expect("caps");
    let players = (0..6)
        .map(|i| {
            let w0 = 0.1 + 0.15 * i as f64;
            Player::new(
                format!("p{i}"),
                100.0,
                Arc::new(SeparableUtility::proportional(&[w0, 1.0 - w0], &caps).expect("utility"))
                    as Arc<dyn rebudget_market::Utility>,
            )
        })
        .collect();
    let dense = Market::new(resources, players).expect("market");
    let sparse = SynthSpec::new(300, 12, 9).generate().expect("market");

    for solver in [
        SolverKind::Jacobi,
        SolverKind::ProportionalResponse,
        SolverKind::MirrorDescent,
    ] {
        let opts = match solver {
            SolverKind::Jacobi => EquilibriumOptions::default(),
            _ => EquilibriumOptions::large_scale().with_solver(solver),
        };
        let label = format!("dense {}", solver.label());
        let (out, trace) = traced_iterations("iterations-dense", || {
            dense.equilibrium(&opts).expect("solves")
        });
        check(&label, &out.report, &out.prices, &trace);
        if solver == SolverKind::Jacobi {
            continue;
        }
        let label = format!("sparse {}", solver.label());
        let (out, trace) =
            traced_iterations("iterations-sparse", || sparse.solve(&opts).expect("solves"));
        check(&label, &out.report, &out.prices, &trace);
    }
}
