//! End-to-end pipeline tests: application models → workload bundles →
//! profiled utilities → market mechanisms, checking the paper's headline
//! orderings on real (synthetic-app) markets.

use rebudget_core::mechanisms::{
    by_name, Balanced, EqualBudget, EqualShare, MaxEfficiency, Mechanism, ReBudget, NAMES,
};
use rebudget_core::theory::ef_lower_bound;
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::{DeadlineBudget, RetryPolicy, SolverKind};
use rebudget_sim::analytic::build_market;
use rebudget_sim::{system_for, DramConfig, SystemConfig};
use rebudget_workloads::{generate_bundle, paper_bbpc_8core, Category};

fn setup() -> (SystemConfig, DramConfig) {
    system_for(8)
}

#[test]
fn catalogue_builds_each_mechanism_as_direct_construction_does() {
    // `by_name` installs the solver, deadline and retry knobs once; each
    // catalogue entry must run bit-identically to the mechanism built by
    // hand with the same knobs. A 2-iteration deadline makes the retry
    // ladder do work.
    let (sys, dram) = setup();
    let market = build_market(&paper_bbpc_8core(), &sys, &dram, 100.0).expect("market builds");
    let options = EquilibriumOptions {
        solver: SolverKind::MirrorDescent,
        deadline: DeadlineBudget::iterations(2).expect("non-zero"),
        ..EquilibriumOptions::default()
    };
    let retry = Some(RetryPolicy::with_attempts(3));
    let mut oracle = MaxEfficiency::default();
    oracle.options.deadline = options.deadline;
    let direct: [Box<dyn Mechanism>; 5] = [
        Box::new(EqualShare),
        Box::new(EqualBudget {
            budget: 100.0,
            options: options.clone(),
            retry,
        }),
        Box::new(Balanced {
            base_budget: 100.0,
            options: options.clone(),
            retry,
        }),
        Box::new(ReBudget {
            options: options.clone(),
            retry,
            ..ReBudget::with_step(100.0, 40.0)
        }),
        Box::new(oracle),
    ];
    for (name, direct) in NAMES.iter().zip(&direct) {
        let built = by_name(name, 100.0, Some(40.0), &options, retry).expect("catalogue name");
        let a = built.allocate(&market).expect("catalogue mechanism runs");
        let b = direct.allocate(&market).expect("direct mechanism runs");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name}");
        // Every knob reached the mechanism: the market ones retried after
        // a timed-out first rung, the oracle ran out of its deadline.
        match *name {
            "equalshare" => assert_eq!(a.timed_out_solves, 0),
            "maxefficiency" => assert_eq!((a.retry_attempts, a.timed_out_solves), (0, 1)),
            _ => assert!(a.retry_attempts > 0 && a.timed_out_solves > 0, "{name}"),
        }
    }
}

#[test]
fn oracle_dominates_every_mechanism_on_every_category() {
    let (sys, dram) = setup();
    for category in Category::ALL {
        let bundle = generate_bundle(category, 8, 0, 3).expect("8 cores");
        let market = build_market(&bundle, &sys, &dram, 100.0).expect("market builds");
        let opt = MaxEfficiency::default().allocate(&market).expect("oracle");
        for mech in [
            &EqualShare as &dyn Mechanism,
            &EqualBudget::new(100.0),
            &Balanced::new(100.0),
            &ReBudget::with_step(100.0, 20.0),
            &ReBudget::with_step(100.0, 40.0),
        ] {
            let out = mech.allocate(&market).expect("mechanism runs");
            assert!(
                out.efficiency <= opt.efficiency * 1.01,
                "{}: {} beat the oracle {} on {}",
                out.mechanism,
                out.efficiency,
                opt.efficiency,
                bundle.label()
            );
        }
    }
}

#[test]
fn rebudget_trades_fairness_for_efficiency_monotonically() {
    let (sys, dram) = setup();
    let market = build_market(&paper_bbpc_8core(), &sys, &dram, 100.0).expect("market builds");
    let eq = EqualBudget::new(100.0).allocate(&market).expect("runs");
    let rb20 = ReBudget::with_step(100.0, 20.0)
        .allocate(&market)
        .expect("runs");
    let rb40 = ReBudget::with_step(100.0, 40.0)
        .allocate(&market)
        .expect("runs");
    // Efficiency: EqualBudget ≤ ReBudget-20 ≤ ReBudget-40 (small slack for
    // the approximate equilibria).
    assert!(
        rb20.efficiency >= eq.efficiency - 0.02,
        "{} vs {}",
        rb20.efficiency,
        eq.efficiency
    );
    assert!(
        rb40.efficiency >= rb20.efficiency - 0.02,
        "{} vs {}",
        rb40.efficiency,
        rb20.efficiency
    );
    // Fairness: the reverse ordering.
    assert!(eq.envy_freeness >= rb20.envy_freeness - 0.02);
    assert!(rb20.envy_freeness >= rb40.envy_freeness - 0.02);
    // MBR floors from the geometric step series.
    assert!(rb20.mbr.expect("market ran") >= 0.6 - 1e-9);
    assert!(rb40.mbr.expect("market ran") >= 0.2 - 1e-9);
}

#[test]
fn theorem2_floor_holds_on_all_categories_for_both_steps() {
    let (sys, dram) = setup();
    for category in Category::ALL {
        let bundle = generate_bundle(category, 8, 1, 9).expect("8 cores");
        let market = build_market(&bundle, &sys, &dram, 100.0).expect("market builds");
        for step in [20.0, 40.0] {
            let out = ReBudget::with_step(100.0, step)
                .allocate(&market)
                .expect("runs");
            let floor = ef_lower_bound(out.mbr.expect("market ran"));
            assert!(
                out.envy_freeness >= floor - 1e-6,
                "{} step {step}: EF {:.3} below floor {:.3}",
                bundle.label(),
                out.envy_freeness,
                floor
            );
        }
    }
}

#[test]
fn equal_budget_is_nearly_envy_free_on_all_categories() {
    let (sys, dram) = setup();
    for category in Category::ALL {
        let bundle = generate_bundle(category, 8, 2, 5).expect("8 cores");
        let market = build_market(&bundle, &sys, &dram, 100.0).expect("market builds");
        let out = EqualBudget::new(100.0).allocate(&market).expect("runs");
        assert!(
            out.envy_freeness >= 0.8,
            "{}: EqualBudget EF {:.3}",
            bundle.label(),
            out.envy_freeness
        );
    }
}

#[test]
fn markets_converge_within_failsafe() {
    let (sys, dram) = setup();
    for category in Category::ALL {
        for index in 0..3 {
            let bundle = generate_bundle(category, 8, index, 1).expect("8 cores");
            let market = build_market(&bundle, &sys, &dram, 100.0).expect("market builds");
            let out = EqualBudget::new(100.0).allocate(&market).expect("runs");
            assert!(
                out.total_iterations <= 30,
                "{}: {} iterations",
                bundle.label(),
                out.total_iterations
            );
        }
    }
}

#[test]
fn sixty_four_core_market_scales() {
    let (_, dram) = setup();
    let sys = SystemConfig::paper_64core();
    let bundle = generate_bundle(Category::Cpbn, 64, 0, 1).expect("64 cores");
    let market = build_market(&bundle, &sys, &dram, 100.0).expect("market builds");
    assert_eq!(market.len(), 64);
    let out = EqualBudget::new(100.0).allocate(&market).expect("runs");
    assert!(out.efficiency > 0.0 && out.efficiency <= 64.0);
    assert!(out
        .allocation
        .is_exhaustive(market.resources().capacities(), 1e-6));
}
