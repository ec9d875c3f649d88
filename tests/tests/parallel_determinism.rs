//! Bit-exact determinism of the parallel equilibrium engine.
//!
//! The engine's contract is that [`ParallelPolicy`] is purely an execution
//! knob: every outcome field — bids, prices, allocation, utilities, λs,
//! iteration count — must be *bit-identical* under `Serial`, `Auto`, and
//! any explicit thread count. These tests pin that contract on markets
//! built from the paper's workload generator (Cpbn and mixed-category
//! bundles) as well as the mechanism layer on top.

use rebudget_core::mechanisms::{EqualBudget, Mechanism, ReBudget};
use rebudget_core::sweep::sweep_steps_with;
use rebudget_market::equilibrium::{EquilibriumOptions, EquilibriumOutcome};
use rebudget_market::{FaultPlan, Market, ParallelPolicy};
use rebudget_sim::analytic::build_market;
use rebudget_sim::{run_simulation, DramConfig, SimOptions, SystemConfig};
use rebudget_workloads::{generate_bundle, paper_bbpc_8core, Category};

const POLICIES: [ParallelPolicy; 3] = [
    ParallelPolicy::Serial,
    ParallelPolicy::Auto,
    ParallelPolicy::Threads(4),
];

fn market_for(category: Category, cores: usize) -> Market {
    let sys = SystemConfig::scaled(cores);
    let dram = DramConfig::ddr3_1600();
    let bundle = generate_bundle(category, cores, 0, 1).expect("valid core count");
    build_market(&bundle, &sys, &dram, 100.0).expect("valid market")
}

fn assert_bitwise_equal(a: &EquilibriumOutcome, b: &EquilibriumOutcome, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.converged(), b.converged(), "{what}: converged");
    assert_eq!(a.report, b.report, "{what}: solve report (recovery trace)");
    let pairs = [
        (a.bids.as_slice(), b.bids.as_slice(), "bids"),
        (&a.prices[..], &b.prices[..], "prices"),
        (&a.utilities[..], &b.utilities[..], "utilities"),
        (&a.lambdas[..], &b.lambdas[..], "lambdas"),
    ];
    for (xs, ys, field) in pairs {
        assert_eq!(xs.len(), ys.len(), "{what}: {field} length");
        for (k, (x, y)) in xs.iter().zip(ys).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: {field}[{k}] differs: {x} vs {y}"
            );
        }
    }
    for i in 0..a.utilities.len() {
        for (x, y) in a.allocation.row(i).iter().zip(b.allocation.row(i)) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: allocation row {i}");
        }
    }
}

fn solve(market: &Market, policy: ParallelPolicy) -> EquilibriumOutcome {
    market
        .equilibrium(&EquilibriumOptions::default().with_parallel(policy))
        .expect("equilibrium runs")
}

#[test]
fn equilibrium_bit_identical_across_policies_cpbn() {
    // 64 players: wide enough that Auto actually goes parallel.
    let market = market_for(Category::Cpbn, 64);
    let baseline = solve(&market, ParallelPolicy::Serial);
    for policy in POLICIES {
        let out = solve(&market, policy);
        assert_bitwise_equal(&baseline, &out, &format!("Cpbn-64 under {policy:?}"));
    }
}

#[test]
fn equilibrium_bit_identical_across_policies_mixed_bundles() {
    for category in [Category::Cpbb, Category::Bbnn, Category::Bbcn] {
        let market = market_for(category, 8);
        let baseline = solve(&market, ParallelPolicy::Serial);
        for policy in POLICIES {
            let out = solve(&market, policy);
            assert_bitwise_equal(&baseline, &out, &format!("{category:?}-8 under {policy:?}"));
        }
    }
}

#[test]
fn mechanisms_bit_identical_across_policies() {
    let market = market_for(Category::Cpbb, 8);
    for policy in POLICIES {
        let eq_s = EqualBudget::new(100.0).allocate(&market).unwrap();
        let eq_p = EqualBudget::new(100.0)
            .with_parallel(policy)
            .allocate(&market)
            .unwrap();
        assert_eq!(eq_s.efficiency.to_bits(), eq_p.efficiency.to_bits());
        assert_eq!(eq_s.envy_freeness.to_bits(), eq_p.envy_freeness.to_bits());

        let rb_s = ReBudget::with_step(100.0, 40.0).allocate(&market).unwrap();
        let rb_p = ReBudget::with_step(100.0, 40.0)
            .with_parallel(policy)
            .allocate(&market)
            .unwrap();
        assert_eq!(rb_s.efficiency.to_bits(), rb_p.efficiency.to_bits());
        assert_eq!(rb_s.solve.rounds, rb_p.solve.rounds);
        for (a, b) in rb_s.budgets.iter().zip(&rb_p.budgets) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

#[test]
fn sweep_bit_identical_across_policies() {
    let market = market_for(Category::Cpbn, 8);
    let steps = [0.0, 20.0, 40.0];
    let baseline = sweep_steps_with(&market, 100.0, &steps, true, ParallelPolicy::Serial).unwrap();
    for policy in POLICIES {
        let pts = sweep_steps_with(&market, 100.0, &steps, true, policy).unwrap();
        assert_eq!(baseline.len(), pts.len());
        for (a, b) in baseline.iter().zip(&pts) {
            assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits(), "{policy:?}");
            assert_eq!(a.mur.to_bits(), b.mur.to_bits(), "{policy:?}");
            assert_eq!(a.mbr.to_bits(), b.mbr.to_bits(), "{policy:?}");
            assert_eq!(
                a.normalized_efficiency.unwrap().to_bits(),
                b.normalized_efficiency.unwrap().to_bits(),
                "{policy:?}"
            );
        }
    }
}

#[test]
fn faulted_equilibrium_bit_identical_across_policies() {
    // The guardrail path (damping, restarts, sanitization) and the fault
    // wrappers must both be pure functions of their inputs: an active
    // FaultPlan cannot break the policy-independence contract.
    let market = market_for(Category::Cpbb, 8);
    let plan = FaultPlan::parse("noise=0.25,spike=0.05,nan=0.03,drop=0.15,liars=2,seed=23")
        .expect("valid spec");
    let faulted = plan.apply(&market, 4).expect("plan applies");
    let baseline = solve(&faulted.market, ParallelPolicy::Serial);
    for policy in POLICIES {
        let out = solve(&faulted.market, policy);
        assert_bitwise_equal(&baseline, &out, &format!("faulted Cpbb-8 under {policy:?}"));
    }
    // Re-applying the plan reproduces the same fault decisions.
    let again = plan.apply(&market, 4).expect("plan applies");
    assert_eq!(faulted.kept, again.kept);
    assert_eq!(faulted.dropped, again.dropped);
    assert_eq!(faulted.liars, again.liars);
}

#[test]
fn traced_equilibrium_bit_identical_to_untraced() {
    // Telemetry is pure observation: flipping the global switch cannot
    // perturb a single bit of the solve, under any execution policy.
    let market = market_for(Category::Cpbn, 64);
    let untraced = solve(&market, ParallelPolicy::Serial);
    let dir = std::env::temp_dir().join(format!("rebudget-traced-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("trace.jsonl");
    let journal = &rebudget_telemetry::global().journal;
    rebudget_telemetry::reset();
    journal.open(&trace).expect("trace file");
    rebudget_telemetry::set_enabled(true);
    let traced_serial = solve(&market, ParallelPolicy::Serial);
    let traced_threads = solve(&market, ParallelPolicy::Threads(4));
    rebudget_telemetry::set_enabled(false);
    journal.finish().expect("trace written");
    assert_bitwise_equal(&untraced, &traced_serial, "traced serial vs untraced");
    assert_bitwise_equal(&untraced, &traced_threads, "traced threaded vs untraced");
    // And the observation actually happened: the trace holds the
    // solver's own story of those two runs.
    let text = std::fs::read_to_string(&trace).expect("trace readable");
    let _ = std::fs::remove_dir_all(&dir);
    let summary = rebudget_telemetry::schema::validate_stream(text.as_bytes()).expect("valid");
    assert!(summary.events > 0, "traced solves recorded events");
    assert!(text.contains("\"event\":\"solve_start\""));
    assert!(text.contains("\"event\":\"solver_iteration\""));
    assert!(text.contains("\"event\":\"solve_end\""));
}

#[test]
fn faulted_simulation_bit_identical_serial_vs_threaded() {
    // The whole monitor → faulted market → enforce loop, end to end: same
    // seed, same plan, serial vs threaded mechanisms — identical bits.
    let sys = SystemConfig::paper_8core();
    let dram = DramConfig::ddr3_1600();
    let bundle = paper_bbpc_8core();
    let opts = SimOptions {
        quanta: 4,
        accesses_per_quantum: 8_000,
        seed: 11,
        faults: Some(
            FaultPlan::parse("noise=0.2,drop=0.15,nan=0.02,stale=0.3,liars=1,seed=29")
                .expect("valid spec"),
        ),
        ..SimOptions::default()
    };
    let run = |policy: ParallelPolicy| {
        run_simulation(
            &sys,
            &dram,
            &bundle,
            &EqualBudget::new(100.0).with_parallel(policy),
            &opts,
        )
        .expect("simulation runs")
    };
    let baseline = run(ParallelPolicy::Serial);
    for policy in POLICIES {
        let r = run(policy);
        assert_eq!(
            baseline.efficiency.to_bits(),
            r.efficiency.to_bits(),
            "{policy:?}: efficiency"
        );
        assert_eq!(
            baseline.envy_freeness.to_bits(),
            r.envy_freeness.to_bits(),
            "{policy:?}: envy-freeness"
        );
        for (a, b) in baseline.utilities.iter().zip(&r.utilities) {
            assert_eq!(a.to_bits(), b.to_bits(), "{policy:?}: utilities");
        }
        assert_eq!(baseline.fallback_quanta, r.fallback_quanta);
        assert_eq!(baseline.degraded_quanta, r.degraded_quanta);
        assert_eq!(baseline.solve.recoveries, r.solve.recoveries);
    }
}
