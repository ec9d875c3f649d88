//! Property tests for the fault-injection harness and solver guardrails:
//! under *any* seeded fault plan, the pipeline must keep producing valid
//! allocations — exhaustive, non-negative, finite — and either stay within
//! the paper's theorem bounds or visibly mark the run as degraded
//! (`SolveReport` recovery actions, `MechanismOutcome::degraded`).
//!
//! The sweep covers 120 (seed, intensity) cases; failures print the case
//! so it can be replayed exactly (every fault decision is a pure function
//! of the seed).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rebudget_core::mechanisms::{EqualBudget, Mechanism, ReBudget};
use rebudget_core::theory::{ef_lower_bound, poa_lower_bound};
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::optimal::{max_efficiency, OptimalOptions};
use rebudget_market::utility::SeparableUtility;
use rebudget_market::{metrics, FaultPlan, Market, Player, ResourceSpace, Utility};

const SEEDS: u64 = 40;
const INTENSITIES: [f64; 3] = [0.25, 0.75, 1.5];

/// The base fault plan the sweep scales: all fault classes at once.
fn base_plan(seed: u64) -> FaultPlan {
    FaultPlan::parse("noise=0.2,spike=0.05,drop=0.15,nan=0.03,liars=1")
        .expect("valid spec")
        .with_seed(seed)
}

/// A random market of 3–8 players over 2 resources.
fn random_market(rng: &mut StdRng) -> Market {
    let n: usize = rng.random_range(3..=8);
    let caps = [rng.random_range(10.0..60.0), rng.random_range(20.0..120.0)];
    let players = (0..n)
        .map(|i| {
            let w0: f64 = rng.random_range(0.05..0.95);
            let w = [w0, 1.0 - w0];
            Player::new(
                format!("p{i}"),
                100.0,
                Arc::new(SeparableUtility::proportional(&w, &caps).expect("weights valid"))
                    as Arc<dyn Utility>,
            )
        })
        .collect();
    Market::new(
        ResourceSpace::new(caps.to_vec()).expect("caps valid"),
        players,
    )
    .expect("market valid")
}

fn for_each_case(mut body: impl FnMut(u64, f64, Market, FaultPlan)) {
    for seed in 0..SEEDS {
        for &intensity in &INTENSITIES {
            let mut rng = StdRng::seed_from_u64(0xFA17 + seed);
            let market = random_market(&mut rng);
            let plan = base_plan(seed).at_intensity(intensity);
            body(seed, intensity, market, plan);
        }
    }
}

#[test]
fn allocations_stay_valid_under_every_fault_plan() {
    for_each_case(|seed, intensity, market, plan| {
        let case = format!("seed {seed} intensity {intensity}");
        let faulted = plan
            .apply(&market, seed % 5)
            .unwrap_or_else(|e| panic!("{case}: apply failed: {e}"));
        let out = faulted
            .market
            .equilibrium(&EquilibriumOptions::default())
            .unwrap_or_else(|e| panic!("{case}: solve failed: {e}"));
        let caps = market.resources().capacities();
        // The reduced allocation is valid…
        assert!(
            out.allocation.is_exhaustive(caps, 1e-6),
            "{case}: not exhaustive"
        );
        for i in 0..faulted.market.len() {
            for (j, &cap) in caps.iter().enumerate() {
                let r = out.allocation.get(i, j);
                assert!(r.is_finite(), "{case}: allocation[{i}][{j}] not finite");
                assert!(r >= -1e-12, "{case}: allocation[{i}][{j}] negative");
                assert!(r <= cap + 1e-6, "{case}: allocation[{i}][{j}] over cap");
            }
        }
        // …every reported scalar is finite (NaN readings were sanitized)…
        assert!(out.report.residual.is_finite(), "{case}: residual");
        for (i, (&u, &l)) in out.utilities.iter().zip(&out.lambdas).enumerate() {
            assert!(u.is_finite() && u >= 0.0, "{case}: utility[{i}] = {u}");
            assert!(l.is_finite() && l >= 0.0, "{case}: lambda[{i}] = {l}");
        }
        // …and the expansion back to all players preserves exhaustiveness
        // with zero rows for dropped bidders.
        let full = faulted
            .expand_allocation(&out.allocation, market.len())
            .unwrap_or_else(|e| panic!("{case}: expand failed: {e}"));
        assert!(full.is_exhaustive(caps, 1e-6), "{case}: expanded");
        for &i in &faulted.dropped {
            assert!(
                full.row(i).iter().all(|&v| v == 0.0),
                "{case}: dropped player {i} got resources"
            );
        }
    });
}

#[test]
fn outcomes_stay_well_defined_under_hostile_plans() {
    // Under the full hostile plan (spikes, liars, drops) the theorem
    // bounds are *expected* to erode — that erosion is the robustness
    // study's finding, not a bug — but every reported number must stay
    // well-defined and any solver trouble must be visible, never silent.
    for_each_case(|seed, intensity, market, plan| {
        let case = format!("seed {seed} intensity {intensity}");
        let faulted = plan.apply(&market, seed % 5).expect("apply");
        let out = EqualBudget::new(100.0)
            .allocate(&faulted.market)
            .unwrap_or_else(|e| panic!("{case}: mechanism failed: {e}"));
        assert!(out.efficiency.is_finite(), "{case}: efficiency");
        // EF may be +∞ (nothing to envy) but never NaN.
        assert!(!out.envy_freeness.is_nan(), "{case}: envy-freeness NaN");
        assert_eq!(out.degraded, !out.solve.converged, "{case}: degraded flag");
    });
}

#[test]
fn theorem2_holds_or_degradation_is_visible_under_noise() {
    // Equal budgets → MBR = 1 → Theorem 2 floor ≈ 0.828. Zero-mean noise
    // both perturbs the equilibrium and distorts the EF *measurement* by
    // ~(1±σ)/(1∓σ) per pairwise ratio, so the contract is: either the
    // solve stayed clean and EF holds within noise-calibrated slack, or
    // the degradation is visible (recovery actions / degraded flag).
    let mut clean_cases = 0usize;
    for seed in 0..SEEDS {
        for &intensity in &INTENSITIES {
            let case = format!("seed {seed} intensity {intensity}");
            let mut rng = StdRng::seed_from_u64(0xFA17 + seed);
            let market = random_market(&mut rng);
            let sigma = 0.2 * intensity;
            let plan = FaultPlan::parse(&format!("noise={sigma}"))
                .expect("spec")
                .with_seed(seed);
            let faulted = plan.apply(&market, seed % 5).expect("apply");
            let out = EqualBudget::new(100.0)
                .allocate(&faulted.market)
                .unwrap_or_else(|e| panic!("{case}: mechanism failed: {e}"));
            if out.degraded || out.solve.recoveries > 0 {
                continue; // degradation visible; bound not claimed
            }
            clean_cases += 1;
            let mbr = out.mbr.unwrap_or(1.0);
            let slack = 0.05 + 3.0 * sigma;
            assert!(
                out.envy_freeness >= ef_lower_bound(mbr) - slack,
                "{case}: clean solve but EF {:.3} below Theorem-2 floor {:.3} - {slack:.2}",
                out.envy_freeness,
                ef_lower_bound(mbr)
            );
        }
    }
    // The guardrails must not fire on *every* case — mild noise should
    // often pass through cleanly (otherwise the bound above is vacuous).
    assert!(clean_cases > 0, "no clean case in the whole sweep");
}

#[test]
fn theorem1_efficiency_floor_or_visible_degradation() {
    // Smaller sample: each case needs the MaxEfficiency oracle.
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0x0971_0E44 + seed);
        let market = random_market(&mut rng);
        let plan = base_plan(seed).at_intensity(0.5);
        let faulted = plan.apply(&market, 1).expect("apply");
        let eq = faulted
            .market
            .equilibrium(&EquilibriumOptions::precise())
            .expect("solve");
        if !eq.report.is_clean() {
            continue; // degradation visible; bound not claimed
        }
        let opt = max_efficiency(&faulted.market, &OptimalOptions::default()).expect("oracle");
        let mur = metrics::mur(&eq.lambdas);
        let ratio = eq.efficiency() / opt.efficiency.max(1e-12);
        assert!(
            ratio >= poa_lower_bound(mur) - 0.15,
            "seed {seed}: clean solve but eff ratio {ratio:.3} below Theorem-1 floor {:.3}",
            poa_lower_bound(mur)
        );
    }
}

#[test]
fn nan_saturated_markets_are_sanitized_not_propagated() {
    // Half of all utility evaluations return NaN: the solver must still
    // hand back finite, exhaustive state and say what it repaired.
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0x4A4 + seed);
        let market = random_market(&mut rng);
        let plan = FaultPlan::parse("nan=0.5").expect("spec").with_seed(seed);
        let faulted = plan.apply(&market, 0).expect("apply");
        let out = faulted
            .market
            .equilibrium(&EquilibriumOptions::default())
            .expect("solve survives NaN readings");
        assert!(
            out.allocation
                .is_exhaustive(market.resources().capacities(), 1e-6),
            "seed {seed}"
        );
        for (&u, &l) in out.utilities.iter().zip(&out.lambdas) {
            assert!(u.is_finite() && l.is_finite(), "seed {seed}");
        }
    }
}

#[test]
fn rebudget_under_faults_keeps_finite_budgets_and_counts_rollbacks() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0x4EB0 + seed);
        let market = random_market(&mut rng);
        let plan = base_plan(seed).at_intensity(1.0);
        let faulted = plan.apply(&market, 2).expect("apply");
        let out = ReBudget::with_step(100.0, 40.0)
            .allocate(&faulted.market)
            .expect("mechanism survives");
        assert!(out.efficiency.is_finite(), "seed {seed}");
        for &b in &out.budgets {
            assert!(b.is_finite() && b > 0.0, "seed {seed}: budget {b}");
        }
        // Rollbacks, if any, are counted — never silent.
        assert!(out.rolled_back_rounds <= out.solve.rounds, "seed {seed}");
    }
}

#[test]
fn identical_seeds_reproduce_identical_faulted_runs() {
    for seed in [3u64, 17, 99] {
        let mut rng_a = StdRng::seed_from_u64(0xD0_0D + seed);
        let mut rng_b = StdRng::seed_from_u64(0xD0_0D + seed);
        let (ma, mb) = (random_market(&mut rng_a), random_market(&mut rng_b));
        let plan = base_plan(seed).at_intensity(1.0);
        let (fa, fb) = (
            plan.apply(&ma, 7).expect("a"),
            plan.apply(&mb, 7).expect("b"),
        );
        assert_eq!(fa.kept, fb.kept);
        assert_eq!(fa.liars, fb.liars);
        let oa = fa
            .market
            .equilibrium(&EquilibriumOptions::default())
            .expect("a");
        let ob = fb
            .market
            .equilibrium(&EquilibriumOptions::default())
            .expect("b");
        assert_eq!(oa.report, ob.report, "seed {seed}");
        for (a, b) in oa.prices.iter().zip(&ob.prices) {
            assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
        }
        for i in 0..fa.market.len() {
            for (a, b) in oa.allocation.row(i).iter().zip(ob.allocation.row(i)) {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} row {i}");
            }
        }
    }
}

#[test]
fn zero_intensity_plan_is_bit_identical_to_clean_run() {
    let mut rng = StdRng::seed_from_u64(0x1DE7);
    let market = random_market(&mut rng);
    let plan = base_plan(5).at_intensity(0.0);
    assert!(!plan.is_active());
    let faulted = plan.apply(&market, 0).expect("apply");
    let clean = market
        .equilibrium(&EquilibriumOptions::default())
        .expect("clean");
    let noop = faulted
        .market
        .equilibrium(&EquilibriumOptions::default())
        .expect("noop");
    assert_eq!(clean.report, noop.report);
    for (a, b) in clean.prices.iter().zip(&noop.prices) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
