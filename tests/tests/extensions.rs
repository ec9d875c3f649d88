//! Integration tests for the extension modules: EP on multicore markets,
//! application-granularity groups, and the uncoordinated (UCP) baseline on
//! real bundles.

use rebudget_core::ep::ElasticitiesProportional;
use rebudget_core::mechanisms::{EqualBudget, MaxEfficiency, Mechanism, ReBudget};
use rebudget_core::uncoordinated::Uncoordinated;
use rebudget_sim::analytic::build_market;
use rebudget_sim::groups::{build_group_market, MultithreadedBundle, ThreadGroup};
use rebudget_sim::{DramConfig, SystemConfig};
use rebudget_workloads::{generate_bundle, paper_bbpc_8core, Category};

fn setup() -> (SystemConfig, DramConfig) {
    (SystemConfig::paper_8core(), DramConfig::ddr3_1600())
}

#[test]
fn ep_trails_the_market_when_cliffy_utilities_defy_the_fit() {
    // §1 of the paper: EP "can perform worse than expected when such
    // curve-fitting is not well suited to the applications". The BBPC
    // bundle contains mcf (a cliff Cobb-Douglas cannot express).
    let (sys, dram) = setup();
    let market = build_market(&paper_bbpc_8core(), &sys, &dram, 100.0).expect("market builds");
    let ep = ElasticitiesProportional::new()
        .allocate(&market)
        .expect("EP runs");
    let rb = ReBudget::with_step(100.0, 40.0)
        .allocate(&market)
        .expect("ReBudget runs");
    assert!(
        rb.efficiency >= ep.efficiency - 1e-6,
        "tuned market {} should match or beat EP {}",
        rb.efficiency,
        ep.efficiency
    );
    // And the fits themselves flag the difficulty: mcf's fit error is the
    // worst in the bundle.
    let fits = ElasticitiesProportional::new()
        .fit_players(&market)
        .expect("fits");
    let names = paper_bbpc_8core();
    let worst = fits
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.log_rmse.partial_cmp(&b.1.log_rmse).expect("finite"))
        .map(|(i, _)| names.apps[i].name)
        .expect("non-empty");
    assert_eq!(worst, "mcf", "the cliff app should fit worst");
}

#[test]
fn uncoordinated_baseline_loses_to_the_market_on_power_skewed_bundles() {
    // UCP allocates cache well but splits power blindly; on a bundle with
    // heterogeneous power demand the coordinated market wins.
    let (sys, dram) = setup();
    let mut market_wins = 0;
    let mut total = 0;
    for category in [Category::Ccpp, Category::Cpbn, Category::Bbpn] {
        for index in 0..2 {
            let bundle = generate_bundle(category, 8, index, 11).expect("8 cores");
            let market = build_market(&bundle, &sys, &dram, 100.0).expect("market builds");
            let unc = Uncoordinated.allocate(&market).expect("runs");
            let rb = ReBudget::with_step(100.0, 40.0)
                .allocate(&market)
                .expect("runs");
            total += 1;
            if rb.efficiency >= unc.efficiency - 1e-9 {
                market_wins += 1;
            }
        }
    }
    assert!(
        market_wins * 2 >= total,
        "coordinated market should win at least half: {market_wins}/{total}"
    );
}

#[test]
fn group_market_runs_every_mechanism() {
    let (sys, dram) = setup();
    let app = |n: &str| rebudget_apps::spec::app_by_name(n).expect("exists");
    let bundle = MultithreadedBundle {
        groups: vec![
            ThreadGroup {
                app: app("swim"),
                threads: 4,
            },
            ThreadGroup {
                app: app("mcf"),
                threads: 2,
            },
            ThreadGroup {
                app: app("hmmer"),
                threads: 1,
            },
            ThreadGroup {
                app: app("gzip"),
                threads: 1,
            },
        ],
    };
    let market = build_group_market(&bundle, &sys, &dram, 100.0).expect("group market");
    let eq = EqualBudget::new(100.0).allocate(&market).expect("runs");
    let opt = MaxEfficiency::default().allocate(&market).expect("runs");
    assert!(eq.efficiency > 0.0 && eq.efficiency <= 8.0 + 1e-6);
    assert!(opt.efficiency >= eq.efficiency - 1e-6);
    // The 4-thread group should command several regions under any
    // market outcome given swim's appetite.
    assert!(eq.allocation.get(0, 0) > 1.0);
}
