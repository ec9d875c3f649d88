//! Scenario execution: a [`QuantumHook`] that drives triggers/effects
//! against the real simulation loop, writes the allocation ledger, and
//! verifies the declared properties post-run.

use std::sync::atomic::{AtomicU64, Ordering};

use rebudget_core::mechanisms::{MaxEfficiency, Mechanism};
use rebudget_market::{metrics, AllocationMatrix, Market};
use rebudget_sim::simulation::ExecutionModel;
use rebudget_sim::{
    run_simulation_hooked, system_for, QuantumControls, QuantumHook, QuantumObservation,
    RecoveryOptions, SimOptions, SimResult,
};
use rebudget_workloads::bundle_by_name;

use crate::effect::Effect;
use crate::ledger::{Ledger, LedgerMeta, LedgerRecord};
use crate::model::Scenario;
use crate::properties::{FinalAudit, Property, PropertyContext, PropertyReport};
use crate::trigger::{MetricSnapshot, TriggerState};
use crate::ScenarioError;

/// A completed scenario run: the simulation result, the sealed ledger,
/// the events that fired, and every property verdict.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// The underlying simulation result.
    pub result: SimResult,
    /// The sealed allocation ledger.
    pub ledger: String,
    /// `(quantum, event name)` for every firing, in order.
    pub fired: Vec<(usize, String)>,
    /// One verdict per declared property, in declaration order.
    pub reports: Vec<PropertyReport>,
}

impl ScenarioOutcome {
    /// `true` when every declared property held.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.reports.iter().all(|r| r.passed)
    }

    /// The failed property reports.
    #[must_use]
    pub fn violations(&self) -> Vec<&PropertyReport> {
        self.reports.iter().filter(|r| !r.passed).collect()
    }
}

/// Runs a scenario end to end: simulate with the scenario hook, seal the
/// ledger, then verify every declared property (including the
/// engine-level ledger-replay and resume-identity checks, which re-run
/// the scenario).
///
/// # Errors
///
/// [`ScenarioError::Sim`] if the simulation itself fails; property
/// *violations* are not errors — they come back as failed
/// [`PropertyReport`]s in the outcome.
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioOutcome, ScenarioError> {
    let (result, out) = run_once(scenario, &RecoveryOptions::default(), None)?;

    let ledger_replay: Option<Result<(), String>> = scenario
        .properties
        .contains(&Property::LedgerReplay)
        .then(|| {
            let (_, second) = run_once(scenario, &RecoveryOptions::default(), None)
                .map_err(|e| format!("replay run failed: {e}"))?;
            if second.ledger.text() == out.ledger.text() {
                Ok(())
            } else {
                Err(first_divergence(out.ledger.text(), second.ledger.text()))
            }
        });

    let resume: Option<Result<(), String>> = scenario
        .properties
        .contains(&Property::ResumeIdentity)
        .then(|| resume_check(scenario, &result));

    let ctx = PropertyContext {
        result: &result,
        audit: out.audit.as_ref(),
        ledger_replay: ledger_replay.as_ref(),
        resume: resume.as_ref(),
    };
    let reports = scenario.properties.iter().map(|p| p.check(&ctx)).collect();

    Ok(ScenarioOutcome {
        name: scenario.name.clone(),
        result,
        ledger: out.ledger.text().to_string(),
        fired: out.fired,
        reports,
    })
}

/// What the hook accumulated over one run.
struct HookOutput {
    ledger: Ledger,
    fired: Vec<(usize, String)>,
    audit: Option<FinalAudit>,
}

/// One simulation pass of the scenario. `quanta_override` truncates the
/// run (used by the resume-identity check to produce a mid-flight
/// snapshot).
fn run_once(
    scenario: &Scenario,
    recovery: &RecoveryOptions,
    quanta_override: Option<usize>,
) -> Result<(SimResult, HookOutput), ScenarioError> {
    let (sys, dram) = system_for(scenario.cores);
    let bundle =
        bundle_by_name(&scenario.workload, scenario.cores, scenario.seed).map_err(|e| {
            ScenarioError::Format {
                line: 1,
                reason: format!("workload generation failed: {e}"),
            }
        })?;
    let mechanism = scenario
        .build_mechanism()
        .map_err(|reason| ScenarioError::Format { line: 1, reason })?;
    let opts = SimOptions {
        quanta: quanta_override.unwrap_or_else(|| scenario.total_quanta()),
        accesses_per_quantum: scenario.accesses_per_quantum,
        budget: scenario.budget,
        use_monitors: true,
        seed: scenario.seed,
        execution: ExecutionModel::Analytic,
        // Faults flow through the hook's controls, not the options: the
        // hook installs the base plan at quantum 0 and swaps it on events.
        faults: None,
        max_consecutive_failures: 3,
    };
    let mut hook = ScenarioHook::new(scenario, &opts);
    let result = run_simulation_hooked(
        &sys,
        &dram,
        &bundle,
        mechanism.as_ref(),
        &opts,
        recovery,
        &mut hook,
    )?;
    hook.ledger.seal();
    Ok((
        result,
        HookOutput {
            ledger: hook.ledger,
            fired: hook.fired,
            audit: hook.audit,
        },
    ))
}

/// The scenario engine's [`QuantumHook`]: evaluates triggers, applies
/// effects to persistent control state, and appends every quantum to the
/// ledger.
struct ScenarioHook<'a> {
    scenario: &'a Scenario,
    /// Which `once` events have already fired.
    consumed: Vec<bool>,
    /// Current fault plan (starts as the scenario's base plan).
    faults: Option<rebudget_market::FaultPlan>,
    budget_scale: Vec<f64>,
    utility_scale: Vec<f64>,
    active: Vec<bool>,
    /// Previous quantum's metrics for threshold triggers.
    prev: Option<MetricSnapshot>,
    /// MUR reported by the most recent live solve.
    last_mur: Option<f64>,
    /// Events fired for the quantum being built (drained into its ledger
    /// record).
    pending: Vec<String>,
    fired: Vec<(usize, String)>,
    ledger: Ledger,
    want_oracle: bool,
    audit: Option<FinalAudit>,
}

impl<'a> ScenarioHook<'a> {
    fn new(scenario: &'a Scenario, opts: &SimOptions) -> Self {
        let n = scenario.cores;
        let faults_spec = scenario
            .base_faults
            .as_ref()
            .map(ToString::to_string)
            .unwrap_or_default();
        Self {
            scenario,
            consumed: vec![false; scenario.events.len()],
            faults: scenario.base_faults.clone(),
            budget_scale: vec![1.0; n],
            utility_scale: vec![1.0; n],
            active: vec![true; n],
            prev: None,
            last_mur: None,
            pending: Vec::new(),
            fired: Vec::new(),
            ledger: Ledger::new(&LedgerMeta {
                scenario: scenario.name.clone(),
                seed: scenario.seed,
                mechanism: scenario.mechanism.clone(),
                workload: scenario.workload.clone(),
                cores: n,
                resources: 2,
                quanta: opts.quanta,
                budget: scenario.budget,
                faults: faults_spec,
            }),
            want_oracle: scenario
                .properties
                .iter()
                .any(|p| matches!(p, Property::Theorem1Floor { .. })),
            audit: None,
        }
    }

    fn apply(&mut self, effect: &Effect) {
        match effect {
            Effect::Faults(plan) => self.faults = Some(plan.clone()),
            Effect::ClearFaults => self.faults = None,
            Effect::FaultIntensity(x) => {
                self.faults = self.faults.as_ref().map(|p| p.at_intensity(*x));
            }
            Effect::BudgetScale { player, factor } => {
                scale(&mut self.budget_scale, *player, *factor);
            }
            Effect::BudgetScales(scales) => self.budget_scale.clone_from(scales),
            Effect::UtilityScale { player, factor } => {
                scale(&mut self.utility_scale, *player, *factor);
            }
            Effect::Depart(i) => self.active[*i] = false,
            Effect::Arrive(i) => self.active[*i] = true,
            Effect::Reset => {
                self.faults = self.scenario.base_faults.clone();
                self.budget_scale.fill(1.0);
                self.utility_scale.fill(1.0);
                self.active.fill(true);
            }
        }
    }
}

fn scale(scales: &mut [f64], player: Option<usize>, factor: f64) {
    match player {
        Some(i) => scales[i] *= factor,
        None => {
            for s in scales.iter_mut() {
                *s *= factor;
            }
        }
    }
}

impl QuantumHook for ScenarioHook<'_> {
    fn control(&mut self, quantum: usize, controls: &mut QuantumControls) {
        let (phase, phase_start) = self.scenario.phase_at(quantum);
        let state = TriggerState {
            quantum,
            phase: &phase.name,
            phase_start,
            prev: self.prev,
        };
        for i in 0..self.scenario.events.len() {
            if self.consumed[i] {
                continue;
            }
            if self.scenario.events[i].trigger.evaluate(&state) {
                if self.scenario.events[i].once {
                    self.consumed[i] = true;
                }
                let name = self.scenario.events[i].name.clone();
                let effects = self.scenario.events[i].effects.clone();
                for effect in &effects {
                    self.apply(effect);
                }
                self.pending.push(name.clone());
                self.fired.push((quantum, name));
            }
        }
        controls.faults = self.faults.clone();
        controls.budget_scale.clone_from(&self.budget_scale);
        controls.utility_scale.clone_from(&self.utility_scale);
        controls.active.clone_from(&self.active);
    }

    fn observe(&mut self, obs: &QuantumObservation) {
        self.prev = Some(MetricSnapshot {
            efficiency: obs.efficiency,
            envy_freeness: obs.envy_freeness,
            residual: obs.residual,
            degraded_quanta: obs.cumulative_degraded,
            fallback_quanta: obs.cumulative_fallback,
        });
        if obs.mur.is_some() {
            self.last_mur = obs.mur;
        }
        let (phase, _) = self.scenario.phase_at(obs.quantum);
        let events = std::mem::take(&mut self.pending);
        self.ledger.append(&LedgerRecord {
            quantum: obs.quantum,
            phase: &phase.name,
            events: &events,
            active: &self.active,
            budgets: &obs.budgets,
            allocation: &obs.allocation,
            efficiency: obs.efficiency,
            envy_freeness: obs.envy_freeness,
            degraded: obs.degraded,
            fallback: obs.fallback,
            converged: obs.converged,
        });
    }

    fn observe_final(&mut self, market: &Market, allocation: &AllocationMatrix) {
        let budgets: Vec<f64> = market.players().iter().map(|p| p.budget()).collect();
        let oracle_efficiency = if self.want_oracle {
            MaxEfficiency::default()
                .allocate(market)
                .ok()
                .map(|out| metrics::efficiency(market, &out.allocation))
        } else {
            None
        };
        self.audit = Some(FinalAudit {
            market_efficiency: metrics::efficiency(market, allocation),
            oracle_efficiency,
            envy_freeness: metrics::envy_freeness(market, allocation),
            mur: self.last_mur,
            mbr: metrics::mbr(&budgets),
        });
    }
}

/// Names the first line where two ledgers disagree.
fn first_divergence(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("ledgers diverge at line {}: '{la}' vs '{lb}'", i + 1);
        }
    }
    format!(
        "ledgers diverge in length: {} vs {} lines",
        a.lines().count(),
        b.lines().count()
    )
}

/// Monotonic tag so concurrent resume checks never share a snapshot path.
static RESUME_TAG: AtomicU64 = AtomicU64::new(0);

/// Runs the scenario to its midpoint with per-quantum snapshots, resumes
/// the full run from the snapshot, and demands the resumed result match
/// `reference` bit for bit.
fn resume_check(scenario: &Scenario, reference: &SimResult) -> Result<(), String> {
    let tag = RESUME_TAG.fetch_add(1, Ordering::Relaxed);
    let name: String = scenario
        .name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let ckpt = std::env::temp_dir().join(format!(
        "rebudget-scenario-{name}-{}-{tag}.ckpt",
        std::process::id()
    ));
    let prev = rebudget_sim::durable::prev_path(&ckpt);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&prev);

    let half = (scenario.total_quanta() / 2).max(1);
    let snapshot = RecoveryOptions {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 1,
        resume: None,
    };
    let truncated =
        run_once(scenario, &snapshot, Some(half)).map_err(|e| format!("snapshot run failed: {e}"));
    let resumed = truncated.and_then(|_| {
        let resume = RecoveryOptions {
            checkpoint: None,
            checkpoint_every: 0,
            resume: Some(ckpt.clone()),
        };
        run_once(scenario, &resume, None).map_err(|e| format!("resumed run failed: {e}"))
    });
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&prev);
    let (resumed, _) = resumed?;

    if resumed.replayed_quanta != half {
        return Err(format!(
            "resume replayed {} quanta, expected {half}",
            resumed.replayed_quanta
        ));
    }
    let bits = |r: &SimResult| {
        let mut v = vec![r.efficiency.to_bits(), r.envy_freeness.to_bits()];
        v.extend(r.utilities.iter().map(|u| u.to_bits()));
        v.extend(r.efficiency_history.iter().map(|e| e.to_bits()));
        v
    };
    if bits(&resumed) == bits(reference) {
        Ok(())
    } else {
        Err("resumed run's metrics differ from the uninterrupted run".into())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::ledger;

    fn quiet(extra: &str) -> Scenario {
        Scenario::parse(&format!(
            "[scenario]
name = \"engine-test\"
cores = 8
workload = \"cpbn\"
mechanism = \"rebudget\"
seed = 11

[[phases]]
name = \"steady\"
quanta = 4
{extra}"
        ))
        .unwrap()
    }

    #[test]
    fn neutral_scenario_matches_the_plain_simulation() {
        let s = quiet("");
        let outcome = run_scenario(&s).unwrap();
        let (sys, dram) = system_for(8);
        let bundle = bundle_by_name(&s.workload, s.cores, s.seed).unwrap();
        let mechanism = s.build_mechanism().unwrap();
        let opts = SimOptions {
            quanta: 4,
            seed: 11,
            ..SimOptions::default()
        };
        let plain =
            rebudget_sim::run_simulation(&sys, &dram, &bundle, mechanism.as_ref(), &opts).unwrap();
        assert_eq!(
            outcome.result.efficiency.to_bits(),
            plain.efficiency.to_bits(),
            "a no-event scenario is the un-hooked pipeline bit for bit"
        );
        assert_eq!(
            outcome.result.envy_freeness.to_bits(),
            plain.envy_freeness.to_bits()
        );
        assert!(outcome.fired.is_empty());
        ledger::verify(&outcome.ledger).unwrap();
    }

    #[test]
    fn events_fire_and_land_in_the_ledger() {
        let s = quiet(
            "
[[events]]
name = \"shock\"
trigger = { at = 2 }
effects = [{ budget-scale = 3.0, player = 0 }]
",
        );
        let outcome = run_scenario(&s).unwrap();
        assert_eq!(outcome.fired, vec![(2, "shock".to_string())]);
        assert!(outcome.ledger.contains("events=shock"));
        // The shocked player's budget triples from quantum 2 on.
        let summary = ledger::verify(&outcome.ledger).unwrap();
        assert_eq!(summary.records, 4);
    }

    #[test]
    fn properties_are_verified_and_reported() {
        let s = quiet(
            "
[[properties]]
kind = \"no-nan\"

[[properties]]
kind = \"min-efficiency\"
value = 9999.0
",
        );
        let outcome = run_scenario(&s).unwrap();
        assert_eq!(outcome.reports.len(), 2);
        assert!(outcome.reports[0].passed, "{}", outcome.reports[0].detail);
        assert!(!outcome.reports[1].passed);
        assert!(!outcome.passed());
        assert_eq!(outcome.violations().len(), 1);
        assert_eq!(outcome.violations()[0].property, "min-efficiency");
    }

    #[test]
    fn departures_zero_rows_and_scale_budgets() {
        let s = quiet(
            "
[[events]]
name = \"churn\"
trigger = { at = 1 }
effects = [{ depart = 3 }]
",
        );
        let outcome = run_scenario(&s).unwrap();
        // After quantum 1, player 3's allocation rows are zero in the
        // ledger (8 players × 2 resources, row-major).
        let zero16 = "0".repeat(16);
        let mut saw_departed = false;
        for line in outcome.ledger.lines() {
            if let Some(rest) = line.strip_prefix("alloc=") {
                let cells: Vec<&str> = rest.split(' ').collect();
                assert_eq!(cells.len(), 16);
                if cells[6] == zero16 && cells[7] == zero16 {
                    saw_departed = true;
                }
            }
        }
        assert!(saw_departed, "departed player must have zero rows");
        assert!(outcome.ledger.contains("active=11101111"));
    }
}
