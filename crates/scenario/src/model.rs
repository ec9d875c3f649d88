//! The typed scenario model and its validation rules.

use std::path::Path;

use rebudget_core::mechanisms::{by_name, Mechanism};
use rebudget_market::equilibrium::EquilibriumOptions;
use rebudget_market::FaultPlan;
use rebudget_workloads::{bundle_by_name, WorkloadError};

use crate::effect::Effect;
use crate::properties::Property;
use crate::toml::{self, Spanned, TableReader};
use crate::trigger::Trigger;
use crate::ScenarioError;

/// Phase lists longer than this are rejected — a scenario is a curated
/// storyline, not a generated schedule.
pub const MAX_PHASES: usize = 32;
/// Total quanta across all phases may not exceed this (a runaway scenario
/// would stall the CI matrix).
pub const MAX_TOTAL_QUANTA: usize = 50_000;

/// One contiguous stretch of quanta.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name, referenced by `{ phase = ... }` triggers.
    pub name: String,
    /// How many quanta the phase lasts (≥ 1).
    pub quanta: usize,
    /// Source line, for error reporting.
    pub line: usize,
}

/// A named trigger → effects rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Event name, recorded in the ledger when it fires.
    pub name: String,
    /// When the event fires.
    pub trigger: Trigger,
    /// What it does when it fires.
    pub effects: Vec<Effect>,
    /// Fire at most once (the default). `once = false` re-fires on every
    /// quantum the trigger holds.
    pub once: bool,
    /// Source line, for error reporting.
    pub line: usize,
}

/// A fully parsed and validated scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (used in the ledger header and reports).
    pub name: String,
    /// One-line description.
    pub description: String,
    /// Simulation seed.
    pub seed: u64,
    /// Core count (= player count).
    pub cores: usize,
    /// Workload: `"bbpc"` (the paper's 8-core case study) or a category
    /// name (`cpbn`, `ccpp`, `cpbb`, `bbnn`, `bbpn`, `bbcn`).
    pub workload: String,
    /// Mechanism: `equalshare`, `equalbudget`, `balanced`, `rebudget`,
    /// or `maxefficiency`.
    pub mechanism: String,
    /// ReBudget step size (ignored by other mechanisms).
    pub step: Option<f64>,
    /// Per-player budget (default 100).
    pub budget: f64,
    /// Synthetic L2 accesses per core per quantum (default 20 000).
    pub accesses_per_quantum: usize,
    /// Fault plan in force from quantum 0, before any event fires.
    pub base_faults: Option<FaultPlan>,
    /// The phase schedule (at least one phase).
    pub phases: Vec<Phase>,
    /// Trigger → effects rules.
    pub events: Vec<Event>,
    /// Properties verified after the run.
    pub properties: Vec<Property>,
}

impl Scenario {
    /// Total quanta across all phases.
    #[must_use]
    pub fn total_quanta(&self) -> usize {
        self.phases.iter().map(|p| p.quanta).sum()
    }

    /// The phase quantum `q` falls in, and whether `q` is its first
    /// quantum.
    #[must_use]
    pub fn phase_at(&self, q: usize) -> (&Phase, bool) {
        let mut start = 0;
        for phase in &self.phases {
            if q < start + phase.quanta {
                return (phase, q == start);
            }
            start += phase.quanta;
        }
        let last = self.phases.last().expect("validated: at least one phase");
        (last, false)
    }

    /// `true` if every event trigger is a pure function of time/phase —
    /// the precondition for checkpoint-resume identity.
    #[must_use]
    pub fn is_time_only(&self) -> bool {
        self.events.iter().all(|e| e.trigger.is_time_only())
    }

    /// Loads and validates a scenario file.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Io`] if the file cannot be read, otherwise
    /// whatever [`Scenario::parse`] reports.
    pub fn load(path: &Path) -> Result<Self, ScenarioError> {
        let text = std::fs::read_to_string(path)?;
        Self::parse(&text)
    }

    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Format`] with the 1-based line of the first
    /// offence — unknown keys, malformed triggers/effects, out-of-range
    /// references, or an over-long phase list.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let root = toml::parse(text)?;
        let mut reader = TableReader::new(&root, "the scenario document");

        let header = reader.require("scenario")?.as_table()?;
        let mut head = TableReader::new(header, "[scenario]");
        let name = head.require("name")?.as_str()?.to_string();
        let description = match head.take("description") {
            Some(d) => d.as_str()?.to_string(),
            None => String::new(),
        };
        let seed = match head.take("seed") {
            Some(s) => s.as_u64()?,
            None => 1,
        };
        let cores = head.require("cores")?.as_usize()?;
        let workload = head.require("workload")?.as_str()?.to_lowercase();
        let mechanism = head.require("mechanism")?.as_str()?.to_lowercase();
        let step = head.take("step").map(Spanned::as_f64).transpose()?;
        let budget = match head.take("budget") {
            Some(b) => b.as_f64()?,
            None => 100.0,
        };
        let accesses_per_quantum = match head.take("accesses") {
            Some(a) => a.as_usize()?,
            None => 20_000,
        };
        let base_faults = match head.take("faults") {
            Some(f) => {
                let plan = FaultPlan::parse(f.as_str()?).map_err(|e| ScenarioError::Format {
                    line: f.line,
                    reason: format!("bad fault spec: {e}"),
                })?;
                Some(plan).filter(FaultPlan::is_active)
            }
            None => None,
        };
        let header_line = head.line();
        head.finish()?;

        let phases = parse_phases(reader.require("phases")?)?;
        let events = match reader.take("events") {
            Some(v) => parse_events(v)?,
            None => Vec::new(),
        };
        let properties = match reader.take("properties") {
            Some(v) => v
                .as_array()?
                .iter()
                .map(Property::from_toml)
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        reader.finish()?;

        let scenario = Scenario {
            name,
            description,
            seed,
            cores,
            workload,
            mechanism,
            step,
            budget,
            accesses_per_quantum,
            base_faults,
            phases,
            events,
            properties,
        };
        scenario.validate(header_line)?;
        Ok(scenario)
    }

    /// The scenario's mechanism, on default equilibrium options with no
    /// retry ladder.
    ///
    /// # Errors
    ///
    /// An unknown mechanism name or a bad ReBudget step.
    pub(crate) fn build_mechanism(&self) -> Result<Box<dyn Mechanism>, String> {
        by_name(
            &self.mechanism,
            self.budget,
            self.step,
            &EquilibriumOptions::default(),
            None,
        )
    }

    fn validate(&self, header_line: usize) -> Result<(), ScenarioError> {
        let fail = |line: usize, reason: String| Err(ScenarioError::Format { line, reason });

        if self.name.is_empty() {
            return fail(header_line, "scenario name must not be empty".into());
        }
        if self.cores < 2 {
            return fail(
                header_line,
                "a market scenario needs at least 2 cores".into(),
            );
        }
        // A core count the generator cannot split is reported by the run.
        match bundle_by_name(&self.workload, self.cores, self.seed) {
            Err(WorkloadError::UnknownCategory { .. }) => {
                return fail(header_line, format!("unknown workload '{}'", self.workload));
            }
            Err(e @ WorkloadError::BbpcNeeds8Cores) => return fail(header_line, e.to_string()),
            _ => {}
        }
        if let Err(reason) = self.build_mechanism() {
            return fail(header_line, reason);
        }
        if !(self.budget.is_finite() && self.budget > 0.0) {
            return fail(header_line, "budget must be finite and positive".into());
        }

        if self.phases.is_empty() {
            return fail(header_line, "a scenario needs at least one phase".into());
        }
        if self.phases.len() > MAX_PHASES {
            return fail(
                self.phases[MAX_PHASES].line,
                format!(
                    "over-long phase list: {} phases (limit {MAX_PHASES})",
                    self.phases.len()
                ),
            );
        }
        for (i, phase) in self.phases.iter().enumerate() {
            if phase.quanta == 0 {
                return fail(
                    phase.line,
                    format!("phase '{}' must last at least one quantum", phase.name),
                );
            }
            if self.phases[..i].iter().any(|p| p.name == phase.name) {
                return fail(
                    phase.line,
                    format!(
                        "cyclic phase list: phase '{}' appears twice (phases are a \
                         one-way schedule)",
                        phase.name
                    ),
                );
            }
        }
        if self.total_quanta() > MAX_TOTAL_QUANTA {
            return fail(
                self.phases.last().expect("non-empty").line,
                format!(
                    "scenario runs {} quanta (limit {MAX_TOTAL_QUANTA})",
                    self.total_quanta()
                ),
            );
        }

        for event in &self.events {
            for referenced in trigger_phases(&event.trigger) {
                if !self.phases.iter().any(|p| p.name == referenced) {
                    return fail(
                        event.line,
                        format!(
                            "event '{}' references unknown phase '{referenced}'",
                            event.name
                        ),
                    );
                }
            }
            for effect in &event.effects {
                if let Some(max) = effect.max_player() {
                    if max >= self.cores {
                        return fail(
                            event.line,
                            format!(
                                "event '{}' references player {max} in a {}-core \
                                 scenario",
                                event.name, self.cores
                            ),
                        );
                    }
                }
                if let Effect::BudgetScales(scales) = effect {
                    if scales.len() != self.cores {
                        return fail(
                            event.line,
                            format!(
                                "budget-scales has {} entries for {} players",
                                scales.len(),
                                self.cores
                            ),
                        );
                    }
                }
            }
        }

        for property in &self.properties {
            if *property == Property::ResumeIdentity && !self.is_time_only() {
                return fail(
                    header_line,
                    "resume-identity requires time-only triggers (metric triggers \
                     cannot replay from a snapshot)"
                        .into(),
                );
            }
            if matches!(property, Property::Theorem1Floor { .. })
                && matches!(self.mechanism.as_str(), "equalshare" | "maxefficiency")
            {
                return fail(
                    header_line,
                    format!(
                        "theorem1-floor needs a market mechanism (got '{}')",
                        self.mechanism
                    ),
                );
            }
        }
        Ok(())
    }
}

fn trigger_phases(trigger: &Trigger) -> Vec<&str> {
    match trigger {
        Trigger::Phase(name) | Trigger::PhaseStart(name) => vec![name.as_str()],
        Trigger::All(subs) | Trigger::Any(subs) => subs.iter().flat_map(trigger_phases).collect(),
        _ => Vec::new(),
    }
}

fn parse_phases(v: &Spanned) -> Result<Vec<Phase>, ScenarioError> {
    v.as_array()?
        .iter()
        .map(|item| {
            let table = item.as_table()?;
            let mut reader = TableReader::new(table, "[[phases]]");
            let line = reader.line();
            let phase = Phase {
                name: reader.require("name")?.as_str()?.to_string(),
                quanta: reader.require("quanta")?.as_usize()?,
                line,
            };
            reader.finish()?;
            Ok(phase)
        })
        .collect()
}

fn parse_events(v: &Spanned) -> Result<Vec<Event>, ScenarioError> {
    v.as_array()?
        .iter()
        .map(|item| {
            let table = item.as_table()?;
            let mut reader = TableReader::new(table, "[[events]]");
            let line = reader.line();
            let name = reader.require("name")?.as_str()?.to_string();
            let trigger = Trigger::from_toml(reader.require("trigger")?)?;
            let effects_value = reader.require("effects")?;
            let effects = effects_value
                .as_array()?
                .iter()
                .map(Effect::from_toml)
                .collect::<Result<Vec<_>, _>>()?;
            if effects.is_empty() {
                return Err(ScenarioError::Format {
                    line: effects_value.line,
                    reason: format!("event '{name}' has no effects"),
                });
            }
            let once = match reader.take("once") {
                Some(o) => o.as_bool()?,
                None => true,
            };
            reader.finish()?;
            Ok(Event {
                name,
                trigger,
                effects,
                once,
                line,
            })
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    const MINIMAL: &str = "\
[scenario]
name = \"quiet\"
cores = 8
workload = \"cpbn\"
mechanism = \"rebudget\"
seed = 7

[[phases]]
name = \"steady\"
quanta = 6
";

    #[test]
    fn parses_a_minimal_scenario_with_defaults() {
        let s = Scenario::parse(MINIMAL).unwrap();
        assert_eq!(s.name, "quiet");
        assert_eq!(s.total_quanta(), 6);
        assert_eq!(s.budget, 100.0);
        assert_eq!(s.accesses_per_quantum, 20_000);
        assert!(s.base_faults.is_none());
        assert!(s.events.is_empty());
        assert!(s.is_time_only());
        assert_eq!(s.phase_at(0), (&s.phases[0], true));
        assert_eq!(s.phase_at(3), (&s.phases[0], false));
    }

    #[test]
    fn parses_events_and_properties() {
        let doc = format!(
            "{MINIMAL}
[[phases]]
name = \"storm\"
quanta = 4

[[events]]
name = \"onset\"
trigger = {{ phase-start = \"storm\" }}
effects = [{{ faults = \"noise=0.2,seed=3\" }}]

[[properties]]
kind = \"no-nan\"
"
        );
        let s = Scenario::parse(&doc).unwrap();
        assert_eq!(s.total_quanta(), 10);
        assert_eq!(s.events.len(), 1);
        assert!(s.events[0].once);
        assert_eq!(s.properties, vec![Property::NoNan]);
        let (phase, start) = s.phase_at(6);
        assert_eq!(phase.name, "storm");
        assert!(start);
    }

    fn expect_line(doc: &str, needle: &str) -> usize {
        match Scenario::parse(doc).unwrap_err() {
            ScenarioError::Format { line, reason } => {
                assert!(reason.contains(needle), "wanted '{needle}' in '{reason}'");
                line
            }
            other => panic!("expected Format, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_keys_with_lines() {
        let doc = MINIMAL.replace("seed = 7", "seed = 7\nquata = 3");
        assert_eq!(expect_line(&doc, "unknown key 'quata'"), 7);
    }

    #[test]
    fn rejects_cyclic_and_over_long_phase_lists() {
        let doc = format!(
            "{MINIMAL}
[[phases]]
name = \"steady\"
quanta = 3
"
        );
        expect_line(&doc, "cyclic phase list");

        let mut long = MINIMAL.to_string();
        for i in 0..MAX_PHASES {
            long.push_str(&format!("\n[[phases]]\nname = \"p{i}\"\nquanta = 1\n"));
        }
        expect_line(&long, "over-long phase list");

        let doc = MINIMAL.replace("quanta = 6", "quanta = 0");
        expect_line(&doc, "at least one quantum");

        let doc = MINIMAL.replace("quanta = 6", &format!("quanta = {}", MAX_TOTAL_QUANTA + 1));
        expect_line(&doc, "limit");
    }

    #[test]
    fn rejects_dangling_references() {
        let doc = format!(
            "{MINIMAL}
[[events]]
name = \"e\"
trigger = {{ phase = \"nope\" }}
effects = [{{ reset = true }}]
"
        );
        expect_line(&doc, "unknown phase 'nope'");

        let doc = format!(
            "{MINIMAL}
[[events]]
name = \"e\"
trigger = {{ at = 0 }}
effects = [{{ depart = 9 }}]
"
        );
        expect_line(&doc, "references player 9");

        let doc = format!(
            "{MINIMAL}
[[events]]
name = \"e\"
trigger = {{ at = 0 }}
effects = [{{ budget-scales = [1.0, 2.0] }}]
"
        );
        expect_line(&doc, "2 entries for 8 players");
    }

    #[test]
    fn rejects_incoherent_property_declarations() {
        let doc = format!(
            "{MINIMAL}
[[events]]
name = \"adaptive\"
trigger = {{ metric = \"residual\", at-least = 0.5 }}
effects = [{{ reset = true }}]

[[properties]]
kind = \"resume-identity\"
"
        );
        expect_line(&doc, "resume-identity requires time-only triggers");

        let doc = MINIMAL.replace("mechanism = \"rebudget\"", "mechanism = \"equalshare\"")
            + "\n[[properties]]\nkind = \"theorem1-floor\"\n";
        expect_line(&doc, "theorem1-floor needs a market mechanism");
    }

    #[test]
    fn rejects_bad_header_values() {
        expect_line(
            &MINIMAL.replace("workload = \"cpbn\"", "workload = \"zzz\""),
            "unknown workload",
        );
        expect_line(
            &MINIMAL.replace("mechanism = \"rebudget\"", "mechanism = \"magic\""),
            "unknown mechanism",
        );
        expect_line(
            &MINIMAL.replace("cores = 8", "cores = 1"),
            "at least 2 cores",
        );
        expect_line(
            &MINIMAL
                .replace("cores = 8", "cores = 4")
                .replace("workload = \"cpbn\"", "workload = \"bbpc\""),
            "8-core",
        );
        expect_line(
            &MINIMAL.replace("seed = 7", "seed = 7\nbudget = -1.0"),
            "budget must be finite and positive",
        );
        expect_line(
            &MINIMAL.replace("seed = 7", "seed = 7\nstep = -5.0"),
            "step must be positive and finite",
        );
    }
}
