//! Declared post-run properties and their verification.
//!
//! A scenario states what must hold after it runs — the paper's fairness
//! floors (Theorems 1 and 2 via [`rebudget_core::theory`]), convergence,
//! absence of NaNs, absolute metric bounds, and the engine-level
//! bit-identity checks (ledger replay, checkpoint resume). Violations
//! are reported by name and exit the CLI with `EXIT_PROPERTY`.

use rebudget_core::theory;
use rebudget_sim::SimResult;

use crate::toml::{Spanned, TableReader};
use crate::ScenarioError;

/// A property a scenario declares about its own run.
#[derive(Debug, Clone, PartialEq)]
pub enum Property {
    /// Theorem 1: final market efficiency is at least
    /// `poa_lower_bound(MUR)` of the max-efficiency oracle's, minus
    /// `tolerance`.
    Theorem1Floor {
        /// Slack subtracted from the theoretical floor.
        tolerance: f64,
    },
    /// Theorem 2: final envy-freeness is at least `ef_lower_bound(MBR)`
    /// minus `tolerance`.
    Theorem2Floor {
        /// Slack subtracted from the theoretical floor.
        tolerance: f64,
    },
    /// Every quantum's solve converged (no degradation, no fallback).
    Converged,
    /// No NaN anywhere in the result metrics or trajectory.
    NoNan,
    /// Re-running the scenario reproduces the allocation ledger byte for
    /// byte.
    LedgerReplay,
    /// Checkpointing mid-run and resuming reproduces the run bit for bit
    /// (requires time-only triggers).
    ResumeIdentity,
    /// Final measured efficiency is at least this.
    MinEfficiency(f64),
    /// Final envy-freeness is at least this.
    MinEnvyFreeness(f64),
    /// At most this many degraded quanta.
    MaxDegraded(usize),
    /// At most this many `EqualShare` fallback quanta.
    MaxFallback(usize),
}

impl Property {
    /// The property's declared name (the `kind` key).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Property::Theorem1Floor { .. } => "theorem1-floor",
            Property::Theorem2Floor { .. } => "theorem2-floor",
            Property::Converged => "converged",
            Property::NoNan => "no-nan",
            Property::LedgerReplay => "ledger-replay",
            Property::ResumeIdentity => "resume-identity",
            Property::MinEfficiency(_) => "min-efficiency",
            Property::MinEnvyFreeness(_) => "min-envy-freeness",
            Property::MaxDegraded(_) => "max-degraded",
            Property::MaxFallback(_) => "max-fallback",
        }
    }

    /// Parses a `[[properties]]` table.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Format`] naming the offending line.
    pub fn from_toml(spanned: &Spanned) -> Result<Self, ScenarioError> {
        let table = spanned.as_table()?;
        let mut reader = TableReader::new(table, "[[properties]]");
        let kind = reader.require("kind")?;
        let kind_name = kind.as_str()?;
        let property = match kind_name {
            "theorem1-floor" | "theorem2-floor" => {
                let tolerance = match reader.take("tolerance") {
                    Some(t) => t.as_f64()?,
                    None => 1e-9,
                };
                if kind_name == "theorem1-floor" {
                    Property::Theorem1Floor { tolerance }
                } else {
                    Property::Theorem2Floor { tolerance }
                }
            }
            "converged" => Property::Converged,
            "no-nan" => Property::NoNan,
            "ledger-replay" => Property::LedgerReplay,
            "resume-identity" => Property::ResumeIdentity,
            "min-efficiency" => Property::MinEfficiency(reader.require("value")?.as_f64()?),
            "min-envy-freeness" => Property::MinEnvyFreeness(reader.require("value")?.as_f64()?),
            "max-degraded" => Property::MaxDegraded(reader.require("value")?.as_usize()?),
            "max-fallback" => Property::MaxFallback(reader.require("value")?.as_usize()?),
            other => {
                return Err(ScenarioError::Format {
                    line: kind.line,
                    reason: format!("unknown property kind '{other}'"),
                })
            }
        };
        reader.finish()?;
        Ok(property)
    }
}

/// The fairness/efficiency audit of the final quantum's market, computed
/// by the engine's hook from the actual utility surfaces (theorem floors
/// cannot be judged from the scalar trajectory alone).
#[derive(Debug, Clone)]
pub struct FinalAudit {
    /// Efficiency of the final allocation in market-utility units.
    pub market_efficiency: f64,
    /// Efficiency of the max-efficiency oracle on the same market, when a
    /// `theorem1-floor` property asked for it.
    pub oracle_efficiency: Option<f64>,
    /// Envy-freeness of the final allocation.
    pub envy_freeness: f64,
    /// Market Utility Range reported by the final quantum's solve, if a
    /// market mechanism ran.
    pub mur: Option<f64>,
    /// Market Budget Range of the final quantum's budgets.
    pub mbr: f64,
}

/// Everything property verification can look at.
pub struct PropertyContext<'a> {
    /// The run's result.
    pub result: &'a SimResult,
    /// Final-market audit (absent only if the run produced no quanta).
    pub audit: Option<&'a FinalAudit>,
    /// Outcome of the ledger-replay check, when the engine ran it.
    pub ledger_replay: Option<&'a Result<(), String>>,
    /// Outcome of the resume-identity check, when the engine ran it.
    pub resume: Option<&'a Result<(), String>>,
}

/// One property's verdict.
#[derive(Debug, Clone)]
pub struct PropertyReport {
    /// The property's `kind` name.
    pub property: String,
    /// Whether it held.
    pub passed: bool,
    /// Human-readable evidence (the numbers compared).
    pub detail: String,
}

impl Property {
    /// Checks the property against a completed run.
    #[must_use]
    pub fn check(&self, ctx: &PropertyContext) -> PropertyReport {
        let (passed, detail) = self.verdict(ctx);
        PropertyReport {
            property: self.name().to_string(),
            passed,
            detail,
        }
    }

    fn verdict(&self, ctx: &PropertyContext) -> (bool, String) {
        let r = ctx.result;
        match self {
            Property::Theorem1Floor { tolerance } => {
                let Some(audit) = ctx.audit else {
                    return (false, "no final market to audit".into());
                };
                let (Some(mur), Some(oracle)) = (audit.mur, audit.oracle_efficiency) else {
                    return (
                        false,
                        "theorem1-floor needs a market mechanism (no MUR/oracle reported)".into(),
                    );
                };
                let floor = theory::poa_lower_bound(mur);
                let ratio = if oracle > 0.0 {
                    audit.market_efficiency / oracle
                } else {
                    1.0
                };
                (
                    ratio >= floor - tolerance,
                    format!(
                        "efficiency ratio {ratio:.6} vs floor {floor:.6} (MUR {mur:.6}, \
                         tolerance {tolerance:e})"
                    ),
                )
            }
            Property::Theorem2Floor { tolerance } => {
                let Some(audit) = ctx.audit else {
                    return (false, "no final market to audit".into());
                };
                let floor = theory::ef_lower_bound(audit.mbr);
                (
                    audit.envy_freeness >= floor - tolerance,
                    format!(
                        "envy-freeness {:.6} vs floor {floor:.6} (MBR {:.6}, tolerance \
                         {tolerance:e})",
                        audit.envy_freeness, audit.mbr
                    ),
                )
            }
            Property::Converged => (
                r.solve.converged && r.degraded_quanta == 0 && r.fallback_quanta == 0,
                format!(
                    "always_converged {}, degraded {}, fallback {}",
                    r.solve.converged, r.degraded_quanta, r.fallback_quanta
                ),
            ),
            Property::NoNan => {
                let nan = r.efficiency.is_nan()
                    || r.envy_freeness.is_nan()
                    || r.utilities.iter().any(|u| u.is_nan())
                    || r.efficiency_history.iter().any(|e| e.is_nan());
                (
                    !nan,
                    format!("efficiency {:.6}, NaN found: {nan}", r.efficiency),
                )
            }
            Property::LedgerReplay => match ctx.ledger_replay {
                Some(Ok(())) => (true, "replayed ledger is byte-identical".into()),
                Some(Err(why)) => (false, why.clone()),
                None => (false, "ledger replay was not evaluated".into()),
            },
            Property::ResumeIdentity => match ctx.resume {
                Some(Ok(())) => (true, "resumed run is bit-identical".into()),
                Some(Err(why)) => (false, why.clone()),
                None => (false, "resume check was not evaluated".into()),
            },
            Property::MinEfficiency(min) => (
                r.efficiency >= *min,
                format!("efficiency {:.6} vs minimum {min:.6}", r.efficiency),
            ),
            Property::MinEnvyFreeness(min) => (
                r.envy_freeness >= *min,
                format!("envy-freeness {:.6} vs minimum {min:.6}", r.envy_freeness),
            ),
            Property::MaxDegraded(max) => (
                r.degraded_quanta <= *max,
                format!("degraded quanta {} vs maximum {max}", r.degraded_quanta),
            ),
            Property::MaxFallback(max) => (
                r.fallback_quanta <= *max,
                format!("fallback quanta {} vs maximum {max}", r.fallback_quanta),
            ),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::toml::parse;
    use rebudget_core::mechanisms::SolveSummary;

    fn property(doc: &str) -> Result<Property, ScenarioError> {
        let root = parse(&format!("p = {doc}\n"))?;
        Property::from_toml(root.get("p").unwrap())
    }

    fn result() -> SimResult {
        SimResult {
            mechanism: "ReBudget".into(),
            efficiency: 6.0,
            envy_freeness: 0.9,
            utilities: vec![0.75; 8],
            quanta: 10,
            avg_equilibrium_rounds: 2.0,
            avg_iterations: 40.0,
            solve: SolveSummary::default(),
            efficiency_history: vec![6.0; 10],
            fallback_quanta: 0,
            degraded_quanta: 0,
            replayed_quanta: 0,
        }
    }

    #[test]
    fn parses_all_kinds_and_rejects_unknowns() {
        assert_eq!(
            property("{ kind = \"theorem2-floor\", tolerance = 1e-6 }").unwrap(),
            Property::Theorem2Floor { tolerance: 1e-6 }
        );
        assert_eq!(
            property("{ kind = \"converged\" }").unwrap(),
            Property::Converged
        );
        assert_eq!(
            property("{ kind = \"min-efficiency\", value = 4.5 }").unwrap(),
            Property::MinEfficiency(4.5)
        );
        assert!(property("{ kind = \"bogus\" }").is_err());
        assert!(
            property("{ kind = \"min-efficiency\" }").is_err(),
            "missing value"
        );
        assert!(
            property("{ kind = \"converged\", value = 1 }").is_err(),
            "stray key"
        );
    }

    #[test]
    fn theorem_floors_use_the_audit() {
        let audit = FinalAudit {
            market_efficiency: 5.5,
            oracle_efficiency: Some(6.0),
            envy_freeness: 0.9,
            mur: Some(0.8),
            mbr: 1.0,
        };
        let r = result();
        let ctx = PropertyContext {
            result: &r,
            audit: Some(&audit),
            ledger_replay: None,
            resume: None,
        };
        let t1 = Property::Theorem1Floor { tolerance: 1e-9 }.check(&ctx);
        // ratio 0.9167 >= 1 - 1/(4·0.8) = 0.6875
        assert!(t1.passed, "{}", t1.detail);
        let t2 = Property::Theorem2Floor { tolerance: 1e-9 }.check(&ctx);
        // floor at MBR=1 is 2·√2 − 2 ≈ 0.828, envy 0.9 clears it
        assert!(t2.passed, "{}", t2.detail);
        let tight = Property::MinEnvyFreeness(0.95).check(&ctx);
        assert!(!tight.passed);
    }

    #[test]
    fn engine_level_checks_report_what_they_saw() {
        let r = result();
        let ok: Result<(), String> = Ok(());
        let bad: Result<(), String> = Err("ledger diverged at line 12".into());
        let ctx = PropertyContext {
            result: &r,
            audit: None,
            ledger_replay: Some(&bad),
            resume: Some(&ok),
        };
        assert!(!Property::LedgerReplay.check(&ctx).passed);
        assert!(Property::ResumeIdentity.check(&ctx).passed);
        assert!(
            !Property::Theorem1Floor { tolerance: 0.0 }
                .check(&ctx)
                .passed
        );
    }
}
