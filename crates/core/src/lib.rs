#![warn(missing_docs)]

//! **ReBudget** — the primary contribution of Wang & Martínez (ASPLOS 2016):
//! runtime budget re-assignment for market-based multicore resource
//! allocation, with theoretical efficiency/fairness bounds.
//!
//! The crate has three parts:
//!
//! * [`theory`] — the paper's Theorems 1 and 2: Price-of-Anarchy lower
//!   bounds from the **Market Utility Range** (MUR) and approximate
//!   envy-freeness bounds from the **Market Budget Range** (MBR), plus the
//!   inverse mapping that turns a fairness floor into a minimum MBR.
//! * [`mechanisms`] — the allocation mechanisms compared in the paper's
//!   evaluation (§6): `EqualShare`, `EqualBudget`, XChange's `Balanced`,
//!   `ReBudget-step`, and the `MaxEfficiency` oracle, all behind one
//!   [`mechanisms::Mechanism`] trait.
//! * [`sweep`] — helpers to sweep the ReBudget aggressiveness knob and
//!   tabulate the efficiency-vs-fairness trade-off.
//!
//! # Quick example
//!
//! ```
//! use std::sync::Arc;
//! use rebudget_market::{Market, Player, ResourceSpace};
//! use rebudget_market::utility::SeparableUtility;
//! use rebudget_core::mechanisms::{Mechanism, ReBudget};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let caps = [16.0, 80.0];
//! let resources = ResourceSpace::new(caps.to_vec())?;
//! let players = vec![
//!     Player::new("a", 100.0, Arc::new(SeparableUtility::proportional(&[0.9, 0.1], &caps)?)),
//!     Player::new("b", 100.0, Arc::new(SeparableUtility::proportional(&[0.2, 0.8], &caps)?)),
//! ];
//! let market = Market::new(resources, players)?;
//!
//! // ReBudget-20: first-round budget cut of 20 out of 100.
//! let outcome = ReBudget::with_step(100.0, 20.0).allocate(&market)?;
//! println!("efficiency {:.3}, envy-freeness {:.3}", outcome.efficiency, outcome.envy_freeness);
//! # Ok(())
//! # }
//! ```

pub mod ep;
pub mod mechanisms;
pub mod sweep;
pub mod theory;
pub mod uncoordinated;

pub use ep::ElasticitiesProportional;
pub use mechanisms::{
    Balanced, EqualBudget, EqualShare, MaxEfficiency, Mechanism, MechanismOutcome, ReBudget,
    SolveSummary,
};
pub use theory::{ef_lower_bound, min_mbr_for_ef, poa_lower_bound};
pub use uncoordinated::Uncoordinated;
