#![warn(missing_docs)]

//! Budget-constrained proportional-bid market framework.
//!
//! This crate implements the market substrate that the ReBudget paper
//! (Wang & Martínez, ASPLOS 2016) builds on — the XChange-style dynamic
//! proportional market of §2 of the paper:
//!
//! * a market of `N` players and `M` divisible resources ([`Market`],
//!   [`ResourceSpace`], [`Player`]);
//! * concave, non-decreasing, continuous utility models ([`Utility`] and the
//!   implementations in [`utility`]);
//! * proportional pricing: `p_j = Σ_i b_ij / C_j`, with each player receiving
//!   `r_ij = b_ij / p_j` (Eq. 1 of the paper; see [`pricing`]);
//! * the per-player budget-constrained hill-climbing bidder of §4.1.2
//!   ([`bidding`]);
//! * the iterative bidding–pricing equilibrium search of §2.1, with the 1%
//!   price-fluctuation convergence test and the 30-iteration fail-safe of
//!   §6.4 ([`equilibrium`]);
//! * the efficiency/fairness metrics of §2.2–§2.3 and §3: system efficiency,
//!   envy-freeness, per-player marginal utilities `λ_i`, and the paper's two
//!   new metrics **MUR** (Market Utility Range) and **MBR** (Market Budget
//!   Range) ([`metrics`]);
//! * a `MaxEfficiency` oracle that maximizes social welfare directly via
//!   fine-grained exchange hill climbing over concave utilities ([`optimal`]).
//!
//! # Quick example
//!
//! ```
//! use std::sync::Arc;
//! use rebudget_market::{Market, Player, ResourceSpace};
//! use rebudget_market::utility::SeparableUtility;
//! use rebudget_market::equilibrium::EquilibriumOptions;
//!
//! # fn main() -> Result<(), rebudget_market::MarketError> {
//! // Two resources with capacities 16 and 80.
//! let resources = ResourceSpace::new(vec![16.0, 80.0])?;
//!
//! // Two players with different concave tastes and equal budgets.
//! let a = Player::new(
//!     "a",
//!     100.0,
//!     Arc::new(SeparableUtility::proportional(&[0.8, 0.2], &[16.0, 80.0])?),
//! );
//! let b = Player::new(
//!     "b",
//!     100.0,
//!     Arc::new(SeparableUtility::proportional(&[0.3, 0.7], &[16.0, 80.0])?),
//! );
//!
//! let market = Market::new(resources, vec![a, b])?;
//! let outcome = market.equilibrium(&EquilibriumOptions::default())?;
//! assert!(outcome.converged());
//! assert!(outcome.report.is_clean());
//! // Proportional allocation always hands out the full capacity.
//! let total: f64 = (0..2).map(|i| outcome.allocation.get(i, 0)).sum();
//! assert!((total - 16.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

pub mod allocation;
pub mod bidding;
pub mod bids;
pub mod deadline;
pub mod equilibrium;
mod error;
pub mod exact;
pub mod faults;
mod first_order;
pub mod fisher;
pub mod fit;
pub mod metrics;
pub mod optimal;
pub mod par;
pub mod player;
pub mod pricing;
pub mod residual;
pub mod resource;
pub mod sparse;
pub mod utility;

pub use allocation::AllocationMatrix;
pub use bids::BidMatrix;
pub use deadline::{solve_with_retry, DeadlineBudget, RetryPolicy, RetryReport};
pub use equilibrium::{RecoveryAction, SolveReport, SolverKind, WarmStart};
pub use error::MarketError;
pub use faults::{splitmix64, FaultPlan, FaultedMarket};
pub use par::ParallelPolicy;
pub use player::{Market, Player};
pub use resource::ResourceSpace;
pub use sparse::{SparseBids, SparseMarket, SparseOutcome, SparseUtilityKind, SynthSpec};
pub use utility::Utility;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MarketError>;
