//! Players and the market container.

use std::fmt;
use std::sync::Arc;

use crate::equilibrium::{find_equilibrium, EquilibriumOptions, EquilibriumOutcome};
use crate::{MarketError, ResourceSpace, Result, Utility};

/// A market participant: a named utility function plus a budget.
///
/// The utility is held behind an [`Arc`] so that players are cheap to clone
/// and mechanisms can re-run the same market under different budget
/// assignments without copying utility state.
#[derive(Clone)]
pub struct Player {
    name: String,
    budget: f64,
    utility: Arc<dyn Utility>,
}

impl Player {
    /// Creates a player.
    ///
    /// # Panics
    ///
    /// Does not panic; a non-finite or negative budget is clamped by
    /// [`Market::new`] validation instead.
    pub fn new(name: impl Into<String>, budget: f64, utility: Arc<dyn Utility>) -> Self {
        Self {
            name: name.into(),
            budget,
            utility,
        }
    }

    /// The player's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The player's budget `B_i`.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Replaces the player's budget (used by budget re-assignment schemes).
    pub fn set_budget(&mut self, budget: f64) {
        self.budget = budget;
    }

    /// The player's utility function.
    pub fn utility(&self) -> &Arc<dyn Utility> {
        &self.utility
    }

    /// Convenience: evaluates the player's utility at an allocation.
    pub fn utility_of(&self, r: &[f64]) -> f64 {
        self.utility.value(r)
    }
}

impl fmt::Debug for Player {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Player")
            .field("name", &self.name)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

/// A market: a [`ResourceSpace`] plus the set of [`Player`]s bidding on it.
///
/// See the [crate-level docs](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct Market {
    resources: ResourceSpace,
    players: Vec<Player>,
}

impl Market {
    /// Creates a market.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::Empty`] if `players` is empty, or
    /// [`MarketError::InvalidValue`] if a player's budget is negative or
    /// non-finite.
    pub fn new(resources: ResourceSpace, players: Vec<Player>) -> Result<Self> {
        if players.is_empty() {
            return Err(MarketError::Empty { what: "players" });
        }
        for p in &players {
            if !p.budget.is_finite() || p.budget < 0.0 {
                return Err(MarketError::InvalidValue {
                    what: "budget",
                    value: p.budget,
                });
            }
        }
        Ok(Self { resources, players })
    }

    /// The traded resources.
    pub fn resources(&self) -> &ResourceSpace {
        &self.resources
    }

    /// The players.
    pub fn players(&self) -> &[Player] {
        &self.players
    }

    /// Number of players `N`.
    pub fn len(&self) -> usize {
        self.players.len()
    }

    /// Always `false` (a market cannot be constructed empty); provided for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.players.is_empty()
    }

    /// Current budgets, indexed by player.
    pub fn budgets(&self) -> Vec<f64> {
        self.players.iter().map(Player::budget).collect()
    }

    /// Runs the iterative bidding–pricing process to a market equilibrium
    /// using each player's stored budget (§2.1 of the paper).
    ///
    /// # Errors
    ///
    /// Propagates construction errors from degenerate dimensions; an
    /// equilibrium search that hits the iteration fail-safe is **not** an
    /// error — inspect [`EquilibriumOutcome::converged`].
    pub fn equilibrium(&self, options: &EquilibriumOptions) -> Result<EquilibriumOutcome> {
        let budgets = self.budgets();
        self.equilibrium_with_budgets(&budgets, options)
    }

    /// Runs the equilibrium search under an explicit budget assignment,
    /// leaving the players' stored budgets untouched.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::DimensionMismatch`] if `budgets.len()` differs
    /// from the number of players, or [`MarketError::InvalidValue`] for a
    /// negative/non-finite budget.
    pub fn equilibrium_with_budgets(
        &self,
        budgets: &[f64],
        options: &EquilibriumOptions,
    ) -> Result<EquilibriumOutcome> {
        if budgets.len() != self.players.len() {
            return Err(MarketError::DimensionMismatch {
                what: "budgets",
                expected: self.players.len(),
                actual: budgets.len(),
            });
        }
        for &b in budgets {
            if !b.is_finite() || b < 0.0 {
                return Err(MarketError::InvalidValue {
                    what: "budget",
                    value: b,
                });
            }
        }
        find_equilibrium(self, budgets, options)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::utility::LinearUtility;

    fn linear_player(name: &str, budget: f64, weights: Vec<f64>) -> Player {
        Player::new(name, budget, Arc::new(LinearUtility::new(weights).unwrap()))
    }

    #[test]
    fn market_construction_and_accessors() {
        let resources = ResourceSpace::new(vec![10.0, 5.0]).unwrap();
        let market = Market::new(
            resources,
            vec![
                linear_player("a", 100.0, vec![1.0, 0.0]),
                linear_player("b", 50.0, vec![0.0, 1.0]),
            ],
        )
        .unwrap();
        assert_eq!(market.len(), 2);
        assert!(!market.is_empty());
        assert_eq!(market.budgets(), vec![100.0, 50.0]);
        assert_eq!(market.players()[0].name(), "a");
        assert_eq!(market.players()[0].utility_of(&[3.0, 9.0]), 3.0);
    }

    #[test]
    fn market_rejects_empty_or_invalid() {
        let resources = ResourceSpace::new(vec![10.0]).unwrap();
        assert!(Market::new(resources.clone(), vec![]).is_err());
        assert!(Market::new(resources, vec![linear_player("a", -5.0, vec![1.0])]).is_err());
    }

    #[test]
    fn budget_mutation() {
        let mut p = linear_player("a", 100.0, vec![1.0]);
        p.set_budget(40.0);
        assert_eq!(p.budget(), 40.0);
    }

    #[test]
    fn debug_impl_nonempty() {
        let p = linear_player("a", 1.0, vec![1.0]);
        assert!(format!("{p:?}").contains("Player"));
    }

    #[test]
    fn equilibrium_with_wrong_budget_len_errors() {
        let resources = ResourceSpace::new(vec![10.0]).unwrap();
        let market = Market::new(
            resources,
            vec![
                linear_player("a", 10.0, vec![1.0]),
                linear_player("b", 10.0, vec![1.0]),
            ],
        )
        .unwrap();
        let err = market
            .equilibrium_with_budgets(&[10.0], &EquilibriumOptions::default())
            .unwrap_err();
        assert!(matches!(err, MarketError::DimensionMismatch { .. }));
    }
}
