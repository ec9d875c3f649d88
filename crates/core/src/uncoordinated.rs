//! The *uncoordinated* baseline: per-resource allocators that do not talk
//! to each other.
//!
//! The paper's introduction motivates the market with exactly this
//! strawman: "single-resource, and more generally uncoordinated resource
//! allocation, can be significantly suboptimal, due to its inability to
//! model the interactions among resources". This mechanism allocates the
//! cache with UCP's lookahead algorithm (Qureshi & Patt — the standard
//! single-resource cache partitioner, reimplemented in
//! [`rebudget_cache::ucp`]) while splitting power equally, each decision
//! blind to the other.

use rebudget_cache::ucp::ucp_lookahead;
use rebudget_market::{AllocationMatrix, Market, MarketError, Result};

use crate::mechanisms::{outcome_from_allocation, Mechanism, MechanismOutcome};

/// UCP for the cache + an equal split of power, uncoordinated.
#[derive(Debug, Clone, Default)]
pub struct Uncoordinated;

impl Mechanism for Uncoordinated {
    fn name(&self) -> String {
        "UCP+EqualPower".to_string()
    }

    fn allocate(&self, market: &Market) -> Result<MechanismOutcome> {
        let n = market.len();
        let m = market.resources().len();
        if m != 2 {
            return Err(MarketError::DimensionMismatch {
                what: "uncoordinated baseline resources (cache, power)",
                expected: 2,
                actual: m,
            });
        }
        let cache_cap = market.resources().capacity(0);
        let power_cap = market.resources().capacity(1);
        let units = cache_cap.floor() as usize;
        let equal_power = power_cap / n as f64;

        // Build per-player "miss curves" for UCP from their utilities:
        // UCP minimizes misses; maximizing utility is equivalent to
        // minimizing (U_max − U), evaluated while power sits at its equal
        // share — the cache allocator cannot see power trades, which is
        // the whole point of this baseline.
        let curves: Vec<Vec<f64>> = market
            .players()
            .iter()
            .map(|p| {
                (0..=units)
                    .map(|w| 1.0 - p.utility_of(&[w as f64, equal_power]))
                    .collect()
            })
            .collect();
        let ways = ucp_lookahead(&curves, units, 0).map_err(|e| MarketError::InvalidUtility {
            reason: format!("UCP failed: {e}"),
        })?;

        let mut allocation = AllocationMatrix::zeros(n, 2)?;
        // Distribute the fractional remainder of the cache evenly so the
        // allocation stays exhaustive.
        let leftover = (cache_cap - units as f64) / n as f64;
        for i in 0..n {
            allocation.set(i, 0, ways[i] as f64 + leftover);
            allocation.set(i, 1, equal_power);
        }

        Ok(outcome_from_allocation(self.name(), market, allocation))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::mechanisms::{EqualShare, MaxEfficiency};
    use rebudget_market::utility::SeparableUtility;
    use rebudget_market::{Player, ResourceSpace};
    use std::sync::Arc;

    fn market() -> Market {
        let caps = [16.0, 60.0];
        Market::new(
            ResourceSpace::new(caps.to_vec()).unwrap(),
            vec![
                Player::new(
                    "cache-hungry",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.9, 0.1], &caps).unwrap()),
                ),
                Player::new(
                    "power-hungry",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.1, 0.9], &caps).unwrap()),
                ),
                Player::new(
                    "balanced",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.5, 0.5], &caps).unwrap()),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn allocates_exhaustively_and_favours_cache_hungry() {
        let market = market();
        let out = Uncoordinated.allocate(&market).unwrap();
        assert!(out.allocation.is_exhaustive(&[16.0, 60.0], 1e-9));
        assert!(
            out.allocation.get(0, 0) > out.allocation.get(1, 0),
            "cache-hungry player should get more cache"
        );
        // Power is split equally — uncoordinated.
        assert!((out.allocation.get(0, 1) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn beats_equal_share_but_not_the_oracle() {
        let market = market();
        let share = EqualShare.allocate(&market).unwrap();
        let unc = Uncoordinated.allocate(&market).unwrap();
        let opt = MaxEfficiency::default().allocate(&market).unwrap();
        assert!(unc.efficiency >= share.efficiency - 1e-9);
        assert!(
            unc.efficiency <= opt.efficiency + 1e-9,
            "uncoordinated {} vs oracle {}",
            unc.efficiency,
            opt.efficiency
        );
    }

    #[test]
    fn rejects_non_two_resource_markets() {
        let caps = [8.0];
        let market = Market::new(
            ResourceSpace::new(caps.to_vec()).unwrap(),
            vec![Player::new(
                "a",
                1.0,
                Arc::new(SeparableUtility::proportional(&[1.0], &caps).unwrap()),
            )],
        )
        .unwrap();
        assert!(Uncoordinated.allocate(&market).is_err());
    }
}
