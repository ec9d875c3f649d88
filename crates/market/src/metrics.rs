//! Efficiency and fairness metrics (§2.2, §2.3, §3 of the paper).
//!
//! * [`efficiency`] — social welfare, Definition 1.
//! * [`envy_freeness`] — Definition 3; a value ≥ 1 means the allocation is
//!   envy-free.
//! * [`mur`] — **Market Utility Range**, Definition 5: the ratio of the
//!   smallest to the largest per-player marginal utility of money `λ_i`.
//! * [`mbr`] — **Market Budget Range**, Definition 6: the ratio of the
//!   smallest to the largest budget.
//! * [`price_of_anarchy`] — the observed `Nash/OPT` ratio given an optimal
//!   efficiency (Definition 2 is the worst case over equilibria; with one
//!   observed equilibrium this is an upper estimate of the true PoA and is
//!   what the paper's Figures 4–5 plot).

use std::borrow::Borrow;

use crate::{AllocationMatrix, Market};

/// System efficiency (social welfare): `Σ_i U_i(r_i)` (Definition 1).
///
/// With normalized-IPC utilities this is *weighted speedup* (Eq. 5).
/// Non-finite utility evaluations (faulted telemetry) contribute zero
/// rather than poisoning the sum.
pub fn efficiency(market: &Market, allocation: &AllocationMatrix) -> f64 {
    market
        .players()
        .iter()
        .enumerate()
        .map(|(i, p)| p.utility_of(allocation.row(i)))
        .filter(|u| u.is_finite())
        .sum()
}

/// Envy-freeness of an allocation (Definition 3):
/// `EF(r) = min_{i,j} U_i(r_i) / U_i(r_j)`.
///
/// Pairs where player `i` assigns zero utility to player `j`'s bundle are
/// skipped (no envy toward a worthless bundle); if player `i`'s own bundle
/// is worthless while it values some other bundle, the ratio is 0. Returns
/// `f64::INFINITY` for a single-player market (nothing to envy).
///
/// Non-finite utility evaluations (faulted telemetry) are treated as
/// worthless: a NaN own-bundle reading counts as 0, a NaN other-bundle
/// reading is skipped — the metric never returns NaN.
pub fn envy_freeness(market: &Market, allocation: &AllocationMatrix) -> f64 {
    let n = market.len();
    if n <= 1 {
        return f64::INFINITY;
    }
    let mut worst = f64::INFINITY;
    for (i, p) in market.players().iter().enumerate() {
        let own = p.utility_of(allocation.row(i));
        let own = if own.is_finite() { own } else { 0.0 };
        for j in 0..n {
            if i == j {
                continue;
            }
            let theirs = p.utility_of(allocation.row(j));
            if !theirs.is_finite() || theirs <= 0.0 {
                continue;
            }
            worst = worst.min(own / theirs);
        }
    }
    worst
}

/// Market Utility Range (Definition 5): `MUR = min_i λ_i / max_i λ_i`.
///
/// Returns 1.0 when all `λ_i` are zero (a degenerate but perfectly "even"
/// market) and clamps to `[0, 1]`. The values may be borrowed from a
/// slice or computed on the fly, so a caller need not collect them.
///
/// ```
/// use rebudget_market::metrics::mur;
/// assert_eq!(mur(&[0.4, 1.0, 0.8]), 0.4);
/// assert_eq!(mur(&[2.0, 2.0]), 1.0);
/// // λ_i = u_i / B_i, computed as it is read.
/// assert_eq!(mur([(2.0, 10.0), (6.0, 15.0)].map(|(u, b)| u / b)), 0.5);
/// ```
pub fn mur(lambdas: impl IntoIterator<Item = impl Borrow<f64>>) -> f64 {
    range_ratio(lambdas)
}

/// Market Budget Range (Definition 6): `MBR = min_i B_i / max_i B_i`.
///
/// Lower values mean a wider budget spread; `MBR = 1` is an equal-budget
/// market. Clamped to `[0, 1]`.
///
/// ```
/// use rebudget_market::metrics::mbr;
/// assert_eq!(mbr(&[100.0, 61.25, 80.0]), 0.6125);
/// ```
pub fn mbr(budgets: impl IntoIterator<Item = impl Borrow<f64>>) -> f64 {
    range_ratio(budgets)
}

fn range_ratio(values: impl IntoIterator<Item = impl Borrow<f64>>) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values {
        let v = *v.borrow();
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !hi.is_finite() || hi <= 0.0 {
        return 1.0;
    }
    (lo / hi).clamp(0.0, 1.0)
}

/// The observed efficiency ratio of an equilibrium against the optimum:
/// `Nash(rⁿ) / OPT` (cf. Definition 2).
///
/// Returns 1.0 when `optimal` is zero (an empty market is trivially
/// optimal).
pub fn price_of_anarchy(equilibrium_efficiency: f64, optimal_efficiency: f64) -> f64 {
    if optimal_efficiency <= 0.0 {
        1.0
    } else {
        equilibrium_efficiency / optimal_efficiency
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::utility::LinearUtility;
    use crate::{Player, ResourceSpace};
    use std::sync::Arc;

    fn market_with_weights(weights: Vec<Vec<f64>>, caps: Vec<f64>) -> Market {
        let resources = ResourceSpace::new(caps).unwrap();
        let players = weights
            .into_iter()
            .enumerate()
            .map(|(i, w)| {
                Player::new(
                    format!("p{i}"),
                    100.0,
                    Arc::new(LinearUtility::new(w).unwrap()) as Arc<dyn crate::Utility>,
                )
            })
            .collect();
        Market::new(resources, players).unwrap()
    }

    #[test]
    fn efficiency_sums_utilities() {
        let market = market_with_weights(vec![vec![1.0, 0.0], vec![0.0, 2.0]], vec![4.0, 4.0]);
        let mut alloc = AllocationMatrix::zeros(2, 2).unwrap();
        alloc.set_row(0, &[4.0, 0.0]);
        alloc.set_row(1, &[0.0, 4.0]);
        assert_eq!(efficiency(&market, &alloc), 4.0 + 8.0);
    }

    #[test]
    fn envy_free_when_each_gets_preferred() {
        let market = market_with_weights(vec![vec![1.0, 0.0], vec![0.0, 1.0]], vec![4.0, 4.0]);
        let mut alloc = AllocationMatrix::zeros(2, 2).unwrap();
        alloc.set_row(0, &[4.0, 0.0]);
        alloc.set_row(1, &[0.0, 4.0]);
        // Each player values the other's bundle at 0 → skipped → no envy.
        assert_eq!(envy_freeness(&market, &alloc), f64::INFINITY);
    }

    #[test]
    fn envy_detected_for_starved_player() {
        let market = market_with_weights(vec![vec![1.0], vec![1.0]], vec![4.0]);
        let mut alloc = AllocationMatrix::zeros(2, 1).unwrap();
        alloc.set_row(0, &[3.0]);
        alloc.set_row(1, &[1.0]);
        // Player 1 envies player 0: 1/3.
        assert!((envy_freeness(&market, &alloc) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn envy_zero_for_player_with_worthless_bundle() {
        let market = market_with_weights(vec![vec![1.0], vec![1.0]], vec![4.0]);
        let mut alloc = AllocationMatrix::zeros(2, 1).unwrap();
        alloc.set_row(0, &[4.0]);
        alloc.set_row(1, &[0.0]);
        assert_eq!(envy_freeness(&market, &alloc), 0.0);
    }

    #[test]
    fn mur_and_mbr_behave() {
        assert_eq!(mur([1.0, 1.0, 1.0]), 1.0);
        assert_eq!(mur([0.5, 1.0]), 0.5);
        assert_eq!(mur([0.0, 0.0]), 1.0);
        assert_eq!(mbr([100.0, 60.0, 80.0]), 0.6);
        assert_eq!(mbr([100.0]), 1.0);
    }

    #[test]
    fn poa_ratio() {
        assert_eq!(price_of_anarchy(8.0, 10.0), 0.8);
        assert_eq!(price_of_anarchy(5.0, 0.0), 1.0);
    }
}
