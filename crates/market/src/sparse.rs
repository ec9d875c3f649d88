//! Sparse bid storage and synthetic large markets.
//!
//! The paper's chip markets are dense — every core bids on both shared
//! resources — but the ROADMAP's production-scale markets are not: with
//! `10⁵`–`10⁶` players over tens of resources, most players care about a
//! handful of goods. [`SparseBids`] stores only the nonzero
//! (player, resource) interests in CSR form (row pointers + column
//! indices + values, structure-of-arrays), so the first-order solvers
//! behind [`SparseMarket::solve`] run in time linear in the number of interests per iteration instead of
//! `O(N·M)`.
//!
//! [`SparseMarket`] bundles the interest matrix with capacities, budgets,
//! and a utility family ([`SparseUtilityKind`]); [`SynthSpec`] generates
//! reproducible synthetic markets with power-law sparsity (a few very
//! popular resources, a long tail of niche ones; most players with few
//! interests, a few with many) for the scalability benchmarks.
//!
//! Everything here is deterministic: generation is a pure function of the
//! seed (SplitMix64 streams, the same discipline as [`crate::faults`]),
//! and solves are bit-identical under every [`crate::ParallelPolicy`].

use crate::equilibrium::{EquilibriumOptions, SolveReport};
use crate::faults::splitmix64;
use crate::utility::LinearUtility;
use crate::{Market, MarketError, Player, ResourceSpace, Result};
use std::sync::Arc;

/// A CSR-style sparse matrix of per-(player, resource) values: the
/// interest weights of a [`SparseMarket`], or the bids of a
/// [`SparseOutcome`].
///
/// Rows are players, columns are resources; each row's column indices are
/// strictly increasing. Values are stored in one flat array so solvers
/// can sweep the whole matrix cache-linearly.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseBids {
    n: usize,
    m: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes player `i`'s entries.
    row_ptr: Vec<usize>,
    /// Column (resource) index of each entry.
    cols: Vec<u32>,
    /// Value of each entry.
    vals: Vec<f64>,
}

impl SparseBids {
    /// Builds a sparse matrix from per-player entry lists. Each row is
    /// sorted by column; duplicate columns within a row are rejected.
    ///
    /// # Errors
    ///
    /// [`MarketError::Empty`] for zero players/resources,
    /// [`MarketError::InvalidValue`] for an out-of-range column, a
    /// duplicate column, or a non-finite/negative value.
    pub fn from_rows(resources: usize, rows: Vec<Vec<(usize, f64)>>) -> Result<Self> {
        Self::from_row_iter(resources, rows)
    }

    /// [`SparseBids::from_rows`] over rows streamed from any source, in
    /// one pass with no per-row allocation: a row already sorted by column
    /// is taken as it is, any other is sorted first. Validation and
    /// errors are those of `from_rows`.
    ///
    /// # Errors
    ///
    /// As [`SparseBids::from_rows`].
    pub fn from_row_iter<R>(resources: usize, rows: R) -> Result<Self>
    where
        R: IntoIterator,
        R::Item: IntoIterator<Item = (usize, f64)>,
    {
        let mut rows = rows.into_iter().peekable();
        if rows.peek().is_none() {
            return Err(MarketError::Empty { what: "players" });
        }
        if resources == 0 {
            return Err(MarketError::Empty { what: "resources" });
        }
        if resources > u32::MAX as usize {
            return Err(MarketError::InvalidValue {
                what: "resource count",
                value: resources as f64,
            });
        }
        let players = rows.size_hint().0;
        let mut row_ptr = Vec::with_capacity(players + 1);
        let mut cols = Vec::with_capacity(players);
        let mut vals = Vec::with_capacity(players);
        let mut row = Vec::new();
        row_ptr.push(0);
        for entries in rows {
            row.clear();
            row.extend(entries);
            if !row.is_sorted_by_key(|&(c, _)| c) {
                row.sort_by_key(|&(c, _)| c);
            }
            let start = cols.len();
            for &(c, v) in &row {
                if c >= resources {
                    return Err(MarketError::InvalidValue {
                        what: "resource index",
                        value: c as f64,
                    });
                }
                if cols.len() > start && cols.last() == Some(&(c as u32)) {
                    return Err(MarketError::InvalidValue {
                        what: "duplicate resource index",
                        value: c as f64,
                    });
                }
                if !v.is_finite() || v < 0.0 {
                    return Err(MarketError::InvalidValue {
                        what: "sparse entry",
                        value: v,
                    });
                }
                cols.push(c as u32);
                vals.push(v);
            }
            row_ptr.push(cols.len());
        }
        Ok(Self {
            n: row_ptr.len() - 1,
            m: resources,
            row_ptr,
            cols,
            vals,
        })
    }

    /// A matrix over CSR arrays assembled elsewhere, taken without a
    /// copy. They are checked as [`SparseBids::from_rows`] checks its
    /// rows, except that each row must already be sorted by column.
    ///
    /// # Errors
    ///
    /// [`MarketError::Empty`] for zero players/resources,
    /// [`MarketError::DimensionMismatch`] for row pointers that do not
    /// start at 0 and end at `cols.len() == vals.len()`, and
    /// [`MarketError::InvalidValue`] for decreasing row pointers, an
    /// out-of-range or non-increasing column, or a non-finite/negative
    /// value.
    pub fn from_csr(
        resources: usize,
        row_ptr: Vec<usize>,
        cols: Vec<u32>,
        vals: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() < 2 {
            return Err(MarketError::Empty { what: "players" });
        }
        if resources == 0 {
            return Err(MarketError::Empty { what: "resources" });
        }
        let (first, last) = (row_ptr[0], row_ptr[row_ptr.len() - 1]);
        for (what, expected, actual) in [
            ("row_ptr start", 0, first),
            ("row_ptr end", cols.len(), last),
            ("sparse values", cols.len(), vals.len()),
        ] {
            if expected != actual {
                return Err(MarketError::DimensionMismatch {
                    what,
                    expected,
                    actual,
                });
            }
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] || w[1] > cols.len() {
                return Err(MarketError::InvalidValue {
                    what: "row pointer",
                    value: w[1] as f64,
                });
            }
            if let Some(pair) = cols[w[0]..w[1]].windows(2).find(|pair| pair[1] <= pair[0]) {
                return Err(MarketError::InvalidValue {
                    what: "unsorted or duplicate resource index",
                    value: f64::from(pair[1]),
                });
            }
        }
        if let Some(&c) = cols.iter().find(|&&c| c as usize >= resources) {
            return Err(MarketError::InvalidValue {
                what: "resource index",
                value: f64::from(c),
            });
        }
        if let Some(&v) = vals.iter().find(|v| !v.is_finite() || **v < 0.0) {
            return Err(MarketError::InvalidValue {
                what: "sparse entry",
                value: v,
            });
        }
        Ok(Self {
            n: row_ptr.len() - 1,
            m: resources,
            row_ptr,
            cols,
            vals,
        })
    }

    /// The row pointers, columns and values, moved out: the inverse of
    /// [`SparseBids::from_csr`].
    pub fn into_parts(self) -> (Vec<usize>, Vec<u32>, Vec<f64>) {
        (self.row_ptr, self.cols, self.vals)
    }

    /// Number of players (rows).
    pub fn players(&self) -> usize {
        self.n
    }

    /// Number of resources (columns).
    pub fn resources(&self) -> usize {
        self.m
    }

    /// Number of stored (player, resource) entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Row pointers (`players() + 1` entries; `row_ptr[i]..row_ptr[i+1]`
    /// is player `i`'s slice of [`SparseBids::cols`]/[`SparseBids::vals`]).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column indices, row-major.
    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// Entry values, row-major.
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// Player `i`'s column indices.
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Player `i`'s entry values.
    pub fn row_vals(&self, i: usize) -> &[f64] {
        &self.vals[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// A copy of this matrix's structure carrying `vals` as its values
    /// (used by solvers to return bids over the interest structure).
    ///
    /// # Panics
    ///
    /// Panics if `vals.len() != self.nnz()` — an internal-use invariant.
    pub(crate) fn with_vals(&self, vals: Vec<f64>) -> Self {
        assert_eq!(vals.len(), self.nnz(), "structure/value length mismatch");
        Self {
            n: self.n,
            m: self.m,
            row_ptr: self.row_ptr.clone(),
            cols: self.cols.clone(),
            vals,
        }
    }

    /// Per-column sums (serial; for tests and small matrices — the
    /// solvers use the deterministic blocked reduction instead).
    pub fn column_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.m];
        for (&c, &v) in self.cols.iter().zip(&self.vals) {
            sums[c as usize] += v;
        }
        sums
    }

    /// Densifies into a [`crate::BidMatrix`] (small markets only: the
    /// cross-validation suite compares sparse solvers against the dense
    /// reference this way).
    ///
    /// # Errors
    ///
    /// Propagates the dense matrix's dimension validation.
    pub fn to_dense(&self) -> Result<crate::BidMatrix> {
        let mut dense = crate::BidMatrix::zeros(self.n, self.m)?;
        for i in 0..self.n {
            for (&c, &v) in self.row_cols(i).iter().zip(self.row_vals(i)) {
                dense.set(i, c as usize, v);
            }
        }
        Ok(dense)
    }
}

/// The utility family a [`SparseMarket`]'s interest weights describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparseUtilityKind {
    /// Linear utilities: `U_i(x) = Σ_j v_ij·x_ij` over the interest set.
    #[default]
    Linear,
    /// Leontief (perfect-complement) utilities:
    /// `U_i(x) = min_j x_ij / a_ij` over the interest set.
    Leontief,
}

impl SparseUtilityKind {
    /// Stable machine-readable name.
    pub fn label(self) -> &'static str {
        match self {
            SparseUtilityKind::Linear => "linear",
            SparseUtilityKind::Leontief => "leontief",
        }
    }
}

/// A large sparse Fisher market: capacities, budgets, and each player's
/// interest weights over a sparse resource set.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMarket {
    capacities: Vec<f64>,
    budgets: Vec<f64>,
    interests: SparseBids,
    kind: SparseUtilityKind,
}

impl SparseMarket {
    /// Creates a sparse market.
    ///
    /// # Errors
    ///
    /// [`MarketError::DimensionMismatch`] when budgets/capacities disagree
    /// with the interest matrix, [`MarketError::InvalidValue`] for
    /// non-positive capacities, negative/non-finite budgets, or
    /// non-positive interest weights (a zero weight is a non-entry: leave
    /// it out of the row instead).
    pub fn new(
        capacities: Vec<f64>,
        budgets: Vec<f64>,
        interests: SparseBids,
        kind: SparseUtilityKind,
    ) -> Result<Self> {
        if capacities.len() != interests.resources() {
            return Err(MarketError::DimensionMismatch {
                what: "capacities",
                expected: interests.resources(),
                actual: capacities.len(),
            });
        }
        if budgets.len() != interests.players() {
            return Err(MarketError::DimensionMismatch {
                what: "budgets",
                expected: interests.players(),
                actual: budgets.len(),
            });
        }
        for &c in &capacities {
            if !c.is_finite() || c <= 0.0 {
                return Err(MarketError::InvalidValue {
                    what: "capacity",
                    value: c,
                });
            }
        }
        for &b in &budgets {
            if !b.is_finite() || b < 0.0 {
                return Err(MarketError::InvalidValue {
                    what: "budget",
                    value: b,
                });
            }
        }
        for &w in interests.vals() {
            if !w.is_finite() || w <= 0.0 {
                return Err(MarketError::InvalidValue {
                    what: "interest weight",
                    value: w,
                });
            }
        }
        Ok(Self {
            capacities,
            budgets,
            interests,
            kind,
        })
    }

    /// Number of players `N`.
    pub fn players(&self) -> usize {
        self.interests.players()
    }

    /// Number of resources `M`.
    pub fn resources(&self) -> usize {
        self.interests.resources()
    }

    /// Number of (player, resource) interests.
    pub fn nnz(&self) -> usize {
        self.interests.nnz()
    }

    /// Resource capacities `C_j`.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Player budgets `B_i`.
    pub fn budgets(&self) -> &[f64] {
        &self.budgets
    }

    /// The interest matrix (values are utility weights).
    pub fn interests(&self) -> &SparseBids {
        &self.interests
    }

    /// The utility family.
    pub fn kind(&self) -> SparseUtilityKind {
        self.kind
    }

    /// The capacities, budgets and interests, moved out: the inverse of
    /// [`SparseMarket::new`].
    pub fn into_parts(self) -> (Vec<f64>, Vec<f64>, SparseBids) {
        (self.capacities, self.budgets, self.interests)
    }

    /// Solves for the market equilibrium with the first-order engine
    /// selected by [`EquilibriumOptions::solver`], at its step γ (1 for
    /// proportional response, 0.7 for mirror descent). The first-order
    /// engines compute the **price-taking** (Fisher) equilibrium;
    /// cross-validation against the price-anticipating Jacobi engine goes
    /// through the dense price-taking reference in [`crate::fisher`] (see DESIGN.md
    /// "Large-scale solvers").
    ///
    /// # Errors
    ///
    /// [`MarketError::UnsupportedSolver`] for
    /// [`crate::SolverKind::Jacobi`] — the dense engine needs an `N×M`
    /// matrix, which is exactly what sparse markets avoid. Non-convergence is *not* an error; inspect
    /// [`SparseOutcome::report`].
    pub fn solve(&self, options: &EquilibriumOptions) -> Result<SparseOutcome> {
        let Some(gamma) = options.solver.first_order_step() else {
            return Err(MarketError::UnsupportedSolver {
                solver: options.solver.label(),
                context: "sparse markets (use propresp or mirror, or densify first)",
            });
        };
        crate::first_order::solve_sparse(self, options, gamma)
    }

    /// Densifies into a [`Market`] of [`LinearUtility`] players (small
    /// markets only) so the sparse solvers can be cross-validated against
    /// the dense engines on identical inputs.
    ///
    /// # Errors
    ///
    /// [`MarketError::UnsupportedSolver`] for Leontief markets (the dense
    /// utility zoo has no Leontief member); otherwise propagates dense
    /// construction errors.
    pub fn to_market(&self) -> Result<Market> {
        if self.kind != SparseUtilityKind::Linear {
            return Err(MarketError::UnsupportedSolver {
                solver: self.kind.label(),
                context: "densification (only linear sparse markets densify)",
            });
        }
        let resources = ResourceSpace::new(self.capacities.clone())?;
        let players = (0..self.players())
            .map(|i| {
                let mut weights = vec![0.0; self.resources()];
                for (&c, &v) in self
                    .interests
                    .row_cols(i)
                    .iter()
                    .zip(self.interests.row_vals(i))
                {
                    weights[c as usize] = v;
                }
                Ok(Player::new(
                    format!("p{i}"),
                    self.budgets[i],
                    Arc::new(LinearUtility::new(weights)?) as Arc<dyn crate::Utility>,
                ))
            })
            .collect::<Result<Vec<_>>>()?;
        Market::new(resources, players)
    }
}

/// The result of a sparse equilibrium solve.
///
/// Allocations are not materialized (an `N×M` dense matrix at `10⁶`
/// players would dwarf the market itself): a player's allocation follows
/// from its bids and the prices via [`SparseOutcome::allocation_of`].
#[derive(Debug, Clone)]
pub struct SparseOutcome {
    /// Final bids over the interest structure.
    pub bids: SparseBids,
    /// Final per-unit prices `p_j = Σ_i b_ij / C_j`.
    pub prices: Vec<f64>,
    /// Per-player utility at the final allocation.
    pub utilities: Vec<f64>,
    /// Solver iterations executed.
    pub iterations: u64,
    /// How the solve went — same [`SolveReport`] semantics (residual =
    /// relative excess demand, recovery actions, deadline verdict) as the
    /// dense engines.
    pub report: SolveReport,
}

impl AsRef<SolveReport> for SparseOutcome {
    fn as_ref(&self) -> &SolveReport {
        &self.report
    }
}

impl SparseOutcome {
    /// System efficiency `Σ_i U_i` at the final allocation.
    pub fn efficiency(&self) -> f64 {
        self.utilities.iter().sum()
    }

    /// Shorthand for `report.converged`.
    pub fn converged(&self) -> bool {
        self.report.converged
    }

    /// Player `i`'s allocation as `(resource, amount)` pairs over its
    /// interest set: `x_ij = b_ij / p_j` (zero where the price is zero).
    pub fn allocation_of(&self, i: usize) -> Vec<(usize, f64)> {
        self.bids
            .row_cols(i)
            .iter()
            .zip(self.bids.row_vals(i))
            .map(|(&c, &b)| {
                let p = self.prices[c as usize];
                (c as usize, if p > 0.0 { b / p } else { 0.0 })
            })
            .collect()
    }
}

/// Pareto tail exponent for player degrees: mean degree ≈
/// `α·min/(α−1) = 2·min` at α = 2.
const DEGREE_ALPHA: f64 = 2.0;

/// Minimum interests per player, and the Pareto scale of the degree.
const MIN_DEGREE: usize = 4;

/// Maximum interests per player (clamped to the resource count).
const MAX_DEGREE: usize = 32;

/// Zipf-style exponent for resource popularity: resource `j` is picked
/// with probability ∝ `(j+1)^-0.7` — a heavy head of contested resources
/// plus a long tail.
const POPULARITY_EXPONENT: f64 = 0.7;

/// A reproducible synthetic large-market specification: power-law player
/// degrees over power-law-popular resources, uniform weights and budgets.
///
/// Generation is a pure function of the fields (SplitMix64 streams keyed
/// by `(seed, player)`), so equal specs generate bit-identical markets on
/// every host.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// Number of players `N`.
    pub players: usize,
    /// Number of resources `M`.
    pub resources: usize,
    /// Generation seed.
    pub seed: u64,
    /// Utility family to generate (default linear).
    pub kind: SparseUtilityKind,
}

impl SynthSpec {
    /// A spec with linear utilities. Degrees run from 4 to 32 (mean ≈ 8),
    /// both ends clamped to `resources`.
    pub fn new(players: usize, resources: usize, seed: u64) -> Self {
        Self {
            players,
            resources,
            seed,
            kind: SparseUtilityKind::Linear,
        }
    }

    /// Generates the market.
    ///
    /// Every resource is guaranteed at least two interested players (a
    /// *strongly competitive* market: all prices are positive and the
    /// equilibrium is interior), by topping up under-subscribed resources
    /// round-robin after the random pass.
    ///
    /// # Errors
    ///
    /// [`MarketError::Empty`] for zero players/resources.
    pub fn generate(&self) -> Result<SparseMarket> {
        if self.players == 0 {
            return Err(MarketError::Empty { what: "players" });
        }
        if self.resources == 0 {
            return Err(MarketError::Empty { what: "resources" });
        }
        let (n, m) = (self.players, self.resources);
        let max_degree = MAX_DEGREE.min(m);
        let min_degree = MIN_DEGREE.min(max_degree);

        // Cumulative resource-popularity weights for inverse-CDF sampling.
        let mut cum = Vec::with_capacity(m);
        let mut total = 0.0;
        for j in 0..m {
            total += ((j + 1) as f64).powf(-POPULARITY_EXPONENT);
            cum.push(total);
        }

        let mut rows: Vec<Vec<(usize, f64)>> = Vec::with_capacity(n);
        let mut budgets = Vec::with_capacity(n);
        let mut bidders = vec![0usize; m];
        for i in 0..n {
            let mut rng = Stream::new(self.seed, i as u64);
            // Pareto(min_degree, α) degree, clamped into the legal range.
            let u = rng.unit_open();
            let deg = (min_degree as f64 / u.powf(1.0 / DEGREE_ALPHA)).floor() as usize;
            let deg = deg.clamp(min_degree, max_degree);
            let mut row: Vec<(usize, f64)> = Vec::with_capacity(deg);
            if deg * 2 >= m {
                // Dense row: rejection sampling would thrash, so take the
                // head of a seeded index shuffle instead.
                let mut perm: Vec<usize> = (0..m).collect();
                for k in (1..m).rev() {
                    let r = (rng.next() % (k as u64 + 1)) as usize;
                    perm.swap(k, r);
                }
                for &j in perm.iter().take(deg) {
                    row.push((j, 0.1 + 0.9 * rng.unit()));
                }
            } else {
                while row.len() < deg {
                    let target = rng.unit() * total;
                    let j = cum.partition_point(|&c| c < target).min(m - 1);
                    if !row.iter().any(|&(c, _)| c == j) {
                        row.push((j, 0.1 + 0.9 * rng.unit()));
                    }
                }
            }
            for &(j, _) in &row {
                bidders[j] += 1;
            }
            rows.push(row);
            budgets.push(0.5 + rng.unit());
        }

        // Strong-competitiveness top-up: every resource gets ≥ 2 bidders.
        let mut cursor = 0usize;
        for j in 0..m {
            while bidders[j] < 2 {
                let mut placed = false;
                for _ in 0..n {
                    let i = cursor;
                    cursor = (cursor + 1) % n;
                    if rows[i].len() < m && !rows[i].iter().any(|&(c, _)| c == j) {
                        rows[i].push((j, 0.5));
                        bidders[j] += 1;
                        placed = true;
                        break;
                    }
                }
                if !placed {
                    // Fewer players than needed bidders (tiny N): accept
                    // the under-subscribed resource rather than loop.
                    break;
                }
            }
        }

        let capacities = vec![1.0; m];
        let interests = SparseBids::from_rows(m, rows)?;
        SparseMarket::new(capacities, budgets, interests, self.kind)
    }
}

/// A per-player SplitMix64 stream: decisions for player `i` are a pure
/// function of `(seed, i)`, independent of generation order.
struct Stream(u64);

impl Stream {
    fn new(seed: u64, key: u64) -> Self {
        Stream(splitmix64(
            seed ^ splitmix64(key.wrapping_add(0x9e37_79b9_7f4a_7c15)),
        ))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `(0, 1]` (safe under `powf`/`ln`).
    fn unit_open(&mut self) -> f64 {
        ((self.next() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn tiny() -> SparseBids {
        SparseBids::from_rows(
            3,
            vec![
                vec![(0, 1.0), (2, 2.0)],
                vec![(1, 3.0)],
                vec![(2, 4.0), (0, 5.0), (1, 6.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn csr_layout_and_accessors() {
        let s = tiny();
        assert_eq!((s.players(), s.resources(), s.nnz()), (3, 3, 6));
        assert_eq!(s.row_ptr(), &[0, 2, 3, 6]);
        // Rows are sorted by column even when given unsorted.
        assert_eq!(s.row_cols(2), &[0, 1, 2]);
        assert_eq!(s.row_vals(2), &[5.0, 6.0, 4.0]);
        assert_eq!(s.column_sums(), vec![6.0, 9.0, 6.0]);
    }

    #[test]
    fn from_rows_rejects_bad_input() {
        assert!(SparseBids::from_rows(3, vec![]).is_err());
        assert!(SparseBids::from_rows(0, vec![vec![(0, 1.0)]]).is_err());
        assert!(SparseBids::from_rows(2, vec![vec![(2, 1.0)]]).is_err());
        assert!(SparseBids::from_rows(2, vec![vec![(1, 1.0), (1, 2.0)]]).is_err());
        assert!(SparseBids::from_rows(2, vec![vec![(0, f64::NAN)]]).is_err());
        assert!(SparseBids::from_rows(2, vec![vec![(0, -1.0)]]).is_err());
    }

    #[test]
    fn csr_parts_round_trip_and_are_checked_like_rows() {
        let s = tiny();
        let (row_ptr, cols, vals) = s.clone().into_parts();
        assert_eq!(SparseBids::from_csr(3, row_ptr, cols, vals).unwrap(), s);
        let bad = |row_ptr: &[usize], cols: &[u32], vals: &[f64]| {
            SparseBids::from_csr(2, row_ptr.to_vec(), cols.to_vec(), vals.to_vec()).is_err()
        };
        assert!(!bad(&[0, 1, 1], &[1], &[1.0]), "an empty row is fine");
        assert!(bad(&[0], &[], &[]), "no players");
        assert!(SparseBids::from_csr(0, vec![0, 1], vec![0], vec![1.0]).is_err());
        assert!(bad(&[1, 1], &[0], &[1.0]), "row_ptr must start at 0");
        assert!(bad(&[0, 2], &[0], &[1.0]), "row_ptr must end at nnz");
        assert!(bad(&[0, 1], &[0], &[1.0, 2.0]), "one value per column");
        assert!(bad(&[0, 2, 1], &[0, 1], &[1.0, 1.0]), "decreasing row_ptr");
        assert!(bad(&[0, 3, 1], &[0], &[1.0]), "row_ptr past the end");
        assert!(bad(&[0, 1], &[2], &[1.0]), "column out of range");
        assert!(bad(&[0, 2], &[1, 0], &[1.0, 1.0]), "unsorted row");
        assert!(bad(&[0, 2], &[1, 1], &[1.0, 1.0]), "duplicate column");
        assert!(bad(&[0, 1], &[0], &[f64::NAN]), "non-finite value");
        assert!(bad(&[0, 1], &[0], &[-1.0]), "negative value");
        // Sorted across a row boundary is not required.
        assert!(!bad(&[0, 1, 2], &[1, 0], &[1.0, 1.0]));
        let market = SparseMarket::new(vec![1.0; 3], vec![1.0; 3], s.clone(), Default::default());
        let (capacities, budgets, interests) = market.unwrap().into_parts();
        assert_eq!(
            (capacities, budgets, interests),
            (vec![1.0; 3], vec![1.0; 3], s)
        );
    }

    #[test]
    fn streamed_rows_match_collected_rows() {
        // Sorted, unsorted, empty and single-entry rows, streamed from
        // borrowed slices with no intermediate `Vec<Vec<_>>`.
        let rows: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 1.0), (2, 2.0)],
            vec![],
            vec![(2, 4.0), (0, 5.0), (1, 6.0)],
            vec![(1, 3.0)],
        ];
        let streamed =
            SparseBids::from_row_iter(3, rows.iter().map(|row| row.iter().map(|&(c, w)| (c, w))))
                .unwrap();
        assert_eq!(streamed, SparseBids::from_rows(3, rows).unwrap());
        assert_eq!(streamed.row_cols(2), &[0, 1, 2]);
        // The same rejections, in the same order.
        let empty: [[(usize, f64); 0]; 0] = [];
        assert_eq!(
            SparseBids::from_row_iter(0, empty).unwrap_err(),
            SparseBids::from_rows(0, vec![]).unwrap_err()
        );
        for bad in [
            vec![(2, 1.0)],
            vec![(1, 1.0), (1, 2.0)],
            vec![(1, 1.0), (0, f64::NAN)],
            vec![(0, -1.0)],
        ] {
            // Debug, not `==`: the NaN case must compare equal.
            assert_eq!(
                format!("{:?}", SparseBids::from_row_iter(2, [bad.iter().copied()])),
                format!("{:?}", SparseBids::from_rows(2, vec![bad]))
            );
        }
    }

    #[test]
    fn to_dense_round_trips() {
        let s = tiny();
        let d = s.to_dense().unwrap();
        assert_eq!(d.get(0, 2), 2.0);
        assert_eq!(d.get(1, 0), 0.0);
        assert_eq!(d.get(2, 1), 6.0);
    }

    #[test]
    fn market_validation() {
        let interests = SparseBids::from_rows(2, vec![vec![(0, 1.0)], vec![(1, 1.0)]]).unwrap();
        assert!(SparseMarket::new(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            interests.clone(),
            SparseUtilityKind::Linear
        )
        .is_ok());
        // Wrong lengths.
        assert!(SparseMarket::new(
            vec![1.0],
            vec![1.0, 1.0],
            interests.clone(),
            SparseUtilityKind::Linear
        )
        .is_err());
        assert!(SparseMarket::new(
            vec![1.0, 1.0],
            vec![1.0],
            interests.clone(),
            SparseUtilityKind::Linear
        )
        .is_err());
        // Bad values.
        assert!(SparseMarket::new(
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            interests.clone(),
            SparseUtilityKind::Linear
        )
        .is_err());
        assert!(SparseMarket::new(
            vec![1.0, 1.0],
            vec![-1.0, 1.0],
            interests,
            SparseUtilityKind::Linear
        )
        .is_err());
        // Zero interest weight.
        let zero = SparseBids::from_rows(2, vec![vec![(0, 0.0)], vec![(1, 1.0)]]).unwrap();
        assert!(SparseMarket::new(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            zero,
            SparseUtilityKind::Linear
        )
        .is_err());
    }

    #[test]
    fn jacobi_is_rejected_on_sparse_markets() {
        let market = SynthSpec::new(16, 4, 7).generate().unwrap();
        let err = market.solve(&EquilibriumOptions::default()).unwrap_err();
        assert!(matches!(err, MarketError::UnsupportedSolver { .. }));
    }

    #[test]
    fn generator_is_deterministic_and_well_formed() {
        let spec = SynthSpec::new(500, 16, 42);
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a.interests(), b.interests());
        assert_eq!(a.budgets(), b.budgets());
        assert_eq!(a.players(), 500);
        assert_eq!(a.resources(), 16);
        // Degrees within the configured band.
        for i in 0..a.players() {
            let deg = a.interests().row_cols(i).len();
            assert!((4..=16).contains(&deg), "player {i} degree {deg}");
        }
        // Every resource is contested (≥ 2 bidders).
        let mut bidders = vec![0usize; 16];
        for &c in a.interests().cols() {
            bidders[c as usize] += 1;
        }
        assert!(bidders.iter().all(|&b| b >= 2), "{bidders:?}");
        // A different seed gives a different market.
        let c = SynthSpec::new(500, 16, 43).generate().unwrap();
        assert_ne!(a.interests(), c.interests());
    }

    #[test]
    fn generator_clamps_both_degree_ends_to_the_resources() {
        let degrees = |market: &SparseMarket| {
            (0..market.players())
                .map(|i| market.interests().row_cols(i).len())
                .collect::<Vec<_>>()
        };
        // Two resources: both ends clamp to 2, so every row takes both.
        let narrow = SynthSpec::new(200, 2, 5).generate().unwrap();
        assert!(degrees(&narrow).iter().all(|&d| d == 2));
        // 64 resources: no clamp, the Pareto tail reaches the cap.
        let wide = degrees(&SynthSpec::new(2000, 64, 5).generate().unwrap());
        assert!(wide.iter().all(|d| (4..=32).contains(d)), "{wide:?}");
        assert!(wide.contains(&32), "no row reached the cap");
    }

    #[test]
    fn generator_popularity_is_head_heavy() {
        let market = SynthSpec::new(2000, 32, 1).generate().unwrap();
        let mut bidders = vec![0usize; 32];
        for &c in market.interests().cols() {
            bidders[c as usize] += 1;
        }
        let head: usize = bidders[..8].iter().sum();
        let tail: usize = bidders[24..].iter().sum();
        assert!(
            head > 2 * tail,
            "power-law popularity: head {head} vs tail {tail}"
        );
    }

    #[test]
    fn densified_market_matches_sparse_structure() {
        let sparse = SynthSpec::new(12, 6, 3).generate().unwrap();
        let dense = sparse.to_market().unwrap();
        assert_eq!(dense.len(), 12);
        assert_eq!(dense.resources().len(), 6);
        for (i, b) in sparse.budgets().iter().enumerate() {
            assert_eq!(dense.players()[i].budget(), *b);
        }
    }
}
