//! Deterministic, seeded fault injection for the market pipeline.
//!
//! The ReBudget loop runs *online*: every interval it rebuilds utilities
//! from hardware-monitor estimates and re-solves the market. Telemetry
//! noise, stale readings, missing bids, and strategic misreporting are the
//! normal operating regime, not exceptional — this module models them so
//! the guardrails in [`crate::equilibrium`] and the degradation policy in
//! the mechanism layer can be exercised reproducibly.
//!
//! A [`FaultPlan`] is a pure description: every decision it makes is a
//! deterministic function of `(seed, interval, player)` via the vendored
//! `rand` shim, and the noise applied inside utility wrappers is a pure
//! hash of the evaluation point. The same plan therefore produces
//! bit-identical faults in serial and parallel runs, and across repeated
//! executions — which is what lets the fault-tolerance property tests pin
//! exact behaviour per seed.
//!
//! Fault taxonomy (matching the paper's pipeline seams):
//!
//! * **noise** — multiplicative Gaussian noise on utility evaluations,
//!   standing in for miss-curve / IPC-sample estimation error;
//! * **spike** — occasional large multiplicative outliers (a mis-sampled
//!   counter);
//! * **nan** — non-finite utility evaluations (a torn/overflowed reading);
//! * **drop** — a player's bid never arrives this interval; the market is
//!   solved without it and the player receives nothing;
//! * **stale** — a player's utility estimate is `stale_depth` intervals
//!   old (applied by the simulator, which owns the history);
//! * **liar** — an adversarial bidder that persistently overstates its
//!   utility (and hence its elasticity/λ) by `liar_exaggeration`.

use std::sync::Arc;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{AllocationMatrix, Market, MarketError, Player, Result, Utility};

/// Domain-separation tags for per-decision seeding.
const TAG_DROP: u64 = 0x009d_5f01;
const TAG_STALE: u64 = 0x009d_5f02;
const TAG_LIAR: u64 = 0x009d_5f03;

/// A deterministic, seeded plan of faults to inject into the pipeline.
///
/// All probabilities are per player per interval. The default plan injects
/// nothing ([`FaultPlan::is_active`] is `false`), so it can be carried
/// around unconditionally.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every fault decision derives from it deterministically.
    pub seed: u64,
    /// Std-dev of the multiplicative Gaussian noise on utility values
    /// (0.1 = ±10% typical error). 0 disables.
    pub noise_sigma: f64,
    /// Probability that a utility evaluation is hit by a large outlier.
    pub spike_probability: f64,
    /// Multiplier applied on a spike (values > 1; the direction — inflate
    /// or deflate — is itself a coin flip).
    pub spike_probability_magnitude: f64,
    /// Probability that a player's telemetry is stale this interval.
    pub stale_probability: f64,
    /// How many intervals back a stale reading reaches (the paper's
    /// interval `N − k`).
    pub stale_depth: usize,
    /// Probability that a player's bid is dropped entirely this interval.
    pub drop_probability: f64,
    /// Probability that a utility evaluation returns NaN.
    pub nan_probability: f64,
    /// Number of adversarial "liar" bidders that persistently overstate
    /// their utility.
    pub liars: usize,
    /// Factor by which liars overstate value and marginals (> 1).
    pub liar_exaggeration: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            noise_sigma: 0.0,
            spike_probability: 0.0,
            spike_probability_magnitude: 4.0,
            stale_probability: 0.0,
            stale_depth: 1,
            drop_probability: 0.0,
            nan_probability: 0.0,
            liars: 0,
            liar_exaggeration: 3.0,
        }
    }
}

impl FaultPlan {
    /// A no-fault plan with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// Parses a compact spec string, e.g.
    /// `"noise=0.1,drop=0.05,liars=2,seed=7"`.
    ///
    /// Recognised keys: `seed`, `noise`, `spike`, `spike-mag`, `stale`,
    /// `stale-depth`, `drop`, `nan`, `liars`, `liar-factor`. Keys may
    /// appear in any order; unknown keys, malformed numbers, and
    /// out-of-range values are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::InvalidUtility`]-style typed errors — an
    /// [`MarketError::InvalidValue`] naming the offending key.
    pub fn parse(spec: &str) -> Result<Self> {
        let mut plan = Self::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part.split_once('=').ok_or(MarketError::InvalidValue {
                what: "fault spec entry (expected key=value)",
                value: f64::NAN,
            })?;
            let key = key.trim();
            let value = value.trim();
            if key == "seed" {
                // Parse the seed as an integer first so the full u64 range
                // survives (the f64 fallback below truncates above 2^53 —
                // kept for legacy specs like `seed=1e3`).
                if let Ok(seed) = value.parse::<u64>() {
                    plan.seed = seed;
                    continue;
                }
            }
            let num: f64 = value.parse().map_err(|_| MarketError::InvalidValue {
                what: "fault spec number",
                value: f64::NAN,
            })?;
            if !num.is_finite() || num < 0.0 {
                return Err(MarketError::InvalidValue {
                    what: "fault spec value",
                    value: num,
                });
            }
            match key {
                "seed" => plan.seed = num as u64,
                "noise" => plan.noise_sigma = num,
                "spike" => plan.spike_probability = num,
                "spike-mag" => plan.spike_probability_magnitude = num.max(1.0),
                "stale" => plan.stale_probability = num,
                "stale-depth" => plan.stale_depth = (num as usize).max(1),
                "drop" => plan.drop_probability = num,
                "nan" => plan.nan_probability = num,
                "liars" => plan.liars = num as usize,
                "liar-factor" => plan.liar_exaggeration = num.max(1.0),
                _ => {
                    return Err(MarketError::InvalidValue {
                        what: "fault spec key",
                        value: num,
                    })
                }
            }
        }
        Ok(plan)
    }

    /// Returns `self` with the seed replaced.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scales all fault intensities by `x` (probabilities clamped to 1):
    /// `at_intensity(0.0)` is fault-free, `at_intensity(1.0)` is the plan
    /// itself, and values above 1 overdrive it. Used by the robustness
    /// sweep bench.
    #[must_use]
    pub fn at_intensity(&self, x: f64) -> Self {
        let x = x.max(0.0);
        let p = |p: f64| (p * x).clamp(0.0, 1.0);
        Self {
            seed: self.seed,
            noise_sigma: self.noise_sigma * x,
            spike_probability: p(self.spike_probability),
            spike_probability_magnitude: self.spike_probability_magnitude,
            stale_probability: p(self.stale_probability),
            stale_depth: self.stale_depth,
            drop_probability: p(self.drop_probability),
            nan_probability: p(self.nan_probability),
            liars: (self.liars as f64 * x).round() as usize,
            liar_exaggeration: self.liar_exaggeration,
        }
    }

    /// `true` if this plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.noise_sigma > 0.0
            || self.spike_probability > 0.0
            || self.stale_probability > 0.0
            || self.drop_probability > 0.0
            || self.nan_probability > 0.0
            || self.liars > 0
    }

    /// A uniform draw in `[0, 1)` for decision `tag` about player `i` at
    /// `interval` — a pure function of the plan's seed, so decisions are
    /// order-independent and reproducible.
    fn decision(&self, tag: u64, interval: u64, i: u64) -> f64 {
        let mut h = self.seed ^ tag;
        h = splitmix64(h ^ interval.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        h = splitmix64(h ^ i.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        let mut rng = StdRng::seed_from_u64(h);
        rng.random_range(0.0..1.0)
    }

    /// Whether player `i`'s bid is dropped at `interval`.
    pub fn is_dropped(&self, interval: u64, i: usize) -> bool {
        self.drop_probability > 0.0
            && self.decision(TAG_DROP, interval, i as u64) < self.drop_probability
    }

    /// If player `i`'s telemetry is stale at `interval`, how many
    /// intervals back its reading reaches.
    pub fn stale_depth_for(&self, interval: u64, i: usize) -> Option<usize> {
        if self.stale_probability > 0.0
            && self.decision(TAG_STALE, interval, i as u64) < self.stale_probability
        {
            Some(self.stale_depth.max(1))
        } else {
            None
        }
    }

    /// The (persistent) set of adversarial liar players in a market of
    /// `n`: the `liars` players with the smallest selection draws. The
    /// set does not change between intervals — an adversary is a property
    /// of the workload, not of a single reading.
    pub fn liar_indices(&self, n: usize) -> Vec<usize> {
        if self.liars == 0 || n == 0 {
            return Vec::new();
        }
        let mut scored: Vec<(f64, usize)> = (0..n)
            .map(|i| (self.decision(TAG_LIAR, 0, i as u64), i))
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut picked: Vec<usize> = scored
            .into_iter()
            .take(self.liars.min(n))
            .map(|(_, i)| i)
            .collect();
        picked.sort_unstable();
        picked
    }

    /// Applies the plan to a market for one interval: liars get
    /// exaggerated utilities, noisy/spiky/NaN-prone wrappers are
    /// installed, and dropped players are removed (the caller re-expands
    /// the allocation with [`FaultedMarket::expand_allocation`]).
    ///
    /// At least one player is always kept, so the faulted market is
    /// well-formed even at `drop=1.0`.
    ///
    /// # Errors
    ///
    /// Propagates [`Market::new`] validation errors (which cannot trigger
    /// for a market that was already valid).
    pub fn apply(&self, market: &Market, interval: u64) -> Result<FaultedMarket> {
        let n = market.len();
        let liars = self.liar_indices(n);
        let mut dropped: Vec<usize> = (0..n).filter(|&i| self.is_dropped(interval, i)).collect();
        if dropped.len() == n {
            // Keep the lowest-index player so the market stays non-empty.
            dropped.remove(0);
        }
        let kept: Vec<usize> = (0..n).filter(|i| !dropped.contains(i)).collect();

        let perturbs =
            self.noise_sigma > 0.0 || self.spike_probability > 0.0 || self.nan_probability > 0.0;
        let players: Vec<Player> = kept
            .iter()
            .map(|&i| {
                let p = &market.players()[i];
                let mut utility: Arc<dyn Utility> = Arc::clone(p.utility());
                if liars.contains(&i) {
                    utility = Arc::new(ExaggeratedUtility {
                        inner: utility,
                        factor: self.liar_exaggeration.max(1.0),
                    });
                }
                if perturbs {
                    let mut salt = splitmix64(self.seed ^ 0x009d_5f04);
                    salt = splitmix64(salt ^ interval);
                    salt = splitmix64(salt ^ i as u64);
                    utility = Arc::new(NoisyUtility {
                        inner: utility,
                        sigma: self.noise_sigma,
                        spike_probability: self.spike_probability,
                        spike_magnitude: self.spike_probability_magnitude.max(1.0),
                        nan_probability: self.nan_probability,
                        salt,
                    });
                }
                Player::new(p.name().to_string(), p.budget(), utility)
            })
            .collect();
        let market = Market::new(market.resources().clone(), players)?;
        Ok(FaultedMarket {
            market,
            kept,
            dropped,
            liars,
        })
    }
}

impl std::fmt::Display for FaultPlan {
    /// Renders the plan in the exact grammar [`FaultPlan::parse`] accepts,
    /// omitting fields at their default values — so `parse(display(p))`
    /// reproduces `p` for every plan whose fields are in the grammar's
    /// range (finite, non-negative, magnitudes ≥ 1, depth ≥ 1). The
    /// default plan renders as the empty string, which parses back to the
    /// default plan. Rust's shortest-round-trip float formatting keeps the
    /// f64 fields bit-exact through the trip.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let d = Self::default();
        let mut parts: Vec<String> = Vec::new();
        if self.seed != d.seed {
            parts.push(format!("seed={}", self.seed));
        }
        if self.noise_sigma != d.noise_sigma {
            parts.push(format!("noise={}", self.noise_sigma));
        }
        if self.spike_probability != d.spike_probability {
            parts.push(format!("spike={}", self.spike_probability));
        }
        if self.spike_probability_magnitude != d.spike_probability_magnitude {
            parts.push(format!("spike-mag={}", self.spike_probability_magnitude));
        }
        if self.stale_probability != d.stale_probability {
            parts.push(format!("stale={}", self.stale_probability));
        }
        if self.stale_depth != d.stale_depth {
            parts.push(format!("stale-depth={}", self.stale_depth));
        }
        if self.drop_probability != d.drop_probability {
            parts.push(format!("drop={}", self.drop_probability));
        }
        if self.nan_probability != d.nan_probability {
            parts.push(format!("nan={}", self.nan_probability));
        }
        if self.liars != d.liars {
            parts.push(format!("liars={}", self.liars));
        }
        if self.liar_exaggeration != d.liar_exaggeration {
            parts.push(format!("liar-factor={}", self.liar_exaggeration));
        }
        f.write_str(&parts.join(","))
    }
}

/// The result of applying a [`FaultPlan`] to a market for one interval.
#[derive(Debug)]
pub struct FaultedMarket {
    /// The faulted market: dropped players removed, surviving players
    /// wrapped with noisy/exaggerated utilities as the plan dictates.
    pub market: Market,
    /// Original indices of the surviving players, in order.
    pub kept: Vec<usize>,
    /// Original indices of the players whose bids were dropped.
    pub dropped: Vec<usize>,
    /// Original indices of the adversarial liar players.
    pub liars: Vec<usize>,
}

impl FaultedMarket {
    /// Expands an allocation over the reduced (faulted) market back to the
    /// original player count: surviving players keep their rows, dropped
    /// players get zero rows. Column sums — and hence exhaustiveness — are
    /// preserved.
    ///
    /// # Errors
    ///
    /// Returns [`MarketError::DimensionMismatch`] if `alloc` does not
    /// match the reduced market's shape.
    pub fn expand_allocation(
        &self,
        alloc: &AllocationMatrix,
        original_players: usize,
    ) -> Result<AllocationMatrix> {
        let m = alloc.resources();
        if alloc.players() != self.kept.len() {
            return Err(MarketError::DimensionMismatch {
                what: "faulted allocation rows",
                expected: self.kept.len(),
                actual: alloc.players(),
            });
        }
        let mut full = AllocationMatrix::zeros(original_players, m)?;
        for (row, &i) in self.kept.iter().enumerate() {
            for j in 0..m {
                full.set(i, j, alloc.get(row, j));
            }
        }
        Ok(full)
    }
}

/// Deterministic standard-Gaussian sample for `(salt, index)` — the same
/// hash-based Box–Muller generator the noisy-utility wrapper uses, exposed
/// so the simulator can perturb monitor-derived curves with the same
/// seeding discipline (pure function, bit-identical across runs).
pub fn gaussian_sample(salt: u64, index: u64) -> f64 {
    let k = splitmix64(splitmix64(salt) ^ index);
    let (u1, u2) = (unit(splitmix64(k ^ 1)), unit(splitmix64(k ^ 2)));
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One SplitMix64 scramble step — the workspace's one cheap
/// deterministic mixer: the stateless noise here, the synthetic market
/// generator in [`crate::sparse`], the daemon's seeded workloads and the
/// server bench's churn all hash with it.
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hashes an evaluation point (plus a salt) to a 64-bit key. Pure: equal
/// inputs give equal keys, which keeps noisy utilities `Sync`-safe and
/// the whole pipeline bit-deterministic.
fn point_key(salt: u64, r: &[f64]) -> u64 {
    let mut h = splitmix64(salt);
    for &v in r {
        h = splitmix64(h ^ v.to_bits());
    }
    h
}

/// `u64` key → uniform in `(0, 1]` (never exactly 0, so `ln` is safe).
fn unit(h: u64) -> f64 {
    (((h >> 11) as f64) + 1.0) * (1.0 / (1u64 << 53) as f64)
}

/// A utility wrapper injecting multiplicative Gaussian noise, occasional
/// spikes, and occasional NaN evaluations — all as a *pure function* of
/// the evaluation point, so the wrapper stays `Send + Sync` and the run
/// deterministic.
struct NoisyUtility {
    inner: Arc<dyn Utility>,
    sigma: f64,
    spike_probability: f64,
    spike_magnitude: f64,
    nan_probability: f64,
    salt: u64,
}

impl Utility for NoisyUtility {
    fn value(&self, r: &[f64]) -> f64 {
        let u = self.inner.value(r);
        let k0 = point_key(self.salt, r);
        if self.nan_probability > 0.0 && unit(k0) <= self.nan_probability {
            return f64::NAN;
        }
        let mut out = u;
        if self.sigma > 0.0 {
            // Box–Muller from two hash-derived uniforms.
            let (u1, u2) = (unit(splitmix64(k0 ^ 1)), unit(splitmix64(k0 ^ 2)));
            let g = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            out *= 1.0 + self.sigma * g;
        }
        if self.spike_probability > 0.0 && unit(splitmix64(k0 ^ 3)) <= self.spike_probability {
            // Direction of the outlier is itself a coin flip.
            if splitmix64(k0 ^ 4) & 1 == 0 {
                out *= self.spike_magnitude;
            } else {
                out /= self.spike_magnitude;
            }
        }
        out.max(0.0)
    }
    // `marginal` deliberately uses the trait's finite-difference default
    // over the *noisy* value(), so derivative estimates are noisy too —
    // exactly what a monitor-driven pipeline sees.
}

/// An adversarial bidder that overstates its utility (value *and*
/// marginals) by a constant factor, inflating its apparent elasticity
/// and marginal utility of money.
struct ExaggeratedUtility {
    inner: Arc<dyn Utility>,
    factor: f64,
}

impl Utility for ExaggeratedUtility {
    fn value(&self, r: &[f64]) -> f64 {
        self.factor * self.inner.value(r)
    }
    fn marginal(&self, r: &[f64], j: usize) -> f64 {
        self.factor * self.inner.marginal(r, j)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::utility::SeparableUtility;
    use crate::{Player, ResourceSpace};

    fn market(n: usize) -> Market {
        let caps = [16.0, 80.0];
        let resources = ResourceSpace::new(caps.to_vec()).unwrap();
        let players = (0..n)
            .map(|i| {
                let w = 0.2 + 0.6 * (i as f64 / n.max(2) as f64);
                Player::new(
                    format!("p{i}"),
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[w, 1.0 - w], &caps).unwrap())
                        as Arc<dyn Utility>,
                )
            })
            .collect();
        Market::new(resources, players).unwrap()
    }

    #[test]
    fn default_plan_is_inactive_identity() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        let m = market(4);
        let f = plan.apply(&m, 0).unwrap();
        assert!(f.dropped.is_empty());
        assert!(f.liars.is_empty());
        assert_eq!(f.kept, vec![0, 1, 2, 3]);
        // Utilities pass through untouched (no wrapper installed).
        let r = [2.0, 10.0];
        for (a, b) in m.players().iter().zip(f.market.players()) {
            assert_eq!(a.utility_of(&r).to_bits(), b.utility_of(&r).to_bits());
        }
    }

    #[test]
    fn parse_round_trips_keys() {
        let plan = FaultPlan::parse("noise=0.1, drop=0.05, liars=2, seed=7, stale=0.2").unwrap();
        assert_eq!(plan.seed, 7);
        assert!((plan.noise_sigma - 0.1).abs() < 1e-12);
        assert!((plan.drop_probability - 0.05).abs() < 1e-12);
        assert!((plan.stale_probability - 0.2).abs() < 1e-12);
        assert_eq!(plan.liars, 2);
        assert!(plan.is_active());
        assert!(FaultPlan::parse("").unwrap() == FaultPlan::default());
        assert!(FaultPlan::parse("bogus=1").is_err());
        assert!(FaultPlan::parse("noise").is_err());
        assert!(FaultPlan::parse("noise=-1").is_err());
        assert!(FaultPlan::parse("noise=abc").is_err());
    }

    #[test]
    fn display_parse_round_trips() {
        // Shortest-round-trip float formatting + the integer seed path
        // make `parse(display(p)) == p` hold for every in-grammar plan.
        let unit = |h: u64| (h >> 11) as f64 / (1u64 << 53) as f64;
        for k in 0..200u64 {
            let s = |t: u64| splitmix64(k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ t);
            let plan = FaultPlan {
                seed: s(1),
                noise_sigma: unit(s(2)),
                spike_probability: unit(s(3)),
                spike_probability_magnitude: 1.0 + 8.0 * unit(s(4)),
                stale_probability: unit(s(5)),
                stale_depth: 1 + (s(6) % 7) as usize,
                drop_probability: unit(s(7)),
                nan_probability: unit(s(8)),
                liars: (s(9) % 5) as usize,
                liar_exaggeration: 1.0 + 4.0 * unit(s(10)),
            };
            let shown = plan.to_string();
            let back = FaultPlan::parse(&shown).unwrap();
            assert_eq!(back, plan, "spec `{shown}` must round-trip");
        }
        assert_eq!(FaultPlan::default().to_string(), "");
        assert_eq!(
            FaultPlan::parse("").unwrap(),
            FaultPlan::parse(&FaultPlan::default().to_string()).unwrap()
        );
        let p = FaultPlan::parse("noise=0.15,drop=0.1,stale=0.2,liars=2,seed=23").unwrap();
        assert_eq!(FaultPlan::parse(&p.to_string()).unwrap(), p);
        assert_eq!(
            p.to_string(),
            "seed=23,noise=0.15,stale=0.2,drop=0.1,liars=2"
        );
    }

    #[test]
    fn seed_survives_the_full_u64_range() {
        let big = FaultPlan::parse("seed=18446744073709551615").unwrap();
        assert_eq!(big.seed, u64::MAX);
        assert_eq!(FaultPlan::parse(&big.to_string()).unwrap(), big);
        // Legacy float-form seeds still work (truncated via f64).
        assert_eq!(FaultPlan::parse("seed=1e3").unwrap().seed, 1000);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let plan = FaultPlan::parse("drop=0.3,seed=42").unwrap();
        for interval in 0..10 {
            for i in 0..16 {
                assert_eq!(plan.is_dropped(interval, i), plan.is_dropped(interval, i),);
            }
        }
        // Different seeds give different drop patterns (statistically
        // certain over 160 draws).
        let other = plan.clone().with_seed(43);
        let a: Vec<bool> = (0..160)
            .map(|k| plan.is_dropped(k / 16, (k % 16) as usize))
            .collect();
        let b: Vec<bool> = (0..160)
            .map(|k| other.is_dropped(k / 16, (k % 16) as usize))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn liar_set_is_persistent_and_sized() {
        let plan = FaultPlan::parse("liars=3,seed=5").unwrap();
        let liars = plan.liar_indices(10);
        assert_eq!(liars.len(), 3);
        assert_eq!(liars, plan.liar_indices(10));
        assert!(liars.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(plan.liar_indices(2).len(), 2, "clamped to n");
    }

    #[test]
    fn drop_all_keeps_one_player() {
        let plan = FaultPlan::parse("drop=1.0,seed=1").unwrap();
        let m = market(5);
        let f = plan.apply(&m, 3).unwrap();
        assert_eq!(f.kept.len(), 1);
        assert_eq!(f.market.len(), 1);
        assert_eq!(f.dropped.len(), 4);
    }

    #[test]
    fn expand_allocation_zero_fills_dropped_rows() {
        let plan = FaultPlan::parse("drop=0.5,seed=9").unwrap();
        let m = market(8);
        let f = plan.apply(&m, 0).unwrap();
        assert!(!f.dropped.is_empty(), "seed 9 drops someone at p=0.5");
        let out = f
            .market
            .equilibrium(&crate::equilibrium::EquilibriumOptions::default())
            .unwrap();
        let full = f.expand_allocation(&out.allocation, m.len()).unwrap();
        assert!(full.is_exhaustive(m.resources().capacities(), 1e-9));
        for &i in &f.dropped {
            assert!(full.row(i).iter().all(|&v| v == 0.0));
        }
        for (row, &i) in f.kept.iter().enumerate() {
            for j in 0..2 {
                assert_eq!(
                    full.get(i, j).to_bits(),
                    out.allocation.get(row, j).to_bits()
                );
            }
        }
    }

    #[test]
    fn noise_is_a_pure_function_of_the_point() {
        let plan = FaultPlan::parse("noise=0.2,seed=11").unwrap();
        let m = market(3);
        let f = plan.apply(&m, 2).unwrap();
        let r = [3.0, 20.0];
        let u = f.market.players()[0].utility_of(&r);
        for _ in 0..5 {
            assert_eq!(u.to_bits(), f.market.players()[0].utility_of(&r).to_bits());
        }
        // And it actually perturbs relative to the clean value.
        let clean = m.players()[0].utility_of(&r);
        assert_ne!(u.to_bits(), clean.to_bits());
        assert!(u >= 0.0);
    }

    #[test]
    fn liars_inflate_lambda_but_not_true_utility() {
        let plan = FaultPlan::parse("liars=1,liar-factor=4,seed=2").unwrap();
        let m = market(4);
        let f = plan.apply(&m, 0).unwrap();
        assert_eq!(f.liars.len(), 1);
        let liar = f.liars[0];
        let r = [4.0, 20.0];
        let lied = f.market.players()[liar].utility_of(&r);
        let truth = m.players()[liar].utility_of(&r);
        assert!((lied - 4.0 * truth).abs() < 1e-12);
    }

    #[test]
    fn intensity_scales_probabilities_and_clamps() {
        let plan = FaultPlan::parse("noise=0.2,drop=0.6,liars=2").unwrap();
        let half = plan.at_intensity(0.5);
        assert!((half.noise_sigma - 0.1).abs() < 1e-12);
        assert!((half.drop_probability - 0.3).abs() < 1e-12);
        assert_eq!(half.liars, 1);
        let over = plan.at_intensity(2.0);
        assert!((over.drop_probability - 1.0).abs() < 1e-12, "clamped");
        assert!(!plan.at_intensity(0.0).is_active());
    }
}
