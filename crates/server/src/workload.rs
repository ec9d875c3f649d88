//! Seeded, per-tick-pure client churn for the daemon.
//!
//! [`WorkloadSpec::commands_for_tick`] is a **pure function of
//! `(spec, tick)`** — no generator state advances between calls. That
//! purity is what makes kill-safe replay work: after a `kill -9`, the
//! chaos harness asks the restarted server for its committed tick `T`
//! and simply re-drives `commands_for_tick(t)` for `t >= T`; the
//! commands the dead server never committed are regenerated bit-for-bit
//! without replaying the whole history.
//!
//! The schedule is deterministic by construction: player `k` arrives at
//! a fixed tick derived from its index, lives for a hashed lifetime,
//! and (sometimes) refreshes its utility mid-life. All attributes
//! (budget, interest set, weights) are hashed from `(seed, k)` alone.

use std::ops::Range;

use rebudget_market::splitmix64;

use crate::proto::Request;

/// A seeded churn schedule over a fixed resource space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Seed for every hashed attribute and schedule choice.
    pub seed: u64,
    /// Players arriving at tick 0.
    pub initial_players: usize,
    /// Resource count `M` (interest columns are `< resources`).
    pub resources: usize,
    /// New players arriving at each tick `>= 1`.
    pub arrivals_per_tick: usize,
    /// Mean lifetime in ticks; actual lifetimes are
    /// `1 + hash % (2 * mean)` so the mean holds and nobody departs the
    /// tick it arrives.
    pub mean_lifetime: u64,
    /// Percent (0–100) of live players that refresh their utility
    /// weights each tick (the `update` command).
    pub update_percent: u64,
}

impl WorkloadSpec {
    /// A small default suitable for tests: 16 initial players over
    /// `resources` resources, 2 arrivals/tick, mean lifetime 8 ticks,
    /// 10% utility refresh.
    #[must_use]
    pub fn small(seed: u64, resources: usize) -> Self {
        Self {
            seed,
            initial_players: 16,
            resources,
            arrivals_per_tick: 2,
            mean_lifetime: 8,
            update_percent: 10,
        }
    }

    fn hash(&self, player: u64, salt: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(player) ^ salt.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Tick at which player `k` arrives.
    fn arrival(&self, k: usize) -> u64 {
        if k < self.initial_players {
            0
        } else {
            match (k - self.initial_players).checked_div(self.arrivals_per_tick) {
                Some(waves) => waves as u64 + 1,
                None => u64::MAX,
            }
        }
    }

    /// Tick at which player `k` departs (exclusive lifetime end).
    fn departure(&self, k: usize) -> u64 {
        let life = 1 + self.hash(k as u64, 1) % (2 * self.mean_lifetime.max(1));
        self.arrival(k).saturating_add(life)
    }

    /// Player indices with any scheduled activity at or before `tick`.
    fn horizon(&self, tick: u64) -> usize {
        self.initial_players + (tick as usize).saturating_mul(self.arrivals_per_tick)
    }

    /// Indices of the players arriving in ticks `from..=to`.
    fn arriving(&self, from: u64, to: u64) -> Range<usize> {
        let first = if from == 0 { 0 } else { self.horizon(from - 1) };
        first..self.horizon(to)
    }

    /// Whether player `k` is live during tick `tick` (arrived, not yet
    /// departed) — from the schedule alone.
    #[must_use]
    pub fn live(&self, k: usize, tick: u64) -> bool {
        self.arrival(k) <= tick && tick < self.departure(k)
    }

    /// The player id for index `k`.
    #[must_use]
    pub fn id(&self, k: usize) -> String {
        format!("p{k}")
    }

    fn interests(&self, k: usize, generation: u64) -> Vec<(u32, f64)> {
        let m = self.resources as u64;
        let count =
            1 + self.hash(k as u64, 2u64.wrapping_add(generation.wrapping_mul(7919))) % m.min(6);
        let mut cols: Vec<u32> = Vec::with_capacity(count as usize);
        let mut probe = 0u64;
        while (cols.len() as u64) < count {
            let c = (self.hash(k as u64, 100 + probe + generation.wrapping_mul(7919)) % m) as u32;
            if !cols.contains(&c) {
                cols.push(c);
            }
            probe += 1;
        }
        cols.sort_unstable();
        cols.into_iter()
            .map(|c| {
                let w = self.hash(k as u64, 200 + u64::from(c) + generation.wrapping_mul(7919));
                // Weights in [0.1, 10.1): positive, finite, varied.
                (c, 0.1 + (w % 10_000) as f64 / 1_000.0)
            })
            .collect()
    }

    fn budget(&self, k: usize) -> f64 {
        // Budgets in [50, 150): positive, so every player bids.
        50.0 + (self.hash(k as u64, 3) % 10_000) as f64 / 100.0
    }

    /// The admission commands for tick `tick`, in a fixed order:
    /// departures (ascending index), then arrivals (ascending index),
    /// then utility updates (ascending index). Pure in `(self, tick)`.
    ///
    /// Lifetimes are at most `2 * mean_lifetime` ticks, so only players
    /// that arrived in the last `2 * mean_lifetime` ticks can depart or
    /// update now: the cost is O(players in that window), not O(tick).
    #[must_use]
    pub fn commands_for_tick(&self, tick: u64) -> Vec<Request> {
        let mut commands = Vec::new();
        let window = self.arriving(tick.saturating_sub(2 * self.mean_lifetime.max(1)), tick);
        for k in window.clone() {
            if tick > 0 && self.departure(k) == tick {
                commands.push(Request::Depart { id: self.id(k) });
            }
        }
        for k in self.arriving(tick, tick) {
            commands.push(Request::Arrive {
                id: self.id(k),
                budget: self.budget(k),
                interests: self.interests(k, 0),
            });
        }
        if self.update_percent > 0 && tick > 0 {
            for k in window {
                // Updates only for players live both this tick and last
                // (an arrival this tick already carries fresh weights).
                if self.live(k, tick)
                    && self.live(k, tick.saturating_sub(1))
                    && self.arrival(k) < tick
                    && self.hash(k as u64, 400 + tick) % 100 < self.update_percent
                {
                    commands.push(Request::Update {
                        id: self.id(k),
                        interests: self.interests(k, tick),
                    });
                }
            }
        }
        commands
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn commands_are_pure_in_tick() {
        let spec = WorkloadSpec::small(7, 8);
        for t in 0..20 {
            assert_eq!(spec.commands_for_tick(t), spec.commands_for_tick(t));
        }
        // Replay-from-the-middle equals the original tail.
        let full: Vec<_> = (0..20).map(|t| spec.commands_for_tick(t)).collect();
        let tail: Vec<_> = (9..20).map(|t| spec.commands_for_tick(t)).collect();
        assert_eq!(&full[9..], tail.as_slice());
    }

    #[test]
    fn schedule_is_consistent() {
        let spec = WorkloadSpec::small(3, 8);
        let mut live: BTreeSet<String> = BTreeSet::new();
        let mut arrivals = 0usize;
        let mut departures = 0usize;
        let mut updates = 0usize;
        for t in 0..40 {
            for cmd in spec.commands_for_tick(t) {
                match cmd {
                    Request::Arrive {
                        id,
                        interests,
                        budget,
                    } => {
                        assert!(live.insert(id), "duplicate arrival");
                        assert!(!interests.is_empty());
                        assert!(interests.iter().all(|&(c, w)| {
                            (c as usize) < spec.resources && w.is_finite() && w > 0.0
                        }));
                        assert!(budget > 0.0);
                        arrivals += 1;
                    }
                    Request::Depart { id } => {
                        assert!(live.remove(&id), "departure of a dead player");
                        departures += 1;
                    }
                    Request::Update { id, interests } => {
                        assert!(live.contains(&id), "update of a dead player");
                        assert!(!interests.is_empty());
                        updates += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(arrivals, spec.initial_players + 39 * spec.arrivals_per_tick);
        assert!(departures > 0, "lifetimes expire within 40 ticks");
        assert!(updates > 0, "10% refresh fires within 40 ticks");
    }

    /// The generator before the lifetime window: every player index ever
    /// scheduled is scanned on every call.
    fn full_scan_commands(spec: &WorkloadSpec, tick: u64) -> Vec<Request> {
        let mut commands = Vec::new();
        let horizon = spec.horizon(tick);
        for k in 0..horizon {
            if tick > 0 && spec.departure(k) == tick {
                commands.push(Request::Depart { id: spec.id(k) });
            }
        }
        for k in 0..horizon {
            if spec.arrival(k) == tick {
                commands.push(Request::Arrive {
                    id: spec.id(k),
                    budget: spec.budget(k),
                    interests: spec.interests(k, 0),
                });
            }
        }
        if spec.update_percent > 0 && tick > 0 {
            for k in 0..horizon {
                if spec.live(k, tick)
                    && spec.live(k, tick.saturating_sub(1))
                    && spec.arrival(k) < tick
                    && spec.hash(k as u64, 400 + tick) % 100 < spec.update_percent
                {
                    commands.push(Request::Update {
                        id: spec.id(k),
                        interests: spec.interests(k, tick),
                    });
                }
            }
        }
        commands
    }

    #[test]
    fn lifetime_window_matches_the_full_scan() {
        // `small` and the shape of the serve-churn benchmark (1% updates,
        // mean lifetime 100), the latter also with no arrivals after tick 0.
        let churn = |seed, arrivals_per_tick| WorkloadSpec {
            seed,
            initial_players: 200,
            resources: 64,
            arrivals_per_tick,
            mean_lifetime: 100,
            update_percent: 1,
        };
        for spec in [WorkloadSpec::small(5, 16), churn(7, 2), churn(9, 0)] {
            for t in 0..3000 {
                assert_eq!(
                    spec.commands_for_tick(t),
                    full_scan_commands(&spec, t),
                    "{spec:?} tick {t}"
                );
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadSpec::small(1, 8).commands_for_tick(0);
        let b = WorkloadSpec::small(2, 8).commands_for_tick(0);
        assert_ne!(a, b);
    }
}
