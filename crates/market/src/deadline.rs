//! Deadline-bounded solving and the bounded retry ladder.
//!
//! At production scale a single pathological equilibrium solve must not be
//! able to stall a whole run: every solver entry point accepts a
//! [`DeadlineBudget`] — a wall-clock and/or iteration budget — and returns
//! with [`crate::SolveReport::timed_out`] set instead of spinning when the
//! budget is exhausted.
//!
//! On top of that sits [`solve_with_retry`], a *bounded* retry ladder with
//! exponential back-off on the per-attempt budget:
//!
//! 1. the solve as configured;
//! 2. a **tightened** attempt — finer bidding steps and a tighter λ
//!    tolerance, which resolves most oscillation-induced non-convergence;
//! 3. progressively **relaxed** attempts — the price tolerance is widened
//!    each rung, accepting a rougher equilibrium over none at all.
//!
//! If every rung fails, the best (lowest-residual) iterate seen is
//! returned with a [`RetryReport`] describing the ladder; callers that
//! need a hard guarantee then fall back to `EqualShare` through the
//! degradation path the simulator already has (see
//! `rebudget-sim::simulation`).
//!
//! # Determinism
//!
//! Iteration budgets are exact and deterministic; wall-clock budgets are
//! inherently racy against machine load. Runs that must be bit-identical
//! (checkpoint/resume, the determinism test suites) should bound solves by
//! iterations only — the default [`DeadlineBudget::UNBOUNDED`] never
//! changes results.

use std::time::{Duration, Instant};

use rebudget_telemetry as telemetry;

use crate::equilibrium::{EquilibriumOptions, SolveReport};
use crate::{MarketError, Result};

/// A wall-clock and/or iteration budget for one solve.
///
/// The default is unbounded on both axes, so the budget can be carried in
/// options structs unconditionally without changing behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeadlineBudget {
    /// Wall-clock limit for the solve. `None` = unlimited.
    pub wall_clock: Option<Duration>,
    /// Iteration limit for the solve, *in addition to* any fail-safe the
    /// solver already has (e.g. the paper's 30-iteration cap). `None` =
    /// unlimited.
    pub max_iterations: Option<usize>,
}

impl DeadlineBudget {
    /// No limit on either axis — solver behaviour is unchanged.
    pub const UNBOUNDED: Self = Self {
        wall_clock: None,
        max_iterations: None,
    };

    /// A wall-clock-only budget.
    ///
    /// # Errors
    ///
    /// [`MarketError::InvalidValue`] for `ms == 0`: a zero budget admits
    /// no work at all, so every solve under it would "time out" having
    /// done nothing — always a configuration mistake, never a policy.
    /// (An *unlimited* budget is spelled [`DeadlineBudget::UNBOUNDED`],
    /// not zero.)
    pub fn wall_clock_ms(ms: u64) -> Result<Self> {
        Self::checked(Some(ms), None)
    }

    /// An iteration-only budget (deterministic; use this for reproducible
    /// runs).
    ///
    /// # Errors
    ///
    /// [`MarketError::InvalidValue`] for `n == 0` (see
    /// [`DeadlineBudget::wall_clock_ms`]).
    pub fn iterations(n: usize) -> Result<Self> {
        Self::checked(None, Some(n))
    }

    /// Builds a budget from optional wall-clock and iteration limits,
    /// validating both axes. `None` on an axis means unlimited;
    /// `checked(None, None)` is [`DeadlineBudget::UNBOUNDED`].
    ///
    /// # Errors
    ///
    /// [`MarketError::InvalidValue`] when either limit is zero — a budget
    /// that can never admit an iteration. Callers that used to pass zero
    /// to mean "no limit" must pass `None` instead.
    pub fn checked(wall_clock_ms: Option<u64>, max_iterations: Option<usize>) -> Result<Self> {
        if wall_clock_ms == Some(0) {
            return Err(MarketError::InvalidValue {
                what: "deadline wall-clock budget in ms (zero admits no work; \
                       use an unbounded budget for no limit)",
                value: 0.0,
            });
        }
        if max_iterations == Some(0) {
            return Err(MarketError::InvalidValue {
                what: "deadline iteration budget (zero admits no work; \
                       use an unbounded budget for no limit)",
                value: 0.0,
            });
        }
        Ok(Self {
            wall_clock: wall_clock_ms.map(Duration::from_millis),
            max_iterations,
        })
    }

    /// `true` when either axis is bounded.
    pub fn is_bounded(&self) -> bool {
        self.wall_clock.is_some() || self.max_iterations.is_some()
    }

    /// Returns the budget with both axes scaled by `factor` (exponential
    /// back-off between retry rungs). Unbounded axes stay unbounded.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        let factor = factor.max(0.0);
        Self {
            wall_clock: self.wall_clock.map(|d| d.mul_f64(factor)),
            max_iterations: self
                .max_iterations
                .map(|n| ((n as f64 * factor) as usize).max(1)),
        }
    }

    /// Starts the clock on this budget.
    pub fn start(&self) -> DeadlineClock {
        DeadlineClock {
            budget: *self,
            // Only pay for `Instant::now` when a wall clock is armed.
            started: self.wall_clock.map(|_| Instant::now()),
            charged: 0,
        }
    }
}

/// A running [`DeadlineBudget`]: tracks elapsed wall-clock time and the
/// iterations charged so far.
#[derive(Debug, Clone)]
pub struct DeadlineClock {
    budget: DeadlineBudget,
    started: Option<Instant>,
    charged: usize,
}

impl DeadlineClock {
    /// Charges `iterations` against the budget and reports whether the
    /// budget is now exhausted.
    pub fn charge(&mut self, iterations: usize) -> bool {
        self.charged += iterations;
        self.expired()
    }

    /// Whether the budget is exhausted (on either axis).
    pub fn expired(&self) -> bool {
        if let Some(cap) = self.budget.max_iterations {
            if self.charged >= cap {
                return true;
            }
        }
        if let (Some(limit), Some(started)) = (self.budget.wall_clock, self.started) {
            if started.elapsed() >= limit {
                return true;
            }
        }
        false
    }

    /// Iterations charged so far.
    pub fn iterations(&self) -> usize {
        self.charged
    }

    /// Elapsed wall-clock time, if a wall clock is armed.
    pub fn elapsed(&self) -> Option<Duration> {
        self.started.map(|s| s.elapsed())
    }
}

/// The bounded retry ladder for equilibrium solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1; 1 = no retries).
    pub max_attempts: usize,
    /// Factor applied to the bidding tolerances on the *tightened* rung
    /// (attempt 2). Must be in `(0, 1]`.
    pub tighten: f64,
    /// Factor applied to the price tolerance on each *relaxed* rung
    /// (attempts ≥ 3), compounding per rung. Must be ≥ 1.
    pub relax: f64,
    /// Exponential back-off on the per-attempt [`DeadlineBudget`]: attempt
    /// `k` (0-based) runs under `deadline.scaled(backoff^k)`.
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            tighten: 0.5,
            relax: 4.0,
            backoff: 2.0,
        }
    }
}

impl RetryPolicy {
    /// A ladder with `attempts` total attempts and default factors.
    pub fn with_attempts(attempts: usize) -> Self {
        Self {
            max_attempts: attempts.max(1),
            ..Self::default()
        }
    }

    /// The options for 0-based attempt `k` of the ladder: attempt 0 runs
    /// `base` unchanged, attempt 1 tightens the bidding tolerances, and
    /// attempts ≥ 2 relax the price tolerance geometrically; every rung's
    /// deadline is scaled by `backoff^k`.
    fn options_for_attempt(&self, base: &EquilibriumOptions, k: usize) -> EquilibriumOptions {
        let mut opts = base.clone();
        opts.deadline = base.deadline.scaled(self.backoff.max(1.0).powi(k as i32));
        match k {
            0 => {}
            1 => {
                // Tightened rung: finer hill-climb steps and λ tolerance.
                let t = self.tighten.clamp(1e-3, 1.0);
                opts.bidding.lambda_tolerance *= t;
                opts.bidding.min_step_fraction *= t;
            }
            k => {
                // Relaxed rungs: widen the price tolerance geometrically.
                let r = self.relax.max(1.0).powi(k as i32 - 1);
                opts.price_tolerance = base.price_tolerance * r;
            }
        }
        opts
    }
}

/// How a retry ladder went.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RetryReport {
    /// Attempts executed (1 = first solve succeeded).
    pub attempts: u64,
    /// Attempts that hit their [`DeadlineBudget`].
    pub timed_out_attempts: u64,
    /// Whether the returned outcome converged.
    pub converged: bool,
}

impl RetryReport {
    /// Retries beyond the first attempt.
    pub fn retries(&self) -> u64 {
        self.attempts.saturating_sub(1)
    }
}

/// Runs `solve`, retrying along the [`RetryPolicy`] ladder until a solve
/// converges within its deadline. `solve` is called with each rung's
/// options, so the one ladder drives the dense engine
/// ([`crate::Market::equilibrium_with_budgets`]), the sparse one
/// ([`crate::SparseMarket::solve`]) or any other solve whose outcome
/// carries a [`SolveReport`].
///
/// Returns the first converged, in-budget outcome; if every rung fails,
/// the lowest-residual outcome seen is returned (best-effort), with the
/// [`RetryReport`] recording how hard the ladder had to work. The caller
/// owns any further fallback (e.g. `EqualShare` via the simulator's
/// degradation path). With no policy, `solve` runs once on `options`
/// and no `retry_attempt` event is recorded.
///
/// # Errors
///
/// Propagates the [`crate::MarketError`]s `solve` returns for degenerate
/// inputs; running out of rungs is *not* an error.
pub fn solve_with_retry<O: AsRef<SolveReport>>(
    options: &EquilibriumOptions,
    policy: Option<&RetryPolicy>,
    mut solve: impl FnMut(&EquilibriumOptions) -> Result<O>,
) -> Result<(O, RetryReport)> {
    let Some(policy) = policy else {
        let out = solve(options)?;
        let report = out.as_ref();
        let retry = RetryReport {
            attempts: 1,
            timed_out_attempts: u64::from(report.timed_out),
            converged: report.converged,
        };
        return Ok((out, retry));
    };
    let attempts = policy.max_attempts.max(1);
    let mut report = RetryReport::default();
    let mut best: Option<O> = None;
    for k in 0..attempts {
        let out = solve(&policy.options_for_attempt(options, k))?;
        let solved = out.as_ref();
        report.attempts = (k + 1) as u64;
        if solved.timed_out {
            report.timed_out_attempts += 1;
        }
        let done = solved.converged && !solved.timed_out;
        if telemetry::enabled() {
            telemetry::record(
                telemetry::Event::new("retry_attempt")
                    .field_u64("attempt", report.attempts)
                    .field_bool("converged", solved.converged)
                    .field_bool("timed_out", solved.timed_out)
                    .field_f64("residual", solved.residual),
            );
            if k > 0 {
                telemetry::global()
                    .registry
                    .counter("solver.retries")
                    .incr();
            }
        }
        let better = match &best {
            None => true,
            Some(b) => solved.residual < b.as_ref().residual,
        };
        if better {
            best = Some(out);
        }
        if done {
            break;
        }
    }
    #[allow(clippy::expect_used)] // attempts >= 1, so a solve always ran
    let outcome = best.expect("at least one attempt");
    report.converged = outcome.as_ref().converged;
    Ok((outcome, report))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::equilibrium::EquilibriumOutcome;
    use crate::sparse::SynthSpec;
    use crate::utility::SeparableUtility;
    use crate::{Market, Player, ResourceSpace};
    use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

    fn market() -> Market {
        let caps = [16.0, 80.0];
        Market::new(
            ResourceSpace::new(caps.to_vec()).unwrap(),
            vec![
                Player::new(
                    "a",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.8, 0.2], &caps).unwrap()),
                ),
                Player::new(
                    "b",
                    100.0,
                    Arc::new(SeparableUtility::proportional(&[0.3, 0.7], &caps).unwrap()),
                ),
            ],
        )
        .unwrap()
    }

    /// Held by every test that runs a ladder, so the one that switches
    /// telemetry on sees only its own events.
    static LADDER: Mutex<()> = Mutex::new(());

    fn ladder() -> MutexGuard<'static, ()> {
        LADDER.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The dense solve of `m` at equal budgets, as `solve_with_retry`
    /// takes it.
    fn dense(m: &Market) -> impl FnMut(&EquilibriumOptions) -> Result<EquilibriumOutcome> + '_ {
        move |o| m.equilibrium_with_budgets(&[100.0, 100.0], o)
    }

    fn opts_with(deadline: DeadlineBudget) -> EquilibriumOptions {
        EquilibriumOptions {
            deadline,
            ..EquilibriumOptions::default()
        }
    }

    #[test]
    fn unbounded_budget_never_expires() {
        let mut clock = DeadlineBudget::UNBOUNDED.start();
        assert!(!clock.charge(1_000_000));
        assert!(!clock.expired());
        assert!(clock.elapsed().is_none(), "no wall clock armed");
    }

    #[test]
    fn iteration_budget_is_exact() {
        let mut clock = DeadlineBudget::iterations(3).unwrap().start();
        assert!(!clock.charge(1));
        assert!(!clock.charge(1));
        assert!(clock.charge(1), "third iteration exhausts the budget");
        assert_eq!(clock.iterations(), 3);
    }

    #[test]
    fn zero_budgets_are_rejected_at_construction() {
        // Regression: zero used to build a budget that could never admit
        // an iteration; now both axes validate at construction.
        for result in [
            DeadlineBudget::wall_clock_ms(0),
            DeadlineBudget::iterations(0),
            DeadlineBudget::checked(Some(0), Some(5)),
            DeadlineBudget::checked(Some(5), Some(0)),
        ] {
            match result {
                Err(MarketError::InvalidValue { what, value }) => {
                    assert!(what.contains("deadline"), "what: {what}");
                    assert_eq!(value, 0.0);
                }
                other => panic!("expected InvalidValue, got {other:?}"),
            }
        }
    }

    #[test]
    fn checked_constructors_build_valid_budgets() {
        let b = DeadlineBudget::checked(Some(10), Some(8)).unwrap();
        assert_eq!(b.wall_clock, Some(Duration::from_millis(10)));
        assert_eq!(b.max_iterations, Some(8));
        assert_eq!(
            DeadlineBudget::checked(None, None).unwrap(),
            DeadlineBudget::UNBOUNDED
        );
        assert_eq!(
            DeadlineBudget::wall_clock_ms(7).unwrap().wall_clock,
            Some(Duration::from_millis(7))
        );
        assert_eq!(
            DeadlineBudget::iterations(9).unwrap().max_iterations,
            Some(9)
        );
    }

    #[test]
    fn scaling_backs_off_both_axes() {
        let b = DeadlineBudget {
            wall_clock: Some(Duration::from_millis(10)),
            max_iterations: Some(8),
        };
        let s = b.scaled(2.0);
        assert_eq!(s.wall_clock, Some(Duration::from_millis(20)));
        assert_eq!(s.max_iterations, Some(16));
        let u = DeadlineBudget::UNBOUNDED.scaled(4.0);
        assert!(!u.is_bounded());
    }

    #[test]
    fn timed_out_solve_returns_within_budget() {
        let m = market();
        let opts = opts_with(DeadlineBudget::iterations(1).unwrap());
        let out = m.equilibrium(&opts).unwrap();
        assert!(out.report.timed_out, "one iteration cannot converge here");
        assert!(!out.converged());
        assert_eq!(out.iterations, 1, "stopped exactly at the budget");
        // The best-effort iterate is still a real allocation.
        assert!(out
            .allocation
            .is_exhaustive(m.resources().capacities(), 1e-9));
    }

    #[test]
    fn unbounded_deadline_changes_nothing() {
        let m = market();
        let base = m.equilibrium(&EquilibriumOptions::default()).unwrap();
        let opts = opts_with(DeadlineBudget::UNBOUNDED);
        let same = m.equilibrium(&opts).unwrap();
        assert_eq!(base.iterations, same.iterations);
        for (a, b) in base.prices.iter().zip(&same.prices) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn retry_ladder_recovers_from_starved_first_attempt() {
        let _ladder = ladder();
        let m = market();
        // First attempt gets 1 iteration; back-off doubles it each rung.
        let opts = opts_with(DeadlineBudget::iterations(1).unwrap());
        let policy = RetryPolicy {
            max_attempts: 6,
            backoff: 4.0,
            ..RetryPolicy::default()
        };
        let (out, report) = solve_with_retry(&opts, Some(&policy), dense(&m)).unwrap();
        assert!(report.attempts > 1, "first rung must time out");
        assert!(report.timed_out_attempts >= 1);
        assert!(report.converged, "a later rung converges: {report:?}");
        assert!(out.converged());

        // The same ladder drives a sparse first-order solve.
        let sparse = SynthSpec::new(60, 8, 11).generate().unwrap();
        let sparse_opts = EquilibriumOptions {
            deadline: DeadlineBudget::iterations(1).unwrap(),
            ..EquilibriumOptions::large_scale()
        };
        let sparse_policy = RetryPolicy {
            max_attempts: 2,
            backoff: 10_000.0,
            ..RetryPolicy::default()
        };
        let (out, report) =
            solve_with_retry(&sparse_opts, Some(&sparse_policy), |o| sparse.solve(o)).unwrap();
        assert_eq!(report.attempts, 2, "first sparse rung must time out");
        assert_eq!(report.timed_out_attempts, 1);
        assert!(report.converged && out.converged(), "{report:?}");

        // No policy: one plain solve, bit-identical to calling the engine
        // directly, with no `retry_attempt` event.
        let dir = std::env::temp_dir().join(format!("rebudget-ladder-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let journal = &telemetry::global().journal;
        journal.open(&trace).unwrap();
        telemetry::set_enabled(true);
        let run = solve_with_retry(&opts, None, dense(&m));
        telemetry::set_enabled(false);
        journal.finish().unwrap();
        let (out, report) = run.unwrap();
        let text = std::fs::read_to_string(&trace).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(text.contains("\"solve_end\""), "the solve was traced");
        assert!(
            !text.contains("\"retry_attempt\""),
            "a plain solve records no retry_attempt"
        );
        let plain = m.equilibrium_with_budgets(&[100.0, 100.0], &opts).unwrap();
        assert_eq!(
            report,
            RetryReport {
                attempts: 1,
                timed_out_attempts: 1,
                converged: false,
            }
        );
        assert_eq!(out.report, plain.report);
        for (x, y) in out.prices.iter().zip(&plain.prices) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn clean_solve_takes_one_attempt() {
        let _ladder = ladder();
        let m = market();
        let opts = EquilibriumOptions::default();
        let policy = RetryPolicy::default();
        let (out, report) = solve_with_retry(&opts, Some(&policy), dense(&m)).unwrap();
        assert_eq!(report.attempts, 1);
        assert_eq!(report.retries(), 0);
        assert_eq!(report.timed_out_attempts, 0);
        assert!(out.converged());
    }

    #[test]
    fn exhausted_ladder_returns_best_effort() {
        let _ladder = ladder();
        let m = market();
        let opts = opts_with(DeadlineBudget::iterations(1).unwrap());
        // No back-off: every rung is starved.
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff: 1.0,
            ..RetryPolicy::default()
        };
        let (out, report) = solve_with_retry(&opts, Some(&policy), dense(&m)).unwrap();
        assert_eq!(report.attempts, 3);
        assert_eq!(report.timed_out_attempts, 3);
        assert!(!report.converged);
        assert!(out
            .allocation
            .is_exhaustive(m.resources().capacities(), 1e-9));
    }

    #[test]
    fn ladder_is_deterministic_with_iteration_budgets() {
        let _ladder = ladder();
        let m = market();
        let opts = opts_with(DeadlineBudget::iterations(2).unwrap());
        let policy = RetryPolicy::with_attempts(4);
        let run = || solve_with_retry(&opts, Some(&policy), dense(&m)).unwrap();
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(ra, rb);
        for (x, y) in a.prices.iter().zip(&b.prices) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
