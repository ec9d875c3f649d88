//! The shared engine behind the first-order solvers.
//!
//! Proportional response and mirror descent over sparse bids
//! ([`SparseMarket::solve`]) and the dense reference in [`crate::fisher`]
//! are all multiplicative-weights dynamics with the same outer loop:
//! iterate "players respond to the current per-good money, money is
//! re-totalled" until the relative excess demand ([`crate::residual`])
//! drops below the tolerance. This module owns that loop — [`drive`] — so
//! residual semantics, deadline accounting, the guardrail set (damping,
//! divergence restart, non-finite sanitization), and the telemetry schema
//! are identical across engines and match the dense Jacobi solver event
//! for event.
//!
//! It also owns the sparse sweep kernel ([`solve_sparse`]): allocation-free
//! in-place updates over the CSR bid values, parallelized over fixed
//! 4096-player blocks with per-block partial column sums reduced serially
//! in block order — so results are bit-identical under every
//! [`crate::ParallelPolicy`], exactly like the dense engine.

use rebudget_telemetry as telemetry;

use crate::equilibrium::{
    push_recovery, EquilibriumOptions, RecoveryAction, SolveReport, DIVERGENCE_FACTOR,
    MAX_RESTARTS, MIN_DAMPING,
};
use crate::par;
use crate::residual::relative_price_gap;
use crate::sparse::{SparseMarket, SparseOutcome, SparseUtilityKind};
use crate::Result;

/// Players per parallel work block. Fixed (independent of the thread
/// count) so the per-block partial sums — and therefore every float in
/// the solve — are a pure function of the market, not of the execution
/// schedule.
pub(crate) const BLOCK_PLAYERS: usize = 4096;

/// What one [`drive`] loop produced: the final bid values, the final
/// per-good money vector, and the usual solve report.
pub(crate) struct FirstOrderRun {
    /// Final bid values, in the same layout the sweep maintained.
    pub(crate) vals: Vec<f64>,
    /// Final per-good money `p̂_j = Σ_i b_ij` (unit price × capacity).
    pub(crate) money: Vec<f64>,
    /// Convergence/guardrail report. The caller appends any
    /// post-processing sanitizations before emitting `solve_end`.
    pub(crate) report: SolveReport,
}

/// Emits the `solve_start` event; every engine, Jacobi included, calls it.
pub(crate) fn emit_solve_start(players: usize, resources: usize) {
    if telemetry::enabled() {
        telemetry::record(
            telemetry::Event::new("solve_start")
                .field_u64("players", players as u64)
                .field_u64("resources", resources as u64),
        );
    }
}

/// Emits the `solve_end` event and updates the `solver.*` metrics; every
/// engine, Jacobi included, calls it.
pub(crate) fn emit_solve_end(report: &SolveReport) {
    if telemetry::enabled() {
        telemetry::record(
            telemetry::Event::new("solve_end")
                .field_u64("iterations", report.iterations)
                .field_bool("converged", report.converged)
                .field_f64("residual", report.residual)
                .field_bool("timed_out", report.timed_out),
        );
        let registry = &telemetry::global().registry;
        registry.counter("solver.solves").incr();
        registry.counter("solver.iterations").add(report.iterations);
        registry
            .counter("solver.recoveries")
            .add(report.recovery.len() as u64);
        if report.timed_out {
            registry.counter("solver.timeouts").incr();
        }
        registry
            .histogram("solver.iterations_per_solve")
            .record(report.iterations);
        registry.gauge("solver.last_residual").set(report.residual);
    }
}

fn unit_prices(money: &[f64], capacities: &[f64]) -> Vec<f64> {
    money.iter().zip(capacities).map(|(p, c)| p / c).collect()
}

/// The first-order outer loop: repeatedly calls `sweep` to update the bid
/// values in place against the current per-good money snapshot, then
/// measures the relative excess demand and applies the shared guardrails.
///
/// `sweep(vals, money, damping, new_money)` must (1) rewrite `vals` as
/// the damped step from the `money` snapshot, (2) fill `new_money` with
/// the per-good sums of the rewritten values using a thread-count-
/// independent accumulation order, and (3) return how many rows it had to
/// sanitize (kept at their previous values because the step went
/// non-finite).
///
/// Guardrail differences from the Jacobi engine, by design:
/// first-order dynamics descend smoothly but can plateau for thousands of
/// iterations, so damping tightens only on a clear regression (residual
/// more than 2× the previous iteration's), not on every non-improving
/// step. Divergence restarts and non-finite handling are identical.
pub(crate) fn drive(
    capacities: &[f64],
    mut vals: Vec<f64>,
    init_money: Vec<f64>,
    options: &EquilibriumOptions,
    mut sweep: impl FnMut(&mut [f64], &[f64], f64, &mut [f64]) -> u64,
) -> FirstOrderRun {
    let m = capacities.len();
    let mut money = init_money;
    let mut new_money = vec![0.0; m];
    let mut iterations: u64 = 0;
    let mut converged = false;
    let mut timed_out = false;
    let mut residual = f64::INFINITY;
    let mut prev_residual = f64::INFINITY;
    let mut best_vals = vals.clone();
    let mut best_money = money.clone();
    let mut best_residual = f64::INFINITY;
    let mut damping = 1.0_f64;
    let mut restarts = 0usize;
    let mut recovery: Vec<RecoveryAction> = Vec::new();
    let mut clock = options.deadline.start();

    while iterations < options.max_iterations as u64 {
        iterations += 1;
        // Deadline accounting mirrors the dense engine: charge up front,
        // apply the verdict after the sweep so at least one iteration
        // always runs and a final-iteration convergence still counts.
        let deadline_hit = clock.charge(1);
        let sanitized = sweep(&mut vals, &money, damping, &mut new_money);
        if sanitized > 0 {
            // One event per iteration (not per row): a poisoned market at
            // 10⁶ players must not grow an unbounded recovery trace.
            push_recovery(
                &mut recovery,
                RecoveryAction::NonFiniteSanitized {
                    iteration: iterations,
                    what: "bid row",
                },
            );
        }
        let fluctuation = relative_price_gap(&money, &new_money);
        std::mem::swap(&mut money, &mut new_money);
        residual = fluctuation;
        if telemetry::enabled() {
            telemetry::record(
                telemetry::Event::new("solver_iteration")
                    .field_u64("iteration", iterations)
                    .field_f64("residual", fluctuation)
                    .field_f64s("prices", &unit_prices(&money, capacities)),
            );
        }
        if fluctuation <= options.price_tolerance {
            converged = true;
            break;
        }
        if deadline_hit || clock.expired() {
            timed_out = true;
            break;
        }
        let diverged = !fluctuation.is_finite()
            || fluctuation > DIVERGENCE_FACTOR * best_residual.max(options.price_tolerance);
        if diverged && restarts < MAX_RESTARTS && best_residual.is_finite() {
            restarts += 1;
            vals.clone_from(&best_vals);
            money.clone_from(&best_money);
            damping = (damping * 0.5).max(MIN_DAMPING);
            push_recovery(
                &mut recovery,
                RecoveryAction::RestartedFromStable {
                    iteration: iterations,
                },
            );
            prev_residual = f64::INFINITY;
            continue;
        }
        if fluctuation > prev_residual * 2.0 && damping > MIN_DAMPING {
            damping = (damping * 0.5).max(MIN_DAMPING);
            push_recovery(
                &mut recovery,
                RecoveryAction::OscillationDamped {
                    iteration: iterations,
                    damping,
                },
            );
        }
        // Snapshot the fallback iterate only on a 2× improvement: cloning
        // the full bid vector every iteration would dominate the sweep at
        // 10⁶ players (the residual improves monotonically on smooth
        // markets). The snapshot therefore lags the true best by at most
        // 2×, which only shifts the divergence-restart threshold and the
        // non-converged fallback slightly — never a converged result.
        if fluctuation.is_finite() && fluctuation < best_residual * 0.5 {
            best_residual = fluctuation;
            best_vals.clone_from(&vals);
            best_money.clone_from(&money);
        }
        prev_residual = fluctuation;
    }

    // Non-converged fail-safe: hand back the lowest-residual stable
    // iterate, exactly like the dense engine.
    if !converged && best_residual < residual {
        vals.clone_from(&best_vals);
        money.clone_from(&best_money);
        residual = best_residual;
    }

    FirstOrderRun {
        vals,
        money,
        report: SolveReport {
            converged,
            iterations,
            residual,
            recovery,
            timed_out,
        },
    }
}

/// One entry's multiplicative step weight, specialised at compile time
/// to one utility family and to γ = 1 or not. The next bid row is
/// `B_i · w_ij / Σ_j w_ij`:
///
/// * linear (`LEONTIEF = false`), `w = b · (v·C/p̂)^γ` — at γ = 1 this is
///   proportional response (`w` is the utility the entry currently
///   earns); smaller γ is the entropic-mirror-descent damped step. Fixed
///   point: the bang-per-buck `v_j·C_j/p̂_j` is equal across the support
///   — the Eisenberg–Gale first-order condition.
/// * Leontief, `w = b^(1−γ) · (a·p̂/C)^γ` — fixed point `b ∝ a_j·p_j`,
///   the Leontief equilibrium spending profile.
///
/// `UNIT` is γ = 1, which drops the `powf` calls. Each arm is the f64
/// expression the generic step (kept in the tests as
/// `reference_step_weight`) evaluates for that case, in the same order,
/// so results are bit-identical to it.
///
/// `ratio` is the per-good factor precomputed by [`good_ratios`] — it
/// carries the division (`C/p̂` or `p̂/C`), so the per-entry hot path is
/// multiply-only. A good nobody funds (`p̂ ≤ 0`) has ratio 0 and gets
/// weight 0: with no money on it the good is free and earns no spend.
/// Multiplicative updates keep funded entries strictly positive, so this
/// only triggers for structurally unfunded goods (all interested players
/// broke).
#[inline(always)]
fn step_weight<const LEONTIEF: bool, const UNIT: bool>(
    gamma: f64,
    bid: f64,
    weight: f64,
    ratio: f64,
) -> f64 {
    let q = weight * ratio;
    match (LEONTIEF, UNIT) {
        (false, true) => bid * q,
        (false, false) => bid * q.powf(gamma),
        (true, true) => q,
        (true, false) => bid.powf(1.0 - gamma) * q.powf(gamma),
    }
}

/// Per-good step factor for [`step_weight`], computed once per iteration
/// (`m` divisions instead of `nnz`): linear `C_j/p̂_j`, Leontief `p̂_j/C_j`;
/// 0 for an unfunded good either way.
fn good_ratios(kind: SparseUtilityKind, capacities: &[f64], money: &[f64], out: &mut [f64]) {
    for ((r, &c), &p) in out.iter_mut().zip(capacities).zip(money) {
        *r = if p > 0.0 {
            match kind {
                SparseUtilityKind::Linear => c / p,
                SparseUtilityKind::Leontief => p / c,
            }
        } else {
            0.0
        };
    }
}

/// Each block's rows in the order the step pass visits them: a stable
/// counting sort of the block's rows by length, cut into runs of one
/// length. Built once per solve. Random interest counts make a row's
/// entry loop stop after a trip count the CPU cannot predict; within a
/// run every row has the same length, so the loops of the short widths
/// are fixed-size and fully unrolled.
struct RowGroups {
    /// Block-local row indices (`i − b·BLOCK_PLAYERS`), block after
    /// block, ascending in length and in id order within a length.
    order: Vec<u32>,
    /// The runs of one length, block after block in ascending length.
    /// Rows without entries have nothing to step and get no run.
    runs: Vec<RowRun>,
    /// `run_ptr[b]..run_ptr[b + 1]` are block `b`'s runs.
    run_ptr: Vec<usize>,
}

/// `order[start..end]` are one block's rows of `len` entries.
struct RowRun {
    len: usize,
    start: usize,
    end: usize,
}

impl RowGroups {
    fn new(row_ptr: &[usize]) -> Self {
        let n = row_ptr.len() - 1;
        let mut order = vec![0u32; n];
        let mut runs = Vec::new();
        let mut run_ptr = vec![0];
        let mut count = Vec::new();
        for p_lo in (0..n).step_by(BLOCK_PLAYERS) {
            let rows = &row_ptr[p_lo..=(p_lo + BLOCK_PLAYERS).min(n)];
            let lens = || rows.windows(2).map(|w| w[1] - w[0]);
            // Counting sort: `count[len]` becomes the first slot of the
            // rows of that length, then advances as they are placed.
            count.clear();
            count.resize(lens().max().unwrap_or(0) + 1, 0);
            for len in lens() {
                count[len] += 1;
            }
            let mut start = p_lo;
            for (len, slot) in count.iter_mut().enumerate() {
                let end = start + *slot;
                if len > 0 && end > start {
                    runs.push(RowRun { len, start, end });
                }
                *slot = start;
                start = end;
            }
            for (r, len) in lens().enumerate() {
                // A block holds BLOCK_PLAYERS rows, so `r` fits in u32.
                order[count[len]] = r as u32;
                count[len] += 1;
            }
            run_ptr.push(runs.len());
        }
        Self {
            order,
            runs,
            run_ptr,
        }
    }
}

/// The read-only inputs of one sweep, shared by every block.
struct SweepInputs<'a> {
    row_ptr: &'a [usize],
    cols: &'a [u32],
    weights: &'a [f64],
    budgets: &'a [f64],
    groups: &'a RowGroups,
    /// This sweep's [`good_ratios`].
    ratios: &'a [f64],
    gamma: f64,
    damping: f64,
}

/// One block's body of a sweep, specialised by [`step_weight`]'s flags.
type BlockBody = fn(&SweepInputs<'_>, usize, &mut [f64], &mut [f64]);

/// Steps the block's rows `rows` (block-local indices, all of
/// `steps.len()` entries) in place and returns how many it had to keep
/// because their step total was not finite. `band` holds the block's
/// CSR bid values, `band[0]` being entry `base`.
///
/// Per row, each entry's step weight from the old row goes into `steps`
/// and is totalled left to right; the row becomes `scale · weight`
/// (damped if `damping < 1`). A row whose total is not finite is kept
/// and counted; one whose total is not positive (zero budget, or every
/// good unfunded) is kept silently.
///
/// Inlined into [`step_run`], where `steps` is an array, so every entry
/// loop has a trip count known at compile time.
#[inline(always)]
fn step_rows<const LEONTIEF: bool, const UNIT: bool>(
    s: &SweepInputs<'_>,
    p_lo: usize,
    base: usize,
    rows: &[u32],
    band: &mut [f64],
    steps: &mut [f64],
) -> u64 {
    let len = steps.len();
    let keep = 1.0 - s.damping;
    let mut sanitized = 0;
    for &r in rows {
        let i = p_lo + r as usize;
        let lo = s.row_ptr[i];
        let row = &mut band[lo - base..lo - base + len];
        let row_cols = &s.cols[lo..lo + len];
        let row_weights = &s.weights[lo..lo + len];
        let mut w_sum = 0.0;
        for (((step, &bid), &c), &w) in steps
            .iter_mut()
            .zip(row.iter())
            .zip(row_cols)
            .zip(row_weights)
        {
            *step = step_weight::<LEONTIEF, UNIT>(s.gamma, bid, w, s.ratios[c as usize]);
            w_sum += *step;
        }
        if !(w_sum.is_finite() && w_sum > 0.0) {
            // Keep the old row; it still carries money.
            sanitized += u64::from(!w_sum.is_finite());
            continue;
        }
        let scale = s.budgets[i] / w_sum;
        if s.damping < 1.0 {
            for (bid, &step) in row.iter_mut().zip(steps.iter()) {
                *bid = keep * *bid + s.damping * (scale * step);
            }
        } else {
            for (bid, &step) in row.iter_mut().zip(steps.iter()) {
                *bid = scale * step;
            }
        }
    }
    sanitized
}

/// [`step_rows`] for one run of rows of exactly `L` entries.
fn step_run<const LEONTIEF: bool, const UNIT: bool, const L: usize>(
    s: &SweepInputs<'_>,
    p_lo: usize,
    base: usize,
    rows: &[u32],
    band: &mut [f64],
) -> u64 {
    step_rows::<LEONTIEF, UNIT>(s, p_lo, base, rows, band, &mut [0.0; L])
}

/// Sweeps the players of block `b`. `band` holds their CSR bid values and
/// `aux` is the block's scratch: `m` partial column sums, the sanitized
/// row count, then room for one long row's step weights.
///
/// The step pass visits the block's rows grouped by length
/// ([`RowGroups`]): runs of 1–8 entries go through a body specialised to
/// that width, longer ones through the slice body. The column-sum pass
/// then adds every value of the block into its partial sums in storage
/// order — the same f64 additions in the same order as a row-by-row
/// sweep, so the sums are bit-identical to one.
fn sweep_block<const LEONTIEF: bool, const UNIT: bool>(
    s: &SweepInputs<'_>,
    b: usize,
    band: &mut [f64],
    aux: &mut [f64],
) {
    let m = s.ratios.len();
    let (sums, rest) = aux.split_at_mut(m);
    let (sanitized, steps) = rest.split_at_mut(1);
    let p_lo = b * BLOCK_PLAYERS;
    let base = s.row_ptr[p_lo];
    let groups = s.groups;
    let mut kept = 0;
    for run in &groups.runs[groups.run_ptr[b]..groups.run_ptr[b + 1]] {
        let rows = &groups.order[run.start..run.end];
        kept += match run.len {
            1 => step_run::<LEONTIEF, UNIT, 1>(s, p_lo, base, rows, band),
            2 => step_run::<LEONTIEF, UNIT, 2>(s, p_lo, base, rows, band),
            3 => step_run::<LEONTIEF, UNIT, 3>(s, p_lo, base, rows, band),
            4 => step_run::<LEONTIEF, UNIT, 4>(s, p_lo, base, rows, band),
            5 => step_run::<LEONTIEF, UNIT, 5>(s, p_lo, base, rows, band),
            6 => step_run::<LEONTIEF, UNIT, 6>(s, p_lo, base, rows, band),
            7 => step_run::<LEONTIEF, UNIT, 7>(s, p_lo, base, rows, band),
            8 => step_run::<LEONTIEF, UNIT, 8>(s, p_lo, base, rows, band),
            len => step_rows::<LEONTIEF, UNIT>(s, p_lo, base, rows, band, &mut steps[..len]),
        };
    }
    sanitized[0] = kept as f64;
    sums.fill(0.0);
    for (&bid, &c) in band.iter().zip(&s.cols[base..base + band.len()]) {
        sums[c as usize] += bid;
    }
}

/// The sparse sweep kernel: one market's CSR structure, its fixed
/// player blocks, their rows grouped by length and their reused scratch.
struct Kernel<'a> {
    market: &'a SparseMarket,
    gamma: f64,
    body: BlockBody,
    /// `block_ptr[b]` is the CSR value offset where block `b` begins.
    block_ptr: Vec<usize>,
    groups: RowGroups,
    /// Per-block scratch, `stride` values each (see [`sweep_block`]).
    aux: Vec<f64>,
    stride: usize,
    /// Per-good step factors, recomputed serially each sweep (m
    /// divisions) and shared read-only by every block.
    ratios: Vec<f64>,
    threads: usize,
}

impl<'a> Kernel<'a> {
    fn new(market: &'a SparseMarket, gamma: f64, parallel: crate::ParallelPolicy) -> Self {
        let (n, m) = (market.players(), market.resources());
        let row_ptr = market.interests().row_ptr();
        let blocks = n.div_ceil(BLOCK_PLAYERS);
        let block_ptr: Vec<usize> = (0..=blocks)
            .map(|b| row_ptr[(b * BLOCK_PLAYERS).min(n)])
            .collect();
        let longest = row_ptr.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let stride = m + 1 + longest;
        // The arm is chosen once per solve, so the entry loops carry no
        // per-entry `match` on the utility family or γ.
        let body: BlockBody = match (market.kind(), gamma == 1.0) {
            (SparseUtilityKind::Linear, true) => sweep_block::<false, true>,
            (SparseUtilityKind::Linear, false) => sweep_block::<false, false>,
            (SparseUtilityKind::Leontief, true) => sweep_block::<true, true>,
            (SparseUtilityKind::Leontief, false) => sweep_block::<true, false>,
        };
        Self {
            market,
            gamma,
            body,
            block_ptr,
            groups: RowGroups::new(row_ptr),
            aux: vec![0.0; blocks * stride],
            stride,
            ratios: vec![0.0; m],
            // Blocks are coarse work items (thousands of players each),
            // so even a fan-out of 2 amortizes thread cost.
            threads: parallel.resolved_threads_coarse(blocks),
        }
    }

    /// One sweep, as [`drive`] specifies it.
    fn sweep(
        &mut self,
        vals: &mut [f64],
        money: &[f64],
        damping: f64,
        new_money: &mut [f64],
    ) -> u64 {
        let market = self.market;
        let interests = market.interests();
        good_ratios(market.kind(), market.capacities(), money, &mut self.ratios);
        let inputs = SweepInputs {
            row_ptr: interests.row_ptr(),
            cols: interests.cols(),
            weights: interests.vals(),
            budgets: market.budgets(),
            groups: &self.groups,
            ratios: &self.ratios,
            gamma: self.gamma,
            damping,
        };
        let body = self.body;
        par::for_each_block(
            self.threads,
            vals,
            &self.block_ptr,
            &mut self.aux,
            self.stride,
            |b, band, aux| body(&inputs, b, band, aux),
        );
        // Serial reduce in block order: deterministic for any thread
        // count because the blocks themselves are fixed.
        let m = self.ratios.len();
        new_money.fill(0.0);
        let mut sanitized = 0u64;
        for chunk in self.aux.chunks_exact(self.stride) {
            for (sum, &part) in new_money.iter_mut().zip(&chunk[..m]) {
                *sum += part;
            }
            sanitized += chunk[m] as u64;
        }
        sanitized
    }
}

/// Solves a sparse market with the multiplicative dynamics at step `γ`
/// (γ = 1 is proportional response; γ < 1 is mirror descent).
///
/// Per iteration each block makes a step pass over its players' CSR
/// rows, grouped by row length, that writes each row's damped step in
/// place, then a column-sum pass over its values in storage order into
/// the block's partial column sums — `O(nnz)` work, zero allocation, and
/// bit-identical results under every thread count.
pub(crate) fn solve_sparse(
    market: &SparseMarket,
    options: &EquilibriumOptions,
    gamma: f64,
) -> Result<SparseOutcome> {
    let n = market.players();
    let m = market.resources();
    let capacities = market.capacities();
    let budgets = market.budgets();
    let interests = market.interests();
    let row_ptr = interests.row_ptr();
    let cols = interests.cols();
    let weights = interests.vals();
    let kind = market.kind();

    let _solve_span = telemetry::span!("solve");
    emit_solve_start(n, m);

    // Initial bids: each player's budget split equally over its interest
    // set — strictly positive everywhere, which multiplicative updates
    // preserve (a zero bid can never revive, so never start at zero).
    // (A value-proportional warm start was tried and saves ~1 iteration:
    // the cost is the slow geometric tail, not the initial transient.)
    // Warm start: usable seed rows (CSR value layout) replace the equal
    // split, rescaled to each player's current budget. Exact-zero seed
    // entries (underflow in the previous converged run) are lifted to a
    // tiny positive floor — a zero can never revive under the
    // multiplicative step; unusable rows keep the cold start.
    let mut vals = vec![0.0; interests.nnz()];
    let warm = options
        .warm_start
        .as_deref()
        .filter(|warm| warm.bids.len() == vals.len());
    for i in 0..n {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        let seeded = warm.is_some_and(|warm| {
            crate::equilibrium::warm_overlay_multiplicative(
                &mut vals[lo..hi],
                &warm.bids[lo..hi],
                budgets[i],
            )
        });
        if !seeded && hi > lo {
            vals[lo..hi].fill(budgets[i] / (hi - lo) as f64);
        }
    }
    let mut init_money = vec![0.0; m];
    for (&c, &b) in cols.iter().zip(&vals) {
        init_money[c as usize] += b;
    }

    let mut kernel = Kernel::new(market, gamma, options.parallel);
    let mut run = drive(
        capacities,
        vals,
        init_money,
        options,
        |vals, money, damping, new_money| kernel.sweep(vals, money, damping, new_money),
    );

    // Final utilities at the proportional allocation `x_ij = b_ij·C_j/p̂_j`.
    let mut utilities = vec![0.0; n];
    let mut bad_utilities = false;
    for (i, u) in utilities.iter_mut().enumerate() {
        let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
        let mut value = match kind {
            SparseUtilityKind::Linear => 0.0,
            SparseUtilityKind::Leontief => {
                if hi > lo {
                    f64::INFINITY
                } else {
                    0.0
                }
            }
        };
        for k in lo..hi {
            let c = cols[k] as usize;
            let p = run.money[c];
            let x = if p > 0.0 {
                run.vals[k] * capacities[c] / p
            } else {
                0.0
            };
            match kind {
                SparseUtilityKind::Linear => value += weights[k] * x,
                SparseUtilityKind::Leontief => value = value.min(x / weights[k]),
            }
        }
        if !value.is_finite() {
            value = 0.0;
            bad_utilities = true;
        }
        *u = value;
    }
    if bad_utilities {
        push_recovery(
            &mut run.report.recovery,
            RecoveryAction::NonFiniteSanitized {
                iteration: run.report.iterations,
                what: "utility",
            },
        );
    }

    emit_solve_end(&run.report);
    let prices = unit_prices(&run.money, capacities);
    Ok(SparseOutcome {
        bids: interests.with_vals(run.vals),
        prices,
        utilities,
        iterations: run.report.iterations,
        report: run.report,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::sparse::{SparseBids, SynthSpec};
    use crate::{splitmix64, ParallelPolicy, SolverKind};

    /// The unspecialised step weight the kernel replaced: one `match` on
    /// the utility family and one γ = 1 test per entry.
    fn reference_step_weight(
        kind: SparseUtilityKind,
        gamma: f64,
        bid: f64,
        weight: f64,
        ratio: f64,
    ) -> f64 {
        match kind {
            SparseUtilityKind::Linear => {
                let q = weight * ratio;
                if gamma == 1.0 {
                    bid * q
                } else {
                    bid * q.powf(gamma)
                }
            }
            SparseUtilityKind::Leontief => {
                let s = weight * ratio;
                if gamma == 1.0 {
                    s
                } else {
                    bid.powf(1.0 - gamma) * s.powf(gamma)
                }
            }
        }
    }

    /// The generic sweep the specialised kernel replaced, kept as the
    /// reference it must match bit for bit: rows in id order, each
    /// stepped and added into the column sums before the next, per-entry
    /// dispatch, the damping test inside the entry loop, and the step
    /// weight evaluated again in pass 2.
    fn reference_sweep(
        market: &SparseMarket,
        gamma: f64,
        vals: &mut [f64],
        money: &[f64],
        damping: f64,
        new_money: &mut [f64],
    ) -> u64 {
        let (n, m) = (market.players(), market.resources());
        let (row_ptr, cols, weights) = (
            market.interests().row_ptr(),
            market.interests().cols(),
            market.interests().vals(),
        );
        let (budgets, kind) = (market.budgets(), market.kind());
        let blocks = n.div_ceil(BLOCK_PLAYERS);
        let block_ptr: Vec<usize> = (0..=blocks)
            .map(|b| row_ptr[(b * BLOCK_PLAYERS).min(n)])
            .collect();
        let stride = m + 1;
        let mut aux = vec![0.0; blocks * stride];
        let mut ratios = vec![0.0; m];
        good_ratios(kind, market.capacities(), money, &mut ratios);
        let ratios = &ratios;
        par::for_each_block(1, vals, &block_ptr, &mut aux, stride, |b, band, aux| {
            aux.fill(0.0);
            let p_lo = (b * BLOCK_PLAYERS).min(n);
            let p_hi = ((b + 1) * BLOCK_PLAYERS).min(n);
            let base = row_ptr[p_lo];
            for i in p_lo..p_hi {
                let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
                let row = &mut band[lo - base..hi - base];
                let row_cols = &cols[lo..hi];
                let row_weights = &weights[lo..hi];
                let mut w_sum = 0.0;
                for ((&b, &c), &w) in row.iter().zip(row_cols).zip(row_weights) {
                    w_sum += reference_step_weight(kind, gamma, b, w, ratios[c as usize]);
                }
                if !w_sum.is_finite() {
                    aux[m] += 1.0;
                    for (&b, &c) in row.iter().zip(row_cols) {
                        aux[c as usize] += b;
                    }
                    continue;
                }
                if w_sum <= 0.0 {
                    for (&b, &c) in row.iter().zip(row_cols) {
                        aux[c as usize] += b;
                    }
                    continue;
                }
                let scale = budgets[i] / w_sum;
                for ((b, &c), &w) in row.iter_mut().zip(row_cols).zip(row_weights) {
                    let c = c as usize;
                    let target = scale * reference_step_weight(kind, gamma, *b, w, ratios[c]);
                    let next = if damping < 1.0 {
                        (1.0 - damping) * *b + damping * target
                    } else {
                        target
                    };
                    *b = next;
                    aux[c] += next;
                }
            }
        });
        new_money.fill(0.0);
        let mut sanitized = 0u64;
        for chunk in aux.chunks_exact(stride) {
            for (sum, &part) in new_money.iter_mut().zip(chunk) {
                *sum += part;
            }
            sanitized += chunk[m] as u64;
        }
        sanitized
    }

    fn same_bits(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A seeded market of `kind` spanning two blocks, plus three edge
    /// rows: one whose step overflows to a non-finite total (moved to row
    /// 17, inside the first block), one with a zero budget (second to
    /// last) and one interested in all `m ≥ 100` goods (last).
    fn kernel_market(kind: SparseUtilityKind, seed: u64) -> SparseMarket {
        let m = 120;
        let mut spec = SynthSpec::new(BLOCK_PLAYERS + 300, m, seed);
        spec.kind = kind;
        let synth = spec.generate().unwrap();
        let mut rows: Vec<Vec<(usize, f64)>> = (0..synth.players())
            .map(|i| {
                let s = synth.interests();
                s.row_cols(i)
                    .iter()
                    .zip(s.row_vals(i))
                    .map(|(&c, &w)| (c as usize, w))
                    .collect()
            })
            .collect();
        let mut budgets = synth.budgets().to_vec();
        rows.push(vec![(3, f64::MAX), (7, f64::MAX)]);
        budgets.push(f64::MAX);
        rows.push(vec![(0, 1.0), (5, 2.0)]);
        budgets.push(0.0);
        rows.push((0..m).map(|c| (c, 0.2 + (c % 7) as f64 * 0.1)).collect());
        budgets.push(3.0);
        rows.swap(17, synth.players());
        budgets.swap(17, synth.players());
        let interests = SparseBids::from_rows(m, rows).unwrap();
        SparseMarket::new(vec![1.0; m], budgets, interests, kind).unwrap()
    }

    /// Six sweeps of the kernel against [`reference_sweep`] from the equal
    /// split, at damping 1 and 0.5, comparing every `vals` and `money` bit
    /// and the sanitized counts. The market's row 17 overflows to a
    /// non-finite total and its second-to-last player has a zero budget.
    fn assert_kernel_matches_reference(market: &SparseMarket, gamma: f64) {
        for damping in [1.0, 0.5] {
            let what = format!("{:?} γ={gamma} damping={damping}", market.kind());
            let mut kernel = Kernel::new(market, gamma, ParallelPolicy::Threads(2));
            let mut vals = vec![0.0; market.nnz()];
            let row_ptr = market.interests().row_ptr();
            for i in 0..market.players() {
                let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
                vals[lo..hi].fill(market.budgets()[i] / (hi - lo) as f64);
            }
            let mut reference_vals = vals.clone();
            let mut money = market.interests().with_vals(vals.clone()).column_sums();
            let (mut next, mut reference_next) = (money.clone(), money.clone());
            let mut sanitized_total = 0;
            for iteration in 0..6 {
                let sanitized = kernel.sweep(&mut vals, &money, damping, &mut next);
                let reference = reference_sweep(
                    market,
                    gamma,
                    &mut reference_vals,
                    &money,
                    damping,
                    &mut reference_next,
                );
                assert_eq!(sanitized, reference, "{what}, iteration {iteration}");
                assert!(same_bits(&vals, &reference_vals), "{what}: vals");
                assert!(same_bits(&next, &reference_next), "{what}: money");
                sanitized_total += sanitized;
                money.clone_from(&next);
            }
            assert!(sanitized_total > 0, "{what}: the overflowing row is kept");
            let broke = market.players() - 2;
            assert!(vals[row_ptr[broke]..row_ptr[broke + 1]]
                .iter()
                .all(|&v| v == 0.0));
        }
    }

    #[test]
    fn specialised_kernel_matches_the_generic_sweep_bit_for_bit() {
        for kind in [SparseUtilityKind::Linear, SparseUtilityKind::Leontief] {
            for (seed, gamma) in [(3, 1.0), (4, 0.7)] {
                assert_kernel_matches_reference(&kernel_market(kind, seed), gamma);
            }
        }
    }

    /// A seeded market of `kind` over two blocks whose row lengths are
    /// 0–12 in shuffled id order, every length present in every block,
    /// with `kernel_market`'s overflowing row at 17 and a zero-budget
    /// player second to last.
    fn mixed_length_market(kind: SparseUtilityKind, seed: u64) -> SparseMarket {
        let (n, m) = (BLOCK_PLAYERS + 300, 16);
        let hash = |i: usize, salt: u64| splitmix64(seed ^ splitmix64(i as u64) ^ salt);
        let mut rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                let len = (hash(i, 1) % 13) as usize;
                let first = (hash(i, 2) % m as u64) as usize;
                (0..len)
                    .map(|k| {
                        let c = (first + k) % m;
                        (c, 0.1 + (hash(i, 100 + k as u64) % 1_000) as f64 / 100.0)
                    })
                    .collect()
            })
            .collect();
        let mut budgets: Vec<f64> = (0..n)
            .map(|i| 1.0 + (hash(i, 3) % 1_000) as f64 / 10.0)
            .collect();
        rows[17] = vec![(3, f64::MAX), (7, f64::MAX)];
        budgets[17] = f64::MAX;
        rows[n - 2] = vec![(0, 1.0), (5, 2.0)];
        budgets[n - 2] = 0.0;
        let interests = SparseBids::from_rows(m, rows).unwrap();
        SparseMarket::new(vec![1.0; m], budgets, interests, kind).unwrap()
    }

    #[test]
    fn grouped_kernel_matches_the_generic_sweep_on_every_row_length() {
        for kind in [SparseUtilityKind::Linear, SparseUtilityKind::Leontief] {
            for (seed, gamma) in [(5, 1.0), (6, 0.7)] {
                let market = mixed_length_market(kind, seed);
                let row_ptr = market.interests().row_ptr();
                for p_lo in [0, BLOCK_PLAYERS] {
                    let p_hi = (p_lo + BLOCK_PLAYERS).min(market.players());
                    let mut lens: Vec<usize> =
                        (p_lo..p_hi).map(|i| row_ptr[i + 1] - row_ptr[i]).collect();
                    lens.sort_unstable();
                    lens.dedup();
                    assert_eq!(lens, (0..=12).collect::<Vec<_>>(), "block at {p_lo}");
                }
                assert_kernel_matches_reference(&market, gamma);
            }
        }
    }

    #[test]
    fn row_groups_sort_each_block_by_length_then_id() {
        let market = mixed_length_market(SparseUtilityKind::Linear, 5);
        let row_ptr = market.interests().row_ptr();
        let groups = RowGroups::new(row_ptr);
        let n = market.players();
        assert_eq!(groups.run_ptr.len(), n.div_ceil(BLOCK_PLAYERS) + 1);
        for (b, p_lo) in (0..n).step_by(BLOCK_PLAYERS).enumerate() {
            let p_hi = (p_lo + BLOCK_PLAYERS).min(n);
            let len = |r: u32| row_ptr[p_lo + r as usize + 1] - row_ptr[p_lo + r as usize];
            let order = &groups.order[p_lo..p_hi];
            let mut sorted = order.to_vec();
            sorted.sort_unstable();
            assert!(
                sorted.iter().copied().eq(0..(p_hi - p_lo) as u32),
                "block {b}: a permutation of its rows"
            );
            assert!(
                order
                    .windows(2)
                    .all(|w| (len(w[0]), w[0]) < (len(w[1]), w[1])),
                "block {b}: ascending in length, then in id"
            );
            // The runs tile the block's rows that have entries, one run
            // per length.
            let runs = &groups.runs[groups.run_ptr[b]..groups.run_ptr[b + 1]];
            let first = order.iter().take_while(|&&r| len(r) == 0).count();
            let mut at = p_lo + first;
            for run in runs {
                assert_eq!(run.start, at, "block {b}: runs are contiguous");
                assert!(run.end > run.start);
                assert!(groups.order[run.start..run.end]
                    .iter()
                    .all(|&r| len(r) == run.len));
                at = run.end;
            }
            assert_eq!(at, p_hi, "block {b}: the runs reach the block's end");
            assert!(runs.windows(2).all(|w| w[0].len < w[1].len));
        }
    }

    fn tight() -> EquilibriumOptions {
        let mut opts = EquilibriumOptions::large_scale();
        opts.max_iterations = 100_000;
        opts.price_tolerance = 1e-10;
        opts
    }

    fn linear_market(
        capacities: Vec<f64>,
        budgets: Vec<f64>,
        rows: Vec<Vec<(usize, f64)>>,
    ) -> SparseMarket {
        let m = capacities.len();
        let interests = SparseBids::from_rows(m, rows).unwrap();
        SparseMarket::new(capacities, budgets, interests, SparseUtilityKind::Linear).unwrap()
    }

    #[test]
    fn complementary_linear_market_hits_known_equilibrium() {
        // v₁ = (3,1), v₂ = (1,2), B = (1,1), C = (1,1): each player spends
        // everything on its favorite good, so p = (1,1), u₁ = 3, u₂ = 2.
        // (Deliberately asymmetric: on a perfectly symmetric instance the
        // aggregate money vector is stationary while bids still move, so
        // the price residual would stop the solve early.)
        let market = linear_market(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![vec![(0, 3.0), (1, 1.0)], vec![(0, 1.0), (1, 2.0)]],
        );
        let out = solve_sparse(&market, &tight(), 1.0).unwrap();
        assert!(out.converged(), "residual {}", out.report.residual);
        assert!((out.prices[0] - 1.0).abs() < 1e-6, "{:?}", out.prices);
        assert!((out.prices[1] - 1.0).abs() < 1e-6, "{:?}", out.prices);
        assert!((out.utilities[0] - 3.0).abs() < 1e-6, "{:?}", out.utilities);
        assert!((out.utilities[1] - 2.0).abs() < 1e-6, "{:?}", out.utilities);
    }

    #[test]
    fn budgets_set_prices_on_a_single_contested_good() {
        // Both players only want good 0: its price is the total budget and
        // shares are proportional to budgets.
        let market = linear_market(
            vec![1.0, 1.0],
            vec![3.0, 1.0],
            vec![vec![(0, 1.0)], vec![(0, 1.0), (1, 1.0)]],
        );
        let out = solve_sparse(&market, &tight(), 1.0).unwrap();
        assert!(out.converged());
        let alloc0 = out.allocation_of(0);
        assert_eq!(alloc0[0].0, 0);
        // Player 1 splits between the contested good and the free-for-it
        // good 1; player 0's share of good 0 exceeds 3/4 of nothing-else
        // competition... just assert market clearing instead.
        let money: f64 = out.prices.iter().sum::<f64>();
        assert!((money - 4.0).abs() < 1e-6, "prices {:?}", out.prices);
    }

    #[test]
    fn leontief_symmetric_market_splits_evenly() {
        // Identical Leontief players: for them the γ = 1 step depends only
        // on prices (not on own bids), so the symmetric fixed point is
        // reached exactly and the even split is the equilibrium.
        let interests =
            SparseBids::from_rows(2, vec![vec![(0, 1.0), (1, 1.0)], vec![(0, 1.0), (1, 1.0)]])
                .unwrap();
        let market = SparseMarket::new(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            interests,
            SparseUtilityKind::Leontief,
        )
        .unwrap();
        let out = solve_sparse(&market, &tight(), 1.0).unwrap();
        assert!(out.converged());
        for (_, x) in out.allocation_of(0) {
            assert!((x - 0.5).abs() < 1e-6);
        }
        assert!((out.utilities[0] - 0.5).abs() < 1e-6);
        assert!((out.utilities[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn leontief_fixed_point_spends_proportionally_to_prices() {
        // a₁ = (1, 2): at equilibrium b₁ ∝ (p₀, 2·p₁).
        let interests =
            SparseBids::from_rows(2, vec![vec![(0, 1.0), (1, 2.0)], vec![(0, 1.0), (1, 1.0)]])
                .unwrap();
        let market = SparseMarket::new(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            interests,
            SparseUtilityKind::Leontief,
        )
        .unwrap();
        let out = solve_sparse(&market, &tight(), 0.7).unwrap();
        assert!(out.converged());
        let b = out.bids.row_vals(0);
        let expected = [out.prices[0], 2.0 * out.prices[1]];
        let ratio = b[0] / b[1];
        let expected_ratio = expected[0] / expected[1];
        assert!(
            (ratio - expected_ratio).abs() < 1e-5,
            "bids {b:?} vs prices {:?}",
            out.prices
        );
    }

    #[test]
    fn gamma_one_mirror_is_bitwise_proportional_response() {
        let market = SynthSpec::new(200, 8, 11).generate().unwrap();
        let pr = solve_sparse(&market, &tight(), 1.0).unwrap();
        let md = solve_sparse(&market, &tight(), 1.0).unwrap();
        assert_eq!(pr.prices, md.prices);
        assert_eq!(pr.bids, md.bids);
    }

    #[test]
    fn results_are_bit_identical_under_every_policy() {
        // Enough players for several blocks once BLOCK_PLAYERS is exceeded
        // would be slow in a unit test; instead check Serial vs Threads on
        // a market that still spans multiple blocks cheaply via a small
        // block count (n > BLOCK_PLAYERS ⇒ ≥ 2 blocks).
        let market = SynthSpec::new(2 * BLOCK_PLAYERS + 123, 16, 5)
            .generate()
            .unwrap();
        let mut opts = EquilibriumOptions::large_scale();
        opts.max_iterations = 50;
        opts.price_tolerance = 0.0; // run all 50 iterations
        let solve = |policy: ParallelPolicy| {
            let mut o = opts.clone();
            o.parallel = policy;
            solve_sparse(&market, &o, 1.0).unwrap()
        };
        let serial = solve(ParallelPolicy::Serial);
        let threaded = solve(ParallelPolicy::Threads(4));
        let auto = solve(ParallelPolicy::Auto);
        assert!(serial
            .bids
            .vals()
            .iter()
            .zip(threaded.bids.vals())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(serial
            .prices
            .iter()
            .zip(&auto.prices)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert_eq!(serial.report, threaded.report);
    }

    #[test]
    fn deadline_budget_is_honored() {
        let market = SynthSpec::new(500, 8, 2).generate().unwrap();
        let mut opts = EquilibriumOptions::large_scale();
        opts.price_tolerance = 0.0; // unreachable
        opts.deadline = crate::DeadlineBudget {
            wall_clock: None,
            max_iterations: Some(7),
        };
        let out = solve_sparse(&market, &opts, 1.0).unwrap();
        assert!(out.report.timed_out);
        assert!(out.iterations <= 8, "ran {}", out.iterations);
        assert!(out.report.ensure_within_deadline().is_err());
    }

    #[test]
    fn converges_on_a_synthetic_market_to_paper_grade_residual() {
        let market = SynthSpec::new(1000, 16, 1).generate().unwrap();
        let out = market.solve(&EquilibriumOptions::large_scale()).unwrap();
        assert!(out.converged(), "residual {}", out.report.residual);
        assert!(out.report.residual <= 1e-6);
        assert!(out.report.is_clean(), "{:?}", out.report.recovery);
        assert!(out.efficiency() > 0.0);
    }

    #[test]
    fn dispatch_through_solve_matches_direct_call() {
        let market = SynthSpec::new(200, 8, 4).generate().unwrap();
        let opts = EquilibriumOptions::large_scale();
        let direct = solve_sparse(&market, &opts, 1.0).unwrap();
        let dispatched = market.solve(&opts).unwrap();
        assert_eq!(direct.prices, dispatched.prices);
        assert_eq!(direct.iterations, dispatched.iterations);
    }

    #[test]
    fn agrees_with_proportional_response_on_the_equilibrium() {
        let market = SynthSpec::new(400, 8, 21).generate().unwrap();
        let mut opts = EquilibriumOptions::large_scale();
        opts.max_iterations = 100_000;
        opts.price_tolerance = 1e-10;
        let md = market
            .solve(&opts.clone().with_solver(SolverKind::MirrorDescent))
            .unwrap();
        let pr = market.solve(&opts).unwrap();
        assert!(md.converged() && pr.converged());
        for (a, b) in md.prices.iter().zip(&pr.prices) {
            assert!(
                (a - b).abs() / a.max(*b).max(1e-12) < 1e-6,
                "prices diverge: {a} vs {b}"
            );
        }
    }

    #[test]
    fn smaller_steps_take_more_iterations() {
        let market = SynthSpec::new(400, 8, 22).generate().unwrap();
        let mut opts = EquilibriumOptions::large_scale();
        opts.max_iterations = 100_000;
        opts.price_tolerance = 1e-8;
        let fast = solve_sparse(&market, &opts, 1.0).unwrap();
        let slow = solve_sparse(&market, &opts, 0.3).unwrap();
        assert!(fast.converged() && slow.converged());
        assert!(
            slow.iterations > fast.iterations,
            "γ=0.3 took {} vs γ=1 {}",
            slow.iterations,
            fast.iterations
        );
    }

    #[test]
    fn budgets_are_conserved_by_the_update() {
        // Conservation holds at every iterate, so the default large-scale
        // tolerance is enough here.
        let market = SynthSpec::new(300, 12, 9).generate().unwrap();
        let out = solve_sparse(&market, &EquilibriumOptions::large_scale(), 1.0).unwrap();
        for i in 0..market.players() {
            let spent: f64 = out.bids.row_vals(i).iter().sum();
            assert!(
                (spent - market.budgets()[i]).abs() < 1e-9,
                "player {i}: spent {spent} of {}",
                market.budgets()[i]
            );
        }
        // Market clearing: money on each good equals its column sum.
        let sums = out.bids.column_sums();
        for (j, (&p, &c)) in out.prices.iter().zip(market.capacities()).enumerate() {
            assert!(
                (p * c - sums[j]).abs() < 1e-9 * sums[j].max(1.0),
                "good {j}"
            );
        }
    }

    #[test]
    fn sparse_warm_start_converges_in_fewer_iterations() {
        use crate::equilibrium::WarmStart;
        let market = SynthSpec::new(2_000, 32, 17).generate().unwrap();
        let opts = EquilibriumOptions::large_scale();
        let cold = solve_sparse(&market, &opts, 1.0).unwrap();
        assert!(cold.converged());
        let warm_opts = opts
            .clone()
            .with_warm_start(WarmStart::from_sparse(&cold).shared());
        let warm = solve_sparse(&market, &warm_opts, 1.0).unwrap();
        assert!(warm.converged());
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        // And it is deterministic: bit-identical across repeats.
        let again = solve_sparse(&market, &warm_opts, 1.0).unwrap();
        assert_eq!(warm.prices, again.prices);
        assert_eq!(warm.bids, again.bids);
    }

    #[test]
    fn sparse_warm_rows_with_zeros_are_lifted() {
        use crate::equilibrium::WarmStart;
        // A zero entry would be frozen forever by the multiplicative
        // step, so it is lifted to a tiny positive floor rather than
        // discarding the whole row (a converged run underflows most
        // rows' unattractive bids to exact 0.0, and rejecting them all
        // would forfeit the warm start). The seeded solve must still
        // converge to the same equilibrium.
        let market = linear_market(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![vec![(0, 3.0), (1, 1.0)], vec![(0, 1.0), (1, 2.0)]],
        );
        let opts = tight();
        let cold = solve_sparse(&market, &opts, 1.0).unwrap();
        let seeded = opts.clone().with_warm_start(
            WarmStart {
                bids: vec![0.0, 1.0, 0.5, 0.5],
            }
            .shared(),
        );
        let out = solve_sparse(&market, &seeded, 1.0).unwrap();
        assert!(out.converged());
        for (w, c) in out.prices.iter().zip(&cold.prices) {
            assert!((w - c).abs() < 1e-4, "warm {w} vs cold {c}");
        }
    }

    #[test]
    fn sparse_warm_rows_with_negatives_cold_start() {
        use crate::equilibrium::WarmStart;
        // Negative or non-finite seed entries are not liftable: the row
        // falls back to the equal split, which reproduces the cold solve
        // bitwise (player 1's strictly positive seed *is* the equal
        // split here).
        let market = linear_market(
            vec![1.0, 1.0],
            vec![1.0, 1.0],
            vec![vec![(0, 3.0), (1, 1.0)], vec![(0, 1.0), (1, 2.0)]],
        );
        let opts = tight();
        let cold = solve_sparse(&market, &opts, 1.0).unwrap();
        let seeded = opts.clone().with_warm_start(
            WarmStart {
                bids: vec![-0.5, 1.5, 0.5, 0.5],
            }
            .shared(),
        );
        let out = solve_sparse(&market, &seeded, 1.0).unwrap();
        assert_eq!(out.prices, cold.prices);
        assert_eq!(out.bids, cold.bids);
    }

    #[test]
    fn zero_budget_player_keeps_zero_bids() {
        let market = linear_market(
            vec![1.0],
            vec![1.0, 0.0],
            vec![vec![(0, 1.0)], vec![(0, 1.0)]],
        );
        let out = solve_sparse(&market, &tight(), 1.0).unwrap();
        assert!(out.converged());
        assert_eq!(out.bids.row_vals(1), &[0.0]);
        assert!((out.prices[0] - 1.0).abs() < 1e-9);
        assert!(out.report.is_clean());
    }
}
