//! The daemon's durable tick state machine.
//!
//! [`ServerCore`] owns the live player table, the append-only
//! hash-chained ledger, and two snapshot slots. The table is
//! columnar and kept in id order: the ids back to back, then the budgets
//! and the interest CSR as the [`SparseMarket`] the solver takes as it
//! is, then the warm-start bids over the same CSR values with a per-row
//! "has converged bids" flag. [`ServerCore::apply`] only records a
//! command in the tick's pending batch, keyed by id. Each
//! [`ServerCore::tick`] merges that batch into new columns in one
//! sequential pass (span `market`), re-solves the market **warm-started
//! from the previous quantum's bids** (the solver's span `solve`; a
//! converged solve's bids become the next seed whole, a failed one keeps
//! the older seed), appends one ledger record (span `ledger`), and then
//! commits a snapshot written straight from the columns (span
//! `snapshot`) — in that order, which is what makes `kill -9` at any
//! byte recoverable:
//!
//! * killed before the ledger append: the snapshot still says tick `T`
//!   and the ledger holds `T` records — resume re-runs tick `T`.
//! * killed mid-append: the torn tail is cut at the record boundary that
//!   [`durable::LogFormat::read_valid_prefix`] finds, reading the ledger
//!   file straight through the codec's one buffer — same as above.
//! * killed between append and snapshot: the ledger holds `T + 1`
//!   records but the snapshot says `T` — recovery truncates the ledger
//!   back to the snapshot's `T` records and re-runs tick `T`, which is
//!   deterministic (same players, same warm seeds, same options) and so
//!   reproduces the truncated record **byte for byte**.
//! * killed mid-snapshot: the snapshot that says tick `T` is overwritten
//!   in place into slot `T % 2`, then cut to length. A torn slot, or one
//!   left with a longer older snapshot's tail, fails its `[seal]` check,
//!   and the other slot's tick `T - 1` carries recovery, as above.
//! * killed in the first [`ServerCore::open`], before the tick-0
//!   snapshot landed: with no usable slot and a ledger that holds this
//!   configuration's header, recovery starts afresh on it; with no slot
//!   file and a cut of that header (an empty file included), it first
//!   completes the header in place. Any other ledger is refused
//!   unchanged.
//! * killed between the seal and the snapshot removal
//!   ([`ServerCore::seal`]): the ledger is sealed, hence final —
//!   recovery refuses the directory and changes no file.
//!
//! No fsync is needed for these guarantees: a killed *process* loses
//! nothing from the kernel page cache, so `write_all` suffices. (A
//! power-cut story would need fsync; that is out of scope, as it is for
//! every durable format in the workspace.)
//!
//! The snapshot is a schema over `rebudget_sim::durable` (DESIGN.md,
//! "Durable codec"), sealed by `[seal]` and the hash of every byte before
//! its `fnv1a=` line. Recovery streams a slot through
//! [`durable::read_sealed`]'s one fixed read buffer, so the file is never
//! held whole: each line is folded into the seal hash and handed to a
//! per-line state machine over `[config]`, `[state]` and `[player N]`,
//! which resolves each section's keys as they arrive and reads each
//! player's interests and bids straight into the columns, with no
//! allocation per player. Its first fault is reported only once the seal
//! holds. With telemetry on, [`ServerCore::open`] times the spans
//! `recover_ledger` (the prefix scan and the resume) and `recover_slot`
//! (reading, checking and decoding the slots).
//!
//! The ledger is a `rebudget_sim::durable` log ([`LogFile`]), the
//! machinery the scenario ledgers and the simulator's checkpoints share,
//! in the scenario ledger's format, so `rebudget scenario audit` verifies
//! it. The core holds no ledger text: only the chain state, the record
//! count and the append-mode file. Each tick hashes and writes just its own
//! record (O(record)), and recovery is one streaming pass over the file
//! (O(file)) that validates every link and yields the chain state at the
//! truncation point. A record's size does not depend on the player
//! count: the market's budgets and utilities enter it as the paper's
//! two scalars, MBR and MUR, next to one price per good.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Read, Seek, Write};
use std::mem::take;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use rebudget_market::equilibrium::{EquilibriumOptions, WarmStart};
use rebudget_market::{
    metrics, solve_with_retry, RetryPolicy, SolverKind, SparseBids, SparseMarket, SparseOutcome,
    SparseUtilityKind,
};
use rebudget_sim::durable::{
    self, fnv1a_f64_words, fnv1a_joined, Field, Item, Ledger, LogFile, Writer, LEDGER,
};
use rebudget_telemetry as telemetry;

use crate::{ServerError, ServerResult};

const SNAPSHOT_HEADER: &str = "rebudget-server-snapshot v2";
/// The snapshot slots' file names: the snapshot that says tick `T` goes
/// into slot `T % 2`.
const SLOTS: [&str; 2] = ["server.snapshot", "server.snapshot.1"];
/// An older build's snapshot rotation beside slot 0: its older
/// generation, which recovery reads last, and its temp file.
const OLD_ROTATION: [&str; 2] = ["server.snapshot.prev", "server.snapshot.tmp"];
/// Bytes of snapshot text written to the file at a time.
const SNAPSHOT_CHUNK: usize = 64 * 1024;

/// Static configuration of the market the daemon serves.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-resource capacities (fixes the resource count `M`).
    pub capacities: Vec<f64>,
    /// Equilibrium engine for the per-tick solves: a first-order engine,
    /// which solves the sparse player table as it is. `Jacobi`, dense,
    /// is refused.
    pub solver: SolverKind,
    /// Base solve options; the per-tick warm start is installed on top.
    pub options: EquilibriumOptions,
    /// Retry ladder each tick's solve runs under.
    pub retry: RetryPolicy,
    /// Consecutive failed ticks (non-converged after the whole ladder)
    /// before the daemon degrades to `EqualShare` allocations. Recovery
    /// is automatic: the solve is still attempted every tick, and the
    /// first converged one lifts the degradation.
    pub fallback_after: usize,
    /// Seed stamped into the ledger meta (the workload seed when driven
    /// by the seeded generator; purely descriptive).
    pub seed: u64,
    /// Chaos hook: sleep this long between the ledger append and the
    /// snapshot write of every tick, widening the crash window where
    /// the ledger is one record ahead of the snapshot. Zero (the
    /// default) in production; the kill-safety tests set it to make
    /// SIGKILL land inside that window deterministically often.
    pub commit_delay_ms: u64,
}

impl ServerConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`ServerError::Config`] for an empty or non-positive capacity
    /// vector, a zero `fallback_after`, the dense `Jacobi` solver, or a
    /// `solver` that differs from `options.solver` (the ledger would name
    /// one engine while the other ran).
    pub fn validate(&self) -> ServerResult<()> {
        if self.capacities.is_empty() {
            return Err(ServerError::Config {
                reason: "server needs at least one resource".into(),
            });
        }
        if self.capacities.iter().any(|&c| !c.is_finite() || c <= 0.0) {
            return Err(ServerError::Config {
                reason: "every capacity must be finite and positive".into(),
            });
        }
        if self.fallback_after == 0 {
            return Err(ServerError::Config {
                reason: "fallback-after must be at least 1 tick".into(),
            });
        }
        if self.solver == SolverKind::Jacobi {
            return Err(ServerError::Config {
                reason: "the daemon's market is sparse; pick --solver=propresp or \
                         --solver=mirror"
                    .into(),
            });
        }
        if self.solver != self.options.solver {
            return Err(ServerError::Config {
                reason: format!(
                    "solver {} differs from the options' solver {}",
                    self.solver.label(),
                    self.options.solver.label()
                ),
            });
        }
        Ok(())
    }
}

/// A player admitted in the pending batch: a new row, merged unseeded.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    budget: f64,
    /// `(resource, weight)` interests, sorted by resource.
    interests: Vec<(u32, f64)>,
}

/// The live player table as columns, rows in id order (independent of
/// arrival interleaving). Budgets and the interest CSR are the
/// [`SparseMarket`] the solver takes as it is; the warm seed lies over
/// the same CSR values. Admissions collect in a batch keyed by id, which
/// [`Table::merge`] folds into new columns in one sequential pass.
#[derive(Debug, Default)]
struct Table {
    /// Every row's id, back to back; row `i`'s ends at `id_ends[i]`.
    ids: String,
    id_ends: Vec<usize>,
    /// Budgets and interests; `None` with no rows (a market has players).
    market: Option<SparseMarket>,
    /// The next solve's warm seed over the CSR values: a row's bids from
    /// the last converged solve over its current interests if
    /// `seeded[i]`, else the equal split (== the cold start).
    seed: Vec<f64>,
    seeded: Vec<bool>,
    /// Admissions since the last merge; `None` marks a departure.
    pending: BTreeMap<String, Option<Row>>,
    /// Live players with the pending batch applied.
    live: usize,
    /// The columns the last merge replaced, emptied for the next merge
    /// to fill: reusing their memory saves a page fault per 4 KiB.
    spare: Columns,
}

impl Table {
    fn rows(&self) -> usize {
        self.id_ends.len()
    }

    fn id_range(&self, rows: Range<usize>) -> Range<usize> {
        let start = rows.start.checked_sub(1).map_or(0, |i| self.id_ends[i]);
        let end = rows.end.checked_sub(1).map_or(0, |i| self.id_ends[i]);
        start..end
    }

    fn id(&self, i: usize) -> &str {
        &self.ids[self.id_range(i..i + 1)]
    }

    /// `Ok(row)` of `id`, or `Err` of the row it would be inserted at.
    fn find(&self, id: &str) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.rows());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.id(mid).cmp(id) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    fn budgets(&self) -> &[f64] {
        self.market.as_ref().map_or(&[], SparseMarket::budgets)
    }

    /// Row `i`'s interest columns and weights.
    fn interests(&self, i: usize) -> (&[u32], &[f64]) {
        let csr = self.market.as_ref().map(SparseMarket::interests);
        csr.map_or((&[], &[]), |csr| (csr.row_cols(i), csr.row_vals(i)))
    }

    /// Row `i`'s CSR entry range.
    fn entries(&self, i: usize) -> Range<usize> {
        let csr = self.market.as_ref().map(SparseMarket::interests);
        csr.map_or(0..0, |csr| csr.row_ptr()[i]..csr.row_ptr()[i + 1])
    }

    /// Where live player `id`'s row is, the pending batch applied; `None`
    /// if `id` is not live.
    fn live_row(&self, id: &str) -> Option<Live<'_>> {
        match self.pending.get(id) {
            Some(change) => change.as_ref().map(Live::Pending),
            None => self.find(id).ok().map(Live::Committed),
        }
    }

    fn apply(&mut self, req: &crate::proto::Request, resources: u32) -> Result<(), ApplyError> {
        use crate::proto::Request;
        let check_range = |interests: &[(u32, f64)]| {
            interests
                .iter()
                .find(|&&(c, _)| c >= resources)
                .map_or(Ok(()), |&(c, _)| Err(ApplyError::ResourceRange(c)))
        };
        let sorted = |interests: &[(u32, f64)]| {
            let mut interests = interests.to_vec();
            interests.sort_by_key(|&(c, _)| c);
            interests
        };
        match req {
            Request::Arrive {
                id,
                budget,
                interests,
            } => {
                if self.live_row(id).is_some() {
                    return Err(ApplyError::Duplicate(id.clone()));
                }
                check_range(interests)?;
                let row = Row {
                    budget: *budget,
                    interests: sorted(interests),
                };
                self.pending.insert(id.clone(), Some(row));
                self.live += 1;
            }
            Request::Update { id, interests } => {
                check_range(interests)?;
                let interests = sorted(interests);
                // Unchanged interests keep the row, and its warm seed.
                let budget = match self.live_row(id) {
                    None => return Err(ApplyError::Unknown(id.clone())),
                    Some(Live::Pending(row)) if row.interests == interests => return Ok(()),
                    Some(Live::Pending(row)) => row.budget,
                    Some(Live::Committed(i)) => {
                        let (cols, weights) = self.interests(i);
                        let row = cols.iter().copied().zip(weights.iter().copied());
                        if row.eq(interests.iter().copied()) {
                            return Ok(());
                        }
                        self.budgets()[i]
                    }
                };
                // A new row: the warm seed indexes the old interest set.
                self.pending
                    .insert(id.clone(), Some(Row { budget, interests }));
            }
            Request::Depart { id } => {
                if self.live_row(id).is_none() {
                    return Err(ApplyError::Unknown(id.clone()));
                }
                self.pending.insert(id.clone(), None);
                self.live -= 1;
            }
            _ => unreachable!("only admission commands reach apply()"),
        }
        Ok(())
    }

    /// Merges the pending batch into new columns in one pass in id order:
    /// runs of untouched rows are copied whole, a departed row is
    /// skipped, and an arrived or updated row goes in with the equal
    /// split as its seed. On error (a row the market refuses) the table
    /// and its batch are left as they were.
    fn merge(&mut self, capacities: &[f64]) -> ServerResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let mut next = std::mem::take(&mut self.spare);
        next.clear();
        let mut at = 0;
        for (id, change) in &self.pending {
            let (end, resume) = match self.find(id) {
                Ok(i) => (i, i + 1),
                Err(i) => (i, i),
            };
            next.copy(self, at..end);
            at = resume;
            if let Some(row) = change {
                next.push(id, row);
            }
        }
        next.copy(self, at..self.rows());
        let market = next.take_market(capacities)?;
        let mut spare = Columns {
            ids: std::mem::replace(&mut self.ids, next.ids),
            id_ends: std::mem::replace(&mut self.id_ends, next.id_ends),
            seed: std::mem::replace(&mut self.seed, next.seed),
            seeded: std::mem::replace(&mut self.seeded, next.seeded),
            ..Columns::default()
        };
        if let Some(old) = std::mem::replace(&mut self.market, market) {
            let (_, budgets, csr) = old.into_parts();
            (spare.row_ptr, spare.cols, spare.weights) = csr.into_parts();
            spare.budgets = budgets;
        }
        self.spare = spare;
        self.pending.clear();
        Ok(())
    }

    /// The `EqualShare` fallback allocation: every resource is split
    /// evenly among the players interested in it. Returns the row-major
    /// interest-set allocation and per-player linear utilities.
    fn equal_share(&self, capacities: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let Some(market) = &self.market else {
            return (Vec::new(), Vec::new());
        };
        let csr = market.interests();
        let mut interested = vec![0usize; capacities.len()];
        for &c in csr.cols() {
            interested[c as usize] += 1;
        }
        let mut alloc = Vec::with_capacity(csr.nnz());
        let mut utilities = Vec::with_capacity(self.rows());
        for i in 0..self.rows() {
            let mut u = 0.0;
            for (&c, &w) in csr.row_cols(i).iter().zip(csr.row_vals(i)) {
                let share = capacities[c as usize] / interested[c as usize] as f64;
                alloc.push(share);
                u += w * share;
            }
            utilities.push(u);
        }
        (alloc, utilities)
    }
}

/// Where a live player's row is.
enum Live<'a> {
    /// Admitted in the pending batch.
    Pending(&'a Row),
    /// A merged row, untouched by the batch.
    Committed(usize),
}

/// The columns [`Table::merge`] and [`decode_snapshot`] assemble.
#[derive(Debug, Default)]
struct Columns {
    ids: String,
    id_ends: Vec<usize>,
    budgets: Vec<f64>,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    weights: Vec<f64>,
    seed: Vec<f64>,
    seeded: Vec<bool>,
}

impl Columns {
    fn new() -> Self {
        let mut columns = Self::default();
        columns.clear();
        columns
    }

    /// Empties every column, keeping its memory.
    fn clear(&mut self) {
        self.ids.clear();
        self.id_ends.clear();
        self.budgets.clear();
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.cols.clear();
        self.weights.clear();
        self.seed.clear();
        self.seeded.clear();
    }

    /// Appends `table`'s `rows` as they are, seeds included.
    fn copy(&mut self, table: &Table, rows: Range<usize>) {
        if rows.is_empty() {
            return;
        }
        let ids = table.id_range(rows.clone());
        let shift = self.ids.len();
        self.ids.push_str(&table.ids[ids.clone()]);
        let ends = &table.id_ends[rows.clone()];
        self.id_ends
            .extend(ends.iter().map(|&e| e - ids.start + shift));
        self.budgets
            .extend_from_slice(&table.budgets()[rows.clone()]);
        let entries = table.entries(rows.start).start..table.entries(rows.end - 1).end;
        let csr = table.market.as_ref().map(SparseMarket::interests);
        if let Some(csr) = csr {
            let base = self.cols.len();
            let ptrs = &csr.row_ptr()[rows.start + 1..=rows.end];
            self.row_ptr
                .extend(ptrs.iter().map(|&p| p - entries.start + base));
            self.cols.extend_from_slice(&csr.cols()[entries.clone()]);
            self.weights.extend_from_slice(&csr.vals()[entries.clone()]);
        }
        self.seed.extend_from_slice(&table.seed[entries]);
        self.seeded.extend_from_slice(&table.seeded[rows]);
    }

    /// Moves the budgets and interest CSR out into a market over
    /// `capacities`; `None` with no rows (a market has players).
    fn take_market(
        &mut self,
        capacities: &[f64],
    ) -> Result<Option<SparseMarket>, rebudget_market::MarketError> {
        if self.id_ends.is_empty() {
            return Ok(None);
        }
        let (row_ptr, cols, weights) = (
            take(&mut self.row_ptr),
            take(&mut self.cols),
            take(&mut self.weights),
        );
        let csr = SparseBids::from_csr(capacities.len(), row_ptr, cols, weights)?;
        let budgets = take(&mut self.budgets);
        SparseMarket::new(capacities.to_vec(), budgets, csr, SparseUtilityKind::Linear).map(Some)
    }

    /// The id of the last row.
    fn last_id(&self) -> Option<&str> {
        let rows = self.id_ends.len();
        let start = rows.checked_sub(2).map_or(0, |i| self.id_ends[i]);
        rows.checked_sub(1)
            .map(|i| &self.ids[start..self.id_ends[i]])
    }

    /// Reserves room for `rows` more rows as far as memory allows: a
    /// count no allocation can hold is left to the row count check.
    fn reserve_rows(&mut self, rows: usize) {
        let _ = self.id_ends.try_reserve(rows);
        let _ = self.budgets.try_reserve(rows);
        let _ = self.row_ptr.try_reserve(rows);
        let _ = self.seeded.try_reserve(rows);
    }

    /// Appends a new, unseeded row.
    fn push(&mut self, id: &str, row: &Row) {
        self.ids.push_str(id);
        self.id_ends.push(self.ids.len());
        self.budgets.push(row.budget);
        let k = row.interests.len() as f64;
        for &(c, w) in &row.interests {
            self.cols.push(c);
            self.weights.push(w);
            self.seed.push(row.budget / k);
        }
        self.row_ptr.push(self.cols.len());
        self.seeded.push(false);
    }
}

/// What one tick did, for the response line and telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct TickReport {
    /// The tick index just committed.
    pub tick: u64,
    /// Live players at solve time.
    pub players: usize,
    /// Admission commands applied in this tick's batch.
    pub admitted: usize,
    /// Whether the solve converged within its retry ladder.
    pub converged: bool,
    /// Whether the enforced allocation fell back to `EqualShare`.
    pub fallback: bool,
    /// Solver iterations of the final attempt (0 for an empty market).
    pub iterations: u64,
    /// Final residual (0 for an empty market).
    pub residual: f64,
    /// System efficiency of the enforced allocation.
    pub efficiency: f64,
}

/// An admission command's typed rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// `arrive` with an id that is already live.
    Duplicate(String),
    /// `depart`/`update` naming no live player.
    Unknown(String),
    /// An interest names a resource index `>= M`.
    ResourceRange(u32),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::Duplicate(id) => write!(f, "player '{id}' is already live"),
            ApplyError::Unknown(id) => write!(f, "no live player '{id}'"),
            ApplyError::ResourceRange(c) => write!(f, "resource index {c} out of range"),
        }
    }
}

/// The durable tick state machine. See the module docs for the commit
/// ordering that makes it kill-safe.
#[derive(Debug)]
pub struct ServerCore {
    config: ServerConfig,
    /// Live players, rows in id order.
    table: Table,
    /// Next tick to run (ticks `0..tick` are committed).
    tick: u64,
    consecutive_failures: usize,
    degraded: bool,
    /// The ledger, written record by record.
    ledger: LogFile,
    /// The paths of [`SLOTS`].
    slots: [PathBuf; 2],
}

impl ServerCore {
    /// Opens the daemon state under `state_dir`: recovers the ledger
    /// (`server.ledger`) from the newest usable snapshot slot
    /// (`server.snapshot`, `server.snapshot.1`). With neither file there,
    /// it starts a new ledger and writes its header. A directory an older build
    /// left with a snapshot rotation (`server.snapshot` and its `.prev`)
    /// is recovered into the slots.
    ///
    /// # Errors
    ///
    /// [`ServerError::Config`] for invalid configuration,
    /// [`ServerError::Ledger`] for a sealed (final) ledger,
    /// [`ServerError::Snapshot`] when recovery finds no usable snapshot
    /// slot (and the ledger is not this configuration's header, nor a cut
    /// of it with no slot file there), and [`ServerError::Io`] for filesystem trouble.
    pub fn open(config: ServerConfig, state_dir: &Path) -> ServerResult<Self> {
        config.validate()?;
        std::fs::create_dir_all(state_dir)?;
        let ledger_path = state_dir.join("server.ledger");
        let slots = SLOTS.map(|name| state_dir.join(name));
        // A fresh start makes an empty ledger; recovery below finds no
        // slot and writes its header, as after a kill inside that write.
        if !ledger_path.exists() && !slots.iter().any(|slot| slot.exists()) {
            durable::create_new_ledger_file(&ledger_path)?;
        }
        // One streaming pass validates every chain link and records the
        // chain state at each record boundary.
        let ledger_span = telemetry::span!("recover_ledger");
        let prefix = File::open(&ledger_path)
            .and_then(|f| LEDGER.read_valid_prefix(f))
            .map_err(|e| ServerError::Snapshot {
                reason: format!("ledger '{}' is unreadable: {e}", ledger_path.display()),
            })?;
        drop(ledger_span);
        // A sealed ledger is final even with a snapshot left beside it (a
        // kill between the seal and the snapshot removal): refuse it
        // before any file changes.
        if prefix.sealed {
            return Err(ServerError::Ledger(durable::Error::Exists {
                path: ledger_path.display().to_string(),
            }));
        }
        // With `R` valid records the newest snapshot says tick `R`, in
        // slot `R % 2`; a kill before or inside its write leaves the other
        // slot's `R - 1`. A tick ahead of the ledger is refused. A
        // directory written before the slots may hold its older snapshot
        // in `server.snapshot.prev` instead.
        let slot_span = telemetry::span!("recover_slot");
        let old_prev = state_dir.join(OLD_ROTATION[0]);
        let mut failures: Vec<String> = Vec::new();
        let mut load = |path: &Path| {
            File::open(path)
                .map_err(|e| e.to_string())
                .and_then(|file| {
                    decode_snapshot(file, &config, prefix.records).map_err(|e| e.to_string())
                })
                .map_err(|e| failures.push(format!("{}: {e}", path.display())))
                .ok()
                .map(|snap| (path == slots[(snap.tick % 2) as usize], snap))
        };
        let found = match load(&slots[prefix.records % 2]) {
            Some(found) if found.1.tick == prefix.records as u64 => Some(found),
            newest => {
                let other = load(&slots[(prefix.records + 1) % 2]);
                let old = old_prev.exists().then(|| load(&old_prev)).flatten();
                [newest, other, old]
                    .into_iter()
                    .flatten()
                    .max_by_key(|(_, snap)| snap.tick)
            }
        };
        drop(slot_span);
        let (in_place, snap, prefix) = match found {
            Some((in_place, snap)) => (in_place, snap, prefix),
            None => {
                // No usable slot. A ledger that is exactly this config's
                // header goes on from it: a kill before the tick-0 snapshot
                // landed. A cut of the header (empty included) is completed
                // first, but only with no slot file there: a fresh start, or
                // a kill inside the header write, which comes before any
                // slot write. A slot beside a cut header is state that a
                // reset would lose.
                let header = Ledger::new(LEDGER, |w| write_meta(&config, w));
                let header = header.text().as_bytes();
                let mut ledger = std::fs::OpenOptions::new()
                    .read(true)
                    .append(true)
                    .open(&ledger_path)?;
                let mut head = Vec::new();
                (&ledger)
                    .take(header.len() as u64 + 1)
                    .read_to_end(&mut head)?;
                let no_slot = !slots.iter().chain([&old_prev]).any(|path| path.exists());
                if head != header && !(no_slot && header.starts_with(&head)) {
                    let torn = if head.starts_with(header) {
                        ""
                    } else {
                        "; the ledger has no complete header for this configuration"
                    };
                    return Err(ServerError::Snapshot {
                        reason: format!("no usable snapshot slot: {}{torn}", failures.join("; ")),
                    });
                }
                ledger.write_all(&header[head.len()..])?;
                (false, Decoded::default(), LEDGER.valid_prefix(header))
            }
        };
        // Truncate the ledger to exactly the snapshot's records: drops
        // both torn tails and whole records from a crash that landed
        // between the ledger append and the snapshot write. The dropped
        // tick re-runs deterministically.
        let ledger_span = telemetry::span!("recover_ledger");
        let ledger = LogFile::resume(&ledger_path, LEDGER, &prefix, snap.tick as usize)?;
        drop(ledger_span);
        let core = Self {
            config,
            table: snap.table,
            tick: snap.tick,
            consecutive_failures: snap.failures,
            degraded: snap.degraded,
            ledger,
            slots,
        };
        // Slot `tick % 2` must hold the snapshot before the next tick
        // overwrites the other; then an older build's rotation can go.
        if !in_place {
            core.write_snapshot()?;
        }
        for name in OLD_ROTATION {
            let _ = std::fs::remove_file(state_dir.join(name));
        }
        Ok(core)
    }

    /// The next tick to run (ticks `0..tick()` are committed).
    pub fn tick_index(&self) -> u64 {
        self.tick
    }

    /// Live player count, this tick's admissions included.
    pub fn players(&self) -> usize {
        self.table.live
    }

    /// Whether the daemon is currently degraded to `EqualShare`.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Ledger records committed so far (equals [`Self::tick_index`]).
    pub fn records(&self) -> usize {
        self.ledger.records()
    }

    /// Applies one admission command (arrive / update / depart) to this
    /// tick's batch.
    ///
    /// # Errors
    ///
    /// [`ApplyError`] naming the rejection; the player table is
    /// unchanged on error.
    pub fn apply(&mut self, req: &crate::proto::Request) -> Result<(), ApplyError> {
        self.table.apply(req, self.config.capacities.len() as u32)
    }

    /// Runs one market quantum: merge the batch, solve (warm-started),
    /// append the ledger record, commit the snapshot. `admitted` is the
    /// size of this tick's admission batch, recorded in the ledger.
    ///
    /// With telemetry on, the stages are timed as the spans `market`,
    /// `solve` (the solver's own), `ledger` and `snapshot`, siblings
    /// under whatever span the caller holds.
    ///
    /// # Errors
    ///
    /// [`ServerError::Market`] for a degenerate market the admission
    /// validation failed to catch, [`ServerError::Io`] for ledger or
    /// snapshot write failures. Non-convergence is **not** an error —
    /// it feeds the degradation counter.
    pub fn tick(&mut self, admitted: usize) -> ServerResult<TickReport> {
        {
            let _span = telemetry::span!("market");
            self.table.merge(&self.config.capacities)?;
        }
        // Commit point 1: the ledger record (crash before/inside this
        // write re-runs the tick from the previous snapshot).
        let report = self.record(admitted)?;
        self.tick += 1;
        if self.config.commit_delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                self.config.commit_delay_ms,
            ));
        }
        // Commit point 2: the snapshot (crash between the two replays
        // this tick deterministically and reproduces the record bytes).
        let _span = telemetry::span!("snapshot");
        self.write_snapshot()?;
        Ok(report)
    }

    /// Solves the merged market and appends and writes its ledger
    /// record.
    fn record(&mut self, admitted: usize) -> ServerResult<TickReport> {
        let n = self.table.rows();
        let outcome = match &self.table.market {
            None => None,
            Some(market) => Some(solve(&self.config, market, &mut self.table.seed)?),
        };
        let converged = outcome.as_ref().is_none_or(|(_, converged)| *converged);
        // Degradation bookkeeping: K consecutive failed ticks flip to
        // EqualShare; the first converged tick flips back.
        if n > 0 {
            if converged {
                self.consecutive_failures = 0;
                self.degraded = false;
            } else {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.fallback_after {
                    self.degraded = true;
                }
            }
        }
        let fallback = self.degraded && n > 0;
        let _span = telemetry::span!("ledger");
        // The allocation digest is folded straight from its bytes, as
        // `f64_words` would write it: the `EqualShare` split, or
        // `x_ij = b_ij / p_j` (zero where the price is zero).
        let equal_share = fallback.then(|| self.table.equal_share(&self.config.capacities));
        let (alloc_fnv, utilities): (u64, &[f64]) = match (&equal_share, &outcome) {
            (Some((alloc, utilities)), _) => (fnv1a_f64_words(alloc.iter().copied()), utilities),
            (None, Some((out, _))) => {
                let alloc = out.bids.vals().iter().zip(out.bids.cols()).map(|(&b, &c)| {
                    let p = out.prices[c as usize];
                    if p > 0.0 {
                        b / p
                    } else {
                        0.0
                    }
                });
                (fnv1a_f64_words(alloc), &out.utilities)
            }
            (None, None) => (fnv1a_f64_words([]), &[]),
        };
        let efficiency: f64 = utilities.iter().sum();
        let (iterations, residual) = outcome
            .as_ref()
            .map_or((0, 0.0), |(out, _)| (out.iterations, out.report.residual));
        let report = TickReport {
            tick: self.tick,
            players: n,
            admitted,
            converged,
            fallback,
            iterations,
            residual,
            efficiency,
        };
        let table = &self.table;
        // The ids joined by `;`, folded without joining them.
        let ids_fnv = fnv1a_joined((0..n).map(|i| table.id(i)), ";");
        // The paper's two market scalars (Definitions 5-6) stand for the
        // budgets and utilities at O(1) bytes. λ_i = u_i / B_i is each
        // player's marginal utility of money at a linear price-taking
        // equilibrium.
        let budgets = table.budgets();
        let mbr = metrics::mbr(budgets.iter().copied());
        let mur = metrics::mur(
            utilities
                .iter()
                .zip(budgets)
                .filter(|&(_, &b)| b > 0.0)
                .map(|(&u, &b)| u / b),
        );
        let m = self.config.capacities.len();
        let prices = outcome
            .as_ref()
            .map_or_else(|| vec![0.0; m], |(out, _)| out.prices.clone());
        self.ledger.append(self.tick as usize, |w| {
            w.kv("players", n);
            w.kv("admitted", admitted);
            w.bool("converged", converged);
            w.bool("fallback", fallback);
            w.kv("iterations", iterations);
            w.hex("ids_fnv", ids_fnv);
            w.f64("mbr", mbr);
            w.f64("mur", mur);
            w.f64_list("prices", &prices);
            w.hex("alloc_fnv", alloc_fnv);
            w.f64("eff", efficiency);
        })?;
        // A converged solve's bids are the next tick's seed, moved in
        // whole; a failed one leaves the older seed.
        if let Some((out, true)) = outcome {
            self.table.seed = out.bids.into_parts().2;
            self.table.seeded.fill(true);
        }
        Ok(report)
    }

    /// Seals the ledger and flushes it; called on graceful shutdown.
    /// The snapshot slots are removed afterwards: a sealed ledger
    /// is final, and a later `open` of the same directory will refuse
    /// the collision rather than resume it. A kill between the two steps
    /// leaves a snapshot beside the sealed ledger; `open` refuses that
    /// directory too, because recovery never cuts a seal.
    ///
    /// # Errors
    ///
    /// [`ServerError::Io`] for write failures.
    pub fn seal(&mut self) -> ServerResult<usize> {
        let records = self.ledger.seal()?;
        for slot in &self.slots {
            let _ = std::fs::remove_file(slot);
        }
        Ok(records)
    }

    /// Writes the snapshot into slot `tick % 2` over the older one there,
    /// then cuts the file to its length: no temp file and no rename.
    fn write_snapshot(&self) -> ServerResult<()> {
        let path = &self.slots[(self.tick % 2) as usize];
        std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .and_then(|mut file| {
                self.encode_snapshot(&mut file)?;
                let len = file.stream_position()?;
                file.set_len(len)
            })
            .map_err(|e| ServerError::Snapshot {
                reason: format!("i/o failed for {}: {e}", path.display()),
            })
    }

    /// Streams the snapshot into `out` in chunks of about
    /// [`SNAPSHOT_CHUNK`] bytes, straight from the table's columns: the
    /// text is never held whole, so the buffer stays in cache and off the
    /// tick's peak memory.
    fn encode_snapshot(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let table = &self.table;
        let mut w = Writer::default();
        w.line(SNAPSHOT_HEADER);
        w.section("config");
        w.kv("resources", self.config.capacities.len());
        w.kv("solver", self.config.solver.label());
        w.section("state");
        w.kv("tick", self.tick);
        w.bool("degraded", self.degraded);
        w.kv("failures", self.consecutive_failures);
        w.kv("players", table.rows());
        let budgets = table.budgets();
        for i in 0..table.rows() {
            w.indexed_section("player", i as u64);
            w.str("id", table.id(i));
            w.f64("budget", budgets[i]);
            let (cols, weights) = table.interests(i);
            w.indexed_f64_list(
                "interests",
                cols.iter().zip(weights).map(|(&c, &v)| (u64::from(c), v)),
            );
            if table.seeded[i] {
                w.f64_list("bids", &table.seed[table.entries(i)]);
            }
            if w.held() >= SNAPSHOT_CHUNK {
                w.drain_to(out)?;
            }
        }
        w.seal();
        w.drain_to(out)
    }
}

/// Writes the ledger's meta lines: the scenario ledger's keys. The stream
/// is open-ended, so `quanta` is 0 and the seal carries the real count.
fn write_meta(config: &ServerConfig, w: &mut Writer) {
    w.kv("scenario", "server");
    w.kv("seed", config.seed);
    w.kv("mechanism", config.solver.label());
    w.kv("workload", "online");
    w.kv("cores", 0);
    w.kv("resources", config.capacities.len());
    w.kv("quanta", 0);
    w.f64("budget", 0.0);
}

/// Solves `market` from `seed` under `config`'s options and retry ladder.
/// `seed` is lent to the solver and handed back, so a caller whose solve
/// fails keeps it. Returns the outcome and whether the ladder converged.
fn solve(
    config: &ServerConfig,
    market: &SparseMarket,
    seed: &mut Vec<f64>,
) -> ServerResult<(SparseOutcome, bool)> {
    let warm = Arc::new(WarmStart {
        bids: std::mem::take(seed),
    });
    let options = config
        .options
        .clone()
        .with_warm_start(Some(Arc::clone(&warm)));
    let solved = solve_with_retry(&options, Some(&config.retry), |o| market.solve(o));
    drop(options);
    *seed = Arc::try_unwrap(warm).map_or_else(|warm| warm.bids.clone(), |warm| warm.bids);
    let (out, retry) = solved?;
    Ok((out, retry.converged))
}

#[derive(Debug, Default)]
struct Decoded {
    tick: u64,
    degraded: bool,
    failures: usize,
    table: Table,
}

/// Decodes a snapshot taken under `config` that a ledger holding
/// `records` valid records can resume (its tick may not be ahead), in one
/// streaming pass over `reader` ([`durable::read_sealed`]).
fn decode_snapshot(
    reader: impl Read,
    config: &ServerConfig,
    records: usize,
) -> Result<Decoded, durable::Error> {
    let mut slot = SlotReader {
        open: Open::Other,
        market: None,
        state: None,
        next: Columns::new(),
    };
    durable::read_sealed(reader, |item| slot.take(item))?;
    slot.finish(config, records)
}

fn bad(line: usize, reason: String) -> durable::Error {
    durable::Error::Format { line, reason }
}

/// The snapshot schema as a state machine over its lines. Each section
/// resolves its keys as their lines arrive, refusing a repeated key (and
/// in a player, an unknown one) on its line, and each player goes
/// straight into the columns; [`SlotReader::finish`] makes the checks
/// that need the whole file.
struct SlotReader {
    /// The section the next field belongs to.
    open: Open,
    /// The closed `[config]` and `[state]` sections.
    market: Option<MarketKeys>,
    state: Option<StateKeys>,
    /// The players so far, in file order.
    next: Columns,
}

/// The open section and what it has read so far.
enum Open {
    /// Before the first section, or in one the schema does not read.
    Other,
    Market(MarketKeys),
    State(StateKeys),
    Player(PlayerKeys),
}

/// `[config]`'s keys, opened on line `line`; other keys are ignored.
#[derive(Default)]
struct MarketKeys {
    line: usize,
    resources: Option<usize>,
    solver: Option<String>,
}

/// `[state]`'s keys, opened on line `line`; other keys are ignored.
#[derive(Default)]
struct StateKeys {
    line: usize,
    tick: Option<u64>,
    degraded: Option<bool>,
    failures: Option<usize>,
    players: Option<usize>,
}

/// A `[player N]` section's keys, opened on line `line`: its id, pushed
/// onto the id column as it arrives, its budget, and how many interests
/// and bids it pushed onto their columns.
#[derive(Default)]
struct PlayerKeys {
    line: usize,
    id: Option<()>,
    budget: Option<f64>,
    interests: Option<usize>,
    bids: Option<usize>,
}

/// Files `field`'s value, read by `read`, in `slot`, refusing a key its
/// section already has.
fn once<'a, T>(
    slot: &mut Option<T>,
    field: &Field<'a>,
    read: impl FnOnce(&Field<'a>) -> Result<T, durable::Error>,
) -> Result<(), durable::Error> {
    if slot.is_some() {
        return Err(field.fault("is repeated in its section"));
    }
    *slot = Some(read(field)?);
    Ok(())
}

/// `value`, or the fault of section `name` on `line` missing `key`.
fn required<T>(value: Option<T>, line: usize, name: &str, key: &str) -> Result<T, durable::Error> {
    value.ok_or_else(|| bad(line, format!("section [{name}] is missing key `{key}`")))
}

impl SlotReader {
    fn take(&mut self, item: Item<'_>) -> Result<(), durable::Error> {
        match item {
            Item::Header(header) if header == SNAPSHOT_HEADER.as_bytes() => Ok(()),
            Item::Header(header) => Err(bad(
                1,
                format!(
                    "snapshot header '{}' is not '{SNAPSHOT_HEADER}' (an older state \
                     directory is not resumed)",
                    String::from_utf8_lossy(header)
                ),
            )),
            Item::Section { line, name } => {
                self.close()?;
                let repeated = |name: &str| bad(line, format!("repeated [{name}] section"));
                self.open = match name {
                    b"config" if self.market.is_some() => return Err(repeated("config")),
                    b"state" if self.state.is_some() => return Err(repeated("state")),
                    b"config" => Open::Market(MarketKeys {
                        line,
                        ..MarketKeys::default()
                    }),
                    b"state" => Open::State(StateKeys {
                        line,
                        ..StateKeys::default()
                    }),
                    _ if name.starts_with(b"player ") => Open::Player(PlayerKeys {
                        line,
                        ..PlayerKeys::default()
                    }),
                    _ => Open::Other,
                };
                Ok(())
            }
            Item::Field(field) => match &mut self.open {
                Open::Other => Ok(()),
                Open::Market(market) => match field.key {
                    b"resources" => once(&mut market.resources, &field, Field::parse),
                    b"solver" => once(&mut market.solver, &field, |f| Ok(f.text()?.to_owned())),
                    _ => Ok(()),
                },
                Open::State(state) => match field.key {
                    b"tick" => once(&mut state.tick, &field, Field::parse),
                    b"degraded" => once(&mut state.degraded, &field, Field::bool),
                    b"failures" => once(&mut state.failures, &field, Field::parse),
                    b"players" => once(&mut state.players, &field, Field::parse),
                    _ => Ok(()),
                },
                Open::Player(player) => player.take(&field, &mut self.next),
            },
        }
    }

    /// Files the open section: a player becomes a row, and `[state]`'s
    /// player count reserves the row columns.
    fn close(&mut self) -> Result<(), durable::Error> {
        match std::mem::replace(&mut self.open, Open::Other) {
            Open::Other => {}
            Open::Market(market) => self.market = Some(market),
            Open::State(state) => {
                if let Some(players) = state.players {
                    self.next.reserve_rows(players);
                }
                self.state = Some(state);
            }
            Open::Player(player) => player.close(&mut self.next)?,
        }
        Ok(())
    }

    fn finish(mut self, config: &ServerConfig, records: usize) -> Result<Decoded, durable::Error> {
        self.close()?;
        let missing = |name: &str| bad(0, format!("missing [{name}] section"));
        let market = self.market.ok_or_else(|| missing("config"))?;
        let resources = required(market.resources, market.line, "config", "resources")?;
        let solver = required(market.solver, market.line, "config", "solver")?;
        let (want_resources, want_solver) = (config.capacities.len(), config.solver.label());
        if (resources, solver.as_str()) != (want_resources, want_solver) {
            return Err(bad(
                market.line,
                format!(
                    "snapshot is for {resources} resources and solver '{solver}', \
                     server configured with {want_resources} and '{want_solver}'"
                ),
            ));
        }
        let state = self.state.ok_or_else(|| missing("state"))?;
        let line = state.line;
        let declared = required(state.players, line, "state", "players")?;
        let rows = self.next.id_ends.len();
        if declared != rows {
            let reason = format!("snapshot declares {declared} players, holds {rows}");
            return Err(bad(line, reason));
        }
        let tick = required(state.tick, line, "state", "tick")?;
        if tick > records as u64 {
            let reason = format!("snapshot tick {tick} ahead of ledger ({records} records)");
            return Err(bad(line, reason));
        }
        let degraded = required(state.degraded, line, "state", "degraded")?;
        let failures = required(state.failures, line, "state", "failures")?;
        let mut next = self.next;
        let market = next
            .take_market(&config.capacities)
            .map_err(|e| bad(line, e.to_string()))?;
        Ok(Decoded {
            tick,
            degraded,
            failures,
            table: Table {
                ids: next.ids,
                id_ends: next.id_ends,
                market,
                seed: next.seed,
                seeded: next.seeded,
                pending: BTreeMap::new(),
                live: rows,
                spare: Columns::default(),
            },
        })
    }
}

impl PlayerKeys {
    /// Reads one of the player's fields, its lists straight into `next`.
    fn take(&mut self, field: &Field<'_>, next: &mut Columns) -> Result<(), durable::Error> {
        match field.key {
            b"id" => once(&mut self.id, field, |f| {
                // The writer emits players in id order, so strictly
                // increasing ids also rule out duplicates.
                let id = f.text()?;
                if let Some(prev) = next.last_id().filter(|&prev| id <= prev) {
                    let reason = format!("player '{id}' does not follow '{prev}' in id order");
                    return Err(bad(self.line, reason));
                }
                next.ids.push_str(id);
                Ok(())
            }),
            b"budget" => once(&mut self.budget, field, Field::f64),
            b"interests" => once(&mut self.interests, field, |f| {
                f.indexed_f64_list_into(&mut next.cols, &mut next.weights)
            }),
            b"bids" => once(&mut self.bids, field, |f| f.f64_list_into(&mut next.seed)),
            _ => Err(field.fault("is not a player key")),
        }
    }

    /// Completes the player's row in `next`: an unseeded row's seed is
    /// the equal split of its budget.
    fn close(self, next: &mut Columns) -> Result<(), durable::Error> {
        let line = self.line;
        required(self.id, line, "player", "id")?;
        let budget = required(self.budget, line, "player", "budget")?;
        let k = required(self.interests, line, "player", "interests")?;
        match self.bids {
            Some(bids) if bids != k => {
                let id = &next.ids[next.id_ends.last().copied().unwrap_or(0)..];
                let reason = format!("player '{id}' bids/interests length mismatch");
                return Err(bad(self.line, reason));
            }
            Some(_) => {}
            None => next.seed.extend((0..k).map(|_| budget / k as f64)),
        }
        next.seeded.push(self.bids.is_some());
        next.id_ends.push(next.ids.len());
        next.budgets.push(budget);
        next.row_ptr.push(next.cols.len());
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use rebudget_market::equilibrium::EquilibriumOptions;
    use rebudget_sim::durable::{fnv1a, Field, Section};

    fn config(solver: SolverKind) -> ServerConfig {
        ServerConfig {
            capacities: vec![8.0; 6],
            solver,
            options: EquilibriumOptions::large_scale().with_solver(solver),
            retry: RetryPolicy::default(),
            fallback_after: 2,
            seed: 11,
            commit_delay_ms: 0,
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rebudget-state-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec::small(11, 6)
    }

    /// Whether two tables hold the same rows, seeds and pending batch.
    fn same_rows(a: &Table, b: &Table) -> bool {
        (
            &a.ids, &a.id_ends, &a.market, &a.seed, &a.seeded, &a.pending, a.live,
        ) == (
            &b.ids, &b.id_ends, &b.market, &b.seed, &b.seeded, &b.pending, b.live,
        )
    }

    /// Applies tick `tick`'s workload commands, then commits the tick.
    fn drive(core: &mut ServerCore, tick: u64) -> TickReport {
        drive_with(core, &spec(), tick)
    }

    /// [`drive`] over the workload `spec`.
    fn drive_with(core: &mut ServerCore, spec: &WorkloadSpec, tick: u64) -> TickReport {
        let commands = spec.commands_for_tick(tick);
        for cmd in &commands {
            core.apply(cmd).unwrap();
        }
        core.tick(commands.len()).unwrap()
    }

    /// An uninterrupted `0..ticks` run, sealed; returns the ledger bytes.
    fn reference_ledger(solver: SolverKind, tag: &str, ticks: u64) -> String {
        reference_ledger_with(&spec(), solver, tag, ticks)
    }

    /// [`reference_ledger`] over the workload `spec`.
    fn reference_ledger_with(
        spec: &WorkloadSpec,
        solver: SolverKind,
        tag: &str,
        ticks: u64,
    ) -> String {
        let dir = temp_dir(tag);
        let mut core = ServerCore::open(config(solver), &dir).unwrap();
        for t in 0..ticks {
            drive_with(&mut core, spec, t);
        }
        core.seal().unwrap();
        std::fs::read_to_string(dir.join("server.ledger")).unwrap()
    }

    #[test]
    fn resume_between_ticks_is_byte_identical() {
        for (solver, tag) in [
            (SolverKind::ProportionalResponse, "resume-pr"),
            (SolverKind::MirrorDescent, "resume-md"),
        ] {
            let reference = reference_ledger(solver, &format!("{tag}-ref"), 8);
            let dir = temp_dir(tag);
            let mut core = ServerCore::open(config(solver), &dir).unwrap();
            for t in 0..5 {
                drive(&mut core, t);
            }
            let live_players = core.players();
            // Simulated crash between ticks: drop without sealing.
            drop(core);
            let mut core = ServerCore::open(config(solver), &dir).unwrap();
            assert_eq!(core.tick_index(), 5, "{tag}");
            assert_eq!(core.players(), live_players, "{tag}");
            for t in 5..8 {
                drive(&mut core, t);
            }
            core.seal().unwrap();
            let resumed = std::fs::read_to_string(dir.join("server.ledger")).unwrap();
            assert_eq!(
                resumed, reference,
                "{tag}: resumed ledger must be byte-identical"
            );
        }
    }

    #[test]
    fn torn_ledger_tail_is_cut_and_rerun() {
        let reference = reference_ledger(SolverKind::ProportionalResponse, "torn-ref", 8);
        let dir = temp_dir("torn");
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        for t in 0..5 {
            drive(&mut core, t);
        }
        drop(core);
        // Simulated crash mid-append: a torn, chain-less record tail.
        let ledger_path = dir.join("server.ledger");
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&ledger_path)
            .unwrap();
        file.write_all(b"[quantum 5]\nplayers=999\nadmitt").unwrap();
        drop(file);
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        assert_eq!(core.tick_index(), 5);
        for t in 5..8 {
            drive(&mut core, t);
        }
        core.seal().unwrap();
        let resumed = std::fs::read_to_string(&ledger_path).unwrap();
        assert_eq!(
            resumed, reference,
            "torn tail must be cut and re-run identically"
        );
    }

    #[test]
    fn stale_snapshot_rerun_reproduces_record_bytes() {
        let reference = reference_ledger(SolverKind::ProportionalResponse, "stale-ref", 8);
        let dir = temp_dir("stale");
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        for t in 0..5 {
            drive(&mut core, t);
        }
        // Save slot 0's tick-4 snapshot, commit tick 5 (its snapshot
        // says tick 6, in slot 0), then put tick 4 back: a kill between
        // the append and the snapshot write, with the ledger one record
        // ahead of slot 1's tick 5.
        let slot = dir.join("server.snapshot");
        let stale = std::fs::read_to_string(&slot).unwrap();
        drive(&mut core, 5);
        drop(core);
        std::fs::write(&slot, &stale).unwrap();
        // Recovery must truncate the ledger back to 5 records and the
        // re-run of tick 5 must reproduce the dropped record exactly.
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        assert_eq!(core.tick_index(), 5);
        for t in 5..8 {
            drive(&mut core, t);
        }
        core.seal().unwrap();
        let resumed = std::fs::read_to_string(dir.join("server.ledger")).unwrap();
        assert_eq!(
            resumed, reference,
            "re-run of the un-snapshotted tick must reproduce its record bytes"
        );
    }

    #[test]
    fn corrupt_snapshot_falls_back_to_prev_generation() {
        let reference = reference_ledger(SolverKind::ProportionalResponse, "prev-ref", 8);
        let dir = temp_dir("prev");
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        for t in 0..5 {
            drive(&mut core, t);
        }
        drop(core);
        // Simulated crash mid-snapshot-write: slot 1's tick 5 is
        // garbage, so slot 0's tick 4 must carry recovery.
        let slot = dir.join("server.snapshot.1");
        std::fs::write(&slot, "rebudget-server-snapshot v1\ngarbage\n").unwrap();
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        assert_eq!(core.tick_index(), 4);
        for t in 4..8 {
            drive(&mut core, t);
        }
        core.seal().unwrap();
        let resumed = std::fs::read_to_string(dir.join("server.ledger")).unwrap();
        assert_eq!(
            resumed, reference,
            "recovery from the older slot must stay byte-identical"
        );
    }

    /// The file names in `dir`, sorted.
    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn slots_alternate_by_tick_parity() {
        let dir = temp_dir("slots");
        let cfg = config(SolverKind::ProportionalResponse);
        let slot_tick = |tick: u64| {
            let text = std::fs::read_to_string(dir.join(SLOTS[(tick % 2) as usize])).unwrap();
            decode_snapshot(text.as_bytes(), &cfg, usize::MAX)
                .unwrap()
                .tick
        };
        let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
        assert_eq!(slot_tick(0), 0);
        assert_eq!(file_names(&dir), ["server.ledger", SLOTS[0]]);
        // Snapshots shrink, so each slot must be cut to its new length.
        for t in 0..6 {
            drive_with(&mut core, &shrinking(), t);
            assert_eq!(slot_tick(t + 1), t + 1);
            assert_eq!(file_names(&dir), ["server.ledger", SLOTS[0], SLOTS[1]]);
        }
        core.seal().unwrap();
        assert_eq!(file_names(&dir), ["server.ledger"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A workload with no arrivals after tick 0, so each snapshot is
    /// shorter than the one two ticks before it once players depart.
    fn shrinking() -> WorkloadSpec {
        WorkloadSpec {
            initial_players: 40,
            arrivals_per_tick: 0,
            mean_lifetime: 4,
            ..spec()
        }
    }

    /// The sealed ledger of an uninterrupted [`shrinking`] run of ticks
    /// `0..8`.
    fn shrinking_reference(tag: &str) -> String {
        reference_ledger_with(&shrinking(), SolverKind::ProportionalResponse, tag, 8)
    }

    /// Ticks `0..6` of the [`shrinking`] workload in a new state
    /// directory, dropped without a seal: slot 0 holds tick 6 and slot 1
    /// tick 5. Returns the directory and every snapshot the run wrote, by
    /// the tick it says.
    fn six_ticks(tag: &str) -> (PathBuf, Vec<Vec<u8>>) {
        let dir = temp_dir(tag);
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        let read = |tick: u64| std::fs::read(dir.join(SLOTS[(tick % 2) as usize])).unwrap();
        let mut snapshots = vec![read(0)];
        for t in 0..6 {
            drive_with(&mut core, &shrinking(), t);
            snapshots.push(read(t + 1));
        }
        (dir, snapshots)
    }

    /// Slot 0 of a [`six_ticks`] directory overwritten with `bytes` (a
    /// kill inside the tick-6 snapshot write): recovery must resume at
    /// slot 1's tick 5, and the run on to a sealed tick 8 must write
    /// `reference` byte for byte.
    fn resumes_from_slot_one(tag: &str, bytes: &[u8], reference: &str) {
        let (dir, _) = six_ticks(tag);
        std::fs::write(dir.join(SLOTS[0]), bytes).unwrap();
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        assert_eq!(core.tick_index(), 5, "{tag}");
        for t in 5..8 {
            drive_with(&mut core, &shrinking(), t);
        }
        core.seal().unwrap();
        let resumed = std::fs::read_to_string(dir.join("server.ledger")).unwrap();
        assert_eq!(resumed, reference, "{tag}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_newest_slot_recovers_from_the_other() {
        let reference = shrinking_reference("torn-slot-ref");
        let (dir, snapshots) = six_ticks("torn-slot-probe");
        let _ = std::fs::remove_dir_all(&dir);
        // The tick-6 write, cut short, over slot 0's longer tick-4 bytes
        // or over nothing.
        let (new, old) = (&snapshots[6], &snapshots[4]);
        assert!(old.len() > new.len(), "the tick-4 snapshot must be longer");
        let text = std::str::from_utf8(new).unwrap();
        let cuts = [
            ("header", 10),
            ("player", text.find("[player 1]").unwrap() + 5),
            ("seal", text.rfind("fnv1a=").unwrap() + 8),
            ("newline", new.len() - 1),
        ];
        for (what, cut) in cuts {
            let over_old = [&new[..cut], old.get(cut..).unwrap_or_default()].concat();
            resumes_from_slot_one(&format!("torn-slot-{what}"), &over_old, &reference);
            resumes_from_slot_one(&format!("cut-slot-{what}"), &new[..cut], &reference);
        }
    }

    #[test]
    fn stale_tail_in_newest_slot_recovers_from_the_other() {
        let reference = shrinking_reference("stale-tail-ref");
        let (dir, snapshots) = six_ticks("stale-tail-probe");
        let _ = std::fs::remove_dir_all(&dir);
        // The whole tick-6 snapshot over slot 0's longer tick-4 one,
        // killed before the cut to length: the older one's tail, its
        // seal included, follows the new seal.
        let (new, old) = (&snapshots[6], &snapshots[4]);
        assert!(old.len() > new.len(), "the tick-4 snapshot must be longer");
        let stale = [&new[..], &old[new.len()..]].concat();
        resumes_from_slot_one("stale-tail", &stale, &reference);
    }

    #[test]
    fn kill_inside_the_first_open_resumes_on_the_ledger_header() {
        let reference = reference_ledger(SolverKind::ProportionalResponse, "first-open-ref", 8);
        // A kill after the ledger's header and before or inside the
        // tick-0 snapshot write: no usable slot, no record.
        for (tag, torn) in [("first-open-none", None), ("first-open-torn", Some(20))] {
            let dir = temp_dir(tag);
            drop(ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap());
            let slot = dir.join(SLOTS[0]);
            match torn {
                None => std::fs::remove_file(&slot).unwrap(),
                Some(cut) => std::fs::write(&slot, &std::fs::read(&slot).unwrap()[..cut]).unwrap(),
            }
            // A header written for another market is refused unchanged.
            let before = contents(&dir);
            let mut other = config(SolverKind::ProportionalResponse);
            other.capacities.push(8.0);
            let err = ServerCore::open(other, &dir).unwrap_err();
            assert!(matches!(err, ServerError::Snapshot { .. }), "{tag}: {err}");
            assert_eq!(contents(&dir), before, "{tag}");
            // This market's header starts the directory afresh.
            let mut core =
                ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
            assert_eq!(core.tick_index(), 0, "{tag}");
            for t in 0..8 {
                drive(&mut core, t);
            }
            core.seal().unwrap();
            let resumed = std::fs::read_to_string(dir.join("server.ledger")).unwrap();
            assert_eq!(resumed, reference, "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Every file in `dir` with its bytes, by name.
    fn contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
        file_names(dir)
            .into_iter()
            .map(|name| {
                let bytes = std::fs::read(dir.join(&name)).unwrap();
                (name, bytes)
            })
            .collect()
    }

    #[test]
    fn damaged_first_record_is_refused_unchanged() {
        // Six ticks, then one digit of record 0's chain changed: the
        // ledger keeps its header but no valid record, so both slots are
        // ahead of it. Its records must not be cut back to the header.
        let dir = temp_dir("record-0");
        let cfg = config(SolverKind::ProportionalResponse);
        let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
        for t in 0..6 {
            drive(&mut core, t);
        }
        drop(core);
        let ledger = dir.join("server.ledger");
        let mut bytes = std::fs::read(&ledger).unwrap();
        let at = std::str::from_utf8(&bytes).unwrap().find("chain=").unwrap() + 6;
        bytes[at] = if bytes[at] == b'0' { b'1' } else { b'0' };
        std::fs::write(&ledger, &bytes).unwrap();
        let before = contents(&dir);
        let err = ServerCore::open(cfg, &dir).unwrap_err();
        assert!(matches!(err, ServerError::Snapshot { .. }), "{err}");
        assert_eq!(contents(&dir), before);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_directory_recovers_into_the_slots() {
        let reference = reference_ledger(SolverKind::ProportionalResponse, "rotation-ref", 8);
        // An older build's layouts, made by renaming slots 0 and 1 after
        // `ticks` ticks: at rest on the odd tick 5 (`server.snapshot`
        // tick 5, `.prev` tick 4), and killed between its last two
        // renames (`.prev` tick 5, a whole tick-6 `.tmp`, no
        // `server.snapshot`). Each recovers tick 5 into slot 1.
        let layouts = [
            ("rotation-odd", 5, [OLD_ROTATION[0], SLOTS[0]], &SLOTS[..]),
            (
                "rotation-renamed",
                6,
                [OLD_ROTATION[1], OLD_ROTATION[0]],
                &SLOTS[1..],
            ),
        ];
        for (tag, ticks, names, slots) in layouts {
            let dir = temp_dir(tag);
            let cfg = config(SolverKind::ProportionalResponse);
            let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
            for t in 0..ticks {
                drive(&mut core, t);
            }
            drop(core);
            for (slot, name) in SLOTS.iter().zip(names) {
                std::fs::rename(dir.join(slot), dir.join(name)).unwrap();
            }
            let core = ServerCore::open(cfg.clone(), &dir).unwrap();
            assert_eq!(core.tick_index(), 5, "{tag}");
            let mut expect = vec!["server.ledger"];
            expect.extend(slots);
            assert_eq!(file_names(&dir), expect, "{tag}");
            let slot = std::fs::read_to_string(dir.join(SLOTS[1])).unwrap();
            assert_eq!(
                decode_snapshot(slot.as_bytes(), &cfg, 5).unwrap().tick,
                5,
                "{tag}"
            );
            // A kill inside the next tick's write into slot 0 costs only
            // that tick.
            drop(core);
            std::fs::write(dir.join(SLOTS[0]), "rebudget-server-snapshot v2\n").unwrap();
            let mut core = ServerCore::open(cfg, &dir).unwrap();
            assert_eq!(core.tick_index(), 5, "{tag}");
            for t in 5..8 {
                drive(&mut core, t);
            }
            core.seal().unwrap();
            let resumed = std::fs::read_to_string(dir.join("server.ledger")).unwrap();
            assert_eq!(resumed, reference, "{tag}");
            assert_eq!(file_names(&dir), ["server.ledger"], "{tag}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn sealed_directory_refuses_reopen() {
        let dir = temp_dir("sealed");
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        drive(&mut core, 0);
        core.seal().unwrap();
        drop(core);
        let err = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap_err();
        assert!(
            matches!(err, ServerError::Ledger(_)),
            "sealed ledger must collide, got: {err}"
        );
    }

    #[test]
    fn sealed_ledger_beside_a_snapshot_refuses_reopen() {
        // A kill between the seal and the snapshot removal leaves the
        // pre-seal snapshot next to the sealed ledger.
        let dir = temp_dir("sealed-snapshot");
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        drive(&mut core, 0);
        let snapshot = std::fs::read(dir.join("server.snapshot")).unwrap();
        core.seal().unwrap();
        drop(core);
        std::fs::write(dir.join("server.snapshot"), snapshot).unwrap();
        let sealed = std::fs::read(dir.join("server.ledger")).unwrap();
        let err = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap_err();
        assert!(
            matches!(err, ServerError::Ledger(durable::Error::Exists { .. })),
            "sealed ledger must collide, got: {err}"
        );
        assert_eq!(std::fs::read(dir.join("server.ledger")).unwrap(), sealed);
    }

    #[test]
    fn snapshot_codec_round_trips_and_checksums() {
        let dir = temp_dir("codec");
        let cfg = config(SolverKind::ProportionalResponse);
        let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
        drive(&mut core, 0);
        drive(&mut core, 1);
        let text = std::fs::read_to_string(dir.join("server.snapshot")).unwrap();
        let snap = decode_snapshot(text.as_bytes(), &cfg, usize::MAX).unwrap();
        assert_eq!(snap.tick, 2);
        assert!(same_rows(&snap.table, &core.table));
        assert!(!snap.degraded);
        // Any flipped byte fails the checksum.
        let tampered = text.replacen("budget=", "budget=f", 1);
        let err = decode_snapshot(tampered.as_bytes(), &cfg, usize::MAX)
            .unwrap_err()
            .to_string();
        assert!(err.contains("checksum"), "{err}");
        // A snapshot for a different market shape is refused.
        let mut other = cfg.clone();
        other.capacities.push(8.0);
        let err = decode_snapshot(text.as_bytes(), &other, usize::MAX)
            .unwrap_err()
            .to_string();
        assert!(err.contains("resources"), "{err}");
        // Every truncation and every single-bit flip is an error or
        // decodes to the identical state; none panics.
        let check = |v: &[u8]| {
            if let Ok(decoded) = decode_snapshot(v, &cfg, usize::MAX) {
                assert_eq!(decoded.tick, snap.tick, "{v:?}");
                assert!(same_rows(&decoded.table, &snap.table), "{v:?}");
            }
        };
        for cut in 0..text.len() {
            check(&text.as_bytes()[..cut]);
        }
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] ^= 1 << bit;
                check(&bytes);
            }
        }
    }

    /// `text` with its body edited by `edit` and the seal recomputed, so
    /// only the schema (not the checksum) can reject it.
    fn reseal(text: &str, edit: impl FnOnce(&mut String)) -> String {
        let at = text.rfind("fnv1a=").unwrap();
        let mut body = text[..at].to_string();
        edit(&mut body);
        let sum = fnv1a(body.as_bytes());
        format!("{body}fnv1a={sum:016x}\n")
    }

    #[test]
    fn decode_rejects_missing_duplicated_and_malformed_fields() {
        let dir = temp_dir("schema");
        let cfg = config(SolverKind::ProportionalResponse);
        let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
        drive(&mut core, 0);
        let text = std::fs::read_to_string(dir.join("server.snapshot.1")).unwrap();
        assert!(decode_snapshot(reseal(&text, |_| {}).as_bytes(), &cfg, usize::MAX).is_ok());
        let drop_line = |key: &'static str| {
            move |body: &mut String| {
                let at = body.find(key).unwrap() + 1;
                let end = at + body[at..].find('\n').unwrap() + 1;
                body.replace_range(at..end, "");
            }
        };
        let cases: Vec<(&str, String)> = vec![
            (
                "player without budget",
                reseal(&text, drop_line("\nbudget=")),
            ),
            (
                "player without interests",
                reseal(&text, drop_line("\ninterests=")),
            ),
            (
                "unknown player key",
                reseal(&text, |b| {
                    *b = b.replacen("\ninterests=", "\nweights=1\ninterests=", 1)
                }),
            ),
            (
                "degraded=7",
                reseal(&text, |b| *b = b.replacen("degraded=0", "degraded=7", 1)),
            ),
            (
                "duplicated tick",
                reseal(&text, |b| {
                    *b = b.replacen("tick=1\n", "tick=1\ntick=0\n", 1)
                }),
            ),
            (
                "two players swapped",
                reseal(&text, |b| {
                    let first = b.find("[player 0]").unwrap();
                    let second = b.find("[player 1]").unwrap();
                    let end = b.find("[player 2]").unwrap();
                    let swapped = format!("{}{}", &b[second..end], &b[first..second]);
                    b.replace_range(first..end, &swapped);
                }),
            ),
        ];
        for (what, bad) in cases {
            assert_ne!(bad, text, "{what}: the edit must apply");
            assert!(
                decode_snapshot(bad.as_bytes(), &cfg, usize::MAX).is_err(),
                "{what} must be rejected"
            );
        }
    }

    /// A state directory after two ticks, and its slot 0: the snapshot
    /// of tick 2, every player seeded.
    fn two_tick_snapshot(tag: &str) -> (ServerCore, PathBuf, String) {
        let dir = temp_dir(tag);
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        drive(&mut core, 0);
        drive(&mut core, 1);
        let text = std::fs::read_to_string(dir.join(SLOTS[0])).unwrap();
        (core, dir, text)
    }

    /// A uniform pick in `0..n` from the seeded stream `state`.
    fn pick(state: &mut u64, n: usize) -> usize {
        *state = rebudget_market::splitmix64(*state);
        (*state % n.max(1) as u64) as usize
    }

    /// One seeded token-level edit of a snapshot body's `lines` (the seal
    /// line last); returns what it did and whether the decoder must
    /// refuse it.
    fn mutate(lines: &mut Vec<String>, seed: u64, resources: usize) -> (&'static str, bool) {
        let mut state = seed;
        let keyed = |lines: &[String], keys: &[&str]| -> Vec<usize> {
            let keyed = |line: &String| keys.iter().any(|k| line.starts_with(k));
            (0..lines.len()).filter(|&i| keyed(&lines[i])).collect()
        };
        let lists = keyed(lines, &["interests=", "bids="]);
        let line = lists[pick(&mut state, lists.len())];
        // The value's space-separated items and where each starts.
        let (key, value) = lines[line].split_once('=').unwrap();
        let at = key.len() + 1;
        let items: Vec<usize> = std::iter::once(at)
            .chain(value.match_indices(' ').map(|(i, _)| at + i + 1))
            .collect();
        let item = items[pick(&mut state, items.len())];
        let interests = key == "interests";
        let digits = item
            + if interests {
                lines[line][item..].find(':').unwrap() + 1
            } else {
                0
            };
        let inner = lines.len() - 1;
        match seed % 10 {
            0 => {
                lines.remove(1 + pick(&mut state, inner - 1));
                ("a dropped line", false)
            }
            1 => {
                // A repeated `[player N]` line opens a player with no keys.
                let at = 1 + pick(&mut state, inner - 1);
                lines.insert(at, lines[at].clone());
                ("a repeated line", true)
            }
            2 => {
                lines[line].remove(digits + pick(&mut state, 16));
                ("a 15-digit word", true)
            }
            3 => {
                lines[line].insert(digits + pick(&mut state, 17), 'a');
                ("a 17-digit word", true)
            }
            4 if items.len() > 1 => {
                lines[line].insert(items[1 + pick(&mut state, items.len() - 1)] - 1, ' ');
                ("a double space", true)
            }
            5 | 6 if interests => {
                let sign = if seed % 10 == 5 { '+' } else { '0' };
                lines[line].insert(item, sign);
                ("a signed or zero-led index", true)
            }
            7 if interests => {
                let index = (resources + pick(&mut state, 3)).to_string();
                lines[line].replace_range(item..digits - 1, &index);
                ("an index past the goods", true)
            }
            8 => {
                let bids = keyed(lines, &["bids="]);
                let line = &mut lines[bids[pick(&mut state, bids.len())]];
                if pick(&mut state, 2) == 0 {
                    let last = line.rfind(' ').unwrap_or(line.len() - 16);
                    line.truncate(last);
                } else {
                    let word = line[line.len() - 16..].to_string();
                    line.push(' ');
                    line.push_str(&word);
                }
                ("a bids list one word off", true)
            }
            _ => {
                let players = keyed(lines, &["[player "]);
                let k = pick(&mut state, players.len() - 1);
                let (first, second) = (players[k], players[k + 1]);
                let end = players.get(k + 2).copied().unwrap_or(inner);
                let moved: Vec<String> = lines.drain(second..end).collect();
                for (i, moved) in moved.into_iter().enumerate() {
                    lines.insert(first + i, moved);
                }
                ("two players swapped", true)
            }
        }
    }

    #[test]
    fn decode_refuses_or_round_trips_token_mutations() {
        let (mut core, dir, text) = two_tick_snapshot("mutations");
        let cfg = core.config.clone();
        let resources = cfg.capacities.len();
        let seal = text.rfind("[seal]\n").unwrap();
        let lines: Vec<String> = text[..seal + 6].lines().map(str::to_string).collect();
        for seed in 0..600 {
            let mut edited = lines.clone();
            let (what, refused) = mutate(&mut edited, seed, resources);
            let body = edited.join("\n") + "\n";
            let mutated = reseal(&text, |b| *b = body);
            assert_ne!(mutated, text, "seed {seed}: {what} must edit the text");
            match decode_snapshot(mutated.as_bytes(), &cfg, usize::MAX) {
                Err(durable::Error::Format { .. }) => {}
                Err(other) => panic!("seed {seed}: {what} failed untyped: {other}"),
                Ok(_) if refused => panic!("seed {seed}: {what} decoded:\n{mutated}"),
                Ok(decoded) => {
                    // The decoded state writes back the very bytes it came from.
                    (core.table, core.tick) = (decoded.table, decoded.tick);
                    (core.degraded, core.consecutive_failures) =
                        (decoded.degraded, decoded.failures);
                    let mut encoded = Vec::new();
                    core.encode_snapshot(&mut encoded).unwrap();
                    assert_eq!(
                        String::from_utf8(encoded).unwrap(),
                        mutated,
                        "seed {seed}: {what}"
                    );
                }
            }
        }
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_flips_and_cuts_fail_the_seal() {
        let (core, dir, text) = two_tick_snapshot("flips");
        let cfg = core.config.clone();
        let header = text.find('\n').unwrap();
        let fails_the_seal =
            |bytes: Vec<u8>, at: usize| match decode_snapshot(&bytes[..], &cfg, usize::MAX) {
                Err(durable::Error::Checksum { .. } | durable::Error::Format { line: 0, .. }) => {}
                Err(durable::Error::Format { line: 1, .. }) if at <= header => {}
                other => panic!("an edit at byte {at} must fail the seal: {other:?}"),
            };
        for seed in 0..400u64 {
            let at = (rebudget_market::splitmix64(seed) % text.len() as u64) as usize;
            let mut flipped = text.as_bytes().to_vec();
            flipped[at] ^= 1 + (rebudget_market::splitmix64(!seed) % 255) as u8;
            fails_the_seal(flipped, at);
            fails_the_seal(text.as_bytes()[..at].to_vec(), at);
        }
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sealed file's body split into its header line and `[name]`
    /// sections by `str` splitting, as the reference reads the grammar.
    struct Document<'a> {
        header: &'a str,
        /// Each section's name, line and `key=value` lines.
        sections: Vec<(&'a str, usize, Vec<Field<'a>>)>,
    }

    impl<'a> Document<'a> {
        fn parse(text: &'a str) -> Result<Self, durable::Error> {
            let mut lines = text.split_terminator('\n');
            let mut doc = Self {
                header: lines.next().unwrap_or_default(),
                sections: Vec::new(),
            };
            for (k, content) in lines.enumerate() {
                let number = k + 2;
                let name = content.strip_prefix('[').and_then(|l| l.strip_suffix(']'));
                match (name, content.split_once('='), doc.sections.last_mut()) {
                    (Some(name), _, _) => doc.sections.push((name, number, Vec::new())),
                    (None, Some((key, value)), Some((_, _, fields))) => fields.push(Field {
                        line: number,
                        key: key.as_bytes(),
                        value: value.as_bytes(),
                    }),
                    _ => return Err(bad(number, format!("bad line `{content}`"))),
                }
            }
            Ok(doc)
        }

        /// Every section, in file order.
        fn sections(&self) -> impl Iterator<Item = Section<'_>> + use<'_, 'a> {
            (self.sections.iter()).map(|(name, line, fields)| Section {
                name,
                line: *line,
                fields,
            })
        }

        /// The one section called `name`.
        fn section(&self, name: &str) -> Result<Section<'_>, durable::Error> {
            let mut found = self.sections().filter(|s| s.name == name);
            match (found.next(), found.next()) {
                (Some(section), None) => Ok(section),
                (_, again) => Err(bad(again.map_or(0, |s| s.line), format!("[{name}]"))),
            }
        }
    }

    /// The whole-text seal check that [`durable::read_sealed`] makes as
    /// it streams.
    fn open_sealed(text: &str) -> Result<Document<'_>, durable::Error> {
        let fault = |line, reason: &str| bad(line, reason.to_string());
        let header = text
            .find('\n')
            .ok_or_else(|| fault(1, "empty or headerless file"))?;
        let tag = "[seal]\n";
        let at = text
            .rfind(tag)
            .filter(|&at| at > header && text.as_bytes()[at - 1] == b'\n')
            .ok_or_else(|| fault(0, "missing [seal] trailer"))?;
        let recorded = text[at + tag.len()..]
            .strip_prefix("fnv1a=")
            .and_then(|digest| durable::parse_hex(digest.strip_suffix('\n')?))
            .ok_or_else(|| fault(0, "[seal] trailer has no fnv1a digest"))?;
        let computed = fnv1a(&text.as_bytes()[..at + tag.len()]);
        if recorded != computed {
            return Err(durable::Error::Checksum {
                expected: recorded,
                found: computed,
            });
        }
        Document::parse(&text[..at])
    }

    /// The decode over the whole text split into a [`Document`], which
    /// the streaming [`decode_snapshot`] replaced: the reference model it
    /// must agree with.
    fn decode_by_document(
        bytes: &[u8],
        config: &ServerConfig,
        records: usize,
    ) -> Result<Decoded, durable::Error> {
        let text = std::str::from_utf8(bytes).map_err(|e| bad(0, e.to_string()))?;
        let doc = open_sealed(text)?;
        if doc.header != SNAPSHOT_HEADER {
            return Err(bad(1, format!("snapshot header '{}'", doc.header)));
        }
        let market = doc.section("config")?;
        let (resources, solver) = (
            market.field("resources")?.parse::<usize>()?,
            market.field("solver")?.text()?,
        );
        if (resources, solver) != (config.capacities.len(), config.solver.label()) {
            return Err(bad(market.line, "another market".into()));
        }
        let state = doc.section("state")?;
        let mut next = Columns::new();
        let mut prev: Option<&str> = None;
        for player in doc.sections().filter(|s| s.name.starts_with("player ")) {
            let fault = |reason: &str| bad(player.line, reason.into());
            let known: [&[u8]; 4] = [b"id", b"budget", b"interests", b"bids"];
            if let Some(unknown) = player.fields.iter().find(|f| !known.contains(&f.key)) {
                return Err(bad(unknown.line, "unknown key".into()));
            }
            let id = player.field("id")?.text()?;
            if prev.is_some_and(|prev| id <= prev) {
                return Err(fault("out of id order"));
            }
            prev = Some(id);
            let budget = player.field("budget")?.f64()?;
            let k = player
                .field("interests")?
                .indexed_f64_list_into(&mut next.cols, &mut next.weights)?;
            let seeded = player.fields.iter().any(|f| f.key == b"bids");
            if seeded {
                if player.field("bids")?.f64_list_into(&mut next.seed)? != k {
                    return Err(fault("bids/interests length mismatch"));
                }
            } else {
                next.seed.extend((0..k).map(|_| budget / k as f64));
            }
            next.seeded.push(seeded);
            next.ids.push_str(id);
            next.id_ends.push(next.ids.len());
            next.budgets.push(budget);
            next.row_ptr.push(next.cols.len());
        }
        let rows = next.id_ends.len();
        if state.field("players")?.parse::<usize>()? != rows {
            return Err(bad(state.line, "player count".into()));
        }
        let tick = state.field("tick")?.parse()?;
        if tick > records as u64 {
            return Err(bad(state.line, "ahead of the ledger".into()));
        }
        let market = next
            .take_market(&config.capacities)
            .map_err(|e| bad(state.line, e.to_string()))?;
        Ok(Decoded {
            tick,
            degraded: state.field("degraded")?.bool()?,
            failures: state.field("failures")?.parse()?,
            table: Table {
                ids: next.ids,
                id_ends: next.id_ends,
                market,
                seed: next.seed,
                seeded: next.seeded,
                pending: BTreeMap::new(),
                live: rows,
                spare: Columns::default(),
            },
        })
    }

    /// Whether two decodes read the same state.
    fn same_state(a: &Decoded, b: &Decoded) -> bool {
        (a.tick, a.degraded, a.failures) == (b.tick, b.degraded, b.failures)
            && same_rows(&a.table, &b.table)
    }

    /// Asserts that the stream decode and the reference decode of `bytes`
    /// reach the same verdict, and the same state when they decode.
    fn assert_decodes_agree(bytes: &[u8], cfg: &ServerConfig, what: &str) {
        let stream = decode_snapshot(bytes, cfg, usize::MAX);
        let reference = decode_by_document(bytes, cfg, usize::MAX);
        match (&stream, &reference) {
            (Ok(a), Ok(b)) => assert!(same_state(a, b), "{what}: the states differ"),
            (Err(_), Err(_)) => {}
            _ => panic!(
                "{what}: stream {:?}, reference {:?}",
                stream.map(|_| ()),
                reference.map(|_| ())
            ),
        }
    }

    #[test]
    fn stream_decode_agrees_with_the_document_decode() {
        // Every golden durable file: the server snapshot decodes under
        // its own market, and both refuse the other formats.
        let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/durable");
        let mut cfg = config(SolverKind::ProportionalResponse);
        cfg.capacities = vec![8.0; 3];
        let mut files = 0;
        for entry in std::fs::read_dir(&golden).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            assert_decodes_agree(&bytes, &cfg, &path.display().to_string());
            files += 1;
        }
        assert!(
            files >= 6,
            "{files} golden files under {}",
            golden.display()
        );
        let snapshot = std::fs::read(golden.join("server.snapshot")).unwrap();
        assert!(decode_snapshot(&snapshot[..], &cfg, usize::MAX).is_ok());
        // Every seed of the token mutations.
        let (core, dir, text) = two_tick_snapshot("agree");
        let cfg = core.config.clone();
        let seal = text.rfind("[seal]\n").unwrap();
        let lines: Vec<String> = text[..seal + 6].lines().map(str::to_string).collect();
        for seed in 0..600 {
            let mut edited = lines.clone();
            let (what, _) = mutate(&mut edited, seed, cfg.capacities.len());
            let body = edited.join("\n") + "\n";
            let mutated = reseal(&text, |b| *b = body);
            assert_decodes_agree(mutated.as_bytes(), &cfg, &format!("seed {seed}: {what}"));
        }
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A reader that hands out at most `step` bytes per `read`.
    struct Chunked<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn decode_is_independent_of_read_sizes() {
        // A slot several read buffers long.
        let dir = temp_dir("read-sizes");
        let spec = WorkloadSpec {
            initial_players: 800,
            ..WorkloadSpec::small(5, 16)
        };
        let mut cfg = config(SolverKind::ProportionalResponse);
        cfg.capacities = vec![8.0; spec.resources];
        let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
        drive_with(&mut core, &spec, 0);
        drive_with(&mut core, &spec, 1);
        let bytes = std::fs::read(dir.join(SLOTS[0])).unwrap();
        assert!(
            bytes.len() > 2 * 64 * 1024,
            "a slot of {} bytes",
            bytes.len()
        );
        let whole = decode_snapshot(&bytes[..], &cfg, usize::MAX).unwrap();
        assert!(same_rows(&whole.table, &core.table));
        for step in [1, 7, 4096, 65_537] {
            let reader = Chunked {
                bytes: &bytes,
                step,
            };
            let chunked = decode_snapshot(reader, &cfg, usize::MAX).unwrap();
            assert!(same_state(&chunked, &whole), "reads of {step} bytes");
        }
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_line_longer_than_the_read_buffer_decodes() {
        let dir = temp_dir("long-id");
        let cfg = config(SolverKind::ProportionalResponse);
        let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
        drive(&mut core, 0);
        let id = "p".repeat(100_000);
        let arrive = crate::proto::Request::Arrive {
            id: id.clone(),
            budget: 2.0,
            interests: vec![(1, 1.0)],
        };
        core.apply(&arrive).unwrap();
        core.tick(1).unwrap();
        let bytes = std::fs::read(dir.join(SLOTS[0])).unwrap();
        let decoded = decode_snapshot(&bytes[..], &cfg, usize::MAX).unwrap();
        assert!(same_rows(&decoded.table, &core.table));
        drop(core);
        let core = ServerCore::open(cfg, &dir).unwrap();
        assert_eq!(core.tick_index(), 2);
        assert!(core.table.find(&id).is_ok());
        drop(core);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// serve-churn's shape (10⁴ players, 64 goods, ~1% churn per tick): a
    /// core dropped unsealed after ticks 2 and 3 reopens, from a ~1.9 MB
    /// slot ~29 read buffers long in each slot file in turn, to the table
    /// it left, and ticks on to a sealed ledger byte-identical to an
    /// uninterrupted run's. Run it with `cargo test --release -p
    /// rebudget-server -- --ignored churn_slot`.
    #[test]
    #[ignore = "large: 10^4 players, run in release"]
    fn churn_slot_reopens_across_many_buffer_refills() {
        const TICKS: u64 = 4;
        let spec = WorkloadSpec {
            seed: 7304,
            initial_players: 10_000,
            resources: 64,
            arrivals_per_tick: 100,
            mean_lifetime: 100,
            update_percent: 1,
        };
        let mut cfg = config(SolverKind::ProportionalResponse);
        cfg.capacities = vec![100.0; spec.resources];
        cfg.options.price_tolerance = 1e-4;
        cfg.fallback_after = 3;
        let run = |tag: &str, reopen_from: Option<u64>| {
            let dir = temp_dir(tag);
            let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
            for tick in 0..TICKS {
                if reopen_from.is_some_and(|from| from <= tick) {
                    let slot = dir.join(SLOTS[(tick % 2) as usize]);
                    let bytes = std::fs::metadata(slot).unwrap().len();
                    assert!(bytes > 24 * 64 * 1024, "a slot of {bytes} bytes");
                    let reopened = ServerCore::open(cfg.clone(), &dir).unwrap();
                    assert_eq!(reopened.tick_index(), tick);
                    assert!(same_rows(&reopened.table, &core.table));
                    core = reopened;
                }
                drive_with(&mut core, &spec, tick);
            }
            core.seal().unwrap();
            let ledger = std::fs::read(dir.join("server.ledger")).unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            ledger
        };
        let whole = run("churn-whole", None);
        assert!(LEDGER.verify(&whole).is_ok());
        assert!(
            run("churn-reopened", Some(2)) == whole,
            "the ledgers differ"
        );
    }

    #[test]
    fn kill_inside_the_ledger_header_starts_afresh() {
        let cfg = config(SolverKind::ProportionalResponse);
        let reference = reference_ledger(SolverKind::ProportionalResponse, "header-cut-ref", 2);
        let header = Ledger::new(LEDGER, |w| write_meta(&cfg, w))
            .text()
            .to_string();
        let dir = temp_dir("header-cut");
        let ledger = dir.join("server.ledger");
        // Empty, or cut anywhere inside its header: a fresh start makes
        // the empty file, then writes the header.
        for cut in 0..header.len() {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&ledger, &header[..cut]).unwrap();
            let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
            assert_eq!(core.tick_index(), 0, "cut at {cut}");
            drive(&mut core, 0);
            drive(&mut core, 1);
            core.seal().unwrap();
            let resumed = std::fs::read_to_string(&ledger).unwrap();
            assert_eq!(resumed, reference, "cut at {cut}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
        // Any other bytes are refused, and every file is left as it was.
        let mut flipped = header.clone().into_bytes();
        flipped[30] ^= 1;
        for other in [
            flipped,
            format!("{}x", &header[..40]).into_bytes(),
            b"garbage\n".to_vec(),
        ] {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&ledger, &other).unwrap();
            let err = ServerCore::open(cfg.clone(), &dir).unwrap_err();
            assert!(matches!(err, ServerError::Snapshot { .. }), "{err}");
            assert!(err.to_string().contains("no complete header"), "{err}");
            assert_eq!(contents(&dir), [("server.ledger".to_string(), other)]);
            std::fs::remove_dir_all(&dir).unwrap();
        }
        // A cut header beside slots at later ticks is outside damage, not
        // a kill: a reset would overwrite the only state left, so it is
        // refused with every file unchanged.
        for cut in [0, header.len() / 2, header.len() - 1] {
            let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
            drive(&mut core, 0);
            drive(&mut core, 1);
            drop(core);
            std::fs::write(&ledger, &header[..cut]).unwrap();
            let before = contents(&dir);
            assert_eq!(before.len(), 3, "the ledger and both slots");
            let err = ServerCore::open(cfg.clone(), &dir).unwrap_err();
            assert!(matches!(err, ServerError::Snapshot { .. }), "{err}");
            assert!(err.to_string().contains("no complete header"), "{err}");
            assert_eq!(contents(&dir), before, "cut at {cut}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Byte length of each record in the ledger file under `dir`.
    fn record_lengths(dir: &Path) -> Vec<usize> {
        let file = File::open(dir.join("server.ledger")).unwrap();
        let prefix = LEDGER.read_valid_prefix(file).unwrap();
        (0..prefix.records)
            .map(|k| prefix.cut(k + 1) - prefix.cut(k))
            .collect()
    }

    #[test]
    fn record_size_is_independent_of_player_count() {
        let largest = |initial_players: usize| {
            let dir = temp_dir(&format!("record-size-{initial_players}"));
            let spec = WorkloadSpec {
                seed: 5,
                initial_players,
                resources: 64,
                arrivals_per_tick: 20,
                mean_lifetime: 20,
                update_percent: 2,
            };
            let mut cfg = config(SolverKind::ProportionalResponse);
            cfg.capacities = vec![100.0; spec.resources];
            cfg.options.price_tolerance = 1e-4;
            let mut core = ServerCore::open(cfg, &dir).unwrap();
            for tick in 0..5 {
                drive_with(&mut core, &spec, tick);
            }
            drop(core);
            let largest = record_lengths(&dir).into_iter().max().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            largest
        };
        let (small, large) = (largest(200), largest(2_000));
        assert!(small.abs_diff(large) <= 64, "{small} vs {large} bytes");
        assert!(small.max(large) <= 2_000, "{small} and {large} bytes");
    }

    #[test]
    fn record_carries_the_markets_mbr_and_mur() {
        use crate::proto::Request;
        let dir = temp_dir("mbr-mur");
        let mut cfg = config(SolverKind::ProportionalResponse);
        cfg.capacities = vec![8.0];
        let mut core = ServerCore::open(cfg, &dir).unwrap();
        for (id, budget, weight) in [("a", 10.0, 1.0), ("b", 30.0, 2.0)] {
            core.apply(&Request::Arrive {
                id: id.into(),
                budget,
                interests: vec![(0, weight)],
            })
            .unwrap();
        }
        assert!(core.tick(2).unwrap().converged);
        drop(core);
        let text = std::fs::read_to_string(dir.join("server.ledger")).unwrap();
        let field = |key: &str| {
            let lines: Vec<f64> = text
                .lines()
                .filter_map(|line| durable::parse_hex(line.strip_prefix(key)?.strip_prefix('=')?))
                .map(f64::from_bits)
                .collect();
            assert_eq!(lines.len(), 1, "one `{key}=` line");
            lines[0]
        };
        // Budgets 10 and 30; at the one price p, λ = weight / p.
        assert_eq!(field("mbr"), 1.0 / 3.0);
        assert!((field("mur") - 0.5).abs() < 1e-12, "{}", field("mur"));
        assert!(!text.contains("budgets="));
    }

    #[test]
    fn v1_state_directory_is_refused_unchanged() {
        let dir = temp_dir("v1");
        let cfg = config(SolverKind::ProportionalResponse);
        let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
        drive(&mut core, 0);
        drive(&mut core, 1);
        drop(core);
        // Both snapshot slots as an older build wrote them.
        for path in [dir.join("server.snapshot"), dir.join("server.snapshot.1")] {
            let text = std::fs::read_to_string(&path).unwrap();
            let old = reseal(&text, |b| {
                *b = b.replacen(SNAPSHOT_HEADER, "rebudget-server-snapshot v1", 1)
            });
            std::fs::write(&path, old).unwrap();
        }
        let files = || {
            let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let bytes = std::fs::read(&path).unwrap();
                    (path, bytes)
                })
                .collect();
            files.sort();
            files
        };
        let before = files();
        let err = ServerCore::open(cfg, &dir).unwrap_err();
        assert!(
            matches!(err, ServerError::Snapshot { .. }),
            "v1 snapshot must be refused, got: {err}"
        );
        assert!(
            err.to_string().contains("rebudget-server-snapshot v1"),
            "{err}"
        );
        assert_eq!(files(), before, "a refused directory keeps its bytes");
    }

    /// A long-uptime run: 10⁵ ticks of the small churn workload. Every
    /// record stays within 5% of the largest of the first 10³ (the record
    /// is O(1) bytes, not O(players) or O(ticks)), reopening resumes at
    /// the last tick, and the sealed ledger verifies. It asserts no
    /// timings: shared CI runners are too noisy for a time bound to mean
    /// anything. Run it with `cargo test --release -p rebudget-server --
    /// --ignored soak`.
    #[test]
    #[ignore = "long: 10^5 ticks, run in release"]
    fn soak_keeps_records_flat_and_recovers() {
        const TICKS: u64 = 100_000;
        let dir = temp_dir("soak");
        let spec = WorkloadSpec::small(17, 16);
        let mut cfg = config(SolverKind::ProportionalResponse);
        cfg.capacities = vec![8.0; spec.resources];
        let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
        for tick in 0..TICKS {
            drive_with(&mut core, &spec, tick);
        }
        drop(core);
        let lengths = record_lengths(&dir);
        assert_eq!(lengths.len() as u64, TICKS);
        let early = *lengths[..1_000].iter().max().unwrap();
        let worst = lengths.iter().copied().max().unwrap();
        assert!(
            worst as f64 <= 1.05 * early as f64,
            "largest record {worst} B against {early} B in the first 10^3 ticks"
        );
        let mut core = ServerCore::open(cfg, &dir).unwrap();
        assert_eq!(core.tick_index(), TICKS);
        core.seal().unwrap();
        drop(core);
        let text = std::fs::read_to_string(dir.join("server.ledger")).unwrap();
        let (sealed, _) = LEDGER.verify(text.as_bytes()).unwrap();
        assert_eq!(sealed.records as u64, TICKS);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn apply_rejections_are_typed() {
        use crate::proto::Request;
        let dir = temp_dir("apply");
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        let arrive = Request::Arrive {
            id: "a".into(),
            budget: 10.0,
            interests: vec![(0, 1.0)],
        };
        core.apply(&arrive).unwrap();
        assert_eq!(
            core.apply(&arrive).unwrap_err(),
            ApplyError::Duplicate("a".into())
        );
        assert_eq!(
            core.apply(&Request::Depart { id: "zz".into() })
                .unwrap_err(),
            ApplyError::Unknown("zz".into())
        );
        assert_eq!(
            core.apply(&Request::Update {
                id: "zz".into(),
                interests: vec![(0, 1.0)],
            })
            .unwrap_err(),
            ApplyError::Unknown("zz".into())
        );
        assert_eq!(
            core.apply(&Request::Arrive {
                id: "b".into(),
                budget: 10.0,
                interests: vec![(99, 1.0)],
            })
            .unwrap_err(),
            ApplyError::ResourceRange(99)
        );
        // Rejected commands leave the table unchanged.
        assert_eq!(core.players(), 1);
    }

    #[test]
    fn degrades_to_equal_share_after_k_failures() {
        use crate::proto::Request;
        let dir = temp_dir("degrade");
        // An impossible tolerance with no retry budget: every solve
        // fails, flipping to EqualShare after fallback_after = 2.
        let mut cfg = config(SolverKind::ProportionalResponse);
        cfg.options.max_iterations = 1;
        cfg.options.price_tolerance = 0.0;
        cfg.retry = RetryPolicy {
            max_attempts: 1,
            tighten: 1.0,
            relax: 1.0,
            backoff: 1.0,
        };
        let mut core = ServerCore::open(cfg.clone(), &dir).unwrap();
        core.apply(&Request::Arrive {
            id: "a".into(),
            budget: 10.0,
            interests: vec![(0, 1.0)],
        })
        .unwrap();
        core.apply(&Request::Arrive {
            id: "b".into(),
            budget: 30.0,
            interests: vec![(0, 1.0), (1, 2.0)],
        })
        .unwrap();
        let r = core.tick(2).unwrap();
        assert!(!r.converged && !r.fallback, "first failure only counts");
        let r = core.tick(0).unwrap();
        assert!(!r.converged && r.fallback, "second failure degrades");
        assert!(core.degraded());
        // EqualShare: resource 0 split between both, resource 1 whole.
        let (alloc, utilities) = core.table.equal_share(&core.config.capacities);
        assert_eq!(alloc, vec![4.0, 4.0, 8.0]);
        assert_eq!(utilities, vec![4.0, 4.0 + 16.0]);
        // Degradation survives a crash/recovery cycle.
        drop(core);
        let core = ServerCore::open(cfg, &dir).unwrap();
        assert!(core.degraded());
    }

    #[test]
    fn empty_market_ticks_commit() {
        let dir = temp_dir("empty");
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        let r = core.tick(0).unwrap();
        assert!(r.converged && !r.fallback);
        assert_eq!(r.players, 0);
        assert_eq!(core.records(), 1);
        drop(core);
        let core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        assert_eq!(core.tick_index(), 1);
    }

    #[test]
    fn config_validation_rejects_degenerate_setups() {
        let mut cfg = config(SolverKind::ProportionalResponse);
        cfg.capacities.clear();
        assert!(matches!(cfg.validate(), Err(ServerError::Config { .. })));
        let mut cfg = config(SolverKind::ProportionalResponse);
        cfg.capacities[0] = -1.0;
        assert!(matches!(cfg.validate(), Err(ServerError::Config { .. })));
        let mut cfg = config(SolverKind::ProportionalResponse);
        cfg.fallback_after = 0;
        assert!(matches!(cfg.validate(), Err(ServerError::Config { .. })));
        let mut cfg = config(SolverKind::MirrorDescent);
        cfg.options.solver = SolverKind::ProportionalResponse;
        assert!(matches!(cfg.validate(), Err(ServerError::Config { .. })));
        // The dense engine is refused, before any file is touched.
        let dir = temp_dir("jacobi");
        let err = ServerCore::open(config(SolverKind::Jacobi), &dir).unwrap_err();
        assert!(
            matches!(&err, ServerError::Config { reason } if reason.contains("sparse")),
            "{err}"
        );
        assert!(!dir.exists());
    }

    /// The player table as a `BTreeMap` of per-player records, as the
    /// daemon kept it before the columnar table, with the tick built
    /// over it: the model [`Table`] is checked against, byte for byte.
    /// Only the table differs; the solver, ledger and snapshot codecs
    /// are shared.
    mod reference {
        use super::*;
        use crate::proto::Request;

        #[derive(Debug, Clone, PartialEq)]
        struct PlayerRec {
            budget: f64,
            interests: Vec<(u32, f64)>,
            /// Bids from the last converged solve over these interests.
            bids: Option<Vec<f64>>,
        }

        #[derive(Debug)]
        pub(super) struct RefCore {
            pub(super) config: ServerConfig,
            players: BTreeMap<String, PlayerRec>,
            tick: u64,
            consecutive_failures: usize,
            degraded: bool,
            ledger: LogFile,
            dir: PathBuf,
        }

        impl RefCore {
            pub(super) fn open(config: ServerConfig, dir: &Path) -> Self {
                std::fs::create_dir_all(dir).unwrap();
                let ledger = LogFile::create(&dir.join("server.ledger"), LEDGER, |w| {
                    write_meta(&config, w)
                })
                .unwrap();
                let core = Self {
                    config,
                    players: BTreeMap::new(),
                    tick: 0,
                    consecutive_failures: 0,
                    degraded: false,
                    ledger,
                    dir: dir.to_path_buf(),
                };
                core.write_snapshot();
                core
            }

            pub(super) fn players(&self) -> usize {
                self.players.len()
            }

            /// A live player's interests.
            pub(super) fn interests(&self, id: &str) -> Option<Vec<(u32, f64)>> {
                self.players.get(id).map(|rec| rec.interests.clone())
            }

            pub(super) fn apply(&mut self, req: &Request) -> Result<(), ApplyError> {
                let m = self.config.capacities.len() as u32;
                let check_range = |interests: &[(u32, f64)]| {
                    interests
                        .iter()
                        .find(|&&(c, _)| c >= m)
                        .map_or(Ok(()), |&(c, _)| Err(ApplyError::ResourceRange(c)))
                };
                match req {
                    Request::Arrive {
                        id,
                        budget,
                        interests,
                    } => {
                        if self.players.contains_key(id) {
                            return Err(ApplyError::Duplicate(id.clone()));
                        }
                        check_range(interests)?;
                        let rec = PlayerRec {
                            budget: *budget,
                            interests: interests.clone(),
                            bids: None,
                        };
                        self.players.insert(id.clone(), rec);
                        Ok(())
                    }
                    Request::Update { id, interests } => {
                        check_range(interests)?;
                        let rec = self
                            .players
                            .get_mut(id)
                            .ok_or_else(|| ApplyError::Unknown(id.clone()))?;
                        if rec.interests != *interests {
                            rec.interests = interests.clone();
                            rec.bids = None;
                        }
                        Ok(())
                    }
                    Request::Depart { id } => self
                        .players
                        .remove(id)
                        .map(|_| ())
                        .ok_or_else(|| ApplyError::Unknown(id.clone())),
                    _ => unreachable!(),
                }
            }

            pub(super) fn tick(&mut self, admitted: usize) -> TickReport {
                let m = self.config.capacities.len();
                let n = self.players.len();
                let (solved, prices, alloc, utilities) = if n == 0 {
                    (None, vec![0.0; m], Vec::new(), Vec::new())
                } else {
                    let (market, warm) = self.market();
                    let (outcome, report) = self.solve(&market, warm);
                    (Some(report), outcome.0, outcome.1, outcome.2)
                };
                let converged = solved.as_ref().is_none_or(|r| r.0);
                if n > 0 {
                    if converged {
                        self.consecutive_failures = 0;
                        self.degraded = false;
                    } else {
                        self.consecutive_failures += 1;
                        if self.consecutive_failures >= self.config.fallback_after {
                            self.degraded = true;
                        }
                    }
                }
                let fallback = self.degraded && n > 0;
                let (alloc, utilities) = if fallback {
                    self.equal_share()
                } else {
                    (alloc, utilities)
                };
                let efficiency: f64 = utilities.iter().sum();
                let report = TickReport {
                    tick: self.tick,
                    players: n,
                    admitted,
                    converged,
                    fallback,
                    iterations: solved.as_ref().map_or(0, |r| r.1),
                    residual: solved.as_ref().map_or(0.0, |r| r.2),
                    efficiency,
                };
                let ids_fnv = fnv1a_joined(self.players.keys().map(String::as_str), ";");
                let alloc_fnv = fnv1a_f64_words(alloc.iter().copied());
                let budgets = || self.players.values().map(|rec| rec.budget);
                let mbr = metrics::mbr(budgets());
                let mur = metrics::mur(
                    utilities
                        .iter()
                        .zip(budgets())
                        .filter(|&(_, b)| b > 0.0)
                        .map(|(&u, b)| u / b),
                );
                self.ledger
                    .append(self.tick as usize, |w| {
                        w.kv("players", n);
                        w.kv("admitted", admitted);
                        w.bool("converged", converged);
                        w.bool("fallback", fallback);
                        w.kv("iterations", report.iterations);
                        w.hex("ids_fnv", ids_fnv);
                        w.f64("mbr", mbr);
                        w.f64("mur", mur);
                        w.f64_list("prices", &prices);
                        w.hex("alloc_fnv", alloc_fnv);
                        w.f64("eff", efficiency);
                    })
                    .unwrap();
                self.tick += 1;
                self.write_snapshot();
                report
            }

            fn market(&self) -> (SparseMarket, Vec<f64>) {
                let mut budgets = Vec::new();
                let mut warm = Vec::new();
                let interests = SparseBids::from_row_iter(
                    self.config.capacities.len(),
                    self.players.values().map(|rec| {
                        budgets.push(rec.budget);
                        match &rec.bids {
                            Some(bids) => warm.extend_from_slice(bids),
                            None => {
                                let k = rec.interests.len() as f64;
                                warm.extend(rec.interests.iter().map(|_| rec.budget / k));
                            }
                        }
                        rec.interests.iter().map(|&(c, w)| (c as usize, w))
                    }),
                )
                .unwrap();
                let market = SparseMarket::new(
                    self.config.capacities.clone(),
                    budgets,
                    interests,
                    SparseUtilityKind::Linear,
                )
                .unwrap();
                (market, warm)
            }

            #[allow(clippy::type_complexity)]
            fn solve(
                &mut self,
                market: &SparseMarket,
                warm: Vec<f64>,
            ) -> ((Vec<f64>, Vec<f64>, Vec<f64>), (bool, u64, f64)) {
                let options = self
                    .config
                    .options
                    .clone()
                    .with_warm_start(WarmStart { bids: warm }.shared());
                let (out, retry) =
                    solve_with_retry(&options, Some(&self.config.retry), |o| market.solve(o))
                        .unwrap();
                if retry.converged {
                    for (rec, i) in self.players.values_mut().zip(0..) {
                        rec.bids = Some(out.bids.row_vals(i).to_vec());
                    }
                }
                let alloc = (0..out.bids.players())
                    .flat_map(|i| out.allocation_of(i).into_iter().map(|(_, x)| x))
                    .collect();
                (
                    (out.prices, alloc, out.utilities),
                    (retry.converged, out.iterations, out.report.residual),
                )
            }

            fn equal_share(&self) -> (Vec<f64>, Vec<f64>) {
                let mut interested = vec![0usize; self.config.capacities.len()];
                for rec in self.players.values() {
                    for &(c, _) in &rec.interests {
                        interested[c as usize] += 1;
                    }
                }
                let mut alloc = Vec::new();
                let mut utilities = Vec::new();
                for rec in self.players.values() {
                    let mut u = 0.0;
                    for &(c, w) in &rec.interests {
                        let share =
                            self.config.capacities[c as usize] / interested[c as usize] as f64;
                        alloc.push(share);
                        u += w * share;
                    }
                    utilities.push(u);
                }
                (alloc, utilities)
            }

            /// Writes the snapshot whole into a truncated slot file.
            fn write_snapshot(&self) {
                let slot = SLOTS[(self.tick % 2) as usize];
                let mut w = Writer::default();
                w.line(SNAPSHOT_HEADER);
                w.section("config");
                w.kv("resources", self.config.capacities.len());
                w.kv("solver", self.config.solver.label());
                w.section("state");
                w.kv("tick", self.tick);
                w.bool("degraded", self.degraded);
                w.kv("failures", self.consecutive_failures);
                w.kv("players", self.players.len());
                for (k, (id, rec)) in (0..).zip(&self.players) {
                    w.indexed_section("player", k);
                    w.str("id", id);
                    w.f64("budget", rec.budget);
                    w.indexed_f64_list(
                        "interests",
                        rec.interests.iter().map(|&(c, v)| (u64::from(c), v)),
                    );
                    if let Some(bids) = &rec.bids {
                        w.f64_list("bids", bids);
                    }
                }
                w.seal();
                std::fs::write(self.dir.join(slot), w.text()).unwrap();
            }
        }
    }

    /// The columnar core and the reference model side by side, each in
    /// its own state directory.
    struct Pair {
        core: ServerCore,
        model: reference::RefCore,
        dirs: [PathBuf; 2],
    }

    impl Pair {
        fn open(cfg: &ServerConfig, tag: &str) -> Self {
            let dirs = [
                temp_dir(&format!("{tag}-table")),
                temp_dir(&format!("{tag}-model")),
            ];
            Self {
                core: ServerCore::open(cfg.clone(), &dirs[0]).unwrap(),
                model: reference::RefCore::open(cfg.clone(), &dirs[1]),
                dirs,
            }
        }

        /// The table's state, for an unchanged-table check.
        fn table_state(&self) -> String {
            let t = &self.core.table;
            format!(
                "{:?}",
                (&t.ids, &t.id_ends, &t.market, &t.seed, &t.seeded, &t.pending, t.live)
            )
        }

        /// Applies `req` to both; they must agree on the verdict and the
        /// live count, and a rejected command must leave the table as it
        /// was.
        fn apply(&mut self, req: &crate::proto::Request) -> bool {
            let before = self.table_state();
            let verdict = self.core.apply(req);
            assert_eq!(verdict, self.model.apply(req), "{req:?}");
            assert_eq!(self.core.players(), self.model.players(), "{req:?}");
            if verdict.is_err() {
                assert_eq!(self.table_state(), before, "{req:?} changed the table");
            }
            verdict.is_ok()
        }

        /// Ticks both; the reports and every state file must be equal.
        fn tick(&mut self, admitted: usize) -> TickReport {
            let report = self.core.tick(admitted).unwrap();
            assert_eq!(report, self.model.tick(admitted));
            for file in ["server.ledger", SLOTS[0], SLOTS[1]] {
                let read = |dir: &PathBuf| std::fs::read(dir.join(file)).ok();
                assert!(
                    read(&self.dirs[0]) == read(&self.dirs[1]),
                    "tick {}: {file} differs from the reference model",
                    report.tick
                );
            }
            report
        }

        /// Sets the options both cores solve the next tick under.
        fn set_options(&mut self, edit: impl Fn(&mut ServerConfig)) {
            edit(&mut self.core.config);
            edit(&mut self.model.config);
        }
    }

    impl Drop for Pair {
        fn drop(&mut self) {
            for dir in &self.dirs {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// Seeded random admission batches over a small id space, so every
    /// kind of command lands on live, departed and unknown ids alike:
    /// arrivals (some duplicate, some out of range), departures (some
    /// unknown), updates with unchanged and with new interests, and the
    /// same id arriving and departing within one batch, both ways round.
    /// The table and the reference model must agree after every command
    /// and write the same ledger and snapshot bytes after every tick.
    #[test]
    fn columnar_table_matches_the_btreemap_reference() {
        use crate::proto::Request;
        use rebudget_market::splitmix64;
        for seed in 1..=3u64 {
            let mut cfg = config(SolverKind::ProportionalResponse);
            cfg.seed = seed;
            let mut pair = Pair::open(&cfg, &format!("model-{seed}"));
            let mut state = seed;
            let mut next = |bound: u64| {
                state = splitmix64(state);
                state % bound
            };
            for tick in 0..12 {
                let mut admitted = 0;
                for _ in 0..3 + next(10) {
                    let id = format!("q{}", next(24));
                    let mut interests: Vec<(u32, f64)> = Vec::new();
                    for c in 0..6 {
                        if next(3) == 0 {
                            interests.push((c, 0.5 + next(8) as f64));
                        }
                    }
                    if interests.is_empty() {
                        interests.push((next(6) as u32, 1.0));
                    }
                    let req = match next(8) {
                        0 | 1 => Request::Arrive {
                            id: id.clone(),
                            budget: 1.0 + next(50) as f64,
                            interests,
                        },
                        2 => Request::Arrive {
                            id: id.clone(),
                            budget: 5.0,
                            interests: vec![(0, 1.0), (6 + next(3) as u32, 1.0)],
                        },
                        3 => Request::Depart { id: id.clone() },
                        4 => Request::Update {
                            id: id.clone(),
                            interests: pair.model.interests(&id).unwrap_or(interests),
                        },
                        _ => Request::Update {
                            id: id.clone(),
                            interests,
                        },
                    };
                    admitted += usize::from(pair.apply(&req));
                    // Now and then the same id straight back the other way.
                    if next(4) == 0 {
                        let back = match req {
                            Request::Arrive { .. } => Request::Depart { id },
                            _ => Request::Arrive {
                                id,
                                budget: 2.0,
                                interests: vec![(1, 1.0), (3, 2.0)],
                            },
                        };
                        admitted += usize::from(pair.apply(&back));
                    }
                }
                let report = pair.tick(admitted);
                assert_eq!(report.tick, tick);
            }
            assert!(pair.core.table.seeded.iter().any(|&s| s), "seed {seed}");
        }
    }

    /// The table against the reference model through a tick capped short
    /// of convergence (the older seeds stay), a second one that degrades
    /// to `EqualShare`, and the converged tick that lifts it.
    #[test]
    fn columnar_table_matches_reference_through_fallback() {
        use crate::proto::Request;
        let mut pair = Pair::open(&config(SolverKind::ProportionalResponse), "model-fallback");
        let spec = spec();
        let capped = |cfg: &mut ServerConfig| {
            cfg.options.max_iterations = 1;
            cfg.options.price_tolerance = 0.0;
            cfg.retry.max_attempts = 1;
        };
        let normal = config(SolverKind::ProportionalResponse);
        let restore = |cfg: &mut ServerConfig| {
            cfg.options = normal.options.clone();
            cfg.retry = normal.retry;
        };
        for tick in 0..9 {
            match tick {
                3 => pair.set_options(capped),
                6 => pair.set_options(restore),
                _ => {}
            }
            let commands = spec.commands_for_tick(tick);
            for cmd in &commands {
                assert!(pair.apply(cmd));
            }
            // The snapshots compared after each tick carry every seeded
            // row's bids, so a failed solve must leave the same seeds.
            let report = pair.tick(commands.len());
            assert_eq!(report.converged, !(3..6).contains(&tick), "tick {tick}");
            assert_eq!(report.fallback, (4..6).contains(&tick), "tick {tick}");
            if tick == 5 {
                assert!(pair.core.table.seeded.iter().any(|&s| s));
                assert!(pair.core.table.seeded.iter().any(|&s| !s));
            }
        }
        // An update that keeps a row's interests keeps its seed; one that
        // changes them drops it, and so does departing and re-arriving.
        let id = pair.core.table.id(0).to_string();
        let interests = pair.model.interests(&id).unwrap();
        assert!(pair.apply(&Request::Update {
            id: id.clone(),
            interests: interests.clone(),
        }));
        assert!(pair.core.table.pending.is_empty());
        assert!(pair.apply(&Request::Depart { id: id.clone() }));
        assert!(pair.apply(&Request::Arrive {
            id: id.clone(),
            budget: 3.0,
            interests,
        }));
        pair.tick(3);
    }
}
