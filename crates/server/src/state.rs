//! The daemon's durable tick state machine.
//!
//! [`ServerCore`] owns the live player table, the warm-start bid cache,
//! the append-only hash-chained ledger, and the crash-atomic snapshot.
//! Each [`ServerCore::tick`] assembles the current market, re-solves it
//! **warm-started from the previous quantum's bids**, appends one ledger
//! record, and then commits a snapshot — in that order, which is what
//! makes `kill -9` at any byte recoverable:
//!
//! * killed before the ledger append: the snapshot still says tick `T`
//!   and the ledger holds `T` records — resume re-runs tick `T`.
//! * killed mid-append: the torn tail is cut at
//!   [`durable::LogFormat::read_valid_prefix`]'s record boundary — same as above.
//! * killed between append and snapshot: the ledger holds `T + 1`
//!   records but the snapshot says `T` — recovery truncates the ledger
//!   back to the snapshot's `T` records and re-runs tick `T`, which is
//!   deterministic (same players, same warm seeds, same options) and so
//!   reproduces the truncated record **byte for byte**.
//! * killed mid-snapshot: [`durable::write_atomic_with`]'s tmp/rename/`.prev`
//!   rotation guarantees a parseable generation survives; if only
//!   `.prev` does, that is an older tick and the ledger is truncated
//!   accordingly.
//! * killed between the seal and the snapshot removal
//!   ([`ServerCore::seal`]): the ledger is sealed, hence final, and a
//!   snapshot is still beside it — recovery refuses the directory with
//!   the same collision as a fresh start, and changes no file.
//!
//! No fsync is needed for these guarantees: a killed *process* loses
//! nothing from the kernel page cache, so `write_all` suffices. (A
//! power-cut story would need fsync; that is out of scope, as it is for
//! every durable format in the workspace.)
//!
//! The snapshot is a schema over `rebudget_sim::durable` (DESIGN.md,
//! "Durable codec"), sealed by `[seal]` and the hash of every byte before
//! its `fnv1a=` line.
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
use std::io::BufReader;
use std::path::{Path, PathBuf};

use rebudget_market::equilibrium::{EquilibriumOptions, WarmStart};
use rebudget_market::{
    metrics, solve_with_retry, RetryPolicy, SolverKind, SparseBids, SparseMarket, SparseOutcome,
    SparseUtilityKind,
};
use rebudget_sim::durable::{
    self, fnv1a_f64_words, fnv1a_joined, prev_path, Document, LogFile, Writer, LEDGER,
};

use crate::{ServerError, ServerResult};

const SNAPSHOT_HEADER: &str = "rebudget-server-snapshot v2";
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

/// One live player.
#[derive(Debug, Clone, PartialEq)]
struct PlayerRec {
    budget: f64,
    /// `(resource, weight)` interests, sorted by resource.
    interests: Vec<(u32, f64)>,
    /// Bids from the last converged solve over exactly these interests —
    /// the next tick's warm seed. Cleared when the interest set changes.
    bids: Option<Vec<f64>>,
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
    /// Live players, keyed by id. `BTreeMap` fixes the market's row
    /// order to id order, independent of arrival interleaving.
    players: BTreeMap<String, PlayerRec>,
    /// Next tick to run (ticks `0..tick` are committed).
    tick: u64,
    consecutive_failures: usize,
    degraded: bool,
    /// The ledger, written record by record.
    ledger: LogFile,
    snapshot_path: PathBuf,
    /// Whether recovery fell back to the `.prev` snapshot generation.
    recovered_from_prev: bool,
}

impl ServerCore {
    /// Opens the daemon state under `state_dir`: recovers from an
    /// existing snapshot if one is present, otherwise starts fresh with
    /// a new ledger (`server.ledger`) and snapshot (`server.snapshot`).
    ///
    /// # Errors
    ///
    /// [`ServerError::Config`] for invalid configuration,
    /// [`ServerError::Ledger`] when a fresh start collides with an
    /// existing (immutable) ledger, [`ServerError::Snapshot`] when
    /// recovery finds no usable snapshot generation, and
    /// [`ServerError::Io`] for filesystem trouble.
    pub fn open(config: ServerConfig, state_dir: &Path) -> ServerResult<Self> {
        config.validate()?;
        std::fs::create_dir_all(state_dir)?;
        let ledger_path = state_dir.join("server.ledger");
        let snapshot_path = state_dir.join("server.snapshot");
        if snapshot_path.exists() || prev_path(&snapshot_path).exists() {
            Self::recover(config, ledger_path, snapshot_path)
        } else {
            Self::fresh(config, ledger_path, snapshot_path)
        }
    }

    fn fresh(
        config: ServerConfig,
        ledger_path: PathBuf,
        snapshot_path: PathBuf,
    ) -> ServerResult<Self> {
        // The scenario ledger's meta keys; the stream is open-ended, so
        // `quanta` is 0 and the seal carries the real count.
        let ledger = LogFile::create_new(&ledger_path, LEDGER, |w| {
            w.kv("scenario", "server");
            w.kv("seed", config.seed);
            w.kv("mechanism", config.solver.label());
            w.kv("workload", "online");
            w.kv("cores", 0);
            w.kv("resources", config.capacities.len());
            w.kv("quanta", 0);
            w.f64("budget", 0.0);
        })?;
        let core = Self {
            config,
            players: BTreeMap::new(),
            tick: 0,
            consecutive_failures: 0,
            degraded: false,
            ledger,
            snapshot_path,
            recovered_from_prev: false,
        };
        core.write_snapshot()?;
        Ok(core)
    }

    fn recover(
        config: ServerConfig,
        ledger_path: PathBuf,
        snapshot_path: PathBuf,
    ) -> ServerResult<Self> {
        // One streaming pass validates every chain link and records the
        // chain state at each record boundary.
        let prefix = File::open(&ledger_path)
            .and_then(|f| LEDGER.read_valid_prefix(BufReader::new(f)))
            .map_err(|e| ServerError::Snapshot {
                reason: format!(
                    "snapshot exists but ledger '{}' is unreadable: {e}",
                    ledger_path.display()
                ),
            })?;
        if prefix.header_bytes == 0 {
            return Err(ServerError::Snapshot {
                reason: format!(
                    "ledger '{}' has no valid header; cannot recover",
                    ledger_path.display()
                ),
            });
        }
        // A sealed ledger is final even with a snapshot left beside it (a
        // kill between the seal and the snapshot removal): refuse it as
        // the fresh path does, before any file changes.
        if prefix.sealed {
            return Err(ServerError::Ledger(durable::Error::Exists {
                path: ledger_path.display().to_string(),
            }));
        }
        // Try the live snapshot first, then the rotated .prev generation.
        // A generation is usable only if the ledger still holds at least
        // as many valid records as the snapshot's tick (the ledger is
        // written before the snapshot, so this holds for every crash
        // point).
        let mut failures: Vec<String> = Vec::new();
        let loaded = durable::load_with_fallback(&snapshot_path, |path| {
            durable::read(path)
                .and_then(|text| decode_snapshot(&text, &config, prefix.records))
                .map_err(|e| failures.push(format!("{}: {e}", path.display())))
        });
        let Ok((snap, recovered_from_prev)) = loaded else {
            return Err(ServerError::Snapshot {
                reason: format!("no usable snapshot generation: {}", failures.join("; ")),
            });
        };
        // Truncate the ledger to exactly the snapshot's records: drops
        // both torn tails and whole records from a crash that landed
        // between the ledger append and the snapshot write. The dropped
        // tick re-runs deterministically.
        let ledger = LogFile::resume(&ledger_path, LEDGER, &prefix, snap.tick as usize)?;
        Ok(Self {
            config,
            players: snap.players,
            tick: snap.tick,
            consecutive_failures: snap.failures,
            degraded: snap.degraded,
            ledger,
            snapshot_path,
            recovered_from_prev,
        })
    }

    /// The next tick to run (ticks `0..tick()` are committed).
    pub fn tick_index(&self) -> u64 {
        self.tick
    }

    /// Live player count.
    pub fn players(&self) -> usize {
        self.players.len()
    }

    /// Whether the daemon is currently degraded to `EqualShare`.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Whether recovery used the rotated `.prev` snapshot generation.
    pub fn recovered_from_prev(&self) -> bool {
        self.recovered_from_prev
    }

    /// Ledger records committed so far (equals [`Self::tick_index`]).
    pub fn records(&self) -> usize {
        self.ledger.records()
    }

    /// Applies one admission command (arrive / update / depart).
    ///
    /// # Errors
    ///
    /// [`ApplyError`] naming the rejection; the player table is
    /// unchanged on error.
    pub fn apply(&mut self, req: &crate::proto::Request) -> Result<(), ApplyError> {
        use crate::proto::Request;
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
                self.players.insert(
                    id.clone(),
                    PlayerRec {
                        budget: *budget,
                        interests: interests.clone(),
                        bids: None,
                    },
                );
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
                    // The warm seed indexes the old interest set.
                    rec.bids = None;
                }
                Ok(())
            }
            Request::Depart { id } => self
                .players
                .remove(id)
                .map(|_| ())
                .ok_or_else(|| ApplyError::Unknown(id.clone())),
            _ => unreachable!("only admission commands reach apply()"),
        }
    }

    /// Runs one market quantum: solve (warm-started), append the ledger
    /// record, commit the snapshot. `admitted` is the size of this
    /// tick's admission batch, recorded in the ledger.
    ///
    /// # Errors
    ///
    /// [`ServerError::Market`] for a degenerate market the admission
    /// validation failed to catch, [`ServerError::Io`] for ledger or
    /// snapshot write failures. Non-convergence is **not** an error —
    /// it feeds the degradation counter.
    pub fn tick(&mut self, admitted: usize) -> ServerResult<TickReport> {
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
        // The solve's buffers are gone by now.
        self.write_snapshot()?;
        Ok(report)
    }

    /// Solves the current market and appends and writes its ledger
    /// record.
    fn record(&mut self, admitted: usize) -> ServerResult<TickReport> {
        let m = self.config.capacities.len();
        let n = self.players.len();
        let (solved, prices, alloc, utilities) = if n == 0 {
            (None, vec![0.0; m], Vec::new(), Vec::new())
        } else {
            let (market, warm) = self.market()?;
            let (outcome, report) = self.solve(&market, warm)?;
            (Some(report), outcome.0, outcome.1, outcome.2)
        };
        let converged = solved.as_ref().is_none_or(|r| r.0);
        let iterations = solved.as_ref().map_or(0, |r| r.1);
        let residual = solved.as_ref().map_or(0.0, |r| r.2);
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
            iterations,
            residual,
            efficiency,
        };
        // The two digests are folded straight from their bytes: the ids
        // joined by `;`, and the allocation as `f64_words` would write it.
        let ids_fnv = fnv1a_joined(self.players.keys().map(String::as_str), ";");
        let alloc_fnv = fnv1a_f64_words(alloc.iter().copied());
        // The paper's two market scalars (Definitions 5-6) stand for the
        // budgets and utilities at O(1) bytes. λ_i = u_i / B_i is each
        // player's marginal utility of money at a linear price-taking
        // equilibrium.
        let budgets = || self.players.values().map(|rec| rec.budget);
        let mbr = metrics::mbr(budgets());
        let mur = metrics::mur(
            utilities
                .iter()
                .zip(budgets())
                .filter(|&(_, b)| b > 0.0)
                .map(|(&u, b)| u / b),
        );
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
        Ok(report)
    }

    /// The live players' market, rows in id order, and the first-order
    /// engines' warm seed over its CSR values, built in one pass over the
    /// player table. A row's seed is its stored bids when it has a
    /// converged prior solve, else the equal split (== the cold start);
    /// per-row usability is the solver's problem.
    fn market(&self) -> ServerResult<(SparseMarket, Vec<f64>)> {
        let mut budgets = Vec::with_capacity(self.players.len());
        let mut warm = Vec::new();
        let interests = SparseBids::from_row_iter(
            self.config.capacities.len(),
            self.players.values().map(|rec| {
                budgets.push(rec.budget);
                match &rec.bids {
                    Some(bids) if bids.len() == rec.interests.len() => {
                        warm.extend_from_slice(bids);
                    }
                    _ => {
                        let k = rec.interests.len() as f64;
                        warm.extend(rec.interests.iter().map(|_| rec.budget / k));
                    }
                }
                rec.interests.iter().map(|&(c, w)| (c as usize, w))
            }),
        )?;
        let market = SparseMarket::new(
            self.config.capacities.clone(),
            budgets,
            interests,
            SparseUtilityKind::Linear,
        )?;
        Ok((market, warm))
    }

    /// Solves `market` (the live players') from the sparse `warm` seed.
    ///
    /// Returns `((prices, alloc, utilities), (converged, iterations,
    /// residual))`, where `alloc` is row-major over each player's
    /// interest set.
    #[allow(clippy::type_complexity)]
    fn solve(
        &mut self,
        market: &SparseMarket,
        warm: Vec<f64>,
    ) -> ServerResult<((Vec<f64>, Vec<f64>, Vec<f64>), (bool, u64, f64))> {
        let options = self
            .config
            .options
            .clone()
            .with_warm_start(WarmStart { bids: warm }.shared());
        let (out, retry) =
            solve_with_retry(&options, Some(&self.config.retry), |o| market.solve(o))?;
        let SparseOutcome {
            bids,
            prices,
            utilities,
            iterations,
            report,
            ..
        } = out;
        if retry.converged {
            for (rec, i) in self.players.values_mut().zip(0..) {
                let row = bids.row_vals(i);
                match &mut rec.bids {
                    Some(stored) => {
                        stored.clear();
                        stored.extend_from_slice(row);
                    }
                    None => rec.bids = Some(row.to_vec()),
                }
            }
        }
        // `SparseOutcome::allocation_of` for every row at once:
        // `x_ij = b_ij / p_j`, zero where the price is zero.
        let alloc = bids
            .vals()
            .iter()
            .zip(bids.cols())
            .map(|(&b, &c)| {
                let p = prices[c as usize];
                if p > 0.0 {
                    b / p
                } else {
                    0.0
                }
            })
            .collect();
        Ok((
            (prices, alloc, utilities),
            (retry.converged, iterations, report.residual),
        ))
    }

    /// The `EqualShare` fallback allocation: every resource is split
    /// evenly among the players interested in it. Returns the row-major
    /// interest-set allocation and per-player linear utilities.
    fn equal_share(&self) -> (Vec<f64>, Vec<f64>) {
        let m = self.config.capacities.len();
        let mut interested = vec![0usize; m];
        for rec in self.players.values() {
            for &(c, _) in &rec.interests {
                interested[c as usize] += 1;
            }
        }
        let mut alloc = Vec::new();
        let mut utilities = Vec::with_capacity(self.players.len());
        for rec in self.players.values() {
            let mut u = 0.0;
            for &(c, w) in &rec.interests {
                let share = self.config.capacities[c as usize] / interested[c as usize] as f64;
                alloc.push(share);
                u += w * share;
            }
            utilities.push(u);
        }
        (alloc, utilities)
    }

    /// Seals the ledger and flushes it; called on graceful shutdown.
    /// The snapshot generations are removed afterwards: a sealed ledger
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
        let _ = std::fs::remove_file(&self.snapshot_path);
        let _ = std::fs::remove_file(prev_path(&self.snapshot_path));
        Ok(records)
    }

    fn write_snapshot(&self) -> ServerResult<()> {
        durable::write_atomic_with(&self.snapshot_path, |file| self.encode_snapshot(file)).map_err(
            |e| ServerError::Snapshot {
                reason: e.to_string(),
            },
        )
    }

    /// Streams the snapshot into `out` in chunks of about
    /// [`SNAPSHOT_CHUNK`] bytes: the text is never held whole, so the
    /// buffer stays in cache and off the tick's peak memory.
    fn encode_snapshot(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
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
            if w.text().len() >= SNAPSHOT_CHUNK {
                w.drain_to(out)?;
            }
        }
        w.seal();
        w.drain_to(out)
    }
}

#[derive(Debug)]
struct Decoded {
    tick: u64,
    degraded: bool,
    failures: usize,
    players: BTreeMap<String, PlayerRec>,
}

/// Decodes a snapshot taken under `config` that a ledger holding
/// `records` valid records can resume: its tick may not be ahead.
fn decode_snapshot(
    text: &str,
    config: &ServerConfig,
    records: usize,
) -> Result<Decoded, durable::Error> {
    let doc = Document::open(text)?;
    let bad = |line: usize, reason: String| durable::Error::Format { line, reason };
    if doc.header() != SNAPSHOT_HEADER {
        return Err(bad(
            1,
            format!(
                "snapshot header '{}' is not '{SNAPSHOT_HEADER}' (an older state \
                 directory is not resumed)",
                doc.header()
            ),
        ));
    }
    let market = doc.section("config")?;
    let (resources, solver) = (market.parse::<usize>("resources")?, market.get("solver")?);
    let (want_resources, want_solver) = (config.capacities.len(), config.solver.label());
    if (resources, solver) != (want_resources, want_solver) {
        return Err(bad(
            market.line,
            format!(
                "snapshot is for {resources} resources and solver '{solver}', \
                 server configured with {want_resources} and '{want_solver}'"
            ),
        ));
    }
    let state = doc.section("state")?;
    // The writer emits players in id order, so the map is built in one
    // bulk pass; strictly increasing ids also rule out duplicates.
    let mut players: Vec<(&str, PlayerRec)> = Vec::new();
    for player in doc.sections().filter(|s| s.name.starts_with("player ")) {
        let fault = |reason: String| bad(player.line, reason);
        player.only(&["id", "budget", "interests", "bids"])?;
        let id = player.get("id")?;
        if let Some(&(prev, _)) = players.last() {
            if id <= prev {
                return Err(fault(format!(
                    "player '{id}' does not follow '{prev}' in id order"
                )));
            }
        }
        let raw = player.get("interests")?;
        let mut interests = Vec::with_capacity(raw.split(' ').count());
        for item in raw.split(' ').filter(|item| !item.is_empty()) {
            let parsed = item
                .split_once(':')
                .and_then(|(c, w)| Some((c.parse().ok()?, durable::parse_f64(w)?)))
                .ok_or_else(|| fault(format!("malformed interests '{raw}'")))?;
            interests.push(parsed);
        }
        let bids = match player.optional("bids")? {
            Some(_) => Some(player.f64_list("bids")?),
            None => None,
        };
        if bids.as_ref().is_some_and(|b| b.len() != interests.len()) {
            return Err(fault(format!(
                "player '{id}' bids/interests length mismatch"
            )));
        }
        let rec = PlayerRec {
            budget: player.f64("budget")?,
            interests,
            bids,
        };
        players.push((id, rec));
    }
    let declared: usize = state.parse("players")?;
    if declared != players.len() {
        return Err(bad(
            state.line,
            format!(
                "snapshot declares {declared} players, holds {}",
                players.len()
            ),
        ));
    }
    let tick = state.parse("tick")?;
    if tick > records as u64 {
        return Err(bad(
            state.line,
            format!("snapshot tick {tick} ahead of ledger ({records} records)"),
        ));
    }
    Ok(Decoded {
        tick,
        degraded: state.bool("degraded")?,
        failures: state.parse("failures")?,
        players: players
            .into_iter()
            .map(|(id, rec)| (id.to_string(), rec))
            .collect(),
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use rebudget_market::equilibrium::EquilibriumOptions;
    use rebudget_sim::durable::fnv1a;
    use std::io::Write as _;

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
        let dir = temp_dir(tag);
        let mut core = ServerCore::open(config(solver), &dir).unwrap();
        for t in 0..ticks {
            drive(&mut core, t);
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
            assert!(!core.recovered_from_prev(), "{tag}");
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
        // Save the tick-5 snapshot, then commit tick 5 so the ledger
        // runs one record ahead of the restored snapshot.
        let snapshot_path = dir.join("server.snapshot");
        let stale = std::fs::read_to_string(&snapshot_path).unwrap();
        drive(&mut core, 5);
        drop(core);
        std::fs::write(&snapshot_path, &stale).unwrap();
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
        // Simulated crash mid-snapshot-write: the live generation is
        // garbage, the rotated .prev (tick 4) must carry recovery.
        let snapshot_path = dir.join("server.snapshot");
        std::fs::write(&snapshot_path, "rebudget-server-snapshot v1\ngarbage\n").unwrap();
        let mut core = ServerCore::open(config(SolverKind::ProportionalResponse), &dir).unwrap();
        assert!(core.recovered_from_prev());
        assert_eq!(core.tick_index(), 4);
        for t in 4..8 {
            drive(&mut core, t);
        }
        core.seal().unwrap();
        let resumed = std::fs::read_to_string(dir.join("server.ledger")).unwrap();
        assert_eq!(
            resumed, reference,
            ".prev recovery must stay byte-identical"
        );
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
        let snap = decode_snapshot(&text, &cfg, usize::MAX).unwrap();
        assert_eq!(snap.tick, 2);
        assert_eq!(snap.players, core.players);
        assert!(!snap.degraded);
        // Any flipped byte fails the checksum.
        let tampered = text.replacen("budget=", "budget=f", 1);
        let err = decode_snapshot(&tampered, &cfg, usize::MAX)
            .unwrap_err()
            .to_string();
        assert!(err.contains("checksum"), "{err}");
        // A snapshot for a different market shape is refused.
        let mut other = cfg.clone();
        other.capacities.push(8.0);
        let err = decode_snapshot(&text, &other, usize::MAX)
            .unwrap_err()
            .to_string();
        assert!(err.contains("resources"), "{err}");
        // Every truncation and every single-bit flip that stays UTF-8
        // (the file read rejects the rest) is an error or decodes to the
        // identical state; none panics.
        let check = |v: &str| {
            if let Ok(decoded) = decode_snapshot(v, &cfg, usize::MAX) {
                assert_eq!(decoded.tick, snap.tick, "{v:?}");
                assert_eq!(decoded.players, snap.players, "{v:?}");
            }
        };
        for cut in 0..text.len() {
            check(&text[..cut]);
        }
        for at in 0..text.len() {
            for bit in 0..8 {
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] ^= 1 << bit;
                if let Ok(v) = String::from_utf8(bytes) {
                    check(&v);
                }
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
        let text = std::fs::read_to_string(dir.join("server.snapshot")).unwrap();
        assert!(decode_snapshot(&reseal(&text, |_| {}), &cfg, usize::MAX).is_ok());
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
                decode_snapshot(&bad, &cfg, usize::MAX).is_err(),
                "{what} must be rejected"
            );
        }
    }

    /// Byte length of each record in the ledger file under `dir`.
    fn record_lengths(dir: &Path) -> Vec<usize> {
        let file = File::open(dir.join("server.ledger")).unwrap();
        let prefix = LEDGER.read_valid_prefix(BufReader::new(file)).unwrap();
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
            let lines: Vec<f64> = durable::lines(&text)
                .filter_map(|line| {
                    let line = std::str::from_utf8(line.bytes).unwrap();
                    durable::parse_f64(line.strip_prefix(key)?.strip_prefix('=')?)
                })
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
        // Both snapshot generations as an older build wrote them.
        let snapshot = dir.join("server.snapshot");
        for path in [prev_path(&snapshot), snapshot] {
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
        let (alloc, utilities) = core.equal_share();
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
}
