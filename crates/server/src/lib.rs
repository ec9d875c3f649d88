#![warn(missing_docs)]

//! Fault-tolerant online market daemon for the ReBudget reproduction.
//!
//! The batch pipeline solves a *fixed* player set; this crate serves a
//! *streaming* one. Clients connect over a Unix or TCP socket and speak
//! newline-delimited JSON ([`proto`]): players arrive, depart, and
//! update their utilities at any time. Mutations are **admission-
//! batched**: they queue behind a bounded gate and are applied together
//! at the next tick, when the daemon re-solves the market equilibrium
//! **warm-started from the previous quantum's bids** — the warm path
//! that makes high-churn online serving tractable (see
//! `EXPERIMENTS.md`'s warm-vs-cold table).
//!
//! Robustness is the point, not an afterthought:
//!
//! * **Backpressure** — the admission queue is bounded; overflow is
//!   shed with an explicit `{"ok":false,"reason":"shed"}` rather than
//!   queued without bound ([`daemon`]).
//! * **Deadlines** — every tick's solve runs under the market crate's
//!   [`rebudget_market::DeadlineBudget`] and
//!   [`rebudget_market::RetryPolicy`] ladder.
//! * **Graceful degradation** — after K consecutive failed ticks the
//!   daemon allocates `EqualShare` until a solve converges again
//!   ([`state`]).
//! * **Kill-safety** — tick state is durable through the hash-chained
//!   ledger plus a snapshot in one of two slots; `kill -9` at *any* byte
//!   resumes to a byte-identical ledger (see [`state`]'s module docs
//!   for the commit ordering and the chaos tests for the proof).
//!
//! The [`workload`] module generates seeded, *per-tick-pure* client
//! churn: the chaos harness replays exactly the commands a killed
//! server never committed, and the benchmark drives both warm and cold
//! arms from the same stream.

pub mod daemon;
pub mod proto;
pub mod state;
pub mod workload;

pub use daemon::{Daemon, DaemonConfig, DaemonSummary, Endpoint, Listener, Stats};
pub use proto::{parse_request, Request};
pub use state::{ServerConfig, ServerCore, TickReport};
pub use workload::WorkloadSpec;

use std::fmt;

/// Errors from daemon configuration, recovery, or serving.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServerError {
    /// Invalid static configuration.
    Config {
        /// What was wrong.
        reason: String,
    },
    /// No usable snapshot slot (or snapshot/ledger disagreement)
    /// during recovery, or a snapshot write failure.
    Snapshot {
        /// What was wrong.
        reason: String,
    },
    /// Ledger trouble — including the named collision,
    /// `durable::Error::Exists`, when the state directory holds a sealed
    /// (hence immutable) ledger.
    Ledger(rebudget_sim::durable::Error),
    /// A degenerate market slipped past admission validation.
    Market(rebudget_market::MarketError),
    /// Socket or file I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Config { reason } => write!(f, "server config error: {reason}"),
            ServerError::Snapshot { reason } => write!(f, "server snapshot error: {reason}"),
            ServerError::Ledger(e) => write!(f, "server ledger error: {e}"),
            ServerError::Market(e) => write!(f, "server market error: {e}"),
            ServerError::Io(e) => write!(f, "server io error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

impl From<rebudget_sim::durable::Error> for ServerError {
    fn from(e: rebudget_sim::durable::Error) -> Self {
        ServerError::Ledger(e)
    }
}

impl From<rebudget_market::MarketError> for ServerError {
    fn from(e: rebudget_market::MarketError) -> Self {
        ServerError::Market(e)
    }
}

/// Crate-local result alias.
pub type ServerResult<T> = Result<T, ServerError>;
