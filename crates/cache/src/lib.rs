#![warn(missing_docs)]

//! Cache substrate for the ReBudget reproduction.
//!
//! The paper's multicore market sells shared last-level cache capacity. To
//! model an application's *utility* for cache, and to actually *enforce* an
//! allocation, the paper relies on three published hardware techniques, all
//! reimplemented here:
//!
//! * **UMON shadow tags** (Qureshi & Patt, MICRO 2006) — set-sampled
//!   Mattson stack-distance monitors that estimate, at run time, how many
//!   misses an application *would* take at every possible cache size
//!   ([`umon`], built on the exact [`stack`] profiler).
//! * **Futility Scaling** (Wang & Chen, MICRO 2014) — a replacement-time
//!   feedback controller that holds per-core partitions at arbitrary
//!   line-granularity targets without way alignment ([`futility`]).
//! * **Talus** (Beckmann & Sanchez, HPCA 2015) — convexification of a
//!   non-concave miss curve by splitting a partition into two shadow
//!   partitions sized at neighbouring points of interest on the curve's
//!   convex hull ([`talus`]).
//!
//! A plain set-associative LRU cache model lives in [`set_assoc`]; miss
//! curves — the common currency between these pieces — in [`miss_curve`].

pub mod config;
pub mod futility;
pub mod miss_curve;
pub mod set_assoc;
pub mod stack;
pub mod talus;
pub mod ucp;
pub mod umon;

pub use config::{CacheConfig, CacheError};
pub use miss_curve::MissCurve;
pub use set_assoc::SetAssocCache;
pub use umon::UmonShadowTags;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CacheError>;
