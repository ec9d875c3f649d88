#![warn(missing_docs)]

//! Multiprogrammed workload construction (§5 of the paper).
//!
//! The paper classifies its 24 applications into four classes — C, P, B,
//! N — and builds six categories of multiprogrammed bundles: **CPBN**,
//! **CCPP**, **CPBB**, **BBNN**, **BBPN**, and **BBCN**. Each letter names
//! the class from which a quarter of the cores draw their applications
//! ("for an 8-core (64-core) configuration, 2 (16) applications are
//! randomly selected from each application class"). Forty bundles per
//! category are generated for each core count, for 240 bundles total.
//!
//! Generation is seeded and reproducible; the same seed always yields the
//! same suite.

pub mod bundle;
pub mod category;
pub mod suite;

pub use bundle::{generate_bundle, Bundle, WorkloadError};
pub use category::Category;
pub use suite::{bundle_by_name, full_suite, paper_bbpc_8core, BUNDLES_PER_CATEGORY};
