//! Bundles: one application per core.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rebudget_apps::spec::apps_in_class;
use rebudget_apps::AppProfile;

use crate::category::Category;

/// Errors from bundle construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The core count cannot be split into four equal quarters.
    CoresNotDivisibleByFour {
        /// The offending core count.
        cores: usize,
    },
    /// The name is neither `bbpc` nor a [`Category`].
    UnknownCategory {
        /// The name as given.
        name: String,
    },
    /// The paper's `bbpc` case-study bundle was asked for on other than
    /// 8 cores.
    BbpcNeeds8Cores,
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::CoresNotDivisibleByFour { cores } => {
                write!(f, "core count {cores} is not divisible by 4")
            }
            WorkloadError::UnknownCategory { name } => write!(f, "unknown category '{name}'"),
            WorkloadError::BbpcNeeds8Cores => {
                write!(f, "the paper's bbpc case-study bundle is 8-core")
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A multiprogrammed bundle: `cores` applications, one per core, drawn
/// from a [`Category`]'s class mix.
#[derive(Debug, Clone)]
pub struct Bundle {
    /// The category the bundle was drawn from.
    pub category: Category,
    /// Index of this bundle within its category's suite (0-based).
    pub index: usize,
    /// One application per core.
    pub apps: Vec<&'static AppProfile>,
}

impl Bundle {
    /// Number of cores (= applications).
    pub fn cores(&self) -> usize {
        self.apps.len()
    }

    /// A short display label, e.g. `"CPBB#07"` (hand-constructed bundles
    /// with the `usize::MAX` sentinel index display as `"…#paper"`).
    pub fn label(&self) -> String {
        if self.index == usize::MAX {
            format!("{}#paper", self.category.name())
        } else {
            format!("{}#{:02}", self.category.name(), self.index)
        }
    }

    /// The application names in core order.
    pub fn app_names(&self) -> Vec<&'static str> {
        self.apps.iter().map(|a| a.name).collect()
    }
}

/// Generates one bundle: `cores / 4` applications drawn (with replacement,
/// so bundles can contain multiple copies of an application — as in the
/// paper's Figure 3 bundle) from each of the category's four quarters.
///
/// # Examples
///
/// ```
/// use rebudget_workloads::{generate_bundle, Category};
///
/// # fn main() -> Result<(), rebudget_workloads::WorkloadError> {
/// let bundle = generate_bundle(Category::Cpbn, 8, 0, 1)?;
/// assert_eq!(bundle.cores(), 8);
/// // Two apps from each of C, P, B, N.
/// assert_eq!(bundle.apps.iter().filter(|a| a.class.letter() == 'C').count(), 2);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`WorkloadError::CoresNotDivisibleByFour`] unless `cores % 4 == 0`.
pub fn generate_bundle(
    category: Category,
    cores: usize,
    index: usize,
    seed: u64,
) -> Result<Bundle, WorkloadError> {
    if cores == 0 || !cores.is_multiple_of(4) {
        return Err(WorkloadError::CoresNotDivisibleByFour { cores });
    }
    let per_quarter = cores / 4;
    // Mix the category and index into the seed so every bundle differs but
    // the full suite is reproducible from one seed.
    let mixed = seed
        ^ (category
            .name()
            .bytes()
            .fold(0u64, |h, b| h.wrapping_mul(131).wrapping_add(b as u64)))
        ^ ((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut rng = StdRng::seed_from_u64(mixed);
    let mut apps = Vec::with_capacity(cores);
    for class in category.quarters() {
        let pool = apps_in_class(class);
        debug_assert!(!pool.is_empty(), "every class has applications");
        for _ in 0..per_quarter {
            apps.push(pool[rng.random_range(0..pool.len())]);
        }
    }
    Ok(Bundle {
        category,
        index,
        apps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebudget_apps::AppClass;
    use std::collections::HashMap;

    #[test]
    fn class_mix_matches_category() {
        for category in Category::ALL {
            let bundle = generate_bundle(category, 64, 0, 42).unwrap();
            assert_eq!(bundle.cores(), 64);
            let mut counts: HashMap<AppClass, usize> = HashMap::new();
            for app in &bundle.apps {
                *counts.entry(app.class).or_default() += 1;
            }
            let mut expected: HashMap<AppClass, usize> = HashMap::new();
            for class in category.quarters() {
                *expected.entry(class).or_default() += 16;
            }
            assert_eq!(counts, expected, "category {category}");
        }
    }

    #[test]
    fn reproducible_and_seed_sensitive() {
        let a = generate_bundle(Category::Cpbn, 8, 3, 7).unwrap();
        let b = generate_bundle(Category::Cpbn, 8, 3, 7).unwrap();
        assert_eq!(a.app_names(), b.app_names());
        let c = generate_bundle(Category::Cpbn, 8, 4, 7).unwrap();
        let d = generate_bundle(Category::Cpbn, 8, 3, 8).unwrap();
        // Different index or seed should (overwhelmingly) differ.
        assert!(a.app_names() != c.app_names() || a.app_names() != d.app_names());
    }

    #[test]
    fn rejects_bad_core_counts() {
        assert!(generate_bundle(Category::Ccpp, 6, 0, 1).is_err());
        assert!(generate_bundle(Category::Ccpp, 0, 0, 1).is_err());
        let err = generate_bundle(Category::Ccpp, 7, 0, 1).unwrap_err();
        assert!(err.to_string().contains("7"));
    }

    #[test]
    fn labels_are_stable() {
        let b = generate_bundle(Category::Bbcn, 8, 7, 1).unwrap();
        assert_eq!(b.label(), "BBCN#07");
    }

    #[test]
    fn replacement_allows_duplicates() {
        // With 16 draws from 6 apps, duplicates are certain.
        let b = generate_bundle(Category::Ccpp, 64, 0, 9).unwrap();
        let mut names = b.app_names();
        names.sort_unstable();
        names.dedup();
        assert!(names.len() < 64);
    }
}
